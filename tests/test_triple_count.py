"""Oracles for validate_scheme's float32 triple count: integer recounts of
every tensor, a seeded mutation sweep whose failures must match an int64
copy of the full validation loop field for field, and checks that the loop
stops after the first class whose arcs take d+1 levels from class 0, each
such class generating the algebra."""

import random

import numpy as np
import pytest

from schemeconn import scheme
from schemeconn.catalog import build_family, gen_cyclic, gen_hamming, gen_johnson
from schemeconn.errors import (NonConstantIntersection, NotCommutative,
                               SchemeError)
from schemeconn.graph import bit_rows, layers
from schemeconn.scheme import (RelationTable, symmetrized_scheme,
                               validate_scheme)
from small_graphs import builtin_catalog, fusions


def naive_tensor(classes) -> np.ndarray:
    """p[i, j, k] counted over the c of the first pair (a, b) of class k:
    the pairs (classes[a, c], classes[c, b]) binned in int64."""
    c = np.asarray(classes, dtype=np.int64)
    v, d = c.shape[0], int(c.max())
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for k in range(d + 1):
        a, b = divmod(int(np.argmax(c.ravel() == k)), v)
        counts = np.bincount(c[a] * (d + 1) + c[:, b], minlength=(d + 1) ** 2)
        p[:, :, k] = counts.reshape(d + 1, d + 1)
    return p


def reference_tensor(table: RelationTable) -> np.ndarray:
    """The validation loop as it ran on integer products: the same order of
    (i, j) pairs and the same witness choice, in int64 throughout."""
    c = table.classes.astype(np.int64)
    v, d = table.v, table.d
    first = np.empty(d + 1, dtype=np.int64)
    uniq, uidx = np.unique(c.ravel(), return_index=True)
    first[uniq] = uidx
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for j in range(d + 1):
        p[0, j, j] = 1
        p[j, 0, j] = 1
    p[0, 0, :] = 0
    p[0, 0, 0] = 1

    def check_pair(i, j):
        n = (c == i).astype(np.int64) @ (c == j).astype(np.int64)
        pv = n.ravel()[first]
        if not np.array_equal(n, pv[c]):
            a, b = (int(x) for x in np.argwhere(n != pv[c])[0])
            k = int(c[a, b])
            ra, rb = divmod(int(first[k]), v)
            raise NonConstantIntersection(
                i, j, k, ((ra, rb), int(pv[k])), ((a, b), int(n[a, b])))
        return pv

    if table.symmetric:
        for i in range(1, d + 1):
            for j in range(i, d + 1):
                p[i, j, :] = p[j, i, :] = check_pair(i, j)
    else:
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                p[i, j, :] = check_pair(i, j)
        mism = np.argwhere(p != p.transpose(1, 0, 2))
        if len(mism):
            i, j, k = (int(x) for x in mism[0])
            raise NotCommutative(i, j, k, int(p[i, j, k]), int(p[j, i, k]))
    return p


def exact_rank(rows) -> int:
    """Rank over Q, by fraction-free (Bareiss) elimination in Python
    integers: after each pivot every entry of the rows below it is a minor
    of the input, so each division by the previous pivot is exact, and is
    checked to be."""
    m = [[int(x) for x in row] for row in rows]
    rank, prev = 0, 1
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        for r in range(rank + 1, len(m)):
            lead = m[r][col]
            row = []
            for x, y in zip(m[r], top):
                q, rem = divmod(top[col] * x - lead * y, prev)
                assert rem == 0
                row.append(q)
            m[r] = row
        prev = top[col]
        rank += 1
    return rank


def krylov_rank(s, i: int) -> int:
    """The rank over Q of e_0, B e_0, ..., B^d e_0 in Python integers, for
    B[k][j] = p_ij^k: d+1 exactly when I, A_i, ..., A_i^d span the
    algebra."""
    b = s.p[i].T.tolist()
    vec = [1] + [0] * s.d
    krylov = [vec]
    for _ in range(s.d):
        vec = [sum(x * y for x, y in zip(row, vec)) for row in b]
        krylov.append(vec)
    return exact_rank(krylov)


def level_count(s, i: int) -> int:
    """The BFS levels from class 0 of the arcs j -> k with p_ij^k > 0,
    found with sets."""
    reached = frontier = {0}
    count = 0
    while frontier:
        count += 1
        frontier = {int(k) for j in frontier
                    for k in np.flatnonzero(s.p[i, j])} - reached
        reached = reached | frontier
    return count


def _fields(exc: SchemeError) -> tuple:
    return (type(exc), getattr(exc, "i", None), getattr(exc, "j", None),
            getattr(exc, "k", None), getattr(exc, "ref", None),
            getattr(exc, "bad", None), str(exc))


def _schemes():
    out = []
    for s in builtin_catalog():
        out.append(s)
        if not s.symmetric:
            out.append(symmetrized_scheme(s))
    out += [gen_johnson(9, 4), gen_johnson(11, 2), gen_hamming(3, 4),
            gen_hamming(4, 3), gen_cyclic(13), gen_cyclic(20)]
    return out


def _large():
    """The schemes of the benchmark's ingest files, all P-polynomial."""
    return [gen_cyclic(101), gen_johnson(16, 3), gen_johnson(12, 4),
            gen_johnson(10, 5), gen_hamming(8, 2), gen_hamming(3, 7),
            gen_hamming(5, 3)]


def matching_by_path_classes() -> np.ndarray:
    """{0,1} x P_4, vertex 4x + y: class 1 is the matching sigma (x) I,
    classes 2..4 are I (x) R_t and 5..7 are sigma (x) R_t for the distance
    classes R_1..R_3 of the path.  A_1 is a permutation matrix commuting
    with every class, so row 1 passes, but A_1^2 = I generates nothing, and
    the path's degrees 1, 2, 2, 1 make p_22^0 non-constant: no scheme."""
    x, y = np.divmod(np.arange(8), 4)
    flip = (x[:, None] != x[None, :]).astype(np.int64)
    dist = np.abs(y[:, None] - y[None, :])
    return np.where(dist == 0, flip, 1 + dist + 3 * flip)


def k2_by_k3_classes() -> np.ndarray:
    """The direct product of the schemes of K_2 and K_3 on 2 x 3 vertices:
    class 1 differs in the first coordinate only, 2 in the second only, 3
    in both.  A_1^2 = I, so class 1 does not generate."""
    x, y = np.divmod(np.arange(6), 3)
    return ((x[:, None] != x[None, :]).astype(np.int64)
            + 2 * (y[:, None] != y[None, :]))


def test_tensor_matches_integer_counts():
    schemes = _schemes()
    assert len(schemes) > 50
    for s in schemes:
        assert s.p.dtype == np.int64
        assert np.array_equal(s.p, naive_tensor(s.classes)), s.name
        assert np.array_equal(s.p, reference_tensor(s)), s.name
        assert s.valencies == tuple(
            int(n) for n in np.bincount(np.asarray(s.classes[0])))


def test_counts_beyond_half_precision_exact():
    # K_2100: p_11^0 = 2099 and p_11^1 = 2098 need more than float16's
    # 11-bit significand, so a narrower product dtype would round them
    v = 2100
    s = validate_scheme(RelationTable.from_classes(
        1 - np.eye(v, dtype=np.int64)))
    assert s.p[1, 1].tolist() == [v - 1, v - 2]
    assert s.valencies == (1, v - 1)


MUTATED = [("cyclic", (7,)), ("cyclic", (10,)), ("hamming", (3, 2)),
           ("hamming", (2, 4)), ("johnson", (6, 3)), ("johnson", (8, 3)),
           ("drg", ("petersen",)), ("conjugacy", ("D4",)),
           ("conjugacy", ("Z5",)), ("conjugacy", ("Z7",))]


@pytest.mark.parametrize("family", MUTATED,
                         ids=lambda f: "-".join(map(str, (f[0],) + f[1])))
def test_mutations_raise_with_recounted_witness(family):
    """Reassign one off-diagonal pair (and its transpose) to another class.
    A row then holds one more pair of the new class than the others, so no
    mutant is a scheme.  Every one must raise; a NonConstantIntersection
    witness must recount in integers and match the int64 loop's fields."""
    s = build_family(*family)
    tm = s.transpose_map
    rng = random.Random(f"mutate:{s.name}")
    witnessed = 0
    for _ in range(40):
        c = np.array(s.classes, dtype=np.int64)
        a, b = rng.sample(range(s.v), 2)
        t = rng.choice([x for x in range(1, s.d + 1) if x != c[a, b]])
        c[a, b], c[b, a] = t, tm[t]
        with pytest.raises(SchemeError) as got:
            validate_scheme(RelationTable.from_classes(c))
        exc = got.value
        with pytest.raises(SchemeError) as want:
            reference_tensor(RelationTable.from_classes(c))
        assert _fields(exc) == _fields(want.value)
        if isinstance(exc, NonConstantIntersection):
            witnessed += 1
            counts = []
            for (x, y), n in (exc.ref, exc.bad):
                assert c[x, y] == exc.k
                assert n == int(np.count_nonzero(
                    (c[x] == exc.i) & (c[:, y] == exc.j)))
                counts.append(n)
            assert counts[0] != counts[1]
    assert witnessed > 0


def test_mutation_failing_in_a_later_packed_product():
    """C101's row 1 packs its 50 classes into 4 products of 15 (see
    test_products_stop_once_one_class_generates).  Moving a pair between
    two classes of 17..50 leaves every A_1 A_j with j <= 15 constant, so
    the first failure lies in a later product, and often at a digit past
    its first; its fields must still match the one-product-per-class
    loop's."""
    s = gen_cyclic(101)
    rng = random.Random("later-group")
    failing = []
    for _ in range(25):
        c = np.array(s.classes, dtype=np.int64)
        a, b = rng.sample(range(s.v), 2)
        while c[a, b] < 17:
            a, b = rng.sample(range(s.v), 2)
        c[a, b] = c[b, a] = rng.choice(
            [t for t in range(17, s.d + 1) if t != c[a, b]])
        with pytest.raises(NonConstantIntersection) as got:
            validate_scheme(RelationTable.from_classes(c))
        with pytest.raises(NonConstantIntersection) as want:
            reference_tensor(RelationTable.from_classes(c))
        assert _fields(got.value) == _fields(want.value)
        failing.append(got.value.j)
    assert min(failing) > 15
    assert any((j - 1) % 15 for j in failing)


def test_large_tensors_match_integer_counts():
    # naive_tensor alone: the int64 product loop takes seconds at this size
    for s in _large():
        assert np.array_equal(s.p, naive_tensor(s.classes)), s.name


def test_tensor_when_class_1_does_not_generate():
    """Class 1 of conj-D4 and conj-Q8 is the centre's involution, and of
    K_2 x K_3 a factor's; none generates, so later rows run and the tensor
    must still be every triple count."""
    schemes = [build_family("conjugacy", ("D4",)),
               build_family("conjugacy", ("Q8",)),
               validate_scheme(RelationTable.from_classes(k2_by_k3_classes()))]
    for s in schemes:
        assert sum(1 for _ in layers(bit_rows(s.p[1] > 0), 0)) < s.d + 1, \
            s.name
        assert np.array_equal(s.p, naive_tensor(s.classes)), s.name
        assert np.array_equal(s.p, reference_tensor(s)), s.name


def test_partition_passing_row_1_is_rejected():
    """Row 1 of the matching-by-path partition passes and A_1 does not
    generate, so the loop must go on to row 2 and fail where the full loop
    does, at p_22^0."""
    table = RelationTable.from_classes(matching_by_path_classes())
    with pytest.raises(NonConstantIntersection) as got:
        validate_scheme(table)
    with pytest.raises(NonConstantIntersection) as want:
        reference_tensor(table)
    assert _fields(got.value) == _fields(want.value)
    assert (got.value.i, got.value.j, got.value.k) == (2, 2, 0)


def test_products_stop_once_one_class_generates(monkeypatch):
    """A_1 generates a P-polynomial scheme, so row 1 is all that runs; its
    d classes share packed products.  C101's class 1 has valency 2, so a
    product packs the 15 base-3 digits below 2**24 and row 1's 50 classes
    take 4; J(16,3)'s valency 39 packs 4 base-40 digits, all 3 classes in
    one; H(8,2)'s valency 8 packs 7 base-9 digits, 8 classes in 2.  conj-D4
    has no generating class and runs every row, one product each, since
    its valencies are at most 2."""
    schemes = [gen_cyclic(101), gen_johnson(16, 3), gen_hamming(8, 2),
               build_family("conjugacy", ("D4",))]
    calls = []
    packed_products = scheme._packed_products

    def spy(table, i, js, ai, base):
        calls.append((i, tuple(js)))
        # base bounds every count of row i, and the run's base-`base`
        # digits fit float32's 24-bit significand
        valency = int(np.count_nonzero(table.classes == i, axis=1).max())
        assert base == valency + 1
        assert base ** len(js) <= 2 ** 24
        return packed_products(table, i, js, ai, base)

    monkeypatch.setattr(scheme, "_packed_products", spy)
    counts, rows = [], []
    for s in schemes:
        calls.clear()
        assert np.array_equal(validate_scheme(s).p, s.p)
        counts.append(len(calls))
        rows.append({i for i, _ in calls})
        # every class j of every row that ran is checked exactly once
        checked = sorted((i, j) for i, js in calls for j in js)
        assert checked == sorted(set(checked)), s.name
        # a row's runs are as long as the digits allow, but for its last
        for (i, js), (i2, _) in zip(calls, calls[1:]):
            if i == i2:
                base = int(np.count_nonzero(s.classes == i, axis=1).max()) + 1
                assert base ** (len(js) + 1) > 2 ** 24, s.name
    assert counts == [4, 1, 2, 4]
    assert rows[:3] == [{1}] * 3
    assert rows[3] == set(range(1, schemes[3].d + 1))


def test_first_pair_matches_full_sort():
    """from_classes reads labels and first pairs off row 0 and sorts all v^2
    labels only when row 0 misses one.  Both must give np.unique's first
    pairs, on schemes and on copies with one pair of row 0 reassigned; C20's
    class 10 has one pair in row 0, so moving it leaves row 0 short."""
    mats = [np.asarray(s.classes) for s in _schemes() + _large()]
    c20 = np.array(gen_cyclic(20).classes)
    c20[0, 10] = c20[10, 0] = 1
    mats.append(c20)
    rng = random.Random("first-pair")
    for c in list(mats):
        d = int(c.max())
        if not (c == c.T).all() or d < 2:
            continue
        c = c.copy()
        b = rng.randrange(1, len(c))
        c[0, b] = c[b, 0] = rng.choice(
            [t for t in range(1, d + 1) if t != c[0, b]])
        mats.append(c)
    short = 0
    for c in mats:
        uniq, first = np.unique(c.ravel(), return_index=True)
        assert np.array_equal(uniq, np.arange(len(uniq)))
        table = RelationTable.from_classes(c)
        assert np.array_equal(table.first_pair, first)
        short += len(np.unique(c[0])) < len(uniq)
    assert short > 0


def test_stop_row_is_the_first_path_class(monkeypatch):
    """The loop stops after the first row i whose arcs j -> k, p_ij^k > 0,
    take d+1 levels from class 0, a path class: on a symmetric scheme,
    one whose distribution diagram is a path.  Every path class must
    generate over Q.  On the catalog, its symmetrizations and the ingest
    schemes the first path class must also be the first class that
    generates, so no row runs that a generation test would have skipped;
    a fusion may have a generating class before its first path class, or
    none at all, and then runs more rows."""
    rows = []
    packed_products = scheme._packed_products

    def spy(table, i, js, ai, base):
        rows.append(i)
        return packed_products(table, i, js, ai, base)

    monkeypatch.setattr(scheme, "_packed_products", spy)
    plain = _schemes() + _large()
    fused = [f for s in plain if 3 <= s.d <= 9 for f in fusions(s)]
    assert len(plain) > 60 and len(fused) > 60
    paths = non_paths = 0
    late = []
    for s, is_fusion in ([(s, False) for s in plain]
                         + [(f, True) for f in fused]):
        first_path = first_full = None
        for i in range(1, s.d + 1):
            path = level_count(s, i) == s.d + 1
            if s.symmetric:
                assert path == (s.diagrams[i].diameter == s.d), (s.name, i)
            if path:
                assert krylov_rank(s, i) == s.d + 1, (s.name, i)
                first_path = first_path or i
            if first_full is None and (path or krylov_rank(s, i) == s.d + 1):
                first_full = i
            paths += path
            non_paths += not path
        if is_fusion:
            if first_path != first_full:
                late.append(s.name)
        else:
            assert first_path == first_full, s.name
        rows.clear()
        validate_scheme(s)
        assert set(rows) == set(range(1, (first_path or s.d) + 1)), s.name
    assert paths and non_paths
    # class 1 generates, and no diagram is a path: all 3 rows run
    assert late == ["johnson-8-4-fused-1-3"]
