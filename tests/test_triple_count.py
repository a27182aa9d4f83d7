"""Oracles for validate_scheme's float32 triple count: integer recounts of
every tensor, and a seeded mutation sweep whose failures must match an
int64 copy of the validation loop field for field."""

import random

import numpy as np
import pytest

from schemeconn.catalog import (build_family, builtin_catalog, gen_cyclic,
                                gen_hamming, gen_johnson)
from schemeconn.errors import (NonConstantIntersection, NotCommutative,
                               SchemeError)
from schemeconn.scheme import (RelationTable, symmetrized_scheme,
                               validate_scheme)


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


def test_tensor_matches_integer_counts():
    schemes = _schemes()
    assert len(schemes) > 50
    for s in schemes:
        assert s.tensor.p.dtype == np.int64
        assert np.array_equal(s.tensor.p, naive_tensor(s.classes)), s.name
        assert np.array_equal(s.tensor.p, reference_tensor(s.table)), s.name
        assert s.valencies == tuple(
            int(n) for n in np.bincount(np.asarray(s.classes[0])))


def test_counts_beyond_half_precision_exact():
    # K_2100: p_11^0 = 2099 and p_11^1 = 2098 need more than float16's
    # 11-bit significand, so a narrower product dtype would round them
    v = 2100
    s = validate_scheme(RelationTable.from_classes(
        1 - np.eye(v, dtype=np.int64)))
    assert s.tensor.p[1, 1].tolist() == [v - 1, v - 2]
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
    tm = s.table.transpose_map
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
