"""Scheme generators, JSON persistence, and the builtin survey catalog.

Every generator routes its class matrix through validate_scheme, so a bug in
a construction cannot silently ship an invalid tensor, nor an invalid
automorphism: the Hamming, Johnson and cyclic families move their points
(words, membership rows, Z_n as one column) and _images reads the vertex
permutations off them.  load_scheme trusts nothing: the stored class
matrix is re-validated from scratch.
"""
from __future__ import annotations

import json
from itertools import chain, combinations, permutations, product
from math import comb

import numpy as np

from .errors import (
    Disconnected,
    NotAGroup,
    NotDistanceRegular,
    NonConstantIntersection,
    ParseError,
    SizeCap,
)
from .graph import (Graph, _orbit_representatives, complete_bipartite,
                    petersen)
from .scheme import (
    SIZE_CAP,
    RelationTable,
    SchemeDescriptor,
    validate_scheme,
)


# -- families ------------------------------------------------------------

def _swap_and_cycle(n: int, block) -> list[np.ndarray]:
    """Permutations of range(n): the swap of block's first two points and
    the cycle sending each point of block to the next and the last to the
    first.  They generate the symmetric group on block, and are identities
    when block has fewer than two points."""
    pts = list(block)
    perms = []
    for moved in (pts[:2], pts):
        perm = np.arange(n)
        perm[moved] = moved[1:] + moved[:1]
        perms.append(perm)
    return perms


def _images(points: np.ndarray, moves) -> tuple[tuple[int, ...], ...]:
    """Vertex x is row x of points, and row x of each moved array is the
    point x goes to: the permutations of the vertices this gives, as image
    tuples, identities and repeats dropped."""
    vertex = {row.tobytes(): x for x, row in enumerate(points)}
    out: list[tuple[int, ...]] = []
    for moved in moves:
        perm = tuple(vertex[row.tobytes()] for row in moved)
        if perm != tuple(range(len(perm))) and perm not in out:
            out.append(perm)
    return tuple(out)


def gen_hamming(n: int, q: int) -> SchemeDescriptor:
    """Words of length n over q symbols, classes by Hamming distance."""
    if n < 1 or q < 2:
        raise ValueError("need n >= 1 and q >= 2")
    if n > 12 or q > SIZE_CAP or q ** n > SIZE_CAP:     # n > 12: q^n > 2^12
        raise SizeCap(f"q^n = {q}^{n} exceeds cap {SIZE_CAP}")
    # vertex x is the x-th word in lexicographic order; one coordinate at
    # a time, no (v, v, n) temporary
    words = np.array(list(product(range(q), repeat=n)), dtype=np.int16)
    classes = np.zeros((len(words),) * 2, dtype=np.int8)
    for pos in range(n):
        classes += words[:, None, pos] != words[None, :, pos]

    def on_symbol_0(sigma: np.ndarray) -> np.ndarray:
        moved = words.copy()
        moved[:, 0] = sigma[words[:, 0]]
        return moved

    # S_n on coordinates; with S_{q-1} on the nonzero symbols of coordinate
    # 0 (conjugated to every coordinate by S_n) it generates the stabiliser
    # of the zero word, and with x_0 -> x_0 + 1 mod q, which S_n conjugates
    # to a translation of every coordinate, a transitive group
    coords = [words[:, perm] for perm in _swap_and_cycle(n, range(n))]
    symbols = [on_symbol_0(sigma) for sigma in _swap_and_cycle(q, range(1, q))]
    shift = on_symbol_0(_swap_and_cycle(q, range(q))[1])
    return validate_scheme(RelationTable.from_classes(classes),
                           name=f"hamming-{n}-{q}",
                           stabiliser=_images(words, coords + symbols),
                           transitive=_images(words, coords + [shift]))


def gen_johnson(vs: int, k: int) -> SchemeDescriptor:
    """k-subsets of a vs-set, classes by k - |intersection|."""
    if not 1 <= k <= vs // 2:
        raise ValueError("need 1 <= k <= vs/2")
    if vs > SIZE_CAP or comb(vs, k) > SIZE_CAP:     # C(vs, k) >= vs
        raise SizeCap(f"C({vs},{k}) exceeds cap {SIZE_CAP}")
    # vertex x is the x-th k-subset in lexicographic order, as a row of
    # memberships
    subsets = np.array(list(combinations(range(vs), k))).reshape(-1, k)
    members = np.zeros((len(subsets), vs), dtype=np.int32)
    np.put_along_axis(members, subsets, 1, axis=1)
    classes = k - members @ members.T

    def on_members(sigma: np.ndarray) -> np.ndarray:
        # y is in sigma(S) iff sigma^-1(y) is in S
        inverse = np.empty_like(sigma)
        inverse[sigma] = np.arange(vs)
        return members[:, inverse]

    # stabiliser of {0..k-1}: S_k x S_{vs-k}; S_vs itself, by (0 1) and the
    # full cycle, is transitive on k-subsets
    stabiliser = [on_members(sigma) for block in (range(k), range(k, vs))
                  for sigma in _swap_and_cycle(vs, block)]
    transitive = map(on_members, _swap_and_cycle(vs, range(vs)))
    return validate_scheme(RelationTable.from_classes(classes),
                           name=f"johnson-{vs}-{k}",
                           stabiliser=_images(members, stabiliser),
                           transitive=_images(members, transitive))


def gen_cyclic(n: int) -> SchemeDescriptor:
    """Z_n with classes by circular distance min(|i-j|, n-|i-j|)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n > SIZE_CAP:
        raise SizeCap(f"n = {n} exceeds cap {SIZE_CAP}")
    x = np.arange(n)
    diff = np.abs(x[:, None] - x[None, :])
    classes = np.minimum(diff, n - diff)
    # the dihedral stabiliser of 0 is generated by x -> -x, and the
    # rotation x -> x + 1 is transitive
    points = x[:, None]
    return validate_scheme(RelationTable.from_classes(classes),
                           name=f"cyclic-{n}",
                           stabiliser=_images(points, [-points % n]),
                           transitive=_images(points, [(points + 1) % n]))


GROUP_CAP = 256


def _group_checks(mul: np.ndarray) -> tuple[int, np.ndarray]:
    """Verify group axioms exhaustively; return (identity, inverse array)."""
    v = mul.shape[0]
    if mul.ndim != 2 or mul.shape != (v, v):
        raise NotAGroup("mul must be square")
    if mul.min() < 0 or mul.max() >= v:
        raise NotAGroup("entries must index elements 0..v-1")
    idx = np.arange(v)
    e = -1
    for cand in range(v):
        if np.array_equal(mul[cand], idx) and np.array_equal(mul[:, cand], idx):
            e = cand
            break
    if e < 0:
        raise NotAGroup("no two-sided identity element")
    inv = np.full(v, -1, dtype=np.int64)
    for a in range(v):
        hits = np.nonzero(mul[a] == e)[0]
        if len(hits) != 1 or mul[hits[0], a] != e:
            raise NotAGroup(f"element {a} has no two-sided inverse")
        inv[a] = hits[0]
    for a in range(v):      # (ab)c against a(bc) as [b, c], v^2 at a time
        bad = np.argwhere(mul[mul[a]] != mul[a][mul])
        if len(bad):
            b, cc = (int(t) for t in bad[0])
            raise NotAGroup(f"associativity fails at ({a},{b},{cc})")
    return e, inv


def gen_conjugacy(mul, name: str = "conjugacy") -> SchemeDescriptor:
    """Group-conjugacy scheme: class of (a,b) is the conjugacy class of
    a b^{-1}.  Classes are ordered identity first, then by (size, least
    element)."""
    mul = np.asarray(mul, dtype=np.int64)
    v = mul.shape[0]
    if v > GROUP_CAP:
        raise SizeCap(f"group order {v} exceeds cap {GROUP_CAP}")
    e, inv = _group_checks(mul)
    # conjugacy classes as orbits of g -> hgh^{-1}
    cls_of = np.full(v, -1, dtype=np.int64)
    classes_list = []
    for g in range(v):
        if cls_of[g] != -1:
            continue
        orbit = sorted({int(mul[mul[h, g], inv[h]]) for h in range(v)})
        classes_list.append(orbit)
        for x in orbit:
            cls_of[x] = -2      # temporary mark
    order = sorted(classes_list, key=lambda orb: (orb != [e], len(orb), orb[0]))
    for label, orb in enumerate(order):
        for x in orb:
            cls_of[x] = label
    prod = mul[np.arange(v)[:, None], inv[np.arange(v)][None, :]]  # a b^{-1}
    classes = cls_of[prod]
    return validate_scheme(RelationTable.from_classes(classes), name=name,
                           transitive=_right_multiplications(mul))


def _right_multiplications(mul: np.ndarray) -> tuple:
    """Right multiplications x -> xg, which fix every a b^{-1}, for a
    greedy generating set: g is taken, in element order, when it lowers
    the number of orbits of right multiplication by the ones before it,
    until one orbit is left.  Those orbits are the cosets xH of the
    subgroup H the ones before generate, so g is taken iff g is not in H."""
    gens: list[tuple[int, ...]] = []
    orbits = v = mul.shape[0]
    for g in range(v):
        perm = tuple(int(y) for y in mul[:, g])
        left = len(_orbit_representatives(range(v), gens + [perm]))
        if left < orbits:
            gens.append(perm)
            orbits = left
            if orbits == 1:
                break
    return tuple(gens)


def scheme_from_drg(graph: Graph, name: str = "drg") -> SchemeDescriptor:
    """Distance partition of a connected graph, validated as a scheme.
    Raises NotDistanceRegular (with the witness) when the distance counts
    are not constant."""
    if not graph.is_connected():
        raise Disconnected("graph must be connected")
    classes = graph.distance_matrix().astype(np.int64)
    try:
        return validate_scheme(RelationTable.from_classes(classes), name=name)
    except NonConstantIntersection as exc:
        raise NotDistanceRegular(str(exc)) from exc


# -- persistence ---------------------------------------------------------

# what json.dumps writes before a class matrix, and the longest label the
# numpy reader takes (every 18-digit integer fits int64)
_CLASSES_KEY = b'"classes": '
_MAX_DIGITS = 18
_DIGITS = b"0123456789"
_NOT_DIGITS = bytes(sorted(set(range(256)) - set(_DIGITS)))


def save_scheme(desc: SchemeDescriptor, path) -> None:
    payload = {
        "name": desc.name,
        "v": desc.v,
        "d": desc.d,
        "classes": desc.classes.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload) + "\n")


def _dumped_matrix(data: bytes, begin: int, end: int):
    """data[begin:end] as a matrix when it is what json.dumps writes for a
    matrix of non-negative integers with at most _MAX_DIGITS digits and no
    leading zero; None otherwise.  The matrix is uint8 when every label
    has one digit, int64 otherwise."""
    # one-digit labels: each row is "[a, b, ..., z]" in 3n bytes, so the
    # text is r blocks of 3n + 2 bytes, each a row with the byte before it
    # ("[" opening the matrix, or the " " of ", ") and the byte after it
    # ("," of ", ", or "]" closing the matrix).  The first row's "]" is at
    # 3n, and every byte of every block is checked where it stands
    n3 = data.find(b"]", begin, end) - begin
    if n3 > 0 and n3 % 3 == 0 and (end - begin) % (n3 + 2) == 0:
        rows = np.frombuffer(data, dtype=np.uint8, count=end - begin,
                             offset=begin).reshape(-1, n3 + 2)
        if (rows[0, 0] == ord("[") and (rows[1:, 0] == ord(" ")).all()
                and (rows[:, 1] == ord("[")).all()
                and (rows[:, n3] == ord("]")).all()
                and (rows[:-1, n3 + 1] == ord(",")).all()
                and rows[-1, n3 + 1] == ord("]")
                and (rows[:, 3:n3:3] == ord(",")).all()
                and (rows[:, 4:n3:3] == ord(" ")).all()):
            digits = rows[:, 2:n3:3] - np.uint8(ord("0"))
            if digits.max() < 10:
                return digits
    text = data[begin:end]
    # with its digits deleted, the text is the skeleton of an r x n matrix:
    # "[[", the n - 1 ", " of each row, "], [" between rows, "]]"
    skeleton = text.translate(None, _DIGITS)
    n = skeleton.find(b"]") // 2
    if n < 1:
        return None
    r = len(skeleton) // (2 * n + 2)
    if skeleton != b"[[" + b"], [".join([b", " * (n - 1)] * r) + b"]]":
        return None
    del skeleton
    # so every byte that is no digit is "[", " ", "," or "]".  Each of the
    # r * n gaps holds exactly one run of digits: a run starts after "["
    # or " " and ends before "," or "]", so it sits in a label's gap, and
    # there is one run per gap
    u = np.frombuffer(text, dtype=np.uint8)
    digit = u - np.uint8(ord("0")) < 10
    opens = (u == ord("[")) | (u == ord(" "))
    starts, ends = np.empty_like(digit), np.empty_like(digit)
    starts[0], ends[-1] = digit[0], digit[-1]
    np.greater(digit[1:], digit[:-1], out=starts[1:])
    np.greater(digit[:-1], digit[1:], out=ends[:-1])
    if (np.count_nonzero(starts) != r * n or (starts[1:] > opens[:-1]).any()
            or (ends[:-1] & opens[1:]).any()):
        return None
    del opens
    values = np.frombuffer(text.translate(None, _NOT_DIGITS),
                           dtype=np.uint8) - np.uint8(ord("0"))
    width = 1
    if len(values) > r * n:
        # some label has several digits: none may start with 0
        if (starts & ~ends & (u == ord("0"))).any():
            return None
        # each label's number of digits; alive marks the last digit of
        # the runs longer than `width`
        lengths = np.ones(r * n, dtype=np.uint8)
        alive = ends.copy()
        while True:
            alive[width:] &= digit[:-width]
            if not alive.any():
                break
            if width == _MAX_DIGITS:
                return None
            lengths += alive[ends]
            width += 1
        del alive
        # right-align every label's digits in a row of `width` columns
        padded = np.zeros((r * n, width), dtype=np.uint8)
        padded[np.arange(width) >= width - lengths[:, None]] = values
        values = padded
    del u, digit, starts, ends
    # read each row of digits by Horner's rule
    values = values.reshape(r * n, width)
    matrix = values[:, 0].astype(np.int64)
    for col in range(1, width):
        matrix *= 10
        matrix += values[:, col]
    return matrix.reshape(r, n)


def _dumped_payload(data: bytes):
    """The payload of a scheme file whose `classes` value is byte for byte
    what json.dumps writes for a matrix of non-negative integer labels,
    with that value read by _dumped_matrix and the rest of the document by
    json.loads; None for any other file.

    The value is taken to run from the first '"classes": [[' to the last
    "]]" of the file, and the document is parsed with NaN in its place.
    The payload is taken only if '"classes"' occurs once in that parsed
    text and the NaN, and no other constant, is the top-level "classes"
    value; so a match inside a string or a nested object, or a duplicate
    key, leaves the file to the json route.  Neither scan reads the matrix
    text: a value the reader takes holds no quote, so the file holds no
    other '"classes"', and it holds "]]" only as its last two bytes, so
    any later "]]" fails the reader's check and leaves the file to the
    json route too."""
    start = data.find(_CLASSES_KEY + b"[[")
    last = data.rfind(b"]]")
    if start < 0 or last < start:
        return None
    end = last + 2
    header = data[:start] + _CLASSES_KEY + b"NaN" + data[end:]
    if header.count(b'"classes"') != 1:
        return None
    marker, constants = object(), []

    def constant(name):
        constants.append(name)
        return marker

    try:
        payload = json.loads(header.decode("utf-8"), parse_constant=constant)
    except ValueError:
        return None
    if (len(constants) != 1 or not isinstance(payload, dict)
            or payload.get("classes") is not marker):
        return None
    matrix = _dumped_matrix(data, start + len(_CLASSES_KEY), end)
    if matrix is None:
        return None
    payload["classes"] = matrix
    return payload


def load_scheme(path) -> SchemeDescriptor:
    """Parse and fully re-validate a stored scheme.  Files in json.dumps'
    layout have their class matrix read in numpy (_dumped_payload), as a
    strided view of the file's bytes when every label has one digit; every
    other file, and every error message, goes through json.loads."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        payload = _dumped_payload(data)
        if payload is None:
            # JSON is UTF-8 whatever the locale
            payload = json.loads(data.decode("utf-8"))
    # json's decoder recurses once per nesting level, on either route, and
    # a bare ValueError refuses an integer past Python's digit limit
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    del data
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("name", "v", "d", "classes"):
        if key not in payload:
            raise ParseError(f"{path}: missing field {key!r}")
    name = payload["name"]
    if not isinstance(name, str):
        raise ParseError(f"{path}: name must be a string")
    # bool is an int subclass, but true/false are no class index or size
    if not all(type(payload[key]) is int for key in ("v", "d")):
        raise ParseError(
            f"{path}: v and d must be integers, got v={payload['v']!r}, "
            f"d={payload['d']!r}")
    classes = payload.pop("classes")
    if isinstance(classes, np.ndarray):
        matrix = classes
    elif (not isinstance(classes, list)
            or not set(map(type, classes)) <= {list}
            or not set(map(type, chain.from_iterable(classes))) <= {int}):
        raise ParseError(f"{path}: classes must be a matrix of integers")
    else:
        try:
            matrix = np.asarray(classes, dtype=np.int64)
        except ValueError as exc:       # ragged rows
            raise ParseError(f"{path}: classes rows differ in length") from exc
        except OverflowError as exc:    # an entry outside int64
            raise ParseError(f"{path}: class index out of range") from exc
    # the parsed value (popped from payload) and the matrix, uint8 or int64,
    # are both dropped before validation, so neither is alive during its
    # products
    del classes
    table = RelationTable.from_classes(matrix)
    del matrix
    if table.v != payload["v"] or table.d != payload["d"]:
        raise ParseError(
            f"{path}: declared v={payload['v']}, d={payload['d']} but matrix "
            f"has v={table.v}, d={table.d}")
    return validate_scheme(table, name=name)


# -- concrete small groups ----------------------------------------------

def _cayley_table(elements, product) -> np.ndarray:
    """mul[a, b] is the index of product(elements[a], elements[b])."""
    index = {x: i for i, x in enumerate(elements)}
    return np.array([[index[product(x, y)] for y in elements]
                     for x in elements], dtype=np.int64)


def _compose(p: tuple, q: tuple) -> tuple:
    """The permutation x -> p[q[x]], as an image tuple."""
    return tuple(p[x] for x in q)


def _hamilton(p: tuple, q: tuple) -> tuple:
    """Hamilton's product of quaternions given as (1, i, j, k) coordinates."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def cyclic_group_table(n: int) -> np.ndarray:
    return _cayley_table(range(n), lambda x, y: (x + y) % n)


def symmetric3_table() -> np.ndarray:
    """S_3 as permutations of {0,1,2} in lexicographic one-line order."""
    return _cayley_table(list(permutations(range(3))), _compose)


def dihedral4_table() -> np.ndarray:
    """D_4 of order 8 as the maps x -> a + (-1)^b x of Z_4; element a + 4b
    is r^a s^b."""
    return _cayley_table([tuple((a + (-1) ** b * x) % 4 for x in range(4))
                          for b in range(2) for a in range(4)], _compose)


def quaternion_table() -> np.ndarray:
    """Q_8 with elements 1,-1,i,-i,j,-j,k,-k in that order."""
    units = [tuple(sign * (t == u) for t in range(4))
             for u in range(4) for sign in (1, -1)]
    return _cayley_table(units, _hamilton)


# -- builtin catalog -----------------------------------------------------

# (kind, params) family entries; kept small enough that the kappa sweep over
# every connected relation stays at desk scale.
BUILTIN_FAMILIES: tuple[tuple[str, tuple], ...] = tuple(
    [("cyclic", (n,)) for n in range(3, 13)]
    + [("hamming", (n, 2)) for n in range(1, 7)]
    + [("hamming", (2, q)) for q in (3, 4, 5)]
    + [("johnson", (vs, k))
       for k in range(2, 6)
       for vs in range(2 * k, 14)
       if comb(vs, k) <= 300]
    + [("conjugacy", ("S3",)), ("conjugacy", ("D4",)), ("conjugacy", ("Q8",)),
       ("conjugacy", ("Z5",)), ("conjugacy", ("Z7",))]
    + [("drg", ("petersen",)), ("drg", ("k33",))]
)

_GROUPS = {
    "S3": symmetric3_table,
    "D4": dihedral4_table,
    "Q8": quaternion_table,
    "Z5": lambda: cyclic_group_table(5),
    "Z7": lambda: cyclic_group_table(7),
}

_DRGS = {
    "petersen": petersen,
    "k33": lambda: complete_bipartite(3, 3),
}


# each family kind's parameter types and builder
_FAMILIES = {
    "hamming": ((int, int), gen_hamming),
    "johnson": ((int, int), gen_johnson),
    "cyclic": ((int,), gen_cyclic),
    "conjugacy": ((str,), lambda g: gen_conjugacy(_GROUPS[g](),
                                                  name=f"conj-{g}")),
    "drg": ((str,), lambda g: scheme_from_drg(_DRGS[g](), name=f"drg-{g}")),
}


def check_family(kind, params: tuple) -> None:
    """Raise ParseError unless kind is a known family and params has its
    arity and types (ints for sizes, a str for a group or graph name)."""
    if not isinstance(kind, str) or kind not in _FAMILIES:
        raise ParseError(f"unknown family kind {kind!r}")
    types = _FAMILIES[kind][0]
    if len(params) != len(types) or not all(
            isinstance(x, t) and not isinstance(x, bool)
            for x, t in zip(params, types)):
        want = ", ".join(t.__name__ for t in types)
        raise ParseError(f"family {kind!r} takes ({want}), got {params!r}")
    known = {"conjugacy": _GROUPS, "drg": _DRGS}.get(kind)
    if known is not None and params[0] not in known:
        raise ParseError(f"unknown {kind} member {params[0]!r}; "
                         f"have {sorted(known)}")


def build_family(kind: str, params: tuple) -> SchemeDescriptor:
    check_family(kind, params)
    return _FAMILIES[kind][1](*params)
