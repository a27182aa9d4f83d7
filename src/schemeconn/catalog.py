"""Scheme generators, JSON persistence, and the builtin survey catalog.

Every generator routes its class matrix through validate_scheme, so a bug in
a construction cannot silently ship an invalid tensor.  load_scheme trusts
nothing: the stored class matrix is re-validated from scratch.
"""
from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations
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
from .graph import Graph, complete_bipartite, petersen
from .scheme import (
    SIZE_CAP,
    RelationTable,
    SchemeDescriptor,
    validate_scheme,
)


# -- families ------------------------------------------------------------

@lru_cache(maxsize=None)
def gen_hamming(n: int, q: int) -> SchemeDescriptor:
    """Words of length n over q symbols, classes by Hamming distance."""
    if n < 1 or q < 2:
        raise ValueError("need n >= 1 and q >= 2")
    v = q ** n
    if v > SIZE_CAP:
        raise SizeCap(f"q^n = {v} exceeds cap {SIZE_CAP}")
    digits = np.zeros((v, n), dtype=np.int16)
    x = np.arange(v)
    for pos in range(n):
        digits[:, n - 1 - pos] = (x // q ** pos) % q
    classes = (digits[:, None, :] != digits[None, :, :]).sum(axis=2)
    return validate_scheme(RelationTable.from_classes(classes),
                           name=f"hamming-{n}-{q}")


@lru_cache(maxsize=None)
def gen_johnson(vs: int, k: int) -> SchemeDescriptor:
    """k-subsets of a vs-set, classes by k - |intersection|."""
    if not 1 <= k <= vs // 2:
        raise ValueError("need 1 <= k <= vs/2")
    v = comb(vs, k)
    if v > SIZE_CAP:
        raise SizeCap(f"C({vs},{k}) = {v} exceeds cap {SIZE_CAP}")
    members = np.zeros((v, vs), dtype=np.int32)
    for idx, subset in enumerate(combinations(range(vs), k)):
        members[idx, list(subset)] = 1
    inter = members @ members.T
    classes = k - inter
    return validate_scheme(RelationTable.from_classes(classes),
                           name=f"johnson-{vs}-{k}")


@lru_cache(maxsize=None)
def gen_cyclic(n: int) -> SchemeDescriptor:
    """Z_n with classes by circular distance min(|i-j|, n-|i-j|)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n > SIZE_CAP:
        raise SizeCap(f"n = {n} exceeds cap {SIZE_CAP}")
    x = np.arange(n)
    diff = np.abs(x[:, None] - x[None, :])
    classes = np.minimum(diff, n - diff)
    return validate_scheme(RelationTable.from_classes(classes),
                           name=f"cyclic-{n}")


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
    left = mul[mul, :]          # left[a,b,c] = (ab)c
    right = mul[:, mul]         # right[a,b,c] = a(bc)
    if not np.array_equal(left, right):
        a, b, cc = (int(t) for t in np.argwhere(left != right)[0])
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
    return validate_scheme(RelationTable.from_classes(classes), name=name)


def scheme_from_drg(graph: Graph, name: str = "drg") -> SchemeDescriptor:
    """Distance partition of a connected graph, validated as a scheme.
    Raises NotDistanceRegular (with the witness) when the distance counts
    are not constant."""
    if graph.vertex_count() != graph.n:
        raise ValueError("dead vertices not supported here")
    if not graph.is_connected():
        raise Disconnected("graph must be connected")
    classes = graph.distance_matrix().astype(np.int64)
    try:
        return validate_scheme(RelationTable.from_classes(classes), name=name)
    except NonConstantIntersection as exc:
        raise NotDistanceRegular(str(exc)) from exc


# -- persistence ---------------------------------------------------------

def save_scheme(desc: SchemeDescriptor, path) -> None:
    payload = {
        "name": desc.name,
        "v": desc.v,
        "d": desc.d,
        "classes": [[int(x) for x in row] for row in desc.classes],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_scheme(path) -> SchemeDescriptor:
    """Parse and fully re-validate a stored scheme."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("name", "v", "d", "classes"):
        if key not in payload:
            raise ParseError(f"{path}: missing field {key!r}")
    name = payload["name"]
    if not isinstance(name, str):
        raise ParseError(f"{path}: name must be a string")
    classes = payload["classes"]
    if (not isinstance(classes, list)
            or any(not isinstance(row, list) for row in classes)
            or any(not all(isinstance(x, int) for x in row) for row in classes)):
        raise ParseError(f"{path}: classes must be a matrix of integers")
    table = RelationTable.from_classes(np.asarray(classes, dtype=np.int64))
    if table.v != payload["v"] or table.d != payload["d"]:
        raise ParseError(
            f"{path}: declared v={payload['v']}, d={payload['d']} but matrix "
            f"has v={table.v}, d={table.d}")
    return validate_scheme(table, name=name)


# -- concrete small groups ----------------------------------------------

def cyclic_group_table(n: int) -> np.ndarray:
    x = np.arange(n)
    return (x[:, None] + x[None, :]) % n


def symmetric3_table() -> np.ndarray:
    """S_3 as permutations of {0,1,2} in lexicographic one-line order."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    idx = {p: i for i, p in enumerate(perms)}
    v = len(perms)
    mul = np.zeros((v, v), dtype=np.int64)
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            mul[a, b] = idx[tuple(pa[pb[i]] for i in range(3))]
    return mul


def dihedral4_table() -> np.ndarray:
    """D_4 of order 8; element a + 4b is r^a s^b."""
    mul = np.zeros((8, 8), dtype=np.int64)
    for a1 in range(4):
        for b1 in range(2):
            for a2 in range(4):
                for b2 in range(2):
                    a = (a1 + (a2 if b1 == 0 else -a2)) % 4
                    b = (b1 + b2) % 2
                    mul[a1 + 4 * b1, a2 + 4 * b2] = a + 4 * b
    return mul


def quaternion_table() -> np.ndarray:
    """Q_8 with elements 1,-1,i,-i,j,-j,k,-k in that order."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    idx = {s: t for t, s in enumerate(names)}

    def mulq(x, y):
        sx, ux = (-1 if x.startswith("-") else 1), x.lstrip("-")
        sy, uy = (-1 if y.startswith("-") else 1), y.lstrip("-")
        table = {
            ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
            ("1", "k"): (1, "k"), ("i", "1"): (1, "i"), ("j", "1"): (1, "j"),
            ("k", "1"): (1, "k"), ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
            ("k", "k"): (-1, "1"), ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
            ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"), ("k", "i"): (1, "j"),
            ("i", "k"): (-1, "j"),
        }
        s, u = table[(ux, uy)]
        s *= sx * sy
        return ("" if s == 1 else "-") + u

    mul = np.zeros((8, 8), dtype=np.int64)
    for x in names:
        for y in names:
            mul[idx[x], idx[y]] = idx[mulq(x, y)]
    return mul


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


# parameter types of each family kind
_FAMILY_PARAMS = {
    "hamming": (int, int),
    "johnson": (int, int),
    "cyclic": (int,),
    "conjugacy": (str,),
    "drg": (str,),
}


def check_family(kind, params: tuple) -> None:
    """Raise ParseError unless kind is a known family and params has its
    arity and types (ints for sizes, a str for a group or graph name)."""
    if not isinstance(kind, str) or kind not in _FAMILY_PARAMS:
        raise ParseError(f"unknown family kind {kind!r}")
    types = _FAMILY_PARAMS[kind]
    if len(params) != len(types) or not all(
            isinstance(x, t) and not isinstance(x, bool)
            for x, t in zip(params, types)):
        want = ", ".join(t.__name__ for t in types)
        raise ParseError(f"family {kind!r} takes ({want}), got {params!r}")
    known = {"conjugacy": _GROUPS, "drg": _DRGS}.get(kind)
    if known is not None and params[0] not in known:
        raise ParseError(f"unknown {kind} member {params[0]!r}; "
                         f"have {sorted(known)}")


@lru_cache(maxsize=None)
def build_family(kind: str, params: tuple) -> SchemeDescriptor:
    check_family(kind, params)
    if kind == "hamming":
        return gen_hamming(*params)
    if kind == "johnson":
        return gen_johnson(*params)
    if kind == "cyclic":
        return gen_cyclic(*params)
    if kind == "conjugacy":
        return gen_conjugacy(_GROUPS[params[0]](), name=f"conj-{params[0]}")
    return scheme_from_drg(_DRGS[params[0]](), name=f"drg-{params[0]}")


def builtin_catalog() -> list[SchemeDescriptor]:
    """All builtin schemes, sorted by name.  Conjugacy members of non-abelian
    flavor and Z_n members may be non-symmetric; the analysis pipeline
    symmetrizes them."""
    out = [build_family(kind, params) for kind, params in BUILTIN_FAMILIES]
    out.sort(key=lambda s: s.name)
    return out
