"""Workload inputs, built with the benchmark's own code.

The survey workloads take their entries from the package's built-in catalog;
their sizes, valencies and class counts come from closed forms here, so the
benchmark never has to build a catalog member before the timed phase.  The
ingest workload writes scheme files whose class matrices are made here with
numpy, plus corrupted copies made by a 2-switch that keeps every row's class
counts, so only the triple count can tell them from schemes.
"""
from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

# Catalog members at or above this size leave catalog-survey; the two that
# johnson-large runs are among them.
LARGE_V = 165

JOHNSON_LARGE = (("johnson", (11, 3)), ("johnson", (10, 4)))
JOHNSON_LARGE_QUICK = (("johnson", (6, 3)), ("johnson", (7, 2)))
CATALOG_QUICK = (("cyclic", (5,)), ("hamming", (3, 2)), ("johnson", (6, 2)),
                 ("conjugacy", ("S3",)), ("drg", ("petersen",)))

# (kind, params) of the ingest files; v from 100 to 560, d from 3 to 50.
INGEST_SCHEMES = (
    ("hamming", (5, 3)), ("hamming", (8, 2)), ("hamming", (3, 7)),
    ("johnson", (16, 3)), ("johnson", (12, 4)), ("johnson", (10, 5)),
    ("cyclic", (101,)),
)
# These also get a corrupted copy.
INGEST_CORRUPTED = (("hamming", (5, 3)), ("hamming", (3, 7)),
                    ("johnson", (16, 3)), ("cyclic", (101,)))
INGEST_QUICK = (("hamming", (3, 3)), ("johnson", (7, 3)), ("cyclic", (13,)))

# Conjugacy classes of the catalog's groups other than the identity, in the
# package's class order (size, then least element), after merging each
# class with its inverse.  Every element of S3, D4 and Q8 is conjugate to
# its inverse; in Z_n the merged classes are {g, -g}.
_CONJ_SIZES = {"S3": (2, 3), "D4": (1, 2, 2, 2), "Q8": (1, 2, 2, 2)}
_DRG_VALENCIES = {"petersen": (3, 6), "k33": (3, 2)}
_DRG_SIZES = {"petersen": 10, "k33": 6}


def family_name(kind: str, params: tuple) -> str:
    """The scheme name the package gives a built-in family member."""
    if kind == "conjugacy":
        return f"conj-{params[0]}"
    if kind == "drg":
        return f"drg-{params[0]}"
    return "-".join([kind, *(str(p) for p in params)])


def family_valencies(kind: str, params: tuple) -> tuple[int, ...]:
    """Valencies of relations 1..d (after symmetrization), by closed form."""
    if kind == "cyclic":
        (n,) = params
        return tuple(1 if 2 * i == n else 2 for i in range(1, n // 2 + 1))
    if kind == "hamming":
        n, q = params
        return tuple(comb(n, i) * (q - 1) ** i for i in range(1, n + 1))
    if kind == "johnson":
        n, k = params
        return tuple(comb(k, i) * comb(n - k, i) for i in range(1, k + 1))
    if kind == "conjugacy":
        (g,) = params
        if g in _CONJ_SIZES:
            return _CONJ_SIZES[g]
        n = int(g[1:])                       # Z_n
        return family_valencies("cyclic", (n,))
    if kind == "drg":
        return _DRG_VALENCIES[params[0]]
    raise ValueError(f"no closed form for family {kind!r}")


def family_size(kind: str, params: tuple) -> int:
    if kind == "drg":
        return _DRG_SIZES[params[0]]
    return 1 + sum(family_valencies(kind, params))


def family_multiplicities(kind: str, params: tuple) -> tuple[int, ...]:
    """Eigenspace dimensions in the package's order: all-ones space first,
    then by descending eigenvalue of A_1, which generates these schemes."""
    if kind == "hamming":
        n, q = params
        return tuple(comb(n, i) * (q - 1) ** i for i in range(n + 1))
    if kind == "johnson":
        n, k = params
        return tuple(comb(n, i) - (comb(n, i - 1) if i else 0)
                     for i in range(k + 1))
    if kind == "cyclic":
        (n,) = params
        return (1,) + family_valencies("cyclic", (n,))
    raise ValueError(f"no closed form for family {kind!r}")


def survey_entries(quick: bool) -> list[tuple]:
    """(source, relations) entries of catalog-survey, in catalog order."""
    if quick:
        return [(src, None) for src in CATALOG_QUICK]
    from schemeconn.catalog import BUILTIN_FAMILIES
    return [((kind, params), None) for kind, params in BUILTIN_FAMILIES
            if family_size(kind, params) < LARGE_V]


def johnson_entries(quick: bool) -> list[tuple]:
    return [(src, None)
            for src in (JOHNSON_LARGE_QUICK if quick else JOHNSON_LARGE)]


# -- class matrices -------------------------------------------------------

def hamming_classes(n: int, q: int) -> np.ndarray:
    words = np.array(list(itertools.product(range(q), repeat=n)))
    return (words[:, None, :] != words[None, :, :]).sum(axis=2)


def johnson_classes(n: int, k: int) -> np.ndarray:
    subsets = list(itertools.combinations(range(n), k))
    member = np.zeros((len(subsets), n), dtype=np.int64)
    for row, s in enumerate(subsets):
        member[row, list(s)] = 1
    return k - member @ member.T


def cyclic_classes(n: int) -> np.ndarray:
    x = np.arange(n)
    diff = np.abs(x[:, None] - x[None, :])
    return np.minimum(diff, n - diff)


CLASSES = {"hamming": hamming_classes, "johnson": johnson_classes,
           "cyclic": cyclic_classes}


def pair_counts(classes: np.ndarray, a: int, b: int) -> np.ndarray:
    """counts[i, j] = #{c : class(a,c) = i and class(c,b) = j}, counted
    directly from the matrix."""
    d1 = int(classes.max()) + 1
    flat = classes[a, :] * d1 + classes[:, b]
    return np.bincount(flat, minlength=d1 * d1).reshape(d1, d1)


def first_nonconstant(classes: np.ndarray, i: int, j: int
                      ) -> Optional[tuple]:
    """Two pairs of one class whose (i, j) triple counts differ, from a
    float64 product (exact: counts are below 2**53), or None when the
    counts are constant on every class."""
    ai = (classes == i).astype(np.float64)
    aj = ai if i == j else (classes == j).astype(np.float64)
    n = np.rint(ai @ aj).astype(np.int64)
    for k in range(int(classes.max()) + 1):
        vals = n[classes == k]
        if vals.min() != vals.max():
            pos = np.argwhere(classes == k)
            lo = pos[int(np.argmin(vals))]
            hi = pos[int(np.argmax(vals))]
            return k, (int(lo[0]), int(lo[1])), (int(hi[0]), int(hi[1]))
    return None


def two_switch(classes: np.ndarray, j: int, rng: random.Random
               ) -> np.ndarray:
    """Swap classes 1 and j on a 4-cycle a-b-d-c: (a,b), (c,d) in class 1 and
    (a,c), (b,d) in class j trade labels.  Every row keeps its class counts
    and the matrix stays symmetric.  Positions are drawn until the class-1
    triple counts stop being constant, so the copy is no scheme and the
    validator's first product, A_1 A_1, already shows it."""
    v = classes.shape[0]
    while True:
        a = rng.randrange(v)
        b = rng.choice(np.flatnonzero(classes[a] == 1).tolist())
        cs = [c for c in np.flatnonzero(classes[a] == j).tolist() if c != b]
        if not cs:
            continue
        c = rng.choice(cs)
        ds = [x for x in np.flatnonzero((classes[c] == 1)
                                        & (classes[b] == j)).tolist()
              if x != a]
        if not ds:
            continue
        d = rng.choice(ds)
        out = classes.copy()
        for x, y, new in ((a, b, j), (c, d, j), (a, c, 1), (b, d, 1)):
            out[x, y] = out[y, x] = new
        if first_nonconstant(out, 1, 1) is not None:
            return out


@dataclass(frozen=True)
class IngestFile:
    path: str
    kind: str
    params: tuple
    corrupted: bool


def _write(path: str, name: str, classes: np.ndarray) -> None:
    # json.dumps uses the C encoder; json.dump would stream in Python
    text = json.dumps({"name": name, "v": int(classes.shape[0]),
                       "d": int(classes.max()), "classes": classes.tolist()})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def build_ingest(out_dir: str, seed: int, quick: bool) -> list[IngestFile]:
    """Write the ingest files; the seed picks only the switched positions."""
    specs = INGEST_QUICK if quick else INGEST_SCHEMES
    corrupt = specs if quick else INGEST_CORRUPTED
    files = []
    for kind, params in specs:
        name = family_name(kind, params)
        classes = CLASSES[kind](*params)
        path = os.path.join(out_dir, f"{name}.json")
        _write(path, name, classes)
        files.append(IngestFile(path, kind, params, False))
        if (kind, params) in corrupt:
            rng = random.Random(f"{seed}:{name}")
            bad = two_switch(classes, int(classes.max()), rng)
            path = os.path.join(out_dir, f"{name}-switched.json")
            _write(path, f"{name}-switched", bad)
            files.append(IngestFile(path, kind, params, True))
    return files


def load_classes(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.asarray(json.load(fh)["classes"], dtype=np.int64)
