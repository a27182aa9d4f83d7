"""Scheme files against recorded digests of what loading them gives.

Each scheme below is written in save_scheme's layout, so load_scheme reads
it through the numpy reader, and loaded back.  An accepted file is pinned
by its class matrix, first pairs, transpose map and tensor, and by the
JSON of its spectral block; a rejected one, a seeded 2-switch of a
scheme, by its exception's type, message and witness fields.  Any
rewrite of the reader, the relation table, validation or the spectral
block must leave every one of these the same."""

import hashlib
import json
import os
import random
from types import SimpleNamespace

import numpy as np

from schemeconn.catalog import build_family, load_scheme, save_scheme
from schemeconn.errors import SchemeError
from schemeconn.report import DEFAULT_CONFIG, spectral_section
from schemeconn.spectral import compute_spectral

INGEST_DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "data",
                                   "ingest_digests.json")
SCHEMES = (("hamming", (5, 3)), ("hamming", (8, 2)), ("hamming", (3, 7)),
           ("johnson", (12, 4)), ("johnson", (10, 5)), ("cyclic", (101,)))
SWITCHED = (("hamming", (5, 3)), ("johnson", (12, 4)), ("cyclic", (101,)))


def two_switch(classes: np.ndarray, rng: random.Random) -> np.ndarray:
    """Swap classes 1 and d on a 4-cycle a-b-e-c: (a,b), (c,e) in class 1
    and (a,c), (b,e) in class d trade labels.  Every row keeps its class
    counts and the matrix stays symmetric."""
    v, d = classes.shape[0], int(classes.max())
    while True:
        a = rng.randrange(v)
        b = rng.choice(np.flatnonzero(classes[a] == 1).tolist())
        cs = [c for c in np.flatnonzero(classes[a] == d).tolist() if c != b]
        if not cs:
            continue
        c = rng.choice(cs)
        es = [e for e in np.flatnonzero((classes[c] == 1)
                                        & (classes[b] == d)).tolist()
              if e != a]
        if not es:
            continue
        e = rng.choice(es)
        out = classes.copy()
        for x, y, new in ((a, b, d), (c, e, d), (a, c, 1), (b, e, 1)):
            out[x, y] = out[y, x] = new
        return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _array(a: np.ndarray) -> str:
    return _sha(json.dumps([a.dtype.str, a.shape]).encode() + a.tobytes())


def ingest_record(path) -> dict:
    """Digests of what loading path gives: the scheme's fields and
    spectral block, or the exception's type, message and witness."""
    try:
        s = load_scheme(path)
    except SchemeError as exc:
        return {"rejected": _sha(json.dumps(
            [type(exc).__name__, str(exc), vars(exc)], sort_keys=True,
            default=repr).encode())}
    spec = compute_spectral(s, grouping_tol=DEFAULT_CONFIG.grouping_tol)
    block = spectral_section(s, spec, DEFAULT_CONFIG)
    return {"classes": _array(s.classes),
            "first_pair": _array(s.first_pair),
            "transpose_map": _sha(json.dumps(s.transpose_map).encode()),
            "p": _array(s.p),
            "spectral_section": _sha(json.dumps(block, indent=2).encode())}


def ingest_digests(out_dir) -> dict:
    got = {}
    for kind, params in SCHEMES:
        s = build_family(kind, params)
        path = os.path.join(out_dir, s.name + ".json")
        save_scheme(s, path)
        got[s.name] = ingest_record(path)
        if (kind, params) in SWITCHED:
            rng = random.Random(f"1:{s.name}")
            name = s.name + "-switched"
            bad = SimpleNamespace(
                name=name, v=s.v, d=s.d,
                classes=two_switch(np.asarray(s.classes), rng))
            path = os.path.join(out_dir, name + ".json")
            save_scheme(bad, path)
            got[name] = ingest_record(path)
    return got


def test_ingest_digests_unchanged(tmp_path):
    with open(INGEST_DIGESTS_PATH, encoding="utf-8") as fh:
        want = json.load(fh)
    got = ingest_digests(tmp_path)
    for kind, params in SWITCHED:
        name = build_family(kind, params).name + "-switched"
        assert list(got[name]) == ["rejected"], name
    changed = sorted(name for name in want.keys() | got.keys()
                     if got.get(name) != want.get(name))
    assert not changed, f"{len(changed)} ingest files changed: {changed}"
