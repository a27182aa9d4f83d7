"""Correctness checks, run outside the timed phase.

Each check returns a list of problems (empty when the output is right).
They compare the package's output with closed forms, with counts taken
directly from the class matrices, and with networkx, and they test
properties every correct report has (Whitney's chain, clean audits).
"""
from __future__ import annotations

import json
import os

import numpy as np

from inputs import (CLASSES, IngestFile, family_multiplicities, family_name,
                    family_size, family_valencies, first_nonconstant,
                    load_classes, pair_counts)

# networkx confirms kappa and lambda on connected relations up to this size.
ORACLE_MAX_V = 64


def _report_files(out_dir: str) -> list[str]:
    return sorted(f for f in os.listdir(out_dir)
                  if f.endswith(".json") and f != "summary.json")


def check_survey(out_dir: str, entries: list[tuple], summary: dict
                 ) -> list[str]:
    """Reports and summary of one survey round.  `entries` are those that
    did not fail; `summary` is what run_survey returned."""
    problems = []
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        if json.load(fh) != summary:
            problems.append("summary.json differs from the returned summary")
    files = _report_files(out_dir)
    if len(files) != summary["reports"]:
        problems.append(f"{len(files)} report files but summary.json says "
                        f"{summary['reports']}")
    expected = {}
    for (kind, params), _ in entries:
        for i, val in enumerate(family_valencies(kind, params), start=1):
            expected[f"{family_name(kind, params)}-r{i}.json"] = (
                kind, params, i, val)
    if sorted(expected) != files:
        missing = sorted(set(expected) - set(files))
        extra = sorted(set(files) - set(expected))
        problems.append(f"report files: missing {missing[:5]}, "
                        f"unexpected {extra[:5]}")
    for key in ("findings", "counterexamples"):
        if summary[key]:
            problems.append(f"summary {key}: {summary[key]!r:.200}")
    for fname in files:
        if fname not in expected:
            continue
        kind, params, i, val = expected[fname]
        with open(os.path.join(out_dir, fname), encoding="utf-8") as fh:
            rep = json.load(fh)
        problems += check_report(rep, kind, params, i, val)
    return problems


def check_report(rep: dict, kind: str, params: tuple, i: int,
                 valency: int) -> list[str]:
    where = f"{family_name(kind, params)} r{i}"
    problems = []
    if not rep["ok"] or rep["findings"]:
        problems.append(f"{where}: not ok: {rep['findings']!r:.200}")
    if rep["v"] != family_size(kind, params):
        problems.append(f"{where}: v={rep['v']}, closed form "
                        f"{family_size(kind, params)}")
    if rep["valency"] != valency:
        problems.append(f"{where}: valency {rep['valency']}, closed form "
                        f"{valency}")
    if rep["connected"]:
        k, lam = rep["kappa"], rep["lambda"]
        if not (isinstance(k, int) and isinstance(lam, int)
                and k <= lam <= rep["valency"]):
            problems.append(f"{where}: Whitney chain fails: kappa={k} "
                            f"lambda={lam} valency={rep['valency']}")
    return problems


def _relation_matrix(kind: str, params: tuple) -> np.ndarray:
    """Class matrix after symmetrization, class i the package's relation i.
    Johnson, Hamming and cyclic schemes are built here; the distance classes
    of the two graphs come from networkx; conjugacy schemes, whose class
    order is the package's own, come from the package."""
    if kind in CLASSES:
        return CLASSES[kind](*params)
    if kind == "drg":
        import networkx as nx
        g = {"petersen": nx.petersen_graph,
             "k33": lambda: nx.complete_bipartite_graph(3, 3)}[params[0]]()
        return np.asarray(nx.floyd_warshall_numpy(g), dtype=np.int64)
    from schemeconn.catalog import build_family
    from schemeconn.scheme import symmetrized_scheme
    return np.asarray(symmetrized_scheme(build_family(kind, params)).classes,
                      dtype=np.int64)


def check_oracle(out_dir: str, entries: list[tuple]) -> list[str]:
    """kappa and lambda against networkx on connected relations with
    v <= ORACLE_MAX_V; connectedness itself on every relation checked."""
    import networkx as nx
    problems = []
    for (kind, params), _ in entries:
        if family_size(kind, params) > ORACLE_MAX_V:
            continue
        classes = _relation_matrix(kind, params)
        name = family_name(kind, params)
        for i in range(1, int(classes.max()) + 1):
            path = os.path.join(out_dir, f"{name}-r{i}.json")
            if not os.path.exists(path):
                continue                    # reported by check_survey
            with open(path, encoding="utf-8") as fh:
                rep = json.load(fh)
            g = nx.from_numpy_array((classes == i).astype(np.int8))
            connected = nx.is_connected(g)
            if connected != rep["connected"]:
                problems.append(f"{name} r{i}: connected={rep['connected']}, "
                                f"networkx says {connected}")
                continue
            if not connected:
                continue
            got = (rep["kappa"], rep["lambda"])
            want = (nx.node_connectivity(g), nx.edge_connectivity(g))
            if got != want:
                problems.append(f"{name} r{i}: (kappa, lambda) = {got}, "
                                f"networkx gives {want}")
    return problems


def check_accepted(item: IngestFile, scheme, spectral, block,
                   qp_tol: float) -> list[str]:
    """A valid file: structure, spectra and the spectral block."""
    where = os.path.basename(item.path)
    if item.corrupted:
        return [f"{where}: corrupted copy accepted as a scheme"]
    classes = CLASSES[item.kind](*item.params)
    problems = []
    d = int(classes.max())
    if (scheme.v, scheme.d) != (classes.shape[0], d):
        return [f"{where}: v, d = {scheme.v}, {scheme.d}; expected "
                f"{classes.shape[0]}, {d}"]
    direct = tuple(int(x) for x in np.bincount(classes[0], minlength=d + 1))
    closed = (1,) + family_valencies(item.kind, item.params)
    if tuple(scheme.valencies) != direct or direct != closed:
        problems.append(f"{where}: valencies {tuple(scheme.valencies)}, "
                        f"direct count {direct}, closed form {closed}")
    for k in range(d + 1):
        b = int(np.flatnonzero(classes[0] == k)[0])
        if not np.array_equal(np.asarray(scheme.tensor.p)[:, :, k],
                              pair_counts(classes, 0, b)):
            problems.append(f"{where}: p_ij^{k} differs from the direct "
                            f"count at pair (0, {b})")
    mult = family_multiplicities(item.kind, item.params)
    if tuple(spectral.multiplicities) != mult:
        problems.append(f"{where}: multiplicities "
                        f"{tuple(spectral.multiplicities)}, closed form {mult}")
    qp = np.asarray(spectral.q) @ np.asarray(spectral.p)
    resid = float(np.abs(qp - scheme.v * np.eye(d + 1)).max())
    if not resid < qp_tol:
        problems.append(f"{where}: |QP - vI| = {resid:.3e} over {qp_tol}")
    if block["findings"]:
        problems.append(f"{where}: spectral findings {block['findings']}")
    if block["multiplicities"] != list(mult):
        problems.append(f"{where}: spectral block multiplicities "
                        f"{block['multiplicities']}")
    return problems


def check_rejected(item: IngestFile, exc: BaseException) -> list[str]:
    """A corrupted copy: rejected with an exit-code-2 error whose witness
    holds up when its two pairs are counted again."""
    from schemeconn.cli import EXIT_INVALID, _exit_code
    from schemeconn.errors import NonConstantIntersection, SchemeError
    where = os.path.basename(item.path)
    if not item.corrupted:
        return [f"{where}: valid scheme rejected: "
                f"{type(exc).__name__}: {exc}"]
    if not isinstance(exc, SchemeError) or _exit_code(exc) != EXIT_INVALID:
        return [f"{where}: rejected with {type(exc).__name__}: {exc}, "
                f"not an exit-code-2 error"]
    classes = load_classes(item.path)
    if first_nonconstant(classes, 1, 1) is None:
        return [f"{where}: the copy has constant class-1 counts"]
    if not isinstance(exc, NonConstantIntersection):
        return [f"{where}: rejected with {type(exc).__name__}, expected a "
                f"non-constant intersection number"]
    (ref, ref_n), (bad, bad_n) = exc.ref, exc.bad
    counts = [int(pair_counts(classes, *pair)[exc.i, exc.j])
              for pair in (ref, bad)]
    problems = []
    if counts != [ref_n, bad_n] or ref_n == bad_n:
        problems.append(f"{where}: witness counts {ref_n}, {bad_n}; "
                        f"recounted {counts}")
    if not classes[ref] == classes[bad] == exc.k:
        problems.append(f"{where}: witness pairs {ref}, {bad} are not both "
                        f"in class {exc.k}")
    return problems
