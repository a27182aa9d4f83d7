"""Report JSON contract, the survey harness, and CLI exit codes."""

import gc
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
import weakref
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import schemeconn
from schemeconn import audits, cli, report
from schemeconn.audits import record_fields
from schemeconn.catalog import (BUILTIN_FAMILIES, build_family, gen_cyclic,
                                save_scheme)
from schemeconn.cli import main
from schemeconn.errors import CapExceeded
from schemeconn.report import (AnalysisConfig, analyze_relation,
                               analyze_scheme, builtin_entries, run_survey,
                               spectral_section)
from schemeconn.spectral import compute_spectral

REQUIRED_FIELDS = [
    "scheme", "relation", "v", "d", "valency", "connected", "complete",
    "symmetrized", "diameter", "kappa", "lambda", "godsil_bound_num",
    "godsil_bound_den", "whitney_ok", "godsil_ok", "conjecture_ok",
    "twin_pairs", "h_prime_connected", "theorem1", "corollaries", "iuw",
    "w_empty", "small_cut", "min_cut_count", "min_cuts_are_neighborhoods",
    "ball_deletion", "spectral", "findings", "ok",
]


def test_report_fields_present():
    rep = analyze_relation(gen_cyclic(5), 1)
    for field in REQUIRED_FIELDS:
        assert field in rep, field
    assert rep["ok"] and not rep["findings"]


def test_petersen_relation_report():
    rep = analyze_relation(build_family("johnson", (5, 2)), 2)
    assert rep["kappa"] == 3 and rep["lambda"] == 3 and rep["valency"] == 3
    t1 = rep["theorem1"]
    assert t1["status"] == "ok"
    assert t1["exists_a_connected"] and t1["forall_a_connected"]
    assert t1["h_prime_connected"] and t1["twin_free"] and t1["equivalent"]
    assert rep["godsil_bound_num"] == 5 and rep["godsil_bound_den"] == 3
    assert rep["conjecture_ok"] is True
    assert rep["min_cut_count"] == 10
    assert rep["min_cuts_are_neighborhoods"] is True


def test_h42_r2_report_consistent_negative():
    # disconnected relation: equivalence audit is gated, report stays clean
    rep = analyze_relation(build_family("hamming", (4, 2)), 2)
    assert rep["twin_pairs"] == 8
    assert rep["h_prime_connected"] is False
    t1 = rep["theorem1"]
    assert t1["status"] == "skipped" and "disconnected" in t1["reason"]
    assert rep["ok"]


def test_h62_r3_report_consistent_negative():
    # connected relation where all four equivalence conditions fail together
    rep = analyze_relation(build_family("hamming", (6, 2)), 3)
    assert rep["h_prime_connected"] is False
    t1 = rep["theorem1"]
    assert t1["status"] == "ok" and t1["equivalent"]
    assert not t1["twin_free"] and not t1["h_prime_connected"]
    assert not t1["exists_a_connected"] and not t1["forall_a_connected"]
    assert rep["ok"]


def test_cyclic5_small_cut_section():
    rep = analyze_relation(gen_cyclic(5), 1)
    sc = rep["small_cut"]
    assert rep["kappa"] == 2
    assert sc["tcut2_applicable"] and sc["tcut2_ok"]


AUDIT_SECTIONS = ("theorem1", "corollaries", "w_empty", "small_cut",
                  "ball_deletion")


def test_disconnected_relation_sections_skipped():
    rep = analyze_relation(build_family("hamming", (4, 2)), 4)
    assert rep["connected"] is False
    assert rep["kappa"] is None and rep["lambda"] is None
    for section in AUDIT_SECTIONS:
        assert rep[section] == {"status": "skipped",
                                "reason": "disconnected"}, section
    # ball deletion's skip shows in its section, not in this list
    assert rep["skipped"] == ["connectivity: disconnected relation",
                              "theorem1: disconnected",
                              "corollaries: disconnected",
                              "w_empty: disconnected",
                              "small_cut: disconnected"]
    assert rep["spectral"]["cut_size_lemma"] == {"applicable": False,
                                                 "reason": "disconnected"}
    assert rep["ok"]


def test_complete_multipartite_relation_skips_theorem1_only():
    rep = analyze_relation(build_family("drg", ("k33",)), 1)
    assert rep["theorem1"] == {"status": "skipped",
                               "reason": "complete multipartite"}
    assert [rep[s]["status"] for s in AUDIT_SECTIONS[1:]] == ["ok"] * 4
    assert rep["skipped"] == ["theorem1: complete multipartite"]
    assert rep["ok"]


def test_spectral_section_encoding():
    rep = analyze_relation(build_family("johnson", (5, 2)), 1)
    spec = rep["spectral"]
    assert spec["multiplicities"] == [1, 4, 5]
    # decimal-string encoding, 10 significant digits
    assert all(isinstance(x, str) for row in spec["P"] for x in row)
    assert spec["P"][0][0] == "1"
    assert isinstance(spec["second_eigenvalue"], str)
    assert spec["cut_size_lemma"]["applicable"] in (True, False)


# Integers whose nearest float64 at or past 2**63 cannot be cast to int64,
# ties that round half to even, values just inside and outside the 1e-9
# integrality band, and the non-finite values.
FMT_EDGES = [-0.0, 0.0, 3 - 1e-10, 3 + 1e-10, -7 + 1e-10, 3 + 2e-9,
             -3 - 2e-9, 0.5, 2.5, -1.5, -0.5, 1e17, 2.0 ** 63, -(2.0 ** 63),
             2.0 ** 64, 1e19, 1e300, 5e-324, float("nan"), float("inf"),
             float("-inf")]


@pytest.mark.parametrize("shape", [(1, len(FMT_EDGES)), (3, 7), (7, 3)])
def test_matrix_strings_match_fmt_at_the_edges(shape):
    m = np.array(FMT_EDGES).reshape(shape)
    assert report._matrix_strings(m) == [[report._fmt(float(x)) for x in row]
                                         for row in m]


def test_matrix_strings_match_fmt_on_a_random_matrix():
    rng = np.random.default_rng(7)
    m = rng.normal(scale=50, size=(40, 40))
    m[::3] = np.rint(m[::3])                      # integers
    m[1::5] += rng.choice([-1e-10, 1e-10, 2e-9], size=(8, 40))
    m[2::7] = np.rint(m[2::7]) + 0.5              # half-integers
    m[4::9] *= 1e18                               # past 2**63
    want = [[report._fmt(float(x)) for x in row] for row in m]
    assert report._matrix_strings(m) == want
    assert report._matrix_strings(m.T) == [list(col) for col in zip(*want)]


def test_analyze_scheme_symmetrizes():
    reports = analyze_scheme(build_family("conjugacy", ("Z5",)))
    assert len(reports) == 2
    assert all(rep["symmetrized"] for rep in reports)
    assert reports[0]["v"] == 5 and reports[0]["valency"] == 2


def test_config_threading():
    # the seed is accepted and recorded, but no audit reads it
    rep = analyze_relation(build_family("johnson", (9, 2)), 1,
                           config=AnalysisConfig(seed=99))
    assert rep["config"]["seed"] == 99
    cor = rep["corollaries"]
    assert "seed" not in cor and cor["c1_mode"] == "exact"
    assert cor == analyze_relation(build_family("johnson", (9, 2)), 1)[
        "corollaries"]


def test_config_sets_only_the_seed():
    # the tolerances and the budget are fixed, and still recorded
    assert [f.name for f in fields(AnalysisConfig) if f.init] == ["seed"]
    with pytest.raises(TypeError):
        AnalysisConfig(column_tol=10.0)
    assert record_fields(AnalysisConfig()) == {
        "seed": 0x5EED, "grouping_tol": 1e-9, "qp_tol": 1e-8,
        "column_tol": 1e-8, "multiplicity_tol": 1e-6,
        "cut_enum_budget": 200_000}


def test_primitivity_disagreement_is_a_finding():
    # a repeated column put into the primitive Petersen scheme's Q makes
    # the two primitivity detectors disagree
    s = build_family("drg", ("petersen",))
    spec = compute_spectral(s)
    q = spec.q.copy()
    q[1, 1] = q[0, 1]
    block = spectral_section(s, replace(spec, q=q))
    assert block["primitivity"] == {
        "primitive": None, "error": "disconnected relations [] vs "
                                    "repeated-column idempotents [1]"}
    assert any("detectors disagree" in f for f in block["findings"])


# Leading 16 hex digits of the SHA-256 of each report's JSON, spectral
# block included: its numbers are printed as integers when within 1e-9 of
# one and with 10 significant digits otherwise, and its residuals as pass
# flags, so no digit depends on BLAS or LAPACK rounding.  The slice is the
# whole built-in catalog, 142 reports: every family, relations of valency
# up to 18 (johnson-7-3 r2), min-cut enumeration over budget, symmetrized
# schemes and disconnected relations.  A report file of a survey is the
# same JSON with a final newline, and CI checks the catalog survey's tree
# against the same digests.
DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "data",
                            "report_digests.json")


def test_report_digests_unchanged():
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        want = json.load(fh)
    got = {}
    for kind, params in BUILTIN_FAMILIES:
        for rep in analyze_scheme(build_family(kind, params)):
            digest = hashlib.sha256(json.dumps(rep, indent=2).encode())
            got[f"{rep['scheme']}-r{rep['relation']}"] = \
                digest.hexdigest()[:16]
    changed = sorted(name for name in want.keys() | got.keys()
                     if got.get(name) != want.get(name))
    assert not changed, f"{len(changed)} reports changed: {changed}"


# Each audit's verdict flipped on cyclic-7 r1, where all five audit
# sections run and the cut-size lemma applies, with the exact findings the
# flipped verdicts must give, in report order.  No catalog relation yields
# a finding, so these strings are pinned here alone.
FLIPS = {
    "theorem1_audit": dict(equivalent=False),
    "corollary_audits": dict(
        c1_ok=False, c1_witness={"basepoint": 0, "deleted": [0, 6]},
        c2_ok=False, c2_witness={"basepoint": 0,
                                 "non_singleton_components": 2},
        c3_ok=False, c3_witness={"clique": [0, 1]}),
    "w_empty_audit": dict(ok=False, w_classes=(2,), distance2_ok=False,
                          distance2_witness=(0, 3, 3)),
    "small_cut_theorems_audit": dict(
        tcut2_ok=False, tdiam2_applicable=True, tdiam2_ok=False,
        tcut3_applicable=True, tcut3_ok=False),
    "ball_deletion_audit": dict(part_a_ok=False, part_a_witness=(0, 3, 5, 3),
                                part_b_ok=False, part_b_witness=(0, 3)),
    "spec_cut_audit": dict(ok=False, p_local=2, slack=0),
}
FLIPPED_FINDINGS = [
    "theorem1 conditions disagree",
    "corollary C1 fails: witness {'basepoint': 0, 'deleted': [0, 6]}",
    "corollary C2 fails: witness {'basepoint': 0, "
    "'non_singleton_components': 2}",
    "corollary C3 fails: witness {'clique': [0, 1]}",
    "W classes nonempty on connected relation: (2,)",
    "U_a vertex not at distance 2: (0, 3, 3)",
    "small-cut theorem fails: size-2 cut",
    "small-cut theorem fails: diameter-2 bound",
    "small-cut theorem fails: size-3 classification",
    "ball deletion part (a) fails: (0, 3, 5, 3)",
    "ball deletion part (b) fails: (0, 3)",
    "cut-size lemma fails: kappa 2 <= p_local 2",
]


def test_flipped_verdicts_give_the_pinned_findings(monkeypatch, capsys):
    for name, changes in FLIPS.items():
        original = getattr(audits, name)
        monkeypatch.setattr(
            audits, name,
            lambda ctx, original=original, changes=changes:
                replace(original(ctx), **changes))
    rep = analyze_relation(gen_cyclic(7), 1)
    assert rep["findings"] == FLIPPED_FINDINGS
    assert rep["ok"] is False
    assert [rep[s]["status"] for s in AUDIT_SECTIONS] == ["ok"] * 5
    assert rep["theorem1"]["equivalent"] is False
    assert rep["corollaries"]["c1_witness"] == {"basepoint": 0,
                                                "deleted": [0, 6]}
    assert rep["corollaries"]["c1_mode"] == "exact"
    assert rep["w_empty"]["w_classes"] == [2]
    assert rep["w_empty"]["distance2_ok"] is False
    assert rep["small_cut"]["tcut3_applicable"] is True
    assert rep["ball_deletion"]["part_b_ok"] is False
    assert rep["ball_deletion"]["t"] == 1
    assert rep["spectral"]["cut_size_lemma"] == {
        "applicable": True, "ok": False, "p_local": 2, "slack": 0}
    assert main(["analyze", "--family", "cyclic", "7",
                 "--relation", "1"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"  finding: {f}" for f in FLIPPED_FINDINGS]


def _count_calls(monkeypatch, owner, name, calls):
    """Count calls of owner.<name>, owner a module or a class, wherever the
    package holds it."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    holders = [owner] + [mod for key, mod in list(sys.modules.items())
                         if key.startswith("schemeconn")]
    for holder in holders:
        if vars(holder).get(name) is original:
            monkeypatch.setattr(holder, name, wrapper)


@pytest.mark.parametrize("family,connected,flowed", [
    (("johnson", (7, 3)), 3, 0),
    # r2 and r4 are disconnected
    (("hamming", (4, 2)), 2, 0),
    # r1 (2K_3) is disconnected; no stabiliser generators, so kappa of r2
    # (K_{3,3}) runs flows
    (("conjugacy", ("S3",)), 1, 1),
], ids=["johnson-7-3", "hamming-4-2", "conjugacy-S3"])
def test_analyze_relation_builds_shared_objects_once(monkeypatch, family,
                                                     connected, flowed):
    # the scheme's spectral block and its relations' reports together build
    # each diagram once and read every distance off the diagrams: no
    # distance_matrix call is counted; a relation graph is built only for
    # a connected relation, since every audit skips a disconnected one
    # first, and vertex_connectivity runs only on the connected relations
    # that Watkins' theorem leaves open
    from schemeconn import connectivity, diagram, scheme as scheme_mod
    from schemeconn.graph import Graph
    s = build_family(*family)
    spec = compute_spectral(s)
    calls = Counter()
    _count_calls(monkeypatch, scheme_mod, "relation_graph", calls)
    _count_calls(monkeypatch, diagram, "distribution_diagram", calls)
    _count_calls(monkeypatch, connectivity, "vertex_connectivity", calls)
    _count_calls(monkeypatch, Graph, "distance_matrix", calls)
    block = spectral_section(s, spec)
    for i in range(1, s.d + 1):
        analyze_relation(s, i, spectral=spec, spectral_block=block)
    assert calls == Counter(relation_graph=connected,
                            distribution_diagram=s.d,
                            vertex_connectivity=flowed)


def test_analyze_relation_given_only_the_block_computes_spectral():
    # the second eigenvalue needs the spectral data, not just the block
    s = build_family("johnson", (5, 2))
    block = spectral_section(s, compute_spectral(s))
    rep = analyze_relation(s, 1, spectral_block=block)
    want = analyze_scheme(s, relations=[1])[0]
    assert rep["spectral"]["second_eigenvalue"] == "1"
    assert rep["spectral"]["second_eigenvalue_positive"] is True
    assert rep == want


def test_builtin_entries_cover_catalog():
    entries = builtin_entries()
    assert len(entries) >= 40
    assert all(rel is None for _, rel in entries)


# -- survey harness ------------------------------------------------------

SMALL_ENTRIES = [
    (("cyclic", (5,)), None),
    (("johnson", (5, 2)), None),
    (("hamming", (3, 2)), None),
    (("conjugacy", ("S3",)), None),
]


def _tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_survey_writes_reports_and_summary(tmp_path):
    out = tmp_path / "reports"
    summary = run_survey(SMALL_ENTRIES, str(out))
    assert summary["ok"]
    assert summary["errors"] == [] and summary["counterexamples"] == []
    assert summary["reports"] == 2 + 2 + 3 + 2
    names = sorted(os.listdir(out))
    assert "summary.json" in names
    assert "cyclic-5-r1.json" in names
    with open(out / "cyclic-5-r1.json", encoding="utf-8") as fh:
        rep = json.load(fh)
    assert rep["kappa"] == 2


def test_survey_section_counts_match_written_reports(tmp_path):
    out = tmp_path / "reports"
    summary = run_survey(SMALL_ENTRIES, str(out))
    assert tuple(name for name, _ in report.SECTIONS) == AUDIT_SECTIONS
    statuses, clean = Counter(), 0
    for name in os.listdir(out):
        if name == "summary.json":
            continue
        with open(out / name, encoding="utf-8") as fh:
            rep = json.load(fh)
        statuses.update(rep[s]["status"] for s in AUDIT_SECTIONS)
        clean += not rep["findings"]
    assert summary["audit_sections_run"] == statuses["ok"] == 29
    assert summary["audit_sections_skipped"] == statuses["skipped"] == 16
    assert summary["reports_clean"] == clean == 9


@pytest.fixture
def bounded():
    """Fail a survey that hangs instead of hanging the test run: a fork
    child that kept a copy of a sibling's pipe would block the parent's
    wait for that sibling forever."""
    if not hasattr(signal, "SIGALRM"):     # nor os.fork: surveys are serial
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("the survey took over 120 s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def test_survey_jobs_byte_identical(tmp_path, bounded):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_survey(SMALL_ENTRIES, str(a), jobs=1)
    run_survey(SMALL_ENTRIES, str(b), jobs=2)
    ta, tb = _tree(a), _tree(b)
    assert list(ta) == list(tb)
    for name in ta:
        assert ta[name] == tb[name], name


FILE_ROUTE_FAMILIES = [
    ("conjugacy", ("S3",)), ("conjugacy", ("Z5",)), ("cyclic", (6,)),
    ("cyclic", (8,)), ("hamming", (3, 2)), ("johnson", (5, 2)),
    ("johnson", (6, 3)), ("drg", ("petersen",)),
]


def test_survey_from_files_matches_survey_from_families(tmp_path):
    # a saved file carries no group, so its relations take every basepoint
    # and enumerate their minimum cuts, where the family builds use their
    # generators; the reports must not tell the routes apart
    by_file = []
    for kind, params in FILE_ROUTE_FAMILIES:
        path = tmp_path / f"{kind}-{len(by_file)}.json"
        save_scheme(build_family(kind, params), str(path))
        by_file.append((("file", str(path)), None))
    run_survey(by_file, str(tmp_path / "file"))
    run_survey([(src, None) for src in FILE_ROUTE_FAMILIES],
               str(tmp_path / "family"))
    tf, tg = _tree(tmp_path / "file"), _tree(tmp_path / "family")
    assert list(tf) == list(tg) and len(tf) == 1 + 2 + 2 + 3 + 4 + 3 + 2 + 3 + 2
    for name in tf:
        assert tf[name] == tg[name], name


@pytest.mark.parametrize("jobs", [1, 2])
def test_survey_isolates_bad_entry(tmp_path, bounded, jobs):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    entries = [(("cyclic", (5,)), None), (("file", str(bad)), None)]
    summary = run_survey(entries, str(out), jobs=jobs)
    assert not summary["ok"]
    assert len(summary["errors"]) == 1
    assert summary["errors"][0]["entry"] == 1
    assert "ParseError" in summary["errors"][0]["error"]
    # the good entry still produced its report
    assert (out / "cyclic-5-r1.json").exists()


_SURVEY_TASK = report._survey_task
_FORKS = pytest.mark.skipif(not hasattr(os, "fork"),
                            reason="a patched task reaches workers by fork")


def _assert_no_children():
    """Every child the survey forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _exit_on_entry_1(tmp_path):
    def task(arg):
        if arg[0] == 1:
            os._exit(1)
        return _SURVEY_TASK(arg)
    return task


def _sigkill_on_entry_1(tmp_path):
    def task(arg):
        if arg[0] == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return _SURVEY_TASK(arg)
    return task


def _exit_on_second_entry(tmp_path):
    """The worker that ran entry 0 dies on its next entry, which is entry
    2: entry 1 waits in the other worker until a replacement has finished
    entry 3, so the replacement is needed and ran."""
    done = tmp_path / "replacement-done"
    ran = []

    def task(arg):
        if ran == [0]:
            os._exit(1)
        ran.append(arg[0])
        if arg[0] == 1:
            for _ in range(600):
                if done.exists():
                    break
                time.sleep(0.1)
            else:
                os._exit(2)
        result = _SURVEY_TASK(arg)
        if arg[0] == 3:
            done.touch()
        return result
    return task


@_FORKS
@pytest.mark.parametrize("make_task,lost", [
    (_exit_on_entry_1, 1), (_sigkill_on_entry_1, 1),
    (_exit_on_second_entry, 2),
], ids=["exit", "sigkill", "second-entry"])
def test_survey_survives_worker_death(tmp_path, monkeypatch, bounded,
                                      make_task, lost):
    entries = [(("cyclic", (n,)), None) for n in (5, 6, 7, 8)]
    run_survey(entries, str(tmp_path / "clean"), jobs=2)
    monkeypatch.setattr(report, "_survey_task", make_task(tmp_path))
    summary = run_survey(entries, str(tmp_path / "crash"), jobs=2)
    _assert_no_children()
    assert summary["errors"] == [{"entry": lost,
                                  "error": "worker process died"}]
    clean = _tree(tmp_path / "clean")
    want = {name: data for name, data in clean.items()
            if name != "summary.json"
            and not name.startswith(f"cyclic-{5 + lost}-")}
    got = _tree(tmp_path / "crash")
    del got["summary.json"]
    assert got == want
    assert summary["reports"] == len(want) == 12 - 3


@_FORKS
def test_survey_interrupt_reaps_workers(tmp_path, monkeypatch, bounded):
    """An interrupt in the parent leaves no worker behind."""
    def interrupted(data):
        raise KeyboardInterrupt

    entries = [(("cyclic", (n,)), None) for n in (5, 6, 7)]
    monkeypatch.setattr(report.pickle, "loads", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_survey(entries, str(tmp_path / "out"), jobs=2)
    _assert_no_children()


def _gone(pid: int) -> bool:
    """pid has exited: it has no /proc entry, or it is a zombie, since a
    killed parent's orphans may wait for their new parent to reap them."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            stat = fh.read()
    except (FileNotFoundError, ProcessLookupError):
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc"),
                    reason="needs forked workers and /proc to watch them")
def test_survey_workers_exit_when_the_parent_is_killed(tmp_path):
    """A worker busy in an entry reads none of its pipes, yet SIGKILL to
    the parent alone must end it: no worker outlives the survey."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(report.__file__)))
    code = ("import os, sys, time\n"
            "from schemeconn import report\n"
            "def task(arg):\n"
            "    open(os.path.join(sys.argv[1], str(os.getpid())), 'w').close()\n"
            "    time.sleep(60)\n"
            "report._survey_task = task\n"
            "report.run_survey([(('cyclic', (5,)), None)] * 2, sys.argv[2],\n"
            "                  jobs=2)\n")
    pids = tmp_path / "pids"
    pids.mkdir()
    parent = subprocess.Popen([sys.executable, "-c", code, str(pids),
                               str(tmp_path / "out")],
                              env=dict(os.environ, PYTHONPATH=src),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = [int(name) for name in os.listdir(pids)]
        assert len(workers) == 2
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not all(map(_gone, workers)):
            time.sleep(0.05)
        assert [pid for pid in workers if not _gone(pid)] == []
    finally:
        parent.kill()
        parent.wait()
        for pid in filter(lambda pid: not _gone(pid), workers):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:      # exited since it was read
                pass


@_FORKS
def test_survey_pool_has_no_more_workers_than_entries(tmp_path, monkeypatch,
                                                     bounded):
    """Each worker is forked before it has an entry, so --jobs above the
    entry count would start processes with nothing to do.  The fork is
    counted, and refused beyond the entry count, so a bug cannot start
    one process per job asked for."""
    entries = [(("cyclic", (n,)), None) for n in (5, 6, 7)]
    run_survey(entries, str(tmp_path / "serial"))
    forks = []

    def counted_fork():
        if len(forks) >= len(entries):
            raise AssertionError("more forks than entries")
        forks.append(1)
        return real_fork()

    real_fork = os.fork
    monkeypatch.setattr(os, "fork", counted_fork)
    for jobs in (2, 3, 100_000):
        del forks[:]
        run_survey(entries, str(tmp_path / f"jobs-{jobs}"), jobs=jobs)
        _assert_no_children()
        assert len(forks) == min(jobs, len(entries))
        assert _tree(tmp_path / f"jobs-{jobs}") == _tree(tmp_path / "serial")
    del forks[:]
    run_survey([], str(tmp_path / "none"), jobs=100_000)
    assert forks == []


def test_survey_without_fork_runs_serially(tmp_path, monkeypatch):
    entries = [(("cyclic", (n,)), None) for n in (5, 6)]
    run_survey(entries, str(tmp_path / "serial"))
    monkeypatch.delattr(os, "fork", raising=False)
    run_survey(entries, str(tmp_path / "jobs"), jobs=2)
    assert _tree(tmp_path / "jobs") == _tree(tmp_path / "serial")


def test_import_loads_no_multiprocessing():
    """Starting the CLI imports neither multiprocessing nor
    concurrent.futures, which a serial run never uses."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(report.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, schemeconn.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_survey_relation_selection(tmp_path):
    out = tmp_path / "sel"
    summary = run_survey([(("hamming", (3, 2)), [1])], str(out))
    assert summary["reports"] == 1
    assert sorted(os.listdir(out)) == ["hamming-3-2-r1.json", "summary.json"]


def test_survey_records_a_bad_relation_as_an_entry_error(tmp_path):
    out = tmp_path / "bad"
    entries = [(("cyclic", (5,)), [0]), (("cyclic", (6,)), [1, 4]),
               (("johnson", (5, 2)), [1])]
    summary = run_survey(entries, str(out))
    assert summary["errors"] == [
        {"entry": 0,
         "error": "IdentityClassRequested: class 0 is the identity relation"},
        {"entry": 1, "error": "ValueError: relation 4 out of range 1..3"}]
    assert _report_files(out) == ["johnson-5-2-r1.json"]


def test_survey_frees_each_scheme_when_its_entry_ends(tmp_path, monkeypatch):
    # no process-wide cache keeps a built scheme: once the serial survey
    # is done, nothing refers to the scheme of any entry
    refs = []
    real = report.analyze_scheme

    def spy(scheme, *args, **kwargs):
        refs.append(weakref.ref(scheme))
        return real(scheme, *args, **kwargs)

    monkeypatch.setattr(report, "analyze_scheme", spy)
    run_survey(SMALL_ENTRIES[:3], str(tmp_path / "out"))
    gc.collect()
    assert len(refs) == 3
    assert [ref() for ref in refs] == [None] * 3
    assert build_family("cyclic", (5,)) is not build_family("cyclic", (5,))


def _report_files(root):
    return sorted(n for n in os.listdir(root) if n != "summary.json")


def test_survey_refuses_path_in_scheme_name(tmp_path):
    path = tmp_path / "evil.json"
    save_scheme(gen_cyclic(5), str(path))
    payload = json.loads(path.read_text())
    payload["name"] = "../evil"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out" / "a"
    entries = [(("file", str(path)), None), (("cyclic", (6,)), None)]
    summary = run_survey(entries, str(out))
    assert [e["entry"] for e in summary["errors"]] == [0]
    assert "plain file name" in summary["errors"][0]["error"]
    assert sorted(os.listdir(tmp_path / "out")) == ["a"]
    assert _report_files(out) == ["cyclic-6-r1.json", "cyclic-6-r2.json",
                                  "cyclic-6-r3.json"]
    assert summary["reports"] == 3


def test_survey_refuses_duplicate_report(tmp_path):
    out = tmp_path / "dup"
    entries = [(("cyclic", (5,)), None), (("cyclic", (5,)), [1]),
               (("hamming", (3, 2)), [1, 1])]
    summary = run_survey(entries, str(out))
    assert [e["entry"] for e in summary["errors"]] == [1, 2]
    assert "already written for entry 0" in summary["errors"][0]["error"]
    assert _report_files(out) == ["cyclic-5-r1.json", "cyclic-5-r2.json"]
    assert summary["reports"] == 2


# -- CLI -----------------------------------------------------------------

def _write_pentagon(tmp_path):
    path = tmp_path / "pentagon.json"
    save_scheme(gen_cyclic(5), str(path))
    return path


def test_cli_verify_ok(tmp_path, capsys):
    path = _write_pentagon(tmp_path)
    assert main(["verify", str(path)]) == 0
    assert "valid symmetric scheme" in capsys.readouterr().out


def test_cli_verify_parse_error(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    path.write_text('{"name": "x", "v": 5')
    assert main(["verify", str(path)]) == 1
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("payload,code,message", [
    ({"name": "x", "v": 2, "d": 1, "classes": [[0, 1], [1]]}, 1,
     "rows differ in length"),
    ({"name": "x", "v": 2, "d": 1, "classes": [[0, 1], [1, 2**64]]}, 1,
     "class index out of range"),
    ({"name": "x", "v": "2", "d": 1, "classes": [[0, 1], [1, 0]]}, 1,
     "v and d must be integers"),
    ({"name": "x", "v": 2, "d": 1, "classes": [[0, 2**62], [2**62, 0]]}, 2,
     "NotAPartition: class 1 is empty"),
    # the cyclic scheme on Z_601: a valid partition with 301 classes
    ({"name": "cyclic-601", "v": 601, "d": 300,
      "classes": [[min((x - y) % 601, (y - x) % 601) for y in range(601)]
                  for x in range(601)]}, 4,
     "301 classes exceeds the tensor cap"),
    # JSON true/false are Python bools, an int subclass: no class index
    ({"name": "k2", "v": 2, "d": 1, "classes": [[0, True], [True, 0]]}, 1,
     "classes must be a matrix of integers"),
    ({"name": "k2", "v": 2, "d": True, "classes": [[0, 1], [1, 0]]}, 1,
     "v and d must be integers"),
    ({"name": "k2", "v": 2, "d": 1, "classes": [[0, 1.0], [1, 0]]}, 1,
     "classes must be a matrix of integers"),
    # json refuses an integer literal past Python's 4,300-digit limit with
    # a bare ValueError; given as text, since json.dumps refuses it too
    ('{"name": "x", "v": ' + "1" * 5000
     + ', "d": 1, "classes": [[0, 1], [1, 0]]}', 1,
     "Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["ragged", "int-overflow", "v-string", "huge-label", "tensor-cap",
        "bool-entry", "d-bool", "float-entry", "v-past-digit-limit"])
def test_cli_verify_hostile_file(tmp_path, payload, code, message):
    path = tmp_path / "hostile.json"
    path.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload))
    src = os.path.dirname(os.path.dirname(os.path.abspath(report.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "schemeconn.cli", "verify", str(path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == code
    assert message in done.stderr
    assert "Traceback" not in done.stderr


_DEEP = "[" * 100_000 + "]" * 100_000
_DEEP_CLASSES = '{"name": "x", "v": 1, "d": 0, "classes": ' + _DEEP + "}"


@pytest.mark.parametrize("command,text", [
    ("verify", _DEEP_CLASSES),
    ("analyze", _DEEP_CLASSES),
    # a well-formed matrix after a deep value: the numpy reader's route
    ("verify", '{"name": "x", "v": 1, "d": 0, "deep": ' + _DEEP
     + ', "classes": [[0]]}'),
    ("survey", '{"entries": ' + _DEEP + "}"),
], ids=["verify", "analyze", "verify-reader-route", "survey-manifest"])
def test_cli_deeply_nested_json_is_a_parse_error(tmp_path, command, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    argv = ([command, str(path)] if command != "survey" else
            [command, "--manifest", str(path), "--out",
             str(tmp_path / "never")])
    src = os.path.dirname(os.path.dirname(os.path.abspath(report.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "schemeconn.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 1
    assert f"ParseError: {path}: maximum recursion depth" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "never").exists()


def test_versions_agree():
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "pyproject.toml")) as fh:
        declared = re.search(r'^version = "([^"]+)"$', fh.read(), re.M)[1]
    assert schemeconn.__version__ == declared == report.TOOL_VERSION


def test_cli_verify_invalid_scheme(tmp_path, capsys):
    # P4 distance matrix is a partition but not a scheme
    classes = [[abs(i - j) for j in range(4)] for i in range(4)]
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(
        {"name": "p4", "v": 4, "d": 3, "classes": classes}))
    assert main(["verify", str(path)]) == 2
    assert "invalid scheme" in capsys.readouterr().err


def test_cli_analyze_family(tmp_path, capsys):
    report = tmp_path / "out.json"
    code = main(["analyze", "--family", "johnson", "5", "2",
                 "--relation", "2", "--report", str(report)])
    assert code == 0
    assert "kappa=3" in capsys.readouterr().out
    with open(report, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert isinstance(payload, list) and len(payload) == 1
    assert payload[0]["scheme"] == "johnson-5-2"


def test_cli_analyze_report_in_missing_directory(tmp_path, capsys):
    report = tmp_path / "missing" / "r.json"
    assert main(["analyze", "--family", "cyclic", "5",
                 "--report", str(report)]) == 1
    assert capsys.readouterr().err.startswith("FileNotFoundError: ")
    assert not report.parent.exists()


def test_cli_analyze_file_all_relations(tmp_path, capsys):
    path = _write_pentagon(tmp_path)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "r1" in out and "r2" in out


def test_cli_analyze_no_source(capsys):
    assert main(["analyze"]) == 1


@pytest.mark.parametrize("family", [["johnson", "5"], ["hamming", "2", "x"],
                                    ["johnson", "+-3", "2"],
                                    ["hamming", "\u00b2", "2"]])
@pytest.mark.parametrize("command", ["analyze", "cuts"])
def test_cli_family_arity_and_types(command, family, capsys):
    argv = [command, "--family", *family]
    if command == "cuts":
        argv += ["--relation", "1", "--max-size", "2"]
    assert main(argv) == 1
    assert "ParseError" in capsys.readouterr().err


def test_cli_survey_manifest_bad_family(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "entries": [{"family": ["cyclic", 5]}, {"family": ["johnson", 5]}],
        "out": str(tmp_path / "never"),
    }))
    assert main(["survey", "--manifest", str(manifest)]) == 1
    assert "entry 1" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("relations", [[True], [False], [1, True]],
                         ids=["true", "false", "one-true"])
def test_cli_survey_manifest_bool_relations(tmp_path, capsys, relations):
    # JSON booleans are ints to Python, but name no relation
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "entries": [{"family": ["cyclic", 5], "relations": relations}],
        "out": str(tmp_path / "never"),
    }))
    assert main(["survey", "--manifest", str(manifest)]) == 1
    assert "ParseError" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("payload,message", [
    ({"entries": 5}, "manifest needs an 'entries' list"),
    ({"entries": None}, "manifest needs an 'entries' list"),
    ({"entries": [{"file": [1]}]}, "entry 0 has bad 'file'"),
    # an int file would name file descriptor 1, the survey's own stdout
    ({"entries": [{"file": 1}, {"family": ["cyclic", 5]}]},
     "entry 0 has bad 'file'"),
], ids=["entries-int", "entries-null", "file-list", "file-int"])
def test_cli_survey_manifest_bad_entry_types(tmp_path, payload, message):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({**payload,
                                    "out": str(tmp_path / "never")}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(report.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "schemeconn.cli", "survey", "--manifest",
         str(manifest)], capture_output=True, text=True, env=env,
        timeout=120)
    assert done.returncode == 1
    assert f"ParseError: {manifest}: {message}" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "never").exists()


def _cli(argv, timeout):
    src = os.path.dirname(os.path.dirname(os.path.abspath(report.__file__)))
    return subprocess.run([sys.executable, "-m", "schemeconn.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src),
                          timeout=timeout)


def test_cli_survey_manifest_integer_past_digit_limit(tmp_path):
    # json refuses the literal with a bare ValueError, not a
    # JSONDecodeError; given as text, since json.dumps refuses it too
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"entries": [{"family": ["cyclic", ' + "1" * 5000
                        + ']}], "out": ' + json.dumps(str(tmp_path / "never"))
                        + "}")
    done = _cli(["survey", "--manifest", str(manifest)], timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith(
        f"ParseError: {manifest}: Exceeds the limit (4300 digits)")
    assert len(done.stderr.splitlines()) == 1
    assert not (tmp_path / "never").exists()


# Family parameters whose scheme size is far past SIZE_CAP: the cap is
# decided before C(vs, k) or q^n is computed, so each exits 4 at once with
# a message that names the parameters, not the size
OVERSIZE_FAMILIES = [
    (["johnson", "100000000", "50000000"],
     "SizeCap: C(100000000,50000000) exceeds cap 4096"),
    (["johnson", "1000000", "500000"],
     "SizeCap: C(1000000,500000) exceeds cap 4096"),
    (["johnson", "5000", "2500"], "SizeCap: C(5000,2500) exceeds cap 4096"),
    (["hamming", "20000", "2"], "SizeCap: q^n = 2^20000 exceeds cap 4096"),
]


@pytest.mark.parametrize("family,message", OVERSIZE_FAMILIES,
                         ids=["-".join(f) for f, _ in OVERSIZE_FAMILIES])
def test_cli_oversize_family_exits_4_at_once(family, message):
    done = _cli(["analyze", "--family", *family], timeout=2)
    assert done.returncode == 4
    assert done.stderr.splitlines() == [message]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_survey_isolates_an_oversize_family(tmp_path, jobs):
    out = tmp_path / "out"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": [
        {"family": ["cyclic", 5]},
        {"family": ["johnson", 100000000, 50000000]},
        {"family": ["johnson", 5, 2]}]}))
    done = _cli(["survey", "--manifest", str(manifest), "--jobs", jobs,
                 "--out", str(out)], timeout=10)
    assert done.returncode == 3
    assert done.stderr.splitlines() == [
        "  entry 1: SizeCap: C(100000000,50000000) exceeds cap 4096"]
    assert _report_files(out) == ["cyclic-5-r1.json", "cyclic-5-r2.json",
                                  "johnson-5-2-r1.json", "johnson-5-2-r2.json"]
    with open(out / "summary.json", encoding="utf-8") as fh:
        assert [e["entry"] for e in json.load(fh)["errors"]] == [1]


BAD_RELATIONS = [
    ("0", "IdentityClassRequested: class 0 is the identity relation"),
    ("-1", "error: relation -1 out of range 1..2"),
    ("3", "error: relation 3 out of range 1..2"),
    ("99", "error: relation 99 out of range 1..2"),
]


@pytest.mark.parametrize("command", ["analyze", "cuts"])
@pytest.mark.parametrize("relation,message", BAD_RELATIONS)
def test_cli_bad_relation_exits_2(capsys, command, relation, message):
    # the relation context refuses the index before anything reads it
    extra = ["--max-size", "3"] if command == "cuts" else []
    code = main([command, "--family", "cyclic", "5", "--relation", relation,
                 *extra])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


def test_cli_cuts_pentagon(capsys):
    code = main(["cuts", "--family", "cyclic", "5", "--relation", "1",
                 "--max-size", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "5 minimum cuts of size 2" in out
    assert "all_neighborhoods=True" in out


def test_cli_cuts_cap(capsys):
    code = main(["cuts", "--family", "johnson", "8", "2", "--relation", "1",
                 "--max-size", "10"])
    assert code == 4
    assert "CapExceeded" in capsys.readouterr().err


def test_cli_cuts_kappa_by_theorem(capsys, flow_calls):
    # J(11,3) r1 is arc-transitive under the scheme's generators, so its
    # kappa = 24 needs no flow before the cap refuses it
    code = main(["cuts", "--family", "johnson", "11", "3", "--relation", "1",
                 "--max-size", "3"])
    assert code == 4
    assert capsys.readouterr().err.splitlines() == [
        "CapExceeded: kappa = 24 exceeds --max-size 3"]
    assert flow_calls["vertex"] == []


def test_cli_cuts_lists_a_large_polygon(capsys):
    # the 100-gon's 4,850 cuts are its non-adjacent pairs, listed directly;
    # only enumerate_min_cuts's subset budget bounds --max-size
    code = main(["cuts", "--family", "cyclic", "100", "--relation", "1",
                 "--max-size", "5"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "4850 minimum cuts of size 2; all_neighborhoods=False"


@pytest.mark.parametrize("family", [["hamming", "4", "2"],
                                    ["johnson", "4", "2"], ["cyclic", "4"]])
def test_cli_cuts_on_a_disconnected_relation(capsys, family):
    # relation 2 of each is disconnected: kappa = 0, and the empty set is
    # its one minimum cut
    code = main(["cuts", "--family", *family, "--relation", "2",
                 "--max-size", "3"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        " neighborhood=False",
        "1 minimum cuts of size 0; all_neighborhoods=False"]


def test_cli_cuts_over_budget(capsys):
    code = main(["cuts", "--family", "johnson", "11", "3", "--relation", "1",
                 "--max-size", "30"])
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"CapExceeded: C\(165,24\) = \d+ subsets exceeds "
                        r"budget 5000000", err[0])


def test_cli_survey_manifest(tmp_path, capsys):
    out = tmp_path / "sv"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "entries": [{"family": ["cyclic", 5]},
                    {"family": ["hamming", 3, 2], "relations": [1]}],
        "out": str(out), "jobs": 1,
    }))
    assert main(["survey", "--manifest", str(manifest)]) == 0
    assert "3 reports" in capsys.readouterr().out
    assert (out / "summary.json").exists()


def test_cli_survey_manifest_fail_fast(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "entries": [{"file": str(tmp_path / "missing.json")}],
        "out": str(tmp_path / "never"),
    }))
    assert main(["survey", "--manifest", str(manifest)]) == 1
    assert not (tmp_path / "never").exists()


def test_cli_survey_bad_manifest_shape(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"schemes": []}))
    assert main(["survey", "--manifest", str(manifest)]) == 1


def test_cli_survey_content_error_isolated(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # valid JSON, resolvable file, but not a valid scheme: isolated at run time
    classes = [[abs(i - j) for j in range(4)] for i in range(4)]
    bad.write_text(json.dumps(
        {"name": "p4", "v": 4, "d": 3, "classes": classes}))
    out = tmp_path / "sv"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "entries": [{"family": ["cyclic", 5]}, {"file": str(bad)}],
        "out": str(out),
    }))
    assert main(["survey", "--manifest", str(manifest)]) == 3
    assert (out / "cyclic-5-r1.json").exists()
    assert "NonConstantIntersection" in capsys.readouterr().err


@pytest.mark.parametrize("defaults,env", [
    ({"jobs": "2"}, None),
    ({"jobs": 0}, None),
    ({"jobs": True}, None),
    ({"out": 5}, None),
    ({"seed": "x"}, None),
    ({}, "abc"),
], ids=["jobs-string", "jobs-zero", "jobs-bool", "out-int", "seed-string",
        "env-jobs-string"])
def test_cli_survey_bad_defaults(tmp_path, monkeypatch, capsys, defaults,
                                 env):
    if env is None:
        monkeypatch.delenv("SCHEME_CONN_JOBS", raising=False)
    else:
        monkeypatch.setenv("SCHEME_CONN_JOBS", env)
    manifest = tmp_path / "manifest.json"
    payload = {"entries": [{"family": ["cyclic", 5]}],
               "out": str(tmp_path / "never")}
    manifest.write_text(json.dumps({**payload, **defaults}))
    assert main(["survey", "--manifest", str(manifest)]) == 1
    assert "ParseError" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_cli_survey_out_is_a_regular_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep")
    assert main(["survey", "--builtin-catalog", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("FileExistsError: ")
    assert out.read_text() == "keep"


def test_cli_survey_jobs_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SCHEME_CONN_JOBS", "2")
    out = tmp_path / "sv"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(
        {"entries": [{"family": ["cyclic", 6]}], "out": str(out)}))
    assert main(["survey", "--manifest", str(manifest)]) == 0
    assert len(os.listdir(out)) == 4  # r1 r2 r3 + summary


# one package call inside each command, and an argv that reaches it; the
# call is patched, so no file is read or written
_CLI_CALLS = {
    "verify": ("load_scheme", ["verify", "x.json"]),
    "analyze": ("analyze_scheme", ["analyze", "--family", "cyclic", "5"]),
    "survey": ("run_survey", ["survey", "--builtin-catalog", "--out", "x"]),
    "cuts": ("RelationContext", ["cuts", "--family", "cyclic", "5",
                                 "--relation", "1", "--max-size", "2"]),
}


@pytest.mark.parametrize("error,code,line", [
    (ValueError("boom"), 2, "error: boom"),
    (OSError("boom"), 1, "OSError: boom"),
    (CapExceeded("boom"), 4, "CapExceeded: boom"),
], ids=["ValueError", "OSError", "SchemeError"])
@pytest.mark.parametrize("command", sorted(_CLI_CALLS))
def test_cli_maps_every_error_in_main(monkeypatch, capsys, command, error,
                                      code, line):
    # every command's errors reach one handler in main, which prints one
    # line and returns the error's exit code; verify labels a SchemeError
    name, argv = _CLI_CALLS[command]

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, name, fail)
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith(line), err
