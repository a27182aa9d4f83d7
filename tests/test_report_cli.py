"""Report JSON contract, the survey harness, and CLI exit codes."""

import hashlib
import json
import multiprocessing
import os
import sys
from collections import Counter

import pytest

from schemeconn import report
from schemeconn.catalog import build_family, gen_cyclic, save_scheme
from schemeconn.cli import main
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


def test_disconnected_relation_sections_skipped():
    rep = analyze_relation(build_family("hamming", (4, 2)), 4)
    assert rep["connected"] is False
    assert rep["kappa"] is None and rep["lambda"] is None
    for section in ("corollaries", "w_empty", "small_cut", "ball_deletion"):
        assert rep[section]["status"] == "skipped"
    assert rep["ok"]


def test_spectral_section_encoding():
    rep = analyze_relation(build_family("johnson", (5, 2)), 1)
    spec = rep["spectral"]
    assert spec["multiplicities"] == [1, 4, 5]
    # decimal-string encoding, 12 significant digits
    assert all(isinstance(x, str) for row in spec["P"] for x in row)
    assert spec["P"][0][0] == "1"
    assert isinstance(spec["second_eigenvalue"], str)
    assert spec["cut_size_lemma"]["applicable"] in (True, False)


def test_analyze_scheme_symmetrizes():
    reports = analyze_scheme(build_family("conjugacy", ("Z5",)))
    assert len(reports) == 2
    assert all(rep["symmetrized"] for rep in reports)
    assert reports[0]["v"] == 5 and reports[0]["valency"] == 2
    with pytest.raises(ValueError):
        analyze_scheme(build_family("conjugacy", ("Z5",)), symmetrize=False)


def test_config_threading():
    rep = analyze_relation(build_family("johnson", (9, 2)), 1,
                           config=AnalysisConfig(seed=99))
    assert rep["corollaries"]["seed"] == 99
    assert rep["config"]["seed"] == 99


def test_clique_cap_from_config():
    rep = analyze_relation(build_family("drg", ("petersen",)), 1,
                           config=AnalysisConfig(clique_cap=3))
    cor = rep["corollaries"]
    assert cor["c3_capped"] is True and cor["c3_clique_count"] == 3
    assert rep["config"]["clique_cap"] == 3


def test_column_tol_from_config():
    # a tolerance this loose makes every idempotent column "repeated" on a
    # primitive scheme, so the two primitivity detectors must disagree
    s = build_family("drg", ("petersen",))
    block = spectral_section(s, compute_spectral(s),
                             AnalysisConfig(column_tol=10.0))
    assert block["primitivity"]["primitive"] is None
    assert any("detectors disagree" in f for f in block["findings"])


# Leading 16 hex digits of the SHA-256 of each report's JSON without its
# "spectral" block, which is left out because qp_residual and the 12-digit
# P/Q strings depend on BLAS rounding.  The slice has exhaustive and
# sampled C1 (johnson-7-3 r2, valency 18), min-cut enumeration over budget
# and disconnected relations.
DIGEST_SLICE = [("cyclic", (5,)), ("cyclic", (12,)), ("hamming", (4, 2)),
                ("johnson", (7, 3)), ("conjugacy", ("Q8",)),
                ("drg", ("petersen",)), ("drg", ("k33",))]
REPORT_DIGESTS = {
    "cyclic-5-r1": "ea2422816a023a91",
    "cyclic-5-r2": "c1ce6790d66ece30",
    "cyclic-12-r1": "072026b48025068b",
    "cyclic-12-r2": "6c6ac7930b20b334",
    "cyclic-12-r3": "373557af88dc29ee",
    "cyclic-12-r4": "16f0dc3e67606d39",
    "cyclic-12-r5": "1d76a0f3e3cea740",
    "cyclic-12-r6": "16f080d78a80361f",
    "hamming-4-2-r1": "087060bf13493d9c",
    "hamming-4-2-r2": "39a7ef580ecae08b",
    "hamming-4-2-r3": "285a250a2371df88",
    "hamming-4-2-r4": "0f4c515d833be77d",
    "johnson-7-3-r1": "45d55732b25345b4",
    "johnson-7-3-r2": "433d4e14dc216696",
    "johnson-7-3-r3": "fdb44f66f01e8ba0",
    "conj-Q8-r1": "1582e050d1538482",
    "conj-Q8-r2": "c90e50cbb9522e02",
    "conj-Q8-r3": "feaf4505eabba890",
    "conj-Q8-r4": "1f09119dfd575682",
    "drg-petersen-r1": "a1ead5bb707be502",
    "drg-petersen-r2": "c82d735b1fd2e1a7",
    "drg-k33-r1": "837a88f72b235b46",
    "drg-k33-r2": "52ab2b9516db8050",
}


def test_report_digests_unchanged():
    got = {}
    for kind, params in DIGEST_SLICE:
        for rep in analyze_scheme(build_family(kind, params)):
            body = {k: v for k, v in rep.items() if k != "spectral"}
            digest = hashlib.sha256(json.dumps(body, indent=2).encode())
            got[f"{rep['scheme']}-r{rep['relation']}"] = \
                digest.hexdigest()[:16]
    assert got == REPORT_DIGESTS


def _count_calls(monkeypatch, module, name, calls):
    """Count calls of module.<name> wherever the package holds it."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    for key, mod in list(sys.modules.items()):
        if key.startswith("schemeconn") and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, wrapper)


@pytest.mark.parametrize("family,connected", [
    (("johnson", (7, 3)), 3),       # r2 runs the sampled C1 sweep
    (("hamming", (4, 2)), 2),
], ids=["johnson-7-3", "hamming-4-2"])
def test_analyze_relation_builds_shared_objects_once(monkeypatch, family,
                                                     connected):
    from schemeconn import connectivity, diagram, scheme as scheme_mod
    s = build_family(*family)
    spec = compute_spectral(s)
    block = spectral_section(s, spec)
    calls = Counter()
    _count_calls(monkeypatch, scheme_mod, "relation_graph", calls)
    _count_calls(monkeypatch, diagram, "distribution_diagram", calls)
    _count_calls(monkeypatch, connectivity, "vertex_connectivity", calls)
    for i in range(1, s.d + 1):
        analyze_relation(s, i, spectral=spec, spectral_block=block)
    assert calls == {"relation_graph": s.d, "distribution_diagram": s.d,
                     "vertex_connectivity": connected}


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


def test_survey_jobs_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_survey(SMALL_ENTRIES, str(a), jobs=1)
    run_survey(SMALL_ENTRIES, str(b), jobs=2)
    ta, tb = _tree(a), _tree(b)
    assert list(ta) == list(tb)
    for name in ta:
        assert ta[name] == tb[name], name


def test_survey_isolates_bad_entry(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    entries = [(("cyclic", (5,)), None), (("file", str(bad)), None)]
    summary = run_survey(entries, str(out))
    assert not summary["ok"]
    assert len(summary["errors"]) == 1
    assert summary["errors"][0]["entry"] == 1
    assert "ParseError" in summary["errors"][0]["error"]
    # the good entry still produced its report
    assert (out / "cyclic-5-r1.json").exists()


_SURVEY_TASK = report._survey_task


def _task_dying_on_entry_1(arg):
    if arg[0] == 1:
        os._exit(1)
    return _SURVEY_TASK(arg)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="a patched task reaches pool workers only by fork")
def test_survey_survives_worker_death(tmp_path, monkeypatch):
    entries = [(("cyclic", (n,)), None) for n in (5, 6, 7)]
    run_survey(entries, str(tmp_path / "clean"), jobs=2)
    monkeypatch.setattr(report, "_survey_task", _task_dying_on_entry_1)
    summary = run_survey(entries, str(tmp_path / "crash"), jobs=2)
    assert summary["errors"] == [{"entry": 1,
                                  "error": "worker process died"}]
    assert summary["reports"] == 2 + 3
    clean = _tree(tmp_path / "clean")
    want = {name: data for name, data in clean.items()
            if name != "summary.json" and not name.startswith("cyclic-6-")}
    got = _tree(tmp_path / "crash")
    del got["summary.json"]
    assert got == want


def test_survey_relation_selection(tmp_path):
    out = tmp_path / "sel"
    summary = run_survey([(("hamming", (3, 2)), [1])], str(out))
    assert summary["reports"] == 1
    assert sorted(os.listdir(out)) == ["hamming-3-2-r1.json", "summary.json"]


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


def test_cli_analyze_file_all_relations(tmp_path, capsys):
    path = _write_pentagon(tmp_path)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "r1" in out and "r2" in out


def test_cli_analyze_no_source(capsys):
    assert main(["analyze"]) == 1


@pytest.mark.parametrize("family", [["johnson", "5"], ["hamming", "2", "x"]])
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


def test_cli_analyze_refuse_symmetrize(capsys):
    code = main(["analyze", "--family", "conjugacy", "Z5",
                 "--no-symmetrize"])
    assert code == 2


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


def test_cli_survey_jobs_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SCHEME_CONN_JOBS", "2")
    out = tmp_path / "sv"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(
        {"entries": [{"family": ["cyclic", 6]}], "out": str(out)}))
    assert main(["survey", "--manifest", str(manifest)]) == 0
    assert len(os.listdir(out)) == 4  # r1 r2 r3 + summary
