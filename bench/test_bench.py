"""Tests of the benchmark itself: quick runs, the checks, pool determinism.

    python3 -m pytest -q bench
"""
from __future__ import annotations

import dataclasses
import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from schemeconn import catalog, report, spectral  # noqa: E402
from schemeconn.errors import NonConstantIntersection  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_quick(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_end_to_end_metric(workload):
    res = run_quick(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_quick_traced_run_reports_every_layer_metric():
    res = run_quick("johnson-large", 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    # spans from the two pool workers reached the parent
    assert res["metrics"]["connectivity.vertex_flow_calls"]["value"] > 0
    assert res["metrics"]["audits.corollary_audits_s"]["value"] > 0


def test_missing_package_exits_nonzero_without_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog-survey",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- survey checks -------------------------------------------------------

@pytest.fixture(scope="module")
def quick_survey(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("survey"))
    entries = inputs.survey_entries(quick=True)
    summary = report.run_survey(entries, out)
    return out, entries, summary


def _copy_tree(src, dst):
    os.makedirs(dst)
    for name in os.listdir(src):
        with open(os.path.join(src, name), "rb") as fh:
            data = fh.read()
        with open(os.path.join(dst, name), "wb") as fh:
            fh.write(data)


def _plant(tmp_path, quick_survey, fname, edit):
    out, entries, summary = quick_survey
    dst = str(tmp_path / "planted")
    _copy_tree(out, dst)
    path = os.path.join(dst, fname)
    if edit is None:
        os.remove(path)
    else:
        with open(path, encoding="utf-8") as fh:
            rep = json.load(fh)
        edit(rep)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rep, fh)
    return (checks.check_survey(dst, entries, summary)
            + checks.check_oracle(dst, entries))


def test_survey_checks_pass_on_real_output(quick_survey):
    out, entries, summary = quick_survey
    assert checks.check_survey(out, entries, summary) == []
    assert checks.check_oracle(out, entries) == []


@pytest.mark.parametrize("fname,edit", [
    ("hamming-3-2-r1.json", lambda r: r.update(valency=4)),
    ("johnson-6-2-r1.json", lambda r: r.update(kappa=r["lambda"] + 1)),
    ("johnson-6-2-r1.json", lambda r: r.update(kappa=r["kappa"] - 1)),
    ("cyclic-5-r2.json", lambda r: r.update(ok=False)),
    ("drg-petersen-r2.json", lambda r: r.update(findings=["planted"])),
    ("drg-petersen-r1.json", lambda r: r.update(connected=False)),
    ("conj-S3-r1.json", lambda r: r.update(v=7)),
    ("cyclic-5-r1.json", None),
])
def test_survey_checks_fail_on_planted_report(tmp_path, quick_survey, fname,
                                              edit):
    assert _plant(tmp_path, quick_survey, fname, edit)


# -- ingest checks -------------------------------------------------------

@pytest.fixture(scope="module")
def quick_ingest(tmp_path_factory):
    return inputs.build_ingest(str(tmp_path_factory.mktemp("ingest")), 7,
                               quick=True)


def _ingest(item):
    scheme = catalog.load_scheme(item.path)
    spec = spectral.compute_spectral(scheme)
    return scheme, spec, report.spectral_section(scheme, spec)


def test_switch_keeps_row_counts_and_breaks_the_scheme(quick_ingest):
    for item in quick_ingest:
        if item.corrupted:
            bad = inputs.load_classes(item.path)
            good = inputs.CLASSES[item.kind](*item.params)
            assert (bad != good).sum() == 8
            assert np.array_equal(bad, bad.T)
            for x in range(good.shape[0]):
                assert np.array_equal(np.bincount(bad[x]),
                                      np.bincount(good[x]))
            assert inputs.first_nonconstant(bad, 1, 1) is not None


def test_ingest_checks_pass_on_real_output(quick_ingest):
    tol = report.DEFAULT_CONFIG.qp_tol
    for item in quick_ingest:
        if item.corrupted:
            with pytest.raises(NonConstantIntersection) as info:
                catalog.load_scheme(item.path)
            assert checks.check_rejected(item, info.value) == []
        else:
            assert checks.check_accepted(item, *_ingest(item), tol) == []


def test_ingest_checks_fail_on_planted_results(quick_ingest):
    tol = report.DEFAULT_CONFIG.qp_tol
    valid = [f for f in quick_ingest if not f.corrupted]
    switched = [f for f in quick_ingest if f.corrupted]
    scheme, spec, block = _ingest(valid[0])
    # a corrupted copy accepted as a scheme
    planted = dataclasses.replace(valid[0], corrupted=True)
    assert checks.check_accepted(planted, scheme, spec, block, tol)
    # wrong multiplicities, wrong QP, a spectral finding
    wrong = dataclasses.replace(
        spec, multiplicities=tuple(reversed(spec.multiplicities)))
    assert checks.check_accepted(valid[0], scheme, wrong, block, tol)
    assert checks.check_accepted(
        valid[0], scheme, dataclasses.replace(spec, q=spec.q * 1.01),
        block, tol)
    assert checks.check_accepted(valid[0], scheme, spec,
                                 dict(block, findings=["planted"]), tol)
    # a valid file rejected; a witness whose counts do not hold up
    with pytest.raises(NonConstantIntersection) as info:
        catalog.load_scheme(switched[0].path)
    exc = info.value
    assert checks.check_rejected(valid[0], exc)
    forged = NonConstantIntersection(exc.i, exc.j, exc.k, exc.ref,
                                     (exc.bad[0], exc.bad[1] + 1))
    assert checks.check_rejected(switched[0], forged)
    assert checks.check_rejected(switched[0], ValueError("not a verdict"))


# -- pool determinism and tracing ----------------------------------------

def test_report_trees_identical_for_one_and_two_workers(tmp_path):
    entries = inputs.survey_entries(quick=True)
    trees = []
    for jobs, traced in ((1, False), (2, False), (1, True)):
        out = str(tmp_path / f"jobs{jobs}-{traced}")
        restore = None
        if traced:
            os.makedirs(tmp_path / "spans")
            restore = spans.install(spans.Recorder(str(tmp_path / "spans")))
        try:
            report.run_survey(entries, out, jobs=jobs)
        finally:
            if restore:
                restore()
        trees.append(out)
    names = sorted(os.listdir(trees[0]))
    assert len(names) > len(entries)
    for other in trees[1:]:
        assert sorted(os.listdir(other)) == names
        match, mismatch, errors = filecmp.cmpfiles(trees[0], other, names,
                                                   shallow=False)
        assert mismatch == [] and errors == []


def test_self_times_subtract_children():
    recs = [("a", "outer", 0.0, 10.0, None), ("b", "inner", 1.0, 3.0, "a"),
            ("c", "inner", 2.0, 5.0, "a"), ("d", "inner", 8.0, 12.0, "a")]
    st = spans.self_times(recs)
    assert st["outer"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert st["inner"] == pytest.approx(2.0 + 3.0 + 4.0)
