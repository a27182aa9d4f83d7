"""Benchmark of schemeconn: catalog survey, large Johnson members, scheme ingest.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload catalog-survey --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  `--trace 0` reports the end-to-end
metrics; `--trace 1` wraps the package's functions (see spans.py) and
reports the per-layer metrics instead.  `--quick` runs each workload on
tiny inputs.  The exit code is 1 when a correctness check fails and 2 when
the package is not there to run.  See README.md for the workloads.
"""
from __future__ import annotations

import os

# One BLAS thread per process: with at most two processes at work,
# workers x threads stays within the two cores this was tuned on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
JOHNSON_JOBS = 2

# Nominal seconds of one round on the reference machine: a run makes
# max(1, seconds // ROUND_S) rounds.
ROUND_S = {"catalog-survey": 30.0, "johnson-large": 25.0,
           "scheme-ingest": 6.0}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# (metric, span or counter name, what is read): "self" is the summed self
# time of the spans, "calls" the number of calls.
PER_LAYER = (
    ("scheme.validate_scheme_s", "scheme.validate_scheme", "self"),
    ("scheme.validate_scheme_calls", "scheme.validate_scheme", "calls"),
    ("catalog.load_scheme_s", "catalog.load_scheme", "self"),
    ("catalog.build_family_s", "catalog.build_family", "self"),
    ("spectral.compute_spectral_s", "spectral.compute_spectral", "self"),
    ("report.spectral_section_s", "report.spectral_section", "self"),
    ("audits.corollary_audits_s", "audits.corollary_audits", "self"),
    ("audits.theorem1_audit_s", "audits.theorem1_audit", "self"),
    ("audits.ball_deletion_audit_s", "audits.ball_deletion_audit", "self"),
    ("audits.small_cut_theorems_audit_s", "audits.small_cut_theorems_audit",
     "self"),
    ("audits.w_empty_audit_s", "audits.w_empty_audit", "self"),
    ("audits.iuw_decompose_s", "audits.iuw_decompose", "self"),
    ("graph.reach_mask_calls", "graph.reach_mask", "calls"),
    ("graph.distance_matrix_s", "graph.distance_matrix", "self"),
    ("connectivity.vertex_connectivity_s", "connectivity.vertex_connectivity",
     "self"),
    ("connectivity.vertex_flow_calls", "connectivity.vertex_flow", "calls"),
    ("connectivity.edge_connectivity_s", "connectivity.edge_connectivity",
     "self"),
    ("connectivity.edge_flow_calls", "connectivity.edge_flow", "calls"),
    ("connectivity.enumerate_min_cuts_s", "connectivity.enumerate_min_cuts",
     "self"),
    ("connectivity.maximal_cliques_s", "connectivity.maximal_cliques", "self"),
    ("scheme.relation_graph_s", "scheme.relation_graph", "self"),
    ("scheme.relation_graph_calls", "scheme.relation_graph", "calls"),
    ("diagram.distribution_diagram_calls", "diagram.distribution_diagram",
     "calls"),
    ("report.analyze_relation_self_s", "report.analyze_relation", "self"),
    ("report.write_s", "report.write", "self"),
    ("report.run_survey_self_s", "report.run_survey", "self"),
)


def import_package() -> list:
    """Import schemeconn from this checkout's src/ (never from elsewhere)
    and return the package's lru caches, to be emptied before each round."""
    if not os.path.isfile(os.path.join(SRC, "schemeconn", "__init__.py")):
        print(f"bench: no schemeconn package under {SRC}; run this from the "
              f"root of a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import schemeconn
    if os.path.dirname(os.path.abspath(schemeconn.__file__)) != \
            os.path.join(SRC, "schemeconn"):
        print(f"bench: imported schemeconn from {schemeconn.__file__}",
              file=sys.stderr)
        sys.exit(2)
    return [obj for name, mod in sorted(sys.modules.items())
            if name.startswith("schemeconn.")
            for obj in vars(mod).values() if hasattr(obj, "cache_clear")]


@dataclass
class Round:
    """One pass over a workload's operations; `times` maps each timed call
    to its seconds."""

    times: dict
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    out: Optional[str] = None           # survey report tree, checked later
    summary: Optional[dict] = None
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


class Survey:
    """run_survey over catalog entries, the `schemeconn survey` path."""

    def __init__(self, entries, jobs, seed):
        self.entries = entries
        self.jobs = jobs
        self.seed = seed

    def setup(self, work_dir):
        pass

    def round(self, work_dir, caches) -> Round:
        from schemeconn import report
        for cache in caches:
            cache.cache_clear()
        out = tempfile.mkdtemp(prefix="reports-", dir=work_dir)
        config = report.AnalysisConfig(seed=self.seed)
        start = perf_counter()
        summary = report.run_survey(self.entries, out, jobs=self.jobs,
                                    config=config)
        wall = perf_counter() - start
        for err in summary["errors"]:
            print(f"bench: entry {err['entry']} failed: {err['error']}",
                  file=sys.stderr)
        return Round({"run_survey": wall}, len(self.entries),
                     len(summary["errors"]), out=out, summary=summary)

    def check(self, r: Round) -> list[str]:
        """Run after the last round, so that networkx stays out of the
        timed rounds and of peak_rss_mb."""
        import checks
        failed = {e["entry"] for e in r.summary["errors"]}
        done = [e for idx, e in enumerate(self.entries) if idx not in failed]
        problems = checks.check_survey(r.out, done, r.summary) \
            + checks.check_oracle(r.out, done)
        shutil.rmtree(r.out)
        return problems


class Ingest:
    """load_scheme on every file; compute_spectral and spectral_section on
    the accepted ones."""

    def __init__(self, quick, seed):
        self.quick = quick
        self.seed = seed
        self.files: list = []

    def setup(self, work_dir):
        from inputs import build_ingest
        in_dir = os.path.join(work_dir, "schemes")
        os.makedirs(in_dir)
        self.files = build_ingest(in_dir, self.seed, self.quick)

    def round(self, work_dir, caches) -> Round:
        """Each file is timed on its own and its result checked right
        after, outside the timer, while it is still in memory."""
        import checks
        from schemeconn import catalog, report, spectral
        from schemeconn.errors import SchemeError
        config = report.DEFAULT_CONFIG
        times, problems, failed = {}, [], 0
        for item in self.files:
            start = perf_counter()
            try:
                scheme = catalog.load_scheme(item.path)
                spec = spectral.compute_spectral(
                    scheme, grouping_tol=config.grouping_tol)
                block = report.spectral_section(scheme, spec, config)
                rejected = None
            except SchemeError as exc:
                rejected = exc
            except Exception:                   # noqa: BLE001 - count, go on
                traceback.print_exc()
                failed += 1
                continue
            times[item.path] = perf_counter() - start
            if rejected is None:
                problems += checks.check_accepted(item, scheme, spec, block,
                                                  config.qp_tol)
                del scheme, spec, block
            else:
                problems += checks.check_rejected(item, rejected)
        return Round(times, len(self.files), failed, problems)

    def check(self, r: Round) -> list[str]:
        return r.problems


def make_workload(name, quick, seed):
    import inputs
    if name == "catalog-survey":
        return Survey(inputs.survey_entries(quick), 1, seed)
    if name == "johnson-large":
        return Survey(inputs.johnson_entries(quick), JOHNSON_JOBS, seed)
    return Ingest(quick, seed)


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to the end of its set-up
    (package import plus input building), as the child reports it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--probe-setup"]
    if args.quick:
        cmd.append("--quick")
    start = perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError("set-up probe failed")
    return float(done.stdout.split()[-1]) - start


def layer_metrics(rounds) -> dict:
    from spans import self_times
    per_round = [(self_times(r.spans), r.counts) for r in rounds]
    out = {}
    for metric, key, what in PER_LAYER:
        vals = [(st[key] if what == "self" else counts.get(key, 0))
                for st, counts in per_round]
        unit = "s" if what == "self" else "count"
        out[metric] = {"value": statistics.median(vals), "unit": unit}
    return out


def write_trace(args, rounds) -> None:
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    path = os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "rounds": [{"times": r.times, "spans": r.spans,
                               "counts": r.counts} for r in rounds]}, fh)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    p.add_argument("--seed", type=int, default=None,
                   help="default: the package's own analysis seed")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    caches = import_package()
    import spans
    from schemeconn.report import DEFAULT_CONFIG
    if args.seed is None:
        args.seed = DEFAULT_CONFIG.seed
    workload = make_workload(args.workload, args.quick, args.seed)
    # A fixed number of whole rounds, so every run does the same work.
    n_rounds = max(1, int(args.seconds // ROUND_S[args.workload]))
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.probe_setup:
            workload.setup(work_dir)
            print(perf_counter())
            return 0
        setup = [] if args.trace else [probe_setup(args)
                                       for _ in range(SETUP_PROBES)]
        workload.setup(work_dir)
        rec = None
        if args.trace:
            rec = spans.Recorder(os.path.join(work_dir, "spans"))
            os.makedirs(rec.export_dir)
            spans.install(rec)
        rounds = []
        for _ in range(n_rounds):
            rounds.append(workload.round(work_dir, caches))
            if rec:
                rounds[-1].spans, rounds[-1].counts = rec.take()
        usage = [resource.getrusage(who).ru_maxrss for who in
                 (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        problems = [p for r in rounds for p in workload.check(r)]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for p in problems[:20]:
        print(f"bench: check failed: {p}", file=sys.stderr)
    if args.trace:
        write_trace(args, rounds)
        metrics = layer_metrics(rounds)
    else:
        # one round's timed calls, each at its fastest over the rounds:
        # the host's speed swings within seconds, and the minimum is the
        # figure least moved by that
        wall = sum(min(r.times[k] for r in rounds if k in r.times)
                   for k in {k for r in rounds for k in r.times})
        values = {"wall_s": wall,
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": max(usage) / 1024.0}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    print(json.dumps({"correct": not problems,
                      "attempted": sum(r.attempted for r in rounds),
                      "failed": sum(r.failed for r in rounds),
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
