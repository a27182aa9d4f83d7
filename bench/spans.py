"""Spans and call counts recorded from outside the package.

`install` wraps the package's public functions where their callers look them
up: every `schemeconn` module attribute (and class attribute) that holds the
original function is replaced by the wrapper, because callers bind these
names at import time (`relation_graph` lives in `report`, `audits`,
`spectral` and the package root).  Spans are kept in memory as (id, name,
start, end, parent) and written out once, at the end of a run.

Pool workers forked inside `run_survey` inherit the wrappers and the span
stack, so their spans name the parent's `run_survey` span as parent.  After
each task a worker writes its spans and counts to `export_dir`; the parent
reads them back with `Recorder.take`.  `time.perf_counter` reads the
system-wide CLOCK_MONOTONIC on Linux, so times from workers and parent mix.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name); a span is timed and counted.
TIMED = (
    ("scheme", "validate_scheme", "scheme.validate_scheme"),
    ("scheme", "relation_graph", "scheme.relation_graph"),
    ("catalog", "load_scheme", "catalog.load_scheme"),
    ("catalog", "build_family", "catalog.build_family"),
    ("spectral", "compute_spectral", "spectral.compute_spectral"),
    ("report", "spectral_section", "report.spectral_section"),
    ("report", "analyze_relation", "report.analyze_relation"),
    ("report", "run_survey", "report.run_survey"),
    ("report", "_dump", "report.write"),
    ("audits", "theorem1_audit", "audits.theorem1_audit"),
    ("audits", "corollary_audits", "audits.corollary_audits"),
    ("audits", "iuw_decompose", "audits.iuw_decompose"),
    ("audits", "w_empty_audit", "audits.w_empty_audit"),
    ("audits", "small_cut_theorems_audit", "audits.small_cut_theorems_audit"),
    ("audits", "ball_deletion_audit", "audits.ball_deletion_audit"),
    ("connectivity", "vertex_connectivity", "connectivity.vertex_connectivity"),
    ("connectivity", "edge_connectivity", "connectivity.edge_connectivity"),
    ("connectivity", "enumerate_min_cuts", "connectivity.enumerate_min_cuts"),
    ("connectivity", "maximal_cliques", "connectivity.maximal_cliques"),
    ("graph.Graph", "distance_matrix", "graph.distance_matrix"),
)
# Hot inner calls: counted only, since a span each would swamp the run.
COUNTED = (
    ("graph.Graph", "reach_mask", "graph.reach_mask"),
    ("connectivity", "_vertex_flow", "connectivity.vertex_flow"),
    ("connectivity", "_edge_flow", "connectivity.edge_flow"),
    ("diagram", "distribution_diagram", "diagram.distribution_diagram"),
)
# One span per survey entry; in a pool worker it also ships the worker's
# spans to the parent.
TASK = ("report", "_survey_task", "report.survey_task")


class Recorder:
    """Spans and counts of one process."""

    def __init__(self, export_dir: str):
        self.export_dir = export_dir
        self.pid = os.getpid()
        self.worker = False
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.stack: list[str] = []
        self._seq = 0

    def adopt(self) -> None:
        """In a forked worker, drop what was copied from the parent except
        the open-span stack."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.worker = True
            self.spans = []
            self.counts = Counter()

    def next_id(self) -> str:
        self._seq += 1
        return f"{self.pid}.{self._seq}"

    def export(self) -> None:
        path = os.path.join(self.export_dir, f"{self.next_id()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)
        self.spans = []
        self.counts = Counter()

    def take(self) -> tuple[list[tuple], Counter]:
        """This process's spans and counts since the last take, plus every
        worker export; export files are removed once read."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        for name in sorted(os.listdir(self.export_dir)):
            path = os.path.join(self.export_dir, name)
            with open(path, encoding="utf-8") as fh:
                part = json.load(fh)
            os.remove(path)
            spans.extend(tuple(s) for s in part["spans"])
            counts.update(part["counts"])
        return spans, counts


def _timed(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[name] += 1
        sid = rec.next_id()
        parent = rec.stack[-1] if rec.stack else None
        rec.stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            rec.stack.pop()
            rec.spans.append((sid, name, start, end, parent))
    return wrapper


def _counted(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _task(rec: Recorder, name: str, fn):
    timed = _timed(rec, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.adopt()
        try:
            return timed(*args, **kwargs)
        finally:
            if rec.worker:
                rec.export()
    return wrapper


def _resolve(path: str):
    mod, _, cls = path.partition(".")
    obj = importlib.import_module(f"schemeconn.{mod}")
    return getattr(obj, cls) if cls else obj


def install(rec: Recorder):
    """Wrap the survey task and every TIMED and COUNTED function, in every
    place the package looks it up.  Returns a callable that puts the
    originals back."""
    importlib.import_module("schemeconn")
    plan = ([(TASK, _task)] + [(t, _timed) for t in TIMED]
            + [(c, _counted) for c in COUNTED])
    holders = [m for k, m in sorted(sys.modules.items())
               if k == "schemeconn" or k.startswith("schemeconn.")]
    undo = []
    for (where, attr, name), make in plan:
        owner = _resolve(where)
        original = getattr(owner, attr)
        wrapper = make(rec, name, original)
        for holder in [owner] + [h for h in holders if h is not owner]:
            if vars(holder).get(attr) is original:
                setattr(holder, attr, wrapper)
                undo.append((holder, attr, original))

    def restore():
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
    return restore


def self_times(spans: list[tuple]) -> Counter:
    """Total self time per span name: each span's duration minus the part
    of it that its children cover (children in parallel workers may
    overlap, so covered time is a union of intervals)."""
    children: dict = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    out: Counter = Counter()
    for sid, name, start, end, _ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[name] += (end - start) - covered
    return out
