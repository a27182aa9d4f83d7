"""Per-relation analysis reports and the parallel survey harness.

Reports are plain dicts with a stable field order so serialized output is
byte-identical run to run.  Every block built from a record (an audit
section, the I/U/W decomposition, the cut-size lemma, the primitivity
verdict and the config) is that record as audits.record_fields writes it,
and an audit's findings are its record's own.

A survey task is one entry, a whole scheme with the relations asked of
it.  With jobs > 1 the parent forks a few workers and hands each idle one
the next entry index over a pipe; a worker sends back its pickled report
dicts, and the parent writes everything in canonical order, so the output
does not depend on the schedule.  A worker that dies loses only the
entry it was running, and a worker whose parent dies exits too.  Without
os.fork the survey runs serially, which writes the same bytes.
"""
from __future__ import annotations

import json
import math
import os
import pickle
import selectors
import signal
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import audits
from .audits import record_fields
from .diagram import p_polynomial_generator
from .errors import CapExceeded, DetectorDisagreement, HypothesisNotMet
from .scheme import SchemeDescriptor, symmetrized_scheme
from .spectral import (COLUMN_TOL, GROUPING_TOL, SpectralData,
                       compute_spectral, primitivity, second_eigenvalue)

TOOL_VERSION = "0.4.0"


@dataclass(frozen=True)
class AnalysisConfig:
    # every report's `config` block; the fields after seed are fixed
    seed: int = 0x5EED          # accepted for compatibility; no audit reads it
    grouping_tol: float = field(default=GROUPING_TOL, init=False)
    qp_tol: float = field(default=1e-8, init=False)
    column_tol: float = field(default=COLUMN_TOL, init=False)
    multiplicity_tol: float = field(default=1e-6, init=False)
    cut_enum_budget: int = field(default=200_000, init=False)


DEFAULT_CONFIG = AnalysisConfig()


# a printed value this close to an integer prints as that integer
WHOLE_TOL = 1e-9


def _fmt(x: float) -> str:
    """A value within WHOLE_TOL of an integer prints as that integer (so
    -0 is 0), any other with 10 significant digits: the printed strings do
    not depend on the rounding of one BLAS or LAPACK build."""
    if math.isfinite(x) and abs(x - round(x)) <= WHOLE_TOL:
        return str(round(x))
    return f"{x:.10g}"


def _matrix_strings(m: np.ndarray) -> list[list[str]]:
    """_fmt of every entry, with the integrality test made once for the
    whole matrix.  np.rint rounds half to even as round does, and each
    rounded value is converted by int, exact at any magnitude."""
    x = np.asarray(m, dtype=np.float64)
    rounded = np.rint(x)
    with np.errstate(invalid="ignore"):     # inf - inf
        whole = np.isfinite(x) & (np.abs(x - rounded) <= WHOLE_TOL)
    out = np.empty(x.shape, dtype=object)
    out[whole] = [str(int(r)) for r in rounded[whole].tolist()]
    out[~whole] = [f"{y:.10g}" for y in x[~whole].tolist()]
    return out.tolist()


def spectral_section(scheme: SchemeDescriptor, spectral: SpectralData,
                     config: AnalysisConfig = DEFAULT_CONFIG) -> dict:
    """Scheme-level spectral block shared by every relation report."""
    v = scheme.v
    qp = spectral.q @ spectral.p
    resid = float(np.abs(qp - v * np.eye(scheme.d + 1)).max())
    rowsum = float(np.abs(spectral.q[1:, :].sum(axis=1)).max()) \
        if scheme.d >= 1 else 0.0
    findings = []
    if resid >= config.qp_tol:
        findings.append(f"QP=vI residual {resid:.3e} over {config.qp_tol}")
    if rowsum >= config.qp_tol:
        findings.append(f"Q row sum residual {rowsum:.3e}")
    for j, m in enumerate(spectral.q[0]):
        m = float(m)
        if abs(m - round(m)) > config.multiplicity_tol or round(m) <= 0:
            findings.append(f"m_{j} = Q_0{j} = {m!r} is not a positive integer")
    if sum(spectral.multiplicities) != v:
        findings.append("multiplicities do not sum to v")
    try:
        prim = record_fields(primitivity(scheme, spectral, config.column_tol))
    except DetectorDisagreement as e:
        prim = {"primitive": None, "error": str(e)}
        findings.append(f"primitivity detectors disagree: {e}")
    return {
        "multiplicities": list(spectral.multiplicities),
        "P": _matrix_strings(spectral.p),
        "Q": _matrix_strings(spectral.q),
        "qp_ok": resid < config.qp_tol,
        "q_rowsum_ok": rowsum < config.qp_tol,
        "primitivity": prim,
        "findings": findings,
    }


# The audit sections of a report, in report order, each with the name of its
# audit.  The audit is looked up in the module at each call, so a wrapper
# installed on audits.<name> sees the call; an audit that does not apply
# raises HypothesisNotMet.
SECTIONS = (("theorem1", "theorem1_audit"),
            ("corollaries", "corollary_audits"),
            ("w_empty", "w_empty_audit"),
            ("small_cut", "small_cut_theorems_audit"),
            ("ball_deletion", "ball_deletion_audit"))


def analyze_relation(scheme: SchemeDescriptor, i: int,
                     config: AnalysisConfig = DEFAULT_CONFIG,
                     spectral: Optional[SpectralData] = None,
                     spectral_block: Optional[dict] = None,
                     symmetrized: bool = False) -> dict:
    """Full audit report for one basis relation.  `spectral`/
    `spectral_block` can be shared across the relations of one scheme;
    each is computed when absent, the block from `spectral`."""
    ctx = audits.RelationContext(scheme, i)
    v = scheme.v
    v1 = int(scheme.valencies[i])
    connected = ctx.connected
    complete = ctx.complete
    findings: list[str] = []
    skipped: list[str] = []

    diameter = ctx.diagram.diameter
    # each vertex has the k_i vertices of each twin class i as its twins
    twin_count = v * sum(scheme.valencies[c] for c in ctx.twin_classes) // 2
    bound = Fraction(v1 * v, 2 * (v - 1))

    kappa = lam = None
    whitney_ok = godsil_ok = conjecture_ok = None
    if connected:
        kappa = ctx.kappa
        lam = ctx.lam
        whitney_ok = kappa <= lam <= v1
        godsil_ok = Fraction(lam) >= bound
        conjecture_ok = kappa == lam == v1
        if not whitney_ok:
            findings.append(f"whitney chain fails: {kappa} <= {lam} <= {v1}")
        if not godsil_ok:
            findings.append(f"edge connectivity {lam} below bound {bound}")
        if not conjecture_ok:
            findings.append(
                f"connectivity conjecture counterexample: kappa={kappa} "
                f"lambda={lam} valency={v1}")
    else:
        skipped.append("connectivity: disconnected relation")

    sections: dict[str, dict] = {}
    for name, audit in SECTIONS:
        try:
            rec = getattr(audits, audit)(ctx)
        except HypothesisNotMet as e:
            sections[name] = {"status": "skipped", "reason": e.reason}
            # a skipped ball deletion shows in its own section only
            if name != "ball_deletion":
                skipped.append(f"{name}: {e.reason}")
        else:
            sections[name] = {"status": "ok", **record_fields(rec)}
            findings.extend(rec.findings())

    min_cut_count = None
    min_cuts_are_neighborhoods = None
    if connected and not complete:
        try:
            mc = ctx.min_cuts(config.cut_enum_budget)
        except CapExceeded:
            skipped.append("min cut enumeration: over budget")
        else:
            min_cut_count = len(mc.cuts)
            min_cuts_are_neighborhoods = mc.all_neighborhoods

    if spectral is None:
        spectral = compute_spectral(scheme, grouping_tol=config.grouping_tol)
    if spectral_block is None:
        spectral_block = spectral_section(scheme, spectral, config)
    spec = dict(spectral_block)
    findings.extend(spec.pop("findings"))
    prim = spec.get("primitivity", {})
    if twin_count > 0 and prim.get("primitive") is True:
        findings.append("twins present but scheme judged primitive")
    if connected:
        theta = second_eigenvalue(ctx, spectral)
        spec["second_eigenvalue"] = _fmt(theta)
        spec["second_eigenvalue_positive"] = bool(theta > 1e-6)
        if not ctx.complete_multipartite and theta <= 1e-6:
            findings.append(
                f"second eigenvalue {theta!r} not positive on "
                f"non-complete-multipartite relation")
    else:
        spec["second_eigenvalue"] = None
        spec["second_eigenvalue_positive"] = None
    try:
        sca = audits.spec_cut_audit(ctx)
    except HypothesisNotMet as e:
        spec["cut_size_lemma"] = {"applicable": False, "reason": e.reason}
    else:
        spec["cut_size_lemma"] = record_fields(sca)
        findings.extend(sca.findings())

    return {
        "scheme": scheme.name,
        "relation": i,
        "v": v,
        "d": scheme.d,
        "valency": v1,
        "connected": connected,
        "complete": complete,
        "symmetrized": symmetrized,
        "diameter": diameter,
        "kappa": kappa,
        "lambda": lam,
        "godsil_bound_num": bound.numerator,
        "godsil_bound_den": bound.denominator,
        "whitney_ok": whitney_ok,
        "godsil_ok": godsil_ok,
        "conjecture_ok": conjecture_ok,
        "twin_pairs": twin_count,
        "h_prime_connected": ctx.h_prime_connected,
        "theorem1": sections["theorem1"],
        "corollaries": sections["corollaries"],
        "iuw": record_fields(ctx.iuw),
        "w_empty": sections["w_empty"],
        "small_cut": sections["small_cut"],
        "min_cut_count": min_cut_count,
        "min_cuts_are_neighborhoods": min_cuts_are_neighborhoods,
        "ball_deletion": sections["ball_deletion"],
        "spectral": spec,
        "p_polynomial_generator": p_polynomial_generator(ctx),
        "findings": findings,
        "skipped": skipped,
        "ok": not findings,
        "tool_version": TOOL_VERSION,
        "config": record_fields(config),
    }


def analyze_scheme(scheme: SchemeDescriptor, relations=None,
                   config: AnalysisConfig = DEFAULT_CONFIG) -> list[dict]:
    """Reports for the chosen relations (default: all nontrivial ones).
    Non-symmetric schemes are symmetrized first."""
    symmetrized = not scheme.symmetric
    if symmetrized:
        scheme = symmetrized_scheme(scheme)
    if relations is None:
        relations = list(range(1, scheme.d + 1))
    spectral = compute_spectral(scheme, grouping_tol=config.grouping_tol)
    block = spectral_section(scheme, spectral, config)
    return [analyze_relation(scheme, i, config=config, spectral=spectral,
                             spectral_block=block, symmetrized=symmetrized)
            for i in relations]


# -- survey --------------------------------------------------------------

def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _survey_task(arg):
    """Worker: build one scheme and analyze the requested relations."""
    idx, source, relations, config = arg
    from .catalog import build_family, load_scheme
    try:
        if source[0] == "file":
            scheme = load_scheme(source[1])
        else:
            scheme = build_family(source[0], tuple(source[1]))
        reports = analyze_scheme(scheme, relations=relations, config=config)
        return idx, scheme.name, reports, None
    except Exception as e:                      # noqa: BLE001 - fail-isolated
        return idx, None, [], f"{type(e).__name__}: {e}"


def _read_exact(fd: int, n: int) -> Optional[bytearray]:
    """n bytes from fd, or None if the pipe closes first."""
    buf = bytearray()
    while len(buf) < n:
        chunk = os.read(fd, n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def _serve(tasks: list[tuple], task_fd: int, result_fd: int) -> None:
    """Worker loop: read an 8-byte entry index, run _survey_task on that
    entry, send back the length-prefixed pickled result; stop when the
    parent closes the task pipe.  The task is looked up in the module at
    each call, so a wrapper installed on report._survey_task sees it."""
    while (head := _read_exact(task_fd, 8)) is not None:
        result = _survey_task(tasks[int.from_bytes(head, "little")])
        data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        data = len(data).to_bytes(8, "little") + data
        while data:
            data = data[os.write(result_fd, data):]


def _exit_on_eof(fd: int) -> None:
    """Block on fd and end the process once it reads EOF."""
    os.read(fd, 1)
    os._exit(1)


def _pooled(tasks: list[tuple], jobs: int) -> list[tuple]:
    """_survey_task on at most min(jobs, len(tasks)) forked workers at a
    time.  Each idle worker is handed the next entry over its own pipe, so
    the schedule is dynamic.  A worker that dies loses only the entry it
    was running, recorded as "worker process died", and a fresh worker
    takes over the entries left.  Workers leave only through os._exit, and
    every child is killed and reaped before this returns or raises.  A
    worker busy in an entry reads no pipe, so each also watches a lifeline
    pipe whose write end only the parent holds, on a daemon thread: when
    the parent dies, even by SIGKILL, the lifeline reads EOF and the worker
    exits."""
    results = []
    sel = selectors.DefaultSelector()
    workers: dict[int, list] = {}   # result fd -> [pid, task fd, position]
    handed = 0
    life_r, life_w = os.pipe()

    def start() -> int:
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # other workers see EOF only once every copy of their
                # task pipe's write end is closed, and this one sees the
                # lifeline's once the parent's is
                for fd in [task_w, result_r, life_w] + [
                        f for r, w in workers.items() for f in (r, w[1])]:
                    os.close(fd)
                threading.Thread(target=_exit_on_eof, args=(life_r,),
                                 daemon=True).start()
                _serve(tasks, task_r, result_w)
                code = 0
            finally:
                os._exit(code)
        workers[result_r] = [pid, task_w, None]
        sel.register(result_r, selectors.EVENT_READ)
        os.close(task_r)
        os.close(result_w)
        return result_r

    def retire(fd: int) -> None:
        pid, task_w, _ = workers.pop(fd)
        sel.unregister(fd)
        os.close(fd)
        os.close(task_w)            # an idle worker reads EOF and exits
        os.waitpid(pid, 0)

    def hand(fd: int) -> None:
        nonlocal handed
        if handed == len(tasks):
            retire(fd)
            return
        workers[fd][2] = handed
        try:
            os.write(workers[fd][1], handed.to_bytes(8, "little"))
        except BrokenPipeError:     # died idle: its result pipe reads EOF
            pass
        handed += 1

    try:
        for _ in range(min(jobs, len(tasks))):
            hand(start())
        while workers:
            for key, _ in sel.select():
                fd = key.fd
                head = _read_exact(fd, 8)
                data = None if head is None else \
                    _read_exact(fd, int.from_bytes(head, "little"))
                if data is None:
                    results.append((tasks[workers[fd][2]][0], None, [],
                                    "worker process died"))
                    retire(fd)
                    if handed < len(tasks):
                        hand(start())
                else:
                    results.append(pickle.loads(data))
                    hand(fd)
    finally:
        for fd, (pid, _, _) in list(workers.items()):
            os.kill(pid, signal.SIGKILL)
            retire(fd)
        sel.close()
        os.close(life_r)
        os.close(life_w)
    return results


def _report_name_error(name: str, reports: list[dict],
                       written: dict[str, int]) -> Optional[str]:
    """Why an entry's reports cannot be written as <name>-r<i>.json in the
    output directory, or None.  The name must be a plain file stem, so no
    report lands outside the directory, and no file may be written twice,
    so the summary's report count equals the number of report files."""
    if not (0 < len(name) <= 200 and name.isprintable()
            and not name.startswith(".")
            and not any(c in name for c in "/\\")):
        return f"scheme name {name!r} is not a plain file name"
    fnames = [f"{name}-r{rep['relation']}.json" for rep in reports]
    for fname in fnames:
        if fname in written:
            return f"{fname} was already written for entry {written[fname]}"
    if len(set(fnames)) < len(fnames):
        return f"a relation of {name} is listed twice"
    return None


def run_survey(entries, out_dir: str, jobs: int = 1,
               config: AnalysisConfig = DEFAULT_CONFIG) -> dict:
    """entries: list of (source, relations) where source is ("file", path)
    or (family_kind, params); relations is None for all.  Writes one JSON
    per (scheme, relation) plus summary.json; output is byte-identical for
    any jobs value.  jobs > 1 runs the entries on at most
    min(jobs, len(entries)) forked workers at a time, all reaped before
    this returns or raises; where os.fork is missing the survey runs
    serially.  An entry whose reports cannot be written
    under a plain, unused file name, or whose worker dies while running it,
    is recorded as an error and writes nothing; the other entries go on."""
    os.makedirs(out_dir, exist_ok=True)
    tasks = [(idx, source, relations, config)
             for idx, (source, relations) in enumerate(entries)]
    if jobs > 1 and hasattr(os, "fork"):
        results = _pooled(tasks, jobs)
    else:
        results = [_survey_task(t) for t in tasks]
    results.sort(key=lambda r: r[0])

    audits_run = audits_passed = audits_skipped = 0
    counterexamples = []
    all_findings = []
    errors = []
    n_reports = 0
    written: dict[str, int] = {}        # report file name -> entry index
    for idx, name, reports, err in results:
        if err is None:
            err = _report_name_error(name, reports, written)
        if err is not None:
            errors.append({"entry": idx, "error": err})
            continue
        for rep in reports:
            n_reports += 1
            fname = f"{name}-r{rep['relation']}.json"
            written[fname] = idx
            with open(os.path.join(out_dir, fname), "w",
                      encoding="utf-8") as fh:
                fh.write(_dump(rep))
            for section, _ in SECTIONS:
                st = rep[section]["status"]
                if st == "ok":
                    audits_run += 1
                elif st == "skipped":
                    audits_skipped += 1
            if rep["conjecture_ok"] is False:
                counterexamples.append(
                    {"scheme": name, "relation": rep["relation"],
                     "kappa": rep["kappa"], "lambda": rep["lambda"],
                     "valency": rep["valency"]})
            if rep["findings"]:
                all_findings.append({"scheme": name,
                                     "relation": rep["relation"],
                                     "findings": rep["findings"]})
            else:
                audits_passed += 1
    summary = {
        "tool_version": TOOL_VERSION,
        "config": record_fields(config),
        "entries": len(tasks),
        "reports": n_reports,
        "audit_sections_run": audits_run,
        "audit_sections_skipped": audits_skipped,
        "reports_clean": audits_passed,
        "counterexamples": counterexamples,
        "findings": all_findings,
        "errors": errors,
        "ok": not counterexamples and not all_findings and not errors,
    }
    with open(os.path.join(out_dir, "summary.json"), "w",
              encoding="utf-8") as fh:
        fh.write(_dump(summary))
    return summary


def builtin_entries() -> list[tuple]:
    """(source, relations) pairs for the whole built-in catalog."""
    from .catalog import BUILTIN_FAMILIES
    return [((kind, params), None) for kind, params in BUILTIN_FAMILIES]
