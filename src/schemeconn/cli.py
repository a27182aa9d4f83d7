"""Command-line surface.

Exit codes are a contract: 0 ok, 1 file parse or I/O error, 2 invalid
scheme, 3 audit finding, 4 cap exceeded.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .audits import RelationContext
from .catalog import build_family, check_family, load_scheme
from .errors import CapExceeded, ParseError, SchemeError, SizeCap
from .report import (DEFAULT_CONFIG, AnalysisConfig, analyze_scheme,
                     builtin_entries, run_survey)
from .scheme import SchemeDescriptor, symmetrized_scheme

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_FINDING = 3
EXIT_CAP = 4


def _exit_code(exc: SchemeError) -> int:
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, (CapExceeded, SizeCap)):
        return EXIT_CAP
    return EXIT_INVALID


def _family_param(token: str):
    """An integer token as an int.  Anything else stays a string for
    check_family to refuse, including digit-like text that int() rejects,
    such as '+-3' or a superscript digit."""
    if token.lstrip("+-").isdigit():
        try:
            return int(token)
        except ValueError:
            pass
    return token


def _family_params(tokens: list[str]) -> tuple:
    return tuple(_family_param(t) for t in tokens)


def _load_source(args) -> SchemeDescriptor:
    if getattr(args, "family", None):
        kind = args.family[0]
        return build_family(kind, _family_params(args.family[1:]))
    if not args.path:
        raise ParseError("no scheme file or --family given")
    return load_scheme(args.path)


def cmd_verify(args) -> int:
    try:
        scheme = load_scheme(args.path)
    except SchemeError as e:
        label = "parse error" if isinstance(e, ParseError) else "invalid scheme"
        print(f"{label}: {type(e).__name__}: {e}", file=sys.stderr)
        return _exit_code(e)
    kind = "symmetric" if scheme.symmetric else "non-symmetric"
    print(f"{scheme.name}: valid {kind} scheme, v={scheme.v} d={scheme.d} "
          f"valencies={scheme.valencies}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        scheme = _load_source(args)
        config = AnalysisConfig(seed=args.seed)
        relations = [args.relation] if args.relation is not None else None
        reports = analyze_scheme(scheme, relations=relations, config=config)
    except SchemeError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return _exit_code(e)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(reports, indent=2) + "\n")
        except OSError as e:
            print(f"{type(e).__name__}: {e}", file=sys.stderr)
            return EXIT_PARSE
    failed = False
    for rep in reports:
        line = (f"{rep['scheme']} r{rep['relation']}: v={rep['v']} "
                f"valency={rep['valency']} kappa={rep['kappa']} "
                f"lambda={rep['lambda']} twin_pairs={rep['twin_pairs']} "
                f"ok={rep['ok']}")
        print(line)
        for f in rep["findings"]:
            failed = True
            print(f"  finding: {f}", file=sys.stderr)
    return EXIT_FINDING if failed else EXIT_OK


def _manifest_entries(path: str) -> tuple[list, dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    # json's decoder recurses once per nesting level
    except (OSError, json.JSONDecodeError, UnicodeDecodeError,
            RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(
            payload.get("entries"), list):
        raise ParseError(f"{path}: manifest needs an 'entries' list")
    entries = []
    for k, ent in enumerate(payload["entries"]):
        if not isinstance(ent, dict):
            raise ParseError(f"{path}: entry {k} is not an object")
        rel = ent.get("relations")
        if rel == "all":
            rel = None
        # bool is an int subclass, but true/false name no relation
        if rel is not None and (not isinstance(rel, list)
                                or not all(type(x) is int for x in rel)):
            raise ParseError(f"{path}: entry {k} has bad 'relations'")
        if "file" in ent:
            # an int would name a file descriptor, which load_scheme would
            # open and close
            if not isinstance(ent["file"], str):
                raise ParseError(f"{path}: entry {k} has bad 'file'")
            # resolvability is checked up front; content errors are isolated
            if not os.path.exists(ent["file"]):
                raise ParseError(f"{path}: entry {k}: no such file "
                                 f"{ent['file']}")
            entries.append((("file", ent["file"]), rel))
        elif "family" in ent:
            fam = ent["family"]
            if not isinstance(fam, list) or not fam:
                raise ParseError(f"{path}: entry {k} has bad 'family'")
            try:
                check_family(fam[0], tuple(fam[1:]))
            except ParseError as exc:
                raise ParseError(f"{path}: entry {k}: {exc}") from exc
            entries.append(((fam[0], tuple(fam[1:])), rel))
        else:
            raise ParseError(f"{path}: entry {k} needs 'file' or 'family'")
    return entries, payload


def cmd_survey(args) -> int:
    try:
        if args.builtin_catalog:
            entries = builtin_entries()
            defaults: dict = {}
        else:
            if not args.manifest:
                raise ParseError("survey needs --manifest or --builtin-catalog")
            entries, defaults = _manifest_entries(args.manifest)
        out_dir = args.out or defaults.get("out")
        if not out_dir:
            raise ParseError("no output directory (--out)")
        jobs = args.jobs
        if jobs is None:
            jobs = defaults.get("jobs")
        if jobs is None:
            env = os.environ.get("SCHEME_CONN_JOBS", "1")
            try:
                jobs = int(env)
            except ValueError:
                raise ParseError(
                    f"SCHEME_CONN_JOBS={env!r} is not an integer") from None
        seed = args.seed if args.seed is not None else defaults.get(
            "seed", DEFAULT_CONFIG.seed)
        # manifest values arrive as any JSON type; bool is not a count
        if not isinstance(out_dir, str):
            raise ParseError(f"output directory {out_dir!r} is not a string")
        if type(jobs) is not int or jobs < 1:
            raise ParseError(f"jobs {jobs!r} is not an integer >= 1")
        if type(seed) is not int:
            raise ParseError(f"seed {seed!r} is not an integer")
        config = AnalysisConfig(seed=seed)
    except SchemeError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return _exit_code(e)
    try:
        summary = run_survey(entries, out_dir, jobs=jobs, config=config)
    except OSError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_PARSE
    print(f"survey: {summary['reports']} reports, "
          f"{summary['audit_sections_run']} audit sections run, "
          f"{summary['audit_sections_skipped']} skipped, "
          f"{len(summary['findings'])} findings, "
          f"{len(summary['errors'])} errors")
    for err in summary["errors"]:
        print(f"  entry {err['entry']}: {err['error']}", file=sys.stderr)
    for f in summary["findings"]:
        print(f"  {f['scheme']} r{f['relation']}: {f['findings']}",
              file=sys.stderr)
    return EXIT_OK if summary["ok"] else EXIT_FINDING


def cmd_cuts(args) -> int:
    try:
        scheme = _load_source(args)
        if not scheme.symmetric:
            scheme = symmetrized_scheme(scheme)
        ctx = RelationContext(scheme, args.relation)
        if ctx.kappa > args.max_size:
            raise CapExceeded(f"kappa = {ctx.kappa} exceeds "
                              f"--max-size {args.max_size}")
        data = ctx.min_cuts()
    except SchemeError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return _exit_code(e)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    for cut, flag in zip(data.cuts, data.neighborhood_flags):
        print(f"{','.join(str(x) for x in cut)} neighborhood={flag}")
    print(f"{len(data.cuts)} minimum cuts of size {ctx.kappa}; "
          f"all_neighborhoods={data.all_neighborhoods}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schemeconn",
        description="Association scheme connectivity analyzer")
    sub = parser.add_subparsers(dest="command", required=True)
    seed_help = ("kept for compatibility; has no effect, since every audit "
                 "is exact")

    p = sub.add_parser("verify", help="validate a scheme file")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="audit one scheme")
    p.add_argument("path", nargs="?", help="scheme JSON file")
    p.add_argument("--family", nargs="+", metavar="ARG",
                   help="builtin family, e.g. --family johnson 5 2")
    p.add_argument("--relation", type=int, default=None,
                   help="class index (after symmetrization); default all")
    p.add_argument("--report", help="write report JSON here")
    p.add_argument("--seed", type=int, default=DEFAULT_CONFIG.seed,
                   help=seed_help)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("survey", help="batch analysis with JSON reports")
    p.add_argument("--manifest", help="survey manifest JSON")
    p.add_argument("--builtin-catalog", action="store_true")
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel workers, at most one per entry (default "
                        "$SCHEME_CONN_JOBS or 1)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help=seed_help)
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("cuts", help="enumerate minimum vertex cuts")
    p.add_argument("path", nargs="?")
    p.add_argument("--family", nargs="+", metavar="ARG")
    p.add_argument("--relation", type=int, required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.set_defaults(func=cmd_cuts)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # a scheme name may hold characters the locale's encoding lacks
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
