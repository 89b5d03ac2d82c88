"""Command-line pipeline driver.

Subcommands mirror the pipeline stages: `check` (parse + typecheck),
`generate` (dump the constructed program), `solve` (construct, solve, apply,
write the modified model), `export-lp` (construct and write an LP file), and
`vne` (scenario generator + incremental embedding + verification).

Exit codes: 0 success, 1 bad input, 2 infeasible, 3 timeout. Bad input is
any model, spec, scenario or generation error, a program `export-lp` cannot
write, an unreadable or non-UTF-8 input file, or an unwritable output path;
`main` turns each into `error:` lines on stderr (one per diagnostic for a type
error), never a traceback. A usage error, such as a missing flag or a time
limit that is not a finite number of seconds >= 0, also exits 1, after
argparse's usage line and `error:` message. A syntax or type error names its
file: `error: PATH:LINE:COL: message`; so does a model that parses but does
not conform, and any error in a scenario config: `error: PATH: message`.

`build_parser` builds the argument parser once per process, on first use, and
every later `main` call reuses it. That saves only in-process callers (tests,
benchmarks, library code) the rebuild; a one-shot `graphilp` process builds
the parser once either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import vne as vne_mod
from .encode import GenerationError, apply_solution, dump_problem, generate
from .lang.parser import DslSyntaxError, parse
from .lang.typecheck import TypecheckError, typecheck
from .lpformat import LpExportError, export_lp
# unused here, but perfbench/tracing.py wraps apply_rule and apply_delta by these names
from .model import (ConformanceError, ModelError, ModelParseError,  # noqa: F401
                    apply_delta, load_model, serialize_model)
from .pattern import PatternError, apply_rule  # noqa: F401
from .solve import solve
from .vne_model import embedding_spec

EXIT_OK = 0
EXIT_SPEC_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_TIMEOUT = 3

REPORT_FORMAT = "graphilp-solve-report/1"


class InputError(Exception):
    """An input file that cannot be read as text, or whose text a loader
    rejects; the message names the file."""


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 ({exc})") from None


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error; argparse's own code, 2, means infeasible here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_SPEC_ERROR, f"{self.prog}: error: {message}\n")


def _seconds(text: str) -> float:
    """A time limit: a finite number of seconds, not negative."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a finite, nonnegative number of seconds, got {text!r}")
    return value


def _load(path: str, reader, *errors: type[Exception]):
    """`reader` applied to the text of `path`; any of `errors` it raises is an
    InputError that names the file."""
    try:
        return reader(_read(path))
    except errors as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_inputs(args):
    mm, graph = _load(args.model, load_model, ConformanceError)
    spec = typecheck(parse(_read(args.spec)), mm)
    return mm, graph, spec


def cmd_check(args) -> int:
    _, _, spec = _load_inputs(args)
    for w in spec.warnings:
        print(f"warning: {args.spec}:{w}", file=sys.stderr)
    print("ok")
    return EXIT_OK


def cmd_generate(args) -> int:
    _, graph, spec = _load_inputs(args)
    text = dump_problem(*generate(spec, graph))
    if args.out:
        _write(args.out, text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_solve(args) -> int:
    mm, graph, spec = _load_inputs(args)
    problem, table = generate(spec, graph)
    sol = solve(problem, time_limit=args.time_limit)
    if sol.status == "infeasible":
        print("infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    if sol.status == "timeout":
        incumbent = "none" if sol.objective_value is None \
            else f"{sol.objective_value:.6g}"
        print(f"timeout (incumbent: {incumbent})", file=sys.stderr)
        return EXIT_TIMEOUT
    applied, n_applied = apply_solution(graph, spec, table, sol.assignment)
    if args.out:
        _write(args.out, serialize_model(mm, applied))
    report = {
        "format": REPORT_FORMAT,
        "status": sol.status,
        "objective": sol.objective_value,
        "vars": len(problem.variables),
        "rows": len(problem.constraints),
        "applied_matches": n_applied,
        "nodes": sol.stats.get("nodes"),
    }
    if args.report:
        _write(args.report, json.dumps(report, indent=2) + "\n")
    print(f"optimal objective {sol.objective_value:.6g}, "
          f"{n_applied} match(es) applied")
    return EXIT_OK


def cmd_export_lp(args) -> int:
    _, graph, spec = _load_inputs(args)
    _write(args.out, export_lp(*generate(spec, graph)))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_vne(args) -> int:
    cfg = _load(args.config, vne_mod.parse_scenario_config, vne_mod.ScenarioError) \
        if args.config else vne_mod.ScenarioConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    spec = embedding_spec()
    substrate, vnrs = vne_mod.generate_scenario(cfg)
    report = vne_mod.embed_incremental(substrate, vnrs, spec,
                                       time_limit=args.time_limit)
    violations = vne_mod.verify_embedding(report, substrate, report.final)
    print(vne_mod.render_report(report, violations), end="")
    if args.report:
        _write(args.report, vne_mod.report_json(report, violations))
    if args.out:
        _write(args.out, serialize_model(report.final.mm, report.final))
    return EXIT_OK if not violations else EXIT_SPEC_ERROR


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="graphilp",
        description="Compile graph rewrite specs to 0/1 programs, solve, apply.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_io(p, out_required=False):
        p.add_argument("--model", required=True, help="model document (schema + instance)")
        p.add_argument("--spec", required=True, help="specification file (.gipsl)")
        if out_required:
            p.add_argument("--out", required=True, help="output path")
        else:
            p.add_argument("--out", help="output path")

    p = sub.add_parser("check", help="parse and typecheck a spec against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", help="construct the program and dump its rows")
    add_io(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="construct, solve, and apply the chosen matches")
    add_io(p)
    p.add_argument("--time-limit", type=_seconds, default=None, metavar="S")
    p.add_argument("--report", help="write a JSON run report")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("export-lp", help="construct the program and write an LP file")
    add_io(p, out_required=True)
    p.set_defaults(func=cmd_export_lp)

    p = sub.add_parser("vne", help="run the network-embedding scenario")
    p.add_argument("--config", help="scenario config file (key = value)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--time-limit", type=_seconds, default=None, metavar="S")
    p.add_argument("--report", help="write a JSON report")
    p.add_argument("--out", help="write the final model document")
    p.set_defaults(func=cmd_vne)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TypecheckError, DslSyntaxError, ModelParseError) as exc:
        # `vne` reads only its built-in model and spec, which have no file names
        if isinstance(exc, ModelParseError):
            source = getattr(args, "model", "embedding model")
        else:
            source = getattr(args, "spec", "embedding spec")
        for d in getattr(exc, "diagnostics", [exc]):
            print(f"error: {source}:{d}", file=sys.stderr)
    except (ModelError, GenerationError, PatternError,
            vne_mod.ScenarioError, OSError, InputError, LpExportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_SPEC_ERROR


if __name__ == "__main__":
    sys.exit(main())
