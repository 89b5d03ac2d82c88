"""Command-line pipeline driver.

Subcommands mirror the pipeline stages: `check` (parse + typecheck),
`generate` (dump the constructed program), `solve` (construct, solve, apply,
write the modified model), `export-lp` (construct and write an LP file), and
`vne` (scenario generator + incremental embedding + verification).

Exit codes: 0 success, 1 bad input, 2 infeasible, 3 timeout. Bad input is
any model, spec, scenario or generation error, an unreadable or non-UTF-8
input file, or an unwritable output path; `main` turns each into `error:`
lines on stderr (one per diagnostic for a type error), never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import vne as vne_mod
from .encode import GenerationError, apply_solution, dump_problem, generate
from .lang.parser import DslSyntaxError, parse
from .lang.typecheck import TypecheckError, typecheck
from .lpformat import export_lp
# unused here, but perfbench/tracing.py wraps apply_rule and apply_delta by these names
from .model import ModelError, apply_delta, load_model, serialize_model  # noqa: F401
from .pattern import PatternError, apply_rule  # noqa: F401
from .solve import solve

EXIT_OK = 0
EXIT_SPEC_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_TIMEOUT = 3

REPORT_FORMAT = "graphilp-solve-report/1"


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_inputs(args):
    mm, graph = load_model(_read(args.model))
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
    cfg = vne_mod.parse_scenario_config(_read(args.config)) if args.config \
        else vne_mod.ScenarioConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
    from .vne_model import embedding_spec
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
    p.add_argument("--time-limit", type=float, default=None, metavar="S")
    p.add_argument("--report", help="write a JSON run report")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("export-lp", help="construct the program and write an LP file")
    add_io(p, out_required=True)
    p.set_defaults(func=cmd_export_lp)

    p = sub.add_parser("vne", help="run the network-embedding scenario")
    p.add_argument("--config", help="scenario config file (key = value)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--time-limit", type=float, default=None, metavar="S")
    p.add_argument("--report", help="write a JSON report")
    p.add_argument("--out", help="write the final model document")
    p.set_defaults(func=cmd_vne)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TypecheckError as exc:
        # `vne` typechecks its built-in spec, which has no file name
        source = getattr(args, "spec", "embedding spec")
        for d in exc.diagnostics:
            print(f"error: {source}:{d}", file=sys.stderr)
    except (ModelError, DslSyntaxError, GenerationError, PatternError,
            vne_mod.ScenarioError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_SPEC_ERROR


if __name__ == "__main__":
    sys.exit(main())
