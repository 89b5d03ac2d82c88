"""The benchmark's workloads.

Each workload builds its inputs from the seed in `setup`, then exposes a
fixed list of operations. The harness times `call` for each one and hands
the raw result to `collect`, which turns it into one outcome per user-level
operation (a request or a CLI invocation): a fingerprint of what the program
decided, plus the evidence `check` needs. `check` runs after the timed work
and compares the evidence with a reference the program did not produce.

The program is reached only through graphilp's public API and
`graphilp.cli.main`, always through module attributes, so that the tracer's
wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import graphilp.cli as cli
import graphilp.encode as encode
import graphilp.lpformat as lpformat
import graphilp.vne as vne
from graphilp.vne_model import embedding_spec

import highs
import placement

solve_mod = importlib.import_module("graphilp.solve")  # graphilp.solve is the function

FULLSCALE_SERVERS = 2     # virtual servers of the compiled full-scale request
DISJUNCTIVE_INSTANCES = 144


@dataclass
class Outcome:
    fingerprint: dict
    evidence: dict = field(default_factory=dict)


def _program_fields(problem) -> dict:
    return {"vars": len(problem.variables),
            "aux": sum(1 for v in problem.variables if v.kind == "auxiliary-binary"),
            "rows": len(problem.constraints)}


def _solve_fields(problem, sol) -> dict:
    return {**_program_fields(problem), "nodes": sol.stats.get("nodes")}


def _run_cli(argv: list[str]) -> int:
    """`graphilp <argv>` in this process, its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _desk_config(root: Path, seed: int, requests: int):
    cfg = vne.parse_scenario_config((root / "demos/fixtures/desk.cfg").read_text())
    cfg.seed = seed
    cfg.vnr_count = requests
    return cfg


class TwoLinks:
    """`graphilp solve` on the shipped two-links fixture; the optimum is known:
    the virtual link goes to the half-used link sl2, objective 500/1000."""

    name = "two-links"

    def setup(self, root, workdir, seed, smoke):
        fixtures = root / "demos/fixtures"
        return {"model": fixtures / "two-links.model", "spec": fixtures / "two-links.gipsl",
                "out": workdir / "two-links.applied.model",
                "report": workdir / "two-links.report.json"}

    def ops(self, state):
        return [None]

    def size(self, state, op):
        return 1

    def call(self, state, op):
        return _run_cli(["solve", "--model", str(state["model"]), "--spec", str(state["spec"]),
                         "--out", str(state["out"]), "--report", str(state["report"])])

    def collect(self, state, op, code, solves):
        report = json.loads(state["report"].read_text()) if code == 0 else {}
        applied = state["out"].read_text() if code == 0 else ""
        fp = {"exit": code, "objective": report.get("objective")}
        return [Outcome(fp, {"applied": applied})]

    def check(self, state, op, outcome):
        fp = outcome.fingerprint
        found = []
        if fp["exit"] != 0:
            found.append(f"exit code {fp['exit']}, expected 0")
        elif not highs.close(fp["objective"], 0.5):
            found.append(f"objective {fp['objective']}, expected 0.5")
        if "type: host  src: v11  tgt: sl2" not in outcome.evidence["applied"]:
            found.append("v11 is not hosted on sl2")
        return found


class Desk:
    """The desk scenario (demos/fixtures/desk.cfg with the run's seed): its ten
    requests embedded incrementally, as `graphilp vne` does, then verified."""

    name = "desk"

    def setup(self, root, workdir, seed, smoke):
        spec = embedding_spec()
        substrate, vnrs = vne.generate_scenario(_desk_config(root, seed, 2 if smoke else 10))
        return {"spec": spec, "substrate": substrate, "vnrs": vnrs}

    def ops(self, state):
        return [None]

    def size(self, state, op):
        return len(state["vnrs"])

    def call(self, state, op):
        report = vne.embed_incremental(state["substrate"], state["vnrs"], state["spec"])
        return report, vne.verify_embedding(report, state["substrate"], report.final)

    def collect(self, state, op, raw, solves):
        report, violations = raw
        # a request whose program could not be generated never reaches solve
        solved = [r for r in report.records
                  if not (r.reason.startswith("error:") and r.variables == 0)]
        if len(solved) != len(solves):
            raise RuntimeError(f"{len(solves)} solve calls for {len(solved)} solved requests")
        by_index = {r.index: s for r, s in zip(solved, solves)}
        outcomes = []
        for r in report.records:
            fp = {"request": r.index, "status": r.status,
                  "reason": r.reason, "objective": r.objective}
            evidence = {"violations": [v.message for v in violations]}
            if r.index in by_index:
                problem, sol = by_index[r.index]
                fp.update(_solve_fields(problem, sol))
                evidence["problem"] = problem
            outcomes.append(Outcome(fp, evidence))
        return outcomes

    def check(self, state, op, outcome):
        fp, evidence = outcome.fingerprint, outcome.evidence
        found = list(evidence["violations"])
        if "problem" not in evidence:
            return found + [f"request not solved: {fp['reason']}"]
        status, value = highs.milp_optimum(evidence["problem"])
        if fp["status"] == "embedded":
            if status != "optimal" or not highs.close(value, fp["objective"]):
                found.append(f"objective {fp['objective']}, HiGHS says {status} {value}")
        elif fp["reason"] == "infeasible":
            if status != "infeasible":
                found.append(f"rejected as infeasible, HiGHS says {status} {value}")
        else:
            found.append(f"rejected: {fp['reason']}")
        return found


class FullscaleCompile:
    """One request of `full_scale_config(seed)` compiled against the fresh
    substrate: merge, generate, LP export and re-import, root LP relaxation."""

    name = "fullscale-compile"

    def setup(self, root, workdir, seed, smoke):
        cfg = vne.full_scale_config(seed)
        if smoke:
            cfg.racks, cfg.servers_per_rack = 2, 2
        spec = embedding_spec()
        while True:
            substrate, vnrs = vne.generate_scenario(cfg)
            # the first request with FULLSCALE_SERVERS virtual servers (a star:
            # one switch, then a server and a link per arm)
            index = next((i for i, v in enumerate(vnrs)
                          if len(v.nodes) == 2 * FULLSCALE_SERVERS + 1), None)
            if index is not None:
                return {"spec": spec, "substrate": substrate, "index": index,
                        "vnr": vnrs[index]}
            cfg.vnr_count *= 2  # the stream is a prefix-stable sequence

    def ops(self, state):
        return [state["index"]]

    def size(self, state, op):
        return 1

    def call(self, state, op):
        merged = vne.merge_graphs(state["substrate"], state["vnr"])
        problem, table = encode.generate(state["spec"], merged)
        text = lpformat.export_lp(problem, table)
        reread = lpformat.import_lp(text)
        return problem, text, reread, solve_mod.lp_relaxation(problem)

    def collect(self, state, op, raw, solves):
        problem, text, reread, (status, value) = raw
        fp = {"request": op, **_program_fields(problem),
              "nonzeros": sum(len(r.coeffs) for r in problem.constraints),
              "lp_bytes": len(text), "lp_status": status, "lp_value": value}
        return [Outcome(fp, {"problem": problem, "reread": reread})]

    def check(self, state, op, outcome):
        fp, evidence = outcome.fingerprint, outcome.evidence
        found = []
        if not lpformat.problems_equal(evidence["problem"], evidence["reread"]):
            found.append("LP round trip changed the program")
        status, value = highs.lp_optimum(evidence["problem"])
        if status != fp["lp_status"] or (value is not None
                                         and not highs.close(value, fp["lp_value"])):
            found.append(f"LP relaxation {fp['lp_status']} {fp['lp_value']}, "
                         f"HiGHS says {status} {value}")
        return found


class Disjunctive:
    """`graphilp solve` through the CLI on seeded task-placement instances
    (see placement.py), each written as a .model and a .gipsl file."""

    name = "disjunctive"

    def setup(self, root, workdir, seed, smoke):
        rng = random.Random(seed)
        spec = workdir / "placement.gipsl"
        spec.write_text(placement.spec_text())
        instances = []
        for k in range(2 if smoke else DISJUNCTIVE_INSTANCES):
            inst = placement.make_instance(rng)
            stem = workdir / f"placement-{k}"
            paths = {ext: stem.with_suffix(ext) for ext in (".model", ".applied", ".report")}
            paths[".gipsl"] = spec
            paths[".model"].write_text(placement.model_text(inst))
            instances.append((inst, paths))
        return {"instances": instances}

    def ops(self, state):
        return list(range(len(state["instances"])))

    def size(self, state, op):
        return 1

    def call(self, state, op):
        _, paths = state["instances"][op]
        return _run_cli(["solve", "--model", str(paths[".model"]),
                         "--spec", str(paths[".gipsl"]), "--out", str(paths[".applied"]),
                         "--report", str(paths[".report"])])

    def collect(self, state, op, code, solves):
        _, paths = state["instances"][op]
        fp = {"instance": op, "exit": code}
        evidence = {}
        if code == 0:
            report = json.loads(paths[".report"].read_text())
            fp.update(status=report["status"], objective=report["objective"])
            evidence["applied"] = paths[".applied"].read_text()
            paths[".report"].unlink()
            paths[".applied"].unlink()
        if len(solves) == 1:
            fp.update(_solve_fields(*solves[0]))
        return [Outcome(fp, evidence)]

    def check(self, state, op, outcome):
        inst, _ = state["instances"][op]
        best = placement.best_cost(inst)
        fp = outcome.fingerprint
        expected_exit = 0 if best is not None else 2
        if fp["exit"] != expected_exit:
            return [f"exit code {fp['exit']}, enumeration expects {expected_exit}"]
        if best is None:
            return []
        if not highs.close(fp["objective"], best):
            return [f"objective {fp['objective']}, enumeration finds {best}"]
        return placement.check_applied(inst, outcome.evidence["applied"], best)


WORKLOADS = {w.name: w for w in (TwoLinks(), Desk(), FullscaleCompile(), Disjunctive())}
