"""Per-layer tracing from outside the program.

graphilp's modules bind the functions they call at import time
(`from .solve import solve`), so a wrapper has to replace the name in the
namespace of the module that calls it: `graphilp.vne.solve`,
`graphilp.cli.generate`, `graphilp.encode.to_cnf`, and so on. The harness
itself calls the program through module attributes (`vne.embed_incremental`,
`encode.generate`, ...) so that its own calls are wrapped the same way.

Each wrapped call records a span (name, start, end, parent) in process CPU
time while `Tracer.timed` is set; spans stay in memory until the run ends. The calls
into `solve` are always recorded, traced or not, because the workloads' oracles
and fingerprints need the program and the solution (no timing is taken for
that).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter

# (module whose namespace holds the name, attribute, span name)
WRAPPED = [
    ("graphilp.cli", "main", "cli.main"),
    ("graphilp.cli", "load_model", "model.load_model"),
    ("graphilp.cli", "parse", "lang.parse"),
    ("graphilp.cli", "typecheck", "lang.typecheck"),
    ("graphilp.cli", "generate", "encode.generate"),
    ("graphilp.cli", "solve", "solve.solve"),
    ("graphilp.cli", "apply_rule", "pattern.apply_rule"),
    ("graphilp.cli", "apply_delta", "model.apply_delta"),
    ("graphilp.cli", "serialize_model", "model.serialize"),
    ("graphilp.cli", "export_lp", "lpformat.export"),
    ("graphilp.vne", "generate_scenario", "vne.scenario"),
    ("graphilp.vne", "merge_graphs", "vne.merge"),
    ("graphilp.vne", "embed_incremental", "vne.embed"),
    ("graphilp.vne", "verify_embedding", "vne.verify"),
    ("graphilp.vne", "generate", "encode.generate"),
    ("graphilp.vne", "solve", "solve.solve"),
    ("graphilp.vne", "apply_rule", "pattern.apply_rule"),
    ("graphilp.vne", "apply_delta", "model.apply_delta"),
    ("graphilp.vne_model", "parse", "lang.parse"),
    ("graphilp.vne_model", "typecheck", "lang.typecheck"),
    ("graphilp.encode", "generate", "encode.generate"),
    ("graphilp.encode", "find_matches", "pattern.find_matches"),
    ("graphilp.encode", "to_cnf", "encode.to_cnf"),
    ("graphilp.encode", "linearize", "encode.linearize"),
    ("graphilp.encode", "build_objective", "encode.objective"),
    ("graphilp.lpformat", "export_lp", "lpformat.export"),
    ("graphilp.lpformat", "import_lp", "lpformat.import"),
    ("graphilp.solve", "lp_relaxation", "solve.lp_relaxation"),
]


class Tracer:
    def __init__(self):
        self.timed = False
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self.max_big_m = 0.0
        self.root_gaps: list[float] = []
        self.solves: list[tuple] = []  # (problem, solution) since the last take
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self):
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, span))
            self._undo.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _wrap(self, fn, span):
        # the counter hook for span "a.b", if any, is the method _after_a_b
        after = getattr(self, "_after_" + span.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.timed:
                result = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else None
                record = [span, time.process_time(), None, parent]
                self.spans.append(record)
                self._stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = time.process_time()
                    self._stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def take_solves(self) -> list[tuple]:
        """The (problem, solution) pairs recorded since the previous call."""
        solves, self.solves = self.solves, []
        return solves

    # -- counters taken at the layer boundaries -------------------------------

    def _after_solve_solve(self, args, sol):
        self.solves.append((args[0], sol))
        if not self.timed:
            return
        self.counts["solve.nodes"] += sol.stats.get("nodes", 0)
        self.counts["solve.timeouts"] += sol.status == "timeout"
        root = sol.stats.get("root_relaxation")
        if sol.status == "optimal" and root is not None:
            opt = sol.objective_value
            self.root_gaps.append(abs(opt - root) / max(1.0, abs(opt)))

    def _after_encode_generate(self, args, result):
        if not self.timed:
            return
        problem = result[0]
        self.counts["encode.vars"] += len(problem.variables)
        self.counts["encode.aux_vars"] += sum(
            1 for v in problem.variables if v.kind == "auxiliary-binary")
        self.counts["encode.rows"] += len(problem.constraints)
        self.counts["encode.nonzeros"] += sum(len(r.coeffs) for r in problem.constraints)

    def _after_encode_to_cnf(self, args, cnf):
        if self.timed:
            self.counts["encode.clauses"] += len(cnf.clauses)

    def _after_encode_linearize(self, args, result):
        if not self.timed:
            return
        rows, aux = result
        aux_ids = {v.id for v in aux}
        for row in rows:
            for vid, coeff in row.coeffs.items():
                if vid in aux_ids:  # indicator rows carry the big-M on the aux var
                    self.max_big_m = max(self.max_big_m, abs(coeff))

    def _after_pattern_find_matches(self, args, matches):
        if self.timed:
            self.counts["pattern.matches"] += len(matches)

    def _after_pattern_apply_rule(self, args, delta):
        if self.timed:
            self.counts["pattern.apply_rule_calls"] += 1

    def _after_lpformat_export(self, args, text):
        if self.timed:
            self.counts["lpformat.bytes"] += len(text.encode("utf-8"))

    def _after_cli_main(self, args, code):
        if self.timed:
            self.counts["cli.exit_nonzero"] += code != 0

    # -- aggregation ----------------------------------------------------------

    def _totals(self):
        total: Counter = Counter()
        children: Counter = Counter()  # time of each span's timed children
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent is not None:
                children[parent] += end - start
        self_time: Counter = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - children[index]
        return total, self_time

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric; a layer the run never reached reads 0."""
        total, self_time = self._totals()
        solve_s = total["solve.solve"]
        nodes = self.counts["solve.nodes"]
        return {
            "solve.solve_s": solve_s,
            "solve.nodes": nodes,
            "solve.ms_per_node": 1000.0 * solve_s / nodes if nodes else 0.0,
            "solve.root_gap": statistics.fmean(self.root_gaps) if self.root_gaps else 0.0,
            "solve.lp_relaxation_s": total["solve.lp_relaxation"],
            "solve.timeouts": self.counts["solve.timeouts"],
            "encode.generate_s": total["encode.generate"],
            "encode.lower_s": self_time["encode.generate"],
            "encode.to_cnf_s": total["encode.to_cnf"],
            "encode.linearize_s": total["encode.linearize"],
            "encode.objective_s": total["encode.objective"],
            "encode.vars": self.counts["encode.vars"],
            "encode.aux_vars": self.counts["encode.aux_vars"],
            "encode.rows": self.counts["encode.rows"],
            "encode.nonzeros": self.counts["encode.nonzeros"],
            "encode.clauses": self.counts["encode.clauses"],
            "encode.max_big_m": self.max_big_m,
            "pattern.find_matches_s": total["pattern.find_matches"],
            "pattern.matches": self.counts["pattern.matches"],
            "pattern.apply_rule_s": total["pattern.apply_rule"],
            "pattern.apply_rule_calls": self.counts["pattern.apply_rule_calls"],
            "model.apply_delta_s": total["model.apply_delta"],
            "model.load_model_s": total["model.load_model"],
            "model.serialize_s": total["model.serialize"],
            "lang.parse_s": total["lang.parse"],
            "lang.typecheck_s": total["lang.typecheck"],
            "lpformat.export_s": total["lpformat.export"],
            "lpformat.import_s": total["lpformat.import"],
            "lpformat.bytes": self.counts["lpformat.bytes"],
            "vne.merge_s": total["vne.merge"],
            "vne.embed_self_s": self_time["vne.embed"],
            "vne.verify_s": total["vne.verify"],
            "vne.scenario_s": total["vne.scenario"],
            "cli.main_s": total["cli.main"],
            "cli.exit_nonzero": self.counts["cli.exit_nonzero"],
        }
