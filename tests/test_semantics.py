"""A spec-semantics oracle for the whole encoder.

`Semantics` interprets a typed spec on a graph directly. A selection is a set
of (mapping, match) pairs. Under a selection, `mappings.M->filter(m | p)
->sum(m | b)` is the sum of `b` over the selected matches of M that pass `p`.
A selection is feasible iff every expanded constraint instance holds. Its
objective is the weighted sum of every objective instance, where a
mapping-context instance counts only when its match is selected.

The oracle enumerates every selection and compares feasibility and the
optimum, in both senses, with `solve(generate(...))`. It reuses the parser,
the typechecker, `find_matches` and `compile_expr`, and nothing of the
encoder's lowering (`_Lowerer`, `to_cnf`, `linearize`). Each mapping sum
becomes a name that the compiled body reads from its environment. The sum's
value per selection comes from evaluating its filter and body on every match
of its mapping.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest

from graphilp import (Graph, IlpProblem, ObjectiveFunc, find_matches, generate,
                      load_model, parse, solve, typecheck)
from graphilp.lang import ast as A
from graphilp.lang.eval import compile_expr
from graphilp.vne import Range, ScenarioConfig, generate_scenario, merge_graphs
from graphilp.vne_model import embedding_spec, two_links_model, two_links_spec

from conftest import TASK_DOC, TASK_SPEC, perfbench_placement

MAX_SLOTS = 12  # 4,096 selections


def _without_sums(e, sums: list):
    """`e` with each mapping sum replaced by the name `$k`, where `k` is the
    sum's index in `sums`, to which the sum is appended."""
    if isinstance(e, A.SetSum):
        sums.append(e)
        return A.Name(f"${len(sums) - 1}")
    changed = {f: _without_sums(getattr(e, f), sums) for f in e.__slots__
               if isinstance(getattr(e, f), A.Expr)}
    return dataclasses.replace(e, **changed) if changed else e


class Semantics:
    def __init__(self, spec, g):
        self.spec, self.g = spec, g
        self.matches = {}
        self.slots = [(m.name, match) for m in spec.mappings
                      for match in self._matches(m.rule)]
        self.slot_of = {slot: k for k, slot in enumerate(self.slots)}
        self.constraints = [self._instances(c) for c in spec.constraints]
        weights = spec.global_objective.weights
        self.objectives = [(weights[o.name], o, self._instances(o))
                           for o in spec.objectives if weights.get(o.name, 0)]

    def _matches(self, rule):
        if rule not in self.matches:
            self.matches[rule] = find_matches(self.g, self.spec.rules[rule].lhs)
        return self.matches[rule]

    def _contexts(self, decl):
        if decl.context_kind == "class":
            return list(self.g.nodes_of_type(decl.context_target))
        if decl.context_kind == "mapping":
            return self._matches(self.spec.mapping(decl.context_target).rule)
        return self._matches(decl.context_target)

    def _instances(self, decl):
        """(compiled body, [(self, coefficient matrix)]): the body with its sums
        as names, and per context element one row per sum, one column per
        slot."""
        sums = []
        body = compile_expr(_without_sums(decl.body, sums))
        parts = [(compile_expr(s.filter_pred) if s.filter_pred else None,
                  compile_expr(s.sum_body)) for s in sums]
        out = []
        for self_value in self._contexts(decl):
            coeffs = np.zeros((len(sums), len(self.slots)))
            for i, (s, (pred, term)) in enumerate(zip(sums, parts)):
                for k, (mapping, match) in enumerate(self.slots):
                    if mapping != s.mapping:
                        continue
                    if pred is not None and not pred(
                            {"self": self_value, s.filter_var: match}, self.g):
                        continue
                    coeffs[i, k] += term({"self": self_value, s.sum_var: match}, self.g)
            out.append((self_value, coeffs))
        return body, out

    def _values(self, body, self_value, sums):
        env = {"self": self_value}
        env.update((f"${i}", v) for i, v in enumerate(sums))
        return body(env, self.g)

    def evaluate(self, S):
        """For the selections that are the 0/1 rows of `S`: which are
        feasible, and the objective of each feasible one (NaN otherwise)."""
        feasible = np.ones(len(S), dtype=bool)
        for body, instances in self.constraints:
            for self_value, coeffs in instances:
                sums = (S @ coeffs.T).tolist()
                for i in feasible.nonzero()[0]:
                    holds = self._values(body, self_value, sums[i])
                    assert holds is True or holds is False
                    feasible[i] = holds
        value = np.full(len(S), float(self.spec.global_objective.constant))
        for weight, decl, (body, instances) in self.objectives:
            for self_value, coeffs in instances:
                if decl.context_kind == "mapping":
                    k = self.slot_of[(decl.context_target, self_value)]
                    value += weight * self._values(body, self_value, []) * S[:, k]
                    continue
                sums = (S @ coeffs.T).tolist()
                for i in feasible.nonzero()[0]:
                    value[i] += weight * self._values(body, self_value, sums[i])
        value[~feasible] = np.nan
        return feasible, value

    def selection(self, table, assignment):
        """The selection a solution of `generate`'s program makes."""
        S = np.zeros((1, len(self.slots)))
        for vid, v in assignment.items():
            if vid in table and v == 1:
                S[0, self.slot_of[table.match_of(vid)]] = 1
        return S


def _flipped(problem):
    obj = problem.objective
    sense = "max" if obj.sense == "min" else "min"
    return IlpProblem(problem.variables, problem.constraints,
                      ObjectiveFunc(sense, dict(obj.terms), obj.constant))


def assert_program_means_spec(spec, g):
    oracle = Semantics(spec, g)
    n = len(oracle.slots)
    assert 0 < n <= MAX_SLOTS
    feasible, value = oracle.evaluate(
        np.array(list(itertools.product((0, 1), repeat=n)), dtype=float))
    problem, table = generate(spec, g)
    for p in (problem, _flipped(problem)):
        sol = solve(p)
        if not feasible.any():
            assert sol.status == "infeasible"
            continue
        assert sol.status == "optimal"
        best = np.nanmin(value) if p.objective.sense == "min" else np.nanmax(value)
        assert sol.objective_value == pytest.approx(best, rel=1e-9, abs=1e-9)
        ok, got = oracle.evaluate(oracle.selection(table, sol.assignment))
        assert ok[0] and got[0] == pytest.approx(best, rel=1e-9, abs=1e-9)
    return feasible


def test_task_spec_means_what_it_says(task_model, task_spec):
    _, g = task_model
    assert_program_means_spec(task_spec, g)


def test_two_links_means_what_it_says():
    _, g = two_links_model()
    assert_program_means_spec(two_links_spec(), g)


def test_vne_embedding_spec_means_what_it_says():
    # the shipped VNE spec on two substrate servers, one of them busier, and a
    # one-link request: 8 mapping variables. It exercises the
    # `mapping::lnk2lnk` context, whose rows key matches by `m == self`, and
    # the real-valued `srvObj` (resCpu / cpu: 1 and 0.625)
    cfg = ScenarioConfig(racks=1, servers_per_rack=2, core_switches=1, vnr_count=1,
                         vnr_servers=Range(1, 1))
    substrate, [request] = generate_scenario(cfg)
    nodes = [dataclasses.replace(n, attrs={**n.attrs, "resCpu": 20}) if n.id == "srv_0_1"
             else n for n in substrate.nodes.values()]
    substrate = Graph(substrate.mm, nodes, list(substrate.edges.values()))
    feasible = assert_program_means_spec(embedding_spec(), merge_graphs(substrate, request))
    assert 0 < feasible.sum() < len(feasible)


def test_disjunctive_placements_mean_what_they_say(monkeypatch):
    placement = perfbench_placement(monkeypatch)
    rng = random.Random(1)
    for _ in range(3):
        mm, g = load_model(placement.model_text(placement.make_instance(rng)))
        feasible = assert_program_means_spec(typecheck(parse(placement.spec_text()), mm), g)
        assert 0 < feasible.sum() < len(feasible)


def test_infeasible_task_spec_means_what_it_says():
    # s1 holds only t1 and s2 neither task, so t2 cannot be placed
    mm, g = load_model(TASK_DOC.replace("resCpu: 5", "resCpu: 3")
                       .replace("cpu: 32  resCpu: 10", "cpu: 32  resCpu: 4"))
    spec = typecheck(parse(TASK_SPEC), mm)
    assert not assert_program_means_spec(spec, g).any()


def test_negated_atom_means_what_it_says():
    # a used server must carry at least 5 cpu. On s1, which carries both
    # tasks, the negated literal `!(... >= 1)` is false and the other one
    # holds, so the lower indicator row must let the atom's indicator be 1;
    # t1 alone on s2 (4 cpu) breaks the clause
    mm, g = load_model(TASK_DOC.replace("cpu: 32  resCpu: 10", "cpu: 32  resCpu: 12"))
    spec = typecheck(parse(TASK_SPEC + """
constraint -> class::Server {
  !(mappings.put->filter(m | m.nodes().s == self)->sum(m | 1) >= 1)
  | mappings.put->filter(m | m.nodes().s == self)->sum(m | m.nodes().t.cpu) >= 5
}
"""), mm)
    feasible = assert_program_means_spec(spec, g)
    assert 0 < feasible.sum() < len(feasible)


# --- seeded random Boolean bodies --------------------------------------------------

BODY_DOC = """
nodetypes {
  nodetype { name: Server  attrs { cpu: int } }
  nodetype { name: Task  attrs { cpu: int  w: real } }
}
nodes {
  node { id: s1  type: Server  attrs { cpu: 32 } }
  node { id: s2  type: Server  attrs { cpu: 16 } }
  node { id: t1  type: Task  attrs { cpu: 4  w: 0.5 } }
  node { id: t2  type: Task  attrs { cpu: 7  w: 1.25 } }
  node { id: t3  type: Task  attrs { cpu: 2  w: -0.75 } }
}
"""

BODY_SPEC = """
rule place { nodes { t: Task  s: Server } }
mapping put with place;
constraint -> class::Server { BODY }
objective o -> mapping::put { self.nodes().t.w - self.nodes().s.cpu / 16 }
global objective : min { o }
"""

# each sum with right-hand sides near its values; the last one's filter never
# holds, so a relation over it alone is a constant
BODY_SUMS = (("mappings.put->sum(m | 1)", (0, 1, 2, 4)),
             ("mappings.put->filter(m | m.nodes().s == self)->sum(m | m.nodes().t.cpu)",
              (0, 4, 7, 11)),
             ("mappings.put->filter(m | m.nodes().t.cpu >= 4)->sum(m | m.nodes().t.w)",
              (0, 0.5, 1.25, 1.75)),
             ("mappings.put->filter(m | m.nodes().t.cpu >= 99)->sum(m | 1)", (-1, 0, 1)))
RELATIONS = ("==", "!=", "<", "<=", ">=", ">")


def random_body(rng, depth=0) -> str:
    """A constraint body of `&`, `|` and `!` nested up to three deep over
    relations between sums and numbers, and sum-free leaves."""
    roll = rng.random()
    if depth < 3 and roll < 0.55:
        if roll < 0.15:
            return f"!({random_body(rng, depth + 1)})"
        op = "&" if roll < 0.35 else "|"
        return f"({random_body(rng, depth + 1)}) {op} ({random_body(rng, depth + 1)})"
    if roll > 0.9:
        return rng.choice(("true", "false", "self.cpu >= 32"))
    left, bounds = rng.choice(BODY_SUMS)
    if rng.random() < 0.2:
        left = f"{left} - {rng.choice(BODY_SUMS)[0]}"
    return f"{left} {rng.choice(RELATIONS)} {rng.choice(bounds)}"


def test_random_boolean_bodies_mean_what_they_say():
    rng = random.Random(25)
    mm, g = load_model(BODY_DOC)
    bodies = [random_body(rng) for _ in range(150)]
    for body in bodies:
        spec = typecheck(parse(BODY_SPEC.replace("BODY", body)), mm)
        try:
            assert_program_means_spec(spec, g)
        except AssertionError as exc:
            raise AssertionError(f"body: {body}") from exc
    text = " ".join(bodies)
    assert all(f" {op} " in text for op in RELATIONS + ("&", "|"))
    assert all(leaf in text for leaf in ("!(", "true", "false", "self.cpu", ">= 99"))
