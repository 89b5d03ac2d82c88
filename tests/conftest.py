"""Shared fixtures: a small task-placement domain, random graph/pattern
generators with a brute-force matching oracle, and random 0/1 problems."""

from __future__ import annotations

import importlib.util
import itertools
import pathlib
import random
import sys
from collections import Counter

import numpy as np
import pytest

from graphilp import (Edge, Graph, IlpProblem, Metamodel, Node, ObjectiveFunc,
                      Row, Variable, load_model)
from graphilp.lang.eval import compile_expr
from graphilp.lang.parser import parse
from graphilp.lang.typecheck import typecheck
from graphilp.pattern import Pattern, PatternEdge, PatternNode

TASK_DOC = """
nodetypes {
  nodetype { name: Element }
  nodetype { name: Server  supertype: Element  attrs { cpu: int  resCpu: int } }
  nodetype { name: Task  supertype: Element  attrs { cpu: int  placed: bool } }
}
edgetypes {
  edgetype { name: host  src: Task  tgt: Server }
  edgetype { name: wire  src: Element  tgt: Element }
}
nodes {
  node { id: s1  type: Server  attrs { cpu: 32  resCpu: 10 } }
  node { id: s2  type: Server  attrs { cpu: 32  resCpu: 5 } }
  node { id: t1  type: Task  attrs { cpu: 4  placed: false } }
  node { id: t2  type: Task  attrs { cpu: 7  placed: false } }
}
"""

TASK_SPEC = """
rule place {
  nodes { t: Task  s: Server }
  condition { !t.placed & s.resCpu >= t.cpu }
  actions {
    create edge host(t -> s)
    set s.resCpu := s.resCpu - t.cpu
    set t.placed := true
  }
}
mapping put with place;
constraint -> class::Server {
  mappings.put->filter(m | m.nodes().s == self)->sum(m | m.nodes().t.cpu) <= self.resCpu
}
constraint -> class::Task {
  self.placed | mappings.put->filter(m | m.nodes().t == self)->sum(m | 1) == 1
}
objective packObj -> mapping::put { self.nodes().s.resCpu / self.nodes().s.cpu }
global objective : min { packObj }
"""


@pytest.fixture
def task_model():
    return load_model(TASK_DOC)


@pytest.fixture
def task_spec(task_model):
    mm, _ = task_model
    return typecheck(parse(TASK_SPEC), mm)


def perfbench_placement(monkeypatch):
    """The `disjunctive` workload's instance generator, perfbench/placement.py,
    loaded read-only."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "placement.py"
    spec = importlib.util.spec_from_file_location("perfbench_placement", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


# --- random typed graphs + matching oracle ------------------------------------

MATCH_DOC = """
nodetypes {
  nodetype { name: T0  attrs { x: int } }
  nodetype { name: T1  supertype: T0  attrs { y: int } }
  nodetype { name: T2  attrs { z: int } }
}
edgetypes {
  edgetype { name: a  src: T0  tgt: T0 }
  edgetype { name: b  src: T0  tgt: T2 }
}
"""


@pytest.fixture(scope="session")
def match_mm() -> Metamodel:
    from graphilp import load_metamodel
    return load_metamodel(MATCH_DOC)


def random_graph(rng: random.Random, mm: Metamodel, max_nodes: int = 8) -> Graph:
    n = rng.randint(0, max_nodes)
    nodes = []
    for i in range(n):
        t = rng.choice(["T0", "T1", "T2"])
        attrs = {"x": rng.randint(0, 9)} if t == "T0" else \
            {"x": rng.randint(0, 9), "y": rng.randint(0, 9)} if t == "T1" else \
            {"z": rng.randint(0, 9)}
        nodes.append(Node(f"n{i}", t, attrs))
    edges = []
    eid = 0
    for src in nodes:
        for tgt in nodes:
            if rng.random() < 0.25:
                if mm.conforms(src.type, "T0") and mm.conforms(tgt.type, "T0"):
                    edges.append(Edge(f"e{eid}", "a", src.id, tgt.id))
                    eid += 1
                elif mm.conforms(src.type, "T0") and tgt.type == "T2":
                    edges.append(Edge(f"e{eid}", "b", src.id, tgt.id))
                    eid += 1
    return Graph(mm, nodes, edges)


def random_pattern(rng: random.Random, mm: Metamodel, max_nodes: int = 3) -> Pattern:
    from graphilp.lang.parser import parse_expression
    k = rng.randint(1, max_nodes)
    pnodes = [PatternNode(f"p{i}", rng.choice(["T0", "T1", "T2"])) for i in range(k)]
    pedges = []
    eid = 0
    for s in pnodes:
        for t in pnodes:
            if s.name == t.name or rng.random() > 0.3:
                continue
            s_t0 = s.type in ("T0", "T1")
            if s_t0 and t.type in ("T0", "T1"):
                pedges.append(PatternEdge(f"q{eid}", "a", s.name, t.name))
                eid += 1
            elif s_t0 and t.type == "T2":
                pedges.append(PatternEdge(f"q{eid}", "b", s.name, t.name))
                eid += 1
    condition = None
    attr_of = {"T0": "x", "T1": "x", "T2": "z"}
    if rng.random() < 0.6:
        pn = rng.choice(pnodes)
        if rng.random() < 0.5 and k >= 2:
            other = rng.choice([p for p in pnodes if p.name != pn.name])
            condition = parse_expression(
                f"{pn.name}.{attr_of[pn.type]} <= {other.name}.{attr_of[other.type]}")
        else:
            condition = parse_expression(
                f"{pn.name}.{attr_of[pn.type]} >= {rng.randint(0, 9)}")
    return Pattern(f"rp{rng.randint(0, 999)}", tuple(pnodes), tuple(pedges), condition)


def realizes(realized: Counter, p: Pattern, binding: dict) -> bool:
    """Whether `realized`, a graph's edge count by (type, src, tgt), holds as
    many edges as `p` has between every two nodes bound in `binding`."""
    need = Counter((pe.type, binding[pe.src], binding[pe.tgt]) for pe in p.edges
                   if pe.src in binding and pe.tgt in binding)
    return all(realized[key] >= k for key, k in need.items())


def brute_matches(g: Graph, p: Pattern) -> set:
    """Oracle: enumerate every injective typed binding, filter edges (k
    parallel pattern edges need k graph edges) + condition."""
    names = [n.name for n in p.nodes]
    condition = None if p.condition is None else compile_expr(p.condition)
    realized = Counter((e.type, e.src, e.tgt) for e in g.edges.values())
    out = set()
    for combo in itertools.permutations(sorted(g.nodes), len(names)):
        binding = dict(zip(names, combo))
        ok = all(g.mm.conforms(g.nodes[binding[pn.name]].type, pn.type)
                 for pn in p.nodes)
        if not ok:
            continue
        if not realizes(realized, p, binding):
            continue
        if condition is not None:
            env = {name: g.nodes[gid] for name, gid in binding.items()}
            if not condition(env, g):
                continue
        out.add(tuple(sorted(binding.items())))
    return out


# --- random 0/1 problems --------------------------------------------------------

def random_problem(rng: random.Random, max_vars: int = 12, max_rows: int = 15,
                   min_vars: int = 1, max_row_vars: int | None = None) -> IlpProblem:
    """A random 0/1 program; each row has up to `max_row_vars` (default: every)
    variable."""
    n = rng.randint(min_vars, max_vars)
    m = rng.randint(0, max_rows)
    variables = [Variable(f"x{i}") for i in range(n)]
    rows = []
    for _ in range(m):
        picked = rng.sample(range(n), rng.randint(1, min(n, max_row_vars or n)))
        coeffs = {f"x{i}": rng.randint(-10, 10) for i in picked}
        rel = rng.choice(["<=", "<=", "<=", ">=", "="])
        rows.append(Row(coeffs, rel, rng.randint(-8, 12)))
    sense = rng.choice(["min", "max"])
    obj = ObjectiveFunc(sense, {f"x{i}": rng.randint(-10, 10) for i in range(n)},
                        rng.randint(-5, 5))
    return IlpProblem(variables, rows, obj)


def row_check(rows: list[Row], ids: list[str]):
    """A function from points (the rows of an array, one column per id of
    `ids`) to whether each satisfies every row of `rows` to within 1e-9: a
    dense check that uses nothing of `graphilp.solve`."""
    idx = {vid: j for j, vid in enumerate(ids)}
    A = np.zeros((len(rows), len(ids)))
    for i, row in enumerate(rows):
        for vid, c in row.coeffs.items():
            A[i, idx[vid]] = c
    b = np.array([row.rhs for row in rows], dtype=float)
    rel = np.array([row.rel for row in rows], dtype=str)

    def holds(X: np.ndarray) -> np.ndarray:
        lhs = X @ A.T
        return np.where(rel == "<=", lhs <= b + 1e-9,
                        np.where(rel == ">=", lhs >= b - 1e-9,
                                 np.abs(lhs - b) <= 1e-9)).all(axis=1)
    return holds


def highs_optimum(p: IlpProblem, relaxed: bool = False, lb=0.0, ub=1.0):
    """HiGHS, through scipy, as an oracle independent of graphilp's solver:
    `scipy.optimize.milp` on the 0/1 program, or with `relaxed`, `linprog` on
    its LP relaxation with column bounds `lb` and `ub`. Returns ('optimal',
    value in the program's own sense) or ('infeasible', None); skips the
    calling test when scipy is missing."""
    optimize = pytest.importorskip("scipy.optimize")
    ids = [v.id for v in p.variables]
    sign = 1.0 if p.objective.sense == "min" else -1.0
    c = np.array([sign * p.objective.terms.get(v, 0) for v in ids], dtype=float)
    A = np.array([[row.coeffs.get(v, 0) for v in ids] for row in p.constraints],
                 dtype=float).reshape(len(p.constraints), len(ids))
    rhs = np.array([row.rhs for row in p.constraints], dtype=float)
    rel = np.array([row.rel for row in p.constraints], dtype=str)
    bounds = np.broadcast_to(np.array([lb, ub], dtype=float).T, (len(ids), 2))
    if relaxed:
        le, ge, eq = rel == "<=", rel == ">=", rel == "="
        A_ub = np.vstack([A[le], -A[ge]])
        b_ub = np.concatenate([rhs[le], -rhs[ge]])
        res = optimize.linprog(c, A_ub=A_ub if len(b_ub) else None,
                               b_ub=b_ub if len(b_ub) else None,
                               A_eq=A[eq] if eq.any() else None,
                               b_eq=rhs[eq] if eq.any() else None,
                               bounds=bounds, method="highs")
    else:
        rows = [optimize.LinearConstraint(A, np.where(rel == "<=", -np.inf, rhs),
                                          np.where(rel == ">=", np.inf, rhs))]
        res = optimize.milp(c, constraints=rows if len(rhs) else [],
                            integrality=np.ones(len(ids)),
                            bounds=optimize.Bounds(bounds[:, 0], bounds[:, 1]),
                            # with presolve, HiGHS (scipy 1.17) ends some small
                            # infeasible programs in "Solve error"
                            options={"mip_rel_gap": 0.0, "presolve": False})
    assert res.status in (0, 2), res.message
    if res.status == 2:
        return "infeasible", None
    return "optimal", sign * res.fun + p.objective.constant
