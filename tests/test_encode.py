import dataclasses
import itertools
import pathlib
import random
import re

import numpy as np
import pytest

import graphilp.encode as encode_mod
from graphilp import (Edge, Graph, Node, StaleMatchError, apply_solution, dump_problem,
                      find_matches, full_scale_config, generate, generate_scenario,
                      load_graph, load_model, parse, parse_scenario_config,
                      typecheck)
from graphilp.encode import (AUX_BINARY, BINARY, Atom, GenerationError,
                             LinearTerm, Literal, MappingTable, Row, _Alloc, _negate,
                             build_objective, collect_matches, expand_contexts,
                             instantiate_mappings, linearize, lower_sets, to_cnf)
from graphilp.lang.eval import NodeRef
from graphilp.lang.parser import parse_expression
from graphilp.lang.typecheck import TypedConstraint
from graphilp.vne import merge_graphs
from graphilp.vne_model import (TWO_LINKS_MODEL, TWO_LINKS_SPEC, VNE_SCHEMA, two_links_model,
                                two_links_spec, vne_metamodel, embedding_spec)

from conftest import TASK_DOC, TASK_SPEC


@pytest.fixture
def task_problem(task_model, task_spec):
    _, g = task_model
    return generate(task_spec, g)


# --- instantiate_mappings ---------------------------------------------------------

def test_two_matches_give_two_variables_two_links():
    _, g = two_links_model()
    spec = two_links_spec()
    matches = collect_matches(spec, g)
    variables, table = instantiate_mappings(spec, matches)
    assert [v.id for v in variables] == ["m_lnk2lnk_0", "m_lnk2lnk_1"]
    assert all(v.kind == BINARY for v in variables)
    assert table.match_of("m_lnk2lnk_0")[1].binding["sl"] == "sl1"
    assert table.match_of("m_lnk2lnk_1")[1].binding["sl"] == "sl2"


def test_zero_matches_give_zero_variables():
    mm = vne_metamodel()
    spec = two_links_spec()
    empty = Graph(mm, [], [])
    variables, table = instantiate_mappings(spec, collect_matches(spec, empty))
    assert variables == [] and not table.items()


def test_variable_count_is_sum_over_mappings(task_model):
    mm, _ = task_model
    doc = """
    nodes {
      node { id: s1  type: Server  attrs { cpu: 8  resCpu: 8 } }
      node { id: s2  type: Server  attrs { cpu: 8  resCpu: 8 } }
      node { id: s3  type: Server  attrs { cpu: 8  resCpu: 9 } }
      node { id: t1  type: Task  attrs { cpu: 1  placed: false } }
      node { id: t2  type: Task  attrs { cpu: 3  placed: false } }
    }
    """
    from graphilp import load_graph
    g = load_graph(doc, mm)
    # two mappings over rules with 3 and 4 matches -> 7 variables
    spec = typecheck(parse("""
rule one_server { nodes { s: Server } }
rule pairs {
  nodes { t: Task  s: Server }
  condition { s.resCpu >= t.cpu + 6 }
}
mapping singles with one_server;
mapping wide with pairs;
global objective : min { 0 }
"""), mm)
    matches = collect_matches(spec, g)
    assert len(matches["one_server"]) == 3
    assert len(matches["pairs"]) == 4  # t1 fits 3 servers; t2 (3+6=9) only s3
    variables, table = instantiate_mappings(spec, matches)
    assert len(variables) == len(matches["one_server"]) + len(matches["pairs"])
    assert len(table.items()) == len(variables)
    # bijection: inverse lookups agree
    for vid, (mapping, match) in table.items():
        assert table.var_of(mapping, match) == vid


# --- expand_contexts ---------------------------------------------------------------

def test_class_context_expands_per_element_including_subtypes():
    mm = vne_metamodel()
    nodes = [Node(f"srv{i}", "SubstrateServer",
                  {"cpu": 32, "resCpu": 32, "mem": 1, "resMem": 1,
                   "storage": 1, "resStorage": 1}) for i in range(80)]
    g = Graph(mm, nodes, [])
    spec = embedding_spec()
    cons = next(c for c in spec.constraints
                if c.context_kind == "class" and c.context_target == "SubstrateServer")
    instances = expand_contexts(cons, g, {}, spec)
    assert len(instances) == 80
    assert all(isinstance(v, NodeRef) for v, _ in instances)


def test_class_context_with_zero_instances_is_empty():
    mm = vne_metamodel()
    spec = embedding_spec()
    cons = spec.constraints[0]
    assert expand_contexts(cons, Graph(mm, [], []), {}, spec) == []


def test_mapping_context_expands_per_match(task_model, task_spec):
    _, g = task_model
    matches = collect_matches(task_spec, g)
    obj = task_spec.objectives[0]
    instances = expand_contexts(obj, g, matches, task_spec)
    assert len(instances) == len(matches["place"]) == 3


def test_class_context_includes_subtypes(task_model, task_spec):
    # Element is the supertype of both Server and Task
    _, g = task_model
    spec = typecheck(parse(TASK_SPEC.replace(
        "constraint -> class::Task {",
        "constraint -> class::Element { true }\nconstraint -> class::Task {")), g.mm)
    cons = next(c for c in spec.constraints if c.context_target == "Element")
    instances = expand_contexts(cons, g, {}, spec)
    assert len(instances) == len(g.nodes) == 4


def test_pattern_context_constraint_forces_every_match(task_model):
    # a pattern context instantiates one row per match of the rule's LHS and
    # binds self to that match; here every candidate placement is forced on
    mm, g = task_model
    spec = typecheck(parse("""
rule place {
  nodes { t: Task  s: Server }
  condition { !t.placed & s.resCpu >= t.cpu }
}
mapping put with place;
constraint -> class::Server {
  mappings.put->filter(m | m.nodes().s == self)->sum(m | m.nodes().t.cpu) <= self.resCpu
}
constraint -> pattern::place {
  mappings.put->filter(m | m == self)->sum(m | 1) == 1
}
global objective : min { 0 }
"""), mm)
    problem, table = generate(spec, g)
    forced = [r for r in problem.constraints
              if r.rel == "=" and r.rhs == 1 and len(r.coeffs) == 1]
    assert len(forced) == 3  # one per match
    assert {next(iter(r.coeffs)) for r in forced} == \
        {"m_put_0", "m_put_1", "m_put_2"}
    from graphilp import solve
    # forcing all three placements overloads server capacity: infeasible
    assert solve(problem).status == "infeasible"


def test_pattern_context_objective_contributes_constants(task_model):
    mm, g = task_model
    spec = typecheck(parse(TASK_SPEC.replace(
        "objective packObj -> mapping::put { self.nodes().s.resCpu / self.nodes().s.cpu }",
        "objective packObj -> pattern::place { self.nodes().t.cpu }")), mm)
    assert any("constant" in str(w) for w in spec.warnings)
    problem, _ = generate(spec, g)
    assert problem.objective.terms == {}
    # matches: (t1,s1)+(t1,s2) demand 4 each, (t2,s1) demand 7
    assert problem.objective.constant == 4 + 4 + 7


# --- lower_sets ----------------------------------------------------------------------

def test_capacity_sum_lowering_by_hand(task_model, task_spec):
    # one server, two placeable tasks with demands 4 and 7:
    # the lowered body must be 4*x_a + 7*x_b <= resCpu
    _, g = task_model
    matches = collect_matches(task_spec, g)
    variables, table = instantiate_mappings(task_spec, matches)
    cons = task_spec.constraints[0]
    lowered = lower_sets(cons.body, NodeRef("s1"), task_spec, g, table, matches)
    assert isinstance(lowered, Literal)
    atom = lowered.atom
    assert atom.op == "<="
    on_s1 = {table.var_of("put", m): g.attr(m.binding["t"], "cpu")
             for m in matches["place"] if m.binding["s"] == "s1"}
    assert atom.term.coeffs == on_s1
    assert atom.term.constant == -g.attr("s1", "resCpu")
    assert sorted(atom.term.coeffs.values()) == [4, 7]


def test_filter_eliminating_all_matches_gives_constant(task_model, task_spec):
    _, g = task_model
    matches = collect_matches(task_spec, g)
    _, table = instantiate_mappings(task_spec, matches)
    from graphilp.lang.parser import parse_expression
    body = parse_expression(
        "mappings.put->filter(m | m.nodes().t.cpu >= 99)->sum(m | 1) <= 0")
    lowered = lower_sets(body, NodeRef("s1"), task_spec, g, table, matches)
    assert lowered == ("const", True)


def test_two_links_capacity_rows_match_bandwidth_coefficients():
    _, g = two_links_model()
    spec = two_links_spec()
    problem, table = generate(spec, g)
    caps = [r for r in problem.constraints if r.rel == "<="]
    assert len(caps) == 2
    assert caps[0].coeffs == {"m_lnk2lnk_0": 100} and caps[0].rhs == 1000
    assert caps[1].coeffs == {"m_lnk2lnk_1": 100} and caps[1].rhs == 500


# --- to_cnf ----------------------------------------------------------------------------

def atom(alloc, op="<=", coeffs=None, const=0):
    return alloc.atom(op, LinearTerm(coeffs or {"x": 1}, const))


def test_conjunction_of_relations_gives_singleton_clauses():
    alloc = _Alloc()
    a, b = Literal(atom(alloc)), Literal(atom(alloc, ">=", {"y": 1}))
    cnf = to_cnf(("and", a, b))
    assert [len(c) for c in cnf.clauses] == [1, 1]


def test_true_gives_empty_cnf():
    assert to_cnf(("const", True)).clauses == ()


def test_false_gives_empty_clause():
    assert to_cnf(("const", False)).clauses == ((),)


def truth_table(node, atoms):
    rows = {}
    for values in itertools.product([False, True], repeat=len(atoms)):
        env = dict(zip([a.index for a in atoms], values))
        def ev(n):
            if isinstance(n, Literal):
                v = env[n.atom.index]
                return v if n.positive else not v
            if n[0] == "const":
                return n[1]
            _, x, y = n
            return (ev(x) and ev(y)) if n[0] == "and" else (ev(x) or ev(y))
        rows[values] = ev(node)
    return rows


def cnf_truth(cnf, atoms):
    rows = {}
    for values in itertools.product([False, True], repeat=len(atoms)):
        env = dict(zip([a.index for a in atoms], values))
        ok = all(any(env[l.atom.index] == l.positive for l in clause)
                 for clause in cnf.clauses)
        rows[values] = ok
    return rows


def test_demorgan_example_against_truth_table():
    alloc = _Alloc()
    p, q, r = (atom(alloc, coeffs={n: 1}) for n in "pqr")
    node = ("and", _negate(("or", Literal(p), Literal(q))), Literal(r))
    cnf = to_cnf(node)
    lits = {tuple((l.atom.index, l.positive) for l in c) for c in cnf.clauses}
    assert lits == {((p.index, False),), ((q.index, False),), ((r.index, True),)}
    assert truth_table(node, [p, q, r]) == cnf_truth(cnf, [p, q, r])


def test_cnf_equivalence_on_random_trees():
    rng = random.Random(31)
    for _ in range(200):
        alloc = _Alloc()
        atoms = [atom(alloc, coeffs={f"v{i}": 1}) for i in range(rng.randint(1, 5))]
        def tree(depth):
            if depth > 3 or rng.random() < 0.35:
                return Literal(rng.choice(atoms), positive=rng.random() < 0.7)
            roll = rng.random()
            if roll < 0.25:
                return _negate(tree(depth + 1))
            return ("and" if roll < 0.6 else "or", tree(depth + 1), tree(depth + 1))
        node = tree(0)
        cnf = to_cnf(node)
        assert truth_table(node, atoms) == cnf_truth(cnf, atoms)


# --- linearize ----------------------------------------------------------------------

def rows_feasible(rows, aux, assignment):
    """Exists an auxiliary assignment satisfying all rows under `assignment`."""
    names = sorted({v for r in rows for v in r.coeffs} - set(assignment))
    assert set(names) == {v.id for v in aux} & set(names)
    for bits in itertools.product([0, 1], repeat=len(names)):
        env = dict(assignment)
        env.update(zip(names, bits))
        ok = True
        for r in rows:
            val = sum(c * env[v] for v, c in r.coeffs.items())
            if r.rel == "<=" and val > r.rhs + 1e-9:
                ok = False
            if r.rel == ">=" and val < r.rhs - 1e-9:
                ok = False
            if r.rel == "=" and abs(val - r.rhs) > 1e-9:
                ok = False
            if not ok:
                break
        if ok:
            return True
    return False


def test_fig7_fast_path_two_rows_no_auxiliaries():
    alloc = _Alloc()
    a = Literal(alloc.atom("<=", LinearTerm({"x1": 3}, -2)))
    b = Literal(alloc.atom(">=", LinearTerm({"x2": 1}, -1)))
    rows, aux = linearize(to_cnf(("and", a, b)), alloc)
    assert len(rows) == 2 and aux == []
    assert rows[0].rel == "<=" and rows[0].coeffs == {"x1": 3} and rows[0].rhs == 2
    assert rows[1].rel == ">=" and rows[1].coeffs == {"x2": 1} and rows[1].rhs == 1


def test_empty_cnf_gives_no_rows():
    rows, aux = linearize(to_cnf(("const", True)), _Alloc())
    assert rows == [] and aux == []


def test_false_gives_marker_infeasible_row():
    rows, _ = linearize(to_cnf(("const", False)), _Alloc())
    assert len(rows) == 1 and rows[0].coeffs == {} and rows[0].rel == "<=" \
        and rows[0].rhs == -1


def test_forced_disjunction_enumeration():
    # (x1 = 1) or (x2 = 1): feasible exactly for assignments 10, 01, 11
    alloc = _Alloc()
    a = Literal(alloc.atom("==", LinearTerm({"x1": 1}, -1)))
    b = Literal(alloc.atom("==", LinearTerm({"x2": 1}, -1)))
    rows, aux = linearize(to_cnf(("or", a, b)), alloc)
    outcomes = {}
    for x1, x2 in itertools.product([0, 1], repeat=2):
        outcomes[(x1, x2)] = rows_feasible(rows, aux, {"x1": x1, "x2": x2})
    assert outcomes == {(0, 0): False, (0, 1): True, (1, 0): True, (1, 1): True}


def test_equality_atom_uses_conjoined_indicators():
    alloc = _Alloc()
    eq = Literal(alloc.atom("==", LinearTerm({"x": 1}, -1)))
    other = Literal(alloc.atom("<=", LinearTerm({"x": 1})))
    rows, aux = linearize(to_cnf(("or", eq, other)), alloc)
    assert len(aux) == 4  # le + ge + eq indicators, plus one for the <= atom
    kinds = {v.kind for v in aux}
    assert kinds == {AUX_BINARY}


def test_strict_comparison_on_integer_terms_is_exact():
    alloc = _Alloc()
    lt = Literal(alloc.atom("<", LinearTerm({"x": 1}, 0)))   # x < 0 -> x <= -1
    rows, aux = linearize(to_cnf(lt), alloc)
    assert rows[0].rel == "<=" and rows[0].rhs == -1


def random_lowered_tree(rng, alloc, n_vars, max_atoms, eq_budget=2):
    atoms_left = [max_atoms]
    eq_left = [eq_budget]

    def gen(depth):
        if depth > 3 or (rng.random() < 0.4 and depth > 0) or atoms_left[0] <= 0:
            if atoms_left[0] <= 0:
                return ("const", rng.random() < 0.5)
            atoms_left[0] -= 1
            ops = ["<", "<=", ">=", ">"]
            if eq_left[0] > 0 and rng.random() < 0.3:
                eq_left[0] -= 1
                op = rng.choice(["==", "!="])
            else:
                op = rng.choice(ops)
            nv = rng.randint(1, n_vars)
            coeffs = {f"x{i}": rng.randint(-10, 10)
                      for i in rng.sample(range(n_vars), nv)}
            term = LinearTerm(coeffs, rng.randint(-10, 10))
            if op == "!=":
                return Literal(alloc.atom("==", term), positive=False)
            return Literal(alloc.atom(op, term))
        roll = rng.random()
        if roll < 0.2:
            return _negate(gen(depth + 1))
        return ("and" if roll < 0.6 else "or", gen(depth + 1), gen(depth + 1))

    return gen(0)


def lowered_truth(node, xs):
    if isinstance(node, Literal):
        val = node.atom.term.constant + sum(
            c * xs[v] for v, c in node.atom.term.coeffs.items())
        ok = {"<": val < 0, "<=": val <= 0, "==": val == 0,
              ">=": val >= 0, ">": val > 0}[node.atom.op]
        return ok if node.positive else not ok
    if node[0] == "const":
        return node[1]
    _, a, b = node
    if node[0] == "and":
        return lowered_truth(a, xs) and lowered_truth(b, xs)
    return lowered_truth(a, xs) or lowered_truth(b, xs)


def check_semantic_preservation(seed, trials, n_vars_max=6, atoms_max=6):
    rng = random.Random(seed)
    for _ in range(trials):
        n_vars = rng.randint(1, n_vars_max)
        alloc = _Alloc()
        tree = random_lowered_tree(rng, alloc, n_vars, rng.randint(1, atoms_max))
        rows, aux = linearize(to_cnf(tree), alloc)
        names = [f"x{i}" for i in range(n_vars)] + [v.id for v in aux]
        idx = {v: j for j, v in enumerate(names)}
        A = np.zeros((len(rows), len(names)))
        b = np.zeros(len(rows))
        rels = []
        for i, r in enumerate(rows):
            for v, c in r.coeffs.items():
                A[i, idx[v]] = c
            b[i] = r.rhs
            rels.append(r.rel)
        n_aux = len(aux)
        aux_combos = (np.array(list(itertools.product([0., 1.], repeat=n_aux)))
                      if n_aux else np.zeros((1, 0)))
        for bits in itertools.product([0, 1], repeat=n_vars):
            xs = {f"x{i}": bits[i] for i in range(n_vars)}
            expect = lowered_truth(tree, xs)
            X = np.hstack([np.tile(np.array(bits, float), (len(aux_combos), 1)),
                           aux_combos])
            lhs = X @ A.T if len(rows) else np.zeros((len(X), 0))
            feas = np.ones(len(X), dtype=bool)
            for i, rel in enumerate(rels):
                if rel == "<=":
                    feas &= lhs[:, i] <= b[i] + 1e-9
                elif rel == ">=":
                    feas &= lhs[:, i] >= b[i] - 1e-9
                else:
                    feas &= np.abs(lhs[:, i] - b[i]) <= 1e-9
            got = bool(feas.any())
            assert got == expect, (bits, tree)


def test_semantic_preservation_sample():
    check_semantic_preservation(seed=99, trials=150)


# --- objective -----------------------------------------------------------------------

def test_packing_objective_coefficient_half():
    mm = vne_metamodel()
    doc = """
    nodes {
      node { id: ss  type: SubstrateServer
             attrs { cpu: 32  resCpu: 16  mem: 512  resMem: 512  storage: 1024  resStorage: 1024 } }
      node { id: vs  type: VirtualServer  attrs { mapped: false  cpu: 4  mem: 1  storage: 1 } }
    }
    """
    from graphilp import load_graph
    g = load_graph(doc, mm)
    spec = embedding_spec()
    problem, table = generate(spec, g)
    var = table.var_of("srv2srv", collect_matches(spec, g)["server2server"][0])
    assert problem.objective.terms[var] == pytest.approx(16 / 32)
    assert problem.objective.sense == "min"


def test_objective_weights_scale_terms(task_model):
    mm, g = task_model
    base = TASK_SPEC.replace("global objective : min { packObj }",
                             "global objective : min { 3 * packObj }")
    spec = typecheck(parse(base), mm)
    spec_plain = typecheck(parse(TASK_SPEC), mm)
    p_scaled, _ = generate(spec, g)
    p_plain, _ = generate(spec_plain, g)
    for vid, c in p_plain.objective.terms.items():
        assert p_scaled.objective.terms[vid] == pytest.approx(3 * c)


def test_no_objective_instances_give_constant_zero():
    mm = vne_metamodel()
    spec = two_links_spec()
    problem, _ = generate(spec, Graph(mm, [], []))
    assert problem.objective.terms == {}
    assert problem.objective.constant == 0.0
    assert problem.variables == [] and problem.constraints == []


# --- generate (composition) ------------------------------------------------------------

def test_two_links_structure_two_vars_three_rows():
    _, g = two_links_model()
    problem, table = generate(two_links_spec(), g)
    assert len([v for v in problem.variables if v.kind == BINARY]) == 2
    assert len(problem.variables) == 2  # no auxiliaries on this fixture
    eq_rows = [r for r in problem.constraints if r.rel == "="]
    assert len(eq_rows) == 1
    assert eq_rows[0].coeffs == {"m_lnk2lnk_0": 1, "m_lnk2lnk_1": 1}
    assert eq_rows[0].rhs == 1


def test_generate_is_deterministic():
    _, g = two_links_model()
    spec = two_links_spec()
    a, ta = generate(spec, g)
    b, tb = generate(spec, g)
    assert dump_problem(a, ta) == dump_problem(b, tb)


TWO_LINKS_DUMP_GOLDEN = """\
min: m_lnk2lnk_0 + 0.5 m_lnk2lnk_1
c0: 100 m_lnk2lnk_0 <= 1000
c1: 100 m_lnk2lnk_1 <= 500
c2: m_lnk2lnk_0 + m_lnk2lnk_1 = 1
var m_lnk2lnk_0 binary
var m_lnk2lnk_1 binary
map m_lnk2lnk_0 -> lnk2lnk[sl=sl1 vl=v11]
map m_lnk2lnk_1 -> lnk2lnk[sl=sl2 vl=v11]
"""


def test_two_links_dump_golden():
    _, g = two_links_model()
    problem, table = generate(two_links_spec(), g)
    assert dump_problem(problem, table) == TWO_LINKS_DUMP_GOLDEN


def test_variable_term_divided_by_constant_is_linear(task_model, task_spec):
    mm, g = task_model
    spec = typecheck(parse(TASK_SPEC.replace(
        "sum(m | m.nodes().t.cpu) <= self.resCpu",
        "sum(m | m.nodes().t.cpu) / 2 <= self.resCpu")), mm)
    problem, table = generate(spec, g)
    halves = [r for r in problem.constraints
              if r.rel == "<=" and any(c == 3.5 for c in r.coeffs.values())]
    assert halves, "7/2 coefficient expected after division by the constant"


def test_link_endpoint_row_matches_simplified_form():
    # x_server + x_switch >= 2 * x_link, i.e. x_i + x_j - 2 x_k >= 0
    mm = vne_metamodel()
    doc = """
    nodes {
      node { id: ss  type: SubstrateServer
             attrs { cpu: 32  resCpu: 32  mem: 512  resMem: 512  storage: 1024  resStorage: 1024 } }
      node { id: sw  type: SubstrateSwitch }
      node { id: sl  type: SubstrateLink  attrs { bw: 1000  resBw: 1000 } }
      node { id: vs  type: VirtualServer  attrs { mapped: false  cpu: 4  mem: 8  storage: 10 } }
      node { id: vw  type: VirtualSwitch  attrs { mapped: false } }
      node { id: vl  type: VirtualLink  attrs { mapped: false  bw: 100 } }
    }
    edges {
      edge { id: e1  type: ssrc  src: sl  tgt: ss }
      edge { id: e2  type: strg  src: sl  tgt: sw }
      edge { id: e3  type: vsrc  src: vl  tgt: vs }
      edge { id: e4  type: vtrg  src: vl  tgt: vw }
    }
    """
    from graphilp import load_graph
    g = load_graph(doc, mm)
    spec = embedding_spec()
    problem, table = generate(spec, g)
    x_srv = table.var_of("srv2srv", collect_matches(spec, g)["server2server"][0])
    x_sw = table.var_of("sw2sw", collect_matches(spec, g)["switch2switch"][0])
    x_lnk = table.var_of("lnk2lnk", collect_matches(spec, g)["link2link"][0])
    endpoint_rows = [r for r in problem.constraints
                     if set(r.coeffs) == {x_srv, x_sw, x_lnk}]
    assert len(endpoint_rows) == 1
    row = endpoint_rows[0]
    assert row.rel == ">=" and row.rhs == 0
    assert row.coeffs[x_srv] == 1 and row.coeffs[x_sw] == 1 \
        and row.coeffs[x_lnk] == -2


def test_coefficient_provenance_capacity_rows(task_model, task_spec):
    _, g = task_model
    problem, table = generate(task_spec, g)
    demands = {"t1": 4, "t2": 7}
    for row in problem.constraints:
        if row.rel != "<=":
            continue
        for vid, coeff in row.coeffs.items():
            _, match = table.match_of(vid)
            assert coeff == demands[match.binding["t"]]


def test_division_by_zero_coefficient_is_generation_error():
    mm = vne_metamodel()
    doc = """
    nodes {
      node { id: ss  type: SubstrateServer
             attrs { cpu: 0  resCpu: 16  mem: 1  resMem: 1  storage: 1  resStorage: 1 } }
      node { id: vs  type: VirtualServer  attrs { mapped: false  cpu: 0  mem: 1  storage: 1 } }
    }
    """
    from graphilp import load_graph
    g = load_graph(doc, mm)
    with pytest.raises(GenerationError, match="division by zero"):
        generate(embedding_spec(), g)


def test_generation_error_names_constraint_and_element(task_model):
    mm, g = task_model
    spec = typecheck(parse("""
rule place {
  nodes { t: Task  s: Server }
  condition { !t.placed }
}
mapping put with place;
constraint -> class::Server {
  mappings.put->filter(m | m.nodes().s == self)->sum(m | m.nodes().t.cpu / (self.resCpu - self.resCpu)) <= 1
}
global objective : min { 0 }
"""), mm)
    with pytest.raises(GenerationError, match=r"constraint 1 .*Server.*division"):
        generate(spec, g)


def test_sum_free_and_or_short_circuit_as_in_filters(task_model):
    # a sum-free body is evaluated whole: `&` skips its right operand after a
    # false left one, `|` still evaluates its left operand first
    mm, g = task_model

    def generate_with(body):
        return generate(typecheck(parse(TASK_SPEC.replace(
            "mapping put with place;",
            "mapping put with place;\nconstraint -> class::Server { " + body + " }")),
            mm), g)

    problem, _ = generate_with("false & 1 / 0 > 0")
    assert problem.constraints[0] == Row({}, "<=", -1)
    with pytest.raises(GenerationError) as err:
        generate_with("1 / 0 > 0 | false")
    assert str(err.value) == "constraint 1 (class::Server), s1: division by zero"


@pytest.mark.parametrize("body, op", [
    ("sin(mappings.put->sum(m | 1)) >= 0", "'sin'"),
    ("mappings.put->sum(m | 1) + 1", "'+'"),
    ("!(mappings.put->sum(m | 1) - 1)", "'-'"),
    ("mappings.put->sum(m | 1) < 1 | mappings.put->sum(m | 1) * 2", "'*'"),
])
def test_mapping_sum_under_an_operator_that_cannot_lower_it(task_model, task_spec,
                                                             body, op):
    # bodies the typechecker rejects; lowering must not fold them into `|`
    # or a negation
    _, g = task_model
    matches = collect_matches(task_spec, g)
    _, table = instantiate_mappings(task_spec, matches)
    with pytest.raises(GenerationError, match=re.escape(f"cannot be lowered under {op}") + "$"):
        lower_sets(parse_expression(body), NodeRef("s1"), task_spec, g, table, matches)


# 1e308 * 10 overflows to inf; without the finiteness check the program
# reached the solver with inf coefficients and came back "infeasible"
@pytest.mark.parametrize("old, new, where", [
    ("self.nodes().sl.resBw / self.nodes().sl.bw", "self.nodes().sl.resBw * 1e308 * 10",
     "objective 'lnkObj': "),
    ("self.nodes().sl.resBw / self.nodes().sl.bw", "0 - self.nodes().sl.resBw * 1e308 * 10",
     "objective 'lnkObj': "),
    ("<= self.resBw", "<= self.resBw * 1e308 * 10",
     r"constraint 1 \(class::SubstrateLink\), sl1: "),
    ("m.nodes().vl.bw) <=", "m.nodes().vl.bw * 1e308 * 10) <=",
     r"constraint 1 \(class::SubstrateLink\), sl1: "),
], ids=["objective-inf", "objective-minus-inf", "row-rhs-inf", "row-coefficient-inf"])
def test_non_finite_program_number_is_a_generation_error(old, new, where):
    assert old in TWO_LINKS_SPEC
    _, g = two_links_model()
    spec = typecheck(parse(TWO_LINKS_SPEC.replace(old, new)), vne_metamodel())
    with pytest.raises(GenerationError, match=where + "non-finite coefficient or constant$"):
        generate(spec, g)


def test_non_finite_big_m_is_a_generation_error(task_model):
    # finite coefficients (4e307, 7e307 on s1), but the or-body needs
    # indicator rows, and their big-M, 2 * 1.1e308, overflows
    mm, g = task_model
    spec = typecheck(parse(TASK_SPEC.replace(
        "->sum(m | m.nodes().t.cpu) <= self.resCpu",
        "->sum(m | m.nodes().t.cpu * 1e307) <= self.resCpu"
        " | mappings.put->filter(m | m.nodes().s == self)->sum(m | 1) >= 2")), mm)
    with pytest.raises(GenerationError, match=r"^constraint 1 .*non-finite"):
        generate(spec, g)


def test_mapping_table_rejects_duplicates():
    table = MappingTable()
    from graphilp.pattern import Match, Pattern, PatternNode
    p = Pattern("r", (PatternNode("a", "T"),))
    m = Match.of(p, {"a": "n1"})
    table.add("v0", "map", m)
    with pytest.raises(GenerationError):
        table.add("v0", "map", m)


# --- apply_solution ----------------------------------------------------------------

def _placements_on(table, server):
    return {vid for vid, (_, m) in table.items() if m.binding["s"] == server}


def test_apply_solution_chains_deltas_on_one_server(task_spec):
    _, g = load_model(TASK_DOC.replace("resCpu: 10", "resCpu: 20"))
    problem, table = generate(task_spec, g)
    on_s1 = _placements_on(table, "s1")
    assignment = {v.id: int(v.id in on_s1) for v in problem.variables}
    applied, count = apply_solution(g, task_spec, table, assignment)
    assert count == 2
    assert applied.nodes["s1"].attrs["resCpu"] == 20 - 4 - 7  # both decrements seen
    assert applied.nodes["s2"].attrs["resCpu"] == 5
    assert sorted(e.src for e in applied.edges.values() if e.type == "host") == ["t1", "t2"]
    assert g.nodes["s1"].attrs["resCpu"] == 20, "input graph untouched"


def test_apply_solution_rechecks_a_match_an_earlier_delta_touched(task_model, task_spec):
    _, g = task_model  # s1 has resCpu 10: t1 (cpu 4) and t2 (cpu 7) do not both fit
    problem, table = generate(task_spec, g)
    on_s1 = _placements_on(table, "s1")
    assignment = {v.id: int(v.id in on_s1) for v in problem.variables}
    with pytest.raises(StaleMatchError):
        apply_solution(g, task_spec, table, assignment)


# --- indexed mapping sums: same program as the scan ---------------------------------

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "demos" / "fixtures"


def _generate_both(spec, g, monkeypatch):
    """Outcome of `generate` with the mapping-sum index and with every filter
    scanned: the dump, or the GenerationError text."""
    def outcome():
        try:
            return dump_problem(*generate(spec, g))
        except GenerationError as exc:
            return f"GenerationError: {exc}"
    indexed = outcome()
    with monkeypatch.context() as mp:
        mp.setattr(encode_mod, "_index_plan", lambda *args: None)
        scanned = outcome()
    return indexed, scanned


def _assert_same(spec, g, monkeypatch):
    indexed, scanned = _generate_both(spec, g, monkeypatch)
    assert indexed == scanned
    return indexed


@pytest.mark.parametrize("pred, fields, rest", [
    ("m.nodes().s == self", ("s",), None),
    ("m.nodes().t == self.nodes().t & m.nodes().s == self.nodes().s", ("t", "s"), None),
    ("m == self", (None,), None),
    ("m.nodes().t == self.nodes().a & m.nodes().s.zone == 0", ("t",),
     "true & m.nodes().s.zone == 0"),
    ("m.nodes().s == self & (m.nodes().t.cpu >= 2 & m.nodes().s.zone == 0)", ("s",),
     "true & m.nodes().t.cpu >= 2 & m.nodes().s.zone == 0"),
    ("m.nodes().s.zone == 0 & m.nodes().t == self", None, None),
    ("m.nodes().t == m.nodes().s", None, None),
    ("m.nodes().x == self", None, None),
    ("m.nodes().t != self", None, None),
    ("m.nodes().t == self | m.nodes().s == self", None, None),
])
def test_index_plan_recognises_leading_key_conjuncts(pred, fields, rest):
    plan = encode_mod._index_plan("m", parse_expression(pred), ["s", "t"])
    if fields is None:
        assert plan is None
        return
    got_fields, exprs, got_rest = plan
    assert got_fields == fields and len(exprs) == len(fields)
    assert got_rest == (None if rest is None else parse_expression(rest))


def test_index_matches_scan_two_links(monkeypatch):
    _, g = two_links_model()
    assert _assert_same(two_links_spec(), g, monkeypatch) == TWO_LINKS_DUMP_GOLDEN


def test_index_matches_scan_desk_requests(monkeypatch):
    cfg = parse_scenario_config((FIXTURES / "desk.cfg").read_text())
    cfg.seed = 1
    substrate, vnrs = generate_scenario(cfg)
    assert len(vnrs) == 10
    spec = embedding_spec()
    for vnr in vnrs:
        _assert_same(spec, merge_graphs(substrate, vnr), monkeypatch)


def test_index_matches_scan_smoke_full_scale_request(monkeypatch):
    cfg = full_scale_config(1)
    cfg.racks, cfg.servers_per_rack = 2, 2
    substrate, vnrs = generate_scenario(cfg)
    vnr = next(v for v in vnrs if len(v.nodes) == 5)  # two virtual servers
    g = merge_graphs(substrate, vnr)
    spec = embedding_spec()
    _assert_same(spec, g, monkeypatch)
    # and the index really skips work: count filter/body evaluations
    calls = []
    counting = encode_mod.eval_expr

    def counted(*args):
        calls.append(1)
        return counting(*args)
    monkeypatch.setattr(encode_mod, "eval_expr", counted)
    generate(spec, g)
    indexed = len(calls)
    calls.clear()
    monkeypatch.setattr(encode_mod, "_index_plan", lambda *args: None)
    generate(spec, g)
    assert 4 * indexed < len(calls)


PLACEMENT_SCHEMA = """
nodetypes {
  nodetype { name: Element }
  nodetype { name: Server  supertype: Element
             attrs { cpu: int  resCpu: int  minLoad: int  zone: int  cost: int } }
  nodetype { name: Task  supertype: Element  attrs { cpu: int  placed: bool } }
}
edgetypes {
  edgetype { name: host  src: Task  tgt: Server }
  edgetype { name: aff  src: Task  tgt: Task }
}
"""

PLACEMENT_SPEC = """
rule place {
  nodes { t: Task  s: Server }
  condition { !t.placed & s.resCpu >= t.cpu }
  actions {
    create edge host(t -> s)
    set s.resCpu := s.resCpu - t.cpu
    set t.placed := true
  }
}
rule pair {
  nodes { a: Task  b: Task }
  edges { w: aff(a -> b) }
}
mapping put with place;
constraint -> class::Task {
  self.placed | mappings.put->filter(m | m.nodes().t == self)->sum(m | 1) == 1
}
constraint -> class::Server {
  mappings.put->filter(m | m.nodes().s == self)->sum(m | 1) == 0
  | mappings.put->filter(m | m.nodes().s == self)->sum(m | m.nodes().t.cpu) >= self.minLoad
}
constraint -> pattern::pair {
  (mappings.put->filter(m | {A0})->sum(m | 1) >= 1
   & mappings.put->filter(m | {B0})->sum(m | 1) >= 1)
  | (mappings.put->filter(m | {A1})->sum(m | 1) >= 1
     & mappings.put->filter(m | {B1})->sum(m | 1) >= 1)
}
constraint -> pattern::place {
  mappings.put->filter(m | m == self)->sum(m | 1)
  + mappings.put->filter(m | m.nodes().s == self.nodes().s & m.nodes().t == self.nodes().t)->sum(m | 1) <= 2
}
constraint -> pattern::pair {
  mappings.put->filter(m | m == self)->sum(m | 1) == 0
}
objective cost -> mapping::put { self.nodes().s.cost * self.nodes().t.cpu }
global objective : min { cost }
"""

ZONE_FILTERS = {
    "key-then-zone": "m.nodes().t == self.nodes().{end} & m.nodes().s.zone == {zone}",
    "zone-then-key": "m.nodes().s.zone == {zone} & m.nodes().t == self.nodes().{end}",
    "key-then-two": ("m.nodes().t == self.nodes().{end} & m.nodes().s.zone == {zone}"
                     " & m.nodes().t.cpu <= 6"),
    "key-then-or": ("m.nodes().t == self.nodes().{end}"
                    " & (m.nodes().s.zone == {zone} | m.nodes().s.cost >= 8)"),
}


def _placement_model(rng):
    lines = [PLACEMENT_SCHEMA, "nodes {"]
    for i in range(3):
        cpu = rng.randint(8, 16)
        lines.append(f"  node {{ id: s{i}  type: Server  attrs {{ cpu: {cpu}  resCpu: {cpu}"
                     f"  minLoad: {rng.randint(4, cpu // 2 + 2)}  zone: {i % 2}"
                     f"  cost: {rng.randint(1, 9)} }} }}")
    for i in range(4):
        lines.append(f"  node {{ id: t{i}  type: Task  attrs {{ cpu: {rng.randint(1, 8)}"
                     f"  placed: false }} }}")
    lines += ["}", "edges {"]
    for k, (a, b) in enumerate(rng.sample(list(itertools.combinations(range(4), 2)), 2)):
        lines.append(f"  edge {{ id: w{k}  type: aff  src: t{a}  tgt: t{b} }}")
    lines.append("}")
    return load_model("\n".join(lines) + "\n")


@pytest.mark.parametrize("variant", sorted(ZONE_FILTERS))
def test_index_matches_scan_disjunctive_specs(variant, monkeypatch):
    zone_filter = ZONE_FILTERS[variant]
    text = PLACEMENT_SPEC
    for end in "AB":
        for zone in (0, 1):
            text = text.replace(f"{{{end}{zone}}}",
                                zone_filter.format(end=end.lower(), zone=zone))
    rng = random.Random(7)
    for _ in range(6):
        mm, g = _placement_model(rng)
        _assert_same(typecheck(parse(text), mm), g, monkeypatch)


def _task_spec_with_body(mm, body, kind="class", target="Server"):
    spec = typecheck(parse(TASK_SPEC), mm)
    cons = TypedConstraint(kind, target, parse_expression(body), spec.constraints[0].pos)
    return dataclasses.replace(spec, constraints=[cons])


def test_index_matches_scan_with_zero_matches(task_model, monkeypatch):
    mm, _ = task_model
    g = load_graph("""
    nodes {
      node { id: s1  type: Server  attrs { cpu: 8  resCpu: 8 } }
      node { id: t1  type: Task  attrs { cpu: 1  placed: true } }
    }
    """, mm)
    spec = typecheck(parse(TASK_SPEC), mm)
    assert collect_matches(spec, g)["place"] == []
    dump = _assert_same(spec, g, monkeypatch)
    # the key `<e>` is never evaluated, so its error cannot surface
    bad = _task_spec_with_body(mm, "mappings.put->filter(m | m.nodes().s == 3)->sum(m | 1) <= 1")
    assert _assert_same(bad, g, monkeypatch) == dump


def test_index_matches_scan_match_of_another_rule(task_model, monkeypatch):
    mm, g = task_model
    spec = typecheck(parse(TASK_SPEC.replace("mapping put with place;", """
rule lone { nodes { t: Task  s: Server } }
mapping put with place;
constraint -> pattern::lone {
  mappings.put->filter(m | m == self)->sum(m | 1) <= 0
}""")), mm)
    dump = _assert_same(spec, g, monkeypatch)
    assert "<= -1" not in dump  # every sum is empty, so every row folds to true


def test_index_keeps_cannot_compare_error(task_model, monkeypatch):
    mm, g = task_model
    spec = _task_spec_with_body(
        mm, "mappings.put->filter(m | m.nodes().s == 3)->sum(m | 1) <= 1")
    indexed, scanned = _generate_both(spec, g, monkeypatch)
    assert indexed == scanned
    assert indexed.startswith("GenerationError: constraint 1 (class::Server), s1: "
                              "cannot compare values of different kinds")


def test_index_keeps_errors_of_the_remaining_conjuncts(task_model, monkeypatch):
    mm, g = task_model
    spec = _task_spec_with_body(
        mm, "mappings.put->filter(m | m.nodes().s == self"
            " & m.nodes().t.cpu / (self.resCpu - self.resCpu) >= 1)->sum(m | 1) <= 1")
    indexed, scanned = _generate_both(spec, g, monkeypatch)
    assert indexed == scanned
    assert indexed == "GenerationError: constraint 1 (class::Server), s1: division by zero"


def test_leading_non_key_conjunct_falls_back_to_scan(task_model, monkeypatch):
    mm, g = task_model
    spec = _task_spec_with_body(
        mm, "mappings.put->filter(m | m.nodes().t.cpu >= 5 & m.nodes().s == self)"
            "->sum(m | m.nodes().t.cpu) <= self.resCpu")
    built = []
    real_plan = encode_mod._index_plan

    def spy(*args):
        built.append(real_plan(*args))
        return built[-1]
    monkeypatch.setattr(encode_mod, "_index_plan", spy)
    indexed = dump_problem(*generate(spec, g))
    assert built == [None]
    monkeypatch.undo()
    assert _assert_same(spec, g, monkeypatch) == indexed
