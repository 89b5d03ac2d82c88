import dataclasses
import hashlib
import importlib.util
import itertools
import pathlib
import random
import re
from collections import Counter

import numpy as np
import pytest

import graphilp
import graphilp.encode as encode_mod
import graphilp.lang.lexer as lexer
from graphilp import (Graph, Node, StaleMatchError, apply_solution, brute_force,
                      dump_problem, full_scale_config, generate,
                      generate_scenario, load_graph, load_model, parse,
                      parse_scenario_config, solve, typecheck)
from graphilp.encode import (AUX_BINARY, BINARY, Cnf, GenerationError, LinearTerm,
                             Literal, MappingTable, Row, Variable, _Alloc, _Lowerer,
                             _lower_bool, collect_matches,
                             expand_contexts, instantiate_mappings, linearize, to_cnf)
from graphilp.lang import ast as A
from graphilp.lang.parser import parse_expression
from graphilp.vne import merge_graphs
from graphilp.vne_model import (TWO_LINKS_SPEC, two_links_model, two_links_spec,
                                vne_metamodel, embedding_spec)

from conftest import TASK_DOC, TASK_SPEC, perfbench_placement, row_check


@pytest.fixture
def task_problem(task_model, task_spec):
    _, g = task_model
    return generate(task_spec, g)


# --- package surface ------------------------------------------------------------

def test_package_root_leaves_out_test_helpers_and_encoder_internals():
    for name in ("pretty", "pretty_expr", "LinearTerm", "build_objective"):
        assert name not in graphilp.__all__, name
    # documented in README, "Library in five lines"
    for name in ("parse_expression", "brute_force", "lp_relaxation", "problems_equal"):
        assert name in graphilp.__all__, name
    assert importlib.util.find_spec("graphilp.lang.printer") is None
    assert not hasattr(lexer, "LexError")


def test_a_variables_kind_follows_its_id():
    assert [f.name for f in dataclasses.fields(Variable)] == ["id"]
    assert [Variable(v).kind for v in ("aux_0", "aux_x", "m_put_0", "y", "x_aux_")] == \
        [AUX_BINARY, AUX_BINARY, BINARY, BINARY, BINARY]


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
    assert all(v is g.nodes[label] for v, label in instances)


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

def lower_sets(body, self_value, spec, g, table):
    """Lower one Boolean body, with `self` bound, to a Boolean tree over
    linear-term atoms, in a lowering context of its own."""
    return _lower_bool(body)({"self": self_value}, _Lowerer(spec, g, table))


def test_capacity_sum_lowering_by_hand(task_model, task_spec):
    # one server, two placeable tasks with demands 4 and 7:
    # the lowered body must be 4*x_a + 7*x_b <= resCpu
    _, g = task_model
    matches = collect_matches(task_spec, g)
    variables, table = instantiate_mappings(task_spec, matches)
    cons = task_spec.constraints[0]
    lowered = lower_sets(cons.body, g.nodes["s1"], task_spec, g, table)
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
    body = parse_expression(
        "mappings.put->filter(m | m.nodes().t.cpu >= 99)->sum(m | 1) <= 0")
    lowered = lower_sets(body, g.nodes["s1"], task_spec, g, table)
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


@pytest.mark.parametrize("positive", [True, False], ids=["positive", "negated"])
def test_a_lone_literal_is_its_own_clause(positive):
    alloc = _Alloc()
    lit = Literal(atom(alloc, "<=", {"x": 2, "y": -1}, 1), positive)
    cnf = to_cnf(lit)
    assert cnf.clauses == ((lit,),) and cnf.clauses[0][0] is lit
    assert cnf == to_cnf(("or", lit, ("const", False))) == to_cnf(("and", ("const", True), lit))


# --- rows --------------------------------------------------------------------------

@pytest.mark.parametrize("op, rel, rhs", [("==", "=", -5), ("<=", "<=", -5), (">=", ">=", -5),
                                          ("<", "<=", -6), (">", ">=", -4)])
def test_direct_row_of_an_integer_term(op, rel, rhs):
    term = LinearTerm({"x": 2, "y": -3}, 5)
    [row] = encode_mod._direct_rows(_Alloc().atom(op, term))
    assert (row.rel, list(row.coeffs.items()), row.rhs) == (rel, [("x", 2), ("y", -3)], rhs)
    assert all(type(c) is int for c in row.coeffs.values()) and type(row.rhs) is int
    assert row.coeffs is not term.coeffs and term == LinearTerm({"x": 2, "y": -3}, 5)


@pytest.mark.parametrize("op, rel, rhs", [("==", "=", -1.25), ("<=", "<=", -1.25),
                                          (">=", ">=", -1.25), ("<", "<=", -(1.25 + 1e-6)),
                                          (">", ">=", -1.25 + 1e-6)])
def test_direct_row_of_a_real_term(op, rel, rhs):
    term = LinearTerm({"x": 0.5, "y": -3}, 1.25)
    [row] = encode_mod._direct_rows(_Alloc().atom(op, term))
    assert (row.rel, list(row.coeffs.items()), row.rhs) == (rel, [("x", 0.5), ("y", -3)], rhs)
    assert type(row.coeffs["y"]) is int and type(row.rhs) is float


def test_linear_term_arithmetic_neither_aliases_nor_mutates_its_operands():
    t = LinearTerm({"x": 1, "y": 2}, 3)
    u = LinearTerm({"y": -2, "z": 1.5}, 1)
    results = [t.add(u), t.sub(u), u.sub(u), t.scale(1), t.scale(0), t.scale(-1),
               LinearTerm.const(4).add(LinearTerm.const(5))]
    assert [(list(r.coeffs.items()), r.constant) for r in results] == [
        ([("x", 1), ("z", 1.5)], 4), ([("x", 1), ("y", 4), ("z", -1.5)], 2), ([], 0),
        ([("x", 1), ("y", 2)], 3), ([], 0), ([("x", -1), ("y", -2)], -3), ([], 9)]
    for r in results:
        assert r.coeffs is not t.coeffs and r.coeffs is not u.coeffs
        r.coeffs["w"] = 7
    assert t == LinearTerm({"x": 1, "y": 2}, 3) and u == LinearTerm({"y": -2, "z": 1.5}, 1)
    assert len({id(r.coeffs) for r in results}) == len(results)


def test_rows_drop_zero_coefficients_without_touching_the_given_dict():
    given = {"x": 1, "y": 0, "z": 0.0}
    row = Row(given, "<=", 1)
    assert row.coeffs == {"x": 1} and given == {"x": 1, "y": 0, "z": 0.0}


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


def test_demorgan_example_against_truth_table(task_model, task_spec):
    # !(p | !(q & r != 1)) & s lowers to !p & (q & !(r == 1)) & s: negation
    # sits on literals only, with the atoms in body order
    _, g = task_model
    _, table = instantiate_mappings(task_spec, collect_matches(task_spec, g))
    count = "mappings.put->filter(m | m.nodes().s == self)->sum(m | 1)"
    body = parse_expression(f"!({count} >= 1 | !({count} <= 2 & {count} != 1))"
                            f" & {count} < 2")
    node = lower_sets(body, g.nodes["s1"], task_spec, g, table)
    lits = [(lit.atom.index, lit.atom.op, lit.positive)
            for lit in (node[1][1], node[1][2][1], node[1][2][2], node[2])]
    assert (node[0], node[1][0], node[1][2][0]) == ("and", "and", "and")
    assert lits == [(0, ">=", False), (1, "<=", True), (2, "==", False), (3, "<", True)]
    cnf = to_cnf(node)
    assert [[(l.atom.index, l.positive) for l in c] for c in cnf.clauses] == [
        [(0, False)], [(1, True)], [(2, False)], [(3, True)]]
    atoms = [lit.atom for [lit] in cnf.clauses]
    assert truth_table(node, atoms) == cnf_truth(cnf, atoms)


def test_cnf_equivalence_on_random_trees():
    rng = random.Random(31)
    for _ in range(200):
        alloc = _Alloc()
        atoms = [atom(alloc, coeffs={f"v{i}": 1}) for i in range(rng.randint(1, 5))]
        def tree(depth):
            if depth > 3 or rng.random() < 0.35:
                return Literal(rng.choice(atoms), positive=rng.random() < 0.7)
            return ("and" if rng.random() < 0.5 else "or", tree(depth + 1), tree(depth + 1))
        node = tree(0)
        cnf = to_cnf(node)
        assert truth_table(node, atoms) == cnf_truth(cnf, atoms)


# --- linearize ----------------------------------------------------------------------

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
    outcomes = {(xs["x1"], xs["x2"]): got
                for xs, got in feasible_points(rows, aux, ["x1", "x2"])}
    assert outcomes == {(0, 0): False, (0, 1): True, (1, 0): True, (1, 1): True}


def test_equality_atom_uses_conjoined_indicators():
    # x - y takes both signs, so == 0 needs both sides tied. `x <= 0` says
    # "none of {x}" and needs no indicator; `x - z <= 0` gets one
    for other, n_aux in [(LinearTerm({"x": 1}), 3), (LinearTerm({"x": 1, "z": -1}), 4)]:
        alloc = _Alloc()
        eq = Literal(alloc.atom("==", LinearTerm({"x": 1, "y": -1})))
        body = ("or", eq, Literal(alloc.atom("<=", other)))
        rows, aux = linearize(to_cnf(body), alloc)
        assert len(aux) == n_aux  # le + ge + eq indicators, and one for x - z <= 0
        kinds = {v.kind for v in aux}
        assert kinds == {AUX_BINARY}
        for xs, got in feasible_points(rows, aux, "xyz"):
            assert got == lowered_truth(body, xs)


def test_strict_comparison_on_integer_terms_is_exact():
    alloc = _Alloc()
    lt = Literal(alloc.atom("<", LinearTerm({"x": 1}, 0)))   # x < 0 -> x <= -1
    rows, aux = linearize(to_cnf(lt), alloc)
    assert rows[0].rel == "<=" and rows[0].rhs == -1


# the <= atom, `z - 1 <= 0`, is neither "any" nor "none". x + 2y == 0 and
# -x - 2y == 0 say "none of {x, y}": the clause becomes one row per x of S,
# `f + M x <= M` over the <= atom, and the negative literal "any of {x, y}"
# joins the clause row beside the <= atom's indicator. 3x + y + 1 and
# x - y + 1 keep one sign but are neither, so each keeps its indicator
@pytest.mark.parametrize("positive", [True, False], ids=["eq", "ne"])
@pytest.mark.parametrize("term, n_aux", [(LinearTerm({"x": 1, "y": 2}), (0, 1)),
                                         (LinearTerm({"x": -1, "y": -2}, 0), (0, 1)),
                                         (LinearTerm({"x": 3, "y": 1}, 1), (2, 2)),
                                         (LinearTerm({"x": 1, "y": -1}, 1), (2, 2))],
                         ids=["non-negative", "non-positive", "positive", "mixed"])
def test_one_signed_equality_gets_one_indicator(term, n_aux, positive):
    alloc = _Alloc()
    eq = Literal(alloc.atom("==", term), positive)
    other = Literal(alloc.atom("<=", LinearTerm({"z": 1}, -1)))
    body = ("or", eq, other)
    rows, aux = linearize(to_cnf(body), alloc)
    assert len(aux) == n_aux[not positive]  # at most one for the equality
    for xs, got in feasible_points(rows, aux, "xyz"):
        assert got == lowered_truth(body, xs)


def _rows_with(rows, var):
    return [r for r in rows if var in r.coeffs]


def test_indicator_rows_follow_literal_polarity():
    # f = 2x + y - 1 over the box: lo = -1, hi = 2; integer-valued, eps = 1
    def rows_of_f(make_body):
        alloc = _Alloc()
        f = alloc.atom("<=", LinearTerm({"x": 2, "y": 1}, -1))
        g = Literal(alloc.atom("<=", LinearTerm({"z": 1}, -1)))
        h = Literal(alloc.atom("<=", LinearTerm({"w": 1}, -1)))
        rows, aux = linearize(to_cnf(make_body(Literal(f), Literal(f, False), g, h)), alloc)
        return _rows_with(rows, "x")

    upper = Row({"x": 2, "y": 1, "aux_0": 2}, "<=", 3)  # v = 1 => f <= 0
    lower = Row({"x": 2, "y": 1, "aux_0": 2}, ">=", 2)  # v = 0 => f >= 1
    assert rows_of_f(lambda f, not_f, g, h: ("or", f, g)) == [upper]
    assert rows_of_f(lambda f, not_f, g, h: ("or", not_f, g)) == [lower]
    assert rows_of_f(lambda f, not_f, g, h: ("and", ("or", f, g),
                                             ("or", not_f, h))) == [upper, lower]


def test_two_signed_equality_keeps_per_side_big_m():
    # t = x - 2y + 1: lo = -1, hi = 2; -t: lo = -2, hi = 1
    alloc = _Alloc()
    eq = Literal(alloc.atom("==", LinearTerm({"x": 1, "y": -2}, 1)))
    other = Literal(alloc.atom("<=", LinearTerm({"z": 1}, -1)))
    rows, aux = linearize(to_cnf(("or", eq, other)), alloc)
    assert [v.id for v in aux[:3]] == ["aux_0", "aux_1", "aux_2"]
    assert rows[:4] == [Row({"x": 1, "y": -2, "aux_0": 2}, "<=", 1),
                        Row({"x": 1, "y": -2, "aux_0": 2}, ">=", 0),
                        Row({"x": -1, "y": 2, "aux_1": 1}, "<=", 2),
                        Row({"x": -1, "y": 2, "aux_1": 3}, ">=", 2)]


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
                op = "=="
            else:
                op = rng.choice(ops)
            nv = rng.randint(1, n_vars)
            coeffs = {f"x{i}": rng.randint(-10, 10)
                      for i in rng.sample(range(n_vars), nv)}
            term = LinearTerm(coeffs, rng.randint(-10, 10))
            return Literal(alloc.atom(op, term), positive=rng.random() < 0.7)
        return ("and" if rng.random() < 0.5 else "or", gen(depth + 1), gen(depth + 1))

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


def indicator_atoms(cnf):
    """(atom, set of its polarities) for every atom off the fast path, which
    takes an atom that occurs once, positively, in a clause of its own."""
    uses: dict = {}
    for clause in cnf.clauses:
        for lit in clause:
            uses.setdefault(lit.atom.index, []).append((lit, len(clause)))
    return [(u[0][0].atom, {lit.positive for lit, _ in u}) for u in uses.values()
            if not (len(u) == 1 and u[0][0].positive and u[0][1] == 1)]


def feasible_points(rows, aux, names):
    """For every 0/1 point of the variables `names`, in product order, the
    point as a name -> bit dict and whether some auxiliary assignment
    satisfies every row there."""
    holds = row_check(rows, [*names, *(v.id for v in aux)])
    aux_combos = np.array(list(itertools.product([0., 1.], repeat=len(aux))))
    for bits in itertools.product([0, 1], repeat=len(names)):
        X = np.hstack([np.tile(np.array(bits, float), (len(aux_combos), 1)),
                       aux_combos])
        yield dict(zip(names, bits)), bool(holds(X).any())


def check_semantic_preservation(seed, trials, n_vars_max=6, atoms_max=6):
    """Linearize random bodies and compare, on every 0/1 point, whether some
    auxiliary assignment satisfies the rows with the body's truth value.
    Asserts that the draws include one-signed equalities and single-polarity
    atoms under an indicator, and returns their counts."""
    rng = random.Random(seed)
    one_signed = single_polarity = 0
    for _ in range(trials):
        n_vars = rng.randint(1, n_vars_max)
        alloc = _Alloc()
        tree = random_lowered_tree(rng, alloc, n_vars, rng.randint(1, atoms_max))
        cnf = to_cnf(tree)
        for a, signs in indicator_atoms(cnf):
            lo, hi = a.term.bounds()
            one_signed += a.op == "==" and (lo >= 0 or hi <= 0)
            single_polarity += len(signs) == 1
        rows, aux = linearize(cnf, alloc)
        for xs, got in feasible_points(rows, aux, [f"x{i}" for i in range(n_vars)]):
            assert got == lowered_truth(tree, xs), (xs, tree)
    assert one_signed > 0 and single_polarity > 0
    return one_signed, single_polarity


def test_semantic_preservation_sample():
    check_semantic_preservation(seed=99, trials=150)


def random_set_atom(rng, alloc, n_vars, kind):
    """An atom that holds iff some variable of S is 1 (kind "any"), iff every
    one is 0 ("none"), or neither ("general"), in one of the forms that
    lowering gives, over a random S of x0..x{n_vars-1}."""
    xs = [f"x{i}" for i in rng.sample(range(n_vars), rng.randint(1, min(3, n_vars)))]
    k = rng.randint(1, 3)
    w = {x: rng.randint(k, 5) for x in xs}
    neg = {x: -c for x, c in w.items()}
    if kind == "any":  # c > 0 and every a_i <= -c in the `f <= 0` form
        op, term = rng.choice([(">=", LinearTerm(w, -k)), (">", LinearTerm(w, 1 - k)),
                               ("<=", LinearTerm(neg, k)), ("<", LinearTerm(neg, k - 1)),
                               ("==", LinearTerm({xs[0]: 1}, -1)),
                               ("==", LinearTerm({xs[0]: -1}, 1))])
    elif kind == "none":  # c == 0 and every a_i > 0
        op, term = rng.choice([("<=", LinearTerm(w)), ("<", LinearTerm(w, -1)),
                               (">=", LinearTerm(neg)), (">", LinearTerm(neg, 1)),
                               ("==", LinearTerm(w)), ("==", LinearTerm(neg))])
    else:  # mixed signs or a constant that fits neither rule
        coeffs = {x: rng.choice([-1, 1]) * rng.randint(1, 5) for x in xs}
        op = rng.choice(["<", "<=", "==", ">=", ">"])
        term = LinearTerm(coeffs, rng.randint(-4, 4))
    return alloc.atom(op, term), kind


def test_clause_rows_are_sound_on_random_clauses():
    """Clauses that mix "any", "none" and general literals of both
    polarities, over at most 6 binaries: on every 0/1 point the rows admit
    some indicator values exactly when every clause holds. The draws must
    include a "none" literal beside one positive general atom whose `f`
    mentions a variable of S (its coefficient and `M` add), a clause with two
    "none" literals (they keep their indicators) and an atom shared by two
    clauses, as distribution makes."""
    rng = random.Random(2615)
    overwrite = two_nones = shared = 0
    for _ in range(400):
        n_vars = rng.randint(1, 6)
        alloc = _Alloc()
        pool = [random_set_atom(rng, alloc, n_vars,
                                rng.choice(["any", "none", "general"]))
                for _ in range(rng.randint(2, 4))]
        kinds = {atom.index: kind for atom, kind in pool}
        if rng.random() < 0.3:  # (a & b) | (c & d), distributed by to_cnf
            a, b, c, d = (Literal(atom, rng.random() < 0.6)
                          for atom, _ in rng.choices(pool, k=4))
            cnf = to_cnf(("or", ("and", a, b), ("and", c, d)))
        else:
            cnf = Cnf(tuple(tuple(Literal(atom, rng.random() < 0.6) for atom, _ in
                                  sorted(rng.sample(pool, rng.randint(2, min(3, len(pool)))),
                                         key=lambda p: p[0].index))
                            for _ in range(rng.randint(1, 3))))
        uses = Counter(lit.atom.index for clause in cnf.clauses for lit in clause)
        shared += any(n > 1 and kinds[i] != "general" for i, n in uses.items())
        for clause in cnf.clauses:
            said = [("any" if (kinds[lit.atom.index] == "any") == lit.positive else "none")
                    if kinds[lit.atom.index] != "general" else lit for lit in clause]
            nones = [lit for lit, k in zip(clause, said) if k == "none"]
            two_nones += len(nones) > 1
            rest = [lit for lit, k in zip(clause, said) if k != "none"]
            if len(nones) == 1 and len(rest) == 1 and rest[0].positive \
                    and kinds[rest[0].atom.index] == "general":
                overwrite += bool(set(nones[0].atom.term.coeffs) & set(rest[0].atom.term.coeffs))
        rows, aux = linearize(cnf, alloc)
        for xs, got in feasible_points(rows, aux, [f"x{i}" for i in range(n_vars)]):
            expect = all(any(lowered_truth(lit, xs) for lit in clause)
                         for clause in cnf.clauses)
            assert got == expect, (xs, cnf)
    assert overwrite > 0 and two_nones > 0 and shared > 0, (overwrite, two_nones, shared)


def test_any_and_none_literals_need_no_indicator():
    # the disjunctive server rule: the server empty, or loaded to minLoad 4.
    # Each x of S gets `f + M x <= M` with f = 4 - (3x + 2y), M = 4, so x's
    # coefficient is 4 - 3 = 1, not 4
    alloc = _Alloc()
    empty = Literal(alloc.atom("==", LinearTerm({"x": 1, "y": 1})))
    loaded = Literal(alloc.atom(">=", LinearTerm({"x": 3, "y": 2}, -4)))
    rows, aux = linearize(to_cnf(("or", empty, loaded)), alloc)
    assert aux == []
    assert rows == [Row({"x": 1, "y": -2}, "<=", 0), Row({"x": -3, "y": 2}, "<=", 0)]
    # a pair's zones: (a in z0 & b in z0) | (a in z1 & b in z1), every
    # relation "sum of S >= 1"
    alloc = _Alloc()
    a0, b0, a1, b1 = (Literal(alloc.atom(">=", LinearTerm({x: 1, y: 1}, -1)))
                      for x, y in [("a0", "c0"), ("b0", "d0"), ("a1", "c1"), ("b1", "d1")])
    rows, aux = linearize(to_cnf(("or", ("and", a0, b0), ("and", a1, b1))), alloc)
    assert aux == [] and len(rows) == 4
    assert rows[0] == Row({"a0": 1, "c0": 1, "a1": 1, "c1": 1}, ">=", 1)
    # "none of S" beside two literals: one row per x of S, 1 - x added
    alloc = _Alloc()
    none = Literal(alloc.atom("<=", LinearTerm({"x": 1, "y": 2})))
    anyof = Literal(alloc.atom(">", LinearTerm({"x": 1, "z": 1})))
    general = Literal(alloc.atom("<=", LinearTerm({"z": 1, "w": -1})), False)
    rows, aux = linearize(to_cnf(("or", ("or", none, anyof), general)), alloc)
    assert [v.id for v in aux] == ["aux_0"]
    assert rows[1:] == [Row({"z": 1, "aux_0": -1}, ">=", -1),
                        Row({"x": 1, "z": 1, "aux_0": -1, "y": -1}, ">=", -1)]


# the exact-solving demo's domain: the or-body of its third constraint keeps
# every server at most half loaded or hosting at most two tasks
DEMO03_DOC = """
nodetypes {{
  nodetype {{ name: Server  attrs {{ resCpu: int }} }}
  nodetype {{ name: Task  attrs {{ cpu: int  placed: bool }} }}
}}
edgetypes {{ edgetype {{ name: host  src: Task  tgt: Server }} }}
nodes {{
  node {{ id: s1  type: Server  attrs {{ resCpu: {0} }} }}
  node {{ id: s2  type: Server  attrs {{ resCpu: {1} }} }}
  node {{ id: t1  type: Task  attrs {{ cpu: {2}  placed: false }} }}
  node {{ id: t2  type: Task  attrs {{ cpu: {3}  placed: false }} }}
  node {{ id: t3  type: Task  attrs {{ cpu: {4}  placed: false }} }}
}}
"""

DEMO03_SPEC = """
rule place {
  nodes { t: Task  s: Server }
  condition { !t.placed & s.resCpu >= t.cpu }
  actions { create edge host(t -> s)  set t.placed := true
            set s.resCpu := s.resCpu - t.cpu }
}
mapping put with place;
constraint -> class::Server {
  mappings.put->filter(m | m.nodes().s == self)->sum(m | m.nodes().t.cpu) <= self.resCpu
}
constraint -> class::Task {
  self.placed | mappings.put->filter(m | m.nodes().t == self)->sum(m | 1) == 1
}
constraint -> class::Server {
  mappings.put->filter(m | m.nodes().s == self)->sum(m | m.nodes().t.cpu) <= 5
  | mappings.put->filter(m | m.nodes().s == self)->sum(m | 1) <= 2
}
objective fill -> mapping::put { self.nodes().t.cpu }
global objective : max { fill }
"""


def _demo03(res_s1=10, res_s2=6, cpus=(4, 6, 5)):
    mm, g = load_model(DEMO03_DOC.format(res_s1, res_s2, *cpus))
    return generate(typecheck(parse(DEMO03_SPEC), mm), g)


def test_demo03_or_body_rows_by_hand():
    problem, table = _demo03()
    on_s1 = {m.binding["t"]: vid for vid, (_, m) in table.items() if m.binding["s"] == "s1"}
    a, b, c = on_s1["t1"], on_s1["t2"], on_s1["t3"]
    # both atoms occur only positively: each gets the v = 1 => f <= 0 row alone,
    # with M = hi = 15 - 5 and 3 - 2
    body = [r for r in problem.constraints if a in r.coeffs and "aux_0" in r.coeffs]
    assert body == [Row({a: 4, b: 6, c: 5, "aux_0": 10}, "<=", 15)]
    assert _rows_with(problem.constraints, "aux_1") == [
        Row({a: 1, b: 1, c: 1, "aux_1": 1}, "<=", 3),
        Row({"aux_0": 1, "aux_1": 1}, ">=", 1)]
    assert sum(v.kind == AUX_BINARY for v in problem.variables) == 4


def test_demo03_solve_equals_brute_force_over_seeded_draws():
    rng = random.Random(3)
    for _ in range(8):
        problem, _ = _demo03(rng.randint(4, 14), rng.randint(4, 14),
                             [rng.randint(1, 8) for _ in range(3)])
        s, b = solve(problem), brute_force(problem)
        assert s.status == b.status
        if s.status == "optimal":
            assert s.objective_value == pytest.approx(b.objective_value, abs=1e-9)


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


def _sha256_of_dump(spec, g) -> str:
    return hashlib.sha256(dump_problem(*generate(spec, g)).encode()).hexdigest()


def test_dump_problem_golden_hashes(monkeypatch):
    """The programs of the `fullscale-compile` benchmark workload (the first
    two-server request of full_scale_config(1) on the fresh substrate) and of
    the `disjunctive` workload's instance 0 for seed 1 (clause rows, no
    indicators), pinned byte for byte."""
    substrate, vnrs = generate_scenario(full_scale_config(1))
    vnr = next(v for v in vnrs if len(v.nodes) == 5)
    assert _sha256_of_dump(embedding_spec(), merge_graphs(substrate, vnr)) == \
        "295f8e91493e393aac933da282c4279ec8abde8fd9eaec041325edc796e1b379"
    placement = perfbench_placement(monkeypatch)
    mm, g = load_model(placement.model_text(placement.make_instance(random.Random(1))))
    assert _sha256_of_dump(typecheck(parse(placement.spec_text()), mm), g) == \
        "ab8bb447e881ffd58b74fc01d1f854e5af095c0e7db17c5ca0aa1b05527c02e2"


INDICATOR_SPEC = TASK_SPEC[:TASK_SPEC.index("constraint")] + """
constraint -> class::Server {
  mappings.put->filter(m | m.nodes().s == self)->sum(m | m.nodes().t.cpu) <= 6
    | mappings.put->filter(m | m.nodes().s == self)->sum(m | 1) >= 2
}
constraint -> class::Task {
  !(mappings.put->filter(m | m.nodes().t == self)->sum(m | m.nodes().s.resCpu) > 9)
}
constraint -> class::Task {
  mappings.put->filter(m | m.nodes().t == self)->sum(m | m.nodes().s.resCpu) != 7
    | mappings.put->filter(m | m.nodes().t == self)->sum(m | 1) >= 1
}
constraint -> class::Server {
  mappings.put->filter(m | m.nodes().s == self)->sum(m | 1) == 0
    | !(mappings.put->filter(m | m.nodes().t.cpu > 5)->sum(m | 1) >= 1)
}
constraint -> class::Server {
  mappings.put->filter(m | m.nodes().s == self)->sum(m | 1) == 0
    | mappings.put->filter(m | m.nodes().s == self)->sum(m | m.nodes().t.cpu) >= 5
}
constraint -> class::Server {
  mappings.put->filter(m | m.nodes().s == self)->sum(m | 1) <= 0
    | !(mappings.put->filter(m | m.nodes().s == self)->sum(m | m.nodes().t.cpu) <= 3)
    | mappings.put->filter(m | m.nodes().t.cpu > 5)->sum(m | 1) >= 1
}
objective packObj -> mapping::put { self.nodes().s.resCpu / self.nodes().s.cpu }
global objective : min { packObj }
"""


def test_indicator_path_dump_golden_hash(task_model):
    """A program through every indicator path of `linearize`, pinned byte for
    byte: indicators with only their `v = 1` row (constraint 1), a negated
    relation as a singleton clause, with only the `v = 0` row (2), a
    two-signed `!=` as three tied indicators beside an "any" literal (3), a
    clause of two "none" literals, one a negated "any" (4), one "none"
    literal beside one positive general atom, `f + M x <= M` (5), and one
    "none" literal beside a negated general atom and an "any" literal (6)."""
    mm, g = task_model
    spec = typecheck(parse(INDICATOR_SPEC), mm)
    problem, _ = generate(spec, g)
    assert sum(v.kind == AUX_BINARY for v in problem.variables) == 18
    assert _sha256_of_dump(spec, g) == \
        "1cc3d50c4d1c0fcfdcb78bfb94708eecefad239816c48e8a5f6f76c9f3ecfa0a"


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


def test_a_sum_divided_by_zero_is_a_generation_error(task_model):
    mm, g = task_model
    spec = typecheck(parse(TASK_SPEC.replace("m.nodes().t.cpu) <= self.resCpu",
                                             "m.nodes().t.cpu) / 0 <= self.resCpu")), mm)
    with pytest.raises(GenerationError) as err:
        generate(spec, g)
    assert str(err.value) == "constraint 1 (class::Server), s1: division by zero"


def test_an_objective_of_weight_zero_is_never_evaluated(task_model, task_spec):
    mm, g = task_model
    spec = typecheck(parse(TASK_SPEC.replace(
        "global objective : min { packObj }",
        "objective bad -> class::Server { self.cpu / 0 }\n"
        "global objective : min { packObj + 0 * bad }")), mm)
    assert spec.global_objective.weights == {"packObj": 1.0, "bad": 0.0}
    assert generate(spec, g)[0].objective == generate(task_spec, g)[0].objective


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
        lower_sets(parse_expression(body), g.nodes["s1"], task_spec, g, table)


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
    # finite coefficients (9e307 for each of t1, t2 on s1), but the or-body
    # needs indicator rows, and their big-M, the bound 1.8e308, overflows
    mm, g = task_model
    spec = typecheck(parse(TASK_SPEC.replace(
        "->sum(m | m.nodes().t.cpu) <= self.resCpu",
        "->sum(m | 9e307) <= self.resCpu"
        " | mappings.put->filter(m | m.nodes().s == self)->sum(m | 1) >= 2")), mm)
    with pytest.raises(GenerationError, match=r"^constraint 1 .*non-finite"):
        generate(spec, g)


def test_mapping_table_rejects_duplicates():
    table = MappingTable()
    from graphilp.pattern import Match, Pattern, PatternNode
    p = Pattern("r", (PatternNode("a", "T"),))
    m = Match(p, {"a": "n1"})
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


def test_a_key_that_raises_falls_back_to_the_scan(task_model, task_spec, monkeypatch):
    # `self.nodes()` raises on a server (a spec built in code; the typechecker
    # refuses it). No task fits s0, so the scan never reaches the second key
    # there, and both runs blame s1, the first server with a match
    mm, g = task_model
    g = Graph(mm, [Node("s0", "Server", {"cpu": 32, "resCpu": 3}), *g.nodes.values()])
    body = parse_expression("mappings.put->filter(m | m.nodes().s == self"
                            " & m.nodes().t == self.nodes().t)->sum(m | 1) <= 1")
    server, *rest = task_spec.constraints
    assert server.context_target == "Server"
    spec = dataclasses.replace(task_spec,
                               constraints=[dataclasses.replace(server, body=body), *rest])
    indexed, scanned = _generate_both(spec, g, monkeypatch)
    assert indexed == scanned == ("GenerationError: constraint 1 (class::Server), s1: "
                                  "nodes() applies to a match")


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
    # and the index really skips work: count the (variable, match) pairs the
    # mapping sums examine, each one a filter or body evaluation
    examined = []
    candidates = encode_mod._Lowerer.candidates

    def counted(self, *args):
        pairs, rest = candidates(self, *args)
        examined.append(len(pairs))
        return pairs, rest
    monkeypatch.setattr(encode_mod._Lowerer, "candidates", counted)
    generate(spec, g)
    indexed = sum(examined)
    examined.clear()
    monkeypatch.setattr(encode_mod, "_index_plan", lambda *args: None)
    generate(spec, g)
    assert 0 < 4 * indexed < sum(examined)


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


@pytest.mark.parametrize("variant", sorted(ZONE_FILTERS))
def test_index_matches_scan_disjunctive_specs(variant, monkeypatch):
    zone_filter = ZONE_FILTERS[variant]
    text = PLACEMENT_SPEC
    for end in "AB":
        for zone in (0, 1):
            text = text.replace(f"{{{end}{zone}}}",
                                zone_filter.format(end=end.lower(), zone=zone))
    placement = perfbench_placement(monkeypatch)
    rng = random.Random(7)
    for _ in range(6):
        mm, g = load_model(placement.model_text(placement.make_instance(rng)))
        _assert_same(typecheck(parse(text), mm), g, monkeypatch)


def _task_spec_with_body(mm, body, kind="class", target="Server"):
    spec = typecheck(parse(TASK_SPEC), mm)
    cons = A.ConstraintDecl(kind, target, parse_expression(body), spec.constraints[0].pos)
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


def test_constraint_and_objective_share_a_bucket_dict(task_model, monkeypatch):
    # the Server capacity constraint and this objective both filter `put` by
    # node `s`: one bucket dict serves both, built once per generate call
    mm, g = task_model
    spec = typecheck(parse(TASK_SPEC.replace("global objective : min { packObj }", """
objective load -> class::Server {
  mappings.put->filter(m | m.nodes().s == self)->sum(m | m.nodes().t.cpu)
}
global objective : min { packObj + load }""")), mm)
    sums = []
    init = encode_mod._Sum.__init__

    def recorded(self, e):
        init(self, e)
        sums.append(self)
    monkeypatch.setattr(encode_mod._Sum, "__init__", recorded)

    def buckets_keyed_by_s():
        sums.clear()
        generate(spec, g)
        return [s.plan[3] for s in sums if s.plan is not None and s.plan[1] is not None
                and [field for field, _ in s.plan[1]] == ["s"]]
    first = buckets_keyed_by_s()
    assert len(first) == 2 and first[0] is first[1]
    again = buckets_keyed_by_s()
    assert again[0] is again[1] and again[0] is not first[0]


def test_mapping_context_objective_body_with_variables_is_refused(task_model, task_spec):
    # the typechecker refuses this body; the encoder still checks a spec built in code
    _, g = task_model
    packed = task_spec.objectives[0]
    body = parse_expression("mappings.put->sum(m | 1)")
    spec = dataclasses.replace(task_spec,
                               objectives=[dataclasses.replace(packed, body=body)])
    with pytest.raises(GenerationError, match="objective 'packObj', match 0 of place: "
                                              "mapping-context body must be constant per match"):
        generate(spec, g)
