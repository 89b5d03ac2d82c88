import random

import pytest

from graphilp import load_metamodel, load_model, parse, pretty, typecheck
from graphilp.lang import ast as A
from graphilp.lang.eval import EvalError, eval_expr
from graphilp.lang.parser import DslSyntaxError, parse_expression
from graphilp.lang.printer import pretty_expr
from graphilp.lang.typecheck import TypecheckError
from graphilp.vne_model import VNE_SCHEMA, EMBEDDING_SPEC, TWO_LINKS_SPEC

from conftest import TASK_DOC, TASK_SPEC

GLUE = """
rule server2server {
  nodes { vsrv: VirtualServer  ssrv: SubstrateServer }
  condition { !vsrv.mapped & ssrv.resCpu >= vsrv.cpu }
  actions {
    create edge host(vsrv -> ssrv)
    set ssrv.resCpu := ssrv.resCpu - vsrv.cpu
    set vsrv.mapped := true
  }
}
"""

SNIPPET_MAPPING = "mapping srv2srv with server2server;"

SNIPPET_CAPACITY = """constraint -> class::SubstrateServer {
    mappings.srv2srv->filter(m | m.nodes().ssrv == self)->sum(m |
    m.nodes().vsrv.cpu) <= self.resCpu
}"""

SNIPPET_OBJECTIVE = """objective srvObj -> mapping::srv2srv {
    self.nodes().ssrv.resCpu / self.nodes().ssrv.cpu
}"""

SNIPPET_GLOBAL = """global objective : min {
    srvObj
}"""


def vne_mm():
    return load_metamodel(VNE_SCHEMA)


def test_canonical_snippets_parse_verbatim_and_typecheck():
    text = "\n".join([GLUE, SNIPPET_MAPPING, SNIPPET_CAPACITY,
                      SNIPPET_OBJECTIVE, SNIPPET_GLOBAL])
    spec = typecheck(parse(text), vne_mm())
    assert [m.name for m in spec.mappings] == ["srv2srv"]
    assert spec.constraints[0].context_kind == "class"
    assert spec.constraints[0].context_target == "SubstrateServer"
    assert spec.objectives[0].name == "srvObj"
    assert spec.global_objective.sense == "min"
    assert spec.global_objective.weights == {"srvObj": 1.0}


def test_shipped_specs_contain_snippet_text_verbatim():
    assert SNIPPET_MAPPING in EMBEDDING_SPEC
    assert SNIPPET_CAPACITY in EMBEDDING_SPEC
    assert SNIPPET_OBJECTIVE in EMBEDDING_SPEC
    assert SNIPPET_GLOBAL in EMBEDDING_SPEC


def test_mapping_parse_shape():
    spec = parse(SNIPPET_MAPPING + "\nglobal objective : min { 0 }")
    assert spec.mappings[0] == A.MappingDecl("srv2srv", "server2server")


def test_global_objective_parse_shape():
    spec = parse("global objective : min { srvObj }")
    g = spec.global_objective
    assert g.sense == "min"
    assert g.expr == A.Name("srvObj")


def test_constraint_with_literal_true_body():
    spec = parse("constraint -> class::X { true }\nglobal objective : max { 0 }")
    assert spec.constraints[0].body == A.BoolLit(True)
    assert spec.global_objective.sense == "max"


def test_missing_global_objective_is_an_error():
    with pytest.raises(DslSyntaxError, match="missing global objective"):
        parse("mapping a with b;")
    with pytest.raises(DslSyntaxError, match="missing global objective"):
        parse("")


def test_duplicate_global_objective_rejected():
    with pytest.raises(DslSyntaxError, match="duplicate global objective"):
        parse("global objective : min { 0 }\nglobal objective : min { 0 }")


def test_syntax_error_has_location_and_expectation():
    with pytest.raises(DslSyntaxError) as err:
        parse("mapping srv2srv server2server;")
    assert err.value.line == 1
    assert "expected" in err.value.message


def test_operator_precedence():
    e = parse_expression("1 + 2 * 3 - 4 / 2")
    # ((1 + (2*3)) - (4/2))
    assert isinstance(e, A.Binary) and e.op == "-"
    assert isinstance(e.left, A.Binary) and e.left.op == "+"
    assert isinstance(e.left.right, A.Binary) and e.left.right.op == "*"
    b = parse_expression("!a.p & x.v >= 3 | c.q")
    assert isinstance(b, A.Binary) and b.op == "|"
    assert isinstance(b.left, A.Binary) and b.left.op == "&"
    assert isinstance(b.left.left, A.Unary) and b.left.left.op == "!"
    assert isinstance(b.left.right, A.Rel)


def test_left_associativity():
    e = parse_expression("10 - 4 - 3")
    assert isinstance(e.left, A.Binary) and e.left.op == "-"
    assert e.right == A.Num(3)


def test_comments_and_strings():
    spec = parse("// a comment\nglobal objective : min { 0 } // trailing\n")
    assert spec.global_objective is not None
    e = parse_expression('"a\\"b"')
    assert e == A.StrLit('a"b')


def test_set_expression_shapes():
    e = parse_expression("mappings.put->sum(m | 1)")
    assert e == A.SetSum("put", None, None, "m", A.Num(1))
    e = parse_expression("mappings.put->filter(m | m == self)->sum(m | 2)")
    assert e.filter_var == "m"
    assert e.filter_pred == A.Rel("==", A.Name("m"), A.SelfRef())


def test_filter_requires_sum():
    with pytest.raises(DslSyntaxError, match="expected '->'"):
        parse_expression("mappings.put->filter(m | true)")


# --- typechecking ---------------------------------------------------------------

def check_body(body: str, context: str = "class::SubstrateServer",
               extra: str = GLUE + "\n" + SNIPPET_MAPPING):
    text = f"{extra}\nconstraint -> {context} {{ {body} }}\n" \
           f"global objective : min {{ 0 }}"
    return typecheck(parse(text), vne_mm())


def test_unknown_attribute_diagnosed():
    with pytest.raises(TypecheckError, match="no attribute 'ram'"):
        check_body("self.ram >= 1")


def test_nodes_navigation_in_class_context_rejected():
    with pytest.raises(TypecheckError, match="class context"):
        check_body("self.nodes().ssrv.resCpu >= 1")


def test_nodes_navigation_in_mapping_context_allowed():
    spec = check_body("self.nodes().ssrv.resCpu >= 1", context="mapping::srv2srv")
    assert spec.constraints


def test_filter_predicate_with_mapping_sum_rejected():
    with pytest.raises(TypecheckError, match="not allowed here"):
        check_body("mappings.srv2srv->filter(m | mappings.srv2srv->sum(k | 1) >= 1)"
                   "->sum(m | 1) >= 0")


def test_nonlinear_product_rejected():
    with pytest.raises(TypecheckError, match="variable \\* variable"):
        check_body("mappings.srv2srv->sum(m | 1) * mappings.srv2srv->sum(m | 1) >= 0")


def test_division_by_variable_term_rejected():
    with pytest.raises(TypecheckError, match="division by a mapping-variable"):
        check_body("1 / mappings.srv2srv->sum(m | 1) >= 0")


def test_sqrt_of_variable_term_rejected():
    with pytest.raises(TypecheckError, match="constant subexpression"):
        check_body("sqrt(mappings.srv2srv->sum(m | 1)) >= 0")


def test_sqrt_of_constant_allowed():
    spec = check_body("sqrt(16) >= 4 & self.resCpu >= 0")
    assert spec.constraints


@pytest.mark.parametrize("text", ["sin(1e308 * 10)", "cos(0 - 1e308 * 10)", "sqrt(0 - 1)",
                                  "sin(huge)"])
def test_undefined_function_value_is_an_eval_error(text):
    # math raises ValueError (or OverflowError for an int beyond the float range)
    with pytest.raises(EvalError, match="is undefined"):
        eval_expr(parse_expression(text), {"huge": 10 ** 400}, None)


def test_unknown_rule_in_mapping_diagnosed():
    with pytest.raises(TypecheckError, match="unknown rule"):
        typecheck(parse("mapping put with nowhere;\n"
                        "global objective : min { 0 }"), vne_mm())


def test_unknown_objective_in_global_diagnosed():
    with pytest.raises(TypecheckError, match="unknown objective"):
        typecheck(parse("global objective : min { ghost }"), vne_mm())


def test_objective_weights_fold():
    text = (GLUE + SNIPPET_MAPPING +
            "\nobjective a -> mapping::srv2srv { 1 }" +
            "\nobjective b -> mapping::srv2srv { 2 }" +
            "\nglobal objective : max { 2 * a - b / 4 + 1 }")
    spec = typecheck(parse(text), vne_mm())
    assert spec.global_objective.weights == {"a": 2.0, "b": -0.25}
    assert spec.global_objective.constant == 1.0


def test_nonconstant_weight_rejected():
    text = (GLUE + SNIPPET_MAPPING +
            "\nobjective a -> mapping::srv2srv { 1 }" +
            "\nobjective b -> mapping::srv2srv { 1 }" +
            "\nglobal objective : min { a * b }")
    with pytest.raises(TypecheckError, match="not constant"):
        typecheck(parse(text), vne_mm())


def test_mapping_context_objective_with_sum_rejected():
    text = (GLUE + SNIPPET_MAPPING +
            "\nobjective a -> mapping::srv2srv { mappings.srv2srv->sum(m | 1) }" +
            "\nglobal objective : min { a }")
    with pytest.raises(TypecheckError, match="coefficient"):
        typecheck(parse(text), vne_mm())


def test_class_context_objective_warns_when_constant():
    text = (GLUE + SNIPPET_MAPPING +
            "\nobjective a -> class::SubstrateServer { self.resCpu }" +
            "\nglobal objective : min { a }")
    spec = typecheck(parse(text), vne_mm())
    assert any("constant" in str(w) for w in spec.warnings)


def test_int_attribute_rejects_real_assignment():
    text = """
rule r {
  nodes { s: SubstrateServer }
  actions { set s.resCpu := s.resCpu / 2 }
}
global objective : min { 0 }
"""
    with pytest.raises(TypecheckError, match="is int but value is real"):
        typecheck(parse(text), vne_mm())


def test_rule_condition_must_be_boolean():
    text = """
rule r {
  nodes { s: SubstrateServer }
  condition { s.resCpu + 1 }
}
global objective : min { 0 }
"""
    with pytest.raises(TypecheckError, match="must be boolean"):
        typecheck(parse(text), vne_mm())


def test_comparing_node_with_match_rejected():
    with pytest.raises(TypecheckError, match="cannot compare a node with a match"):
        check_body("mappings.srv2srv->filter(m | m == self)->sum(m | 1) >= 0",
                   context="class::SubstrateServer")


def test_node_equality_only_supports_eq_and_ne():
    with pytest.raises(TypecheckError, match="does not apply to graph elements"):
        check_body("mappings.srv2srv->filter(m | m.nodes().ssrv <= self)"
                   "->sum(m | 1) >= 0")


@pytest.mark.parametrize("predicate, message", [
    ("m.nodes().ssrv == 3", "cannot compare a node with a number"),
    ("m.nodes().ssrv < self", "'<' does not apply to graph elements"),
    ("m == self.cpu", "cannot compare a match with a number"),
])
def test_bad_filter_comparison_gives_one_diagnostic(predicate, message):
    with pytest.raises(TypecheckError) as err:
        check_body(f"mappings.srv2srv->filter(m | {predicate})->sum(m | 1) >= 0")
    assert [d.message for d in err.value.diagnostics] == [message]


def test_rule_with_unknown_node_and_edge_types_gives_located_diagnostics():
    text = """
rule r {
  nodes { a: Ghost  s: SubstrateServer }
  edges { e: ghost(s -> s) }
}
global objective : min { 0 }
"""
    with pytest.raises(TypecheckError) as err:
        typecheck(parse(text), vne_mm())
    assert [str(d) for d in err.value.diagnostics] == [
        "3:11: unknown node type 'Ghost'", "4:11: unknown edge type 'ghost'"]


def test_diagnostics_carry_locations():
    try:
        typecheck(parse("constraint -> class::Nowhere { true }\n"
                        "global objective : min { 0 }"), vne_mm())
        raise AssertionError("expected failure")
    except TypecheckError as err:
        assert all(d.line > 0 for d in err.diagnostics)


# --- printer round-trip -----------------------------------------------------------

@pytest.mark.parametrize("source", [TASK_SPEC, EMBEDDING_SPEC, TWO_LINKS_SPEC])
def test_pretty_print_round_trip_on_shipped_specs(source):
    ast = parse(source)
    assert parse(pretty(ast)) == ast


def random_expr(rng: random.Random, depth: int = 0):
    leafs = [
        lambda: A.Num(rng.randint(0, 99)),
        lambda: A.Num(rng.randint(1, 99) / 4),
        lambda: A.Name(rng.choice("abc")),
        lambda: A.AttrRef(A.Name(rng.choice("st")), rng.choice(["cpu", "resCpu"])),
        lambda: A.SelfRef(),
    ]
    if depth >= 4 or rng.random() < 0.3:
        return rng.choice(leafs)()
    roll = rng.random()
    if roll < 0.55:
        op = rng.choice(["+", "-", "*", "/"])
        return A.Binary(op, random_expr(rng, depth + 1), random_expr(rng, depth + 1))
    if roll < 0.7:
        return A.Unary("-", random_expr(rng, depth + 1))
    if roll < 0.8:
        return A.Unary(rng.choice(["sin", "cos", "sqrt"]),
                       random_expr(rng, depth + 1))
    if roll < 0.9:
        op = rng.choice(["<", "<=", "==", "!=", ">=", ">"])
        return A.Rel(op, random_expr(rng, depth + 1), random_expr(rng, depth + 1))
    bool_side = lambda: A.Rel("<=", random_expr(rng, depth + 2),
                              random_expr(rng, depth + 2))
    node = A.Binary(rng.choice(["&", "|"]), bool_side(), bool_side())
    if rng.random() < 0.4:
        node = A.Unary("!", node)
    return node


def test_pretty_print_round_trip_random_expressions():
    rng = random.Random(2024)
    for _ in range(400):
        e = random_expr(rng)
        printed = pretty_expr(e)
        assert parse_expression(printed) == e, printed
