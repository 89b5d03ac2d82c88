import dataclasses
import random
import types

import pytest

from graphilp import load_metamodel, load_model, parse, typecheck
from graphilp.lang import ast as A
from graphilp.lang.eval import EvalError, compile_expr
from graphilp.lang.lexer import LocatedError, TokenStream, is_word, quote
from graphilp.lang.parser import KEYWORDS as SPEC_KEYWORDS
from graphilp.lang.parser import MAX_DEPTH, DslSyntaxError, parse_expression
from graphilp.lang.typecheck import TypecheckError
from graphilp.model import _KEYWORDS as MODEL_KEYWORDS
from graphilp.model import ModelError, ModelParseError, Node
from graphilp.pattern import Match, Pattern
from graphilp.vne_model import EMBEDDING_SPEC, TWO_LINKS_MODEL, TWO_LINKS_SPEC, VNE_SCHEMA

from conftest import TASK_DOC, TASK_SPEC
from spec_printer import pretty, pretty_expr

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


@pytest.mark.parametrize("cls", A.Expr.__subclasses__(), ids=lambda c: c.__name__)
def test_children_are_the_expression_fields(cls):
    values, expected = {}, []
    for f in dataclasses.fields(cls):
        if f.name == "pos":
            continue
        if "Expr" in f.type:  # `Expr` or `Expr | None`
            expected.append(A.Num(len(expected)))
            values[f.name] = expected[-1]
        else:
            values[f.name] = "v"
    children = list(A.children(cls(**values)))
    assert len(children) == len(expected)
    assert all(c is e for c, e in zip(children, expected))
    if cls is A.SetSum:  # without a filter
        node = A.SetSum("m", None, None, "v", A.Num(1))
        assert list(A.children(node)) == [A.Num(1)]


def test_ast_nodes_are_slotted_and_compare_without_positions():
    classes = [c for c in vars(A).values()
               if isinstance(c, type) and c.__module__ == A.__name__]
    assert classes and all(dataclasses.is_dataclass(c) and "__slots__" in vars(c)
                           for c in classes)
    ast, shifted = parse(TASK_SPEC), parse("\n\n  " + TASK_SPEC)
    body, moved = ast.constraints[0].body, shifted.constraints[0].body
    for node in (ast, ast.global_objective, body, body.left, body.pos):
        assert not hasattr(node, "__dict__")
    assert moved.pos != body.pos and moved == body and shifted == ast
    assert repr(A.Num(1, A.Pos(2, 3))) == "Num(value=1)"


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


@pytest.mark.parametrize("text, line, col, message", [
    ("global objective : min {\n", 2, 1, "expected an expression, got end of input"),
    ("global objective : min { 1 +", 1, 29, "expected an expression, got end of input"),
    ("rule", 1, 5, "expected rule name, got end of input"),
    ("rule r {\n  nodes { a", 2, 12, "expected ':', got end of input"),
    ("objective o -> class::", 1, 23, "expected context target, got end of input"),
])
def test_end_of_input_is_named_as_such(text, line, col, message):
    with pytest.raises(DslSyntaxError) as err:
        parse(text)
    assert (err.value.line, err.value.col, err.value.message) == (line, col, message)


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


# Each builds an expression `k` levels high; the column of the token one level
# past MAX_DEPTH, in a text of depth MAX_DEPTH + 1.
NESTINGS = {
    "parentheses": (lambda k: "(" * k + "1" + ")" * k, MAX_DEPTH + 1),
    "not": (lambda k: "!" * k + "true", MAX_DEPTH + 1),
    "minus": (lambda k: "- " * k + "1", 2 * MAX_DEPTH + 1),
    "plus": (lambda k: " + ".join(["1"] * (k + 1)), 4 * MAX_DEPTH + 3),
    "and": (lambda k: " & ".join(["true"] * (k + 1)), 7 * MAX_DEPTH + 6),
}


@pytest.mark.parametrize("kind", NESTINGS)
def test_nesting_past_the_limit_is_a_located_syntax_error(kind):
    make, col = NESTINGS[kind]
    parse_expression(make(MAX_DEPTH))
    for k in (MAX_DEPTH + 1, 3000):
        with pytest.raises(DslSyntaxError) as err:
            parse_expression(make(k))
        assert (err.value.message, err.value.line, err.value.col) == (
            f"expression nests more than {MAX_DEPTH} levels deep", 1, col)
    with pytest.raises(DslSyntaxError, match=f"^2:{col}: expression nests"):
        parse(f"global objective : min {{\n{make(MAX_DEPTH + 1)} }}")


def test_nesting_counts_every_level_of_the_tree():
    sums = "mappings.m->filter(v | {})->sum(v | {})"
    for text in ("x" + ".a" * MAX_DEPTH, "sin(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH,
                 sums.format("(" * 99 + "true" + ")" * 99, 1),
                 sums.format(1, "(" * 99 + "1" + ")" * 99),
                 "(" * 50 + "- " * 50 + "1" + ")" * 50):
        parse_expression(text)
        with pytest.raises(DslSyntaxError, match="nests more than"):
            parse_expression(f"({text})")


@pytest.mark.parametrize("text, got, col", [
    ("a < b < c", "'<'", 32),
    ("a == b + 1 != c", "'!='", 37),
    ("a <= (b < c) >= d", "'>='", 39),
    ("a < b & c > d < e", "'<'", 40),
])
def test_relations_do_not_chain(text, got, col):
    with pytest.raises(DslSyntaxError) as err:
        parse(f"global objective : min {{ {text} }}")
    assert (err.value.message, err.value.line, err.value.col) == (f"expected '}}', got {got}",
                                                                  1, col)


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


# --- lexing ---------------------------------------------------------------------

LEX_CASES = [
    ("12.", [("INT", 12, 1, 1), (".", ".", 1, 3), ("EOF", None, 1, 4)]),
    ("1e", [("INT", 1, 1, 1), ("IDENT", "e", 1, 2), ("EOF", None, 1, 3)]),
    ("1e+", [("INT", 1, 1, 1), ("IDENT", "e", 1, 2), ("+", "+", 1, 3), ("EOF", None, 1, 4)]),
    ("1.5e-3", [("REAL", 1.5e-3, 1, 1), ("EOF", None, 1, 7)]),
    ("1e5e\u00b2", [("REAL", 1e5, 1, 1), ("IDENT", "e\u00b2", 1, 4), ("EOF", None, 1, 6)]),
    (".5", [(".", ".", 1, 1), ("INT", 5, 1, 2), ("EOF", None, 1, 3)]),
    ("1_0", [("INT", 1, 1, 1), ("IDENT", "_0", 1, 2), ("EOF", None, 1, 4)]),
    ("\u0663", [("INT", 3, 1, 1), ("EOF", None, 1, 2)]),  # ARABIC-INDIC DIGIT THREE
    ("\u00e9 x\u00b2", [("IDENT", "\u00e9", 1, 1), ("IDENT", "x\u00b2", 1, 3),
                       ("EOF", None, 1, 5)]),
    ('"\\n\\t\\"\\\\"', [("STRING", '\n\t"\\', 1, 1), ("EOF", None, 1, 11)]),
    ("a\r\n  b", [("IDENT", "a", 1, 1), ("IDENT", "b", 2, 3), ("EOF", None, 2, 4)]),
    ("a // c", [("IDENT", "a", 1, 1), ("EOF", None, 1, 7)]),
    ("a //", [("IDENT", "a", 1, 1), ("EOF", None, 1, 5)]),
    ("\tx", [("IDENT", "x", 1, 2), ("EOF", None, 1, 3)]),  # a tab is one column
    # only \n ends a line: \r is a blank, and a comment or string holds any other break
    ("a\r\n\r\nb\r\n", [("IDENT", "a", 1, 1), ("IDENT", "b", 3, 1), ("EOF", None, 4, 1)]),
    ("a // \x0c\x85\u2028\nb", [("IDENT", "a", 1, 1), ("IDENT", "b", 2, 1),
                                 ("EOF", None, 2, 2)]),
    ('"\x85\u2028" x', [("STRING", "\x85\u2028", 1, 1), ("IDENT", "x", 1, 6),
                       ("EOF", None, 1, 7)]),
    ("x  \t\r", [("IDENT", "x", 1, 1), ("EOF", None, 1, 6)]),
    # where one scan of the whole text could go wrong: its ends, a comment or a
    # string touching other lexemes, and a number running into a word
    ("", [("EOF", None, 1, 1)]),
    ("a//b", [("IDENT", "a", 1, 1), ("EOF", None, 1, 5)]),
    ('// "x', [("EOF", None, 1, 6)]),
    ("a\n", [("IDENT", "a", 1, 1), ("EOF", None, 2, 1)]),
    ("\n\n", [("EOF", None, 3, 1)]),
    ('a"b" c', [("IDENT", "a", 1, 1), ("STRING", "b", 1, 2), ("IDENT", "c", 1, 6),
                ("EOF", None, 1, 7)]),
    ("1.5e3x", [("REAL", 1500.0, 1, 1), ("IDENT", "x", 1, 6), ("EOF", None, 1, 7)]),
    ("x\r", [("IDENT", "x", 1, 1), ("EOF", None, 1, 3)]),
]

LEX_ERROR_CASES = [
    ("\u00b2", "unexpected character '\u00b2'", 1, 1),  # a digit, but not a decimal one
    ("x = 1024\u00b2", "unexpected character '\u00b2'", 1, 9),
    ("1e\u00b2", "unexpected character '\u00b2'", 1, 3),
    ("\u216b", "unexpected character '\u216b'", 1, 1),  # ROMAN NUMERAL TWELVE
    ("\n  " + "7" * 5000, "integer literal too long", 2, 3),
    ('"a\\\nb"', "bad escape in string", 1, 3),  # backslash-newline
    ('"a\\', "bad escape in string", 1, 3),  # backslash at EOF
    ('"a\\q"', "bad escape in string", 1, 3),
    ('x "ab\nc"', "unterminated string", 1, 3),
    ('x "ab', "unterminated string", 1, 3),
    ('x "ab  \r\n', "unterminated string", 1, 3),
    ("a\n \x0cb", "unexpected character '\\x0c'", 2, 2),
    ("a\r\nb \x85", "unexpected character '\\x85'", 2, 3),
    ("a\u2028b", "unexpected character '\\u2028'", 1, 2),
]


def lex(text: str, keywords: frozenset[str] = frozenset()) -> list[tuple]:
    """The (kind, value, line, col) of each token of `text`."""
    ts = TokenStream(text, LocatedError, keywords)
    return [(kind, value, *ts.position(i))
            for i, (kind, value) in enumerate(zip(ts.kinds, ts.values))]


@pytest.mark.parametrize("text, tokens", LEX_CASES, ids=[ascii(c[0]) for c in LEX_CASES])
def test_tokenize_edge_cases(text, tokens):
    assert lex(text) == tokens


@pytest.mark.parametrize("text, message, line, col", LEX_ERROR_CASES,
                         ids=[ascii(c[0])[:16] for c in LEX_ERROR_CASES])
def test_tokenize_errors_are_located(text, message, line, col):
    for error in (DslSyntaxError, ModelParseError):
        with pytest.raises(LocatedError) as info:
            TokenStream(text, error)
        assert type(info.value) is error
        assert (info.value.message, info.value.line, info.value.col) == (message, line, col)


@pytest.mark.parametrize("text, message, line, col", LEX_ERROR_CASES,
                         ids=[ascii(c[0])[:16] for c in LEX_ERROR_CASES])
def test_lexical_errors_surface_as_each_readers_error(text, message, line, col):
    # each reader tokenizes its whole text before it parses
    for error, read in ((DslSyntaxError, parse), (ModelParseError, load_model)):
        with pytest.raises(LocatedError) as info:
            read(text)
        assert type(info.value) is error
        assert (info.value.message, info.value.line, info.value.col) == (message, line, col)
        assert str(info.value) == f"{line}:{col}: {message}"


@pytest.mark.parametrize("s", ["", "plain", "tab\there", 'q"uote', "back\\slash",
                               "new\nline", "\\n", "\u00e9\u00b2"])
def test_quote_reads_back(s):
    assert [tok[:2] for tok in lex(quote(s))] == [("STRING", s), ("EOF", None)]


@pytest.mark.parametrize("s, word", [("a", True), ("_1", True), ("\u00e9x\u00b2", True),
                                     ("1a", False), ("\u00b2", False), ("a b", False),
                                     ("", False), ("a-b", False), (" a", False),
                                     ("a ", False), ("a\t", False), ("\ra", False),
                                     ("a\n", False), ("//", False), ("a//", False),
                                     ("a //", False)])
def test_is_word_agrees_with_tokenize(s, word):
    assert is_word(s) == word
    try:
        tokens = [tok[:2] for tok in lex(s)]
    except LocatedError:
        tokens = None
    assert (tokens == [("IDENT", s), ("EOF", None)]) == word


# Each mutation inserts, replaces, deletes or duplicates text; the pool holds what
# the lexer must reject cleanly: quotes, backslashes, a non-decimal digit and an
# integer literal too long for int().
FUZZ_POOL = ['"', "\\", "\\n", "\u00b2", "7" * 5000, "1e", "1.", "\u0663", "\u216b", "\u00e9",
             "\n", "\r\n", "\t", " ", "//", "/", ".", "-", "{", "}", "(", ")", ":", ";",
             "->", ":=", "==", "a", "_", "0", "9", "#", "\x0c"]


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + rng.choice(FUZZ_POOL) + text[i:]
        elif op == 1:
            text = text[:i] + rng.choice(FUZZ_POOL) + text[i + 1:]
        elif op == 2:
            text = text[:i] + text[i + rng.randint(1, 20):]
        else:
            j = rng.randrange(len(text) + 1)
            text = text[:i] + text[min(i, j):max(i, j)] + text[i:]
    return text


def test_token_positions_point_at_their_lexemes():
    """Each token of a mutated text reads back as itself from its (line, col),
    and EOF sits just past the last character. A mutation that the tokenizer
    rejects fails the same way in both readers, each with its own error."""
    rng = random.Random(14)
    sources = ((TWO_LINKS_SPEC, SPEC_KEYWORDS), (EMBEDDING_SPEC, SPEC_KEYWORDS),
               (TWO_LINKS_MODEL, MODEL_KEYWORDS))
    checked = rejected = 0
    for _ in range(300):
        source, keywords = rng.choice(sources)
        text = _mutate(rng, source)
        try:
            tokens = lex(text, keywords)
        except LocatedError as exc:
            where = (exc.message, exc.line, exc.col)
            for error, read in ((DslSyntaxError, parse), (ModelParseError, load_model)):
                with pytest.raises(LocatedError) as info:
                    read(text)
                assert type(info.value) is error
                assert (info.value.message, info.value.line, info.value.col) == where
            rejected += 1
            continue
        lines = text.split("\n")
        for kind, value, line, col in tokens[:-1]:
            first = lex(lines[line - 1][col - 1:], keywords)[0]
            assert first == (kind, value, 1, 1)
        assert tokens[-1][2:] == (len(lines), len(lines[-1]) + 1)
        checked += len(tokens)
    assert checked > 10_000 and rejected > 30


def test_front_end_fuzz_raises_only_diagnostics():
    rng = random.Random(10)
    mm = vne_mm()
    seen = set()
    for _ in range(1000):
        which = rng.choice(("model", "two-links", "embedding"))
        source = {"model": TWO_LINKS_MODEL, "two-links": TWO_LINKS_SPEC,
                  "embedding": EMBEDDING_SPEC}[which]
        text = _mutate(rng, source)
        try:
            if which == "model":
                load_model(text)
            else:
                typecheck(parse(text), mm)
        except (DslSyntaxError, TypecheckError, ModelError) as exc:
            seen.add(type(exc).__name__)
    assert {"DslSyntaxError", "TypecheckError", "ModelParseError"} <= seen


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


NESTED_SUM = "mappings.lnk2lnk->sum(k | 1)"


@pytest.mark.parametrize("condition, value, predicate, body", [
    (f"{NESTED_SUM} >= 1", "1", "true", "1"),
    ("true", NESTED_SUM, "true", "1"),
    ("true", "1", f"{NESTED_SUM} >= 1", "1"),
    ("true", "1", "true", NESTED_SUM),
], ids=["rule-condition", "action-value", "filter-predicate", "sum-body"])
def test_mapping_sum_where_none_is_allowed_is_one_diagnostic(condition, value, predicate,
                                                             body):
    # such a place is typed without mapping sums, so the sum is the one error there,
    # and no name in scope carries mapping variables into it
    text = (f"rule r {{ nodes {{ vl: VirtualLink  sl: SubstrateLink }}  "
            f"condition {{ {condition} }}  actions {{ set sl.resBw := {value} }} }}\n"
            f"mapping lnk2lnk with r;\n"
            f"constraint -> class::SubstrateLink {{ mappings.lnk2lnk->filter(m | {predicate})"
            f"->sum(m | {body}) <= self.resBw }}\n"
            f"global objective : min {{ 0 }}\n")
    line = next(i for i, ln in enumerate(text.split("\n"), 1) if NESTED_SUM in ln)
    col = text.split("\n")[line - 1].index(NESTED_SUM) + 1
    with pytest.raises(TypecheckError) as err:
        typecheck(parse(text), vne_mm())
    assert [(d.line, d.col, d.message) for d in err.value.diagnostics] == \
        [(line, col, "mapping sums are not allowed here")]


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
        compile_expr(parse_expression(text))({"huge": 10 ** 400}, None)


def _eval_env():
    _, g = load_model(TASK_DOC)
    match = Match(Pattern("place", ()), {"s": "s1", "t": "t1"})
    ghost = Match(Pattern("place", ()), {"s": "s9", "t": "t1"})
    twin = Node("s1", "Server", {})  # s1's id, other attributes
    # looks like a match to duck typing, but is not one
    duck = types.SimpleNamespace(rule="place", bound=(("s", "s1"), ("t", "t1")),
                                 binding={"s": "s1", "t": "t1"})
    return {"m": match, "n": g.nodes["s1"], "ghost": ghost, "twin": twin,
            "duck": duck, "huge": 10 ** 400}, g


# `value` is the expected result, or the EvalError message the evaluation ends in
@pytest.mark.parametrize("text, value", [
    ("false & (1 / 0 > 0)", False),
    ("true | (1 / 0 > 0)", True),
    ("(1 / 0 > 0) & false", "division by zero"),
    ("true & false | true", True),
    ("!3", "'!' applies to a boolean"),
    ("true & 3", "'&' applies to booleans"),
    ("false | 3", "'|' applies to booleans"),
    ('"a" < 1', "comparison operand is not a number"),
    ('1 == "a"', "cannot compare values of different kinds"),
    ("n == n & m == m & n != m.nodes().t", True),
    ("n == twin & twin == m.nodes().s", True),  # nodes are equal by id
    # the left operand's type is checked before the right one is evaluated
    ("3 & (1 / 0 > 0)", "'&' applies to booleans"),
    ("true + 1 / 0", "left operand is not a number"),
    ("1 / 0 + true", "division by zero"),
    ("1 + true", "right operand is not a number"),
    ("-true", "negation operand is not a number"),
    ('sqrt("a")', "sqrt argument is not a number"),
    # a relation evaluates both sides before it checks either
    ('"a" < 1 / 0', "division by zero"),
    ("n.nodes().s", "nodes() applies to a match"),
    ("m.nodes().x", "match has no pattern node 'x'"),
    ("m.nodes().s.cpu + m.nodes().t.cpu", 36),
    ("m.nodes().s.nope", "node 's1' has no attribute 'nope'"),
    ("ghost.nodes().s.cpu", "node 's9' not in graph"),
    ("duck.nodes().s", "nodes() applies to a match"),
    ("duck == m", "cannot compare values of different kinds"),
    ("m.cpu", "attribute 'cpu' read on a non-node value"),
    ("zz", "unbound name 'zz'"),
    ("self", "'self' is not bound here"),
    ("7 / 2 - 2 * 3", -2.5),
    # an int beyond the float range, met by a float or divided, is an EvalError
    ("huge * 0.5 >= 1", "'*' overflows the float range"),
    ("0.5 - huge", "'-' overflows the float range"),
    ("huge + 0.5", "'+' overflows the float range"),
    ("huge / 7", "'/' overflows the float range"),
    ("huge * huge > huge", True),
    ("huge >= 0.5", True),
])
def test_evaluation_semantics(text, value):
    env, g = _eval_env()
    run = compile_expr(parse_expression(text))
    if isinstance(value, str):
        with pytest.raises(EvalError) as err:
            run(env, g)
        assert str(err.value) == value
    else:
        got = run(env, g)
        assert got == value and type(got) is type(value)
        assert run(env, g) == value  # a closure can run again


def test_compile_expr_defers_errors_to_evaluation():
    run = compile_expr(parse_expression("mappings.put->sum(m | 1)"))
    with pytest.raises(EvalError, match="^mapping sums cannot be evaluated directly$"):
        run({}, None)
    with pytest.raises(EvalError, match="^cannot evaluate MappingDecl$"):
        compile_expr(A.MappingDecl("m", "r"))({}, None)


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


def test_edge_to_a_deleted_node_rejected():
    text = """
rule r {
  nodes { v: VirtualServer  s: SubstrateServer }
  actions { delete node s  create edge host(v -> s) }
}
global objective : min { 0 }
"""
    with pytest.raises(TypecheckError, match="4:28: node 's' is used after an action "
                                             "deletes it"):
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


@pytest.mark.parametrize("old, new, message", [
    ("self.mapped |", "self.mapped.x.x.x |", "attribute 'x' read on a non-node value"),
    ("self.mapped |", "!(-ghost * 2 > 1) |", "unknown name 'ghost'"),
    ("self.mapped |", "self == 1 |", "cannot compare a node with a number"),
    ("self.mapped |", "ghost.nodes().x.cpu > 0 |", "unknown name 'ghost'"),
    ("m.nodes().vl.bw)", "m.nodes().vl.x.y)", "type 'VirtualLink' has no attribute 'x'"),
    ("sl.resBw / self", "sl.ghost.x / self", "type 'SubstrateLink' has no attribute 'ghost'"),
], ids=["attribute-chain", "unknown-name", "bad-comparison", "nodes-of-unknown-name",
        "sum-body", "objective"])
def test_a_fault_gives_one_diagnostic(old, new, message):
    # the expression's type after its diagnostic is accepted by every later check
    assert old in TWO_LINKS_SPEC
    with pytest.raises(TypecheckError) as err:
        typecheck(parse(TWO_LINKS_SPEC.replace(old, new, 1)), vne_mm())
    assert [d.message for d in err.value.diagnostics] == [message]


_RM = "rule r { nodes { t: Task } } mapping m with r; "


# the smallest spec for each diagnostic, over TASK_DOC's metamodel, and the one
# diagnostic it gives; a spec without a global objective gets `min { 0 }`
@pytest.mark.parametrize("text, diagnostic", [
    ("rule r { } rule r { }", "1:12: duplicate rule 'r'"),
    ("rule r { nodes { a: Task  a: Task } }", "1:27: duplicate pattern node 'a'"),
    ("rule r { nodes { t: Task  s: Server }  edges { e: host(t -> s)  e: host(t -> s) } }",
     "1:65: duplicate pattern edge 'e'"),
    ("rule r { nodes { s: Server }  edges { e: host(s -> s) } }",
     "1:39: edge 'e': node 's' of type 'Server' can never conform to 'Task'"),
    ("rule r { actions { create node a: Ghost { } } }", "1:20: unknown node type 'Ghost'"),
    ("rule r { nodes { t: Task }  actions { create node t: Element { } } }",
     "1:39: node name 't' already in use"),
    ("rule r { actions { create node a: Element { x := 1 } } }",
     "1:20: 'Element' has no attribute 'x'"),
    ("rule r { actions { create node a: Task { cpu := 1 } } }",
     "1:20: created node 'a' misses attribute 'placed'"),
    ("rule r { nodes { t: Task }  actions { create edge ghost(t -> t) } }",
     "1:39: unknown edge type 'ghost'"),
    ("rule r { nodes { t: Task }  actions { create edge host(t -> t) } }",
     "1:39: node 't' of type 'Task' does not conform to 'Server'"),
    ("rule r { actions { delete edge e } }", "1:20: no LHS edge named 'e'"),
    ("rule r { actions { delete node a } }", "1:20: no LHS node named 'a'"),
    ("rule r { nodes { t: Task }  actions { set t.cpu := true } }",
     "1:39: attribute 'cpu' expects a number"),
    ("rule r { nodes { t: Task }  actions { set t.placed := 1 } }",
     "1:39: attribute 'placed' expects bool"),
    ("rule r { nodes { t: Task }  condition { self.cpu > 1 } }",
     "1:41: 'self' is not available here"),
    ("constraint -> class::Server { self.cpu.nodes().t == self }",
     "1:39: nodes() applies to a match"),
    ("constraint -> class::Server { !self.cpu }", "1:31: '!' applies to a boolean"),
    ("constraint -> class::Task { -self.placed < 1 }", "1:29: '-' applies to a number"),
    ("constraint -> class::Server { self.cpu & true }", "1:40: '&' applies to booleans"),
    ("constraint -> class::Task { self.placed + 1 > 0 }", "1:41: '+' applies to numbers"),
    ("constraint -> class::Task { self.placed < true }", "1:41: '<' applies to numbers"),
    ('constraint -> class::Task { self.placed == "a" }',
     "1:41: cannot compare a boolean with a string"),
    (_RM + "constraint -> class::Task { (mappings.m->sum(x | 1) >= 1) == true }",
     "1:106: comparison operands must not involve mapping variables"),
    (_RM + "constraint -> class::Task { mappings.m->filter(x | 1)->sum(x | 1) >= 0 }",
     "1:76: filter predicate must be boolean"),
    (_RM + "constraint -> class::Task { mappings.m->sum(x | true) >= 0 }",
     "1:76: sum body must be numeric"),
    ("constraint -> pattern::ghost { true }", "1:1: unknown rule 'ghost'"),
    ("rule r { } mapping m with r; mapping m with r;", "1:30: duplicate mapping 'm'"),
    ("constraint -> class::Task { 1 }", "1:1: constraint body must be boolean"),
    ("objective o -> class::Task { 1 } objective o -> class::Task { 1 }",
     "1:34: duplicate objective 'o'"),
    ("objective o -> class::Task { true }", "1:1: objective body must be numeric"),
    ("objective o -> class::Task { 1 } global objective : min { sin(o) }",
     "1:59: sin requires a constant subexpression"),
    ("objective o -> class::Task { 1 } global objective : min { 1 / o }",
     "1:61: objective weight is not constant"),
    ("global objective : min { 1 / 0 }", "1:28: division by zero in global objective"),
    ("global objective : min { true }",
     "1:26: global objective combines objective names with constant weights"),
])
def test_each_diagnostic_from_its_smallest_spec(text, diagnostic):
    if "global" not in text:
        text += " global objective : min { 0 }"
    with pytest.raises(TypecheckError) as err:
        typecheck(parse(text), load_model(TASK_DOC)[0])
    assert [str(d) for d in err.value.diagnostics] == [diagnostic]


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


def test_nodes_of_a_rejected_pattern_node_is_no_pattern_node():
    text = """
rule r { nodes { a: Ghost  s: SubstrateServer } }
mapping m with r;
constraint -> mapping::m { self.nodes().a >= 0 }
global objective : min { 0 }
"""
    with pytest.raises(TypecheckError) as err:
        typecheck(parse(text), vne_mm())
    assert [str(d) for d in err.value.diagnostics] == [
        "2:18: unknown node type 'Ghost'", "4:32: rule 'r' has no pattern node 'a'"]


@pytest.mark.parametrize("source", [TASK_SPEC, EMBEDDING_SPEC, TWO_LINKS_SPEC])
def test_typecheck_keeps_the_parsed_rules(source):
    ast = parse(source)
    mm = load_model(TASK_DOC)[0] if source is TASK_SPEC else vne_mm()
    typed = typecheck(ast, mm)
    assert ast.rules and len(typed.rules) == len(ast.rules)
    assert all(typed.rules[r.name] is r for r in ast.rules)


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
