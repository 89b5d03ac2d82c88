import random
import re

import pytest

from graphilp import export_lp, generate, import_lp, problems_equal
from graphilp.encode import BINARY, IlpProblem, ObjectiveFunc, Row, Variable
from graphilp.lpformat import LpExportError, LpParseError
from graphilp.vne_model import two_links_model, two_links_spec

from conftest import random_problem


def test_minimal_export_has_all_sections():
    p = IlpProblem([Variable("x", BINARY)],
                   [Row({"x": 1}, "<=", 1)],
                   ObjectiveFunc("min", {"x": 1}))
    text = export_lp(p)
    for section in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
        assert section in text
    assert text.index("Minimize") < text.index("Subject To") \
        < text.index("Bounds") < text.index("Binary") < text.index("End")
    assert " x" in text


def test_two_links_export_rows():
    _, g = two_links_model()
    problem, table = generate(two_links_spec(), g)
    text = export_lp(problem, table)
    assert "c0: 100 m_lnk2lnk_0 <= 1000" in text
    assert "c1: 100 m_lnk2lnk_1 <= 500" in text
    assert "c2: m_lnk2lnk_0 + m_lnk2lnk_1 = 1" in text
    assert "Maximize" not in text


def test_two_links_round_trip():
    _, g = two_links_model()
    problem, table = generate(two_links_spec(), g)
    again = import_lp(export_lp(problem, table))
    assert problems_equal(problem, again)
    assert again == problem  # exact for integral/half coefficients


def test_random_problem_round_trips():
    rng = random.Random(4)
    for _ in range(80):
        p = random_problem(rng)
        q = import_lp(export_lp(p))
        assert problems_equal(p, q)


def test_export_is_a_fixed_point_of_import():
    rng = random.Random(5)
    for _ in range(80):
        text = export_lp(random_problem(rng))
        assert export_lp(import_lp(text)) == text


def test_negative_coefficients_and_constant_round_trip():
    p = IlpProblem(
        [Variable("a", BINARY), Variable("b", BINARY)],
        [Row({"a": -3, "b": 2}, ">=", -1), Row({"a": 1}, "=", 0)],
        ObjectiveFunc("max", {"a": -0.5, "b": 7}, -2.25))
    q = import_lp(export_lp(p))
    assert problems_equal(p, q)
    assert q.objective.sense == "max"
    assert q.objective.constant == -2.25


def test_bounds_entry_rejected():
    text = ("Minimize\n obj: x0\nSubject To\n c0: x0 + s <= 4\n"
            "Bounds\n 0 <= s <= 12.5\nBinary\n x0\n s\nEnd\n")
    with pytest.raises(LpParseError, match="line 6: bounds are not supported"):
        import_lp(text)


def test_name_not_declared_binary_rejected():
    text = "Minimize\n obj: x0\nSubject To\n c0: x0 + s <= 4\nBinary\n x0\nEnd\n"
    with pytest.raises(LpParseError, match="line 4: variable 's' is not declared binary"):
        import_lp(text)


@pytest.mark.parametrize("row", ["c0: 1e999 x0 <= 4", "c0: x0 <= 1e999"])
def test_non_finite_row_number_rejected(row):
    text = f"Minimize\n obj: x0\nSubject To\n {row}\nBinary\n x0\nEnd\n"
    with pytest.raises(LpParseError, match="line 4: non-finite coefficient or constant"):
        import_lp(text)


@pytest.mark.parametrize("obj", ["obj: 1e999 x0", "obj: x0 - 1e999"])
def test_non_finite_objective_number_rejected(obj):
    text = f"Minimize\n {obj}\nSubject To\n c0: x0 >= 1\nBinary\n x0\nEnd\n"
    with pytest.raises(LpParseError, match="line 2: non-finite coefficient or constant"):
        import_lp(text)


def test_aux_binaries_keep_their_kind():
    p = IlpProblem(
        [Variable("m_put_0", BINARY), Variable("aux_0", "auxiliary-binary")],
        [Row({"m_put_0": 1, "aux_0": 5}, "<=", 5)],
        ObjectiveFunc("min", {"m_put_0": 1}))
    q = import_lp(export_lp(p))
    kind = {v.id: v.kind for v in q.variables}
    assert kind["aux_0"] == "auxiliary-binary"
    assert kind["m_put_0"] == BINARY


def test_twelve_significant_digits():
    p = IlpProblem([Variable("x", BINARY)],
                   [Row({"x": 1 / 3}, "<=", 2 / 3)],
                   ObjectiveFunc("min", {"x": 1}))
    text = export_lp(p)
    assert "0.333333333333 x" in text
    q = import_lp(text)
    assert problems_equal(p, q, tol=1e-11)


def test_hand_written_exactly_once_file():
    text = """\
Minimize
 obj: m_lnk2lnk_0 + 0.5 m_lnk2lnk_1
Subject To
 once: m_lnk2lnk_0 + m_lnk2lnk_1 = 1
Bounds
Binary
 m_lnk2lnk_0
 m_lnk2lnk_1
End
"""
    p = import_lp(text)
    assert len(p.constraints) == 1
    row = p.constraints[0]
    assert row.rel == "=" and row.rhs == 1
    assert row.coeffs == {"m_lnk2lnk_0": 1, "m_lnk2lnk_1": 1}
    assert [v.id for v in p.variables] == ["m_lnk2lnk_0", "m_lnk2lnk_1"]


def test_constant_before_negated_variable_keeps_its_sign():
    text = """\
Minimize
 obj: - 3 - x
Subject To
 c0: - 2 - x <= 5
Binary
 x
End
"""
    p = import_lp(text)
    assert p.objective.terms == {"x": -1} and p.objective.constant == -3
    row = p.constraints[0]
    assert row.coeffs == {"x": -1} and row.rhs == 7


def test_malformed_section_header_rejected():
    with pytest.raises(LpParseError):
        import_lp("Minimize\n obj: x\nSubject Two\n c0: x <= 1\nEnd\n")


def test_unlabelled_constraint_rejected():
    with pytest.raises(LpParseError, match="label"):
        import_lp("Minimize\n obj: x\nSubject To\n x <= 1\nEnd\n")


def test_missing_objective_section_rejected():
    with pytest.raises(LpParseError, match="Minimize"):
        import_lp("Subject To\n c0: x <= 1\nEnd\n")


def test_case_insensitive_keywords_accepted():
    text = "minimize\n obj: 2 x\nsubject to\n c0: x <= 1\nbinary\n x\nend\n"
    p = import_lp(text)
    assert p.objective.terms == {"x": 2}


def _program(sense, rows, binaries=("x", "y"), terms=None, constant=0.0):
    return IlpProblem([Variable(v, BINARY) for v in binaries], rows,
                      ObjectiveFunc(sense, {"x": 2} if terms is None else terms, constant))


_XY_LE_1 = [Row({"x": 1, "y": 1}, "<=", 1)]


@pytest.mark.parametrize("text,expected", [
    # every section spelling, in any case, headers indented with blanks
    ("min\n obj: 2 x\nst\n c0: x + y <= 1\nbin\n x\n y\nend\n",
     _program("min", _XY_LE_1)),
    ("MAX\n obj: 2 x\nS.T.\n c0: x + y <= 1\nBINARIES\n x\n y\nEND\n",
     _program("max", _XY_LE_1)),
    ("  Maximize  \n obj: 2 x\n\tsuch  that\n c0: x + y <= 1\n Binary\n x\n y\n  End\n",
     _program("max", _XY_LE_1)),
    ("MiNiMiZe\n obj: 2 x\nsubject   to\n c0: x + y <= 1\nBounds\nbinary\n x\n y\nEnd\n",
     _program("min", _XY_LE_1)),
    ("Minimize\n obj: 2 x\nSubject To\n c0: x + y <= 1\nBinary\n x\n y\nEnd\n"
     "anything after End is ignored ?\n",
     _program("min", _XY_LE_1)),
    # every relation spelling
    ("Minimize\n obj: 2 x\nSubject To\n c0: x + y < 1\n c1: x =< 1\n c2: y > 0\n"
     " c3: y => 0\n c4: x - y = 0\n c5: x >= -1\nBinary\n x\n y\nEnd\n",
     _program("min", [Row({"x": 1, "y": 1}, "<=", 1), Row({"x": 1}, "<=", 1),
                      Row({"y": 1}, ">=", 0), Row({"y": 1}, ">=", 0),
                      Row({"x": 1, "y": -1}, "=", 0), Row({"x": 1}, ">=", -1)])),
    # backslash comments: before the first header, alone on a line, after tokens
    ("\\ a program\n  \\ indented\n\nMinimize\n obj: 2 x \\ weight two\n\\ rows next\n"
     "Subject To\n c0: x + y <= 1 \\ at most one\nBinary\n x\n y \\ last\nEnd\n",
     _program("min", _XY_LE_1)),
    # a row that spans two lines, and two rows on one line
    ("Minimize\n obj: 2 x\nSubject To\n c0: x +\n y <= 1\n c1: x >= 0 c2: y <= 1\n"
     "Binary\n x\n y\nEnd\n",
     _program("min", [Row({"x": 1, "y": 1}, "<=", 1), Row({"x": 1}, ">=", 0),
                      Row({"y": 1}, "<=", 1)])),
    # labels are optional on the objective; constants and repeated names fold
    ("Minimize\n 3 + x - 2 x - 1.5\nSubject To\n c0: 2 + x + x <= 4\nBinary\n x\nEnd\n",
     _program("min", [Row({"x": 2}, "<=", 2)], binaries=("x",),
              terms={"x": -1}, constant=1.5)),
    # empty General sections are harmless
    ("Minimize\n obj: 2 x\nGenerals\nGen\nBinary\n x\n y\nEnd\n", _program("min", [])),
    # numerals: a name may look like an exponent, and `2z` is two tokens
    ("Minimize\n obj: e5 + .5 y + 1e1 z\nSubject To\n c0: 2z <= 1\nBinary\n e5\n y\n z\nEnd\n",
     _program("min", [Row({"z": 2}, "<=", 1)], binaries=("e5", "y", "z"),
              terms={"e5": 1, "y": 0.5, "z": 10})),
    # `x.1.2` is one name, `1e5x` a numeral and a name
    ("Minimize\n obj: x.1.2 + 1e5x\nBinary\n x.1.2\n x\nEnd\n",
     _program("min", [], binaries=("x.1.2", "x"), terms={"x.1.2": 1, "x": 1e5})),
    # a no-break space is a blank; a comment may touch the token before it
    ("Minimize\n obj:\xa02\xa0x\\c\nSubject To\n c0: x + y <= 1\\c\nBinary\n x\\c\n y\nEnd\n",
     _program("min", _XY_LE_1)),
    # trailing blanks and tabs
    ("Minimize \t\n obj: 2 x \t \nSubject To\t\n c0: x + y <= 1\t\t\nBinary\n x \n y\t\nEnd\n",
     _program("min", _XY_LE_1)),
    # a term may continue on the next line after its sign
    ("Minimize\n obj: x +\n x\nSubject To\n c0: x +\n y <= 1\nBinary\n x\n y\nEnd\n",
     _program("min", _XY_LE_1)),
    # every line boundary `str.splitlines` knows ends a line
    ("Minimize\r\n obj: 2 x\x0cSubject To\x85 c0: x + y <= 1\u2028Binary\r\n x\n y\nEnd\n",
     _program("min", _XY_LE_1)),
])
def test_reader_accepts(text, expected):
    assert import_lp(text) == expected


@pytest.mark.parametrize("text,message,line", [
    ("Minimize\n obj: x\nSubject To\n c0: x ? 1\nBinary\n x\nEnd\n",
     "unexpected character '?'", 4),
    ("Minimize\n obj: x\nSubject To\n c0: x <= 1\nBinary\n x\n y!\nEnd\n",
     "unexpected character '!'", 7),
    ("Minimize\n obj: x <= 1\nSubject To\n c0: x ? 1\nEnd\n",
     "unexpected token '<='", 2),
    ("Minimize\n obj: x\nSubject To\n c0: x : y <= 1\n c1: y ? 1\nEnd\n",
     "unexpected character '?'", 5),
    ("Minimize\n obj: x\nSubject To\n c0: x : y <= 1\nEnd\n",
     "unexpected token ':'", 4),
    ("Minimize\n obj: x\nSubject To\n c0: x +\n y\nBinary\n x\n y\nEnd\n",
     "constraint without relation", 5),
    ("Minimize\n obj: x\nSubject To\n c0: x <=\n y\nBinary\n x\n y\nEnd\n",
     "constraint needs a numeric right-hand side", 4),
    ("x\nMinimize\n obj: x\nEnd\n", "expected a section header", 1),
    ("\\ comment\nMinimize \\ not a header\n obj: x\nEnd\n",
     "expected a section header", 2),
    ("Minimize\n obj: x\nSubject To\n c0: x <= 1\nGeneral\n\n x\nBinary\n x\nEnd\n",
     "general integer variables are not supported: every variable is binary", 7),
    # only names go under Binary, each once
    ("Minimize\n obj: x\nBinary\n x + 3 <= :\nEnd\n", "expected a variable name, got '+'", 4),
    ("Minimize\n obj: x\nBinary\n x\n 3\nEnd\n", "expected a variable name, got '3'", 5),
    ("Minimize\n obj: x\nBinary\n x\n y: x\nEnd\n", "expected a variable name, got ':'", 5),
    ("Minimize\n obj: x\nBinary\n x x\nEnd\n", "variable 'x' is declared binary twice", 4),
    ("Minimize\n obj: x\nBinary\n x\nBin\n y\n x\nEnd\n",
     "variable 'x' is declared binary twice", 7),
    # an undeclared name is reported on its own line
    ("Minimize\n obj: x\n + y\nSubject To\nBinary\n x\nEnd\n",
     "variable 'y' is not declared binary", 3),
    ("Minimize\n obj: x\nSubject To\n c0: x\n + y <= 1\nBinary\n x\nEnd\n",
     "variable 'y' is not declared binary", 5),
    # token boundaries: a lone `.`, `1.`, characters outside ASCII names
    ("Minimize\n obj: x .\nBinary\n x\nEnd\n", "unexpected character '.'", 2),
    ("Minimize\n obj: 1. x\nBinary\n x\nEnd\n", "unexpected character '.'", 2),
    ("Minimize\n obj: \u00e9\nEnd\n", "unexpected character '\u00e9'", 2),
    ("Minimize\n obj: x\nSubject To\n c0: \u017f <= 1\nEnd\n",
     "unexpected character '\u017f'", 4),
    # lines end at `\r\n`, `\x0c`, `\x85` and `\u2028`
    ("Minimize\r\n obj: x\x0c\x85\u2028 ?\nEnd\n", "unexpected character '?'", 5),
    # a label is a name, and a row label is used once
    ("Minimize\n obj: x\nSubject To\n <=: x <= 1\nBinary\n x\nEnd\n",
     "a constraint label must be a name, got '<='", 4),
    ("Minimize\n obj: x\nSubject To\n c0: x >= 0\n 7: x <= 1\nBinary\n x\nEnd\n",
     "a constraint label must be a name, got '7'", 5),
    ("Minimize\n +: x\nSubject To\n c0: x <= 1\nBinary\n x\nEnd\n",
     "an objective label must be a name, got '+'", 2),
    ("Minimize\n obj: x\nSubject To\n c: x <= 1\n c: x >= 0\nBinary\n x\nEnd\n",
     "constraint label 'c' is used twice", 5),
    # a sign needs a term after it
    ("Minimize\n obj: x\nSubject To\n c0: x + <= 1\nBinary\n x\nEnd\n",
     "sign '+' has no term after it", 4),
    ("Minimize\n obj: x\nSubject To\n c0: - <= 1\nBinary\n x\nEnd\n",
     "sign '-' has no term after it", 4),
    ("Minimize\n obj: x -\nSubject To\n c0: x <= 1\nBinary\n x\nEnd\n",
     "sign '-' has no term after it", 2),
    ("Minimize\n obj: x\nSubject To\n c0: x\n - <= 1\nBinary\n x\nEnd\n",
     "sign '-' has no term after it", 5),
    # ... but a row that never reaches its relation is reported as such
    ("Minimize\n obj: x\nSubject To\n c0: x +\nBinary\n x\nEnd\n",
     "constraint without relation", 4),
])
def test_reader_rejects(text, message, line):
    with pytest.raises(LpParseError) as info:
        import_lp(text)
    assert (info.value.message, info.value.line) == (message, line)


@pytest.mark.parametrize("names,row,objective,refused", [
    (["x", "end"], {"x": 1}, {"x": 1}, "end"),
    (["St", "x"], {"x": 1}, {"x": 1}, "St"),
    (["x", "s.t."], {"x": 1}, {"x": 1}, "s.t."),
    (["MIN", "x"], {"x": 1}, {"x": 1}, "MIN"),
    (["bin"], {"bin": 1}, {}, "bin"),
    (["x y", "2z"], {"x y": 1}, {"2z": 1}, "x y"),
    (["x", "2z"], {"x": 1}, {"2z": 1}, "2z"),
    (["x", ""], {"x": 1}, {"x": 1}, ""),
    (["x"], {"x": 1, "y": 1}, {"x": 1}, "y"),
    (["x"], {"x": 1}, {"z": 1}, "z"),
])
def test_export_refuses_what_import_cannot_read_back(names, row, objective, refused):
    p = IlpProblem([Variable(v, BINARY) for v in names], [Row(row, "<=", 1)],
                   ObjectiveFunc("min", objective))
    with pytest.raises(LpExportError, match=f"variable {re.escape(repr(refused))}"):
        export_lp(p)
