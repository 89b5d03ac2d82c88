import random

import pytest

from graphilp import export_lp, generate, import_lp, problems_equal
from graphilp.encode import BINARY, IlpProblem, ObjectiveFunc, Row, Variable
from graphilp.lpformat import LpParseError
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
