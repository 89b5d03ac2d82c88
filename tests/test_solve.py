import importlib
import itertools
import random

import numpy as np
import pytest

from graphilp import brute_force, generate, lp_relaxation, solve
from graphilp.encode import BINARY, IlpProblem, ObjectiveFunc, Row, Variable
from graphilp.vne_model import two_links_model, two_links_spec
from graphilp.solve import BruteForceTooLarge

solve_mod = importlib.import_module("graphilp.solve")  # graphilp.solve is the function

from conftest import random_problem


def simple(rows, obj_terms, sense="min", n=2, constant=0.0):
    variables = [Variable(f"x{i}", BINARY) for i in range(n)]
    return IlpProblem(variables, rows, ObjectiveFunc(sense, obj_terms, constant))


def test_two_links_problem_selects_exactly_one_candidate():
    _, g = two_links_model()
    problem, table = generate(two_links_spec(), g)
    sol = solve(problem)
    assert sol.status == "optimal"
    chosen = [v for v, val in sol.assignment.items() if val == 1]
    assert len(chosen) == 1
    assert sol.objective_value == pytest.approx(0.5)  # the half-full link wins
    assert sol.stats["nodes"] >= 1 and sol.stats["wall_time_s"] >= 0


def test_empty_problem_is_optimal_constant():
    p = IlpProblem([], [], ObjectiveFunc("min", {}, 42.0))
    sol = solve(p)
    assert sol.status == "optimal"
    assert sol.objective_value == 42.0
    assert sol.assignment == {}
    assert brute_force(p).objective_value == 42.0


def test_contradictory_constant_row_is_infeasible():
    p = IlpProblem([Variable("x0", BINARY)], [Row({}, ">=", 1)],
                   ObjectiveFunc("min", {"x0": 1}))
    assert solve(p).status == "infeasible"
    assert brute_force(p).status == "infeasible"


@pytest.mark.parametrize("rel, rhs, status", [("<=", 1, "optimal"), ("<=", -1, "infeasible")])
def test_variable_free_program_agrees_with_brute_force(rel, rhs, status):
    p = IlpProblem([], [Row({}, rel, rhs)], ObjectiveFunc("max", {}, 7.0))
    s, b = solve(p), brute_force(p)
    assert s.status == b.status == status
    assert s.objective_value == b.objective_value == (7.0 if status == "optimal" else None)
    assert s.assignment == b.assignment == {}


def test_single_variable_agrees_with_brute_force():
    p = simple([Row({"x0": 1}, "<=", 1)], {"x0": -2}, n=1)
    s, b = solve(p), brute_force(p)
    assert s.status == b.status == "optimal"
    assert s.objective_value == b.objective_value == -2


def test_oracle_equivalence_on_random_problems():
    rng = random.Random(123)
    for _ in range(150):
        p = random_problem(rng)
        s, b = solve(p), brute_force(p)
        assert s.status == b.status
        if s.status == "optimal":
            assert s.objective_value == pytest.approx(b.objective_value, abs=1e-9)


def test_optimal_assignment_satisfies_every_row():
    rng = random.Random(321)
    for _ in range(80):
        p = random_problem(rng)
        s = solve(p)
        if s.status != "optimal":
            continue
        for row in p.constraints:
            val = sum(c * s.assignment[v] for v, c in row.coeffs.items())
            if row.rel == "<=":
                assert val <= row.rhs + 1e-9
            elif row.rel == ">=":
                assert val >= row.rhs - 1e-9
            else:
                assert abs(val - row.rhs) <= 1e-9


def test_root_relaxation_bounds_integer_optimum():
    rng = random.Random(555)
    checked = 0
    for _ in range(200):
        p = random_problem(rng)
        status, bound = lp_relaxation(p)
        s = solve(p)
        if status != "optimal" or s.status != "optimal":
            continue
        checked += 1
        if p.objective.sense == "min":
            assert bound <= s.objective_value + 1e-7
        else:
            assert bound >= s.objective_value - 1e-7
    assert checked > 20


def _with_redundant_rows(p):
    """p plus, for its first two `=` rows, a copy and a negated copy: linearly
    dependent rows, so phase 1 ends with artificials basic on rows it drops."""
    extra = []
    for row in [r for r in p.constraints if r.rel == "="][:2]:
        extra.append(Row(dict(row.coeffs), "=", row.rhs))
        extra.append(Row({v: -c for v, c in row.coeffs.items()}, "=", -row.rhs))
    return IlpProblem(p.variables, p.constraints + extra, p.objective)


def test_lp_relaxation_agrees_with_highs():
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(4242)
    optimal = 0
    for k in range(300):
        p = random_problem(rng)
        if k % 2:
            p = _with_redundant_rows(p)
        ids = [v.id for v in p.variables]
        sign = 1.0 if p.objective.sense == "min" else -1.0
        c = [sign * p.objective.terms.get(v, 0) for v in ids]
        ub, b_ub, eq, b_eq = [], [], [], []
        for row in p.constraints:
            coefs = [row.coeffs.get(v, 0) for v in ids]
            if row.rel == "=":
                eq.append(coefs)
                b_eq.append(row.rhs)
            else:
                flip = -1 if row.rel == ">=" else 1
                ub.append([flip * a for a in coefs])
                b_ub.append(flip * row.rhs)
        res = optimize.linprog(c, A_ub=ub or None, b_ub=b_ub or None,
                               A_eq=eq or None, b_eq=b_eq or None,
                               bounds=(0, 1), method="highs")
        assert res.status in (0, 2), res.message
        expected = "optimal" if res.status == 0 else "infeasible"
        status, value = lp_relaxation(p)
        assert status == expected, k
        if status == "optimal":
            optimal += 1
            assert value == pytest.approx(sign * res.fun + p.objective.constant,
                                          abs=1e-6), k
    assert optimal >= 50


def test_sense_duality():
    rng = random.Random(777)
    for _ in range(60):
        p = random_problem(rng)
        neg_obj = ObjectiveFunc("min" if p.objective.sense == "max" else "max",
                                {v: -c for v, c in p.objective.terms.items()},
                                -p.objective.constant)
        q = IlpProblem(p.variables, p.constraints, neg_obj)
        sp, sq = solve(p), solve(q)
        assert sp.status == sq.status
        if sp.status == "optimal":
            assert sp.objective_value == pytest.approx(-sq.objective_value, abs=1e-9)


def test_brute_force_lexicographic_tie_break():
    # two symmetric optima; enumeration order makes x0=0,x1=1 the smaller one
    p = simple([Row({"x0": 1, "x1": 1}, "=", 1)], {"x0": 1, "x1": 1})
    b = brute_force(p)
    assert (b.assignment["x0"], b.assignment["x1"]) == (0, 1)


def test_brute_force_rejects_oversized_problems():
    p = IlpProblem([Variable(f"x{i}", BINARY) for i in range(23)], [],
                   ObjectiveFunc("min", {}))
    with pytest.raises(BruteForceTooLarge):
        brute_force(p)


def test_node_budget_triggers_timeout_status():
    rng = random.Random(9)
    # a problem that needs some branching
    p = random_problem(rng, max_vars=12, max_rows=12)
    sol = solve(p, node_budget=1)
    assert sol.status in ("timeout", "optimal", "infeasible")
    forced = solve(p, node_budget=0)
    assert forced.status == "timeout"
    assert forced.objective_value is None


def test_time_limit_zero_times_out():
    p = simple([Row({"x0": 1, "x1": 1}, "<=", 1)], {"x0": -1, "x1": -1})
    sol = solve(p, time_limit=0.0)
    assert sol.status == "timeout"


def test_time_limit_holds_inside_an_lp(monkeypatch):
    # the root LP needs two pivots and its optimum is integral, so without a
    # limit the root node alone proves optimality; the fake clock ticks one
    # second per reading, so the limit passes between the check before the
    # root node and the check before its first pivot
    p = simple([], {"x0": -1, "x1": -1})
    assert solve(p).status == "optimal"
    ticks = itertools.count()
    monkeypatch.setattr(solve_mod, "perf_counter", lambda: float(next(ticks)))
    sol = solve(p, time_limit=1.5)
    assert sol.status == "timeout"
    assert sol.objective_value is None
    assert sol.stats["nodes"] == 1


def test_solution_is_deterministic():
    rng = random.Random(31337)
    for _ in range(25):
        p = random_problem(rng)
        a, b = solve(p), solve(p)
        assert a.status == b.status
        assert a.assignment == b.assignment
        assert a.stats["nodes"] == b.stats["nodes"]
        assert a.stats["pivots"] == b.stats["pivots"]


def test_pivot_count_covers_every_pivot(monkeypatch):
    # redundant `=` rows leave artificials basic after phase 1, so the
    # cleanup pivots are counted too
    calls = itertools.count()
    real = solve_mod._pivot
    monkeypatch.setattr(solve_mod, "_pivot", lambda *a: (next(calls), real(*a)))
    rng = random.Random(2718)
    total = 0
    for k in range(40):
        p = random_problem(rng)
        total += solve(_with_redundant_rows(p) if k % 2 else p).stats["pivots"]
    assert total > 0
    assert total == next(calls)


def _dense_pivot(T, i, j):
    """Reference Gauss-Jordan step: subtract a tableau-sized outer product."""
    T = T.copy()
    T[i] /= T[i, j]
    factors = T[:, j].copy()
    factors[i] = 0.0
    return T - np.outer(factors, T[i])


def _check_pivot(T, i, j):
    expected = _dense_pivot(T, i, j)
    untouched = [r for r in range(len(T)) if r != i and T[r, j] == 0]
    before = T.copy()
    solve_mod._pivot(T, i, j)
    assert np.array_equal(T, expected)
    # rows with a zero factor are not written at all, not even a zero's sign
    assert T[untouched].tobytes() == before[untouched].tobytes()


def test_sparse_pivot_matches_dense_reference():
    rng = np.random.default_rng(8)
    for _ in range(200):
        m, n = rng.integers(2, 30, size=2)
        T = np.where(rng.random((m, n)) < 0.2, rng.normal(size=(m, n)), 0.0)
        T[rng.random((m, n)) < 0.1] = -0.0
        j = int(rng.integers(n))
        i = int(rng.integers(m))
        T[i, j] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        _check_pivot(T, i, j)


def test_sparse_pivot_edge_cases():
    # the pivot entry is its column's only nonzero: no other row changes
    T = np.array([[2.0, 4.0, -0.0, 6.0],
                  [0.0, 1.0, 3.0, -0.0],
                  [-0.0, 5.0, 0.0, 7.0]])
    _check_pivot(T, 0, 0)
    assert T[0].tolist() == [1.0, 2.0, -0.0, 3.0]
    # a factor of -0.0 leaves its row alone; the dense reference would turn
    # the row's -0.0 entries into +0.0
    T = np.array([[1.0, 2.0, 1.0, 3.0],
                  [-0.0, -0.0, 1.0, 4.0],
                  [2.0, 1.0, 0.0, 1.0]])
    _check_pivot(T, 0, 0)
    assert np.signbit(T[1, :2]).all()
    assert T[2].tolist() == [0.0, -3.0, -2.0, -5.0]
    # a view of the leading columns, as the phase-2 tableau is once the
    # artificial columns are cut off: the columns past it stay as they are
    full = np.array([[1.0, 2.0, 9.0],
                     [3.0, 0.0, 9.0],
                     [0.0, 1.0, 9.0]])
    _check_pivot(full[:, :2], 1, 0)
    assert full[:, 2].tolist() == [9.0, 9.0, 9.0]
