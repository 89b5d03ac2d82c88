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

from conftest import highs_optimum, random_problem


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
    dependent rows."""
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


def test_oracle_equivalence_with_highs_beyond_brute_force():
    # 23 to 80 variables, past brute force's 22; sparse rows, as the encoder
    # writes them, keep the search small
    rng = random.Random(2323)
    optimal = 0
    for k in range(200):
        p = random_problem(rng, max_vars=80, min_vars=23, max_rows=15, max_row_vars=8)
        s = solve(p)
        status, value = highs_optimum(p)
        assert s.status == status, k
        if status == "optimal":
            optimal += 1
            assert s.objective_value == pytest.approx(value, abs=1e-6), k
    assert optimal >= 30


@pytest.mark.parametrize("size", ["small", "large"])
def test_warm_started_lp_matches_cold_solve_and_highs(size):
    # fix columns one at a time, as a path down the search tree does: each LP
    # continues from the previous one's final tableau and must reach the
    # status and value of a solve from the slack basis under the same bounds,
    # and of HiGHS's linprog. The large programs carry one tableau through
    # every fixing, 40 to 80 of them, towards a feasible 0/1 point, so each
    # LP along the way stays feasible
    if size == "small":
        rng, programs, kw = random.Random(5150), 80, {}
    else:
        rng, programs, kw = random.Random(5151), 40, dict(
            min_vars=40, max_vars=80, max_rows=20, max_row_vars=8)
    checked = chains = 0
    for k in range(programs):
        p = random_problem(rng, **kw)
        ar = solve_mod._Arrays(p)
        target = None
        if size == "large":
            s = solve(p)
            if s.status != "optimal":
                continue
            chains += 1
            target = np.array([s.assignment[v] for v in ar.ids], dtype=float)
        lo, hi = np.zeros(ar.n), np.ones(ar.n)
        warm = solve_mod._Lp(ar, lo, hi)
        status, _ = warm.run()
        for j in rng.sample(range(ar.n), ar.n):
            if status != "optimal":
                break
            lo, hi = lo.copy(), hi.copy()
            lo[j] = hi[j] = float(rng.randint(0, 1)) if target is None else target[j]
            warm.rebound(lo, hi)
            status, _ = warm.run()
            assert warm.holds(ar, status), k
            cold = solve_mod._Lp(ar, lo, hi)
            assert cold.run()[0] == status, k
            expected, value = highs_optimum(p, relaxed=True, lb=lo, ub=hi)
            assert status == expected, k
            if status == "optimal":
                checked += 1
                assert float(ar.c @ warm.x[:ar.n]) == pytest.approx(
                    float(ar.c @ cold.x[:ar.n]), abs=1e-9), k
                assert ar.sign * float(ar.c @ warm.x[:ar.n]) + ar.constant == \
                    pytest.approx(value, abs=1e-6), k
                x = warm.x[:ar.n]
                assert np.all(x >= lo - 1e-9) and np.all(x <= hi + 1e-9), k
    assert checked >= 100 and (size == "small" or chains >= 8)


def _corrupt_after_rebound(monkeypatch):
    """Make every warm start run on a tableau that no longer equals
    B^-1 [A | I | b]: the error that rounding drift would leave, writ large."""
    noise = np.random.default_rng(99)
    rebound = solve_mod._Lp.rebound

    def corrupted(lp, lo, hi):
        rebound(lp, lo, hi)
        lp.T[:, :len(lo)] *= 1.0 + 0.2 * noise.standard_normal((lp.T.shape[0], len(lo)))
    monkeypatch.setattr(solve_mod._Lp, "rebound", corrupted)


def test_guard_rejects_a_corrupted_tableau(monkeypatch):
    # a warm LP's answer is checked against A: every answer that a corrupted
    # tableau gets wrong fails the check (and the search then solves the
    # node again from the slack basis)
    _corrupt_after_rebound(monkeypatch)
    rng = random.Random(7070)
    wrong = 0
    for k in range(200):
        p = random_problem(rng, min_vars=4, max_vars=10)
        ar = solve_mod._Arrays(p)
        lo, hi = np.zeros(ar.n), np.ones(ar.n)
        lp = solve_mod._Lp(ar, lo, hi)
        if lp.run()[0] != "optimal":
            continue
        frac = (np.abs(lp.x[:ar.n] - np.round(lp.x[:ar.n])) > 1e-7).nonzero()[0]
        if frac.size == 0:
            continue
        lo[frac[0]] = hi[frac[0]] = 1.0  # a basic column, so the LP must pivot
        lp.rebound(lo, hi)
        status, _ = lp.run()
        cold = solve_mod._Lp(ar, lo, hi)
        expected, _ = cold.run()
        if status == "stalled":
            continue
        if status != expected or status == "optimal" and not np.isclose(
                ar.c @ lp.x[:ar.n], ar.c @ cold.x[:ar.n], atol=1e-6):
            wrong += 1
            assert not lp.holds(ar, status), k
        assert cold.holds(ar, expected), k
    assert wrong >= 10


@pytest.mark.parametrize("patch", ["Bland from the start", "cold siblings",
                                   "some cold siblings", "stalled LPs",
                                   "every warm answer rejected", "corrupted warm starts"])
def test_search_stays_exact_on_every_simplex_path(monkeypatch, patch):
    # the dual Bland rule may take over at any pivot; siblings start from the
    # slack basis once the stack's tableaux exceed their budget; with every
    # LP stalled the search enumerates under coefficient-sum bounds, every
    # child starts cold, and a node with every column fixed is judged by its
    # one point; a warm answer that fails its check against A is solved
    # again from the slack basis
    if patch == "Bland from the start":
        monkeypatch.setattr(solve_mod, "BLAND_AFTER", -1)
    elif patch == "cold siblings":
        monkeypatch.setattr(solve_mod, "STACK_TABLEAU_BYTES", 0)
    elif patch == "some cold siblings":
        # room for a few of these programs' tableaux (at most 15 x 24 floats)
        monkeypatch.setattr(solve_mod, "STACK_TABLEAU_BYTES", 8 << 10)
    elif patch == "stalled LPs":
        run = solve_mod._Lp.run
        monkeypatch.setattr(solve_mod._Lp, "run",
                            lambda lp, deadline=None: run(lp, deadline, max_iter=0))
    elif patch == "every warm answer rejected":
        monkeypatch.setattr(solve_mod._Lp, "holds", lambda lp, ar, status: False)
    else:
        _corrupt_after_rebound(monkeypatch)
    rng = random.Random(6464)
    for k in range(120):
        p = random_problem(rng, max_vars=8)
        s, b = solve(p), brute_force(p)
        assert s.status == b.status, k
        if s.status == "optimal":
            assert s.objective_value == pytest.approx(b.objective_value, abs=1e-9), k


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
    # the slack start (x = 0) violates the `>=` row, so the root LP needs a
    # dual pivot, and its optimum is integral: without a limit the root node
    # alone proves optimality. The fake clock ticks one second per reading,
    # so the limit passes between the check before the root node and the
    # check before its first pivot
    p = simple([Row({"x0": 1, "x1": 1}, ">=", 1)], {"x0": 1, "x1": 1})
    unlimited = solve(p)
    assert unlimited.status == "optimal"
    assert unlimited.stats["nodes"] == 1 and unlimited.stats["pivots"] >= 1
    ticks = itertools.count()
    monkeypatch.setattr(solve_mod, "perf_counter", lambda: float(next(ticks)))
    sol = solve(p, time_limit=1.5)
    assert sol.status == "timeout"
    assert sol.objective_value is None
    assert sol.stats["nodes"] == 1
    assert sol.stats["pivots"] == 0


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
    # a view of the leading columns: the columns past it stay as they are
    full = np.array([[1.0, 2.0, 9.0],
                     [3.0, 0.0, 9.0],
                     [0.0, 1.0, 9.0]])
    _check_pivot(full[:, :2], 1, 0)
    assert full[:, 2].tolist() == [9.0, 9.0, 9.0]
