import importlib
import itertools
import random
import sys
import tracemalloc

import numpy as np
import pytest

from graphilp import brute_force, generate, lp_relaxation, solve
from graphilp.encode import IlpProblem, ObjectiveFunc, Row, Variable
from graphilp.vne_model import two_links_model, two_links_spec
from graphilp.solve import BruteForceTooLarge

solve_mod = importlib.import_module("graphilp.solve")  # graphilp.solve is the function

from conftest import highs_optimum, random_problem


def simple(rows, obj_terms, sense="min", n=2, constant=0.0):
    variables = [Variable(f"x{i}") for i in range(n)]
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
    p = IlpProblem([Variable("x0")], [Row({}, ">=", 1)],
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


def test_program_form_matches_the_row_dicts():
    # the solver reads rows only from `_Arrays`' row triplets and from the
    # tableau filled from them: both must say what the Row dicts say, entry
    # by entry, on random programs with fractional and zero coefficients,
    # both senses, and the variable-free row `0 <= -1`
    rng = random.Random(9090)
    senses = set()
    for k in range(80):
        p = random_problem(rng, max_vars=20, max_rows=25, max_row_vars=6)
        rows = [Row({v: c + rng.choice([0, 0, 0.25, -1 / 3]) for v, c in row.coeffs.items()},
                    row.rel, row.rhs + rng.choice([0, 0.5])) for row in p.constraints]
        rows.insert(rng.randint(0, len(rows)), Row({}, "<=", -1))
        p = IlpProblem(p.variables, rows, p.objective)
        senses.add(p.objective.sense)
        ar = solve_mod._Arrays(p)
        ids = [v.id for v in p.variables]
        n, m = len(ids), len(rows)
        assert ar.ids == ids and ar.n == n, k
        assert ar.sense == p.objective.sense and ar.constant == p.objective.constant, k
        sign = 1.0 if p.objective.sense == "min" else -1.0
        assert ar.c.tolist() == [sign * p.objective.terms.get(v, 0) for v in ids], k
        assert ar.rowidx.size == ar.indices.size == ar.data.size, k
        assert (np.diff(ar.rowidx) >= 0).all(), k  # row order
        dense = np.zeros((m, n))
        for i, row in enumerate(rows):
            span = ar.rowidx == i
            assert {ids[j]: a for j, a in zip(ar.indices[span], ar.data[span])} == \
                {v: float(c) for v, c in row.coeffs.items()}, (k, i)
            assert ar.indices[span].size == len(row.coeffs), (k, i)
            rel = "=" if ar.eq[i] else ">=" if ar.ge[i] else "<="
            assert (rel, ar.b[i]) == (row.rel, float(row.rhs)), (k, i)
            for v, c in row.coeffs.items():
                dense[i, ids.index(v)] = c
        lp = solve_mod._Lp(ar, np.zeros(n), np.ones(n))
        assert np.array_equal(lp.T[:, :n], dense), k
        assert np.array_equal(lp.T[:, n:-1], np.eye(m)), k
        assert lp.T[:, -1].tolist() == [float(row.rhs) for row in rows], k
        x = np.array([rng.randint(0, 1) for _ in ids], dtype=float)
        y = np.array([rng.uniform(-2, 2) for _ in rows])
        assert ar.row_sums(x) == pytest.approx(dense @ x, abs=1e-12), k
        assert ar.col_sums(y) == pytest.approx(y @ dense, abs=1e-12), k
    assert senses == {"min", "max"}


def test_lp_relaxation_memory_is_its_tableau(monkeypatch):
    # an 800 x 600 program with four nonzeros a row, whose root LP takes
    # hundreds of pivots that fill its columns in. The rows are kept as
    # coordinate triplets, not as a dense copy, and each pivot updates its rows in
    # bounded blocks, so the peak stays near the one m x (n + m + 1) tableau
    rng = random.Random(2)
    m, n = 800, 600
    ids = [f"x{j:03d}" for j in range(n)]
    rows = [Row({ids[j]: rng.randint(1, 9) for j in rng.sample(range(n), 4)}, "<=",
                rng.randint(4, 48)) for _ in range(m)]
    p = IlpProblem([Variable(v) for v in ids], rows,
                   ObjectiveFunc("max", {v: rng.randint(1, 10) for v in ids}))
    calls = itertools.count()
    real = solve_mod._pivot
    monkeypatch.setattr(solve_mod, "_pivot", lambda *a: (next(calls), real(*a)))
    tracemalloc.start()
    try:
        status, _ = lp_relaxation(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == "optimal" and next(calls) >= 200
    assert peak < 1.6 * m * (n + m + 1) * 8


def _with_redundant_rows(p):
    """p plus, for its first two `=` rows, a copy and a negated copy: linearly
    dependent rows."""
    extra = []
    for row in [r for r in p.constraints if r.rel == "="][:2]:
        extra.append(Row(dict(row.coeffs), "=", row.rhs))
        extra.append(Row({v: -c for v, c in row.coeffs.items()}, "=", -row.rhs))
    return IlpProblem(p.variables, p.constraints + extra, p.objective)


def test_lp_relaxation_agrees_with_highs():
    rng = random.Random(4242)
    optimal = 0
    for k in range(300):
        p = random_problem(rng)
        if k % 2:
            p = _with_redundant_rows(p)
        expected, value = highs_optimum(p, relaxed=True)
        status, got = lp_relaxation(p)
        assert status == expected, k
        if status == "optimal":
            optimal += 1
            assert got == pytest.approx(value, abs=1e-6), k
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
            warm.fix(j, lo[j])
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


def _rebound(lp, lo, hi):
    """Reference for `_Lp.fix`: clip every structural column to `lo` and
    `hi` as one full-vector update. Each nonbasic column that moves shifts the
    basic values by its tableau column times the move (a product, not a dot
    product, whose added 0.0 would turn a -0.0 into 0.0)."""
    n = len(lo)
    lp.lo[:n] = lo
    lp.hi[:n] = hi
    x = lp.x[:n]
    shift = np.clip(x, lo, hi) - x
    shift[lp.basis[lp.basis < n]] = 0.0
    moved = shift.nonzero()[0]
    for j in moved:
        lp.x[lp.basis] -= lp.T[:, j] * shift[j]
    x[moved] += shift[moved]
    lp.side[:n][lo == hi] = 0.0


def _checked_run(lp):
    """`lp.run()`, checking that when it returns, `x[basis]` holds the basic
    values it kept in row order, and those bounds are the basic columns'."""
    kept = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is solve_mod._Lp.run.__code__:
            kept.append({k: frame.f_locals[k].copy() for k in ("xb", "lob", "hib")
                         if k in frame.f_locals})
    x_before = lp.x.copy()
    sys.setprofile(profile)
    try:
        status, pivots = lp.run()
    finally:
        sys.setprofile(None)
    [row_ordered] = kept
    if not lp.basis.size:  # no rows: nothing to pivot or to keep in row order
        assert (status, pivots) == ("optimal", 0) and not row_ordered
        assert lp.x.tobytes() == x_before.tobytes()
    else:
        assert lp.x[lp.basis].tobytes() == row_ordered["xb"].tobytes()
        assert lp.lo[lp.basis].tobytes() == row_ordered["lob"].tobytes()
        assert lp.hi[lp.basis].tobytes() == row_ordered["hib"].tobytes()
    return status


def test_fix_matches_full_vector_rebound():
    # fix columns one at a time, as a path down the search tree does. After
    # each fixing, the one-column update leaves x, the bounds and the sides
    # bit for bit where the full-vector reference leaves a copy of the same
    # state; a third of the programs have no rows, which `run` must survive
    rng = random.Random(4711)
    kinds = {"basic": 0, "moved": 0, "on its value": 0}
    rowless = 0
    for k in range(150):
        p = random_problem(rng, max_vars=15, max_rows=0 if k % 3 == 0 else 15)
        ar = solve_mod._Arrays(p)
        rowless += not ar.b.size
        lo, hi = np.zeros(ar.n), np.ones(ar.n)
        lp = solve_mod._Lp(ar, lo, hi)
        status = _checked_run(lp)
        while status == "optimal" and (lo < hi).any():
            free = (lo < hi).nonzero()[0].tolist()
            basic = [j for j in free if j in lp.basis]  # the search branches on these
            j = rng.choice(basic if basic and rng.random() < 0.8 else free)
            v = float(rng.randint(0, 1))
            kinds["basic" if j in lp.basis else "moved" if lp.x[j] != v
                  else "on its value"] += 1
            lo, hi = lo.copy(), hi.copy()
            lo[j] = hi[j] = v
            reference = lp.copy()
            _rebound(reference, lo, hi)
            lp.fix(j, v)
            for name in ("x", "lo", "hi", "side"):
                assert getattr(lp, name).tobytes() == getattr(reference, name).tobytes(), \
                    (k, j, name)
            status = _checked_run(lp)
    assert rowless >= 40 and min(kinds.values()) >= 50, kinds


def _corrupt_after_fix(monkeypatch):
    """Make every warm start run on a tableau that no longer equals
    B^-1 [A | I | b]: the error that rounding drift would leave, writ large."""
    noise = np.random.default_rng(99)
    fix = solve_mod._Lp.fix

    def corrupted(lp, j, v):
        fix(lp, j, v)
        m = len(lp.basis)
        n = lp.T.shape[1] - m - 1
        lp.T[:, :n] *= 1.0 + 0.2 * noise.standard_normal((m, n))
    monkeypatch.setattr(solve_mod._Lp, "fix", corrupted)


def test_guard_rejects_a_corrupted_tableau(monkeypatch):
    # a warm LP's answer is checked against A: every answer that a corrupted
    # tableau gets wrong fails the check (and the search then solves the
    # node again from the slack basis)
    _corrupt_after_fix(monkeypatch)
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
        lp.fix(frac[0], 1.0)
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


def test_guard_rejects_a_nan_basic_value():
    # an optimal answer with a NaN written into one of its basic values fails
    # the check: NaN compares false with the tolerance
    rng = random.Random(6161)
    checked = 0
    for k in range(150):
        p = random_problem(rng, min_vars=4, max_vars=10)
        ar = solve_mod._Arrays(p)
        lp = solve_mod._Lp(ar, np.zeros(ar.n), np.ones(ar.n))
        if lp.run()[0] != "optimal" or not len(lp.basis):
            continue
        assert lp.holds(ar, "optimal"), k
        lp.x[lp.basis[rng.randrange(len(lp.basis))]] = np.nan
        assert not lp.holds(ar, "optimal"), k
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("patch", ["Bland from the start", "cold siblings",
                                   "some cold siblings", "stalled LPs",
                                   "stalled warm LPs", "every warm answer rejected",
                                   "corrupted warm starts"])
def test_search_stays_exact_on_every_simplex_path(monkeypatch, patch):
    # the dual Bland rule may take over at any pivot; siblings start from the
    # slack basis once the stack's tableaux exceed their budget; with every
    # LP stalled the search enumerates under coefficient-sum bounds, every
    # child starts cold, and a node with every column fixed is judged by its
    # one point; a warm answer that fails its check against A is solved
    # again from the slack basis, and counted in `guard_rejections`, while a
    # warm LP that stalls is solved again too but not counted
    if patch == "Bland from the start":
        monkeypatch.setattr(solve_mod, "BLAND_AFTER", -1)
    elif patch == "cold siblings":
        monkeypatch.setattr(solve_mod, "STACK_TABLEAU_BYTES", 0)
    elif patch == "some cold siblings":
        # room for a few of these programs' tableaux (at most 15 x 24 floats)
        monkeypatch.setattr(solve_mod, "STACK_TABLEAU_BYTES", 8 << 10)
    elif patch == "stalled LPs":
        monkeypatch.setattr(solve_mod, "MAX_PIVOTS", 0)
    elif patch == "stalled warm LPs":
        fix = solve_mod._Lp.fix

        def fix_then_stall(lp, j, v):
            fix(lp, j, v)
            lp.run = lambda deadline=None: ("stalled", 0)
        monkeypatch.setattr(solve_mod._Lp, "fix", fix_then_stall)
    elif patch == "every warm answer rejected":
        monkeypatch.setattr(solve_mod._Lp, "holds", lambda lp, ar, status: False)
    else:
        _corrupt_after_fix(monkeypatch)
    rng = random.Random(6464)
    rejected = 0
    for k in range(120):
        p = random_problem(rng, max_vars=8)
        s, b = solve(p), brute_force(p)
        assert s.status == b.status, k
        if s.status == "optimal":
            assert s.objective_value == pytest.approx(b.objective_value, abs=1e-9), k
        rejected += s.stats["guard_rejections"]
    if patch in ("every warm answer rejected", "corrupted warm starts"):
        assert rejected > 0
    else:
        assert rejected == 0


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
    p = IlpProblem([Variable(f"x{i}") for i in range(23)], [],
                   ObjectiveFunc("min", {}))
    with pytest.raises(BruteForceTooLarge):
        brute_force(p)


def test_time_limit_zero_times_out():
    p = simple([Row({"x0": 1, "x1": 1}, "<=", 1)], {"x0": -1, "x1": -1})
    sol = solve(p, time_limit=0.0)
    assert sol.status == "timeout"
    # no node ran, so there is no incumbent to report
    assert sol.objective_value is None and sol.assignment == {}


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
    solve_mod._pivot(T, i, T[:, j].copy())
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


@pytest.mark.parametrize("block_bytes", [1, 100])
def test_blocked_pivot_matches_dense_reference(block_bytes, monkeypatch):
    # these tableaux fit one default block; 1 byte makes each updated row its
    # own block, 100 bytes a few rows each
    monkeypatch.setattr(solve_mod, "PIVOT_BLOCK_BYTES", block_bytes)
    test_sparse_pivot_matches_dense_reference()


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
