"""Exact 0/1 solving: branch and bound over an LP relaxation, plus a
brute-force enumeration oracle used by the test suite.

Every variable of a program is binary (the encoder makes no other kind and
the LP reader rejects any other), so the relaxation bounds each column to
[0, 1] and the search may branch on every column. The LP relaxation is a
self-contained dense two-phase simplex. It enters the column of most negative
reduced cost (Dantzig's rule, lowest index on ties) and switches to Bland's
rule after 30 consecutive degenerate pivots, so it is deterministic and
cannot cycle. Its tableau is built once per LP as one row-major array with
columns `x | slacks | artificials | rhs` (see `_simplex`); a pivot updates
only the rows with a nonzero entry in its column. If the simplex gives up
within its iteration budget, the node falls back to a coefficient-sum bound,
which keeps the search exact, only slower. Branching is most-fractional-first
with a lexicographic tie-break on variable id; with a nonnegative
minimization objective the 1-branch is explored first, otherwise the
0-branch. A time limit is checked before every node and before every simplex
pivot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .encode import IlpProblem

FEAS_TOL = 1e-9
INT_TOL = 1e-7
BRUTE_CHUNK_BITS = 16  # brute_force scores 2^16 assignments per numpy batch


class SolveError(Exception):
    pass


class BruteForceTooLarge(SolveError):
    pass


@dataclass
class Solution:
    status: str  # 'optimal', 'infeasible', 'timeout'
    assignment: dict[str, float] = field(default_factory=dict)
    objective_value: float | None = None
    stats: dict = field(default_factory=dict)


# --- dense two-phase simplex -------------------------------------------------------

def _pivot(T, i, j):
    """One Gauss-Jordan step: make column j of T the unit vector of row i.

    Only the rows with a nonzero entry in column j are updated; the others
    (most of them, in a sparse program) are left exactly as they are.
    """
    T[i] /= T[i, j]
    rows = T[:, j].nonzero()[0]
    rows = rows[rows != i]
    T[rows] -= T[rows, j, None] * T[i]


def _pivot_loop(T, basis, cost, max_iter, deadline=None):
    """Pivot tableau T (rows x cols+1) to optimality. Returns (status,
    pivots): status 'optimal', 'unbounded', 'stalled' or 'timeout'
    (`deadline`, a `perf_counter` value, passed), and the number of pivots
    taken.

    Entering column: most negative reduced cost (lowest index on ties), which
    keeps iteration counts low; after 30 consecutive degenerate pivots the
    rule flips to Bland's, so cycling cannot happen. Reduced costs are carried
    along incrementally and refreshed from scratch every 64 pivots to keep
    rounding drift out of the entering test. The deadline is checked before
    every pivot, not just at the refresh: a pivot of a large dense tableau is
    costly, and a whole LP may need fewer than 64 of them.
    """
    n_cols = T.shape[1] - 1
    rhs = T[:, -1]
    reduced = cost - cost[basis] @ T[:, :n_cols]
    exact = True
    degenerate_streak = 0
    pivots = 0
    for it in range(max_iter):
        if deadline is not None and perf_counter() > deadline:
            return "timeout", pivots
        if it % 64 == 63 and not exact:
            reduced = cost - cost[basis] @ T[:, :n_cols]
            exact = True
        eligible = (reduced < -FEAS_TOL).nonzero()[0]
        if eligible.size == 0:
            if exact:
                return "optimal", pivots
            reduced = cost - cost[basis] @ T[:, :n_cols]
            exact = True
            continue
        if degenerate_streak > 30:
            j = eligible[0]  # Bland: smallest index
        else:
            j = eligible[reduced[eligible].argmin()]  # Dantzig, first on ties
        col = T[:, j]
        pos = (col > FEAS_TOL).nonzero()[0]
        if pos.size == 0:
            return "unbounded", pivots
        ratios = rhs[pos] / col[pos]
        best = ratios.min()
        ties = pos[ratios <= best + 1e-12]
        i = ties[0] if ties.size == 1 else ties[basis[ties].argmin()]
        degenerate_streak = degenerate_streak + 1 if best < 1e-10 else 0
        _pivot(T, i, j)
        pivots += 1
        reduced -= reduced[j] * T[i, :n_cols]
        exact = False
        basis[i] = j
    return "stalled", pivots


def _simplex(c, A, b, ge, eq, max_iter=20000, deadline=None):
    """min c.x s.t. A x <rel> b, 0 <= x <= 1, for at least one column; the
    masks `ge` and `eq` mark the `>=` and `=` rows of A, the rest are `<=`.

    The tableau is one row-major array, built once per LP. Rows: the rows of
    A, then one `x_j <= 1` row per column. Columns: `x | slacks | artificials
    | rhs`, with a slack for each inequality row and an artificial for each
    row without a basic slack, both numbered in row order. A `>=` row is
    negated into a `<=` row, then any row with a negative right-hand side is
    negated; a slack is basic where its coefficient stayed +1.

    Returns (status, x, pivots); status 'optimal', 'infeasible', or one of
    `_pivot_loop`'s failures: 'unbounded', 'stalled', 'timeout'; pivots
    counts every pivot taken, phase-1 cleanup included.
    """
    n = len(c)
    n_rows = len(b)
    m = n_rows + n
    rhs = np.concatenate([np.where(ge, -b, b), np.ones(n)])
    flip = rhs < 0
    rhs = np.where(flip, -rhs, rhs)
    flip_sign = np.where(flip, -1.0, 1.0)
    slack_rows = np.flatnonzero(np.concatenate([~eq, np.ones(n, dtype=bool)]))
    art_rows = np.flatnonzero(np.concatenate([eq, np.zeros(n, dtype=bool)]) | flip)
    n_slack = len(slack_rows)
    first_art = n + n_slack
    T = np.zeros((m, first_art + len(art_rows) + 1))
    np.multiply(A, (np.where(ge, -1.0, 1.0) * flip_sign[:n_rows])[:, None],
                out=T[:n_rows, :n])
    T[np.arange(n_rows, m), np.arange(n)] = 1.0
    T[slack_rows, n + np.arange(n_slack)] = flip_sign[slack_rows]
    T[art_rows, first_art + np.arange(len(art_rows))] = 1.0
    T[:, -1] = rhs
    basis = np.empty(m, dtype=np.intp)
    basis[slack_rows] = n + np.arange(n_slack)
    basis[art_rows] = first_art + np.arange(len(art_rows))

    # phase 1: drive artificials to zero
    pivots = 0
    if len(art_rows):
        cost1 = np.zeros(T.shape[1] - 1)
        cost1[first_art:] = 1.0
        status, pivots = _pivot_loop(T, basis, cost1, max_iter, deadline)
        if status in ("stalled", "timeout"):
            return status, None, pivots
        if cost1[basis] @ T[:, -1] > 1e-7:
            return "infeasible", None, pivots
        # artificials still basic sit at zero: pivot each out on its row's
        # first nonzero column, or drop the row as redundant
        drop = []
        for i in np.flatnonzero(basis >= first_art):
            nonzero = np.flatnonzero(np.abs(T[i, :first_art]) > FEAS_TOL)
            if nonzero.size == 0:
                drop.append(i)
                continue
            _pivot(T, i, nonzero[0])
            pivots += 1
            basis[i] = nonzero[0]
        # remove the artificial columns: move rhs up, keep a view of the rest
        T[:, first_art] = T[:, -1]
        T = T[:, :first_art + 1]
        if drop:
            keep = np.ones(m, dtype=bool)
            keep[drop] = False
            T, basis = T[keep], basis[keep]

    # phase 2: original objective
    cost2 = np.zeros(first_art)
    cost2[:n] = c
    status, phase2 = _pivot_loop(T, basis, cost2, max_iter, deadline)
    pivots += phase2
    if status != "optimal":
        return status, None, pivots
    x = np.zeros(first_art)
    x[basis] = T[:, -1]
    return "optimal", x[:n], pivots


# --- problem arrays -------------------------------------------------------------

class _Arrays:
    def __init__(self, p: IlpProblem):
        self.ids = [v.id for v in p.variables]
        self.index = {vid: j for j, vid in enumerate(self.ids)}
        self.n = len(self.ids)
        sign = 1.0 if p.objective.sense == "min" else -1.0
        self.sense = p.objective.sense
        self.c = np.zeros(self.n)
        for vid, coeff in p.objective.terms.items():
            self.c[self.index[vid]] = sign * coeff
        self.constant = p.objective.constant
        self.sign = sign
        rows = []
        for row in p.constraints:
            coefs = np.zeros(self.n)
            for vid, coeff in row.coeffs.items():
                coefs[self.index[vid]] = coeff
            rows.append((coefs, row.rel, float(row.rhs)))
        self.A = np.array([r[0] for r in rows]) if rows else np.zeros((0, self.n))
        self.b = np.array([r[2] for r in rows]) if rows else np.zeros(0)
        rels = np.array([r[1] for r in rows], dtype=str)
        self.ge = rels == ">="
        self.eq = rels == "="

    def feasible(self, X, tol=FEAS_TOL):
        """Whether point `X` satisfies every row; for a batch of points (one
        per row of `X`), one such bool per point."""
        lhs = X @ self.A.T
        violated = np.where(self.eq, np.abs(lhs - self.b) > tol,
                            np.where(self.ge, lhs < self.b - tol, lhs > self.b + tol))
        return ~violated.any(axis=-1)

    def objective_of(self, x) -> float:
        return self.sign * float(self.c @ x) + self.constant


def _lp_with_fixed(ar: _Arrays, fixed: dict[int, int], deadline=None):
    """LP relaxation with some binaries fixed; fixed columns are substituted out.

    Returns (status, value_in_min_sense_without_constant, full_x or None,
    simplex pivots).
    """
    free = np.ones(ar.n, dtype=bool)
    free[list(fixed)] = False
    x = np.zeros(ar.n)
    x[list(fixed)] = list(fixed.values())
    if not free.any():
        if not ar.feasible(x):
            return "infeasible", None, None, 0
        return "optimal", float(ar.c @ x), x, 0
    b = ar.b - ar.A @ x
    status, xf, pivots = _simplex(ar.c[free], ar.A[:, free], b, ar.ge, ar.eq,
                                  deadline=deadline)
    if status != "optimal":
        return status, None, None, pivots
    x[free] = xf
    return "optimal", float(ar.c @ x), x, pivots


def _fallback_bound(ar: _Arrays, fixed: dict[int, int]) -> float:
    """Coefficient-sum bound: ignore rows, sum the best case of every free term."""
    bound = 0.0
    for j in range(ar.n):
        if j in fixed:
            bound += ar.c[j] * fixed[j]
        elif ar.c[j] < 0:
            bound += ar.c[j]
    return bound


def solve(p: IlpProblem, time_limit: float | None = None,
          node_budget: int | None = None) -> Solution:
    """Exact optimum of a 0/1 problem by branch and bound.

    Deterministic for equal inputs and limits. On hitting a limit the status
    is 'timeout' and the best incumbent, if any, is reported.
    """
    start = perf_counter()
    deadline = None if time_limit is None else start + time_limit
    ar = _Arrays(p)
    one_first = ar.sense == "min" and bool(np.all(ar.c >= 0))
    nodes = 0
    pivots = 0
    incumbent_x = None
    incumbent_val = np.inf
    root_relax = None
    timed_out = False

    stack: list[tuple[dict[int, int], float]] = [({}, -np.inf)]
    while stack:
        if deadline is not None and perf_counter() > deadline:
            timed_out = True
            break
        if node_budget is not None and nodes >= node_budget:
            timed_out = True
            break
        fixed, parent_bound = stack.pop()
        if parent_bound >= incumbent_val - FEAS_TOL:
            continue  # the parent's relaxation already rules this subtree out
        nodes += 1
        status, value, x, lp_pivots = _lp_with_fixed(ar, fixed, deadline)
        pivots += lp_pivots
        if status == "timeout":
            timed_out = True
            break
        if status == "infeasible":
            continue
        if status in ("stalled", "unbounded"):
            value = _fallback_bound(ar, fixed)
            x = None
        if root_relax is None:
            root_relax = ar.sign * value + ar.constant
        if value >= incumbent_val - FEAS_TOL:
            continue
        # a stalled LP leaves at least one free column: `_lp_with_fixed` only
        # runs the simplex then
        free = [j for j in range(ar.n) if j not in fixed]
        frac = free
        if x is not None:
            frac = [j for j in free if abs(x[j] - round(x[j])) > INT_TOL]
            # rounding the relaxation is free and often lands on the optimum,
            # which lets the equal-bound pruning bite much earlier
            cand = np.round(x)
            cand_feasible = ar.feasible(cand)
            if cand_feasible:
                cand_val = float(ar.c @ cand)
                if cand_val < incumbent_val - FEAS_TOL:
                    incumbent_val = cand_val
                    incumbent_x = cand
            if not frac:
                if cand_feasible or not free:
                    continue
                # rounding broke feasibility; branch on the first free binary
                frac = free
        if x is not None:
            branch = min(frac, key=lambda j: (abs(x[j] - 0.5), ar.ids[j]))
        else:
            branch = min(frac, key=lambda j: ar.ids[j])
        first = 1 if one_first else 0
        second = 1 - first
        stack.append(({**fixed, branch: second}, value))
        stack.append(({**fixed, branch: first}, value))

    elapsed = perf_counter() - start
    stats = {"nodes": nodes, "pivots": pivots, "wall_time_s": elapsed,
             "root_relaxation": root_relax}
    if incumbent_x is not None:
        assignment = {vid: int(round(incumbent_x[j])) for j, vid in enumerate(ar.ids)}
        value = ar.objective_of(incumbent_x)
        return Solution("timeout" if timed_out else "optimal", assignment, value, stats)
    if timed_out:
        return Solution("timeout", {}, None, stats)
    return Solution("infeasible", {}, None, stats)


def lp_relaxation(p: IlpProblem) -> tuple[str, float | None]:
    """Root LP bound in the problem's own sense; used by property tests."""
    ar = _Arrays(p)
    status, value, _, _ = _lp_with_fixed(ar, {})
    if status != "optimal":
        return status, None
    return "optimal", ar.sign * value + ar.constant


def brute_force(p: IlpProblem) -> Solution:
    """Enumerate every 0/1 assignment (oracle).

    Ties go to the lexicographically smallest assignment in variable order.
    """
    ar = _Arrays(p)
    nb = ar.n
    if nb > 22:
        raise BruteForceTooLarge(f"{nb} binary variables exceed the 2^22 budget")

    best_val = None
    best_x = None
    total = 1 << nb
    minimize = ar.sense == "min"
    shifts = np.array([nb - 1 - i for i in range(nb)], dtype=np.uint32)
    c_bin = ar.c * ar.sign
    for lo in range(0, total, 1 << BRUTE_CHUNK_BITS):
        hi = min(total, lo + (1 << BRUTE_CHUNK_BITS))
        ks = np.arange(lo, hi, dtype=np.uint32)
        X = ((ks[:, None] >> shifts[None, :]) & 1).astype(float)
        feas = ar.feasible(X)
        if not np.any(feas):
            continue
        objs = X @ c_bin + ar.constant
        objs = np.where(feas, objs, np.inf if minimize else -np.inf)
        k = int(np.argmin(objs)) if minimize else int(np.argmax(objs))
        val = float(objs[k])
        better = (best_val is None or (val < best_val - FEAS_TOL if minimize
                                       else val > best_val + FEAS_TOL))
        if better:
            best_val = val
            best_x = X[k]

    stats = {"nodes": total, "wall_time_s": None, "root_relaxation": None}
    if best_val is None:
        return Solution("infeasible", {}, None, stats)
    assignment = {vid: int(round(best_x[j])) for j, vid in enumerate(ar.ids)}
    return Solution("optimal", assignment, float(best_val), stats)
