"""Exact 0/1 solving: branch and bound over an LP relaxation, plus a
brute-force enumeration oracle used by the test suite.

Every variable of a program is binary (the encoder makes no other kind and
the LP reader rejects any other), so the relaxation bounds each column to
[0, 1] and the search may branch on every column. Each LP is solved by a
self-contained dense bounded-variable dual simplex (`_Lp`). Its tableau is
B^-1 [A | I | b]: one logical column per row, bounded to [0, inf) for a `<=`
row, (-inf, 0] for a `>=` row and [0, 0] for an `=` row, while the
structural columns carry the node's bounds. There are no `x <= 1` rows, no
artificial columns and no phase 1. The root starts from the slack basis
(every logical basic, every structural column at its upper bound where its
cost is negative and at its lower bound otherwise), which is dual feasible.
A child fixes one column and continues from its parent's final tableau (a
warm start): fixing a column keeps the basis dual feasible, so only dual
pivots are needed. The first child takes the tableau over and its sibling
gets a copy, unless the tableaux waiting on the search stack would pass
`STACK_TABLEAU_BYTES`; then the sibling starts from the slack basis. A
tableau carried from node to node is never rebuilt from A, so every warm
answer is checked against the original rows (`_Lp.holds`); a node whose
warm answer fails the check, or whose warm LP stalls, is solved again from
the slack basis. The leaving variable is the basic one farthest outside its
bounds, the entering column wins the dual ratio test (ties to the largest
pivot entry); after 30 consecutive degenerate pivots the rules switch to the
dual analogue of Bland's (the smallest-index infeasible basic variable, the
first-index ratio tie), so the simplex is deterministic and cannot cycle. A
pivot updates only the rows with a nonzero entry in its column. If the
simplex gives up within its iteration budget from the slack basis too, the
node falls back to a coefficient-sum bound and its children start from the
slack basis, which keeps the search exact, only slower. Branching is
most-fractional-first with a lexicographic tie-break on variable id; with a
nonnegative minimization objective the 1-branch is explored first,
otherwise the 0-branch. A time limit is checked before every
node and before every simplex pivot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

import numpy as np

from .encode import IlpProblem

FEAS_TOL = 1e-9
INT_TOL = 1e-7
BRUTE_CHUNK_BITS = 16  # brute_force scores 2^16 assignments per numpy batch
# how far a warm-started LP's answer may be off against the original rows
# before the node is solved again from the slack basis
GUARD_TOL = 1e-6
# a sibling node continues from a copy of its parent's tableau while the
# tableaux waiting on the search stack stay within this many bytes, and
# starts from the slack basis otherwise: the benchmark's searches stack at
# most 1 MB, while copies of full-scale tableaux (12-91 MB each) nearly
# doubled peak memory without saving time
STACK_TABLEAU_BYTES = 8 << 20
BLAND_AFTER = 30  # consecutive degenerate pivots before the dual Bland rule


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


# --- bounded-variable dual simplex -----------------------------------------------

def _pivot(T, i, j):
    """One Gauss-Jordan step: make column j of T the unit vector of row i.

    Only the rows with a nonzero entry in column j are updated; the others
    (most of them, in a sparse program) are left exactly as they are.
    """
    T[i] /= T[i, j]
    rows = T[:, j].nonzero()[0]
    rows = rows[rows != i]
    T[rows] -= T[rows, j, None] * T[i]


class _Lp:
    """The LP relaxation of one node, min c.x s.t. A x + s = b with
    lo <= x <= hi and each logical s_i bounded by its row's relation, and the
    state of a bounded-variable dual simplex on it.

    `T` is the tableau B^-1 [A | I | b] as one row-major array; `basis` holds
    the basic column of each row; `x` the value of every column (a nonbasic
    column sits exactly on one of its bounds); `d` the reduced costs; and
    `side` is +1 for a nonbasic column at its lower bound, -1 at its upper
    bound, and 0 for a basic or fixed column, which never enters. The state is
    dual feasible throughout: d >= 0 at a lower bound, d <= 0 at an upper one.
    """

    def __init__(self, ar: "_Arrays", lo, hi):
        """The slack basis under structural bounds `lo` and `hi`."""
        n, m = ar.n, len(ar.b)
        self.T = np.zeros((m, n + m + 1))
        self.T[:, :n] = ar.A
        self.T[np.arange(m), n + np.arange(m)] = 1.0
        self.T[:, -1] = ar.b
        self.basis = np.arange(n, n + m)
        self.lo = np.concatenate([lo, np.where(ar.ge, -np.inf, 0.0)])
        self.hi = np.concatenate([hi, np.where(ar.ge | ar.eq, 0.0, np.inf)])
        self.cost = np.concatenate([ar.c, np.zeros(m)])
        self.d = self.cost.copy()
        self.x = np.zeros(n + m)
        self.x[:n] = np.where(ar.c < 0, hi, lo)
        self.x[n:] = ar.b - ar.A @ self.x[:n]
        self.side = np.zeros(n + m)
        self.side[:n] = np.where(lo == hi, 0.0, np.where(ar.c < 0, -1.0, 1.0))
        self.row = None  # the row whose dual ratio test proved infeasibility

    def copy(self) -> "_Lp":
        """An independent copy of this state, for a sibling node."""
        twin = _Lp.__new__(_Lp)
        twin.__dict__ = {name: a.copy() if isinstance(a, np.ndarray) else a
                         for name, a in self.__dict__.items()}
        return twin

    def rebound(self, lo, hi):
        """Tighten the structural bounds to `lo` and `hi`. A nonbasic column
        moves onto its new bound, shifting the basic values with it; a basic
        column keeps its value and, if now outside its bounds, leaves in `run`.
        The basis stays dual feasible."""
        n = len(lo)
        self.lo[:n] = lo
        self.hi[:n] = hi
        x = self.x[:n]
        shift = np.clip(x, lo, hi) - x
        shift[self.basis[self.basis < n]] = 0.0
        moved = shift.nonzero()[0]
        if moved.size:
            self.x[self.basis] -= self.T[:, moved] @ shift[moved]
            x[moved] += shift[moved]
        self.side[:n][lo == hi] = 0.0

    def holds(self, ar: "_Arrays", status: str) -> bool:
        """Whether the answer of `run` holds against the original rows and not
        only against the tableau, whose rounding error grows with every pivot
        since it was built from A. With B^-1 read off the tableau's logical
        block, an 'optimal' answer holds if x satisfies A x + s = b and the
        reduced costs recomputed from A match `d`, and an 'infeasible' one if
        the row that ended the run, recomputed from A, proves it (Farkas: no
        point of the bounding box meets the row)."""
        n = ar.n
        binv = self.T[:, n:-1]
        if status == "infeasible":
            y = binv[self.row]
            g = np.concatenate([y @ ar.A, y])
            rhs = float(y @ ar.b)
            slack_lo, slack_hi = ar.slack_box
            lo = np.concatenate([self.lo[:n], slack_lo])
            hi = np.concatenate([self.hi[:n], slack_hi])
            low = float(np.where(g > 0, g * lo, g * hi).sum())
            high = float(np.where(g > 0, g * hi, g * lo).sum())
            return low > rhs + FEAS_TOL or high < rhs - FEAS_TOL
        y = self.cost[self.basis] @ binv
        dual = np.concatenate([y @ ar.A, y]) - self.cost + self.d
        primal = ar.A @ self.x[:n] + self.x[n:] - ar.b
        return max(np.abs(dual).max(), np.abs(primal).max(initial=0.0)) <= GUARD_TOL

    def _refresh(self):
        """Recompute the reduced costs and basic values from the tableau."""
        T, basis = self.T, self.basis
        self.d[:] = self.cost - self.cost[basis] @ T[:, :-1]
        nonbasic = self.x.copy()
        nonbasic[basis] = 0.0
        at = nonbasic.nonzero()[0]
        self.x[basis] = T[:, -1] - T[:, at] @ nonbasic[at]

    def run(self, deadline=None, max_iter=20000):
        """Dual simplex pivots to optimality. Returns (status, pivots): status
        'optimal', 'infeasible' (the dual ratio test finds no entering
        column), 'stalled' (`max_iter` iterations) or 'timeout' (`deadline`, a
        `perf_counter` value, passed), and the number of pivots taken.

        Leaving variable: the basic one farthest outside its bounds. Entering
        column: the smallest dual ratio, ties to the largest pivot entry, which
        keeps the pivots well conditioned. After `BLAND_AFTER` consecutive
        degenerate pivots (a zero dual step) both rules switch to Bland's dual
        analogue, the smallest-index infeasible basic variable and the
        first-index ratio tie, so cycling cannot happen. Reduced costs and
        basic values are carried along incrementally and recomputed every 64
        iterations, and before the LP is declared optimal or infeasible, to
        keep rounding drift out of both tests. The deadline is checked before
        every pivot: a pivot of a large tableau is costly, and a whole LP may
        need few of them.
        """
        T, basis, x, d, side, lo, hi = (self.T, self.basis, self.x, self.d,
                                        self.side, self.lo, self.hi)
        k = T.shape[1] - 1
        exact = True
        degenerate_streak = 0
        pivots = 0
        for it in range(max_iter):
            if it % 64 == 63 and not exact:
                self._refresh()
                exact = True
            xb = x[basis]
            above = xb - hi[basis]
            viol = np.maximum(lo[basis] - xb, above)
            rows = (viol > FEAS_TOL).nonzero()[0]
            if rows.size == 0:
                if exact:
                    return "optimal", pivots
                self._refresh()
                exact = True
                continue
            bland = degenerate_streak > BLAND_AFTER
            r = rows[basis[rows].argmin()] if bland else rows[viol[rows].argmax()]
            up = above[r] > 0  # the leaving variable goes to its upper bound
            alpha = T[r, :k] if up else -T[r, :k]
            cand = (side * alpha > FEAS_TOL).nonzero()[0]
            if cand.size == 0:
                if exact:
                    self.row = r
                    return "infeasible", pivots
                self._refresh()
                exact = True
                continue
            ratios = d[cand] / alpha[cand]
            best = ratios.min()
            ties = cand[ratios <= best + 1e-12]
            if bland or ties.size == 1:
                q = ties[0]
            else:
                q = ties[np.abs(alpha[ties]).argmax()]
            degenerate_streak = degenerate_streak + 1 if best < 1e-10 else 0
            if deadline is not None and perf_counter() > deadline:
                return "timeout", pivots
            leaving = basis[r]
            bound = hi[leaving] if up else lo[leaving]
            step = (x[leaving] - bound) / T[r, q]
            x[basis] -= step * T[:, q]
            x[q] += step
            x[leaving] = bound
            _pivot(T, r, q)
            pivots += 1
            basis[r] = q
            d -= d[q] * T[r, :k]
            side[q] = 0.0
            if lo[leaving] < hi[leaving]:
                side[leaving] = -1.0 if up else 1.0
            exact = False
        return "stalled", pivots


# --- problem arrays -------------------------------------------------------------

class _Arrays:
    def __init__(self, p: IlpProblem):
        self.ids = [v.id for v in p.variables]
        self.index = {vid: j for j, vid in enumerate(self.ids)}
        self.n = len(self.ids)
        # each column's position in id order, for the branching tie-break
        self.rank = np.empty(self.n, dtype=np.intp)
        self.rank[sorted(range(self.n), key=self.ids.__getitem__)] = np.arange(self.n)
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

    @cached_property
    def slack_box(self):
        """Finite bounds on each row's logical b - A x over the 0/1 box."""
        most = np.maximum(self.A, 0).sum(axis=1)  # the largest A x
        least = np.minimum(self.A, 0).sum(axis=1)
        return (np.where(self.ge, self.b - most, 0.0),
                np.where(self.ge | self.eq, 0.0, self.b - least))

    def feasible(self, X, tol=FEAS_TOL):
        """Whether point `X` satisfies every row; for a batch of points (one
        per row of `X`), one such bool per point."""
        lhs = X @ self.A.T
        violated = np.where(self.eq, np.abs(lhs - self.b) > tol,
                            np.where(self.ge, lhs < self.b - tol, lhs > self.b + tol))
        return ~violated.any(axis=-1)

    def objective_of(self, x) -> float:
        return self.sign * float(self.c @ x) + self.constant


def _fallback_bound(ar: _Arrays, lo, hi) -> float:
    """Coefficient-sum bound: ignore rows, take the best bound of every column."""
    return float(np.minimum(ar.c * lo, ar.c * hi).sum())


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

    # a node: its column bounds, its parent's LP bound, and the parent's final
    # LP to continue from (None: start from the slack basis)
    stack: list[tuple[np.ndarray, np.ndarray, float, _Lp | None]] = [
        (np.zeros(ar.n), np.ones(ar.n), -np.inf, None)]
    stacked_bytes = 0  # tableaux held by the stack
    while stack:
        if deadline is not None and perf_counter() > deadline:
            timed_out = True
            break
        if node_budget is not None and nodes >= node_budget:
            timed_out = True
            break
        lo, hi, parent_bound, lp = stack.pop()
        if lp is not None:
            stacked_bytes -= lp.T.nbytes
        if parent_bound >= incumbent_val - FEAS_TOL:
            continue  # the parent's relaxation already rules this subtree out
        nodes += 1
        status = None
        if lp is not None:
            lp.rebound(lo, hi)
            status, lp_pivots = lp.run(deadline)
            pivots += lp_pivots
            if status == "stalled" or status != "timeout" and not lp.holds(ar, status):
                status = None  # solve the node again from the slack basis
        if status is None:
            lp = _Lp(ar, lo, hi)
            status, lp_pivots = lp.run(deadline)
            pivots += lp_pivots
        if status == "timeout":
            timed_out = True
            break
        if status == "infeasible":
            continue
        free = lo < hi
        if status == "optimal":
            x = lp.x[:ar.n]
            value = float(ar.c @ x)
        else:  # stalled: the children start from the slack basis
            lp = None
            x = None if free.any() else lo  # with every column fixed, its one point
            value = _fallback_bound(ar, lo, hi)
        if root_relax is None:
            root_relax = ar.sign * value + ar.constant
        if value >= incumbent_val - FEAS_TOL:
            continue
        frac = free
        if x is not None:
            frac = free & (np.abs(x - np.round(x)) > INT_TOL)
            # rounding the relaxation is free and often lands on the optimum,
            # which lets the equal-bound pruning bite much earlier
            cand = np.round(x)
            cand_feasible = ar.feasible(cand)
            if cand_feasible:
                cand_val = float(ar.c @ cand)
                if cand_val < incumbent_val - FEAS_TOL:
                    incumbent_val = cand_val
                    incumbent_x = cand
            if not frac.any():
                if cand_feasible or not free.any():
                    continue
                # rounding broke feasibility; branch on the first free binary
                frac = free
        cols = frac.nonzero()[0]
        if x is not None:
            branch = cols[np.lexsort((ar.rank[cols], np.abs(x[cols] - 0.5)))[0]]
        else:
            branch = cols[ar.rank[cols].argmin()]
        first = 1.0 if one_first else 0.0
        # the first branch, pushed last, takes this LP over; its sibling gets a
        # copy while the stack's tableaux, both children's included, stay
        # within budget, and otherwise starts from the slack basis
        sibling = None
        if lp is not None and stacked_bytes + 2 * lp.T.nbytes <= STACK_TABLEAU_BYTES:
            sibling = lp.copy()
        for v, warm in ((1.0 - first, sibling), (first, lp)):
            child_lo, child_hi = lo.copy(), hi.copy()
            child_lo[branch] = child_hi[branch] = v
            stack.append((child_lo, child_hi, value, warm))
            if warm is not None:
                stacked_bytes += warm.T.nbytes

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
    lp = _Lp(ar, np.zeros(ar.n), np.ones(ar.n))
    status, _ = lp.run()
    if status != "optimal":
        return status, None
    return "optimal", ar.sign * float(ar.c @ lp.x[:ar.n]) + ar.constant


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
