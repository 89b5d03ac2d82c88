"""Exact 0/1 solving: branch and bound over an LP relaxation, plus a
brute-force enumeration oracle used by the test suite.

Every variable of a program is binary (the encoder makes no other kind and
the LP reader rejects any other), so the relaxation bounds each column to
[0, 1] and the search may branch on every column. The program is read once
into `_Arrays`, which holds its rows as COO triplets and keeps no dense copy
of A (only `brute_force`, at most 22 columns, densifies its own). Each LP is
solved by a self-contained dense bounded-variable dual simplex (`_Lp`). Its
tableau, filled from the triplets, is B^-1 [A | I | b]: one logical column
per row, bounded to [0, inf) for a `<=` row, (-inf, 0] for a `>=` row and
[0, 0] for an `=` row, while the structural columns carry the node's bounds.
There are no `x <= 1` rows, no artificial columns and no phase 1. The root
starts from the slack basis (every logical basic, every structural column at
its upper bound where its cost is negative and at its lower bound
otherwise), which is dual feasible; the simplex runs until every basic value
lies within its bounds, and finds the LP infeasible when its ratio test has
no entering column. A child continues from its parent's final tableau (a
warm start), from which it differs in the one column it branched on, so
`_Lp.fix` fixes only that column: a nonbasic one moves onto its value,
shifting the basic values by its tableau column times the move, and a basic
one keeps its value and leaves in the next dual pivots if that is now off.
Fixing a column keeps the basis dual feasible, so only dual pivots are
needed. The first child takes the tableau over and its sibling gets a copy,
unless the tableaux waiting on the search stack would pass
`STACK_TABLEAU_BYTES`; then the sibling starts from the slack basis.

A tableau carried from node to node is never rebuilt from A, so every warm
answer is checked against the original rows before it prunes anything
(`_Lp.holds`): an optimum's basic values and reduced costs, recomputed from
the triplets (A x and yᵀA as sparse products) with B^-1 (the tableau's
logical block), must match the tableau's within `GUARD_TOL`, and an
infeasible verdict's row, recomputed the same way, must admit no point of
the column bounds (a Farkas certificate). A node whose warm answer fails the
check, or whose warm LP stalls, is solved again from the slack basis; the
failed checks, not the stalls, are counted in
`Solution.stats["guard_rejections"]`.

The simplex keeps the basic values and their bounds in row order while it
runs, as a bounded dual simplex usually does (Koberstein, *The Dual Simplex
Method*, 2005), and writes them back into `x` when it returns. The leaving
variable is the basic one farthest outside its bounds (one `argmax` over the
row-ordered values), the entering column wins the dual ratio test (ties to
the largest pivot entry); after 30 consecutive degenerate pivots the rules
switch to the dual analogue of Bland's (the smallest-index infeasible basic
variable, the first-index ratio tie), so the simplex is deterministic and
cannot cycle. A pivot reads its entering column once, for the step, the
basic-value update and the row multipliers, and updates only the rows with a
nonzero entry in it, in blocks of `PIVOT_BLOCK_BYTES` bytes, so its
temporaries stay small; every entry gets the same `x - a*b` in any block.
If the simplex gives up within its iteration budget from the slack basis
too, the node falls back to a coefficient-sum bound and its children start
from the slack basis, which keeps the search exact, only slower. A node
rounds its LP point once, and checks the rounded point against the rows only
if it would improve the incumbent or if the LP point is integral, the two
cases where its feasibility matters. Branching is most-fractional-first with
a lexicographic tie-break on variable id; with a nonnegative minimization
objective the 1-branch is explored first, otherwise the 0-branch. A time
limit is checked before every node and before every simplex pivot.
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
# a pivot updates the rows it touches in blocks of this many bytes: it makes
# two temporaries the size of the rows it updates at once, which, once the
# columns fill in, could reach twice the tableau; a tableau of at most this
# size is one block
PIVOT_BLOCK_BYTES = 1 << 20
BLAND_AFTER = 30  # consecutive degenerate pivots before the dual Bland rule
MAX_PIVOTS = 20000  # simplex iterations before an LP is reported 'stalled'


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

def _pivot(T, i, col):
    """One Gauss-Jordan step on row i: `col`, a copy of the entering column
    read once by the caller, becomes the unit vector of row i.

    Only the rows with a nonzero entry in `col` are updated; the others
    (most of them, in a sparse program) are left exactly as they are. They
    are updated in blocks of about `PIVOT_BLOCK_BYTES`, so the step's
    temporaries stay that small however many rows it touches; every entry
    gets the same `x - a*b` in any block.
    """
    T[i] /= col[i]
    rows = col.nonzero()[0]
    rows = rows[rows != i]
    step = PIVOT_BLOCK_BYTES // T[i].nbytes or 1
    blocks = (rows,) if rows.size <= step else np.split(rows, range(step, rows.size, step))
    for block in blocks:
        T[block] -= col[block, None] * T[i]


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
        self.T[ar.rowidx, ar.indices] = ar.data
        self.T[np.arange(m), n + np.arange(m)] = 1.0
        self.T[:, -1] = ar.b
        self.basis = np.arange(n, n + m)
        self.lo = np.concatenate([lo, np.where(ar.ge, -np.inf, 0.0)])
        self.hi = np.concatenate([hi, np.where(ar.ge | ar.eq, 0.0, np.inf)])
        self.cost = np.concatenate([ar.c, np.zeros(m)])
        self.d = self.cost.copy()
        self.x = np.zeros(n + m)
        self.x[:n] = np.where(ar.c < 0, hi, lo)
        self.x[n:] = ar.b - ar.row_sums(self.x[:n])
        self.side = np.zeros(n + m)
        self.side[:n] = np.where(lo == hi, 0.0, np.where(ar.c < 0, -1.0, 1.0))
        self.row = None  # the row whose dual ratio test proved infeasibility

    def copy(self) -> "_Lp":
        """An independent copy of this state, for a sibling node."""
        twin = _Lp.__new__(_Lp)
        twin.__dict__ = {name: a.copy() if isinstance(a, np.ndarray) else a
                         for name, a in self.__dict__.items()}
        return twin

    def fix(self, j, v):
        """Fix structural column j, free until now, to `v`. A nonbasic column
        moves onto `v`, shifting the basic values by T[:, j] times the move; a
        basic column keeps its value and, if now off `v`, leaves in `run`.
        The basis stays dual feasible."""
        move = v - self.x[j]
        if self.side[j] and move:
            self.x[self.basis] -= self.T[:, j] * move
            self.x[j] = v
        self.lo[j] = self.hi[j] = v
        self.side[j] = 0.0

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
            g = np.concatenate([ar.col_sums(y), y])
            rhs = float(y @ ar.b)
            slack_lo, slack_hi = ar.slack_box
            lo = np.concatenate([self.lo[:n], slack_lo])
            hi = np.concatenate([self.hi[:n], slack_hi])
            low = float(np.where(g > 0, g * lo, g * hi).sum())
            high = float(np.where(g > 0, g * hi, g * lo).sum())
            return low > rhs + FEAS_TOL or high < rhs - FEAS_TOL
        y = self.cost[self.basis] @ binv
        dual = np.concatenate([ar.col_sums(y), y]) - self.cost + self.d
        primal = ar.row_sums(self.x[:n]) + self.x[n:] - ar.b
        return np.abs(np.concatenate([dual, primal])).max() <= GUARD_TOL  # NaN fails

    def _refresh(self):
        """Recompute the reduced costs from the tableau, and return the basic
        values, in row order, that the nonbasic values of `x` give."""
        T, basis = self.T, self.basis
        self.d[:] = self.cost - self.cost[basis] @ T[:, :-1]
        nonbasic = self.x.copy()
        nonbasic[basis] = 0.0
        at = nonbasic.nonzero()[0]
        return T[:, -1] - T[:, at] @ nonbasic[at]

    def run(self, deadline=None):
        """Dual simplex pivots to optimality. Returns (status, pivots): status
        'optimal', 'infeasible' (the dual ratio test finds no entering
        column), 'stalled' (`MAX_PIVOTS` iterations) or 'timeout' (`deadline`, a
        `perf_counter` value, passed), and the number of pivots taken.

        Leaving variable: the basic one farthest outside its bounds. Entering
        column: the smallest dual ratio, ties to the largest pivot entry, which
        keeps the pivots well conditioned. After `BLAND_AFTER` consecutive
        degenerate pivots (a zero dual step) both rules switch to Bland's dual
        analogue, the smallest-index infeasible basic variable and the
        first-index ratio tie, so cycling cannot happen. The basic values and
        their bounds are kept in row order (`xb`, `lob`, `hib`) while the
        simplex runs, and written back to `x` when it returns. Reduced costs
        and basic values are carried along incrementally and recomputed every
        64 iterations, and before the LP is declared optimal or infeasible, to
        keep rounding drift out of both tests. The deadline is checked before
        every pivot: a pivot of a large tableau is costly, and a whole LP may
        need few of them.
        """
        T, basis, x, d, side, lo, hi = (self.T, self.basis, self.x, self.d,
                                        self.side, self.lo, self.hi)
        if not basis.size:
            return "optimal", 0  # no rows: every column already sits on its best bound
        k = T.shape[1] - 1
        xb, lob, hib = x[basis], lo[basis], hi[basis]
        exact = True
        degenerate_streak = 0
        pivots = 0
        status = "stalled"
        for it in range(MAX_PIVOTS):
            if it % 64 == 63 and not exact:
                xb = self._refresh()
                exact = True
            viol = np.maximum(lob - xb, xb - hib)
            bland = degenerate_streak > BLAND_AFTER
            # Bland: the infeasible row with the smallest basic index
            r = np.where(viol > FEAS_TOL, basis, len(x)).argmin() if bland else viol.argmax()
            if viol[r] <= FEAS_TOL:  # no basic value is outside its bounds
                if exact:
                    status = "optimal"
                    break
                xb = self._refresh()
                exact = True
                continue
            up = xb[r] > hib[r]  # the leaving variable goes to its upper bound
            alpha = T[r, :k] if up else -T[r, :k]
            cand = (side * alpha > FEAS_TOL).nonzero()[0]
            if cand.size == 0:
                if exact:
                    self.row = r
                    status = "infeasible"
                    break
                xb = self._refresh()
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
                status = "timeout"
                break
            leaving = basis[r]
            bound = hib[r] if up else lob[r]
            col = T[:, q].copy()
            step = (xb[r] - bound) / col[r]
            xb -= step * col
            xb[r] = x[q] + step
            x[leaving] = bound
            lob[r], hib[r] = lo[q], hi[q]
            _pivot(T, r, col)
            pivots += 1
            basis[r] = q
            d -= d[q] * T[r, :k]
            side[q] = 0.0
            if lo[leaving] < hi[leaving]:
                side[leaving] = -1.0 if up else 1.0
            exact = False
        x[basis] = xb
        return status, pivots


# --- problem arrays -------------------------------------------------------------

class _Arrays:
    """A program as numpy arrays, built once: column ids, the objective
    (`c`, in minimization sense), and the rows as coordinate triplets in row
    order: coefficient `data[k]` sits in row `rowidx[k]` and column
    `indices[k]`. Row i has right-hand side `b[i]` and relation `ge`/`eq`
    (neither: `<=`). No dense matrix of the rows is kept."""

    def __init__(self, p: IlpProblem):
        self.ids = [v.id for v in p.variables]
        index = {vid: j for j, vid in enumerate(self.ids)}
        self.n = len(self.ids)
        # each column's position in id order, for the branching tie-break
        self.rank = np.empty(self.n, dtype=np.intp)
        self.rank[sorted(range(self.n), key=self.ids.__getitem__)] = np.arange(self.n)
        sign = 1.0 if p.objective.sense == "min" else -1.0
        self.sense = p.objective.sense
        self.c = np.zeros(self.n)
        for vid, coeff in p.objective.terms.items():
            self.c[index[vid]] = sign * coeff
        self.constant = p.objective.constant
        self.sign = sign
        rows = p.constraints
        counts = np.array([len(row.coeffs) for row in rows], dtype=np.intp)
        self.indices = np.array([index[v] for row in rows for v in row.coeffs], dtype=np.intp)
        self.data = np.array([a for row in rows for a in row.coeffs.values()], dtype=float)
        self.rowidx = np.repeat(np.arange(len(rows)), counts)
        self.b = np.array([row.rhs for row in rows], dtype=float)
        rels = np.array([row.rel for row in rows], dtype=str)
        self.ge = rels == ">="
        self.eq = rels == "="

    def row_sums(self, x):
        """A x, for one point `x`."""
        return np.bincount(self.rowidx, self.data * x[self.indices], len(self.b))

    def col_sums(self, y):
        """yᵀA, for one weight `y` per row."""
        return np.bincount(self.indices, self.data * y[self.rowidx], self.n)

    @cached_property
    def slack_box(self):
        """Finite bounds on each row's logical b - A x over the 0/1 box."""
        m = len(self.b)
        most = np.bincount(self.rowidx, np.maximum(self.data, 0), m)  # the largest A x
        least = np.bincount(self.rowidx, np.minimum(self.data, 0), m)
        return (np.where(self.ge, self.b - most, 0.0),
                np.where(self.ge | self.eq, 0.0, self.b - least))

    def satisfied(self, lhs):
        """Whether row activities `lhs` (A x) meet every row; for a batch (one
        point per row of `lhs`), one such bool per point."""
        tol = FEAS_TOL
        violated = np.where(self.eq, np.abs(lhs - self.b) > tol,
                            np.where(self.ge, lhs < self.b - tol, lhs > self.b + tol))
        return ~violated.any(axis=-1)

    def feasible(self, x) -> bool:
        """Whether point `x` satisfies every row."""
        return bool(self.satisfied(self.row_sums(x)))

    def objective_of(self, x) -> float:
        return self.sign * float(self.c @ x) + self.constant


def _fallback_bound(ar: _Arrays, lo, hi) -> float:
    """Coefficient-sum bound: ignore rows, take the best bound of every column."""
    return float(np.minimum(ar.c * lo, ar.c * hi).sum())


def solve(p: IlpProblem, time_limit: float | None = None) -> Solution:
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
    guard_rejections = 0  # warm answers that failed `holds`, solved again cold

    # a node: its column bounds, its parent's LP bound, and the parent's final
    # LP to continue from with the column it branched on (None: start from
    # the slack basis)
    stack: list[tuple[np.ndarray, np.ndarray, float, _Lp | None, int | None]] = [
        (np.zeros(ar.n), np.ones(ar.n), -np.inf, None, None)]
    stacked_bytes = 0  # tableaux held by the stack
    while stack:
        if deadline is not None and perf_counter() > deadline:
            timed_out = True
            break
        lo, hi, parent_bound, lp, branched = stack.pop()
        if lp is not None:
            stacked_bytes -= lp.T.nbytes
        if parent_bound >= incumbent_val - FEAS_TOL:
            continue  # the parent's relaxation already rules this subtree out
        nodes += 1
        status = None
        if lp is not None:
            lp.fix(branched, lo[branched])
            status, lp_pivots = lp.run(deadline)
            pivots += lp_pivots
            if status == "stalled":
                status = None  # solve the node again from the slack basis
            elif status != "timeout" and not lp.holds(ar, status):
                status = None
                guard_rejections += 1
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
            # rounding the relaxation is free and often lands on the optimum,
            # which lets the equal-bound pruning bite much earlier; the rounded
            # point is checked against the rows only if it would improve the
            # incumbent or if x is integral, when it decides the node
            cand = np.round(x)
            frac = free & (np.abs(x - cand) > INT_TOL)
            integral = not frac.any()
            cand_val = float(ar.c @ cand)
            improves = cand_val < incumbent_val - FEAS_TOL
            if (improves or integral) and ar.feasible(cand):
                if improves:
                    incumbent_val = cand_val
                    incumbent_x = cand
                if integral:
                    continue
            elif integral:
                if not free.any():
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
            stack.append((child_lo, child_hi, value, warm, branch))
            if warm is not None:
                stacked_bytes += warm.T.nbytes

    elapsed = perf_counter() - start
    stats = {"nodes": nodes, "pivots": pivots, "wall_time_s": elapsed,
             "root_relaxation": root_relax, "guard_rejections": guard_rejections}
    if incumbent_x is not None:
        assignment = {vid: int(round(incumbent_x[j])) for j, vid in enumerate(ar.ids)}
        value = ar.objective_of(incumbent_x)
        return Solution("timeout" if timed_out else "optimal", assignment, value, stats)
    if timed_out:
        return Solution("timeout", {}, None, stats)
    return Solution("infeasible", {}, None, stats)


def lp_relaxation(p: IlpProblem) -> tuple[str, float | None]:
    """Root LP bound in the problem's own sense. Used by property tests, and
    timed by the benchmark's fullscale-compile workload."""
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
    A = np.zeros((len(ar.b), nb))
    A[ar.rowidx, ar.indices] = ar.data

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
        feas = ar.satisfied(X @ A.T)
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
