"""Exact 0/1 solving: branch and bound over an LP relaxation, plus a
brute-force enumeration oracle used by the test suite.

Every variable of a program is binary (the encoder makes no other kind and
the LP reader rejects any other), so the relaxation bounds each column to
[0, 1] and the search may branch on every column. The LP relaxation is a
self-contained dense two-phase simplex with Bland's rule (deterministic,
cycle-free). If the simplex gives up within its iteration budget, the node
falls back to a coefficient-sum bound, which keeps the search exact, only
slower. Branching is most-fractional-first with a lexicographic tie-break on
variable id; with a nonnegative minimization objective the 1-branch is
explored first, otherwise the 0-branch. A time limit is checked before every
node and before every simplex pivot.
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

def _pivot_loop(T, basis, cost, allowed, max_iter, deadline=None):
    """Pivot tableau T (rows x cols+1) to optimality. Returns status:
    'optimal', 'unbounded', 'stalled' or 'timeout' (`deadline`, a
    `perf_counter` value, passed).

    Entering column: most negative reduced cost (lowest index on ties), which
    keeps iteration counts low; after 30 consecutive degenerate pivots the
    rule flips to Bland's, so cycling cannot happen. Reduced costs are carried
    along incrementally and refreshed from scratch every 64 pivots to keep
    rounding drift out of the entering test. The deadline is checked before
    every pivot, not just at the refresh: a pivot of a large dense tableau is
    costly, and a whole LP may need fewer than 64 of them.
    """
    n_cols = T.shape[1] - 1
    reduced = cost - cost[basis] @ T[:, :n_cols]
    exact = True
    degenerate_streak = 0
    for it in range(max_iter):
        if deadline is not None and perf_counter() > deadline:
            return "timeout"
        if it % 64 == 63 and not exact:
            reduced = cost - cost[basis] @ T[:, :n_cols]
            exact = True
        eligible = (reduced < -FEAS_TOL) & allowed
        if not eligible.any():
            if exact:
                return "optimal"
            reduced = cost - cost[basis] @ T[:, :n_cols]
            exact = True
            continue
        if degenerate_streak > 30:
            j = int(np.flatnonzero(eligible)[0])  # Bland: smallest index
        else:
            masked = np.where(eligible, reduced, 0.0)
            j = int(np.argmin(masked))  # Dantzig: most negative, first on ties
        col = T[:, j]
        pos = np.flatnonzero(col > FEAS_TOL)
        if pos.size == 0:
            return "unbounded"
        ratios = T[pos, -1] / col[pos]
        best = ratios.min()
        ties = pos[ratios <= best + 1e-12]
        i = int(ties[np.argmin(np.asarray(basis)[ties])])
        degenerate_streak = degenerate_streak + 1 if best < 1e-10 else 0
        T[i, :] /= T[i, j]
        factors = T[:, j].copy()
        factors[i] = 0.0
        T -= np.outer(factors, T[i, :])
        reduced = reduced - reduced[j] * T[i, :n_cols]
        exact = False
        basis[i] = j
    return "stalled"


def _simplex(c, A, b, rels, max_iter=20000, deadline=None):
    """min c.x s.t. A x <rel> b, 0 <= x <= 1, for at least one column.

    Returns (status, x, value); status 'optimal', 'infeasible', or one of
    `_pivot_loop`'s failures: 'unbounded', 'stalled', 'timeout'.
    """
    n = len(c)
    rows = []
    for i in range(A.shape[0]):
        rows.append((A[i].copy(), float(b[i]), rels[i]))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, 1.0, "<="))
    m = len(rows)
    n_slack = sum(1 for _, _, rel in rows if rel != "=")
    total = n + n_slack + m  # worst case one artificial per row
    T = np.zeros((m, total + 1))
    slack_at = n
    art_cols = []
    basis = [0] * m
    art_needed = []
    for i, (coefs, rhs, rel) in enumerate(rows):
        row = np.zeros(total + 1)
        row[:n] = coefs
        if rel == ">=":
            row[:n] = -row[:n]
            rhs = -rhs
            rel = "<="
        slack_col = None
        if rel == "<=":
            row[slack_at] = 1.0
            slack_col = slack_at
            slack_at += 1
        if rhs < 0:
            row[:-1] = -row[:-1]
            rhs = -rhs
            if slack_col is not None:
                slack_col = None  # slack now has coefficient -1
        row[-1] = rhs
        T[i, :] = row
        if slack_col is not None:
            basis[i] = slack_col
            art_needed.append(None)
        else:
            art_needed.append(i)
    art_at = n + n_slack
    for i, need in enumerate(art_needed):
        if need is None:
            continue
        T[i, art_at] = 1.0
        basis[i] = art_at
        art_cols.append(art_at)
        art_at += 1
    used = art_at
    T = T[:, list(range(used)) + [total]]
    n_cols = used

    # phase 1: drive artificials to zero
    if art_cols:
        cost1 = np.zeros(n_cols)
        cost1[art_cols] = 1.0
        status = _pivot_loop(T, basis, cost1, np.ones(n_cols, dtype=bool), max_iter,
                             deadline)
        if status in ("stalled", "timeout"):
            return status, None, None
        value1 = cost1[basis] @ T[:, -1]
        if value1 > 1e-7:
            return "infeasible", None, None
        # artificials still basic sit at zero: pivot them out or drop their
        # (redundant) rows, then remove the artificial columns altogether
        first_art = n + n_slack
        drop_rows = []
        for i in range(len(basis)):
            if basis[i] < first_art:
                continue
            pivot_j = None
            for j in range(first_art):
                if abs(T[i, j]) > FEAS_TOL:
                    pivot_j = j
                    break
            if pivot_j is None:
                drop_rows.append(i)
                continue
            T[i, :] /= T[i, pivot_j]
            factors = T[:, pivot_j].copy()
            factors[i] = 0.0
            T -= np.outer(factors, T[i, :])
            basis[i] = pivot_j
        if drop_rows:
            keep = [i for i in range(len(basis)) if i not in drop_rows]
            T = T[keep, :]
            basis = [basis[i] for i in keep]
        T = np.delete(T, art_cols, axis=1)  # art columns are the trailing ones
        n_cols = first_art

    # phase 2: original objective
    cost2 = np.zeros(n_cols)
    cost2[:n] = c
    status = _pivot_loop(T, basis, cost2, np.ones(n_cols, dtype=bool), max_iter, deadline)
    if status != "optimal":
        return status, None, None
    x = np.zeros(n_cols)
    x[basis] = T[:, -1]
    xs = x[:n]
    return "optimal", xs, float(c @ xs)


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
        self.rels = [r[1] for r in rows]
        self.b = np.array([r[2] for r in rows]) if rows else np.zeros(0)

    def feasible_point(self, x, tol=FEAS_TOL) -> bool:
        lhs = self.A @ x
        for i, rel in enumerate(self.rels):
            if rel == "<=" and lhs[i] > self.b[i] + tol:
                return False
            if rel == ">=" and lhs[i] < self.b[i] - tol:
                return False
            if rel == "=" and abs(lhs[i] - self.b[i]) > tol:
                return False
        return True

    def objective_of(self, x) -> float:
        return self.sign * float(self.c @ x) + self.constant


def _lp_with_fixed(ar: _Arrays, fixed: dict[int, int], deadline=None):
    """LP relaxation with some binaries fixed; fixed columns are substituted out.

    Returns (status, value_in_min_sense_without_constant, full_x or None).
    """
    free = [j for j in range(ar.n) if j not in fixed]
    fx = np.zeros(ar.n)
    for j, v in fixed.items():
        fx[j] = v
    if not free:
        if not ar.feasible_point(fx):
            return "infeasible", None, None
        return "optimal", float(ar.c @ fx), fx
    b = ar.b - ar.A @ fx
    status, xf, value = _simplex(ar.c[free], ar.A[:, free], b, ar.rels,
                                 deadline=deadline)
    if status != "optimal":
        return status, None, None
    x = fx.copy()
    for idx, j in enumerate(free):
        x[j] = xf[idx]
    return "optimal", float(ar.c @ x), x


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
        status, value, x = _lp_with_fixed(ar, fixed, deadline)
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
            cand_feasible = ar.feasible_point(cand)
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
    stats = {"nodes": nodes, "wall_time_s": elapsed, "root_relaxation": root_relax}
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
    status, value, _ = _lp_with_fixed(ar, {})
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
        feas = np.ones(len(ks), dtype=bool)
        lhs = X @ ar.A.T
        for i, rel in enumerate(ar.rels):
            if rel == "<=":
                feas &= lhs[:, i] <= ar.b[i] + FEAS_TOL
            elif rel == ">=":
                feas &= lhs[:, i] >= ar.b[i] - FEAS_TOL
            else:
                feas &= np.abs(lhs[:, i] - ar.b[i]) <= FEAS_TOL
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
