"""Exact 0/1 solving: branch and bound over an LP relaxation, plus a
brute-force enumeration oracle used by the test suite.

The LP relaxation is a self-contained dense two-phase simplex with Bland's
rule (deterministic, cycle-free). If the simplex gives up within its
iteration budget, the node falls back to a coefficient-sum bound, which keeps
the search exact, only slower. Branching is most-fractional-first with a
lexicographic tie-break on variable id; with a nonnegative minimization
objective the 1-branch is explored first, otherwise the 0-branch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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

def _pivot_loop(T, basis, cost, allowed, max_iter):
    """Pivot tableau T (rows x cols+1) to optimality. Returns status.

    Entering column: most negative reduced cost (lowest index on ties), which
    keeps iteration counts low; after 30 consecutive degenerate pivots the
    rule flips to Bland's, so cycling cannot happen. Reduced costs are carried
    along incrementally and refreshed from scratch every 64 pivots to keep
    rounding drift out of the entering test.
    """
    n_cols = T.shape[1] - 1
    reduced = cost - cost[basis] @ T[:, :n_cols]
    exact = True
    degenerate_streak = 0
    for it in range(max_iter):
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


def _simplex(c, A, b, rels, ub, max_iter=20000):
    """min c.x s.t. A x <rel> b, 0 <= x <= ub (ub possibly inf).

    Returns (status, x, value); status 'optimal', 'infeasible', 'unbounded'
    or 'stalled'.
    """
    n = len(c)
    rows = []
    for i in range(A.shape[0]):
        rows.append((A[i].copy(), float(b[i]), rels[i]))
    for j in range(n):
        if np.isfinite(ub[j]):
            e = np.zeros(n)
            e[j] = 1.0
            rows.append((e, float(ub[j]), "<="))
    m = len(rows)
    if m == 0:
        # only lower bounds: minimize by pushing positive costs to zero
        if np.any(c < -FEAS_TOL):
            return "unbounded", None, None
        x = np.zeros(n)
        return "optimal", x, 0.0

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
        status = _pivot_loop(T, basis, cost1, np.ones(n_cols, dtype=bool), max_iter)
        if status == "stalled":
            return "stalled", None, None
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
    status = _pivot_loop(T, basis, cost2, np.ones(n_cols, dtype=bool), max_iter)
    if status == "unbounded":
        return "unbounded", None, None
    if status == "stalled":
        return "stalled", None, None
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
        self.binary = np.array([v.is_binary() for v in p.variables], dtype=bool)
        self.ub = np.array([1.0 if v.is_binary() else v.ub for v in p.variables])
        self.lb = np.array([0.0 if v.is_binary() else v.lb for v in p.variables])
        if np.any(self.lb != 0.0):
            raise SolveError("variables with nonzero lower bounds are not supported")
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
        lhs = self.A @ x if self.n else np.zeros(len(self.b))
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


def _lp_with_fixed(ar: _Arrays, fixed: dict[int, int]):
    """LP relaxation with some binaries fixed; fixed columns are substituted out.

    Returns (status, value_in_min_sense_without_constant, full_x or None).
    """
    free = [j for j in range(ar.n) if j not in fixed]
    fx = np.zeros(ar.n)
    for j, v in fixed.items():
        fx[j] = v
    b = ar.b - (ar.A @ fx if ar.n else 0.0)
    A = ar.A[:, free] if len(free) else np.zeros((ar.A.shape[0], 0))
    c = ar.c[free]
    ub = ar.ub[free]
    if not free:
        ok = True
        for i, rel in enumerate(ar.rels):
            if rel == "<=" and 0 > b[i] + FEAS_TOL:
                ok = False
            if rel == ">=" and 0 < b[i] - FEAS_TOL:
                ok = False
            if rel == "=" and abs(b[i]) > FEAS_TOL:
                ok = False
        if not ok:
            return "infeasible", None, None
        return "optimal", float(ar.c @ fx), fx
    status, xf, value = _simplex(c, A, b, ar.rels, ub)
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
            bound += ar.c[j] * (ar.ub[j] if np.isfinite(ar.ub[j]) else 0.0)
            if not np.isfinite(ar.ub[j]):
                return -np.inf
    return bound


def solve(p: IlpProblem, time_limit: float | None = None,
          node_budget: int | None = None) -> Solution:
    """Exact optimum of a 0/1 problem by branch and bound.

    Deterministic for equal inputs and limits. On hitting a limit the status
    is 'timeout' and the best incumbent, if any, is reported.
    """
    start = time.perf_counter()
    ar = _Arrays(p)
    one_first = ar.sense == "min" and bool(np.all(ar.c >= 0))
    nodes = 0
    incumbent_x = None
    incumbent_val = np.inf
    root_relax = None
    timed_out = False

    stack: list[tuple[dict[int, int], float]] = [({}, -np.inf)]
    while stack:
        if time_limit is not None and time.perf_counter() - start > time_limit:
            timed_out = True
            break
        if node_budget is not None and nodes >= node_budget:
            timed_out = True
            break
        fixed, parent_bound = stack.pop()
        if parent_bound >= incumbent_val - FEAS_TOL:
            continue  # the parent's relaxation already rules this subtree out
        nodes += 1
        status, value, x = _lp_with_fixed(ar, fixed)
        if status == "infeasible":
            continue
        if status in ("stalled", "unbounded"):
            value = _fallback_bound(ar, fixed)
            x = None
        if root_relax is None:
            root_relax = None if value is None else ar.sign * value + ar.constant
        if value is not None and value >= incumbent_val - FEAS_TOL:
            continue
        free = [j for j in range(ar.n) if ar.binary[j] and j not in fixed]
        frac = free
        if x is not None:
            frac = [j for j in free if abs(x[j] - round(x[j])) > INT_TOL]
            # rounding the relaxation is free and often lands on the optimum,
            # which lets the equal-bound pruning bite much earlier
            cand = x.copy()
            cand[ar.binary] = np.round(cand[ar.binary])
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
        if not frac:
            raise SolveError("cannot bound or branch: unbounded continuous part")
        if x is not None:
            branch = min(frac, key=lambda j: (abs(x[j] - 0.5), ar.ids[j]))
        else:
            branch = min(frac, key=lambda j: ar.ids[j])
        first = 1 if one_first else 0
        second = 1 - first
        bound = -np.inf if value is None else value
        stack.append(({**fixed, branch: second}, bound))
        stack.append(({**fixed, branch: first}, bound))

    elapsed = time.perf_counter() - start
    stats = {"nodes": nodes, "wall_time_s": elapsed, "root_relaxation": root_relax}
    if incumbent_x is not None:
        assignment = {}
        for j, vid in enumerate(ar.ids):
            assignment[vid] = int(round(incumbent_x[j])) if ar.binary[j] \
                else float(incumbent_x[j])
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
    """Enumerate every assignment of the binary variables (oracle).

    Continuous variables, when present, are resolved per assignment with the
    simplex over the residual system. Ties go to the lexicographically
    smallest assignment in variable order.
    """
    ar = _Arrays(p)
    bin_idx = [j for j in range(ar.n) if ar.binary[j]]
    real_idx = [j for j in range(ar.n) if not ar.binary[j]]
    nb = len(bin_idx)
    if nb > 22:
        raise BruteForceTooLarge(f"{nb} binary variables exceed the 2^22 budget")

    best_val = None
    best_x = None
    total = 1 << nb
    minimize = ar.sense == "min"

    if not real_idx:
        shifts = np.array([nb - 1 - i for i in range(nb)], dtype=np.uint32)
        A_bin = ar.A[:, bin_idx] if ar.A.size else np.zeros((0, nb))
        c_bin = ar.c[bin_idx] * ar.sign
        for lo in range(0, total, 1 << BRUTE_CHUNK_BITS):
            hi = min(total, lo + (1 << BRUTE_CHUNK_BITS))
            ks = np.arange(lo, hi, dtype=np.uint32)
            X = ((ks[:, None] >> shifts[None, :]) & 1).astype(float)
            feas = np.ones(len(ks), dtype=bool)
            if len(ar.b):
                lhs = X @ A_bin.T
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
    else:
        A_real = ar.A[:, real_idx] if ar.A.size else np.zeros((0, len(real_idx)))
        for k in range(total):
            x = np.zeros(ar.n)
            for pos, j in enumerate(bin_idx):
                x[j] = (k >> (nb - 1 - pos)) & 1
            resid = ar.b - (ar.A[:, bin_idx] @ x[bin_idx] if len(ar.b) else 0.0)
            status, y, _ = _simplex(ar.c[real_idx], A_real, resid, ar.rels,
                                    ar.ub[real_idx])
            if status != "optimal":
                continue
            for pos, j in enumerate(real_idx):
                x[j] = y[pos]
            val = ar.objective_of(x)
            better = (best_val is None or (val < best_val - FEAS_TOL if minimize
                                           else val > best_val + FEAS_TOL))
            if better:
                best_val = val
                best_full = x.copy()

    stats = {"nodes": total, "wall_time_s": None, "root_relaxation": None}
    if best_val is None:
        return Solution("infeasible", {}, None, stats)
    assignment = {}
    if not real_idx:
        for pos, j in enumerate(bin_idx):
            assignment[ar.ids[j]] = int(round(best_x[pos]))
    else:
        for j in range(ar.n):
            assignment[ar.ids[j]] = (int(round(best_full[j])) if ar.binary[j]
                                     else float(best_full[j]))
    return Solution("optimal", assignment, float(best_val), stats)
