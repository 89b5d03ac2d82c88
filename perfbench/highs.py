"""Reference optima from HiGHS (Huangfu & Hall 2018) through scipy.optimize.

HiGHS shares no code with graphilp's solver, so agreement on the optimum of
the same program is an independent check. Only the program's data (variables,
rows, objective) is read here; the arrays are built by this module.
"""

from __future__ import annotations

import numpy as np

BINARY_KINDS = ("binary", "auxiliary-binary")
INFINITE_BOUND = 1e30  # the LP format's spelling of "no bound"


def _arrays(problem):
    from scipy.sparse import coo_array  # scipy loads only once checking starts
    col = {v.id: j for j, v in enumerate(problem.variables)}
    n = len(col)
    sign = 1.0 if problem.objective.sense == "min" else -1.0
    c = np.zeros(n)
    for vid, coeff in problem.objective.terms.items():
        c[col[vid]] = sign * coeff
    rows, cols, vals = [], [], []
    lo = np.full(len(problem.constraints), -np.inf)
    hi = np.full(len(problem.constraints), np.inf)
    for i, row in enumerate(problem.constraints):
        for vid, coeff in row.coeffs.items():
            rows.append(i)
            cols.append(col[vid])
            vals.append(float(coeff))
        if row.rel in ("<=", "="):
            hi[i] = row.rhs
        if row.rel in (">=", "="):
            lo[i] = row.rhs
    A = coo_array((vals, (rows, cols)), shape=(len(problem.constraints), n)).tocsr()
    integer = np.array([v.kind in BINARY_KINDS for v in problem.variables], dtype=bool)
    lb = np.array([0.0 if b else v.lb for v, b in zip(problem.variables, integer)])
    ub = np.array([1.0 if b else (np.inf if v.ub >= INFINITE_BOUND else v.ub)
                   for v, b in zip(problem.variables, integer)])
    return sign, c, A, lo, hi, integer, lb, ub


def milp_optimum(problem) -> tuple[str, float | None]:
    """('optimal', value) in the problem's own sense, or ('infeasible', None)."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    sign, c, A, lo, hi, integer, lb, ub = _arrays(problem)
    constraints = [LinearConstraint(A, lo, hi)] if A.shape[0] else []
    res = milp(c, constraints=constraints, integrality=integer.astype(int),
               bounds=Bounds(lb, ub), options={"mip_rel_gap": 0.0})
    if res.status == 0:
        return "optimal", sign * res.fun + problem.objective.constant
    if res.status == 2:
        return "infeasible", None
    return f"highs status {res.status}: {res.message}", None


def lp_optimum(problem) -> tuple[str, float | None]:
    """Optimum of the LP relaxation (binaries relaxed to [0, 1])."""
    from scipy.optimize import linprog
    sign, c, A, lo, hi, _, lb, ub = _arrays(problem)
    A = A.toarray()
    eq = lo == hi
    upper = ~eq & np.isfinite(hi)
    lower = ~eq & np.isfinite(lo)
    A_ub = np.vstack([A[upper], -A[lower]])
    b_ub = np.concatenate([hi[upper], -lo[lower]])
    res = linprog(c, A_ub=A_ub if len(b_ub) else None, b_ub=b_ub if len(b_ub) else None,
                  A_eq=A[eq] if eq.any() else None, b_eq=hi[eq] if eq.any() else None,
                  bounds=list(zip(lb, ub)), method="highs")
    if res.status == 0:
        return "optimal", sign * res.fun + problem.objective.constant
    if res.status == 2:
        return "infeasible", None
    return f"highs status {res.status}: {res.message}", None


def close(a: float, b: float, tol: float = 1e-6) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
