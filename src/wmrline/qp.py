"""Dense active-set solver for small convex quadratic programs.

Solves   min 1/2 x^T H x + c^T x
         s.t. A_eq x = b_eq,  A_in x >= b_in

starting from a feasible point. H must be positive semidefinite; all linear
algebra is dense numpy, sized for desk-scale problems (a few hundred rows).
The weak transport solve does not use it: it serves the Euclidean
projection onto the admissible set and the tests, as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError

TOL = 1e-11  # feasibility and dual-sign tolerance, times the problem's scale


@dataclass
class QpResult:
    x: np.ndarray
    mult_eq: np.ndarray
    mult_in: np.ndarray  # one per inequality row, zero off the active set
    kkt_residual: float
    iterations: int


def _independent(basis, row, rtol=1e-10) -> bool:
    """True when row is not (numerically) in the span of the basis rows."""
    norm = np.linalg.norm(row)
    if norm == 0.0:
        return False
    if not basis:
        return True
    B = np.vstack(basis)
    coef = np.linalg.lstsq(B.T, row, rcond=None)[0]
    resid = row - B.T @ coef
    return float(np.linalg.norm(resid)) > rtol * norm


def _kkt_step(H, g, A_w):
    """Direction and multipliers for min 1/2 d'Hd + g'd s.t. A_w d = 0."""
    n = H.shape[0]
    k = A_w.shape[0]
    K = np.zeros((n + k, n + k))
    K[:n, :n] = H
    if k:
        K[:n, n:] = A_w.T
        K[n:, :n] = A_w
    rhs = np.concatenate([-g, np.zeros(k)])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    if not np.all(np.isfinite(sol)):
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    # stationarity reads H d + g = A_w^T mult with the usual sign convention
    return sol[:n], -sol[n:]


def solve_qp(H, c, A_eq, b_eq, A_in, b_in, x0) -> QpResult:
    """Primal active-set method in one pass; x0 must satisfy all constraints.

    Ties in the blocking-constraint choice are broken by lowest row index and
    the dropped row is the lowest-index one with a negative multiplier, so
    runs are deterministic. An infeasible start or a run that does not
    converge raises SolverError: as a test oracle it fails loudly, never
    with a wrong point.
    """
    H = np.asarray(H, dtype=float)
    c = np.asarray(c, dtype=float)
    A_eq = np.asarray(A_eq, dtype=float).reshape(-1, H.shape[0])
    b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
    A_in = np.asarray(A_in, dtype=float).reshape(-1, H.shape[0])
    b_in = np.asarray(b_in, dtype=float).reshape(-1)
    x = np.array(x0, dtype=float)
    n = x.size
    n_eq, n_in = A_eq.shape[0], A_in.shape[0]

    scale = max(1.0, float(np.abs(x).max(initial=0.0)), float(np.abs(b_in).max(initial=0.0)))
    feas_tol = TOL * scale
    slack0 = A_in @ x - b_in if n_in else np.empty(0)
    if (n_eq and np.abs(A_eq @ x - b_eq).max() > 1e3 * feas_tol) or (
        n_in and slack0.min() < -1e3 * feas_tol
    ):
        raise SolverError("active-set start point is infeasible")

    # Working set must stay linearly independent (with the equality rows),
    # otherwise the KKT system is singular and multiplier signs are garbage.
    # Seed it with a maximal independent subset of the tight rows; rows added
    # later as blocking constraints are independent automatically because
    # a . d < 0 while A_w d = 0.
    working: list[int] = []
    basis = [A_eq[j] for j in range(n_eq)]
    for i in range(n_in):
        if slack0[i] <= feas_tol and len(basis) < n:
            if _independent(basis, A_in[i]):
                basis.append(A_in[i])
                working.append(i)
    max_iter = 50 * (n + n_eq + n_in + 1)

    lam_in = np.zeros(n_in)
    at_subproblem_opt = False  # set after a full unblocked step: d is 0 up to rounding
    just_dropped = -1  # barred from re-blocking for one iteration (see below)
    for it in range(1, max_iter + 1):
        g = H @ x + c
        rows = [A_eq] if n_eq else []
        if working:
            rows.append(A_in[working])
        A_w = np.vstack(rows) if rows else np.empty((0, n))
        d, mult = _kkt_step(H, g, A_w)
        lam_eq = mult[:n_eq]
        lam_w = mult[n_eq:]

        if at_subproblem_opt or np.abs(d).max(initial=0.0) <= feas_tol:
            at_subproblem_opt = False
            lam_in[:] = 0.0
            for j, row in enumerate(working):
                lam_in[row] = lam_w[j]
            dual_tol = TOL * max(1.0, np.abs(g).max())
            if not working or lam_w.min(initial=0.0) >= -dual_tol:
                res = kkt_residual(H, c, A_eq, b_eq, A_in, b_in, x, lam_eq, lam_in)
                return QpResult(x, lam_eq, lam_in, res, it)
            # Bland-style: drop the lowest-index row with a negative multiplier
            drop = min(j for j in range(len(working)) if lam_w[j] < -dual_tol)
            just_dropped = working.pop(drop)
            continue

        # Largest step along d keeping all non-working inequalities feasible;
        # blocking row chosen by lowest index among the minimal ratios. The
        # just-dropped row cannot block in exact arithmetic (the direction
        # moves into its feasible side); barring it for one iteration stops
        # rounding noise from re-adding it at a zero step when the working
        # set is nearly dependent.
        alpha, blocking = 1.0, -1
        if n_in:
            Ad = A_in @ d
            slack = A_in @ x - b_in
            for i in range(n_in):
                if i in working or i == just_dropped or Ad[i] >= -feas_tol:
                    continue
                step = max(slack[i], 0.0) / -Ad[i]
                if step < alpha - 1e-15:
                    alpha, blocking = step, i
        just_dropped = -1
        x = x + alpha * d
        if blocking >= 0:
            working.append(blocking)
            working.sort()
        else:
            at_subproblem_opt = True

    raise SolverError(
        f"active-set did not converge in {max_iter} iterations",
        residual=float(np.abs(H @ x + c).max()),
    )


def kkt_residual(H, c, A_eq, b_eq, A_in, b_in, x, lam_eq, lam_in) -> float:
    """Max of stationarity, primal feasibility, dual sign and complementarity errors."""
    g = H @ x + c
    stat = g.copy()
    if A_eq.size:
        stat -= A_eq.T @ lam_eq
    if A_in.size:
        stat -= A_in.T @ lam_in
    parts = [np.abs(stat).max(initial=0.0)]
    if A_eq.size:
        parts.append(np.abs(A_eq @ x - b_eq).max(initial=0.0))
    if A_in.size:
        slack = A_in @ x - b_in
        parts.append(max(0.0, float(-slack.min(initial=0.0))))
        parts.append(float(np.abs(lam_in * slack).max(initial=0.0)))
        parts.append(max(0.0, float(-lam_in.min(initial=0.0))))
    return float(max(parts))
