"""Independent oracles for the tests: a brute-force grid search for the solve
and the Euclidean projection onto admissible maps by the dense QP.

Neither is part of the package: no solver, verifier or CLI subcommand uses
them. Both read their constraints off wmr.transport_polyhedron.
"""

import numpy as np

from wmrline import CostSpec, DiscreteMeasure, MonotoneMap, PreconditionError, SizeError, mean, qp
from wmrline.measures import _as_1d
from wmrline.wmr import transport_polyhedron


def oracle_solve(
    mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec | None = None, grid_step: float = 1e-3
):
    """Exhaustive grid search over map values for tiny instances (n <= 4).

    The mean constraint is eliminated exactly (the last coordinate solves it),
    and the remaining coordinates range over a grid of the stated step
    spanning the joint support hull inflated by its diameter. Constraint
    filtering is relaxed by one grid step so the rounding of the true optimum
    stays admissible; the returned value is within Lip(theta) * grid_step * n
    of the optimum. Independent of the QP path by construction.
    """
    cost = cost or CostSpec.quadratic()
    n = mu.n
    if n > 4:
        raise SizeError(f"oracle handles at most 4 source atoms, got {n}")
    x, p = mu.atoms, mu.weights
    A_eq, b_eq, A_in, b_in = transport_polyhedron(mu, nu)
    m_nu = float(b_eq[0])
    lo = min(float(mu.atoms[0]), float(nu.atoms[0]))
    hi = max(float(mu.atoms[-1]), float(nu.atoms[-1]))
    diam = max(hi - lo, grid_step)
    lo, hi = lo - diam, hi + diam
    slack = grid_step

    if n == 1:
        t = np.array([m_nu])
        return float(np.dot(p, cost.value(x - t))), t

    axis = np.arange(lo, hi + grid_step, grid_step)
    g = axis.size
    total = g ** (n - 1)
    order_rows = A_in[n - 1 :]  # monotonicity rows are rechecked directly
    order_rhs = b_in[n - 1 :]
    best_val, best_t = np.inf, None
    # enumerate the free coordinates in blocks to bound memory; a later block
    # replaces the best only when strictly lower, so the first global minimum
    # in enumeration order wins wherever the blocks split
    block = int(2e6)
    for start in range(0, total, block):
        stop = min(start + block, total)
        idx = np.arange(start, stop)
        cols = []
        rem = idx
        for d in range(n - 2, -1, -1):
            cols.append(rem // (g**d))
            rem = rem % (g**d)
        free = np.stack([axis[c] for c in cols], axis=1)
        t_last = (m_nu - free @ p[:-1]) / p[-1]
        T = np.column_stack([free, t_last])
        ok = np.all(np.diff(T, axis=1) >= -slack, axis=1)
        ok &= (T[:, -1] >= lo) & (T[:, -1] <= hi)
        if order_rows.size:
            ok &= np.all(T @ order_rows.T >= order_rhs - slack, axis=1)
        if not np.any(ok):
            continue
        Tok = T[ok]
        vals = cost.value(x[None, :] - Tok) @ p
        b = int(np.argmin(vals))
        if vals[b] < best_val:
            best_val, best_t = float(vals[b]), Tok[b].copy()
    if best_t is None:
        raise SizeError("oracle grid contains no feasible point; refine the step")
    return best_val, best_t


def project_admissible(values, mu: DiscreteMeasure, nu: DiscreteMeasure) -> MonotoneMap:
    """Euclidean projection of candidate map values onto the admissible set
    (monotone, 1-Lipschitz, pushforward <=_c nu), as a map on mu's atoms.

    The rows t_{i+1} - t_i <= dx_i go right after the polyhedron's n - 1
    monotonicity rows: the QP breaks ties by the lowest row index. The
    constant map at mean(nu) is always feasible and seeds the QP, which is
    looked up on its module at each call, so a test can wrap it.
    """
    z = _as_1d(values)
    if z.size != mu.n:
        raise PreconditionError("need one candidate value per atom of mu")
    A_eq, b_eq, A_in, b_in = transport_polyhedron(mu, nu)
    k, eye = mu.n - 1, np.eye(mu.n)
    A_in = np.vstack((A_in[:k], eye[:-1] - eye[1:], A_in[k:]))
    b_in = np.concatenate((b_in[:k], -np.diff(mu.atoms), b_in[k:]))
    res = qp.solve_qp(eye, -z, A_eq, b_eq, A_in, b_in, np.full(mu.n, mean(nu)))
    return MonotoneMap(mu.atoms, res.x)
