"""Tests of the benchmark's reference answers and output checks.

    python3 -m pytest bench/test_reference.py

Each check must reject a wrong answer, and the closed-form references must
agree with general-purpose solvers from scipy on tiny pairs. Nothing here
imports wmrline.
"""

import numpy as np
import pytest
from scipy.optimize import LinearConstraint, linprog, minimize

import reference as R


def tiny_pair(rng, n, m, shift=0.0):
    x = np.sort(rng.uniform(-3, 3, n))
    y = np.sort(rng.uniform(-2, 2, m)) + shift
    return x, rng.dirichlet(np.ones(n)), y, rng.dirichlet(np.ones(m))


def spread(rng, n):
    x = np.sort(rng.uniform(-3, 3, n))
    p = rng.dirichlet(np.ones(n))
    d = rng.uniform(0.05, 0.5, n)
    y = np.concatenate([x - d, x + d])
    q = np.concatenate([p, p]) / 2
    order = np.argsort(y)
    return x, p, y[order], q[order]


def martingale_lp(x, p, y, q):
    """A martingale coupling of (x, p) <=_c (y, q) from scipy's LP solver,
    as (rows, cols, mass), or None when none exists."""
    n, m = x.size, y.size
    A, b = [], []
    for i in range(n):
        r = np.zeros((n, m))
        r[i] = 1.0
        A.append(r.ravel())
        b.append(p[i])
        r = np.zeros((n, m))
        r[i] = y - x[i]
        A.append(r.ravel())
        b.append(0.0)
    for j in range(m):
        r = np.zeros((n, m))
        r[:, j] = 1.0
        A.append(r.ravel())
        b.append(q[j])
    res = linprog(np.zeros(n * m), A_eq=np.array(A), b_eq=np.array(b), bounds=(0, None))
    if res.status != 0:
        return None
    keep = np.flatnonzero(res.x > 1e-13)
    return keep // m, keep % m, res.x[keep]


def qp_constraints(x, p, y, q):
    """t(mu) <=_c nu for monotone t, as linear rows (A_eq, b_eq, A_in, b_in)
    on the partial quantile integrals at all cumulative levels of mu and nu."""
    cp = np.cumsum(p)
    levels = np.union1d(cp, np.cumsum(q))[:-1]
    lower = np.concatenate(([0.0], cp[:-1]))
    overlap = np.clip(np.minimum(cp, levels[:, None]) - lower, 0.0, None)
    n = x.size
    monotone = np.eye(n, k=1)[: n - 1] - np.eye(n)[: n - 1]
    A_in = np.vstack([overlap, monotone])
    b_in = np.concatenate([R.quantile_integral(y, q, levels), np.zeros(n - 1)])
    return p[None, :], np.array([np.dot(q, y)]), A_in, b_in


def qp_map(x, p, y, q):
    """argmin sum p (x - t)^2 under qp_constraints, by scipy's trust-region
    solver."""
    A_eq, b_eq, A_in, b_in = qp_constraints(x, p, y, q)
    res = minimize(
        lambda t: np.dot(p, (x - t) ** 2),
        np.full(x.size, b_eq[0]),
        jac=lambda t: -2 * p * (x - t),
        hess=lambda t: np.diag(2 * p),
        constraints=[LinearConstraint(A_eq, b_eq, b_eq), LinearConstraint(A_in, b_in, np.inf)],
        method="trust-constr",
        options={"gtol": 1e-12, "xtol": 1e-14, "maxiter": 5000},
    )
    return res.x


# ---------------------------------------------------------------------------
# agreement with scipy
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore:Singular Jacobian")  # redundant level rows
@pytest.mark.parametrize("seed", range(12))
def test_majorant_map_matches_scipy_qp(seed):
    rng = np.random.default_rng(seed)
    x, p, y, q = tiny_pair(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)), seed % 3 - 1.0)
    t = R.weak_map(x, p, y, q)
    assert R.check_map(t, t, x, p, y, q) == []
    # the closed form is feasible and no worse than scipy's optimum, so it is
    # the optimum of this strictly convex problem
    A_eq, b_eq, A_in, b_in = qp_constraints(x, p, y, q)
    assert abs(A_eq @ t - b_eq).max() <= 1e-12
    assert (A_in @ t - b_in).min() >= -1e-12
    t_qp = qp_map(x, p, y, q)
    assert R.weak_value(x, p, t) <= R.weak_value(x, p, t_qp) + 1e-9
    np.testing.assert_allclose(t, t_qp, atol=1e-3)


@pytest.mark.parametrize("seed", range(12))
def test_convex_order_matches_martingale_lp(seed):
    """Strassen: a <=_c b exactly when a martingale coupling exists."""
    rng = np.random.default_rng(100 + seed)
    x, p, y, q = spread(rng, 4) if seed % 2 else tiny_pair(rng, 4, 5)
    lp = martingale_lp(x, p, y, q)
    assert R.convex_order_leq(x, p, y, q) == (lp is not None)
    if lp is not None:
        assert R.check_coupling(*lp, x, p, y, q, x) == []


def test_two_point_closed_form():
    x, p = np.array([-2.0, 2.0]), np.array([0.5, 0.5])
    y, q = np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    t = R.weak_map(x, p, y, q)
    np.testing.assert_allclose(t, [-1.0, 1.0])
    assert R.weak_value(x, p, t) == pytest.approx(1.0)


def test_potential_matches_direct_sum():
    rng = np.random.default_rng(7)
    a, w = rng.normal(size=9), rng.dirichlet(np.ones(9))
    z = np.linspace(-4, 4, 33)
    direct = (w[None, :] * np.abs(a[None, :] - z[:, None])).sum(axis=1)
    np.testing.assert_allclose(R.potential(a, w, z), direct, atol=1e-14)


# ---------------------------------------------------------------------------
# every check rejects a wrong answer
# ---------------------------------------------------------------------------


def test_map_check_rejects_a_nudged_value():
    x, p, y, q = tiny_pair(np.random.default_rng(3), 8, 8)
    t = R.weak_map(x, p, y, q)
    for i in range(x.size):
        bad = t.copy()
        bad[i] += 1e-5
        assert R.check_map(bad, t, x, p, y, q), i


def test_value_check_rejects_a_wrong_cost():
    x, p, y, q = tiny_pair(np.random.default_rng(4), 6, 6)
    t = R.weak_map(x, p, y, q)
    v = R.weak_value(x, p, t, "quartic", 4.0)
    assert R.check_value(v, t, x, p, "quartic", 4.0) == []
    assert R.check_value(v, t, x, p, "quadratic", 2.0)


def test_identity_check_rejects_a_moving_map_on_an_ordered_pair():
    x, p, y, q = spread(np.random.default_rng(5), 5)
    assert R.convex_order_leq(x, p, y, q)
    assert R.check_identity(x, x, 0.0) == []
    moved = x.copy()
    moved[2] += 1e-5
    assert R.check_identity(moved, x, 0.0)
    assert R.check_identity(x, x, 1e-6)


def test_coupling_check_rejects_mass_moved_to_another_column():
    x, p, y, q = spread(np.random.default_rng(6), 4)
    rows, cols, mass = martingale_lp(x, p, y, q)
    assert R.check_coupling(rows, cols, mass, x, p, y, q, x) == []
    for k in range(mass.size):
        moved = cols.copy()
        moved[k] = (cols[k] + 1) % y.size
        assert R.check_coupling(rows, moved, mass, x, p, y, q, x), k


def test_coupling_check_rejects_a_non_positive_mass():
    x, p, y, q = spread(np.random.default_rng(6), 4)
    rows, cols, mass = martingale_lp(x, p, y, q)
    rows = np.append(rows, 0)
    cols = np.append(cols, 0)
    assert R.check_coupling(rows, cols, np.append(mass, 0.0), x, p, y, q, x)


def true_intervals(a, a_w, b, b_w):
    """Irreducible intervals by brute force on a fine grid (test oracle)."""
    z = np.linspace(min(a.min(), b.min()) - 1, max(a.max(), b.max()) + 1, 200001)
    pos = R.potential(b, b_w, z) - R.potential(a, a_w, z) > 1e-12
    edges = np.flatnonzero(np.diff(pos.astype(int)))
    return z[edges[0::2]], z[edges[1::2] + 1]


def test_interval_check_accepts_the_true_intervals_and_rejects_wrong_ones():
    x, p, y, q = spread(np.random.default_rng(8), 4)
    lo, hi = true_intervals(x, p, y, q)
    grid = np.union1d(x, y)
    snap = lambda v: grid[np.argmin(np.abs(grid - v))]  # endpoints are atoms here
    ivs = [[snap(a), snap(b)] for a, b in zip(lo, hi)]
    assert ivs and R.check_intervals(ivs, x, p, y, q) == []
    assert R.check_intervals(ivs[1:], x, p, y, q)  # one interval missing
    (a, b) = ivs[0]
    assert R.check_intervals([[a - 0.5, b]] + ivs[1:], x, p, y, q)  # reaches where u_nu = u_eta
    merged = [[ivs[0][0], ivs[-1][1]]]
    if len(ivs) > 1:
        assert R.check_intervals(merged, x, p, y, q)  # spans a touch point


def test_decomposition_check_rejects_misplaced_entries():
    x, p, y, q = spread(np.random.default_rng(9), 3)
    rows, cols, mass = martingale_lp(x, p, y, q)
    ivs = [[y[2 * i], y[2 * i + 1]] for i in range(3)]
    ivs = [iv for iv in ivs if iv[1] - iv[0] > 0]
    # each eta atom spreads inside its own small interval when they do not overlap
    comp = [np.flatnonzero((x[rows] > lo) & (x[rows] < hi)) for lo, hi in ivs]
    if sum(c.size for c in comp) != rows.size:
        pytest.skip("the spreads overlap on this draw")
    empty = np.empty(0, dtype=np.int64)
    assert R.check_decomposition(comp, empty, rows, cols, x, y, ivs) == []
    # an entry declared fixed (off the components) that moves
    assert R.check_decomposition([comp[0][1:]] + comp[1:], comp[0][:1], rows, cols, x, y, ivs)
    # an entry assigned to the wrong component
    swapped = [comp[1], comp[0]] + comp[2:]
    assert R.check_decomposition(swapped, empty, rows, cols, x, y, ivs)
