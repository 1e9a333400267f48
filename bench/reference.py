"""Reference answers and output checks for the benchmark, written apart from wmrline.

Nothing here imports wmrline. Every function takes plain numpy arrays: atoms
sorted increasingly and positive weights summing to one.

The map reference is the closed form of the convex-order projection on the
line (Alfonsi, Corbetta & Jourdain, arXiv:1808.10397): with c_k the
cumulative levels of mu and G_nu the quantile integral of nu, block i of mu
moves by the slope on that block of the least concave majorant of the points
(c_k, G_nu(c_k) - sum_{j<=k} p_j x_j). The map does not depend on the
strictly convex cost.

Each ``check_*`` function returns a list of violation messages; an empty
list means the output passed.
"""

from __future__ import annotations

import numpy as np

MAP_TOL = 1e-7  # relative to scale, for map values
ORDER_TOL = 1e-8  # relative to scale, for potentials, means and masses


def scale_of(*atom_arrays) -> float:
    """max(1, diameter of the joint support)."""
    lo = min(float(np.min(a)) for a in atom_arrays)
    hi = max(float(np.max(a)) for a in atom_arrays)
    return max(1.0, hi - lo)


def cost_value(kind: str, rho: float, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if kind == "quadratic":
        return z * z
    if kind == "quartic":
        return z**4
    return np.abs(z) ** rho


# ---------------------------------------------------------------------------
# Potentials and the convex order
# ---------------------------------------------------------------------------


def potential(atoms, weights, z) -> np.ndarray:
    """u(z) = sum_j w_j |a_j - z|, for any (unsorted) atoms."""
    order = np.argsort(atoms, kind="stable")
    a = np.asarray(atoms, dtype=float)[order]
    w = np.asarray(weights, dtype=float)[order]
    z = np.asarray(z, dtype=float)
    mass_below = np.concatenate(([0.0], np.cumsum(w)))
    moment_below = np.concatenate(([0.0], np.cumsum(w * a)))
    k = np.searchsorted(a, z, side="right")
    below = z * mass_below[k] - moment_below[k]
    above = (moment_below[-1] - moment_below[k]) - z * (mass_below[-1] - mass_below[k])
    return below + above


def order_gap(a_atoms, a_w, b_atoms, b_w) -> tuple[float, float]:
    """(|mean_a - mean_b|, max over the joint atoms of u_a - u_b)."""
    grid = np.union1d(a_atoms, b_atoms)
    gap = potential(a_atoms, a_w, grid) - potential(b_atoms, b_w, grid)
    return abs(float(np.dot(a_atoms, a_w) - np.dot(b_atoms, b_w))), float(gap.max())


def convex_order_leq(a_atoms, a_w, b_atoms, b_w, tol: float = ORDER_TOL) -> bool:
    """a <=_c b: equal means and u_a <= u_b at every atom of either measure.

    u_b - u_a is piecewise linear with kinks only at those atoms and constant
    beyond them once the means agree, so the atoms are enough.
    """
    s = scale_of(a_atoms, b_atoms)
    mean_gap, pot_gap = order_gap(a_atoms, a_w, b_atoms, b_w)
    return mean_gap <= tol * s and pot_gap <= tol * s


# ---------------------------------------------------------------------------
# The weak monotone rearrangement in closed form
# ---------------------------------------------------------------------------


def quantile_integral(atoms, weights, s) -> np.ndarray:
    """G(s) = int_0^s F^{-1}(u) du for a sorted discrete measure."""
    levels = np.concatenate(([0.0], np.cumsum(weights)))
    levels[-1] = 1.0
    s = np.asarray(s, dtype=float)
    j = np.clip(np.searchsorted(levels, s, side="right") - 1, 0, atoms.size - 1)
    partial = np.concatenate(([0.0], np.cumsum(weights * atoms)))
    return partial[j] + (s - levels[j]) * atoms[j]


def least_concave_majorant(c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Values at c of the least concave majorant of (c_k, h_k); c increasing."""
    hull = [0]
    for k in range(1, c.size):
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            # drop j when it lies on or below the chord from i to k
            if (h[j] - h[i]) * (c[k] - c[i]) <= (h[k] - h[i]) * (c[j] - c[i]):
                hull.pop()
            else:
                break
        hull.append(k)
    return np.interp(c, c[hull], h[hull])


def weak_map(x, p, y, q) -> np.ndarray:
    """Images t_i of mu's atoms under the weak monotone rearrangement."""
    c = np.concatenate(([0.0], np.cumsum(p)))
    c[-1] = 1.0
    h = quantile_integral(y, q, c) - np.concatenate(([0.0], np.cumsum(p * x)))
    return x + np.diff(least_concave_majorant(c, h)) / p


def weak_value(x, p, t, kind: str = "quadratic", rho: float = 2.0) -> float:
    return float(np.dot(p, cost_value(kind, rho, x - t)))


# ---------------------------------------------------------------------------
# Checks on program outputs
# ---------------------------------------------------------------------------


def check_map(t, t_ref, x, p, y, q) -> list[str]:
    """t must be the reference map and admissible by our own potentials."""
    s = scale_of(x, y)
    t = np.asarray(t, dtype=float)
    out = []
    if t.shape != t_ref.shape:
        return [f"map has {t.size} values, expected {t_ref.size}"]
    gap = float(np.abs(t - t_ref).max())
    if gap > MAP_TOL * s:
        out.append(f"map deviates from the reference by {gap:.3e}")
    dt, dx = np.diff(t), np.diff(x)
    if dt.size and dt.min() < -MAP_TOL * s:
        out.append(f"map decreases by {-dt.min():.3e}")
    if dt.size and (dt - dx).max() > MAP_TOL * s:
        out.append(f"map expands by {(dt - dx).max():.3e}")
    mean_gap, pot_gap = order_gap(t, p, y, q)
    if mean_gap > ORDER_TOL * s:
        out.append(f"pushforward mean is off by {mean_gap:.3e}")
    if pot_gap > ORDER_TOL * s:
        out.append(f"pushforward is above nu in convex order by {pot_gap:.3e}")
    return out


def check_value(value, t_ref, x, p, kind="quadratic", rho=2.0) -> list[str]:
    want = weak_value(x, p, t_ref, kind, rho)
    if abs(float(value) - want) > 1e-8 * max(1.0, abs(want)):
        return [f"value {float(value)!r} differs from the reference {want!r}"]
    return []


def check_identity(t, x, value) -> list[str]:
    """On an ordered pair the rearrangement is the identity with value 0."""
    s = scale_of(x)
    gap = float(np.abs(np.asarray(t, dtype=float) - x).max())
    out = []
    if gap > MAP_TOL * s:
        out.append(f"ordered pair: map moves an atom by {gap:.3e}")
    if abs(float(value)) > 1e-12 * s:
        out.append(f"ordered pair: value {float(value)!r} is not 0")
    return out


def coupling_stats(rows, cols, mass, src, tgt):
    """Row sums, column sums and row barycenters, recomputed with bincount."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    mass = np.asarray(mass, dtype=float)
    row_sum = np.bincount(rows, mass, minlength=src.size)
    col_sum = np.bincount(cols, mass, minlength=tgt.size)
    with np.errstate(invalid="ignore", divide="ignore"):
        bary = np.bincount(rows, mass * tgt[cols], minlength=src.size) / row_sum
    return row_sum, col_sum, bary


def check_coupling(rows, cols, mass, src, src_w, tgt, tgt_w, bary_want) -> list[str]:
    """Positive masses, marginals (src_w, tgt_w) and row barycenters bary_want."""
    mass = np.asarray(mass, dtype=float)
    s = scale_of(src, tgt)
    out = []
    if mass.size == 0 or mass.min() <= 0.0:
        out.append("coupling has a non-positive mass")
    row_sum, col_sum, bary = coupling_stats(rows, cols, mass, src, tgt)
    if np.abs(row_sum - src_w).max() > ORDER_TOL:
        out.append(f"row sums are off by {np.abs(row_sum - src_w).max():.3e}")
    if np.abs(col_sum - tgt_w).max() > ORDER_TOL:
        out.append(f"column sums are off by {np.abs(col_sum - tgt_w).max():.3e}")
    gap = np.abs(bary - bary_want)
    if not np.all(np.isfinite(gap)) or gap.max() > MAP_TOL * s:
        out.append(f"row barycenters are off by {np.nanmax(gap):.3e}")
    return out


def check_intervals(intervals, a, a_w, b, b_w, floor: float = 0.0) -> list[str]:
    """Irreducible intervals of a <=_c b: u_b - u_a > floor * scale inside each
    returned interval and vanishing (within tolerance) off all of them.

    Intervals thresholded above rounding keep floor = 0. Intervals cut at the
    float-exact set {u_a < u_b} may hold touch points where the difference is
    rounding noise of either sign; pass a small negative floor for them."""
    s = scale_of(a, b)
    grid = np.union1d(a, b)
    diff = potential(b, b_w, grid) - potential(a, a_w, grid)
    ivs = np.asarray(intervals, dtype=float).reshape(-1, 2)
    out = []
    if ivs.size and (np.any(ivs[:, 1] <= ivs[:, 0]) or np.any(ivs[1:, 0] < ivs[:-1, 1])):
        out.append("intervals are not disjoint, increasing and non-degenerate")
        return out
    margin = 1e-9 * s
    off = np.ones(grid.size, dtype=bool)
    for lo, hi in ivs:
        off &= ~((grid > lo) & (grid < hi))
        sel = (grid > lo + margin) & (grid < hi - margin)
        if sel.any():
            low = float(diff[sel].min())
        else:  # no kink inside: the difference is linear there
            mid = np.array([0.5 * (lo + hi)])
            low = float(potential(b, b_w, mid)[0] - potential(a, a_w, mid)[0])
        if low <= floor * s:
            out.append(f"u_nu - u_eta drops to {low:.3e} on ({lo}, {hi})")
    # u_b - u_a is piecewise linear with kinks on the grid and zero at every
    # endpoint, so its maximum off the intervals sits on a grid point there
    if off.any() and diff[off].max() > ORDER_TOL * s:
        k = int(np.argmax(np.where(off, diff, -np.inf)))
        out.append(f"u_nu - u_eta = {diff[k]:.3e} at {grid[k]} outside every interval")
    return out


def check_decomposition(comp_entries, fixed, rows, cols, src, tgt, intervals) -> list[str]:
    """Entries off the components are diagonal; component entries target the
    closure of their interval; every entry is assigned exactly once."""
    s = scale_of(src, tgt)
    margin = 1e-9 * s
    xs, ys = src[np.asarray(rows)], tgt[np.asarray(cols)]
    out = []
    fixed = np.asarray(fixed, dtype=np.int64)
    if fixed.size and np.abs(ys[fixed] - xs[fixed]).max() > margin:
        out.append("an entry off the components is not diagonal")
    seen = [fixed]
    for (lo, hi), idx in zip(intervals, comp_entries):
        idx = np.asarray(idx, dtype=np.int64)
        seen.append(idx)
        if idx.size and (ys[idx].min() < lo - margin or ys[idx].max() > hi + margin):
            out.append(f"a component entry leaves the closure of ({lo}, {hi})")
    allidx = np.sort(np.concatenate(seen)) if seen else np.empty(0, dtype=np.int64)
    if not np.array_equal(allidx, np.arange(len(rows))):
        out.append("entries are not assigned exactly once")
    return out
