import numpy as np
import pytest

from wmrline import DiscreteMeasure, MonotoneMap, convex_order_leq, mean, potential_at, support_scale
from wmrline.measures import ORDER_TOL


def dm(atoms, weights=None) -> DiscreteMeasure:
    atoms = np.asarray(atoms, dtype=float)
    if weights is None:
        weights = np.full(atoms.size, 1.0 / atoms.size)
    return DiscreteMeasure(atoms, np.asarray(weights, dtype=float))


def dirac(x) -> DiscreteMeasure:
    return dm([x], [1.0])


def random_measure(rng, max_atoms=10, span=3.0, rational=False) -> DiscreteMeasure:
    n = int(rng.integers(1, max_atoms + 1))
    atoms = np.sort(rng.uniform(-span, span, n))
    if rational:
        counts = rng.integers(1, 9, n).astype(float)
        weights = counts / counts.sum()
    else:
        weights = rng.dirichlet(np.ones(n))
    return DiscreteMeasure(atoms, weights)


def random_one_lipschitz_values(rng, atoms, anchor=None) -> np.ndarray:
    """Values of a random increasing 1-Lipschitz map on the given atoms."""
    slopes = rng.uniform(0.0, 1.0, max(len(atoms) - 1, 0))
    deltas = slopes * np.diff(atoms)
    start = float(rng.uniform(-1.0, 1.0)) if anchor is None else anchor
    return start + np.concatenate(([0.0], np.cumsum(deltas)))


def random_contraction_of(rng, m: DiscreteMeasure) -> DiscreteMeasure:
    """A measure below m in convex order: a mean-preserving 1-Lipschitz image.

    Increasing 1-Lipschitz maps with matching mean push any measure below
    itself in convex order (the displacement is decreasing with zero mean, so
    its partial sums are nonnegative).
    """
    vals = random_one_lipschitz_values(rng, m.atoms)
    vals = vals - float(np.dot(m.weights, vals)) + mean(m)
    out = DiscreteMeasure(vals, m.weights) if np.all(np.diff(vals) > 0) else None
    if out is None:
        # collapse ties by merging through the constructor
        out = DiscreteMeasure(vals + 1e-12 * np.arange(vals.size), m.weights)
    assert convex_order_leq(out, m)
    return out


def mix_pair(rng, n, m):
    """mu atoms U(-3,3) and Dirichlet(1) weights, then nu atoms U(-2,2) and
    Dirichlet(1) weights, drawn in that order; each measure is sorted and its
    weights renormalised."""
    x, p = rng.uniform(-3.0, 3.0, n), rng.dirichlet(np.ones(n))
    y, q = rng.uniform(-2.0, 2.0, m), rng.dirichlet(np.ones(m))
    out = []
    for a, w in ((x, p), (y, q)):
        order = np.argsort(a)
        out.append(DiscreteMeasure(a[order], w[order] / w.sum()))
    return tuple(out)


def spread_pair(rng, n):
    """eta <=_c nu by a mean-preserving spread, drawn as the benchmark's
    scale workload draws it: each atom x_i of eta splits into x_i -+ d_i with
    half its mass, d_i ~ U(0, 18/n)."""
    x, p = rng.uniform(-3.0, 3.0, n), rng.dirichlet(np.ones(n))
    d = rng.uniform(0.0, 3.0 * 6.0 / n, n)
    y = np.concatenate([x - d, x + d])
    q = np.concatenate([p, p]) / 2.0
    out = []
    for a, w in ((x, p), (y, q)):
        order = np.argsort(a)
        out.append(DiscreteMeasure(a[order], w[order] / w.sum()))
    return tuple(out)


def empirical_pair(seed, n):
    """n atoms of N(0, 1) for mu, then n atoms of N(0, 1.3^2) for nu, drawn
    from default_rng(seed); each measure is sorted, every weight is 1/n."""
    rng = np.random.default_rng(seed)
    x, y = rng.normal(0.0, 1.0, n), rng.normal(0.0, 1.3, n)
    w = np.full(n, 1.0 / n)
    return DiscreteMeasure(np.sort(x), w), DiscreteMeasure(np.sort(y), w)


def clustered_pair(rng):
    """n in 1..20 mu atoms U(-3,3); nu is 1-5 clusters of 1-6 atoms around
    U(-2,2) centres, consecutive atoms 10^U(-10,-6) apart; Dirichlet(1)
    weights. Drawn n, mu atoms, mu weights, the cluster counts, the gaps, the
    centres and nu's weights, in that order."""
    n = int(rng.integers(1, 21))
    mu = DiscreteMeasure(np.sort(rng.uniform(-3.0, 3.0, n)), rng.dirichlet(np.ones(n)))
    clusters, per = int(rng.integers(1, 6)), int(rng.integers(1, 7))
    gaps = 10.0 ** rng.uniform(-10.0, -6.0, (clusters, per))
    gaps[:, 0] = 0.0
    y = (rng.uniform(-2.0, 2.0, (clusters, 1)) + np.cumsum(gaps, axis=1)).ravel()
    return mu, DiscreteMeasure(y, rng.dirichlet(np.ones(y.size)))


def offset_pair(rng):
    """A mix_pair with n, m in 1..20, both shifted by one U(-1e6, 1e6) offset."""
    n, m = (int(v) for v in rng.integers(1, 21, 2))
    mu, nu = mix_pair(rng, n, m)
    offset = float(rng.uniform(-1e6, 1e6))
    return mu.shift(offset), nu.shift(offset)


# offset_pair draws of default_rng(k), k = 0..159, whose left-curtain coupling
# misses the MartingaleCoupling barycenter gate, by 1.05 to 4.3 times its tolerance
OFFSET_COUPLING_FAILURES = {41, 74, 80, 95, 100}


def mix_and_offset_pairs(rng, count):
    """count pairs, alternately a mix_pair with n, m in 1..30 and an
    offset_pair (shifted by up to 1e6)."""
    for k in range(count):
        yield offset_pair(rng) if k % 2 else mix_pair(rng, *(int(v) for v in rng.integers(1, 31, 2)))


def four_family_pairs(rng, count):
    """count pairs, cycling through a mix_pair (n, m in 1..59), a spread_pair
    (n in 2..299), a clustered_pair and an offset_pair (shifted by up to 1e6)."""
    for k in range(count):
        if k % 4 == 0:
            yield mix_pair(rng, *(int(v) for v in rng.integers(1, 60, 2)))
        elif k % 4 == 1:
            yield spread_pair(rng, int(rng.integers(2, 300)))
        else:
            yield clustered_pair(rng) if k % 4 == 2 else offset_pair(rng)


def potential_gap_violations(intervals, a, b, floor=0.0):
    """Check intervals as the irreducible intervals of a <=_c b against the
    potentials: each endpoint is an atom of b, u_b - u_a > floor * scale on
    the kinks inside each interval shrunk by 1e-9 * scale (at its midpoint if
    none), and u_b - u_a <= ORDER_TOL * scale at every kink off the intervals.
    Returns the failures as strings."""
    s = support_scale(a, b)
    grid = np.union1d(a.atoms, b.atoms)
    diff = potential_at(b, grid) - potential_at(a, grid)
    out = []
    off = np.ones(grid.size, dtype=bool)
    for iv in intervals:
        if not np.isin([iv.lo, iv.hi], b.atoms).all():
            out.append(f"an endpoint of ({iv.lo}, {iv.hi}) is not an atom of b")
        off &= ~((grid > iv.lo) & (grid < iv.hi))
        inside = (grid > iv.lo + 1e-9 * s) & (grid < iv.hi - 1e-9 * s)
        ys = grid[inside] if inside.any() else np.array([0.5 * (iv.lo + iv.hi)])
        low = float((potential_at(b, ys) - potential_at(a, ys)).min())
        if not low > floor * s:
            out.append(f"u_b - u_a drops to {low:.3e} inside ({iv.lo}, {iv.hi})")
    if off.any() and diff[off].max() > ORDER_TOL * s:
        out.append(f"u_b - u_a reaches {diff[off].max():.3e} off the intervals")
    return out


def nth_mix_pair(seed, index, sizes):
    """The index-th pair (counting from 1) of mix_pair draws from
    default_rng(seed); draw k has n = m = sizes[(k - 1) % len(sizes)]."""
    rng = np.random.default_rng(seed)
    for k in range(index):
        n = sizes[k % len(sizes)]
        pair = mix_pair(rng, n, n)
    return pair


def random_ordered_pair(rng, max_atoms=10, span=3.0):
    nu = random_measure(rng, max_atoms, span)
    eta = random_contraction_of(rng, nu)
    return eta, nu


def identity_map(m: DiscreteMeasure) -> MonotoneMap:
    return MonotoneMap.identity(m.atoms)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
