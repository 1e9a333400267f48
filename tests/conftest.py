import numpy as np
import pytest

from wmrline import DiscreteMeasure, MonotoneMap, convex_order_leq, mean


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
