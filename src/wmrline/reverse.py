"""The reverse relaxation: the smallest measure above mu that maps onto nu.

Instead of relaxing the target downward in convex order, the reverse problem
relaxes it upward: find the convex-order-smallest nu* >= mu that an
increasing 1-Lipschitz map pushes onto nu. Its optimizer is built in closed
form from the weak monotone rearrangement T of (mu, nu), in quantile
coordinates: with d = x - T(x), nu* is the law of F_nu^{-1}(U) +
d(F_mu^{-1}(U)) for U uniform, and the reverse map sends each such point back
to F_nu^{-1}(U). On each irreducible interval nu's mass thus moves by that
interval's constant displacement, and on the contractive part nu* carries
mu's atoms. The module also houses the convex-order map algebra (maxima,
minima, residual comparisons) this construction rests on; the maxima and
minima are read off quantile integrals G(c) = int_0^c F^{-1}, as the solve
is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, PreconditionError
from .measures import (
    MERGE_TOL,
    ORDER_TOL,
    DiscreteMeasure,
    Intervals,
    _gate,
    _mismatch,
    _order_check,
    _order_failure,
    _push,
    _slack_components,
    _witness_words,
    convex_order_leq,
    level_blocks,
    mean,
    quantiles_at,
    support_scale,
)
from .wmr import CostSpec, MonotoneMap, _pooled_means, _rearrangement, _shape_check, slope1_violations

SHAPE_TOL = 1e-9  # residual_order_check's slack on increase and 1-Lipschitz, times scale


@dataclass(frozen=True)
class ReverseSolution:
    nu_star: DiscreteMeasure
    tilde_map: MonotoneMap
    irreducibles_mu_nustar: Intervals
    value: float
    cost: CostSpec


def reverse_optimizer(
    mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec | None = None
) -> ReverseSolution:
    """Construct (nu*, T~) in closed form from the weak monotone rearrangement.

    With d = x - T(x), nu* is the law of F_nu^{-1}(U) + d(F_mu^{-1}(U)) for U
    uniform on (0, 1], and T~ maps each such point back to F_nu^{-1}(U). Both
    quantiles are constant on each block of the merged cumulative levels of
    mu and nu, so each block of mu's atom x_i and nu's atom y_j contributes
    the point y_j + x_i - t_i with image y_j and the block's width as mass.
    d is nondecreasing (T is 1-Lipschitz), so the points come in order; on an
    irreducible interval T has slope 1, so d is its constant displacement
    c_I, and on the fixed set y_j = t_i, so the point is x_i itself. A point
    within MERGE_TOL times the span of its predecessor joins it. All
    postconditions are verified; any failure raises ConsistencyError. T and
    the blocks are read from one wmr._rearrangement call, with no full solve.
    """
    cost = cost or CostSpec.quadratic()
    t, _, _, (i, j, width) = _rearrangement(mu, nu)
    pos = nu.atoms[j] + (mu.atoms - t)[i]
    order = pos.argsort(kind="stable")
    pos, img = pos[order], nu.atoms[j][order]
    tol = MERGE_TOL * max(1.0, float(pos[-1] - pos[0]))
    start = np.concatenate(([True], pos[1:] - pos[:-1] > tol)).nonzero()[0]
    pos, img, wts = pos[start], img[start], np.add.reduceat(width[order], start)
    nu_star = DiscreteMeasure._of(pos, wts)  # pos is sorted and merged: its atoms are pos
    tilde = MonotoneMap._of(nu_star.atoms, img)

    comps = _verify_reverse(mu, nu, nu_star, tilde, img, wts, t, cost, support_scale(mu, nu))
    val = float(np.dot(nu_star.weights, cost.value(nu_star.atoms - img)))
    return ReverseSolution(
        nu_star=nu_star,
        tilde_map=tilde,
        irreducibles_mu_nustar=comps,
        value=val,
        cost=cost,
    )


def _verify_reverse(mu, nu, nu_star, tilde, images, wts, t, cost, s) -> Intervals:
    """Postconditions of the reverse construction; returns the irreducible
    intervals of (mu, nu*)."""
    viol = _shape_check(tilde.knots_x, tilde.knots_t, 1e-9 * s)[2]
    if viol:
        raise ConsistencyError(f"reverse map is not increasing and 1-Lipschitz: {'; '.join(viol)}")
    # one convex-order pass gives the verdict, its witness and the components
    witness, thr, slack = _order_check(mu, nu_star)
    if witness is not None:
        raise ConsistencyError(f"reverse solution: {_witness_words(witness, 'mu', 'nu*', thr)}")
    comps = _slack_components(slack, mu, nu_star, thr)
    why = _mismatch(DiscreteMeasure(images, wts), nu, 1e-9)
    if why is not None:
        raise ConsistencyError(f"reverse map does not push nu* onto nu: {why}")
    direct = float(np.dot(mu.weights, cost.value(mu.atoms - t)))
    through = float(np.dot(wts, cost.value(nu_star.atoms - images)))
    if abs(direct - through) > 1e-9 * max(1.0, s) * max(1.0, abs(direct)):
        raise ConsistencyError(
            f"value through nu* ({through!r}) differs from the direct value ({direct!r})"
        )
    _gate(np.abs(tilde(mu.atoms) - t), 1e-8 * s,
          "reverse map deviates from the rearrangement on supp(mu) at atom", ConsistencyError)
    z = nu_star.atoms
    bad = slope1_violations(z, z, images, comps, 1e-9 * s, 1e-7 * s)
    if bad:
        iv, slope = bad[0]
        raise ConsistencyError(f"reverse map has slope {slope:.6f} != 1 inside ({iv.lo}, {iv.hi})")
    return comps


# ---------------------------------------------------------------------------
# Convex-order map algebra
# ---------------------------------------------------------------------------


def quantile_assignment(source: DiscreteMeasure, target: DiscreteMeasure) -> np.ndarray:
    """target atom assigned to each source atom by cumulative-level blocks.

    Any increasing map pushing source onto target must take these values at
    the source atoms, so this is the canonical candidate.
    """
    cum = np.concatenate(([0.0], source.cumulative()))
    mids = 0.5 * (cum[:-1] + cum[1:])
    return quantiles_at(target, mids)


def convex_order_max_map(T: MonotoneMap, S: MonotoneMap, mu: DiscreteMeasure) -> MonotoneMap:
    """Increasing map R with R(mu) = T(mu) v S(mu) (convex-order maximum).

    Requires T and S nondecreasing on mu's atoms and equal pushforward means.
    The maximum's quantile integral G(c) = int_0^c F^{-1} is the greatest
    convex minorant of min(G_T, G_S). On the block of mu's atom i, T(mu) and
    S(mu) have quantiles t_i and s_i, so both integrals are partial sums over
    mu's atoms, linear on each block, and the minorant's vertices sit at
    mu's levels (a crossing inside a block is a concave kink). R's values,
    the minorant's slopes on the blocks, are therefore the nondecreasing
    pooled regression of the slopes of min(G_T, G_S) = G_S + min(D, 0), with
    D = G_T - G_S the partial sums of w (t - s). R(mu) is verified to lie
    above both T(mu) and S(mu); if T and S are L-Lipschitz, so is R.
    """
    t, s = T(mu.atoms), S(mu.atoms)
    Tmu, Smu = _push(mu, t), _push(mu, s)
    scale, gap = support_scale(Tmu, Smu), abs(mean(Tmu) - mean(Smu))
    if gap > ORDER_TOL * scale:
        why = f"off by {gap:.3e} (tol {ORDER_TOL * scale:.3e})"
        raise PreconditionError(f"map maximum needs equal pushforward means: {why}")
    if mu.n > 1:
        for name, v in (("T", t), ("S", s)):
            what = f"map maximum needs nondecreasing maps: {name} decreases after atom"
            _gate(v[:-1] - v[1:], MERGE_TOL * scale, what, PreconditionError)
    w, y0 = mu.weights, min(t[0], s[0])  # s is centred on y0, so wide offsets cancel
    d = (w * (t - s)).cumsum()
    d[-1] = 0.0  # the means agree
    sums = w * (s - y0) + np.diff(np.minimum(d, 0.0), prepend=0.0)
    values = y0 - _pooled_means(-sums, w)
    Rmu = _push(mu, values)
    for m, name in ((Tmu, "T(mu)"), (Smu, "S(mu)")):
        why = _order_failure(m, Rmu, name, "R(mu)")
        if why is not None:
            raise ConsistencyError(f"the convex-order maximum is not above both: {why}")
    return MonotoneMap._of(mu.atoms, values)


def convex_order_min_with_maps(
    eta1: DiscreteMeasure,
    T1: MonotoneMap,
    eta2: DiscreteMeasure,
    T2: MonotoneMap,
) -> tuple[DiscreteMeasure, MonotoneMap]:
    """Convex-order minimum of eta1, eta2 together with a map onto their
    common pushforward.

    The minimum's quantile integral G(c) = int_0^c F^{-1} is max(G_1, G_2),
    convex as it is. On each block of level_blocks(eta1, eta2) both are
    linear, with eta1's atom a and eta2's atom b as slopes, so with
    D = G_1 - G_2 the block takes a where D > 0 and b where D < 0, split at
    the level where D changes sign inside it; a sliver of the levels' rounding
    joins its neighbour. The returned map is the minimum's quantile-level
    assignment onto nu, verified to push exactly.
    L-Lipschitz inputs give an L-Lipschitz output.
    """
    nu1 = T1.push(eta1)
    nu2 = T2.push(eta2)
    why = _mismatch(nu1, nu2)
    if why is not None:
        raise PreconditionError(f"both maps must push onto the same measure: {why}")
    i, j, width = level_blocks(eta1, eta2)
    a, b = eta1.atoms[i], eta2.atoms[j]
    d = np.concatenate(([0.0], (width * (a - b)).cumsum()))
    lo, hi = d[:-1], d[1:]
    lead = (lo > 0.0) | ((lo == 0.0) & (hi >= 0.0))  # a holds the block's start
    tail = (hi > 0.0) | ((hi == 0.0) & (lo >= 0.0))  # a holds its end
    first = width.copy()
    cut = (lead != tail).nonzero()[0]  # D changes sign inside these blocks
    first[cut] *= lo[cut] / (lo[cut] - hi[cut])
    atoms = np.column_stack((np.where(lead, a, b), np.where(tail, a, b))).ravel()
    pieces = np.column_stack((first, width - first)).ravel()
    # a piece lighter than 1e-14 and every input weight is a sliver of the
    # levels' rounding: it takes the atom of the heavy piece before it (after it, if first)
    heavy = pieces >= min(1e-14, eta1.weights.min(), eta2.weights.min())
    src = np.maximum.accumulate(np.where(heavy, np.arange(heavy.size), heavy.argmax()))
    eta = DiscreteMeasure(atoms[src], pieces)
    values = quantile_assignment(eta, nu1)
    why = _mismatch(_push(eta, values), nu1)
    if why is not None:
        raise ConsistencyError(f"no increasing map pushes the minimum onto nu: {why}")
    return eta, MonotoneMap._of(eta.atoms, values)


def residual_order_check(
    eta1: DiscreteMeasure,
    eta2: DiscreteMeasure,
    T1: MonotoneMap,
    T2: MonotoneMap,
) -> bool:
    """(id - T1)(eta1) <=_c (id - T2)(eta2) for convex-ordered inputs.

    Preconditions: eta1 <=_c eta2, T2(eta2) <=_c T1(eta1), both maps
    increasing and 1-Lipschitz on their atoms. Under these the result is a
    theorem, so a False return indicates a bug in the caller or here.
    """
    s = support_scale(eta1, eta2)
    t1, t2 = T1(eta1.atoms), T2(eta2.atoms)  # each map is evaluated once
    for m, t in ((eta1, t1), (eta2, t2)):
        monotone, lip, viol = _shape_check(m.atoms, t, SHAPE_TOL * s)
        if not monotone:
            raise PreconditionError(f"maps must be increasing on the atoms: {viol[0]}")
        if not lip:
            raise PreconditionError(f"maps must be 1-Lipschitz on the atoms: {viol[0]}")
    pushed = (_push(eta2, t2), _push(eta1, t1), "T2(eta2)", "T1(eta1)")
    for a, b, na, nb in ((eta1, eta2, "eta1", "eta2"), pushed):
        why = _order_failure(a, b, na, nb)
        if why is not None:
            raise PreconditionError(f"need {na} <=_c {nb}: {why}")
    res1 = _push(eta1, eta1.atoms - t1)
    res2 = _push(eta2, eta2.atoms - t2)
    return convex_order_leq(res1, res2)
