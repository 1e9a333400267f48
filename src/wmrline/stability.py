"""Stability experiments and finite-support approximation utilities.

Perturbation ladders generate sequences (mu_k, nu_k) converging to a base
pair; the harness solves every rung and reports how the value, the optimal
pushforward and the transport map respond. Convergence is reported, never
asserted: no rates exist in general, so pass/fail tests should use ladders
with known closed forms (shifts of a Dirac source, say).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, DomainError, HypothesisError, OrderError
from .measures import (
    DiscreteMeasure,
    _as_1d,
    _bin_barycenters,
    _csv,
    _freeze,
    _gate,
    _order_failure,
    level_blocks,
    lowest_mass,
    quantize,
    support_scale,
    wasserstein,
)
from .wmr import CostSpec, solve_weak_transport

MAP_GAP_EPS = (1e-1, 1e-2, 1e-3)


# ---------------------------------------------------------------------------
# Transfer of a convex-order-dominated measure along a perturbation of nu
# ---------------------------------------------------------------------------


def eta_transfer(
    eta: DiscreteMeasure, nu: DiscreteMeasure, nu_k: DiscreteMeasure
) -> DiscreteMeasure:
    """Transport eta <=_c nu to an eta_k <=_c nu_k along the perturbation.

    eta_k is the image of eta under the conditional-mean map of the chain
    (eta -- martingale coupling -- nu -- quantile coupling -- nu_k), so the
    convex-order postcondition and the Jensen chain bound
    W_rho(eta, eta_k)^rho <= W_rho(nu, nu_k)^rho hold by construction; both
    are re-verified here, as is the finite-atom sharpening
    |x_i - R(x_i)| <= W_1(nu, nu_k) / min weight.
    """
    from .martingale import _left_curtain

    why = _order_failure(eta, nu, "eta", "nu")
    if why is not None:
        raise OrderError(f"eta_transfer requires eta <=_c nu: {why}")
    M = _left_curtain(eta, nu)  # the coupling's build, less the check just made
    # nu's conditional means under the quantile coupling of (nu, nu_k), which
    # is W_rho-optimal for every rho >= 1, in coordinates centred on nu's
    # first atom so that wide offsets cancel before the sums are formed
    ref = nu.atoms[0]
    ia, ib, w = level_blocks(nu, nu_k)
    keep = w > 1e-15
    cond_mean = np.bincount(ia[keep], weights=w[keep] * (nu_k.atoms[ib[keep]] - ref), minlength=nu.n)
    cond_mean /= nu.weights

    R = np.bincount(M.rows, weights=M.mass * cond_mean[M.cols], minlength=eta.n)
    R /= eta.weights
    R += ref
    eta_k = DiscreteMeasure(R, eta.weights)

    tol = 1e-9 * support_scale(eta, nu, nu_k)
    why = _order_failure(eta_k, nu_k, "eta_k", "nu_k", 1e-8)
    if why is not None:
        raise ConsistencyError(f"transferred measure is not below nu_k in convex order: {why}")
    bound = wasserstein(nu, nu_k, 1.0) / float(eta.weights.min()) + tol
    _gate(np.abs(eta.atoms - R), bound, "per-atom transfer bound violated at atom", ConsistencyError)
    for rho in (1.0, 2.0):
        w, w_k = wasserstein(eta, eta_k, rho), wasserstein(nu, nu_k, rho)
        if w > w_k + tol:
            raise ConsistencyError(f"W_{rho} chain bound violated: off by {w - w_k:.3e} (tol {tol:.3e})")
    return eta_k


# ---------------------------------------------------------------------------
# Mean-preserving truncation and barycentric finite-support approximation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailTrim:
    """Sub-measure left after removing tail mass, plus its renormalization;
    atoms and weights are read-only copies."""

    atoms: np.ndarray
    weights: np.ndarray  # entrywise <= the input weights; total mass >= 1 - eps
    renormalized: DiscreteMeasure
    __setstate__ = _freeze

    def __post_init__(self):
        _freeze(self, {"atoms": _as_1d(self.atoms), "weights": _as_1d(self.weights)})

    @property
    def kept_mass(self) -> float:
        return float(self.weights.sum())


def truncate_mean_preserving(eta: DiscreteMeasure, eps: float) -> TailTrim:
    """Remove eps of mass from the two tails, keeping the barycenter exact.

    The split a + b = eps between the left and right tail solves the single
    linear balance equation moment(removed) = eps * mean(eta), which always
    has a solution in [0, eps]. The removed moment is piecewise linear and
    nonincreasing in a, with kinks where a or 1 - eps + a is a cumulative
    level; it is evaluated on that grid from prefix sums centred on the first
    atom, and the root is read off the grid by linear interpolation.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps!r}")
    if eta.n == 1:
        return TailTrim(eta.atoms, eta.weights, eta)
    w, x = eta.weights, eta.atoms
    C = np.concatenate(([0.0], eta.cumulative()))
    S = np.concatenate(([0.0], (w * (x - x[0])).cumsum()))  # int_0^C (F^{-1} - x_0)
    grid = np.union1d((0.0, eps), np.concatenate((C, C - (1.0 - eps))).clip(0.0, eps))
    # the removed moment minus eps * x_0 at each left-tail mass a on the grid,
    # and the a where it balances eps * (mean - x_0)
    removed = np.interp(grid, C, S) + S[-1] - np.interp(grid + (1.0 - eps), C, S)
    a = float(np.interp(-eps * S[-1], -removed, grid))
    kept = np.maximum(w - lowest_mass(w, a) - lowest_mass(w[::-1], eps - a)[::-1], 0.0)
    pos = kept > 1e-15
    renorm = DiscreteMeasure(x[pos], kept[pos] / kept.sum())
    return TailTrim(x, kept, renorm)


def finite_support_approx(eta: DiscreteMeasure, k: int) -> DiscreteMeasure:
    """Barycentric binning into k equal cells over [min, max] (last cell closed).

    The result is below eta in convex order with W_1 distance at most
    diameter / k. Measures with at most k atoms are returned unchanged, which
    also makes the operation idempotent.
    """
    if k < 1:
        raise DomainError(f"cell count must be >= 1, got {k!r}")
    if eta.n <= k:
        return eta
    delta = eta.diameter / k
    idx = np.minimum(np.floor((eta.atoms - eta.atoms[0]) / delta).astype(np.int64), k - 1)
    return _bin_barycenters(eta, idx)


# ---------------------------------------------------------------------------
# Perturbation ladders and the experiment harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationLadder:
    """Deterministic family (mu_k, nu_k), k = 1..length, converging to (mu, nu).

    kinds: 'shift' moves nu by step/k; 'empirical' resamples both marginals
    with samples * 2^k draws (seeded per rung); 'quantize' bins both with
    width delta0 * 2^-k. rho is the Wasserstein order the mu-perturbations
    converge in, checked against the cost's growth exponent.
    """

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    kind: str
    length: int
    rho: float = 2.0
    seed: int = 0
    step: float = 1.0
    samples: int = 1
    delta0: float = 1.0

    def __post_init__(self):
        if self.kind not in ("shift", "empirical", "quantize"):
            raise DomainError(f"unknown ladder kind {self.kind!r}")
        if self.length < 1:
            raise DomainError("ladder needs at least one rung")
        if not 1.0 <= self.rho < np.inf:  # NaN fails both comparisons
            raise DomainError(f"rho must be finite and >= 1, got {self.rho!r}")

    def rung(self, k: int) -> tuple[DiscreteMeasure, DiscreteMeasure]:
        if not 1 <= k <= self.length:
            raise DomainError(f"rung {k} outside 1..{self.length}")
        if self.kind == "shift":
            return self.mu, self.nu.shift(self.step / k)
        if self.kind == "quantize":
            d = self.delta0 * 2.0**-k
            return quantize(self.mu, d), quantize(self.nu, d)
        rng = np.random.default_rng([int(self.seed), int(k)])
        n_k = int(self.samples) * 2**k
        return _empirical(self.mu, n_k, rng), _empirical(self.nu, n_k, rng)


def _empirical(m: DiscreteMeasure, n: int, rng) -> DiscreteMeasure:
    counts = rng.multinomial(n, m.weights)
    keep = counts > 0
    return DiscreteMeasure(m.atoms[keep], counts[keep] / n)


@dataclass(frozen=True)
class StabilityRung:
    k: int
    value: float
    value_gap: float
    optimizer_gap_w1: float
    map_gaps: dict = field(compare=False)  # eps -> mu-probability that maps differ by > eps


@dataclass(frozen=True)
class StabilityReport:
    base_value: float
    cost: CostSpec
    kind: str
    rho: float
    rungs: tuple

    def to_csv(self) -> str:
        heads = ",".join(f"map_gap@{e:g}" for e in MAP_GAP_EPS)
        rows = (
            (str(r.k), r.value_gap, r.optimizer_gap_w1, *(r.map_gaps[e] for e in MAP_GAP_EPS))
            for r in self.rungs
        )
        return _csv(f"k,value_gap,optimizer_gap_W1,{heads}", rows)


def _map_gaps(mu_a, t_a, mu_b, t_b) -> dict:
    """For each eps in MAP_GAP_EPS, the Lebesgue measure on (0,1) of levels
    where the two quantile-composed maps differ by more than eps. When the
    first marginals agree this is the mu-probability of {|T_a - T_b| > eps};
    otherwise it is the common-quantile identification of the two maps (a
    reporting choice, flagged in docs)."""
    ia, ib, widths = level_blocks(mu_a, mu_b)
    diff = np.abs(t_a[ia] - t_b[ib])
    return {eps: float(widths[diff > eps].sum()) for eps in MAP_GAP_EPS}


def run_stability_experiment(ladder: PerturbationLadder, cost: CostSpec | None = None) -> StabilityReport:
    """Solve every rung and report value / optimizer / map gaps.

    The cost must satisfy the growth bound theta(x) <= c (1 + |x|^rho) for
    the ladder's rho; a quartic cost on a rho = 2 ladder is rejected before
    any solve.
    """
    cost = cost or CostSpec.quadratic()
    if cost.growth_exponent > ladder.rho + 1e-12:
        raise HypothesisError(
            f"cost grows like |x|^{cost.growth_exponent:g} but the ladder only "
            f"controls moments of order {ladder.rho:g}"
        )
    base = solve_weak_transport(ladder.mu, ladder.nu, cost)
    t_base = base.map(ladder.mu.atoms)
    rungs = []
    for k in range(1, ladder.length + 1):
        mu_k, nu_k = ladder.rung(k)
        sol = solve_weak_transport(mu_k, nu_k, cost)
        t_k = sol.map(mu_k.atoms)
        rungs.append(
            StabilityRung(
                k=k,
                value=sol.value,
                value_gap=abs(sol.value - base.value),
                optimizer_gap_w1=wasserstein(base.pushforward, sol.pushforward, 1.0),
                map_gaps=_map_gaps(ladder.mu, t_base, mu_k, t_k),
            )
        )
    return StabilityReport(
        base_value=base.value, cost=cost, kind=ladder.kind, rho=ladder.rho, rungs=tuple(rungs)
    )
