"""The weak monotone rearrangement and the barycentric weak transport problem.

For discrete mu, nu the problem is

    minimize   sum_i p_i theta(x_i - t_i)
    over       t_1 <= ... <= t_n  with  t(mu) <=_c nu,

where t(mu) is the image measure of mu under atom_i -> t_i. With equal means,
t(mu) <=_c nu is equivalent to the partial-sum constraints
sum_{j<=k} p_j t_j >= int_0^{c_k} F_nu^{-1} at mu's cumulative levels c_k.
In quantile coordinates the optimal displacement t - x is the nonincreasing
(antitonic) regression of the blocks' mean displacements under the quantile
coupling of mu and nu: the slopes of the least concave majorant behind the
convex-order projection on the line of Alfonsi, Corbetta & Jourdain. One
pool-adjacent-violators pass over the blocks of level_blocks(mu, nu) gives
the map in O(n + m), for every strictly convex cost at once: the pooled
displacements do not increase, so the map is increasing and 1-Lipschitz,
with slope 1 inside each pool. Optimality is certified per cost by
closed-form KKT multipliers computed from the map alone.

The module holds the cost, the map, the solve, its KKT certificate and the
verifiers. The dense polyhedron of the problem (transport_polyhedron) stays
only because bench/tracing.py looks it up by name; no solver uses it. The
tests' independent oracles, the grid search and the QP projection onto
admissible maps, build on it and live with the tests in tests/oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .measures import (
    ORDER_TOL,
    DiscreteMeasure,
    Intervals,
    _as_1d,
    _finite,
    _freeze,
    _level_slack,
    _order_failure,
    _push,
    _slack_components,
    interval_index,
    level_blocks,
    mean,
    support_scale,
)

UNIT_SLOPE_TOL = 1e-9  # map_decomposition: unit slope where rise - run is within this times scale


@dataclass(frozen=True)
class CostSpec:
    """Convex cost theta applied to x - barycenter displacements.

    kind is one of 'quadratic' (x^2), 'quartic' (x^4) or 'power' (|x|^rho,
    rho >= 1). rho = 1 is allowed but not strictly convex, so uniqueness of
    the optimal map is not guaranteed there.
    """

    kind: str
    rho: float = 2.0

    def __post_init__(self):
        if self.kind not in ("quadratic", "quartic", "power"):
            raise DomainError(f"unknown cost kind {self.kind!r}")
        if self.kind != "power":
            _freeze(self, {"rho": 2.0 if self.kind == "quadratic" else 4.0})
        elif not 1.0 <= self.rho < np.inf:  # NaN fails both comparisons
            raise DomainError(f"power cost needs a finite rho >= 1, got {self.rho!r}")

    @classmethod
    def quadratic(cls) -> "CostSpec":
        return cls("quadratic")

    @classmethod
    def quartic(cls) -> "CostSpec":
        return cls("quartic")

    @classmethod
    def power(cls, rho: float) -> "CostSpec":
        return cls("power", float(rho))

    @property
    def strictly_convex(self) -> bool:
        return self.kind in ("quadratic", "quartic") or self.rho > 1.0

    @property
    def growth_exponent(self) -> float:
        return self.rho

    def value(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.kind == "quadratic":
            return z * z
        if self.kind == "quartic":
            return z**4
        return np.abs(z) ** self.rho

    def deriv(self, z) -> np.ndarray:
        """One-sided derivative (the subgradient choice 0 at kinks for rho=1)."""
        z = np.asarray(z, dtype=float)
        if self.kind == "quadratic":
            return 2.0 * z
        if self.kind == "quartic":
            return 4.0 * z**3
        if self.rho == 1.0:
            return np.sign(z)
        return self.rho * np.sign(z) * np.abs(z) ** (self.rho - 1.0)

    def describe(self) -> dict:
        return {"kind": self.kind, "rho": self.rho}


@dataclass(frozen=True)
class MonotoneMap:
    """Increasing map stored by knots, linear in between, constant outside.

    Only strict increase of the knot abscissae is enforced at construction;
    monotonicity and 1-Lipschitz continuity of the values are checked by
    verify_admissible, since hand-built candidates are allowed to violate them.
    """

    knots_x: np.ndarray
    knots_t: np.ndarray
    __setstate__ = _freeze

    def __post_init__(self):
        x, t = _as_1d(self.knots_x), _as_1d(self.knots_t)
        if x.size == 0 or x.shape != t.shape:
            raise ValueError("knots need equal, positive length")
        order = x.argsort(kind="stable")
        x, t = x[order], t[order]
        if (x[1:] <= x[:-1]).any():
            raise ValueError("knot positions must be strictly increasing")
        _freeze(self, {"knots_x": x, "knots_t": t})

    @classmethod
    def _of(cls, x: np.ndarray, t: np.ndarray) -> "MonotoneMap":
        """The map with knots at a measure's atoms x (read-only, increasing)
        and new values t, checked finite, without the intake's copies."""
        self = object.__new__(cls)
        _freeze(self, {"knots_x": x, "knots_t": _finite(t)})
        return self

    @classmethod
    def identity(cls, points) -> "MonotoneMap":
        return cls(points, points)  # the constructor copies each

    def __call__(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return np.interp(y.reshape(1) if y.ndim == 0 else y, self.knots_x, self.knots_t)

    def push(self, m: DiscreteMeasure) -> DiscreteMeasure:
        return _push(m, self(m.atoms))


@dataclass(frozen=True)
class WeakSolution:
    """Solver output: optimal map, its pushforward, value and certificates."""

    map: MonotoneMap
    pushforward: DiscreteMeasure
    value: float
    irreducibles: Intervals
    kkt_residual: float
    cost: CostSpec


# ---------------------------------------------------------------------------
# Feasible polyhedron: monotone t with t(mu) <=_c nu (in quantile space)
# ---------------------------------------------------------------------------


def transport_polyhedron(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Constraint matrices for {t : t monotone, t(mu) <=_c nu}.

    Convex order is imposed exactly at the merged cumulative-weight levels of
    mu and nu: both sides of the partial quantile-integral inequality are
    piecewise linear in the level with kinks only there. The n - 1
    monotonicity rows come first. Dense, O(n(n+m)), and no solver uses it:
    only the tests' oracles (tests/oracle.py) build on it.
    """
    n = mu.n
    cmu = np.concatenate(([0.0], mu.cumulative()))
    levels = np.union1d(cmu[1:], nu.cumulative())
    levels = levels[(levels > 1e-15) & (levels < 1.0 - 1e-15)]
    eye = np.eye(n)
    # int_0^s q_t(u) du = sum_i overlap(block_i, [0, s]) * t_i
    overlap = np.minimum(cmu[1:], levels[:, None]) - np.minimum(cmu[:-1], levels[:, None])
    A_in = np.vstack((eye[1:] - eye[:-1], np.maximum(overlap, 0.0)))
    b_in = np.concatenate((np.zeros(n - 1), _quantile_integral(nu, levels)))
    return mu.weights.reshape(1, -1), np.array([mean(nu)]), A_in, b_in


def _quantile_integral(nu: DiscreteMeasure, s: np.ndarray) -> np.ndarray:
    """G(s) = int_0^s F_nu^{-1}(u) du, piecewise linear with kinks at nu's levels."""
    cum = np.concatenate(([0.0], nu.cumulative()))
    seg = np.concatenate(([0.0], np.cumsum(np.diff(cum) * nu.atoms)))
    j = np.clip(np.searchsorted(cum, s, side="left"), 1, nu.n)
    return seg[j - 1] + (s - cum[j - 1]) * nu.atoms[j - 1]


def kkt_residual(mu: DiscreteMeasure, nu: DiscreteMeasure, t, cost: CostSpec) -> float:
    """Closed-form KKT certificate of map values t for the cost theta, in O(n).

    The rows are the order constraints at mu's levels and the mean. Dividing
    stationarity by p_i leaves -theta'(x_i - t_i) = sum_{k>=i} lambda_k + const,
    so the multipliers are lambda_k = theta'(d_{k+1}) - theta'(d_k) with
    d = x - t, and stationarity holds by construction. The residual is the
    largest of: the mean error (off the slack and off the weights), a negative
    slack, a negative multiplier, |lambda_k * slack_k|, and any decrease of t
    (monotonicity has no row: a KKT point of the relaxed problem that is
    monotone solves the full one).
    """
    t = _as_1d(t)
    return _kkt_parts(mu, nu, t, _level_slack(*level_blocks(mu, nu), t, nu.atoms), cost)


def _kkt_parts(mu: DiscreteMeasure, nu: DiscreteMeasure, t, slack, cost: CostSpec) -> float:
    """kkt_residual of t from its order slack at mu's levels (_level_slack)."""
    inner = slack[1:-1]
    d = cost.deriv(mu.atoms - t)
    lam = d[1:] - d[:-1]
    y0 = nu.atoms[0]  # the weights' mean error, centred as the slack is
    parts = (
        abs(float(slack[-1])),
        abs(float(mu.weights.dot(t - y0) - nu.weights.dot(nu.atoms - y0))),
        -float(inner.min(initial=0.0)),
        -float(lam.min(initial=0.0)),
        float(np.abs(lam * inner).max(initial=0.0)),
        -float((t[1:] - t[:-1]).min(initial=0.0)),
    )
    return max(0.0, *parts)


def _rearrangement(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """The weak monotone rearrangement's values t on mu's atoms, their order
    slack at mu's levels (as _level_slack forms it), moved = False when
    mu <=_c nu to 1e-12 * scale (then t = x exactly), and the blocks
    (i, j, width) of level_blocks(mu, nu) it read them from, with one block
    more for each atom whose weight is lost to the rounding of the levels
    (its level c equals the one before, so it has no block): its own weight,
    at mu's atom just below c for one of nu's, at nu's atom just above c for
    one of mu's, so the blocks stay a monotone coupling.

    Atom i's blocks have mass den_i and displacement sum num_i = sum width *
    (y_j - x_i). t is x plus the nonincreasing pooled regression of num / den
    (_pooled_means): each pool's mean is a ratio of sums over the pool, so
    no rounding of global sums is divided by a tiny width. A lost atom's own
    block puts it where a weight tending to 0 would: at its own
    displacement, clipped to its neighbours' (so a lost last atom stays
    inside nu's hull).
    """
    x, y, cm, cn = mu.atoms, nu.atoms, mu.cumulative(), nu.cumulative()
    i, j, width = level_blocks(mu, nu)
    lm, ln = (cm[1:] == cm[:-1]).nonzero()[0] + 1, (cn[1:] == cn[:-1]).nonzero()[0] + 1
    if lm.size or ln.size:
        i = np.concatenate((i, lm, cm.searchsorted(cn[ln])))
        j = np.concatenate((j, np.minimum(cn.searchsorted(cm[lm], side="right"), nu.n - 1), ln))
        width = np.concatenate((width, mu.weights[lm], nu.weights[ln]))
    blocks = i, j, width
    num = np.bincount(i, weights=width * (y[j] - x[i]), minlength=mu.n)
    slack = np.concatenate(([0.0], -num.cumsum()))  # _level_slack of t = x
    tol = 1e-12 * support_scale(mu, nu)
    if -slack.min() <= tol and abs(slack[-1]) <= tol:
        return x, slack, False, blocks
    t = x + _pooled_means(num, np.bincount(i, weights=width, minlength=mu.n))
    return t, _level_slack(i, j, width, t, y), True, blocks


def _pooled_means(sums: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """The nonincreasing regression of sums / mass, weighted by the positive
    mass, one value per entry: pool-adjacent violators merges two adjacent
    pools while the earlier mean is below the later one (equal means stay
    apart), and each entry gets its pool's ratio of sums."""
    pooled, weight, size = [], [], []
    for a, w in zip(sums.tolist(), mass.tolist()):
        k = 1
        while pooled and pooled[-1] * w < a * weight[-1]:
            a, w, k = a + pooled.pop(), w + weight.pop(), k + size.pop()
        pooled.append(a)
        weight.append(w)
        size.append(k)
    return (np.array(pooled) / np.array(weight)).repeat(size)


def solve_weak_transport(
    mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec | None = None
) -> WeakSolution:
    """Minimize sum_i p_i theta(x_i - t_i) over monotone t with t(mu) <=_c nu.

    t = x plus the pooled (antitonic) regression of the mean displacements of
    mu's quantile blocks under the quantile coupling (_rearrangement). The map
    is the same for every strictly convex cost; only the value depends on
    theta. When mu <=_c nu to 1e-12 * scale, t = x exactly, with residual 0.
    The irreducible intervals of (t(mu), nu) are read off the order slack of
    t at mu's levels, so no potential is evaluated.

    The reported residual is kkt_residual() of t under the cost, from the
    slack the public certificate forms. The non-strict |x| cost has no
    unique optimizer; it gets the same map and the quadratic multipliers.
    """
    cost = cost or CostSpec.quadratic()
    x, p = mu.atoms, mu.weights
    t, slack, moved, _ = _rearrangement(mu, nu)
    residual = 0.0
    if moved:
        certified = cost if cost.strictly_convex else CostSpec.quadratic()
        residual = _kkt_parts(mu, nu, t, slack, certified)

    value = float(np.dot(p, cost.value(x - t)))
    push = _push(mu, t)
    irre = _slack_components(slack, mu, nu, ORDER_TOL * support_scale(push, nu))
    return WeakSolution(
        map=MonotoneMap._of(x, t),
        pushforward=push,
        value=value,
        irreducibles=irre,
        kkt_residual=float(residual),
        cost=cost,
    )


def weak_monotone_rearrangement(mu: DiscreteMeasure, nu: DiscreteMeasure) -> WeakSolution:
    """The canonical (quadratic-cost) solve; its map is THE weak monotone rearrangement."""
    return solve_weak_transport(mu, nu, CostSpec.quadratic())


def value(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec | None = None) -> float:
    return solve_weak_transport(mu, nu, cost).value


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


def _shape_check(x: np.ndarray, t: np.ndarray, tol: float) -> tuple[bool, bool, list[str]]:
    """(monotone, one_lipschitz, violations) of the values t at the sorted
    points x: t increasing and 1-Lipschitz up to the absolute tol, with the
    worst pair named for each property that fails."""
    dt, dx = t[1:] - t[:-1], x[1:] - x[:-1]
    viol = []
    monotone = bool((dt >= -tol).all())
    if not monotone:
        i = int(dt.argmin())
        viol.append(f"decreasing by {-dt[i]:.3e} between atoms {x[i]} and {x[i + 1]}")
    lip = bool((dt <= dx + tol).all())
    if not lip:
        i = int((dt - dx).argmax())
        viol.append(f"expansion by {dt[i] - dx[i]:.3e} between atoms {x[i]} and {x[i + 1]}")
    return monotone, lip, viol


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    monotone: bool
    one_lipschitz: bool
    pushforward_ordered: bool
    violations: tuple = ()


def verify_admissible(
    map_: MonotoneMap, mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float = 1e-7
) -> AdmissibilityReport:
    """Check the three admissibility properties of a map on the atoms of mu:
    increasing, 1-Lipschitz, and pushforward below nu in convex order."""
    return _admissibility(map_(mu.atoms), mu, nu, tol)


def _admissibility(t, mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float) -> AdmissibilityReport:
    """verify_admissible of the map's values t on mu's atoms."""
    x = mu.atoms
    monotone, lip, viol = _shape_check(x, t, tol * support_scale(mu, nu))
    push, order_tol = _push(mu, t), max(ORDER_TOL, tol)
    why = _order_failure(push, nu, "T(mu)", "nu", order_tol)
    ordered = why is None
    if not ordered:
        viol.append(f"pushforward is not below nu in convex order: {why}")
    ok = monotone and lip and ordered
    return AdmissibilityReport(ok, monotone, lip, ordered, tuple(viol))


@dataclass(frozen=True)
class SlopeReport:
    ok: bool
    admissible: bool
    violations: tuple = ()


def slope1_violations(points, x, y, intervals: Intervals, margin: float, tol: float):
    """Slope-1 test of the knots (x_a, y_a) on irreducible intervals.

    Each consecutive pair a, a + 1 whose points both lie strictly inside one
    interval, shrunk by margin, must have |dy - dx| <= tol. Returns the
    failing pairs as (Interval, slope dy/dx), ordered by interval, then by a;
    only a failing pair builds an Interval.
    """
    comp = interval_index(intervals, points, margin)
    dx, dy = x[1:] - x[:-1], y[1:] - y[:-1]
    bad = (comp[:-1] >= 0) & (comp[:-1] == comp[1:]) & (np.abs(dy - dx) > tol)
    a = bad.nonzero()[0]
    a = a[comp[a].argsort(kind="stable")]
    return [(intervals[comp[k]], float(dy[k] / dx[k])) for k in a.tolist()]


def verify_slope1_characterization(
    sol: WeakSolution, mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float = 1e-7
) -> SlopeReport:
    """Geometric optimality test: admissibility plus slope 1 between every
    pair of consecutive atoms whose images both fall strictly inside one
    irreducible interval of (pushforward, nu)."""
    s = support_scale(mu, nu)
    x = mu.atoms
    t = sol.map(x)
    adm = _admissibility(t, mu, nu, tol)
    viol = list(adm.violations)
    for iv, slope in slope1_violations(t, x, t, sol.irreducibles, tol * s, tol * s):
        viol.append(f"slope {slope:.6f} != 1 inside ({iv.lo}, {iv.hi})")
    ok = adm.ok and len(viol) == len(adm.violations)
    return SlopeReport(ok, adm.ok, tuple(viol))


def map_decomposition(map_: MonotoneMap):
    """Split the knot range into maximal unit-slope intervals and the rest.

    Returns (slope1_intervals, contractive_intervals) as lists of closed
    [lo, hi] pairs over the knot range.
    """
    x, t = map_.knots_x, map_.knots_t
    if x.size < 2:
        return [], []
    unit = np.abs(t[1:] - t[:-1] - (x[1:] - x[:-1])) <= UNIT_SLOPE_TOL * max(1.0, float(x[-1] - x[0]))
    # maximal runs of equal class, from start[r] to start[r + 1] - 1
    start = np.concatenate(([0], (unit[1:] != unit[:-1]).nonzero()[0] + 1, [unit.size]))
    slope1, contractive = [], []
    for i, j in zip(start[:-1].tolist(), start[1:].tolist()):
        (slope1 if unit[i] else contractive).append((float(x[i]), float(x[j])))
    return slope1, contractive
