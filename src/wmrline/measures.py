"""Finitely supported probability measures on the real line.

Provides the order-theoretic toolkit used everywhere else: quantile
evaluation, potential functions u(y) = int |x-y| dm, the convex order,
irreducible intervals, Wasserstein distances and barycentric coarsening.

The convex order is decided in quantile coordinates, with no potential
evaluated. With F a measure's distribution function, C(y) = int_{-inf}^y F
is the Legendre conjugate of the quantile integral G(c) = int_0^c F^{-1} on
[0, 1], and u(y) = 2 C(y) - y + mean. Hence

    sup_y (u_a - u_b)(y) = S(1) - 2 min_c S(c),   S = G_a - G_b,

attained at b's quantile at the minimising level, and S(1) is the mean gap.
S is linear minus convex, hence concave, between a's cumulative levels, so
its minimum sits at one of them: the order slack at a's levels, formed in
one O(n + m) pass over level_blocks(a, b), gives the verdict, its witness
and the irreducible intervals.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConsistencyError, DomainError, OrderError

# Base relative tolerance for order comparisons; multiplied by the joint
# support scale (max(1, diameter)) at every call site.
ORDER_TOL = 1e-9

# Atoms closer than MERGE_TOL * scale are collapsed at construction.
MERGE_TOL = 1e-12


def _as_1d(x) -> np.ndarray:
    """The one intake of a caller's float array: a new 1-D array of finite
    floats (a scalar becomes one entry), so the caller's array stays theirs."""
    a = np.array(x, dtype=float, ndmin=1)
    if a.ndim != 1:
        raise ValueError("expected a 1-D array of reals")
    if not np.isfinite(a).all():
        raise ValueError("entries must be finite")
    return a


def _freeze(obj, fields: dict) -> None:
    """Store fields on the frozen dataclass obj, every array among them read-only;
    also the value classes' __setstate__, so pickle and deepcopy copies stay frozen."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


def _gate(gap: np.ndarray, tol: float, what: str, error: type) -> None:
    """The one array tolerance check: raise error naming the worst index of
    gap, its value and tol when it exceeds tol."""
    k = int(gap.argmax())
    if gap[k] > tol:
        raise error(f"{what} {k}: off by {gap[k]:.3e} (tol {tol:.3e})")


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure with finitely many atoms.

    Atoms are kept strictly increasing; duplicates (within 1e-12 of the
    support scale) are merged at construction, summing their weights and
    averaging positions by mass. Weights must be positive and sum to 1
    within 1e-9 (they are then renormalized exactly).
    """

    atoms: np.ndarray
    weights: np.ndarray
    _levels = None  # cumulative(), formed on its first call (not a field)
    __setstate__ = _freeze

    def __post_init__(self):
        atoms = _as_1d(self.atoms)
        weights = _as_1d(self.weights)
        if atoms.shape != weights.shape:
            raise ValueError("atoms and weights must have equal length")
        if atoms.size == 0:
            raise ValueError("a measure needs at least one atom")
        _gate(-weights, 1e-15, "weights must be positive: negative at atom", ValueError)
        keep = weights > 0.0
        if not keep.any():
            raise ValueError("all weights vanish")
        atoms, weights = atoms[keep], weights[keep]
        gaps = atoms[1:] - atoms[:-1]
        if (gaps < 0.0).any():  # a stable argsort of sorted atoms is the identity
            order = atoms.argsort(kind="stable")
            atoms, weights = atoms[order], weights[order]
            gaps = atoms[1:] - atoms[:-1]
        span = float(atoms[-1] - atoms[0])
        tol = MERGE_TOL * max(1.0, span)
        if (gaps <= tol).any():
            atoms, weights = _merge_close(atoms, weights, gaps, tol)
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total!r}, not 1")
        _freeze(self, {"atoms": atoms, "weights": weights / total})

    @property
    def n(self) -> int:
        return self.atoms.size

    @property
    def diameter(self) -> float:
        return float(self.atoms[-1] - self.atoms[0])

    def cumulative(self) -> np.ndarray:
        """Cumulative weights (_prefix_sum), nondecreasing and at most 1; the
        last entry is exactly 1 (a partial sum can overshoot 1 before it).
        Formed on the first call, then kept read-only on the measure."""
        if self._levels is None:
            c = np.minimum(_prefix_sum(self.weights), 1.0)
            c[-1] = 1.0
            _freeze(self, {"_levels": c})
        return self._levels

    def shift(self, h: float) -> "DiscreteMeasure":
        return DiscreteMeasure(self.atoms + float(h), self.weights)

    def __eq__(self, other):
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return (
            self.n == other.n
            and bool(np.array_equal(self.atoms, other.atoms))
            and bool(np.array_equal(self.weights, other.weights))
        )


def _prefix_sum(w: np.ndarray) -> np.ndarray:
    """The one prefix sum of weights: a cumsum corrected by the running sum of
    its steps' exact TwoSum errors (Ogita, Rump & Oishi 2005), as if summed in
    twice the precision (a plain cumsum of 10^5 weights 1e-5 drifts 1.9e-12)."""
    c = w.cumsum()
    s, a, b = c[1:], c[:-1], w[1:]  # s = fl(a + b)
    bb = s - a
    c[1:] += ((a - (s - bb)) + (b - bb)).cumsum()
    return c


def _merge_close(atoms: np.ndarray, weights: np.ndarray, gaps: np.ndarray, tol: float):
    """Group sorted atoms at gaps (atoms[1:] - atoms[:-1]) <= tol; barycenter position, summed mass.

    Each barycenter is formed from offsets to its group's first atom, so it
    stays inside the group (exact duplicates keep their position) even where
    the atoms' ulp exceeds tol."""
    new = np.empty(atoms.size, dtype=bool)
    new[0] = True
    np.greater(gaps, tol, out=new[1:])
    start = new.nonzero()[0]
    first = atoms[start]
    mass = np.add.reduceat(weights, start)
    offset = atoms - first[new.cumsum() - 1]
    return first + np.add.reduceat(weights * offset, start) / mass, mass


def support_scale(*measures: DiscreteMeasure) -> float:
    """max(1, diameter of the joint support) — the unit for tolerances."""
    lo = min(float(m.atoms[0]) for m in measures)
    hi = max(float(m.atoms[-1]) for m in measures)
    return max(1.0, hi - lo)


def measures_close(a: DiscreteMeasure, b: DiscreteMeasure, tol: float = 1e-9) -> bool:
    """Equality of measures up to atom positions within tol*scale and weights within tol."""
    return _mismatch(a, b, tol) is None


def _mismatch(a: DiscreteMeasure, b: DiscreteMeasure, tol: float = 1e-9) -> str | None:
    """Why measures_close(a, b, tol) fails, or None when it holds: the atom
    counts, or the worst atom position or weight and its margin."""
    if a is b:
        return None
    if a.n != b.n:
        return f"{a.n} atoms against {b.n}"
    s = support_scale(a, b)
    for what, gap, thr in (
        ("position", np.abs(a.atoms - b.atoms), tol * s),
        ("weight", np.abs(a.weights - b.weights), tol),
    ):
        k = int(gap.argmax())
        if gap[k] > thr:
            return f"{what} of atom {k} off by {gap[k]:.3e} (tol {thr:.3e})"
    return None


def mean(m: DiscreteMeasure) -> float:
    """Barycenter sum w_i x_i."""
    return float(np.dot(m.weights, m.atoms))


def quantile(m: DiscreteMeasure, level: float) -> float:
    """Left-continuous inverse CDF: inf{x : F(x) >= level}, level in (0, 1]."""
    if not 0.0 < level <= 1.0:
        raise DomainError(f"quantile level must lie in (0, 1], got {level!r}")
    return float(quantiles_at(m, level))


def quantiles_at(m: DiscreteMeasure, levels: np.ndarray) -> np.ndarray:
    """Vectorized left-continuous inverse CDF (no domain check)."""
    idx = m.cumulative().searchsorted(levels, side="left")
    return m.atoms[np.minimum(idx, m.n - 1)]


def level_blocks(a: DiscreteMeasure, b: DiscreteMeasure):
    """Blocks of the merged cumulative levels of a and b, as (i, j, width):
    on the k-th block, of width width[k], a's left-continuous quantile is
    atom i[k] and b's is atom j[k]. i and j are nondecreasing, the widths are
    positive and sum to 1 (the comonotone coupling of a and b)."""
    levels = np.concatenate((a.cumulative(), b.cumulative()))
    order = levels.argsort(kind="stable")  # merges the two sorted runs
    levels = levels[order]
    step = levels - np.concatenate(([0.0], levels[:-1]))
    k = step.nonzero()[0]  # the first copy of each distinct level
    i = np.concatenate(([0], (order < a.n).cumsum()))[k]  # a's levels below it
    return i, k - i, step[k]


def _level_slack(i, j, width, t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Partial sums of width * (t_i - y_j) over the blocks (i, j, width) of
    level_blocks(a, b), with b's atoms y and values t on a's atoms, at a's
    levels c_0 = 0, ..., c_n = 1: the order slack of t(a) against b. For
    nondecreasing t, t(a) <=_c b iff every slack is >= 0 and the last is 0;
    the slack is concave between levels (module docstring), and each term is
    a difference of two atoms, so wide offsets cancel before the sums."""
    gaps = np.bincount(i, weights=width * (t[i] - y[j]), minlength=t.size)
    return np.concatenate(([0.0], gaps.cumsum()))


def lowest_mass(weights: np.ndarray, amount: float) -> np.ndarray:
    """The part of each weight that lies in the first amount of the total
    mass, counted from the first entry."""
    below = np.concatenate(([0.0], _prefix_sum(weights)[:-1]))
    return np.minimum(weights, np.maximum(amount - below, 0.0))


def potential_at(m: DiscreteMeasure, y) -> np.ndarray:
    """u_m(y) = sum_i w_i |x_i - y|, exactly, via prefix sums formed in
    coordinates centred on m's first atom, so that wide offsets cancel before
    the sums are formed."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    w, x = m.weights, m.atoms
    W = np.concatenate(([0.0], _prefix_sum(w)))
    S = np.concatenate(([0.0], (w * (x - x[0])).cumsum()))
    k = x.searchsorted(y, side="right")
    # below-y part contributes y*W_k - S_k, above-y part S_n - S_k - y*(1-W_k)
    return (y - x[0]) * (2.0 * W[k] - W[-1]) + S[-1] - 2.0 * S[k]


@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Convex piecewise-linear function stored by (breakpoint, value) pairs,
    with slope -1 on (-inf, b_1] and +1 on [b_m, inf): the shape of a
    potential. The chain of slopes must be nondecreasing."""

    breakpoints: np.ndarray
    values: np.ndarray
    left_slope = -1.0
    right_slope = 1.0
    __setstate__ = _freeze

    def __post_init__(self):
        bp = _as_1d(self.breakpoints)
        vals = _as_1d(self.values)
        if bp.shape != vals.shape or bp.size == 0:
            raise ValueError("breakpoints/values must be equal-length, nonempty")
        if bp.size > 1 and np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        span = max(1.0, float(bp[-1] - bp[0]), float(np.abs(vals).max()))
        if np.any(np.diff(self.slope_chain(bp, vals)) < -1e-9 * span):
            raise ValueError("slopes must be nondecreasing for a convex fn")
        _freeze(self, {"breakpoints": bp, "values": vals})

    @staticmethod
    def slope_chain(bp, vals) -> np.ndarray:
        interior = np.diff(vals) / np.diff(bp) if bp.size > 1 else np.empty(0)
        return np.concatenate(([-1.0], interior, [1.0]))

    def slopes(self) -> np.ndarray:
        return self.slope_chain(self.breakpoints, self.values)

    def __call__(self, y) -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        bp, vals = self.breakpoints, self.values
        out = np.interp(y, bp, vals)
        left = y < bp[0]
        right = y > bp[-1]
        out[left] = vals[0] - (y[left] - bp[0])
        out[right] = vals[-1] + (y[right] - bp[-1])
        return out


def potential(m: DiscreteMeasure) -> PiecewiseLinearFn:
    """Potential function of m: convex, kinks at the atoms, slopes -1/+1 at infinity."""
    vals = potential_at(m, m.atoms)
    fn = PiecewiseLinearFn(m.atoms, vals)
    offset = m.atoms - m.atoms[0]  # centred as in potential_at
    gap = np.abs(offset - np.dot(m.weights, offset)) - vals
    _gate(gap, 1e-12 * support_scale(m), "potential drops below |y - mean| at atom", ConsistencyError)
    return fn


def convex_order_leq(a: DiscreteMeasure, b: DiscreteMeasure, tol: float = ORDER_TOL) -> bool:
    """True iff a <=_c b: equal means and u_a <= u_b everywhere, both to
    tol * scale, decided on the order slack (module docstring)."""
    return _order_check(a, b, tol)[0] is None


def _order_check(a: DiscreteMeasure, b: DiscreteMeasure, tol: float = ORDER_TOL):
    """(witness, thr, slack) of a <=_c b at thr = tol * support_scale(a, b),
    from which every order test reads its verdict.

    The means are compared first; on a mismatch the witness holds both and
    slack is None. Otherwise slack is a's order slack (_level_slack of a's
    atoms). The excess sup (u_a - u_b) = slack_n - 2 min slack (module
    docstring) sits at b's left-continuous quantile at the first minimising
    level, the lowest such atom of b; the witness, None when the excess is
    at most thr, names it.
    """
    thr = tol * support_scale(a, b)
    ma, mb = mean(a), mean(b)
    if abs(ma - mb) > thr:
        return {"kind": "mean_mismatch", "mean_a": ma, "mean_b": mb}, thr, None
    slack = _level_slack(*level_blocks(a, b), a.atoms, b.atoms)
    k = int(slack.argmin())
    excess = float(slack[-1] - 2.0 * slack[k])
    if excess <= thr:
        return None, thr, slack
    j = int(b.cumulative().searchsorted(a.cumulative()[k - 1] if k else 0.0))
    witness = {"kind": "potential_violation", "index": j, "atom": float(b.atoms[j]), "excess": excess}
    return witness, thr, slack


def _order_failure(a, b, na: str, nb: str, tol: float = ORDER_TOL) -> str | None:
    """Why a <=_c b fails at tol * scale, in words that call a and b na and
    nb, or None when it holds: one _order_check pass gives both."""
    witness, thr, _ = _order_check(a, b, tol)
    return None if witness is None else _witness_words(witness, na, nb, thr)


def _witness_words(w: dict, na: str, nb: str, thr: float) -> str:
    """A convex-order witness (_order_check) in words, against the absolute
    tolerance thr."""
    if w["kind"] == "mean_mismatch":
        why = f"mean({na}) - mean({nb}) = {w['mean_a'] - w['mean_b']:.3e}"
    else:
        why = f"u_{na} - u_{nb} = {w['excess']:.3e} at {nb}'s atom {w['index']} ({w['atom']!r})"
    return f"{na} <=_c {nb} fails: {why}, above tol {thr:.3e}"


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi), lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"degenerate interval ({self.lo}, {self.hi})")

    def contains(self, y: float, margin: float = 0.0) -> bool:
        """Strict interior membership, shrunk by margin on both sides."""
        return self.lo + margin < y < self.hi - margin


@dataclass(frozen=True, eq=False)
class Intervals(Sequence):
    """Sorted, disjoint open intervals (lo[k], hi[k]), held as two read-only
    arrays: lo < hi, and each interval ends at or below the next one's start.

    A sequence of Interval: len, iteration and indexing yield Interval
    objects, built on demand, and it equals another Intervals or a list of
    Interval with the same ends, so intervals == [] tests for none."""

    lo: np.ndarray
    hi: np.ndarray
    __setstate__ = _freeze

    def __post_init__(self):
        lo, hi = _as_1d(self.lo), _as_1d(self.hi)
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have equal length")
        _freeze(self, {"lo": lo, "hi": hi})
        self._check()

    @classmethod
    def _of(cls, lo: np.ndarray, hi: np.ndarray) -> "Intervals":
        """Intervals on new equal-length arrays of finite floats that nothing
        else holds, checked as the constructor checks them, without the
        intake's copy (a fixed cost that small solves would feel)."""
        self = object.__new__(cls)
        _freeze(self, {"lo": lo, "hi": hi})
        self._check()
        return self

    def _check(self) -> None:
        """lo < hi, and each interval ends at or below the next one's start;
        ValueError names the first interval that fails and its margin."""
        lo, hi = self.lo, self.hi
        ok = hi > lo
        if not ok.all():
            k = int(ok.argmin())
            raise ValueError(f"interval {k} is degenerate: hi - lo = {hi[k] - lo[k]:.3e}")
        ok = lo[1:] >= hi[:-1]
        if not ok.all():
            k = int(ok.argmin())
            raise ValueError(f"interval {k + 1} starts {hi[k] - lo[k + 1]:.3e} below the end of interval {k}")

    def ends(self) -> np.ndarray:
        """A new array of every end in order: lo_0, hi_0, lo_1, hi_1, ..."""
        ends = np.empty(2 * self.lo.size)
        ends[0::2], ends[1::2] = self.lo, self.hi
        return ends

    def __len__(self) -> int:
        return self.lo.size

    def __getitem__(self, k) -> Interval:
        return Interval(float(self.lo[k]), float(self.hi[k]))

    def __iter__(self):
        return map(Interval, self.lo.tolist(), self.hi.tolist())

    def __eq__(self, other):
        if isinstance(other, Intervals):
            return bool(np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi))
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented


def irreducible_components(a: DiscreteMeasure, b: DiscreteMeasure) -> Intervals:
    """Maximal open intervals where u_a < u_b, for a <=_c b, as one Intervals.

    Read off the order slack of a at its cumulative levels (_order_check);
    see _slack_components. Every endpoint is an atom of b. The same slack
    decides the convex-order precondition (at ORDER_TOL, as convex_order_leq
    does), and OrderError names its witness when it fails; levels where the
    slack is at most ORDER_TOL * scale count as contacts.
    """
    witness, thr, slack = _order_check(a, b)
    if witness is not None:
        raise OrderError(f"irreducible components: {_witness_words(witness, 'a', 'b', thr)}")
    return _slack_components(slack, a, b, thr)


def _slack_components(slack, a: DiscreteMeasure, b: DiscreteMeasure, thr: float) -> Intervals:
    """Irreducible intervals of eta = t(a) <=_c b, for nondecreasing t, from
    t's order slack at 0 and a's levels, and b's levels and atoms, in O(n + m),
    as one Intervals whose arrays are read off b's atoms (no Interval built).

    u_b(y) = u_eta(y) exactly where a contact level (slack 0) lies in
    [F_b(y-), F_b(y)]. Between two of a's levels the slack is linear minus
    convex, hence concave, so contacts occur only at a's levels or on a
    whole block that eta and b put on the same atom. Two consecutive contacts
    c_a < c_b therefore bound the interval from b's atom just above level c_a
    to b's atom just below level c_b, and none when that is the same atom.
    Levels with slack <= thr are contacts; a contact opens an interval above
    the highest of b's levels within 1e-12 of it and closes one below the
    lowest, so levels that only sub-ulp weights separate open none.
    """
    hit = slack <= thr
    hit[0] = hit[-1] = True
    z = np.concatenate(([0.0], a.cumulative()))[hit]
    cb, y = b.cumulative(), b.atoms
    lo = cb.searchsorted(z[:-1] + 1e-12, side="right")
    hi = cb.searchsorted(z[1:] - 1e-12, side="left")
    keep = lo < hi
    return Intervals._of(y[lo[keep]], y[hi[keep]])


def interval_index(intervals: Intervals, points, margin: float = 0.0) -> np.ndarray:
    """Index of the interval that contains each point (Interval.contains with
    margin), or -1 where none does, read off the arrays of intervals.

    Intervals are sorted and disjoint, so the only candidate is the last
    interval whose shrunk lower end lies below the point."""
    points = np.asarray(points, dtype=float)
    if not intervals:
        return np.full(points.shape, -1, dtype=np.int64)
    k = (intervals.lo + margin).searchsorted(points, side="left") - 1
    return np.where((k >= 0) & (points < intervals.hi[k] - margin), k, -1)


def nearest_atom(grid: np.ndarray, points) -> np.ndarray:
    """Index of the entry of the sorted grid nearest to each point.

    The nearest entry is one of the two neighbours of a point in the grid; a
    tie goes to the lower index, as argmin over |grid - point| would."""
    points = np.asarray(points, dtype=float)
    k = grid.searchsorted(points)
    lower = np.maximum(k - 1, 0)
    upper = np.minimum(k, grid.size - 1)
    return np.where(points - grid[lower] <= grid[upper] - points, lower, upper)


def wasserstein(a: DiscreteMeasure, b: DiscreteMeasure, rho: float = 1.0) -> float:
    """rho-Wasserstein distance, exact on the merged cumulative-weight grid."""
    if not 1.0 <= rho < np.inf:  # NaN fails both comparisons
        raise DomainError(f"wasserstein order must be finite and >= 1, got {rho!r}")
    i, j, widths = level_blocks(a, b)
    # left-continuous quantiles are constant on each level block
    gaps = np.abs(a.atoms[i] - b.atoms[j])
    return float(np.dot(widths, gaps**rho) ** (1.0 / rho))


def quantize(m: DiscreteMeasure, delta: float) -> DiscreteMeasure:
    """Barycentric coarsening into half-open bins [k*delta, (k+1)*delta).

    The result is below m in convex order, keeps the mean, and moves no atom
    by more than delta.
    """
    if not delta > 0.0:
        raise DomainError(f"bin width must be positive, got {delta!r}")
    idx = np.floor(m.atoms / delta).astype(np.int64)
    return _bin_barycenters(m, idx)


def _bin_barycenters(m: DiscreteMeasure, idx: np.ndarray) -> DiscreteMeasure:
    keys, inverse = np.unique(idx, return_inverse=True)
    w = np.bincount(inverse, weights=m.weights, minlength=keys.size)
    wx = np.bincount(inverse, weights=m.weights * m.atoms, minlength=keys.size)
    return DiscreteMeasure(wx / w, w)


def pushforward(m: DiscreteMeasure, values) -> DiscreteMeasure:
    """Image measure of m under the map atom_i -> values_i (duplicates merged).

    A map that moves no atom (values equal to m's atoms elementwise) returns
    m itself, its weights and cached levels as they are."""
    values = np.atleast_1d(np.asarray(values, dtype=float))  # validated by the constructor
    if values.shape != m.atoms.shape:
        raise ValueError("need one image per atom")
    if (values == m.atoms).all():
        return m
    return DiscreteMeasure(values, m.weights)


# ---------------------------------------------------------------------------
# Piecewise-linear potential arithmetic (pointwise max, lower convex envelope)
# ---------------------------------------------------------------------------


def pl_max(f: PiecewiseLinearFn, g: PiecewiseLinearFn) -> PiecewiseLinearFn:
    """Pointwise maximum of two convex PL functions with slopes -1/+1 at infinity."""
    grid = np.union1d(f.breakpoints, g.breakpoints)
    fv, gv = f(grid), g(grid)
    # insert crossing points interior to segments where the sign of f-g flips
    d = fv - gv
    k = (d[:-1] * d[1:] < 0.0).nonzero()[0]
    if k.size:
        grid = np.union1d(grid, grid[k] + d[k] / (d[k] - d[k + 1]) * (grid[k + 1] - grid[k]))
        fv, gv = f(grid), g(grid)
    vals = np.maximum(fv, gv)
    bp, vals = _drop_collinear(grid, vals)
    return PiecewiseLinearFn(bp, vals)


def lower_convex_envelope(f: PiecewiseLinearFn, g: PiecewiseLinearFn) -> PiecewiseLinearFn:
    """Greatest convex function below both f and g (both convex, slopes -1/+1).

    The lower hull of min(f, g) on the merged breakpoints: a crossing of f
    and g is a concave kink of the minimum, so the envelope's vertices are
    among the breakpoints, and both tails already have slope -1/+1.
    """
    grid = np.union1d(f.breakpoints, g.breakpoints)
    vals = np.minimum(f(grid), g(grid))
    hull = _lower_hull(grid, vals)
    return PiecewiseLinearFn(*_drop_collinear(grid[hull], vals[hull]))


def _lower_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull vertices of points sorted by x (strict
    turns only); one monotone-chain pass, the first and last point included."""
    hx, hy, idx = [], [], []
    for k, (xi, yi) in enumerate(zip(x.tolist(), y.tolist())):
        while len(hx) >= 2:
            cross = (hx[-1] - hx[-2]) * (yi - hy[-2]) - (xi - hx[-2]) * (hy[-1] - hy[-2])
            if cross <= 0.0:  # middle point above or on the chord: drop it
                hx.pop()
                hy.pop()
                idx.pop()
            else:
                break
        hx.append(xi)
        hy.append(yi)
        idx.append(k)
    return np.array(idx)


def _drop_collinear(bp: np.ndarray, vals: np.ndarray):
    """Remove breakpoints whose left and right slopes agree (within 1e-13)."""
    if bp.size == 1:
        return bp, vals
    slopes = PiecewiseLinearFn.slope_chain(bp, vals)
    jump = np.diff(slopes)
    keep = jump > 1e-13
    return bp[keep], vals[keep]


def measure_from_potential(u: PiecewiseLinearFn) -> DiscreteMeasure:
    """Recover the measure whose potential is u (weights = slope jumps / 2).

    Slope jumps below 1e-11 are treated as collinearity noise and dropped;
    the constructor renormalizes the remainder.
    """
    jumps = np.diff(u.slopes())
    keep = jumps > 1e-11
    return DiscreteMeasure(u.breakpoints[keep], jumps[keep] / 2.0)


# ---------------------------------------------------------------------------
# Measure CSV I/O: one "atom,weight" pair per line, header optional
# ---------------------------------------------------------------------------


def _csv_rows(text: str, header: str) -> tuple[list, np.ndarray]:
    """Line numbers and values, one column per field of header, of the data
    rows of comma-separated text; blank lines and a non-numeric line 1 (a
    header) are skipped."""
    fields = header.count(",") + 1
    linenos, rows = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != fields:
            raise ValueError(f"line {lineno}: expected '{header}', got {raw!r}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            if lineno == 1:  # header row
                continue
            raise ValueError(f"line {lineno}: non-numeric entry in {raw!r}") from None
        linenos.append(lineno)
    return linenos, np.array(rows, dtype=float).reshape(-1, fields).T


def _csv(header: str, rows) -> str:
    """The header line, then one line per row: numbers as "%.16e", text as
    is. Every row has the first row's shape, so one template writes them all."""
    rows = list(rows)
    line = ",".join("%s" if isinstance(v, str) else "%.16e" for row in rows[:1] for v in row)
    return header + ("\n" + line) * len(rows) % tuple(chain.from_iterable(rows)) + "\n"


def parse_measure_csv(text: str) -> DiscreteMeasure:
    _, (atoms, weights) = _csv_rows(text, "atom,weight")
    if not atoms.size:
        raise ValueError("no data rows in measure CSV")
    return DiscreteMeasure(atoms, weights)


def read_measure_csv(path) -> DiscreteMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_measure_csv(fh.read())


def write_measure_csv(m: DiscreteMeasure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_csv("atom,weight", zip(m.atoms.tolist(), m.weights.tolist())))
