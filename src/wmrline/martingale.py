"""Martingale couplings between convex-ordered discrete measures.

Construction is the left-curtain coupling of Beiglboeck and Juillet: the
source atoms, left to right, each take their shadow in what is left of the
target, a quantile window with the atom as barycenter. The module also
provides composition with a transport map, decomposition over irreducible
intervals, barycenter maps, optimality certificates, and the two-point
competitor construction used to falsify suboptimal couplings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CompositionError,
    CouplingError,
    DomainError,
    OrderError,
    StructureError,
)
from .measures import (
    DiscreteMeasure,
    Interval,
    convex_order_leq,
    mean,
    measures_close,
    nearest_atom,
    support_scale,
)
from .wmr import CostSpec, MonotoneMap, weak_monotone_rearrangement

MARGINAL_TOL = 1e-10
BARYCENTER_TOL = 1e-9


@dataclass(frozen=True)
class Coupling:
    """Sparse joint distribution over pairs of atoms of (source, target)."""

    source: DiscreteMeasure
    target: DiscreteMeasure
    rows: np.ndarray  # source atom indices
    cols: np.ndarray  # target atom indices
    mass: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64).reshape(-1)
        cols = np.asarray(self.cols, dtype=np.int64).reshape(-1)
        mass = np.asarray(self.mass, dtype=float).reshape(-1)
        if not (rows.size == cols.size == mass.size):
            raise CouplingError("rows, cols and mass must have equal length")
        if np.any(mass <= 0.0):
            raise CouplingError("all coupling masses must be positive")
        order = np.lexsort((cols, rows))
        rows, cols, mass = rows[order], cols[order], mass[order]
        for arr in (rows, cols, mass):
            arr.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "mass", mass)
        rs = np.zeros(self.source.n)
        cs = np.zeros(self.target.n)
        np.add.at(rs, rows, mass)
        np.add.at(cs, cols, mass)
        if np.abs(rs - self.source.weights).max() > MARGINAL_TOL:
            raise CouplingError("row sums do not match the source weights")
        if np.abs(cs - self.target.weights).max() > MARGINAL_TOL:
            raise CouplingError("column sums do not match the target weights")

    def conditional(self, i: int) -> DiscreteMeasure:
        """Normalized conditional distribution of the i-th source atom."""
        sel = self.rows == i
        if not np.any(sel):
            raise CouplingError(f"source atom {i} carries no mass")
        w = self.mass[sel]
        return DiscreteMeasure(self.target.atoms[self.cols[sel]], w / w.sum())

    def row_barycenters(self) -> np.ndarray:
        num = np.zeros(self.source.n)
        den = np.zeros(self.source.n)
        np.add.at(num, self.rows, self.mass * self.target.atoms[self.cols])
        np.add.at(den, self.rows, self.mass)
        return num / den

    def cost(self, cost: CostSpec) -> float:
        """Barycentric transport cost sum_i p_i theta(x_i - barycenter_i)."""
        bary = self.row_barycenters()
        return float(np.dot(self.source.weights, cost.value(self.source.atoms - bary)))


@dataclass(frozen=True)
class MartingaleCoupling(Coupling):
    """Coupling whose conditional barycenters equal their source atoms."""

    def __post_init__(self):
        super().__post_init__()
        s = support_scale(self.source, self.target)
        gap = np.abs(self.row_barycenters() - self.source.atoms)
        if gap.max() > BARYCENTER_TOL * s:
            raise CouplingError(
                f"martingale barycenter violated by {gap.max():.3e} (tol {BARYCENTER_TOL * s:.3e})"
            )


def build_martingale_coupling(eta: DiscreteMeasure, nu: DiscreteMeasure) -> MartingaleCoupling:
    """The left-curtain martingale coupling of eta <=_c nu (Beiglboeck-Juillet).

    eta's atoms are taken from left to right; atom (x, w) is sent to its
    shadow in what is left of nu, the quantile window [a, a + w] of the
    remaining mass whose barycenter is x, and the window is then removed.
    Each row's support is therefore a contiguous run of what is left of nu,
    and no later row reaches strictly inside an earlier row's run.
    Rounding-level slivers (mass <= 1e-12 moving the barycenter by
    <= 1e-10 * scale) are dropped. Raises OrderError when eta <=_c nu fails.
    """
    if not convex_order_leq(eta, nu):
        raise OrderError("martingale coupling requires eta <=_c nu")
    s = support_scale(eta, nu)
    y = nu.atoms
    left = nu.weights.copy()  # the part of nu no shadow has taken yet
    rows, cols, mass = [], [], []
    for i, (x, w) in enumerate(zip(eta.atoms.tolist(), eta.weights.tolist())):
        # remaining cumulative mass C and quantile integral G, recentred on x;
        # the window's offset from x, D(a) = G(a + w) - G(a), is nondecreasing
        # in a and linear between the breakpoints C and C - w
        C = np.concatenate(([0.0], np.cumsum(left)))
        G = np.concatenate(([0.0], np.cumsum(left * (y - x))))
        grid = np.clip(np.sort(np.concatenate((C, C - w)), kind="stable"), 0.0, max(C[-1] - w, 0.0))
        D = np.maximum.accumulate(np.interp(grid + w, C, G) - np.interp(grid, C, G))
        a = float(np.interp(0.0, D, grid))
        take = np.clip(np.minimum(C[1:], a + w) - np.maximum(C[:-1], a), 0.0, left)
        left -= take
        j = np.flatnonzero((take > 1e-12) | (take * np.abs(y - x) > 1e-10 * s * w))
        rows.append(np.full(j.size, i))
        cols.append(j)
        mass.append(take[j])
    rows, cols, mass = (np.concatenate(part) for part in (rows, cols, mass))
    return MartingaleCoupling(eta, nu, rows, cols, mass)


def identity_coupling(m: DiscreteMeasure) -> MartingaleCoupling:
    idx = np.arange(m.n)
    return MartingaleCoupling(m, m, idx, idx, m.weights.copy())


def product_coupling(a: DiscreteMeasure, b: DiscreteMeasure) -> Coupling:
    rows = np.repeat(np.arange(a.n), b.n)
    cols = np.tile(np.arange(b.n), a.n)
    return Coupling(a, b, rows, cols, np.outer(a.weights, b.weights).ravel())


def compose_with_map(mu: DiscreteMeasure, map_: MonotoneMap, mg: Coupling) -> Coupling:
    """Concatenate the deterministic transport x -> map(x) with mg.

    mg.source must equal the pushforward of mu under the map; the composed
    coupling sends each atom x_i of mu to the conditional of its image, so
    mass(i, j) = p_i * mg(image row, j) / image weight.
    """
    images = map_(mu.atoms)
    s = support_scale(mu, mg.source)
    pos = nearest_atom(mg.source.atoms, images)
    if np.abs(mg.source.atoms[pos] - images).max() > 1e-9 * s:
        raise CompositionError("mg.source does not match the pushforward of mu under the map")
    got = np.zeros(mg.source.n)
    np.add.at(got, pos, mu.weights)
    if np.abs(got - mg.source.weights).max() > 1e-9:
        raise CompositionError("pushforward weights do not match mg.source")

    # mg's entries are sorted by row, so image row pos[i] is the run of
    # count[i] entries from start[i]
    count = np.bincount(mg.rows, minlength=mg.source.n)[pos]
    start = np.searchsorted(mg.rows, pos)
    rows_out = np.repeat(np.arange(mu.n), count)
    idx = np.repeat(start - np.cumsum(count) + count, count) + np.arange(rows_out.size)
    share = mu.weights / mg.source.weights[pos]
    return Coupling(mu, mg.target, rows_out, mg.cols[idx], mg.mass[idx] * share[rows_out])


# ---------------------------------------------------------------------------
# Decomposition over irreducible intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MartingaleDecomposition:
    components: tuple  # (Interval, entry index array) pairs
    fixed: np.ndarray  # indices of diagonal entries on F
    ambiguous_sources: tuple  # source atoms sitting exactly on a component endpoint


def decompose_martingale(mg: MartingaleCoupling, tol: float = 1e-9) -> MartingaleDecomposition:
    """Assign each mass entry to the irreducible component of its row.

    The components are read off the coupling itself (Beiglboeck-Juillet):
    u_source(y) < u_target(y) exactly where some row puts mass strictly on
    both sides of y. So each row with two or more columns spans the open
    interval between its outermost target atoms, and overlapping spans merge
    into one component. A row with a single column is fixed; if it moves its
    atom by more than tol * scale, StructureError names the entry.
    """
    margin = tol * support_scale(mg.source, mg.target)
    y = mg.target.atoms
    src = mg.source.atoms[mg.rows]
    tgt = y[mg.cols]
    # entries are sorted by row, then column, so a row's span runs from its
    # first to its last column; sorted by their first column, spans start a
    # new component where they begin at or past the reach of all before
    row_start = np.diff(mg.rows, prepend=-1) != 0
    first = np.flatnonzero(row_start)
    lo, hi = mg.cols[first], mg.cols[np.append(first[1:], mg.rows.size) - 1]
    spans = np.flatnonzero(lo < hi)
    order = spans[np.argsort(lo[spans], kind="stable")]
    reach = np.maximum.accumulate(np.concatenate(([-1], hi[order])))
    new = lo[order] >= reach[:-1]
    comp = np.full(lo.size, -1)
    comp[order] = np.cumsum(new) - 1
    start = np.flatnonzero(new)
    ends = zip(y[lo[order][start]].tolist(), y[np.maximum.reduceat(hi[order], start)].tolist())
    comps = [Interval(a, b) for a, b in ends]

    where = comp[np.cumsum(row_start) - 1]
    fixed = where < 0
    moves = fixed & (np.abs(tgt - src) > margin)
    if np.any(moves):
        k = int(np.argmax(moves))
        raise StructureError(
            f"entry {k}: source {float(src[k])} lies in the fixed set F but moves to {float(tgt[k])}"
        )
    ambiguous = np.empty(0)
    if comps:
        endpoints = np.array([e for iv in comps for e in (iv.lo, iv.hi)])
        near = endpoints[nearest_atom(endpoints, src)]
        ambiguous = np.unique(src[fixed & (np.abs(src - near) <= margin)])
    entry_order = np.argsort(where, kind="stable")
    split = np.cumsum(np.bincount(where[~fixed], minlength=len(comps)))
    entries = np.split(entry_order[int(fixed.sum()):], split[:-1])
    return MartingaleDecomposition(
        components=tuple(zip(comps, entries)),
        fixed=np.flatnonzero(fixed),
        ambiguous_sources=tuple(ambiguous.tolist()),
    )


def barycenter_map(pi: Coupling) -> np.ndarray:
    """Knot list (source atom, conditional mean) per source atom.

    Monotonicity is not enforced; callers decide whether the knots form an
    increasing map.
    """
    return np.column_stack([pi.source.atoms, pi.row_barycenters()])


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    map_matches_rearrangement: bool
    second_stage_martingale: bool
    max_map_gap: float
    violations: tuple = ()


def optimality_certificate(
    pi: Coupling,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostSpec | None = None,
    tol: float = 1e-7,
) -> CertificateReport:
    """A coupling is optimal iff its barycenter map is the weak monotone
    rearrangement and the induced second stage is a martingale coupling."""
    cost = cost or CostSpec.quadratic()
    if not (measures_close(pi.source, mu) and measures_close(pi.target, nu)):
        raise CouplingError("coupling marginals do not match (mu, nu)")
    s = support_scale(mu, nu)
    knots = barycenter_map(pi)
    sol = weak_monotone_rearrangement(mu, nu)
    gap = float(np.abs(knots[:, 1] - sol.map(mu.atoms)).max())
    map_ok = gap <= tol * s

    viol = []
    if not map_ok:
        viol.append(f"barycenter map deviates from the rearrangement by {gap:.3e}")
    second_ok = True
    try:
        bary = pi.row_barycenters()
        push = DiscreteMeasure(bary, mu.weights)
        # regroup entries by merged image atom
        pos = nearest_atom(push.atoms, bary[pi.rows])
        agg: dict[tuple[int, int], float] = {}
        for r, cidx, mass in zip(pos, pi.cols, pi.mass):
            agg[(int(r), int(cidx))] = agg.get((int(r), int(cidx)), 0.0) + float(mass)
        keys = np.array(sorted(agg))
        MartingaleCoupling(push, nu, keys[:, 0], keys[:, 1], np.array([agg[tuple(k)] for k in keys]))
    except (CouplingError, ValueError) as err:
        second_ok = False
        viol.append(f"second stage is not a martingale coupling: {err}")
    return CertificateReport(map_ok and second_ok, map_ok, second_ok, gap, tuple(viol))


# ---------------------------------------------------------------------------
# Overlap test and the two-point competitor construction
# ---------------------------------------------------------------------------


def supports_overlap(p: DiscreteMeasure, q: DiscreteMeasure) -> bool:
    """int(co supp p) meets co supp q, or vice versa."""

    def hit(open_lo, open_hi, lo, hi):
        if open_lo >= open_hi:
            return False  # degenerate hull has empty interior
        return max(open_lo, lo) < min(open_hi, hi) or (lo == hi and open_lo < lo < open_hi)

    p_lo, p_hi = float(p.atoms[0]), float(p.atoms[-1])
    q_lo, q_hi = float(q.atoms[0]), float(q.atoms[-1])
    return hit(p_lo, p_hi, q_lo, q_hi) or hit(q_lo, q_hi, p_lo, p_hi)


def _lower_slice(m: DiscreteMeasure, level: float):
    """Atoms/weights of m restricted below its level-quantile, boundary included
    with just enough mass that the slice totals exactly level."""
    if level <= 0.0:
        return np.empty(0), np.empty(0)
    cum = m.cumulative()
    k = int(np.searchsorted(cum, level, side="left"))
    k = min(k, m.n - 1)
    below = cum[k - 1] if k > 0 else 0.0
    atoms = list(m.atoms[:k])
    weights = list(m.weights[:k])
    boundary = level - below
    if boundary > 0.0:
        atoms.append(float(m.atoms[k]))
        weights.append(boundary)
    return np.array(atoms), np.array(weights)


def competitor_curve(p: DiscreteMeasure, q: DiscreteMeasure, alpha: float):
    """The pair (p_a, q_a) with p_a + q_a = p + q, (p_1, q_1) = (p, q).

    p_a carries the lower alpha-slice of p plus the lower (1-alpha)-slice of
    q; q_a is the complementary pair of upper slices. When the supports of p
    and q overlap, the two means move strictly in opposite directions as
    alpha varies near 1, which is what makes the pair a cost competitor.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha!r}")
    pa_lo, pw_lo = _lower_slice(p, alpha)
    qa_lo, qw_lo = _lower_slice(q, 1.0 - alpha)

    def upper(meas, lo_atoms, lo_weights):
        w = meas.weights.copy()
        for a, lw in zip(lo_atoms, lo_weights):
            i = int(np.searchsorted(meas.atoms, a))
            w[i] -= lw
        keep = w > 1e-15
        return meas.atoms[keep], w[keep]

    pu_a, pu_w = upper(p, pa_lo, pw_lo)
    qu_a, qu_w = upper(q, qa_lo, qw_lo)
    p_alpha = DiscreteMeasure(np.concatenate([pa_lo, qa_lo]), np.concatenate([pw_lo, qw_lo]))
    q_alpha = DiscreteMeasure(np.concatenate([pu_a, qu_a]), np.concatenate([pu_w, qu_w]))
    return p_alpha, q_alpha


@dataclass(frozen=True)
class TwoPointImprovement:
    i: int
    j: int
    alpha: float
    old_cost: float
    new_cost: float

    @property
    def improvement(self) -> float:
        return self.old_cost - self.new_cost


def find_two_point_improvement(
    mu: DiscreteMeasure,
    map_values,
    mg: Coupling,
    cost: CostSpec,
    alphas=None,
) -> TwoPointImprovement | None:
    """Falsification probe for maps breaking the unit-slope geometry.

    Scans source pairs x_i < x_j whose displacements are out of order
    (x_i - t_i < x_j - t_j) and whose conditional target distributions
    overlap, then searches the competitor curve for a strictly cheaper
    reallocation of the two conditionals. Returns the first strict
    improvement found, or None.
    """
    t = np.asarray(map_values, dtype=float)
    x = mu.atoms
    s = support_scale(mu, mg.target)
    if alphas is None:
        alphas = np.linspace(0.999, 0.5, 40)
    pos = nearest_atom(mg.source.atoms, t)

    best = None
    for i in range(mu.n):
        for j in range(i + 1, mu.n):
            if (x[i] - t[i]) >= (x[j] - t[j]) - 1e-12 * s:
                continue
            p = mg.conditional(int(pos[i]))
            q = mg.conditional(int(pos[j]))
            if not supports_overlap(p, q):
                continue
            old = float(cost.value(np.array([x[i] - mean(p)]))[0]) + float(
                cost.value(np.array([x[j] - mean(q)]))[0]
            )
            for alpha in alphas:
                pa, qa = competitor_curve(p, q, float(alpha))
                new = float(cost.value(np.array([x[i] - mean(pa)]))[0]) + float(
                    cost.value(np.array([x[j] - mean(qa)]))[0]
                )
                if new < old - 1e-12 * max(1.0, abs(old)):
                    cand = TwoPointImprovement(i, j, float(alpha), old, new)
                    if best is None or cand.improvement > best.improvement:
                        best = cand
                    break
    return best


# ---------------------------------------------------------------------------
# CSV serialization: one `source_atom,target_atom,mass` triplet per line
# ---------------------------------------------------------------------------


def coupling_to_csv(pi: Coupling) -> str:
    lines = ["source_atom,target_atom,mass"]
    for r, c, m in zip(pi.rows, pi.cols, pi.mass):
        lines.append(f"{pi.source.atoms[r]:.16e},{pi.target.atoms[c]:.16e},{m:.16e}")
    return "\n".join(lines) + "\n"


def parse_coupling_csv(text: str, source: DiscreteMeasure, target: DiscreteMeasure) -> Coupling:
    linenos, entries = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 comma-separated fields")
        try:
            entries.append([float(v) for v in parts])
        except ValueError:
            if lineno == 1:
                continue
            raise ValueError(f"line {lineno}: non-numeric entry") from None
        linenos.append(lineno)
    a, b, mass = np.array(entries, dtype=float).reshape(-1, 3).T
    rows = nearest_atom(source.atoms, a)
    cols = nearest_atom(target.atoms, b)
    tol = 1e-9 * support_scale(source, target)
    missing = (np.abs(source.atoms[rows] - a) > tol) | (np.abs(target.atoms[cols] - b) > tol)
    if missing.any():
        lineno = linenos[int(np.argmax(missing))]
        raise ValueError(f"line {lineno}: atom not found in the marginals")
    return Coupling(source, target, rows, cols, mass)
