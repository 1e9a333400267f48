"""Martingale couplings between convex-ordered discrete measures.

Construction is the left-curtain coupling of Beiglboeck and Juillet, built
in one O(n + m) sweep: the source atoms, left to right, each take their
shadow in what is left of the target, the nearest mass on both sides of the
atom that has it as barycenter. The module also provides composition with a
transport map, decomposition over irreducible intervals, barycenter maps,
optimality certificates, and the two-point competitor construction used to
falsify suboptimal couplings.
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
    _as_1d,
    _csv,
    _csv_rows,
    _freeze,
    _gate,
    _mismatch,
    _order_failure,
    lowest_mass,
    mean,
    nearest_atom,
    support_scale,
)
from .wmr import CostSpec, MonotoneMap, _rearrangement

MARGINAL_TOL = 1e-10
BARYCENTER_TOL = 1e-9
FIXED_TOL = 1e-9  # a single-column row may move its atom by at most this times scale
# points of the competitor curve that find_two_point_improvement tries, in order
COMPETITOR_ALPHAS = np.linspace(0.999, 0.5, 40)


@dataclass(frozen=True)
class Coupling:
    """Sparse joint distribution over pairs of atoms of (source, target)."""

    source: DiscreteMeasure
    target: DiscreteMeasure
    rows: np.ndarray  # source atom indices
    cols: np.ndarray  # target atom indices
    mass: np.ndarray
    __setstate__ = _freeze

    def __post_init__(self):
        # copies, so the caller's arrays stay theirs and ours stay fixed
        rows = np.array(self.rows, dtype=np.int64, ndmin=1)
        cols = np.array(self.cols, dtype=np.int64, ndmin=1)
        mass = _as_1d(self.mass)
        if not (rows.shape == cols.shape == mass.shape):
            raise CouplingError("rows, cols and mass must have equal length")
        if (mass <= 0.0).any():
            raise CouplingError("all coupling masses must be positive")
        r0, r1 = rows[:-1], rows[1:]
        if (r0 > r1).any() or ((r0 == r1) & (cols[:-1] > cols[1:])).any():
            # a stable lexsort of entries in (row, col) order is the identity
            order = np.lexsort((cols, rows))
            rows, cols, mass = rows[order], cols[order], mass[order]
        _freeze(self, {"rows": rows, "cols": cols, "mass": mass})
        n, m = self.source.n, self.target.n
        try:  # bincount rejects a negative index, and one past the end lengthens its output
            rs = np.bincount(rows, weights=mass, minlength=n)
            cs = np.bincount(cols, weights=mass, minlength=m)
            if rs.size > n or cs.size > m:
                raise ValueError
        except ValueError:
            raise CouplingError("rows and cols must index atoms of the source and the target") from None
        _gate(np.abs(rs - self.source.weights), MARGINAL_TOL,
              "row sums do not match the source weights at atom", CouplingError)
        _gate(np.abs(cs - self.target.weights), MARGINAL_TOL,
              "column sums do not match the target weights at atom", CouplingError)

    def conditional(self, i: int) -> DiscreteMeasure:
        """Normalized conditional distribution of the i-th source atom."""
        sel = self.rows == i
        if not sel.any():
            raise CouplingError(f"source atom {i} carries no mass")
        w = self.mass[sel]
        return DiscreteMeasure(self.target.atoms[self.cols[sel]], w / w.sum())

    def row_barycenters(self) -> np.ndarray:
        n = self.source.n
        num = np.bincount(self.rows, weights=self.mass * self.target.atoms[self.cols], minlength=n)
        return num / np.bincount(self.rows, weights=self.mass, minlength=n)

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
        _gate(gap, BARYCENTER_TOL * s, "martingale barycenter violated at source atom", CouplingError)


def build_martingale_coupling(eta: DiscreteMeasure, nu: DiscreteMeasure) -> MartingaleCoupling:
    """The left-curtain martingale coupling of eta <=_c nu (Beiglboeck-Juillet).

    eta's atoms are taken from left to right; atom (x, w) is sent to its
    shadow in what is left of nu: the mass at x first, then the nearest alpha
    of mass below x and the nearest w - alpha above, with alpha such that the
    barycenter is x. The window is then removed, so each row's support is a
    contiguous run of what is left of nu, and no later row reaches strictly
    inside an earlier row's run.

    The build is one sweep in O(n + m). nu's atoms with mass left form a
    linked list, and a row grows its window outward from x one atom at a
    time, always on a side that is short: while the window holds less than
    w, the side with the smaller first moment about x; then the side that
    the bracket test on the two outermost atoms names, until the root lies
    between them and is solved on that linear piece. A side with nothing
    left is taken whole. Every scanned atom lies in the window and every
    emptied atom leaves the list, so the work is linear in n, m and the
    entries, of which there are at most 2n + m. Rounding-level slivers
    (mass <= 1e-12 moving the barycenter by <= 1e-10 * scale) are dropped.
    Raises OrderError when eta <=_c nu fails.
    """
    why = _order_failure(eta, nu, "eta", "nu")
    if why is not None:
        raise OrderError(f"martingale coupling: {why}")
    return _left_curtain(eta, nu)


def _left_curtain(eta: DiscreteMeasure, nu: DiscreteMeasure) -> MartingaleCoupling:
    """build_martingale_coupling's sweep, for a caller that checked the order."""
    s = support_scale(eta, nu)
    # nu's atoms are nodes 1..m; 0 and m + 1 are sentinels. The atoms with
    # mass left form a doubly linked list, and an atom leaves it when its
    # remaining mass reaches exactly 0 (a cut above 0 would drop real mass).
    m = nu.n
    y = [0.0, *nu.atoms.tolist(), 0.0]
    left = [0.0, *nu.weights.tolist(), 1.0]  # the part of nu no shadow has taken yet
    prv = list(range(-1, m + 1))
    nxt = list(range(1, m + 3))
    # eta's atoms increase, so the first node at or above each one, skipping
    # emptied atoms, is found by one pointer that only moves right
    first = (nu.atoms.searchsorted(eta.atoms) + 1).tolist()
    p = 1
    rows, cols, mass = [], [], []
    for i, (x, weight) in enumerate(zip(eta.atoms.tolist(), eta.weights.tolist())):
        w = weight  # the mass this row has still to place
        p = max(p, first[i])
        while left[p] == 0.0:
            p += 1
        lo, hi = prv[p], p
        took = []  # (node, mass) pairs of this row
        if hi <= m and y[hi] == x:
            took.append((hi, min(left[hi], w)))
            w -= left[hi]
            hi = nxt[hi]
        # The window takes the nearest alpha of mass below x and the nearest
        # w - alpha above, with Phi(alpha) = Mom_above(w - alpha) - Mom_below(alpha)
        # = 0; Phi decreases. Every atom scanned on a side lies in the window:
        # all but the outermost (ka below, kb above) whole, so only a and b,
        # their masses, and d, e, their distances to x, take part in the root.
        A0 = MA0 = B0 = MB0 = a = d = b = e = 0.0
        ka = kb = 0
        while w > 0.0:
            if A0 + a + B0 + b < w:
                # the window needs more than was scanned: if MA <= MB and the
                # left part fit in what was scanned, the right part would hold
                # all of MB and more, so the side with the smaller moment is short
                if lo > 0 and (hi > m or MA0 + a * d <= MB0 + b * e):
                    short_left = True
                elif hi <= m:
                    short_left = False
                else:  # nothing is left on either side: take all that was scanned
                    take_a, take_b = a, b
                    break
            else:
                # r of mass remains for the two outermost atoms, t of it above;
                # MB0 + t * e - MA0 - (r - t) * d increases in t, and its sign
                # at the ends of [t_lo, t_hi] tells which side is short
                r = w - A0 - B0
                t_lo, t_hi = max(0.0, r - a), min(b, r)
                if t_hi < r and hi <= m and MB0 + t_hi * e < MA0 + (r - t_hi) * d:
                    short_left = False
                elif t_lo > 0.0 and lo > 0 and MB0 + t_lo * e > MA0 + (r - t_lo) * d:
                    short_left = True
                else:  # the root, clipped where a short side has nothing left
                    t = min(max((MA0 + r * d - MB0) / (e + d), t_lo), t_hi)
                    take_a, take_b = r - t, t
                    break
            if short_left:
                if ka:
                    took.append((ka, a))
                    A0 += a
                    MA0 += a * d
                ka, a, d = lo, left[lo], x - y[lo]
                lo = prv[lo]
            else:
                if kb:
                    took.append((kb, b))
                    B0 += b
                    MB0 += b * e
                kb, b, e = hi, left[hi], y[hi] - x
                hi = nxt[hi]
        if ka:
            took.append((ka, min(take_a, a)))
        if kb:
            took.append((kb, min(take_b, b)))
        for k, t in took:
            left[k] -= t
            if left[k] == 0.0:
                nxt[prv[k]], prv[nxt[k]] = nxt[k], prv[k]
            if t > 1e-12 or t * abs(y[k] - x) > 1e-10 * s * weight:
                rows.append(i)
                cols.append(k - 1)
                mass.append(t)
    return MartingaleCoupling(eta, nu, rows, cols, mass)


def compose_with_map(mu: DiscreteMeasure, map_: MonotoneMap, mg: Coupling) -> Coupling:
    """Concatenate the deterministic transport x -> map(x) with mg.

    mg.source must equal the pushforward of mu under the map; the composed
    coupling sends each atom x_i of mu to the conditional of its image, so
    mass(i, j) = p_i * mg(image row, j) / image weight.
    """
    images = map_(mu.atoms)
    s = support_scale(mu, mg.source)
    pos = nearest_atom(mg.source.atoms, images)
    _gate(
        np.abs(mg.source.atoms[pos] - images),
        1e-9 * s,
        "mg.source does not match the pushforward of mu under the map at mu's atom",
        CompositionError,
    )
    got = np.bincount(pos, weights=mu.weights, minlength=mg.source.n)
    _gate(np.abs(got - mg.source.weights), 1e-9, "pushforward weights do not match mg.source at atom", CompositionError)

    # mg's entries are sorted by row, so image row pos[i] is the run of
    # count[i] entries from start[i]
    count = np.bincount(mg.rows, minlength=mg.source.n)[pos]
    start = mg.rows.searchsorted(pos)
    rows_out = np.arange(mu.n).repeat(count)
    idx = (start - count.cumsum() + count).repeat(count) + np.arange(rows_out.size)
    share = mu.weights / mg.source.weights[pos]
    return Coupling(mu, mg.target, rows_out, mg.cols[idx], mg.mass[idx] * share[rows_out])


# ---------------------------------------------------------------------------
# Decomposition over irreducible intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MartingaleDecomposition:
    """A coupling's entries by irreducible component; every index array,
    those inside the component pairs too, is a read-only copy."""

    components: tuple  # (Interval, entry index array) pairs
    fixed: np.ndarray  # indices of diagonal entries on F

    def __post_init__(self):
        def index(a):
            return np.array(a, dtype=np.int64, ndmin=1)

        self.__setstate__(
            {"components": tuple((iv, index(a)) for iv, a in self.components), "fixed": index(self.fixed)}
        )

    def __setstate__(self, state: dict) -> None:
        """_freeze, reaching the index arrays inside the component pairs too."""
        for _, a in state["components"]:
            a.setflags(write=False)
        _freeze(self, state)


def decompose_martingale(mg: MartingaleCoupling) -> MartingaleDecomposition:
    """Assign each mass entry to the irreducible component of its row.

    The components are read off the coupling itself (Beiglboeck-Juillet):
    u_source(y) < u_target(y) exactly where some row puts mass strictly on
    both sides of y. So each row with two or more columns spans the open
    interval between its outermost target atoms, and overlapping spans merge
    into one component. A row with a single column is fixed; if it moves its
    atom by more than FIXED_TOL * scale, StructureError names the entry.
    """
    margin = FIXED_TOL * support_scale(mg.source, mg.target)
    y = mg.target.atoms
    src = mg.source.atoms[mg.rows]
    tgt = y[mg.cols]
    # entries are sorted by row, then column, so a row's span runs from its
    # first to its last column; sorted by their first column, spans start a
    # new component where they begin at or past the reach of all before
    row_start = np.concatenate(([True], mg.rows[1:] != mg.rows[:-1]))
    first = row_start.nonzero()[0]
    lo, hi = mg.cols[first], mg.cols[np.append(first[1:], mg.rows.size) - 1]
    spans = (lo < hi).nonzero()[0]
    order = spans[lo[spans].argsort(kind="stable")]
    reach = np.maximum.accumulate(np.concatenate(([-1], hi[order])))
    new = lo[order] >= reach[:-1]
    comp = np.full(lo.size, -1)
    comp[order] = new.cumsum() - 1
    start = new.nonzero()[0]
    ends = zip(y[lo[order][start]].tolist(), y[np.maximum.reduceat(hi[order], start)].tolist())
    comps = [Interval(a, b) for a, b in ends]

    where = comp[row_start.cumsum() - 1]
    fixed = where < 0
    _gate(np.where(fixed, np.abs(tgt - src), 0.0), margin,
          "source lies in the fixed set F but moves at entry", StructureError)
    entry_order = where.argsort(kind="stable")
    split = np.bincount(where[~fixed], minlength=len(comps)).cumsum()
    entries = np.split(entry_order[int(fixed.sum()):], split[:-1])
    return MartingaleDecomposition(
        components=tuple(zip(comps, entries)),
        fixed=fixed.nonzero()[0],
    )


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    max_map_gap: float
    violations: tuple = ()


def optimality_certificate(
    pi: Coupling,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostSpec | None = None,
    tol: float = 1e-7,
) -> CertificateReport:
    """A coupling of (mu, nu) is optimal iff its barycenter map
    bary(x) = E[Y | X = x] is the weak monotone rearrangement: the
    barycentric cost sees a coupling only through that map (Gozlan et al.
    2017). The rearrangement is the same for every strictly convex cost, so
    this holds for each of them and cost is not read.

    No second stage is tested: (bary(X), Y) is a martingale coupling for
    every coupling, since E[Y | bary(X)] = bary(X) by the tower property, so
    such a test could fail only by rounding. The rearrangement's values on
    mu's atoms are read from the rearrangement kernel (wmr._rearrangement),
    with no full solve, and no measure or coupling is built."""
    for side, got, want in (("source", pi.source, mu), ("target", pi.target, nu)):
        why = _mismatch(got, want)
        if why is not None:
            raise CouplingError(f"coupling marginals do not match (mu, nu): {side}: {why}")
    gap = float(np.abs(pi.row_barycenters() - _rearrangement(mu, nu)[0]).max())
    if gap <= tol * support_scale(mu, nu):
        return CertificateReport(True, gap)
    return CertificateReport(False, gap, (f"barycenter map deviates from the rearrangement by {gap:.3e}",))


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


def competitor_curve(p: DiscreteMeasure, q: DiscreteMeasure, alpha: float):
    """The pair (p_a, q_a) with p_a + q_a = p + q, (p_1, q_1) = (p, q).

    p_a carries the lower alpha-slice of p plus the lower (1-alpha)-slice of
    q; q_a is the complementary pair of upper slices. When the supports of p
    and q overlap, the two means move strictly in opposite directions as
    alpha varies near 1, which is what makes the pair a cost competitor.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha!r}")
    lower = (lowest_mass(p.weights, alpha), lowest_mass(q.weights, 1.0 - alpha))
    upper = np.concatenate([p.weights - lower[0], q.weights - lower[1]])
    atoms = np.concatenate([p.atoms, q.atoms])
    p_alpha = DiscreteMeasure(atoms, np.concatenate(lower))
    q_alpha = DiscreteMeasure(atoms, np.where(upper > 1e-15, upper, 0.0))
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
) -> TwoPointImprovement | None:
    """Falsification probe for maps breaking the unit-slope geometry.

    Scans source pairs x_i < x_j whose displacements are out of order
    (x_i - t_i < x_j - t_j) and whose conditional target distributions
    overlap, then searches the competitor curve for a strictly cheaper
    reallocation of the two conditionals, at each pair's first improving
    alpha. Returns the largest improvement over all pairs, or None.
    """
    t = _as_1d(map_values)
    x = mu.atoms
    s = support_scale(mu, mg.target)
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
            for alpha in COMPETITOR_ALPHAS:
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
    columns = (pi.source.atoms[pi.rows], pi.target.atoms[pi.cols], pi.mass)
    return _csv("source_atom,target_atom,mass", zip(*(c.tolist() for c in columns)))


def parse_coupling_csv(text: str, source: DiscreteMeasure, target: DiscreteMeasure) -> Coupling:
    linenos, (a, b, mass) = _csv_rows(text, "source_atom,target_atom,mass")
    rows = nearest_atom(source.atoms, a)
    cols = nearest_atom(target.atoms, b)
    tol = 1e-9 * support_scale(source, target)
    missing = (np.abs(source.atoms[rows] - a) > tol) | (np.abs(target.atoms[cols] - b) > tol)
    if missing.any():
        lineno = linenos[int(missing.argmax())]
        raise ValueError(f"line {lineno}: atom not found in the marginals")
    return Coupling(source, target, rows, cols, mass)
