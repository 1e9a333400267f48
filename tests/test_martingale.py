import time
from types import SimpleNamespace

import numpy as np
import pytest

from wmrline import (
    CostSpec,
    Coupling,
    CouplingError,
    DiscreteMeasure,
    DomainError,
    MartingaleCoupling,
    MonotoneMap,
    OrderError,
    StructureError,
    build_martingale_coupling,
    competitor_curve,
    compose_with_map,
    convex_order_leq,
    coupling_to_csv,
    decompose_martingale,
    find_two_point_improvement,
    mean,
    measures_close,
    optimality_certificate,
    pushforward,
    solve_weak_transport,
    support_scale,
    supports_overlap,
    weak_monotone_rearrangement,
)
from wmrline import martingale
from wmrline.martingale import COMPETITOR_ALPHAS, parse_coupling_csv
from wmrline.measures import nearest_atom

from conftest import (
    OFFSET_COUPLING_FAILURES,
    clustered_pair,
    dirac,
    dm,
    empirical_pair,
    four_family_pairs,
    mix_and_offset_pairs,
    mix_pair,
    nth_mix_pair,
    offset_pair,
    potential_gap_violations,
    random_measure,
    random_ordered_pair,
    spread_pair,
)


def identity_coupling(m: DiscreteMeasure) -> MartingaleCoupling:
    idx = np.arange(m.n)
    return MartingaleCoupling(m, m, idx, idx, m.weights.copy())


def product_coupling(a: DiscreteMeasure, b: DiscreteMeasure) -> Coupling:
    rows = np.repeat(np.arange(a.n), b.n)
    cols = np.tile(np.arange(b.n), a.n)
    return Coupling(a, b, rows, cols, np.outer(a.weights, b.weights).ravel())


class TestCouplingTypes:
    def test_rejects_bad_marginals(self):
        with pytest.raises(CouplingError):
            Coupling(dm([-1, 1]), dm([-1, 1]), np.array([0, 1]), np.array([0, 1]), np.array([0.4, 0.6]))

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(CouplingError):
            Coupling(dm([-1, 1]), dm([-1, 1]), np.array([0, 1]), np.array([0, 1]), np.array([1.0, 0.0]))

    def test_rejects_broken_barycenter(self):
        with pytest.raises(CouplingError):
            MartingaleCoupling(
                dm([-2, 2]), dm([-1, 1]), np.array([0, 1]), np.array([0, 1]), np.array([0.5, 0.5])
            )


class TestCouplingConstruction:
    def test_matches_the_always_sorting_constructor(self):
        # product couplings with some entries split in two halves, so that
        # (row, col) pairs repeat and the sort's stability shows
        rng = np.random.default_rng(9105)
        for _ in range(200):
            n, m = (int(v) for v in rng.integers(1, 12, 2))
            a = DiscreteMeasure(np.sort(rng.uniform(-3.0, 3.0, n)), rng.dirichlet(np.ones(n)))
            b = DiscreteMeasure(np.sort(rng.uniform(-3.0, 3.0, m)), rng.dirichlet(np.ones(m)))
            rows, cols = np.repeat(np.arange(a.n), b.n), np.tile(np.arange(b.n), a.n)
            mass = np.outer(a.weights, b.weights).ravel()
            split = rng.random(rows.size) < 0.3
            rows, cols = np.concatenate((rows, rows[split])), np.concatenate((cols, cols[split]))
            mass = np.concatenate((np.where(split, 0.5 * mass, mass), 0.5 * mass[split]))
            for perm in (np.lexsort((cols, rows)), rng.permutation(rows.size)):
                r, c, w = rows[perm], cols[perm], mass[perm]
                order = np.lexsort((c, r))
                want = (r[order].tobytes(), c[order].tobytes(), w[order].tobytes())
                pi = Coupling(a, b, r, c, w)
                assert (pi.rows.tobytes(), pi.cols.tobytes(), pi.mass.tobytes()) == want
                r[:], c[:], w[:] = -1, -1, 9.0  # the caller's arrays stay theirs
                assert (pi.rows.tobytes(), pi.cols.tobytes(), pi.mass.tobytes()) == want
                assert r.flags.writeable and c.flags.writeable and w.flags.writeable


class TestGateMessages:
    """Each marginal and barycenter gate names its worst index, the margin
    and the tolerance."""

    def test_row_sums(self):
        with pytest.raises(CouplingError, match=r"source weights at atom 2: off by 1\.000e-01 \(tol 1\.000e-10\)"):
            Coupling(
                dm([-1, 0, 1], [0.2, 0.3, 0.5]),
                dm([-1, 0, 1]),
                np.arange(3),
                np.arange(3),
                np.array([0.2, 0.3, 0.6]),
            )

    def test_column_sums(self):
        with pytest.raises(CouplingError, match=r"target weights at atom 1: off by 2\.500e-01 \(tol 1\.000e-10\)"):
            Coupling(
                dm([-1, 1]),
                dm([-1, 0, 1], [0.25, 0.5, 0.25]),
                np.array([0, 0, 1]),
                np.array([0, 1, 2]),
                np.array([0.25, 0.25, 0.5]),
            )

    def test_barycenter(self):
        with pytest.raises(CouplingError, match=r"source atom 1: off by 1\.000e\+00 \(tol 3\.000e-09\)"):
            MartingaleCoupling(dm([-1, 2]), dm([-1, 1]), np.arange(2), np.arange(2), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("rows,cols", [([0, 2], [0, 1]), ([0, 1], [-1, 1])])
    def test_indices_out_of_range(self, rows, cols):
        with pytest.raises(CouplingError, match="must index atoms"):
            Coupling(dm([-1, 1]), dm([-1, 1]), np.array(rows), np.array(cols), np.array([0.5, 0.5]))


class TestBuildMartingaleCoupling:
    def test_forced_product(self):
        mg = build_martingale_coupling(dirac(0.0), dm([-1, 1]))
        assert mg.mass.size == 2 and np.allclose(mg.mass, 0.5)

    def test_identity_for_equal_measures(self):
        nu = dm([-1, 0.5, 2], [0.3, 0.4, 0.3])
        mg = build_martingale_coupling(nu, nu)
        assert np.array_equal(mg.rows, mg.cols)
        assert np.allclose(mg.mass, nu.weights)

    def test_hand_checked_three_atoms(self):
        mg = build_martingale_coupling(dm([-1, 1]), dm([-2, 0, 2], [0.25, 0.5, 0.25]))
        entries = {(int(r), int(c)): float(m) for r, c, m in zip(mg.rows, mg.cols, mg.mass)}
        assert entries == {(0, 0): 0.25, (0, 1): 0.25, (1, 1): 0.25, (1, 2): 0.25}

    def test_requires_convex_order(self):
        with pytest.raises(OrderError):
            build_martingale_coupling(dm([-2, 2]), dm([-1, 1]))

    def test_invariants_on_random_pairs(self, rng):
        for _ in range(40):
            eta, nu = random_ordered_pair(rng, max_atoms=9)
            mg = build_martingale_coupling(eta, nu)
            s = support_scale(eta, nu)
            rs = np.zeros(eta.n)
            cs = np.zeros(nu.n)
            np.add.at(rs, mg.rows, mg.mass)
            np.add.at(cs, mg.cols, mg.mass)
            assert np.abs(rs - eta.weights).max() <= 1e-10
            assert np.abs(cs - nu.weights).max() <= 1e-10
            assert np.abs(mg.row_barycenters() - eta.atoms).max() <= 1e-9 * s

    def test_deterministic(self, rng):
        eta, nu = random_ordered_pair(rng, max_atoms=8)
        a = build_martingale_coupling(eta, nu)
        b = build_martingale_coupling(eta, nu)
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.mass, b.mass)


def left_curtain_loop(eta, nu):
    """Reference for build_martingale_coupling, O(n*m): each row rebuilds the
    remaining mass C and the quantile integral G recentred on x over all of
    nu, finds the window [a, a + w] where D(a) = G(a + w) - G(a) crosses 0 by
    one interpolation, and takes it. Returns (rows, cols, mass) with the same
    sliver rule."""
    s = support_scale(eta, nu)
    y = nu.atoms
    left = nu.weights.copy()
    rows, cols, mass = [], [], []
    for i, (x, w) in enumerate(zip(eta.atoms.tolist(), eta.weights.tolist())):
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
    return tuple(np.concatenate(part) for part in (rows, cols, mass))


def reference_pairs():
    """(label, eta, nu): 60 solved mix pushforwards (n = 5..1000), 60 spread
    pairs (n = 5..400), and the 150 clustered and 150 1e6-offset draws of
    TestDecomposeStress, solved."""
    for k in range(60):
        rng = np.random.default_rng(7000 + k)
        n = (5, 20, 100, 300)[k % 4] if k < 58 else 1000
        mu, nu = mix_pair(rng, n, n)
        yield f"mix {k}", solve_weak_transport(mu, nu).pushforward, nu
        yield f"spread {k}", *spread_pair(rng, min(n, 400))
    for k in range(150):
        for label, draw in (("clustered", clustered_pair), ("offset", offset_pair)):
            mu, nu = draw(np.random.default_rng(k))
            yield f"{label} {k}", solve_weak_transport(mu, nu).pushforward, nu


def as_entries(rows, cols, mass):
    out = {}
    for r, c, v in zip(rows.tolist(), cols.tolist(), mass.tolist()):
        out[(r, c)] = out.get((r, c), 0.0) + v
    return out


def gate_outcome(make):
    try:
        return make()
    except CouplingError:
        return None


class TestAgainstLoop:
    def test_same_entries_and_gate_outcome(self):
        raised = []
        for label, eta, nu in reference_pairs():
            want = left_curtain_loop(eta, nu)
            ref = gate_outcome(lambda: MartingaleCoupling(eta, nu, *want))
            got = gate_outcome(lambda: build_martingale_coupling(eta, nu))
            assert (ref is None) == (got is None), label
            if got is None:
                raised.append(label)
                continue
            a, b = as_entries(got.rows, got.cols, got.mass), as_entries(*want)
            assert max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in a.keys() | b.keys()) <= 1e-12, label
        # the offset draws that miss the barycenter gate (see OFFSET_COUPLING_FAILURES)
        assert raised == [f"offset {k}" for k in sorted(OFFSET_COUPLING_FAILURES)]

    def test_bincount_sums_are_bit_identical_to_add_at(self, rng):
        """The gates' row and column sums and row_barycenters, now bincounts,
        equal the np.add.at accumulation they replaced bit for bit."""
        for k in range(240):
            n = (6, 15, 60)[k % 3]
            mu, nu = mix_pair(rng, n, n)
            sol = solve_weak_transport(mu, nu)
            mg = build_martingale_coupling(sol.pushforward, nu)
            for pi in (mg, compose_with_map(mu, sol.map, mg)):
                for idx, size in ((pi.rows, pi.source.n), (pi.cols, pi.target.n)):
                    want = np.zeros(size)
                    np.add.at(want, idx, pi.mass)
                    assert np.array_equal(np.bincount(idx, weights=pi.mass, minlength=size), want)
                num, den = np.zeros(pi.source.n), np.zeros(pi.source.n)
                np.add.at(num, pi.rows, pi.mass * pi.target.atoms[pi.cols])
                np.add.at(den, pi.rows, pi.mass)
                assert np.array_equal(pi.row_barycenters(), num / den)


def compose_per_atom(mu, map_, mg):
    """Reference for compose_with_map: one scan of mg's rows per atom of mu."""
    images = map_(mu.atoms)
    pos = [int(np.argmin(np.abs(mg.source.atoms - t))) for t in images]
    rows, cols, mass = [], [], []
    for i, r in enumerate(pos):
        sel = mg.rows == r
        rows.append(np.full(int(sel.sum()), i))
        cols.append(mg.cols[sel])
        mass.append(mg.mass[sel] * (mu.weights[i] / mg.source.weights[r]))
    return Coupling(mu, mg.target, *(np.concatenate(part) for part in (rows, cols, mass)))


class TestComposeWithMap:
    def test_halving_composition(self):
        mu = dm([-2, 2])
        halve = MonotoneMap(mu.atoms, mu.atoms / 2)
        pi = compose_with_map(mu, halve, identity_coupling(dm([-1, 1])))
        entries = {(int(r), int(c)): float(m) for r, c, m in zip(pi.rows, pi.cols, pi.mass)}
        assert entries == {(0, 0): 0.5, (1, 1): 0.5}

    def test_collapse_composition(self):
        mu = dirac(0.0)
        pi = compose_with_map(mu, MonotoneMap(mu.atoms, np.zeros(1)), product_coupling(dirac(0.0), dm([-1, 1])))
        assert np.allclose(pi.mass, [0.5, 0.5])

    def test_identity_composition(self, rng):
        mu = random_measure(rng, max_atoms=6)
        pi = compose_with_map(mu, MonotoneMap.identity(mu.atoms), identity_coupling(mu))
        assert np.array_equal(pi.rows, pi.cols)
        assert np.allclose(pi.mass, mu.weights)

    def test_source_mismatch_rejected(self):
        from wmrline import CompositionError

        mu = dm([-2, 2])
        want = (
            r"^mg\.source does not match the pushforward of mu under the map at mu's atom 0: "
            r"off by 1\.000e\+00 \(tol 4\.000e-09\)$"
        )
        with pytest.raises(CompositionError, match=want):
            compose_with_map(mu, MonotoneMap.identity(mu.atoms), identity_coupling(dm([-1, 1])))

    def test_weight_mismatch_names_the_worst_atom(self):
        from wmrline import CompositionError

        mu = dm([-1, 0, 1], [0.2, 0.5, 0.3])
        want = r"^pushforward weights do not match mg\.source at atom 1: off by 1\.667e-01 \(tol 1\.000e-09\)$"
        with pytest.raises(CompositionError, match=want):
            compose_with_map(mu, MonotoneMap.identity(mu.atoms), identity_coupling(dm([-1, 0, 1])))

    def test_marginals_exact(self, rng):
        for _ in range(25):
            mu = random_measure(rng, max_atoms=8)
            nu = random_measure(rng, max_atoms=8)
            sol = weak_monotone_rearrangement(mu, nu)
            mg = build_martingale_coupling(sol.pushforward, nu)
            pi = compose_with_map(mu, sol.map, mg)
            rs = np.zeros(mu.n)
            cs = np.zeros(nu.n)
            np.add.at(rs, pi.rows, pi.mass)
            np.add.at(cs, pi.cols, pi.mass)
            assert np.abs(rs - mu.weights).max() <= 1e-12
            assert np.abs(cs - nu.weights).max() <= 1e-12
            # composed cost equals the solver value
            s = support_scale(mu, nu)
            assert abs(pi.cost(sol.cost) - sol.value) <= 1e-9 * max(1.0, s) ** 2

    def test_matches_per_atom_loop(self, rng):
        for k in range(30):
            n = (5, 12, 40)[k % 3]
            mu, nu = mix_pair(rng, n, n)
            sol = solve_weak_transport(mu, nu)
            mg = build_martingale_coupling(sol.pushforward, nu)
            got, want = compose_with_map(mu, sol.map, mg), compose_per_atom(mu, sol.map, mg)
            for field in ("rows", "cols", "mass"):
                assert np.array_equal(getattr(got, field), getattr(want, field))


class TestDecomposeMartingale:
    def test_identity_all_fixed(self):
        nu = dm([-1, 0.5, 2], [0.3, 0.4, 0.3])
        dec = decompose_martingale(identity_coupling(nu))
        assert dec.components == () and dec.fixed.size == 3

    def test_product_single_component(self):
        mg = build_martingale_coupling(dirac(0.0), dm([-1, 1]))
        dec = decompose_martingale(mg)
        assert len(dec.components) == 1 and dec.fixed.size == 0
        iv, idx = dec.components[0]
        assert (iv.lo, iv.hi) == (-1.0, 1.0) and idx.size == 2

    def test_two_components_half_mass_each(self):
        mg = build_martingale_coupling(dm([-2, 2]), dm([-3, -1, 1, 3]))
        dec = decompose_martingale(mg)
        assert len(dec.components) == 2 and dec.fixed.size == 0
        masses = [float(mg.mass[idx].sum()) for _, idx in dec.components]
        assert masses == pytest.approx([0.5, 0.5])

    def test_reconstruction_exact(self, rng):
        for _ in range(30):
            eta, nu = random_ordered_pair(rng, max_atoms=9)
            mg = build_martingale_coupling(eta, nu)
            dec = decompose_martingale(mg)
            pieces = [idx for _, idx in dec.components] + [dec.fixed]
            got = np.sort(np.concatenate(pieces))
            assert np.array_equal(got, np.arange(mg.mass.size))

    def test_structure_error_on_moving_fixed_mass(self):
        # the antitone swap has exact marginals but moves fixed-set mass
        nu = dm([-1, 1])
        bad = Coupling(nu, nu, np.array([0, 1]), np.array([1, 0]), np.array([0.5, 0.5]))
        with pytest.raises(StructureError):
            decompose_martingale(bad)


def assert_reconstructs(mg, dec, tol=1e-9):
    """The decomposition partitions the entries; fixed entries are diagonal,
    and each component entry has its source and target in the closure of its
    interval."""
    margin = tol * support_scale(mg.source, mg.target)
    src, tgt = mg.source.atoms[mg.rows], mg.target.atoms[mg.cols]
    pieces = [dec.fixed, *(idx for _, idx in dec.components)]
    assert np.array_equal(np.sort(np.concatenate(pieces)), np.arange(mg.mass.size))
    assert np.all(np.abs(tgt[dec.fixed] - src[dec.fixed]) <= margin)
    for iv, idx in dec.components:
        ends = np.concatenate((src[idx], tgt[idx]))
        assert np.all((iv.lo - margin <= ends) & (ends <= iv.hi + margin))


class TestDecomposeStress:
    """Draw k = 0..149 of default_rng(k), through solve, coupling, compose,
    certificate and decompose. Before the components were read off the
    coupling, decompose_martingale raised StructureError on 60 of the
    clustered draws and on 82 of the offset draws."""

    def test_clustered_targets(self):
        for k in range(150):
            mu, nu = clustered_pair(np.random.default_rng(k))
            mg = run_pipeline(mu, nu)
            dec = decompose_martingale(mg)
            assert_reconstructs(mg, dec)
            ivs = [iv for iv, _ in dec.components]
            assert potential_gap_violations(ivs, mg.source, nu, floor=-1e-12) == [], k

    def test_wide_offsets(self):
        below_floor = []
        for k in range(150):
            try:
                mg = run_pipeline(*offset_pair(np.random.default_rng(k)))
            except CouplingError:
                assert k in OFFSET_COUPLING_FAILURES, k
                continue
            dec = decompose_martingale(mg)
            assert_reconstructs(mg, dec)
            ivs = [iv for iv, _ in dec.components]
            fails = potential_gap_violations(ivs, mg.source, mg.target, floor=-1e-12)
            assert all(f.startswith("u_b - u_a drops to") for f in fails), k
            below_floor += [k] if fails else []
        # the left-curtain coupling leaves rounding-level slivers that join
        # neighbouring components at a shared target atom, where u_b - u_a is
        # 0 up to a fraction of the atoms' ulp (5.8e-11..1.2e-10 here), which
        # exceeds 1e-12 * scale: 25 of these pairs dip below the floor
        assert len(below_floor) <= 25


# (seed, index, n): the index-th mix_pair draw of default_rng(seed) at n = m
PIPELINE_PAIRS = [
    # a map off the exact rearrangement made the coupling miss its row sums
    # on (4, 13) and move fixed mass on (2, 6)
    (4, 13, 20),
    (2, 6, 20),
    # the simplex vertex carried rounding-level masses that moved fixed mass
    (5, 35, 10),
    (5, 138, 14),
    (2, 75, 10),
    (2, 153, 14),
    (3, 75, 14),
    (3, 228, 14),
    (4, 115, 10),
]


def run_pipeline(mu, nu):
    cost = CostSpec.quadratic()
    sol = solve_weak_transport(mu, nu, cost)
    mg = build_martingale_coupling(sol.pushforward, nu)
    pi = compose_with_map(mu, sol.map, mg)
    assert optimality_certificate(pi, mu, nu, cost).ok
    return mg


class TestPipelineRegressions:
    @pytest.mark.parametrize(
        "seed,index,n", PIPELINE_PAIRS, ids=[f"{seed}-{index}" for seed, index, _ in PIPELINE_PAIRS]
    )
    def test_solve_couple_compose_certify_decompose(self, seed, index, n):
        mg = run_pipeline(*nth_mix_pair(seed, index, (n,)))
        dec = decompose_martingale(mg)
        assigned = np.concatenate([dec.fixed, *(idx for _, idx in dec.components)])
        assert np.array_equal(np.sort(assigned), np.arange(mg.mass.size))

    @pytest.mark.parametrize(
        "kind,seed,n",
        [("empirical", 0, 100_000), ("empirical", 1, 100_000), ("empirical", 0, 50_000),
         ("mix", 4, 100_000), ("mix", 6, 100_000), ("mix", 10, 100_000)],
    )
    def test_north_star_sizes(self, kind, seed, n):
        """Levels from a plain cumsum of the weights drifted up to 1.9e-12
        from the weights at 10^5, so mean(T(mu)) missed mean(nu) by up to
        2.7e-12 and the coupling missed its barycenter gate on these pairs."""
        mu, nu = empirical_pair(seed, n) if kind == "empirical" else nth_mix_pair(seed, 1, (n,))
        mg = run_pipeline(mu, nu)
        dec = decompose_martingale(mg)
        assigned = np.concatenate([dec.fixed, *(idx for _, idx in dec.components)])
        assert np.array_equal(np.sort(assigned), np.arange(mg.mass.size))

    def test_ten_thousand_atoms(self):
        """An O(n*m) coupling took about 9 s here, one O(m) window search per
        row; the whole pipeline now has 5 s."""
        mu, nu = nth_mix_pair(1, 1, (10_000,))
        start = time.perf_counter()
        mg = run_pipeline(mu, nu)
        assert left_monotone_crossings(mg) == 0
        assert time.perf_counter() - start < 5.0

    def test_thousand_atoms(self):
        mu, nu = nth_mix_pair(0, 1, (1000,))
        start = time.perf_counter()
        mg = run_pipeline(mu, nu)
        dec = decompose_martingale(mg)
        assert time.perf_counter() - start < 10.0
        assert left_monotone_crossings(mg) == 0
        assert_reconstructs(mg, dec)
        ivs = [iv for iv, _ in dec.components]
        assert potential_gap_violations(ivs, mg.source, nu, floor=-1e-12) == []


# light weights (all but one atom per measure near 1e-7) at offset 1e3: a
# pair of three and two atoms whose coupling misses its barycenter gate
LIGHT_AT_1E3 = (
    dm([999.7181536372647, 999.9070407747803, 1000.8872612816899],
       [0.9999995299795646, 1.1207957388125125e-07, 3.579408615462808e-07]),
    dm([999.2381331219776, 999.3488133787755], [3.3221681630443845e-07, 0.9999996677831837]),
)


class TestLightWeightsAtAnOffset:
    """The solve rounds t at the offset, so T(mu) <=_c nu holds only to a mean
    gap of 1.2e-14. The sweep puts that gap on the last row, which weighs
    4.7e-7, and moves its barycenter by 2.6e-8, above BARYCENTER_TOL * scale.
    Valid input, so a mend turns the pinned failure into an XPASS."""

    @pytest.mark.xfail(strict=True, raises=CouplingError, reason="the build misses its barycenter gate")
    def test_pipeline_at_offset_1e3(self):
        run_pipeline(*LIGHT_AT_1E3)

    def test_pipeline_on_the_pair_shifted_to_0(self):
        mu, nu = (m.shift(-1e3) for m in LIGHT_AT_1E3)
        run_pipeline(mu, nu)


def left_monotone_crossings(mg):
    """Entries of a row i' with a column strictly between the smallest and
    the largest column of some earlier row i < i', in O(entries log m).

    Entries are sorted by row, then column. Rows are added in order to a
    Fenwick tree over columns that keeps, at each row's first column, the
    largest last column; an entry (i', c) crosses iff the rows before i'
    whose first column is below c reach past c."""
    m = mg.target.n
    reach = [-1] * (m + 1)  # 1-based: a row with first column lo sits at lo + 1
    cols = mg.cols.tolist()
    bounds = np.append(np.flatnonzero(np.diff(mg.rows, prepend=-1)), mg.rows.size).tolist()
    count = 0
    for start, stop in zip(bounds[:-1], bounds[1:]):
        for c in cols[start:stop]:
            k, far = c, -1
            while k > 0:
                far = max(far, reach[k])
                k -= k & -k
            count += far > c
        k, hi = cols[start] + 1, cols[stop - 1]
        while k <= m:
            reach[k] = max(reach[k], hi)
            k += k & -k
    return count


def left_monotone_crossings_dense(mg):
    """Reference for left_monotone_crossings on an entries x n mask."""
    n = mg.source.n
    lo = np.full(n, mg.target.n)
    hi = np.full(n, -1)
    np.minimum.at(lo, mg.rows, mg.cols)
    np.maximum.at(hi, mg.rows, mg.cols)
    earlier = np.arange(n)[None, :] < mg.rows[:, None]
    inside = (lo[None, :] < mg.cols[:, None]) & (mg.cols[:, None] < hi[None, :])
    return int((earlier & inside).any(axis=1).sum())


class TestLeftCurtain:
    """Beiglboeck-Juillet: the left-curtain coupling is the only martingale
    coupling in which no later source reaches strictly inside the support of
    an earlier one."""

    def test_crossing_count_matches_the_dense_mask(self, rng):
        for k in range(300):
            n, m = (int(v) for v in rng.integers(1, 12, 2))
            cells = rng.random((n, m)) < rng.uniform(0.1, 0.6)
            cells[np.arange(n), rng.integers(0, m, n)] = True  # every row has an entry
            rows, cols = np.nonzero(cells)
            mg = SimpleNamespace(rows=rows, cols=cols, source=SimpleNamespace(n=n), target=SimpleNamespace(n=m))
            assert left_monotone_crossings(mg) == left_monotone_crossings_dense(mg), k

    def test_left_monotone_on_ordered_pairs(self, rng):
        for _ in range(300):
            mg = build_martingale_coupling(*random_ordered_pair(rng))
            assert left_monotone_crossings(mg) == 0

    def test_left_monotone_on_solved_pushforwards(self, rng):
        for k in range(300):
            n = (10, 12, 14)[k % 3]
            mu, nu = mix_pair(rng, n, n)
            mg = build_martingale_coupling(solve_weak_transport(mu, nu).pushforward, nu)
            assert left_monotone_crossings(mg) == 0


def barycenter_map(pi: Coupling) -> np.ndarray:
    """Knot list (source atom, conditional mean) per source atom."""
    return np.column_stack([pi.source.atoms, pi.row_barycenters()])


class TestBarycenterMap:
    def test_identity(self):
        nu = dm([-1, 1])
        knots = barycenter_map(identity_coupling(nu))
        assert np.allclose(knots[:, 0], knots[:, 1])

    def test_product(self):
        knots = barycenter_map(product_coupling(dirac(0.0), dm([-1, 1])))
        assert knots.shape == (1, 2) and knots[0, 1] == pytest.approx(0.0)

    def test_single_target_rows(self):
        pi = Coupling(dm([-2, 2]), dm([-1, 1]), np.array([0, 1]), np.array([0, 1]), np.array([0.5, 0.5]))
        assert np.allclose(barycenter_map(pi), [[-2, -1], [2, 1]])


def regroup_dict(rows, cols, mass):
    """One entry per distinct (row, col), in lexicographic order, holding the
    running sum of that pair's masses."""
    agg = {}
    for r, c, v in zip(rows, cols, mass):
        agg[(int(r), int(c))] = agg.get((int(r), int(c)), 0.0) + float(v)
    keys = np.array(sorted(agg))
    return keys[:, 0], keys[:, 1], np.array([agg[tuple(k)] for k in keys.tolist()])


def north_west_corner(a: DiscreteMeasure, b: DiscreteMeasure, order) -> Coupling:
    """The north-west-corner coupling of a and b, with b's atoms taken in the
    given order: the comonotone coupling of their levels in that order."""
    ca, cb = a.cumulative(), np.minimum(np.cumsum(b.weights[order]), 1.0)
    cb[-1] = 1.0
    levels = np.union1d(ca, cb)
    width = np.diff(levels, prepend=0.0)
    i = np.minimum(ca.searchsorted(levels), a.n - 1)
    j = np.asarray(order)[np.minimum(cb.searchsorted(levels), b.n - 1)]
    keep = width > 0.0
    return Coupling(a, b, i[keep], j[keep], width[keep])


def certificate_couplings(rng, count):
    """(mu, nu, pi) for the product coupling, the composed optimum (where the
    build passes its gate) and a north-west-corner coupling on shuffled
    columns of count four_family_pairs."""
    for mu, nu in four_family_pairs(rng, count):
        yield mu, nu, product_coupling(mu, nu)
        sol = solve_weak_transport(mu, nu)
        try:
            yield mu, nu, compose_with_map(mu, sol.map, build_martingale_coupling(sol.pushforward, nu))
        except CouplingError:
            pass  # the barycenter gate misses on a few 1e6 offsets (see CHANGES.md)
        yield mu, nu, north_west_corner(mu, nu, rng.permutation(nu.n))


class TestOptimalityCertificate:
    def test_second_stage_is_a_martingale_by_the_tower_property(self):
        """(bary(X), Y) is a martingale coupling for every coupling, since
        E[Y | bary(X)] = bary(X), so the certificate does not test it."""
        failed = 0
        for mu, nu, pi in certificate_couplings(np.random.default_rng(1), 200):
            bary = pi.row_barycenters()
            push = DiscreteMeasure(bary, mu.weights)
            pos = nearest_atom(push.atoms, bary[pi.rows])
            MartingaleCoupling(push, nu, *regroup_dict(pos, pi.cols, pi.mass))
            failed += not optimality_certificate(pi, mu, nu).ok
        assert failed >= 250  # most of these couplings are not optimal

    def test_verdict_is_the_barycenter_map_test(self):
        tol = 1e-7
        for mu, nu, pi in certificate_couplings(np.random.default_rng(2), 200):
            rep = optimality_certificate(pi, mu, nu, None, tol)
            assert rep.ok == (rep.max_map_gap <= tol * support_scale(mu, nu))
            assert len(rep.violations) == (not rep.ok)

    def test_builds_no_measure_or_coupling(self, monkeypatch):
        mu, nu = mix_pair(np.random.default_rng(3), 12, 12)
        sol = solve_weak_transport(mu, nu)
        optimum = compose_with_map(mu, sol.map, build_martingale_coupling(sol.pushforward, nu))
        product = product_coupling(mu, nu)

        def refuse(*args, **kwargs):
            raise AssertionError("the certificate built a measure or a coupling")

        monkeypatch.setattr(martingale, "MartingaleCoupling", refuse)
        monkeypatch.setattr(martingale, "DiscreteMeasure", refuse)
        assert optimality_certificate(optimum, mu, nu).ok
        assert not optimality_certificate(product, mu, nu).ok

    def test_composed_optimum_passes(self, rng):
        for _ in range(10):
            mu = random_measure(rng, max_atoms=7)
            nu = random_measure(rng, max_atoms=7)
            sol = weak_monotone_rearrangement(mu, nu)
            mg = build_martingale_coupling(sol.pushforward, nu)
            pi = compose_with_map(mu, sol.map, mg)
            assert optimality_certificate(pi, mu, nu).ok

    def test_same_report_on_copies_of_the_marginals(self):
        # compose_with_map builds pi on the very mu and nu it is given, so
        # the marginal checks compare each with itself; on copies they
        # compare the arrays, and the report must not differ
        rng = np.random.default_rng(9106)
        for mu, nu in (mix_pair(rng, 12, 9) for _ in range(20)):
            sol = solve_weak_transport(mu, nu)
            pi = compose_with_map(mu, sol.map, build_martingale_coupling(sol.pushforward, nu))
            assert pi.source is mu and pi.target is nu
            for got in (pi, product_coupling(mu, nu)):
                a, b = DiscreteMeasure(mu.atoms, mu.weights), DiscreteMeasure(nu.atoms, nu.weights)
                twin = Coupling(a, b, got.rows, got.cols, got.mass)
                assert optimality_certificate(got, mu, nu) == optimality_certificate(twin, mu, nu)

    def test_quantile_coupling_passes_here(self):
        pi = Coupling(dm([-2, 2]), dm([-1, 1]), np.array([0, 1]), np.array([0, 1]), np.array([0.5, 0.5]))
        assert optimality_certificate(pi, dm([-2, 2]), dm([-1, 1])).ok

    def test_antitone_coupling_fails(self):
        pi = Coupling(dm([-2, 2]), dm([-1, 1]), np.array([0, 1]), np.array([1, 0]), np.array([0.5, 0.5]))
        rep = optimality_certificate(pi, dm([-2, 2]), dm([-1, 1]))
        assert not rep.ok

    def test_gap_is_the_gap_to_the_full_solve(self):
        # the certificate reads the map from the rearrangement kernel; its
        # gap must be the one against the full solve's map, on passing and
        # failing couplings
        rng = np.random.default_rng(9102)
        failed = 0
        for mu, nu in four_family_pairs(rng, 320):
            sol = weak_monotone_rearrangement(mu, nu)
            want = sol.map(mu.atoms)
            couplings = [product_coupling(mu, nu)]
            try:
                couplings.append(compose_with_map(mu, sol.map, build_martingale_coupling(sol.pushforward, nu)))
            except CouplingError:
                pass  # the barycenter gate misses on a few 1e6 offsets (see CHANGES.md)
            for pi in couplings:
                rep = optimality_certificate(pi, mu, nu)
                assert rep.max_map_gap == float(np.abs(pi.row_barycenters() - want).max())
                failed += not rep.ok
        assert failed >= 250

    def test_marginal_mismatch_raises(self):
        pi = identity_coupling(dm([-1, 1]))
        want = (
            r"^coupling marginals do not match \(mu, nu\): "
            r"source: position of atom 0 off by 1\.000e\+00 \(tol 4\.000e-09\)$"
        )
        with pytest.raises(CouplingError, match=want):
            optimality_certificate(pi, dm([-2, 2]), dm([-1, 1]))
        want = r"^coupling marginals do not match \(mu, nu\): target: 2 atoms against 3$"
        with pytest.raises(CouplingError, match=want):
            optimality_certificate(pi, dm([-1, 1]), dm([-1, 0, 1]))


class TestSupportsOverlap:
    def test_interleaved(self):
        assert supports_overlap(dm([0, 2]), dm([1, 3]))

    def test_degenerate_hulls(self):
        assert not supports_overlap(dirac(0.0), dirac(1.0))

    def test_disjoint_hulls(self):
        assert not supports_overlap(dm([0, 1]), dm([2, 3]))

    def test_point_inside_open_hull(self):
        assert supports_overlap(dm([0, 2]), dirac(1.0))

    def test_touching_endpoints_only(self):
        assert not supports_overlap(dm([0, 1]), dm([1, 2]))


class TestCompetitorCurve:
    def test_alpha_one_returns_inputs(self, rng):
        p = random_measure(rng, max_atoms=5)
        q = random_measure(rng, max_atoms=5)
        pa, qa = competitor_curve(p, q, 1.0)
        assert measures_close(pa, p) and measures_close(qa, q)

    def test_sum_preserved(self, rng):
        for _ in range(20):
            p = random_measure(rng, max_atoms=6)
            q = random_measure(rng, max_atoms=6)
            alpha = float(rng.uniform(0, 1))
            pa, qa = competitor_curve(p, q, alpha)
            lhs = dm(
                np.concatenate([pa.atoms, qa.atoms]),
                np.concatenate([pa.weights, qa.weights]) / 2,
            )
            rhs = dm(np.concatenate([p.atoms, q.atoms]), np.concatenate([p.weights, q.weights]) / 2)
            assert measures_close(lhs, rhs, 1e-9)

    def test_monotone_means_under_overlap(self):
        p, q = dm([0, 2]), dm([1, 3])
        alphas = np.linspace(0.75, 1.0, 11)
        mp = [mean(competitor_curve(p, q, a)[0]) for a in alphas]
        mq = [mean(competitor_curve(p, q, a)[1]) for a in alphas]
        assert np.all(np.diff(mp) > 0)  # mean of the p-side grows with alpha
        assert np.all(np.diff(mq) < 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            competitor_curve(dirac(0.0), dirac(1.0), 1.5)

    def test_matches_the_slicer_bit_for_bit(self, rng):
        """Inside (0, 1), at COMPETITOR_ALPHAS and at uniform draws, the
        curve equals the slicer it replaced on 300 pairs, half of them at
        1e6 offsets."""
        for k, (p, q) in enumerate(mix_and_offset_pairs(rng, 300)):
            for alpha in (*COMPETITOR_ALPHAS[::8], *rng.uniform(0.0, 1.0, 2)):
                got = competitor_curve(p, q, float(alpha))
                for new, old in zip(got, competitor_curve_slices(p, q, float(alpha))):
                    assert new == old, (k, alpha)

    def test_ends_take_no_more_than_each_weight(self, rng):
        """At alpha = 0 and 1 the slice level is p's or q's full mass, where
        the slicer's boundary weight can exceed its atom's weight by rounding
        and the curve does not: the atoms agree, the weights within 1e-15."""
        for p, q in mix_and_offset_pairs(rng, 300):
            for alpha in (0.0, 1.0):
                for new, old in zip(competitor_curve(p, q, alpha), competitor_curve_slices(p, q, alpha)):
                    assert np.array_equal(new.atoms, old.atoms)
                    assert np.abs(new.weights - old.weights).max() <= 1e-15


def competitor_curve_slices(p, q, alpha):
    """competitor_curve as built before lowest_mass, from a lower slice per
    measure and an upper closure, kept as its reference."""

    def lower_slice(m, level):
        if level <= 0.0:
            return np.empty(0), np.empty(0)
        cum = m.cumulative()
        k = min(int(np.searchsorted(cum, level, side="left")), m.n - 1)
        below = cum[k - 1] if k > 0 else 0.0
        atoms, weights = list(m.atoms[:k]), list(m.weights[:k])
        if level - below > 0.0:
            atoms.append(float(m.atoms[k]))
            weights.append(level - below)
        return np.array(atoms), np.array(weights)

    def upper(m, lo_atoms, lo_weights):
        w = m.weights.copy()
        for a, lw in zip(lo_atoms, lo_weights):
            w[int(np.searchsorted(m.atoms, a))] -= lw
        keep = w > 1e-15
        return m.atoms[keep], w[keep]

    pa, pw = lower_slice(p, alpha)
    qa, qw = lower_slice(q, 1.0 - alpha)
    pu, puw = upper(p, pa, pw)
    qu, quw = upper(q, qa, qw)
    return (
        DiscreteMeasure(np.concatenate([pa, qa]), np.concatenate([pw, qw])),
        DiscreteMeasure(np.concatenate([pu, qu]), np.concatenate([puw, quw])),
    )


class TestTwoPointProbe:
    def test_collapse_map_falsified(self):
        mu, nu = dm([-2, 2]), dm([-1, 1])
        t = np.zeros(2)
        mg = build_martingale_coupling(pushforward(mu, t), nu)
        imp = find_two_point_improvement(mu, t, mg, CostSpec.quadratic())
        assert imp is not None and imp.improvement > 0

    def test_optimal_map_not_falsified(self):
        mu, nu = dm([-2, 2]), dm([-1, 1])
        sol = weak_monotone_rearrangement(mu, nu)
        mg = build_martingale_coupling(sol.pushforward, nu)
        imp = find_two_point_improvement(mu, sol.map(mu.atoms), mg, CostSpec.quadratic())
        assert imp is None

    def test_contracted_rearrangements_falsified(self, rng):
        found = 0
        trials = 20
        for _ in range(trials):
            a = float(rng.uniform(2.0, 4.0))
            nu = dm([-a, a])
            k = int(rng.integers(2, 5))
            atoms = np.sort(rng.uniform(-a / 2, a / 2, k))
            w = rng.dirichlet(np.ones(k))
            mu = dm(atoms - float(np.dot(w, atoms)), w)
            sol = weak_monotone_rearrangement(mu, nu)
            t = sol.map(mu.atoms)
            center = float(np.dot(mu.weights, t))
            t_bad = center + (1.0 - float(rng.uniform(0.1, 0.9))) * (t - center)
            push = pushforward(mu, t_bad)
            assert convex_order_leq(push, nu)
            mg = build_martingale_coupling(push, nu)
            imp = find_two_point_improvement(mu, t_bad, mg, CostSpec.quadratic())
            if imp is not None and imp.improvement > 0:
                found += 1
        assert found == trials


class TestCouplingCsv:
    def test_round_trip(self, rng):
        eta, nu = random_ordered_pair(rng, max_atoms=6)
        mg = build_martingale_coupling(eta, nu)
        text = coupling_to_csv(mg)
        back = parse_coupling_csv(text, eta, nu)
        assert np.array_equal(back.rows, mg.rows)
        assert np.array_equal(back.cols, mg.cols)
        assert np.allclose(back.mass, mg.mass)

    def test_messages_name_the_line(self):
        eta, nu = dm([0.0], [1.0]), dm([-1.0, 1.0])
        head = "source_atom,target_atom,mass\n"
        with pytest.raises(ValueError, match=r"^line 3: non-numeric entry in '0,1,x'$"):
            parse_coupling_csv(head + "0,-1,0.5\n0,1,x\n", eta, nu)
        with pytest.raises(ValueError, match=r"^line 1: expected 'source_atom,target_atom,mass'"):
            parse_coupling_csv("0,-1\n", eta, nu)
        with pytest.raises(ValueError, match=r"^line 4: atom not found in the marginals$"):
            parse_coupling_csv(head + "0,-1,0.5\n\n0,2,0.5\n", eta, nu)
        back = parse_coupling_csv(head + "0,-1,0.5\n0,1,0.5\n", eta, nu)
        assert back.cols.tolist() == [0, 1]
