import itertools
from fractions import Fraction

import numpy as np
import pytest

from wmrline import (
    DiscreteMeasure,
    DomainError,
    Interval,
    Intervals,
    MonotoneMap,
    OrderError,
    build_martingale_coupling,
    compose_with_map,
    convex_order_leq,
    decompose_martingale,
    eta_transfer,
    irreducible_components,
    mean,
    measures_close,
    optimality_certificate,
    potential,
    potential_at,
    quantile,
    quantize,
    read_measure_csv,
    solve_weak_transport,
    support_scale,
    verify_admissible,
    verify_slope1_characterization,
    wasserstein,
    weak_monotone_rearrangement,
    write_measure_csv,
)
from wmrline import measures
from wmrline.measures import (
    MERGE_TOL,
    ORDER_TOL,
    _merge_close,
    _level_slack,
    _order_check,
    _prefix_sum,
    level_blocks,
    lowest_mass,
    parse_measure_csv,
)

from conftest import (
    clustered_pair,
    dirac,
    dm,
    four_family_pairs,
    identity_map,
    mix_and_offset_pairs,
    mix_pair,
    offset_pair,
    potential_gap_violations,
    random_measure,
    random_ordered_pair,
    spread_pair,
)


class TestDiscreteMeasure:
    def test_sorts_and_merges_duplicates(self):
        m = dm([1.0, -1.0, 1.0], [0.25, 0.5, 0.25])
        assert np.allclose(m.atoms, [-1.0, 1.0])
        assert np.allclose(m.weights, [0.5, 0.5])

    def test_exact_duplicates_keep_their_position_at_wide_offsets(self):
        # at |X| >= 1e5 the ulp exceeds the merge tolerance, so only the exact
        # duplicates merge; their barycenter must stay X, between its
        # neighbours one ulp away
        rng = np.random.default_rng(77)
        for _ in range(2000):
            X = float(rng.uniform(1e5, 1e6)) * float(rng.choice([-1.0, 1.0]))
            u = abs(float(np.spacing(X)))
            m = DiscreteMeasure(np.array([X - u, X, X, X + u]), rng.dirichlet(np.ones(4)))
            assert np.array_equal(m.atoms, [X - u, X, X + u])

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError):
            dm([0.0, 1.0], [0.5, 0.6])

    def test_normalizes_small_rounding(self):
        m = dm([0.0, 1.0], [0.5, 0.5 + 3e-10])
        assert abs(m.weights.sum() - 1.0) < 1e-15

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            dm([0.0, 1.0], [1.1, -0.1])

    def test_matches_the_always_sorting_constructor(self):
        def always_sorted(atoms, weights):
            keep = weights > 0.0
            order = np.argsort(atoms[keep], kind="stable")
            atoms, weights = atoms[keep][order], weights[keep][order]
            tol = MERGE_TOL * max(1.0, float(atoms[-1] - atoms[0]))
            if atoms.size > 1 and np.any(np.diff(atoms) <= tol):
                atoms, weights = _merge_close(atoms, weights, np.diff(atoms), tol)
            return atoms, weights / float(weights.sum())

        rng = np.random.default_rng(9103)
        for k in range(300):
            n = int(rng.integers(1, 40))
            atoms = np.sort(rng.uniform(-3.0, 3.0, n)) + (1e6 if k % 3 == 0 else 0.0)
            if k % 2:  # ties, exact and within the merge tolerance
                atoms = np.sort(np.concatenate((atoms, atoms[: n // 2], atoms[: n // 3] + 1e-13)))
            weights = rng.dirichlet(np.ones(atoms.size))
            weights[rng.random(atoms.size) < 0.1] = 0.0
            if not weights.any():
                continue
            weights /= weights.sum()
            for perm in (np.arange(atoms.size), rng.permutation(atoms.size)):
                x, w = atoms[perm], weights[perm]
                want_atoms, want_weights = always_sorted(x, w)
                m = DiscreteMeasure(x, w)
                assert m.atoms.tobytes() == want_atoms.tobytes()
                assert m.weights.tobytes() == want_weights.tobytes()
                x[:], w[:] = 9.0, 0.5  # the caller's arrays stay theirs
                assert m.atoms.tobytes() == want_atoms.tobytes()
                assert m.weights.tobytes() == want_weights.tobytes()
                assert x.flags.writeable and w.flags.writeable

    def test_immutable(self):
        m = dm([0.0, 1.0])
        with pytest.raises(ValueError):
            m.atoms[0] = 5.0

    def test_equality_with_another_type_is_false(self):
        m = dm([0.0, 1.0])
        assert m.__eq__(0) is NotImplemented
        assert (m == 0) is False and m != 0


class TestMean:
    def test_dirac(self):
        assert mean(dirac(0.0)) == 0.0

    def test_symmetric(self):
        assert mean(dm([-1, 1])) == 0.0

    def test_weighted(self):
        # direct weighted sum: 0.25 * 0 + 0.75 * 4
        assert mean(dm([0, 4], [0.25, 0.75])) == 3.0


class TestQuantile:
    def test_boundary_level_hits_first_atom(self):
        assert quantile(dm([-1, 1]), 0.5) == -1.0

    def test_upper_level(self):
        assert quantile(dm([-1, 1]), 0.75) == 1.0

    def test_cumulative_breaks(self):
        # cumulative weights 0.25, 1.0
        assert quantile(dm([0, 4], [0.25, 0.75]), 0.25) == 0.0

    @pytest.mark.parametrize("level", [0.0, -0.5, 1.0 + 1e-9])
    def test_domain(self, level):
        with pytest.raises(DomainError):
            quantile(dm([0.0]), level)


class TestPotential:
    def test_dirac(self):
        assert potential(dirac(0.0))(2.0)[0] == 2.0

    def test_two_point(self):
        u = potential(dm([-1, 1]))
        assert u(0.0)[0] == 1.0
        assert u(2.0)[0] == 2.0

    def test_weighted(self):
        # 0.25*|0-1| + 0.75*|4-1|
        assert potential(dm([0, 4], [0.25, 0.75]))(1.0)[0] == 2.5

    def test_dominates_distance_to_mean(self, rng):
        for _ in range(40):
            m = random_measure(rng)
            ys = rng.uniform(m.atoms[0] - 3, m.atoms[-1] + 3, 25)
            u = potential_at(m, ys)
            assert np.all(u >= np.abs(ys - mean(m)) - 1e-12)
            outside = (ys < m.atoms[0]) | (ys > m.atoms[-1])
            assert np.allclose(u[outside], np.abs(ys - mean(m))[outside])


    def test_wide_offsets(self):
        # prefix sums formed far from 0 used to drop the potential below
        # |y - mean| by more than 1e-12 * scale
        rng = np.random.default_rng(0)
        for _ in range(300):
            m = random_measure(rng, max_atoms=14)
            for shift in (1e4, 1e5, 1e6):
                far = m.shift(shift)
                u = potential(far)
                assert np.allclose(u.values, potential_at(m, m.atoms), rtol=0.0, atol=1e-9)


class TestConvexOrder:
    def test_dirac_below_spread(self):
        assert convex_order_leq(dirac(0.0), dm([-1, 1]))

    def test_spread_not_below_dirac(self):
        assert not convex_order_leq(dm([-1, 1]), dirac(0.0))

    def test_wider_not_below_narrower(self):
        # equal means but u_a(1) = 2 > u_b(1) = 1
        assert not convex_order_leq(dm([-2, 2]), dm([-1, 1]))

    def test_reflexive(self, rng):
        for _ in range(20):
            m = random_measure(rng)
            assert convex_order_leq(m, m)

    def test_transitive(self, rng):
        from conftest import random_contraction_of

        for _ in range(30):
            c = random_measure(rng, max_atoms=8)
            b = random_contraction_of(rng, c)
            a = random_contraction_of(rng, b)
            assert convex_order_leq(a, c)

    def test_antisymmetric_up_to_equality(self, rng):
        for _ in range(30):
            a, b = random_ordered_pair(rng, max_atoms=6)
            if convex_order_leq(b, a):
                assert measures_close(a, b, 1e-6)

    def test_agrees_with_hinge_oracle(self, rng):
        # independent check: integrate phi(x) = |x - c| against both measures
        # over a fine grid of hinge locations
        for _ in range(40):
            a = random_measure(rng, max_atoms=6)
            b = random_measure(rng, max_atoms=6)
            if rng.uniform() < 0.5:
                a, b = random_ordered_pair(rng, max_atoms=6)
            s = support_scale(a, b)
            lo = min(a.atoms[0], b.atoms[0]) - 0.5 * s
            hi = max(a.atoms[-1], b.atoms[-1]) + 0.5 * s
            grid = np.linspace(lo, hi, 801)
            hinge_ok = bool(
                np.all(potential_at(a, grid) <= potential_at(b, grid) + 1e-9 * s)
                and abs(mean(a) - mean(b)) <= 1e-9 * s
            )
            assert convex_order_leq(a, b) == hinge_ok


def potential_scan_witness(a, b, tol=ORDER_TOL):
    """_order_check's witness from the potentials at b's atoms, where the
    local maxima of u_a - u_b sit: the mean check, then the first b atom of
    largest excess."""
    s = support_scale(a, b)
    if abs(mean(a) - mean(b)) > tol * s:
        return {"kind": "mean_mismatch", "mean_a": mean(a), "mean_b": mean(b)}
    gap = potential_at(a, b.atoms) - potential_at(b, b.atoms)
    j = int(gap.argmax())
    if gap[j] <= tol * s:
        return None
    return {"kind": "potential_violation", "index": j, "atom": float(b.atoms[j]), "excess": float(gap[j])}


class TestOrderWitness:
    def test_agrees_with_the_potential_scan(self):
        # four_family_pairs as drawn (mostly unequal means) and with nu
        # shifted to mu's mean (equal means, many violations), both orders
        rng = np.random.default_rng(15)
        violations = 0
        for k, (mu, nu) in enumerate(four_family_pairs(rng, 300)):
            shifted = nu.shift(mean(mu) - mean(nu))
            for a, b in ((mu, nu), (nu, mu), (mu, shifted), (shifted, mu)):
                got, want = _order_check(a, b)[0], potential_scan_witness(a, b)
                assert (got is None) == (want is None), k
                if got is None:
                    continue
                assert got["kind"] == want["kind"], k
                if got["kind"] == "potential_violation":
                    violations += 1
                    assert got["index"] == want["index"], k
                    assert got["atom"] == want["atom"], k
                    assert abs(got["excess"] - want["excess"]) <= 1e-10 * support_scale(a, b), k
        assert violations > 300

    def test_minimising_level_is_one_of_bs_levels(self):
        # the slack of a = {-1, 1} against b = {-1/2, 1/2} is smallest at the
        # level 1/2, where b's quantile jumps; u_a - u_b = 1/2 at both of b's
        # atoms, and the witness is the lower one, as the scan's first argmax
        a, b = dm([-1, 1]), dm([-0.5, 0.5])
        want = {"kind": "potential_violation", "index": 0, "atom": -0.5, "excess": 0.5}
        assert (potential_at(a, b.atoms) - potential_at(b, b.atoms)).tolist() == [0.5, 0.5]
        assert _order_check(a, b)[0] == want == potential_scan_witness(a, b)

    def test_order_tests_evaluate_no_potential(self, monkeypatch):
        mu, nu = spread_pair(np.random.default_rng(3), 40)
        sol = weak_monotone_rearrangement(nu, mu)

        def refuse(*args):
            raise AssertionError("an order test evaluated a potential")

        monkeypatch.setattr(measures, "potential_at", refuse)
        assert convex_order_leq(mu, nu) and not convex_order_leq(nu, mu)
        assert irreducible_components(mu, nu)
        with pytest.raises(OrderError):
            irreducible_components(nu, mu)
        assert verify_admissible(identity_map(mu), mu, nu).ok
        assert verify_admissible(sol.map, nu, mu).ok
        assert not verify_admissible(identity_map(nu), nu, mu).pushforward_ordered
        flipped = MonotoneMap(mu.atoms, mu.atoms[::-1])
        report = verify_admissible(flipped, mu, nu)
        assert not report.monotone
        assert report.pushforward_ordered == convex_order_leq(flipped.push(mu), nu, 1e-7)

    def test_one_level_pass_per_irreducible_call(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append(1)
            return level_blocks(a, b)

        monkeypatch.setattr(measures, "level_blocks", counted)
        mu, nu = spread_pair(np.random.default_rng(4), 40)
        irreducible_components(mu, nu)
        assert len(calls) == 1
        with pytest.raises(OrderError):
            irreducible_components(nu, mu)
        assert len(calls) == 2
        with pytest.raises(OrderError, match="mean"):
            irreducible_components(mu, nu.shift(0.5))
        assert not convex_order_leq(mu, nu.shift(0.5))
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "check",
        [
            lambda a, b: build_martingale_coupling(a, b),
            lambda a, b: verify_admissible(MonotoneMap.identity(a.atoms), a, b),
            lambda a, b: eta_transfer(a, b, b),
        ],
        ids=["build_martingale_coupling", "verify_admissible", "eta_transfer"],
    )
    def test_a_failed_order_is_reported_from_one_pass(self, monkeypatch, check):
        calls = []

        def counted(*args):
            calls.append(args)
            return _order_check(*args)

        monkeypatch.setattr(measures, "_order_check", counted)
        try:
            report = check(dm([-2, 2]), dm([-1, 1]))
        except OrderError:
            pass
        else:
            assert not report.pushforward_ordered
        assert len(calls) == 1


class TestIrreducibleComponents:
    def test_dirac_pair(self):
        comps = irreducible_components(dirac(0.0), dm([-1, 1]))
        assert len(comps) == 1
        assert comps[0].lo == pytest.approx(-1.0) and comps[0].hi == pytest.approx(1.0)

    def test_identical_measures(self, rng):
        m = random_measure(rng)
        assert irreducible_components(m, m) == []

    def test_two_components(self):
        # potentials agree on [-1, 1] and at +-3, strict inequality between
        comps = irreducible_components(dm([-2, 2]), dm([-3, -1, 1, 3]))
        assert len(comps) == 2
        assert comps[0].lo == pytest.approx(-3.0) and comps[0].hi == pytest.approx(-1.0)
        assert comps[1].lo == pytest.approx(1.0) and comps[1].hi == pytest.approx(3.0)

    def test_requires_order(self):
        with pytest.raises(OrderError):
            irreducible_components(dm([-2, 2]), dm([-1, 1]))

    def test_order_failure_names_the_witness_and_tolerance(self):
        # u_a(-1) = 2 and u_b(-1) = 1; the scale is 4, so the tolerance is 4e-9
        want = (
            r"^irreducible components: a <=_c b fails: "
            r"u_a - u_b = 1\.000e\+00 at b's atom 0 \(-1\.0\), above tol 4\.000e-09$"
        )
        with pytest.raises(OrderError, match=want):
            irreducible_components(dm([-2, 2]), dm([-1, 1]))
        want = (
            r"^irreducible components: a <=_c b fails: "
            r"mean\(a\) - mean\(b\) = 5\.000e-01, above tol 4\.000e-09$"
        )
        with pytest.raises(OrderError, match=want):
            irreducible_components(dm([-1.5, 2.5]), dm([-1, 1]))

    def test_matches_grid_scan(self, rng):
        # oracle: sign of the potential difference on a fine grid
        for _ in range(25):
            a, b = random_ordered_pair(rng, max_atoms=7)
            comps = irreducible_components(a, b)
            s = support_scale(a, b)
            grid = np.linspace(b.atoms[0], b.atoms[-1], 2001)
            diff = potential_at(b, grid) - potential_at(a, grid)
            for iv in comps:
                assert b.atoms[0] - 1e-9 <= iv.lo < iv.hi <= b.atoms[-1] + 1e-9
                inside = (grid > iv.lo + 1e-6 * s) & (grid < iv.hi - 1e-6 * s)
                if np.any(inside):
                    assert np.all(diff[inside] > 0)
            covered = np.zeros(grid.size, dtype=bool)
            for iv in comps:
                covered |= (grid >= iv.lo - 1e-6 * s) & (grid <= iv.hi + 1e-6 * s)
            assert np.all(diff[~covered] <= 1e-6 * s)

    def test_intervals_pass_the_potential_oracle(self):
        rng = np.random.default_rng(20)
        nonempty = 0
        for k in range(1200):
            a, b = _structured_pair(rng, k)
            got = irreducible_components(a, b)
            assert potential_gap_violations(got, a, b) == [], k
            nonempty += bool(got)
        assert nonempty > 1000

    def test_agrees_with_the_potential_loop_on_well_separated_inputs(self):
        # well separated: every slack and every potential gap at the kinks is
        # rounding-level or above 10 * tol, and atoms of a and b either
        # coincide or lie more than 10 * tol apart. Inside the band the two
        # constructions may cut different (equally valid) intervals.
        rng = np.random.default_rng(21)
        separated = 0
        for k in range(1200):
            a, b = _structured_pair(rng, k)
            s = support_scale(a, b)
            tol = ORDER_TOL * s
            grid = np.union1d(a.atoms, b.atoms)
            slack = _level_slack(*level_blocks(a, b), a.atoms, b.atoms)
            gaps = np.concatenate((slack, potential_at(b, grid) - potential_at(a, grid)))
            dist = np.abs(a.atoms[:, None] - b.atoms[None, :])
            if not (
                np.all((np.abs(gaps) <= 1e-14 * s) | (gaps > 10 * tol))
                and np.all((dist == 0.0) | (dist > 10 * tol))
            ):
                continue
            separated += 1
            got = [(iv.lo, iv.hi) for iv in irreducible_components(a, b)]
            assert got == _components_loop(a, b, tol), k
        assert separated > 300

    def test_solution_intervals_equal_the_public_construction(self):
        rng = np.random.default_rng(22)
        for k in range(600):
            mu, nu = _structured_pair(rng, k, solve=False)
            sol = weak_monotone_rearrangement(mu, nu)
            assert sol.irreducibles == irreducible_components(sol.pushforward, nu), k

    def test_endpoints_touch(self, rng):
        for _ in range(25):
            a, b = random_ordered_pair(rng, max_atoms=7)
            s = support_scale(a, b)
            for iv in irreducible_components(a, b):
                for e in (iv.lo, iv.hi):
                    assert abs(potential_at(a, e)[0] - potential_at(b, e)[0]) <= 1e-7 * s


class TestIntervals:
    IVS = Intervals([-3.0, 1.0, 3.0], [-1.0, 3.0, 4.5])  # the last two share an end
    AS_LIST = [Interval(-3.0, -1.0), Interval(1.0, 3.0), Interval(3.0, 4.5)]

    def test_a_sequence_of_interval(self):
        ivs = self.IVS
        assert len(ivs) == 3 and ivs
        assert list(ivs) == self.AS_LIST
        assert all(type(iv) is Interval and type(iv.lo) is float for iv in ivs)
        assert ivs[0] == Interval(-3.0, -1.0) and ivs[-1] == Interval(3.0, 4.5)
        assert ivs[np.int64(1)] == Interval(1.0, 3.0)
        with pytest.raises(IndexError):
            ivs[3]
        assert Interval(1.0, 3.0) in ivs and ivs.index(Interval(3.0, 4.5)) == 2
        assert list(reversed(ivs)) == self.AS_LIST[::-1]

    def test_ends(self):
        assert self.IVS.ends().tolist() == [-3.0, -1.0, 1.0, 3.0, 3.0, 4.5]
        assert self.IVS.ends().flags.writeable and Intervals([], []).ends().size == 0

    def test_none(self):
        none = Intervals([], [])
        assert len(none) == 0 and not none and list(none) == []
        assert none == [] and [] == none and none == Intervals(np.empty(0), np.empty(0))

    def test_equality(self):
        ivs = self.IVS
        assert ivs == self.AS_LIST and self.AS_LIST == ivs and ivs == tuple(self.AS_LIST)
        assert ivs == Intervals(ivs.lo.copy(), ivs.hi.copy())
        assert ivs != self.AS_LIST[:2] and ivs != Intervals(ivs.lo[:2], ivs.hi[:2])
        assert ivs != Intervals([-3.0, 1.0, 3.0], [-1.0, 3.0, 5.0])
        assert ivs != "intervals" and ivs != None  # noqa: E711

    def test_arrays_are_read_only(self):
        for arr in (self.IVS.lo, self.IVS.hi):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_ordered_pair_builds_no_interval(self, monkeypatch):
        # solve, components and verifier of an ordered pair, as at scale,
        # read the intervals' arrays; T = id pushes mu onto itself
        built = []
        check = Interval.__post_init__
        monkeypatch.setattr(Interval, "__post_init__", lambda iv: built.append(iv) or check(iv))
        mu, nu = spread_pair(np.random.default_rng(4108), 300)
        sol = solve_weak_transport(mu, nu)
        assert sol.pushforward is mu
        comps = irreducible_components(sol.pushforward, nu)
        assert verify_slope1_characterization(sol, mu, nu).ok
        assert type(comps) is Intervals and comps == sol.irreducibles and len(comps) > 10
        assert built == []
        assert list(comps)[0] == comps[0] and len(built) == len(comps) + 1  # iterating builds them


def _structured_pair(rng, k, solve=True):
    """Mix, spread, clustered and 1e6-offset pairs in turn; with solve, the
    mu of each unordered pair is replaced by its rearrangement's pushforward."""
    kind = k % 4
    if kind == 1:
        return spread_pair(rng, int(rng.integers(1, 40)))
    if kind == 0:
        mu, nu = mix_pair(rng, int(rng.integers(1, 40)), int(rng.integers(1, 40)))
    else:
        mu, nu = (clustered_pair if kind == 2 else offset_pair)(rng)
    return (weak_monotone_rearrangement(mu, nu).pushforward, nu) if solve else (mu, nu)


def _components_loop(a, b, thr):
    """Maximal runs of kinks where u_b - u_a > thr, cut at the roots of the
    linear pieces next to them (snapped to a kink within thr): the potential
    construction irreducible_components replaced, kept as a test oracle."""
    grid = np.union1d(a.atoms, b.atoms)
    diff = potential_at(b, grid) - potential_at(a, grid)

    def root(k, step):
        k2 = k + step
        if k2 < 0 or k2 >= grid.size:
            return float(grid[k])
        d0, d1 = diff[k], diff[k2]
        if d1 >= d0:
            return float(grid[k2])
        r = grid[k] + d0 / (d0 - d1) * (grid[k2] - grid[k])
        lo, hi = sorted((float(grid[k]), float(grid[k2])))
        return float(min(max(r, lo), hi))

    def snap(r):
        near = float(grid[np.argmin(np.abs(grid - r))])
        return near if abs(near - r) <= thr else r

    out, i = [], 0
    while i < grid.size:
        if diff[i] <= thr:
            i += 1
            continue
        j = i
        while j + 1 < grid.size and diff[j + 1] > thr:
            j += 1
        lo, hi = snap(root(i, -1)), snap(root(j, +1))
        if hi > lo:
            out.append((lo, hi))
        i = j + 1
    return out


class TestWasserstein:
    def test_translation(self):
        assert wasserstein(dirac(0.0), dirac(1.0), 1.0) == 1.0

    def test_identity(self, rng):
        m = random_measure(rng)
        for rho in (1.0, 2.0, 3.5):
            assert wasserstein(m, m, rho) == 0.0

    def test_split_pair(self):
        # quantile difference is +-1 on each half
        assert wasserstein(dm([0, 2]), dirac(1.0), 2.0) == pytest.approx(1.0)

    def test_rejects_small_rho(self):
        with pytest.raises(DomainError):
            wasserstein(dirac(0.0), dirac(1.0), 0.5)

    def test_triangle_inequality(self, rng):
        for _ in range(40):
            a, b, c = (random_measure(rng, max_atoms=6) for _ in range(3))
            for rho in (1.0, 2.0):
                assert wasserstein(a, c, rho) <= (
                    wasserstein(a, b, rho) + wasserstein(b, c, rho) + 1e-9
                )


class TestLevelBlocks:
    def test_blocks_add_up_to_each_measure(self, rng):
        for a, b in mix_and_offset_pairs(rng, 240):
            i, j, width = level_blocks(a, b)
            assert np.all(width > 0.0)
            assert np.all(np.diff(i) >= 0) and np.all(np.diff(j) >= 0)
            assert np.abs(np.bincount(i, width, a.n) - a.weights).max() <= 1e-15
            assert np.abs(np.bincount(j, width, b.n) - b.weights).max() <= 1e-15

    def test_blocks_carry_both_quantiles(self, rng):
        for a, b in mix_and_offset_pairs(rng, 240):
            i, j, width = level_blocks(a, b)
            mid = np.cumsum(width) - 0.5 * width
            assert np.array_equal(a.atoms[i], np.array([quantile(a, u) for u in mid]))
            assert np.array_equal(b.atoms[j], np.array([quantile(b, u) for u in mid]))


# a trailing weight below the rounding of the partial sums before it
TINY_TAIL = [0.17227609353408005, 0.35023981772382573, 0.31618173410429423,
             0.16130235463779996, 2.836276496654493e-17]


def level_blocks_reference(a, b):
    """level_blocks as the union of both levels plus two searchsorted calls,
    kept as its reference."""
    ca, cb = a.cumulative(), b.cumulative()
    levels = np.union1d(ca, cb)
    i = np.minimum(np.searchsorted(ca, levels), a.n - 1)
    j = np.minimum(np.searchsorted(cb, levels), b.n - 1)
    return i, j, np.diff(levels, prepend=0.0)


def tiny_tail_measure(rng):
    """A random_measure with 2-14 atoms whose last weight is scaled by 1e-14."""
    m = random_measure(rng, max_atoms=14)
    while m.n < 2:
        m = random_measure(rng, max_atoms=14)
    w = m.weights.copy()
    w[-1] *= 1e-14
    return DiscreteMeasure(m.atoms, w / w.sum())


class TestCumulative:
    def test_never_overshoots_one(self):
        m = dm(np.arange(5.0), TINY_TAIL)
        c = m.cumulative()
        assert np.all(np.diff(c) >= 0.0) and c.max() == c[-1] == 1.0
        i, j, width = level_blocks(m, dm([0.0, 4.0]))
        assert np.cumsum(width).max() <= 1.0 and np.all(width > 0.0)

    def test_sorted_with_tiny_tails(self):
        # unclipped partial sums overshoot 1 before the last entry on 14 of these
        rng = np.random.default_rng(4103)
        for _ in range(2000):
            c = tiny_tail_measure(rng).cumulative()
            assert np.all(np.diff(c) >= 0.0) and c[-1] == 1.0

    def test_formed_once_and_read_only(self):
        m = dm(np.arange(5.0), TINY_TAIL)
        c = m.cumulative()
        assert m.cumulative() is c
        with pytest.raises(ValueError):
            c[0] = 0.5
        assert c[0] == m.weights[0]

    def test_bit_equal_to_the_formula(self, rng):
        measures_ = [tiny_tail_measure(rng) for _ in range(200)]
        measures_ += [m for pair in four_family_pairs(rng, 200) for m in pair]
        for m in measures_:
            want = np.minimum(_prefix_sum(m.weights), 1.0)
            want[-1] = 1.0
            assert m.cumulative().tobytes() == want.tobytes()

    def test_a_new_measure_forms_its_own_levels(self, monkeypatch):
        calls = []

        def counted(w):
            calls.append(w.size)
            return _prefix_sum(w)

        m = dm(np.arange(5.0), TINY_TAIL)
        c = m.cumulative()
        monkeypatch.setattr(measures, "_prefix_sum", counted)
        twin = DiscreteMeasure(m.atoms, m.weights)
        assert twin.cumulative() is twin.cumulative() is not c
        assert m.cumulative() is c and calls == [5]

    def test_solve_on_a_tiny_tail_is_certified(self):
        mu, nu = dm(np.arange(5.0), TINY_TAIL), dm([0.0, 4.0])
        sol = weak_monotone_rearrangement(mu, nu)
        assert sol.kkt_residual <= 1e-8 * support_scale(mu, nu)
        assert np.all(np.diff(sol.map.knots_t) >= 0.0)


class TestPrefixSum:
    def test_within_one_ulp_of_the_exact_partial_sums(self):
        # a plain cumsum is off by up to 392 ulps here
        rng = np.random.default_rng(4105)
        n = 3000
        for w in (np.full(n, 1.0 / n), rng.dirichlet(np.ones(n)), 10.0 ** rng.uniform(-12.0, 0.0, n)):
            exact = np.array([float(s) for s in itertools.accumulate(map(Fraction, w.tolist()))])
            c = _prefix_sum(w)
            assert np.all(np.abs(c - exact) <= np.spacing(exact))
            assert np.all(np.diff(c) >= 0.0)

    @pytest.mark.parametrize("ordered", [False, True])  # the pooled and the identity path
    def test_each_measure_summed_once_per_call(self, monkeypatch, ordered):
        calls = []

        def counted(w):
            calls.append(w.size)
            return _prefix_sum(w)

        monkeypatch.setattr(measures, "_prefix_sum", counted)
        rng = np.random.default_rng(4106)
        mu, nu = spread_pair(rng, 40) if ordered else mix_pair(rng, 40, 30)
        sol = weak_monotone_rearrangement(mu, nu)
        assert calls == [mu.n, nu.n]
        irreducible_components(sol.pushforward, nu)  # nu's levels are kept
        pushed = [] if ordered else [sol.pushforward.n]  # the identity pushes mu onto itself
        assert calls[2:] == pushed
        with pytest.raises(OrderError):  # the witness reads the same levels
            irreducible_components(nu, sol.pushforward)
        assert len(calls) == 2 + len(pushed)

    def test_each_measure_summed_once_across_calls(self, monkeypatch):
        calls = []

        def counted(w):
            calls.append(w.size)
            return _prefix_sum(w)

        monkeypatch.setattr(measures, "_prefix_sum", counted)
        rng = np.random.default_rng(4107)
        mu, nu = mix_pair(rng, 30, 25)
        for summed in (3, 1):  # mu, nu and eta; then only the new eta
            del calls[:]
            sol = solve_weak_transport(mu, nu)
            mg = build_martingale_coupling(sol.pushforward, nu)
            assert optimality_certificate(compose_with_map(mu, sol.map, mg), mu, nu).ok
            decompose_martingale(mg)
            assert len(calls) == summed
        del calls[:]
        mu, nu = spread_pair(rng, 40)  # solve, components and verifier, as at scale
        sol = solve_weak_transport(mu, nu)
        irreducible_components(mu, nu)
        assert verify_slope1_characterization(sol, mu, nu).ok
        assert calls == [mu.n, nu.n]  # the verifier's pushforward is mu itself


class TestLevelBlocksMerge:
    def test_bit_identical_to_the_union_and_searchsorted(self):
        rng = np.random.default_rng(4104)
        pairs = list(four_family_pairs(rng, 400))
        pairs += [(tiny_tail_measure(rng), tiny_tail_measure(rng)) for _ in range(400)]
        pairs += [(dm(np.arange(5.0), TINY_TAIL), dm([0.0, 4.0]))]
        for a, b in pairs:
            for x, y in ((a, b), (b, a), (a, a)):
                for got, want in zip(level_blocks(x, y), level_blocks_reference(x, y)):
                    assert got.dtype == want.dtype and np.array_equal(got, want)


class TestLowestMass:
    def test_takes_the_first_amount_of_mass(self, rng):
        for a, b in mix_and_offset_pairs(rng, 240):
            for m in (a, b):
                w = m.weights
                level = float(np.cumsum(w)[rng.integers(m.n)])
                for amount in (0.0, float(rng.uniform(0.0, 1.0)), level, 1.0, 1.5):
                    taken = lowest_mass(w, amount)
                    assert np.all((taken >= 0.0) & (taken <= w))
                    assert abs(taken.sum() - min(amount, 1.0)) <= 1e-15
                    partial = np.flatnonzero(taken < w)
                    if partial.size:  # nothing is taken after the first partial entry
                        assert not np.any(taken[partial[0] + 1 :])

    def test_small_example(self):
        w = np.array([0.25, 0.5, 0.25])
        assert lowest_mass(w, 0.5).tolist() == [0.25, 0.25, 0.0]
        assert lowest_mass(w, 0.0).tolist() == [0.0, 0.0, 0.0]
        assert lowest_mass(w, 2.0).tolist() == w.tolist()


class TestQuantize:
    def test_dirac_fixed(self):
        assert measures_close(quantize(dirac(0.0), 0.7), dirac(0.0))

    def test_single_bin_barycenter(self):
        q = quantize(dm([0.1, 0.2]), 1.0)
        assert q.n == 1 and q.atoms[0] == pytest.approx(0.15)

    def test_distinct_bins_unchanged(self):
        m = dm([-1, 1])
        assert measures_close(quantize(m, 0.5), m)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(DomainError):
            quantize(dirac(0.0), 0.0)

    def test_order_and_distance(self, rng):
        for _ in range(30):
            m = random_measure(rng)
            delta = float(rng.uniform(0.05, 2.0))
            q = quantize(m, delta)
            assert convex_order_leq(q, m)
            assert abs(mean(q) - mean(m)) < 1e-12 * support_scale(m)
            assert wasserstein(q, m, 1.0) <= delta


class TestCsv:
    def test_round_trip(self, tmp_path, rng):
        m = random_measure(rng)
        path = tmp_path / "m.csv"
        write_measure_csv(m, path)
        assert measures_close(read_measure_csv(path), m, 1e-12)

    def test_header_optional_any_order(self):
        m = parse_measure_csv("atom,weight\n1.0,0.5\n-1.0,0.5\n")
        assert np.allclose(m.atoms, [-1.0, 1.0])
        m2 = parse_measure_csv("1.0,0.5\n-1.0,0.5\n")
        assert measures_close(m, m2)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_measure_csv("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            parse_measure_csv("")
        with pytest.raises(ValueError):
            parse_measure_csv("atom,weight\n1.0,x\n")

    def test_messages_name_the_line(self):
        with pytest.raises(ValueError, match=r"^line 4: non-numeric entry in '2\.0,x'$"):
            parse_measure_csv("atom,weight\n\n1.0,0.5\n2.0,x\n")
        with pytest.raises(ValueError, match=r"^line 2: expected 'atom,weight', got '1,2,3'$"):
            parse_measure_csv("1.0,1.0\n1,2,3\n")
        with pytest.raises(ValueError, match="^no data rows in measure CSV$"):
            parse_measure_csv("atom,weight\n\n")
