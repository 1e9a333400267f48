import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmrline import (
    CostSpec,
    DomainError,
    MonotoneMap,
    PreconditionError,
    SizeError,
    SolverError,
    convex_order_leq,
    map_decomposition,
    mean,
    measures_close,
    reverse_optimizer,
    solve_weak_transport,
    support_scale,
    value,
    verify_admissible,
    verify_slope1_characterization,
    wasserstein,
    weak_monotone_rearrangement,
)
from wmrline import measures, qp
from wmrline.wmr import kkt_residual, slope1_violations, transport_polyhedron

from conftest import (
    dirac,
    dm,
    empirical_pair,
    four_family_pairs,
    mix_pair,
    nth_mix_pair,
    random_measure,
    spread_pair,
)
from oracle import _lower_hull, oracle_solve, project_admissible

COSTS = (CostSpec.quadratic(), CostSpec.quartic(), CostSpec.power(3.0))
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


class TestCostSpec:
    def test_kinds(self):
        assert CostSpec.quadratic().value(3.0) == 9.0
        assert CostSpec.quartic().value(2.0) == 16.0
        assert CostSpec.power(3.0).value(-2.0) == 8.0

    def test_strict_convexity_flag(self):
        assert CostSpec.quadratic().strictly_convex
        assert CostSpec.power(1.5).strictly_convex
        assert not CostSpec.power(1.0).strictly_convex

    def test_unit_power_derivative_is_the_sign(self):
        assert CostSpec.power(1.0).deriv([-2, 0, 3]).tolist() == [-1.0, 0.0, 1.0]

    def test_growth_exponent(self):
        assert CostSpec.quartic().growth_exponent == 4.0
        assert CostSpec.power(2.5).growth_exponent == 2.5

    def test_rejects_rho_below_one(self):
        with pytest.raises(DomainError):
            CostSpec.power(0.9)

    def test_derivative_matches_finite_differences(self, rng):
        h = 1e-6
        for cost in (CostSpec.quadratic(), CostSpec.quartic(), CostSpec.power(3.0)):
            z = rng.uniform(-2, 2, 50)
            fd = (cost.value(z + h) - cost.value(z - h)) / (2 * h)
            assert np.allclose(cost.deriv(z), fd, atol=1e-4)


class TestSolverClosedForms:
    def test_dirac_to_split(self):
        sol = solve_weak_transport(dirac(0.0), dm([0, 2]))
        assert sol.map(0.0)[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.value == pytest.approx(1.0, abs=1e-12)

    def test_ordered_pair_is_identity(self):
        mu, nu = dm([-2, 2]), dm([-3, 3])
        sol = solve_weak_transport(mu, nu)
        assert np.array_equal(sol.map(mu.atoms), mu.atoms)
        assert sol.value == 0.0
        assert measures_close(sol.pushforward, mu)

    def test_two_point_contraction(self):
        sol = solve_weak_transport(dm([-2, 2]), dm([-1, 1]))
        assert np.allclose(sol.map(np.array([-2.0, 2.0])), [-1.0, 1.0], atol=1e-10)
        assert sol.value == pytest.approx(1.0, abs=1e-10)
        assert sol.irreducibles == []

    def test_dirac_maps_to_target_mean(self, rng):
        nu = random_measure(rng)
        sol = weak_monotone_rearrangement(dirac(0.3), nu)
        assert sol.map(0.3)[0] == pytest.approx(mean(nu), abs=1e-12)

    def test_spread_to_dirac(self):
        sol = weak_monotone_rearrangement(dm([-1, 1]), dirac(0.0))
        assert np.allclose(sol.map(np.array([-1.0, 1.0])), 0.0)
        assert sol.value == pytest.approx(1.0, abs=1e-12)

    def test_quartic_same_optimizer(self):
        sol = solve_weak_transport(dm([-2, 2]), dm([-1, 1]), CostSpec.quartic())
        assert sol.value == pytest.approx(1.0, abs=1e-9)

    def test_value_wrapper(self):
        assert value(dirac(0.0), dm([-1, 1])) == pytest.approx(0.0, abs=1e-12)
        m = dm([-1, 0.5, 2], [0.3, 0.4, 0.3])
        assert value(m, m, CostSpec.quartic()) == 0.0


class TestSolverAgainstOracle:
    def test_hand_instance(self):
        val, t = oracle_solve(dm([-2, 2]), dm([-1, 1]), grid_step=1e-3)
        assert val == pytest.approx(1.0, abs=1e-2)
        assert np.allclose(t, [-1, 1], atol=5e-3)

    def test_oracle_trivials(self):
        val, t = oracle_solve(dirac(0.0), dm([0, 2]), grid_step=1e-3)
        assert val == pytest.approx(1.0, abs=2e-3)
        m = dm([-1, 1])
        val, _ = oracle_solve(m, m, grid_step=1e-2)
        assert val <= 1e-4

    def test_oracle_size_cap(self):
        with pytest.raises(SizeError):
            oracle_solve(dm([0, 1, 2, 3, 4]), dirac(2.0))

    def test_random_small_instances(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            mu = dm(np.sort(rng.uniform(-0.4, 0.4, n)), rng.dirichlet(np.ones(n)))
            nu = dm(np.sort(rng.uniform(-0.4, 0.4, m)), rng.dirichlet(np.ones(m)))
            sol = solve_weak_transport(mu, nu)
            oval, _ = oracle_solve(mu, nu, grid_step=2e-3)
            box = 3 * max(1.0, support_scale(mu, nu))
            lip = 2 * box  # quadratic derivative bound on the search box
            assert abs(sol.value - oval) <= lip * 2e-3 * n


class TestThetaIndependence:
    def test_pushforwards_agree(self, rng):
        for _ in range(25):
            mu = random_measure(rng, max_atoms=20)
            nu = random_measure(rng, max_atoms=20, span=4.0)
            s = support_scale(mu, nu)
            base = solve_weak_transport(mu, nu, CostSpec.quadratic())
            for cost in (CostSpec.quartic(), CostSpec.power(3.0)):
                alt = solve_weak_transport(mu, nu, cost)
                assert wasserstein(base.pushforward, alt.pushforward, 1.0) <= 1e-6 * s
                assert np.abs(base.map(mu.atoms) - alt.map(mu.atoms)).max() <= 1e-6 * s


class TestVerifiers:
    def test_identity_admissible_when_ordered(self):
        mu, nu = dm([-2, 2]), dm([-3, 3])
        assert verify_admissible(MonotoneMap.identity(mu.atoms), mu, nu).ok

    def test_halving_map_admissible(self):
        rep = verify_admissible(
            MonotoneMap(np.array([-2.0, 2.0]), np.array([-1.0, 1.0])), dm([-2, 2]), dm([-1, 1])
        )
        assert rep.ok

    def test_expansion_rejected(self):
        rep = verify_admissible(
            MonotoneMap(np.array([-2.0, 2.0]), np.array([-4.0, 4.0])), dm([-2, 2]), dm([-1, 1])
        )
        assert not rep.ok and not rep.one_lipschitz

    def test_decreasing_rejected(self):
        rep = verify_admissible(
            MonotoneMap(np.array([-1.0, 1.0]), np.array([0.5, -0.5])), dm([-1, 1]), dm([-1, 1])
        )
        assert not rep.ok and not rep.monotone

    def test_order_violation_names_the_witness(self):
        # u_mu(-1) = 2 and u_nu(-1) = 1; the scale is 4 and tol 1e-7 > ORDER_TOL
        rep = verify_admissible(MonotoneMap.identity([-2.0, 2.0]), dm([-2, 2]), dm([-1, 1]))
        assert not rep.ok and not rep.pushforward_ordered
        assert rep.violations == (
            "pushforward is not below nu in convex order: T(mu) <=_c nu fails: "
            "u_T(mu) - u_nu = 1.000e+00 at nu's atom 0 (-1.0), above tol 4.000e-07",
        )

    def test_slope1_pass_on_solver_output(self):
        mu, nu = dirac(0.0), dm([-1, 1])
        sol = weak_monotone_rearrangement(mu, nu)
        assert len(sol.irreducibles) == 1
        assert verify_slope1_characterization(sol, mu, nu).ok

    def test_slope1_vacuous_without_intervals(self):
        mu, nu = dm([-2, 2]), dm([-1, 1])
        sol = weak_monotone_rearrangement(mu, nu)
        assert sol.irreducibles == [] and verify_slope1_characterization(sol, mu, nu).ok

    def test_slope1_fails_for_collapse(self):
        from wmrline import WeakSolution, irreducible_components, pushforward

        mu, nu = dm([-2, 2]), dm([-1, 1])
        zero = MonotoneMap(mu.atoms, np.zeros(2))
        push = pushforward(mu, np.zeros(2))
        fake = WeakSolution(
            map=zero,
            pushforward=push,
            value=8.0,
            irreducibles=irreducible_components(push, nu),
            kkt_residual=0.0,
            cost=CostSpec.quadratic(),
        )
        rep = verify_slope1_characterization(fake, mu, nu)
        assert not rep.ok and rep.admissible

    def test_each_map_is_evaluated_once(self, monkeypatch):
        mu, nu = dm([-2, 0, 2]), dm([-1, 1])
        sol = weak_monotone_rearrangement(mu, nu)
        evaluate, calls = MonotoneMap.__call__, []

        def counted(map_, y):
            calls.append(map_)
            return evaluate(map_, y)

        monkeypatch.setattr(MonotoneMap, "__call__", counted)
        assert verify_slope1_characterization(sol, mu, nu).ok
        assert len(calls) == 1 and calls[0] is sol.map

    def test_solver_outputs_always_verify(self, rng):
        for _ in range(30):
            mu = random_measure(rng, max_atoms=12)
            nu = random_measure(rng, max_atoms=12)
            sol = weak_monotone_rearrangement(mu, nu)
            s = support_scale(mu, nu)
            assert sol.kkt_residual <= 1e-8 * s
            assert verify_admissible(sol.map, mu, nu).ok
            assert verify_slope1_characterization(sol, mu, nu).ok
            # displacement x - T(x) is nondecreasing
            t = sol.map(mu.atoms)
            assert np.all(np.diff(mu.atoms - t) >= -1e-9 * s)
            # Jensen lower bound, equality iff displacement constant
            jensen = float(CostSpec.quadratic().value(mean(mu) - mean(nu)))
            assert sol.value >= jensen - 1e-9 * max(1.0, s) ** 2
            disp = mu.atoms - t
            if abs(sol.value - jensen) <= 1e-10 * max(1.0, s) ** 2:
                assert disp.max() - disp.min() <= 1e-6 * s

    def test_complementary_decompositions(self, rng):
        # contractive pairs never sit strictly inside one irreducible interval,
        # and pairs inside an interval have unit slope
        for _ in range(25):
            mu = random_measure(rng, max_atoms=12)
            nu = random_measure(rng, max_atoms=12)
            sol = weak_monotone_rearrangement(mu, nu)
            s = support_scale(mu, nu)
            t = sol.map(mu.atoms)
            for i in range(mu.n - 1):
                slope_deficit = (mu.atoms[i + 1] - mu.atoms[i]) - (t[i + 1] - t[i])
                both_inside = any(
                    iv.contains(t[i], 1e-7 * s) and iv.contains(t[i + 1], 1e-7 * s)
                    for iv in sol.irreducibles
                )
                if slope_deficit > 1e-7 * s:
                    assert not both_inside
                if both_inside:
                    assert abs(slope_deficit) <= 1e-7 * s


def _slope1_loop(points, x, y, intervals, margin, tol):
    """The per-interval scan slope1_violations replaced, kept as its reference."""
    out = []
    for iv in intervals:
        inside = [i for i in range(len(points)) if iv.contains(float(points[i]), margin)]
        for a, b in zip(inside, inside[1:]):
            if b == a + 1 and abs((y[b] - y[a]) - (x[b] - x[a])) > tol:
                out.append((iv, float((y[b] - y[a]) / (x[b] - x[a]))))
    return out


class TestSlope1Violations:
    def test_matches_the_per_interval_loop(self):
        rng = np.random.default_rng(41)
        found = 0
        for _ in range(150):
            n, m = (int(v) for v in rng.integers(2, 25, 2))
            mu, nu = mix_pair(rng, n, m)
            sol = solve_weak_transport(mu, nu)
            x = mu.atoms
            t = sol.map(x)
            # the optimum, a rounding-level nudge of it, and two non-monotone
            # candidates whose images visit the intervals out of order
            for y in (t, t + rng.normal(0.0, 1e-7, n), rng.permutation(t), rng.uniform(-2, 2, n)):
                for margin, tol in ((1e-7, 1e-7), (0.0, 0.0), (1e-3, 1e-9)):
                    for points in (y, x):
                        got = slope1_violations(points, x, y, sol.irreducibles, margin, tol)
                        assert got == _slope1_loop(points, x, y, sol.irreducibles, margin, tol)
                        found += len(got)
        assert found > 1000

    def test_no_intervals_no_violations(self):
        x = np.array([0.0, 1.0, 2.0])
        assert slope1_violations(x, x, np.zeros(3), [], 0.0, 0.0) == []


def check_maximality(candidate: MonotoneMap, sol, mu, nu) -> bool:
    """candidate(mu) <=_c sol.pushforward; candidate must be admissible."""
    if not verify_admissible(candidate, mu, nu).ok:
        raise PreconditionError("maximality check requires an admissible candidate")
    return convex_order_leq(candidate.push(mu), sol.pushforward)


class TestMaximality:
    def test_collapse_below_rearrangement(self):
        mu, nu = dm([-2, 2]), dm([-1, 1])
        sol = weak_monotone_rearrangement(mu, nu)
        zero = MonotoneMap(mu.atoms, np.zeros(2))
        assert check_maximality(zero, sol, mu, nu)

    def test_self_comparison(self):
        mu, nu = dm([-2, 2]), dm([-1, 1])
        sol = weak_monotone_rearrangement(mu, nu)
        assert check_maximality(sol.map, sol, mu, nu)

    def test_identity_when_ordered(self):
        mu, nu = dm([-1, 1]), dm([-2, 2])
        sol = weak_monotone_rearrangement(mu, nu)
        ident = MonotoneMap.identity(mu.atoms)
        assert check_maximality(ident, sol, mu, nu)
        assert measures_close(sol.pushforward, mu)

    def test_rejects_inadmissible_candidate(self):
        mu, nu = dm([-1, 1]), dm([-1, 1])
        bad = MonotoneMap(mu.atoms, 2.0 * mu.atoms)
        sol = weak_monotone_rearrangement(mu, nu)
        with pytest.raises(PreconditionError):
            check_maximality(bad, sol, mu, nu)

    def test_projected_random_maps(self, rng, monkeypatch):
        solve_qp, solved = qp.solve_qp, []

        def recorded(*args):
            solved.append(solve_qp(*args))
            return solved[-1]

        monkeypatch.setattr(qp, "solve_qp", recorded)
        for _ in range(20):
            mu = random_measure(rng, max_atoms=8)
            nu = random_measure(rng, max_atoms=8)
            sol = weak_monotone_rearrangement(mu, nu)
            raw = np.sort(rng.uniform(-4, 4, mu.n))
            cand = project_admissible(raw, mu, nu)
            # the projection is checked on its own, as well as through the map
            assert solved[-1].kkt_residual <= 1e-10 * support_scale(mu, nu)
            assert verify_admissible(cand, mu, nu).ok
            assert check_maximality(cand, sol, mu, nu)


class TestMapDecomposition:
    def test_identity(self):
        s1, contr = map_decomposition(MonotoneMap.identity(np.array([0.0, 1.0, 2.0])))
        assert s1 == [(0.0, 2.0)] and contr == []

    def test_pure_contraction(self):
        s1, contr = map_decomposition(MonotoneMap(np.array([-2.0, 2.0]), np.array([-1.0, 1.0])))
        assert s1 == [] and contr == [(-2.0, 2.0)]

    def test_mixed(self):
        s1, contr = map_decomposition(
            MonotoneMap(np.array([0.0, 1.0, 3.0]), np.array([0.0, 1.0, 2.0]))
        )
        assert s1 == [(0.0, 1.0)] and contr == [(1.0, 3.0)]

    def test_one_knot(self):
        assert map_decomposition(MonotoneMap([1.0], [0.5])) == ([], [])


def smooth_strictify(map_: MonotoneMap, eps: float) -> MonotoneMap:
    """Strictly increasing perturbation within eps in sup norm.

    On each of the R maximal flat knot runs (constant values, x-extent
    lambda_k) the constant rate min(eps / (2 R lambda_k), 1) is integrated
    from the left, so the total shift is at most eps / 2, flat runs become
    strictly increasing and every non-flat segment, in particular each
    unit-slope segment, keeps its slope.
    """
    if not eps > 0.0:
        raise DomainError("eps must be positive")
    x, t = map_.knots_x, map_.knots_t
    if x.size < 2:
        return map_
    scale = max(1.0, float(x[-1] - x[0]), float(np.abs(t).max()))
    flat = np.abs(t[1:] - t[:-1]) <= 1e-12 * scale
    # +1 at the knot where a flat run starts, -1 at the knot where it ends
    edge = np.diff(flat.astype(np.int8), prepend=0, append=0)
    starts = edge == 1
    lo, hi = x[starts], x[edge == -1]
    rate = np.minimum(eps / (2 * lo.size * (hi - lo)), 1.0)
    run = starts[:-1].cumsum() - 1  # the run of each flat segment
    inc = np.zeros_like(t)
    inc[1:][flat] = rate[run[flat]] * (x[1:] - x[:-1])[flat]
    return MonotoneMap(x, t + inc.cumsum())


class TestSmoothStrictify:
    def test_strictly_increasing_unchanged(self):
        m = MonotoneMap(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 1.5]))
        out = smooth_strictify(m, 0.1)
        assert np.array_equal(out.knots_t, m.knots_t)

    def test_identity_unchanged(self):
        m = MonotoneMap.identity(np.array([0.0, 1.0]))
        assert np.array_equal(smooth_strictify(m, 0.1).knots_t, m.knots_t)

    def test_single_flat_run(self):
        m = MonotoneMap(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        out = smooth_strictify(m, 0.1)
        assert np.allclose(out.knots_t, [0.0, 0.05])

    def test_properties_on_random_maps(self, rng):
        from conftest import random_one_lipschitz_values

        for _ in range(25):
            atoms = np.sort(rng.uniform(-3, 3, int(rng.integers(2, 10))))
            vals = random_one_lipschitz_values(rng, atoms)
            if rng.uniform() < 0.5:  # force some flat runs
                k = int(rng.integers(1, atoms.size))
                vals[k:] = vals[k - 1]
            m = MonotoneMap(atoms, vals)
            # keep eps below 2 R lambda_k (R flat runs): at the rate cap a flat
            # run picks up slope exactly 1 and the decomposition gains an interval
            flat = np.abs(np.diff(vals)) <= 1e-12
            shortest = float(np.diff(atoms)[flat].min()) if np.any(flat) else 1.0
            eps = float(rng.uniform(0.1, 0.9)) * min(2.0 * shortest, 1.0)
            out = smooth_strictify(m, eps)
            assert np.all(np.diff(out.knots_t) > 0)
            assert np.abs(out.knots_t - m.knots_t).max() <= eps + 1e-12
            assert map_decomposition(out)[0] == map_decomposition(m)[0]
            # T - id stays decreasing (slopes at most one)
            assert np.all(np.diff(out.knots_t) <= np.diff(atoms) + 1e-12)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(DomainError):
            smooth_strictify(MonotoneMap.identity(np.array([0.0, 1.0])), 0.0)

    @pytest.mark.parametrize("n", [60, 1000, 2000])
    def test_many_flat_runs_become_strict(self, n):
        # t constant on each run of three knots: a rate of eps / (lambda_k 2^k)
        # fell below the ulp from the 43rd run on and overflowed past run 1023
        x, t = np.arange(3.0 * n), np.repeat(np.arange(float(n)), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = smooth_strictify(MonotoneMap(x, t), 0.1)
        assert np.all(np.diff(out.knots_t) > 0)
        assert np.abs(out.knots_t - t).max() <= 0.1


def _assert_certified(mu, nu, cost=None):
    sol = solve_weak_transport(mu, nu, cost)
    s = support_scale(mu, nu)
    assert sol.kkt_residual <= 1e-8 * s
    assert verify_admissible(sol.map, mu, nu).ok
    # the reverse construction checks its own postconditions and raises
    # ConsistencyError when one fails
    reverse_optimizer(mu, nu, cost)
    return sol


class TestHullRegressions:
    def test_pair_that_cycled_the_active_set_qp(self):
        mu, nu = nth_mix_pair(3, 43, (75,))
        start = time.perf_counter()
        _assert_certified(mu, nu)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("cost", COSTS, ids=lambda c: c.kind + str(c.rho))
    def test_pair_whose_qp_answer_left_the_convex_order(self, cost):
        mu, nu = nth_mix_pair(24, 55, (10, 12, 14))
        assert mu.n == nu.n == 10
        _assert_certified(mu, nu, cost)


class TestHullAgainstQp:
    def test_matches_the_active_set_qp(self):
        # the dense QP on the full polyhedron (mu's and nu's levels plus the
        # monotonicity rows) is an independent oracle: the hull must not make
        # theta-independence true by construction
        rng = np.random.default_rng(1808)
        for k in range(120):
            n, m = (int(v) for v in rng.integers(1, 31, 2))
            mu, nu = mix_pair(rng, n, m)
            if k % 3 == 0:
                nu = nu.shift(float(rng.uniform(-1.0, 1.0)))
            s = support_scale(mu, nu)
            A_eq, b_eq, A_in, b_in = transport_polyhedron(mu, nu)
            p, x = mu.weights, mu.atoms
            start = np.full(mu.n, mean(nu))  # the constant map is always feasible
            res = qp.solve_qp(np.diag(2.0 * p), -2.0 * p * x, A_eq, b_eq, A_in, b_in, start)
            assert res.kkt_residual <= 1e-10 * s
            t = solve_weak_transport(mu, nu).map(x)
            assert np.abs(res.x - t).max() <= 1e-9 * s

    def test_an_infeasible_start_raises(self):
        # min x^2 over x >= 1 started at 0, then over x_1 + x_2 = 1 started at
        # the origin: the oracle raises rather than return a point
        no_rows = np.empty((0, 2))
        with pytest.raises(SolverError, match="start point is infeasible"):
            qp.solve_qp(np.eye(1), [0.0], no_rows[:, :1], [], [[1.0]], [1.0], [0.0])
        with pytest.raises(SolverError, match="start point is infeasible"):
            qp.solve_qp(np.eye(2), [0.0, 0.0], [[1.0, 1.0]], [1.0], no_rows, [], [0.0, 0.0])

    def test_costs_share_the_map_and_keep_their_values(self, rng):
        for _ in range(10):
            mu, nu = mix_pair(rng, 12, 9)
            base = solve_weak_transport(mu, nu)
            x, t = mu.atoms, base.map.knots_t
            for cost in COSTS[1:]:
                alt = _assert_certified(mu, nu, cost)
                assert np.array_equal(alt.map.knots_t, t)
                assert alt.value == pytest.approx(float(np.dot(mu.weights, cost.value(x - t))))


def hull_map(mu, nu):
    """The rearrangement as the solve formed it before the pooled regression,
    kept as its reference: block i moves by the slope, over it, of the least
    concave majorant of h = -(the order slack of t = x), from a monotone-chain
    hull over global prefix sums centred on nu's first atom."""
    x, p, y = mu.atoms, mu.weights, nu.atoms - nu.atoms[0]
    c = np.concatenate(([0.0], mu.cumulative()))
    cum = np.concatenate(([0.0], nu.cumulative()))
    seg = np.concatenate(([0.0], np.cumsum(np.diff(cum) * y)))
    k = np.clip(np.searchsorted(cum, c), 1, nu.n)
    h = seg[k - 1] + (c - cum[k - 1]) * y[k - 1]
    h -= np.concatenate(([0.0], np.cumsum(p * (x - nu.atoms[0]))))
    tol = 1e-12 * support_scale(mu, nu)
    if h.max() <= tol and abs(h[-1]) <= tol:
        return x
    v = _lower_hull(c, -h)
    return x + np.repeat(np.diff(h[v]) / np.diff(c[v]), np.diff(v))


class TestPooledRegression:
    def test_matches_the_hull_reference(self):
        rng = np.random.default_rng(7)
        for mu, nu in four_family_pairs(rng, 800):
            t = solve_weak_transport(mu, nu).map.knots_t
            assert np.abs(t - hull_map(mu, nu)).max() <= 1e-10 * support_scale(mu, nu)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_north_star_draws(self, seed):
        # the hull's global prefix sums, divided by block widths down to
        # 4e-12, made these maps decrease by up to 7.6e-7 * scale
        mu, nu = nth_mix_pair(seed, 1, (100_000,))
        start = time.perf_counter()
        sol = _assert_certified(mu, nu)
        assert np.diff(sol.map.knots_t).min() >= -1e-15 * support_scale(mu, nu)
        assert time.perf_counter() - start < 10.0

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200), m=st.integers(1, 200))
    def test_log_uniform_weights(self, seed, n, m):
        rng = np.random.default_rng(seed)
        p, q = 10.0 ** rng.uniform(-12.0, 0.0, n), 10.0 ** rng.uniform(-12.0, 0.0, m)
        mu = dm(np.sort(rng.uniform(-3.0, 3.0, n)), p / p.sum())
        nu = dm(np.sort(rng.uniform(-2.0, 2.0, m)), q / q.sum())
        _assert_certified(mu, nu)


class TestSubUlpWeights:
    """A mu weight below the rounding of the cumulative sum before it has no
    block in level_blocks; the rearrangement gives its atom a block of its
    own weight, so the atom sits where a vanishing weight would leave it.
    tests/test_reverse.py runs the reverse on such atoms."""

    @staticmethod
    def _certified(mu, nu):
        sol = solve_weak_transport(mu, nu)
        assert sol.kkt_residual <= 1e-8 * support_scale(mu, nu)
        assert verify_admissible(sol.map, mu, nu).ok
        return sol

    def test_atom_between_two_halves(self):
        mu = dm([0.0, 1.0, 2.0], [0.5, 1e-18, 0.5])
        sol = self._certified(mu, dm([0.8, 1.2]))
        assert np.array_equal(sol.map.knots_t, [0.8, 1.2, 1.2])

    def test_random_draws(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            n, m = int(rng.integers(3, 41)), int(rng.integers(1, 41))
            x, y = np.sort(rng.uniform(-3.0, 3.0, n)), np.sort(rng.uniform(-2.0, 2.0, m))
            p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
            light = rng.choice(n, int(rng.integers(1, 4)), replace=False)
            p[light] = 10.0 ** rng.uniform(-20.0, -17.0, light.size)
            self._certified(dm(x, p / p.sum()), dm(y, q / q.sum()))


class TestCertificate:
    def test_nudged_map_fails(self, rng):
        cost = CostSpec.quadratic()
        for _ in range(20):
            mu, nu = mix_pair(rng, 8, 8)
            s = support_scale(mu, nu)
            t = solve_weak_transport(mu, nu).map(mu.atoms)
            assert kkt_residual(mu, nu, t, cost) <= 1e-8 * s
            i = int(rng.integers(1, mu.n - 1))
            nudged = t.copy()
            nudged[i] += 1e-5
            nudged -= 1e-5 * mu.weights[i]  # keeps the mean
            assert abs(np.dot(mu.weights, nudged - t)) <= 1e-15
            assert kkt_residual(mu, nu, nudged, cost) > 1e-8 * s

    def test_shifted_map_fails_on_the_mean(self):
        mu, nu = dm([-2, 2]), dm([-1, 1])
        assert kkt_residual(mu, nu, np.array([-1.0, 1.0]), CostSpec.quadratic()) == 0.0
        assert kkt_residual(mu, nu, np.array([-0.9, 1.1]), CostSpec.quadratic()) >= 0.1 - 1e-12

    def test_mean_part_reads_the_weights(self, monkeypatch):
        # the slack's mean part is formed from the level blocks' widths; with
        # levels from a plain cumsum they drift from the weights by up to
        # 1.9e-12 at 10^5, t(mu) misses mean(nu) by about 1e-12, and the
        # slack alone reported at most 5.1e-15
        mu, nu = empirical_pair(0, 100_000)
        cost, s = CostSpec.quadratic(), support_scale(mu, nu)
        sol = solve_weak_transport(mu, nu)
        assert sol.kkt_residual <= 1e-14 * s
        assert kkt_residual(mu, nu, sol.map.knots_t, cost) <= 1e-14 * s
        monkeypatch.setattr(measures, "_prefix_sum", np.cumsum)
        mu, nu = empirical_pair(0, 100_000)  # new measures, so the levels are formed again
        sol = solve_weak_transport(mu, nu)
        assert sol.kkt_residual >= 5e-13
        assert kkt_residual(mu, nu, sol.map.knots_t, cost) >= 5e-13


class TestMonotoneMapConstruction:
    def test_matches_the_always_sorting_constructor(self):
        rng = np.random.default_rng(9104)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            x = np.sort(rng.uniform(-3.0, 3.0, n))
            t = rng.uniform(-3.0, 3.0, n)
            for perm in (np.arange(n), rng.permutation(n)):
                order = np.argsort(x[perm], kind="stable")
                got = MonotoneMap(x[perm], t[perm])
                assert got.knots_x.tobytes() == x[perm][order].tobytes()
                assert got.knots_t.tobytes() == t[perm][order].tobytes()
            if n > 1:  # tied knots are rejected, sorted or not
                tied = np.concatenate((x, x[:1]))
                for knots in (np.sort(tied), tied):
                    with pytest.raises(ValueError):
                        MonotoneMap(knots, np.append(t, 0.0))

    def test_knots_do_not_alias_the_input(self):
        x, t = np.array([0.0, 1.0]), np.array([0.5, 0.5])
        m = MonotoneMap(x, t)
        x[0], t[0] = -1.0, 9.0
        assert m.knots_x[0] == 0.0 and m.knots_t[0] == 0.5
        assert x.flags.writeable and t.flags.writeable


class TestFusedSolve:
    def test_residual_is_the_certificate_of_the_map(self):
        # the solve certifies its map with the slack its kernel formed; the
        # public certificate rebuilds that slack from the measures
        rng = np.random.default_rng(9101)
        moved = 0
        for mu, nu in four_family_pairs(rng, 320):
            s = support_scale(mu, nu)
            for cost in (*COSTS, CostSpec.power(1.0)):
                sol = solve_weak_transport(mu, nu, cost)
                t = sol.map.knots_t
                certified = cost if cost.strictly_convex else CostSpec.quadratic()
                got = kkt_residual(mu, nu, t, certified)
                if np.array_equal(t, mu.atoms):
                    # mu <=_c nu to 1e-12 * scale: t = x is reported exact
                    assert sol.kkt_residual == 0.0 and got <= 1e-12 * s
                else:
                    moved += 1
                    assert sol.kkt_residual == got
        assert moved >= 600


def _weights(rng, n):
    return rng.dirichlet(np.ones(n))


def _clustered_target(rng, n, clusters, per_cluster):
    """mu: n atoms U(-3, 3); nu: clusters of per_cluster atoms 10^U(-10, -6)
    apart around U(-2, 2) centres; Dirichlet(1) weights."""
    gaps = 10.0 ** rng.uniform(-10.0, -6.0, (clusters, per_cluster))
    gaps[:, 0] = 0.0
    y = (rng.uniform(-2.0, 2.0, (clusters, 1)) + np.cumsum(gaps, axis=1)).ravel()
    mu = dm(np.sort(rng.uniform(-3.0, 3.0, n)), rng.dirichlet(np.ones(n)))
    return mu, dm(y, rng.dirichlet(np.ones(y.size)))


class TestTenThousandAtoms:
    """Property families at n = 10^4: the solve is certified and admissible,
    and t(mu) keeps nu's mean, read off the weights, to 1e-14 * scale. Wide
    offsets (up to 1e6, an ulp of 1.2e-10) check the solve only."""

    N = 10_000

    @pytest.mark.parametrize("family", ["mix", "spread", "clustered", "offset"])
    def test_certified(self, family):
        rng = np.random.default_rng(10_000)
        for _ in range(3):
            if family == "mix":
                mu, nu = mix_pair(rng, self.N, self.N)
            elif family == "spread":
                mu, nu = spread_pair(rng, self.N)
            elif family == "clustered":
                mu, nu = _clustered_target(rng, self.N, 100, 100)
            else:
                offset = float(rng.uniform(-1e6, 1e6))
                mu, nu = (m.shift(offset) for m in mix_pair(rng, self.N, self.N))
            s = support_scale(mu, nu)
            sol = solve_weak_transport(mu, nu)
            assert sol.kkt_residual <= 1e-8 * s
            assert verify_admissible(sol.map, mu, nu).ok
            if family != "offset":
                assert abs(np.dot(mu.weights, sol.map.knots_t) - mean(nu)) <= 1e-14 * s


class TestHullProperties:
    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        clusters=st.integers(1, 5),
        per_cluster=st.integers(1, 6),
        log_gap=st.floats(-10.0, -6.0),
    )
    def test_clustered_target_atoms(self, seed, n, clusters, per_cluster, log_gap):
        rng = np.random.default_rng(seed)
        gaps = 10.0 ** rng.uniform(log_gap, -6.0, (clusters, per_cluster))
        gaps[:, 0] = 0.0
        y = (rng.uniform(-2.0, 2.0, (clusters, 1)) + np.cumsum(gaps, axis=1)).ravel()
        mu = dm(np.sort(rng.uniform(-3.0, 3.0, n)), _weights(rng, n))
        nu = dm(y, _weights(rng, y.size))
        _assert_certified(mu, nu)

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        light=st.integers(1, 8),
        log_floor=st.floats(-6.0, -3.0),
    )
    def test_tiny_source_weights(self, seed, n, light, log_floor):
        rng = np.random.default_rng(seed)
        light = min(light, n - 1)
        p = _weights(rng, n)
        idx = rng.choice(n, light, replace=False)
        heavy = np.setdiff1d(np.arange(n), idx)
        p[idx] = 10.0 ** rng.uniform(log_floor, -3.0, light)
        p[heavy] *= (1.0 - p[idx].sum()) / p[heavy].sum()
        mu = dm(np.sort(rng.uniform(-3.0, 3.0, n)), p)
        m = int(rng.integers(1, 31))
        nu = dm(np.sort(rng.uniform(-2.0, 2.0, m)), _weights(rng, m))
        _assert_certified(mu, nu)

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        m=st.integers(1, 30),
        offset=st.floats(-1e6, 1e6),
    )
    def test_wide_offsets(self, seed, n, m, offset):
        rng = np.random.default_rng(seed)
        mu, nu = mix_pair(rng, n, m)
        _assert_certified(mu.shift(offset), nu.shift(offset))
