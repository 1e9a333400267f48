import numpy as np
import pytest

from wmrline import (
    ConsistencyError,
    CostSpec,
    MonotoneMap,
    PreconditionError,
    build_martingale_coupling,
    compose_with_map,
    convex_order_leq,
    convex_order_max_map,
    convex_order_min_with_maps,
    lower_convex_envelope,
    measures_close,
    mean,
    optimality_certificate,
    pl_max,
    potential,
    potential_at,
    pushforward,
    residual_order_check,
    reverse_optimizer,
    solve_weak_transport,
    support_scale,
)

from conftest import (
    dirac,
    dm,
    mix_pair,
    nth_mix_pair,
    random_measure,
    random_one_lipschitz_values,
    random_ordered_pair,
    spread_pair,
)
from wmrline import measures, reverse, wmr
from wmrline.measures import PiecewiseLinearFn, _drop_collinear, _lower_hull, level_blocks, quantiles_at
from wmrline.reverse import _verify_reverse


class TestReverseOptimizer:
    def test_equal_measures(self):
        nu = dm([-1, 0.5, 2], [0.3, 0.4, 0.3])
        r = reverse_optimizer(nu, nu)
        assert measures_close(r.nu_star, nu)
        assert np.allclose(r.tilde_map(nu.atoms), nu.atoms)
        assert r.value == 0.0

    def test_dirac_source_zero_displacement(self):
        r = reverse_optimizer(dirac(0.0), dm([-1, 1]))
        assert measures_close(r.nu_star, dm([-1, 1]))
        assert np.allclose(r.tilde_map.knots_t, r.tilde_map.knots_x)
        assert r.value == pytest.approx(0.0, abs=1e-12)

    def test_pure_contraction(self):
        mu, nu = dm([-2, 2]), dm([-1, 1])
        r = reverse_optimizer(mu, nu)
        assert measures_close(r.nu_star, mu)
        assert np.allclose(r.tilde_map(mu.atoms), [-1.0, 1.0], atol=1e-10)
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_boundary_inflow_shift(self):
        # atoms of nu sit at the component endpoints; their inflow shifts by
        # the component displacement
        r = reverse_optimizer(dirac(0.0), dm([0, 2]))
        assert measures_close(r.nu_star, dm([-1, 1]))
        assert np.allclose(r.tilde_map.knots_t, [0.0, 2.0])
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_value_identity_random(self, rng):
        for _ in range(40):
            mu = random_measure(rng, max_atoms=10)
            nu = random_measure(rng, max_atoms=10)
            for cost in (CostSpec.quadratic(), CostSpec.quartic()):
                r = reverse_optimizer(mu, nu, cost)
                direct = solve_weak_transport(mu, nu, cost)
                s = support_scale(mu, nu)
                assert abs(r.value - direct.value) <= 1e-9 * max(1.0, s) * max(
                    1.0, abs(direct.value)
                )
                assert convex_order_leq(mu, r.nu_star)
                pushed = pushforward(
                    r.nu_star, r.tilde_map(r.nu_star.atoms)
                )
                assert measures_close(pushed, nu, 1e-9)
                # the reverse map restricted to supp(mu) is the rearrangement
                gap = np.abs(r.tilde_map(mu.atoms) - direct.map(mu.atoms))
                assert gap.max() <= 1e-8 * s

    def test_minimality_against_block_shift_competitors(self, rng):
        checked = 0
        for _ in range(25):
            mu = random_measure(rng, max_atoms=6, span=2.0)
            nu = random_measure(rng, max_atoms=6, span=3.0)
            r = reverse_optimizer(mu, nu)
            for _ in range(8):
                d = np.cumsum(rng.uniform(0, 0.8, nu.n))
                d = d - float(np.dot(nu.weights, d)) + (mean(mu) - mean(nu))
                z = nu.atoms + d
                if np.any(np.diff(z) <= 0):
                    continue
                eta = dm(z, nu.weights)
                if not convex_order_leq(mu, eta):
                    continue
                checked += 1
                assert convex_order_leq(r.nu_star, eta)
        assert checked > 50


# a trailing weight below the rounding of the cumulative sum before it
TINY_TAIL = [0.17227609353408005, 0.35023981772382573, 0.31618173410429423,
             0.16130235463779996, 2.836276496654493e-17]


class TestSubUlpWeights:
    """A weight below the rounding of the cumulative sum before it has no
    block of the merged levels; the rearrangement gives it one of its own
    weight, so nu* carries a point for it on either side."""

    def test_tiny_tail_pair_both_ways(self):
        mu, nu = dm(np.arange(5.0), TINY_TAIL), dm([0.0, 4.0])
        r = reverse_optimizer(mu, nu)
        # the light atom stays inside nu's hull, as a vanishing weight would leave it
        assert solve_weak_transport(mu, nu).map(4.0)[0] == r.tilde_map(4.0)[0] == 4.0
        r = reverse_optimizer(nu, mu)
        assert measures_close(r.tilde_map.push(r.nu_star), mu)
        assert r.value == pytest.approx(solve_weak_transport(nu, mu).value, rel=1e-12)

    def test_random_draws_both_ways(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            n, m = int(rng.integers(3, 41)), int(rng.integers(1, 41))
            x, y = np.sort(rng.uniform(-3.0, 3.0, n)), np.sort(rng.uniform(-2.0, 2.0, m))
            p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
            light = rng.choice(n, int(rng.integers(1, 4)), replace=False)
            p[light] = 10.0 ** rng.uniform(-20.0, -17.0, light.size)
            mu, nu = dm(x, p / p.sum()), dm(y, q / q.sum())
            reverse_optimizer(mu, nu)
            reverse_optimizer(nu, mu)

    def test_light_atoms_on_both_sides_open_no_spurious_interval(self):
        # nu's levels at its atoms 2 and 3 differ from level 1's by sub-ulp
        # weights, and a contact of (nu*, mu) sits within 1e-12 of all three:
        # snapping it to the nearest one opened the interval (-1.1199, -0.2344)
        # of nu*, on which the reverse map is constant
        mu = dm(
            [-1.3956115593734326, -1.2338253346558379, -0.16184164231232234],
            [0.5466640968399488, 0.4416368162273287, 0.011699086932722638],
        )
        nu = dm(
            [-2.489166476444975, -1.747284719641054, -1.119903900469436, -0.646108788607024,
             -0.3762922902836081, 1.5108639113087463, 2.2287330900456848],
            [0.019708648599842078, 0.11128653853398726, 1.468026492901551e-17,
             2.5992176224318943e-21, 0.474036583381856, 1.581686635052267e-18, 0.3949682294843147],
        )
        r = reverse_optimizer(nu, mu)
        assert not any(iv.contains(-1.0) for iv in r.irreducibles_mu_nustar)
        assert measures_close(r.tilde_map.push(r.nu_star), mu)

    def test_random_draws_light_on_either_side(self):
        rng = np.random.default_rng(5)

        def lighten(m):
            w = m.weights.copy()
            light = rng.choice(m.n, min(int(rng.integers(1, 5)), m.n), replace=False)
            w[light] = 10.0 ** rng.uniform(-22.0, -16.0, light.size)
            return dm(m.atoms, w / w.sum())

        for _ in range(1500):
            mu, nu = random_measure(rng), random_measure(rng)
            side = int(rng.integers(0, 3))  # mu, nu or both
            if side != 1:
                mu = lighten(mu)
            if side != 0:
                nu = lighten(nu)
            reverse_optimizer(mu, nu)
            reverse_optimizer(nu, mu)


class TestTargetAtomsNearTheMergeTolerance:
    """nu's last two atoms are 3.3e-12 apart: above nu's merge tolerance
    (2.6e-12), below that of nu*, which spans more (5.5e-12). nu* merges the
    two points that carry them, so its reverse map cannot push it onto nu.
    Valid input, so a mend turns the pinned failure into an XPASS."""

    mu = dm(
        [-2.565149625834948, -0.47622457073902424, 0.1880569713733622, 0.9656670716945568],
        [0.40977708081675424, 0.00566067469858992, 0.30951031090176817, 0.2750519335828877],
    )
    nu = dm(
        [-1.3643652792903938, 0.1951958640093907, 0.9258380075921644, 1.2000411356946017,
         1.2000411356979086],
        [0.05810300747762605, 0.01869968325601717, 0.36635302590857244, 0.19942948656109252,
         0.3574147967966918],
    )

    @pytest.mark.xfail(strict=True, raises=ConsistencyError, reason="nu* merges two points of nu")
    def test_reverse(self):
        reverse_optimizer(self.mu, self.nu)

    def test_reverse_the_other_way(self):
        r = reverse_optimizer(self.nu, self.mu)
        assert measures_close(r.tilde_map.push(r.nu_star), self.mu)

    def test_solve_build_compose_certify(self):
        sol = solve_weak_transport(self.mu, self.nu)
        mg = build_martingale_coupling(sol.pushforward, self.nu)
        pi = compose_with_map(self.mu, sol.map, mg)
        assert optimality_certificate(pi, self.mu, self.nu).ok


class TestReverseShapeCheck:
    def test_failure_names_the_worst_pair(self):
        # the shape of the reverse map is checked before any other argument is read
        tilde = MonotoneMap(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 0.5, 0.4]))
        with pytest.raises(
            ConsistencyError,
            match=r"^reverse map is not increasing and 1-Lipschitz: "
            r"decreasing between atoms 1\.0 and 2\.0$",
        ):
            _verify_reverse(None, None, None, tilde, None, None, None, None, 1.0)


class TestReversePushCheck:
    def test_failure_names_the_worst_atom(self):
        # shape and order pass (nu* = mu); the images put mass at 1 where nu has 1.5
        mu, nu = dm([0.0, 1.0]), dm([0.0, 1.5])
        tilde = MonotoneMap.identity(mu.atoms)
        args = (mu, nu, mu, tilde)
        with pytest.raises(
            ConsistencyError,
            match=r"^reverse map does not push nu\* onto nu: "
            r"position of atom 1 off by 5\.000e-01 \(tol 1\.500e-09\)$",
        ):
            _verify_reverse(*args, mu.atoms, mu.weights, None, None, 1.0)
        with pytest.raises(
            ConsistencyError, match=r"^reverse map does not push nu\* onto nu: 1 atoms against 2$"
        ):
            _verify_reverse(*args, np.array([0.75, 0.75]), mu.weights, None, None, 1.0)
        with pytest.raises(
            ConsistencyError,
            match=r"^reverse map does not push nu\* onto nu: "
            r"weight of atom 0 off by 2\.500e-01 \(tol 1\.000e-09\)$",
        ):
            _verify_reverse(mu, dm([0.0, 1.0]), mu, tilde, mu.atoms, np.array([0.25, 0.75]), None, None, 1.0)


class TestReverseClosedForm:
    def test_nu_star_is_the_shifted_quantile(self):
        # nu* is the law of F_nu^{-1}(U) + d(F_mu^{-1}(U)), d = x - T(x), and
        # the reverse map sends it back to F_nu^{-1}(U)
        rng = np.random.default_rng(5)
        for k in range(60):
            n, m = (int(v) for v in rng.integers(1, 30, 2))
            mu, nu = mix_pair(rng, n, m)
            if k % 3 == 0:
                nu = nu.shift(float(rng.uniform(-1.0, 1.0)))
            r = reverse_optimizer(mu, nu)
            d = mu.atoms - solve_weak_transport(mu, nu).map(mu.atoms)
            u = rng.uniform(0.0, 1.0, 500)
            z = quantiles_at(r.nu_star, u)
            s = support_scale(mu, nu)
            shift = np.interp(quantiles_at(mu, u), mu.atoms, d)
            assert np.abs(z - quantiles_at(nu, u) - shift).max() <= 1e-9 * s
            assert np.abs(r.tilde_map(z) - quantiles_at(nu, u)).max() <= 1e-9 * s

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_ordered_spread_pair_of_the_scale_workload(self, n):
        # the first spread_pair draw of default_rng(7): eta <=_c nu, so
        # nu* = nu and the reverse map is the identity
        eta, nu = spread_pair(np.random.default_rng(7), n)
        r = reverse_optimizer(eta, nu)
        assert measures_close(r.nu_star, nu, 1e-12)
        assert np.array_equal(r.tilde_map.knots_t, r.tilde_map.knots_x)
        assert r.value == 0.0

    def test_pair_whose_close_target_atoms_split_an_interval(self):
        # two nu atoms 1.7e-6 apart, with a potential gap below the order
        # tolerance between them, split one irreducible interval in two
        mu, nu = nth_mix_pair(0, 4, (25, 50, 100, 200))
        assert mu.n == nu.n == 200
        r = reverse_optimizer(mu, nu)
        assert r.value == pytest.approx(solve_weak_transport(mu, nu).value, rel=1e-9)

    def test_blocks_of_mu_and_nu_formed_once(self, monkeypatch):
        # the map and the points of nu* come from the same level_blocks(mu, nu)
        pairs = []

        def counted(a, b):
            pairs.append((a, b))
            return level_blocks(a, b)

        for module in (measures, wmr, reverse):
            monkeypatch.setattr(module, "level_blocks", counted, raising=False)
        mu, nu = nth_mix_pair(1, 2, (30,))
        reverse_optimizer(mu, nu)
        assert sum(a is mu and b is nu for a, b in pairs) == 1


class TestConvexOrderMaxMap:
    def test_equal_maps(self, rng):
        mu = random_measure(rng, max_atoms=6)
        T = MonotoneMap(mu.atoms, random_one_lipschitz_values(rng, mu.atoms))
        R = convex_order_max_map(T, T, mu)
        assert np.allclose(R(mu.atoms), T(mu.atoms))

    def test_identity_beats_collapse(self):
        mu = dm([-1, 1])
        R = convex_order_max_map(
            MonotoneMap.identity(mu.atoms), MonotoneMap(mu.atoms, np.zeros(2)), mu
        )
        assert np.allclose(R(mu.atoms), mu.atoms)

    def test_scaled_two_point(self):
        mu = dm([-1, 1])
        R = convex_order_max_map(
            MonotoneMap(mu.atoms, 0.2 * mu.atoms), MonotoneMap(mu.atoms, 0.8 * mu.atoms), mu
        )
        assert np.allclose(R(mu.atoms), 0.8 * mu.atoms)

    def test_mean_mismatch_rejected(self):
        mu = dm([-1, 1])
        want = r"^map maximum needs equal pushforward means: off by 1\.000e\+00 \(tol 3\.000e-09\)$"
        with pytest.raises(PreconditionError, match=want):
            convex_order_max_map(MonotoneMap.identity(mu.atoms), MonotoneMap(mu.atoms, mu.atoms + 1.0), mu)

    def test_unrealized_maximum_names_the_worst_atom(self, monkeypatch):
        # the assignment realizes the maximum by construction; moved by 1 it does not
        real = reverse.quantile_assignment
        monkeypatch.setattr(reverse, "quantile_assignment", lambda a, b: real(a, b) + 1.0)
        mu = dm([-1, 1])
        want = (
            r"^no increasing map realizes the convex-order maximum: "
            r"position of atom 0 off by 1\.000e\+00 \(tol 3\.000e-09\)$"
        )
        with pytest.raises(ConsistencyError, match=want):
            convex_order_max_map(MonotoneMap.identity(mu.atoms), MonotoneMap.identity(mu.atoms), mu)

    def test_potential_is_exact_pointwise_max(self, rng):
        for _ in range(30):
            mu = random_measure(rng, max_atoms=8)
            vals_t = random_one_lipschitz_values(rng, mu.atoms)
            vals_s = random_one_lipschitz_values(rng, mu.atoms)
            vals_s = vals_s - float(np.dot(mu.weights, vals_s)) + float(
                np.dot(mu.weights, vals_t)
            )
            T = MonotoneMap(mu.atoms, vals_t)
            S = MonotoneMap(mu.atoms, vals_s)
            R = convex_order_max_map(T, S, mu)
            Rmu, Tmu, Smu = R.push(mu), T.push(mu), S.push(mu)
            pts = np.concatenate([Tmu.atoms, Smu.atoms, Rmu.atoms])
            u_R = potential_at(Rmu, pts)
            u_max = np.maximum(potential_at(Tmu, pts), potential_at(Smu, pts))
            assert np.abs(u_R - u_max).max() <= 1e-9 * support_scale(Tmu, Smu)
            # 1-Lipschitz inputs give a 1-Lipschitz output
            rv = R(mu.atoms)
            assert np.all(np.diff(rv) <= np.diff(mu.atoms) + 1e-9)
            assert np.all(np.diff(rv) >= -1e-9)


class TestConvexOrderMinWithMaps:
    def test_equal_inputs(self):
        eta = dm([-1, 1])
        T = MonotoneMap(eta.atoms, 2.0 * eta.atoms)
        out_eta, out_T = convex_order_min_with_maps(eta, T, eta, T)
        assert measures_close(out_eta, eta)
        assert np.allclose(out_T(eta.atoms), T(eta.atoms))

    def test_comparable_pair(self):
        eta1, T1 = dm([-1, 1]), MonotoneMap(np.array([-1.0, 1.0]), np.array([-2.0, 2.0]))
        eta2, T2 = dm([-2, 2]), MonotoneMap.identity(np.array([-2.0, 2.0]))
        out_eta, out_T = convex_order_min_with_maps(eta1, T1, eta2, T2)
        assert measures_close(out_eta, eta1)
        assert np.allclose(out_T(eta1.atoms), [-2.0, 2.0])

    def test_dirac_is_minimum(self):
        eta1, T1 = dirac(0.0), MonotoneMap(np.array([0.0]), np.array([5.0]))
        eta2, T2 = dm([-1, 1]), MonotoneMap(np.array([-1.0, 1.0]), np.array([5.0, 5.0]))
        out_eta, out_T = convex_order_min_with_maps(eta1, T1, eta2, T2)
        assert measures_close(out_eta, dirac(0.0))
        assert out_T(np.array([0.0]))[0] == 5.0

    def test_pushforward_mismatch_rejected(self):
        eta = dm([-1, 1])
        want = (
            r"^both maps must push onto the same measure: "
            r"position of atom 0 off by 1\.000e\+00 \(tol 3\.000e-09\)$"
        )
        with pytest.raises(PreconditionError, match=want):
            convex_order_min_with_maps(
                eta, MonotoneMap.identity(eta.atoms), eta, MonotoneMap(eta.atoms, eta.atoms + 1.0)
            )

    def test_unrealized_minimum_names_the_worst_atom(self, monkeypatch):
        # the assignment pushes the minimum onto nu by construction; moved by 1 it does not
        real = reverse.quantile_assignment
        monkeypatch.setattr(reverse, "quantile_assignment", lambda a, b: real(a, b) + 1.0)
        eta = dm([-1, 1])
        T = MonotoneMap.identity(eta.atoms)
        want = (
            r"^no increasing map pushes the minimum onto nu: "
            r"position of atom 0 off by 1\.000e\+00 \(tol 3\.000e-09\)$"
        )
        with pytest.raises(ConsistencyError, match=want):
            convex_order_min_with_maps(eta, T, eta, T)

    def test_envelope_exact_and_pushforward_exact(self, rng):
        # equal-mean inputs: otherwise the envelope is not itself a potential
        # (the hull's two asymptote intercepts differ) and only the hull's
        # slopes define the minimum
        for _ in range(30):
            nu = random_measure(rng, max_atoms=7)
            outs = []
            for _ in range(2):
                d = np.cumsum(rng.uniform(0, 0.5, nu.n))
                d -= float(np.dot(nu.weights, d))  # common pushforward-mean shift
                z = nu.atoms + d
                if np.any(np.diff(z) <= 0):
                    z = nu.atoms + np.linspace(0, 0.5, nu.n) - float(
                        np.dot(nu.weights, np.linspace(0, 0.5, nu.n))
                    )
                eta = dm(z, nu.weights)
                outs.append((eta, MonotoneMap(z, nu.atoms.copy())))
            (eta1, T1), (eta2, T2) = outs
            eta, Tstar = convex_order_min_with_maps(eta1, T1, eta2, T2)
            env = lower_convex_envelope(potential(eta1), potential(eta2))
            pts = np.concatenate([eta1.atoms, eta2.atoms, eta.atoms, env.breakpoints])
            assert np.abs(potential_at(eta, pts) - env(pts)).max() <= 1e-9 * support_scale(
                eta1, eta2
            )
            assert measures_close(Tstar.push(eta), nu, 1e-9)
            assert convex_order_leq(eta, eta1) and convex_order_leq(eta, eta2)


class TestResidualOrderCheck:
    def test_trivial_equality(self):
        m = dm([-1, 1])
        ident = MonotoneMap.identity(m.atoms)
        assert residual_order_check(m, m, ident, ident)

    def test_hand_instance(self):
        mu = dm([-2, 2])
        T1 = MonotoneMap(mu.atoms, mu.atoms / 2)
        T2 = MonotoneMap(mu.atoms, np.zeros(2))
        assert residual_order_check(mu, mu, T1, T2)

    def test_precondition_enforced(self):
        mu, nu = dm([-1, 1]), dm([-2, 2])
        ident_mu = MonotoneMap.identity(mu.atoms)
        ident_nu = MonotoneMap.identity(nu.atoms)
        with pytest.raises(PreconditionError):
            residual_order_check(nu, mu, ident_nu, ident_mu)  # eta1 not <=_c eta2

    def test_precondition_failures_name_their_margin(self):
        mu, nu = dm([-1, 1]), dm([-2, 2])
        ident_mu, ident_nu = MonotoneMap.identity(mu.atoms), MonotoneMap.identity(nu.atoms)
        want = (
            r"^need eta1 <=_c eta2: eta1 <=_c eta2 fails: "
            r"u_eta1 - u_eta2 = 1\.000e\+00 at eta2's atom 0 \(-1\.0\), above tol 4\.000e-09$"
        )
        with pytest.raises(PreconditionError, match=want):
            residual_order_check(nu, mu, ident_nu, ident_mu)
        want = r"^need T2\(eta2\) <=_c T1\(eta1\): T2\(eta2\) <=_c T1\(eta1\) fails: u_T2\(eta2\)"
        with pytest.raises(PreconditionError, match=want):
            residual_order_check(mu, nu, MonotoneMap(mu.atoms, 0.5 * mu.atoms), ident_nu)
        want = r"^maps must be 1-Lipschitz on the atoms: expansion by 2\.000e\+00 between atoms -1\.0 and 1\.0$"
        with pytest.raises(PreconditionError, match=want):
            residual_order_check(mu, nu, MonotoneMap(mu.atoms, 2.0 * mu.atoms), ident_nu)
        want = r"^maps must be increasing on the atoms: decreasing between atoms -1\.0 and 1\.0$"
        with pytest.raises(PreconditionError, match=want):
            residual_order_check(mu, nu, MonotoneMap(mu.atoms, -mu.atoms), ident_nu)

    def test_random_instances(self, rng):
        ran = 0
        while ran < 60:
            eta2 = random_measure(rng, max_atoms=8)
            vals = random_one_lipschitz_values(rng, eta2.atoms)
            vals = vals - float(np.dot(eta2.weights, vals)) + mean(eta2)
            if np.any(np.diff(vals) <= 0):
                continue
            eta1 = dm(vals, eta2.weights)  # eta1 <=_c eta2 by construction
            T1 = MonotoneMap(eta1.atoms, random_one_lipschitz_values(rng, eta1.atoms))
            # T2 = R o T1 o S pushes eta2 through eta1's image and a further
            # mean-preserving contraction, so T2(eta2) <=_c T1(eta1)
            xi = T1.push(eta1)
            rvals = random_one_lipschitz_values(rng, xi.atoms)
            rvals = rvals - float(np.dot(xi.weights, rvals)) + mean(xi)
            t2_vals = np.interp(
                np.interp(eta2.atoms, eta2.atoms, eta1.atoms), T1.knots_x, T1.knots_t
            )
            t2_vals = np.interp(t2_vals, xi.atoms, rvals)
            T2 = MonotoneMap(eta2.atoms, t2_vals)
            try:
                ok = residual_order_check(eta1, eta2, T1, T2)
            except PreconditionError:
                continue
            ran += 1
            assert ok


class TestPotentialArithmetic:
    def test_pl_max_is_pointwise_max(self, rng):
        for _ in range(20):
            a = random_measure(rng, max_atoms=6)
            b = random_measure(rng, max_atoms=6)
            f, g = potential(a), potential(b)
            h = pl_max(f, g)
            pts = np.linspace(min(a.atoms[0], b.atoms[0]) - 1, max(a.atoms[-1], b.atoms[-1]) + 1, 400)
            assert np.abs(h(pts) - np.maximum(f(pts), g(pts))).max() <= 1e-10

    def test_envelope_below_both_and_convex(self, rng):
        for _ in range(20):
            a = random_measure(rng, max_atoms=6)
            b = random_measure(rng, max_atoms=6)
            f, g = potential(a), potential(b)
            e = lower_convex_envelope(f, g)
            pts = np.linspace(min(a.atoms[0], b.atoms[0]) - 1, max(a.atoms[-1], b.atoms[-1]) + 1, 400)
            assert np.all(e(pts) <= np.minimum(f(pts), g(pts)) + 1e-10)
            slopes = e.slopes()
            assert np.all(np.diff(slopes) >= -1e-12)
            # greatest such function: touches min(f, g) at every kink
            kinks = e.breakpoints
            assert np.all(
                e(kinks) >= np.minimum(f(kinks), g(kinks)) - 1e-9
            )

    def test_envelope_matches_the_padded_hull(self, rng):
        for k in range(500):
            a, b = mix_pair(rng, int(rng.integers(1, 20)), int(rng.integers(1, 20)))
            if k % 2:  # equal means
                b = b.shift(mean(a) - mean(b))
            f, g = potential(a), potential(b)
            e, ref = lower_convex_envelope(f, g), _padded_envelope(f, g)
            pts = np.concatenate((e.breakpoints, ref.breakpoints, f.breakpoints, g.breakpoints))
            pts = np.append(pts, (pts.min() - 1.0, pts.max() + 1.0))
            assert np.abs(e(pts) - ref(pts)).max() <= 1e-12 * support_scale(a, b)


def _padded_envelope(f, g):
    """The lower hull of min(f, g) on the merged breakpoints padded by one
    sentinel on each side, far enough out that both functions are in their
    linear tails, with the sentinels stripped afterwards; kept as the
    reference of lower_convex_envelope."""
    grid = np.union1d(f.breakpoints, g.breakpoints)
    pad = 1.0 + float(grid[-1] - grid[0])
    grid = np.concatenate(([grid[0] - pad], grid, [grid[-1] + pad]))
    vals = np.minimum(f(grid), g(grid))
    hull = _lower_hull(grid, vals)
    bp, vv = grid[hull][1:-1], vals[hull][1:-1]
    return PiecewiseLinearFn(*_drop_collinear(bp, vv))
