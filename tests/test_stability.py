import time
from types import SimpleNamespace

import numpy as np
import pytest

from wmrline import (
    ConsistencyError,
    CostSpec,
    DiscreteMeasure,
    DomainError,
    HypothesisError,
    OrderError,
    PerturbationLadder,
    convex_order_leq,
    eta_transfer,
    finite_support_approx,
    mean,
    measures_close,
    run_stability_experiment,
    solve_weak_transport,
    support_scale,
    truncate_mean_preserving,
    wasserstein,
)

from wmrline import martingale, measures, stability
from wmrline.measures import _order_check, level_blocks
from wmrline.stability import MAP_GAP_EPS, _map_gaps

from conftest import (
    OFFSET_COUPLING_FAILURES,
    dirac,
    dm,
    mix_and_offset_pairs,
    offset_pair,
    random_measure,
    random_ordered_pair,
)


class TestEtaTransfer:
    def test_identity_perturbation(self, rng):
        eta, nu = random_ordered_pair(rng, max_atoms=6)
        out = eta_transfer(eta, nu, nu)
        assert measures_close(out, eta, 1e-9)

    def test_shift_perturbation(self, rng):
        eta, nu = random_ordered_pair(rng, max_atoms=6)
        h = 0.37
        out = eta_transfer(eta, nu, nu.shift(h))
        assert np.allclose(out.atoms, eta.atoms + h)

    def test_dirac_follows_target_mean(self):
        nu = dm([-1, 1])
        k = 5
        out = eta_transfer(dirac(0.0), nu, nu.shift(1.0 / k))
        assert out.n == 1 and out.atoms[0] == pytest.approx(1.0 / k)

    def test_requires_order(self):
        want = (
            r"^eta_transfer requires eta <=_c nu: eta <=_c nu fails: "
            r"u_eta - u_nu = 1\.000e\+00 at nu's atom 0 \(-1\.0\), above tol 4\.000e-09$"
        )
        with pytest.raises(OrderError, match=want):
            eta_transfer(dm([-2, 2]), dm([-1, 1]), dm([-1, 1]))

    def test_per_atom_bound_failure_names_the_atom_and_bound(self, monkeypatch):
        # the bound holds by construction; W_1(nu, nu_k) read as 0 breaks it
        eta, nu = dirac(0.0), dm([-1, 1])
        real = stability.wasserstein
        monkeypatch.setattr(stability, "wasserstein", lambda a, b, rho: 0.0 if a is nu else real(a, b, rho))
        want = r"^per-atom transfer bound violated at atom 0: off by 5\.000e-01 \(tol 2\.500e-09\)$"
        with pytest.raises(ConsistencyError, match=want):
            eta_transfer(eta, nu, nu.shift(0.5))

    def test_order_failure_of_the_transfer_names_the_witness(self, monkeypatch):
        # the coupling is a martingale by construction; a build that sends all
        # of eta to nu's upper atom moves eta_k's mean off nu_k's
        nu = dm([-1, 1])
        upper = SimpleNamespace(rows=np.array([0]), cols=np.array([1]), mass=np.array([1.0]))
        monkeypatch.setattr(martingale, "_left_curtain", lambda eta, nu: upper)
        want = (
            r"^transferred measure is not below nu_k in convex order: eta_k <=_c nu_k fails: "
            r"mean\(eta_k\) - mean\(nu_k\) = 1\.000e\+00, above tol 2\.000e-08$"
        )
        with pytest.raises(ConsistencyError, match=want):
            eta_transfer(dirac(0.0), nu, nu)

    def test_chain_bound_failure_names_the_margin(self, monkeypatch):
        # the bound holds by construction; W_rho(eta, eta_k) read 1 too high breaks it
        eta, nu = dirac(0.0), dm([-1, 1])
        real = stability.wasserstein
        monkeypatch.setattr(stability, "wasserstein", lambda a, b, rho: real(a, b, rho) + (a is eta))
        want = r"^W_1\.0 chain bound violated: off by 1\.000e\+00 \(tol 2\.500e-09\)$"
        with pytest.raises(ConsistencyError, match=want):
            eta_transfer(eta, nu, nu.shift(0.5))

    def test_a_passing_transfer_checks_the_order_twice(self, monkeypatch, rng):
        # once for eta <=_c nu, which the coupling's sweep then takes as given,
        # and once for the transferred eta_k <=_c nu_k
        calls = []

        def counted(*args):
            calls.append(args)
            return _order_check(*args)

        eta, nu = random_ordered_pair(rng, max_atoms=6)
        monkeypatch.setattr(measures, "_order_check", counted)
        eta_transfer(eta, nu, nu.shift(0.25))
        assert len(calls) == 2

    def test_chain_and_per_atom_bounds(self, rng):
        for _ in range(40):
            eta, nu = random_ordered_pair(rng, max_atoms=7)
            nu_k = random_measure(rng, max_atoms=7)
            out = eta_transfer(eta, nu, nu_k)
            s = support_scale(eta, nu, nu_k)
            assert convex_order_leq(out, nu_k, 1e-8)
            for rho in (1.0, 2.0, 3.0):
                assert wasserstein(eta, out, rho) <= wasserstein(nu, nu_k, rho) + 1e-9 * s
            if out.n == eta.n:  # image atoms did not merge: per-atom bound
                w1 = wasserstein(nu, nu_k, 1.0)
                assert np.abs(eta.atoms - out.atoms).max() <= w1 / eta.weights.min() + 1e-9 * s

    def test_wide_offsets(self):
        """The offset_pair draws k = 0..159 of default_rng(k) (offsets up to
        1e6), nu shifted by 0.1. With the conditional means summed in absolute
        coordinates, 39 of them raised ConsistencyError (35 on the convex
        order of eta_k, 4 on the W_1 chain bound); only the draws whose
        coupling misses its gate are left out. eta_transfer checks its own
        order and chain bounds and raises when one fails."""
        for k in range(160):
            if k in OFFSET_COUPLING_FAILURES:
                continue
            mu, nu = offset_pair(np.random.default_rng(k))
            eta_transfer(solve_weak_transport(mu, nu).pushforward, nu, nu.shift(0.1))


class TestTruncateMeanPreserving:
    def test_single_atom_unchanged(self):
        out = truncate_mean_preserving(dirac(0.0), 0.4)
        assert measures_close(out.renormalized, dirac(0.0))

    def test_symmetric_split(self):
        out = truncate_mean_preserving(dm([-1, 1]), 0.5)
        assert np.allclose(out.weights, [0.25, 0.25])
        assert measures_close(out.renormalized, dm([-1, 1]))
        assert mean(out.renormalized) == pytest.approx(0.0, abs=1e-15)

    def test_asymmetric_linear_solve(self):
        # remove 0.05 from the left tail, 0.15 from the right: removed moment
        # 0.15 * 4 = 0.6 = 0.2 * mean
        out = truncate_mean_preserving(dm([0, 4], [0.25, 0.75]), 0.2)
        assert np.allclose(out.weights, [0.2, 0.6])
        assert mean(out.renormalized) == pytest.approx(3.0, abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            truncate_mean_preserving(dm([-1, 1]), 0.0)
        with pytest.raises(DomainError):
            truncate_mean_preserving(dm([-1, 1]), 1.0)

    def test_random_instances(self, rng):
        for _ in range(40):
            eta = random_measure(rng, max_atoms=9)
            eps = float(rng.uniform(0.05, 0.9))
            out = truncate_mean_preserving(eta, eps)
            assert np.all(out.weights <= eta.weights + 1e-15)
            assert out.kept_mass >= 1.0 - eps - 1e-12
            s = support_scale(eta)
            assert abs(mean(out.renormalized) - mean(eta)) <= 1e-12 * s

    def test_scale(self):
        """n = 10^4 atoms in one prefix-sum pass; the breakpoint scan it
        replaced was worse than quadratic and took seconds at this size."""
        rng = np.random.default_rng(13)
        n = 10_000
        eta = DiscreteMeasure(np.sort(rng.uniform(-3.0, 3.0, n)), rng.dirichlet(np.ones(n)))
        start = time.perf_counter()
        out = truncate_mean_preserving(eta, 0.3)
        elapsed = time.perf_counter() - start
        assert elapsed <= 0.25, f"truncation at n = 10^4 took {elapsed:.2f}s"
        assert out.kept_mass == pytest.approx(0.7, abs=1e-12)
        assert abs(mean(out.renormalized) - mean(eta)) <= 1e-12 * support_scale(eta)


class TestFiniteSupportApprox:
    def test_own_cells_unchanged(self, rng):
        m = random_measure(rng, max_atoms=5)
        assert finite_support_approx(m, 50) == m

    def test_single_cell_is_mean(self):
        m = dm([0, 1, 2, 3])
        out = finite_support_approx(m, 1)
        assert out.n == 1 and out.atoms[0] == pytest.approx(mean(m))

    def test_two_cells(self):
        out = finite_support_approx(dm([0, 1, 2, 3]), 2)
        assert np.allclose(out.atoms, [0.5, 2.5]) and np.allclose(out.weights, [0.5, 0.5])

    def test_idempotent(self, rng):
        for _ in range(25):
            m = random_measure(rng, max_atoms=12)
            k = int(rng.integers(1, 15))
            once = finite_support_approx(m, k)
            twice = finite_support_approx(once, k)
            assert twice == once

    def test_order_and_rate(self, rng):
        for _ in range(25):
            m = random_measure(rng, max_atoms=12)
            k = int(rng.integers(1, 8))
            out = finite_support_approx(m, k)
            assert convex_order_leq(out, m)
            assert wasserstein(out, m, 1.0) <= m.diameter / k + 1e-12


class TestPerturbationLadder:
    def test_kinds_validated(self):
        with pytest.raises(DomainError):
            PerturbationLadder(dirac(0.0), dm([-1, 1]), "wiggle", 3)

    def test_shift_rung(self):
        lad = PerturbationLadder(dirac(0.0), dm([-1, 1]), "shift", 4)
        _, nu2 = lad.rung(2)
        assert np.allclose(nu2.atoms, [-0.5, 1.5])

    def test_empirical_deterministic(self):
        lad = PerturbationLadder(dm([-1, 0, 1]), dm([-2, 2]), "empirical", 5, seed=7)
        a = lad.rung(3)
        b = lad.rung(3)
        assert measures_close(a[0], b[0]) and measures_close(a[1], b[1])

    def test_quantize_rung(self):
        mu = dm([0.0, 0.3, 2.0])
        lad = PerturbationLadder(mu, mu, "quantize", 3, delta0=1.0)
        mu1, _ = lad.rung(1)
        assert mu1.n == 2  # first two atoms share the width-1/2 bin


class TestRunStabilityExperiment:
    def test_shift_ladder_closed_form(self):
        lad = PerturbationLadder(dirac(0.0), dm([-1, 1]), "shift", 6)
        rep = run_stability_experiment(lad, CostSpec.quadratic())
        for r in rep.rungs:
            assert r.value_gap == pytest.approx(1.0 / r.k**2, abs=1e-12)
            assert r.optimizer_gap_w1 == pytest.approx(1.0 / r.k, abs=1e-12)
            for eps in (0.1, 0.01, 0.001):
                assert r.map_gaps[eps] == (1.0 if 1.0 / r.k > eps else 0.0)

    def test_constant_ladder_zero_gaps(self, rng):
        mu = random_measure(rng, max_atoms=5)
        nu = random_measure(rng, max_atoms=5)
        lad = PerturbationLadder(mu, nu, "shift", 3, step=0.0)
        rep = run_stability_experiment(lad)
        for r in rep.rungs:
            assert r.value_gap <= 1e-12 and r.optimizer_gap_w1 <= 1e-12

    def test_growth_hypothesis_rejected_before_solving(self):
        lad = PerturbationLadder(dirac(0.0), dm([-1, 1]), "shift", 3, rho=2.0)
        with pytest.raises(HypothesisError):
            run_stability_experiment(lad, CostSpec.quartic())
        # a rho = 4 ladder admits the quartic cost
        lad4 = PerturbationLadder(dirac(0.0), dm([-1, 1]), "shift", 2, rho=4.0)
        run_stability_experiment(lad4, CostSpec.quartic())

    def test_quantize_ladder_gap_decays(self, rng):
        atoms = np.sort(rng.uniform(-2, 2, 10))
        mu = dm(atoms, rng.dirichlet(np.ones(10)))
        nu = dm(np.sort(rng.uniform(-3, 3, 10)), rng.dirichlet(np.ones(10)))
        lad = PerturbationLadder(mu, nu, "quantize", 8, delta0=4.0)
        rep = run_stability_experiment(lad)
        gaps = np.array([r.value_gap for r in rep.rungs])
        assert np.all(np.diff(gaps) <= 1e-8)  # nonincreasing within noise floor
        assert gaps[-1] <= 4.0 * 2.0 ** -lad.length + 1e-8

    def test_lower_semicontinuity_tail(self, rng):
        # checked on ladders whose deep rungs reach the base pair exactly
        # (quantize below the atom spacing) and on the analytic shift ladder;
        # empirical ladders carry statistical noise far above this tolerance
        for _ in range(5):
            mu = random_measure(rng, max_atoms=8)
            nu = random_measure(rng, max_atoms=8)
            lad = PerturbationLadder(mu, nu, "quantize", 12, delta0=2.0)
            rep = run_stability_experiment(lad)
            s = support_scale(mu, nu)
            tail = min(r.value for r in rep.rungs[-3:])
            assert tail >= rep.base_value - 1e-7 * max(1.0, s) ** 2
        rep = run_stability_experiment(PerturbationLadder(dirac(0.0), dm([-1, 1]), "shift", 9))
        assert min(r.value for r in rep.rungs[-3:]) >= rep.base_value - 1e-7

    def test_csv_shape(self):
        lad = PerturbationLadder(dirac(0.0), dm([-1, 1]), "shift", 3)
        rep = run_stability_experiment(lad)
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "k,value_gap,optimizer_gap_W1,map_gap@0.1,map_gap@0.01,map_gap@0.001"
        assert len(lines) == 4 and all(len(l.split(",")) == 6 for l in lines[1:])


def quantile_coupling_entries(a, b):
    """The comonotone coupling eta_transfer built before level_blocks, kept
    as its reference: entries (i, j, mass) with mass > 1e-15."""
    ca = a.cumulative()
    cb = b.cumulative()
    levels = np.union1d(ca, cb)
    widths = np.diff(np.concatenate(([0.0], levels)))
    ia = np.minimum(np.searchsorted(ca, levels, side="left"), a.n - 1)
    ib = np.minimum(np.searchsorted(cb, levels, side="left"), b.n - 1)
    keep = widths > 1e-15
    return ia[keep], ib[keep], widths[keep]


def map_gap(mu_a, t_a, mu_b, t_b, eps):
    """The per-eps map gap run_stability_experiment used before _map_gaps,
    kept as its reference."""
    ca, cb = mu_a.cumulative(), mu_b.cumulative()
    levels = np.union1d(ca, cb)
    widths = np.diff(np.concatenate(([0.0], levels)))
    ia = np.minimum(np.searchsorted(ca, levels, side="left"), mu_a.n - 1)
    ib = np.minimum(np.searchsorted(cb, levels, side="left"), mu_b.n - 1)
    diff = np.abs(t_a[ia] - t_b[ib])
    return float(widths[diff > eps].sum())


class TestLevelBlocksAgainstReferences:
    def test_transfer_entries_are_bit_identical(self, rng):
        for a, b in mix_and_offset_pairs(rng, 300):
            i, j, w = level_blocks(a, b)
            keep = w > 1e-15
            for got, want in zip((i[keep], j[keep], w[keep]), quantile_coupling_entries(a, b)):
                assert np.array_equal(got, want)

    def test_map_gaps_are_bit_identical(self, rng):
        for a, b in mix_and_offset_pairs(rng, 300):
            # half the maps sit at 0, so some gaps equal an eps exactly
            t_a = np.sort(rng.uniform(-3.0, 3.0, a.n)) * rng.integers(0, 2)
            t_b = t_a[np.minimum(np.arange(b.n), a.n - 1)] + rng.choice([0.0, *MAP_GAP_EPS, 0.5], b.n)
            got = _map_gaps(a, t_a, b, t_b)
            assert got == {eps: map_gap(a, t_a, b, t_b, eps) for eps in MAP_GAP_EPS}
