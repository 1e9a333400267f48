"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline). The
random families are seeded, so reruns are bit-reproducible.
"""

import functools
import time

import numpy as np

from wmrline import (
    CostSpec,
    MonotoneMap,
    PerturbationLadder,
    build_martingale_coupling,
    compose_with_map,
    convex_order_leq,
    decompose_martingale,
    eta_transfer,
    find_two_point_improvement,
    map_decomposition,
    mean,
    measures_close,
    optimality_certificate,
    potential,
    potential_at,
    pushforward,
    read_measure_csv,
    residual_order_check,
    reverse_optimizer,
    run_stability_experiment,
    solve_weak_transport,
    support_scale,
    verify_admissible,
    verify_slope1_characterization,
    wasserstein,
    weak_monotone_rearrangement,
    write_measure_csv,
)
from wmrline import convex_order_max_map, convex_order_min_with_maps
from wmrline.cli import main as cli_main
from wmrline.cli import plot_segments

from conftest import dirac, dm, random_measure, random_one_lipschitz_values, random_ordered_pair
from oracle import lower_convex_envelope, oracle_solve, project_admissible


def report(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:2d}: FAIL - {label}")
                raise
            print(f"ACCEPTANCE {num:2d}: PASS - {label}")

        return wrapper

    return deco


def rational_measure(rng, max_atoms, span):
    n = int(rng.integers(1, max_atoms + 1))
    atoms = np.sort(rng.uniform(-span, span, n))
    counts = rng.integers(1, 9, n).astype(float)
    return dm(atoms, counts / counts.sum())


@report(1, "solver matches the brute-force oracle on 200 tiny instances")
def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    grid_step = 1e-3
    start = time.time()
    for _ in range(200):
        mu = rational_measure(rng, 3, 0.3)
        nu = rational_measure(rng, 4, 0.3)
        sol = solve_weak_transport(mu, nu, CostSpec.quadratic())
        oval, _ = oracle_solve(mu, nu, CostSpec.quadratic(), grid_step)
        lo = min(mu.atoms[0], nu.atoms[0])
        hi = max(mu.atoms[-1], nu.atoms[-1])
        diam = max(hi - lo, grid_step)
        lip = 2.0 * max(abs(lo - diam), abs(hi + diam))  # |theta'| on the search box
        assert abs(sol.value - oval) <= lip * grid_step * mu.n
    elapsed = time.time() - start
    assert elapsed <= 60.0, f"oracle sweep took {elapsed:.1f}s"


@report(2, "pushforward does not depend on the strictly convex cost (100 instances)")
def test_criterion_2_theta_independence():
    rng = np.random.default_rng(102)
    start = time.time()
    for _ in range(100):
        mu = random_measure(rng, max_atoms=20)
        nu = random_measure(rng, max_atoms=20, span=4.0)
        s = support_scale(mu, nu)
        base = solve_weak_transport(mu, nu, CostSpec.quadratic())
        for cost in (CostSpec.quartic(), CostSpec.power(3.0)):
            alt = solve_weak_transport(mu, nu, cost)
            assert wasserstein(base.pushforward, alt.pushforward, 1.0) <= 1e-6 * s
    elapsed = time.time() - start
    assert elapsed <= 120.0, f"theta sweep took {elapsed:.1f}s"


@report(3, "geometric characterization: solver verified, slope-1 breakers falsified")
def test_criterion_3_geometric_characterization():
    rng = np.random.default_rng(103)
    for _ in range(100):
        mu = random_measure(rng, max_atoms=12)
        nu = random_measure(rng, max_atoms=12)
        sol = weak_monotone_rearrangement(mu, nu)
        assert verify_admissible(sol.map, mu, nu, 1e-7).ok
        assert verify_slope1_characterization(sol, mu, nu, 1e-7).ok
    # 50 hand-perturbed maps breaking slope 1 inside an irreducible interval
    falsified = 0
    for _ in range(50):
        a = float(rng.uniform(2.0, 4.0))
        shiftc = float(rng.uniform(-1.0, 1.0))
        nu = dm(np.array([-a, a]) + shiftc)
        k = int(rng.integers(2, 5))
        atoms = np.sort(rng.uniform(-a / 2, a / 2, k))
        w = rng.dirichlet(np.ones(k))
        mu = dm(atoms - float(np.dot(w, atoms)) + shiftc, w)
        sol = weak_monotone_rearrangement(mu, nu)
        t = sol.map(mu.atoms)
        center = float(np.dot(mu.weights, t))
        t_bad = center + (1.0 - float(rng.uniform(0.1, 0.9))) * (t - center)
        push = pushforward(mu, t_bad)
        assert convex_order_leq(push, nu)
        mg = build_martingale_coupling(push, nu)
        imp = find_two_point_improvement(mu, t_bad, mg, CostSpec.quadratic())
        assert imp is not None and imp.improvement > 0.0
        falsified += 1
    assert falsified == 50


@report(4, "maximality: 100 random admissible maps stay below the rearrangement")
def test_criterion_4_maximality():
    rng = np.random.default_rng(104)
    for _ in range(100):
        mu = random_measure(rng, max_atoms=8)
        nu = random_measure(rng, max_atoms=8)
        sol = weak_monotone_rearrangement(mu, nu)
        raw = np.sort(rng.uniform(nu.atoms[0] - 1, nu.atoms[-1] + 1, mu.n))
        cand = project_admissible(raw, mu, nu)
        assert verify_admissible(cand, mu, nu).ok
        assert convex_order_leq(cand.push(mu), sol.pushforward)


@report(5, "closed forms: ordered pairs give the identity, Dirac sources hit the mean")
def test_criterion_5_trivial_closed_forms():
    rng = np.random.default_rng(105)
    for _ in range(50):
        eta, nu = random_ordered_pair(rng, max_atoms=10)
        sol = solve_weak_transport(eta, nu, CostSpec.quadratic())
        assert np.array_equal(sol.map(eta.atoms), eta.atoms)
        assert sol.value == 0.0
        x = float(rng.uniform(-2, 2))
        target = random_measure(rng, max_atoms=10)
        dsol = solve_weak_transport(dirac(x), target, CostSpec.quadratic())
        assert abs(dsol.map(x)[0] - mean(target)) <= 1e-12
        assert abs(dsol.value - (x - mean(target)) ** 2) <= 1e-12


def _competitor_seed(mu, nu):
    """A displacement ramp large enough that mu <=_c (nu + ramp)."""
    base = np.linspace(0.0, 1.0, nu.n)
    for c in 2.0 ** np.arange(0, 24):
        d = base * c
        d = d - float(np.dot(nu.weights, d)) + (mean(mu) - mean(nu))
        eta = dm(nu.atoms + d, nu.weights)
        if convex_order_leq(mu, eta):
            return d
    raise AssertionError("no feasible competitor seed found")


def _feasible_competitor(rng, mu, nu, seed_disp):
    """Some eta with mu <=_c eta pushed onto nu by an increasing 1-Lipschitz
    map.

    For multi-atom nu: nu's atoms plus a nondecreasing displacement vector,
    blended toward a known-feasible seed until the order holds. A single-atom
    nu absorbs anything through the constant map, so there any mean-matching
    expansion of mu qualifies.
    """
    if nu.n == 1:
        slopes = 1.0 + rng.uniform(0.0, 2.0, max(mu.n - 1, 0))
        vals = np.concatenate(([0.0], np.cumsum(slopes * np.diff(mu.atoms))))
        vals = vals - float(np.dot(mu.weights, vals)) + mean(mu)
        return dm(vals, mu.weights)
    d = np.cumsum(rng.uniform(0.0, 0.8, nu.n))
    d = d - float(np.dot(nu.weights, d)) + (mean(mu) - mean(nu))
    for blend in (0.0, 0.5, 0.75, 0.9, 0.99, 1.0):
        dd = (1.0 - blend) * d + blend * seed_disp
        z = nu.atoms + dd
        if np.any(np.diff(z) <= 0):
            continue
        eta = dm(z, nu.weights)
        if convex_order_leq(mu, eta):
            return eta
    return dm(nu.atoms + seed_disp, nu.weights)


@report(6, "reverse identity, agreement with the rearrangement, and nu* minimality")
def test_criterion_6_reverse():
    rng = np.random.default_rng(106)
    for _ in range(100):
        mu = random_measure(rng, max_atoms=8)
        nu = random_measure(rng, max_atoms=8)
        s = support_scale(mu, nu)
        r = reverse_optimizer(mu, nu, CostSpec.quadratic())
        direct = solve_weak_transport(mu, nu, CostSpec.quadratic())
        through = float(
            np.dot(r.nu_star.weights, (r.nu_star.atoms - r.tilde_map(r.nu_star.atoms)) ** 2)
        )
        assert abs(through - direct.value) <= 1e-8 * max(1.0, s) * max(1.0, abs(direct.value))
        assert np.abs(r.tilde_map(mu.atoms) - direct.map(mu.atoms)).max() <= 1e-8 * s
        # 50 feasible competitors per instance, each dominated by nu*
        seed_disp = _competitor_seed(mu, nu) if nu.n > 1 else None
        for _ in range(50):
            eta = _feasible_competitor(rng, mu, nu, seed_disp)
            assert convex_order_leq(r.nu_star, eta)


@report(7, "martingale couplings: invariants, exact decomposition, certified composition")
def test_criterion_7_martingale():
    rng = np.random.default_rng(107)
    for _ in range(100):
        eta, nu = random_ordered_pair(rng, max_atoms=9)
        s = support_scale(eta, nu)
        mg = build_martingale_coupling(eta, nu)
        rs = np.zeros(eta.n)
        cs = np.zeros(nu.n)
        np.add.at(rs, mg.rows, mg.mass)
        np.add.at(cs, mg.cols, mg.mass)
        assert np.abs(rs - eta.weights).max() <= 1e-9 * s
        assert np.abs(cs - nu.weights).max() <= 1e-9 * s
        assert np.abs(mg.row_barycenters() - eta.atoms).max() <= 1e-9 * s
        dec = decompose_martingale(mg)
        pieces = [idx for _, idx in dec.components] + [dec.fixed]
        assert np.array_equal(np.sort(np.concatenate(pieces)), np.arange(mg.mass.size))
    for _ in range(100):
        mu = random_measure(rng, max_atoms=8)
        nu = random_measure(rng, max_atoms=8)
        sol = weak_monotone_rearrangement(mu, nu)
        mg = build_martingale_coupling(sol.pushforward, nu)
        pi = compose_with_map(mu, sol.map, mg)
        assert optimality_certificate(pi, mu, nu).ok


@report(8, "map algebra: residual order holds, potential maxima and envelopes exact")
def test_criterion_8_map_algebra():
    rng = np.random.default_rng(108)
    checked = 0
    while checked < 200:
        eta2 = random_measure(rng, max_atoms=8)
        vals = random_one_lipschitz_values(rng, eta2.atoms)
        vals = vals - float(np.dot(eta2.weights, vals)) + mean(eta2)
        if np.any(np.diff(vals) <= 0):
            continue
        eta1 = dm(vals, eta2.weights)
        T1 = MonotoneMap(eta1.atoms, random_one_lipschitz_values(rng, eta1.atoms))
        t2 = np.interp(eta2.atoms, eta2.atoms, eta1.atoms)
        t2 = np.interp(t2, T1.knots_x, T1.knots_t)
        xi = T1.push(eta1)
        rvals = random_one_lipschitz_values(rng, xi.atoms)
        rvals = rvals - float(np.dot(xi.weights, rvals)) + mean(xi)
        T2 = MonotoneMap(eta2.atoms, np.interp(t2, xi.atoms, rvals))
        assert residual_order_check(eta1, eta2, T1, T2)
        checked += 1
    for _ in range(100):
        mu = random_measure(rng, max_atoms=8)
        vt = random_one_lipschitz_values(rng, mu.atoms)
        vs = random_one_lipschitz_values(rng, mu.atoms)
        vs = vs - float(np.dot(mu.weights, vs)) + float(np.dot(mu.weights, vt))
        T, S = MonotoneMap(mu.atoms, vt), MonotoneMap(mu.atoms, vs)
        R = convex_order_max_map(T, S, mu)
        Tmu, Smu, Rmu = T.push(mu), S.push(mu), R.push(mu)
        pts = np.concatenate([Tmu.atoms, Smu.atoms, Rmu.atoms])
        gap = potential_at(Rmu, pts) - np.maximum(potential_at(Tmu, pts), potential_at(Smu, pts))
        assert np.abs(gap).max() <= 1e-9 * support_scale(Tmu, Smu)
    for _ in range(100):
        nu = random_measure(rng, max_atoms=7)
        etas = []
        for _ in range(2):
            d = np.cumsum(rng.uniform(0, 0.5, nu.n))
            d = d - float(np.dot(nu.weights, d))
            z = nu.atoms + d
            if np.any(np.diff(z) <= 0):
                z = nu.atoms
            etas.append((dm(z, nu.weights), MonotoneMap(z, nu.atoms.copy())))
        (eta1, T1), (eta2, T2) = etas
        eta, Tstar = convex_order_min_with_maps(eta1, T1, eta2, T2)
        env = lower_convex_envelope(potential(eta1), potential(eta2))
        pts = np.concatenate([eta1.atoms, eta2.atoms, eta.atoms, env.breakpoints])
        assert np.abs(potential_at(eta, pts) - env(pts)).max() <= 1e-9 * support_scale(eta1, eta2)
        assert measures_close(Tstar.push(eta), nu, 1e-9)


@report(9, "stability: analytic shift ladder exact, empirical ladder improves, transfers bounded")
def test_criterion_9_stability():
    ladder = PerturbationLadder(dirac(0.0), dm([-1, 1]), "shift", length=100)
    rep = run_stability_experiment(ladder, CostSpec.quadratic())
    for r in rep.rungs:
        assert abs(r.value_gap - 1.0 / r.k**2) <= 1e-10
        assert abs(r.optimizer_gap_w1 - 1.0 / r.k) <= 1e-10
    emp = PerturbationLadder(dm([-1, 0, 1]), dm([-2, 0, 2]), "empirical", length=12, seed=9)
    erep = run_stability_experiment(emp, CostSpec.quadratic())
    assert erep.rungs[11].value_gap < erep.rungs[3].value_gap
    rng = np.random.default_rng(109)
    for _ in range(100):
        eta, nu = random_ordered_pair(rng, max_atoms=7)
        nu_k = random_measure(rng, max_atoms=7)
        out = eta_transfer(eta, nu, nu_k)
        s = support_scale(eta, nu, nu_k)
        for rho in (1.0, 2.0):
            assert wasserstein(eta, out, rho) <= wasserstein(nu, nu_k, rho) + 1e-9 * s


@report(10, "CLI: byte-identical reruns and Figure-style partition matches the map split")
def test_criterion_10_cli(tmp_path):
    mu_p = tmp_path / "mu.csv"
    nu_p = tmp_path / "nu.csv"
    write_measure_csv(dm([-2, 2]), mu_p)
    write_measure_csv(dm([-3, -1, 1, 3]), nu_p)
    for tail in (
        ["wmr", str(mu_p), str(nu_p), "--verify"],
        ["reverse", str(mu_p), str(nu_p)],
        ["compose", str(mu_p), str(nu_p), "--format", "csv"],
    ):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        assert cli_main(tail + ["--out", str(a)]) == 0
        assert cli_main(tail + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    s1, s2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
    assert cli_main(["plot", str(mu_p), str(nu_p), "--out", str(s1)]) == 0
    assert cli_main(["plot", str(mu_p), str(nu_p), "--out", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()

    mu = read_measure_csv(mu_p)
    nu = read_measure_csv(nu_p)
    sol = solve_weak_transport(mu, nu)
    segs = plot_segments(sol)
    mart = [s for s in segs if s["class"].startswith("martingale")]
    assert len(mart) == 2 == len(sol.irreducibles)
    slope1, _ = map_decomposition(sol.map)
    for seg in mart:
        assert any(lo - 1e-9 <= seg["x0"] and seg["x1"] <= hi + 1e-9 for lo, hi in slope1)
        inside = [
            iv for iv in sol.irreducibles if iv.lo - 1e-9 <= seg["t0"] <= seg["t1"] <= iv.hi + 1e-9
        ]
        assert len(inside) == 1
    for seg in segs:
        if seg["class"] == "contractive":
            midpoint_image = 0.5 * (seg["t0"] + seg["t1"])
            assert not any(iv.contains(midpoint_image, 1e-9) for iv in sol.irreducibles)
