"""Inputs, operations and output checks of the four benchmark workloads.

A workload is a fixed list of operations (one round). Every operation calls
wmrline through a module attribute looked up at call time, so the tracer in
``tracing.py`` sees it. Inputs and reference answers are made here, before
the first timed operation; ``Op.check`` runs after the timed span.

Inputs come in two parts. The seed part is drawn from ``--seed``. The
corpus and the reproducers in ``FIXED`` are drawn from fixed generators,
because wmrline fails now and then on random pairs (an OrderError in about
1 in 3100 solves at n = 25..50, a cycling QP in about 1 in 100 at n >= 75,
a StructureError from decompose_martingale in 2-4 % of couplings). Drawn
from the seed, those calls would change the share of failed operations
from run to run; drawn once, each of them fails in every run or in none.
The seed part is small and stays at n = 10..14, where 4 of 67 000 random
solves failed: a seed draws a failing pair about once in 5600 seeds on
solve and once in 1900 on couple.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as R
import wmrline as wl

# Seed-independent inputs. A reproducer is (generator seed, draw index,
# size): the index-th pair drawn from default_rng(seed) at that size.
FIXED = {
    # generator seeds of the corpus of each workload
    "corpus": {"solve": 2501, "couple": 2502},
    # the unrelaxed active-set QP cycles on this pair until max_iter
    "qp_cycle": (3, 43, 75),
    # QP growth with n, at sizes where random draws cycle in about 1 % of pairs
    "qp_large": ((100, 1, 100), (150, 1, 150)),
    # the whole coupling pipeline at n = 20, decompose_martingale included:
    # build_martingale_coupling raises CouplingError on (4, 13) and
    # decompose_martingale raises StructureError on (2, 6)
    "couple": ((1, 1, 20), (1, 3, 20), (4, 13, 20), (2, 6, 20)),
    # reverse_optimizer on ordered spread pairs; it raises at n >= 1000
    "reverse": ((7, 1, 500), (7, 1, 1000), (7, 1, 2000)),
}

BUDGET_S = {"solve": 3.0, "couple": 10.0, "scale": 10.0, "cli": 30.0}


@dataclass
class Op:
    """One timed call and the check of what it returned."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    group: str = ""  # cli subcommand, for per-subcommand times


@dataclass
class Workload:
    name: str
    ops: list
    budget_s: float
    min_rounds: int = 1
    in_children: bool = False  # wmrline runs in child processes
    env: dict = field(default_factory=dict)  # environment of those processes
    cleanup: Callable[[], None] = field(default=lambda: None)


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------


def mix_pair(rng, n, m):
    """mu atoms U(-3,3), nu atoms U(-2,2), Dirichlet(1) weights; drawn mu
    atoms, mu weights, nu atoms, nu weights in that order. Returned sorted."""
    x, p = rng.uniform(-3.0, 3.0, n), rng.dirichlet(np.ones(n))
    y, q = rng.uniform(-2.0, 2.0, m), rng.dirichlet(np.ones(m))
    return _sorted(x, p) + _sorted(y, q)


def spread_pair(rng, n):
    """eta <=_c nu by a mean-preserving spread: each atom x_i of eta splits
    into x_i -+ d_i with half its mass, d_i ~ U(0, 18/n)."""
    x, p = rng.uniform(-3.0, 3.0, n), rng.dirichlet(np.ones(n))
    d = rng.uniform(0.0, 3.0 * 6.0 / n, n)
    y = np.concatenate([x - d, x + d])
    q = np.concatenate([p, p]) / 2.0
    return _sorted(x, p) + _sorted(y, q)


def _sorted(a, w):
    order = np.argsort(a)
    return a[order], w[order] / w.sum()


def nth_draw(gen, seed, index, *size):
    rng = np.random.default_rng(seed)
    for _ in range(index):
        drawn = gen(rng, *size)
    return drawn


def measures(x, p, y, q):
    return wl.DiscreteMeasure(x, p), wl.DiscreteMeasure(y, q)


COSTS = {
    "quadratic": ("quadratic", 2.0),
    "quartic": ("quartic", 4.0),
    "power3": ("power", 3.0),
}


def cost_spec(key):
    kind, rho = COSTS[key]
    return wl.CostSpec.power(rho) if kind == "power" else wl.CostSpec(kind)


def cost_cycle(k):
    """A quarter of the pairs use a non-quadratic cost."""
    return {2: "quartic", 6: "power3", 10: "quartic"}.get(k % 12, "quadratic")


# ---------------------------------------------------------------------------
# Checks shared by several workloads
# ---------------------------------------------------------------------------


def check_solution(sol, x, p, y, q, t_ref, cost_key="quadratic"):
    kind, rho = COSTS[cost_key]
    out = R.check_map(sol.map.knots_t, t_ref, x, p, y, q)
    out += R.check_value(sol.value, t_ref, x, p, kind, rho)
    eta = sol.pushforward
    out += R.check_intervals(
        [[iv.lo, iv.hi] for iv in sol.irreducibles], eta.atoms, eta.weights, y, q
    )
    return out


# ---------------------------------------------------------------------------
# solve: the dense QP and the polyhedron
# ---------------------------------------------------------------------------

SOLVE_SIZES = (25, 30, 35, 40, 45, 50) * 6  # corpus
LADDER_SIZES = (25, 30)  # corpus
SEED_SIZES = (10, 12, 14)  # seed part of solve and couple (x 3)
LADDER_RUNGS = 3


def solve_op(label, x, p, y, q, cost_key):
    mu, nu = measures(x, p, y, q)
    cost = cost_spec(cost_key)
    t_ref = R.weak_map(x, p, y, q)
    return Op(
        label,
        lambda: wl.solve_weak_transport(mu, nu, cost),
        lambda sol: check_solution(sol, x, p, y, q, t_ref, cost_key),
    )


def ladder_op(label, x, p, y, q):
    mu, nu = measures(x, p, y, q)
    ladder = wl.PerturbationLadder(mu, nu, "shift", length=LADDER_RUNGS, step=1.0)
    base = R.weak_value(x, p, R.weak_map(x, p, y, q))
    rung_values = [
        R.weak_value(x, p, R.weak_map(x, p, y + 1.0 / k, q)) for k in range(1, LADDER_RUNGS + 1)
    ]

    def check(report):
        out = R.check_value(report.base_value, R.weak_map(x, p, y, q), x, p)
        if len(report.rungs) != LADDER_RUNGS:
            return out + [f"{len(report.rungs)} rungs, expected {LADDER_RUNGS}"]
        for rung, want in zip(report.rungs, rung_values):
            if abs(rung.value - want) > 1e-8 * max(1.0, abs(want)):
                out.append(f"rung {rung.k} value {rung.value!r} differs from {want!r}")
            if abs(rung.value_gap - abs(want - base)) > 1e-8 * max(1.0, abs(want)):
                out.append(f"rung {rung.k} value gap {rung.value_gap!r} is wrong")
        return out

    return Op(label, lambda: wl.run_stability_experiment(ladder), check)


def build_solve(seed):
    corpus = np.random.default_rng(FIXED["corpus"]["solve"])
    ops = []
    for k, n in enumerate(SOLVE_SIZES):
        key = cost_cycle(k)
        ops.append(solve_op(f"solve n={n} {key}", *mix_pair(corpus, n, n), key))
    for n in LADDER_SIZES:
        ops.append(ladder_op(f"stability shift n={n}", *mix_pair(corpus, n, n)))
    for s, i, n in (FIXED["qp_cycle"], *FIXED["qp_large"]):
        pair = nth_draw(mix_pair, s, i, n, n)
        ops.append(solve_op(f"solve n={n} fixed({s}#{i})", *pair, "quadratic"))
    rng = np.random.default_rng(seed)
    for n in SEED_SIZES:
        ops.append(solve_op(f"solve n={n} seed", *mix_pair(rng, n, n), "quadratic"))
    return Workload("solve", ops, BUDGET_S["solve"])


# ---------------------------------------------------------------------------
# couple: solve -> martingale coupling -> compose -> certificate -> decompose
# ---------------------------------------------------------------------------

COUPLE_SIZES = (10, 12, 14) * 10  # corpus


def couple_op(label, x, p, y, q, cost_key, decompose):
    mu, nu = measures(x, p, y, q)
    cost = cost_spec(cost_key)
    t_ref = R.weak_map(x, p, y, q)

    def run():
        sol = wl.solve_weak_transport(mu, nu, cost)
        mg = wl.build_martingale_coupling(sol.pushforward, nu)
        pi = wl.compose_with_map(mu, sol.map, mg)
        cert = wl.optimality_certificate(pi, mu, nu, cost)
        dec = wl.decompose_martingale(mg) if decompose else None
        return sol, mg, pi, cert, dec

    def check(result):
        sol, mg, pi, cert, dec = result
        out = check_solution(sol, x, p, y, q, t_ref, cost_key)
        eta = sol.pushforward
        if not np.array_equal(mg.target.atoms, y):
            out.append("martingale coupling target is not nu")
        out += R.check_coupling(mg.rows, mg.cols, mg.mass, eta.atoms, eta.weights, y, q, eta.atoms)
        out += R.check_coupling(pi.rows, pi.cols, pi.mass, x, p, y, q, t_ref)
        if not cert.ok:
            out.append(f"optimality certificate failed: {cert.violations}")
        if dec is None:
            return out
        intervals = [[iv.lo, iv.hi] for iv, _ in dec.components]
        # the decomposition cuts at the float-exact set {u_eta < u_nu}
        out += R.check_intervals(intervals, eta.atoms, eta.weights, y, q, floor=-1e-12)
        out += R.check_decomposition(
            [idx for _, idx in dec.components], dec.fixed, mg.rows, mg.cols, eta.atoms, y, intervals
        )
        return out

    return Op(label, run, check)


def build_couple(seed):
    corpus = np.random.default_rng(FIXED["corpus"]["couple"])
    ops = []
    for k, n in enumerate(COUPLE_SIZES):
        key = cost_cycle(k)
        ops.append(couple_op(f"couple n={n} {key}", *mix_pair(corpus, n, n), key, False))
    for s, i, n in FIXED["couple"]:
        pair = nth_draw(mix_pair, s, i, n, n)
        ops.append(couple_op(f"couple+decompose n={n} fixed({s}#{i})", *pair, "quadratic", True))
    rng = np.random.default_rng(seed)
    for n in SEED_SIZES * 3:
        ops.append(couple_op(f"couple n={n} seed", *mix_pair(rng, n, n), "quadratic", False))
    return Workload("couple", ops, BUDGET_S["couple"])


# ---------------------------------------------------------------------------
# scale: ordered spread pairs, where the QP never runs
# ---------------------------------------------------------------------------

SCALE_SIZES = (500, 1000, 2000) * 4


def scale_ops(n, x, p, y, q):
    eta, nu = measures(x, p, y, q)
    state = {}

    def solve():
        state["sol"] = wl.solve_weak_transport(eta, nu)
        return state["sol"]

    def check_solve(sol):
        out = R.check_identity(sol.map.knots_t, x, sol.value)
        return out + R.check_intervals([[iv.lo, iv.hi] for iv in sol.irreducibles], x, p, y, q)

    def check_slope(report):
        return [] if report.ok else [f"slope-1 verifier rejected the identity: {report.violations}"]

    return [
        Op(f"scale solve n={n}", solve, check_solve),
        Op(
            f"scale irreducible n={n}",
            lambda: wl.irreducible_components(eta, nu),
            lambda ivs: R.check_intervals([[iv.lo, iv.hi] for iv in ivs], x, p, y, q),
        ),
        # verifies the solution returned by this round's solve at the same n
        Op(
            f"scale verify n={n}",
            lambda: wl.verify_slope1_characterization(state.pop("sol"), eta, nu),
            check_slope,
        ),
    ]


def reverse_op(label, x, p, y, q):
    eta, nu = measures(x, p, y, q)

    def check(rsol):
        # eta <=_c nu already, so nu* = nu and the reverse map is the identity
        out = []
        if rsol.nu_star.n != y.size or np.abs(rsol.nu_star.atoms - y).max() > 1e-9:
            out.append("nu* is not nu on an ordered pair")
        elif np.abs(rsol.nu_star.weights - q).max() > 1e-9:
            out.append("nu* weights are not nu's on an ordered pair")
        if np.abs(rsol.tilde_map.knots_t - rsol.tilde_map.knots_x).max() > 1e-9:
            out.append("reverse map is not the identity on an ordered pair")
        if abs(rsol.value) > 1e-12:
            out.append(f"reverse value {rsol.value!r} is not 0")
        return out

    return Op(label, lambda: wl.reverse_optimizer(eta, nu), check)


def build_scale(seed):
    rng = np.random.default_rng(seed)
    ops = []
    for n in SCALE_SIZES:
        ops += scale_ops(n, *spread_pair(rng, n))
    for s, i, n in FIXED["reverse"]:
        ops.append(reverse_op(f"reverse n={n} fixed({s}#{i})", *nth_draw(spread_pair, s, i, n)))
    return Workload("scale", ops, BUDGET_S["scale"])


# ---------------------------------------------------------------------------
# cli: every subcommand as its own process
# ---------------------------------------------------------------------------

CLI_PAIR_N = 12
CLI_SPREAD_N = 40


def write_csv(path, atoms, weights):
    path.write_text("".join(f"{float(a)!r},{float(w)!r}\n" for a, w in zip(atoms, weights)))


def _index_of(values, atoms):
    idx = np.clip(np.searchsorted(atoms, values), 0, atoms.size - 1)
    if not np.array_equal(atoms[idx], values):
        raise ValueError("an atom in the output is not an input atom")
    return idx


def cli_checks(x, p, y, q, e, ew, z, zw, outdir):
    """Content checks per subcommand; each takes the parsed document."""
    t_ref = R.weak_map(x, p, y, q)
    s = R.scale_of(x, y)

    def potential(doc):
        want = R.potential(x, p, x)
        if not np.array_equal(np.array(doc["breakpoints"]), x):
            return ["potential breakpoints are not mu's atoms"]
        if np.abs(np.array(doc["values"]) - want).max() > 1e-12 * s:
            return ["potential values differ from the reference"]
        return []

    def check_order(doc):
        want = R.convex_order_leq(e, ew, z, zw)
        return [] if doc["result"] == want else [f"order verdict {doc['result']} != {want}"]

    def irreducible(doc):
        return R.check_intervals(doc["intervals"], e, ew, z, zw)

    def wmr(doc):
        knots = np.array(doc["map_knots"])
        out = R.check_map(knots[:, 1], t_ref, x, p, y, q)
        out += R.check_value(doc["value"], t_ref, x, p)
        push = doc["pushforward"]
        out += R.check_intervals(doc["irreducible_intervals"], push["atoms"], push["weights"], y, q)
        ver = doc["verification"]
        if not (ver["admissible"] and ver["slope1_characterization"] and ver["optimality_certificate"]):
            out.append(f"--verify reported a failure: {ver['violations']}")
        return out

    def value(doc):
        return R.check_value(doc["value"], t_ref, x, p, "quartic", 4.0)

    def reverse(doc):
        knots = np.array(doc["map_knots"])
        star = doc["nu_star"]
        sa, sw = np.array(star["atoms"]), np.array(star["weights"])
        out = []
        if not np.array_equal(knots[:, 0], sa):
            return ["reverse map knots are not the atoms of nu*"]
        # the reverse map pushes nu* onto nu
        img = knots[:, 1]
        j = np.argmin(np.abs(img[:, None] - y[None, :]), axis=1)
        if np.abs(y[j] - img).max() > 1e-9 * s:
            out.append("reverse map sends nu* off the atoms of nu")
        elif np.abs(np.bincount(j, sw, minlength=y.size) - q).max() > R.ORDER_TOL:
            out.append("reverse map does not push nu* onto nu")
        if not R.convex_order_leq(x, p, sa, sw):
            out.append("mu is not below nu* in convex order")
        if np.abs(np.interp(x, sa, img) - t_ref).max() > R.MAP_TOL * s:
            out.append("reverse map differs from the rearrangement on mu's atoms")
        return out + R.check_value(doc["value"], t_ref, x, p)

    def compose(doc):
        ent = np.array(doc["entries"])
        rows, cols = _index_of(ent[:, 0], x), _index_of(ent[:, 1], y)
        out = R.check_coupling(rows, cols, ent[:, 2], x, p, y, q, t_ref)
        return out + R.check_value(doc["barycentric_cost"], t_ref, x, p)

    def plot(doc):
        out = []
        for line in doc["csv"].splitlines()[1:]:
            x0, t0, x1, t1, cls = line.split(",")
            got = np.array([float(t0), float(t1)])
            want = np.interp([float(x0), float(x1)], x, t_ref)
            if np.abs(got - want).max() > R.MAP_TOL * s:
                out.append(f"plot segment at {x0} is off the map")
            if not (cls == "contractive" or cls.startswith("martingale[")):
                out.append(f"unknown segment class {cls}")
        if not doc["svg"].startswith("<svg"):
            out.append("plot did not write an SVG")
        return out

    def stability(doc):
        out = R.check_value(doc["base_value"], t_ref, x, p)
        for k, rung in enumerate(doc["rungs"], start=1):
            want = R.weak_value(x, p, R.weak_map(x, p, y + 1.0 / k, q))
            if abs(rung["value"] - want) > 1e-8 * max(1.0, abs(want)):
                out.append(f"stability rung {k} value differs from the reference")
        return out

    plot_out = str(outdir / "plot.svg")
    mu_csv, nu_csv = str(outdir / "mu.csv"), str(outdir / "nu.csv")
    eta_csv, spread_csv = str(outdir / "eta.csv"), str(outdir / "spread.csv")
    return [
        ("potential", [mu_csv], potential),
        ("check-order", [eta_csv, spread_csv], check_order),
        ("irreducible", [eta_csv, spread_csv], irreducible),
        ("wmr", [mu_csv, nu_csv, "--verify"], wmr),
        ("value", [mu_csv, nu_csv, "--cost", "quartic"], value),
        ("reverse", [mu_csv, nu_csv], reverse),
        ("compose", [mu_csv, nu_csv], compose),
        ("plot", [mu_csv, nu_csv, "--out", plot_out], plot),
        ("stability", [mu_csv, nu_csv, "--ladder", "shift", "--rungs", "3"], stability),
    ]


def cli_op(sub, args, content_check, env, budget_s, plot_path):
    first = {}

    def run():
        proc = subprocess.run(
            [sys.executable, "-m", "wmrline.cli", sub, *args],
            capture_output=True,
            env=env,
            timeout=budget_s,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        return proc.stdout

    def check(stdout):
        if sub == "plot":
            doc = {"svg": plot_path.read_text(), "csv": Path(str(plot_path) + ".csv").read_text()}
            output = stdout + doc["svg"].encode() + doc["csv"].encode()
        else:
            doc = json.loads(stdout)
            output = stdout
            if doc.get("schema") != 1:
                return ["document lacks schema 1"]
        # the same command on the same files must give the same bytes
        if first.setdefault("bytes", output) != output:
            return ["output differs from the first run of the same command"]
        return content_check(doc)

    return Op(f"cli {sub}", run, check, group=sub)


def build_cli(seed, workdir, env):
    rng = np.random.default_rng(seed)
    x, p, y, q = mix_pair(rng, CLI_PAIR_N, CLI_PAIR_N)
    e, ew, z, zw = spread_pair(rng, CLI_SPREAD_N)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, a, w in (("mu", x, p), ("nu", y, q), ("eta", e, ew), ("spread", z, zw)):
        write_csv(workdir / f"{name}.csv", a, w)
    budget = BUDGET_S["cli"]
    ops = [
        cli_op(sub, args, chk, env, budget, workdir / "plot.svg")
        for sub, args, chk in cli_checks(x, p, y, q, e, ew, z, zw, workdir)
    ]

    def cleanup():
        for f in sorted(workdir.iterdir()):
            f.unlink()
        workdir.rmdir()

    # two rounds at least, so every command's bytes are compared with a rerun
    return Workload(
        "cli", ops, budget, min_rounds=2, in_children=True, env=env, cleanup=cleanup
    )
