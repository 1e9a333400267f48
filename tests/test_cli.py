import dataclasses
import json

import numpy as np
import pytest

import wmrline.cli
import wmrline.measures
from wmrline import (
    CostSpec,
    MonotoneMap,
    PerturbationLadder,
    build_martingale_coupling,
    compose_with_map,
    coupling_to_csv,
    irreducible_components,
    map_decomposition,
    optimality_certificate,
    pushforward,
    read_measure_csv,
    reverse_optimizer,
    run_stability_experiment,
    solve_weak_transport,
    write_measure_csv,
)
from wmrline.cli import main, plot_segments, render_json
from wmrline.stability import MAP_GAP_EPS

from conftest import clustered_pair, dm, mix_pair, spread_pair


@pytest.fixture
def measure_files(tmp_path):
    paths = {}
    for name, m in {
        "mu2": dm([-2, 2]),
        "nu2": dm([-1, 1]),
        "dirac": dm([0.0], [1.0]),
        "b4": dm([-3, -1, 1, 3]),
        "inner": dm([-1, 1]),
        "outer": dm([-2, 2]),
    }.items():
        p = tmp_path / f"{name}.csv"
        write_measure_csv(m, p)
        paths[name] = str(p)
    return paths


class TestExitCodes:
    def test_ok_path(self, measure_files, capsys):
        assert main(["check-order", measure_files["dirac"], measure_files["nu2"]]) == 0
        out = capsys.readouterr().out
        assert '"result": true' in out

    def test_order_failure_is_exit_one(self, measure_files):
        assert main(["irreducible", measure_files["mu2"], measure_files["nu2"]]) == 1

    def test_parse_failure_is_exit_two(self, tmp_path, measure_files):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert main(["check-order", str(bad), measure_files["nu2"]]) == 2

    def test_missing_file_is_exit_two(self, measure_files):
        assert main(["wmr", "/nonexistent/mu.csv", measure_files["nu2"]]) == 2

    @pytest.mark.parametrize(
        "cmd, flags, want",
        [
            ("value", ["--cost", "power", "--rho", "nan"], "power cost needs a finite rho >= 1, got nan"),
            ("value", ["--cost", "power", "--rho", "inf"], "power cost needs a finite rho >= 1, got inf"),
            ("stability", ["--ladder-rho", "nan"], "rho must be finite and >= 1, got nan"),
            # a NaN tolerance once failed every shape test by -0.0, an infinite one passed anything
            ("wmr", ["--verify", "--tol", "nan"], "--tol must be finite and positive, got nan"),
            ("compose", ["--verify", "--tol", "inf"], "--tol must be finite and positive, got inf"),
            ("wmr", ["--verify", "--tol", "0"], "--tol must be finite and positive, got 0.0"),
            ("compose", ["--tol", "-1"], "--tol must be finite and positive, got -1.0"),
        ],
        ids=["rho-nan", "rho-inf", "ladder-rho-nan", "tol-nan", "tol-inf", "tol-zero", "tol-negative"],
    )
    def test_non_finite_rho_is_exit_one(self, measure_files, tmp_path, capsys, cmd, flags, want):
        # a non-finite rho once passed and wrote "rho": nan, which is not JSON
        out = tmp_path / "doc.json"
        argv = [cmd, measure_files["dirac"], measure_files["nu2"], *flags, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not out.exists()

    def test_unwritable_out_is_exit_two(self, measure_files, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["wmr", measure_files["mu2"], measure_files["nu2"], "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("input error:")
        assert not out.parent.exists()

    def test_failed_potential_check_is_exit_one(self, measure_files, monkeypatch, capsys):
        lowered = wmrline.measures.potential_at
        monkeypatch.setattr(wmrline.measures, "potential_at", lambda m, y: lowered(m, y) - 1e-6)
        assert main(["potential", measure_files["b4"]]) == 1
        want = "error: potential drops below |y - mean| at atom 0: off by 1.000e-06 (tol 6.000e-12)\n"
        assert capsys.readouterr().err == want

    def test_wide_offset_potential(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        path = tmp_path / "far.csv"
        write_measure_csv(dm(1e5 + rng.uniform(-3.0, 3.0, 14), rng.dirichlet(np.ones(14))), path)
        assert main(["potential", str(path)]) == 0

    def test_false_verdict_still_exit_zero(self, measure_files, capsys):
        assert main(["check-order", measure_files["mu2"], measure_files["nu2"]]) == 0
        assert '"result": false' in capsys.readouterr().out


class TestFlags:
    @pytest.mark.parametrize(
        "argv_tail",
        [
            ["wmr", "{mu2}", "{nu2}", "--seed", "1"],
            ["check-order", "{mu2}", "{nu2}", "--cost", "quartic"],
            ["plot", "{mu2}", "{nu2}", "--format", "svg"],
            ["compose", "{mu2}", "{nu2}", "--verify-theta"],
            ["value", "{mu2}", "{nu2}", "--verify"],
            ["value", "{mu2}", "{nu2}", "--tol", "1e-6"],
            ["wmr", "{mu2}", "{nu2}", "--verify-theta"],
            ["value", "{mu2}", "{nu2}", "--verify-theta"],
        ],
    )
    def test_flag_the_subcommand_does_not_read_is_a_usage_error(self, measure_files, argv_tail):
        with pytest.raises(SystemExit) as exc:
            main([a.format(**measure_files) for a in argv_tail])
        assert exc.value.code == 2


class TestDocuments:
    def test_wmr_document(self, measure_files, tmp_path):
        out = tmp_path / "sol.json"
        code = main(
            ["wmr", measure_files["mu2"], measure_files["nu2"], "--verify", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["value"] == pytest.approx(1.0)
        assert doc["verification"]["admissible"] is True
        assert doc["verification"]["slope1_characterization"] is True
        assert doc["verification"]["optimality_certificate"] is True

    def test_each_violation_is_listed_once(self, measure_files, tmp_path, monkeypatch):
        def reversed_map(mu, nu, cost):
            sol = solve_weak_transport(mu, nu, cost)
            t = sol.map(mu.atoms)[::-1]  # decreasing, and still pushes mu onto nu
            return dataclasses.replace(sol, map=MonotoneMap(mu.atoms, t), pushforward=pushforward(mu, t))

        monkeypatch.setattr(wmrline.cli, "solve_weak_transport", reversed_map)
        out = tmp_path / "sol.json"
        assert main(["wmr", measure_files["mu2"], measure_files["nu2"], "--verify", "--out", str(out)]) == 0
        ver = json.loads(out.read_text())["verification"]
        assert ver["admissible"] is False and ver["optimality_certificate"] is False
        assert ver["violations"][0] == "decreasing by 2.000e+00 between atoms -2.0 and 2.0"
        assert len(ver["violations"]) == len(set(ver["violations"])) == 2

    def test_reverse_document(self, measure_files, capsys):
        assert main(["reverse", measure_files["dirac"], measure_files["nu2"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "reverse_solution"
        assert doc["nu_star"]["atoms"] == [-1.0, 1.0]

    def test_compose_csv(self, measure_files, capsys):
        assert main(["compose", measure_files["mu2"], measure_files["nu2"], "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "source_atom,target_atom,mass"
        assert len(lines) == 3

    def test_potential_csv(self, measure_files, capsys):
        assert main(["potential", measure_files["nu2"], "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "y,u"
        assert len(lines) == 3

    def test_irreducible_csv(self, measure_files, capsys):
        assert main(["irreducible", measure_files["outer"], measure_files["b4"], "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        intervals = irreducible_components(*map(read_measure_csv, (measure_files["outer"], measure_files["b4"])))
        assert lines == ["lo,hi", *(f"{iv.lo:.16e},{iv.hi:.16e}" for iv in intervals)]
        assert len(lines) == 3

    def test_one_atom_plot(self, measure_files, tmp_path):
        # a one-knot map has no segment: the SVG marks its one point
        out = tmp_path / "d.svg"
        assert main(["plot", measure_files["dirac"], measure_files["nu2"], "--out", str(out)]) == 0
        assert '<circle class="contractive" cx="40.000" cy="440.000" r="4"/>' in out.read_text()
        assert "<polyline" not in out.read_text()
        assert (tmp_path / "d.svg.csv").read_text() == "x0,t0,x1,t1,class\n"

    def test_stability_csv(self, measure_files, capsys):
        code = main(
            ["stability", measure_files["dirac"], measure_files["nu2"], "--ladder", "shift",
             "--rungs", "3", "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("k,value_gap,optimizer_gap_W1")
        assert len(lines) == 4


def _solution_doc(sol):
    return {
        "schema": 1,
        "kind": "weak_solution",
        "cost": sol.cost.describe(),
        "map_knots": [[float(a), float(b)] for a, b in zip(sol.map.knots_x, sol.map.knots_t)],
        "pushforward": {
            "atoms": [float(a) for a in sol.pushforward.atoms],
            "weights": [float(w) for w in sol.pushforward.weights],
        },
        "value": float(sol.value),
        "irreducible_intervals": [[iv.lo, iv.hi] for iv in sol.irreducibles],
        "kkt_residual": float(sol.kkt_residual),
    }


def _reverse_doc(rsol):
    return {
        "schema": 1,
        "kind": "reverse_solution",
        "cost": rsol.cost.describe(),
        "nu_star": {
            "atoms": [float(a) for a in rsol.nu_star.atoms],
            "weights": [float(w) for w in rsol.nu_star.weights],
        },
        "map_knots": [
            [float(a), float(b)] for a, b in zip(rsol.tilde_map.knots_x, rsol.tilde_map.knots_t)
        ],
        "irreducible_intervals": [[iv.lo, iv.hi] for iv in rsol.irreducibles_mu_nustar],
        "value": float(rsol.value),
    }


def _value_doc(sol, cost):
    return {
        "schema": 1,
        "kind": "value",
        "cost": cost.describe(),
        "value": float(sol.value),
        "kkt_residual": float(sol.kkt_residual),
    }


def _coupling_doc(pi, mu, nu, cost, cert=None):
    doc = {
        "schema": 1,
        "kind": "coupling",
        "entries": [
            [float(mu.atoms[r]), float(nu.atoms[c]), float(m)] for r, c, m in zip(pi.rows, pi.cols, pi.mass)
        ],
        "cost": cost.describe(),
        "barycentric_cost": float(pi.cost(cost)),
    }
    if cert is not None:
        doc["verification"] = {"optimality_certificate": cert.ok, "violations": list(cert.violations)}
    return doc


def _stability_doc(report):
    return {
        "schema": 1,
        "kind": "stability_report",
        "ladder": report.kind,
        "rho": report.rho,
        "cost": report.cost.describe(),
        "map_gap_semantics": "common-quantile identification on (0,1)",
        "base_value": report.base_value,
        "rungs": [
            {
                "k": r.k,
                "value": r.value,
                "value_gap": r.value_gap,
                "optimizer_gap_w1": r.optimizer_gap_w1,
                "map_gaps": {f"{e:g}": r.map_gaps[e] for e in MAP_GAP_EPS},
            }
            for r in report.rungs
        ],
    }


class TestDocumentSchema:
    """The CLI's documents against the library results, laid out by the
    schema-1 builders the result classes used to carry (copied above)."""

    def test_matches_the_library_results(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        for k in range(30):
            n = int(rng.integers(1, 20))
            pair = mix_pair(rng, n, int(rng.integers(1, 20))) if k % 2 else spread_pair(rng, n)
            paths = []
            for name, m in zip(("mu", "nu"), pair):
                paths.append(str(tmp_path / f"{name}{k}.csv"))
                write_measure_csv(m, paths[-1])
            mu, nu = map(read_measure_csv, paths)
            cost = (CostSpec.quadratic(), CostSpec.quartic(), CostSpec.power(3.0))[k % 3]
            flags = ["--cost", cost.kind, "--rho", repr(cost.rho)]
            ladder = PerturbationLadder(mu, nu, "shift", length=2, rho=4.0)
            sol = solve_weak_transport(mu, nu, cost)
            pi = compose_with_map(mu, sol.map, build_martingale_coupling(sol.pushforward, nu))
            cert = optimality_certificate(pi, mu, nu, cost)
            for argv, doc in (
                (["wmr", *paths, *flags], _solution_doc(sol)),
                (["value", *paths, *flags], _value_doc(sol, cost)),
                (["compose", *paths, *flags], _coupling_doc(pi, mu, nu, cost)),
                (["compose", *paths, *flags, "--verify"], _coupling_doc(pi, mu, nu, cost, cert)),
                (["reverse", *paths, *flags], _reverse_doc(reverse_optimizer(mu, nu, cost))),
                (
                    ["stability", *paths, *flags, "--rungs", "2", "--ladder-rho", "4"],
                    _stability_doc(run_stability_experiment(ladder, cost)),
                ),
            ):
                assert main(argv) == 0, (k, argv[0])
                assert capsys.readouterr().out == render_json(doc) + "\n", (k, argv[0])


class TestGoldenDeterminism:
    @pytest.mark.parametrize(
        "argv_tail",
        [
            ["wmr", "{mu2}", "{nu2}", "--verify"],
            ["reverse", "{dirac}", "{nu2}"],
            ["compose", "{mu2}", "{nu2}", "--format", "csv"],
            ["irreducible", "{outer}", "{b4}"],
            ["stability", "{dirac}", "{nu2}", "--ladder", "empirical", "--rungs", "4",
             "--seed", "42", "--format", "csv"],
        ],
    )
    def test_byte_identical_runs(self, measure_files, tmp_path, argv_tail):
        argv = [a.format(**measure_files) for a in argv_tail]
        out1, out2 = tmp_path / "a.out", tmp_path / "b.out"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_plot_outputs_deterministic(self, measure_files, tmp_path):
        s1, s2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
        assert main(["plot", measure_files["outer"], measure_files["b4"], "--out", str(s1)]) == 0
        assert main(["plot", measure_files["outer"], measure_files["b4"], "--out", str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()
        assert (tmp_path / "p1.svg.csv").read_bytes() == (tmp_path / "p2.svg.csv").read_bytes()


class TestPlotPartition:
    def test_pure_contraction_all_contractive(self, measure_files, tmp_path):
        out = tmp_path / "c.svg"
        assert main(["plot", measure_files["mu2"], measure_files["nu2"], "--out", str(out)]) == 0
        rows = (tmp_path / "c.svg.csv").read_text().strip().splitlines()[1:]
        assert rows and all(r.rsplit(",", 1)[1] == "contractive" for r in rows)

    def test_two_component_instance(self, measure_files, tmp_path):
        mu = read_measure_csv(measure_files["outer"])
        nu = read_measure_csv(measure_files["b4"])
        sol = solve_weak_transport(mu, nu)
        segs = plot_segments(sol)
        mart = [s for s in segs if s["class"].startswith("martingale")]
        assert len(mart) == 2
        assert len({s["class"] for s in mart}) == 2  # two distinct regions
        # martingale-classified pieces lie inside unit-slope intervals of the map
        slope1, _ = map_decomposition(sol.map)
        for seg in mart:
            assert any(lo - 1e-9 <= seg["x0"] and seg["x1"] <= hi + 1e-9 for lo, hi in slope1)
        # and their images fill the irreducible intervals
        for seg, iv in zip(mart, sol.irreducibles):
            assert seg["t0"] == pytest.approx(max(iv.lo, seg["t0"]))
            assert iv.lo - 1e-9 <= seg["t0"] <= seg["t1"] <= iv.hi + 1e-9

    def test_ordered_pair_identity_classification(self, measure_files, tmp_path):
        # identity graph; classification driven by the irreducible intervals
        out = tmp_path / "i.svg"
        assert main(["plot", measure_files["inner"], measure_files["outer"], "--out", str(out)]) == 0
        rows = (tmp_path / "i.svg.csv").read_text().strip().splitlines()[1:]
        classes = [r.rsplit(",", 1)[1] for r in rows]
        assert any(c.startswith("martingale") for c in classes)

    def test_svg_has_both_styles(self, measure_files, tmp_path):
        out = tmp_path / "s.svg"
        assert main(["plot", measure_files["outer"], measure_files["b4"], "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert 'class="martingale"' in svg and 'class="contractive"' in svg

    def test_matches_the_per_endpoint_loop(self):
        rng = np.random.default_rng(30)
        for k in range(150):
            n = int(rng.integers(1, 30))
            if k % 3 == 0:
                mu, nu = mix_pair(rng, n, int(rng.integers(1, 30)))
            elif k % 3 == 1:
                mu, nu = spread_pair(rng, n)
            else:
                mu, nu = clustered_pair(rng)
            sol = solve_weak_transport(mu, nu)
            assert plot_segments(sol) == _plot_segments_loop(sol), k


def _plot_segments_loop(sol):
    """The endpoint-by-knot scan plot_segments replaced, kept as its reference."""
    x = sol.map.knots_x
    t = sol.map.knots_t
    if x.size < 2:
        return []
    s = max(1.0, float(x[-1] - x[0]))
    cuts = set(map(float, x))
    for iv in sol.irreducibles:
        for e in (iv.lo, iv.hi):
            for i in range(x.size - 1):
                t0, t1 = t[i], t[i + 1]
                if (t0 < e < t1) or (t1 < e < t0):
                    cuts.add(float(x[i] + (x[i + 1] - x[i]) * (e - t0) / (t1 - t0)))
    grid = np.array(sorted(cuts))
    segs = []
    for a, b in zip(grid[:-1], grid[1:]):
        image = float(sol.map(0.5 * (a + b))[0])
        cls = "contractive"
        for ci, iv in enumerate(sol.irreducibles):
            if iv.contains(image, 1e-12 * s):
                cls = f"martingale[{ci}]"
                break
        seg = {"x0": float(a), "t0": float(sol.map(a)[0]), "x1": float(b), "t1": float(sol.map(b)[0])}
        segs.append({**seg, "class": cls})
    merged = [segs[0]]
    for seg in segs[1:]:
        if seg["class"] == merged[-1]["class"]:
            merged[-1] = {**merged[-1], "x1": seg["x1"], "t1": seg["t1"]}
        else:
            merged.append(seg)
    return merged


def render_json_per_value(obj, indent=0):
    """render_json as one call per value, before float arrays were filled
    into one template: the reference for the writer's bytes."""
    pad = "  " * indent
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {render_json_per_value(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {render_json_per_value(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".16e")
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def awkward_floats(rng, n):
    """Signed zeros, non-finite values and magnitudes from 1e-320 to 1e300."""
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320, 300, n)
    x[rng.random(n) < 0.1] = -0.0
    x[rng.random(n) < 0.1] = 0.0
    x[rng.random(n) < 0.02] = np.inf
    x[rng.random(n) < 0.02] = np.nan
    return x


class TestWriters:
    def test_render_json_matches_the_per_value_writer(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            x = awkward_floats(rng, 3 * n)
            doc = {
                "flat": x[:n].tolist(),
                "numpy_scalars": list(x[:n]),
                "float32": [np.float32(0.1), np.float32(-2.5)],
                "rows": x.reshape(n, 3).tolist(),
                "tuples": [tuple(r) for r in x.reshape(n, 3).tolist()],
                "ragged": [x[:1].tolist(), x[:2].tolist()],
                "mixed": [1.0, 2, True, None, "a\\b\"c"],
                "mixed_rows": [[1.0, 2.0], [3.0, 4]],
                "empty_rows": [[], []],
                "nested": [[[1.0, 2.0]], [[3.0, 4.0]]],
                "records": [{"k": 1, "v": [0.5, -0.0]}, {}],
                "ints": [1, 2],
                "array": x[:n],
                "array_rows": x.reshape(n, 3),
                "empty_array": np.empty(0),
                "empty_array_rows": np.empty((0, 2)),
                "int_array": np.arange(n),
                "records_of_arrays": [{"v": x[:2]}, {"v": x[:0]}],
            }
            assert render_json(doc) == render_json_per_value(doc)

    def test_csv_matches_the_per_value_writer(self):
        rng = np.random.default_rng(17)
        x = awkward_floats(rng, 60)
        for rows in (
            list(zip(x[:30], x[30:])),
            [(1.0, 2.0, "contractive"), (3.0, 4.0, "martingale[0]")],
            [(1.0, 2), (True, np.float32(0.1))],
            [],
        ):
            want = "\n".join(["h", *(",".join(v if isinstance(v, str) else wmrline.cli.fmt(v) for v in r) for r in rows)])
            assert wmrline.cli._csv("h", iter(rows)) == want + "\n"

    def test_coupling_csv_matches_the_per_entry_writer(self):
        mu, nu = mix_pair(np.random.default_rng(18), 30, 40)
        sol = solve_weak_transport(mu, nu)
        pi = compose_with_map(mu, sol.map, build_martingale_coupling(sol.pushforward, nu))
        lines = ["source_atom,target_atom,mass"]
        for r, c, m in zip(pi.rows, pi.cols, pi.mass):
            lines.append(f"{mu.atoms[r]:.16e},{nu.atoms[c]:.16e},{m:.16e}")
        assert coupling_to_csv(pi) == "\n".join(lines) + "\n"
