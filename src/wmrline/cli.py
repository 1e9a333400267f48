"""Command-line front end.

One binary with subcommands for measure diagnostics, the weak transport
solver, the reverse problem, coupling composition, stability ladders, and a
Figure-style SVG of the transport map partitioned into martingale and
contractive regions. All numeric output uses fixed scientific notation with
17 significant digits so identical inputs give byte-identical files.
Handlers import the couplings, the reverse and the stability ladders
themselves, so each subcommand loads only the modules it runs.
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain

import numpy as np

from .errors import DomainError, WmrError
from .measures import (
    _csv,
    _order_check,
    interval_index,
    irreducible_components,
    mean,
    potential,
    read_measure_csv,
)
from .wmr import CostSpec, solve_weak_transport, verify_slope1_characterization

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


def fmt(x: float) -> str:
    """Fixed scientific notation, 17 significant digits."""
    return format(float(x), ".16e")


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats in fixed scientific notation."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in obj:  # insertion order is part of the schema
            items.append(f'{pad}  "{key}": {render_json(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = _float_lines(obj, pad + "  ")
        if body is None:
            body = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt(obj)
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _floats(values) -> bool:
    """Every value is a float (numpy's float64 is one), so "%.16e" writes fmt's text."""
    return all(issubclass(t, float) for t in set(map(type, values)))


def _float_lines(items, pad: str) -> str | None:
    """render_json's lines for a list of floats, or of equal-length lists of
    floats, filled into one "%.16e" template (the text of fmt); None for any
    other list."""
    if _floats(items):
        return ",\n".join([pad + "%.16e"] * len(items)) % tuple(items)
    if not all(issubclass(t, (list, tuple)) for t in set(map(type, items))):
        return None
    widths = set(map(len, items))
    values = tuple(chain.from_iterable(items))
    if len(widths) != 1 or not values or not _floats(values):
        return None
    row = pad + "[\n" + ",\n".join([pad + "  %.16e"] * widths.pop()) + "\n" + pad + "]"
    return ",\n".join([row] * len(items)) % values


def _measure_doc(m) -> dict:
    return {"atoms": m.atoms.tolist(), "weights": m.weights.tolist()}


def _knots_doc(map_) -> list:
    return np.column_stack((map_.knots_x, map_.knots_t)).tolist()


def _intervals_doc(intervals) -> list:
    return intervals.ends().reshape(-1, 2).tolist()


# ---------------------------------------------------------------------------
# Subcommands: each takes the parsed flags and the measures read from the
# positional files, and returns a schema-1 document, CSV text, or None when
# it wrote its own output
# ---------------------------------------------------------------------------


def cmd_potential(args, m):
    u = potential(m)
    if args.fmt == "csv":
        return _csv("y,u", zip(u.breakpoints, u.values))
    return {
        "schema": 1,
        "kind": "potential",
        "breakpoints": list(map(float, u.breakpoints)),
        "values": list(map(float, u.values)),
        "left_slope": u.left_slope,
        "right_slope": u.right_slope,
        "mean": mean(m),
    }


def cmd_check_order(args, a, b):
    witness = _order_check(a, b)[0]
    if witness is not None:
        witness.pop("index", None)
    return {"schema": 1, "kind": "order_check", "result": witness is None, "witness": witness}


def cmd_irreducible(args, a, b):
    comps = _intervals_doc(irreducible_components(a, b))
    if args.fmt == "csv":
        return _csv("lo,hi", comps)
    return {"schema": 1, "kind": "irreducible_intervals", "intervals": comps}


def cmd_wmr(args, mu, nu):
    sol = solve_weak_transport(mu, nu, args.cost)
    doc = {
        "schema": 1,
        "kind": "weak_solution",
        "cost": sol.cost.describe(),
        "map_knots": _knots_doc(sol.map),
        "pushforward": _measure_doc(sol.pushforward),
        "value": float(sol.value),
        "irreducible_intervals": _intervals_doc(sol.irreducibles),
        "kkt_residual": float(sol.kkt_residual),
    }
    if args.verify:
        from . import martingale
        # the slope-1 report includes the admissibility check and its violations
        slope = verify_slope1_characterization(sol, mu, nu, args.tol)
        mg = martingale.build_martingale_coupling(sol.pushforward, nu)
        pi = martingale.compose_with_map(mu, sol.map, mg)
        cert = martingale.optimality_certificate(pi, mu, nu, args.cost, args.tol)
        doc["verification"] = {
            "admissible": slope.admissible,
            "slope1_characterization": slope.ok,
            "optimality_certificate": cert.ok,
            "violations": list(slope.violations) + list(cert.violations),
        }
    return doc


def cmd_value(args, mu, nu):
    sol = solve_weak_transport(mu, nu, args.cost)
    return {
        "schema": 1,
        "kind": "value",
        "cost": args.cost.describe(),
        "value": sol.value,
        "kkt_residual": sol.kkt_residual,
    }


def cmd_reverse(args, mu, nu):
    from . import reverse
    rsol = reverse.reverse_optimizer(mu, nu, args.cost)
    return {
        "schema": 1,
        "kind": "reverse_solution",
        "cost": rsol.cost.describe(),
        "nu_star": _measure_doc(rsol.nu_star),
        "map_knots": _knots_doc(rsol.tilde_map),
        "irreducible_intervals": _intervals_doc(rsol.irreducibles_mu_nustar),
        "value": float(rsol.value),
    }


def cmd_compose(args, mu, nu):
    from . import martingale
    sol = solve_weak_transport(mu, nu, args.cost)
    mg = martingale.build_martingale_coupling(sol.pushforward, nu)
    pi = martingale.compose_with_map(mu, sol.map, mg)
    if args.fmt == "csv":
        return martingale.coupling_to_csv(pi)
    doc = {
        "schema": 1,
        "kind": "coupling",
        "entries": np.column_stack((mu.atoms[pi.rows], nu.atoms[pi.cols], pi.mass)).tolist(),
        "cost": args.cost.describe(),
        "barycentric_cost": pi.cost(args.cost),
    }
    if args.verify:
        cert = martingale.optimality_certificate(pi, mu, nu, args.cost, args.tol)
        doc["verification"] = {
            "optimality_certificate": cert.ok,
            "violations": list(cert.violations),
        }
    return doc


def cmd_stability(args, mu, nu):
    from . import stability
    ladder = stability.PerturbationLadder(
        mu,
        nu,
        args.ladder,
        length=args.rungs,
        rho=args.ladder_rho,
        seed=args.seed,
        step=args.step,
        samples=args.samples,
        delta0=args.delta0,
    )
    report = stability.run_stability_experiment(ladder, args.cost)
    if args.fmt == "csv":
        return report.to_csv()
    return {
        "schema": 1,
        "kind": "stability_report",
        "ladder": report.kind,
        "rho": report.rho,
        "cost": report.cost.describe(),
        # when the source marginal itself moves, maps are compared through
        # common quantile levels; this is a reporting convention
        "map_gap_semantics": "common-quantile identification on (0,1)",
        "base_value": report.base_value,
        "rungs": [
            {
                "k": r.k,
                "value": r.value,
                "value_gap": r.value_gap,
                "optimizer_gap_w1": r.optimizer_gap_w1,
                "map_gaps": {f"{e:g}": r.map_gaps[e] for e in stability.MAP_GAP_EPS},
            }
            for r in report.rungs
        ],
    }


# ---------------------------------------------------------------------------
# Figure-style plot: transport map split into martingale/contractive regions
# ---------------------------------------------------------------------------


def plot_segments(sol) -> list[dict]:
    """Split the graph of the map at preimages of irreducible-interval
    endpoints and classify each piece: martingale where the image lies inside
    an irreducible interval of (pushforward, nu), contractive elsewhere."""
    x = sol.map.knots_x
    t = sol.map.knots_t
    if x.size < 2:
        return []
    s = max(1.0, float(x[-1] - x[0]))
    # segment i crosses an endpoint e strictly when lo_i < e < hi_i. The map
    # is nondecreasing up to rounding, so the segments that do lie between
    # the first whose running max of hi exceeds e and the last whose suffix
    # min of lo is below it: one segment, or a few on a rounding-level plateau
    e = sol.irreducibles.ends()
    lo, hi = np.minimum(t[:-1], t[1:]), np.maximum(t[:-1], t[1:])
    first = np.searchsorted(np.maximum.accumulate(hi), e, side="right")
    count = np.maximum(np.searchsorted(np.minimum.accumulate(lo[::-1])[::-1], e) - first, 0)
    i = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
    e = np.repeat(e, count)
    cross = (lo[i] < e) & (e < hi[i])
    i, e = i[cross], e[cross]
    t0, t1 = t[i], t[i + 1]
    grid = np.unique(np.concatenate((x, x[i] + (x[i + 1] - x[i]) * (e - t0) / (t1 - t0))))
    comp = interval_index(sol.irreducibles, sol.map(0.5 * (grid[:-1] + grid[1:])), 1e-12 * s)
    # consecutive pieces of one class merge
    start = np.flatnonzero(np.diff(comp, prepend=-2))
    stop = np.append(start[1:], comp.size)
    image = sol.map(grid)
    return [
        {
            "x0": float(grid[a]),
            "t0": float(image[a]),
            "x1": float(grid[b]),
            "t1": float(image[b]),
            "class": "contractive" if comp[a] < 0 else f"martingale[{comp[a]}]",
        }
        for a, b in zip(start.tolist(), stop.tolist())
    ]


def segments_to_svg(segs, knots_x, knots_t) -> str:
    lo_x = min(knots_x)
    hi_x = max(knots_x)
    lo_y = min(min(knots_t), lo_x)
    hi_y = max(max(knots_t), hi_x)
    span_x = max(hi_x - lo_x, 1e-9)
    span_y = max(hi_y - lo_y, 1e-9)
    W, Hh, pad = 480.0, 480.0, 40.0

    def sx(v):
        return pad + (v - lo_x) / span_x * (W - 2 * pad)

    def sy(v):
        return Hh - pad - (v - lo_y) / span_y * (Hh - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0f}" height="{Hh:.0f}" '
        f'viewBox="0 0 {W:.0f} {Hh:.0f}">',
        "<style>.contractive{stroke:#2b6cb0;stroke-width:2.5;fill:none}"
        ".martingale{stroke:#7b2d8b;stroke-width:2.5;fill:none}"
        ".axis{stroke:#999;stroke-width:1}</style>",
        f'<line class="axis" x1="{pad:.2f}" y1="{Hh - pad:.2f}" x2="{W - pad:.2f}" y2="{Hh - pad:.2f}"/>',
        f'<line class="axis" x1="{pad:.2f}" y1="{pad:.2f}" x2="{pad:.2f}" y2="{Hh - pad:.2f}"/>',
    ]
    if not segs and len(knots_x) == 1:
        parts.append(
            f'<circle class="contractive" cx="{sx(knots_x[0]):.3f}" cy="{sy(knots_t[0]):.3f}" r="4"/>'
        )
    for seg in segs:
        cls = "martingale" if seg["class"].startswith("martingale") else "contractive"
        parts.append(
            f'<polyline class="{cls}" points="{sx(seg["x0"]):.3f},{sy(seg["t0"]):.3f} '
            f'{sx(seg["x1"]):.3f},{sy(seg["t1"]):.3f}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args, mu, nu):
    sol = solve_weak_transport(mu, nu, args.cost)
    segs = plot_segments(sol)
    svg = segments_to_svg(segs, list(sol.map.knots_x), list(sol.map.knots_t))
    out = args.out or "transport_plot.svg"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    with open(out + ".csv", "w", encoding="utf-8") as fh:
        fh.write(_csv("x0,t0,x1,t1,class", (seg.values() for seg in segs)))
    sys.stdout.write(f"wrote {out} and {out}.csv\n")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


# add_argument keywords of every optional flag but --out, which all
# subcommands take; each subcommand declares only the flags its handler reads
FLAGS = {
    "--cost": {"choices": ("quadratic", "quartic", "power"), "default": "quadratic"},
    "--rho": {"type": float, "default": 2.0, "help": "exponent for --cost power"},
    "--tol": {"type": float, "default": 1e-7, "help": "verification tolerance (times scale)"},
    "--verify": {"action": "store_true"},
    "--format": {"dest": "fmt", "choices": ("json", "csv"), "default": "json"},
    "--seed": {"type": int, "default": 0},
    "--ladder": {"choices": ("shift", "empirical", "quantize"), "default": "shift"},
    "--rungs": {"type": int, "default": 8},
    "--ladder-rho": {"type": float, "default": 2.0},
    "--step": {"type": float, "default": 1.0},
    "--samples": {"type": int, "default": 1},
    "--delta0": {"type": float, "default": 1.0},
}
COST = ("--cost", "--rho")
LADDER = ("--seed", "--ladder", "--rungs", "--ladder-rho", "--step", "--samples", "--delta0")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wmrline", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    for name, handler, needs_two, flags in (
        ("potential", cmd_potential, False, ("--format",)),
        ("check-order", cmd_check_order, True, ()),
        ("irreducible", cmd_irreducible, True, ("--format",)),
        ("wmr", cmd_wmr, True, (*COST, "--tol", "--verify")),
        ("value", cmd_value, True, COST),
        ("reverse", cmd_reverse, True, COST),
        ("compose", cmd_compose, True, (*COST, "--tol", "--verify", "--format")),
        ("plot", cmd_plot, True, COST),
        ("stability", cmd_stability, True, (*COST, "--format", *LADDER)),
    ):
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(handler=handler)
        p.add_argument("mu", help="measure CSV (atom,weight per line)")
        if needs_two:
            p.add_argument("nu", help="measure CSV (atom,weight per line)")
        p.add_argument("--out", default=None)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return ap


def main(argv=None) -> int:
    """Parse argv, read the measures, run the subcommand and write what it
    returns: a document as JSON, CSV text as is, to stdout or --out."""
    args = build_parser().parse_args(argv)
    try:
        if "cost" in args:
            args.cost = CostSpec(args.cost, args.rho)
        if "tol" in args and not 0.0 < args.tol < np.inf:  # NaN fails both comparisons
            raise DomainError(f"--tol must be finite and positive, got {args.tol!r}")
        paths = (args.mu, args.nu) if "nu" in args else (args.mu,)
        out = args.handler(args, *map(read_measure_csv, paths))
        if isinstance(out, dict):
            out = render_json(out) + "\n"
        if args.out and out is not None:  # plot writes --out itself and returns None
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        elif out is not None:
            sys.stdout.write(out)
        return EXIT_OK
    except (OSError, ValueError) as err:
        sys.stderr.write(f"input error: {err}\n")
        return EXIT_IO
    except WmrError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_DOMAIN


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
