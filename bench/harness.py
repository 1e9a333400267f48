"""Benchmark worker: set up one workload, run whole rounds of it, report.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread and wmrline's
``src`` on the path. Modes:

  setup   build inputs and reference answers, report setup_s, exit
  run     untraced closed loop for --seconds; end-to-end metrics
  trace   one warm-up and one untraced round, then traced rounds for
          --seconds; per-layer metrics and the tracing overhead

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import wmrline  # noqa: E402

if not Path(wmrline.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"wmrline was imported from {wmrline.__file__}, not from {ROOT / 'src'}")

import tracing  # noqa: E402
import workloads  # noqa: E402


class BudgetExceeded(Exception):
    """Raised in the main thread when a call runs past its budget."""


class Budget:
    """Stops an in-process call with SIGALRM once it runs past its budget."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise BudgetExceeded()

    def call(self, fn, seconds):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return fn()
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)


def build(name, seed):
    if name == "cli":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        workdir = ROOT / ".bench_build" / f"wmrbench-{os.getpid()}"
        return workloads.build_cli(seed, workdir, env)
    builders = {
        "solve": workloads.build_solve,
        "couple": workloads.build_couple,
        "scale": workloads.build_scale,
    }
    return builders[name](seed)


def run_round(wl, budget, tracer=None):
    """Run every operation once; returns (records, check seconds)."""
    records, check_s = [], 0.0
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = i
        error = None
        t0 = time.perf_counter()
        try:
            if wl.in_children:  # the child process gets the budget as its timeout
                result = op.run()
            else:
                result = budget.call(op.run, wl.budget_s)
        except Exception as err:  # wmrline's errors, the budget, a killed subcommand
            error = f"{type(err).__name__}: {str(err)[:200]}"
        dt = time.perf_counter() - t0
        c0 = time.perf_counter()
        try:
            wrong = [] if error else op.check(result)
        except Exception as err:  # an output too malformed to check is wrong
            wrong = [f"output could not be checked: {type(err).__name__}: {err}"]
        check_s += time.perf_counter() - c0
        status = "failed" if error else ("wrong" if wrong else "ok")
        records.append((op, dt, status, error or "; ".join(wrong)))
    return records, check_s


def run_rounds(wl, budget, seconds, tracer=None):
    rounds, check_s = [], 0.0
    start = time.perf_counter()
    while len(rounds) < wl.min_rounds or time.perf_counter() - start < seconds:
        recs, cs = run_round(wl, budget, tracer)
        rounds.append(recs)
        check_s += cs
    return rounds, check_s


def summary(rounds):
    recs = [r for rnd in rounds for r in rnd]
    ok_times = [dt for _, dt, status, _ in recs if status == "ok"]
    timed = sum(dt for _, dt, _, _ in recs)
    failed = sum(status == "failed" for _, _, status, _ in recs)
    wrong = sum(status == "wrong" for _, _, status, _ in recs)
    shown = set()
    for op, dt, status, why in recs:
        if status != "ok" and op.label not in shown:
            shown.add(op.label)
            print(f"{status}: {op.label} after {dt:.3f} s: {why}", file=sys.stderr)
    return {
        "correct": wrong == 0,
        "attempted": len(recs),
        "failed": failed,
        "ok_times": ok_times,
        "timed_s": timed,
    }


def peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if wl.in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cli_import_ms(env, samples=3):
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import wmrline"], env=env, check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True, help="perf_counter when spawned")
    args = ap.parse_args()

    wl = build(args.workload, args.seed)
    try:
        setup_s = time.perf_counter() - args.t0  # perf_counter is system-wide on Linux
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return
        budget = Budget()
        if args.mode == "run":
            rounds, _ = run_rounds(wl, budget, args.seconds)
            s = summary(rounds)
            if not s["ok_times"]:
                sys.exit("no operation passed its checks")
            metrics = {
                "ops_per_s": (len(s["ok_times"]) / s["timed_s"], "1/s"),
                "op_p50_ms": (statistics.median(s["ok_times"]) * 1e3, "ms"),
                "peak_rss_mb": (peak_rss_mb(wl), "MB"),
                "setup_s": (setup_s, "s"),
            }
        else:
            run_round(wl, budget)  # warm-up
            plain, _ = run_round(wl, budget)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                rounds, check_s = run_rounds(wl, budget, args.seconds, tracer)
            finally:
                tracer.uninstall()
            s = summary(rounds)
            k = len(rounds)
            layer = {name: v / k for name, v in tracer.layer_metrics().items()}
            layer["bench.check_s"] = check_s / k
            plain_s = sum(dt for _, dt, _, _ in plain)
            layer["trace.overhead_s"] = s["timed_s"] / k - plain_s
            if wl.in_children:
                layer["cli.import_ms"] = cli_import_ms(wl.env)
                for sub in tracing.CLI_SUBCOMMANDS:
                    times = [dt for rnd in rounds for op, dt, st, _ in rnd if op.group == sub]
                    layer[f"cli.{sub}_ms"] = statistics.median(times) * 1e3
            metrics = {name: (layer[name], unit) for name, unit in tracing.UNITS.items()}
        print(
            json.dumps(
                {
                    "correct": s["correct"],
                    "attempted": s["attempted"],
                    "failed": s["failed"],
                    "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
                }
            )
        )
    finally:
        wl.cleanup()


if __name__ == "__main__":
    main()
