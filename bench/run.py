"""Run one wmrline benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload {solve,couple,scale,cli} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout of the repository; the benchmark uses
the wmrline sources under ``src/`` next to this directory and fails when
they are missing. wmrline runs in worker processes (``harness.py``) with
BLAS and OpenMP pinned to one thread. With ``--trace 0`` the last line of
output holds the end-to-end metrics; ``setup_s`` is the median of five
set-ups, each from process start to the first timed operation. With
``--trace 1`` it holds the per-layer metrics of a separate traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("solve", "couple", "scale", "cli")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170.0  # the whole run must end within 180 s


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(mode: str, args, deadline: float) -> dict:
    t0 = time.perf_counter()
    cmd = [sys.executable, str(BENCH / "harness.py"), mode, "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--t0", repr(t0)]
    proc = subprocess.run(
        cmd,
        stdout=subprocess.PIPE,
        text=True,
        env=worker_env(),
        cwd=ROOT,
        timeout=max(1.0, deadline - t0),
    )
    if proc.returncode != 0:
        sys.exit(f"{mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "wmrline" / "__init__.py").is_file():
        sys.exit(f"no wmrline sources at {ROOT / 'src' / 'wmrline'}")

    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    if args.trace:
        print(json.dumps(spawn("trace", args, deadline)))
        return
    setups = [spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    result = spawn("run", args, deadline)
    setups.append(result["metrics"]["setup_s"]["value"])
    result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
