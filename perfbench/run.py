"""Benchmark of ``cocyclelab``: one workload, one seed, one run.

    python3 perfbench/run.py --workload reduce-pos2 --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src``.
Workloads: reduce-pos2, reduce-pos3, paper-battery (see README.md).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

The measurement runs in a child process whose environment pins the BLAS
and OpenMP pools to one thread and drops COCYCLE_SEED, so only ``--seed``
decides the inputs.  ``setup_s`` is the median over several child processes
that only set up.  The program writes its files under ``.bench_out/``.
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

HERE = Path(__file__).resolve().parent
WORKLOADS = ("reduce-pos2", "reduce-pos3", "paper-battery")
SETUP_RUNS = 9          # set-up samples per run, the measuring process included
TIME_LIMIT_S = 170.0    # the whole run, every child process included
OUT_DIR = ".bench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measured window")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("COCYCLE_SEED", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure(args, extra, env, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", OUT_DIR] + extra
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "cocyclelab" / "__init__.py").is_file():
        print("perfbench: no src/cocyclelab here; run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env(root)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(measure(args, ["--setup-only"], env, deadline)["setup_s"])
        result = measure(args, ["--seconds", str(args.seconds),
                                "--trace", str(args.trace)], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    for name, m in sorted(metrics.items()):
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    for i, rnd in enumerate(result["rounds"]):
        kind = {None: "warm-up", True: "traced", False: "untraced"}[rnd["traced"]]
        print(f"round {i}: {kind:8s} {rnd['wall']:.3f} s  slowdown {rnd['slowdown']:.3f}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
