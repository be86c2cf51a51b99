"""ionherald benchmark: one workload per invocation.

    python3 perfbench/run.py --workload reproduce|eventfile \
        --seed N --seconds S --trace 0|1

Prints one context line (versions, nproc, seeds, per-iteration records,
sample counts, why the workload exists), then as the last line one JSON
object with the keys correct, attempted, failed and metrics. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` its
per-layer metrics, taken from a separate traced run.

The workload runs in a child process of its own with one BLAS/OpenMP thread,
so its peak RSS is its own and no library threads compete for the cores.
``setup_s`` is the median wall time of fresh processes that import
ionherald and calibrate the three fringe presets, as every CLI call does.
Uses only the standard library; ionherald is imported from ``src/`` of the
checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

SETUP_RUNS = 5
SETUP_PROBE = """\
import ionherald.cli
from ionherald import presets
for name in ("rl", "hv", "da"):
    presets.calibrate_fringe_preset(name)
"""
# every run must end within 180 s; leave room to report
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "")
                                   .split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(argv: list[str], deadline: float) -> None:
    """Run a child to completion; on failure or timeout raise with its
    stderr. ``subprocess.run`` kills and reaps a child that overruns."""
    proc = subprocess.run([sys.executable] + argv, env=child_env(),
                          cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")


def measure_setup(deadline: float) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        run_child(["-c", SETUP_PROBE], deadline)
        times.append(time.perf_counter() - t0)
    return times


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=whys)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "ionherald" / "__init__.py").is_file():
        print(f"no ionherald sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    result_path = OUT / (f"result-{args.workload}-{args.seed}"
                         f"-trace{args.trace}.json")
    result_path.unlink(missing_ok=True)
    try:
        setup = [] if args.trace else measure_setup(deadline)
        run_child([str(HERE / "workloads.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--result", str(result_path)],
                  deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))
    measured = dict(result["metrics"])
    if setup:
        measured["setup_s"] = median(setup)

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"benchmark did not measure {missing}", file=sys.stderr)
        return 1
    context = dict(result["context"], why=whys[args.workload],
                   samples=result["samples"],
                   wall_s_tail=result.get("wall_s_tail"),
                   setup_runs_s=setup, iterations=result["iterations"])
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
