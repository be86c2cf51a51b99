"""The benchmark's workloads; run.py starts this file in a child process.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --result FILE

Load is a closed loop: one client issues one iteration at a time and the
next only after the previous one returned. An iteration is built from the
seed alone (plan, untimed), then only the calls into ionherald are timed,
and every output is checked after the timed loop, so neither the checks nor
their memory enter ``wall_s`` or ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np
import scipy

import ionherald
from ionherald import cli, presets
from ionherald.correlate import extract, histogram_from_stream
from ionherald.errors import DataError
from ionherald.sim import read_events, simulate_run

import tracing

ROOT = Path(__file__).resolve().parent.parent

# every CLI invocation calibrates these before it can build a manifest
CALIBRATED_PRESETS = ("rl", "hv", "da")


def iteration_seed(seed: int, i: int) -> int:
    """Seed of iteration ``i``: the workload seed itself for the first, so a
    recorded digest can be reproduced from the command line."""
    if i == 0:
        return seed
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_kv(path) -> dict:
    return dict(line.split("=", 1)
                for line in Path(path).read_text().splitlines() if "=" in line)


@dataclass
class Op:
    """One iteration: a call into the program and its output check.

    ``check`` receives what ``call`` returned, appends what it found wrong to
    ``record["problems"]`` and returns how many of the ``ops`` failed.
    """

    call: Callable[[], object]
    check: Callable[[object], int]
    ops: int
    detector_hours: float
    record: dict = field(default_factory=dict)


class Reproduce:
    """The product: all three fringe scans and the tomography at paper
    scale; sim does ~92% of the work."""

    name = "reproduce"
    scale = 1.0
    warm_scale = 0.05

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir
        plans = [presets.fringe_plan(n) for n in CALIBRATED_PRESETS]
        tomo = presets.tomo_plan()
        self.runs = sum(len(p.angles) for p in plans) + len(tomo.settings)
        self.hours = (sum(p.point_minutes * len(p.angles) for p in plans)
                      + tomo.setting_minutes * len(tomo.settings)) / 60.0

    def plan(self, i: int, tag: str, warm: bool = False) -> Op:
        scale = self.warm_scale if warm else self.scale
        master = iteration_seed(self.seed, i)
        out_dir = self.workdir / tag
        record = {"master_seed": master, "problems": []}

        def call():
            return cli.reproduce_paper(master, out_dir, scale, quiet=True)

        def check(rows) -> int:
            problems = record["problems"]
            for key, *values in rows:
                if not all(math.isfinite(v) for v in values):
                    problems.append(f"report row {key} is not finite")
            if not (out_dir / "tomo_rho.txt").is_file():
                problems.append("tomography did not converge")
            record["report_kv_sha256"] = sha256(out_dir / "report.kv")
            return self.runs if problems else 0

        return Op(call, check, self.runs, self.hours * scale, record)


class EventFile:
    """One full 120-min paper-hv event file written by `simulate` and parsed
    back by `g2`; text IO is ~90% of the time."""

    name = "eventfile"
    preset = "paper-hv"
    angle = 45.0
    minutes = 120.0
    warm_minutes = 5.0

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir

    def plan(self, i: int, tag: str, warm: bool = False) -> Op:
        minutes = self.warm_minutes if warm else self.minutes
        run_seed = iteration_seed(self.seed, i)
        events = self.workdir / f"{tag}.events"
        prefix = self.workdir / tag
        simulate = ["simulate", "--preset", self.preset,
                    "--angle", f"{self.angle:g}", "--minutes", f"{minutes:g}",
                    "--seed", str(run_seed), "--out", str(events)]
        g2 = ["g2", "--events", str(events), "--out-prefix", str(prefix)]
        record = {"run_seed": run_seed, "problems": []}

        def call():
            return cli.main(simulate), cli.main(g2)

        def check(codes) -> int:
            expected = simulate_run(presets.preset_manifest(
                self.preset, run_seed, angle_deg=self.angle, minutes=minutes))
            sim_bad = check_event_file(codes[0], events, expected)
            g2_bad = check_g2(codes[1], prefix, expected)
            record["problems"] += sim_bad + g2_bad
            events.unlink(missing_ok=True)
            return bool(sim_bad) + bool(g2_bad)

        return Op(call, check, 2, minutes / 60.0, record)


def check_event_file(code: int, events: Path, expected) -> list[str]:
    """`simulate` wrote exactly the stream its manifest determines."""
    if code != 0:
        return [f"simulate exited {code}"]
    try:
        if read_events(events) != expected:
            return ["event file differs from simulate_run(manifest)"]
    except DataError as exc:
        return [f"event file unreadable: {exc}"]
    return []


def check_g2(code: int, prefix: Path, expected) -> list[str]:
    """`g2` found the coincidences the in-memory stream has."""
    if code != 0:
        return [f"g2 exited {code}"]
    got = int(read_kv(f"{prefix}.res.txt")["coincidences"])
    want = extract(histogram_from_stream(expected)).coincidences
    return [] if got == want else [f"g2 coincidences {got} != {want}"]


WORKLOADS = {w.name: w for w in (Reproduce, EventFile)}


@dataclass
class Done:
    op: Op
    wall_s: float
    output: object = None
    error: str | None = None
    span: tracing.Span | None = None


def run_op(op: Op, tracer: tracing.Tracer | None = None,
           name: str = "") -> Done:
    """Time one iteration. An exception from the program is a result here:
    the benchmark records it and counts the iteration's ops as failed."""
    span = tracer.open(name) if tracer else None
    t0 = time.perf_counter()
    try:
        done = Done(op, 0.0, output=op.call())
    except Exception:
        done = Done(op, 0.0, error=traceback.format_exc(limit=4))
    done.wall_s = time.perf_counter() - t0
    if span is not None:
        tracer.close(span)
        done.span = span
    return done


def check_op(done: Done) -> int:
    """Failed ops of a finished iteration (all of them if it raised)."""
    op = done.op
    if done.error is not None:
        op.record["problems"].append(done.error)
        return op.ops
    try:
        return op.check(done.output)
    except Exception:
        op.record["problems"].append(traceback.format_exc(limit=4))
        return op.ops


class Runner:
    """Runs one workload: set-up, warm-up, the timed loop, the checks."""

    def __init__(self, name: str, seed: int, workdir: Path,
                 tracer: tracing.Tracer | None = None):
        self.name, self.seed, self.tracer = name, seed, tracer
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self._tags = 0
        self.peak_rss_mb = None
        t0 = time.perf_counter()
        for preset in CALIBRATED_PRESETS:
            presets.calibrate_fringe_preset(preset)
        self.calibration_s = time.perf_counter() - t0
        self.setup_spans = len(tracer.spans) if tracer else 0
        self.workload = WORKLOADS[name](seed, workdir)

    def _plan(self, i: int, warm: bool = False) -> Op:
        self._tags += 1
        return self.workload.plan(i, f"{self.name}-{self._tags}", warm)

    def warm(self) -> None:
        """One small iteration so lazy set-up is paid before timing."""
        check_op(run_op(self._plan(0, warm=True)))

    def loop(self, seconds: float, traced: bool) -> list[Done]:
        """Iterations back to back while one more is expected to end within
        ``seconds``, the last one's time being the estimate (at least one).

        Peak RSS is read after the first iteration: that is the peak of a
        process that set up and ran one iteration, as one CLI call does.
        Later iterations add only what the allocator kept from earlier ones,
        which varies from run to run.
        """
        done, start = [], time.perf_counter()
        while not done or (time.perf_counter() - start + done[-1].wall_s
                           <= seconds):
            op = self._plan(len(done))
            done.append(run_op(op, self.tracer if traced else None,
                               self.name))
            if len(done) == 1:
                self.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return done


def summarize(done: list[Done]) -> dict:
    failed = [check_op(d) for d in done]
    return {
        "attempted": sum(d.op.ops for d in done),
        "failed": sum(failed),
        "iterations": [dict(d.op.record, wall_s=d.wall_s, ops=d.op.ops,
                            failed=f) for d, f in zip(done, failed)],
    }


def context(name: str, seed: int) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ionherald": ionherald.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def wall_tail(walls: list[float]) -> dict | None:
    """The highest whole percentile of ``walls`` with at least ten samples
    above it, when that is at least the 50th."""
    p = math.floor(100.0 * (1.0 - 10.0 / len(walls)))
    if p < 50:
        return None
    return {"percentile": p, "wall_s": float(np.percentile(walls, p))}


def run_untraced(runner: Runner, seconds: float) -> dict:
    runner.warm()
    done = runner.loop(seconds, traced=False)
    result = summarize(done)
    result["metrics"] = {
        "wall_s": median(d.wall_s for d in done),
        "peak_rss_mb": runner.peak_rss_mb,
        "detector_hours_per_s":
            median(d.op.detector_hours / d.wall_s for d in done),
    }
    result["samples"] = len(done)
    result["wall_s_tail"] = wall_tail([d.wall_s for d in done])
    return result


def run_traced(runner: Runner, seconds: float, spans_path) -> dict:
    tracer = runner.tracer
    runner.warm()
    traced = runner.loop(seconds, traced=True)
    tracer.uninstall()
    # the same inputs again without wrappers: overhead is a paired difference
    untraced = [run_op(runner._plan(i)) for i in range(len(traced))]
    tracer.write(spans_path)
    setup = tracer.spans[:runner.setup_spans]
    metrics = {
        "presets.calibrate_s": sum(s.duration for s in setup
                                   if s.name == "presets.calibrate"),
        **tracing.layer_metrics(tracer.spans, [d.span for d in traced]),
        "trace.wall_s": median(d.wall_s for d in traced),
        "trace.overhead_s": median(t.wall_s - u.wall_s
                                   for t, u in zip(traced, untraced)),
    }
    result = summarize(traced + untraced)
    result["metrics"] = metrics
    result["samples"] = len(traced)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if src not in Path(ionherald.__file__).resolve().parents:
        print(f"ionherald imported from {ionherald.__file__}, not {src}",
              file=sys.stderr)
        return 2
    out = Path(args.result).parent
    workdir = out / f"work-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        runner = Runner(args.workload, args.seed, workdir, tracer)
        if tracer:
            result = run_traced(runner, args.seconds, out /
                                f"spans-{args.workload}-{args.seed}.json")
        else:
            result = run_untraced(runner, args.seconds)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    result["context"] = dict(context(args.workload, args.seed),
                             calibration_s=runner.calibration_s)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
