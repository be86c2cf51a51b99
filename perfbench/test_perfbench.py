"""Self-tests of the benchmark: its checks catch bad outputs, its spans nest
inside the workload span, and its names match BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from ionherald import cli, sim, tomography as tom  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_runner(name, tmp_path, tracer=None, seed=3):
    runner = wl.Runner(name, seed, tmp_path / "work", tracer)
    w = runner.workload
    if name == "reproduce":
        w.scale = 0.1
    else:
        w.minutes = 3.0
    return runner


def test_wall_tail_keeps_ten_samples_above_it():
    assert wl.wall_tail([1.0] * 19) is None
    tail = wl.wall_tail([float(i) for i in range(100)])
    assert tail["percentile"] == 90 and 89.0 <= tail["wall_s"] <= 90.0


def test_iteration_seeds_and_inputs_come_from_the_seed(tmp_path):
    assert wl.iteration_seed(7, 0) == 7
    assert wl.iteration_seed(7, 1) == wl.iteration_seed(7, 1) != 7
    a = small_runner("eventfile", tmp_path / "a", seed=7)._plan(1)
    b = small_runner("eventfile", tmp_path / "b", seed=7)._plan(1)
    assert a.record["run_seed"] == b.record["run_seed"] \
        == wl.iteration_seed(7, 1)


@pytest.mark.parametrize("cut", ["mid_line", "line_boundary"])
def test_truncated_event_file_is_a_failed_op(tmp_path, cut):
    runner = small_runner("eventfile", tmp_path)
    op = runner._plan(0)
    done = wl.run_op(op)
    assert done.error is None and done.output == (0, 0)
    events = next((tmp_path / "work").glob("*.events"))
    data = events.read_bytes()
    keep = len(data) // 2
    if cut == "line_boundary":
        keep = data.rindex(b"\n", 0, keep) + 1
    events.write_bytes(data[:keep])

    # the file no longer holds the simulated stream: the simulate op fails
    assert wl.check_op(done) == 1
    # g2 on a file cut inside a record fails as well
    if cut == "mid_line":
        events.write_bytes(data[:keep])
        prefix = tmp_path / "cut"
        code = cli.main(["g2", "--events", str(events), "--out-prefix",
                         str(prefix)])
        assert code == cli.EXIT_DATA and wl.check_g2(code, prefix, None)


def test_clean_iterations_pass_their_checks(tmp_path):
    for name in wl.WORKLOADS:
        result = wl.run_untraced(small_runner(name, tmp_path / name), 0.0)
        assert result["failed"] == 0, result["iterations"]
        assert result["attempted"] >= 1


def test_layer_spans_fit_inside_the_workload_span(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner = small_runner("reproduce", tmp_path, tracer)
        done = runner.loop(0.0, traced=True)
    finally:
        tracer.uninstall()
    assert cli.simulate_run is sim.simulate_run
    assert tom.mle_reconstruct.__module__ == "ionherald.tomography"

    root = done[0].span
    layers = tracing.iteration_layers(tracer.spans, root)
    children = [s for s in tracer.spans if s.parent == root.id]
    assert children and sum(s.duration for s in children) <= root.duration
    assert 0.0 < layers["trace.layer_share"] <= 1.0
    assert layers["cli.self_s"] >= 0.0
    times = {k: layers[k] for k in tracing.LAYER_TIMES}
    assert max(times, key=times.get) == "sim.simulate_run_s"
    assert layers["fringes.fits"] == 3
    assert layers["tomography.mle_calls"] == 1
    assert 0.0 < layers["sim.useful_event_ratio"] < 1.0


def test_metric_names_match_benchmark_json(tmp_path):
    runner = small_runner("eventfile", tmp_path)
    untraced = wl.run_untraced(runner, 0.0)["metrics"]
    assert {m["name"] for m in SPEC["end_to_end"]} == {"setup_s", *untraced}
    runner = small_runner("eventfile", tmp_path / "t", tracing.Tracer())
    runner.tracer.install()
    traced = wl.run_traced(runner, 0.0, tmp_path / "spans.json")["metrics"]
    assert {m["name"] for m in SPEC["per_layer"]} == set(traced)
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eventfile",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
