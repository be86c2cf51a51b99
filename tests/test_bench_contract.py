"""The traced benchmark (perfbench/tracing.py) wraps public functions at the
module attributes their callers resolve. A rename or a call moved to another
module would make its per-layer spans read zero without failing the bench,
so these tests fail instead."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves(tracing):
    for module_name, attr, _, _ in tracing.WRAPPED:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr} no longer exists"


def test_reproduce_records_every_layer_span(tracing, tmp_path):
    from ionherald.cli import reproduce_paper
    tracer = tracing.Tracer()
    tracer.install()
    try:
        reproduce_paper(5, tmp_path, scale=0.02, quiet=True)
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    # presets.calibrate is cached per process, so it may not run here
    expected = {name for _, _, name, _ in tracing.WRAPPED} - {
        "presets.calibrate", "sim.write_events", "sim.read_events",
        "correlate.write_histogram"}
    assert expected <= names, f"spans never recorded: {expected - names}"
