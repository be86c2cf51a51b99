"""Spans for the traced benchmark run, recorded from outside the program.

A span wrapper replaces a public function at the module attribute its
caller resolves (``ionherald.cli.simulate_run``, not ``ionherald.sim``), so
``cli.reproduce_paper`` and ``cli.main`` run unchanged and the benchmark's
own output checks, which call ``ionherald.sim`` directly, are never traced.
Wrappers exist only between ``Tracer.install`` and ``Tracer.uninstall``; the
untraced run never sees them.

The process is single-threaded, so the open spans form a stack and the top
of the stack is the parent of the next span. Spans stay in memory and are
written once, at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from statistics import median

import numpy as np

from ionherald.correlate import DEFAULT_BIN_US, DEFAULT_WINDOW_BINS
from ionherald.errors import ConvergenceError, DataError

# An APD click further than this from every onset can never enter a
# histogram bin of the default window.
_BIN_NS = int(round(DEFAULT_BIN_US * 1000.0))
REACH_NS = DEFAULT_WINDOW_BINS * _BIN_NS + _BIN_NS // 2


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    # Time the tracer spent after the span closed (counting its outputs);
    # it lies inside the parent's interval and is excluded from self time.
    post_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def useful_events(apd: np.ndarray, onsets: np.ndarray) -> int:
    """Onsets plus the APD clicks within REACH_NS of at least one onset."""
    lo = np.searchsorted(apd, onsets - REACH_NS, side="right")
    hi = np.searchsorted(apd, onsets + REACH_NS, side="right")
    # onsets are sorted, so both ends only move forward; count each APD
    # index once where neighbouring windows overlap
    prev_hi = np.concatenate(([0], hi[:-1]))
    covered = np.maximum(hi - np.maximum(lo, prev_hi), 0)
    return len(onsets) + int(covered.sum())


def _stream_counts(args, kwargs, stream) -> dict:
    onsets = stream.onset_times()
    return {"events": len(stream), "onsets": len(onsets),
            "useful_events": useful_events(stream.apd_times(), onsets)}


def _histogram_counts(args, kwargs, hist) -> dict:
    return {"pairs_binned": int(hist.counts.sum())}


def _written_bytes(args, kwargs, _result) -> dict:
    return {"bytes": os.path.getsize(args[1] if len(args) > 1
                                     else kwargs["path"])}


def _read_bytes(args, kwargs, _result) -> dict:
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# (module, attribute, span name, counter run after the span closes)
WRAPPED = (
    ("ionherald.presets", "calibrate_fringe_preset", "presets.calibrate",
     None),
    ("ionherald.cli", "simulate_run", "sim.simulate_run", _stream_counts),
    ("ionherald.cli", "write_events", "sim.write_events", _written_bytes),
    ("ionherald.cli", "read_events", "sim.read_events", _read_bytes),
    ("ionherald.cli", "histogram_from_stream", "correlate.histogram",
     _histogram_counts),
    ("ionherald.cli", "extract", "correlate.extract", None),
    ("ionherald.cli", "write_histogram", "correlate.write_histogram", None),
    ("ionherald.cli", "fit_fringe", "fringes.fit", None),
    ("ionherald.cli", "write_scan", "fringes.write", None),
    ("ionherald.cli", "write_fit_record", "fringes.write", None),
    ("ionherald.cli", "write_plot_data", "fringes.write", None),
    ("ionherald.cli", "fringe_params", "biphoton.fringe_params", None),
    # the CLI calls it as tom.mle_reconstruct, so it is wrapped in
    # tomography's own namespace, which also catches fits made inside that
    # module (the bootstrap's refits)
    ("ionherald.tomography", "mle_reconstruct", "tomography.mle", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                t0 = time.perf_counter()
                span.counts.update(counter(args, kwargs, result))
                span.post_s = time.perf_counter() - t0
            return result
        return traced

    def _wrap_mle(self, fn, name):
        """Counts iterations from the solver info and failed fits; the
        caller still gets exactly what it asked for."""
        def traced(*args, return_info=False, **kwargs):
            span = self.open(name)
            try:
                rho, info = fn(*args, return_info=True, **kwargs)
            except (ConvergenceError, DataError):
                span.counts["failed"] = 1
                raise
            finally:
                self.close(span)
            span.counts["iterations"] = info["iterations"]
            return (rho, info) if return_info else rho
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            wrapped = self._wrap_mle(fn, name) if name == "tomography.mle" \
                else self._wrap(fn, name, counter)
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


# --- per-layer metrics -------------------------------------------------------

# per-layer metric -> span name whose summed duration it reports
LAYER_TIMES = {
    "sim.simulate_run_s": "sim.simulate_run",
    "sim.write_events_s": "sim.write_events",
    "sim.read_events_s": "sim.read_events",
    "correlate.histogram_s": "correlate.histogram",
    "correlate.extract_s": "correlate.extract",
    "correlate.write_histogram_s": "correlate.write_histogram",
    "fringes.fit_s": "fringes.fit",
    "fringes.write_s": "fringes.write",
    "biphoton.fringe_params_s": "biphoton.fringe_params",
    "tomography.mle_s": "tomography.mle",
}


def _descendants(spans: list[Span], root: Span) -> list[Span]:
    """Spans recorded inside ``root`` (ids are assigned in opening order)."""
    inside, out = {root.id}, []
    for s in spans[root.id + 1:]:
        if s.parent not in inside:
            break
        inside.add(s.id)
        out.append(s)
    return out


def iteration_layers(spans: list[Span], root: Span) -> dict:
    """Per-layer metrics of one workload iteration, given its span."""
    inner = _descendants(spans, root)
    children = [s for s in inner if s.parent == root.id]
    child_s = sum(s.duration for s in children)
    program_s = root.duration - sum(s.post_s for s in children)

    def total(name, key=None):
        return sum(s.duration if key is None else s.counts.get(key, 0)
                   for s in inner if s.name == name)

    def calls(name):
        return sum(1 for s in inner if s.name == name)

    out = {metric: total(name) for metric, name in LAYER_TIMES.items()}
    events = total("sim.simulate_run", "events")
    written_mb = total("sim.write_events", "bytes") / 1e6
    read_mb = total("sim.read_events", "bytes") / 1e6
    out.update({
        "sim.events": events,
        "sim.onsets": total("sim.simulate_run", "onsets"),
        "sim.useful_event_ratio":
            total("sim.simulate_run", "useful_events") / events
            if events else 0.0,
        "sim.event_file_mb": written_mb,
        "sim.write_mb_per_s": written_mb / out["sim.write_events_s"]
            if written_mb else 0.0,
        "sim.read_mb_per_s": read_mb / out["sim.read_events_s"]
            if read_mb else 0.0,
        "correlate.pairs_binned": total("correlate.histogram",
                                        "pairs_binned"),
        "fringes.fits": calls("fringes.fit"),
        "tomography.mle_calls": calls("tomography.mle"),
        "tomography.mle_iterations": total("tomography.mle", "iterations"),
        "tomography.mle_failed": total("tomography.mle", "failed"),
        "cli.self_s": program_s - child_s,
        "trace.layer_share": child_s / program_s,
    })
    return out


def layer_metrics(spans: list[Span], roots: list[Span]) -> dict:
    """Median over iterations of each per-layer metric."""
    per_iteration = [iteration_layers(spans, r) for r in roots]
    return {k: median(it[k] for it in per_iteration)
            for k in per_iteration[0]}
