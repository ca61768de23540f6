"""Spans around clozedep's public functions, for the benchmark's traced run.

``install`` wraps every public function of the pipeline modules and patches
the wrapper in under every module attribute that binds the function, since
``from .x import y`` copies the name into the importing module. Each call
records a span (name, start, end, parent) in memory; ``Recorder.dump``
writes them out once the run is over. Work counts are derived from the
arguments and results kept for the purpose, after the run, so that deriving
them adds nothing to any span.

In a tracemalloc pass (``Recorder(malloc=True)``) the spans are not timed;
each call that has no child span records its peak traced allocation above
the level at its entry. Peaks of calls with children are not recorded,
because each child resets the peak.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MODULES = (
    "cli", "response", "distance", "sweep", "weighting", "scoring", "report", "simulate"
)


def _admitted_pairs(args: dict, result: object) -> int:
    """Upper-triangle item pairs strictly closer than a_crit."""
    dm = args["dm"]
    return int(np.count_nonzero(np.triu(dm.counts / dm.m < args["a_crit"], k=1)))


def _uniform_draws(args: dict, result: object) -> int:
    """Uniforms the simulator's documented stream layout draws for a config."""
    config = args["config"]
    m, n, blocks = config.m, config.n, len(config.block_sizes)
    if config.model == "duplicate_blocks":
        return m * (blocks + n)
    return 12 * m * (1 + blocks) + m * n


# Span name -> (counter name, count from the call's bound arguments and result).
COUNTERS = {
    "distance.distance_matrix": (
        "distance.cells_bytes", lambda a, r: a["matrix"].cells.nbytes
    ),
    "weighting.partition_clusters": ("weighting.admitted_pairs", _admitted_pairs),
    "sweep.candidate_thresholds": ("sweep.candidates", lambda a, r: len(r)),
    "simulate.simulate_matrix": ("simulate.uniforms", _uniform_draws),
    "response.parse_response_csv": ("response.cells", lambda a, r: r.cells.size),
    "report.render_json": ("report.output_bytes", lambda a, r: len(r)),
    "report.csv_tables": ("report.output_bytes", lambda a, r: sum(map(len, r.values()))),
    "distance.distances_to_csv": ("report.output_bytes", lambda a, r: len(r)),
    "report.emit_plot": ("report.output_bytes", lambda a, r: len(r)),
}


class Recorder:
    """In-memory span store for one process."""

    def __init__(self, malloc: bool = False) -> None:
        self.malloc = malloc
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._has_child: list[bool] = []
        self._entry_bytes: list[int] = []
        self._kept: list[tuple] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if self.malloc:
            if parent is not None:
                self._has_child[parent] = True
            self._has_child.append(False)
            tracemalloc.reset_peak()
            self._entry_bytes.append(tracemalloc.get_traced_memory()[0])
        self._stack.append(index)
        self.spans.append([name, time.perf_counter(), None, parent])
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        self.spans[index][2] = end
        self._stack.pop()
        if self.malloc and not self._has_child[index]:
            peak = tracemalloc.get_traced_memory()[1] - self._entry_bytes[index]
            name = self.spans[index][0]
            self.peaks[name] = max(self.peaks.get(name, 0.0), peak / 2**20)

    def keep(self, name: str, fn, args: tuple, kwargs: dict, result: object) -> None:
        if not self.malloc and name in COUNTERS:
            self._kept.append((name, fn, args, kwargs, result))

    def counters(self) -> dict[str, int]:
        """Work counts over every kept call."""
        totals: dict[str, int] = defaultdict(int)
        for name, fn, args, kwargs, result in self._kept:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            counter, count = COUNTERS[name]
            totals[counter] += count(bound.arguments, result)
        return dict(totals)

    def dump(self, path: str) -> None:
        payload = {
            "spans": [] if self.malloc else self.spans,
            "counters": {} if self.malloc else self.counters(),
            "peaks": self.peaks,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)


def _wrap(name: str, fn, recorder: Recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        recorder.keep(name, fn, args, kwargs, result)
        return result

    return traced


def install(recorder: Recorder) -> list[tuple]:
    """Wrap the public functions of MODULES; returns what uninstall restores."""
    modules = {short: importlib.import_module(f"clozedep.{short}") for short in MODULES}
    holders = [sys.modules["clozedep"], *modules.values()]
    patched = []
    for short, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            traced = _wrap(f"{short}.{attr}", fn, recorder)
            for holder in holders:
                for bound_name, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, bound_name, traced)
                        patched.append((holder, bound_name, fn))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for holder, name, fn in reversed(patched):
        setattr(holder, name, fn)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        intervals = sorted((spans[c][1], spans[c][2]) for c in children[index])
        for child_start, child_end in intervals:
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_totals(traces: list[dict]) -> dict[str, float]:
    """Summed calls, self time, counters and maximal peaks over trace payloads.

    Keys are ``<span>.calls``, ``<span>.self_s``, ``<counter>`` and
    ``<span>.peak_alloc_mb``.
    """
    totals: dict[str, float] = defaultdict(float)
    for trace in traces:
        spans = trace["spans"]
        for span, own in zip(spans, self_times(spans)):
            totals[f"{span[0]}.calls"] += 1
            totals[f"{span[0]}.self_s"] += own
        for counter, count in trace["counters"].items():
            totals[counter] += count
        for name, peak in trace["peaks"].items():
            key = f"{name}.peak_alloc_mb"
            totals[key] = max(totals[key], peak)
    return dict(totals)
