"""Tests of the benchmark itself: python3 -m pytest perfbench/selftest.py

A tiny-shape run of every workload path, the checker's sensitivity to one
corrupted weight, the self-time arithmetic on synthetic spans, and the
metric lists against BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))

import clozedep  # noqa: E402

TINY = {
    "replications": replace(run.WORKLOADS["replications"], m=12, passages=4, gaps=3),
    "cohort_fixed": replace(run.WORKLOADS["cohort_fixed"], m=60, passages=3, gaps=3),
}


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_clean(name, trace, tmp_path):
    w = TINY[name]
    runner = run.run_cli if w.cli else run.run_replications
    outcome = runner(w, 7, 0.2, trace, tmp_path, run.child_env(), lambda: None)
    assert outcome.problems == []
    assert outcome.attempted >= 1 and outcome.failed == 0
    # run_workload adds setup_s.
    names = run.PER_LAYER if trace else run.END_TO_END[1:]
    assert {n for n, _ in names} <= set(outcome.metrics)
    if trace:
        assert outcome.metrics["distance.distance_matrix.calls"] == 2 * (1 if w.cli else 2)


def _report(cells, mode):
    matrix = clozedep.ResponseMatrix(
        examinee_ids=[f"e{e + 1}" for e in range(cells.shape[0])],
        item_ids=[f"i{i + 1}" for i in range(cells.shape[1])],
        cells=cells,
    )
    report = clozedep.report_dict(clozedep.analyze(matrix, mode=mode))
    return json.loads(clozedep.render_json(report))


@pytest.mark.parametrize("mode", ["neighborhood", "partition"])
def test_checker_flags_one_corrupted_weight(mode):
    rng = np.random.default_rng(3)
    cells = run.inputs.cohort_cells(rng, 30, 3, 4, 2.0)
    examinees = [f"e{e + 1}" for e in range(30)]
    items = [f"i{i + 1}" for i in range(12)]
    report = _report(cells, mode)
    assert check.check_report(report, cells, examinees, items, mode=mode, a_crit=None) == []
    report["items"][5]["w"] *= 1 + 1e-6
    problems = check.check_report(report, cells, examinees, items, mode=mode, a_crit=None)
    assert len(problems) == 1 and problems[0].startswith("items[5].w: ")


def test_self_time_subtracts_covered_child_intervals():
    synthetic = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["overlap", 20.0, 30.0, None],
        ["x", 21.0, 25.0, 4],
        ["x", 23.0, 27.0, 4],
        ["x", 29.0, 35.0, 4],  # runs past its parent's end
    ]
    assert spans.self_times(synthetic) == [3.0, 2.0, 1.0, 4.0, 3.0, 4.0, 4.0, 6.0]
    trace = {"spans": synthetic, "counters": {"n": 2}, "peaks": {"a": 1.5}}
    totals = spans.layer_totals([trace])
    assert totals["x.calls"] == 3 and totals["x.self_s"] == 14.0
    assert totals["root.self_s"] == 3.0 and totals["n"] == 2
    assert totals["a.peak_alloc_mb"] == 1.5


def test_install_patches_every_binding_and_uninstall_restores():
    original = clozedep.distance.distance_matrix
    patched = spans.install(spans.Recorder())
    try:
        assert clozedep.sweep.distance_matrix is clozedep.distance.distance_matrix
        assert clozedep.report.distance_matrix is clozedep.distance_matrix is not original
    finally:
        spans.uninstall(patched)
    assert clozedep.sweep.distance_matrix is original
    assert clozedep.distance_matrix is original


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench", ignore=ignore)
    argv = [sys.executable, "perfbench/run.py", "--workload", "replications"]
    argv += ["--seed", "1", "--seconds", "1"]
    result = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode != 0 and result.stdout == ""
