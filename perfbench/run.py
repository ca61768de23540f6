"""clozedep benchmark: two closed-loop workloads timed end to end, plus a traced run.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One client runs one unit of work at a time and starts the next when it
ends (a closed loop). The package is a black box run from ``src/``:

* replications: the Monte-Carlo calibration loop. A unit is one
  replication in a worker process: simulate a 54 x 145 matrix (29 passages
  of 5; duplicate_blocks with eps 0.15 and logistic_latent with lambda 1.5
  alternate), analyze it with an exact sweep in both modes, build and render
  both reports. Partition clustering, the simulator and per-call fixed costs
  dominate here; distances and parsing barely matter.
* cohort_fixed: ``clozedep analyze FILE --a-crit 0.2 --format csv
  --dump-distances --plot svg`` on a tall 20000 x 40 CSV (8 passages of 5
  gaps). A unit is one CLI process, from spawn to exit. Distances, parsing
  and writing dominate; the sweep runs at one threshold only, so per-call
  set-up that a sweep optimisation adds shows here.

Cohort inputs come from numpy with planted passage latents (inputs.py),
three per run, each run at least twice. After the timed loop every output is
checked against an independent numpy recomputation (check.py) and against
the other outputs of the same input, byte for byte.

With --trace 0 the run measures for S seconds, cut into segments with
fresh imports of the package between them for setup_s. It prints setup_s,
the 10th percentile, median and (with ten units beyond it) 90th percentile
of the unit wall time, throughput, the working process's own peak RSS, and
the failed fraction with its counts. Its last stdout line is a JSON object with
the gated end-to-end metrics (END_TO_END). With --trace 1 a fixed round of
units runs untraced and traced in pairs, repeated whole for S seconds, then
once under tracemalloc. Its last line carries the per-layer metrics
(PER_LAYER) per unit, from spans around every public function of the
package (spans.py); whole rounds make the counts repeat exactly. Each run
also writes a record with the environment and the input digests, and the
spans of a traced run, to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

# The checker's BLAS in this process and every child's run with this many
# threads: one client doing one unit at a time, steady on a small shared host.
BLAS_THREADS = "1"
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
os.environ.update(dict.fromkeys(BLAS_VARS, BLAS_THREADS))  # before numpy loads BLAS

import numpy as np  # noqa: E402

import check  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
# The CLI as its console script runs it, plus a last stderr line with the
# process's own peak RSS (VmHWM). wait4's ru_maxrss cannot serve: a child
# inherits the peak RSS of the process that spawned it.
CLI = (
    "import atexit, sys\n"
    "atexit.register(lambda: sys.stderr.write("
    "next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))))\n"
    "from clozedep.cli import main\n"
    "sys.exit(main())\n"
)

# A timed run is cut into SEGMENTS equal parts. Before each part and after
# the last, SETUP_SPAWNS fresh imports sample setup_s, so that its median
# spans the run and not one moment of a host whose speed drifts.
SEGMENTS = 5
SETUP_SPAWNS = 2
COHORT_POOL = 3  # distinct inputs per cohort run, used in turn
REPLICATION_TRACE_PAIRS = 20
REPLICATION_MALLOC_UNITS = 4

# Gated end-to-end metrics. On a shared 2-vCPU host a unit's speed switches
# between a fast state and one about 1.8 times slower, over 5 to 30 s. A run's
# median and mean follow the share of slow time and spread too widely from run
# to run to gate on; the 10th percentile does not. They are printed ungated.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_p10_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("distance.distance_matrix.calls", "count"),
    ("distance.distance_matrix.self_s", "s"),
    ("distance.distance_matrix.peak_alloc_mb", "MB"),
    ("distance.cells_bytes", "bytes"),
    ("distance.distances_to_csv.self_s", "s"),
    ("weighting.partition_clusters.calls", "count"),
    ("weighting.partition_clusters.self_s", "s"),
    ("weighting.partition_weights.self_s", "s"),
    ("weighting.threshold_adjacency.self_s", "s"),
    ("weighting.admitted_pairs", "count"),
    ("weighting.neighborhood_weights.calls", "count"),
    ("weighting.neighborhood_weights.self_s", "s"),
    ("scoring.weighted_scores.calls", "count"),
    ("scoring.weighted_scores.self_s", "s"),
    ("scoring.score_stats.self_s", "s"),
    ("sweep.run_sweep.self_s", "s"),
    ("sweep.candidate_thresholds.self_s", "s"),
    ("sweep.candidates", "count"),
    ("sweep.weights_at.calls", "count"),
    ("simulate.simulate_matrix.calls", "count"),
    ("simulate.simulate_matrix.self_s", "s"),
    ("simulate.uniforms", "count"),
    ("response.parse_response_csv.calls", "count"),
    ("response.parse_response_csv.self_s", "s"),
    ("response.parse_response_csv.peak_alloc_mb", "MB"),
    ("response.cells", "count"),
    ("report.analyze.self_s", "s"),
    ("report.report_dict.self_s", "s"),
    ("report.render_json.self_s", "s"),
    ("report.csv_tables.self_s", "s"),
    ("report.output_bytes", "bytes"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass(frozen=True)
class Workload:
    """Shape of one workload; dependence applies to the CLI workload's inputs."""

    name: str
    m: int
    passages: int
    gaps: int
    cli: bool = True
    dependence: float = 0.0

    @property
    def n(self) -> int:
        return self.passages * self.gaps


A_CRIT = 0.2
CLI_FLAGS = (
    "--a-crit", repr(A_CRIT), "--format", "csv", "--dump-distances", "--plot", "svg"
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("replications", m=54, passages=29, gaps=5, cli=False),
        Workload("cohort_fixed", m=20000, passages=8, gaps=5, dependence=4.0),
    )
}


@dataclass
class Outcome:
    """What one run of one workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    ungated: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    inputs: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)


class Run(NamedTuple):
    """One CLI process of a cohort workload."""

    input: int
    code: int
    wall: float
    rss_mb: float | None  # timed runs only
    prefix: Path
    kind: str  # one of KINDS

    KINDS = ("timed", "traced", "malloc")

    def spans(self) -> dict:
        """The trace payload a traced or malloc run wrote."""
        return json.loads(Path(f"{self.prefix}.spans.json").read_text())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")  # the BLAS variables are already set
    return env


def spawn(argv: list[str], env: dict[str, str], err_path: Path) -> tuple[int, float]:
    """Run a child to exit; returns its exit code and wall seconds."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall


def peak_rss_mb(err_path: Path) -> float | None:
    """A child's own peak RSS, from the VmHWM line it wrote to stderr."""
    match = re.search(r"^VmHWM:\s*(\d+) kB$", err_path.read_text(), re.MULTILINE)
    return int(match.group(1)) / 1024 if match else None


def measure_setup(env: dict[str, str], work: Path, count: int) -> list[float]:
    """Wall times of fresh interpreters importing clozedep."""
    walls = []
    for _ in range(count):
        argv = [sys.executable, "-c", "import clozedep"]
        code, wall = spawn(argv, env, work / "setup.err")
        if code != 0:
            err = (work / "setup.err").read_text()
            raise RuntimeError(f"import clozedep failed: {err}")
        walls.append(wall)
    return walls


def _ids(prefix: str, count: int) -> list[str]:
    """The ids clozedep gives unlabelled rows and columns."""
    return [f"{prefix}{i + 1}" for i in range(count)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _loop_metrics(
    outcome: Outcome, walls: list[float], loop_wall: float, rss_mb: float
) -> None:
    deciles = statistics.quantiles(walls, n=10) if len(walls) > 1 else walls * 9
    outcome.metrics["wall_p10_s"] = deciles[0]
    outcome.metrics["peak_rss_mb"] = rss_mb
    outcome.ungated["wall_p50_s"] = (statistics.median(walls), "s")
    if len(walls) // 10 >= 10:
        outcome.ungated["wall_p90_s"] = (deciles[-1], "s")
    else:
        outcome.notes.append(
            f"wall_p90_s not reported: fewer than 10 of {len(walls)} units beyond it"
        )
    outcome.ungated["throughput_per_s"] = (len(walls) / loop_wall, "1/s")
    outcome.notes.append(f"timings over {len(walls)} units")


def _per_layer(
    outcome: Outcome, traces: list[dict], mallocs: list[dict], units: int, overhead: float
) -> None:
    outcome.traces = traces + mallocs
    totals = spans.layer_totals(traces)
    peaks = spans.layer_totals(mallocs)
    for name, _ in PER_LAYER:
        if name.endswith(".peak_alloc_mb"):
            outcome.metrics[name] = peaks.get(name, 0.0)
        elif name == "trace.overhead_s":
            outcome.metrics[name] = overhead
        else:
            outcome.metrics[name] = totals.get(name, 0) / units
    outcome.notes.append(f"per-layer values are per unit, over {units} traced units")


# --- replications ------------------------------------------------------------


def run_replications(
    w: Workload, seed: int, seconds: float, trace: bool, work: Path, env: dict[str, str],
    probe: Callable[[], None],
) -> Outcome:
    outcome = Outcome()
    start = time.perf_counter()
    units: list[dict] = []
    blocks, rss_mb, loop_wall = [], [], 0.0
    segments = 1 if trace else SEGMENTS
    for segment in range(segments):
        probe()
        out = work / f"segment{segment}"
        out.mkdir()
        first_index = units[-1]["index"] + 1 if units else 0
        argv = [sys.executable, str(WORKER), "replications", "--seed", str(seed)]
        argv += ["--seconds", str(seconds / segments), "--out", str(out)]
        argv += ["--m", str(w.m), "--passages", str(w.passages), "--gaps", str(w.gaps)]
        argv += ["--first-index", str(first_index)]
        if trace:
            argv += ["--trace-pairs", str(REPLICATION_TRACE_PAIRS)]
            argv += ["--malloc-units", str(REPLICATION_MALLOC_UNITS)]
        code, _ = spawn(argv, env, out / "worker.err")
        if code != 0:
            err = (out / "worker.err").read_text()
            raise RuntimeError(f"replications worker exited {code}: {err}")
        lines = (out / "units.jsonl").read_text().splitlines()
        units += [json.loads(line) for line in lines]
        blocks.append(np.fromfile(out / "cells.bin", dtype=np.uint8))
        rss_mb.append(peak_rss_mb(out / "worker.err"))
        if not trace:
            loop_wall += json.loads((out / "loop.json").read_text())["loop_wall"]
    probe()
    cells = np.concatenate(blocks).reshape(len(units), w.m, w.n)

    examinees, items = _ids("e", w.m), _ids("i", w.n)
    first: dict[int, list[str]] = {}  # replication index -> its first reports
    verdict: dict[int, list[str]] = {}
    for unit, unit_cells in zip(units, cells):
        index = unit["index"]
        if index not in first:
            first[index] = unit["reports"]
            verdict[index] = [
                f"replication {index} {mode}: {problem}"
                for mode, text in zip(("neighborhood", "partition"), unit["reports"])
                for problem in check.check_report(
                    json.loads(text), unit_cells, examinees, items, mode=mode, a_crit=None
                )
            ]
            outcome.problems += verdict[index]
        if unit.get("warmup"):
            continue
        outcome.attempted += 1
        same = unit["reports"] == first[index]
        if not same:
            outcome.problems.append(f"replication {index}: outputs of one input differ")
        if verdict[index] or not same:
            outcome.failed += 1
    outcome.inputs = [_sha256(cells.tobytes())]

    untraced = [u["wall"] for u in units if not {"warmup", "traced", "malloc"} & u.keys()]
    if trace:
        traced = [u["wall"] for u in units if u.get("traced")]
        overhead = statistics.median(t - u for t, u in zip(traced, untraced))
        traces = [json.loads((work / "segment0" / "spans.json").read_text())]
        mallocs = [json.loads((work / "segment0" / "malloc.json").read_text())]
        _per_layer(outcome, traces, mallocs, len(traced), overhead)
    else:
        _loop_metrics(outcome, untraced, loop_wall, statistics.median(rss_mb))
    outcome.notes.append(
        f"worker wall {time.perf_counter() - start:.1f} s; a unit holds 2 analyses"
    )
    return outcome


# --- cohort workloads through the CLI ----------------------------------------


def _outputs(prefix: Path) -> dict[str, bytes]:
    """Files written under an --out prefix, by suffix."""
    files = sorted(prefix.parent.glob(prefix.name + ".*"))
    return {p.name[len(prefix.name) :]: p.read_bytes() for p in files}


def check_cli_outputs(
    w: Workload, outputs: dict[str, bytes], cells: np.ndarray
) -> list[str]:
    """Problems in one CLI unit's output files, recomputed independently."""
    expected = [".distances.csv", ".examinees.csv", ".items.csv", ".plot.svg"]
    expected += [".summary.csv", ".sweep.csv"]
    if sorted(outputs) != expected:
        return [f"outputs {sorted(outputs)}, want {expected}"]
    examinees, items = _ids("e", w.m), _ids("i", w.n)
    names = ("items", "examinees", "sweep", "summary")
    report = check.report_from_csv_tables({n: outputs[f".{n}.csv"].decode() for n in names})
    problems = check.check_report(
        report, cells, examinees, items, mode="neighborhood", a_crit=A_CRIT
    )
    problems += check.check_distances(outputs[".distances.csv"].decode(), cells, items)
    if not outputs[".plot.svg"].startswith(b"<svg"):
        problems.append("plot is not an SVG document")
    return problems


def run_cli(
    w: Workload, seed: int, seconds: float, trace: bool, work: Path, env: dict[str, str],
    probe: Callable[[], None],
) -> Outcome:
    outcome = Outcome()
    rng = np.random.default_rng(seed)
    pool = []
    for p in range(COHORT_POOL):
        cells = inputs.cohort_cells(rng, w.m, w.passages, w.gaps, w.dependence)
        data = inputs.cohort_csv(cells)
        path = work / f"input{p}.csv"
        path.write_bytes(data)
        pool.append((path, cells))
        outcome.inputs.append(_sha256(data))

    runs: list[Run] = []

    def unit(k: int, p: int, kind: str, *trace_flags: str) -> None:
        prefix = work / f"u{k}"
        argv = [sys.executable, "-c", CLI]
        if kind != "timed":
            argv = [sys.executable, str(WORKER), "cli", "--spans", f"{prefix}.spans.json"]
            argv += [*trace_flags, "--"]
        argv += ["analyze", str(pool[p][0]), *CLI_FLAGS, "--out", str(prefix)]
        code, wall = spawn(argv, env, work / f"u{k}.err")
        rss = peak_rss_mb(work / f"u{k}.err") if kind == "timed" else None
        runs.append(Run(p, code, wall, rss, prefix, kind))

    unit(0, 0, "timed")
    runs.pop()  # a warm-up, not counted
    start = time.perf_counter()
    k = 1
    if not trace:
        loop_wall = 0.0
        for segment in range(SEGMENTS):
            probe()
            start = time.perf_counter()
            last = segment == SEGMENTS - 1
            while time.perf_counter() - start < seconds / SEGMENTS or (
                last and k <= 2 * COHORT_POOL
            ):
                unit(k, (k - 1) % COHORT_POOL, "timed")
                k += 1
            loop_wall += time.perf_counter() - start
        probe()
    else:
        while k == 1 or time.perf_counter() - start < seconds:  # whole rounds over the pool
            for p in range(COHORT_POOL):
                unit(k, p, "timed")
                unit(k + 1, p, "traced")
                k += 2
        for p in range(COHORT_POOL):
            unit(k, p, "malloc", "--malloc")
            k += 1

    digests: dict[int, str] = {}
    verdict: dict[int, list[str]] = {}
    for run in runs:
        outcome.attempted += 1
        if run.code != 0:
            outcome.failed += 1
            lines = Path(f"{run.prefix}.err").read_text().splitlines()
            err = [line for line in lines if not line.startswith("VmHWM:")] or [""]
            outcome.problems.append(f"{run.prefix.name} exited {run.code}: {err[-1]}")
            continue
        outputs = _outputs(run.prefix)
        del outputs[".err"]
        outputs.pop(".spans.json", None)
        digest = _sha256(json.dumps({s: _sha256(b) for s, b in outputs.items()}).encode())
        p = run.input
        if p not in digests:
            digests[p] = digest
            problems = check_cli_outputs(w, outputs, pool[p][1])
            verdict[p] = [f"input {p}: {problem}" for problem in problems]
            outcome.problems += verdict[p]
        same = digest == digests[p]
        if not same:
            name = f"{run.prefix.name} ({run.kind})"
            outcome.problems.append(f"{name}: outputs of input {p} differ from its first")
        if verdict[p] or not same:
            outcome.failed += 1
        for path in work.glob(run.prefix.name + ".*"):
            if not path.name.endswith(".spans.json"):
                path.unlink()

    if trace:
        kinds = {kind: [run for run in runs if run.kind == kind] for kind in Run.KINDS}
        pairs = zip(kinds["traced"], kinds["timed"])
        overhead = statistics.median(t.wall - u.wall for t, u in pairs)
        traces = [run.spans() for run in kinds["traced"]]
        mallocs = [run.spans() for run in kinds["malloc"]]
        _per_layer(outcome, traces, mallocs, len(traces), overhead)
    else:
        rss_mb = statistics.median(run.rss_mb or 0.0 for run in runs)
        _loop_metrics(outcome, [run.wall for run in runs], loop_wall, rss_mb)
    return outcome


# --- driver --------------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            models = [line.split(":", 1)[1] for line in f if line.startswith("model name")]
        cpu = models[0].strip() if models else cpu
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, env: dict) -> Outcome:
    """Run one workload and write its record next to its (removed) work directory."""
    work = OUT / f"{w.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    children = child_env()
    runner = run_cli if w.cli else run_replications
    setup: list[float] = []

    def probe() -> None:
        if not trace:
            setup.extend(measure_setup(children, work, SETUP_SPAWNS))

    try:
        probe()
        setup.clear()  # the first imports only warm the caches
        outcome = runner(w, seed, seconds, trace, work, children, probe)
        if not trace:
            outcome.metrics["setup_s"] = statistics.median(setup)
            outcome.notes.append(f"setup_s is the median of {len(setup)} fresh imports")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = PER_LAYER if trace else END_TO_END
    outcome.metrics = {name: outcome.metrics[name] for name, _ in names}
    record = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "input_sha256": outcome.inputs,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:100],
        "metrics": outcome.metrics,
        "ungated": outcome.ungated,
        "notes": outcome.notes,
    }
    work.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if outcome.traces:
        work.with_suffix(".spans.json").write_text(json.dumps(outcome.traces))
    return outcome


def print_outcome(name: str, outcome: Outcome, units: dict[str, str]) -> None:
    print(f"workload {name}")
    for metric, value in outcome.metrics.items():
        print(f"  {metric:<44} {value:>14.6f} {units[metric]}")
    for metric, (value, unit) in outcome.ungated.items():
        print(f"  {metric:<44} {value:>14.6f} {unit} (ungated)")
    fraction = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    counts = f"({outcome.failed} failed of {outcome.attempted} attempted)"
    print(f"  {'failed_fraction':<44} {fraction:>14.6f} {counts}")
    for note in outcome.notes:
        print(f"  note: {note}")
    print(f"  inputs: sha256 {', '.join(digest[:16] for digest in outcome.inputs)}")
    for problem in outcome.problems[:10]:
        print(f"  problem: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "clozedep" / "__init__.py").is_file():
        print(
            f"error: no clozedep sources under {ROOT / 'src'}; "
            "run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = dict(PER_LAYER if args.trace else END_TO_END)
    env = environment()
    print(
        f"environment: python {env['python']}, numpy {env['numpy']}, "
        f"nproc {env['nproc']}, cpu {env['cpu']!r}, BLAS threads {BLAS_THREADS}"
    )
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        trace = bool(args.trace)
        outcome = run_workload(WORKLOADS[name], args.seed, args.seconds, trace, env)
        print_outcome(name, outcome, units)
        result["correct"] = result["correct"] and not outcome.problems
        result["attempted"] += outcome.attempted
        result["failed"] += outcome.failed
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in outcome.metrics.items():
            result["metrics"][prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
