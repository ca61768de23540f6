"""Child processes of the benchmark; run.py starts them, with src/ on PYTHONPATH.

    worker.py replications --seed N --seconds S --out DIR --m M --passages P --gaps G
                           [--first-index I] [--trace-pairs K --malloc-units U]
    worker.py cli --spans FILE [--malloc] -- analyze INPUT ...

``replications`` runs the calibration loop in this process: simulate a
matrix, analyze it with an exact sweep in both modes, build and render each
report. Without --trace-pairs it repeats replications I, I+1, ... for S
seconds, after an untimed warm-up run of replication I; with
it, it runs rounds of replications 0..K-1, each twice, untraced then
traced, until S seconds have passed, and then U more under tracemalloc.
Every unit's cells go to DIR/cells.bin and its reports, wall time and flags
to one line of DIR/units.jsonl, the loop's wall time to DIR/loop.json,
its peak RSS to stderr; spans go to DIR/spans.json and DIR/malloc.json.

``cli`` runs ``clozedep.cli.main`` on the given arguments with spans
recorded, writes them to FILE and exits with main's code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

import clozedep
import clozedep.cli

import spans

SEED_STRIDE = 1_000_003


def replication(seed: int, index: int, m: int, passages: int, gaps: int):
    """One calibration replication; models alternate with the index."""
    if index % 2 == 0:
        config = clozedep.SimConfig(
            m=m,
            block_sizes=(gaps,) * passages,
            model=clozedep.DUPLICATE_BLOCKS,
            flip_noise=0.15,
            seed=seed * SEED_STRIDE + index,
        )
    else:
        config = clozedep.SimConfig(
            m=m,
            block_sizes=(gaps,) * passages,
            model=clozedep.LOGISTIC_LATENT,
            dependence=1.5,
            seed=seed * SEED_STRIDE + index,
        )
    matrix, _ = clozedep.simulate_matrix(config)
    reports = [
        clozedep.render_json(clozedep.report_dict(clozedep.analyze(matrix, mode=mode)))
        for mode in (clozedep.NEIGHBORHOOD, clozedep.PARTITION)
    ]
    return matrix.cells, reports


def print_peak_rss() -> None:
    """Write this process's own peak RSS, its VmHWM status line, to stderr."""
    with open("/proc/self/status", encoding="ascii") as f:
        sys.stderr.write(next(line for line in f if line.startswith("VmHWM:")))


def _replications(args: argparse.Namespace) -> int:
    out = Path(args.out)
    shape = (args.m, args.passages, args.gaps)
    with open(out / "cells.bin", "wb") as cells_file, open(
        out / "units.jsonl", "w", encoding="utf-8"
    ) as units_file:

        def unit(index: int, **flags: bool) -> None:
            start = time.perf_counter()
            cells, reports = replication(args.seed, index, *shape)
            wall = time.perf_counter() - start
            cells_file.write(cells.astype("uint8").tobytes())
            line = {"index": index, "wall": wall, "reports": reports, **flags}
            units_file.write(json.dumps(line) + "\n")

        unit(args.first_index, warmup=True)
        if not args.trace_pairs:
            start = time.perf_counter()
            index = args.first_index
            while time.perf_counter() - start < args.seconds:
                unit(index)
                index += 1
            loop_wall = time.perf_counter() - start
            (out / "loop.json").write_text(json.dumps({"loop_wall": loop_wall}))
            print_peak_rss()
            return 0

        timed = spans.Recorder()
        start = time.perf_counter()
        while True:
            for index in range(args.trace_pairs):
                unit(index)
                patched = spans.install(timed)
                try:
                    unit(index, traced=True)
                finally:
                    spans.uninstall(patched)
            if time.perf_counter() - start >= args.seconds:
                break
        timed.dump(str(out / "spans.json"))

        sized = spans.Recorder(malloc=True)
        tracemalloc.start()
        patched = spans.install(sized)
        try:
            for index in range(args.malloc_units):
                unit(index, malloc=True)
        finally:
            spans.uninstall(patched)
            tracemalloc.stop()
        sized.dump(str(out / "malloc.json"))
    return 0


def _cli(args: argparse.Namespace) -> int:
    recorder = spans.Recorder(malloc=args.malloc)
    if args.malloc:
        tracemalloc.start()
    patched = spans.install(recorder)
    try:
        code = clozedep.cli.main(args.argv)
    finally:
        spans.uninstall(patched)
    recorder.dump(args.spans)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("replications")
    rep.add_argument("--seed", type=int, required=True)
    rep.add_argument("--seconds", type=float, required=True)
    rep.add_argument("--out", required=True)
    rep.add_argument("--m", type=int, required=True)
    rep.add_argument("--passages", type=int, required=True)
    rep.add_argument("--gaps", type=int, required=True)
    rep.add_argument("--first-index", type=int, default=0)
    rep.add_argument("--trace-pairs", type=int, default=0)
    rep.add_argument("--malloc-units", type=int, default=0)
    rep.set_defaults(func=_replications)
    cli = sub.add_parser("cli")
    cli.add_argument("--spans", required=True)
    cli.add_argument("--malloc", action="store_true")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    cli.set_defaults(func=_cli)
    args = parser.parse_args()
    if args.command == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
