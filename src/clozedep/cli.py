"""Command line front end.

Two subcommands: ``analyze`` scores a 0/1 response matrix from CSV,
``simulate`` writes a synthetic matrix with planted dependence blocks.
Exit codes: 0 success, 2 bad input, bad configuration or out of memory,
3 sweep selection undefined (no threshold produced a defined cv).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .distance import distances_to_csv
from .report import analyze, csv_tables, emit_plot, render_json, report_dict
from .response import ResponseDataError, parse_response_csv, to_csv
from .scoring import POPULATION, SD_MODES
from .simulate import DUPLICATE_BLOCKS, MODELS, SimConfig, simulate_matrix
from .sweep import EXACT, STRATEGIES, SelectionUndefinedError
from .weighting import MODES, NEIGHBORHOOD


def _parse_band(text: str) -> tuple[float, float]:
    low_text, sep, high_text = text.partition(":")
    try:
        if not sep:
            raise ValueError
        low, high = float(low_text), float(high_text)
    except ValueError:
        raise ValueError(f"band must look like LO:HI, got {text!r}") from None
    return low, high


def _parse_list(text: str, kind: type, expected: str) -> tuple:
    """Comma separated values of one type; ValueError names what was expected."""
    try:
        return tuple(kind(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{expected}, got {text!r}") from None


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clozedep",
        description="Dependence-aware scoring for binary response matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="score a response matrix from CSV")
    pa.add_argument("input", help="CSV of 0/1 responses (examinees x items), - for stdin")
    pick = pa.add_mutually_exclusive_group(required=True)
    pick.add_argument("--a-crit", type=float, dest="a_crit", metavar="X",
                      help="fixed clustering threshold")
    pick.add_argument("--sweep", action="store_true",
                      help="evaluate candidate thresholds and select by max cv")
    pa.add_argument("--mode", choices=MODES, default=NEIGHBORHOOD)
    pa.add_argument("--sd", choices=SD_MODES, default=POPULATION)
    pa.add_argument("--band", default="0.30:0.85", metavar="LO:HI",
                    help="acceptable item difficulty range")
    pa.add_argument("--format", choices=("json", "csv"), default="json")
    pa.add_argument("--plot", choices=("ascii", "svg", "none"), default="none")
    pa.add_argument("--transpose", action="store_true",
                    help="input rows are items rather than examinees")
    pa.add_argument("--delimiter", default=",")
    pa.add_argument("--missing", choices=("error", "zero"), default="error",
                    help="reject missing cells, or score them as incorrect")
    pa.add_argument("--dump-distances", action="store_true",
                    help="also emit the item distance matrix as CSV")
    pa.add_argument("--header", action="store_true",
                    help="first input row holds item labels")
    pa.add_argument("--id-column", action="store_true",
                    help="first input column holds examinee ids")
    pa.add_argument("--strategy", choices=STRATEGIES, default=EXACT,
                    help="sweep threshold enumeration")
    pa.add_argument("--grid-step", type=float, default=0.01)
    pa.add_argument("--out", metavar="BASE",
                    help="write outputs to BASE.<name>; stdout when omitted")
    pa.set_defaults(func=_cmd_analyze)

    ps = sub.add_parser("simulate", help="generate a matrix with planted blocks")
    ps.add_argument("--examinees", type=int, required=True)
    ps.add_argument("--blocks", required=True, metavar="N,N,...",
                    help="comma separated dependent block sizes")
    ps.add_argument("--model", choices=MODELS, default=DUPLICATE_BLOCKS)
    ps.add_argument("--eps", type=float, default=0.0,
                    help="per-cell flip noise for duplicate_blocks")
    ps.add_argument("--base-p", default="0.5",
                    help="success rate, scalar or one value per block")
    ps.add_argument("--lambda", dest="dependence", type=float, default=1.0,
                    help="latent loading for logistic_latent")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", help="matrix CSV path; stdout when omitted")
    ps.add_argument("--truth-out", help="planted block assignment JSON path")
    ps.set_defaults(func=_cmd_simulate)
    return parser


def _write_pieces(pieces: list[tuple[str, str]], out_prefix: str | None) -> None:
    if out_prefix:
        for suffix, content in pieces:
            path = Path(out_prefix + suffix)
            path.write_text(content, encoding="utf-8")
            print(f"wrote {path}", file=sys.stderr)
        return
    for suffix, content in pieces:
        if len(pieces) > 1:
            sys.stdout.write(f"# {suffix.lstrip('.')}\n")
        sys.stdout.write(content)


def _cmd_analyze(args: argparse.Namespace) -> int:
    band = _parse_band(args.band)
    matrix = parse_response_csv(
        _read_text(args.input),
        delimiter=args.delimiter,
        header_row=args.header,
        id_column=args.id_column,
        missing_policy="as_incorrect" if args.missing == "zero" else "error",
        transpose=args.transpose,
    )
    if matrix.missing_filled:
        print(
            f"note: {matrix.missing_filled} missing cells scored as incorrect",
            file=sys.stderr,
        )
    result = analyze(
        matrix,
        a_crit=None if args.sweep else args.a_crit,
        mode=args.mode,
        sd_mode=args.sd,
        band=band,
        strategy=args.strategy,
        grid_step=args.grid_step,
    )
    report = report_dict(result)

    pieces: list[tuple[str, str]] = []
    if args.format == "json":
        pieces.append((".json", render_json(report)))
    else:
        for name, content in csv_tables(report).items():
            pieces.append((f".{name}.csv", content))
    if args.dump_distances:
        pieces.append((".distances.csv", distances_to_csv(result.distances)))
    if args.plot != "none":
        suffix = ".plot.txt" if args.plot == "ascii" else ".plot.svg"
        pieces.append((suffix, emit_plot(result.table, args.plot)))
    _write_pieces(pieces, args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = SimConfig(
        m=args.examinees,
        block_sizes=_parse_list(
            args.blocks, int, "blocks must be comma separated integers"
        ),
        model=args.model,
        flip_noise=args.eps,
        base_p=_parse_list(
            args.base_p, float, "base-p must be a number or comma separated numbers"
        ),
        dependence=args.dependence,
        seed=args.seed,
    )
    matrix, truth = simulate_matrix(config)
    grid = to_csv(matrix, header_row=False, id_column=False)
    truth_text = (
        json.dumps(
            {
                "schema_version": 1,
                "block_sizes": list(config.block_sizes),
                "block_of": list(truth.block_of),
            },
            indent=2,
        )
        + "\n"
    )
    if args.out:
        Path(args.out).write_text(grid, encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(grid)
    truth_path = args.truth_out or (
        args.out and os.path.splitext(args.out)[0] + ".truth.json"
    )
    if truth_path:
        Path(truth_path).write_text(truth_text, encoding="utf-8")
        print(f"wrote {truth_path}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SelectionUndefinedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ResponseDataError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
