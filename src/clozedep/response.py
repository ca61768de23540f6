"""Binary response matrix: ingestion from delimited text, validation, serialization.

The universal input is an examinee-by-row, item-by-column grid of 0/1
outcomes (1 = gap restored correctly). Files may optionally carry a header
row of item ids and/or a leading examinee-id column; when absent, labels
are generated ("e1", ..., "i1", ...). Empty or "NA" cells are rejected by
default and can be scored as incorrect via ``missing_policy="as_incorrect"``.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

_MISSING_TOKENS = {"", "na"}


class ResponseDataError(ValueError):
    """Delimited input or matrix contents violate the response-data contract."""


@dataclass(frozen=True, eq=False)
class ResponseMatrix:
    """Validated examinee x item grid of 0/1 outcomes.

    ``cells`` is an (m, n) read-only uint8 array. A grid passed in is
    copied, so a caller's writeable array is neither frozen nor shared;
    only a grid that is already read-only uint8 is kept as it is (the
    parser hands its own grid over that way). ``missing_filled`` counts
    cells that were empty/NA in the source and scored 0 (metadata only, not
    part of equality). Values are checked to be exactly 0 or 1 as given,
    before the cast, so 0.5 or 256 is rejected rather than truncated or
    wrapped. uint8 arithmetic wraps too (``cells.T @ cells`` overflows at
    256): cast to a wider type before multiplying or subtracting.
    """

    examinee_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    cells: np.ndarray
    missing_filled: int = 0

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells)
        if cells.ndim != 2:
            raise ResponseDataError("cells must be a 2-D grid")
        m, n = cells.shape
        if m < 2:
            raise ResponseDataError(f"need at least 2 examinees, got {m}")
        if n < 2:
            raise ResponseDataError(f"need at least 2 items, got {n}")
        bad = (cells != 0) & (cells != 1)
        if bad.any():
            e, i = np.argwhere(bad)[0]
            raise ResponseDataError(
                f"non-binary cell at row {e + 1}, col {i + 1}: {cells[e, i]}"
            )
        examinee_ids = tuple(str(x) for x in self.examinee_ids)
        item_ids = tuple(str(x) for x in self.item_ids)
        if len(examinee_ids) != m:
            raise ResponseDataError(
                f"{len(examinee_ids)} examinee ids for {m} rows"
            )
        if len(item_ids) != n:
            raise ResponseDataError(f"{len(item_ids)} item ids for {n} columns")
        if len(set(examinee_ids)) != m:
            raise ResponseDataError("duplicate examinee ids")
        if len(set(item_ids)) != n:
            raise ResponseDataError("duplicate item ids")
        if cells.flags.writeable or cells.dtype != np.uint8:
            cells = cells.astype(np.uint8)  # a copy: the caller's array stays theirs
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "examinee_ids", examinee_ids)
        object.__setattr__(self, "item_ids", item_ids)

    @property
    def m(self) -> int:
        return self.cells.shape[0]

    @property
    def n(self) -> int:
        return self.cells.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResponseMatrix):
            return NotImplemented
        return (
            self.examinee_ids == other.examinee_ids
            and self.item_ids == other.item_ids
            and np.array_equal(self.cells, other.cells)
        )

    __hash__ = None  # type: ignore[assignment]


def _generated_ids(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def _binary_grid(rows: list[list[str]]) -> np.ndarray | None:
    """The grid in one numpy pass when every field is a lone "0" or "1".

    The N fields are joined with "," and read as bytes; any other grid
    returns None (a lone surrogate, as stdin can carry, encodes as "?"). If
    the join has 2N - 1 bytes and a 0/1 digit at each of its N even
    offsets, its N - 1 joining commas fill the odd offsets, so no field is
    empty, holds a comma or has two characters (as "11," would).
    """
    data = np.frombuffer(
        ",".join(itertools.chain.from_iterable(rows)).encode(errors="replace"),
        dtype=np.uint8,
    )
    if data.size != 2 * len(rows) * len(rows[0]) - 1:
        return None
    digits = data[0::2] - ord("0")  # bytes below "0" wrap above 1
    if (digits > 1).any():
        return None
    return digits.reshape(len(rows), len(rows[0]))


def _cell_grid(rows: list[list[str]], missing_policy: str) -> tuple[np.ndarray, int]:
    """The grid cell by cell, naming the first bad cell; also counts fills."""
    missing_filled = 0
    grid = np.zeros((len(rows), len(rows[0])), dtype=np.uint8)
    for r, row in enumerate(rows):
        for c, raw in enumerate(row):
            cell = raw.strip()
            if cell == "0":
                continue
            if cell == "1":
                grid[r, c] = 1
            elif cell.lower() in _MISSING_TOKENS:
                if missing_policy == "error":
                    raise ResponseDataError(
                        f"missing cell at row {r + 1}, col {c + 1} "
                        "(missing_policy=error)"
                    )
                missing_filled += 1  # scored as incorrect, already 0
            else:
                raise ResponseDataError(
                    f"non-binary cell at row {r + 1}, col {c + 1}: {cell!r}"
                )
    return grid, missing_filled


def parse_response_csv(
    text: str,
    *,
    delimiter: str = ",",
    header_row: bool = False,
    id_column: bool = False,
    missing_policy: str = "error",
    transpose: bool = False,
) -> ResponseMatrix:
    """Parse delimited 0/1 response data into a validated ResponseMatrix.

    Rows are examinees and columns are items unless ``transpose`` is set, in
    which case the grid (and its labels) are flipped after reading. With
    ``missing_policy="as_incorrect"`` empty/NA cells become 0 and their count
    is recorded on the returned matrix as ``missing_filled``. One leading
    UTF-8 byte order mark (U+FEFF) is dropped. A grid of lone 0/1 fields is
    read in one vectorised pass; any other grid is read cell by cell, which
    names the first missing or non-binary cell.
    """
    if missing_policy not in ("error", "as_incorrect"):
        raise ValueError(f"unknown missing_policy: {missing_policy!r}")
    if len(delimiter) != 1:
        raise ResponseDataError(
            f"delimiter must be a single character, got {delimiter!r}"
        )
    lines = text.removeprefix("\ufeff").splitlines()
    try:
        rows = [row for row in csv.reader(lines, delimiter=delimiter) if row]
    except csv.Error as exc:  # e.g. a field past csv's size limit
        raise ResponseDataError(f"unreadable CSV: {exc}") from None
    if not rows:
        raise ResponseDataError("empty input")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ResponseDataError(
            f"ragged rows: field counts {sorted(widths)} differ across lines"
        )

    col_labels: tuple[str, ...] | None = None
    row_labels: tuple[str, ...] | None = None
    if header_row:
        header = rows[0]
        rows = rows[1:]
        if id_column:
            header = header[1:]  # drop the corner label over the id column
        col_labels = tuple(s.strip() for s in header)
    if id_column:
        row_labels = tuple(row[0].strip() for row in rows)
        rows = [row[1:] for row in rows]
    if not rows or not rows[0]:
        raise ResponseDataError("no data cells after header/id handling")

    grid = _binary_grid(rows)
    missing_filled = 0
    if grid is None:
        grid, missing_filled = _cell_grid(rows, missing_policy)

    if transpose:
        grid = grid.T.copy()
        row_labels, col_labels = col_labels, row_labels

    grid.setflags(write=False)  # handed over, not copied
    examinee_ids = row_labels or _generated_ids("e", grid.shape[0])
    item_ids = col_labels or _generated_ids("i", grid.shape[1])
    return ResponseMatrix(
        examinee_ids=examinee_ids,
        item_ids=item_ids,
        cells=grid,
        missing_filled=missing_filled,
    )


def to_csv(
    matrix: ResponseMatrix,
    *,
    header_row: bool = True,
    id_column: bool = True,
) -> str:
    """Serialize a matrix back to CSV (inverse of parse_response_csv)."""
    lines = []
    if header_row:
        head = list(matrix.item_ids)
        if id_column:
            head = ["id"] + head
        lines.append(",".join(head))
    for e in range(matrix.m):
        row = [str(int(v)) for v in matrix.cells[e]]
        if id_column:
            row = [matrix.examinee_ids[e]] + row
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
