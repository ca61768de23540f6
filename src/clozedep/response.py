"""Binary response matrix: ingestion from delimited text, validation, serialization.

The universal input is an examinee-by-row, item-by-column grid of 0/1
outcomes (1 = gap restored correctly). Files may optionally carry a header
row of item ids and/or a leading examinee-id column; when absent, labels
are generated ("e1", ..., "i1", ...). Empty or "NA" cells are rejected by
default and can be scored as incorrect via ``missing_policy="as_incorrect"``.

A bare clean grid, equal-width lines of lone 0/1 digits and one delimiter
with one kind of line ending and no header or id column, is read straight
from its bytes by one numpy kernel, ``_binary_grid``. Any other text goes
through ``csv.reader``, and its fields, re-joined into lines, are fed to the
same kernel before the cell-by-cell loop that names the first bad cell.
Both reads give the same matrix, errors and fill counts.
"""

from __future__ import annotations

import csv
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


# Delimiters the byte read leaves to csv: a digit would be taken for a cell,
# a quote is also csv's quote character, a line boundary of str.splitlines
# would split a line, and csv on Python 3.10 refuses a NUL.
_NOT_RAW = frozenset('01"\0\n\r\v\f\x1c\x1d\x1e')


def _binary_grid(data: bytes, delimiter: str) -> np.ndarray | None:
    """The grid of the equal-width 0/1 lines in ``data``; else None.

    Each line holds a 0/1 digit at every even offset and ``delimiter`` at
    every odd one, and ends in one terminator, LF on every line or CR LF on
    every line as the first line sets; the last line may lack it. The lines
    are then one (m, width) view whose even columns are the grid. Anything
    else returns None: a blank line, a field that is empty, quoted, padded
    or longer than one byte, a mixed terminator or a line of another width,
    and a delimiter in ``_NOT_RAW`` or outside ASCII. Text is encoded with
    ``surrogatepass`` before it reaches here, so a character outside ASCII,
    a lone surrogate too, never passes for a digit or the delimiter.
    """
    if delimiter in _NOT_RAW or not delimiter.isascii():
        return None
    eol = data.find(b"\n")
    if eol <= 0:
        return None
    end = b"\r\n" if data[eol - 1] == ord("\r") else b"\n"
    width = eol + 1
    content = width - len(end)  # 2n - 1 bytes for n cells
    full, tail = divmod(len(data), width)
    # a last line without its terminator must hold exactly ``content`` bytes,
    # so the strided view below never reaches past the end of ``data``
    if content % 2 == 0 or tail not in (0, content):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = buf[: full * width].reshape(full, width)[:, content:]
    if (ends != np.frombuffer(end, dtype=np.uint8)).any():
        return None
    lines = np.lib.stride_tricks.as_strided(
        buf, shape=(full + (tail > 0), content), strides=(width, 1), writeable=False
    )
    if (lines[:, 1::2] != ord(delimiter)).any():
        return None
    digits = lines[:, 0::2] - ord("0")  # bytes below "0" wrap above 1
    if digits.max() > 1:
        return None
    return digits


def _read_rows(
    text: str, delimiter: str, header_row: bool, id_column: bool, missing_policy: str
) -> tuple[list[str] | None, tuple[str, ...] | None, np.ndarray, int]:
    """Any text through csv: header fields, row labels, grid and fill count.

    The data fields, re-joined with commas into lines, go to
    ``_binary_grid``; when it refuses them, or finds more cells than fields
    because fields held commas, the cell loop reads them instead.
    """
    try:
        rows = [row for row in csv.reader(text.splitlines(), delimiter=delimiter) if row]
    except csv.Error as exc:  # e.g. a field past csv's size limit
        raise ResponseDataError(f"unreadable CSV: {exc}") from None
    if not rows:
        raise ResponseDataError("empty input")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ResponseDataError(
            f"ragged rows: field counts {sorted(widths)} differ across lines"
        )

    header = row_labels = None
    if header_row:
        header, rows = rows[0], rows[1:]
        if id_column:
            header = header[1:]  # drop the corner label over the id column
    if id_column:
        row_labels = tuple(row[0].strip() for row in rows)
        rows = [row[1:] for row in rows]
    if not rows or not rows[0]:
        raise ResponseDataError("no data cells after header/id handling")

    lines = "\n".join(map(",".join, rows)).encode("utf-8", "surrogatepass")
    grid = _binary_grid(lines, ",")
    if grid is not None and grid.shape[1] == len(rows[0]):
        return header, row_labels, grid, 0
    return header, row_labels, *_cell_grid(rows, missing_policy)


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
    UTF-8 byte order mark (U+FEFF) is dropped.

    Without ``header_row`` or ``id_column``, a clean grid (lone 0/1 digits,
    one delimiter that is ASCII and not NUL, 0, 1, a quote or a line break,
    no blank lines, LF or CR LF throughout) is read from its bytes without
    ``csv.reader``. Any other text is read through ``csv.reader``: a grid of
    lone 0/1 fields still in one vectorised pass, any other grid cell by
    cell, which names the first missing or non-binary cell.
    """
    if missing_policy not in ("error", "as_incorrect"):
        raise ValueError(f"unknown missing_policy: {missing_policy!r}")
    if len(delimiter) != 1:
        raise ResponseDataError(
            f"delimiter must be a single character, got {delimiter!r}"
        )
    text = text.removeprefix("\ufeff")
    header = row_labels = grid = None
    missing_filled = 0
    if not (header_row or id_column):
        grid = _binary_grid(text.encode("utf-8", "surrogatepass"), delimiter)
    if grid is None:
        header, row_labels, grid, missing_filled = _read_rows(
            text, delimiter, header_row, id_column, missing_policy
        )
    col_labels = None if header is None else tuple(s.strip() for s in header)

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
    """Serialize a matrix back to CSV (inverse of parse_response_csv).

    The grid is the layout ``_binary_grid`` reads, built in one numpy pass:
    a digit at each even offset of a line, a comma at each odd one and a
    line feed last. Examinee ids and the header line are added as text.
    """
    lines = np.full((matrix.m, 2 * matrix.n), ord(","), dtype=np.uint8)
    lines[:, 0::2] = matrix.cells + ord("0")
    lines[:, -1] = ord("\n")
    text = lines.tobytes().decode("ascii")
    if id_column:
        rows = text.splitlines(keepends=True)
        text = "".join(f"{e},{row}" for e, row in zip(matrix.examinee_ids, rows))
    if header_row:
        head = ("id", *matrix.item_ids) if id_column else matrix.item_ids
        text = ",".join(head) + "\n" + text
    return text
