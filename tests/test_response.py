from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import clozedep.response
from clozedep import (
    ResponseDataError,
    ResponseMatrix,
    parse_response_csv,
    to_csv,
)
from conftest import make_matrix, random_matrix


class TestParse:
    def test_bare_grid(self):
        m = parse_response_csv("1,0\n0,1\n1,1")
        assert (m.m, m.n) == (3, 2)
        assert m.cells.tolist() == [[1, 0], [0, 1], [1, 1]]
        assert m.examinee_ids == ("e1", "e2", "e3")
        assert m.item_ids == ("i1", "i2")

    def test_non_binary_cell_position(self):
        with pytest.raises(ResponseDataError, match="row 1, col 2"):
            parse_response_csv("1,2\n0,1")

    def test_ragged_rows(self):
        with pytest.raises(ResponseDataError, match="ragged"):
            parse_response_csv("1,0\n0,1,1")

    def test_header_and_id_column(self):
        text = "id,alpha,beta\nx,1,0\ny,0,1\n"
        m = parse_response_csv(text, header_row=True, id_column=True)
        assert m.item_ids == ("alpha", "beta")
        assert m.examinee_ids == ("x", "y")
        assert m.cells.tolist() == [[1, 0], [0, 1]]

    def test_header_only(self):
        m = parse_response_csv("a,b\n1,0\n0,1", header_row=True)
        assert m.item_ids == ("a", "b")
        assert m.examinee_ids == ("e1", "e2")

    def test_transpose(self):
        # rows are items here; transposing recovers examinee-major layout
        m = parse_response_csv("1,0,1\n0,1,1", transpose=True)
        assert (m.m, m.n) == (3, 2)
        assert m.cells.tolist() == [[1, 0], [0, 1], [1, 1]]

    def test_transpose_swaps_labels(self):
        text = "id,p,q,r\nitem1,1,0,1\nitem2,0,1,1\n"
        m = parse_response_csv(text, header_row=True, id_column=True, transpose=True)
        assert m.examinee_ids == ("p", "q", "r")
        assert m.item_ids == ("item1", "item2")

    def test_multi_character_delimiter_rejected(self):
        for delimiter in (";;", ""):
            with pytest.raises(ResponseDataError, match="single character"):
                parse_response_csv("1;;0\n0;;1", delimiter=delimiter)

    def test_custom_delimiter(self):
        m = parse_response_csv("1;0\n0;1", delimiter=";")
        assert m.cells.tolist() == [[1, 0], [0, 1]]

    def test_missing_rejected_by_default(self):
        with pytest.raises(ResponseDataError, match="missing"):
            parse_response_csv("1,\n0,1")
        with pytest.raises(ResponseDataError, match="missing"):
            parse_response_csv("1,NA\n0,1")

    def test_missing_scored_as_incorrect(self):
        m = parse_response_csv("1,,na\n0,1,NA\n", missing_policy="as_incorrect")
        assert m.cells.tolist() == [[1, 0, 0], [0, 1, 0]]
        assert m.missing_filled == 3

    def test_unknown_missing_policy(self):
        with pytest.raises(ValueError, match="missing_policy"):
            parse_response_csv("1,0\n0,1", missing_policy="impute")

    def test_crlf_and_trailing_newline_insensitive(self):
        base = parse_response_csv("1,0\n0,1")
        assert parse_response_csv("1,0\r\n0,1\r\n") == base
        assert parse_response_csv("1,0\n0,1\n\n") == base

    def test_whitespace_around_cells(self):
        m = parse_response_csv(" 1 , 0\n0, 1 ")
        assert m.cells.tolist() == [[1, 0], [0, 1]]

    def test_empty_input(self):
        with pytest.raises(ResponseDataError, match="empty"):
            parse_response_csv("")

    def test_too_few_rows_or_columns(self):
        with pytest.raises(ResponseDataError, match="at least 2 examinees"):
            parse_response_csv("1,0")
        with pytest.raises(ResponseDataError, match="at least 2 items"):
            parse_response_csv("1\n0")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ResponseDataError, match="duplicate examinee"):
            parse_response_csv("id,a,b\nx,1,0\nx,0,1", header_row=True, id_column=True)
        with pytest.raises(ResponseDataError, match="duplicate item"):
            parse_response_csv("id,a,a\nx,1,0\ny,0,1", header_row=True, id_column=True)

    def test_byte_order_mark_dropped(self):
        base = parse_response_csv("a,b\n1,0\n0,1", header_row=True)
        assert parse_response_csv("\ufeffa,b\n1,0\n0,1", header_row=True) == base
        assert parse_response_csv("\ufeff1,0\n0,1") == parse_response_csv("1,0\n0,1")
        with pytest.raises(ResponseDataError, match="row 1, col 1"):
            parse_response_csv("\ufeff\ufeff1,0\n0,1")  # only one is dropped

    def test_two_character_cell_beside_empty_cell(self):
        # "11," joins to as many characters as two one-character cells
        for policy in ("error", "as_incorrect"):
            with pytest.raises(ResponseDataError, match="row 1, col 1: '11'"):
                parse_response_csv("11,\n0,1", missing_policy=policy)

    def test_large_shape(self):
        rng = np.random.default_rng(5)
        grid = (rng.random((54, 145)) < 0.6).astype(int)
        text = "\n".join(",".join(str(v) for v in row) for row in grid)
        m = parse_response_csv(text)
        assert (m.m, m.n) == (54, 145)
        assert np.array_equal(m.cells, grid)


_ODD_CELLS = (
    " 1", "0 ", "", "NA", "na", "11", "2", "x", '"1"', '"0,1"', "\ufeff0", "\udcff"
)
# Two neighbours as long as two lone digits together, as in the row "11,".
_ODD_PAIRS = (("11", ""), ("", "10"), ("NA", ""), ('"0,1"', ""))


def _outcome(text: str, **kwargs) -> tuple:
    try:
        m = parse_response_csv(text, **kwargs)
    except ResponseDataError as exc:
        return ("error", str(exc))
    cells = (m.cells.dtype, m.cells.flags.writeable, m.cells.tolist())
    return ("ok", m.examinee_ids, m.item_ids, cells, m.missing_filled)


@st.composite
def _documents(draw):
    """Delimited text around a 0/1 grid with some odd cells swapped in."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    grid = [[draw(st.sampled_from("01")) for _ in range(cols)] for _ in range(rows)]
    for _ in range(draw(st.integers(0, 3))):
        r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        grid[r][c] = draw(st.sampled_from(_ODD_CELLS))
    if cols > 1 and draw(st.booleans()):
        r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 2))
        grid[r][c : c + 2] = draw(st.sampled_from(_ODD_PAIRS))
    header, ids = draw(st.booleans()), draw(st.booleans())
    if ids:
        grid = [[f"r{r}"] + row for r, row in enumerate(grid)]
    if header:
        grid.insert(0, (["id"] if ids else []) + [f"q{c}" for c in range(cols)])
    delimiter = draw(st.sampled_from([",", ";"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(delimiter.join(row) for row in grid) + newline
    text = draw(st.sampled_from(["", "\ufeff"])) + text
    flags = dict(
        delimiter=delimiter,
        header_row=header,
        id_column=ids,
        missing_policy=draw(st.sampled_from(["error", "as_incorrect"])),
        transpose=draw(st.booleans()),
    )
    return text, flags


class TestVectorisedParse:
    """The one-pass grid read agrees with the cell-by-cell loop on every input."""

    @given(_documents())
    def test_matches_cell_loop(self, document):
        text, flags = document
        fast = _outcome(text, **flags)
        with mock.patch.object(clozedep.response, "_binary_grid", lambda rows: None):
            loop = _outcome(text, **flags)
        assert fast == loop

    def test_clean_grid_takes_the_vectorised_path(self):
        with mock.patch.object(
            clozedep.response, "_cell_grid", side_effect=AssertionError
        ):
            m = parse_response_csv('id,a,b\r\nx,1,"0"\r\ny,0,1\r\n',
                                   header_row=True, id_column=True, transpose=True)
        assert m.cells.tolist() == [[1, 0], [0, 1]]
        assert m.examinee_ids == ("a", "b") and m.item_ids == ("x", "y")


class TestRoundTrip:
    def test_round_trip_with_labels(self):
        m = random_matrix(1, 6, 9)
        again = parse_response_csv(to_csv(m), header_row=True, id_column=True)
        assert again == m

    def test_round_trip_bare(self):
        m = random_matrix(2, 5, 4)
        again = parse_response_csv(to_csv(m, header_row=False, id_column=False))
        assert again == m

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(2, 7))
    def test_round_trip_property(self, seed, m, n):
        matrix = random_matrix(seed, m, n)
        assert parse_response_csv(to_csv(matrix), header_row=True, id_column=True) == matrix

    def test_to_csv_layout(self):
        m = make_matrix([[1, 0], [0, 1]])
        assert to_csv(m) == "id,i1,i2\ne1,1,0\ne2,0,1\n"
        assert to_csv(m, header_row=False, id_column=False) == "1,0\n0,1\n"


class TestResponseMatrix:
    def test_cells_validated(self):
        with pytest.raises(ResponseDataError, match="non-binary cell at row 2, col 1"):
            make_matrix([[1, 0], [2, 1]])

    @pytest.mark.parametrize("value", [0.5, 1.9, 256, -1])
    def test_values_checked_before_the_cast(self, value):
        # an integer cast would truncate 0.5 and 1.9; uint8 would wrap 256 and -1
        with pytest.raises(ResponseDataError, match="non-binary cell at row 2, col 1"):
            ResponseMatrix(("e1", "e2"), ("i1", "i2"), np.array([[0, 1], [value, 0]]))

    def test_cells_stored_as_uint8(self):
        m = ResponseMatrix(("e1", "e2"), ("i1", "i2"), [[True, False], [1.0, 0]])
        assert m.cells.dtype == np.uint8
        assert m.cells.tolist() == [[1, 0], [1, 0]]

    def test_dimension_minimums(self):
        with pytest.raises(ResponseDataError):
            make_matrix([[1, 0]])
        with pytest.raises(ResponseDataError):
            make_matrix([[1], [0]])

    def test_label_counts_checked(self):
        with pytest.raises(ResponseDataError, match="examinee ids"):
            ResponseMatrix(("e1",), ("i1", "i2"), np.eye(2, dtype=int))

    def test_cells_read_only(self):
        m = make_matrix([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            m.cells[0, 0] = 0

    def test_equality_ignores_missing_filled(self):
        cells = [[1, 0], [0, 1]]
        a = ResponseMatrix(("e1", "e2"), ("i1", "i2"), np.array(cells))
        b = ResponseMatrix(("e1", "e2"), ("i1", "i2"), np.array(cells), missing_filled=2)
        assert a == b
        assert a != make_matrix([[1, 1], [0, 1]])

