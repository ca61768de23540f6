import io
import json
import math
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clozedep import (
    SelectionUndefinedError,
    SweepRow,
    SweepTable,
    analyze,
    ascii_plot,
    csv_tables,
    emit_plot,
    render_json,
    report_dict,
    svg_plot,
)
from clozedep.cli import build_parser, main
from conftest import make_matrix

DATA = Path(__file__).parent / "data"

CSV_TEXT = "1,0,1,0\n1,1,0,0\n0,1,1,1\n1,1,1,0\n0,0,1,1\n"
ZERO_TEXT = "0,0\n0,0\n"


def small_matrix():
    return make_matrix([
        [1, 0, 1, 0],
        [1, 1, 0, 0],
        [0, 1, 1, 1],
        [1, 1, 1, 0],
        [0, 0, 1, 1],
    ])


def row(a_crit, cv):
    return SweepRow(
        a_crit=a_crit, mode="neighborhood", mean=2.0, sd=1.0, cv=cv,
        sum_w=3.0, singleton_count=2, avg_items_per_cluster=4 / 3,
    )


class TestAnalyze:
    def test_zero_threshold_weighted_equals_classical(self):
        result = analyze(small_matrix(), a_crit=0.0)
        assert np.array_equal(result.weighted.scores, result.classical.scores)
        assert result.stats_weighted.mean == result.stats_classical.mean
        assert result.stats_weighted.sd == result.stats_classical.sd
        assert result.strategy == "fixed"
        assert result.grid_step is None
        assert len(result.table.rows) == 1

    def test_sweep_selects_best(self):
        result = analyze(small_matrix())
        best = result.table.rows[result.table.best_index]
        assert best.cv == max(r.cv for r in result.table.rows if r.cv is not None)
        assert result.weights.a_crit == best.a_crit
        assert result.strategy == "exact"

    def test_grid_strategy_records_step(self):
        result = analyze(small_matrix(), strategy="grid", grid_step=0.2)
        assert result.strategy == "grid"
        assert result.grid_step == 0.2
        assert [r.a_crit for r in result.table.rows][:2] == [0.2, 0.4]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            analyze(small_matrix(), a_crit=-0.1)

    def test_bad_band_rejected_before_distances(self, tmp_path, capsys, monkeypatch):
        def no_distances(matrix):
            raise AssertionError("distances computed before the band was checked")

        monkeypatch.setattr("clozedep.report.distance_matrix", no_distances)
        with pytest.raises(ValueError, match="band"):
            analyze(small_matrix(), band=(0.9, 0.2))
        path = tmp_path / "resp.csv"
        path.write_text(CSV_TEXT)
        assert main(["analyze", str(path), "--sweep", "--band", "0.9:0.2"]) == 2
        assert "band must satisfy" in capsys.readouterr().err

    def test_sweep_all_zero_matrix_raises(self):
        zero = make_matrix([[0, 0], [0, 0]])
        with pytest.raises(SelectionUndefinedError):
            analyze(zero)

    def test_fixed_threshold_all_zero_matrix_has_no_best(self):
        zero = make_matrix([[0, 0], [0, 0]])
        result = analyze(zero, a_crit=0.5)
        assert result.table.best_index is None
        assert result.stats_weighted.cv is None


class TestReportDict:
    def test_top_level_layout(self):
        report = report_dict(analyze(small_matrix()))
        assert list(report) == [
            "schema_version", "config", "items", "examinees",
            "summary_classical", "summary_weighted", "sweep", "best",
        ]
        assert report["schema_version"] == 1
        assert report["config"]["band"] == [0.30, 0.85]
        assert report["config"]["thresholds"] == {"strategy": "exact"}

    def test_fixed_thresholds_section(self):
        report = report_dict(analyze(small_matrix(), a_crit=0.3))
        assert report["config"]["thresholds"] == {"strategy": "fixed", "a_crit": 0.3}

    def test_grid_thresholds_section(self):
        report = report_dict(analyze(small_matrix(), strategy="grid", grid_step=0.25))
        assert report["config"]["thresholds"] == {
            "strategy": "grid",
            "grid_step": 0.25,
        }

    def test_items_and_examinees(self):
        result = analyze(small_matrix(), a_crit=0.0)
        report = report_dict(result)
        assert [it["id"] for it in report["items"]] == ["i1", "i2", "i3", "i4"]
        assert [it["p"] for it in report["items"]] == [0.6, 0.6, 0.8, 0.4]
        assert all(it["k"] == 1 and it["w"] == 1.0 for it in report["items"])
        assert all(it["singleton"] is True for it in report["items"])
        assert [ex["classical"] for ex in report["examinees"]] == [2, 2, 3, 3, 2]
        assert [ex["id"] for ex in report["examinees"]] == [f"e{j}" for j in range(1, 6)]

    def test_best_mirrors_selected_sweep_row(self):
        report = report_dict(analyze(small_matrix()))
        best = report["best"]
        assert best is not None
        assert report["sweep"][best["index"]] == {
            key: value for key, value in best.items() if key != "index"
        }
        cvs = [r["cv"] for r in report["sweep"] if r["cv"] is not None]
        assert best["cv"] == max(cvs)

    def test_no_best_serialized_as_null(self):
        zero = make_matrix([[0, 0], [0, 0]])
        report = report_dict(analyze(zero, a_crit=0.5))
        assert report["best"] is None
        assert report["summary_weighted"]["cv"] is None
        assert report["summary_weighted"] == {
            key: value for key, value in report["sweep"][0].items() if key != "mode"
        }

    def test_integer_and_numpy_thresholds_render_as_floats(self):
        for a_crit in (0, np.int64(0), np.float64(0.0)):
            result = analyze(small_matrix(), a_crit=a_crit)
            text = render_json(report_dict(result))
            assert '"a_crit": 0.0' in text and '"a_crit": 0,' not in text
            assert "a_crit 0.0 .. 0.0</text>" in svg_plot(result.table)

    def test_json_round_trip_exact(self):
        report = report_dict(analyze(small_matrix()))
        text = render_json(report)
        assert text.endswith("\n")
        assert json.loads(text) == report

    def test_summary_weighted_consistent(self):
        # the summary is the selected sweep row (the only row at a fixed
        # a_crit), bit for bit, in both modes and every threshold setting
        cells = np.random.default_rng(6).integers(0, 2, (9, 12))
        cells[:, 6:10] = cells[:, [0, 0, 3, 4]]  # copied columns form clusters
        settings = ({}, {"strategy": "grid", "grid_step": 0.03}, {"a_crit": 0.2})
        keys = (
            "a_crit", "mean", "sd", "cv", "sum_w", "singleton_count",
            "avg_items_per_cluster",
        )
        for matrix in (small_matrix(), make_matrix(cells)):
            for mode in ("neighborhood", "partition"):
                for kwargs in settings:
                    result = analyze(matrix, mode=mode, **kwargs)
                    report = report_dict(result)
                    sw = report["summary_weighted"]
                    assert sw["a_crit"] == result.weights.a_crit
                    assert sw["sum_w"] == result.weights.sum_w
                    assert sw["mean"] == result.stats_weighted.mean
                    avg = matrix.n / result.weights.sum_w
                    assert sw["avg_items_per_cluster"] == avg
                    if "a_crit" in kwargs:
                        assert len(report["sweep"]) == 1
                        selected = report["sweep"][0]
                    else:
                        selected = report["sweep"][report["best"]["index"]]
                    for key in keys:
                        assert repr(sw[key]) == repr(selected[key]), (mode, kwargs, key)


# Strings that stress the renderer's line fix-ups: brackets, separators and
# newlines inside strings, quotes, backslashes, non-ASCII and lone surrogates.
_TEXT = st.one_of(
    st.text(),
    st.text(st.sampled_from(list('{}[],:\n" \\aé\u2028\U0001f600\ud800\udfff'))),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    _TEXT,
)
_FLAT_ROWS = st.lists(st.dictionaries(_TEXT, _SCALARS, min_size=1), min_size=1)
_JSON = st.recursive(
    st.one_of(_SCALARS, _FLAT_ROWS),
    lambda children: st.one_of(
        st.lists(children), st.dictionaries(_TEXT, children)
    ),
    max_leaves=20,
)


class TestRenderJson:
    @given(_JSON)
    def test_matches_json_dumps_indent_2(self, value):
        assert render_json(value) == json.dumps(value, indent=2, allow_nan=False) + "\n"

    @given(
        st.one_of(_SCALARS, _FLAT_ROWS),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.integers(0, 5),
    )
    def test_non_finite_float_raises_json_message(self, value, bad, where):
        doc = [
            bad,
            [value, bad],
            {"k": value, "bad": bad},
            [{"a": 1}, {"a": bad}],
            {"outer": [value, {"deep": [bad]}]},
            {bad: value},
        ][where]
        with pytest.raises(ValueError) as expected:
            json.dumps(doc, indent=2, allow_nan=False)
        with pytest.raises(ValueError) as got:
            render_json(doc)
        assert str(got.value) == str(expected.value)

    def test_cycle_raises_json_message(self):
        looped_list, looped_dict = [1], {"a": [2]}
        looped_list.append(looped_list)
        looped_dict["a"].append(looped_dict)
        for doc in (looped_list, looped_dict, [{"x": 1}, looped_list]):
            with pytest.raises(ValueError, match="^Circular reference detected$"):
                render_json(doc)

    def test_adversarial_report(self):
        rows = [
            {"id": "},\n    {", "p": 0.5, "flag": "ok", "singleton": True},
            {"id": "é\u00e9\ud800", "p": -0.0, "flag": None, "singleton": False},
        ]
        doc = {
            "items": rows,
            "empty_dict": {},
            "empty_list": [],
            "nested": [[1, [2, []]], [], {}, [{}], [{"a": {}}], [{"x": 1}, 2, "}"]],
            "config": {"band": [0.3, 0.85], "thresholds": {"strategy": "exact"}},
            "keys": {1: "int", 2.5: "float", True: "bool", None: "null"},
            "best": None,
        }
        assert render_json(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"
        assert render_json([]) == "[]\n"
        assert render_json("}") == '"}"\n'


class TestCsvTables:
    def test_sections_and_headers(self):
        tables = csv_tables(report_dict(analyze(small_matrix())))
        assert set(tables) == {"items", "examinees", "sweep", "summary"}
        assert tables["items"].splitlines()[0] == "id,p,flag,k,w,singleton"
        assert tables["examinees"].splitlines()[0] == "id,classical,weighted"
        assert tables["sweep"].splitlines()[0] == (
            "a_crit,mode,mean,sd,cv,sum_w,singleton_count,"
            "avg_items_per_cluster,selected"
        )
        assert tables["summary"].splitlines()[0] == (
            "kind,mean,sd,cv,a_crit,sum_w,singleton_count,avg_items_per_cluster"
        )

    def test_value_formatting(self):
        report = report_dict(analyze(small_matrix(), a_crit=0.0))
        items = csv_tables(report)["items"].splitlines()
        assert items[1] == "i1,0.6,ok,1,1.0,1"
        summary = csv_tables(report)["summary"].splitlines()
        assert summary[1].startswith("classical,")
        assert summary[1].endswith(",,,,")  # blank a_crit/sum_w/... for classical

    def test_selected_column_marks_best_once(self):
        report = report_dict(analyze(small_matrix()))
        lines = csv_tables(report)["sweep"].splitlines()[1:]
        marks = [line.rsplit(",", 1)[1] for line in lines]
        assert marks.count("1") == 1
        assert marks[report["best"]["index"]] == "1"

    def test_undefined_cv_blank_and_never_selected(self):
        zero = make_matrix([[0, 0], [0, 0]])
        report = report_dict(analyze(zero, a_crit=0.5))
        line = csv_tables(report)["sweep"].splitlines()[1]
        fields = line.split(",")
        assert fields[4] == ""
        assert fields[-1] == "0"

    def test_round_trips_floats_exactly(self):
        report = report_dict(analyze(small_matrix()))
        lines = csv_tables(report)["sweep"].splitlines()[1:]
        for text_row, row_d in zip(lines, report["sweep"]):
            assert float(text_row.split(",")[0]) == row_d["a_crit"]


class TestAsciiPlot:
    def test_fallback_when_no_cv(self):
        table = SweepTable(rows=(row(0.1, None),), best_index=None)
        assert ascii_plot(table) == "cv vs a_crit: no rows with defined cv\n"

    def test_marker_positions(self):
        table = SweepTable(rows=(row(0.0, 0.1), row(1.0, 0.3)), best_index=1)
        lines = ascii_plot(table).splitlines()
        assert lines[0] == "cv vs a_crit  (* = selected)"
        # best point: highest cv -> top grid row, rightmost column
        assert lines[1] == f"{0.3:8.4f} |" + " " * 59 + "*"
        assert lines[13] == f"{0.1:8.4f} |o"
        assert lines[14] == " " * 9 + "+" + "-" * 60
        assert lines[15].split() == ["0.0000", "1.0000"]

    def test_single_point(self):
        table = SweepTable(rows=(row(0.2, 0.5),), best_index=0)
        lines = ascii_plot(table).splitlines()
        assert lines[13] == f"{0.5:8.4f} |*"

    def test_real_sweep_is_narrow_with_one_selection(self):
        result = analyze(small_matrix())
        text = ascii_plot(result.table)
        lines = text.splitlines()
        assert all(len(line) <= 80 for line in lines)
        assert sum(line.count("*") for line in lines[1:14]) == 1

    def test_plateau_marker_sits_at_smallest_tied_threshold(self):
        from clozedep import SimConfig, simulate_matrix

        matrix, _ = simulate_matrix(
            SimConfig(m=30, block_sizes=(4, 4, 4, 4, 4), seed=7)
        )
        result = analyze(matrix, strategy="grid")
        assert result.table.rows[result.table.best_index].a_crit == 0.01
        lines = ascii_plot(result.table).splitlines()[1:]  # drop the title
        stars = [
            (r, line.index("*")) for r, line in enumerate(lines) if "*" in line
        ]
        # ties broke to the leftmost plateau threshold: one marker, first column
        assert len(stars) == 1
        assert stars[0][1] == 10

    def test_emit_plot_dispatch(self):
        table = SweepTable(rows=(row(0.2, 0.5),), best_index=0)
        assert emit_plot(table, "ascii") == ascii_plot(table)
        assert emit_plot(table, "svg") == svg_plot(table)
        with pytest.raises(ValueError, match="plot style"):
            emit_plot(table, "png")


class TestSvgPlot:
    def test_well_formed_and_marked(self):
        result = analyze(small_matrix())
        text = svg_plot(result.table)
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        ns = "{http://www.w3.org/2000/svg}"
        circles = root.findall(f"{ns}circle")
        points = sum(1 for r in result.table.rows if r.cv is not None)
        assert len(circles) == points + 1  # one ring around the selection
        rings = [c for c in circles if c.get("stroke") == "crimson"]
        assert len(rings) == 1
        assert root.find(f"{ns}polyline") is not None

    def test_empty_table_message(self):
        table = SweepTable(rows=(row(0.1, None),), best_index=None)
        text = svg_plot(table)
        assert "no rows with defined cv" in text
        ET.fromstring(text)


class TestCliAnalyze:
    def test_fixed_threshold_json_stdout(self, tmp_path, capsys):
        path = tmp_path / "resp.csv"
        path.write_text(CSV_TEXT)
        assert main(["analyze", str(path), "--a-crit", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary_weighted"]["mean"] == report["summary_classical"]["mean"]
        assert report["config"]["thresholds"]["a_crit"] == 0.0

    def test_sweep_json_stdout(self, tmp_path, capsys):
        path = tmp_path / "resp.csv"
        path.write_text(CSV_TEXT)
        assert main(["analyze", str(path), "--sweep"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best"] is not None
        assert len(report["sweep"]) > 1

    def test_csv_format_banners(self, tmp_path, capsys):
        path = tmp_path / "resp.csv"
        path.write_text(CSV_TEXT)
        assert main(["analyze", str(path), "--sweep", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        for name in ("items", "examinees", "sweep", "summary"):
            assert f"# {name}.csv\n" in out

    def test_out_prefix_writes_files(self, tmp_path, capsys):
        path = tmp_path / "resp.csv"
        path.write_text(CSV_TEXT)
        base = tmp_path / "run"
        code = main([
            "analyze", str(path), "--sweep", "--plot", "ascii",
            "--dump-distances", "--out", str(base),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads((tmp_path / "run.json").read_text())["best"] is not None
        assert (tmp_path / "run.distances.csv").read_text().startswith("id,")
        assert (tmp_path / "run.plot.txt").read_text().startswith("cv vs a_crit")

    def test_csv_out_writes_four_tables(self, tmp_path):
        path = tmp_path / "resp.csv"
        path.write_text(CSV_TEXT)
        base = tmp_path / "run"
        main(["analyze", str(path), "--sweep", "--format", "csv", "--out", str(base)])
        for name in ("items", "examinees", "sweep", "summary"):
            assert (tmp_path / f"run.{name}.csv").exists()

    def test_svg_plot_out(self, tmp_path):
        path = tmp_path / "resp.csv"
        path.write_text(CSV_TEXT)
        base = tmp_path / "run"
        main(["analyze", str(path), "--sweep", "--plot", "svg", "--out", str(base)])
        ET.fromstring((tmp_path / "run.plot.svg").read_text())

    def test_repeat_runs_byte_identical(self, tmp_path):
        path = tmp_path / "resp.csv"
        path.write_text(CSV_TEXT)
        outputs = []
        for name in ("a", "b"):
            base = tmp_path / name
            main(["analyze", str(path), "--sweep", "--plot", "ascii",
                  "--out", str(base)])
            outputs.append(
                (tmp_path / f"{name}.json").read_bytes()
                + (tmp_path / f"{name}.plot.txt").read_bytes()
            )
        assert outputs[0] == outputs[1]

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(CSV_TEXT))
        assert main(["analyze", "-", "--a-crit", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["schema_version"] == 1

    def test_byte_order_mark_file_and_stdin(self, tmp_path, capsys, monkeypatch):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(CSV_TEXT, encoding="utf-8")
        bom.write_text("\ufeff" + CSV_TEXT, encoding="utf-8")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        outputs = []
        for path in (plain, bom):
            assert main(["analyze", str(path), "--sweep"]) == 0
            outputs.append(capsys.readouterr().out)
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + CSV_TEXT))
        assert main(["analyze", "-", "--sweep"]) == 0
        outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_transpose_matches_pretransposed(self, tmp_path, capsys):
        rows = [line.split(",") for line in CSV_TEXT.strip().splitlines()]
        flipped = "\n".join(
            ",".join(r[i] for r in rows) for i in range(len(rows[0]))
        ) + "\n"
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(CSV_TEXT)
        b.write_text(flipped)
        main(["analyze", str(a), "--sweep"])
        straight = capsys.readouterr().out
        main(["analyze", str(b), "--sweep", "--transpose"])
        transposed = capsys.readouterr().out
        assert straight == transposed

    def test_header_and_id_column(self, tmp_path, capsys):
        labeled = "id,x,y\nr1,1,0\nr2,0,1\nr3,1,1\n"
        path = tmp_path / "resp.csv"
        path.write_text(labeled)
        main(["analyze", str(path), "--a-crit", "0", "--header", "--id-column"])
        report = json.loads(capsys.readouterr().out)
        assert [it["id"] for it in report["items"]] == ["x", "y"]
        assert [ex["id"] for ex in report["examinees"]] == ["r1", "r2", "r3"]

    def test_missing_zero_notes_fill_count(self, tmp_path, capsys):
        path = tmp_path / "resp.csv"
        path.write_text("1,,1\n0,1,NA\n1,0,1\n")
        assert main(["analyze", str(path), "--a-crit", "0", "--missing", "zero"]) == 0
        err = capsys.readouterr().err
        assert "2 missing cells scored as incorrect" in err

    def test_missing_rejected_by_default(self, tmp_path, capsys):
        path = tmp_path / "resp.csv"
        path.write_text("1,,1\n0,1,0\n")
        assert main(["analyze", str(path), "--a-crit", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_exit_2_on_missing_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.csv"), "--sweep"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_exit_2_on_bad_band(self, tmp_path, capsys):
        path = tmp_path / "resp.csv"
        path.write_text(CSV_TEXT)
        assert main(["analyze", str(path), "--sweep", "--band", "high"]) == 2
        assert "LO:HI" in capsys.readouterr().err

    def test_exit_2_on_negative_threshold(self, tmp_path, capsys):
        path = tmp_path / "resp.csv"
        path.write_text(CSV_TEXT)
        assert main(["analyze", str(path), "--a-crit", "-0.5"]) == 2
        assert ">= 0" in capsys.readouterr().err

    def test_exit_2_on_non_finite_threshold(self, tmp_path, capsys):
        path = tmp_path / "resp.csv"
        path.write_text(CSV_TEXT)
        for value in ("nan", "inf"):
            assert main(["analyze", str(path), "--a-crit", value]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and ">= 0" in captured.err
            assert captured.err.count("\n") == 1

    def test_huge_threshold_admits_every_pair(self, tmp_path, capsys):
        path = tmp_path / "resp.csv"
        path.write_text(CSV_TEXT)
        reports = []
        for value in ("1e308", "2.0"):
            assert main(["analyze", str(path), "--a-crit", value]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        huge, two = reports
        assert huge["config"]["thresholds"]["a_crit"] == 1e308
        assert [it["k"] for it in huge["items"]] == [4, 4, 4, 4]
        for report in reports:
            del report["config"]["thresholds"]["a_crit"]
            del report["summary_weighted"]["a_crit"]
            del report["sweep"][0]["a_crit"]
            del report["best"]["a_crit"]
        assert huge == two

    def test_exit_2_on_multi_character_delimiter(self, tmp_path, capsys):
        path = tmp_path / "resp.csv"
        path.write_text(CSV_TEXT.replace(",", ";;"))
        assert main(["analyze", str(path), "--sweep", "--delimiter", ";;"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: delimiter must be a single character, got ';;'\n"

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_exit_2_on_field_past_csv_limit(self, tmp_path, capsys, quote):
        # csv.reader refuses fields over 131,072 characters with csv.Error
        path = tmp_path / "resp.csv"
        path.write_text(f"{quote}{'1' * 200_000}{quote},0\n0,1\n")
        assert main(["analyze", str(path), "--sweep"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unreadable CSV: field larger")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_exit_2_at_once_on_tiny_grid_step(self, tmp_path, capsys):
        path = tmp_path / "resp.csv"
        path.write_text(CSV_TEXT)
        started = time.perf_counter()
        code = main([
            "analyze", str(path), "--sweep", "--strategy", "grid",
            "--grid-step", "1e-300",
        ])
        assert time.perf_counter() - started < 1.0
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: grid_step must be in [0.0001, 1]")
        assert captured.err.count("\n") == 1

    def test_exit_3_when_selection_undefined(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text(ZERO_TEXT)
        assert main(["analyze", str(path), "--sweep"]) == 3
        assert "no sweep row has a defined cv" in capsys.readouterr().err

    def test_fixed_threshold_on_zero_matrix_succeeds(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text(ZERO_TEXT)
        assert main(["analyze", str(path), "--a-crit", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["best"] is None

    def test_threshold_flags_mutually_exclusive(self, tmp_path, capsys):
        path = tmp_path / "resp.csv"
        path.write_text(CSV_TEXT)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(path), "--a-crit", "0.2", "--sweep"])
        assert exc.value.code == 2

    def test_threshold_flag_required(self, tmp_path):
        path = tmp_path / "resp.csv"
        path.write_text(CSV_TEXT)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(path)])
        assert exc.value.code == 2

    def test_grid_strategy_flags(self, tmp_path, capsys):
        path = tmp_path / "resp.csv"
        path.write_text(CSV_TEXT)
        code = main([
            "analyze", str(path), "--sweep", "--strategy", "grid",
            "--grid-step", "0.2",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["thresholds"]["grid_step"] == 0.2
        got = [r["a_crit"] for r in report["sweep"]][:4]
        assert got == [1 * 0.2, 2 * 0.2, 3 * 0.2, 4 * 0.2]


class TestCliSimulate:
    def test_stdout_grid(self, capsys):
        code = main([
            "simulate", "--examinees", "4", "--blocks", "2,2", "--seed", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all(set(line) <= {"0", "1", ","} for line in lines)

    def test_out_writes_matrix_and_truth(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main([
            "simulate", "--examinees", "6", "--blocks", "2,1", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert f"wrote {out}" in err
        truth = json.loads((tmp_path / "sim.truth.json").read_text())
        assert truth == {
            "schema_version": 1,
            "block_sizes": [2, 1],
            "block_of": [0, 0, 1],
        }
        grid = out.read_text().strip().splitlines()
        assert len(grid) == 6
        assert all(len(line.split(",")) == 3 for line in grid)

    def test_truth_out_override(self, tmp_path):
        out = tmp_path / "sim.csv"
        truth = tmp_path / "elsewhere.json"
        main([
            "simulate", "--examinees", "4", "--blocks", "1,1",
            "--out", str(out), "--truth-out", str(truth),
        ])
        assert truth.exists()
        assert not (tmp_path / "sim.truth.json").exists()

    def test_truth_out_with_stdout_grid(self, tmp_path, capsys):
        truth = tmp_path / "truth.json"
        main([
            "simulate", "--examinees", "4", "--blocks", "2,2",
            "--truth-out", str(truth),
        ])
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 4
        assert json.loads(truth.read_text())["block_of"] == [0, 0, 1, 1]

    def test_exit_2_on_bad_blocks(self, capsys):
        assert main(["simulate", "--examinees", "4", "--blocks", "2,x"]) == 2
        assert "comma separated integers" in capsys.readouterr().err

    def test_exit_2_on_non_finite_lambda(self, capsys):
        for value in ("nan", "inf"):
            code = main([
                "simulate", "--examinees", "4", "--blocks", "2,2",
                "--model", "logistic_latent", "--lambda", value,
            ])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "finite" in captured.err
            assert captured.err.count("\n") == 1

    def test_exit_2_on_memory_error(self, tmp_path, capsys, monkeypatch):
        # a stand-in for an allocation that cannot be met; none is made
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("clozedep.cli.analyze", out_of_memory)
        monkeypatch.setattr("clozedep.cli.simulate_matrix", out_of_memory)
        path = tmp_path / "resp.csv"
        path.write_text(CSV_TEXT)
        for argv in (
            ["analyze", str(path), "--sweep"],
            ["simulate", "--examinees", "4", "--blocks", "2,2"],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.strip() != "error:"
            assert captured.err.count("\n") == 1

    def test_exit_2_on_bad_base_p(self, capsys):
        code = main([
            "simulate", "--examinees", "4", "--blocks", "2,2", "--base-p", "1.5",
        ])
        assert code == 2

    def test_zero_noise_file_has_duplicate_block_columns(self, tmp_path):
        out = tmp_path / "sim.csv"
        main([
            "simulate", "--examinees", "10", "--blocks", "3,2", "--eps", "0",
            "--seed", "8", "--out", str(out),
        ])
        rows = [line.split(",") for line in out.read_text().strip().splitlines()]
        cols = list(zip(*rows))
        assert cols[0] == cols[1] == cols[2]
        assert cols[3] == cols[4]

    def test_block_sweep_best_recovers_block_count(self, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        main([
            "simulate", "--examinees", "30", "--blocks", "4,4,4,4,4",
            "--eps", "0", "--seed", "7", "--out", str(sim),
        ])
        capsys.readouterr()
        code = main([
            "analyze", str(sim), "--sweep", "--strategy", "grid",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best"]["sum_w"] == 5.0
        assert report["best"]["singleton_count"] == 0

    def test_round_trip_into_analyze(self, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        main([
            "simulate", "--examinees", "25", "--blocks", "3,3,3",
            "--eps", "0.05", "--seed", "2", "--out", str(sim),
        ])
        capsys.readouterr()
        assert main(["analyze", str(sim), "--sweep"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best"] is not None
        assert len(report["items"]) == 9

    def test_matches_golden_duplicate(self, tmp_path):
        out = tmp_path / "sim.csv"
        main([
            "simulate", "--examinees", "30", "--blocks", "4,4,4,4,4",
            "--eps", "0.1", "--base-p", "0.35,0.5,0.65,0.5,0.45",
            "--seed", "42", "--out", str(out),
        ])
        assert out.read_bytes() == (DATA / "sim_duplicate.csv").read_bytes()
        assert (tmp_path / "sim.truth.json").read_bytes() == (
            DATA / "sim_duplicate.truth.json"
        ).read_bytes()

    def test_matches_golden_logistic(self, tmp_path):
        out = tmp_path / "sim.csv"
        main([
            "simulate", "--examinees", "20", "--blocks", "3,3,3",
            "--model", "logistic_latent", "--lambda", "1.5",
            "--seed", "42", "--out", str(out),
        ])
        assert out.read_bytes() == (DATA / "sim_logistic.csv").read_bytes()

    def test_analyze_report_matches_golden(self, tmp_path):
        base = tmp_path / "run"
        main([
            "analyze", str(DATA / "sim_duplicate.csv"), "--sweep",
            "--out", str(base),
        ])
        assert (tmp_path / "run.json").read_bytes() == (
            DATA / "report_duplicate.json"
        ).read_bytes()

    def test_analyze_partition_report_matches_golden(self, tmp_path):
        base = tmp_path / "run"
        main([
            "analyze", str(DATA / "sim_duplicate.csv"), "--sweep",
            "--mode", "partition", "--out", str(base),
        ])
        assert (tmp_path / "run.json").read_bytes() == (
            DATA / "report_duplicate_partition.json"
        ).read_bytes()

    def test_analyze_grid_report_matches_golden(self, tmp_path):
        base = tmp_path / "run"
        main([
            "analyze", str(DATA / "sim_duplicate.csv"), "--sweep",
            "--strategy", "grid", "--grid-step", "0.01", "--out", str(base),
        ])
        assert (tmp_path / "run.json").read_bytes() == (
            DATA / "report_duplicate_grid.json"
        ).read_bytes()

    @pytest.mark.parametrize(
        ("flags", "golden", "suffixes"),
        [
            (
                ["--sweep", "--format", "csv", "--plot", "svg", "--dump-distances"],
                "tables_duplicate",
                (".items.csv", ".examinees.csv", ".sweep.csv", ".summary.csv",
                 ".distances.csv", ".plot.svg"),
            ),
            (
                ["--sweep", "--mode", "partition", "--plot", "ascii"],
                "report_duplicate_partition",
                (".json", ".plot.txt"),
            ),
            (["--a-crit", "0.2"], "report_duplicate_fixed", (".json",)),
        ],
        ids=["csv-svg-distances", "partition-ascii", "fixed"],
    )
    def test_analyze_outputs_match_goldens(self, tmp_path, flags, golden, suffixes):
        base = tmp_path / "run"
        code = main([
            "analyze", str(DATA / "sim_duplicate.csv"), *flags, "--out", str(base),
        ])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            "run" + suffix for suffix in suffixes
        )
        for suffix in suffixes:
            assert (tmp_path / ("run" + suffix)).read_bytes() == (
                DATA / (golden + suffix)
            ).read_bytes(), suffix


class TestParser:
    def test_prog_and_subcommands(self):
        parser = build_parser()
        assert parser.prog == "clozedep"
        args = parser.parse_args(["analyze", "x.csv", "--sweep"])
        assert args.sweep is True and args.a_crit is None
        args = parser.parse_args([
            "simulate", "--examinees", "5", "--blocks", "2,3",
        ])
        assert args.dependence == 1.0
