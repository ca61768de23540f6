import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import clozedep.sweep
from clozedep import (
    DistanceMatrix,
    SelectionUndefinedError,
    SweepRow,
    SweepTable,
    analyze,
    candidate_thresholds,
    classical_scores,
    distance_matrix,
    run_sweep,
    score_stats,
    weighted_scores,
    weights_at,
)
from clozedep.scoring import _row_stats
from clozedep.sweep import SELECT_TOLERANCE, _best_index
from clozedep.weighting import THRESHOLD_GUARD, _cutoff, _weigh
from conftest import make_matrix, random_matrix
import oracles


def dm_from_counts(counts, m):
    counts = np.asarray(counts)
    ids = tuple(f"i{j + 1}" for j in range(counts.shape[0]))
    return DistanceMatrix(counts=counts, m=m, item_ids=ids)


def row(a_crit, cv, mean=10.0, sd=2.0):
    return SweepRow(
        a_crit=a_crit, mode="neighborhood", mean=mean,
        sd=sd, cv=cv, sum_w=5.0, singleton_count=1,
        avg_items_per_cluster=2.0,
    )


def duplicate_block_matrix(blocks=5, copies=4, m=12, seed=11):
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(blocks):
        base = rng.integers(0, 2, m)
        cols.extend([base] * copies)
    return make_matrix(np.column_stack(cols))


class TestCandidateThresholds:
    def test_exact_list(self):
        dm = dm_from_counts([[0, 1, 2], [1, 0, 4], [2, 4, 0]], m=10)
        assert candidate_thresholds(dm) == [0.1, 0.2, 0.4, 0.45]

    def test_exact_all_identical_items(self):
        dm = dm_from_counts(np.zeros((3, 3), int), m=10)
        assert candidate_thresholds(dm) == [0.0, 0.05]

    def test_grid_list(self):
        dm = dm_from_counts([[0, 1], [1, 0]], m=2)
        got = candidate_thresholds(dm, strategy="grid", grid_step=0.25)
        assert got == [0.25, 0.5, 0.75, 1.0, 1.25]

    def test_grid_step_validated(self):
        dm = dm_from_counts([[0, 1], [1, 0]], m=2)
        # a step below 1e-4 would make about 10**4 rows or more
        for step in (0.0, 1e-300, 9e-7, 5e-5, 1.5, math.nan):
            with pytest.raises(ValueError, match="grid_step"):
                candidate_thresholds(dm, strategy="grid", grid_step=step)

    def test_unknown_strategy(self):
        dm = dm_from_counts([[0, 1], [1, 0]], m=2)
        with pytest.raises(ValueError, match="strategy"):
            candidate_thresholds(dm, strategy="bisect")

    def test_single_item_rejected(self):
        dm = dm_from_counts([[0]], m=4)
        with pytest.raises(ValueError, match="at least 2"):
            candidate_thresholds(dm)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(2, 8))
    def test_exact_ascending_and_final_admits_all(self, seed, m, n):
        matrix = random_matrix(seed, m, n)
        dm = distance_matrix(matrix)
        thresholds = candidate_thresholds(dm)
        assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
        # the final value sits past the largest distance, so every item
        # neighborhood is the whole set
        wa = weights_at(dm, thresholds[-1], "neighborhood")
        assert wa.k.tolist() == [dm.n] * dm.n


class TestRunSweep:
    def test_zero_threshold_row_is_classical(self):
        matrix = random_matrix(21, 8, 6)
        table = run_sweep(matrix, distance_matrix(matrix), [0.0, 0.5])
        classical = score_stats(classical_scores(matrix))
        first = table.rows[0]
        assert first.mean == classical.mean
        assert first.sd == classical.sd
        assert first.cv == classical.cv
        assert first.sum_w == float(matrix.n)
        assert first.singleton_count == matrix.n

    def test_matches_per_threshold_recomputation(self):
        matrix = random_matrix(22, 6, 4)
        dm = distance_matrix(matrix)
        thresholds = candidate_thresholds(dm)
        table = run_sweep(matrix, dm, thresholds)
        assert len(table.rows) == len(thresholds)
        for a_crit, r in zip(thresholds, table.rows):
            wa = weights_at(dm, a_crit, "neighborhood")
            stats = score_stats(weighted_scores(matrix, wa.w))
            assert r.a_crit == a_crit
            assert r.mean == stats.mean
            assert r.sd == stats.sd
            assert r.cv == stats.cv
            assert r.sum_w == wa.sum_w
            assert r.singleton_count == wa.singleton_count
            assert r.avg_items_per_cluster == matrix.n / wa.sum_w

    def test_matches_definition_oracle(self):
        matrix = random_matrix(23, 6, 4)
        dm = distance_matrix(matrix)
        d = oracles.distance_table(matrix.cells.tolist())
        thresholds = candidate_thresholds(dm)
        table = run_sweep(matrix, dm, thresholds)
        for a_crit, r in zip(thresholds, table.rows):
            k, w, sum_w, singles = oracles.neighborhood(d, a_crit)
            scores = [
                math.fsum(wi for wi, x in zip(w, row) if x)
                for row in matrix.cells.tolist()
            ]
            mean, sd, cv = oracles.stats(scores)
            assert r.sum_w == sum_w
            assert r.singleton_count == singles
            assert r.mean == pytest.approx(mean, rel=1e-12)
            assert r.sd == pytest.approx(sd, rel=1e-12)
            if cv is None:
                assert r.cv is None
            else:
                assert r.cv == pytest.approx(cv, rel=1e-12)

    def test_partition_mode(self):
        matrix = duplicate_block_matrix()
        table = run_sweep(matrix, distance_matrix(matrix), [1e-6], mode="partition")
        assert table.rows[0].sum_w == 5.0
        assert table.rows[0].mode == "partition"

    def test_duplicate_block_window_sum_w(self):
        matrix = duplicate_block_matrix()
        dm = distance_matrix(matrix)
        blk = np.repeat(np.arange(5), 4)
        cross = blk[:, None] != blk[None, :]
        min_cross = dm.counts[cross].min() / dm.m
        assert min_cross > 0
        window = [1e-9, min_cross / 3, min_cross / 2, min_cross]
        table = run_sweep(matrix, dm, window)
        for r in table.rows:
            assert r.sum_w == 5.0
            assert r.singleton_count == 0

    def test_thresholds_validated(self):
        matrix = random_matrix(2, 4, 3)
        dm = distance_matrix(matrix)
        with pytest.raises(ValueError, match="ascending"):
            run_sweep(matrix, dm, [0.5, 0.2])
        with pytest.raises(ValueError, match="ascending"):
            run_sweep(matrix, dm, [0.2, 0.2])
        with pytest.raises(ValueError, match="empty"):
            run_sweep(matrix, dm, [])
        with pytest.raises(ValueError, match="does not match"):
            run_sweep(matrix, distance_matrix(random_matrix(2, 5, 3)), [0.2])

    def test_undefined_cv_rows_kept_but_not_best(self):
        matrix = make_matrix([[0, 0], [0, 0], [1, 1]])
        table = run_sweep(matrix, distance_matrix(matrix), [0.0, 0.9])
        assert all(r.cv is not None for r in table.rows)  # mean > 0 here
        zero = make_matrix([[0, 0], [0, 0]])
        table = run_sweep(zero, distance_matrix(zero), [0.0, 0.9])
        assert all(r.cv is None for r in table.rows)
        assert table.best_index is None

    def test_sum_w_non_increasing_across_exact_sweep(self):
        for seed in range(50):
            matrix = random_matrix(seed, 7, 6)
            dm = distance_matrix(matrix)
            table = run_sweep(matrix, dm, candidate_thresholds(dm))
            sums = [r.sum_w for r in table.rows]
            assert all(a >= b for a, b in zip(sums, sums[1:]))

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.3))
    def test_exact_sweep_realizes_every_threshold(self, seed, t):
        matrix = random_matrix(seed, 5, 5)
        dm = distance_matrix(matrix)
        target = weights_at(dm, t, "neighborhood")
        table = run_sweep(matrix, dm, candidate_thresholds(dm))
        matches = [
            r for r in table.rows
            if r.sum_w == target.sum_w and r.singleton_count == target.singleton_count
        ]
        ks = [weights_at(dm, r.a_crit, "neighborhood").k.tolist() for r in matches]
        assert target.k.tolist() in ks


def duplicated_columns_matrix(seed, m, n):
    """Random 0/1 matrix in which about a third of the columns copy another."""
    rng = np.random.default_rng(seed)
    cells = (rng.random((m, n)) < 0.5).astype(np.int64)
    copies = rng.random(n) < 0.35
    cells[:, copies] = cells[:, rng.integers(0, n, n)[copies]]
    return make_matrix(cells)


def acting_threshold(t, m):
    """The threshold t acts as: up to the guard above a grid point c/m, c/m."""
    c = math.floor(t * m)
    return c / m if 0 < t * m - c <= THRESHOLD_GUARD else t


class TestOnePassSweep:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.integers(2, 30),
        st.floats(0.0, 1.3),
    )
    def test_rows_match_oracles_and_per_threshold_recomputation(self, seed, m, n, a):
        matrix = duplicated_columns_matrix(seed, m, n)
        dm = distance_matrix(matrix)
        d = oracles.distance_table(matrix.cells.tolist())
        sweeps = (
            candidate_thresholds(dm),
            candidate_thresholds(dm, strategy="grid", grid_step=0.03),
            [a],
        )
        for thresholds in sweeps:
            for mode in ("neighborhood", "partition"):
                table = run_sweep(matrix, dm, thresholds, mode=mode)
                assert [r.a_crit for r in table.rows] == thresholds
                for t, r in zip(thresholds, table.rows):
                    at = acting_threshold(t, m)
                    if mode == "neighborhood":
                        _, _, sum_w, singles = oracles.neighborhood(d, at)
                    else:
                        clusters = oracles.components(d, at)
                        w = oracles.partition_weights(clusters, n)
                        assert math.fsum(w) == len(clusters)
                        sum_w = float(len(clusters))
                        singles = sum(1 for x in w if x == 1.0)
                    assert r.mode == mode
                    assert r.sum_w == sum_w
                    assert r.singleton_count == singles
                    assert r.avg_items_per_cluster == n / sum_w
                    wa = weights_at(dm, t, mode)
                    stats = score_stats(weighted_scores(matrix, wa.w))
                    assert (r.mean, r.sd, r.cv) == (stats.mean, stats.sd, stats.cv)
                    assert r.sum_w == wa.sum_w
                    assert r.singleton_count == wa.singleton_count

    @pytest.mark.parametrize("mode", ["neighborhood", "partition"])
    def test_each_distinct_cutoff_scored_once(self, monkeypatch, mode):
        weighed, scored = [], []

        def counted_weigh(dm, cutoffs, mode):
            weighed.extend(cutoffs)
            return _weigh(dm, cutoffs, mode)

        def counted_stats(scores, sd_mode):
            scored.extend(range(len(scores)))
            return _row_stats(scores, sd_mode)

        monkeypatch.setattr(clozedep.sweep, "_weigh", counted_weigh)
        monkeypatch.setattr(clozedep.sweep, "_row_stats", counted_stats)
        matrix = duplicated_columns_matrix(3, 20, 30)
        dm = distance_matrix(matrix)
        thresholds = candidate_thresholds(dm, strategy="grid", grid_step=1e-4)
        table = run_sweep(matrix, dm, thresholds, mode=mode)
        distinct = {_cutoff(t, dm.m) for t in thresholds}
        assert len(table.rows) == len(thresholds) > 10_000
        assert len(weighed) == len(set(weighed)) <= len(distinct) <= dm.m + 2
        assert len(scored) <= len(distinct)

    @given(
        st.integers(0, 2**32 - 1),
        # numpy's pairwise sum changes shape at 8 and at 128 values
        st.one_of(st.integers(2, 7), st.integers(8, 128), st.integers(129, 300)),
        st.integers(2, 20),
        st.floats(0.0, 1.3),
    )
    def test_row_statistics_bit_equal_numpy(self, seed, m, n, a):
        # the block's row-wise reductions against np.mean and np.std of each
        # row's scores alone, with the weights from the oracles
        matrix = duplicated_columns_matrix(seed, m, n)
        dm = distance_matrix(matrix)
        d = oracles.distance_table(matrix.cells.tolist())
        x = matrix.cells.astype(np.float64)
        sweeps = (
            candidate_thresholds(dm),
            candidate_thresholds(dm, strategy="grid", grid_step=0.03),
            [a],
        )
        for thresholds in sweeps:
            for mode in ("neighborhood", "partition"):
                weights = []
                for t in thresholds:
                    at = acting_threshold(t, m)
                    if mode == "neighborhood":
                        w = oracles.neighborhood(d, at)[1]
                    else:
                        w = oracles.partition_weights(oracles.components(d, at), n)
                    weights.append(np.array(w))
                for sd_mode, ddof in (("population", 0), ("sample", 1)):
                    table = run_sweep(
                        matrix, dm, thresholds, mode=mode, sd_mode=sd_mode
                    )
                    for w, r in zip(weights, table.rows):
                        scores = x @ w
                        mean = float(np.mean(scores))
                        sd = float(np.std(scores, ddof=ddof))
                        assert (r.mean.hex(), r.sd.hex()) == (mean.hex(), sd.hex())
                        assert r.cv == (sd / mean if mean > 0 else None)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["neighborhood", "partition"])
    def test_blocks_of_cutoffs_match_one_block(self, monkeypatch, mode, rows):
        # blocks of 1-3 cutoffs give the rows and the selection of one block
        for seed, m, n in ((5, 12, 9), (8, 40, 25), (13, 150, 30)):
            matrix = duplicated_columns_matrix(seed, m, n)
            dm = distance_matrix(matrix)
            sweeps = (
                candidate_thresholds(dm),
                candidate_thresholds(dm, strategy="grid", grid_step=0.03),
            )
            for thresholds in sweeps:
                assert len({_cutoff(t, m) for t in thresholds}) > rows
                whole = run_sweep(matrix, dm, thresholds, mode=mode)
                with monkeypatch.context() as patch:
                    patch.setattr(clozedep.sweep, "_BLOCK_ELEMENTS", rows * (m + n))
                    blocked = run_sweep(matrix, dm, thresholds, mode=mode)
                assert repr(blocked.rows) == repr(whole.rows)
                assert blocked.best_index == whole.best_index

    @pytest.mark.parametrize("mode", ["neighborhood", "partition"])
    def test_memory_bounded_by_blocks(self, mode):
        # 5001 distinct cutoffs over 5000 examinees: in one block the scores
        # and their squared deviations alone would take about 400 MB
        matrix = random_matrix(6, 5000, 8)
        dm = distance_matrix(matrix)
        thresholds = candidate_thresholds(dm, strategy="grid", grid_step=1e-4)
        assert len({_cutoff(t, dm.m) for t in thresholds}) == 5001
        tracemalloc.start()
        try:
            table = run_sweep(matrix, dm, thresholds, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table.rows) == len(thresholds)
        assert peak < 64 * 2**20

    def test_unknown_mode_rejected(self):
        matrix = random_matrix(4, 5, 4)
        with pytest.raises(ValueError, match="unknown mode"):
            run_sweep(matrix, distance_matrix(matrix), [0.2], mode="clique")
        with pytest.raises(ValueError, match="unknown mode"):
            weights_at(distance_matrix(matrix), 0.2, "clique")


class TestSelectBest:
    def test_picks_max_cv(self):
        rows = (row(0.1, 0.241), row(0.25, 0.352), row(0.4, 0.300))
        assert _best_index(rows, SELECT_TOLERANCE) == 1
        assert rows[1].cv == 0.352

    def test_single_row(self):
        assert _best_index((row(0.2, 0.5),), SELECT_TOLERANCE) == 0

    def test_tie_breaks_to_smaller_threshold(self):
        rows = (row(0.1, 0.25), row(0.2, 0.30), row(0.3, 0.30))
        assert rows[_best_index(rows, SELECT_TOLERANCE)].a_crit == 0.2

    def test_near_tie_within_tolerance(self):
        rows = (row(0.1, 0.30), row(0.2, 0.30 + 5e-13))
        assert rows[_best_index(rows, SELECT_TOLERANCE)].a_crit == 0.1

    def test_no_defined_cv(self):
        assert _best_index((row(0.1, None),), SELECT_TOLERANCE) is None
        with pytest.raises(SelectionUndefinedError):
            analyze(make_matrix([[0, 0], [0, 0]]))

    def test_run_sweep_best_index_consistent(self):
        matrix = random_matrix(31, 8, 7)
        dm = distance_matrix(matrix)
        table = run_sweep(matrix, dm, candidate_thresholds(dm))
        assert table.best_index == _best_index(table.rows, SELECT_TOLERANCE)
        best = table.rows[table.best_index]
        assert analyze(matrix).weights.a_crit == best.a_crit
        defined = [r.cv for r in table.rows if r.cv is not None]
        assert best.cv == max(defined)


class TestSweepTable:
    def test_rows_must_ascend(self):
        with pytest.raises(ValueError, match="increasing"):
            SweepTable(rows=(row(0.3, 0.1), row(0.2, 0.2)), best_index=None)

    def test_best_index_bounds(self):
        with pytest.raises(ValueError, match="range"):
            SweepTable(rows=(row(0.1, 0.2),), best_index=5)

    def test_best_index_needs_defined_cv(self):
        with pytest.raises(ValueError, match="defined cv"):
            SweepTable(rows=(row(0.1, None),), best_index=0)
