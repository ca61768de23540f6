import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import clozedep.weighting
from clozedep import (
    NEIGHBORHOOD,
    PARTITION,
    DistanceMatrix,
    WeightAssignment,
    candidate_thresholds,
    distance_matrix,
    partition_clusters,
    run_sweep,
    weights_at,
)
from clozedep.weighting import THRESHOLD_GUARD
from conftest import columns_matrix, make_matrix, random_matrix
import oracles


def dm_from_counts(counts, m):
    counts = np.asarray(counts)
    ids = tuple(f"i{j + 1}" for j in range(counts.shape[0]))
    return DistanceMatrix(counts=counts, m=m, item_ids=ids)


def cluster_of(clusters, n):
    """Each item's cluster id, the position of its cluster in ``clusters``."""
    return [c for i in range(n) for c, members in enumerate(clusters) if i in members]


# three items with d(1,2)=0.1, d(1,3)=0.2, d(2,3)=0.4 on an m=10 grid
TRIAD = dm_from_counts([[0, 1, 2], [1, 0, 4], [2, 4, 0]], m=10)
TRIAD_MATRIX = columns_matrix(
    (0,) * 10, (1,) + (0,) * 9, (0, 1, 1) + (0,) * 7
)


class TestThresholdAdjacency:
    def test_strictness_on_grid_points(self):
        # threshold exactly at a grid value excludes that distance
        assert weights_at(TRIAD, 0.1, NEIGHBORHOOD).k.tolist() == [1, 1, 1]
        assert partition_clusters(TRIAD, 0.1) == ((0,), (1,), (2,))
        # half a grid step above admits it, and only it
        assert weights_at(TRIAD, 0.15, NEIGHBORHOOD).k.tolist() == [2, 2, 1]
        assert partition_clusters(TRIAD, 0.15) == ((0, 1), (2,))

    def test_zero_threshold_admits_nothing(self):
        m = columns_matrix((1, 0, 1), (1, 0, 1))  # identical columns, d = 0
        dm = distance_matrix(m)
        assert weights_at(dm, 0.0, NEIGHBORHOOD).k.tolist() == [1, 1]
        assert partition_clusters(dm, 0.0) == ((0,), (1,))

    def test_negative_threshold_rejected(self):
        for a in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match=">= 0"):
                weights_at(TRIAD, a, NEIGHBORHOOD)
            with pytest.raises(ValueError, match=">= 0"):
                partition_clusters(TRIAD, a)

    def test_diagonal_never_set(self):
        # every pair admitted, each item still counted once: k <= n
        for a in (2.0, 1e308):
            assert weights_at(TRIAD, a, NEIGHBORHOOD).k.tolist() == [3, 3, 3]
            assert partition_clusters(TRIAD, a) == ((0, 1, 2),)


class TestNeighborhoodWeights:
    def test_zero_threshold_all_singletons(self):
        wa = weights_at(TRIAD, 0.0, NEIGHBORHOOD)
        assert wa.k.tolist() == [1, 1, 1]
        assert wa.w.tolist() == [1.0, 1.0, 1.0]
        assert wa.sum_w == 3.0
        assert wa.singleton_count == 3

    def test_triad_at_quarter(self):
        wa = weights_at(TRIAD, 0.25, NEIGHBORHOOD)
        assert wa.k.tolist() == [3, 2, 2]
        assert wa.w.tolist() == [1 / 3, 1 / 2, 1 / 2]
        assert wa.sum_w == pytest.approx(4 / 3, rel=0, abs=1e-15)
        assert wa.singleton_count == 0

    def test_identical_pair_small_threshold(self):
        dm = distance_matrix(columns_matrix((1, 0, 1, 1), (1, 0, 1, 1)))
        wa = weights_at(dm, 0.05, NEIGHBORHOOD)
        assert wa.k.tolist() == [2, 2]
        assert wa.w.tolist() == [0.5, 0.5]
        assert wa.sum_w == 1.0

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(2, 7))
    def test_bounds(self, seed, m, n):
        dm = distance_matrix(random_matrix(seed, m, n))
        for a in (0.0, 0.3, 0.7, 1.5):
            wa = weights_at(dm, a, NEIGHBORHOOD)
            assert ((wa.k >= 1) & (wa.k <= n)).all()
            assert ((wa.w > 0) & (wa.w <= 1)).all()
            assert ((wa.w == 1.0) == (wa.k == 1)).all()
            assert 1.0 - 1e-9 <= wa.sum_w <= n


class TestPartition:
    def test_triad_components(self):
        p = partition_clusters(TRIAD, 0.25)
        assert p == ((0, 1, 2),)
        assert cluster_of(p, 3) == [0, 0, 0]

    def test_triad_no_edges(self):
        p = partition_clusters(TRIAD, 0.05)
        assert p == ((0,), (1,), (2,))

    def test_no_items_rejected(self):
        # weights_at raises on the same matrix; one empty cluster is no answer
        dm = DistanceMatrix(counts=np.zeros((0, 0)), m=2, item_ids=())
        with pytest.raises(ValueError, match="no items"):
            partition_clusters(dm, 0.5)

    def test_two_identical_blocks(self):
        m = columns_matrix(
            (1, 0, 1, 0, 1), (1, 0, 1, 0, 1), (0, 1, 1, 0, 0), (0, 1, 1, 0, 0)
        )
        dm = distance_matrix(m)
        min_cross = 3  # mismatches between the two distinct columns
        assert dm.counts[0, 2] == min_cross
        for a in (0.05, 0.3, min_cross / 5):
            p = partition_clusters(dm, a)
            assert p == ((0, 1), (2, 3))

    def test_cluster_ids_by_smallest_member(self):
        # connect items 0 and 3; 1 and 2 stay single
        counts = np.full((4, 4), 5)
        np.fill_diagonal(counts, 0)
        counts[0, 3] = counts[3, 0] = 1
        p = partition_clusters(dm_from_counts(counts, 10), 0.2)
        assert p == ((0, 3), (1,), (2,))
        assert cluster_of(p, 4) == [0, 1, 2, 0]

    def test_weights_from_partition(self):
        wa = weights_at(TRIAD, 0.25, PARTITION)
        assert wa.w.tolist() == [1 / 3, 1 / 3, 1 / 3]
        assert wa.sum_w == 1.0
        singles = weights_at(TRIAD, 0.05, PARTITION)
        assert singles.w.tolist() == [1.0, 1.0, 1.0]
        assert singles.sum_w == 3.0

    def test_duplicate_blocks_quarter_weights(self):
        cols = []
        rng = np.random.default_rng(11)
        for _ in range(5):
            base = rng.integers(0, 2, 12)
            cols.extend([base] * 4)
        dm = distance_matrix(make_matrix(np.column_stack(cols)))
        wa = weights_at(dm, 1e-6, PARTITION)
        assert (wa.w == 0.25).all()
        assert wa.sum_w == 5.0

    def test_per_cluster_sums_exactly_one(self):
        for seed in range(20):
            dm = distance_matrix(random_matrix(seed, 6, 8))
            for a in (0.2, 0.4, 0.6):
                p = partition_clusters(dm, a)
                wa = weights_at(dm, a, PARTITION)
                for members in p:
                    assert math.fsum(wa.w[list(members)].tolist()) == 1.0
                assert wa.sum_w == float(len(p))


class TestModeAgreement:
    def test_clique_union_matches_partition(self):
        # disjoint identical blocks form cliques; the two semantics coincide
        cols = [
            (1, 0, 1, 0, 1, 1),
            (1, 0, 1, 0, 1, 1),
            (0, 1, 0, 1, 1, 0),
            (0, 1, 0, 1, 1, 0),
            (0, 1, 0, 1, 1, 0),
        ]
        dm = distance_matrix(columns_matrix(*cols))
        nb = weights_at(dm, 0.05, NEIGHBORHOOD)
        pt = weights_at(dm, 0.05, PARTITION)
        assert nb.k.tolist() == pt.k.tolist()
        assert nb.w.tolist() == pt.w.tolist()
        assert nb.singleton_count == pt.singleton_count == 0
        assert math.fsum(nb.w[:2].tolist()) == 1.0
        assert math.fsum(nb.w[2:].tolist()) == 1.0

    def test_below_min_positive_distance_all_singletons(self):
        for seed in range(30):
            matrix = random_matrix(seed, 9, 6)
            dm = distance_matrix(matrix)
            off = dm.counts[np.triu_indices(dm.n, k=1)]
            if (off == 0).any():
                continue  # duplicate columns: zero distances defeat this
            a = off.min() / dm.m
            nb = weights_at(dm, a, NEIGHBORHOOD)
            pt = weights_at(dm, a, PARTITION)
            assert (nb.k == 1).all() and (pt.k == 1).all()
            assert nb.sum_w == pt.sum_w == float(dm.n)

    def test_constant_columns_aggregate_and_lose_weight(self):
        rng = np.random.default_rng(4)
        varied = [rng.integers(0, 2, 20) for _ in range(4)]
        constant = [np.ones(20, dtype=int)] * 3
        dm = distance_matrix(make_matrix(np.column_stack(varied + constant)))
        wa = weights_at(dm, 0.15, NEIGHBORHOOD)
        assert (wa.w[4:] <= 1 / 3).all()


class TestMonotonicity:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(2, 8))
    def test_threshold_monotonicity(self, seed, m, n):
        dm = distance_matrix(random_matrix(seed, m, n))
        rng = np.random.default_rng(seed)
        a1, a2 = sorted(rng.uniform(0, 1.2, size=2))
        wa1, wa2 = weights_at(dm, a1, NEIGHBORHOOD), weights_at(dm, a2, NEIGHBORHOOD)
        assert (wa1.k <= wa2.k).all()
        assert (wa1.w >= wa2.w).all()
        assert wa1.sum_w >= wa2.sum_w


class TestOracleAgreement:
    def test_against_definition_level_oracle(self):
        checked = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 9))
            n = int(rng.integers(2, 8))
            matrix = random_matrix(seed + 10_000, m, n)
            dm = distance_matrix(matrix)
            d = oracles.distance_table(matrix.cells.tolist())
            uniques = sorted(set(int(c) for c in dm.counts[np.triu_indices(n, 1)]))
            thresholds = [c / m for c in uniques] + [uniques[-1] / m + 1 / (2 * m)]
            for a in thresholds:
                ok, ow, osum, osing = oracles.neighborhood(d, a)
                wa = weights_at(dm, a, NEIGHBORHOOD)
                assert wa.k.tolist() == ok
                assert wa.w.tolist() == ow
                assert wa.sum_w == osum
                assert wa.singleton_count == osing
                assert partition_clusters(dm, a) == tuple(
                    oracles.components(d, a)
                )
                checked += 1
        assert checked >= 200

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 5),
        st.integers(2, 30),
        st.floats(0.0, 1.3),
    )
    def test_partition_with_many_ties_against_oracle(self, seed, m, n, a):
        # few examinees and many items: counts repeat, spanning tree ties abound
        matrix = random_matrix(seed, m, n)
        dm = distance_matrix(matrix)
        d = oracles.distance_table(matrix.cells.tolist())
        for t in candidate_thresholds(dm) + [a]:
            # up to the guard above a grid point c/m, a threshold acts as c/m
            c = math.floor(t * m)
            at = c / m if 0 < t * m - c <= THRESHOLD_GUARD else t
            assert partition_clusters(dm, t) == tuple(
                oracles.components(d, at)
            )


class TestWeightAssignment:
    def test_validation(self):
        with pytest.raises(ValueError, match="w = 1/k"):
            WeightAssignment(
                a_crit=0.1, mode="neighborhood",
                k=np.array([2, 2]), w=np.array([0.5, 0.4]),
                sum_w=0.9, singleton_count=0,
            )
        with pytest.raises(ValueError, match="singleton"):
            WeightAssignment(
                a_crit=0.1, mode="neighborhood",
                k=np.array([1, 2]), w=np.array([1.0, 0.5]),
                sum_w=1.5, singleton_count=0,
            )
        with pytest.raises(ValueError, match="sum_w"):
            WeightAssignment(
                a_crit=0.1, mode="neighborhood",
                k=np.array([1, 1]), w=np.array([1.0, 1.0]),
                sum_w=5.0, singleton_count=2,
            )

    def test_no_items_rejected(self):
        dm = DistanceMatrix(counts=np.zeros((0, 0)), m=2, item_ids=())
        for mode in (NEIGHBORHOOD, PARTITION):
            with pytest.raises(ValueError, match="non-empty"):
                weights_at(dm, 0.5, mode)

    def test_arrays_read_only(self):
        wa = weights_at(TRIAD, 0.25, NEIGHBORHOOD)
        with pytest.raises(ValueError):
            wa.w[0] = 0.9


class TestWeightSummary:
    def test_reported_scale(self, monkeypatch):
        # 145 items compressing to a total weight of 44.4 average to 3.26
        # items per cluster; the sizes are fed in directly (11 singletons,
        # 132 items of k = 4, 2 of k = 5) to probe the arithmetic
        k = np.array([1] * 11 + [4] * 132 + [5] * 2)

        monkeypatch.setattr(
            clozedep.weighting,
            "_cluster_sizes",
            lambda dm, cutoffs, mode: (np.tile(k, (len(cutoffs), 1)), None),
        )
        matrix = random_matrix(5, 6, 145)
        row = run_sweep(matrix, distance_matrix(matrix), [0.25]).rows[0]
        assert row.sum_w == 44.4
        assert row.avg_items_per_cluster == pytest.approx(145 / 44.4, rel=1e-15)
        assert row.avg_items_per_cluster == pytest.approx(3.2658, abs=5e-4)

    def test_average_items_per_cluster(self):
        # d(1,2) = 0.1, d(1,3) = 0.2, d(2,3) = 0.3: k = 3, 2, 2 at 0.25
        row = run_sweep(TRIAD_MATRIX, distance_matrix(TRIAD_MATRIX), [0.25]).rows[0]
        assert row.sum_w == pytest.approx(4 / 3, abs=1e-15)
        assert row.avg_items_per_cluster == pytest.approx(2.25, rel=1e-12)
        assert row.singleton_count == 0

    def test_all_singletons(self):
        row = run_sweep(TRIAD_MATRIX, distance_matrix(TRIAD_MATRIX), [0.0]).rows[0]
        assert row.avg_items_per_cluster == 1.0
        assert row.singleton_count == 3
