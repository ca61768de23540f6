import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clozedep import (
    ScoreVector,
    WeightAssignment,
    classical_scores,
    item_difficulties,
    distance_matrix,
    score_stats,
    weighted_scores,
    weights_at,
)
from conftest import columns_matrix, make_matrix, random_matrix
import oracles


def assignment(weights):
    w = np.asarray(weights, dtype=float)
    k = np.rint(1.0 / w).astype(np.int64)
    return WeightAssignment(
        a_crit=0.25, mode="neighborhood", k=k, w=w,
        sum_w=math.fsum(w.tolist()),
        singleton_count=int(np.count_nonzero(k == 1)),
    )


class TestClassicalScores:
    def test_all_ones(self):
        assert classical_scores(make_matrix(np.ones((3, 4), int))).scores.tolist() == [4, 4, 4]

    def test_small_matrix(self):
        scores = classical_scores(make_matrix([[1, 0], [0, 1], [1, 1]]))
        assert scores.scores.tolist() == [1, 1, 2]
        assert scores.kind == "classical"

    def test_against_popcount_oracle(self):
        matrix = random_matrix(7, 10, 20)
        expected = [sum(row) for row in matrix.cells.tolist()]
        assert classical_scores(matrix).scores.tolist() == expected


class TestWeightedScores:
    def test_all_ones_weights_equal_classical(self):
        matrix = random_matrix(8, 6, 5)
        wa = assignment([1.0] * 5)
        assert np.array_equal(
            weighted_scores(matrix, wa.w).scores,
            classical_scores(matrix).scores.astype(float),
        )

    def test_hand_example(self):
        matrix = make_matrix([[1, 1, 0], [0, 0, 0]])
        scores = weighted_scores(matrix, assignment([1 / 3, 1 / 2, 1 / 2]).w)
        assert scores.scores[0] == pytest.approx(5 / 6, rel=1e-15)
        assert scores.scores[1] == 0.0
        assert scores.kind == "weighted"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="weight count"):
            weighted_scores(make_matrix([[1, 0], [0, 1]]), assignment([1.0] * 3).w)

    def test_max_score_is_sum_w(self):
        cells = np.vstack([np.ones(6, int), random_matrix(9, 4, 6).cells])
        matrix = make_matrix(cells)
        dm = distance_matrix(matrix)
        wa = weights_at(dm, 0.4, "neighborhood")
        scores = weighted_scores(matrix, wa.w).scores
        assert scores[0] == max(scores)
        assert scores[0] == pytest.approx(wa.sum_w, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    def test_against_dot_product_oracle(self, seed):
        matrix = random_matrix(seed, 5, 4)
        wa = assignment([1 / 2, 1.0, 1 / 4, 1 / 2])
        scores = weighted_scores(matrix, wa.w).scores
        for e, row in enumerate(matrix.cells.tolist()):
            expected = math.fsum(w for w, x in zip(wa.w.tolist(), row) if x)
            assert scores[e] == pytest.approx(expected, rel=1e-15)


class TestScoreStats:
    def test_constant_scores(self):
        stats = score_stats(ScoreVector(scores=np.array([5.0, 5.0, 5.0]), kind="classical"))
        assert stats.sd == 0.0
        assert stats.cv == 0.0

    def test_small_population_example(self):
        stats = score_stats(ScoreVector(scores=np.array([1.0, 2.0, 3.0]), kind="classical"))
        assert stats.mean == 2.0
        assert stats.sd == pytest.approx(0.81650, abs=5e-6)
        assert stats.cv == pytest.approx(0.40825, abs=5e-6)

    def test_sample_mode(self):
        stats = score_stats(
            ScoreVector(scores=np.array([1.0, 2.0, 3.0]), kind="classical"),
            "sample",
        )
        assert stats.sd == 1.0
        assert stats.sd_mode == "sample"

    def test_reported_ratio_pairs(self):
        # a two-point vector (mu - sigma, mu + sigma) has mean mu and sd sigma
        a = score_stats(ScoreVector(scores=np.array([63.9, 104.5]), kind="classical"))
        assert a.mean == pytest.approx(84.2, rel=1e-14)
        assert a.sd == pytest.approx(20.3, rel=1e-13)
        assert a.cv == pytest.approx(20.3 / 84.2, rel=1e-12)
        assert a.cv == pytest.approx(0.2411, abs=5e-4)
        b = score_stats(ScoreVector(scores=np.array([14.6, 30.6]), kind="classical"))
        assert b.mean == pytest.approx(22.6, rel=1e-14)
        assert b.sd == pytest.approx(8.0, rel=1e-13)
        assert b.cv == pytest.approx(8.0 / 22.6, rel=1e-12)
        assert b.cv == pytest.approx(0.3540, abs=5e-4)

    def test_zero_mean_marks_cv_undefined(self):
        stats = score_stats(ScoreVector(scores=np.zeros(4), kind="weighted"))
        assert stats.mean == 0.0
        assert stats.cv is None

    def test_requires_two_scores(self):
        with pytest.raises(ValueError, match="at least 2"):
            score_stats(ScoreVector(scores=np.array([3.0]), kind="classical"))

    def test_unknown_sd_mode(self):
        with pytest.raises(ValueError, match="sd_mode"):
            score_stats(ScoreVector(scores=np.array([1.0, 2.0]), kind="classical"), "other")

    @given(st.integers(0, 2**32 - 1))
    def test_against_definition_oracle(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.5, 20, size=int(rng.integers(2, 30)))
        for mode, ddof in (("population", 0), ("sample", 1)):
            stats = score_stats(ScoreVector(scores=values, kind="weighted"), mode)
            mean, sd, cv = oracles.stats(values.tolist(), ddof)
            assert stats.mean == pytest.approx(mean, rel=1e-12)
            assert stats.sd == pytest.approx(sd, rel=1e-12)
            assert stats.cv == pytest.approx(cv, rel=1e-12)

    @given(st.integers(0, 2**32 - 1), st.floats(0.001, 1000.0))
    def test_cv_scale_invariance(self, seed, c):
        rng = np.random.default_rng(seed)
        values = rng.uniform(1.0, 10.0, size=8)
        base = score_stats(ScoreVector(scores=values, kind="weighted"))
        scaled = score_stats(ScoreVector(scores=values * c, kind="weighted"))
        assert scaled.cv == pytest.approx(base.cv, abs=1e-12)


class TestItemDifficulties:
    def test_band_flags(self):
        cols = [
            np.ones(10, int),                                  # p = 1.0
            np.array([1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),          # p = 0.1
            np.array([1, 1, 1, 1, 1, 1, 0, 0, 0, 0]),          # p = 0.6
        ]
        report = item_difficulties(make_matrix(np.column_stack(cols)))
        assert report.p.tolist() == [1.0, 0.1, 0.6]
        assert report.flags == ("too_easy", "too_hard", "ok")
        assert report.band == (0.30, 0.85)

    def test_band_endpoints_inclusive(self):
        six_of_twenty = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0] * 2)
        report = item_difficulties(columns_matrix(six_of_twenty, six_of_twenty))
        assert report.p.tolist() == [0.3, 0.3]
        assert report.flags == ("ok", "ok")
        seventeen = np.array([1] * 17 + [0] * 3)
        report = item_difficulties(columns_matrix(seventeen, 1 - seventeen))
        assert report.p.tolist() == [0.85, 0.15]
        assert report.flags == ("ok", "too_hard")

    def test_custom_band(self):
        m = columns_matrix((1, 1, 0, 0), (1, 1, 1, 0))
        report = item_difficulties(m, band=(0.6, 0.9))
        assert report.flags == ("too_hard", "ok")

    def test_invalid_band(self):
        m = columns_matrix((1, 0), (0, 1))
        with pytest.raises(ValueError, match="band"):
            item_difficulties(m, band=(0.9, 0.2))
        with pytest.raises(ValueError, match="band"):
            item_difficulties(m, band=(-0.1, 0.5))


class TestScoreVector:
    def test_kind_checked(self):
        with pytest.raises(ValueError, match="kind"):
            ScoreVector(scores=np.array([1.0, 2.0]), kind="banana")

    def test_read_only(self):
        sv = ScoreVector(scores=np.array([1.0, 2.0]), kind="classical")
        with pytest.raises(ValueError):
            sv.scores[0] = 9.0
