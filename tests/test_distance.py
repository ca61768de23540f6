import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clozedep import DistanceMatrix, distance_matrix, distances_to_csv
from conftest import columns_matrix, make_matrix, random_matrix
import oracles

VEC_A = (1, 1, 0, 1, 1, 0, 0, 0, 0, 0)
VEC_B = (1, 0, 1, 1, 1, 0, 1, 0, 0, 0)


def pair_distances(u, v):
    return distance_matrix(columns_matrix(u, v))


class TestItemDistance:
    def test_known_pair(self):
        dm = pair_distances(VEC_A, VEC_B)
        assert dm.counts[0, 1] == 3
        assert dm.d[0, 1] == 0.3

    def test_identity(self):
        v = (1, 0, 1, 1)
        assert pair_distances(v, v).d[0, 1] == 0.0

    def test_full_complement(self):
        assert pair_distances((1, 1, 1), (0, 0, 0)).d[0, 1] == 1.0

    # a response matrix needs at least 2 examinees
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    def test_matches_positionwise_count(self, seed, m):
        rng = np.random.default_rng(seed)
        u, v = (rng.integers(0, 2, m) for _ in range(2))
        expected = oracles.mismatches(u.tolist(), v.tolist())
        dm = pair_distances(u, v)
        assert dm.counts[0, 1] == expected
        assert dm.d[0, 1] == expected / m


class TestDistanceMatrix:
    def test_two_column_matrix(self):
        dm = distance_matrix(columns_matrix(VEC_A, VEC_B))
        assert dm.d[0][1] == 0.3
        assert dm.d[1][0] == 0.3
        assert dm.d[0][0] == 0.0 and dm.d[1][1] == 0.0
        assert dm.counts[0][1] == 3
        assert dm.m == 10

    def test_identical_columns_all_zero(self):
        m = columns_matrix((1, 0, 1), (1, 0, 1), (1, 0, 1))
        assert not distance_matrix(m).counts.any()

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 60),
        st.lists(st.sampled_from(["fresh", "copy", "complement"]), min_size=2, max_size=12),
    )
    def test_gram_counts_match_oracle(self, seed, m, kinds):
        rng = np.random.default_rng(seed)
        cols: list[list[int]] = []
        for kind in kinds:
            if kind == "fresh" or not cols:
                cols.append((rng.random(m) < rng.random()).astype(int).tolist())
            else:
                col = cols[rng.integers(len(cols))]
                cols.append(col if kind == "copy" else [1 - x for x in col])
        dm = distance_matrix(columns_matrix(*cols))
        assert dm.counts.dtype == np.int64
        for i, u in enumerate(cols):
            for j, v in enumerate(cols):
                assert dm.counts[i, j] == oracles.mismatches(u, v)

    def test_counts_past_the_uint8_range(self):
        # 300 agreements or disagreements would wrap in uint8 arithmetic
        ones, zeros = [1] * 300, [0] * 300
        dm = distance_matrix(columns_matrix(ones, zeros, ones))
        assert dm.counts.tolist() == [[0, 300, 0], [300, 0, 300], [0, 300, 0]]

    def test_random_matrix_against_pairwise_oracle(self):
        m = random_matrix(3, 6, 5)
        dm = distance_matrix(m)
        expected = oracles.distance_table(m.cells.tolist())
        for i in range(m.n):
            for j in range(m.n):
                assert dm.d[i][j] == expected[i][j]

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(2, 8))
    def test_structural_invariants(self, seed, m, n):
        matrix = random_matrix(seed, m, n)
        dm = distance_matrix(matrix)
        assert np.array_equal(dm.counts, dm.counts.T)
        assert not np.diagonal(dm.counts).any()
        assert (dm.counts >= 0).all() and (dm.counts <= m).all()
        assert (dm.d >= 0.0).all() and (dm.d <= 1.0).all()
        # every entry sits on the k/m grid
        assert np.array_equal(dm.d * m, dm.counts.astype(float))

    @given(st.integers(0, 2**32 - 1))
    def test_row_permutation_invariance(self, seed):
        matrix = random_matrix(seed, 7, 5)
        rng = np.random.default_rng(seed + 1)
        perm = rng.permutation(matrix.m)
        shuffled = make_matrix(matrix.cells[perm])
        assert np.array_equal(
            distance_matrix(matrix).counts, distance_matrix(shuffled).counts
        )

    @given(st.integers(0, 2**32 - 1))
    def test_column_permutation_equivariance(self, seed):
        matrix = random_matrix(seed, 6, 6)
        rng = np.random.default_rng(seed + 1)
        perm = rng.permutation(matrix.n)
        shuffled = make_matrix(matrix.cells[:, perm])
        base = distance_matrix(matrix).counts
        assert np.array_equal(
            distance_matrix(shuffled).counts, base[np.ix_(perm, perm)]
        )

    def test_validation(self):
        ids = ("i1", "i2")
        with pytest.raises(ValueError, match="square"):
            DistanceMatrix(counts=np.zeros((2, 3), dtype=int), m=4, item_ids=ids)
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix(
                counts=np.array([[0, 1], [2, 0]]), m=4, item_ids=ids
            )
        with pytest.raises(ValueError, match="diagonal"):
            DistanceMatrix(
                counts=np.array([[1, 1], [1, 0]]), m=4, item_ids=ids
            )
        with pytest.raises(ValueError, match=r"\[0, m\]"):
            DistanceMatrix(
                counts=np.array([[0, 9], [9, 0]]), m=4, item_ids=ids
            )

    def test_read_only(self):
        dm = distance_matrix(random_matrix(0, 4, 3))
        with pytest.raises(ValueError):
            dm.counts[0, 1] = 5
        with pytest.raises(ValueError):
            dm.d[0, 1] = 0.5


class TestMetricAxioms:
    """Symmetry, identity, range, and the triangle inequality.

    The triangle inequality is checked on integer mismatch counts, where it
    is exact. The float distances are the counts divided by one common m,
    so the mathematical inequality transfers to them; re-checking it on
    floats would only probe rounding of the final sums.
    """

    def test_one_thousand_triples(self):
        rng = np.random.default_rng(2024)
        violations = 0
        for _ in range(1000):
            m = int(rng.integers(2, 30))  # a response matrix needs 2 examinees
            u, v, w = (rng.integers(0, 2, m).tolist() for _ in range(3))
            dm = distance_matrix(columns_matrix(u, v, w))
            duv, dvw, duw = dm.counts[0, 1], dm.counts[1, 2], dm.counts[0, 2]
            if duv != dm.counts[1, 0]:
                violations += 1
            if dm.d[0, 0] != 0.0:
                violations += 1
            if not 0.0 <= dm.d[0, 1] <= 1.0:
                violations += 1
            if duw > duv + dvw:
                violations += 1
            if (duv == 0) != (u == v):
                violations += 1
        assert violations == 0


class TestSpanningTree:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 25))
    def test_minimum_spanning_tree(self, seed, m, n):
        dm = distance_matrix(random_matrix(seed, m, n))
        tree = dm.spanning_tree
        assert tree is dm.spanning_tree  # built once per matrix
        assert tree.shape == (n - 1, 3)
        assert tree.tolist() == sorted(tree.tolist())
        count, i, j = tree.T
        assert (i < j).all() and (dm.counts[i, j] == count).all()
        # n - 1 edges whose cut at every c joins each pair with count < c:
        # a minimum spanning tree (at c = m + 1, a spanning tree)
        for c in range(m + 2):
            label = list(range(n))
            for w, a, b in tree.tolist():
                if w < c:
                    old = label[b]
                    label = [label[a] if x == old else x for x in label]
            close = dm.counts < c
            assert all(label[a] == label[b] for a, b in zip(*np.nonzero(close)))


class TestSerialization:
    def test_distances_to_csv(self):
        m = columns_matrix((1, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0))
        dm = distance_matrix(m)
        text = distances_to_csv(dm)
        lines = text.splitlines()
        assert lines[0] == "id,i1,i2,i3"
        assert lines[1].startswith("i1,0.0,")
        assert len(lines) == 4
        # numbers round-trip at full precision
        value = float(lines[1].split(",")[2])
        assert value == dm.d[0][1]
