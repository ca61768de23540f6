import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from clozedep import (
    DUPLICATE_BLOCKS,
    LOGISTIC_LATENT,
    PlantedTruth,
    SimConfig,
    distance_matrix,
    partition_clusters,
    simulate_matrix,
    weighted_scores,
    weights_at,
)
from clozedep.simulate import _normals, _uniforms

_MASK = (1 << 64) - 1


def _uniform_stream(seed):
    """Reference splitmix64 uniform stream, written out independently."""
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield (z ^ (z >> 31)) / 2.0**64


def _normal(stream):
    # added one at a time: builtin sum() compensates float sums from Python 3.12
    total = 0.0
    for _ in range(12):
        total += next(stream)
    return total - 6.0


def _oracle_cells(config):
    """The docstring's stream layout, one scalar draw at a time."""
    u = _uniform_stream(config.seed)
    m = config.m
    if config.model == DUPLICATE_BLOCKS:
        cols = []
        for b, size in enumerate(config.block_sizes):
            base = [next(u) < config.base_p[b] for _ in range(m)]
            for _ in range(size):
                cols.append([int(x ^ (next(u) < config.flip_noise)) for x in base])
        return [list(row) for row in zip(*cols)]
    block_of = [b for b, size in enumerate(config.block_sizes) for _ in range(size)]
    theta = [_normal(u) for _ in range(m)]
    latents = [[_normal(u) for _ in config.block_sizes] for _ in range(m)]
    rows = []
    for e in range(m):
        row = []
        for i, b in enumerate(block_of):
            z = theta[e] + config.dependence * latents[e][b] - config.difficulties[i]
            if z >= 0:
                p = 1.0 / (1.0 + math.exp(-z))
            else:
                p = math.exp(z) / (1.0 + math.exp(z))
            row.append(int(next(u) < p))
        rows.append(row)
    return rows


def within_cross_means(matrix, truth):
    dm = distance_matrix(matrix)
    blk = np.asarray(truth.block_of)
    same = blk[:, None] == blk[None, :]
    off = ~np.eye(len(blk), dtype=bool)
    return float(dm.d[same & off].mean()), float(dm.d[~same].mean())


class TestSplitMix64:
    def test_known_outputs_from_seed_zero(self):
        known = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
        assert _uniforms(0, 3).tolist() == [x / 2.0**64 for x in known]

    def test_seed_wraps_to_64_bits(self):
        assert np.array_equal(_uniforms(1 << 64, 5), _uniforms(0, 5))
        assert np.array_equal(_uniforms(-1, 5), _uniforms(_MASK, 5))

    def test_uniform_range_and_scale(self):
        u = _uniforms(0, 1001)
        assert u[0] == 0xE220A8397B1DCDAF / 2.0**64
        assert ((0.0 <= u) & (u < 1.0)).all()
        assert u.tolist() == list(itertools.islice(_uniform_stream(0), 1001))

    def test_irwin_hall_adds_in_draw_order(self):
        # np.sum adds 12 values pairwise, which changes the last bits
        stream = _uniform_stream(77)
        assert _normals(_uniforms(77, 12 * 500)).tolist() == [
            _normal(stream) for _ in range(500)
        ]


class TestSimConfig:
    def test_defaults_and_n(self):
        config = SimConfig(m=5, block_sizes=(2, 3))
        assert config.n == 5
        assert config.base_p == (0.5, 0.5)
        assert config.difficulties == (0.0,) * 5

    def test_scalar_base_p_broadcasts(self):
        config = SimConfig(m=2, block_sizes=(1, 1, 1), base_p=0.3)
        assert config.base_p == (0.3, 0.3, 0.3)
        config = SimConfig(m=2, block_sizes=(1, 1), base_p=(0.4,))
        assert config.base_p == (0.4, 0.4)

    def test_per_block_base_p(self):
        config = SimConfig(m=2, block_sizes=(1, 2), base_p=(0.2, 0.8))
        assert config.base_p == (0.2, 0.8)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(m=2, block_sizes=()), "non-empty"),
            (dict(m=2, block_sizes=(2, 0)), "positive"),
            (dict(m=1, block_sizes=(2,)), "m >= 2"),
            (dict(m=5, block_sizes=(1, 1), model="mystery"), "unknown model"),
            (dict(m=5, block_sizes=(1, 1), base_p=(0.2, 0.3, 0.4)), "per block"),
            (dict(m=5, block_sizes=(1, 1), base_p=1.0), r"\(0, 1\)"),
            (dict(m=5, block_sizes=(1, 1), flip_noise=0.6), "flip_noise"),
            (dict(m=5, block_sizes=(1, 1), dependence=-0.1), ">= 0"),
            (dict(m=5, block_sizes=(1, 2), difficulties=(0.1, 0.2)), "3 item"),
            (dict(m=5, block_sizes=(1, 1), dependence=math.nan), "finite"),
            (dict(m=5, block_sizes=(1, 1), dependence=math.inf), "finite"),
            (dict(m=5, block_sizes=(1, 2), difficulties=(math.nan, 0, 0)), "finite"),
            (dict(m=5, block_sizes=(1, 2), difficulties=(0, -math.inf, 0)), "finite"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SimConfig(**kwargs)


class TestPlantedTruth:
    def test_block_map_is_block_major(self):
        _, truth = simulate_matrix(SimConfig(m=3, block_sizes=(2, 1, 3)))
        assert truth.block_of == (0, 0, 1, 2, 2, 2)
        assert truth.block_count == 3

    def test_block_count_empty(self):
        assert PlantedTruth(block_of=()).block_count == 0


@st.composite
def sim_configs(draw):
    """Small configs of both models; seeds of any sign and beyond 64 bits."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    if sum(sizes) < 2:
        sizes.append(1)
    n = sum(sizes)
    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    return SimConfig(
        m=draw(st.integers(2, 8)),
        block_sizes=tuple(sizes),
        model=draw(st.sampled_from((DUPLICATE_BLOCKS, LOGISTIC_LATENT))),
        flip_noise=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5))),
        base_p=tuple(draw(st.lists(unit, min_size=len(sizes), max_size=len(sizes)))),
        difficulties=draw(
            st.one_of(st.none(), st.lists(st.floats(-4, 4), min_size=n, max_size=n))
        ),
        dependence=draw(st.floats(0.0, 5.0)),
        seed=draw(st.integers(-(2**66), 2**66)),
    )


@given(config=sim_configs())
@example(config=SimConfig(m=3, block_sizes=(2, 1), flip_noise=0.2, seed=-5))
@example(config=SimConfig(m=3, block_sizes=(1, 2), model=LOGISTIC_LATENT, seed=2**64))
def test_simulate_matrix_matches_stream_oracle(config):
    matrix, _ = simulate_matrix(config)
    assert matrix.cells.tolist() == _oracle_cells(config)


class TestDuplicateBlocks:
    def test_shape_and_labels(self):
        config = SimConfig(m=30, block_sizes=(4, 4, 4, 4, 4))
        matrix, truth = simulate_matrix(config)
        assert (matrix.m, matrix.n) == (30, 20)
        assert matrix.examinee_ids[0] == "e1"
        assert matrix.examinee_ids[-1] == "e30"
        assert matrix.item_ids == tuple(f"i{i}" for i in range(1, 21))
        assert truth.block_of == tuple(np.repeat(np.arange(5), 4))

    def test_deterministic(self):
        config = SimConfig(m=12, block_sizes=(3, 2), flip_noise=0.2, seed=99)
        first, truth_a = simulate_matrix(config)
        second, truth_b = simulate_matrix(config)
        assert np.array_equal(first.cells, second.cells)
        assert truth_a == truth_b

    def test_zero_noise_duplicates_within_block(self):
        config = SimConfig(m=20, block_sizes=(3, 4, 2), seed=5)
        matrix, truth = simulate_matrix(config)
        blk = np.asarray(truth.block_of)
        for b in range(3):
            cols = matrix.cells[:, blk == b]
            assert (cols == cols[:, :1]).all()

    def test_matches_stream_oracle(self):
        config = SimConfig(
            m=3, block_sizes=(2, 1), flip_noise=0.3, base_p=(0.4, 0.7), seed=123
        )
        matrix, _ = simulate_matrix(config)
        assert matrix.cells.tolist() == _oracle_cells(config)

    def test_flip_draws_consumed_even_at_zero_noise(self):
        # same seed, same layout: only the flip outcomes may differ, so the
        # base columns (and hence the noiseless matrix) must be reproducible
        # from the noisy run's block structure
        clean, _ = simulate_matrix(SimConfig(m=15, block_sizes=(2, 2), seed=3))
        noisy, _ = simulate_matrix(
            SimConfig(m=15, block_sizes=(2, 2), seed=3, flip_noise=0.4)
        )
        u = _uniform_stream(3)
        for b in range(2):
            base = [1 if next(u) < 0.5 else 0 for _ in range(15)]
            for j in range(2):
                col = 2 * b + j
                assert clean.cells[:, col].tolist() == base
                flips = [next(u) < 0.4 for _ in range(15)]
                assert noisy.cells[:, col].tolist() == [
                    x ^ f for x, f in zip(base, flips)
                ]

    def test_base_p_controls_column_means(self):
        config = SimConfig(m=600, block_sizes=(1, 1), base_p=(0.3, 0.7), seed=17)
        matrix, _ = simulate_matrix(config)
        p = matrix.cells.mean(axis=0)
        assert abs(p[0] - 0.3) < 0.06
        assert abs(p[1] - 0.7) < 0.06

    def test_noise_degrades_within_block_distance(self):
        # two independent flips disagree with probability 2 eps (1 - eps)
        levels = (0.05, 0.15, 0.30)
        observed = []
        for eps in levels:
            vals = []
            for seed in range(20):
                config = SimConfig(
                    m=30, block_sizes=(4, 4, 4), flip_noise=eps, seed=seed
                )
                matrix, truth = simulate_matrix(config)
                vals.append(within_cross_means(matrix, truth)[0])
            observed.append(float(np.mean(vals)))
        assert observed[0] < observed[1] < observed[2]
        for got, eps in zip(observed, levels):
            assert abs(got - 2 * eps * (1 - eps)) < 0.05

    def test_zero_noise_threshold_window_invariants(self):
        config = SimConfig(m=30, block_sizes=(4, 4, 4, 4, 4), seed=7)
        matrix, truth = simulate_matrix(config)
        dm = distance_matrix(matrix)
        blk = np.asarray(truth.block_of)
        cross = blk[:, None] != blk[None, :]
        min_cross = dm.counts[cross].min() / dm.m
        assert min_cross > 0
        for a_crit in (1e-9, min_cross / 2, min_cross):
            wa = weights_at(dm, a_crit, "neighborhood")
            partition = partition_clusters(dm, a_crit)
            pw = weights_at(dm, a_crit, "partition")
            assert np.array_equal(wa.w, pw.w)
            assert np.array_equal(wa.k, pw.k)
            assert wa.sum_w == 5.0
            assert pw.sum_w == 5.0
            assert wa.singleton_count == 0
            assert len(partition) == 5
            for members in partition:
                assert math.fsum(pw.w[list(members)]) == 1.0
            scores = weighted_scores(matrix, wa.w).scores
            assert all(float(s).is_integer() for s in scores)
            # all-or-nothing blocks: score counts fully answered blocks,
            # readable off each block's first column
            answered = matrix.cells[:, [0, 4, 8, 12, 16]].sum(axis=1)
            assert np.array_equal(scores, answered)


class TestLogisticLatent:
    def test_matches_stream_oracle(self):
        config = SimConfig(
            m=2,
            block_sizes=(1, 2),
            model="logistic_latent",
            dependence=0.8,
            difficulties=(0.5, -0.2, 0.1),
            seed=9,
        )
        matrix, _ = simulate_matrix(config)
        assert matrix.cells.tolist() == _oracle_cells(config)

    def test_deterministic(self):
        config = SimConfig(
            m=10, block_sizes=(2, 3), model="logistic_latent", seed=4
        )
        first, _ = simulate_matrix(config)
        second, _ = simulate_matrix(config)
        assert np.array_equal(first.cells, second.cells)

    def test_difficulty_orders_item_means(self):
        config = SimConfig(
            m=800,
            block_sizes=(1, 1),
            model="logistic_latent",
            dependence=0.0,
            difficulties=(-1.5, 1.5),
            seed=21,
        )
        matrix, _ = simulate_matrix(config)
        p = matrix.cells.mean(axis=0)
        assert p[0] > p[1] + 0.3

    def test_zero_dependence_blocks_indistinct(self):
        gaps = []
        for seed in range(10):
            config = SimConfig(
                m=40,
                block_sizes=(3, 3, 3),
                model="logistic_latent",
                dependence=0.0,
                seed=seed,
            )
            matrix, truth = simulate_matrix(config)
            within, between = within_cross_means(matrix, truth)
            gaps.append(between - within)
        assert abs(float(np.mean(gaps))) < 0.03

    def test_strong_dependence_tightens_blocks(self):
        gaps = []
        for seed in range(10):
            config = SimConfig(
                m=40,
                block_sizes=(3, 3, 3),
                model="logistic_latent",
                dependence=3.0,
                seed=seed,
            )
            matrix, truth = simulate_matrix(config)
            within, between = within_cross_means(matrix, truth)
            gaps.append(between - within)
        assert float(np.mean(gaps)) > 0.05
