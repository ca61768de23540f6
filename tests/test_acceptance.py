"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single pass/fail line through the record_criterion fixture (the
lines are echoed again in the terminal summary).
"""

import math
import time
from pathlib import Path

import numpy as np

from clozedep import (
    ScoreVector,
    SimConfig,
    analyze,
    candidate_thresholds,
    classical_scores,
    distance_matrix,
    item_difficulties,
    neighborhood_weights,
    partition_clusters,
    partition_weights,
    render_json,
    report_dict,
    run_sweep,
    score_stats,
    simulate_matrix,
    to_csv,
    weighted_scores,
)
from conftest import columns_matrix, random_matrix
import oracles

DATA = Path(__file__).parent / "data"

VEC_A = (1, 1, 0, 1, 1, 0, 0, 0, 0, 0)
VEC_B = (1, 0, 1, 1, 1, 0, 1, 0, 0, 0)


def test_criterion_1_known_vector_distance(record_criterion):
    dm = distance_matrix(columns_matrix(VEC_A, VEC_B))
    ok = dm.counts[0, 1] == 3 and dm.d[0, 1] == 0.3
    record_criterion(1, ok, "known two-vector distance equals 0.3 exactly")
    assert ok


def test_criterion_2_cv_ratio_fidelity(record_criterion):
    # two-point score sets with the published mean/sd pairs
    low = score_stats(ScoreVector(scores=np.array([63.9, 104.5]), kind="classical"))
    high = score_stats(ScoreVector(scores=np.array([14.6, 30.6]), kind="weighted"))
    ok = (
        abs(low.cv - 0.2411) < 0.0005
        and abs(high.cv - 0.3540) < 0.0005
        and low.mean == 84.2
        and high.mean == 22.6
    )
    record_criterion(2, ok, "cv ratios 20.3/84.2 and 8.0/22.6 within 0.0005")
    assert ok


def test_criterion_3_structural_run_on_synthetic_data(record_criterion):
    # the study's own 145-item x 54-examinee dataset was never published, so
    # exact replication is impossible; this runs the same shape end to end on
    # synthetic data and checks every structural property the report promises
    matrix = random_matrix(seed=2026, m=54, n=145)
    result = analyze(matrix)
    report = report_dict(result)
    best = report["best"]
    checks = [
        len(report["items"]) == 145,
        len(report["examinees"]) == 54,
        best is not None,
        1.0 <= best["sum_w"] <= 145.0,
        0 <= best["singleton_count"] <= 145,
        math.isclose(
            best["avg_items_per_cluster"], 145.0 / best["sum_w"], rel_tol=1e-12
        ),
        # weights never exceed 1, so weighted totals cannot beat classical
        report["summary_weighted"]["mean"] <= report["summary_classical"]["mean"],
        best["cv"]
        >= max(r["cv"] for r in report["sweep"] if r["cv"] is not None) - 1e-12,
    ]
    ok = all(checks)
    record_criterion(
        3,
        ok,
        "145x54 source data unpublished; structural run on synthetic matrix",
    )
    assert ok


def test_criterion_4_planted_blocks_exact(record_criterion):
    started = time.perf_counter()
    config = SimConfig(m=30, block_sizes=(4, 4, 4, 4, 4), flip_noise=0.0, seed=7)
    matrix, truth = simulate_matrix(config)
    dm = distance_matrix(matrix)
    blk = np.asarray(truth.block_of)
    cross = blk[:, None] != blk[None, :]
    min_cross = float(dm.counts[cross].min()) / dm.m

    thresholds = candidate_thresholds(dm, strategy="grid", grid_step=0.01)
    table = run_sweep(matrix, thresholds)
    best = table.rows[table.best_index]

    window = [t for t in thresholds if 0 < t <= min_cross]
    window += [1e-9, min_cross / 2, min_cross]
    checks = [min_cross > 0, best.sum_w == 5.0, best.singleton_count == 0]
    for a_crit in window:
        wa = neighborhood_weights(dm, a_crit)
        checks.append(wa.sum_w == 5.0)
        checks.append(wa.singleton_count == 0)
        for b in range(5):
            checks.append(math.fsum(wa.w[blk == b]) == 1.0)
        scores = weighted_scores(matrix, wa).scores
        checks.append(all(float(s).is_integer() for s in scores))
        checks.append(scores.min() >= 0 and scores.max() <= 5)
    elapsed = time.perf_counter() - started
    ok = all(checks) and elapsed < 1.0
    record_criterion(
        4,
        ok,
        f"planted blocks: sum_w=5, unit block sums, integer scores ({elapsed:.2f}s)",
    )
    assert ok


def test_criterion_5_brute_force_oracle_equivalence(record_criterion):
    matrices = 0
    violations = 0
    for seed in range(250):
        m = 2 + seed % 7  # examinees, up to 8
        n = 2 + seed % 6  # items, up to 7
        matrix = random_matrix(seed, m, n)
        dm = distance_matrix(matrix)
        d = oracles.distance_table(matrix.cells.tolist())
        matrices += 1
        for a_crit in candidate_thresholds(dm):
            k, w, sum_w, singles = oracles.neighborhood(d, a_crit)
            wa = neighborhood_weights(dm, a_crit)
            if not (
                wa.k.tolist() == k
                and wa.w.tolist() == w
                and wa.sum_w == sum_w
                and wa.singleton_count == singles
            ):
                violations += 1
            partition = partition_clusters(dm, a_crit)
            if partition.clusters != tuple(oracles.components(d, a_crit)):
                violations += 1
            pw = partition_weights(partition)
            if pw.w.tolist() != oracles.partition_weights(partition.clusters, n):
                violations += 1
    ok = matrices >= 200 and violations == 0
    record_criterion(
        5, ok, f"oracle equivalence on {matrices} matrices, {violations} violations"
    )
    assert ok


def test_criterion_6_classical_equivalence_at_zero(record_criterion):
    violations = 0
    for seed in range(30):
        matrix = random_matrix(seed, m=3 + seed % 8, n=2 + seed % 7)
        dm = distance_matrix(matrix)
        iu = np.triu_indices(dm.n, k=1)
        positive = dm.counts[iu][dm.counts[iu] > 0]
        thresholds = [0.0]
        if len(positive) == len(dm.counts[iu]):  # duplicate-free: 0 < t < min works
            thresholds.append(float(positive.min()) / dm.m / 2)
        base = score_stats(classical_scores(matrix))
        for a_crit in thresholds:
            result = analyze(matrix, a_crit=a_crit)
            pairs = [
                (result.stats_weighted.mean, base.mean),
                (result.stats_weighted.sd, base.sd),
            ]
            if base.cv is not None:
                pairs.append((result.stats_weighted.cv, base.cv))
            diffs = [abs(a - b) for a, b in pairs]
            diffs.extend(
                np.abs(
                    result.weighted.scores - classical_scores(matrix).scores
                ).tolist()
            )
            if max(diffs) > 1e-12:
                violations += 1
    ok = violations == 0
    record_criterion(
        6, ok, "thresholds at/below the distance floor reproduce classical scoring"
    )
    assert ok


def test_criterion_7_metric_axioms(record_criterion):
    rng = np.random.default_rng(777)
    violations = 0
    for _ in range(1000):
        m = int(rng.integers(2, 12))
        u, v, t = (rng.integers(0, 2, m) for _ in range(3))
        dm = distance_matrix(columns_matrix(u, v, t))
        duv = dm.d[0, 1]
        if dm.d[1, 0] != duv:
            violations += 1
        if dm.d[0, 0] != 0.0:
            violations += 1
        if not (0.0 <= duv <= 1.0):
            violations += 1
        if dm.counts[0, 2] > dm.counts[0, 1] + dm.counts[1, 2]:
            violations += 1
    ok = violations == 0
    record_criterion(7, ok, f"metric axioms on 1000 triples, {violations} violations")
    assert ok


def test_criterion_8_threshold_monotonicity(record_criterion):
    violations = 0
    for seed in range(50):
        matrix = random_matrix(seed, m=8, n=7)
        dm = distance_matrix(matrix)
        previous = None
        for a_crit in candidate_thresholds(dm):
            wa = neighborhood_weights(dm, a_crit)
            if previous is not None:
                if np.any(wa.k < previous.k):
                    violations += 1
                if np.any(wa.w > previous.w):
                    violations += 1
                if wa.sum_w > previous.sum_w:
                    violations += 1
            previous = wa
    ok = violations == 0
    record_criterion(
        8, ok, f"k/w/sum_w monotone across exact thresholds, {violations} violations"
    )
    assert ok


def test_criterion_9_determinism_and_speed(record_criterion):
    matrix = random_matrix(seed=31415, m=54, n=145)
    started = time.perf_counter()
    first = render_json(report_dict(analyze(matrix)))
    elapsed = time.perf_counter() - started
    second = render_json(report_dict(analyze(matrix)))

    sim_dup, _ = simulate_matrix(
        SimConfig(
            m=30,
            block_sizes=(4, 4, 4, 4, 4),
            flip_noise=0.1,
            base_p=(0.35, 0.5, 0.65, 0.5, 0.45),
            seed=42,
        )
    )
    sim_log, _ = simulate_matrix(
        SimConfig(
            m=20,
            block_sizes=(3, 3, 3),
            model="logistic_latent",
            dependence=1.5,
            seed=42,
        )
    )
    grid_kwargs = dict(header_row=False, id_column=False)
    goldens = (
        to_csv(sim_dup, **grid_kwargs)
        == (DATA / "sim_duplicate.csv").read_text()
        and to_csv(sim_log, **grid_kwargs) == (DATA / "sim_logistic.csv").read_text()
    )
    ok = elapsed < 2.0 and first == second and goldens
    record_criterion(
        9,
        ok,
        f"145-item sweep in {elapsed:.2f}s, byte-identical reports, goldens match",
    )
    assert ok


def test_criterion_10_difficulty_band_flags(record_criterion):
    matrix = columns_matrix(
        [1] * 10,
        [1] + [0] * 9,
        [1] * 6 + [0] * 4,
    )
    report = item_difficulties(matrix)
    ok = (
        report.p.tolist() == [1.0, 0.1, 0.6]
        and report.flags == ("too_easy", "too_hard", "ok")
    )
    record_criterion(10, ok, "band flags (too_easy, too_hard, ok) at p=1.0/0.1/0.6")
    assert ok
