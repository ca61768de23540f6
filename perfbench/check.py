"""Independent check of clozedep reports, recomputed from the input with numpy.

Nothing here imports clozedep. Each report is rebuilt from the input cells by
the definitions: the distance of two items is their mismatch count over m;
a pair is close when d < a_crit; k is 1 plus the close neighbours
(neighborhood) or the size of the connected component (partition); w = 1/k;
the weighted score is X @ w; sd is the population sd. Floats are compared
within a relative tolerance, not by digest, so a last-ulp change of
summation order does not count as a failure.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

TOLERANCE = 1e-9
SELECT_TOLERANCE = 1e-12
BAND = (0.30, 0.85)


def mismatch_counts(cells: np.ndarray) -> np.ndarray:
    """Pairwise item mismatch counts, s_i + s_j - 2 x_i.x_j, exact in float64."""
    x = cells.astype(np.float64)
    s = x.sum(axis=0)
    counts = np.rint(s[:, None] + s[None, :] - 2.0 * (x.T @ x)).astype(np.int64)
    np.fill_diagonal(counts, 0)
    return counts


def exact_thresholds(counts: np.ndarray, m: int) -> np.ndarray:
    """Each distinct off-diagonal distance, plus one half-step past the largest."""
    upper = np.unique(counts[np.triu_indices(len(counts), k=1)]) / m
    return np.append(upper, upper[-1] + 1.0 / (2 * m))


def neighborhood_sizes(d: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """k[t, i] = 1 + number of other items j with d[i, j] < thresholds[t]."""
    close = d[None, :, :] < thresholds[:, None, None]
    idx = np.arange(len(d))
    close[:, idx, idx] = False
    return 1 + close.sum(axis=2)


def _spanning_tree(counts: np.ndarray) -> list[tuple[int, int, int]]:
    """Prim's minimum spanning tree of the complete graph, as (count, i, j)."""
    n = len(counts)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = counts[0].astype(np.float64)
    via = np.zeros(n, dtype=np.int64)
    edges = []
    for _ in range(n - 1):
        j = int(np.argmin(np.where(in_tree, np.inf, best)))
        edges.append((int(best[j]), int(via[j]), j))
        in_tree[j] = True
        closer = ~in_tree & (counts[j] < best)
        best[closer] = counts[j][closer]
        via[closer] = j
    return sorted(edges)


def component_sizes(counts: np.ndarray, m: int, thresholds: np.ndarray) -> np.ndarray:
    """k[t, i] = size of i's component in the graph of pairs with d < thresholds[t].

    Components of the threshold graph are those of the minimum spanning
    tree's edges below the threshold, so one tree serves every threshold.
    """
    n = len(counts)
    parent = list(range(n))

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    edges = _spanning_tree(counts)
    sizes = np.empty((len(thresholds), n), dtype=np.int64)
    e = 0
    for t, a in enumerate(thresholds):
        while e < len(edges) and edges[e][0] / m < a:
            ru, rv = find(edges[e][1]), find(edges[e][2])
            parent[max(ru, rv)] = min(ru, rv)
            e += 1
        roots = np.array([find(i) for i in range(n)])
        sizes[t] = np.bincount(roots, minlength=n)[roots]
    return sizes


class _Checker:
    def __init__(self) -> None:
        self.problems: list[str] = []

    def close(self, what: str, got: object, want: float | None) -> None:
        if want is None or got is None:
            if got is not want:
                self.problems.append(f"{what}: got {got!r}, want {want!r}")
        elif not math.isclose(got, want, rel_tol=TOLERANCE, abs_tol=TOLERANCE):
            self.problems.append(f"{what}: got {got!r}, want {want!r}")

    def equal(self, what: str, got: object, want: object) -> None:
        if got != want:
            self.problems.append(f"{what}: got {got!r}, want {want!r}")


def _stats(scores: np.ndarray) -> tuple[float, float, float | None]:
    """Mean, population sd and cv (None unless the mean is positive)."""
    mean = float(scores.mean())
    sd = float(scores.std())
    return mean, sd, (sd / mean if mean > 0 else None)


def check_report(
    report: dict,
    cells: np.ndarray,
    examinee_ids: list[str],
    item_ids: list[str],
    *,
    mode: str,
    a_crit: float | None,
) -> list[str]:
    """Mismatches between a report and its independent recomputation."""
    c = _Checker()
    m, n = cells.shape
    x = cells.astype(np.float64)
    counts = mismatch_counts(cells)
    thresholds = exact_thresholds(counts, m) if a_crit is None else np.array([a_crit])
    if mode == "neighborhood":
        k = neighborhood_sizes(counts / m, thresholds)
        sum_w = (1.0 / k).sum(axis=1)
    else:
        k = component_sizes(counts, m, thresholds)
        sum_w = (1.0 / k).sum(axis=1).round()  # one per component, exactly
    w = 1.0 / k
    scores = x @ w.T

    config = report.get("config")
    if config is not None:
        c.equal("config.mode", config["mode"], mode)
        c.equal("config.sd_mode", config["sd_mode"], "population")
        c.equal(
            "config.thresholds.strategy",
            config["thresholds"]["strategy"],
            "exact" if a_crit is None else "fixed",
        )

    sweep = report["sweep"]
    c.equal("sweep length", len(sweep), len(thresholds))
    if len(sweep) != len(thresholds):
        return c.problems
    for t, row in enumerate(sweep):
        where = f"sweep[{t}]"
        c.close(f"{where}.a_crit", row["a_crit"], float(thresholds[t]))
        c.equal(f"{where}.mode", row["mode"], mode)
        mean, sd, cv = _stats(scores[:, t])
        c.close(f"{where}.mean", row["mean"], mean)
        c.close(f"{where}.sd", row["sd"], sd)
        c.close(f"{where}.cv", row["cv"], cv)
        c.close(f"{where}.sum_w", row["sum_w"], float(sum_w[t]))
        c.equal(f"{where}.singleton_count", row["singleton_count"], int((k[t] == 1).sum()))
        avg = row["avg_items_per_cluster"]
        c.close(f"{where}.avg_items_per_cluster", avg, n / sum_w[t])

    defined = [(i, row["cv"]) for i, row in enumerate(sweep) if row["cv"] is not None]
    want_best = None
    if defined:
        top = max(cv for _, cv in defined)
        want_best = next(i for i, cv in defined if cv >= top - SELECT_TOLERANCE)
    best = report["best"]
    c.equal("best.index", None if best is None else best["index"], want_best)
    if best is not None and want_best is not None:
        for key, value in sweep[want_best].items():
            c.equal(f"best.{key}", best[key], value)
    t = 0 if want_best is None else want_best

    p = x.mean(axis=0)
    items = report["items"]
    c.equal("item count", len(items), n)
    for i, item in enumerate(items[:n]):
        flag = "too_easy" if p[i] > BAND[1] else "too_hard" if p[i] < BAND[0] else "ok"
        c.equal(f"items[{i}].id", item["id"], item_ids[i])
        c.close(f"items[{i}].p", item["p"], float(p[i]))
        c.equal(f"items[{i}].flag", item["flag"], flag)
        c.equal(f"items[{i}].k", item["k"], int(k[t, i]))
        c.close(f"items[{i}].w", item["w"], float(w[t, i]))
        c.equal(f"items[{i}].singleton", item["singleton"], bool(k[t, i] == 1))

    classical = x.sum(axis=1)
    examinees = report["examinees"]
    c.equal("examinee count", len(examinees), m)
    for e, row in enumerate(examinees[:m]):
        c.equal(f"examinees[{e}].id", row["id"], examinee_ids[e])
        c.close(f"examinees[{e}].classical", row["classical"], float(classical[e]))
        c.close(f"examinees[{e}].weighted", row["weighted"], float(scores[e, t]))

    summaries = (("summary_classical", classical), ("summary_weighted", scores[:, t]))
    for key, values in summaries:
        mean, sd, cv = _stats(values)
        c.close(f"{key}.mean", report[key]["mean"], mean)
        c.close(f"{key}.sd", report[key]["sd"], sd)
        c.close(f"{key}.cv", report[key]["cv"], cv)
    sw = report["summary_weighted"]
    c.close("summary_weighted.a_crit", sw["a_crit"], float(thresholds[t]))
    c.close("summary_weighted.sum_w", sw["sum_w"], float(sum_w[t]))
    singletons = int((k[t] == 1).sum())
    c.equal("summary_weighted.singleton_count", sw["singleton_count"], singletons)
    avg = sw["avg_items_per_cluster"]
    c.close("summary_weighted.avg_items_per_cluster", avg, n / sum_w[t])
    return c.problems


def check_distances(text: str, cells: np.ndarray, item_ids: list[str]) -> list[str]:
    """Mismatches between a dumped distance CSV and counts / m."""
    c = _Checker()
    rows = list(csv.reader(io.StringIO(text)))
    c.equal("distances header", rows[0], ["id", *item_ids])
    c.equal("distances rows", len(rows) - 1, len(item_ids))
    d = mismatch_counts(cells) / cells.shape[0]
    for i, row in enumerate(rows[1 : len(item_ids) + 1]):
        c.equal(f"distances[{i}].id", row[0], item_ids[i])
        got = np.array([float(v) for v in row[1:]])
        if got.shape != d[i].shape or not np.allclose(got, d[i], rtol=0, atol=TOLERANCE):
            c.problems.append(f"distances row {i} differs from counts / m")
    return c.problems


def _number(text: str) -> float | None:
    return None if text == "" else float(text)


def report_from_csv_tables(tables: dict[str, str]) -> dict:
    """Rebuild the report layout that check_report reads from the four CSV tables."""

    def read(name: str) -> list[dict[str, str]]:
        return list(csv.DictReader(io.StringIO(tables[name])))

    items = [
        {
            "id": r["id"],
            "p": float(r["p"]),
            "flag": r["flag"],
            "k": int(r["k"]),
            "w": float(r["w"]),
            "singleton": r["singleton"] == "1",
        }
        for r in read("items")
    ]
    examinees = [
        {
            "id": r["id"],
            "classical": float(r["classical"]),
            "weighted": float(r["weighted"]),
        }
        for r in read("examinees")
    ]
    sweep, best = [], None
    for i, r in enumerate(read("sweep")):
        row = {
            "a_crit": float(r["a_crit"]),
            "mode": r["mode"],
            "mean": float(r["mean"]),
            "sd": float(r["sd"]),
            "cv": _number(r["cv"]),
            "sum_w": float(r["sum_w"]),
            "singleton_count": int(r["singleton_count"]),
            "avg_items_per_cluster": float(r["avg_items_per_cluster"]),
        }
        sweep.append(row)
        if r["selected"] == "1":
            best = {"index": i, **row}
    summary = {r["kind"]: r for r in read("summary")}
    sc, sw = summary["classical"], summary["weighted"]
    return {
        "items": items,
        "examinees": examinees,
        "sweep": sweep,
        "best": best,
        "summary_classical": {k: _number(sc[k]) for k in ("mean", "sd", "cv")},
        "summary_weighted": {
            "a_crit": float(sw["a_crit"]),
            "mean": float(sw["mean"]),
            "sd": float(sw["sd"]),
            "cv": _number(sw["cv"]),
            "sum_w": float(sw["sum_w"]),
            "singleton_count": int(sw["singleton_count"]),
            "avg_items_per_cluster": float(sw["avg_items_per_cluster"]),
        },
    }
