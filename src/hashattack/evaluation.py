"""Hamming-ranked retrieval metrics.

Ranking sorts database items by ascending Hamming distance with ties
broken by database index.  Average precision runs over the full ranking
with the shared-class relevance rule, so the same machinery scores both
true-label retrieval quality and targeted-attack success (relevance
judged against the attack's target label).
"""

from dataclasses import dataclass, field

import numpy as np

from .data import build_similarity_matrix
from .errors import DimensionError, InputError
from .hashing import hamming_distances


@dataclass
class RankedList:
    indices: np.ndarray
    distances: np.ndarray


@dataclass
class EvalReport:
    """Scalars plus plot-ready curves for one query set against one database."""

    t_map: float = None
    map: float = None
    pr_curve: list = field(default_factory=list)
    precision_at_n: list = field(default_factory=list)
    perceptibility: float = None
    mean_generation_time: float = None
    queries_without_relevant: int = 0


def rank_database(query_code, code_matrix):
    """Full ranking of database columns by Hamming distance to the query."""
    distances = hamming_distances(query_code, code_matrix)
    order = np.argsort(distances, kind="stable")
    return RankedList(indices=order, distances=distances[order])


def average_precision(relevance):
    """AP over an ordered 0/1 relevance list; 0 when nothing is relevant."""
    relevance = np.asarray(relevance, dtype=np.float64)
    if relevance.ndim != 1 or relevance.size == 0:
        raise DimensionError(f"relevance must be a non-empty vector, got {relevance.shape}")
    total = relevance.sum()
    if total == 0.0:
        return 0.0
    hits = np.cumsum(relevance)
    ranks = np.arange(1, relevance.size + 1)
    return float(np.sum((hits / ranks) * relevance) / total)


def _ranked_relevance(query_codes, query_labels, code_matrix, db_labels):
    """Per-query relevance lists in ranked order."""
    query_codes = np.asarray(query_codes, dtype=np.float64)
    if query_codes.ndim != 2 or query_codes.shape[0] == 0:
        raise InputError("need a non-empty (queries, K) code array")
    query_labels = np.asarray(query_labels, dtype=np.float64)
    if query_labels.shape[0] != query_codes.shape[0]:
        raise DimensionError(
            f"got {query_codes.shape[0]} codes but {query_labels.shape[0]} labels"
        )
    relevance = build_similarity_matrix(query_labels, db_labels)
    rows = []
    for code, rel in zip(query_codes, relevance):
        ranked = rank_database(code, code_matrix)
        rows.append(rel[ranked.indices])
    return rows


def t_map(adv_codes, target_labels, code_matrix, db_labels):
    """Mean AP with relevance judged against each query's TARGET label."""
    rows = _ranked_relevance(adv_codes, target_labels, code_matrix, db_labels)
    return float(np.mean([average_precision(r) for r in rows]))


def pr_curve(query_codes, query_labels, code_matrix, db_labels):
    """Precision and recall at every rank cutoff, averaged over queries.

    Queries with no relevant database item are excluded from the
    averages (their recall is undefined); the skip count is returned so
    reports can flag it.
    """
    rows = _ranked_relevance(query_codes, query_labels, code_matrix, db_labels)
    depth = len(rows[0])
    ranks = np.arange(1, depth + 1)
    precisions, recalls = [], []
    skipped = 0
    for rel in rows:
        total = rel.sum()
        if total == 0.0:
            skipped += 1
            continue
        hits = np.cumsum(rel)
        precisions.append(hits / ranks)
        recalls.append(hits / total)
    if not precisions:
        return [], skipped
    precision = np.mean(precisions, axis=0)
    recall = np.mean(recalls, axis=0)
    curve = [(int(k), float(p), float(r))
             for k, p, r in zip(ranks, precision, recall)]
    return curve, skipped


def topn_grid(depth):
    """The 1, 5, 10, 50, ... cutoff ladder, capped by the database size."""
    if depth < 1:
        raise InputError(f"database depth must be positive, got {depth}")
    grid = []
    base = 1
    while base <= depth:
        grid.append(base)
        if 5 * base <= depth:
            grid.append(5 * base)
        base *= 10
    if grid[-1] != depth:
        grid.append(depth)
    return grid


def precision_at_topn(query_codes, query_labels, code_matrix, db_labels, grid=None):
    """Mean precision at each cutoff in the grid, over all queries."""
    rows = _ranked_relevance(query_codes, query_labels, code_matrix, db_labels)
    depth = len(rows[0])
    if grid is None:
        grid = topn_grid(depth)
    for cutoff in grid:
        if not 1 <= cutoff <= depth:
            raise InputError(f"cutoff {cutoff} outside [1, {depth}]")
    stacked = np.asarray(rows)
    hits = np.cumsum(stacked, axis=1)
    return [(int(n), float(np.mean(hits[:, n - 1] / n))) for n in grid]


def perceptibility(image, perturbed):
    """Root mean squared pixel difference: sqrt(sum of squares / pixel count)."""
    image = np.asarray(image, dtype=np.float64)
    perturbed = np.asarray(perturbed, dtype=np.float64)
    if image.shape != perturbed.shape:
        raise DimensionError(
            f"image shapes disagree: {image.shape} vs {perturbed.shape}"
        )
    gap = perturbed - image
    return float(np.sqrt(np.sum(gap * gap) / image.size))


def mean_perceptibility(images, perturbed):
    images = np.asarray(images, dtype=np.float64)
    perturbed = np.asarray(perturbed, dtype=np.float64)
    if images.shape != perturbed.shape or images.ndim != 2:
        raise DimensionError(
            f"need matching (count, pixels) blocks, got {images.shape} and {perturbed.shape}"
        )
    return float(np.mean([perceptibility(x, p) for x, p in zip(images, perturbed)]))


def evaluate_queries(query_codes, relevance_labels, code_matrix, db_labels,
                     true_labels=None, originals=None, perturbed=None, times=None):
    """Full report for one query set; optional blocks fill the extra fields."""
    rows = _ranked_relevance(query_codes, relevance_labels, code_matrix, db_labels)
    aps = [average_precision(r) for r in rows]
    skipped = sum(1 for r in rows if r.sum() == 0.0)
    curve, _ = pr_curve(query_codes, relevance_labels, code_matrix, db_labels)
    topn = precision_at_topn(query_codes, relevance_labels, code_matrix, db_labels)
    report = EvalReport(
        t_map=float(np.mean(aps)),
        pr_curve=curve,
        precision_at_n=topn,
        queries_without_relevant=skipped,
    )
    if true_labels is not None:
        report.map = t_map(query_codes, true_labels, code_matrix, db_labels)
    if originals is not None and perturbed is not None:
        report.perceptibility = mean_perceptibility(originals, perturbed)
    if times is not None:
        report.mean_generation_time = float(np.mean(times))
    return report
