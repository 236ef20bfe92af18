"""Hamming-ranked retrieval metrics.

Each query set is ranked once, by ascending Hamming distance with ties
broken by database index; AP, PR and P@N all read that one ranking.
Average precision runs over the full ranking with the shared-class
relevance rule, so the same machinery scores both true-label retrieval
quality and targeted-attack success (relevance judged against the
attack's target label).
"""

from dataclasses import dataclass, field

import numpy as np

from .data import build_similarity_matrix
from .errors import DimensionError, InputError
from .hashing import hamming_distances


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


def rank_database(query_codes, code_matrix):
    """(queries, N) database order: ascending Hamming distance, ties by index."""
    query_codes = np.asarray(query_codes, dtype=np.float64)
    if query_codes.ndim != 2 or query_codes.shape[0] == 0:
        raise InputError("need a non-empty (queries, K) code array")
    return np.argsort(hamming_distances(query_codes, code_matrix), axis=1, kind="stable")


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


def _ranked_relevance(order, query_labels, db_labels):
    """(queries, N) 0/1 relevance of each query's labels, in ranked order."""
    relevance = build_similarity_matrix(query_labels, db_labels)
    if relevance.shape != order.shape:
        raise DimensionError(f"(query labels, database labels) {relevance.shape} do not "
                             f"match (codes, database codes) {order.shape}")
    return np.take_along_axis(relevance, order, axis=1)


def _mean_ap(ranked):
    return float(np.mean([average_precision(row) for row in ranked]))


def _check_ranked(ranked):
    ranked = np.asarray(ranked, dtype=np.float64)
    if ranked.ndim != 2 or ranked.size == 0:
        raise DimensionError(f"need a non-empty (queries, N) relevance matrix, got {ranked.shape}")
    return ranked


def t_map(adv_codes, target_labels, code_matrix, db_labels):
    """Mean AP with relevance judged against each query's TARGET label."""
    order = rank_database(adv_codes, code_matrix)
    return _mean_ap(_ranked_relevance(order, target_labels, db_labels))


def pr_curve(ranked):
    """Precision and recall at every rank cutoff, averaged over queries.

    ``ranked`` is a (queries, N) 0/1 relevance matrix in ranked order.
    Queries with no relevant database item are excluded from the
    averages (their recall is undefined); the skip count is returned so
    reports can flag it.
    """
    ranked = _check_ranked(ranked)
    totals = ranked.sum(axis=1)
    kept = totals > 0.0
    skipped = int(np.count_nonzero(~kept))
    if not kept.any():
        return [], skipped
    hits = np.cumsum(ranked[kept], axis=1)
    ranks = np.arange(1, ranked.shape[1] + 1)
    precision = np.mean(hits / ranks, axis=0)
    recall = np.mean(hits / totals[kept, None], axis=0)
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


def precision_at_topn(ranked):
    """Mean precision at each ``topn_grid`` cutoff, over all queries."""
    ranked = _check_ranked(ranked)
    hits = np.cumsum(ranked, axis=1)
    return [(int(n), float(np.mean(hits[:, n - 1] / n)))
            for n in topn_grid(ranked.shape[1])]


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
    order = rank_database(query_codes, code_matrix)
    ranked = _ranked_relevance(order, relevance_labels, db_labels)
    curve, skipped = pr_curve(ranked)
    report = EvalReport(
        t_map=_mean_ap(ranked),
        pr_curve=curve,
        precision_at_n=precision_at_topn(ranked),
        queries_without_relevant=skipped,
    )
    if true_labels is not None:
        report.map = _mean_ap(_ranked_relevance(order, true_labels, db_labels))
    if originals is not None and perturbed is not None:
        report.perceptibility = mean_perceptibility(originals, perturbed)
    if times is not None:
        report.mean_generation_time = float(np.mean(times))
    return report
