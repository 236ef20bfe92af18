"""Hamming-ranked retrieval metrics.

Each query block is ranked once, by a stable radix sort of its integer
Hamming distances (ties broken by database index), and every label set
is read from that one ranking: each ranked relevance matrix goes through
one cumulative pass that gives AP, the PR curve and P@N.  AP runs over
the full ranking with the shared-class relevance rule, so the same code
scores both targeted-attack success (t-MAP, relevance judged against the
attack's target label) and true-label retrieval quality (MAP).
"""

from dataclasses import dataclass

import numpy as np

from .data import build_similarity_matrix
from .errors import DimensionError, InputError
from .hashing import hamming_distances


@dataclass
class EvalReport:
    """Scalars plus plot-ready curves for one query block and one label set."""

    mean_ap: float
    pr_curve: list
    precision_at_n: list
    queries_without_relevant: int


def rank_database(query_codes, code_matrix):
    """(queries, N) database order: ascending Hamming distance, ties by index."""
    distances = hamming_distances(query_codes, code_matrix)
    if distances.shape[0] == 0:
        raise InputError("need a non-empty (queries, K) code array")
    return np.argsort(distances, axis=1, kind="stable")


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
    """(queries, N) boolean relevance of each query's labels, in ranked order.

    Booleans take an eighth of the memory of 0/1 floats, and every metric
    reads them as exact counts.
    """
    relevance = build_similarity_matrix(query_labels, db_labels)
    if relevance.shape != order.shape:
        raise DimensionError(f"(query labels, database labels) {relevance.shape} do not "
                             f"match (codes, database codes) {order.shape}")
    return np.take_along_axis(relevance > 0.0, order, axis=1)


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


def mean_perceptibility(images, perturbed):
    """Mean over rows of the RMS pixel difference, sqrt(sum of squares / pixels)."""
    images = np.asarray(images, dtype=np.float64)
    perturbed = np.asarray(perturbed, dtype=np.float64)
    if images.shape != perturbed.shape or images.ndim != 2:
        raise DimensionError(
            f"need matching (count, pixels) blocks, got {images.shape} and {perturbed.shape}"
        )
    gap = perturbed - images
    return float(np.mean(np.sqrt(np.sum(gap * gap, axis=1) / images.shape[1])))


def _score(ranked):
    """The report read from one cumulative sum of a ranked relevance matrix.

    ``ranked`` is a (queries, N) boolean relevance matrix in ranked
    order, and ``hits`` its row-wise cumulative count.  A query with no
    relevant item has AP 0 and is left out of the PR curve (its recall
    is undefined): its hits are all zero, so dividing them by 1 keeps
    its rows zero and the column sums skip it.  One (queries, N) work
    buffer holds recall, then precision, then precision times relevance.
    """
    depth = ranked.shape[1]
    totals = ranked.sum(axis=1)
    kept = int(np.count_nonzero(totals))
    divisors = np.maximum(totals, 1.0)
    ranks = np.arange(1, depth + 1)
    hits = np.cumsum(ranked, axis=1)
    precision_at_n = [(n, float(np.mean(hits[:, n - 1] / n))) for n in topn_grid(depth)]
    work = hits / divisors[:, None]
    recall = work.sum(axis=0)
    np.divide(hits, ranks, out=work)
    precision = work.sum(axis=0)
    work *= ranked
    curve = []
    if kept:
        curve = [(int(k), float(p), float(r))
                 for k, p, r in zip(ranks, precision / kept, recall / kept)]
    return EvalReport(
        mean_ap=float(np.mean(work.sum(axis=1) / divisors)),
        pr_curve=curve,
        precision_at_n=precision_at_n,
        queries_without_relevant=ranked.shape[0] - kept,
    )


def evaluate_queries(query_codes, code_matrix, db_labels, *label_sets):
    """One report per label set, all read from one ranking of the query block.

    This is the one place a query block is ranked.
    """
    if not label_sets:
        raise InputError("need at least one label set to judge relevance by")
    order = rank_database(query_codes, code_matrix)
    return [_score(_ranked_relevance(order, labels, db_labels)) for labels in label_sets]
