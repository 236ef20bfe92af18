"""Hamming-ranked retrieval metrics.

A trained hash gives similar images the same code, so a query block
repeats its rows.  Each block's distinct codes are ranked once, by a
stable radix sort of their integer Hamming distances (ties broken by
database index), and each label set scores each distinct (code, label
row) pair once from that ranking, with reports equal to the bit to
scoring every row.  AP runs over the full ranking with the shared-class
relevance rule, so the same code scores both targeted-attack success
(t-MAP, relevance judged against the attack's target label) and
true-label retrieval quality (MAP).
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


def _ranked_relevance(order, code_of_row, query_labels, db_labels):
    """Ranked relevance of each distinct (code, label row) pair, and each query's pair.

    ``order`` ranks the block's distinct codes and ``code_of_row`` gives
    each query's code.  The first result is a (pairs, N) boolean matrix:
    booleans take an eighth of the memory of 0/1 floats, and every metric
    reads them as exact counts.
    """
    query_labels = np.asarray(query_labels, dtype=np.float64)
    if query_labels.shape[:1] != code_of_row.shape:
        raise DimensionError(f"query labels {query_labels.shape} do not have one row "
                             f"for each of {code_of_row.size} codes")
    labels, label_of_row = np.unique(query_labels, axis=0, return_inverse=True)
    relevance = build_similarity_matrix(labels, db_labels) > 0.0
    if relevance.shape[1] != order.shape[1]:
        raise DimensionError(f"{relevance.shape[1]} database labels do not match "
                             f"{order.shape[1]} database codes")
    pairs, pair_of_row = np.unique(code_of_row * len(labels) + label_of_row.reshape(-1),
                                   return_inverse=True)
    code_of_pair, label_of_pair = np.divmod(pairs, len(labels))
    return np.take_along_axis(relevance[label_of_pair], order[code_of_pair], axis=1), pair_of_row


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


def _score(ranked, pair_of_row):
    """The report read from one cumulative sum of each distinct pair's ranked relevance.

    ``ranked`` is a (pairs, N) boolean relevance matrix in ranked order,
    ``hits`` its row-wise cumulative count, and ``pair_of_row`` gives each
    query's row of them; a block of distinct rows is one pair per query.
    Every per-query vector is expanded to query order before its mean, and
    the recall and precision column sums add one row per query in query
    order, as numpy's ``sum(axis=0)`` of the (queries, N) matrix would, so
    the report equals scoring every query's own row to the bit.  A query
    with no relevant item has AP 0 and is left out of the PR curve (its
    recall is undefined): its hits are all zero, so dividing them by 1
    keeps its rows zero and the column sums skip it.  Each pair's recall
    and precision rows sit side by side, so one addition per query moves
    both; the precision rows then become precision times relevance.
    """
    depth = ranked.shape[1]
    totals = ranked.sum(axis=1)
    kept = int(np.count_nonzero(totals[pair_of_row]))
    divisors = np.maximum(totals, 1.0)
    ranks = np.arange(1, depth + 1)
    hits = np.cumsum(ranked, axis=1, dtype=np.float64)
    precision_at_n = [(n, float(np.mean(hits[pair_of_row, n - 1] / n)))
                      for n in topn_grid(depth)]
    curves = np.empty((len(ranked), 2, depth))
    np.divide(hits, divisors[:, None], out=curves[:, 0])
    np.divide(hits, ranks, out=curves[:, 1])
    sums = np.zeros((2, depth))
    for pair in pair_of_row.tolist():
        sums += curves[pair]
    recall, precision = sums
    weighted = curves[:, 1]
    weighted *= ranked
    curve = []
    if kept:
        curve = [(int(k), float(p), float(r))
                 for k, p, r in zip(ranks, precision / kept, recall / kept)]
    return EvalReport(
        mean_ap=float(np.mean((weighted.sum(axis=1) / divisors)[pair_of_row])),
        pr_curve=curve,
        precision_at_n=precision_at_n,
        queries_without_relevant=len(pair_of_row) - kept,
    )


def evaluate_queries(query_codes, code_matrix, db_labels, *label_sets):
    """One report per label set, all read from one ranking of the block's distinct codes.

    This is the one place a query block is ranked.
    """
    if not label_sets:
        raise InputError("need at least one label set to judge relevance by")
    query_codes = np.asarray(query_codes, dtype=np.float64)
    if query_codes.ndim != 2:
        raise DimensionError(f"need a (queries, K) code block, got {query_codes.shape}")
    codes, code_of_row = np.unique(query_codes, axis=0, return_inverse=True)
    order = rank_database(codes, code_matrix)
    code_of_row = code_of_row.reshape(-1)  # axis=0 inverses change shape across numpy 2.x
    return [_score(*_ranked_relevance(order, code_of_row, labels, db_labels))
            for labels in label_sets]
