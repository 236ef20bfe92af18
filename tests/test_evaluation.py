"""Ranking, average-precision, curve, and perceptibility metric tests."""

import numpy as np
import pytest

from hashattack import evaluation
from hashattack.data import build_similarity_matrix
from hashattack.errors import DimensionError, InputError
from hashattack.evaluation import (
    average_precision,
    evaluate_queries,
    mean_perceptibility,
    perceptibility,
    pr_curve,
    precision_at_topn,
    rank_database,
    t_map,
    topn_grid,
)
from hashattack.hashing import hamming_distances


def test_average_precision_worked_examples():
    assert average_precision([1, 0, 1, 0]) == pytest.approx(5.0 / 6.0)
    assert average_precision([1, 1, 0, 0]) == pytest.approx(1.0)
    assert average_precision([0, 0, 0, 0]) == 0.0
    assert average_precision([0, 1]) == pytest.approx(0.5)


def test_average_precision_guards():
    with pytest.raises(DimensionError):
        average_precision(np.zeros(0))
    with pytest.raises(DimensionError):
        average_precision(np.zeros((2, 2)))


def test_average_precision_matches_loop_oracle(rng):
    for _ in range(50):
        relevance = (rng.random(int(rng.integers(1, 30))) < 0.4).astype(float)
        hits = 0
        total = 0.0
        for position, flag in enumerate(relevance, start=1):
            if flag:
                hits += 1
                total += hits / position
        expected = total / hits if hits else 0.0
        assert average_precision(relevance) == pytest.approx(expected)


def test_rank_database_breaks_ties_by_index():
    query = np.array([[1.0, 1.0]])
    matrix = np.array([
        [1.0, 1.0, -1.0, -1.0],
        [-1.0, 1.0, 1.0, 1.0],
    ])
    order = rank_database(query, matrix)
    # distances are [1, 0, 1, 1]; equal distances keep database order
    assert np.array_equal(order, np.array([[1, 0, 2, 3]]))
    distances = hamming_distances(query, matrix)
    assert np.array_equal(np.take_along_axis(distances, order, axis=1),
                          np.array([[0.0, 1.0, 1.0, 1.0]]))


def _single_query_setup():
    """One query whose ranking is db order 0,1,2,3 with relevance 1,0,1,0."""
    query_codes = np.ones((1, 4))
    code_matrix = np.array([
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0, -1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, -1.0, -1.0],
    ]).T  # columns at Hamming distance 0, 1, 2, 3
    query_labels = np.array([[1.0, 0.0]])
    db_labels = np.array([
        [1.0, 0.0],
        [0.0, 1.0],
        [1.0, 0.0],
        [0.0, 1.0],
    ])
    return query_codes, query_labels, code_matrix, db_labels


def _ranked(codes, labels, matrix, db_labels):
    """The (queries, N) relevance matrix in ranked order, one query at a time."""
    relevance = build_similarity_matrix(labels, db_labels)
    return np.array([rel[np.argsort(hamming_distances(code, matrix), kind="stable")]
                     for code, rel in zip(codes, relevance)])


def test_t_map_single_query_equals_average_precision():
    codes, labels, matrix, db_labels = _single_query_setup()
    assert t_map(codes, labels, matrix, db_labels) == pytest.approx(5.0 / 6.0)


def test_t_map_is_one_when_relevant_items_rank_first():
    codes, labels, matrix, db_labels = _single_query_setup()
    db_labels = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    assert t_map(codes, labels, matrix, db_labels) == pytest.approx(1.0)


def test_t_map_zero_without_relevant_items():
    codes, labels, matrix, db_labels = _single_query_setup()
    db_labels = np.tile([0.0, 1.0], (4, 1))
    assert t_map(codes, labels, matrix, db_labels) == 0.0


def test_pr_curve_worked_example():
    curve, skipped = pr_curve(_ranked(*_single_query_setup()))
    assert skipped == 0
    expected = [
        (1, 1.0, 0.5),
        (2, 0.5, 0.5),
        (3, 2.0 / 3.0, 1.0),
        (4, 0.5, 1.0),
    ]
    for got, want in zip(curve, expected):
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1])
        assert got[2] == pytest.approx(want[2])


def test_pr_curve_skips_queries_without_relevant_items():
    codes, labels, matrix, db_labels = _single_query_setup()
    codes = np.vstack([codes, codes])
    labels = np.array([[1.0, 0.0], [0.0, 0.0]])
    labels[1] = [0.0, 1.0]
    db_labels = np.array([[1.0, 0.0]] * 4)  # second query matches nothing
    curve, skipped = pr_curve(_ranked(codes, labels, matrix, db_labels))
    assert skipped == 1
    assert curve[0][1] == pytest.approx(1.0)  # average over the one kept query


def test_pr_curve_all_queries_hopeless():
    codes, labels, matrix, db_labels = _single_query_setup()
    db_labels = np.tile([0.0, 1.0], (4, 1))
    curve, skipped = pr_curve(_ranked(codes, labels, matrix, db_labels))
    assert curve == [] and skipped == 1


def test_topn_grid_ladder():
    assert topn_grid(1000) == [1, 5, 10, 50, 100, 500, 1000]
    assert topn_grid(40) == [1, 5, 10, 40]
    assert topn_grid(10) == [1, 5, 10]
    assert topn_grid(7) == [1, 5, 7]
    assert topn_grid(1) == [1]
    with pytest.raises(InputError):
        topn_grid(0)


def test_precision_at_topn_worked_example():
    # topn_grid(4) is [1, 4]; the PR-curve worked example's precision
    # column pins cutoffs 2 and 3
    values = precision_at_topn(_ranked(*_single_query_setup()))
    expected = [1.0, 0.5]
    for (cutoff, value), want in zip(values, expected):
        assert value == pytest.approx(want)


def test_precision_at_topn_default_grid():
    values = precision_at_topn(_ranked(*_single_query_setup()))
    assert [cutoff for cutoff, _ in values] == [1, 4]


def test_perceptibility_examples(rng):
    image = rng.random(64)
    assert perceptibility(image, image) == 0.0
    assert perceptibility(image, image + 0.1) == pytest.approx(0.1)
    with pytest.raises(DimensionError):
        perceptibility(image, image[:10])


def test_mean_perceptibility_averages_per_image(rng):
    images = rng.random((3, 16))
    shifts = np.array([0.0, 0.1, 0.2]).reshape(3, 1)
    got = mean_perceptibility(images, images + shifts)
    assert got == pytest.approx(0.1)
    with pytest.raises(DimensionError):
        mean_perceptibility(images, images[:2])


def test_metric_input_guards():
    codes, labels, matrix, db_labels = _single_query_setup()
    with pytest.raises(InputError):
        t_map(np.zeros((0, 4)), labels, matrix, db_labels)
    with pytest.raises(DimensionError):
        t_map(codes, np.vstack([labels, labels]), matrix, db_labels)


def test_evaluate_queries_full_report(rng):
    codes, labels, matrix, db_labels = _single_query_setup()
    originals = rng.random((1, 16))
    perturbed = np.clip(originals + 0.05, 0.0, 1.0)
    report = evaluate_queries(
        codes, labels, matrix, db_labels,
        true_labels=np.array([[0.0, 1.0]]),
        originals=originals, perturbed=perturbed,
    )
    assert report.t_map == pytest.approx(5.0 / 6.0)
    assert report.map == pytest.approx(average_precision([0, 1, 0, 1]))
    assert len(report.pr_curve) == 4
    assert report.precision_at_n[0][0] == 1
    assert report.perceptibility is not None
    assert report.queries_without_relevant == 0


def _random_setup(rng, queries=12, bits=4, items=40, classes=3):
    """Short codes, so many database items tie; one query class is absent."""
    codes = np.where(rng.random((queries, bits)) < 0.5, -1.0, 1.0)
    matrix = np.where(rng.random((bits, items)) < 0.5, -1.0, 1.0)
    db_labels = np.eye(classes)[rng.integers(0, classes - 1, items)]
    labels = np.eye(classes)[rng.integers(0, classes, queries)]
    labels[0] = np.eye(classes)[classes - 1]  # matches no database item
    return codes, labels, matrix, db_labels


def _oracle_report(codes, labels, matrix, db_labels, true_labels):
    """Straight-line per-query ranking, relevance, AP, PR and P@N."""
    ranked = _ranked(codes, labels, matrix, db_labels)
    depth = matrix.shape[1]
    ranks = np.arange(1, depth + 1)
    kept = [rel for rel in ranked if rel.sum() > 0.0]
    precision = np.mean([np.cumsum(rel) / ranks for rel in kept], axis=0)
    recall = np.mean([np.cumsum(rel) / rel.sum() for rel in kept], axis=0)
    hits = np.cumsum(ranked, axis=1)
    return {
        "t_map": float(np.mean([average_precision(rel) for rel in ranked])),
        "map": float(np.mean([average_precision(rel) for rel in
                              _ranked(codes, true_labels, matrix, db_labels)])),
        "pr_curve": [(int(k), float(p), float(r))
                     for k, p, r in zip(ranks, precision, recall)],
        "precision_at_n": [(n, float(np.mean(hits[:, n - 1] / n)))
                           for n in topn_grid(depth)],
        "queries_without_relevant": len(ranked) - len(kept),
    }


def test_evaluate_queries_equals_per_query_oracle(rng):
    for _ in range(20):
        codes, labels, matrix, db_labels = _random_setup(rng)
        true_labels = np.eye(3)[rng.integers(0, 3, len(codes))]
        report = evaluate_queries(codes, labels, matrix, db_labels,
                                  true_labels=true_labels)
        want = _oracle_report(codes, labels, matrix, db_labels, true_labels)
        assert want["queries_without_relevant"] >= 1
        for name, value in want.items():
            assert getattr(report, name) == value, name
        assert t_map(codes, labels, matrix, db_labels) == want["t_map"]


@pytest.mark.parametrize("with_true_labels", [False, True])
def test_evaluate_queries_ranks_once(rng, monkeypatch, with_true_labels):
    codes, labels, matrix, db_labels = _random_setup(rng)
    calls = []

    def spy(query_codes, code_matrix):
        calls.append(np.shape(query_codes))
        return rank_database(query_codes, code_matrix)

    monkeypatch.setattr(evaluation, "rank_database", spy)
    evaluate_queries(codes, labels, matrix, db_labels,
                     true_labels=labels if with_true_labels else None)
    assert calls == [codes.shape]


@pytest.mark.parametrize("items", [3, 5])
def test_code_matrix_and_database_labels_must_agree(items):
    codes, labels, matrix, db_labels = _single_query_setup()
    matrix = np.tile(matrix, (1, 2))[:, :items]  # 4 database labels
    with pytest.raises(DimensionError):
        t_map(codes, labels, matrix, db_labels)
    with pytest.raises(DimensionError):
        evaluate_queries(codes, labels, matrix, db_labels)
