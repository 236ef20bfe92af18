"""Ranking, average-precision, curve, and perceptibility metric tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import average_precision
from hashattack import evaluation
from hashattack.data import build_similarity_matrix
from hashattack.errors import DimensionError, InputError
from hashattack.evaluation import (
    evaluate_queries,
    mean_perceptibility,
    rank_database,
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


@settings(deadline=None, max_examples=60)
@given(code_length=st.sampled_from([1, 12, 64, 255, 256, 300]),
       queries=st.integers(1, 6), items=st.integers(1, 80),
       distinct=st.one_of(st.none(), st.integers(1, 3)), seed=st.integers(0, 2**32 - 1))
def test_rank_database_equals_a_float_sort_of_disagreement_counts(
        code_length, queries, items, distinct, seed):
    """Diverse codes, or a database of at most three distinct codes (tie-heavy)."""
    rng = np.random.default_rng(seed)
    codes = np.where(rng.random((queries, code_length)) < 0.5, -1.0, 1.0)
    matrix = np.where(rng.random((code_length, distinct or items)) < 0.5, -1.0, 1.0)
    if distinct is not None:
        matrix = matrix[:, rng.integers(0, distinct, items)]
        codes[0] = matrix[:, 0]
    counts = np.sum(codes[:, None, :] != matrix.T[None], axis=2).astype(np.float64)
    assert np.array_equal(rank_database(codes, matrix),
                          np.argsort(counts, axis=1, kind="stable"))


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


def _report(codes, labels, matrix, db_labels):
    """The one report of a single label set."""
    return evaluate_queries(codes, matrix, db_labels, labels)[0]


def _ranked(codes, labels, matrix, db_labels):
    """The (queries, N) relevance matrix in ranked order, one query at a time.

    Each query's distances are its disagreement counts with every column.
    """
    relevance = build_similarity_matrix(labels, db_labels)
    return np.array([rel[np.argsort(np.sum(code[:, None] != matrix, axis=0), kind="stable")]
                     for code, rel in zip(codes, relevance)])


def test_t_map_single_query_equals_average_precision():
    codes, labels, matrix, db_labels = _single_query_setup()
    assert _report(codes, labels, matrix, db_labels).mean_ap == pytest.approx(5.0 / 6.0)


def test_t_map_is_one_when_relevant_items_rank_first():
    codes, labels, matrix, db_labels = _single_query_setup()
    db_labels = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    assert _report(codes, labels, matrix, db_labels).mean_ap == pytest.approx(1.0)


def test_t_map_zero_without_relevant_items():
    codes, labels, matrix, db_labels = _single_query_setup()
    db_labels = np.tile([0.0, 1.0], (4, 1))
    assert _report(codes, labels, matrix, db_labels).mean_ap == 0.0


def test_pr_curve_worked_example():
    report = _report(*_single_query_setup())
    assert report.queries_without_relevant == 0
    expected = [
        (1, 1.0, 0.5),
        (2, 0.5, 0.5),
        (3, 2.0 / 3.0, 1.0),
        (4, 0.5, 1.0),
    ]
    assert len(report.pr_curve) == len(expected)
    for got, want in zip(report.pr_curve, expected):
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1])
        assert got[2] == pytest.approx(want[2])


def test_pr_curve_skips_queries_without_relevant_items():
    codes, labels, matrix, db_labels = _single_query_setup()
    codes = np.vstack([codes, codes])
    labels = np.array([[1.0, 0.0], [0.0, 0.0]])
    labels[1] = [0.0, 1.0]
    db_labels = np.array([[1.0, 0.0]] * 4)  # second query matches nothing
    report = _report(codes, labels, matrix, db_labels)
    assert report.queries_without_relevant == 1
    assert report.pr_curve[0][1] == pytest.approx(1.0)  # average over the one kept query


def test_pr_curve_all_queries_hopeless():
    codes, labels, matrix, db_labels = _single_query_setup()
    db_labels = np.tile([0.0, 1.0], (4, 1))
    report = _report(codes, labels, matrix, db_labels)
    assert report.pr_curve == [] and report.queries_without_relevant == 1
    assert report.mean_ap == 0.0


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
    values = _report(*_single_query_setup()).precision_at_n
    expected = [1.0, 0.5]
    assert len(values) == len(expected)
    for (cutoff, value), want in zip(values, expected):
        assert value == pytest.approx(want)


def test_precision_at_topn_default_grid():
    values = _report(*_single_query_setup()).precision_at_n
    assert [cutoff for cutoff, _ in values] == [1, 4]


def test_perceptibility_examples(rng):
    image = rng.random((1, 64))
    assert mean_perceptibility(image, image) == 0.0
    assert mean_perceptibility(image, image + 0.1) == pytest.approx(0.1)
    gap = np.zeros((1, 64))
    gap[0, :16] = 0.4  # sqrt(16 * 0.16 / 64)
    assert mean_perceptibility(image, image + gap) == pytest.approx(0.2)
    with pytest.raises(DimensionError):
        mean_perceptibility(image, image[:, :10])
    with pytest.raises(DimensionError):
        mean_perceptibility(image[0], image[0])


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
        _report(np.zeros((0, 4)), labels, matrix, db_labels)
    with pytest.raises(DimensionError):
        _report(codes, np.vstack([labels, labels]), matrix, db_labels)
    with pytest.raises(InputError):
        evaluate_queries(codes, matrix, db_labels)  # no label set to judge by
    for block in (codes[0, 0], codes[0]):
        with pytest.raises(DimensionError):
            _report(block, labels, matrix, db_labels)


@pytest.mark.parametrize("side", ["query", "database"])
def test_evaluate_queries_refuses_codes_that_are_not_signs(side):
    codes, labels, matrix, db_labels = _single_query_setup()
    (codes if side == "query" else matrix)[0, 1] = 0.5
    with pytest.raises(InputError):
        _report(codes, labels, matrix, db_labels)


def test_evaluate_queries_full_report():
    codes, labels, matrix, db_labels = _single_query_setup()
    report, other = evaluate_queries(codes, matrix, db_labels, labels,
                                     np.array([[0.0, 1.0]]))
    assert report.mean_ap == pytest.approx(5.0 / 6.0)
    assert other.mean_ap == pytest.approx(average_precision([0, 1, 0, 1]))
    assert len(report.pr_curve) == 4
    assert report.precision_at_n[0][0] == 1
    assert report.queries_without_relevant == 0


def _random_setup(rng, queries=12, bits=4, items=40, classes=3):
    """Short codes, so many database items tie; one query class is absent."""
    codes = np.where(rng.random((queries, bits)) < 0.5, -1.0, 1.0)
    matrix = np.where(rng.random((bits, items)) < 0.5, -1.0, 1.0)
    db_labels = np.eye(classes)[rng.integers(0, classes - 1, items)]
    labels = np.eye(classes)[rng.integers(0, classes, queries)]
    labels[0] = np.eye(classes)[classes - 1]  # matches no database item
    return codes, labels, matrix, db_labels


def _oracle_report(codes, labels, matrix, db_labels):
    """Straight-line per-query ranking, relevance, AP, PR and P@N."""
    ranked = _ranked(codes, labels, matrix, db_labels)
    depth = matrix.shape[1]
    ranks = np.arange(1, depth + 1)
    kept = [rel for rel in ranked if rel.sum() > 0.0]
    curve = []
    if kept:  # no PR curve when no query has anything relevant
        precision = np.mean([np.cumsum(rel) / ranks for rel in kept], axis=0)
        recall = np.mean([np.cumsum(rel) / rel.sum() for rel in kept], axis=0)
        curve = [(int(k), float(p), float(r)) for k, p, r in zip(ranks, precision, recall)]
    hits = np.cumsum(ranked, axis=1)
    return {
        "mean_ap": float(np.mean([average_precision(rel) for rel in ranked])),
        "pr_curve": curve,
        "precision_at_n": [(n, float(np.mean(hits[:, n - 1] / n)))
                           for n in topn_grid(depth)],
        "queries_without_relevant": len(ranked) - len(kept),
    }


def test_evaluate_queries_equals_per_query_oracle(rng):
    # rows longer than numpy's 128-element pairwise-summation block too
    for items in [40] * 10 + [300] * 10:
        codes, labels, matrix, db_labels = _random_setup(rng, items=items)
        other_labels = np.eye(3)[rng.integers(0, 3, len(codes))]
        reports = evaluate_queries(codes, matrix, db_labels, labels, other_labels)
        for report, label_set in zip(reports, (labels, other_labels)):
            want = _oracle_report(codes, label_set, matrix, db_labels)
            for name, value in want.items():
                assert getattr(report, name) == value, name
        assert reports[0].queries_without_relevant >= 1


def _spy_on_rankings(monkeypatch):
    """The query blocks ``evaluate_queries`` asks ``rank_database`` to rank."""
    calls = []

    def spy(query_codes, code_matrix):
        calls.append(np.array(query_codes))
        return rank_database(query_codes, code_matrix)

    monkeypatch.setattr(evaluation, "rank_database", spy)
    return calls


@pytest.mark.parametrize("set_count", [1, 2, 3])
def test_evaluate_queries_ranks_once(rng, monkeypatch, set_count):
    # one ranking of the block's distinct rows serves every label set
    codes, labels, matrix, db_labels = _random_setup(rng)
    label_sets = [labels] + [np.eye(3)[rng.integers(0, 3, len(codes))]
                             for _ in range(set_count - 1)]
    alone = [_report(codes, label_set, matrix, db_labels) for label_set in label_sets]
    calls = _spy_on_rankings(monkeypatch)
    reports = evaluate_queries(codes, matrix, db_labels, *label_sets)
    distinct = np.unique(codes, axis=0)
    assert len(calls) == 1 and calls[0].shape == distinct.shape
    assert np.array_equal(np.unique(calls[0], axis=0), distinct)
    assert reports == alone


def test_a_block_of_three_codes_is_ranked_as_three_rows(rng, monkeypatch):
    codes, labels, matrix, db_labels = _random_setup(rng)
    codes = codes[:3][np.arange(12) % 3]
    assert len(np.unique(codes, axis=0)) == 3
    calls = _spy_on_rankings(monkeypatch)
    evaluate_queries(codes, matrix, db_labels, labels)
    assert [call.shape for call in calls] == [(3, codes.shape[1])]


_ALL_CODES = 2.0 * ((np.arange(64)[:, None] >> np.arange(6)) & 1) - 1.0  # every 6-bit code


def _repeated_setup(rng, block, items, queries=12, classes=3):
    """A query block whose rows repeat their codes as a trained hash's do.

    Class ``classes - 1`` labels no database item, so a row judged by it
    has nothing relevant.
    """
    matrix = np.where(rng.random((6, items)) < 0.5, -1.0, 1.0)
    db_labels = np.eye(classes)[rng.integers(0, classes - 1, items)]
    labels = np.eye(classes)[rng.integers(0, classes - 1, queries)]
    if block == "distinct":
        rows = rng.choice(len(_ALL_CODES), queries, replace=False)
    elif block == "single":
        rows, labels = rng.integers(0, len(_ALL_CODES), 1), labels[:1]
    else:
        count = {"one": 1, "two": 2, "three": 3, "shared": 1, "hopeless": 2}[block]
        rows = rng.choice(len(_ALL_CODES), count, replace=False)[
            np.arange(queries) % count]
    if block == "shared":
        labels = np.eye(classes)[np.arange(queries) % classes]
    if block == "hopeless":
        labels[0] = np.eye(classes)[classes - 1]  # row 2 has the same code
    return _ALL_CODES[rows], labels, matrix, db_labels


@pytest.mark.parametrize("items", [40, 300])
@pytest.mark.parametrize("block", ["one", "two", "three", "shared", "distinct",
                                   "single", "hopeless"])
def test_repeated_codes_score_as_every_row_would(rng, block, items):
    codes, labels, matrix, db_labels = _repeated_setup(rng, block, items)
    other_labels = np.eye(3)[rng.integers(0, 3, len(codes))]
    reports = evaluate_queries(codes, matrix, db_labels, labels, other_labels)
    for report, label_set in zip(reports, (labels, other_labels)):
        want = _oracle_report(codes, label_set, matrix, db_labels)
        for name, value in want.items():
            assert getattr(report, name) == value, name
    if block in ("shared", "hopeless"):
        assert reports[0].queries_without_relevant >= 1


def test_repeated_codes_keep_the_input_guards(rng):
    codes, labels, matrix, db_labels = _repeated_setup(rng, "two", 40)
    with pytest.raises(DimensionError):
        evaluate_queries(codes, matrix, db_labels, labels, labels[:-1])
    codes[1, 0] = 0.5  # a row equal to row 3 but for this entry
    with pytest.raises(InputError):
        _report(codes, labels, matrix, db_labels)


@pytest.mark.parametrize("items", [3, 5])
def test_code_matrix_and_database_labels_must_agree(items):
    codes, labels, matrix, db_labels = _single_query_setup()
    matrix = np.tile(matrix, (1, 2))[:, :items]  # 4 database labels
    with pytest.raises(DimensionError):
        _report(codes, labels, matrix, db_labels)
