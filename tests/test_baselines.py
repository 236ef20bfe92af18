"""Target-code selection and bounded signed-gradient attack tests."""

import itertools
import time

import numpy as np
import pytest

from hashattack import baselines
from hashattack import tensor as T
from hashattack.baselines import (
    AttackBudget,
    anchor_attack,
    anchor_code,
    anchor_code_for_label,
    iterative_gradient_attack,
    noise_queries,
    p2p_attack,
    p2p_target_code,
)
from hashattack.data import DataConfig, gen_synthetic_dataset
from hashattack.errors import DimensionError, InputError, TargetUnsatisfiableError
from hashattack.gan import loss_hamming
from hashattack.hashing import (
    HashModel,
    HashTrainConfig,
    binarize,
    hamming_distance,
    train_target_model,
)


def test_budget_validation():
    AttackBudget().validate()
    with pytest.raises(InputError):
        AttackBudget(iterations=0).validate()
    with pytest.raises(InputError):
        AttackBudget(step_size=0.0).validate()
    with pytest.raises(InputError):
        AttackBudget(epsilon=-0.1).validate()
    with pytest.raises(InputError):
        AttackBudget(epsilon=0.01, step_size=0.02).validate()
    # zero epsilon is the degenerate identity budget, any step is fine
    AttackBudget(epsilon=0.0, step_size=0.5, iterations=3).validate()


def test_anchor_code_majority_vote():
    rows = np.array([[1.0, 1.0, -1.0], [1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
    assert np.array_equal(anchor_code(rows), np.array([1.0, 1.0, -1.0]))


def test_anchor_code_singleton_is_identity():
    row = np.array([[-1.0, 1.0, -1.0, 1.0]])
    assert np.array_equal(anchor_code(row), row[0])


def test_anchor_code_ties_go_positive():
    rows = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(anchor_code(rows), np.array([1.0, 1.0]))


def test_anchor_code_rejects_empty():
    with pytest.raises(InputError):
        anchor_code(np.zeros((0, 4)))


def _total_distance(code, rows):
    return sum(hamming_distance(code, row) for row in rows)


def test_anchor_code_minimizes_total_hamming_distance(rng):
    for _ in range(30):
        bits = int(rng.integers(2, 9))
        count = int(rng.integers(1, 21))
        rows = np.where(rng.random((count, bits)) < 0.5, 1.0, -1.0)
        candidate = anchor_code(rows)
        best = min(
            _total_distance(np.array(option), rows)
            for option in itertools.product((1.0, -1.0), repeat=bits)
        )
        assert _total_distance(candidate, rows) == best


def _tiny_retrieval_setup():
    db_labels = np.array([
        [1.0, 0.0],
        [1.0, 0.0],
        [1.0, 0.0],
        [0.0, 1.0],
        [0.0, 1.0],
    ])
    code_matrix = np.where(
        np.random.default_rng(5).random((4, 5)) < 0.5, 1.0, -1.0
    )
    return db_labels, code_matrix


def test_p2p_code_comes_from_a_matching_column(rng):
    db_labels, code_matrix = _tiny_retrieval_setup()
    target = np.array([1.0, 0.0])
    for _ in range(20):
        code = p2p_target_code(target, db_labels, code_matrix, rng)
        matches = [np.array_equal(code, code_matrix[:, j]) for j in range(3)]
        assert any(matches)


def test_p2p_singleton_match_is_deterministic(rng):
    db_labels, code_matrix = _tiny_retrieval_setup()
    target = np.array([0.0, 1.0])
    db_labels[4] = [1.0, 0.0]  # leave index 3 as the only match
    code = p2p_target_code(target, db_labels, code_matrix, rng)
    assert np.array_equal(code, code_matrix[:, 3])


def test_p2p_draw_is_uniform_over_matches():
    db_labels, code_matrix = _tiny_retrieval_setup()
    # give the three matching columns distinct codes to count draws by
    code_matrix[:, 0] = [1.0, 1.0, 1.0, 1.0]
    code_matrix[:, 1] = [-1.0, 1.0, 1.0, 1.0]
    code_matrix[:, 2] = [-1.0, -1.0, 1.0, 1.0]
    rng = np.random.default_rng(99)
    target = np.array([1.0, 0.0])
    draws = 10_000
    counts = np.zeros(3)
    for _ in range(draws):
        code = p2p_target_code(target, db_labels, code_matrix, rng)
        counts[int(np.sum(code < 0.0))] += 1.0
    expected = draws / 3.0
    sigma = np.sqrt(draws * (1.0 / 3.0) * (2.0 / 3.0))
    assert np.all(np.abs(counts - expected) <= 3.0 * sigma)


def test_p2p_without_matching_item_raises(rng):
    db_labels, code_matrix = _tiny_retrieval_setup()
    with pytest.raises(TargetUnsatisfiableError):
        p2p_target_code(np.array([0.0, 0.0]), db_labels, code_matrix, rng)


def test_anchor_for_label_covers_all_matches_when_set_is_larger(rng):
    db_labels, code_matrix = _tiny_retrieval_setup()
    target = np.array([0.0, 1.0])
    # set size exceeds the two matching items, so the vote is over both
    got = anchor_code_for_label(target, db_labels, code_matrix, rng, set_size=9)
    want = anchor_code(code_matrix[:, [3, 4]].T)
    assert np.array_equal(got, want)


def test_anchor_for_label_guards(rng):
    db_labels, code_matrix = _tiny_retrieval_setup()
    with pytest.raises(TargetUnsatisfiableError):
        anchor_code_for_label(np.array([0.0, 0.0]), db_labels, code_matrix, rng)
    with pytest.raises(InputError):
        anchor_code_for_label(np.array([1.0, 0.0]), db_labels, code_matrix, rng,
                              set_size=0)


def _small_model(seed=0, pixels=10, bits=6):
    return HashModel.create(np.random.default_rng(seed), pixels, bits,
                            hidden_widths=(8,))


def _codes(rng, count, bits=6):
    return np.where(rng.random((count, bits)) < 0.5, 1.0, -1.0)


def test_zero_epsilon_attack_returns_the_input(rng):
    model = _small_model()
    image = rng.random((1, 10))
    target = _codes(rng, 1)
    budget = AttackBudget(epsilon=0.0, step_size=0.1, iterations=5)
    [result] = iterative_gradient_attack(model, image, target, budget)
    assert np.array_equal(result.perturbed, image[0])
    assert result.generation_time > 0.0


def test_attack_respects_ball_and_pixel_box(rng):
    model = _small_model(seed=3)
    for epsilon in (0.01, 0.1, 0.5):
        budget = AttackBudget(epsilon=epsilon, step_size=epsilon / 4.0,
                              iterations=12)
        for _ in range(5):
            image = rng.random((1, 10))
            target = _codes(rng, 1)
            [result] = iterative_gradient_attack(model, image, target, budget)
            assert np.max(np.abs(result.perturbed - image[0])) <= epsilon + 1e-12
            assert np.all(result.perturbed >= 0.0)
            assert np.all(result.perturbed <= 1.0)


def test_single_iteration_takes_one_signed_step(rng):
    model = _small_model(seed=4)
    image = rng.random((1, 10))
    target = _codes(rng, 1)
    epsilon = 0.07
    budget = AttackBudget(epsilon=epsilon, step_size=epsilon, iterations=1)
    [result] = iterative_gradient_attack(model, image, target, budget)
    tape = T.Tape()
    current = tape.watch(T.Tensor(image))
    objective = loss_hamming(target, model.forward(current))
    gradient = T.backward(tape, objective).wrt(current)[0]
    expected = np.clip(
        image[0] - epsilon * np.sign(gradient),
        np.clip(image[0] - epsilon, 0.0, 1.0),
        np.clip(image[0] + epsilon, 0.0, 1.0),
    )
    assert np.array_equal(result.perturbed, expected)


def test_attack_shape_guards(rng):
    model = _small_model()
    budget = AttackBudget()
    # one flat image is not a block
    with pytest.raises(DimensionError):
        iterative_gradient_attack(model, rng.random(10), np.ones((1, 6)), budget)
    with pytest.raises(DimensionError):
        iterative_gradient_attack(model, rng.random((2, 10)), np.ones(6), budget)
    # one code too few or too many
    for rows in (1, 3):
        with pytest.raises(DimensionError):
            iterative_gradient_attack(model, rng.random((2, 10)), np.ones((rows, 6)), budget)
    # codes of the wrong width
    with pytest.raises(DimensionError):
        iterative_gradient_attack(model, rng.random((1, 10)), np.ones((1, 5)), budget)
    # target labels must come one per image as well
    with pytest.raises(DimensionError):
        iterative_gradient_attack(model, rng.random((2, 10)), np.ones((2, 6)), budget,
                                  target_labels=np.ones((3, 2)))


def test_other_rows_never_change_a_rows_result(rng):
    model = _small_model(seed=7)
    images = rng.random((5, 10))
    targets = _codes(rng, 5)
    budget = AttackBudget(epsilon=0.2, step_size=0.05, iterations=15)
    first = iterative_gradient_attack(model, images, targets, budget)
    for _ in range(3):
        others = images.copy()
        other_targets = targets.copy()
        others[1:] = rng.random((4, 10))
        other_targets[1:] = _codes(rng, 4)
        again = iterative_gradient_attack(model, others, other_targets, budget)
        assert np.array_equal(again[0].perturbed, first[0].perturbed)


def test_every_example_of_a_call_carries_the_call_latency(rng):
    model = _small_model(seed=2)
    budget = AttackBudget(epsilon=0.1, step_size=0.02, iterations=200)
    started = time.perf_counter()
    examples = iterative_gradient_attack(model, rng.random((8, 10)), _codes(rng, 8), budget)
    wall = time.perf_counter() - started
    times = {example.generation_time for example in examples}
    assert len(times) == 1
    # the latency of the whole call, not the call divided by the row count
    assert wall / 2.0 < times.pop() <= wall


def _trained_toy_model():
    config = DataConfig(classes=3, height=4, width=4, train_size=60,
                        database_size=40, query_size=8, noise_sigma=0.05)
    bundle = gen_synthetic_dataset(config, seed=11)
    train_config = HashTrainConfig(code_length=6, hidden_widths=(16,),
                                   epochs=8, batch_size=16)
    model, _ = train_target_model(bundle.train_images, bundle.train_labels,
                                  train_config, np.random.default_rng(12))
    return model, bundle


def test_attack_reduces_code_alignment_loss():
    model, bundle = _trained_toy_model()
    image = bundle.query_images[0]
    # aim at the code of an item with a different label
    target = binarize(model.continuous_codes(
        bundle.database_images[:1])[0]) * -1.0
    budget = AttackBudget(epsilon=0.3, step_size=0.03, iterations=40)

    def alignment(x):
        u = model.continuous_codes(x.reshape(1, -1))[0]
        return 1.0 - float(target @ u) / model.code_length

    [result] = iterative_gradient_attack(model, image.reshape(1, -1),
                                         target.reshape(1, -1), budget)
    assert alignment(result.perturbed) < alignment(image)


def test_block_attack_equals_one_row_attacks():
    model, bundle = _trained_toy_model()
    images = bundle.query_images
    targets = _codes(np.random.default_rng(6), images.shape[0])
    labels = np.eye(3)[np.arange(images.shape[0]) % 3]
    budget = AttackBudget(epsilon=0.3, step_size=0.03, iterations=40)
    block = iterative_gradient_attack(model, images, targets, budget, target_labels=labels)
    assert len(block) == images.shape[0]
    for row, example in enumerate(block):
        [alone] = iterative_gradient_attack(model, images[row:row + 1],
                                            targets[row:row + 1], budget,
                                            target_labels=labels[row:row + 1])
        assert np.array_equal(example.perturbed, alone.perturbed)
        assert np.array_equal(example.original, images[row])
        assert np.array_equal(example.target_label, labels[row])
    # the attack moved the block, so the equality above is not vacuous
    assert not np.array_equal(np.stack([e.perturbed for e in block]), images)


def test_p2p_and_anchor_agree_given_the_same_target_code():
    model, bundle = _trained_toy_model()
    db_labels = np.zeros((3, 3))
    db_labels[:, 0] = 1.0
    db_labels[0] = [0.0, 1.0, 0.0]  # exactly one item matches class 1
    code_matrix = model.codes(bundle.database_images[:3]).T
    targets = np.array([[0.0, 1.0, 0.0]])
    budget = AttackBudget(epsilon=0.1, step_size=0.02, iterations=8)
    images = bundle.query_images[:1]
    first = p2p_attack(model, images, targets, db_labels, code_matrix, budget,
                       np.random.default_rng(0))
    second = anchor_attack(model, images, targets, db_labels, code_matrix,
                           budget, np.random.default_rng(1))
    assert np.array_equal(first[0].perturbed, second[0].perturbed)
    assert np.array_equal(first[0].target_label, targets[0])


def _spy_on_attack(monkeypatch):
    """Record the arguments of every call p2p/anchor make to the attack."""
    calls = []
    real = baselines.iterative_gradient_attack

    def spy(model, images, target_codes, budget, target_labels=None):
        calls.append(np.array(target_codes))
        return real(model, images, target_codes, budget, target_labels)

    monkeypatch.setattr(baselines, "iterative_gradient_attack", spy)
    return calls


def _code_draw_setup():
    db_labels = np.eye(3)[np.arange(30) % 3]
    code_matrix = np.where(np.random.default_rng(4).random((6, 30)) < 0.5, 1.0, -1.0)
    targets = np.eye(3)[[2, 0, 1, 1, 2, 0, 0]]
    images = np.random.default_rng(5).random((targets.shape[0], 10))
    return db_labels, code_matrix, targets, images


def test_p2p_draws_codes_like_sequential_calls(monkeypatch):
    db_labels, code_matrix, targets, images = _code_draw_setup()
    sequential = np.random.default_rng(31)
    expected = [p2p_target_code(t, db_labels, code_matrix, sequential) for t in targets]
    calls = _spy_on_attack(monkeypatch)
    rng = np.random.default_rng(31)
    budget = AttackBudget(epsilon=0.1, step_size=0.05, iterations=2)
    examples = p2p_attack(_small_model(), images, targets, db_labels, code_matrix, budget, rng)
    assert len(calls) == 1 and np.array_equal(calls[0], np.stack(expected))
    assert rng.random() == sequential.random()
    assert [tuple(e.target_label) for e in examples] == [tuple(t) for t in targets]


def test_anchor_attack_draws_codes_like_sequential_calls(monkeypatch):
    db_labels, code_matrix, targets, images = _code_draw_setup()
    sequential = np.random.default_rng(32)
    expected = [anchor_code_for_label(t, db_labels, code_matrix, sequential, set_size=3)
                for t in targets]
    calls = _spy_on_attack(monkeypatch)
    rng = np.random.default_rng(32)
    budget = AttackBudget(epsilon=0.1, step_size=0.05, iterations=2)
    examples = anchor_attack(_small_model(), images, targets, db_labels, code_matrix,
                             budget, rng, set_size=3)
    assert len(calls) == 1 and np.array_equal(calls[0], np.stack(expected))
    assert rng.random() == sequential.random()
    assert len(examples) == targets.shape[0]


def test_noise_queries_bounds_and_determinism(rng):
    images = rng.random((6, 10))
    noisy = noise_queries(images, 0.1, np.random.default_rng(7))
    again = noise_queries(images, 0.1, np.random.default_rng(7))
    assert np.array_equal(noisy, again)
    assert np.all(noisy >= 0.0) and np.all(noisy <= 1.0)
    assert np.max(np.abs(noisy - images)) <= 0.1
    assert not np.array_equal(noisy, images)
    with pytest.raises(InputError):
        noise_queries(images, -0.01, rng)
