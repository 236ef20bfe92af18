"""Target-code selection and bounded signed-gradient attack tests."""

import dataclasses
import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashattack import baselines, experiment
from hashattack import tensor as T
from hashattack.baselines import (
    anchor_attack,
    anchor_code,
    anchor_code_for_label,
    anchor_codes,
    iterative_gradient_attack,
    noise_queries,
    p2p_attack,
    p2p_codes,
)
from hashattack.config import ExperimentConfig
from hashattack.data import gen_synthetic_dataset
from hashattack.errors import DimensionError, InputError, TargetUnsatisfiableError
from hashattack.gan import loss_hamming
from hashattack.hashing import (
    HashModel,
    binarize,
    hamming_distances,
    train_target_model,
)


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
    return int(hamming_distances(code[None], rows.T).sum())


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
        code = p2p_codes([target], db_labels, code_matrix, rng)[0]
        matches = [np.array_equal(code, code_matrix[:, j]) for j in range(3)]
        assert any(matches)


def test_p2p_singleton_match_is_deterministic(rng):
    db_labels, code_matrix = _tiny_retrieval_setup()
    target = np.array([0.0, 1.0])
    db_labels[4] = [1.0, 0.0]  # leave index 3 as the only match
    code = p2p_codes([target], db_labels, code_matrix, rng)[0]
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
        code = p2p_codes([target], db_labels, code_matrix, rng)[0]
        counts[int(np.sum(code < 0.0))] += 1.0
    expected = draws / 3.0
    sigma = np.sqrt(draws * (1.0 / 3.0) * (2.0 / 3.0))
    assert np.all(np.abs(counts - expected) <= 3.0 * sigma)


def test_p2p_without_matching_item_raises(rng):
    db_labels, code_matrix = _tiny_retrieval_setup()
    with pytest.raises(TargetUnsatisfiableError):
        p2p_codes([[0.0, 0.0]], db_labels, code_matrix, rng)


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
        anchor_code_for_label(np.array([0.0, 0.0]), db_labels, code_matrix, rng, 9)
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
    config = ExperimentConfig(epsilon=0.0, step_size=0.1, iterations=5)
    result = iterative_gradient_attack(model, image, target, config)
    assert np.array_equal(result, image)


def test_attack_respects_ball_and_pixel_box(rng):
    model = _small_model(seed=3)
    for epsilon in (0.01, 0.1, 0.5):
        config = ExperimentConfig(epsilon=epsilon, step_size=epsilon / 4.0,
                                  iterations=12)
        for _ in range(5):
            image = rng.random((1, 10))
            target = _codes(rng, 1)
            result = iterative_gradient_attack(model, image, target, config)
            assert np.max(np.abs(result - image)) <= epsilon + 1e-12
            assert np.all(result >= 0.0)
            assert np.all(result <= 1.0)


def test_single_iteration_takes_one_signed_step(rng):
    model = _small_model(seed=4)
    image = rng.random((1, 10))
    target = _codes(rng, 1)
    epsilon = 0.07
    config = ExperimentConfig(epsilon=epsilon, step_size=epsilon, iterations=1)
    [result] = iterative_gradient_attack(model, image, target, config)
    tape = T.Tape()
    current = tape.watch(T.Tensor(image))
    objective = loss_hamming(target, model.forward(current))
    gradient = T.backward(tape, objective).wrt(current)[0]
    expected = np.clip(
        image[0] - epsilon * np.sign(gradient),
        np.clip(image[0] - epsilon, 0.0, 1.0),
        np.clip(image[0] + epsilon, 0.0, 1.0),
    )
    assert np.array_equal(result, expected)


def test_attack_shape_guards(rng):
    model = _small_model()
    config = ExperimentConfig()
    # one flat image is not a block
    with pytest.raises(DimensionError):
        iterative_gradient_attack(model, rng.random(10), np.ones((1, 6)), config)
    with pytest.raises(DimensionError):
        iterative_gradient_attack(model, rng.random((2, 10)), np.ones(6), config)
    # one code too few or too many
    for rows in (1, 3):
        with pytest.raises(DimensionError):
            iterative_gradient_attack(model, rng.random((2, 10)), np.ones((rows, 6)), config)
    # codes of the wrong width
    with pytest.raises(DimensionError):
        iterative_gradient_attack(model, rng.random((1, 10)), np.ones((1, 5)), config)


def test_other_rows_never_change_a_rows_result(rng):
    model = _small_model(seed=7)
    images = rng.random((5, 10))
    targets = _codes(rng, 5)
    config = ExperimentConfig(epsilon=0.2, step_size=0.05, iterations=15)
    first = iterative_gradient_attack(model, images, targets, config)
    for _ in range(3):
        others = images.copy()
        other_targets = targets.copy()
        others[1:] = rng.random((4, 10))
        other_targets[1:] = _codes(rng, 4)
        again = iterative_gradient_attack(model, others, other_targets, config)
        assert np.array_equal(again[0], first[0])


def test_every_example_of_a_call_carries_the_call_latency(tiny_config, tmp_path,
                                                           monkeypatch):
    # the attack returns a bare block; the stage that calls it records the
    # one latency that every row of the block shares
    walls = []
    real = baselines.iterative_gradient_attack

    def timed(*args, **kwargs):
        started = time.perf_counter()
        result = real(*args, **kwargs)
        walls.append(time.perf_counter() - started)
        return result

    monkeypatch.setattr(baselines, "iterative_gradient_attack", timed)
    for name in ("gen_data", "train_hash", "encode_db"):
        experiment.execute_stage(name, tiny_config, 4, tmp_path)
    count = tiny_config.query_size
    for method in ("p2p", "dhta"):
        walls.clear()
        experiment.execute_stage(method, tiny_config, 4, tmp_path)
        with np.load(tmp_path / f"adversarial_{method}.npz") as saved:
            assert saved["perturbed"].shape[0] == count
        # one attack call made every example of the block
        assert len(walls) == 1
        timings = json.loads((tmp_path / "timings.json").read_text())
        latency = timings[f"generation_{method}_seconds"]
        throughput = timings[f"throughput_{method}_images_per_second"]
        # the latency of the whole call, not the call divided by the row count
        assert walls[0] <= latency <= timings[f"{method}_seconds"]
        assert throughput * latency == pytest.approx(count)


def _trained_toy_model():
    config = ExperimentConfig(classes=3, image_height=4, image_width=4, train_size=60,
                              database_size=40, query_size=8, noise_sigma=0.05,
                              hash_epochs=8, hash_batch_size=16, quantization_weight=0.1)
    bundle = gen_synthetic_dataset(config, seed=11)
    model, _ = train_target_model(bundle.train_images, bundle.train_labels, 6, (16,),
                                  config, np.random.default_rng(12))
    return model, bundle


def test_attack_reduces_code_alignment_loss():
    model, bundle = _trained_toy_model()
    image = bundle.query_images[0]
    # aim at the code of an item with a different label
    target = binarize(model.continuous_codes(
        bundle.database_images[:1])[0]) * -1.0
    config = ExperimentConfig(epsilon=0.3, step_size=0.03, iterations=40)

    def alignment(x):
        u = model.continuous_codes(x.reshape(1, -1))[0]
        return 1.0 - float(target @ u) / model.code_length

    [result] = iterative_gradient_attack(model, image.reshape(1, -1),
                                         target.reshape(1, -1), config)
    assert alignment(result) < alignment(image)


def test_block_attack_equals_one_row_attacks():
    model, bundle = _trained_toy_model()
    images = bundle.query_images
    targets = _codes(np.random.default_rng(6), images.shape[0])
    config = ExperimentConfig(epsilon=0.3, step_size=0.03, iterations=40)
    block = iterative_gradient_attack(model, images, targets, config)
    assert block.shape == images.shape
    for row in range(images.shape[0]):
        alone = iterative_gradient_attack(model, images[row:row + 1],
                                          targets[row:row + 1], config)
        assert np.array_equal(block[row:row + 1], alone)
    # the attack moved the block, so the equality above is not vacuous
    assert not np.array_equal(block, images)


def _plain_descent(model, images, target_codes, config):
    """The oracle for ``iterative_gradient_attack``: every one of ``config.iterations`` steps."""
    low = np.clip(images - config.epsilon, 0.0, 1.0)
    high = np.clip(images + config.epsilon, 0.0, 1.0)
    perturbed = images.copy()
    for _ in range(config.iterations):
        with T.Tape() as tape:
            current = tape.watch(T.Tensor(perturbed))
            objective = loss_hamming(target_codes, model.forward(current))
            gradient = T.backward(tape, objective).wrt(current)
        perturbed = np.clip(perturbed - config.step_size * np.sign(gradient), low, high)
    return perturbed


def _count_tapes(monkeypatch):
    """A list that grows by one for each ``tensor.backward`` call."""
    calls = []
    real = T.backward

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(T, "backward", counted)
    return calls


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 3), pixels=st.integers(2, 8),
       bits=st.integers(1, 6), hidden=st.sampled_from([(), (4,)]),
       iterations=st.integers(1, 64), ratio=st.sampled_from([1, 2, 4, 8]),
       epsilon=st.sampled_from([0.0, 2.0 / 255.0, 0.05, 0.3]))
def test_the_period_skip_returns_the_full_budget_bytes(seed, rows, pixels, bits, hidden,
                                                        iterations, ratio, epsilon):
    """Skipping whole periods of a repeating block leaves the result of every step, bit for bit."""
    rng = np.random.default_rng(seed)
    model = HashModel.create(rng, pixels, bits, hidden_widths=hidden)
    images, targets = rng.random((rows, pixels)), _codes(rng, rows, bits)
    step_size = epsilon / ratio if epsilon > 0.0 else 0.05
    config = ExperimentConfig(epsilon=epsilon, step_size=step_size, iterations=iterations)
    expected = _plain_descent(model, images, targets, config)
    assert iterative_gradient_attack(model, images, targets, config).tobytes() == expected.tobytes()


class _Circulating:
    """A one-bit code of two pixels whose signed descent from (0.5, 0.5), with step and
    epsilon 1/8, walks the eight border points of the 3 x 3 pixel lattice in a ring.

    Small random models only ever settle into periods 1 and 2.  In units ``u, v`` of
    one step from the centre, the loss is ``u f(v) - u^2/2 - v^2/4 + (u + v)/10`` with
    ``f(v) = -v + 10 v^3 - 6 v^5``.  On the lattice ``f(v)`` is -3, 0 or 3 and
    ``f'(v)`` is -1, so the u-gradient takes the sign of v and the v-gradient that
    of -u: the signed steps turn around the centre.
    """

    def forward(self, x):
        u, v = (T.scale(T.shift(T.matmul(x, T.Tensor(column)), -0.5), 8.0)
                for column in np.eye(2)[:, :, None])
        v2 = T.square(v)
        v3 = T.mul(v2, v)
        f = T.add(T.add(T.scale(v, -1.0), T.scale(v3, 10.0)), T.scale(T.mul(v3, v2), -6.0))
        loss = T.add(T.sub(T.mul(u, f), T.add(T.scale(T.square(u), 0.5), T.scale(v2, 0.25))),
                     T.scale(T.add(u, v), 0.1))
        return T.scale(loss, -1.0)  # the code; against target +1 its loss is 1 + loss


@settings(deadline=None, max_examples=30)
@given(iterations=st.integers(1, 64))
def test_a_period_of_eight_is_skipped_exactly(iterations):
    images, targets = np.full((1, 2), 0.5), np.ones((1, 1))
    config = ExperimentConfig(epsilon=0.125, step_size=0.125, iterations=iterations)
    ring = _plain_descent(_Circulating(), images, targets,
                          dataclasses.replace(config, iterations=9))
    assert ring.tobytes() == (images - 0.125).tobytes()  # step 9 is step 1 again
    expected = _plain_descent(_Circulating(), images, targets, config)
    with pytest.MonkeyPatch.context() as patch:
        tapes = _count_tapes(patch)
        result = iterative_gradient_attack(_Circulating(), images, targets, config)
    assert result.tobytes() == expected.tobytes()
    # step 9 hashes as step 1, step 17 equals the kept step 9, then only the remainder runs
    assert len(tapes) == (iterations if iterations < 17 else 17 + (iterations - 17) % 8)


def test_a_hash_that_collides_on_every_block_changes_no_byte(monkeypatch):
    # every block looks seen, so only the bit-for-bit comparison can tell repeats apart
    monkeypatch.setattr(baselines, "hash", lambda data: 0, raising=False)
    model, bundle = _trained_toy_model()
    images = bundle.query_images
    targets = _codes(np.random.default_rng(6), images.shape[0])
    config = ExperimentConfig(iterations=200)
    expected = _plain_descent(model, images, targets, config)
    assert iterative_gradient_attack(model, images, targets, config).tobytes() == expected.tobytes()
    # the ring's consecutive blocks always differ, so it runs the whole budget
    ring_images, ring_targets = np.full((1, 2), 0.5), np.ones((1, 1))
    ring_config = ExperimentConfig(epsilon=0.125, step_size=0.125, iterations=40)
    expected = _plain_descent(_Circulating(), ring_images, ring_targets, ring_config)
    tapes = _count_tapes(monkeypatch)
    result = iterative_gradient_attack(_Circulating(), ring_images, ring_targets, ring_config)
    assert len(tapes) == 40 and result.tobytes() == expected.tobytes()


def test_a_block_that_never_repeats_runs_every_step(monkeypatch):
    # one code bit and no hidden layer: each pixel's gradient sign is fixed, so every
    # pixel walks one way through the eight steps from the centre to the ball's edge
    rng = np.random.default_rng(3)
    model = HashModel.create(rng, 6, 1, hidden_widths=())
    images, targets = np.full((2, 6), 0.5), _codes(rng, 2, bits=1)
    config = ExperimentConfig(epsilon=0.08, step_size=0.01, iterations=8)
    expected = _plain_descent(model, images, targets, config)
    tapes = _count_tapes(monkeypatch)
    result = iterative_gradient_attack(model, images, targets, config)
    assert len(tapes) == 8 and result.tobytes() == expected.tobytes()
    assert np.allclose(np.abs(result - images), 0.08)


def test_the_period_skip_runs_fewer_tapes_than_the_budget(monkeypatch):
    model, bundle = _trained_toy_model()
    images = bundle.query_images
    targets = _codes(np.random.default_rng(6), images.shape[0])
    config = ExperimentConfig(iterations=200)
    expected = _plain_descent(model, images, targets, config)
    tapes = _count_tapes(monkeypatch)
    result = iterative_gradient_attack(model, images, targets, config)
    assert len(tapes) < 200
    assert result.tobytes() == expected.tobytes()


def test_p2p_and_anchor_agree_given_the_same_target_code():
    model, bundle = _trained_toy_model()
    db_labels = np.zeros((3, 3))
    db_labels[:, 0] = 1.0
    db_labels[0] = [0.0, 1.0, 0.0]  # exactly one item matches class 1
    code_matrix = model.codes(bundle.database_images[:3]).T
    targets = np.array([[0.0, 1.0, 0.0]])
    config = ExperimentConfig(epsilon=0.1, step_size=0.02, iterations=8)
    images = bundle.query_images[:1]
    first = p2p_attack(model, images, targets, db_labels, code_matrix, config,
                       np.random.default_rng(0))
    second = anchor_attack(model, images, targets, db_labels, code_matrix,
                           config, np.random.default_rng(1))
    assert np.array_equal(first, second)


def _spy_on_attack(monkeypatch):
    """Record the arguments of every call p2p/anchor make to the attack."""
    calls = []
    real = baselines.iterative_gradient_attack

    def spy(model, images, target_codes, config):
        calls.append(np.array(target_codes))
        return real(model, images, target_codes, config)

    monkeypatch.setattr(baselines, "iterative_gradient_attack", spy)
    return calls


def _sequential_p2p_codes(targets, db_labels, code_matrix, rng):
    """The oracle for ``p2p_codes``: each row's matches looked up and drawn from on its own."""
    codes = []
    for target in targets:
        matches = np.flatnonzero(np.asarray(db_labels) @ target > 0.0)
        codes.append(code_matrix[:, matches[rng.integers(0, matches.size)]])
    return np.stack(codes)


def _code_draw_setup():
    db_labels = np.eye(3)[np.arange(30) % 3]
    code_matrix = np.where(np.random.default_rng(4).random((6, 30)) < 0.5, 1.0, -1.0)
    targets = np.eye(3)[[2, 0, 1, 1, 2, 0, 0]]
    images = np.random.default_rng(5).random((targets.shape[0], 10))
    return db_labels, code_matrix, targets, images


def test_p2p_draws_codes_like_sequential_calls(monkeypatch):
    db_labels, code_matrix, targets, images = _code_draw_setup()
    sequential = np.random.default_rng(31)
    expected = _sequential_p2p_codes(targets, db_labels, code_matrix, sequential)
    calls = _spy_on_attack(monkeypatch)
    rng = np.random.default_rng(31)
    config = ExperimentConfig(epsilon=0.1, step_size=0.05, iterations=2)
    perturbed = p2p_attack(_small_model(), images, targets, db_labels, code_matrix, config, rng)
    assert len(calls) == 1 and np.array_equal(calls[0], expected)
    assert rng.random() == sequential.random()
    assert perturbed.shape == images.shape


def test_anchor_attack_draws_codes_like_sequential_calls(monkeypatch):
    db_labels, code_matrix, targets, images = _code_draw_setup()
    sequential = np.random.default_rng(32)
    expected = [anchor_code_for_label(t, db_labels, code_matrix, sequential, set_size=3)
                for t in targets]
    after = sequential.random()
    block = np.random.default_rng(32)
    codes = anchor_codes(targets, db_labels, code_matrix, block, set_size=3)
    assert codes.shape == (targets.shape[0], code_matrix.shape[0])
    assert np.array_equal(codes, np.stack(expected))
    assert block.random() == after
    calls = _spy_on_attack(monkeypatch)
    rng = np.random.default_rng(32)
    config = ExperimentConfig(epsilon=0.1, step_size=0.05, iterations=2, anchor_set_size=3)
    perturbed = anchor_attack(_small_model(), images, targets, db_labels, code_matrix,
                              config, rng)
    assert len(calls) == 1 and np.array_equal(calls[0], np.stack(expected))
    assert rng.random() == after
    assert perturbed.shape == images.shape


@st.composite
def _repeated_targets(draw):
    """Multi-hot database labels, targets drawn from them with repeats, and codes."""
    classes = draw(st.integers(2, 4))
    shapes = st.lists(st.integers(0, 1), min_size=classes, max_size=classes).filter(any)
    db_labels = np.array(draw(st.lists(shapes, min_size=1, max_size=12)), dtype=np.float64)
    rows = draw(st.lists(st.integers(0, len(db_labels) - 1), min_size=1, max_size=10))
    code_matrix = np.where(
        np.random.default_rng(draw(st.integers(0, 99))).random((5, len(db_labels))) < 0.5,
        1.0, -1.0)
    return db_labels, db_labels[rows], code_matrix, draw(st.integers(0, 2**32))


@settings(deadline=None, max_examples=60)
@given(_repeated_targets(), st.integers(1, 4))
def test_block_target_codes_match_the_per_row_draws(setup, set_size):
    """Looking the matches up once per distinct label leaves every draw and the rng as is."""
    db_labels, targets, code_matrix, seed = setup
    sequential = np.random.default_rng(seed)
    expected = _sequential_p2p_codes(targets, db_labels, code_matrix, sequential)
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        calls = []
        patch.setattr(baselines, "iterative_gradient_attack",
                      lambda model, images, codes, config: calls.append(codes) or images)
        p2p_attack(None, targets, targets, db_labels, code_matrix, None, rng)
    assert np.array_equal(calls[0], expected) and calls[0].flags.c_contiguous
    assert rng.bit_generator.state == sequential.bit_generator.state

    expected = np.stack([anchor_code_for_label(t, db_labels, code_matrix, sequential, set_size)
                         for t in targets])
    assert np.array_equal(anchor_codes(targets, db_labels, code_matrix, rng, set_size), expected)
    assert rng.bit_generator.state == sequential.bit_generator.state


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
