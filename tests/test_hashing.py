import numpy as np
import pytest

from hashattack import tensor as T
from hashattack.config import ExperimentConfig
from hashattack.data import build_similarity_matrix, gen_synthetic_dataset
from hashattack.errors import DimensionError, InputError, TrainingDivergedError
from hashattack.hashing import (
    HashModel,
    binarize,
    encode_database,
    hamming_distances,
    pairwise_code_loss,
    train_target_model,
)
from hashattack.layers import MLP, DenseLayer

from conftest import assert_grad_close, finite_difference


def test_binarize_examples():
    assert np.array_equal(binarize([0.3, -0.7]), [1.0, -1.0])
    assert np.array_equal(binarize([0.0, 0.0]), [1.0, 1.0])
    code = binarize(np.array([0.2, -0.9, 0.0]))
    assert np.array_equal(binarize(code), code)


def _distance(a, b):
    """The Hamming distance between two codes, through the batched function."""
    return int(hamming_distances(a, b[:, None])[0])


def test_hamming_examples():
    a = np.array([1.0, 1.0, -1.0, 1.0])
    assert _distance(a, a) == 0
    b8 = np.ones(8)
    assert _distance(b8, -b8) == 8
    assert _distance(a, np.array([1.0, -1.0, -1.0, -1.0])) == 2


def test_hamming_identity_against_position_count(rng):
    for code_length in (4, 8, 12, 16):
        for _ in range(200):
            a = binarize(rng.normal(size=code_length))
            b = binarize(rng.normal(size=code_length))
            assert _distance(a, b) == np.sum(a != b)


def test_hamming_metric_properties(rng):
    for _ in range(100):
        a, b, c = (binarize(rng.normal(size=8)) for _ in range(3))
        assert _distance(a, b) == _distance(b, a)
        assert (_distance(a, b) == 0) == np.array_equal(a, b)
        assert _distance(a, c) <= _distance(a, b) + _distance(b, c)


def test_hamming_guards():
    with pytest.raises(DimensionError):
        hamming_distances(np.ones((2, 2, 3)), np.ones((3, 4)))
    with pytest.raises(DimensionError):
        hamming_distances(np.ones(3), np.ones((4, 5)))


@pytest.mark.parametrize("side", ["query", "database"])
@pytest.mark.parametrize("value", [0.5, 0.0, -2.0, np.nan, np.inf])
def test_hamming_distances_refuse_codes_that_are_not_signs(side, value):
    query = np.ones((2, 4))
    matrix = -np.ones((4, 3))
    (query if side == "query" else matrix)[1, 2] = value
    with pytest.raises(InputError):
        hamming_distances(query, matrix)


@pytest.mark.parametrize("code_length, dtype", [
    (1, np.uint8), (12, np.uint8), (255, np.uint8), (256, np.uint16), (300, np.uint16),
])
def test_hamming_counts_come_in_the_smallest_unsigned_dtype(code_length, dtype):
    query = np.ones((2, code_length))
    matrix = np.ones((code_length, 3))
    matrix[:, 1] = -1.0
    distances = hamming_distances(query, matrix)
    assert distances.dtype == dtype
    assert np.array_equal(distances, [[0, code_length, 0]] * 2)


def test_hamming_distances_matches_per_column(rng):
    q = binarize(rng.normal(size=6))
    matrix = binarize(rng.normal(size=(6, 9)))
    batch = hamming_distances(q, matrix)
    for j in range(9):
        assert batch[j] == np.sum(q != matrix[:, j])
    block = binarize(rng.normal(size=(4, 6)))
    distances = hamming_distances(block, matrix)
    assert distances.shape == (4, 9)
    for i in range(4):
        for j in range(9):
            assert distances[i, j] == np.sum(block[i] != matrix[:, j])


def test_zero_model_continuous_is_zero_codes_all_positive():
    model = HashModel(MLP([DenseLayer(np.zeros((5, 3)), np.zeros(3), "tanh")]))
    x = np.random.default_rng(0).random((4, 5))
    assert np.array_equal(model.continuous_codes(x), np.zeros((4, 3)))
    assert np.array_equal(model.codes(x), np.ones((4, 3)))


def test_forward_matches_straight_line_oracle(rng):
    model = HashModel.create(rng, 6, 4, hidden_widths=(5,))
    x = rng.random((3, 6))
    w1 = model.net.layers[0].weight.values
    b1 = model.net.layers[0].bias.values
    w2 = model.net.layers[1].weight.values
    b2 = model.net.layers[1].bias.values
    want = np.tanh(np.tanh(x @ w1 + b1) @ w2 + b2)
    assert np.allclose(model.continuous_codes(x), want, rtol=0.0, atol=1e-12)
    assert np.all(np.abs(model.continuous_codes(x)) < 1.0)


def test_model_requires_tanh_head():
    with pytest.raises(InputError):
        HashModel(MLP.create(np.random.default_rng(0), [4, 3], ["relu"]))


def test_pair_loss_orthogonal_similar_pair_is_log_two():
    u = T.Tensor([[0.5, 0.5], [0.5, -0.5]])
    s = np.ones((2, 2))
    loss = pairwise_code_loss(u, s, quantization_weight=0.0)
    assert float(loss.values) == pytest.approx(np.log(2.0), abs=1e-12)


def test_pair_loss_dissimilar_far_pair_vanishes():
    u = T.Tensor([[40.0, 0.0], [-40.0, 0.0]])
    s = np.zeros((2, 2))
    loss = pairwise_code_loss(u, s, quantization_weight=0.0)
    assert float(loss.values) < 1e-12


def test_pair_loss_quantization_pull():
    # lone sample: no pairs, so the loss is the pure quantization residual
    u = T.Tensor([[0.9]])
    loss = pairwise_code_loss(u, np.ones((1, 1)), quantization_weight=1.0)
    assert float(loss.values) == pytest.approx(0.01, abs=1e-12)


def test_pair_loss_shape_guard():
    with pytest.raises(DimensionError):
        pairwise_code_loss(T.Tensor(np.zeros((3, 2))), np.ones((2, 2)), 0.1)


def test_pair_loss_gradient_matches_finite_differences(rng):
    labels = (rng.random((5, 3)) < 0.5).astype(float)
    labels[labels.sum(axis=1) == 0, 0] = 1.0
    s = build_similarity_matrix(labels, labels)
    u0 = rng.normal(0.0, 0.7, size=(5, 4))

    def loss_fn(u):
        return float(pairwise_code_loss(T.Tensor(u), s, 0.05).values)

    tape = T.Tape()
    ut = tape.watch(T.Tensor(u0.copy()))
    grads = T.backward(tape, pairwise_code_loss(ut, s, 0.05))
    [numeric] = finite_difference(loss_fn, [u0])
    assert_grad_close(grads.wrt(ut), numeric)


def _tiny_dataset(seed=5):
    cfg = ExperimentConfig(classes=3, image_height=3, image_width=3, image_channels=1,
                           train_size=36, database_size=30, query_size=6,
                           noise_sigma=0.05, extra_class_probability=0.2)
    return gen_synthetic_dataset(cfg, seed)


def test_training_reduces_loss_and_is_reproducible():
    bundle = _tiny_dataset()
    cfg = ExperimentConfig(hash_epochs=8, hash_batch_size=12, hash_learning_rate=2e-3,
                           quantization_weight=0.1)
    model_a, history_a = train_target_model(bundle.train_images, bundle.train_labels,
                                            6, (16,), cfg, 3)
    model_b, history_b = train_target_model(bundle.train_images, bundle.train_labels,
                                            6, (16,), cfg, 3)
    assert history_a[-1] < history_a[0]
    assert history_a == history_b
    for pa, pb in zip(model_a.net.parameters(), model_b.net.parameters()):
        assert np.array_equal(pa.values, pb.values)
    assert all(p.tape is None for p in model_a.net.parameters())


def test_training_guards():
    bundle = _tiny_dataset()
    cfg = ExperimentConfig(hash_epochs=1, quantization_weight=0.1)
    shape = (12, (128, 64))
    with pytest.raises(InputError):
        train_target_model(np.zeros((0, 9)), np.zeros((0, 3)), *shape, cfg, 0)
    bad_labels = bundle.train_labels.copy()
    bad_labels[0] = 0.0
    with pytest.raises(InputError):
        train_target_model(bundle.train_images, bad_labels, *shape, cfg, 0)
    with pytest.raises(DimensionError):
        train_target_model(bundle.train_images, bundle.train_labels[:-1], *shape, cfg, 0)


def test_training_needs_a_pair_of_images():
    # one image makes no pair, so every batch would be skipped and the
    # history would be the mean of nothing
    bundle = _tiny_dataset()
    cfg = ExperimentConfig(hash_epochs=2, hash_batch_size=2, quantization_weight=0.1)
    with pytest.raises(InputError):
        train_target_model(bundle.train_images[:1], bundle.train_labels[:1], 4, (4,), cfg, 0)
    _, history = train_target_model(bundle.train_images[:2], bundle.train_labels[:2],
                                    4, (4,), cfg, 0)
    assert len(history) == 2 and np.all(np.isfinite(history))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_divergence_is_reported_with_epoch():
    images = np.full((8, 4), np.nan)
    labels = np.tile([1.0, 0.0], (8, 1))
    cfg = ExperimentConfig(hash_epochs=3, hash_batch_size=4, quantization_weight=0.1)
    with pytest.raises(TrainingDivergedError) as err:
        train_target_model(images, labels, 4, (4,), cfg, 0)
    assert err.value.epoch == 0


def test_encode_database_matches_per_item_calls(rng):
    model = HashModel.create(rng, 9, 6, hidden_widths=(8,))
    images = rng.random((10, 9))
    matrix = encode_database(model, images)
    assert matrix.shape == (6, 10)
    for j in range(10):
        assert np.array_equal(matrix[:, j], model.codes(images[j:j + 1])[0])


def test_encode_database_singleton_and_duplicates(rng):
    model = HashModel.create(rng, 9, 6, hidden_widths=(8,))
    one = rng.random((1, 9))
    matrix = encode_database(model, one)
    assert matrix.shape == (6, 1)
    assert np.array_equal(matrix[:, 0], model.codes(one)[0])
    twice = np.vstack([one, one])
    doubled = encode_database(model, twice)
    assert np.array_equal(doubled[:, 0], doubled[:, 1])
    with pytest.raises(InputError):
        encode_database(model, np.zeros((0, 9)))
