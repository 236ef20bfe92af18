import numpy as np
import pytest

from hashattack import tensor as T
from hashattack.errors import DimensionError, InputError
from hashattack.hashing import binarize
from hashattack.layers import MLP, DenseLayer, watch_parameters
from hashattack.prototype import PrototypeNet, loss_prototype

from conftest import assert_grad_close, finite_difference


def _zero_net(classes=3, code_length=4, width=5):
    trunk = MLP([DenseLayer(np.zeros((classes, width)), np.zeros(width), "relu")])
    code_head = DenseLayer(np.zeros((width, code_length)), np.zeros(code_length), "tanh")
    label_head = DenseLayer(np.zeros((width, classes)), np.zeros(classes), "sigmoid")
    return PrototypeNet(trunk, code_head, label_head)


def _output_values(net, labels):
    out = net.forward(labels)
    return out.representation.values, out.continuous_code.values, out.predicted_label.values


def test_zero_network_outputs():
    net = _zero_net()
    _, code, pred = _output_values(net, np.array([[0.0, 1.0, 0.0]]))
    assert np.array_equal(code, np.zeros((1, 4)))
    assert np.array_equal(pred, np.full((1, 3), 0.5))
    code = net.forward(np.array([[1.0, 0.0, 0.0]])).continuous_code.values
    assert np.array_equal(binarize(code), np.ones((1, 4)))  # sign(0) = +1


def test_batched_prototype_codes_equal_one_row_at_a_time(rng):
    net = PrototypeNet.create(rng, 10, 12, hidden_widths=(64, 32), representation_width=32)
    labels = (rng.random((40, 10)) < 0.3).astype(float)
    labels[np.arange(40), rng.integers(0, 10, 40)] = 1.0  # every row names a class
    codes = binarize(net.forward(labels).continuous_code.values)
    # oracle: one forward pass per label row
    for label, code in zip(labels, codes):
        alone = net.forward(label[None, :]).continuous_code.values[0]
        assert np.array_equal(code, binarize(alone))


def test_forward_is_deterministic(rng):
    net = PrototypeNet.create(rng, 4, 6, hidden_widths=(64, 32), representation_width=32)
    y = np.array([[0.0, 1.0, 0.0, 1.0]])
    a = _output_values(net, y)
    b = _output_values(net, y)
    for left, right in zip(a, b):
        assert np.array_equal(left, right)


def test_all_zero_label_rejected(rng):
    net = PrototypeNet.create(rng, 3, 4, hidden_widths=(64, 32), representation_width=32)
    with pytest.raises(InputError):
        net.forward(np.zeros((1, 3)))
    with pytest.raises(InputError):
        net.forward(T.Tensor(np.zeros((2, 3))))
    with pytest.raises(DimensionError):
        net.forward(np.ones((1, 5)))
    with pytest.raises(DimensionError):
        net.forward(np.ones(3))


def test_forward_matches_straight_line_oracle(rng):
    net = PrototypeNet.create(rng, 3, 4, hidden_widths=(5,), representation_width=6)
    y = np.array([[1.0, 0.0, 0.0]])
    h = y
    for layer in net.trunk.layers:
        h = np.maximum(h @ layer.weight.values + layer.bias.values, 0.0)
    code_want = np.tanh(h @ net.code_head.weight.values + net.code_head.bias.values)
    z = h @ net.label_head.weight.values + net.label_head.bias.values
    pred_want = 1.0 / (1.0 + np.exp(-z))
    rep, code, pred = _output_values(net, y)
    assert np.allclose(rep, h, rtol=0.0, atol=1e-12)
    assert np.allclose(code, code_want, rtol=0.0, atol=1e-12)
    assert np.allclose(pred, pred_want, rtol=0.0, atol=1e-12)


def test_traced_and_untraced_forward_agree(rng):
    net = PrototypeNet.create(rng, 4, 5, hidden_widths=(64, 32), representation_width=32)
    y = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    with T.Tape() as tape:
        watch_parameters(tape, net)
        out = net.forward(T.Tensor(y))
        assert out.continuous_code.tape is tape
    assert net.forward(y).continuous_code.tape is None
    rep, code, pred = _output_values(net, y)
    assert np.array_equal(out.representation.values, rep)
    assert np.array_equal(out.continuous_code.values, code)
    assert np.array_equal(out.predicted_label.values, pred)


def test_head_validation(rng):
    trunk = MLP.create(rng, [3, 5], ["relu"])
    tanh_head = DenseLayer.create(rng, 5, 4, "tanh")
    sig_head = DenseLayer.create(rng, 5, 3, "sigmoid")
    with pytest.raises(InputError):
        PrototypeNet(trunk, DenseLayer.create(rng, 5, 4, "relu"), sig_head)
    with pytest.raises(InputError):
        PrototypeNet(trunk, tanh_head, DenseLayer.create(rng, 5, 3, "tanh"))
    # a head that does not consume the trunk width builds, and the first
    # forward's matmul refuses it
    for code_head, label_head in ((DenseLayer.create(rng, 6, 4, "tanh"), sig_head),
                                  (tanh_head, DenseLayer.create(rng, 6, 3, "sigmoid"))):
        net = PrototypeNet(trunk, code_head, label_head)
        with pytest.raises(DimensionError, match="inner dimensions"):
            net.forward(np.array([[1.0, 0.0, 0.0]]))


def test_loss_pair_term_at_zero_inner_product_is_log_two():
    h = T.Tensor([[0.6, 0.6]])
    code_matrix = np.array([[1.0], [-1.0]])
    for s in (0.0, 1.0):
        loss = loss_prototype(h, code_matrix, [[s]], T.Tensor(np.zeros((1, 2))),
                              np.zeros((1, 2)), alpha1=1.0, alpha2=0.0, alpha3=0.0)
        assert float(loss.values) == pytest.approx(np.log(2.0), abs=1e-12)


def test_loss_quantization_example():
    h = T.Tensor([[0.9]])
    loss = loss_prototype(h, [[1.0]], [[1.0]], T.Tensor(np.zeros((1, 1))),
                          np.zeros((1, 1)), alpha1=0.0, alpha2=1.0, alpha3=0.0)
    assert float(loss.values) == pytest.approx(0.01, abs=1e-12)


def test_loss_classification_zero_when_exact():
    h = T.Tensor([[0.5]])
    pred = T.Tensor([[0.3, 0.7]])
    loss = loss_prototype(h, [[1.0]], [[1.0]], pred, pred.values.copy(),
                          alpha1=0.0, alpha2=0.0, alpha3=1.0)
    assert float(loss.values) == 0.0


def test_loss_addends_are_non_negative(rng):
    for _ in range(200):
        omega = rng.uniform(-6.0, 6.0)
        s = float(rng.integers(0, 2))
        addend = np.logaddexp(0.0, omega) - s * omega
        assert addend >= 0.0


def test_pair_addend_monotonicity():
    omegas = np.linspace(-5.0, 5.0, 41)
    similar = np.logaddexp(0.0, omegas) - omegas
    dissimilar = np.logaddexp(0.0, omegas)
    assert np.all(np.diff(similar) < 0.0)
    assert np.all(np.diff(dissimilar) > 0.0)


def test_loss_shape_guards():
    # two prototypes, four code bits, five items, three classes, as rows
    h = T.Tensor(np.zeros((2, 4)))
    pred = T.Tensor(np.zeros((2, 3)))
    good_b = np.ones((4, 5))
    good_s = np.zeros((2, 5))
    good_y = np.zeros((2, 3))
    alphas = (1.0, 1e-4, 1.0)
    assert loss_prototype(h, good_b, good_s, pred, good_y, *alphas).shape == ()
    with pytest.raises(DimensionError):
        loss_prototype(h, np.ones((3, 5)), good_s, pred, good_y, *alphas)
    with pytest.raises(DimensionError):
        loss_prototype(h, good_b, np.zeros((2, 4)), pred, good_y, *alphas)
    with pytest.raises(DimensionError):
        loss_prototype(h, good_b, good_s, pred, np.zeros((2, 2)), *alphas)
    # codes laid out as (K, M) columns are refused
    with pytest.raises(DimensionError):
        loss_prototype(T.Tensor(np.zeros((4, 2))), good_b, good_s, pred, good_y, *alphas)


def test_loss_refuses_label_blocks_without_one_row_per_code():
    # the two label blocks agree with each other, but hold seven rows for two codes
    h = T.Tensor(np.zeros((2, 4)))
    pred = T.Tensor(np.full((7, 3), 0.5))
    with pytest.raises(DimensionError, match="one label row per code"):
        loss_prototype(h, np.ones((4, 5)), np.zeros((2, 5)), pred, np.ones((7, 3)),
                       1.0, 1e-4, 1.0)


def test_loss_matches_a_direct_evaluation_on_row_blocks(rng):
    prototypes, code_length, items, classes = 4, 3, 6, 2
    h = rng.uniform(-0.9, 0.9, size=(prototypes, code_length))
    code_matrix = np.where(rng.random((code_length, items)) < 0.5, 1.0, -1.0)
    similarity = (rng.random((prototypes, items)) < 0.5).astype(float)
    predicted = rng.uniform(0.05, 0.95, size=(prototypes, classes))
    true_labels = (rng.random((prototypes, classes)) < 0.5).astype(float)
    alpha1, alpha2, alpha3 = 1.5, 0.25, 2.0
    loss = loss_prototype(T.Tensor(h), code_matrix, similarity, T.Tensor(predicted),
                          true_labels, alpha1=alpha1, alpha2=alpha2, alpha3=alpha3)
    omega = 0.5 * h @ code_matrix
    want = (alpha1 * np.sum(np.log1p(np.exp(omega)) - similarity * omega)
            + alpha2 * np.sum((h - np.sign(h)) ** 2)
            + alpha3 * np.sum((predicted - true_labels) ** 2))
    assert float(loss.values) == pytest.approx(want, rel=1e-12)


def test_loss_gradients_match_finite_differences(rng):
    code_length, prototypes, items, classes = 3, 4, 6, 3
    code_matrix = np.where(rng.random((code_length, items)) < 0.5, 1.0, -1.0)
    similarity = (rng.random((prototypes, items)) < 0.5).astype(float)
    true_labels = (rng.random((prototypes, classes)) < 0.5).astype(float)
    h0 = rng.uniform(-0.9, 0.9, size=(prototypes, code_length))
    p0 = rng.uniform(0.05, 0.95, size=(prototypes, classes))

    def loss_fn(h, p):
        return float(loss_prototype(T.Tensor(h), code_matrix, similarity,
                                    T.Tensor(p), true_labels,
                                    alpha1=1.0, alpha2=0.5, alpha3=2.0).values)

    tape = T.Tape()
    ht = tape.watch(T.Tensor(h0.copy()))
    pt = tape.watch(T.Tensor(p0.copy()))
    loss = loss_prototype(ht, code_matrix, similarity, pt, true_labels,
                          alpha1=1.0, alpha2=0.5, alpha3=2.0)
    grads = T.backward(tape, loss)
    numeric = finite_difference(loss_fn, [h0, p0])
    assert_grad_close(grads.wrt(ht), numeric[0])
    assert_grad_close(grads.wrt(pt), numeric[1])


def test_export_import_round_trip(rng):
    net = PrototypeNet.create(rng, 4, 6, hidden_widths=(64, 32), representation_width=32)
    blob = net.state_dict()
    other = PrototypeNet.create(np.random.default_rng(123), 4, 6, hidden_widths=(64, 32),
                                representation_width=32)
    other.load_state_dict(blob)
    y = np.array([[1.0, 0.0, 0.0, 1.0]])
    for a, b in zip(_output_values(net, y), _output_values(other, y)):
        assert np.array_equal(a, b)
    with pytest.raises(DimensionError):
        other.load_state_dict({k: v for k, v in blob.items() if "code_head" not in k})


def test_architecture_summary(rng):
    net = PrototypeNet.create(rng, 4, 6, hidden_widths=(8, 5), representation_width=7)
    arch = net.architecture()
    assert arch == {"trunk_widths": [4, 8, 5, 7], "code_length": 6, "classes": 4}
