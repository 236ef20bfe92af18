import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashattack import tensor as T
from hashattack.errors import DimensionError, InputError
from hashattack.gan import Generator, loss_reconstruction
from hashattack.hashing import HashModel
from hashattack.layers import _ACTIVATIONS, MLP, DenseLayer, watch_parameters
from hashattack.prototype import PrototypeNet

from conftest import assert_grad_close, finite_difference, parameter_copies


def test_layer_forward_is_affine_plus_activation():
    layer = DenseLayer(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([0.5, -0.5]), "relu")
    out = layer.forward(T.Tensor([[1.0, 1.0]]))
    assert np.array_equal(out.values, [[1.5, 1.5]])


def test_layer_guards():
    with pytest.raises(InputError):
        DenseLayer(np.zeros((2, 2)), np.zeros(2), "softmax")
    with pytest.raises(DimensionError):
        DenseLayer(np.zeros((2, 2)), np.zeros(3), "relu")
    with pytest.raises(DimensionError):
        DenseLayer.create(np.random.default_rng(0), 0, 3, "relu")


def test_mlp_shape_checks():
    net = MLP.create(np.random.default_rng(0), [3, 5, 2], ["relu", "tanh"])
    assert net.input_width == 3
    assert net.output_width == 2
    out = net.forward(T.Tensor(np.zeros((7, 3))))
    assert out.values.shape == (7, 2)
    with pytest.raises(DimensionError):
        net.forward(T.Tensor(np.zeros((7, 4))))
    with pytest.raises(DimensionError):
        MLP.create(np.random.default_rng(0), [3], [])
    with pytest.raises(DimensionError):
        MLP.create(np.random.default_rng(0), [3, 4], ["relu", "relu"])
    # a mis-composed stack builds, and its first forward's matmul refuses it
    miscomposed = MLP([DenseLayer(np.zeros((3, 4)), np.zeros(4), "relu"),
                       DenseLayer(np.zeros((5, 2)), np.zeros(2), "relu")])
    with pytest.raises(DimensionError, match="inner dimensions"):
        miscomposed.forward(T.Tensor(np.zeros((7, 3))))


def test_same_seed_same_weights():
    a = MLP.create(np.random.default_rng(11), [4, 8, 3], ["relu", "tanh"])
    b = MLP.create(np.random.default_rng(11), [4, 8, 3], ["relu", "tanh"])
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.values, pb.values)


def test_parameter_gradients_match_finite_differences(rng):
    net = MLP.create(rng, [3, 4, 2], ["tanh", "sigmoid"])
    x = rng.normal(size=(6, 3))
    params = net.parameters()
    arrays = [p.values.copy() for p in params]

    def loss_fn(*flat):
        stand_in = MLP.create(np.random.default_rng(0), [3, 4, 2], ["tanh", "sigmoid"])
        for p, a in zip(stand_in.parameters(), flat):
            p.values = np.array(a, copy=True)
        return float(T.total(T.square(stand_in.forward(T.Tensor(x)))).values)

    tape = T.Tape()
    watch_parameters(tape, net)
    loss = T.total(T.square(net.forward(T.Tensor(x))))
    grads = T.backward(tape, loss)
    numeric = finite_difference(loss_fn, arrays)
    for p, want in zip(params, numeric):
        assert_grad_close(grads.wrt(p), want)


def test_export_import_round_trip(rng):
    net = MLP.create(rng, [3, 5, 2], ["relu", "tanh"])
    blob = parameter_copies(net)
    assert list(blob) == ["layer0.weight", "layer0.bias", "layer1.weight", "layer1.bias"]
    assert [p for _, p in net.named_parameters()] == net.parameters()
    other = MLP.create(np.random.default_rng(99), [3, 5, 2], ["relu", "tanh"])
    other.load_state_dict(blob)
    x = rng.normal(size=(4, 3))
    assert np.array_equal(net.forward(T.Tensor(x)).values, other.forward(T.Tensor(x)).values)


def test_import_rejects_missing_and_mismatched():
    net = MLP.create(np.random.default_rng(0), [3, 5, 2], ["relu", "tanh"])
    blob = parameter_copies(net)
    short = dict(blob)
    del short["layer1.bias"]
    with pytest.raises(DimensionError):
        net.load_state_dict(short)
    bad = dict(blob)
    bad["layer0.weight"] = np.zeros((3, 6))
    with pytest.raises(DimensionError):
        net.load_state_dict(bad)
    extra = dict(blob)
    extra["layer9.weight"] = np.zeros((2, 2))
    with pytest.raises(DimensionError):
        net.load_state_dict(extra)


def test_untraced_forward_matches_traced(rng):
    net = MLP.create(rng, [3, 6, 6, 2], ["relu", "tanh", "sigmoid"])
    x = rng.normal(size=(5, 3)) * 20.0
    traced = net.forward(T.Tensor(x)).values
    untraced = net.forward_values(x)
    assert np.array_equal(traced, untraced)
    with pytest.raises(DimensionError):
        net.forward_values(np.zeros((2, 4)))

    # each entry point that takes raw rows gives the bits it gives for the same rows as a Tensor
    images = rng.random((4, 6))
    labels = np.eye(3)[[0, 1, 2, 0]]
    representations = rng.normal(size=(4, 5))
    hash_model = HashModel.create(rng, 6, 8, hidden_widths=(5,))
    generator = Generator.create(rng, representation_width=5, pixels=6,
                                 decoder_hidden=7, bottleneck=4)
    prototype = PrototypeNet.create(rng, 3, 8, hidden_widths=(5,), representation_width=5)
    perturbed = generator.forward(T.Tensor(images), T.Tensor(representations))

    def prototype_outputs(rows):
        out = prototype.forward(rows)
        return [out.representation, out.continuous_code, out.predicted_label]

    entry_points = [
        (lambda rows: [net.layers[0].forward(rows)], x),
        (lambda rows: [net.forward(rows)], x),
        (lambda rows: [hash_model.forward(rows)], images),
        (lambda rows: [generator.forward(rows, representations)], images),
        (prototype_outputs, labels),
        (lambda rows: [loss_reconstruction(rows, perturbed)], images),
    ]
    for outputs, rows in entry_points:
        raw = [t.values.tobytes() for t in outputs(rows)]
        assert raw == [t.values.tobytes() for t in outputs(T.Tensor(rows))]


def test_tape_block_releases_what_it_watched(rng):
    net = MLP.create(rng, [2, 3], ["tanh"])
    with T.Tape() as tape:
        watch_parameters(tape, net)
        assert all(p.tape is tape for p in net.parameters())
    assert all(p.tape is None and p.index is None for p in net.parameters())
    assert net.forward(T.Tensor(np.zeros((1, 2)))).tape is None

    # a block that raises releases them too, and the error propagates
    with pytest.raises(DimensionError):
        with T.Tape() as tape:
            watch_parameters(tape, net)
            net.forward(T.Tensor(np.zeros((1, 5))))
    assert all(p.tape is None for p in net.parameters())

    # a tensor that a later tape re-watched stays on that tape
    later = T.Tape()
    with T.Tape() as tape:
        watch_parameters(tape, net)
        watch_parameters(later, net)
    assert all(p.tape is later for p in net.parameters())
    with later:
        grads = T.backward(later, T.total(net.forward(T.Tensor(np.ones((1, 2))))))
        assert any(np.any(grads.wrt(p) != 0.0) for p in net.parameters())
    assert all(p.tape is None for p in net.parameters())


def test_architecture_summary():
    net = MLP.create(np.random.default_rng(0), [4, 8, 3], ["relu", "tanh"])
    assert net.architecture() == {"widths": [4, 8, 3], "activations": ["relu", "tanh"]}


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 40),
       widths=st.lists(st.integers(1, 70), min_size=2, max_size=4),
       activations=st.lists(st.sampled_from(sorted(_ACTIVATIONS)), min_size=3, max_size=3),
       scale=st.sampled_from([1.0, 30.0]))
def test_a_stack_forward_gives_each_row_its_one_row_bytes(seed, count, widths, activations,
                                                         scale):
    # C-ordered, as targeted_examples hands its stacks to the networks
    rng = np.random.default_rng(seed)
    net = MLP.create(rng, widths, activations[:len(widths) - 1])
    stack = rng.standard_normal((count, 1, widths[0])) * scale
    out = net.forward(stack).values
    assert out.shape == (count, 1, widths[-1])
    for row, single in zip(stack, out):
        assert single.tobytes() == net.forward(row).values.tobytes()


def test_a_stack_forward_refuses_a_block_that_is_not_a_stack_of_rows(rng):
    net = MLP.create(rng, [3, 2], ["relu"])
    for shape in [(4, 1, 2), (4, 2, 4), (2, 4, 1, 2), (3,)]:
        with pytest.raises(DimensionError):
            net.forward(np.zeros(shape))
