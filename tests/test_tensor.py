import numpy as np
import pytest

from hashattack import tensor as T
from hashattack.errors import ContractError, DimensionError

from conftest import assert_grad_close, finite_difference


def test_elementwise_values_frozen():
    assert np.array_equal(T.mul(T.Tensor([2.0, 3.0]), T.Tensor([4.0, 5.0])).values, [8.0, 15.0])
    assert np.array_equal(T.add(T.Tensor([1.0, -1.0]), T.Tensor([2.0, 2.0])).values, [3.0, 1.0])
    assert np.array_equal(T.sub(T.Tensor([1.0, 1.0]), T.Tensor([2.0, 0.5])).values, [-1.0, 0.5])
    assert np.array_equal(T.scale(T.Tensor([1.0, -2.0]), 3.0).values, [3.0, -6.0])
    assert np.array_equal(T.shift(T.Tensor([1.0, -2.0]), 0.5).values, [1.5, -1.5])
    assert np.array_equal(T.square(T.Tensor([3.0, -2.0])).values, [9.0, 4.0])
    assert np.array_equal(T.relu(T.Tensor([-1.0, 0.0, 2.0])).values, [0.0, 0.0, 2.0])


def test_matmul_value_frozen():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(T.matmul(a, b).values, [[19.0, 22.0], [43.0, 50.0]])


def test_saturating_values_frozen():
    assert T.softplus(T.Tensor([0.0])).values[0] == pytest.approx(np.log(2.0), abs=0.0)
    assert T.sigmoid(T.Tensor([0.0])).values[0] == 0.5
    assert T.tanh(T.Tensor([0.0])).values[0] == 0.0


def test_saturating_outputs_stay_inside_open_ranges():
    extreme = T.Tensor([-1e4, -40.0, 0.0, 40.0, 1e4])
    th = T.tanh(extreme).values
    sg = T.sigmoid(extreme).values
    assert np.all(th > -1.0) and np.all(th < 1.0)
    assert np.all(sg > 0.0) and np.all(sg < 1.0)


def test_softplus_no_overflow():
    out = T.softplus(T.Tensor([800.0, -800.0])).values
    assert out[0] == pytest.approx(800.0)
    assert out[1] >= 0.0 and np.isfinite(out).all()


def test_total_and_mean():
    t = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert float(T.total(t).values) == 10.0
    assert float(T.mean(t).values) == 2.5


def test_transpose_and_concat_values():
    t = T.transpose(T.Tensor([[1.0, 2.0, 3.0]]))
    assert t.values.shape == (3, 1)
    joined = T.concat([T.Tensor([[1.0], [2.0]]), T.Tensor([[3.0]])], axis=0)
    assert np.array_equal(joined.values, [[1.0], [2.0], [3.0]])
    side = T.concat([T.Tensor([[1.0], [2.0]]), T.Tensor([[3.0, 4.0], [5.0, 6.0]])], axis=-1)
    assert np.array_equal(side.values, [[1.0, 3.0, 4.0], [2.0, 5.0, 6.0]])


def test_concat_with_empty_is_identity():
    x = T.Tensor([[1.0, 2.0]])
    empty = T.Tensor(np.zeros((0, 2)))
    assert np.array_equal(T.concat([x, empty], axis=0).values, x.values)


def test_shape_guards():
    with pytest.raises(DimensionError):
        T.add(T.Tensor([1.0]), T.Tensor([1.0, 2.0]))
    with pytest.raises(DimensionError):
        T.sub(T.Tensor([[1.0, 2.0]]), T.Tensor([1.0, 2.0]))
    with pytest.raises(DimensionError):
        T.mul(T.Tensor([[1.0]]), T.Tensor([1.0]))
    with pytest.raises(DimensionError):
        T.matmul(T.Tensor([1.0, 2.0]), T.Tensor([[1.0], [2.0]]))
    with pytest.raises(DimensionError):
        T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[1.0, 2.0]]))
    with pytest.raises(DimensionError):
        T.bias_add(T.Tensor([[1.0, 2.0]]), T.Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(DimensionError):
        T.transpose(T.Tensor([1.0, 2.0]))
    with pytest.raises(DimensionError):
        T.concat([T.Tensor([[1.0]]), T.Tensor([[1.0, 2.0]])], axis=0)
    with pytest.raises(DimensionError):
        T.concat([T.Tensor([1.0])], axis=3)
    with pytest.raises(DimensionError):
        T.concat([])
    with pytest.raises(DimensionError):
        T.concat([T.Tensor([[1.0]]), T.Tensor([1.0])], axis=0)
    with pytest.raises(DimensionError):
        T.mean(T.Tensor(np.zeros((0,))))


def test_ops_on_constants_stay_off_tape():
    out = T.mul(T.Tensor([1.0]), T.Tensor([2.0]))
    assert out.tape is None


def test_mixed_tapes_rejected():
    a = T.Tape().watch(T.Tensor([1.0]))
    b = T.Tape().watch(T.Tensor([2.0]))
    with pytest.raises(ContractError):
        T.add(a, b)


def test_backward_needs_scalar_root_on_tape():
    tape = T.Tape()
    x = tape.watch(T.Tensor([1.0, 2.0]))
    y = T.square(x)
    with pytest.raises(ContractError):
        T.backward(tape, y)
    loose = T.Tensor([3.0])
    with pytest.raises(ContractError):
        T.backward(tape, loose)


def test_unreached_leaf_gets_zero_gradient():
    tape = T.Tape()
    x = tape.watch(T.Tensor([1.0, 2.0]))
    unused = tape.watch(T.Tensor([[5.0]]))
    loss = T.total(T.square(x))
    grads = T.backward(tape, loss)
    assert np.array_equal(grads.wrt(unused), np.zeros((1, 1)))
    assert np.array_equal(grads.wrt(x), [2.0, 4.0])


def test_gradient_lookup_requires_attachment():
    tape = T.Tape()
    x = tape.watch(T.Tensor([1.0]))
    grads = T.backward(tape, T.square(x))
    with pytest.raises(ContractError):
        grads.wrt(T.Tensor([1.0]))


def test_repeated_operand_accumulates():
    tape = T.Tape()
    x = tape.watch(T.Tensor([3.0]))
    loss = T.total(T.add(x, x))
    grads = T.backward(tape, loss)
    assert np.array_equal(grads.wrt(x), [2.0])


def test_shared_fan_out_gradient_is_not_mutated_by_accumulation():
    # the outer add hands one array to both operands, and so does the
    # inner add; x then gets a second contribution from the scale
    tape = T.Tape()
    x = tape.watch(T.Tensor([1.0, 2.0]))
    y = tape.watch(T.Tensor([3.0, 4.0]))
    c = T.Tensor([5.0, 7.0])
    tripled = T.scale(x, 3.0)
    joined = T.add(x, y)
    loss = T.total(T.add(T.mul(joined, c), tripled))
    grads = T.backward(tape, loss)
    assert np.array_equal(grads.wrt(x), [8.0, 10.0])
    assert np.array_equal(grads.wrt(y), [5.0, 7.0])
    assert np.array_equal(grads.wrt(tripled), [1.0, 1.0])
    assert np.array_equal(grads.wrt(joined), [5.0, 7.0])


def _masked_sigmoid(v):
    # the boolean-mask formulation sigmoid_values must reproduce bit for bit
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    expv = np.exp(v[~pos])
    out[~pos] = expv / (1.0 + expv)
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def test_sigmoid_values_bit_identical_to_masked_formula(rng):
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0])
    for block in (edges, rng.normal(size=(16, 256)) * 8.0,
                  rng.normal(size=(16, 1000)) * 40.0):
        want = _masked_sigmoid(block)
        got = T.sigmoid_values(block)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_nodes_after_root_are_ignored():
    tape = T.Tape()
    x = tape.watch(T.Tensor([2.0]))
    loss = T.total(T.square(x))
    T.square(loss)
    grads = T.backward(tape, loss)
    assert np.array_equal(grads.wrt(x), [4.0])


def test_rewatching_across_fresh_tapes():
    p = T.Tensor([1.0, -2.0])
    for expected in ([2.0, -4.0], [2.0, -4.0]):
        tape = T.Tape()
        tape.watch(p)
        grads = T.backward(tape, T.total(T.square(p)))
        assert np.allclose(grads.wrt(p), expected)


def _tape_gradients(build, arrays):
    """Run ``build`` on watched copies of ``arrays``; return loss and grads."""
    tape = T.Tape()
    tensors = [tape.watch(T.Tensor(np.array(a, copy=True))) for a in arrays]
    loss = build(*tensors)
    grads = T.backward(tape, loss)
    return [grads.wrt(t) for t in tensors]


UNARY_CASES = [
    ("relu", lambda t: T.total(T.relu(t))),
    ("tanh", lambda t: T.total(T.tanh(t))),
    ("sigmoid", lambda t: T.total(T.sigmoid(t))),
    ("softplus", lambda t: T.total(T.softplus(t))),
    ("square", lambda t: T.total(T.square(t))),
    ("scale", lambda t: T.total(T.scale(t, -2.5))),
    ("shift", lambda t: T.total(T.shift(t, 1.5))),
    ("mean", lambda t: T.mean(T.square(t))),
    ("transpose", lambda t: T.total(T.square(T.transpose(t)))),
]


@pytest.mark.parametrize("name,build", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_gradients_match_finite_differences(name, build, rng):
    for _ in range(5):
        x = rng.normal(0.0, 2.0, size=(3, 4))

        def loss_fn(a):
            return float(build(T.Tensor(a)).values)

        [analytic] = _tape_gradients(build, [x])
        [numeric] = finite_difference(loss_fn, [x])
        assert_grad_close(analytic, numeric)


BINARY_CASES = [
    ("add", T.add, (3, 4), (3, 4)),
    ("sub", T.sub, (3, 4), (3, 4)),
    ("mul", T.mul, (3, 4), (3, 4)),
    ("matmul", T.matmul, (3, 4), (4, 2)),
    ("bias_add", T.bias_add, (3, 4), (4,)),
]


@pytest.mark.parametrize("name,op,sa,sb", BINARY_CASES, ids=[c[0] for c in BINARY_CASES])
def test_binary_gradients_match_finite_differences(name, op, sa, sb, rng):
    for _ in range(5):
        a = rng.normal(0.0, 1.5, size=sa)
        b = rng.normal(0.0, 1.5, size=sb)

        def build(ta, tb):
            return T.total(T.square(op(ta, tb)))

        def loss_fn(xa, xb):
            return float(build(T.Tensor(xa), T.Tensor(xb)).values)

        analytic = _tape_gradients(build, [a, b])
        numeric = finite_difference(loss_fn, [a, b])
        for got, want in zip(analytic, numeric):
            assert_grad_close(got, want)


def test_concat_gradient_matches_finite_differences(rng):
    for axis, shape_a, shape_b in ((0, (2, 3), (4, 3)), (-1, (3, 2), (3, 4))):
        a = rng.normal(size=shape_a)
        b = rng.normal(size=shape_b)

        def build(ta, tb):
            return T.total(T.square(T.concat([ta, tb], axis=axis)))

        def loss_fn(xa, xb):
            return float(build(T.Tensor(xa), T.Tensor(xb)).values)

        analytic = _tape_gradients(build, [a, b])
        numeric = finite_difference(loss_fn, [a, b])
        for got, want in zip(analytic, numeric):
            assert_grad_close(got, want)


def test_composite_network_gradient_matches_finite_differences(rng):
    """Two dense layers with mixed nonlinearities, FD-checked end to end."""
    for _ in range(3):
        x = rng.normal(size=(5, 3))
        w1 = rng.normal(size=(3, 4)) * 0.7
        b1 = rng.normal(size=(4,)) * 0.1
        w2 = rng.normal(size=(4, 2)) * 0.7
        b2 = rng.normal(size=(2,)) * 0.1

        def build(tx, tw1, tb1, tw2, tb2):
            h = T.tanh(T.bias_add(T.matmul(tx, tw1), tb1))
            out = T.sigmoid(T.bias_add(T.matmul(h, tw2), tb2))
            return T.mean(T.square(out))

        def loss_fn(*arrays):
            return float(build(*(T.Tensor(a) for a in arrays)).values)

        arrays = [x, w1, b1, w2, b2]
        analytic = _tape_gradients(build, arrays)
        numeric = finite_difference(loss_fn, arrays)
        for got, want in zip(analytic, numeric):
            assert_grad_close(got, want)


def test_constant_branches_do_not_record(rng):
    tape = T.Tape()
    x = tape.watch(T.Tensor(rng.normal(size=(2, 2))))
    const = T.Tensor(rng.normal(size=(2, 2)))
    seen = len(tape.nodes)
    T.mul(const, T.Tensor(rng.normal(size=(2, 2))))
    assert len(tape.nodes) == seen
    out = T.mul(x, const)
    assert out.tape is tape
    grads = T.backward(tape, T.total(out))
    assert np.allclose(grads.wrt(x), const.values)
