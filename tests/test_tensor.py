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


def test_transpose_and_concat_values():
    t = T.transpose(T.Tensor([[1.0, 2.0, 3.0]]))
    assert t.values.shape == (3, 1)
    side = T.concat([T.Tensor([[1.0], [2.0]]), T.Tensor([[3.0, 4.0], [5.0, 6.0]])])
    assert np.array_equal(side.values, [[1.0, 3.0, 4.0], [2.0, 5.0, 6.0]])
    three = T.concat([T.Tensor([[1.0]]), T.Tensor([[2.0, 3.0]]), T.Tensor([[4.0]])])
    assert np.array_equal(three.values, [[1.0, 2.0, 3.0, 4.0]])


def test_concat_with_empty_is_identity():
    x = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    empty = T.Tensor(np.zeros((2, 0)))
    assert np.array_equal(T.concat([x, empty]).values, x.values)
    assert np.array_equal(T.concat([empty, x]).values, x.values)


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
    # concat joins blocks of at least two axes that agree on all but the last
    with pytest.raises(DimensionError):
        T.concat([T.Tensor([[1.0]]), T.Tensor([[1.0], [2.0]])])
    with pytest.raises(DimensionError):
        T.concat([T.Tensor([1.0, 2.0]), T.Tensor([3.0])])
    with pytest.raises(DimensionError):
        T.concat([T.Tensor([[1.0]]), T.Tensor([1.0])])
    with pytest.raises(DimensionError):
        T.concat([T.Tensor(np.ones((1, 2, 2))), T.Tensor(np.ones((2, 2, 2)))])
    with pytest.raises(DimensionError):
        T.concat([T.Tensor(np.ones((1, 2, 2))), T.Tensor(np.ones((2, 2)))])
    with pytest.raises(DimensionError):
        T.concat([])


def test_stacks_of_row_blocks_meet_the_same_guards():
    stack = T.Tensor(np.ones((4, 1, 3)))
    with pytest.raises(DimensionError):
        T.matmul(stack, T.Tensor(np.ones((2, 5))))
    with pytest.raises(DimensionError):
        T.matmul(stack, T.Tensor(np.ones((1, 3, 2))))
    with pytest.raises(DimensionError):
        T.bias_add(stack, T.Tensor(np.ones(2)))
    with pytest.raises(DimensionError):
        T.bias_add(T.Tensor(np.ones(3)), T.Tensor(np.ones(3)))
    with pytest.raises(DimensionError):
        T.bias_add(stack, T.Tensor(np.ones((1, 3))))
    with pytest.raises(DimensionError):
        T.concat([stack, T.Tensor(np.ones((4, 2, 3)))])
    with pytest.raises(DimensionError):
        T.concat([stack, T.Tensor(np.ones((1, 4, 1, 3)))])


def test_ops_on_constants_stay_off_tape():
    out = T.mul(T.Tensor([1.0]), T.Tensor([2.0]))
    assert out.tape is None


def test_mixed_tapes_rejected():
    a = T.Tape().watch(T.Tensor([[1.0]]))
    b = T.Tape().watch(T.Tensor([[2.0]]))
    with pytest.raises(ContractError):
        T.add(a, b)
    # a constant between the attached operands does not hide the mix
    with pytest.raises(ContractError):
        T.concat([a, T.Tensor([[0.0]]), b])
    # a refused op records nothing on either tape
    assert len(a.tape.nodes) == 1 and len(b.tape.nodes) == 1


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


def test_watching_an_op_output_keeps_its_history():
    tape = T.Tape()
    x = tape.watch(T.Tensor([1.0, 2.0]))
    y = T.square(x)
    index = y.index
    assert tape.watch(y) is y and y.index == index
    grads = T.backward(tape, T.total(y))
    assert np.array_equal(grads.wrt(x), [2.0, 4.0])


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
    for shape_a, shape_b in (((2, 3), (2, 1)), ((3, 2), (3, 4))):
        a = rng.normal(size=shape_a)
        b = rng.normal(size=shape_b)

        def build(ta, tb):
            return T.total(T.square(T.concat([ta, tb])))

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
            return T.total(T.square(out))

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


def test_a_node_holds_one_edge_per_attached_operand(rng):
    tape = T.Tape()
    watched = tape.watch(T.Tensor(rng.normal(size=(2, 3))))
    constant = T.Tensor(rng.normal(size=(2, 3)))
    assert tape.nodes[watched.index] == ()
    product = T.mul(watched, constant)
    [(parent, pull)] = tape.nodes[product.index]
    assert parent == watched.index
    grad = rng.normal(size=(2, 3))
    assert np.array_equal(pull(grad), grad * constant.values)

    w1 = tape.watch(T.Tensor(rng.normal(size=(2, 1))))
    w2 = tape.watch(T.Tensor(rng.normal(size=(2, 2))))
    joined = T.concat([w1, constant, w2])
    assert joined.index == len(tape.nodes) - 1
    (first, first_pull), (second, second_pull) = tape.nodes[joined.index]
    assert (first, second) == (w1.index, w2.index)
    grad = rng.normal(size=(2, 6))
    assert np.array_equal(first_pull(grad), grad[:, :1])
    assert np.array_equal(second_pull(grad), grad[:, 4:])


def _stacked_layer_loss(x, c, w, b):
    return T.total(T.square(T.tanh(T.bias_add(T.matmul(T.concat([x, c]), w), b))))


def test_a_stack_of_one_row_blocks_gets_the_gradients_of_its_matrix(rng):
    # a concat pull sliced at shape[1] would hand every (count, 1, w) block columns 0:1
    x = rng.normal(size=(6, 3))
    c = rng.normal(size=(6, 2))
    w = rng.normal(size=(5, 4))
    b = rng.normal(size=(4,))
    block = _tape_gradients(_stacked_layer_loss, [x, c, w, b])
    stack = _tape_gradients(_stacked_layer_loss, [x[:, None, :], c[:, None, :], w, b])
    assert [g.shape for g in stack] == [(6, 1, 3), (6, 1, 2), (5, 4), (4,)]
    for got, want in zip(stack, block):
        assert np.max(np.abs(got.reshape(want.shape) - want)) <= 1e-14 * np.max(np.abs(want))


def test_stacked_gradients_match_finite_differences(rng):
    for leading in ((2, 3), (2, 2, 1)):
        arrays = [rng.normal(size=leading + (3,)), rng.normal(size=leading + (2,)),
                  rng.normal(size=(5, 4)), rng.normal(size=(4,))]

        def loss_fn(*values):
            return float(_stacked_layer_loss(*(T.Tensor(v) for v in values)).values)

        analytic = _tape_gradients(_stacked_layer_loss, arrays)
        numeric = finite_difference(loss_fn, arrays)
        for got, want in zip(analytic, numeric):
            assert_grad_close(got, want)
