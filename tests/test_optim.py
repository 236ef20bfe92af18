import numpy as np
import pytest

from hashattack import tensor as T
from hashattack.errors import InputError
from hashattack.optim import Adam


def _loss_gradients(param, build):
    tape = T.Tape()
    tape.watch(param)
    return T.backward(tape, build(param))


def test_first_step_matches_hand_computation():
    # With fresh moments and gradient 1, bias correction cancels exactly
    # and the step is lr / (1 + epsilon).
    p = T.Tensor([3.0])
    opt = Adam([p], learning_rate=0.001)
    assert opt.count == 0
    grads = _loss_gradients(p, lambda t: T.total(t))
    opt.step(grads)
    assert opt.count == 1
    assert p.values[0] == pytest.approx(3.0 - 0.001 / (1.0 + 1e-8), abs=1e-15)
    opt.step(grads)
    assert opt.count == 2


def test_zero_gradient_fresh_state_leaves_param_unchanged():
    p = T.Tensor([[1.0, -2.0]])
    opt = Adam([p], learning_rate=0.5)
    tape = T.Tape()
    tape.watch(p)
    other = tape.watch(T.Tensor([4.0]))
    grads = T.backward(tape, T.total(other))
    opt.step(grads)
    assert np.array_equal(p.values, [[1.0, -2.0]])


def test_matches_reference_implementation(rng):
    shape = (3, 2)
    start = rng.normal(size=shape)
    p = T.Tensor(start.copy())
    opt = Adam([p], learning_rate=0.05)

    ref = start.copy()
    m = np.zeros(shape)
    v = np.zeros(shape)
    coeffs = [rng.normal(size=shape) for _ in range(10)]
    for step, c in enumerate(coeffs, start=1):
        const = T.Tensor(c)
        grads = _loss_gradients(p, lambda t: T.total(T.mul(t, const)))
        opt.step(grads)

        m = 0.9 * m + 0.1 * c
        v = 0.999 * v + 0.001 * c * c
        m_hat = m / (1.0 - 0.9 ** step)
        v_hat = v / (1.0 - 0.999 ** step)
        ref -= 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(p.values, ref, rtol=0.0, atol=1e-14)


def test_matches_reference_formula_exactly_in_place(rng):
    shapes = [(3, 2), (5,)]
    starts = [rng.normal(size=s) for s in shapes]
    params = [T.Tensor(s.copy()) for s in starts]
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    opt = Adam(params, learning_rate=lr)
    moments = [id(a) for a in opt._m + opt._v]

    refs = [s.copy() for s in starts]
    ms = [np.zeros(s) for s in shapes]
    vs = [np.zeros(s) for s in shapes]
    for step in range(1, 11):
        consts = [T.Tensor(rng.normal(size=s)) for s in shapes]
        tape = T.Tape()
        for p in params:
            tape.watch(p)
        loss = T.add(T.total(T.mul(params[0], consts[0])),
                     T.total(T.mul(params[1], consts[1])))
        opt.step(T.backward(tape, loss))
        assert [id(a) for a in opt._m + opt._v] == moments

        for i, c in enumerate(consts):
            g = c.values
            ms[i] = b1 * ms[i] + (1.0 - b1) * g
            vs[i] = b2 * vs[i] + (1.0 - b2) * (g * g)
            m_hat = ms[i] / (1.0 - b1 ** step)
            v_hat = vs[i] / (1.0 - b2 ** step)
            refs[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.array_equal(params[i].values, refs[i])
            assert np.array_equal(opt._m[i], ms[i])
            assert np.array_equal(opt._v[i], vs[i])


def test_minimizes_quadratic():
    p = T.Tensor([0.0])
    target = T.Tensor([5.0])
    opt = Adam([p], learning_rate=0.3)
    for _ in range(2000):
        grads = _loss_gradients(p, lambda t: T.total(T.square(T.sub(t, target))))
        opt.step(grads)
    assert abs(p.values[0] - 5.0) < 1e-3


def test_updates_every_parameter_and_skips_unreached():
    a = T.Tensor([1.0])
    b = T.Tensor([2.0])
    opt = Adam([a, b], learning_rate=0.1)
    tape = T.Tape()
    tape.watch(a)
    tape.watch(b)
    grads = T.backward(tape, T.total(T.square(a)))
    opt.step(grads)
    assert a.values[0] != 1.0
    # b gets a zero gradient, so all moments stay zero and b must not move.
    assert b.values[0] == 2.0


def test_rejects_bad_hyperparameters():
    p = [T.Tensor([0.0])]
    with pytest.raises(InputError):
        Adam(p, learning_rate=0.0)
