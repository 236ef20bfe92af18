"""Adam optimizer acting on watched tensors in place."""

import numpy as np

from .errors import InputError

# The standard decay rates and denominator offset; no caller varies them.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Adaptive-moment descent over a fixed parameter list.

    Keeps first/second moment estimates per parameter and applies the
    bias-corrected update.  ``step`` always descends: callers wanting
    ascent negate their objective before the backward pass.
    """

    def __init__(self, params, learning_rate):
        if learning_rate <= 0.0:
            raise InputError(f"learning rate must be positive, got {learning_rate}")
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.count = 0
        self._m = [np.zeros_like(p.values) for p in self.params]
        self._v = [np.zeros_like(p.values) for p in self.params]
        # two scratch blocks sized to the largest parameter, viewed per
        # parameter, so a step allocates no full-size temporaries
        largest = max((p.values.size for p in self.params), default=0)
        blocks = np.empty(largest), np.empty(largest)
        self._scratch = [tuple(b[:p.values.size].reshape(p.values.shape) for b in blocks)
                         for p in self.params]

    def step(self, grads):
        """Apply one update from a ``Gradients`` view onto every parameter.

        Moments and parameters are updated in place, in the elementwise
        order of ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)`` with
        ``m = b1 * m + (1 - b1) * g`` and ``v = b2 * v + (1 - b2) * (g * g)``,
        where ``b1``, ``b2`` and ``eps`` are ``BETA1``, ``BETA2`` and ``EPSILON``.
        """
        self.count += 1
        correct1 = 1.0 - BETA1 ** self.count
        correct2 = 1.0 - BETA2 ** self.count
        for p, m, v, (a, b) in zip(self.params, self._m, self._v, self._scratch):
            g = grads.wrt(p)
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=a)
            m += a
            np.multiply(g, g, out=a)
            a *= 1.0 - BETA2
            v *= BETA2
            v += a
            np.divide(m, correct1, out=a)
            np.divide(v, correct2, out=b)
            np.sqrt(b, out=b)
            b += EPSILON
            a *= self.learning_rate
            a /= b
            p.values -= a
