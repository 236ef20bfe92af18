"""Dense feed-forward building blocks on top of the gradient tape."""

import numpy as np

from . import tensor as T
from .errors import DimensionError, InputError

_ACTIVATIONS = {
    "relu": T.relu,
    "tanh": T.tanh,
    "sigmoid": T.sigmoid,
}


class Module:
    """A network seen as named parameter tensors.

    A composite lists its sub-networks as (name prefix, sub-network)
    pairs, in parameter order, in ``parts``; a leaf overrides
    ``named_parameters``.  The names are the checkpoint tensor names, so
    persistence needs nothing else from a network.
    """

    def named_parameters(self):
        """(name, tensor) pairs; each name is the part prefixes plus the leaf's own name."""
        for prefix, part in self.parts():
            for name, param in part.named_parameters():
                yield prefix + name, param

    def parameters(self):
        return [param for _, param in self.named_parameters()]

    def state_dict(self):
        """Named copies of every parameter array, for persistence."""
        return {name: param.values.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, mapping):
        """Overwrite every parameter from ``mapping``; names and shapes must match."""
        params = dict(self.named_parameters())
        if mapping.keys() != params.keys():
            raise DimensionError(
                f"missing tensors {sorted(params.keys() - mapping.keys())}, "
                f"unknown tensors {sorted(mapping.keys() - params.keys())}"
            )
        for name, param in params.items():
            incoming = np.asarray(mapping[name], dtype=np.float64)
            if incoming.shape != param.values.shape:
                raise DimensionError(
                    f"tensor {name} has shape {incoming.shape}, expected {param.values.shape}"
                )
            param.values = incoming.copy()


class DenseLayer(Module):
    """One affine map plus a fixed elementwise activation."""

    def __init__(self, weight, bias, activation):
        if activation not in _ACTIVATIONS:
            raise InputError(f"unknown activation {activation!r}")
        weight = np.asarray(weight, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weight.ndim != 2 or bias.ndim != 1 or weight.shape[1] != bias.shape[0]:
            raise DimensionError(
                f"layer needs weight (in, out) and bias (out,), got {weight.shape} and {bias.shape}"
            )
        self.weight = T.Tensor(weight)
        self.bias = T.Tensor(bias)
        self.activation = activation

    @classmethod
    def create(cls, rng, fan_in, fan_out, activation):
        """Initialize weights for the given activation; biases start at zero.

        relu layers draw from a normal with variance 2/fan_in; saturating
        layers draw uniformly with the symmetric limit sqrt(6 / (fan_in + fan_out)).
        """
        if fan_in <= 0 or fan_out <= 0:
            raise DimensionError(f"layer widths must be positive, got {fan_in} and {fan_out}")
        if activation == "relu":
            weight = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        else:
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weight = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        return cls(weight, np.zeros(fan_out), activation)

    def named_parameters(self):
        yield "weight", self.weight
        yield "bias", self.bias

    def forward(self, x):
        pre = T.bias_add(T.matmul(T.as_tensor(x), self.weight), self.bias)
        return _ACTIVATIONS[self.activation](pre)


class MLP(Module):
    """A stack of dense layers applied in order to row-major batches."""

    def __init__(self, layers):
        layers = list(layers)
        if not layers:
            raise DimensionError("a network needs at least one layer")
        self.layers = layers

    @classmethod
    def create(cls, rng, widths, activations):
        """Build from ``widths`` = [in, hidden..., out] and one activation per layer."""
        if len(widths) < 2:
            raise DimensionError(f"widths must name input and output at least, got {widths}")
        if len(activations) != len(widths) - 1:
            raise DimensionError(
                f"{len(widths) - 1} layers need as many activations, got {len(activations)}"
            )
        layers = [
            DenseLayer.create(rng, fan_in, fan_out, act)
            for fan_in, fan_out, act in zip(widths, widths[1:], activations)
        ]
        return cls(layers)

    @property
    def input_width(self):
        return self.layers[0].weight.shape[0]

    @property
    def output_width(self):
        return self.layers[-1].weight.shape[1]

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def forward_values(self, x):
        """``forward(x).values``, the untraced entry point ``bench/tracer.py`` times apart."""
        return self.forward(x).values

    def parts(self):
        return [(f"layer{i}.", layer) for i, layer in enumerate(self.layers)]

    def architecture(self):
        """Widths and activations, for checkpoint compatibility checks."""
        widths = [self.input_width] + [layer.weight.shape[1] for layer in self.layers]
        return {
            "widths": widths,
            "activations": [layer.activation for layer in self.layers],
        }


def watch_parameters(tape, *models):
    for model in models:
        for p in model.parameters():
            tape.watch(p)
