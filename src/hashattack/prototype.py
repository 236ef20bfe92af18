"""Label-to-code prototype network.

Maps a 0/1 class-indicator vector through a dense trunk to a semantic
representation, then through two heads: a tanh head producing a
continuous code column and a sigmoid head reconstructing the label.
The sign of the continuous code is the label's prototype code, used as
the attack target for that label.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DimensionError, InputError
from .hashing import binarize
from .layers import MLP, DenseLayer, Module


@dataclass
class PrototypeOutput:
    representation: T.Tensor
    continuous_code: T.Tensor
    predicted_label: T.Tensor


class PrototypeNet(Module):
    """Trunk plus code/label heads; operates on (batch, classes) rows."""

    def __init__(self, trunk, code_head, label_head):
        if code_head.activation != "tanh":
            raise InputError("code head must use tanh to bound continuous codes")
        if label_head.activation != "sigmoid":
            raise InputError("label head must use sigmoid for per-class scores")
        width = trunk.output_width
        if code_head.weight.shape[0] != width or label_head.weight.shape[0] != width:
            raise DimensionError(
                f"heads must consume the trunk width {width}, got "
                f"{code_head.weight.shape} and {label_head.weight.shape}"
            )
        self.trunk = trunk
        self.code_head = code_head
        self.label_head = label_head

    @classmethod
    def create(cls, rng, classes, code_length, hidden_widths,
               representation_width):
        widths = [classes, *hidden_widths, representation_width]
        trunk = MLP.create(rng, widths, ["relu"] * (len(widths) - 1))
        code_head = DenseLayer.create(rng, representation_width, code_length, "tanh")
        label_head = DenseLayer.create(rng, representation_width, classes, "sigmoid")
        return cls(trunk, code_head, label_head)

    @classmethod
    def from_architecture(cls, rng, arch):
        """Inverse of ``architecture``, with weights drawn from ``rng``."""
        widths = arch["trunk_widths"]
        return cls.create(rng, arch["classes"], arch["code_length"],
                          hidden_widths=widths[1:-1], representation_width=widths[-1])

    @property
    def classes(self):
        return self.trunk.input_width

    @property
    def code_length(self):
        return self.code_head.weight.shape[1]

    def forward(self, labels):
        """Traced outputs for a (batch, classes) 0/1 label matrix."""
        labels = T._as_tensor(labels)
        if labels.values.ndim != 2 or labels.values.shape[1] != self.classes:
            raise DimensionError(
                f"expected labels (batch, {self.classes}), got {labels.values.shape}"
            )
        if np.any(labels.values.sum(axis=1) == 0):
            raise InputError("a target label with no class is meaningless")
        rep = self.trunk.forward(labels)
        return PrototypeOutput(
            representation=rep,
            continuous_code=self.code_head.forward(rep),
            predicted_label=self.label_head.forward(rep),
        )

    def parts(self):
        return [("trunk.", self.trunk), ("code_head.", self.code_head),
                ("label_head.", self.label_head)]

    def architecture(self):
        trunk = self.trunk.architecture()
        return {
            "trunk_widths": trunk["widths"],
            "code_length": self.code_length,
            "classes": self.classes,
        }


def loss_prototype(continuous_codes, code_matrix, similarity, predicted_labels,
                   labels, alpha1, alpha2, alpha3):
    """Prototype training loss over column-major operands.

    ``continuous_codes`` is a traced (K, M) tensor of tanh outputs,
    ``code_matrix`` the constant (K, N) database codes, ``similarity``
    the (M, N) 0/1 relevance between prototype labels and items, and
    ``predicted_labels``/``labels`` are (C, M).  Three addends:

    - pair term: log(1 + exp(omega)) - s * omega over all (i, j) with
      omega = half the code inner product,
    - quantization: squared gap between the continuous codes and their
      sign, the sign held constant in the gradient,
    - classification: squared gap between predicted and true labels.
    """
    omega = T.scale(T.matmul(T.transpose(continuous_codes), T.Tensor(code_matrix)), 0.5)
    pair = T.total(T.sub(T.softplus(omega), T.mul(T.Tensor(similarity), omega)))
    sign_target = T.Tensor(binarize(continuous_codes.values))
    quantization = T.total(T.square(T.sub(continuous_codes, sign_target)))
    classification = T.total(T.square(T.sub(predicted_labels, T.Tensor(labels))))
    return T.add(
        T.add(T.scale(pair, alpha1), T.scale(quantization, alpha2)),
        T.scale(classification, alpha3),
    )
