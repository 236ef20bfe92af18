"""The attacked deep hashing model and Hamming-space primitives.

The model is a dense stack ending in tanh, so its continuous output
lives in (-1,1)^K; retrieval codes are its elementwise sign.  Training
minimizes the pairwise similarity log-likelihood over continuous codes
plus a quantization penalty pulling them toward +/-1.
"""

import numpy as np

from . import tensor as T
from .data import build_similarity_matrix
from .errors import DimensionError, InputError, TrainingDivergedError
from .layers import MLP, Module, watch_parameters
from .optim import Adam


def binarize(values):
    """Elementwise sign with the fixed tie rule sign(0) = +1."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(values >= 0.0, 1.0, -1.0)


def hamming_distances(query, code_matrix):
    """Disagreement counts from one +/-1 code, or each row of a (Q, K) block, to each column of (K, N).

    +/-1 inner products are exact in float64, so the counts are exact; they come in the smallest
    unsigned dtype holding K (uint8 up to 255 bits), and a stable argsort of them is a radix sort.
    """
    query = np.asarray(query, dtype=np.float64)
    code_matrix = np.asarray(code_matrix, dtype=np.float64)
    if query.ndim not in (1, 2) or code_matrix.ndim != 2 or query.shape[-1] != code_matrix.shape[0]:
        raise DimensionError(
            f"need a code or (Q, K) block and a (K, N) matrix, got {query.shape} and {code_matrix.shape}"
        )
    if not (np.all(np.abs(query) == 1.0) and np.all(np.abs(code_matrix) == 1.0)):
        raise InputError("codes must hold only -1 and +1")
    counts = query @ code_matrix
    np.subtract(query.shape[-1], counts, out=counts)
    counts *= 0.5
    return counts.astype(np.min_scalar_type(query.shape[-1]))


class HashModel(Module):
    """Continuous hash network f plus sign binarization F = sign(f)."""

    def __init__(self, net):
        if net.layers[-1].activation != "tanh":
            raise InputError("hash network must end in tanh to bound continuous codes")
        self.net = net

    @classmethod
    def create(cls, rng, input_width, code_length, hidden_widths):
        widths = [input_width, *hidden_widths, code_length]
        activations = ["tanh"] * (len(widths) - 1)
        return cls(MLP.create(rng, widths, activations))

    @property
    def code_length(self):
        return self.net.output_width

    def forward(self, x):
        """Traced continuous codes (batch, K); use inside training/attack tapes."""
        return self.net.forward(x)

    def parts(self):
        return [("", self.net)]

    def continuous_codes(self, images):
        """Untraced continuous codes (batch, K)."""
        return self.net.forward_values(images)

    def codes(self, images):
        """Binary codes (batch, K) over {-1,+1}."""
        return binarize(self.continuous_codes(images))


def pairwise_code_loss(continuous, similarity, quantization_weight):
    """Batch objective: masked pair log-likelihood plus quantization pull.

    ``continuous`` is a traced (n, K) tensor, ``similarity`` the 0/1
    matrix over the same n samples.  Each unordered pair i<j contributes
    log(1+exp(omega)) - s_ij*omega with omega = half the code inner
    product; the diagonal is excluded.  The quantization term treats
    sign(continuous) as a constant target.
    """
    n = continuous.values.shape[0]
    omega = T.scale(T.matmul(continuous, T.transpose(continuous)), 0.5)
    addends = T.sub(T.softplus(omega), T.mul(T.Tensor(similarity), omega))
    upper = np.triu(np.ones((n, n)), k=1)
    pair_count = max(n * (n - 1) // 2, 1)
    pair_loss = T.scale(T.total(T.mul(addends, T.Tensor(upper))), 1.0 / pair_count)
    target = T.Tensor(binarize(continuous.values))
    quant_loss = T.scale(T.total(T.square(T.sub(continuous, target))), 1.0 / n)
    return T.add(pair_loss, T.scale(quant_loss, quantization_weight))


def train_target_model(images, labels, code_length, hidden_widths, config, rng):
    """Fit a retrieval model of the given shape; returns (model, per-epoch mean losses).

    The shape is explicit because the attacked model and the transfer model
    differ only in shape; the ``hash_*`` and ``quantization_weight`` fields
    of ``config`` set the training.
    """
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if images.ndim != 2 or images.shape[0] < 2:
        # the pairwise loss needs a pair, so one image would train nothing
        raise InputError("training set must be an (N, pixels) array of at least two images")
    if labels.shape[0] != images.shape[0]:
        raise DimensionError(
            f"got {images.shape[0]} images but {labels.shape[0]} label rows"
        )
    if np.any(labels.sum(axis=1) == 0):
        raise InputError("every training sample needs at least one class")

    rng = np.random.default_rng(rng)
    model = HashModel.create(rng, images.shape[1], code_length, hidden_widths)
    optimizer = Adam(model.parameters(), learning_rate=config.hash_learning_rate)
    history = []
    count = images.shape[0]
    for epoch in range(config.hash_epochs):
        order = rng.permutation(count)
        epoch_losses = []
        for start in range(0, count, config.hash_batch_size):
            batch = order[start:start + config.hash_batch_size]
            if batch.shape[0] < 2:
                continue
            tape = T.Tape()
            watch_parameters(tape, model)
            continuous = model.forward(T.Tensor(images[batch]))
            similarity = build_similarity_matrix(labels[batch], labels[batch])
            loss = pairwise_code_loss(continuous, similarity, config.quantization_weight)
            value = float(loss.values)
            if not np.isfinite(value):
                raise TrainingDivergedError(epoch)
            epoch_losses.append(value)
            optimizer.step(T.backward(tape, loss))
        history.append(float(np.mean(epoch_losses)))
    model.detach()
    return model, history


def encode_database(model, images):
    """(K, N) code matrix whose column j encodes database item j."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 2 or images.shape[0] == 0:
        raise InputError("database must be a non-empty (N, pixels) array")
    return model.codes(images).T
