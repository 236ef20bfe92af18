import hashlib
import json

import numpy as np
import pytest

from hashattack.errors import DimensionError


def finite_difference(loss_fn, arrays, step=1e-5):
    """Central-difference gradients of ``loss_fn(*arrays)`` for each array.

    ``loss_fn`` must take plain numpy arrays and return a python float.
    Used as the independent oracle for every analytic gradient in the
    suite.
    """
    grads = []
    for k, base in enumerate(arrays):
        base = np.asarray(base, dtype=np.float64)
        grad = np.zeros_like(base)
        flat = grad.reshape(-1)
        for j in range(base.size):
            bumped = [np.array(a, dtype=np.float64, copy=True) for a in arrays]
            bumped[k].reshape(-1)[j] += step
            hi = loss_fn(*bumped)
            bumped[k].reshape(-1)[j] -= 2.0 * step
            lo = loss_fn(*bumped)
            flat[j] = (hi - lo) / (2.0 * step)
        grads.append(grad)
    return grads


def assert_grad_close(analytic, numeric, rel=1e-4, floor=1e-7):
    """Elementwise |a - n| <= floor + rel * |n| with shape agreement."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    assert analytic.shape == numeric.shape, (analytic.shape, numeric.shape)
    gap = np.abs(analytic - numeric)
    tol = floor + rel * np.abs(numeric)
    worst = np.argmax(gap - tol)
    assert np.all(gap <= tol), (
        f"gradient mismatch at flat index {worst}: "
        f"analytic {analytic.reshape(-1)[worst]!r} vs numeric {numeric.reshape(-1)[worst]!r}"
    )


def average_precision(relevance):
    """AP over an ordered 0/1 relevance list; 0 when nothing is relevant.

    The per-query oracle that the vectorised scoring in
    ``evaluation.evaluate_queries`` is checked against.
    """
    relevance = np.asarray(relevance, dtype=np.float64)
    if relevance.ndim != 1 or relevance.size == 0:
        raise DimensionError(f"relevance must be a non-empty vector, got {relevance.shape}")
    total = relevance.sum()
    if total == 0.0:
        return 0.0
    hits = np.cumsum(relevance)
    ranks = np.arange(1, relevance.size + 1)
    return float(np.sum((hits / ranks) * relevance) / total)


def canonical_digest(payload):
    """sha256 of the compact, key-sorted JSON text of ``payload``.

    The oracle for ``checkpoint._canonical_digest``, which hashes tensor
    hex as stored rather than dumping it again.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def parameter_copies(module):
    """Named copies of every parameter array of ``module``, as a checkpoint names them."""
    return {name: param.values.copy() for name, param in module.named_parameters()}


@pytest.fixture(autouse=True)
def _no_partial_file_left(request):
    """Fail a test that leaves a temporary ``.partial.*`` file of the stage publisher
    anywhere under its ``tmp_path``."""
    if "tmp_path" not in request.fixturenames:
        yield
        return
    tmp_path = request.getfixturevalue("tmp_path")
    yield
    left = sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob(".partial.*"))
    assert not left, f"temporary files left behind: {left}"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# small enough for sub-second pipeline runs, big enough to exercise
# every stage
TINY_RUN_KWARGS = dict(
    classes=3, image_height=6, image_width=6, train_size=60,
    database_size=80, query_size=12, code_length=8, hash_hidden_widths=(24,),
    hash_epochs=6, attack_epochs=3, attack_batch_size=12,
    prototype_hidden_widths=(16,), representation_width=12, decoder_hidden=20,
    generator_bottleneck=20, discriminator_hidden_widths=(12,), iterations=20,
    transfer_code_length=8, transfer_hidden_widths=(20,),
)


@pytest.fixture
def tiny_config():
    from hashattack.config import ExperimentConfig

    return ExperimentConfig(**TINY_RUN_KWARGS)
