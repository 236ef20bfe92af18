"""Optimization-based targeted attacks used as comparison points.

Target-code selection comes in two flavors: a single random code drawn
from target-labeled items, or the majority-vote anchor code over a
sampled set of them.  Both feed the same epsilon-bounded iterative
signed-gradient descent on the normalized code-alignment loss, so the
generator and the baselines optimize the identical objective.
"""

import numpy as np

from . import tensor as T
from .data import build_similarity_matrix
from .errors import InputError, TargetUnsatisfiableError
from .gan import loss_hamming
from .hashing import binarize


def _matching_indices(target_label, db_labels):
    """Database items sharing a class with the target label; refuses an empty match."""
    shared = build_similarity_matrix(
        np.asarray(target_label, dtype=np.float64).reshape(1, -1), db_labels
    )[0]
    matching = np.flatnonzero(shared)
    if matching.size == 0:
        raise TargetUnsatisfiableError(
            "no database item shares a class with the target label"
        )
    return matching


def p2p_target_code(target_label, db_labels, code_matrix, rng):
    """A uniformly drawn code among database items sharing a target class."""
    matching = _matching_indices(target_label, db_labels)
    pick = matching[int(rng.integers(0, matching.size))]
    return code_matrix[:, pick].copy()


def anchor_code(codes):
    """Component-wise majority vote over codes given as rows, ties to +1.

    The vote minimizes the total Hamming distance to the set, since each
    component contributes independently.
    """
    codes = np.asarray(codes, dtype=np.float64)
    if codes.ndim != 2 or codes.shape[0] == 0:
        raise InputError(f"need a non-empty (count, K) code array, got {codes.shape}")
    return binarize(codes.sum(axis=0))


def anchor_code_for_label(target_label, db_labels, code_matrix, rng, set_size):
    """Anchor code over a sample of target-labeled database items."""
    if set_size < 1:
        raise InputError(f"anchor set size must be positive, got {set_size}")
    matching = _matching_indices(target_label, db_labels)
    take = min(set_size, matching.size)
    chosen = rng.choice(matching, size=take, replace=False)
    return anchor_code(code_matrix[:, chosen].T)


def anchor_codes(target_labels, db_labels, code_matrix, rng, set_size):
    """The (count, K) block of anchor codes, one per target label, drawn in row order."""
    return np.stack([anchor_code_for_label(target, db_labels, code_matrix, rng, set_size)
                     for target in target_labels])


def iterative_gradient_attack(model, images, target_codes, config):
    """Signed-gradient descent on the code-alignment loss within an L-inf ball.

    Attacks a (count, pixels) block toward a (count, K) code block on one
    tape per iteration and returns the perturbed block.  The loss is a
    batch sum, so each row's gradient is that row's own one-row gradient
    and rows never affect each other.  Every iteration steps against the
    gradient sign, then projects onto the epsilon ball around the
    original images and the [0,1] pixel box.  ``config`` gives the
    ``epsilon``, ``step_size`` and ``iterations`` budget.
    """
    images = np.asarray(images, dtype=np.float64)
    target_codes = np.asarray(target_codes, dtype=np.float64)
    low = np.clip(images - config.epsilon, 0.0, 1.0)
    high = np.clip(images + config.epsilon, 0.0, 1.0)
    perturbed = images.copy()
    for _ in range(config.iterations):
        with T.Tape() as tape:
            current = tape.watch(T.Tensor(perturbed))
            objective = loss_hamming(target_codes, model.forward(current))
            gradient = T.backward(tape, objective).wrt(current)
        perturbed = np.clip(perturbed - config.step_size * np.sign(gradient), low, high)
    return perturbed


def p2p_attack(model, images, target_labels, db_labels, code_matrix, config, rng):
    """Random-target-code attacks on every (image, target label) row pair."""
    codes = [p2p_target_code(target, db_labels, code_matrix, rng) for target in target_labels]
    return iterative_gradient_attack(model, images, codes, config)


def anchor_attack(model, images, target_labels, db_labels, code_matrix, config, rng):
    """Anchor-code attacks over ``config.anchor_set_size`` items per row pair."""
    codes = anchor_codes(target_labels, db_labels, code_matrix, rng, config.anchor_set_size)
    return iterative_gradient_attack(model, images, codes, config)


def noise_queries(images, epsilon, rng):
    """Uniform noise in [-epsilon, epsilon] added per pixel, clipped to [0,1]."""
    images = np.asarray(images, dtype=np.float64)
    if epsilon < 0.0:
        raise InputError(f"epsilon must be non-negative, got {epsilon}")
    noise = rng.uniform(-epsilon, epsilon, size=images.shape)
    return np.clip(images + noise, 0.0, 1.0)
