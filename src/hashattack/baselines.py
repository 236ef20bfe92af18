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


def _matching_indices(target_labels, db_labels):
    """Each target row's database items sharing a class with it, looked up once per
    distinct label; refuses a label that no item shares."""
    distinct, row_of = np.unique(np.asarray(target_labels, dtype=np.float64), axis=0,
                                 return_inverse=True)
    matches = [np.flatnonzero(shared) for shared in build_similarity_matrix(distinct, db_labels)]
    if not all(matching.size for matching in matches):
        raise TargetUnsatisfiableError("no database item shares a class with the target label")
    return [matches[index] for index in row_of.reshape(-1)]


def p2p_codes(target_labels, db_labels, code_matrix, rng):
    """P2P target codes, one per target row, drawn in row order among the items sharing its class."""
    picks = [matching[int(rng.integers(0, matching.size))]
             for matching in _matching_indices(target_labels, db_labels)]
    return code_matrix.T[picks]


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
    return anchor_codes(np.reshape(target_label, (1, -1)), db_labels, code_matrix, rng,
                        set_size)[0]


def anchor_codes(target_labels, db_labels, code_matrix, rng, set_size):
    """The (count, K) block of anchor codes, one per target label, drawn in row order."""
    if set_size < 1:
        raise InputError(f"anchor set size must be positive, got {set_size}")
    codes = []
    for matching in _matching_indices(target_labels, db_labels):
        chosen = rng.choice(matching, size=min(set_size, matching.size), replace=False)
        codes.append(anchor_code(code_matrix[:, chosen].T))
    return np.stack(codes)


def iterative_gradient_attack(model, images, target_codes, config):
    """Signed-gradient descent on the code-alignment loss within an L-inf ball.

    Attacks a (count, pixels) block toward a (count, K) code block on one
    tape per iteration and returns the perturbed block.  The loss is a
    batch sum, so each row's gradient is that row's own one-row gradient
    and rows never affect each other.  Every iteration steps against the
    gradient sign, then projects onto the epsilon ball around the
    original images and the [0,1] pixel box.  ``config`` gives the
    ``epsilon``, ``step_size`` and ``iterations`` budget.

    One iteration is a fixed function of the block, and the block moves
    on a finite lattice of clipped steps, so it soon repeats.  A hash of
    each block's bytes is kept with its step.  When a block's hash was
    seen at step j, the block of this step s is kept, and the block of
    step s + (s - j) is compared with it bit for bit; if they are equal,
    the block repeats with period s - j, and whole periods of the
    remaining budget are skipped.  A hash collision fails the comparison
    and the descent goes on.  The result is the block of the full
    budget, byte for byte, and only the iterations up to the verified
    repeat and the remainder after the skip run.
    """
    images = np.asarray(images, dtype=np.float64)
    target_codes = np.asarray(target_codes, dtype=np.float64)
    low = np.clip(images - config.epsilon, 0.0, 1.0)
    high = np.clip(images + config.epsilon, 0.0, 1.0)
    perturbed = images.copy()
    seen = {hash(perturbed.tobytes()): 0}
    kept, check_at, step = None, 0, 0
    while step < config.iterations:
        with T.Tape() as tape:
            current = tape.watch(T.Tensor(perturbed))
            objective = loss_hamming(target_codes, model.forward(current))
            gradient = T.backward(tape, objective).wrt(current)
        perturbed = np.clip(perturbed - config.step_size * np.sign(gradient), low, high)
        step += 1
        # bits, not values: -0.0 == 0.0, yet the two can step to different bytes
        if step == check_at and np.array_equal(perturbed.view(np.uint64), kept.view(np.uint64)):
            step += (config.iterations - step) // period * period
        fingerprint = hash(perturbed.tobytes())
        if step >= check_at and fingerprint in seen:  # no comparison is pending
            kept, period = perturbed, step - seen[fingerprint]
            check_at = step + period
        seen[fingerprint] = step
    return perturbed


def p2p_attack(model, images, target_labels, db_labels, code_matrix, config, rng):
    """Random-target-code attacks on every (image, target label) row pair."""
    codes = p2p_codes(target_labels, db_labels, code_matrix, rng)
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
