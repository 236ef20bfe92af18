"""Optimization-based targeted attacks used as comparison points.

Target-code selection comes in two flavors: a single random code drawn
from target-labeled items, or the majority-vote anchor code over a
sampled set of them.  Both feed the same epsilon-bounded iterative
signed-gradient descent on the normalized code-alignment loss, so the
generator and the baselines optimize the identical objective.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import build_similarity_matrix
from .errors import DimensionError, InputError, TargetUnsatisfiableError
from .gan import AdversarialExample, loss_hamming
from .hashing import binarize


@dataclass(frozen=True)
class AttackBudget:
    epsilon: float = 8.0 / 255.0
    step_size: float = 1.0 / 255.0
    iterations: int = 200

    def validate(self):
        if self.iterations < 1:
            raise InputError(f"iterations must be at least 1, got {self.iterations}")
        if self.step_size <= 0.0:
            raise InputError(f"step size must be positive, got {self.step_size}")
        if self.epsilon < 0.0:
            raise InputError(f"epsilon must be non-negative, got {self.epsilon}")
        # epsilon 0 is the degenerate no-perturbation budget; otherwise
        # a single step must stay inside the ball
        if self.epsilon > 0.0 and self.step_size > self.epsilon:
            raise InputError(
                f"step size {self.step_size} exceeds epsilon {self.epsilon}"
            )


def _matching_indices(target_label, db_labels):
    shared = build_similarity_matrix(
        np.asarray(target_label, dtype=np.float64).reshape(1, -1), db_labels
    )[0]
    return np.flatnonzero(shared)


def p2p_target_code(target_label, db_labels, code_matrix, rng):
    """A uniformly drawn code among database items sharing a target class."""
    matching = _matching_indices(target_label, db_labels)
    if matching.size == 0:
        raise TargetUnsatisfiableError(
            "no database item shares a class with the target label"
        )
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


def anchor_code_for_label(target_label, db_labels, code_matrix, rng, set_size=9):
    """Anchor code over a sample of target-labeled database items."""
    if set_size < 1:
        raise InputError(f"anchor set size must be positive, got {set_size}")
    matching = _matching_indices(target_label, db_labels)
    if matching.size == 0:
        raise TargetUnsatisfiableError(
            "no database item shares a class with the target label"
        )
    take = min(set_size, matching.size)
    chosen = rng.choice(matching, size=take, replace=False)
    return anchor_code(code_matrix[:, chosen].T)


def iterative_gradient_attack(model, images, target_codes, budget, target_labels=None):
    """Signed-gradient descent on the code-alignment loss within an L-inf ball.

    Attacks a (count, pixels) block toward a (count, K) code block on one
    tape per iteration.  The loss is a batch sum, so each row's gradient
    is that row's own one-row gradient and rows never affect each other.
    Every iteration steps against the gradient sign, then projects onto
    the epsilon ball around the original images and the [0,1] pixel box.
    Each example's ``generation_time`` is the wall time of the whole call,
    when its result exists: per-image latency, not inverse throughput.
    """
    budget.validate()
    images = np.asarray(images, dtype=np.float64)
    target_codes = np.asarray(target_codes, dtype=np.float64)
    if images.ndim != 2:
        raise DimensionError(f"attack operates on a (count, pixels) block, got {images.shape}")
    count = images.shape[0]
    labels = ([None] * count if target_labels is None
              else np.asarray(target_labels, dtype=np.float64))
    if target_codes.shape != (count, model.code_length) or len(labels) != count:
        raise DimensionError(
            f"need {count} target codes of length {model.code_length} and {count} target "
            f"labels, got codes {target_codes.shape} and {len(labels)} labels"
        )
    low = np.clip(images - budget.epsilon, 0.0, 1.0)
    high = np.clip(images + budget.epsilon, 0.0, 1.0)
    start = time.perf_counter()
    perturbed = images.copy()
    for _ in range(budget.iterations):
        tape = T.Tape()
        current = tape.watch(T.Tensor(perturbed))
        objective = loss_hamming(target_codes, model.forward(current))
        gradient = T.backward(tape, objective).wrt(current)
        perturbed = np.clip(perturbed - budget.step_size * np.sign(gradient), low, high)
    elapsed = time.perf_counter() - start
    return [AdversarialExample(original=image, perturbed=row, target_label=label,
                               generation_time=elapsed)
            for image, row, label in zip(images, perturbed, labels)]


def p2p_attack(model, images, target_labels, db_labels, code_matrix, budget, rng):
    """Random-target-code attacks on every (image, target label) row pair."""
    target_labels = np.asarray(target_labels, dtype=np.float64)
    codes = [p2p_target_code(target, db_labels, code_matrix, rng) for target in target_labels]
    return iterative_gradient_attack(model, images, codes, budget, target_labels)


def anchor_attack(model, images, target_labels, db_labels, code_matrix, budget, rng,
                  set_size=9):
    """Anchor-code attacks on every (image, target label) row pair."""
    target_labels = np.asarray(target_labels, dtype=np.float64)
    codes = [anchor_code_for_label(target, db_labels, code_matrix, rng, set_size)
             for target in target_labels]
    return iterative_gradient_attack(model, images, codes, budget, target_labels)


def noise_queries(images, epsilon, rng):
    """Uniform noise in [-epsilon, epsilon] added per pixel, clipped to [0,1]."""
    images = np.asarray(images, dtype=np.float64)
    if epsilon < 0.0:
        raise InputError(f"epsilon must be non-negative, got {epsilon}")
    noise = rng.uniform(-epsilon, epsilon, size=images.shape)
    return np.clip(images + noise, 0.0, 1.0)
