"""Generator/discriminator attack stack and its alternating training loop.

The generator decodes a label's semantic representation into an
image-shaped conditioning signal, mixes it with the input image through
a bottleneck, and emits the perturbed image through a sigmoid head fed
by a skip connection from the original pixels.  The discriminator scores
an image with one sigmoid node per class plus one realness node.

Training alternates three descent steps per batch: the prototype net and
the generator each descend (pair loss + generator loss - discriminator
loss), then the discriminator descends its mirror image.  The prototype
step builds every term; the generator and discriminator steps build only
the terms that depend on the network they step.  The attacked hashing
model stays frozen throughout.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import build_similarity_matrix, unique_labels
from .errors import (
    DimensionError,
    InputError,
    TargetUnsatisfiableError,
    TrainingDivergedError,
)
from .hashing import binarize, encode_database
from .layers import MLP, DenseLayer, Module, watch_parameters
from .optim import Adam
from .prototype import PrototypeNet, loss_prototype


class Generator(Module):
    """Conditioned image-to-image network with a pixel skip connection."""

    def __init__(self, label_decoder, core, output_head):
        pixels = label_decoder.output_width
        if core.input_width != 2 * pixels or core.output_width != pixels:
            raise DimensionError(
                f"core must map 2*{pixels} -> {pixels}, got "
                f"{core.input_width} -> {core.output_width}"
            )
        if output_head.weight.shape != (2 * pixels, pixels):
            raise DimensionError(
                f"output head must map 2*{pixels} -> {pixels}, got {output_head.weight.shape}"
            )
        if output_head.activation != "sigmoid":
            raise InputError("output head must use sigmoid to keep pixels in [0,1]")
        self.label_decoder = label_decoder
        self.core = core
        self.output_head = output_head

    @classmethod
    def create(cls, rng, representation_width, pixels, decoder_hidden, bottleneck):
        decoder = MLP.create(rng, [representation_width, decoder_hidden, pixels],
                             ["relu", "sigmoid"])
        core = MLP.create(rng, [2 * pixels, bottleneck, pixels], ["relu", "relu"])
        head = DenseLayer.create(rng, 2 * pixels, pixels, "sigmoid")
        return cls(decoder, core, head)

    @property
    def pixels(self):
        return self.label_decoder.output_width

    @property
    def representation_width(self):
        return self.label_decoder.input_width

    def forward(self, images, representations):
        """Traced perturbed batch; both inputs are (batch, ...) rows."""
        conditioning = self.label_decoder.forward(representations)
        mixed = T.concat([images, conditioning], axis=1)
        core_out = self.core.forward(mixed)
        head_in = T.concat([core_out, images], axis=1)
        return self.output_head.forward(head_in)

    def parts(self):
        return [("decoder.", self.label_decoder), ("core.", self.core),
                ("head.", self.output_head)]

    def architecture(self):
        return {
            "representation_width": self.representation_width,
            "pixels": self.pixels,
            "decoder_hidden": self.label_decoder.architecture()["widths"][1],
            "bottleneck": self.core.architecture()["widths"][1],
        }


class Discriminator(Module):
    """Maps an image to per-class scores plus a realness score, all sigmoid."""

    def __init__(self, net, classes):
        if net.output_width != classes + 1:
            raise DimensionError(
                f"discriminator must emit {classes + 1} scores, got {net.output_width}"
            )
        if net.layers[-1].activation != "sigmoid":
            raise InputError("discriminator scores must be sigmoid outputs")
        self.net = net
        self.classes = classes

    @classmethod
    def create(cls, rng, pixels, classes, hidden):
        widths = [pixels, *hidden, classes + 1]
        activations = ["relu"] * len(hidden) + ["sigmoid"]
        return cls(MLP.create(rng, widths, activations), classes)

    @classmethod
    def from_architecture(cls, rng, arch):
        """Inverse of ``architecture``, with weights drawn from ``rng``."""
        widths = arch["widths"]
        return cls.create(rng, widths[0], arch["classes"], hidden=widths[1:-1])

    def forward(self, images):
        return self.net.forward(images)

    def parts(self):
        return [("", self.net)]

    def architecture(self):
        net = self.net.architecture()
        return {"widths": net["widths"], "classes": self.classes}


def loss_hamming(target_codes, continuous_codes):
    """Batch sum of normalized Hamming surrogates, each addend in [0, 2].

    Per pair the value is 1 - <target, continuous>/K: zero when the
    continuous code equals the target exactly, two when antipodal.
    """
    target_codes = np.asarray(target_codes, dtype=np.float64)
    aligned = T.total(T.mul(continuous_codes, T.Tensor(target_codes)))
    code_length = target_codes.shape[-1]
    pairs = 1 if target_codes.ndim == 1 else target_codes.shape[0]
    return T.shift(T.scale(aligned, -1.0 / code_length), float(pairs))


def loss_reconstruction(images, perturbed):
    """Batch sum of squared pixel differences."""
    return T.total(T.square(T.sub(perturbed, images)))


def _score_gap(scores, labels, flag, class_mask):
    """Summed squared gap to [labels, flag] (flag 0 real, 1 generated), class-masked."""
    target = np.concatenate([labels, np.full(np.shape(labels)[:-1] + (1,), flag)], axis=-1)
    gap = T.square(T.sub(scores, T.Tensor(target)))
    if class_mask is not None:
        gap = T.mul(gap, T.Tensor(np.broadcast_to(class_mask, gap.values.shape).copy()))
    return T.total(gap)


def loss_adversarial(discriminator_scores, target_labels, class_mask=None):
    """Generator's fooling loss: squared gap to [target label, real-flag 0]."""
    return _score_gap(discriminator_scores, target_labels, 0.0, class_mask)


def loss_discriminator(real_scores, real_labels, fake_scores, target_labels,
                       class_mask=None):
    """Half the summed squared gaps to [y, 0] for real and [y_t, 1] for fake."""
    real_gap = _score_gap(real_scores, real_labels, 0.0, class_mask)
    fake_gap = _score_gap(fake_scores, target_labels, 1.0, class_mask)
    return T.scale(T.add(real_gap, fake_gap), 0.5)


@dataclass
class AttackStack(Module):
    """The three trained attack networks."""

    prototype: PrototypeNet
    generator: Generator
    discriminator: Discriminator

    @classmethod
    def from_architecture(cls, rng, arch):
        """Inverse of ``architecture``, with weights drawn from ``rng``."""
        return cls(PrototypeNet.from_architecture(rng, arch["prototype"]),
                   Generator.create(rng, **arch["generator"]),
                   Discriminator.from_architecture(rng, arch["discriminator"]))

    def parts(self):
        return [("prototype.", self.prototype), ("generator.", self.generator),
                ("discriminator.", self.discriminator)]

    def architecture(self):
        return {
            "prototype": self.prototype.architecture(),
            "generator": self.generator.architecture(),
            "discriminator": self.discriminator.architecture(),
        }


def _pick_targets(rng, labels, label_set):
    """One target per image, uniform over the label set minus the own label."""
    differs = np.any(labels[:, None, :] != label_set[None, :, :], axis=2)
    counts = differs.sum(axis=1)
    if not counts.all():
        raise TargetUnsatisfiableError("no target label differs from the sample's own label")
    # the values and rng state of one scalar draw per row; take the k-th candidate
    picks = rng.integers(0, counts)
    choices = np.argmax(np.cumsum(differs, axis=1) > picks[:, None], axis=1)
    return label_set[choices]


class _BatchLosses:
    """One forward pass; losses live on the caller's tape.

    Only the terms that depend on ``stepped`` are built, in the full pass's
    order, so its gradient keeps its bits; the prototype step builds all.
    """

    def __init__(self, stack, hash_model, code_matrix, images, real_labels,
                 target_labels, item_labels, config, stepped):
        proto = stack.prototype.forward(T.Tensor(target_labels))
        self.loss_pair = None
        if stepped is stack.prototype:
            similarity = build_similarity_matrix(target_labels, item_labels)
            self.loss_pair = loss_prototype(
                T.transpose(proto.continuous_code), code_matrix, similarity,
                T.transpose(proto.predicted_label), target_labels.T,
                config.alpha1, config.alpha2, config.alpha3,
            )

        image_tensor = T.Tensor(images)
        self.perturbed = stack.generator.forward(image_tensor, proto.representation)
        mask = None
        if config.disable_discriminator_classes:
            mask = np.zeros(stack.discriminator.classes + 1)
            mask[-1] = 1.0
        fake_scores = stack.discriminator.forward(self.perturbed)
        adv = loss_adversarial(fake_scores, target_labels, class_mask=mask)
        if stepped is stack.discriminator:
            gen = T.scale(adv, config.adversarial_weight)
        else:
            recon = loss_reconstruction(image_tensor, self.perturbed)
            gen = T.add(T.scale(recon, config.reconstruction_weight),
                        T.scale(adv, config.adversarial_weight))
            if not config.disable_hamming_loss:
                code_targets = binarize(proto.continuous_code.values)
                adv_codes = hash_model.forward(self.perturbed)
                gen = T.add(loss_hamming(code_targets, adv_codes), gen)
        self.loss_generator = gen

        if stepped is stack.generator:
            # the real side of the discriminator loss is constant here
            fake_gap = _score_gap(fake_scores, target_labels, 1.0, mask)
            self.loss_discriminator = T.scale(fake_gap, 0.5)
        else:
            real_scores = stack.discriminator.forward(image_tensor)
            self.loss_discriminator = loss_discriminator(
                real_scores, real_labels, fake_scores, target_labels, class_mask=mask,
            )

    def minimax(self):
        """Pair loss + generator loss - discriminator loss, of the built terms."""
        descent = self.loss_generator
        if self.loss_pair is not None:
            descent = T.add(self.loss_pair, descent)
        return T.sub(descent, self.loss_discriminator)

    def values(self):
        return (float(self.loss_pair.values),
                float(self.loss_generator.values),
                float(self.loss_discriminator.values))


def train_attack_gan(images, labels, hash_model, config, rng):
    """Alternating minimax training; returns (AttackStack, per-epoch history).

    The prototype net learns against ``hash_model``'s codes of ``images``;
    targets are drawn from the distinct rows of ``labels``.  History rows
    are (epoch, pair loss, generator loss, discriminator loss) means taken
    before each batch's updates.  The hashing model is read but never updated.
    """
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if images.ndim != 2 or images.shape[0] == 0:
        raise InputError("attack training needs a non-empty (N, pixels) image array")
    if labels.shape[0] != images.shape[0]:
        raise DimensionError(f"got {images.shape[0]} images but {labels.shape[0]} label rows")
    label_set = unique_labels(labels)
    code_matrix = encode_database(hash_model, images)

    rng = np.random.default_rng(rng)
    classes = labels.shape[1]
    pixels = images.shape[1]
    stack = AttackStack(
        prototype=PrototypeNet.create(
            rng, classes, hash_model.code_length,
            hidden_widths=config.prototype_hidden_widths,
            representation_width=config.representation_width,
        ),
        generator=Generator.create(
            rng, config.representation_width, pixels,
            decoder_hidden=config.decoder_hidden,
            bottleneck=config.generator_bottleneck,
        ),
        discriminator=Discriminator.create(
            rng, pixels, classes, hidden=config.discriminator_hidden_widths,
        ),
    )
    opt_prototype = Adam(stack.prototype.parameters(),
                         learning_rate=config.attack_learning_rate)
    opt_generator = Adam(stack.generator.parameters(),
                         learning_rate=config.attack_learning_rate)
    opt_discriminator = Adam(stack.discriminator.parameters(),
                             learning_rate=config.discriminator_learning_rate)

    count = images.shape[0]
    history = []
    for epoch in range(config.attack_epochs):
        order = rng.permutation(count)
        epoch_rows = []
        for batch_index, start in enumerate(range(0, count, config.attack_batch_size)):
            batch = order[start:start + config.attack_batch_size]
            targets = _pick_targets(rng, labels[batch], label_set)

            # three alternating updates, each on a fresh forward pass
            batch_values = None
            for net, optimizer, flip in ((stack.prototype, opt_prototype, False),
                                         (stack.generator, opt_generator, False),
                                         (stack.discriminator, opt_discriminator, True)):
                # only the stepped network goes on the tape, so backward
                # skips the idle networks' weight gradients; the detach
                # frees the idle ones from the previous step's tape
                tape = T.Tape()
                stack.detach()
                watch_parameters(tape, net)
                losses = _BatchLosses(stack, hash_model, code_matrix, images[batch],
                                      labels[batch], targets, labels, config, stepped=net)
                if batch_values is None:
                    batch_values = losses.values()
                minimax = losses.minimax()
                if flip:
                    minimax = T.scale(minimax, -1.0)
                objective = T.scale(minimax, 1.0 / batch.shape[0])
                if not np.isfinite(objective.values):
                    raise TrainingDivergedError(
                        epoch, f"training diverged at epoch {epoch}, batch {batch_index}"
                    )
                optimizer.step(T.backward(tape, objective))
            epoch_rows.append(batch_values)
        means = np.mean(np.asarray(epoch_rows), axis=0)
        history.append((epoch, float(means[0]), float(means[1]), float(means[2])))
    stack.detach()
    # a NaN only the pruned steps skip shows at the next batch's full pass; the last has none
    if not all(np.isfinite(p.values).all() for p in stack.parameters()):
        raise TrainingDivergedError(epoch, "training left non-finite attack weights")
    return stack, history


def targeted_examples(stack, images, target_labels):
    """The (count, pixels) perturbed block, one generator step per row pair."""
    images = np.asarray(images, dtype=np.float64)
    target_labels = np.asarray(target_labels, dtype=np.float64)
    if images.shape[0] != target_labels.shape[0]:
        raise DimensionError(
            f"need one target per image, got {images.shape[0]} images and "
            f"{target_labels.shape[0]} targets"
        )
    # row by row on purpose: a batched forward sums in another order and
    # would change the crafted bytes
    perturbed = np.empty_like(images)
    for row, (image, target) in enumerate(zip(images, target_labels)):
        rep = stack.prototype.forward(target.reshape(1, -1)).representation
        perturbed[row] = stack.generator.forward(image.reshape(1, -1), rep).values[0]
    return perturbed
