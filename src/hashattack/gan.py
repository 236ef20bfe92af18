"""Generator/discriminator attack stack and its alternating training loop.

The generator decodes a label's semantic representation into an
image-shaped conditioning signal, mixes it with the input image through
a bottleneck, and emits the perturbed image through a sigmoid head fed
by a skip connection from the original pixels.  The discriminator scores
an image with one sigmoid node per class plus one realness node.

Training alternates three descent steps per batch: the prototype net and
the generator each descend (pair loss + generator loss - discriminator
loss), then the discriminator descends its mirror image.  The attacked
hashing model stays frozen throughout.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import build_similarity_matrix
from .errors import (
    DimensionError,
    InputError,
    TargetUnsatisfiableError,
    TrainingDivergedError,
)
from .hashing import binarize
from .layers import MLP, DenseLayer, Module, watch_parameters
from .optim import Adam
from .prototype import PrototypeNet, loss_prototype


@dataclass(frozen=True)
class GanConfig:
    epochs: int = 40
    batch_size: int = 16
    learning_rate: float = 1e-4
    discriminator_learning_rate: float = 3e-3
    alpha1: float = 1.0
    alpha2: float = 1e-4
    alpha3: float = 1.0
    reconstruction_weight: float = 50.0
    adversarial_weight: float = 1.0
    prototype_hidden: tuple = (64, 32)
    representation_width: int = 32
    decoder_hidden: int = 128
    generator_bottleneck: int = 128
    discriminator_hidden: tuple = (64,)
    disable_hamming_loss: bool = False
    disable_discriminator_classes: bool = False

    def validate(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise InputError(
                f"epochs and batch size must be positive, got {self.epochs} and {self.batch_size}"
            )
        if self.learning_rate <= 0.0:
            raise InputError(f"learning rate must be positive, got {self.learning_rate}")
        if self.discriminator_learning_rate <= 0.0:
            raise InputError(
                f"discriminator learning rate must be positive, got {self.discriminator_learning_rate}"
            )
        for name in ("alpha1", "alpha2", "alpha3", "reconstruction_weight", "adversarial_weight"):
            if getattr(self, name) < 0.0:
                raise InputError(f"{name} must be non-negative, got {getattr(self, name)}")
        widths = (self.representation_width, self.decoder_hidden, self.generator_bottleneck,
                  *self.prototype_hidden, *self.discriminator_hidden)
        if any(width < 1 for width in widths):
            raise InputError(f"network widths must be positive, got {widths}")


def augment_label(label, role):
    """Append the realness flag: 0 marks a real image, 1 a generated one."""
    label = np.asarray(label, dtype=np.float64)
    if role not in ("real", "fake"):
        raise InputError(f"role must be 'real' or 'fake', got {role!r}")
    flag = 0.0 if role == "real" else 1.0
    if label.ndim == 1:
        return np.concatenate([label, [flag]])
    if label.ndim == 2:
        column = np.full((label.shape[0], 1), flag)
        return np.concatenate([label, column], axis=1)
    raise DimensionError(f"labels must be 1-D or 2-D, got {label.shape}")


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
    def create(cls, rng, representation_width, pixels, decoder_hidden=128, bottleneck=128):
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
        images = T._as_tensor(images)
        representations = T._as_tensor(representations)
        if images.values.shape[0] != representations.values.shape[0]:
            raise DimensionError(
                f"batch sizes disagree: {images.values.shape} vs {representations.values.shape}"
            )
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
    def create(cls, rng, pixels, classes, hidden=(64,)):
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
    if target_codes.shape != continuous_codes.values.shape:
        raise DimensionError(
            f"code blocks disagree: {target_codes.shape} vs {continuous_codes.values.shape}"
        )
    code_length = target_codes.shape[-1]
    pairs = 1 if target_codes.ndim == 1 else target_codes.shape[0]
    aligned = T.total(T.mul(continuous_codes, T.Tensor(target_codes)))
    return T.shift(T.scale(aligned, -1.0 / code_length), float(pairs))


def loss_reconstruction(images, perturbed):
    """Batch sum of squared pixel differences."""
    images = T._as_tensor(images)
    if images.values.shape != perturbed.values.shape:
        raise DimensionError(
            f"image blocks disagree: {images.values.shape} vs {perturbed.values.shape}"
        )
    return T.total(T.square(T.sub(perturbed, images)))


def loss_adversarial(discriminator_scores, target_labels, class_mask=None):
    """Generator's fooling loss: squared gap to [target label, real-flag 0]."""
    target = augment_label(np.asarray(target_labels, dtype=np.float64), "real")
    if discriminator_scores.values.shape != target.shape:
        raise DimensionError(
            f"score block {discriminator_scores.values.shape} does not match "
            f"augmented labels {target.shape}"
        )
    gap = T.square(T.sub(discriminator_scores, T.Tensor(target)))
    if class_mask is not None:
        gap = T.mul(gap, T.Tensor(np.broadcast_to(class_mask, gap.values.shape).copy()))
    return T.total(gap)


def loss_discriminator(real_scores, true_labels, fake_scores, target_labels,
                       class_mask=None):
    """Half the summed squared gaps to [y, 0] for real and [y_t, 1] for fake."""
    real_target = augment_label(np.asarray(true_labels, dtype=np.float64), "real")
    fake_target = augment_label(np.asarray(target_labels, dtype=np.float64), "fake")
    if real_scores.values.shape != real_target.shape or fake_scores.values.shape != fake_target.shape:
        raise DimensionError(
            f"score blocks {real_scores.values.shape}/{fake_scores.values.shape} do not match "
            f"augmented labels {real_target.shape}/{fake_target.shape}"
        )
    real_gap = T.square(T.sub(real_scores, T.Tensor(real_target)))
    fake_gap = T.square(T.sub(fake_scores, T.Tensor(fake_target)))
    if class_mask is not None:
        mask_real = T.Tensor(np.broadcast_to(class_mask, real_gap.values.shape).copy())
        mask_fake = T.Tensor(np.broadcast_to(class_mask, fake_gap.values.shape).copy())
        real_gap = T.mul(real_gap, mask_real)
        fake_gap = T.mul(fake_gap, mask_fake)
    return T.scale(T.add(T.total(real_gap), T.total(fake_gap)), 0.5)


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
    choices = []
    for own in labels:
        candidates = [j for j, cand in enumerate(label_set) if not np.array_equal(cand, own)]
        if not candidates:
            raise TargetUnsatisfiableError(
                "no target label differs from the sample's own label"
            )
        choices.append(candidates[int(rng.integers(0, len(candidates)))])
    return label_set[np.asarray(choices, dtype=np.intp)]


class _BatchLosses:
    """One full forward pass; losses live on the caller's tape."""

    def __init__(self, stack, hash_model, code_matrix, images, true_labels,
                 target_labels, item_labels, config):
        proto = stack.prototype.forward(T.Tensor(target_labels))
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
        recon = loss_reconstruction(image_tensor, self.perturbed)
        gen = T.add(T.scale(recon, config.reconstruction_weight),
                    T.scale(adv, config.adversarial_weight))
        if not config.disable_hamming_loss:
            code_targets = binarize(proto.continuous_code.values)
            adv_codes = hash_model.forward(self.perturbed)
            gen = T.add(loss_hamming(code_targets, adv_codes), gen)
        self.loss_generator = gen

        real_scores = stack.discriminator.forward(image_tensor)
        self.loss_discriminator = loss_discriminator(
            real_scores, true_labels, fake_scores, target_labels, class_mask=mask,
        )

    def values(self):
        return (float(self.loss_pair.values),
                float(self.loss_generator.values),
                float(self.loss_discriminator.values))


def train_attack_gan(images, labels, label_set, hash_model, code_matrix, config, rng):
    """Alternating minimax training; returns (AttackStack, per-epoch history).

    History rows are (epoch, pair loss, generator loss, discriminator
    loss) means taken before each batch's updates.  The hashing model is
    read but never updated.
    """
    config.validate()
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    label_set = np.asarray(label_set, dtype=np.float64)
    if images.ndim != 2 or images.shape[0] == 0:
        raise InputError("attack training needs a non-empty (N, pixels) image array")
    if label_set.shape[0] == 0:
        raise InputError("attack training needs a non-empty target label set")
    if labels.shape[0] != images.shape[0]:
        raise DimensionError(f"got {images.shape[0]} images but {labels.shape[0]} label rows")

    rng = np.random.default_rng(rng)
    classes = labels.shape[1]
    pixels = images.shape[1]
    stack = AttackStack(
        prototype=PrototypeNet.create(
            rng, classes, hash_model.code_length,
            hidden_widths=config.prototype_hidden,
            representation_width=config.representation_width,
        ),
        generator=Generator.create(
            rng, config.representation_width, pixels,
            decoder_hidden=config.decoder_hidden,
            bottleneck=config.generator_bottleneck,
        ),
        discriminator=Discriminator.create(
            rng, pixels, classes, hidden=config.discriminator_hidden,
        ),
    )
    opt_prototype = Adam(stack.prototype.parameters(), learning_rate=config.learning_rate)
    opt_generator = Adam(stack.generator.parameters(), learning_rate=config.learning_rate)
    opt_discriminator = Adam(stack.discriminator.parameters(),
                             learning_rate=config.discriminator_learning_rate)

    count = images.shape[0]
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(count)
        epoch_rows = []
        for batch_index, start in enumerate(range(0, count, config.batch_size)):
            batch = order[start:start + config.batch_size]
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
                                      labels[batch], targets, labels, config)
                pair, gen, dis = losses.values()
                if batch_values is None:
                    batch_values = (pair, gen, dis)
                if not all(np.isfinite(v) for v in (pair, gen, dis)):
                    raise TrainingDivergedError(
                        epoch, f"training diverged at epoch {epoch}, batch {batch_index}"
                    )
                minimax = T.sub(T.add(losses.loss_pair, losses.loss_generator),
                                losses.loss_discriminator)
                if flip:
                    minimax = T.scale(minimax, -1.0)
                objective = T.scale(minimax, 1.0 / batch.shape[0])
                optimizer.step(T.backward(tape, objective))
            epoch_rows.append(batch_values)
        means = np.mean(np.asarray(epoch_rows), axis=0)
        history.append((epoch, float(means[0]), float(means[1]), float(means[2])))
    stack.detach()
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
