"""Flat ``key = value`` experiment configuration.

One config drives every pipeline stage and every library entry that
takes one.  It checks every value when it is built, so a config that
exists is valid and no caller checks it again.  Serialization is canonical
(fixed field order, repr floats, comma-joined width tuples), so the
hash of the text identifies the configuration and checkpoints can
refuse to load under a different one.
"""

import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError


@dataclass(frozen=True)
class ExperimentConfig:
    # synthetic data
    classes: int = 4
    image_height: int = 16
    image_width: int = 16
    image_channels: int = 1
    train_size: int = 500
    database_size: int = 1000
    query_size: int = 100
    noise_sigma: float = 0.02
    extra_class_probability: float = 0.3
    template_contrast: float = 0.05
    # hash model under attack
    code_length: int = 12
    hash_hidden_widths: tuple = (128, 64)
    hash_epochs: int = 600
    hash_batch_size: int = 32
    hash_learning_rate: float = 0.001
    quantization_weight: float = 0.01
    # adversarial generator training
    attack_epochs: int = 40
    attack_batch_size: int = 16
    attack_learning_rate: float = 0.0001
    discriminator_learning_rate: float = 0.003
    alpha1: float = 1.0
    alpha2: float = 0.0001
    alpha3: float = 1.0
    reconstruction_weight: float = 50.0
    adversarial_weight: float = 1.0
    prototype_hidden_widths: tuple = (64, 32)
    representation_width: int = 32
    decoder_hidden: int = 256
    generator_bottleneck: int = 256
    discriminator_hidden_widths: tuple = (64,)
    disable_hamming_loss: bool = False
    disable_discriminator_classes: bool = False
    # optimization baselines
    epsilon: float = 2.0 / 255.0
    step_size: float = 1.0 / 255.0
    iterations: int = 200
    anchor_set_size: int = 9
    # independently trained model for transfer runs
    transfer_code_length: int = 12
    transfer_hidden_widths: tuple = (96, 48)

    def to_text(self):
        lines = []
        for spec in fields(self):
            lines.append(f"{spec.name} = {_format(spec.type, getattr(self, spec.name))}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        known = {spec.name: spec for spec in fields(cls)}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            values[key] = _parse(known[key].type, key, value.strip(), lineno)
        return cls(**values)

    @classmethod
    def from_file(cls, path):
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as err:
            raise ConfigError(f"config file {path} is not UTF-8 text: {err}") from err
        return cls.from_text(text)

    def config_hash(self):
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def __post_init__(self):
        """The one check of every value; construction refuses an invalid config."""
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.type is float and not math.isfinite(value):
                raise ConfigError(f"{spec.name} must be finite, got {value!r}")
        for names, holds, requirement in _RULES:
            for name in names:
                value = getattr(self, name)
                if not holds(value):
                    raise ConfigError(f"{name} must be {requirement}, got {value!r}")
        for name in _WIDTH_LISTS:
            widths = getattr(self, name)
            if any(width < 1 for width in widths):
                raise ConfigError(f"{name}: widths must be positive, got {widths}")
        # epsilon 0 is the degenerate no-perturbation budget; otherwise
        # a single step must stay inside the ball
        if self.epsilon > 0.0 and self.step_size > self.epsilon:
            raise ConfigError(
                f"step_size {self.step_size!r} exceeds epsilon {self.epsilon!r}"
            )


# (fields, test each value passes, requirement named in the error)
_RULES = (
    (("classes",), lambda v: v >= 2, "at least 2"),
    (("image_height", "image_width", "image_channels", "train_size",
      "database_size", "query_size", "code_length", "transfer_code_length",
      "hash_epochs", "attack_epochs", "attack_batch_size", "representation_width",
      "decoder_hidden", "generator_bottleneck", "iterations", "anchor_set_size"),
     lambda v: v >= 1, "positive"),
    (("hash_batch_size",), lambda v: v >= 2, "at least 2 for pairwise training"),
    (("hash_learning_rate", "attack_learning_rate", "discriminator_learning_rate",
      "step_size"),
     lambda v: v > 0.0, "positive"),
    (("noise_sigma", "quantization_weight", "alpha1", "alpha2", "alpha3",
      "reconstruction_weight", "adversarial_weight", "epsilon"),
     lambda v: v >= 0.0, "non-negative"),
    (("extra_class_probability",), lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    (("template_contrast",), lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
)

_WIDTH_LISTS = ("hash_hidden_widths", "transfer_hidden_widths",
                "prototype_hidden_widths", "discriminator_hidden_widths")


def _format(kind, value):
    if kind is bool:
        return "true" if value else "false"
    if kind is float:
        return repr(float(value))
    if kind is tuple:
        return ",".join(str(int(v)) for v in value)
    return str(value)


def _parse(kind, key, text, lineno):
    try:
        if kind is bool:
            if text == "true":
                return True
            if text == "false":
                return False
            raise ValueError(f"expected true or false, got {text!r}")
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        if kind is tuple:
            if not text:
                return ()
            return tuple(int(piece.strip()) for piece in text.split(","))
    except ValueError as err:
        raise ConfigError(f"line {lineno}: bad value for {key!r}: {err}") from err
    raise ConfigError(f"line {lineno}: no parser for field type {kind!r}")
