"""Versioned, checksummed JSON checkpoints for model parameters.

Arrays are stored as little-endian float64 hex so a load reproduces
training output bit for bit.  Every file carries a format version, a
kind tag, the seed and configuration hash it was produced under, and a
content checksum; loading verifies all of them with a distinct error
per failure class.
"""

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    CheckpointMissingError,
    CheckpointVersionError,
)
from .gan import AttackStack, Discriminator, Generator
from .hashing import HashModel
from .layers import MLP
from .prototype import PrototypeNet

FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    kind: str
    tensors: dict
    meta: dict = field(default_factory=dict)
    seed: int = None
    config_hash: str = None


def _canonical_digest(payload):
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def save_checkpoint(path, checkpoint):
    packed = {}
    for name, values in checkpoint.tensors.items():
        array = np.asarray(values, dtype=np.float64)
        # tobytes serializes logical C order whatever the memory layout
        packed[name] = {
            "shape": list(array.shape),
            "data": array.astype("<f8", copy=False).tobytes().hex(),
        }
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": checkpoint.kind,
        "seed": checkpoint.seed,
        "config_hash": checkpoint.config_hash,
        "meta": checkpoint.meta,
        "tensors": packed,
    }
    payload["checksum"] = _canonical_digest(
        {k: v for k, v in payload.items() if k != "checksum"}
    )
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1))


def load_checkpoint(path, kind=None, config_hash=None):
    path = Path(path)
    if not path.is_file():
        raise CheckpointMissingError(f"no checkpoint at {path}")
    try:
        payload = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise CheckpointCorruptError(f"unreadable checkpoint {path}: {err}") from err
    if not isinstance(payload, dict):
        raise CheckpointCorruptError(f"checkpoint {path} is not a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path} uses format version {version!r}, this build reads {FORMAT_VERSION}"
        )
    body = {k: v for k, v in payload.items() if k != "checksum"}
    if payload.get("checksum") != _canonical_digest(body):
        raise CheckpointCorruptError(f"checksum mismatch in {path}")
    if kind is not None and payload.get("kind") != kind:
        raise CheckpointMismatchError(
            f"{path} holds a {payload.get('kind')!r} checkpoint, expected {kind!r}"
        )
    stored_hash = payload.get("config_hash")
    if config_hash is not None and stored_hash not in (None, config_hash):
        raise CheckpointMismatchError(
            f"{path} was written under a different configuration"
        )
    tensors = {}
    try:
        for name, entry in payload["tensors"].items():
            shape = tuple(int(v) for v in entry["shape"])
            flat = np.frombuffer(bytes.fromhex(entry["data"]), dtype="<f8")
            if flat.size != int(np.prod(shape, dtype=np.int64)):
                raise ValueError(f"tensor {name} does not fill shape {shape}")
            tensors[name] = flat.reshape(shape).astype(np.float64)
        return Checkpoint(
            kind=payload["kind"],
            tensors=tensors,
            meta=payload["meta"],
            seed=payload["seed"],
            config_hash=stored_hash,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise CheckpointCorruptError(f"malformed checkpoint {path}: {err}") from err


def _scaffold_rng():
    # initial weights are fully overwritten by import, any seed works
    return np.random.default_rng(0)


def save_hash_model(path, model, seed=None, config_hash=None, meta=None):
    stored = {"architecture": model.net.architecture()}
    if meta:
        stored.update(meta)
    save_checkpoint(path, Checkpoint(
        kind="hash_model",
        tensors=model.net.export_tensors(),
        meta=stored,
        seed=seed,
        config_hash=config_hash,
    ))


def load_hash_model(path, config_hash=None):
    checkpoint = load_checkpoint(path, kind="hash_model", config_hash=config_hash)
    try:
        arch = checkpoint.meta["architecture"]
        net = MLP.create(_scaffold_rng(), arch["widths"], arch["activations"])
        net.import_tensors(checkpoint.tensors)
        return HashModel(net), checkpoint
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointCorruptError(f"malformed checkpoint {path}: {err}") from err


def save_attack_stack(path, stack, seed=None, config_hash=None, meta=None):
    tensors = stack.prototype.export_tensors(prefix="prototype.")
    tensors.update(stack.generator.export_tensors(prefix="generator."))
    tensors.update(stack.discriminator.export_tensors(prefix="discriminator."))
    stored = {
        "prototype": stack.prototype.architecture(),
        "generator": stack.generator.architecture(),
        "discriminator": stack.discriminator.architecture(),
    }
    if meta:
        stored.update(meta)
    save_checkpoint(path, Checkpoint(
        kind="attack_stack",
        tensors=tensors,
        meta=stored,
        seed=seed,
        config_hash=config_hash,
    ))


def load_attack_stack(path, config_hash=None):
    checkpoint = load_checkpoint(path, kind="attack_stack", config_hash=config_hash)
    try:
        proto_arch = checkpoint.meta["prototype"]
        gen_arch = checkpoint.meta["generator"]
        dis_arch = checkpoint.meta["discriminator"]
        trunk_widths = proto_arch["trunk_widths"]
        prototype = PrototypeNet.create(
            _scaffold_rng(),
            classes=proto_arch["classes"],
            code_length=proto_arch["code_length"],
            hidden_widths=tuple(trunk_widths[1:-1]),
            representation_width=trunk_widths[-1],
        )
        generator = Generator.create(
            _scaffold_rng(),
            representation_width=gen_arch["representation_width"],
            pixels=gen_arch["pixels"],
            decoder_hidden=gen_arch["decoder_hidden"],
            bottleneck=gen_arch["bottleneck"],
        )
        dis_widths = dis_arch["widths"]
        discriminator = Discriminator.create(
            _scaffold_rng(),
            pixels=dis_widths[0],
            classes=dis_arch["classes"],
            hidden=tuple(dis_widths[1:-1]),
        )
        prototype.import_tensors(checkpoint.tensors, prefix="prototype.")
        generator.import_tensors(checkpoint.tensors, prefix="generator.")
        discriminator.import_tensors(checkpoint.tensors, prefix="discriminator.")
        return AttackStack(prototype, generator, discriminator), checkpoint
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointCorruptError(f"malformed checkpoint {path}: {err}") from err
