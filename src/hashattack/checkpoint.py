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
from .gan import AttackStack
from .hashing import HashModel
from .layers import MLP

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
    # a requested hash must be stored exactly: a file without one is refused
    stored_hash = payload.get("config_hash")
    if config_hash is not None and stored_hash != config_hash:
        raise CheckpointMismatchError(
            f"{path} was not written under the requested configuration"
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


def _save_module(path, kind, module, architecture, seed, config_hash, meta):
    stored = dict(architecture)
    if meta:
        stored.update(meta)
    save_checkpoint(path, Checkpoint(
        kind=kind,
        tensors=module.state_dict(),
        meta=stored,
        seed=seed,
        config_hash=config_hash,
    ))


def _load_module(path, kind, config_hash, build, architecture):
    """Build a module from the stored architecture, then import its tensors.

    ``build(rng, meta)`` makes the scaffold; the import overwrites all of
    its initial weights, so any seed works.  ``architecture(module)`` must
    then give back every stored architecture entry exactly, so redundant
    fields the build does not read cannot disagree with the network.
    """
    checkpoint = load_checkpoint(path, kind=kind, config_hash=config_hash)
    try:
        module = build(np.random.default_rng(0), checkpoint.meta)
        for key, rebuilt in architecture(module).items():
            stored = checkpoint.meta.get(key)
            if json.dumps(rebuilt, sort_keys=True) != json.dumps(stored, sort_keys=True):
                raise CheckpointCorruptError(
                    f"{path}: stored {key} {stored!r} disagrees with the network "
                    f"it builds, {rebuilt!r}"
                )
        module.load_state_dict(checkpoint.tensors)
    except (IndexError, KeyError, TypeError, ValueError) as err:
        raise CheckpointCorruptError(f"malformed checkpoint {path}: {err}") from err
    return module, checkpoint


def _build_hash_model(rng, meta):
    return HashModel(MLP.create(rng, **meta["architecture"]))


def _hash_model_architecture(model):
    return {"architecture": model.net.architecture()}


def save_hash_model(path, model, seed=None, config_hash=None, meta=None):
    _save_module(path, "hash_model", model, _hash_model_architecture(model),
                 seed, config_hash, meta)


def load_hash_model(path, config_hash=None):
    return _load_module(path, "hash_model", config_hash, _build_hash_model,
                        _hash_model_architecture)


def save_attack_stack(path, stack, seed=None, config_hash=None, meta=None):
    _save_module(path, "attack_stack", stack, stack.architecture(), seed, config_hash, meta)


def load_attack_stack(path, config_hash=None):
    return _load_module(path, "attack_stack", config_hash, AttackStack.from_architecture,
                        AttackStack.architecture)
