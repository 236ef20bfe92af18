"""Versioned, checksummed JSON checkpoints for model parameters.

Arrays are stored as little-endian float64 hex so a load reproduces
training output bit for bit.  Every file carries a format version, a
kind tag, the seed and configuration hash it was produced under, and a
content checksum.  Every argument is required: a save always records
the seed and config hash, and a load always names the kind and config
hash it expects and verifies them, with a distinct error per failure
class.  Each persisted class (``HashModel``, ``AttackStack``) owns its
stored layout through ``architecture()`` and ``from_architecture``.
"""

import binascii
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import load_json
from .errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    CheckpointMissingError,
    CheckpointVersionError,
)
from .gan import AttackStack
from .hashing import HashModel

FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    kind: str
    tensors: dict
    meta: dict
    seed: int
    config_hash: str


def _canonical_pieces(value):
    """The compact, key-sorted JSON text of ``value`` in pieces; an ASCII string of letters
    and digits, such as tensor hex, needs no escaping, so it passes as is."""
    if isinstance(value, str) and value.isascii() and (raw := value.encode()).isalnum():
        yield from (b'"', raw, b'"')
    elif isinstance(value, dict) and all(isinstance(key, str) for key in value):
        yield b"{"
        for index, key in enumerate(sorted(value)):
            yield (b"," if index else b"") + json.dumps(key).encode() + b":"
            yield from _canonical_pieces(value[key])
        yield b"}"
    else:
        yield json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _canonical_digest(payload):
    """sha256 of ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``."""
    digest = hashlib.sha256()
    for piece in _canonical_pieces(payload):  # one tensor's hex at a time, never joined
        digest.update(piece)
    return digest.hexdigest()


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
    payload["checksum"] = _canonical_digest(payload)
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1))


def load_checkpoint(path, kind, config_hash):
    """The checkpoint at ``path``, gated in order: a file (else ``CheckpointMissingError``),
    a JSON object, the version, the checksum, the kind, the config hash, then the tensors."""
    path = Path(path)
    if not path.is_file():
        raise CheckpointMissingError(f"no checkpoint at {path}")
    payload = load_json(path, f"checkpoint {path}")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path} uses format version {version!r}, this build reads {FORMAT_VERSION}")
    try:
        if payload.pop("checksum", None) != _canonical_digest(payload):
            raise CheckpointCorruptError(f"checksum mismatch in {path}")
        if payload.get("kind") != kind:
            raise CheckpointMismatchError(
                f"{path} holds a {payload.get('kind')!r} checkpoint, expected {kind!r}")
        # the requested hash must be stored exactly: a file without one is refused
        if payload.get("config_hash") != config_hash:
            raise CheckpointMismatchError(
                f"{path} was not written under the requested configuration")
        tensors = {}
        for name, entry in payload["tensors"].items():
            shape = tuple(int(v) for v in entry["shape"])
            # strict: whitespace, an odd length or non-ASCII text is refused
            flat = np.frombuffer(binascii.a2b_hex(entry["data"]), dtype="<f8")
            if flat.size != int(np.prod(shape, dtype=np.int64)):
                raise ValueError(f"tensor {name} does not fill shape {shape}")
            # a read-only view of the file's bytes: load_state_dict copies it
            tensors[name] = flat.reshape(shape)
        return Checkpoint(
            kind=payload["kind"],
            tensors=tensors,
            meta=payload["meta"],
            seed=payload["seed"],
            config_hash=payload["config_hash"],
        )
    # OverflowError: a shape past the int64 count; RecursionError: too deep for the checksum
    except (AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError) as err:
        raise CheckpointCorruptError(f"malformed checkpoint {path}: {err}") from err


def _save_module(path, kind, module, seed, config_hash, meta):
    save_checkpoint(path, Checkpoint(
        kind=kind,
        tensors=module.state_dict(),
        meta={**module.architecture(), **meta},
        seed=seed,
        config_hash=config_hash,
    ))


class _BoundedRng:
    """The weight source of a scaffold whose weights the load overwrites:
    it hands out uninitialised blocks, refusing more than ``limit`` elements
    in all, so an oversized architecture is never allocated."""

    def __init__(self, path, limit):
        self._path, self._left = path, limit

    def normal(self, loc, scale, size):
        self._left -= math.prod(size)
        if self._left < 0:
            raise CheckpointCorruptError(f"{self._path}: architecture outgrows the stored tensors")
        return np.empty(size)

    uniform = normal


def _load_module(path, kind, cls, config_hash):
    """Build a ``cls`` from the stored architecture, then import its tensors.

    ``cls.from_architecture(rng, meta)`` makes the scaffold; the import
    overwrites all of its initial weights, so they are never drawn.  The
    scaffold's ``architecture()`` must then give back every stored
    architecture entry exactly, so redundant fields the build does not
    read cannot disagree with the network.
    """
    checkpoint = load_checkpoint(path, kind, config_hash)
    stored_size = sum(tensor.size for tensor in checkpoint.tensors.values())
    try:
        module = cls.from_architecture(_BoundedRng(path, stored_size), checkpoint.meta)
        for key, rebuilt in module.architecture().items():
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


def save_hash_model(path, model, seed, config_hash, meta):
    _save_module(path, "hash_model", model, seed, config_hash, meta)


def load_hash_model(path, config_hash):
    return _load_module(path, "hash_model", HashModel, config_hash)


def save_attack_stack(path, stack, seed, config_hash, meta):
    _save_module(path, "attack_stack", stack, seed, config_hash, meta)


def load_attack_stack(path, config_hash):
    return _load_module(path, "attack_stack", AttackStack, config_hash)
