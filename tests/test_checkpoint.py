"""Checkpoint round-trip, integrity, and model-rebuild tests."""

import json

import numpy as np
import pytest

from hashattack.checkpoint import (
    FORMAT_VERSION,
    Checkpoint,
    _canonical_digest,
    load_attack_stack,
    load_checkpoint,
    load_hash_model,
    save_attack_stack,
    save_checkpoint,
    save_hash_model,
)
from hashattack.errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    CheckpointMissingError,
    CheckpointVersionError,
)
from hashattack.gan import AttackStack, Discriminator, Generator
from hashattack.hashing import HashModel
from hashattack.prototype import PrototypeNet


def _rewrite(path, mutate):
    payload = json.loads(path.read_text())
    mutate(payload)
    body = {k: v for k, v in payload.items() if k != "checksum"}
    payload["checksum"] = _canonical_digest(body)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1))


def test_round_trip_is_bit_exact(tmp_path, rng):
    tensors = {
        "a": rng.standard_normal((3, 4)),
        "b": rng.standard_normal(7) * 1e-12,
        "c": np.array(3.5),
        "d": rng.standard_normal((4, 4))[::2, 1:],  # non-contiguous view
    }
    target = tmp_path / "model.json"
    save_checkpoint(target, Checkpoint(
        kind="hash_model", tensors=tensors, meta={"note": "toy"},
        seed=7, config_hash="abc123",
    ))
    loaded = load_checkpoint(target, kind="hash_model", config_hash="abc123")
    assert loaded.kind == "hash_model"
    assert loaded.seed == 7
    assert loaded.config_hash == "abc123"
    assert loaded.meta == {"note": "toy"}
    assert set(loaded.tensors) == set(tensors)
    for name, values in tensors.items():
        assert loaded.tensors[name].dtype == np.float64
        assert np.array_equal(loaded.tensors[name], np.asarray(values))


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointMissingError):
        load_checkpoint(tmp_path / "absent.json")


def test_unparseable_file(tmp_path):
    target = tmp_path / "junk.json"
    target.write_text("not json at all {{{")
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(target)
    target.write_text('["a", "list"]')
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(target)


def test_tampered_tensor_fails_checksum(tmp_path, rng):
    target = tmp_path / "model.json"
    save_checkpoint(target, Checkpoint(kind="x", tensors={"w": rng.random(4)}))
    payload = json.loads(target.read_text())
    data = payload["tensors"]["w"]["data"]
    payload["tensors"]["w"]["data"] = ("0" if data[0] != "0" else "1") + data[1:]
    target.write_text(json.dumps(payload, sort_keys=True, indent=1))
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(target)


def test_version_gate(tmp_path, rng):
    target = tmp_path / "model.json"
    save_checkpoint(target, Checkpoint(kind="x", tensors={"w": rng.random(2)}))

    def bump(payload):
        payload["format_version"] = FORMAT_VERSION + 1

    _rewrite(target, bump)
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(target)


def test_kind_and_config_hash_gates(tmp_path, rng):
    target = tmp_path / "model.json"
    save_checkpoint(target, Checkpoint(
        kind="hash_model", tensors={"w": rng.random(2)}, config_hash="aaa",
    ))
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(target, kind="attack_stack")
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(target, config_hash="bbb")
    # matching expectations pass, and an unpinned save accepts any hash
    load_checkpoint(target, kind="hash_model", config_hash="aaa")
    save_checkpoint(target, Checkpoint(kind="hash_model", tensors={"w": rng.random(2)}))
    load_checkpoint(target, config_hash="anything")


def test_shape_payload_mismatch_is_corrupt(tmp_path, rng):
    target = tmp_path / "model.json"
    save_checkpoint(target, Checkpoint(kind="x", tensors={"w": rng.random(4)}))

    def shrink(payload):
        payload["tensors"]["w"]["shape"] = [3]

    _rewrite(target, shrink)
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(target)


def test_tensors_list_with_valid_checksum_is_corrupt(tmp_path, rng):
    target = tmp_path / "model.json"
    save_checkpoint(target, Checkpoint(kind="x", tensors={"w": rng.random(4)}))

    def listify(payload):
        payload["tensors"] = list(payload["tensors"].values())

    _rewrite(target, listify)
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(target)


def test_hash_model_round_trip(tmp_path, rng):
    model = HashModel.create(np.random.default_rng(3), 10, 6, hidden_widths=(12,))
    target = tmp_path / "hash.json"
    save_hash_model(target, model, seed=42, config_hash="cfg",
                    meta={"final_loss": 0.25})
    loaded, checkpoint = load_hash_model(target, config_hash="cfg")
    assert checkpoint.seed == 42
    assert checkpoint.meta["final_loss"] == 0.25
    assert loaded.net.architecture() == model.net.architecture()
    probe = rng.random((5, 10))
    assert np.array_equal(loaded.continuous_codes(probe),
                          model.continuous_codes(probe))


def test_hash_model_architecture_tensor_disagreement(tmp_path):
    model = HashModel.create(np.random.default_rng(3), 10, 6, hidden_widths=(12,))
    target = tmp_path / "hash.json"
    save_hash_model(target, model)

    def widen(payload):
        payload["meta"]["architecture"]["widths"][1] = 13

    _rewrite(target, widen)
    with pytest.raises(CheckpointCorruptError):
        load_hash_model(target)


def _demo_stack():
    rng = np.random.default_rng(8)
    prototype = PrototypeNet.create(rng, classes=3, code_length=6,
                                    hidden_widths=(10,), representation_width=8)
    generator = Generator.create(rng, representation_width=8, pixels=12,
                                 decoder_hidden=9, bottleneck=7)
    discriminator = Discriminator.create(rng, pixels=12, classes=3, hidden=(5,))
    return AttackStack(prototype, generator, discriminator)


def test_attack_stack_round_trip(tmp_path, rng):
    stack = _demo_stack()
    target = tmp_path / "stack.json"
    save_attack_stack(target, stack, seed=9, config_hash="cfg")
    loaded, checkpoint = load_attack_stack(target, config_hash="cfg")
    assert checkpoint.seed == 9
    labels = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    want_rep, want_code, want_pred = stack.prototype.forward_values(labels)
    got_rep, got_code, got_pred = loaded.prototype.forward_values(labels)
    assert np.array_equal(got_rep, want_rep)
    assert np.array_equal(got_code, want_code)
    assert np.array_equal(got_pred, want_pred)
    images = rng.random((2, 12))
    assert np.array_equal(
        loaded.generator.forward_values(images, want_rep),
        stack.generator.forward_values(images, want_rep),
    )
    assert np.array_equal(loaded.discriminator.forward_values(images),
                          stack.discriminator.forward_values(images))


def test_cross_kind_loads_are_rejected(tmp_path, rng):
    stack_path = tmp_path / "stack.json"
    save_attack_stack(stack_path, _demo_stack())
    with pytest.raises(CheckpointMismatchError):
        load_hash_model(stack_path)
    model_path = tmp_path / "hash.json"
    save_hash_model(model_path, HashModel.create(np.random.default_rng(0), 4, 3))
    with pytest.raises(CheckpointMismatchError):
        load_attack_stack(model_path)
