"""Checkpoint round-trip, integrity, and model-rebuild tests."""

import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hashattack
from conftest import canonical_digest, parameter_copies
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
from hashattack.config import ExperimentConfig
from hashattack.errors import (
    CheckpointCorruptError,
    CheckpointError,
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


def _save_toy(target, tensors):
    save_checkpoint(target, Checkpoint(kind="x", tensors=tensors, meta={}, seed=1,
                                       config_hash="cfg"))


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
        load_checkpoint(tmp_path / "absent.json", "x", "cfg")


def test_unparseable_file(tmp_path):
    target = tmp_path / "junk.json"
    target.write_text("not json at all {{{")
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(target, "x", "cfg")
    target.write_text('["a", "list"]')
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(target, "x", "cfg")
    # nested past the parser's depth limit, then shallower down to the first file that both
    # parses and has its checksum walked, through the depths where only the parse succeeds
    limit = sys.getrecursionlimit()
    for depth in (5 * limit, *range(limit, 0, -1)):
        target.write_text('{"format_version": 1, "meta": ' + '{"a":' * depth + "1"
                          + "}" * depth + "}")
        with pytest.raises(CheckpointCorruptError) as caught:
            load_checkpoint(target, "x", "cfg")
        if "checksum mismatch" in str(caught.value):
            break


@pytest.mark.parametrize("encode", [lambda text: text.encode("utf-16"),
                                    lambda text: text.encode("utf-16-le"),
                                    lambda text: text.encode() + b"\xff\xfe",
                                    lambda text: text.encode().replace(b'"x"', b'"\xe9"')])
def test_a_file_that_is_not_utf8_is_corrupt(tmp_path, rng, encode):
    # json.loads reads UTF-16 bytes as happily as UTF-8; a checkpoint is UTF-8 only
    target = tmp_path / "model.json"
    _save_toy(target, {"w": rng.random(4)})
    target.write_bytes(encode(target.read_text()))
    with pytest.raises(CheckpointCorruptError, match="unreadable checkpoint"):
        load_checkpoint(target, "x", "cfg")


def test_tampered_tensor_fails_checksum(tmp_path, rng):
    target = tmp_path / "model.json"
    _save_toy(target, {"w": rng.random(4)})
    payload = json.loads(target.read_text())
    data = payload["tensors"]["w"]["data"]
    payload["tensors"]["w"]["data"] = ("0" if data[0] != "0" else "1") + data[1:]
    target.write_text(json.dumps(payload, sort_keys=True, indent=1))
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(target, "x", "cfg")


_JSON_TEXT = st.text(st.characters(codec="utf-8"), max_size=12)  # quotes, NUL, non-ASCII
_HEX = st.binary(max_size=40).map(bytes.hex)
_JSON_LEAF = st.none() | st.booleans() | st.integers() | st.floats() | _JSON_TEXT | _HEX


@settings(deadline=None)
@given(tensors=st.dictionaries(_JSON_TEXT | _HEX, st.fixed_dictionaries(
           {"shape": st.lists(st.integers(0, 9), max_size=3),
            "data": _HEX | _JSON_TEXT | _JSON_LEAF})),
       meta=st.recursive(_JSON_LEAF, lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(_JSON_TEXT | _HEX, inner, max_size=3)),
       seed=_JSON_LEAF)
def test_canonical_digest_is_the_hash_of_the_canonical_dump(tensors, meta, seed):
    for payload in ({"format_version": FORMAT_VERSION, "kind": "x", "seed": seed,
                     "config_hash": "cfg", "meta": meta, "tensors": tensors},
                    meta, tensors, seed):
        assert _canonical_digest(payload) == canonical_digest(payload)


@pytest.mark.parametrize("damage", [lambda data: data[:8] + " " + data[8:],
                                    lambda data: data[:8] + "\n" + data[8:],
                                    lambda data: " " + data + "\t",
                                    lambda data: data[:-1] + "g",
                                    lambda data: data[:-2] + "\u00e9\u00e9"])
def test_tensor_data_that_is_not_plain_hex_is_corrupt(tmp_path, rng, damage):
    # the checksum matches the damaged text, so only the hex check can refuse it
    target = tmp_path / "model.json"
    _save_toy(target, {"w": rng.random(4)})

    def spoil(payload):
        payload["tensors"]["w"]["data"] = damage(payload["tensors"]["w"]["data"])

    _rewrite(target, spoil)
    with pytest.raises(CheckpointCorruptError, match="malformed"):
        load_checkpoint(target, "x", "cfg")


def test_version_gate(tmp_path, rng):
    target = tmp_path / "model.json"
    _save_toy(target, {"w": rng.random(2)})

    def bump(payload):
        payload["format_version"] = FORMAT_VERSION + 1

    _rewrite(target, bump)
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(target, "x", "cfg")


def test_kind_and_config_hash_gates(tmp_path, rng):
    target = tmp_path / "model.json"
    save_checkpoint(target, Checkpoint(
        kind="hash_model", tensors={"w": rng.random(2)}, meta={}, seed=1, config_hash="aaa",
    ))
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(target, "attack_stack", "aaa")
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(target, "hash_model", "bbb")
    # matching expectations pass; a file saved without a hash is refused
    load_checkpoint(target, "hash_model", "aaa")
    save_checkpoint(target, Checkpoint(kind="hash_model", tensors={"w": rng.random(2)},
                                       meta={}, seed=1, config_hash=None))
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(target, "hash_model", "anything")


def test_shape_payload_mismatch_is_corrupt(tmp_path, rng):
    target = tmp_path / "model.json"
    _save_toy(target, {"w": rng.random(4)})

    def shrink(payload):
        payload["tensors"]["w"]["shape"] = [3]

    _rewrite(target, shrink)
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(target, "x", "cfg")


# no int64 element count holds these, so numpy raises OverflowError on each
@pytest.mark.parametrize("shape", [[2**64], [2**70], [1, -(2**63) - 1]],
                         ids=["2**64", "2**70", "below-int64"])
def test_a_shape_entry_beyond_int64_is_corrupt(tmp_path, rng, shape):
    target = tmp_path / "model.json"
    _save_toy(target, {"w": rng.random(4)})

    def widen(payload):
        payload["tensors"]["w"]["shape"] = shape

    _rewrite(target, widen)
    with pytest.raises(CheckpointCorruptError, match="malformed"):
        load_checkpoint(target, "x", "cfg")


def test_tensors_list_with_valid_checksum_is_corrupt(tmp_path, rng):
    target = tmp_path / "model.json"
    _save_toy(target, {"w": rng.random(4)})

    def listify(payload):
        payload["tensors"] = list(payload["tensors"].values())

    _rewrite(target, listify)
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(target, "x", "cfg")


def test_hash_model_round_trip(tmp_path, rng):
    model = HashModel.create(np.random.default_rng(3), 10, 6, hidden_widths=(12,))
    target = tmp_path / "hash.json"
    save_hash_model(target, model, 42, "cfg", {"final_loss": 0.25})
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
    save_hash_model(target, model, 1, "cfg", {})

    def widen(payload):
        payload["meta"]["architecture"]["widths"][1] = 13

    _rewrite(target, widen)
    with pytest.raises(CheckpointCorruptError):
        load_hash_model(target, "cfg")


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
    save_attack_stack(target, stack, 9, "cfg", {})
    loaded, checkpoint = load_attack_stack(target, config_hash="cfg")
    assert checkpoint.seed == 9
    labels = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    want = stack.prototype.forward(labels)
    got = loaded.prototype.forward(labels)
    assert np.array_equal(got.representation.values, want.representation.values)
    assert np.array_equal(got.continuous_code.values, want.continuous_code.values)
    assert np.array_equal(got.predicted_label.values, want.predicted_label.values)
    images = rng.random((2, 12))
    assert np.array_equal(
        loaded.generator.forward(images, want.representation).values,
        stack.generator.forward(images, want.representation).values,
    )
    assert np.array_equal(loaded.discriminator.forward(images).values,
                          stack.discriminator.forward(images).values)


def test_cross_kind_loads_are_rejected(tmp_path, rng):
    stack_path = tmp_path / "stack.json"
    save_attack_stack(stack_path, _demo_stack(), 1, "cfg", {})
    with pytest.raises(CheckpointMismatchError):
        load_hash_model(stack_path, "cfg")
    model_path = tmp_path / "hash.json"
    save_hash_model(model_path, HashModel.create(np.random.default_rng(0), 4, 3,
                                                 hidden_widths=(128, 64)), 1, "cfg", {})
    with pytest.raises(CheckpointMismatchError):
        load_attack_stack(model_path, "cfg")


def test_hash_model_with_an_unknown_tensor_is_corrupt(tmp_path):
    target = tmp_path / "hash.json"
    save_hash_model(target, HashModel.create(np.random.default_rng(3), 10, 6,
                                             hidden_widths=(12,)), 1, "cfg", {})

    def add_tensor(payload):
        payload["tensors"]["layer9.weight"] = payload["tensors"]["layer0.weight"]

    _rewrite(target, add_tensor)
    with pytest.raises(CheckpointCorruptError):
        load_hash_model(target, "cfg")


@pytest.mark.parametrize("network, field", [("prototype", "trunk_widths"),
                                            ("discriminator", "widths")])
def test_attack_stack_with_empty_widths_is_corrupt(tmp_path, network, field):
    target = tmp_path / "stack.json"
    save_attack_stack(target, _demo_stack(), 1, "cfg", {})

    def empty(payload):
        payload["meta"][network][field] = []

    _rewrite(target, empty)
    with pytest.raises(CheckpointCorruptError):
        load_attack_stack(target, "cfg")


def test_attack_stack_with_a_disagreeing_trunk_input_width_is_corrupt(tmp_path):
    # the rebuild takes the trunk's input width from classes, not from here
    target = tmp_path / "stack.json"
    save_attack_stack(target, _demo_stack(), 1, "cfg", {})

    def widen(payload):
        payload["meta"]["prototype"]["trunk_widths"][0] = 99

    _rewrite(target, widen)
    with pytest.raises(CheckpointCorruptError, match="prototype"):
        load_attack_stack(target, "cfg")


def test_attack_stack_with_a_disagreeing_discriminator_output_width_is_corrupt(tmp_path):
    # the rebuild derives the discriminator's output width from classes
    target = tmp_path / "stack.json"
    save_attack_stack(target, _demo_stack(), 1, "cfg", {})

    def widen(payload):
        payload["meta"]["discriminator"]["widths"][-1] = 77

    _rewrite(target, widen)
    with pytest.raises(CheckpointCorruptError, match="discriminator"):
        load_attack_stack(target, "cfg")


def _stored(path):
    payload = json.loads(path.read_text())
    shapes = {name: entry["shape"] for name, entry in payload["tensors"].items()}
    return shapes, payload["meta"]


def test_persisted_format_is_pinned(tmp_path):
    """Tensor names, shapes and meta of both kinds; a reload saves the same bytes."""
    model = HashModel.create(np.random.default_rng(3), 10, 6, hidden_widths=(12,))
    first, again = tmp_path / "hash.json", tmp_path / "hash_again.json"
    save_hash_model(first, model, 42, "cfg", {"final_loss": 0.25})
    shapes, meta = _stored(first)
    assert shapes == {
        "layer0.bias": [12], "layer0.weight": [10, 12],
        "layer1.bias": [6], "layer1.weight": [12, 6],
    }
    assert meta == {"architecture": {"widths": [10, 12, 6], "activations": ["tanh", "tanh"]},
                    "final_loss": 0.25}
    loaded, checkpoint = load_hash_model(first, "cfg")
    save_hash_model(again, loaded, checkpoint.seed, checkpoint.config_hash,
                    {"final_loss": checkpoint.meta["final_loss"]})
    assert again.read_bytes() == first.read_bytes()

    first, again = tmp_path / "stack.json", tmp_path / "stack_again.json"
    save_attack_stack(first, _demo_stack(), 9, "cfg", {})
    shapes, meta = _stored(first)
    assert sorted(shapes) == [
        "discriminator.layer0.bias", "discriminator.layer0.weight",
        "discriminator.layer1.bias", "discriminator.layer1.weight",
        "generator.core.layer0.bias", "generator.core.layer0.weight",
        "generator.core.layer1.bias", "generator.core.layer1.weight",
        "generator.decoder.layer0.bias", "generator.decoder.layer0.weight",
        "generator.decoder.layer1.bias", "generator.decoder.layer1.weight",
        "generator.head.bias", "generator.head.weight",
        "prototype.code_head.bias", "prototype.code_head.weight",
        "prototype.label_head.bias", "prototype.label_head.weight",
        "prototype.trunk.layer0.bias", "prototype.trunk.layer0.weight",
        "prototype.trunk.layer1.bias", "prototype.trunk.layer1.weight",
    ]
    assert shapes["generator.head.weight"] == [24, 12]
    assert shapes["prototype.trunk.layer0.weight"] == [3, 10]
    assert meta == {
        "prototype": {"trunk_widths": [3, 10, 8], "code_length": 6, "classes": 3},
        "generator": {"representation_width": 8, "pixels": 12, "decoder_hidden": 9,
                      "bottleneck": 7},
        "discriminator": {"widths": [12, 5, 4], "classes": 3},
    }
    loaded, checkpoint = load_attack_stack(first, "cfg")
    save_attack_stack(again, loaded, checkpoint.seed, checkpoint.config_hash, {})
    assert again.read_bytes() == first.read_bytes()


_SAVES = {
    "hash_model": lambda path: save_hash_model(
        path, HashModel.create(np.random.default_rng(3), 10, 6, hidden_widths=(12,)), 42, "cfg",
        {"final_loss": 0.1 + 0.2}),
    "attack_stack": lambda path: save_attack_stack(path, _demo_stack(), 9, "cfg", {}),
}


@pytest.mark.parametrize("kind", sorted(_SAVES))
def test_saved_text_is_the_sorted_one_space_dump(tmp_path, kind):
    """The layout the pinned artifact digests hold: key-sorted JSON, indented by one
    space, with no trailing newline."""
    target = tmp_path / f"{kind}.json"
    _SAVES[kind](target)
    text = target.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=1)
    assert not text.endswith("\n")


def test_saving_a_stock_stack_allocates_less_than_twice_its_file(tmp_path):
    """A save streams its text to the file: it holds the tensor hex once, never a
    copy of every weight, one joined text or the encoded bytes of that text."""
    config = ExperimentConfig()
    rng = np.random.default_rng(5)
    pixels = config.image_height * config.image_width * config.image_channels
    stack = AttackStack(
        PrototypeNet.create(rng, config.classes, config.code_length,
                            hidden_widths=config.prototype_hidden_widths,
                            representation_width=config.representation_width),
        Generator.create(rng, config.representation_width, pixels,
                         decoder_hidden=config.decoder_hidden,
                         bottleneck=config.generator_bottleneck),
        Discriminator.create(rng, pixels, config.classes,
                             hidden=config.discriminator_hidden_widths),
    )
    target = tmp_path / "attack_stack.json"
    tracemalloc.start()
    try:
        save_attack_stack(target, stack, 1, "cfg", {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * target.stat().st_size, (peak, target.stat().st_size)


# Fuzzed architecture meta.  A load refuses an architecture that outgrows
# the stored tensors before it allocates anything, but tier-1 runs without
# a memory cap, so integers and floats stay in [-2, 16]: a regression in
# that refusal must not be able to fill the machine's memory.
_SMALL_INT = st.integers(-2, 16)
_JSON = st.recursive(
    st.none() | st.booleans() | _SMALL_INT | st.floats(-2.0, 16.0, allow_nan=False)
    | st.sampled_from(["tanh", "relu", "sigmoid", "linear", "softmax", ""]),
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=10,
)
_ARCH_VALUE = _SMALL_INT | st.lists(_SMALL_INT, max_size=5) | _JSON


def _mutations(fields):
    """{(meta section, field): drawn value} for one to three of ``fields``."""
    return st.dictionaries(st.sampled_from(fields), _ARCH_VALUE, min_size=1, max_size=3)


def _load_fuzzed(save, load, mutations):
    """Save a valid checkpoint, overwrite the drawn meta fields, and load it.

    The load must either give back the stored tensors or raise a
    CheckpointError.
    """
    with tempfile.TemporaryDirectory() as scratch:
        target = Path(scratch) / "fuzzed.json"
        save(target)

        def mutate(payload):
            for (section, name), value in mutations.items():
                payload["meta"][section][name] = value

        _rewrite(target, mutate)
        try:
            network, checkpoint = load(target)
        except CheckpointError:
            return
    loaded = parameter_copies(network)
    assert loaded.keys() == checkpoint.tensors.keys()
    assert all(np.array_equal(loaded[name], checkpoint.tensors[name]) for name in loaded)


@settings(deadline=None)
@given(_mutations([("architecture", "widths"), ("architecture", "activations")]))
def test_fuzzed_hash_model_architecture_loads_or_raises_checkpoint_error(mutations):
    model = HashModel.create(np.random.default_rng(3), 10, 6, hidden_widths=(12,))
    _load_fuzzed(lambda path: save_hash_model(path, model, 1, "cfg", {}),
                 lambda path: load_hash_model(path, "cfg"), mutations)


@settings(deadline=None)
@given(_mutations([("prototype", "trunk_widths"), ("prototype", "code_length"),
                   ("prototype", "classes"), ("generator", "representation_width"),
                   ("generator", "pixels"), ("generator", "decoder_hidden"),
                   ("generator", "bottleneck"), ("discriminator", "widths"),
                   ("discriminator", "classes")]))
def test_fuzzed_attack_stack_architecture_loads_or_raises_checkpoint_error(mutations):
    stack = _demo_stack()
    _load_fuzzed(lambda path: save_attack_stack(path, stack, 1, "cfg", {}),
                 lambda path: load_attack_stack(path, "cfg"), mutations)


_CAPPED_LOAD = """
import resource, sys
from hashattack.checkpoint import load_hash_model
cap = 1536 * 2 ** 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
try:
    load_hash_model(sys.argv[1], "cfg")
except Exception as err:
    print(type(err).__name__)
"""


def test_oversized_architecture_is_refused_before_it_is_built(tmp_path):
    # the checksum is public, so a file can claim ~7 GB of weights; the load
    # runs in a child capped at 1.5 GB of address space, where building the
    # scaffold first would fail with MemoryError instead
    path = tmp_path / "hash_model.json"
    save_hash_model(path, HashModel.create(np.random.default_rng(3), 10, 6, hidden_widths=(12,)),
                    1, "cfg", {})
    _rewrite(path, lambda payload: payload["meta"].update(
        architecture={"widths": [10, 30000, 30000, 6], "activations": ["tanh"] * 3}))
    src = str(Path(hashattack.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", _CAPPED_LOAD, str(path)], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.stdout.strip() == "CheckpointCorruptError", child.stderr
