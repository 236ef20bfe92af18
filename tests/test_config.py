"""Configuration parsing, canonical serialization, and hashing tests."""

import dataclasses
import tempfile
from dataclasses import fields
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashattack.config import ExperimentConfig
from hashattack.errors import ConfigError


def test_defaults_round_trip_and_validate():
    config = ExperimentConfig()
    assert ExperimentConfig.from_text(config.to_text()) == config


def test_config_hash_is_stable_and_field_sensitive():
    config = ExperimentConfig()
    digest = config.config_hash()
    assert len(digest) == 64 and digest == config.config_hash()
    assert ExperimentConfig(code_length=16).config_hash() != digest


def test_parse_ignores_comments_blanks_and_spacing():
    config = ExperimentConfig.from_text(
        "# retrieval setup\n"
        "\n"
        "classes=3\n"
        "  code_length   =  8\n"
        "hash_hidden_widths = 32, 16\n"
        "disable_hamming_loss = true\n"
        "noise_sigma = 0.05\n"
    )
    assert config.classes == 3
    assert config.code_length == 8
    assert config.hash_hidden_widths == (32, 16)
    assert config.disable_hamming_loss is True
    assert config.noise_sigma == 0.05
    # everything unlisted keeps its default
    assert config.train_size == ExperimentConfig().train_size


def test_empty_tuple_value():
    config = ExperimentConfig.from_text("hash_hidden_widths =\n")
    assert config.hash_hidden_widths == ()


def test_parse_rejections():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("unknown_key = 3\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("classes = 3\nclasses = 4\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("classes = 3.5\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("disable_hamming_loss = yes\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("hash_hidden_widths = 32,sixteen\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("just a stray line\n")


def test_file_round_trip(tmp_path):
    config = ExperimentConfig(classes=5, epsilon=0.1)
    target = tmp_path / "run.cfg"
    target.write_text(config.to_text())
    assert ExperimentConfig.from_file(target) == config
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(tmp_path / "missing.cfg")


# one row per rule: (overrides, the key named by the ConfigError that
# building raises); rows without a key sit on a boundary and build
_VALIDATE_ROWS = [
    ({"classes": 1}, "classes"),
    ({"image_height": 0}, "image_height"),
    ({"image_width": 0}, "image_width"),
    ({"image_channels": 0}, "image_channels"),
    ({"train_size": 0}, "train_size"),
    ({"database_size": 0}, "database_size"),
    ({"query_size": 0}, "query_size"),
    ({"noise_sigma": -0.1}, "noise_sigma"),
    ({"extra_class_probability": 1.5}, "extra_class_probability"),
    ({"extra_class_probability": -0.1}, "extra_class_probability"),
    ({"extra_class_probability": 0.0}, None),
    ({"extra_class_probability": 1.0}, None),
    ({"template_contrast": 0.0}, "template_contrast"),
    ({"template_contrast": 1.5}, "template_contrast"),
    ({"template_contrast": 1.0}, None),
    ({"code_length": 0}, "code_length"),
    ({"transfer_code_length": 0}, "transfer_code_length"),
    ({"hash_epochs": 0}, "hash_epochs"),
    ({"hash_batch_size": 1}, "hash_batch_size"),
    ({"hash_batch_size": 2}, None),
    ({"hash_learning_rate": 0.0}, "hash_learning_rate"),
    ({"quantization_weight": -1.0}, "quantization_weight"),
    ({"attack_epochs": 0}, "attack_epochs"),
    ({"attack_batch_size": 0}, "attack_batch_size"),
    ({"attack_learning_rate": -1.0}, "attack_learning_rate"),
    ({"discriminator_learning_rate": 0.0}, "discriminator_learning_rate"),
    ({"alpha1": -1.0}, "alpha1"),
    ({"alpha2": -1.0}, "alpha2"),
    ({"alpha3": -1.0}, "alpha3"),
    ({"reconstruction_weight": -0.5}, "reconstruction_weight"),
    ({"adversarial_weight": -1.0}, "adversarial_weight"),
    ({"representation_width": 0}, "representation_width"),
    ({"decoder_hidden": 0}, "decoder_hidden"),
    ({"generator_bottleneck": 0}, "generator_bottleneck"),
    ({"iterations": 0}, "iterations"),
    ({"step_size": 0.0}, "step_size"),
    ({"epsilon": -0.1}, "epsilon"),
    ({"epsilon": 0.01, "step_size": 0.02}, "step_size"),
    ({"step_size": 1.0}, "step_size"),
    # zero epsilon is the degenerate identity budget, any step is fine
    ({"epsilon": 0.0, "step_size": 0.5, "iterations": 3}, None),
    ({"anchor_set_size": 0}, "anchor_set_size"),
]


@pytest.mark.parametrize(
    "overrides, key", _VALIDATE_ROWS,
    ids=[",".join(f"{k}={v}" for k, v in row[0].items()) for row in _VALIDATE_ROWS])
def test_validate_checks_every_rule(overrides, key):
    # a config edited with dataclasses.replace is checked like a new one
    for build in (ExperimentConfig, partial(dataclasses.replace, ExperimentConfig())):
        if key is None:
            build(**overrides)
            continue
        with pytest.raises(ConfigError, match=key) as caught:
            build(**overrides)
        assert type(caught.value) is ConfigError


@pytest.mark.parametrize("line", ["hash_learning_rate = nan", "epsilon = nan",
                                  "noise_sigma = inf"])
def test_validate_rejects_non_finite_floats(line):
    with pytest.raises(ConfigError, match="must be finite") as caught:
        ExperimentConfig.from_text(line + "\n")
    assert type(caught.value) is ConfigError


@pytest.mark.parametrize("line", ["hash_hidden_widths = 0", "transfer_hidden_widths = 96,-2",
                                  "prototype_hidden_widths = -2",
                                  "discriminator_hidden_widths = 64,0"])
def test_validate_rejects_non_positive_hidden_widths(line):
    with pytest.raises(ConfigError, match="widths must be positive") as caught:
        ExperimentConfig.from_text(line + "\n")
    assert type(caught.value) is ConfigError


def test_float_formatting_survives_round_trip():
    config = ExperimentConfig(epsilon=8.0 / 255.0, noise_sigma=1e-4)
    back = ExperimentConfig.from_text(config.to_text())
    assert back.epsilon == config.epsilon
    assert back.noise_sigma == config.noise_sigma


def test_non_utf8_file_is_a_config_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfeclasses = 3\n")
    with pytest.raises(ConfigError, match="not UTF-8"):
        ExperimentConfig.from_file(path)


# Fuzzed config text: free text, and lines built from real keys with
# values of every field type, so the drawn examples reach each parser.
_KEYS = st.sampled_from([spec.name for spec in fields(ExperimentConfig)]) | st.text(max_size=5)
_VALUES = (st.text(max_size=8) | st.integers(-3, 300).map(str) | st.floats().map(repr)
           | st.sampled_from(["true", "false", "32,16", "1,,2", "", "1_0", "9" * 5000]))
_LINES = st.lists(st.tuples(_KEYS, st.sampled_from(["=", " = ", ":", "=="]), _VALUES)
                  .map("".join), max_size=6).map("\n".join)
_TEXT = st.text() | _LINES


def _loads_or_config_error(parse, source):
    try:
        config = parse(source)
    except ConfigError:
        return
    for spec in fields(config):
        assert isinstance(getattr(config, spec.name), spec.type), spec.name


@settings(deadline=None)
@given(_TEXT)
def test_fuzzed_text_loads_or_raises_config_error(text):
    _loads_or_config_error(ExperimentConfig.from_text, text)


@settings(deadline=None)
@given(st.binary(max_size=200) | _TEXT.map(lambda text: text.encode("utf-8", "surrogatepass")))
def test_fuzzed_file_bytes_load_or_raise_config_error(data):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "fuzzed.cfg"
        path.write_bytes(data)
        _loads_or_config_error(ExperimentConfig.from_file, path)
