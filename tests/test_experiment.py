"""Pipeline stage orchestration tests on a sub-second configuration."""

import dataclasses
import io
import json
import tempfile
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashattack import experiment
from hashattack.data import DataConfig, gen_synthetic_dataset, load_bundle, save_bundle
from hashattack.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointMissingError,
    InputError,
)

METHOD_NAMES = {"Original", "Noise", "P2P", "DHTA", "ProS-GAN",
                "Anchor-code", "Prototype-code"}
CURVE_SLUGS = {"retrieval", "original", "noise", "p2p", "dhta", "prosgan",
               "anchor", "prototype"}


def test_stage_rng_streams_are_stable_and_distinct():
    first = experiment.stage_rng(7, "hash").random(4)
    again = experiment.stage_rng(7, "hash").random(4)
    other_stream = experiment.stage_rng(7, "attack").random(4)
    other_seed = experiment.stage_rng(8, "hash").random(4)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other_stream)
    assert not np.array_equal(first, other_seed)
    with pytest.raises(InputError):
        experiment.stage_rng(7, "nonsense")


def test_gen_data_stage_writes_bundle(tiny_config, tmp_path):
    result = experiment.execute_stage("gen_data", tiny_config, 5, tmp_path)
    assert result == {"train": 60, "database": 80, "query": 12, "pixels": 36}
    bundle = load_bundle(tmp_path / "dataset.npz")
    assert bundle.train_images.shape == (60, 36)
    assert not (tmp_path / "gen_data.partial").exists()
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert "gen_data_seconds" in timings


def test_missing_predecessor_fails_and_leaves_marker(tiny_config, tmp_path):
    with pytest.raises(CheckpointMissingError):
        experiment.execute_stage("train_hash", tiny_config, 5, tmp_path)
    marker = tmp_path / "train_hash.partial"
    assert marker.exists()
    assert "CheckpointMissingError" in marker.read_text()
    # the marker clears once the stage later succeeds
    experiment.execute_stage("gen_data", tiny_config, 5, tmp_path)
    experiment.execute_stage("train_hash", tiny_config, 5, tmp_path)
    assert not marker.exists()


def test_unknown_stage_is_rejected(tiny_config, tmp_path):
    with pytest.raises(InputError):
        experiment.execute_stage("compress", tiny_config, 5, tmp_path)


def test_config_change_is_caught_between_stages(tiny_config, tmp_path):
    experiment.execute_stage("gen_data", tiny_config, 5, tmp_path)
    experiment.execute_stage("train_hash", tiny_config, 5, tmp_path)
    changed = dataclasses.replace(tiny_config, code_length=10)
    with pytest.raises(CheckpointMismatchError):
        experiment.execute_stage("encode_db", changed, 5, tmp_path)


def test_full_pipeline_outputs(tiny_config, tmp_path):
    results = experiment.run_experiment(tiny_config, 9, tmp_path)
    expected_files = [
        "dataset.npz", "hash_model.json", "hash_training.csv", "codes.npz",
        "attack_stack.json", "attack_training.csv", "adversarial_prosgan.npz",
        "adversarial_p2p.npz", "adversarial_dhta.npz", "adversarial_noise.npz",
        "report.json", "timings.json", "transfer_model.json",
        "transfer_report.json",
    ]
    for name in expected_files:
        assert (tmp_path / name).is_file(), name
    for slug in CURVE_SLUGS:
        assert (tmp_path / f"pr_curve_{slug}.csv").is_file(), slug
        assert (tmp_path / f"topn_{slug}.csv").is_file(), slug

    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["methods"]) == METHOD_NAMES
    assert report["seed"] == 9
    assert report["config_hash"] == tiny_config.config_hash()
    for name, row in report["methods"].items():
        assert 0.0 <= row["t_map"] <= 1.0, name
    assert report["methods"]["Original"]["perceptibility"] is None
    assert report["methods"]["ProS-GAN"]["perceptibility"] > 0.0
    assert 0.0 <= report["retrieval_map"] <= 1.0

    transfer = json.loads((tmp_path / "transfer_report.json").read_text())
    assert set(transfer) == {"seed", "config_hash", "original_t_map",
                             "adversarial_t_map", "transfer_gain"}
    assert transfer["transfer_gain"] == pytest.approx(
        transfer["adversarial_t_map"] - transfer["original_t_map"])

    assert results["report"] == report

    header = (tmp_path / "hash_training.csv").read_text().splitlines()[0]
    assert header == "epoch,loss"
    attack_lines = (tmp_path / "attack_training.csv").read_text().splitlines()
    assert attack_lines[0] == "epoch,prototype_loss,generator_loss,discriminator_loss"
    assert len(attack_lines) == 1 + tiny_config.attack_epochs
    curve_header = (tmp_path / "pr_curve_prosgan.csv").read_text().splitlines()[0]
    assert curve_header == "cutoff,precision,recall"
    topn_header = (tmp_path / "topn_prosgan.csv").read_text().splitlines()[0]
    assert topn_header == "N,precision"


def test_same_seed_reproduces_reports_and_checkpoints(tiny_config, tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    experiment.run_experiment(tiny_config, 31, first)
    experiment.run_experiment(tiny_config, 31, second)
    for name in ("report.json", "transfer_report.json", "hash_model.json",
                 "attack_stack.json", "transfer_model.json",
                 "hash_training.csv", "attack_training.csv",
                 "pr_curve_prosgan.csv", "topn_dhta.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    for name in ("adversarial_prosgan.npz", "adversarial_p2p.npz",
                 "adversarial_dhta.npz", "adversarial_noise.npz",
                 "dataset.npz", "codes.npz"):
        with np.load(first / name) as left, np.load(second / name) as right:
            assert set(left.files) == set(right.files)
            for key in left.files:
                assert np.array_equal(left[key], right[key]), (name, key)


def test_different_seeds_differ(tiny_config, tmp_path):
    experiment.execute_stage("gen_data", tiny_config, 1, tmp_path / "a")
    experiment.execute_stage("gen_data", tiny_config, 2, tmp_path / "b")
    with np.load(tmp_path / "a" / "dataset.npz") as left, \
         np.load(tmp_path / "b" / "dataset.npz") as right:
        assert not np.array_equal(left["train_images"], right["train_images"])


def test_eval_without_optional_artifacts(tiny_config, tmp_path):
    for name in ("gen_data", "train_hash", "encode_db"):
        experiment.execute_stage(name, tiny_config, 3, tmp_path)
    report = experiment.execute_stage("eval", tiny_config, 3, tmp_path)
    # no adversarial files and no attack stack yet: only the rows that
    # need nothing beyond the hash model appear
    assert set(report["methods"]) == {"Original", "Anchor-code"}


# the generating function each attack stage calls, by method
_GENERATORS = {"prosgan": "targeted_examples", "p2p": "p2p_attack",
               "dhta": "anchor_attack", "noise": "noise_queries"}
_ATTACK_STAGES = {"prosgan": "attack", "p2p": "p2p", "dhta": "dhta", "noise": "noise"}
_UPSTREAM = ("gen_data", "train_hash", "encode_db", "train_attack")


def test_timings_give_per_image_latency_and_throughput(tiny_config, tmp_path,
                                                        monkeypatch):
    call_seconds = {}

    def timed(method, generate):
        def spy(*args, **kwargs):
            started = time.perf_counter()
            result = generate(*args, **kwargs)
            call_seconds[method] = time.perf_counter() - started
            return result
        return spy

    for method, name in _GENERATORS.items():
        monkeypatch.setattr(experiment, name, timed(method, getattr(experiment, name)))
    for name in _UPSTREAM + tuple(_ATTACK_STAGES.values()):
        experiment.execute_stage(name, tiny_config, 6, tmp_path)
    timings = json.loads((tmp_path / "timings.json").read_text())
    count = tiny_config.query_size
    for method, stage in _ATTACK_STAGES.items():
        latency = timings[f"generation_{method}_seconds"]
        throughput = timings[f"throughput_{method}_images_per_second"]
        # no image can take longer than the stage that produced it
        assert 0.0 < latency <= timings[f"{stage}_seconds"], method
        if method == "prosgan":
            # one image at a time: throughput is the inverse latency, and
            # the images share the one call's time
            assert throughput * latency == pytest.approx(1.0), method
            assert latency * count >= call_seconds[method], method
        else:
            # one call for the whole block: every image waits for all of
            # it, so the latency is the whole call, not the call per row
            assert throughput * latency == pytest.approx(count), method
            assert latency >= call_seconds[method], method


def test_attack_stages_store_queries_and_shared_targets(tiny_config, tmp_path):
    for name in _UPSTREAM + tuple(_ATTACK_STAGES.values()):
        experiment.execute_stage(name, tiny_config, 6, tmp_path)
    bundle = load_bundle(tmp_path / "dataset.npz")
    targets = experiment.eval_target_labels(tiny_config, 6, bundle)
    for method in _ATTACK_STAGES:
        originals, perturbed, stored_targets = experiment._load_examples(tmp_path, method)
        assert np.array_equal(originals, bundle.query_images), method
        assert np.array_equal(stored_targets, targets), method
        assert perturbed.shape == bundle.query_images.shape, method
        assert not np.array_equal(perturbed, originals), method


@pytest.mark.parametrize("stage", experiment.STAGE_ORDER)
def test_invalid_config_is_refused_before_the_stage_runs(tiny_config, tmp_path, stage):
    invalid = dataclasses.replace(tiny_config, classes=1)
    with pytest.raises(InputError):
        experiment.execute_stage(stage, invalid, 5, tmp_path)
    assert [path.name for path in tmp_path.iterdir()] == [f"{stage}.partial"]
    assert "InputError" in (tmp_path / f"{stage}.partial").read_text()


def _npz_bytes(**arrays):
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _bundle_bytes():
    buffer = io.BytesIO()
    save_bundle(gen_synthetic_dataset(DataConfig(train_size=2, database_size=2,
                                                 query_size=2, height=2, width=2), 1),
                buffer)
    return buffer.getvalue()


# (file name, loader over the run directory, bytes of a valid file)
_NPZ_LOADERS = {
    "dataset": ("dataset.npz", lambda out: load_bundle(out / "dataset.npz"),
                _bundle_bytes()),
    "codes": ("codes.npz", experiment._load_codes,
              _npz_bytes(code_matrix=np.ones((4, 3)))),
    "examples": ("adversarial_p2p.npz", lambda out: experiment._load_examples(out, "p2p"),
                 _npz_bytes(originals=np.zeros((2, 4)), perturbed=np.ones((2, 4)),
                            target_labels=np.eye(2))),
}


def _damaged(valid):
    """Arbitrary bytes, zip-headed bytes, truncations and one-byte edits of ``valid``."""
    return st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda tail: b"PK\x03\x04" + tail),
        st.integers(0, len(valid)).map(lambda cut: valid[:cut]),
        st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(
            lambda edit: valid[:edit[0]] + bytes([edit[1]]) + valid[edit[0] + 1:]),
    )


@pytest.mark.parametrize("kind", sorted(_NPZ_LOADERS))
@settings(deadline=None)
@given(data=st.data())
def test_fuzzed_npz_loads_or_raises_checkpoint_error(kind, data):
    name, load, valid = _NPZ_LOADERS[kind]
    payload = data.draw(_damaged(valid))
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch)
        (out / name).write_bytes(payload)
        try:
            load(out)
        except CheckpointError:
            pass


def test_damaged_codes_are_corrupt(tmp_path):
    path = tmp_path / "codes.npz"
    bare = io.BytesIO()
    np.save(bare, np.ones((4, 3)))
    raw_member = io.BytesIO()
    with zipfile.ZipFile(raw_member, "w") as archive:
        archive.writestr("code_matrix.npy", b"no npy header")
    for payload, message in ((_NPZ_LOADERS["codes"][2][:40], "codes.npz"),
                             (bare.getvalue(), "not an npz archive"),
                             (raw_member.getvalue(), "not an array"),
                             (_npz_bytes(codes=np.ones((4, 3))), "code_matrix")):
        path.write_bytes(payload)
        with pytest.raises(CheckpointCorruptError, match=message):
            experiment._load_codes(tmp_path)
