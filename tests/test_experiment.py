"""Pipeline stage orchestration tests on a sub-second configuration."""

import dataclasses
import io
import json
import os
import shutil
import tempfile
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashattack import evaluation, experiment
from hashattack.checkpoint import (_canonical_digest, load_checkpoint, save_attack_stack,
                                   save_hash_model)
from hashattack.config import ExperimentConfig
from hashattack.data import gen_synthetic_dataset, load_bundle, save_bundle
from hashattack.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointMissingError,
    InputError,
)
from hashattack.gan import AttackStack, Discriminator, Generator
from hashattack.hashing import HashModel
from hashattack.prototype import PrototypeNet

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
    assert not list(tmp_path.glob(".partial.*"))
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert "gen_data_seconds" in timings


def test_missing_predecessor_fails_and_leaves_no_marker(tiny_config, tmp_path):
    with pytest.raises(CheckpointMissingError, match="missing dataset.npz; run gen-data first"):
        experiment.execute_stage("train_hash", tiny_config, 5, tmp_path)
    # the failure reaches the caller as its exception, and nothing is left behind
    assert not list(tmp_path.iterdir())
    experiment.execute_stage("gen_data", tiny_config, 5, tmp_path)
    experiment.execute_stage("train_hash", tiny_config, 5, tmp_path)
    assert not list(tmp_path.glob(".partial.*"))


def test_unknown_stage_is_rejected(tiny_config, tmp_path):
    with pytest.raises(InputError):
        experiment.execute_stage("compress", tiny_config, 5, tmp_path)


def test_config_change_is_caught_between_stages(tiny_config, tmp_path):
    experiment.execute_stage("gen_data", tiny_config, 5, tmp_path)
    experiment.execute_stage("train_hash", tiny_config, 5, tmp_path)
    changed = dataclasses.replace(tiny_config, code_length=10)
    with pytest.raises(CheckpointMismatchError):
        experiment.execute_stage("encode_db", changed, 5, tmp_path)


def test_a_stored_seed_must_be_the_run_int(tiny_config, tmp_path):
    experiment.execute_stage("gen_data", tiny_config, 1, tmp_path)
    experiment.execute_stage("train_hash", tiny_config, 1, tmp_path)
    path = tmp_path / "hash_model.json"
    payload = json.loads(path.read_text())
    # True == 1 and 1.0 == 1 in Python, so equality alone would pass both
    for stored in (True, 1.0, "1", None):
        payload["seed"] = stored
        body = {k: v for k, v in payload.items() if k != "checksum"}
        path.write_text(json.dumps({**body, "checksum": _canonical_digest(body)}))
        with pytest.raises(CheckpointMismatchError, match="written under seed"):
            experiment.execute_stage("encode_db", tiny_config, 1, tmp_path)


def test_every_model_checkpoint_names_its_run(tiny_config, tmp_path):
    for name in ("gen_data", "train_hash", "train_attack", "attack", "transfer_eval"):
        experiment.execute_stage(name, tiny_config, 5, tmp_path)
    for name, kind in (("hash_model.json", "hash_model"), ("attack_stack.json", "attack_stack"),
                       ("transfer_model.json", "hash_model")):
        checkpoint = load_checkpoint(tmp_path / name, kind, tiny_config.config_hash())
        assert (type(checkpoint.seed), checkpoint.seed) == (int, 5), name


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
    for name, slug in (("Noise", "noise"), ("P2P", "p2p"), ("DHTA", "dhta"),
                       ("ProS-GAN", "prosgan")):
        with np.load(tmp_path / f"adversarial_{slug}.npz") as blob:
            distortion = evaluation.mean_perceptibility(blob["originals"],
                                                        blob["perturbed"])
        assert distortion > 0.0, name
        assert report["methods"][name]["perceptibility"] == distortion, name
    assert 0.0 <= report["retrieval_map"] <= 1.0
    # the retrieval baseline is the Original row's true-label report
    assert report["retrieval_map"] == report["methods"]["Original"]["map"]

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


def test_every_ranking_goes_through_evaluate_queries(tiny_config, tmp_path,
                                                     monkeypatch):
    calls = {"rank_database": 0, "evaluate_queries": 0}
    rank_database = evaluation.rank_database
    evaluate_queries = experiment.evaluate_queries

    def counting_rank(*args, **kwargs):
        calls["rank_database"] += 1
        return rank_database(*args, **kwargs)

    def counting_evaluate(*args, **kwargs):
        calls["evaluate_queries"] += 1
        return evaluate_queries(*args, **kwargs)

    monkeypatch.setattr(evaluation, "rank_database", counting_rank)
    monkeypatch.setattr(experiment, "evaluate_queries", counting_evaluate)
    experiment.run_experiment(tiny_config, 9, tmp_path)
    # eval ranks seven query blocks (the original one once, for both its
    # target and true-label reports) and transfer-eval two
    assert calls == {"rank_database": 9, "evaluate_queries": 9}


def test_hash_and_transfer_models_take_their_configured_shapes(tiny_config, tmp_path):
    config = dataclasses.replace(tiny_config, hash_hidden_widths=(24, 16),
                                 transfer_code_length=6, transfer_hidden_widths=(20,))
    for name in ("gen_data", "train_hash", "encode_db", "train_attack", "attack",
                 "transfer_eval"):
        experiment.execute_stage(name, config, 9, tmp_path)
    pixels = config.image_height * config.image_width * config.image_channels

    def stored_widths(name):
        return json.loads((tmp_path / name).read_text())["meta"]["architecture"]["widths"]

    assert stored_widths("hash_model.json") == [pixels, 24, 16, config.code_length]
    assert stored_widths("transfer_model.json") == [pixels, 20, 6]


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
    bundle = experiment.read("dataset.npz", tiny_config, 6, tmp_path)
    targets = experiment.eval_target_labels(6, bundle)
    for method in _ATTACK_STAGES:
        originals, perturbed, stored_targets = experiment.read(
            f"adversarial_{method}.npz", tiny_config, 6, tmp_path)
        assert np.array_equal(originals, bundle.query_images), method
        assert np.array_equal(stored_targets, targets), method
        assert perturbed.shape == bundle.query_images.shape, method
        assert not np.array_equal(perturbed, bundle.query_images), method
    # the scoring stages refuse a file whose originals or targets are not these
    with pytest.raises(CheckpointMismatchError, match="adversarial_p2p.npz"):
        experiment._load_examples("adversarial_p2p.npz", bundle, 1.0 - targets,
                                  tiny_config, 6, tmp_path)


@pytest.mark.parametrize("damage", ["[]", "{", pytest.param("[" * 100_000, id="deep")])
def test_damaged_timings_are_corrupt(tiny_config, tmp_path, damage):
    experiment.execute_stage("gen_data", tiny_config, 5, tmp_path)
    (tmp_path / "timings.json").write_text(damage)
    with pytest.raises(CheckpointCorruptError, match="timings.json"):
        experiment.execute_stage("gen_data", tiny_config, 5, tmp_path)
    assert not list(tmp_path.glob(".partial.*"))
    assert (tmp_path / "timings.json").read_text() == damage


def _npz_bytes(**arrays):
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _bundle_bytes():
    buffer = io.BytesIO()
    config = ExperimentConfig(train_size=2, database_size=2, query_size=2,
                              image_height=2, image_width=2)
    save_bundle(gen_synthetic_dataset(config, 1), buffer)
    return buffer.getvalue()


def _read(name, out):
    return experiment.read(name, ExperimentConfig(), 1, out)


def _checkpoint_bytes(save, module):
    """A checkpoint of ``module`` saved as ``_read`` asks: stock config hash, seed 1."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "checkpoint.json"
        save(path, module, 1, ExperimentConfig().config_hash(), {})
        return path.read_bytes()


def _tiny_stack():
    rng = np.random.default_rng(8)
    return AttackStack(
        PrototypeNet.create(rng, classes=3, code_length=6, hidden_widths=(10,),
                            representation_width=8),
        Generator.create(rng, representation_width=8, pixels=12, decoder_hidden=9,
                         bottleneck=7),
        Discriminator.create(rng, pixels=12, classes=3, hidden=(5,)))


# (file name, bytes of a valid file)
_ARTIFACT_LOADERS = {
    "dataset": ("dataset.npz", _bundle_bytes()),
    "codes": ("codes.npz", _npz_bytes(code_matrix=np.ones((4, 3)))),
    "examples": ("adversarial_p2p.npz",
                 _npz_bytes(originals=np.zeros((2, 4)), perturbed=np.ones((2, 4)),
                            target_labels=np.eye(2))),
    "hash_model": ("hash_model.json", _checkpoint_bytes(
        save_hash_model, HashModel.create(np.random.default_rng(3), 10, 6, hidden_widths=(12,)))),
    "attack_stack": ("attack_stack.json", _checkpoint_bytes(save_attack_stack, _tiny_stack())),
}
_NPZ_KINDS = sorted(kind for kind, (name, _) in _ARTIFACT_LOADERS.items()
                    if name.endswith(".npz"))


def _damaged(valid):
    """Arbitrary bytes, zip-headed bytes, truncations and one-byte edits of ``valid``."""
    return st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda tail: b"PK\x03\x04" + tail),
        st.integers(0, len(valid)).map(lambda cut: valid[:cut]),
        st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(
            lambda edit: valid[:edit[0]] + bytes([edit[1]]) + valid[edit[0] + 1:]),
    )


@pytest.mark.parametrize("kind", sorted(_ARTIFACT_LOADERS))
@settings(deadline=None)
@given(data=st.data())
def test_fuzzed_artifact_loads_or_raises_checkpoint_error(kind, data):
    name, valid = _ARTIFACT_LOADERS[kind]
    payload = data.draw(_damaged(valid))
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch)
        (out / name).write_bytes(payload)
        try:
            _read(name, out)
        except CheckpointError:
            pass


def _planted(value):
    """Damage that copies an array as floats and sets its first element to ``value``."""
    def plant(array):
        copy = array.astype(np.float64)
        copy.flat[0] = value
        return copy
    return plant


# each id names what the one replaced member holds
_NOT_FINITE_NUMBERS = {
    "str": lambda array: array.astype(str),
    "bool": lambda array: array.astype(bool),
    "complex": lambda array: array.astype(complex),
    "nan": _planted(np.nan),
    "inf": _planted(-np.inf),
}


@pytest.mark.parametrize("damage", list(_NOT_FINITE_NUMBERS))
@pytest.mark.parametrize("kind", _NPZ_KINDS)
def test_a_member_that_is_not_finite_numbers_is_corrupt(kind, damage, tmp_path):
    name, valid = _ARTIFACT_LOADERS[kind]
    with np.load(io.BytesIO(valid)) as blob:
        arrays = {key: blob[key] for key in blob.files}
    for key, array in arrays.items():
        damaged = {**arrays, key: _NOT_FINITE_NUMBERS[damage](array)}
        (tmp_path / name).write_bytes(_npz_bytes(**damaged))
        with pytest.raises(CheckpointCorruptError, match=f"{name}: {key} "):
            _read(name, tmp_path)


@pytest.mark.parametrize("damage", [_planted(np.nan), lambda perturbed: perturbed * 5.0],
                         ids=["nan", "outside-unit-range"])
def test_eval_refuses_perturbed_pixels_that_are_not_in_the_unit_range(damage, tiny_config,
                                                                      tmp_path):
    for name in ("gen_data", "train_hash", "encode_db", "noise"):
        experiment.execute_stage(name, tiny_config, 2, tmp_path)
    path = tmp_path / "adversarial_noise.npz"
    with np.load(path) as blob:
        arrays = {key: blob[key] for key in blob.files}
    np.savez(path, **{**arrays, "perturbed": damage(arrays["perturbed"])})
    with pytest.raises(CheckpointCorruptError, match="adversarial_noise.npz: perturbed "):
        experiment.execute_stage("eval", tiny_config, 2, tmp_path)
    assert not (tmp_path / "report.json").exists()


def test_damaged_codes_are_corrupt(tmp_path):
    path = tmp_path / "codes.npz"
    bare = io.BytesIO()
    np.save(bare, np.ones((4, 3)))
    raw_member = io.BytesIO()
    with zipfile.ZipFile(raw_member, "w") as archive:
        archive.writestr("code_matrix.npy", b"no npy header")
    signs = np.ones((4, 3))
    for payload, message in ((_ARTIFACT_LOADERS["codes"][1][:40], "codes.npz"),
                             (bare.getvalue(), "not an npz archive"),
                             (raw_member.getvalue(), "not an array"),
                             (_npz_bytes(codes=signs), "code_matrix"),
                             # a matrix that is not a 2-D array of +/-1
                             *((_npz_bytes(code_matrix=matrix), "codes.npz: code_matrix")
                               for matrix in (signs[0], signs[None], np.float64(1.0),
                                              np.where(np.eye(4, 3), 0.5, 1.0),
                                              np.full((4, 3), np.nan), signs > 0,
                                              signs.astype(str), signs.astype(complex)))):
        path.write_bytes(payload)
        with pytest.raises(CheckpointCorruptError, match=message):
            _read("codes.npz", tmp_path)
    mixed = np.array([[1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]])
    for matrix in (mixed, mixed.astype(np.int8)):
        path.write_bytes(_npz_bytes(code_matrix=matrix))
        assert np.array_equal(_read("codes.npz", tmp_path), matrix)


def test_codes_that_do_not_fit_the_model_and_database_are_refused(tiny_config, tmp_path):
    for name in ("gen_data", "train_hash", "encode_db"):
        experiment.execute_stage(name, tiny_config, 2, tmp_path)
    path = tmp_path / "codes.npz"
    with np.load(path) as blob:
        matrix = blob["code_matrix"]
    for damaged, error in ((matrix[0], CheckpointCorruptError),
                           (matrix[:, :-1], CheckpointMismatchError),
                           (matrix[:-1], CheckpointMismatchError),
                           (matrix.T, CheckpointMismatchError)):
        np.savez(path, code_matrix=damaged)
        for stage in ("p2p", "dhta", "eval"):
            with pytest.raises(error, match="codes.npz"):
                experiment.execute_stage(stage, tiny_config, 2, tmp_path)
    assert not list(tmp_path.glob("adversarial_*")) and not (tmp_path / "report.json").exists()


def _per_cell_csv(path, header, rows):
    """The per-cell writer ``experiment._write_csv`` replaced, kept as its oracle."""
    def cell(value):
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    lines = [header]
    for row in rows:
        lines.append(",".join(cell(value) for value in row))
    Path(path).write_text("\n".join(lines) + "\n")


_CSV_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308 / 3,
                                             float("inf"), -float("inf"), float("nan"), 1e308])


@settings(deadline=None)
@given(rows=st.lists(st.lists(st.integers() | _CSV_FLOATS, min_size=1, max_size=4),
                     max_size=6))
def test_write_csv_writes_the_per_cell_bytes(rows):
    with tempfile.TemporaryDirectory() as scratch:
        fast, slow = Path(scratch) / "fast.csv", Path(scratch) / "slow.csv"
        experiment._write_csv(fast, "a,b", rows)
        _per_cell_csv(slow, "a,b", rows)
        assert fast.read_bytes() == slow.read_bytes()


def _one_column_wider(array):
    return np.hstack([array, array[:, :1]])


def _first_entry_set(array, value):
    changed = array.copy()
    changed[0, 0] = value
    return changed


# each id starts with the array the refusal must name
_MALFORMED_SPLITS = {
    "query_images-empty": lambda b: {"query_images": b.query_images[:0],
                                     "query_labels": b.query_labels[:0]},
    "database_images-empty": lambda b: {"database_images": b.database_images[:0],
                                        "database_labels": b.database_labels[:0]},
    "train_images-empty": lambda b: {"train_images": b.train_images[:0],
                                     "train_labels": b.train_labels[:0]},
    "query_images-3d": lambda b: {"query_images": b.query_images[:, None, :]},
    "query_labels-1d": lambda b: {"query_labels": b.query_labels[:, 0]},
    "database_labels-short": lambda b: {"database_labels": b.database_labels[:-1]},
    "train_labels-long": lambda b: {"train_labels": np.vstack([b.train_labels,
                                                               b.train_labels[:1]])},
    "train_labels-words": lambda b: {"train_labels": np.where(b.train_labels > 0, "yes", "no")},
    "query_labels-numeric-text": lambda b: {"query_labels": b.query_labels.astype(str)},
    "database_images-object": lambda b: {"database_images": b.database_images.astype(object)},
    "query_labels-wide": lambda b: {"query_labels": _one_column_wider(b.query_labels)},
    "database_labels-wide": lambda b: {"database_labels": _one_column_wider(b.database_labels)},
    "query_images-wide": lambda b: {"query_images": _one_column_wider(b.query_images)},
    "train_images-above-one": lambda b: {"train_images": _first_entry_set(b.train_images,
                                                                          1.0 + 2.0**-52)},
    "query_images-negative": lambda b: {"query_images": _first_entry_set(b.query_images,
                                                                         -5e-324)},
    "database_labels-two": lambda b: {"database_labels": b.database_labels * 2.0},
    "query_labels-half": lambda b: {"query_labels": np.where(b.query_labels > 0, 0.5, 0.0)},
    "train_labels-no-class": lambda b: {"train_labels": np.vstack([b.train_labels[:-1],
                                                                   0 * b.train_labels[-1:]])},
}


@pytest.mark.parametrize("case", list(_MALFORMED_SPLITS))
def test_a_malformed_split_is_refused_at_load(case, tiny_config, tmp_path):
    for name in _UPSTREAM:
        experiment.execute_stage(name, tiny_config, 2, tmp_path)
    bundle = load_bundle(tmp_path / "dataset.npz")
    save_bundle(dataclasses.replace(bundle, **_MALFORMED_SPLITS[case](bundle)),
                tmp_path / "dataset.npz")
    array = case.split("-")[0]
    for stage in ("train_hash", "attack", "noise", "p2p", "eval"):
        with pytest.raises(CheckpointCorruptError, match=f"dataset.npz: {array} "):
            experiment.execute_stage(stage, tiny_config, 2, tmp_path)
    assert not list(tmp_path.glob("adversarial_*")) and not (tmp_path / "report.json").exists()


def test_each_table_file_first_appears_in_the_stage_that_writes_it(tiny_config, tmp_path):
    writer = {}
    for stage in experiment.STAGE_ORDER:
        experiment.execute_stage(stage, tiny_config, 4, tmp_path)
        for name in experiment.ARTIFACTS:
            if (tmp_path / name).is_file():
                writer.setdefault(name, stage)
    assert writer == {name: stage for name, (stage, _) in experiment.ARTIFACTS.items()}


def _contents(out):
    return {path.name: path.read_bytes() for path in out.iterdir()}


class _InjectedFault(OSError):
    pass


def _replace_failing_at(fail_at, published):
    """``os.replace`` that records each target's name; its ``fail_at``-th call (none, for
    ``None``) cuts the temporary file to half its bytes and raises, as a process killed
    mid-write would leave it."""
    replace = os.replace

    def failing(source, target):
        published.append(Path(target).name)
        if len(published) == fail_at:
            data = Path(source).read_bytes()
            Path(source).write_bytes(data[:len(data) // 2])
            raise _InjectedFault(f"injected failure publishing {published[-1]}")
        replace(source, target)
    return failing


def test_a_failed_publish_leaves_every_file_whole_or_absent(tiny_config, tmp_path, monkeypatch):
    run = tmp_path / "start"
    run.mkdir()
    for index, stage in enumerate(experiment.STAGE_ORDER):
        before = _contents(run)
        clean, published = tmp_path / stage, []
        shutil.copytree(run, clean)
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", _replace_failing_at(None, published))
            experiment.execute_stage(stage, tiny_config, 4, clean)
        after = _contents(clean)
        assert published[-1] == "timings.json", stage
        for fail_at, name in enumerate(published, 1):
            trial = tmp_path / f"{stage}-{fail_at}"
            shutil.copytree(run, trial)
            with monkeypatch.context() as patch:
                patch.setattr(os, "replace", _replace_failing_at(fail_at, []))
                with pytest.raises(_InjectedFault, match=f"publishing {name}$"):
                    experiment.execute_stage(stage, tiny_config, 4, trial)
            left = _contents(trial)
            assert left.get(name) == before.get(name), (stage, name)
            # every file is whole: as before the stage ran, or as a clean run leaves it
            for file, data in left.items():
                assert data in (before.get(file), after[file]), (stage, name, file)
            # a later stage finds each file whole or missing, never half-written
            for later in experiment.STAGE_ORDER[index + 1:]:
                try:
                    experiment.execute_stage(later, tiny_config, 4, trial)
                except CheckpointMissingError:
                    pass
        run = clean


def test_execute_stage_is_the_one_publisher(tiny_config, tmp_path, monkeypatch):
    stages, published = [], []
    execute, replace = experiment.execute_stage, os.replace

    def tracked(name, *args):
        stages.append(name)
        return execute(name, *args)

    def spy(source, target):
        source, target = Path(source), Path(target)
        assert source == tmp_path / f".partial.{target.name}" and target.parent == tmp_path
        published.append((stages[-1], target.name))
        replace(source, target)

    monkeypatch.setattr(experiment, "execute_stage", tracked)
    monkeypatch.setattr(os, "replace", spy)
    experiment.run_experiment(tiny_config, 4, tmp_path)
    assert {name for _, name in published} == {path.name for path in tmp_path.iterdir()}
    assert stages == list(experiment.STAGE_ORDER)
    for stage in stages:
        names = [name for by, name in published if by == stage]
        assert len(set(names)) == len(names) and names[-1] == "timings.json", stage


def test_a_stale_partial_file_is_ignored_and_then_replaced(tiny_config, tmp_path):
    experiment.execute_stage("gen_data", tiny_config, 4, tmp_path)
    dataset = (tmp_path / "dataset.npz").read_bytes()
    # what a process killed while writing the dataset leaves behind
    stale = tmp_path / ".partial.dataset.npz"
    stale.write_bytes(dataset[:len(dataset) // 2])
    experiment.execute_stage("train_hash", tiny_config, 4, tmp_path)
    assert stale.read_bytes() == dataset[:len(dataset) // 2]
    experiment.execute_stage("gen_data", tiny_config, 4, tmp_path)
    assert not stale.exists()
    assert (tmp_path / "dataset.npz").read_bytes() == dataset
