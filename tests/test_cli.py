"""Command line interface behavior and exit code tests."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hashattack import experiment
from hashattack.checkpoint import load_hash_model, save_hash_model
from hashattack.cli import build_parser, main
from hashattack.config import ExperimentConfig
from hashattack.errors import CheckpointMissingError
from tests.conftest import TINY_RUN_KWARGS


def _config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(ExperimentConfig(**TINY_RUN_KWARGS).to_text())
    return str(path)


def _run(command, tmp_path, seed="4", config=None):
    argv = [*command, "--seed", seed, "--out", str(tmp_path / "run")]
    if config is not None:
        argv += ["--config", config]
    return main(argv)


def test_usage_errors_exit_one(tmp_path):
    for argv in (
        [],
        ["unknown-command", "--seed", "1", "--out", str(tmp_path)],
        ["gen-data", "--out", str(tmp_path)],                   # no seed
        ["gen-data", "--seed", "x", "--out", str(tmp_path)],    # bad int
        ["gen-data", "--seed", "-1", "--out", str(tmp_path / "neg")],  # negative
        ["gen-data", "--seed", "1"],                            # no out
        ["baseline", "--seed", "1", "--out", str(tmp_path)],    # no method
        ["baseline", "fgsm", "--seed", "1", "--out", str(tmp_path)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
    assert not (tmp_path / "neg").exists()


def test_config_problems_exit_one(tmp_path, capsys):
    assert _run(["gen-data"], tmp_path,
                config=str(tmp_path / "absent.cfg")) == 1
    bad = tmp_path / "bad.cfg"
    for line in ("classes = 1", "not_a_key = 3", "train_size = 1",
                 "discriminator_hidden_widths = 64,0",
                 "classes = 1000000000000000000000000000000"):
        bad.write_text(line + "\n")
        assert _run(["gen-data"], tmp_path, config=str(bad)) == 1, line
        assert "error" in capsys.readouterr().err, line
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("line", ["hash_learning_rate = nan", "epsilon = nan",
                                  "noise_sigma = inf"])
def test_non_finite_config_floats_exit_one(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    assert _run(["gen-data"], tmp_path, config=str(bad)) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_non_positive_hidden_width_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("hash_hidden_widths = 0\n")
    assert _run(["gen-data"], tmp_path, config=str(bad)) == 1
    assert "widths must be positive" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_non_utf8_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfeclasses = 3\n")
    assert _run(["gen-data"], tmp_path, config=str(bad)) == 1
    err = capsys.readouterr().err
    assert "not UTF-8" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_stage_failure_exits_two(tmp_path, capsys):
    config = _config_file(tmp_path)
    assert _run(["train-hash"], tmp_path, config=config) == 2
    err = capsys.readouterr().err
    assert "train_hash failed" in err and "gen-data" in err
    assert _run(["gen-data"], tmp_path, config=config) == 0
    capsys.readouterr()
    assert _run(["baseline", "p2p"], tmp_path, config=config) == 2
    assert "missing hash_model.json; run train-hash first" in capsys.readouterr().err
    assert not (tmp_path / "run" / "adversarial_p2p.npz").exists()


def test_transfer_eval_before_attack_names_the_attack_command(tmp_path, capsys):
    config = _config_file(tmp_path)
    assert _run(["gen-data"], tmp_path, config=config) == 0
    capsys.readouterr()
    assert _run(["transfer-eval"], tmp_path, config=config) == 2
    assert "missing adversarial_prosgan.npz; run attack first" in capsys.readouterr().err
    assert not (tmp_path / "run" / "transfer_model.json").exists()


def test_the_command_line_process_exits_with_the_status_main_returns(tmp_path):
    # the other tests read main's return value in-process; only a child process
    # shows that `python -m hashattack.cli` hands it to the shell as its exit status
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    tiny = _config_file(tmp_path)
    one_image = tmp_path / "one_image.cfg"
    one_image.write_text("train_size = 1\n")

    def run(command, config, out):
        return subprocess.run([sys.executable, "-m", "hashattack.cli", command, "--seed", "1",
                               "--out", str(out), "--config", str(config)],
                              env=env, capture_output=True, text=True, timeout=120)

    assert run("gen-data", tiny, tmp_path / "data").returncode == 0
    assert run("gen-data", one_image, tmp_path / "refused").returncode == 1
    (tmp_path / "empty").mkdir()
    missing = run("eval", tiny, tmp_path / "empty")
    assert missing.returncode == 2 and "run gen-data first" in missing.stderr, missing.stderr
    # a failed stage publishes nothing, so it leaves no .partial.* file
    assert not list(tmp_path.rglob(".partial.*"))


@pytest.mark.parametrize("name", list(experiment.ARTIFACTS),
                         ids=lambda name: Path(name).stem.removeprefix("adversarial_"))
def test_a_missing_attack_output_names_the_command_that_writes_it(tmp_path, name):
    with pytest.raises(CheckpointMissingError) as caught:
        experiment.read(name, ExperimentConfig(), 1, tmp_path)
    missing, hint = re.fullmatch(r"missing (\S+); run (.+) first", str(caught.value)).groups()
    assert missing == name
    args = build_parser().parse_args([*hint.split(), "--seed", "1", "--out", str(tmp_path)])
    assert args.stage == experiment.ARTIFACTS[name][0]


def test_gen_data_success_prints_summary(tmp_path, capsys):
    config = _config_file(tmp_path)
    assert _run(["gen-data"], tmp_path, config=config) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"train": 60, "database": 80, "query": 12, "pixels": 36}
    assert (tmp_path / "run" / "dataset.npz").is_file()


def test_full_command_chain(tmp_path, capsys):
    config = _config_file(tmp_path)
    chain = (
        ["gen-data"],
        ["train-hash"],
        ["encode-db"],
        ["train-attack"],
        ["attack"],
        ["baseline", "p2p"],
        ["baseline", "dhta"],
        ["baseline", "noise"],
        ["eval"],
        ["transfer-eval"],
    )
    for command in chain:
        assert _run(command, tmp_path, config=config) == 0, command
    capsys.readouterr()
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert "ProS-GAN" in report["methods"]
    assert (tmp_path / "run" / "transfer_report.json").is_file()


def test_defaults_apply_without_config_flag(tmp_path, capsys):
    # omitted --config falls back to the built-in defaults
    assert main(["gen-data", "--seed", "3", "--out", str(tmp_path / "d")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["train"] == 500


def test_checkpoint_from_another_seed_exits_two(tmp_path, capsys):
    config = _config_file(tmp_path)
    for command in (["gen-data"], ["train-hash"], ["encode-db"], ["train-attack"]):
        assert _run(command, tmp_path, config=config) == 0, command
    capsys.readouterr()
    for command in (["encode-db"], ["train-attack"], ["attack"], ["baseline", "p2p"],
                    ["eval"]):
        assert _run(command, tmp_path, seed="5", config=config) == 2, command
        assert "written under seed 4, not 5" in capsys.readouterr().err, command


def test_checkpoint_without_a_config_hash_exits_two(tmp_path, capsys):
    config = _config_file(tmp_path)
    for command in (["gen-data"], ["train-hash"]):
        assert _run(command, tmp_path, config=config) == 0, command
    # the same network saved under the run's seed but with no stored config hash
    path = tmp_path / "run" / "hash_model.json"
    model, checkpoint = load_hash_model(path, ExperimentConfig(**TINY_RUN_KWARGS).config_hash())
    save_hash_model(path, model, checkpoint.seed, None,
                    {"final_loss": checkpoint.meta["final_loss"]})
    capsys.readouterr()
    assert _run(["encode-db"], tmp_path, config=config) == 2
    assert "not written under the requested configuration" in capsys.readouterr().err


def test_adversarial_file_from_another_run_exits_two(tmp_path, capsys):
    config = _config_file(tmp_path)
    runs = {seed: tmp_path / f"seed{seed}" for seed in ("7", "8")}
    for seed, out in runs.items():
        for command in (["gen-data"], ["train-hash"], ["encode-db"], ["baseline", "p2p"]):
            argv = [*command, "--seed", seed, "--out", str(out), "--config", config]
            assert main(argv) == 0, (seed, command)
    # seed 8's directory now holds seed 7's queries, as P2P and as generator output
    foreign = (runs["7"] / "adversarial_p2p.npz").read_bytes()
    for name in ("adversarial_p2p.npz", "adversarial_prosgan.npz"):
        (runs["8"] / name).write_bytes(foreign)
    capsys.readouterr()
    for command in ("eval", "transfer-eval"):
        assert main([command, "--seed", "8", "--out", str(runs["8"]),
                     "--config", config]) == 2, command
        assert "does not attack this run's queries" in capsys.readouterr().err, command
    assert not (runs["8"] / "report.json").exists()
