"""Tests of the benchmark itself; run with ``python3 -m pytest bench``.

The traced runs here use tiny versions of the three workloads (same
stages, small data and networks), so they finish in seconds.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import tracer as tracing  # noqa: E402

TINY = (
    ("classes", 3), ("image_height", 6), ("image_width", 6), ("train_size", 60),
    ("database_size", 80), ("query_size", 12), ("code_length", 8),
    ("hash_hidden_widths", (24,)), ("hash_epochs", 6), ("attack_epochs", 3),
    ("attack_batch_size", 12), ("prototype_hidden_widths", (16,)),
    ("representation_width", 12), ("decoder_hidden", 20),
    ("generator_bottleneck", 20), ("discriminator_hidden_widths", (12,)),
    ("iterations", 20), ("transfer_code_length", 8),
    ("transfer_hidden_widths", (20,)),
)

COUNT_FIELDS = (".calls", ".rows", ".nodes", ".params", ".bytes",
                ".bytes_per_step_computed", "nodes_per_backward",
                "stepped_param_share", "ranks_per_query", "query_rows",
                "image_samples", "trace.spans")


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, spec in harness.WORKLOADS.items():
        monkeypatch.setitem(harness.WORKLOADS, name,
                            dataclasses.replace(spec, overrides=TINY))
    monkeypatch.setattr(harness, "STATE", tmp_path / "state")
    return tmp_path


def traced_counts(workload, seed, out):
    correct, attempted, failed, record, _ = harness.measure(
        workload, seed, 0.0, True, out)
    assert record["problems"] == []
    assert correct and failed == 0 and attempted > 0
    return {name: value for name, value in record["per_layer"].items()
            if name.endswith(COUNT_FIELDS)}, record


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_traced_counts_repeat_exactly(tiny, workload):
    first, record = traced_counts(workload, 3, tiny / "a")
    second, again = traced_counts(workload, 3, tiny / "b")
    assert first == second
    # the second run checks its artifacts against the first run's record
    assert record["digests"]["source"] == "first run"
    assert again["digests"]["source"] == "recorded"
    assert set(record["per_layer"]) | {name for name in dict(tracing.PER_LAYER)
                                       if name.startswith("memory.")} \
        == set(dict(tracing.PER_LAYER))


def test_layer_counts_match_the_workload(tiny):
    pipeline, _ = traced_counts("pipeline", 4, tiny / "p")
    # today every training step watches all three GAN networks and steps one
    assert 0.0 < pipeline["optim.stepped_param_share"] < 1.0
    for net in tracing.NETS:
        assert pipeline[f"optim.adam_step.{net}.calls"] > 0
    assert pipeline["tensor.backward.calls"] == sum(
        pipeline[f"optim.adam_step.{net}.calls"] for net in tracing.NETS) \
        + pipeline["baselines.iterative_gradient_attack.calls"] * 20

    retrieval, _ = traced_counts("retrieval", 4, tiny / "r")
    assert retrieval["tensor.backward.calls"] == 0
    assert retrieval["layers.mlp_forward.calls"] == 0
    # Original, Noise, ProS-GAN and the retrieval curve rank 4, 4, 4 and 3
    # times per query; Anchor-code and Prototype-code rank 3 times
    assert retrieval["evaluation.ranks_per_query"] == 21 / 6


def test_self_time_subtracts_direct_children():
    spans = [("root", 0, 100, -1, "timed", None),
             ("child", 10, 40, 0, "timed", None),
             ("grandchild", 15, 25, 1, "timed", None),
             ("child", 50, 60, 0, "timed", None)]
    assert tracing.self_times(spans) == [60, 20, 10, 10]


def test_benchmark_json_declares_what_the_runs_print():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == \
        list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert sorted(w["name"] for w in declared["workloads"]) == \
        sorted(harness.WORKLOADS)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".run", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "attack",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
