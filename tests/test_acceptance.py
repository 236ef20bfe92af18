"""Full-scale acceptance gate for the retrieval attack pipeline.

Every test prints one verdict line, so a suite run doubles as the
acceptance report.  The heavyweight fixtures train the complete system
once at a pinned seed and are shared by all criteria that score
retrieval behavior; the remaining criteria check the numeric core
against independent oracles (elementwise central differences, exhaustive
enumeration, quadratic re-ranking).
"""

import dataclasses
import itertools
import json
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import assert_grad_close, average_precision, finite_difference
from hashattack import tensor as T
from hashattack.baselines import anchor_code
from hashattack.checkpoint import (
    load_attack_stack,
    load_hash_model,
    save_attack_stack,
    save_hash_model,
)
from hashattack.config import ExperimentConfig
from hashattack.data import load_bundle
from hashattack.errors import CheckpointError
from hashattack.evaluation import evaluate_queries, mean_perceptibility
from hashattack.experiment import STAGE_ORDER, eval_target_labels, run_experiment, stage_rng
from hashattack.gan import (
    loss_adversarial,
    loss_discriminator,
    loss_hamming,
    loss_reconstruction,
    targeted_examples,
    train_attack_gan,
)
from hashattack.hashing import hamming_distances, pairwise_code_loss
from hashattack.prototype import loss_prototype

SEED = 20240821

_REPORTER = [None]


@pytest.fixture(autouse=True)
def _verdict_stream(request):
    _REPORTER[0] = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def verdict(number, label, ok, detail):
    line = f"criterion {number:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    reporter = _REPORTER[0]
    if reporter is None:
        print(line)
    else:
        reporter.write_line(line)
    assert ok, line


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full run of every stage at the pinned seed and stock settings."""
    out = Path(tmp_path_factory.mktemp("acceptance"))
    config = ExperimentConfig()
    run_experiment(config, SEED, out)
    return SimpleNamespace(
        out=out,
        config=config,
        report=json.loads((out / "report.json").read_text()),
        transfer=json.loads((out / "transfer_report.json").read_text()),
        timings=json.loads((out / "timings.json").read_text()),
    )


@pytest.fixture(scope="module")
def gan_variants(pipeline):
    """Attack retrained under changed knobs, scored like the main run."""
    config = pipeline.config
    bundle = load_bundle(pipeline.out / "dataset.npz")
    model, _ = load_hash_model(pipeline.out / "hash_model.json",
                               config_hash=config.config_hash())
    with np.load(pipeline.out / "codes.npz") as blob:
        matrix = blob["code_matrix"]
    targets = eval_target_labels(SEED, bundle)

    def trained(**overrides):
        gan_config = dataclasses.replace(config, **overrides)
        stack, _ = train_attack_gan(bundle.train_images, bundle.train_labels, model,
                                    gan_config, stage_rng(SEED, "attack"))
        perturbed = targeted_examples(stack, bundle.query_images, targets)
        score = evaluate_queries(model.codes(perturbed), matrix,
                                 bundle.database_labels, targets)[0].mean_ap
        return score, mean_perceptibility(bundle.query_images, perturbed)

    return SimpleNamespace(
        low_weight=trained(reconstruction_weight=10.0),
        high_weight=trained(reconstruction_weight=200.0),
        no_hamming=trained(disable_hamming_loss=True),
        no_classes=trained(disable_discriminator_classes=True),
    )


def _signs(rng, shape):
    return np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def _sign_safe(rng, shape, low=0.3, high=0.9):
    # magnitudes bounded away from zero so finite differences never
    # cross a binarization boundary
    return _signs(rng, shape) * rng.uniform(low, high, size=shape)


def _weighted(op):
    """Wrap an op so the backward pass runs under a random cotangent."""

    def build(rng, *arrays):
        mask = None

        def forward(*tensors):
            nonlocal mask
            out = op(*tensors)
            if mask is None:
                mask = rng.normal(size=out.values.shape)
            return T.total(T.mul(out, T.Tensor(mask)))

        return forward

    return build


def _gradient_cases(rng):
    """(name, arrays, forward) triples covering every traced op and loss."""
    pair = lambda: (rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))
    single = lambda: (rng.normal(size=(2, 3)),)
    cases = []

    def op_case(name, op, arrays):
        cases.append((name, arrays, _weighted(op)(rng, *arrays)))

    op_case("add", T.add, pair())
    op_case("sub", T.sub, pair())
    op_case("mul", T.mul, pair())
    op_case("scale", lambda x: T.scale(x, 1.7), single())
    op_case("shift", lambda x: T.shift(x, -0.6), single())
    op_case("square", T.square, single())
    op_case("matmul", T.matmul, (rng.normal(size=(2, 3)), rng.normal(size=(3, 2))))
    op_case("bias_add", T.bias_add, (rng.normal(size=(3, 4)), rng.normal(size=4)))
    op_case("transpose", T.transpose, single())
    away = rng.uniform(0.1, 1.0, size=(2, 3)) * _signs(rng, (2, 3))
    op_case("relu", T.relu, (away,))
    op_case("tanh", T.tanh, single())
    op_case("sigmoid", T.sigmoid, single())
    op_case("softplus", T.softplus, single())
    cases.append(("total", single(), lambda x: T.total(x)))
    # one draw picks which block comes first, so later cases see the same numbers
    swap = bool(rng.integers(2))
    blocks = (rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))
    join_mask = rng.normal(size=(2, 6))
    cases.append((
        "concat", blocks,
        lambda a, b: T.total(T.mul(T.concat([b, a] if swap else [a, b]),
                                   T.Tensor(join_mask))),
    ))

    # retrieval model objective: pair likelihood plus quantization pull
    similarity = (rng.random((5, 5)) < 0.5).astype(float)
    similarity = np.triu(similarity, 1) + np.triu(similarity, 1).T + np.eye(5)
    cases.append((
        "code loss", (_sign_safe(rng, (5, 4)),),
        lambda u: pairwise_code_loss(u, similarity, 0.05),
    ))

    # prototype objective over codes and predicted labels
    code_matrix = _signs(rng, (4, 6))
    proto_sim = (rng.random((3, 6)) < 0.5).astype(float)
    true_labels = (rng.random((3, 2)) < 0.5).astype(float)
    cases.append((
        "prototype loss",
        (_sign_safe(rng, (3, 4)), rng.normal(size=(3, 2))),
        lambda u, p: loss_prototype(u, code_matrix, proto_sim, p, true_labels,
                                    alpha1=1.0, alpha2=1e-2, alpha3=1.0),
    ))

    targets = _signs(rng, (3, 4))
    cases.append((
        "hamming loss", (rng.uniform(-0.9, 0.9, size=(3, 4)),),
        lambda u: loss_hamming(targets, u),
    ))

    # generator objective: weighted reconstruction plus fooling term
    images = rng.random((2, 5))
    one_hot = np.eye(3)[rng.integers(3, size=2)]
    cases.append((
        "generator loss",
        (rng.random((2, 5)), rng.normal(size=(2, 4))),
        lambda perturbed, scores: T.add(
            T.scale(loss_reconstruction(images, perturbed), 50.0),
            T.scale(loss_adversarial(scores, one_hot), 1.0),
        ),
    ))

    true_rows = np.eye(3)[rng.integers(3, size=2)]
    target_rows = np.eye(3)[rng.integers(3, size=2)]
    cases.append((
        "discriminator loss",
        (rng.normal(size=(2, 4)), rng.normal(size=(2, 4))),
        lambda real, fake: loss_discriminator(real, true_rows, fake, target_rows),
    ))
    return cases


def test_criterion_01_gradient_suite(rng):
    started = time.perf_counter()
    points = 100
    names = []
    for _ in range(points):
        for name, arrays, forward in _gradient_cases(rng):
            if name not in names:
                names.append(name)
            tape = T.Tape()
            tensors = [tape.watch(T.Tensor(np.array(a, copy=True)))
                       for a in arrays]
            grads = T.backward(tape, forward(*tensors))
            numeric = finite_difference(
                lambda *plain: float(
                    forward(*[T.Tensor(np.asarray(p, dtype=np.float64))
                              for p in plain]).values),
                arrays,
            )
            for tensor, expected in zip(tensors, numeric):
                assert_grad_close(grads.wrt(tensor), expected, rel=1e-4)
    elapsed = time.perf_counter() - started
    verdict(1, "gradient suite", elapsed < 30.0,
            f"{len(names)} ops and losses x {points} points, "
            f"rel err <= 1e-4, {elapsed:.1f}s")


def test_criterion_02_hamming_identity(rng):
    checked = 0
    for code_length in (4, 8, 12, 16):
        left = _signs(rng, (1000, code_length))
        right = _signs(rng, (1000, code_length))
        distances = hamming_distances(left, right.T)
        for i, (a, b) in enumerate(zip(left, right)):
            assert distances[i, i] == np.sum(a != b)
            checked += 1
    verdict(2, "hamming identity", True, f"{checked} pairs exact")


def test_criterion_03_anchor_construction(rng):
    checked = 0
    for code_length in (4, 8, 12):
        catalog = np.array(list(itertools.product((-1.0, 1.0),
                                                  repeat=code_length)))
        for _ in range(200):
            # odd set sizes make the minimizer unique
            count = int(rng.choice([3, 5, 7, 9]))
            codes = _signs(rng, (count, code_length))
            totals = np.sum(catalog[:, None, :] != codes[None, :, :],
                            axis=(1, 2))
            built = anchor_code(codes)
            assert np.array_equal(built, catalog[np.argmin(totals)])
            checked += 1
    verdict(3, "anchor construction", True,
            f"{checked} sets match exhaustive minimizer")


def _quadratic_ap(distances, relevance):
    """Independent AP: ranks by (distance, index), then counted precisions."""
    n = len(distances)
    ranks = [sum(1 for i in range(n)
                 if (distances[i], i) < (distances[j], j)) for j in range(n)]
    precisions = []
    for j in range(n):
        if relevance[j]:
            inside = sum(1 for i in range(n)
                         if relevance[i] and ranks[i] <= ranks[j])
            precisions.append(inside / (ranks[j] + 1))
    if not precisions:
        return 0.0
    return sum(precisions) / len(precisions)


def test_criterion_04_average_precision_oracle(rng):
    assert abs(average_precision([1, 0, 1, 0]) - 5.0 / 6.0) <= 1e-12
    worst = 0.0
    for _ in range(500):
        code_length = int(rng.choice([4, 8, 12]))
        db_size = int(rng.integers(5, 51))
        queries = int(rng.integers(1, 4))
        matrix = _signs(rng, (code_length, db_size))
        db_labels = (rng.random((db_size, 3)) < 0.4).astype(float)
        db_labels[rng.integers(db_size), rng.integers(3)] = 1.0
        codes = _signs(rng, (queries, code_length))
        labels = np.eye(3)[rng.integers(3, size=queries)]
        produced = evaluate_queries(codes, matrix, db_labels, labels)[0].mean_ap
        expected = np.mean([
            _quadratic_ap(
                [float(np.sum(code != column)) for column in matrix.T],
                [float(label @ row > 0.0) for row in db_labels],
            )
            for code, label in zip(codes, labels)
        ])
        worst = max(worst, abs(produced - expected))
    verdict(4, "average precision oracle", worst <= 1e-12,
            f"500 instances, worst gap {worst:.2e}")


def test_criterion_05_retrieval_quality(pipeline):
    score = pipeline.report["methods"]["Original"]["map"]
    elapsed = pipeline.timings["train_hash_seconds"]
    verdict(5, "retrieval quality", score >= 0.85 and elapsed < 300.0,
            f"MAP {score:.3f} in {elapsed:.0f}s")


def test_criterion_06_attack_efficacy(pipeline):
    methods = pipeline.report["methods"]
    original = methods["Original"]["t_map"]
    generator = methods["ProS-GAN"]["t_map"]
    anchor = methods["DHTA"]["t_map"]
    point = methods["P2P"]["t_map"]
    total = sum(pipeline.timings[f"{stage}_seconds"] for stage in STAGE_ORDER)
    ok = (generator >= original + 0.15 and anchor >= original + 0.10
          and generator >= point and total < 1200.0)
    verdict(6, "attack efficacy", ok,
            f"t-MAP generator {generator:.3f} anchor {anchor:.3f} "
            f"point {point:.3f} original {original:.3f}, {total:.0f}s")


def test_criterion_07_prototype_vs_anchor_targets(pipeline):
    methods = pipeline.report["methods"]
    prototype = methods["Prototype-code"]["t_map"]
    anchor = methods["Anchor-code"]["t_map"]
    verdict(7, "prototype versus anchor targets", prototype >= anchor,
            f"prototype {prototype:.3f} >= anchor {anchor:.3f}")


def test_criterion_08_noise_inertness(pipeline):
    methods = pipeline.report["methods"]
    drift = abs(methods["Noise"]["t_map"] - methods["Original"]["t_map"])
    verdict(8, "noise inertness", drift <= 0.03, f"t-MAP drift {drift:.4f}")


def test_criterion_09_hamming_surrogate_range(rng):
    lo = np.inf
    hi = -np.inf
    for _ in range(10000):
        code_length = int(rng.choice([4, 8, 12, 16]))
        target = _signs(rng, code_length)
        value = loss_hamming(target, T.Tensor(
            rng.uniform(-1.0, 1.0, size=code_length))).values
        assert 0.0 <= value <= 2.0
        assert loss_hamming(target, T.Tensor(target.copy())).values == 0.0
        assert loss_hamming(target, T.Tensor(-target)).values == 2.0
        lo = min(lo, value)
        hi = max(hi, value)
    verdict(9, "hamming surrogate range", True,
            f"10000 pairs in [0, 2], endpoints exact, span "
            f"[{lo:.3f}, {hi:.3f}]")


def test_criterion_10_distortion_weight_sweep(pipeline, gan_variants):
    stock = pipeline.report["methods"]["ProS-GAN"]
    scores = (gan_variants.low_weight[0], stock["t_map"],
              gan_variants.high_weight[0])
    spreads = (gan_variants.low_weight[1], stock["perceptibility"],
               gan_variants.high_weight[1])
    ok = (spreads[0] > spreads[1] > spreads[2]
          and scores[0] >= scores[1] >= scores[2])
    verdict(10, "distortion weight sweep", ok,
            "perceptibility " + " > ".join(f"{s:.4f}" for s in spreads)
            + ", t-MAP " + " >= ".join(f"{s:.3f}" for s in scores))


def test_criterion_11_loss_ablations(pipeline, gan_variants):
    full = pipeline.report["methods"]["ProS-GAN"]["t_map"]
    no_hamming = gan_variants.no_hamming[0]
    no_classes = gan_variants.no_classes[0]
    verdict(11, "loss ablations", full > no_hamming and full > no_classes,
            f"full {full:.4f} > no-hamming {no_hamming:.4f}, "
            f"> no-classes {no_classes:.4f}")


def test_criterion_12_generation_speed(pipeline):
    generator = pipeline.timings["generation_prosgan_seconds"]
    iterative = pipeline.timings["generation_p2p_seconds"]
    assert pipeline.config.iterations == 200
    assert pipeline.config.query_size == 100
    verdict(12, "generation speed", generator <= iterative / 10.0,
            f"{generator * 1e3:.2f}ms versus {iterative * 1e3:.1f}ms "
            "per image over 100 images")


def test_criterion_13_cross_model_transfer(pipeline):
    gain = pipeline.transfer["transfer_gain"]
    verdict(13, "cross-model transfer", gain >= 0.05,
            f"t-MAP gain {gain:+.3f} on the independently trained model")


def test_criterion_14_checkpoint_persistence(pipeline, tmp_path, rng):
    config = pipeline.config
    bundle = load_bundle(pipeline.out / "dataset.npz")
    model, _ = load_hash_model(pipeline.out / "hash_model.json",
                               config_hash=config.config_hash())
    probe = rng.random((5, bundle.query_images.shape[1]))
    save_hash_model(tmp_path / "model.json", model, SEED, config.config_hash(), {})
    reloaded, _ = load_hash_model(tmp_path / "model.json",
                                  config_hash=config.config_hash())
    hash_identical = np.array_equal(model.continuous_codes(probe),
                                    reloaded.continuous_codes(probe))

    stack, _ = load_attack_stack(pipeline.out / "attack_stack.json",
                                 config_hash=config.config_hash())
    save_attack_stack(tmp_path / "stack.json", stack, SEED, config.config_hash(), {})
    stack_again, _ = load_attack_stack(tmp_path / "stack.json",
                                       config_hash=config.config_hash())
    targets = eval_target_labels(SEED, bundle)[:3]
    images = bundle.query_images[:3]
    before = targeted_examples(stack, images, targets)
    after = targeted_examples(stack_again, images, targets)
    stack_identical = np.array_equal(before, after)

    # a single flipped payload character must be rejected
    text = (tmp_path / "model.json").read_text()
    anchor = '"data": "'
    start = text.index(anchor) + len(anchor)
    flip = "0" if text[start] != "0" else "1"
    (tmp_path / "tampered.json").write_text(text[:start] + flip
                                            + text[start + 1:])
    with pytest.raises(CheckpointError):
        load_hash_model(tmp_path / "tampered.json", config.config_hash())
    (tmp_path / "truncated.json").write_text(text[: len(text) // 2])
    with pytest.raises(CheckpointError):
        load_hash_model(tmp_path / "truncated.json", config.config_hash())

    verdict(14, "checkpoint persistence", hash_identical and stack_identical,
            "bit-identical forwards after round trip, tampering rejected")
