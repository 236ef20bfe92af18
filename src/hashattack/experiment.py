"""End-to-end pipeline stages over one shared output directory.

Every stage reads its inputs from earlier stages' files, so the
pipeline can resume from any point.  Per-stage random streams are
children of the run seed, which keeps every stage reproducible on its
own and shares the drawn attack targets across generation and scoring.
Wall-clock numbers never enter report files; they live in
``timings.json`` so reports from equal seeds match byte for byte.
"""

import functools
import json
import os
import time
from pathlib import Path

import numpy as np

from .baselines import anchor_attack, anchor_codes, noise_queries, p2p_attack
from .checkpoint import load_attack_stack, load_hash_model, save_attack_stack, save_hash_model
from .data import gen_synthetic_dataset, load_bundle, load_json, load_npz, save_bundle, unique_labels
from .errors import (CheckpointCorruptError, CheckpointMismatchError,
                     CheckpointMissingError, InputError)
from .evaluation import evaluate_queries, mean_perceptibility
from .gan import _pick_targets, targeted_examples, train_attack_gan
from .hashing import binarize, encode_database, train_target_model

# child-stream indices under the run seed; shared draws must reuse the
# same index from every stage that needs them
STAGE_STREAMS = {
    "data": 0,
    "hash": 1,
    "attack": 2,
    "eval_targets": 3,
    "p2p": 4,
    "dhta": 5,
    "noise": 6,
    "transfer": 7,
    "anchor": 8,
}

def stage_rng(seed, stream):
    if stream not in STAGE_STREAMS:
        raise InputError(f"unknown random stream {stream!r}")
    sequence = np.random.SeedSequence(entropy=seed,
                                      spawn_key=(STAGE_STREAMS[stream],))
    return np.random.default_rng(sequence)


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path, header, rows):
    """One line per row of Python ``int`` and ``float`` cells, each written as its ``repr``."""
    Path(path).write_text("\n".join([header, *(",".join(map(repr, row)) for row in rows)])
                          + "\n")


def _publish(out, files):
    """Write each ``name: writer(path)`` to ``.partial.<name>`` (the suffix stays last, as
    np.savez wants) and rename it into place: a reader finds it whole or not at all."""
    for name, write in files.items():
        partial = out / f".partial.{name}"
        try:
            write(partial)
            os.replace(partial, out / name)
        finally:
            partial.unlink(missing_ok=True)


# the stages that run as `baseline <stage>`, and each attack stage's method slug
BASELINES = ("p2p", "dhta", "noise")
_ATTACKS = {"attack": "prosgan", **{stage: stage for stage in BASELINES}}


def command(stage):
    """The CLI command that runs ``stage``: ``train-hash``, ``baseline p2p``, ..."""
    return f"baseline {stage}" if stage in BASELINES else stage.replace("_", "-")


def _run_module(load, path, config, seed):
    """A stage's upstream module, refused unless this run's config and seed made it."""
    module, checkpoint = load(path, config.config_hash())
    # type, not equality: True == 1 and 1.0 == 1 would pass another file
    if type(checkpoint.seed) is not int or checkpoint.seed != seed:
        raise CheckpointMismatchError(
            f"{path.name} was written under seed {checkpoint.seed}, not {seed}")
    return module


def _code_matrix(path):
    (matrix,) = load_npz(path, ("code_matrix",))
    if matrix.ndim != 2 or np.any(np.abs(matrix) != 1):
        raise CheckpointCorruptError(f"{path.name}: code_matrix is not a 2-D array of +/-1")
    return matrix


# each file a stage reads: the stage that writes it, and its loader over (path,
# config, seed); a loader finds functions by name when called, so rebinding reaches it
ARTIFACTS = {
    "dataset.npz": ("gen_data", lambda path, *run: load_bundle(path)),
    "hash_model.json": ("train_hash", lambda *args: _run_module(load_hash_model, *args)),
    "codes.npz": ("encode_db", lambda path, *run: _code_matrix(path)),
    "attack_stack.json": ("train_attack", lambda *args: _run_module(load_attack_stack, *args)),
    **{f"adversarial_{slug}.npz":
       (stage, lambda path, *run: load_npz(path, ("originals", "perturbed", "target_labels")))
       for stage, slug in _ATTACKS.items()},
}


def read(name, config, seed, out):
    """Table file ``name`` in ``out``; a missing one names the command that writes it."""
    stage, load = ARTIFACTS[name]
    path = Path(out) / name
    if not path.is_file():
        raise CheckpointMissingError(f"missing {name}; run {command(stage)} first")
    return load(path, config, seed)


def _hash_and_codes(bundle, config, seed, out):
    """The hash model and its (code length, database items) code matrix."""
    model = read("hash_model.json", config, seed, out)
    matrix = read("codes.npz", config, seed, out)
    expected = (model.code_length, len(bundle.database_images))
    if matrix.shape != expected:
        raise CheckpointMismatchError(f"codes.npz is {matrix.shape}, not (bits, items) {expected}")
    return model, matrix


def _load_examples(name, bundle, targets, config, seed, out):
    """A method's [0, 1] perturbed block; it must attack this run's queries toward its targets."""
    originals, perturbed, stored_targets = read(name, config, seed, out)
    if not (np.array_equal(originals, bundle.query_images)
            and np.array_equal(stored_targets, targets) and perturbed.shape == originals.shape):
        raise CheckpointMismatchError(
            f"{name} does not attack this run's queries toward its targets")
    if perturbed.min() < 0.0 or perturbed.max() > 1.0:
        raise CheckpointCorruptError(f"{name}: perturbed holds pixels outside [0, 1]")
    return perturbed


def eval_target_labels(seed, bundle):
    """The one shared draw of per-query attack targets for this run."""
    label_set = unique_labels(bundle.train_labels)
    return _pick_targets(stage_rng(seed, "eval_targets"), bundle.query_labels,
                         label_set)


def stage_gen_data(config, seed, out):
    bundle = gen_synthetic_dataset(config, stage_rng(seed, "data"))
    return {
        "train": int(bundle.train_images.shape[0]),
        "database": int(bundle.database_images.shape[0]),
        "query": int(bundle.query_images.shape[0]),
        "pixels": int(bundle.train_images.shape[1]),
    }, {"dataset.npz": functools.partial(save_bundle, bundle)}, {}


def stage_train_hash(config, seed, out):
    bundle = read("dataset.npz", config, seed, out)
    model, losses = train_target_model(bundle.train_images, bundle.train_labels,
                                       config.code_length, config.hash_hidden_widths,
                                       config, stage_rng(seed, "hash"))
    return {"epochs": len(losses), "final_loss": float(losses[-1])}, {
        "hash_model.json": lambda path: save_hash_model(path, model, seed, config.config_hash(),
                                                        {"final_loss": losses[-1]}),
        "hash_training.csv": functools.partial(_write_csv, header="epoch,loss",
                                               rows=list(enumerate(losses))),
    }, {}


def stage_encode_db(config, seed, out):
    bundle = read("dataset.npz", config, seed, out)
    model = read("hash_model.json", config, seed, out)
    matrix = encode_database(model, bundle.database_images)
    return ({"items": int(matrix.shape[1]), "code_length": int(matrix.shape[0])},
            {"codes.npz": functools.partial(np.savez, code_matrix=matrix)}, {})


def stage_train_attack(config, seed, out):
    bundle = read("dataset.npz", config, seed, out)
    model = read("hash_model.json", config, seed, out)
    stack, history = train_attack_gan(bundle.train_images, bundle.train_labels, model,
                                      config, stage_rng(seed, "attack"))
    return {"epochs": len(history), "final_generator_loss": float(history[-1][2])}, {
        "attack_stack.json": lambda path: save_attack_stack(
            path, stack, seed, config.config_hash(), {"final_losses": list(history[-1][1:])}),
        "attack_training.csv": functools.partial(_write_csv, rows=history, header=(
            "epoch,prototype_loss,generator_loss,discriminator_loss")),
    }, {}


def stage_attack(config, seed, out, method):
    """Craft one method's perturbed query block and time its making.

    Every method attacks the query split toward the run's shared targets.
    ``generation_<method>_seconds`` is the per-image latency: the time of
    the one generating call, since a batched method finishes every image
    together, except for the generator, whose method is one forward pass
    per query: its one ``Generator.forward`` over a stack of one-row
    blocks crafts each query as a pass of its own would, so it takes the
    call time amortized over the image count.  The throughput is the
    image count over the call time.
    """
    bundle = read("dataset.npz", config, seed, out)
    queries = bundle.query_images
    targets = eval_target_labels(seed, bundle)
    if method == "prosgan":
        stack = read("attack_stack.json", config, seed, out)
        generate = functools.partial(targeted_examples, stack, queries, targets)
    elif method == "noise":
        generate = functools.partial(noise_queries, queries, config.epsilon,
                                     stage_rng(seed, "noise"))
    else:  # p2p or dhta, the only other methods in _STAGE_TABLE
        model, matrix = _hash_and_codes(bundle, config, seed, out)
        attack = p2p_attack if method == "p2p" else anchor_attack
        generate = functools.partial(attack, model, queries, targets,
                                     bundle.database_labels, matrix, config,
                                     stage_rng(seed, method))
    started = time.perf_counter()
    perturbed = generate()
    elapsed = time.perf_counter() - started
    count = queries.shape[0]
    latency = elapsed / count if method == "prosgan" else elapsed
    files = {f"adversarial_{method}.npz": functools.partial(
        np.savez, originals=queries, perturbed=perturbed, target_labels=targets)}
    return {"count": count, "mean_generation_seconds": latency}, files, {
        f"generation_{method}_seconds": latency,
        f"throughput_{method}_images_per_second": count / elapsed}


def _method_row(report, true_report=None, perceptibility=None):
    """A report row: t-MAP from ``report``, MAP from ``true_report`` if scored."""
    return {
        "t_map": report.mean_ap,
        "map": None if true_report is None else true_report.mean_ap,
        "perceptibility": perceptibility,
        "queries_without_relevant": report.queries_without_relevant,
    }


def stage_eval(config, seed, out):
    """Score every available query block into the run report and its curves.

    Each block's distinct codes are ranked once, and each distinct (code,
    label) pair is scored once, with reports identical to scoring every
    row.  The original and attacked blocks are judged against the targets
    and the true labels; the Original row's true-label report is the
    retrieval baseline.
    """
    bundle = read("dataset.npz", config, seed, out)
    model, matrix = _hash_and_codes(bundle, config, seed, out)
    db_labels = bundle.database_labels
    labels = bundle.query_labels
    targets = eval_target_labels(seed, bundle)

    methods = {}
    curves = {}

    curves["original"], curves["retrieval"] = evaluate_queries(
        model.codes(bundle.query_images), matrix, db_labels, targets, labels)
    methods["Original"] = _method_row(curves["original"], curves["retrieval"])

    for name, slug in (("Noise", "noise"), ("P2P", "p2p"), ("DHTA", "dhta"),
                       ("ProS-GAN", "prosgan")):
        file = f"adversarial_{slug}.npz"
        if (out / file).is_file():
            perturbed = _load_examples(file, bundle, targets, config, seed, out)
            curves[slug], true_report = evaluate_queries(model.codes(perturbed), matrix,
                                                         db_labels, targets, labels)
            methods[name] = _method_row(curves[slug], true_report,
                                        mean_perceptibility(bundle.query_images, perturbed))

    # upper references: rank by the chosen target codes themselves
    anchors = anchor_codes(targets, db_labels, matrix, stage_rng(seed, "anchor"),
                           config.anchor_set_size)
    curves["anchor"] = evaluate_queries(anchors, matrix, db_labels, targets)[0]
    methods["Anchor-code"] = _method_row(curves["anchor"])

    if (out / "attack_stack.json").is_file():
        stack = read("attack_stack.json", config, seed, out)
        proto_codes = binarize(stack.prototype.forward(targets).continuous_code.values)
        curves["prototype"] = evaluate_queries(proto_codes, matrix, db_labels, targets)[0]
        methods["Prototype-code"] = _method_row(curves["prototype"])

    report = {
        "seed": int(seed),
        "config_hash": config.config_hash(),
        "retrieval_map": curves["retrieval"].mean_ap,
        "methods": methods,
    }
    files = {"report.json": functools.partial(_write_json, payload=report)}
    for slug, row in curves.items():
        files[f"pr_curve_{slug}.csv"] = functools.partial(
            _write_csv, header="cutoff,precision,recall", rows=row.pr_curve)
        files[f"topn_{slug}.csv"] = functools.partial(_write_csv, header="N,precision",
                                                      rows=row.precision_at_n)
    return report, files, {}


def stage_transfer_eval(config, seed, out):
    """Train a second model and score the generator's output against it."""
    bundle = read("dataset.npz", config, seed, out)
    targets = eval_target_labels(seed, bundle)
    perturbed = _load_examples("adversarial_prosgan.npz", bundle, targets, config, seed, out)
    model_b, losses = train_target_model(bundle.train_images,
                                         bundle.train_labels,
                                         config.transfer_code_length,
                                         config.transfer_hidden_widths,
                                         config, stage_rng(seed, "transfer"))
    matrix_b = encode_database(model_b, bundle.database_images)
    original_t = evaluate_queries(model_b.codes(bundle.query_images), matrix_b,
                                  bundle.database_labels, targets)[0].mean_ap
    adversarial_t = evaluate_queries(model_b.codes(perturbed), matrix_b,
                                     bundle.database_labels, targets)[0].mean_ap
    report = {
        "seed": int(seed),
        "config_hash": config.config_hash(),
        "original_t_map": original_t,
        "adversarial_t_map": adversarial_t,
        "transfer_gain": adversarial_t - original_t,
    }
    return report, {
        "transfer_model.json": lambda path: save_hash_model(
            path, model_b, seed, config.config_hash(), {"final_loss": losses[-1]}),
        "transfer_report.json": functools.partial(_write_json, payload=report),
    }, {}


# each stage returns (summary, {file name: writer of a path}, timing entries), writes nothing
_STAGE_TABLE = {
    "gen_data": stage_gen_data,
    "train_hash": stage_train_hash,
    "encode_db": stage_encode_db,
    "train_attack": stage_train_attack,
    **{stage: functools.partial(stage_attack, method=slug)
       for stage, slug in _ATTACKS.items()},
    "eval": stage_eval,
    "transfer_eval": stage_transfer_eval,
}

STAGE_ORDER = tuple(_STAGE_TABLE)


def execute_stage(name, config, seed, out):
    """Run one named stage, publish its files and merge its timings into ``timings.json``;
    a failing stage raises its exception to the caller, publishes nothing and records no time."""
    if name not in _STAGE_TABLE:
        raise InputError(f"unknown stage {name!r}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    summary, files, timings = _STAGE_TABLE[name](config, seed, out)
    target = out / "timings.json"
    current = load_json(target, "timings.json") if target.is_file() else {}
    _publish(out, files)
    current.update(timings, **{f"{name}_seconds": time.perf_counter() - started})
    _publish(out, {"timings.json": functools.partial(_write_json, payload=current)})
    return summary


def run_experiment(config, seed, out):
    """All stages in order; returns the evaluation and transfer reports."""
    results = {}
    for name in STAGE_ORDER:
        results[name] = execute_stage(name, config, seed, out)
    return {"report": results["eval"], "transfer": results["transfer_eval"]}
