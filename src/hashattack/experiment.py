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
import time
from pathlib import Path

import numpy as np

from .baselines import anchor_attack, anchor_codes, noise_queries, p2p_attack
from .checkpoint import (
    load_attack_stack,
    load_hash_model,
    save_attack_stack,
    save_hash_model,
)
from .data import gen_synthetic_dataset, load_bundle, load_npz, save_bundle, unique_labels
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


def _require(path, hint):
    path = Path(path)
    if not path.is_file():
        raise CheckpointMissingError(f"missing {path.name}; run {hint} first")
    return path


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cell(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, header, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(_cell(value) for value in row))
    Path(path).write_text("\n".join(lines) + "\n")


def update_timings(out, **entries):
    """Merge wall-clock entries into the run's timing sidecar."""
    target = Path(out) / "timings.json"
    try:
        current = json.loads(target.read_text()) if target.is_file() else {}
    except ValueError as err:  # bad JSON or bad UTF-8
        raise CheckpointCorruptError(f"unreadable timings.json: {err}") from err
    if not isinstance(current, dict):
        raise CheckpointCorruptError("timings.json is not a JSON object")
    current.update({key: float(value) for key, value in entries.items()})
    _write_json(target, current)


def _load_data(out):
    return load_bundle(_require(Path(out) / "dataset.npz", "gen-data"))


def _load_checkpoint(load, path, config, seed):
    """A stage's upstream module, refused unless this run's config and seed made it."""
    module, checkpoint = load(path, config.config_hash())
    # type, not equality: True == 1 and 1.0 == 1 would pass another file
    if type(checkpoint.seed) is not int or checkpoint.seed != seed:
        raise CheckpointMismatchError(
            f"{Path(path).name} was written under seed {checkpoint.seed}, not {seed}"
        )
    return module


def _load_hash(config, seed, out):
    path = _require(Path(out) / "hash_model.json", "train-hash")
    return _load_checkpoint(load_hash_model, path, config, seed)


def _load_stack(config, seed, out):
    path = _require(Path(out) / "attack_stack.json", "train-attack")
    return _load_checkpoint(load_attack_stack, path, config, seed)


def _load_codes(out):
    path = _require(Path(out) / "codes.npz", "encode-db")
    return load_npz(path, ("code_matrix",))[0]


def _load_examples(out, slug, queries, targets):
    """A method's perturbed block, refused unless it attacks this run's queries and targets."""
    hint = "attack" if slug == "prosgan" else f"baseline {slug}"
    path = _require(Path(out) / f"adversarial_{slug}.npz", hint)
    originals, perturbed, stored_targets = load_npz(
        path, ("originals", "perturbed", "target_labels"))
    if not (np.array_equal(originals, queries) and np.array_equal(stored_targets, targets)
            and perturbed.shape == queries.shape):
        raise CheckpointMismatchError(
            f"{path.name} does not attack this run's queries toward its targets"
        )
    return perturbed


def eval_target_labels(seed, bundle):
    """The one shared draw of per-query attack targets for this run."""
    label_set = unique_labels(bundle.train_labels)
    return _pick_targets(stage_rng(seed, "eval_targets"), bundle.query_labels,
                         label_set)


def stage_gen_data(config, seed, out):
    bundle = gen_synthetic_dataset(config, stage_rng(seed, "data"))
    save_bundle(bundle, Path(out) / "dataset.npz")
    return {
        "train": int(bundle.train_images.shape[0]),
        "database": int(bundle.database_images.shape[0]),
        "query": int(bundle.query_images.shape[0]),
        "pixels": int(bundle.train_images.shape[1]),
    }


def stage_train_hash(config, seed, out):
    bundle = _load_data(out)
    model, losses = train_target_model(bundle.train_images, bundle.train_labels,
                                       config.code_length, config.hash_hidden_widths,
                                       config, stage_rng(seed, "hash"))
    save_hash_model(Path(out) / "hash_model.json", model, seed, config.config_hash(),
                    {"final_loss": losses[-1]})
    _write_csv(Path(out) / "hash_training.csv", "epoch,loss",
               list(enumerate(losses)))
    return {"epochs": len(losses), "final_loss": float(losses[-1])}


def stage_encode_db(config, seed, out):
    bundle = _load_data(out)
    model = _load_hash(config, seed, out)
    matrix = encode_database(model, bundle.database_images)
    np.savez(Path(out) / "codes.npz", code_matrix=matrix)
    return {"items": int(matrix.shape[1]), "code_length": int(matrix.shape[0])}


def stage_train_attack(config, seed, out):
    bundle = _load_data(out)
    model = _load_hash(config, seed, out)
    stack, history = train_attack_gan(bundle.train_images, bundle.train_labels, model,
                                      config, stage_rng(seed, "attack"))
    save_attack_stack(Path(out) / "attack_stack.json", stack, seed, config.config_hash(),
                      {"final_losses": list(history[-1][1:])})
    _write_csv(Path(out) / "attack_training.csv",
               "epoch,prototype_loss,generator_loss,discriminator_loss", history)
    return {"epochs": len(history),
            "final_generator_loss": float(history[-1][2])}


def stage_attack(config, seed, out, method):
    """Craft one method's perturbed query block; save it and time its making.

    Every method attacks the query split toward the run's shared targets.
    ``generation_<method>_seconds`` is the per-image latency: the time of
    the one generating call, since a batched method finishes every image
    together, except for the generator, which makes one image per step and
    so takes the call time over the image count.  The throughput is the
    image count over the call time.
    """
    bundle = _load_data(out)
    queries = bundle.query_images
    targets = eval_target_labels(seed, bundle)
    if method == "prosgan":
        stack = _load_stack(config, seed, out)
        generate = functools.partial(targeted_examples, stack, queries, targets)
    elif method == "noise":
        generate = functools.partial(noise_queries, queries, config.epsilon,
                                     stage_rng(seed, "noise"))
    else:  # p2p or dhta, the only other methods in _STAGE_TABLE
        model = _load_hash(config, seed, out)
        matrix = _load_codes(out)
        attack = p2p_attack if method == "p2p" else anchor_attack
        generate = functools.partial(attack, model, queries, targets,
                                     bundle.database_labels, matrix, config,
                                     stage_rng(seed, method))
    started = time.perf_counter()
    perturbed = generate()
    elapsed = time.perf_counter() - started
    np.savez(Path(out) / f"adversarial_{method}.npz", originals=queries,
             perturbed=perturbed, target_labels=targets)
    count = queries.shape[0]
    latency = elapsed / count if method == "prosgan" else elapsed
    update_timings(out, **{
        f"generation_{method}_seconds": latency,
        f"throughput_{method}_images_per_second": count / elapsed,
    })
    return {"count": count, "mean_generation_seconds": latency}


def _method_row(report, true_report=None, perceptibility=None):
    """A report row: t-MAP from ``report``, MAP from ``true_report`` if scored."""
    return {
        "t_map": report.mean_ap,
        "map": None if true_report is None else true_report.mean_ap,
        "perceptibility": perceptibility,
        "queries_without_relevant": report.queries_without_relevant,
    }


def stage_eval(config, seed, out):
    """Score every available query block and write the run report.

    Each block's distinct codes are ranked once, and each distinct (code,
    label) pair is scored once, with reports identical to scoring every
    row.  The original and attacked blocks are judged against the targets
    and the true labels; the Original row's true-label report is the
    retrieval baseline.
    """
    out = Path(out)
    bundle = _load_data(out)
    model = _load_hash(config, seed, out)
    matrix = _load_codes(out)
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
        path = out / f"adversarial_{slug}.npz"
        if not path.is_file():
            continue
        perturbed = _load_examples(out, slug, bundle.query_images, targets)
        curves[slug], true_report = evaluate_queries(model.codes(perturbed), matrix,
                                                     db_labels, targets, labels)
        methods[name] = _method_row(curves[slug], true_report,
                                    mean_perceptibility(bundle.query_images, perturbed))

    # upper references: rank by the chosen target codes themselves
    anchors = anchor_codes(targets, db_labels, matrix, stage_rng(seed, "anchor"),
                           config.anchor_set_size)
    curves["anchor"] = evaluate_queries(anchors, matrix, db_labels, targets)[0]
    methods["Anchor-code"] = _method_row(curves["anchor"])

    stack_path = out / "attack_stack.json"
    if stack_path.is_file():
        stack = _load_stack(config, seed, out)
        proto_codes = binarize(stack.prototype.forward(targets).continuous_code.values)
        curves["prototype"] = evaluate_queries(proto_codes, matrix, db_labels, targets)[0]
        methods["Prototype-code"] = _method_row(curves["prototype"])

    report = {
        "seed": int(seed),
        "config_hash": config.config_hash(),
        "retrieval_map": curves["retrieval"].mean_ap,
        "methods": methods,
    }
    _write_json(out / "report.json", report)
    for slug, row in curves.items():
        _write_csv(out / f"pr_curve_{slug}.csv", "cutoff,precision,recall",
                   row.pr_curve)
        _write_csv(out / f"topn_{slug}.csv", "N,precision", row.precision_at_n)
    return report


def stage_transfer_eval(config, seed, out):
    """Train a second model and score the generator's output against it."""
    out = Path(out)
    bundle = _load_data(out)
    targets = eval_target_labels(seed, bundle)
    perturbed = _load_examples(out, "prosgan", bundle.query_images, targets)
    model_b, losses = train_target_model(bundle.train_images,
                                         bundle.train_labels,
                                         config.transfer_code_length,
                                         config.transfer_hidden_widths,
                                         config, stage_rng(seed, "transfer"))
    save_hash_model(out / "transfer_model.json", model_b, seed, config.config_hash(),
                    {"final_loss": losses[-1]})
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
    _write_json(out / "transfer_report.json", report)
    return report


_STAGE_TABLE = {
    "gen_data": stage_gen_data,
    "train_hash": stage_train_hash,
    "encode_db": stage_encode_db,
    "train_attack": stage_train_attack,
    "attack": functools.partial(stage_attack, method="prosgan"),
    "p2p": functools.partial(stage_attack, method="p2p"),
    "dhta": functools.partial(stage_attack, method="dhta"),
    "noise": functools.partial(stage_attack, method="noise"),
    "eval": stage_eval,
    "transfer_eval": stage_transfer_eval,
}

STAGE_ORDER = tuple(_STAGE_TABLE)


def execute_stage(name, config, seed, out):
    """Run one named stage and add its wall time to ``timings.json``.

    A failing stage raises its exception to the caller and records no time.
    """
    if name not in _STAGE_TABLE:
        raise InputError(f"unknown stage {name!r}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    result = _STAGE_TABLE[name](config, seed, out)
    update_timings(out, **{f"{name}_seconds": time.perf_counter() - started})
    return result


def run_experiment(config, seed, out):
    """All stages in order; returns the evaluation and transfer reports."""
    results = {}
    for name in STAGE_ORDER:
        results[name] = execute_stage(name, config, seed, out)
    return {"report": results["eval"], "transfer": results["transfer_eval"]}
