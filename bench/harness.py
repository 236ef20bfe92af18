"""Workloads, set-up, timed passes, correctness gate and metrics.

``run.py`` is the entry point; it pins the BLAS thread count and puts
``src`` on the import path before this module loads numpy.

Each workload is a closed loop of one client: one process runs the
workload's stages back to back through ``experiment.execute_stage``,
passing the workload seed, and starts the next stage only when the last
one returned.  A *pass* is one run of the workload's timed stages; the
timed part repeats passes while another one is expected to end within
``--seconds`` (at least one pass) and reports medians over them.
"""

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hashattack import experiment
from hashattack.checkpoint import load_hash_model
from hashattack.config import ExperimentConfig

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = HERE / ".run"
PINNED = HERE / "digests.json"

# the end-to-end metrics BENCHMARK.json declares; every workload has them
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

# the reference loop's duration that defines a reference second
REFERENCE_SECONDS = 0.2

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    why: str
    overrides: tuple          # ExperimentConfig fields changed from stock
    upstream: tuple           # stages run during set-up, in a child process
    timed: tuple              # stages of one timed pass
    setup_repeats: int
    reference: str = "mixed"  # the REFERENCE_LOOPS entry that scales its passes
    methods: tuple = ()       # report.json rows the eval stage must write

    def config(self):
        return ExperimentConfig(**dict(self.overrides))


ALL_METHODS = ("Original", "Noise", "P2P", "DHTA", "ProS-GAN", "Anchor-code",
               "Prototype-code")

WORKLOADS = {
    "pipeline": Workload(
        why="What users run: all ten stages at stock sizes and architectures, "
            "so tape, Adam and traced forward passes do most of the work.",
        # stock epochs make one pass 70 s or more; a quarter of them keeps
        # every per-epoch and per-query cost and fits the run budget
        overrides=(("hash_epochs", 150), ("attack_epochs", 10)),
        upstream=(),
        timed=experiment.STAGE_ORDER,
        setup_repeats=5,
        methods=ALL_METHODS,
    ),
    "attack": Workload(
        why="The iterative P2P and DHTA attacks and the generator over the "
            "query split: many batch-1 tapes of tiny arrays and no Adam.",
        # the attacks run a fixed number of iterations, so upstream
        # training length does not change their cost
        overrides=(("hash_epochs", 20), ("attack_epochs", 1)),
        upstream=("gen_data", "train_hash", "encode_db", "train_attack"),
        timed=("p2p", "dhta", "attack", "noise"),
        setup_repeats=3,
        reference="tape",
    ),
    "retrieval": Workload(
        why="Hamming ranking and metrics over a database 2x and a query "
            "split 5x stock: untraced forward passes, no tape and no Adam.",
        # sized and shaped so that a pass costs the same on every seed: at
        # 10000 items the 500-row relevance matrices (40 MB each) made eval
        # memory-bound, and a neighbour's memory traffic slowed it by up to
        # 30%; at 2000 they are 8 MB.  The stable sort in ranking costs up
        # to 10x more on diverse codes than on a hash collapsed to one code;
        # at stock contrast the number of distinct codes (1 to 60) depended
        # on the seed even after 600 epochs, at contrast 0.3 ten seeds gave
        # 10 to 17
        overrides=(("database_size", 2000), ("query_size", 500),
                   ("template_contrast", 0.3),
                   ("hash_epochs", 20), ("attack_epochs", 1)),
        upstream=("gen_data", "train_hash", "train_attack", "attack", "noise"),
        timed=("encode_db", "eval"),
        setup_repeats=3,
        methods=("Original", "Noise", "ProS-GAN", "Anchor-code",
                 "Prototype-code"),
    ),
}

# files each stage writes that must be byte-identical for equal seeds
STAGE_ARTIFACTS = {
    "gen_data": ("dataset.npz",),
    "train_hash": ("hash_model.json",),
    "encode_db": ("codes.npz",),
    "train_attack": ("attack_stack.json",),
    "attack": ("adversarial_prosgan.npz",),
    "p2p": ("adversarial_p2p.npz",),
    "dhta": ("adversarial_dhta.npz",),
    "noise": ("adversarial_noise.npz",),
    "eval": ("report.json",),
    "transfer_eval": ("transfer_report.json",),
}


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class DigestGate:
    """Artifact digests against the pinned, recorded or first-seen value.

    ``digests.json`` pins one seed per workload.  For any other seed the
    first correct run in a checkout records its digests under ``.run``
    and later runs with that seed must match them.  Within a run every
    repeat of a stage must write the same bytes.
    """

    def __init__(self, workload, seed, config):
        # a record holds for one config, so editing a workload starts afresh
        self.record = (STATE / "digests"
                       / f"{workload}-{seed}-{config.config_hash()[:16]}.json")
        entry = json.loads(PINNED.read_text()).get(workload, {})
        if entry.get("seed") == seed:
            self.source, self.expected = "pinned", dict(entry["sha256"])
        elif self.record.is_file():
            self.source, self.expected = "recorded", json.loads(self.record.read_text())
        else:
            self.source, self.expected = "first run", {}
        self.mismatches = []

    def check(self, out, stage):
        ok = True
        for name in STAGE_ARTIFACTS[stage]:
            path = Path(out) / name
            digest = sha256(path) if path.is_file() else "missing"
            if self.expected.setdefault(name, digest) != digest:
                self.mismatches.append(f"{stage}: {name} {digest[:12]} != "
                                       f"{self.source} {self.expected[name][:12]}")
                ok = False
        return ok

    def save(self):
        if self.source == "pinned":
            return
        self.record.parent.mkdir(parents=True, exist_ok=True)
        self.record.write_text(json.dumps(self.expected, indent=1, sort_keys=True) + "\n")


def run_upstream(workload, seed, out):
    """Child-process body of one set-up: build the upstream artifacts."""
    spec = WORKLOADS[workload]
    config = spec.config()
    for stage in spec.upstream:
        experiment.execute_stage(stage, config, seed, out)


def setup_in_child(workload, seed, out):
    """One set-up in a fresh interpreter, so it pays start-up and imports."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--upstream", str(out)]
    done = subprocess.run(command, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed with code "
                           f"{done.returncode}: {done.stderr.strip()[-2000:]}")


def run_pass(spec, config, seed, out, gate, clock, stage_seconds):
    """One timed pass; returns (raw s, reference s, stage calls, failures)."""
    failures = 0
    raw = corrected = 0.0
    outcome = {}
    for stage in spec.timed:
        clock.start()
        try:
            experiment.execute_stage(stage, config, seed, out)
            outcome[stage] = None
        except Exception as err:   # a failed stage is counted, not fatal
            outcome[stage] = f"{type(err).__name__}: {err}"
        elapsed, scaled = clock.stop()
        stage_seconds.setdefault(stage, []).append(scaled)
        raw += elapsed
        corrected += scaled
    for stage, error in outcome.items():
        if error is not None:
            gate.mismatches.append(f"{stage} raised {error}")
            failures += 1
        elif not gate.check(out, stage):
            failures += 1
    return raw, corrected, len(spec.timed), failures


# --- correctness of the outputs, for any seed ------------------------------

def _oracle_map(query_codes, labels, code_matrix, db_labels):
    """Mean AP over full stable Hamming rankings, written independently."""
    distances = 0.5 * (code_matrix.shape[0] - query_codes @ code_matrix)
    order = np.argsort(distances, axis=1, kind="stable")
    relevant = (labels @ db_labels.T > 0.0)
    ranked = np.take_along_axis(relevant, order, axis=1).astype(np.float64)
    hits = np.cumsum(ranked, axis=1)
    precision = hits / np.arange(1, ranked.shape[1] + 1)
    totals = ranked.sum(axis=1)
    ap = np.where(totals > 0, (precision * ranked).sum(axis=1)
                  / np.maximum(totals, 1.0), 0.0)
    return float(ap.mean())


def _hash_codes(out, config, images):
    model, _ = load_hash_model(Path(out) / "hash_model.json",
                               config_hash=config.config_hash())
    x = images
    for layer in model.net.layers:   # every hash layer is tanh
        x = np.tanh(x @ layer.weight.values + layer.bias.values)
    return np.where(x >= 0.0, 1.0, -1.0)


def check_outputs(spec, config, seed, out):
    """Problems found in the artifacts the workload produced."""
    out = Path(out)
    problems = []
    with np.load(out / "dataset.npz") as blob:
        queries, query_labels = blob["query_images"], blob["query_labels"]
        db_labels = blob["database_labels"]

    for slug in ("noise", "p2p", "dhta", "prosgan"):
        path = out / f"adversarial_{slug}.npz"
        if not path.is_file():
            continue
        with np.load(path) as blob:
            originals, perturbed, targets = (blob["originals"], blob["perturbed"],
                                             blob["target_labels"])
        if not np.array_equal(originals, queries):
            problems.append(f"{slug}: originals are not the query split")
        if not (np.all(np.isfinite(perturbed)) and perturbed.min() >= 0.0
                and perturbed.max() <= 1.0):
            problems.append(f"{slug}: pixels outside [0, 1]")
        if slug != "prosgan" and np.abs(perturbed - originals).max() > config.epsilon + 1e-12:
            problems.append(f"{slug}: perturbation exceeds epsilon")
        if np.any(np.all(targets == query_labels, axis=1)):
            problems.append(f"{slug}: a target label equals the query's own label")

    if "encode_db" in spec.timed or "encode_db" in spec.upstream:
        with np.load(out / "codes.npz") as blob:
            codes = blob["code_matrix"]
        if codes.shape != (config.code_length, config.database_size) or \
                not np.all(np.abs(codes) == 1.0):
            problems.append("codes.npz is not a (K, N) matrix of +/-1")

    if "eval" in spec.timed:
        report = json.loads((out / "report.json").read_text())
        if report["seed"] != seed or report["config_hash"] != config.config_hash():
            problems.append("report.json names another seed or config")
        if tuple(sorted(report["methods"])) != tuple(sorted(spec.methods)):
            problems.append(f"report.json rows {sorted(report['methods'])}")
        for name, row in report["methods"].items():
            for key in ("t_map", "map"):
                if row[key] is not None and not 0.0 <= row[key] <= 1.0:
                    problems.append(f"{name} {key} = {row[key]} outside [0, 1]")
        with np.load(out / "codes.npz") as blob:
            matrix = blob["code_matrix"]
        with np.load(out / "adversarial_prosgan.npz") as blob:
            targets = blob["target_labels"]
        query_codes = _hash_codes(out, config, queries)
        for label, expected, labels in (
                ("retrieval_map", report["retrieval_map"], query_labels),
                ("Original t_map", report["methods"]["Original"]["t_map"], targets)):
            oracle = _oracle_map(query_codes, labels, matrix, db_labels)
            if abs(oracle - expected) > 1e-9:
                problems.append(f"{label} {expected} != oracle {oracle}")

    if "transfer_eval" in spec.timed:
        report = json.loads((out / "transfer_report.json").read_text())
        gain = report["adversarial_t_map"] - report["original_t_map"]
        if not (0.0 <= report["original_t_map"] <= 1.0
                and 0.0 <= report["adversarial_t_map"] <= 1.0
                and report["transfer_gain"] == gain):
            problems.append("transfer_report.json is inconsistent")
    return problems


# --- measurements around the program ---------------------------------------

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def last_level_cache_bytes():
    """Largest cache size getconf knows; 0 when it knows none."""
    for name in ("LEVEL4_CACHE_SIZE", "LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            value = subprocess.run(["getconf", name], capture_output=True,
                                   text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return 0
        if value.isdigit() and int(value) > 0:
            return int(value)
    return 0


def copy_bandwidth():
    """numpy copy GB/s (bytes read + written) on arrays 4x the last-level cache.

    When the cache size is unknown the arrays are 512 MiB each.
    """
    llc = last_level_cache_bytes()
    size = 4 * llc if llc else 512 << 20
    source = np.ones(size // 8)
    target = np.empty_like(source)
    np.copyto(target, source)   # first touch faults the pages in
    times = []
    for _ in range(5):
        started = time.perf_counter()
        np.copyto(target, source)
        times.append(time.perf_counter() - started)
    del source, target
    return {"memory.copy_gbps": 2 * size / statistics.median(times) / 1e9,
            "memory.copy_array_mb": size / 2**20,
            "memory.llc_mb": llc / 2**20}


def environment(spec, workload, seed, config):
    commit = ""
    if (ROOT / ".git").exists():   # a plain checkout has no history
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit or "unknown (not a git checkout)",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "workload": workload,
        "seed": seed,
        "why": spec.why,
        "config": config.to_text(),
    }


def stage_throughputs(spec, config, stage_seconds):
    """Work per stage reference-second, for the stages this workload times."""
    queries = config.query_size
    work = {
        "train_hash": ("hash_train_samples_per_s", config.hash_epochs * config.train_size),
        "train_attack": ("gan_train_samples_per_s", config.attack_epochs * config.train_size),
        "p2p": ("p2p_queries_per_s", queries),
        "dhta": ("dhta_queries_per_s", queries),
        "attack": ("prosgan_queries_per_s", queries),
        "eval": ("eval_queries_per_s", len(spec.methods) * queries),
    }
    rates = {}
    for stage, (name, amount) in work.items():
        if stage in stage_seconds:
            seconds = stage_seconds[stage]
            rates[name] = (amount * len(seconds) / sum(seconds), "1/s")
    return rates


@functools.cache
def _reference_inputs():
    rng = np.random.default_rng(0)
    return (rng.standard_normal((1, 256)), rng.standard_normal((256, 12)),
            rng.standard_normal((64, 256)), rng.standard_normal((256, 128)),
            rng.standard_normal(400_000))


def _mixed_loop():
    """About equal parts batch-1 numpy calls, a mid-sized matmul, a stable
    sort and plain Python."""
    x, w, a, b, keys = _reference_inputs()
    for _ in range(10_000):
        np.sign(np.tanh(x @ w) * 2.0)
    for _ in range(460):
        np.tanh(a @ b)
    np.argsort(keys, kind="stable")
    total = 0
    for i in range(240_000):
        total += i * i


def _tape_loop():
    """Batch-1 numpy calls recorded as closures and swept in reverse, the
    shape of one iterative-attack step."""
    x, w, _, _, _ = _reference_inputs()
    for _ in range(8_000):
        pulls, value = [], x
        for _ in range(6):
            pulls.append(lambda g, v=value: g * v[0, 0])
            value = np.tanh(value @ w) if value.shape[1] == 256 else value * 0.5
        grad = np.ones_like(value)
        for pull in reversed(pulls):
            grad = pull(grad)
        np.clip(np.sign(grad), -1.0, 1.0)


# In slow phases of the shared machine the attack workload's batch-1 tapes
# slowed about 1.4x more than the mixed loop, while training and ranking
# slowed as much as it; each workload is scaled by the loop shaped like it.
REFERENCE_LOOPS = {"mixed": _mixed_loop, "tape": _tape_loop}


def reference_seconds(kind):
    """Duration of one run of the named reference loop."""
    started = time.perf_counter()
    REFERENCE_LOOPS[kind]()
    return time.perf_counter() - started


class ReferenceClock:
    """Times work in raw seconds and in reference seconds.

    The shared machine this benchmark was built on ran up to twice as
    slow for minutes at a time.  The workload's reference loop runs
    before and after each timed interval; the interval's reference
    seconds are its raw seconds times ``REFERENCE_SECONDS`` over the
    mean of those two loop durations, so they read as if the machine ran
    at the fixed speed where the loop takes ``REFERENCE_SECONDS``.
    """

    def __init__(self, kind):
        self.kind = kind
        self.loops = [reference_seconds(kind)]
        self._begun = None

    def start(self):
        self._begun = time.perf_counter()

    def stop(self):
        elapsed = time.perf_counter() - self._begun
        self.loops.append(reference_seconds(self.kind))
        speed = 0.5 * (self.loops[-2] + self.loops[-1]) / REFERENCE_SECONDS
        return elapsed, elapsed / speed


def measure(workload, seed, seconds, trace, out):
    spec = WORKLOADS[workload]
    config = spec.config()
    gate = DigestGate(workload, seed, config)
    attempted = failed = 0
    setup_raw, setup_times = [], []
    tracer = tracing.Tracer() if trace else None
    setup_loops = []

    # set-up: in child processes when timed, in-process when traced
    if trace:
        tracer.phase = "setup"
        uninstall = tracer.install()
        try:
            run_upstream(workload, seed, out)
        finally:
            uninstall()
        attempted += len(spec.upstream)
        failed += sum(not gate.check(out, stage) for stage in spec.upstream)
    else:
        # every set-up is training and file writes, so the mixed loop
        # scales it whatever loop scales the workload's passes
        setup_clock = ReferenceClock("mixed")
        setup_loops = setup_clock.loops
        for _ in range(spec.setup_repeats):
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            setup_clock.start()
            setup_in_child(workload, seed, out)
            elapsed, scaled = setup_clock.stop()
            setup_raw.append(elapsed)
            setup_times.append(scaled)
            attempted += len(spec.upstream)
            failed += sum(not gate.check(out, stage) for stage in spec.upstream)

    # passes while another one is expected to end within the budget
    clock = ReferenceClock(spec.reference)
    stage_seconds, raw_walls, walls, durations = {}, [], [], []
    started = time.perf_counter()
    while not walls or (time.perf_counter() - started
                        + statistics.median(durations) <= seconds):
        begun = time.perf_counter()
        raw, wall, calls, failures = run_pass(spec, config, seed, out, gate,
                                              clock, stage_seconds)
        durations.append(time.perf_counter() - begun)
        raw_walls.append(raw)
        walls.append(wall)
        attempted += calls
        failed += failures
    rss = peak_rss_mb()

    layer_metrics = {}
    if trace:
        tracer.phase = "timed"
        uninstall = tracer.install()
        try:
            _, traced_wall, calls, failures = run_pass(spec, config, seed, out,
                                                       gate, clock, {})
        finally:
            uninstall()
        attempted += calls
        failed += failures
        layer_metrics = tracing.aggregate(tracer.spans)
        # in reference seconds, like wall_s
        layer_metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)

    problems = check_outputs(spec, config, seed, out) + gate.mismatches
    correct = failed == 0 and not problems
    if correct:
        gate.save()

    end_to_end = {}
    if setup_times:
        end_to_end["setup_s"] = (statistics.median(setup_times), "s")
        end_to_end["setup_raw_s"] = (statistics.median(setup_raw), "s")
    end_to_end["wall_s"] = (statistics.median(walls), "s")
    end_to_end["wall_raw_s"] = (statistics.median(raw_walls), "s")
    end_to_end["peak_rss_mb"] = (rss, "MB")
    end_to_end.update(stage_throughputs(spec, config, stage_seconds))
    end_to_end["fail_share"] = (failed / attempted, "ratio")
    end_to_end["reference_loop_s"] = (statistics.median(clock.loops), "s")
    record = {
        "environment": environment(spec, workload, seed, config),
        "digests": {"source": gate.source, "sha256": gate.expected},
        "passes": len(walls),
        "pass_wall_s": walls,
        "pass_wall_raw_s": raw_walls,
        "stage_seconds": stage_seconds,
        "setup_s": setup_times,
        "setup_raw_s": setup_raw,
        "reference_loop_s": clock.loops,
        "setup_reference_loop_s": setup_loops,
        "problems": problems,
        "end_to_end": end_to_end,
        "per_layer": layer_metrics,
    }
    return correct, attempted, failed, record, tracer


def parse(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--upstream", metavar="DIR",
                        help=argparse.SUPPRESS)   # set-up child process
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse(argv)
    if args.upstream:
        run_upstream(args.workload, args.seed, args.upstream)
        return 0

    work = STATE / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        correct, attempted, failed, record, tracer = measure(
            args.workload, args.seed, args.seconds, args.trace, work / "run")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer:
        record["per_layer"].update(copy_bandwidth())
        tracer.write(STATE / "traces" / f"{args.workload}-seed{args.seed}.jsonl")

    env = record["environment"]
    for key in ("git_commit", "nproc", "python", "numpy", "blas", "blas_threads",
                "workload", "seed", "why"):
        print(f"# {key}: {env[key]}")
    print(f"# digests: {record['digests']['source']}; passes: {record['passes']}")
    for problem in record["problems"]:
        print(f"# problem: {problem}")
    for name, (value, unit) in record["end_to_end"].items():
        print(f"{name} = {value:.6g} {unit}")

    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    if args.trace:
        metrics = {name: {"value": record["per_layer"][name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": record["end_to_end"][name][0], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
