"""Span tracer made of wrappers around hashattack's public functions.

Nothing inside ``src/`` knows about tracing: ``install`` rebinds each
wrapped function in every ``hashattack`` module that imported it (and
each wrapped method on its class), and the function it returns puts the
originals back.  A span is ``(name, start_ns, end_ns, parent, phase,
info)``; ``parent`` is the index of the enclosing span, or -1 for a root.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children, which never
overlap because the program is single-threaded.

``info`` holds the counts taken at the boundary (rows, tape nodes,
parameter elements, file bytes), so ratios are measured where the work
happens and repeat exactly for equal seeds.
"""

import functools
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from hashattack.experiment import STAGE_ORDER

# Adam reads p, g, m, v and writes p, m, v for every parameter element
# (float64), the least traffic one update can move.
ADAM_BYTES_PER_ELEMENT = 7 * 8

NETS = ("hash", "transfer", "prototype", "generator", "discriminator")

# (module, function) pairs timed as spans under the name "<module>.<function>"
_FUNCTIONS = (
    ("hashing", "pairwise_code_loss"),
    ("hashing", "encode_database"),
    ("hashing", "hamming_distances"),
    ("prototype", "loss_prototype"),
    ("gan", "train_attack_gan"),
    ("gan", "targeted_examples"),
    ("baselines", "iterative_gradient_attack"),
    ("baselines", "anchor_code_for_label"),
    ("evaluation", "rank_database"),
    ("data", "gen_synthetic_dataset"),
    ("data", "load_bundle"),
    ("data", "build_similarity_matrix"),
)

# (metric name, unit) in the order the traced run prints them
PER_LAYER = (
    [(f"optim.adam_step.{net}.{field}", unit)
     for net in NETS
     for field, unit in (("calls", "count"), ("ms", "ms"), ("params", "count"),
                         ("bytes_per_step_computed", "B"),
                         ("gbps_computed", "GB/s"))]
    + [("optim.stepped_param_share", "ratio"),
       ("tensor.backward.calls", "count"), ("tensor.backward.ms", "ms"),
       ("tensor.backward.nodes", "count"), ("tensor.nodes_per_backward", "count"),
       ("layers.mlp_forward.calls", "count"), ("layers.mlp_forward.ms", "ms"),
       ("layers.mlp_forward.rows", "count"),
       ("layers.mlp_forward_values.calls", "count"),
       ("layers.mlp_forward_values.ms", "ms"),
       ("layers.mlp_forward_values.rows", "count")]
    + [(f"{module}.{function}.{field}", unit)
       for module, function in (("hashing", "pairwise_code_loss"),
                                ("hashing", "encode_database"),
                                ("hashing", "hamming_distances"),
                                ("prototype", "loss_prototype"))
       for field, unit in (("calls", "count"), ("ms", "ms"))]
    + [("gan.train_attack_gan.ms", "ms"), ("gan.targeted_examples.ms", "ms"),
       ("baselines.iterative_gradient_attack.calls", "count"),
       ("baselines.iterative_gradient_attack.ms", "ms"),
       ("baselines.image_ms_p50", "ms"), ("baselines.image_ms_p90", "ms"),
       ("baselines.image_samples", "count"),
       ("baselines.anchor_code_for_label.calls", "count"),
       ("baselines.anchor_code_for_label.ms", "ms"),
       ("evaluation.evaluate_queries.calls", "count"),
       ("evaluation.evaluate_queries.ms", "ms"),
       ("evaluation.rank_database.calls", "count"),
       ("evaluation.rank_database.ms", "ms"),
       ("evaluation.query_rows", "count"),
       ("evaluation.ranks_per_query", "ratio")]
    + [(f"{prefix}{module}.{function}.{field}", unit)
       for prefix in ("", "setup.")
       for module, function, fields in (
           ("checkpoint", "save_checkpoint", ("calls", "ms", "bytes")),
           ("checkpoint", "load_checkpoint", ("calls", "ms", "bytes")),
           ("data", "gen_synthetic_dataset", ("calls", "ms")),
           ("data", "load_bundle", ("calls", "ms")),
           ("data", "build_similarity_matrix", ("calls", "ms")))
       for field, unit in (("calls", "count"), ("ms", "ms"), ("bytes", "B"))
       if field in fields]
    + [("setup.ms", "ms")]
    + [(f"experiment.{stage}.{field}", "ms")
       for stage in STAGE_ORDER for field in ("ms", "self_ms")]
    + [("trace.spans", "count"), ("trace.overhead_s", "s"),
       ("memory.copy_gbps", "GB/s"), ("memory.copy_array_mb", "MB"),
       ("memory.llc_mb", "MB")]
)


def _rows(x):
    return int(np.shape(getattr(x, "values", x))[0])


def _file_bytes(path):
    path = Path(path)
    return path.stat().st_size if path.is_file() else 0


class Tracer:
    """In-memory span list plus the hooks that fill it."""

    def __init__(self):
        self.spans = []
        self.phase = "timed"
        self._stack = []
        self._stage = None
        self._net_of_param = {}

    def wrap(self, fn, name, info=None, after=None):
        """``fn`` timed as a span; the span's counts come from ``info`` called
        with the same arguments before ``fn``, or ``after`` called after it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = info(*args, **kwargs) if info else None
            label = name(*args, **kwargs) if callable(name) else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent, self.phase, counts)
            if after:
                spans[index] = (*spans[index][:5], after(*args, **kwargs))
            return result

        return traced

    # --- hooks ------------------------------------------------------------

    def _stage_name(self, name, *args, **kwargs):
        self._stage = name
        return f"experiment.{name}"

    def _register_net(self, label_of):
        def hook(create):
            @functools.wraps(create)
            def created(cls, *args, **kwargs):
                model = create(cls, *args, **kwargs)
                label = label_of(self._stage)
                # HashModel keeps its parameters on its MLP
                owner = model if hasattr(model, "parameters") else model.net
                for param in owner.parameters():
                    self._net_of_param[id(param)] = label
                return model
            return classmethod(created)
        return hook

    def _adam_info(self, optimizer, grads):
        elements = sum(int(p.values.size) for p in optimizer.params)
        net = self._net_of_param.get(id(optimizer.params[0]), "unknown")
        return (net, elements)

    @staticmethod
    def _watched(tape, *models):
        return sum(int(p.values.size) for m in models for p in m.parameters())

    # --- installation -----------------------------------------------------

    def install(self):
        """Wrap the public functions; returns a function that unwraps them."""
        modules = {name.split(".", 1)[1]: module
                   for name, module in sys.modules.items()
                   if name.startswith("hashattack.")}
        undo = []

        def rebind(original, wrapper, only_in=None):
            for mod_name, module in modules.items():
                if only_in is not None and mod_name not in only_in:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, value))
                        setattr(module, attr, wrapper)

        def patch(owner, attr, wrapper):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

        experiment = modules["experiment"]
        rebind(experiment.execute_stage,
               self.wrap(experiment.execute_stage, self._stage_name))
        tensor = modules["tensor"]
        rebind(tensor.backward,
               self.wrap(tensor.backward, "tensor.backward",
                         info=lambda tape, root: len(tape.nodes)))
        for mod_name, fn_name in _FUNCTIONS:
            original = getattr(modules[mod_name], fn_name)
            rebind(original, self.wrap(original, f"{mod_name}.{fn_name}"))
        evaluation = modules["evaluation"]
        rebind(evaluation.evaluate_queries,
               self.wrap(evaluation.evaluate_queries,
                         "evaluation.evaluate_queries",
                         info=lambda codes, *a, **k: _rows(codes)))
        checkpoint = modules["checkpoint"]
        rebind(checkpoint.save_checkpoint,
               self.wrap(checkpoint.save_checkpoint, "checkpoint.save_checkpoint",
                         after=lambda path, *a, **k: _file_bytes(path)))
        rebind(checkpoint.load_checkpoint,
               self.wrap(checkpoint.load_checkpoint, "checkpoint.load_checkpoint",
                         info=lambda path, *a, **k: _file_bytes(path)))
        layers = modules["layers"]
        # the watch call the training loops make, as they imported it
        rebind(layers.watch_parameters,
               self.wrap(layers.watch_parameters, "layers.watch_parameters",
                         info=self._watched),
               only_in=("gan", "hashing"))
        mlp = layers.MLP
        patch(mlp, "forward",
              self.wrap(mlp.forward, "layers.mlp_forward",
                        info=lambda net, x: _rows(x)))
        patch(mlp, "forward_values",
              self.wrap(mlp.forward_values, "layers.mlp_forward_values",
                        info=lambda net, x: _rows(x)))
        adam = modules["optim"].Adam
        patch(adam, "step", self.wrap(adam.step, "optim.adam_step",
                                      info=self._adam_info))

        hash_label = (lambda stage: "transfer" if stage == "transfer_eval"
                      else "hash")
        for cls, label_of in (
                (modules["hashing"].HashModel, hash_label),
                (modules["prototype"].PrototypeNet, lambda stage: "prototype"),
                (modules["gan"].Generator, lambda stage: "generator"),
                (modules["gan"].Discriminator, lambda stage: "discriminator")):
            patch(cls, "create",
                  self._register_net(label_of)(cls.__dict__["create"].__func__))

        def uninstall():
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

        return uninstall

    # --- output -----------------------------------------------------------

    def write(self, path):
        """One JSON array per span, one span per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write('# [name, start_ns, end_ns, parent, phase, info]\n')
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans):
    """Duration minus the time covered by direct children, per span (ns)."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def aggregate(spans):
    """Every ``PER_LAYER`` metric except those measured outside the trace."""
    own = self_times(spans)
    calls, self_ns, total_ns, counts = {}, {}, {}, {}
    durations = {}
    adam = {net: [0, 0, 0] for net in NETS}   # calls, self ns, elements/step
    watched = stepped = 0
    ranks_in_eval = 0

    def under(index, name):
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    for index, (name, start, end, _, phase, info) in enumerate(spans):
        key = name if phase == "timed" else f"setup.{name}"
        calls[key] = calls.get(key, 0) + 1
        self_ns[key] = self_ns.get(key, 0) + own[index]
        total_ns[key] = total_ns.get(key, 0) + end - start
        if phase != "timed":
            if isinstance(info, int):
                counts[key] = counts.get(key, 0) + info
            continue
        if name == "optim.adam_step":
            net, elements = info
            stepped += elements
            if net in adam:
                entry = adam[net]
                entry[0] += 1
                entry[1] += own[index]
                entry[2] = elements
        elif name == "layers.watch_parameters":
            watched += info
        elif name == "baselines.iterative_gradient_attack":
            durations.setdefault(name, []).append((end - start) / 1e6)
        elif name == "evaluation.rank_database":
            ranks_in_eval += under(index, "evaluation.evaluate_queries")
        if isinstance(info, int):
            counts[key] = counts.get(key, 0) + info

    def ms(key):
        return self_ns.get(key, 0) / 1e6

    metrics = {}
    for net, (n, ns, elements) in adam.items():
        moved = elements * ADAM_BYTES_PER_ELEMENT
        metrics[f"optim.adam_step.{net}.calls"] = n
        metrics[f"optim.adam_step.{net}.ms"] = ns / 1e6
        metrics[f"optim.adam_step.{net}.params"] = elements
        metrics[f"optim.adam_step.{net}.bytes_per_step_computed"] = moved
        metrics[f"optim.adam_step.{net}.gbps_computed"] = (
            n * moved / ns if ns else 0.0)   # bytes per ns is GB/s
    metrics["optim.stepped_param_share"] = stepped / watched if watched else 0.0
    backward_calls = calls.get("tensor.backward", 0)
    nodes = counts.get("tensor.backward", 0)
    metrics.update({
        "tensor.backward.calls": backward_calls,
        "tensor.backward.ms": ms("tensor.backward"),
        "tensor.backward.nodes": nodes,
        "tensor.nodes_per_backward": nodes / backward_calls if backward_calls else 0.0,
    })
    for kind in ("mlp_forward", "mlp_forward_values"):
        key = f"layers.{kind}"
        metrics[f"{key}.calls"] = calls.get(key, 0)
        metrics[f"{key}.ms"] = ms(key)
        metrics[f"{key}.rows"] = counts.get(key, 0)
    attack_ms = sorted(durations.get("baselines.iterative_gradient_attack", []))
    metrics["baselines.image_ms_p50"] = (
        statistics.median(attack_ms) if attack_ms else 0.0)
    metrics["baselines.image_ms_p90"] = (
        statistics.quantiles(attack_ms, n=10)[-1] if len(attack_ms) >= 2 else 0.0)
    metrics["baselines.image_samples"] = len(attack_ms)
    rows = counts.get("evaluation.evaluate_queries", 0)
    metrics["evaluation.query_rows"] = rows
    metrics["evaluation.ranks_per_query"] = ranks_in_eval / rows if rows else 0.0
    metrics["setup.ms"] = sum(total_ns.get(f"setup.experiment.{stage}", 0)
                              for stage in STAGE_ORDER) / 1e6
    for stage in STAGE_ORDER:
        key = f"experiment.{stage}"
        metrics[f"{key}.ms"] = total_ns.get(key, 0) / 1e6
        metrics[f"{key}.self_ms"] = ms(key)
    metrics["trace.spans"] = len(spans)

    # the remaining calls/ms/bytes fields follow one pattern
    for name, _ in PER_LAYER:
        if name in metrics:
            continue
        key, _, field = name.rpartition(".")
        if field == "calls":
            metrics[name] = calls.get(key, 0)
        elif field == "ms":
            metrics[name] = ms(key)
        elif field == "bytes":
            metrics[name] = counts.get(key, 0)
    return metrics
