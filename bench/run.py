"""Benchmark of the hashattack pipeline: one command, three workloads.

Run from the repository root:

    python3 bench/run.py --workload {pipeline,attack,retrieval} \
        --seed N --seconds S --trace {0,1}

Workloads (see ``WORKLOADS`` in ``harness.py`` for the exact configs):

- ``pipeline``: all ten stages in ``STAGE_ORDER`` at stock sizes and
  architectures, with a quarter of the stock epochs.
- ``attack``: P2P, DHTA, the generator and noise over the stock query
  split, after a short upstream training done during set-up.
- ``retrieval``: ``encode_db`` and ``eval`` with a 2x database and a 5x
  query split, after a short upstream training done during set-up.

``--seed`` is the experiment seed every stage receives, so it fixes all
inputs.  Set-up builds the upstream artifacts in a fresh interpreter
(paying start-up and imports) several times; the timed part repeats
passes over the workload's stages in this process while another pass is
expected to end within ``--seconds``.

End-to-end metrics (``--trace 0``), declared in ``BENCHMARK.json``:

- ``setup_s``: median set-up time, in reference seconds;
- ``wall_s``: median time of one pass, in reference seconds;
- ``peak_rss_mb``: peak resident memory of the measuring process.

A reference second is a raw second scaled by the speed of the machine at
that moment: a fixed numpy/Python loop runs before and after every timed
interval (outside it), and the interval counts ``raw * 0.2 / loop``
seconds, as if the loop took 0.2 s.  ``attack``'s passes use a loop
shaped like their batch-1 tapes; set-ups and the other workloads' passes
a mixed loop (``REFERENCE_LOOPS`` in ``harness.py``).  On the shared
2-core VM the benchmark was built on, raw times drifted by up to 2x for
minutes at a time; across runs the scaled ones spread about half as much
as the raw ones.  Raw times, the loop durations, per-stage throughputs
(in reference seconds) and ``fail_share`` are printed as well.

``--trace 1`` runs the same set-up and untraced passes, then one pass
with every public hashattack function wrapped in a span tracer
(``tracer.py``), and reports the per-layer metrics of that pass, the
tracing overhead and a numpy copy bandwidth for reading Adam's computed
bandwidth against.

Every run checks its outputs: each stage's artifact digests against the
pinned seed in ``digests.json``, or against the first correct run of the
same seed in this checkout, plus bounds and an independent recomputation
of the report's mean average precision.  Human-readable lines come
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record of each run (environment,
config, digests, every pass) goes to ``bench/.run/results/``, and traced
spans to ``bench/.run/traces/``.  Tests: ``python3 -m pytest bench``.

The program is imported from ``src/`` of the same checkout; without it
the benchmark exits with code 2 and prints no result.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def main():
    # one BLAS thread (at most nproc) keeps small-matrix timings steady;
    # set before the first numpy import, and inherited by set-up children
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"})
    if not (SOURCE / "hashattack" / "__init__.py").is_file():
        print(f"bench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(HERE)]
    import harness
    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
