#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation.

Equivalent to running the benchmark harness, but as a plain script:

    python examples/reproduce_figures.py            # everything
    python examples/reproduce_figures.py figure9 figure12

The simulations of every requested figure run first as one batch, as in
``python -m repro figures``. Results cache under ``.repro_cache/`` so
re-runs are fast. Set ``REPRO_SCALE`` to trade fidelity for time (e.g.
``REPRO_SCALE=0.4``).
"""

import sys
import time

from repro.sim.experiments import ExperimentRunner
from repro.sim.figures import ALL_FIGURES, plan


def main() -> None:
    wanted = sys.argv[1:] or list(ALL_FIGURES)
    unknown = [name for name in wanted if name not in ALL_FIGURES]
    if unknown:
        raise SystemExit(f"unknown figures: {', '.join(unknown)}; "
                         f"choose from {', '.join(ALL_FIGURES)}")
    runner = ExperimentRunner()
    print(f"workload scale: {runner.scale} "
          f"(~1/{int(1000 / runner.scale)} of the paper's traces); "
          f"cache: {runner.cache_dir}\n")
    # every simulation the figures need, as one batch (one worker pool
    # with REPRO_JOBS above 1); each figure then assembles from the cache
    start = time.time()
    runner.run_many(plan(wanted), label="figures")
    print(f"[simulations done in {time.time() - start:.1f}s]\n")
    for name in wanted:
        start = time.time()
        figure = ALL_FIGURES[name](runner)
        print(figure.format())
        print(f"[{name} regenerated in {time.time() - start:.1f}s]\n")


if __name__ == "__main__":
    main()
