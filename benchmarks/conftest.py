"""Benchmark harness support.

Each ``bench_*.py``/``test_*`` regenerates one paper table or figure,
prints it to the terminal (visible even without ``-s``), writes it under
``benchmarks/results/`` and asserts the DESIGN.md shape targets.

``REPRO_SCALE`` (default 0.5) stretches/shrinks workload loop counts for
the performance tables; 1.0 reproduces the EXPERIMENTS.md numbers exactly.
"""

import os
import pathlib

import pytest

from repro.experiments import table4

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
# The runner's on-disk JSON store (repro.runner.ResultStore) lives here.
CACHE_DIR = RESULTS_DIR / "cache"


def perf_scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "0.5"))


@pytest.fixture(scope="session")
def table4_at_scale():
    """Table IV at ``perf_scale()``, computed by the first call in the
    session and returned by every later one: ``bench_table4`` times and
    checks it, and ``bench_table5`` compares Table V's averages with it."""
    results = []

    def run():
        if not results:
            results.append(table4.run(scale=perf_scale()))
        return results[0]

    return run


@pytest.fixture
def emit(capsys):
    """Print a rendered artifact to the real terminal and archive it."""

    def _emit(name: str, text: str) -> None:
        # parents=True: a fresh checkout has no benchmarks/ intermediates.
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print()
            print(text)

    return _emit
