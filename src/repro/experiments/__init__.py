"""Experiment harnesses: one module per paper table/figure.

Every module exposes ``run(...)`` returning a plain-data result and
``render(result)`` returning the text table/chart that ``benchmarks/``
prints and EXPERIMENTS.md records.
"""

from repro.experiments import (  # noqa: F401
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    frontier,
    related,
    table4,
    table5,
    table6,
)
from repro.experiments.common import (
    PERF_CORE,
    perf_config,
    security_prefender,
    security_spec,
)

__all__ = [
    "PERF_CORE",
    "perf_config",
    "security_prefender",
    "security_spec",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "frontier",
    "related",
    "table4",
    "table5",
    "table6",
]
