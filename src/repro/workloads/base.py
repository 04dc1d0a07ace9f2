"""Workload registry."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from repro.errors import ConfigError
from repro.isa.program import Program

REGISTRY: dict[str, "Workload"] = {}


@dataclass(frozen=True)
class Workload:
    """A named synthetic benchmark model.

    Attributes:
        name: the SPEC benchmark name it models (e.g. ``429.mcf``).
        suite: ``spec2006`` or ``spec2017``.
        pattern: one-line description of the dominant access pattern.
        builder: callable from a scale to the finalized program.
        scale: relative size knob; 1.0 is the default benchmark length.
    """

    name: str
    suite: str
    pattern: str
    builder: Callable[[float], Program] = field(compare=False)
    scale: float = 1.0

    def program(self, scale: float | None = None) -> Program:
        """The workload program (``scale`` stretches loop counts).

        Consecutive calls with the same builder and scale return the same
        finalized program, which every caller only reads.
        """
        return _build(self.builder, scale if scale is not None else self.scale)


@lru_cache(maxsize=1)
def _build(builder: Callable[[float], Program], scale: float) -> Program:
    """The most recent build, keyed on the builder itself: ``Workload``
    equality ignores ``builder``.  One entry suffices because grids submit
    their jobs workload-major, so one program serves a whole row."""
    return builder(scale)


def register(workload: Workload) -> Workload:
    if workload.name in REGISTRY:
        raise ConfigError(f"duplicate workload {workload.name!r}")
    REGISTRY[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    if name not in REGISTRY:
        raise ConfigError(
            f"unknown workload {name!r}; available: {sorted(REGISTRY)}"
        )
    return REGISTRY[name]


def workload_names(suite: str | None = None) -> list[str]:
    return [
        name
        for name, workload in REGISTRY.items()
        if suite is None or workload.suite == suite
    ]
