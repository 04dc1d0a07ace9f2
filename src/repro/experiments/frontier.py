"""Defense-vs-performance Pareto frontiers over PREFENDER knob grids.

PR 1's lossless job keys made sweeps over ``at_threshold``,
``entries_per_buffer`` and ``st_max_prefetches`` trustworthy; this module
actually runs them.  Every grid point is one full PREFENDER configuration,
scored on two axes:

* **attack success rate** — the fraction of attack kinds (Flush+Reload,
  Evict+Reload, Prime+Probe by default) that uniquely recover the secret
  against the configuration (lower is safer);
* **normalized cycles** — geometric mean over the perf workloads of
  ``cycles(defense) / cycles(no-prefetcher baseline)`` on the
  performance core (lower is faster; PREFENDER's prefetching usually
  lands *below* 1.0, the paper's headline result).

Minimising both axes gives a Pareto frontier: the knob settings for which
no other setting is at least as safe *and* at least as fast.  Two fixed
comparison points frame the frontier, per the related-work discussion in
PAPERS.md (PCG, arXiv:2405.03217; Adversarial Prefetch, arXiv:2110.12340):

* ``no-defense`` — the empty-prefetcher baseline (normalized cycles 1.0);
* ``pcg-style`` — the repo's Disruptive random same-set prefetcher, the
  closest in-tree stand-in for PCG-style conflict-obfuscating prefetch
  defenses.

The whole sweep is two :func:`~repro.runner.run_batch` calls (all attack
probes, then all perf runs) that share one
:class:`~repro.runner.WorkerPool`, so worker processes fork once for the
entire grid; attack probes and sim results are both JSON-able, so
``--store`` serves a repeated grid warm from disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.config import PrefenderConfig
from repro.errors import ConfigError
from repro.experiments.common import BASELINE_SPEC, sim_job
from repro.runner import ResultStore, ScenarioJob, WorkerPool, run_batch
from repro.sim.config import PrefetcherSpec, SystemConfig
from repro.utils.tables import render_table
from repro.utils.textplot import ascii_scatter

#: PrefenderConfig knobs a frontier grid may sweep (the very fields the
#: pre-PR-1 memoiser silently dropped from its cache key).
GRID_KNOBS = ("at_threshold", "entries_per_buffer", "st_max_prefetches")

#: Default grid: 3 x 2 x 2 = 12 configurations, small enough for a laptop.
DEFAULT_GRID: dict[str, tuple[int, ...]] = {
    "at_threshold": (2, 4, 6),
    "entries_per_buffer": (4, 8),
    "st_max_prefetches": (1, 2),
}

#: Attack kinds scored by default (Evict+Time is excluded: whole-run
#: timing channels are outside PREFENDER's threat model, paper Table II).
#: The adversarial-prefetch variants keep the frontier honest against the
#: strongest published prefetch-channel adversary (Guo et al. 2022).
DEFAULT_ATTACKS = (
    "flush-reload",
    "evict-reload",
    "prime-probe",
    "adversarial-prefetch-a1",
    "adversarial-prefetch-a2",
)

#: Perf workloads scored by default: one memory-pattern winner and one
#: pointer-chasing workload, the two shapes the paper's tables contrast.
DEFAULT_WORKLOADS = ("462.libquantum", "429.mcf")

#: Access-buffer count per grid configuration (the security experiments'
#: 8-buffer setup, so C3-style thrashing remains possible).
DEFAULT_BUFFERS = 8


@dataclass(frozen=True)
class FrontierPoint:
    """One scored configuration: knob values + the two frontier axes."""

    label: str
    at_threshold: int
    entries_per_buffer: int
    st_max_prefetches: int
    success_rate: float
    normalized_cycles: float

    @property
    def coords(self) -> tuple[float, float]:
        """(normalized_cycles, success_rate) — both minimised."""
        return (self.normalized_cycles, self.success_rate)


@dataclass
class FrontierResult:
    """Scored grid, its Pareto subset, and the fixed comparison points."""

    grid: dict[str, tuple[int, ...]]
    attacks: tuple[str, ...]
    workloads: tuple[str, ...]
    scale: float
    points: list[FrontierPoint]
    frontier: list[FrontierPoint]
    baselines: list[FrontierPoint]  # no-defense and PCG-style rows


def parse_grid(text: str) -> dict[str, tuple[int, ...]]:
    """Parse a ``--grid`` spec into knob -> values.

    Format: semicolon-separated ``knob=v1,v2,...`` pairs over
    :data:`GRID_KNOBS`; knobs left out keep their :data:`DEFAULT_GRID`
    values.  Example: ``"at_threshold=2,6;entries_per_buffer=4"``.
    """
    grid = dict(DEFAULT_GRID)
    if not text.strip():
        return grid
    for part in text.replace(";", " ").split():
        knob, _, values = part.partition("=")
        if knob not in GRID_KNOBS:
            raise ConfigError(
                f"unknown grid knob {knob!r}; choose from {GRID_KNOBS}"
            )
        try:
            parsed = tuple(int(value) for value in values.split(","))
        except ValueError:
            raise ConfigError(
                f"--grid values for {knob} must be comma-separated integers, "
                f"got {values!r}"
            ) from None
        if not parsed:
            raise ConfigError(f"--grid knob {knob} needs at least one value")
        grid[knob] = parsed
    return grid


def grid_configs(
    grid: dict[str, tuple[int, ...]], buffers: int = DEFAULT_BUFFERS
) -> list[tuple[str, PrefenderConfig]]:
    """(label, config) for every knob combination, in deterministic order."""
    configs = []
    for at_threshold in grid["at_threshold"]:
        for entries in grid["entries_per_buffer"]:
            for st_max in grid["st_max_prefetches"]:
                label = f"t{at_threshold}/e{entries}/s{st_max}"
                configs.append(
                    (
                        label,
                        replace(
                            PrefenderConfig.full(buffers),
                            at_threshold=at_threshold,
                            entries_per_buffer=entries,
                            st_max_prefetches=st_max,
                        ),
                    )
                )
    return configs


def _dominates(a: FrontierPoint, b: FrontierPoint) -> bool:
    """True when ``a`` is at least as good as ``b`` on both axes, better on one."""
    ax, ay = a.coords
    bx, by = b.coords
    return ax <= bx and ay <= by and (ax < bx or ay < by)


def pareto_frontier(points: list[FrontierPoint]) -> list[FrontierPoint]:
    """Non-dominated subset, sorted fast-to-safe (cycles asc, rate desc).

    A point survives unless some other point is at least as safe *and* at
    least as fast, and strictly better on one axis; ties on both axes keep
    both points.  O(n^2), fine for knob grids of dozens of points.
    """
    kept = [
        point
        for point in points
        if not any(_dominates(other, point) for other in points)
    ]
    return sorted(kept, key=lambda p: (p.normalized_cycles, p.success_rate, p.label))


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def run(
    grid: dict[str, tuple[int, ...]] | None = None,
    attacks: tuple[str, ...] = DEFAULT_ATTACKS,
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    scale: float = 0.2,
    buffers: int = DEFAULT_BUFFERS,
    jobs: int = 1,
    store: ResultStore | None = None,
    pool: WorkerPool | None = None,
) -> FrontierResult:
    """Score the grid and extract its Pareto frontier.

    Args:
        grid: knob -> values (default :data:`DEFAULT_GRID`).
        attacks: attack kinds for the success-rate axis.
        workloads: perf workloads for the normalized-cycles axis.
        scale: workload scale passed to every sim job.
        buffers: access-buffer count per configuration.
        jobs: process count for ``run_batch`` when no ``pool`` is given.
        store: optional disk store; probes and sim results both cache.
        pool: optional persistent :class:`~repro.runner.WorkerPool`; both
            batches (security, then perf) reuse its warm workers.
    """
    if not attacks or not workloads:
        raise ConfigError("frontier needs at least one attack and one workload")
    grid = grid or dict(DEFAULT_GRID)
    for knob in GRID_KNOBS:
        if knob not in grid:
            raise ConfigError(f"grid is missing knob {knob!r}")
    configs = grid_configs(grid, buffers)

    # Every column the sweep scores: the grid plus the two comparison specs.
    specs: list[tuple[str, PrefetcherSpec]] = [
        (label, PrefetcherSpec(kind="prefender", prefender=config))
        for label, config in configs
    ]
    specs.append(("no-defense", BASELINE_SPEC))
    specs.append(("pcg-style", PrefetcherSpec(kind="disruptive")))

    # Batch 1: every attack kind against every spec (default blocking core,
    # as in the paper's security runs).
    probe_jobs = [
        ScenarioJob.build(attack, SystemConfig(prefetcher=spec))
        for _, spec in specs
        for attack in attacks
    ]
    probes = run_batch(probe_jobs, workers=jobs, store=store, pool=pool)
    success: dict[str, float] = {}
    for index, (label, _) in enumerate(specs):
        mine = probes[index * len(attacks) : (index + 1) * len(attacks)]
        success[label] = sum(probe.succeeded for probe in mine) / len(attacks)

    # Batch 2: every perf workload under every spec (perf core), sharing
    # the pool's already-warm workers with batch 1.
    perf_jobs = [
        sim_job(workload, spec, scale)
        for _, spec in specs
        for workload in workloads
    ]
    perf = run_batch(perf_jobs, workers=jobs, store=store, pool=pool)
    cycles: dict[str, list[int]] = {}
    for index, (label, _) in enumerate(specs):
        mine = perf[index * len(workloads) : (index + 1) * len(workloads)]
        cycles[label] = [result.cycles for result in mine]

    def normalized(label: str) -> float:
        return _geomean(
            [
                float(defended) / float(base)
                for defended, base in zip(cycles[label], cycles["no-defense"])
            ]
        )

    points = [
        FrontierPoint(
            label=label,
            at_threshold=config.at_threshold,
            entries_per_buffer=config.entries_per_buffer,
            st_max_prefetches=config.st_max_prefetches,
            success_rate=success[label],
            normalized_cycles=normalized(label),
        )
        for label, config in configs
    ]
    baselines = [
        FrontierPoint(
            label=label,
            at_threshold=0,
            entries_per_buffer=0,
            st_max_prefetches=0,
            success_rate=success[label],
            normalized_cycles=normalized(label),
        )
        for label in ("no-defense", "pcg-style")
    ]
    return FrontierResult(
        grid=dict(grid),
        attacks=tuple(attacks),
        workloads=tuple(workloads),
        scale=scale,
        points=points,
        frontier=pareto_frontier(points),
        baselines=baselines,
    )


def render(result: FrontierResult) -> str:
    """Frontier table + ASCII scatter, ready for the terminal."""
    on_frontier = {point.label for point in result.frontier}
    rows = [
        [
            point.label,
            point.at_threshold,
            point.entries_per_buffer,
            point.st_max_prefetches,
            f"{point.success_rate:.2f}",
            f"{point.normalized_cycles:.4f}",
            "*" if point.label in on_frontier else "",
        ]
        for point in sorted(result.points, key=lambda p: p.coords + (p.label,))
    ]
    for baseline in result.baselines:
        rows.append(
            [
                baseline.label,
                "-",
                "-",
                "-",
                f"{baseline.success_rate:.2f}",
                f"{baseline.normalized_cycles:.4f}",
                "",
            ]
        )
    table = render_table(
        [
            "config",
            "at_thresh",
            "entries",
            "st_max",
            "attack success",
            "norm cycles",
            "frontier",
        ],
        rows,
        title=(
            f"Defense-vs-performance frontier "
            f"(attacks: {', '.join(result.attacks)}; "
            f"workloads: {', '.join(result.workloads)}; "
            f"scale {result.scale})"
        ),
    )
    scatter = ascii_scatter(
        {
            # Frontier points are excluded from "grid" so they draw as F,
            # not as the collision marker.
            "grid": [
                point.coords
                for point in result.points
                if point.label not in on_frontier
            ],
            "Frontier": [point.coords for point in result.frontier],
            "base": [result.baselines[0].coords],
            "pcg": [result.baselines[1].coords],
        },
        title="attack success rate vs normalized cycles (down-left is better)",
        x_label="norm cycles",
        y_label="success",
    )
    frontier_line = "Pareto frontier: " + (
        " -> ".join(point.label for point in result.frontier) or "(empty)"
    )
    return "\n".join([table, "", scatter, "", frontier_line])
