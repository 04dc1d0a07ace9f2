"""Multi-core system: min-local-time scheduling plus run statistics.

Cores advance independent local clocks; the scheduler always steps the core
with the smallest local time, which keeps cross-core cache interactions in
causal order (a discrete-event style common to multi-core timing models).

Scheduling is specialised by active-core count: a single core runs a tight
``step()`` loop with no arbitration at all, two cores (every cross-core
attack) use a direct comparison, and larger systems use a binary heap keyed
on ``(local_time, core_index)``.  All three orders are identical to the
seed implementation's per-step ``min(active, key=time)`` scan — ties break
toward the lower core index — which ``tests/test_golden_parity.py`` pins.

A scheduler step is one :meth:`Core.step <repro.cpu.core.Core.step>`: one
compiled block of register-only instructions, one instruction, or one
squash.  ``max_steps`` and ``run_steps`` count those steps.  A sampled run
turns fusion off, so there every step is one instruction (or one squash).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cpu.core import Core, CoreConfig
from repro.errors import SimulationError, SnapshotError
from repro.isa.program import Program
from repro.mem.hierarchy import MemoryHierarchy
from repro.snapshot import SNAPSHOT_VERSION, require_keys


@dataclass
class RunResult:
    """Everything the experiments need from one simulation run."""

    cycles: int
    instructions: int
    core_cycles: list[int]
    core_instructions: list[int]
    l1d_stats: list[dict[str, int | float]]
    l2_stats: dict[str, int | float]
    prefetch_counts: list[dict[str, int]]
    prefetch_timelines: list[list[tuple[int, str, int]]]
    samples: list[tuple[int, object]] = field(default_factory=list)
    # Per-core PREFENDER-internal counters (allocation_failures, protection
    # lifecycle); empty dicts for cores without a PREFENDER.
    defense_stats: list[dict[str, int]] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def total_prefetches(self, core_id: int = 0) -> int:
        return sum(self.prefetch_counts[core_id].values())


class System:
    """Programs + cores + hierarchy, ready to run."""

    def __init__(
        self,
        programs: list[Program],
        hierarchy: MemoryHierarchy,
        core_config: CoreConfig | None = None,
    ) -> None:
        if len(programs) != hierarchy.num_cores:
            raise SimulationError(
                f"{len(programs)} program(s) for {hierarchy.num_cores} core(s)"
            )
        self.hierarchy = hierarchy
        for program in programs:
            program.finalize()
            hierarchy.memory.load_program_data(program)
        self.cores = [
            Core(core_id, program, hierarchy, core_config)
            for core_id, program in enumerate(programs)
        ]

    def run(
        self,
        max_steps: int = 20_000_000,
        sample_interval: int | None = None,
        sample_fn: Callable[["System"], object] | None = None,
    ) -> RunResult:
        """Run all cores to halt.

        Args:
            max_steps: guard against runaway programs (spin deadlocks); it
                counts scheduler steps, so a compiled block is one step.
            sample_interval: when set, record ``sample_fn(self)`` every this
                many scheduler steps (Fig. 12 uses this to sample protected
                buffer counts over execution progress).  Fusion is off for
                the run, so a step is one instruction.
            sample_fn: sampling callback; defaults to core 0's protected
                buffer count when its prefetcher is a PREFENDER.

        Raises:
            SimulationError: when ``max_steps`` is exhausted first.
        """
        if sample_fn is None:
            sample_fn = _default_sample
        samples: list[tuple[int, object]] = []
        if not sample_interval:
            return self._run(max_steps, None, sample_fn, samples)
        # Sampling cadence counts scheduler steps, and fusion (countdown
        # loops and compiled blocks) collapses many instructions into one
        # step; interpret one instruction per step so a sampled run sees
        # the seed engine's step sequence, then restore each core's switch.
        for core in self.cores:
            core._fuse_loops = False
        try:
            return self._run(max_steps, sample_interval, sample_fn, samples)
        finally:
            for core in self.cores:
                core._fuse_loops = core.config.fuse_countdown_loops

    def _run(
        self,
        max_steps: int,
        sample_interval: int | None,
        sample_fn: Callable[["System"], object],
        samples: list[tuple[int, object]],
    ) -> RunResult:
        """Schedule every active core to halt (``run`` with each core's
        fusion switch already set)."""
        active = [core for core in self.cores if not core.halted]
        steps = 0
        while active:
            if steps >= max_steps:
                # Only a run with work left is a runaway; when the final
                # step halted the last core the budget was exactly enough.
                raise SimulationError(
                    f"exceeded {max_steps} scheduler steps; "
                    "a program probably fails to halt"
                )
            count = len(active)
            if count == 1:
                steps = self._run_single(
                    active[0], steps, max_steps, sample_interval, sample_fn, samples
                )
            elif count == 2:
                steps = self._run_pair(
                    active[0], active[1], steps, max_steps, sample_interval,
                    sample_fn, samples,
                )
            else:
                steps = self._run_heap(
                    active, steps, max_steps, sample_interval, sample_fn, samples
                )
            active = [core for core in active if not core.halted]
        return self._result(samples)

    # -- snapshot/restore ------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Versioned whole-system snapshot: every core plus the hierarchy.

        The result is a plain nested dict of immutable leaves (ints, bools,
        tuples) safe to hold across any number of :meth:`restore` calls.
        """
        return {
            "version": SNAPSHOT_VERSION,
            "cores": tuple(core.snapshot() for core in self.cores),
            "hierarchy": self.hierarchy.snapshot(),
        }

    def restore(self, data: dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot` on a same-shape system.

        Raises:
            SnapshotError: on a version mismatch, an unknown/missing field
                anywhere in the tree, or a core-count mismatch.
        """
        require_keys(data, ("version", "cores", "hierarchy"), "System")
        if data["version"] != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {data['version']!r} does not match "
                f"engine version {SNAPSHOT_VERSION}"
            )
        if len(data["cores"]) != len(self.cores):
            raise SnapshotError(
                f"snapshot has {len(data['cores'])} core(s), "
                f"system has {len(self.cores)}"
            )
        for core, snap in zip(self.cores, data["cores"]):
            core.restore(snap)
        self.hierarchy.restore(data["hierarchy"])

    def run_steps(self, steps: int) -> int:
        """Advance exactly ``steps`` scheduler steps (or until all halt).

        Scheduling order is identical to :meth:`run`: the non-halted core
        with the smallest local time steps next, ties to the lower core
        index.  Returns the number of steps actually taken — fewer than
        ``steps`` only when every core halted first.  The parity harness
        uses this to stop a run at an arbitrary point, snapshot, and
        compare resumed executions state-for-state.
        """
        taken = 0
        active = [core for core in self.cores if not core.halted]
        while active and taken < steps:
            core = active[0]
            for candidate in active[1:]:
                # Strict < keeps the earlier (lower-index) core on ties.
                if candidate.time < core.time:
                    core = candidate
            core.step()
            taken += 1
            if core.halted:
                active = [c for c in active if not c.halted]
        return taken

    def _overrun(self, max_steps: int) -> SimulationError:
        return SimulationError(
            f"exceeded {max_steps} scheduler steps; "
            "a program probably fails to halt"
        )

    def _run_single(
        self,
        core: Core,
        steps: int,
        max_steps: int,
        sample_interval: int | None,
        sample_fn: Callable[["System"], object],
        samples: list[tuple[int, object]],
    ) -> int:
        """Tight loop for one active core; returns the updated step count."""
        step = core.step
        if not sample_interval:
            while True:
                step()
                steps += 1
                if core.halted:
                    return steps
                if steps >= max_steps:
                    raise self._overrun(max_steps)
        while True:
            step()
            steps += 1
            if steps % sample_interval == 0:
                samples.append((steps, sample_fn(self)))
            if core.halted:
                return steps
            if steps >= max_steps:
                raise self._overrun(max_steps)

    def _run_pair(
        self,
        first: Core,
        second: Core,
        steps: int,
        max_steps: int,
        sample_interval: int | None,
        sample_fn: Callable[["System"], object],
        samples: list[tuple[int, object]],
    ) -> int:
        """Two active cores: direct min-time comparison, until one halts.

        ``<=`` keeps the seed scheduler's tie-break (lower core index).
        """
        while True:
            core = first if first.time <= second.time else second
            core.step()
            steps += 1
            if sample_interval and steps % sample_interval == 0:
                samples.append((steps, sample_fn(self)))
            if core.halted:
                return steps
            if steps >= max_steps:
                raise self._overrun(max_steps)

    def _run_heap(
        self,
        active: list[Core],
        steps: int,
        max_steps: int,
        sample_interval: int | None,
        sample_fn: Callable[["System"], object],
        samples: list[tuple[int, object]],
    ) -> int:
        """Three or more active cores: heap keyed on (time, position).

        Stepping a core only ever advances that core's own clock, so
        re-pushing just the stepped core preserves the full min-scan order.
        Returns as soon as any core halts; the caller re-dispatches.
        """
        heap = [(core.time, position, core) for position, core in enumerate(active)]
        heapq.heapify(heap)
        heapreplace = heapq.heapreplace
        while True:
            _, position, core = heap[0]
            core.step()
            steps += 1
            if sample_interval and steps % sample_interval == 0:
                samples.append((steps, sample_fn(self)))
            if core.halted:
                return steps
            if steps >= max_steps:
                raise self._overrun(max_steps)
            heapreplace(heap, (core.time, position, core))

    def _result(self, samples: list[tuple[int, object]]) -> RunResult:
        hierarchy = self.hierarchy
        return RunResult(
            cycles=max(core.time for core in self.cores),
            instructions=sum(
                core.stats.instructions_retired for core in self.cores
            ),
            core_cycles=[core.time for core in self.cores],
            core_instructions=[
                core.stats.instructions_retired for core in self.cores
            ],
            l1d_stats=[l1d.stats.as_dict() for l1d in hierarchy.l1ds],
            l2_stats=hierarchy.l2.stats.as_dict(),
            prefetch_counts=[
                hierarchy.prefetch_counts(core_id)
                for core_id in range(hierarchy.num_cores)
            ],
            prefetch_timelines=[
                hierarchy.prefetch_timeline(core_id)
                for core_id in range(hierarchy.num_cores)
            ],
            samples=samples,
            defense_stats=[
                _defense_stats(hierarchy.prefetcher_for(core_id))
                for core_id in range(hierarchy.num_cores)
            ],
        )


def _defense_stats(prefetcher: object) -> dict[str, int]:
    """PREFENDER-internal counters for one core's prefetcher (or {})."""
    stats = getattr(prefetcher, "defense_stats", None)
    if callable(stats):
        return dict(stats())
    # CompositePrefetcher wraps PREFENDER as `primary`.
    primary = getattr(prefetcher, "primary", None)
    stats = getattr(primary, "defense_stats", None)
    if callable(stats):
        return dict(stats())
    return {}


def _default_sample(system: System) -> int:
    prefetcher = system.hierarchy.prefetcher_for(0)
    count = getattr(prefetcher, "protected_buffer_count", None)
    if callable(count):
        return int(count())
    # CompositePrefetcher wraps PREFENDER as `primary`.
    primary = getattr(prefetcher, "primary", None)
    count = getattr(primary, "protected_buffer_count", None)
    if callable(count):
        return int(count())
    return 0
