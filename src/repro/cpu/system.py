"""Multi-core system: min-local-time scheduling plus run statistics.

Cores advance independent local clocks; the scheduler always steps the core
with the smallest local time, which keeps cross-core cache interactions in
causal order (a discrete-event style common to multi-core timing models).
Ties break toward the lower core index.

:meth:`System.run_steps` is that policy as a per-step scan over the active
cores, and the one scheduler that takes a stop point: ``stop_before_load``
ends it just before the next scheduled core's first non-speculative
``load`` of an address (scenario replay snapshots there, before a victim
reads its secret).  :meth:`System.run` keeps two specialised loops for the
hot cases, a single core (every Table IV run) with no arbitration at all
and two cores (every cross-core attack) with a direct comparison, and
hands more active cores to the scan until one of them halts, when it
looks at the count again.  All three orders are identical,
which ``tests/test_golden_parity.py`` and ``tests/test_block_fuzz.py`` pin.

A scheduler step is one compiled block, one instruction, or one squash;
``max_steps`` and ``run_steps`` count those steps.  Where cores can
interleave (``_run_pair`` and ``run_steps``) a step is one
:meth:`Core.step <repro.cpu.core.Core.step>`, whose blocks hold only
register-only instructions and end at every memory op, so a load always
begins a step and the stop point is exact.  ``_run_single``, where one
core runs alone with no stop point, also runs the core's lone-core
blocks (:mod:`repro.cpu.blocks`), which hold memory ops and end only at
``halt``, a branch or a ``jmp``; no other core can observe the difference.
A sampled run turns fusion off, so there every step is one instruction
(or one squash), and runs the same dispatch in chunks of
``sample_interval`` steps, sampling after each full chunk.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from repro.cpu.core import Core, CoreConfig
from repro.errors import SimulationError, SnapshotError
from repro.isa.decode import K_LOAD
from repro.isa.program import Program
from repro.isa.registers import WORD_MASK
from repro.mem.hierarchy import MemoryHierarchy
from repro.snapshot import SNAPSHOT_VERSION, require_keys


@dataclass
class RunResult:
    """Everything the experiments need from one simulation run.

    JSON round-trippable (:meth:`to_json`, :meth:`from_json`), so the
    runner's disk store keeps it as it is.
    """

    cycles: int
    instructions: int
    core_cycles: list[int]
    core_instructions: list[int]
    l1d_stats: list[dict[str, int | float]]
    l2_stats: dict[str, int | float]
    prefetch_counts: list[dict[str, int]]
    samples: list[tuple[int, object]] = field(default_factory=list)
    # Per-core PREFENDER-internal counters (allocation_failures, protection
    # lifecycle); empty dicts for cores without a PREFENDER.
    defense_stats: list[dict[str, int]] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def total_prefetches(self, core_id: int = 0) -> int:
        return sum(self.prefetch_counts[core_id].values())

    def to_json(self) -> dict[str, Any]:
        data = asdict(self)
        data["samples"] = [[step, value] for step, value in self.samples]
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "RunResult":
        return cls(
            cycles=data["cycles"],
            instructions=data["instructions"],
            core_cycles=list(data["core_cycles"]),
            core_instructions=list(data["core_instructions"]),
            l1d_stats=[dict(stats) for stats in data["l1d_stats"]],
            l2_stats=dict(data["l2_stats"]),
            prefetch_counts=[dict(counts) for counts in data["prefetch_counts"]],
            samples=[(step, value) for step, value in data["samples"]],
            defense_stats=[
                {str(key): int(value) for key, value in stats.items()}
                for stats in data["defense_stats"]
            ],
        )


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
                counts scheduler steps, so a compiled block is one step
                (and a lone core's blocks hold memory ops too).
            sample_interval: when set, record ``sample_fn(self)`` every this
                many scheduler steps (Fig. 12 uses this to sample protected
                buffer counts over execution progress).  Fusion is off for
                the run, so a step is one instruction.
            sample_fn: sampling callback; defaults to core 0's protected
                buffer count when its prefetcher is a PREFENDER.

        Raises:
            SimulationError: when work is left after ``max_steps`` steps.
        """
        samples: list[tuple[int, object]] = []
        if not sample_interval:
            self._advance(max_steps)
        else:
            if sample_fn is None:
                sample_fn = _default_sample
            # Sampling cadence counts scheduler steps, and fusion (countdown
            # loops and compiled blocks) collapses many instructions into one
            # step; interpret one instruction per step so a sampled run sees
            # the seed engine's step sequence, then restore each core's switch.
            for core in self.cores:
                core._fuse_loops = False
            try:
                steps = 0
                while steps < max_steps:
                    taken = self._advance(min(sample_interval, max_steps - steps))
                    steps += taken
                    if taken < sample_interval:
                        break
                    samples.append((steps, sample_fn(self)))
            finally:
                for core in self.cores:
                    core._fuse_loops = core.config.fuse_countdown_loops
        for core in self.cores:
            if not core.halted:
                # Only a run with work left is a runaway; when the final
                # step halted the last core the budget was exactly enough.
                raise SimulationError(
                    f"exceeded {max_steps} scheduler steps; "
                    "a program probably fails to halt"
                )
        return self._result(samples)

    def _advance(self, budget: int) -> int:
        """Take up to ``budget`` scheduler steps with the loop for the
        active-core count; returns the steps taken, fewer only once every
        core has halted.  Three or more active cores share the scan until
        one halts; then the count is taken again, so the last two reach
        ``_run_pair`` and the last one its lone-core blocks."""
        taken = 0
        while True:
            active = [core for core in self.cores if not core.halted]
            if len(active) == 1:
                return self._run_single(active[0], taken, budget)
            if len(active) == 2:
                return taken + self._run_pair(
                    active[0], active[1], budget - taken
                )
            if not active or taken == budget:
                return taken
            taken += self._scan(budget - taken, None, until_halt=True)

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

    def run_steps(self, steps: int, stop_before_load: int | None = None) -> int:
        """Advance up to ``steps`` scheduler steps; returns the steps taken.

        Scheduling order is identical to :meth:`run`: the non-halted core
        with the smallest local time steps next, ties to the lower core
        index.  Fewer than ``steps`` are taken only when every core halted
        first, or at the stop point: with ``stop_before_load`` set, the
        scan stops just before the scheduled core executes a
        non-speculative ``load`` whose effective address is that value.
        Each step is one ``Core.step``, whose blocks end at every memory
        op, so such a load always begins a step.
        Scenario replay stops there before a victim first reads its
        secret; the parity harness stops a run at an arbitrary point,
        snapshots, and compares resumed executions state-for-state.
        """
        return self._scan(steps, stop_before_load, until_halt=False)

    def _scan(
        self, steps: int, stop_before_load: int | None, until_halt: bool
    ) -> int:
        """:meth:`run_steps`'s min-time scan; with ``until_halt`` it also
        returns just after a step that halts a core."""
        taken = 0
        active = [core for core in self.cores if not core.halted]
        while active and taken < steps:
            core = active[0]
            for candidate in active[1:]:
                # Strict < keeps the earlier (lower-index) core on ties.
                if candidate.time < core.time:
                    core = candidate
            if stop_before_load is not None and not core._speculating:
                # An out-of-range pc is left to Core.step to report.
                index = core.pc_index
                if 0 <= index < core._program_len:
                    d = core._decoded[index]
                    if (
                        d[0] == K_LOAD
                        and (core._values[d[2]] + d[3]) & WORD_MASK
                        == stop_before_load
                    ):
                        break
            core.step()
            taken += 1
            if core.halted:
                if until_halt:
                    break
                active = [c for c in active if not c.halted]
        return taken

    def _run_single(self, core: Core, steps: int, budget: int) -> int:
        """Tight loop for one active core, until it halts or ``steps``
        reaches ``budget``; returns the updated step count.

        No other core can interleave and no stop point is armed, so a
        step at a leader of the core's lone-core table
        (:meth:`Core.lone_blocks <repro.cpu.core.Core.lone_blocks>`) runs
        that block, memory ops and all, without going through
        ``Core.step``: the core is neither halted nor speculating there.
        Every other step is one ``Core.step``.
        """
        step = core.step
        lookup = core.lone_blocks().get
        values = core._values
        tracks = core._tracks
        while steps < budget:
            block = lookup(core.pc_index)
            if block is None:
                step()
            else:
                block(core, values, tracks)
            steps += 1
            if core.halted:
                break
        return steps

    def _run_pair(self, first: Core, second: Core, budget: int) -> int:
        """Two active cores: direct min-time comparison until one halts,
        then the survivor alone; returns the steps taken.

        ``<=`` keeps the seed scheduler's tie-break (lower core index).
        """
        steps = 0
        while steps < budget:
            core = first if first.time <= second.time else second
            core.step()
            steps += 1
            if core.halted:
                survivor = second if core is first else first
                return self._run_single(survivor, steps, budget)
        return steps

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
