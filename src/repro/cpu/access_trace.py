"""Record a lone core's loads and stores once; replay them on other
hierarchies.

On one core without speculative execution, which instruction runs next and
what it reads depend on the program, its registers and memory, never on
when a load's data arrives, as long as no instruction reads the clock:
``rdcycle`` is the one that does, and it and ``fence`` are the ones that
make the next load pay its full latency.  For a program without them, and
without ``clflush`` or software prefetches, which the replay does not model
(:func:`replayable`), the sequence of calls a run makes into the memory
hierarchy, apart from their times, depends only on the program and the
core config, and so do the core cycles between the end of one call and the
start of the next.  A prefetcher or a cache geometry only picks each call's
latency.

So a run on a :class:`RecordingHierarchy` is a full simulation that also
records, for each load and store, its address, PC, the base register's
scale (a load) or the stored value (a store), and the cycles since the
previous one ended: an :class:`AccessTrace`.  :meth:`AccessTrace.drive`
replays it on a fresh core of another system whose program and core config
are the same: it makes the same hierarchy calls, each at the time that
system's own latencies give, charges each load through
:meth:`Core._charged_latency <repro.cpu.core.Core._charged_latency>`, and
ends with the recorded tail cycles and final core state.  The replayed run's
:class:`~repro.cpu.system.RunResult`, like its caches, prefetcher and
memory, equals a full simulation's.  A replay runs inside
:meth:`System.run <repro.cpu.system.System.run>`
(:meth:`System.replay <repro.cpu.system.System.replay>`), the one entry
that runs a system.  ``tests/test_trace_replay.py`` checks the equality on
every bundled workload under every prefetcher and on fuzzed programs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any

from repro.cpu.core import Core, CoreConfig
from repro.errors import SimulationError
from repro.isa.decode import K_CLFLUSH, K_FENCE, K_PREFETCH, K_RDCYCLE
from repro.isa.program import Program
from repro.mem.hierarchy import AccessOutcome, MemoryHierarchy

#: Decode kinds a replayable program may not hold: the two that read the
#: clock or serialise the next load, and the two memory ops the replay
#: does not model.
UNREPLAYABLE_KINDS = frozenset({K_RDCYCLE, K_FENCE, K_CLFLUSH, K_PREFETCH})

#: Values recorded per op in :class:`RecordingHierarchy`'s flat array.
_FIELDS = 6


def replayable(program: Program, config: CoreConfig) -> bool:
    """Whether a lone core's run of ``program`` under ``config`` may be
    recorded and replayed: no speculative execution, and no instruction of
    :data:`UNREPLAYABLE_KINDS`."""
    if config.speculative_execution:
        return False
    return not any(d[0] in UNREPLAYABLE_KINDS for d in program.decoded)


@dataclass(frozen=True, slots=True)
class AccessTrace:
    """One lone core's loads and stores in program order, and its end.

    Op ``i`` is a store when ``stores[i]`` is 1, else a load.  It was issued
    ``gaps[i]`` core cycles after the previous op ended (the first, after
    the run began), at ``addrs[i]`` from the instruction at ``pcs[i]``;
    ``args[i]`` is a load's base-register scale or a store's value.  The
    core halted ``tail`` cycles after the last op ended, in the state
    ``final`` (:meth:`Core.snapshot <repro.cpu.core.Core.snapshot>`).
    ``decoded``, ``config`` and ``scale_cap`` name what the trace is valid
    for.
    """

    decoded: tuple[tuple[Any, ...], ...]
    config: CoreConfig
    scale_cap: int
    gaps: array[int]
    addrs: array[int]
    pcs: array[int]
    args: array[int]
    stores: array[int]
    tail: int
    final: dict[str, Any]

    def check(self, core: Core) -> None:
        """Raise :class:`SimulationError` unless ``core`` is a fresh core
        that this trace may drive."""
        if (
            core.halted
            or core.time
            or core.stats.instructions_retired
            or core._decoded != self.decoded
            or core.config != self.config
            or core._scale_cap != self.scale_cap
        ):
            raise SimulationError(
                f"core {core.core_id} is not a fresh core running the "
                "recorded program under the recorded core config"
            )

    def drive(self, core: Core) -> None:
        """Replay the trace on ``core`` (see the module docstring), which
        ends halted."""
        hierarchy = core.hierarchy
        load = hierarchy.load
        store = hierarchy.store
        charge = core._charged_latency
        cid = core.core_id
        now = core.time
        waited = 0
        for gap, addr, pc, arg, is_store in zip(
            self.gaps, self.addrs, self.pcs, self.args, self.stores
        ):
            now += gap
            if is_store:
                now += store(cid, addr, arg, now, pc)
            else:
                latency = load(cid, addr, now, pc, arg).latency
                waited += latency
                now += charge(latency)
        core.restore(self.final)
        core.time = now + self.tail
        core.stats.load_latency_total = waited


class RecordingHierarchy(MemoryHierarchy):
    """A memory hierarchy that also records every load and store it
    serves, for :meth:`trace` to turn into an :class:`AccessTrace`.

    A subclass, so a run on a plain :class:`MemoryHierarchy` pays nothing
    for recording.
    """

    __slots__ = ("_ops",)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # _FIELDS values per op: issue time, latency, address, pc, scale
        # or value, and 1 for a store.
        self._ops: array[int] = array("Q")

    def load(
        self,
        core_id: int,
        addr: int,
        now: int,
        pc: int = 0,
        scale: int = 1,
        speculative: bool = False,
    ) -> AccessOutcome:
        outcome = MemoryHierarchy.load(
            self, core_id, addr, now, pc, scale, speculative
        )
        self._ops.extend((now, outcome.latency, addr, pc, scale, 0))
        return outcome

    def store(
        self,
        core_id: int,
        addr: int,
        value: int,
        now: int,
        pc: int = 0,
        speculative: bool = False,
    ) -> int:
        latency = MemoryHierarchy.store(
            self, core_id, addr, value, now, pc, speculative
        )
        self._ops.extend((now, latency, addr, pc, value, 1))
        return latency

    def trace(self, core: Core) -> AccessTrace:
        """The trace of ``core``'s finished run, which must have been this
        hierarchy's only core and :func:`replayable`."""
        if self.num_cores != 1 or not core.halted:
            raise SimulationError("only a halted lone core's run is a trace")
        if not replayable(core.program, core.config):
            raise SimulationError(
                f"program {core.program.name!r} is not replayable"
            )
        ops = self._ops
        stores = array("B", ops[5::_FIELDS])
        charge = core._charged_latency
        gaps: array[int] = array("Q")
        end = 0
        for now, latency, is_store in zip(
            ops[0::_FIELDS], ops[1::_FIELDS], stores
        ):
            gaps.append(now - end)
            end = now + (latency if is_store else charge(latency))
        return AccessTrace(
            core._decoded,
            core.config,
            core._scale_cap,
            gaps,
            ops[2::_FIELDS],
            ops[3::_FIELDS],
            ops[4::_FIELDS],
            stores,
            core.time - end,
            core.snapshot(),
        )
