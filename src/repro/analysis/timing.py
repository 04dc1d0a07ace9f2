"""Cycle-bound interval analysis and the differential timing map.

Three layers on top of :mod:`repro.analysis.cachemodel`:

* :func:`analyze_timing` — abstract interpretation
  of the cache hierarchy over the PR 6 CFG (join at merge points, one
  :class:`~repro.analysis.cachemodel.HierarchyState` per block), then a
  per-block cycle-cost interval combining the core's Table III calc-rule
  costs (``base``/``mul``/``branch`` from
  :class:`~repro.cpu.core.CoreConfig`) with the abstract hit/miss
  classification of every memory access.  Whole-program bounds come from
  shortest/longest path over the block costs: ``lo`` is the cheapest
  entry→halt path, ``hi`` is the dearest — or ``None`` when a reachable
  loop makes the worst case unbounded.
* :func:`timing_variations` — fuses the bounds with PR 8 taint into the
  ``AN-TIMING-VAR`` rule's substrate: a secret-conditioned branch whose
  successor paths differ in minimum remaining cost, or a secret-addressed
  access whose abstract latency interval is not a single point (its
  hit/miss state varies across secrets).
* :func:`secret_trials` / :func:`timing_map` — the dynamic
  counterpart: put one concrete secret in the declared secret cells and
  *walk* the program with exact register/memory/cache state (the analog
  of :func:`~repro.analysis.taint.leak_map`'s feasible-edges constant
  propagation, extended with the abstract hierarchy and the core's exact
  cost model, including ``rdcycle`` values and countdown-loop fusion).
  On a fully resolved walk the abstract cache degenerates to exact LRU
  and each secret's interval is a single point — which
  ``tests/test_timing_oracle.py`` pins against the simulator's measured
  cycles for every victim × secret.  From the same walk per secret,
  :func:`secret_trials` also compares the attacker-observable must/may
  block sets at the last secret-addressed access (``AN-CACHE-DISTINGUISH``).

The walk is one step function (:func:`_step`) and one scheduler loop
(:func:`_run`) over :class:`_WalkState`, one core per program, and one
fork (:func:`_fork`): the steps before the first load of a secret cell
are walked once, and a copy of that state is finished per secret.  The
certifier in :mod:`repro.analysis.scenario` forks a walk of one or two
programs; :func:`secret_trials` forks one.  The core count alone decides
how imprecision is treated (see :class:`_WalkState`).

Scope: the non-speculative semantics the undefended ``Base``
configuration runs (no prefetcher, default :class:`~repro.cpu.core.CoreConfig`).
A speculative core's transient windows are invisible to the architectural
CFG, so :func:`secret_trials` returns the trivial ``[0, None]`` interval
for one rather than pretend.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Sequence

from repro.analysis.cachemodel import HierarchyState, LatencyInterval
from repro.analysis.cfg import (
    EXIT,
    BasicBlock,
    ControlFlowGraph,
    forward,
)
from repro.analysis.dataflow import _transfer
from repro.analysis.taint import TaintAnalysis, _branch_taken, taint_of_program
from repro.cpu.alu import MUL_KINDS
from repro.cpu.blocks import BLOCK_KINDS
from repro.cpu.core import CoreConfig
from repro.isa.decode import (
    K_ADD_RI,
    K_BRANCH,
    K_CLFLUSH,
    K_FENCE,
    K_HALT,
    K_JMP,
    K_LOAD,
    K_PREFETCH,
    K_RDCYCLE,
    K_STORE,
)
from repro.isa.registers import WORD_MASK, ZERO_REGISTER
from repro.mem.hierarchy import HierarchyConfig

Decoded = tuple[tuple[Any, ...], ...]

#: Walk step budget: generous for every bundled program (the largest,
#: spectre training, retires ~10k instructions) while bounding the
#: spin-wait loops of cross-core attackers, which can never exit under
#: single-core walk semantics.
DEFAULT_WALK_STEPS = 200_000


@dataclass(frozen=True)
class CycleInterval:
    """Closed cycle-count interval; ``hi is None`` means unbounded/unknown."""

    lo: int
    hi: int | None

    @property
    def exact(self) -> bool:
        return self.hi == self.lo


@dataclass(frozen=True)
class TimingAnalysis:
    """Converged cycle/cache interval analysis of one decoded program."""

    #: Whole-program entry→halt cycle bounds.
    bounds: CycleInterval
    #: Abstract latency interval of every reachable memory access.
    access_latencies: Mapping[int, LatencyInterval]
    #: Minimum remaining cost from each block's start to program exit
    #: (blocks from which no exit is reachable are absent).
    min_to_exit: Mapping[int, int]


_EMPTY_TIMING = TimingAnalysis(
    bounds=CycleInterval(0, 0),
    access_latencies={},
    min_to_exit={},
)


def _charged(
    interval: LatencyInterval, config: CoreConfig, serialized: bool
) -> tuple[int, int]:
    """Load/prefetch stall interval under the OoO hide window."""
    hide = config.load_hide_cycles
    if serialized or hide <= 0:
        return interval.lo, interval.hi
    base = config.base_cost
    return (
        max(base, interval.lo - hide),
        max(base, interval.hi - hide),
    )


def _cache_effect(
    state: HierarchyState, kind: int, addr: int | None
) -> LatencyInterval | None:
    """Apply one access to the abstract hierarchy; ``None`` for non-accesses."""
    if kind == K_LOAD:
        return state.load(0, addr)
    if kind == K_STORE:
        return state.store(0, addr)
    if kind == K_PREFETCH:
        return state.prefetch(0, addr, may_drop=True)
    if kind == K_CLFLUSH:
        return state.flush(0, addr)
    return None


def _instruction_cost(
    tup: tuple[Any, ...],
    state: HierarchyState,
    addr: int | None,
    config: CoreConfig,
) -> tuple[int, int, LatencyInterval | None]:
    """``(lo, hi, access interval)`` of one instruction; mutates ``state``."""
    kind = tup[0]
    interval = _cache_effect(state, kind, addr)
    if interval is not None:
        if kind in (K_LOAD, K_PREFETCH):
            # The hide window may not apply (a serialising rdcycle/fence can
            # precede any access on some path), so the upper bound stays raw.
            lo, _ = _charged(interval, config, serialized=False)
            return lo, interval.hi, interval
        return interval.lo, interval.hi, interval
    if kind in MUL_KINDS:
        return config.mul_cost, config.mul_cost, None
    if kind in (K_BRANCH, K_JMP):
        return config.branch_cost, config.branch_cost, None
    return config.base_cost, config.base_cost, None


def _timing_fixpoint(
    decoded: Decoded,
    cfg: ControlFlowGraph,
    resolved: Mapping[int, int],
    hierarchy: HierarchyConfig,
) -> dict[int, HierarchyState]:
    """Per-block abstract hierarchy in-states (forward, join).

    In-states only ascend (each update joins into the previous state), and
    the domain over the finite universe of resolved block addresses has
    finite height, so the fixpoint is reached without widening.
    """

    def through(block: BasicBlock, state: HierarchyState) -> HierarchyState:
        state = state.copy()
        for i in block.instruction_indices():
            _cache_effect(state, decoded[i][0], resolved.get(i))
        return state

    return forward(cfg, HierarchyState(hierarchy), through, HierarchyState.join)


def _exit_blocks(cfg: ControlFlowGraph) -> set[int]:
    """Blocks where execution leaves the program (halt or fall-off)."""
    return {
        block.index
        for block in cfg.blocks
        if not block.successors or EXIT in block.successors
    }


def _min_to_exit(
    cfg: ControlFlowGraph, cost_lo: Mapping[int, int]
) -> dict[int, int]:
    """Cheapest cost from each block's start through program exit."""
    preds = cfg.predecessors()
    dist: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for index in _exit_blocks(cfg):
        if index in cost_lo:
            heapq.heappush(heap, (cost_lo[index], index))
    while heap:
        cost, index = heapq.heappop(heap)
        if index in dist:
            continue
        dist[index] = cost
        for pred in preds[index]:
            if pred in cost_lo and pred not in dist:
                heapq.heappush(heap, (cost + cost_lo[pred], pred))
    return dist


def _max_from_entry(
    cfg: ControlFlowGraph,
    cost_hi: Mapping[int, int],
    can_exit: Mapping[int, int],
) -> int | None:
    """Dearest entry→exit path cost, or ``None`` if a loop makes it unbounded.

    Only blocks that can still reach an exit count: a cycle among them
    means the worst case is unbounded; otherwise the subgraph is a DAG and
    the longest path is well-defined.
    """
    if 0 not in can_exit:
        return None
    alive = frozenset(can_exit) & frozenset(cost_hi)
    live = sorted(alive)
    succs = {
        index: tuple(
            s
            for s in cfg.blocks[index].successors
            if s != EXIT and s in alive
        )
        for index in live
    }
    indegree = {index: 0 for index in live}
    for targets in succs.values():
        for s in targets:
            indegree[s] += 1
    order: list[int] = [i for i, d in indegree.items() if d == 0]
    topo: list[int] = []
    while order:
        index = order.pop()
        topo.append(index)
        for s in succs[index]:
            indegree[s] -= 1
            if indegree[s] == 0:
                order.append(s)
    if len(topo) != len(live):
        return None  # a cycle survives among exit-reaching blocks
    longest: dict[int, int] = {}
    for index in reversed(topo):
        tail = max(
            (longest[s] for s in succs[index]), default=0
        )
        longest[index] = cost_hi[index] + tail
    return longest.get(0)


def analyze_timing(
    decoded: Decoded, cfg: ControlFlowGraph, resolved: Mapping[int, int]
) -> TimingAnalysis:
    """Abstract cache + cycle-interval analysis over a built CFG, for the
    default core and hierarchy; ``resolved`` is
    :func:`~repro.analysis.dataflow.constant_addresses` of both."""
    if not cfg.blocks:
        return _EMPTY_TIMING
    config = CoreConfig()
    in_states = _timing_fixpoint(decoded, cfg, resolved, HierarchyConfig())

    cost_lo: dict[int, int] = {}
    cost_hi: dict[int, int] = {}
    access_latencies: dict[int, LatencyInterval] = {}
    for block in cfg.blocks:
        entry = in_states.get(block.index)
        if entry is None:
            continue  # unreachable
        state = entry.copy()
        lo = hi = 0
        for i in block.instruction_indices():
            ilo, ihi, interval = _instruction_cost(
                decoded[i], state, resolved.get(i), config
            )
            lo += ilo
            hi += ihi
            if interval is not None:
                access_latencies[i] = interval
        cost_lo[block.index] = lo
        cost_hi[block.index] = hi

    min_exit = _min_to_exit(cfg, cost_lo)
    bound_lo = min_exit.get(0, 0)
    bound_hi = _max_from_entry(cfg, cost_hi, min_exit)
    return TimingAnalysis(
        bounds=CycleInterval(bound_lo, bound_hi),
        access_latencies=access_latencies,
        min_to_exit=min_exit,
    )


# -- AN-TIMING-VAR substrate ----------------------------------------------------


def timing_variations(
    cfg: ControlFlowGraph,
    taint: TaintAnalysis,
    timing: TimingAnalysis,
) -> tuple[tuple[int, str], ...]:
    """``(instruction index, message)`` pairs for the AN-TIMING-VAR rule.

    Fires on every secret-conditioned branch (with the minimum remaining
    cycle-cost delta between its successor paths — the statically provable
    floor of the control-flow channel) and on every secret-addressed
    access whose abstract latency interval is not a single point (its
    hit/miss classification varies across secrets).
    """
    variations: list[tuple[int, str]] = []
    for index in taint.branches:
        block = cfg.blocks[cfg.block_of[index]]
        costs: list[int | None] = []
        if block.end - 1 == index:
            for successor in block.successors:
                if successor == EXIT:
                    costs.append(0)
                else:
                    costs.append(timing.min_to_exit.get(successor))
        if len(costs) >= 2 and all(c is not None for c in costs):
            known = [c for c in costs if c is not None]
            delta = max(known) - min(known)
            detail = f"successor paths differ by >= {delta} cycle(s)"
        else:
            detail = "a successor path has no bounded remaining cost"
        variations.append(
            (
                index,
                "branch on a secret steers timing-distinguishable paths "
                f"({detail})",
            )
        )
    for access in taint.accesses:
        if not access.addressed:
            continue
        interval = timing.access_latencies.get(access.index)
        if interval is not None and not interval.exact:
            variations.append(
                (
                    access.index,
                    f"secret-addressed {access.kind} may hit or miss: "
                    f"abstract latency {interval.lo}..{interval.hi} cycle(s)",
                )
            )
    variations.sort()
    return tuple(variations)


# -- exact walk (secret trials and the certifier) -------------------------------


class _Unresolved(Exception):
    """The walk lost precision or ran out of steps; it ends there."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _initial_memory(programs: Sequence[Any]) -> dict[int, int | None]:
    """Word store at t=0: every program's data segments.

    Mirrors :meth:`repro.mem.memory.MainMemory.load_program_data` for
    each program in core order, as :class:`repro.cpu.system.System` loads
    them into one shared memory.
    """
    memory: dict[int, int | None] = {}
    for program in programs:
        for segment in program.data_segments:
            for offset, value in enumerate(segment.values):
                memory[segment.base + offset * segment.stride] = value & WORD_MASK
    return memory


def _fused_iterations(
    decoded: Decoded, index: int, regs: Mapping[int, int]
) -> int:
    """Iterations countdown-loop fusion skips after a taken branch.

    Called after the branch at ``index`` jumped back to ``index - 1``.
    Mirrors :meth:`repro.cpu.core.Core._fuse_countdown`: when the branch is
    ``bne rX, zero`` and the instruction it jumps to is exactly
    ``sub rX, rX, 1`` with ``rX`` known, every iteration but the exiting
    one is skipped; the caller sets ``rX`` to 1 and charges
    ``base_cost + branch_cost`` per skipped iteration.  Returns 0 when the
    loop does not qualify.  Fusion is schedule-safe on several cores: the
    fused window executes only register arithmetic, so another core's
    interleaved events observe the same shared state.
    """
    _, cond, rs0, rs1, _target = decoded[index]
    if cond != 1 or rs1 != ZERO_REGISTER or rs0 == ZERO_REGISTER:
        return 0
    prev = decoded[index - 1]
    value = regs.get(rs0)
    if (
        value is None
        or prev[0] != K_ADD_RI
        or prev[1] != rs0
        or prev[2] != rs0
        or prev[3] != WORD_MASK
    ):
        return 0
    return max(value - 1, 0)


class _CoreWalk:
    """One core's walk state: registers, pc, time bounds, serialising flag.

    ``regs`` holds the known registers; an absent one is unknown, and
    ``r0`` is always present as 0.  ``lo == hi`` until a latency widens.
    """

    __slots__ = ("core_id", "decoded", "n", "regs", "pc", "lo", "hi", "serialized")

    def __init__(self, core_id: int, decoded: Decoded) -> None:
        self.core_id = core_id
        self.decoded = decoded
        self.n = len(decoded)
        self.regs: dict[int, int] = {ZERO_REGISTER: 0}
        self.pc = 0
        self.lo = 0
        self.hi = 0
        self.serialized = False

    def copy(self) -> "_CoreWalk":
        dup = _CoreWalk.__new__(_CoreWalk)
        dup.core_id = self.core_id
        dup.decoded = self.decoded
        dup.n = self.n
        dup.regs = dict(self.regs)
        dup.pc = self.pc
        dup.lo = self.lo
        dup.hi = self.hi
        dup.serialized = self.serialized
        return dup

    def unknown(self, index: int) -> _Unresolved:
        """The walk's end when register ``index`` must be known but is not."""
        return _Unresolved(
            f"core {self.core_id}: register r{index} unknown at pc {self.pc}"
        )


class _WalkState:
    """Everything a walk step reads or writes, so a walk can fork.

    One core per program over one shared hierarchy and one word store
    (every program's data segments).  ``active`` holds the cores that have
    not halted, ``steps`` counts the steps taken against the walk's
    budget, and ``snapshots`` records ``(index, observable)`` after each
    observed instruction.

    The core count sets how the walk treats imprecision.  One core walks
    the way :func:`secret_trials` bounds a run: an unresolved address havocs
    the hierarchy (a store there sets ``clobbered``, after which no word
    is known), a store of an unknown value leaves that word unknown
    (``None``), a widened latency widens ``[lo, hi]``, and a software
    prefetch may be dropped.  More than one core needs exact times to
    schedule, so ``exact`` is set and each of those cases raises
    :class:`_Unresolved` instead; prefetches then complete.
    """

    __slots__ = (
        "shared", "memory", "clobbered", "cores", "active", "steps",
        "snapshots", "exact",
    )

    def __init__(
        self, programs: Sequence[Any], hconfig: HierarchyConfig
    ) -> None:
        self.shared = HierarchyState(hconfig, num_cores=len(programs))
        self.memory = _initial_memory(programs)
        self.clobbered = False
        self.cores = tuple(
            _CoreWalk(core_id, tuple(program.decoded))
            for core_id, program in enumerate(programs)
        )
        self.active = list(self.cores)
        self.steps = 0
        self.snapshots: list[tuple[int, tuple[Any, ...]]] = []
        self.exact = self.shared.num_cores > 1

    def copy(self) -> "_WalkState":
        dup = _WalkState.__new__(_WalkState)
        dup.shared = self.shared.copy()
        dup.memory = dict(self.memory)
        dup.clobbered = self.clobbered
        dup.cores = tuple(core.copy() for core in self.cores)
        dup.active = [dup.cores[core.core_id] for core in self.active]
        dup.steps = self.steps
        dup.snapshots = list(self.snapshots)
        dup.exact = self.exact
        return dup


def _address(walk: _WalkState, core: _CoreWalk, reg: int, imm: int) -> int | None:
    """Effective address ``reg + imm``; ``None`` when one core cannot resolve it."""
    value = core.regs.get(reg)
    if value is None:
        if walk.exact:
            raise core.unknown(reg)
        return None
    return (value + imm) & WORD_MASK


def _step(
    walk: _WalkState, core: _CoreWalk, config: CoreConfig, fuse: bool
) -> bool:
    """Execute ``core``'s next instruction; returns True when it halts.

    Mirrors :class:`repro.cpu.core.Core`'s non-speculative semantics
    instruction for instruction (``rdcycle`` reading the current cycle, the
    serialising flag, the OoO hide window and countdown-loop fusion) over
    the abstract hierarchy.  A branch over an unknown value, a PC escape
    and an invalid target raise :class:`_Unresolved`; see
    :class:`_WalkState` for what else does.
    """
    pc = core.pc
    if not 0 <= pc < core.n:
        raise _Unresolved(f"core {core.core_id}: pc {pc} escaped the program")
    tup = core.decoded[pc]
    kind = tup[0]
    regs = core.regs
    if kind in BLOCK_KINDS:  # touches registers only
        _transfer(regs, tup)
        cost = config.mul_cost if kind in MUL_KINDS else config.base_cost
        core.lo += cost
        core.hi += cost
        core.pc = pc + 1
        return False
    if kind == K_BRANCH:
        _, cond, rs0, rs1, target = tup
        a = regs.get(rs0)
        if a is None:
            raise core.unknown(rs0)
        b = regs.get(rs1)
        if b is None:
            raise core.unknown(rs1)
        if not isinstance(target, int) or not 0 <= target < core.n:
            raise _Unresolved(
                f"core {core.core_id}: branch target {target!r} invalid"
            )
        branch_cost = config.branch_cost
        cost = branch_cost
        if _branch_taken(cond, a, b):
            core.pc = target
            if fuse and target == pc - 1:
                skipped = _fused_iterations(core.decoded, pc, regs)
                if skipped:
                    regs[rs0] = 1
                    cost += skipped * (config.base_cost + branch_cost)
        else:
            core.pc = pc + 1
        core.lo += cost
        core.hi += cost
        return False
    if kind == K_JMP:
        target = tup[1]
        if not isinstance(target, int) or not 0 <= target < core.n:
            raise _Unresolved(
                f"core {core.core_id}: jump target {target!r} invalid"
            )
        core.lo += config.branch_cost
        core.hi += config.branch_cost
        core.pc = target
        return False
    if kind == K_HALT:
        core.lo += config.base_cost
        core.hi += config.base_cost
        return True
    if kind == K_RDCYCLE or kind == K_FENCE:
        if kind == K_RDCYCLE and tup[1] != ZERO_REGISTER:
            if core.lo == core.hi:
                regs[tup[1]] = core.lo & WORD_MASK
            else:
                regs.pop(tup[1], None)
        core.serialized = True
        core.lo += config.base_cost
        core.hi += config.base_cost
        core.pc = pc + 1
        return False
    shared = walk.shared
    if kind == K_LOAD:
        _, rd, rs0, imm, _pc = tup
        addr = _address(walk, core, rs0, imm)
        lo, hi = _charged(
            shared.load(core.core_id, addr), config, core.serialized
        )
        core.serialized = False
        if rd != ZERO_REGISTER:
            value = (
                None
                if addr is None or walk.clobbered
                else walk.memory.get(addr, 0)
            )
            if value is None:
                regs.pop(rd, None)
            else:
                regs[rd] = value & WORD_MASK
    elif kind == K_STORE:
        _, rs0, rs1, imm, _pc = tup
        addr = _address(walk, core, rs1, imm)
        value = regs.get(rs0)
        if value is None and walk.exact:
            raise core.unknown(rs0)
        interval = shared.store(core.core_id, addr)
        lo, hi = interval.lo, interval.hi
        if addr is None:
            walk.clobbered = True
        else:
            walk.memory[addr] = value
    elif kind == K_CLFLUSH:
        _, rs0, imm = tup
        interval = shared.flush(core.core_id, _address(walk, core, rs0, imm))
        lo, hi = interval.lo, interval.hi
    else:  # K_PREFETCH
        _, rs0, imm, write = tup
        interval = shared.prefetch(
            core.core_id,
            _address(walk, core, rs0, imm),
            bool(write),
            may_drop=not walk.exact,
        )
        lo, hi = _charged(interval, config, core.serialized)
        core.serialized = False
    if lo != hi and walk.exact:
        raise _Unresolved(
            f"core {core.core_id}: access latency widened to "
            f"{lo}..{hi} at pc {pc}"
        )
    core.lo += lo
    core.hi += hi
    core.pc = pc + 1
    return False


def _run(
    walk: _WalkState,
    config: CoreConfig,
    budget: int,
    watch: frozenset[int] = frozenset(),
    observe: frozenset[int] = frozenset(),
) -> bool:
    """Advance ``walk`` in place; returns False once every core halts.

    Scheduling is :meth:`repro.cpu.system.System.run_steps`'s: the
    non-halted core with the smallest local time steps next, strict ``<``
    keeping the lower-index core on ties.  The walk stops *before* a core
    executes a load whose effective address is in ``watch`` and returns
    True (the stop rule of ``System.run_steps(stop_before_load=)``).  A
    load whose base register is unknown does not stop it: one core then
    havocs, and :func:`_step` ends an exact walk there.  After each
    instruction whose index is in ``observe``, the stepping core's
    observable is appended to ``walk.snapshots``.  ``budget`` bounds
    ``walk.steps`` over every call on one walk.  Raises
    :class:`_Unresolved` when a step does or the budget runs out.
    """
    fuse = config.fuse_countdown_loops and not config.speculative_execution
    active = walk.active
    steps = walk.steps
    try:
        while steps < budget:
            if not active:
                return False
            best = active[0]
            if len(active) > 1:  # a one-core walk skips the scan
                for core in active:
                    if core.lo < best.lo:
                        best = core
            pc = best.pc
            if watch and 0 <= pc < best.n:
                tup = best.decoded[pc]
                if tup[0] == K_LOAD:
                    base = best.regs.get(tup[2])
                    if (
                        base is not None
                        and (base + tup[3]) & WORD_MASK in watch
                    ):
                        return True
            steps += 1
            if _step(walk, best, config, fuse):
                active.remove(best)
            if pc in observe:
                walk.snapshots.append(
                    (pc, walk.shared.observable(best.core_id))
                )
    finally:
        walk.steps = steps
    if active:
        raise _Unresolved(
            f"product walk exhausted {budget} steps with "
            f"{len(active)} core(s) still running"
        )
    return False


def _fork(
    programs: Sequence[Any],
    watch: frozenset[int],
    config: CoreConfig,
    hconfig: HierarchyConfig,
    max_steps: int,
    observe: frozenset[int] = frozenset(),
) -> Callable[[int], tuple[_WalkState, _Unresolved | None]]:
    """Fork one walk of ``programs`` per secret; returns ``finish(secret)``.

    ``finish`` gives the end of the walk whose words at ``watch`` hold
    ``secret``, with the :class:`_Unresolved` that stopped it early or
    ``None``.  The walk runs once, here, to just before the first load of
    a watched address, which is the first step that can read the secret.
    ``finish`` copies that state, writes the secret into every watched
    word of the copy and walks the rest on the same budget, ``max_steps``
    per program.  The secret replaces what the walk stored there before,
    as snapshot replay pokes a trial's secret into a warm image.  If the
    walk halts or stops before that load, every secret shares its end.
    """
    budget = max_steps * len(programs)
    prefix = _WalkState(programs, hconfig)
    stopped = False
    failure: _Unresolved | None = None
    try:
        stopped = _run(prefix, config, budget, watch, observe)
    except _Unresolved as unresolved:
        failure = unresolved

    def finish(secret: int) -> tuple[_WalkState, _Unresolved | None]:
        if not stopped:
            return prefix, failure
        walk = prefix.copy()
        for address in sorted(watch):
            walk.memory[address] = secret & WORD_MASK
        try:
            _run(walk, config, budget, observe=observe)
        except _Unresolved as unresolved:
            return walk, unresolved
        return walk, None

    return finish


@dataclass(frozen=True)
class DistinguisherReport:
    """AN-CACHE-DISTINGUISH verdict over one program's secret space."""

    #: Secrets whose walks were compared.
    secrets: tuple[int, ...]
    #: Two secrets yield different attacker-observable residency sets.
    distinguishable: bool
    #: A distinguishing secret pair (first found), or ``None``.
    witness: tuple[int, int] | None
    #: Instruction anchor: the last secret-addressed access executed for
    #: the witness pair's first secret (``None`` for a halt-state verdict).
    index: int | None
    #: One-line human-readable explanation.
    detail: str


#: A walk's last observation: the instruction index (``None`` for the
#: halt state) and the attacker-observable residency there.
_Observation = tuple[int | None, tuple[Any, ...]]


def _distinguisher(
    secrets: tuple[int, ...], observed: Mapping[int, _Observation] | None
) -> DistinguisherReport:
    """Compare the observations of every secret whose walk resolved.

    ``observed is None`` means the comparison was not run.
    """
    report = DistinguisherReport(
        secrets=secrets,
        distinguishable=False,
        witness=None,
        index=None,
        detail="not evaluated (needs >= 2 secrets, non-speculative core)",
    )
    if observed is None:
        return report
    for secret in secrets:
        if secret not in observed:
            return replace(
                report, detail=f"walk for secret {secret} did not resolve"
            )
    first_secret = secrets[0]
    first_index, first_state = observed[first_secret]
    for secret in secrets[1:]:
        index, observable = observed[secret]
        if observable != first_state or index != first_index:
            return replace(
                report,
                distinguishable=True,
                witness=(first_secret, secret),
                index=first_index if first_index is not None else index,
                detail=(
                    f"secrets {first_secret} and {secret} leave different "
                    "must/may residency in a shared cache level"
                ),
            )
    return replace(
        report,
        detail=(
            f"all {len(secrets)} secrets converge to one "
            "attacker-observable residency state"
        ),
    )


def secret_trials(
    program: Any,
    secrets: Sequence[int],
    hierarchy: HierarchyConfig | None = None,
    core: CoreConfig | None = None,
    *,
    max_steps: int = DEFAULT_WALK_STEPS,
) -> tuple[dict[int, CycleInterval], DistinguisherReport]:
    """Walk ``program`` once per distinct secret; read two answers off it.

    Each walk holds the secret in every declared taint-source cell,
    written just before the first load of one of them (:func:`_fork`),
    exactly as snapshot replay pokes trial secrets into a warm image.  The
    walks share everything before that load.

    The first answer maps each secret to the program's cycle interval.
    When every branch and address resolves, the abstract hierarchy tracks
    the simulator's LRU exactly and the interval is a point equal to the
    undefended run's ``RunResult.cycles``; an unresolved step gives
    ``hi=None`` over a sound lower bound.

    The second is the AN-CACHE-DISTINGUISH verdict.  It compares the
    attacker's side of the channel, the must/may block sets of both
    levels, right after the victim's last secret-addressed access executes
    (a taint-clean program falls back to the halt state, where a
    constant-time program converges for every secret).  Two secrets with
    different observables mean a shared cache level distinguishes them.
    It needs two distinct secrets and a non-speculative core.
    """
    secret_tuple = tuple(dict.fromkeys(secrets))
    config = core or CoreConfig()
    if config.speculative_execution:
        return (
            dict.fromkeys(secret_tuple, CycleInterval(0, None)),
            _distinguisher(secret_tuple, None),
        )
    compare = len(secret_tuple) >= 2
    observe = frozenset(
        taint_of_program(program).secret_addressed() if compare else ()
    )
    finish = _fork(
        (program,),
        frozenset(program.taint_sources),
        config,
        hierarchy or HierarchyConfig(),
        max_steps,
        observe,
    )
    intervals: dict[int, CycleInterval] = {}
    observed: dict[int, _Observation] = {}
    for secret in secret_tuple:
        walk, unresolved = finish(secret)
        (walked,) = walk.cores
        halted = unresolved is None
        intervals[secret] = CycleInterval(
            walked.lo, walked.hi if halted else None
        )
        if walk.snapshots:
            observed[secret] = walk.snapshots[-1]
        elif halted:
            observed[secret] = (None, walk.shared.observable(0))
    if not program.decoded:
        intervals = dict.fromkeys(secret_tuple, CycleInterval(0, 0))
    return intervals, _distinguisher(
        secret_tuple, observed if compare else None
    )


def timing_map(
    program: Any,
    secret: int,
    hierarchy: HierarchyConfig | None = None,
    core: CoreConfig | None = None,
    *,
    max_steps: int = DEFAULT_WALK_STEPS,
) -> CycleInterval:
    """Cycle interval of ``program`` when its declared secrets equal
    ``secret``: :func:`secret_trials` for one secret.

    The analog of :func:`~repro.analysis.taint.leak_map`: the declared
    taint-source cells hold ``secret`` and the program is walked
    concretely.
    """
    intervals, _ = secret_trials(
        program, (secret,), hierarchy, core, max_steps=max_steps
    )
    return intervals[secret]
