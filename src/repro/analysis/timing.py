"""Cycle-bound interval analysis and the differential timing map.

Three layers on top of :mod:`repro.analysis.cachemodel`:

* :func:`analyze_timing` / :func:`cycle_bounds` — abstract interpretation
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
* :func:`timing_map` / :func:`cache_distinguishers` — the dynamic
  counterpart: bind the declared secret cells to one concrete secret and
  *walk* the program with exact register/memory/cache state (the analog
  of :func:`~repro.analysis.taint.leak_map`'s feasible-edges constant
  propagation, extended with the abstract hierarchy and the core's exact
  cost model, including ``rdcycle`` values and countdown-loop fusion).
  On a fully resolved walk the abstract cache degenerates to exact LRU
  and the returned interval is a single point — which
  ``tests/test_timing_oracle.py`` pins against the simulator's measured
  cycles for every victim × secret.  :func:`cache_distinguishers` runs
  the walk once per secret and compares the attacker-observable must/may
  block sets at the last secret-addressed access (``AN-CACHE-DISTINGUISH``).

Scope: the non-speculative single-core semantics the undefended ``Base``
configuration runs (no prefetcher, default :class:`~repro.cpu.core.CoreConfig`).
A speculative core's transient windows are invisible to the architectural
CFG, so :func:`analyze_timing` returns the trivial ``[0, None]`` bound for
one rather than pretend.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.analysis.cachemodel import HierarchyState, LatencyInterval
from repro.analysis.cfg import EXIT, ControlFlowGraph, build_cfg
from repro.analysis.dataflow import _transfer
from repro.analysis.taint import TaintAnalysis, _branch_taken, taint_of_program
from repro.cpu.alu import MUL_KINDS
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
    #: Per-block ``(lo, hi)`` cycle cost, in block order.
    block_costs: tuple[tuple[int, int], ...]
    #: Abstract latency interval of every reachable memory access.
    access_latencies: Mapping[int, LatencyInterval]
    #: Minimum remaining cost from each block's start to program exit
    #: (blocks from which no exit is reachable are absent).
    min_to_exit: Mapping[int, int]


_EMPTY_TIMING = TimingAnalysis(
    bounds=CycleInterval(0, 0),
    block_costs=(),
    access_latencies={},
    min_to_exit={},
)

_TRIVIAL_TIMING = TimingAnalysis(
    bounds=CycleInterval(0, None),
    block_costs=(),
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
    """Per-block abstract hierarchy in-states (forward, join meet).

    In-states only ascend (each update joins into the previous state), and
    the domain over the finite universe of resolved block addresses has
    finite height, so the worklist terminates without widening.
    """
    reachable = set(cfg.reachable)
    in_states: dict[int, HierarchyState] = {0: HierarchyState(hierarchy)}
    worklist = [0]
    while worklist:
        index = worklist.pop(0)
        state = in_states[index].copy()
        block = cfg.blocks[index]
        for i in block.instruction_indices():
            _cache_effect(state, decoded[i][0], resolved.get(i))
        for successor in block.successors:
            if successor == EXIT or successor not in reachable:
                continue
            existing = in_states.get(successor)
            if existing is None:
                in_states[successor] = state.copy()
            else:
                joined = existing.join(state)
                if joined == existing:
                    continue
                in_states[successor] = joined
            if successor not in worklist:
                worklist.append(successor)
    return in_states


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
    decoded: Decoded,
    cfg: ControlFlowGraph,
    core: CoreConfig | None = None,
    hierarchy: HierarchyConfig | None = None,
) -> TimingAnalysis:
    """Abstract cache + cycle-interval analysis over a built CFG."""
    from repro.analysis.dataflow import constant_addresses

    config = core or CoreConfig()
    if config.speculative_execution:
        # Transient windows re-order and replay work invisibly to the
        # architectural CFG; no non-trivial static bound is sound.
        return _TRIVIAL_TIMING
    if not cfg.blocks:
        return _EMPTY_TIMING
    hconfig = hierarchy or HierarchyConfig()
    resolved = constant_addresses(decoded, cfg)
    in_states = _timing_fixpoint(decoded, cfg, resolved, hconfig)

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
        block_costs=tuple(
            (cost_lo.get(b.index, 0), cost_hi.get(b.index, 0))
            for b in cfg.blocks
        ),
        access_latencies=access_latencies,
        min_to_exit=min_exit,
    )


def cycle_bounds(
    program: Any,
    core: CoreConfig | None = None,
    hierarchy: HierarchyConfig | None = None,
) -> TimingAnalysis:
    """Convenience wrapper: timing analysis of a finalized Program."""
    decoded = tuple(program.decoded)
    return analyze_timing(decoded, build_cfg(decoded), core, hierarchy)


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


# -- exact walk (timing_map / cache distinguishers) -----------------------------


@dataclass
class _WalkOutcome:
    """Result of one concrete-secret program walk."""

    lo: int
    hi: int | None
    #: ``(instruction index, observable)`` at each watched access, in
    #: execution order.
    snapshots: list[tuple[int, tuple[Any, ...]]]
    #: Hierarchy state at halt (``None`` when the walk gave up).
    final: HierarchyState | None

    @property
    def interval(self) -> CycleInterval:
        return CycleInterval(self.lo, self.hi)


def _initial_memory(
    program: Any, bindings: Mapping[int, int]
) -> dict[int, int | None]:
    """Word store at t=0: data segments overlaid with the secret bindings.

    Mirrors :meth:`repro.mem.memory.MainMemory.load_program_data` plus the
    snapshot-replay path's per-trial secret poke.
    """
    memory: dict[int, int | None] = {}
    for segment in program.data_segments:
        for offset, value in enumerate(segment.values):
            memory[segment.base + offset * segment.stride] = value & WORD_MASK
    for address, value in bindings.items():
        memory[address] = value & WORD_MASK
    return memory


def _fused_iterations(
    decoded: Decoded, index: int, regs: Mapping[int, int]
) -> int:
    """Iterations countdown-loop fusion skips after a taken branch.

    Called after the branch at ``index`` jumped back to ``index - 1``, by
    both this module's walk and the scenario product walk.  Mirrors
    :meth:`repro.cpu.core.Core._fuse_countdown`: when the branch is
    ``bne rX, zero`` and the instruction it jumps to is exactly
    ``sub rX, rX, 1`` with ``rX`` known, every iteration but the exiting
    one is skipped; the caller sets ``rX`` to 1 and charges
    ``base_cost + branch_cost`` per skipped iteration.  Returns 0 when the
    loop does not qualify.
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


def _walk(
    decoded: Decoded,
    memory: dict[int, int | None],
    config: CoreConfig,
    hconfig: HierarchyConfig,
    watch: frozenset[int],
    max_steps: int,
) -> _WalkOutcome:
    """Execute ``decoded`` with exact register/memory/time state.

    Mirrors :class:`repro.cpu.core.Core`'s non-speculative semantics
    instruction for instruction — including ``rdcycle`` reading the
    current cycle, the serialising flag, and countdown-loop fusion — but
    carries the *abstract* hierarchy, so an access that cannot be resolved
    widens the time interval instead of crashing the walk.  Gives up
    (``hi=None``) on a branch over unknown values, a PC escape, or step
    exhaustion.
    """
    state: dict[int, int] = {ZERO_REGISTER: 0}
    hierarchy = HierarchyState(hconfig)
    snapshots: list[tuple[int, tuple[Any, ...]]] = []
    time_lo = 0
    time_hi = 0
    serialized = False
    memory_clobbered = False
    base = config.base_cost
    branch_cost = config.branch_cost
    mul_cost = config.mul_cost
    fuse = config.fuse_countdown_loops and not config.speculative_execution
    n = len(decoded)
    pc = 0

    def reg(index: int) -> int | None:
        return 0 if index == ZERO_REGISTER else state.get(index)

    for _ in range(max_steps):
        if not 0 <= pc < n:
            return _WalkOutcome(time_lo, None, snapshots, None)
        tup = decoded[pc]
        kind = tup[0]
        if kind == K_LOAD:
            _, rd, rs0, imm, _pc = tup
            bval = reg(rs0)
            addr = None if bval is None else (bval + imm) & WORD_MASK
            interval = hierarchy.load(0, addr)
            lo, hi = _charged(interval, config, serialized)
            serialized = False
            time_lo += lo
            time_hi += hi
            if rd != ZERO_REGISTER:
                value = (
                    None
                    if addr is None or memory_clobbered
                    else memory.get(addr, 0)
                )
                if value is None:
                    state.pop(rd, None)
                else:
                    state[rd] = value & WORD_MASK
            if pc in watch:
                snapshots.append((pc, hierarchy.observable(0)))
            pc += 1
        elif kind == K_STORE:
            _, rs0, rs1, imm, _pc = tup
            bval = reg(rs1)
            addr = None if bval is None else (bval + imm) & WORD_MASK
            interval = hierarchy.store(0, addr)
            time_lo += interval.lo
            time_hi += interval.hi
            if addr is None:
                memory_clobbered = True
            else:
                memory[addr] = reg(rs0)
            if pc in watch:
                snapshots.append((pc, hierarchy.observable(0)))
            pc += 1
        elif kind == K_CLFLUSH:
            _, rs0, imm = tup
            bval = reg(rs0)
            addr = None if bval is None else (bval + imm) & WORD_MASK
            interval = hierarchy.flush(0, addr)
            time_lo += interval.lo
            time_hi += interval.hi
            if pc in watch:
                snapshots.append((pc, hierarchy.observable(0)))
            pc += 1
        elif kind == K_PREFETCH:
            _, rs0, imm, _write = tup
            bval = reg(rs0)
            addr = None if bval is None else (bval + imm) & WORD_MASK
            interval = hierarchy.prefetch(0, addr, may_drop=True)
            lo, hi = _charged(interval, config, serialized)
            serialized = False
            time_lo += lo
            time_hi += hi
            if pc in watch:
                snapshots.append((pc, hierarchy.observable(0)))
            pc += 1
        elif kind == K_BRANCH:
            _, cond, rs0, rs1, target = tup
            a = reg(rs0)
            b = reg(rs1)
            if (
                a is None
                or b is None
                or not isinstance(target, int)
                or not 0 <= target < n
            ):
                return _WalkOutcome(time_lo, None, snapshots, None)
            taken = _branch_taken(cond, a, b)
            time_lo += branch_cost
            time_hi += branch_cost
            index = pc
            pc = target if taken else pc + 1
            if fuse and taken and target == index - 1:
                skipped = _fused_iterations(decoded, index, state)
                if skipped:
                    state[rs0] = 1
                    jump = skipped * (base + branch_cost)
                    time_lo += jump
                    time_hi += jump
        elif kind == K_JMP:
            target = tup[1]
            if not isinstance(target, int) or not 0 <= target < n:
                return _WalkOutcome(time_lo, None, snapshots, None)
            time_lo += branch_cost
            time_hi += branch_cost
            pc = target
        elif kind == K_RDCYCLE:
            rd = tup[1]
            if rd != ZERO_REGISTER:
                if time_lo == time_hi:
                    state[rd] = time_lo & WORD_MASK
                else:
                    state.pop(rd, None)
            serialized = True
            time_lo += base
            time_hi += base
            pc += 1
        elif kind == K_FENCE:
            serialized = True
            time_lo += base
            time_hi += base
            pc += 1
        elif kind == K_HALT:
            time_lo += base
            time_hi += base
            return _WalkOutcome(time_lo, time_hi, snapshots, hierarchy)
        else:
            _transfer(state, tup)
            cost = mul_cost if kind in MUL_KINDS else base
            time_lo += cost
            time_hi += cost
            pc += 1
    return _WalkOutcome(time_lo, None, snapshots, None)


def _secret_bindings(program: Any, secret: int) -> dict[int, int]:
    return {
        address: secret & WORD_MASK
        for address in sorted(program.taint_sources)
    }


def timing_map(
    program: Any,
    secret: int,
    hierarchy: HierarchyConfig | None = None,
    core: CoreConfig | None = None,
    *,
    max_steps: int = DEFAULT_WALK_STEPS,
) -> CycleInterval:
    """Cycle interval of ``program`` when its declared secrets equal ``secret``.

    The analog of :func:`~repro.analysis.taint.leak_map`: every declared
    taint-source cell is bound to ``secret`` (overriding the data-segment
    value, exactly as snapshot replay pokes trial secrets into a warm
    image) and the program is walked concretely.  When every branch and
    address resolves, the abstract hierarchy tracks the simulator's LRU
    exactly and the result is a point interval equal to the undefended
    run's ``RunResult.cycles``; an unresolved step returns ``hi=None``
    with a sound lower bound instead.
    """
    config = core or CoreConfig()
    if config.speculative_execution:
        return CycleInterval(0, None)
    decoded = tuple(program.decoded)
    if not decoded:
        return CycleInterval(0, 0)
    memory = _initial_memory(program, _secret_bindings(program, secret))
    outcome = _walk(
        decoded,
        memory,
        config,
        hierarchy or HierarchyConfig(),
        frozenset(),
        max_steps,
    )
    return outcome.interval


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


def _walk_observable(
    program: Any,
    secret: int,
    watch: frozenset[int],
    config: CoreConfig,
    hconfig: HierarchyConfig,
    max_steps: int,
) -> tuple[int | None, tuple[Any, ...]] | None:
    decoded = tuple(program.decoded)
    memory = _initial_memory(program, _secret_bindings(program, secret))
    outcome = _walk(decoded, memory, config, hconfig, watch, max_steps)
    if outcome.snapshots:
        return outcome.snapshots[-1]
    if outcome.final is not None:
        return (None, outcome.final.observable(0))
    return None


def cache_distinguishers(
    program: Any,
    secrets: Sequence[int] = (0, 1, 2, 3),
    hierarchy: HierarchyConfig | None = None,
    core: CoreConfig | None = None,
    *,
    max_steps: int = DEFAULT_WALK_STEPS,
) -> DistinguisherReport:
    """Compare attacker-observable cache residency across concrete secrets.

    The observable is the attacker's side of the channel: the must/may
    block sets of both levels, sampled right after the victim's last
    secret-addressed access executes (a taint-clean program falls back to
    the halt state, where a genuinely constant-time program converges for
    every secret).  Two secrets with different observables mean a shared
    cache level distinguishes them — the AN-CACHE-DISTINGUISH verdict.
    """
    secret_tuple = tuple(dict.fromkeys(secrets))
    config = core or CoreConfig()
    if config.speculative_execution or len(secret_tuple) < 2:
        return DistinguisherReport(
            secrets=secret_tuple,
            distinguishable=False,
            witness=None,
            index=None,
            detail="not evaluated (needs >= 2 secrets, non-speculative core)",
        )
    taint = taint_of_program(program)
    watch = frozenset(taint.secret_addressed())
    hconfig = hierarchy or HierarchyConfig()
    observed: list[tuple[int, tuple[int | None, tuple[Any, ...]]]] = []
    for secret in secret_tuple:
        observable = _walk_observable(
            program, secret, watch, config, hconfig, max_steps
        )
        if observable is None:
            return DistinguisherReport(
                secrets=secret_tuple,
                distinguishable=False,
                witness=None,
                index=None,
                detail=f"walk for secret {secret} did not resolve",
            )
        observed.append((secret, observable))
    first_secret, (first_index, first_state) = observed[0]
    for secret, (index, observable) in observed[1:]:
        if observable != first_state or index != first_index:
            return DistinguisherReport(
                secrets=secret_tuple,
                distinguishable=True,
                witness=(first_secret, secret),
                index=first_index if first_index is not None else index,
                detail=(
                    f"secrets {first_secret} and {secret} leave different "
                    "must/may residency in a shared cache level"
                ),
            )
    return DistinguisherReport(
        secrets=secret_tuple,
        distinguishable=False,
        witness=None,
        index=None,
        detail=(
            f"all {len(secret_tuple)} secrets converge to one "
            "attacker-observable residency state"
        ),
    )


def trial_intervals(
    program: Any,
    secrets: Sequence[int],
    hierarchy: HierarchyConfig | None = None,
    core: CoreConfig | None = None,
    *,
    max_steps: int = DEFAULT_WALK_STEPS,
) -> dict[int, CycleInterval]:
    """:func:`timing_map` over a secret set (the CLI's per-secret table)."""
    return {
        secret: timing_map(
            program, secret, hierarchy, core, max_steps=max_steps
        )
        for secret in dict.fromkeys(secrets)
    }
