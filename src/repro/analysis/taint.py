"""Secret-taint dataflow and the static leak map.

PREFENDER's premise is that a handful of loads are secret-dependent table
lookups and everything else is noise.  This pass proves *which* accesses
those are, statically, from the same decode tuples the timing core
executes:

* **taint propagation** (forward, union meet) — taint seeds at loads
  whose :func:`~repro.analysis.dataflow.constant_addresses`-resolved
  address is a declared secret cell (``.secret`` directive /
  :meth:`repro.isa.program.Program.taint_source`), then flows through the
  ALU/mov/shift handler kinds exactly as constant propagation mirrors the
  core's masking.  Stores of tainted values to resolved addresses taint
  those memory cells too (an outer fixpoint), so a spilled secret stays
  tracked.
* **classification** — every reachable ``load``/``store``/``prefetch``/
  ``clflush`` is *secret-addressed* (its address register is tainted:
  the access pattern leaks), *secret-valued* (the data moved is
  secret-derived but the address is fixed), or *clean*; plus
  secret-dependent branches (``K_BRANCH`` on a tainted register) — a
  control-flow channel the dynamic scenario suite cannot see directly.
* **leak maps** (:func:`leak_maps`) — for each secret, bind the declared
  secret cells to that value and re-run constant propagation with
  *feasible edges only* (branches whose operands are known constants
  propagate down one side) over the program's one CFG, then read off
  which probe-array indices the resolved accesses touch, with the address
  walk :func:`~repro.analysis.dataflow.constant_addresses` also reads
  (:func:`~repro.analysis.dataflow.resolve_addresses`).
  ``tests/test_taint_oracle.py`` locks this map against
  :meth:`~repro.workloads.crypto.CryptoVictim.expected_indices` and the
  dynamic mutual-information scorer, both ways.

Both fixpoints, taint and the leak map's constants, run on the analyzer's
one solver, :func:`repro.analysis.cfg.forward`.

Deliberate scope limits (guarded by the differential oracle):

* A load whose address never resolves is treated as *clean* unless its
  address register is tainted: in this codebase the unresolved loads are
  the attacker's own register-resident probe sweeps.  The transient
  Spectre read (``array1[oob]``) is therefore out of scope — it leaks
  through a misprediction window the architectural CFG does not model.
* Taint-source matching is exact (word addresses), like the data
  segments that write the secrets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Mapping

from repro.analysis.cfg import (
    EXIT,
    BasicBlock,
    ControlFlowGraph,
    build_cfg,
    forward,
)
from repro.analysis.dataflow import (
    _transfer,
    constant_addresses,
    resolve_addresses,
    uses_and_def,
)
from repro.isa.decode import (
    K_BRANCH,
    K_CLFLUSH,
    K_LI,
    K_LOAD,
    K_PREFETCH,
    K_RDCYCLE,
    K_STORE,
)
from repro.isa.registers import WORD_MASK, ZERO_REGISTER

Decoded = tuple[tuple[Any, ...], ...]

#: The canonical scenario layout's secret cell
#: (``repro.attacks.layout.AttackLayout.secret_addr``).  Hard-coded rather
#: than imported so the analysis layer stays independent of the attacks
#: package; ``tests/test_taint.py`` pins it against the real layout.
KNOWN_SECRET_ADDRS: frozenset[int] = frozenset({0x0300_2100})

#: Classification labels (stable — CLI JSON output uses them).
SECRET_ADDRESSED = "secret-addressed"
SECRET_VALUED = "secret-valued"
CLEAN = "clean"

_SIGN_BIT = 1 << 63
_TWO_POW_64 = 1 << 64

_ACCESS_KIND_NAMES = {
    K_LOAD: "load",
    K_STORE: "store",
    K_PREFETCH: "prefetch",
    K_CLFLUSH: "clflush",
}


@dataclass(frozen=True)
class AccessTaint:
    """Taint verdict for one memory access.

    ``addressed`` — the effective address depends on a secret (the access
    *pattern* leaks; this is what a cache side channel observes).
    ``valued`` — the data moved is secret-derived (a load of the secret
    itself, or a store spilling a tainted register).
    """

    index: int
    kind: str
    addressed: bool
    valued: bool

    @property
    def classification(self) -> str:
        if self.addressed:
            return SECRET_ADDRESSED
        if self.valued:
            return SECRET_VALUED
        return CLEAN


@dataclass(frozen=True)
class TaintAnalysis:
    """Everything the taint pass knows about one decoded program."""

    #: Loads that read a declared secret cell (the taint seeds).
    sources: tuple[int, ...]
    #: Every reachable memory access, in program order.
    accesses: tuple[AccessTaint, ...]
    #: ``K_BRANCH`` instructions conditioned on a tainted register.
    branches: tuple[int, ...]
    #: Loads that read a well-known secret cell *without* a declaration.
    undeclared: tuple[int, ...]
    #: Memory cells holding secret-derived values via resolved stores.
    tainted_memory: tuple[int, ...]

    def secret_addressed(self) -> tuple[int, ...]:
        return tuple(a.index for a in self.accesses if a.addressed)

    def secret_valued(self) -> tuple[int, ...]:
        return tuple(
            a.index for a in self.accesses if a.valued and not a.addressed
        )

    def classification(self, index: int) -> str:
        for access in self.accesses:
            if access.index == index:
                return access.classification
        return CLEAN

    @property
    def leaks(self) -> bool:
        """Whether any access pattern or branch depends on a secret."""
        return bool(self.secret_addressed() or self.branches)


# -- taint propagation ----------------------------------------------------------


def _value_tainted(
    index: int,
    tup: tuple[Any, ...],
    tainted: set[int],
    resolved: Mapping[int, int],
    hot_cells: frozenset[int],
) -> bool:
    """Whether the value a load at ``index`` produces is secret-derived."""
    address = resolved.get(index)
    if address is not None and address in hot_cells:
        return True
    base = tup[2]
    return base != ZERO_REGISTER and base in tainted


def _taint_step(
    tainted: set[int],
    index: int,
    tup: tuple[Any, ...],
    resolved: Mapping[int, int],
    hot_cells: frozenset[int],
) -> None:
    """Apply one instruction to the tainted-register set, in place."""
    kind = tup[0]
    if kind == K_LOAD:
        written = tup[1]
        if written == ZERO_REGISTER:
            return
        if _value_tainted(index, tup, tainted, resolved, hot_cells):
            tainted.add(written)
        else:
            tainted.discard(written)
        return
    reads, written = uses_and_def(tup)
    if written is None or written == ZERO_REGISTER:
        return
    if kind in (K_LI, K_RDCYCLE):
        tainted.discard(written)
        return
    if any(r != ZERO_REGISTER and r in tainted for r in reads):
        tainted.add(written)
    else:
        tainted.discard(written)


def _taint_fixpoint(
    decoded: Decoded,
    cfg: ControlFlowGraph,
    resolved: Mapping[int, int],
    hot_cells: frozenset[int],
) -> dict[int, frozenset[int]]:
    """Per-block tainted-register in-sets (forward, union join)."""

    def through(block: BasicBlock, taints: frozenset[int]) -> frozenset[int]:
        tainted = set(taints)
        for i in block.instruction_indices():
            _taint_step(tainted, i, decoded[i], resolved, hot_cells)
        return frozenset(tainted)

    clean: frozenset[int] = frozenset()
    return forward(cfg, clean, through, lambda a, b: a | b)


def taint_analysis(
    decoded: Decoded,
    cfg: ControlFlowGraph,
    resolved: Mapping[int, int],
    taint_sources: frozenset[int],
) -> TaintAnalysis:
    """Classify every reachable access and branch of ``decoded``.

    ``resolved`` is :func:`~repro.analysis.dataflow.constant_addresses`
    over ``decoded`` and ``cfg``.  ``taint_sources`` are the declared
    secret byte addresses; the pass also reports loads hitting
    :data:`KNOWN_SECRET_ADDRS` cells that were *not* declared (the
    ``AN-SECRET-UNDECLARED`` rule's substrate).
    """
    if not cfg.blocks:
        return TaintAnalysis(
            sources=(),
            accesses=(),
            branches=(),
            undeclared=(),
            tainted_memory=(),
        )

    # Outer fixpoint: stores of tainted values to resolved addresses taint
    # those cells, which can seed further loads.  The cell set only grows,
    # so this terminates.
    tainted_memory: set[int] = set()
    while True:
        hot_cells = frozenset(taint_sources) | frozenset(tainted_memory)
        in_taints = _taint_fixpoint(decoded, cfg, resolved, hot_cells)
        new_cells: set[int] = set()
        for block_index in cfg.reachable:
            block = cfg.blocks[block_index]
            tainted = set(in_taints.get(block_index, frozenset()))
            for i in block.instruction_indices():
                tup = decoded[i]
                if tup[0] == K_STORE:
                    source = tup[1]
                    address = resolved.get(i)
                    if (
                        address is not None
                        and source != ZERO_REGISTER
                        and source in tainted
                    ):
                        new_cells.add(address)
                _taint_step(tainted, i, tup, resolved, hot_cells)
        if new_cells <= tainted_memory:
            break
        tainted_memory |= new_cells

    # Final walk: classify accesses and branches with the converged state.
    hot_cells = frozenset(taint_sources) | frozenset(tainted_memory)
    sources: list[int] = []
    accesses: list[AccessTaint] = []
    branches: list[int] = []
    undeclared: list[int] = []
    for block_index in cfg.reachable:
        block = cfg.blocks[block_index]
        tainted = set(in_taints.get(block_index, frozenset()))
        for i in block.instruction_indices():
            tup = decoded[i]
            kind = tup[0]
            if kind == K_LOAD:
                address = resolved.get(i)
                if address is not None and address in taint_sources:
                    sources.append(i)
                if (
                    address is not None
                    and address in KNOWN_SECRET_ADDRS
                    and address not in taint_sources
                ):
                    undeclared.append(i)
                base = tup[2]
                accesses.append(
                    AccessTaint(
                        index=i,
                        kind="load",
                        addressed=base != ZERO_REGISTER and base in tainted,
                        valued=_value_tainted(
                            i, tup, tainted, resolved, hot_cells
                        ),
                    )
                )
            elif kind == K_STORE:
                source, base = tup[1], tup[2]
                accesses.append(
                    AccessTaint(
                        index=i,
                        kind="store",
                        addressed=base != ZERO_REGISTER and base in tainted,
                        valued=source != ZERO_REGISTER and source in tainted,
                    )
                )
            elif kind in (K_PREFETCH, K_CLFLUSH):
                base = tup[1]
                accesses.append(
                    AccessTaint(
                        index=i,
                        kind=_ACCESS_KIND_NAMES[kind],
                        addressed=base != ZERO_REGISTER and base in tainted,
                        valued=False,
                    )
                )
            elif kind == K_BRANCH:
                if any(
                    r != ZERO_REGISTER and r in tainted
                    for r in (tup[2], tup[3])
                ):
                    branches.append(i)
            _taint_step(tainted, i, tup, resolved, hot_cells)
    accesses.sort(key=lambda a: a.index)
    return TaintAnalysis(
        sources=tuple(sorted(sources)),
        accesses=tuple(accesses),
        branches=tuple(sorted(branches)),
        undeclared=tuple(sorted(undeclared)),
        tainted_memory=tuple(sorted(tainted_memory)),
    )


def taint_of_program(program: Any) -> TaintAnalysis:
    """Taint analysis of a finalized Program: a strict build's cached
    one (``program.analysis``), else computed."""
    if program.analysis is not None:
        cached: TaintAnalysis = program.analysis.taint
        return cached
    decoded = tuple(program.decoded)
    cfg = build_cfg(decoded)
    return taint_analysis(
        decoded,
        cfg,
        constant_addresses(decoded, cfg),
        frozenset(program.taint_sources),
    )


# -- leak map -------------------------------------------------------------------


def _branch_taken(cond: int, a: int, b: int) -> bool:
    """Evaluate a branch condition exactly as the core's handler does."""
    if cond == 0:
        return a == b
    if cond == 1:
        return a != b
    if a & _SIGN_BIT:
        a -= _TWO_POW_64
    if b & _SIGN_BIT:
        b -= _TWO_POW_64
    return a < b if cond == 2 else a >= b


def _bound_transfer(
    bindings: Mapping[int, int],
) -> Callable[[dict[int, int], tuple[Any, ...]], None]:
    """Constant-propagation transfer with loads of bound cells resolved."""

    def transfer(state: dict[int, int], tup: tuple[Any, ...]) -> None:
        if tup[0] == K_LOAD and tup[1] != ZERO_REGISTER:
            base = tup[2]
            base_value = 0 if base == ZERO_REGISTER else state.get(base)
            if base_value is not None:
                address = (base_value + tup[3]) & WORD_MASK
                if address in bindings:
                    state[tup[1]] = bindings[address] & WORD_MASK
                    return
        _transfer(state, tup)

    return transfer


def _feasible_successors(
    decoded: Decoded,
    cfg: ControlFlowGraph,
    block: BasicBlock,
    state: Mapping[int, int],
) -> tuple[int, ...]:
    """Block successors, pruned to one side when the branch is decidable."""
    last = decoded[block.end - 1]
    if last[0] != K_BRANCH:
        return block.successors
    rs0, rs1, target = last[2], last[3], last[4]
    a = 0 if rs0 == ZERO_REGISTER else state.get(rs0)
    b = 0 if rs1 == ZERO_REGISTER else state.get(rs1)
    if (
        a is None
        or b is None
        or not isinstance(target, int)
        or not 0 <= target < len(decoded)
    ):
        return block.successors
    if _branch_taken(last[1], a, b):
        chosen = cfg.block_of[target]
    elif block.end < len(decoded):
        chosen = cfg.block_of[block.end]
    else:
        chosen = EXIT
    return tuple(s for s in block.successors if s == chosen)


def leak_maps(
    program: Any,
    secrets: Iterable[int],
    *,
    probe_base: int,
    scale: int,
    num_indices: int,
) -> dict[int, tuple[int, ...]]:
    """Probe-array indices ``program`` touches, for each of ``secrets``.

    For each secret, every declared taint-source cell is bound to it,
    feasible-edge constant propagation runs to fixpoint over the program's
    one CFG (a branch whose operands are known constants propagates down
    one side only, so RSA's multiply lookup drops out exactly when the
    secret skips it), and each resolved reachable ``load``/``store``/
    ``prefetch`` (never a ``clflush``: it evicts a line, it does not touch
    one) landing inside the probe array
    ``[probe_base, probe_base + num_indices*scale)`` contributes the index
    ``(address - probe_base) // scale``.  Attacker sweeps never resolve
    (their index is loop-carried), so each map is exactly the victim's
    secret-dependent footprint — compared against
    :meth:`~repro.workloads.crypto.CryptoVictim.expected_indices` by the
    differential oracle.
    """
    decoded = tuple(program.decoded)
    cfg = build_cfg(decoded)
    feasible = partial(_feasible_successors, decoded, cfg)
    cells = sorted(program.taint_sources)
    span = num_indices * scale
    maps: dict[int, tuple[int, ...]] = {}
    for secret in secrets:
        bindings = dict.fromkeys(cells, secret & WORD_MASK)
        resolved = resolve_addresses(
            decoded, cfg, _bound_transfer(bindings), feasible
        )
        maps[secret] = tuple(
            sorted(
                {
                    (address - probe_base) // scale
                    for i, address in resolved.items()
                    if decoded[i][0] != K_CLFLUSH
                    and probe_base <= address < probe_base + span
                }
            )
        )
    return maps


def leak_map(
    program: Any,
    secret: int,
    *,
    probe_base: int,
    scale: int,
    num_indices: int,
) -> tuple[int, ...]:
    """Probe-array indices ``program`` touches when its secrets equal
    ``secret``: :func:`leak_maps` for one secret."""
    return leak_maps(
        program,
        (secret,),
        probe_base=probe_base,
        scale=scale,
        num_indices=num_indices,
    )[secret]


def secret_leak_union(
    program: Any,
    secret_space: int,
    *,
    probe_base: int,
    scale: int,
    num_indices: int,
) -> tuple[int, ...]:
    """Union of :func:`leak_maps` over every secret in ``[0, secret_space)``.

    The set of probe-array indices *any* secret can reach — the substrate
    of the defense havoc domain (:mod:`repro.analysis.defense`): a guided
    prefetcher that covers a victim's secret-reachable lines must cover
    this union, because its decoy selection may depend on whichever secret
    the victim holds.
    """
    maps = leak_maps(
        program,
        range(max(1, secret_space)),
        probe_base=probe_base,
        scale=scale,
        num_indices=num_indices,
    )
    return tuple(
        sorted({index for indices in maps.values() for index in indices})
    )
