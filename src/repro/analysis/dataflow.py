"""Register dataflow over a decoded program's CFG.

Two forward analyses, both solved by :func:`repro.analysis.cfg.forward`
and both reading the dispatch tuples directly, so their view of register
reads/writes matches the timing core's handlers:

* **must-defined** (intersection join) — drives the use-before-def
  rule: a register read is flagged when *some* path from entry reaches it
  without a prior write.  ``r0`` is hard-wired zero and always defined.
* **constant propagation** (agree-or-drop meet) — resolves
  ``li``/``add``/``mul`` chains to concrete values with the value
  expressions the core runs (one compiled function per ALU kind in
  :mod:`repro.cpu.alu`, so the 64-bit masking is the core's own).
  :func:`resolve_addresses` reads each memory access's address off the
  fixpoint: :func:`constant_addresses` for taint seeding and the abstract
  cache walk, and :func:`repro.analysis.taint.leak_map` under bound
  secrets with infeasible edges pruned.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.analysis.cfg import BasicBlock, ControlFlowGraph, forward
from repro.cpu.alu import REGISTER_OPS, VALUES
from repro.isa.decode import (
    K_BRANCH,
    K_CLFLUSH,
    K_LOAD,
    K_PREFETCH,
    K_RDCYCLE,
    K_STORE,
)
from repro.isa.registers import WORD_MASK, ZERO_REGISTER

#: Operand form (``r`` register, ``i`` immediate) of every register-only
#: kind's decode fields after ``rd``.
_FORMS = {op.kind: op.form for op in REGISTER_OPS}
#: Where those register operands end in the decode tuple: registers come
#: before an immediate.
_READS_END = {kind: 2 + form.count("r") for kind, form in _FORMS.items()}


def uses_and_def(tup: tuple[Any, ...]) -> tuple[tuple[int, ...], int | None]:
    """``(read registers, written register or None)`` for one tuple."""
    kind = tup[0]
    end = _READS_END.get(kind)
    if end is not None:
        return tup[2:end], tup[1]
    if kind == K_LOAD:
        return (tup[2],), tup[1]
    if kind == K_STORE:
        return (tup[1], tup[2]), None
    if kind == K_BRANCH:
        return (tup[2], tup[3]), None
    if kind == K_RDCYCLE:
        return (), tup[1]
    if kind in (K_CLFLUSH, K_PREFETCH):
        return (tup[1],), None
    return (), None  # jmp / nop / fence / halt


def use_before_def(
    decoded: tuple[tuple[Any, ...], ...], cfg: ControlFlowGraph
) -> tuple[tuple[int, int], ...]:
    """``(instruction index, register)`` pairs read while maybe-undefined.

    Must-defined dataflow: a register counts as defined at a read only
    when *every* path from entry writes it first.  Unreachable blocks are
    skipped — they are reported by the dead-code rule instead, and have
    no meaningful incoming state.
    """
    gen: dict[int, frozenset[int]] = {}
    for block in cfg.blocks:
        defined: set[int] = set()
        for i in block.instruction_indices():
            _, written = uses_and_def(decoded[i])
            if written is not None:
                defined.add(written)
        gen[block.index] = frozenset(defined)
    in_sets = forward(
        cfg,
        frozenset({ZERO_REGISTER}),
        lambda block, defined: defined | gen[block.index],
        lambda a, b: a & b,
    )

    findings: list[tuple[int, int]] = []
    for index in cfg.reachable:
        defined = set(in_sets[index])
        for i in cfg.blocks[index].instruction_indices():
            reads, written = uses_and_def(decoded[i])
            for register in reads:
                if register not in defined:
                    findings.append((i, register))
            if written is not None:
                defined.add(written)
    return tuple(findings)


# -- constant propagation -------------------------------------------------------

#: Per-register constant state: mapping register -> known value.  A register
#: absent from the mapping is non-constant.  ``r0`` is always 0.


def _transfer(state: dict[int, int], tup: tuple[Any, ...]) -> None:
    """Apply one instruction to a constant state with the core's arithmetic:
    an ALU kind whose registers are all known evaluates its
    :data:`repro.cpu.alu.VALUES` entry, and ``li``/``mov`` copy theirs."""
    kind = tup[0]
    form = _FORMS.get(kind)
    if form is None:
        # Loads and rdcycle produce runtime values; no other kind writes.
        if (kind == K_LOAD or kind == K_RDCYCLE) and tup[1] != ZERO_REGISTER:
            state.pop(tup[1], None)
        return
    rd = tup[1]
    if rd == ZERO_REGISTER:
        return  # writes to r0 are discarded; it stays 0
    a = tup[2]
    if form != "i":  # only li's operand is an immediate
        a = 0 if a == ZERO_REGISTER else state.get(a)
        if a is None:
            state.pop(rd, None)
            return
    value = VALUES.get(kind)
    if value is None:
        state[rd] = a
        return
    b = tup[3]
    if form == "rr":
        b = 0 if b == ZERO_REGISTER else state.get(b)
        if b is None:
            state.pop(rd, None)
            return
    state[rd] = value(a, b)


def _meet(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Registers constant in both states with the same value."""
    return {
        register: value
        for register, value in a.items()
        if b.get(register) == value
    }


def resolve_addresses(
    decoded: tuple[tuple[Any, ...], ...],
    cfg: ControlFlowGraph,
    transfer: Callable[[dict[int, int], tuple[Any, ...]], None],
    successors: Callable[[BasicBlock, dict[int, int]], Iterable[int]]
    | None = None,
) -> dict[int, int]:
    """``instruction index -> resolved byte address`` for memory accesses.

    Runs constant propagation to fixpoint, applying each tuple with
    ``transfer`` (in place) and pruning edges with ``successors`` as
    :func:`~repro.analysis.cfg.forward` does, then evaluates the effective
    address ``base + imm`` of every load/store/clflush/prefetch in a
    reached block whose base register is a known constant there.
    """

    def through(block: BasicBlock, state: dict[int, int]) -> dict[int, int]:
        state = dict(state)
        for i in block.instruction_indices():
            transfer(state, decoded[i])
        return state

    in_states = forward(cfg, {ZERO_REGISTER: 0}, through, _meet, successors)
    resolved: dict[int, int] = {}
    for index in sorted(in_states):
        state = dict(in_states[index])
        for i in cfg.blocks[index].instruction_indices():
            tup = decoded[i]
            kind = tup[0]
            if kind == K_LOAD or kind == K_STORE:
                base, imm = tup[2], tup[3]
            elif kind == K_CLFLUSH or kind == K_PREFETCH:
                base, imm = tup[1], tup[2]
            else:
                transfer(state, tup)
                continue
            value = 0 if base == ZERO_REGISTER else state.get(base)
            if value is not None:
                resolved[i] = (value + imm) & WORD_MASK
            transfer(state, tup)
    return resolved


def constant_addresses(
    decoded: tuple[tuple[Any, ...], ...], cfg: ControlFlowGraph
) -> dict[int, int]:
    """Every memory access's address that plain constant propagation
    resolves (:func:`resolve_addresses` over every CFG edge)."""
    return resolve_addresses(decoded, cfg, _transfer)
