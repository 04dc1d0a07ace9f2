"""Register dataflow over a decoded program's CFG.

Three classic analyses, all operating on the dispatch tuples directly so
their view of register reads/writes matches the timing core's handlers:

* **must-defined** (forward, intersection) — drives the use-before-def
  rule: a register read is flagged when *some* path from entry reaches it
  without a prior write.  ``r0`` is hard-wired zero and always defined.
* **liveness** (backward, union) — per-block live-in/live-out register
  sets, exported for the ROADMAP's closure-compiled step functions (a
  dead register's Table III track never needs materialising).
* **constant propagation** (forward, agree-or-drop meet) — resolves
  ``li``/``add``/``mul`` chains to concrete values with the value
  expressions the core runs (one compiled function per ALU kind in
  :mod:`repro.cpu.alu`, so the 64-bit masking is the core's own); the
  footprint analysis reads the per-access resolved addresses it produces.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.cfg import EXIT, ControlFlowGraph
from repro.cpu.alu import REGISTER_OPS, VALUES
from repro.isa.decode import (
    K_BRANCH,
    K_CLFLUSH,
    K_LOAD,
    K_PREFETCH,
    K_RDCYCLE,
    K_STORE,
)
from repro.isa.registers import NUM_REGISTERS, WORD_MASK, ZERO_REGISTER

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
    if not cfg.blocks:
        return ()
    reachable = set(cfg.reachable)
    preds = cfg.predecessors()
    universe = frozenset(range(NUM_REGISTERS))
    entry_in = frozenset({ZERO_REGISTER})

    gen: dict[int, frozenset[int]] = {}
    for block in cfg.blocks:
        defined: set[int] = set()
        for i in block.instruction_indices():
            _, written = uses_and_def(decoded[i])
            if written is not None:
                defined.add(written)
        gen[block.index] = frozenset(defined)

    out_sets = {block.index: universe for block in cfg.blocks}
    out_sets[0] = entry_in | gen[0]
    changed = True
    while changed:
        changed = False
        for index in cfg.reachable:
            if index == 0:
                in_set = entry_in
            else:
                incoming = [
                    out_sets[p] for p in preds[index] if p in reachable
                ]
                in_set = (
                    frozenset.intersection(*incoming) if incoming else universe
                )
            new_out = in_set | gen[index]
            if new_out != out_sets[index]:
                out_sets[index] = new_out
                changed = True

    findings: list[tuple[int, int]] = []
    for index in cfg.reachable:
        block = cfg.blocks[index]
        if index == 0:
            defined = set(entry_in)
        else:
            incoming = [out_sets[p] for p in preds[index] if p in reachable]
            defined = (
                set(frozenset.intersection(*incoming)) if incoming
                else set(universe)
            )
        for i in block.instruction_indices():
            reads, written = uses_and_def(decoded[i])
            for register in reads:
                if register not in defined:
                    findings.append((i, register))
            if written is not None:
                defined.add(written)
    return tuple(findings)


def liveness(
    decoded: tuple[tuple[Any, ...], ...], cfg: ControlFlowGraph
) -> tuple[tuple[frozenset[int], frozenset[int]], ...]:
    """Per-block ``(live_in, live_out)`` register sets, in block order.

    ``r0`` is never live: reading it yields the constant zero, so no
    definition is ever awaited.
    """
    if not cfg.blocks:
        return ()
    use: dict[int, frozenset[int]] = {}
    defs: dict[int, frozenset[int]] = {}
    for block in cfg.blocks:
        block_use: set[int] = set()
        block_def: set[int] = set()
        for i in block.instruction_indices():
            reads, written = uses_and_def(decoded[i])
            for register in reads:
                if register != ZERO_REGISTER and register not in block_def:
                    block_use.add(register)
            if written is not None and written != ZERO_REGISTER:
                block_def.add(written)
        use[block.index] = frozenset(block_use)
        defs[block.index] = frozenset(block_def)

    live_in: dict[int, frozenset[int]] = {
        block.index: frozenset() for block in cfg.blocks
    }
    live_out: dict[int, frozenset[int]] = {
        block.index: frozenset() for block in cfg.blocks
    }
    changed = True
    while changed:
        changed = False
        for block in reversed(cfg.blocks):
            index = block.index
            out: frozenset[int] = frozenset()
            for successor in block.successors:
                if successor != EXIT:
                    out |= live_in[successor]
            new_in = use[index] | (out - defs[index])
            if out != live_out[index] or new_in != live_in[index]:
                live_out[index] = out
                live_in[index] = new_in
                changed = True
    return tuple(
        (live_in[block.index], live_out[block.index]) for block in cfg.blocks
    )


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


def constant_addresses(
    decoded: tuple[tuple[Any, ...], ...], cfg: ControlFlowGraph
) -> dict[int, int]:
    """``instruction index -> resolved byte address`` for memory accesses.

    Runs constant propagation to fixpoint, then evaluates the effective
    address ``base + imm`` of every load/store/clflush/prefetch whose base
    register is a known constant at that instruction.
    """
    if not cfg.blocks:
        return {}
    reachable = set(cfg.reachable)
    preds = cfg.predecessors()
    in_states: dict[int, dict[int, int] | None] = {
        block.index: None for block in cfg.blocks
    }
    in_states[0] = {ZERO_REGISTER: 0}
    worklist = [0]
    while worklist:
        index = worklist.pop(0)
        state = dict(in_states[index] or {})
        block = cfg.blocks[index]
        for i in block.instruction_indices():
            _transfer(state, decoded[i])
        for successor in block.successors:
            if successor == EXIT or successor not in reachable:
                continue
            existing = in_states[successor]
            merged = dict(state) if existing is None else _meet(existing, state)
            if merged != existing:
                in_states[successor] = merged
                if successor not in worklist:
                    worklist.append(successor)

    resolved: dict[int, int] = {}
    for index in cfg.reachable:
        block = cfg.blocks[index]
        state = dict(in_states[index] or {})
        for i in block.instruction_indices():
            tup = decoded[i]
            kind = tup[0]
            base_imm: tuple[int, int] | None = None
            if kind == K_LOAD:
                base_imm = (tup[2], tup[3])
            elif kind == K_STORE:
                base_imm = (tup[2], tup[3])
            elif kind in (K_CLFLUSH, K_PREFETCH):
                base_imm = (tup[1], tup[2])
            if base_imm is not None:
                base, imm = base_imm
                value = 0 if base == ZERO_REGISTER else state.get(base)
                if value is not None:
                    resolved[i] = (value + imm) & WORD_MASK
            _transfer(state, tup)
    return resolved
