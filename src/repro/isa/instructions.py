"""Instruction representation.

A single :class:`Instruction` class with an ``op`` mnemonic covers the whole
ISA; the timing core dispatches on ``op``.  Field meaning by opcode:

===========  =======================================================
``li``       ``rd`` <- ``imm``
``mov``      ``rd`` <- ``rs0``
``add/sub``  ``rd`` <- ``rs0`` (+/-) (``rs1`` or ``imm``)
``mul``      ``rd`` <- ``rs0`` * (``rs1`` or ``imm``)
``sll/srl``  ``rd`` <- ``rs0`` shifted by (``rs1`` or ``imm``)
``and/or/``  ``rd`` <- bitwise op of ``rs0`` and (``rs1`` or ``imm``);
``xor``      these are Table III's "Otherwise" rule for the Scale Tracker
``load``     ``rd`` <- MEM[``rs0`` + ``imm``]
``store``    MEM[``rs1`` + ``imm``] <- ``rs0``
``clflush``  flush the cacheline containing ``rs0`` + ``imm``
``prefetch`` non-faulting read prefetch of the line at ``rs0`` + ``imm``
             into this core's L1D; no register is written, but the
             instruction's latency reflects where the line was found
``prefetchw`` prefetch with write intent (x86 ``prefetchw``): additionally
             takes cross-core ownership, invalidating other cores' L1
             copies of the line
``rdcycle``  ``rd`` <- current cycle count
``beq/bne``  branch to ``target`` when ``rs0`` ==/!= ``rs1``
``blt/bge``  branch to ``target`` on signed </>= comparison
``jmp``      unconditional branch to ``target``
``nop``      no effect (1 cycle)
``fence``    speculation barrier: a transient path stalls here until the
             branch resolves (models lfence/rdtscp serialisation)
``halt``     stop the core
===========  =======================================================

``target`` holds a label string after parsing and an instruction index after
:meth:`repro.isa.program.Program.finalize`.
"""

from __future__ import annotations

from repro.isa.registers import register_name

ALU_OPS = frozenset({"add", "sub", "mul", "sll", "srl", "and", "or", "xor"})
BRANCH_OPS = frozenset({"beq", "bne", "blt", "bge"})
PREFETCH_OPS = frozenset({"prefetch", "prefetchw"})
MEMORY_OPS = frozenset({"load", "store", "clflush"}) | PREFETCH_OPS
ALL_OPS = (
    ALU_OPS
    | BRANCH_OPS
    | MEMORY_OPS
    | frozenset({"li", "mov", "rdcycle", "jmp", "nop", "fence", "halt"})
)


def _reg(index: int | None) -> str:
    """Register name for a field the opcode guarantees is populated."""
    assert index is not None, "register field unset for this opcode"
    return register_name(index)


class Instruction:
    """One decoded instruction; immutable by convention after finalize."""

    __slots__ = ("op", "rd", "rs0", "rs1", "imm", "target")

    def __init__(
        self,
        op: str,
        rd: int | None = None,
        rs0: int | None = None,
        rs1: int | None = None,
        imm: int | None = None,
        target: "str | int | None" = None,
    ) -> None:
        if op not in ALL_OPS:
            raise ValueError(f"unknown opcode: {op!r}")
        self.op = op
        self.rd = rd
        self.rs0 = rs0
        self.rs1 = rs1
        self.imm = imm
        self.target = target

    def is_branch(self) -> bool:
        """True for conditional branches (not ``jmp``)."""
        return self.op in BRANCH_OPS

    def is_memory(self) -> bool:
        """True for instructions that touch the data cache."""
        return self.op in MEMORY_OPS

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Instruction({self.to_text()})"

    def to_text(self, target_label: str | None = None) -> str:
        """Render the instruction back to assembly text.

        ``target_label`` substitutes a label name for a finalized (integer)
        branch target — :meth:`repro.isa.program.Program.to_text` passes
        the label attached at the target index so output re-assembles.
        """
        op = self.op
        if op == "li":
            return f"li {_reg(self.rd)}, {self.imm}"
        if op == "mov":
            return f"mov {_reg(self.rd)}, {_reg(self.rs0)}"
        if op in ALU_OPS:
            second = (
                register_name(self.rs1) if self.rs1 is not None else str(self.imm)
            )
            return f"{op} {_reg(self.rd)}, {_reg(self.rs0)}, {second}"
        if op == "load":
            return f"load {_reg(self.rd)}, {self.imm}({_reg(self.rs0)})"
        if op == "store":
            return f"store {_reg(self.rs0)}, {self.imm}({_reg(self.rs1)})"
        if op in ("clflush", "prefetch", "prefetchw"):
            return f"{op} {self.imm}({_reg(self.rs0)})"
        if op == "rdcycle":
            return f"rdcycle {_reg(self.rd)}"
        if op in BRANCH_OPS:
            shown = target_label if target_label is not None else self.target
            return f"{op} {_reg(self.rs0)}, {_reg(self.rs1)}, {shown}"
        if op == "jmp":
            jmp_shown = target_label if target_label is not None else self.target
            return f"jmp {jmp_shown}"
        return op
