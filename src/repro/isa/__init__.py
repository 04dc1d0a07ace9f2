"""A small RISC-like ISA: registers, instructions, assembler and builder.

The ISA is deliberately minimal but covers everything PREFENDER's Scale
Tracker cares about (Table III of the paper): immediate loads, register
moves, add/sub, mul, shifts, "other" ALU ops, memory loads/stores, cacheline
flush, cycle-counter reads and control flow.
"""

from repro.isa.instructions import ALU_OPS, BRANCH_OPS, Instruction
from repro.isa.program import DataSegment, Program
from repro.isa.assembler import assemble
from repro.isa.builder import ProgramBuilder
from repro.isa.registers import (
    NUM_REGISTERS,
    REGISTER_ALIASES,
    RegisterFile,
    register_index,
    register_name,
)

__all__ = [
    "ALU_OPS",
    "BRANCH_OPS",
    "DataSegment",
    "Instruction",
    "Program",
    "ProgramBuilder",
    "assemble",
    "NUM_REGISTERS",
    "REGISTER_ALIASES",
    "RegisterFile",
    "register_index",
    "register_name",
]
