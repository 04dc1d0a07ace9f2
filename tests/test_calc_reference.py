"""Fuzz the register-only instructions against a naive Table III reference.

The core's per-instruction handlers, its compiled blocks and constant
propagation are all generated from one table (``repro.cpu.alu``), so they
share any mistake in it; the block fuzz compares two of them and cannot see
one.  This fuzz checks all three against ``reference_calc``, which reads
``Instruction`` fields and shares no code with the table.

Hypothesis draws straight-line programs over every ALU op in RR and RI
form, ``li``, ``mov``, ``nop`` and loads, with ``r0`` as a source and a
destination, negative and huge immediates, and shifts of 64 and more.  A
fixed preamble first puts registers in every Table III state: fixed values
(some negative) and loaded (NA) values with scales 1, 3, 24 and 128, so
that two NA operands of different scales are common.  Each
program runs on a one-core ``Core`` with compiled blocks off (one handler
call per step) and on.  After every scheduler step, the reference is
advanced to the core's pc, and

* every register value and all 32 ``(fva, sc)`` tracks must equal the
  reference's;
* every register constant propagation (``dataflow._transfer``) knows must
  hold the core's value.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from reference_calc import WORD_MASK, ReferenceMachine

from repro.analysis.dataflow import _transfer
from repro.cpu.core import Core, CoreConfig
from repro.isa.instructions import Instruction
from repro.isa.program import DataSegment, Program
from repro.isa.registers import NUM_REGISTERS, ZERO_REGISTER
from repro.mem.hierarchy import MemoryHierarchy

#: Data words the loads read, and the register that holds their base.
DATA = 0x8000
WORDS = (7, 0x200, WORD_MASK, 1 << 63, 0, 3, 123456789)
BASE = 20

PREAMBLE = (
    Instruction("li", rd=BASE, imm=DATA),
    Instruction("li", rd=1, imm=5),
    Instruction("li", rd=2, imm=-7),
    Instruction("li", rd=3, imm=0x200),
    Instruction("load", rd=4, rs0=BASE, imm=0),  # NA, scale 1
    Instruction("load", rd=5, rs0=BASE, imm=8),
    Instruction("mul", rd=5, rs0=5, imm=24),  # NA, scale 24
    Instruction("load", rd=6, rs0=BASE, imm=16),
    Instruction("sll", rd=6, rs0=6, imm=7),  # NA, scale 128
    Instruction("load", rd=7, rs0=BASE, imm=24),
    Instruction("mul", rd=7, rs0=7, imm=-3),  # NA, scale 3
)

_ALU_OPS = ("add", "sub", "mul", "sll", "srl", "and", "or", "xor")
_IMMS = (
    0, 1, -1, 2, 3, 7, 24, 63, 64, 65, 127, 0x200, 4096, -4096, 1 << 32,
    (1 << 63) - 1, -(1 << 63), WORD_MASK, 1 << 70, -(1 << 70),
)

_reg = st.integers(0, 7)
_alu_op = st.sampled_from(_ALU_OPS)
_imm = st.one_of(st.sampled_from(_IMMS), st.integers(-(1 << 66), 1 << 66))
#: ALU ops, in RR and RI form, are drawn three times as often as each other
#: kind: every Table III case needs one, and most need two particular
#: registers as its operands.
_instruction = st.sampled_from(
    [
        *[st.builds(Instruction, _alu_op, rd=_reg, rs0=_reg, rs1=_reg)] * 3,
        *[st.builds(Instruction, _alu_op, rd=_reg, rs0=_reg, imm=_imm)] * 3,
        st.builds(Instruction, st.just("li"), rd=_reg, imm=_imm),
        st.builds(Instruction, st.just("mov"), rd=_reg, rs0=_reg),
        st.builds(Instruction, st.just("nop")),
        st.builds(
            Instruction,
            st.just("load"),
            rd=_reg,
            rs0=st.just(BASE),
            imm=st.sampled_from(range(0, 8 * len(WORDS), 8)),
        ),
    ]
).flatmap(lambda strategy: strategy)


def _core_state(core):
    return (
        [core.regs.read(reg) for reg in range(NUM_REGISTERS)],
        [(core.calc.fva_of(reg), core.calc.scale_of(reg)) for reg in range(NUM_REGISTERS)],
    )


def _check(program, blocks):
    hierarchy = MemoryHierarchy(num_cores=1)
    hierarchy.memory.load_program_data(program)
    core = Core(0, program, hierarchy, CoreConfig(fuse_countdown_loops=blocks))
    memory = {DATA + 8 * i: word & WORD_MASK for i, word in enumerate(WORDS)}
    reference = ReferenceMachine(memory, scale_cap=hierarchy.amap.page_size)
    constants = {ZERO_REGISTER: 0}
    pc = 0
    while not core.halted:
        core.step()
        while pc < core.pc_index:
            reference.execute(program.instructions[pc])
            _transfer(constants, program.decoded[pc])
            pc += 1
        values, tracks = _core_state(core)
        where = f"after instruction {pc - 1} with blocks {'on' if blocks else 'off'}"
        assert values == reference.regs, where
        assert tracks == list(zip(reference.calc.fva, reference.calc.sc)), where
        for reg, value in constants.items():
            assert values[reg] == value, (where, reg)
    assert pc == len(program.instructions) - 1  # everything but the halt ran


@settings(max_examples=400, deadline=None)
@given(st.lists(_instruction, min_size=1, max_size=24))
def test_core_matches_reference(body):
    program = Program(
        instructions=[*PREAMBLE, *body, Instruction("halt")],
        data_segments=[DataSegment(DATA, WORDS)],
    )
    for blocks in (False, True):
        _check(program, blocks)
