"""ProgramBuilder and Program container."""

import pytest

from repro.errors import AssemblyError
from repro.isa.builder import ProgramBuilder
from repro.isa.program import DataSegment, Program
from repro.isa.assembler import assemble


def test_builder_emits_and_finalizes():
    builder = ProgramBuilder("t")
    builder.li("r1", 2)
    builder.label("loop")
    builder.sub("r1", "r1", 1)
    builder.bne("r1", "zero", "loop")
    builder.halt()
    program = builder.build()
    assert program.finalized
    assert program.instructions[2].target == 1


def test_builder_all_instructions():
    builder = ProgramBuilder()
    builder.li("r1", 1).mov("r2", "r1")
    builder.add("r3", "r1", "r2").sub("r3", "r3", 1).mul("r3", "r3", 2)
    builder.sll("r4", "r3", 1).srl("r4", "r4", 1)
    builder.and_("r5", "r4", 3).or_("r5", "r5", 1).xor("r5", "r5", "r1")
    builder.load("r6", 0, "r1").store("r6", 8, "r1").clflush(0, "r1")
    builder.rdcycle("r7").fence().nop(2)
    builder.beq("r1", "r2", "end").blt("r1", "r2", "end").bge("r1", "r2", "end")
    builder.label("end")
    builder.jmp("end2")
    builder.label("end2")
    builder.halt()
    program = builder.build()
    ops = [i.op for i in program.instructions]
    assert ops.count("nop") == 2
    assert "fence" in ops and "clflush" in ops


def test_fresh_labels_unique():
    builder = ProgramBuilder()
    labels = {builder.fresh_label("x") for _ in range(10)}
    assert len(labels) == 10


def test_data_and_fill():
    builder = ProgramBuilder()
    builder.data(0x100, [1, 2], stride=8)
    builder.fill(0x200, count=3, value=7, stride=64)
    builder.halt()
    program = builder.build()
    assert program.data_segments[0].values == (1, 2)
    assert program.data_segments[1].values == (7, 7, 7)


def test_instruction_count_property():
    builder = ProgramBuilder()
    builder.nop(5)
    assert builder.instruction_count == 5


def test_program_pc_mapping():
    program = Program(code_base=0x1000)
    assert program.pc_of_index(0) == 0x1000
    assert program.pc_of_index(3) == 0x100C
    assert program.index_of_pc(0x100C) == 3


def test_finalize_is_idempotent():
    program = assemble("halt")
    assert program.finalize() is program


def test_append_after_finalize_rejected():
    program = assemble("halt")
    from repro.isa.instructions import Instruction

    with pytest.raises(AssemblyError):
        program.append(Instruction("nop"))


def test_add_label_after_finalize_rejected():
    # A late label would never be resolved into a branch target.
    program = assemble("halt")
    with pytest.raises(AssemblyError):
        program.add_label("late")
    assert "late" not in program.labels


def test_add_data_after_finalize_rejected():
    # A late segment would be loaded into memory but never analysed.
    program = ProgramBuilder("t").halt().build(strict=True)
    with pytest.raises(AssemblyError):
        program.add_data(DataSegment(base=0x1000, values=(1,)))
    assert program.data_segments == []


def test_allow_after_finalize_rejected():
    # A late suppression would never reach the cached strict analysis.
    program = ProgramBuilder("t").halt().build(strict=True)
    analysis = program.analysis
    with pytest.raises(AssemblyError):
        program.allow("AN-DEAD")
    assert program.suppressions == set()
    assert program.analysis is analysis


def test_taint_source_after_finalize_rejected():
    program = ProgramBuilder("t").halt().build(strict=True)
    with pytest.raises(AssemblyError):
        program.taint_source(0x1000)
    assert program.taint_sources == set()


def test_finalize_rejects_missing_target():
    from repro.isa.instructions import Instruction

    program = Program()
    program.append(Instruction("jmp", target=None))
    with pytest.raises(AssemblyError):
        program.finalize()


def test_to_text_roundtrip():
    source = """
    .name round
    li r1, 10
    loop:
    sub r1, r1, 1
    bne r1, zero, loop
    halt
    """
    program = assemble(source)
    text = program.to_text()
    assert ".name round" in text
    # The disassembly uses resolved integer targets; it still lists all ops.
    assert "sub r1, r1, 1" in text


def test_data_segment_addresses():
    segment = DataSegment(base=0x10, values=(1, 2, 3), stride=4)
    assert segment.addresses() == [0x10, 0x14, 0x18]
