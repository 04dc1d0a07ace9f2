"""Table III rules — the Scale Tracker's core.

Every case runs on three targets (``calc_targets.EveryTarget``): the naive
reference, and a real core with compiled blocks off and on.
"""

import pytest
from calc_targets import EveryTarget

from repro.cpu.core import Core, CoreConfig
from repro.isa.assembler import assemble
from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.config import PrefetcherSpec, SystemConfig
from repro.sim.simulator import run_programs


@pytest.fixture
def calc():
    return EveryTarget()


def test_initial_state(calc):
    assert calc.fva_of(0) == 0 and calc.scale_of(0) == 1  # r0: the constant
    for reg in range(1, 8):
        assert calc.fva_of(reg) is None
        assert calc.scale_of(reg) == 1


def test_load_immediate(calc):
    calc.load_immediate(1, 0x200)
    assert calc.fva_of(1) == 0x200
    assert calc.scale_of(1) == 1


def test_load_from_memory_reinitialises(calc):
    calc.load_immediate(1, 5)
    calc.load_from_memory(1)
    assert calc.fva_of(1) is None
    assert calc.scale_of(1) == 1


# --- addition rules ----------------------------------------------------------

def test_add_imm_to_na_keeps_scale(calc):
    calc.load_from_memory(1)
    calc.alu("mul", 2, 1, imm=0x200)  # sc(r2)=0x200, fva NA
    calc.alu("add", 3, 2, imm=64)
    assert calc.fva_of(3) is None
    assert calc.scale_of(3) == 0x200


def test_add_imm_to_valid_computes_fva(calc):
    calc.load_immediate(1, 100)
    calc.alu("add", 2, 1, imm=28)
    assert calc.fva_of(2) == 128
    assert calc.scale_of(2) == 1


def test_sub_imm_to_valid(calc):
    calc.load_immediate(1, 100)
    calc.alu("sub", 2, 1, imm=30)
    assert calc.fva_of(2) == 70


def test_add_two_valid_registers(calc):
    calc.load_immediate(1, 3)
    calc.load_immediate(2, 4)
    calc.alu("add", 3, 1, rs1=2)
    assert calc.fva_of(3) == 7
    assert calc.scale_of(3) == 1  # canonicalised NA-scale (DESIGN.md)


def test_add_na_plus_valid_takes_na_scale(calc):
    calc.load_from_memory(1)
    calc.alu("mul", 1, 1, imm=0x100)  # sc 0x100
    calc.load_immediate(2, 0x4000)
    calc.alu("add", 3, 1, rs1=2)
    assert calc.fva_of(3) is None
    assert calc.scale_of(3) == 0x100
    # Symmetric case.
    calc.alu("add", 4, 2, rs1=1)
    assert calc.scale_of(4) == 0x100


def test_add_two_na_takes_min_scale(calc):
    calc.load_from_memory(1)
    calc.alu("mul", 1, 1, imm=0x80)
    calc.load_from_memory(2)
    calc.alu("mul", 2, 2, imm=0x20)
    calc.alu("add", 3, 1, rs1=2)
    assert calc.scale_of(3) == 0x20


# --- multiplication / shift rules ---------------------------------------------

def test_mul_na_by_imm_scales(calc):
    calc.load_from_memory(1)
    calc.alu("mul", 2, 1, imm=0x200)
    assert calc.fva_of(2) is None
    assert calc.scale_of(2) == 0x200


def test_mul_valid_by_imm(calc):
    calc.load_immediate(1, 6)
    calc.alu("mul", 2, 1, imm=7)
    assert calc.fva_of(2) == 42
    assert calc.scale_of(2) == 1


def test_mul_two_valid(calc):
    calc.load_immediate(1, 6)
    calc.load_immediate(2, 7)
    calc.alu("mul", 3, 1, rs1=2)
    assert calc.fva_of(3) == 42


def test_mul_na_by_valid_register(calc):
    calc.load_from_memory(1)          # sc 1
    calc.load_immediate(2, 0x200)
    calc.alu("mul", 3, 1, rs1=2)      # sc = sc(r1) * fva(r2)
    assert calc.fva_of(3) is None
    assert calc.scale_of(3) == 0x200


def test_mul_valid_by_na_register(calc):
    calc.load_immediate(1, 0x40)
    calc.load_from_memory(2)
    calc.alu("mul", 2, 2, imm=4)      # sc(r2) = 4
    calc.alu("mul", 3, 1, rs1=2)      # sc = fva(r1) * sc(r2)
    assert calc.scale_of(3) == 0x100


def test_mul_two_na_multiplies_scales(calc):
    calc.load_from_memory(1)
    calc.alu("mul", 1, 1, imm=8)
    calc.load_from_memory(2)
    calc.alu("mul", 2, 2, imm=16)
    calc.alu("mul", 3, 1, rs1=2)
    assert calc.scale_of(3) == 128


def test_sll_shifts_scale(calc):
    calc.load_from_memory(1)
    calc.alu("sll", 2, 1, imm=9)
    assert calc.scale_of(2) == 0x200


def test_srl_shifts_scale_down(calc):
    calc.load_from_memory(1)
    calc.alu("mul", 1, 1, imm=0x400)
    calc.alu("srl", 2, 1, imm=1)
    assert calc.scale_of(2) == 0x200


def test_srl_clamps_to_one(calc):
    calc.load_from_memory(1)
    calc.alu("srl", 2, 1, imm=10)
    assert calc.scale_of(2) == 1


def test_sll_on_valid_fva(calc):
    calc.load_immediate(1, 3)
    calc.alu("sll", 2, 1, imm=4)
    assert calc.fva_of(2) == 48
    assert calc.scale_of(2) == 1


def test_shift_by_unknown_amount_reinitialises(calc):
    calc.load_immediate(1, 8)
    calc.load_from_memory(2)
    calc.alu("sll", 3, 1, rs1=2)
    assert calc.fva_of(3) is None
    assert calc.scale_of(3) == 1


# --- otherwise rule -------------------------------------------------------------

@pytest.mark.parametrize("op", ["and", "or", "xor"])
def test_other_ops_reinitialise(calc, op):
    calc.load_from_memory(1)
    calc.alu("mul", 1, 1, imm=0x200)
    calc.alu(op, 2, 1, imm=0xFF)
    assert calc.fva_of(2) is None
    assert calc.scale_of(2) == 1


def test_move_propagates_na_scale(calc):
    calc.load_from_memory(1)
    calc.alu("mul", 1, 1, imm=0x180)
    calc.move(2, 1)
    assert calc.scale_of(2) == 0x180


def test_move_of_constant(calc):
    calc.load_immediate(1, 55)
    calc.move(2, 1)
    assert calc.fva_of(2) == 55


# --- saturation / paper example ---------------------------------------------------

def test_scale_saturates_at_cap(calc):
    calc.load_from_memory(1)
    for _ in range(20):
        calc.alu("mul", 1, 1, imm=2)
    assert calc.scale_of(1) == 4096


def test_negative_scale_becomes_positive(calc):
    calc.load_from_memory(1)
    calc.alu("mul", 2, 1, imm=-0x200)
    assert calc.scale_of(2) == 0x200


def test_mul_by_zero_clamps_scale(calc):
    calc.load_from_memory(1)
    calc.alu("mul", 2, 1, imm=0)
    assert calc.scale_of(2) == 1


def test_figure5_example(calc):
    """The paper's Fig. 5: array[secret*0x200] with arr base immediate."""
    calc.load_from_memory(6)          # r6: secret's address (from memory)
    calc.load_from_memory(1)          # r1: secret value
    calc.load_immediate(2, 0x8000)    # r2: arr_addr
    calc.load_immediate(3, 0x200)     # r3: 0x200
    calc.alu("mul", 4, 1, rs1=3)      # r4 = secret * 0x200
    assert calc.scale_of(4) == 0x200
    assert calc.fva_of(4) is None
    calc.alu("add", 5, 2, rs1=4)      # r5 = arr + r4
    assert calc.scale_of(5) == 0x200
    assert calc.fva_of(5) is None


def test_reset(calc):
    calc.load_immediate(1, 5)
    calc.reset()
    assert calc.fva_of(1) is None and calc.scale_of(1) == 1
    assert calc.fva_of(0) == 0 and calc.scale_of(0) == 1


# --- r0: hard-wired zero, so its track is the constant -----------------------------

def test_r0_reads_as_a_fixed_zero(calc):
    calc.load_immediate(1, 0x200)
    calc.alu("add", 2, 0, rs1=1)      # r2 = 0 + 0x200 depends on immediates only
    assert calc.fva_of(2) == 0x200
    assert calc.scale_of(2) == 1


def test_writes_to_r0_leave_its_track(calc):
    calc.load_immediate(1, 0x200)
    calc.load_immediate(0, 5)         # discarded: r0 stays 0
    calc.alu("add", 3, 0, rs1=1)
    assert calc.fva_of(3) == 0x200


def test_r0_multiplier_gives_no_scale(calc):
    calc.load_from_memory(4)
    calc.load_immediate(0, 0x200)
    calc.alu("mul", 5, 4, rs1=0)      # r5 = r4 * 0 is 0, whatever r4 is
    assert calc.fva_of(5) is None
    assert calc.scale_of(5) == 1


_R0_PREAMBLE = """
.data 0x2000 stride=8 7
li r1, 0x2000
load r4, 0(r1)
mul r4, r4, 0x200
"""


@pytest.mark.parametrize("blocks", [False, True], ids=["handlers", "blocks"])
@pytest.mark.parametrize(
    "writer",
    [
        "li zero, 0x200",
        "mov zero, r4",
        "add zero, r4, r1",
        "mul zero, r4, 0x40",
        "load zero, 0(r1)",
        "rdcycle zero",
    ],
)
def test_no_instruction_writes_r0(writer, blocks):
    program = assemble(_R0_PREAMBLE + writer + "\nhalt\n")
    hierarchy = MemoryHierarchy(num_cores=1)
    hierarchy.memory.load_program_data(program)
    core = Core(0, program, hierarchy, CoreConfig(fuse_countdown_loops=blocks))
    while not core.halted:
        core.step()
    assert core.regs.read(0) == 0
    assert (core.calc.fva_of(0), core.calc.scale_of(0)) == (0, 1)


@pytest.mark.parametrize("blocks", [False, True], ids=["handlers", "blocks"])
@pytest.mark.parametrize(
    ("multiplier", "decoys"), [("zero", [{}]), ("r7", [{"st": 1}])]
)
def test_r0_multiplier_issues_no_scale_tracker_decoy(multiplier, decoys, blocks):
    """``r5 = r4 * r0`` is 0, so a load based on it has no scale for the
    Scale Tracker.  With the loaded r4 also 0, ``r4 * r7`` is 0 too, but
    scaled by 0x200: the same load gets its decoy."""
    program = assemble(
        f"""
        .data 0x2000 stride=8 0
        li r1, 0x2000
        load r4, 0(r1)
        li zero, 0x200
        li r7, 0x200
        mul r5, r4, {multiplier}
        load r6, 0x10000(r5)
        halt
        """
    )
    config = SystemConfig(
        prefetcher=PrefetcherSpec(kind="prefender"),
        core=CoreConfig(fuse_countdown_loops=blocks),
    )
    assert run_programs([program], config).prefetch_counts == decoys
