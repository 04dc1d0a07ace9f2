"""Timing core: functional semantics, costs, calculation-buffer upkeep."""

import pytest

from repro.cpu.core import Core, CoreConfig
from repro.errors import ExecutionError
from repro.isa.assembler import assemble
from repro.mem.hierarchy import MemoryHierarchy


def run_core(source, config=None, max_steps=100000):
    program = assemble(source)
    hierarchy = MemoryHierarchy(num_cores=1)
    hierarchy.memory.load_program_data(program)
    core = Core(0, program, hierarchy, config)
    steps = 0
    while not core.halted:
        core.step()
        steps += 1
        assert steps < max_steps, "program did not halt"
    return core, hierarchy


def test_alu_semantics():
    core, _ = run_core(
        """
        li r1, 10
        li r2, 3
        add r3, r1, r2
        sub r4, r1, r2
        mul r5, r1, r2
        sll r6, r1, 2
        srl r7, r1, 1
        and r8, r1, 6
        or r9, r1, 5
        xor r10, r1, r2
        halt
        """
    )
    assert core.regs.read(3) == 13
    assert core.regs.read(4) == 7
    assert core.regs.read(5) == 30
    assert core.regs.read(6) == 40
    assert core.regs.read(7) == 5
    assert core.regs.read(8) == 2
    assert core.regs.read(9) == 15
    assert core.regs.read(10) == 9


def test_load_store_roundtrip():
    core, hierarchy = run_core(
        """
        li r1, 0x1000
        li r2, 99
        store r2, 0(r1)
        load r3, 0(r1)
        halt
        """
    )
    assert core.regs.read(3) == 99
    assert hierarchy.read_word(0x1000) == 99


def test_data_segment_visible():
    core, _ = run_core(
        """
        .data 0x2000 stride=8 41 42
        li r1, 0x2000
        load r2, 8(r1)
        halt
        """
    )
    assert core.regs.read(2) == 42


def test_branches():
    core, _ = run_core(
        """
        li r1, 3
        li r2, 0
        loop:
        add r2, r2, 10
        sub r1, r1, 1
        bne r1, zero, loop
        halt
        """
    )
    assert core.regs.read(2) == 30


def test_signed_branch():
    core, _ = run_core(
        """
        li r1, -5
        li r2, 1
        li r3, 0
        blt r1, r2, neg
        li r3, 111
        neg:
        halt
        """
    )
    assert core.regs.read(3) == 0  # branch taken: -5 < 1 signed


def test_rdcycle_monotonic():
    core, _ = run_core(
        """
        rdcycle r1
        nop
        nop
        rdcycle r2
        halt
        """
    )
    assert core.regs.read(2) - core.regs.read(1) == 3


def test_load_latency_charged():
    core, _ = run_core(
        """
        rdcycle r1
        li r2, 0x9000
        load r3, 0(r2)
        rdcycle r4
        halt
        """
    )
    # cold load = 136 cycles; plus the li in between.
    assert core.regs.read(4) - core.regs.read(1) == 1 + 1 + 136


def test_clflush_forces_remiss():
    core, _ = run_core(
        """
        li r1, 0x9000
        load r2, 0(r1)
        clflush 0(r1)
        rdcycle r3
        load r2, 0(r1)
        rdcycle r4
        sub r5, r4, r3
        halt
        """
    )
    assert core.regs.read(5) == 137  # full miss again after flush


def test_mul_cost():
    config = CoreConfig(mul_cost=5)
    core, _ = run_core("li r1, 2\nmul r2, r1, 3\nhalt", config)
    # li(1) + mul(5) + halt(1) -> time 7 at halt.
    assert core.time == 7


def test_load_hide_cycles_discount():
    config = CoreConfig(load_hide_cycles=110)
    core, _ = run_core("li r1, 0x9000\nload r2, 0(r1)\nhalt", config)
    # 136-cycle miss charged 26 cycles (+ li and halt).
    assert core.time == 1 + 26 + 1


def test_serialized_load_pays_full_latency():
    config = CoreConfig(load_hide_cycles=110)
    core, _ = run_core(
        """
        li r1, 0x9000
        rdcycle r3
        load r2, 0(r1)
        rdcycle r4
        sub r5, r4, r3
        halt
        """,
        config,
    )
    assert core.regs.read(5) == 137  # rdcycle serialises the next load


def test_fence_serializes_too():
    config = CoreConfig(load_hide_cycles=110)
    core, _ = run_core(
        "li r1, 0x9000\nfence\nload r2, 0(r1)\nhalt", config
    )
    assert core.time == 1 + 1 + 136 + 1


def test_scale_threaded_to_hierarchy():
    """The victim pattern produces scale 0x200 on the final load."""
    core, hierarchy = run_core(
        """
        .data 0x2000 stride=8 12
        li r1, 0x2000
        load r2, 0(r1)
        li r3, 0x10000
        mul r4, r2, 0x200
        add r5, r3, r4
        load r6, 0(r5)
        halt
        """
    )
    assert core.calc.scale_of(5) == 0x200


def test_pc_out_of_range_raises():
    program = assemble("nop\nnop")  # no halt
    hierarchy = MemoryHierarchy(num_cores=1)
    core = Core(0, program, hierarchy)
    core.step()
    core.step()
    with pytest.raises(ExecutionError):
        core.step()


def test_stats_counters():
    core, _ = run_core(
        """
        li r1, 0x1000
        load r2, 0(r1)
        store r2, 8(r1)
        clflush 0(r1)
        beq r1, r1, next
        next:
        halt
        """
    )
    assert core.stats.loads == 1
    assert core.stats.stores == 1
    assert core.stats.flushes == 1
    assert core.stats.branches == 1
    assert core.stats.instructions_retired == 6


def test_software_prefetch_executes_and_charges_latency():
    core, hierarchy = run_core(
        """
        li r1, 0x1000
        rdcycle r7
        prefetch 0(r1)          # cold: full memory path
        rdcycle r8
        sub r9, r8, r7
        rdcycle r10
        prefetch 0(r1)          # warm: L1 hit
        rdcycle r11
        sub r12, r11, r10
        load r2, 0(r1)
        halt
        """
    )
    assert core.stats.software_prefetches == 2
    # rdcycle serialises, so the prefetch pays its full residency latency;
    # each measurement includes the first rdcycle's own cycle.
    assert core.regs.read(9) == 136 + 1
    assert core.regs.read(12) == 4 + 1
    # The demand load then hits the prefetched (useful) line.
    assert core.stats.loads == 1
    assert hierarchy.l1ds[0].stats.useful_prefetches == 1


def test_prefetchw_assembles_and_counts():
    core, hierarchy = run_core(
        """
        li r1, 0x2000
        prefetchw 0(r1)
        halt
        """
    )
    assert core.stats.software_prefetches == 1
    assert hierarchy.l1_contains(0, 0x2000)


def test_software_prefetch_writes_no_register():
    core, _ = run_core(
        """
        li r6, 123
        li r1, 0x3000
        prefetch 0(r1)
        halt
        """
    )
    assert core.regs.read(6) == 123


def _tiny_system():
    from repro.cpu.system import System
    from repro.isa.builder import ProgramBuilder

    builder = ProgramBuilder("tiny")
    builder.li("r1", 1)
    builder.halt()
    return System([builder.build()], MemoryHierarchy(num_cores=1))


def test_run_succeeds_when_final_step_halts_the_last_core():
    """A budget that is exactly enough is enough — not a runaway."""
    result = _tiny_system().run(max_steps=2)
    assert result.instructions == 2


def test_run_raises_only_with_work_left():
    from repro.errors import SimulationError

    with pytest.raises(SimulationError):
        _tiny_system().run(max_steps=1)


def _racing_system():
    """Three cores that store to one line at equal local times.

    Core ``i`` stores ``i + 1`` to the shared line, loads it back, then
    spins for the loaded value plus ``2 + 3 * i`` rounds.  The cores halt
    one after another, and a scheduler that orders the tied stores
    differently changes what every core loads, and so its timing.
    """
    from repro.cpu.system import System

    programs = [
        assemble(
            f"""
            li r1, 0x10000
            li r2, {core_id + 1}
            store r2, 0(r1)
            load r3, 0(r1)
            add r4, r3, {2 + 3 * core_id}
            spin:
            sub r4, r4, 1
            bne r4, zero, spin
            halt
            """
        )
        for core_id in range(3)
    ]
    return System(programs, MemoryHierarchy(num_cores=3))


def test_three_core_scheduler_matches_linear_scan():
    """``run`` hands three active cores to the per-step min-time scan of
    ``run_steps`` until one halts, and the last two to ``_run_pair``; it
    must step them in the order of a naive scan that steps
    ``min(active, key=time)``, ties to the lower core index."""
    fast, reference = _racing_system(), _racing_system()
    result = fast.run()
    while active := [core for core in reference.cores if not core.halted]:
        min(active, key=lambda core: core.time).step()
    assert result.core_cycles == [core.time for core in reference.cores]
    assert len(set(result.core_cycles)) == 3, "cores must halt at distinct times"
    assert fast.snapshot() == reference.snapshot()


def _loop_beside_halters(halters):
    """``halters`` cores that halt at once, beside a last core that loops
    200 times over ``load; store; sub; bne``."""
    from repro.cpu.system import System

    loop = """
        li r1, 0x10000
        li r2, 200
        top:
        load r3, 0(r1)
        store r3, 8(r1)
        sub r2, r2, 1
        bne r2, zero, top
        halt
    """
    programs = [assemble("halt") for _ in range(halters)] + [assemble(loop)]
    return System(programs, MemoryHierarchy(num_cores=halters + 1))


@pytest.mark.parametrize("halters", [1, 2])
def test_the_last_core_of_a_multi_core_run_runs_alone(halters):
    """Once the other cores halt, the loop runs on lone-core blocks, one
    scheduler step per iteration, whether it started beside one core or
    two.  Left in the three-core scan, it took a step per memory op and
    one per block: 604 steps beside two cores."""
    from repro.errors import SimulationError

    steps = halters + 201  # each halt, the loop's 200 blocks, its halt
    result = _loop_beside_halters(halters).run(max_steps=steps)
    assert result.core_cycles[-1] == 1535
    with pytest.raises(SimulationError):
        _loop_beside_halters(halters).run(max_steps=steps - 1)


def test_access_buffer_reset_clears_last_touch():
    from repro.core.access_buffer import AccessBuffer

    buffer = AccessBuffer(capacity=4)
    buffer.reset(0x400000)
    buffer.record(0x1000, now=99_999)
    assert buffer.last_touch == 99_999
    buffer.reset(0x400004)  # reallocated to a new PC
    assert buffer.last_touch == 0, "no inherited idle clock"
