"""System scheduling, run results, and the config/prefetcher factory."""

import pytest

from repro.core.prefender import Prefender
from repro.errors import ConfigError, SimulationError
from repro.isa.assembler import assemble
from repro.prefetch.composite import CompositePrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.prefetch.tagged import TaggedPrefetcher
from repro.sim.config import PrefetcherSpec, SystemConfig, build_prefetcher
from repro.sim.simulator import build_system, run_program, run_programs
from repro.utils.addr import AddressMap


def test_run_program_basic():
    result = run_program(assemble("li r1, 1\nhalt"))
    assert result.instructions == 2
    assert result.cycles >= 2
    assert result.ipc > 0


def test_run_program_rejects_multicore_config():
    with pytest.raises(ConfigError):
        run_program(assemble("halt"), SystemConfig(num_cores=2))


def test_build_system_core_count_mismatch():
    with pytest.raises(ConfigError):
        build_system([assemble("halt")], SystemConfig(num_cores=2))


def test_runaway_program_guard():
    program = assemble("loop:\njmp loop")
    with pytest.raises(SimulationError):
        run_program(program, max_steps=1000)


def test_cross_core_spin_synchronisation():
    attacker = assemble(
        """
        li r1, 0x8000
        li r2, 1
        store r2, 0(r1)
        halt
        """
    )
    waiter = assemble(
        """
        li r1, 0x8000
        spin:
        load r2, 0(r1)
        beq r2, zero, spin
        halt
        """
    )
    result = run_programs([waiter, attacker], SystemConfig(num_cores=2))
    assert result.core_instructions[0] > 0
    assert result.cycles > 0


_SAMPLED_SOURCE = """
li r1, 0x10000
li r2, 6
loop:
load r3, 0(r1)
add r4, r3, r2
mul r5, r4, 3
xor r6, r5, r4
add r1, r1, 64
sub r2, r2, 1
bne r2, zero, loop
li r7, 20
spin:
sub r7, r7, 1
bne r7, zero, spin
halt
"""


def test_sampling_hook():
    """A sampled run counts one scheduler step per instruction, loads, ALU
    runs and countdown loops alike, so Figure 12's x-axis is execution
    progress.  The exact ``(step, (time, retired))`` list is pinned."""
    system = build_system([assemble(_SAMPLED_SOURCE)], SystemConfig())
    result = system.run(
        sample_interval=9,
        sample_fn=lambda s: (s.cores[0].time, s.cores[0].stats.instructions_retired),
    )
    assert result.samples == [
        (9, (146, 9)),
        (18, (427, 18)),
        (27, (575, 27)),
        (36, (721, 36)),
        (45, (867, 45)),
        (54, (876, 54)),
        (63, (885, 63)),
        (72, (894, 72)),
        (81, (903, 81)),
    ]
    assert (result.cycles, result.instructions) == (908, 86)


def _times_and_retired(system):
    return tuple(
        (core.time, core.stats.instructions_retired) for core in system.cores
    )


def test_sampling_a_two_core_run():
    """Samples count the steps of both cores, and keep their cadence when
    core 1 halts between two samples and core 0 runs on alone."""
    other = """
    li r1, 0x10000
    li r2, 3
    loop:
    store r2, 64(r1)
    load r3, 0(r1)
    sub r2, r2, 1
    bne r2, zero, loop
    halt
    """
    system = build_system(
        [assemble(_SAMPLED_SOURCE), assemble(other)], SystemConfig(num_cores=2)
    )
    result = system.run(sample_interval=10, sample_fn=_times_and_retired)
    assert result.samples == [
        (10, ((142, 5), (139, 5))),
        (20, ((162, 10), (147, 10))),
        (30, ((169, 15), (155, 15))),
        (40, ((451, 25), (155, 15))),
        (50, ((600, 35), (155, 15))),
        (60, ((747, 45), (155, 15))),
        (70, ((757, 55), (155, 15))),
        (80, ((767, 65), (155, 15))),
        (90, ((777, 75), (155, 15))),
        (100, ((787, 85), (155, 15))),
    ]
    assert (result.cycles, result.core_instructions) == (788, [86, 15])


def test_sampled_run_halting_on_a_sample_step_samples_it_once():
    """The 86-step program halts on the second multiple of 43: that step
    is sampled once, and no sample follows it."""
    system = build_system([assemble(_SAMPLED_SOURCE)], SystemConfig())
    result = system.run(sample_interval=43, sample_fn=_times_and_retired)
    assert result.samples == [(43, ((865, 43),)), (86, ((908, 86),))]
    assert (result.cycles, result.instructions) == (908, 86)


_COUNTDOWN ="li r1, 1000\nloop:\nsub r1, r1, 1\nbne r1, zero, loop\nhalt"


def test_sampled_run_restores_fusion():
    """A sampled run interprets one instruction per step only for itself:
    afterwards, whether it returned or raised, the System fuses again and
    runs the 2,002-instruction countdown in a handful of steps."""
    system = build_system([assemble(_COUNTDOWN)], SystemConfig())
    image = system.snapshot()
    fused = system.run(max_steps=10)

    system.restore(image)
    system.run(sample_interval=100)
    system.restore(image)
    assert system.run(max_steps=10) == fused

    system.restore(image)
    with pytest.raises(SimulationError):
        system.run(max_steps=50, sample_interval=10)
    system.restore(image)
    assert system.run(max_steps=10) == fused


def test_prefetcher_spec_labels():
    assert PrefetcherSpec(kind="none").label == "Baseline"
    assert PrefetcherSpec(kind="tagged").label == "Tagged"
    assert PrefetcherSpec(kind="prefender").label == "Prefender"
    assert "Tagged" in PrefetcherSpec(kind="prefender+tagged").label


def test_prefetcher_spec_validation():
    with pytest.raises(ConfigError):
        PrefetcherSpec(kind="warp-drive")


@pytest.mark.parametrize(
    "kind,expected_type",
    [
        ("tagged", TaggedPrefetcher),
        ("stride", StridePrefetcher),
        ("prefender", Prefender),
        ("prefender+tagged", CompositePrefetcher),
        ("prefender+stride", CompositePrefetcher),
    ],
)
def test_build_prefetcher_types(kind, expected_type):
    prefetcher = build_prefetcher(PrefetcherSpec(kind=kind), AddressMap())
    assert isinstance(prefetcher, expected_type)


def test_composite_primary_is_prefender():
    composite = build_prefetcher(
        PrefetcherSpec(kind="prefender+tagged"), AddressMap()
    )
    assert isinstance(composite.primary, Prefender)


def test_run_result_totals():
    result = run_program(
        assemble("li r1, 0x7000\nload r2, 0(r1)\nhalt"),
        SystemConfig(prefetcher=PrefetcherSpec(kind="tagged")),
    )
    assert result.total_prefetches(0) >= 1
    assert result.l1d_stats[0]["demand_accesses"] == 1
