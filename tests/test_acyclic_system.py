"""No simulation leaves cyclic garbage.

A finished ``System`` must be freed by reference counting the moment its
last reference goes.  A reference cycle anywhere in it (a core holding
bound methods of itself, an L2 eviction hook holding its hierarchy) keeps
every cache set, line and tracker alive until a gen-2 collection, which
raises peak memory on long grids.  Each case below runs with the cyclic
collector off and then asks it how much it finds.
"""

import gc

import pytest

from repro.attacks.replay import replay_group
from repro.attacks.scenarios import defense_spec
from repro.cpu.blocks import compile_blocks
from repro.cpu.core import CoreConfig
from repro.experiments import common, table4
from repro.runner import ScenarioJob, SimJob
from repro.sim.config import PrefetcherSpec, SystemConfig
from repro.sim.simulator import build_system
from repro.workloads import get_workload

WORKLOAD = "429.mcf"
SCALE = 0.05

#: Every prefetcher of Table IV (with and without the Record Protector),
#: plus no prefetcher and BITP.
SPECS = {
    "none": PrefetcherSpec(kind="none"),
    "bitp": PrefetcherSpec(kind="bitp"),
    **dict(table4._columns(with_rp=False)),
    **dict(table4._columns(with_rp=True)),
}


def _cyclic_garbage(run):
    """Objects the cyclic collector frees after ``run()``, with its own
    result dropped."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def _sim_job(system, **fields):
    return SimJob(workload=WORKLOAD, scale=SCALE, system=system, **fields)


@pytest.mark.parametrize("column", sorted(SPECS))
def test_table4_run_leaves_no_cycles(column):
    job = _sim_job(common.perf_config(SPECS[column]))
    assert _cyclic_garbage(job.run) == 0


def test_speculative_core_leaves_no_cycles():
    job = _sim_job(SystemConfig(core=CoreConfig(speculative_execution=True)))
    assert _cyclic_garbage(job.run) == 0


def test_sampled_run_leaves_no_cycles():
    job = _sim_job(
        common.perf_config(SPECS["ST+AT/32"]), sample_interval=500
    )
    assert _cyclic_garbage(job.run) == 0


def test_two_core_scenario_job_leaves_no_cycles():
    job = ScenarioJob.build(
        "flush-reload",
        SystemConfig(prefetcher=defense_spec("FULL")),
        victim="aes-ttable",
        secret=3,
    )
    assert _cyclic_garbage(job.run) == 0


def test_replay_group_leaves_no_cycles():
    jobs = [
        ScenarioJob.build(
            "evict-reload",
            SystemConfig(prefetcher=defense_spec("FULL")),
            victim="ecdsa-window",
            secret=secret,
        )
        for secret in range(2)
    ]
    assert _cyclic_garbage(lambda: replay_group(jobs)) == 0


def test_snapshot_restore_run_leaves_no_cycles():
    program = get_workload(WORKLOAD).program(SCALE)
    config = common.perf_config(SPECS["ST+AT(S)/32"])

    def run():
        system = build_system([program], config)
        system.run_steps(200)
        image = system.snapshot()
        system.run()
        system.restore(image)
        system.run()

    assert _cyclic_garbage(run) == 0


def test_dropped_block_tables_leave_no_cycles():
    """A compiled block table evicted from its LRU is freed by refcount."""
    decoded = get_workload(WORKLOAD).program(SCALE).decoded

    def compile_and_drop():
        compile_blocks.cache_clear()
        assert compile_blocks(decoded, 1, 3, 1, 4096, True)
        compile_blocks.cache_clear()

    assert _cyclic_garbage(compile_and_drop) == 0
