"""Sharing one built program between jobs is sound.

``Workload.program`` hands its most recent build to every caller, so the
jobs of one Table IV row all run the same ``Program`` object.  That is
sound only while running a program leaves it as it was, and while the
memo never hands one workload's or one scale's build to another.
"""

import dataclasses

from repro.experiments import common, table4
from repro.sim.simulator import run_program
from repro.workloads import get_workload

WORKLOAD = "429.mcf"
SCALE = 0.1
#: The 11 Table IV prefetcher columns plus the no-prefetcher baseline.
COLUMNS = [("baseline", common.BASELINE_SPEC), *table4._columns(with_rp=False)]


def _contents(program):
    return program.to_text(), program.decoded, list(program.data_segments)


def test_one_program_runs_every_table4_column_like_a_fresh_build():
    workload = get_workload(WORKLOAD)
    shared = workload.program(SCALE)
    before = _contents(shared)
    assert len(COLUMNS) == 12
    for header, spec in COLUMNS:
        config = common.perf_config(spec)
        got = run_program(shared, config)
        fresh = run_program(workload.builder(SCALE), config)
        assert got == fresh, header
    assert _contents(shared) == before
    assert workload.program(SCALE) is shared


def test_memo_keys_on_builder_and_scale():
    workload = get_workload(WORKLOAD)
    first = workload.program(SCALE)
    assert workload.program(SCALE) is first
    larger = workload.program(2 * SCALE)
    assert larger is not first
    assert larger.to_text() != first.to_text()
    # Workload equality ignores the builder, so the memo keys on the builder.
    twin = dataclasses.replace(workload, builder=lambda s: workload.builder(s))
    assert twin == workload
    assert twin.program(SCALE) is not workload.program(SCALE)
