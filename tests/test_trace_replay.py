"""A replayed run equals a full simulation.

A run on a ``RecordingHierarchy`` records a lone core's loads and stores
(``repro.cpu.access_trace``); ``System.replay`` drives another system's own
hierarchy and prefetcher with them.  Inside an inline batch
(``repro.runner.job.shared_runs``) the first job of each functional key,
its key with the prefetcher spec and the hierarchy config at their
defaults, is recorded and every later one replays.  Checked here:

* every bundled workload under every prefetcher kind, on ``PERF_CORE``
  and on the default core, and on a small hierarchy with 2 MSHRs and
  blocking stores, replays to the ``RunResult`` a full run gives;
* so do fuzzed one-core load/store programs from the block fuzz's
  generator, down to every prefetch's time and every field of the final
  state;
* a job that may not replay, or whose functional key differs from the
  recorder's, is simulated in full;
* a trace refuses a core it was not recorded for.

A replay that charged loads without the OoO window
(``load_hide_cycles``) fails the first check on ``PERF_CORE``; a
functional key without the core config fails
``test_jobs_on_different_cores_record_their_own_traces``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_block_fuzz import MAX_STEPS, SMALL_CACHES, _build, programs

from tools.state_diff import diff_systems

from repro.cpu.access_trace import replayable
from repro.cpu.core import CoreConfig
from repro.cpu.system import System
from repro.errors import SimulationError
from repro.experiments.common import PERF_CORE
from repro.isa import assemble
from repro.mem.hierarchy import HierarchyConfig
from repro.runner import SimJob, job as job_module, run_batch
from repro.sim.config import PREFETCHER_KINDS, PrefetcherSpec, SystemConfig
from repro.sim.simulator import (
    build_system,
    record_program,
    replay_program,
    run_program,
)
from repro.workloads import SPEC2006_NAMES, SPEC2017_NAMES, get_workload
from repro.workloads.base import REGISTRY, Workload

SCALE = 0.1
#: Small caches, 2 MSHRs a cache and stores that pay their latency.
SMALL = HierarchyConfig(
    l1d_size=4096,
    l1d_assoc=2,
    l2_size=32 * 1024,
    l2_assoc=4,
    mshr_entries=2,
    nonblocking_stores=False,
)


def _spec(kind: str) -> PrefetcherSpec:
    return PrefetcherSpec(kind=kind)


@pytest.mark.parametrize(
    "core, recorder, hierarchy",
    [
        (PERF_CORE, "none", HierarchyConfig()),
        (CoreConfig(), "none", HierarchyConfig()),
        # The recorder's prefetcher and hierarchy differ from the replays'.
        (PERF_CORE, "prefender+tagged", SMALL),
    ],
    ids=["perf-core", "default-core", "small-hierarchy"],
)
def test_bundled_workloads_replay_exactly(core, recorder, hierarchy):
    for name in SPEC2006_NAMES + SPEC2017_NAMES:
        program = get_workload(name).program(SCALE)
        assert replayable(program, core), name
        _, trace = record_program(
            program, SystemConfig(core=core, prefetcher=_spec(recorder))
        )
        for kind in PREFETCHER_KINDS:
            config = SystemConfig(
                core=core, hierarchy=hierarchy, prefetcher=_spec(kind)
            )
            expected = run_program(program, config).to_json()
            assert replay_program(program, config, trace).to_json() == expected, (
                name,
                kind,
            )


_kinds = st.sampled_from(PREFETCHER_KINDS)


@settings(max_examples=60, deadline=None)
@given(
    items=programs(replayable=True),
    recorder=_kinds,
    kind=_kinds,
    hide=st.sampled_from((0, 110)),
    fuse=st.booleans(),
    small=st.booleans(),
)
def test_fuzzed_programs_replay_exactly(items, recorder, kind, hide, fuse, small):
    program = _build(items, 0)
    core = replace(CoreConfig(), load_hide_cycles=hide, fuse_countdown_loops=fuse)
    _, trace = record_program(
        program,
        SystemConfig(core=core, prefetcher=_spec(recorder)),
        max_steps=MAX_STEPS,
    )
    config = SystemConfig(
        core=core,
        hierarchy=SMALL_CACHES if small else HierarchyConfig(),
        prefetcher=_spec(kind),
    )
    full = build_system([program], config)
    replayed = build_system([program], config)
    traces = [], []
    full.hierarchy.attach_trace(0, traces[0])
    replayed.hierarchy.attach_trace(0, traces[1])
    assert replayed.replay(trace) == full.run(max_steps=MAX_STEPS)
    assert traces[0] == traces[1]
    assert diff_systems(replayed, full) == []


# -- what shares a trace inside a batch --------------------------------------


def _count(monkeypatch, owner, name):
    real = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.fixture
def counts(monkeypatch):
    """Recordings, replays and ``System.run`` calls made from now on."""
    return (
        _count(monkeypatch, job_module, "record_program"),
        _count(monkeypatch, job_module, "replay_program"),
        _count(monkeypatch, System, "run"),
    )


def _tally(counts):
    return tuple(len(calls) for calls in counts)


def _job(workload="429.mcf", kind="tagged", core=PERF_CORE, **fields):
    system = SystemConfig(core=core, prefetcher=_spec(kind))
    return SimJob(workload=workload, scale=SCALE, system=system, **fields)


def _check(jobs):
    """Run ``jobs`` as one inline batch; each result equals a bare run's."""
    expected = [job.run().to_json() for job in jobs]
    assert [result.to_json() for result in run_batch(jobs)] == expected


def test_jobs_differing_only_in_prefetcher_and_hierarchy_share_a_trace(counts):
    small = _job(kind="stride")
    small = replace(small, system=replace(small.system, hierarchy=SMALL))
    jobs = [_job(kind="none"), _job(kind="prefender"), small]
    expected = [job.run().to_json() for job in jobs]
    assert _tally(counts) == (0, 0, 3)  # bare runs simulate
    assert [result.to_json() for result in run_batch(jobs)] == expected
    assert _tally(counts) == (1, 2, 6)


def test_jobs_on_different_cores_record_their_own_traces(counts):
    _check([_job(kind="tagged"), _job(kind="stride", core=CoreConfig())])
    assert _tally(counts)[:2] == (2, 0)


@pytest.mark.parametrize(
    "fields",
    [{"max_steps": 10_000_000}, {"scale": SCALE * 2}],
    ids=["max_steps", "scale"],
)
def test_jobs_with_other_job_fields_record_their_own_traces(counts, fields):
    _check([_job(kind="tagged"), replace(_job(kind="stride"), **fields)])
    assert _tally(counts)[:2] == (2, 0)


def test_jobs_with_another_page_size_record_their_own_traces(counts):
    other = _job(kind="stride")
    other = replace(other, system=replace(other.system, page_size=8192))
    _check([_job(kind="tagged"), other])
    assert _tally(counts)[:2] == (2, 0)


def _register(monkeypatch, name, source):
    program = assemble(source)
    monkeypatch.setitem(
        REGISTRY, name, Workload(name, "test", "hand-written", lambda scale: program)
    )


@pytest.mark.parametrize(
    "extra",
    ["rdcycle r4", "fence", "clflush 0(r1)", "prefetch 64(r1)"],
    ids=["rdcycle", "fence", "clflush", "prefetch"],
)
def test_programs_that_may_not_replay_are_simulated_in_full(
    monkeypatch, counts, extra
):
    body = "li r1, 0x2000\nli r2, 5\nloop:\nload r3, 0(r1)\nadd r1, r1, 64\n"
    tail = "store r3, 8(r1)\nsub r2, r2, 1\nbne r2, zero, loop\nhalt"
    _register(monkeypatch, "test.plain", body + tail)
    _register(monkeypatch, "test.clocked", body + extra + "\n" + tail)
    assert not replayable(get_workload("test.clocked").program(), PERF_CORE)
    _check([_job("test.plain", kind) for kind in ("none", "stride")])
    assert _tally(counts)[:2] == (1, 1)
    _check([_job("test.clocked", kind) for kind in ("none", "stride")])
    assert _tally(counts)[:2] == (1, 1)


def test_speculative_and_sampled_jobs_are_simulated_in_full(counts):
    speculative = replace(PERF_CORE, speculative_execution=True)
    _check([_job(kind=kind, core=speculative) for kind in ("none", "stride")])
    _check([_job(kind=kind, sample_interval=500) for kind in ("none", "stride")])
    assert _tally(counts)[:2] == (0, 0)


# -- what a trace refuses ----------------------------------------------------


def test_a_trace_drives_only_a_fresh_core_of_its_own_program_and_config():
    program = get_workload("429.mcf").program(SCALE)
    config = SystemConfig(core=PERF_CORE)
    _, trace = record_program(program, config)
    other = get_workload("462.libquantum").program(SCALE)
    for system in (
        build_system([other], config),
        build_system([program], SystemConfig(core=CoreConfig())),
        build_system([program], replace(config, page_size=8192)),
        build_system([program, program], replace(config, num_cores=2)),
    ):
        with pytest.raises(SimulationError):
            system.replay(trace)
    ran = build_system([program], config)
    ran.run()
    with pytest.raises(SimulationError):
        ran.replay(trace)
    # A refused replay leaves nothing armed: the next run steps the core.
    fresh = build_system([program], config)
    assert fresh.replay(trace) == build_system([program], config).run()
