"""Sharing one simulation between jobs that can only give the same result.

The Access Tracker allocates one buffer per load PC, so a PREFENDER with
at least as many buffers as its program has load PCs never replaces a
buffer or fails an allocation: every such buffer count gives the same run
(``PrefenderConfig.for_load_pcs``).  An inline ``run_batch`` simulates the
first job of each effective key and hands every later one an equal copy;
no bundled program has more than 4 load PCs, so Table IV's 16/32/64
columns share one simulation per workload and prefetcher kind.

The six runs left per Table IV workload share one instruction stream: the
first is recorded and the other five replay its loads and stores
(``tests/test_trace_replay.py`` checks that a replay is exact).  A full
run and a replay each make one ``System.run`` call, which is what these
tests count as a simulation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import PrefenderConfig
from repro.cpu.system import System
from repro.experiments import common, table4
from repro.isa import ProgramBuilder
from repro.runner import SimJob, job as job_module, run_batch
from repro.workloads import SPEC2006_NAMES, get_workload

PREFENDER_KINDS = ("prefender", "prefender+tagged", "prefender+stride")
SCALE = 0.1


def _job(name: str, kind: str, buffers: int, with_rp: bool = False) -> SimJob:
    spec = common.table_spec(kind, buffers, with_rp)
    return common.sim_job(name, spec, SCALE)


def _count(monkeypatch, owner, name):
    """Count calls to ``owner.name``, still running the original."""
    real = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _simulations(monkeypatch):
    return _count(monkeypatch, System, "run")


def test_load_pc_count_counts_load_instructions():
    builder = ProgramBuilder("pcs")
    builder.li("r1", 0x1000).load("r2", 0, "r1").load("r3", 8, "r1")
    builder.store("r2", 16, "r1").prefetch(64, "r1").load("r2", 0, "r1")
    builder.halt()
    assert builder.build().load_pc_count() == 3
    assert get_workload("429.mcf").program(SCALE).load_pc_count() == 4


@pytest.mark.parametrize(
    "config, load_pcs, buffers",
    [
        (PrefenderConfig.st_at(32), 4, 4),
        (PrefenderConfig.full(64), 2, 2),
        (PrefenderConfig.st_at(16), 0, 1),
        (PrefenderConfig.st_at(2), 4, 2),
        (PrefenderConfig.full(4), 4, 4),
    ],
)
def test_for_load_pcs_clamps_the_access_tracker(config, load_pcs, buffers):
    clamped = config.for_load_pcs(load_pcs)
    assert clamped.num_access_buffers == buffers
    assert clamped == dataclasses.replace(config, num_access_buffers=buffers)
    if buffers == config.num_access_buffers:
        assert clamped is config


def test_for_load_pcs_leaves_a_config_without_the_access_tracker():
    config = PrefenderConfig.st_only()
    assert config.for_load_pcs(1) is config


@pytest.mark.parametrize("with_rp", [False, True], ids=["table4", "table5"])
@pytest.mark.parametrize("kind", PREFENDER_KINDS)
def test_buffer_counts_from_the_load_pc_count_up_run_alike(kind, with_rp):
    # Bare runs, outside any batch: each one is simulated.
    for name in SPEC2006_NAMES:
        load_pcs = get_workload(name).program(SCALE).load_pc_count()
        runs = [
            _job(name, kind, buffers, with_rp).run().to_json()
            for buffers in (max(1, load_pcs), 16, 32, 64)
        ]
        assert all(run == runs[0] for run in runs[1:]), name


def _table4_jobs(names):
    specs = [common.BASELINE_SPEC] + [
        spec for _, spec in table4._columns(with_rp=False)
    ]
    return [common.sim_job(name, spec, SCALE) for name in names for spec in specs]


def test_a_table4_batch_simulates_each_effective_key_once(monkeypatch):
    names = ["429.mcf", "462.libquantum", "999.specrand"]
    jobs = _table4_jobs(names)
    assert len(jobs) == 36
    expected = [job.run() for job in jobs]
    simulations = _simulations(monkeypatch)
    runs = _count(monkeypatch, SimJob, "run")
    assert run_batch(jobs) == expected
    # Per workload: the baseline, Tagged, Stride and one run per PREFENDER
    # kind for its three buffer columns.
    assert len(simulations) == 6 * len(names)
    assert len(runs) == len(jobs)
    # The share table does not outlive its batch.
    assert run_batch(jobs) == expected
    assert len(simulations) == 2 * 6 * len(names)
    assert len(runs) == 2 * len(jobs)


def test_table4_records_each_workload_once_and_replays_the_rest(monkeypatch):
    recordings = _count(monkeypatch, job_module, "record_program")
    replays = _count(monkeypatch, job_module, "replay_program")
    inline = table4.run(scale=SCALE)
    # 12 workloads x 6 distinct runs: one recorded, five replayed.
    assert (len(recordings), len(replays)) == (12, 60)

    def refuse(*args, **kwargs):
        raise AssertionError("a pool worker shared an instruction stream")

    # Forked workers inherit the patch, and open no share table.
    monkeypatch.setattr(job_module, "record_program", refuse)
    monkeypatch.setattr(job_module, "replay_program", refuse)
    assert table4.run(scale=SCALE, jobs=2) == inline


def test_nothing_is_shared_below_the_load_pc_count(monkeypatch):
    simulations = _simulations(monkeypatch)
    counts = (1, 2, 3, 4, 16, 32, 64)
    results = run_batch([_job("429.mcf", "prefender", n) for n in counts])
    # 429.mcf has 4 load PCs: 1, 2 and 3 buffers each run on their own.
    assert len(simulations) == 4
    cycles = dict(zip(counts, (result.cycles for result in results)))
    assert cycles[1] == 11_842
    assert cycles[16] == cycles[32] == cycles[64] == cycles[4] == 11_924


def test_shared_results_are_equal_but_separate(monkeypatch):
    simulations = _simulations(monkeypatch)
    first, second = run_batch(
        [_job("429.mcf", "prefender+tagged", n) for n in (16, 32)]
    )
    assert len(simulations) == 1
    assert first == second
    assert first is not second
    assert first.l1d_stats[0] is not second.l1d_stats[0]
    second.l1d_stats[0]["hits"] = -1
    assert first.l1d_stats[0]["hits"] != -1


class _ShareProbe:
    """A job that reports whether it ran inside an open share table."""

    cacheable = False

    def __init__(self, tag: int) -> None:
        self.tag = tag

    def key(self) -> str:
        return f"share-probe-{self.tag}"

    def run(self) -> bool:
        return job_module._SHARED_RUNS.get() is not None


def test_only_an_inline_batch_opens_a_share_table():
    probes = [_ShareProbe(0), _ShareProbe(1)]
    assert run_batch(probes) == [True, True]
    assert run_batch(probes, workers=2) == [False, False]
    assert job_module._SHARED_RUNS.get() is None
