"""Evict+Time (the out-of-scope timing attack) and the CLI front door."""

import json
import pathlib

import pytest

from repro.__main__ import main
from repro.attacks import EvictTimeAttack
from repro.core.config import PrefenderConfig
from repro.runner import WorkerPool, executor
from repro.sim.config import PrefetcherSpec, SystemConfig

GOLDEN_TRANSCRIPTS = (
    pathlib.Path(__file__).resolve().parent / "golden" / "cli_transcripts.json"
)


def test_evict_time_baseline_recovers_secret():
    outcome = EvictTimeAttack().run(SystemConfig())
    assert outcome.candidates == [37]
    assert outcome.attack_succeeded


def test_evict_time_channel_survives_prefender():
    """The paper's Table II negative result: timing channels are out of
    PREFENDER's threat model — one anomalous round survives."""
    outcome = EvictTimeAttack().run(
        SystemConfig(
            prefetcher=PrefetcherSpec(
                kind="prefender", prefender=PrefenderConfig.full(8)
            )
        )
    )
    assert len(outcome.candidates) == 1
    assert outcome.candidates[0] in (36, 37, 38)


def test_evict_time_threshold_is_relative():
    attack = EvictTimeAttack()
    outcome = attack.run(SystemConfig())
    fast = sorted(lat for lat in outcome.latencies if lat > 0)
    assert outcome.threshold == fast[len(fast) // 2] + 6


def test_cli_attack_command(capsys):
    assert main(["attack", "flush-reload", "--defense", "ST"]) == 0
    output = capsys.readouterr().out
    assert "DEFENDED" in output


def test_cli_attack_baseline_succeeds(capsys):
    assert main(["attack", "prime-probe"]) == 0
    assert "ATTACK SUCCEEDED" in capsys.readouterr().out


def test_cli_hwcost(capsys):
    assert main(["hwcost"]) == 0
    assert "400 B" in capsys.readouterr().out


def test_cli_table_parallel_jobs(capsys, monkeypatch):
    """``--jobs 2`` runs Table IV's 144 jobs on one WorkerPool, whose
    workers simulate every job, and prints exactly what the inline path
    prints from its 72 shared simulations (the golden transcript)."""
    batches = []

    class CountingPool(WorkerPool):
        def run(self, jobs):
            batches.append(len(jobs))
            return super().run(jobs)

    monkeypatch.setattr(executor, "WorkerPool", CountingPool)
    assert main(["table", "4", "--scale", "0.1", "--jobs", "2"]) == 0
    assert batches == [144]
    golden = json.loads(GOLDEN_TRANSCRIPTS.read_text())["table 4 --scale 0.1"]
    assert golden["exit"] == 0
    assert capsys.readouterr().out.splitlines() == golden["stdout"]


def test_cli_rejects_non_positive_scale(capsys):
    for bad in ("0", "-0.5", "nan-ish"):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "4", "--scale", bad])
        assert excinfo.value.code == 2, bad
    assert "--scale" in capsys.readouterr().err


def test_cli_rejects_negative_jobs():
    with pytest.raises(SystemExit):
        main(["table", "4", "--jobs", "-1"])


def test_cli_sweep(capsys):
    assert (
        main(
            [
                "sweep",
                "--workloads",
                "462.libquantum,999.specrand",
                "--kinds",
                "prefender,tagged",
                "--buffers",
                "16,32",
                "--scale",
                "0.1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Sweep" in out
    assert "prefender/16" in out and "prefender/32" in out and "tagged" in out


def test_cli_sweep_rejects_unknown_kind(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--kinds", "warp-drive", "--scale", "0.1"])
    assert "warp-drive" in capsys.readouterr().err


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
