"""The ``python -m repro bench`` command and its JSON report."""

import json
import time
from types import SimpleNamespace

import pytest

from repro.__main__ import main
from repro.sim import bench


def test_run_bench_report_shape():
    report = bench.run_bench(scale=0.05, repeats=1)
    assert report["schema"] == bench.SCHEMA
    assert set(report["scenarios"]) == set(bench.SCENARIO_NAMES)
    for name in bench.SCENARIO_NAMES:
        cell = report["scenarios"][name]
        assert cell["instructions"] > 0
        assert cell["cycles"] > 0
        assert cell["seconds"] > 0
        assert cell["instr_per_sec"] > 0


def test_bench_cli_quick_emits_report(tmp_path, capsys):
    out = tmp_path / "BENCH_sim_throughput.json"
    assert main(["bench", "--quick", "--output", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "single_core_victim" in printed
    report = json.loads(out.read_text())
    assert report["schema"] == bench.SCHEMA
    assert set(report["scenarios"]) == set(bench.SCENARIO_NAMES)
    # Quick mode shrinks the workload and times one warm pass per scenario.
    assert report["scale"] == bench.QUICK_SCALE
    assert report["repeats"] == 1


def test_scenario_warm_up_run_is_not_timed():
    """Every scenario runs once untimed before its timed repeats, so a
    one-repeat (``--quick``) sample never times program build and strict
    analysis.  Here the first run is slow and every later one instant."""
    runs = []

    def run():
        if not runs:
            time.sleep(0.3)
        runs.append(len(runs))
        return SimpleNamespace(instructions=100, cycles=200)

    result = bench._time_scenario("probe", run, repeats=1)
    assert runs == [0, 1]
    assert result.repeats == 1
    assert result.seconds < 0.3


def test_bench_cli_rejects_bad_scale():
    with pytest.raises(SystemExit):
        main(["bench", "--scale", "-1"])


def test_render_report_lists_all_scenarios():
    report = bench.run_bench(scale=0.05, repeats=1)
    text = bench.render_report(report)
    for name in bench.SCENARIO_NAMES:
        assert name in text
    assert "instr/s" in text
