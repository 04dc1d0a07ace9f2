"""Simulator-throughput benchmark: the ``python -m repro bench`` backend.

Times three scenarios that together cover every hot path the simulator has
(the decode/dispatch core loop, the LRU-ordered caches, the single-core
fast loop, the two-core scheduler, coherence traffic, and the speculative
substrate):

* ``single_core_victim`` — one SPEC-like workload on the performance core
  (Tables IV-VI's configuration).
* ``dual_core_attack``   — cross-core Flush+Reload, attacker + victim on
  two cores sharing the L2.
* ``speculative_spectre`` — Flush+Reload against a Spectre-v1 victim with
  speculative execution, mispredictions and squashes.

Each scenario runs once untimed (program build and strict analysis are not
simulator throughput), then ``repeats`` times, and reports the best
wall-clock pass (instructions / second); results serialise to
``BENCH_sim_throughput.json``.  This is a smoke test: its samples last
milliseconds.  Speed claims are measured with the repository benchmark,
``perfbench/run.py``.  ``tests/test_golden_parity.py`` guards that none of
this speed moved a single cycle or counter.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass
from typing import Callable

from repro.cpu.core import CoreConfig
from repro.sim.config import SystemConfig
from repro.sim.simulator import run_program
from repro.workloads import get_workload

SCHEMA = "bench_sim_throughput/v1"

#: Scenario keys, in report order; CI asserts all three are present.
SCENARIO_NAMES = ("single_core_victim", "dual_core_attack", "speculative_spectre")

DEFAULT_WORKLOAD = "462.libquantum"
DEFAULT_SCALE = 0.5
QUICK_SCALE = 0.1

# The performance-evaluation core (same knobs as experiments.common's
# PERF_CORE, restated here so the sim layer does not import the experiment
# layer): an OoO-like window hides up to 110 cycles of load latency.
_PERF_CORE = CoreConfig(load_hide_cycles=110)


@dataclass(frozen=True)
class ScenarioResult:
    """Best-of-N timing for one scenario."""

    name: str
    instructions: int
    cycles: int
    seconds: float
    repeats: int

    @property
    def instr_per_sec(self) -> float:
        return self.instructions / self.seconds if self.seconds else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "seconds": self.seconds,
            "repeats": self.repeats,
            "instr_per_sec": self.instr_per_sec,
        }


def run_single_core(scale: float, workload: str = DEFAULT_WORKLOAD):
    """One victim workload on the performance core (no attacker)."""
    program = get_workload(workload).program(scale)
    return run_program(program, SystemConfig(core=_PERF_CORE))


def run_dual_core_attack():
    """Cross-core Flush+Reload: two cores, shared L2, coherence traffic."""
    from repro.attacks import FlushReloadAttack

    return FlushReloadAttack(cross_core=True).run().run_result


def run_speculative_spectre():
    """Flush+Reload against a Spectre-v1 victim (speculation + squashes)."""
    from repro.attacks import FlushReloadAttack

    return FlushReloadAttack(victim_mode="spectre").run().run_result


def _time_scenario(
    name: str, run: Callable[[], object], repeats: int
) -> ScenarioResult:
    result = run()  # untimed warm-up
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()  # lint: allow DET102
        result = run()
        elapsed = time.perf_counter() - start  # lint: allow DET102
        if elapsed < best:
            best = elapsed
    return ScenarioResult(
        name=name,
        instructions=result.instructions,
        cycles=result.cycles,
        seconds=best,
        repeats=max(1, repeats),
    )


def run_bench(
    scale: float = DEFAULT_SCALE,
    repeats: int = 3,
    workload: str = DEFAULT_WORKLOAD,
) -> dict:
    """Run all three scenarios; returns the JSON-able report."""
    scenarios = {
        "single_core_victim": lambda: run_single_core(scale, workload),
        "dual_core_attack": run_dual_core_attack,
        "speculative_spectre": run_speculative_spectre,
    }
    report = {
        "schema": SCHEMA,
        "workload": workload,
        "scale": scale,
        "repeats": max(1, repeats),
        "scenarios": {},
    }
    for name in SCENARIO_NAMES:
        report["scenarios"][name] = _time_scenario(
            name, scenarios[name], repeats
        ).as_dict()
    return report


def write_report(report: dict, path: str | pathlib.Path) -> pathlib.Path:
    """Serialise a :func:`run_bench` report to ``path`` (parents created)."""
    path = pathlib.Path(path)
    if path.parent != pathlib.Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path


def render_report(report: dict) -> str:
    """Human-readable summary table of one report."""
    lines = [
        f"Simulator throughput (workload {report['workload']}, "
        f"scale {report['scale']}, best of {report['repeats']})",
    ]
    for name in SCENARIO_NAMES:
        cell = report["scenarios"][name]
        lines.append(
            f"  {name:<20} {cell['instr_per_sec']:>12,.0f} instr/s "
            f"({cell['instructions']} instr in {cell['seconds']*1000:.1f} ms)"
        )
    return "\n".join(lines)
