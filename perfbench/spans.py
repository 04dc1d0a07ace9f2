"""Layer tracing from outside the simulator.

The tracer wraps public functions and methods of the ``repro`` package at
class or module level (the hot classes use ``__slots__``, so per-instance
patching is impossible) and attributes host time to the layer each wrapped
call belongs to.  Nothing under ``src/`` is edited: the wrappers are
installed for the duration of a traced pass and removed afterwards.

Two kinds of record are kept, both in memory until the run ends:

* **spans** for job- and unit-level calls (a pass, ``improvement_rows``,
  ``run_batch``, one runner unit, one ``certify_grid`` call): name, layer,
  start, end, child time and the id of the span that caused it.  Every span
  of one pass carries that pass's id.
* **aggregates** for per-access calls (loads, prefetcher observations,
  tracker decisions, abstract cache transfers): count, total time and time
  spent in wrapped children, per ``(layer, parent layer)``.  Memory stays
  bounded however many accesses a pass makes.

A layer's self time is its total time minus the time its wrapped children
cover; summed over every layer plus the harness root it equals the traced
pass time exactly.
"""

from __future__ import annotations

import cProfile
import sys
import types
from time import perf_counter_ns
from typing import Any, Callable

from repro.analysis import analyzer, cachemodel, scenario as certify_mod
from repro.attacks import replay, scenarios
from repro.attacks.base import CacheAttack
from repro.core.access_tracker import AccessTracker
from repro.core.record_protector import RecordProtector
from repro.core.scale_tracker import ScaleTracker
from repro.cpu.system import RunResult, System
from repro.experiments import common
from repro.isa.builder import ProgramBuilder
from repro.mem.hierarchy import MemoryHierarchy
from repro.prefetch.base import Prefetcher
from repro.runner import executor, job as job_mod
from repro.sim import simulator
from repro.workloads.base import Workload

#: Prefetch components that are PREFENDER decoys (Scale Tracker, Access
#: Tracker, Access Tracker guided by the Record Protector).
DECOY_COMPONENTS = ("st", "at", "rp")

#: Layers whose calls are kept as individual spans; every other layer is
#: aggregated per (layer, parent layer).
SPAN_LAYERS = ("experiments", "runner", "analysis.certify")

#: The root span of every traced pass: time outside any wrapped call.
ROOT = "harness"
#: Host-speed sampling between units (``speed.py``), not program work.
CALIBRATION = "calibration"


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _method_sites(classes: list[type], names: tuple[str, ...]) -> list[tuple[Any, str]]:
    """Every (class, name) whose class body itself defines ``name``."""
    return [
        (cls, name)
        for cls in classes
        for name in names
        if name in cls.__dict__
    ]


def _function_sites(function: Callable[..., Any]) -> list[tuple[Any, str]]:
    """Every loaded ``repro`` module namespace that binds ``function``.

    A ``from x import f`` copies the binding, so a wrapper must replace the
    name in each importing module for calls through it to be seen.
    """
    sites = []
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                sites.append((module, attr))
    return sites


def _retired(system: System) -> int:
    return sum(core.stats.instructions_retired for core in system.cores)


class SimCounters:
    """Simulated counters summed over every simulated run's final state.

    These come from the modelled hardware, not the host, so they repeat
    exactly from run to run and may be cited as counts.
    """

    def __init__(self) -> None:
        self.instructions = 0
        self.l1d_accesses = 0
        self.l1d_misses = 0
        self.l2_accesses = 0
        self.l2_misses = 0
        self.prefetch_issued = 0
        self.prefetch_useful = 0
        self.decoys = 0
        self.allocation_failures = 0

    def add_run(self, result: RunResult) -> None:
        for stats in result.l1d_stats:
            self.l1d_accesses += int(stats["demand_accesses"])
            self.l1d_misses += int(stats["misses"])
            self.prefetch_issued += int(stats["prefetch_issued"])
            self.prefetch_useful += int(stats["useful_prefetches"])
        self.l2_accesses += int(result.l2_stats["demand_accesses"])
        self.l2_misses += int(result.l2_stats["misses"])
        for counts in result.prefetch_counts:
            self.decoys += sum(counts.get(name, 0) for name in DECOY_COMPONENTS)
        for stats in result.defense_stats:
            self.allocation_failures += stats.get("allocation_failures", 0)


class Tracer:
    """Installs layer wrappers, records spans and aggregates, removes them."""

    def __init__(self) -> None:
        # Active frames: [layer, child_ns, span_id]; the root frame is the
        # harness, so time outside any wrapped call lands there.
        self._stack: list[list[Any]] = [[ROOT, 0, 0]]
        self.aggregates: dict[tuple[str, str], list[int]] = {}
        self.spans: list[dict[str, Any]] = []
        self.calls: dict[str, int] = {}
        self.sim = SimCounters()
        self._saved: list[tuple[Any, str, Any]] = []
        self._pass_id = 0

    # -- installation -------------------------------------------------------------

    def _sites(self) -> list[tuple[str, list[tuple[Any, str]], str]]:
        """(layer, patch sites, call-count label) for every traced entry."""
        prefetchers = _subclasses(Prefetcher)
        attacks = _subclasses(CacheAttack)
        abstract = [cachemodel.HierarchyState, cachemodel.MultiCoreHierarchyState]
        transfer = ("__init__", "load", "store", "prefetch", "flush",
                    "copy", "join", "leq", "observable")
        return [
            ("experiments", _function_sites(common.improvement_rows), ""),
            ("runner", _function_sites(executor.run_batch), ""),
            ("runner", _method_sites(
                [job_mod.SimJob, job_mod.ScenarioJob, replay.ScenarioReplayJob],
                ("run",)), "runner.units"),
            ("runner.key", _method_sites(
                [job_mod.SimJob, job_mod.ScenarioJob], ("key",))
                + _function_sites(replay.replay_group_key), ""),
            ("isa.build", [(Workload, "program")]
                + _method_sites(attacks, ("build_programs",)), ""),
            ("isa.build", [(ProgramBuilder, "build")], "isa.programs_built"),
            ("analysis.strict", _function_sites(analyzer.analyze_program), ""),
            ("sim.build", _function_sites(simulator.build_system), ""),
            ("cpu", [(System, "run")] + _function_sites(replay._run_to_watch), ""),
            ("attacks.snapshot", [(System, "snapshot")], ""),
            ("attacks.restore", [(System, "restore")], ""),
            ("attacks.prepare", [(CacheAttack, "prepare")], ""),
            ("attacks.classify", [(CacheAttack, "classify")], ""),
            ("attacks.score", _function_sites(scenarios.score_trials)
                + [(job_mod.ScenarioJob, "probe_from_outcome")], ""),
            ("mem.load", [(MemoryHierarchy, "load")], "mem.loads"),
            ("mem.store", [(MemoryHierarchy, "store")], "mem.stores"),
            ("mem.flush", [(MemoryHierarchy, "flush")], "mem.flushes"),
            ("mem.sw_prefetch", [(MemoryHierarchy, "software_prefetch")],
                "mem.sw_prefetches"),
            ("prefetch", _method_sites(prefetchers, ("observe",)), ""),
            ("core.scale_tracker", [(ScaleTracker, "observe_load")], ""),
            ("core.access_tracker", [(AccessTracker, "observe_load")], ""),
            ("core.record_protector", _method_sites(
                [RecordProtector],
                ("guidance_for", "protect_after_allocation", "record_scale")), ""),
            ("analysis.cachemodel", _method_sites(abstract, transfer), ""),
            ("analysis.certify", _function_sites(certify_mod.certify_grid), ""),
        ]

    def install(self) -> None:
        # Calibration samples taken before installation are not a traced pass.
        self.aggregates.clear()
        for layer, sites, count_label in self._sites():
            for owner, name in sites:
                original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(original, layer, count_label))

    def remove(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- wrappers -----------------------------------------------------------------

    def wrap_calibration(self, sample: Callable[[], None]) -> Callable[[], None]:
        """Wrap the host-speed sampler so its time is a layer of its own,
        excluded from every other layer's self time."""
        return self._aggregate_wrapper(sample, CALIBRATION, "")

    def _wrap(self, function: Callable[..., Any], layer: str, count_label: str) -> Callable[..., Any]:
        if layer in SPAN_LAYERS:
            return self._span_wrapper(function, layer, count_label)
        if layer == "cpu":
            return self._cpu_wrapper(function)
        return self._aggregate_wrapper(function, layer, count_label)

    def _aggregate_wrapper(self, function: Callable[..., Any], layer: str, count_label: str) -> Callable[..., Any]:
        stack = self._stack
        aggregates = self.aggregates
        calls = self.calls
        clock = perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            frame = [layer, 0, parent[2]]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                key = (layer, parent[0])
                entry = aggregates.get(key)
                if entry is None:
                    aggregates[key] = [1, elapsed, frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += frame[1]
                if count_label:
                    calls[count_label] = calls.get(count_label, 0) + 1

        return traced

    def _cpu_wrapper(self, function: Callable[..., Any]) -> Callable[..., Any]:
        """Aggregate like any layer, and count what the host simulated.

        ``args[0]`` is the ``System`` for both ``System.run`` and the replay
        warm-up; instructions are counted as the retired-count delta, so a
        trial replayed off a snapshot counts only what it re-executes.
        """
        inner = self._aggregate_wrapper(function, "cpu", "")
        sim = self.sim

        def traced(*args: Any, **kwargs: Any) -> Any:
            system = args[0]
            before = _retired(system)
            result = inner(*args, **kwargs)
            sim.instructions += _retired(system) - before
            if isinstance(result, RunResult):
                sim.add_run(result)
            return result

        return traced

    def _span_wrapper(self, function: Callable[..., Any], layer: str, count_label: str) -> Callable[..., Any]:
        stack = self._stack
        spans = self.spans
        calls = self.calls
        clock = perf_counter_ns
        label = getattr(function, "__qualname__", layer)

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            span_id = len(spans) + 1
            record = {"id": span_id, "parent": parent[2], "pass": self._pass_id,
                      "layer": layer, "name": label}
            spans.append(record)
            frame = [layer, 0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[1] += end - start
                record.update(start_ns=start, end_ns=end, child_ns=frame[1])
                if count_label:
                    calls[count_label] = calls.get(count_label, 0) + 1

        return traced

    # -- passes -------------------------------------------------------------------

    def traced_pass(self, run: Callable[[], Any]) -> Any:
        """Run one pass under the root span and return its result."""
        self._pass_id += 1
        root = self._stack[0]
        root[2] = len(self.spans) + 1
        record = {"id": root[2], "parent": 0, "pass": self._pass_id,
                  "layer": ROOT, "name": "pass"}
        self.spans.append(record)
        child_before = root[1]
        start = perf_counter_ns()
        result = run()
        end = perf_counter_ns()
        record.update(start_ns=start, end_ns=end, child_ns=root[1] - child_before)
        return result

    def self_times_ns(self) -> dict[str, int]:
        """Self time per layer over every traced pass, harness included."""
        totals: dict[str, int] = {}
        for (layer, _), (_, total, child) in self.aggregates.items():
            totals[layer] = totals.get(layer, 0) + total - child
        for span in self.spans:
            own = span["end_ns"] - span["start_ns"] - span["child_ns"]
            totals[span["layer"]] = totals.get(span["layer"], 0) + own
        return totals

    def passes(self) -> int:
        return self._pass_id


def count_python_calls(run: Callable[[], Any]) -> tuple[Any, int]:
    """Run ``run`` under a counting-only profile; returns (result, calls).

    Only the call counts of Python functions are read (built-ins excluded),
    so the figure depends on what the program does, not on how fast the
    host is, and repeats exactly for the same inputs.
    """
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run()
    finally:
        profile.disable()
    calls = sum(
        entry.callcount
        for entry in profile.getstats()
        if isinstance(entry.code, types.CodeType)
    )
    return result, calls
