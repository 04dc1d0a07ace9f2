"""The benchmark's three workloads.

Each workload is a closed loop with one caller: the whole grid is one
batch, run inline (``jobs=1``, no ``ResultStore``), and the next pass starts
only when the last one has finished.  The seed only permutes the order in
which jobs, columns and trials are submitted; every output is keyed by what
it is, so a pass under any seed must reproduce the pinned outputs exactly.

* ``perf-table4`` -- the Table IV grid at scale 0.5: 12 SPEC2006-like
  workloads x (11 prefetcher columns + the no-prefetcher baseline) = 144
  single-core simulations on the OoO-like ``PERF_CORE``.  A unit is one
  simulation.
* ``security-grid`` -- 3 crypto victims x 5 default attacks x all 6 defense
  rows x 16 secrets = 1440 trials in 90 cells, through
  ``run_batch(reuse_snapshots=True)`` and ``slice_trials``.  A unit is one
  trial.
* ``certify-grid`` -- the static certifier over the same 90 cells with 16
  secrets.  A unit is one cell.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.analysis import scenario as certify_mod
from repro.attacks import replay
from repro.attacks.scenarios import (
    DEFAULT_ATTACKS,
    DEFAULT_VICTIMS,
    build_grid,
    slice_trials,
)
from repro.errors import ReproError, SimulationError
from repro.experiments import common, table4
from repro.runner import ScenarioJob, ScenarioProbe, SimJob, SimResult, executor
from repro.workloads import SPEC2006_NAMES

SCALE = 0.5
SECRETS = 16
#: The Table IV column whose average is the paper's headline speedup.
HEADLINE_COLUMN = "ST+AT(S)/32"
BASELINE = "baseline"


def _permuted(items: Any, rng: random.Random) -> list[Any]:
    items = list(items)
    rng.shuffle(items)
    return items


@dataclass
class PassOutcome:
    """What one pass produced, keyed for an order-free comparison.

    ``outputs`` maps a check id to the value pinned for it; ``raised`` holds
    the check ids whose units raised instead of finishing.  ``figures`` are
    the simulated headline numbers the pass derives from its outputs.
    """

    outputs: dict[str, Any]
    raised: set[str]
    figures: dict[str, float]


class Workload:
    """One benchmark workload: a grid built once, run pass after pass."""

    name = ""
    unit = ""
    units = 0
    #: Host-speed samples ``run.py`` takes before each unit; long units
    #: take more, so the samples stay spread evenly over a pass.
    speed_samples = 2

    def run_pass(self) -> PassOutcome:
        raise NotImplementedError

    def units_of(self, check_id: str) -> int:
        """Units a check id covers (a failed check fails all of them)."""
        return 1

    def first_unit_site(self) -> tuple[Any, str]:
        """The (owner, attribute) called when the first unit starts."""
        raise NotImplementedError

    def between_units(self) -> None:
        """Called before each unit starts; ``run.py`` samples host speed here."""


def _guard(owner: type, name: str, on_call: Callable[..., Any]) -> None:
    """Route ``owner.name`` through ``on_call(original, *args)``."""
    original = owner.__dict__[name]

    def guarded(*args: Any, **kwargs: Any) -> Any:
        return on_call(original, *args, **kwargs)

    setattr(owner, name, guarded)


class PerfTable4(Workload):
    """Table IV at scale 0.5 through ``improvement_rows``."""

    name = "perf-table4"
    unit = "simulation"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.names = _permuted(SPEC2006_NAMES, rng)
        self.columns = _permuted(table4._columns(with_rp=False), rng)
        self.labels = {spec: header for header, spec in self.columns}
        self.labels[common.BASELINE_SPEC] = BASELINE
        self.units = len(self.names) * (len(self.columns) + 1)
        self._results: dict[str, SimResult] = {}
        self._raised: set[str] = set()
        _guard(SimJob, "run", self._run_unit)

    def _unit_id(self, job: SimJob) -> str:
        return f"{job.workload}|{self.labels[job.system.prefetcher]}"

    def _run_unit(self, original: Callable[..., SimResult], job: SimJob) -> SimResult:
        unit_id = self._unit_id(job)
        self.between_units()
        try:
            result = original(job)
        except SimulationError:
            self._raised.add(unit_id)
            result = SimResult(
                cycles=1, instructions=0, core_cycles=[], core_instructions=[],
                l1d_stats=[], l2_stats={}, prefetch_counts=[],
            )
        self._results[unit_id] = result
        return result

    def run_pass(self) -> PassOutcome:
        # The in-process memo would turn every pass after the first into
        # dict lookups.
        common.clear_cycle_cache()
        self._results = {}
        self._raised = set()
        rows, averages = common.improvement_rows(
            self.names, self.columns, SCALE, workers=1
        )
        outputs = {
            unit_id: [result.cycles, result.instructions]
            for unit_id, result in self._results.items()
        }
        raised = set(self._raised)
        headers = [header for header, _ in self.columns]
        for row in rows:
            name = row[0]
            base = self._results.get(f"{name}|{BASELINE}")
            ids = [f"{name}|{header}" for header in [BASELINE] + headers]
            # A prefetcher changes timing, never the retired instruction
            # count: every column of one workload must agree.
            if len({outputs.get(unit_id, [0, -1])[1] for unit_id in ids}) != 1:
                raised.update(ids)
            for header, value in zip(headers, row[1:]):
                unit_id = f"{name}|{header}"
                result = self._results.get(unit_id)
                if base is None or result is None or value != base.cycles / result.cycles - 1.0:
                    raised.add(unit_id)
        headline = averages[headers.index(HEADLINE_COLUMN)] * 100.0
        return PassOutcome(outputs, raised, {"prefender_speedup_pct": headline})

    def first_unit_site(self) -> tuple[Any, str]:
        return SimJob, "run"


class SecurityGrid(Workload):
    """The 90-cell scenario grid, replayed off warm snapshots."""

    name = "security-grid"
    unit = "trial"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.specs, self.jobs = build_grid(
            tuple(_permuted(DEFAULT_VICTIMS, rng)),
            tuple(_permuted(DEFAULT_ATTACKS, rng)),
            tuple(_permuted(common.DEFENSES, rng)),
            SECRETS,
        )
        self.order = _permuted(range(len(self.jobs)), rng)
        self.units = len(self.jobs)
        self._raised_jobs: set[int] = set()
        _guard(replay.ScenarioReplayJob, "run", self._run_group)
        _guard(ScenarioJob, "run", self._run_trial)

    @staticmethod
    def _cell_id(victim: str, attack: str, defense: str) -> str:
        return f"{victim}|{attack}|{defense}"

    def _placeholder(self, job: ScenarioJob) -> ScenarioProbe:
        self._raised_jobs.add(id(job))
        return ScenarioProbe(
            attack=job.attack, victim=job.options.victim, challenges="",
            secret=job.options.secret, expected=[], candidates=[],
            latencies=[], succeeded=False, cycles=0, defense_stats=[],
        )

    def _run_group(self, original: Callable[..., Any], group: Any) -> list[ScenarioProbe]:
        self.between_units()
        try:
            return original(group)
        except SimulationError:
            return [self._placeholder(job) for job in group.jobs]

    def _run_trial(self, original: Callable[..., Any], job: ScenarioJob) -> ScenarioProbe:
        self.between_units()
        try:
            return original(job)
        except SimulationError:
            return self._placeholder(job)

    def run_pass(self) -> PassOutcome:
        self._raised_jobs = set()
        submitted = [self.jobs[index] for index in self.order]
        returned = executor.run_batch(submitted, workers=1, reuse_snapshots=True)
        probes: list[Any] = [None] * len(self.jobs)
        for index, probe in zip(self.order, returned):
            probes[index] = probe
        cells = slice_trials(self.specs, probes, SECRETS)
        outputs: dict[str, Any] = {}
        raised: set[str] = set()
        cursor = 0
        for cell in cells:
            spec = cell.spec
            cell_id = self._cell_id(spec.victim, spec.attack, spec.defense)
            outputs[cell_id] = [cell.score.success_rate, cell.score.mi_bits]
            members = self.jobs[cursor : cursor + cell.score.trials]
            cursor += cell.score.trials
            if any(id(job) in self._raised_jobs for job in members):
                raised.add(cell_id)
        full = [cell.score for cell in cells if cell.spec.defense == "FULL"]
        figures = {
            "full_attack_success": sum(s.success_rate for s in full) / len(full),
            "full_leak_bits": sum(s.mi_bits for s in full) / len(full),
        }
        return PassOutcome(outputs, raised, figures)

    def units_of(self, check_id: str) -> int:
        return SECRETS

    def first_unit_site(self) -> tuple[Any, str]:
        return replay.ScenarioReplayJob, "run"


class CertifyGrid(Workload):
    """``certify_grid`` over the 90 cells, one call per (victim, attack)."""

    name = "certify-grid"
    unit = "cell"
    speed_samples = 8

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.pairs = _permuted(
            [(v, a) for v in DEFAULT_VICTIMS for a in DEFAULT_ATTACKS], rng
        )
        self.defenses = _permuted(common.DEFENSES, rng)
        self.units = len(self.pairs) * len(self.defenses)

    def run_pass(self) -> PassOutcome:
        outputs: dict[str, Any] = {}
        raised: set[str] = set()
        for victim, attack in self.pairs:
            self.between_units()
            try:
                report = certify_mod.certify_grid(
                    [victim], [attack], self.defenses, num_secrets=SECRETS
                )
            except ReproError:
                raised.update(f"{victim}|{attack}|{d}" for d in self.defenses)
                continue
            for cell in report.cells:
                outputs[f"{cell.victim}|{cell.attack}|{cell.defense}"] = cell.verdict
        unknown = sum(1 for verdict in outputs.values() if verdict == "UNKNOWN")
        return PassOutcome(
            outputs, raised, {"certify_unknown_frac": unknown / self.units}
        )

    def first_unit_site(self) -> tuple[Any, str]:
        return certify_mod, "certify_grid"


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PerfTable4, SecurityGrid, CertifyGrid)
}


def failed_units(
    workload: Workload, outcome: PassOutcome, pinned: dict[str, Any]
) -> int:
    """Units whose output differs from the pin, is missing, or raised."""
    failed = 0
    for check_id, expected in pinned.items():
        got = outcome.outputs.get(check_id)
        if check_id in outcome.raised or not same_value(got, expected):
            failed += workload.units_of(check_id)
    return failed


def same_value(got: Any, expected: Any) -> bool:
    if isinstance(expected, list):
        return (
            isinstance(got, list)
            and len(got) == len(expected)
            and all(same_value(g, e) for g, e in zip(got, expected))
        )
    if isinstance(expected, float):
        return isinstance(got, (int, float)) and math.isclose(
            got, expected, rel_tol=1e-12, abs_tol=1e-12
        )
    return bool(got == expected)
