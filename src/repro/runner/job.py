"""Canonical simulation jobs with lossless, content-addressed keys.

The experiment layer used to memoise runs behind a hand-written tuple key
that encoded a handful of ``PrefenderConfig`` fields and silently rebuilt
the rest from defaults — any sweep varying a non-encoded knob (e.g.
``at_threshold``) read back cycles for the wrong configuration.  The job
key here is derived *structurally*: :func:`fingerprint` walks every
``dataclasses.fields`` entry of the full ``SystemConfig`` tree (prefetcher
spec, PREFENDER knobs, core timing, hierarchy geometry), so a newly added
config field participates in the key automatically and can never fall out
of it again (``tests/test_runner.py`` asserts this field-by-field).

Two job kinds cover everything the experiments run:

* :class:`SimJob` — one workload program on one system config
  (:func:`repro.sim.simulator.run_program`); returns the run's
  :class:`~repro.cpu.system.RunResult`, which is JSON round-trippable, so
  results can live in the on-disk store.  Inside :func:`shared_runs` (an
  inline batch), jobs whose effective keys match share one simulation,
  and jobs whose functional keys match share one instruction stream:
  the first is recorded, the rest replay its loads and stores.
* :class:`ScenarioJob` — one attack (by registry name) against one victim
  under one system config, for one secret.  The paper's own victim is the
  ``direct`` one, a single access at index ``secret``; the crypto victims
  of :mod:`repro.attacks.scenarios` are the others.  Its
  :class:`ScenarioProbe` scores the candidate set against the victim's
  *expected access footprint* (multi-line victims are recovered when the
  attacker isolates exactly those lines) and keeps the raw latencies, so
  the leakage scorer can estimate mutual information.  JSON-able and
  disk-cacheable, so repeated security grids are served warm.

A caller that wants a run's prefetch trace (Fig. 9) builds the system
itself and attaches one (:meth:`MemoryHierarchy.attach_trace
<repro.mem.hierarchy.MemoryHierarchy.attach_trace>`); no job records one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Any, Iterator

from repro.attacks import (
    AdversarialPrefetchA1,
    AdversarialPrefetchA2,
    AttackOutcome,
    EvictReloadAttack,
    EvictTimeAttack,
    FlushReloadAttack,
    PrimeProbeAttack,
)
from repro.attacks.base import verdict_line
from repro.attacks.layout import AttackOptions
from repro.cpu.access_trace import AccessTrace, replayable
from repro.cpu.system import RunResult
from repro.errors import ConfigError
from repro.isa.program import Program
from repro.mem.hierarchy import HierarchyConfig
from repro.sim.config import PrefetcherSpec, SystemConfig
from repro.sim.simulator import record_program, replay_program, run_program
from repro.workloads import get_workload

#: Bump when the key schema or the simulator's observable semantics change;
#: invalidates every on-disk store entry at once.
#: v2: Record Protector idle-expiry sweep, MSHR demand-priority prefetch
#: squash and Baer–Chen stride confidence gating all shift cycle counts;
#: the run result additionally grew ``defense_stats``.
#: v3: ``HierarchyConfig`` lost the switch of the always-on prefetch
#: timeline, which moves every key, and a ``SimJob`` stores its
#: ``RunResult`` itself.
KEY_VERSION = 3

#: Attack registry names (shared with the CLI's ``attack`` command).
ATTACK_KINDS = {
    "flush-reload": FlushReloadAttack,
    "evict-reload": EvictReloadAttack,
    "prime-probe": PrimeProbeAttack,
    "evict-time": EvictTimeAttack,
    "adversarial-prefetch-a1": AdversarialPrefetchA1,
    "adversarial-prefetch-a2": AdversarialPrefetchA2,
}

#: Family name the CLI expands to every adversarial-prefetch variant.
ADVERSARIAL_PREFETCH_FAMILY = "adversarial-prefetch"
ADVERSARIAL_PREFETCH_VARIANTS = {
    "a1": "adversarial-prefetch-a1",
    "a2": "adversarial-prefetch-a2",
}


#: Instance-dict slot where a ``SystemConfig`` keeps its own fingerprint.
_FINGERPRINT = "_fingerprint"


def fingerprint(value: object) -> object:
    """Canonical JSON-able projection of a job or config value.

    Dataclasses contribute *every* field (via ``dataclasses.fields``) plus
    their class name; containers recurse; scalars pass through.  Anything
    unrecognised is an error — silence here is exactly the bug this module
    replaces.

    A ``SystemConfig`` is walked once per instance and its projection kept
    on that instance: a grid shares one config object between every job of
    a defense row, so each later key walks only the job's own fields.  The
    cache follows identity, never equality (``1``, ``1.0`` and ``True``
    compare equal but fingerprint differently), and a ``replace``d config is
    a new object that walks afresh.  Every key of a config shares its cached
    dict, so no caller may mutate it; :func:`job_key` and
    :meth:`~repro.runner.store.ResultStore.put` only serialise it.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, SystemConfig):
        cached = value.__dict__.get(_FINGERPRINT)
        if cached is None:
            cached = _fields(value)
            # Frozen dataclasses refuse setattr.  Writing the instance dict
            # keeps the cache out of the dataclass fields, so ==, hash,
            # replace() and fields() never see it, and it dies with the
            # object.
            value.__dict__[_FINGERPRINT] = cached
        return cached
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _fields(value)
    if isinstance(value, (list, tuple)):
        return [fingerprint(item) for item in value]
    if isinstance(value, dict):
        return {str(key): fingerprint(val) for key, val in sorted(value.items())}
    raise ConfigError(
        f"cannot fingerprint {type(value).__name__!r} into a job key"
    )


def _fields(value: Any) -> dict[str, object]:
    """A dataclass instance's class name and every field, fingerprinted."""
    out: dict[str, object] = {"__class__": type(value).__name__}
    for f in dataclasses.fields(value):
        out[f.name] = fingerprint(getattr(value, f.name))
    return out


def job_key(job: object) -> str:
    """Content hash of a job: sha256 over its canonical JSON fingerprint."""
    blob = json.dumps(
        {"version": KEY_VERSION, "job": fingerprint(job)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SimJob:
    """One workload program on one fully specified system configuration.

    :meth:`run` returns the run's :class:`~repro.cpu.system.RunResult`.

    Attributes:
        workload: registry name from :mod:`repro.workloads`.
        scale: loop-count multiplier (> 0); 1.0 is the paper's size.
        system: the full :class:`~repro.sim.config.SystemConfig` — every
            field participates in :meth:`key`.
        sample_interval: record ``(step, protected buffer count)`` samples
            every N steps (``None`` disables sampling; figure 12 uses it).
        max_steps: simulation step budget (guards runaway programs).
    """

    workload: str
    scale: float = 1.0
    system: SystemConfig = field(default_factory=SystemConfig)
    sample_interval: int | None = None
    max_steps: int = 20_000_000

    #: RunResults are JSON round-trippable, so the disk store may keep them.
    cacheable = True

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigError(f"workload scale must be > 0, got {self.scale}")

    def key(self) -> str:
        return job_key(self)

    def run(self) -> RunResult:
        """Simulate the job; inside :func:`shared_runs`, share or replay
        what an earlier job of the batch simulated (see there)."""
        program = get_workload(self.workload).program(self.scale)
        table = _SHARED_RUNS.get()
        if table is None:
            return self._simulate(program)
        return table.run(self, program)

    def _simulate(self, program: Program) -> RunResult:
        return run_program(
            program,
            self.system,
            max_steps=self.max_steps,
            sample_interval=self.sample_interval,
        )


def _effective_system(system: SystemConfig, load_pcs: int) -> SystemConfig:
    """The config ``system`` behaves as on a program with ``load_pcs``
    load PCs: a PREFENDER's clamped by
    :meth:`~repro.core.config.PrefenderConfig.for_load_pcs`, or ``system``
    itself when no clamp changes it."""
    spec = system.prefetcher
    if not spec.kind.startswith("prefender"):
        return system
    prefender = spec.prefender.for_load_pcs(load_pcs)
    if prefender is spec.prefender:
        return system
    return replace(system, prefetcher=replace(spec, prefender=prefender))


def _functional_system(system: SystemConfig) -> SystemConfig:
    """``system`` with the prefetcher spec and the hierarchy config at
    their defaults: the two only pick latencies, so what is left decides
    a replayable lone core's instruction stream."""
    return replace(system, prefetcher=PrefetcherSpec(), hierarchy=HierarchyConfig())


class _ShareTable:
    """What the :class:`SimJob` runs inside one :func:`shared_runs` block
    share: results by effective key, traces by functional key, and each
    config object's derived configs."""

    __slots__ = ("_results", "_traces", "_systems")

    def __init__(self) -> None:
        # Effective key -> the first such job's result, as to_json.
        self._results: dict[str, dict[str, Any]] = {}
        # Functional key -> the first such job's trace.
        self._traces: dict[str, AccessTrace] = {}
        # id(config) -> (config, its functional config, its effective
        # config by load-PC count).  Keyed by identity, as fingerprint
        # caches, never by ==: 1, 1.0 and True compare equal but key
        # differently.  The entry holds the config itself, so the id is not
        # reused while the table lives, and each derived config, so each is
        # built and walked once a batch.
        self._systems: dict[
            int, tuple[SystemConfig, SystemConfig, dict[int, SystemConfig]]
        ] = {}

    def _derived(
        self, system: SystemConfig, load_pcs: int
    ) -> tuple[SystemConfig, SystemConfig]:
        """``system``'s effective config on a program with ``load_pcs``
        load PCs, and its functional config."""
        entry = self._systems.get(id(system))
        if entry is None:
            entry = self._systems[id(system)] = (
                system,
                _functional_system(system),
                {},
            )
        effective = entry[2].get(load_pcs)
        if effective is None:
            effective = entry[2][load_pcs] = _effective_system(system, load_pcs)
        return effective, entry[1]

    def run(self, job: SimJob, program: Program) -> RunResult:
        """``job``'s result on ``program``: a copy of an earlier job's with
        the same effective key, a replay of the trace an earlier job with
        the same functional key recorded, or a full simulation, recorded
        when the job may be replayed."""
        effective, functional = self._derived(job.system, program.load_pc_count())
        key = replace(job, system=effective).key()
        stored = self._results.get(key)
        if stored is not None:
            return RunResult.from_json(stored)
        if (
            job.system.num_cores != 1
            or job.sample_interval
            or not replayable(program, job.system.core)
        ):
            result = job._simulate(program)
        else:
            trace_key = replace(job, system=functional).key()
            trace = self._traces.get(trace_key)
            if trace is None:
                result, self._traces[trace_key] = record_program(
                    program, job.system, max_steps=job.max_steps
                )
            else:
                result = replay_program(program, job.system, trace)
        self._results[key] = result.to_json()
        return result


#: The open share table of :func:`shared_runs`, or ``None`` outside one.
#: A context variable, not an argument, because every caller of
#: ``SimJob.run`` (the executor, a pool worker, code that wraps the
#: method) calls it bare.
_SHARED_RUNS: ContextVar[_ShareTable | None] = ContextVar(
    "shared_runs", default=None
)


@contextmanager
def shared_runs() -> Iterator[None]:
    """Share work between the :class:`SimJob` runs made inside.

    * **Equal results.**  A job's *effective key* is its key with a
      PREFENDER's buffer count clamped to the program's load PCs
      (:meth:`~repro.core.config.PrefenderConfig.for_load_pcs`).  The first
      job of each effective key runs with its own config; each later one
      gets an equal but separate :class:`~repro.cpu.system.RunResult`.
    * **One instruction stream.**  A job's *functional key* is its key
      with the prefetcher spec and the hierarchy config at their defaults.
      When the job is single-core, unsampled and its program is
      :func:`~repro.cpu.access_trace.replayable` under its core config,
      the first job of each functional key runs in full on a hierarchy
      that records its loads and stores, and each later one replays that
      trace on its own hierarchy and prefetcher
      (:func:`~repro.sim.simulator.replay_program`); the result is the one
      a full run gives.

    Every job still makes its own :meth:`SimJob.run` call.  Results and
    traces live and die with the block, so nothing is shared between two
    blocks, and runs outside a block (in a worker process, say) simulate
    every job.
    """
    token = _SHARED_RUNS.set(_ShareTable())
    try:
        yield
    finally:
        _SHARED_RUNS.reset(token)


@dataclass
class ScenarioProbe:
    """JSON-serialisable outcome of one attack × victim × defense trial.

    ``expected`` is the victim's secret-dependent access footprint (from
    :meth:`repro.workloads.crypto.CryptoVictim.expected_indices`);
    ``succeeded`` means the attacker's candidate set singled out exactly
    that footprint.  ``latencies`` keeps the per-index measurements so
    :mod:`repro.attacks.leakage` can estimate the mutual information
    between the secret and the attacker's observable, and
    ``defense_stats`` carries the per-core PREFENDER counters (protection
    lifecycle, buffer starvation) of the run.
    """

    attack: str
    victim: str
    challenges: str
    secret: int
    expected: list[int]
    candidates: list[int]
    latencies: list[int]
    succeeded: bool
    cycles: int
    defense_stats: list[dict[str, int]]

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ScenarioProbe":
        return cls(
            attack=str(data["attack"]),
            victim=str(data["victim"]),
            challenges=str(data["challenges"]),
            secret=int(data["secret"]),
            expected=[int(index) for index in data["expected"]],
            candidates=[int(index) for index in data["candidates"]],
            latencies=[int(latency) for latency in data["latencies"]],
            succeeded=bool(data["succeeded"]),
            cycles=int(data["cycles"]),
            defense_stats=[
                {str(key): int(value) for key, value in stats.items()}
                for stats in data.get("defense_stats", [])
            ],
        )

    def summary(self, defense_label: str) -> str:
        """One verdict line, in :meth:`AttackOutcome.summary`'s format."""
        return verdict_line(
            ATTACK_KINDS[self.attack].name,
            self.challenges,
            defense_label,
            self.succeeded,
            self.candidates,
            self.secret,
        )


@dataclass(frozen=True)
class ScenarioJob:
    """One attack on one victim for one secret, scored by footprint.

    The victim name and trial secret live inside ``options`` (both are
    :class:`~repro.attacks.layout.AttackOptions` fields), so the content
    key covers them automatically; prefer :meth:`build`, which resolves
    the attack's option defaults (and a named victim's probe-array
    geometry) *into* the key.

    Attributes:
        attack: key into :data:`ATTACK_KINDS` (e.g. ``"flush-reload"``).
        system: the defense under attack; ``num_cores`` and speculation
            settings are adjusted by the attack itself at run time.
        options: resolved :class:`~repro.attacks.layout.AttackOptions`.
        max_steps: simulation step budget.
    """

    attack: str
    system: SystemConfig = field(default_factory=SystemConfig)
    options: AttackOptions = field(default_factory=AttackOptions)
    max_steps: int = 20_000_000

    #: ScenarioProbes are JSON round-trippable; attack grids cache warm.
    cacheable = True

    def __post_init__(self) -> None:
        if self.attack not in ATTACK_KINDS:
            raise ConfigError(
                f"unknown attack {self.attack!r}; "
                f"choose from {sorted(ATTACK_KINDS)}"
            )

    @classmethod
    def build(
        cls, attack: str, system: SystemConfig | None = None, **option_overrides: Any
    ) -> "ScenarioJob":
        """Job with the attack class's default options merged in.

        Attack classes carry per-class option defaults (e.g. Prime+Probe's
        48 monitored sets and secret 37); instantiating one resolves the
        merge so the job key reflects the *effective* options.  When the
        overrides name a ``victim``, the probe array is sized to that
        victim's index map and the secret is checked against its space.
        """
        if attack not in ATTACK_KINDS:
            raise ConfigError(
                f"unknown attack {attack!r}; choose from {sorted(ATTACK_KINDS)}"
            )
        victim = option_overrides.get("victim")
        if victim is None:
            options = ATTACK_KINDS[attack](**option_overrides).options
        else:
            from repro.workloads.crypto import get_victim

            descriptor = get_victim(victim)
            options = ATTACK_KINDS[attack](
                **{**option_overrides, "num_indices": descriptor.num_indices}
            ).options
            if not 0 <= options.secret < descriptor.secret_space:
                raise ConfigError(
                    f"secret {options.secret} outside victim {victim!r} space "
                    f"0..{descriptor.secret_space - 1}"
                )
        return cls(attack=attack, system=system or SystemConfig(), options=options)

    def key(self) -> str:
        return job_key(self)

    def run(self) -> ScenarioProbe:
        attack = ATTACK_KINDS[self.attack](self.options)
        outcome = attack.run(self.system, max_steps=self.max_steps)
        return self.probe_from_outcome(outcome)

    def probe_from_outcome(self, outcome: AttackOutcome) -> ScenarioProbe:
        """Score one classified outcome against the victim's footprint.

        Shared by :meth:`run` (rebuild path) and the snapshot-replay runner
        (:mod:`repro.attacks.replay`), so both paths produce probes through
        the same scoring code.
        """
        from repro.workloads.crypto import get_victim

        expected = get_victim(self.options.victim).expected_indices(
            self.options.secret, self.options
        )
        candidates = outcome.candidates
        return ScenarioProbe(
            attack=self.attack,
            victim=self.options.victim,
            challenges=outcome.challenges,
            secret=self.options.secret,
            expected=list(expected),
            candidates=list(candidates),
            latencies=list(outcome.latencies),
            succeeded=set(candidates) == set(expected),
            cycles=outcome.run_result.cycles,
            defense_stats=[
                dict(stats) for stats in outcome.run_result.defense_stats
            ],
        )
