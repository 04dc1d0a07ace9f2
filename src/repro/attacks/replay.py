"""Warm snapshot replay for scenario trial grids.

A scenario cell runs the *same* attack × victim × defense system once per
trial secret, and the only input that differs between trials is the one
data word every attack writes at ``AttackLayout.secret_addr`` (the victim
loads its secret from there; see :mod:`repro.workloads.crypto`).  Execution
is therefore bit-identical across trials up to the victim's first load of
that word: the attacker's whole prepare phase, the cross-core handshake,
the program build and the system construction are all shared prefix.

:func:`replay_group` exploits that: it builds the cell's system once, from
the cell's secret-neutral job (:func:`neutral_job`, secret 0), runs it up
to (but not including) the first demand load of the secret word,
snapshots, and then serves every trial by ``restore -> poke(secret) ->
run-to-completion -> classify``.  Since no build carries a trial's secret,
the six defense rows of a (victim, attack) pair ask
:meth:`~repro.attacks.base.CacheAttack.prepare` for the same programs, and
its memo builds them once for all six.  The memory patch is sound because
cache lines carry metadata only — data values are always read from
``MainMemory`` at access time — and :meth:`MainMemory.poke` leaves the
read/write counters untouched, so a replayed trial is state-for-state
identical to a rebuilt one (``tests/test_scenarios.py`` pins byte
equality; ``tests/test_snapshot_parity.py`` proves the underlying
snapshot/restore protocol cycle-exact).

Eligibility is conservative: only ``victim_mode == "direct"`` trials
replay (the spectre transient victim reads a different address under
speculation); anything else falls back to the per-job rebuild path in
:func:`repro.runner.executor.run_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any

from repro.cpu.system import System
from repro.errors import SimulationError
from repro.sim.config import SystemConfig

if TYPE_CHECKING:
    from repro.runner.job import ScenarioJob, ScenarioProbe


def replay_eligible(job: ScenarioJob) -> bool:
    """True when ``job`` (a ScenarioJob) can be served off a warm snapshot."""
    return job.options.victim_mode == "direct"


def neutral_job(job: ScenarioJob) -> ScenarioJob:
    """``job`` with its trial secret set to 0: what its whole cell shares.

    Every trial pokes its own secret before the victim first loads it, so
    the neutral job's build serves every secret of the cell.
    """
    return replace(job, options=replace(job.options, secret=0))


def replay_group_key(job: ScenarioJob) -> str:
    """Content key of a trial's cell: the key of its :func:`neutral_job`.

    Two jobs share a warm snapshot iff they differ *only* in the trial
    secret; deriving the group key through the same structural fingerprint
    as :func:`repro.runner.job.job_key` means any new config field splits
    groups automatically instead of silently sharing a stale image.  The
    group's warm system is built from this same neutral job, so key and
    build agree by construction.
    """
    from repro.runner.job import job_key

    return job_key(neutral_job(job))


def replay_cell(job: ScenarioJob) -> tuple[Any, ...]:
    """A cheap key that refines :func:`replay_group_key`: jobs with equal
    cells have equal group keys.

    It holds every field of ``job`` but the trial secret, each scalar as
    ``(type, value)`` and each ``SystemConfig`` by identity, because ``1``,
    ``1.0`` and ``True`` compare equal but fingerprint differently.  Jobs
    of one cell may still sit in different cells here (two equal configs
    are two identities), so a planner keys each cell once and merges cells
    whose group keys match.  The options must hold scalars only, as
    :class:`~repro.attacks.layout.AttackOptions` does.
    """
    parts: list[Any] = []
    for field in fields(job):
        value = getattr(job, field.name)
        if isinstance(value, SystemConfig):
            parts.append(id(value))
        elif field.name == "options":
            options: list[Any] = []
            for option in fields(value):
                if option.name != "secret":
                    item = getattr(value, option.name)
                    options.append((option.name, type(item), item))
            parts.append(tuple(options))
        else:
            parts.append((type(value), value))
    return tuple(parts)


@dataclass(frozen=True)
class ScenarioReplayJob:
    """One warm-snapshot task: a cell's trial jobs served off one image.

    Shaped like any other runner job (``run()``, ``cacheable``) so it rides
    the existing pool/executor backends, but ``run`` returns one
    ``ScenarioProbe`` *per member job*, in member order; the executor fans
    the list back out to the members' content keys (which also feed the
    disk store, so replayed probes cache exactly like rebuilt ones).
    """

    jobs: tuple[ScenarioJob, ...]

    #: The group task itself is never stored — its members are, per-key.
    cacheable = False

    def run(self) -> list[ScenarioProbe]:
        return replay_group(list(self.jobs))


def replay_group(jobs: list[ScenarioJob]) -> list[ScenarioProbe]:
    """Serve a cell's trials off one warmed snapshot, in input order.

    The warm system is built from the cell's :func:`neutral_job`, not from
    any member, so its programs are the ones every cell of the same
    (victim, attack) pair asks for; each trial is still classified with its
    own options.
    """
    from repro.runner.job import ATTACK_KINDS

    base = neutral_job(jobs[0])
    attack_cls = ATTACK_KINDS[base.attack]
    attack = attack_cls(base.options)
    system, config = attack.prepare(base.system)
    watch = attack.layout.secret_addr
    warm_steps = _run_to_watch(system, watch, base.max_steps)
    image = system.snapshot()
    budget = base.max_steps - warm_steps
    probes: list[ScenarioProbe] = []
    for job in jobs:
        system.restore(image)
        system.hierarchy.memory.poke(watch, job.options.secret)
        result = system.run(max_steps=budget)
        trial_attack = attack_cls(job.options)
        outcome = trial_attack.classify(system, config, result)
        probes.append(job.probe_from_outcome(outcome))
    return probes


def _run_to_watch(system: System, watch: int, max_steps: int) -> int:
    """Advance the system to just before the first demand load of ``watch``.

    :meth:`System.run_steps <repro.cpu.system.System.run_steps>` stops
    there in the scheduler's own order, before the first instruction whose
    outcome can depend on the secret value.  Returns the steps taken; if
    every core halts without touching ``watch`` the secret is dead and the
    end state itself is a valid (trivial) snapshot point.

    Raises:
        SimulationError: when work is left after ``max_steps`` steps, as
            :meth:`System.run` does.
    """
    steps = system.run_steps(max_steps, stop_before_load=watch)
    if steps == max_steps and not all(core.halted for core in system.cores):
        raise SimulationError(
            f"exceeded {max_steps} scheduler steps warming a scenario "
            "snapshot; a program probably fails to halt"
        )
    return steps
