"""Declarative scenario registry: attack × victim × defense × secret grids.

One scenario *cell* is an attack kind (anything in
:data:`repro.runner.ATTACK_KINDS`) against one crypto victim
(:mod:`repro.workloads.crypto`) under one defense configuration.  Each
cell runs once per trial secret, every trial is one content-keyed
:class:`~repro.runner.ScenarioJob`, and the whole grid is submitted as a
single :func:`~repro.runner.run_batch` — deduplication, process sharding
(``--jobs``), warm worker pools and the on-disk store all come for free
from the runner, replacing the per-attack wiring the experiment modules
used to hand-roll.

Cells are scored by :mod:`repro.attacks.leakage`: attacker success rate
over the trials plus a mutual-information estimate between the secret and
the attacker's candidate sets.  ``peak_allocation_failures`` surfaces the
Access Tracker's buffer starvation — the long multi-victim runs in this
grid are exactly the load under which the pre-fix Record Protector kept
quiescent PCs protected forever and drove that counter monotonically up.

CLI front door: ``python -m repro scenarios --victims … --attacks …
--defenses … --secrets N --jobs N --store``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.leakage import LeakageScore, score_trials
from repro.errors import ConfigError
from repro.runner import (
    ATTACK_KINDS,
    ResultStore,
    ScenarioJob,
    ScenarioProbe,
    WorkerPool,
    run_batch,
)
from repro.sim.config import PrefetcherSpec, SystemConfig
from repro.utils.tables import render_table
from repro.utils.textplot import ascii_scatter
from repro.workloads.crypto import get_victim

#: The three bundled crypto victims (the "direct" paper victim also
#: registers and can be requested explicitly, except by the set-indexed
#: Prime+Probe and Evict+Time, whose L1 sets alias past 64 indices).
DEFAULT_VICTIMS = ("aes-ttable", "rsa-sqmul", "ecdsa-window")

#: Probe-based attack kinds scored by default; Evict+Time is excluded for
#: the same reason the frontier excludes it (whole-run timing channels are
#: outside PREFENDER's threat model, paper Table II) but can be requested.
DEFAULT_ATTACKS = (
    "flush-reload",
    "evict-reload",
    "prime-probe",
    "adversarial-prefetch-a1",
    "adversarial-prefetch-a2",
)

DEFAULT_DEFENSES = ("Base", "FULL")

#: Trial secrets per cell (evenly spaced over the victim's secret space).
DEFAULT_SECRETS = 4


def defense_spec(label: str) -> PrefetcherSpec:
    """Resolve a defense column label ("Base", "FULL", "AT+RP", ...)."""
    from repro.experiments.common import DEFENSES, security_spec

    try:
        return security_spec(label)
    except KeyError:
        raise ConfigError(
            f"unknown defense {label!r}; choose from {DEFENSES}"
        ) from None


@dataclass(frozen=True)
class ScenarioSpec:
    """One grid cell: which attack hits which victim under which defense."""

    victim: str
    attack: str
    defense: str


@dataclass
class ScenarioCell:
    """A scored cell: the spec, its trials and the leakage verdict."""

    spec: ScenarioSpec
    score: LeakageScore
    probes: list[ScenarioProbe] = field(repr=False)

    @property
    def peak_allocation_failures(self) -> int:
        """Worst-trial Access Tracker buffer starvation (all cores)."""
        return max(
            (
                sum(stats.get("allocation_failures", 0) for stats in probe.defense_stats)
                for probe in self.probes
            ),
            default=0,
        )


@dataclass
class ScenarioResult:
    """The scored grid plus the axes that produced it."""

    victims: tuple[str, ...]
    attacks: tuple[str, ...]
    defenses: tuple[str, ...]
    secrets: int
    cells: list[ScenarioCell]

    def cell(self, victim: str, attack: str, defense: str) -> ScenarioCell:
        for cell in self.cells:
            if cell.spec == ScenarioSpec(victim, attack, defense):
                return cell
        raise ConfigError(f"no cell for {(victim, attack, defense)!r}")

    def victim_success(self, victim: str, defense: str) -> float:
        """Mean attacker success over every attack for one victim/defense."""
        scores = [
            cell.score.success_rate
            for cell in self.cells
            if cell.spec.victim == victim and cell.spec.defense == defense
        ]
        return sum(scores) / len(scores)


def build_grid(
    victims: tuple[str, ...],
    attacks: tuple[str, ...],
    defenses: tuple[str, ...],
    secrets: int,
) -> tuple[list[ScenarioSpec], list[ScenarioJob]]:
    """The declarative cross product, as (cell specs, ordered trial jobs).

    Jobs are grouped by cell in spec order (``secrets`` trials per cell),
    which is the slicing :func:`run` relies on.
    """
    if not victims or not attacks or not defenses:
        raise ConfigError(
            "scenarios need at least one victim, one attack and one defense"
        )
    systems = {label: SystemConfig(prefetcher=defense_spec(label)) for label in defenses}
    specs: list[ScenarioSpec] = []
    jobs: list[ScenarioJob] = []
    for victim in victims:
        descriptor = get_victim(victim)  # validates the name
        trial_secrets = descriptor.trial_secrets(secrets)
        for attack in attacks:
            for defense in defenses:
                specs.append(ScenarioSpec(victim=victim, attack=attack, defense=defense))
                jobs.extend(
                    ScenarioJob.build(
                        attack, systems[defense], victim=victim, secret=secret
                    )
                    for secret in trial_secrets
                )
    return specs, jobs


def slice_trials(
    specs: list[ScenarioSpec], probes: list[ScenarioProbe], secrets: int
) -> list[ScenarioCell]:
    """Regroup the flat probe list into scored cells, spec by spec.

    Trial counts are re-derived per victim (``trial_secrets`` clamps to the
    victim's secret space), so mixed-victim grids with different effective
    trial counts never misassign probes across cells.
    """
    cells = []
    cursor = 0
    for spec in specs:
        count = len(get_victim(spec.victim).trial_secrets(secrets))
        mine = list(probes[cursor : cursor + count])
        cursor += count
        cells.append(ScenarioCell(spec=spec, score=score_trials(mine), probes=mine))
    if cursor != len(probes):
        raise ConfigError(
            f"scenario grid shape drifted: {len(probes)} probes for "
            f"{cursor} expected trials"
        )
    return cells


def run(
    victims: tuple[str, ...] = DEFAULT_VICTIMS,
    attacks: tuple[str, ...] = DEFAULT_ATTACKS,
    defenses: tuple[str, ...] = DEFAULT_DEFENSES,
    secrets: int = DEFAULT_SECRETS,
    jobs: int = 1,
    store: ResultStore | None = None,
    pool: WorkerPool | None = None,
    reuse_snapshots: bool = True,
) -> ScenarioResult:
    """Run and score the whole grid through one ``run_batch``.

    ``reuse_snapshots`` (default on) builds each (victim, attack) pair's
    programs once for every defense row and each cell's system once, warms
    it to the victim's secret load, and replays every trial secret off the
    restored snapshot — byte-identical probes, about twice as fast (see
    README "Crypto-victim scenarios"); pass ``False`` to force the
    rebuild-per-trial path.
    """
    specs, trial_jobs = build_grid(victims, attacks, defenses, secrets)
    probes = run_batch(
        trial_jobs,
        workers=jobs,
        store=store,
        pool=pool,
        reuse_snapshots=reuse_snapshots,
    )
    cells = slice_trials(specs, probes, secrets)
    return ScenarioResult(
        victims=tuple(victims),
        attacks=tuple(attacks),
        defenses=tuple(defenses),
        secrets=secrets,
        cells=cells,
    )


def render(result: ScenarioResult) -> str:
    """Cell table + success/MI scatter + per-victim defense summary."""
    rows = [
        [
            cell.spec.victim,
            ATTACK_KINDS[cell.spec.attack].name,
            cell.spec.defense,
            f"{cell.score.success_rate:.2f}",
            f"{cell.score.mi_bits:.2f}/{cell.score.mi_ceiling_bits:.2f}",
            cell.peak_allocation_failures,
        ]
        for cell in result.cells
    ]
    table = render_table(
        ["victim", "attack", "defense", "success", "MI (bits)", "alloc fails"],
        rows,
        title=(
            f"Crypto-victim scenarios ({result.secrets} secrets/cell; "
            "MI = leaked bits of the secret, plug-in estimate)"
        ),
    )
    scatter = ascii_scatter(
        {
            defense: [
                (cell.score.mi_fraction, cell.score.success_rate)
                for cell in result.cells
                if cell.spec.defense == defense
            ]
            for defense in result.defenses
        },
        title="attacker success rate vs leaked-secret fraction (per cell)",
        x_label="MI fraction",
        y_label="success",
    )
    summary = ["Per-victim mean attacker success (over attacks):"]
    for victim in result.victims:
        parts = [
            f"{defense} {result.victim_success(victim, defense):.2f}"
            for defense in result.defenses
        ]
        summary.append(f"  {victim:>14}: " + "  ".join(parts))
    return "\n".join([table, "", scatter, ""] + summary)
