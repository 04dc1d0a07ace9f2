"""Static attack-feasibility certifier: the scenario grid without running it.

PR 8's leak maps and PR 9's timing walk certify one program in isolation;
this module composes them into PREFENDER's actual claim — an attacker and
a victim sharing a hierarchy, with the defense's guided prefetches
destroying the attacker's observation.  Three layers:

* **Product walk** — the attacker and victim CFGs execute as an
  interleaved product over one shared
  :class:`~repro.analysis.cachemodel.HierarchyState` (one core per
  program) and one shared memory image: :func:`repro.analysis.timing._run`,
  the walker :func:`~repro.analysis.timing.secret_trials` runs with one
  core.
  Its scheduler is :meth:`repro.cpu.system.System.run_steps`'s: at every
  step the non-halted core with the smallest local time executes one
  instruction (strict ``<`` keeps the lower-index core on ties).  With
  more than one core the times must stay exact, so the schedule set is a
  *singleton* and the sound interleaving join over producible schedule
  points degenerates to the one schedule the simulator runs; the moment
  any latency interval widens the walker gives up and the verdict is
  ``UNKNOWN`` — never a guess.  A single-program attack walks one core
  with the timing walk's own semantics.
* **Observation** — the walk computes the attacker's *own measurements*:
  the rdcycle deltas its probe loop stores into the results array.  Those
  latencies classify into a candidate set with the attack's published
  ``hit_threshold`` / ``candidate_is_slow`` rule, through the function
  :class:`repro.attacks.base.AttackOutcome` calls,
  :func:`repro.attacks.base.candidate_indices`.  Each (victim, attack)
  pair is built once, and its walk is finished once per trial secret with
  only the data word at ``AttackLayout.secret_addr`` changed; that yields
  the attacker-observable vector per secret.  The walk, over one core or
  two, runs once to just before the first load of that word (the stop
  rule of ``System.run_steps(stop_before_load=)``) and forks there per
  secret: :func:`repro.analysis.timing._fork`, the one fork the timing
  verifier's :func:`~repro.analysis.timing.secret_trials` uses too.
* **Verdict** — :func:`certify` compares observables across secrets and
  applies the defense's abstract transformer
  (:mod:`repro.analysis.defense`): ``LEAKS`` when some secret pair stays
  distinguishable at an index the defense provably leaves untouched,
  ``DEFENDED`` when no pair is distinguishable once every distinguishing
  index is havocked to top (or none existed to begin with), ``UNKNOWN``
  when precision runs out (an unresolved walk, or a defense whose firing
  is only *possible*).

``tests/test_certify_oracle.py`` locks the certificate against the
dynamic scenario suite in both directions: LEAKS cells measure attacker
success >= 0.9 undefended, DEFENDED cells measure 0.00, and the static
grid reproduces PR 5's ``1.00 -> 0.00`` PREFENDER result without running
a single simulation.

Scope notes.  Software prefetches are modelled as completing fills on
two cores and as possibly dropped on one (see
:meth:`~repro.analysis.cachemodel.HierarchyState.prefetch`); speculative
victims and whole-run timing channels (Evict+Time) are out of scope and
certify as ``UNKNOWN``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.analysis.defense import (
    COVERAGE_CERTAIN,
    COVERAGE_NONE,
    COVERAGE_POSSIBLE,
    DefenseModel,
    defense_model,
    havoc_reach,
    scale_trigger_satisfiable,
)
from repro.analysis.timing import (
    DEFAULT_WALK_STEPS,
    _fork,
    _Unresolved,
    _WalkState,
)
from repro.cpu.core import CoreConfig
from repro.errors import ConfigError
from repro.mem.hierarchy import HierarchyConfig

#: Verdict labels (stable — CLI JSON output uses them).
LEAKS = "LEAKS"
DEFENDED = "DEFENDED"
UNKNOWN = "UNKNOWN"

#: Attacks whose probe/classification structure the walker models.  The
#: scenario runner also knows ``evict-time``, but a whole-run timing
#: channel has no per-index observable to certify — it stays UNKNOWN.
SUPPORTED_ATTACKS = frozenset(
    {
        "flush-reload",
        "evict-reload",
        "prime-probe",
        "adversarial-prefetch-a1",
        "adversarial-prefetch-a2",
    }
)

#: Default defense rows certified by ``analyze --certify`` (the dynamic
#: grid's own default pair).
DEFAULT_DEFENSE_ROWS = ("Base", "FULL")


@dataclass(frozen=True)
class CellCertificate:
    """Static verdict for one ``victim × attack × defense`` grid cell."""

    victim: str
    attack: str
    defense: str
    verdict: str
    #: Defense coverage grade actually applied (trigger-gated: a scale
    #: tracker whose trigger is unsatisfiable degrades to ``none``).
    coverage: str
    #: Undefended walk recovers the victim's expected footprint for every
    #: trial secret (``None`` when the walk did not resolve).
    feasible: bool | None
    #: Trial secrets whose walks were compared.
    secrets: tuple[int, ...]
    #: Probe indices whose candidate classification differs across secrets.
    distinguishing: tuple[int, ...]
    #: Probe indices the defense's havoc provably covers.
    havoc: tuple[int, ...]
    #: ``(secret_a, secret_b, index)`` distinguisher witness, or ``None``.
    witness: tuple[int, int, int] | None
    detail: str


@dataclass(frozen=True)
class CertificationReport:
    """Full verdict matrix, cells sorted by ``(victim, attack, defense)``."""

    cells: tuple[CellCertificate, ...]

    def count(self, verdict: str) -> int:
        return sum(1 for cell in self.cells if cell.verdict == verdict)

    @property
    def unknown_fraction(self) -> float:
        if not self.cells:
            return 0.0
        return self.count(UNKNOWN) / len(self.cells)


# -- observation -----------------------------------------------------------------


def _end_memory(
    finish: Callable[[int], tuple[_WalkState, _Unresolved | None]],
    secret: int,
) -> Mapping[int, int | None]:
    """The end memory of ``finish``'s walk for ``secret`` (see
    :func:`repro.analysis.timing._fork`).

    Raises the :class:`_Unresolved` that stopped the walk early, or a new
    one when a store to an unresolved address left no word known.
    """
    walk, unresolved = finish(secret)
    if unresolved is not None:
        raise unresolved
    if walk.clobbered:
        raise _Unresolved("a store to an unresolved address clobbered memory")
    return walk.memory


def _read_candidates(
    attack: Any, memory: Mapping[int, int | None]
) -> frozenset[int]:
    """The attacker's candidate index set, read from its results array."""
    from repro.attacks.base import candidate_indices

    layout, options = attack.layout, attack.options
    latencies: list[int] = []
    for index in range(options.num_indices):
        value = memory.get(layout.result_addr(index), 0)
        if value is None:
            raise _Unresolved(f"result slot {index} never resolved")
        latencies.append(value)
    return frozenset(
        candidate_indices(
            latencies, attack.hit_threshold, attack.candidate_is_slow
        )
    )


@dataclass(frozen=True)
class _Observations:
    """Per-(victim, attack) walk results, shared across defense rows.

    One build of the attack serves every trial secret: the walks differ
    only in the data word at ``layout.secret_addr``.
    """

    #: The distinct trial secrets, in the caller's order.
    secrets: tuple[int, ...]
    #: secret -> candidate index set (``None`` when any walk gave up).
    candidates: Mapping[int, frozenset[int]] | None
    #: Undefended attack recovers the expected footprint for every secret.
    feasible: bool | None
    #: Probe indices the ST-family havoc provably covers.
    havoc: tuple[int, ...]
    #: Scale Tracker trigger abstractly satisfiable on this scenario.
    scale_ok: bool
    failure: str | None


def _observe(
    attack_name: str,
    victim_name: str,
    secrets: Sequence[int] | None,
    config: CoreConfig,
    hconfig: HierarchyConfig,
    max_steps: int,
) -> _Observations:
    """Walk one (victim, attack) pair for every distinct trial secret.

    The attack's programs come from its memo (:meth:`CacheAttack.programs
    <repro.attacks.base.CacheAttack.programs>`): one build, and so one
    strict analysis, serves every trial secret, and a pair that the
    simulator or the ``analyze`` report built is not built again while the
    memo holds it.  Strict findings
    read only the decoded program, its taint sources and its suppressions,
    and a build for another secret differs only in the data word at
    ``layout.secret_addr`` (``tests/test_certify_fork.py``).  Walks
    finish in secret order, so the first ``_Unresolved`` is the one the
    first failing secret raises.  Raises :class:`ConfigError` for fewer
    than two distinct secrets, which leave nothing to compare.
    """
    from repro.runner.job import ATTACK_KINDS
    from repro.workloads.crypto import get_victim

    descriptor = get_victim(victim_name)
    if secrets is None:
        from repro.attacks.scenarios import DEFAULT_SECRETS

        secrets = descriptor.trial_secrets(DEFAULT_SECRETS)
    secret_tuple = tuple(dict.fromkeys(secrets))
    if len(secret_tuple) < 2:
        raise ConfigError(
            "certifying needs at least two distinct trial secrets to "
            f"compare, got {list(secrets)}"
        )

    probe = ATTACK_KINDS[attack_name](
        victim=victim_name,
        secret=secret_tuple[0],
        num_indices=descriptor.num_indices,
    )
    programs = probe.programs()
    carrier = next((p for p in programs if p.taint_sources), None)
    options = probe.options
    if carrier is not None:
        havoc = havoc_reach(
            carrier,
            descriptor.secret_space,
            probe_base=probe.layout.probe_base,
            scale=options.scale,
            num_indices=options.num_indices,
        )
    else:
        havoc = ()
    scale_ok = bool(havoc) and scale_trigger_satisfiable(options.scale)
    unobserved = _Observations(
        secrets=secret_tuple,
        candidates=None,
        feasible=None,
        havoc=havoc,
        scale_ok=scale_ok,
        failure=None,
    )
    if attack_name not in SUPPORTED_ATTACKS:
        return replace(
            unobserved,
            failure=f"attack {attack_name!r} is outside the walker's scope",
        )
    if config.speculative_execution or options.victim_mode != "direct":
        return replace(
            unobserved,
            failure="speculative semantics are outside the walker's scope",
        )

    watch = frozenset({probe.layout.secret_addr})
    finish = _fork(programs, watch, config, hconfig, max_steps)
    candidates: dict[int, frozenset[int]] = {}
    feasible = True
    try:
        for secret in secret_tuple:
            # ``replace`` re-runs AttackOptions' range check per secret.
            trial = replace(options, secret=secret)
            observed = _read_candidates(probe, _end_memory(finish, secret))
            candidates[secret] = observed
            expected = frozenset(descriptor.expected_indices(secret, trial))
            feasible = feasible and observed == expected
    except _Unresolved as unresolved:
        return replace(unobserved, failure=unresolved.reason)
    return replace(unobserved, candidates=candidates, feasible=feasible)


# -- verdict ---------------------------------------------------------------------


def _distinguishing(
    secrets: Sequence[int], candidates: Mapping[int, frozenset[int]]
) -> tuple[int, ...]:
    """Indices whose candidate classification differs across any pair."""
    first = candidates[secrets[0]]
    differing: set[int] = set()
    for secret in secrets[1:]:
        differing.update(first ^ candidates[secret])
    return tuple(sorted(differing))


def _witness_at(
    secrets: Sequence[int],
    candidates: Mapping[int, frozenset[int]],
    indices: Iterable[int],
) -> tuple[int, int, int] | None:
    """First ``(secret_a, secret_b, index)`` distinguishing at ``indices``."""
    for index in sorted(indices):
        for position, secret_a in enumerate(secrets):
            for secret_b in secrets[position + 1 :]:
                if (index in candidates[secret_a]) != (
                    index in candidates[secret_b]
                ):
                    return (secret_a, secret_b, index)
    return None


def _effective_coverage(model: DefenseModel, scale_ok: bool) -> str:
    """Trigger-gate the model: an idle Scale Tracker protects nothing."""
    if model.mechanism == "scale-tracker" and not scale_ok:
        return COVERAGE_NONE
    return model.coverage


def certify(
    attack: str,
    victim: str,
    defense: str,
    *,
    secrets: Sequence[int] | None = None,
    core: CoreConfig | None = None,
    hierarchy: HierarchyConfig | None = None,
    max_steps: int = DEFAULT_WALK_STEPS,
) -> CellCertificate:
    """Static verdict for one scenario cell: LEAKS / DEFENDED / UNKNOWN.

    ``LEAKS``: some secret pair stays distinguishable in the attacker's
    observable at an index the defense provably leaves untouched.
    ``DEFENDED``: no pair is distinguishable — either the undefended
    observables already coincide, or every distinguishing index is
    havocked to top by a certainly-firing defense.  ``UNKNOWN``: the walk
    lost precision, or the defense's firing is only possible.  Raises
    :class:`~repro.errors.ConfigError` for fewer than two distinct
    ``secrets``.
    """
    model = defense_model(defense)
    observations = _observe(
        attack,
        victim,
        secrets,
        core or CoreConfig(),
        hierarchy or HierarchyConfig(),
        max_steps,
    )
    return _certify_cell(attack, victim, model, observations)


def _certify_cell(
    attack: str,
    victim: str,
    model: DefenseModel,
    observations: _Observations,
) -> CellCertificate:
    secrets = observations.secrets
    coverage = _effective_coverage(model, observations.scale_ok)
    cell = CellCertificate(
        victim=victim,
        attack=attack,
        defense=model.label,
        verdict=UNKNOWN,
        coverage=coverage,
        feasible=observations.feasible,
        secrets=secrets,
        distinguishing=(),
        havoc=observations.havoc,
        witness=None,
        detail=observations.failure or "walk did not resolve",
    )
    candidates = observations.candidates
    if candidates is None:
        return cell
    differing = _distinguishing(secrets, candidates)
    if not differing:
        return replace(
            cell,
            verdict=DEFENDED,
            detail=(
                f"all {len(secrets)} trial secrets yield one attacker "
                "observable; nothing to distinguish"
            ),
        )
    cell = replace(cell, distinguishing=differing)
    if coverage == COVERAGE_NONE:
        return replace(
            cell,
            verdict=LEAKS,
            witness=_witness_at(secrets, candidates, differing),
            detail=(
                f"{len(differing)} probe index(es) stay distinguishable; "
                f"defense provably idle ({model.description})"
            ),
        )
    if coverage == COVERAGE_CERTAIN:
        uncovered = tuple(
            index
            for index in differing
            if index not in set(observations.havoc)
        )
        if not uncovered:
            return replace(
                cell,
                verdict=DEFENDED,
                detail=(
                    f"every distinguishing index ({len(differing)}) is "
                    "havocked to top by the certainly-firing defense"
                ),
            )
        return replace(
            cell,
            verdict=LEAKS,
            witness=_witness_at(secrets, candidates, uncovered),
            detail=(
                f"{len(uncovered)} distinguishing index(es) escape the "
                "defense's certain havoc reach"
            ),
        )
    return replace(
        cell,
        coverage=COVERAGE_POSSIBLE,
        detail=(
            "distinguishable undefended, but the defense's firing is only "
            f"possible ({model.description})"
        ),
    )


def certify_grid(
    victims: Sequence[str] | None = None,
    attacks: Sequence[str] | None = None,
    defenses: Sequence[str] | None = None,
    *,
    num_secrets: int | None = None,
    core: CoreConfig | None = None,
    hierarchy: HierarchyConfig | None = None,
    max_steps: int = DEFAULT_WALK_STEPS,
) -> CertificationReport:
    """Certify a full grid; walks are shared across defense rows.

    Defaults mirror the dynamic scenario suite's grid
    (:mod:`repro.attacks.scenarios`), with the matrix sorted on every key
    so the report — and the CLI JSON built from it — is byte-stable
    regardless of input ordering.  ``num_secrets`` below 2 raises
    :class:`~repro.errors.ConfigError`.
    """
    from repro.attacks.scenarios import (
        DEFAULT_ATTACKS,
        DEFAULT_SECRETS,
        DEFAULT_VICTIMS,
    )
    from repro.workloads.crypto import get_victim

    victim_names = tuple(sorted(set(victims or DEFAULT_VICTIMS)))
    attack_names = tuple(sorted(set(attacks or DEFAULT_ATTACKS)))
    defense_names = tuple(sorted(set(defenses or DEFAULT_DEFENSE_ROWS)))
    models = [defense_model(name) for name in defense_names]
    config = core or CoreConfig()
    hconfig = hierarchy or HierarchyConfig()
    count = num_secrets if num_secrets is not None else DEFAULT_SECRETS

    cells: list[CellCertificate] = []
    for victim in victim_names:
        descriptor = get_victim(victim)
        secrets = descriptor.trial_secrets(count)
        for attack in attack_names:
            observations = _observe(
                attack, victim, secrets, config, hconfig, max_steps
            )
            for model in models:
                cells.append(
                    _certify_cell(attack, victim, model, observations)
                )
    cells.sort(key=lambda cell: (cell.victim, cell.attack, cell.defense))
    return CertificationReport(cells=tuple(cells))
