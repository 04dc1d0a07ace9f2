"""Attack orchestration and outcome classification.

A :class:`CacheAttack` builds its programs, runs them on a configured
system, reads the per-index latencies the attacker stored to memory and
classifies them into *candidate secrets*.  The paper's success criterion:
the attack succeeds when the latencies single out exactly the right index;
PREFENDER's goal is to make that set ambiguous (Sec. V-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, ClassVar, Sequence

from repro.attacks.layout import L1_SET_SPAN, AttackLayout, AttackOptions
from repro.cpu.core import CoreConfig
from repro.cpu.system import RunResult, System
from repro.errors import ConfigError
from repro.isa.program import Program
from repro.sim.config import SystemConfig
from repro.sim.simulator import build_system


def verdict_line(
    attack_name: str,
    challenges: str,
    defense_label: str,
    succeeded: bool,
    candidates: list[int],
    secret: int,
) -> str:
    """The one verdict-line format shared by outcomes and CLI probe grids."""
    shown = candidates if len(candidates) <= 8 else candidates[:8] + ["..."]
    verdict = "ATTACK SUCCEEDED" if succeeded else "DEFENDED"
    return (
        f"{attack_name} ({challenges}) vs {defense_label}: "
        f"{verdict} — {len(candidates)} candidate(s) {shown}, secret={secret}"
    )


def candidate_indices(
    latencies: Sequence[int], threshold: int, candidate_is_slow: bool
) -> list[int]:
    """Indices whose latency marks them as possible secrets: at or above
    ``threshold`` if ``candidate_is_slow``, else nonzero and below it."""
    if candidate_is_slow:
        return [i for i, lat in enumerate(latencies) if lat >= threshold]
    return [i for i, lat in enumerate(latencies) if 0 < lat < threshold]


@dataclass
class AttackOutcome:
    """Classified result of one attack run."""

    attack_name: str
    challenges: str
    defense_label: str
    secret: int
    latencies: list[int]
    threshold: int
    candidate_is_slow: bool
    run_result: RunResult = field(repr=False)

    @property
    def candidates(self) -> list[int]:
        """Indices whose latency marks them as possible secrets."""
        return candidate_indices(
            self.latencies, self.threshold, self.candidate_is_slow
        )

    @property
    def attack_succeeded(self) -> bool:
        """True when the attacker uniquely recovers the correct secret."""
        return self.candidates == [self.secret]

    @property
    def defended(self) -> bool:
        return not self.attack_succeeded

    @property
    def secret_is_candidate(self) -> bool:
        """The victim's own access should always leave its trace."""
        return self.secret in self.candidates

    def series(self) -> tuple[list[int], list[int]]:
        """(indices, latencies) for Fig. 8-style plotting."""
        return list(range(len(self.latencies))), list(self.latencies)

    def summary(self) -> str:
        return verdict_line(
            self.attack_name,
            self.challenges,
            self.defense_label,
            self.attack_succeeded,
            self.candidates,
            self.secret,
        )


class CacheAttack:
    """Base class: build programs, run, classify."""

    name = "attack"
    hit_threshold = 65
    candidate_is_slow = False
    # Per-attack option defaults (e.g. Prime+Probe's 48 monitored sets).
    DEFAULT_OPTIONS: ClassVar[dict[str, Any]] = {}
    # Set-indexed attacks observe one L1 set per index, so index i and
    # i + L1_SET_SPAN // scale are indistinguishable: their probe array must
    # fit in one pass over the L1 sets (64 indices at scale 0x200).
    indexes_l1_sets: ClassVar[bool] = False

    def __init__(
        self,
        options: AttackOptions | None = None,
        layout: AttackLayout | None = None,
        **option_overrides: Any,
    ) -> None:
        if options is None:
            merged = dict(self.DEFAULT_OPTIONS)
            merged.update(option_overrides)
            options = AttackOptions(**merged)
        elif option_overrides:
            options = replace(options, **option_overrides)
        if self.indexes_l1_sets and options.num_indices * options.scale > L1_SET_SPAN:
            raise ConfigError(
                f"{self.name} observes one L1 set per index, so at most "
                f"{L1_SET_SPAN // options.scale} indices fit at scale "
                f"{options.scale:#x}; got {options.num_indices}"
            )
        self.options = options
        self.layout = layout or AttackLayout()

    # -- hooks ------------------------------------------------------------------

    def build_programs(self) -> list[Program]:
        """One program per core (attacker first)."""
        raise NotImplementedError

    def programs(self) -> tuple[Program, ...]:
        """This attack's finalized programs, one per core, from a memo of
        the :data:`PROGRAM_MEMO_SIZE` most recent builds.

        The memo is keyed on the attack class, its full options (secret
        included) and its layout.  A system config is not in the key,
        because no defense changes a program: the six defense rows of one
        (victim, attack) pair, and the certifier's walks of that pair,
        share one build.  Every caller only reads the programs.
        """
        return _programs(type(self), self.options, self.layout)

    def adjust_core_config(self, config: CoreConfig) -> CoreConfig:
        """Spectre variants enable speculation here."""
        if self.options.victim_mode == "spectre":
            return replace(
                config,
                speculative_execution=True,
                resolve_delay=320,
                spec_window=12,
            )
        return config

    @property
    def num_cores(self) -> int:
        return 2 if self.options.cross_core else 1

    # -- orchestration ------------------------------------------------------------

    def prepare(
        self, system_config: SystemConfig | None = None
    ) -> tuple[System, SystemConfig]:
        """Build phase: programs + configured system, ready to simulate.

        Returns ``(system, resolved_config)``.  Split out of :meth:`run` so
        the snapshot-replay runner (:mod:`repro.attacks.replay`) can build
        once, warm up, and re-simulate many trials off a restored image.
        Programs come from :meth:`programs`, so a run that is not replayed
        still gets its own secret's data word.
        """
        config = system_config or SystemConfig()
        config = replace(
            config,
            num_cores=self.num_cores,
            core=self.adjust_core_config(config.core),
        )
        return build_system(list(self.programs()), config), config

    def classify(
        self, system: System, config: SystemConfig, result: RunResult
    ) -> AttackOutcome:
        """Classification phase: read back latencies, build the outcome."""
        latencies = [
            system.hierarchy.read_word(self.layout.result_addr(index))
            for index in range(self.options.num_indices)
        ]
        return AttackOutcome(
            attack_name=self.name,
            challenges=self.options.challenges,
            defense_label=config.prefetcher.label,
            secret=self.options.secret,
            latencies=latencies,
            threshold=self.hit_threshold,
            candidate_is_slow=self.candidate_is_slow,
            run_result=result,
        )

    def run(
        self,
        system_config: SystemConfig | None = None,
        max_steps: int = 20_000_000,
    ) -> AttackOutcome:
        """Build, simulate and classify one attack run."""
        system, config = self.prepare(system_config)
        result = system.run(max_steps=max_steps)
        return self.classify(system, config, result)


#: Program sets :meth:`CacheAttack.programs` keeps.  A batch runs its cells
#: in the order their trials were first submitted, which may interleave
#: (victim, attack) pairs, so the memo holds every pair of the 15-pair
#: default grid at once, with room to spare.
PROGRAM_MEMO_SIZE = 32


@lru_cache(maxsize=PROGRAM_MEMO_SIZE)
def _programs(
    attack_cls: type[CacheAttack], options: AttackOptions, layout: AttackLayout
) -> tuple[Program, ...]:
    """One attack's finalized programs; a tuple, so no caller can extend it."""
    return tuple(attack_cls(options, layout).build_programs())
