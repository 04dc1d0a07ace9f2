"""Static attack-feasibility certifier: the scenario grid without running it.

PR 8's leak maps and PR 9's timing walk certify one program in isolation;
this module composes them into PREFENDER's actual claim — an attacker and
a victim sharing a hierarchy, with the defense's guided prefetches
destroying the attacker's observation.  Three layers:

* **Product walk** — the attacker and victim CFGs execute as an
  interleaved product over one shared
  :class:`~repro.analysis.cachemodel.HierarchyState` (one core per
  program) and one shared memory image, mirroring
  :meth:`repro.cpu.system.System.run_steps` exactly: at every step the
  non-halted core with the smallest local time executes one instruction
  (strict ``<`` keeps the lower-index core on ties), with :func:`repro.analysis.timing._walk`'s per-instruction
  semantics (rdcycle, the serialising flag, countdown-loop fusion, the
  OoO hide window).  Under exact times the scheduler's schedule set is a
  *singleton*, so the sound interleaving join over producible schedule
  points degenerates to the one schedule the simulator runs; the moment
  any latency interval widens the walker gives up and the verdict is
  ``UNKNOWN`` — never a guess.  Single-program attacks reuse
  :func:`~repro.analysis.timing._walk` unchanged.
* **Observation** — the walk computes the attacker's *own measurements*:
  the rdcycle deltas its probe loop stores into the results array.  Those
  latencies classify into a candidate set with the attack's published
  ``hit_threshold`` / ``candidate_is_slow`` rule, byte-for-byte the logic
  of :class:`repro.attacks.base.AttackOutcome`.  Each (victim, attack)
  pair is built once, and its walk is finished once per trial secret with
  only the data word at ``AttackLayout.secret_addr`` changed; that yields
  the attacker-observable vector per secret.  A product walk runs once to
  just before the first load of that word (the stop rule of
  :func:`repro.attacks.replay._run_to_watch`) and forks there per secret;
  a single-program walk starts from t=0 for each secret.
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

Scope notes.  Software prefetches are modelled as completing fills (see
:meth:`~repro.analysis.cachemodel.HierarchyState.prefetch`); speculative
victims and whole-run timing channels (Evict+Time) are out of scope and
certify as ``UNKNOWN``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.analysis.cachemodel import HierarchyState
from repro.analysis.dataflow import _transfer
from repro.analysis.defense import (
    COVERAGE_CERTAIN,
    COVERAGE_NONE,
    COVERAGE_POSSIBLE,
    DefenseModel,
    defense_model,
    havoc_reach,
    scale_trigger_satisfiable,
)
from repro.analysis.taint import _branch_taken
from repro.analysis.timing import (
    DEFAULT_WALK_STEPS,
    _charged,
    _fused_iterations,
    _initial_memory,
    _walk,
)
from repro.cpu.alu import MUL_KINDS
from repro.cpu.core import CoreConfig
from repro.errors import ConfigError
from repro.isa.decode import (
    K_BRANCH,
    K_CLFLUSH,
    K_FENCE,
    K_HALT,
    K_JMP,
    K_LOAD,
    K_PREFETCH,
    K_RDCYCLE,
    K_STORE,
)
from repro.isa.registers import WORD_MASK, ZERO_REGISTER
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


class _Unresolved(Exception):
    """The walk (or its classification) lost precision; verdict UNKNOWN."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


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


# -- product walk ----------------------------------------------------------------


class _CoreWalk:
    """Exact per-core walker state (registers, pc, local time)."""

    __slots__ = ("core_id", "decoded", "n", "regs", "pc", "time", "serialized")

    def __init__(self, core_id: int, decoded: tuple[tuple[Any, ...], ...]) -> None:
        self.core_id = core_id
        self.decoded = decoded
        self.n = len(decoded)
        self.regs: dict[int, int] = {ZERO_REGISTER: 0}
        self.pc = 0
        self.time = 0
        self.serialized = False

    def reg(self, index: int) -> int:
        if index == ZERO_REGISTER:
            return 0
        value = self.regs.get(index)
        if value is None:
            raise _Unresolved(
                f"core {self.core_id}: register r{index} unknown at pc {self.pc}"
            )
        return value

    def copy(self) -> "_CoreWalk":
        dup = _CoreWalk.__new__(_CoreWalk)
        dup.core_id = self.core_id
        dup.decoded = self.decoded
        dup.n = self.n
        dup.regs = dict(self.regs)
        dup.pc = self.pc
        dup.time = self.time
        dup.serialized = self.serialized
        return dup

    def _exact(self, lo: int, hi: int) -> int:
        if lo != hi:
            raise _Unresolved(
                f"core {self.core_id}: access latency widened to "
                f"{lo}..{hi} at pc {self.pc}"
            )
        return lo

    def step(
        self,
        shared: HierarchyState,
        memory: dict[int, int],
        config: CoreConfig,
        fuse: bool,
    ) -> bool:
        """Execute one instruction; returns True when the core halts.

        Mirrors :func:`repro.analysis.timing._walk` instruction for
        instruction, with memory/cache effects routed through the shared
        multi-core state.  Any precision loss raises :class:`_Unresolved`.
        """
        if not 0 <= self.pc < self.n:
            raise _Unresolved(
                f"core {self.core_id}: pc {self.pc} escaped the program"
            )
        tup = self.decoded[self.pc]
        kind = tup[0]
        base = config.base_cost
        branch_cost = config.branch_cost
        if kind == K_LOAD:
            _, rd, rs0, imm, _pc = tup
            addr = (self.reg(rs0) + imm) & WORD_MASK
            interval = shared.load(self.core_id, addr)
            lo, hi = _charged(interval, config, self.serialized)
            self.serialized = False
            self.time += self._exact(lo, hi)
            if rd != ZERO_REGISTER:
                self.regs[rd] = memory.get(addr, 0) & WORD_MASK
            self.pc += 1
        elif kind == K_STORE:
            _, rs0, rs1, imm, _pc = tup
            addr = (self.reg(rs1) + imm) & WORD_MASK
            value = self.reg(rs0)
            interval = shared.store(self.core_id, addr)
            self.time += self._exact(interval.lo, interval.hi)
            memory[addr] = value & WORD_MASK
            self.pc += 1
        elif kind == K_CLFLUSH:
            _, rs0, imm = tup
            addr = (self.reg(rs0) + imm) & WORD_MASK
            interval = shared.flush(self.core_id, addr)
            self.time += self._exact(interval.lo, interval.hi)
            self.pc += 1
        elif kind == K_PREFETCH:
            _, rs0, imm, write = tup
            addr = (self.reg(rs0) + imm) & WORD_MASK
            interval = shared.prefetch(self.core_id, addr, bool(write))
            lo, hi = _charged(interval, config, self.serialized)
            self.serialized = False
            self.time += self._exact(lo, hi)
            self.pc += 1
        elif kind == K_BRANCH:
            _, cond, rs0, rs1, target = tup
            a = self.reg(rs0)
            b = self.reg(rs1)
            if not isinstance(target, int) or not 0 <= target < self.n:
                raise _Unresolved(
                    f"core {self.core_id}: branch target {target!r} invalid"
                )
            taken = _branch_taken(cond, a, b)
            self.time += branch_cost
            index = self.pc
            self.pc = target if taken else self.pc + 1
            if fuse and taken and target == index - 1:
                # Countdown fusion is schedule-safe: the fused window
                # executes only register arithmetic (no memory or cache
                # effects), so the other core's interleaved events observe
                # identical shared state.
                skipped = _fused_iterations(self.decoded, index, self.regs)
                if skipped:
                    self.regs[rs0] = 1
                    self.time += skipped * (base + branch_cost)
        elif kind == K_JMP:
            target = tup[1]
            if not isinstance(target, int) or not 0 <= target < self.n:
                raise _Unresolved(
                    f"core {self.core_id}: jump target {target!r} invalid"
                )
            self.time += branch_cost
            self.pc = target
        elif kind == K_RDCYCLE:
            rd = tup[1]
            if rd != ZERO_REGISTER:
                self.regs[rd] = self.time & WORD_MASK
            self.serialized = True
            self.time += base
            self.pc += 1
        elif kind == K_FENCE:
            self.serialized = True
            self.time += base
            self.pc += 1
        elif kind == K_HALT:
            self.time += base
            return True
        else:
            _transfer(self.regs, tup)
            self.time += base if kind not in MUL_KINDS else config.mul_cost
            self.pc += 1
        return False


def _merged_memory(programs: Sequence[Any]) -> dict[int, int]:
    """Shared word store at t=0: every program's data segments, in order.

    Mirrors :func:`repro.sim.simulator.build_system` loading each
    program's data into the one shared main memory.
    """
    memory: dict[int, int] = {}
    for program in programs:
        for address, value in _initial_memory(program, {}).items():
            if value is not None:
                memory[address] = value
    return memory


class _ProductState:
    """Everything a product-walk step reads or writes, so a walk can fork.

    ``active`` holds the cores that have not halted; ``steps`` counts the
    steps taken so far against the walk's budget.
    """

    __slots__ = ("shared", "memory", "active", "steps")

    def __init__(self, programs: Sequence[Any], hconfig: HierarchyConfig) -> None:
        self.shared = HierarchyState(hconfig, num_cores=len(programs))
        self.memory = _merged_memory(programs)
        self.active = [
            _CoreWalk(core_id, tuple(program.decoded))
            for core_id, program in enumerate(programs)
            if program.decoded
        ]
        self.steps = 0

    def copy(self) -> "_ProductState":
        dup = _ProductState.__new__(_ProductState)
        dup.shared = self.shared.copy()
        dup.memory = dict(self.memory)
        dup.active = [core.copy() for core in self.active]
        dup.steps = self.steps
        return dup


def _product_walk(
    state: _ProductState,
    config: CoreConfig,
    budget: int,
    watch: int | None = None,
) -> bool:
    """Advance an interleaved product walk in place.

    Scheduling is byte-identical to :meth:`repro.cpu.system.System.run_steps`:
    the non-halted core with the smallest local time steps next, strict
    ``<`` keeping the lower-index core on ties.  With ``watch`` set, the
    walk stops *before* the scheduled core executes a load whose effective
    address is ``watch`` and returns True (the stop rule of
    :func:`repro.attacks.replay._run_to_watch`).  Otherwise it runs until
    every core halts and returns False.  ``budget`` bounds ``state.steps``
    over all calls on one walk.  Raises :class:`_Unresolved` on any
    precision loss or step exhaustion.
    """
    fuse = config.fuse_countdown_loops and not config.speculative_execution
    shared, memory, active = state.shared, state.memory, state.active
    while state.steps < budget:
        if not active:
            return False
        best = active[0]
        for core in active[1:]:
            if core.time < best.time:
                best = core
        if watch is not None and 0 <= best.pc < best.n:
            tup = best.decoded[best.pc]
            if (
                tup[0] == K_LOAD
                and (best.reg(tup[2]) + tup[3]) & WORD_MASK == watch
            ):
                return True
        state.steps += 1
        if best.step(shared, memory, config, fuse):
            active.remove(best)
    if active:
        raise _Unresolved(
            f"product walk exhausted {budget} steps with "
            f"{len(active)} core(s) still running"
        )
    return False


# -- observation -----------------------------------------------------------------


def _candidates(
    latencies: Sequence[int], threshold: int, candidate_is_slow: bool
) -> frozenset[int]:
    """Candidate indices from measured latencies — the AttackOutcome rule."""
    if candidate_is_slow:
        return frozenset(
            index
            for index, latency in enumerate(latencies)
            if latency >= threshold
        )
    return frozenset(
        index
        for index, latency in enumerate(latencies)
        if 0 < latency < threshold
    )


#: A walk's end state: the final shared memory image and abstract hierarchy.
_EndState = tuple[Mapping[int, int | None], HierarchyState]


def _secret_walk(
    programs: Sequence[Any],
    watch: int,
    config: CoreConfig,
    hconfig: HierarchyConfig,
    max_steps: int,
) -> Callable[[int], _EndState]:
    """Walk one built attack; returns ``finish(secret)``.

    ``finish`` gives the end state of the walk whose data word at
    ``watch`` is ``secret``.  A one-program attack walks
    :func:`~repro.analysis.timing._walk` from t=0 with the secret bound as
    that initial word.  A product walk runs once, here, to just before the
    first load of ``watch``, which is the first step that can depend on
    the secret.  ``finish`` copies that state, writes the secret word into
    the copy and walks the rest on the same budget.  If every core halts
    before that load, every secret shares the one end state.
    """
    if len(programs) == 1:
        program = programs[0]
        decoded = tuple(program.decoded)

        def finish_one_core(secret: int) -> _EndState:
            memory = _initial_memory(program, {watch: secret})
            outcome = _walk(
                decoded, memory, config, hconfig, frozenset(), max_steps
            )
            if outcome.final is None or outcome.hi is None:
                raise _Unresolved("single-core walk did not resolve")
            return memory, outcome.final

        return finish_one_core

    budget = max_steps * len(programs)
    prefix = _ProductState(programs, hconfig)
    stopped = _product_walk(prefix, config, budget, watch)

    def finish_product(secret: int) -> _EndState:
        if not stopped:
            return prefix.memory, prefix.shared
        state = prefix.copy()
        state.memory[watch] = secret & WORD_MASK
        _product_walk(state, config, budget)
        return state.memory, state.shared

    return finish_product


def _read_candidates(
    attack: Any, memory: Mapping[int, int | None]
) -> frozenset[int]:
    """The attacker's candidate index set, read from its results array."""
    layout, options = attack.layout, attack.options
    latencies: list[int] = []
    for index in range(options.num_indices):
        value = memory.get(layout.result_addr(index), 0)
        if value is None:
            raise _Unresolved(f"result slot {index} never resolved")
        latencies.append(value)
    return _candidates(
        latencies, attack.hit_threshold, attack.candidate_is_slow
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

    The attack is built, and so strictly analysed, once.  Strict findings
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
    programs = probe.build_programs()
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

    failure: str | None = None
    if attack_name not in SUPPORTED_ATTACKS:
        failure = f"attack {attack_name!r} is outside the walker's scope"
    elif config.speculative_execution or options.victim_mode != "direct":
        failure = "speculative semantics are outside the walker's scope"
    if failure is not None:
        return _Observations(
            secrets=secret_tuple,
            candidates=None,
            feasible=None,
            havoc=havoc,
            scale_ok=scale_ok,
            failure=failure,
        )

    candidates: dict[int, frozenset[int]] = {}
    feasible = True
    try:
        finish = _secret_walk(
            programs, probe.layout.secret_addr, config, hconfig, max_steps
        )
        for secret in secret_tuple:
            # ``replace`` re-runs AttackOptions' range check per secret.
            trial = replace(options, secret=secret)
            memory, _ = finish(secret)
            observed = _read_candidates(probe, memory)
            candidates[secret] = observed
            expected = frozenset(descriptor.expected_indices(secret, trial))
            feasible = feasible and observed == expected
    except _Unresolved as unresolved:
        return _Observations(
            secrets=secret_tuple,
            candidates=None,
            feasible=None,
            havoc=havoc,
            scale_ok=scale_ok,
            failure=unresolved.reason,
        )
    return _Observations(
        secrets=secret_tuple,
        candidates=candidates,
        feasible=feasible,
        havoc=havoc,
        scale_ok=scale_ok,
        failure=None,
    )


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
    coverage = _effective_coverage(model, observations.scale_ok)
    if observations.candidates is None:
        return CellCertificate(
            victim=victim,
            attack=attack,
            defense=model.label,
            verdict=UNKNOWN,
            coverage=coverage,
            feasible=None,
            secrets=observations.secrets,
            distinguishing=(),
            havoc=observations.havoc,
            witness=None,
            detail=observations.failure or "walk did not resolve",
        )
    secrets = observations.secrets
    candidates = observations.candidates
    differing = _distinguishing(secrets, candidates)
    if not differing:
        return CellCertificate(
            victim=victim,
            attack=attack,
            defense=model.label,
            verdict=DEFENDED,
            coverage=coverage,
            feasible=observations.feasible,
            secrets=secrets,
            distinguishing=(),
            havoc=observations.havoc,
            witness=None,
            detail=(
                f"all {len(secrets)} trial secrets yield one attacker "
                "observable; nothing to distinguish"
            ),
        )
    if coverage == COVERAGE_NONE:
        witness = _witness_at(secrets, candidates, differing)
        return CellCertificate(
            victim=victim,
            attack=attack,
            defense=model.label,
            verdict=LEAKS,
            coverage=coverage,
            feasible=observations.feasible,
            secrets=secrets,
            distinguishing=differing,
            havoc=observations.havoc,
            witness=witness,
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
            return CellCertificate(
                victim=victim,
                attack=attack,
                defense=model.label,
                verdict=DEFENDED,
                coverage=coverage,
                feasible=observations.feasible,
                secrets=secrets,
                distinguishing=differing,
                havoc=observations.havoc,
                witness=None,
                detail=(
                    f"every distinguishing index ({len(differing)}) is "
                    "havocked to top by the certainly-firing defense"
                ),
            )
        witness = _witness_at(secrets, candidates, uncovered)
        return CellCertificate(
            victim=victim,
            attack=attack,
            defense=model.label,
            verdict=LEAKS,
            coverage=coverage,
            feasible=observations.feasible,
            secrets=secrets,
            distinguishing=differing,
            havoc=observations.havoc,
            witness=witness,
            detail=(
                f"{len(uncovered)} distinguishing index(es) escape the "
                "defense's certain havoc reach"
            ),
        )
    return CellCertificate(
        victim=victim,
        attack=attack,
        defense=model.label,
        verdict=UNKNOWN,
        coverage=COVERAGE_POSSIBLE,
        feasible=observations.feasible,
        secrets=secrets,
        distinguishing=differing,
        havoc=observations.havoc,
        witness=None,
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
