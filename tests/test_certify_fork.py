"""One build per (victim, attack) pair and one walk forked per secret.

The certifier (``repro.analysis.scenario``) builds each pair's attack once
and finishes its walk once per trial secret, changing only the data word
at ``AttackLayout.secret_addr``.  The walk, over one core or two, runs once
to just before the first load of that word and is copied there for each
secret.  These tests pin the facts that make both shortcuts sound:

* a build for any trial secret differs from the first secret's build only
  in that data word, so one strict build checks what 16 would;
* every forked walk ends exactly where a per-secret rebuild walked from
  t=0 without a fork ends: same memory image, same abstract hierarchy,
  same candidate set;
* the fork spends the walk's one step budget, so running out before or
  after the fork point gives the rebuild's failure reason.
"""

from __future__ import annotations

import pytest

from repro.analysis.scenario import (
    UNKNOWN,
    _end_memory,
    _read_candidates,
    certify,
    certify_grid,
)
from repro.analysis.timing import (
    DEFAULT_WALK_STEPS,
    _fork,
    _initial_memory,
    _run,
    _Unresolved,
    _WalkState,
)
from repro.attacks.base import _programs
from repro.attacks.scenarios import DEFAULT_ATTACKS, DEFAULT_VICTIMS
from repro.cpu.core import CoreConfig
from repro.errors import ConfigError
from repro.isa.builder import ProgramBuilder
from repro.isa.decode import K_LOAD
from repro.isa.registers import WORD_MASK
from repro.mem.hierarchy import HierarchyConfig
from repro.runner.job import ATTACK_KINDS
from repro.workloads.crypto import get_victim

SECRETS = 16
PAIRS = [(victim, attack) for victim in DEFAULT_VICTIMS for attack in DEFAULT_ATTACKS]
TWO_CORE = [
    (victim, attack)
    for victim, attack in PAIRS
    if attack.startswith("adversarial-prefetch")
]
ONE_CORE = [pair for pair in PAIRS if pair not in TWO_CORE]
CONFIG = CoreConfig()
HCONFIG = HierarchyConfig()


def _build(victim, attack, secret):
    return ATTACK_KINDS[attack](
        victim=victim,
        secret=secret,
        num_indices=get_victim(victim).num_indices,
    )


def _words_except(program, address):
    """Each data segment's shape and words, less the word at ``address``."""
    return [
        (
            segment.base,
            segment.stride,
            len(segment.values),
            tuple(
                value
                for at, value in zip(segment.addresses(), segment.values)
                if at != address
            ),
        )
        for segment in program.data_segments
    ]


def _walk_from_t0(programs):
    """A per-secret build walked from t=0, with no fork and no binding."""
    walk = _WalkState(programs, HCONFIG)
    assert not _run(walk, CONFIG, DEFAULT_WALK_STEPS * len(programs))
    return walk.memory, walk.shared


@pytest.mark.parametrize("victim,attack", PAIRS)
def test_builds_for_every_secret_differ_only_in_the_secret_word(victim, attack):
    secrets = get_victim(victim).trial_secrets(SECRETS)
    first = _build(victim, attack, secrets[0])
    watch = first.layout.secret_addr
    reference = first.build_programs()
    for secret in secrets:
        programs = _build(victim, attack, secret).build_programs()
        assert len(programs) == len(reference)
        carriers = []
        for got, want in zip(programs, reference):
            assert got.decoded == want.decoded
            assert got.taint_sources == want.taint_sources
            assert got.suppressions == want.suppressions
            assert _words_except(got, watch) == _words_except(want, watch)
            word = _initial_memory([got]).get(watch)
            if word is not None:
                carriers.append(word)
        # Exactly one program writes the word, so writing it into the
        # merged memory image is the same as building with the secret.
        assert carriers == [secret]


@pytest.mark.parametrize("victim,attack", PAIRS)
def test_one_walk_per_pair_matches_a_rebuild_per_secret(victim, attack):
    secrets = get_victim(victim).trial_secrets(SECRETS)
    probe = _build(victim, attack, secrets[0])
    finish = _fork(
        probe.build_programs(),
        frozenset({probe.layout.secret_addr}),
        CONFIG,
        HCONFIG,
        DEFAULT_WALK_STEPS,
    )
    seen = set()
    for secret in secrets:
        walk, unresolved = finish(secret)
        assert unresolved is None, secret
        memory, shared = walk.memory, walk.shared
        rebuilt = _build(victim, attack, secret)
        want_memory, want_shared = _walk_from_t0(rebuilt.build_programs())
        assert memory == want_memory, secret
        assert shared.leq(want_shared) and want_shared.leq(shared), secret
        candidates = _read_candidates(probe, memory)
        assert candidates == _read_candidates(rebuilt, want_memory), secret
        seen.add(candidates)
    # Every default pair leaks undefended, so a walk that lost the secret
    # (forked after its load, or never written) shows one observable.
    assert len(seen) > 1


@pytest.mark.parametrize("victim,attack", PAIRS)
def test_product_walk_forks_before_the_first_secret_load(victim, attack):
    probe = _build(victim, attack, 0)
    watch = probe.layout.secret_addr
    programs = probe.build_programs()
    budget = DEFAULT_WALK_STEPS * len(programs)
    prefix = _WalkState(programs, HCONFIG)
    assert _run(prefix, CONFIG, budget, frozenset({watch}))
    # The core the scheduler picks next is about to load the secret word.
    best = min(prefix.active, key=lambda core: (core.lo, core.core_id))
    kind, _rd, base, imm, _pc = best.decoded[best.pc]
    assert kind == K_LOAD
    assert (best.regs[base] + imm) & WORD_MASK == watch
    # Resuming without a watch finishes the same walk a fresh one takes.
    whole = _WalkState(programs, HCONFIG)
    _run(whole, CONFIG, budget)
    assert prefix.steps < whole.steps
    _run(prefix, CONFIG, budget)
    assert prefix.steps == whole.steps
    assert prefix.memory == whole.memory
    assert prefix.shared == whole.shared


def test_running_out_of_steps_reports_the_rebuilds_reason():
    for victim, attack in (TWO_CORE[0], ONE_CORE[0]):
        secrets = get_victim(victim).trial_secrets(SECRETS)
        probe = _build(victim, attack, secrets[0])
        watch = probe.layout.secret_addr
        programs = probe.build_programs()
        cores = len(programs)
        prefix = _WalkState(programs, HCONFIG)
        assert _run(
            prefix, CONFIG, DEFAULT_WALK_STEPS * cores, frozenset({watch})
        )
        whole = _WalkState(programs, HCONFIG)
        _run(whole, CONFIG, DEFAULT_WALK_STEPS * cores)
        # A walk's budget is max_steps per core.
        before = prefix.steps // (2 * cores)
        after = (prefix.steps + whole.steps) // (2 * cores)
        assert cores * before < prefix.steps < cores * after < whole.steps
        for max_steps in (before, after):
            rebuilt = _build(victim, attack, secrets[1]).build_programs()
            with pytest.raises(_Unresolved) as want:
                _run(_WalkState(rebuilt, HCONFIG), CONFIG, cores * max_steps)
            with pytest.raises(_Unresolved) as got:
                finish = _fork(
                    programs, frozenset({watch}), CONFIG, HCONFIG, max_steps
                )
                _end_memory(finish, secrets[1])
            assert got.value.reason == want.value.reason
            assert want.value.reason.startswith(
                f"product walk exhausted {cores * max_steps} steps"
            )
            cell = certify(
                attack, victim, "Base", secrets=secrets, max_steps=max_steps
            )
            assert cell.verdict == UNKNOWN
            assert cell.detail == want.value.reason


def test_certify_grid_builds_each_pair_once(monkeypatch):
    built = []
    original = ProgramBuilder.build

    def counting(self, *args, **kwargs):
        built.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ProgramBuilder, "build", counting)
    # The certifier reads the attack program memo, which an earlier test
    # may have filled.
    _programs.cache_clear()
    certify_grid(["aes-ttable"], ["flush-reload"], num_secrets=SECRETS)
    assert len(built) == 1
    built.clear()
    certify_grid(["aes-ttable"], ["adversarial-prefetch-a2"], num_secrets=SECRETS)
    assert len(built) == 2
    built.clear()
    certify_grid(["aes-ttable"], ["flush-reload"], num_secrets=SECRETS)
    assert built == []


# -- fewer than two distinct secrets ---------------------------------------------


def test_certify_rejects_no_secrets():
    with pytest.raises(ConfigError, match="two distinct trial secrets"):
        certify("flush-reload", "aes-ttable", "Base", secrets=())


def test_certify_rejects_one_distinct_secret():
    # Undefended Flush+Reload leaks, but one secret has nothing to compare.
    with pytest.raises(ConfigError, match="two distinct trial secrets"):
        certify("flush-reload", "aes-ttable", "Base", secrets=[3, 3])


def test_certify_grid_rejects_one_secret():
    with pytest.raises(ConfigError, match="two distinct trial secrets"):
        certify_grid(["aes-ttable"], ["flush-reload"], num_secrets=1)
