"""Differential oracle: static leak maps vs. the dynamic scenario suite.

The taint pass makes a falsifiable claim — *these* probe indices and no
others are touched as a function of the secret.  This file locks that
claim in both directions:

* **static == footprint model**: for every crypto victim, under every
  attack wrapper, for every secret in the victim's space, the static
  :func:`~repro.analysis.leak_map` equals the registry's
  ``expected_indices`` model (the same model the dynamic suite scores
  against).
* **static leak ⇒ dynamic leak**: victims the taint pass calls leaky
  score positive mutual information on the undefended Base config, and
  the taint-clean control (``const-lookup``, a fixed-index table access)
  scores exactly zero bits.  A regression in either the analysis or the
  simulator breaks the agreement.
"""

import pytest

from repro.analysis import leak_map, taint_of_program
from repro.attacks import scenarios
from repro.attacks.layout import L1_SET_SPAN, AttackOptions
from repro.errors import ConfigError
from repro.runner import ATTACK_KINDS
from repro.workloads.crypto import get_victim, victim_names

CRYPTO_LEAKY = ("aes-ttable", "direct", "ecdsa-window", "rsa-sqmul")


def victim_program(attack):
    """The one program of the attack build that carries a declared secret."""
    carriers = [p for p in attack.build_programs() if p.taint_sources]
    assert len(carriers) == 1, "expected exactly one secret-bearing program"
    return carriers[0]


def expected_footprint(victim, secret):
    options = AttackOptions(
        secret=0, num_indices=victim.num_indices, victim=victim.name
    )
    return tuple(sorted(set(victim.expected_indices(secret, options))))


# -- static leak map == footprint model, everywhere -------------------------


@pytest.mark.parametrize("kind", sorted(ATTACK_KINDS))
@pytest.mark.parametrize("name", victim_names())
def test_leak_map_matches_footprint_model(kind, name):
    victim = get_victim(name)
    span = victim.num_indices * AttackOptions().scale
    if ATTACK_KINDS[kind].indexes_l1_sets and span > L1_SET_SPAN:
        # A set-indexed attack refuses a probe array that aliases in the L1
        # sets (the direct victim's 96 indices), so there is no build.
        with pytest.raises(ConfigError):
            ATTACK_KINDS[kind](
                victim=name, num_indices=victim.num_indices, secret=0
            )
        return
    attack = ATTACK_KINDS[kind](
        victim=name, num_indices=victim.num_indices, secret=0
    )
    program = victim_program(attack)
    for secret in range(victim.secret_space):
        observed = leak_map(
            program,
            secret,
            probe_base=attack.layout.probe_base,
            scale=attack.options.scale,
            num_indices=attack.options.num_indices,
        )
        assert observed == expected_footprint(victim, secret), (
            kind,
            name,
            secret,
        )


@pytest.mark.parametrize("name", victim_names())
def test_taint_verdict_matches_footprint_variability(name):
    """``taint.leaks`` agrees with whether the footprint varies at all."""
    victim = get_victim(name)
    attack = ATTACK_KINDS["flush-reload"](
        victim=name, num_indices=victim.num_indices, secret=0
    )
    taint = taint_of_program(victim_program(attack))
    footprints = {
        expected_footprint(victim, secret)
        for secret in range(victim.secret_space)
    }
    assert taint.leaks == (len(footprints) > 1), name


def test_const_lookup_is_taint_clean():
    """The control victim loads the secret but never lets it near an
    address or a branch — secret-valued only, no leak surface."""
    victim = get_victim("const-lookup")
    attack = ATTACK_KINDS["flush-reload"](
        victim="const-lookup", num_indices=victim.num_indices, secret=0
    )
    taint = taint_of_program(victim_program(attack))
    assert taint.sources, "the control must still read the secret"
    assert taint.secret_addressed() == ()
    assert taint.branches == ()
    assert not taint.leaks


# -- static verdict ⇒ dynamic mutual information ----------------------------


@pytest.fixture(scope="module")
def base_cells():
    result = scenarios.run(
        victims=tuple(victim_names()),
        attacks=("flush-reload",),
        defenses=("Base",),
        secrets=4,
    )
    return {
        cell.spec.victim: cell
        for cell in result.cells
    }


def test_static_leak_implies_dynamic_mi(base_cells):
    for name in CRYPTO_LEAKY:
        cell = base_cells[name]
        assert cell.score.mi_bits > 0.0, name
        assert cell.score.success_rate == 1.0, name


def test_taint_clean_victim_scores_zero_bits(base_cells):
    cell = base_cells["const-lookup"]
    assert cell.score.mi_bits == 0.0
    # Every trial recovers the same fixed index, whatever the secret.
    candidate_sets = {tuple(probe.candidates) for probe in cell.probes}
    assert len(candidate_sets) == 1
