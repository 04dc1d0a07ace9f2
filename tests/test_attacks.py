"""Attack construction and end-to-end security behaviour.

The full Figure 8 matrix lives in ``benchmarks/bench_figure8.py``; these
tests pin the essential verdicts and the attack plumbing.
"""

import pytest

from repro.attacks import (
    AttackLayout,
    AttackOptions,
    EvictReloadAttack,
    EvictTimeAttack,
    FlushReloadAttack,
    PrimeProbeAttack,
)
from repro.core.config import PrefenderConfig
from repro.errors import ConfigError
from repro.sim.config import PrefetcherSpec, SystemConfig


def prefender_config(variant="FULL"):
    mapping = {
        "ST": PrefenderConfig.st_only(),
        "AT": PrefenderConfig.at_only().with_buffers(8),
        "FULL": PrefenderConfig.full(8),
    }
    return SystemConfig(
        prefetcher=PrefetcherSpec(kind="prefender", prefender=mapping[variant])
    )


def test_options_validation():
    with pytest.raises(ConfigError):
        AttackOptions(secret=200, num_indices=96)
    with pytest.raises(ConfigError):
        AttackOptions(victim_mode="quantum")
    with pytest.raises(ConfigError):
        AttackOptions(probe_step=0)


def test_options_challenge_label():
    assert AttackOptions().challenges == "C1+C2"
    assert AttackOptions(noise_c3=True).challenges == "C1+C2+C3"
    assert AttackOptions(noise_c4=True).challenges == "C1+C2+C4"
    assert (
        AttackOptions(noise_c3=True, noise_c4=True).challenges == "C1+C2+C3+C4"
    )


def test_layout_avoids_probe_sets():
    layout = AttackLayout()
    # Probe lines sit on sets ≡ 0 (mod 8); helper regions must not.
    for addr in (
        layout.secret_addr,
        layout.results_base,
        layout.noise_base,
        layout.flag_base,
        layout.array1_base,
    ):
        assert ((addr >> 6) & 511) % 8 != 0, hex(addr)


def test_option_overrides_via_kwargs():
    attack = FlushReloadAttack(secret=30, noise_c3=True)
    assert attack.options.secret == 30
    assert attack.options.noise_c3


def test_prime_probe_defaults():
    attack = PrimeProbeAttack()
    assert attack.options.num_indices == 48
    assert attack.options.secret == 37


@pytest.mark.parametrize("attack_cls", [PrimeProbeAttack, EvictTimeAttack])
def test_set_indexed_attacks_reject_aliasing_probe_arrays(attack_cls):
    """At scale 0x200, index i and i + 64 share an L1 set, so an attack that
    observes sets cannot tell them apart: more than 64 indices is refused
    at construction instead of silently reporting aliased candidates."""
    assert attack_cls(num_indices=64).options.num_indices == 64
    with pytest.raises(ConfigError, match="at most 64 indices"):
        attack_cls(num_indices=96)
    with pytest.raises(ConfigError):
        attack_cls(AttackOptions(secret=0, num_indices=96))
    # Line-indexed attacks probe lines, not sets, and keep the wide array.
    assert FlushReloadAttack(num_indices=96).options.num_indices == 96


def test_flush_reload_baseline_leaks():
    outcome = FlushReloadAttack().run(SystemConfig())
    assert outcome.attack_succeeded
    assert outcome.candidates == [65]
    assert outcome.latencies[65] < 65 < outcome.latencies[64]


def test_flush_reload_st_neighbours():
    outcome = FlushReloadAttack().run(prefender_config("ST"))
    assert set(outcome.candidates) == {64, 65, 66}
    assert outcome.defended


def test_evict_reload_baseline_leaks():
    outcome = EvictReloadAttack().run(SystemConfig())
    assert outcome.attack_succeeded
    # Non-secret lines are L2 hits, distinctly above the L1-hit threshold.
    assert outcome.latencies[0] > outcome.threshold


def test_prime_probe_baseline_leaks():
    outcome = PrimeProbeAttack().run(SystemConfig())
    assert outcome.attack_succeeded
    assert outcome.latencies[37] >= outcome.threshold


def test_full_prefender_defends_all():
    for attack_cls in (FlushReloadAttack, EvictReloadAttack, PrimeProbeAttack):
        outcome = attack_cls().run(prefender_config("FULL"))
        assert outcome.defended, attack_cls.__name__


def test_at_fails_under_c3_noise():
    outcome = FlushReloadAttack(noise_c3=True).run(prefender_config("AT"))
    assert outcome.attack_succeeded


def test_at_fails_under_c4_noise():
    outcome = EvictReloadAttack(noise_c4=True).run(prefender_config("AT"))
    assert outcome.attack_succeeded


def test_secret_is_always_a_candidate_in_reload_attacks():
    for config in (SystemConfig(), prefender_config("FULL")):
        outcome = FlushReloadAttack().run(config)
        assert outcome.secret_is_candidate


def test_sequential_probe_order():
    outcome = FlushReloadAttack(sequential_probe=True).run(SystemConfig())
    assert outcome.attack_succeeded


def test_spectre_leaks_at_baseline():
    outcome = FlushReloadAttack(victim_mode="spectre").run(SystemConfig())
    assert outcome.attack_succeeded
    assert outcome.candidates == [65]


def test_spectre_defended_by_prefender():
    outcome = FlushReloadAttack(victim_mode="spectre").run(
        prefender_config("FULL")
    )
    assert outcome.defended


def test_cross_core_baseline_and_defense():
    assert FlushReloadAttack(cross_core=True).run(SystemConfig()).attack_succeeded
    assert FlushReloadAttack(cross_core=True).run(
        prefender_config("ST")
    ).defended


def test_cross_core_spectre_rejected():
    with pytest.raises(ConfigError):
        FlushReloadAttack(cross_core=True, victim_mode="spectre").build_programs()


def test_outcome_series_and_summary():
    outcome = FlushReloadAttack().run(SystemConfig())
    xs, ys = outcome.series()
    assert len(xs) == len(ys) == 96
    assert "Flush+Reload" in outcome.summary()
    assert "secret=65" in outcome.summary()


def test_different_secret_positions():
    for secret in (20, 50, 81):
        outcome = FlushReloadAttack(secret=secret).run(SystemConfig())
        assert outcome.candidates == [secret]
