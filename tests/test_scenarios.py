"""Crypto victims, the scenario registry and leakage scoring."""

import pytest

from repro.attacks import base, leakage, replay, scenarios
from repro.attacks.layout import AttackOptions
from repro.errors import ConfigError, ExecutionError, SimulationError
from repro.experiments import common
from repro.isa.assembler import assemble
from repro.isa.builder import ProgramBuilder
from repro.runner import ScenarioJob, ScenarioProbe, run_batch
from repro.sim.config import SystemConfig
from repro.sim.simulator import build_system
from repro.workloads.crypto import (
    AES_PLAINTEXT,
    AES_TABLE_LINES,
    RSA_SQUARE_INDEX,
    CRYPTO_VICTIMS,
    get_victim,
    victim_names,
)


# --- victim registry ---------------------------------------------------------------


def test_registry_has_all_victims():
    assert {"direct", "aes-ttable", "rsa-sqmul", "ecdsa-window"} <= set(
        victim_names()
    )
    with pytest.raises(ConfigError):
        get_victim("des-sbox")


def test_victim_footprints_fit_probe_array():
    """Every secret's footprint stays inside the victim's probe array."""
    for victim in CRYPTO_VICTIMS.values():
        options = AttackOptions(
            secret=0, num_indices=victim.num_indices, victim=victim.name
        )
        for secret in range(victim.secret_space):
            expected = victim.expected_indices(secret, options)
            assert expected, (victim.name, secret)
            assert all(0 <= index < victim.num_indices for index in expected)


def test_aes_footprint_shape():
    victim = get_victim("aes-ttable")
    options = AttackOptions(secret=0, num_indices=victim.num_indices)
    expected = victim.expected_indices(5, options)
    assert len(expected) == len(AES_PLAINTEXT)  # one line per T-table
    tables = sorted(index // AES_TABLE_LINES for index in expected)
    assert tables == list(range(len(AES_PLAINTEXT)))
    assert (AES_PLAINTEXT[0] ^ 5) in expected


def test_rsa_footprint_encodes_exponent_bits():
    victim = get_victim("rsa-sqmul")
    options = AttackOptions(secret=0, num_indices=victim.num_indices)
    assert victim.expected_indices(0, options) == (RSA_SQUARE_INDEX,)
    assert victim.expected_indices(0b0101, options) == (0, 16, RSA_SQUARE_INDEX)


def test_ecdsa_footprint_window_collision():
    victim = get_victim("ecdsa-window")
    options = AttackOptions(secret=0, num_indices=victim.num_indices)
    # Windows (2, 2) collapse to one table line; (1, 3) touch two.
    assert victim.expected_indices(0b1010, options) == (18,)
    assert victim.expected_indices(0b1101, options) == (17, 19)


def test_trial_secrets_deterministic_and_spaced():
    victim = get_victim("aes-ttable")
    assert victim.trial_secrets(4) == (0, 4, 8, 12)
    assert victim.trial_secrets(99) == tuple(range(16))  # clamped to space
    with pytest.raises(ConfigError):
        victim.trial_secrets(0)


def test_crypto_victim_requires_direct_mode():
    with pytest.raises(ConfigError):
        AttackOptions(victim="aes-ttable", victim_mode="spectre")
    with pytest.raises(ConfigError):
        AttackOptions(victim="")


# --- leakage scoring ----------------------------------------------------------------


def test_mutual_information_extremes():
    secrets = [0, 1, 2, 3]
    distinct = [(0,), (1,), (2,), (3,)]
    constant = [(7,), (7,), (7,), (7,)]
    assert leakage.mutual_information_bits(secrets, distinct) == pytest.approx(2.0)
    assert leakage.mutual_information_bits(secrets, constant) == 0.0
    # Two secrets per observable class: half the secret leaks.
    paired = [(0,), (0,), (1,), (1,)]
    assert leakage.mutual_information_bits(secrets, paired) == pytest.approx(1.0)


def test_mutual_information_validates_lengths():
    with pytest.raises(ConfigError):
        leakage.mutual_information_bits([0, 1], [(0,)])


def _probe(secret, candidates, succeeded):
    return ScenarioProbe(
        attack="flush-reload",
        victim="direct",
        challenges="C1+C2",
        secret=secret,
        expected=[secret],
        candidates=candidates,
        latencies=[0] * 4,
        succeeded=succeeded,
        cycles=1000,
        defense_stats=[{"allocation_failures": 3}],
    )


def test_score_trials():
    probes = [_probe(0, [0], True), _probe(1, [1], True), _probe(2, [0], False)]
    score = leakage.score_trials(probes)
    assert score.trials == 3
    assert score.success_rate == pytest.approx(2 / 3)
    assert 0.0 < score.mi_bits <= score.mi_ceiling_bits
    with pytest.raises(ConfigError):
        leakage.score_trials([])


def test_scenario_probe_json_roundtrip():
    probe = _probe(5, [5, 6], False)
    assert ScenarioProbe.from_json(probe.to_json()) == probe


# --- scenario jobs & registry -------------------------------------------------------


def test_scenario_job_build_validates():
    with pytest.raises(ConfigError):
        ScenarioJob.build("flush-reload", victim="no-such-victim", secret=0)
    with pytest.raises(ConfigError):
        # The AES victim's secret space is 0..15.
        ScenarioJob.build("flush-reload", victim="aes-ttable", secret=16)
    with pytest.raises(ConfigError):
        ScenarioJob(attack="no-such-attack")


def test_scenario_job_keys_cover_victim_and_secret():
    def key(attack, victim, secret):
        return ScenarioJob.build(attack, victim=victim, secret=secret).key()

    base = key("flush-reload", "aes-ttable", 1)
    assert base != key("flush-reload", "aes-ttable", 2)
    assert base != key("flush-reload", "rsa-sqmul", 1)
    assert base != key("evict-reload", "aes-ttable", 1)


def test_build_grid_shape_and_validation():
    specs, jobs = scenarios.build_grid(
        ("aes-ttable",), ("flush-reload", "evict-reload"), ("Base", "FULL"), 2
    )
    assert len(specs) == 4
    assert len(jobs) == 8  # 2 trial secrets per cell, grouped by cell
    assert jobs[0].options.victim == "aes-ttable"
    assert jobs[0].options.num_indices == get_victim("aes-ttable").num_indices
    with pytest.raises(ConfigError):
        scenarios.build_grid((), ("flush-reload",), ("Base",), 2)
    with pytest.raises(ConfigError):
        scenarios.build_grid(("aes-ttable",), ("bogus",), ("Base",), 2)
    with pytest.raises(ConfigError):
        scenarios.build_grid(("aes-ttable",), ("flush-reload",), ("Bogus",), 2)


@pytest.mark.parametrize("attack", ["prime-probe", "evict-time"])
def test_set_indexed_attacks_refuse_the_direct_victim(attack):
    """The direct victim's 96 indices alias in the L1 sets a set-indexed
    attack observes; the grid fails before any trial runs."""
    with pytest.raises(ConfigError):
        scenarios.build_grid(("direct",), (attack,), ("Base",), 2)
    with pytest.raises(ConfigError):
        ScenarioJob.build(attack, victim="direct", secret=0)
    # The default victims fit: 64, 48 and 32 indices.
    scenarios.build_grid(scenarios.DEFAULT_VICTIMS, (attack,), ("Base",), 2)


def test_slice_trials_handles_mixed_secret_spaces():
    """Victims with different effective trial counts (trial_secrets clamps
    to each victim's secret space) must never bleed probes across cells."""
    victims = ("ecdsa-window", "direct")  # spaces 16 and 96
    secrets = 20  # ecdsa clamps to 16 trials; direct keeps all 20
    specs, jobs = scenarios.build_grid(victims, ("flush-reload",), ("Base",), secrets)
    assert [job.options.victim for job in jobs] == ["ecdsa-window"] * 16 + [
        "direct"
    ] * 20
    fake = [
        _probe(job.options.secret, [job.options.secret], True) for job in jobs
    ]
    for probe, job in zip(fake, jobs):
        probe.victim = job.options.victim
    cells = scenarios.slice_trials(specs, fake, secrets)
    assert [cell.spec.victim for cell in cells] == ["ecdsa-window", "direct"]
    assert [cell.score.trials for cell in cells] == [16, 20]
    assert all(
        probe.victim == cell.spec.victim
        for cell in cells
        for probe in cell.probes
    )
    with pytest.raises(ConfigError):
        scenarios.slice_trials(specs, fake[:-1], secrets)


def test_scenario_parallel_matches_sequential():
    """Registry smoke: the grid through the runner is byte-identical
    between sequential and 2-worker parallel execution."""
    _, jobs = scenarios.build_grid(
        ("ecdsa-window",), ("flush-reload",), ("Base", "FULL"), 2
    )
    sequential = run_batch(jobs, workers=1)
    parallel = run_batch(jobs, workers=2)
    assert sequential == parallel
    base, full = sequential[:2], sequential[2:]
    assert all(probe.succeeded for probe in base)
    assert not any(probe.succeeded for probe in full)


def test_scenario_run_and_render_smoke():
    result = scenarios.run(
        victims=("ecdsa-window",),
        attacks=("flush-reload",),
        defenses=("Base",),
        secrets=2,
    )
    assert len(result.cells) == 1
    cell = result.cell("ecdsa-window", "flush-reload", "Base")
    assert cell.score.success_rate == 1.0
    assert cell.score.mi_bits == pytest.approx(cell.score.mi_ceiling_bits)
    assert result.victim_success("ecdsa-window", "Base") == 1.0
    text = scenarios.render(result)
    assert "ecdsa-window" in text and "Flush+Reload" in text


def test_store_roundtrips_scenario_probes(tmp_path):
    from repro.runner import ResultStore

    job = ScenarioJob.build("flush-reload", victim="ecdsa-window", secret=1)
    store = ResultStore(tmp_path)
    first = run_batch([job], store=store)
    assert store.misses == 1 and store.hits == 0
    again = run_batch([job], store=store)
    assert store.hits == 1
    assert first == again


def test_scenario_probe_carries_defense_stats():
    """Buffer starvation is reportable: FULL-defense trials export the
    Access Tracker counters (the scenario suite's `alloc fails` column)."""
    probe = ScenarioJob.build(
        "flush-reload",
        SystemConfig(prefetcher=scenarios.defense_spec("FULL")),
        victim="aes-ttable",
        secret=3,
    ).run()
    assert probe.defense_stats, "defense counters missing from the probe"
    stats = probe.defense_stats[0]
    assert "allocation_failures" in stats
    assert "sweep_unprotections" in stats
    assert stats["protections"] >= 1


def _rotate_cells(jobs, secrets, shift):
    """``build_grid``'s jobs with cell ``i``'s trials rotated ``shift(i)``
    places, so the cell is submitted starting at another secret."""
    rotated = []
    for index, start in enumerate(range(0, len(jobs), secrets)):
        cell = jobs[start : start + secrets]
        places = shift(index) % secrets
        rotated.extend(cell[places:] + cell[:places])
    return rotated


def test_reuse_snapshots_matches_rebuild_across_job_counts():
    """Warm-snapshot replay must be byte-identical to the rebuild-per-trial
    path, sequentially and under process sharding, for every default
    (victim, attack) pair.  Every cell leads with a nonzero secret, so its
    first job is not the secret-neutral job that replay builds from."""
    _, jobs = scenarios.build_grid(
        scenarios.DEFAULT_VICTIMS, scenarios.DEFAULT_ATTACKS, ("Base", "FULL"), 3
    )
    assert len(jobs) == 15 * 2 * 3
    jobs = _rotate_cells(jobs, 3, lambda cell: 1)
    assert all(job.options.secret != 0 for job in jobs[::3])
    rebuilt = run_batch(jobs, workers=1, reuse_snapshots=False)
    expected = [probe.to_json() for probe in rebuilt]
    for workers in (1, 4):
        reused = run_batch(jobs, workers=workers, reuse_snapshots=True)
        observed = [probe.to_json() for probe in reused]
        assert observed == expected, f"replay diverged from rebuild at jobs={workers}"


@pytest.mark.parametrize(
    "attack, programs_per_pair",
    [("flush-reload", 1), ("adversarial-prefetch-a2", 2)],
)
def test_replay_builds_a_pair_once_across_defense_rows(
    attack, programs_per_pair, monkeypatch
):
    """One replayed batch of one victim under all six defense rows builds
    the pair's programs once.  The rows lead with different secrets, so a
    build from each row's first job would build once per leading secret."""
    _, jobs = scenarios.build_grid(("aes-ttable",), (attack,), common.DEFENSES, 3)
    assert len(jobs) == 6 * 3
    jobs = _rotate_cells(jobs, 3, lambda row: row)
    assert len({job.options.secret for job in jobs[::3]}) == 3
    built = []
    original = ProgramBuilder.build

    def counting_build(builder, *args, **kwargs):
        built.append(builder)
        return original(builder, *args, **kwargs)

    monkeypatch.setattr(ProgramBuilder, "build", counting_build)
    base._programs.cache_clear()
    run_batch(jobs, workers=1, reuse_snapshots=True)
    assert len(built) == programs_per_pair


def test_unreplayed_runs_keep_their_own_secret():
    """Without replay, each run's programs carry its own secret: the memo
    keys on it, so back-to-back secrets of one cell probe exactly as builds
    from an empty memo do."""
    system = SystemConfig(prefetcher=scenarios.defense_spec("Base"))
    jobs = [
        ScenarioJob.build("flush-reload", system, victim="aes-ttable", secret=secret)
        for secret in (3, 9)
    ]
    fresh = []
    for job in jobs:
        base._programs.cache_clear()
        fresh.append(job.run())
    assert all(probe.succeeded for probe in fresh)
    base._programs.cache_clear()
    assert [job.run() for job in jobs] == fresh


def _four_steps():
    """``li``, two loads and ``halt``: four scheduler steps."""
    program = assemble("li r1, 0x1000\nload r2, 0(r1)\nload r3, 64(r1)\nhalt")
    return build_system([program], SystemConfig())


def test_replay_warm_up_fits_an_exact_step_budget():
    """A warm-up whose last step halts the last core at exactly
    ``max_steps`` returns, as ``System.run`` does with that budget; one
    step fewer leaves work and raises."""
    assert _four_steps().run_steps(100) == 4
    assert _four_steps().run(max_steps=4).instructions == 4
    assert replay._run_to_watch(_four_steps(), 0x9000, 4) == 4
    with pytest.raises(SimulationError, match="exceeded 3 scheduler steps"):
        replay._run_to_watch(_four_steps(), 0x9000, 3)


def test_replay_warm_up_reports_a_pc_past_the_program():
    """A program that runs off its end fails the warm-up as it fails
    ``run()``: with the core and pc, not a bare IndexError."""
    program = assemble("li r1, 0x1000\nload r2, 0(r1)\nadd r3, r2, 1", name="t")
    system = build_system([program], SystemConfig())
    with pytest.raises(ExecutionError, match="core 0: pc 3 outside program 't'"):
        replay._run_to_watch(system, 0x9000, 100)


def test_reuse_snapshots_caches_individual_trials(tmp_path):
    """Replayed probes land in the store under their own trial keys."""
    from repro.runner import ResultStore

    jobs = [
        ScenarioJob.build("evict-reload", victim="ecdsa-window", secret=secret)
        for secret in (1, 5, 9)
    ]
    store = ResultStore(tmp_path)
    first = run_batch(jobs, store=store, reuse_snapshots=True)
    assert store.misses == len(jobs)
    again = run_batch(jobs, store=store, reuse_snapshots=True)
    assert store.hits == len(jobs)
    assert first == again
