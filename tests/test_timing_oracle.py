"""Differential oracle: static cycle bounds vs. the dynamic simulator.

The timing analysis makes two falsifiable claims and this file locks
both against the real simulator:

* **containment**: for every crypto victim under the flush-reload
  wrapper, for every secret the scenario suite actually runs on the
  undefended Base config, the measured end-to-end cycle count lies
  inside the static :func:`~repro.analysis.timing_map` interval — and
  since these single-core programs walk to a point interval, the static
  prediction is in fact cycle-exact;
* **verdicts**: the taint-clean ``const-lookup`` control is certified
  constant-time (one exact interval across its whole secret space, zero
  measured variance), while AES/RSA/ECDSA trip ``AN-TIMING-VAR``
  exactly at the accesses/branches whose ``expected_indices`` vary, and
  :func:`~repro.analysis.secret_trials`' distinguisher verdict separates
  leaky victims from the control.
"""

import pytest

from repro.analysis import secret_trials, taint_of_program, timing_map
from repro.attacks import scenarios
from repro.isa import assemble
from repro.runner import ATTACK_KINDS
from repro.sim.config import SystemConfig
from repro.sim.simulator import run_program
from repro.workloads.crypto import get_victim, victim_names

CRYPTO_LEAKY = ("aes-ttable", "direct", "ecdsa-window", "rsa-sqmul")


def victim_program(name):
    """The secret-bearing program of the flush-reload build for ``name``."""
    victim = get_victim(name)
    attack = ATTACK_KINDS["flush-reload"](
        victim=name, num_indices=victim.num_indices, secret=0
    )
    carriers = [p for p in attack.build_programs() if p.taint_sources]
    assert len(carriers) == 1, "expected exactly one secret-bearing program"
    return carriers[0]


@pytest.fixture(scope="module")
def base_cells():
    result = scenarios.run(
        victims=tuple(victim_names()),
        attacks=("flush-reload",),
        defenses=("Base",),
        secrets=4,
    )
    return {cell.spec.victim: cell for cell in result.cells}


# -- simulated cycles fall inside (and on) the static bounds ----------------


@pytest.mark.parametrize("name", victim_names())
def test_simulated_cycles_within_static_bounds(name, base_cells):
    program = victim_program(name)
    probes = base_cells[name].probes
    assert probes, name
    for probe in probes:
        interval = timing_map(program, probe.secret)
        assert interval.lo <= probe.cycles, (name, probe.secret)
        assert interval.hi is not None, (name, probe.secret)
        assert probe.cycles <= interval.hi, (name, probe.secret)
        # Single-core victims resolve to a point: the bound is exact.
        assert interval.exact, (name, probe.secret)
        assert interval.lo == probe.cycles, (name, probe.secret)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP open item 3 (abstract side): HierarchyState.store puts the "
        "stored line into the L1 at once, while MemoryHierarchy.store leaves "
        "its fill in flight for a memory latency, so the load that follows "
        "walks to [8, 8] but waits out the fill (139 cycles)"
    ),
)
def test_load_after_store_within_static_bounds():
    program = assemble("li r1, 0x1000\nli r4, 7\nstore r4, 0(r1)\nload r2, 0(r1)\nhalt")
    interval = timing_map(program, 0)
    cycles = run_program(program, SystemConfig()).cycles
    assert interval.lo <= cycles
    assert interval.hi is not None and cycles <= interval.hi


# -- the control is certified constant-time, statically and dynamically -----


def test_const_lookup_certified_constant_time(base_cells):
    victim = get_victim("const-lookup")
    program = victim_program("const-lookup")
    intervals, _ = secret_trials(program, range(victim.secret_space))
    assert len(intervals) == victim.secret_space
    distinct = {(iv.lo, iv.hi) for iv in intervals.values()}
    assert len(distinct) == 1, distinct
    assert all(iv.exact for iv in intervals.values())
    measured = {probe.cycles for probe in base_cells["const-lookup"].probes}
    assert len(measured) == 1, measured
    ((static_cycles, _),) = distinct
    assert measured == {static_cycles}


def test_leaky_victims_vary_statically():
    """At least one leaky victim shows secret-dependent *cycles* (the
    branchy one); the rest still vary in cache state (next test)."""
    victim = get_victim("rsa-sqmul")
    program = victim_program("rsa-sqmul")
    intervals, _ = secret_trials(
        program, victim.trial_secrets(min(8, victim.secret_space))
    )
    assert len({(iv.lo, iv.hi) for iv in intervals.values()}) > 1


# -- AN-TIMING-VAR anchors == the accesses/branches that vary ---------------


@pytest.mark.parametrize("name", victim_names())
def test_timing_var_anchors_match_taint_surface(name):
    program = victim_program(name)
    analysis = program.analysis
    taint = taint_of_program(program)
    flagged = {
        f.index
        for f in analysis.findings + analysis.suppressed
        if f.rule == "AN-TIMING-VAR"
    }
    expected = set(taint.secret_addressed()) | set(taint.branches)
    assert flagged == expected, (name, flagged, expected)
    if name == "const-lookup":
        assert flagged == set()
    else:
        assert flagged, name


# -- AN-CACHE-DISTINGUISH separates leaky victims from the control ----------


@pytest.mark.parametrize("name", victim_names())
def test_cache_distinguisher_verdicts(name):
    victim = get_victim(name)
    program = victim_program(name)
    _, report = secret_trials(
        program, victim.trial_secrets(min(8, victim.secret_space))
    )
    if name in CRYPTO_LEAKY:
        assert report.distinguishable, name
        assert report.witness is not None
        assert report.index is not None
    else:
        assert not report.distinguishable, name
        assert report.witness is None
