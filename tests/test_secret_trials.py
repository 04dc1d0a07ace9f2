"""One forked walk per secret gives what a walk per secret from t=0 gives.

``repro.analysis.timing.secret_trials`` walks a program's steps before
the first load of a declared secret cell once, then forks there per
secret (``timing._fork``).  Each test here builds its reference in the
test: a fresh ``_WalkState`` with the secret written into its memory,
walked from t=0 by ``_run``.  The intervals and the
``DistinguisherReport`` must match.  The one input whose answer differs
from that reference is a program that stores to its own secret cell
before loading it: the fork writes the secret after that store, as
snapshot replay does, and the simulator's replay confirms it.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from repro.__main__ import main
from repro.analysis import timing
from repro.analysis.taint import taint_of_program
from repro.analysis.timing import (
    DEFAULT_WALK_STEPS,
    CycleInterval,
    DistinguisherReport,
    _fork,
    _run,
    _Unresolved,
    _WalkState,
    secret_trials,
    timing_map,
)
from repro.cpu.core import CoreConfig
from repro.isa.assembler import assemble
from repro.isa.registers import WORD_MASK
from repro.mem.hierarchy import HierarchyConfig
from repro.runner import ATTACK_KINDS
from repro.sim.simulator import build_system
from repro.workloads.crypto import get_victim, victim_names

CONFIG = CoreConfig()
HCONFIG = HierarchyConfig()


def _walk_from_t0(program, secret, observe=frozenset()):
    """The reference: the secret written at t=0, then one unforked walk."""
    walk = _WalkState((program,), HCONFIG)
    for address in program.taint_sources:
        walk.memory[address] = secret & WORD_MASK
    try:
        _run(walk, CONFIG, DEFAULT_WALK_STEPS, observe=observe)
    except _Unresolved:
        return walk, False
    return walk, True


def _reference(program, secrets):
    """``secret_trials``' two answers, rebuilt from walks from t=0."""
    observe = frozenset(taint_of_program(program).secret_addressed())
    intervals = {}
    observed = {}
    for secret in secrets:
        walk, halted = _walk_from_t0(program, secret, observe)
        (core,) = walk.cores
        intervals[secret] = CycleInterval(core.lo, core.hi if halted else None)
        if walk.snapshots:
            observed[secret] = walk.snapshots[-1]
        else:
            assert halted, secret
            observed[secret] = (None, walk.shared.observable(0))
    first = secrets[0]
    other = next(
        (s for s in secrets[1:] if observed[s] != observed[first]), None
    )
    if other is None:
        report = DistinguisherReport(
            secrets=tuple(secrets),
            distinguishable=False,
            witness=None,
            index=None,
            detail=(
                f"all {len(secrets)} secrets converge to one "
                "attacker-observable residency state"
            ),
        )
    else:
        index = observed[first][0]
        report = DistinguisherReport(
            secrets=tuple(secrets),
            distinguishable=True,
            witness=(first, other),
            index=index if index is not None else observed[other][0],
            detail=(
                f"secrets {first} and {other} leave different must/may "
                "residency in a shared cache level"
            ),
        )
    return intervals, report


def _assert_forks_match(program, secrets):
    """Each forked walk ends where the walk from t=0 ends, step for step."""
    observe = frozenset(taint_of_program(program).secret_addressed())
    finish = _fork(
        (program,),
        frozenset(program.taint_sources),
        CONFIG,
        HCONFIG,
        DEFAULT_WALK_STEPS,
        observe,
    )
    for secret in secrets:
        walk, unresolved = finish(secret)
        want, halted = _walk_from_t0(program, secret, observe)
        assert (unresolved is None) == halted, secret
        assert walk.steps == want.steps, secret
        assert walk.memory == want.memory, secret
        assert walk.shared == want.shared, secret
        assert walk.snapshots == want.snapshots, secret
        ((core, want_core),) = zip(walk.cores, want.cores)
        assert (core.lo, core.hi, core.regs) == (
            want_core.lo,
            want_core.hi,
            want_core.regs,
        ), secret


def _count_runs(monkeypatch):
    """Count ``timing._run`` calls from here on."""
    calls = []
    original = timing._run

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(timing, "_run", counting)
    return calls


def _victim_program(name):
    victim = get_victim(name)
    attack = ATTACK_KINDS["flush-reload"](
        victim=name, num_indices=victim.num_indices, secret=0
    )
    (carrier,) = [p for p in attack.build_programs() if p.taint_sources]
    return carrier


def test_flush_reload_victims_match_a_walk_per_secret_from_t0(monkeypatch):
    names = victim_names()
    assert len(names) == 5
    spaces = {name: get_victim(name).secret_space for name in names}
    assert sum(spaces.values()) == 152
    for name in names:
        program = _victim_program(name)
        secrets = tuple(range(spaces[name]))
        want = _reference(program, secrets)
        calls = _count_runs(monkeypatch)
        got = secret_trials(program, secrets)
        monkeypatch.undo()
        assert got == want, name
        _assert_forks_match(program, secrets)
        # One walk up to the secret load, then one per secret: 157 in all
        # where a walk per secret and per answer took 304.
        assert len(calls) == 1 + len(secrets), name


def _assembled(name, *lines):
    return assemble("\n".join(lines) + "\n", name)


#: Loads through the never-written ``r9`` before its secret load.
UNKNOWN_FIRST = _assembled(
    "unknown-first",
    ".data 0x1000 0",
    ".secret 0x1000",
    "    load r3, 0(r9)",
    "    li r1, 0x1000",
    "    load r2, 0(r1)",
    "    halt",
)


def test_an_unknown_base_before_the_secret_load_havocs_one_core():
    for secret in (0, 1):
        assert timing_map(UNKNOWN_FIRST, secret) == CycleInterval(142, 274)
    want = _reference(UNKNOWN_FIRST, (0, 1))
    assert secret_trials(UNKNOWN_FIRST, (0, 1)) == want
    _assert_forks_match(UNKNOWN_FIRST, (0, 1))
    # The walk passes the unknown load and forks at the secret load.
    prefix = _WalkState((UNKNOWN_FIRST,), HCONFIG)
    assert _run(prefix, CONFIG, DEFAULT_WALK_STEPS, frozenset({0x1000}))
    assert prefix.cores[0].pc == 2


#: Two secret cells; the second declared is loaded first.
TWO_CELLS = _assembled(
    "two-cells",
    ".data 0x1000 0",
    ".data 0x1040 0",
    ".secret 0x1000",
    ".secret 0x1040",
    "    li r1, 0x1000",
    "    li r6, 0x8000",
    "    load r2, 64(r1)",
    "    sll r2, r2, 6",
    "    add r2, r2, r6",
    "    load r3, 0(r2)",
    "    load r4, 0(r1)",
    "    sll r4, r4, 7",
    "    add r4, r4, r6",
    "    load r5, 0(r4)",
    "    halt",
)


def test_two_secret_cells_fork_at_the_first_load_of_either():
    assert sorted(TWO_CELLS.taint_sources) == [0x1000, 0x1040]
    prefix = _WalkState((TWO_CELLS,), HCONFIG)
    watch = frozenset(TWO_CELLS.taint_sources)
    assert _run(prefix, CONFIG, DEFAULT_WALK_STEPS, watch)
    assert prefix.cores[0].pc == 2
    secrets = (0, 1, 2, 3)
    intervals, report = secret_trials(TWO_CELLS, secrets)
    assert (intervals, report) == _reference(TWO_CELLS, secrets)
    _assert_forks_match(TWO_CELLS, secrets)
    assert report.distinguishable
    assert all(interval.exact for interval in intervals.values())


#: A loop whose secret-addressed load runs once before the secret load.
OBSERVED_FIRST = _assembled(
    "observed-first",
    ".data 0x1000 0",
    ".secret 0x1000",
    "    li r1, 0x1000",
    "    li r6, 0x8000",
    "    li r2, 0",
    "    li r7, 2",
    "again:",
    "    add r3, r2, r6",
    "    load r4, 0(r3)",
    "    load r2, 0(r1)",
    "    sll r2, r2, 6",
    "    sub r7, r7, 1",
    "    bne r7, zero, again",
    "    halt",
)


def test_observations_before_the_fork_reach_every_secret():
    assert 5 in taint_of_program(OBSERVED_FIRST).secret_addressed()
    prefix = _WalkState((OBSERVED_FIRST,), HCONFIG)
    assert _run(
        prefix, CONFIG, DEFAULT_WALK_STEPS, frozenset({0x1000}), frozenset({5})
    )
    assert [index for index, _ in prefix.snapshots] == [5]
    secrets = (0, 1, 2, 3)
    assert secret_trials(OBSERVED_FIRST, secrets) == _reference(
        OBSERVED_FIRST, secrets
    )
    _assert_forks_match(OBSERVED_FIRST, secrets)


def test_analyze_builtin_timing_walks_each_program_secret_once(monkeypatch):
    calls = _count_runs(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze", "--builtin", "--timing", "--json"]) == 0
    # Five victim programs with 8 trial secrets each: one walk up to the
    # secret load and 8 forks per program.
    assert len(calls) == 45


#: Stores 7 into its own secret cell, then loads the cell and branches on
#: it.  The abstract hierarchy fills a stored line at once and the
#: simulator one memory latency later, so a countdown loop lets that fill
#: land before the load.
STORES_FIRST = _assembled(
    "stores-first",
    ".data 0x1000 0",
    ".secret 0x1000",
    "    li r1, 0x1000",
    "    li r4, 7",
    "    store r4, 0(r1)",
    "    li r7, 200",
    "wait:",
    "    sub r7, r7, 1",
    "    bne r7, zero, wait",
    "    load r2, 0(r1)",
    "    beq r2, zero, done",
    "    mul r5, r2, r2",
    "    mul r5, r5, r5",
    "done:",
    "    halt",
)


@pytest.mark.parametrize("secret", [0, 1])
def test_a_store_before_the_secret_load_is_replaced_as_replay_does(secret):
    system = build_system([STORES_FIRST])
    system.run_steps(DEFAULT_WALK_STEPS, stop_before_load=0x1000)
    system.hierarchy.memory.poke(0x1000, secret)
    replayed = system.run().cycles
    want = CycleInterval(replayed, replayed)
    assert timing_map(STORES_FIRST, secret) == want
    # A walk with the secret written at t=0 loads the stored 7 instead.
    walk, halted = _walk_from_t0(STORES_FIRST, secret)
    assert halted and walk.cores[0].regs[2] == 7


def test_a_store_before_the_secret_load_moves_the_answer():
    intervals, _ = secret_trials(STORES_FIRST, (0, 1))
    assert intervals[0] != intervals[1]
    want, _ = _reference(STORES_FIRST, (0, 1))
    assert want[0] == want[1]
