"""One walker, two treatments of imprecision, chosen by the core count.

``repro.analysis.timing`` walks one program for ``secret_trials`` (and
``timing_map``, its one-secret reader), and one or two programs for the
certifier, forking each walk per secret at the secret load.  A
single core bounds what it cannot resolve: an unresolved address havocs
the hierarchy, an unknown stored value leaves its word unknown, a store
to an unresolved address leaves every word unknown, a widened latency
widens the cycle interval, ``rdcycle`` then reads an unknown value, and a
software prefetch may be dropped.  Two cores schedule on exact times, so
each of those raises ``_Unresolved`` with the same reason string, and
prefetches complete.  Under any core count a branch over an unknown value
ends the walk.
"""

from __future__ import annotations

import pytest

from repro.analysis.scenario import _end_memory
from repro.analysis.timing import (
    DEFAULT_WALK_STEPS,
    CycleInterval,
    _fork,
    _run,
    _Unresolved,
    _WalkState,
    timing_map,
)
from repro.cpu.core import CoreConfig
from repro.isa.assembler import assemble
from repro.mem.hierarchy import HierarchyConfig

SECRET = 0x1000
CONFIG = CoreConfig()
HCONFIG = HierarchyConfig()
HALT = assemble("    halt\n", "halt-only")


def _program(name, *body):
    """Load the ``.secret`` word through ``r1`` (pc 1), then run ``body``
    from pc 2.  ``r9`` is never written."""
    lines = [
        f".data {SECRET:#x} 0 0",
        f".secret {SECRET:#x}",
        f"    li r1, {SECRET:#x}",
        "    load r2, 0(r1)",
        *(f"    {line}" for line in body),
        "done:",
        "    halt",
    ]
    return assemble("\n".join(lines) + "\n", name)


UNKNOWN_BASE = _program("unknown-base", "load r3, 0(r9)")
UNKNOWN_VALUE = _program("unknown-value", "store r9, 8(r1)", "load r3, 8(r1)")
UNKNOWN_TARGET = _program("unknown-target", "store r1, 0(r9)", "load r3, 8(r1)")
UNKNOWN_BRANCH = _program("unknown-branch", "bne r9, zero, done", "nop")
PREFETCH = _program("prefetch", "prefetch 64(r1)", "rdcycle r5")


def _walk(*programs):
    walk = _WalkState(programs, HCONFIG)
    assert not _run(walk, CONFIG, DEFAULT_WALK_STEPS * len(programs))
    return walk


def _reason(*programs):
    with pytest.raises(_Unresolved) as info:
        _walk(*programs)
    return info.value.reason


def test_one_core_havocs_an_unresolved_address():
    assert timing_map(UNKNOWN_BASE, 0) == CycleInterval(142, 274)
    assert 3 not in _walk(UNKNOWN_BASE).cores[0].regs


def test_one_core_leaves_an_unknown_stored_word_unknown():
    walk = _walk(UNKNOWN_VALUE)
    assert walk.memory[SECRET + 8] is None
    assert not walk.clobbered
    assert 3 not in walk.cores[0].regs


def test_one_core_store_to_an_unresolved_address_clobbers_memory():
    walk = _walk(UNKNOWN_TARGET)
    assert walk.clobbered
    assert walk.memory[SECRET + 8] == 0
    assert 3 not in walk.cores[0].regs
    # The certifier reads its observations from the end state's memory,
    # so a clobbered end state is no observation.
    watch = frozenset({SECRET})
    finish = _fork(
        [UNKNOWN_TARGET], watch, CONFIG, HCONFIG, DEFAULT_WALK_STEPS
    )
    with pytest.raises(_Unresolved, match="clobbered memory"):
        _end_memory(finish, 1)


@pytest.mark.parametrize(
    "program", [UNKNOWN_BASE, UNKNOWN_VALUE, UNKNOWN_TARGET, UNKNOWN_BRANCH]
)
def test_two_cores_raise_where_one_core_bounds(program):
    assert _reason(program, HALT) == "core 0: register r9 unknown at pc 2"
    assert _reason(HALT, program) == "core 1: register r9 unknown at pc 2"


def test_any_core_count_ends_the_walk_at_a_branch_over_an_unknown_value():
    assert timing_map(UNKNOWN_BRANCH, 0) == CycleInterval(137, None)
    assert _reason(UNKNOWN_BRANCH) == "core 0: register r9 unknown at pc 2"


def test_widened_latency_widens_one_core_and_stops_two():
    one = _WalkState((PREFETCH,), HCONFIG)
    one.shared.load(0, None)
    assert not _run(one, CONFIG, DEFAULT_WALK_STEPS)
    core = one.cores[0]
    assert core.lo < core.hi
    two = _WalkState((PREFETCH, HALT), HCONFIG)
    two.shared.load(1, None)  # havocs core 1's L1 and the shared L2
    with pytest.raises(_Unresolved) as info:
        _run(two, CONFIG, DEFAULT_WALK_STEPS * 2)
    assert info.value.reason == "core 0: access latency widened to 16..136 at pc 1"


def test_one_core_may_drop_a_prefetch_and_two_cores_complete_it():
    # The line at SECRET + 64 misses the L1.  A dropped prefetch costs an
    # L1 hit, a completed one the memory latency.
    assert timing_map(PREFETCH, 0) == CycleInterval(143, 275)
    one = _walk(PREFETCH).cores[0]
    assert (one.lo, one.hi) == (1 + 136 + 4 + 1 + 1, 1 + 136 + 136 + 1 + 1)
    assert 5 not in one.regs  # rdcycle under an inexact time
    two = _walk(PREFETCH, HALT).cores[0]
    assert two.lo == two.hi == 1 + 136 + 136 + 1 + 1
    assert two.regs[5] == 1 + 136 + 136
