"""Property tests for the abstract cache-state domain.

The timing analysis is only sound if the lattice underneath it behaves:
``join`` must be an upper bound (idempotent, commutative, monotone) and
the joined state may never claim more than *both* inputs agree on —
otherwise a merge point in the CFG could manufacture a definite hit or
miss that one incoming path contradicts.  The last test pins the other
end of the spectrum: on a single concrete path (no joins, no havoc) the
must/may intervals collapse to exact LRU, which is what makes
``timing_map`` cycle-exact for the straight-line victims.

The hierarchy tests pin inclusion: an L2 eviction back-invalidates the
line in every core's L1 and drops its ``prefetchw`` ownership record, as
:class:`repro.mem.hierarchy.MemoryHierarchy` does.  The abstract
hierarchy restores inclusion only over the blocks a transfer can demote;
a differential harness checks it against a full scan of every L1.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import cachemodel
from repro.analysis.cachemodel import (
    HIT,
    MISS,
    UNKNOWN,
    CacheGeometry,
    CacheState,
    HierarchyState,
    MultiCoreHierarchyState,
)
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy

#: Small geometry so sequences actually evict: 4 sets x 2 ways.
GEOMETRY = CacheGeometry(num_sets=4, assoc=2, block_bits=6)

#: A handful of block numbers spanning every set, with set collisions.
BLOCKS = tuple(range(12))

_ops = st.one_of(
    st.tuples(st.just("access"), st.sampled_from(BLOCKS)),
    st.tuples(st.just("flush"), st.sampled_from(BLOCKS)),
    st.tuples(st.just("havoc_access"), st.none()),
    st.tuples(st.just("havoc_flush"), st.none()),
)

op_sequences = st.lists(_ops, max_size=24)
concrete_sequences = st.lists(st.sampled_from(BLOCKS), max_size=32)


def run_ops(ops):
    state = CacheState(GEOMETRY)
    for name, arg in ops:
        if arg is None:
            getattr(state, name)()
        else:
            getattr(state, name)(arg)
    return state


@settings(max_examples=200, deadline=None)
@given(op_sequences)
def test_join_idempotent(ops):
    state = run_ops(ops)
    assert state.join(state) == state


@settings(max_examples=200, deadline=None)
@given(op_sequences, op_sequences)
def test_join_commutative(left_ops, right_ops):
    left, right = run_ops(left_ops), run_ops(right_ops)
    assert left.join(right) == right.join(left)


@settings(max_examples=200, deadline=None)
@given(op_sequences, op_sequences)
def test_join_is_upper_bound(left_ops, right_ops):
    left, right = run_ops(left_ops), run_ops(right_ops)
    joined = left.join(right)
    assert left.leq(joined)
    assert right.leq(joined)


@settings(max_examples=100, deadline=None)
@given(op_sequences, op_sequences, op_sequences)
def test_join_monotone(low_ops, extra_ops, other_ops):
    """``a <= b  ==>  a join c <= b join c`` (b built as a join upper)."""
    low, other = run_ops(low_ops), run_ops(other_ops)
    high = low.join(run_ops(extra_ops))
    assert low.leq(high)
    assert low.join(other).leq(high.join(other))


@settings(max_examples=200, deadline=None)
@given(op_sequences, op_sequences)
def test_join_over_approximates_both_inputs(left_ops, right_ops):
    """The join never claims a definite hit/miss either input disputes."""
    left, right = run_ops(left_ops), run_ops(right_ops)
    joined = left.join(right)
    for block in BLOCKS:
        verdict = joined.classify(block)
        if verdict == UNKNOWN:
            continue
        assert left.classify(block) == verdict, block
        assert right.classify(block) == verdict, block


@settings(max_examples=200, deadline=None)
@given(concrete_sequences)
def test_concrete_path_matches_reference_lru(sequence):
    """No joins, no havoc: the abstract state IS an exact LRU simulator."""
    state = CacheState(GEOMETRY)
    lru = {index: [] for index in range(GEOMETRY.num_sets)}
    for block in sequence:
        ways = lru[GEOMETRY.set_of(block)]
        expected = HIT if block in ways else MISS
        assert state.classify(block) == expected, (sequence, block)
        if block in ways:
            ways.remove(block)
        ways.insert(0, block)
        del ways[GEOMETRY.assoc:]
        state.access(block)
    for block in BLOCKS:
        ways = lru[GEOMETRY.set_of(block)]
        expected = HIT if block in ways else MISS
        assert state.classify(block) == expected, (sequence, block)


# -- inclusion across the hierarchy -------------------------------------------

#: Small hierarchy so sequences evict from the L2: L1 2 sets x 2 ways over
#: an L2 of 4 sets x 4 ways.
SMALL = HierarchyConfig(
    l1d_size=2 * 2 * 64, l1d_assoc=2, l2_size=4 * 4 * 64, l2_assoc=4
)

#: 24 block addresses: 6 per L2 set, more than its 4 ways.
ADDRS = tuple(block * 64 for block in range(24))

#: Cycles between two concrete accesses: every fill completes in between.
GAP = 10_000


def _parse(sequence: str) -> list[tuple[str, int, int]]:
    """``"load c1 0x40; ..."`` -> ``[("load", 1, 0x40), ...]``."""
    ops = []
    for item in sequence.split(";"):
        op, core, addr = item.split()
        ops.append((op, int(core[1:]), int(addr, 16)))
    return ops


def _x_set_conflict() -> list[tuple[str, int, int]]:
    """Core 1 loads X; core 0 evicts X from the L2; core 1 reloads X."""
    x = 0x40
    stride = 2048 * 64  # one full turn of the default L2's sets
    evictors = [("load", 0, x + k * stride) for k in range(1, 17)]
    return [("load", 1, x), *evictors, ("load", 1, x)]


def _concrete_latency(hierarchy, op, core, addr, now):
    if op == "load":
        return hierarchy.load(core, addr, now).latency
    if op == "store":
        return hierarchy.store(core, addr, 0, now)
    if op == "flush":
        return hierarchy.flush(core, addr, now)
    write = op == "prefetchw"
    return hierarchy.software_prefetch(core, addr, now, write=write).latency


def _abstract_interval(state, op, core, addr):
    if op in ("prefetch", "prefetchw"):
        return state.prefetch(core, addr, write=op == "prefetchw")
    return getattr(state, op)(core, addr)


@pytest.mark.parametrize(
    "config, ops",
    [
        pytest.param(HierarchyConfig(), _x_set_conflict(), id="cross-core-l2-eviction"),
        pytest.param(
            SMALL,
            _parse(
                "prefetchw c0 0x200; load c1 0x300; store c0 0x100; "
                "prefetch c0 0x400; load c1 0x0; load c0 0x200; "
                "load c1 0x200; load c0 0x200"
            ),
            id="ownership-dies-with-l2-line",
        ),
    ],
)
def test_abstract_interval_contains_concrete_latency(config, ops):
    """Each access's simulated latency lies inside its abstract interval.

    ``cross-core-l2-eviction``: core 0's loads evict X from the L2, which
    back-invalidates core 1's copy, so core 1's reload pays memory (136
    cycles), not an L1 hit.  ``ownership-dies-with-l2-line``: the L2
    evicts 0x200 while core 0 owns it, so the ownership record dies and
    core 1's later load steals nothing; core 0's last load hits its L1.
    """
    concrete = MemoryHierarchy(num_cores=2, config=config)
    abstract = MultiCoreHierarchyState(config, num_cores=2)
    for step, (op, core, addr) in enumerate(ops):
        latency = _concrete_latency(concrete, op, core, addr, (step + 1) * GAP)
        interval = _abstract_interval(abstract, op, core, addr)
        assert interval.lo <= latency <= interval.hi, (step, op, core, hex(addr))


def _full_scan(l1s, l2, checked, exclusive=None):
    """Reference inclusion: scan every block each L1 tracks, in every L1.

    ``checked`` is ignored.  Ownership records are dropped for every block
    the L2 now certainly misses.
    """
    for l1 in l1s:
        for block in sorted(l1.must_blocks()):
            if l2.classify(block) != HIT:
                s = l1.geometry.set_of(block)
                must = l1._must.get(s)
                if must is not None:
                    must.pop(block, None)
                    if not must:
                        del l1._must[s]
        if not l1.may_universal:
            for block in sorted(l1.may_blocks() or frozenset()):
                if l2.classify(block) == MISS:
                    l1.flush(block)
    if exclusive is not None:
        for block in sorted(exclusive):
            if l2.classify(block) == MISS:
                del exclusive[block]


@contextmanager
def _reference_inclusion():
    """Route the model's inclusion step through :func:`_full_scan`."""
    fast = cachemodel._restore_inclusion
    cachemodel._restore_inclusion = _full_scan
    try:
        yield
    finally:
        cachemodel._restore_inclusion = fast


def _assert_inclusive(l1s, l2, exclusive=()):
    for l1 in l1s:
        for block in l1.must_blocks():
            assert l2.classify(block) == HIT, block
        for block in l1.may_blocks() or ():
            assert l2.classify(block) != MISS, block
    for block in exclusive:
        assert l2.classify(block) != MISS, block


#: Single core: about 1 in 25 addresses is unresolved (``None``).
_single_core_ops = st.lists(
    st.tuples(
        st.sampled_from(("load", "store", "prefetch", "flush")),
        st.sampled_from(ADDRS + (None,)),
    ),
    min_size=30,
    max_size=60,
)

_multi_core_ops = st.lists(
    st.tuples(
        st.sampled_from(("load", "store", "prefetch", "prefetchw", "flush")),
        st.integers(min_value=0, max_value=2),
        st.sampled_from(ADDRS),
    ),
    min_size=30,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_single_core_ops)
def test_hierarchy_inclusion_matches_full_scan(ops):
    fast = HierarchyState(SMALL)
    reference = HierarchyState(SMALL)
    for op, addr in ops:
        interval = getattr(fast, op)(addr)
        with _reference_inclusion():
            expected = getattr(reference, op)(addr)
        assert interval == expected, (op, addr)
        assert fast == reference, (op, addr)
        _assert_inclusive((fast.l1,), fast.l2)


@settings(max_examples=200, deadline=None)
@given(_multi_core_ops)
def test_multicore_inclusion_matches_full_scan(ops):
    fast = MultiCoreHierarchyState(SMALL, num_cores=3)
    reference = MultiCoreHierarchyState(SMALL, num_cores=3)
    for op, core, addr in ops:
        interval = _abstract_interval(fast, op, core, addr)
        with _reference_inclusion():
            expected = _abstract_interval(reference, op, core, addr)
        assert interval == expected, (op, core, addr)
        assert fast == reference, (op, core, addr)
        _assert_inclusive(fast.l1s, fast.l2, fast.exclusive)
