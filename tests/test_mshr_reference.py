"""Differential fuzz test: ``MSHRFile`` against the naive ``ReferenceMSHR``.

``MSHRFile`` keeps each pool's occupancy as a counter and purges completed
fills only once the earliest one is due.  The reference (``reference_mshr``)
purges on every query and counts its pools by scanning.  Hypothesis drives
both with the same random sequence of allocations, merges, pins and queries
over small pools (1-3 demand, 1-2 prefetch entries, two merges per entry),
so squashes, waits, pinned entries and two entries for one block all occur.
Time never goes backwards, and many gaps are shorter than a fill.  After
every op both must return the same value and hold the same snapshot, and
the file's derived state (both pool counters and the earliest ready time)
must match what the reference counts.  Mid-sequence the file is restored
from its snapshot into a fresh ``MSHRFile``, which carries on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_mshr import ReferenceMSHR
from repro.mem.mshr import MSHRFile

BLOCK = 64
MAX_MERGES = 2


def apply(mshr, kind, block_addr, now, fill_time):
    if kind == "allocate_demand":
        return mshr.allocate_demand(block_addr, now, fill_time)
    if kind == "allocate_prefetch":
        return mshr.allocate_prefetch(block_addr, now, fill_time)
    if kind == "allocate_prefetch_fill":
        return mshr.allocate_prefetch_fill(block_addr, now, fill_time)
    if kind == "merge":
        return mshr.merge(block_addr, now)
    if kind == "merge_prefetch":
        return mshr.merge(block_addr, now, demand=False)
    if kind == "mark_demand_consumed":
        return mshr.mark_demand_consumed(block_addr, now)
    if kind == "available":
        return mshr.available(now)
    if kind == "prefetch_available":
        return mshr.prefetch_available(now)
    return mshr.occupancy(now)


def derived_state(mshr):
    return (mshr._demand_count, mshr._prefetch_count, mshr._earliest)


def counted_state(reference):
    ready = [row.ready_time for row in reference.rows]
    return (
        reference.demand_occupancy(),
        reference.prefetch_occupancy(),
        min(ready, default=float("inf")),
    )


_ops = st.lists(
    st.tuples(
        # Half the ops allocate, so both pools fill up and squash.
        st.one_of(
            st.sampled_from(
                ("allocate_demand", "allocate_prefetch",
                 "allocate_prefetch_fill")
            ),
            st.sampled_from(
                ("merge", "merge_prefetch", "mark_demand_consumed",
                 "available", "prefetch_available", "occupancy")
            ),
        ),
        st.integers(0, 4),  # five blocks, so merges and repeats are common
        # Gaps: mostly shorter than a fill, often tiny.
        st.one_of(st.integers(0, 10), st.integers(0, 150)),
        st.integers(20, 120),  # fill time
    ),
    min_size=20,
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(
    ops=_ops,
    num_entries=st.integers(1, 3),
    prefetch_entries=st.integers(1, 2),
    restore_at=st.integers(0, 120),
)
def test_mshr_matches_naive_reference(
    ops, num_entries, prefetch_entries, restore_at
):
    sizes = dict(
        num_entries=num_entries,
        max_merges=MAX_MERGES,
        prefetch_entries=prefetch_entries,
    )
    mshr = MSHRFile(**sizes)
    reference = ReferenceMSHR(**sizes)
    now = 0
    for step, (kind, block, gap, fill_time) in enumerate(ops):
        if step == restore_at:
            restored = MSHRFile(**sizes)
            restored.restore(mshr.snapshot())
            mshr = restored
        now += gap
        got = apply(mshr, kind, block * BLOCK, now, fill_time)
        want = apply(reference, kind, block * BLOCK, now, fill_time)
        where = f"op {step} {kind} {block * BLOCK:#x} @ {now}"
        assert got == want, where
        assert mshr.snapshot() == reference.snapshot(), where
        assert derived_state(mshr) == counted_state(reference), where
