"""Differential fuzz test: the optimised ``Cache`` against a naive reference.

The reference keeps each set as a plain list of line rows in recency order
(least recently used first) and finds lines by a linear search.  Its MSHR
file is the naive ``ReferenceMSHR`` (``reference_mshr``), which purges
completed fills on every query and counts its pools by scanning, so the
cache and its ``MSHRFile`` are checked together; only the ``MemoryPort``
parent is shared.

Hypothesis drives random sequences of demand loads and stores, prefetch-fill
accesses, prefetches, flushes, invalidations and child writebacks through a
4-set x 2-way cache and the reference.  Time never goes backwards, and many
gaps are shorter than a fill, so in-flight merges, MSHR merges and
demand-priority squashes all happen.  After every operation both must
return the same ``(latency, level)``, hold the same blocks in the same LRU
order with the same line flags, and count the same ``CacheStats`` and MSHR
state.
"""

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_mshr import ReferenceMSHR
from repro.mem.cache import Cache, CacheStats, MemoryPort
from repro.mem.memory import MainMemory
from repro.utils.addr import AddressMap

NUM_SETS = 4
ASSOC = 2
BLOCK = 64
HIT_LATENCY = 4
MEMORY_LATENCY = 100


@dataclass
class Row:
    block_addr: int
    ready_time: int
    prefetched: bool
    component: str | None
    dirty: bool = False
    useful_counted: bool = False

    def flags(self):
        return (self.block_addr, self.ready_time, self.prefetched,
                self.component, self.dirty, self.useful_counted)


class ReferenceCache:
    """Naive set-associative LRU cache with the same timing rules."""

    level_name = "L1D"

    def __init__(self, mshr_entries):
        self.sets = [[] for _ in range(NUM_SETS)]
        self.parent = MemoryPort(MainMemory(latency=MEMORY_LATENCY))
        self.mshr = ReferenceMSHR(num_entries=mshr_entries)
        self.stats = CacheStats()

    def _rows(self, block_addr):
        return self.sets[(block_addr // BLOCK) % NUM_SETS]

    def _find(self, block_addr):
        for row in self._rows(block_addr):
            if row.block_addr == block_addr:
                return row
        return None

    def _remove(self, row):
        self._rows(row.block_addr).remove(row)
        if row.dirty:
            self.stats.writebacks += 1

    def _insert(self, block_addr, ready_time, prefetched, component):
        rows = self._rows(block_addr)
        if len(rows) == ASSOC:
            self.stats.evictions += 1
            self._remove(rows[0])
        row = Row(block_addr, ready_time, prefetched, component)
        rows.append(row)
        return row

    def access(self, addr, now, write=False, demand=True):
        block_addr = addr - addr % BLOCK
        stats = self.stats
        if demand:
            stats.demand_accesses += 1
        row = self._find(block_addr)
        if row is not None:
            rows = self._rows(block_addr)
            rows.remove(row)
            rows.append(row)
            if write:
                row.dirty = True
            if row.ready_time <= now:
                if demand:
                    stats.hits += 1
                    if row.prefetched and not row.useful_counted:
                        stats.useful_prefetches += 1
                        row.useful_counted = True
                return HIT_LATENCY, self.level_name
            latency = max(HIT_LATENCY, row.ready_time - now)
            if demand:
                stats.inflight_hits += 1
                stats.miss_latency_total += latency - HIT_LATENCY
                if row.prefetched:
                    self.mshr.mark_demand_consumed(block_addr, now)
            return latency, "INFLIGHT"
        if demand:
            stats.misses += 1
        merged_ready = self.mshr.merge(block_addr, now, demand=demand)
        if merged_ready is not None:
            latency = max(HIT_LATENCY, merged_ready - now)
            if demand:
                stats.mshr_merge_hits += 1
                stats.miss_latency_total += latency - HIT_LATENCY
            return latency, "MSHR"
        below_latency, below_level = self.parent.access(
            block_addr, now + HIT_LATENCY, demand=demand
        )
        fill_time = HIT_LATENCY + below_latency
        if demand:
            start, _ = self.mshr.allocate_demand(block_addr, now, fill_time)
            squashed = self.mshr.last_squashed_block
            if squashed is not None:
                self._cancel(squashed, now)
        else:
            start = now
            self.mshr.allocate_prefetch_fill(block_addr, now, fill_time)
        total_latency = start - now + fill_time
        row = self._insert(block_addr, now + total_latency, not demand, None)
        if write:
            row.dirty = True
        if demand:
            stats.miss_latency_total += total_latency - HIT_LATENCY
        return total_latency, below_level

    def _cancel(self, block_addr, now):
        row = self._find(block_addr)
        if row is None or not row.prefetched or row.ready_time <= now:
            return
        self._remove(row)
        self.stats.prefetch_squashed += 1

    def prefetch(self, addr, now, component):
        block_addr = addr - addr % BLOCK
        if self._find(block_addr) is not None:
            return None
        if not self.mshr.prefetch_available(now):
            self.mshr.prefetch_drops += 1
            self.stats.prefetch_dropped += 1
            return None
        below_latency, _ = self.parent.access(
            block_addr, now + HIT_LATENCY, demand=False
        )
        ready_time = self.mshr.allocate_prefetch(
            block_addr, now, HIT_LATENCY + below_latency
        )
        self._insert(block_addr, ready_time, True, component)
        self.stats.prefetch_issued += 1
        return ready_time

    def invalidate_block(self, addr):
        row = self._find(addr - addr % BLOCK)
        if row is None:
            return False
        self._remove(row)
        return True

    def flush_block(self, addr):
        if not self.invalidate_block(addr):
            return False
        self.stats.flushes += 1
        return True

    def mark_dirty(self, addr):
        row = self._find(addr - addr % BLOCK)
        if row is not None:
            row.dirty = True

    def lru_lines(self):
        return [row.flags() for rows in self.sets for row in rows]


def lru_lines(cache):
    """Resident lines of the real cache, set by set in LRU order."""
    lines = []
    for block_addr in cache.resident_blocks():
        line = cache.line_for(block_addr)
        lines.append((line.block_addr, line.ready_time, line.prefetched,
                      line.component, line.dirty, line.useful_counted))
    return lines


def apply(model, kind, addr, now, component):
    if kind == "load":
        return model.access(addr, now)
    if kind == "store":
        return model.access(addr, now, write=True)
    if kind == "fill":
        return model.access(addr, now, demand=False)
    if kind == "prefetch":
        return model.prefetch(addr, now, component)
    if kind == "flush":
        return model.flush_block(addr)
    if kind == "invalidate":
        return model.invalidate_block(addr)
    return model.mark_dirty(addr)


_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ("load", "store", "fill", "prefetch", "flush", "invalidate",
             "mark_dirty")
        ),
        st.integers(0, 4 * NUM_SETS - 1),  # four blocks compete per set
        st.integers(0, BLOCK - 1),
        # Gaps: mostly shorter than a fill (about 104 cycles), often tiny.
        st.one_of(st.integers(0, 10), st.integers(0, 2 * MEMORY_LATENCY)),
        st.sampled_from(("st", "at")),
    ),
    min_size=40,
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(ops=_ops, mshr_entries=st.sampled_from((1, 2)))
def test_cache_matches_naive_reference(ops, mshr_entries):
    cache = Cache(
        "L1D0",
        size=NUM_SETS * ASSOC * BLOCK,
        assoc=ASSOC,
        amap=AddressMap(),
        hit_latency=HIT_LATENCY,
        parent=MemoryPort(MainMemory(latency=MEMORY_LATENCY)),
        mshr_entries=mshr_entries,
    )
    reference = ReferenceCache(mshr_entries)
    now = 0
    for step, (kind, block, offset, gap, component) in enumerate(ops):
        now += gap
        addr = block * BLOCK + offset
        got = apply(cache, kind, addr, now, component)
        want = apply(reference, kind, addr, now, component)
        where = f"op {step} {kind} {addr:#x} @ {now}"
        assert got == want, where
        assert lru_lines(cache) == reference.lru_lines(), where
        assert cache.stats == reference.stats, where
        assert cache.mshr.snapshot() == reference.mshr.snapshot(), where
