"""Set-associative write-back cache with true LRU, MSHRs and in-flight fills.

Latency composition: a hit costs ``hit_latency``; a miss costs
``hit_latency`` (tag lookup) plus whatever the parent level reports, and the
line is inserted with a future ``ready_time`` so later accesses that race the
fill merge into it.  With the default configuration this yields the three
latency classes the attacks in the paper distinguish:

* L1 hit:   4 cycles
* L2 hit:   16 cycles (4 + 12)
* memory:   136 cycles (4 + 12 + 120)

Each set is one ``{block_addr: CacheLine}`` dict holding exactly the
resident lines in LRU order, least recently used first: lookup is one dict
probe, a hit re-inserts its key at the end, and a fill into a full set
evicts the first key.  A fill allocates one line and a removal drops it, so
an untouched set costs an empty dict and a snapshot carries only resident
lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigError
from repro.mem.cacheline import CacheLine
from repro.mem.mshr import MSHRFile
from repro.mem.memory import MainMemory
from repro.snapshot import require_keys
from repro.utils.addr import AddressMap


@dataclass(slots=True)
class CacheStats:
    """Per-cache counters; Fig. 10 consumes ``miss_latency_total``."""

    demand_accesses: int = 0
    hits: int = 0
    misses: int = 0
    inflight_hits: int = 0
    mshr_merge_hits: int = 0
    miss_latency_total: int = 0
    prefetch_issued: int = 0
    prefetch_dropped: int = 0
    prefetch_squashed: int = 0
    useful_prefetches: int = 0
    evictions: int = 0
    writebacks: int = 0
    back_invalidations: int = 0
    cross_invalidations: int = 0
    flushes: int = 0

    @property
    def miss_rate(self) -> float:
        if self.demand_accesses == 0:
            return 0.0
        return self.misses / self.demand_accesses

    def as_dict(self) -> dict[str, int | float]:
        data = {name: getattr(self, name) for name in self.__dataclass_fields__}
        data["miss_rate"] = self.miss_rate
        return data


# Field order for the flat stats tuple in Cache.snapshot().
_CACHE_STATS_FIELDS = tuple(CacheStats.__dataclass_fields__)


class MemoryPort:
    """Terminal 'parent' wrapping main memory's flat latency."""

    __slots__ = ("_memory",)

    level_name = "MEM"

    def __init__(self, memory: MainMemory) -> None:
        self._memory = memory

    def access(
        self, addr: int, now: int, write: bool = False, demand: bool = True
    ) -> tuple[int, str]:
        return self._memory.latency, "MEM"

    def mark_dirty(self, block_addr: int) -> None:
        """Writebacks reaching memory need no bookkeeping."""


class Cache:
    """One level of set-associative cache."""

    __slots__ = (
        "name",
        "level_name",
        "size",
        "assoc",
        "amap",
        "hit_latency",
        "parent",
        "num_sets",
        "_sets",
        "_block_mask",
        "_block_bits",
        "_set_mask",
        "mshr",
        "stats",
        "on_evict",
    )

    def __init__(
        self,
        name: str,
        size: int,
        assoc: int,
        amap: AddressMap,
        hit_latency: int,
        parent: "Cache | MemoryPort",
        mshr_entries: int = 4,
        mshr_max_merges: int = 20,
    ) -> None:
        block = amap.block_size
        if size % (assoc * block) != 0:
            raise ConfigError(
                f"{name}: size {size} not divisible by assoc*block "
                f"({assoc}*{block})"
            )
        self.name = name
        # "L1D0" -> "L1D" (strip the core id), but keep "L2" intact.
        stripped = name.rstrip("0123456789")
        self.level_name = stripped if len(stripped) >= 2 else name
        self.size = size
        self.assoc = assoc
        self.amap = amap
        self.hit_latency = hit_latency
        self.parent = parent
        self.num_sets = size // (assoc * block)
        if self.num_sets & (self.num_sets - 1):
            raise ConfigError(f"{name}: num_sets {self.num_sets} not a power of two")
        # Per-set {block_addr: line} in LRU order, least recently used first.
        self._sets: list[dict[int, CacheLine]] = [
            {} for _ in range(self.num_sets)
        ]
        # Hoisted address arithmetic (amap.block_addr/set_index per access
        # cost a call plus a power-of-two re-check each).
        self._block_mask = ~(block - 1)
        self._block_bits = block.bit_length() - 1
        self._set_mask = self.num_sets - 1
        self.mshr = MSHRFile(num_entries=mshr_entries, max_merges=mshr_max_merges)
        self.stats = CacheStats()
        # Set by the hierarchy on the shared L2 to back-invalidate L1 copies;
        # it holds the hierarchy weakly, so the L2 keeps no cycle alive.
        self.on_evict: Callable[[int, int], None] | None = None

    # -- lookup helpers ------------------------------------------------------

    def _set_of(self, block_addr: int) -> dict[int, CacheLine]:
        return self._sets[(block_addr >> self._block_bits) & self._set_mask]

    def contains(self, block_addr: int) -> bool:
        """True when the line is present (including in-flight fills)."""
        block_addr &= self._block_mask
        set_index = (block_addr >> self._block_bits) & self._set_mask
        return block_addr in self._sets[set_index]

    def contains_ready(self, block_addr: int, now: int) -> bool:
        """True when the line is present and its data has arrived."""
        line = self.line_for(block_addr)
        return line is not None and line.ready_time <= now

    def line_for(self, block_addr: int) -> CacheLine | None:
        """The line holding ``block_addr`` or None (tests/analysis)."""
        block_addr &= self._block_mask
        return self._set_of(block_addr).get(block_addr)

    # -- replacement ---------------------------------------------------------

    def _evict(
        self, lines: dict[int, CacheLine], block_addr: int, now: int
    ) -> None:
        self.stats.evictions += 1
        # Back-invalidate child copies first: a dirty child line writes back
        # into this line (mark_dirty), so the dirty check below sees it and
        # the modified data propagates instead of dying with the eviction.
        if self.on_evict is not None:
            self.on_evict(block_addr, now)
        line = lines.pop(block_addr)
        if line.dirty:
            self.stats.writebacks += 1
            self.parent.mark_dirty(block_addr)

    def _insert(
        self,
        lines: dict[int, CacheLine],
        block_addr: int,
        now: int,
        ready_time: int,
        prefetched: bool,
        component: str | None,
    ) -> CacheLine:
        if len(lines) >= self.assoc:
            self._evict(lines, next(iter(lines)), now)
        line = lines[block_addr] = CacheLine(
            block_addr, ready_time, prefetched, component
        )
        return line

    def mark_dirty(self, block_addr: int) -> None:
        """Receive a writeback from a child (inclusive hierarchy)."""
        line = self.line_for(block_addr)
        if line is not None:
            line.dirty = True
        # A missing line (back-invalidated earlier) silently reaches memory.

    # -- demand path ---------------------------------------------------------

    def access(
        self, addr: int, now: int, write: bool = False, demand: bool = True
    ) -> tuple[int, str]:
        """Access ``addr`` at time ``now``; returns (latency, source level).

        ``demand=False`` is the prefetch-fill path used by child caches: the
        state transitions are identical but the counters differ.
        """
        block_addr = addr & self._block_mask
        lines = self._sets[(block_addr >> self._block_bits) & self._set_mask]
        stats = self.stats
        if demand:
            stats.demand_accesses += 1

        line = lines.pop(block_addr, None)
        if line is not None:
            lines[block_addr] = line  # now the most recently used
            if write:
                line.dirty = True
            if line.ready_time <= now:
                if demand:
                    stats.hits += 1
                    if line.prefetched and not line.useful_counted:
                        stats.useful_prefetches += 1
                        line.useful_counted = True
                return self.hit_latency, self.level_name
            # In-flight fill: merge with it and pay the residual latency.
            latency = line.ready_time - now
            if latency < self.hit_latency:
                latency = self.hit_latency
            if demand:
                stats.inflight_hits += 1
                stats.miss_latency_total += latency - self.hit_latency
                if line.prefetched:
                    # The load's charged latency assumes this fill lands:
                    # pin its MSHR entry against demand-priority squashing.
                    self.mshr.mark_demand_consumed(block_addr, now)
            return latency, "INFLIGHT"

        if demand:
            stats.misses += 1

        merged_ready = self.mshr.merge(block_addr, now, demand)
        if merged_ready is not None:
            latency = max(self.hit_latency, merged_ready - now)
            if demand:
                stats.mshr_merge_hits += 1
                stats.miss_latency_total += latency - self.hit_latency
            return latency, "MSHR"

        below_latency, below_level = self.parent.access(
            block_addr, now + self.hit_latency, False, demand
        )
        fill_time = self.hit_latency + below_latency
        if demand:
            start, ready_time = self.mshr.allocate_demand(block_addr, now, fill_time)
            squashed = self.mshr.last_squashed_block
            if squashed is not None:
                self._cancel_squashed_fill(squashed, now)
        else:
            # Prefetch-triggered fill arriving from a child cache: it must
            # not occupy a demand MSHR (capacity was enforced at the child).
            start = now
            ready_time = self.mshr.allocate_prefetch_fill(
                block_addr, now, fill_time
            )
        total_latency = (start - now) + fill_time
        # (lines, block_addr, now, ready_time, prefetched, component)
        line = self._insert(
            lines, block_addr, now, now + total_latency, not demand, None
        )
        if write:
            line.dirty = True
        if demand:
            stats.miss_latency_total += total_latency - self.hit_latency
        return total_latency, below_level

    def _cancel_squashed_fill(self, block_addr: int, now: int) -> None:
        """Abandon an in-flight prefetch fill whose MSHR entry was squashed.

        Demand priority means the squashed prefetch's data never arrives:
        the line inserted at issue time is removed again while still in
        flight, so later probes see a genuine miss instead of a fill that
        the MSHR file claims was abandoned.  A fill that already landed
        (``ready_time <= now``) or a demand line is left alone.  Child
        copies of the in-flight fill are back-invalidated (``on_evict``) so
        an inclusive parent never cancels data an L1 still advertises, and
        a dirty in-flight line (a store merged into the fill) writes back
        first, as every other removal path does.
        """
        lines = self._set_of(block_addr)
        line = lines.get(block_addr)
        if line is None or not line.prefetched or line.ready_time <= now:
            return
        if self.on_evict is not None:
            self.on_evict(block_addr, now)
        if line.dirty:
            self.stats.writebacks += 1
            self.parent.mark_dirty(block_addr)
        del lines[block_addr]
        self.stats.prefetch_squashed += 1

    # -- prefetch path -------------------------------------------------------

    def prefetch(self, addr: int, now: int, component: str) -> int | None:
        """Prefetch ``addr`` into this cache (and below, via the parent).

        Returns the fill's ready time, or ``None`` when suppressed (already
        present) or dropped (no MSHR free).
        """
        block_addr = addr & self._block_mask
        lines = self._sets[(block_addr >> self._block_bits) & self._set_mask]
        if block_addr in lines:
            return None
        mshr = self.mshr
        # MSHRFile.prefetch_available, inlined: most prefetches reach here.
        if mshr._earliest <= now:
            mshr._purge(now)
        if mshr._prefetch_count >= mshr.prefetch_entries:
            mshr.prefetch_drops += 1
            self.stats.prefetch_dropped += 1
            return None
        below_latency, _ = self.parent.access(
            block_addr, now + self.hit_latency, False, False
        )
        fill_time = self.hit_latency + below_latency
        ready_time = self.mshr.allocate_prefetch(block_addr, now, fill_time)
        if ready_time is None:  # pragma: no cover - guarded by available()
            self.stats.prefetch_dropped += 1
            return None
        self._insert(lines, block_addr, now, ready_time, True, component)
        self.stats.prefetch_issued += 1
        return ready_time

    # -- invalidation --------------------------------------------------------

    def invalidate_block(self, block_addr: int) -> bool:
        """Drop the line if present; returns True when a copy existed.

        A dirty copy is written back to the parent first (like ``_evict``
        and ``flush_block``): cross-core store invalidations, prefetchw
        ownership steals and inclusive back-invalidations must not discard
        modified data.
        """
        block_addr &= self._block_mask
        line = self._set_of(block_addr).pop(block_addr, None)
        if line is None:
            return False
        if line.dirty:
            self.stats.writebacks += 1
            self.parent.mark_dirty(block_addr)
        return True

    def flush_block(self, block_addr: int) -> bool:
        """clflush semantics: write back if dirty, then invalidate."""
        if not self.invalidate_block(block_addr):
            return False
        self.stats.flushes += 1
        return True

    # -- snapshot/restore ----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """All mutable state: each non-empty set's lines in LRU order.

        A line is the row ``(block_addr, ready_time, prefetched, component,
        dirty, useful_counted)``, the :class:`CacheLine` constructor order.
        """
        stats = self.stats
        return {
            "sets": tuple(
                (
                    set_index,
                    tuple(
                        (line.block_addr, line.ready_time, line.prefetched,
                         line.component, line.dirty, line.useful_counted)
                        for line in lines.values()
                    ),
                )
                for set_index, lines in enumerate(self._sets)
                if lines
            ),
            "stats": tuple(
                getattr(stats, name) for name in _CACHE_STATS_FIELDS
            ),
            "mshr": self.mshr.snapshot(),
        }

    def restore(self, data: dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot`; set dicts are refilled in place."""
        require_keys(data, ("sets", "stats", "mshr"), self.name)
        sets = self._sets
        for lines in filter(None, sets):
            lines.clear()
        for set_index, rows in data["sets"]:
            lines = sets[set_index]
            for row in rows:
                lines[row[0]] = CacheLine(*row)
        stats = self.stats
        for name, value in zip(_CACHE_STATS_FIELDS, data["stats"]):
            setattr(stats, name, value)
        self.mshr.restore(data["mshr"])

    def resident_blocks(self) -> list[int]:
        """Resident block addresses, set by set, each set in LRU order
        (tests/analysis)."""
        return [block_addr for lines in self._sets for block_addr in lines]
