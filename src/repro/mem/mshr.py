"""Miss-status handling registers.

The paper's gem5 baseline has 4 MSHRs, each merging up to 20 requests to the
same line.  Here an MSHR entry is an outstanding fill identified by its block
address and completion time.  Demand misses that find no free entry first
*squash* an outstanding prefetch fill (demand priority, gem5's policy) and
only *wait* for the earliest completion when every entry is a demand fill;
prefetches that find no free entry are *dropped*.

Each pool's occupancy is kept as a counter, so the pool check on every miss
and prefetch reads an integer instead of scanning the entries, and each
query calls the purge only once the earliest outstanding fill is due.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.snapshot import require_keys

#: ``MSHRFile._earliest`` of an empty file: no entry can expire.
_NEVER = float("inf")


@dataclass(slots=True)
class _Entry:
    block_addr: int
    ready_time: int
    merges: int = 0
    is_prefetch: bool = False
    # Demand fill running in a squashed prefetch's slot: counts against the
    # prefetch pool until it completes (the slot is physically occupied).
    borrows_prefetch_slot: bool = False
    # A demand access consumed this fill (inflight hit or merge): the entry
    # now has a demand waiter, so demand-priority squashing must not
    # victimize it — cancelling would revoke data a load was promised.
    demand_consumed: bool = False


class MSHRFile:
    """Outstanding-miss bookkeeping for one cache.

    Demand misses and prefetches draw from separate pools (``num_entries``
    vs ``prefetch_entries``), modelling the dedicated prefetch issue queue
    real prefetchers ship with; a saturated demand stream therefore cannot
    permanently starve the defense's prefetches (and vice versa).

    ``_demand_count`` and ``_prefetch_count`` count each pool's entries
    (a borrowed-slot demand fill counts in the prefetch pool).  Like
    ``_earliest`` they are derived from the entries and stay out of the
    snapshot: :meth:`_append`, :meth:`_purge` and a squash keep them
    current, and :meth:`restore` rebuilds them.
    """

    __slots__ = (
        "num_entries",
        "max_merges",
        "prefetch_entries",
        "_entries",
        "_earliest",
        "_demand_count",
        "_prefetch_count",
        "demand_waits",
        "total_wait_cycles",
        "merges",
        "prefetch_drops",
        "prefetch_squashes",
        "last_squashed_block",
    )

    def __init__(
        self,
        num_entries: int = 4,
        max_merges: int = 20,
        prefetch_entries: int = 2,
    ) -> None:
        self.num_entries = num_entries
        self.max_merges = max_merges
        self.prefetch_entries = prefetch_entries
        self._entries: list[_Entry] = []
        # Earliest ready_time among _entries (_NEVER when empty): queries
        # call _purge only once ``now`` reaches it.
        self._earliest: float = _NEVER
        # Entries in the demand pool and in the prefetch pool.
        self._demand_count: int = 0
        self._prefetch_count: int = 0
        self.demand_waits = 0
        self.total_wait_cycles = 0
        self.merges = 0
        self.prefetch_drops = 0
        self.prefetch_squashes = 0
        # Block address of the prefetch entry squashed by the most recent
        # allocate_demand call (None when it squashed nothing); the owning
        # cache reads this to abandon the in-flight fill itself.
        self.last_squashed_block: int | None = None

    def snapshot(self) -> dict[str, Any]:
        """Outstanding entries (flat tuples, in order) plus counters."""
        return {
            "entries": tuple(
                (e.block_addr, e.ready_time, e.merges, e.is_prefetch,
                 e.borrows_prefetch_slot, e.demand_consumed)
                for e in self._entries
            ),
            "demand_waits": self.demand_waits,
            "total_wait_cycles": self.total_wait_cycles,
            "merges": self.merges,
            "prefetch_drops": self.prefetch_drops,
            "prefetch_squashes": self.prefetch_squashes,
            "last_squashed_block": self.last_squashed_block,
        }

    def restore(self, data: dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot`."""
        require_keys(
            data,
            ("entries", "demand_waits", "total_wait_cycles", "merges",
             "prefetch_drops", "prefetch_squashes", "last_squashed_block"),
            "MSHRFile",
        )
        # _earliest and the pool counts are derived from the entries, so
        # restore recomputes them.
        self._entries = []
        self._earliest = _NEVER  # lint: allow SNAP501
        self._demand_count = 0  # lint: allow SNAP501
        self._prefetch_count = 0  # lint: allow SNAP501
        for row in data["entries"]:
            self._append(_Entry(*row))
        self.demand_waits = data["demand_waits"]
        self.total_wait_cycles = data["total_wait_cycles"]
        self.merges = data["merges"]
        self.prefetch_drops = data["prefetch_drops"]
        self.prefetch_squashes = data["prefetch_squashes"]
        self.last_squashed_block = data["last_squashed_block"]

    def _purge(self, now: int) -> None:
        """Drop the fills completed by ``now`` and recount both pools.

        Callers test ``self._earliest <= now`` first: before that time no
        entry can have expired, and skipping the call is the common case.
        """
        kept = []
        earliest = _NEVER
        prefetch = 0
        for entry in self._entries:
            ready_time = entry.ready_time
            if ready_time > now:
                kept.append(entry)
                if ready_time < earliest:
                    earliest = ready_time
                if entry.is_prefetch or entry.borrows_prefetch_slot:
                    prefetch += 1
        self._entries = kept
        self._earliest = earliest
        self._demand_count = len(kept) - prefetch
        self._prefetch_count = prefetch

    def _append(self, entry: _Entry) -> None:
        self._entries.append(entry)
        if entry.is_prefetch or entry.borrows_prefetch_slot:
            self._prefetch_count += 1
        else:
            self._demand_count += 1
        if entry.ready_time < self._earliest:
            self._earliest = entry.ready_time

    def occupancy(self, now: int) -> int:
        """Number of fills still outstanding at ``now``."""
        if self._earliest <= now:
            self._purge(now)
        return len(self._entries)

    def available(self, now: int) -> bool:
        """True when a new demand fill could start immediately at ``now``.

        Mirrors :meth:`allocate_demand` exactly: a free demand slot
        (borrowed-slot fills live in the prefetch pool and don't count), or
        a squashable prefetch entry whose slot a demand could take over.
        """
        if self._earliest <= now:
            self._purge(now)
        if self._demand_count < self.num_entries:
            return True
        return any(
            e.is_prefetch and not e.demand_consumed for e in self._entries
        )

    def prefetch_available(self, now: int) -> bool:
        """True when a prefetch slot is free at ``now``.

        Demand fills that squashed a prefetch occupy its slot until they
        complete, so they count against the pool here.
        """
        if self._earliest <= now:
            self._purge(now)
        return self._prefetch_count < self.prefetch_entries

    def merge(self, block_addr: int, now: int, demand: bool = True) -> int | None:
        """Try to merge an access to an in-flight line.

        Returns the outstanding fill's ready time, or ``None`` when no entry
        covers ``block_addr`` or its merge budget is exhausted.  A demand
        merge pins the entry against demand-priority squashing (it now has
        a waiter).
        """
        if self._earliest <= now:
            self._purge(now)
        for entry in self._entries:
            if entry.block_addr == block_addr:
                if entry.merges >= self.max_merges:
                    return None
                entry.merges += 1
                self.merges += 1
                if demand:
                    entry.demand_consumed = True
                return entry.ready_time
        return None

    def mark_demand_consumed(self, block_addr: int, now: int) -> None:
        """Pin ``block_addr``'s outstanding fill: a demand access hit it.

        Called by the cache on a demand inflight-hit (the line exists with
        a future ready time, so the access never reaches :meth:`merge`);
        the entry becomes unsquashable because a load's charged latency
        depends on the fill actually landing.
        """
        if self._earliest <= now:
            self._purge(now)
        for entry in self._entries:
            if entry.block_addr == block_addr:
                entry.demand_consumed = True
                return

    def allocate_demand(self, block_addr: int, now: int, fill_time: int) -> tuple[int, int]:
        """Allocate an entry for a demand miss.

        Demand misses have priority: when all demand entries are busy, an
        outstanding *prefetch* entry is squashed to make room (gem5's
        policy) — the earliest-ready prefetch fill is abandoned and the
        demand miss starts immediately in its slot.  Only when no prefetch
        entry is outstanding does the miss wait for the earliest demand
        completion.

        Returns:
            ``(start_time, ready_time)`` — the fill begins at ``start_time``
            (>= now) and data arrives at ``ready_time``.
        """
        if self._earliest <= now:
            self._purge(now)
        start_time = now
        borrows = False
        self.last_squashed_block = None
        if self._demand_count >= self.num_entries:
            prefetch_entries = [
                e
                for e in self._entries
                if e.is_prefetch and not e.demand_consumed
            ]
            if prefetch_entries:
                victim = min(prefetch_entries, key=lambda e: e.ready_time)
                self._entries.remove(victim)
                self._prefetch_count -= 1
                self._earliest = min(
                    (e.ready_time for e in self._entries), default=_NEVER
                )
                self.prefetch_squashes += 1
                self.last_squashed_block = victim.block_addr
                borrows = True
            else:
                # Borrowed-slot fills occupy the prefetch pool, not the
                # demand pool, so they are not waited on.
                earliest = min(
                    e.ready_time
                    for e in self._entries
                    if not e.is_prefetch and not e.borrows_prefetch_slot
                )
                start_time = max(now, earliest)
                self.demand_waits += 1
                self.total_wait_cycles += start_time - now
                self._purge(start_time)
        ready_time = start_time + fill_time
        # (block_addr, ready_time, merges, is_prefetch, borrows_prefetch_slot)
        self._append(_Entry(block_addr, ready_time, 0, False, borrows))
        return start_time, ready_time

    def allocate_prefetch_fill(self, block_addr: int, now: int, fill_time: int) -> int:
        """Book-keep a prefetch-triggered fill at a lower level.

        Capacity was already enforced at the issuing (L1) level, so this
        never drops or waits; the entry is prefetch-class so it cannot block
        later demand misses at this level.
        """
        if self._earliest <= now:
            self._purge(now)
        ready_time = now + fill_time
        self._append(_Entry(block_addr, ready_time, 0, True))
        return ready_time

    def allocate_prefetch(self, block_addr: int, now: int, fill_time: int) -> int | None:
        """Allocate an entry for a prefetch, or drop it when full.

        Returns the fill's ready time, or ``None`` when the prefetch was
        dropped because no MSHR was free.
        """
        if self._earliest <= now:
            self._purge(now)
        if self._prefetch_count >= self.prefetch_entries:
            self.prefetch_drops += 1
            return None
        ready_time = now + fill_time
        self._append(_Entry(block_addr, ready_time, 0, True))
        return ready_time
