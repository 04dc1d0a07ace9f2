"""A naive MSHR file: the list-scan reference for ``repro.mem.mshr``.

``ReferenceMSHR`` implements the same rules as ``MSHRFile`` in the plainest
way: it purges completed fills at the start of every query, finds each
pool's occupancy by counting the entries, and shares no code with the file
it checks.  ``tests/test_mshr_reference.py`` fuzzes ``MSHRFile`` against it
op for op, and ``tests/test_cache_reference.py`` gives it to the reference
cache.
"""

from dataclasses import astuple, dataclass


@dataclass
class Row:
    """One outstanding fill, with fields in ``MSHRFile.snapshot()`` order."""

    block_addr: int
    ready_time: int
    merges: int = 0
    is_prefetch: bool = False
    borrows_prefetch_slot: bool = False
    demand_consumed: bool = False

    def in_prefetch_pool(self):
        return self.is_prefetch or self.borrows_prefetch_slot


class ReferenceMSHR:
    """List-of-rows MSHR file with ``MSHRFile``'s public interface."""

    def __init__(self, num_entries=4, max_merges=20, prefetch_entries=2):
        self.num_entries = num_entries
        self.max_merges = max_merges
        self.prefetch_entries = prefetch_entries
        self.rows = []
        self.demand_waits = 0
        self.total_wait_cycles = 0
        self.merges = 0
        self.prefetch_drops = 0
        self.prefetch_squashes = 0
        self.last_squashed_block = None

    def snapshot(self):
        return {
            "entries": tuple(astuple(row) for row in self.rows),
            "demand_waits": self.demand_waits,
            "total_wait_cycles": self.total_wait_cycles,
            "merges": self.merges,
            "prefetch_drops": self.prefetch_drops,
            "prefetch_squashes": self.prefetch_squashes,
            "last_squashed_block": self.last_squashed_block,
        }

    def purge(self, now):
        self.rows = [row for row in self.rows if row.ready_time > now]

    def demand_occupancy(self):
        return sum(1 for row in self.rows if not row.in_prefetch_pool())

    def prefetch_occupancy(self):
        return sum(1 for row in self.rows if row.in_prefetch_pool())

    def occupancy(self, now):
        self.purge(now)
        return len(self.rows)

    def available(self, now):
        self.purge(now)
        if self.demand_occupancy() < self.num_entries:
            return True
        return any(
            row.is_prefetch and not row.demand_consumed for row in self.rows
        )

    def prefetch_available(self, now):
        self.purge(now)
        return self.prefetch_occupancy() < self.prefetch_entries

    def merge(self, block_addr, now, demand=True):
        self.purge(now)
        for row in self.rows:
            if row.block_addr == block_addr:
                if row.merges >= self.max_merges:
                    return None
                row.merges += 1
                self.merges += 1
                if demand:
                    row.demand_consumed = True
                return row.ready_time
        return None

    def mark_demand_consumed(self, block_addr, now):
        self.purge(now)
        for row in self.rows:
            if row.block_addr == block_addr:
                row.demand_consumed = True
                return

    def allocate_demand(self, block_addr, now, fill_time):
        self.purge(now)
        start_time = now
        borrows = False
        self.last_squashed_block = None
        if self.demand_occupancy() >= self.num_entries:
            victims = [
                row for row in self.rows
                if row.is_prefetch and not row.demand_consumed
            ]
            if victims:
                victim = min(victims, key=lambda row: row.ready_time)
                self.rows.remove(victim)
                self.prefetch_squashes += 1
                self.last_squashed_block = victim.block_addr
                borrows = True
            else:
                start_time = max(now, min(
                    row.ready_time for row in self.rows
                    if not row.in_prefetch_pool()
                ))
                self.demand_waits += 1
                self.total_wait_cycles += start_time - now
                self.purge(start_time)
        ready_time = start_time + fill_time
        self.rows.append(
            Row(block_addr, ready_time, borrows_prefetch_slot=borrows)
        )
        return start_time, ready_time

    def allocate_prefetch_fill(self, block_addr, now, fill_time):
        self.purge(now)
        self.rows.append(Row(block_addr, now + fill_time, is_prefetch=True))
        return now + fill_time

    def allocate_prefetch(self, block_addr, now, fill_time):
        self.purge(now)
        if self.prefetch_occupancy() >= self.prefetch_entries:
            self.prefetch_drops += 1
            return None
        self.rows.append(Row(block_addr, now + fill_time, is_prefetch=True))
        return now + fill_time
