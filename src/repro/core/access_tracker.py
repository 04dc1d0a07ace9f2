"""Access Tracker (paper Sec. IV-C).

Four stages on every load (paper Fig. 6):

1. **Buffer Allocation** — find the buffer associated with the load's PC;
   otherwise allocate an empty buffer; otherwise replace the LRU buffer
   (only among *unprotected* buffers once the Record Protector is active).
2. **Entry Updating** — record the accessed block address (entry-level LRU).
3. **DiffMin Updating** — once the buffer holds at least ``threshold`` valid
   entries, recompute the minimum pairwise block-address difference.
4. **Data Prefetching** — propose ``blk ± DiffMin`` (or ``blk ± sc`` when the
   Record Protector supplies a trusted scale), skipping candidates already in
   the buffer or in L1D; at most ``max_prefetches`` per activation.
"""

from __future__ import annotations

from repro.core.access_buffer import AccessBuffer
from repro.errors import SnapshotError
from repro.prefetch.base import ContainsProbe, Observation, PrefetchRequest
from repro.snapshot import require_keys
from repro.utils.addr import AddressMap
from repro.utils.lru import LRUTracker


class AccessTracker:
    """Phase-3 defense: learn and outrun the attacker's probe pattern."""

    component = "at"
    guided_component = "rp"

    def __init__(
        self,
        amap: AddressMap,
        num_buffers: int = 32,
        entries_per_buffer: int = 8,
        threshold: int = 4,
        max_prefetches: int = 1,
    ) -> None:
        self.amap = amap
        self.threshold = threshold
        self.max_prefetches = max_prefetches
        self.buffers = [AccessBuffer(entries_per_buffer) for _ in range(num_buffers)]
        # {inst_addr: pool index} over the valid buffers; allocation,
        # replacement, reset and restore keep it current.
        self._by_pc: dict[int, int] = {}
        self._lru = LRUTracker()
        self._block_mask = ~(amap.block_size - 1)
        self.proposals = 0
        self.guided_proposals = 0
        self.allocation_failures = 0

    def reset(self) -> None:
        for buffer in self.buffers:
            buffer.reset()
        self._by_pc.clear()
        self._lru = LRUTracker()
        self.proposals = 0
        self.guided_proposals = 0
        self.allocation_failures = 0

    def snapshot(self) -> dict:
        """All mutable AT state (the buffer pool itself is fixed-size)."""
        return {
            "buffers": tuple(buffer.snapshot() for buffer in self.buffers),
            "lru": self._lru.snapshot(),
            "proposals": self.proposals,
            "guided_proposals": self.guided_proposals,
            "allocation_failures": self.allocation_failures,
        }

    def restore(self, data: dict) -> None:
        """Inverse of :meth:`snapshot`; buffer objects mutated in place."""
        require_keys(
            data,
            ("buffers", "lru", "proposals", "guided_proposals",
             "allocation_failures"),
            "AccessTracker",
        )
        snaps = data["buffers"]
        if len(snaps) != len(self.buffers):
            raise SnapshotError(
                f"AccessTracker: snapshot has {len(snaps)} buffers, "
                f"tracker has {len(self.buffers)}"
            )
        for buffer, snap in zip(self.buffers, snaps):
            buffer.restore(snap)
        self._by_pc = {
            buffer.inst_addr: index
            for index, buffer in enumerate(self.buffers)
            if buffer.valid
        }
        self._lru.restore(data["lru"])
        self.proposals = data["proposals"]
        self.guided_proposals = data["guided_proposals"]
        self.allocation_failures = data["allocation_failures"]

    # -- queries ---------------------------------------------------------------

    def buffer_for_pc(self, pc: int) -> AccessBuffer | None:
        index = self._by_pc.get(pc)
        return None if index is None else self.buffers[index]

    def protected_count(self) -> int:
        """Number of currently protected buffers (Fig. 12 series)."""
        return sum(1 for buffer in self.buffers if buffer.protected)

    # -- stage 1: allocation ------------------------------------------------------

    def allocate(self, pc: int) -> AccessBuffer | None:
        """Find or allocate the buffer associated with ``pc``.

        The recency tracker is keyed by *pool index* (stable across
        snapshot/restore, unlike ``id()``); candidate order is pool order
        either way, so victim selection is unchanged.
        """
        index = self._by_pc.get(pc)
        if index is None:
            index = self._allocate_new(pc)
            if index is None:
                self.allocation_failures += 1
                return None
        self._lru.touch(index)
        return self.buffers[index]

    def _allocate_new(self, pc: int) -> int | None:
        buffers = self.buffers
        index = next((i for i, b in enumerate(buffers) if not b.valid), None)
        if index is None:
            candidates = [i for i, b in enumerate(buffers) if not b.protected]
            if not candidates:
                # Every buffer is protected: no replacement is allowed (C3).
                return None
            index = self._lru.victim(candidates)
            del self._by_pc[buffers[index].inst_addr]
        buffers[index].reset(pc)
        self._by_pc[pc] = index
        return index

    # -- stages 2-4: record + prefetch ---------------------------------------------

    def observe_load(
        self,
        observation: Observation,
        l1d_contains: ContainsProbe,
        guided_scale: int | None = None,
    ) -> list[PrefetchRequest]:
        """Run the four AT stages for one load; returns prefetch requests.

        Args:
            observation: the demand access.
            l1d_contains: L1D residency probe.
            guided_scale: trusted scale from the Record Protector; when given
                it overrides DiffMin and the request is attributed to ``rp``.
        """
        index = self._by_pc.get(observation.pc)
        if index is None:
            buffer = self.allocate(observation.pc)
            if buffer is None:
                return []
        else:
            # A known PC: allocate's lookup and LRUTracker.touch, inlined
            # because every load reaches here.
            lru = self._lru
            lru._clock += 1
            lru._stamp[index] = lru._clock
            buffer = self.buffers[index]
        block_addr = observation.block_addr
        entries = buffer.entries
        # DiffMin depends only on the entry set, so it is recomputed only
        # when the record changed that set (a refresh leaves it as it was).
        changed = buffer.record(block_addr, observation.now)
        if changed and len(entries) >= self.threshold:
            buffer.update_diff_min()
        step: int | None
        component = self.component
        if guided_scale is not None:
            step = guided_scale
            component = self.guided_component
        else:
            if len(entries) < self.threshold:
                return []
            step = buffer.diff_min
        if not step:
            return []
        requests: list[PrefetchRequest] = []
        block_mask = self._block_mask
        for candidate in (block_addr + step, block_addr - step):
            if len(requests) >= self.max_prefetches:
                break
            if candidate < 0:
                continue
            if candidate & block_mask in entries:
                continue
            if l1d_contains(candidate):
                continue
            requests.append(PrefetchRequest(candidate, component))
        if component == self.guided_component:
            self.guided_proposals += len(requests)
            buffer.guided_prefetches += len(requests)
        else:
            self.proposals += len(requests)
        return requests
