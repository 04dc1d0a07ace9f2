"""The multi-core memory hierarchy.

Per-core L1D caches over a shared inclusive L2 (the LLC in the paper's
cross-core experiments) over main memory.  The hierarchy owns:

* demand load/store routing with per-level latency composition,
* clflush-everywhere semantics (x86 ``clflush``),
* cross-L1 write invalidation (write-invalidate coherence-lite),
* inclusive back-invalidation on L2 evictions (the hook BITP listens to),
* prefetcher notification and prefetch issue, with per-component counts,
  and an opt-in per-core trace of each issued prefetch
  (:meth:`MemoryHierarchy.attach_trace`; Fig. 9 reads one),
* a software-prefetch path (:meth:`MemoryHierarchy.software_prefetch`) for
  the ``prefetch``/``prefetchw`` instructions: non-faulting, never notifies
  the prefetchers (hardware trackers observe demand traffic only), and its
  latency is timeable — it reflects L1/L2/MEM residency exactly like a load.

``prefetchw`` additionally models the ownership upgrade the Adversarial
Prefetch attack (Guo et al., USENIX Security 2022) abuses: it invalidates
every other core's L1 copy of the line and records the issuing core as the
line's exclusive owner.  Any later access by a *different* core — demand
load, store, hardware-prefetch fill or software prefetch — steals that
ownership back and knocks the owner's L1 copy out (the M-state migration
the attack times).

The L1I is assumed ideal (instruction fetch costs are folded into the core's
per-instruction base cost); the defense and all attacks live entirely on the
data side.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import SnapshotError
from repro.mem.cache import Cache, MemoryPort
from repro.mem.memory import MainMemory
from repro.snapshot import require_keys
from repro.prefetch.base import (
    NullPrefetcher,
    Observation,
    Prefetcher,
    PrefetchRequest,
)
from repro.utils.addr import AddressMap


@dataclass(frozen=True, slots=True)
class HierarchyConfig:
    """Geometry and latencies; defaults mirror the paper's gem5 baseline."""

    l1d_size: int = 64 * 1024
    l1d_assoc: int = 2
    l2_size: int = 2 * 1024 * 1024
    l2_assoc: int = 16
    l1_hit_latency: int = 4
    l2_hit_latency: int = 12
    memory_latency: int = 120
    flush_latency: int = 30
    mshr_entries: int = 4
    mshr_max_merges: int = 20
    nonblocking_stores: bool = True
    # Extra cycles a prefetchw pays when another core's L1 held the line
    # (the cross-core invalidation round-trip of the ownership upgrade).
    prefetchw_snoop_latency: int = 20


#: One core's prefetch trace: ``(cycle, component, block address)`` for
#: each prefetch it issued (:meth:`MemoryHierarchy.attach_trace`).
PrefetchTrace = list[tuple[int, str, int]]


@dataclass(slots=True)
class AccessOutcome:
    """Result of one demand access.

    A slotted (non-frozen) dataclass: one is built per load/software
    prefetch, so construction cost is hot-path relevant.
    """

    value: int
    latency: int
    level: str  # "L1D", "L2", "MEM", "INFLIGHT", "MSHR"


class MemoryHierarchy:
    """Cores' window onto memory: caches + coherence-lite + prefetchers."""

    __slots__ = (
        "config",
        "amap",
        "num_cores",
        "memory",
        "_port",
        "l2",
        "l1ds",
        "_prefetchers",
        "_active",
        "_store_active",
        "_prefetch_counts",
        "_traces",
        "_exclusive",
        "ownership_steals",
        "_block_mask",
        "__weakref__",
    )

    def __init__(
        self,
        num_cores: int,
        config: HierarchyConfig | None = None,
        amap: AddressMap | None = None,
        memory: MainMemory | None = None,
    ) -> None:
        self.config = config or HierarchyConfig()
        self.amap = amap or AddressMap()
        self.num_cores = num_cores
        # `config.memory_latency` is the default for an internally built
        # memory only; a caller-supplied MainMemory keeps its own latency.
        self.memory = memory or MainMemory(latency=self.config.memory_latency)
        self._port = MemoryPort(self.memory)
        self.l2 = Cache(
            "L2",
            size=self.config.l2_size,
            assoc=self.config.l2_assoc,
            amap=self.amap,
            hit_latency=self.config.l2_hit_latency,
            parent=self._port,
            mshr_entries=self.config.mshr_entries * max(num_cores, 1),
            mshr_max_merges=self.config.mshr_max_merges,
        )
        self.l2.on_evict = _back_invalidation_hook(self)
        self.l1ds = [
            Cache(
                f"L1D{core_id}",
                size=self.config.l1d_size,
                assoc=self.config.l1d_assoc,
                amap=self.amap,
                hit_latency=self.config.l1_hit_latency,
                parent=self.l2,
                mshr_entries=self.config.mshr_entries,
                mshr_max_merges=self.config.mshr_max_merges,
            )
            for core_id in range(num_cores)
        ]
        self._prefetchers: dict[int, Prefetcher] = {}
        # Per-core notify target, None when no prefetcher would react: the
        # demand path skips Observation construction entirely for those
        # cores (a NullPrefetcher counts as "not attached").
        self._active: list[Prefetcher | None] = [None] * num_cores
        # The same for stores, also None when the prefetcher ignores them.
        self._store_active: list[Prefetcher | None] = [None] * num_cores
        # Per-core issued prefetch counts by component, and the traces
        # attach_trace installs (None records nothing).
        self._prefetch_counts: list[dict[str, int]] = [{} for _ in self.l1ds]
        self._traces: list[PrefetchTrace | None] = [None] * num_cores
        # block address -> core id holding the line exclusively (prefetchw).
        self._exclusive: dict[int, int] = {}
        self.ownership_steals = 0
        # Hot-path mask: ``addr & _block_mask == amap.block_addr(addr)``.
        self._block_mask = ~(self.amap.block_size - 1)

    # -- prefetcher plumbing -------------------------------------------------

    def attach_prefetcher(self, core_id: int, prefetcher: Prefetcher) -> None:
        """Install ``prefetcher`` on core ``core_id``'s L1D."""
        self._prefetchers[core_id] = prefetcher
        # Wiring-time attachment, not sim state: restore() checks the
        # attachment shape instead of re-creating it.
        active = None if isinstance(prefetcher, NullPrefetcher) else prefetcher
        self._active[core_id] = active  # lint: allow SNAP501
        self._store_active[core_id] = (  # lint: allow SNAP501
            active if active is not None and active.observes_stores else None
        )

    def prefetcher_for(self, core_id: int) -> Prefetcher | None:
        return self._prefetchers.get(core_id)

    def attach_trace(self, core_id: int, trace: PrefetchTrace) -> None:
        """Append ``(cycle, component, block address)`` to ``trace`` for
        each prefetch core ``core_id`` issues from now on.  A core with no
        trace attached records nothing.

        The trace is an observer, not simulator state: :meth:`snapshot`
        does not copy it and :meth:`restore` does not rewind it.
        """
        self._traces[core_id] = trace  # lint: allow SNAP501

    def prefetch_counts(self, core_id: int) -> dict[str, int]:
        """Issued prefetch counts by component for one core."""
        return dict(self._prefetch_counts[core_id])

    def total_prefetch_counts(self) -> dict[str, int]:
        """Issued prefetch counts by component summed over all cores."""
        totals: dict[str, int] = {}
        for counts in self._prefetch_counts:
            for component, count in counts.items():
                totals[component] = totals.get(component, 0) + count
        return totals

    def _issue_requests(
        self, core_id: int, now: int, requests: list[PrefetchRequest]
    ) -> None:
        l1d = self.l1ds[core_id]
        counts = self._prefetch_counts[core_id]
        trace = self._traces[core_id]
        for request in requests:
            addr = request.addr
            component = request.component
            ready = l1d.prefetch(addr, now, component)
            if ready is None:
                continue
            # A hardware-prefetch fill is a read by this core: it steals any
            # other core's exclusive (prefetchw-held) copy of the line.
            if self._exclusive:
                self._yield_exclusivity(core_id, addr & self._block_mask)
            counts[component] = counts.get(component, 0) + 1
            if trace is not None:
                trace.append((now, component, addr & self._block_mask))

    # -- demand interface ----------------------------------------------------

    def load(
        self,
        core_id: int,
        addr: int,
        now: int,
        pc: int = 0,
        scale: int = 1,
        speculative: bool = False,
    ) -> AccessOutcome:
        """Demand load: returns value + latency + fill source.

        Observation objects are only built when the core has a prefetcher
        that would react to them; baseline (no-prefetcher) runs skip that
        construction entirely.
        """
        l1d = self.l1ds[core_id]
        if self._exclusive:
            self._yield_exclusivity(core_id, addr & self._block_mask)
        latency, level = l1d.access(addr, now, write=False)
        # MainMemory.read, inlined: every load reads the functional word.
        memory = self.memory
        memory.reads += 1
        value = memory._words.get(addr, 0)
        prefetcher = self._active[core_id]
        if prefetcher is not None:
            observation = Observation(
                op="load",
                core_id=core_id,
                pc=pc,
                addr=addr,
                block_addr=addr & self._block_mask,
                hit=(level == l1d.level_name),
                now=now,
                scale=scale,
                speculative=speculative,
            )
            requests = prefetcher.observe(observation, l1d.contains)
            if requests:
                self._issue_requests(core_id, now, requests)
        return AccessOutcome(value=value, latency=latency, level=level)

    def store(
        self,
        core_id: int,
        addr: int,
        value: int,
        now: int,
        pc: int = 0,
        speculative: bool = False,
    ) -> int:
        """Demand store: write-allocate; returns the latency the core pays.

        Functional state goes straight to main memory (write-through
        functionally, write-back for timing).  Other cores' L1 copies are
        invalidated (write-invalidate coherence).
        """
        l1d = self.l1ds[core_id]
        block_addr = addr & self._block_mask
        if self._exclusive:
            self._yield_exclusivity(core_id, block_addr)
        latency, level = l1d.access(addr, now, write=True)
        self.memory.write(addr, value)
        if self.num_cores > 1:
            for other_id, other in enumerate(self.l1ds):
                if other_id != core_id and other.invalidate_block(block_addr):
                    other.stats.cross_invalidations += 1
        prefetcher = self._store_active[core_id]
        if prefetcher is not None:
            observation = Observation(
                op="store",
                core_id=core_id,
                pc=pc,
                addr=addr,
                block_addr=block_addr,
                hit=(level == l1d.level_name),
                now=now,
                scale=1,
                speculative=speculative,
            )
            requests = prefetcher.observe(observation, l1d.contains)
            if requests:
                self._issue_requests(core_id, now, requests)
        if self.config.nonblocking_stores:
            return 1
        return latency

    def flush(self, core_id: int, addr: int, now: int) -> int:
        """clflush: evict the line from every cache level, everywhere.

        ``CacheStats.flushes`` counts lines flushed from each cache
        (``Cache.flush_block`` increments it when a copy existed there); the
        per-instruction count is ``CoreStats.flushes``, kept by the core.
        """
        block_addr = self.amap.block_addr(addr)
        self._exclusive.pop(block_addr, None)
        for l1d in self.l1ds:
            l1d.flush_block(block_addr)
        self.l2.flush_block(block_addr)
        return self.config.flush_latency

    # -- software prefetch (prefetch / prefetchw) ------------------------------

    def software_prefetch(
        self, core_id: int, addr: int, now: int, write: bool = False
    ) -> AccessOutcome:
        """Execute a ``prefetch`` (``write=False``) or ``prefetchw``.

        Non-faulting and invisible to the hardware prefetchers — the defense
        and the basic prefetchers observe demand traffic only, which is what
        makes a prefetch-based probe attractive to an attacker.  The returned
        latency composes exactly like a load's (L1 hit / L2 hit / memory), so
        a timed prefetch distinguishes where the line resided.

        ``prefetchw`` additionally upgrades ownership: every other core's L1
        copy is invalidated (paying ``prefetchw_snoop_latency`` when one
        existed) and the issuing core is recorded as the line's exclusive
        owner until another core touches the line.

        Like any prefetch, it is droppable: a miss that finds no free
        prefetch MSHR is squashed (x86 semantics) — the instruction retires
        after the tag lookup with no fill and no ownership change.
        """
        l1d = self.l1ds[core_id]
        block_addr = addr & self._block_mask
        if not l1d.contains(block_addr) and not l1d.mshr.prefetch_available(now):
            l1d.mshr.prefetch_drops += 1
            l1d.stats.prefetch_dropped += 1
            return AccessOutcome(value=0, latency=l1d.hit_latency, level="DROPPED")
        snooped = False
        if write:
            for other_id, other in enumerate(self.l1ds):
                if other_id != core_id and other.invalidate_block(block_addr):
                    other.stats.cross_invalidations += 1
                    snooped = True
            self._exclusive[block_addr] = core_id
        else:
            self._yield_exclusivity(core_id, block_addr)
        latency, level = l1d.access(addr, now, write=False, demand=False)
        if snooped:
            latency += self.config.prefetchw_snoop_latency
        return AccessOutcome(value=0, latency=latency, level=level)

    # -- snapshot/restore ------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """All mutable hierarchy state: caches, memory, prefetch counts,
        ownership.

        Prefetchers are per-core state *attached to* the hierarchy, so they
        snapshot here too (``None`` for cores with no prefetcher attached).
        Attached traces are observers and stay out of it.
        """
        return {
            "memory": self.memory.snapshot(),
            "l2": self.l2.snapshot(),
            "l1ds": tuple(l1d.snapshot() for l1d in self.l1ds),
            "logs": tuple(
                tuple(counts.items()) for counts in self._prefetch_counts
            ),
            "exclusive": tuple(self._exclusive.items()),
            "ownership_steals": self.ownership_steals,
            "prefetchers": tuple(
                prefetcher.snapshot() if prefetcher is not None else None
                for prefetcher in (
                    self._prefetchers.get(core_id)
                    for core_id in range(self.num_cores)
                )
            ),
        }

    def restore(self, data: dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot`; attachment shape must match."""
        require_keys(
            data,
            ("memory", "l2", "l1ds", "logs", "exclusive",
             "ownership_steals", "prefetchers"),
            "MemoryHierarchy",
        )
        if len(data["l1ds"]) != self.num_cores:
            raise SnapshotError(
                f"MemoryHierarchy: snapshot has {len(data['l1ds'])} L1Ds, "
                f"hierarchy has {self.num_cores}"
            )
        self.memory.restore(data["memory"])
        self.l2.restore(data["l2"])
        for l1d, snap in zip(self.l1ds, data["l1ds"]):
            l1d.restore(snap)
        for counts, snap in zip(self._prefetch_counts, data["logs"]):
            counts.clear()
            counts.update(snap)
        self._exclusive = dict(data["exclusive"])
        self.ownership_steals = data["ownership_steals"]
        for core_id, snap in enumerate(data["prefetchers"]):
            prefetcher = self._prefetchers.get(core_id)
            if (prefetcher is None) != (snap is None):
                raise SnapshotError(
                    f"MemoryHierarchy: core {core_id} prefetcher attachment "
                    f"does not match the snapshot"
                )
            if prefetcher is not None:
                prefetcher.restore(snap)

    # -- structural queries ---------------------------------------------------

    def l1_contains(self, core_id: int, addr: int) -> bool:
        return self.l1ds[core_id].contains(addr)

    def read_word(self, addr: int) -> int:
        """Functional read without timing effects (tests/analysis)."""
        return self.memory.peek(addr)

    # -- ownership (prefetchw) -------------------------------------------------

    def _yield_exclusivity(self, core_id: int, block_addr: int) -> None:
        """Steal an exclusively held line when another core touches it.

        The owner's L1 copy is invalidated (the line "migrates" to the
        toucher, making the loss observable in the owner's later timings) and
        the exclusivity record is dropped.  An access by the owner itself
        keeps ownership.
        """
        owner = self._exclusive.get(block_addr)
        if owner is None or owner == core_id:
            return
        if self.l1ds[owner].invalidate_block(block_addr):
            self.l1ds[owner].stats.cross_invalidations += 1
        del self._exclusive[block_addr]
        self.ownership_steals += 1

    # -- inclusive back-invalidation ------------------------------------------

    def _back_invalidate(self, block_addr: int, now: int) -> None:
        self._exclusive.pop(block_addr, None)
        for core_id, l1d in enumerate(self.l1ds):
            if l1d.invalidate_block(block_addr):
                l1d.stats.back_invalidations += 1
                prefetcher = self._prefetchers.get(core_id)
                if prefetcher is not None:
                    requests = prefetcher.on_back_invalidation(block_addr, now)
                    if requests:
                        self._issue_requests(core_id, now, requests)


def _back_invalidation_hook(
    hierarchy: MemoryHierarchy,
) -> Callable[[int, int], None]:
    """The shared L2's ``on_evict`` hook, holding ``hierarchy`` weakly.

    A bound ``_back_invalidate`` would close the cycle hierarchy -> L2 ->
    hook -> hierarchy, so a finished system would wait for the cyclic
    collector instead of being freed by reference counting.  An eviction
    after the hierarchy is gone raises ``ReferenceError``.
    """
    proxy = weakref.proxy(hierarchy)

    def on_evict(block_addr: int, now: int) -> None:
        proxy._back_invalidate(block_addr, now)

    return on_evict
