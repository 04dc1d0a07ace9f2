"""Scale Tracker (paper Sec. IV-B).

When a load executes, the core supplies the *scale* of the load's base
register from the calculation buffer.  If the scale is larger than a
cacheline and smaller than a page, the victim's access pattern is predicted
to include ``addr - sc`` and ``addr + sc``, and those lines are prefetched
(same-page candidates only, skipping lines already resident in L1D).
"""

from __future__ import annotations

from repro.prefetch.base import ContainsProbe, Observation, PrefetchRequest
from repro.snapshot import require_keys
from repro.utils.addr import AddressMap


class ScaleTracker:
    """Phase-2 defense: prefetch the victim's plausible neighbours."""

    component = "st"

    def __init__(self, amap: AddressMap, max_prefetches: int = 2) -> None:
        self.amap = amap
        self.max_prefetches = max_prefetches
        self.proposals = 0
        self.triggers = 0

    def reset(self) -> None:
        self.proposals = 0
        self.triggers = 0

    def snapshot(self) -> dict:
        """ST state is just its counters (the tracker itself is stateless)."""
        return {"proposals": self.proposals, "triggers": self.triggers}

    def restore(self, data: dict) -> None:
        """Inverse of :meth:`snapshot`."""
        require_keys(data, ("proposals", "triggers"), "ScaleTracker")
        self.proposals = data["proposals"]
        self.triggers = data["triggers"]

    def scale_in_range(self, scale: int) -> bool:
        """The paper's trigger condition: cacheline < sc < page."""
        return self.amap.block_size < scale < self.amap.page_size

    def observe_load(
        self, observation: Observation, l1d_contains: ContainsProbe
    ) -> list[PrefetchRequest]:
        """Return ST prefetch requests for one load (possibly empty)."""
        scale = observation.scale
        if not self.scale_in_range(scale):
            return []
        self.triggers += 1
        addr = observation.addr
        requests: list[PrefetchRequest] = []
        for candidate in (addr - scale, addr + scale):
            if len(requests) >= self.max_prefetches:
                break
            if candidate < 0 or not self.amap.same_page(addr, candidate):
                continue
            if self.amap.same_block(addr, candidate):
                continue
            if l1d_contains(candidate):
                continue
            requests.append(PrefetchRequest(candidate, self.component))
            self.proposals += 1
        return requests
