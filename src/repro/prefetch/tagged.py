"""Tagged sequential prefetcher (Smith 1978, paper ref. [15]).

On a demand miss, prefetch the next sequential line.  On the first demand
hit to a line we previously prefetched (its *tag* bit is still set),
prefetch the next line as well — this is what keeps a sequential stream
running ahead of the consumer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from repro.prefetch.base import ContainsProbe, Observation, Prefetcher, PrefetchRequest
from repro.snapshot import require_keys
from repro.utils.addr import AddressMap


class TaggedPrefetcher(Prefetcher):
    """Next-line prefetcher with tag bits on prefetched lines."""

    name = "tagged"

    def __init__(
        self,
        amap: AddressMap | None = None,
        degree: int = 1,
        tag_capacity: int = 4096,
    ) -> None:
        self.amap = amap or AddressMap()
        self.degree = degree
        self.tag_capacity = tag_capacity
        self._tagged: OrderedDict[int, None] = OrderedDict()

    def reset(self) -> None:
        self._tagged.clear()

    def snapshot(self) -> dict[str, Any]:
        # Tag order matters: eviction pops the oldest entry.
        return {"tagged": tuple(self._tagged)}

    def restore(self, data: dict[str, Any]) -> None:
        require_keys(data, ("tagged",), "TaggedPrefetcher")
        self._tagged.clear()
        for block_addr in data["tagged"]:
            self._tagged[block_addr] = None

    def _remember(self, block_addr: int) -> None:
        self._tagged[block_addr] = None
        self._tagged.move_to_end(block_addr)
        while len(self._tagged) > self.tag_capacity:
            self._tagged.popitem(last=False)

    def observe(
        self, observation: Observation, l1d_contains: ContainsProbe
    ) -> list[PrefetchRequest]:
        block = observation.block_addr
        trigger = False
        if not observation.hit:
            trigger = True
        elif block in self._tagged:
            # First use of a prefetched line: untag and keep streaming.
            del self._tagged[block]
            trigger = True
        if not trigger:
            return []
        requests = []
        step = self.amap.block_size
        for distance in range(1, self.degree + 1):
            candidate = block + distance * step
            if l1d_contains(candidate):
                continue
            self._remember(candidate)
            requests.append(PrefetchRequest(candidate, self.name))
        return requests
