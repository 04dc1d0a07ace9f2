"""PC-indexed stride prefetcher (Baer & Chen 1991, paper refs. [16, 40]).

A reference prediction table keyed by the load/store PC tracks the last
address and the last observed stride with a two-state confidence scheme
(transient -> steady): the second matching delta promotes an entry to
steady, and only an *already steady* entry issues prefetches — the first
fetch goes out on the third matching delta, per Baer & Chen's
"prediction verified twice" gating.  Once steady, it prefetches
``distance`` strides ahead.  Random probe orders defeat it — exactly the
paper's challenge C2 motivation for the Access Tracker.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.prefetch.base import ContainsProbe, Observation, Prefetcher, PrefetchRequest
from repro.snapshot import require_keys
from repro.utils.addr import AddressMap


@dataclass
class _Entry:
    last_addr: int
    stride: int = 0
    confident: bool = False


class StridePrefetcher(Prefetcher):
    """Reference-prediction-table stride prefetcher."""

    name = "stride"

    def __init__(
        self,
        amap: AddressMap | None = None,
        table_size: int = 64,
        distance: int = 2,
        max_stride: int | None = None,
    ) -> None:
        self.amap = amap or AddressMap()
        self.table_size = table_size
        self.distance = distance
        # Strides beyond a page are almost always noise; cap like gem5 does.
        self.max_stride = max_stride or self.amap.page_size
        self._table: OrderedDict[int, _Entry] = OrderedDict()

    def reset(self) -> None:
        self._table.clear()

    def snapshot(self) -> dict[str, Any]:
        # Table order matters: eviction pops the oldest entry.
        return {
            "table": tuple(
                (pc, e.last_addr, e.stride, e.confident)
                for pc, e in self._table.items()
            )
        }

    def restore(self, data: dict[str, Any]) -> None:
        require_keys(data, ("table",), "StridePrefetcher")
        self._table.clear()
        for pc, last_addr, stride, confident in data["table"]:
            self._table[pc] = _Entry(last_addr, stride, confident)

    def _entry(self, pc: int, addr: int) -> _Entry:
        entry = self._table.get(pc)
        if entry is None:
            entry = _Entry(addr)
            self._table[pc] = entry
            while len(self._table) > self.table_size:
                self._table.popitem(last=False)
        self._table.move_to_end(pc)
        return entry

    def observe(
        self, observation: Observation, l1d_contains: ContainsProbe
    ) -> list[PrefetchRequest]:
        entry = self._table.get(observation.pc)
        if entry is None:
            self._entry(observation.pc, observation.addr)
            return []
        self._table.move_to_end(observation.pc)
        new_stride = observation.addr - entry.last_addr
        requests: list[PrefetchRequest] = []
        if new_stride != 0 and abs(new_stride) <= self.max_stride:
            if new_stride == entry.stride:
                if entry.confident:
                    # Third matching delta onwards: steady — prefetch ahead.
                    for step in range(1, self.distance + 1):
                        candidate = observation.addr + new_stride * step
                        if candidate < 0 or l1d_contains(candidate):
                            continue
                        requests.append(PrefetchRequest(candidate, self.name))
                else:
                    # Second matching delta: transient -> steady, no issue yet.
                    entry.confident = True
            else:
                entry.confident = False
                entry.stride = new_stride
        else:
            entry.confident = False
            entry.stride = 0
        entry.last_addr = observation.addr
        return requests
