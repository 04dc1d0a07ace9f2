"""PREFENDER composed with a basic prefetcher.

The paper runs PREFENDER alongside Tagged or Stride basic prefetchers with
"the priority of PREFENDER's prefetching higher than basic prefetchers for
timely defense" (Sec. V-A).  The composite therefore emits PREFENDER's
requests first; when MSHRs run out, the basic prefetcher's requests are the
ones that get dropped.
"""

from __future__ import annotations

from typing import Any

from repro.prefetch.base import ContainsProbe, Observation, Prefetcher, PrefetchRequest
from repro.snapshot import require_keys


class CompositePrefetcher(Prefetcher):
    """Priority composition: ``primary`` requests precede ``secondary``'s."""

    def __init__(self, primary: Prefetcher, secondary: Prefetcher) -> None:
        self.primary = primary
        self.secondary = secondary
        self.name = f"{primary.name}+{secondary.name}"
        self.observes_stores = (
            primary.observes_stores or secondary.observes_stores
        )

    def reset(self) -> None:
        self.primary.reset()
        self.secondary.reset()

    def snapshot(self) -> dict[str, Any]:
        return {
            "primary": self.primary.snapshot(),
            "secondary": self.secondary.snapshot(),
        }

    def restore(self, data: dict[str, Any]) -> None:
        require_keys(data, ("primary", "secondary"), "CompositePrefetcher")
        self.primary.restore(data["primary"])
        self.secondary.restore(data["secondary"])

    def observe(
        self, observation: Observation, l1d_contains: ContainsProbe
    ) -> list[PrefetchRequest]:
        # The primary's list is a fresh one (see Prefetcher.observe), so it
        # is extended in place rather than copied.
        requests = self.primary.observe(observation, l1d_contains)
        requests.extend(self.secondary.observe(observation, l1d_contains))
        return requests

    def on_back_invalidation(self, block_addr: int, now: int) -> list[PrefetchRequest]:
        requests = self.primary.on_back_invalidation(block_addr, now)
        requests.extend(self.secondary.on_back_invalidation(block_addr, now))
        return requests
