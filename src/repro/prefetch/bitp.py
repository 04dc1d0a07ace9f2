"""BITP (Panda, PACT 2019 — paper ref. [13]) related-work model.

BITP watches cross-core *back-invalidation hits*: when an inclusive LLC
eviction knocks a line out of a private L1 that still held it, BITP
prefetches the line straight back.  This defeats cross-core eviction-based
attackers (their carefully constructed LLC eviction is undone) but does
nothing for single-core attacks — the contrast row in the paper's Table II
that our ablation benchmark reproduces.
"""

from __future__ import annotations

from typing import Any

from repro.prefetch.base import ContainsProbe, Observation, Prefetcher, PrefetchRequest
from repro.snapshot import require_keys


class BITPPrefetcher(Prefetcher):
    """Back-invalidation-triggered prefetcher."""

    name = "bitp"
    observes_stores = False

    def __init__(self) -> None:
        self.back_invalidation_hits = 0

    def reset(self) -> None:
        self.back_invalidation_hits = 0

    def snapshot(self) -> dict[str, Any]:
        return {"back_invalidation_hits": self.back_invalidation_hits}

    def restore(self, data: dict[str, Any]) -> None:
        require_keys(data, ("back_invalidation_hits",), "BITPPrefetcher")
        self.back_invalidation_hits = data["back_invalidation_hits"]

    def observe(
        self, observation: Observation, l1d_contains: ContainsProbe
    ) -> list[PrefetchRequest]:
        return []

    def on_back_invalidation(self, block_addr: int, now: int) -> list[PrefetchRequest]:
        self.back_invalidation_hits += 1
        return [PrefetchRequest(block_addr, self.name)]
