"""Disruptive Prefetching (Fuchs & Lee, SYSTOR 2015 — paper ref. [12]).

Randomly prefetches lines that map to the *same cache set* as a demand
access.  This perturbs Prime+Probe (set-granularity conflicts get noise) but
leaves Flush+Reload-style line-granularity attacks intact, and its random
policy can pollute the cache — both limitations the paper's Table II lists.
A deterministic xorshift PRNG keeps runs reproducible.
"""

from __future__ import annotations

from typing import Any

from repro.prefetch.base import ContainsProbe, Observation, Prefetcher, PrefetchRequest
from repro.snapshot import require_keys
from repro.utils.addr import AddressMap


class _XorShift:
    """Tiny deterministic PRNG (xorshift64*)."""

    def __init__(self, seed: int) -> None:
        self._state = (seed or 1) & ((1 << 64) - 1)

    def next(self) -> int:
        x = self._state
        x ^= (x >> 12) & ((1 << 64) - 1)
        x ^= (x << 25) & ((1 << 64) - 1)
        x ^= (x >> 27) & ((1 << 64) - 1)
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & ((1 << 64) - 1)

    def below(self, bound: int) -> int:
        return self.next() % bound


class DisruptivePrefetcher(Prefetcher):
    """Random same-set prefetcher (cacheset defense granularity)."""

    name = "disruptive"

    def __init__(
        self,
        amap: AddressMap | None = None,
        l1_sets: int = 512,
        probability_percent: int = 25,
        window_tags: int = 8,
        seed: int = 0xD15C0,
    ) -> None:
        self.amap = amap or AddressMap()
        self.l1_sets = l1_sets
        self.probability_percent = probability_percent
        self.window_tags = window_tags
        self._rng = _XorShift(seed)
        self._seed = seed

    def reset(self) -> None:
        self._rng = _XorShift(self._seed)

    def snapshot(self) -> dict[str, Any]:
        return {"rng_state": self._rng._state}

    def restore(self, data: dict[str, Any]) -> None:
        require_keys(data, ("rng_state",), "DisruptivePrefetcher")
        self._rng._state = data["rng_state"]

    def observe(
        self, observation: Observation, l1d_contains: ContainsProbe
    ) -> list[PrefetchRequest]:
        if self._rng.below(100) >= self.probability_percent:
            return []
        set_stride = self.l1_sets * self.amap.block_size
        offset = (self._rng.below(self.window_tags) + 1) * set_stride
        if self._rng.below(2):
            offset = -offset
        candidate = observation.block_addr + offset
        if candidate < 0 or l1d_contains(candidate):
            return []
        return [PrefetchRequest(candidate, self.name)]
