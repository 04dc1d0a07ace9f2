"""Cacheline metadata.

``ready_time`` models in-flight fills: a line inserted by a miss or a
prefetch at time *t* only supplies data from ``ready_time`` onward; an access
arriving earlier merges with the fill and pays the residual latency.  This is
what makes prefetch *timeliness* observable — a PREFENDER prefetch racing the
attacker's probe can still lose if issued too late.

A line exists only while it is resident: a fill creates one and every
removal (eviction, invalidation, flush, cancelled fill) drops it, so there
is no valid bit.
"""

from __future__ import annotations


class CacheLine:
    """One resident cache line's tag-array state.

    The constructor's positional order is the row order of
    ``Cache.snapshot()``, so restore rebuilds a line as ``CacheLine(*row)``.
    """

    __slots__ = (
        "block_addr",
        "ready_time",
        "prefetched",
        "component",
        "dirty",
        "useful_counted",
    )

    def __init__(
        self,
        block_addr: int,
        ready_time: int,
        prefetched: bool,
        component: str | None,
        dirty: bool = False,
        useful_counted: bool = False,
    ) -> None:
        self.block_addr = block_addr
        self.ready_time = ready_time
        self.prefetched = prefetched
        self.component = component
        self.dirty = dirty
        self.useful_counted = useful_counted

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = "D" if self.dirty else "-"
        flags += "P" if self.prefetched else "-"
        return f"CacheLine({self.block_addr:#x} {flags} ready@{self.ready_time})"
