"""One access buffer of the Access Tracker (paper Fig. 6).

Each buffer is associated with a single load instruction (``inst_addr``),
records the block addresses that load recently touched, and derives
``DiffMin`` — the minimum pairwise difference between recorded block
addresses — as the stride estimate for the attacker's probe pattern.

The Record Protector may mark a buffer *protected*: protected buffers are
exempt from LRU replacement (challenge C3) and carry a *protected scale*
register pair ``(sc, blk)`` copied from the scale buffer that overrides
DiffMin-based prefetching (challenge C4).
"""

from __future__ import annotations

from operator import sub

from repro.snapshot import require_keys

_SNAP_KEYS = (
    "inst_addr",
    "valid",
    "entries",
    "stamps",
    "clock",
    "diff_min",
    "protected",
    "protected_scale",
    "protected_blk",
    "guided_prefetches",
    "last_touch",
)


class AccessBuffer:
    """Per-load-PC block-address history with DiffMin estimation."""

    __slots__ = (
        "capacity",
        "inst_addr",
        "valid",
        "entries",
        "_stamps",
        "_clock",
        "diff_min",
        "protected",
        "protected_scale",
        "protected_blk",
        "guided_prefetches",
        "last_touch",
    )

    def __init__(self, capacity: int = 8) -> None:
        self.capacity = capacity
        self.inst_addr: int | None = None
        self.valid = False
        self.entries: list[int] = []
        self._stamps: list[int] = []
        self._clock = 0
        self.diff_min: int | None = None
        self.protected = False
        self.protected_scale: int | None = None
        self.protected_blk: int | None = None
        self.guided_prefetches = 0
        self.last_touch = 0

    def reset(self, inst_addr: int | None = None) -> None:
        """Reinitialise for a (possibly new) associated load."""
        self.inst_addr = inst_addr
        self.valid = inst_addr is not None
        self.entries.clear()
        self._stamps.clear()
        self._clock = 0
        self.diff_min = None
        self.protected = False
        self.protected_scale = None
        self.protected_blk = None
        self.guided_prefetches = 0
        self.last_touch = 0

    def snapshot(self) -> dict:
        """All mutable state (``capacity`` is configuration, not state)."""
        return {
            "inst_addr": self.inst_addr,
            "valid": self.valid,
            "entries": tuple(self.entries),
            "stamps": tuple(self._stamps),
            "clock": self._clock,
            "diff_min": self.diff_min,
            "protected": self.protected,
            "protected_scale": self.protected_scale,
            "protected_blk": self.protected_blk,
            "guided_prefetches": self.guided_prefetches,
            "last_touch": self.last_touch,
        }

    def restore(self, data: dict) -> None:
        """Inverse of :meth:`snapshot`; list contents replaced in place."""
        require_keys(data, _SNAP_KEYS, "AccessBuffer")
        self.inst_addr = data["inst_addr"]
        self.valid = data["valid"]
        self.entries[:] = data["entries"]
        self._stamps[:] = data["stamps"]
        self._clock = data["clock"]
        self.diff_min = data["diff_min"]
        self.protected = data["protected"]
        self.protected_scale = data["protected_scale"]
        self.protected_blk = data["protected_blk"]
        self.guided_prefetches = data["guided_prefetches"]
        self.last_touch = data["last_touch"]

    @property
    def valid_entries(self) -> int:
        return len(self.entries)

    def contains(self, block_addr: int) -> bool:
        return block_addr in self.entries

    def record(self, block_addr: int, now: int) -> bool:
        """Stage 2 (Entry Updating): insert ``block_addr``; LRU on overflow.

        Returns True when a new entry was created (False: already present,
        only its recency was refreshed).
        """
        self.last_touch = now
        self._clock += 1
        if block_addr in self.entries:
            index = self.entries.index(block_addr)
            self._stamps[index] = self._clock
            return False
        if len(self.entries) < self.capacity:
            self.entries.append(block_addr)
            self._stamps.append(self._clock)
            return True
        victim = self._stamps.index(min(self._stamps))
        self.entries[victim] = block_addr
        self._stamps[victim] = self._clock
        return True

    def update_diff_min(self) -> int | None:
        """Stage 3 (DiffMin Updating): recompute over all valid entries."""
        if len(self.entries) < 2:
            self.diff_min = None
            return None
        ordered = sorted(self.entries)
        self.diff_min = min(map(sub, ordered[1:], ordered))
        return self.diff_min

    # -- protection (Record Protector hooks) -----------------------------------

    def protect(self, scale: int, block_addr: int) -> None:
        """Mark protected and latch the protecting (sc, blk) pair."""
        self.protected = True
        self.protected_scale = scale
        self.protected_blk = block_addr
        self.guided_prefetches = 0

    def unprotect(self) -> None:
        self.protected = False
        self.protected_scale = None
        self.protected_blk = None
        self.guided_prefetches = 0

    def protected_scale_matches(self, block_addr: int) -> int | None:
        """Return the protected scale when ``block_addr`` fits its pattern."""
        if not self.protected or self.protected_scale is None:
            return None
        if (block_addr - self.protected_blk) % self.protected_scale == 0:
            return self.protected_scale
        return None
