"""Prefetcher protocol: observations in, prefetch requests out.

The memory hierarchy notifies the L1D's prefetcher after every demand access
with an :class:`Observation`; the prefetcher answers with zero or more
:class:`PrefetchRequest` objects which the hierarchy then issues (subject to
MSHR availability and duplicate-line suppression).

PREFENDER additionally needs the *scale* of the load's base register from the
core's calculation buffer (paper Sec. IV-B); the core threads it through the
observation.  ``l1d_contains`` lets trackers honour the paper's "not currently
in the L1D cache" candidate filters without reaching into cache internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.snapshot import require_keys


@dataclass(slots=True)
class Observation:
    """One demand access as seen by an L1D prefetcher.

    Slotted and not frozen: one is built per load or store on a core with a
    prefetcher, and a frozen dataclass pays ``object.__setattr__`` per field.

    Attributes:
        op: ``"load"`` or ``"store"``.
        core_id: issuing core.
        pc: instruction address of the memory instruction.
        addr: full byte address accessed.
        block_addr: ``addr`` rounded to its cacheline base.
        hit: True when the access hit in L1D (ready data).
        now: issue time in cycles.
        scale: Scale Tracker scale of the address base register at execute
            time (canonical 1 = "no useful scale").
        speculative: True when issued by a not-yet-resolved (transient) path.
    """

    op: str
    core_id: int
    pc: int
    addr: int
    block_addr: int
    hit: bool
    now: int
    scale: int = 1
    speculative: bool = False


@dataclass(slots=True)
class PrefetchRequest:
    """A single-line prefetch request raised by a prefetcher (slotted and
    not frozen, like :class:`Observation`).

    Attributes:
        addr: byte address anywhere in the target line.
        component: stats key attributing the prefetch (``"st"``, ``"at"``,
            ``"rp"``, ``"tagged"``, ``"stride"``, ...).
    """

    addr: int
    component: str


# Callable the hierarchy exposes so prefetchers can probe L1D residency:
# f(block_addr) -> bool (valid line, including in-flight fills).
ContainsProbe = Callable[[int], bool]


class Prefetcher:
    """Base class: observes demand accesses, proposes prefetches."""

    name = "null"
    #: False when :meth:`observe` answers every store with ``[]`` and
    #: changes no state for it: the hierarchy then builds no
    #: :class:`Observation` for this core's stores.
    observes_stores = True

    def observe(
        self, observation: Observation, l1d_contains: ContainsProbe
    ) -> list[PrefetchRequest]:
        """Return prefetch requests for this access (may be empty).

        The list is a new one that the caller owns and may extend.
        """
        raise NotImplementedError

    def on_back_invalidation(self, block_addr: int, now: int) -> list[PrefetchRequest]:
        """Hook for back-invalidation events (used by BITP); default: none.

        Like :meth:`observe`, returns a new list that the caller owns.
        """
        return []

    def reset(self) -> None:
        """Clear all learned state (used between experiment phases)."""

    def snapshot(self) -> dict[str, Any]:
        """All mutable state; stateless prefetchers return ``{}``."""
        return {}

    def restore(self, data: dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot` (strict-key, in-place)."""
        require_keys(data, (), type(self).__name__)


@dataclass
class NullPrefetcher(Prefetcher):
    """A prefetcher that never prefetches (the paper's Baseline column)."""

    name: str = field(default="none")

    def observe(
        self, observation: Observation, l1d_contains: ContainsProbe
    ) -> list[PrefetchRequest]:
        return []
