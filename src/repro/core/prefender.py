"""The assembled PREFENDER secure prefetcher (paper Fig. 2).

PREFENDER sits on an L1D cache and reacts to every demand load:

* the Scale Tracker proposes phase-2 prefetches from the load's
  calculation-buffer scale,
* the Record Protector records trusted scales and computes protection /
  guidance for the Access Tracker,
* the Access Tracker proposes phase-3 prefetches from per-PC access
  history (DiffMin) or from the trusted scale when protected.

Component attribution follows the paper's Figs. 9/11: requests carry
``"st"``, ``"at"`` or ``"rp"`` (the latter meaning "Access Tracker guided by
the Record Protector").
"""

from __future__ import annotations

from repro.core.access_tracker import AccessTracker
from repro.core.config import PrefenderConfig
from repro.core.record_protector import RecordProtector
from repro.core.scale_tracker import ScaleTracker
from repro.errors import SnapshotError
from repro.prefetch.base import ContainsProbe, Observation, Prefetcher, PrefetchRequest
from repro.snapshot import require_keys
from repro.utils.addr import AddressMap


class Prefender(Prefetcher):
    """Secure prefetcher: ST + AT + RP behind one observe() entry point."""

    #: Every tracker reacts to demand loads only.
    observes_stores = False

    def __init__(
        self,
        config: PrefenderConfig | None = None,
        amap: AddressMap | None = None,
    ) -> None:
        self.config = config or PrefenderConfig()
        self.amap = amap or AddressMap()
        self.name = self.config.variant_name.lower()
        self.scale_tracker = (
            ScaleTracker(self.amap, max_prefetches=self.config.st_max_prefetches)
            if self.config.st_enabled
            else None
        )
        self.access_tracker = (
            AccessTracker(
                self.amap,
                num_buffers=self.config.num_access_buffers,
                entries_per_buffer=self.config.entries_per_buffer,
                threshold=self.config.at_threshold,
                max_prefetches=self.config.at_max_prefetches,
            )
            if self.config.at_enabled
            else None
        )
        self.record_protector = (
            RecordProtector(
                scale_buffer_entries=self.config.scale_buffer_entries,
                unprotect_prefetch_limit=self.config.unprotect_prefetch_limit,
                unprotect_idle_cycles=self.config.unprotect_idle_cycles,
            )
            if self.config.rp_enabled
            else None
        )
        # ST's trigger range (cacheline < sc < page), which also gates RP's
        # scale recording when ST prefetching is disabled (Prefender-AT+RP
        # in Fig. 8).
        self._min_scale = self.amap.block_size
        self._max_scale = self.amap.page_size

    def reset(self) -> None:
        if self.scale_tracker is not None:
            self.scale_tracker.reset()
        if self.access_tracker is not None:
            self.access_tracker.reset()
        if self.record_protector is not None:
            self.record_protector.reset()

    def snapshot(self) -> dict:
        """Compose ST/AT/RP snapshots (``None`` for disabled components)."""
        buffers = (
            self.access_tracker.buffers
            if self.access_tracker is not None
            else ()
        )
        return {
            "st": (
                self.scale_tracker.snapshot()
                if self.scale_tracker is not None
                else None
            ),
            "at": (
                self.access_tracker.snapshot()
                if self.access_tracker is not None
                else None
            ),
            "rp": (
                self.record_protector.snapshot(buffers)
                if self.record_protector is not None
                else None
            ),
        }

    def restore(self, data: dict) -> None:
        """Inverse of :meth:`snapshot`; component set must match config."""
        require_keys(data, ("st", "at", "rp"), "Prefender")
        for label, component, snap in (
            ("scale_tracker", self.scale_tracker, data["st"]),
            ("access_tracker", self.access_tracker, data["at"]),
            ("record_protector", self.record_protector, data["rp"]),
        ):
            if (component is None) != (snap is None):
                raise SnapshotError(
                    f"Prefender: {label} is "
                    f"{'disabled' if component is None else 'enabled'} but "
                    f"the snapshot says otherwise"
                )
        if self.scale_tracker is not None:
            self.scale_tracker.restore(data["st"])
        if self.access_tracker is not None:
            self.access_tracker.restore(data["at"])
        if self.record_protector is not None:
            buffers = (
                self.access_tracker.buffers
                if self.access_tracker is not None
                else ()
            )
            self.record_protector.restore(data["rp"], buffers)

    # -- queries ------------------------------------------------------------------

    def protected_buffer_count(self) -> int:
        """Currently protected access buffers (Fig. 12)."""
        if self.access_tracker is None:
            return 0
        return self.access_tracker.protected_count()

    def defense_stats(self) -> dict[str, int]:
        """Defense-internal counters for ``RunResult.defense_stats``.

        Buffer starvation (``allocation_failures``) and the protection
        lifecycle counters are what the scenario suite and Fig. 12-style
        series read; without this export they died with the prefetcher
        object at the end of the run.
        """
        stats: dict[str, int] = {}
        if self.access_tracker is not None:
            at = self.access_tracker
            stats["at_proposals"] = at.proposals
            stats["rp_guided_proposals"] = at.guided_proposals
            stats["allocation_failures"] = at.allocation_failures
            stats["protected_buffers"] = at.protected_count()
        if self.record_protector is not None:
            rp = self.record_protector
            stats["protections"] = rp.protections
            stats["unprotections"] = rp.unprotections
            stats["sweep_unprotections"] = rp.sweep_unprotections
        return stats

    # -- the prefetcher interface ----------------------------------------------------

    def observe(
        self, observation: Observation, l1d_contains: ContainsProbe
    ) -> list[PrefetchRequest]:
        if observation.op != "load":
            return []
        requests: list[PrefetchRequest] = []
        record_protector = self.record_protector

        # ScaleTracker.observe_load proposes nothing out of its trigger
        # range, so it is called only in range.
        scale = observation.scale
        if self._min_scale < scale < self._max_scale:
            if record_protector is not None:
                record_protector.record_scale(scale, observation.block_addr)
            if self.scale_tracker is not None:
                requests = self.scale_tracker.observe_load(observation, l1d_contains)

        access_tracker = self.access_tracker
        if access_tracker is not None:
            guided_scale = None
            if record_protector is not None:
                guided_scale = record_protector.guidance_for(
                    observation, access_tracker
                )
            requests.extend(
                access_tracker.observe_load(observation, l1d_contains, guided_scale)
            )
            if record_protector is not None and guided_scale is not None:
                record_protector.protect_after_allocation(
                    observation, access_tracker
                )
        return requests
