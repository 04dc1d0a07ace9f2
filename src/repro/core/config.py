"""PREFENDER configuration.

Defaults follow the paper's evaluation: 32 access buffers of 8 entries, an
activation threshold of 4 valid entries, and an 8-entry scale buffer
(Secs. IV-C, IV-D and V-E).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError


@dataclass(frozen=True)
class PrefenderConfig:
    """Feature switches and sizing knobs for one PREFENDER instance."""

    st_enabled: bool = True
    at_enabled: bool = True
    rp_enabled: bool = True
    num_access_buffers: int = 32
    entries_per_buffer: int = 8
    at_threshold: int = 4
    at_max_prefetches: int = 1
    st_max_prefetches: int = 2
    scale_buffer_entries: int = 8
    unprotect_prefetch_limit: int = 64
    unprotect_idle_cycles: int = 200_000

    def __post_init__(self) -> None:
        if self.rp_enabled and not self.at_enabled:
            raise ConfigError("the Record Protector requires the Access Tracker")
        if self.num_access_buffers < 1 or self.entries_per_buffer < 2:
            raise ConfigError("access buffers need >=1 buffers of >=2 entries")
        if self.at_threshold < 2:
            raise ConfigError("AT threshold below 2 cannot form a DiffMin")

    @property
    def variant_name(self) -> str:
        """Human-readable variant label matching the paper's legends."""
        parts = []
        if self.st_enabled:
            parts.append("ST")
        if self.at_enabled:
            parts.append("AT")
        if self.rp_enabled:
            parts.append("RP")
        if parts == ["ST", "AT", "RP"]:
            return "Prefender"
        return "Prefender-" + "+".join(parts) if parts else "Prefender-off"

    def with_buffers(self, num_access_buffers: int) -> "PrefenderConfig":
        """Copy with a different access-buffer count (Tables IV/V sweeps)."""
        return replace(self, num_access_buffers=num_access_buffers)

    def for_load_pcs(self, load_pcs: int) -> "PrefenderConfig":
        """The config this PREFENDER behaves as on a core whose program has
        ``load_pcs`` distinct load PCs.

        With the Access Tracker on, the buffer count is clamped to
        ``max(1, min(num_access_buffers, load_pcs))``; otherwise, and when
        the clamp changes nothing, this config itself is returned.  Any
        count of at least ``load_pcs`` gives the same run:

        * allocation takes the first invalid buffer, and a buffer keeps
          its PC until it is replaced, so a new PC finds at most
          ``load_pcs - 1`` buffers valid and takes the same buffer at
          every such count;
        * replacement and allocation failure happen only once every buffer
          is valid, so they never happen;
        * no other part of a run's result reads the buffer count: invalid
          buffers are never protected, and the Record Protector walks only
          the buffers it protected.
        """
        if not self.at_enabled:
            return self
        count = max(1, min(self.num_access_buffers, load_pcs))
        if count == self.num_access_buffers:
            return self
        return self.with_buffers(count)

    # -- paper variants ---------------------------------------------------------

    @classmethod
    def st_only(cls) -> "PrefenderConfig":
        return cls(st_enabled=True, at_enabled=False, rp_enabled=False)

    @classmethod
    def at_only(cls) -> "PrefenderConfig":
        return cls(st_enabled=False, at_enabled=True, rp_enabled=False)

    @classmethod
    def st_at(cls, num_access_buffers: int = 32) -> "PrefenderConfig":
        return cls(
            st_enabled=True,
            at_enabled=True,
            rp_enabled=False,
            num_access_buffers=num_access_buffers,
        )

    @classmethod
    def at_rp(cls) -> "PrefenderConfig":
        return cls(st_enabled=False, at_enabled=True, rp_enabled=True)

    @classmethod
    def full(cls, num_access_buffers: int = 32) -> "PrefenderConfig":
        return cls(num_access_buffers=num_access_buffers)
