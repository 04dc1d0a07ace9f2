"""Memory layout and option set shared by all attacks.

The probe (eviction) array uses the paper's 0x200 scale (Fig. 5): index
``i`` lives at ``probe_base + i * 0x200``.  With 64-byte lines and 512 L1
sets, consecutive indices are 8 sets apart, so set-congruent helper regions
(eviction ways for Evict+Reload, the attacker's primed arrays for
Prime+Probe) sit at multiples of 32KB (= 512 sets x 64B), beyond the 48KB
array span.  C3 noise lines are placed on sets ≡ 4 (mod 8) so they never
conflict with probe lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

L1_SET_SPAN = 512 * 64  # bytes covered by one pass over all L1 sets


@dataclass(frozen=True)
class AttackOptions:
    """Attack shape: secret, array geometry, challenges, victim placement."""

    secret: int = 65
    num_indices: int = 96
    scale: int = 0x200
    probe_step: int = 67  # register-generated pseudo-random probe order (C2)
    sequential_probe: bool = False
    noise_c3: bool = False
    noise_c4: bool = False
    noise_loads: int = 12
    victim_mode: str = "direct"  # "direct" | "spectre"
    cross_core: bool = False
    probe_gap_cycles: int = 260
    train_rounds: int = 16
    # How the measurement phase touches a probe line: "load" (a demand load
    # every tracker observes) or "prefetch" (a timed software prefetch that
    # no demand-traffic defense ever sees — Adversarial Prefetch's A2).
    probe_kind: str = "load"
    # Which phase-2 victim runs between the attacker's prepare and probe
    # phases: "direct" is the paper's single secret-dependent access; any
    # other name is resolved in the crypto-victim registry
    # (:mod:`repro.workloads.crypto`) at program-build time, so unknown
    # names fail there, not here (the registry cannot be imported from this
    # module without a cycle).
    victim: str = "direct"

    def __post_init__(self) -> None:
        if not 0 <= self.secret < self.num_indices:
            raise ConfigError(
                f"secret {self.secret} outside probe range 0..{self.num_indices - 1}"
            )
        if self.victim_mode not in ("direct", "spectre"):
            raise ConfigError(f"unknown victim_mode {self.victim_mode!r}")
        if self.probe_step <= 0:
            raise ConfigError("probe_step must be positive")
        if self.probe_kind not in ("load", "prefetch"):
            raise ConfigError(f"unknown probe_kind {self.probe_kind!r}")
        if not self.victim:
            raise ConfigError("victim must be a non-empty registry name")
        if self.victim != "direct" and self.victim_mode != "direct":
            raise ConfigError(
                "crypto victims run in victim_mode='direct'; the spectre "
                "transient victim exists only for the direct access"
            )

    @property
    def challenges(self) -> str:
        """Paper-style challenge label, e.g. ``C1+C2+C3``."""
        label = "C1+C2"
        if self.noise_c3:
            label += "+C3"
        if self.noise_c4:
            label += "+C4"
        return label


@dataclass(frozen=True)
class AttackLayout:
    """All absolute addresses used by the attack programs.

    Probe lines occupy L1 sets ≡ 0 (mod 8) (scale 0x200 over 64-byte lines);
    every helper region (secret cell, results, noise, flags, spectre arrays)
    is deliberately placed on sets ≢ 0 (mod 8) so bookkeeping traffic never
    evicts a probe line or a PREFENDER prefetch.  Results are stored with a
    0x200 stride for the same reason.
    """

    probe_base: int = 0x0200_0000
    secret_addr: int = 0x0300_2100  # set ≡ 4 (mod 8)
    array1_base: int = 0x0300_0040  # set ≡ 1
    array1_size_addr: int = 0x0300_1040  # set ≡ 1
    idx_seq_base: int = 0x0310_0040  # set ≡ 1
    results_base: int = 0x0500_0100  # set ≡ 4; stride 0x200 keeps it ≡ 4
    results_stride: int = 0x200
    noise_base: int = 0x0600_0100  # set ≡ 4 (mod 8): never a probe set
    flag_base: int = 0x0700_0100  # sets 4 and 5
    oob_index: int = 64  # array1_base + 64*8 holds the spectre "secret"

    # Set-congruent offsets from probe_base (multiples of 32KB, beyond the
    # 48KB probe-array span).
    evict_offset_1: int = 0x20000
    evict_offset_2: int = 0x28000

    def result_addr(self, index: int) -> int:
        return self.results_base + index * self.results_stride

    @property
    def flag_attacker_ready(self) -> int:
        return self.flag_base

    @property
    def flag_victim_done(self) -> int:
        return self.flag_base + 64

    @property
    def spectre_secret_addr(self) -> int:
        return self.array1_base + self.oob_index * 8
