"""Prime+Probe (Osvik, Shamir & Tromer 2006 — paper ref. [6]).

No page sharing: the attacker primes both L1 ways of every monitored set
with its *own* lines (set-congruent arrays at +evict_offset_1/2), the
victim's access evicts one way of one set, and the probe measures each
set's two loads together — the slow set reveals the secret.
"""

from __future__ import annotations

from repro.attacks.base import CacheAttack
from repro.attacks.snippets import (
    emit_prime_loop,
    emit_probe_loop,
    emit_victim,
)
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program


class PrimeProbeAttack(CacheAttack):
    """Prime+Probe: a slow set (>= threshold) marks the candidate."""

    name = "Prime+Probe"
    hit_threshold = 14  # two L1 hits ~9; one L2 refill lifts the set to ~21
    candidate_is_slow = True
    # 48 monitored sets: more than 64 would alias within the 32KB L1 set
    # span and break even the baseline attack, and the 16 unmonitored set
    # groups act as a guard band absorbing the Access Tracker's beyond-array
    # edge prefetches (which would otherwise alias onto monitored sets).
    DEFAULT_OPTIONS = {"secret": 37, "num_indices": 48}
    indexes_l1_sets = True

    def build_programs(self) -> list[Program]:
        layout, options = self.layout, self.options
        builder = ProgramBuilder("prime_probe")
        builder.fill(
            layout.results_base,
            count=options.num_indices,
            value=0,
            stride=layout.results_stride,
        )
        builder.data(layout.secret_addr, [options.secret])
        emit_prime_loop(builder, layout, options)
        emit_victim(builder, layout, options)
        emit_probe_loop(
            builder,
            layout,
            options,
            base_offset=layout.evict_offset_1,
            second_way_offset=layout.evict_offset_2,
        )
        builder.halt()
        return [builder.build(strict=True)]
