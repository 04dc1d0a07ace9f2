"""Multi-level hierarchy: latencies, flush, coherence, back-invalidation."""

import pytest

from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.prefetch.base import Observation, Prefetcher, PrefetchRequest
from repro.prefetch.bitp import BITPPrefetcher


@pytest.fixture
def hierarchy():
    return MemoryHierarchy(num_cores=2)


def test_latency_classes(hierarchy):
    # Cold: L1 miss, L2 miss -> memory.
    outcome = hierarchy.load(0, 0x1000, now=0)
    assert outcome.level == "MEM"
    assert outcome.latency == 4 + 12 + 120
    # Warm L1.
    outcome = hierarchy.load(0, 0x1000, now=500)
    assert (outcome.latency, outcome.level) == (4, "L1D")
    # Other core: L1 miss, L2 hit.
    outcome = hierarchy.load(1, 0x1000, now=1000)
    assert (outcome.latency, outcome.level) == (16, "L2")


def test_store_value_visible_to_other_core(hierarchy):
    hierarchy.store(0, 0x2000, 77, now=0)
    outcome = hierarchy.load(1, 0x2000, now=100)
    assert outcome.value == 77


def test_store_invalidates_other_l1(hierarchy):
    hierarchy.load(1, 0x2000, now=0)
    assert hierarchy.l1_contains(1, 0x2000)
    hierarchy.store(0, 0x2000, 1, now=500)
    assert not hierarchy.l1_contains(1, 0x2000)
    assert hierarchy.l1ds[1].stats.cross_invalidations == 1


def test_nonblocking_stores_return_one_cycle(hierarchy):
    assert hierarchy.store(0, 0x3000, 5, now=0) == 1


def test_blocking_stores_config():
    hierarchy = MemoryHierarchy(
        num_cores=1, config=HierarchyConfig(nonblocking_stores=False)
    )
    latency = hierarchy.store(0, 0x3000, 5, now=0)
    assert latency == 136


def test_flush_evicts_everywhere(hierarchy):
    hierarchy.load(0, 0x4000, now=0)
    hierarchy.load(1, 0x4000, now=200)
    latency = hierarchy.flush(0, 0x4000, now=400)
    assert latency == hierarchy.config.flush_latency
    assert not hierarchy.l1_contains(0, 0x4000)
    assert not hierarchy.l1_contains(1, 0x4000)
    assert not hierarchy.l2.contains(0x4000)
    # Reload pays the full memory path again.
    assert hierarchy.load(0, 0x4000, now=600).level == "MEM"


def test_inclusive_back_invalidation():
    hierarchy = MemoryHierarchy(
        num_cores=1,
        config=HierarchyConfig(l2_size=64 * 1024, l2_assoc=1),
    )
    # Fill one L2 set until eviction; the L1 copy must be back-invalidated.
    span = hierarchy.l2.num_sets * 64
    hierarchy.load(0, 0x0, now=0)
    assert hierarchy.l1_contains(0, 0x0)
    hierarchy.load(0, span, now=1000)  # same L2 set, assoc 1 -> evict
    assert not hierarchy.l1_contains(0, 0x0)
    assert hierarchy.l1ds[0].stats.back_invalidations == 1


class _RecordingPrefetcher(Prefetcher):
    name = "recording"

    def __init__(self):
        self.observations = []

    def observe(self, observation, l1d_contains):
        self.observations.append(observation)
        return [PrefetchRequest(addr=observation.block_addr + 64, component="x")]


def test_prefetcher_notification_and_issue(hierarchy):
    prefetcher = _RecordingPrefetcher()
    hierarchy.attach_prefetcher(0, prefetcher)
    hierarchy.load(0, 0x5000, now=0, pc=0x400000, scale=512)
    assert len(prefetcher.observations) == 1
    observation = prefetcher.observations[0]
    assert observation.pc == 0x400000
    assert observation.scale == 512
    assert observation.op == "load"
    assert hierarchy.l1_contains(0, 0x5040)
    assert hierarchy.prefetch_counts(0) == {"x": 1}
    timeline = hierarchy.prefetch_timeline(0)
    assert timeline == [(0, "x", 0x5040)]


def test_prefetch_fills_l2_too(hierarchy):
    prefetcher = _RecordingPrefetcher()
    hierarchy.attach_prefetcher(0, prefetcher)
    hierarchy.load(0, 0x6000, now=0)
    assert hierarchy.l2.contains(0x6040)


def test_total_prefetch_counts(hierarchy):
    hierarchy.attach_prefetcher(0, _RecordingPrefetcher())
    hierarchy.attach_prefetcher(1, _RecordingPrefetcher())
    hierarchy.load(0, 0x7000, now=0)
    hierarchy.load(1, 0x8000, now=0)
    assert hierarchy.total_prefetch_counts() == {"x": 2}


def test_observation_hit_flag(hierarchy):
    prefetcher = _RecordingPrefetcher()
    hierarchy.attach_prefetcher(0, prefetcher)
    hierarchy.load(0, 0x9000, now=0)
    hierarchy.load(0, 0x9000, now=500)
    assert prefetcher.observations[0].hit is False
    assert prefetcher.observations[1].hit is True


# --- software prefetch (prefetch / prefetchw) --------------------------------

def test_software_prefetch_latency_distinguishes_residency(hierarchy):
    # Cold: the prefetch fill walks the whole path, like a load would.
    outcome = hierarchy.software_prefetch(0, 0x1000, now=0)
    assert (outcome.latency, outcome.level) == (4 + 12 + 120, "MEM")
    assert hierarchy.l1_contains(0, 0x1000)
    # Warm L1: the timed prefetch reveals residency.
    outcome = hierarchy.software_prefetch(0, 0x1000, now=500)
    assert (outcome.latency, outcome.level) == (4, "L1D")
    # Other core, line in shared L2: the L2-hit class.
    outcome = hierarchy.software_prefetch(1, 0x1000, now=1000)
    assert (outcome.latency, outcome.level) == (16, "L2")


def test_software_prefetch_never_notifies_prefetchers(hierarchy):
    prefetcher = _RecordingPrefetcher()
    hierarchy.attach_prefetcher(0, prefetcher)
    hierarchy.software_prefetch(0, 0xA000, now=0)
    hierarchy.software_prefetch(0, 0xB000, now=100, write=True)
    assert prefetcher.observations == [], "prefetches are not demand traffic"


def test_prefetchw_invalidates_other_core_and_pays_snoop(hierarchy):
    hierarchy.load(1, 0x2000, now=0)  # the victim holds the line
    assert hierarchy.l1_contains(1, 0x2000)
    outcome = hierarchy.software_prefetch(0, 0x2000, now=500, write=True)
    assert not hierarchy.l1_contains(1, 0x2000)
    assert hierarchy.l1_contains(0, 0x2000)
    snoop = HierarchyConfig().prefetchw_snoop_latency
    assert outcome.latency == 16 + snoop  # L2-hit fill + invalidation trip
    assert hierarchy.l1ds[1].stats.cross_invalidations == 1
    # No other copy: no snoop penalty.
    outcome = hierarchy.software_prefetch(0, 0x2000, now=1000, write=True)
    assert outcome.latency == 4


def test_exclusive_line_is_stolen_by_other_core_access(hierarchy):
    hierarchy.software_prefetch(0, 0x3000, now=0, write=True)
    assert hierarchy.l1_contains(0, 0x3000)
    # The owner's own traffic keeps ownership.
    hierarchy.load(0, 0x3000, now=100)
    assert hierarchy.l1_contains(0, 0x3000)
    assert hierarchy.ownership_steals == 0
    # Another core's demand load migrates the line out of the owner's L1.
    hierarchy.load(1, 0x3000, now=200)
    assert not hierarchy.l1_contains(0, 0x3000)
    assert hierarchy.ownership_steals == 1
    # Ownership is gone: further victim accesses steal nothing more.
    hierarchy.load(1, 0x3000, now=300)
    assert hierarchy.ownership_steals == 1


def test_exclusive_line_is_stolen_by_hardware_prefetch_fill(hierarchy):
    hierarchy.software_prefetch(0, 0x5000 + 64, now=0, write=True)
    assert hierarchy.l1_contains(0, 0x5040)
    # Core 1's prefetcher pulls the neighbour line: same steal semantics —
    # this is how the victim-side defense decoys reach the attacker's L1.
    hierarchy.attach_prefetcher(1, _RecordingPrefetcher())
    hierarchy.load(1, 0x5000, now=100)
    assert not hierarchy.l1_contains(0, 0x5040)
    assert hierarchy.ownership_steals == 1


def test_flush_drops_exclusivity(hierarchy):
    hierarchy.software_prefetch(0, 0x6000, now=0, write=True)
    hierarchy.flush(0, 0x6000, now=100)
    # After the flush the line is unowned: a victim access steals nothing.
    hierarchy.load(1, 0x6000, now=200)
    assert hierarchy.ownership_steals == 0


def test_injected_memory_latency_survives_init():
    from repro.mem.memory import MainMemory

    memory = MainMemory(latency=77)
    hierarchy = MemoryHierarchy(num_cores=1, memory=memory)
    assert hierarchy.memory.latency == 77, "caller-supplied latency kept"
    assert hierarchy.load(0, 0x1000, now=0).latency == 4 + 12 + 77
    # Without an injected memory the config default still applies.
    from repro.mem.hierarchy import HierarchyConfig as _Config

    default = MemoryHierarchy(num_cores=1, config=_Config(memory_latency=33))
    assert default.memory.latency == 33


def test_software_prefetch_drops_when_prefetch_mshrs_full(hierarchy):
    # The L1 prefetch MSHR pool holds 2 in-flight fills; a third cold
    # software prefetch at the same instant is squashed (x86 semantics).
    assert hierarchy.software_prefetch(0, 0x10000, now=0).level == "MEM"
    assert hierarchy.software_prefetch(0, 0x20000, now=0).level == "MEM"
    dropped = hierarchy.software_prefetch(0, 0x30000, now=0, write=True)
    assert dropped.level == "DROPPED"
    assert dropped.latency == hierarchy.l1ds[0].hit_latency
    assert not hierarchy.l1_contains(0, 0x30000), "no fill on a drop"
    hierarchy.load(1, 0x30000, now=10)
    assert hierarchy.ownership_steals == 0, "no ownership claim on a drop"
    assert hierarchy.l1ds[0].stats.prefetch_dropped == 1
    # Once the fills land, the same prefetch goes through.
    assert hierarchy.software_prefetch(0, 0x30000, now=5000).level == "L2"


def _assert_inclusive(hierarchy, step):
    """Every block resident in an L1 is resident in the inclusive L2."""
    for core_id, l1d in enumerate(hierarchy.l1ds):
        for block_addr in l1d.resident_blocks():
            assert hierarchy.l2.contains(block_addr), (
                f"after access {step}: L1D{core_id} holds {block_addr:#x}, "
                "the L2 does not"
            )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP open item 3 (concrete inclusion): an L2 miss that merges "
        "into the MSHR entry of a fill whose line was already evicted "
        "returns without re-inserting the line"
    ),
)
def test_l2_mshr_merge_after_eviction_keeps_inclusion():
    # 0x300's L2 fill is still in flight (ready at 132) when core 1's load
    # of 0x000 evicts it from L2 set 0; core 1's load of 0x300 at 21 then
    # merges into the leftover entry (level "MSHR", 115 cycles).
    hierarchy = MemoryHierarchy(
        num_cores=2,
        config=HierarchyConfig(
            l1d_size=256, l1d_assoc=2, l2_size=512, l2_assoc=2
        ),
    )
    accesses = [(0, 0x300, 0), (1, 0x100, 0), (1, 0x000, 1), (1, 0x300, 21)]
    for step, (core_id, addr, now) in enumerate(accesses):
        hierarchy.load(core_id, addr, now=now)
        _assert_inclusive(hierarchy, step)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP open item 3 (concrete inclusion): Cache._evict calls the "
        "on_evict hook before it pops the line, so BITP's refill hits the "
        "L2 copy being dropped"
    ),
)
def test_bitp_refill_during_l2_eviction_keeps_inclusion():
    # Core 1's load of 0x80 evicts 0x00 from the one-set L2, which
    # back-invalidates core 0's copy; BITP refills it at once (ready at
    # 2020, an L2-hit latency) from the L2 line that is then popped.
    hierarchy = MemoryHierarchy(
        num_cores=2,
        config=HierarchyConfig(
            l1d_size=128, l1d_assoc=2, l2_size=128, l2_assoc=2
        ),
    )
    hierarchy.attach_prefetcher(0, BITPPrefetcher())
    accesses = [(0, 0x00, 0), (1, 0x40, 1000), (1, 0x80, 2000)]
    for step, (core_id, addr, now) in enumerate(accesses):
        hierarchy.load(core_id, addr, now=now)
        _assert_inclusive(hierarchy, step)
