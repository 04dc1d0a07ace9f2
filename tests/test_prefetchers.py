"""Baseline prefetchers: Tagged, Stride, composite, BITP, Disruptive."""

from repro.prefetch.base import NullPrefetcher, Observation
from repro.prefetch.bitp import BITPPrefetcher
from repro.prefetch.composite import CompositePrefetcher
from repro.prefetch.disruptive import DisruptivePrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.prefetch.tagged import TaggedPrefetcher
from repro.utils.addr import AddressMap


def obs(addr, pc=0x400000, hit=False, op="load", now=0):
    amap = AddressMap()
    return Observation(
        op=op, core_id=0, pc=pc, addr=addr, block_addr=amap.block_addr(addr),
        hit=hit, now=now,
    )


def never_contains(_addr):
    return False


def test_null_prefetcher():
    assert NullPrefetcher().observe(obs(0x100), never_contains) == []


def test_tagged_prefetches_next_line_on_miss():
    tagged = TaggedPrefetcher()
    requests = tagged.observe(obs(0x1000, hit=False), never_contains)
    assert [r.addr for r in requests] == [0x1040]
    assert requests[0].component == "tagged"


def test_tagged_streams_on_tagged_hit():
    tagged = TaggedPrefetcher()
    tagged.observe(obs(0x1000, hit=False), never_contains)  # tags 0x1040
    requests = tagged.observe(obs(0x1040, hit=True), never_contains)
    assert [r.addr for r in requests] == [0x1080]
    # A plain (untagged) hit does not trigger.
    assert tagged.observe(obs(0x1040, hit=True), never_contains) == []


def test_tagged_degree():
    tagged = TaggedPrefetcher(degree=2)
    requests = tagged.observe(obs(0x1000), never_contains)
    assert [r.addr for r in requests] == [0x1040, 0x1080]


def test_tagged_respects_l1_contents():
    tagged = TaggedPrefetcher()
    assert tagged.observe(obs(0x1000), lambda a: True) == []


def test_tagged_tag_capacity():
    tagged = TaggedPrefetcher(tag_capacity=2)
    for i in range(5):
        tagged.observe(obs(0x1000 + i * 0x10000), never_contains)
    assert len(tagged._tagged) <= 2


def test_stride_needs_confidence():
    """Baer & Chen gating: issue only from an *already steady* entry.

    The delta must match twice (transient -> steady) before the third
    matching delta issues the first prefetch; the pre-fix code issued on
    the second matching delta, leaving the ``confident`` flag write-only.
    """
    stride = StridePrefetcher(distance=1)
    pc = 0x400100
    assert stride.observe(obs(0x1000, pc=pc), never_contains) == []
    assert stride.observe(obs(0x1200, pc=pc), never_contains) == []  # learn
    # Second matching delta: steady now, but not yet confident *before* it.
    assert stride.observe(obs(0x1400, pc=pc), never_contains) == []
    requests = stride.observe(obs(0x1600, pc=pc), never_contains)  # steady
    assert [r.addr for r in requests] == [0x1800]


def test_stride_resets_on_changed_stride():
    stride = StridePrefetcher(distance=1)
    pc = 0x400100
    stride.observe(obs(0x1000, pc=pc), never_contains)
    stride.observe(obs(0x1200, pc=pc), never_contains)
    stride.observe(obs(0x1300, pc=pc), never_contains)  # stride changed
    assert stride.observe(obs(0x1500, pc=pc), never_contains) == []


def test_stride_per_pc_isolation():
    stride = StridePrefetcher(distance=1)
    stride.observe(obs(0x1000, pc=1), never_contains)
    stride.observe(obs(0x2000, pc=2), never_contains)
    stride.observe(obs(0x1200, pc=1), never_contains)
    stride.observe(obs(0x2200, pc=2), never_contains)
    stride.observe(obs(0x1400, pc=1), never_contains)  # pc 1 now steady
    assert stride.observe(obs(0x1600, pc=1), never_contains) != []


def test_stride_ignores_huge_strides():
    stride = StridePrefetcher(distance=1)
    pc = 7
    stride.observe(obs(0x1000, pc=pc), never_contains)
    stride.observe(obs(0x90000, pc=pc), never_contains)
    assert stride.observe(obs(0x120000, pc=pc), never_contains) == []


def test_composite_priority_order():
    amap = AddressMap()
    tagged = TaggedPrefetcher(amap)
    stride = StridePrefetcher(amap, distance=1)
    composite = CompositePrefetcher(stride, tagged)
    pc = 0x400100
    composite.observe(obs(0x1000, pc=pc), never_contains)
    composite.observe(obs(0x1200, pc=pc), never_contains)
    composite.observe(obs(0x1400, pc=pc), never_contains)  # stride steady
    requests = composite.observe(obs(0x1600, pc=pc), never_contains)
    # Primary (stride) requests come first.
    assert requests[0].component == "stride"
    assert any(r.component == "tagged" for r in requests)


def test_composite_reset_cascades():
    tagged = TaggedPrefetcher()
    composite = CompositePrefetcher(tagged, NullPrefetcher())
    composite.observe(obs(0x1000), never_contains)
    composite.reset()
    assert len(tagged._tagged) == 0


def test_bitp_only_reacts_to_back_invalidation():
    bitp = BITPPrefetcher()
    assert bitp.observe(obs(0x1000), never_contains) == []
    requests = bitp.on_back_invalidation(0x2000, now=5)
    assert [r.addr for r in requests] == [0x2000]
    assert bitp.back_invalidation_hits == 1
    bitp.reset()
    assert bitp.back_invalidation_hits == 0


def test_disruptive_same_set_and_deterministic():
    amap = AddressMap()
    disruptive = DisruptivePrefetcher(amap, probability_percent=100, seed=3)
    requests = []
    for i in range(20):
        requests.extend(
            disruptive.observe(obs(0x100000 + i * 64), never_contains)
        )
    assert requests, "100% probability must produce prefetches"
    set_stride = 512 * 64
    for request, source in zip(requests, range(20)):
        delta = request.addr - amap.block_addr(0x100000 + source * 64)
        assert delta % set_stride == 0 and delta != 0

    # Determinism: same seed, same sequence.
    again = DisruptivePrefetcher(amap, probability_percent=100, seed=3)
    replay = []
    for i in range(20):
        replay.extend(again.observe(obs(0x100000 + i * 64), never_contains))
    assert [r.addr for r in replay] == [r.addr for r in requests]


def _counted_observes(prefetcher):
    """Record the op of every ``observe`` call ``prefetcher`` gets."""
    real = prefetcher.observe
    ops = []

    def observe(observation, l1d_contains):
        ops.append(observation.op)
        return real(observation, l1d_contains)

    prefetcher.observe = observe
    return ops


def test_stores_skip_prefetchers_that_ignore_them():
    from repro.core.prefender import Prefender
    from repro.mem.hierarchy import MemoryHierarchy

    amap = AddressMap()
    prefender = Prefender(amap=amap)
    cases = [
        (prefender, []),
        (BITPPrefetcher(), []),
        (CompositePrefetcher(Prefender(amap=amap), BITPPrefetcher()), []),
        (TaggedPrefetcher(amap), ["store"]),
        (StridePrefetcher(amap), ["store"]),
        (DisruptivePrefetcher(amap), ["store"]),
        (
            CompositePrefetcher(Prefender(amap=amap), TaggedPrefetcher(amap)),
            ["store"],
        ),
    ]
    for prefetcher, store_ops in cases:
        hierarchy = MemoryHierarchy(num_cores=1, amap=amap)
        hierarchy.attach_prefetcher(0, prefetcher)
        ops = _counted_observes(prefetcher)
        hierarchy.store(0, 0x1000, 7, now=0, pc=0x400000)
        assert ops == store_ops, prefetcher.name
        hierarchy.load(0, 0x2000, now=10, pc=0x400004)
        assert ops == store_ops + ["load"], prefetcher.name
    assert prefender.access_tracker.buffer_for_pc(0x400000) is None
    assert prefender.access_tracker.buffer_for_pc(0x400004) is not None
