"""Property-based tests (hypothesis) on core data structures and invariants."""

from calc_targets import EveryTarget
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access_buffer import AccessBuffer
from repro.core.scale_buffer import ScaleBuffer
from repro.mem.cache import Cache, MemoryPort
from repro.mem.memory import MainMemory
from repro.mem.mshr import MSHRFile
from repro.utils.addr import AddressMap
from repro.utils.lru import LRUTracker

AMAP = AddressMap()

addresses = st.integers(min_value=0, max_value=1 << 32)
small_ints = st.integers(min_value=-(1 << 20), max_value=1 << 20)
ops = st.sampled_from(["add", "sub", "mul", "sll", "srl", "and", "or", "xor"])


# --- address map -----------------------------------------------------------------

@given(addresses)
def test_block_addr_idempotent_and_aligned(addr):
    block = AMAP.block_addr(addr)
    assert block % 64 == 0
    assert AMAP.block_addr(block) == block
    assert block <= addr < block + 64


@given(addresses)
def test_page_contains_block(addr):
    assert AMAP.page_addr(addr) <= AMAP.block_addr(addr)
    assert AMAP.same_page(addr, AMAP.block_addr(addr))


# --- calculation buffer ------------------------------------------------------------
#
# Each property runs on the naive reference and on a real core with compiled
# blocks off and on (``calc_targets.EveryTarget``).

@given(
    st.lists(
        st.tuples(
            ops,
            st.integers(min_value=1, max_value=7),
            st.integers(min_value=1, max_value=7),
            small_ints,
        ),
        max_size=60,
    )
)
def test_calc_scale_always_positive_and_capped(operations):
    calc = EveryTarget()
    calc.load_from_memory(1)
    calc.load_immediate(2, 0x40)
    for op, rd, rs, imm in operations:
        calc.alu(op, rd, rs, imm=imm)
        for reg in range(8):
            assert 1 <= calc.scale_of(reg) <= 4096


@given(st.integers(min_value=0, max_value=(1 << 64) - 1), small_ints)
def test_calc_valid_fva_tracks_arithmetic(value, imm):
    calc = EveryTarget()
    calc.load_immediate(1, value)
    calc.alu("add", 2, 1, imm=imm)
    assert calc.fva_of(2) == (value + imm) & ((1 << 64) - 1)
    assert calc.scale_of(2) == 1


@given(st.integers(min_value=65, max_value=4095))
def test_calc_mul_rule_produces_requested_scale(scale):
    calc = EveryTarget()
    calc.load_from_memory(1)
    calc.alu("mul", 2, 1, imm=scale)
    assert calc.scale_of(2) == scale


# --- LRU ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=50))
def test_lru_victim_is_never_most_recent(touches):
    lru = LRUTracker()
    for key in touches:
        lru.touch(key)
    if len(set(touches)) > 1:
        assert lru.victim() != touches[-1]


# --- scale buffer ---------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(
            st.sampled_from([0x80, 0x100, 0x200, 0x400]),
            st.integers(min_value=0, max_value=63),
        ),
        max_size=40,
    )
)
def test_scale_buffer_never_overflows_and_matches_recorded(records):
    buffer = ScaleBuffer(capacity=8)
    for sc, block_index in records:
        buffer.record(sc, block_index * 0x1000)
    assert len(buffer) <= 8
    for record in buffer.entries():
        assert buffer.match(record.blk + 3 * record.sc) is not None


# --- access buffer ---------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=200), max_size=60))
def test_access_buffer_capacity_and_diffmin_positive(blocks):
    buffer = AccessBuffer(capacity=8)
    buffer.reset(0x400000)
    for i, block_index in enumerate(blocks):
        buffer.record(block_index * 64, now=i)
    assert buffer.valid_entries <= 8
    assert len(set(buffer.entries)) == buffer.valid_entries
    diff = buffer.update_diff_min()
    if buffer.valid_entries >= 2:
        assert diff is not None and diff > 0
        ordered = sorted(buffer.entries)
        assert diff == min(b - a for a, b in zip(ordered, ordered[1:]))


# --- MSHR ---------------------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=50)),
        max_size=40,
    )
)
def test_mshr_occupancy_bounded(events):
    mshr = MSHRFile(num_entries=4, prefetch_entries=2)
    now = 0
    for is_prefetch, gap in events:
        now += gap
        if is_prefetch:
            mshr.allocate_prefetch(now * 64, now, 100)
        else:
            mshr.allocate_demand(now * 64, now, 100)
        demand = sum(1 for e in mshr._entries if not e.is_prefetch)
        inflight = sum(1 for e in mshr._entries if e.is_prefetch)
        borrowed = sum(1 for e in mshr._entries if e.borrows_prefetch_slot)
        # A demand miss may borrow a squashed prefetch's slot (demand
        # priority); the borrowed slot stays occupied until that fill
        # completes, so the file's physical footprint never exceeds the
        # combined pools and the prefetch pool is never oversubscribed.
        assert demand + inflight <= 4 + 2
        assert demand - borrowed <= 4
        assert inflight + borrowed <= 2


# --- cache --------------------------------------------------------------------------------

@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=255),
            st.booleans(),
        ),
        max_size=60,
    )
)
def test_cache_invariants_under_random_traffic(accesses):
    memory = MainMemory(latency=100)
    cache = Cache(
        "L1D0", size=1024, assoc=2, amap=AMAP, hit_latency=4,
        parent=MemoryPort(memory),
    )
    now = 0
    for block_index, write in accesses:
        latency, _ = cache.access(block_index * 64, now, write=write)
        assert latency >= 4
        now += latency + 1
    # No duplicate blocks resident; capacity respected.
    resident = cache.resident_blocks()
    assert len(resident) == len(set(resident))
    assert len(resident) <= 16  # 1024B / 64B
    stats = cache.stats
    assert stats.hits + stats.misses + stats.inflight_hits + \
        stats.mshr_merge_hits == stats.demand_accesses
