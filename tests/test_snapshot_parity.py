"""Differential snapshot/restore parity harness.

For every workload × prefetcher cell and attack scenario pinned in
``tests/golden/timing_parity.json``, two identical systems are built and
driven through a randomized interleaving — the subject runs N steps,
snapshots, runs K more, restores and re-runs the K — while the control
simply runs N+K straight through.  ``tools.state_diff`` then deep-compares
the two live object graphs field by field; a single diverging register,
cache line, MSHR entry or tracker counter fails with its exact path
(``core[1].l1._sets[3][65728].dirty``; a cache set's key order is its LRU
order, so a reordered set fails too).

Also here: the snapshot versioning contract (mismatched
``SNAPSHOT_VERSION``, unknown/missing fields and topology mismatches all
raise :class:`SnapshotError`), image non-aliasing (one snapshot serves
many restores), a countdown-fusion differential, stop points
(``run_steps(stop_before_load=)``) against a per-instruction run, and a
hypothesis round-trip property over random programs × random snapshot
points.
"""

import copy
import json
import pathlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tools.state_diff import diff_systems, state_diff

from repro.errors import SnapshotError
from repro.experiments.common import PERF_CORE, security_spec
from repro.isa.builder import ProgramBuilder
from repro.isa.registers import WORD_MASK
from repro.mem.cache import Cache, MemoryPort
from repro.mem.memory import MainMemory
from repro.runner.job import ATTACK_KINDS
from repro.sim.config import PrefetcherSpec, SystemConfig
from repro.sim.simulator import build_system
from repro.snapshot import SNAPSHOT_VERSION
from repro.utils.addr import AddressMap
from repro.workloads import get_workload

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "timing_parity.json"

# Mirrors tests/test_golden_parity.py; test_harness_covers_pinned_grid
# asserts the mirror cannot drift from the golden file.
WORKLOADS = ("462.libquantum", "429.mcf", "473.astar", "999.specrand")
KINDS = (
    "none",
    "tagged",
    "stride",
    "prefender",
    "prefender+stride",
    "bitp",
    "disruptive",
)
SCALE = 0.1

ATTACK_CELLS = {
    "flush-reload/cross-core/Base": dict(
        attack="flush-reload", defense="Base", cross_core=True
    ),
    "flush-reload/cross-core/FULL": dict(
        attack="flush-reload", defense="FULL", cross_core=True
    ),
    "flush-reload/spectre/Base": dict(
        attack="flush-reload", defense="Base", victim_mode="spectre"
    ),
    "flush-reload/spectre/ST+AT": dict(
        attack="flush-reload", defense="ST+AT", victim_mode="spectre"
    ),
    "adversarial-prefetch-a2/Base": dict(
        attack="adversarial-prefetch-a2", defense="Base"
    ),
}


def _workload_system(workload: str, kind: str):
    program = get_workload(workload).program(SCALE)
    config = SystemConfig(core=PERF_CORE, prefetcher=PrefetcherSpec(kind=kind))
    return build_system([program], config)


def _attack_system(cell: dict, core_config=None):
    overrides = {
        key: value
        for key, value in cell.items()
        if key not in ("attack", "defense")
    }
    attack = ATTACK_KINDS[cell["attack"]](**overrides)
    config = SystemConfig(prefetcher=security_spec(cell["defense"]))
    if core_config is not None:
        config = replace(config, core=core_config)
    system, _ = attack.prepare(config)
    return system


def _interleaving_check(make_system, seed: str) -> None:
    """Run the randomized N / snapshot / K / restore / K interleaving."""
    rng = random.Random(seed)
    control = make_system()
    subject = make_system()
    warm = rng.randrange(50, 2000)
    replay = rng.randrange(50, 1500)
    took_warm = subject.run_steps(warm)
    image = subject.snapshot()
    first = subject.run_steps(replay)
    subject.restore(image)
    second = subject.run_steps(replay)
    assert first == second, "replayed segment took a different step count"
    control.run_steps(took_warm + second)
    assert diff_systems(subject, control) == []


# --- randomized interleavings over the pinned golden grid ----------------------


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("kind", KINDS)
def test_workload_interleaving_parity(workload, kind):
    _interleaving_check(
        lambda: _workload_system(workload, kind), f"{workload}/{kind}"
    )


@pytest.mark.parametrize("name", sorted(ATTACK_CELLS))
def test_attack_interleaving_parity(name):
    _interleaving_check(lambda: _attack_system(ATTACK_CELLS[name]), name)


def test_harness_covers_pinned_grid():
    """The cells above are exactly the grid pinned in the golden file."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["scale"] == SCALE
    assert set(golden["workloads"]) == {
        f"{workload}/{kind}" for workload in WORKLOADS for kind in KINDS
    }
    assert set(golden["attacks"]) == set(ATTACK_CELLS)


@pytest.mark.parametrize(
    ("workload", "kind"),
    [("462.libquantum", "prefender+stride"), ("999.specrand", "tagged")],
)
def test_resumed_run_completes_identically(workload, kind):
    """Restore mid-run, then finish: cycle- and counter-exact vs control."""
    control = _workload_system(workload, kind)
    subject = _workload_system(workload, kind)
    subject.run_steps(400)
    image = subject.snapshot()
    subject.run_steps(300)
    subject.restore(image)
    control_result = control.run()
    subject_result = subject.run()
    assert subject_result.cycles == control_result.cycles
    assert subject_result.instructions == control_result.instructions
    assert subject_result.core_cycles == control_result.core_cycles
    assert diff_systems(subject, control) == []


def test_attack_resumed_run_completes_identically():
    cell = ATTACK_CELLS["flush-reload/cross-core/FULL"]
    control = _attack_system(cell)
    subject = _attack_system(cell)
    subject.run_steps(600)
    image = subject.snapshot()
    subject.run_steps(500)
    subject.restore(image)
    control_result = control.run()
    subject_result = subject.run()
    assert subject_result.cycles == control_result.cycles
    assert subject_result.instructions == control_result.instructions
    assert diff_systems(subject, control) == []


# --- snapshot image hygiene ----------------------------------------------------


def test_restore_does_not_alias_the_image():
    """One image must survive restore + further running untouched, so a
    single snapshot can seed arbitrarily many replays."""
    system = _workload_system("999.specrand", "prefender")
    system.run_steps(250)
    image = system.snapshot()
    pristine = copy.deepcopy(image)
    system.restore(image)
    system.run_steps(250)
    assert image == pristine


def test_countdown_fusion_is_cycle_exact():
    """Fast-forwarded delay loops must match the unfused simulation in
    every cycle, counter and architectural field."""
    cell = ATTACK_CELLS["flush-reload/cross-core/Base"]
    fused = _attack_system(cell)
    unfused = _attack_system(
        cell, core_config=replace(SystemConfig().core, fuse_countdown_loops=False)
    )
    fused_result = fused.run()
    unfused_result = unfused.run()
    assert fused_result.cycles == unfused_result.cycles
    assert fused_result.instructions == unfused_result.instructions
    assert diff_systems(fused, unfused) == []


def test_state_diff_reports_cache_lru_order():
    """Two caches holding the same lines in a different LRU order differ:
    the next fill into that set would evict different lines."""
    caches = []
    for last in (0x0, 0x200):  # both map to set 0 of this 8-set cache
        cache = Cache(
            "L1D0", size=1024, assoc=2, amap=AddressMap(), hit_latency=4,
            parent=MemoryPort(MainMemory()),
        )
        cache.access(0x0, now=0)
        cache.access(0x200, now=0)
        cache.access(last, now=500)  # a hit: ``last`` becomes most recent
        caches.append(cache)
    assert state_diff(*caches, path="l1") == ["l1._sets[0]: key order differs"]


# --- stop points -----------------------------------------------------------------

_STOP_BASE = 0x20000
_WATCHED = _STOP_BASE + 128
_SHARED = _STOP_BASE + 64
_UNLOADED = _STOP_BASE + 4096


def _stop_program(core_id: int):
    """Loads of ``_SHARED`` and then ``_WATCHED``, behind a countdown loop
    whose length depends on the core, and a transient load of
    ``_WATCHED`` first: the opening branch is taken, but a cold predictor
    guesses not taken, so a speculative core runs the fall-through."""
    builder = ProgramBuilder(f"stop{core_id}")
    builder.li("r9", _STOP_BASE).li("r1", 1).bne("r1", "zero", "skip")
    builder.load("r2", 128, "r9")
    builder.label("skip").li("r3", 40 + 25 * core_id)
    builder.label("spin").sub("r3", "r3", 1).bne("r3", "zero", "spin")
    builder.add("r4", "r9", 64).mul("r5", "r4", 3).xor("r5", "r5", "r4")
    builder.load("r6", 0, "r4")
    builder.add("r7", "r9", 128).sll("r5", "r6", 2).load("r8", 0, "r7")
    builder.store("r8", 192, "r9").load("r2", 128, "r9").halt()
    builder.data(_STOP_BASE, list(range(64)))
    return builder.build()


def _stop_systems(cores: int, fuse: bool, speculative: bool):
    """A system with ``fuse`` and its fusion-off twin."""
    programs = [_stop_program(core_id) for core_id in range(cores)]
    config = SystemConfig(num_cores=cores)
    core = replace(config.core, speculative_execution=speculative)
    return tuple(
        build_system(
            programs, replace(config, core=replace(core, fuse_countdown_loops=on))
        )
        for on in (fuse, False)
    )


def _scheduled_loader(system, address: int):
    """The core the scheduler steps next, when its next instruction is a
    non-speculative load of ``address``; otherwise None."""
    active = [core for core in system.cores if not core.halted]
    if not active:
        return None
    core = min(active, key=lambda candidate: candidate.time)  # ties: lower index
    if core.speculating or core.pc_index >= len(core.program):
        return None
    instruction = core.program.instructions[core.pc_index]
    if instruction.op != "load":
        return None
    base = core.regs.read(instruction.rs0)
    return core if (base + instruction.imm) & WORD_MASK == address else None


@pytest.mark.parametrize("watch", [_SHARED, _WATCHED, _UNLOADED], ids=hex)
@pytest.mark.parametrize("speculative", [False, True], ids=["plain", "speculative"])
@pytest.mark.parametrize("fuse", [True, False], ids=["blocks", "no-blocks"])
@pytest.mark.parametrize("cores", [1, 2])
def test_stop_point_matches_a_per_instruction_run(cores, fuse, speculative, watch):
    """``run_steps(stop_before_load=)`` stops where a fusion-off twin,
    stepped one instruction at a time, first schedules a non-speculative
    load of the address (or at the end, for an address nobody loads).

    The rule is exact only because blocks end at every memory op, so the
    load always begins a step.  A block or fused loop on another core is
    one step and may have run ahead of the stop, but only over
    register-only instructions: the twin runs that core alone to the same
    retired count, and then the two systems must not differ at all.
    """
    subject, twin = _stop_systems(cores, fuse, speculative)
    taken = subject.run_steps(100_000, stop_before_load=watch)
    stepped = 0
    while _scheduled_loader(twin, watch) is None and twin.run_steps(1):
        stepped += 1
    assert taken <= stepped
    loader = _scheduled_loader(twin, watch)
    assert (loader is None) == (watch == _UNLOADED)
    for ahead, behind in zip(subject.cores, twin.cores):
        while (
            behind is not loader
            and behind.stats.instructions_retired < ahead.stats.instructions_retired
        ):
            behind.step()
    assert diff_systems(subject, twin) == []
    # Armed again at the stop, the scan takes no step.
    assert subject.run_steps(1, stop_before_load=watch) == 0


def test_stop_point_skips_a_transient_load():
    """A speculative core's transient load of the address does not stop
    the scan: it stops at the same non-speculative load as a core without
    speculation, with the line already brought in transiently."""
    speculative, _ = _stop_systems(1, True, speculative=True)
    plain, _ = _stop_systems(1, True, speculative=False)
    for system in (speculative, plain):
        system.run_steps(100_000, stop_before_load=_WATCHED)
    (spec_core,), (plain_core,) = speculative.cores, plain.cores
    assert spec_core.pc_index == plain_core.pc_index
    assert _scheduled_loader(speculative, _WATCHED) is spec_core
    assert spec_core.stats.transient_executed > 0
    assert speculative.hierarchy.l1ds[0].contains(_WATCHED)
    assert not plain.hierarchy.l1ds[0].contains(_WATCHED)


# --- versioning and shape errors -----------------------------------------------


@pytest.fixture
def small_system():
    return _workload_system("999.specrand", "none")


def test_version_mismatch_raises(small_system):
    image = small_system.snapshot()
    bad = dict(image, version=SNAPSHOT_VERSION + 1)
    with pytest.raises(SnapshotError, match="version"):
        small_system.restore(bad)


def test_unknown_field_raises(small_system):
    bad = dict(small_system.snapshot(), bogus=1)
    with pytest.raises(SnapshotError, match="bogus"):
        small_system.restore(bad)


def test_missing_field_raises(small_system):
    bad = dict(small_system.snapshot())
    del bad["cores"]
    with pytest.raises(SnapshotError, match="cores"):
        small_system.restore(bad)


def test_non_dict_snapshot_raises(small_system):
    with pytest.raises(SnapshotError):
        small_system.restore("not-a-snapshot")


def test_unknown_core_field_raises(small_system):
    image = small_system.snapshot()
    cores = list(image["cores"])
    cores[0] = dict(cores[0], extra=1)
    with pytest.raises(SnapshotError, match="extra"):
        small_system.restore(dict(image, cores=tuple(cores)))


def test_core_count_mismatch_raises(small_system):
    dual = _attack_system(ATTACK_CELLS["flush-reload/cross-core/Base"])
    with pytest.raises(SnapshotError, match="core"):
        dual.restore(small_system.snapshot())


def test_prefetcher_attachment_mismatch_raises():
    system = _workload_system("999.specrand", "stride")
    image = system.snapshot()
    hierarchy = dict(image["hierarchy"], prefetchers=(None,))
    with pytest.raises(SnapshotError, match="prefetcher"):
        system.restore(dict(image, hierarchy=hierarchy))


def test_cross_kind_prefetcher_snapshot_raises(small_system):
    """A stride system cannot silently swallow a NullPrefetcher image."""
    with_prefetcher = _workload_system("999.specrand", "stride")
    with pytest.raises(SnapshotError):
        with_prefetcher.restore(small_system.snapshot())


# --- property-based round-trip (random programs × random snapshot points) ------

_REGS = tuple(f"r{i}" for i in range(1, 8))
_ALU = ("add", "sub", "mul", "and_", "or_", "xor")
_PROP_KINDS = ("none", "stride", "tagged", "prefender")
_DATA_BASE = 0x10000

_steps = st.lists(
    st.tuples(
        st.sampled_from(("alu", "li", "load", "store", "flush", "prefetch")),
        st.integers(0, len(_REGS) - 1),
        st.integers(0, len(_REGS) - 1),
        st.integers(0, 63),
    ),
    min_size=1,
    max_size=30,
)


def _random_program(steps):
    builder = ProgramBuilder("prop_roundtrip")
    builder.li("r9", _DATA_BASE)
    for kind, a, b, c in steps:
        if kind == "alu":
            getattr(builder, _ALU[c % len(_ALU)])(_REGS[a], _REGS[b], c)
        elif kind == "li":
            builder.li(_REGS[a], c * 257)
        elif kind == "load":
            builder.load(_REGS[a], c * 64, "r9")
        elif kind == "store":
            builder.store(_REGS[a], c * 64, "r9")
        elif kind == "flush":
            builder.clflush(c * 64, "r9")
        else:
            builder.prefetch(c * 64, "r9")
    builder.halt()
    builder.data(_DATA_BASE, list(range(64)), stride=64)
    return builder.build()


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_snapshot_roundtrip_property(data):
    program = _random_program(data.draw(_steps))
    config = SystemConfig(
        prefetcher=PrefetcherSpec(kind=data.draw(st.sampled_from(_PROP_KINDS)))
    )
    probe = build_system([program], config)
    total = probe.run_steps(100_000)
    point = data.draw(st.integers(0, total))

    subject = build_system([program], config)
    control = build_system([program], config)
    subject.run_steps(point)
    control.run_steps(point)
    subject.restore(subject.snapshot())
    assert diff_systems(subject, control) == []
    assert state_diff(subject.snapshot(), control.snapshot()) == []

    # Subsequent execution is step-for-step identical to the control.
    for _ in range(total - point):
        assert subject.run_steps(1) == control.run_steps(1)
        assert [core.time for core in subject.cores] == [
            core.time for core in control.cores
        ]
    assert diff_systems(subject, control) == []
