"""Differential fuzz: compiled blocks against the per-instruction path.

Hypothesis draws random programs for 1, 2 and 3 cores.  Each program mixes
every ALU kind (``r0`` as a destination, negative and huge immediates,
shifts of 63 and more) with loads and stores to shared lines, scaled
loads, forward branches, ``jmp``, backward loops, countdown loops,
``rdcycle`` and ``clflush``; some draws turn speculative execution or
PREFENDER on.  Every program halts by construction: backward edges only
close counted loops whose counters the loop bodies never write.

Three systems run each draw:

* the default config through ``run()``, which runs compiled blocks and
  fuses countdown loops;
* a ``fuse_countdown_loops=False`` twin through ``run()``, which executes
  one instruction per step through the handler table;
* that twin again through ``run_steps`` to completion, the per-step
  min-time scan.

All three must agree on every core's time, on the ``RunResult`` and, by
``tools.state_diff.diff_systems``, on every field of the final state.
Because ``rdcycle`` feeds branches, a block that is off by one cycle
usually changes control flow as well.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from tools.state_diff import diff_systems

from repro.isa.builder import ProgramBuilder
from repro.mem.hierarchy import HierarchyConfig
from repro.sim.config import PrefetcherSpec, SystemConfig
from repro.sim.simulator import build_system

#: Base of the data lines every core shares; each core holds it in r9.
SHARED = 0x40000
LINES = 6
#: Far more instructions than any drawn program executes.
MAX_STEPS = 100_000
#: L1s of 4 sets x 2 ways over an L2 of 16 sets x 4 ways: evictions and
#: back-invalidations are frequent, and the state diffs stay cheap.
SMALL_CACHES = HierarchyConfig(l1d_size=512, l1d_assoc=2, l2_size=4096, l2_assoc=4)

#: Registers the random instructions read and write.  Loop counters
#: (r10-r12), the scaled-load address register (r8), the base (r9) and the
#: sum register (r13) stay out of it, so every loop terminates.
_REGS = ("r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7")
_ALU_OPS = ("add", "sub", "mul", "sll", "srl", "and_", "or_", "xor")
_CONDS = ("beq", "bne", "blt", "bge")
_IMMS = (
    0, 1, -1, 2, 3, 7, 31, 32, 63, 64, 65, 127, 4096, -4096, 1 << 32,
    (1 << 63) - 1, -(1 << 63), (1 << 64) - 1, 1 << 70, -(1 << 70),
)

_reg = st.sampled_from(_REGS)
_imm = st.one_of(st.sampled_from(_IMMS), st.integers(-(1 << 66), 1 << 66))
#: Two 32-byte slots per shared line: loads read what stores wrote.
_slot = st.integers(0, 2 * LINES - 1)
_alu = st.tuples(
    st.just("alu"), st.sampled_from(_ALU_OPS), _reg, _reg, st.one_of(_reg, _imm)
)
_mov = st.tuples(st.just("mov"), _reg, _reg)
_fwd = st.tuples(
    st.just("fwd"), st.sampled_from(_CONDS), _reg, _reg, st.integers(1, 4)
)


def _weighted(*choices: tuple[st.SearchStrategy, int]) -> st.SearchStrategy:
    """``st.one_of`` with integer weights (``one_of`` itself draws each
    distinct strategy equally often, however often it is listed)."""
    pool = [strategy for strategy, weight in choices for _ in range(weight)]
    return st.sampled_from(pool).flatmap(lambda strategy: strategy)


#: A straight-line run of register-only instructions: what blocks compile.
_run = st.tuples(
    st.just("run"),
    st.lists(
        _weighted(
            (_alu, 6),
            (_mov, 2),
            (st.tuples(st.just("li"), _reg, _imm), 1),
            (st.just(("nop",)), 1),
        ),
        min_size=1,
        max_size=4,
    ),
)
_simple = _weighted(
    (_run, 6),
    (st.tuples(st.just("load"), _reg, _slot), 1),
    (st.tuples(st.just("load_via"), _reg, _reg), 1),
    (st.tuples(st.just("store"), _reg, _slot), 1),
    (st.tuples(st.just("scaled"), _reg, _reg, st.sampled_from((8, 64, 192, 4096))), 1),
    (st.tuples(st.just("clflush"), _slot), 1),
    (st.tuples(st.just("rdcycle"), _reg), 1),
    (_fwd, 3),
    (st.tuples(st.just("jmp"), st.integers(0, 3)), 1),
)
_item = _weighted(
    (_simple, 4),
    (
        st.tuples(
            st.just("loop"),
            st.sampled_from(("bne", "blt", "bge", "jmp")),
            st.integers(1, 4),
            st.lists(_simple, min_size=1, max_size=6),
        ),
        1,
    ),
    (st.tuples(st.just("countdown"), st.integers(1, 40)), 1),
)
_program = st.lists(_item, min_size=2, max_size=16)


def _emit_alu(builder: ProgramBuilder, item: tuple) -> None:
    """One register-only instruction, its result then added into r13.

    r13 sums results that later instructions overwrite, so the final state
    still shows each of them (and, by Table III, a trace of its track).
    """
    kind = item[0]
    if kind == "alu":
        _, op, rd, rs0, operand = item
        getattr(builder, op)(rd, rs0, operand)
    elif kind == "li":
        _, rd, imm = item
        builder.li(rd, imm)
    elif kind == "mov":
        _, rd, rs = item
        builder.mov(rd, rs)
    else:
        builder.nop()
        return
    builder.add("r13", "r13", rd)


def _emit_simple(builder: ProgramBuilder, item: tuple) -> str | None:
    """Emit one non-loop item; returns a forward label to place later."""
    kind = item[0]
    if kind == "run":
        for op in item[1]:
            _emit_alu(builder, op)
    elif kind == "load":
        builder.load(item[1], item[2] * 32, "r9")
    elif kind == "load_via":
        # Any address will do; the base register's scale reaches PREFENDER.
        builder.load(item[1], 0, item[2])
    elif kind == "store":
        builder.store(item[1], item[2] * 32, "r9")
    elif kind == "scaled":
        # r8 = r9 + (rs & 7) * scale: a load whose base carries a scale.
        _, rd, rs, scale = item
        builder.and_("r8", rs, 7).mul("r8", "r8", scale).add("r8", "r8", "r9")
        builder.load(rd, 0, "r8")
    elif kind == "clflush":
        builder.clflush(item[1] * 32, "r9")
    elif kind == "rdcycle":
        builder.rdcycle(item[1])
    else:
        label = builder.fresh_label("fwd")
        if kind == "jmp":
            builder.jmp(label)
        else:
            _, cond, rs0, rs1, _ = item
            getattr(builder, cond)(rs0, rs1, label)
        return label
    return None


def _emit_list(builder: ProgramBuilder, items: list) -> None:
    """Emit ``items``; a forward branch skips its next ``n`` items, or to
    the end of the list."""
    pending: dict[int, list[str]] = {}
    for index, item in enumerate(items):
        for label in pending.pop(index, []):
            builder.label(label)
        if item[0] == "loop":
            _emit_loop(builder, *item[1:])
        elif item[0] == "countdown":
            top = builder.fresh_label("count")
            builder.li("r12", item[1]).label(top)
            builder.sub("r12", "r12", 1).bne("r12", "zero", top)
        else:
            label = _emit_simple(builder, item)
            if label is not None:
                pending.setdefault(index + 1 + item[-1], []).append(label)
    for index in sorted(pending):
        for label in pending[index]:
            builder.label(label)


def _emit_loop(builder: ProgramBuilder, close: str, count: int, body: list) -> None:
    """A loop running ``body`` exactly ``count`` times, closed by ``close``."""
    top = builder.fresh_label("loop")
    if close == "blt":
        builder.li("r10", 0).li("r11", count)
    elif close == "bge":
        builder.li("r10", count).li("r11", 1)
    else:
        builder.li("r10", count)
    builder.label(top)
    _emit_list(builder, body)
    if close == "blt":
        builder.add("r10", "r10", 1).blt("r10", "r11", top)
    elif close == "bge":
        builder.sub("r10", "r10", 1).bge("r10", "r11", top)
    elif close == "bne":
        builder.sub("r10", "r10", 1).bne("r10", "zero", top)
    else:
        out = builder.fresh_label("out")
        builder.sub("r10", "r10", 1).beq("r10", "zero", out).jmp(top).label(out)


def _build(items: list, core_id: int):
    builder = ProgramBuilder(f"fuzz{core_id}")
    # Start with registers in every Table III state: fixed values (two of
    # them negative), and loaded (NA) values with scales 1, 24 and 128.
    builder.li("r9", SHARED).li("r5", -7).li("r6", 1 << 40).li("r7", -(1 << 62))
    builder.li("r13", 0)
    builder.load("r1", 8, "r9").load("r2", 72, "r9")
    builder.mul("r3", "r1", 24).sll("r4", "r2", 7)
    _emit_list(builder, items)
    builder.halt()
    # Scrambled words: loaded values carry sign bits and big shift counts.
    words = [(word * 0x9E3779B97F4A7C15 + core_id) % (1 << 64) for word in range(LINES * 8)]
    builder.data(SHARED, words)
    return builder.build()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_blocks_match_the_per_instruction_path(data):
    cores = data.draw(st.integers(1, 3), label="cores")
    programs = [_build(data.draw(_program, label=f"core{i}"), i) for i in range(cores)]
    speculative = data.draw(st.booleans(), label="speculative")
    kind = data.draw(st.sampled_from(("none", "prefender")), label="prefetcher")
    config = SystemConfig(
        hierarchy=SMALL_CACHES,
        num_cores=cores,
        prefetcher=PrefetcherSpec(kind=kind),
        core=replace(SystemConfig().core, speculative_execution=speculative),
    )
    twin = replace(config, core=replace(config.core, fuse_countdown_loops=False))

    blocks = build_system(programs, config)
    interpreted = build_system(programs, twin)
    stepped = build_system(programs, twin)
    result = blocks.run(max_steps=MAX_STEPS)
    reference = interpreted.run(max_steps=MAX_STEPS)
    assert stepped.run_steps(MAX_STEPS) < MAX_STEPS

    times = [core.time for core in blocks.cores]
    assert times == [core.time for core in interpreted.cores]
    assert times == [core.time for core in stepped.cores]
    assert result == reference
    assert stepped.run() == reference  # every core halted: just the result
    assert diff_systems(blocks, interpreted) == []
    assert diff_systems(blocks, stepped) == []
