"""Differential fuzz: compiled blocks against the per-instruction path.

Hypothesis draws random programs for 1, 2 and 3 cores.  Each program mixes
every ALU kind (``r0`` as a destination, negative and huge immediates,
shifts of 63 and more) with loads and stores to shared lines, scaled
loads, loads that stride with a loop counter (inside a loop they train
PREFENDER's Access Tracker, so traces fill), forward branches, ``jmp``,
backward loops, countdown loops, ``rdcycle``, ``fence``, ``clflush``,
``prefetch`` and ``prefetchw``; some draws turn speculative execution, an
OoO load-hiding window or PREFENDER on.  In some draws every core but the last halts right after its prologue,
so the last one runs alone: a lone core runs the lone-core block table,
whose blocks hold memory ops too (``repro.cpu.blocks``), and one-core
draws run it throughout.  Every program halts by construction: backward
edges only close counted loops whose counters the loop bodies never write.

Three systems run each draw:

* the default config through ``run()``, which runs compiled blocks (the
  lone-core table wherever one core runs alone) and fuses countdown loops;
* a ``fuse_countdown_loops=False`` twin through ``run()``, which executes
  one instruction per step through the handler table;
* that twin again, stepped by a naive loop that steps the core with the
  least local time (``min`` keeps the lower index on ties) and uses no
  scheduler of ``System``.

All three must agree on every core's time, on the ``RunResult``, on every
core's prefetch trace (each issued prefetch's cycle, component and block)
and, by ``tools.state_diff.diff_systems``, on every field of the final
state.
Because ``rdcycle`` feeds branches, a block that is off by one cycle
usually changes control flow as well.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from tools.state_diff import diff_systems

from repro.cpu.blocks import compile_blocks, compile_lone_blocks
from repro.isa import assemble
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
_scale = st.sampled_from((8, 64, 192, 4096))
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
    (st.tuples(st.just("scaled"), _reg, _reg, _scale), 1),
    (st.tuples(st.just("strided"), _reg, _scale), 1),
    (st.tuples(st.just("clflush"), _slot), 1),
    (st.tuples(st.just("prefetch"), st.booleans(), _slot), 1),
    (st.tuples(st.just("rdcycle"), _reg), 1),
    (st.just(("fence",)), 1),
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
    elif kind == "strided":
        # r8 = r9 + r10 * scale: in a loop, the address strides with r10.
        _, rd, scale = item
        builder.mul("r8", "r10", scale).add("r8", "r8", "r9")
        builder.load(rd, 0, "r8")
    elif kind == "clflush":
        builder.clflush(item[1] * 32, "r9")
    elif kind == "prefetch":
        _, write, slot = item
        (builder.prefetchw if write else builder.prefetch)(slot * 32, "r9")
    elif kind == "rdcycle":
        builder.rdcycle(item[1])
    elif kind == "fence":
        builder.fence()
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
    # Every core but the last halts after its prologue: the last runs alone.
    lone = data.draw(st.booleans(), label="lone")
    programs = [
        _build([], i) if lone and i < cores - 1
        else _build(data.draw(_program, label=f"core{i}"), i)
        for i in range(cores)
    ]
    speculative = data.draw(st.booleans(), label="speculative")
    hide = data.draw(st.sampled_from((0, 110)), label="load_hide_cycles")
    kind = data.draw(st.sampled_from(("none", "prefender")), label="prefetcher")
    config = SystemConfig(
        hierarchy=SMALL_CACHES,
        num_cores=cores,
        prefetcher=PrefetcherSpec(kind=kind),
        core=replace(
            SystemConfig().core,
            speculative_execution=speculative,
            load_hide_cycles=hide,
        ),
    )
    twin = replace(config, core=replace(config.core, fuse_countdown_loops=False))

    blocks = build_system(programs, config)
    interpreted = build_system(programs, twin)
    stepped = build_system(programs, twin)
    traces = []
    for system in (blocks, interpreted, stepped):
        per_core = [[] for _ in range(cores)]
        for core_id, trace in enumerate(per_core):
            system.hierarchy.attach_trace(core_id, trace)
        traces.append(per_core)
    result = blocks.run(max_steps=MAX_STEPS)
    reference = interpreted.run(max_steps=MAX_STEPS)
    for _ in range(MAX_STEPS):
        active = [core for core in stepped.cores if not core.halted]
        if not active:
            break
        min(active, key=lambda core: core.time).step()
    assert all(core.halted for core in stepped.cores)

    times = [core.time for core in blocks.cores]
    assert times == [core.time for core in interpreted.cores]
    assert times == [core.time for core in stepped.cores]
    assert result == reference
    assert stepped.run() == reference  # every core halted: just the result
    assert traces[0] == traces[1] == traces[2]
    assert diff_systems(blocks, interpreted) == []
    assert diff_systems(blocks, stepped) == []


def test_a_lone_core_runs_memory_ops_inside_blocks():
    """Alone, the core runs everything before ``halt`` as one block: two
    steps, where ``run_steps``, whose blocks end at every memory op, and
    the per-instruction path take six.  All three end the same."""
    program = assemble(
        "li r1, 0x1000\nload r2, 0(r1)\nstore r2, 8(r1)\n"
        "rdcycle r3\nfence\nhalt"
    )
    stepped = build_system([program], SystemConfig())
    assert stepped.run_steps(100) == 6
    twin = replace(SystemConfig().core, fuse_countdown_loops=False)
    interpreted = build_system([program], replace(SystemConfig(), core=twin))
    reference = interpreted.run(max_steps=6)
    lone = build_system([program], SystemConfig())
    assert lone.run(max_steps=2) == reference
    assert stepped.run() == reference
    assert diff_systems(lone, interpreted) == []


def test_lone_table_reuses_register_only_blocks():
    """A lone-core run without a memory op is the register-only block
    itself; only a run that holds one is compiled again."""
    program = assemble(
        "li r1, 3\nloop:\nsub r1, r1, 1\nbne r1, zero, loop\n"
        "li r2, 0x1000\nload r3, 0(r2)\nhalt"
    )
    costs = (program.decoded, 1, 3, 1, 4096)
    registers = dict(compile_blocks(*costs, True))
    lone = dict(compile_lone_blocks(*costs, 0))
    assert sorted(registers) == [0, 1, 3]
    assert sorted(lone) == [0, 1, 3]
    assert lone[0] is registers[0] and lone[1] is registers[1]
    assert lone[3] is not registers[3]
