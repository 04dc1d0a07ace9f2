"""Compiled basic blocks: one scheduler step per straight-line run.

Most instructions a workload executes touch nothing but the core's own
registers and calculation buffer.  Interpreting them one ``Core.step`` at a
time costs a step call and a handler call each.  This module compiles, at
every basic-block leader, the maximal run of such instructions into one
generated Python function, so a whole run costs one step.  Each program
has two tables:

* **The register-only table** (:func:`compile_blocks`), used wherever
  another core can interleave.  Its block kinds (:data:`BLOCK_KINDS`) are
  ``nop`` and the register-only kinds of :mod:`repro.cpu.alu`: ``li``,
  ``mov`` and the add/sub/mul/sll/srl/and/or/xor kinds in RR and RI form.
  Memory ops, ``rdcycle``, ``fence`` and ``halt`` are never in one of
  these blocks: a memory op stays its own scheduler step, so no other
  core's access can be reordered around it and a stop point before a load
  is exact.  Leaders are index 0, every branch or ``jmp`` target, and every
  index right after a non-block instruction.
* **The lone-core table** (:func:`compile_lone_blocks`), used only by
  :meth:`System._run_single <repro.cpu.system.System._run_single>`, where
  one core runs with no other to interleave and no stop point armed.  Its
  blocks also hold ``load``, ``store``, ``clflush``, ``prefetch``/
  ``prefetchw``, ``rdcycle`` and ``fence`` (:data:`LONE_KINDS`), so a run
  ends only at ``halt``, a branch or a ``jmp``.  Leaders are index 0, every
  branch or ``jmp`` target and every index right after one of those three.
  A leader whose run holds no memory op, ``rdcycle`` or ``fence`` reuses
  the register-only block, which is the same function.  The table is built
  only for a core without speculative execution, the first time it runs
  alone.

In both tables a run that falls off the end of the program is not
compiled, and:

* **Closing branch.**  With ``with_branch`` (a core without speculative
  execution) the block also runs the ``beq``/``bne``/``blt``/``bge`` or
  ``jmp`` right after its run.  A taken branch that jumps back by one calls
  :meth:`repro.cpu.core.Core._fuse_countdown`, so the countdown-loop closed
  form stays in one place.
* **Body.**  Each register-only instruction's register write and Table III
  track update are inlined as :func:`repro.cpu.alu.write` returns them, the
  same lines the core's per-instruction handler for that kind runs; an
  instruction that writes ``r0`` inlines nothing.  Costs accumulate at
  compile time.  Before a memory op or ``rdcycle`` reads the clock, the
  block adds the cost of every earlier instruction to it, then runs the
  op's non-speculative path as the core's handler does: the same
  hierarchy call with the same arguments, the same counters and the same
  load charge.  At its end the block adds the remaining cost, counts its
  retired instructions (and the branch) once, and stores the next
  ``pc_index``.

A block changes nothing another core or the hierarchy can see except
through the hierarchy calls it makes, in program order and at the same
times, so every cycle and counter is the same as the per-instruction
path's.  ``tests/test_block_fuzz.py`` checks that on random multi-core
programs, including draws where one core is left to run alone.

The generated functions hold no state: the core, its register values and
its tracks arrive as arguments, and decode-tuple fields are the only values
written into their source, each checked to be an ``int`` (or, for a
prefetch's write flag, a ``bool``).  One compiled table can therefore serve
every core that runs the same decoded program under the same costs, and
each compiler keeps a bounded LRU of tables per process: jobs rebuild their
programs, but few are distinct.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable

from repro.cpu.alu import MUL_KINDS, OPS_BY_KIND, define, write
from repro.isa.decode import (
    K_BRANCH,
    K_CLFLUSH,
    K_FENCE,
    K_JMP,
    K_LOAD,
    K_NOP,
    K_PREFETCH,
    K_RDCYCLE,
    K_STORE,
)
from repro.isa.registers import SIGN_BIT, WORD_MASK

#: ``block(core, values, tracks)``: runs one compiled block on ``core``,
#: whose register values and calculation-buffer tracks are passed in.
Block = Callable[[Any, list[int], list[Any]], None]

#: Decode kinds that touch only the core's registers and calculation buffer.
BLOCK_KINDS = frozenset({K_NOP, *OPS_BY_KIND})

#: Decode kinds a lone-core block may hold: the register-only kinds, the
#: memory ops, and the two serialising kinds.
LONE_KINDS = BLOCK_KINDS | {K_LOAD, K_STORE, K_CLFLUSH, K_PREFETCH, K_RDCYCLE, K_FENCE}

#: Block tables each compiler keeps per process, one per distinct
#: (decoded program, costs, scale cap, closing-branch mode[, load hide]).
CACHE_SIZE = 64

#: Branch conditions over unsigned 64-bit register values.  Flipping the
#: sign bit maps two's-complement order onto unsigned order, so blt/bge
#: compare ``a ^ SIGN_BIT`` with ``b ^ SIGN_BIT``.
_CONDITIONS = {
    0: "{a} == {b}",
    1: "{a} != {b}",
    2: f"({{a}} ^ {SIGN_BIT}) < ({{b}} ^ {SIGN_BIT})",
    3: f"({{a}} ^ {SIGN_BIT}) >= ({{b}} ^ {SIGN_BIT})",
}

#: Bound on every int written into generated source.  An instruction with
#: a larger immediate stays on the per-instruction path, where it runs the
#: same; ``repr`` of a huge int can raise, and would bloat the source.
_INT_BOUND = 1 << 128


def _lit(value: int) -> str:
    return repr(value) if value >= 0 else f"({value!r})"


def _address(rs: int, imm: int) -> str:
    """Source of the effective address ``values[rs] + imm``, masked (a
    register value is already a 64-bit word)."""
    if imm == 0:
        return f"values[{rs}]"
    return f"(values[{rs}] + {_lit(imm)}) & {WORD_MASK}"


def _charge(hide: int, base_cost: int) -> list[str]:
    """Lines that add a load's charged latency (in ``latency``) to ``now``:
    :meth:`repro.cpu.core.Core._op_load`'s charge.  A serialised load pays
    everything and clears the flag; an OoO window hides up to ``hide``."""
    if hide <= 0:
        return ["core._serialized = False", "now += latency"]
    return [
        "if core._serialized:",
        "    core._serialized = False",
        "    now += latency",
        "else:",
        f"    latency -= {hide}",
        f"    now += latency if latency > {base_cost} else {base_cost}",
    ]


def _unknown(rd: int) -> list[str]:
    """Write-back of an unknown value's track (Table III's NA, scale 1)."""
    return [f"t = tracks[{rd}]", "t.fva = None", "t.sc = 1"]


def _timed_lines(d: tuple[Any, ...], hide: int, base_cost: int) -> list[str]:
    """One memory op or serialising instruction, on a core that is not
    speculating, with ``now`` holding the clock at its issue.  Memory ops
    add their own latency to ``now``; ``rdcycle`` and ``fence`` leave their
    base cost to the caller."""
    kind = d[0]
    if kind == K_LOAD:
        _, rd, rs0, imm, pc = d
        lines = [
            f"outcome = hierarchy.load(cid, {_address(rs0, imm)}, "
            f"now, {pc}, tracks[{rs0}].sc, False)"
        ]
        if rd:
            lines += [f"values[{rd}] = outcome.value & {WORD_MASK}", *_unknown(rd)]
        return lines + [
            "latency = outcome.latency",
            "stats.loads += 1",
            "stats.load_latency_total += latency",
            *_charge(hide, base_cost),
        ]
    if kind == K_STORE:
        _, rs0, rs1, imm, pc = d
        return [
            f"now += hierarchy.store(cid, {_address(rs1, imm)}, "
            f"values[{rs0}], now, {pc})",
            "stats.stores += 1",
        ]
    if kind == K_CLFLUSH:
        _, rs0, imm = d
        return [
            f"now += hierarchy.flush(cid, {_address(rs0, imm)}, now)",
            "stats.flushes += 1",
        ]
    if kind == K_PREFETCH:
        _, rs0, imm, write_flag = d
        return [
            f"latency = hierarchy.software_prefetch(cid, "
            f"{_address(rs0, imm)}, now, {write_flag!r}).latency",
            "stats.software_prefetches += 1",
            *_charge(hide, base_cost),
        ]
    if kind == K_RDCYCLE:
        rd = d[1]
        lines = (
            [f"values[{rd}] = now & {WORD_MASK}", *_unknown(rd)] if rd else []
        )
        return lines + ["core._serialized = True"]
    return ["core._serialized = True"]  # K_FENCE


def _block_source(
    decoded: tuple[tuple[Any, ...], ...],
    start: int,
    end: int,
    closer: tuple[int, ...] | None,
    costs: tuple[int, int, int],
    cap: int,
    hide: int,
) -> str:
    """Source of ``block(core, values, tracks)`` for ``decoded[start:end]``
    plus, when given, the closing branch at ``end``."""
    base_cost, mul_cost, branch_cost = costs
    body: list[str] = []
    pending = 0  # cycles not yet added to the clock
    timed = False  # whether the local ``now`` holds the clock
    for d in decoded[start:end]:
        kind = d[0]
        if kind in BLOCK_KINDS:
            if kind != K_NOP and d[1] != 0:  # r0 is never written
                operands = [_lit(field) for field in d[2:]]
                body += write(OPS_BY_KIND[kind], str(d[1]), operands, str(cap))
            pending += mul_cost if kind in MUL_KINDS else base_cost
            continue
        if not timed:
            body += [
                "now = core.time",
                "stats = core.stats",
                "hierarchy = core.hierarchy",
                "cid = core.core_id",
            ]
            timed = True
        if pending:
            body.append(f"now += {pending}")
        body += _timed_lines(d, hide, base_cost)
        pending = base_cost if kind in (K_RDCYCLE, K_FENCE) else 0
    retired = end - start
    if closer is not None:
        pending += branch_cost
        retired += 1
    if timed:
        body.append(f"core.time = now + {pending}" if pending else "core.time = now")
    else:
        body += [f"core.time += {pending}", "stats = core.stats"]
    body.append(f"stats.instructions_retired += {retired}")
    if closer is None:
        body.append(f"core.pc_index = {end}")
    elif closer[0] == K_JMP:
        body.append(f"core.pc_index = {closer[1]}")
    else:
        _, cond, rs0, rs1, target = closer
        test = _CONDITIONS[cond].format(a=f"values[{rs0}]", b=f"values[{rs1}]")
        body += ["stats.branches += 1", f"if {test}:", f"    core.pc_index = {target}"]
        if target == end - 1:
            body.append(f"    core._fuse_countdown({end}, {cond}, {rs0}, {rs1})")
        body += ["else:", f"    core.pc_index = {end + 1}"]
    return "def block(core, values, tracks):\n" + "".join(
        f"    {line}\n" for line in body
    )


def _plain_ints(values: tuple[Any, ...]) -> bool:
    """Whether every value may be written into generated source."""
    return all(
        type(value) is int and -_INT_BOUND < value < _INT_BOUND for value in values
    )


def _plain(d: tuple[Any, ...]) -> bool:
    """Whether decode tuple ``d`` may be written into generated source."""
    if d[0] == K_PREFETCH:
        return _plain_ints(d[:3]) and type(d[3]) is bool
    return _plain_ints(d)


def _compile(
    decoded: tuple[tuple[Any, ...], ...],
    costs: tuple[int, int, int],
    scale_cap: int,
    with_branch: bool,
    kinds: frozenset[int],
    hide: int,
    reuse: dict[int, Block],
) -> tuple[tuple[int, Block], ...]:
    """``(leader index, block)`` for every leader of ``decoded`` whose run
    of ``kinds`` is non-empty and compilable.  A run of register-only kinds
    alone takes its block from ``reuse`` when one is there."""
    length = len(decoded)
    leaders = {0}
    for index, d in enumerate(decoded):
        if d[0] not in kinds:
            leaders.add(index + 1)
        if d[0] in (K_BRANCH, K_JMP):
            target = d[-1]
            if type(target) is int and 0 <= target < length:
                leaders.add(target)
    blocks: list[tuple[int, Block]] = []
    for start in sorted(leaders):
        end = start
        while end < length and decoded[end][0] in kinds:
            end += 1
        if end == start or end == length:
            continue  # no run, or a run that falls off the program
        if start in reuse and all(
            d[0] in BLOCK_KINDS for d in decoded[start:end]
        ):
            blocks.append((start, reuse[start]))
            continue
        closer = decoded[end] if with_branch else None
        if closer is not None and closer[0] not in (K_BRANCH, K_JMP):
            closer = None
        if not all(_plain(d) for d in decoded[start:end]):
            continue
        if closer is not None and not _plain_ints(closer):
            closer = None
        source = _block_source(decoded, start, end, closer, costs, scale_cap, hide)
        blocks.append((start, define(source, "block", f"<block {start}-{end}>")))
    return tuple(blocks)


@lru_cache(maxsize=CACHE_SIZE)
def compile_blocks(
    decoded: tuple[tuple[Any, ...], ...],
    base_cost: int,
    mul_cost: int,
    branch_cost: int,
    scale_cap: int,
    with_branch: bool,
) -> tuple[tuple[int, Block], ...]:
    """``(leader index, block)`` for every register-only run of ``decoded``.

    Each block is compiled on its own, which keeps the compiler's peak
    memory at one block's worth however long the program is.
    """
    costs = (base_cost, mul_cost, branch_cost)
    if not _plain_ints(costs + (scale_cap,)):
        return ()
    return _compile(decoded, costs, scale_cap, with_branch, BLOCK_KINDS, 0, {})


@lru_cache(maxsize=CACHE_SIZE)
def compile_lone_blocks(
    decoded: tuple[tuple[Any, ...], ...],
    base_cost: int,
    mul_cost: int,
    branch_cost: int,
    scale_cap: int,
    load_hide: int,
) -> tuple[tuple[int, Block], ...]:
    """``(leader index, block)`` for every lone-core run of ``decoded``, on
    a core without speculative execution whose loads hide up to
    ``load_hide`` cycles.  A run without memory ops, ``rdcycle`` or
    ``fence`` is the register-only table's block itself."""
    costs = (base_cost, mul_cost, branch_cost)
    if not _plain_ints(costs + (scale_cap, load_hide)):
        return ()
    reuse = dict(
        compile_blocks(decoded, base_cost, mul_cost, branch_cost, scale_cap, True)
    )
    return _compile(decoded, costs, scale_cap, True, LONE_KINDS, load_hide, reuse)
