"""Compiled basic blocks: one scheduler step per straight-line ALU run.

Most instructions a workload executes touch nothing but the core's own
registers and calculation buffer.  Interpreting them one ``Core.step`` at a
time costs a step call, a handler call and a retire call each.  This module
compiles, at every basic-block leader, the maximal run of such instructions
into one generated Python function, so a whole run costs one step.

* **Block kinds** are the register-only decode kinds (:data:`BLOCK_KINDS`):
  ``li``, ``mov``, ``nop`` and the add/sub/mul/sll/srl/and/or/xor kinds in
  RR and RI form.  Memory ops, ``rdcycle``, ``fence`` and ``halt`` are never
  in a block: a memory op must stay its own scheduler step so no other
  core's access can be reordered around it, and ``rdcycle``/``fence`` read or
  set the serialisation flag.
* **Leaders** are index 0, every branch or ``jmp`` target, and every index
  right after a non-block instruction.  A run that falls off the end of the
  program is not compiled.
* **Closing branch.**  With ``with_branch`` (a core without speculative
  execution) the block also runs the ``beq``/``bne``/``blt``/``bge`` or
  ``jmp`` right after its run.  A taken branch that jumps back by one calls
  :meth:`repro.cpu.core.Core._fuse_countdown`, so the countdown-loop closed
  form stays in one place.
* **Body.**  Each instruction's register update and Table III track update
  are inlined in the statement order of the matching ``Core._op_*`` handler
  (which matters when ``rd`` aliases a source).  The block then advances
  ``time`` once by the summed base, mul and branch costs, counts its retired
  instructions (and the branch) once, and stores the next ``pc_index``.

A block holds only core-local work, so the order of memory events across
cores, and with it every cycle and counter, is the same as the
per-instruction path's.  ``tests/test_block_fuzz.py`` checks that on random
multi-core programs.

The generated functions hold no state: the core, its register values and
its tracks arrive as arguments, and decode-tuple fields are the only values
written into their source, each checked to be an ``int``.  One compiled
table can therefore serve every core that runs the same decoded program
under the same costs, and :func:`compile_blocks` keeps a bounded LRU of
them per process: jobs rebuild their programs, but few are distinct.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable

from repro.isa.decode import (
    K_ADD_RI,
    K_ADD_RR,
    K_AND_RI,
    K_AND_RR,
    K_BRANCH,
    K_JMP,
    K_LI,
    K_MOV,
    K_MUL_RI,
    K_MUL_RR,
    K_NOP,
    K_OR_RI,
    K_OR_RR,
    K_SLL_RI,
    K_SLL_RR,
    K_SRL_RI,
    K_SRL_RR,
    K_SUB_RR,
    K_XOR_RI,
    K_XOR_RR,
)
from repro.isa.registers import SIGN_BIT, WORD_MASK

#: ``block(core, values, tracks)``: runs one compiled block on ``core``,
#: whose register values and calculation-buffer tracks are passed in.
Block = Callable[[Any, list[int], list[Any]], None]

#: Decode kinds that touch only the core's registers and calculation buffer.
BLOCK_KINDS = frozenset(
    {
        K_LI,
        K_MOV,
        K_NOP,
        K_ADD_RR,
        K_SUB_RR,
        K_ADD_RI,
        K_MUL_RR,
        K_MUL_RI,
        K_SLL_RR,
        K_SRL_RR,
        K_SLL_RI,
        K_SRL_RI,
        K_AND_RR,
        K_OR_RR,
        K_XOR_RR,
        K_AND_RI,
        K_OR_RI,
        K_XOR_RI,
    }
)

#: Compiled block tables kept per process, one per distinct
#: (decoded program, costs, scale cap, closing-branch mode).
CACHE_SIZE = 64

_M = str(WORD_MASK)

_RR_VALUE = {
    K_ADD_RR: "({a} + {b}) & " + _M,
    K_SUB_RR: "({a} - {b}) & " + _M,
    K_MUL_RR: "({a} * {b}) & " + _M,
    K_AND_RR: "{a} & {b}",
    K_OR_RR: "{a} | {b}",
    K_XOR_RR: "{a} ^ {b}",
}

_RI_LOGIC = {K_AND_RI: "&", K_OR_RI: "|", K_XOR_RI: "^"}

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


def _clamped(target: str, expr: str, cap: int) -> list[str]:
    """``target = Core._clamp_sc(expr)``: abs, at least 1, at most ``cap``."""
    return [
        f"sc = {expr}",
        "if sc < 0: sc = -sc",
        f"{target} = 1 if sc < 1 else (sc if sc <= {cap} else {cap})",
    ]


def _track_lines(d: tuple[int, ...], cap: int) -> list[str]:
    """The Table III update of one instruction, as ``Core._op_*`` does it."""
    kind = d[0]
    if kind == K_NOP:
        return []
    rd = d[1]
    if kind == K_LI:
        imm = _lit(d[2])
        return [f"t = tracks[{rd}]", f"t.fva = {imm}", "t.sc = 1"]
    if kind in _RI_LOGIC or kind in (K_AND_RR, K_OR_RR, K_XOR_RR):
        return [f"t = tracks[{rd}]", "t.fva = None", "t.sc = 1"]
    rs0 = d[2]
    if kind == K_MOV:
        return [
            f"s = tracks[{rs0}]",
            f"t = tracks[{rd}]",
            "if s.fva is None:",
            "    t.fva = None",
            "    t.sc = s.sc",
            "else:",
            "    t.fva = s.fva",
            "    t.sc = 1",
        ]
    if kind in (K_ADD_RI, K_MUL_RI, K_SLL_RI, K_SRL_RI):
        imm = _lit(d[3])
        op = {K_ADD_RI: "+", K_MUL_RI: "*", K_SLL_RI: "<<", K_SRL_RI: ">>"}[kind]
        lines = [f"s = tracks[{rs0}]", f"t = tracks[{rd}]", "if s.fva is None:"]
        lines.append("    t.fva = None")
        if kind == K_ADD_RI:
            # Adding an immediate offset does not change the scale.
            lines.append("    t.sc = s.sc")
        else:
            lines += ["    " + line for line in _clamped("t.sc", f"s.sc {op} {imm}", cap)]
        lines += ["else:", f"    t.fva = (s.fva {op} {imm}) & {_M}", "    t.sc = 1"]
        return lines
    rs1 = d[3]
    lines = [
        f"s = tracks[{rs0}]",
        f"o = tracks[{rs1}]",
        f"t = tracks[{rd}]",
        "sf = s.fva",
        "of = o.fva",
    ]
    if kind in (K_ADD_RR, K_SUB_RR):
        op = "+" if kind == K_ADD_RR else "-"
        return lines + [
            "if sf is not None and of is not None:",
            f"    t.fva = (sf {op} of) & {_M}",
            "    t.sc = 1",
            "elif sf is None and of is not None:",
            "    t.fva = None",
            "    t.sc = s.sc",
            "elif sf is not None:",
            "    t.fva = None",
            "    t.sc = o.sc",
            "else:",
            "    t.fva = None",
            "    ssc = s.sc",
            "    osc = o.sc",
            "    t.sc = ssc if ssc < osc else osc",
        ]
    if kind == K_MUL_RR:
        lines += [
            "if sf is not None and of is not None:",
            f"    t.fva = (sf * of) & {_M}",
            "    t.sc = 1",
            "elif sf is None and of is not None:",
            "    t.fva = None",
        ]
        lines += ["    " + line for line in _clamped("t.sc", "s.sc * of", cap)]
        lines += ["elif sf is not None:", "    t.fva = None"]
        lines += ["    " + line for line in _clamped("t.sc", "sf * o.sc", cap)]
        lines += ["else:", "    t.fva = None"]
        lines += ["    " + line for line in _clamped("t.sc", "s.sc * o.sc", cap)]
        return lines
    # sll/srl by a register; a shift by an unknown amount reinitialises.
    op = "<<" if kind == K_SLL_RR else ">>"
    lines += [
        "if sf is not None and of is not None:",
        f"    t.fva = (sf {op} (of & 0x3F)) & {_M}",
        "    t.sc = 1",
        "elif sf is None and of is not None:",
        "    t.fva = None",
    ]
    lines += ["    " + line for line in _clamped("t.sc", f"s.sc {op} (of & 0x3F)", cap)]
    lines += ["else:", "    t.fva = None", "    t.sc = 1"]
    return lines


def _value_line(d: tuple[int, ...]) -> str | None:
    """The register write of one instruction (``None`` when it has none)."""
    kind = d[0]
    if kind == K_NOP or d[1] == 0:
        return None  # r0 discards writes; its track still updates
    rd = d[1]
    if kind == K_LI:
        return f"values[{rd}] = {_lit(d[2])}"
    a = f"values[{d[2]}]"
    if kind == K_MOV:
        return f"values[{rd}] = {a}"
    if kind in _RR_VALUE:
        return f"values[{rd}] = " + _RR_VALUE[kind].format(a=a, b=f"values[{d[3]}]")
    if kind == K_SLL_RR:
        return f"values[{rd}] = ({a} << (values[{d[3]}] & 0x3F)) & {_M}"
    if kind == K_SRL_RR:
        return f"values[{rd}] = {a} >> (values[{d[3]}] & 0x3F)"
    imm = _lit(d[3])
    if kind == K_ADD_RI:
        return f"values[{rd}] = ({a} + {imm}) & {_M}"
    if kind == K_MUL_RI:
        return f"values[{rd}] = ({a} * {imm}) & {_M}"
    if kind == K_SLL_RI:
        return f"values[{rd}] = ({a} << {imm}) & {_M}"
    if kind == K_SRL_RI:
        return f"values[{rd}] = {a} >> {imm}"
    return f"values[{rd}] = {a} {_RI_LOGIC[kind]} {imm}"


def _block_source(
    decoded: tuple[tuple[Any, ...], ...],
    start: int,
    end: int,
    closer: tuple[int, ...] | None,
    costs: tuple[int, int, int],
    cap: int,
) -> str:
    """Source of ``block(core, values, tracks)`` for ``decoded[start:end]``
    plus, when given, the closing branch at ``end``."""
    base_cost, mul_cost, branch_cost = costs
    body: list[str] = []
    cycles = 0
    for d in decoded[start:end]:
        value = _value_line(d)
        if value is not None:
            body.append(value)
        body += _track_lines(d, cap)
        cycles += mul_cost if d[0] in (K_MUL_RR, K_MUL_RI) else base_cost
    retired = end - start
    if closer is not None:
        cycles += branch_cost
        retired += 1
    body += [f"core.time += {cycles}", "stats = core.stats"]
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


@lru_cache(maxsize=CACHE_SIZE)
def compile_blocks(
    decoded: tuple[tuple[Any, ...], ...],
    base_cost: int,
    mul_cost: int,
    branch_cost: int,
    scale_cap: int,
    with_branch: bool,
) -> tuple[tuple[int, Block], ...]:
    """``(leader index, block)`` for every compilable leader of ``decoded``.

    Each block is compiled on its own, which keeps the compiler's peak
    memory at one block's worth however long the program is.
    """
    costs = (base_cost, mul_cost, branch_cost)
    if not _plain_ints(costs + (scale_cap,)):
        return ()
    length = len(decoded)
    leaders = {0}
    for index, d in enumerate(decoded):
        if d[0] not in BLOCK_KINDS:
            leaders.add(index + 1)
        if d[0] in (K_BRANCH, K_JMP):
            target = d[-1]
            if type(target) is int and 0 <= target < length:
                leaders.add(target)
    blocks: list[tuple[int, Block]] = []
    for start in sorted(leaders):
        end = start
        while end < length and decoded[end][0] in BLOCK_KINDS:
            end += 1
        if end == start or end == length:
            continue  # no run, or a run that falls off the program
        closer = decoded[end] if with_branch else None
        if closer is not None and closer[0] not in (K_BRANCH, K_JMP):
            closer = None
        if not all(_plain_ints(d) for d in decoded[start:end]):
            continue
        if closer is not None and not _plain_ints(closer):
            closer = None
        source = _block_source(decoded, start, end, closer, costs, scale_cap)
        # The generated function sees no builtins: it needs none.
        namespace: dict[str, Any] = {"__builtins__": {}}
        exec(compile(source, f"<block {start}-{end}>", "exec"), namespace)
        blocks.append((start, namespace.pop("block")))
    return tuple(blocks)
