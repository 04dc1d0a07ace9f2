"""Compiled basic blocks: one scheduler step per straight-line ALU run.

Most instructions a workload executes touch nothing but the core's own
registers and calculation buffer.  Interpreting them one ``Core.step`` at a
time costs a step call and a handler call each.  This module
compiles, at every basic-block leader, the maximal run of such instructions
into one generated Python function, so a whole run costs one step.

* **Block kinds** (:data:`BLOCK_KINDS`) are ``nop`` and the register-only
  kinds of :mod:`repro.cpu.alu`: ``li``, ``mov`` and the
  add/sub/mul/sll/srl/and/or/xor kinds in RR and RI form.  Memory ops,
  ``rdcycle``, ``fence`` and ``halt`` are never in a block: a memory op
  must stay its own scheduler step so no other core's access can be
  reordered around it, and ``rdcycle``/``fence`` read or set the
  serialisation flag.
* **Leaders** are index 0, every branch or ``jmp`` target, and every index
  right after a non-block instruction.  A run that falls off the end of the
  program is not compiled.
* **Closing branch.**  With ``with_branch`` (a core without speculative
  execution) the block also runs the ``beq``/``bne``/``blt``/``bge`` or
  ``jmp`` right after its run.  A taken branch that jumps back by one calls
  :meth:`repro.cpu.core.Core._fuse_countdown`, so the countdown-loop closed
  form stays in one place.
* **Body.**  Each instruction's register write and Table III track update
  are inlined as :func:`repro.cpu.alu.write` returns them, the same lines
  the core's per-instruction handler for that kind runs; an instruction
  that writes ``r0`` inlines nothing.  The block then advances ``time``
  once by the summed base, mul and branch costs, counts its retired
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

from repro.cpu.alu import MUL_KINDS, OPS_BY_KIND, define, write
from repro.isa.decode import K_BRANCH, K_JMP, K_NOP
from repro.isa.registers import SIGN_BIT

#: ``block(core, values, tracks)``: runs one compiled block on ``core``,
#: whose register values and calculation-buffer tracks are passed in.
Block = Callable[[Any, list[int], list[Any]], None]

#: Decode kinds that touch only the core's registers and calculation buffer.
BLOCK_KINDS = frozenset({K_NOP, *OPS_BY_KIND})

#: Compiled block tables kept per process, one per distinct
#: (decoded program, costs, scale cap, closing-branch mode).
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
        kind = d[0]
        if kind != K_NOP and d[1] != 0:  # r0 is never written
            operands = [_lit(field) for field in d[2:]]
            body += write(OPS_BY_KIND[kind], str(d[1]), operands, str(cap))
        cycles += mul_cost if kind in MUL_KINDS else base_cost
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
        blocks.append((start, define(source, "block", f"<block {start}-{end}>")))
    return tuple(blocks)
