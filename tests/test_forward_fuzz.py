"""Differential fuzz: the analyzer's one dataflow solver against naive iteration.

:func:`repro.analysis.cfg.forward` is a FIFO worklist that joins into a
block's in-state only when a predecessor's out-state changes.  Hypothesis
draws random programs with forward and backward branches, jumps, loops,
loads of a bound cell and early halts, and checks that the worklist's
in-states equal those of a naive round-robin iteration written here: each
round recomputes every in-state anew as the join of the entry
state (block 0 only) and every reached predecessor's out-state, until a
round changes nothing.  The three problems are the analyzer's own:

* constant propagation (``dataflow._transfer``, agree-or-drop meet);
* the leak map's bound constants, with a load of the bound cell yielding
  the secret and a branch on known constants taking one side only
  (``taint._bound_transfer`` and ``taint._feasible_successors``);
* must-defined registers (intersection join), the use-before-def rule's.

All three domains have finite height and monotone transfers, so both
iterations reach the same least fixpoint whatever order the worklist
visits blocks in.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, TypeVar

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cfg import (
    EXIT,
    BasicBlock,
    ControlFlowGraph,
    build_cfg,
    forward,
)
from repro.analysis.dataflow import _meet, _transfer, uses_and_def
from repro.analysis.taint import _bound_transfer, _feasible_successors
from repro.isa import assemble

State = TypeVar("State")

#: The cell a drawn load may read; the bound-constants problem binds it.
CELL = 0x100

_REGS = ("r0", "r1", "r2", "r3", "r4")
_reg = st.sampled_from(_REGS)
#: Few small values, so branches on known constants are often decidable
#: and loops often carry a constant that a later visit drops.
_imm = st.sampled_from((0, 1, 2, 3, CELL))


def _program(length: int) -> st.SearchStrategy[str]:
    """Assembly text of ``length`` instructions, each labelled ``L<i>``."""
    target = st.integers(0, length - 1).map(lambda t: f"L{t}")
    instruction = st.one_of(
        st.builds("li {}, {}".format, _reg, _imm),
        st.builds(
            "{} {}, {}, {}".format,
            st.sampled_from(("add", "sub", "mul", "and", "xor", "sll")),
            _reg,
            _reg,
            st.one_of(_reg, _imm.map(str)),
        ),
        st.builds("mov {}, {}".format, _reg, _reg),
        st.builds("load {}, 0({})".format, _reg, _reg),
        st.builds("rdcycle {}".format, _reg),
        st.builds(
            "{} {}, {}, {}".format,
            st.sampled_from(("beq", "bne", "blt", "bge")),
            _reg,
            _reg,
            target,
        ),
        st.builds("jmp {}".format, target),
        st.just("halt"),
    )
    return st.lists(instruction, min_size=length, max_size=length).map(
        lambda lines: "\n".join(f"L{i}:\n{line}" for i, line in enumerate(lines))
    )


_programs = st.integers(1, 14).flatmap(_program)


def _round_robin(
    cfg: ControlFlowGraph,
    entry: State,
    through: Callable[[BasicBlock, State], State],
    join: Callable[[State, State], State],
    successors: Callable[[BasicBlock, State], Iterable[int]],
) -> dict[int, State]:
    ins: dict[int, State] = {0: entry}
    while True:
        new: dict[int, State] = {0: entry}
        for index in sorted(ins):
            block = cfg.blocks[index]
            out = through(block, ins[index])
            for successor in successors(block, out):
                if successor != EXIT:
                    new[successor] = (
                        join(new[successor], out) if successor in new else out
                    )
        if new == ins:
            return ins
        ins = new


def _constants_through(
    decoded: tuple[tuple[Any, ...], ...],
    transfer: Callable[[dict[int, int], tuple[Any, ...]], None],
) -> Callable[[BasicBlock, dict[int, int]], dict[int, int]]:
    def through(block: BasicBlock, state: dict[int, int]) -> dict[int, int]:
        state = dict(state)
        for i in block.instruction_indices():
            transfer(state, decoded[i])
        return state

    return through


def _all_edges(block: BasicBlock, _state: object) -> tuple[int, ...]:
    return block.successors


@settings(max_examples=400, deadline=None)
@given(source=_programs, secret=st.integers(0, 3))
def test_forward_matches_round_robin(source, secret):
    decoded = tuple(assemble(source).decoded)
    cfg = build_cfg(decoded)

    plain = _constants_through(decoded, _transfer)
    assert forward(cfg, {0: 0}, plain, _meet) == _round_robin(
        cfg, {0: 0}, plain, _meet, _all_edges
    )

    bound = _constants_through(decoded, _bound_transfer({CELL: secret}))

    def feasible(block: BasicBlock, state: dict[int, int]) -> tuple[int, ...]:
        return _feasible_successors(decoded, cfg, block, state)

    assert forward(cfg, {0: 0}, bound, _meet, feasible) == _round_robin(
        cfg, {0: 0}, bound, _meet, feasible
    )

    def defines(block: BasicBlock, defined: frozenset[int]) -> frozenset[int]:
        written = (uses_and_def(decoded[i])[1] for i in block.instruction_indices())
        return defined | {register for register in written if register is not None}

    def intersect(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
        return a & b

    entry = frozenset({0})
    assert forward(cfg, entry, defines, intersect) == _round_robin(
        cfg, entry, defines, intersect, _all_edges
    )
