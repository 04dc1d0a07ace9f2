"""Control-flow graph construction over decoded dispatch tuples.

The CFG is built from :attr:`repro.isa.program.Program.decoded` — the same
tuples the timing core executes — so the analysis sees exactly the control
flow the simulator will, including the ``sub``→``add`` rewrite and
pre-resolved branch targets.

Block boundaries follow the textbook leader rule: instruction 0, every
branch/jmp target, and every instruction after a branch, jmp or halt
starts a block.  Out-of-range targets do *not* contribute an edge (the
analyzer reports them separately); the virtual "exit" is reached by
``halt`` and by falling through the last instruction (the latter is a
finding — the core raises at run time when the PC leaves the program).

:func:`forward` is the one fixpoint solver every forward dataflow pass of
the analyzer runs on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, TypeVar

from repro.isa.decode import K_BRANCH, K_HALT, K_JMP

State = TypeVar("State")

#: Successor index meaning "execution leaves the program" (used for the
#: fall-off-the-end edge; ``halt`` blocks simply have no successors).
EXIT = -1


@dataclass(frozen=True)
class BasicBlock:
    """Half-open instruction range ``[start, end)`` with CFG edges.

    Attributes:
        index: position of the block in program order.
        start: index of the block's first instruction.
        end: one past the block's last instruction.
        successors: indices of successor *blocks* (``EXIT`` for the
            fall-off-the-end pseudo-edge).
    """

    index: int
    start: int
    end: int
    successors: tuple[int, ...]

    def instruction_indices(self) -> range:
        return range(self.start, self.end)


@dataclass(frozen=True)
class ControlFlowGraph:
    """Basic blocks plus derived reachability for one decoded program."""

    blocks: tuple[BasicBlock, ...]
    #: ``block_of[i]`` is the block index containing instruction ``i``.
    block_of: tuple[int, ...]
    #: Blocks reachable from the entry block (block 0), as a sorted tuple.
    reachable: tuple[int, ...]

    def predecessors(self) -> dict[int, tuple[int, ...]]:
        """Predecessor block indices for every block."""
        preds: dict[int, list[int]] = {block.index: [] for block in self.blocks}
        for block in self.blocks:
            for successor in block.successors:
                if successor != EXIT:
                    preds[successor].append(block.index)
        return {index: tuple(pred) for index, pred in preds.items()}


def _terminator_successors(
    decoded: tuple[tuple[Any, ...], ...], last: int
) -> tuple[int, ...]:
    """Instruction-index successors of the instruction at ``last``."""
    tup = decoded[last]
    kind = tup[0]
    n = len(decoded)
    if kind == K_HALT:
        return ()
    if kind == K_JMP:
        target = tup[1]
        return (target,) if isinstance(target, int) and 0 <= target < n else ()
    if kind == K_BRANCH:
        target = tup[4]
        successors: list[int] = []
        if isinstance(target, int) and 0 <= target < n:
            successors.append(target)
        successors.append(last + 1 if last + 1 < n else EXIT)
        return tuple(successors)
    return (last + 1 if last + 1 < n else EXIT,)


def build_cfg(decoded: tuple[tuple[Any, ...], ...]) -> ControlFlowGraph:
    """Partition ``decoded`` into basic blocks and wire the edges.

    An empty program yields an empty graph.  Invalid (out-of-range)
    branch targets contribute no edge; the analyzer's branch-target rule
    reports them.
    """
    n = len(decoded)
    if n == 0:
        return ControlFlowGraph(blocks=(), block_of=(), reachable=())

    leaders = {0}
    for index, tup in enumerate(decoded):
        kind = tup[0]
        if kind in (K_BRANCH, K_JMP, K_HALT):
            if index + 1 < n:
                leaders.add(index + 1)
            target = tup[4] if kind == K_BRANCH else (
                tup[1] if kind == K_JMP else None
            )
            if isinstance(target, int) and 0 <= target < n:
                leaders.add(target)

    starts = sorted(leaders)
    ends = starts[1:] + [n]
    block_of = [0] * n
    for block_index, (start, end) in enumerate(zip(starts, ends)):
        for i in range(start, end):
            block_of[i] = block_index

    blocks: list[BasicBlock] = []
    for block_index, (start, end) in enumerate(zip(starts, ends)):
        instr_successors = _terminator_successors(decoded, end - 1)
        successors = tuple(
            EXIT if s == EXIT else block_of[s] for s in instr_successors
        )
        blocks.append(
            BasicBlock(
                index=block_index, start=start, end=end, successors=successors
            )
        )

    seen = {0}
    frontier = [0]
    while frontier:
        block_index = frontier.pop()
        for successor in blocks[block_index].successors:
            if successor != EXIT and successor not in seen:
                seen.add(successor)
                frontier.append(successor)

    return ControlFlowGraph(
        blocks=tuple(blocks),
        block_of=tuple(block_of),
        reachable=tuple(sorted(seen)),
    )


def forward(
    cfg: ControlFlowGraph,
    entry: State,
    through: Callable[[BasicBlock, State], State],
    join: Callable[[State, State], State],
    successors: Callable[[BasicBlock, State], Iterable[int]] | None = None,
) -> dict[int, State]:
    """In-state of every block reached from block 0, at the fixpoint.

    A FIFO worklist: block 0 starts with ``entry``; visiting a block runs
    ``through(block, in_state)`` to get its out-state, and each successor
    takes that out-state on its first visit and ``join(in_state, out)``
    afterwards, re-queued (unless already queued) whenever its in-state
    changes.  ``successors(block, out)`` replaces ``block.successors``
    when given, so a pass can prune edges it proves infeasible; ``EXIT``
    is skipped.  Blocks never reached are absent from the result.

    One out-state may become the in-state of several successors, so
    ``through`` must not mutate its input and ``join`` must return a new
    object.  The domain must have finite height (or ``join`` must widen)
    for the loop to end.
    """
    if not cfg.blocks:
        return {}
    in_states = {0: entry}
    worklist = [0]
    while worklist:
        block = cfg.blocks[worklist.pop(0)]
        out = through(block, in_states[block.index])
        targets = (
            block.successors if successors is None else successors(block, out)
        )
        for successor in targets:
            if successor == EXIT:
                continue
            existing = in_states.get(successor)
            merged = out if existing is None else join(existing, out)
            if existing is None or merged != existing:
                in_states[successor] = merged
                if successor not in worklist:
                    worklist.append(successor)
    return in_states
