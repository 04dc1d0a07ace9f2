"""An in-order timing core with optional speculative execution.

Every instruction executes functionally and advances the core's local clock
by its cost; loads/stores pay the memory hierarchy's latency.  The core
maintains the PREFENDER calculation buffer (paper Table III) at execute
stage and threads each load's base-register *scale* into the hierarchy so
the Scale Tracker can see it.

Execution dispatches through the program's pre-decoded tuples
(:mod:`repro.isa.decode`, built once at ``Program.finalize()``): ``step``
indexes a handler table with the tuple's kind integer instead of walking an
``if op == "load"`` string chain.  The handlers of the register-only kinds
(``li``, ``mov`` and the ALU kinds) are generated from their one
definition in :mod:`repro.cpu.alu`, which gives each kind's value and
Table III calculation-buffer rule; the memory, control and serialising
handlers are methods here.  ``r0`` is hard-wired zero and its track is the
constant (fva 0, sc 1): no handler writes either.
``tests/test_golden_parity.py`` pins this dispatch engine cycle- and
counter-exact against the pre-overhaul interpreter, and
``tests/test_calc_reference.py`` fuzzes registers and tracks against an
independent Table III reference.

One ``step`` is one scheduler step: a whole compiled block, one
instruction, or one squash.  With ``CoreConfig.fuse_countdown_loops`` on and
the core not speculating, a step at a basic-block leader runs the
straight-line run of register-only instructions there (and, on a core
without speculative execution, its closing branch) as one generated
function from :mod:`repro.cpu.blocks`.  Every other step runs one
instruction through the handler table; ``tests/test_block_fuzz.py``
checks that blocks and the table agree on every cycle and counter.

Speculative execution (``CoreConfig.speculative_execution``) models the
Spectre-v1 substrate: conditional branches are predicted by a 2-bit counter
table and resolve ``resolve_delay`` cycles after issue.  On a misprediction
the core *follows the predicted (wrong) path*: transient loads access the
cache hierarchy for real (this is the leak), transient stores are buffered
and dropped, and at resolve time the architectural state rolls back while
cache state — and the calculation buffer, which is microarchitectural —
persists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.calc import CalculationBuffer
from repro.cpu.alu import MUL_KINDS, REGISTER_OPS, RegisterOp, define, write
from repro.cpu.blocks import Block, compile_blocks
from repro.errors import ExecutionError
from repro.isa.decode import (
    K_ADD_RI,
    K_BRANCH,
    K_CLFLUSH,
    K_FENCE,
    K_HALT,
    K_JMP,
    K_LOAD,
    K_NOP,
    K_PREFETCH,
    K_RDCYCLE,
    K_STORE,
    NUM_KINDS,
)
from repro.isa.program import Program
from repro.isa.registers import SIGN_BIT, WORD_MASK, RegisterFile
from repro.mem.hierarchy import MemoryHierarchy
from repro.snapshot import require_keys

_TWO_POW_64 = 1 << 64


@dataclass(frozen=True)
class CoreConfig:
    """Per-core timing and speculation parameters."""

    base_cost: int = 1
    mul_cost: int = 3
    branch_cost: int = 1
    # Cycles of load latency an out-of-order window can hide (ROB depth x
    # issue rate).  0 = fully blocking in-order core.  The exposed stall is
    # ``max(base_cost, latency - load_hide_cycles)``: L2 hits vanish, DRAM
    # misses keep a tail — the standard analytical OoO stall model.  Loads
    # that immediately follow a serialising instruction (rdcycle/fence)
    # always pay the full latency — a timed load cannot be overlapped,
    # which is exactly why attackers serialise their measurements.
    load_hide_cycles: int = 0
    # The one switch for both kinds of fusion, each cycle- and
    # counter-exact.  Pure `sub rX,rX,1; bne rX,zero,back` countdown loops
    # collapse into one scheduler step with the closed-form state delta
    # (busy-wait delay loops dominate attack instruction counts).  And each
    # straight-line run of register-only instructions, with its closing
    # branch, runs as one compiled block (cpu/blocks.py; most Table IV
    # instructions are such runs).  tests/test_golden_parity.py, the
    # fuse-on/off tests in tests/test_snapshot_parity.py and
    # tests/test_block_fuzz.py pin the equivalence.
    fuse_countdown_loops: bool = True
    speculative_execution: bool = False
    resolve_delay: int = 60
    branch_miss_penalty: int = 8
    predictor_entries: int = 512
    spec_window: int = 48


@dataclass
class CoreStats:
    """Execution counters for one core."""

    instructions_retired: int = 0
    transient_executed: int = 0
    loads: int = 0
    stores: int = 0
    flushes: int = 0
    software_prefetches: int = 0
    branches: int = 0
    mispredictions: int = 0
    squashes: int = 0
    load_latency_total: int = 0


_CORE_STATS_FIELDS = tuple(CoreStats.__dataclass_fields__)
_CORE_SNAP_KEYS = (
    "regs",
    "tracks",
    "pc_index",
    "time",
    "halted",
    "stats",
    "speculating",
    "checkpoint_regs",
    "correct_index",
    "resolve_time",
    "spec_count",
    "store_buffer",
    "predictor",
    "serialized",
)


class Core:
    """One in-order core bound to a program and a memory hierarchy."""

    def __init__(
        self,
        core_id: int,
        program: Program,
        hierarchy: MemoryHierarchy,
        config: CoreConfig | None = None,
        start_time: int = 0,
    ) -> None:
        if not program.finalized:
            program.finalize()
        self.core_id = core_id
        self.program = program
        self.hierarchy = hierarchy
        self.config = config or CoreConfig()
        self.regs = RegisterFile()
        self.calc = CalculationBuffer(scale_cap=hierarchy.amap.page_size)
        self.pc_index = 0
        self.time = start_time
        self.halted = False
        self.stats = CoreStats()
        # Speculation state (one outstanding checkpoint).
        self._speculating = False
        self._checkpoint_regs: list[int] | None = None
        self._correct_index = 0
        self._resolve_time = 0
        self._spec_count = 0
        self._store_buffer: list[tuple[int, int]] = []
        self._predictor: dict[int, int] = {}
        self._serialized = False
        # Hot-loop caches: the decoded program, direct views into the
        # register/track arrays (both mutated in place, so the references
        # stay valid across restore/reset), and flattened config scalars.
        self._decoded = program.decoded
        self._program_len = len(program.decoded)
        self._values = self.regs._values
        self._tracks = self.calc._tracks
        self._scale_cap = self.calc.scale_cap
        config = self.config
        self._base_cost = config.base_cost
        self._mul_cost = config.mul_cost
        self._branch_cost = config.branch_cost
        self._load_hide = config.load_hide_cycles
        self._fuse_loops = config.fuse_countdown_loops
        self._spec_enabled = config.speculative_execution
        self._resolve_delay = config.resolve_delay
        self._predictor_entries = config.predictor_entries
        self._spec_window = config.spec_window
        # Compiled blocks by leader index, shared with every core running
        # the same decoded program under the same costs.
        self._blocks: dict[int, Block] = (
            dict(
                compile_blocks(
                    self._decoded,
                    self._base_cost,
                    self._mul_cost,
                    self._branch_cost,
                    self._scale_cap,
                    not self._spec_enabled,
                )
            )
            if self._fuse_loops
            else {}
        )

    # -- snapshot/restore ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """All mutable core state as flat tuples.

        The program, decode cache and compiled blocks are immutable per
        core and stay out, and the dispatch table is one module-level table
        that no core owns; registers and calculation tracks are copied
        because the hot loop aliases them (``_values``/``_tracks``).
        """
        return {
            "regs": tuple(self._values),
            "tracks": tuple((track.fva, track.sc) for track in self._tracks),
            "pc_index": self.pc_index,
            "time": self.time,
            "halted": self.halted,
            "stats": tuple(
                getattr(self.stats, name) for name in _CORE_STATS_FIELDS
            ),
            "speculating": self._speculating,
            "checkpoint_regs": (
                tuple(self._checkpoint_regs)
                if self._checkpoint_regs is not None
                else None
            ),
            "correct_index": self._correct_index,
            "resolve_time": self._resolve_time,
            "spec_count": self._spec_count,
            "store_buffer": tuple(self._store_buffer),
            "predictor": tuple(self._predictor.items()),
            "serialized": self._serialized,
        }

    def restore(self, data: dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot`.

        Registers and tracks are written in place so the ``_values`` /
        ``_tracks`` aliases cached at construction stay valid.
        """
        require_keys(data, _CORE_SNAP_KEYS, "Core")
        self._values[:] = data["regs"]
        # r0's track is the constant, whatever the snapshot holds.
        for track, (fva, sc) in zip(self._tracks[1:], data["tracks"][1:]):
            track.fva = fva
            track.sc = sc
        self.pc_index = data["pc_index"]
        self.time = data["time"]
        self.halted = data["halted"]
        for name, value in zip(_CORE_STATS_FIELDS, data["stats"]):
            setattr(self.stats, name, value)
        self._speculating = data["speculating"]
        checkpoint = data["checkpoint_regs"]
        self._checkpoint_regs = (
            list(checkpoint) if checkpoint is not None else None
        )
        self._correct_index = data["correct_index"]
        self._resolve_time = data["resolve_time"]
        self._spec_count = data["spec_count"]
        self._store_buffer[:] = data["store_buffer"]
        # Predictor insertion order is its FIFO eviction order; the items
        # tuple preserves it.
        self._predictor.clear()
        self._predictor.update(data["predictor"])
        self._serialized = data["serialized"]

    # -- helpers -----------------------------------------------------------------

    @property
    def speculating(self) -> bool:
        return self._speculating

    def pc_addr(self) -> int:
        """Current instruction address."""
        return self.program.pc_of_index(self.pc_index)

    def _squash(self) -> None:
        """Roll back a mispredicted path; cache/calc effects persist."""
        assert self._checkpoint_regs is not None
        self.regs.restore(self._checkpoint_regs)
        self.pc_index = self._correct_index
        self.time = max(self.time, self._resolve_time) + self.config.branch_miss_penalty
        self._speculating = False
        self._checkpoint_regs = None
        self._store_buffer.clear()
        self.stats.squashes += 1

    def _stall_to_resolve(self) -> None:
        self.time = max(self.time, self._resolve_time)

    def _retire(self) -> None:
        """Advance past the current instruction for one base cost."""
        self.time += self._base_cost
        self.pc_index += 1
        if self._speculating:
            self.stats.transient_executed += 1
        else:
            self.stats.instructions_retired += 1

    def _charged_latency(self, latency: int) -> int:
        """Stall cycles the pipeline pays for a load of ``latency`` cycles.

        An OoO window hides up to ``load_hide_cycles`` of any load's
        latency; serialised (timed) loads always pay everything.
        """
        if self._serialized:
            self._serialized = False
            return latency
        hide = self._load_hide
        if hide <= 0:
            return latency
        charged = latency - hide
        base = self._base_cost
        return charged if charged > base else base

    # -- main step ------------------------------------------------------------------

    def step(self) -> None:
        """Take one scheduler step: run one compiled block, execute one
        instruction, or resolve a pending squash.

        A block runs only when fusion is on, the core is not speculating
        and ``pc_index`` is a compiled leader; transient execution always
        goes one instruction at a time.
        """
        if self.halted:
            return
        if self._speculating:
            if self.time >= self._resolve_time:
                self._squash()
                return
        elif self._fuse_loops:
            block = self._blocks.get(self.pc_index)
            if block is not None:
                block(self, self._values, self._tracks)
                return
        index = self.pc_index
        if 0 <= index < self._program_len:
            d = self._decoded[index]
            _DISPATCH[d[0]](self, d)
            if self._speculating:
                self._spec_count += 1
                if self._spec_count >= self._spec_window:
                    self._stall_to_resolve()
            return
        if self._speculating:
            self._stall_to_resolve()
            return
        raise ExecutionError(
            f"core {self.core_id}: pc {self.pc_index} outside program "
            f"{self.program.name!r}"
        )

    # -- memory instructions -----------------------------------------------------------

    def _op_load(self, d: tuple[Any, ...]) -> None:
        _, rd, rs0, imm, pc = d
        values = self._values
        addr = (values[rs0] + imm) & WORD_MASK
        stats = self.stats
        if self._speculating:
            # Store-to-load forwarding from the speculative store buffer.
            for buffered_addr, buffered_value in reversed(self._store_buffer):
                if buffered_addr == addr:
                    if rd:
                        values[rd] = buffered_value & WORD_MASK
                        track = self._tracks[rd]
                        track.fva = None
                        track.sc = 1
                    stats.loads += 1
                    stats.load_latency_total += self._base_cost
                    self.time += self._base_cost
                    self.pc_index += 1
                    stats.transient_executed += 1
                    return
        outcome = self.hierarchy.load(
            self.core_id,
            addr,
            self.time,
            pc,
            self._tracks[rs0].sc,
            self._speculating,
        )
        if rd:
            # The loaded value is an unknown variable under Table III.
            values[rd] = outcome.value & WORD_MASK
            track = self._tracks[rd]
            track.fva = None
            track.sc = 1
        latency = outcome.latency
        stats.loads += 1
        stats.load_latency_total += latency
        self.time += self._charged_latency(latency)
        self.pc_index += 1
        if self._speculating:
            stats.transient_executed += 1
        else:
            stats.instructions_retired += 1

    def _op_store(self, d: tuple[Any, ...]) -> None:
        _, rs0, rs1, imm, pc = d
        values = self._values
        addr = (values[rs1] + imm) & WORD_MASK
        if self._speculating:
            self._store_buffer.append((addr, values[rs0]))
            self._retire()
            return
        latency = self.hierarchy.store(
            self.core_id, addr, values[rs0], self.time, pc
        )
        self.stats.stores += 1
        self.time += latency
        self.pc_index += 1
        self.stats.instructions_retired += 1

    def _op_clflush(self, d: tuple[Any, ...]) -> None:
        if self._speculating:
            # Flushes are ordered like stores: they do not execute transiently.
            self._retire()
            return
        _, rs0, imm = d
        addr = (self._values[rs0] + imm) & WORD_MASK
        latency = self.hierarchy.flush(self.core_id, addr, self.time)
        self.stats.flushes += 1
        self.time += latency
        self.pc_index += 1
        self.stats.instructions_retired += 1

    def _op_prefetch(self, d: tuple[Any, ...]) -> None:
        if self._speculating:
            # Ordered like stores/flushes: not executed transiently.
            self._retire()
            return
        _, rs0, imm, write = d
        addr = (self._values[rs0] + imm) & WORD_MASK
        outcome = self.hierarchy.software_prefetch(
            self.core_id, addr, self.time, write
        )
        self.stats.software_prefetches += 1
        # No destination register: the only architectural effect is time —
        # which is the whole point of a prefetch-latency probe.
        self.time += self._charged_latency(outcome.latency)
        self.pc_index += 1
        self.stats.instructions_retired += 1

    # -- cycle counter ------------------------------------------------------------------

    def _op_rdcycle(self, d: tuple[Any, ...]) -> None:
        rd = d[1]
        if rd:
            self._values[rd] = self.time & WORD_MASK
            track = self._tracks[rd]  # unknown variable under Table III
            track.fva = None
            track.sc = 1
        self._serialized = True
        self._retire()

    # -- control flow -------------------------------------------------------------------

    def _op_jmp(self, d: tuple[Any, ...]) -> None:
        self.pc_index = d[1]
        self.time += self._branch_cost
        if self._speculating:
            self.stats.transient_executed += 1
        else:
            self.stats.instructions_retired += 1

    def _op_branch(self, d: tuple[Any, ...]) -> None:
        _, cond, rs0, rs1, target = d
        values = self._values
        a = values[rs0]
        b = values[rs1]
        if cond == 0:
            taken = a == b
        elif cond == 1:
            taken = a != b
        else:
            if a & SIGN_BIT:
                a -= _TWO_POW_64
            if b & SIGN_BIT:
                b -= _TWO_POW_64
            taken = a < b if cond == 2 else a >= b
        index = self.pc_index
        actual_index = target if taken else index + 1
        stats = self.stats
        stats.branches += 1

        if not self._spec_enabled or self._speculating:
            # Non-speculative core, or already inside a transient window:
            # resolve immediately (one outstanding checkpoint only).
            self.pc_index = actual_index
            self.time += self._branch_cost
            if self._speculating:
                stats.transient_executed += 1
            else:
                stats.instructions_retired += 1
                if taken and target == index - 1 and self._fuse_loops:
                    self._fuse_countdown(index, cond, rs0, rs1)
            return

        key = index % self._predictor_entries
        counter = self._predictor.get(key, 1)
        predicted_taken = counter >= 2
        self._predictor[key] = (
            counter + 1 if counter < 3 else 3
        ) if taken else (counter - 1 if counter > 0 else 0)
        if predicted_taken == taken:
            self.pc_index = actual_index
            self.time += self._branch_cost
            stats.instructions_retired += 1
            if taken and target == index - 1 and self._fuse_loops:
                # predicted_taken == taken == True implies the 2-bit counter
                # was >= 2 before this branch, so it is saturated (3) now and
                # every fused iteration would also predict correctly — the
                # counter update below is min(3, 3 + m) == 3, a no-op.
                self._fuse_countdown(index, cond, rs0, rs1)
            return

        # Misprediction: checkpoint and follow the wrong path transiently.
        stats.mispredictions += 1
        self._checkpoint_regs = self.regs.snapshot()
        self._correct_index = actual_index
        self._resolve_time = self.time + self._resolve_delay
        self._speculating = True
        self._spec_count = 0
        self._store_buffer.clear()
        self.pc_index = target if predicted_taken else index + 1
        self.time += self._branch_cost
        stats.instructions_retired += 1  # the branch itself retires

    def _fuse_countdown(self, index: int, cond: int, rs0: int, rs1: int) -> None:
        """Fast-forward a `sub rX,rX,1; bne rX,zero,back` busy-wait loop.

        Called after a *retired, taken* backwards-by-one branch.  When the
        branch is `bne rX, zero` and the preceding instruction is exactly
        `sub rX, rX, 1` (decoded as add_ri with imm -1), the remaining
        iterations are pure ALU work with a constant per-iteration state
        delta: no memory traffic, no hierarchy calls, no cross-core
        visibility.  Apply the closed form for all but the final iteration
        (left interpreted so the not-taken exit takes the normal path).

        The collapsed iterations advance ``time`` in one jump instead of
        2 * m scheduler steps; since they touch nothing outside this core's
        registers/calc buffer/counters, every other core observes the same
        memory-event sequence either way.  Exactness is pinned by
        tests/test_golden_parity.py (unchanged goldens) and the fuse-on/off
        differential test in tests/test_snapshot_parity.py.
        """
        if cond != 1 or rs1 != 0 or rs0 == 0:
            return
        prev = self._decoded[index - 1]
        # Decode pre-masks immediates, so `sub rX, rX, 1` carries WORD_MASK.
        if prev[0] != K_ADD_RI or prev[1] != rs0 or prev[2] != rs0 or prev[3] != WORD_MASK:
            return
        values = self._values
        m = values[rs0] - 1  # leave the exiting iteration interpreted
        if m <= 0:
            return
        values[rs0] = 1
        track = self._tracks[rs0]
        if track.fva is not None:
            track.fva = (track.fva - m) & WORD_MASK
            track.sc = 1
        self.time += m * (self._base_cost + self._branch_cost)
        stats = self.stats
        stats.instructions_retired += 2 * m
        stats.branches += m

    # -- no-effect / serialising / halt -------------------------------------------------

    def _op_nop(self, d: tuple[Any, ...]) -> None:
        self._retire()

    def _op_fence(self, d: tuple[Any, ...]) -> None:
        self._serialized = True
        if self._speculating:
            # Serialising instruction: a transient path cannot proceed
            # past a fence; wait for the branch to resolve (then squash).
            self._stall_to_resolve()
        else:
            self._retire()

    def _op_halt(self, d: tuple[Any, ...]) -> None:
        if self._speculating:
            # A transient halt stalls until the branch resolves.
            self._stall_to_resolve()
        else:
            self.halted = True
            self.time += self._base_cost
            self.stats.instructions_retired += 1


def _register_handler(op: RegisterOp) -> Any:
    """The per-instruction handler of one register-only kind.

    Generated from the kind's table row: the lines of
    :func:`repro.cpu.alu.write` unless ``rd`` is ``r0``, then the ending of
    :meth:`Core._retire` with the kind's cost.
    """
    operands = list("ab"[: len(op.form)])
    cost = "core._mul_cost" if op.kind in MUL_KINDS else "core._base_cost"
    lines = [
        f"_, rd, {', '.join(operands)} = d",
        "if rd:",
        "    values = core._values",
        "    tracks = core._tracks",
        *("    " + line for line in write(op, "rd", operands, "core._scale_cap")),
        f"core.time += {cost}",
        "core.pc_index += 1",
        "if core._speculating:",
        "    core.stats.transient_executed += 1",
        "else:",
        "    core.stats.instructions_retired += 1",
    ]
    name = "_op_" + op.name
    source = f"def {name}(core, d):\n" + "".join(f"    {line}\n" for line in lines)
    return define(source, name, f"<{name}>")


def _build_dispatch() -> list[Any]:
    """Handler table indexed by the decode-kind integers (``Any`` holes
    for kinds without a handler: decode emits every kind listed here).

    One table of plain functions, shared by every core and called as
    ``handler(core, d)``: a per-core table of bound methods would tie each
    core into a reference cycle with itself.
    """
    table: list[Any] = [None] * NUM_KINDS
    for op in REGISTER_OPS:
        table[op.kind] = _register_handler(op)
    table[K_LOAD] = Core._op_load
    table[K_STORE] = Core._op_store
    table[K_BRANCH] = Core._op_branch
    table[K_JMP] = Core._op_jmp
    table[K_RDCYCLE] = Core._op_rdcycle
    table[K_CLFLUSH] = Core._op_clflush
    table[K_PREFETCH] = Core._op_prefetch
    table[K_NOP] = Core._op_nop
    table[K_FENCE] = Core._op_fence
    table[K_HALT] = Core._op_halt
    return table


_DISPATCH = _build_dispatch()
