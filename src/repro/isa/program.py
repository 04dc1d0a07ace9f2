"""Programs: instruction sequences plus initial data segments.

A :class:`Program` owns a list of :class:`~repro.isa.instructions.Instruction`
objects, a label table, and :class:`DataSegment` initialisers that populate
main memory before execution.  Instruction addresses are
``code_base + 4 * index`` — the Access Tracker keys its buffers on these
PC values exactly as the hardware keys on instruction addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import AnalysisError, AssemblyError
from repro.isa.decode import decode_program
from repro.isa.instructions import BRANCH_OPS, Instruction

if TYPE_CHECKING:  # pragma: no cover — import cycle broken at runtime
    from repro.analysis.analyzer import ProgramAnalysis

DEFAULT_CODE_BASE = 0x0040_0000
INSTRUCTION_SIZE = 4


@dataclass(frozen=True)
class DataSegment:
    """Initial memory contents: ``values[i]`` stored at ``base + i*stride``."""

    base: int
    values: tuple[int, ...]
    stride: int = 8

    def addresses(self) -> list[int]:
        """The byte addresses this segment initialises."""
        return [self.base + i * self.stride for i in range(len(self.values))]


@dataclass
class Program:
    """An executable program: code, labels, and initial data."""

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    data_segments: list[DataSegment] = field(default_factory=list)
    name: str = "program"
    code_base: int = DEFAULT_CODE_BASE
    _finalized: bool = field(default=False, repr=False)
    #: Dispatch tuples built by :meth:`finalize` (see repro.isa.decode); the
    #: timing core executes these instead of re-inspecting ``op`` strings.
    decoded: tuple[tuple[Any, ...], ...] = field(
        default=(), repr=False, compare=False
    )
    #: 1-based source line of each instruction (assembled programs only;
    #: empty for builder-constructed programs).
    source_lines: list[int] = field(
        default_factory=list, repr=False, compare=False
    )
    #: Static-analysis suppressions: ``(rule, instruction index | None)``.
    #: ``None`` silences the rule program-wide.  See :meth:`allow`.
    suppressions: set[tuple[str, int | None]] = field(
        default_factory=set, repr=False, compare=False
    )
    #: Byte addresses holding secret values (``.secret`` directive /
    #: :meth:`taint_source`).  The taint analysis seeds from loads that
    #: resolve to one of these cells.  See :mod:`repro.analysis.taint`.
    taint_sources: set[int] = field(
        default_factory=set, repr=False, compare=False
    )
    #: :class:`repro.analysis.ProgramAnalysis` cached by a strict finalize.
    analysis: "ProgramAnalysis | None" = field(
        default=None, repr=False, compare=False
    )

    def pc_of_index(self, index: int) -> int:
        """Instruction address for instruction ``index``."""
        return self.code_base + INSTRUCTION_SIZE * index

    def index_of_pc(self, pc: int) -> int:
        """Instruction index for address ``pc``."""
        return (pc - self.code_base) // INSTRUCTION_SIZE

    def load_pc_count(self) -> int:
        """Distinct PCs of the program's ``load`` instructions: the most
        Access Tracker buffers a run of it can hold valid at once."""
        return sum(1 for inst in self.instructions if inst.op == "load")

    def _check_editable(self, edit: str) -> None:
        """Refuse ``edit`` once finalized: the decode tuples, the resolved
        branch targets and a strict build's cached analysis were all made
        from the program as it stood, and a finalized program may be shared
        by every job that runs it."""
        if self._finalized:
            raise AssemblyError(f"cannot {edit} a finalized program")

    def add_label(self, label: str) -> None:
        """Attach ``label`` to the next instruction to be appended."""
        self._check_editable("add a label to")
        if label in self.labels:
            raise AssemblyError(f"duplicate label: {label!r}")
        self.labels[label] = len(self.instructions)

    def append(self, instruction: Instruction) -> None:
        """Append one instruction (program must not be finalized yet)."""
        self._check_editable("append to")
        self.instructions.append(instruction)

    def add_data(self, segment: DataSegment) -> None:
        """Register an initial-data segment."""
        self._check_editable("add data to")
        self.data_segments.append(segment)

    def taint_source(self, address: int) -> "Program":
        """Declare the word at ``address`` as a secret-taint source.

        Mirrors the assembly-level ``.secret ADDR`` directive; re-emitted
        by :meth:`to_text`, so declarations survive round trips.  The
        static taint analysis (:mod:`repro.analysis.taint`) seeds from
        loads whose resolved address is a declared cell.
        """
        self._check_editable("declare a taint source in")
        if not isinstance(address, int) or address < 0:
            raise AssemblyError(
                f"taint source address must be a non-negative int, "
                f"got {address!r}"
            )
        self.taint_sources.add(address)
        return self

    def allow(self, rule: str, index: int | None = None) -> "Program":
        """Suppress analysis ``rule`` — program-wide, or at one instruction.

        Mirrors the assembly-level ``; analysis: allow RULE`` pragma (and
        the ``.allow RULE`` directive for the program-wide form); both are
        re-emitted by :meth:`to_text`, so suppressions survive round trips.
        """
        from repro.analysis.analyzer import ANALYSIS_RULES

        self._check_editable("add a suppression to")
        if rule not in ANALYSIS_RULES:
            known = ", ".join(sorted(ANALYSIS_RULES))
            raise AssemblyError(
                f"unknown analysis rule {rule!r} (known: {known})"
            )
        self.suppressions.add((rule, index))
        return self

    def source_line(self, position: int) -> int | None:
        """1-based source line of instruction ``position``, when known."""
        if position < len(self.source_lines):
            return self.source_lines[position]
        return None

    def finalize(self, strict: bool = False) -> "Program":
        """Resolve branch targets and pre-decode into dispatch tuples.

        Branch targets go from label names to instruction indices; then the
        whole instruction list is decoded once (:mod:`repro.isa.decode`)
        into the tuples the timing core dispatches through.  Returns self,
        for chaining.  Idempotent.

        With ``strict=True`` the static analyzer (:mod:`repro.analysis`)
        runs over the decoded program and any unsuppressed finding raises
        :class:`~repro.errors.AnalysisError`.  Every built-in workload,
        crypto victim and attack snippet builds strictly, so a malformed
        program fails at build time instead of mid-simulation.
        """
        if not self._finalized:
            for position, instruction in enumerate(self.instructions):
                if instruction.op in BRANCH_OPS or instruction.op == "jmp":
                    target = instruction.target
                    if isinstance(target, str):
                        if target not in self.labels:
                            raise AssemblyError(
                                f"undefined label {target!r} at instruction "
                                f"{position}",
                                self.source_line(position),
                            )
                        instruction.target = self.labels[target]
                    elif not isinstance(target, int):
                        raise AssemblyError(
                            f"branch at instruction {position} has no target",
                            self.source_line(position),
                        )
            self.decoded = decode_program(
                self.instructions, self.code_base, INSTRUCTION_SIZE
            )
            self._finalized = True
        if strict and self.analysis is None:
            self._check_analysis()
        return self

    def _check_analysis(self) -> None:
        """Run the analyzer; raise on any unsuppressed blocking finding.

        Info-severity findings (e.g. ``AN-SECRET-ADDR``, which marks the
        leak surface a defense must cover) never block a build — they are
        kept on the cached analysis for reporting.
        """
        from repro.analysis.analyzer import analyze_program, render_findings

        analysis = analyze_program(self)
        blocking = analysis.blocking()
        if blocking:
            lines = render_findings(self, analysis)
            raise AnalysisError(
                f"static analysis rejected program {self.name!r}:\n"
                + "\n".join(f"  {line}" for line in lines),
                findings=blocking,
            )
        self.analysis = analysis

    @property
    def finalized(self) -> bool:
        return self._finalized

    def __len__(self) -> int:
        return len(self.instructions)

    def to_text(self) -> str:
        """Disassemble back to assembly that re-assembles identically.

        Finalized branch targets (instruction indices) are rendered as the
        label attached at that index when one exists, so the output
        round-trips through :func:`repro.isa.assembler.assemble` to the
        same decode tuples.  Suppressions come back as ``.allow`` lines
        (program-wide) and ``; analysis: allow`` pragmas (per
        instruction); taint-source declarations come back as ``.secret``
        lines.
        """
        label_at: dict[int, list[str]] = {}
        for label, index in self.labels.items():
            label_at.setdefault(index, []).append(label)
        allow_at: dict[int, list[str]] = {}
        global_allow: list[str] = []
        for rule, index in sorted(
            self.suppressions, key=lambda s: (s[1] is not None, s[1] or 0, s[0])
        ):
            if index is None:
                global_allow.append(rule)
            else:
                allow_at.setdefault(index, []).append(rule)
        lines = [f".name {self.name}"]
        for segment in self.data_segments:
            values = " ".join(str(v) for v in segment.values)
            lines.append(f".data {segment.base:#x} stride={segment.stride} {values}")
        if self.taint_sources:
            addresses = " ".join(
                f"{address:#x}" for address in sorted(self.taint_sources)
            )
            lines.append(f".secret {addresses}")
        if global_allow:
            lines.append(f".allow {' '.join(global_allow)}")
        for index, instruction in enumerate(self.instructions):
            for label in label_at.get(index, []):
                lines.append(f"{label}:")
            target_label: str | None = None
            if instruction.op in BRANCH_OPS or instruction.op == "jmp":
                if isinstance(instruction.target, int):
                    names = label_at.get(instruction.target)
                    if names:
                        target_label = names[0]
            text = instruction.to_text(target_label=target_label)
            rules = allow_at.get(index)
            if rules:
                text = f"{text}  ; analysis: allow {' '.join(rules)}"
            lines.append(f"    {text}")
        for label in label_at.get(len(self.instructions), []):
            lines.append(f"{label}:")
        return "\n".join(lines)
