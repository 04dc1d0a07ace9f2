"""Rule orchestration: run every CFG/dataflow rule, collect findings.

Rule catalog (IDs are stable — suppressions and docs reference them):

===================  =====================================================
AN-BRANCH            branch/jmp target outside the program (or never
                     resolved)
AN-FALLOFF           control can run past the last instruction (the core
                     raises ``ExecutionError`` when the PC leaves the
                     program)
AN-HALT              a reachable block from which no ``halt`` is
                     reachable — guaranteed non-termination once control
                     enters it
AN-DEAD              unreachable basic block (dead code)
AN-UBD               register read before any write on some path from
                     entry
AN-SECRET-ADDR       [info] memory access whose address depends on a
                     declared secret — the leak surface the defense must
                     cover
AN-SECRET-BRANCH     branch conditioned on a declared secret (a
                     control-flow side channel)
AN-SECRET-UNDECLARED load from the scenario secret cell without a
                     ``.secret`` declaration
AN-TIMING-VAR        [info] secret-conditioned branch or secret-addressed
                     access whose abstract hit/miss state (and so its
                     cycle cost) varies across secrets
AN-CACHE-DISTINGUISH [info] two secrets yield different attacker-observable
                     must/may residency in a shared cache level (computed
                     by :func:`repro.analysis.timing.secret_trials`, not
                     by :func:`analyze_program` — it needs one concrete
                     walk per secret, forked at the secret load)
AN-ATTACK-FEASIBLE   [info] the scenario certifier proves the attacker's
                     candidate set distinguishes secrets on an undefended
                     (or provably idle) defense row, anchored to a
                     distinguisher witness (computed by
                     :func:`repro.analysis.scenario.certify`, not by
                     :func:`analyze_program` — it walks the attacker ×
                     victim product)
AN-DEFENSE-CERTIFIED [info] the scenario certifier proves no secret pair
                     stays distinguishable in the attacker's observable
                     under the defense row (same certifier, DEFENDED
                     verdict)
===================  =====================================================

Severities: ``error`` and ``warning`` findings block a strict build
(``Program.finalize(strict=True)``); ``info`` findings never do — they
annotate the program (the cached analysis and the CLI report them).

Suppression: ``program.allow("AN-DEAD")`` (program-wide) or
``program.allow("AN-UBD", index=7)`` (one instruction).  Assembly sources
use ``; analysis: allow AN-UBD`` — on an instruction line it pins that
instruction, on its own line it is program-wide.  ``.to_text()`` emits
both forms, so suppressions survive a disassemble/assemble round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.analysis.cfg import EXIT, ControlFlowGraph, build_cfg
from repro.analysis.dataflow import constant_addresses, use_before_def
from repro.analysis.taint import TaintAnalysis, taint_analysis
from repro.analysis.timing import (
    TimingAnalysis,
    analyze_timing,
    timing_variations,
)
from repro.isa.decode import K_BRANCH, K_HALT, K_JMP
from repro.isa.program import Program
from repro.isa.registers import register_name

#: rule id -> (severity, one-line description, fix-it hint)
ANALYSIS_RULES: dict[str, tuple[str, str, str]] = {
    "AN-BRANCH": (
        "error",
        "branch or jmp target outside the program",
        "point the branch at a label inside the program",
    ),
    "AN-FALLOFF": (
        "error",
        "control can run past the last instruction",
        "end every path with `halt` (the core raises when the PC leaves "
        "the program)",
    ),
    "AN-HALT": (
        "error",
        "no `halt` reachable from here: guaranteed non-termination",
        "add a `halt`-reaching exit edge (or a loop-exit branch)",
    ),
    "AN-DEAD": (
        "warning",
        "unreachable basic block (dead code)",
        "delete the block or add a branch that reaches it",
    ),
    "AN-UBD": (
        "warning",
        "register read before any write on some path",
        "initialise the register (`li`) before the first read",
    ),
    "AN-SECRET-ADDR": (
        "info",
        "memory access whose address depends on a declared secret",
        "this is the leak surface: the defense must cover this access "
        "(or restructure the lookup to be constant-time)",
    ),
    "AN-SECRET-BRANCH": (
        "warning",
        "branch conditioned on a declared secret (control-flow channel)",
        "replace the branch with arithmetic selection, or `.allow` it as "
        "a known channel (square-and-multiply does)",
    ),
    "AN-SECRET-UNDECLARED": (
        "error",
        "load from the scenario secret cell without a `.secret` declaration",
        "declare the cell with `.secret ADDR` (builder: `taint_source()`) "
        "so taint tracking covers the access",
    ),
    "AN-TIMING-VAR": (
        "info",
        "secret-dependent timing: branch or access cost varies with a secret",
        "balance the branch paths / pin the access to one cacheline, or "
        "rely on the defense to mask the latency difference",
    ),
    "AN-CACHE-DISTINGUISH": (
        "info",
        "two secrets leave different attacker-observable cache residency",
        "make the lookup footprint secret-independent (preload the whole "
        "table, or use a constant-time selection network)",
    ),
    "AN-ATTACK-FEASIBLE": (
        "info",
        "attacker's candidate set provably distinguishes secrets (LEAKS)",
        "deploy a defense row whose havoc certainly covers the "
        "distinguishing probe indices (a Scale-Tracker-bearing PREFENDER)",
    ),
    "AN-DEFENSE-CERTIFIED": (
        "info",
        "no secret pair stays distinguishable under the defense (DEFENDED)",
        "nothing to fix: the certificate is the machine-checked witness "
        "that this defense row covers this attack",
    ),
}


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to an instruction index.

    ``index`` is ``None`` for program-level findings (e.g. an empty
    program).  Source line numbers are resolved at render time from
    ``program.source_lines``, so a finding compares equal across a
    ``to_text()``/``assemble()`` round trip.
    """

    index: int | None
    rule: str
    message: str

    @property
    def severity(self) -> str:
        return ANALYSIS_RULES[self.rule][0]


@dataclass(frozen=True)
class ProgramAnalysis:
    """Everything the analyzer knows about one finalized program."""

    cfg: ControlFlowGraph
    #: Findings that survived suppression, sorted by (index, rule).
    findings: tuple[Finding, ...]
    #: Findings silenced by ``program.allow`` / ``; analysis: allow``.
    suppressed: tuple[Finding, ...]
    #: Secret-taint classification of every access and branch.
    taint: TaintAnalysis
    #: Abstract cache/cycle interval analysis (default system geometry).
    timing: TimingAnalysis

    @property
    def ok(self) -> bool:
        return not self.findings

    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    def blocking(self) -> tuple[Finding, ...]:
        """Findings that fail a strict build (everything but ``info``)."""
        return tuple(f for f in self.findings if f.severity != "info")


def _branch_findings(decoded: tuple[tuple[Any, ...], ...]) -> list[Finding]:
    """AN-BRANCH: every control transfer must land inside the program."""
    n = len(decoded)
    findings: list[Finding] = []
    for index, tup in enumerate(decoded):
        kind = tup[0]
        if kind == K_JMP:
            target = tup[1]
        elif kind == K_BRANCH:
            target = tup[4]
        else:
            continue
        if not isinstance(target, int) or not 0 <= target < n:
            findings.append(
                Finding(
                    index=index,
                    rule="AN-BRANCH",
                    message=f"target {target!r} outside program of {n} "
                    "instruction(s)",
                )
            )
    return findings


def _falloff_findings(
    decoded: tuple[tuple[Any, ...], ...], cfg: ControlFlowGraph
) -> list[Finding]:
    """AN-FALLOFF: a reachable block whose fall-through leaves the program."""
    findings: list[Finding] = []
    for index in cfg.reachable:
        block = cfg.blocks[index]
        if EXIT in block.successors:
            findings.append(
                Finding(
                    index=block.end - 1,
                    rule="AN-FALLOFF",
                    message="execution falls off the end of the program here",
                )
            )
    return findings


def _halt_findings(
    decoded: tuple[tuple[Any, ...], ...], cfg: ControlFlowGraph
) -> list[Finding]:
    """AN-HALT: reachable blocks from which no ``halt`` can be reached.

    Backward reachability from every halt-containing block; any reachable
    block outside that set is a point of no return.  Only the first such
    block (in program order) is reported — every block of the same trap
    region would otherwise repeat the finding.
    """
    halting = {
        cfg.block_of[i]
        for i, tup in enumerate(decoded)
        if tup[0] == K_HALT
    }
    preds = cfg.predecessors()
    can_halt = set(halting)
    frontier = list(halting)
    while frontier:
        block_index = frontier.pop()
        for pred in preds[block_index]:
            if pred not in can_halt:
                can_halt.add(pred)
                frontier.append(pred)
    for index in cfg.reachable:
        if index not in can_halt:
            block = cfg.blocks[index]
            return [
                Finding(
                    index=block.start,
                    rule="AN-HALT",
                    message="no `halt` is reachable from this block",
                )
            ]
    return []


def _dead_findings(cfg: ControlFlowGraph) -> list[Finding]:
    reachable = set(cfg.reachable)
    return [
        Finding(
            index=block.start,
            rule="AN-DEAD",
            message=f"block of {block.end - block.start} instruction(s) is "
            "unreachable",
        )
        for block in cfg.blocks
        if block.index not in reachable
    ]


def _ubd_findings(
    decoded: tuple[tuple[Any, ...], ...], cfg: ControlFlowGraph
) -> list[Finding]:
    return [
        Finding(
            index=index,
            rule="AN-UBD",
            message=f"{register_name(register)} may be read before it is "
            "written",
        )
        for index, register in use_before_def(decoded, cfg)
    ]


def _secret_findings(taint: TaintAnalysis) -> list[Finding]:
    """AN-SECRET-ADDR / AN-SECRET-BRANCH / AN-SECRET-UNDECLARED."""
    findings = [
        Finding(
            index=access.index,
            rule="AN-SECRET-ADDR",
            message=f"{access.kind} address derives from a declared secret",
        )
        for access in taint.accesses
        if access.addressed
    ]
    findings.extend(
        Finding(
            index=index,
            rule="AN-SECRET-BRANCH",
            message="branch outcome depends on a declared secret",
        )
        for index in taint.branches
    )
    findings.extend(
        Finding(
            index=index,
            rule="AN-SECRET-UNDECLARED",
            message="reads the scenario secret cell but the program "
            "declares no `.secret` source there",
        )
        for index in taint.undeclared
    )
    return findings


def analyze_program(program: Program) -> ProgramAnalysis:
    """Run every rule over ``program`` (which must be decoded).

    Pure: reads ``program.decoded``, ``program.taint_sources`` and
    ``program.suppressions``; mutates nothing.
    """
    decoded = tuple(program.decoded)
    cfg = build_cfg(decoded)
    resolved = constant_addresses(decoded, cfg)
    taint = taint_analysis(
        decoded, cfg, resolved, frozenset(program.taint_sources)
    )
    timing = analyze_timing(decoded, cfg, resolved)
    if not decoded:
        raw = [
            Finding(index=None, rule="AN-HALT", message="program is empty")
        ]
    else:
        raw = (
            _branch_findings(decoded)
            + _falloff_findings(decoded, cfg)
            + _halt_findings(decoded, cfg)
            + _dead_findings(cfg)
            + _ubd_findings(decoded, cfg)
            + _secret_findings(taint)
            + [
                Finding(index=index, rule="AN-TIMING-VAR", message=message)
                for index, message in timing_variations(cfg, taint, timing)
            ]
        )
    raw.sort(key=lambda f: (f.index if f.index is not None else -1, f.rule))
    suppressions = program.suppressions
    kept: list[Finding] = []
    silenced: list[Finding] = []
    for finding in raw:
        if (finding.rule, None) in suppressions or (
            finding.rule,
            finding.index,
        ) in suppressions:
            silenced.append(finding)
        else:
            kept.append(finding)
    return ProgramAnalysis(
        cfg=cfg,
        findings=tuple(kept),
        suppressed=tuple(silenced),
        taint=taint,
        timing=timing,
    )


def render_findings(program: Program, analysis: ProgramAnalysis) -> list[str]:
    """Human-readable finding lines with source line numbers when known."""
    lines: list[str] = []
    for finding in analysis.findings:
        if finding.index is None:
            where = "program"
        elif (line := program.source_line(finding.index)) is not None:
            where = f"line {line}"
        else:
            where = f"instr {finding.index}"
        severity, _, fixit = ANALYSIS_RULES[finding.rule]
        lines.append(
            f"{program.name}: {where}: {severity} {finding.rule} "
            f"{finding.message} (fix: {fixit})"
        )
    return lines
