"""The ``analyze`` report: each program analysed once, rendered two ways.

:func:`build_report` builds every requested program once and keeps the
analyzer's own typed results in one :class:`AnalyzeReport`: per program
its :class:`~repro.analysis.analyzer.ProgramAnalysis`, its leak maps and
its :func:`~repro.analysis.timing.secret_trials` answer; one entry per
build failure; and the certify matrix.  :meth:`AnalyzeReport.text` and
:meth:`AnalyzeReport.to_json` are the only code that spells out
``python -m repro analyze``'s text lines and ``analyze/v3`` JSON keys.
Finding lines come from :func:`~repro.analysis.analyzer.render_findings`,
the formatter strict builds raise with, and the JSON ``line`` field from
the same :meth:`~repro.isa.program.Program.source_line` lookup.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.analysis.analyzer import (
    ANALYSIS_RULES,
    ProgramAnalysis,
    analyze_program,
    render_findings,
)
from repro.analysis.scenario import (
    DEFENDED,
    LEAKS,
    UNKNOWN,
    CertificationReport,
    certify_grid,
)
from repro.analysis.taint import leak_maps
from repro.analysis.timing import (
    CycleInterval,
    DistinguisherReport,
    secret_trials,
)
from repro.errors import AnalysisError, AssemblyError
from repro.isa.assembler import assemble
from repro.isa.program import Program


@dataclass(frozen=True)
class ProgramReport:
    """One analysed program, where it came from, and what was asked of it."""

    program: Program
    #: An ``.asm`` path, a workload or attack name, or ``victim NAME``.
    source: str
    analysis: ProgramAnalysis
    #: Secret -> probe-array indices: a builtin victim under ``--taint``.
    leak_maps: Mapping[int, tuple[int, ...]] | None
    #: :func:`secret_trials`' answer: a program that declares a secret,
    #: under ``--timing``.
    trials: tuple[Mapping[int, CycleInterval], DistinguisherReport] | None


@dataclass(frozen=True)
class BuildFailure:
    """A program that failed to assemble or to pass its strict build."""

    source: str
    error: str


Entry = ProgramReport | BuildFailure


@dataclass(frozen=True)
class AnalyzeReport:
    """One ``analyze`` run: its programs and build failures in build order,
    the sections it asked for, and the certify matrix (``--certify``)."""

    entries: tuple[Entry, ...]
    taint: bool
    timing: bool
    certification: CertificationReport | None

    @property
    def errors(self) -> int:
        """Error-severity findings plus build failures."""
        return sum(
            len(entry.analysis.errors())
            if isinstance(entry, ProgramReport)
            else 1
            for entry in self.entries
        )

    def text(self, verbose: bool) -> str:
        """The text report; ``verbose`` adds a line per clean program."""
        lines: list[str] = []
        for entry in self.entries:
            if isinstance(entry, BuildFailure):
                lines.append(f"{entry.source}: {entry.error}")
            else:
                lines += _program_lines(
                    entry, self.taint, self.timing, verbose
                )
        report = self.certification
        if report is not None:
            lines += [
                f"certify: {cell.victim} x {cell.attack} x {cell.defense} "
                f"-> {cell.verdict} (coverage {cell.coverage}) -- "
                f"{cell.detail}"
                for cell in report.cells
            ]
            lines.append(
                f"certify: {len(report.cells)} cell(s): "
                f"{report.count(LEAKS)} LEAKS, "
                f"{report.count(DEFENDED)} DEFENDED, "
                f"{report.count(UNKNOWN)} UNKNOWN"
            )
        lines.append(
            f"analyze: {len(self.entries)} program(s), "
            f"{self.errors} error(s)"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        """The ``analyze/v3`` JSON document."""
        programs = [e for e in self.entries if isinstance(e, ProgramReport)]
        timing: dict[str, Any] = {"enabled": self.timing}
        cache: dict[str, Any] = {"enabled": self.timing}
        if self.timing:
            timing["programs"] = [_timing_record(p) for p in programs]
            cache["distinguishers"] = [
                {
                    "program": p.program.name,
                    "source": p.source,
                    **asdict(p.trials[1]),
                }
                for p in programs
                if p.trials is not None
            ]
        return json.dumps(
            {
                "schema": "analyze/v3",
                "checked": len(self.entries),
                "errors": self.errors,
                "programs": [
                    _program_record(entry, self.taint)
                    for entry in self.entries
                ],
                "timing": timing,
                "cache": cache,
                "certify": _certify_record(self.certification),
            },
            indent=2,
        )


def rule_catalog() -> str:
    """``analyze --list-rules``: the rule catalog with fix-its."""
    return "\n".join(
        f"{rule_id}  [{severity}] {description}\n          fix: {fixit}"
        for rule_id, (severity, description, fixit) in sorted(
            ANALYSIS_RULES.items()
        )
    )


def build_report(
    paths: Sequence[str],
    *,
    builtin: bool,
    taint: bool,
    timing: bool,
    certify: bool,
) -> AnalyzeReport:
    """Build and analyse every requested program once; certify on request.

    ``builtin`` adds every registered workload, every attack kind and every
    crypto victim (as its Flush+Reload scenario), in that order, before
    ``paths``.  ``taint`` adds each builtin victim's leak maps over its
    whole secret space.  ``timing`` walks each program that declares a
    secret with trial secrets: up to 8 of a victim's, and 0-3 for an
    ``.asm`` file.  ``certify`` runs
    :func:`~repro.analysis.scenario.certify_grid` on its default grid.
    """
    from repro.runner import ATTACK_KINDS
    from repro.workloads import get_workload, workload_names
    from repro.workloads.crypto import get_victim, victim_names

    entries: list[Entry] = []
    if builtin:
        for name in workload_names():
            entries += _entries(name, lambda: [get_workload(name).program()])
        for kind in sorted(ATTACK_KINDS):
            entries += _entries(kind, ATTACK_KINDS[kind]().programs)
        for victim in victim_names():
            descriptor = get_victim(victim)
            space = descriptor.secret_space
            attack = ATTACK_KINDS["flush-reload"](
                victim=victim, num_indices=descriptor.num_indices, secret=0
            )
            maps_of = partial(
                leak_maps,
                secrets=range(space),
                probe_base=attack.layout.probe_base,
                scale=attack.options.scale,
                num_indices=attack.options.num_indices,
            )
            entries += _entries(
                f"victim {victim}",
                attack.programs,
                descriptor.trial_secrets(min(8, space)) if timing else (),
                maps_of if taint else None,
            )
    for path in paths:
        source = Path(path)
        entries += _entries(
            path,
            lambda: [
                assemble(source.read_text(encoding="utf-8"), name=source.stem)
            ],
            (0, 1, 2, 3) if timing else (),
        )
    return AnalyzeReport(
        tuple(entries), taint, timing, certify_grid() if certify else None
    )


def _entries(
    source: str,
    build: Callable[[], Sequence[Program]],
    secrets: Sequence[int] = (),
    leak_maps_of: Callable[[Program], Mapping[int, tuple[int, ...]]]
    | None = None,
) -> list[Entry]:
    """Analyse what ``build()`` returns, or record why it failed.

    ``build`` is called at once.  Each program that declares a secret is
    walked with ``secrets`` and carries ``leak_maps_of`` the first one.
    """
    try:
        programs = build()
    except (AssemblyError, AnalysisError) as error:
        return [BuildFailure(source, str(error))]
    carrier = next((p for p in programs if p.taint_sources), None)
    maps = None
    if carrier is not None and leak_maps_of is not None:
        maps = leak_maps_of(carrier)
    return [
        ProgramReport(
            program,
            source,
            program.analysis or analyze_program(program),
            maps if program.taint_sources else None,
            secret_trials(program, secrets)
            if secrets and program.taint_sources
            else None,
        )
        for program in programs
    ]


def _program_lines(
    entry: ProgramReport, taint: bool, timing: bool, verbose: bool
) -> list[str]:
    program, analysis, name = entry.program, entry.analysis, entry.program.name
    lines = render_findings(program, analysis)
    if taint:
        found = analysis.taint
        lines.append(
            f"{name}: taint: {len(found.sources)} source(s), "
            f"{len(found.secret_addressed())} secret-addressed, "
            f"{len(found.secret_valued())} secret-valued, "
            f"{len(found.branches)} secret branch(es) -> "
            f"{'leaks' if found.leaks else 'clean'}"
        )
        maps = entry.leak_maps
        if maps is not None:
            lines.append(
                f"{name}: leak map: {len(maps)} secret(s), "
                f"{len(set(maps.values()))} distinct footprint(s)"
            )
            if len(maps) <= 16:
                lines += [
                    f"{name}:   secret {secret} -> {list(indices)}"
                    for secret, indices in maps.items()
                ]
    elif verbose and not analysis.findings:
        lines.append(
            f"{name}: clean ({len(program)} instruction(s), "
            f"{len(analysis.cfg.blocks)} block(s), "
            f"{len(analysis.suppressed)} suppressed)"
        )
    if timing:
        bounds = analysis.timing.bounds
        hi = "unbounded" if bounds.hi is None else bounds.hi
        lines.append(f"{name}: timing: path bounds [{bounds.lo}, {hi}]")
    if entry.trials is not None:
        intervals, distinguisher = entry.trials
        lines += [
            f"{name}:   secret {secret} -> [{interval.lo}, "
            f"{'unresolved' if interval.hi is None else interval.hi}]"
            for secret, interval in intervals.items()
        ]
        distinct = {(interval.lo, interval.hi) for interval in intervals.values()}
        if len(distinct) == 1 and all(i.exact for i in intervals.values()):
            spread = f"constant-time across {len(intervals)} trial secret(s)"
        else:
            spread = (
                f"{len(distinct)} distinct cycle interval(s) over "
                f"{len(intervals)} trial secret(s)"
            )
        verdict = (
            "DISTINGUISHABLE"
            if distinguisher.distinguishable
            else "indistinguishable"
        )
        lines.append(f"{name}: timing: {spread}")
        lines.append(f"{name}: cache: {verdict} -- {distinguisher.detail}")
    return lines


def _program_record(entry: Entry, taint: bool) -> dict[str, Any]:
    if isinstance(entry, BuildFailure):
        return {"program": entry.source, "build_error": entry.error}
    program, analysis = entry.program, entry.analysis
    record: dict[str, Any] = {
        "program": program.name,
        "source": entry.source,
        "instructions": len(program),
        "findings": [
            {
                "rule": finding.rule,
                "severity": finding.severity,
                "program": program.name,
                "index": finding.index,
                "line": (
                    None
                    if finding.index is None
                    else program.source_line(finding.index)
                ),
                "message": finding.message,
                "fixit": ANALYSIS_RULES[finding.rule][2],
            }
            for finding in analysis.findings
        ],
        "suppressed": len(analysis.suppressed),
    }
    if taint:
        found = analysis.taint
        record["taint"] = {
            "sources": list(found.sources),
            "secret_addressed": list(found.secret_addressed()),
            "secret_valued": list(found.secret_valued()),
            "secret_branches": list(found.branches),
            "undeclared": list(found.undeclared),
            "leaks": found.leaks,
        }
        if entry.leak_maps is not None:
            record["leak_map"] = {
                str(secret): list(indices)
                for secret, indices in entry.leak_maps.items()
            }
    return record


def _timing_record(entry: ProgramReport) -> dict[str, Any]:
    record: dict[str, Any] = {
        "program": entry.program.name,
        "source": entry.source,
        "bounds": asdict(entry.analysis.timing.bounds),
    }
    if entry.trials is not None:
        record["intervals"] = {
            str(secret): asdict(interval)
            for secret, interval in entry.trials[0].items()
        }
    return record


def _certify_record(report: CertificationReport | None) -> dict[str, Any]:
    if report is None:
        return {"enabled": False}
    rules = {LEAKS: "AN-ATTACK-FEASIBLE", DEFENDED: "AN-DEFENSE-CERTIFIED"}
    return {
        "enabled": True,
        "victims": sorted({cell.victim for cell in report.cells}),
        "attacks": sorted({cell.attack for cell in report.cells}),
        "defenses": sorted({cell.defense for cell in report.cells}),
        "matrix": [dict(sorted(asdict(cell).items())) for cell in report.cells],
        "findings": [
            {
                "attack": cell.attack,
                "defense": cell.defense,
                "fixit": ANALYSIS_RULES[rules[cell.verdict]][2],
                "message": cell.detail,
                "rule": rules[cell.verdict],
                "severity": ANALYSIS_RULES[rules[cell.verdict]][0],
                "victim": cell.victim,
                "witness": None if cell.witness is None else list(cell.witness),
            }
            for cell in report.cells
            if cell.verdict in rules
        ],
        "verdicts": {
            verdict: report.count(verdict)
            for verdict in (LEAKS, DEFENDED, UNKNOWN)
        },
    }
