"""Static analysis over decoded ISA programs.

Two consumers drive this package:

* ``Program.finalize(strict=True)`` — every built-in workload, crypto
  victim and attacker snippet is analysed at build time, so a branch to
  nowhere or a guaranteed-infinite loop fails the *build*, not a 20M-step
  simulation later;
* ``python -m repro analyze`` — the CLI front-end that reports findings
  with source line numbers for ``.asm`` files and registered workloads.

The analysis is pure: it reads the decode tuples produced by
:mod:`repro.isa.decode` and never touches simulator state, so it adds
zero timing drift (``tests/test_golden_parity.py`` is unaffected).

:class:`ProgramAnalysis` also exports the raw substrate — basic blocks,
per-register liveness, the static memory footprint — for later consumers
(the ROADMAP's closure-compiled per-program step functions need exactly
these).
"""

from repro.analysis.analyzer import (
    ANALYSIS_RULES,
    Finding,
    ProgramAnalysis,
    analyze_program,
    render_findings,
)
from repro.analysis.cachemodel import (
    CacheGeometry,
    CacheState,
    HierarchyState,
    LatencyInterval,
)
from repro.analysis.cfg import EXIT, BasicBlock, ControlFlowGraph, build_cfg
from repro.analysis.defense import (
    COVERAGE_CERTAIN,
    COVERAGE_NONE,
    COVERAGE_POSSIBLE,
    DefenseModel,
    apply_havoc,
    defense_labels,
    defense_model,
    havoc_reach,
    scale_trigger_satisfiable,
)
from repro.analysis.footprint import BlockFootprint, SegmentRange
from repro.analysis.scenario import (
    DEFENDED,
    LEAKS,
    UNKNOWN,
    CellCertificate,
    CertificationReport,
    certify,
    certify_grid,
)
from repro.analysis.taint import (
    KNOWN_SECRET_ADDRS,
    AccessTaint,
    TaintAnalysis,
    leak_map,
    secret_leak_union,
    taint_analysis,
    taint_of_program,
)
from repro.analysis.timing import (
    CycleInterval,
    DistinguisherReport,
    TimingAnalysis,
    analyze_timing,
    cache_distinguishers,
    cycle_bounds,
    timing_map,
    trial_intervals,
)

__all__ = [
    "ANALYSIS_RULES",
    "AccessTaint",
    "BasicBlock",
    "BlockFootprint",
    "COVERAGE_CERTAIN",
    "COVERAGE_NONE",
    "COVERAGE_POSSIBLE",
    "CacheGeometry",
    "CacheState",
    "CellCertificate",
    "CertificationReport",
    "ControlFlowGraph",
    "CycleInterval",
    "DEFENDED",
    "DefenseModel",
    "DistinguisherReport",
    "EXIT",
    "Finding",
    "HierarchyState",
    "KNOWN_SECRET_ADDRS",
    "LEAKS",
    "LatencyInterval",
    "ProgramAnalysis",
    "SegmentRange",
    "TaintAnalysis",
    "TimingAnalysis",
    "UNKNOWN",
    "analyze_program",
    "analyze_timing",
    "apply_havoc",
    "build_cfg",
    "cache_distinguishers",
    "certify",
    "certify_grid",
    "cycle_bounds",
    "defense_labels",
    "defense_model",
    "havoc_reach",
    "leak_map",
    "render_findings",
    "scale_trigger_satisfiable",
    "secret_leak_union",
    "taint_analysis",
    "taint_of_program",
    "timing_map",
    "trial_intervals",
]
