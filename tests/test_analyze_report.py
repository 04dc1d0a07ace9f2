"""The ``analyze`` report tree, and the work one ``analyze`` run does.

``repro.analysis.report.build_report`` builds each requested program once
and keeps the analyzer's typed results; its text and JSON renderings are
pinned byte for byte by ``tests/test_cli_transcripts.py`` and
``tests/test_analyze_cli.py``.  The tests here pin the tree and the work
behind it: programs built, CFGs built and constant-address walks made.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys

from repro.__main__ import main
from repro.analysis import (
    analyze_program,
    cfg,
    dataflow,
    leak_map,
    leak_maps,
    secret_leak_union,
    secret_trials,
    taint,
)
from repro.analysis.report import BuildFailure, ProgramReport, build_report
from repro.attacks import base as attacks_base
from repro.isa import ProgramBuilder, assemble
from repro.runner import ATTACK_KINDS
from repro.workloads import base as workloads_base
from repro.workloads.crypto import get_victim

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

FIXTURES = tuple(
    f"tests/golden/analyze_{name}.asm"
    for name in ("bad_assembly", "findings", "secret")
)

#: ``tests/golden/analyze_secret.asm``'s probe array.
PROBE = dict(probe_base=0x2000000, scale=0x200, num_indices=16)


def _count_calls(monkeypatch, owner, name):
    """Count calls to ``owner.name``, through every ``repro`` module that
    imported it by name."""
    real = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counting)
    return calls


def _analyze(*argv):
    # A program cached by an earlier test would skip its build.
    workloads_base._build.cache_clear()
    attacks_base._programs.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["analyze", *argv])


def _secret_program():
    return assemble(
        (REPO_ROOT / FIXTURES[2]).read_text(encoding="utf-8"), "secret"
    )


def test_report_keeps_each_programs_typed_results(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    report = build_report(
        FIXTURES, builtin=False, taint=True, timing=True, certify=False
    )
    failure, findings, secret = report.entries
    assert failure == BuildFailure(
        FIXTURES[0], "line 4: unknown mnemonic 'frob'"
    )
    assert isinstance(findings, ProgramReport)
    assert findings.trials is None  # it declares no secret
    intervals, distinguisher = secret.trials
    assert tuple(intervals) == (0, 1, 2, 3)
    assert distinguisher.distinguishable
    assert secret.leak_maps is None  # leak maps are read for victims only
    assert report.errors == 1 + len(findings.analysis.errors()) == 3
    assert report.certification is None


def test_builtin_taint_builds_and_resolves_each_program_once(monkeypatch):
    builds = _count_calls(monkeypatch, ProgramBuilder, "build")
    walks = _count_calls(monkeypatch, dataflow, "constant_addresses")
    assert _analyze("--builtin", "--taint") == 0
    # 21 workloads, 8 attack programs and 5 victims.  Reading the victims'
    # leak maps off a second build made it 39; taint and timing each
    # resolving constant addresses made 78 walks.
    assert len(builds) == 34
    assert len(walks) == 34


def test_builtin_certify_builds_each_program_once(monkeypatch):
    builds = _count_calls(monkeypatch, ProgramBuilder, "build")
    assert _analyze("--builtin", "--certify") == 0
    # The 34 analysed programs and the certifier's 21, of which the three
    # Flush+Reload victim scenarios are the report's own: the certifier
    # reads them from the attack program memo.  Building them again made
    # 55 builds of 52 distinct programs.
    assert len(builds) == 52


def test_builtin_taint_timing_certify_builds_72_cfgs(monkeypatch):
    cfgs = _count_calls(monkeypatch, cfg, "build_cfg")
    assert _analyze("--builtin", "--taint", "--timing", "--certify") == 0
    # 34 analysed programs, one leak-map CFG per victim (5), the
    # certifier's 18 strict builds the report did not make and its 15
    # havoc unions.  Rebuilding the three Flush+Reload victim scenarios
    # made 75; a CFG per leak map and per secret walk made 457.
    assert len(cfgs) == 72


def test_analyze_program_resolves_constant_addresses_once(monkeypatch):
    walks = _count_calls(monkeypatch, dataflow, "constant_addresses")
    analyze_program(_secret_program())
    assert len(walks) == 1


def test_secret_trials_reads_a_strict_builds_taint(monkeypatch):
    victim = get_victim("aes-ttable")
    attack = ATTACK_KINDS["flush-reload"](
        victim="aes-ttable", num_indices=victim.num_indices, secret=0
    )
    (strict,) = [p for p in attack.build_programs() if p.taint_sources]
    assert strict.analysis is not None
    taints = _count_calls(monkeypatch, taint, "taint_analysis")
    secret_trials(strict, (0, 1))
    assert taints == []
    secret_trials(_secret_program(), (0, 1))
    assert len(taints) == 1


def test_a_16_secret_union_builds_one_cfg(monkeypatch):
    program = _secret_program()
    cfgs = _count_calls(monkeypatch, cfg, "build_cfg")
    assert secret_leak_union(program, 16, **PROBE) == tuple(range(16))
    assert len(cfgs) == 1
    maps = leak_maps(program, range(16), **PROBE)
    assert maps == {
        secret: leak_map(program, secret, **PROBE) for secret in range(16)
    }
