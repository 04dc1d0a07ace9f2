"""Byte-for-byte transcripts of the CLI commands that print results.

The attack-facing commands turn attack runs into printed verdicts:
``attack`` for each kind and challenge flag, the Table II ``ablation``,
``figure8`` and a tiny ``frontier`` grid.  The performance tables
(``table 4`` and ``table 6`` at scale 0.1) print the cycle-derived
speedups of many single-core simulations.  Each command is run in-process
through :func:`repro.__main__.main` and its exit code and stdout are
compared against ``tests/golden/cli_transcripts.json``, so a refactor of
the attack-job plumbing or of the simulator's dispatch cannot move a
single printed character.

Regenerate (only when an *intentional* output change lands)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_cli_transcripts.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib

import pytest

from repro.__main__ import main

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "cli_transcripts.json"

ALL_DEFENSES = "Base,ST,AT,ST+AT,AT+RP,FULL"

TRANSCRIPTS: tuple[tuple[str, ...], ...] = (
    ("attack", "flush-reload", "--defense", ALL_DEFENSES),
    ("attack", "evict-reload", "--defense", ALL_DEFENSES),
    ("attack", "prime-probe", "--defense", ALL_DEFENSES),
    ("attack", "evict-time", "--defense", "Base,FULL"),
    ("attack", "--name", "adversarial-prefetch", "--defense", "Base,AT,FULL"),
    ("attack", "flush-reload", "--defense", "AT,AT+RP,FULL", "--c3", "--c4"),
    ("attack", "prime-probe", "--defense", "AT,AT+RP,FULL", "--c3", "--c4"),
    ("attack", "flush-reload", "--defense", "Base,FULL", "--spectre"),
    ("attack", "flush-reload", "--defense", "Base,FULL", "--cross-core"),
    ("ablation",),
    ("figure8",),
    (
        "frontier",
        "--grid",
        "at_threshold=2,4;entries_per_buffer=4;st_max_prefetches=1",
        "--attacks",
        "flush-reload,prime-probe",
        "--workloads",
        "999.specrand",
        "--scale",
        "0.05",
    ),
    ("table", "4", "--scale", "0.1"),
    ("table", "6", "--scale", "0.1"),
)


def _name(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def _transcript(argv: tuple[str, ...]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue().splitlines()}


def _regen_requested() -> bool:
    return os.environ.get("REPRO_REGEN_GOLDEN", "") not in ("", "0")


@pytest.fixture(scope="module")
def golden() -> dict:
    if _regen_requested():
        recorded = {_name(argv): _transcript(argv) for argv in TRANSCRIPTS}
        GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    assert GOLDEN_PATH.exists(), (
        "golden file missing; record it with REPRO_REGEN_GOLDEN=1"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("argv", TRANSCRIPTS, ids=_name)
def test_cli_transcript_matches_golden(golden, argv):
    assert _transcript(argv) == golden[_name(argv)]


def test_golden_covers_every_transcript(golden):
    assert set(golden) == {_name(argv) for argv in TRANSCRIPTS}
