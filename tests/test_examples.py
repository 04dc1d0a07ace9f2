"""Every script under ``examples/`` runs to completion.

Each script runs as its own process from the repo root, with ``src`` on
``PYTHONPATH``, and must exit 0.  The assembly playground's two Scale
Tracker decoys are pinned too: it prints them from a prefetch trace it
attaches itself.
"""

from __future__ import annotations

import functools
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


@functools.cache
def _run(script: pathlib.Path) -> subprocess.CompletedProcess[str]:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_every_example_is_run():
    assert [script.name for script in EXAMPLES] == [
        "assembly_playground.py",
        "cross_core_attack.py",
        "noisy_attacker.py",
        "performance_sweep.py",
        "quickstart.py",
        "spectre_attack.py",
    ]


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda script: script.name)
def test_example_exits_zero(script):
    completed = _run(script)
    assert completed.returncode == 0, completed.stderr


def test_playground_prints_both_decoys():
    lines = _run(REPO_ROOT / "examples" / "assembly_playground.py").stdout
    decoys = [line.strip() for line in lines.splitlines() if "st: line" in line]
    assert decoys == [
        "st: line of array index 11 (block 0x2001600)",
        "st: line of array index 13 (block 0x2001a00)",
    ]
