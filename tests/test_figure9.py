"""Byte-for-byte text of Figure 9, the prefetches over time of each attack.

Figure 9 is the one experiment that reads the time of every issued
prefetch, so this pins both of its panel sets (a-c: ST+AT under C1+C2;
d-f: FULL under C1+C2+C3+C4) against ``tests/golden/figure9.txt``: a
change to how the hierarchy records prefetches cannot move one plotted
point unnoticed.

Regenerate (only when an *intentional* output change lands)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_figure9.py
"""

from __future__ import annotations

import os
import pathlib

from repro.experiments import figure9

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "golden" / "figure9.txt"


def _figure9_text() -> str:
    return "\n\n".join(
        figure9.render(figure9.run(noisy=noisy)) for noisy in (False, True)
    ) + "\n"


def _regen_requested() -> bool:
    return os.environ.get("REPRO_REGEN_GOLDEN", "") not in ("", "0")


def test_figure9_matches_golden():
    text = _figure9_text()
    if _regen_requested():
        GOLDEN_PATH.write_text(text)
    assert GOLDEN_PATH.exists(), (
        "golden file missing; record it with REPRO_REGEN_GOLDEN=1"
    )
    assert text == GOLDEN_PATH.read_text()
