"""Byte-stability regression tests for ``analyze --json`` (schema v3).

The analyze JSON document is consumed by the CI lint job and diffed by
downstream tooling, so it must be *byte*-stable: repeated runs emit the
identical document, the certify matrix is key- and cell-sorted, and the
``analyze/v3`` schema bump (which appended the ``certify`` section) left
every pre-existing v1/v2 field byte-identical.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.__main__ import main

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "analyze_builtin.json"


def _run_json(capsys, argv) -> tuple[str, dict]:
    assert main(argv) == 0
    out = capsys.readouterr().out
    return out, json.loads(out)


def test_certify_json_is_byte_stable_across_runs(capsys):
    first, _ = _run_json(capsys, ["analyze", "--certify", "--builtin", "--json"])
    second, _ = _run_json(capsys, ["analyze", "--certify", "--builtin", "--json"])
    assert first == second


def test_schema_is_v3_with_fixed_key_order(capsys):
    _, doc = _run_json(capsys, ["analyze", "--builtin", "--json"])
    assert doc["schema"] == "analyze/v3"
    assert list(doc) == [
        "schema",
        "checked",
        "errors",
        "programs",
        "timing",
        "cache",
        "certify",
    ]
    assert doc["certify"] == {"enabled": False}


def test_v2_fields_are_byte_identical_under_certify(capsys):
    """``--certify`` only appends: every other field serializes identically."""
    plain_text, plain = _run_json(capsys, ["analyze", "--builtin", "--json"])
    certified_text, certified = _run_json(
        capsys, ["analyze", "--certify", "--builtin", "--json"]
    )
    assert plain_text != certified_text  # certify section did change
    for key in ("schema", "checked", "errors", "programs", "timing", "cache"):
        assert json.dumps(plain[key]) == json.dumps(certified[key]), key


def test_certify_matrix_is_fully_sorted(capsys):
    _, doc = _run_json(capsys, ["analyze", "--certify", "--builtin", "--json"])
    certify = doc["certify"]
    assert certify["enabled"] is True
    matrix = certify["matrix"]
    assert matrix, "certify matrix is empty"
    for cell in matrix:
        assert list(cell) == sorted(cell), "cell keys must be alphabetical"
    order = [(c["victim"], c["attack"], c["defense"]) for c in matrix]
    assert order == sorted(order), "cells must sort by (victim, attack, defense)"
    for axis in ("victims", "attacks", "defenses"):
        assert certify[axis] == sorted(certify[axis]), axis


def test_certify_findings_reference_catalog_rules(capsys):
    _, doc = _run_json(capsys, ["analyze", "--certify", "--builtin", "--json"])
    rules = {f["rule"] for f in doc["certify"]["findings"]}
    assert rules <= {"AN-ATTACK-FEASIBLE", "AN-DEFENSE-CERTIFIED"}
    assert "AN-ATTACK-FEASIBLE" in rules
    assert "AN-DEFENSE-CERTIFIED" in rules


def test_certify_without_paths_or_builtin_is_allowed(capsys):
    _, doc = _run_json(capsys, ["analyze", "--certify", "--json"])
    assert doc["checked"] == 0
    assert doc["certify"]["enabled"] is True


def test_analyze_without_any_target_is_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["analyze"])
    assert "analyze needs .asm paths" in capsys.readouterr().err


def test_timing_certify_output_matches_golden(capsys):
    """``analyze --timing --certify --builtin --json`` is pinned byte for byte.

    The document is the same under any ``PYTHONHASHSEED``.  After an
    intended change to the analysis output, re-pin it from the repo root::

        PYTHONPATH=src python -m repro analyze --timing --certify --builtin \\
            --json > tests/golden/analyze_builtin.json
    """
    out, _ = _run_json(
        capsys, ["analyze", "--timing", "--certify", "--builtin", "--json"]
    )
    assert out == GOLDEN_PATH.read_text()
