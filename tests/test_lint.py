"""Determinism linter: every rule has a firing fixture and a clean twin."""

import subprocess
import sys
from pathlib import Path

from tools.lint.engine import lint_paths, lint_source
from tools.lint.rules import LINT_RULES

SIM = "src/repro/sim/model.py"  # inside the deterministic scope
MEM = "src/repro/mem/thing.py"  # inside the __slots__ scope
CONFIG = "src/repro/sim/config.py"  # inside the config tree
OUTSIDE = "src/repro/experiments/tables.py"  # outside the deterministic scope

REPO = Path(__file__).resolve().parent.parent


def rules_hit(source: str, relpath: str) -> list[str]:
    return [f.rule for f in lint_source(source, relpath, LINT_RULES)]


# -- DET101: unseeded randomness --------------------------------------------


def test_det101_flags_global_random():
    assert rules_hit("import random\nx = random.random()\n", SIM) == ["DET101"]


def test_det101_flags_seedless_random_instance():
    assert rules_hit("import random\nr = random.Random()\n", SIM) == ["DET101"]


def test_det101_flags_from_import():
    assert rules_hit("from random import choice\n", SIM) == ["DET101"]


def test_det101_clean_with_seeded_rng():
    src = "import random\nr = random.Random(1234)\nx = r.random()\n"
    assert rules_hit(src, SIM) == []


def test_det101_silent_outside_scope():
    assert rules_hit("import random\nx = random.random()\n", OUTSIDE) == []


# -- DET102: wall clock ------------------------------------------------------


def test_det102_flags_wall_clock():
    assert rules_hit("import time\nt = time.perf_counter()\n", SIM) == ["DET102"]


def test_det102_flags_datetime_now():
    src = "import datetime\nt = datetime.datetime.now()\n"
    assert rules_hit(src, SIM) == ["DET102"]


def test_det102_clean_with_simulated_clock():
    assert rules_hit("t = clock.now_cycles()\n", SIM) == []


# -- DET103: unsorted set iteration ------------------------------------------


def test_det103_flags_set_literal_iteration():
    assert rules_hit("for x in {1, 2}:\n    pass\n", SIM) == ["DET103"]


def test_det103_flags_tracked_set_name():
    src = "s = set()\nout = [x for x in s]\n"
    assert rules_hit(src, SIM) == ["DET103"]


def test_det103_clean_with_sorted():
    src = "s = set()\nout = [x for x in sorted(s)]\n"
    assert rules_hit(src, SIM) == []


# -- DET104: set-annotated parameter iteration --------------------------------

ANALYSIS = "src/repro/analysis/taint.py"  # inside the DET104 scope


def test_det104_flags_set_parameter_iteration():
    src = (
        "def transfer(tainted: frozenset[int]) -> list[int]:\n"
        "    return [r for r in tainted]\n"
    )
    assert rules_hit(src, ANALYSIS) == ["DET104"]


def test_det104_flags_for_loop_and_quoted_annotation():
    src = (
        "def walk(cells: 'set[int]') -> None:\n"
        "    for cell in cells:\n"
        "        pass\n"
    )
    assert rules_hit(src, ANALYSIS) == ["DET104"]


def test_det104_clean_with_sorted():
    src = (
        "def transfer(tainted: frozenset[int]) -> list[int]:\n"
        "    return [r for r in sorted(tainted)]\n"
    )
    assert rules_hit(src, ANALYSIS) == []


def test_det104_ignores_membership_and_other_params():
    src = (
        "def transfer(tainted: frozenset[int], regs: list[int]) -> list[int]:\n"
        "    return [r for r in regs if r in tainted]\n"
    )
    assert rules_hit(src, ANALYSIS) == []


def test_det104_silent_outside_analysis_scope():
    src = (
        "def transfer(tainted: frozenset[int]) -> list[int]:\n"
        "    return [r for r in tainted]\n"
    )
    assert rules_hit(src, SIM) == []


# -- SLOT201: hot-path __slots__ ---------------------------------------------


def test_slot201_flags_dictful_class():
    src = "class Line:\n    def __init__(self):\n        self.tag = 0\n"
    assert rules_hit(src, MEM) == ["SLOT201"]


def test_slot201_clean_with_slots():
    src = "class Line:\n    __slots__ = ('tag',)\n"
    assert rules_hit(src, MEM) == []


def test_slot201_clean_with_dataclass_slots():
    src = (
        "from dataclasses import dataclass\n"
        "@dataclass(slots=True)\n"
        "class Line:\n    tag: int\n"
    )
    assert rules_hit(src, MEM) == []


def test_slot201_exempts_exceptions():
    src = "class CacheError(Exception):\n    pass\n"
    assert rules_hit(src, MEM) == []


def test_slot201_silent_outside_scope():
    src = "class Line:\n    def __init__(self):\n        self.tag = 0\n"
    assert rules_hit(src, OUTSIDE) == []


# -- CFG301: JSON-round-trippable config fields ------------------------------


def test_cfg301_flags_non_json_field():
    src = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class TimingConfig:\n    hook: object\n"
    )
    assert rules_hit(src, CONFIG) == ["CFG301"]


def test_cfg301_clean_with_json_leaves():
    src = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class TimingConfig:\n"
        "    latency: int\n"
        "    name: str | None\n"
        "    levels: tuple[int, ...]\n"
        "    nested: CacheSpec\n"
    )
    assert rules_hit(src, CONFIG) == []


def test_cfg301_ignores_non_config_classes():
    src = "class Helper:\n    hook: object\n"
    assert rules_hit(src, CONFIG) == []


# -- POOL401: picklable pool submissions -------------------------------------


def test_pool401_flags_lambda():
    assert rules_hit("pool.run(lambda: 1)\n", SIM) == ["POOL401"]


def test_pool401_flags_nested_function():
    src = (
        "def outer(pool):\n"
        "    def inner():\n"
        "        return 1\n"
        "    pool.run(inner)\n"
    )
    assert rules_hit(src, SIM) == ["POOL401"]


def test_pool401_clean_with_module_level_callable():
    src = (
        "def job():\n    return 1\n"
        "def outer(pool):\n    pool.run(job)\n"
    )
    assert rules_hit(src, SIM) == []


# -- SNAP501: snapshot/restore field coverage ---------------------------------

SNAP_BAD = (
    "class Buffer:\n"
    "    __slots__ = ('capacity', '_items', 'drops')\n"
    "    def __init__(self):\n"
    "        self.capacity = 4\n"
    "        self._items = []\n"
    "        self.drops = 0\n"
    "    def push(self, item):\n"
    "        self._items.append(item)\n"
    "        self.drops += 1\n"
    "    def snapshot(self):\n"
    "        return {'items': tuple(self._items)}\n"
    "    def restore(self, data):\n"
    "        self._items[:] = data['items']\n"
)


def test_snap501_flags_uncovered_mutable_field():
    assert rules_hit(SNAP_BAD, MEM) == ["SNAP501"]


def test_snap501_clean_when_every_mutable_field_is_keyed():
    src = SNAP_BAD.replace(
        "return {'items': tuple(self._items)}",
        "return {'items': tuple(self._items), 'drops': self.drops}",
    )
    assert rules_hit(src, MEM) == []


def test_snap501_ignores_construction_only_config_fields():
    # `capacity` is assigned only in __init__: no snapshot key required.
    src = (
        "class Buffer:\n"
        "    __slots__ = ('capacity', '_items')\n"
        "    def __init__(self):\n"
        "        self.capacity = 4\n"
        "        self._items = []\n"
        "    def push(self, item):\n"
        "        self._items.append(item)\n"
        "    def snapshot(self):\n"
        "        return {'items': tuple(self._items)}\n"
    )
    assert rules_hit(src, MEM) == []


def test_snap501_counts_restore_keys_and_aggregate_reads():
    # `drops` is restored under its own key; `_stamps` is serialised
    # inside the 'sets' aggregate (read by snapshot, no key of its own).
    src = (
        "class Cache:\n"
        "    __slots__ = ('drops', '_stamps')\n"
        "    def __init__(self):\n"
        "        self.drops = 0\n"
        "        self._stamps = [[]]\n"
        "    def tick(self):\n"
        "        self.drops += 1\n"
        "        self._stamps[0] = [1]\n"
        "    def snapshot(self):\n"
        "        return {'sets': tuple(tuple(s) for s in self._stamps)}\n"
        "    def restore(self, data):\n"
        "        require_keys(data, ('sets', 'drops'), 'Cache')\n"
    )
    assert rules_hit(src, MEM) == []


def test_snap501_flags_a_field_changed_through_a_local_alias():
    # `_counts` is only ever changed through `counts`, a local bound from it.
    src = (
        "class Log:\n"
        "    __slots__ = ('_counts', '_seen')\n"
        "    def __init__(self):\n"
        "        self._counts = [{}]\n"
        "        self._seen = []\n"
        "    def bump(self, core, key):\n"
        "        counts = self._counts[core]\n"
        "        counts[key] = counts.get(key, 0) + 1\n"
        "    def see(self, item):\n"
        "        seen = self._seen\n"
        "        seen.append(item)\n"
        "    def snapshot(self):\n"
        "        return {'seen': tuple(self._seen)}\n"
    )
    findings = lint_source(src, MEM, LINT_RULES)
    assert [(f.rule, f.line) for f in findings] == [("SNAP501", 8)]
    assert "Log._counts" in findings[0].message


def test_snap501_ignores_plain_and_tuple_snapshot_classes():
    # No __slots__/dataclass fields, and a non-dict snapshot protocol:
    # both shapes are out of the rule's scope.
    src = (
        "class Plain:\n"
        "    def __init__(self):\n"
        "        self.x = 0\n"
        "    def bump(self):\n"
        "        self.x += 1\n"
        "    def snapshot(self):\n"
        "        return {'y': 0}\n"
        "class Tupled:\n"
        "    __slots__ = ('x',)\n"
        "    def bump(self):\n"
        "        self.x += 1\n"
        "    def snapshot(self):\n"
        "        return (self.x,)\n"
    )
    assert rules_hit(src, SIM) == []


# -- PURE601: analysis purity -------------------------------------------------


def test_pure601_flags_attribute_store_on_program():
    src = (
        "def annotate(program):\n"
        "    program.analysis = None\n"
    )
    assert rules_hit(src, ANALYSIS) == ["PURE601"]


def test_pure601_flags_mutator_call_on_annotated_input():
    src = (
        "def scrub(p: Program) -> None:\n"
        "    p.taint_sources.clear()\n"
    )
    assert rules_hit(src, ANALYSIS) == ["PURE601"]


def test_pure601_flags_subscript_store_on_decoded():
    src = (
        "def patch(decoded):\n"
        "    decoded[0] = None\n"
    )
    assert rules_hit(src, ANALYSIS) == ["PURE601"]


def test_pure601_clean_when_analysis_only_reads():
    src = (
        "def walk(program):\n"
        "    out = [len(program)]\n"
        "    out.append(program.name)\n"
        "    return out\n"
    )
    assert rules_hit(src, ANALYSIS) == []


def test_pure601_clean_on_copies_and_other_params():
    src = (
        "def havoc(state, memory):\n"
        "    fresh = state.copy()\n"
        "    fresh._must.pop(0, None)\n"
        "    memory[4] = 1\n"
        "    return fresh\n"
    )
    assert rules_hit(src, ANALYSIS) == []


def test_pure601_flags_program_reader_outside_analysis():
    # Every package but isa/ reads programs that other jobs share.
    src = (
        "def run(program):\n"
        "    program.instructions.append(None)\n"
    )
    assert rules_hit(src, "src/repro/cpu/thing.py") == ["PURE601"]


def test_pure601_silent_outside_analysis_scope():
    # isa/ builds programs, so it is the one package that may edit them.
    src = (
        "def annotate(program):\n"
        "    program.analysis = None\n"
    )
    assert rules_hit(src, "src/repro/isa/thing.py") == []


# -- suppressions -------------------------------------------------------------


def test_line_suppression():
    src = "import time\nt = time.perf_counter()  # lint: allow DET102\n"
    assert rules_hit(src, SIM) == []


def test_line_suppression_is_rule_specific():
    src = "import time\nt = time.perf_counter()  # lint: allow DET101\n"
    assert rules_hit(src, SIM) == ["DET102"]


def test_file_suppression():
    src = (
        "# lint: allow-file DET102\n"
        "import time\n"
        "a = time.perf_counter()\n"
        "b = time.monotonic()\n"
    )
    assert rules_hit(src, SIM) == []


# -- the repo itself and the CLI ---------------------------------------------


def test_src_repro_is_lint_clean():
    assert lint_paths(REPO, ["src/repro"], LINT_RULES) == []


def test_cli_exits_nonzero_on_findings(tmp_path):
    bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nx = random.random()\n")
    proc = subprocess.run(
        [sys.executable, "-m", "tools.lint", "--root", str(tmp_path), "src"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "DET101" in proc.stdout


def test_cli_lists_rules():
    proc = subprocess.run(
        [sys.executable, "-m", "tools.lint", "--list-rules"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for rule in LINT_RULES:
        assert rule.rule_id in proc.stdout
