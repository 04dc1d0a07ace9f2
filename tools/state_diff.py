"""Deep field-by-field state comparison for simulator objects.

``state_diff(a, b)`` walks two object graphs in lockstep — ``__slots__``
and instance ``__dict__`` attributes, dataclass fields, dicts, lists,
tuples and sets — and returns a list of human-readable divergence paths
like ``core[1].l1._sets[3][65728].dirty: True != False``.  An empty list means
the two graphs are field-for-field identical.

The walk skips configuration and topology that is immutable for a given
system (program text, decode caches, compiled blocks, geometry constants)
and back-references (``Core.hierarchy``, ``Cache.parent``) that would
otherwise make every comparison traverse the whole system from every node.
Plain dicts compare order-insensitively (key set + per-key values);
``collections.OrderedDict`` compares key *order* too, and so do the dicts
under the fields named in :data:`ORDERED_FIELDS` (a cache set's key order
is its LRU order).  Other behavioural order
dependence hiding in plain dicts (e.g. a FIFO keyed on insertion order) is
covered differentially instead: the parity harness also runs both systems
onward and compares their final digests, so an order divergence that
matters cannot stay silent.

``diff_systems(a, b)`` is the entry point for two ``System`` objects; it
roots the paths at ``core[i]`` / ``core[i].l1`` / ``l2`` / ``memory`` so a
report reads like the architecture, not like attribute soup.

Used by ``tests/test_snapshot_parity.py``; importable from the repo root
(``from tools.state_diff import diff_systems``).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from itertools import chain
from typing import Any

DEFAULT_LIMIT = 50

#: Attribute names never walked, on any object: immutable configuration,
#: derived caches, callables and back-references.
GLOBAL_SKIP = frozenset(
    {
        "program",
        "config",
        "hierarchy",
        "amap",
        "parent",
        "on_evict",
        "_decoded",
        "_port",
        "_memory",
        "_active",
    }
)

#: Per-class skips: aliases that would double-report real state walked
#: elsewhere (``Core._values`` aliases ``Core.regs._values``), the
#: per-core mirrors of immutable :class:`CoreConfig` fields, which may
#: legitimately differ between two systems being compared differentially
#: (e.g. countdown fusion on vs off) without being *state*, and the two
#: compiled block tables, which are derived from the program and the
#: config (empty with fusion off; the lone-core one is built on first use).
PER_CLASS_SKIP: dict[str, frozenset[str]] = {
    "Core": frozenset(
        {
            "_values",
            "_tracks",
            "_blocks",
            "_lone_blocks",
            "core_id",
            "_program_len",
            "_scale_cap",
            "_base_cost",
            "_mul_cost",
            "_branch_cost",
            "_load_hide",
            "_fuse_loops",
            "_spec_enabled",
            "_resolve_delay",
            "_predictor_entries",
            "_spec_window",
        }
    ),
}

#: Per-class fields whose dicts (at any depth) hold state in their key
#: order, compared like ``OrderedDict``: a ``Cache`` set lists its lines
#: least recently used first.
ORDERED_FIELDS: dict[str, frozenset[str]] = {"Cache": frozenset({"_sets"})}

_LEAF_TYPES = (int, float, complex, str, bytes, bool, type(None))


def state_diff(
    a: Any, b: Any, path: str = "state", limit: int = DEFAULT_LIMIT
) -> list[str]:
    """Return divergence paths between two object graphs (empty = equal)."""
    out: list[str] = []
    _walk(a, b, path, out, set(), limit)
    return out


def diff_systems(a: Any, b: Any, limit: int = DEFAULT_LIMIT) -> list[str]:
    """``state_diff`` over two ``System`` objects with architectural paths."""
    out: list[str] = []
    visited: set[tuple[int, int]] = set()
    if len(a.cores) != len(b.cores):
        return [f"system: {len(a.cores)} core(s) != {len(b.cores)}"]
    ha, hb = a.hierarchy, b.hierarchy
    for i, (ca, cb) in enumerate(zip(a.cores, b.cores)):
        _walk(ca, cb, f"core[{i}]", out, visited, limit)
    for i, (la, lb) in enumerate(zip(ha.l1ds, hb.l1ds)):
        _walk(la, lb, f"core[{i}].l1", out, visited, limit)
    _walk(ha.l2, hb.l2, "l2", out, visited, limit)
    _walk(ha.memory, hb.memory, "memory", out, visited, limit)
    _walk(
        ha._prefetch_counts,
        hb._prefetch_counts,
        "prefetch_counts",
        out,
        visited,
        limit,
    )
    _walk(ha._exclusive, hb._exclusive, "exclusive", out, visited, limit)
    _walk(
        ha.ownership_steals,
        hb.ownership_steals,
        "ownership_steals",
        out,
        visited,
        limit,
    )
    for i in range(ha.num_cores):
        _walk(
            ha._prefetchers.get(i),
            hb._prefetchers.get(i),
            f"core[{i}].prefetcher",
            out,
            visited,
            limit,
        )
    return out


def _walk(
    a: Any,
    b: Any,
    path: str,
    out: list[str],
    visited: set[tuple[int, int]],
    limit: int,
    ordered: bool = False,
) -> None:
    if len(out) >= limit:
        return
    if a is b:
        return
    if type(a) is not type(b):
        out.append(
            f"{path}: type {type(a).__name__} != {type(b).__name__}"
        )
        return
    if isinstance(a, _LEAF_TYPES):
        if a != b:
            out.append(f"{path}: {a!r} != {b!r}")
        return
    key = (id(a), id(b))
    if key in visited:
        return
    visited.add(key)
    if isinstance(a, dict):
        _walk_dict(a, b, path, out, visited, limit, ordered)
        return
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
            return
        for i, (xa, xb) in enumerate(zip(a, b)):
            _walk(xa, xb, f"{path}[{i}]", out, visited, limit, ordered)
        return
    if isinstance(a, (set, frozenset)):
        only_a, only_b = a - b, b - a
        if only_a or only_b:
            out.append(
                f"{path}: set differs (+{sorted(only_a)!r} -{sorted(only_b)!r})"
            )
        return
    if callable(a) and not _fields_of(a):
        return
    fields = _fields_of(a)
    if not fields:
        # Opaque object with no walkable fields: fall back to ==.
        if a != b:
            out.append(f"{path}: {a!r} != {b!r}")
        return
    skip = PER_CLASS_SKIP.get(type(a).__name__, frozenset())
    ordered_fields = ORDERED_FIELDS.get(type(a).__name__, frozenset())
    for name in fields:
        if name in GLOBAL_SKIP or name in skip:
            continue
        missing = object()
        xa = getattr(a, name, missing)
        xb = getattr(b, name, missing)
        if xa is missing or xb is missing:
            if xa is not xb:
                out.append(f"{path}.{name}: present on only one side")
            continue
        if callable(xa) and callable(xb):
            continue
        _walk(
            xa, xb, f"{path}.{name}", out, visited, limit, name in ordered_fields
        )


def _walk_dict(
    a: dict,
    b: dict,
    path: str,
    out: list[str],
    visited: set,
    limit: int,
    ordered: bool = False,
) -> None:
    if a.keys() != b.keys():
        only_a = sorted(map(repr, a.keys() - b.keys()))
        only_b = sorted(map(repr, b.keys() - a.keys()))
        out.append(f"{path}: keys differ (+{only_a} -{only_b})")
        return
    if (ordered or isinstance(a, OrderedDict)) and tuple(a) != tuple(b):
        out.append(f"{path}: key order differs")
        return
    for k in a:
        _walk(a[k], b[k], f"{path}[{k!r}]", out, visited, limit)


def _fields_of(obj: Any) -> tuple[str, ...]:
    """Walkable attribute names: dataclass fields, __slots__, __dict__."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return tuple(f.name for f in dataclasses.fields(obj))
    names: list[str] = []
    seen: set[str] = set()
    for klass in type(obj).__mro__:
        slots = getattr(klass, "__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name not in seen:
                seen.add(name)
                names.append(name)
    instance_dict = getattr(obj, "__dict__", None)
    if instance_dict:
        for name in instance_dict:
            if name not in seen:
                seen.add(name)
                names.append(name)
    return tuple(names)
