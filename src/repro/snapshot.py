"""Shared pieces of the simulator's snapshot/restore protocol.

Every state-bearing component (``Core``, ``Cache``, ``MSHRFile``,
``MemoryHierarchy``, the PREFENDER trackers, the prefetchers) implements

* ``snapshot() -> dict`` — a picture of *all* mutable state, deep enough
  that the component never aliases it afterwards (plural state is copied
  into flat tuples, never referenced), and
* ``restore(data: dict) -> None`` — the exact inverse, mutating the live
  component in place (hot-loop caches like ``Core._values`` hold direct
  references into component internals, so restore must never swap the
  referenced containers out).

``System.snapshot()/System.restore()`` compose the per-component dicts and
stamp them with :data:`SNAPSHOT_VERSION`.  Restore is strict: unknown or
missing fields and version mismatches raise
:class:`~repro.errors.SnapshotError` instead of silently corrupting state
(``tests/test_snapshot_parity.py`` proves restored systems cycle- and
counter-exact against never-snapshotted controls).

Snapshots are plain dicts of scalars and tuples — no JSON round-trip, no
copy.deepcopy — so taking and applying one costs a small fraction of a
single scenario trial.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import SnapshotError

__all__ = ["SNAPSHOT_VERSION", "require_keys"]

# Bump whenever any component's snapshot layout changes shape.
SNAPSHOT_VERSION = 2


def require_keys(data: dict, expected: Iterable[str], what: str) -> None:
    """Validate that ``data`` has exactly the ``expected`` keys.

    Args:
        data: a component snapshot dict.
        expected: the component's full key set.
        what: component name for the error message.

    Raises:
        SnapshotError: on a non-dict payload, unknown keys (likely a
            snapshot from a newer layout) or missing keys (a truncated or
            foreign snapshot).
    """
    if not isinstance(data, dict):
        raise SnapshotError(
            f"{what}: snapshot must be a dict, got {type(data).__name__}"
        )
    expected_set = frozenset(expected)
    actual = frozenset(data)
    if actual == expected_set:
        return
    unknown = sorted(actual - expected_set)
    missing = sorted(expected_set - actual)
    parts = []
    if unknown:
        parts.append(f"unknown field(s) {unknown}")
    if missing:
        parts.append(f"missing field(s) {missing}")
    raise SnapshotError(f"{what}: {', '.join(parts)}")
