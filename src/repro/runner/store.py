"""On-disk JSON result store for cacheable simulation jobs.

One file per job key under ``benchmarks/results/cache/`` (or any directory
you point a :class:`ResultStore` at).  Each file records the key-schema
version, the result's type (``SimResult`` for a :class:`SimJob`,
``ScenarioProbe`` for every attack run), the job's full fingerprint (so a
human can see exactly which configuration produced it) and the result
payload.  A version bump, an unreadable file, a key mismatch or an unknown
result type (such as one an older checkout stored) all degrade to a cache
miss — the store can never serve a result for the wrong config.

Growth is bounded: pass ``max_bytes`` (``--store-max-mb`` on the CLI) and
the store evicts least-recently-used entries after every write.  "Used"
means read *or* written — :meth:`ResultStore.get` touches the file's
mtime on a hit, so hot entries survive frontier-scale sweeps while stale
ones age out.  :meth:`ResultStore.clear` remains the manual escape hatch.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
from typing import Any

from repro.errors import ConfigError
from repro.runner.job import KEY_VERSION, ScenarioProbe, SimResult, fingerprint

#: CLI default, relative to the invocation directory (documented in
#: ``python -m repro --help``); benchmarks/conftest.py creates it.
DEFAULT_CACHE_DIR = pathlib.Path("benchmarks") / "results" / "cache"

#: Result payload types the store can round-trip, keyed by the
#: ``result_kind`` field written into each entry.  Entries from before the
#: field existed are all SimResults, hence the lookup default in ``get``.
RESULT_TYPES = {"SimResult": SimResult, "ScenarioProbe": ScenarioProbe}


class ResultStore:
    """Content-keyed ``{key}.json`` files with hit/miss/eviction counters.

    Args:
        root: directory holding the entries (created on first write).
        max_bytes: optional size cap; when the entries' total size exceeds
            it after a write, least-recently-used files are deleted until
            the store fits again (the just-written entry is never evicted,
            so a single oversized result still caches).

    Attributes:
        hits / misses: lookup counters for this instance.
        evictions: entries deleted by the size cap for this instance.
    """

    def __init__(
        self, root: pathlib.Path | str, max_bytes: int | None = None
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ConfigError(f"store max_bytes must be > 0, got {max_bytes}")
        self.root = pathlib.Path(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Any:
        """Return the stored result for ``key``, or ``None`` on any miss.

        A hit refreshes the entry's mtime, which is the recency the size
        cap's LRU eviction ranks on.
        """
        path = self._path(key)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if data.get("version") != KEY_VERSION or data.get("key") != key:
            self.misses += 1
            return None
        result_cls = RESULT_TYPES.get(data.get("result_kind", "SimResult"))
        if result_cls is None:
            self.misses += 1
            return None
        try:
            result = result_cls.from_json(data["result"])
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path)  # mark as recently used for LRU eviction
        except OSError:  # pragma: no cover — entry raced away under us
            pass
        return result

    def put(self, key: str, job: object, result: Any) -> None:
        """Persist one result (then enforce the size cap, if any)."""
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": KEY_VERSION,
            "key": key,
            "result_kind": type(result).__name__,
            "job": fingerprint(job),
            "result": result.to_json(),
        }
        # Write-then-rename so a crashed run never leaves a torn file that
        # a later get() would have to classify.  The temporary name is unique
        # to this writer: processes sharing a store may put the same key at
        # once, and each must rename only its own complete file into place.
        tmp = self.root / f"{key}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
            os.replace(tmp, self._path(key))
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        if self.max_bytes is not None:
            self._evict(keep=self._path(key))

    def _evict(self, keep: pathlib.Path) -> None:
        """Delete LRU entries until the store fits ``max_bytes`` again."""
        cap = self.max_bytes
        if cap is None:  # pragma: no cover — only called when a cap is set
            return
        entries: list[tuple[float, str, pathlib.Path, int]] = []
        total = 0
        for path in self.root.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover — entry raced away under us
                continue
            entries.append((stat.st_mtime, path.name, path, stat.st_size))
            total += stat.st_size
        entries.sort()  # oldest mtime first; name breaks ties deterministically
        for _, _, path, size in entries:
            if total <= cap:
                return
            if path == keep:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover — entry raced away under us
                continue
            total -= size
            self.evictions += 1

    def clear(self) -> int:
        """Delete every stored result; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink()
                removed += 1
        return removed

    def size_bytes(self) -> int:
        """Total size of the stored entries (what ``max_bytes`` caps)."""
        if not self.root.is_dir():
            return 0
        return sum(path.stat().st_size for path in self.root.glob("*.json"))

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))
