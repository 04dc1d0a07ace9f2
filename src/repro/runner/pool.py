"""Persistent warm worker pool for simulation batches.

:func:`~repro.runner.executor.run_batch` runs every parallel batch on a
:class:`WorkerPool`.  Without ``pool=`` it opens one for the call and
closes it afterwards — fine for one big table, wasteful for a frontier
sweep that submits many small batches in a row, where each batch would pay
full fork/startup cost again.  Such a caller keeps one pool open and
passes it to every call, so a fixed set of worker processes stays alive
across batches: jobs travel to workers over a task queue, results come
back over a result queue tagged with their submission index, so every
batch returns results in input order and the output stays byte-identical
to a sequential run.

Typical use (the ``frontier`` CLI command does exactly this)::

    from repro.runner import WorkerPool, run_batch

    with WorkerPool(workers=4) as pool:
        security = run_batch(attack_jobs, store=store, pool=pool)
        perf = run_batch(sim_jobs, store=store, pool=pool)  # same workers

Workers are spawned lazily on the first batch and reused until
:meth:`WorkerPool.close` (or the ``with`` block) ends them; they are
daemonic, so an abandoned pool can never keep the interpreter alive.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover — typing-only imports
    from multiprocessing.process import BaseProcess
    from multiprocessing.queues import Queue as MPQueue

#: Seconds between liveness checks while waiting on batch results.  Only
#: matters if a worker dies abnormally (e.g. OOM-killed) mid-batch; normal
#: batches never wait this long between result arrivals.
_POLL_INTERVAL = 1.0


def default_workers() -> int:
    """Worker count when the caller asks for ``--jobs 0`` (= all cores)."""
    return max(1, os.cpu_count() or 1)


def _worker_loop(
    tasks: "MPQueue[tuple[int, Any] | None]",
    results: "MPQueue[tuple[int, bool, Any]]",
) -> None:
    """Worker process body: run jobs off ``tasks`` until the ``None`` sentinel.

    Each task is ``(index, job)``; each result is ``(index, ok, payload)``
    where ``payload`` is the job's return value or, on failure, the raised
    exception (re-wrapped in a ``RuntimeError`` carrying its repr if the
    original does not pickle).
    """
    while True:
        item = tasks.get()
        if item is None:
            return
        index, job = item
        try:
            payload = (index, True, job.run())
        except Exception as exc:  # noqa: BLE001 — forwarded to the parent
            try:
                pickle.dumps(exc)
            except Exception:  # noqa: BLE001 — unpicklable exception
                exc = RuntimeError(f"job failed in pool worker: {exc!r}")
            payload = (index, False, exc)
        results.put(payload)


class WorkerPool:
    """Long-lived worker processes shared by successive job batches.

    Args:
        workers: number of worker processes; ``0`` means one per CPU core
            (like ``--jobs 0`` on the CLI).  Negative counts are a
            :class:`~repro.errors.ConfigError`.

    Attributes:
        workers: resolved worker count.
        batches: number of completed :meth:`run` calls (tests use this to
            prove reuse).
    """

    def __init__(self, workers: int = 0) -> None:
        if workers < 0:
            raise ConfigError(f"pool workers must be >= 0, got {workers}")
        self.workers = workers or default_workers()
        self.batches = 0
        self._context = multiprocessing.get_context()
        self._tasks: "MPQueue[tuple[int, Any] | None]" = self._context.Queue()
        self._results: "MPQueue[tuple[int, bool, Any]]" = self._context.Queue()
        self._processes: list["BaseProcess"] = []
        self._closed = False

    # -- lifecycle ----------------------------------------------------------------

    def _ensure_workers(self) -> None:
        """Spawn the workers on first use (lazy, so an unused pool is free)."""
        if self._processes:
            return
        for _ in range(self.workers):
            process = self._context.Process(
                target=_worker_loop,
                args=(self._tasks, self._results),
                daemon=True,
            )
            process.start()
            self._processes.append(process)

    def pids(self) -> list[int | None]:
        """PIDs of the live workers (empty before the first batch)."""
        return [process.pid for process in self._processes]

    def alive(self) -> bool:
        """True when every spawned worker process is still running."""
        return bool(self._processes) and all(
            process.is_alive() for process in self._processes
        )

    def close(self) -> None:
        """Send every worker its shutdown sentinel and join them (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for _ in self._processes:
            self._tasks.put(None)
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover — stuck worker
                process.terminate()
        self._processes.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution ----------------------------------------------------------------

    def run(self, jobs: Iterable[Any]) -> list[Any]:
        """Run ``jobs`` on the (reused) workers; results in input order.

        The whole batch is drained even when a job raises, so a failure
        never leaves stale tasks behind for the next batch; the earliest
        failing job's exception is then re-raised here.  If a *worker*
        dies mid-batch (e.g. OOM-killed) the queues can no longer be
        trusted, so the pool marks itself closed before raising — a fresh
        pool is the only safe recovery.
        """
        if self._closed:
            raise ConfigError("cannot run jobs on a closed WorkerPool")
        jobs = list(jobs)
        if not jobs:
            return []
        self._ensure_workers()
        for item in enumerate(jobs):
            self._tasks.put(item)
        results: list[Any] = [None] * len(jobs)
        errors: dict[int, Exception] = {}
        collected = 0
        while collected < len(jobs):
            try:
                index, ok, payload = self._results.get(timeout=_POLL_INTERVAL)
            except queue.Empty:
                if not self.alive():
                    # Stale tasks/results may linger in the queues; poison
                    # the pool so no later batch can collect them.
                    self._closed = True
                    for process in self._processes:
                        if process.is_alive():
                            process.terminate()
                    self._processes.clear()
                    raise RuntimeError(
                        "a pool worker died mid-batch; results are "
                        "incomplete and the pool is closed"
                    ) from None
                continue
            if ok:
                results[index] = payload
            else:
                errors[index] = payload
            collected += 1
        self.batches += 1
        if errors:
            raise errors[min(errors)]
        return results
