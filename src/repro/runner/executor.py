"""Batch execution of simulation jobs across CPU cores.

``run_batch`` takes the *full* grid of jobs an experiment declares up
front, deduplicates them by content key, satisfies what it can from the
optional disk store, and shards the rest across the worker processes of a
:class:`~repro.runner.pool.WorkerPool`: one opened and closed inside the
call (``python -m repro table 4 --jobs 4``), or a caller-owned pool whose
warm workers are reused across successive calls (``python -m repro
frontier``).  Results always come back in input order, so a parallel table
regeneration is byte-identical to a sequential one.

A batch run inline (one worker, no pool) runs inside
:func:`~repro.runner.job.shared_runs`: a :class:`~repro.runner.job.SimJob`
whose effective key an earlier job of the same batch already simulated
gets a copy of that result.  Table IV's 16/32/64-buffer columns are such
jobs, because no bundled program has more than 4 load PCs.  Each job still
makes its own ``run()`` call; the table is dropped when the batch returns,
and a pool's workers simulate every job.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import ConfigError
from repro.runner.job import ScenarioJob, shared_runs
from repro.runner.pool import WorkerPool, default_workers
from repro.runner.store import ResultStore

__all__ = ["default_workers", "run_batch"]


#: Don't split a replay group below this many trials: each chunk repeats
#: the cell's warm-up, so tiny chunks trade shared prefix for parallelism.
_MIN_GROUP_CHUNK = 4


def run_batch(
    jobs: Iterable[Any],
    workers: int = 1,
    store: ResultStore | None = None,
    pool: WorkerPool | None = None,
    reuse_snapshots: bool = False,
) -> list[Any]:
    """Run a batch of jobs; results are returned in input order.

    Args:
        jobs: sequence of :class:`~repro.runner.job.SimJob` /
            :class:`~repro.runner.job.ScenarioJob` (anything with
            ``key()``, ``run()`` and a ``cacheable`` flag).  Duplicate keys
            are run once and the result shared; inline, sim jobs with
            equal effective keys share one simulation (see above).
        workers: process count; ``1`` runs inline (no pool), ``0`` means
            one worker per CPU core.  Ignored when ``pool`` is given.
        store: optional on-disk store consulted before running and updated
            after, for ``cacheable`` jobs only; its size cap is enforced
            once, after the batch's writes.
        pool: optional persistent :class:`~repro.runner.pool.WorkerPool`;
            its warm workers execute the batch (and stay alive for the
            caller's next batch) instead of a pool forked for this call.
        reuse_snapshots: serve eligible ``ScenarioJob`` trials off one
            warmed system snapshot per (attack, victim, defense) cell
            (:mod:`repro.attacks.replay`) instead of rebuilding the system
            for every trial.  Probes are byte-identical to the rebuild
            path (``tests/test_scenarios.py`` pins this); ineligible jobs
            fall back to their own ``run()`` transparently.

    Returns:
        One result per input job, in input order.
    """
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        workers = default_workers()
    jobs = list(jobs)
    keys = [job.key() for job in jobs]

    results: dict[str, Any] = {}
    pending: list[tuple[str, Any]] = []
    pending_keys: set[str] = set()
    for key, job in zip(keys, jobs):
        if key in results or key in pending_keys:
            continue
        if store is not None and job.cacheable:
            cached = store.get(key)
            if cached is not None:
                results[key] = cached
                continue
        pending_keys.add(key)
        pending.append((key, job))

    # Each unit is (member keys, runnable, is_group): a plain job carries
    # one key and returns one result; a ScenarioReplayJob group carries its
    # members' keys and returns one result per member, fanned back out
    # below.
    target_tasks = pool.workers if pool is not None else workers
    units = _plan_units(pending, reuse_snapshots, target_tasks)

    runnables = [runnable for _, runnable, _ in units]
    if pool is not None:
        outputs = pool.run(runnables)
    elif workers == 1 or len(units) <= 1:
        with shared_runs():
            outputs = [runnable.run() for runnable in runnables]
    else:
        with WorkerPool(min(workers, len(units))) as call_pool:
            outputs = call_pool.run(runnables)

    for (unit_keys, _, is_group), output in zip(units, outputs):
        if is_group:
            for key, result in zip(unit_keys, output):
                results[key] = result
        else:
            results[unit_keys[0]] = output

    if store is not None:
        written = [(key, job) for key, job in pending if job.cacheable]
        for key, job in written:
            store.put(key, job, results[key])
        if written:
            store.evict(keep=written[-1][0])

    return [results[key] for key in keys]


def _plan_units(
    pending: list[tuple[str, Any]], reuse_snapshots: bool, target_tasks: int
) -> list[tuple[list[str], Any, bool]]:
    """Schedule pending jobs into executable units.

    Without snapshot reuse every job is its own unit.  With it, eligible
    scenario trials are grouped by cell (same attack × victim × defense,
    secrets neutralised out of the key) into :class:`ScenarioReplayJob`
    tasks; oversized groups split so at least ``target_tasks`` units exist
    when the trial counts allow — each chunk re-runs the cell's warm-up,
    so chunks never shrink below ``_MIN_GROUP_CHUNK`` trials.
    """
    if not reuse_snapshots:
        return [([key], job, False) for key, job in pending]
    # Imported lazily: the replay module pulls in the attack registry,
    # which plain (non-scenario) batches never need.
    from repro.attacks.replay import (
        ScenarioReplayJob,
        replay_cell,
        replay_eligible,
        replay_group_key,
    )

    # Trials are gathered by the cheap replay_cell first, and each cell is
    # keyed once; cells whose group keys match merge, so the groups are
    # exactly those of replay_group_key, members in input order.
    cells: dict[tuple[Any, ...], list[tuple[int, str, Any]]] = {}
    units: list[tuple[list[str], Any, bool]] = []
    for position, (key, job) in enumerate(pending):
        if isinstance(job, ScenarioJob) and replay_eligible(job):
            cells.setdefault(replay_cell(job), []).append((position, key, job))
        else:
            units.append(([key], job, False))
    merged: dict[str, list[tuple[int, str, Any]]] = {}
    for members in cells.values():
        merged.setdefault(replay_group_key(members[0][2]), []).extend(members)
    groups = [
        [(key, job) for _, key, job in sorted(members, key=lambda m: m[0])]
        for members in merged.values()
    ]
    chunks = _split_groups(groups, target_tasks - len(units))
    for chunk in chunks:
        units.append(
            (
                [key for key, _ in chunk],
                ScenarioReplayJob(tuple(job for _, job in chunk)),
                True,
            )
        )
    return units


def _split_groups(
    groups: list[list[tuple[str, Any]]], target: int
) -> list[list[tuple[str, Any]]]:
    """Halve the largest group until ``target`` tasks exist (or nothing
    splittable remains); keeps all workers busy on few-cell grids."""
    while len(groups) < target:
        largest = max(groups, key=len, default=None)
        if largest is None or len(largest) < 2 * _MIN_GROUP_CHUNK:
            break
        groups.remove(largest)
        middle = len(largest) // 2
        groups.extend([largest[:middle], largest[middle:]])
    return groups
