"""Shared experiment configuration and helpers.

Two standard cores:

* ``PERF_CORE`` — the performance-evaluation core (Tables IV/V/VI, Figs.
  10-12): an OoO-like window hides up to 110 cycles of load latency.
* security runs use the default blocking core (attacks serialise their
  measurements anyway, so the distinction only affects wall-clock).

Security experiments use 8 access buffers so the C3 noise (12 distinct
load PCs) genuinely thrashes the Access Tracker, as in the paper's
challenge construction; performance experiments use the paper's 16/32/64
sweep.

Memoisation note: runs are cached by the runner's *lossless* content key
(:func:`repro.runner.job_key`), which hashes every field of the full
``SystemConfig`` tree.  The previous hand-written tuple key encoded only
``(kind, st, at, rp, num_access_buffers)`` and rebuilt everything else
from defaults, so sweeps over ``at_threshold``, ``entries_per_buffer``,
``st_max_prefetches``, … silently shared cycle counts across different
configurations.  ``tests/test_runner.py`` pins the fix.
"""

from __future__ import annotations

from repro.core.config import PrefenderConfig
from repro.cpu.core import CoreConfig
from repro.runner import ResultStore, SimJob, SimResult, run_batch
from repro.sim.config import PrefetcherSpec, SystemConfig

PERF_CORE = CoreConfig(load_hide_cycles=110)

SECURITY_BUFFERS = 8

BASELINE_SPEC = PrefetcherSpec(kind="none")

#: Every defense column label `security_spec` resolves (the CLI's
#: --defense/--defenses choices).
DEFENSES = ("Base", "ST", "AT", "ST+AT", "AT+RP", "FULL")


def security_prefender(variant: str) -> PrefenderConfig:
    """PREFENDER variant configs used in Fig. 8 (8 access buffers)."""
    variants = {
        "ST": PrefenderConfig.st_only(),
        "AT": PrefenderConfig.at_only().with_buffers(SECURITY_BUFFERS),
        "ST+AT": PrefenderConfig.st_at(SECURITY_BUFFERS),
        "AT+RP": PrefenderConfig.at_rp().with_buffers(SECURITY_BUFFERS),
        "FULL": PrefenderConfig.full(SECURITY_BUFFERS),
    }
    return variants[variant]


def security_spec(variant: str) -> PrefetcherSpec:
    """PrefetcherSpec for a Fig. 8 defense column (or ``"Base"``)."""
    if variant == "Base":
        return PrefetcherSpec(kind="none")
    return PrefetcherSpec(kind="prefender", prefender=security_prefender(variant))


def perf_config(spec: PrefetcherSpec) -> SystemConfig:
    """System config for performance runs (OoO-like core)."""
    return SystemConfig(prefetcher=spec, core=PERF_CORE)


def sim_job(
    workload_name: str,
    spec: PrefetcherSpec,
    scale: float = 1.0,
    sample_interval: int | None = None,
) -> SimJob:
    """Performance-core :class:`SimJob` for one workload × prefetcher cell."""
    return SimJob(
        workload=workload_name,
        scale=scale,
        system=perf_config(spec),
        sample_interval=sample_interval,
    )


# In-process memo over the runner, shared by every experiment in a process.
# Bounded (FIFO eviction) so long sweep sessions don't grow without limit.
_MEMO_CAP = 4096
_RESULTS: dict[str, SimResult] = {}
_CACHE_STATS = {"hits": 0, "misses": 0}


def _remember(key: str, result: SimResult) -> None:
    if key not in _RESULTS and len(_RESULTS) >= _MEMO_CAP:
        _RESULTS.pop(next(iter(_RESULTS)))
    _RESULTS[key] = result


def batch_results(
    jobs: list[SimJob], workers: int = 1, store: ResultStore | None = None
) -> list[SimResult]:
    """Run a job grid through the memo + runner; results in input order."""
    keys = [job.key() for job in jobs]
    # Local overlay so the batch's own results survive memo eviction.
    gathered: dict[str, SimResult | None] = {}
    missing: list[SimJob] = []
    missing_keys: list[str] = []
    for key, job in zip(keys, jobs):
        if key in gathered:
            _CACHE_STATS["hits"] += 1
            continue
        cached = _RESULTS.get(key)
        if cached is not None:
            _CACHE_STATS["hits"] += 1
            gathered[key] = cached
            continue
        _CACHE_STATS["misses"] += 1
        gathered[key] = None  # placeholder: dedups repeats within the batch
        missing_keys.append(key)
        missing.append(job)
    if missing:
        for key, result in zip(
            missing_keys, run_batch(missing, workers=workers, store=store)
        ):
            gathered[key] = result
            _remember(key, result)
    return [gathered[key] for key in keys]


def workload_cycles(
    workload_name: str,
    spec: PrefetcherSpec,
    scale: float = 1.0,
    workers: int = 1,
    store: ResultStore | None = None,
) -> int:
    """Cycles for one workload under one prefetcher config (cached)."""
    job = sim_job(workload_name, spec, scale)
    return batch_results([job], workers=workers, store=store)[0].cycles


def improvement(
    workload_name: str,
    spec: PrefetcherSpec,
    scale: float = 1.0,
    workers: int = 1,
    store: ResultStore | None = None,
) -> float:
    """Relative speedup vs the no-prefetcher baseline (paper's metric)."""
    values = grid_improvements(
        [workload_name], [spec], scale, workers=workers, store=store
    )
    return values[(workload_name, spec)]


def grid_improvements(
    workload_names: list[str],
    specs: list[PrefetcherSpec],
    scale: float = 1.0,
    workers: int = 1,
    store: ResultStore | None = None,
) -> dict[tuple[str, PrefetcherSpec], float]:
    """Improvements for a workload × prefetcher grid, submitted as one batch.

    The no-prefetcher baseline each workload needs is folded into the same
    batch (and deduplicated), so the whole grid shards across workers.
    Each column's jobs share one config, which is then fingerprinted once.
    Configs are built per column position, not memoised by spec equality:
    ``1``, ``1.0`` and ``True`` compare equal but key differently.
    """
    columns = [BASELINE_SPEC, *specs]
    systems = [perf_config(spec) for spec in columns]
    cells = [(name, spec) for name in workload_names for spec in columns]
    jobs = [
        SimJob(workload=name, scale=scale, system=system)
        for name in workload_names
        for system in systems
    ]
    results = batch_results(jobs, workers=workers, store=store)
    cycles = dict(zip(cells, (result.cycles for result in results)))
    return {
        (name, spec): cycles[(name, BASELINE_SPEC)] / cycles[(name, spec)] - 1.0
        for name in workload_names
        for spec in specs
    }


def improvement_rows(
    workload_names: list[str],
    columns: list[tuple[str, PrefetcherSpec]],
    scale: float = 1.0,
    workers: int = 1,
    store: ResultStore | None = None,
) -> tuple[list[list[object]], list[float]]:
    """Per-benchmark improvement rows + column averages for a column list.

    Shared by Tables IV/V/VI and the CLI ``sweep`` command so the row
    layout and averaging live in exactly one place.
    """
    values = grid_improvements(
        workload_names,
        [spec for _, spec in columns],
        scale,
        workers=workers,
        store=store,
    )
    rows: list[list[object]] = [
        [name] + [values[(name, spec)] for _, spec in columns]
        for name in workload_names
    ]
    averages = [
        sum(row[i + 1] for row in rows) / len(rows) for i in range(len(columns))
    ]
    return rows, averages


def cache_stats() -> dict[str, int]:
    """Hit/miss counters of the in-process result memo (tests read this)."""
    return dict(_CACHE_STATS, entries=len(_RESULTS))


def clear_cycle_cache() -> None:
    """Reset memoised runs (tests use this between parameter changes)."""
    _RESULTS.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def table_spec(kind: str, buffers: int = 32, with_rp: bool = False) -> PrefetcherSpec:
    """Column spec for the performance tables."""
    prefender = (
        PrefenderConfig.full(buffers) if with_rp else PrefenderConfig.st_at(buffers)
    )
    return PrefetcherSpec(kind=kind, prefender=prefender)
