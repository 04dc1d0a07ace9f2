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

Every experiment submits its grid to :func:`repro.runner.run_batch`, which
keys each job over every config field, serves repeats within the batch and
from the optional disk store, and runs the rest; nothing here keeps
results between batches.
"""

from __future__ import annotations

from repro.core.config import PrefenderConfig
from repro.cpu.core import CoreConfig
from repro.runner import ResultStore, SimJob, run_batch
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


def improvement_rows(
    workload_names: list[str],
    columns: list[tuple[str, PrefetcherSpec]],
    scale: float = 1.0,
    workers: int = 1,
    store: ResultStore | None = None,
) -> tuple[list[list[object]], list[float]]:
    """Per-benchmark improvement rows + column averages for a column list.

    Shared by Tables IV/V/VI and the CLI ``sweep`` command so the row
    layout and averaging live in exactly one place.  A cell is the
    paper's metric, the speedup over the no-prefetcher baseline.

    Each workload's baseline joins the grid in one batch, so the whole
    grid shards across workers.  Each column's jobs share one config,
    which is then fingerprinted once.  Configs are built per column
    position, not memoised by spec equality: ``1``, ``1.0`` and ``True``
    compare equal but key differently.
    """
    systems = [perf_config(BASELINE_SPEC)]
    systems += [perf_config(spec) for _, spec in columns]
    jobs = [
        SimJob(workload=name, scale=scale, system=system)
        for name in workload_names
        for system in systems
    ]
    cycles = [result.cycles for result in run_batch(jobs, workers=workers, store=store)]
    width = len(systems)
    rows: list[list[object]] = []
    for index, name in enumerate(workload_names):
        base, *others = cycles[index * width : (index + 1) * width]
        rows.append([name] + [base / other - 1.0 for other in others])
    averages = [
        sum(row[i + 1] for row in rows) / len(rows) for i in range(len(columns))
    ]
    return rows, averages


def clear_cycle_cache() -> None:
    """Does nothing: experiments keep no results between batches.

    ``perfbench/grids.py`` still calls it before each Table IV pass, and
    ROADMAP item 4(g) deletes both the call and this function.
    """


def table_spec(kind: str, buffers: int = 32, with_rp: bool = False) -> PrefetcherSpec:
    """Column spec for the performance tables."""
    prefender = (
        PrefenderConfig.full(buffers) if with_rp else PrefenderConfig.st_at(buffers)
    )
    return PrefetcherSpec(kind=kind, prefender=prefender)
