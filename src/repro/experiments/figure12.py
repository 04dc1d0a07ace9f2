"""Figure 12: number of protected access buffers over execution progress.

Shape target (paper): benchmarks differ sharply — pure-compute and random
benchmarks keep zero protected buffers; benchmarks with memory-derived
scaled addressing protect many of the 32 buffers for long stretches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.common import sim_job, table_spec
from repro.runner import ResultStore, run_batch
from repro.utils.textplot import ascii_series
from repro.workloads import SPEC2006_NAMES


@dataclass
class ProtectionSeries:
    benchmark: str
    progress: list[float]  # fraction of execution 0..1
    protected: list[int]

    @property
    def peak(self) -> int:
        return max(self.protected, default=0)


def run(
    scale: float = 1.0,
    workloads: list[str] | None = None,
    samples: int = 40,
    jobs: int = 1,
    store: ResultStore | None = None,
) -> list[ProtectionSeries]:
    names = workloads or SPEC2006_NAMES
    spec = table_spec("prefender", 32, with_rp=True)
    # Pre-measure run lengths (one probe batch) to place samples uniformly.
    # A sampled run turns block and loop fusion off, and the perf core never
    # speculates, so there every scheduler step retires one instruction and
    # the probe's retired-instruction count *is* the sampled step count.
    probe_jobs = [sim_job(name, spec, scale) for name in names]
    probes = run_batch(probe_jobs, workers=jobs, store=store)
    totals = [probe.instructions for probe in probes]
    sampled = run_batch(
        [
            replace(job, sample_interval=max(1, total // samples))
            for job, total in zip(probe_jobs, totals)
        ],
        workers=jobs,
        store=store,
    )
    series = []
    for name, total_steps, result in zip(names, totals, sampled):
        progress = [
            min(1.0, step / total_steps) for step, _ in result.samples
        ]
        protected = [int(value) for _, value in result.samples]
        series.append(
            ProtectionSeries(benchmark=name, progress=progress, protected=protected)
        )
    return series


def render(series: list[ProtectionSeries]) -> str:
    lines = ["Figure 12: protected access buffers over execution"]
    for entry in series:
        if entry.progress and entry.peak > 0:
            lines.append(
                ascii_series(
                    entry.progress,
                    {entry.benchmark: entry.protected},
                    height=6,
                    width=60,
                    title=f"{entry.benchmark} (peak {entry.peak}/32)",
                )
            )
        else:
            lines.append(f"{entry.benchmark}: no protected buffers")
    return "\n".join(lines)
