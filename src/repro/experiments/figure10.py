"""Figure 10: normalized total L1D miss latency per benchmark.

Nine configurations as in the paper: Baseline, PREFENDER-ST+AT, PREFENDER,
then Tagged and Stride with and without PREFENDER on top.  Values are
normalized to the Baseline; effective prefetching drives them below 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import sim_job, table_spec
from repro.runner import ResultStore, run_batch
from repro.sim.config import PrefetcherSpec
from repro.utils.tables import render_table
from repro.workloads import SPEC2006_NAMES

CONFIGS: list[tuple[str, PrefetcherSpec]] = [
    ("Baseline", PrefetcherSpec(kind="none")),
    ("ST+AT", table_spec("prefender", 32, with_rp=False)),
    ("Prefender", table_spec("prefender", 32, with_rp=True)),
    ("Tagged", table_spec("tagged")),
    ("ST+AT(T)", table_spec("prefender+tagged", 32, with_rp=False)),
    ("Prefender(T)", table_spec("prefender+tagged", 32, with_rp=True)),
    ("Stride", table_spec("stride")),
    ("ST+AT(S)", table_spec("prefender+stride", 32, with_rp=False)),
    ("Prefender(S)", table_spec("prefender+stride", 32, with_rp=True)),
]


@dataclass
class MissLatencyResult:
    headers: list[str]
    rows: list[list[object]]  # benchmark + normalized miss latencies

    def normalized(self, config: str) -> dict[str, float]:
        index = self.headers.index(config)
        return {row[0]: row[index] for row in self.rows}

    def averages(self) -> dict[str, float]:
        return {
            header: sum(row[i] for row in self.rows) / len(self.rows)
            for i, header in enumerate(self.headers)
            if header != "benchmark"
        }


def run(
    scale: float = 1.0,
    workloads: list[str] | None = None,
    jobs: int = 1,
    store: ResultStore | None = None,
) -> MissLatencyResult:
    names = workloads or SPEC2006_NAMES
    grid = [(name, spec) for name in names for _, spec in CONFIGS]
    results = run_batch(
        [sim_job(name, spec, scale) for name, spec in grid],
        workers=jobs,
        store=store,
    )
    latency = {
        cell: result.l1d_stats[0]["miss_latency_total"]
        for cell, result in zip(grid, results)
    }
    rows: list[list[object]] = []
    for name in names:
        miss_latencies = [latency[(name, spec)] for _, spec in CONFIGS]
        baseline = miss_latencies[0]
        if baseline:
            normalized = [value / baseline for value in miss_latencies]
        else:
            # No misses at all (compute-only): nothing to normalize.
            normalized = [1.0] * len(miss_latencies)
        rows.append([name] + normalized)
    return MissLatencyResult(
        headers=["benchmark"] + [label for label, _ in CONFIGS],
        rows=rows,
    )


def render(result: MissLatencyResult) -> str:
    rows = [list(row) for row in result.rows]
    averages = result.averages()
    rows.append(["Avg."] + [averages[h] for h in result.headers[1:]])
    return render_table(
        result.headers,
        rows,
        title="Figure 10: normalized total L1D miss latency",
        float_format="{:.3f}",
    )
