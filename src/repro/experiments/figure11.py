"""Figure 11: number of prefetches by ST / AT / RP per benchmark.

Shape target (paper): AT dominates, RP-guided prefetches outnumber ST's
(the RP trigger fires on every scale-buffer hit; ST needs a fresh
add/mul-derived large scale).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import sim_job, table_spec
from repro.runner import ResultStore, run_batch
from repro.utils.tables import render_table
from repro.workloads import SPEC2006_NAMES

COMPONENTS = ("st", "at", "rp")


@dataclass
class PrefetchCountResult:
    headers: list[str]
    rows: list[list[object]]

    def totals(self) -> dict[str, int]:
        sums = {component: 0 for component in COMPONENTS}
        for row in self.rows:
            for i, component in enumerate(COMPONENTS):
                sums[component] += row[i + 1]
        return sums


def run(
    scale: float = 1.0,
    workloads: list[str] | None = None,
    basic: str | None = None,
    jobs: int = 1,
    store: ResultStore | None = None,
) -> PrefetchCountResult:
    """Count ST/AT/RP prefetches under the full PREFENDER.

    ``basic`` optionally composes a basic prefetcher underneath
    (``"tagged"`` / ``"stride"``), matching the paper's grouped bars.
    """
    kind = "prefender" if basic is None else f"prefender+{basic}"
    spec = table_spec(kind, 32, with_rp=True)
    names = workloads or SPEC2006_NAMES
    results = run_batch(
        [sim_job(name, spec, scale) for name in names], workers=jobs, store=store
    )
    rows: list[list[object]] = []
    for name, result in zip(names, results):
        counts = result.prefetch_counts[0]
        rows.append([name] + [counts.get(component, 0) for component in COMPONENTS])
    return PrefetchCountResult(
        headers=["benchmark", "ST", "AT", "RP"],
        rows=rows,
    )


def render(result: PrefetchCountResult) -> str:
    rows = [list(row) for row in result.rows]
    totals = result.totals()
    rows.append(["Total"] + [totals[c] for c in COMPONENTS])
    return render_table(
        result.headers,
        rows,
        title="Figure 11: prefetches issued by component",
        float_format="{:d}",
    )
