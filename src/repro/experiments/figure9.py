"""Figure 9: number of prefetches over time during the attacks.

Panels (a-c): PREFENDER-ST+AT under C1+C2 — ST contributes a small early
burst (phase 2), AT a large burst through phase 3.  Panels (d-f): full
PREFENDER under C1+C2+C3+C4 — RP-guided prefetches dominate phase 3.
Times are reported in microseconds at the paper's 2GHz clock.

Only this figure needs the time of each prefetch, so it builds each attack
itself and attaches a trace to the attacker's core
(:meth:`~repro.mem.hierarchy.MemoryHierarchy.attach_trace`) before
running it; no other run records one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import security_spec
from repro.mem.hierarchy import PrefetchTrace
from repro.runner import ATTACK_KINDS
from repro.sim.config import SystemConfig
from repro.utils.textplot import ascii_series

CYCLES_PER_MICROSECOND = 2000

ATTACKS = {
    "Flush+Reload": "flush-reload",
    "Evict+Reload": "evict-reload",
    "Prime+Probe": "prime-probe",
}


@dataclass
class TimelinePanel:
    attack: str
    challenges: str
    defense: str
    # component -> list of (time_us, cumulative_count)
    series: dict[str, list[tuple[float, int]]]
    totals: dict[str, int]


def _binned(trace: PrefetchTrace) -> dict[str, list[tuple[float, int]]]:
    series: dict[str, list[tuple[float, int]]] = {}
    counts: dict[str, int] = {}
    for cycle, component, _blk in trace:
        counts[component] = counts.get(component, 0) + 1
        series.setdefault(component, []).append(
            (cycle / CYCLES_PER_MICROSECOND, counts[component])
        )
    return series


def run(noisy: bool = False) -> list[TimelinePanel]:
    """Panels a-c (``noisy=False``) or d-f (``noisy=True``)."""
    defense = "FULL" if noisy else "ST+AT"
    options = {"noise_c3": True, "noise_c4": True} if noisy else {}
    config = SystemConfig(prefetcher=security_spec(defense))
    panels = []
    for attack_name, kind in ATTACKS.items():
        attack = ATTACK_KINDS[kind](**options)
        system, resolved = attack.prepare(config)
        trace: PrefetchTrace = []
        system.hierarchy.attach_trace(0, trace)
        outcome = attack.classify(system, resolved, system.run())
        series = _binned(trace)
        totals = {component: points[-1][1] for component, points in series.items()}
        panels.append(
            TimelinePanel(
                attack=attack_name,
                challenges=outcome.challenges,
                defense=defense,
                series=series,
                totals=totals,
            )
        )
    return panels


def render(panels: list[TimelinePanel]) -> str:
    blocks = []
    for panel in panels:
        lines = [
            f"--- Figure 9: {panel.attack} ({panel.challenges}) "
            f"vs {panel.defense} ---",
            f"  totals: {panel.totals}",
        ]
        for component, points in panel.series.items():
            xs = [t for t, _ in points]
            ys = [c for _, c in points]
            if len(xs) > 1:
                lines.append(
                    ascii_series(
                        xs,
                        {component: ys},
                        height=6,
                        width=60,
                        title=f"  {component}: cumulative prefetches vs time (us)",
                    )
                )
            else:
                lines.append(f"  {component}: {ys[-1]} prefetch(es) at {xs[0]:.1f}us")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
