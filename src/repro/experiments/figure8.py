"""Figure 8: latency-vs-index curves for every attack/challenge/defense.

Twelve panels: {Flush+Reload, Evict+Reload, Prime+Probe} x {C1+C2,
+C3, +C4, +C3+C4}, each with the paper's defense configurations.  The
verdict shape targets (DESIGN.md): baseline uniquely leaks; ST yields
secret±1; AT floods (and fails under C3/C4 noise); RP restores the
defense.

The whole matrix is one declarative :class:`~repro.runner.ScenarioJob`
grid submitted as a single :func:`~repro.runner.run_batch` — the same
path the crypto-victim scenario suite uses — so panels deduplicate,
shard across ``jobs`` processes and cache in the disk store instead of
running attacks one by one inline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import security_spec
from repro.runner import ResultStore, ScenarioJob, ScenarioProbe, run_batch
from repro.sim.config import SystemConfig
from repro.utils.textplot import ascii_series

#: Display name -> attack registry kind.
ATTACKS = {
    "Flush+Reload": "flush-reload",
    "Evict+Reload": "evict-reload",
    "Prime+Probe": "prime-probe",
}

# Panel layout mirrors the paper: challenges -> defense configs shown.
PANEL_DEFENSES = {
    "C1+C2": ["Base", "ST", "AT", "ST+AT"],
    "C1+C2+C3": ["AT", "AT+RP"],
    "C1+C2+C4": ["AT", "AT+RP"],
    "C1+C2+C3+C4": ["Base", "FULL"],
}

CHALLENGE_OPTIONS = {
    "C1+C2": {},
    "C1+C2+C3": {"noise_c3": True},
    "C1+C2+C4": {"noise_c4": True},
    "C1+C2+C3+C4": {"noise_c3": True, "noise_c4": True},
}


@dataclass
class Panel:
    attack: str
    challenges: str
    outcomes: dict[str, ScenarioProbe]  # defense label -> scored trial


def run(
    attacks: list[str] | None = None,
    challenges: list[str] | None = None,
    jobs: int = 1,
    store: ResultStore | None = None,
) -> list[Panel]:
    """Run the Figure 8 grid; returns one Panel per (attack, challenge)."""
    cells: list[tuple[str, str, str]] = []
    grid: list[ScenarioJob] = []
    for challenge in challenges or list(PANEL_DEFENSES):
        options = CHALLENGE_OPTIONS[challenge]
        for attack_name in attacks or list(ATTACKS):
            for defense in PANEL_DEFENSES[challenge]:
                cells.append((attack_name, challenge, defense))
                grid.append(
                    ScenarioJob.build(
                        ATTACKS[attack_name],
                        SystemConfig(prefetcher=security_spec(defense)),
                        **options,
                    )
                )
    probes = run_batch(grid, workers=jobs, store=store)
    panels: list[Panel] = []
    by_panel: dict[tuple[str, str], Panel] = {}
    for (attack_name, challenge, defense), probe in zip(cells, probes):
        panel = by_panel.get((attack_name, challenge))
        if panel is None:
            panel = Panel(attack=attack_name, challenges=challenge, outcomes={})
            by_panel[(attack_name, challenge)] = panel
            panels.append(panel)
        panel.outcomes[defense] = probe
    return panels


def render(panels: list[Panel]) -> str:
    blocks = []
    for panel in panels:
        lines = [f"--- Figure 8: {panel.attack} ({panel.challenges}) ---"]
        first = next(iter(panel.outcomes.values()))
        xs = list(range(len(first.latencies)))
        series = {
            defense: outcome.latencies for defense, outcome in panel.outcomes.items()
        }
        lines.append(
            ascii_series(
                xs,
                series,
                height=10,
                title=f"latency (cycles) vs array index, secret={first.secret}",
            )
        )
        for defense, outcome in panel.outcomes.items():
            summary = outcome.summary(security_spec(defense).label)
            lines.append(f"  {defense:>6}: {summary}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def verdicts(panels: list[Panel]) -> dict[tuple[str, str, str], bool]:
    """(attack, challenge, defense) -> attack_succeeded map for assertions."""
    result = {}
    for panel in panels:
        for defense, outcome in panel.outcomes.items():
            result[(panel.attack, panel.challenges, defense)] = outcome.succeeded
    return result
