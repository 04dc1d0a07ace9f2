"""Tables I & II: related-work comparisons, plus a behavioural ablation.

The paper's Tables I/II are qualitative; we encode them as data (for the
docs) and *verify the rows we can*: BITP and Disruptive Prefetching are
implemented in :mod:`repro.prefetch`, so the ablation runs the actual
attacks against them and checks the claimed defense coverage:

* BITP triggers only on cross-core back-invalidations — single-core
  Flush+Reload / Evict+Reload / Prime+Probe go straight through it.
* Disruptive Prefetching perturbs set-granularity attacks (Prime+Probe)
  but leaves line-granularity Flush+Reload intact.
* PREFENDER defends all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import PrefenderConfig
from repro.runner import ScenarioJob, run_batch
from repro.sim.config import PrefetcherSpec, SystemConfig

# Table I (condensed): approach class and reported performance overhead.
TABLE_I = {
    "Conditional Speculation": ("speculation restriction", "13%-54%"),
    "NDA": ("speculation restriction", "11%-125%"),
    "SpecShield": ("speculation restriction", "10%-73%"),
    "InvisiSpec": ("shadow structures", "21%-72%"),
    "SafeSpec": ("shadow structures", "-3%"),
    "MuonTrap": ("shadow structures", "4%"),
    "SpecPref": ("prefetcher hardening", "1.17%"),
    "Catalyst": ("cache partition", "0.70%"),
    "StealthMem": ("cache partition", "5.90%"),
    "DAWG": ("cache partition", "15%"),
    "CEASER": ("randomized mapping", "1%"),
    "RPcache": ("randomized mapping", "0.30%"),
    "SHARP": ("replacement policy", "0%"),
    "Prefender": ("prefetch", "-1.69%/-6.28% (improvement)"),
}

# Table II rows we verify behaviourally (True = defends).
TABLE_II_CLAIMS = {
    # (defense, attack, single_core): defends?
    ("bitp", "Flush+Reload", True): False,
    ("bitp", "Evict+Reload", True): False,
    ("bitp", "Prime+Probe", True): False,
    ("disruptive", "Flush+Reload", True): False,
    ("disruptive", "Prime+Probe", True): True,
    ("prefender", "Flush+Reload", True): True,
    ("prefender", "Evict+Reload", True): True,
    ("prefender", "Prime+Probe", True): True,
    # Table II marks Evict+Time (timing-based, types 1/3 of [20]) as NOT
    # defended by PREFENDER: the attacker times the whole victim run, so
    # decoy lines add no ambiguity — the single anomalous round survives.
    ("prefender", "Evict+Time", True): False,
    # Adversarial Prefetch (Guo et al. 2022): cross-core, prefetchw-based.
    # BITP only reacts to inclusive-LLC back-invalidations; prefetchw's
    # ownership steals are coherence traffic, so BITP never fires.
    ("bitp", "AdvPrefetch-A1", False): False,
    ("bitp", "AdvPrefetch-A2", False): False,
    # PCG-style random same-set prefetching observes A1's demand-load probe
    # and pollutes the attacker's own sets into ambiguity — but A2 probes
    # with timed prefetches it never sees, and goes straight through.
    ("disruptive", "AdvPrefetch-A1", False): True,
    ("disruptive", "AdvPrefetch-A2", False): False,
    # PREFENDER defends both: the victim-side Scale Tracker migrates the
    # secret's neighbours out of the attacker's L1 along with the secret
    # (and, for A1, the attacker-side Access Tracker outruns the probe).
    ("prefender", "AdvPrefetch-A1", False): True,
    ("prefender", "AdvPrefetch-A2", False): True,
}

ATTACKS = {
    "Flush+Reload": "flush-reload",
    "Evict+Reload": "evict-reload",
    "Prime+Probe": "prime-probe",
    "Evict+Time": "evict-time",
    "AdvPrefetch-A1": "adversarial-prefetch-a1",
    "AdvPrefetch-A2": "adversarial-prefetch-a2",
}

#: Display names for the ablation rows ("disruptive" is the in-tree
#: stand-in for PCG-style conflict-obfuscating prefetch defenses).
DEFENSE_LABELS = {"disruptive": "disruptive/PCG"}


@dataclass
class AblationRow:
    defense: str
    attack: str
    expected_defended: bool
    observed_defended: bool
    candidates: int

    @property
    def matches_paper(self) -> bool:
        return self.expected_defended == self.observed_defended


def _spec(defense: str) -> PrefetcherSpec:
    if defense == "prefender":
        return PrefetcherSpec(
            kind="prefender", prefender=PrefenderConfig.full(8)
        )
    return PrefetcherSpec(kind=defense)


def run(jobs: int = 1) -> list[AblationRow]:
    """Run the verifiable Table II rows (declared as one attack batch)."""
    claims = list(TABLE_II_CLAIMS.items())
    attack_jobs = [
        ScenarioJob.build(
            ATTACKS[attack_name], SystemConfig(prefetcher=_spec(defense))
        )
        for (defense, attack_name, _single), _ in claims
    ]
    probes = run_batch(attack_jobs, workers=jobs)
    rows = []
    for ((defense, attack_name, _single), expected), probe in zip(
        claims, probes
    ):
        if attack_name == "Evict+Time":
            # "Defended" for a whole-run timing channel means the anomalous
            # round became ambiguous; a single surviving candidate (even if
            # shifted by the defense's own prefetches) is a working channel.
            defended = len(probe.candidates) != 1
        else:
            defended = not probe.succeeded
        rows.append(
            AblationRow(
                defense=defense,
                attack=attack_name,
                expected_defended=expected,
                observed_defended=defended,
                candidates=len(probe.candidates),
            )
        )
    return rows


def render(rows: list[AblationRow]) -> str:
    lines = ["Table II ablation: defense coverage of related prefetch defenses"]
    for row in rows:
        status = "matches paper" if row.matches_paper else "MISMATCH"
        defense = DEFENSE_LABELS.get(row.defense, row.defense)
        lines.append(
            f"  {defense:>14} vs {row.attack:<14} "
            f"defended={str(row.observed_defended):<5} "
            f"(paper: {row.expected_defended}, {row.candidates} candidates) "
            f"[{status}]"
        )
    return "\n".join(lines)
