"""Design-choice ablations called out in DESIGN.md §5.

Not a paper table — these sweep PREFENDER's own knobs to show which design
choices carry the defense:

* ST's trigger window (``cacheline < sc < page``): prefetching at scale 64
  (== cacheline) would be a no-op against the 0x200-stride attack.
* AT's activation threshold: the defense degrades gracefully as the
  threshold rises (fewer probes covered before prefetching starts).
* Access-buffer count under C3 noise: with RP disabled, more buffers than
  distinct noise PCs restore the AT defense — buffer count is a (costly)
  alternative to the Record Protector.

Each sweep declares its full attack grid up front and submits it as one
:func:`repro.runner.run_batch`; because the batch keys hash *every*
``PrefenderConfig`` field, specs differing only in ``at_threshold`` (the
knob the old experiment memoiser dropped) can never share a result.  The
ST-window case needs per-component prefetch counts from the full
``RunResult``, so it runs its two attacks directly.
"""

from dataclasses import replace

from repro.attacks import FlushReloadAttack
from repro.core.config import PrefenderConfig
from repro.runner import ScenarioJob, run_batch
from repro.sim.config import PrefetcherSpec, SystemConfig


def prefender_system(config: PrefenderConfig) -> SystemConfig:
    return SystemConfig(
        prefetcher=PrefetcherSpec(kind="prefender", prefender=config)
    )


def test_at_threshold_sweep(benchmark):
    thresholds = (2, 4, 6)

    def sweep():
        jobs = [
            ScenarioJob.build(
                "flush-reload",
                prefender_system(
                    replace(
                        PrefenderConfig.at_only().with_buffers(8),
                        at_threshold=threshold,
                    )
                ),
            )
            for threshold in thresholds
        ]
        return dict(zip(thresholds, run_batch(jobs)))

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for threshold, probe in results.items():
        assert not probe.succeeded, f"threshold {threshold}"
    # Lower thresholds start prefetching earlier -> at least as many decoys.
    assert len(results[2].candidates) >= len(results[6].candidates) - 8


def test_buffer_count_vs_c3_noise(benchmark):
    """More buffers than noise PCs is the brute-force alternative to RP."""

    def sweep():
        jobs = [
            ScenarioJob.build(
                "flush-reload",
                prefender_system(PrefenderConfig.at_only().with_buffers(count)),
                noise_c3=True,
            )
            for count in (8, 32)
        ]
        return run_batch(jobs)

    few, many = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert few.succeeded, "8 buffers thrashed by 12 noise PCs"
    assert not many.succeeded, "32 buffers absorb the noise without RP"


def test_st_scale_window_boundary(benchmark):
    """An attack at exactly cacheline stride never triggers ST."""

    def run():
        # scale == 64 == cacheline: ST must stay silent (sc not > cacheline).
        system = prefender_system(PrefenderConfig.st_only())
        outcome = FlushReloadAttack(secret=20).run(system)
        at_64 = FlushReloadAttack(secret=20, scale=64, num_indices=64).run(system)
        inrange = outcome.run_result.prefetch_counts[0].get("st", 0)
        silent = at_64.run_result.prefetch_counts[0].get("st", 0)
        return inrange, silent

    inrange, silent = benchmark.pedantic(run, rounds=1, iterations=1)
    assert inrange > 0, "0x200-scale attack triggers ST"
    assert silent == 0, "cacheline-scale access must not trigger ST"
