"""Simulation-job runner: lossless content keys, batching, disk store.

Declare the full grid of runs an experiment needs, submit it as one
:func:`run_batch`, and read the results back in input order:

    from repro.runner import SimJob, run_batch

    jobs = [SimJob(workload=name, scale=0.5, system=config)
            for name in names for config in configs]
    results = run_batch(jobs, workers=4)

Keys are content hashes over *every* configuration dataclass field (see
:mod:`repro.runner.job`), so two jobs differing in any knob — however
obscure — never share a result.

With ``workers > 1`` each call forks a :class:`WorkerPool` of its own and
closes it on return.  Sweeps that submit many batches in a row (the
``frontier`` command) keep one pool open and pass it to every
``run_batch`` call, so worker processes are forked once and reused instead
of being respawned per batch:

    with WorkerPool(workers=4) as pool:
        first = run_batch(jobs_a, pool=pool)
        second = run_batch(jobs_b, pool=pool)  # same warm workers
"""

from repro.runner.executor import run_batch
from repro.runner.job import (
    ADVERSARIAL_PREFETCH_FAMILY,
    ADVERSARIAL_PREFETCH_VARIANTS,
    ATTACK_KINDS,
    KEY_VERSION,
    ScenarioJob,
    ScenarioProbe,
    SimJob,
    SimResult,
    fingerprint,
    job_key,
)
from repro.runner.pool import WorkerPool, default_workers
from repro.runner.store import DEFAULT_CACHE_DIR, ResultStore

__all__ = [
    "ADVERSARIAL_PREFETCH_FAMILY",
    "ADVERSARIAL_PREFETCH_VARIANTS",
    "ATTACK_KINDS",
    "DEFAULT_CACHE_DIR",
    "KEY_VERSION",
    "ResultStore",
    "ScenarioJob",
    "ScenarioProbe",
    "SimJob",
    "SimResult",
    "WorkerPool",
    "default_workers",
    "fingerprint",
    "job_key",
    "run_batch",
]
