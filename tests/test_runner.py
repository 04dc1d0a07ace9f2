"""The simulation-job runner: lossless keys, parallel batches, disk store.

The headline regression here: the old experiment memoiser keyed runs on
``(kind, st, at, rp, num_access_buffers)`` and rebuilt every other config
field from defaults, so sweeps varying ``at_threshold`` (or any other
knob) silently shared cycle counts.  The runner's content key hashes every
dataclass field, and ``test_job_key_covers_every_config_field`` walks the
field sets structurally so a newly added knob can never fall out again.
"""

import dataclasses
import hashlib
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.attacks import replay
from repro.attacks.replay import replay_group_key
from repro.attacks.scenarios import DEFAULT_ATTACKS, DEFAULT_VICTIMS, build_grid
from repro.core.config import PrefenderConfig
from repro.cpu.core import CoreConfig
from repro.cpu.system import RunResult
from repro.errors import ConfigError
from repro.experiments import common, table4
from repro.mem.hierarchy import HierarchyConfig
from repro.runner import (
    KEY_VERSION,
    ResultStore,
    ScenarioJob,
    SimJob,
    executor,
    fingerprint,
    job_key,
    run_batch,
)
from repro.sim.config import PrefetcherSpec, SystemConfig
from repro.workloads import SPEC2006_NAMES

# Fields whose values are constrained (enums, registry names): a generic
# "+1"/flip perturbation would be invalid, so supply a valid alternative.
SPECIAL_VALUES = {
    "workload": "999.specrand",
    "attack": "evict-reload",
    "system.prefetcher.kind": "tagged",
    "options.victim_mode": "spectre",
    "options.probe_kind": "prefetch",
}


def _mutated(path: str, value):
    if path in SPECIAL_VALUES:
        assert SPECIAL_VALUES[path] != value
        return SPECIAL_VALUES[path]
    if isinstance(value, bool):
        return not value
    if value is None:
        return 1024  # Optional[int] knobs (e.g. sample_interval)
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.25
    if isinstance(value, str):
        return value + "-x"
    raise AssertionError(f"no perturbation rule for {path} = {value!r}")


def _perturbations(obj, prefix=""):
    """Yield (field path, copy of ``obj`` with exactly that field changed)."""
    for spec_field in dataclasses.fields(obj):
        value = getattr(obj, spec_field.name)
        path = f"{prefix}{spec_field.name}"
        if dataclasses.is_dataclass(value):
            for sub_path, mutated in _perturbations(value, path + "."):
                yield sub_path, replace(obj, **{spec_field.name: mutated})
        else:
            yield path, replace(obj, **{spec_field.name: _mutated(path, value)})


def _base_sim_job() -> SimJob:
    # st_at(8) keeps rp_enabled=False so every boolean flip stays a valid
    # PrefenderConfig (rp_enabled=True needs at_enabled=True, which holds).
    spec = PrefetcherSpec(kind="prefender", prefender=PrefenderConfig.st_at(8))
    return SimJob(workload="462.libquantum", scale=0.25, system=common.perf_config(spec))


def test_job_key_covers_every_config_field():
    """Perturbing ANY field of the full config tree changes the key."""
    base = _base_sim_job()
    base_key = base.key()
    seen_paths = set()
    for path, mutated in _perturbations(base):
        seen_paths.add(path)
        assert mutated.key() != base_key, f"field {path} not in the job key"
    # The walk is driven by dataclasses.fields, so it must have visited every
    # field of every config dataclass — a new knob is covered automatically.
    for config_cls in (
        SimJob,
        SystemConfig,
        PrefetcherSpec,
        PrefenderConfig,
        CoreConfig,
        HierarchyConfig,
    ):
        for spec_field in dataclasses.fields(config_cls):
            # Scalar fields appear as a path leaf; nested-config fields
            # appear as an intermediate segment of their children's paths.
            assert any(
                spec_field.name in path.split(".") for path in seen_paths
            ), f"{config_cls.__name__}.{spec_field.name} never perturbed"


#: sha256 over the newline-joined keys of the 1,440-trial security grid
#: (``build_grid(DEFAULT_VICTIMS, DEFAULT_ATTACKS, common.DEFENSES, 16)``),
#: in build order, and over its 90 distinct replay-group keys, in first-seen
#: order.  Re-pinned for ``KEY_VERSION`` 3, whose only key change is the
#: hierarchy config field it dropped.
GRID_JOB_KEYS_SHA256 = "69e3273b92b47c580a16572739e9e4270f06c161e9774564e5fba34c2ee9542c"
GRID_GROUP_KEYS_SHA256 = "ddaac532b38df6d0d24f9f69940ff234627038d88a08f597115aedc67bca8cd9"


def _digest(keys):
    return hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()


def test_security_grid_keys_do_not_move():
    """Caching a config's fingerprint must not move a single key: every
    stored probe stays reachable under ``KEY_VERSION`` 3."""
    _, jobs = build_grid(DEFAULT_VICTIMS, DEFAULT_ATTACKS, common.DEFENSES, 16)
    keys = [job.key() for job in jobs]
    groups = list(dict.fromkeys(replay_group_key(job) for job in jobs))
    assert (len(keys), len(groups)) == (1440, 90)
    assert _digest(keys) == GRID_JOB_KEYS_SHA256
    assert _digest(groups) == GRID_GROUP_KEYS_SHA256
    # A second round reads every config's cached projection.
    assert [job.key() for job in jobs] == keys
    assert KEY_VERSION == 3


@pytest.mark.parametrize("first, second", [(1, True), (True, 1)])
def test_config_fingerprint_cache_follows_identity(first, second):
    """``1`` and ``True`` compare equal but fingerprint differently, so a
    config's cached projection belongs to that instance, never to an equal
    one keyed earlier."""
    cached = SystemConfig(num_cores=first)
    other = SystemConfig(num_cores=second)
    assert cached == other and hash(cached) == hash(other)
    cached_key = job_key(cached)
    assert fingerprint(cached) is fingerprint(cached)
    assert job_key(other) != cached_key
    assert type(fingerprint(other)["num_cores"]) is type(second)
    # The cache is no field: equality, replace() and fields() ignore it.
    assert cached == SystemConfig(num_cores=first)
    assert job_key(replace(cached)) == cached_key
    assert "_fingerprint" not in {f.name for f in dataclasses.fields(cached)}


#: sha256 over the newline-joined keys of Table IV's 144 jobs at scale 0.5
#: (``SPEC2006_NAMES`` x ``[BASELINE_SPEC, *table4._columns(with_rp=False)]``),
#: in ``improvement_rows`` submission order (``KEY_VERSION`` 3).
TABLE4_JOB_KEYS_SHA256 = "61be5e7b2b0acc2fd3a86853392f598c7cfc4039a6304bd11801f792b1521523"


def test_improvement_rows_shares_one_config_per_column(monkeypatch):
    """Each column's jobs share one config object, so a pass fingerprints
    12 configs rather than 144, and not a single key moves."""
    submitted = []

    def fake_batch(jobs, workers=1, store=None):
        submitted.extend(jobs)
        return [SimpleNamespace(cycles=100) for _ in jobs]

    monkeypatch.setattr(common, "run_batch", fake_batch)
    common.improvement_rows(SPEC2006_NAMES, table4._columns(with_rp=False), 0.5)
    assert len(submitted) == 144
    assert _digest(job.key() for job in submitted) == TABLE4_JOB_KEYS_SHA256
    assert len({id(job.system) for job in submitted}) == 12


def test_attack_job_key_covers_every_field():
    # st_at keeps rp_enabled=False so boolean flips stay valid configs.
    system = SystemConfig(
        prefetcher=PrefetcherSpec(kind="prefender", prefender=PrefenderConfig.st_at(8))
    )
    base = ScenarioJob.build("flush-reload", system)
    base_key = base.key()
    seen_paths = set()
    for path, mutated in _perturbations(base):
        seen_paths.add(path)
        assert mutated.key() != base_key, f"field {path} not in the job key"
    # Newly added AttackOptions knobs join the walk automatically; pin the
    # adversarial-prefetch probe primitive explicitly so it can never fall
    # out of the content key (A1 vs A2 differ in exactly this field).
    assert "options.probe_kind" in seen_paths


def test_adversarial_prefetch_kinds_get_distinct_keys():
    """A1 and A2 differ in kind name AND resolved probe_kind — never one key."""
    # st_at keeps rp_enabled=False so boolean flips stay valid configs.
    system = SystemConfig(
        prefetcher=PrefetcherSpec(kind="prefender", prefender=PrefenderConfig.st_at(8))
    )
    a1 = ScenarioJob.build("adversarial-prefetch-a1", system)
    a2 = ScenarioJob.build("adversarial-prefetch-a2", system)
    assert a1.key() != a2.key()
    assert a1.options.probe_kind == "load"
    assert a2.options.probe_kind == "prefetch"
    assert a1.options.cross_core and a2.options.cross_core
    # The family's jobs return JSON-able probes, so --store covers them.
    assert a1.cacheable and a2.cacheable
    # Perturbation walk over an adversarial-prefetch job: every field of the
    # resolved options (including the new probe_kind) lands in the key.
    base_key = a1.key()
    for path, mutated in _perturbations(a1):
        assert mutated.key() != base_key, f"field {path} not in the job key"


def test_job_keys_distinguish_previously_dropped_fields():
    """Two specs differing only in a non-(kind,st,at,rp,buffers) field get
    distinct keys — exactly what the old ``_spec_key`` tuple lost."""
    base = PrefenderConfig.st_at(8)
    for change in (
        {"at_threshold": 6},
        {"entries_per_buffer": 4},
        {"st_max_prefetches": 5},
        {"scale_buffer_entries": 2},
        {"unprotect_prefetch_limit": 7},
        {"unprotect_idle_cycles": 123},
        {"at_max_prefetches": 3},
    ):
        job_a = common.sim_job(
            "462.libquantum", PrefetcherSpec(kind="prefender", prefender=base), 0.1
        )
        job_b = common.sim_job(
            "462.libquantum",
            PrefetcherSpec(kind="prefender", prefender=replace(base, **change)),
            0.1,
        )
        assert job_a.key() != job_b.key(), change


def test_cycle_cache_regression_at_threshold(tmp_path):
    """Headline bug: at_threshold sweeps must not share cached cycles.

    Under the old memoiser both jobs mapped to the same tuple key, so the
    second returned the first's cycle count.  at_threshold genuinely changes
    libquantum's timing (prefetching starts earlier), so distinct caching is
    observable in the cycles themselves, not just in cache bookkeeping.
    """
    store = ResultStore(tmp_path)
    make = lambda threshold: common.sim_job(
        "462.libquantum",
        PrefetcherSpec(
            kind="prefender",
            prefender=replace(PrefenderConfig.full(8), at_threshold=threshold),
        ),
        0.1,
    )
    early, late = run_batch([make(2), make(6)], store=store)
    assert store.misses == 2 and store.hits == 0
    assert early.cycles != late.cycles, "at_threshold=2 vs 6 must simulate differently"
    # Same spec again is a pure store hit with the same answer.
    (again,) = run_batch([make(2)], store=store)
    assert store.hits == 1 and again.cycles == early.cycles


def test_parallel_batch_matches_sequential_table4():
    kwargs = dict(
        scale=0.1, workloads=["462.libquantum", "999.specrand"], buffer_sweep=(32,)
    )
    sequential = table4.render(table4.run(**kwargs))
    parallel = table4.render(table4.run(jobs=2, **kwargs))
    assert parallel == sequential, "parallel run must be byte-identical"


def test_run_batch_preserves_order_and_dedups():
    spec = PrefetcherSpec(kind="none")
    job_a = common.sim_job("999.specrand", spec, 0.05)
    job_b = common.sim_job("462.libquantum", spec, 0.05)
    results = run_batch([job_a, job_b, job_a])
    assert results[0].cycles == results[2].cycles
    assert results[0] is results[2], "duplicate keys run once"
    assert results[1].cycles != results[0].cycles


def test_run_batch_rejects_negative_workers():
    with pytest.raises(ConfigError):
        run_batch([], workers=-1)


def test_store_roundtrip_and_invalidation(tmp_path):
    store = ResultStore(tmp_path)
    job = common.sim_job("999.specrand", PrefetcherSpec(kind="none"), 0.05)
    (first,) = run_batch([job], store=store)
    assert len(store) == 1 and store.hits == 0

    # A fresh store instance serves the result from disk without simulating.
    reread = ResultStore(tmp_path)
    (cached,) = run_batch([job], store=reread)
    assert reread.hits == 1 and reread.misses == 0
    assert dataclasses.asdict(cached) == dataclasses.asdict(first)

    # Any config change is a different key -> disk miss, new entry.
    changed = replace(
        job, system=replace(job.system, core=replace(job.system.core, mul_cost=4))
    )
    assert changed.key() != job.key()
    run_batch([changed], store=reread)
    assert reread.misses == 1
    assert len(reread) == 2

    # A torn/garbage file degrades to a miss, never a wrong result.
    path = tmp_path / f"{job.key()}.json"
    path.write_text("{not json")
    third = ResultStore(tmp_path)
    assert third.get(job.key()) is None
    assert third.misses == 1

    # Valid JSON with the right key/version but a mangled result payload
    # (hand-edited or written by an older tool) is also just a miss.
    import json

    from repro.runner import KEY_VERSION

    path.write_text(
        json.dumps(
            {"version": KEY_VERSION, "key": job.key(), "result": {"cycles": "x"}}
        )
    )
    assert third.get(job.key()) is None
    path.write_text(
        json.dumps(
            {
                "version": KEY_VERSION,
                "key": job.key(),
                "result": dict(first.to_json(), l1d_stats="oops"),
            }
        )
    )
    assert third.get(job.key()) is None


def _filler_results(tmp_path):
    """One real RunResult + its on-disk entry size, for synthetic store tests."""
    probe = ResultStore(tmp_path / "probe")
    job = common.sim_job("999.specrand", PrefetcherSpec(kind="none"), 0.05)
    (result,) = run_batch([job], store=probe)
    return result, probe.size_bytes()


def test_store_eviction_is_lru_ordered(tmp_path):
    """Oldest-mtime entries are evicted first; a get() refreshes recency."""
    import os

    result, _ = _filler_results(tmp_path)
    # Measure a *synthetic* entry (tiny job fingerprint), then cap at 2.5x.
    sizer = ResultStore(tmp_path / "sizer")
    sizer.put("sample", {"synthetic": "sample"}, result)
    entry_size = sizer.size_bytes()
    store = ResultStore(tmp_path / "capped", max_bytes=int(entry_size * 2.5))

    def put(key: str, stamp: int) -> None:
        store.put(key, {"synthetic": key}, result)
        store.evict(keep=key)
        os.utime(store._path(key), (stamp, stamp))

    put("key-a", 100)
    put("key-b", 200)
    assert store.evictions == 0 and len(store) == 2

    # Third entry overflows the 2.5-entry cap: key-a (oldest) is evicted.
    put("key-c", 300)
    assert store.evictions == 1
    assert store.get("key-a") is None
    assert store.get("key-b") is not None  # hit refreshes key-b's mtime...
    os.utime(store._path("key-b"), (400, 400))  # (made explicit for the test)

    # ...so the next overflow evicts key-c, not the recently-read key-b.
    put("key-d", 500)
    assert store.evictions == 2
    assert store.get("key-c") is None
    assert store.get("key-b") is not None
    assert store.get("key-d") is not None


def test_store_never_evicts_the_just_written_entry(tmp_path):
    result, _ = _filler_results(tmp_path)
    sizer = ResultStore(tmp_path / "sizer")
    sizer.put("sample", {"synthetic": "sample"}, result)
    store = ResultStore(
        tmp_path / "tiny", max_bytes=max(1, sizer.size_bytes() // 2)
    )
    store.put("only", {"synthetic": "only"}, result)
    store.evict(keep="only")
    assert len(store) == 1, "an oversized single entry still caches"
    assert store.evictions == 0
    store.put("next", {"synthetic": "next"}, result)
    store.evict(keep="next")
    assert len(store) == 1 and store.evictions == 1
    assert store.get("next") is not None


def test_capped_batch_evicts_once(tmp_path, monkeypatch):
    """A capped batch writes every new entry, then lists the store once
    and keeps the batch's last entry."""
    store = ResultStore(tmp_path, max_bytes=1)
    kept = []
    evict = store.evict

    def counting(keep: str) -> None:
        kept.append(keep)
        evict(keep)

    monkeypatch.setattr(store, "evict", counting)
    spec = PrefetcherSpec(kind="none")
    jobs = [common.sim_job("999.specrand", spec, scale) for scale in (0.05, 0.06, 0.07)]
    run_batch(jobs, store=store)
    assert kept == [jobs[-1].key()]
    assert store.evictions == 2 and len(store) == 1
    assert store.get(jobs[-1].key()) is not None


def test_store_uncapped_by_default_and_rejects_bad_cap(tmp_path):
    result, _ = _filler_results(tmp_path)
    store = ResultStore(tmp_path / "free")
    for index in range(5):
        store.put(f"key-{index}", {"synthetic": index}, result)
    assert len(store) == 5 and store.evictions == 0
    with pytest.raises(ConfigError):
        ResultStore(tmp_path, max_bytes=0)


def test_store_roundtrips_attack_probes(tmp_path):
    """Attack-job results persist and reload as ScenarioProbe objects."""
    store = ResultStore(tmp_path)
    job = ScenarioJob.build("flush-reload")
    (probe,) = run_batch([job], store=store)
    assert probe.succeeded, "undefended flush-reload must succeed"
    reread = ResultStore(tmp_path)
    (cached,) = run_batch([job], store=reread)
    assert reread.hits == 1
    assert dataclasses.asdict(cached) == dataclasses.asdict(probe)


def test_store_result_kind_dispatch(tmp_path):
    """A SimJob's entry names its result ``RunResult`` and reads back as
    one; an entry with no result_kind or an unknown one is a miss."""
    import json

    store = ResultStore(tmp_path)
    job = common.sim_job("999.specrand", PrefetcherSpec(kind="none"), 0.05)
    (result,) = run_batch([job], store=store)
    path = tmp_path / f"{job.key()}.json"
    data = json.loads(path.read_text())
    assert data["result_kind"] == "RunResult"
    assert ResultStore(tmp_path).get(job.key()) == result

    del data["result_kind"]
    path.write_text(json.dumps(data))
    unnamed = ResultStore(tmp_path)
    assert unnamed.get(job.key()) is None and unnamed.misses == 1

    data["result_kind"] = "Bogus"
    path.write_text(json.dumps(data))
    bogus = ResultStore(tmp_path)
    assert bogus.get(job.key()) is None and bogus.misses == 1


def _put_repeatedly(root: str, key: str, writer: int, puts: int) -> None:
    """One writer process of the shared-key race test."""
    store = ResultStore(root)
    result = RunResult(
        cycles=writer,
        instructions=1,
        core_cycles=[writer],
        core_instructions=[1],
        l1d_stats=[{}],
        l2_stats={},
        prefetch_counts=[{}],
    )
    for index in range(puts):
        store.put(key, {"writer": writer, "put": index}, result)


def test_store_survives_concurrent_writers_of_one_key(tmp_path):
    """Processes sharing a store put the same key at once: every put
    returns and the surviving entry loads.  Writers used to share one
    ``<key>.json.tmp``, so one could rename another's half-written file into
    place or fail in ``os.replace`` after the file was renamed away."""
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    writers = [
        context.Process(
            target=_put_repeatedly, args=(str(tmp_path), "shared", writer, 200)
        )
        for writer in range(4)
    ]
    for process in writers:
        process.start()
    try:
        for process in writers:
            process.join(timeout=120)
        assert [process.exitcode for process in writers] == [0, 0, 0, 0]
    finally:
        for process in writers:
            if process.is_alive():
                process.kill()
    result = ResultStore(tmp_path).get("shared")
    assert result is not None and result.cycles in range(4)
    assert [path.name for path in tmp_path.iterdir()] == ["shared.json"]


def test_store_clear(tmp_path):
    store = ResultStore(tmp_path)
    job = common.sim_job("999.specrand", PrefetcherSpec(kind="none"), 0.05)
    run_batch([job], store=store)
    assert store.clear() == 1
    assert len(store) == 0
    assert store.get(job.key()) is None


def test_sim_result_json_roundtrip():
    job = SimJob(workload="999.specrand", scale=0.05, sample_interval=50)
    result = job.run()
    assert result.samples, "sampling interval must record samples"
    again = RunResult.from_json(result.to_json())
    assert dataclasses.asdict(again) == dataclasses.asdict(result)


def test_sim_result_exports_defense_stats():
    """AT/RP internals (allocation_failures, protection lifecycle) must
    survive into the JSON-able result so Fig. 12-style reporting and the
    scenario suite can read buffer starvation after the run."""
    spec = PrefetcherSpec(kind="prefender", prefender=PrefenderConfig.full(8))
    result = SimJob(
        workload="462.libquantum", scale=0.1, system=common.perf_config(spec)
    ).run()
    assert len(result.defense_stats) == 1
    stats = result.defense_stats[0]
    for key in (
        "allocation_failures",
        "protections",
        "unprotections",
        "sweep_unprotections",
        "protected_buffers",
    ):
        assert key in stats, key
    again = RunResult.from_json(result.to_json())
    assert again.defense_stats == result.defense_stats
    # Baseline runs carry an empty per-core dict, not a missing field.
    baseline = SimJob(workload="999.specrand", scale=0.05).run()
    assert baseline.defense_stats == [{}]


def test_sim_job_rejects_non_positive_scale():
    with pytest.raises(ConfigError):
        SimJob(workload="999.specrand", scale=0.0)
    with pytest.raises(ConfigError):
        SimJob(workload="999.specrand", scale=-1.0)


def test_attack_job_unknown_kind():
    with pytest.raises(ConfigError):
        ScenarioJob(attack="rowhammer")
    with pytest.raises(ConfigError):
        ScenarioJob.build("rowhammer")


def test_attack_job_merges_class_default_options():
    job = ScenarioJob.build("prime-probe", SystemConfig(), noise_c3=True)
    assert job.options.noise_c3 is True
    # Prime+Probe's class defaults (48 monitored sets, secret 37) land in
    # the resolved options — and therefore in the job key.
    assert job.options.num_indices == 48
    assert job.options.secret == 37
    probe = job.run()
    assert probe.challenges == "C1+C2+C3"


def _planned_groups(jobs, target_tasks=1):
    """Member keys of each replay group ``_plan_units`` plans for ``jobs``."""
    pending = [(job.key(), job) for job in jobs]
    units = executor._plan_units(pending, True, target_tasks)
    assert all(is_group for _, _, is_group in units)
    return [unit_keys for unit_keys, _, _ in units]


def test_plan_keys_each_replay_group_once(monkeypatch):
    """The 1,440-trial security grid is planned with one group key per
    cell, and its groups are exactly those of ``replay_group_key``, each
    with its members in input order."""
    _, jobs = build_grid(DEFAULT_VICTIMS, DEFAULT_ATTACKS, common.DEFENSES, 16)
    calls = []

    def counted(job):
        calls.append(job)
        return replay_group_key(job)

    monkeypatch.setattr(replay, "replay_group_key", counted)
    planned = _planned_groups(jobs)
    assert len(calls) <= 90
    expected: dict[str, list[str]] = {}
    for job in jobs:
        expected.setdefault(replay_group_key(job), []).append(job.key())
    assert planned == list(expected.values())


def test_plan_splits_equal_systems_that_fingerprint_differently():
    """``num_cores=1`` and ``num_cores=True`` compare equal but key
    differently, so their trials replay in different groups; two equal
    configs that key the same share one."""
    jobs = [
        ScenarioJob.build("flush-reload", system, secret=secret)
        for system in (
            SystemConfig(num_cores=1),
            SystemConfig(num_cores=True),
            SystemConfig(num_cores=1),
        )
        for secret in (3, 4)
    ]
    assert jobs[0].system == jobs[2].system
    planned = _planned_groups(jobs)
    keys = [job.key() for job in jobs]
    assert planned == [keys[0:2] + keys[4:6], keys[2:4]]
