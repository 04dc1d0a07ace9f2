"""Benchmark entry point: one workload, warm passes, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload perf-table4 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics: set-up time from fresh
interpreters, then warm passes with tracing off.  ``--trace 1`` prints the
per-layer metrics: an untraced pass, traced passes (see ``spans.py``) and a
call-counting pass.  Either way every pass's outputs are checked against
``golden.json``, and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names
and units come from the ``BENCHMARK.json`` next to ``perfbench/``.

The spans and aggregates of a traced run are written to
``.perfbench/trace-<workload>-seed<n>.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

from speed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_PROBES = 9
SETUP_TIMEOUT_S = 60
#: Host-speed samples taken on each side of a set-up probe.
SETUP_SPEED_SAMPLES = 5


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _catalog() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _setup_seconds(workload: str, seed: int, speed: HostSpeed) -> float:
    """Fresh interpreter start to the first unit starting (imports + grid),
    in calibrated seconds."""
    command = [sys.executable, str(HERE / "probe_setup.py"),
               "--workload", workload, "--seed", str(seed)]
    speed.reset()
    speed.sample(SETUP_SPEED_SAMPLES)
    start = time.monotonic()
    probe = subprocess.run(command, capture_output=True, text=True,
                           timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    elapsed = time.monotonic()
    speed.sample(SETUP_SPEED_SAMPLES)
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
    first_unit = float(probe.stdout.split()[-1])
    if not start < first_unit < elapsed:
        raise RuntimeError(f"set-up probe reported an impossible time {first_unit}")
    return speed.calibrated(first_unit - start)


class Ledger:
    """Checks every pass against the pins and counts units attempted/failed."""

    def __init__(self, workload: Any, pinned: dict[str, Any]) -> None:
        self.workload = workload
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.figures_ok = True
        self.figures: dict[str, float] = {}

    def check(self, outcome: Any) -> None:
        from grids import failed_units, same_value

        self.attempted += self.workload.units
        self.failed += failed_units(self.workload, outcome, self.pinned["outputs"])
        for name, expected in self.pinned["figures"].items():
            got = outcome.figures.get(name)
            self.figures_ok = self.figures_ok and same_value(got, expected)
        self.figures = outcome.figures

    def timed(self, run: Callable[[], Any], speed: HostSpeed) -> float:
        """Run and check one pass; returns its calibrated seconds.

        Host speed is sampled at both ends of the pass and wherever the
        workload calls its ``between_units`` hook; the samples' own time
        inside the pass is not counted.
        """
        speed.reset()
        speed.sample()
        before = speed.spent
        start = time.perf_counter()
        outcome = run()
        elapsed = time.perf_counter() - start - (speed.spent - before)
        speed.sample()
        self.check(outcome)
        return speed.calibrated(elapsed)


def _end_to_end(workload: Any, ledger: Ledger, seconds: float, setups: list[float]) -> dict[str, float]:
    speed = HostSpeed()
    workload.between_units = lambda: speed.sample(workload.speed_samples)
    ledger.timed(workload.run_pass, speed)  # warm-up, discarded
    times: list[float] = []
    started = time.perf_counter()
    while not times or time.perf_counter() - started < seconds:
        times.append(ledger.timed(workload.run_pass, speed))
    pass_s = statistics.median(times)
    return {
        "setup_s": statistics.median(setups),
        "pass_s": pass_s,
        "units_per_s": workload.units / pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - ledger.failed / ledger.attempted,
    }


def _per_layer(
    workload: Any, ledger: Ledger, seconds: float, per_layer: dict[str, str], trace_path: Path
) -> dict[str, float]:
    from spans import CALIBRATION, ROOT, Tracer, count_python_calls

    speed = HostSpeed()
    tracer = Tracer()
    workload.between_units = tracer.wrap_calibration(
        lambda: speed.sample(workload.speed_samples)
    )
    ledger.timed(workload.run_pass, speed)  # warm-up, discarded
    untraced_s = ledger.timed(workload.run_pass, speed)
    tracer.install()
    traced: list[float] = []
    try:
        started = time.perf_counter()
        while not traced or time.perf_counter() - started < seconds:
            traced.append(ledger.timed(lambda: tracer.traced_pass(workload.run_pass), speed))
    finally:
        tracer.remove()
    del workload.between_units
    outcome, py_calls = count_python_calls(workload.run_pass)
    ledger.check(outcome)

    passes = tracer.passes()
    self_ns = tracer.self_times_ns()
    sim = tracer.sim

    # Layer self times are host seconds; scale them to calibrated seconds
    # so that, with the harness, they add up to the mean traced pass.
    raw_pass_ns = sum(self_ns.values()) - self_ns.get(CALIBRATION, 0)
    calibrate = statistics.fmean(traced) * passes * 1e9 / raw_pass_ns

    def seconds_of(layer: str) -> float:
        return self_ns.get(layer, 0) * calibrate / passes / 1e9

    def per_pass(count: float) -> float:
        return count / passes

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    instructions = per_pass(sim.instructions)
    traced_s = statistics.median(traced)
    metrics = {
        "runner.self_s": seconds_of("runner"),
        "runner.key_s": seconds_of("runner.key"),
        "runner.units": per_pass(tracer.calls.get("runner.units", 0)),
        "isa.build_s": seconds_of("isa.build"),
        "isa.programs_built": per_pass(tracer.calls.get("isa.programs_built", 0)),
        "analysis.strict_s": seconds_of("analysis.strict"),
        "sim.build_s": seconds_of("sim.build"),
        "cpu.self_s": seconds_of("cpu"),
        "cpu.instructions": instructions,
        "cpu.host_ns_per_instr": ratio(seconds_of("cpu") * 1e9, instructions),
        "cpu.sim_instr_per_s": instructions / untraced_s,
        "cpu.py_calls": float(py_calls),
        "cpu.py_calls_per_instr": ratio(py_calls, instructions),
        "mem.load_s": seconds_of("mem.load"),
        "mem.store_s": seconds_of("mem.store"),
        "mem.flush_s": seconds_of("mem.flush"),
        "mem.sw_prefetch_s": seconds_of("mem.sw_prefetch"),
        "mem.loads": per_pass(tracer.calls.get("mem.loads", 0)),
        "mem.stores": per_pass(tracer.calls.get("mem.stores", 0)),
        "mem.flushes": per_pass(tracer.calls.get("mem.flushes", 0)),
        "mem.sw_prefetches": per_pass(tracer.calls.get("mem.sw_prefetches", 0)),
        "mem.l1d_miss_rate": ratio(sim.l1d_misses, sim.l1d_accesses),
        "mem.l2_miss_rate": ratio(sim.l2_misses, sim.l2_accesses),
        "prefetch.observe_s": seconds_of("prefetch"),
        "prefetch.issued": per_pass(sim.prefetch_issued),
        "prefetch.useful_ratio": ratio(sim.prefetch_useful, sim.prefetch_issued),
        "core.scale_tracker_s": seconds_of("core.scale_tracker"),
        "core.access_tracker_s": seconds_of("core.access_tracker"),
        "core.record_protector_s": seconds_of("core.record_protector"),
        "core.decoys_issued": per_pass(sim.decoys),
        "core.allocation_failures": per_pass(sim.allocation_failures),
        "attacks.prepare_s": seconds_of("attacks.prepare"),
        "attacks.snapshot_s": seconds_of("attacks.snapshot"),
        "attacks.restore_s": seconds_of("attacks.restore"),
        "attacks.classify_s": seconds_of("attacks.classify"),
        "attacks.score_s": seconds_of("attacks.score"),
        "analysis.cachemodel_s": seconds_of("analysis.cachemodel"),
        "analysis.certify_self_s": seconds_of("analysis.certify"),
        "experiments.self_s": seconds_of("experiments"),
        "harness.self_s": seconds_of(ROOT),
        "trace.pass_s": traced_s,
        "trace.untraced_pass_s": untraced_s,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        "trace.accounted_frac": 1.0 - self_ns.get(ROOT, 0) / raw_pass_ns,
    }
    # Each workload derives only its own simulated figures; the others read 0.
    for name in per_layer:
        if name.startswith("model."):
            metrics[name] = ledger.figures.get(name[len("model."):], 0.0)
    OUT.mkdir(exist_ok=True)
    trace_path.write_text(json.dumps({
        "workload": workload.name,
        "passes": passes,
        "traced_pass_s": traced,
        "untraced_pass_s": untraced_s,
        "host_self_s": {layer: ns / passes / 1e9 for layer, ns in sorted(self_ns.items())},
        "calibration_factor": calibrate,
        "aggregates": [
            {"layer": layer, "parent": parent, "count": count,
             "total_ns": total, "child_ns": child}
            for (layer, parent), (count, total, child) in sorted(tracer.aggregates.items())
        ],
        "spans": tracer.spans,
    }, indent=1))
    return metrics


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order follows the string-hash seed, and with it how
        # often a generator resumes, which the call count sees: pin it for
        # the whole run (set-up probes inherit it).
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run it from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from grids import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    end_to_end, per_layer = _catalog()
    pinned = json.loads((HERE / "golden.json").read_text())[args.workload]

    setups = [] if args.trace else [
        _setup_seconds(args.workload, args.seed, HostSpeed())
        for _ in range(SETUP_PROBES)
    ]
    workload = WORKLOADS[args.workload](args.seed)
    ledger = Ledger(workload, pinned)
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        measured = _per_layer(workload, ledger, args.seconds, per_layer, trace_path)
        catalog = per_layer
    else:
        measured = _end_to_end(workload, ledger, args.seconds, setups)
        catalog = end_to_end
    if set(measured) != set(catalog):
        print(f"perfbench: metrics {sorted(set(measured) ^ set(catalog))} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 2

    print(f"{args.workload}: {workload.units} units ({workload.unit}s) per pass, "
          f"{ledger.attempted} checked, {ledger.failed} failed")
    for name, value in measured.items():
        print(f"{args.workload:>14} {name:<28} {value:>16.6g} {catalog[name]}")
    for name, value in ledger.figures.items():
        print(f"{args.workload:>14} {name:<28} {value:>16.6g} (simulated)")
    result = {
        "correct": ledger.failed == 0 and ledger.figures_ok,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": measured[name], "unit": catalog[name]}
            for name in catalog
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
