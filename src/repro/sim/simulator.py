"""Build-and-run helpers used by examples, tests and experiments."""

from __future__ import annotations

from repro.cpu.access_trace import AccessTrace, RecordingHierarchy
from repro.cpu.system import RunResult, System
from repro.errors import ConfigError
from repro.isa.program import Program
from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.config import SystemConfig, build_prefetcher


def build_system(
    programs: list[Program],
    config: SystemConfig | None = None,
    *,
    hierarchy_type: type[MemoryHierarchy] = MemoryHierarchy,
) -> System:
    """Construct a ready-to-run :class:`System` for ``programs``.

    One program per core; the configured prefetcher is instantiated
    independently for every core's L1D (per Fig. 2, PREFENDER lives in each
    L1D).  The hierarchy is a ``hierarchy_type``: :func:`record_program`
    passes :class:`~repro.cpu.access_trace.RecordingHierarchy`.
    """
    config = config or SystemConfig()
    if config.num_cores != len(programs):
        raise ConfigError(
            f"config.num_cores={config.num_cores} but {len(programs)} "
            "program(s) supplied"
        )
    amap = config.address_map()
    hierarchy = hierarchy_type(
        num_cores=config.num_cores, config=config.hierarchy, amap=amap
    )
    for core_id in range(config.num_cores):
        hierarchy.attach_prefetcher(
            core_id, build_prefetcher(config.prefetcher, amap)
        )
    return System(programs, hierarchy, config.core)


def run_program(
    program: Program,
    config: SystemConfig | None = None,
    max_steps: int = 20_000_000,
    sample_interval: int | None = None,
) -> RunResult:
    """Run a single-core program to halt and return its statistics."""
    config = config or SystemConfig()
    if config.num_cores != 1:
        raise ConfigError("run_program is single-core; use run_programs")
    system = build_system([program], config)
    return system.run(max_steps=max_steps, sample_interval=sample_interval)


def record_program(
    program: Program, config: SystemConfig, max_steps: int = 20_000_000
) -> tuple[RunResult, AccessTrace]:
    """:func:`run_program`, and the trace of the run's loads and stores.

    ``program`` must be :func:`~repro.cpu.access_trace.replayable` under
    ``config.core``.
    """
    system = build_system([program], config, hierarchy_type=RecordingHierarchy)
    hierarchy = system.hierarchy
    assert isinstance(hierarchy, RecordingHierarchy)
    result = system.run(max_steps=max_steps)
    return result, hierarchy.trace(system.cores[0])


def replay_program(
    program: Program, config: SystemConfig, trace: AccessTrace
) -> RunResult:
    """The result :func:`run_program` gives, from a replay of ``trace``
    (see :meth:`System.replay <repro.cpu.system.System.replay>`)."""
    return build_system([program], config).replay(trace)


def run_programs(
    programs: list[Program],
    config: SystemConfig,
    max_steps: int = 20_000_000,
    sample_interval: int | None = None,
) -> RunResult:
    """Run one program per core to halt and return combined statistics."""
    system = build_system(programs, config)
    return system.run(max_steps=max_steps, sample_interval=sample_interval)
