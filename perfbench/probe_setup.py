"""Set-up probe: one fresh interpreter, from start to the first unit.

Imports the simulator, builds the workload's grid for ``--seed``, starts a
pass and stops it the moment the first unit would begin, printing
``time.monotonic()`` at that instant.  ``run.py`` launches it and subtracts
its own launch time, so ``setup_s`` covers interpreter start, imports, grid
building and batch planning: work moved into any of them shows there.

    python3 perfbench/probe_setup.py --workload perf-table4 --seed 1
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class _FirstUnit(Exception):
    pass


def _first_unit(*args: Any, **kwargs: Any) -> Any:
    raise _FirstUnit(time.monotonic())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    from grids import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    owner, name = workload.first_unit_site()
    setattr(owner, name, _first_unit)
    try:
        workload.run_pass()
    except _FirstUnit as reached:
        print(repr(reached.args[0]))
        return 0
    print("probe_setup: the pass finished without starting a unit", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
