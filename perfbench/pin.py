"""Re-pin ``golden.json`` from the code as it stands.

Runs one pass of every workload and records each unit's output (per
simulation ``[cycles, instructions]``, per scenario cell ``[success, MI]``,
per certified cell its verdict) and the simulated headline figures.  Only
re-pin when a change is meant to alter simulated behaviour.

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    from grids import WORKLOADS

    pins = {}
    for name, cls in WORKLOADS.items():
        outcome = cls(0).run_pass()
        if outcome.raised:
            print(f"pin: {name} units raised: {sorted(outcome.raised)}", file=sys.stderr)
            return 1
        pins[name] = {"figures": outcome.figures, "outputs": outcome.outputs}
    (HERE / "golden.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
