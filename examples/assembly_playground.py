#!/usr/bin/env python3
"""Write an attack in raw assembly text and watch the Scale Tracker work.

Demonstrates the assembler front-end and the Table III dataflow: the
victim's index arrives from memory (so its register is ``NA``), the
multiply by 0x200 gives the address its *scale*, and the Scale Tracker
turns that into decoy prefetches.
"""

from repro import PrefenderConfig, PrefetcherSpec, SystemConfig, assemble
from repro.sim.simulator import build_system

SOURCE = """
.name victim_demo
.equ ARRAY   0x02000000
.equ SECRETP 0x03002100
.data 0x03002100 stride=8 12        ; the secret: 12

    li   r1, ARRAY
    li   r2, SECRETP
    load r3, 0(r2)        ; secret from memory -> fva NA
    mul  r4, r3, 0x200    ; scale becomes 0x200 (Table III mul rule)
    add  r5, r1, r4       ; base + secret*0x200 keeps the scale
    load r6, 0(r5)        ; the Scale Tracker fires here
    halt
"""


def main() -> None:
    program = assemble(SOURCE)
    print("Disassembly:\n" + program.to_text() + "\n")

    config = SystemConfig(
        prefetcher=PrefetcherSpec(
            kind="prefender", prefender=PrefenderConfig.st_only()
        )
    )
    system = build_system([program], config)
    trace: list[tuple[int, str, int]] = []
    system.hierarchy.attach_trace(0, trace)
    result = system.run()
    counts = result.prefetch_counts[0]
    print(f"Scale Tracker prefetches issued: {counts.get('st', 0)}")
    for _, component, block in trace:
        index = (block - 0x02000000) // 0x200
        print(f"  {component}: line of array index {index} (block {block:#x})")
    print("\nThe victim accessed index 12; the decoys sit at 11 and 13 —")
    print("a Flush+Reload attacker now sees three equally-warm lines.")


if __name__ == "__main__":
    main()
