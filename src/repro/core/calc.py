r"""Calculation buffer: the per-register state of Table III.

For every architectural register the buffer tracks

* ``fva`` — the *fixed value*: the exact value of the register when its whole
  dataflow history depends only on immediates; ``None`` encodes the paper's
  ``NA`` ("depends on a loaded/unknown variable").
* ``sc`` — the *scale*: the stride with which the register's value can move
  when the unknown variables in its history change by one step.

This module holds only that state and its readers.  The core updates it:
the rules of the register-only instructions are defined once in
:mod:`repro.cpu.alu`, and a load or ``rdcycle`` makes its destination an
unknown variable (NA, scale 1).  ``tests/reference_calc.py`` keeps an
independent copy of the rules that the core is fuzzed against.

``r0`` is hard-wired zero, so its track is the constant (fva 0, sc 1): it
starts that way, :meth:`CalculationBuffer.reset` keeps it, and no
instruction writes it.

Scales are kept positive and saturated at ``scale_cap``, the page size
(the hardware uses 16-bit registers because prefetching never crosses a
page — Sec. V-E).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.registers import NUM_REGISTERS


@dataclass
class RegisterTrack:
    """Tracking state for one register: ``(fva, sc)``."""

    fva: int | None = None
    sc: int = 1

    def reset(self) -> None:
        self.fva = None
        self.sc = 1


class CalculationBuffer:
    """Per-register ``(fva, sc)`` state, updated by the core."""

    def __init__(
        self, num_registers: int = NUM_REGISTERS, scale_cap: int = 4096
    ) -> None:
        self.scale_cap = scale_cap
        self._tracks = [RegisterTrack(0)] + [
            RegisterTrack() for _ in range(num_registers - 1)
        ]

    def scale_of(self, reg: int) -> int:
        """The scale used by the Scale Tracker for a load based on ``reg``."""
        return self._tracks[reg].sc

    def fva_of(self, reg: int) -> int | None:
        return self._tracks[reg].fva

    def reset(self) -> None:
        """Every register an unknown variable again, except ``r0``."""
        for track in self._tracks[1:]:
            track.reset()
