"""The three targets the Table III unit tests run on, behind one object.

Each target takes Table III rule calls (``load_immediate``,
``load_from_memory``, ``move``, ``alu``, ``reset``) and answers
``fva_of`` / ``scale_of``:

* ``reference``: the naive ``ReferenceCalc`` (``reference_calc``);
* ``handlers`` and ``blocks``: ``CoreCalc``, which turns the calls into a
  program and runs it on a real one-core ``Core``, with compiled blocks
  off (one handler call per instruction) or on.

``EveryTarget`` passes each call to all three and answers a query only
when they agree, so a unit test written against one calculation buffer
checks the rules the simulator runs, not a copy of them.
"""

from reference_calc import ReferenceCalc

from repro.cpu.core import Core, CoreConfig
from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.mem.hierarchy import MemoryHierarchy

#: Address ``load_from_memory`` reads (memory there is never written).
LOAD_ADDRESS = 0x8000


class CoreCalc:
    """Table III calls recorded as instructions and run on a ``Core``.

    Every query runs the recorded program on a fresh one-core system, once
    per change, and reads the core's calculation buffer.  The scale cap is
    the page size of the default address map, 4096.
    """

    def __init__(self, blocks):
        self.blocks = blocks
        self.instructions = []
        self._core = None
        self._was_reset = False

    def _emit(self, instruction):
        assert not self._was_reset, "CoreCalc takes no instruction after reset()"
        self.instructions.append(instruction)
        self._core = None

    def load_immediate(self, rd, imm):
        self._emit(Instruction("li", rd=rd, imm=imm))

    def load_from_memory(self, rd):
        self._emit(Instruction("load", rd=rd, rs0=0, imm=LOAD_ADDRESS))

    def move(self, rd, rs):
        self._emit(Instruction("mov", rd=rd, rs0=rs))

    def alu(self, op, rd, rs0, rs1=None, imm=None):
        self._emit(Instruction(op, rd=rd, rs0=rs0, rs1=rs1, imm=imm))

    def reset(self):
        self.run().calc.reset()
        self._was_reset = True

    def fva_of(self, reg):
        return self.run().calc.fva_of(reg)

    def scale_of(self, reg):
        return self.run().calc.scale_of(reg)

    def run(self):
        """The core after the recorded program has run to its ``halt``."""
        if self._core is None:
            program = Program(instructions=[*self.instructions, Instruction("halt")])
            core = Core(
                0,
                program,
                MemoryHierarchy(num_cores=1),
                CoreConfig(fuse_countdown_loops=self.blocks),
            )
            while not core.halted:
                core.step()
            self._core = core
        return self._core


class EveryTarget:
    """The reference, handler and block targets driven in step."""

    def __init__(self):
        self.targets = {
            "reference": ReferenceCalc(),
            "handlers": CoreCalc(blocks=False),
            "blocks": CoreCalc(blocks=True),
        }

    def _each(self, method, *args, **kwargs):
        return {
            name: getattr(target, method)(*args, **kwargs)
            for name, target in self.targets.items()
        }

    def load_immediate(self, rd, imm):
        self._each("load_immediate", rd, imm)

    def load_from_memory(self, rd):
        self._each("load_from_memory", rd)

    def move(self, rd, rs):
        self._each("move", rd, rs)

    def alu(self, op, rd, rs0, rs1=None, imm=None):
        self._each("alu", op, rd, rs0, rs1=rs1, imm=imm)

    def reset(self):
        self._each("reset")

    def fva_of(self, reg):
        return self._agreed("fva_of", reg)

    def scale_of(self, reg):
        return self._agreed("scale_of", reg)

    def _agreed(self, query, reg):
        answers = self._each(query, reg)
        assert len(set(answers.values())) == 1, f"{query}(r{reg}): {answers}"
        return answers["reference"]
