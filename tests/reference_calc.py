r"""A naive reference for the register-only instructions and Table III.

``ReferenceCalc`` states the Table III rules op string by op string, and
``ReferenceMachine`` adds plain register semantics.  Both read
``Instruction`` fields (op strings, raw immediates), not decode tuples, and
share no code with the table the core runs (``src/repro/cpu/alu.py``):
``tests/test_calc_reference.py`` fuzzes the core's handlers, its compiled
blocks and the constant propagation against them.

Rules (``+`` also covers ``-``, ``x`` also covers ``<<``/``>>``):

=====================  =======================  =======================
Instruction            ``fva_d``                ``sc_d``
=====================  =======================  =======================
``li rd, imm``         ``imm``                  1
``load rd, imm(rs)``   NA                       1
``add rd, rs, imm``    NA if fva(rs) NA         sc(rs)
\                      fva(rs)+imm otherwise    1
``add rd, rs0, rs1``   both valid: sum          1
\                      one NA: NA               sc of the NA-side register
\                      both NA: NA              min(sc0, sc1)
``mul rd, rs, imm``    NA if fva(rs) NA         sc(rs) * imm
\                      fva(rs)*imm otherwise    1
``mul rd, rs0, rs1``   both valid: product      1
\                      rs0 NA: NA               sc0 * fva1
\                      rs1 NA: NA               fva0 * sc1
\                      both NA: NA              sc0 * sc1
otherwise              NA                       1
=====================  =======================  =======================

A shift by an unknown (NA) amount reinitialises.  Scales are kept positive
and saturated at ``scale_cap``.  ``r0`` is hard-wired zero: its track is
the constant (fva 0, sc 1) and no rule writes it.
"""

WORD_MASK = (1 << 64) - 1
NUM_REGISTERS = 32

ADD_OPS = frozenset({"add", "sub"})
MUL_OPS = frozenset({"mul", "sll", "srl"})
ALU_OPS = ADD_OPS | MUL_OPS | frozenset({"and", "or", "xor"})


class ReferenceCalc:
    """Per-register ``(fva, sc)`` plus the Table III update rules."""

    def __init__(self, num_registers=NUM_REGISTERS, scale_cap=4096):
        self.scale_cap = scale_cap
        self.fva = [None] * num_registers
        self.sc = [1] * num_registers
        self.fva[0] = 0

    # -- queries --------------------------------------------------------------

    def scale_of(self, reg):
        return self.sc[reg]

    def fva_of(self, reg):
        return self.fva[reg]

    def reset(self):
        for reg in range(1, len(self.fva)):
            self._set(reg, None, 1)

    # -- helpers ---------------------------------------------------------------

    def _set(self, rd, fva, sc):
        if rd != 0:
            self.fva[rd] = fva
            self.sc[rd] = sc

    def _clamp_scale(self, scale):
        scale = abs(scale)
        if scale < 1:
            return 1
        return min(scale, self.scale_cap)

    @staticmethod
    def _mask(value):
        return value & WORD_MASK

    # -- update rules -----------------------------------------------------------

    def load_immediate(self, rd, imm):
        """``li rd, imm``: fva <- imm, sc <- 1."""
        self._set(rd, self._mask(imm), 1)

    def load_from_memory(self, rd):
        """``load rd, imm(rs)``: destination becomes an unknown variable."""
        self._set(rd, None, 1)

    def move(self, rd, rs):
        """``mov rd, rs`` == ``add rd, rs, 0`` under Table III."""
        self.alu("add", rd, rs, imm=0)

    def other(self, rd):
        """The "Otherwise" rule: reinitialise the destination."""
        self._set(rd, None, 1)

    def alu(self, op, rd, rs0, rs1=None, imm=None):
        """Apply the Table III rule for one ALU instruction.

        Exactly one of ``rs1`` / ``imm`` must be provided.  Ops outside
        add/sub/mul/sll/srl fall into the "Otherwise" rule.
        """
        if op in ADD_OPS:
            self._add_like(op, rd, rs0, rs1, imm)
        elif op in MUL_OPS:
            self._mul_like(op, rd, rs0, rs1, imm)
        else:
            self.other(rd)

    # Addition / subtraction ---------------------------------------------------

    def _add_like(self, op, rd, rs0, rs1, imm):
        source_fva, source_sc = self.fva[rs0], self.sc[rs0]
        if imm is not None:
            if source_fva is None:
                # Adding an immediate offset does not change the scale.
                new_fva, new_sc = None, source_sc
            else:
                value = source_fva + imm if op == "add" else source_fva - imm
                new_fva, new_sc = self._mask(value), 1
        else:
            other_fva, other_sc = self.fva[rs1], self.sc[rs1]
            if source_fva is not None and other_fva is not None:
                value = (
                    source_fva + other_fva
                    if op == "add"
                    else source_fva - other_fva
                )
                new_fva, new_sc = self._mask(value), 1
            elif source_fva is None and other_fva is not None:
                new_fva, new_sc = None, source_sc
            elif source_fva is not None and other_fva is None:
                new_fva, new_sc = None, other_sc
            else:
                new_fva, new_sc = None, min(source_sc, other_sc)
        self._set(rd, new_fva, self._clamp_scale(new_sc))

    # Multiplication / shifts ----------------------------------------------------

    @staticmethod
    def _apply_mul(op, value, factor):
        if op == "mul":
            return value * factor
        shift = factor & 0x3F
        if op == "sll":
            return value << shift
        return value >> shift  # srl

    def _mul_like(self, op, rd, rs0, rs1, imm):
        source_fva, source_sc = self.fva[rs0], self.sc[rs0]
        if imm is not None:
            if source_fva is None:
                new_fva = None
                new_sc = self._apply_mul(op, source_sc, imm)
            else:
                new_fva = self._mask(self._apply_mul(op, source_fva, imm))
                new_sc = 1
        else:
            other_fva, other_sc = self.fva[rs1], self.sc[rs1]
            if source_fva is not None and other_fva is not None:
                new_fva = self._mask(self._apply_mul(op, source_fva, other_fva))
                new_sc = 1
            elif source_fva is None and other_fva is not None:
                new_fva = None
                new_sc = self._apply_mul(op, source_sc, other_fva)
            elif source_fva is not None and other_fva is None:
                if op == "mul":
                    new_fva, new_sc = None, source_fva * other_sc
                else:
                    # Shift by an unknown amount: conservatively reinitialise.
                    new_fva, new_sc = None, 1
            else:
                if op == "mul":
                    new_fva, new_sc = None, source_sc * other_sc
                else:
                    new_fva, new_sc = None, 1
        self._set(rd, new_fva, self._clamp_scale(new_sc))


def alu_value(op, a, b):
    """The 64-bit result of ALU ``op`` on register value ``a`` and ``b``
    (a register value or a raw immediate)."""
    if op == "add":
        result = a + b
    elif op == "sub":
        result = a - b
    elif op == "mul":
        result = a * b
    elif op == "sll":
        result = a << (b & 0x3F)
    elif op == "srl":
        result = a >> (b & 0x3F)
    elif op == "and":
        result = a & b
    elif op == "or":
        result = a | b
    else:
        result = a ^ b
    return result & WORD_MASK


class ReferenceMachine:
    """Registers, a word memory and a ``ReferenceCalc``, run one
    ``Instruction`` at a time.  Covers the register-only instructions,
    ``nop`` and ``load``; anything else raises."""

    def __init__(self, memory, scale_cap=4096):
        self.regs = [0] * NUM_REGISTERS
        self.calc = ReferenceCalc(scale_cap=scale_cap)
        self.memory = memory

    def _write(self, rd, value):
        if rd != 0:
            self.regs[rd] = value & WORD_MASK

    def execute(self, ins):
        op = ins.op
        regs, calc = self.regs, self.calc
        if op == "nop":
            return
        if op == "li":
            self._write(ins.rd, ins.imm)
            calc.load_immediate(ins.rd, ins.imm)
        elif op == "mov":
            self._write(ins.rd, regs[ins.rs0])
            calc.move(ins.rd, ins.rs0)
        elif op == "load":
            address = (regs[ins.rs0] + ins.imm) & WORD_MASK
            self._write(ins.rd, self.memory.get(address, 0))
            calc.load_from_memory(ins.rd)
        elif op in ALU_OPS:
            b = regs[ins.rs1] if ins.rs1 is not None else ins.imm
            self._write(ins.rd, alu_value(op, regs[ins.rs0], b))
            calc.alu(op, ins.rd, ins.rs0, rs1=ins.rs1, imm=ins.imm)
        else:
            raise ValueError(f"the reference does not model {op!r}")
