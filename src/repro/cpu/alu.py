r"""The register-only instructions, defined once.

Every decode kind that touches nothing but a core's registers and
calculation buffer (``li``, ``mov`` and the fifteen ALU kinds) is one
:class:`RegisterOp` in :data:`REGISTER_OPS`: its Python operator, the form
of its operands and the Table III row (arXiv 2307.06756) that updates the
destination's ``(fva, sc)`` track.  Everything else about these kinds is
generated from that table:

* :func:`write` returns one instruction's register write and track update
  as source lines.  ``Core`` generates its per-instruction handler for
  each kind from them, and :mod:`repro.cpu.blocks` inlines them into each
  compiled block.
* :data:`VALUES` holds one compiled ``value(a, b)`` per ALU kind, the
  same expression as the register write, for the constant propagation of
  :mod:`repro.analysis.dataflow`.
* :data:`MUL_KINDS` are the kinds that pay ``CoreConfig.mul_cost``.

Table III, with ``+`` also covering ``-`` and ``x`` also covering the
shifts.  A known operand is a register whose ``fva`` is not NA, or an
immediate::

    row    operands                 fva_d              sc_d
    +/-    all known                the value          1
           one register NA          NA                 sc of that register
           both registers NA        NA                 min(sc_a, sc_b)
    x      all known                the value          1
           a NA, b known            NA                 sc_a x fva_b
           a known, b NA            NA                 fva_a * sc_b (mul);
                                                       1 (shift)
           both NA                  NA                 sc_a * sc_b (mul);
                                                       1 (shift)
    other  any                      NA                 1

``li`` is the ``+/-`` row over an immediate alone, and ``mov`` is
``add rd, rs, 0``.  Every scale goes through the clamp: absolute value, at
least 1, at most the page size (the hardware keeps 16-bit scales because
prefetching never crosses a page, Sec. V-E).  The paper prints NA as the scale of a both-valid
result; since prefetching needs a scale above one cacheline, NA and 1
behave the same, and the table uses 1.

The value masks to 64 bits; the ``x`` row's scale does not, so a negative
``mul`` immediate scales by its magnitude.  That is why decode keeps
``mul``'s immediate raw.  A shift by a register shifts by its low six
bits; decode reduces a shift immediate the same way.

``tests/reference_calc.py`` holds an independent copy of these rules,
written over ``Instruction`` fields, and ``tests/test_calc_reference.py``
fuzzes the core's handlers, its compiled blocks and the constant
propagation against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.isa.decode import (
    K_ADD_RI,
    K_ADD_RR,
    K_AND_RI,
    K_AND_RR,
    K_LI,
    K_MOV,
    K_MUL_RI,
    K_MUL_RR,
    K_OR_RI,
    K_OR_RR,
    K_SLL_RI,
    K_SLL_RR,
    K_SRL_RI,
    K_SRL_RR,
    K_SUB_RR,
    K_XOR_RI,
    K_XOR_RR,
)
from repro.isa.registers import WORD_MASK

#: Table III rows.
ADD_ROW = "+/-"
MUL_ROW = "x"
OTHER_ROW = "other"

#: Operators whose result can leave 64 bits, so the value masks it.
_WIDENING = frozenset({"+", "-", "*", "<<"})
_SHIFTS = frozenset({"<<", ">>"})


@dataclass(frozen=True)
class RegisterOp:
    """One register-only decode kind: ``rd <- a operator b``."""

    kind: int
    #: Handler name suffix, as in ``Core._op_add_rr``.
    name: str
    #: Python binary operator; empty for ``li`` and ``mov`` (``rd <- a``).
    operator: str
    #: Operand fields after ``rd`` in the decode tuple: ``r`` a register,
    #: ``i`` an immediate.
    form: str
    row: str

    def expression(self, a: str, b: str = "") -> str:
        """Source of ``a operator b`` over operand sources, unmasked."""
        if not self.operator:
            return a
        if self.operator in _SHIFTS and self.form[1] == "r":
            b = f"({b} & 0x3F)"
        return f"{a} {self.operator} {b}"

    def value(self, a: str, b: str = "") -> str:
        """Source of the 64-bit result: the register write and a known fva."""
        if self.operator in _WIDENING:
            return f"({self.expression(a, b)}) & {WORD_MASK}"
        return self.expression(a, b)


REGISTER_OPS = (
    RegisterOp(K_LI, "li", "", "i", ADD_ROW),
    RegisterOp(K_MOV, "mov", "", "r", ADD_ROW),
    RegisterOp(K_ADD_RR, "add_rr", "+", "rr", ADD_ROW),
    RegisterOp(K_SUB_RR, "sub_rr", "-", "rr", ADD_ROW),
    # Covers ``sub rd, rs, imm`` too: decode negates the immediate.
    RegisterOp(K_ADD_RI, "add_ri", "+", "ri", ADD_ROW),
    RegisterOp(K_MUL_RR, "mul_rr", "*", "rr", MUL_ROW),
    RegisterOp(K_MUL_RI, "mul_ri", "*", "ri", MUL_ROW),
    RegisterOp(K_SLL_RR, "sll_rr", "<<", "rr", MUL_ROW),
    RegisterOp(K_SRL_RR, "srl_rr", ">>", "rr", MUL_ROW),
    RegisterOp(K_SLL_RI, "sll_ri", "<<", "ri", MUL_ROW),
    RegisterOp(K_SRL_RI, "srl_ri", ">>", "ri", MUL_ROW),
    RegisterOp(K_AND_RR, "and_rr", "&", "rr", OTHER_ROW),
    RegisterOp(K_OR_RR, "or_rr", "|", "rr", OTHER_ROW),
    RegisterOp(K_XOR_RR, "xor_rr", "^", "rr", OTHER_ROW),
    RegisterOp(K_AND_RI, "and_ri", "&", "ri", OTHER_ROW),
    RegisterOp(K_OR_RI, "or_ri", "|", "ri", OTHER_ROW),
    RegisterOp(K_XOR_RI, "xor_ri", "^", "ri", OTHER_ROW),
)

OPS_BY_KIND = {op.kind: op for op in REGISTER_OPS}

#: Kinds that pay ``mul_cost`` instead of ``base_cost``.
MUL_KINDS = frozenset(op.kind for op in REGISTER_OPS if op.operator == "*")


def _clamped(expr: str, cap: str) -> list[str]:
    """``t.sc`` = the scale clamp of ``expr``: abs, at least 1, at most ``cap``."""
    return [
        f"sc = {expr}",
        "if sc < 0: sc = -sc",
        f"t.sc = 1 if sc < 1 else (sc if sc <= {cap} else {cap})",
    ]


def _indented(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def _track_lines(op: RegisterOp, rd: str, operands: list[str], cap: str) -> list[str]:
    """The Table III update of ``tracks[rd]``.  Each source field is read
    before the same field of the destination is written, so ``rd`` may
    also be a source."""
    if op.row == OTHER_ROW:
        return [f"t = tracks[{rd}]", "t.fva = None", "t.sc = 1"]
    registers = op.form.count("r")
    if registers == 0:
        return [f"t = tracks[{rd}]", "t.fva = " + op.value(*operands), "t.sc = 1"]
    if registers == 1:
        # An immediate b is known, so the register's own track decides.
        imm = operands[1:]
        if op.row == ADD_ROW:
            # Adding an immediate offset does not change the scale.
            unknown = ["t.sc = s.sc"]
        else:
            unknown = _clamped(op.expression("s.sc", *imm), cap)
        return [
            f"s = tracks[{operands[0]}]",
            f"t = tracks[{rd}]",
            "if s.fva is None:",
            "    t.fva = None",
            *_indented(unknown),
            "else:",
            "    t.fva = " + op.value("s.fva", *imm),
            "    t.sc = 1",
        ]
    a, b = operands
    lines = [
        f"s = tracks[{a}]",
        f"o = tracks[{b}]",
        f"t = tracks[{rd}]",
        "sf = s.fva",
        "of = o.fva",
        "if sf is not None and of is not None:",
        "    t.fva = " + op.value("sf", "of"),
        "    t.sc = 1",
        "elif sf is None and of is not None:",
        "    t.fva = None",
    ]
    if op.row == ADD_ROW:
        return lines + [
            "    t.sc = s.sc",
            "elif sf is not None:",
            "    t.fva = None",
            "    t.sc = o.sc",
            "else:",
            "    t.fva = None",
            "    ssc = s.sc",
            "    osc = o.sc",
            "    t.sc = ssc if ssc < osc else osc",
        ]
    lines += _indented(_clamped(op.expression("s.sc", "of"), cap))
    if op.operator in _SHIFTS:
        # A shift by an unknown amount has no scale: reinitialise.
        return lines + ["else:", "    t.fva = None", "    t.sc = 1"]
    return lines + [
        "elif sf is not None:",
        "    t.fva = None",
        *_indented(_clamped(op.expression("sf", "o.sc"), cap)),
        "else:",
        "    t.fva = None",
        *_indented(_clamped(op.expression("s.sc", "o.sc"), cap)),
    ]


def write(op: RegisterOp, rd: str, operands: list[str], cap: str) -> list[str]:
    """Source lines that run one instruction of kind ``op``.

    ``rd`` and each operand are source text: a register index for an ``r``
    field, an immediate for an ``i`` field, each a literal or a name the
    lines can read.  The lines read the names ``values`` and ``tracks``
    (the core's register values and calculation-buffer tracks), write the
    value first, and clamp scales to ``cap``.  ``rd`` must not be ``r0``:
    it is hard-wired zero, and its track is the constant, so callers emit
    nothing for an instruction that writes it.
    """
    sources = [
        f"values[{operand}]" if field == "r" else operand
        for field, operand in zip(op.form, operands)
    ]
    value = f"values[{rd}] = " + op.value(*sources)
    return [value] + _track_lines(op, rd, operands, cap)


def define(source: str, name: str, filename: str) -> Any:
    """The function ``name`` that generated ``source`` defines.

    The source runs without builtins: generated code needs none, and
    reads nothing but its arguments.  The function leaves its own globals,
    so dropping it frees it by refcount, with no cycle to collect.
    """
    namespace: dict[str, Any] = {"__builtins__": {}}
    exec(compile(source, filename, "exec"), namespace)
    return namespace.pop(name)


def _value_function(op: RegisterOp) -> Callable[[int, int], int]:
    source = f"def value(a, b):\n    return {op.value('a', 'b')}\n"
    function: Callable[[int, int], int] = define(
        source, "value", f"<value {op.name}>"
    )
    return function


#: ``kind -> value(a, b)``: the result of each ALU kind from its operand
#: values, for constant propagation.  ``li`` and ``mov`` copy their operand.
VALUES = {op.kind: _value_function(op) for op in REGISTER_OPS if op.operator}
