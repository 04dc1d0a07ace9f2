"""Secret-taint analysis: sources, classification, AN-SECRET-* rules.

The differential half (static leak map vs. the dynamic scenario oracle)
lives in ``tests/test_taint_oracle.py``; this file covers the unit
surface: the ``.secret`` directive, taint propagation through registers
and memory, per-access classification, and the analyzer rules layered on
top.
"""

import pytest

from repro.analysis import (
    KNOWN_SECRET_ADDRS,
    analyze_program,
    leak_map,
    taint_of_program,
)
from repro.attacks.layout import AttackLayout
from repro.errors import AnalysisError, AssemblyError
from repro.isa import ProgramBuilder, assemble

SECRET = 0x3002100  # == AttackLayout().secret_addr

LOOKUP = f"""
.name lookup
.secret {SECRET:#x}
.data {SECRET:#x} 3
    li   r1, {SECRET:#x}
    load r2, 0(r1)          ; taint seed
    sll  r2, r2, 9          ; index -> offset (scale 0x200)
    li   r3, 0x2000000
    add  r3, r3, r2
    load r4, 0(r3)          ; secret-addressed
    store r2, 0x100(zero)   ; secret-valued, fixed address
    load r5, 0x40(zero)     ; clean
    halt
"""


def taint_of(source):
    return taint_of_program(assemble(source))


# -- declarations -----------------------------------------------------------


def test_secret_directive_populates_taint_sources():
    program = assemble(LOOKUP)
    assert program.taint_sources == {SECRET}


def test_secret_directive_rejects_garbage():
    with pytest.raises(AssemblyError, match="line 1"):
        assemble(".secret nope\nhalt")
    with pytest.raises(AssemblyError, match="line 1"):
        assemble(".secret\nhalt")


def test_builder_taint_source_validates():
    builder = ProgramBuilder("declared")
    builder.taint_source(SECRET)
    builder.halt()
    assert builder.build().taint_sources == {SECRET}
    with pytest.raises(AssemblyError):
        ProgramBuilder("bad").taint_source(-1)


def test_known_secret_addrs_pins_the_scenario_layout():
    """taint.py hard-codes the cell so the analysis layer never imports
    the attacks package; this pin breaks if the layout ever moves."""
    assert AttackLayout().secret_addr in KNOWN_SECRET_ADDRS


# -- taint propagation and classification -----------------------------------


def test_lookup_classification():
    taint = taint_of(LOOKUP)
    assert taint.sources == (1,)
    assert taint.secret_addressed() == (5,)
    assert taint.secret_valued() == (1, 6)  # the seed load and the spill
    assert taint.classification(7) == "clean"
    assert taint.branches == ()
    assert taint.leaks


def test_li_strips_taint():
    taint = taint_of(
        f"""
        .secret {SECRET:#x}
        li   r1, {SECRET:#x}
        load r2, 0(r1)
        li   r2, 7              ; overwrite kills the taint
        add  r3, r2, r2
        load r4, 0(r3)
        halt
        """
    )
    assert taint.secret_addressed() == ()
    assert not taint.leaks


def test_spilled_secret_stays_tracked_through_memory():
    """Store secret to a scratch cell, reload it, index with the reload:
    the outer memory fixpoint must keep the second load tainted."""
    taint = taint_of(
        f"""
        .secret {SECRET:#x}
        li   r1, {SECRET:#x}
        load r2, 0(r1)
        store r2, 0x8000(zero)  ; spill
        li   r2, 0
        load r3, 0x8000(zero)   ; reload: still secret-valued
        load r4, 0(r3)          ; secret-addressed
        halt
        """
    )
    assert 0x8000 in taint.tainted_memory
    assert taint.secret_addressed() == (5,)


def test_secret_branch_detected():
    taint = taint_of(
        f"""
        .allow AN-SECRET-BRANCH
        .secret {SECRET:#x}
        li   r1, {SECRET:#x}
        load r2, 0(r1)
        beq  r2, zero, out
        nop
        out:
        halt
        """
    )
    assert taint.branches == (2,)
    assert taint.leaks


def test_unresolved_load_without_tainted_base_is_clean():
    """Attacker-style sweep: the index register is loop-carried, the
    address never resolves, and no secret feeds it — clean by design."""
    taint = taint_of(
        """
        li   r1, 0x2000000
        li   r2, 4
        loop:
        load r3, 0(r1)
        add  r1, r1, 0x200
        sub  r2, r2, 1
        bne  r2, zero, loop
        halt
        """
    )
    assert all(a.classification == "clean" for a in taint.accesses)
    assert not taint.leaks


# -- analyzer rules ---------------------------------------------------------


def test_an_secret_addr_is_info_and_never_blocks_strict():
    program = assemble(LOOKUP, strict=True)  # must not raise
    rules = [f.rule for f in program.analysis.findings]
    assert "AN-SECRET-ADDR" in rules
    assert program.analysis.blocking() == ()


def test_an_secret_branch_blocks_strict_unless_allowed():
    source = f"""
    .secret {SECRET:#x}
    li   r1, {SECRET:#x}
    load r2, 0(r1)
    beq  r2, zero, out
    nop
    out:
    halt
    """
    with pytest.raises(AnalysisError, match="AN-SECRET-BRANCH"):
        assemble(source, strict=True)
    allowed = assemble(".allow AN-SECRET-BRANCH\n" + source, strict=True)
    assert [f.rule for f in allowed.analysis.suppressed] == [
        "AN-SECRET-BRANCH"
    ]


def test_an_secret_undeclared_is_an_error():
    source = f"""
    li   r1, {SECRET:#x}
    load r2, 0(r1)
    halt
    """
    with pytest.raises(AnalysisError, match="AN-SECRET-UNDECLARED"):
        assemble(source, strict=True)
    analysis = analyze_program(assemble(source))
    assert [f.rule for f in analysis.errors()] == ["AN-SECRET-UNDECLARED"]
    # Declaring the cell converts the error into the info-level leak
    # surface (the load is then a taint seed, not a violation).
    declared = assemble(f".secret {SECRET:#x}\n" + source, strict=True)
    assert declared.analysis.errors() == ()


def test_secret_directive_roundtrips_through_to_text():
    program = assemble(LOOKUP)
    text = program.to_text()
    assert f".secret {SECRET:#x}" in text
    assert assemble(text).taint_sources == program.taint_sources


# -- leak map ---------------------------------------------------------------


def test_leak_map_resolves_secret_indexed_access():
    program = assemble(LOOKUP)
    for secret in range(4):
        assert leak_map(
            program, secret, probe_base=0x2000000, scale=0x200, num_indices=16
        ) == (secret,)


def test_leak_map_ignores_out_of_range_accesses():
    program = assemble(LOOKUP)
    # A 4-entry window: secrets past it fall outside the probe array.
    assert (
        leak_map(program, 9, probe_base=0x2000000, scale=0x200, num_indices=4)
        == ()
    )


def test_leak_map_prunes_secret_conditional_side():
    """Feasible-edge propagation: with the secret bound, the branch is
    decidable and only the taken side's accesses appear."""
    source = f"""
    .allow AN-SECRET-BRANCH
    .secret {SECRET:#x}
    li   r1, {SECRET:#x}
    load r2, 0(r1)
    beq  r2, zero, skip
    load r3, 0x2000200(zero)    ; only when secret != 0
    skip:
    load r4, 0x2000000(zero)    ; always
    halt
    """
    program = assemble(source)
    kwargs = dict(probe_base=0x2000000, scale=0x200, num_indices=16)
    assert leak_map(program, 0, **kwargs) == (0,)
    assert leak_map(program, 1, **kwargs) == (0, 1)


def test_leak_map_ignores_clflush_at_a_resolved_probe_address():
    """A flush evicts a line, it does not touch one: the resolved
    ``clflush`` of probe index 2 never enters the map."""
    source = f"""
    .secret {SECRET:#x}
    .data {SECRET:#x} stride=8 0
    li   r1, {SECRET:#x}
    load r2, 0(r1)
    li   r3, 0x4000000
    clflush 0x80(r3)
    sll  r2, r2, 6
    add  r4, r3, r2
    load r5, 0(r4)
    halt
    """
    program = assemble(source)
    kwargs = dict(probe_base=0x4000000, scale=64, num_indices=16)
    assert leak_map(program, 0, **kwargs) == (0,)
    assert leak_map(program, 3, **kwargs) == (3,)
