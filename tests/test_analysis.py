"""Static program analyzer: CFG, dataflow rules, suppressions, strict mode."""

import pytest

from repro.analysis import (
    ANALYSIS_RULES,
    EXIT,
    analyze_program,
    build_cfg,
    render_findings,
)
from repro.analysis.dataflow import constant_addresses
from repro.errors import AnalysisError, AssemblyError
from repro.isa import ProgramBuilder, assemble
from repro.isa.program import Program

CLEAN = """
.name clean
    li   r1, 4
loop:
    sub  r1, r1, 1
    bne  r1, zero, loop
    halt
"""


def rules_of(analysis):
    return [(finding.index, finding.rule) for finding in analysis.findings]


# -- clean programs ---------------------------------------------------------


def test_clean_program_has_no_findings():
    analysis = analyze_program(assemble(CLEAN))
    assert analysis.ok
    assert analysis.findings == ()
    assert analysis.errors() == ()


def test_strict_assemble_caches_analysis_on_program():
    program = assemble(CLEAN, strict=True)
    assert program.analysis is not None
    assert program.analysis.ok


def test_cfg_shape_of_clean_program():
    cfg = build_cfg(assemble(CLEAN).decoded)
    # li | loop body (sub+bne) | halt
    assert len(cfg.blocks) == 3
    assert cfg.reachable == (0, 1, 2)
    assert cfg.blocks[1].successors == (1, 2)  # taken back-edge + fallthrough
    assert cfg.blocks[2].successors == ()  # halt ends the program
    assert EXIT not in cfg.blocks[2].successors


# -- each rule fires with the right index ----------------------------------


def test_an_branch_flags_out_of_range_target():
    analysis = analyze_program(assemble("jmp 99\nhalt"))
    assert (0, "AN-BRANCH") in rules_of(analysis)


def test_an_falloff_flags_missing_halt():
    analysis = analyze_program(assemble("nop"))
    assert (0, "AN-FALLOFF") in rules_of(analysis)


def test_an_halt_flags_infinite_loop_once():
    analysis = analyze_program(assemble("loop:\njmp loop\nhalt"))
    halt_findings = [f for f in analysis.findings if f.rule == "AN-HALT"]
    assert len(halt_findings) == 1  # only the first trapped block is reported
    assert halt_findings[0].index == 0


def test_an_dead_flags_unreachable_block():
    analysis = analyze_program(assemble("jmp end\nisle:\nnop\nend:\nhalt"))
    assert rules_of(analysis) == [(1, "AN-DEAD")]


def test_an_ubd_flags_read_before_write():
    analysis = analyze_program(assemble("load r1, 0(r2)\nhalt"))
    assert rules_of(analysis) == [(0, "AN-UBD")]
    assert "r2" in analysis.findings[0].message


def test_an_ubd_ignores_zero_register():
    analysis = analyze_program(assemble("load r1, 0(zero)\nhalt"))
    assert analysis.ok


#: Must-defined through merges and back edges: (source, flagged (index,
#: register) pairs).  A read is flagged when *some* path reaches it unwritten.
UBD_MERGES = {
    "diamond-one-arm-writes": (
        "li r1, 1\nbeq r1, zero, skip\nli r2, 5\n"
        "skip:\nadd r3, r2, r1\nhalt",
        [(3, "r2")],
    ),
    "diamond-both-arms-write": (
        "li r1, 1\nbeq r1, zero, other\nli r2, 5\njmp join\n"
        "other:\nli r2, 6\njoin:\nadd r3, r2, r1\nhalt",
        [],
    ),
    "countdown-after-init": (
        "li r2, 4\nloop:\nsub r2, r2, 1\nbne r2, zero, loop\nhalt",
        [],
    ),
    "back-edge-into-entry": (
        "top:\nadd r3, r2, r0\nli r2, 1\nli r4, 0\nbne r4, zero, top\nhalt",
        [(0, "r2")],
    ),
    "loop-writes-after-read": (
        "li r1, 3\nloop:\nadd r6, r5, r1\nli r5, 2\nsub r1, r1, 1\n"
        "bne r1, zero, loop\nhalt",
        [(1, "r5")],
    ),
}


@pytest.mark.parametrize("name", sorted(UBD_MERGES))
def test_an_ubd_through_merges(name):
    source, expected = UBD_MERGES[name]
    analysis = analyze_program(assemble(source))
    flagged = [
        (f.index, f.message.split()[0])
        for f in analysis.findings
        if f.rule == "AN-UBD"
    ]
    assert flagged == expected


def test_empty_program_is_a_single_halt_finding():
    analysis = analyze_program(Program())
    assert rules_of(analysis) == [(None, "AN-HALT")]


def test_severities_match_the_catalog():
    analysis = analyze_program(assemble("jmp 99\nload r1, 0(r2)\nhalt"))
    for finding in analysis.findings:
        assert finding.severity == ANALYSIS_RULES[finding.rule][0]
    assert [f.rule for f in analysis.errors()] == [
        f.rule for f in analysis.findings if f.severity == "error"
    ]


# -- rendering --------------------------------------------------------------


def test_render_findings_resolves_source_lines():
    program = assemble("nop\nload r1, 0(r2)\nhalt", name="demo")
    lines = render_findings(program, analyze_program(program))
    assert lines == [
        "demo: line 2: warning AN-UBD r2 may be read before it is written "
        "(fix: " + ANALYSIS_RULES["AN-UBD"][2] + ")"
    ]


def test_render_findings_without_source_lines_uses_instr_index():
    builder = ProgramBuilder("built")
    builder.load("r1", 0, "r2").halt()
    program = builder.build()
    (line,) = render_findings(program, analyze_program(program))
    assert "instr 0" in line


# -- strict mode ------------------------------------------------------------


def test_strict_assemble_raises_with_line_numbers():
    with pytest.raises(AnalysisError, match="line 2") as excinfo:
        assemble("nop\nload r1, 0(r2)\nhalt", strict=True)
    assert [f.rule for f in excinfo.value.findings] == ["AN-UBD"]


def test_strict_failure_is_not_cached_as_clean():
    program = assemble("load r1, 0(r2)\nhalt")
    with pytest.raises(AnalysisError):
        program.finalize(strict=True)
    assert program.analysis is None  # a retry must re-run the analyzer
    with pytest.raises(AnalysisError):
        program.finalize(strict=True)


def test_strict_builder_raises():
    builder = ProgramBuilder("bad")
    builder.nop()  # falls off the end
    with pytest.raises(AnalysisError):
        builder.build(strict=True)


# -- suppressions -----------------------------------------------------------


def test_inline_pragma_suppresses_one_instruction():
    program = assemble(
        "load r1, 0(r2)  ; analysis: allow AN-UBD\nhalt", strict=True
    )
    assert program.analysis.findings == ()
    assert [f.rule for f in program.analysis.suppressed] == ["AN-UBD"]


def test_inline_pragma_does_not_leak_to_other_instructions():
    with pytest.raises(AnalysisError):
        assemble(
            "load r1, 0(r2)  ; analysis: allow AN-UBD\n"
            "load r3, 0(r4)\n"
            "halt",
            strict=True,
        )


def test_standalone_pragma_is_program_wide():
    program = assemble(
        "; analysis: allow AN-UBD\n"
        "load r1, 0(r2)\n"
        "load r3, 0(r4)\n"
        "halt",
        strict=True,
    )
    assert program.analysis.findings == ()


def test_allow_directive_is_program_wide():
    program = assemble(".allow AN-UBD\nload r1, 0(r2)\nhalt", strict=True)
    assert ("AN-UBD", None) in program.suppressions


def test_builder_allow_api():
    builder = ProgramBuilder("suppressed")
    builder.allow("AN-UBD", index=0)
    builder.load("r1", 0, "r2").halt()
    assert builder.build(strict=True).analysis.findings == ()


def test_unknown_rule_rejected_everywhere():
    with pytest.raises(AssemblyError, match="unknown analysis rule"):
        Program().allow("AN-BOGUS")
    with pytest.raises(AssemblyError, match="line 1"):
        assemble(".allow AN-BOGUS\nhalt")


def test_suppression_does_not_hide_other_rules():
    with pytest.raises(AnalysisError, match="AN-UBD"):
        assemble(".allow AN-FALLOFF\nload r1, 0(r2)\nnop", strict=True)


# -- assembler error paths (line-numbered) ----------------------------------


def test_duplicate_label_carries_line_number():
    with pytest.raises(AssemblyError, match="line 3.*duplicate"):
        assemble("x:\nnop\nx:\nhalt")


def test_undefined_branch_label_carries_line_number():
    with pytest.raises(AssemblyError, match="line 2.*undefined label"):
        assemble("nop\njmp nowhere\nhalt")


def test_equ_redefinition_carries_line_number():
    with pytest.raises(AssemblyError, match="line 2.*redefines 'K'"):
        assemble(".equ K 1\n.equ K 2\nhalt")


# -- dataflow extras --------------------------------------------------------


def test_constant_addresses_resolve_a_load():
    program = assemble(
        """
        .data 0x10000 stride=8 7 7 7
        li   r1, 0x10000
        load r2, 8(r1)
        halt
        """
    )
    decoded = tuple(program.decoded)
    assert analyze_program(program).ok
    assert constant_addresses(decoded, build_cfg(decoded)) == {1: 0x10008}
