"""Table V: SPEC 2006 speedups with the Record Protector.

Shape targets: same winners/losers as Table IV; column averages positive;
RP costs little (Table V averages within a few points of Table IV's).
"""

from conftest import perf_scale

from repro.experiments import table5


def test_table5(benchmark, emit, table4_at_scale):
    result = benchmark.pedantic(
        table5.run, kwargs={"scale": perf_scale()}, rounds=1, iterations=1
    )
    emit("table5", table5.render(result))

    for header, average in zip(result.headers[1:], result.averages):
        assert average > 0, f"column {header} average not positive: {average}"

    full = result.column("Prefender/32")
    assert full["429.mcf"] > 0.01
    assert full["462.libquantum"] > 0.01
    assert abs(full["999.specrand"]) < 0.001

    # RP-on averages stay in the same band as RP-off (paper: slightly lower).
    rp_off = table4_at_scale()
    for index, header in enumerate(result.headers[1:]):
        delta = result.averages[index] - rp_off.averages[index]
        assert abs(delta) < 0.08, f"{header}: RP shifted average by {delta:+.2%}"
