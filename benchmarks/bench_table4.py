"""Table IV: SPEC 2006 speedups without the Record Protector.

Shape targets: averages positive for every prefetcher column; the
memory-pattern winners (mcf, libquantum, bzip2, xalancbmk) clearly
positive under ST+AT; random-lookup (sjeng) not positive; compute-only
(specrand) flat; more access buffers never catastrophically worse.
"""

from repro.experiments import table4


def test_table4(benchmark, emit, table4_at_scale):
    result = benchmark.pedantic(table4_at_scale, rounds=1, iterations=1)
    emit("table4", table4.render(result))

    for header, average in zip(result.headers[1:], result.averages):
        assert average > 0, f"column {header} average not positive: {average}"

    st_at = result.column("ST+AT/32")
    for winner in ("429.mcf", "462.libquantum", "401.bzip2", "483.xalancbmk"):
        assert st_at[winner] > 0.01, winner
    assert st_at["458.sjeng"] < 0.01
    assert abs(st_at["999.specrand"]) < 0.001

    # Composites track or beat the basic prefetcher on average.
    headers = result.headers
    tagged_avg = result.averages[headers.index("Tagged") - 1]
    composite_avg = result.averages[headers.index("ST+AT(T)/32") - 1]
    assert composite_avg > tagged_avg - 0.02
