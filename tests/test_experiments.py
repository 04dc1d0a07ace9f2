"""Experiment harness plumbing (small-scale runs; full scale in benchmarks/)."""

from types import SimpleNamespace

from repro.experiments import common, figure8, figure10, figure11, table4, table6
from repro.experiments.related import TABLE_I, TABLE_II_CLAIMS
from repro.sim.config import PrefetcherSpec


def test_improvement_baseline_is_zero(monkeypatch):
    """A cell is the row's baseline cycles over the column's, minus one:
    a no-prefetcher column reads 0, each row against its own baseline."""
    cycles = {
        "999.specrand": {"none": 1000, "tagged": 1000},
        "462.libquantum": {"none": 1000, "tagged": 800},
    }

    def fake_batch(jobs, workers=1, store=None):
        return [
            SimpleNamespace(cycles=cycles[job.workload][job.system.prefetcher.kind])
            for job in jobs
        ]

    monkeypatch.setattr(common, "run_batch", fake_batch)
    columns = [
        ("Base", PrefetcherSpec(kind="none")),
        ("Tagged", PrefetcherSpec(kind="tagged")),
    ]
    rows, averages = common.improvement_rows(
        ["999.specrand", "462.libquantum"], columns, 0.05
    )
    assert rows == [["999.specrand", 0.0, 0.0], ["462.libquantum", 0.0, 0.25]]
    assert averages == [0.0, 0.125]


def test_security_spec_variants():
    assert common.security_spec("Base").kind == "none"
    for variant in ("ST", "AT", "ST+AT", "AT+RP", "FULL"):
        spec = common.security_spec(variant)
        assert spec.kind == "prefender"


def test_table4_small_subset():
    result = table4.run(
        scale=0.1,
        workloads=["462.libquantum", "999.specrand"],
        buffer_sweep=(32,),
    )
    libq = result.column("ST+AT/32")["462.libquantum"]
    rand = result.column("ST+AT/32")["999.specrand"]
    assert libq > 0
    assert rand == 0
    assert "Table IV" in table4.render(result)


def test_table6_small_subset():
    result = table6.run(scale=0.1, workloads=["510.parest_r", "548.exchange2_r"])
    assert result.column("ST+AT")["510.parest_r"] > 0
    assert result.column("ST+AT")["548.exchange2_r"] == 0


def test_figure10_small_subset():
    result = figure10.run(scale=0.1, workloads=["462.libquantum"])
    normalized = result.normalized("ST+AT")
    assert normalized["462.libquantum"] < 1.0
    assert "Figure 10" in figure10.render(result)


def test_figure11_small_subset():
    result = figure11.run(scale=0.1, workloads=["999.specrand", "429.mcf"])
    by_name = {row[0]: row[1:] for row in result.rows}
    assert by_name["999.specrand"] == [0, 0, 0]
    assert sum(by_name["429.mcf"]) > 0


def test_figure8_single_panel():
    panels = figure8.run(attacks=["Flush+Reload"], challenges=["C1+C2"])
    assert len(panels) == 1
    verdicts = figure8.verdicts(panels)
    assert verdicts[("Flush+Reload", "C1+C2", "Base")] is True
    assert verdicts[("Flush+Reload", "C1+C2", "ST+AT")] is False
    assert "Figure 8" in figure8.render(panels)


def test_related_tables_data():
    assert len(TABLE_I) == 14
    assert all(len(v) == 2 for v in TABLE_I.values())
    assert ("prefender", "Flush+Reload", True) in TABLE_II_CLAIMS
