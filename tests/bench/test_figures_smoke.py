"""Smoke tests of the figure drivers at miniature scale.

Real shape checks happen in the benchmark run (EXPERIMENTS.md); these
tests only prove the drivers produce well-formed reports.
"""

import pytest

from repro.bench.figures import (
    DRIVERS,
    figure6,
    figure7,
    figure9,
    table1,
    table3,
)

TINY = dict(sizes=[64, 128], seeds=[1])


class TestFigureDrivers:
    def test_fig6_shape(self):
        time_report, work_report = figure6(**TINY)
        assert time_report.series("tuples") == [64, 128]
        assert len(time_report.columns) == 6
        assert work_report.series("tuples") == [64, 128]

    def test_fig7_shape(self):
        time_report, work_report = figure7(**TINY)
        assert "ktree k=4" in time_report.columns
        assert "ktree sorted k=1" in time_report.columns
        assert len(time_report.rows) == 2

    def test_fig9_shape(self):
        (report,) = figure9(**TINY)
        assert "aggregation tree" in report.columns
        assert all(
            isinstance(v, int) and v > 0 for row in report.rows for v in row
        )

    def test_fig9_memory_ordering_holds_even_tiny(self):
        (report,) = figure9(sizes=[256], seeds=[1])
        row = dict(zip(report.columns, report.rows[0]))
        assert row["aggregation tree"] > row["linked list"]
        assert row["linked list"] > row["ktree sorted k=1"]

    def test_table1_agrees(self):
        (report,) = table1()
        assert all(row[-1] == "yes" for row in report.rows)

    def test_table3_lists_grid(self):
        (report,) = table3()
        assert len(report.rows) == 4

    def test_driver_registry_complete(self):
        assert set(DRIVERS) == {
            "fig6",
            "fig7",
            "fig7b",
            "fig8",
            "fig9",
            "fig9b",
            "table1",
            "table2",
            "table3",
            "ablations",
            "parallel",
            "cache",
            "columnar",
            "durability",
            "planner",
            "serving",
            "pool",
            "replication",
        }

    def test_ablations_driver(self):
        from repro.bench.figures import ablations

        (report,) = ablations(sizes=[256], seeds=[1])
        assert len(report.rows) == 5
        labels = report.series("ablation")
        assert any("balanced" in label for label in labels)
        assert any("paged" in label for label in labels)

    def test_fig7b_shape(self):
        from repro.bench.figures import figure7_percentage_sweep

        (report,) = figure7_percentage_sweep(sizes=[128], seeds=[1])
        assert report.series("k") == [400, 40, 4]
        assert len(report.columns) == 4

    @pytest.mark.parametrize("name", ["fig8", "fig9b"])
    def test_long_lived_drivers_run(self, name):
        reports = DRIVERS[name](sizes=[64], seeds=[1])
        assert reports[0].rows

    def test_parallel_driver_shape(self):
        from repro.bench.figures import parallel

        time_report, work_report, speed_report = parallel(**TINY)
        assert "columnar_sweep" in time_report.columns
        assert "parallel P=4" in time_report.columns
        # Same algorithm, same abstract work: sweep == columnar per row.
        sweep_index = work_report.column_index("sweep")
        columnar_index = work_report.column_index("columnar_sweep")
        for row in work_report.rows:
            assert row[sweep_index] == row[columnar_index]
        assert len(speed_report.rows) == 2


    def test_planner_driver_shape(self, tmp_path, monkeypatch):
        import json

        from repro.bench import planner as planner_module
        from repro.bench.__main__ import _write_planner_json
        from repro.bench.planner import PLANS, planner

        # One run per plan, and no full collection before each: the
        # test process holds far more objects than a bench run.
        monkeypatch.setattr(planner_module, "RUNS", 1)
        monkeypatch.setattr(planner_module.gc, "collect", lambda: 0)
        reports = planner(sizes=[64])
        (report,) = reports
        assert len(report.rows) == 5 * 3 * 2
        payload = json.loads(open(_write_planner_json(reports, str(tmp_path))).read())
        assert {"cpu_count", "python", "git_sha"} <= set(payload["host"])
        for cell in payload["cells"]:
            assert set(cell["seconds"]) == set(PLANS)
            assert cell["regret"] >= 1.0


class TestCli:
    def test_main_runs_tables(self, capsys):
        from repro.bench.__main__ import main

        assert main(["table2", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Table 3" in out

    def test_main_markdown_and_csv(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        assert main(["table3", "--markdown", "--csv-dir", str(tmp_path)]) == 0
        assert (tmp_path / "table3.csv").exists()
        assert "###" in capsys.readouterr().out

    def test_unknown_driver_rejected(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_parallel_driver_writes_json(self, tmp_path, capsys, monkeypatch):
        import json

        from repro.bench.__main__ import main

        monkeypatch.setenv("REPRO_BENCH_MAX_TUPLES", "1024")
        assert main(["parallel", "--csv-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "BENCH_parallel.json").read_text())
        assert payload["cpu_count"] >= 1
        assert payload["pool_min_tuples"] > 0
        titles = [report["title"] for report in payload["reports"]]
        assert any("speedup" in title for title in titles)

    def test_plot_flag_renders_ascii(self, capsys, monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.setenv("REPRO_BENCH_MAX_TUPLES", "1024")
        assert main(["fig9", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "(log-log)" in out
        assert "legend:" in out
