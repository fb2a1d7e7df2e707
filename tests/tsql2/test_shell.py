"""Tests of the interactive TSQL2-lite shell (scripted)."""

import io

import pytest

from repro.relation.io import to_csv_text
from repro.tsql2.shell import Shell, main
from repro.workload.employed import employed_relation


def run_shell(*lines):
    out = io.StringIO()
    shell = Shell(out=out)
    shell.run(lines)
    return out.getvalue(), shell


class TestMetaCommands:
    def test_seed_and_query(self):
        out, _ = run_shell("\\seed", "SELECT COUNT(Name) FROM Employed E")
        assert "registered 'Employed'" in out
        assert "forever" in out
        assert "(7 rows)" in out

    def test_tables(self):
        out, _ = run_shell("\\seed", "\\tables")
        assert "employed  (4 tuples)" in out

    def test_tables_empty(self):
        out, _ = run_shell("\\tables")
        assert "no relations registered" in out

    def test_schema(self):
        out, _ = run_shell("\\seed", "\\schema Employed")
        assert "name: str" in out
        assert "salary: int" in out
        assert "k=3" in out

    def test_plan(self):
        out, _ = run_shell("\\seed", "\\plan SELECT COUNT(Name) FROM Employed")
        assert "columnar_sweep" in out

    def test_plan_is_what_explain_reports(self):
        out, _ = run_shell(
            "\\seed",
            "\\plan SELECT COUNT(Name) FROM Employed USING ALGORITHM list",
        )
        assert "linked_list — strategy forced by USING ALGORITHM hint" in out

    def test_time(self):
        out, _ = run_shell("\\seed", "\\time SELECT COUNT(Name) FROM Employed")
        assert "7 rows in" in out

    def test_quit_stops_processing(self):
        out, shell = run_shell("\\seed", "\\quit", "\\tables")
        assert shell.done
        assert "employed" not in out.split("\\quit")[-1]

    def test_help(self):
        out, _ = run_shell("\\help")
        assert "\\load" in out and "\\plan" in out

    def test_unknown_meta(self):
        out, _ = run_shell("\\frobnicate")
        assert "unknown meta-command" in out

    def test_usage_messages(self):
        out, _ = run_shell("\\load", "\\save onlyname", "\\schema", "\\plan", "\\time")
        assert out.count("usage:") == 5


class TestLoadAndSave:
    def test_load_csv(self, tmp_path):
        path = tmp_path / "employed.csv"
        path.write_text(to_csv_text(employed_relation()))
        out, _ = run_shell(
            f"\\load {path} Staff", "SELECT COUNT(name) FROM Staff"
        )
        assert "loaded 4 tuples as 'Staff'" in out
        assert "(7 rows)" in out

    def test_save_roundtrip(self, tmp_path):
        source = tmp_path / "in.csv"
        target = tmp_path / "out.csv"
        source.write_text(to_csv_text(employed_relation()))
        out, _ = run_shell(f"\\load {source} E", f"\\save E {target}")
        assert "wrote 4 tuples" in out
        assert target.read_text().count("\n") == 5

    def test_load_missing_file(self):
        out, _ = run_shell("\\load /nonexistent/file.csv")
        assert "error:" in out

    def test_load_bad_header_reports_and_continues(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,a,valid_start,valid_end\nx,y,0,5\n")
        out, shell = run_shell(f"\\load {path}", "\\seed", "\\tables")
        assert "error: bad header" in out
        assert "duplicate attribute name" in out
        assert not shell.done
        assert "employed  (4 tuples)" in out


class TestErrorHandling:
    def test_syntax_error_reported(self):
        out, _ = run_shell("\\seed", "SELECT FROM nowhere")
        assert "error:" in out

    def test_semantic_error_reported(self):
        out, _ = run_shell("\\seed", "SELECT COUNT(Bonus) FROM Employed")
        assert "error:" in out and "not an attribute" in out

    def test_blank_and_comment_lines_ignored(self):
        out, _ = run_shell("", "   ", "-- a comment")
        assert out == ""


class TestMainEntryPoint:
    def test_command_mode(self):
        out = io.StringIO()
        code = main(
            ["--seed", "-c", "SELECT MAX(Salary) FROM Employed"], stdout=out
        )
        assert code == 0
        assert "45000" in out.getvalue()

    def test_script_mode(self):
        out = io.StringIO()
        source = io.StringIO("\\seed\nSELECT COUNT(Name) FROM Employed\n")
        source.isatty = lambda: False  # type: ignore[method-assign]
        assert main([], stdin=source, stdout=out) == 0
        assert "(7 rows)" in out.getvalue()

    def test_load_flag(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(to_csv_text(employed_relation()))
        out = io.StringIO()
        code = main(
            [f"--load", f"{path}:Crew", "-c", "SELECT COUNT(name) FROM Crew"],
            stdout=out,
        )
        assert code == 0
        assert "(7 rows)" in out.getvalue()


class TestDiagnostics:
    """Taxonomy errors surface as one-line diagnostics with hints."""

    def test_storage_corruption_hint_names_the_scrubber(self):
        from repro.exec.errors import StorageCorruption
        from repro.tsql2.shell import diagnose

        text = diagnose(StorageCorruption("page 3: checksum mismatch"))
        assert text.startswith(
            "error[StorageCorruption]: page 3: checksum mismatch (hint: "
        )
        assert "python -m repro.storage scrub" in text

    def test_most_derived_hint_wins(self):
        from repro.exec.errors import RecoveryError, StorageError
        from repro.tsql2.shell import diagnose

        assert "journal" in diagnose(RecoveryError("gone"))
        assert "disk space" in diagnose(StorageError("full"))

    def test_base_class_falls_back_to_help(self):
        from repro.exec.errors import TemporalAggregateError
        from repro.tsql2.shell import diagnose

        assert "\\help" in diagnose(TemporalAggregateError("odd"))

    def test_query_failure_prints_diagnostic_not_traceback(self):
        from repro.exec.errors import BudgetExhausted

        out = io.StringIO()
        shell = Shell(out=out)

        def explode(_query, **_limits):
            raise BudgetExhausted(
                "no plan fits the 16-byte memory budget",
                budget_bytes=16,
                needed_bytes=64,
            )

        shell.database.execute = explode  # type: ignore[method-assign]
        shell.handle("SELECT COUNT(Name) FROM Employed")
        text = out.getvalue()
        assert "error[BudgetExhausted]:" in text
        assert "(hint: " in text
        assert "Traceback" not in text


class TestScrubMetaCommand:
    def scrubbable_file(self, tmp_path):
        from repro.relation.schema import Attribute, Schema
        from repro.relation.tuples import TemporalTuple
        from repro.storage.heapfile import HeapFile

        path = str(tmp_path / "rel.dat")
        heap = HeapFile.durable(Schema((Attribute("salary", "int"),)), path)
        heap.append_all(
            TemporalTuple((index,), index, index + 2) for index in range(30)
        )
        heap.flush()
        heap.close()
        return path

    def test_scrub_clean_file(self, tmp_path):
        path = self.scrubbable_file(tmp_path)
        out, _ = run_shell(f"\\scrub {path}")
        assert "clean" in out
        assert "30 records" in out

    def test_scrub_corrupt_file(self, tmp_path):
        path = self.scrubbable_file(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(64)
            byte = handle.read(1)
            handle.seek(64)
            handle.write(bytes([byte[0] ^ 0x10]))
        out, _ = run_shell(f"\\scrub {path}")
        assert "CORRUPT" in out

    def test_scrub_usage(self):
        out, _ = run_shell("\\scrub")
        assert "usage: \\scrub PATH" in out


class TestLoadQuarantine:
    def test_malformed_rows_summarised_not_fatal(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "name,salary,valid_start,valid_end\n"
            "Richard,40000,18,forever\n"
            "Karen,45000,8\n"  # short row
            "Juan,42000,5,9\n"
        )
        out, _ = run_shell(
            f"\\load {path} Staff", "SELECT COUNT(name) FROM Staff"
        )
        assert "loaded 2 tuples as 'Staff'" in out
        assert "2 row(s) loaded, 1 quarantined" in out
        assert f"{path}:3: expected 4 fields, got 3" in out

    def test_clean_load_prints_no_summary(self, tmp_path):
        path = tmp_path / "clean.csv"
        path.write_text(to_csv_text(employed_relation()))
        out, _ = run_shell(f"\\load {path} Staff")
        assert "quarantined" not in out
