"""Shell session limits (``\\deadline`` / ``\\budget``) and the typed
one-line diagnostics they produce when a statement trips them."""

from __future__ import annotations

import io
import time

import pytest

from repro.exec.deadline import Deadline
from repro.exec.errors import (
    BudgetExhausted,
    DeadlineExceeded,
    ServerOverloaded,
)
from repro.tsql2.shell import Shell, diagnose, recovery_hint


def run_shell(*lines):
    out = io.StringIO()
    shell = Shell(out=out)
    shell.run(lines)
    return out.getvalue(), shell


class TestDeadlineMeta:
    def test_show_when_unset(self):
        out, _ = run_shell("\\deadline")
        assert "deadline: off" in out

    def test_set_and_show(self):
        out, shell = run_shell("\\deadline 250", "\\deadline")
        assert "deadline set to 250 ms (per statement)" in out
        assert "deadline: 250.0 ms" in out
        assert shell.deadline_ms == 250.0

    def test_clear(self):
        out, shell = run_shell("\\deadline 250", "\\deadline off")
        assert "deadline set to off" in out
        assert shell.deadline_ms is None

    def test_rejects_nonsense(self):
        out, shell = run_shell("\\deadline soon")
        assert "usage: \\deadline" in out
        assert shell.deadline_ms is None

    def test_rejects_negative(self):
        out, shell = run_shell("\\deadline -5")
        assert "deadline must be positive" in out
        assert shell.deadline_ms is None


class TestBudgetMeta:
    def test_set_show_clear(self):
        out, shell = run_shell("\\budget 65536", "\\budget", "\\budget off")
        assert "budget set to 65536 bytes (per statement)" in out
        assert "budget: 65536 bytes" in out
        assert shell.memory_budget_bytes is None

    def test_budget_is_an_int(self):
        _, shell = run_shell("\\budget 1024")
        assert shell.memory_budget_bytes == 1024
        assert isinstance(shell.memory_budget_bytes, int)


class TestLimitsReachTheEngine:
    def test_query_passes_session_limits(self, monkeypatch):
        seen = {}
        out = io.StringIO()
        shell = Shell(out=out)

        def spy(text, **kwargs):
            seen.update(kwargs)
            raise DeadlineExceeded(
                "too slow", deadline_ms=50.0, elapsed_ms=51.0
            )

        shell.run(["\\seed", "\\deadline 50", "\\budget 4096"])
        monkeypatch.setattr(shell.database, "execute", spy)
        shell.run(["SELECT COUNT(Name) FROM Employed"])
        assert seen["deadline_ms"] == 50.0
        assert seen["memory_budget_bytes"] == 4096

    def test_expired_deadline_prints_typed_diagnostic(self):
        """A real engine run against an impossibly small deadline must
        surface a one-line ``error[DeadlineExceeded]`` diagnostic, not a
        traceback."""
        out, _ = run_shell(
            "\\seed",
            "\\deadline 0.000001",
            "SELECT COUNT(Name) FROM Employed",
        )
        assert "error[DeadlineExceeded]:" in out
        assert "raise the deadline" in out
        assert "Traceback" not in out


class TestDiagnostics:
    def test_budget_exhausted_hint_names_the_meta_command(self, monkeypatch):
        out = io.StringIO()
        shell = Shell(out=out)
        shell.run(["\\seed"])

        def explode(_query, **_limits):
            raise BudgetExhausted(
                "no plan fits the 1024-byte memory budget",
                budget_bytes=1024,
                needed_bytes=9999,
            )

        monkeypatch.setattr(shell.database, "execute", explode)
        shell.run(["SELECT COUNT(Name) FROM Employed"])
        text = out.getvalue()
        assert "error[BudgetExhausted]:" in text
        assert "\\budget" in text

    def test_server_overloaded_hint_mentions_retry_after(self):
        hint = recovery_hint(
            ServerOverloaded("full", retry_after_ms=25, reason="overload")
        )
        assert "retry_after_ms" in hint

    def test_diagnose_format(self):
        line = diagnose(
            DeadlineExceeded("too slow", deadline_ms=10.0, elapsed_ms=11.0)
        )
        assert line.startswith("error[DeadlineExceeded]: too slow")
        assert "(hint: " in line and line.endswith(")")

    def test_most_derived_hint_wins(self):
        """DeadlineExceeded must not fall through to the base-class
        catch-all hint."""
        deadline_hint = recovery_hint(
            DeadlineExceeded("x", deadline_ms=1.0, elapsed_ms=2.0)
        )
        assert "deadline" in deadline_hint
