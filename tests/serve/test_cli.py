"""``python -m repro.serve --load``: quarantine summary and load failures.

Run as a subprocess, the way operators and the repository benchmark
start the server.
"""

import os
import queue
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: The line the benchmark parses; its format must not change.
SERVING = re.compile(
    r"^serving on 127\.0\.0\.1:(\d+) \(tables: people\) — Ctrl-C to stop$"
)

CLEAN = (
    "name,salary,valid_start,valid_end\n"
    "Richard,40000,18,forever\n"
    "Karen,45000,8,20\n"
)


def serve_argv(path):
    return [sys.executable, "-m", "repro.serve", "--load", f"{path}:people", "--port", "0"]


def environment():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def lines_until_serving(path, timeout=60.0):
    """Start the server with stderr merged into stdout; return every line
    up to and including the ``serving on`` line, then stop it."""
    proc = subprocess.Popen(
        serve_argv(path),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=environment(),
        text=True,
    )
    output = queue.Queue()

    def pump():
        for line in proc.stdout:
            output.put(line.rstrip("\n"))
        output.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    lines = []
    try:
        while not lines or not lines[-1].startswith("serving on"):
            try:
                line = output.get(timeout=timeout)
            except queue.Empty:
                pytest.fail(f"no 'serving on' line within {timeout} s: {lines}")
            if line is None:
                pytest.fail(f"server exited early: {lines}")
            lines.append(line)
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        reader.join(timeout=10)
        proc.stdout.close()
    return lines


def run_to_exit(path, **env):
    return subprocess.run(
        serve_argv(path),
        capture_output=True,
        env={**environment(), **env},
        text=True,
        timeout=60,
    )


class TestQuarantineSummary:
    def test_summary_precedes_serving_line(self, tmp_path):
        path = tmp_path / "people.csv"
        path.write_text(CLEAN + "Nathan,35000,7\n" + "Mike,38000,when,2\n")
        lines = lines_until_serving(path)
        assert SERVING.match(lines[-1]), lines[-1]
        assert lines[:-1] == [
            f"{path}:4: expected 4 fields, got 3",
            f"{path}:5: not an instant: 'when'",
            "2 row(s) loaded, 2 quarantined",
        ]

    def test_clean_load_prints_only_the_serving_line(self, tmp_path):
        path = tmp_path / "people.csv"
        path.write_text(CLEAN)
        lines = lines_until_serving(path)
        assert len(lines) == 1
        assert SERVING.match(lines[0]), lines[0]


class TestLoadFailure:
    def test_missing_file_exits_2_with_one_line(self, tmp_path):
        path = tmp_path / "absent.csv"
        done = run_to_exit(path)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith(f"error: cannot load {path}: ")
        assert "No such file" in done.stderr

    def test_bad_header_exits_2_with_one_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,a,valid_start,valid_end\nx,y,0,5\n")
        done = run_to_exit(path)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1
        assert "bad header" in done.stderr
        assert "Traceback" not in done.stderr

    def test_too_many_malformed_rows_exits_2(self, tmp_path):
        path = tmp_path / "garbage.csv"
        path.write_text("a,valid_start,valid_end\n" + "x,1\n" * 101)
        done = run_to_exit(path)
        assert done.returncode == 2
        assert done.stderr.count("\n") == 1
        assert "more than 100 malformed rows" in done.stderr

    def test_undecodable_file_exits_2_with_one_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("name,valid_start,valid_end\nJosé,0,5\n".encode("latin-1"))
        # UTF-8 mode, so the file is read as UTF-8 whatever the locale.
        done = run_to_exit(path, PYTHONUTF8="1")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith(f"error: cannot load {path}: ")
        assert "not utf-8 text" in done.stderr
