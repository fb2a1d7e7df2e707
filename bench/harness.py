"""Process and environment hygiene for the benchmark.

Every program under test runs as a :class:`Program`: a subprocess in a
process group of its own, started with ``REPRO_*`` variables scrubbed
from its environment.  Teardown asks it to stop, kills the whole group
if it does not stop in time, reaps it with ``wait4`` (which also
yields its peak resident set), and then checks that no process of the
group is left.
"""

from __future__ import annotations

import hashlib
import os
import platform
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

#: The checkout root (the directory holding ``bench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"


class ProgramError(RuntimeError):
    """A program under test failed to start, answer or stop."""


def scrubbed_environment() -> Dict[str, str]:
    """The parent's environment without ``REPRO_*``, with ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def repro_environment() -> Dict[str, Dict[str, str]]:
    """What the scrub removed, and what the children see (nothing)."""
    scrubbed = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    effective = {
        k: v for k, v in scrubbed_environment().items() if k.startswith("REPRO_")
    }
    return {"scrubbed": scrubbed, "effective": effective}


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class Program:
    """One subprocess of the program under test."""

    #: Process groups this bench created, checked by :func:`leftovers`.
    groups: List[int] = []
    #: Programs not stopped yet, stopped by :func:`stop_all`.
    running: "set[Program]" = set()

    def __init__(self, argv: List[str], log_path: Path, *, stop_signal: Optional[int]) -> None:
        self.argv = argv
        self.log_path = log_path
        self.stop_signal = stop_signal
        self.peak_rss_mb: Optional[float] = None
        self.exit_code: Optional[int] = None
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        with open(log_path, "ab") as log:
            self._proc = subprocess.Popen(
                argv,
                cwd=ROOT,
                env=scrubbed_environment(),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                start_new_session=True,
            )
        Program.groups.append(self._proc.pid)
        Program.running.add(self)
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def readline(self, timeout: float) -> str:
        """The next stdout line; raises when the program ends or stalls."""
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise ProgramError(
                f"{self.argv[1]}: no output within {timeout:.0f} s"
            ) from None
        if line is None:
            self._lines.put(None)
            raise ProgramError(
                f"{self.argv[1]} exited early; see {self.log_path.name}"
            )
        return line

    def expect(self, prefix: str, timeout: float) -> str:
        """Skip stdout lines until one starts with ``prefix``."""
        deadline = time.monotonic() + timeout
        while True:
            line = self.readline(max(0.01, deadline - time.monotonic()))
            if line.startswith(prefix):
                return line

    def send(self, line: str) -> None:
        assert self._proc.stdin is not None
        self._proc.stdin.write(line + "\n")
        self._proc.stdin.flush()

    def _reap(self, timeout: float) -> bool:
        # wait4 rather than Popen.wait: it returns the child's rusage.
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self._proc.pid, os.WNOHANG)
            if pid:
                self.exit_code = os.waitstatus_to_exitcode(status)
                self._proc.returncode = self.exit_code
                # ru_maxrss is in KiB on Linux: the child's VmHWM.
                self.peak_rss_mb = usage.ru_maxrss / 1024.0
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)

    def stop(self, timeout: float = 10.0) -> None:
        """Ask the program to stop, give it ``timeout`` seconds, then kill
        the group."""
        Program.running.discard(self)
        if self.exit_code is None:
            try:
                if self.stop_signal is None:
                    self.send("quit")
                else:
                    os.kill(self._proc.pid, self.stop_signal)
            except (OSError, ValueError):
                pass
            if not self._reap(timeout):
                os.killpg(self._proc.pid, signal.SIGKILL)
                self._reap(10.0)
        for stream in (self._proc.stdin, self._proc.stdout):
            try:
                if stream is not None:
                    stream.close()
            except OSError:
                pass
        self._reader.join(timeout=5.0)
        # Forked children and helper processes share the group; give
        # them a moment to exit with their parent, then kill them.
        deadline = time.monotonic() + 5.0
        while group_alive(self._proc.pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        if group_alive(self._proc.pid):
            os.killpg(self._proc.pid, signal.SIGKILL)


def stop_all() -> None:
    for program in list(Program.running):
        program.stop(timeout=5.0)


def leftovers() -> List[int]:
    """Process groups this bench started that still have a member."""
    deadline = time.monotonic() + 2.0
    while True:
        alive = [pgid for pgid in Program.groups if group_alive(pgid)]
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)


def host_loop_ms(repeats: int = 15) -> float:
    """Median time of a fixed pure-Python loop: how fast this host runs now.

    Not a metric of the program.  It is recorded beside each run because
    a shared host has phases, minutes long, in which everything runs
    markedly slower; this tells such runs apart.
    """
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1000.0


def serve_argv(csv: Path, spans: Optional[Path]) -> List[str]:
    """The public server CLI on ``csv``, or the traced launcher around it."""
    # Relative to the child's working directory: the CLI splits PATH:NAME
    # at the first colon.
    serve = ["--load", f"{csv.relative_to(ROOT)}:employed", "--port", "0"]
    if spans is None:
        return [sys.executable, "-m", "repro.serve", *serve]
    return [sys.executable, str(BENCH / "traced_server.py"), "--spans", str(spans), "--", *serve]


def engine_argv(csv: Path, spans: Optional[Path]) -> List[str]:
    argv = [sys.executable, str(BENCH / "engine_worker.py"), "--csv", str(csv)]
    return argv if spans is None else argv + ["--spans", str(spans)]


def source_id() -> Dict[str, Optional[str]]:
    """The git commit when there is one, and a digest of ``src/``."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.blake2b(digest_size=6)
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_digest": digest.hexdigest()}


def host_header(seed: int, seconds: float, tuples: Optional[int]) -> Dict[str, object]:
    """The header every results file carries."""
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        **source_id(),
        "seed": seed,
        "window_s": seconds,
        "tuples_override": tuples,
        "repro_env": repro_environment(),
    }
