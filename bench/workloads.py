"""The benchmark's workloads: inputs from the seed, set-up, warm-up, a
timed window, and the oracle.

Every input comes from ``--seed``: the relation from
``repro.workload.generator`` (paper section 6: lifespan 10^6,
short-lived tuples, unsorted), written to a CSV that is all the
program receives, plus the statement texts and append batches.  The
served workloads start the public CLI ``python -m repro.serve`` with
its default configuration; the library workload runs
``temporal_aggregate`` in ``engine_worker.py``.  Load comes from this
process, over at most :data:`CLIENTS` connections.

An untraced run drives one program for the whole window.  A traced run
starts the program twice, once plain and once traced, and alternates
the window between them in blocks (engine rounds for the library
workload), so that both sides see the same host and the difference is
the tracing overhead.

Why each workload exists is in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import json
import random
import re
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.relation.io import write_csv
from repro.workload.generator import PAPER_LIFESPAN, WorkloadParameters, generate_relation

import layers
from clients import REQUEST_TIMEOUT, Control, DecodeClock, Op, closed_loop, open_loop, run_threads
from engine_worker import AGGREGATES
from harness import Program, ProgramError, engine_argv, host_loop_ms, serve_argv
from oracle import REFERENCE_MAX_TUPLES, Query, Verdict, verify_rounds, verify_served

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Load connections (the host's core count).
CLIENTS = 2

#: A traced run alternates its plain and traced program in this many
#: pairs of blocks, in the order plain, traced, traced, plain, ...: a
#: drift of the host that is slower than a block falls on both alike.
#: An even count gives both sides the same mean position in the window.
TRACE_PAIRS = 8

#: Distinct (statement, version) pairs the oracle recomputes per run
#: when a window has more (every pair is recomputed for ``warm``).
ORACLE_SAMPLE = 16

#: ``append``: batches per second and rows per batch.  Batches arrive
#: faster than reads complete, so nearly every read pins a new version.
#: The relation grows by 40 rows a second of window, on every run alike.
APPEND_RATE = 10.0
APPEND_ROWS = 4

#: ``adhoc``: distinct warm-up statements, each run twice.
ADHOC_WARMUP = 4

#: Seconds a program may take to load its CSV, and one engine round.
READY_TIMEOUT = 120.0
ROUND_TIMEOUT = 120.0

_NAMES = ("Richard", "Karen", "Nathan", "Andrey", "Curtis", "Suchen", "Mike", "Nick")
_SERVING = re.compile(r"serving on (\S+):(\d+)")

UNFILTERED = tuple(Query(((function, attribute),)) for function, attribute in AGGREGATES)


@dataclass(frozen=True)
class Workload:
    name: str
    tuples: int
    mode: str  # "warm", "adhoc", "append" or "engine"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("warm-8k", 8_192, "warm"),
        Workload("adhoc-32k", 32_768, "adhoc"),
        Workload("append-4k", 4_096, "append"),
        Workload("engine-cold-32k", 32_768, "engine"),
    )
}


@dataclass
class Window:
    """The raw observations of one program over a run's window."""

    ops: List[Op] = field(default_factory=list)
    rounds: List[dict] = field(default_factory=list)
    seconds: float = 0.0
    stats: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: Optional[float] = None
    verdict: Verdict = field(default_factory=Verdict)
    layers: Dict[str, Optional[float]] = field(default_factory=dict)
    spans: int = 0
    nesting_violations: int = 0
    missing: List[str] = field(default_factory=list)
    failure: str = ""  # why the window stopped early, if it did


@dataclass
class Run:
    """Everything one workload run observed."""

    workload: str
    tuples: int
    setups: List[float] = field(default_factory=list)
    warmup_s: float = 0.0
    host_loop_ms: float = 0.0
    plain: Window = field(default_factory=Window)
    traced: Optional[Window] = None


class Inputs:
    """Every input of one workload run, derived from the seed."""

    def __init__(self, workload: Workload, seed: int, tuples: int, seconds: float, work: Path) -> None:
        self.workload, self.seed, self.tuples, self.seconds = workload, seed, tuples, seconds
        self.csv = work / f"{workload.name}-{seed}.csv"
        write_csv(self.relation(), str(self.csv))
        self.batches = self._batches() if workload.mode == "append" else []

    def relation(self):
        """A fresh copy of the initial relation (the oracle appends to it)."""
        parameters = WorkloadParameters(tuples=self.tuples, seed=self.seed)
        return generate_relation(parameters, name="employed")

    def rng(self, stream: int) -> random.Random:
        return random.Random(self.seed * 1_000 + stream)

    def _batches(self) -> List[List[list]]:
        rng = self.rng(900)
        batches = []
        for _ in range(int(self.seconds * APPEND_RATE) + 1):
            batch = []
            for _ in range(APPEND_ROWS):
                start = rng.randrange(PAPER_LIFESPAN - 1_000)
                end = start + rng.randint(1, 1_000) - 1
                batch.append([rng.choice(_NAMES), rng.randrange(20_000, 120_000), start, end])
            batches.append(batch)
        return batches

    def adhoc(self, stream: int, client: int) -> Callable[[], Query]:
        """Distinct filtered statements for one client.

        Window widths (10K to 100K instants) and salary thresholds (20K
        to 56K) step through a fixed grid so every window sends the same
        mix of costs, and only the window positions come from the seed:
        a random mix of widths would move the median from one seed to
        the next by more than the host's own drift.  Clients take
        alternate grid points, which also keeps their statements
        disjoint.
        """
        rng, seen = self.rng(stream), set()
        index = iter(range(client, 10**9, CLIENTS))

        def draw() -> Query:
            while True:
                j = next(index)
                width = 10_000 * (1 + j % 10)
                salary = 20_000 + 4_000 * (j // 10 % 10)
                low = rng.randrange(PAPER_LIFESPAN - width)
                query = Query((("count", "name"), ("avg", "salary")), (low, low + width), salary)
                if query not in seen:
                    seen.add(query)
                    return query

        return draw

    def readers(self) -> List[Callable[[], Query]]:
        """One statement source per read client."""
        if self.workload.mode == "adhoc":
            return [self.adhoc(100 + i, i) for i in range(CLIENTS)]
        count = 1 if self.workload.mode == "append" else CLIENTS
        sources = []
        for i in range(count):
            rng = self.rng(200 + i)
            sources.append(lambda rng=rng: rng.choice(UNFILTERED))
        return sources

    def warmup(self) -> List[Query]:
        if self.workload.mode == "adhoc":
            draw = self.adhoc(300, 0)
            return [draw() for _ in range(ADHOC_WARMUP)]
        return list(UNFILTERED)


def _side(block: int, sides: int) -> int:
    """Which program the ``block``-th block or round goes to: always 0
    with one program, and 0, 1, 1, 0, 0, 1, ... with two."""
    return (block + 1) // 2 % sides


def _set_up(run: Run, start: Callable[[], tuple]):
    """Start the program :data:`SETUPS` times, timing each; the last one
    keeps running and is returned.  The others are killed at once: how
    they would shut down is not measured."""
    for _ in range(SETUPS - 1):
        started, seconds = start()
        run.setups.append(seconds)
        started.stop(timeout=0.0)
    started, seconds = start()
    run.setups.append(seconds)
    return started


# ---------------------------------------------------------------------------
# Served workloads
# ---------------------------------------------------------------------------


@dataclass
class Served:
    """A running server and what the window saw of it."""

    program: Program
    host: str
    port: int
    readers: List[Callable[[], Query]]
    window: Window = field(default_factory=Window)
    queries: Dict[str, Query] = field(default_factory=dict)
    next_batch: int = 0
    control: Optional[Control] = None
    before: dict = field(default_factory=dict)

    def stop(self, timeout: float = 10.0) -> None:
        if self.control is not None:
            self.control.close()
            self.control = None
        self.program.stop(timeout)
        self.window.peak_rss_mb = self.program.peak_rss_mb


def _start_server(inputs: Inputs, work: Path, spans: Optional[Path]) -> tuple:
    started = time.perf_counter()
    log = work / ("server.log" if spans is None else "traced-server.log")
    program = Program(serve_argv(inputs.csv, spans), log, stop_signal=signal.SIGINT)
    try:
        match = _SERVING.search(program.expect("serving on", READY_TIMEOUT))
        if match is None:
            raise ProgramError("cannot parse the server's listen address")
    except BaseException:
        program.stop()
        raise
    seconds = time.perf_counter() - started
    return Served(program, match.group(1), int(match.group(2)), inputs.readers()), seconds


def _warm_up(server: Served, queries: List[Query]) -> None:
    from repro.serve.client import QueryClient

    with QueryClient(server.host, server.port, timeout=REQUEST_TIMEOUT) as client:
        for query in queries:
            client.query(query.text)
            client.query(query.text)


def _load(inputs: Inputs, server: Served, seconds: float, decode: Optional[DecodeClock]) -> None:
    """One block of load on ``server``: the closed-loop readers, plus the
    open-loop appender on ``append``."""
    window, control = server.window, server.control
    if window.failure or control is None or control.abort.is_set():
        return
    start = time.perf_counter()
    stop_at = start + seconds
    targets = []
    for source in server.readers:

        def next_text(source=source) -> str:
            query = source()
            server.queries[query.text] = query
            return query.text

        targets.append(
            lambda next_text=next_text: closed_loop(
                server.host, server.port, next_text, stop_at, control.abort, window.ops, decode
            )
        )
    if inputs.workload.mode == "append":
        first = server.next_batch
        server.next_batch += int(seconds * APPEND_RATE) + 1
        targets.append(
            lambda: open_loop(
                server.host, server.port, inputs.batches, first, APPEND_RATE,
                start, stop_at, control.abort, window.ops,
            )
        )
    if decode is not None:
        decode.install()
    try:
        run_threads(targets, seconds + REQUEST_TIMEOUT + 30.0)
    except RuntimeError as error:  # a hung server: fail the window, not the run
        window.failure = str(error)
    finally:
        if decode is not None:
            decode.uninstall()
    window.seconds += time.perf_counter() - start


def _stats_delta(before: dict, after: dict) -> Dict[str, float]:
    delta: Dict[str, float] = {}
    for section, names in (
        ("cache", ("hits", "misses", "evictions", "dirty_shards")),
        ("scheduler", ("statements_started", "coalesced_statements")),
    ):
        for name in names:
            delta[f"{section}.{name}"] = float(after[section][name] - before[section][name])
    delta["cache.live_bytes"] = float(after["cache"]["live_bytes"])
    return delta


def _drive(inputs: Inputs, servers: List[Served], decode: Optional[DecodeClock]) -> None:
    """Load ``servers`` for the window, in alternating blocks when there
    are two (the last one traced, its client decode timed by ``decode``),
    then check every reply against the oracle."""
    for server in servers:
        try:
            server.control = Control(server.host, server.port)
            server.before = server.control.stats()
        except Exception as error:  # a dead server: fail its window, not the run
            server.window.failure = f"{type(error).__name__}: {error}"
    blocks = 1 if len(servers) == 1 else 2 * TRACE_PAIRS
    for block in range(blocks):
        side = _side(block, len(servers))
        traced = decode if side == len(servers) - 1 else None
        _load(inputs, servers[side], inputs.seconds / blocks, traced)
    for index, server in enumerate(servers):
        window, control = server.window, server.control
        if control is not None:
            try:
                if not control.abort.is_set() and not window.failure:
                    window.stats = _stats_delta(server.before, control.stats())
            except Exception as error:  # a dead server: fail its window, not the run
                window.failure = f"{type(error).__name__}: {error}"
            window.failure = window.failure or control.failure
        for query in UNFILTERED:
            server.queries.setdefault(query.text, query)
        window.verdict = verify_served(
            inputs.relation(),
            server.queries,
            window.ops,
            inputs.batches,
            None if inputs.workload.mode == "warm" else ORACLE_SAMPLE // len(servers),
            inputs.seed,
            reference=index == 0,
        )


def run_served(inputs: Inputs, work: Path, trace: bool) -> Run:
    run = Run(inputs.workload.name, inputs.tuples)
    spans = work / f"spans-{inputs.workload.name}.json"
    servers: List[Served] = []
    try:
        if trace:
            server, seconds = _start_server(inputs, work, None)
            servers.append(server)
            run.setups.append(seconds)
            servers.append(_start_server(inputs, work, spans)[0])
        else:
            servers.append(_set_up(run, lambda: _start_server(inputs, work, None)))
        started = time.perf_counter()
        for server in servers:
            _warm_up(server, inputs.warmup())
        run.warmup_s = (time.perf_counter() - started) / len(servers)
        _drive(inputs, servers, DecodeClock() if trace else None)
    finally:
        # Only a traced program needs an orderly stop, to write its spans.
        for index, server in enumerate(servers):
            server.stop(10.0 if index == 1 else 0.0)
    run.plain = servers[0].window
    if trace:
        run.traced = servers[1].window
        _attach_layers(run.traced, spans, _served_reads(run.traced), _served_appends(run.traced))
    return run


def _trace_name(op: Op) -> str:
    return f"{op.session}:{op.seq}"


def _served_reads(window: Window) -> List[layers.Read]:
    return [
        layers.Read(_trace_name(op), op.latency, op.decode, op.rows)
        for op in window.ops
        if op.ok and op.kind == "read"
    ]


def _served_appends(window: Window) -> List[tuple]:
    return [
        (_trace_name(op), op.latency - op.lag)
        for op in window.ops
        if op.ok and op.kind == "append"
    ]


def _attach_layers(window: Window, spans_path: Path, reads, appends) -> None:
    spans, window.missing = layers.load(spans_path)
    window.spans = len(spans)
    window.nesting_violations = layers.nesting_violations(spans)
    window.layers = layers.analyse(spans, reads, appends)


# ---------------------------------------------------------------------------
# Library workload
# ---------------------------------------------------------------------------


def _start_engine(inputs: Inputs, work: Path, spans: Optional[Path]) -> tuple:
    started = time.perf_counter()
    log = work / ("engine.log" if spans is None else "traced-engine.log")
    program = Program(engine_argv(inputs.csv, spans), log, stop_signal=None)
    try:
        program.expect("ready", READY_TIMEOUT)
    except BaseException:
        program.stop()
        raise
    return program, time.perf_counter() - started


def _round(program: Program) -> dict:
    program.send("round")
    return json.loads(program.readline(ROUND_TIMEOUT))


def _engine_windows(inputs: Inputs, programs: List[Program]) -> List[Window]:
    """Rounds on ``programs`` for the window, alternating when there are
    two; each program's first round is its warm-up and gives the rows
    every later round must repeat."""
    windows = [Window() for _ in programs]
    for program, window in zip(programs, windows):
        started = time.perf_counter()
        window.rounds.append(_round(program))
        last = time.perf_counter() - started
    stop_at = time.perf_counter() + inputs.seconds
    block = 0
    # A round starts only if it is due to end less than half a round
    # late, so the window ends within half a round of ``stop_at``.
    while time.perf_counter() + last / 2 < stop_at:
        side = _side(block, len(programs))
        block += 1
        started = time.perf_counter()
        try:
            windows[side].rounds.append(_round(programs[side]))
            last = time.perf_counter() - started
        except (ProgramError, ValueError) as error:
            windows[side].failure = f"{type(error).__name__}: {error}"
            windows[side].ops.extend(
                Op("read", aggregate, 0.0, error="lost round") for aggregate, _ in AGGREGATES
            )
            break
    reference = inputs.relation() if inputs.tuples <= REFERENCE_MAX_TUPLES else None
    for index, window in enumerate(windows):
        window.verdict = verify_rounds(window.rounds, reference if index == 0 else None, AGGREGATES)
        for entry in window.rounds[1:]:
            for call in entry["calls"]:
                window.ops.append(
                    Op(
                        "read",
                        call["aggregate"],
                        0.0,
                        latency=call["seconds"],
                        ok=call.get("ok", True),
                        rows=call["rows"],
                        row_count=inputs.tuples,
                    )
                )
    return windows


def run_engine(inputs: Inputs, work: Path, trace: bool) -> Run:
    run = Run(inputs.workload.name, inputs.tuples)
    spans = work / f"spans-{inputs.workload.name}.json"
    programs: List[Program] = []
    try:
        if trace:
            program, seconds = _start_engine(inputs, work, None)
            programs.append(program)
            run.setups.append(seconds)
            programs.append(_start_engine(inputs, work, spans)[0])
        else:
            programs.append(_set_up(run, lambda: _start_engine(inputs, work, None)))
        windows = _engine_windows(inputs, programs)
    finally:
        # Only a traced program needs an orderly stop, to write its spans.
        for index, program in enumerate(programs):
            program.stop(10.0 if index == 1 else 0.0)
    for program, window in zip(programs, windows):
        window.peak_rss_mb = program.peak_rss_mb
    run.plain = windows[0]
    run.warmup_s = sum(c["seconds"] for c in run.plain.rounds[0]["calls"])
    if trace:
        window = run.traced = windows[1]
        reads = [
            layers.Read(f"{entry['round']}:{call['aggregate']}", call["seconds"])
            for entry in window.rounds[1:]
            for call in entry["calls"]
        ]
        _attach_layers(window, spans, reads, ())
        for name in ("node_visits", "tuple_materializations", "column_batches"):
            calls = [c[name] for entry in window.rounds[1:] for c in entry["calls"]]
            window.stats[f"engine.{name}"] = float(sum(calls))
    return run


def run_workload(workload: Workload, seed: int, seconds: float, tuples: Optional[int], work: Path, trace: bool) -> Run:
    inputs = Inputs(workload, seed, tuples or workload.tuples, seconds, work)
    host = host_loop_ms()
    try:
        if workload.mode == "engine":
            run = run_engine(inputs, work, trace)
        else:
            run = run_served(inputs, work, trace)
    finally:
        inputs.csv.unlink(missing_ok=True)
    run.host_loop_ms = host
    return run


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def read_latencies_ms(window: Window) -> List[float]:
    """One sample per read: a served statement's client latency, or for
    the library workload a round's time per call.  The five aggregates'
    costs differ up to fivefold, so a median over single calls would
    fall on the edge between the cheap and the dear ones."""
    if window.rounds:
        return [
            1000.0 * sum(c["seconds"] for c in entry["calls"]) / len(entry["calls"])
            for entry in window.rounds[1:]
        ]
    return [op.latency * 1000.0 for op in window.ops if op.kind == "read" and op.ok]


def end_to_end(run: Run) -> Dict[str, float]:
    """What a user sees of the untraced window (in a traced run, of its
    plain blocks)."""
    window = run.plain
    reads = [op for op in window.ops if op.kind == "read" and op.ok]
    latencies = read_latencies_ms(window)
    metrics: Dict[str, float] = {
        "setup_s": statistics.median(run.setups),
        "read_p50_ms": statistics.median(latencies) if latencies else 0.0,
    }
    if window.rounds:
        metrics["tuples_per_s"] = (
            run.tuples * 1000.0 / metrics["read_p50_ms"] if metrics["read_p50_ms"] else 0.0
        )
        metrics["rounds"] = float(len(latencies))
    else:
        metrics["read_p90_ms"] = layers.p90(latencies) or 0.0
        metrics["read_qps"] = len(reads) / window.seconds if window.seconds else 0.0
    metrics["peak_rss_mb"] = window.peak_rss_mb or 0.0
    metrics["reads"] = float(len(reads))
    metrics["warmup_s"] = run.warmup_s
    metrics["host_loop_ms"] = run.host_loop_ms
    appends = [op for op in window.ops if op.kind == "append" and op.ok]
    if appends:
        append_ms = [op.latency * 1000.0 for op in appends]
        lag_ms = [op.lag * 1000.0 for op in appends]
        metrics["appends"] = float(len(appends))
        metrics["append_p50_ms"] = statistics.median(append_ms)
        metrics["append_p90_ms"] = layers.p90(append_ms)
        metrics["append_lag_p50_ms"] = statistics.median(lag_ms)
        metrics["append_lag_max_ms"] = max(lag_ms)
    attempted, failed = tally(run)
    metrics["error_rate"] = failed / attempted if attempted else 1.0
    return metrics


def per_layer(run: Run, untraced_p50: float) -> Dict[str, Optional[float]]:
    """The traced window's layer metrics and counts, and the read latency
    of the plain blocks of the same run with the tracing overhead
    against it."""
    window = run.traced
    assert window is not None
    metrics = dict(window.layers)
    metrics["read_p50_ms"] = untraced_p50
    reads = [op for op in window.ops if op.kind == "read" and op.ok]
    n = len(reads) or 1
    stats = window.stats
    hits, misses = stats.get("cache.hits", 0.0), stats.get("cache.misses", 0.0)
    metrics["cache.hits_per_read"] = hits / n
    metrics["cache.misses_per_read"] = misses / n
    metrics["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["cache.dirty_shards_per_read"] = stats.get("cache.dirty_shards", 0.0) / n
    metrics["cache.evictions"] = stats.get("cache.evictions", 0.0)
    metrics["cache.live_mb"] = stats.get("cache.live_bytes", 0.0) / 2**20
    metrics["scheduler.statements_per_read"] = stats.get("scheduler.statements_started", 0.0) / n
    metrics["scheduler.coalesced_per_read"] = stats.get("scheduler.coalesced_statements", 0.0) / n
    for name, value in stats.items():
        if name.startswith("engine."):
            metrics[f"{name}_per_read"] = value / n
    latencies = read_latencies_ms(window)
    traced_p50 = statistics.median(latencies) if latencies else 0.0
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_p50 - untraced_p50) / untraced_p50 if untraced_p50 else 0.0
    )
    return metrics


def tally(run: Run) -> tuple:
    """``(attempted, failed)`` over every window of the run."""
    attempted = failed = 0
    for window in (run.plain, run.traced):
        if window is None:
            continue
        attempted += len(window.ops)
        failed += sum(1 for op in window.ops if not op.ok)
    return attempted, failed


def problems(run: Run) -> List[str]:
    """Why this run's outputs cannot be trusted (empty when they can)."""
    found = []
    for label, window in (("plain", run.plain), ("traced", run.traced)):
        if window is None:
            continue
        found += [f"{label}: {m}" for m in window.verdict.mismatches[:5]]
        found += [f"{label}: {op.error}" for op in window.ops if not op.ok][:5]
        if window.failure:
            found.append(f"{label}: {window.failure}")
        if window.nesting_violations:
            found.append(f"{label}: {window.nesting_violations} spans outside their parent")
        if not any(op.ok for op in window.ops):
            found.append(f"{label}: no operation completed")
    return found
