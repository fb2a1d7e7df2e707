"""Serving benchmark: concurrent clients against a live query server.

Post-paper driver (see :mod:`repro.serve`).  For each relation size of
the Table 3 grid it starts a real :class:`~repro.serve.QueryServer` on
a loopback socket, aims a fixed fleet of blocking clients at it — each
issuing the paper's five aggregates round-robin — and reports serving
throughput (queries per second) and client-observed latency quantiles
(p50/p99).  A warmup pass populates the shared shard-result cache the
way a long-running server would be warm, so the steady-state numbers
measure the serving stack (framing, admission, scheduling, snapshot
pinning, cache hits), not repeated cold sweeps.  One append-then-query
round per size measures the cross-version delta-refresh tail a mixed
read/write workload sees.

Run from the command line::

    python -m repro.bench serving
    REPRO_BENCH_MAX_TUPLES=65536 python -m repro.bench serving
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.bench.config import bench_seeds, bench_sizes
from repro.bench.reporting import Report
from repro.workload.generator import WorkloadParameters, generate_relation

__all__ = ["serving", "SERVING_DETAIL", "CLIENTS", "ROUNDS_PER_CLIENT"]

#: Concurrent client connections per measured size.
CLIENTS = 8

#: Queries each client issues during the measured window.
ROUNDS_PER_CLIENT = 6

#: Machine-readable cells for ``BENCH_serving.json`` (filled by the
#: driver on each run, read by the JSON writer in ``__main__``).
SERVING_DETAIL: Dict[str, object] = {"cells": [], "note": ""}

_TABLE = "employed"
_TEXTS = (
    f"SELECT COUNT(name) FROM {_TABLE}",
    f"SELECT SUM(salary) FROM {_TABLE}",
    f"SELECT MIN(salary) FROM {_TABLE}",
    f"SELECT MAX(salary) FROM {_TABLE}",
    f"SELECT AVG(salary) FROM {_TABLE}",
)


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(fraction * len(sorted_values) + 0.999999))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _client_worker(
    host: str,
    port: int,
    barrier: threading.Barrier,
    latencies: List[float],
    errors: List[BaseException],
) -> None:
    from repro.serve import QueryClient

    try:
        with QueryClient(host, port) as client:
            barrier.wait(timeout=60.0)
            for round_index in range(ROUNDS_PER_CLIENT):
                text = _TEXTS[round_index % len(_TEXTS)]
                started = perf_counter()
                client.query(text)
                latencies.append(perf_counter() - started)
    except BaseException as error:  # surfaced by the driver
        errors.append(error)
        try:
            barrier.abort()
        except Exception:
            pass


def _measure_size(n: int, seed: int) -> Dict[str, float]:
    from repro.serve import QueryClient, QueryServer, ServerConfig, ServerRunner

    relation = generate_relation(
        WorkloadParameters(tuples=n, seed=seed), name=_TABLE
    )
    # One worker per client: the fleet's peak load is 1.0, far below
    # the overload bound, so every statement is served.
    server = QueryServer(ServerConfig(workers=CLIENTS, max_sessions=CLIENTS + 4))
    server.register(relation, name=_TABLE)
    runner = ServerRunner(server)
    runner.start()
    try:
        # Warmup: each statement twice, so the planner observes the
        # repeat and the shared cache holds every aggregate's shards.
        with QueryClient(runner.host, runner.port) as warmer:
            for text in _TEXTS:
                warmer.query(text)
                warmer.query(text)

        barrier = threading.Barrier(CLIENTS)
        latencies: List[float] = []
        errors: List[BaseException] = []
        threads = [
            threading.Thread(
                target=_client_worker,
                args=(runner.host, runner.port, barrier, latencies, errors),
            )
            for _ in range(CLIENTS)
        ]
        started = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600.0)
        wall = perf_counter() - started
        if errors:
            raise errors[0]

        # The mixed-workload tail: one append, then the first query at
        # the new version pays the cross-version delta refresh.
        with QueryClient(runner.host, runner.port) as writer:
            writer.append(_TABLE, [["Nick", 50_000, 0, max(2, n // 64)]])
            refresh_started = perf_counter()
            writer.query(_TEXTS[1])
            refresh = perf_counter() - refresh_started
    finally:
        runner.stop()

    ordered = sorted(latencies)
    return {
        "requests": float(len(latencies)),
        "qps": len(latencies) / wall if wall > 0 else 0.0,
        "p50_ms": _percentile(ordered, 0.50) * 1000.0,
        "p99_ms": _percentile(ordered, 0.99) * 1000.0,
        "max_ms": (ordered[-1] if ordered else 0.0) * 1000.0,
        "append_refresh_ms": refresh * 1000.0,
    }


def serving(
    sizes: Optional[Sequence[int]] = None, seeds: Optional[Sequence[int]] = None
) -> List[Report]:
    """Throughput and latency quantiles of the concurrent query server.

    ``CLIENTS`` concurrent sessions each issue ``ROUNDS_PER_CLIENT``
    statements round-robin over COUNT/SUM/MIN/MAX/AVG against a
    cache-warm server; qps counts completed statements over the
    fleet's wall-clock, latencies are client-observed per statement.
    """
    sizes = list(sizes) if sizes is not None else bench_sizes()
    seeds = list(seeds) if seeds is not None else bench_seeds()

    report = Report(
        f"Serving — {CLIENTS} concurrent clients, warm cache, "
        "COUNT/SUM/MIN/MAX/AVG round-robin",
        [
            "tuples",
            "requests",
            "qps",
            "p50 (ms)",
            "p99 (ms)",
            "max (ms)",
            "append refresh (ms)",
        ],
    )
    cells: List[Dict[str, float]] = []
    for n in sizes:
        samples = [_measure_size(n, seed) for seed in seeds]

        def _mean(key: str) -> float:
            return sum(sample[key] for sample in samples) / len(samples)

        cell = {key: _mean(key) for key in samples[0]}
        cell["tuples"] = float(n)
        cell["clients"] = float(CLIENTS)
        cells.append(cell)
        report.add_row(
            n,
            int(cell["requests"]),
            round(cell["qps"], 1),
            round(cell["p50_ms"], 3),
            round(cell["p99_ms"], 3),
            round(cell["max_ms"], 3),
            round(cell["append_refresh_ms"], 3),
        )
    note = (
        f"seeds={seeds}; {CLIENTS} clients x {ROUNDS_PER_CLIENT} statements "
        "after a two-pass warmup (planner observes the repeat, shared "
        "cache holds every aggregate); p99 is nearest-rank over the "
        "fleet's client-observed latencies; append refresh = first SUM "
        "after a one-row append (cross-version delta re-sweep)"
    )
    report.add_note(note)
    SERVING_DETAIL["cells"] = cells
    SERVING_DETAIL["note"] = note
    return [report]
