"""Execution-backend benchmark: coalesced serving over the resident pool.

Post-paper driver for the persistent shared-memory execution backend
(:mod:`repro.exec.pool`) and the scheduler's single-flight coalescing
(:mod:`repro.serve.scheduler`).  The workload is the serving
benchmark's worst case made adversarial: every client in the fleet
issues the *same* statement at the same moment (a per-round barrier
keeps them overlapping), cycling through the paper's five aggregates
round by round.  Without coalescing each round costs ``clients``
evaluations and ``clients`` reply encodes; with it, one of each — the
qps ratio against ``BENCH_serving.json`` is the measured win.

The driver also proves the backend's hot-path shape from the server's
own stats frame: the resident pool forks exactly once per worker at
server start (``pool_forks == pool_workers`` after the whole run), and
every statement beyond each round's leader is tallied in
``coalesced_statements``.

Run from the command line::

    python -m repro.bench pool
    REPRO_BENCH_MAX_TUPLES=65536 python -m repro.bench pool
    python -m repro.bench pool --clients 4 --workers 2
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.bench.config import bench_seeds, bench_sizes
from repro.bench.reporting import Report
from repro.workload.generator import WorkloadParameters, generate_relation

__all__ = ["pool", "POOL_DETAIL", "CLIENTS", "ROUNDS_PER_CLIENT", "POOL_WORKERS"]

#: Concurrent client connections per measured size (overridable with
#: ``--clients`` on the CLI).
CLIENTS = 8

#: Barrier-synchronized rounds each client plays; round ``i`` issues
#: aggregate ``i mod 5``, identical across the fleet.
ROUNDS_PER_CLIENT = 10

#: Resident pool size for the measured server (None = the pool's own
#: default sizing; overridable with ``--workers`` on the CLI).
POOL_WORKERS: Optional[int] = None

#: Machine-readable cells for ``BENCH_pool.json`` (filled by the
#: driver on each run, read by the JSON writer in ``__main__``).
POOL_DETAIL: Dict[str, object] = {"cells": [], "note": ""}

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


def _resolved_pool_workers() -> int:
    from repro.core.partition import available_workers
    from repro.exec.pool import pool_workers_from_env

    if POOL_WORKERS is not None:
        return POOL_WORKERS
    return pool_workers_from_env() or available_workers()


def _client_worker(
    host: str,
    port: int,
    barrier: threading.Barrier,
    latencies: List[float],
    row_counts: List[int],
    errors: List[BaseException],
) -> None:
    from repro.serve import QueryClient

    try:
        with QueryClient(host, port) as client:
            for round_index in range(ROUNDS_PER_CLIENT):
                # The barrier is what makes the statements *overlap*:
                # every client fires the identical text together, so
                # each round is one flight plus (clients - 1) joins.
                barrier.wait(timeout=120.0)
                text = _TEXTS[round_index % len(_TEXTS)]
                started = perf_counter()
                reply = client.query(text)
                latencies.append(perf_counter() - started)
                row_counts.append(len(reply.rows))
    except BaseException as error:  # surfaced by the driver
        errors.append(error)
        try:
            barrier.abort()
        except Exception:
            pass


def _measure_size(n: int, seed: int, clients: int) -> Dict[str, float]:
    from repro.serve import QueryClient, QueryServer, ServerConfig, ServerRunner

    relation = generate_relation(
        WorkloadParameters(tuples=n, seed=seed), name=_TABLE
    )
    pool_workers = _resolved_pool_workers()
    server = QueryServer(ServerConfig(
        workers=clients,
        max_sessions=clients + 4,
        pool_workers=pool_workers,
    ))
    server.register(relation, name=_TABLE)
    runner = ServerRunner(server)
    runner.start()
    try:
        # Warmup exactly as the serving baseline: each statement twice,
        # so the planner observes the repeat and the shared cache holds
        # every aggregate's shards.
        with QueryClient(runner.host, runner.port) as warmer:
            for text in _TEXTS:
                warmer.query(text)
                warmer.query(text)

        barrier = threading.Barrier(clients)
        latencies: List[float] = []
        row_counts: List[int] = []
        errors: List[BaseException] = []
        threads = [
            threading.Thread(
                target=_client_worker,
                args=(runner.host, runner.port, barrier,
                      latencies, row_counts, errors),
            )
            for _ in range(clients)
        ]
        started = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600.0)
        wall = perf_counter() - started
        if errors:
            raise errors[0]

        with QueryClient(runner.host, runner.port) as observer:
            stats = observer.stats()
    finally:
        runner.stop()

    ordered = sorted(latencies)
    scheduler_stats = stats["scheduler"]
    pool_stats = stats["pool"]
    return {
        "requests": float(len(latencies)),
        "qps": len(latencies) / wall if wall > 0 else 0.0,
        "p50_ms": _percentile(ordered, 0.50) * 1000.0,
        "p99_ms": _percentile(ordered, 0.99) * 1000.0,
        "max_ms": (ordered[-1] if ordered else 0.0) * 1000.0,
        "coalesced_statements": float(
            scheduler_stats["coalesced_statements"]
        ),
        "statements_started": float(scheduler_stats["statements_started"]),
        "pool_forks": float(pool_stats["forks"]),
        "pool_workers": float(pool_stats["workers"]),
        "result_rows_min": float(min(row_counts) if row_counts else 0),
        "result_rows_max": float(max(row_counts) if row_counts else 0),
    }


def pool(
    sizes: Optional[Sequence[int]] = None, seeds: Optional[Sequence[int]] = None
) -> List[Report]:
    """Throughput of overlapping identical statements over the resident
    backend, with the coalescing and fork-once counter proofs.

    ``CLIENTS`` sessions play ``ROUNDS_PER_CLIENT`` barrier-started
    rounds; each round the whole fleet issues one aggregate's text
    simultaneously.  qps counts completed statements over the fleet's
    wall-clock — directly comparable to the serving benchmark's cells,
    which run the same aggregates without overlap.
    """
    sizes = list(sizes) if sizes is not None else bench_sizes()
    seeds = list(seeds) if seeds is not None else bench_seeds()
    clients = CLIENTS

    report = Report(
        f"Execution pool — {clients} clients, identical overlapping "
        "statements, single-flight coalescing",
        [
            "tuples",
            "requests",
            "qps",
            "p50 (ms)",
            "p99 (ms)",
            "coalesced",
            "started",
            "pool forks",
            "pool workers",
        ],
    )
    cells: List[Dict[str, float]] = []
    for n in sizes:
        samples = [_measure_size(n, seed, clients) for seed in seeds]

        def _mean(key: str) -> float:
            return sum(sample[key] for sample in samples) / len(samples)

        cell = {key: _mean(key) for key in samples[0]}
        cell["tuples"] = float(n)
        cell["clients"] = float(clients)
        cell["rounds_per_client"] = float(ROUNDS_PER_CLIENT)
        cells.append(cell)
        report.add_row(
            n,
            int(cell["requests"]),
            round(cell["qps"], 2),
            round(cell["p50_ms"], 3),
            round(cell["p99_ms"], 3),
            int(cell["coalesced_statements"]),
            int(cell["statements_started"]),
            int(cell["pool_forks"]),
            int(cell["pool_workers"]),
        )
    note = (
        f"seeds={seeds}; {clients} clients x {ROUNDS_PER_CLIENT} "
        "barrier-started rounds of one identical statement each "
        "(COUNT/SUM/MIN/MAX/AVG cycling), warm cache; coalesced counts "
        "statements that joined another statement's flight; pool forks "
        "== pool workers proves the backend forked once at server "
        "start, never per statement"
    )
    report.add_note(note)
    POOL_DETAIL["cells"] = cells
    POOL_DETAIL["note"] = note
    return [report]
