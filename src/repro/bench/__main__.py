"""Command-line entry point for the benchmark harness.

Usage::

    python -m repro.bench fig6 table2        # run selected drivers
    python -m repro.bench all                # the full evaluation
    python -m repro.bench all --markdown     # Markdown output
    python -m repro.bench fig9 --csv-dir out # also write CSV files

Environment knobs are documented in :mod:`repro.bench.config`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.bench.figures import DRIVERS

__all__ = ["main"]


def _write_parallel_json(reports, csv_dir) -> str:
    """Machine-readable artifact for the ``parallel`` driver.

    Written next to the CSVs (or the working directory) so CI and the
    acceptance checks can read the numbers without scraping tables.
    """
    from repro.bench.config import bench_seeds, bench_sizes
    from repro.bench.planner import host_header
    from repro.core.partition import PARALLEL_MIN_TUPLES, available_workers

    payload = {
        "generated_by": "python -m repro.bench parallel",
        "host": host_header(),
        "cpu_count": os.cpu_count(),
        "available_workers": available_workers(),
        "pool_min_tuples": PARALLEL_MIN_TUPLES,
        "sizes": bench_sizes(),
        "seeds": bench_seeds(),
        "reports": [report.to_dict() for report in reports],
    }
    path = os.path.join(csv_dir or ".", "BENCH_parallel.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def _write_cache_json(reports, csv_dir) -> str:
    """Machine-readable artifact for the ``cache`` driver.

    Cold/warm latencies, the warm-speedup ratio, and the dirty-shard
    fractions land here so the acceptance checks can assert the ≥10x
    warm criterion and the delta-only re-sweep without scraping tables.
    """
    from repro.bench.config import bench_seeds, bench_sizes
    from repro.cache.store import DEFAULT_BUDGET_BYTES, ENV_BUDGET
    from repro.core.partition import available_workers

    payload = {
        "generated_by": "python -m repro.bench cache",
        "cpu_count": os.cpu_count(),
        "available_workers": available_workers(),
        "cache_budget_bytes": int(
            os.environ.get(ENV_BUDGET) or DEFAULT_BUDGET_BYTES
        ),
        "sizes": bench_sizes(),
        "seeds": bench_seeds(),
        "reports": [report.to_dict() for report in reports],
    }
    path = os.path.join(csv_dir or ".", "BENCH_cache.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def _write_durability_json(reports, csv_dir) -> str:
    """Machine-readable artifact for the ``durability`` driver.

    Append-throughput overhead factors and recovery times land here so
    the acceptance check (journaled within 2x of plain at the largest
    size) reads numbers, not rendered tables.
    """
    from repro.bench.config import bench_seeds, bench_sizes
    from repro.storage.journal import (
        _DEFAULT_SEGMENT_BYTES,
        _fsync_policy_from_env,
        _segment_bytes_from_env,
    )

    payload = {
        "generated_by": "python -m repro.bench durability",
        "cpu_count": os.cpu_count(),
        "fsync_policy": _fsync_policy_from_env(),
        "segment_bytes": _segment_bytes_from_env(),
        "default_segment_bytes": _DEFAULT_SEGMENT_BYTES,
        "sizes": bench_sizes(),
        "seeds": bench_seeds(),
        "reports": [report.to_dict() for report in reports],
    }
    path = os.path.join(csv_dir or ".", "BENCH_durability.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def _write_columnar_json(reports, csv_dir) -> str:
    """Machine-readable artifact for the ``columnar`` driver.

    Per-(aggregate, size) cells carry the end-to-end seconds, the
    speedup over the object path, and the counter proof (zero columnar
    tuple materializations, positive page-batch counts), so the ≥2x
    acceptance check reads numbers, not rendered tables.
    """
    from repro.bench.config import bench_seeds, bench_sizes
    from repro.bench.figures import COLUMNAR_DETAIL
    from repro.core.partition import available_workers

    payload = {
        "generated_by": "python -m repro.bench columnar",
        "cpu_count": os.cpu_count(),
        "available_workers": available_workers(),
        "sizes": bench_sizes(),
        "seeds": bench_seeds(),
        "cells": COLUMNAR_DETAIL.get("cells", []),
        "note": COLUMNAR_DETAIL.get("note", ""),
        "reports": [report.to_dict() for report in reports],
    }
    path = os.path.join(csv_dir or ".", "BENCH_columnar.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def _write_serving_json(reports, csv_dir) -> str:
    """Machine-readable artifact for the ``serving`` driver.

    Per-size qps and client-observed p50/p99 land here so the
    acceptance check (serving numbers at the paper's 64K grid) reads
    numbers, not rendered tables.
    """
    from repro.bench.config import bench_seeds, bench_sizes
    from repro.bench.serving import CLIENTS, ROUNDS_PER_CLIENT, SERVING_DETAIL
    from repro.serve.config import ServerConfig

    defaults = ServerConfig()
    payload = {
        "generated_by": "python -m repro.bench serving",
        "cpu_count": os.cpu_count(),
        "clients": CLIENTS,
        "rounds_per_client": ROUNDS_PER_CLIENT,
        "workers": defaults.workers,
        "reject_load": defaults.reject_load,
        "sizes": bench_sizes(),
        "seeds": bench_seeds(),
        "cells": SERVING_DETAIL.get("cells", []),
        "note": SERVING_DETAIL.get("note", ""),
        "reports": [report.to_dict() for report in reports],
    }
    path = os.path.join(csv_dir or ".", "BENCH_serving.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def _write_pool_json(reports, csv_dir) -> str:
    """Machine-readable artifact for the ``pool`` driver.

    Per-size qps with the coalescing and fork-once counter proofs land
    here so the acceptance check (coalesced serving throughput at the
    64K grid vs the ``serving`` baseline) reads numbers, not rendered
    tables.
    """
    from repro.bench.config import bench_seeds, bench_sizes
    from repro.bench.pool import (
        CLIENTS,
        POOL_DETAIL,
        ROUNDS_PER_CLIENT,
        _resolved_pool_workers,
    )
    from repro.core.partition import PARALLEL_MIN_TUPLES

    payload = {
        "generated_by": "python -m repro.bench pool",
        "cpu_count": os.cpu_count(),
        "clients": CLIENTS,
        "rounds_per_client": ROUNDS_PER_CLIENT,
        "pool_workers": _resolved_pool_workers(),
        "pool_min_tuples": PARALLEL_MIN_TUPLES,
        "env": {
            "REPRO_POOL_WORKERS": os.environ.get("REPRO_POOL_WORKERS"),
        },
        "sizes": bench_sizes(),
        "seeds": bench_seeds(),
        "cells": POOL_DETAIL.get("cells", []),
        "note": POOL_DETAIL.get("note", ""),
        "reports": [report.to_dict() for report in reports],
    }
    path = os.path.join(csv_dir or ".", "BENCH_pool.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def _write_replication_json(reports, csv_dir) -> str:
    """Machine-readable artifact for the ``replication`` driver.

    Shipping overhead, catch-up rows/s, failover-to-first-answer, and
    the 1-to-2 replica read scaling land here so the acceptance check
    reads numbers, not rendered tables.
    """
    from repro.bench.replication import (
        APPEND_BATCHES,
        CATCHUP_ROWS,
        READ_CLIENTS,
        READ_ROUNDS,
        REPLICATION_DETAIL,
        ROWS_PER_BATCH,
    )

    payload = {
        "generated_by": "python -m repro.bench replication",
        "cpu_count": os.cpu_count(),
        "append_batches": APPEND_BATCHES,
        "rows_per_batch": ROWS_PER_BATCH,
        "catchup_rows": CATCHUP_ROWS,
        "read_clients": READ_CLIENTS,
        "read_rounds": READ_ROUNDS,
        "cells": REPLICATION_DETAIL.get("cells", []),
        "note": REPLICATION_DETAIL.get("note", ""),
        "reports": [report.to_dict() for report in reports],
    }
    path = os.path.join(csv_dir or ".", "BENCH_replication.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def _write_planner_json(reports, csv_dir) -> str:
    """Machine-readable artifact for the ``planner`` driver.

    Every grid cell's statistics, per-plan medians, pick and regret,
    under the host header, so the tier-1 planner test can replay the
    planner over the recorded statistics.
    """
    from repro.bench.planner import PLANNER_DETAIL, host_header

    payload = {
        "generated_by": "python -m repro.bench planner",
        "host": host_header(),
        **PLANNER_DETAIL,
    }
    path = os.path.join(csv_dir or ".", "BENCH_planner.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the tables and figures of Kline & Snodgrass 1995.",
    )
    parser.add_argument(
        "drivers",
        nargs="+",
        help=f"drivers to run: {', '.join(sorted(DRIVERS))}, or 'all'",
    )
    parser.add_argument(
        "--markdown", action="store_true", help="render Markdown instead of text"
    )
    parser.add_argument(
        "--csv-dir", default=None, help="also write one CSV per report here"
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="also render each figure report as an ASCII log-log plot",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run each driver under cProfile and print the top 20 "
        "functions by cumulative time",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="resident pool size for the 'pool' driver (default: "
        "REPRO_POOL_WORKERS or the machine's available workers)",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=None,
        help="concurrent client connections for the 'pool' driver "
        "(default: %(default)s -> driver default)",
    )
    args = parser.parse_args(argv)

    if args.workers is not None or args.clients is not None:
        import repro.bench.pool as pool_module

        if args.workers is not None:
            if args.workers < 1:
                parser.error("--workers must be at least 1")
            pool_module.POOL_WORKERS = args.workers
        if args.clients is not None:
            if args.clients < 1:
                parser.error("--clients must be at least 1")
            pool_module.CLIENTS = args.clients

    names = sorted(DRIVERS) if "all" in args.drivers else args.drivers
    unknown = [name for name in names if name not in DRIVERS]
    if unknown:
        parser.error(f"unknown drivers: {', '.join(unknown)}")

    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)

    for name in names:
        started = time.perf_counter()
        if args.profile:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            reports = profiler.runcall(DRIVERS[name])
            stats = pstats.Stats(profiler, stream=sys.stderr)
            print(f"[profile: {name}, top 20 by cumulative time]", file=sys.stderr)
            stats.sort_stats("cumulative").print_stats(20)
        else:
            reports = DRIVERS[name]()
        elapsed = time.perf_counter() - started
        for index, report in enumerate(reports):
            if args.markdown:
                print(report.render_markdown())
            else:
                print(report.render_text())
            if args.csv_dir:
                suffix = "" if len(reports) == 1 else f"_{index}"
                path = os.path.join(args.csv_dir, f"{name}{suffix}.csv")
                with open(path, "w") as handle:
                    handle.write(report.render_csv())
            if args.plot and name.startswith("fig"):
                from repro.bench.plotting import ascii_loglog

                print(ascii_loglog(report))
            print()
        if name == "parallel":
            path = _write_parallel_json(reports, args.csv_dir)
            print(f"[wrote {path}]", file=sys.stderr)
        elif name == "cache":
            path = _write_cache_json(reports, args.csv_dir)
            print(f"[wrote {path}]", file=sys.stderr)
        elif name == "columnar":
            path = _write_columnar_json(reports, args.csv_dir)
            print(f"[wrote {path}]", file=sys.stderr)
        elif name == "durability":
            path = _write_durability_json(reports, args.csv_dir)
            print(f"[wrote {path}]", file=sys.stderr)
        elif name == "serving":
            path = _write_serving_json(reports, args.csv_dir)
            print(f"[wrote {path}]", file=sys.stderr)
        elif name == "pool":
            path = _write_pool_json(reports, args.csv_dir)
            print(f"[wrote {path}]", file=sys.stderr)
        elif name == "replication":
            path = _write_replication_json(reports, args.csv_dir)
            print(f"[wrote {path}]", file=sys.stderr)
        elif name == "planner":
            path = _write_planner_json(reports, args.csv_dir)
            print(f"[wrote {path}]", file=sys.stderr)
        print(f"[{name} completed in {elapsed:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
