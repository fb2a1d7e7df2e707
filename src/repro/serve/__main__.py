"""CLI entry point: ``python -m repro.serve``.

Starts a query server on the given address and serves until
interrupted::

    $ python -m repro.serve --seed --port 7474
    serving on 127.0.0.1:7474 (tables: employed) — Ctrl-C to stop

``--load PATH[:NAME]`` serves temporal CSVs; ``--seed`` serves the
paper's Employed relation.  The admission and budget knobs mirror
:class:`~repro.serve.config.ServerConfig`.

Malformed CSV rows are quarantined, not fatal: their summary goes to
stderr before the ``serving on`` line.  A CSV that cannot be loaded at
all (missing file, text not in the file's encoding, bad header, too
many malformed rows) prints one ``error:`` line to stderr and exits
with status 2.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.serve.config import ServerConfig
from repro.serve.server import QueryServer

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Concurrent TSQL2-lite query server.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7474)
    parser.add_argument("--seed", action="store_true", help="serve Employed")
    parser.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="PATH[:NAME]",
        help="serve a temporal CSV (optionally as :NAME)",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--max-sessions", type=int, default=32)
    parser.add_argument("--max-queue-depth", type=int, default=8)
    parser.add_argument(
        "--deadline-ms", type=float, default=None, help="per-statement deadline"
    )
    parser.add_argument(
        "--memory-budget-bytes",
        type=int,
        default=None,
        help="per-statement memory budget",
    )
    return parser


async def _serve(server: QueryServer) -> None:
    await server.start()
    tables = ", ".join(sorted(server.stats()["tables"])) or "(none)"
    print(
        f"serving on {server.config.host}:{server.port} "
        f"(tables: {tables}) — Ctrl-C to stop",
        flush=True,
    )
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_sessions=args.max_sessions,
        max_queue_depth=args.max_queue_depth,
        deadline_ms=args.deadline_ms,
        memory_budget_bytes=args.memory_budget_bytes,
    )
    server = QueryServer(config)
    if args.seed:
        from repro.workload.employed import employed_relation

        server.register(employed_relation(), name="Employed")
    for spec in args.load:
        from repro.relation.io import QuarantineReport, RelationIOError, read_csv

        path, _, name = spec.partition(":")
        report = QuarantineReport()
        try:
            relation = read_csv(
                path, name=name or "loaded", on_error="quarantine", report=report
            )
        except (RelationIOError, OSError) as error:
            print(f"error: cannot load {path}: {error}", file=sys.stderr)
            return 2
        if report.rows:
            print(report.summary(), file=sys.stderr)
        server.register(relation, name=name or relation.name)
    try:
        asyncio.run(_serve(server))
    except KeyboardInterrupt:
        print("stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
