"""Serving: many clients, one engine, exact answers under contention.

Starts a live query server on the paper's Employed relation (Figure 1)
and walks the three serving guarantees end to end over a real loopback
socket:

1. snapshot pinning — a reader's reply names the relation version it
   ran against, and concurrent appends never tear it;
2. admission control — connections past ``max_sessions`` get a *typed*
   ``ServerOverloaded`` with a retry-after hint, not a hang;
3. observability — the ``stats`` frame shows sessions, the load
   (outstanding statements per worker), and the shared result cache.

Run:  python examples/serving.py
"""

import threading

from repro.serve import (
    QueryClient,
    QueryServer,
    ServerConfig,
    ServerOverloaded,
    ServerRunner,
)
from repro.workload import employed_relation

QUERY = "SELECT COUNT(name), MAX(salary) FROM employed"


def main() -> None:
    server = QueryServer(ServerConfig(max_sessions=3, workers=2))
    server.register(employed_relation(), name="employed")
    runner = ServerRunner(server)
    runner.start()
    try:
        # ------------------------------------------------------------
        # 1. Concurrent readers and a writer: every reply is pinned.
        # ------------------------------------------------------------
        replies = []

        def reader() -> None:
            with QueryClient(runner.host, runner.port) as client:
                replies.append(client.query(QUERY))

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        with QueryClient(runner.host, runner.port) as writer:
            version, row_count = writer.append(
                "employed", [["Nick", 50_000, 10, 15]]
            )
            print(f"append acknowledged at version {version} "
                  f"({row_count} rows)")
        for thread in threads:
            thread.join()
        for reply in replies:
            print(f"reader pinned v{reply.pinned_version} "
                  f"({reply.pinned_row_count} rows): "
                  f"{len(reply.rows)} constant intervals")

        # A fresh reader sees the appended row, exactly once.
        with QueryClient(runner.host, runner.port) as client:
            after = client.query(QUERY)
            print(f"post-append read pinned v{after.pinned_version} "
                  f"({after.pinned_row_count} rows)")
        print()

        # ------------------------------------------------------------
        # 2. Admission control: the 4th session is refused, typed.
        # ------------------------------------------------------------
        holders = [QueryClient(runner.host, runner.port) for _ in range(3)]
        try:
            QueryClient(runner.host, runner.port)
        except ServerOverloaded as refused:
            print(f"4th connection refused: reason={refused.reason!r}, "
                  f"retry after {refused.retry_after_ms} ms")
        finally:
            for holder in holders:
                holder.close()
        print()

        # ------------------------------------------------------------
        # 3. The stats frame: admission, scheduler, cache, tables.
        # ------------------------------------------------------------
        with QueryClient(runner.host, runner.port) as client:
            stats = client.stats()
        admission = stats["admission"]
        print("server stats:")
        print(f"  sessions admitted/rejected: "
              f"{admission['sessions_admitted']}/"
              f"{admission['sessions_rejected']}")
        print(f"  statements admitted:        "
              f"{admission['statements_admitted']}")
        print(f"  load:                       {admission['load']}")
        print(f"  employed rows:              "
              f"{stats['tables']['employed']['rows']}")
    finally:
        runner.stop()


if __name__ == "__main__":
    main()
