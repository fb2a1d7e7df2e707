"""Library workload: ``repro.temporal_aggregate`` in its own process.

Usage (the benchmark starts it)::

    python bench/engine_worker.py --csv data.csv [--spans OUT.json]

Loads the CSV the way ``repro.serve --load`` does, prints ``ready
<rows>``, then answers one JSON line per command read from stdin:

* ``round`` -- reset the process-default result cache and collect
  garbage (untimed), then time ``temporal_aggregate`` for the five
  aggregates in a fixed order.  The reply carries each call's seconds,
  a digest of its rows (taken after the timing) and its operation
  counters.
* ``quit`` -- exit; with ``--spans`` the recorded spans are written
  first.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from typing import List, Optional

#: The five aggregates of every workload, in the order a round runs them.
AGGREGATES = (
    ("count", "name"),
    ("sum", "salary"),
    ("min", "salary"),
    ("max", "salary"),
    ("avg", "salary"),
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--csv", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    recorder = None
    if args.spans:
        from spans import Recorder, Trace
        from traced_server import install_engine

        recorder = Recorder()
        install_engine(recorder)

    from oracle import digest
    from repro import temporal_aggregate
    from repro.cache.store import default_cache
    from repro.metrics.counters import OperationCounters
    from repro.relation.io import read_csv

    relation = read_csv(args.csv, name="employed", on_error="quarantine")
    print(f"ready {len(relation)}", flush=True)
    rounds = 0
    for command in sys.stdin:
        command = command.strip()
        if command == "quit":
            break
        if command != "round":
            print(json.dumps({"error": f"unknown command {command!r}"}), flush=True)
            continue
        rounds += 1
        default_cache().reset()
        gc.collect()
        calls = []
        for aggregate, attribute in AGGREGATES:
            counters = OperationCounters()
            if recorder is not None:
                recorder.trace = Trace(f"{rounds}:{aggregate}")
            started = time.perf_counter()
            if recorder is None:
                result = temporal_aggregate(
                    relation, aggregate, attribute, counters=counters
                )
            else:
                result = recorder.call(
                    "engine.evaluate",
                    temporal_aggregate,
                    relation,
                    aggregate,
                    attribute,
                    counters=counters,
                )
            seconds = time.perf_counter() - started
            calls.append(
                {
                    "aggregate": aggregate,
                    "seconds": seconds,
                    "rows": len(result),
                    "digest": digest([tuple(row) for row in result]),
                    "node_visits": counters.node_visits,
                    "tuple_materializations": counters.tuple_materializations,
                    "column_batches": counters.column_batches,
                }
            )
            # Free the rows now, untimed: rebinding ``result`` inside the
            # next call's timing would charge their deallocation to it.
            del result
        print(json.dumps({"round": rounds, "calls": calls}), flush=True)
    if recorder is not None:
        recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
