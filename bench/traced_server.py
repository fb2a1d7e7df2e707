"""Traced launcher: ``repro.serve`` with spans recorded from outside.

Usage (the benchmark starts it; it takes the ``repro.serve`` CLI
arguments after its own)::

    python bench/traced_server.py --spans OUT.json -- --load data.csv:employed --port 0

It wraps public callables in the namespaces that call them, then runs
``repro.serve.__main__.main`` unchanged.  Spans stay in memory and are
written to ``--spans`` when the server stops (SIGINT).

Each statement is one trace, named ``"<session>:<n>"`` for the n-th
statement its session submitted; the benchmark's clients count their
own requests the same way, which joins client-side latency and decode
time to the server-side spans.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from typing import Any, Dict, List, Optional

from spans import Recorder, Trace


def _wrap_choose(recorder: Recorder, module: Any) -> None:
    """planner.choose spans, plus one event naming the chosen strategy."""
    if not recorder.wrap(module, "choose_strategy", "planner.choose"):
        return

    def make(choose: Any) -> Any:
        def choose_strategy(*args: Any, **kwargs: Any) -> Any:
            decision = choose(*args, **kwargs)
            recorder.event(f"planner.strategy.{decision.strategy}")
            return decision

        return choose_strategy

    recorder.patch(module, "choose_strategy", make)


def install_engine(recorder: Recorder) -> None:
    """Spans for the layers every workload reaches: planner, relation
    statistics, and process forks."""
    from repro.core import engine
    from repro.relation.relation import TemporalRelation

    _wrap_choose(recorder, engine)
    recorder.wrap(TemporalRelation, "statistics", "relation.statistics")

    def make_fork(fork: Any) -> Any:
        def traced_fork() -> int:
            recorder.event("process.fork")
            return fork()

        return traced_fork

    recorder.patch(os, "fork", make_fork)


def install_serving(recorder: Recorder) -> None:
    """Spans for the serving stack, on top of :func:`install_engine`."""
    from repro.serve import admission, scheduler, server, snapshots
    from repro.tsql2 import executor

    install_engine(recorder)

    # Admission opens the statement's trace on the event-loop thread;
    # the parse and pin the server does there before submitting belong
    # to the statement submitted next.
    def make_admit(admit: Any) -> Any:
        def admit_statement(*args: Any, **kwargs: Any) -> Any:
            recorder.trace = Trace()
            return admit(*args, **kwargs)

        return admit_statement

    recorder.patch(admission.AdmissionController, "admit_statement", make_admit)

    sequence: Dict[int, int] = {}
    replies: Dict[int, Trace] = {}

    def make_submit(submit: Any) -> Any:
        def traced_submit(self: Any, session: Any, statement: Any) -> Any:
            trace = recorder.trace or Trace()
            recorder.trace = None
            sequence[session.sid] = sequence.get(session.sid, 0) + 1
            trace.name = f"{session.sid}:{sequence[session.sid]}"
            submitted = time.perf_counter()
            run = statement.run

            def traced_run() -> Any:
                recorder.add("scheduler.queue", submitted, time.perf_counter(), trace)
                recorder.trace = trace
                try:
                    reply = recorder.call("server.run", run)
                finally:
                    recorder.trace = None
                replies[id(reply)] = trace
                return reply

            statement.run = traced_run
            return submit(self, session, statement)

        return traced_submit

    recorder.patch(scheduler.FairScheduler, "submit", make_submit)

    def make_encode(encode: Any) -> Any:
        def encode_frame(payload: Dict[str, Any]) -> bytes:
            trace = replies.pop(id(payload), None)
            start = time.perf_counter()
            data = encode(payload)
            recorder.add("protocol.encode", start, time.perf_counter(), trace, len(data))
            return data

        return encode_frame

    recorder.patch(scheduler, "encode_frame", make_encode)

    recorder.wrap(server, "parse", "tsql2.parse")
    recorder.wrap(executor, "parse", "tsql2.parse")
    recorder.wrap(executor.Database, "execute", "tsql2.execute")
    recorder.wrap(executor, "temporal_aggregate", "engine.evaluate")
    _wrap_choose(recorder, executor)
    recorder.wrap(snapshots.ServedRelation, "pin", "snapshots.pin")
    recorder.wrap(snapshots.ServedRelation, "append_batch", "snapshots.append")
    recorder.wrap(snapshots.SnapshotView, "statistics", "relation.statistics")
    recorder.wrap(snapshots, "TemporalRelation", "snapshots.materialise")

    # The filtered path builds its evaluator directly; its evaluate
    # call is the engine's share of such a statement.
    def make_evaluator_factory(make: Any) -> Any:
        def make_evaluator(*args: Any, **kwargs: Any) -> Any:
            evaluator = make(*args, **kwargs)
            evaluator.evaluate = functools.partial(
                recorder.call, "engine.evaluate", evaluator.evaluate
            )
            return evaluator

        return make_evaluator

    recorder.patch(executor, "make_evaluator", make_evaluator_factory)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write spans")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    recorder = Recorder()
    install_serving(recorder)
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(serve_args)
    finally:
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
