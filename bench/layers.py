"""Per-layer metrics from a traced run's spans.

Each read (a served statement, or one engine call) is one trace.  A
span's *self time* is its duration minus its children's.  Within a
trace the self times, the client's decode time and the unattributed
rest add up to the read's client-observed latency, so every layer gets
a share of that latency (``<layer>_pct``) as well as a time per read
(``<layer>_ms.p50``).  Reads that joined another statement's flight
(coalesced followers) ran nothing themselves; shares and times are
taken over the reads that ran.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

#: Span name -> the layer its self time is charged to.
LAYER_OF = {
    "tsql2.parse": "tsql2.parse",
    "snapshots.pin": "snapshots.pin",
    "scheduler.queue": "scheduler.queue_wait",
    "server.run": "server.shape_self",
    "tsql2.execute": "tsql2.execute_self",
    "engine.evaluate": "engine.evaluate",
    "planner.choose": "planner.choose",
    "relation.statistics": "relation.statistics",
    "snapshots.materialise": "snapshots.materialise",
    "snapshots.append": "snapshots.append",
    "protocol.encode": "protocol.encode",
}

#: Layers of a read's latency, in the order a statement meets them.
READ_LAYERS = (
    "client.decode",
    "protocol.encode",
    "scheduler.queue_wait",
    "server.shape_self",
    "snapshots.pin",
    "snapshots.materialise",
    "tsql2.parse",
    "tsql2.execute_self",
    "planner.choose",
    "relation.statistics",
    "engine.evaluate",
    "trace.unattributed",
)

#: Spans counted per read (outermost only, for nested same-name spans).
COUNTED = {
    "tsql2.parse": "tsql2.parse_per_read",
    "planner.choose": "planner.choose_per_read",
    "relation.statistics": "relation.statistics_per_read",
    "snapshots.materialise": "snapshots.materialise_per_read",
    "process.fork": "process.forks_per_read",
}

#: Slack for clock reads taken on the way into and out of a wrapper.
NEST_SLACK_S = 1e-6


class Span(NamedTuple):
    trace: Optional[str]
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    size: Optional[int]


class Read(NamedTuple):
    """A read as the client saw it: its trace, latency, decode, rows."""

    trace: str
    latency: float
    decode: float = 0.0
    rows: int = 0


def load(path) -> Tuple[List[Span], List[str]]:
    with open(path) as handle:
        doc = json.load(handle)
    return [Span(*row) for row in doc["spans"]], list(doc.get("missing", []))


def _p50(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def p90(values: List[float]) -> Optional[float]:
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=10)[8]


def nesting_violations(spans: List[Span]) -> int:
    """Spans that are not inside their parent's interval."""
    by_id = {span.id: span for span in spans}
    bad = 0
    for span in spans:
        if span.parent is None:
            continue
        parent = by_id.get(span.parent)
        if (
            parent is None
            or span.start < parent.start - NEST_SLACK_S
            or span.end > parent.end + NEST_SLACK_S
        ):
            bad += 1
    return bad


def self_times(spans: List[Span]) -> Dict[int, float]:
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    return {span.id: span.end - span.start - child_time[span.id] for span in spans}


def analyse(
    spans: List[Span],
    reads: Iterable[Read],
    appends: Iterable[Tuple[str, float]] = (),
) -> Dict[str, Optional[float]]:
    """Layer metrics over ``reads`` (and ``(trace, seconds)`` appends)."""
    own = self_times(spans)
    names = {span.id: span.name for span in spans}
    by_trace: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span.trace is not None:
            by_trace[span.trace].append(span)

    metrics: Dict[str, Optional[float]] = {}
    per_read: Dict[str, List[float]] = defaultdict(list)
    totals: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    run_ms: List[float] = []
    reply_bytes: List[int] = []
    latency_total = 0.0
    rows_total = 0
    reads = list(reads)
    for read in reads:
        trace = by_trace.get(read.trace, [])
        for span in trace:
            counted = COUNTED.get(span.name)
            if counted and names.get(span.parent) != span.name:
                counts[counted] += 1
            if span.name.startswith("planner.strategy."):
                counts[span.name] += 1
        if not any(s.name in ("server.run", "engine.evaluate") for s in trace):
            continue
        layer_time: Dict[str, float] = defaultdict(float)
        for span in trace:
            layer = LAYER_OF.get(span.name)
            if layer is not None:
                layer_time[layer] += own[span.id]
            if span.name == "server.run":
                run_ms.append((span.end - span.start) * 1000.0)
            if span.name == "protocol.encode" and span.size:
                reply_bytes.append(span.size)
        layer_time["client.decode"] = read.decode
        attributed = sum(layer_time.values())
        layer_time["trace.unattributed"] = max(0.0, read.latency - attributed)
        latency = max(read.latency, attributed)
        latency_total += latency
        rows_total += read.rows
        for layer, seconds in layer_time.items():
            totals[layer] += seconds
            if seconds > 0.0 or layer == "trace.unattributed":
                per_read[layer].append(seconds * 1000.0)

    for layer in READ_LAYERS + ("snapshots.append",):
        metrics[f"{layer}_ms.p50"] = _p50(per_read.get(layer, []))
    metrics["scheduler.queue_wait_ms.p90"] = p90(per_read.get("scheduler.queue_wait", []))
    metrics["server.run_ms.p50"] = _p50(run_ms)
    for layer in READ_LAYERS:
        metrics[f"{layer}_pct"] = (
            100.0 * totals[layer] / latency_total if latency_total else 0.0
        )
    n = len(reads)
    for name in COUNTED.values():
        metrics[name] = counts[name] / n if n else 0.0
    for name, value in counts.items():
        if name.startswith("planner.strategy."):
            metrics[name] = float(value)
    metrics["protocol.reply_kb.p50"] = (
        statistics.median(reply_bytes) / 1024.0 if reply_bytes else 0.0
    )
    metrics["protocol.bytes_per_row"] = (
        sum(reply_bytes) / rows_total if rows_total else 0.0
    )

    # Appends: the append layer's share of each append's latency.
    append_ms: List[float] = []
    append_total = layer_total = 0.0
    for trace_name, seconds in appends:
        layer = sum(
            own[s.id] for s in by_trace.get(trace_name, []) if s.name == "snapshots.append"
        )
        if layer:
            append_ms.append(layer * 1000.0)
        append_total += seconds
        layer_total += layer
    metrics["snapshots.append_ms.p50"] = _p50(append_ms)
    metrics["snapshots.append_pct"] = (
        100.0 * layer_total / append_total if append_total else 0.0
    )
    return metrics
