"""Journaled evaluator checkpoints: resumable long-running aggregation.

A k-ordered aggregation over a large heap file streams for a long time,
and before this module a crash threw the whole scan away.  The k-ordered
evaluator's garbage collection makes its mid-stream state *small* —
after every gc pass the live tree holds only the not-yet-final constant
intervals plus a ``2k + 1`` window of start times — so snapshotting it
is cheap.  :func:`checkpointed_evaluate` therefore periodically captures
:meth:`KOrderedTreeEvaluator.capture_state` (tree preorder-encoded with
the same codec the paged tree spills with), pickles it, and journals it
as a CHECKPOINT record (synced per the journal's fsync policy).

After a crash, :func:`resume_evaluation` takes the checkpoint that
recovery surfaced (``heap.last_recovery.checkpoint``), restores the
evaluator, skips exactly the ``consumed`` triples the snapshot already
folded in, and streams the rest — emitting byte-identical rows to an
uninterrupted run.

The snapshot records the source relation's row count and fingerprint
watermark; resuming against a heap whose committed prefix no longer
covers the snapshot raises
:class:`~repro.exec.errors.RecoveryError` instead of silently merging
state from a different input.
"""

from __future__ import annotations

import itertools
import pickle
from typing import TYPE_CHECKING, Any, Optional

from repro.core.kordered_tree import KOrderedTreeEvaluator
from repro.core.result import TemporalAggregateResult
from repro.exec.errors import RecoveryError
from repro.storage.heapfile import HeapFile
from repro.storage.journal import Journal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.counters import OperationCounters

__all__ = [
    "CHECKPOINT_FORMAT",
    "encode_checkpoint",
    "decode_checkpoint",
    "checkpointed_evaluate",
    "resume_evaluation",
]

#: Bumped whenever the snapshot dict's shape changes; resume refuses
#: payloads from a different format rather than guessing.
CHECKPOINT_FORMAT = 1

#: Default triples between checkpoints.
DEFAULT_INTERVAL = 4096


def encode_checkpoint(
    evaluator: KOrderedTreeEvaluator, heap: HeapFile, attribute: Optional[str]
) -> bytes:
    """Serialise the evaluator's mid-stream state as a journal payload."""
    state = evaluator.capture_state()
    state["format"] = CHECKPOINT_FORMAT
    state["source_rows"] = len(heap)
    state["source_uid"] = heap.uid
    state["attribute"] = attribute
    state["aggregate"] = evaluator.aggregate.name
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)


def decode_checkpoint(payload: bytes) -> dict:
    """Parse and format-check a CHECKPOINT journal payload."""
    try:
        state = pickle.loads(payload)
    except Exception as exc:
        raise RecoveryError(f"checkpoint payload is unreadable: {exc}") from exc
    if not isinstance(state, dict) or state.get("format") != CHECKPOINT_FORMAT:
        raise RecoveryError(
            f"checkpoint has format {state.get('format') if isinstance(state, dict) else '?'}, "
            f"this build reads format {CHECKPOINT_FORMAT}"
        )
    return state


def checkpointed_evaluate(
    heap: HeapFile,
    evaluator: KOrderedTreeEvaluator,
    *,
    attribute: Optional[str] = None,
    checkpoint_every: int = DEFAULT_INTERVAL,
    journal: Optional[Journal] = None,
    counters: "Optional[OperationCounters]" = None,
) -> TemporalAggregateResult:
    """Evaluate ``heap`` with periodic journaled checkpoints.

    Identical output to ``evaluator.evaluate(heap.scan_triples(...))``;
    the only addition is a CHECKPOINT record every ``checkpoint_every``
    consumed triples, making the scan resumable after a crash.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1")
    journal = journal if journal is not None else heap.journal
    if journal is None:
        raise ValueError(
            "checkpointed evaluation needs a journal; open the heap "
            "with HeapFile.durable()"
        )
    evaluator.begin()
    since_checkpoint = 0
    for start, end, value in heap.scan_triples(attribute):
        evaluator.step(start, end, value)
        since_checkpoint += 1
        if since_checkpoint >= checkpoint_every:
            journal.log_checkpoint(encode_checkpoint(evaluator, heap, attribute))
            if counters is not None:
                counters.checkpoints_written += 1
            since_checkpoint = 0
    return evaluator.finish()


def resume_evaluation(
    heap: HeapFile,
    evaluator: KOrderedTreeEvaluator,
    payload: bytes,
    *,
    attribute: Optional[str] = None,
    checkpoint_every: int = DEFAULT_INTERVAL,
    journal: Optional[Journal] = None,
    counters: "Optional[OperationCounters]" = None,
) -> TemporalAggregateResult:
    """Continue a checkpointed aggregation after a crash.

    ``payload`` is the CHECKPOINT journal record recovery surfaced
    (``heap.last_recovery.checkpoint``).  The evaluator is restored,
    the already-consumed prefix of the scan is skipped, and the
    remainder streams normally — with fresh checkpoints, so a second
    crash resumes from even later.
    """
    state = decode_checkpoint(payload)
    if state.get("attribute") != attribute:
        raise RecoveryError(
            f"checkpoint aggregated attribute {state.get('attribute')!r}, "
            f"resume requested {attribute!r}"
        )
    if state.get("aggregate") != evaluator.aggregate.name:
        raise RecoveryError(
            f"checkpoint used aggregate {state.get('aggregate')!r}, "
            f"this evaluator computes {evaluator.aggregate.name!r}"
        )
    consumed = int(state.get("consumed", 0))
    if consumed > len(heap):
        raise RecoveryError(
            f"checkpoint consumed {consumed} rows but the recovered heap "
            f"holds only {len(heap)} — the snapshot references rows that "
            "were never acknowledged"
        )
    evaluator.restore_state(state)
    remaining = itertools.islice(heap.scan_triples(attribute), consumed, None)
    journal = journal if journal is not None else heap.journal
    since_checkpoint = 0
    for start, end, value in remaining:
        evaluator.step(start, end, value)
        since_checkpoint += 1
        if journal is not None and since_checkpoint >= checkpoint_every:
            journal.log_checkpoint(encode_checkpoint(evaluator, heap, attribute))
            if counters is not None:
                counters.checkpoints_written += 1
            since_checkpoint = 0
    return evaluator.finish()
