"""Engine-boundary input validation.

The evaluators' hot paths assume well-formed input: integer endpoints
(mixed floats corrupt the ``end + 1`` boundary arithmetic), ordered
closed intervals, and comparable aggregate values (a NaN silently
poisons MIN/MAX heaps and makes AVG emit NaN rows without any
indication why).  This module centralises the checks the engine runs
once at its boundary, raising :class:`~repro.exec.errors.InvalidInput`
— which still ``isinstance``-matches the historical
``InvalidIntervalError``/``ValueError`` — so malformed requests fail
loudly instead of corrupting sweep ordering.

Shard/partition counts also validate here (one place, one error type),
replacing the divergent ``ValueError``\\ s the parallel module used to
raise.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Tuple

from repro.core.interval import FOREVER, ORIGIN
from repro.exec.errors import InvalidInput

__all__ = ["check_triple", "validated_triples", "validate_shards", "check_endpoints"]


def check_endpoints(start: Any, end: Any) -> None:
    """Validate one closed valid-time interval's endpoints.

    Endpoints must be plain integers (bools rejected: ``True`` sorts
    as 1 and silently reorders sweeps) with
    ``ORIGIN <= start <= end <= FOREVER``.  ``start == end`` is legal —
    it is the degenerate single-instant interval of the paper's closed
    interval model.
    """
    if type(start) is not int or type(end) is not int:
        raise InvalidInput(
            f"interval endpoints must be plain integers, got "
            f"({start!r}, {end!r})"
        )
    if start < ORIGIN or end < start or end > FOREVER:
        raise InvalidInput(f"invalid tuple valid time [{start}, {end}]")


def check_triple(start: Any, end: Any, value: Any = None) -> None:
    """Validate one ``(start, end, value)`` input triple."""
    check_endpoints(start, end)
    # NaN is the one float that breaks every comparison-based path
    # (heap ordering, MIN/MAX, result equality); reject it up front.
    if isinstance(value, float) and value != value:
        raise InvalidInput(
            f"NaN aggregate value in tuple [{start}, {end}]; NaN does "
            "not order and would corrupt MIN/MAX and AVG results"
        )


def validated_triples(
    triples: Iterable[Tuple[Any, Any, Any]]
) -> Iterator[Tuple[int, int, Any]]:
    """Stream ``triples`` through, validating each one lazily."""
    for triple in triples:
        start, end, value = triple
        check_triple(start, end, value)
        yield triple


def validate_shards(shards: Optional[Any]) -> Optional[int]:
    """Validate a shard count (None means "pick a default").

    Returns the validated count so call sites can write
    ``shards = validate_shards(shards)``.
    """
    if shards is None:
        return None
    if type(shards) is not int:
        raise InvalidInput(
            f"shards must be a plain integer or None, got {shards!r}"
        )
    if shards < 1:
        raise InvalidInput(f"need at least one shard, got {shards}")
    return shards
