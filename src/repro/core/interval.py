"""Closed integer intervals on the temporal dimension.

The paper (Kline & Snodgrass 1995, Section 2) models valid time as a
discrete timeline of *instants*, with tuples stamped by closed intervals
``[start, end]``.  ``0`` is the origin (the earliest representable
instant) and the paper writes the greatest timestamp as the infinity
symbol.  We represent instants as plain Python integers and use the
sentinel :data:`FOREVER` for the greatest timestamp; it behaves like any
other instant under comparison, which keeps the interval algebra free of
special cases.

Intervals here are always *closed* on both ends: ``Interval(8, 20)``
contains the instants ``8, 9, ..., 20``.  A single instant is the
degenerate interval ``Interval(t, t)``.

The two split operations used throughout the aggregation algorithms
follow the closed-interval arithmetic of the paper's Figure 2/3:

* a tuple *start* ``s`` splits a constant interval ``[a, b]`` into
  ``[a, s-1]`` and ``[s, b]`` (no split needed when ``s == a``);
* a tuple *end* ``e`` splits ``[a, b]`` into ``[a, e]`` and
  ``[e+1, b]`` (no split needed when ``e == b``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "ORIGIN",
    "FOREVER",
    "Instant",
    "Interval",
    "InvalidIntervalError",
    "format_instant",
    "parse_instant",
]

Instant = int

#: The earliest representable instant (the paper's ``0``).
ORIGIN: Instant = 0

#: Sentinel for the greatest representable instant (the paper's infinity).
#: Chosen far beyond any realistic timeline (the paper's relations span
#: one million instants) while remaining an ordinary int so comparisons,
#: hashing and arithmetic need no special cases.
FOREVER: Instant = 2**62


class InvalidIntervalError(ValueError):
    """Raised when an interval violates ``ORIGIN <= start <= end``."""


def format_instant(instant: Instant) -> str:
    """Render an instant, using the conventional infinity glyph for FOREVER."""
    if instant >= FOREVER:
        return "forever"
    return str(instant)


def parse_instant(text: str) -> Instant:
    """Parse an instant as produced by :func:`format_instant`.

    Accepts decimal integers plus the spellings ``forever``, ``inf`` and
    the infinity glyph for :data:`FOREVER`.
    """
    try:
        value = int(text)
    except ValueError:
        cleaned = text.strip().lower()
        if cleaned in {"forever", "inf", "infinity", "oo", "∞"}:
            return FOREVER
        try:
            # str.strip also drops the separators \x1c-\x1f; int() does not.
            value = int(cleaned)
        except ValueError as exc:
            raise InvalidIntervalError(f"not an instant: {text!r}") from exc
    if value < ORIGIN:
        raise InvalidIntervalError(f"instant before origin: {text!r}")
    return value


@dataclass(frozen=True, slots=True, order=True)
class Interval:
    """A closed interval ``[start, end]`` of instants.

    Ordered lexicographically by ``(start, end)``, which is exactly the
    paper's *totally ordered by time* ordering for tuples (Section 5.2:
    sort by start time, break ties with end time).
    """

    start: Instant
    end: Instant

    def __post_init__(self) -> None:
        if self.start < ORIGIN:
            raise InvalidIntervalError(
                f"interval start {self.start} precedes the origin {ORIGIN}"
            )
        if self.end < self.start:
            raise InvalidIntervalError(
                f"interval end {self.end} precedes start {self.start}"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def instant(cls, at: Instant) -> "Interval":
        """The degenerate interval containing exactly one instant."""
        return cls(at, at)

    @classmethod
    def always(cls) -> "Interval":
        """The whole timeline ``[ORIGIN, FOREVER]``."""
        return cls(ORIGIN, FOREVER)

    @classmethod
    def parse(cls, text: str) -> "Interval":
        """Parse ``"[8, 20]"`` / ``"[18, forever]"`` style literals."""
        cleaned = text.strip()
        if cleaned.startswith("[") and cleaned.endswith("]"):
            cleaned = cleaned[1:-1]
        parts = cleaned.split(",")
        if len(parts) != 2:
            raise InvalidIntervalError(f"not an interval literal: {text!r}")
        return cls(parse_instant(parts[0]), parse_instant(parts[1]))

    # ------------------------------------------------------------------
    # Size and membership
    # ------------------------------------------------------------------

    @property
    def duration(self) -> int:
        """Number of instants contained (closed interval, so end-start+1)."""
        return self.end - self.start + 1

    @property
    def is_instant(self) -> bool:
        """True when the interval contains exactly one instant."""
        return self.start == self.end

    def __contains__(self, instant: Instant) -> bool:
        return self.start <= instant <= self.end

    def instants(self) -> Iterator[Instant]:
        """Iterate the contained instants (refuse to iterate to FOREVER)."""
        if self.end >= FOREVER:
            raise InvalidIntervalError("cannot enumerate an unbounded interval")
        return iter(range(self.start, self.end + 1))

    # ------------------------------------------------------------------
    # Allen-style relations (the subset the algorithms need)
    # ------------------------------------------------------------------

    def overlaps(self, other: "Interval") -> bool:
        """True when the two closed intervals share at least one instant."""
        return self.start <= other.end and other.start <= self.end

    def covers(self, other: "Interval") -> bool:
        """True when ``other`` lies entirely within this interval."""
        return self.start <= other.start and other.end <= self.end

    def precedes(self, other: "Interval") -> bool:
        """True when this interval ends strictly before ``other`` starts."""
        return self.end < other.start

    def meets(self, other: "Interval") -> bool:
        """True when this interval ends exactly one instant before ``other``."""
        return other.start != ORIGIN and self.end == other.start - 1

    def intersect(self, other: "Interval") -> "Interval | None":
        """The shared sub-interval, or None when disjoint."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if start > end:
            return None
        return Interval(start, end)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval covering both operands."""
        return Interval(min(self.start, other.start), max(self.end, other.end))

    # ------------------------------------------------------------------
    # Constant-interval splitting (paper Figures 2 and 3)
    # ------------------------------------------------------------------

    def split_at_start(self, boundary: Instant) -> "tuple[Interval, Interval]":
        """Split around a tuple *start* time that falls strictly inside.

        ``[a, b].split_at_start(s)`` yields ``([a, s-1], [s, b])``.  The
        caller must ensure ``a < s <= b``; otherwise no split is needed
        and this raises.
        """
        if not self.start < boundary <= self.end:
            raise InvalidIntervalError(
                f"start boundary {boundary} does not split {self}"
            )
        return Interval(self.start, boundary - 1), Interval(boundary, self.end)

    def split_at_end(self, boundary: Instant) -> "tuple[Interval, Interval]":
        """Split around a tuple *end* time that falls strictly inside.

        ``[a, b].split_at_end(e)`` yields ``([a, e], [e+1, b])``.  The
        caller must ensure ``a <= e < b``; otherwise no split is needed
        and this raises.
        """
        if not self.start <= boundary < self.end:
            raise InvalidIntervalError(
                f"end boundary {boundary} does not split {self}"
            )
        return Interval(self.start, boundary), Interval(boundary + 1, self.end)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        return f"[{format_instant(self.start)}, {format_instant(self.end)}]"

    def __repr__(self) -> str:
        return f"Interval({format_instant(self.start)}, {format_instant(self.end)})"
