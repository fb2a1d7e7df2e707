"""Optional vectorized kernel backend (``REPRO_COLUMN_BACKEND=numpy``).

The pure-Python kernels in :mod:`repro.core.columnar_sweep` merge two
sorted event streams with interpreted cursor loops.  When numpy is
importable, the COUNT/SUM/AVG sweeps collapse into a handful of array
primitives instead: stable argsort over the event times, segment
boundaries via a shifted comparison, per-time deltas reduced with
``add.reduceat``, and a cumulative sum giving the running aggregate
after each distinct event time.  The answer's start and end columns
are then a pair of ``searchsorted`` calls against the ``[lo, hi]``
window, copied into ``array('q')`` columns like the Python kernels
emit.

numpy is deliberately bound as ``Any`` (loaded through
:func:`importlib.import_module`) so the strict typing gate on
``repro.core`` does not depend on numpy stubs, and so the module
imports cleanly — reporting the backend as unavailable — on machines
without numpy.  MIN/MAX keep the lazy-deletion heap regardless of the
backend: a running extremum is not expressible as a cumulative sum.

Caveat on floats: the Python SUM/AVG kernels reset their running total
to exactly 0 whenever the live count hits zero, so float drift never
crosses an empty gap.  The cumulative-sum formulation cannot reset
mid-stream, so float inputs may differ from the Python kernel in the
last ulp across such gaps.  The reference workloads aggregate integer
salaries, where both formulations are exact; pick the backend
accordingly for float data.
"""

from __future__ import annotations

import importlib
from array import array
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.interval import FOREVER
from repro.core.result import Columns

__all__ = ["numpy_available", "numpy_kernel"]

_Kernel = Callable[
    [Sequence[int], Sequence[int], Optional[Sequence[Any]], int, int],
    Columns,
]

_numpy: Any = None
_numpy_probed = False


def _load_numpy() -> Any:
    global _numpy, _numpy_probed
    if not _numpy_probed:
        _numpy_probed = True
        try:
            _numpy = importlib.import_module("numpy")
        except Exception:
            _numpy = None
    return _numpy


def numpy_available() -> bool:
    """Whether the vectorized backend can actually run here."""
    return _load_numpy() is not None


def _event_columns(
    np: Any,
    starts: Sequence[int],
    ends: Sequence[int],
    weights: Optional[Sequence[Any]],
) -> Tuple[Any, Any, Any]:
    """Distinct event times with per-time live and weight deltas.

    Returns ``(times, live_deltas, weight_deltas)`` where ``times`` is
    ascending and distinct, and the delta columns hold the *net* change
    at each time (starts contribute ``+1``/``+w``, retractions at
    ``end + 1`` contribute ``-1``/``-w``).  ``weight_deltas`` is None
    when ``weights`` is (the COUNT feed).
    """
    s = np.asarray(starts, dtype=np.int64)
    e = np.asarray(ends, dtype=np.int64)
    finite = e < FOREVER
    b = e[finite] + 1
    times = np.concatenate((s, b))
    live = np.concatenate(
        (np.ones(len(s), dtype=np.int64), -np.ones(len(b), dtype=np.int64))
    )
    if weights is None:
        weight = None
    else:
        try:
            # Integer feeds stay int64 end to end — exact totals, and
            # ``tolist`` hands back Python ints like the cursor kernels.
            w = np.asarray(weights, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            if any(value is None for value in weights):
                # float64 coercion would turn None into NaN; the cursor
                # kernels (and the object sweep) reject such feeds.
                raise TypeError(
                    "SUM/AVG require a value column; got None values"
                ) from None
            w = np.asarray(weights, dtype=np.float64)
        weight = np.concatenate((w, -w[finite]))
    order = np.argsort(times, kind="stable")
    times = times[order]
    live = live[order]
    # First index of each run of equal times.
    firsts = np.flatnonzero(
        np.concatenate(([True], times[1:] != times[:-1]))
    )
    uniq = times[firsts]
    live_net = np.add.reduceat(live, firsts)
    if weight is None:
        weight_net = None
    else:
        weight_net = np.add.reduceat(weight[order], firsts)
    return uniq, live_net, weight_net


def _assemble_columns(
    np: Any,
    uniq: Any,
    lo: int,
    hi: int,
    value_at: Callable[[int], Any],
) -> Columns:
    """Answer columns partitioning ``[lo, hi]`` from per-time state.

    ``value_at(k)`` finalizes the running state after all events at
    ``uniq[k]`` (``k == -1`` means "before every event").  Events at or
    before ``lo`` fold into the first row, matching the cursor kernels.
    """
    first = int(np.searchsorted(uniq, lo, side="right"))
    inside = int(np.searchsorted(uniq, hi, side="right"))
    cuts = uniq[first:inside]
    starts = array("q", (lo,))
    starts.frombytes(cuts.tobytes())
    ends = array("q")
    ends.frombytes((cuts - 1).tobytes())
    ends.append(hi)
    values: List[Any] = [value_at(k) for k in range(first - 1, inside)]
    return starts, ends, values


def numpy_kernel(name: str) -> Optional[_Kernel]:
    """The vectorized kernel for ``name``, or None if unsupported.

    Only the cumulative aggregates (count/sum/avg) vectorize; any other
    name — and any machine without numpy — returns None, telling
    :func:`repro.core.columnar_sweep.make_kernel` to keep the Python
    kernel.
    """
    np = _load_numpy()
    if np is None or name not in ("count", "sum", "avg"):
        return None

    if name == "count":

        def count_kernel(
            starts: Sequence[int],
            ends: Sequence[int],
            values: Optional[Sequence[Any]],
            lo: int,
            hi: int,
        ) -> Columns:
            uniq, live_net, _ = _event_columns(np, starts, ends, None)
            counts = np.cumsum(live_net).tolist()

            def value_at(k: int) -> Any:
                return counts[k] if k >= 0 else 0

            return _assemble_columns(np, uniq, lo, hi, value_at)

        return count_kernel

    def total_kernel(
        starts: Sequence[int],
        ends: Sequence[int],
        values: Optional[Sequence[Any]],
        lo: int,
        hi: int,
    ) -> Columns:
        assert values is not None
        uniq, live_net, weight_net = _event_columns(np, starts, ends, values)
        lives = np.cumsum(live_net).tolist()
        totals = np.cumsum(weight_net).tolist()

        if name == "sum":

            def value_at(k: int) -> Any:
                if k < 0 or not lives[k]:
                    return None
                return totals[k]

        else:  # avg

            def value_at(k: int) -> Any:
                if k < 0 or not lives[k]:
                    return None
                return totals[k] / lives[k]

        return _assemble_columns(np, uniq, lo, hi, value_at)

    return total_kernel
