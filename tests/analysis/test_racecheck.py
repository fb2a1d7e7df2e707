"""The dynamic lockset (Eraser-style) race checker.

Three layers of proof:

* unit — :class:`TrackedLock` bookkeeping and the per-location state
  machine behave as specified (exclusive phase never alarms, a
  consistently-locked location never alarms, an unlocked write from a
  second thread does);
* fixture — a deliberately racy class defined *in this file* is
  instrumented from its own static model and caught;
* mutation — the acceptance criterion: removing the ``with self.lock:``
  from ``ShardResultCache.lookup`` (as a monkeypatched mutant) is
  caught by the tracker under a store/lookup hammer, while the shipped
  locked implementation stays silent under the same load.
"""

from __future__ import annotations

import threading
from array import array

import pytest

from repro.analysis import racecheck
from repro.cache.store import CachedEntry, ShardResultCache
from repro.core.columns import ColumnSet

BARRIER_TIMEOUT = 30.0


@pytest.fixture(autouse=True)
def _armed():
    """Force the tracker on for each test, restore the env after.

    Instrumentation itself is process-sticky by design; with the flag
    off the descriptors are inert, so arming here cannot leak behavior
    into other test files.
    """
    racecheck.enable()
    racecheck.clear_reports()
    try:
        yield
    finally:
        racecheck.clear_reports()
        racecheck.reset_to_env()


# ---------------------------------------------------------------------------
# Deliberate fixtures: one racy, one disciplined (instrumented from the
# static model this file itself produces).
# ---------------------------------------------------------------------------


class RacyBox:
    """``put`` takes the lock; ``get`` forgets — the classic lost lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._items = {}

    def put(self, key, value):
        with self._lock:
            self._items[key] = value

    def get(self, key):
        return self._items.get(key)


class CleanBox:
    """Every touch of ``_items`` holds the lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._items = {}

    def put(self, key, value):
        with self._lock:
            self._items[key] = value

    def get(self, key):
        with self._lock:
            return self._items.get(key)


def hammer(*workers, rounds: int = 300):
    """Run each worker in its own thread behind a barrier."""
    barrier = threading.Barrier(len(workers), timeout=BARRIER_TIMEOUT)

    def run(worker):
        barrier.wait()
        for i in range(rounds):
            worker(i)

    threads = [
        threading.Thread(target=run, args=(worker,), name=f"hammer-{n}")
        for n, worker in enumerate(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=BARRIER_TIMEOUT)
    assert not any(thread.is_alive() for thread in threads)


class TestTrackedLock:
    def test_with_block_maintains_held_set(self):
        lock = racecheck.TrackedLock(threading.Lock(), "test.lock")
        assert racecheck._held_names() == ()
        with lock:
            assert racecheck._held_names() == ("test.lock",)
        assert racecheck._held_names() == ()

    def test_rlock_reentry_counts(self):
        lock = racecheck.TrackedLock(threading.RLock(), "test.rlock")
        with lock:
            with lock:
                assert racecheck._held_names() == ("test.rlock",)
            # The outer hold is still in force after the inner exit.
            assert racecheck._held_names() == ("test.rlock",)
        assert racecheck._held_names() == ()

    def test_acquire_release_api(self):
        lock = racecheck.TrackedLock(threading.Lock(), "test.lock")
        assert lock.acquire()
        assert lock.locked()
        lock.release()
        assert not lock.locked()


class TestStateMachine:
    def test_single_thread_never_alarms(self):
        box = RacyBox()
        racecheck.instrument_from_source(RacyBox, source_path=__file__)
        for i in range(100):
            box.put(i, i)
            box.get(i)  # unlocked, but exclusive: no alarm
        assert racecheck.race_reports() == []

    def test_disciplined_class_stays_silent(self):
        racecheck.instrument_from_source(CleanBox, source_path=__file__)
        box = CleanBox()
        hammer(
            lambda i: box.put(i, i),
            lambda i: box.get(i),
        )
        assert racecheck.race_reports() == []
        racecheck.assert_no_races()  # the conftest-style hook passes

    def test_racy_fixture_class_is_caught(self):
        racecheck.instrument_from_source(RacyBox, source_path=__file__)
        box = RacyBox()
        hammer(
            lambda i: box.put(i, i),
            lambda i: box.get(i),
        )
        reports = racecheck.race_reports()
        assert reports, "unlocked get() vs locked put() must be caught"
        first = reports[0]
        assert first.location == "RacyBox._items"
        # Both sides of the race carry a stack trace naming this file.
        assert "test_racecheck" in first.stack
        assert "test_racecheck" in first.other_stack
        assert {first.kind, first.other_kind} <= {"read", "write"}
        with pytest.raises(racecheck.RaceError) as excinfo:
            racecheck.assert_no_races()
        assert "RacyBox._items" in str(excinfo.value)

    def test_disabled_tracker_records_nothing(self):
        racecheck.instrument_from_source(RacyBox, source_path=__file__)
        racecheck.disable()
        box = RacyBox()
        hammer(
            lambda i: box.put(i, i),
            lambda i: box.get(i),
        )
        assert racecheck.race_reports() == []


class TestInstrumentation:
    def test_instrument_from_source_uses_the_static_model(self):
        assert (
            racecheck.instrument_from_source(RacyBox, source_path=__file__)
            or RacyBox.__dict__.get("__rc_instrumented__")
        )
        # Locks wrap, guarded containers proxy.
        box = RacyBox()
        assert isinstance(box._lock, racecheck.TrackedLock)
        assert type(box._items).__name__ == "Trackeddict"

    def test_lockless_class_is_skipped(self):
        class NoLocks:
            def __init__(self):
                self.x = 1

        assert not racecheck.instrument_from_source(
            NoLocks, source_path=__file__
        )

    def test_install_default_covers_the_serving_stack(self):
        from repro.exec.pool import ResidentWorkerPool

        racecheck.install_default()
        for cls in (ShardResultCache, ResidentWorkerPool):
            assert cls.__dict__.get("__rc_instrumented__")


def _tiny_entry() -> CachedEntry:
    return CachedEntry(
        version=0,
        fingerprint=0,
        row_count=0,
        windows=[(0, 1)],
        parts=[ColumnSet(array("q"), array("q"), [])],
        merges=[False],
    )


class TestLookupMutation:
    """The acceptance mutation: drop ``with self.lock:`` from lookup."""

    def _hammer_cache(self, cache: ShardResultCache) -> None:
        hammer(
            lambda i: cache.store(("q", i % 7), _tiny_entry()),
            lambda i: cache.lookup(("q", i % 7)),
            lambda i: cache.lookup(("q", (i + 3) % 7)),
        )

    def test_shipped_lookup_is_clean(self):
        racecheck.install_default()
        cache = ShardResultCache(budget_bytes=1 << 20)
        self._hammer_cache(cache)
        assert racecheck.race_reports() == []

    def test_lockless_lookup_mutant_is_caught(self, monkeypatch):
        racecheck.install_default()

        def racy_lookup(self, key):
            entry = self._entries.get(key)  # mutant: lock elided
            return entry

        monkeypatch.setattr(ShardResultCache, "lookup", racy_lookup)
        cache = ShardResultCache(budget_bytes=1 << 20)
        self._hammer_cache(cache)
        reports = racecheck.race_reports()
        assert reports, "the lockless lookup mutant must be caught"
        locations = {report.location for report in reports}
        assert "ShardResultCache._entries" in locations
        report = next(
            r for r in reports
            if r.location == "ShardResultCache._entries"
        )
        assert report.stack and report.other_stack
