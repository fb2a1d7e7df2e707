"""Eraser-style dynamic lockset race checker (``REPRO_CHECK_RACES=1``).

The static pass (:mod:`repro.analysis.concurrency`) knows which
attributes *should* be guarded by which locks; this module checks that
they actually *are* at runtime, under a real multi-threaded workload
(the swarm harness, the cache/metrics contention tests).

The algorithm is the classic lockset refinement from Savage et al.'s
Eraser, adapted to attribute granularity:

* every instrumented lock is wrapped in a :class:`TrackedLock` that
  maintains a per-thread set of currently held locks;
* every instrumented attribute access records ``(thread, held locks)``
  against its per-instance location state;
* a location starts **exclusive** to its first thread (construction
  and single-threaded warm-up never alarm).  The first access from a
  second thread moves it to **shared**, seeding the candidate lockset
  with the locks held at that access; every later access *intersects*
  the candidate set with the locks then held;
* a location that is shared, has seen a write while shared, and whose
  candidate lockset is empty has no lock that consistently protected
  it — a candidate race, reported with the stacks of the racing access
  *and* the previous access to the same location.

Instrumentation is installed onto classes (data descriptors for the
lock and guarded attributes, container-subclass proxies for dict/list
values), driven by the static model: :func:`install_default`
instruments the serving stack's shared classes.  With the checker
disabled (the default) the descriptors stay inert — a dict lookup and
a flag test per access — so leftover instrumentation cannot change
behavior.

Known limits: module-level globals (the default-cache slot) and
objects reached only through aliases are not instrumented, and
locations the workload never touches from two threads stay exclusive
— the checker is a workload amplifier, not a proof.
"""

from __future__ import annotations

import os
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple, Type

__all__ = [
    "ENV_FLAG",
    "RaceError",
    "RaceReport",
    "TrackedLock",
    "races_enabled",
    "enable",
    "disable",
    "reset_to_env",
    "instrument_class",
    "install_default",
    "race_reports",
    "clear_reports",
    "assert_no_races",
]

#: Set to ``1`` to arm the checker for the whole process.
ENV_FLAG = "REPRO_CHECK_RACES"


def _env_enabled() -> bool:
    return os.environ.get(ENV_FLAG, "").strip() in {"1", "true", "yes", "on"}


_enabled = _env_enabled()


def races_enabled() -> bool:
    """Is the lockset tracker currently recording?"""
    return _enabled


def enable() -> None:
    """Force-arm the checker (tests use this; wins over the env)."""
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def reset_to_env() -> None:
    """Return to whatever ``REPRO_CHECK_RACES`` says."""
    global _enabled
    _enabled = _env_enabled()


class RaceError(AssertionError):
    """Raised by :func:`assert_no_races` when candidate races exist."""


@dataclass(slots=True)
class RaceReport:
    """One candidate race: an unprotected shared-modified location."""

    location: str  #: ``ClassName.attr``
    kind: str  #: the racing access: ``"read"`` | ``"write"``
    thread: str  #: thread name of the racing access
    stack: str  #: stack of the racing access
    other_kind: str  #: the previous access to the same location
    other_thread: str
    other_stack: str

    def render(self) -> str:
        return (
            f"candidate race on {self.location}: {self.kind} by "
            f"{self.thread!r} with empty lockset\n"
            f"--- racing access ({self.kind}, {self.thread!r}) ---\n"
            f"{self.stack}"
            f"--- previous access ({self.other_kind}, "
            f"{self.other_thread!r}) ---\n"
            f"{self.other_stack}"
        )


# Checker-global state.  _state_lock guards the report list and every
# _LocationState transition; it is ours, never the instrumented code's,
# so it cannot deadlock against application locks.
_state_lock = threading.Lock()
_reports: List[RaceReport] = []
_held = threading.local()  # .locks: Dict[int, List[str, int]]


def _held_map() -> Dict[int, List[Any]]:
    locks = getattr(_held, "locks", None)
    if locks is None:
        locks = {}
        _held.locks = locks
    return locks


def _held_ids() -> FrozenSet[int]:
    return frozenset(_held_map())


def _held_names() -> Tuple[str, ...]:
    return tuple(sorted(entry[0] for entry in _held_map().values()))


class TrackedLock:
    """A lock wrapper that maintains the per-thread held set.

    Wraps ``threading.Lock``/``RLock`` transparently (context manager,
    ``acquire``/``release``/``locked``); the identity used in locksets
    is the wrapper's, so one wrapper per underlying lock.
    """

    __slots__ = ("raw", "name")

    def __init__(self, raw: Any, name: str) -> None:
        self.raw = raw
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = bool(self.raw.acquire(blocking, timeout))
        if acquired:
            held = _held_map()
            entry = held.get(id(self))
            if entry is None:
                held[id(self)] = [self.name, 1]
            else:
                entry[1] += 1  # re-entrant RLock
        return acquired

    def release(self) -> None:
        self.raw.release()
        held = _held_map()
        entry = held.get(id(self))
        if entry is not None:
            entry[1] -= 1
            if entry[1] <= 0:
                del held[id(self)]

    def locked(self) -> bool:
        return bool(self.raw.locked())

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"TrackedLock({self.name!r})"


@dataclass(slots=True)
class _LocationState:
    """Eraser state for one (instance, attribute) location."""

    owner: Optional[int] = None  #: first thread's ident (exclusive phase)
    shared: bool = False
    write_seen: bool = False  #: a write has happened while shared
    lockset: FrozenSet[int] = frozenset()
    reported: bool = False
    last_kind: str = ""
    last_thread: str = ""
    last_stack: str = ""


def _capture_stack() -> str:
    # Drop the two checker frames (capture + _on_access) so reports
    # start at the instrumented access site.
    return "".join(traceback.format_stack(limit=14)[:-2])


def _on_access(owner: Any, location: str, is_write: bool) -> None:
    """Record one access to an instrumented location."""
    if not _enabled:
        return
    thread = threading.current_thread()
    kind = "write" if is_write else "read"
    with _state_lock:
        try:
            states = owner.__dict__.setdefault("__rc_states__", {})
        except AttributeError:  # slotted owner: keyed globally
            states = _slotted_states.setdefault(id(owner), {})
        state = states.get(location)
        if state is None:
            state = states[location] = _LocationState()
        if state.owner is None:
            state.owner = thread.ident
        if not state.shared:
            if thread.ident == state.owner:
                return  # exclusive phase: never alarms
            state.shared = True
            state.lockset = _held_ids()
        else:
            state.lockset = state.lockset & _held_ids()
        if is_write:
            state.write_seen = True
        stack = _capture_stack()
        if (
            state.write_seen
            and not state.lockset
            and not state.reported
            and state.last_stack
        ):
            state.reported = True
            _reports.append(
                RaceReport(
                    location=location,
                    kind=kind,
                    thread=thread.name,
                    stack=stack,
                    other_kind=state.last_kind,
                    other_thread=state.last_thread,
                    other_stack=state.last_stack,
                )
            )
        state.last_kind = kind
        state.last_thread = thread.name
        state.last_stack = stack


#: Location states for slotted instances (no ``__dict__`` to hide in).
#: Keyed by ``id`` — entries can outlive their object, which only costs
#: memory within a checker-armed test run.
_slotted_states: Dict[int, Dict[str, _LocationState]] = {}


def race_reports() -> List[RaceReport]:
    """A snapshot of every candidate race recorded so far."""
    with _state_lock:
        return list(_reports)


def clear_reports() -> None:
    """Drop recorded races and per-instance access history."""
    with _state_lock:
        _reports.clear()
        _slotted_states.clear()


def assert_no_races() -> None:
    """Raise :class:`RaceError` rendering every recorded race."""
    reports = race_reports()
    if reports:
        rendered = "\n\n".join(report.render() for report in reports)
        raise RaceError(
            f"{len(reports)} candidate race(s) detected:\n\n{rendered}"
        )


# ---------------------------------------------------------------------------
# Class instrumentation
# ---------------------------------------------------------------------------

#: Container methods that only observe.
_PROXY_READS = (
    "__contains__", "__getitem__", "__iter__", "__len__", "copy",
    "count", "get", "index", "items", "keys", "values",
)

#: Container methods that mutate.
_PROXY_WRITES = (
    "__delitem__", "__setitem__", "add", "append", "appendleft",
    "clear", "discard", "extend", "insert", "move_to_end", "pop",
    "popitem", "popleft", "remove", "reverse", "rotate", "setdefault",
    "sort", "update",
)

_proxy_cache: Dict[Type[Any], Type[Any]] = {}


def _make_proxy_method(name: str, is_write: bool) -> Any:
    def method(self: Any, *args: Any, **kwargs: Any) -> Any:
        site = self.__rc_site__
        if site is not None:
            _on_access(site[0], site[1], is_write)
        return getattr(super(type(self), self), name)(*args, **kwargs)

    method.__name__ = name
    return method


def _proxy_class(base: Type[Any]) -> Type[Any]:
    """A ``base`` subclass whose read/write methods record accesses."""
    proxy = _proxy_cache.get(base)
    if proxy is not None:
        return proxy
    namespace: Dict[str, Any] = {"__rc_site__": None}
    for name in _PROXY_READS:
        if hasattr(base, name):
            namespace[name] = _make_proxy_method(name, is_write=False)
    for name in _PROXY_WRITES:
        if hasattr(base, name):
            namespace[name] = _make_proxy_method(name, is_write=True)
    proxy = type(f"Tracked{base.__name__}", (base,), namespace)
    _proxy_cache[base] = proxy
    return proxy


def _wrap_value(owner: Any, location: str, value: Any) -> Any:
    """Wrap mutable containers so accesses *through the object* (not
    just attribute rebinding) hit the tracker."""
    from collections import deque

    for base in (dict, list, set, deque):
        if type(value) is base or (
            isinstance(value, base)
            and type(value).__module__ == "collections"
        ):
            proxy = _proxy_class(type(value))
            wrapped = proxy(value)
            wrapped.__rc_site__ = (owner, location)
            return wrapped
    return value


class _Storage:
    """Where a descriptor keeps the real value.

    Dict-backed classes store under a private key in the instance
    ``__dict__`` (falling back to the plain name for instances built
    before instrumentation); slotted classes delegate to the original
    slot descriptor the instrumentation displaced.
    """

    __slots__ = ("name", "slot_key", "member")

    def __init__(self, cls: Type[Any], name: str) -> None:
        self.name = name
        self.slot_key = f"__rc_{name}"
        original = cls.__dict__.get(name)
        self.member = original if hasattr(original, "__set__") else None

    def get(self, obj: Any) -> Any:
        if self.member is not None:
            return self.member.__get__(obj, type(obj))
        try:
            return obj.__dict__[self.slot_key]
        except KeyError:
            try:
                value = obj.__dict__[self.name]  # pre-instrumentation
            except KeyError:
                raise AttributeError(self.name) from None
            obj.__dict__[self.slot_key] = value
            return value

    def set(self, obj: Any, value: Any) -> None:
        if self.member is not None:
            self.member.__set__(obj, value)
        else:
            obj.__dict__[self.slot_key] = value


class _LockDescriptor:
    """Wraps lock attributes in :class:`TrackedLock` on assignment."""

    def __init__(self, cls: Type[Any], name: str) -> None:
        self.name = f"{cls.__name__}.{name}"
        self.storage = _Storage(cls, name)

    def __get__(self, obj: Any, objtype: Optional[Type[Any]] = None) -> Any:
        if obj is None:
            return self
        value = self.storage.get(obj)
        if not isinstance(value, TrackedLock):
            # Pre-instrumentation instance: wrap-on-first-get must be
            # single-winner, or two threads would hold distinct
            # wrappers around one raw lock and split the lockset.
            with _state_lock:
                value = self.storage.get(obj)
                if not isinstance(value, TrackedLock):
                    value = TrackedLock(value, self.name)
                    self.storage.set(obj, value)
        return value

    def __set__(self, obj: Any, value: Any) -> None:
        if not isinstance(value, TrackedLock):
            value = TrackedLock(value, self.name)
        self.storage.set(obj, value)


class _GuardedDescriptor:
    """Records reads/writes of a guarded attribute."""

    def __init__(self, cls: Type[Any], name: str) -> None:
        self.location = f"{cls.__name__}.{name}"
        self.storage = _Storage(cls, name)

    def __get__(self, obj: Any, objtype: Optional[Type[Any]] = None) -> Any:
        if obj is None:
            return self
        value = self.storage.get(obj)
        _on_access(obj, self.location, is_write=False)
        return value

    def __set__(self, obj: Any, value: Any) -> None:
        value = _wrap_value(obj, self.location, value)
        self.storage.set(obj, value)
        _on_access(obj, self.location, is_write=True)


def instrument_class(
    cls: Type[Any],
    *,
    locks: Iterable[str],
    guarded: Iterable[str],
) -> bool:
    """Install tracking descriptors for ``locks`` and ``guarded`` attrs.

    Idempotent (the second call is a no-op) and irreversible for the
    process — with the checker disabled the descriptors are inert, so
    leftover instrumentation does not change behavior.
    """
    if cls.__dict__.get("__rc_instrumented__"):
        return False
    for name in locks:
        setattr(cls, name, _LockDescriptor(cls, name))
    for name in guarded:
        setattr(cls, name, _GuardedDescriptor(cls, name))
    cls.__rc_instrumented__ = True
    return True


def instrument_from_source(
    cls: Type[Any], source_path: Optional[str] = None
) -> bool:
    """Instrument ``cls`` from its module's static concurrency model.

    The static pass decides what gets tracked: the class's lock
    attributes and every guarded attribute (declared or inferred, minus
    ``# ta: unguarded`` opt-outs).
    """
    import sys
    from pathlib import Path

    from repro.analysis.concurrency import build_class_models
    from repro.analysis.lint import SourceFile

    if source_path is None:
        module = sys.modules.get(cls.__module__)
        source_path = getattr(module, "__file__", None)
        if source_path is None:
            return False
    source = SourceFile.parse(Path(source_path))
    model = build_class_models(source).get(cls.__name__)
    if model is None or not model.locks:
        return False
    return instrument_class(
        cls, locks=model.locks, guarded=model.guarded
    )


def install_default() -> List[str]:
    """Instrument the serving stack's shared classes from their models,
    the resident worker pool among them.

    Returns the class names newly instrumented this call (empty on
    repeat calls — instrumentation sticks for the process lifetime).
    """
    from repro.cache.store import ShardResultCache
    from repro.exec.pool import ResidentWorkerPool
    from repro.metrics.counters import ThreadLocalCounters
    from repro.serve.admission import AdmissionController
    from repro.serve.snapshots import ServedRelation, SnapshotView

    installed: List[str] = []
    for cls in (
        ShardResultCache,
        AdmissionController,
        ServedRelation,
        SnapshotView,
        ThreadLocalCounters,
        ResidentWorkerPool,
    ):
        if instrument_from_source(cls):
            installed.append(cls.__name__)
    return installed
