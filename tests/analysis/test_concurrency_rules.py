"""TA011-TA015 against the deliberate-violation fixtures.

Same contract as test_lint_rules.py: each test runs one rule over its
fixture and asserts the precise (code, line) locations, so a rule that
drifts — fires on the wrong construct, or goes silent — fails loudly.
The model tests at the top pin down the guarded-by/inference semantics
the dynamic race checker also consumes.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.concurrency import (
    BlockingCallUnderLockRule,
    EscapingGuardedStateRule,
    GuardedAttributeRule,
    LockOrderRule,
    LockPerCallRule,
    build_class_models,
    module_locks,
)
from repro.analysis.lint import LintRunner, SourceFile, collect_files

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def run_rules(rules, *relative):
    files = [SourceFile.parse(FIXTURES / rel) for rel in relative]
    return LintRunner(list(rules)).run(files)


def locations(violations):
    return [(violation.code, violation.line) for violation in violations]


class TestClassModel:
    def test_declared_inferred_and_unguarded(self):
        source = SourceFile.parse(FIXTURES / "serve" / "ta011_guarded.py")
        model = build_class_models(source)["Ledger"]
        assert model.locks == {"_lock": "Lock"}
        # balance is declared, _entries inferred from the locked append.
        assert model.guarded["balance"] == frozenset({"_lock"})
        assert model.guarded["_entries"] == frozenset({"_lock"})
        assert "balance" in model.declared
        assert "_entries" not in model.declared
        # '# ta: unguarded' removes the attribute from the model.
        assert "hits" in model.unguarded
        assert "hits" not in model.guarded
        assert "_entries" in model.mutable_attrs

    def test_module_level_locks(self):
        source = SourceFile.parse(FIXTURES / "serve" / "ta012_lockorder.py")
        assert module_locks(source) == {"REGISTRY_LOCK": "Lock"}

    def test_lock_kinds(self):
        source = SourceFile.parse(FIXTURES / "serve" / "ta012_lockorder.py")
        models = build_class_models(source)
        assert models["Transfer"].locks == {"_a": "Lock", "_b": "Lock"}
        assert models["Quiet"].locks == {"_m": "Lock", "_r": "RLock"}


class TestRuleFirings:
    def test_ta011_guarded_attribute(self):
        found = run_rules([GuardedAttributeRule()], "serve/ta011_guarded.py")
        assert locations(found) == [
            ("TA011", 19),  # declared guard read outside the lock
            ("TA011", 22),  # inferred guard written outside the lock
            ("TA011", 35),  # nested def holds nothing
        ]
        assert "declared guard" in found[0].message
        assert "inferred guard" in found[1].message
        # bump (unguarded), peek_suppressed (ignore comment), and
        # _drain_locked (caller-holds-the-lock convention) stay silent.

    def test_ta012_lock_order(self):
        found = run_rules([LockOrderRule()], "serve/ta012_lockorder.py")
        assert locations(found) == [
            ("TA012", 15),  # a -> b -> a cycle, witnessed at forward()
            ("TA012", 25),  # plain Lock re-entry: self-deadlock
            ("TA012", 43),  # call-through cycle via _grab_registry()
        ]
        assert "cycle" in found[0].message
        assert "self-deadlock" in found[1].message
        assert "REGISTRY_LOCK" in found[2].message
        # Quiet.reenter_suppressed is ignored; RLock re-entry is legal.

    def test_ta013_escaping_guarded_state(self):
        found = run_rules(
            [EscapingGuardedStateRule()], "serve/ta013_escape.py"
        )
        assert locations(found) == [
            ("TA013", 17),  # return self._entries
            ("TA013", 21),  # yield self._entries
        ]
        assert "returns" in found[0].message
        assert "yields" in found[1].message
        # snapshot() returns dict(...) — a copy built under the lock.

    def test_ta014_blocking_under_lock(self):
        found = run_rules(
            [BlockingCallUnderLockRule()], "serve/ta014_blocking.py"
        )
        assert locations(found) == [
            ("TA014", 15),  # time.sleep under the lock
            ("TA014", 16),  # sock.sendall under the lock
            ("TA014", 20),  # queue-style .get(timeout=...)
        ]
        assert ".sleep()" in found[0].message
        assert ".sendall()" in found[1].message
        assert ".get(timeout=...)" in found[2].message
        # flush_fast moves the send outside; plain dict .get is silent.

    def test_ta015_per_call_lock(self):
        found = run_rules([LockPerCallRule()], "serve/ta015_perlock.py")
        assert locations(found) == [
            ("TA015", 13),  # Lock() in a method body
            ("TA015", 24),  # Semaphore() in a function body
            ("TA015", 29),  # Condition() in a nested def
        ]
        assert "compute" in found[0].message
        assert "handshake" in found[1].message
        assert "make" in found[2].message
        # Module-scope and __init__ constructions stay silent.


class TestScoping:
    def test_rules_scope_to_concurrent_layers(self):
        rule = GuardedAttributeRule()
        serve = SourceFile.parse(FIXTURES / "serve" / "ta011_guarded.py")
        storage = SourceFile.parse(FIXTURES / "storage" / "ta009_bypass.py")
        assert rule.applies_to(serve)
        assert not rule.applies_to(storage)


class TestRealTreeIsClean:
    """The acceptance criterion: after the fixes in this pass, the
    shipped serving stack satisfies its own lock discipline."""

    RULES = [
        GuardedAttributeRule(),
        LockOrderRule(),
        EscapingGuardedStateRule(),
        BlockingCallUnderLockRule(),
        LockPerCallRule(),
    ]

    def test_concurrent_layers_are_clean(self):
        roots = [
            REPO_ROOT / "src" / "repro" / "serve",
            REPO_ROOT / "src" / "repro" / "cache",
            REPO_ROOT / "src" / "repro" / "metrics",
            REPO_ROOT / "src" / "repro" / "core",
        ]
        files = [SourceFile.parse(path) for path in collect_files(roots)]
        assert LintRunner(self.RULES).run(files) == []

    def test_real_models_match_the_documented_discipline(self):
        # DESIGN.md's concurrency-model table in executable form: the
        # annotations in the shipped classes produce these guards.
        store = SourceFile.parse(
            REPO_ROOT / "src" / "repro" / "cache" / "store.py"
        )
        cache = build_class_models(store)["ShardResultCache"]
        assert cache.locks == {"lock": "RLock"}
        assert cache.guarded["_entries"] == frozenset({"lock"})
        assert cache.guarded["_recent"] == frozenset({"lock"})

        snapshots = SourceFile.parse(
            REPO_ROOT / "src" / "repro" / "serve" / "snapshots.py"
        )
        models = build_class_models(snapshots)
        view = models["SnapshotView"]
        assert view.guarded["scan_count"] == frozenset({"_stats_lock"})
        assert "_materialized" in view.unguarded

        admission = SourceFile.parse(
            REPO_ROOT / "src" / "repro" / "serve" / "admission.py"
        )
        controller = build_class_models(admission)["AdmissionController"]
        for attr in ("_sessions", "_outstanding", "statements_rejected_overload"):
            assert controller.guarded[attr] == frozenset({"_lock"}), attr
