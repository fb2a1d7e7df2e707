"""Correctness oracle: expected rows by serial replay in the bench process.

Served replies are digested as they arrive (:func:`digest`).  After
the window the oracle recomputes the expected rows of (statement,
pinned version) pairs from the bench's own copy of the relation -- the
rows it generated, not the CSV the program parsed -- with the
acknowledged append batches replayed up to the pinned version, and
``Database.execute`` run with default options, as
``repro.serve.swarm.serial_reference`` does.  Pairs are visited in
version order so one relation copy serves every pair (the swarm's
oracle rebuilds the relation per query, too slow for a timed run).

Engine rounds are compared with the first round.  At small sizes
(:data:`REFERENCE_MAX_TUPLES`) expected rows are also cross-checked
against the O(n·m) ``ReferenceEvaluator``.
"""

from __future__ import annotations

import hashlib
import marshal
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Largest relation the O(n·m) reference evaluator is run on, and the
#: recomputed pairs per window it checks (it takes ~0.2 s each at 1K).
REFERENCE_MAX_TUPLES = 1024
REFERENCE_PAIRS = 5


def digest(rows: Sequence[tuple]) -> str:
    """A digest of result rows (a list of tuples) that depends only on
    their values.  Marshal format 2 writes no back-references, so equal
    rows built differently (decoded JSON, engine output) digest alike;
    it is a tenth of the cost of ``repr``, which matters because a
    client digests between its requests."""
    return hashlib.blake2b(marshal.dumps(rows, 2), digest_size=16).hexdigest()


@dataclass(frozen=True)
class Query:
    """One statement shape the workloads send.

    ``calls`` are ``(function, attribute)`` pairs; a ``window`` adds
    ``WHERE VALID OVERLAPS [lo, hi] AND salary > min_salary HAVING
    COUNT(name) > 1``.
    """

    calls: Tuple[Tuple[str, str], ...]
    window: Optional[Tuple[int, int]] = None
    min_salary: int = 0

    @property
    def text(self) -> str:
        items = ", ".join(f"{f.upper()}({a})" for f, a in self.calls)
        text = f"SELECT {items} FROM employed"
        if self.window is not None:
            lo, hi = self.window
            text += (
                f" WHERE VALID OVERLAPS [{lo}, {hi}] AND salary > {self.min_salary}"
                " HAVING COUNT(name) > 1"
            )
        return text


@dataclass
class Verdict:
    """What the oracle checked and what it found."""

    pairs: int = 0  # (statement, version) pairs recomputed
    verified: int = 0  # replies compared against a recomputed pair
    reference_pairs: int = 0  # pairs also checked against the reference
    mismatches: List[str] = field(default_factory=list)


def reference_rows(relation, query: Query) -> List[tuple]:
    """``query``'s rows from ``ReferenceEvaluator``, independent of tsql2."""
    from repro.core.reference import ReferenceEvaluator

    rows = list(relation)
    salary = relation.schema.position_of("salary")
    if query.window is not None:
        lo, hi = query.window
        rows = [
            r for r in rows
            if r.start <= hi and lo <= r.end and r.values[salary] > query.min_salary
        ]
    columns = []
    for function, attribute in query.calls:
        position = relation.schema.position_of(attribute)
        triples = [(r.start, r.end, r.values[position]) for r in rows]
        columns.append(list(ReferenceEvaluator(function).evaluate(triples)))
    table = []
    for cells in zip(*columns):
        values = tuple(cell.value for cell in cells)
        if query.window is not None and not values[0] > 1:
            continue
        table.append((cells[0].start, cells[0].end) + values)
    return table


def verify_served(
    relation,
    queries: Dict[str, Query],
    ops,
    batches: Sequence[List[list]],
    sample: Optional[int],
    seed: int,
    reference: bool,
) -> Verdict:
    """Check served replies against serial replay.

    ``relation`` is the bench's copy of the initial rows (it is
    appended to); ``batches`` are the append batches by index.  With
    ``sample`` set, a seeded sample of that many distinct (statement,
    version) pairs is recomputed; otherwise every pair is.  With
    ``reference``, small relations also check the first pairs against
    the reference evaluator.
    """
    from repro.tsql2.executor import Database

    verdict = Verdict()
    reads = [op for op in ops if op.kind == "read" and op.ok]
    acked = sorted(
        (op.version, int(op.text)) for op in ops if op.kind == "append" and op.ok
    )
    pairs = sorted({(op.version, op.text, op.row_count) for op in reads})
    if sample is not None and len(pairs) > sample:
        pairs = sorted(random.Random(seed).sample(pairs, sample))
    reference = reference and len(relation) <= REFERENCE_MAX_TUPLES
    expected: Dict[Tuple[str, int], str] = {}
    applied = 0
    for version, text, row_count in pairs:
        while applied < len(acked) and acked[applied][0] <= version:
            batch = batches[acked[applied][1]]
            relation.append_batch([(row[:-2], row[-2], row[-1]) for row in batch])
            applied += 1
        if len(relation) != row_count:
            verdict.mismatches.append(
                f"pin v{version} holds {row_count} rows; replay holds {len(relation)}"
            )
            continue
        database = Database()
        database.register(relation, name="employed")
        rows = [tuple(row) for row in database.execute(text).rows]
        expected[(text, version)] = digest(rows)
        verdict.pairs += 1
        if reference and verdict.reference_pairs < REFERENCE_PAIRS:
            verdict.reference_pairs += 1
            if reference_rows(relation, queries[text]) != rows:
                verdict.mismatches.append(
                    f"{text!r} at v{version}: Database.execute disagrees with "
                    "ReferenceEvaluator"
                )
    for op in reads:
        want = expected.get((op.text, op.version))
        if want is None:
            continue
        verdict.verified += 1
        if op.digest != want:
            op.ok = False
            op.error = "OracleMismatch"
            verdict.mismatches.append(
                f"{op.text!r} at v{op.version} (session {op.session}) "
                "differs from serial replay"
            )
    return verdict


def verify_rounds(
    rounds: List[dict], relation, calls: Sequence[Tuple[str, str]]
) -> Verdict:
    """Every engine round must repeat the first round's rows; given the
    ``relation`` (a small one), the first round must also match the
    reference evaluator."""
    verdict = Verdict()
    first = {call["aggregate"]: call["digest"] for call in rounds[0]["calls"]}
    verdict.pairs = len(first)
    if relation is not None:
        for function, attribute in calls:
            verdict.reference_pairs += 1
            want = digest(reference_rows(relation, Query(((function, attribute),))))
            if first.get(function) != want:
                verdict.mismatches.append(
                    f"{function.upper()}({attribute}) differs from ReferenceEvaluator"
                )
    for entry in rounds[1:]:
        for call in entry["calls"]:
            verdict.verified += 1
            if call["digest"] != first.get(call["aggregate"]):
                call["ok"] = False
                verdict.mismatches.append(
                    f"round {entry['round']} {call['aggregate']} differs from round 1"
                )
    return verdict
