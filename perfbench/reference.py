"""Answer and durability checks against in-process references.

Every read response carries the ``generation`` it was evaluated at.
Writes are sent one at a time, so each acknowledged write names the
generation it created, and the state at any generation is the base
instance plus the toggled rows present after the writes up to it.
:class:`Reference` rebuilds that state and evaluates the query itself:

* ``"naive"`` reads (queries Figure 1 routes to naive evaluation) are
  checked against naive evaluation by the ``compiled`` row engine — a
  different executor from the served ``columnar`` one; the benchmark's
  own test pins ``compiled`` to ``naive-interp`` on every template;
* ``"oracle"`` reads are checked against the forced ``enumeration``
  oracle.

References are memoised per query text and distinct state: toggled
writes revisit the same few states, so a run evaluates each pair once.
"""

from __future__ import annotations

import json

from repro.data.jsonio import decode_row, encode_row, instance_from_json
from repro.session import Database

MODES = {"naive": "compiled", "oracle": "enumeration"}


class StateLog:
    """Generation → set of toggled rows present, from the write acks."""

    def __init__(self, generation: int):
        self.base_generation = generation
        self._states: list[frozenset] = [frozenset()]
        self.errors: list[str] = []

    def record(self, action: str, row: tuple, ack: dict) -> None:
        """Fold in one acknowledged write (writes arrive in send order)."""
        expected = self.base_generation + len(self._states)
        current = self._states[-1]
        if ack.get("changed") != 1 or ack.get("generation") != expected:
            self.errors.append(
                f"{action} {row}: ack {ack.get('changed')} change(s) at generation "
                f"{ack.get('generation')}, expected 1 at {expected}"
            )
        self._states.append(current | {row} if action == "insert" else current - {row})

    def at(self, generation: int) -> frozenset | None:
        index = generation - self.base_generation
        if 0 <= index < len(self._states):
            return self._states[index]
        return None

    @property
    def final(self) -> frozenset:
        return self._states[-1]

    @property
    def generation(self) -> int:
        return self.base_generation + len(self._states) - 1


class Reference:
    """Reference answers for one workload, memoised per (text, state)."""

    def __init__(self, workload):
        self._workload = workload
        self._base = instance_from_json(json.dumps(workload.instance))
        self._dbs: dict[frozenset, Database] = {}
        self._answers: dict[tuple, tuple[frozenset, bool]] = {}

    def _db(self, toggled: frozenset) -> Database:
        db = self._dbs.get(toggled)
        if db is None:
            rel = self._workload.toggle_relation
            rows = [decode_row(rel, list(row)) for row in toggled]
            state, _ = self._base.with_delta(adds={rel: rows} if rows else None)
            db = Database(state, semantics=self._workload.spec.semantics)
            self._dbs[toggled] = db
        return db

    def answers(self, text: str, check: str, toggled: frozenset) -> tuple[frozenset, bool]:
        key = (text, check, toggled)
        found = self._answers.get(key)
        if found is None:
            result = self._db(toggled).query(text).evaluate(MODES[check])
            rows = frozenset(
                tuple(encode_row("ref", row)) for row in result.answers
            )
            found = self._answers[key] = (rows, result.holds)
        return found

    def expected_instance(self, toggled: frozenset) -> dict[str, frozenset]:
        """The full expected instance as JSON-cell row sets."""
        rels = {name: frozenset(map(tuple, rows)) for name, rows in self._workload.instance.items()}
        rel = self._workload.toggle_relation
        rels[rel] = rels.get(rel, frozenset()) | toggled
        return rels


def check_reads(records, log: StateLog, reference: Reference) -> list[str]:
    """Compare every read response with its reference; returns mismatches."""
    problems = []
    for rec in records:
        op, resp = rec.op, rec.response
        if op.kind != "read" or resp is None:
            continue
        generation = resp.get("generation")
        toggled = log.at(generation) if isinstance(generation, int) else None
        if toggled is None:
            problems.append(f"op {op.index}: response generation {generation!r} is unknown")
            rec.mismatch = True
            continue
        if not op.reads_toggled:
            toggled = frozenset()
        want, holds = reference.answers(op.payload["query"], op.check, toggled)
        got = frozenset(tuple(row) for row in resp.get("answers", ()))
        if got != want or resp.get("holds") != holds:
            rec.mismatch = True
            problems.append(
                f"op {op.index} {op.payload['query']!r} at generation {generation}: "
                f"{len(got)} answers (holds={resp.get('holds')}), "
                f"reference {len(want)} (holds={holds})"
            )
    return problems


def check_dump(dump: dict, expected: dict[str, frozenset]) -> list[str]:
    """Compare a ``dump`` of the recovered server with the expected state."""
    got = {name: frozenset(map(tuple, rows)) for name, rows in dump.items() if rows}
    want = {name: rows for name, rows in expected.items() if rows}
    problems = []
    for name in sorted(set(got) | set(want)):
        missing = want.get(name, frozenset()) - got.get(name, frozenset())
        extra = got.get(name, frozenset()) - want.get(name, frozenset())
        if missing:
            problems.append(f"recovered {name} lacks {len(missing)} acknowledged row(s)")
        if extra:
            problems.append(f"recovered {name} has {len(extra)} unacknowledged row(s)")
    return problems
