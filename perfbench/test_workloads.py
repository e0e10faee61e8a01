"""Checks of the benchmark's own inputs and references.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import BUILDERS, build  # noqa: E402


def _fingerprint(name: str, seed: int, n: int = 400):
    workload = build(name, seed)
    ops = [(op.kind, op.template, json.dumps(op.payload)) for op in workload.stream.take(n)]
    return json.dumps(workload.instance, sort_keys=True), ops


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_same_seed_same_inputs(name):
    assert _fingerprint(name, 7) == _fingerprint(name, 7)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_other_seed_other_inputs(name):
    inst_a, ops_a = _fingerprint(name, 7)
    inst_b, ops_b = _fingerprint(name, 8)
    assert inst_a != inst_b
    assert ops_a != ops_b


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_writes_toggle_rows_absent_from_the_base(name):
    workload = build(name, 3)
    base = {tuple(row) for row in workload.instance.get(workload.toggle_relation, [])}
    present: set[tuple] = set()
    for op in workload.stream.take(600):
        if op.kind != "write":
            continue
        action, relation, row = op.write
        assert relation == workload.toggle_relation and row not in base
        # insert only what is absent, delete only what is present: every
        # write changes exactly one row, so the state stays stationary
        assert (row in present) == (action == "delete")
        present ^= {row}
    assert len(present) <= 1


def _cycles(name: str, seed: int, n: int = 3) -> list[list[str]]:
    stream = build(name, seed).stream
    ops = stream.take(stream.cycle * n)
    return [[op.kind if op.kind == "write" else op.template for op in ops[k:k + stream.cycle]]
            for k in range(0, len(ops), stream.cycle)]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_cycle_makes_the_same_requests(name):
    """One order of request kinds repeats, whatever the seed."""
    cycles = _cycles(name, 4)
    assert cycles[0] == cycles[1] == cycles[2] == _cycles(name, 5)[0]
    assert len(set(cycles[0])) > 2


def test_write_requery_alternates_writes_and_reads():
    kinds = [op.kind for op in build("write_requery", 1).stream.take(100)]
    assert kinds == ["write", "read"] * 50


def _near_instance(workload, texts, toggles, rounds: int = 3, cap: int = 40):
    """The rows of ``workload``'s instance near what its requests name.

    Starts from the constants in ``texts`` and in the toggled rows, and
    in each round adds the rows holding a value already reached (the
    rows a query's next join step reads), up to ``cap`` rows per relation.
    """
    values = {int(c) for text in texts for c in re.findall(r"\b\d+\b", text)}
    values |= {v for row in toggles for v in row}
    small: dict[str, list] = {rel: [] for rel in workload.instance}
    for _ in range(rounds):
        for rel, rows in workload.instance.items():
            have = small[rel]
            for row in rows:
                if len(have) >= cap:
                    break
                if row not in have and values.intersection(row):
                    have.append(row)
        values |= {v for rows in small.values() for row in rows for v in row}
    return small


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_compiled_reference_matches_naive_interp(name):
    """The naive reference engine agrees with the paper's interpreter.

    Checked on every naive-checked read template of the workload, with
    and without its toggled rows, over the rows near the constants the
    requests name (the interpreter enumerates the active domain, so the
    full instances are out of its reach).  Some answers must be
    non-empty, and where reads see the writes some must change with
    them, so the comparison cannot pass on empty answers alone.
    """
    from repro.data.jsonio import instance_from_json
    from repro.session import Database

    workload = build(name, 5)
    ops = workload.stream.take(200)
    texts = set(workload.setup_queries)
    texts.update(op.payload["query"] for op in ops[:30] if op.kind == "read")
    toggles = {op.write[2] for op in ops if op.kind == "write"}
    base = _near_instance(workload, texts, toggles)
    with_toggles = dict(base)
    with_toggles[workload.toggle_relation] = (
        base.get(workload.toggle_relation, []) + [list(row) for row in sorted(toggles, key=repr)])
    naive_texts = sorted(set(workload.setup_queries).union(
        op.payload["query"] for op in ops[:30] if op.kind == "read" and op.check == "naive"))
    results = {}
    for state, instance in (("base", base), ("toggled", with_toggles)):
        db = Database(instance_from_json(json.dumps(instance)), semantics=workload.spec.semantics)
        for text in naive_texts:
            query = db.query(text)
            if not query.verdict.sound:
                continue
            got = query.evaluate("compiled")
            want = query.evaluate("naive-interp")
            assert (got.answers, got.holds) == (want.answers, want.holds), (state, text)
            results[state, text] = (frozenset(got.answers), got.holds)
    assert any(answers or holds for answers, holds in results.values())
    if any(op.reads_toggled for op in ops):
        assert any(results["base", text] != results["toggled", text]
                   for state, text in results if state == "base")
