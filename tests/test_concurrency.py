"""Stress: parallel reader threads against a mutating writer on one Database.

Every result must correspond to a *consistent* generation — never a torn
mix of two instance states, whether it came from the result cache or a
fresh evaluation.  The writer swaps the whole content of relation ``R``
atomically (one ``apply_delta`` per swap, all rows tagged with the swap
number) while also hammering an unrelated relation to exercise
cache-hits-under-mutation; readers assert that every answer set they
ever observe is exactly one swap's rows, and that the tag matches the
per-relation generation the result reports.
"""

import threading

from repro.server import QueryService
from repro.session import Database

N_ROWS = 6
N_SWAPS = 120


def _rows(tag: int) -> list[tuple]:
    return [(f"t{tag}", i) for i in range(N_ROWS)]


def test_parallel_readers_with_mutating_writer():
    db = Database({"R": _rows(0), "Noise": [(0,)]})
    q = db.query("R(x, y)", vars=("x", "y"))
    errors: list[str] = []
    done = threading.Event()

    def writer():
        try:
            for tag in range(N_SWAPS):
                db.apply_delta(
                    adds={"R": _rows(tag + 1)}, removes={"R": _rows(tag)}
                )
                # unrelated churn: must never invalidate (or tear) R results
                db.insert("Noise", (tag + 1,))
                db.delete("Noise", (tag,))
        except Exception as err:  # noqa: BLE001 - surfaced via the assert
            errors.append(f"writer: {err!r}")
        finally:
            done.set()

    def reader():
        try:
            while not done.is_set():
                result = q.evaluate()
                tags = {row[0] for row in result.answers}
                if len(result.answers) != N_ROWS or len(tags) != 1:
                    errors.append(f"torn read: {sorted(result.answers)}")
                    return
                # the rows must be exactly the state of the generation the
                # result claims: R's per-relation counter g ↔ tag "t{g}"
                gen = result.stats["generations"]["R"]
                if tags != {f"t{gen}"}:
                    errors.append(f"generation mismatch: tags={tags} gen={gen}")
                    return
        except Exception as err:  # noqa: BLE001 - surfaced via the assert
            errors.append(f"reader: {err!r}")

    readers = [threading.Thread(target=reader) for _ in range(4)]
    w = threading.Thread(target=writer)
    for t in readers:
        t.start()
    w.start()
    w.join(60)
    for t in readers:
        t.join(60)
    assert not errors, errors[:5]
    final = q.evaluate()
    assert {row[0] for row in final.answers} == {f"t{N_SWAPS}"}
    assert db.rel_generation("R") == N_SWAPS
    # both Noise writes were effective every round as well
    assert db.rel_generation("Noise") == 2 * N_SWAPS


def test_concurrent_service_clients_with_mutations():
    """The same invariant through the serving layer (batch gate enabled)."""
    db = Database({"R": _rows(0)})
    service = QueryService(db)
    errors: list[str] = []
    done = threading.Event()
    swaps = 60

    def writer():
        try:
            for tag in range(swaps):
                response = service.handle(
                    {
                        "op": "delta",
                        "adds": {"R": [[f"t{tag + 1}", i] for i in range(N_ROWS)]},
                        "removes": {"R": [[f"t{tag}", i] for i in range(N_ROWS)]},
                    }
                )
                if not response["ok"]:
                    errors.append(f"writer: {response}")
                    return
        finally:
            done.set()

    def client():
        while not done.is_set():
            response = service.handle(
                {"op": "query", "query": "R(x, y)", "vars": ["x", "y"]}
            )
            if not response["ok"]:
                errors.append(f"client: {response}")
                return
            tags = {row[0] for row in response["answers"]}
            if len(response["answers"]) != N_ROWS or len(tags) != 1:
                errors.append(f"torn read: {response['answers']}")
                return

    clients = [threading.Thread(target=client) for _ in range(3)]
    w = threading.Thread(target=writer)
    for t in clients:
        t.start()
    w.start()
    w.join(60)
    for t in clients:
        t.join(60)
    assert not errors, errors[:5]


def test_concurrent_mutators_apply_every_effective_write():
    """Two writers hitting disjoint relations never lose each other's facts."""
    db = Database()
    per_writer = 150

    def writer(name: str):
        for i in range(per_writer):
            assert db.insert(name, (i,)) == 1

    threads = [
        threading.Thread(target=writer, args=(name,)) for name in ("A", "B")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert db.instance.tuples("A") == {(i,) for i in range(per_writer)}
    assert db.instance.tuples("B") == {(i,) for i in range(per_writer)}
    assert db.generation == 2 * per_writer
    assert db.rel_generation("A") == per_writer


def test_readers_of_patched_encodings_during_single_row_writes():
    """Single-row writes patch the encoded relation, its indexes and the
    encoded domain of the *new* instance while readers are still lazily
    filling the caches of the old one.  Every snapshot a reader takes
    must answer, through the columnar engine, exactly what the compiled
    engine answers on a fresh copy of the same rows."""
    import sys

    from repro.core.naive import naive_eval
    from repro.data.instance import Instance
    from repro.session import as_query

    rows = [(i, (i * 7) % 50) for i in range(300)]
    db = Database({"R": rows, "S": [(v,) for v in range(0, 50, 5)]})
    queries = [
        as_query(text, vars=head)
        for text, head in (
            ("exists y (R(x, y) & S(y))", ("x",)),
            ("R(3, y)", ("y",)),
            ("exists y (R(x, y) & R(y, x))", ("x",)),
            ("S(x) & ~ R(x, 0)", ("x",)),
        )
    ]
    for q in queries:
        db.evaluate(q)
    errors: list[str] = []
    done = threading.Event()

    def writer():
        try:
            for i in range(200):
                row = (3, 60 + i % 7) if i % 3 else (60 + i % 5, i % 50)
                if row in db.instance.tuples("R"):
                    db.delete("R", row)
                else:
                    db.insert("R", row)
        except Exception as err:  # noqa: BLE001 - surfaced via the assert
            errors.append(f"writer: {err!r}")
        finally:
            done.set()

    def reader(k: int):
        try:
            while not done.is_set():
                inst = db.instance
                fresh = Instance({n: inst.tuples(n) for n in inst.relations})
                for q in queries[k % 2 :: 2]:
                    got = naive_eval(q, inst, engine="columnar")
                    want = naive_eval(q, fresh, engine="compiled")
                    if got != want:
                        errors.append(f"{q!r}: {sorted(got)} != {sorted(want)}")
                        return
        except Exception as err:  # noqa: BLE001 - surfaced via the assert
            errors.append(f"reader: {err!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[:5]
