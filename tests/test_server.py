"""The JSON-lines serving layer: QueryService ops, the batch gate, the
TCP server, and the persistent oracle worker pool."""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.client import AsyncClient, Client, ServerError
from repro.data.values import Null
from repro.server import MAX_LINE_BYTES, QueryService, async_serve, serve
from repro.session import Database, PreparedQuery

X = Null("x")

JOIN = "exists z (R(x, z) & S(z, y))"


@pytest.fixture
def service():
    db = Database({"R": [(1, X)], "S": [(X, 4)]}, semantics="cwa")
    return QueryService(db)


class TestQueryServiceOps:
    def test_ping(self, service):
        assert service.handle({"op": "ping", "id": 7}) == {
            "ok": True, "pong": True, "id": 7,
            "proto": 2, "features": ["pipelining", "deadline_ms"],
        }

    def test_query_round_trip(self, service):
        response = service.handle(
            {"op": "query", "query": JOIN, "vars": ["x", "y"]}
        )
        assert response["ok"] and response["answers"] == [[1, 4]]
        assert response["exact"] and response["method"] == "columnar"

    def test_null_cells_encoded_on_the_wire(self, service):
        service.handle(
            {"op": "insert", "relation": "R", "rows": [["?y", "??lit"]]}
        )
        dump = service.handle({"op": "dump"})["instance"]
        assert ["?y", "??lit"] in dump["R"]
        assert service.db.instance.tuples("R") >= {(Null("y"), "?lit")}

    def test_insert_delete_delta(self, service):
        assert service.handle(
            {"op": "insert", "relation": "T", "rows": [[1], [2]]}
        )["changed"] == 2
        assert service.handle(
            {"op": "delete", "relation": "T", "rows": [[2], [9]]}
        )["changed"] == 1
        response = service.handle(
            {"op": "delta", "adds": {"T": [[5]]}, "removes": {"T": [[1]]}}
        )
        assert response["ok"] and response["changed"] == 2
        assert service.db.instance.tuples("T") == {(5,)}

    def test_mutation_preserves_unrelated_cache(self, service):
        service.handle({"op": "query", "query": JOIN, "vars": ["x", "y"]})
        service.handle({"op": "insert", "relation": "T", "rows": [[1]]})
        again = service.handle({"op": "query", "query": JOIN, "vars": ["x", "y"]})
        assert again["cache"] == "hit"

    def test_semantics_override(self, service):
        response = service.handle(
            {"op": "query", "query": "forall u . exists v . R(u, v)",
             "semantics": "owa"}
        )
        assert response["ok"] and response["method"] == "enumeration"

    def test_explain(self, service):
        response = service.handle({"op": "explain", "query": JOIN})
        assert response["ok"] and response["plan"]["backend"] == "columnar"

    def test_batch_op(self, service):
        response = service.handle(
            {"op": "batch", "queries": [
                {"query": JOIN, "vars": ["x", "y"]},
                {"query": "exists u, v (S(u, v))"},
            ]}
        )
        assert response["ok"] and len(response["results"]) == 2
        assert response["results"][0]["answers"] == [[1, 4]]
        assert all(r["batched"] for r in response["results"])

    def test_stats(self, service):
        service.handle({"op": "query", "query": JOIN})
        service.handle({"op": "insert", "relation": "T", "rows": [[1]]})
        stats = service.handle({"op": "stats"})
        assert stats["requests"]["queries"] == 1
        assert stats["requests"]["mutations"] == 1
        assert stats["semantics"] == "cwa"
        assert stats["generation"] == 1

    @pytest.mark.parametrize(
        "request_",
        [
            {"op": "nope"},
            {},
            {"op": "query"},
            {"op": "query", "query": "exists z ("},
            {"op": "query", "query": "R(x)", "semantics": "bogus"},
            {"op": "insert", "relation": "R"},
            {"op": "insert", "rows": [[1]]},
            {"op": "delta", "adds": [["R", 1]]},
            {"op": "query", "query": "R(x, y)", "vars": "xy"},
        ],
    )
    def test_bad_requests_become_error_responses(self, service, request_):
        response = service.handle(request_)
        assert response["ok"] is False and response["error"]

    def test_bad_json_line(self, service):
        response = json.loads(service.handle_line("{nope"))
        assert response["ok"] is False and "bad JSON" in response["error"]

    def test_error_counter(self, service):
        service.handle({"op": "nope"})
        assert service.handle({"op": "stats"})["requests"]["errors"] == 1

    def test_queries_evaluate_one_at_a_time_while_writes_overlap(self, monkeypatch):
        service = QueryService(Database({"R": [(1, 2)]}))
        real = PreparedQuery.evaluate
        guard = threading.Lock()
        active, peak = [0], [0]
        entered, release = threading.Event(), threading.Event()

        def parked(prepared, mode="auto"):
            with guard:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            entered.set()
            try:
                assert release.wait(5)
                return real(prepared, mode)
            finally:
                with guard:
                    active[0] -= 1

        monkeypatch.setattr(PreparedQuery, "evaluate", parked)
        responses = []

        def query(i):
            responses.append(service.handle({"op": "query", "query": f"exists x (R(x, {i}))"}))

        threads = [threading.Thread(target=query, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        assert entered.wait(5)
        # a write is not held behind the parked evaluation
        assert service.handle({"op": "insert", "relation": "S", "rows": [[1]]})["changed"] == 1
        time.sleep(0.1)  # the other queries had time to enter, were they free to
        release.set()
        for thread in threads:
            thread.join(5)
            assert not thread.is_alive()
        assert peak[0] == 1
        assert len(responses) == 4 and all(r["ok"] for r in responses)

    def test_expansion_limit_is_a_typed_too_expensive_frame(self):
        # the ctable backend enumerates worlds; past the session's limit
        # the refusal must be typed, not an untyped error string
        db = Database({"D": [(X, Null("y")), (Null("y"), X)]}, semantics="cwa", limit=3)
        service = QueryService(db)
        response = service.handle(
            {"id": 4, "op": "query", "query": "exists v . D(v, v)", "mode": "ctable"}
        )
        assert response["ok"] is False and response["id"] == 4
        assert response["error_type"] == "too_expensive"
        assert "ctable" in response["error"] and "limit 3" in response["error"]
        assert service.handle({"op": "stats"})["requests"]["errors"] == 1


class TestBatchGate:
    def test_single_request_is_batch_of_one(self, service):
        response = service.handle({"op": "query", "query": JOIN})
        assert response["ok"] and response["batched"] is False


class TestTCPServer:
    def _rpc(self, sock_file_pair, obj):
        reader, writer = sock_file_pair
        writer.write(json.dumps(obj) + "\n")
        writer.flush()
        return json.loads(reader.readline())

    def test_end_to_end_over_sockets(self):
        db = Database({"R": [(1, X)], "S": [(X, 4)]}, semantics="cwa")
        with serve(db) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                files = (sock.makefile("r"), sock.makefile("w"))
                assert self._rpc(files, {"op": "ping"})["pong"]
                got = self._rpc(
                    files, {"op": "query", "query": JOIN, "vars": ["x", "y"]}
                )
                assert got["answers"] == [[1, 4]]
                assert self._rpc(
                    files, {"op": "insert", "relation": "T", "rows": [[1]]}
                )["changed"] == 1
                assert self._rpc(
                    files, {"op": "query", "query": JOIN, "vars": ["x", "y"]}
                )["cache"] == "hit"
        db.close()

    def test_many_concurrent_clients(self):
        db = Database({"R": [(i, i + 1) for i in range(6)]})
        with serve(db, executor_threads=4) as server:
            errors = []

            def client(i):
                try:
                    with socket.create_connection(server.address, timeout=5) as sock:
                        files = (sock.makefile("r"), sock.makefile("w"))
                        for k in range(5):
                            got = self._rpc(
                                files,
                                {"op": "query", "query": f"exists x (R(x, {i}))"},
                            )
                            assert got["ok"], got
                except Exception as err:  # noqa: BLE001 - collected for the assert
                    errors.append(err)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            assert not errors
            stats = db.cache_stats
            assert stats["hits"] >= 8 * 5 - 8  # every repeat is a hit
        db.close()

    def test_entering_a_started_server_does_not_start_it_again(self):
        # serve() returns a started server and `with` enters it again:
        # that must neither spawn a second loop nor bind a second listener
        def loops():
            return {t for t in threading.enumerate() if t.name == "repro-async-loop"}

        before = loops()
        server = async_serve(Database({"R": [(1, 2)]}))
        address = server.address
        with server as entered:
            assert entered is server and entered.address == address
            assert len(loops() - before) == 1
            with Client(address) as client:
                assert client.ping()["pong"]
        assert not loops() - before
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=2).close()

    def test_blank_lines_ignored_and_id_echoed(self):
        db = Database({"R": [(1, 2)]})
        with serve(db) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                reader, writer = sock.makefile("r"), sock.makefile("w")
                writer.write("\n\n")
                writer.write(json.dumps({"op": "ping", "id": "abc"}) + "\n")
                writer.flush()
                assert json.loads(reader.readline())["id"] == "abc"
        db.close()


class TestLineLimit:
    """The asyncio core reads lines up to ``MAX_LINE_BYTES``; beyond it a
    request line gets one typed ``too_large`` frame, then the close."""

    def test_over_long_request_line_gets_a_typed_frame_then_close(self):
        server = async_serve(Database({"R": [(1, 2)]}))
        try:
            huge = [["x" * MAX_LINE_BYTES]]
            line = json.dumps({"op": "insert", "relation": "R", "rows": huge}) + "\n"
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(line.encode())
                reader = sock.makefile("rb")
                frame = json.loads(reader.readline())
                assert frame["error_type"] == "too_large" and not frame["ok"]
                assert frame["max_line_bytes"] == MAX_LINE_BYTES
                assert reader.readline() == b""  # then the server closes
            with Client(server.address) as client:
                # the server survived, and the refused write never applied
                assert client.query("R(x, y)")["answers"] == [[1, 2]]
                with pytest.raises(ServerError) as err:
                    client.insert("R", huge)
                assert err.value.error_type == "too_large"
        finally:
            server.shutdown()

    def test_clients_refuse_an_oversized_line_before_sending_it(self):
        server = async_serve(Database({"R": [(1, 2)]}))
        huge = [["x" * MAX_LINE_BYTES]]

        def served(stats):
            return stats["requests"]["requests"]

        async def via_async_client():
            async with AsyncClient(server.address) as client:
                before = served(await client.stats())
                with pytest.raises(ServerError) as err:
                    await client.insert("R", huge)
                # the second stats call is the only request the server saw
                assert served(await client.stats()) == before + 1
                return err.value

        try:
            error = asyncio.run(via_async_client())
            assert error.error_type == "too_large"
            assert error.fields["max_line_bytes"] == MAX_LINE_BYTES
            with Client(server.address) as client:
                before = served(client.stats())
                with pytest.raises(ServerError) as err:
                    client.insert("R", huge)
                assert err.value.error_type == "too_large"
                assert served(client.stats()) == before + 1
                assert client.query("R(x, y)")["answers"] == [[1, 2]]
        finally:
            server.shutdown()


class TestPersistentWorkerPool:
    def test_parallel_results_match_serial_through_pool(self):
        import random

        from repro.core import certain_answers
        from repro.core.parallel import OracleWorkerPool
        from repro.data.generate import random_instance
        from repro.data.schema import Schema
        from repro.logic.parser import parse
        from repro.logic.queries import Query
        from repro.semantics import get_semantics

        rng = random.Random(1084)
        instance = random_instance(
            Schema({"R": 2, "S": 1}), rng, n_facts=10, constants=(1, 2, 3, 4),
            n_nulls=5, null_probability=0.7,
        )
        query = Query(parse("exists z (R(x, z) & R(z, y))"), ("x", "y"))
        sem = get_semantics("cwa")
        want = certain_answers(query, instance, sem)
        with OracleWorkerPool(2) as pool:
            for _ in range(2):  # two requests share the same processes
                stats: dict = {}
                got = certain_answers(
                    query, instance, sem, workers=2, stats_out=stats,
                    worker_pool=pool,
                )
                assert got == want
                if stats.get("mode") == "parallel":
                    assert stats["persistent_pool"] is True

    def test_closed_pool_degrades_to_serial(self):
        from repro.core import certain_answers
        from repro.core.parallel import OracleWorkerPool
        from repro.data.instance import Instance
        from repro.logic.parser import parse
        from repro.logic.queries import Query
        from repro.semantics import get_semantics

        nulls = [Null(f"n{i}") for i in range(5)]
        inst = Instance({"R": list(zip(nulls, nulls[1:])) + [(1, 2)]})
        query = Query.boolean(parse("exists u, v (R(u, v))"))
        pool = OracleWorkerPool(2)
        pool.close()  # reconfigured under a hypothetical in-flight run
        stats: dict = {}
        got = certain_answers(
            query, inst, get_semantics("cwa"), workers=2,
            stats_out=stats, worker_pool=pool, limit=5_000_000,
        )
        assert got == frozenset([()])
        assert stats["mode"] == "serial-fallback" and stats["workers"] == 0

    def test_database_reuses_one_pool_across_requests(self):
        db = Database({"R": [(1, X)]}, semantics="cwa", workers=2)
        try:
            pool = db.ensure_worker_pool()
            assert db.ensure_worker_pool() is pool
        finally:
            db.close()
        assert db.ensure_worker_pool() is not pool  # recreated after close
        db.close()

    def test_workers_change_recreates_pool(self):
        db = Database({"R": [(1, X)]}, semantics="cwa", workers=2)
        pool = db.ensure_worker_pool()
        db.workers = 3
        new = db.ensure_worker_pool()
        assert new is not pool and new.processes == 3
        db.close()
