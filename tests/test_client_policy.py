"""The client's request policy, tested without sockets.

Both wire clients are thin drivers over one sans-IO state machine
(``_ClientBase._policy``): it yields ``Send``/``Sleep`` steps and is
told what each send came to — ``Answered``, ``NotSent`` (no byte left)
or ``Lost`` (anything after the first byte went out).  Here scripted
and random outcome sequences are fed to it on a fake clock, and its
decisions are checked against the table in ``docs/fault-tolerance.md``.
The random sweep honours the ``REPRO_FUZZ``/``REPRO_FUZZ_SEED`` knobs of
``tests/diffutil.py``.

The socket-level regressions at the bottom pin what the drivers do
with real connections: a reset after an insert left is ``Lost`` (never
re-sent), and lines over 64 KiB travel both ways.
"""

import asyncio
import json
import socket
import struct
import threading

import pytest
from diffutil import fuzz_rng, fuzz_trials

from repro.client import (
    FAILOVER_OPS,
    IDEMPOTENT_OPS,
    Answered,
    AsyncClient,
    Client,
    DeadlineExceeded,
    DegradedServerError,
    IndeterminateWriteError,
    Lost,
    NotSent,
    OverloadedServerError,
    ReadOnlyServerError,
    Send,
    ServerError,
    Sleep,
    StaleReadError,
    TransportError,
)
from repro.server import async_serve
from repro.session import Database

A, B, C = ("a", 1), ("b", 2), ("c", 3)

INSERT = {"op": "insert", "relation": "R", "rows": [[1, 2]]}
QUERY = {"op": "query", "query": "R(x, y)"}


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class Run:
    """One request driven through the policy against scripted outcomes.

    Each ``Send`` costs ``send_cost`` seconds of fake time and takes the
    next scripted outcome; each ``Sleep`` advances the clock by its
    length.  ``result`` or ``error`` holds how the policy ended.
    """

    def __init__(self, client, payload, outcomes, *, endpoint=None, send_cost=0.01):
        self.clock = FakeClock()
        self.start = self.clock.now
        self.steps = []
        self.sent_at = []  # fake-clock time of each Send
        self.result = self.error = None
        script = list(outcomes)
        policy = client._policy(payload, endpoint, clock=self.clock)
        reply = None
        while True:
            try:
                step = policy.send(reply)
            except StopIteration as done:
                self.result = done.value
                return
            except Exception as err:  # noqa: BLE001 - recorded for the checks
                self.error = err
                return
            self.steps.append(step)
            if isinstance(step, Sleep):
                self.clock.now += step.seconds
                reply = None
            else:
                assert script, "the policy sent more often than scripted"
                self.sent_at.append(self.clock.now)
                self.clock.now += send_cost
                reply = script.pop(0)

    @property
    def sends(self):
        return [s for s in self.steps if isinstance(s, Send)]

    @property
    def sleeps(self):
        return [s.seconds for s in self.steps if isinstance(s, Sleep)]

    def raised(self, kind):
        assert isinstance(self.error, kind), f"expected {kind.__name__}, got {self.error!r}"
        return self.error


def client(*replicas, **options):
    options.setdefault("jitter", lambda: 1.0)
    return Client("a:1", replicas=replicas, **options)


def ok(**fields):
    return Answered({"ok": True, **fields})


def frame(kind, **fields):
    return Answered({"ok": False, "error": f"{kind}: scripted", "error_type": kind, **fields})


class TestHonestWrites:
    def test_lost_mutation_is_never_resent(self):
        run = Run(client(retries=5), INSERT, [Lost("reset")])
        run.raised(IndeterminateWriteError)
        assert len(run.sends) == 1

    def test_not_sent_then_lost_sends_twice_then_raises(self):
        run = Run(client(retries=5), INSERT, [NotSent("refused"), Lost("eof")])
        run.raised(IndeterminateWriteError)
        assert len(run.sends) == 2

    @pytest.mark.parametrize("payload", [INSERT, QUERY], ids=["write", "read"])
    @pytest.mark.parametrize("retries", [0, 1, 3])
    def test_not_sent_retries_at_most_retries_plus_one(self, payload, retries):
        run = Run(client(retries=retries), payload, [NotSent("refused")] * 10)
        run.raised(TransportError)
        assert not isinstance(run.error, DeadlineExceeded)
        assert len(run.sends) == retries + 1

    @pytest.mark.parametrize("payload", [INSERT, QUERY], ids=["write", "read"])
    def test_overloaded_is_retried_until_it_lands(self, payload):
        script = [frame("overloaded"), NotSent("refused"), frame("overloaded"), ok(generation=3)]
        run = Run(client(retries=3), payload, script)
        assert run.result["ok"] and len(run.sends) == 4

    def test_overloaded_budget_exhausted_surfaces_the_typed_frame(self):
        run = Run(client(retries=2), INSERT, [frame("overloaded", max_inflight=1)] * 5)
        assert run.raised(OverloadedServerError).fields["max_inflight"] == 1
        assert len(run.sends) == 3

    def test_write_ack_raises_the_read_floor(self):
        c = client()
        assert Run(c, INSERT, [ok(generation=7)]).result["generation"] == 7
        assert c.last_write_generation == 7
        Run(c, INSERT, [ok(generation=5)])  # an older ack never lowers it
        Run(c, QUERY, [ok(generation=40)])  # a read's generation is not a write
        assert c.last_write_generation == 7

    @pytest.mark.parametrize("kind", ["degraded", "stale", None])
    def test_other_frames_raise_on_the_first_send(self, kind):
        run = Run(client(B, retries=5), INSERT, [frame(kind)])
        error = run.raised(ServerError)
        assert error.error_type == kind and len(run.sends) == 1
        if kind == "degraded":
            assert isinstance(error, DegradedServerError)


class TestRotation:
    def test_reads_rotate_on_lost(self):
        c = client("b:2", "c:3")
        run = Run(c, QUERY, [Lost("reset"), Lost("eof"), ok()])
        assert [s.endpoint for s in run.sends] == [A, B, C]
        assert run.result["ok"]

    def test_rotation_carries_over_to_the_next_read(self):
        c = client("b:2")
        Run(c, QUERY, [Lost("reset"), ok()])
        assert Run(c, QUERY, [ok()]).sends[0].endpoint == B

    def test_pinned_reads_and_admin_ops_do_not_rotate(self):
        c = client("b:2")
        run = Run(c, QUERY, [Lost("reset"), ok()], endpoint="b:2")
        assert [s.endpoint for s in run.sends] == [B, B]
        run = Run(c, {"op": "stats"}, [Lost("reset"), ok()])
        assert [s.endpoint for s in run.sends] == [A, A]

    def test_mutations_stay_on_the_primary(self):
        c = client("b:2")
        run = Run(c, INSERT, [NotSent("refused"), frame("overloaded"), ok()])
        assert [s.endpoint for s in run.sends] == [A, A, A]

    def test_stale_rotates_when_there_is_another_endpoint(self):
        run = Run(client("b:2"), QUERY, [frame("stale"), ok()])
        assert [s.endpoint for s in run.sends] == [A, B]
        assert run.result["ok"]

    def test_stale_raises_with_a_single_endpoint(self):
        run = Run(client(retries=5), QUERY, [frame("stale")])
        run.raised(StaleReadError)
        assert len(run.sends) == 1

    def test_stale_raises_when_pinned(self):
        run = Run(client("b:2", retries=5), QUERY, [frame("stale")], endpoint="a:1")
        run.raised(StaleReadError)


class TestRedirect:
    def test_read_only_redirects_an_unpinned_write_once(self):
        c = client("b:2")
        run = Run(c, INSERT, [frame("read_only", primary="c:3"), ok(generation=2)])
        assert [s.endpoint for s in run.sends] == [A, C]
        assert not run.sleeps  # a refusal is not a failure: no backoff
        assert c.primary_address == "c:3" and c.endpoints[0] == "c:3"

    def test_second_read_only_is_raised(self):
        script = [frame("read_only", primary="c:3"), frame("read_only", primary="a:1")]
        run = Run(client(), INSERT, script)
        assert run.raised(ReadOnlyServerError).primary == "a:1"
        assert len(run.sends) == 2

    def test_pinned_write_is_not_redirected(self):
        run = Run(client(), INSERT, [frame("read_only", primary="c:3")], endpoint="a:1")
        run.raised(ReadOnlyServerError)

    def test_read_only_without_a_primary_is_raised(self):
        run = Run(client(), INSERT, [frame("read_only")])
        run.raised(ReadOnlyServerError)


class TestDeadlines:
    def test_deadline_frame_retries_a_read(self):
        run = Run(client("b:2"), QUERY, [frame("deadline", deadline_ms=5), ok()])
        assert run.result["ok"] and [s.endpoint for s in run.sends] == [A, B]

    def test_deadline_frame_makes_a_write_indeterminate(self):
        run = Run(client(retries=5), INSERT, [frame("deadline", deadline_ms=5)])
        run.raised(IndeterminateWriteError)
        assert len(run.sends) == 1

    def test_sleeps_fit_the_budget_and_the_deadline_fires_on_time(self):
        c = client(timeout=1.0, retries=1000, backoff_base=0.05, backoff_cap=0.3)
        run = Run(c, QUERY, [NotSent("refused")] * 1000, send_cost=0.02)
        run.raised(DeadlineExceeded)
        assert sum(run.sleeps) <= 1.0
        assert run.clock.now - run.start == pytest.approx(1.0)

    def test_an_oversized_backoff_is_clipped_to_the_remainder(self):
        c = client(timeout=0.5, retries=10, backoff_base=30.0, backoff_cap=60.0)
        run = Run(c, QUERY, [NotSent("refused")] * 10, send_cost=0.1)
        run.raised(DeadlineExceeded)
        assert len(run.sends) == 1 and run.sleeps == [pytest.approx(0.4)]

    def test_no_send_once_the_budget_is_gone(self):
        run = Run(client(timeout=0.0), QUERY, [ok()])
        run.raised(DeadlineExceeded)
        assert not run.sends

    def test_backoff_doubles_up_to_the_cap(self):
        c = client(retries=5, backoff_base=0.1, backoff_cap=0.3, timeout=60.0)
        run = Run(c, QUERY, [NotSent("refused")] * 6)
        assert run.sleeps == pytest.approx([0.1, 0.2, 0.3, 0.3, 0.3])


class TestStamping:
    def test_read_your_writes_stamps_queries_and_batches(self):
        c = client(wait_timeout_s=0.7)
        Run(c, INSERT, [ok(generation=9)])
        for payload in (QUERY, {"op": "batch", "queries": []}):
            sent = Run(c, payload, [ok()]).sends[0].payload
            assert sent["min_generation"] == 9 and sent["wait_timeout_s"] == 0.7
        for op in ("ping", "explain", "dump", "stats"):
            assert "min_generation" not in Run(c, {"op": op}, [ok()]).sends[0].payload

    def test_no_floor_before_any_write_or_when_disabled(self):
        assert "min_generation" not in Run(client(), QUERY, [ok()]).sends[0].payload
        c = client(read_your_writes=False)
        Run(c, INSERT, [ok(generation=9)])
        assert "min_generation" not in Run(c, QUERY, [ok()]).sends[0].payload

    def test_an_explicit_floor_wins(self):
        c = client()
        Run(c, INSERT, [ok(generation=9)])
        payload = {**QUERY, "min_generation": 2}
        assert Run(c, payload, [ok()]).sends[0].payload["min_generation"] == 2

    def test_deadline_ms_is_the_remaining_budget_on_every_idempotent_send(self):
        c = client("b:2", timeout=2.0, backoff_base=0.25, backoff_cap=0.25)
        run = Run(c, QUERY, [Lost("reset"), ok()], send_cost=0.5)
        assert [s.payload["deadline_ms"] for s in run.sends] == [2000, 1250]
        for op in IDEMPOTENT_OPS:
            assert "deadline_ms" in Run(c, {"op": op}, [ok()]).sends[0].payload

    def test_mutations_never_carry_deadline_ms(self):
        c = client()
        for payload in (INSERT, {"op": "delete", "relation": "R", "rows": []}, {"op": "delta"}):
            run = Run(c, payload, [NotSent("refused"), ok()])
            assert all("deadline_ms" not in s.payload for s in run.sends)

    def test_a_caller_deadline_ms_is_kept(self):
        sent = Run(client(), {**QUERY, "deadline_ms": 40}, [ok()]).sends[0].payload
        assert sent["deadline_ms"] == 40

    def test_ids_are_fresh_per_request_and_stable_across_retries(self):
        c = client()
        first = Run(c, QUERY, [Lost("reset"), ok()]).sends
        second = Run(c, QUERY, [ok()]).sends
        assert first[0].payload["id"] == first[1].payload["id"] != second[0].payload["id"]
        assert Run(c, {**QUERY, "id": "mine"}, [ok()]).sends[0].payload["id"] == "mine"


# ----------------------------------------------------------------------
# random outcome sequences
# ----------------------------------------------------------------------

OPS = sorted(IDEMPOTENT_OPS) + ["insert", "delete", "delta"]


def random_outcome(rng):
    pick = rng.random()
    if pick < 0.15:
        return ok(generation=rng.randrange(50))
    if pick < 0.35:
        return NotSent("refused")
    if pick < 0.5:
        return Lost("reset")
    kind = rng.choice(["overloaded", "deadline", "stale", "read_only", "degraded", None])
    if kind == "read_only" and rng.random() < 0.8:
        return frame(kind, primary=rng.choice(["a:1", "b:2", "c:3"]))
    return frame(kind)


class TestRandomSequences:
    def test_policy_invariants_hold_on_random_outcomes(self):
        rng = fuzz_rng("client-policy")
        for _ in range(fuzz_trials(2000)):
            replicas = rng.sample(["b:2", "c:3"], rng.randrange(3))
            retries = rng.randrange(5)
            timeout = rng.choice([0.3, 1.0, 30.0])
            c = client(
                *replicas, retries=retries, timeout=timeout,
                backoff_base=rng.choice([0.01, 0.2]), jitter=rng.random,
            )
            floor = c.last_write_generation = rng.choice([0, 4])
            op = rng.choice(OPS)
            pinned = rng.choice([None, None, "b:2"])
            script = [random_outcome(rng) for _ in range(retries + 3)]
            run = Run(c, {"op": op}, script, endpoint=pinned, send_cost=rng.choice([0.0, 0.05]))
            check_run(run, op, pinned, retries, timeout, script, floor, 1 + len(replicas))


def check_run(run, op, pinned, retries, timeout, script, floor, endpoints):
    idempotent = op in IDEMPOTENT_OPS
    sends, outcomes = run.sends, script[: len(run.sends)]
    context = f"op={op} pinned={pinned} outcomes={outcomes} error={run.error!r}"
    assert (run.result is None) != (run.error is None), context
    read_onlys = [
        k for k, o in enumerate(outcomes)
        if isinstance(o, Answered) and o.response.get("error_type") == "read_only"
    ]
    redirects = sum(1 for k in read_onlys if k < len(outcomes) - 1)
    assert len(sends) <= retries + 1 + redirects, context
    assert redirects <= (0 if idempotent or pinned else 1), context
    # every outcome but the last was one the policy may move past
    rotating = idempotent and pinned is None and op in FAILOVER_OPS
    for k, outcome in enumerate(outcomes[:-1]):
        if isinstance(outcome, NotSent):
            continue
        assert idempotent or not isinstance(outcome, Lost), context
        if isinstance(outcome, Answered):
            response = outcome.response
            kind = response.get("error_type")
            assert not response["ok"] and kind is not None, context
            assert kind != "degraded", context
            assert kind != "deadline" or idempotent, context
            assert kind != "stale" or (rotating and endpoints > 1), context
            if kind == "read_only":  # the one redirect of an unpinned write
                assert not idempotent and not pinned and response.get("primary"), context
                assert k == read_onlys[0], context
    last = outcomes[-1] if outcomes else None
    if run.result is not None:
        assert last.response["ok"] and run.result is last.response, context
    elif isinstance(run.error, IndeterminateWriteError):
        assert not idempotent, context
        assert isinstance(last, Lost) or last.response.get("error_type") == "deadline", context
    elif isinstance(run.error, ServerError):
        assert last.response is run.error.fields, context
    else:
        assert isinstance(run.error, TransportError), context
    # time: sleeps fit the budget, nothing is sent after it
    assert sum(run.sleeps) <= timeout + 1e-9, context
    assert all(at < run.start + timeout for at in run.sent_at), context
    # stamping and routing
    for send in sends:
        assert ("deadline_ms" in send.payload) == idempotent, context
        stamped = floor if op in ("query", "batch") and floor else None
        assert send.payload.get("min_generation") == stamped, context
        if pinned is not None:
            assert send.endpoint == B, context
        elif op not in FAILOVER_OPS and not redirects:
            assert send.endpoint == A, context


# ----------------------------------------------------------------------
# socket-level regressions
# ----------------------------------------------------------------------


class FakeServer:
    """A bare TCP listener serving each connection on its own thread.

    ``handle(conn)`` runs per accepted connection; ``open`` counts the
    connections not yet closed by the peer or the handler.
    """

    def __init__(self, handle):
        self.handle = handle
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()[:2]
        self.listener.settimeout(0.05)
        self.frames = 0
        self.open = 0
        self.lock = threading.Lock()
        self.stopped = threading.Event()
        self.threads = [threading.Thread(target=self._accept, daemon=True)]
        self.threads[0].start()

    def _accept(self):
        while not self.stopped.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            with self.lock:
                self.open += 1
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            self.threads.append(thread)
            thread.start()

    def _serve(self, conn):
        conn.settimeout(5)
        try:
            with conn:
                self.handle(self, conn)
        except OSError:
            pass  # the peer reset, or went quiet past the timeout
        finally:
            with self.lock:
                self.open -= 1

    def close(self):
        self.stopped.set()
        for thread in self.threads:
            thread.join(timeout=5)
        self.listener.close()


def read_one_then_reset(server, conn):
    if conn.makefile("rb").readline():
        with server.lock:
            server.frames += 1
    # linger 0: close sends RST instead of FIN
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))


def pong_until_eof(server, conn):
    for line in conn.makefile("rb"):
        reply = {"id": json.loads(line)["id"], "ok": True, "pong": True}
        conn.sendall((json.dumps(reply) + "\n").encode())


class TestResetAfterSend:
    def test_async_client_never_resends_a_reset_insert(self):
        server = FakeServer(read_one_then_reset)
        try:
            async def scenario():
                async with AsyncClient(server.address, retries=3, backoff_base=0.01) as c:
                    with pytest.raises(IndeterminateWriteError):
                        await c.insert("R", [[1, 2]])
            asyncio.run(scenario())
            assert server.frames == 1
        finally:
            server.close()

    def test_sync_client_never_resends_a_reset_insert(self):
        server = FakeServer(read_one_then_reset)
        try:
            with Client(server.address, retries=3, backoff_base=0.01) as c:
                with pytest.raises(IndeterminateWriteError):
                    c.insert("R", [[1, 2]])
            assert server.frames == 1
        finally:
            server.close()


class TestAsyncConnections:
    def test_concurrent_first_requests_leave_no_extra_connection_open(self):
        """Callers that all find no connection each open one; all but
        the first registered must be closed, not leaked unowned."""
        server = FakeServer(pong_until_eof)
        try:
            async def scenario():
                client = AsyncClient(server.address)
                assert all(r["pong"] for r in await client.fanout([{"op": "ping"}] * 8))
                await client.aclose()
                for _ in range(50):  # well inside the server's 5 s timeout
                    if server.open == 0:
                        return
                    await asyncio.sleep(0.02)
                raise AssertionError(f"{server.open} connection(s) left open")
            asyncio.run(scenario())
        finally:
            server.close()


class TestLongLines:
    ROWS = [[i, i + 100000] for i in range(8000)]  # ~140 KB on the wire

    def test_async_client_reads_and_writes_lines_over_64_kib(self):
        server = async_serve(Database())
        try:
            async def scenario():
                async with AsyncClient(server.address) as c:
                    assert len(json.dumps(self.ROWS)) > 64 * 1024
                    assert (await c.insert("R", self.ROWS))["changed"] == len(self.ROWS)
                    dump = await c.request({"op": "dump"})
                    assert sorted(dump["instance"]["R"]) == self.ROWS
            asyncio.run(scenario())
        finally:
            server.shutdown()
