"""A self-healing wire client for the JSON-lines serving protocol.

:class:`Client` (blocking) and :class:`AsyncClient` (asyncio, pipelined)
wrap the raw socket conversation of ``docs/wire-protocol.md`` in the
retry/deadline/failover policy a caller facing real networks needs:

* **per-op deadlines** — every public method is bounded by ``timeout``
  seconds of wall clock, connection attempts included; a blown deadline
  raises :class:`DeadlineExceeded`, never hangs.  Idempotent requests
  carry the remaining budget as ``deadline_ms``, so a server that
  enforces it stops working on a request its client gave up on;
* **capped-exponential retry with jitter** for *idempotent* requests
  (reads, ``ping``, admin ops): transport failures and ``overloaded``,
  ``deadline`` and ``stale`` frames are retried against the next
  endpoint in rotation, so a primary kill is invisible to readers as
  long as any replica still answers;
* **typed-error passthrough** — ``degraded``, ``read_only``, ``stale``
  and ``overloaded`` frames surface as typed exceptions carrying the
  server's structured fields, never as prose to re-parse; a
  ``read_only`` frame on a write triggers one redirect to the primary
  the replica announced;
* **bounded-staleness reads** — the client tracks the highest
  generation any of its own acknowledged writes reached and stamps it
  as ``min_generation`` on subsequent reads (read-your-writes), so a
  read failing over to a lagging replica either waits for the write it
  just made or fails ``stale`` and rotates, never silently rewinds;
* **honest write semantics** — a mutation is re-sent only when the
  client knows it never ran: the connect failed before a byte left, or
  the server shed it with ``overloaded``.  Once request bytes may have
  left, a lost connection (or a server ``deadline`` frame) raises
  :class:`IndeterminateWriteError`: the write may or may not have
  applied, and only the caller knows whether re-issuing it is
  idempotent for their data.  A request line longer than the server
  accepts (``MAX_LINE_BYTES``) never leaves: it fails locally with a
  typed ``too_large`` :class:`ServerError`.

The policy is written once, as a sans-IO state machine
(:meth:`_ClientBase._policy`): a generator that yields :class:`Send` and
:class:`Sleep` steps and is told what each send came to —
:class:`Answered`, :class:`NotSent` (no byte left) or :class:`Lost`
(anything after the first byte went out).  The two clients are thin
drivers that carry those steps out on their own transport, so they
cannot disagree on a decision, and the policy is tested without
sockets.  ``docs/fault-tolerance.md`` tabulates it.

>>> from repro.client import Client
>>> from repro.server import serve
>>> from repro.session import Database
>>> with serve(Database({"R": [(1, 2)]})) as server:
...     client = Client(server.address)
...     client.query("R(x, y)")["answers"]
...     client.insert("R", [[3, 4]])["changed"]
...     client.close()
[[1, 2]]
1
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
from dataclasses import dataclass
from time import monotonic, sleep
from typing import Callable, Generator, Iterable, Mapping, Sequence, Union

from repro.replication.replica import parse_address
from repro.server import MAX_LINE_BYTES

__all__ = [
    "AsyncClient",
    "Client",
    "ClientError",
    "DeadlineExceeded",
    "DegradedServerError",
    "IndeterminateWriteError",
    "OverloadedServerError",
    "ReadOnlyServerError",
    "ServerError",
    "StaleReadError",
    "TransportError",
]


class ClientError(Exception):
    """Base class for everything :class:`Client` raises on purpose."""


class TransportError(ClientError):
    """No server could be reached (or kept its connection) in time."""


class DeadlineExceeded(TransportError):
    """The per-op deadline expired before any server answered."""


class IndeterminateWriteError(ClientError):
    """A mutation was sent but its fate is unknown (connection died).

    The server may or may not have applied the write.  The client never
    auto-retries out of this state — re-issuing is the caller's call,
    made safe by checking generation counters (``stats``/``health``) or
    by the mutation's natural idempotence (set semantics: re-inserting
    a present row changes nothing).
    """


class ServerError(ClientError):
    """The server answered with an error frame; ``fields`` carries it.

    ``error_type`` is the structured discriminator (``"degraded"``,
    ``"read_only"``, ``"stale"``, or ``None`` for untyped errors).
    """

    def __init__(self, fields: dict):
        super().__init__(fields.get("error", "server error"))
        self.fields = fields
        self.error_type: str | None = fields.get("error_type")


class DegradedServerError(ServerError):
    """The node is in degraded read-only mode; the write was refused.

    The write was **not** applied.  ``fields["health"]`` carries the
    node's health record; an operator ``checkpoint`` heals the node.
    """


class ReadOnlyServerError(ServerError):
    """The node is a replica; ``primary`` names where writes go."""

    @property
    def primary(self) -> str | None:
        return self.fields.get("primary")


class StaleReadError(ServerError):
    """The node could not reach the requested ``min_generation`` in time."""


class OverloadedServerError(ServerError):
    """The server shed this request at admission (``--max-inflight`` /
    ``--max-conns`` exceeded).

    The request was **never executed** — shedding happens before the op
    touches the session — so re-sending is safe for every op, mutations
    included.  Both clients retry it with backoff (rotating endpoints
    for reads) while the deadline allows.
    """


def _typed_error(response: dict) -> ServerError:
    kind = response.get("error_type")
    if kind == "degraded":
        return DegradedServerError(response)
    if kind == "read_only":
        return ReadOnlyServerError(response)
    if kind == "stale":
        return StaleReadError(response)
    if kind == "overloaded":
        return OverloadedServerError(response)
    return ServerError(response)


#: ops safe to re-send after an ambiguous failure (no server-side effects,
#: or effects that are idempotent by definition, like ``checkpoint``)
IDEMPOTENT_OPS = frozenset(
    {"ping", "query", "batch", "explain", "dump", "stats", "health", "checkpoint", "promote"}
)
#: idempotent ops that may be answered by *any* endpoint in the rotation
FAILOVER_OPS = frozenset({"ping", "query", "batch", "explain", "dump"})


def _backoff_delay(base: float, cap: float, attempt: int, jitter: Callable[[], float]) -> float:
    """Capped-exponential backoff for attempt *n*, jittered to half."""
    delay = min(base * (2**attempt), cap)
    return delay * (0.5 + 0.5 * min(1.0, max(0.0, jitter())))


# ----------------------------------------------------------------------
# the policy's vocabulary: steps it asks for, outcomes it is told
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Send:
    """Step: write ``payload`` as one line to ``endpoint``, read its answer.

    ``deadline`` (on the :func:`~time.monotonic` clock) bounds the
    driver's connect and wait.
    """

    endpoint: tuple[str, int]
    payload: dict
    deadline: float


@dataclass(frozen=True)
class Sleep:
    """Step: back off for ``seconds`` before the next attempt."""

    seconds: float


@dataclass(frozen=True)
class Answered:
    """Outcome: the endpoint answered with this response object."""

    response: dict


@dataclass(frozen=True)
class NotSent:
    """Outcome: no byte reached the socket (e.g. the connect failed)."""

    reason: str


@dataclass(frozen=True)
class Lost:
    """Outcome: the request may have left, but no usable answer came back.

    Reset, EOF, timeout, an undecodable or an oversized response line.
    """

    reason: str


Outcome = Union[Answered, NotSent, Lost]
Policy = Generator[Union[Send, Sleep], Union[Outcome, None], dict]


def _encode(payload: dict) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


def _too_large(payload: dict) -> Answered:
    """The ``too_large`` frame the server would send, built locally.

    A request line over ``MAX_LINE_BYTES`` is refused before any byte of
    it leaves, so the policy raises a typed :class:`ServerError` and
    never retries it or reports a write as indeterminate.
    """
    return Answered(
        {
            "ok": False,
            "error": f"too_large: request line exceeds {MAX_LINE_BYTES} bytes",
            "error_type": "too_large",
            "max_line_bytes": MAX_LINE_BYTES,
            "id": payload.get("id"),
        }
    )


def _decode(line: bytes) -> dict:
    """One response line → its JSON object; ``ValueError`` otherwise."""
    if not line.endswith(b"\n"):
        if len(line) > MAX_LINE_BYTES:
            raise ValueError(f"response line exceeds {MAX_LINE_BYTES} bytes")
        raise ValueError("connection closed mid-response")
    response = json.loads(line)
    if not isinstance(response, dict):
        raise ValueError("response is not a JSON object")
    return response


class _ClientBase:
    """Endpoints, counters, the request policy and the typed helpers.

    Shared by both clients (parameters: see :class:`Client`).  The
    typed helpers (:meth:`ping`, :meth:`query`, :meth:`insert`, …)
    return whatever the driver's ``request`` returns: the response dict
    on :class:`Client`, an awaitable of it on :class:`AsyncClient`.
    """

    def __init__(
        self,
        primary: str | tuple,
        replicas: Iterable[str | tuple] = (),
        *,
        timeout: float = 5.0,
        connect_timeout: float = 1.0,
        retries: int = 5,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        read_your_writes: bool = True,
        wait_timeout_s: float = 2.0,
        jitter: Callable[[], float] = random.random,
    ):
        self._primary = parse_address(primary)
        self._endpoints: list[tuple[str, int]] = [self._primary]
        for replica in replicas:
            addr = parse_address(replica)
            if addr not in self._endpoints:
                self._endpoints.append(addr)
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retries = max(0, retries)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.read_your_writes = read_your_writes
        self.wait_timeout_s = wait_timeout_s
        self._jitter = jitter
        self._rotation = 0
        #: highest generation an acknowledged write of *this client* reached
        self.last_write_generation = 0
        self._seq = 0
        #: endpoint → the driver's live connection to it
        self._conns: dict = {}

    @property
    def primary_address(self) -> str:
        host, port = self._primary
        return f"{host}:{port}"

    @property
    def endpoints(self) -> list[str]:
        return [f"{host}:{port}" for host, port in self._endpoints]

    def _adopt_primary(self, endpoint: tuple[str, int]) -> None:
        self._primary = endpoint
        if endpoint not in self._endpoints:
            self._endpoints.insert(0, endpoint)

    def _connect_budget(self, send: Send) -> float:
        return max(min(self.connect_timeout, send.deadline - monotonic()), 1e-3)

    # ------------------------------------------------------------------
    # the policy
    # ------------------------------------------------------------------

    def _policy(
        self,
        payload: dict,
        endpoint: str | tuple | None = None,
        clock: Callable[[], float] = monotonic,
    ) -> Policy:
        """One request, start to finish, as a sans-IO state machine.

        Yields :class:`Send` steps, answered with :class:`Answered`,
        :class:`NotSent` or :class:`Lost`, and :class:`Sleep` steps,
        answered with ``None``.  Returns the ``ok`` response or raises
        a :class:`ClientError`.  Every decision — endpoint, stamping,
        retry, backoff, redirect, raise — is made here; the drivers only
        move bytes.  ``endpoint`` pins the request to one node.
        """
        deadline = clock() + self.timeout
        self._seq += 1
        payload = {"id": self._seq, **payload}
        op = payload.get("op")
        pinned = parse_address(endpoint) if endpoint is not None else None
        idempotent = op in IDEMPOTENT_OPS
        rotate = idempotent and pinned is None and op in FAILOVER_OPS
        if (
            self.read_your_writes
            and op in ("query", "batch")
            and self.last_write_generation > 0
            and "min_generation" not in payload
        ):
            payload["min_generation"] = self.last_write_generation
            payload["wait_timeout_s"] = self.wait_timeout_s
        redirected = False
        attempt = 0
        while True:
            remaining = deadline - clock()
            if remaining <= 0:
                raise DeadlineExceeded("deadline expired before sending")
            if rotate:
                target = self._endpoints[self._rotation % len(self._endpoints)]
            else:
                target = pinned or self._primary
            wire = payload
            if idempotent and "deadline_ms" not in payload:
                # the server may stop working once this client gives up;
                # never on a mutation, whose ambiguity must surface
                wire = {**payload, "deadline_ms": max(1, int(remaining * 1000))}
            outcome = yield Send(target, wire, deadline)
            if isinstance(outcome, Answered):
                response = outcome.response
                if response.get("ok"):
                    generation = response.get("generation")
                    if not idempotent and isinstance(generation, int):
                        self.last_write_generation = max(self.last_write_generation, generation)
                    return response
                error = _typed_error(response)
                kind = error.error_type
                if (
                    isinstance(error, ReadOnlyServerError)
                    and error.primary
                    and not idempotent
                    and pinned is None
                    and not redirected
                ):
                    # the write was refused, not applied: following the
                    # announced primary once is safe
                    self._adopt_primary(parse_address(error.primary))
                    redirected = True
                    continue
                if kind == "deadline" and not idempotent:
                    # the server stopped waiting, but the op it handed to
                    # a worker may still complete
                    raise IndeterminateWriteError(str(error)) from error
                # overloaded: shed at admission, nothing ran; deadline (on
                # a read, by now): re-running it is free; stale: another
                # endpoint may have caught up
                if kind == "stale":
                    retryable = rotate and len(self._endpoints) > 1
                else:
                    retryable = kind in ("overloaded", "deadline")
                if not retryable:
                    raise error
                last_error: ClientError = error
            else:
                if isinstance(outcome, Lost) and not idempotent:
                    # bytes may have left: surface the ambiguity, never re-send
                    raise IndeterminateWriteError(outcome.reason)
                last_error = TransportError(outcome.reason)
            if rotate:
                self._rotation += 1
            if attempt >= self.retries:
                raise last_error
            delay = _backoff_delay(self.backoff_base, self.backoff_cap, attempt, self._jitter)
            remaining = deadline - clock()
            if remaining <= 0:
                raise DeadlineExceeded("retry budget exhausted") from last_error
            if delay >= remaining:
                # burn only what is left and fail *on* the deadline
                # instead of waking late for an attempt that cannot finish
                yield Sleep(remaining)
                raise DeadlineExceeded("deadline expired during retry backoff") from last_error
            yield Sleep(delay)
            attempt += 1

    # ------------------------------------------------------------------
    # typed helpers
    # ------------------------------------------------------------------

    def ping(self):
        return self.request({"op": "ping"})

    def query(
        self,
        query: str,
        *,
        vars: Sequence[str] | None = None,
        semantics: str | None = None,
        mode: str = "auto",
        min_generation: int | None = None,
        min_rel_generation: Mapping[str, int] | None = None,
    ):
        payload: dict = {"op": "query", "query": query, "mode": mode}
        if vars is not None:
            payload["vars"] = list(vars)
        if semantics is not None:
            payload["semantics"] = semantics
        if min_generation is not None:
            payload["min_generation"] = min_generation
            payload["wait_timeout_s"] = self.wait_timeout_s
        if min_rel_generation:
            payload["min_rel_generation"] = dict(min_rel_generation)
            payload.setdefault("wait_timeout_s", self.wait_timeout_s)
        return self.request(payload)

    def insert(self, relation: str, rows: Iterable[Sequence]):
        return self.request({"op": "insert", "relation": relation, "rows": list(rows)})

    def delete(self, relation: str, rows: Iterable[Sequence]):
        return self.request({"op": "delete", "relation": relation, "rows": list(rows)})

    def apply_delta(
        self,
        adds: Mapping[str, list] | None = None,
        removes: Mapping[str, list] | None = None,
    ):
        payload: dict = {"op": "delta"}
        if adds:
            payload["adds"] = dict(adds)
        if removes:
            payload["removes"] = dict(removes)
        return self.request(payload)

    def checkpoint(self, *, endpoint: str | tuple | None = None):
        """Force a snapshot (the degraded-mode healing op)."""
        return self.request({"op": "checkpoint"}, endpoint=endpoint)

    def stats(self, *, endpoint: str | tuple | None = None):
        return self.request({"op": "stats"}, endpoint=endpoint)

    def health(self, *, endpoint: str | tuple | None = None):
        return self.request({"op": "health"}, endpoint=endpoint)


class Client(_ClientBase):
    """A resilient blocking JSON-lines client over one primary and its replicas.

    Parameters
    ----------
    primary:
        ``"host:port"`` (or an ``(host, port)`` pair) of the node that
        accepts writes;
    replicas:
        additional read endpoints; idempotent reads rotate across
        ``[primary, *replicas]`` on failure;
    timeout:
        per-operation wall-clock deadline in seconds (connects, sends,
        retries and backoff sleeps all count against it);
    connect_timeout:
        cap on one connection attempt;
    retries:
        attempts per operation beyond the first;
    backoff_base / backoff_cap:
        capped exponential retry schedule: attempt *n* sleeps roughly
        ``min(base * 2**n, cap)`` seconds, jittered to half;
    read_your_writes:
        stamp the client's own highest acknowledged write generation as
        ``min_generation`` on reads that do not set one (default on);
    wait_timeout_s:
        how long a server may block to satisfy a ``min_generation``
        floor before answering ``stale``;
    jitter:
        a ``() -> float in [0, 1)`` hook, injectable for deterministic
        tests.

    One socket per endpoint is kept open and reused across requests;
    any transport error tears that connection down so the next attempt
    reconnects from scratch.  Instances are **not** thread-safe — use
    one per thread (the server multiplexes fine).
    """

    def close(self) -> None:
        """Close every cached connection (idempotent)."""
        for endpoint in list(self._conns):
            self._drop(endpoint)

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _drop(self, endpoint: tuple[str, int]) -> None:
        conn = self._conns.pop(endpoint, None)
        if conn is not None:
            sock, reader = conn
            try:
                reader.close()  # the socket's descriptor stays open until its reader closes
                sock.close()
            except OSError:
                pass

    def _exchange(self, send: Send) -> Outcome:
        """Carry out one :class:`Send` on the endpoint's cached socket."""
        data = _encode(send.payload)
        if len(data) > MAX_LINE_BYTES + 1:
            return _too_large(send.payload)
        endpoint = send.endpoint
        conn = self._conns.get(endpoint)
        if conn is None:
            try:
                sock = socket.create_connection(endpoint, timeout=self._connect_budget(send))
            except OSError as err:
                return NotSent(f"cannot connect to {endpoint}: {err}")
            conn = self._conns[endpoint] = (sock, sock.makefile("rb"))
        sock, reader = conn
        try:
            sock.settimeout(max(send.deadline - monotonic(), 1e-3))
            sock.sendall(data)
            return Answered(_decode(reader.readline(MAX_LINE_BYTES + 1)))
        except (OSError, ValueError) as err:
            self._drop(endpoint)
            return Lost(f"request to {endpoint} lost: {err}")

    def request(self, payload: dict, *, endpoint: str | tuple | None = None) -> dict:
        """Send one raw request object with the full resilience policy.

        The escape hatch the typed helpers build on.  ``endpoint`` pins
        the request to one node (admin ops on a specific replica);
        otherwise idempotent reads rotate over every endpoint and
        mutations go to the primary.  Returns the decoded ``ok: true``
        response; raises a typed :class:`ClientError` otherwise.
        """
        policy = self._policy(payload, endpoint)
        outcome = None
        try:
            while True:
                step = policy.send(outcome)
                if isinstance(step, Sleep):
                    sleep(step.seconds)
                    outcome = None
                else:
                    outcome = self._exchange(step)
        except StopIteration as done:
            return done.value

    def promote(self, endpoint: str | tuple) -> dict:
        """Flip the replica at ``endpoint`` writable and adopt it as primary."""
        response = self.request({"op": "promote"}, endpoint=endpoint)
        self._adopt_primary(parse_address(endpoint))
        return response


class _AsyncConn:
    """One live pipelined connection: reader task + id-keyed waiters."""

    __slots__ = ("endpoint", "reader", "writer", "pending", "reader_task", "write_lock")

    def __init__(self, endpoint: tuple[str, int], reader, writer):
        self.endpoint = endpoint
        self.reader = reader
        self.writer = writer
        #: request id → Future resolved with the request's Outcome
        self.pending: dict[object, asyncio.Future] = {}
        self.reader_task: asyncio.Task | None = None
        self.write_lock = asyncio.Lock()


class AsyncClient(_ClientBase):
    """The :class:`Client` policy on asyncio, with true pipelining.

    Same parameters, and the very same policy (:meth:`_ClientBase._policy`),
    as the blocking client, plus:

    * **pipelining** — each endpoint gets one connection shared by every
      coroutine of the owning event loop; any number of requests may be
      in flight at once, and responses are matched back to their callers
      by the echoed ``id``, so out-of-order completion (a protocol-v2
      server answers fast ops while a slow one still runs) just works;
    * :meth:`fanout` — a bounded ``asyncio.gather`` helper for the
      scatter half of scatter/gather workloads.

    Instances belong to one event loop.  A request whose response does
    not arrive in time abandons only its own ``id`` — the connection
    and its other in-flight requests stay live.

    >>> import asyncio
    >>> from repro.client import AsyncClient
    >>> from repro.server import serve
    >>> from repro.session import Database
    >>> async def demo():
    ...     server = serve(Database({"R": [(1, 2)]}))
    ...     try:
    ...         async with AsyncClient(server.address) as client:
    ...             responses = await client.fanout(
    ...                 [{"op": "query", "query": "R(x, y)"}] * 3, concurrency=2
    ...             )
    ...             return [r["answers"] for r in responses]
    ...     finally:
    ...         server.shutdown()
    >>> asyncio.run(demo())
    [[[1, 2]], [[1, 2]], [[1, 2]]]
    """

    async def aclose(self) -> None:
        """Close every cached connection (idempotent)."""
        conns = list(self._conns.values())
        self._conns.clear()
        for conn in conns:
            if conn.reader_task is not None:
                conn.reader_task.cancel()
            conn.writer.close()
        for conn in conns:
            if conn.reader_task is not None:
                await asyncio.gather(conn.reader_task, return_exceptions=True)

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    def _abandon(self, conn: _AsyncConn) -> None:
        """Drop a connection whose transport failed mid-request."""
        if self._conns.get(conn.endpoint) is conn:
            del self._conns[conn.endpoint]
        conn.writer.close()  # wakes the reader task, which loses the pending

    async def _read_loop(self, conn: _AsyncConn) -> None:
        """Resolve pipelined responses to their senders, by echoed id.

        Every request still pending when the connection ends is
        :class:`Lost`: its bytes went out, its answer never came back.
        """
        reason = f"{conn.endpoint} closed the connection mid-request"
        try:
            while True:
                line = await conn.reader.readline()
                if not line:
                    break
                response = _decode(line)
                fut = conn.pending.pop(response.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(Answered(response))
        except (OSError, ValueError) as err:
            reason = f"connection to {conn.endpoint} failed: {err}"
        finally:
            if self._conns.get(conn.endpoint) is conn:
                del self._conns[conn.endpoint]
            conn.writer.close()
            for fut in conn.pending.values():
                if not fut.done():
                    fut.set_result(Lost(reason))
            conn.pending.clear()

    async def _exchange(self, send: Send) -> Outcome:
        """Carry out one :class:`Send` on the endpoint's pipelined connection."""
        data = _encode(send.payload)
        if len(data) > MAX_LINE_BYTES + 1:
            return _too_large(send.payload)
        endpoint = send.endpoint
        conn = self._conns.get(endpoint)
        if conn is None:
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(*endpoint, limit=MAX_LINE_BYTES),
                    self._connect_budget(send),
                )
            except (OSError, asyncio.TimeoutError) as err:
                return NotSent(f"cannot connect to {endpoint}: {err or type(err).__name__}")
            conn = self._conns.get(endpoint)
            if conn is not None:
                # another caller connected while this one waited: share
                # its connection rather than leak a second one
                writer.close()
            else:
                conn = _AsyncConn(endpoint, reader, writer)
                conn.reader_task = asyncio.create_task(self._read_loop(conn))
                self._conns[endpoint] = conn
        rid = send.payload["id"]
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        conn.pending[rid] = fut
        try:
            async with conn.write_lock:
                conn.writer.write(data)
                await asyncio.wait_for(conn.writer.drain(), max(send.deadline - monotonic(), 0))
        except (OSError, asyncio.TimeoutError) as err:
            conn.pending.pop(rid, None)
            self._abandon(conn)
            return Lost(f"connection to {endpoint} failed mid-request: {err}")
        try:
            return await asyncio.wait_for(fut, max(send.deadline - monotonic(), 0))
        except asyncio.TimeoutError:
            conn.pending.pop(rid, None)
            return Lost(f"no response from {endpoint} within the deadline")

    async def request(self, payload: dict, *, endpoint: str | tuple | None = None) -> dict:
        """Send one raw request object with the full resilience policy.

        The async twin of :meth:`Client.request`: the same policy drives
        both, so endpoint selection, typed errors and honest-write rules
        are identical.
        """
        policy = self._policy(payload, endpoint)
        outcome = None
        try:
            while True:
                step = policy.send(outcome)
                if isinstance(step, Sleep):
                    await asyncio.sleep(step.seconds)
                    outcome = None
                else:
                    outcome = await self._exchange(step)
        except StopIteration as done:
            return done.value

    async def promote(self, endpoint: str | tuple) -> dict:
        """Flip the replica at ``endpoint`` writable and adopt it as primary."""
        response = await self.request({"op": "promote"}, endpoint=endpoint)
        self._adopt_primary(parse_address(endpoint))
        return response

    async def fanout(
        self,
        payloads: Iterable[dict],
        *,
        concurrency: int = 64,
        return_exceptions: bool = False,
    ) -> list:
        """Issue many requests concurrently, bounded by ``concurrency``.

        Results come back in input order.  With ``return_exceptions``
        each failed slot holds its :class:`ClientError` instead of the
        first failure cancelling the whole gather.
        """
        semaphore = asyncio.Semaphore(max(1, concurrency))

        async def one(payload: dict):
            async with semaphore:
                return await self.request(payload)

        return list(
            await asyncio.gather(
                *(one(payload) for payload in payloads),
                return_exceptions=return_exceptions,
            )
        )
