"""The replica side of log shipping: tail, apply, verify, reconnect.

A :class:`ReplicaTailer` owns one background thread that connects to a
primary's serving port, issues the ``replicate`` op from the session's
**durable** position, and applies what comes back:

* ``delta`` frames go through :meth:`Database.apply_delta` — the same
  single mutation path every local write takes, so the replica journals
  to its *own* WAL and is itself recoverable;
* ``snapshot`` frames (bootstrap: the requested position was compacted
  away, or the timelines diverged) go through :meth:`Database.restore`,
  which installs the primary's state and counters verbatim;
* after every applied delta the resulting ``(generation,
  rel_generation)`` counters are checked against the frame — any
  mismatch marks the replica diverged and forces a snapshot resync
  rather than serving silently wrong answers.

Gap and double-apply protection fall out of dense generations: a frame
at or below the applied position is skipped (the primary resent it
after a reconnect), a frame more than one ahead aborts the connection
(resuming from the durable position closes the gap).  Reconnects use
capped exponential backoff with jitter so a restarted primary is not
stampeded.
"""

from __future__ import annotations

import json
import random
import socket
import threading
from time import monotonic
from typing import TYPE_CHECKING, Callable

from repro import faults as _faults
from repro.data.instance import Instance
from repro.data.jsonio import decode_row
from repro.session import DegradedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.session import Database

__all__ = ["ReplicaTailer", "ReplicationError", "apply_frame", "parse_address"]


class ReplicationError(Exception):
    """The primary refused or broke the replication conversation."""


def parse_address(address: str | tuple) -> tuple[str, int]:
    """``"host:port"`` (or an ``(host, port)`` pair) → ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host, int(port)


def _decode_side(side: dict | None) -> dict[str, list[tuple]]:
    if not side:
        return {}
    return {name: [decode_row(name, row) for row in rows] for name, rows in side.items()}


def apply_frame(db: Database, frame: dict) -> str:
    """Apply one replication frame to ``db``; returns the outcome.

    Outcomes: ``"applied"`` (delta landed, counters verified),
    ``"skipped"`` (already applied — double-apply guard),
    ``"gap"`` (frame is ahead of the next dense generation; the caller
    must reconnect from its position), ``"diverged"`` (the delta landed
    but the counters disagree with the primary's; the caller must
    snapshot-resync), ``"snapshot"`` (full state installed), and the
    pass-throughs ``"hello"`` / ``"heartbeat"``.  Pure with respect to
    transport — the trace-replay property test drives it socket-free.
    """
    kind = frame.get("frame")
    if kind in ("hello", "heartbeat"):
        return kind
    # the ``replica.apply`` failpoint fires before any state lands: an
    # injected error aborts this tail session (the frame re-ships on
    # reconnect — dense generations make re-application idempotent)
    _faults.fire("replica.apply")
    if kind == "snapshot":
        relations = frame.get("instance") or {}
        instance = Instance(
            {name: [decode_row(name, row) for row in rows] for name, rows in relations.items()}
        )
        db.restore(instance, frame["generation"], frame.get("rel_generations") or {})
        return "snapshot"
    if kind == "delta":
        generation = int(frame["generation"])
        if generation <= db.generation:
            return "skipped"
        if generation != db.generation + 1:
            return "gap"
        db.apply_delta(_decode_side(frame.get("adds")), _decode_side(frame.get("removes")))
        if db.generation != generation:
            return "diverged"  # the delta was not effective here: state drift
        for name, gen in (frame.get("rel_generations") or {}).items():
            if db.rel_generation(name) != gen:
                return "diverged"
        return "applied"
    raise ReplicationError(f"unknown replication frame {kind!r}")


class ReplicaTailer:
    """Stream a primary's WAL into a local session, forever.

    ``announce`` is the replica's own serve address, reported to the
    primary so ``repro cluster status`` can find every replica from the
    primary alone.  ``backoff_base``/``backoff_cap`` bound the
    reconnect schedule; ``jitter`` is injectable for deterministic
    tests.
    """

    def __init__(
        self,
        db: Database,
        primary: str | tuple,
        *,
        announce: str | None = None,
        backoff_base: float = 0.2,
        backoff_cap: float = 5.0,
        connect_timeout: float = 10.0,
        read_timeout: float = 30.0,
        jitter: Callable[[], float] = random.random,
    ):
        self._db = db
        self._primary = parse_address(primary)
        self.announce = announce
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self._jitter = jitter
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._state_lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._resync = False
        self._connected = False
        self._last_frame: float | None = None
        self._last_error: str | None = None
        self._counters = {
            "connects": 0,
            "reconnects": 0,
            "frames_applied": 0,
            "frames_skipped": 0,
            "snapshots_loaded": 0,
            "gaps": 0,
            "divergences": 0,
        }

    @property
    def primary_address(self) -> str:
        host, port = self._primary
        return f"{host}:{port}"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> ReplicaTailer:
        if self._thread is not None:
            raise RuntimeError("tailer already started")
        self._thread = threading.Thread(
            target=self._run, name=f"repro-tailer-{self.primary_address}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop tailing (idempotent); interrupts a blocked read."""
        self._stop.set()
        with self._state_lock:
            sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10)

    @property
    def stopped(self) -> bool:
        return self._stop.is_set()

    # ------------------------------------------------------------------
    # the tail loop
    # ------------------------------------------------------------------

    def _run(self) -> None:
        delay = self.backoff_base
        while not self._stop.is_set():
            progressed = False
            try:
                progressed = self._tail_once()
            except (OSError, ValueError, ReplicationError, DegradedError) as err:
                # DegradedError: the *local* session refused the apply
                # (its own disk is failing) — keep tailing with backoff;
                # once an operator checkpoint heals it, frames land again
                with self._state_lock:
                    self._last_error = f"{type(err).__name__}: {err}"
            if self._stop.is_set():
                return
            if progressed:
                delay = self.backoff_base
            self._counters["reconnects"] += 1
            # capped exponential backoff with jitter: sleep in
            # [delay/2, delay), doubling (up to the cap) per barren retry
            self._stop.wait(delay * (0.5 + 0.5 * min(1.0, max(0.0, self._jitter()))))
            delay = min(delay * 2, self.backoff_cap)

    def _tail_once(self) -> bool:
        """One connect-and-tail session; True when any frame landed."""
        sock = socket.create_connection(self._primary, timeout=self.connect_timeout)
        progressed = False
        try:
            with self._state_lock:
                self._sock = sock
            if self._stop.is_set():
                return progressed
            request = {
                "op": "replicate",
                "position": self._db.position,
                "replica": {"address": self.announce},
            }
            if self._resync:
                request["resync"] = True
            sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
            sock.settimeout(self.read_timeout)
            reader = sock.makefile("r", encoding="utf-8", newline="\n")
            self._counters["connects"] += 1
            for line in reader:
                if self._stop.is_set():
                    return progressed
                frame = json.loads(line)
                if frame.get("ok") is False:
                    raise ReplicationError(frame.get("error", "primary refused replication"))
                with self._state_lock:
                    # one step as ``status`` sees it: a reader that saw
                    # the frame's generation applied also sees it counted
                    outcome = apply_frame(self._db, frame)
                    self._last_frame = monotonic()
                    self._connected = True
                    if outcome == "applied":
                        self._counters["frames_applied"] += 1
                        self._resync = False
                        progressed = True
                    elif outcome == "snapshot":
                        self._counters["snapshots_loaded"] += 1
                        self._resync = False
                        progressed = True
                    elif outcome == "skipped":
                        self._counters["frames_skipped"] += 1
                    elif outcome == "gap":
                        # reconnecting replays from the durable position, so
                        # the missing generations are re-served in order
                        self._counters["gaps"] += 1
                        return progressed
                    elif outcome == "diverged":
                        self._counters["divergences"] += 1
                        self._resync = True
                        return progressed
            return progressed
        finally:
            with self._state_lock:
                self._sock = None
                self._connected = False
            try:
                sock.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    @property
    def status(self) -> dict:
        """Counters for the ``stats`` wire op and ``repro cluster status``."""
        with self._state_lock:
            last_frame = self._last_frame
            return {
                "primary": self.primary_address,
                "connected": self._connected,
                "stopped": self._stop.is_set(),
                "last_frame_age_s": (
                    round(monotonic() - last_frame, 3) if last_frame is not None else None
                ),
                "last_error": self._last_error,
                **self._counters,
            }
