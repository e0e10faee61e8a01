"""The append-only write-ahead log of session deltas.

Every effective mutation of a durable :class:`~repro.session.Database`
(``insert`` / ``delete`` / ``apply_delta``) appends exactly one record
*before* the new instance value is published, and the mutation is
acknowledged to the caller only after the record is fsync'd — so an
acknowledged delta survives ``kill -9``.

Record framing (one record, little-endian)::

    u32 payload length | payload bytes | u32 crc32(payload)

The payload is one compact JSON object::

    {"g": <generation after>, "rg": {rel: rel_generation after},
     "adds": {rel: [rows]}, "removes": {rel: [rows]}}

with rows in the :mod:`repro.data.jsonio` cell encoding (``"?x"`` is
the null ⊥x, ``"??x"`` the constant ``"?x"``).  The file itself starts
with a magic/version header so foreign or future-format files are
refused cleanly instead of being replayed as garbage.

Torn tails: a crash can leave a final record half-written (short
length word, short payload, or a checksum mismatch).  :meth:`replay`
stops at the first invalid frame and reports how many bytes it
ignored; :meth:`open_for_append` then truncates the torn bytes so new
records are never written after garbage.

Group commit: appends are cheap buffered writes; :meth:`sync` is the
durability point.  Concurrent callers coalesce — one *leader* fsyncs
the file once for every record appended so far, and followers whose
record is already covered return without their own fsync.
"""

from __future__ import annotations

import errno
import json
import os
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Iterator

from repro import faults as _faults

__all__ = ["WalError", "WriteAheadLog", "MAGIC", "FORMAT_VERSION"]

#: file header: magic + format version (refuse anything else cleanly)
MAGIC = b"REPROWAL"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sH")
_U32 = struct.Struct("<I")


class WalError(Exception):
    """The log cannot be read: foreign file, future format, mid-log rot."""


def _contains_valid_frame(blob: bytes, start: int, limit: int = 256 * 1024) -> bool:
    """Does ``blob[start:]`` contain a complete, checksum-valid frame?

    A genuine torn tail is the prefix of *one* interrupted append, so it
    can never contain a whole valid frame.  Finding one means an earlier
    record's length word rotted and is swallowing acknowledged records —
    corruption, not a crash artifact.  Zero-length frames are ignored
    (never written; a run of zeros would trivially checksum) and the
    scan window is bounded so a pathological tail stays cheap.
    """
    stop = min(len(blob), start + limit)
    for pos in range(start, stop - _U32.size + 1):
        (length,) = _U32.unpack_from(blob, pos)
        frame_end = pos + _U32.size + length + _U32.size
        if length == 0 or frame_end > len(blob):
            continue
        payload = blob[pos + _U32.size : frame_end - _U32.size]
        (crc,) = _U32.unpack_from(blob, frame_end - _U32.size)
        if zlib.crc32(payload) == crc:
            return True
    return False


def _fsync_dir(path: Path) -> None:
    """fsync the containing directory so renames/creates are durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # e.g. platforms without directory fds
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WriteAheadLog:
    """One append-only log file with group-commit fsync.

    ``fsync=False`` keeps the framing and replay behaviour but makes
    :meth:`sync` a buffered flush only — the benchmark harness uses it
    to measure what durability itself costs.

    Failpoints (``faults`` defaults to the process-global registry):
    ``wal.append`` (errno, or ``torn-write`` — a partial frame is
    flushed and the tail marked dirty), ``wal.fsync`` (fails the group
    commit: no waiter is acknowledged), ``wal.truncate``.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        fsync: bool = True,
        faults: "_faults.FaultRegistry | None" = None,
    ):
        self.path = Path(path)
        self.fsync = fsync
        self.faults = _faults.coerce(faults)
        # a failed/torn append left non-record bytes at the file position:
        # appending after them would bury garbage between valid frames
        # (mid-log corruption, which replay refuses); truncate() clears it
        self._dirty_tail = False
        self._file = None  # opened lazily by open_for_append()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._size = 0  # bytes written (valid records only)
        self._records = 0  # complete records in the log (replayed + appended)
        self._synced = 0  # high-water mark of fsync'd bytes
        self._syncing = False
        # bumped by truncate(); guards _synced against a leader restoring
        # a pre-truncate offset as the high-water mark (offsets from
        # different truncation epochs are not comparable)
        self._trunc_epoch = 0
        self._first_append: float | None = None  # monotonic stamp of oldest record

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def replay(self) -> tuple[list[dict], int]:
        """Read every complete record; returns ``(records, torn_bytes)``.

        ``torn_bytes`` counts trailing bytes that do not form a valid
        record (a crash mid-append) — they are reported, not replayed,
        and :meth:`open_for_append` truncates them.  A missing file is
        an empty log.  A bad magic or a future format version raises
        :class:`WalError` instead of guessing.
        """
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            return [], 0
        if not blob:
            return [], 0
        if len(blob) < _HEADER.size:
            # even the header was torn: nothing to replay
            self._size = 0
            return [], len(blob)
        magic, version = _HEADER.unpack_from(blob)
        if magic != MAGIC:
            raise WalError(f"{self.path}: not a repro WAL (bad magic {magic!r})")
        if version != FORMAT_VERSION:
            raise WalError(
                f"{self.path}: WAL format version {version} is not supported "
                f"(this build reads version {FORMAT_VERSION})"
            )
        records: list[dict] = []
        pos = _HEADER.size
        good = pos
        while pos < len(blob):
            if pos + _U32.size > len(blob):
                break  # torn length word
            (length,) = _U32.unpack_from(blob, pos)
            end = pos + _U32.size + length + _U32.size
            if end > len(blob):
                break  # torn payload or checksum
            payload = blob[pos + _U32.size : pos + _U32.size + length]
            (crc,) = _U32.unpack_from(blob, end - _U32.size)
            if zlib.crc32(payload) != crc:
                if end < len(blob):
                    # a bad checksum *followed by more data* is not a torn
                    # tail — the log rotted mid-file and replaying past it
                    # would silently drop acknowledged deltas
                    raise WalError(
                        f"{self.path}: checksum mismatch at byte {pos} with "
                        f"{len(blob) - end} bytes following — log is corrupt, "
                        f"not merely torn"
                    )
                break
            try:
                record = json.loads(payload)
            except ValueError as err:
                raise WalError(f"{self.path}: undecodable record at byte {pos}: {err}") from None
            records.append(record)
            pos = good = end
        if good < len(blob) and _contains_valid_frame(blob, good):
            raise WalError(
                f"{self.path}: invalid frame at byte {good} is followed by "
                f"complete valid records — the log is corrupt, not merely "
                f"torn; refusing to silently drop acknowledged deltas"
            )
        self._size = good
        self._synced = good
        self._records = len(records)
        if records and self._first_append is None:
            # age of recovered records counts from this open (monotonic
            # clocks do not survive the process that wrote them)
            self._first_append = time.monotonic()
        return records, len(blob) - good

    def buffered_records(self) -> list[dict]:
        """Every complete record currently in the log, without side effects.

        Unlike :meth:`replay` this does **not** reposition the log or
        touch the append-side counters, so it is safe on a log that is
        open for appending (buffered writes are flushed first so the
        file read sees them).  The caller serialises against concurrent
        appends — the replication feed reads under the session lock.
        Torn or missing tails are simply not returned; :meth:`replay`
        owns corruption detection at open time.
        """
        with self._lock:
            if self._file is not None:
                self._file.flush()
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            return []
        if len(blob) < _HEADER.size:
            return []
        records: list[dict] = []
        pos = _HEADER.size
        while pos + _U32.size <= len(blob):
            (length,) = _U32.unpack_from(blob, pos)
            end = pos + _U32.size + length + _U32.size
            if end > len(blob):
                break
            payload = blob[pos + _U32.size : pos + _U32.size + length]
            (crc,) = _U32.unpack_from(blob, end - _U32.size)
            if zlib.crc32(payload) != crc:
                break
            records.append(json.loads(payload))
            pos = end
        return records

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def open_for_append(self) -> None:
        """Position the log for appending, truncating any torn tail.

        Creates the file (with its magic/version header) when absent.
        Call :meth:`replay` first on an existing log — it computes where
        the valid records end.
        """
        with self._lock:
            if self._file is not None:
                return
            exists = self.path.exists()
            self._file = open(self.path, "r+b" if exists else "w+b")
            if not exists or self._size == 0:
                self._file.seek(0)
                self._file.truncate()
                self._file.write(_HEADER.pack(MAGIC, FORMAT_VERSION))
                self._file.flush()
                if self.fsync:
                    os.fsync(self._file.fileno())
                    _fsync_dir(self.path.parent)
                self._size = self._synced = _HEADER.size
            else:
                self._file.seek(self._size)
                self._file.truncate()  # drop the torn tail, if any
            self._dirty_tail = False

    def append(self, record: dict) -> int:
        """Buffer one record; returns the offset :meth:`sync` must reach.

        The caller is expected to hold whatever lock serialises its own
        state transitions (the session lock) so record order matches
        publish order; the log's internal lock only protects the file.

        A failed write (real or injected) marks the tail **dirty**: the
        file position may hold a partial frame, and appending after it
        would bury garbage between valid records — which replay rightly
        refuses as corruption.  Further appends raise until
        :meth:`truncate` (a checkpoint) resets the log; the session's
        degraded mode enforces exactly that ordering.
        """
        payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        frame = _U32.pack(len(payload)) + payload + _U32.pack(zlib.crc32(payload))
        with self._lock:
            if self._file is None:
                raise WalError(f"{self.path}: log is not open for appending")
            if self._dirty_tail:
                raise OSError(
                    errno.EIO,
                    f"{self.path}: a failed append left a dirty tail; "
                    f"checkpoint (truncate) before appending again",
                )
            action = self.faults.fire("wal.append", tearable=True)
            try:
                if action is not None:  # torn-write: flush half a frame
                    self._file.write(frame[: max(1, len(frame) // 2)])
                    self._file.flush()
                    raise OSError(
                        errno.EIO,
                        f"failpoint wal.append: injected torn write "
                        f"({len(frame) // 2} of {len(frame)} bytes flushed)",
                    )
                self._file.write(frame)
            except OSError:
                self._dirty_tail = True
                raise
            self._size += len(frame)
            self._records += 1
            if self._first_append is None:
                self._first_append = time.monotonic()
            return self._size

    def sync(self, upto: int) -> None:
        """Group-commit: return once bytes ``[0, upto)`` are durable.

        The first caller to arrive becomes the leader and fsyncs the
        *whole* buffered log once; every waiter whose record that fsync
        covered returns without issuing its own.

        Safe against a concurrent :meth:`truncate` (a checkpoint landing
        while the leader is inside ``fsync``): the high-water mark is
        only advanced when no truncation intervened, so a record
        appended *after* the truncate can never be mistaken for already
        durable just because its offset is small.  (The record the
        truncate dropped is covered by the checkpoint's own snapshot —
        it was published before the snapshot was taken.)  Safe against a
        concurrent :meth:`close` too: a closed log has nothing left to
        sync, so this returns instead of raising at the caller whose
        write already published.

        A *failed* fsync (disk full, I/O error) raises to the leader and
        does **not** advance the high-water mark: waiters re-elect a new
        leader and retry, so every caller truthfully gets
        durable-or-exception — a failed flush can never be acknowledged.
        """
        with self._cond:
            while self._synced < upto and self._syncing:
                self._cond.wait()
            if self._synced >= upto:
                return
            self._syncing = True
            file = self._file
            target = self._size
            epoch = self._trunc_epoch
        flushed = False
        try:
            if file is not None:
                try:
                    file.flush()
                    self.faults.fire("wal.fsync")
                    if self.fsync:
                        os.fsync(file.fileno())
                except ValueError:
                    pass  # closed under us mid-shutdown; see docstring
            flushed = True
        finally:
            with self._cond:
                self._syncing = False
                if flushed and self._trunc_epoch == epoch:
                    self._synced = max(self._synced, target)
                self._cond.notify_all()

    def truncate(self) -> None:
        """Drop every record (after a checkpoint made them redundant).

        Also the recovery step for a dirty tail: truncating discards
        whatever a failed append left behind, so the log is clean for
        appending again.
        """
        with self._lock:
            if self._file is None:
                raise WalError(f"{self.path}: log is not open for appending")
            self.faults.fire("wal.truncate")
            self._file.seek(_HEADER.size)
            self._file.truncate()
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())
            self._size = self._synced = _HEADER.size
            self._trunc_epoch += 1
            self._records = 0
            self._first_append = None
            self._dirty_tail = False

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Bytes of valid records currently in the log (header included)."""
        with self._lock:
            return self._size

    @property
    def record_bytes(self) -> int:
        """Bytes of records beyond the file header."""
        with self._lock:
            return max(0, self._size - _HEADER.size)

    @property
    def record_count(self) -> int:
        """Complete records currently in the log (replayed + appended)."""
        with self._lock:
            return self._records

    @property
    def dirty_tail(self) -> bool:
        """Did a failed append leave non-record bytes at the file position?

        While true, appends are refused and a checkpoint must not take
        the nothing-to-do fast path — only :meth:`truncate` clears it.
        """
        with self._lock:
            return self._dirty_tail

    def age_seconds(self) -> float:
        """Seconds since the oldest un-checkpointed record was appended."""
        with self._lock:
            if self._first_append is None:
                return 0.0
            return time.monotonic() - self._first_append

    def iter_offsets(self) -> Iterator[int]:  # pragma: no cover - debugging aid
        """Offsets of each record frame (for inspection tools)."""
        blob = self.path.read_bytes()
        pos = _HEADER.size
        while pos + _U32.size <= len(blob):
            (length,) = _U32.unpack_from(blob, pos)
            end = pos + _U32.size + length + _U32.size
            if end > len(blob):
                return
            yield pos
            pos = end

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                try:
                    self._file.flush()
                finally:
                    self._file.close()
                    self._file = None
