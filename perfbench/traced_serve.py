"""Run ``repro serve`` with every layer's public entry points wrapped in spans.

Usage::

    python perfbench/traced_serve.py SPANS.json serve [repro serve arguments]

The launcher imports ``repro`` from ``src/``, replaces each traced
public function with a wrapper that records a span, and then hands the
remaining arguments to :func:`repro.cli.main` — so the traced server is
the same :class:`repro.server.AsyncServer` that ``repro serve`` starts,
built from the same options.  Names are wrapped where their callers
look them up (the module attribute a caller dereferences at call time,
or the method on its class), so nothing under ``src/`` changes.

A span is ``[id, name, start_ns, end_ns, parent_id, request_id,
thread_id, extra]``.  Parents come from a per-thread stack; the request
id is the ``id`` field of the request whose ``QueryService.handle``
call is open on that thread.  Spans stay in memory and are written to
``SPANS.json`` at shutdown, or on ``SIGUSR1`` (the benchmark sends it
before a ``SIGKILL`` so the killed server's spans survive).
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import sys
import threading
from pathlib import Path
from time import perf_counter_ns

SPANS: list[list] = []
_ids = itertools.count(1)
_local = threading.local()


def _span(name: str, fn, extra=None, request_of=None, before=None):
    """A wrapper around ``fn`` recording one span per call.

    ``extra(args, result, mark)`` returns a small JSON value kept with
    the span (row counts, backend names), where ``mark`` is what
    ``before(args)`` returned ahead of the call (or ``None``);
    ``request_of(args)`` marks the wrapper as a request boundary and
    returns the request id.
    """

    def wrapper(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
            _local.rid = None
        span_id = next(_ids)
        parent = stack[-1] if stack else 0
        saved_rid = _local.rid
        if request_of is not None:
            _local.rid = request_of(args)
        mark = before(args) if before is not None else None
        stack.append(span_id)
        start = perf_counter_ns()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter_ns()
            stack.pop()
            info = None
            if extra is not None:
                try:
                    info = extra(args, result, mark)
                except Exception as err:  # noqa: BLE001 - a span must never break a request
                    info = {"extra_error": repr(err)}
            SPANS.append([span_id, name, start, end, parent, _local.rid,
                          threading.get_ident(), info])
            _local.rid = saved_rid

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_function(module, attr: str, name: str, extra=None) -> None:
    setattr(module, attr, _span(name, getattr(module, attr), extra))


def _wrap_method(cls, attr: str, name: str, extra=None, request_of=None,
                 before=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        inner = _span(name, raw.__func__, extra, before=before)
        setattr(cls, attr, classmethod(inner))
    else:
        setattr(cls, attr, _span(name, raw, extra, request_of, before))


def _request_id(args):
    request = args[1] if len(args) > 1 else None
    return request.get("id") if isinstance(request, dict) else None


def _rows_out(args, result, mark):
    return len(result)


def _execute_plan_extra(args, result, mark):
    info = {"backend": args[0].backend}
    oracle = result.stats.get("oracle")
    if oracle:
        info["worlds"] = oracle.get("worlds")
        info["oracle_mode"] = oracle.get("mode")
    return info


def install() -> None:
    """Wrap every traced public entry point (idempotent per process)."""
    from repro import server
    from repro.core import certain, engine, plan
    from repro.data import dictionary, instance
    from repro.logic import columnar, kernels
    from repro.session import Database, PreparedQuery
    from repro.storage import store, wal

    seen_prepared: dict[int, object] = {}

    def prepared_hit(args, result, mark):
        # the same PreparedQuery object handed out again = an intern-table
        # hit; a strong reference keeps ids from being recycled
        hit = id(result) in seen_prepared
        seen_prepared[id(result)] = result
        return {"hit": hit}

    def log_size(args):
        return args[0].size_bytes

    def wal_append_extra(args, result, mark):
        # append returns the log's new end: the frame is what it added
        return result - mark

    def open_extra(args, result, mark):
        return {"records_replayed": args[0].recovery.wal_records}

    def from_rows_extra(args, result, mark):
        return len(result.columns[0]) if result.columns else 0

    _wrap_method(server.QueryService, "handle", "server.handle", request_of=_request_id)
    _wrap_method(Database, "query", "session.prepare", prepared_hit)
    _wrap_method(Database, "evaluate_many", "session.evaluate_many")
    _wrap_method(Database, "apply_delta", "session.apply_delta")
    _wrap_method(PreparedQuery, "evaluate", "session.evaluate")
    _wrap_function(plan, "make_plan", "core.plan.make_plan")
    _wrap_function(engine, "execute_plan", "core.engine.execute_plan", _execute_plan_extra)
    _wrap_function(certain, "certain_answers", "core.certain.certain_answers")
    _wrap_method(instance.Instance, "with_delta", "data.instance.with_delta")
    _wrap_function(dictionary, "derive_columnar", "data.dictionary.derive_columnar")
    _wrap_method(dictionary.EncodedRelation, "from_rows", "data.dictionary.from_rows",
                 from_rows_extra)
    _wrap_method(dictionary.EncodedRelation, "index", "data.dictionary.index")
    _wrap_method(columnar.ColumnarQuery, "answers", "logic.columnar.answers")
    _wrap_method(columnar.ColumnarQuery, "naive_answers", "logic.columnar.answers")
    for kernel in ("sort_merge_join", "sort_merge_join_project", "semi_join"):
        _wrap_function(kernels, kernel, "logic.kernels", _rows_out)
    _wrap_method(wal.WriteAheadLog, "append", "storage.wal.append", wal_append_extra,
                 before=log_size)
    _wrap_method(wal.WriteAheadLog, "sync", "storage.wal.sync")
    _wrap_method(store.Storage, "checkpoint", "storage.store.checkpoint")
    _wrap_method(store.Storage, "open", "storage.store.open", open_extra)


def dump(path: str) -> None:
    """Write every span recorded so far to ``path`` (atomically)."""
    spans = list(SPANS)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(spans, handle)
    os.replace(tmp, path)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_serve.py SPANS.json serve [args...]", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    install()
    signal.signal(signal.SIGUSR1, lambda signum, frame: dump(spans_path))
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
