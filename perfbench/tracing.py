"""Per-layer metrics from the spans a traced server wrote.

Self time is a span's duration minus the time its child spans cover;
children run on the parent's thread and nest inside it, so the self
times of one request's spans partition its ``server.handle`` span.
``server.wire_ms`` is what the client saw beyond that span: the wire,
admission, the executor queue and the send.

``trace.covered_share`` is the share of ``client.request_ms`` that the
trace breaks down: wire time plus the self times of the layers below
``server.handle``.  What is left is ``server.handle``'s own self time
(parsing, dispatch, rendering), which no wrapped function explains; a
run flags a share below :data:`COVERED_MIN`.
"""

from __future__ import annotations

from collections import defaultdict

#: every layer whose self time is reported (``server.handle`` is
#: reported as ``server.handle_self_ms``)
LAYERS = (
    "session.prepare",
    "session.evaluate",
    "session.evaluate_many",
    "session.apply_delta",
    "core.plan.make_plan",
    "core.engine.execute_plan",
    "core.certain.certain_answers",
    "logic.columnar.answers",
    "logic.kernels",
    "data.dictionary.from_rows",
    "data.dictionary.index",
    "data.dictionary.derive_columnar",
    "data.instance.with_delta",
    "storage.wal.append",
    "storage.wal.sync",
    "storage.store.checkpoint",
)
BACKENDS = ("columnar", "enumeration")
#: the least ``trace.covered_share`` a breakdown is complete enough at
COVERED_MIN = 0.9

#: (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("client.request_ms", "ms"),
    ("server.wire_ms", "ms"),
    ("server.handle_self_ms", "ms"),
    ("server.rows_rendered_per_read", "rows"),
    ("server.batched_share", "ratio"),
    ("server.overloaded", "count"),
    ("session.prepare_ms", "ms"),
    ("session.prepared_hit_ratio", "ratio"),
    ("session.result_cache_hit_ratio", "ratio"),
    ("session.apply_delta_ms", "ms"),
    ("core.plan.make_plan_ms", "ms"),
    ("core.plan.plans_per_read", "count"),
    *((f"core.engine.execute_plan_ms.{b}", "ms") for b in BACKENDS),
    ("data.instance.with_delta_ms", "ms"),
    ("data.dictionary.derive_columnar_ms", "ms"),
    ("data.dictionary.from_rows_ms", "ms"),
    ("data.dictionary.rows_encoded_per_read", "rows"),
    ("data.dictionary.index_ms", "ms"),
    ("logic.columnar.answers_ms", "ms"),
    ("logic.kernels.ms", "ms"),
    ("logic.kernels.calls_per_read", "count"),
    ("logic.kernels.rows_out", "rows"),
    ("core.certain.certain_answers_ms", "ms"),
    ("core.certain.worlds_per_query", "count"),
    ("core.certain.seed_exit_share", "ratio"),
    ("storage.wal.append_ms", "ms"),
    ("storage.wal.sync_ms", "ms"),
    ("storage.wal.bytes_per_write", "bytes"),
    ("storage.store.checkpoint_ms", "ms"),
    ("storage.store.checkpoints", "count"),
    ("storage.store.open_ms", "ms"),
    ("storage.wal.records_replayed", "count"),
    ("generator.late_ms", "ms"),
    ("trace.covered_share", "ratio"),
    ("trace.read_p50_ms", "ms"),
    ("trace.throughput_ops_s", "ops/s"),
    *((f"self.{layer}_ms", "ms") for layer in LAYERS),
)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def analyze(spans: list[list], restart_spans: list[list], records, reads: int) -> dict:
    """Per-layer metrics over the measured requests (``records``).

    ``records`` are the generator's records of the measured ops; their
    request ids select the spans that count.  ``restart_spans`` come
    from the server restarted after the kill (its recovery).
    """
    measured = {rec.rid: rec for rec in records}
    durations: dict[int, int] = {}
    child_time: dict[int, int] = defaultdict(int)
    for span_id, _name, start, end, parent, *_ in spans:
        durations[span_id] = end - start
        if parent:
            child_time[parent] += end - start
    by_name: dict[str, list[list]] = defaultdict(list)
    self_ns: dict[str, int] = defaultdict(int)
    handle_ns: dict[object, int] = defaultdict(int)
    for span in spans:
        span_id, name, start, end, _parent, rid = span[:6]
        if rid not in measured:
            continue
        by_name[name].append(span)
        self_ns[name] += durations[span_id] - child_time[span_id]
        if name == "server.handle":
            handle_ns[rid] += end - start

    def ms(span) -> float:
        return (span[3] - span[2]) / 1e6

    def mean_ms(name: str, pick=None) -> float:
        return _mean(ms(s) for s in by_name[name] if pick is None or pick(s))

    matched = [rec for rec in records if rec.rid in handle_ns]
    n = len(matched) or 1
    client_ms = _mean(rec.client_ms for rec in matched)
    wire_ms = _mean(rec.client_ms - handle_ns[rec.rid] / 1e6 for rec in matched)
    out: dict[str, float] = {
        "client.request_ms": client_ms,
        "server.wire_ms": wire_ms,
        "server.handle_self_ms": self_ns["server.handle"] / 1e6 / n,
    }
    for layer in LAYERS:
        out[f"self.{layer}_ms"] = self_ns[layer] / 1e6 / n
    covered = wire_ms + sum(out[f"self.{layer}_ms"] for layer in LAYERS)
    out["trace.covered_share"] = covered / client_ms if client_ms else 0.0

    prepares = by_name["session.prepare"]
    out["session.prepare_ms"] = mean_ms("session.prepare")
    out["session.prepared_hit_ratio"] = _mean(
        1.0 if (s[7] or {}).get("hit") else 0.0 for s in prepares
    )
    out["session.apply_delta_ms"] = mean_ms("session.apply_delta")
    reads = reads or 1
    out["core.plan.make_plan_ms"] = mean_ms("core.plan.make_plan")
    out["core.plan.plans_per_read"] = len(by_name["core.plan.make_plan"]) / reads
    executes = by_name["core.engine.execute_plan"]
    for backend in BACKENDS:
        out[f"core.engine.execute_plan_ms.{backend}"] = mean_ms(
            "core.engine.execute_plan", lambda s, b=backend: (s[7] or {}).get("backend") == b
        )
    out["data.instance.with_delta_ms"] = mean_ms("data.instance.with_delta")
    out["data.dictionary.derive_columnar_ms"] = mean_ms("data.dictionary.derive_columnar")
    out["data.dictionary.from_rows_ms"] = mean_ms("data.dictionary.from_rows")
    out["data.dictionary.rows_encoded_per_read"] = (
        sum(s[7] or 0 for s in by_name["data.dictionary.from_rows"]) / reads
    )
    out["data.dictionary.index_ms"] = mean_ms("data.dictionary.index")
    out["logic.columnar.answers_ms"] = mean_ms("logic.columnar.answers")
    kernels = by_name["logic.kernels"]
    out["logic.kernels.ms"] = mean_ms("logic.kernels")
    out["logic.kernels.calls_per_read"] = len(kernels) / reads
    out["logic.kernels.rows_out"] = _mean(s[7] or 0 for s in kernels)
    out["core.certain.certain_answers_ms"] = mean_ms("core.certain.certain_answers")
    oracle = [s[7] for s in executes if (s[7] or {}).get("worlds") is not None]
    out["core.certain.worlds_per_query"] = _mean(info["worlds"] for info in oracle)
    out["core.certain.seed_exit_share"] = _mean(
        1.0 if info.get("oracle_mode") == "seed" else 0.0 for info in oracle
    )
    appends = by_name["storage.wal.append"]
    out["storage.wal.append_ms"] = mean_ms("storage.wal.append")
    out["storage.wal.sync_ms"] = mean_ms("storage.wal.sync")
    out["storage.wal.bytes_per_write"] = _mean(s[7] or 0 for s in appends)
    out["storage.store.checkpoint_ms"] = mean_ms("storage.store.checkpoint")
    out["storage.store.checkpoints"] = float(len(by_name["storage.store.checkpoint"]))
    opens = [s for s in restart_spans if s[1] == "storage.store.open"]
    out["storage.store.open_ms"] = _mean(ms(s) for s in opens)
    out["storage.wal.records_replayed"] = float(
        sum((s[7] or {}).get("records_replayed", 0) for s in opens)
    )
    return out
