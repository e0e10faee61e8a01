"""End-to-end serving benchmark for ``repro``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read_mix --seed 1 --seconds 20 --trace 0

One run generates a workload from ``--seed`` (:mod:`workloads`), starts
``repro serve`` on it as its own process, drives it from one generator
process over two pipelined :class:`repro.client.AsyncClient`
connections, checks every answer, and prints a report whose last line
is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Phases, in order (the workload splits ``--seconds`` between warm-up, open
and closed loops):

1. set-up, seven times (``setup_s`` is the median): launch the server on
   the generated inputs until it has answered ``ping`` and each set-up
   query once; the first six servers are killed, the seventh is measured;
2. warm-up: closed loop, discarded;
3. five rounds, each an open loop at the workload's fixed offered rate
   (latencies timed from when each request was due; ``read_p50_ms`` and
   ``write_p50_ms`` are the best round's medians) followed by a closed
   loop with 2 requests always outstanding (``throughput_ops_s`` pools
   the rounds);
4. ``SIGKILL`` the server, then three times: restart it on the same
   inputs and time it to its first ``ping`` answer (``recovery_s`` is
   the fastest); on the durable workload the restarted server must hold
   exactly the acknowledged writes.

After the timed windows every read is compared with an in-process
reference at the generation it reports (:mod:`reference`); any failed
op or mismatch makes the run exit 1.  With ``--trace 1`` the server runs
under :mod:`traced_serve` and the run reports the per-layer metrics of
:mod:`tracing` instead.  Scratch files live in ``.perfbench_run/`` and
are removed at exit.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: set-ups per run (``setup_s`` is their median)
SETUPS = 7
#: restarts after the kill (``recovery_s`` is the fastest)
RESTARTS = 3
#: the measured windows are cut into this many open/closed rounds; the
#: p50 metrics come from the best round, since interference from the
#: rest of the machine only ever slows a round while a slower program
#: slows every round (throughput pools the rounds: on a shared 2-vCPU
#: VM the machine's speed drifts over tens of seconds, and neither the
#: median nor the upper quartile of sub-second window rates moved less
#: between identical runs than the pooled rate did)
ROUNDS = 5
#: closed-loop concurrency, and the generator's connection count
IN_FLIGHT = 2
#: a run whose generator sent its open-loop requests later than this
#: (p99) measured the generator, not the server: it is invalid
LATE_LIMIT_MS = 50.0
CLIENT_TIMEOUT_S = 30.0
LAUNCH_TIMEOUT_S = 120.0

#: the end-to-end metrics of the JSON result (``BENCHMARK.json``)
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("peak_rss_mb", "MB"),
)
#: printed in the report only: on a 2-vCPU VM these swung between
#: identical runs (scheduling jitter, fsync latency, process start-up)
#: beyond any bound
REPORTED = (
    ("recovery_s", "s"),
    ("read_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("write_tail_ms", "ms"),
)


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------


class ServerProcess:
    """One ``repro serve`` process, its log file and its address."""

    def __init__(self, argv: list[str], log: Path, env: dict):
        self.log = log
        self._handle = open(log, "wb")
        self.proc = subprocess.Popen(
            argv, stdout=self._handle, stderr=subprocess.STDOUT, env=env
        )
        self.address: tuple[str, int] | None = None

    async def wait_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + LAUNCH_TIMEOUT_S
        marker = b"listening on "
        while time.monotonic() < deadline:
            text = self.log.read_bytes()
            at = text.find(marker)
            if at >= 0 and b"\n" in text[at:]:
                host, port = text[at + len(marker):].split(b"\n", 1)[0].decode().rsplit(":", 1)
                self.address = (host, int(port))
                return self.address
            if self.proc.poll() is not None:
                raise BenchError(f"server exited early:\n{text.decode(errors='replace')}")
            await asyncio.sleep(0.002)
        raise BenchError("server did not start listening in time")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM line in /proc status")

    def send(self, signum: int) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signum)

    def stop(self, signum: int = signal.SIGKILL, timeout: float = 60.0) -> None:
        """Signal the process and wait for it to end (SIGKILL past ``timeout``)."""
        self.send(signum)
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._handle.close()


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------


class Record:
    """What the generator saw of one op."""

    __slots__ = ("op", "rid", "phase", "round", "due", "start", "sent", "end",
                 "client_ms", "response", "error", "mismatch")

    def __init__(self, op, rid, phase, round_, due):
        self.op = op
        self.rid = rid
        self.phase = phase
        self.round = round_
        self.due = due
        self.start = self.sent = self.end = 0.0
        self.client_ms = 0.0
        self.response: dict | None = None
        self.error: str | None = None
        self.mismatch = False

    @property
    def failed(self) -> bool:
        return self.error is not None or self.mismatch


class Generator:
    """Drives one server over ``IN_FLIGHT`` pipelined connections.

    Writes go through one lane, one at a time in stream order, so each
    write's acknowledged generation is exactly the one it created.
    """

    def __init__(self, clients, stream, log):
        self.clients = clients
        self.stream = stream
        self.log = log  # reference.StateLog
        self.write_lane = asyncio.Lock()
        self.records: list[Record] = []
        self.warmup: list[Record] = []

    async def _run(self, client, rec: Record) -> None:
        from repro.client import ClientError

        loop = asyncio.get_running_loop()
        rec.start = loop.time()
        op = rec.op
        payload = {"id": rec.rid, **op.payload}
        try:
            if op.kind == "write":
                async with self.write_lane:
                    rec.sent = loop.time()
                    rec.response = await client.request(payload)
                    rec.end = loop.time()
                    self.log.record(op.write[0], op.write[2], rec.response)
            else:
                rec.sent = loop.time()
                rec.response = await client.request(payload)
                rec.end = loop.time()
        except ClientError as err:
            rec.end = loop.time()
            rec.error = f"{type(err).__name__}: {err}"
        rec.client_ms = (rec.end - rec.sent) * 1000.0

    def _record(self, phase: str, round_: int, due: float) -> Record:
        op = self.stream.next()
        warm = phase == "warmup"
        rid = f"w{op.index}" if warm else 10**6 + op.index
        rec = Record(op, rid, phase, round_, due)
        (self.warmup if warm else self.records).append(rec)
        return rec

    async def closed_loop(self, phase: str, round_: int, seconds: float) -> tuple[int, float]:
        """``IN_FLIGHT`` callers each waiting for their reply.

        Returns the ops completed and the seconds they took.
        """
        loop = asyncio.get_running_loop()
        start = loop.time()
        stop = start + seconds
        done = 0
        last = start

        async def caller(client):
            nonlocal done, last
            while loop.time() < stop:
                rec = self._record(phase, round_, loop.time())
                await self._run(client, rec)
                done += 1
                last = max(last, rec.end)

        await asyncio.gather(*(caller(c) for c in self.clients))
        return done, last - start

    async def open_loop(self, round_: int, rate: float, seconds: float) -> None:
        """Requests sent on a fixed schedule, whatever the replies do."""
        loop = asyncio.get_running_loop()
        count = max(1, int(rate * seconds))
        t0 = loop.time() + 0.01
        tasks = []
        for i in range(count):
            due = t0 + i / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            rec = self._record("open", round_, due)
            client = self.clients[i % len(self.clients)]
            tasks.append(asyncio.create_task(self._run(client, rec)))
        await asyncio.gather(*tasks)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float], pct: float, what: str, notes: list[str]) -> float:
    beyond = len(values) - math.ceil(pct / 100.0 * len(values))
    if beyond < 10:
        notes.append(f"{what}: only {beyond} samples beyond p{pct:g} (want >= 10)")
    return percentile(values, pct)


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


class Run:
    """One benchmark run: its workload, its server processes, its phases."""

    def __init__(self, args, workdir: Path):
        from workloads import build

        self.args = args
        self.workload = build(args.workload, args.seed)
        self.spec = self.workload.spec
        self.trace = bool(args.trace)
        self.workdir = workdir
        self.instance_path = workdir / "instance.json"
        self.instance_path.write_text(json.dumps(self.workload.instance))
        self.env = {**os.environ, "PYTHONPATH": str(Path.cwd() / "src")}
        self.servers: list[ServerProcess] = []
        self.notes: list[str] = []
        # imported before any set-up is timed, which would otherwise
        # count the generator's own import in the first one
        from repro.client import AsyncClient

        self._client_class = AsyncClient

    def _argv(self, tag: str, seeded: bool) -> list[str]:
        serve = ["serve", "--port", "0", "--semantics", self.spec.semantics]
        if seeded:
            serve.insert(1, str(self.instance_path))
        if self.spec.durable:
            serve += ["--data-dir", str(self.workdir / "data")]
        if self.trace:
            return [sys.executable, str(HERE / "traced_serve.py"),
                    str(self.workdir / f"spans-{tag}.json"), *serve]
        return [sys.executable, "-m", "repro", *serve]

    def _launch(self, tag: str, seeded: bool) -> ServerProcess:
        server = ServerProcess(self._argv(tag, seeded), self.workdir / f"{tag}.log", self.env)
        self.servers.append(server)
        return server

    async def _client(self, address):
        return self._client_class(address, timeout=CLIENT_TIMEOUT_S)

    async def setup_once(self, tag: str) -> tuple[float, ServerProcess]:
        data = self.workdir / "data"
        if data.exists():
            shutil.rmtree(data)
        t0 = time.perf_counter()
        server = self._launch(tag, seeded=True)
        address = await server.wait_listening()
        client = await self._client(address)
        try:
            await client.ping()
            for text in self.workload.setup_queries:
                await client.query(text)
        finally:
            await client.aclose()
        return time.perf_counter() - t0, server

    async def measure(self) -> dict:
        from reference import StateLog

        spec = self.spec
        seconds = self.args.seconds
        setups = []
        server = None
        for k in range(SETUPS):
            if server is not None:
                server.stop()
            elapsed, server = await self.setup_once(f"setup{k}")
            setups.append(elapsed)
        clients = [await self._client(server.address) for _ in range(IN_FLIGHT)]
        for client in clients:  # connect before any op is timed
            await client.ping()
        stats = await clients[0].stats()
        log = StateLog(stats["generation"])
        gen = Generator(clients, self.workload.stream, log)
        warm_s, open_s, closed_s = (max(1.0, f * seconds) for f in spec.split)
        gc_was_enabled = gc.isenabled()
        rates = []
        try:
            await gen.closed_loop("warmup", 0, warm_s)
            for k in range(ROUNDS):
                # the generator's own collector never runs in a window
                gc.collect()
                gc.disable()
                await gen.open_loop(k, spec.rate_ops_s, open_s / ROUNDS)
                gc.collect()
                rates.append(await gen.closed_loop("closed", k, closed_s / ROUNDS))
                gc.enable()
        finally:
            if gc_was_enabled:
                gc.enable()
        final = await clients[0].stats()
        for client in clients:
            await client.aclose()
        rss = server.peak_rss_mb()
        if self.trace:
            spans_path = self.workdir / f"spans-setup{SETUPS - 1}.json"
            server.send(signal.SIGUSR1)
            await self._wait_file(spans_path, server)
        server.stop(signal.SIGKILL)
        recovery_s, problems = await self.recover(log)
        return {
            "setups": setups,
            "throughput": sum(n for n, _ in rates) / sum(t for _, t in rates),
            "rates": rates,
            "records": gen.records,
            "warmup": gen.warmup,
            "log": log,
            "stats": final,
            "rss": rss,
            "recovery_s": recovery_s,
            "durability_problems": problems,
        }

    async def _wait_file(self, path: Path, server: ServerProcess) -> None:
        deadline = time.monotonic() + 60
        while not path.exists():
            if time.monotonic() > deadline or server.proc.poll() is not None:
                raise BenchError(f"traced server wrote no spans to {path.name}")
            await asyncio.sleep(0.01)

    async def recover(self, log) -> tuple[float, list[str]]:
        """Restart after the kill, ``RESTARTS`` times; on durable state, check it.

        A killed restart leaves the log as it found it, so every restart
        replays the same records; the fastest restart is reported (the
        machine only ever slows one), and the last one is checked and
        stopped gracefully.
        """
        from reference import Reference, check_dump

        times = []
        for k in range(RESTARTS):
            last = k == RESTARTS - 1
            t0 = time.perf_counter()
            server = self._launch("restart" if last else f"restart{k}",
                                  seeded=not self.spec.durable)
            address = await server.wait_listening()
            client = await self._client(address)
            try:
                await client.ping()
                times.append(time.perf_counter() - t0)
            finally:
                if not last:
                    await client.aclose()
            if not last:
                server.stop(signal.SIGKILL)
        problems: list[str] = []
        try:
            if self.spec.durable:
                stats = await client.stats()
                if stats["generation"] != log.generation:
                    problems.append(
                        f"recovered generation {stats['generation']}, "
                        f"last acknowledged {log.generation}"
                    )
                dump = await asyncio.to_thread(_dump, address)
                expected = Reference(self.workload).expected_instance(log.final)
                problems += check_dump(dump["instance"], expected)
        finally:
            await client.aclose()
        server.stop(signal.SIGTERM)
        return min(times), problems

    def close(self) -> None:
        for server in self.servers:
            server.stop()


def _dump(address) -> dict:
    """The server's whole instance, over the blocking client.

    The dump of a large instance is one response line longer than
    :class:`AsyncClient`'s 64 KiB stream-reader limit.
    """
    from repro.client import Client

    with Client(address, timeout=CLIENT_TIMEOUT_S) as client:
        return client.request({"op": "dump"})


def latency_metrics(records, spec, notes) -> dict:
    """Open-loop latencies, timed from when each request was due.

    The p50s are the lowest round median over the rounds; the tails
    pool every round, which the percentile needs.
    """
    opened = [r for r in records if r.phase == "open" and not r.failed]

    def latencies(kind: str, round_: int | None = None) -> list[float]:
        return [(r.end - r.due) * 1000.0 for r in opened
                if r.op.kind == kind and round_ in (None, r.round)]

    def rounds(kind: str) -> list[float]:
        return [statistics.median(latencies(kind, k)) for k in range(ROUNDS)]

    def p50(kind: str) -> float:
        return min(rounds(kind))

    reads, writes = latencies("read"), latencies("write")
    if any(not latencies(kind, k) for kind in ("read", "write") for k in range(ROUNDS)):
        raise BenchError("an open-loop round completed no reads or no writes")
    late = [(r.start - r.due) * 1000.0 for r in records if r.phase == "open"]
    return {
        "read_p50_ms": p50("read"),
        "read_tail_ms": tail(reads, spec.read_tail_pct, "read_tail_ms", notes),
        "write_p50_ms": p50("write"),
        "write_tail_ms": tail(writes, spec.write_tail_pct, "write_tail_ms", notes),
        "generator.late_ms": percentile(late, 99.0),
        "samples": (len(reads), len(writes)),
        "rounds": rounds("read"),
        "ladder": {kind: {p: percentile(vals, p) for p in (90.0, 95.0, 99.0)}
                   for kind, vals in (("read", reads), ("write", writes))},
    }


def report(name: str, value: float, unit: str) -> None:
    print(f"  {name:<42} {value:>14.4f} {unit}")


async def run(args, workdir: Path) -> int:
    from reference import Reference, check_reads

    bench = Run(args, workdir)
    try:
        result = await bench.measure()
    finally:
        bench.close()
    spec, records, log = bench.spec, result["records"], result["log"]
    # failed ops first: a failed write also derails the state log after it
    problems = [f"op {r.op.index} ({r.phase}, {r.op.template}) failed: {r.error}"
                for r in result["warmup"] + records if r.error is not None]
    problems += log.errors + result["durability_problems"]
    problems += check_reads(records, log, Reference(bench.workload))
    failed = sum(1 for r in records if r.failed) + len(result["durability_problems"])
    attempted = len(records)
    e2e = {
        "setup_s": statistics.median(result["setups"]),
        "throughput_ops_s": result["throughput"],
        "peak_rss_mb": result["rss"],
        "recovery_s": result["recovery_s"],
    }
    print(f"perfbench {spec.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={os.cpu_count()}")
    print(f"  {spec.flush_policy}; sizes " + ", ".join(f"{k}={v}" for k, v in spec.sizes.items()))
    if problems:
        # judged before any latency: a run with wrong answers is incorrect,
        # however late or empty its rounds were
        for problem in problems[:20]:
            print(f"  FAILED: {problem}")
        report("error_rate", failed / attempted, "ratio")
        metrics = {} if args.trace else {
            name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 1
    lat = latency_metrics(records, spec, bench.notes)
    for name in ("read_p50_ms", "read_tail_ms", "write_p50_ms", "write_tail_ms"):
        e2e[name] = lat[name]
    reads = [r for r in records if r.op.kind == "read" and r.response is not None]
    print(f"  open loop {spec.rate_ops_s:g} ops/s: {lat['samples'][0]} reads, "
          f"{lat['samples'][1]} writes; read tail p{spec.read_tail_pct:g}, "
          f"write tail p{spec.write_tail_pct:g}")
    units = dict(END_TO_END + REPORTED)
    for name, value in e2e.items():
        report(name, value, units[name])
    report("error_rate", failed / attempted, "ratio")
    report("generator.late_ms (p99)", lat["generator.late_ms"], "ms")
    print("  set-ups: " + ", ".join(f"{t:.3f}" for t in result["setups"]) + " s")
    print("  closed-loop rounds: "
          + ", ".join(f"{n / t:.1f}" for n, t in result["rates"]) + " ops/s")
    print("  open-loop read p50 per round: "
          + ", ".join(f"{v:.3f}" for v in lat["rounds"]) + " ms")
    for kind, ladder in lat["ladder"].items():
        print(f"  {kind} latency " + ", ".join(f"p{p:g} {v:.3f} ms" for p, v in ladder.items()))
    metrics: dict[str, dict] = {}
    if args.trace:
        from tracing import COVERED_MIN, PER_LAYER, analyze

        spans = json.loads((workdir / f"spans-setup{SETUPS - 1}.json").read_text())
        restart = workdir / "spans-restart.json"
        restart_spans = json.loads(restart.read_text()) if restart.exists() else []
        measured = [r for r in records if not r.failed]
        layer = analyze(spans, restart_spans, measured, len(reads))
        cache = [r.response.get("cache") for r in reads]
        layer["server.rows_rendered_per_read"] = statistics.fmean(
            len(r.response.get("answers", ())) for r in reads)
        layer["server.batched_share"] = statistics.fmean(
            1.0 if r.response.get("batched") else 0.0 for r in reads)
        layer["server.overloaded"] = float(result["stats"]["requests"].get("overloaded", 0))
        layer["session.result_cache_hit_ratio"] = cache.count("hit") / len(cache)
        layer["generator.late_ms"] = lat["generator.late_ms"]
        layer["trace.read_p50_ms"] = e2e["read_p50_ms"]
        layer["trace.throughput_ops_s"] = e2e["throughput_ops_s"]
        if layer["trace.covered_share"] < COVERED_MIN:
            bench.notes.append(
                f"trace.covered_share {layer['trace.covered_share']:.3f} < {COVERED_MIN:g}: "
                "the rest of client.request_ms is server.handle's own time "
                "(parse, dispatch, rendering), not broken down by any traced layer")
        print("per-layer (traced run):")
        for name, unit in PER_LAYER:
            report(name, layer[name], unit)
            metrics[name] = {"value": layer[name], "unit": unit}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    for note in bench.notes:
        print(f"  note: {note}")
    if lat["generator.late_ms"] > LATE_LIMIT_MS:
        print(f"perfbench: invalid run: generator.late_ms {lat['generator.late_ms']:.1f} "
              f"exceeds {LATE_LIMIT_MS:g} ms", file=sys.stderr)
        return 3
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = Path.cwd() / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return asyncio.run(run(args, workdir))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
