"""Seeded workload definitions: one instance and one request stream each.

A workload is a pure function of its seed.  :func:`build` returns the
instance (JSON cells in the :mod:`repro.data.jsonio` format: ``"?a"``
is the null ⊥a) and an :class:`OpStream`, an endless deterministic
sequence of requests.  Nothing here imports ``repro``: the server under
test receives only the generated instance file and the request frames.

Every write toggles one row of a small fixed pool — insert it, then
delete it with the next write — so instance size, constant pool and
the caches' working sets stay stationary however long a run lasts.
Requests come in cycles that repeat one fixed sequence of request
kinds, so every whole cycle of a run asks the server for the same work.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from itertools import accumulate


@dataclass(frozen=True)
class Template:
    """One kind of request in a workload's mix, ``count`` of them a cycle.

    ``check`` names the reference the answer is compared against
    (``"naive"``: naive evaluation in-process; ``"oracle"``: the forced
    enumeration oracle).  ``reads_toggled`` says whether the query reads
    the relation the writes toggle, so the reference depends on them.
    """

    name: str
    count: int
    check: str = "naive"
    reads_toggled: bool = False


@dataclass(frozen=True)
class Op:
    """One request: its wire payload plus what the checker needs."""

    index: int
    kind: str  # "read" or "write"
    template: str
    payload: dict
    check: str = ""
    reads_toggled: bool = False
    #: for writes: ("insert" | "delete", relation, row as JSON cells)
    write: tuple | None = None


@dataclass
class Workload:
    """A built workload: instance, request stream, and the run settings."""

    name: str
    seed: int
    instance: dict[str, list[list]]
    #: the toggled relation (every write touches it, and only it)
    toggle_relation: str
    #: one text per template, answered once during set-up
    setup_queries: list[str]
    stream: "OpStream"
    spec: "Spec"


@dataclass(frozen=True)
class Spec:
    """The fixed choices of one workload (each run prints them in its report)."""

    name: str
    why: str
    semantics: str
    durable: bool
    #: open-loop offered rate in ops/s (a quarter to a third of the seed's
    #: closed-loop throughput on a 2-vCPU machine: at half, queueing
    #: amplified the machine's own jitter between identical runs)
    rate_ops_s: float
    #: the tail percentile reported as ``read_tail_ms``/``write_tail_ms``
    read_tail_pct: float
    write_tail_pct: float
    sizes: dict = field(default_factory=dict)
    #: shares of ``--seconds`` for warm-up, open loop and closed loop (the
    #: closed loop's gated throughput gets the larger share)
    split: tuple = (0.05, 0.25, 0.7)

    @property
    def flush_policy(self) -> str:
        if self.durable:
            return "durable --data-dir, fsync before every write ack (group commit)"
        return "in memory, no journal"


def _zipf_cdf(n: int, s: float) -> list[float]:
    return list(accumulate(1.0 / (rank + 1) ** s for rank in range(n)))


class OpStream:
    """An endless, seeded request sequence (``next()`` gives the next op).

    The stream repeats one order of its deck: each template ``count``
    times and ``writes`` writes.  That order is fixed per workload by
    ``order``, not by the seed, because the work of a cycle hangs on
    it (a read repeated before the next write hits the result cache).
    Writes alternate insert/delete over the toggle pool; a read fills in
    its template's constants from the seeded generator.  The stream is a
    pure function of the seed: two streams built from the same seed
    yield identical ops.
    """

    def __init__(self, order: str, seed: int, templates: list[Template], writes: int,
                 make_read, toggle_relation: str, toggle_rows: list[list]):
        self._rng = random.Random(seed)
        self._templates = {t.name: t for t in templates}
        deck = [t.name for t in templates for _ in range(t.count)] + [None] * writes
        self._order = self._deal(deck, random.Random(order))
        #: requests per cycle: every cycle makes the same kinds of request
        self.cycle = len(self._order)
        self._make_read = make_read
        self._relation = toggle_relation
        self._rows = toggle_rows
        self._writes = 0
        self._index = 0

    @staticmethod
    def _deal(deck: list[str | None], rng: random.Random) -> list[str | None]:
        """The order: template names, ``None`` for a write."""
        rng.shuffle(deck)
        return deck

    def next(self) -> Op:
        index = self._index
        self._index += 1
        name = self._order[index % len(self._order)]
        if name is None:
            k = self._writes
            self._writes += 1
            row = self._rows[(k // 2) % len(self._rows)]
            action = "insert" if k % 2 == 0 else "delete"
            payload = {"op": action, "relation": self._relation, "rows": [row]}
            return Op(index, "write", action, payload,
                      write=(action, self._relation, tuple(row)))
        template = self._templates[name]
        text = self._make_read(name, self._rng)
        return Op(index, "read", name, {"op": "query", "query": text},
                  check=template.check, reads_toggled=template.reads_toggled)

    def take(self, n: int) -> list[Op]:
        return [self.next() for _ in range(n)]


# ----------------------------------------------------------------------
# read_mix: the cheap-request path
# ----------------------------------------------------------------------

READ_MIX = Spec(
    name="read_mix",
    why="small in-memory instance, 90% point/scan reads with Zipf constants over "
    "2048 values (overflowing the 256 prepared and 1024 result cache slots), "
    "10% toggled writes to an unread relation",
    semantics="cwa",
    durable=False,
    rate_ops_s=200.0,
    read_tail_pct=99.0,
    write_tail_pct=95.0,
    sizes={"R": 2000, "S": 600, "P": 2400, "R_nulls": 6, "S_nulls": 4,
           "zipf_keys": 2048, "zipf_s": 1.0, "scan_groups": 8, "toggle_pool": 16},
)


def _read_mix(seed: int) -> Workload:
    sz = READ_MIX.sizes
    rng = random.Random(f"read_mix/{seed}")
    keys = sz["zipf_keys"]
    mids = 512
    r_rows: set[tuple] = set()
    while len(r_rows) < sz["R"] - sz["R_nulls"]:
        r_rows.add((rng.randrange(keys), rng.randrange(mids)))
    s_rows: set[tuple] = set()
    while len(s_rows) < sz["S"] - sz["S_nulls"]:
        s_rows.add((rng.randrange(mids), rng.randrange(keys)))
    for i in range(sz["R_nulls"]):
        r_rows.add((rng.randrange(keys), f"?r{i}"))
    for i in range(sz["S_nulls"]):
        s_rows.add((f"?r{i}", rng.randrange(keys)))
    p_rows: set[tuple] = set()
    while len(p_rows) < sz["P"]:
        p_rows.add((rng.randrange(sz["scan_groups"]), rng.randrange(keys)))
    toggles = [[keys + i] for i in range(sz["toggle_pool"])]
    instance = {
        "R": sorted(map(list, r_rows), key=repr),
        "S": sorted(map(list, s_rows), key=repr),
        "P": sorted(map(list, p_rows), key=repr),
        "T": [[-1]],
    }
    # Zipf ranks map to keys through a seeded permutation, so the hot
    # keys differ between seeds
    perm = list(range(keys))
    rng.shuffle(perm)
    cdf = _zipf_cdf(keys, sz["zipf_s"])

    def zipf_key(r: random.Random) -> int:
        return perm[bisect.bisect_right(cdf, r.random() * cdf[-1])]

    def make_read(name: str, r: random.Random) -> str:
        if name == "point_join":
            return f"exists z (R({zipf_key(r)}, z) & S(z, y))"
        if name == "point":
            return f"R({zipf_key(r)}, y)"
        return f"P({r.randrange(sz['scan_groups'])}, x)"

    templates = [
        Template("point_join", 5),
        Template("point", 2),
        Template("scan", 2),
    ]
    stream = OpStream("read_mix", seed, templates, 1, make_read, "T", toggles)
    return Workload(
        "read_mix", seed, instance, "T",
        ["exists z (R(0, z) & S(z, y))", "R(0, y)", "P(0, x)"],
        stream, READ_MIX,
    )


# ----------------------------------------------------------------------
# write_requery: the write path and execution at scale
# ----------------------------------------------------------------------

WRITE_REQUERY = Spec(
    name="write_requery",
    why="durable 20k-row R with fsync; toggled single-row writes to R interleaved "
    "1:1 with selective or Boolean requeries of R, so every read after a write "
    "misses the result cache",
    semantics="cwa",
    durable=True,
    rate_ops_s=8.0,
    read_tail_pct=90.0,
    write_tail_pct=90.0,
    sizes={"R": 20000, "S": 1000, "R_nulls": 8, "domain": 10000,
           "requeries": 8, "toggle_pool": 8},
)


def _write_requery(seed: int) -> Workload:
    sz = WRITE_REQUERY.sizes
    rng = random.Random(f"write_requery/{seed}")
    dom = sz["domain"]
    s_vals = rng.sample(range(dom), sz["S"])
    hot = rng.sample(range(dom), 4)  # constants the requeries name
    r_rows: set[tuple] = set()
    while len(r_rows) < sz["R"] - sz["R_nulls"]:
        row = (rng.randrange(dom), rng.randrange(dom))
        if row[0] not in hot:
            r_rows.add(row)
    for c in hot:  # a couple of facts per hot constant, none into S
        for _ in range(2):
            v = rng.randrange(dom)
            if v not in s_vals:
                r_rows.add((c, v))
    for i in range(sz["R_nulls"]):
        r_rows.add((rng.randrange(dom), f"?n{i}"))
    a, b, c, d = hot
    texts = [
        f"exists y (R({a}, y) & S(y))",
        f"exists y (R({b}, y) & S(y))",
        f"R({c}, y)",
        f"exists y (R({d}, y) & R(y, z))",
        f"exists y (R(x, y) & R(y, {a}))",
        f"exists y (R({c}, y) & S(y) & R(y, z))",
        f"exists y, z (R({d}, y) & R(y, z) & S(z))",
        f"R(x, {b})",
    ]
    # toggled rows make the requeries' answers flip: (hot, in-S) pairs
    # and (·, hot) pairs, none present in the base instance
    toggles: list[list] = []
    for i in range(sz["toggle_pool"]):
        if i % 2 == 0:
            row = (hot[i // 2 % 4], rng.choice(s_vals))
        else:
            row = (rng.choice(s_vals), hot[i // 2 % 4])
        if row not in r_rows and list(row) not in toggles:
            toggles.append(list(row))
    instance = {
        "R": sorted(map(list, r_rows), key=repr),
        "S": sorted([[v] for v in s_vals]),
    }

    by_name = {f"requery{i}": text for i, text in enumerate(texts)}

    def make_read(name: str, r: random.Random) -> str:
        return by_name[name]

    templates = [Template(name, 1, reads_toggled=True) for name in by_name]
    stream = _AlternatingStream("write_requery", seed, templates, len(templates),
                                make_read, "R", toggles)
    return Workload("write_requery", seed, instance, "R", texts,
                    stream, WRITE_REQUERY)


class _AlternatingStream(OpStream):
    """Write, read, write, read, …: every requery follows a write."""

    @staticmethod
    def _deal(deck: list[str | None], rng: random.Random) -> list[str | None]:
        reads = [name for name in deck if name is not None]
        rng.shuffle(reads)
        return [turn for name in reads for turn in (None, name)]


# ----------------------------------------------------------------------
# oracle_cwa: certain answers outside Figure 1's fragments
# ----------------------------------------------------------------------

ORACLE_CWA = Spec(
    name="oracle_cwa",
    why="CWA, 3 nulls and 6 constants: non-fragment queries take the world-"
    "enumerating oracle, UCQs on the same relation are the naive control; "
    "toggled writes, some with nulls, invalidate results",
    semantics="cwa",
    durable=False,
    rate_ops_s=25.0,
    read_tail_pct=95.0,
    write_tail_pct=90.0,
    sizes={"E_constant_facts": 10, "E_null_facts": 5, "nulls": 3, "constants": 6,
           "toggle_pool": 6},
)

ORACLE_TEXTS = [
    "exists z (E(x, z) & ~ E(z, x))",
    "forall y (E(x, y) -> exists z (E(y, z)))",
    "exists y (E(x, y) & ~ E(y, y))",
    "forall y (E(x, y) -> E(y, x))",
]
UCQ_TEXTS = [
    "exists z (E(x, z) & E(z, y))",
    "exists z (E(x, z) & E(z, x))",
]


def _oracle_cwa(seed: int) -> Workload:
    sz = ORACLE_CWA.sizes
    # The oracle's cost hangs on the shape of these few facts, so the
    # shape is fixed and the seed picks the constants' values (in
    # order, which keeps the enumeration order) and the request order.
    shape = random.Random("oracle_cwa/shape")
    consts = list(range(sz["constants"]))
    e_rows: set[tuple] = set()
    while len(e_rows) < sz["E_constant_facts"]:
        e_rows.add((shape.choice(consts), shape.choice(consts)))
    for i, c in enumerate(consts):  # every constant occurs in E
        if not any(c in row for row in e_rows):
            e_rows.add((c, consts[(i + 1) % len(consts)]))
    nulls = ["?a", "?b", "?c"]
    e_rows.update([
        (shape.choice(consts), "?a"), ("?a", shape.choice(consts)),
        ("?b", shape.choice(consts)), (shape.choice(consts), "?c"), ("?c", "?b"),
    ])
    toggles: list[tuple] = []
    while len(toggles) < sz["toggle_pool"]:
        if len(toggles) % 2:
            row = (shape.choice(consts), shape.choice(nulls))  # carries a null
        else:
            row = (shape.choice(consts), shape.choice(consts))
        if row not in e_rows and row not in toggles:
            toggles.append(row)
    values = sorted(random.Random(f"oracle_cwa/{seed}").sample(range(1, 100), len(consts)))

    def label(row: tuple) -> list:
        return [values[c] if isinstance(c, int) else c for c in row]

    e_rows = {tuple(label(row)) for row in e_rows}
    toggles = [label(row) for row in toggles]
    instance = {"E": sorted(map(list, e_rows), key=repr)}
    texts = {f"oracle{i}": t for i, t in enumerate(ORACLE_TEXTS)}
    texts.update({f"ucq{i}": t for i, t in enumerate(UCQ_TEXTS)})

    def make_read(name: str, r: random.Random) -> str:
        return texts[name]

    templates = [
        *(Template(f"oracle{i}", 7, "oracle", True) for i in range(len(ORACLE_TEXTS))),
        *(Template(f"ucq{i}", 4, "naive", True) for i in range(len(UCQ_TEXTS))),
    ]
    stream = OpStream("oracle_cwa", seed, templates, 12, make_read, "E", toggles)
    return Workload("oracle_cwa", seed, instance, "E",
                    ORACLE_TEXTS + UCQ_TEXTS, stream, ORACLE_CWA)


BUILDERS = {
    "read_mix": _read_mix,
    "write_requery": _write_requery,
    "oracle_cwa": _oracle_cwa,
}
SPECS = {"read_mix": READ_MIX, "write_requery": WRITE_REQUERY, "oracle_cwa": ORACLE_CWA}


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` generated from ``seed``."""
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(BUILDERS)}") from None
    return builder(seed)
