"""Model-based test of the session's write path.

A hypothesis ``RuleBasedStateMachine`` drives a durable :class:`Database`
through inserts, deletes and batched deltas — null-carrying rows, no-ops,
emptied relations, full replacement with a change of arity — interleaved
with queries, checkpoints and reopening the data directory.  The model
is plain Python sets.  After every step the machine checks everything
the write path carries forward instead of rebuilding:

* the instance equals the model, and the generation counter counts the
  model's effective writes;
* every carried :class:`~repro.data.dictionary.EncodedRelation` holds
  the same rows as encoding the relation from scratch, in its columns,
  row list, row set and position map, and every built hash index has
  the contents of a fresh one;
* ``adom()``, ``nulls()``, ``constants()``, the occurrence counts and
  the encoded active domain equal a recount;
* answers, auto-routed and forced ``naive-interp``, equal naive
  evaluation of the model (every query is a UCQ, so under both CWA and
  OWA naive evaluation gives the certain answers);
* a session reopened from its data directory equals the model.

``REPRO_FUZZ`` multiplies the example budget (the nightly sweep runs it
25×) and ``REPRO_FUZZ_SEED`` picks fresh examples; without them the run
is derandomised.
"""

import shutil
import tempfile

from diffutil import FUZZ, FUZZ_SEED
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.naive import naive_eval
from repro.data.dictionary import EncodedRelation
from repro.data.instance import Instance
from repro.data.values import Null
from repro.session import Database, as_query

VALUES = st.sampled_from([0, 1, 2, 3, Null("a"), Null("b")])
ROWS2 = st.lists(st.tuples(VALUES, VALUES), max_size=3)
ROWS1 = st.lists(st.tuples(VALUES), max_size=2)
PICKS = st.lists(st.integers(0, 50), max_size=3)
QUERIES = [
    ("exists z (R(x, z) & S(z))", ("x",)),
    ("exists z (R(x, z) & R(z, y))", ("x", "y")),
    ("R(x, 2) | S(x)", ("x",)),
    ("exists y (R(1, y) & S(y))", ()),
    ("exists u, v (T(u, v))", ()),
]


class WritePathMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="repro-model-")
        self.path = f"{self.root}/data"
        self.model = {"R": {(0, 1), (1, Null("a"))}, "S": {(1,)}, "T": {(0, 0)}}
        self.db = Database(path=self.path, fsync=False, wal_max_bytes=1 << 30)
        self.db.apply_delta(adds=self.model)
        self.generation = 1

    def teardown(self):
        self.db.close()
        shutil.rmtree(self.root, ignore_errors=True)

    # ------------------------------------------------------------------
    # writes, mirrored on the model
    # ------------------------------------------------------------------

    def _write(self, adds, removes):
        changed = False
        for name in sorted(set(adds) | set(removes)):
            old = self.model.get(name, set())
            new = (old - set(removes.get(name, ()))) | set(adds.get(name, ()))
            changed |= new != old
            self.model[name] = new
        count = self.db.apply_delta(adds=adds, removes=removes)
        assert (count > 0) == changed
        self.generation += changed

    def _present(self, name, picks):
        rows = sorted(self.model.get(name, ()), key=repr)
        return [rows[i % len(rows)] for i in picks] if rows else []

    @rule(rows=ROWS2)
    def insert_r(self, rows):
        self._write({"R": rows}, {})

    @rule(picks=PICKS, absent=ROWS2)
    def delete_r(self, picks, absent):
        self._write({}, {"R": self._present("R", picks) + absent})

    @rule(r_adds=ROWS2, s_adds=ROWS1, r_picks=PICKS, s_picks=PICKS)
    def apply_delta(self, r_adds, s_adds, r_picks, s_picks):
        self._write(
            {"R": r_adds, "S": s_adds},
            {"R": self._present("R", r_picks), "S": self._present("S", s_picks)},
        )

    @rule(name=st.sampled_from(["R", "S"]))
    def empty_relation(self, name):
        self._write({}, {name: sorted(self.model.get(name, ()), key=repr)})

    @rule(value=VALUES)
    def replace_t_changing_arity(self, value):
        rows = self.model.get("T", set())
        arity = len(next(iter(rows))) if rows else 2
        new_row = (value,) * (5 - arity)  # 2 ↔ 3
        self._write({"T": [new_row]}, {"T": sorted(rows, key=repr)})

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    @rule(which=st.integers(0, len(QUERIES) - 1), semantics=st.sampled_from(["cwa", "owa"]))
    def query(self, which, semantics):
        text, head = QUERIES[which]
        auto = self.db.evaluate(text, vars=head, semantics=semantics).answers
        forced = self.db.evaluate(text, vars=head, semantics=semantics, mode="naive-interp")
        fresh = Instance(self.model)
        want = naive_eval(as_query(text, vars=head), fresh, engine="interp")
        assert auto == forced.answers == want

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    @rule()
    def checkpoint(self):
        self.db.checkpoint()

    @rule()
    def reopen(self):
        self.db.close()
        self.db = Database(path=self.path, fsync=False, wal_max_bytes=1 << 30)
        assert self.db.instance == Instance(self.model)
        assert self.db.generation == self.generation

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    @invariant()
    def instance_matches_model(self):
        assert self.db.instance == Instance(self.model)
        assert self.db.generation == self.generation

    @invariant()
    def domain_caches_match_recount(self):
        inst, fresh = self.db.instance, Instance(self.model)
        assert inst.adom() == fresh.adom()
        assert inst.nulls() == fresh.nulls()
        assert inst.constants() == fresh.constants()
        if inst._counts is not None:
            assert inst._counts == fresh._occurrences()
        cctx = inst._cols
        if cctx is not None and cctx._adom_codes is not None:
            assert frozenset(map(cctx.dictionary.decode, cctx._adom_codes)) == fresh.adom()

    @invariant()
    def carried_encodings_match_fresh_ones(self):
        inst = self.db.instance
        cctx = inst._cols
        if cctx is None:
            return
        for name, rel in list(cctx._encoded.items()):
            fresh = EncodedRelation.from_rows(inst.tuples(name), cctx.dictionary)
            rows = rel.row_tuples()
            assert rel.arity == fresh.arity and rel.n_rows == len(rows) == fresh.n_rows
            assert set(rows) == rel.row_set() == fresh.row_set()
            assert rows == list(zip(*rel.columns))
            if rel._positions is not None:
                assert rel._positions == {row: i for i, row in enumerate(rows)}
            for positions, idx in list(rel._indexes.items()):
                assert {k: sorted(v) for k, v in idx.items()} == {
                    k: sorted(v) for k, v in fresh.index(positions).items()
                }


WritePathMachine.TestCase.settings = settings(
    max_examples=12 * FUZZ,
    stateful_step_count=20,
    deadline=None,
    derandomize=not FUZZ_SEED,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestWritePath = WritePathMachine.TestCase
