"""The three workloads. Each is a closed loop with one client: the next
step starts when the previous one has returned and been checked.

- ``kg_build``: ``build_kg(corpus, amplify)`` then ``count()``.
- ``kg_query``: one round of six read-only op classes over a persisted
  triple store.
- ``kg_update``: checked add and delete commits through
  ``VersionedGraphStorage``, each followed by a read of what changed,
  with a compaction every few steps.

Every op's result is compared with an answer the benchmark computed on
its own (DuckDB over the same bytes, or arithmetic on what it wrote);
an op that raises or answers wrongly counts as failed.

Program functions are imported where they are called, so the self-test
can substitute a tampered version of one.
"""

from __future__ import annotations

import functools
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from . import corpus
from . import tracing

URI = "urn:perfbench:graph"
ONTO = "https://kg.example.org/onto"
SAME_AS = "<http://www.w3.org/2002/07/owl#sameAs>"
RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
NAMED_INDIVIDUAL = "<http://www.w3.org/2002/07/owl#NamedIndividual>"
MENTIONS = f"<{ONTO}#mentions>"
COOCCURS = f"<{ONTO}#cooccursWith>"
IN_LANGUAGE = f"<{ONTO}#inLanguage>"
INDIVIDUALS_TARGET = f"<{ONTO}#ent_data>"
NON_PROPERTY_PREDICATES = (
    RDF_TYPE,
    SAME_AS,
    "<http://www.w3.org/2000/01/rdf-schema#label>",
    "<http://www.w3.org/2000/01/rdf-schema#comment>",
)

# Candidate lookup subjects / path starts drawn per run; each round
# takes the next one.
CANDIDATES = 8

PREFIX = f"PREFIX o: <{ONTO}#>\n"
Q_BGP = PREFIX + 'SELECT ?p ?e WHERE { ?p o:mentions ?e . ?p o:inLanguage "de" }'
Q_GROUP = PREFIX + "SELECT ?e (COUNT(?p) AS ?n) WHERE { ?p o:mentions ?e } GROUP BY ?e"
Q_PATH = PREFIX + "SELECT ?b WHERE { %s o:cooccursWith+ ?b }"
SPARQL_CLASSES = ("sparql_bgp", "sparql_group", "sparql_path")
QUERY_CLASSES = ("match_subject", "match_predicate") + SPARQL_CLASSES + ("individuals",)


@dataclass(frozen=True)
class Sizes:
    """Corpora are named as in ``corpus.documents``; ``*_docs`` takes
    the first n documents (None: all). The seed changes none of them."""

    build_corpus: str = "sf0.1"
    build_amplify: int = 40
    # (P, S) of the build corpus: page-subject triples per replica and
    # shared triples, so a build holds amplify * P + S triples.
    build_split: tuple[int, int] = (118_545, 958)
    warmup_corpus: str = "sf0.001"
    warmup_docs: int | None = None
    store_corpus: str = "sf0.1"
    store_docs: int = 1000
    add_batch: int = 1000
    delete_batch: int = 50
    compact_every: int = 3
    setup_reps: int = 3


FULL = Sizes()
SMOKE = Sizes(
    build_corpus="sf0.001", build_amplify=2, build_split=(11_956, 946), warmup_docs=100,
    store_corpus="sf0.001", store_docs=200,
    add_batch=100, delete_batch=5, compact_every=2, setup_reps=1,
)


def individuals_filter():
    """``[[a owl:NamedIndividual, cooccursWith <ent_data>]]``"""
    from ontograph_ray.triples import Triple

    return [[Triple("", RDF_TYPE, NAMED_INDIVIDUAL), Triple("", COOCCURS, INDIVIDUALS_TARGET)]]


def collect(ds) -> pa.Table:
    batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.concat_tables(batches) if batches else pa.table({})


def decoded(triples):
    from ontograph_ray.pipelines.kg import decode_triples_batch

    return triples.map_batches(decode_triples_batch, batch_format="pyarrow")


def result_rows(result) -> int:
    """Rows an op returned: a table, a list of triples, or one triple."""
    if isinstance(result, pa.Table):
        return result.num_rows
    if isinstance(result, list):
        return len(result)
    return int(result is not None)


def rows(table: pa.Table, cols) -> list[tuple]:
    if table.num_rows == 0:
        return []
    return sorted(zip(*(table[c].to_pylist() for c in cols)))


class Run:
    """State shared by the workloads of one benchmark process: the work
    directory, the seeded RNG, the tracer and the op accounting."""

    def __init__(self, workdir: str, seed: int, sizes: Sizes, tracer: tracing.Tracer):
        self.workdir = workdir
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.sizes = sizes
        self.tracer = tracer
        self._con = None
        self.attempted = 0
        self.failed = 0
        self.latency: dict[str, list[float]] = defaultdict(list)

    @property
    def con(self):
        if self._con is None:
            self._con = corpus.connect(self.workdir)
        return self._con

    def close_db(self) -> None:
        """Close DuckDB, which keeps the memory of tables it dropped."""
        if self._con is not None:
            self._con.close()
            self._con = None

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def gate(self, ok: bool, what: str) -> None:
        """A correctness check outside the timed ops; counts as an op."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def op(self, name: str, fn, check):
        """Run one public-API call as an op: time it, then check it.
        ``check(result)`` returns None when the result is right, or a
        description of what is wrong."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.tracer.span(f"op.{name}"):
                out = fn()
        except Exception:  # an op that raises is a failed op; keep going
            traceback.print_exc(file=sys.stderr)
            self.fail(f"{name}: raised")
            return None
        dt = time.perf_counter() - t0
        problem = check(out)
        if problem:
            self.fail(f"{name}: {problem}")
        else:
            self.latency[name].append(dt)
        return out

    def median_latency(self, name: str) -> float:
        v = self.latency.get(name)
        return statistics.median(v) if v else 0.0


class Workload:
    name = ""
    # Loop steps that bring Ray's worker pool to the state later steps
    # find it in; the step figures leave them out.
    warmup_steps = 1

    def __init__(self, run: Run):
        self.run = run
        self.sizes = run.sizes
        self.steps = 0

    def prepare(self) -> None:
        """Write inputs and compute what the program must answer."""

    def setup(self, rep: int) -> None:
        """The program calls that make the workload ready; timed."""

    def ground_truth(self) -> None:
        """Answers that depend on what set-up wrote."""

    def step(self, traced: bool) -> None:
        raise NotImplementedError

    def trace_step(self) -> None:
        """One traced step that covers every layer the workload has."""
        self.step(traced=True)


# -- kg_build -----------------------------------------------------------------


class KGBuild(Workload):
    name = "kg_build"

    def prepare(self):
        from ontograph_ray.pipelines.kg import build_kg

        run, con, sizes = self.run, self.run.con, self.sizes
        self.corpus_dir = corpus.write_corpus(run.path("build_corpus"), sizes.build_corpus)
        self.warm_dir = corpus.write_corpus(
            run.path("warmup_corpus"), sizes.warmup_corpus, sizes.warmup_docs
        )
        corpus.create_oracle(con, "oracle_kg_build", self.corpus_dir)
        split = corpus.page_shared_split(con, "oracle_kg_build")
        run.gate(
            split == sizes.build_split,
            f"kg_build: kg_oracle_sql() gives (P, S) = {split}, expected {sizes.build_split}",
        )
        pages, shared = sizes.build_split
        self.expected = sizes.build_amplify * pages + shared
        self.warm_expected = corpus.create_oracle(con, "oracle_warmup", self.warm_dir)
        built = run.path("build_check")
        decoded(build_kg(self.corpus_dir).triples).write_parquet(built)
        run.gate(
            corpus.same_triples(con, f"read_parquet('{built}/*.parquet')", "oracle_kg_build"),
            "kg_build: amplify-1 build differs from kg_oracle_sql()",
        )
        con.execute("DROP TABLE oracle_kg_build; DROP TABLE oracle_warmup")
        shutil.rmtree(built)

    def setup(self, rep):
        from ontograph_ray.pipelines.kg import build_kg

        n = build_kg(self.warm_dir).triples.count()
        self.run.gate(n == self.warm_expected, f"kg_build: warm-up built {n} triples")

    def _check(self, n):
        return None if n == self.expected else f"{n} triples, expected {self.expected}"

    def step(self, traced):
        from ontograph_ray.pipelines.kg import build_kg

        amplify = self.sizes.build_amplify
        if not traced:
            self.run.op("build", lambda: build_kg(self.corpus_dir, amplify=amplify).triples.count(), self._check)
            return
        tr = self.run.tracer

        def traced_build():
            with tr.span("kg.build"):
                with tr.span("kg.build_kg"):
                    res = build_kg(self.corpus_dir, amplify=amplify)
                with tr.span("kg.consume"):
                    n = sum(
                        b.num_rows
                        for b in res.triples.iter_batches(batch_format="pyarrow", batch_size=None)
                    )
                    tr.attach_stats(res.triples._get_stats_summary())
            return n

        self.run.op("build_traced", traced_build, self._check)

    def trace_step(self):
        # an untraced build beside each traced one gives the tracing overhead
        self.step(traced=False)
        self.step(traced=True)


# -- kg_query -----------------------------------------------------------------


class _StoreWorkload(Workload):
    """A workload over a store built from the first ``store_docs``
    documents of ``store_corpus``."""

    def prepare(self):
        self.corpus_dir = corpus.write_corpus(
            self.run.path(f"{self.name}_corpus"), self.sizes.store_corpus, self.sizes.store_docs
        )
        self.oracle = f"oracle_{self.name}"
        self.oracle_rows = corpus.create_oracle(self.run.con, self.oracle, self.corpus_dir)


class KGQuery(_StoreWorkload):
    name = "kg_query"

    def setup(self, rep):
        from ontograph_ray.pipelines.kg import build_kg
        from ontograph_ray.store.dataset import DatasetGraphStore

        d = self.run.path(f"store{rep}")
        decoded(build_kg(self.corpus_dir).triples).write_parquet(d)
        self.store = DatasetGraphStore.from_parquet(URI, d)
        n = self.store.size()
        self.store_dir = d
        self.run.gate(n == self.oracle_rows, f"kg_query: store holds {n} triples")

    def ground_truth(self):
        run, con = self.run, self.run.con
        con.execute(
            f"CREATE OR REPLACE TABLE t AS SELECT subject, predicate, object "
            f"FROM read_parquet('{self.store_dir}/*.parquet')"
        )
        run.gate(
            corpus.same_triples(con, "t", self.oracle),
            "kg_query: persisted store differs from kg_oracle_sql()",
        )
        pages = [r[0] for r in con.execute(
            "SELECT DISTINCT subject FROM t WHERE predicate = ? ORDER BY 1", [MENTIONS]
        ).fetchall()]
        starts = [r[0] for r in con.execute(
            "SELECT DISTINCT subject FROM t WHERE predicate = ? ORDER BY 1", [COOCCURS]
        ).fetchall()]
        self.subjects = [pages[i] for i in run.rng.choice(len(pages), CANDIDATES, replace=False)]
        self.starts = [starts[i] for i in run.rng.choice(len(starts), CANDIDATES, replace=False)]

        def q(sql, *params):
            return con.execute(sql, list(params)).fetchall()

        self.by_subject = {
            s: set(q("SELECT subject, predicate, object FROM t WHERE subject = ?", s))
            for s in self.subjects
        }
        self.same_as = sorted(q("SELECT subject, predicate, object FROM t WHERE predicate = ?", SAME_AS))
        self.bgp = sorted(q(
            "SELECT m.subject, m.object FROM t m JOIN t l ON m.subject = l.subject "
            "WHERE m.predicate = ? AND l.predicate = ? AND l.object = '\"de\"'",
            MENTIONS, IN_LANGUAGE,
        ))
        self.group = sorted(q(
            "SELECT object, count(*) FROM t WHERE predicate = ? GROUP BY object", MENTIONS
        ))
        self.paths = {
            s: sorted(q(
                "WITH RECURSIVE reach(n) AS ("
                " SELECT object FROM t WHERE predicate = ? AND subject = ?"
                " UNION SELECT t.object FROM t JOIN reach ON t.subject = reach.n"
                " WHERE t.predicate = ?) SELECT n FROM reach",
                COOCCURS, s, COOCCURS,
            ))
            for s in self.starts
        }
        cands = q(
            "SELECT a.subject FROM t a JOIN t b ON a.subject = b.subject WHERE "
            "a.predicate = ? AND a.object = ? AND b.predicate = ? AND b.object = ?",
            RDF_TYPE, NAMED_INDIVIDUAL, COOCCURS, INDIVIDUALS_TARGET,
        )
        excluded = ", ".join(f"'{p}'" for p in NON_PROPERTY_PREDICATES)
        self.individuals = {}
        for (s,) in cands:
            props = defaultdict(list)
            for p, o in q(
                f"SELECT predicate, object FROM t WHERE subject = ? "
                f"AND predicate NOT IN ({excluded}) AND object LIKE '<%'", s
            ):
                props[p[1:-1]].append(o[1:-1])
            self.individuals[s[1:-1]] = sorted((p, sorted(v)) for p, v in props.items())
        con.execute(f"DROP TABLE t; DROP TABLE {self.oracle}")

    def _queries(self, k: int) -> dict[str, str]:
        return {
            "sparql_bgp": Q_BGP,
            "sparql_group": Q_GROUP,
            "sparql_path": Q_PATH % self.starts[k % CANDIDATES],
        }

    def _ops(self, k: int) -> dict[str, tuple]:
        """Per op class of round ``k``: (call, check). ``call`` is what
        the untraced loop times."""
        from ontograph_ray.ontology.query import get_individuals_dataset
        from ontograph_ray.store.sparql import sparql_select

        store = self.store
        subj = self.subjects[k % CANDIDATES]
        start = self.starts[k % CANDIDATES]

        def eq(got, want):
            return None if got == want else f"{len(got)} rows, expected {len(want)}"

        def check_first(t):
            if t is None:
                return "no match"
            key = (t.subject, t.predicate, t.object)
            return None if key in self.by_subject[subj] else f"{key} is not a triple of {subj}"

        def check_individuals(tbl):
            got = {
                r["uri"]: sorted((p["prop"], sorted(p["targets"])) for p in r["object_props"])
                for r in (tbl.to_pylist() if tbl.num_rows else [])
            }
            return eq(sorted(got.items()), sorted(self.individuals.items()))

        checks = {
            "sparql_bgp": lambda tbl: eq(rows(tbl, ["p", "e"]), self.bgp),
            "sparql_group": lambda tbl: eq(rows(tbl, ["e", "n"]), self.group),
            "sparql_path": lambda tbl: eq(rows(tbl, ["b"]), self.paths[start]),
        }
        ops = {
            "match_subject": (lambda: store.get_first_match(subj), check_first),
            "match_predicate": (
                lambda: store.get_all_matches(predicate=SAME_AS),
                lambda ts: eq(sorted((t.subject, t.predicate, t.object) for t in ts), self.same_as),
            ),
        }
        for cls, query in self._queries(k).items():
            ops[cls] = (lambda q=query: collect(sparql_select(store, q)), checks[cls])
        ops["individuals"] = (
            lambda: collect(get_individuals_dataset(store, individuals_filter())),
            check_individuals,
        )
        return ops

    def _traced_sparql(self, cls: str, query: str) -> pa.Table:
        from ontograph_ray.store.sparql import parse, sparql_select

        tr = self.run.tracer
        with tr.span(f"sparql.{cls}.parse"):
            parse(query)
        with tr.span(f"sparql.{cls}.select"):
            ds = sparql_select(self.store, query)
        with tr.span(f"sparql.{cls}.execute"):
            out = collect(ds)
            tr.attach_stats(ds._get_stats_summary())
        return out

    def _traced_individuals(self) -> pa.Table:
        from ontograph_ray.ontology.query import get_individuals_dataset

        tr = self.run.tracer
        with tr.span("ontology.get_individuals_dataset.plan"):
            ds = get_individuals_dataset(self.store, individuals_filter())
        with tr.span("ontology.get_individuals_dataset.execute"):
            out = collect(ds)
            tr.attach_stats(ds._get_stats_summary())
        return out

    def step(self, traced):
        k = self.steps
        self.steps += 1
        ops = self._ops(k)
        queries = self._queries(k)
        for cls in QUERY_CLASSES:
            call, check = ops[cls]
            if traced and cls in queries:
                call = functools.partial(self._traced_sparql, cls, queries[cls])
            elif traced and cls == "individuals":
                call = self._traced_individuals
            self.run.op(cls, call, check)

    def probe_rows_examined(self) -> dict[str, float]:
        """Rows read from Parquet per row returned, per op class, from
        one more run of the call the loop times, with operator fusion
        off (fusion hides the read's own output). The rows read come
        from the statistics of every Dataset the call made."""
        out = {}
        with tracing.unfused_plans():
            for cls, (call, check) in self._ops(0).items():
                with tracing.created_datasets() as made:
                    got = call()
                self.run.gate(check(got) is None, f"{cls}: wrong answer in the rows-examined probe")
                ops = tracing.operators(ds._get_stats_summary() for ds in made)
                out[cls] = tracing.read_rows(ops) / max(1, result_rows(got))
        return out


# -- kg_update ----------------------------------------------------------------


class KGUpdate(_StoreWorkload):
    name = "kg_update"

    @property
    def warmup_steps(self):
        # the first compaction cycle runs 1.5-2x slower than later ones
        return self.sizes.compact_every

    def setup(self, rep):
        from ontograph_ray.pipelines.kg import build_kg
        from ontograph_ray.store.dataset import DatasetGraphStore
        from ontograph_ray.store.versioned import VersionedGraphStorage

        vs = VersionedGraphStorage(self.run.path(f"versioned{rep}"), URI)
        v = vs.commit(DatasetGraphStore(URI, decoded(build_kg(self.corpus_dir).triples)), op="load")
        rows_ = vs.versions()[str(v)]["rows"]
        self.run.gate(
            v == 1 and rows_ == self.oracle_rows,
            f"kg_update: base commit gave version {v} with {rows_} rows",
        )
        self.vs, self.version, self.size = vs, v, rows_
        self.bytes_written = 0
        self.triples_changed = 0

    def ground_truth(self):
        con = self.run.con
        self.entities = [r[0] for r in con.execute(
            f"SELECT DISTINCT object FROM {self.oracle} "
            "WHERE starts_with(object, ?) AND NOT contains(object, '__') ORDER BY 1",
            [f"<{ONTO}#ent_"],
        ).fetchall()]
        con.execute(f"DROP TABLE {self.oracle}")

    def _new_batch(self, k: int) -> pa.Table:
        n = self.sizes.add_batch
        subjects = [f"<https://docs.example.org/page/new-{self.run.seed}-{k}-{i}>" for i in range(n)]
        objects = [self.entities[i] for i in self.run.rng.integers(0, len(self.entities), n)]
        return pa.table({"subject": subjects, "predicate": [MENTIONS] * n, "object": objects})

    def _version_bytes(self, v: int) -> tuple[int, int]:
        d = self.vs._version_dir(v)
        files = [os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")]
        return len(files), sum(os.path.getsize(f) for f in files)

    def _committed(self, v, delta: int, changed: int):
        """Check a commit advanced the version by exactly one and holds
        ``delta`` more rows than the last, and account the bytes it
        wrote for ``changed`` triples."""
        if v != self.version + 1:
            return f"version {v} after {self.version}"
        self.version = v
        self.size += delta
        rows_ = self.vs.versions()[str(v)]["rows"]
        if rows_ != self.size:
            return f"version {v} holds {rows_} rows, expected {self.size}"
        files, size = self._version_bytes(v)
        self.run.tracer.count("versioned.files_per_version", files)
        self.run.tracer.count("versioned.bytes_per_version", size)
        if changed:
            self.bytes_written += size
            self.triples_changed += changed
        return None

    def _checked(self, kind: str, batch: pa.Table, traced: bool):
        """``VersionedGraphStorage.{add,delete}_triples_checked``; the
        traced form makes the method's own load → validate → commit
        calls one by one."""
        vs, tr = self.vs, self.run.tracer
        if not traced:
            return getattr(vs, f"{kind}_triples_checked")(batch)
        with tr.span("versioned.load"):
            store = vs.load()
        with tr.span(f"store.{kind}_triples_checked.validate"):
            updated = getattr(store, f"{kind}_triples_checked")(batch)
        with tr.span("versioned.commit"):
            return vs.commit(updated, op=f"{kind}_triples_checked")

    def step(self, traced, force_compact=False):
        run = self.run
        k = self.steps
        self.steps += 1
        new = self._new_batch(k)
        pick = run.rng.choice(new.num_rows, self.sizes.delete_batch + 1, replace=False)
        gone = new.take(pa.array(pick[:-1]))
        probe = new.slice(int(pick[-1]), 1).to_pylist()[0]
        gone_subject = gone["subject"][0].as_py()

        def check_read(t):
            want = (probe["subject"], probe["predicate"], probe["object"])
            got = None if t is None else (t.subject, t.predicate, t.object)
            return None if got == want else f"read {got}, expected {want}"

        run.op(
            "add_commit",
            lambda: self._checked("add", new, traced),
            lambda v: self._committed(v, new.num_rows, new.num_rows),
        )
        run.op("read_after_write", lambda: self.vs.load().get_first_match(probe["subject"]), check_read)
        run.op(
            "delete_commit",
            lambda: self._checked("delete", gone, traced),
            lambda v: self._committed(v, -gone.num_rows, gone.num_rows),
        )
        run.op(
            "read_after_delete",
            lambda: self.vs.load().get_first_match(gone_subject),
            lambda t: None if t is None else f"deleted triple still read: {t}",
        )
        if force_compact or self.steps % self.sizes.compact_every == 0:
            tr = run.tracer

            def compact():
                with tr.span("versioned.compact"):
                    v = self.vs.compact()
                self.vs.gc()
                return v

            def check_compact(v):
                n = self.vs.load().size()
                if n != self.size:
                    return f"{n} triples after compaction, expected {self.size}"
                return self._committed(v, 0, 0)

            run.op("compact", compact, check_compact)

    def trace_step(self):
        # the traced run must see at least one compaction
        self.step(traced=True, force_compact=not self.run.tracer.named("versioned.compact"))

    def write_bytes_per_triple(self) -> float:
        return self.bytes_written / max(1, self.triples_changed)


WORKLOADS = {w.name: w for w in (KGBuild, KGQuery, KGUpdate)}
