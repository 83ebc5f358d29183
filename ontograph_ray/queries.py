"""Operator registry: named query callables + DuckDB oracle SQL.

Each entry exposes one implemented operator/pipeline from SURVEY.md §2
as a callable(sf_dir) → Dataset/DataFrame/Table, paired (where
SQL-expressible) with an ANSI-SQL string that DuckDB runs over the same
parquet tables to produce the identical result (same column names, same
values). The driver compares them order-insensitively.

Conventions for comparability:
- floats that aggregate across rows are rounded on both sides, or
  avoided in favor of integer counts / min / max
- triples built from the TPC-H tables encode numeric literals as
  integer cents so string formatting is language-independent
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from . import constants as C
from . import terms
from . import triples as tr
from .store.dataset import distinct_on

# URIs used by the table-derived triple corpus
N_CLASS = "urn:og:class/Nation"
CUST_CLASS = "urn:og:class/Customer"
IN_NATION = "urn:og:rel/inNation"
IN_REGION = "urn:og:rel/inRegion"
SEGMENT = "urn:og:attr/mktsegment"
ACCTBAL = "urn:og:attr/acctbalCents"
RDF_TYPE_T = f"<{C.RDF_TYPE}>"


def _read(sf_dir: str, table: str, columns=None) -> ray.data.Dataset:
    """Size-aware read: block count scaled to the file (≥ ~512 KiB of
    Parquet per block, capped at 2×CPU). Ray's default at high CPU
    counts splits small files into hundreds of sub-thousand-row blocks
    and every downstream operator — especially sort-based shuffles —
    then pays per-block overhead that dwarfs the work."""
    import os

    path = f"{sf_dir}/{table}.parquet"
    cpus = int(ray.cluster_resources().get("CPU", 8))
    blocks = max(1, min(cpus * 2, os.path.getsize(path) // (512 * 1024) + 1))
    return ray.data.read_parquet(
        path, columns=columns, override_num_blocks=int(blocks)
    )


def _typed_pandas(ds: ray.data.Dataset, columns: list[str]) -> pd.DataFrame:
    """Materialize small results keeping the declared schema even when
    the result is empty (an empty Dataset loses its column names)."""
    df = ds.to_pandas()
    if df.empty:
        return pd.DataFrame({c: pd.Series(dtype=object) for c in columns})
    return df[columns]


# ---------------------------------------------------------------------------
# Triple corpus derived from customer + nation (used by the GraphStore
# operator queries). Both the Ray and SQL sides build it identically.
# ---------------------------------------------------------------------------


def _customer_triples_batch(batch: pa.Table) -> pa.Table:
    key = pc.cast(batch["c_custkey"], pa.string())
    subj = pc.binary_join_element_wise(pa.scalar("<urn:og:cust/"), key, pa.scalar(">"), "")
    nk = pc.cast(batch["c_nationkey"], pa.string())
    nation_obj = pc.binary_join_element_wise(
        pa.scalar("<urn:og:nation/"), nk, pa.scalar(">"), ""
    )
    seg_lit = terms.v_new_literal_term(batch["c_mktsegment"])
    cents = pc.cast(pc.round(pc.multiply(batch["c_acctbal"], 100.0)), pa.int64())
    bal_lit = terms.v_new_literal_term(
        pc.cast(cents, pa.string()), None, C.XSD_INTEGER
    )
    n = batch.num_rows

    def const(s):
        return pa.array([s] * n, pa.string())

    return pa.concat_tables(
        [
            pa.table({"subject": subj, "predicate": const(RDF_TYPE_T), "object": const(f"<{CUST_CLASS}>")}),
            pa.table({"subject": subj, "predicate": const(f"<{IN_NATION}>"), "object": nation_obj}),
            pa.table({"subject": subj, "predicate": const(f"<{SEGMENT}>"), "object": seg_lit}),
            pa.table({"subject": subj, "predicate": const(f"<{ACCTBAL}>"), "object": bal_lit}),
        ]
    )


def _nation_triples_batch(batch: pa.Table) -> pa.Table:
    nk = pc.cast(batch["n_nationkey"], pa.string())
    subj = pc.binary_join_element_wise(pa.scalar("<urn:og:nation/"), nk, pa.scalar(">"), "")
    rk = pc.cast(batch["n_regionkey"], pa.string())
    region_obj = pc.binary_join_element_wise(
        pa.scalar("<urn:og:region/"), rk, pa.scalar(">"), ""
    )
    name_lit = terms.v_new_literal_term(batch["n_name"], "en", None)
    n = batch.num_rows

    def const(s):
        return pa.array([s] * n, pa.string())

    return pa.concat_tables(
        [
            pa.table({"subject": subj, "predicate": const(RDF_TYPE_T), "object": const(f"<{N_CLASS}>")}),
            pa.table({"subject": subj, "predicate": const(f"<{IN_REGION}>"), "object": region_obj}),
            pa.table({"subject": subj, "predicate": const(f"<{C.RDFS_LABEL}>"), "object": name_lit}),
        ]
    )


R_CLASS = "urn:og:class/Region"


def _region_triples_batch(batch: pa.Table) -> pa.Table:
    rk = pc.cast(batch["r_regionkey"], pa.string())
    subj = pc.binary_join_element_wise(pa.scalar("<urn:og:region/"), rk, pa.scalar(">"), "")
    name_lit = terms.v_new_literal_term(batch["r_name"], "en", None)
    n = batch.num_rows

    def const(s):
        return pa.array([s] * n, pa.string())

    return pa.concat_tables(
        [
            pa.table({"subject": subj, "predicate": const(RDF_TYPE_T), "object": const(f"<{R_CLASS}>")}),
            pa.table({"subject": subj, "predicate": const(f"<{C.RDFS_LABEL}>"), "object": name_lit}),
        ]
    )


def table_triples(sf_dir: str) -> ray.data.Dataset:
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_mktsegment", "c_acctbal"])
    nat = _read(sf_dir, "nation")
    return cust.map_batches(_customer_triples_batch, batch_format="pyarrow").union(
        nat.map_batches(_nation_triples_batch, batch_format="pyarrow")
    )


TRIPLES_SQL = f"""
SELECT '<urn:og:cust/' || c_custkey || '>' AS subject,
       '{RDF_TYPE_T}' AS predicate, '<{CUST_CLASS}>' AS object FROM customer
UNION ALL
SELECT '<urn:og:cust/' || c_custkey || '>', '<{IN_NATION}>',
       '<urn:og:nation/' || c_nationkey || '>' FROM customer
UNION ALL
SELECT '<urn:og:cust/' || c_custkey || '>', '<{SEGMENT}>',
       '"' || c_mktsegment || '"' FROM customer
UNION ALL
SELECT '<urn:og:cust/' || c_custkey || '>', '<{ACCTBAL}>',
       '"' || CAST(CAST(round(c_acctbal * 100) AS BIGINT) AS VARCHAR) || '"^^<{C.XSD_INTEGER}>' FROM customer
UNION ALL
SELECT '<urn:og:nation/' || n_nationkey || '>', '{RDF_TYPE_T}', '<{N_CLASS}>' FROM nation
UNION ALL
SELECT '<urn:og:nation/' || n_nationkey || '>', '<{IN_REGION}>',
       '<urn:og:region/' || n_regionkey || '>' FROM nation
UNION ALL
SELECT '<urn:og:nation/' || n_nationkey || '>', '<{C.RDFS_LABEL}>',
       '"' || n_name || '"@en' FROM nation
"""


# ---------------------------------------------------------------------------
# GraphStore operator queries (G2-G17)
# ---------------------------------------------------------------------------


def q_triples_from_tables(sf_dir: str):
    return table_triples(sf_dir)


def q_orders_per_segment(sf_dir: str):
    """Distributed hash join (both sides large): orders ⋈ customer on
    custkey, then order count + exact total (cents) per market
    segment."""
    from .store.dataset import bucketed_group_map, hash_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"c_custkey": "o_custkey"})

    joined = hash_join(
        orders, cust.map_batches(rename, batch_format="pandas"), on="o_custkey"
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["cents"] = (df["o_totalprice"] * 100).round().astype("int64")
        g = df.groupby("c_mktsegment", sort=False)
        return g.agg(n_orders=("o_orderkey", "count"), total_cents=("cents", "sum")).reset_index()

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("c_mktsegment", sort=False)
        out = g.agg(n_orders=("n_orders", "sum"), total_cents=("total_cents", "sum")).reset_index()
        return out.astype({"n_orders": "int64", "total_cents": "int64"})

    return bucketed_group_map(joined, ["c_mktsegment"], final, num_buckets=8, partial_fn=partial)


def q_brand_revenue(sf_dir: str):
    """Broadcast join (small dimension): lineitem ⋈ part on partkey —
    the part table is ray.put once and merged per batch; revenue
    (cents, exact) per brand."""
    from .store.dataset import broadcast_join, bucketed_group_map

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])
    part = (
        _read(sf_dir, "part", ["p_partkey", "p_brand"])
        .to_pandas()
        .rename(columns={"p_partkey": "l_partkey"})
    )
    joined = broadcast_join(li, part, on="l_partkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # exact integer math: price in cents × discount in percent —
        # float rounding modes (banker's vs half-away) can't diverge
        df = df.copy()
        cents = (df["l_extendedprice"] * 100).round().astype("int64")
        pct = (df["l_discount"] * 100).round().astype("int64")
        df["rev_c4"] = cents * (100 - pct)
        g = df.groupby("p_brand", sort=False)
        return g.agg(n_items=("l_partkey", "count"), revenue_c4=("rev_c4", "sum")).reset_index()

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("p_brand", sort=False)
        out = g.agg(n_items=("n_items", "sum"), revenue_c4=("revenue_c4", "sum")).reset_index()
        return out.astype({"n_items": "int64", "revenue_c4": "int64"})

    return bucketed_group_map(joined, ["p_brand"], final, num_buckets=8, partial_fn=partial)


def q_orders_quality_report(sf_dir: str):
    """Constraint audit (store/dataset.py::constraint_report): UNIQUE /
    NOT NULL / FOREIGN KEY rules over a deterministically corrupted
    orders snapshot (dup keys at %97, nulled custkeys at %89, orphan
    custkeys at %83), so every rule reports a nonzero, SQL-verified
    violation count — the ingest gate a pipeline runs before
    promoting a snapshot."""
    from .store.dataset import constraint_report

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey"])

    def corrupt(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        c = batch["o_custkey"].to_numpy(zero_copy_only=False).astype("float64")
        c = np.where(k % 83 == 0, 10_000_000 + k, c)
        null_mask = k % 89 == 0
        vals = np.where(null_mask, 0, c).astype("int64")
        base = pa.table(
            {
                "o_orderkey": pa.array(k, pa.int64()),
                "o_custkey": pa.array(vals, pa.int64(), mask=null_mask),
            }
        )
        dup = base.filter(pa.array(k % 97 == 0))
        return pa.concat_tables([base, dup])

    bad = orders.map_batches(corrupt, batch_format="pyarrow")
    return constraint_report(
        bad,
        unique=["o_orderkey"],
        not_null=["o_custkey"],
        foreign_keys=[("o_custkey", cust, "c_custkey")],
    )


def q_snapshot_diff(sf_dir: str):
    """Snapshot diff (store/dataset.py::table_diff): documents vs a
    deterministically mutated next crawl — doc_id%7==0 removed,
    doc_id%5==0 re-measured (changed), doc_id%11==0 re-crawled under a
    new id (added) — one key-bucketed co-group, no materialization."""
    from .store.dataset import table_diff

    old = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def mutate(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids % 7 != 0
        t = batch.filter(pa.array(keep))
        ids2 = t["doc_id"].to_numpy(zero_copy_only=False)
        bump = (ids2 % 5 == 0).astype("int64")
        t = t.set_column(
            t.schema.get_field_index("n_chars"),
            "n_chars",
            pa.array(t["n_chars"].to_numpy(zero_copy_only=False) + bump,
                     pa.int64()),
        )
        add_mask = ids % 11 == 0
        added = batch.filter(pa.array(add_mask))
        added = added.set_column(
            added.schema.get_field_index("doc_id"),
            "doc_id",
            pa.array(
                added["doc_id"].to_numpy(zero_copy_only=False) + 1_000_000,
                pa.int64(),
            ),
        )
        return pa.concat_tables([t, added])

    new = old.map_batches(mutate, batch_format="pyarrow")
    return table_diff(old, new, ["doc_id"])


def q_lineitem_unpivot(sf_dir: str):
    """UNPIVOT/melt: wide lineitem measure columns to long
    (id, metric, value) rows (store/dataset.py::unpivot) — a pure
    per-batch Arrow reshape, no exchange."""
    from .store.dataset import unpivot

    return unpivot(
        _read(
            sf_dir,
            "lineitem",
            ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice",
             "l_discount"],
        ),
        id_cols=["l_orderkey", "l_linenumber"],
        value_cols=["l_quantity", "l_extendedprice", "l_discount"],
    )


def q_cms_user_counts(sf_dir: str):
    """Count-Min sketch point estimates (stages/sketch.py::cms_*) of
    per-user event counts for probe users 0..9 — counters merge by
    commutative sums so the approximate answer is deterministic at any
    layout, reproduced exactly by the splitmix64 SQL twin."""
    from .stages.sketch import cms_estimate

    return cms_estimate(
        _read(sf_dir, "events", ["user_id"]),
        "user_id",
        probe_keys=list(range(10)),
        width=1024,
        depth=4,
        seed=101,
    )


def q_distinct_users_by_type(sf_dir: str):
    """Per-group HyperLogLog: approximate COUNT(DISTINCT user_id)
    GROUP BY event_type with register arrays as the exchange payload
    (stages/sketch.py::hll_grouped) — order-invariant max-merge, so
    the approximate counts are deterministic and fixture-oracled."""
    from .stages.sketch import hll_grouped

    return hll_grouped(
        _read(sf_dir, "events", ["event_type", "user_id"]),
        "event_type",
        "user_id",
        p=10,
    )


def q_kmv_distinct(sf_dir: str):
    """KMV cardinality sketch over documents.text. Deterministic
    (crc32+splitmix64, no RNG), so the estimate is pinned exactly by an
    independent plain-Python fixture oracle (gen_fixtures.py); the
    pytest suite additionally pins the ≤10% error bound. Returns one
    row with the estimate and the sketch parameter."""
    from .stages.sketch import kmv_distinct_count

    docs = _read(sf_dir, "documents", ["text"])
    est = kmv_distinct_count(docs, "text", k=256)
    return pd.DataFrame({"estimated_distinct_texts": [est], "k": [256]})


def q_quantile_sketch(sf_dir: str):
    """k-min-hash quantile sketch over order totals (integer cents):
    a one-pass bounded-memory approximate quantile whose deterministic
    hash-sample construction has an exact SQL twin (ORDER BY
    splitmix64(o_orderkey) LIMIT k), so an APPROXIMATE operator sits
    under the driver's value-hash gate. Rank error and merge-order
    invariance are pinned by pytest."""
    from .stages.sketch import quantile_sketch

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "cents": pc.cast(
                    pc.round(pc.multiply(t["o_totalprice"], 100.0)), pa.int64()
                ),
            }
        )

    return quantile_sketch(
        orders.map_batches(cents, batch_format="pyarrow"),
        value_col="cents",
        key_col="o_orderkey",
        qs={"p25": 0.25, "p50": 0.5, "p90": 0.9, "p99": 0.99},
        k=512,
    )


def q_sample_hash(sf_dir: str):
    """Deterministic hash sampling (training-data staple): keep a doc
    iff multiplicative-hash(doc_id) lands under the rate — stable
    across runs, partitions and cluster sizes, no RNG state. 20%
    rate; returns (doc_id, lang) of survivors."""
    docs = _read(sf_dir, "documents", ["doc_id", "lang"])

    def sample(df: pd.DataFrame) -> pd.DataFrame:
        h = (df["doc_id"].astype("uint64") * np.uint64(2654435761)) % np.uint64(2**32)
        return df[(h % np.uint64(100)) < 20][["doc_id", "lang"]]

    return docs.map_batches(sample, batch_format="pandas")


def q_turtle_roundtrip(sf_dir: str):
    """G15+G18 round-trip: write the corpus graph as partitioned
    N-Triples (sink), parse it back with the distributed line parser
    (source), and return the triples — oracle is the original triple
    SQL (set equality proves the round-trip is lossless)."""
    import tempfile

    from .store.dataset import DatasetGraphStore, write_ntriples

    out = tempfile.mkdtemp(prefix="og_ttl_", dir="/tmp")
    write_ntriples(table_triples(sf_dir), out)
    store = DatasetGraphStore.from_ntriples_text("urn:og:graph", out)
    return store.dataset


def q_ngram_jaccard(sf_dir: str):
    """Near-dup candidate pairs with exact n-gram Jaccard ≥ 0.8
    (MinHash-LSH candidate generation + exact verification).
    Value-pinned by an independent plain-Python reimplementation of the
    whole chain (gen_fixtures.py fixture oracle)."""
    from .stages.dedup import ngram_jaccard_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = ngram_jaccard_pairs(docs, k=5, threshold=0.8)
    return _typed_pandas(
        pairs, ["src_id", "dst_id", "jaccard"]
    )[["src_id", "dst_id"]]


def q_match_all(sf_dir: str):
    """G3: wildcard pattern filter (predicate bound)."""
    from .store.dataset import DatasetGraphStore

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return store.matches("", f"<{IN_NATION}>", "")


def q_match_first(sf_dir: str):
    """G2 with deterministic tie-break: lexicographic min triple."""
    ds = q_match_all(sf_dir)
    return ds.sort(["subject", "predicate", "object"]).limit(1)


def q_delete_matches(sf_dir: str):
    """G4: negated pattern filter (drop all rdf:type rows)."""
    from .store.dataset import DatasetGraphStore

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return store.without_matches("", RDF_TYPE_T, "").dataset


def q_add_unchecked_dedup(sf_dir: str):
    """G9+G17: union with a duplicate copy, exact dedup restores set."""
    ds = table_triples(sf_dir)
    return distinct_on(ds.union(table_triples(sf_dir)), tr.COLUMNS)


def q_add_checked_atomic(sf_dir: str):
    """G7 at scale, under the oracle: all-or-nothing batch add on the
    Dataset backend via the fully distributed validate-then-commit plan
    (bucketed distinct for in-batch duplicates, bucketed hash-join for
    store overlap — no driver materialization; reference semantics
    memory_store.go:137-157). The batch (region-derived triples) is
    disjoint from the base graph, so validation passes and the result
    is the plain union — the conflict/abort paths are pytest-pinned
    (tests/test_store_dataset.py::TestCheckedBatchOps and
    TestVersionedStorage for the durable manifest-swap commit)."""
    from .store.dataset import DatasetGraphStore

    base = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    batch = _read(sf_dir, "region").map_batches(
        _region_triples_batch, batch_format="pyarrow"
    )
    return base.add_triples_checked(batch).dataset


def q_delete_unchecked_antijoin(sf_dir: str):
    """G13: anti-join removal of all nation-class triples."""
    from .store.dataset import DatasetGraphStore

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    remove = [
        t for t in store.matches("", RDF_TYPE_T, f"<{N_CLASS}>").take_all()
    ]
    import pyarrow as pa

    from .triples import TRIPLE_SCHEMA

    remove_tbl = pa.Table.from_pylist(remove, schema=TRIPLE_SCHEMA)
    return store.delete_triples_unchecked(remove_tbl).dataset


def q_size(sf_dir: str):
    """G16: triple count as a 1-row table."""
    n = table_triples(sf_dir).count()
    return pd.DataFrame({"n": [n]})


def q_distinct_predicates(sf_dir: str):
    """E7-shape: DISTINCT over a column (graph listing analogue)."""
    ds = table_triples(sf_dir)

    def proj(batch: pa.Table) -> pa.Table:
        return (
            pa.table({"predicate": batch["predicate"]})
            .group_by(["predicate"], use_threads=False)
            .aggregate([])
        )

    local = ds.map_batches(proj, batch_format="pyarrow")
    return local.groupby("predicate").map_groups(
        lambda t: t.slice(0, 1), batch_format="pyarrow"
    )


def q_term_accessors(sf_dir: str):
    """T4-T8 over the corpus object terms: vectorized value/language/
    datatype extraction + shape predicates."""
    ds = table_triples(sf_dir)

    def accessors(batch: pa.Table) -> pa.Table:
        o = batch["object"]
        return pa.table(
            {
                "term": o,
                "value": terms.v_value(o),
                "language": terms.v_language(o),
                "datatype": terms.v_datatype(o),
                "is_resource": terms.v_is_resource(o),
                "is_literal": terms.v_is_literal(o),
            }
        )

    out = ds.map_batches(accessors, batch_format="pyarrow")
    # distinct terms so the result is a set (objects repeat across
    # rows): per-block combiner then one bucketed exchange — term
    # determines every other column, so drop_duplicates per bucket is
    # the global distinct.
    from .store.dataset import bucketed_group_map

    def distinct(batch: pa.Table) -> pa.Table:
        return batch.group_by(batch.column_names, use_threads=False).aggregate([])

    local = out.map_batches(distinct, batch_format="pyarrow")
    return bucketed_group_map(
        local, ["term"], lambda df: df.drop_duplicates(subset=["term"]), num_buckets=32
    )


def q_validate_triples(sf_dir: str):
    """T9: vectorized NewTriple validation over a corpus with injected
    malformed rows (odd nation keys get a bracketless subject)."""
    nat = _read(sf_dir, "nation")

    def build(batch: pa.Table) -> pa.Table:
        nk = batch["n_nationkey"]
        key = pc.cast(nk, pa.string())
        good = pc.binary_join_element_wise(pa.scalar("<urn:og:nation/"), key, pa.scalar(">"), "")
        bad = pc.binary_join_element_wise(pa.scalar("urn:og:nation/"), key, "")
        odd = pc.equal(pc.bit_wise_and(pc.cast(nk, pa.int64()), 1), 1)
        subj = pc.if_else(odd, bad, good)
        n = batch.num_rows
        tbl = pa.table(
            {
                "subject": subj,
                "predicate": pa.array([RDF_TYPE_T] * n, pa.string()),
                "object": pa.array([f"<{N_CLASS}>"] * n, pa.string()),
            }
        )
        from .triples import v_valid_mask

        return tbl.append_column("valid", v_valid_mask(tbl).combine_chunks())

    return nat.map_batches(build, batch_format="pyarrow")


def q_get_individuals_filtered(sf_dir: str):
    """O14 flagship: subjects matching mktsegment='BUILDING' AND
    nation=<urn:og:nation/1> (AND = semi-join intersection)."""
    from .ontology.query import candidate_subjects
    from .store.dataset import DatasetGraphStore
    from .triples import Triple

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    filters = [
        [
            Triple("", RDF_TYPE_T, f"<{CUST_CLASS}>"),
            Triple("", f"<{SEGMENT}>", '"BUILDING"'),
        ]
    ]
    out = candidate_subjects(store, filters, num_buckets=16)
    return _typed_pandas(out, ["subject"])


def q_pivot_individuals_summary(sf_dir: str):
    """O13-shape: groupby-subject pivot summarized to flat counts
    (n_triples, n_literal_objects, n_resource_objects) per subject."""
    ds = table_triples(sf_dir)

    def counts(batch: pa.Table) -> pa.Table:
        is_lit = terms.v_is_literal(batch["object"])
        return pa.table(
            {
                "subject": batch["subject"],
                "lit": pc.cast(is_lit, pa.int64()),
                "res": pc.cast(pc.invert(is_lit), pa.int64()),
            }
        )

    from .store.dataset import bucketed_group_map

    flat = ds.map_batches(counts, batch_format="pyarrow")

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("subject", sort=False)
        return (
            g.agg(
                n_triples=("lit", "size"),
                n_literal_objects=("lit", "sum"),
                n_resource_objects=("res", "sum"),
            )
            .astype("int64")
            .reset_index()
        )

    return bucketed_group_map(flat, ["subject"], agg, num_buckets=32)


def q_individuals_flat(sf_dir: str):
    """O13 full-output projection under the hash gate: the distributed
    GetIndividuals pivot (reference ontology_graph.go:532-611) over the
    table-derived graph plus owl:NamedIndividual markers, flattened
    from the struct schema to (uri, kind, prop, value) rows — one row
    per type / sameAs / object-property target / data-property literal
    / label / comment, which is exactly the information the reference's
    individual struct carries."""
    from . import constants as Cm
    from .ontology.query import get_individuals_dataset
    from .store.dataset import DatasetGraphStore

    marker_obj = f"<{Cm.OWL_NAMED_INDIVIDUAL}>"

    def markers(batch: pa.Table, keycol: str, prefix: str) -> pa.Table:
        key = pc.cast(batch[keycol], pa.string())
        subj = pc.binary_join_element_wise(pa.scalar(prefix), key, pa.scalar(">"), "")
        n = batch.num_rows
        return pa.table(
            {
                "subject": subj,
                "predicate": pa.array([RDF_TYPE_T] * n, pa.string()),
                "object": pa.array([marker_obj] * n, pa.string()),
            }
        )

    cust_m = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda b: markers(b, "c_custkey", "<urn:og:cust/"), batch_format="pyarrow"
    )
    nat_m = _read(sf_dir, "nation", ["n_nationkey"]).map_batches(
        lambda b: markers(b, "n_nationkey", "<urn:og:nation/"), batch_format="pyarrow"
    )
    graph = table_triples(sf_dir).union(cust_m).union(nat_m)
    store = DatasetGraphStore("urn:og:graph", graph)
    individuals = get_individuals_dataset(store)

    def flatten(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for r in df.itertuples(index=False):
            u = r.uri
            for t in r.types:
                rows.append((u, "type", "", t))
            for s in r.same_as:
                rows.append((u, "same_as", "", s))
            for op in r.object_props:
                for tgt in op["targets"]:
                    rows.append((u, "object_prop", op["prop"], tgt))
            for dp in r.data_props:
                for lit in dp["literals"]:
                    rows.append((u, "data_prop", dp["prop"], lit))
            for lb in r.labels:
                rows.append((u, "label", lb["lang"], lb["text"]))
            for cm in r.comments:
                rows.append((u, "comment", cm["lang"], cm["text"]))
        return pd.DataFrame(rows, columns=["uri", "kind", "prop", "value"])

    return individuals.map_batches(flatten, batch_format="pandas")


# ---------------------------------------------------------------------------
# KG pipeline queries
# ---------------------------------------------------------------------------


def q_kg_extract_text(sf_dir: str):
    from .pipelines import pages

    extracted = pages.read_pages(sf_dir).map_batches(
        pages.extract_text_batch, batch_format="pyarrow"
    )
    return extracted.select_columns(["url", "text", "lang"])


def q_kg_mentions(sf_dir: str):
    """P3: distinct (url, surface) gazetteer mentions. The distinct is
    fused into the detection UDF (see mentions_distinct_stage) so it
    sees whole pages — a separate pass could observe re-split blocks
    and under-deduplicate."""
    from .pipelines import pages
    from .pipelines.kg import mentions_distinct_stage

    extracted = pages.read_pages(sf_dir).map_batches(
        pages.extract_text_batch, batch_format="pyarrow"
    )
    md = mentions_distinct_stage(extracted)
    return md.select_columns(["url", "surface"])


def q_kg_node_degrees(sf_dir: str):
    """KG analytics: in/out degree per node (hub detection) in ONE
    pass — each block emits per-node partial (out_deg, in_deg) counts
    (objects count as in-edges only when they are resources), then a
    single bucketed exchange sums both columns; no join of two
    aggregates."""
    from .store.dataset import bucketed_group_map

    ds = table_triples(sf_dir)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.groupby("subject", sort=False).size().rename("out_deg").reset_index()
        )
        out.columns = ["node", "out_deg"]
        out["in_deg"] = 0
        res = df.loc[df["object"].str.startswith("<"), "object"]
        inn = res.groupby(res, sort=False).size().rename("in_deg").reset_index()
        inn.columns = ["node", "in_deg"]
        inn["out_deg"] = 0
        both = pd.concat([out, inn], ignore_index=True)
        return both[["node", "out_deg", "in_deg"]].astype(
            {"out_deg": "int64", "in_deg": "int64"}
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", sort=False, as_index=False)[["out_deg", "in_deg"]]
        return g.sum().astype({"out_deg": "int64", "in_deg": "int64"})

    return bucketed_group_map(ds, ["node"], final, partial_fn=partial)


def q_entity_pagerank(sf_dir: str):
    """Graph analytics over the KG: integer fixed-point PageRank
    (pipelines/pagerank.py) on the doubled page↔entity mention graph.
    Integer arithmetic commutes exactly, so the iterative shuffle is
    bit-deterministic at any partitioning — pinned by an independent
    plain-Python fixture oracle (gen_fixtures.gen_entity_pagerank)."""
    from .pipelines import pages
    from .pipelines.kg import mentions_distinct_stage, ONTO
    from .pipelines.pagerank import pagerank

    extracted = pages.read_pages(sf_dir).map_batches(
        pages.extract_text_batch, batch_format="pyarrow"
    )
    md = mentions_distinct_stage(extracted)

    def doubled_edges(batch: pa.Table) -> pa.Table:
        url = batch["url"].combine_chunks()
        ent = pc.binary_join_element_wise(
            pa.scalar(f"{ONTO}#ent_"), batch["surface"].combine_chunks(), ""
        )
        return pa.concat_tables(
            [
                pa.table({"src": url, "dst": ent}),
                pa.table({"src": ent, "dst": url}),
            ]
        )

    e = md.map_batches(doubled_edges, batch_format="pyarrow")
    return pagerank(e, iters=5, num_buckets=16)


def q_entity_hits(sf_dir: str):
    """HITS hubs & authorities over the DIRECTED page→entity mention
    graph (pipelines/pagerank.py::hits): hub score = pages whose
    mentions point at high-authority entities, authority = entities
    mentioned by good hub pages. Integer fixed-point with max-quotient
    rescale in place of the float L2 normalization, so the iterative
    operator is bit-deterministic and sits under the hash gate via an
    independent plain-Python fixture twin
    (gen_fixtures.gen_entity_hits)."""
    from .pipelines import pages
    from .pipelines.kg import mentions_distinct_stage, ONTO
    from .pipelines.pagerank import hits

    extracted = pages.read_pages(sf_dir).map_batches(
        pages.extract_text_batch, batch_format="pyarrow"
    )
    md = mentions_distinct_stage(extracted)

    def directed_edges(batch: pa.Table) -> pa.Table:
        ent = pc.binary_join_element_wise(
            pa.scalar(f"{ONTO}#ent_"), batch["surface"].combine_chunks(), ""
        )
        return pa.table({"src": batch["url"].combine_chunks(), "dst": ent})

    e = md.map_batches(directed_edges, batch_format="pyarrow")
    return hits(e, iters=5, num_buckets=16)


def q_entity_communities(sf_dir: str):
    """Community detection over the entity co-mention graph:
    deterministic synchronous label propagation
    (pipelines/graphstats.py::label_propagation; most frequent
    neighbor label, min-label ties, 5 rounds) on edges = entity pairs
    co-mentioned on a page. Pinned by an independent plain-Python
    fixture twin (gen_fixtures.gen_entity_communities)."""
    from .pipelines import pages
    from .pipelines.graphstats import cooccurrence_edges, label_propagation
    from .pipelines.kg import mentions_distinct_stage

    extracted = pages.read_pages(sf_dir).map_batches(
        pages.extract_text_batch, batch_format="pyarrow"
    )
    md = mentions_distinct_stage(extracted)
    e = cooccurrence_edges(md, "url", "surface")
    return label_propagation(e, iters=5, num_buckets=16)


def q_entity_sssp(sf_dir: str):
    """Weighted shortest paths over the entity co-mention graph
    (pipelines/graphstats.py::sssp — integer Bellman-Ford, frontier
    rounds): edge weight = 10000 // support (stronger co-mention =
    shorter hop), source = the lexicographically smallest entity.
    Fixture-oracled by an independent plain-Python twin."""
    from .pipelines import pages
    from .pipelines.graphstats import cooccurrence_edges, sssp
    from .pipelines.kg import mentions_distinct_stage

    extracted = pages.read_pages(sf_dir).map_batches(
        pages.extract_text_batch, batch_format="pyarrow"
    )
    md = mentions_distinct_stage(extracted)
    e = cooccurrence_edges(md, "url", "surface").materialize()

    def weigh(batch: pa.Table) -> pa.Table:
        w = pc.cast(
            pc.floor(pc.divide(10_000, pc.cast(batch["support"], pa.int64()))),
            pa.int64(),
        )
        return pa.table(
            {"src": batch["src"], "dst": batch["dst"], "weight": w}
        )

    weighted = e.map_batches(weigh, batch_format="pyarrow")
    source = e.min("src")
    return sssp(weighted, [source], directed=False)


def q_kg_triples(sf_dir: str):
    from .pipelines.kg import build_kg, decode_triples_batch

    # decode boundary: the pipeline's triple blocks are
    # dictionary-encoded; the driver-oracle compare hashes flat strings
    return build_kg(sf_dir).triples.map_batches(
        decode_triples_batch, batch_format="pyarrow"
    )


def _sameas_edges(sf_dir: str):
    """The pipeline's sameAs edge list (alias URI → canonical URI).
    Edges come from the shared detect-partials pass (per-batch distinct
    entities), so URI strings are built only on the distinct sets —
    same discipline as the pipeline itself."""
    from .pipelines import pages
    from .pipelines.kg import ent_rel_partials_stage, ONTO

    extracted = pages.read_pages(sf_dir).map_batches(
        pages.extract_text_batch, batch_format="pyarrow"
    )
    partials = ent_rel_partials_stage(extracted)

    def edges(batch: pa.Table) -> pa.Table:
        e = batch.filter(pc.equal(batch["kind"], "e"))
        alias = pc.binary_join_element_wise(
            pa.scalar(f"{ONTO}#ent_"), e["surface"].combine_chunks(),
            pa.scalar("__"), e["lang"].combine_chunks(), ""
        )
        canon = pc.binary_join_element_wise(
            pa.scalar(f"{ONTO}#ent_"), e["surface"].combine_chunks(), ""
        )
        return pa.table({"src": alias, "dst": canon})

    return partials.map_batches(edges, batch_format="pyarrow")


def q_kg_sameas_components(sf_dir: str):
    """P6: union-find output over the pipeline's sameAs edges
    (connected_components with the adaptive size cutover)."""
    from .pipelines.canonicalize import connected_components

    return connected_components(_sameas_edges(sf_dir), num_buckets=16)


def q_kg_sameas_salted(sf_dir: str):
    """P6 under the north rule's explicit skew handling: the SAME
    component computation forced onto the distributed min-label loop
    (small_threshold=0) with salted edge buckets (salt=4 — a head
    entity's out-edges spread over 4 salted buckets, label rows
    replicated to match). Shares kg_sameas_components' oracle: the
    output must be bucket- and salt-invariant."""
    from .pipelines.canonicalize import connected_components

    return connected_components(
        _sameas_edges(sf_dir), num_buckets=16, small_threshold=0, salt=4
    )


# ---------------------------------------------------------------------------
# Training-data queries
# ---------------------------------------------------------------------------


def q_curate_corpus(sf_dir: str):
    """Training-data curation pipeline, exact path (features →
    quality filter → exact dedup) — full SQL oracle."""
    from .pipelines.curate import curate

    out = curate(sf_dir, near_dup=False)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(
            ["doc_id", "lang", "n_tokens", "punct_chars", "n_chars"]
        )

    return out.map_batches(project, batch_format="pyarrow")


def q_curate_full(sf_dir: str):
    """Full curation incl. MinHash near-dup removal. Value-pinned by an
    independent plain-Python fixture oracle (gen_fixtures.py) plus the
    pytest near-dup invariants."""
    from .pipelines.curate import curate

    out = curate(sf_dir, near_dup=True)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_id", "lang", "n_tokens"])

    return out.map_batches(project, batch_format="pyarrow")


def q_hll_distinct(sf_dir: str):
    """HyperLogLog cardinality sketch over documents.text (p=10 →
    1024 registers, ~3.3% standard error). Fully deterministic
    (stages/sketch.py::hll_distinct_count), so the estimate is pinned
    exactly by an independent plain-Python fixture oracle; pytest
    additionally pins the error bound and merge-order invariance."""
    from .stages.sketch import hll_distinct_count

    docs = _read(sf_dir, "documents", ["text"])
    est = hll_distinct_count(docs, "text", p=10)
    return pd.DataFrame({"estimated_distinct_texts": [est], "m": [1024]})


def q_dedup_exact(sf_dir: str):
    from .stages.dedup import exact_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = exact_dedup(docs)
    return out.select_columns(["doc_id"])


def q_winnow_fingerprints(sf_dir: str):
    """Rolling-hash document fingerprinting (winnowing, Schleimer et
    al. 2003): byte 7-gram polynomial hashes, window-8 rightmost-min
    selection — the MOSS local sketch whose shared fingerprints find
    shared substrings of ≥ w+k-1 bytes. Pure per-doc batch transform
    (no exchange); fixture oracle = independent Horner-form Python twin
    (scripts/gen_fixtures.py::gen_winnow_fingerprints)."""
    from .stages.text import winnow_fingerprints

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return winnow_fingerprints(docs, k=7, w=8)


def q_winnow_near_dup(sf_dir: str):
    """MOSS-style copied-passage detection: doc pairs ranked by shared
    winnowing fingerprints (k=7, w=8, max_df=50 boilerplate guard,
    min_shared=2) — substring-overlap similarity, complementary to
    token-shingle minhash. Oracle: pure-SQL self-join over the
    independent winnowing fixture."""
    from .stages.text import winnow_shared_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return winnow_shared_pairs(docs, k=7, w=8, max_df=50, min_shared=2)


def q_fingerprint_groups(sf_dir: str):
    """Dup-group analytics: every doc with the size of its exact-dup
    group (fingerprint grouping ≡ text grouping)."""
    from .stages.text import fingerprint

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    fp = fingerprint(docs)

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__bucket"] = (df["fingerprint"] % 16).astype("int64")
        return df

    def group_sizes(df: pd.DataFrame) -> pd.DataFrame:
        sizes = df.groupby("fingerprint")["doc_id"].transform("size")
        return pd.DataFrame({"doc_id": df["doc_id"], "dup_group_size": sizes.astype("int64")})

    return (
        fp.map_batches(add_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(group_sizes, batch_format="pandas")
    )


def q_token_stats(sf_dir: str):
    from .stages.text import token_stats

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return token_stats(docs).select_columns(
        ["doc_id", "n_tokens", "n_bpe_tokens", "n_chars_computed"]
    )


def q_text_quality_counts(sf_dir: str):
    """Integer quality ingredients (SQL-safe): tokens, stopword hits,
    punctuation chars."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def counts(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        n_tokens = pc.list_value_length(pc.split_pattern(text, " "))
        stop_hits = pc.add(
            pc.count_substring_regex(text, r"\bthe\b"),
            pc.count_substring_regex(text, r"\ba\b"),
        )
        punct = pc.count_substring_regex(text, r"[^\w\s]")
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pc.cast(n_tokens, pa.int64()),
                "stop_hits": pc.cast(stop_hits, pa.int64()),
                "punct_chars": pc.cast(punct, pa.int64()),
            }
        )

    return docs.map_batches(counts, batch_format="pyarrow")


def q_lang_id(sf_dir: str):
    from .stages.text import lang_id

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return lang_id(docs).select_columns(["doc_id", "pred_lang"])


def _ann_query_vectors(sf_dir: str, n: int = 5):
    """Query-vector prep with PREDICATE PUSHDOWN: the row filter runs
    inside the Parquet scan (pyarrow dataset filter), so only the n
    query rows ever leave storage — no full-table take_all on the
    driver."""
    rows = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filter=pc.field("vec_id") < n,
    ).take_all()
    rows.sort(key=lambda r: r["vec_id"])
    qids = [r["vec_id"] for r in rows]
    qvecs = np.asarray([r["embedding"] for r in rows], dtype=np.float64)
    return qids, qvecs


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-10 for queries = vec_id 0..4; returns
    (query_id, vec_id) — ids only, so float formatting can't skew the
    comparison; ordering is handled by the driver's sorted hash."""
    from .stages.ann import brute_force_topk

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qids, qvecs = _ann_query_vectors(sf_dir)
    df = brute_force_topk(emb, qids, qvecs, k=10)
    return df[["query_id", "vec_id"]]


def q_ann_topk_ivf(sf_dir: str):
    """IVF-bucketed approximate top-10 (the ANN scale path): the int64
    fixed-point k-means coarse quantizer, nprobe-bucket search. The
    fixed-point quantizer made this layout-invariant, so the
    approximate result now sits under an exact fixture oracle
    (plain-numpy twin; the float-kmeans version was rows-only)."""
    from .stages.ann import ivf_topk

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qids, qvecs = _ann_query_vectors(sf_dir)
    df = ivf_topk(emb, qids, qvecs, k=10, n_clusters=16, nprobe=8)
    return df[["query_id", "vec_id"]]


def q_ann_topk_ivfpq(sf_dir: str):
    """IVF-PQ approximate top-10 (the compressed-domain 100 TB ANN
    path): coarse fixed-point buckets, integer residual PQ codes,
    LUT-sum candidate scan over ~20 bytes/vector, exact cosine re-rank
    of the 60 best candidates. Every stage integer-deterministic →
    exact fixture oracle (gen_fixtures.gen_ann_ivfpq)."""
    from .stages.ann import ivfpq_topk

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qids, qvecs = _ann_query_vectors(sf_dir)
    df = ivfpq_topk(
        emb, qids, qvecs, k=10, n_clusters=16, nprobe=8, rerank=60
    )
    return df[["query_id", "vec_id"]]


def q_hard_negatives(sf_dir: str):
    """Hard-negative mining (contrastive-training staple): per query
    vector, the 10 most-similar corpus vectors with a DIFFERENT label
    (stages/ann.py::hard_negatives — masked partial-top-k combiner)."""
    from .stages.ann import hard_negatives

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    rows = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
        filter=pc.field("vec_id") < 5,
    ).take_all()
    rows.sort(key=lambda r: r["vec_id"])
    df = hard_negatives(
        emb,
        [r["vec_id"] for r in rows],
        np.asarray([r["embedding"] for r in rows], dtype=np.float64),
        [r["label"] for r in rows],
        k=10,
    )
    return df[["query_id", "vec_id"]]


def q_doc_negative_samples(sf_dir: str):
    """Deterministic uniform negative sampling: 4 pseudo-random other
    doc ids per anchor via splitmix64, self-collisions bumped
    (stages/export.py::negative_samples) — reproducible draw-by-draw
    in the SQL twin."""
    from .stages.export import negative_samples

    docs = _read(sf_dir, "documents", ["doc_id"])
    return negative_samples(docs, n_total=docs.count(), k=4, seed=3)


def q_ann_topk_lsh(sf_dir: str):
    """Random-hyperplane multi-probe LSH top-10 (the second ANN scale
    path next to IVF). Seeded hyperplanes + sign codes are pure
    deterministic functions and the selection is tie-broken, so the
    approximate result sits under an exact fixture oracle (plain-numpy
    twin with a k-boundary distinctness assertion); self-match +
    recall additionally pinned in pytest."""
    from .stages.ann import lsh_topk

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qids, qvecs = _ann_query_vectors(sf_dir)
    df = lsh_topk(emb, qids, qvecs, k=10, n_planes=6, max_probe_hamming=2)
    return df[["query_id", "vec_id"]]


def q_ann_topk_hnsw(sf_dir: str):
    """Sharded deterministic HNSW top-10 (Malkov & Yashunin 2016) —
    the graph-based ANN family next to IVF/LSH/IVF-PQ: one shard-keyed
    exchange builds an independent small-world graph per shard, the
    broadcast queries fan out, per-shard top-k merge by (score desc,
    id asc). The build is made oracle-able by a determinism contract
    (ascending-id inserts, splitmix64-hash level assignment — no RNG
    state — and (dist, id) tie-breaks everywhere), so the approximate
    result sits under an exact fixture oracle: an independent
    plain-Python/heapq reimplementation of the whole sharded
    build+search (scripts/gen_fixtures.py::gen_ann_hnsw) with the
    LSH-twin k-boundary distinctness guard."""
    from .stages.ann import hnsw_topk

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qids, qvecs = _ann_query_vectors(sf_dir)
    df = hnsw_topk(emb, qids, qvecs, k=10)
    return df[["query_id", "vec_id"]]


def q_minhash_dedup(sf_dir: str):
    """MinHash-LSH near-dup removal survivors. Value-pinned by an
    independent plain-Python reimplementation of the whole chain
    (gen_fixtures.py fixture oracle)."""
    from .stages.dedup import minhash_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return minhash_dedup(docs, threshold=0.85).select_columns(["doc_id"])


def q_simhash_pairs(sf_dir: str):
    from .stages.dedup import simhash_near_dup_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return simhash_near_dup_pairs(docs, max_hamming=2)


def q_source_mix(sf_dir: str):
    """Deterministic per-source mixing sampler (Pile/Dolma-style
    domain weights, reproducible): srcN keeps at (500 + 400·N) basis
    points via splitmix64(doc_id^11) — one streaming pass, no RNG
    (stages/export.py::weighted_source_sample)."""
    from .stages.export import weighted_source_sample

    docs = _read(sf_dir, "documents", ["doc_id", "source"])
    weights = {f"src{i}": 500 + 400 * i for i in range(20)}
    return weighted_source_sample(docs, weights, seed=11)


def q_length_outliers(sf_dir: str):
    """Two-pass global-statistic filter: documents whose token count
    exceeds the corpus P90. The threshold comes from the deterministic
    k-min-hash quantile sketch (tiny gather, no global sort — a
    constant-key exact quantile would funnel the whole corpus through
    one worker), then one streaming filter pass. Both passes are
    deterministic, so the SQL twin recomputes the identical threshold."""
    from .stages.sketch import quantile_sketch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def toks(batch: pa.Table) -> pa.Table:
        n = pc.list_value_length(pc.split_pattern(batch["text"], " "))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pc.cast(n, pa.int64()),
            }
        )

    tok = docs.map_batches(toks, batch_format="pyarrow")
    thr = int(
        quantile_sketch(tok, "n_tokens", "doc_id", {"p90": 0.9}, k=512)[
            "value"
        ][0]
    )

    def over(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch["n_tokens"], thr))

    return tok.map_batches(over, batch_format="pyarrow")


def q_orders_rollup(sf_dir: str):
    """OLAP GROUPING SETS: order counts at (status, priority),
    (status), and grand-total granularity in ONE scan — per-block
    partials for every set, one exchange
    (store/dataset.py::grouping_sets_count)."""
    from .store.dataset import grouping_sets_count

    orders = _read(sf_dir, "orders", ["o_orderstatus", "o_orderpriority"])
    return grouping_sets_count(
        orders,
        [["o_orderstatus", "o_orderpriority"], ["o_orderstatus"], []],
    )


def q_lang_by_source(sf_dir: str):
    """Distributed crosstab: per-source language counts (5 static
    category columns) — per-block pivot combiner, pre-aggregated
    exchange (store/dataset.py::crosstab_counts)."""
    from .store.dataset import crosstab_counts

    docs = _read(sf_dir, "documents", ["source", "lang"])
    return crosstab_counts(
        docs, "source", "lang", ["de", "en", "es", "fr", "zh"]
    )


def q_lineitem_rank(sf_dir: str):
    """RANK window function with real tie semantics: lineitems ranked
    by quantity DESC within their order (integer quantities → many
    ties → gap ranks exercised). One key-bucketed exchange +
    vectorized groupby-rank (stages/windows.py::rank_over)."""
    from .stages.windows import rank_over

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity"])
    return rank_over(
        li,
        ["l_orderkey"],
        "l_quantity",
        ascending=False,
        extra_cols=["l_linenumber"],
    )


def q_overlapping_sessions(sf_dir: str):
    """Banded interval-overlap self-join: pairs of DIFFERENT users
    whose gap-sessions intersect in time, counted per user pair. Each
    session replicates to the 1-hour cells it touches, one cell
    exchange, per-cell cross-join with first-shared-cell dedup
    (store/dataset.py::interval_overlap_join) — no all-pairs stage."""
    from .store.dataset import bucketed_group_map, interval_overlap_join

    sess = q_session_windows(sf_dir)

    def slim(df):
        return df[["user_id", "start_us", "end_us"]]

    s = sess.map_batches(slim, batch_format="pandas")
    pairs = interval_overlap_join(s, s, band_us=3_600_000_000)

    def project(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["user_id_l"] < df["user_id_r"]]
        return pd.DataFrame(
            {"user_a": df["user_id_l"], "user_b": df["user_id_r"]}
        )

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=["user_a", "user_b", "n_overlaps"])
        return (
            df.groupby(["user_a", "user_b"], sort=False)
            .size()
            .rename("n_overlaps")
            .reset_index()
        )

    def count_final(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.groupby(["user_a", "user_b"], sort=False)["n_overlaps"]
            .sum()
            .reset_index()
        )
        out["n_overlaps"] = out["n_overlaps"].astype("int64")
        return out

    return bucketed_group_map(
        pairs.map_batches(project, batch_format="pandas"),
        ["user_a", "user_b"],
        count_final,
        partial_fn=count_partial,
    )


def q_events_lag(sf_dir: str):
    """LAG window function: each event's previous value within its
    user partition, ordered by (ts, event_id) — one key-bucketed
    exchange + vectorized groupby-shift per bucket
    (stages/windows.py::lag_over)."""
    from .stages.windows import lag_over

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    out = lag_over(ev, ["user_id"], ["ts", "event_id"], "value")

    def project(df):
        return df[["user_id", "event_id", "value", "prev_value"]]

    return out.map_batches(project, batch_format="pandas")


def q_kg_bfs_depth(sf_dir: str):
    """BFS shortest hop distance over the KG hierarchy edges
    (customer→nation→region), undirected, from region/0 — every node's
    depth in one semi-naive frontier loop (pipelines/graphstats.py::
    bfs_depths). The hierarchy makes the ground truth SQL-expressible
    without recursion: region 0, its nations at 1, their customers
    at 2."""
    from .pipelines.graphstats import bfs_depths

    t = table_triples(sf_dir)

    def edges(batch: pa.Table) -> pa.Table:
        mask = pc.or_(
            pc.equal(batch["predicate"], f"<{IN_NATION}>"),
            pc.equal(batch["predicate"], f"<{IN_REGION}>"),
        )
        sel = batch.filter(mask)
        return pa.table({"src": sel["subject"], "dst": sel["object"]})

    return bfs_depths(
        t.map_batches(edges, batch_format="pyarrow"),
        ["<urn:og:region/0>"],
        max_depth=5,
        directed=False,
    )


def q_top_tokens_by_lang(sf_dir: str):
    """Per-group heavy hitters: the 5 most frequent tokens within each
    language (count DESC, token ASC tie-break) — per-block (group,
    token) count combiner, ONE group-bucketed exchange, merge + top-k
    in the same reduce (stages/text.py::top_terms_per_group)."""
    from .stages.text import top_terms_per_group

    docs = _read(sf_dir, "documents", ["lang", "text"])
    return top_terms_per_group(docs, group_col="lang", k=5)


def q_orders_running_total(sf_dir: str):
    """Cumulative window: each order's running total of spend within
    its customer, ordered by (orderdate, orderkey) — one key-bucketed
    exchange + vectorized groupby-cumsum per bucket
    (stages/windows.py::cumsum_over). Prices as integer cents so the
    prefix sums are exact and bit-match the SQL window."""
    from .stages.windows import cumsum_over

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    )

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch["o_totalprice"], 100.0)), pa.int64()
        )
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "o_custkey": batch["o_custkey"],
                "o_orderdate": batch["o_orderdate"],
                "cents": cents,
            }
        )

    out = cumsum_over(
        orders.map_batches(to_cents, batch_format="pyarrow"),
        ["o_custkey"],
        ["o_orderdate", "o_orderkey"],
        "cents",
    )

    def project(df):
        return df[["o_custkey", "o_orderkey", "cents", "running_total"]]

    return out.map_batches(project, batch_format="pandas")


def q_orders_moving_sum(sf_dir: str):
    """Bounded moving-frame window: each order's trailing-4-order spend
    (ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) within its customer,
    ordered by (orderdate, orderkey) — one key-bucketed exchange, then
    the frame sum as a difference of two integer prefix sums per bucket
    (stages/windows.py::frame_sum_over). Integer cents keep it exact."""
    from .stages.windows import frame_sum_over

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    )

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch["o_totalprice"], 100.0)), pa.int64()
        )
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "o_custkey": batch["o_custkey"],
                "o_orderdate": batch["o_orderdate"],
                "cents": cents,
            }
        )

    out = frame_sum_over(
        orders.map_batches(to_cents, batch_format="pyarrow"),
        ["o_custkey"],
        ["o_orderdate", "o_orderkey"],
        "cents",
        preceding=3,
    )

    def project(df):
        return df[["o_custkey", "o_orderkey", "cents", "frame_sum"]]

    return out.map_batches(project, batch_format="pandas")


def q_customer_quartiles(sf_dir: str):
    """NTILE(4) spend-tier bucketing: quartile of each customer within
    its nation by account balance (desc, custkey tiebreak) — the
    stratification key a curriculum/stratified sampler partitions on
    (stages/windows.py::ntile_over; closed-form tile from row number +
    partition size, bit-matching SQL NTILE)."""
    from .stages.windows import ntile_over

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch["c_acctbal"], 100.0)), pa.int64()
        )
        return pa.table(
            {
                "c_custkey": batch["c_custkey"],
                "c_nationkey": batch["c_nationkey"],
                "cents": cents,
            }
        )

    out = ntile_over(
        cust.map_batches(to_cents, batch_format="pyarrow"),
        ["c_nationkey"],
        ["cents", "c_custkey"],
        4,
        ascending=[False, True],
    )

    def project(df):
        return df[["c_custkey", "c_nationkey", "cents", "tile"]]

    return out.map_batches(project, batch_format="pandas")


def q_lineitem_cov(sf_dir: str):
    """Per-group POPULATION covariance/variances as floored exact
    integers: cov = (N·Σxy − Σx·Σy) // N², var likewise — the
    mean-free form avoids rational means entirely, the distributed
    running sums commute, and the final quotient is evaluated in
    arbitrary-precision Python ints (HUGEINT in the twin) because the
    N-scaled intermediates exceed int64 long before the covariance
    itself does. x = quantity, y = price cents, grouped by return
    flag. One combiner-backed exchange of 5 running sums per group."""
    from .store.dataset import bucketed_group_map

    li = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"]
    )

    def partial(df):
        x = df["l_quantity"].astype("int64")
        y = (df["l_extendedprice"] * 100).round().astype("int64")
        g = pd.DataFrame(
            {
                "flag": df["l_returnflag"],
                "n": 1,
                "sx": x,
                "sy": y,
                # object dtype: Σy² at 100 TB scale exceeds int64;
                # Python ints keep the running sums exact at any size
                "sxx": (x * x).astype(object),
                "syy": (y.astype(object) * y.astype(object)),
                "sxy": (x * y).astype(object),
            }
        )
        return g.groupby("flag", sort=False, as_index=False).sum()

    def final(df):
        s = df.groupby("flag", sort=False, as_index=False)[
            ["n", "sx", "sy", "sxx", "syy", "sxy"]
        ].sum()
        def tdiv(num: int, den: int) -> int:
            # truncate toward zero — SQL integer division (Python //
            # floors, which diverges on a negative covariance)
            q = abs(num) // den
            return q if num >= 0 else -q

        rows = []
        for _, r in s.iterrows():
            n = int(r["n"])
            sx, sy = int(r["sx"]), int(r["sy"])
            n2 = n * n
            rows.append(
                {
                    "flag": r["flag"],
                    "n": n,
                    "cov": tdiv(n * int(r["sxy"]) - sx * sy, n2),
                    "varx": tdiv(n * int(r["sxx"]) - sx * sx, n2),
                    "vary": tdiv(n * int(r["syy"]) - sy * sy, n2),
                }
            )
        out = pd.DataFrame(rows)
        for c in ("n", "cov", "varx", "vary"):
            out[c] = out[c].astype("int64")
        return out

    # keyed on the partial output's column (partial_fn runs first)
    return bucketed_group_map(li, ["flag"], final, partial_fn=partial)


def q_customer_percentiles(sf_dir: str):
    """PERCENT_RANK + CUME_DIST in one pass: each customer's relative
    balance position within its nation (desc) — the percentile feature
    a quality-threshold or curriculum stage keys on
    (stages/windows.py::dist_rank_over; one int64→float64 division per
    output so the floats bit-match the SQL windows)."""
    from .stages.windows import dist_rank_over

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch["c_acctbal"], 100.0)), pa.int64()
        )
        return pa.table(
            {
                "c_custkey": batch["c_custkey"],
                "c_nationkey": batch["c_nationkey"],
                "cents": cents,
            }
        )

    out = dist_rank_over(
        cust.map_batches(to_cents, batch_format="pyarrow"),
        ["c_nationkey"],
        "cents",
        ascending=False,
        extra_cols=["c_custkey"],
    )

    def project(df):
        return df[["c_custkey", "c_nationkey", "cents", "percent_rank", "cume_dist"]]

    return out.map_batches(project, batch_format="pandas")


def q_chunk_documents(sf_dir: str):
    """RAG-style sliding-window chunking (window 64, stride 48 —
    25% overlap): one streaming flat expansion per batch, no exchange
    (stages/packing.py::chunk_documents)."""
    from .stages.packing import chunk_documents

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return chunk_documents(docs, window=64, stride=48)


def q_bloom_seen(sf_dir: str):
    """Bloom-filter seen-before probe: build a 512-bit filter over the
    doc_id%3==0 snapshot (per-block OR combiner → word exchange → tiny
    gather), broadcast it, probe every document. m is deliberately
    small so real false positives appear; the splitmix64 SQL twin
    recomputes every bit position, so even the false positives
    hash-match."""
    from .stages.sketch import bloom_build, bloom_probe

    docs = _read(sf_dir, "documents", ["doc_id"])

    def snap_only(df):
        return df[df["doc_id"] % 3 == 0]

    snap = docs.map_batches(snap_only, batch_format="pandas")
    bits = bloom_build(snap, "doc_id", m_bits=512)
    return bloom_probe(docs, bits, "doc_id", m_bits=512)


def q_kmeans_clusters(sf_dir: str):
    """Deterministic int64 fixed-point k-means (stages/cluster.py):
    smallest-id init, 10 Lloyd rounds of broadcast-down /
    combiner-rows-up, exact integer centroid updates — bit-identical
    for any block layout, so it carries a fixture oracle (the float
    variant could not)."""
    from .stages.cluster import assign_clusters, kmeans_fixed_point

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cents = kmeans_fixed_point(emb, k=8, iters=10)
    return assign_clusters(emb, cents)


def q_pq_codes(sf_dir: str):
    """Product quantization codes (stages/cluster.py::pq_encode):
    4 subspaces × 16 centroids over the 64-dim embeddings, 5 Lloyd
    rounds per subspace — every step exact int64, fixture-oracled
    against an independent plain-numpy twin (gen_fixtures.gen_pq_codes).
    The compressed representation the IVF-PQ search path scans."""
    from .stages.cluster import pq_encode

    return pq_encode(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        m=4, k=16, iters=5,
    )


def q_semdedup(sf_dir: str):
    """SemDeDup-style semantic dedup: k-means-cluster the embeddings,
    then within each cluster drop every vector with a lower-id
    cosine-0.4 neighbor. Cluster assignment under the fixture oracle;
    the prune rule re-derived independently by DuckDB
    (list_cosine_similarity EXISTS anti-join)."""
    from .stages.cluster import semdedup

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return semdedup(emb, k=8, iters=10, threshold=0.4)


def q_embedding_near_dup(sf_dir: str):
    from .stages.ann import self_similarity_pairs

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    pairs = self_similarity_pairs(emb, threshold=0.4)

    def ids_only(batch: pa.Table) -> pa.Table:
        return pa.table({"src_id": batch["src_id"], "dst_id": batch["dst_id"]})

    return _typed_pandas(
        pairs.map_batches(ids_only, batch_format="pyarrow"), ["src_id", "dst_id"]
    )


# ---------------------------------------------------------------------------
# Relational breadth (aggregate / join / window / sort+limit)
# ---------------------------------------------------------------------------


def q_events_window(sf_dir: str):
    """Tumbling 1h window per user: count + exact min/max (no float
    summation ambiguity)."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])

    from .store.dataset import bucketed_group_map

    def win_partial(df: pd.DataFrame) -> pd.DataFrame:
        # per-block combiner: pre-aggregate before the exchange so the
        # groupby shuffles one row per (user, window) per block, not
        # one per event.
        df = df.copy()
        df["win"] = (df["ts"].astype("int64") // (3600 * 1_000_000)).astype("int64")
        g = df.groupby(["user_id", "win"], sort=False)["value"]
        return g.agg(n="count", mn="min", mx="max").reset_index()

    def win_final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "win"], sort=False)
        out = g.agg(
            n_events=("n", "sum"), min_value=("mn", "min"), max_value=("mx", "max")
        ).reset_index()
        out["n_events"] = out["n_events"].astype("int64")
        return out

    return bucketed_group_map(
        ev, ["user_id"], win_final, num_buckets=32, partial_fn=win_partial
    )


def q_events_hopping(sf_dir: str):
    """Hopping (sliding) window per user: 1 h windows starting every
    30 min — each event counted in 2 overlapping windows. `win` is the
    window start in 30-min units."""
    from .stages.windows import hopping_window_agg

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])
    return hopping_window_agg(
        ev, "user_id", "ts", "value",
        size_us=3600 * 1_000_000, hop_us=1800 * 1_000_000, num_buckets=32,
    )


def q_top_orders_per_customer(sf_dir: str):
    """Top-3 orders per customer by price (sort+limit within key):
    the distributed top-k-per-group operator — per-block top-k
    combiner, one hash exchange, per-bucket final + row_number."""
    from .store.dataset import top_k_per_group

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])

    def to_cents(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_custkey": df["o_custkey"].astype("int64"),
                "o_orderkey": df["o_orderkey"].astype("int64"),
                "total_cents": (df["o_totalprice"] * 100).round().astype("int64"),
            }
        )

    cents = orders.map_batches(to_cents, batch_format="pandas")
    return top_k_per_group(
        cents,
        key_cols=["o_custkey"],
        order_cols=["total_cents", "o_orderkey"],
        ascending=[False, True],
        k=3,
        rank_col="rn",
        num_buckets=32,
    )


def q_customers_without_orders(sf_dir: str):
    """Anti-join via distributed left outer join: customers with no
    URGENT order, counted per nation (exercises hash_join's outer
    semantics under the driver gate, incl. null-key discipline)."""
    from .store.dataset import bucketed_group_map, hash_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def order_keys(df: pd.DataFrame) -> pd.DataFrame:
        # combiner: filter + one row per custkey per block pre-join
        hit = df[df["o_orderpriority"] == "1-URGENT"]
        return hit[["o_custkey"]].drop_duplicates().rename(
            columns={"o_custkey": "c_custkey"}
        ).assign(has_order=1)

    keys = orders.map_batches(order_keys, batch_format="pandas")
    joined = hash_join(cust, keys, on="c_custkey", how="left", num_buckets=16)

    def count_missing(df: pd.DataFrame) -> pd.DataFrame:
        # a custkey can appear once per block in `keys`; any non-null
        # has_order means the customer ordered
        g = df.groupby(["c_nationkey", "c_custkey"], sort=False)["has_order"]
        per_cust = g.max().reset_index()
        miss = per_cust[per_cust["has_order"].isna()]
        out = (
            miss.groupby("c_nationkey", sort=False)
            .size()
            .reset_index(name="n_customers_no_orders")
        )
        return out.astype(
            {"c_nationkey": "int64", "n_customers_no_orders": "int64"}
        )

    return bucketed_group_map(joined, ["c_nationkey"], count_missing, num_buckets=8)


def q_stratified_sample(sf_dir: str):
    """Deterministic stratified sampling: 5 documents per language,
    chosen by smallest Knuth multiplicative hash of doc_id — the
    hash-ordered top-k-per-group composition, reproducible in SQL
    (same formula as sample_hash) so the oracle is exact."""
    from .store.dataset import top_k_per_group

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])

    def add_hash(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["h"] = (df["doc_id"].astype("int64") * 2654435761) % 4294967296
        return df

    hashed = docs.map_batches(add_hash, batch_format="pandas")
    out = top_k_per_group(
        hashed,
        key_cols=["lang"],
        order_cols=["h", "doc_id"],
        ascending=[True, True],
        k=5,
        num_buckets=8,
    )

    def drop_h(df: pd.DataFrame) -> pd.DataFrame:
        return df[["doc_id", "lang"]].astype({"doc_id": "int64"})

    return out.map_batches(drop_h, batch_format="pandas")


def q_user_value_quantiles(sf_dir: str):
    """Exact per-user discrete quantiles of event value (p50/p90) —
    the distributed grouped-quantile operator; SQL quantile_disc is
    the oracle (discrete semantics ⇒ results are stored doubles, no
    interpolation-arithmetic drift)."""
    from .store.dataset import grouped_quantiles

    ev = _read(sf_dir, "events", ["user_id", "value"])
    return grouped_quantiles(
        ev, ["user_id"], "value", {"p50": 0.5, "p90": 0.9}, num_buckets=32
    )


def q_asof_last_order(sf_dir: str):
    """Backward as-of join: every event matched to the user's most
    recent order at event time (orders keyed by o_custkey = user_id).
    Output (user_id, ts_us, o_orderkey, total_cents); oracle is
    DuckDB's native ASOF JOIN."""
    from .store.dataset import asof_join

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_orderkey", "o_totalprice"])

    def as_keyed(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"o_custkey": "user_id", "o_orderdate": "ts"})

    # deterministic tie-break: several orders can share (custkey,
    # orderdate); keep the max orderkey per timestamp so the as-of
    # match is unique (oracle applies the same rule with arg_max)
    from .store.dataset import bucketed_group_map

    def keep_max_order(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values("o_orderkey", kind="stable")
            .groupby(["user_id", "ts"], sort=False)
            .tail(1)
        )

    rhs = bucketed_group_map(
        orders.map_batches(as_keyed, batch_format="pandas"),
        ["user_id", "ts"],
        keep_max_order,
        num_buckets=16,
    )
    joined = asof_join(ev, rhs, key="user_id", time_col="ts")

    def project(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "ts_us": df["ts"].astype("int64"),
                "o_orderkey": df["o_orderkey"].astype("int64"),
                "total_cents": (df["o_totalprice"] * 100).round().astype("int64"),
            }
        )
        return out

    return joined.map_batches(project, batch_format="pandas")


def q_range_join_recent_orders(sf_dir: str):
    """Range join (interval predicate): orders within 90 days BEFORE
    each customer-summary anchor date, counted per customer. Physical
    plan: hash-bucket the equi-key (custkey) like hash_join, then the
    range predicate is a vectorized filter inside the per-bucket
    merge — the standard equi-key + range-residual decomposition."""
    from .store.dataset import bucketed_group_map, hash_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])
    # anchor = each customer's LAST order date (derived, deterministic)
    def last_date(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_custkey", sort=False)["o_orderdate"]
        return g.max().reset_index().rename(columns={"o_orderdate": "anchor"})

    anchors = bucketed_group_map(orders, ["o_custkey"], last_date, num_buckets=16)
    joined = hash_join(orders, anchors, on="o_custkey", num_buckets=16)

    def in_range_counts(df: pd.DataFrame) -> pd.DataFrame:
        lo = df["anchor"] - pd.Timedelta(days=90)
        hit = df[(df["o_orderdate"] > lo) & (df["o_orderdate"] <= df["anchor"])]
        g = hit.groupby("o_custkey", sort=False)
        return g.agg(n_recent=("o_orderdate", "count")).reset_index().astype(
            {"n_recent": "int64"}
        )

    return bucketed_group_map(joined, ["o_custkey"], in_range_counts, num_buckets=16)


def q_event_funnel(sf_dir: str):
    """Conversion funnel view → click → purchase under earliest-
    completion semantics (stages/windows.py::funnel_counts): users
    reaching each step with each step strictly after the previous
    one's completion time."""
    from .stages.windows import funnel_counts

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    return funnel_counts(
        ev, "user_id", "ts", "event_type", ["view", "click", "purchase"]
    )


def q_user_modal_event(sf_dir: str):
    """Per-group MODE: each user's most frequent event type (count
    DESC, type ASC tie-break) — one combiner-backed exchange
    (stages/windows.py::mode_over)."""
    from .stages.windows import mode_over

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    return mode_over(ev, ["user_id"], "event_type")


def q_events_ohlc(sf_dir: str):
    """OHLC resampling: per (user, 1h window) open/high/low/close of
    event value, ordered by (ts, event_id) — values are selected
    stored doubles so the gate is exact
    (stages/windows.py::ohlc_downsample)."""
    from .stages.windows import ohlc_downsample

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    return ohlc_downsample(
        ev, "user_id", "ts", ["ts", "event_id"], "value",
        size_us=3600 * 1_000_000,
    )


def q_session_windows(sf_dir: str):
    """Gap-based sessionization (streaming-window custom operator):
    per user, events more than 30 minutes apart start a new session;
    emits one row per session with count + start/end (epoch µs).
    Physical plan: hash-bucket users (all of a user's events
    co-located), then one vectorized pandas pass per bucket — the
    standard keyed-window shape on Ray Data."""
    from .store.dataset import bucketed_group_map

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    gap_us = 30 * 60 * 1_000_000

    def sessions(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts"], kind="stable").copy()
        ts = df["ts"].astype("int64")
        new_user = df["user_id"].ne(df["user_id"].shift())
        gap = ts - ts.shift().fillna(0).astype("int64")
        df["sid"] = (new_user | (gap > gap_us)).cumsum()
        df["ts_us"] = ts
        g = df.groupby(["user_id", "sid"], sort=False)
        out = g.agg(
            n_events=("ts_us", "count"),
            start_us=("ts_us", "min"),
            end_us=("ts_us", "max"),
        ).reset_index()
        # session_id = per-user ordinal (1-based, by start time)
        out = out.sort_values(["user_id", "start_us"], kind="stable")
        out["session_id"] = out.groupby("user_id", sort=False).cumcount() + 1
        return out[["user_id", "session_id", "n_events", "start_us", "end_us"]].astype(
            {"n_events": "int64", "session_id": "int64"}
        )

    return bucketed_group_map(ev, ["user_id"], sessions, num_buckets=32)


def q_top_nations_by_customers(sf_dir: str):
    """Join + groupby + sort + limit: nations ranked by customer count."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    from ray.data.aggregate import Count

    counts = cust.groupby("c_nationkey").aggregate(Count(alias_name="n_customers"))
    df = counts.to_pandas()
    nat = _read(sf_dir, "nation").to_pandas()
    out = df.merge(nat[["n_nationkey", "n_name"]], left_on="c_nationkey", right_on="n_nationkey")
    out = out.sort_values(
        ["n_customers", "n_nationkey"], ascending=[False, True], kind="stable"
    ).head(10)
    return out[["n_nationkey", "n_name", "n_customers"]].reset_index(drop=True)


def q_lineitem_pricing(sf_dir: str):
    """TPC-H Q1-shape grouped aggregate with partial pre-aggregation
    inside map_batches before the (tiny) global groupby; money sums
    carried as integer cents — exact, no float drift."""
    li = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        tmp = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "sum_qty_cents": (df["l_quantity"] * 100.0).round().astype("int64"),
                "sum_price_cents": (df["l_extendedprice"] * 100.0).round().astype("int64"),
                "sum_disc_cents": (df["l_discount"] * 100.0).round().astype("int64"),
                "n_rows": 1,
            }
        )
        return tmp.groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()

    from ray.data.aggregate import Sum

    parts = li.map_batches(partial, batch_format="pandas")
    return parts.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty_cents", alias_name="sum_qty_cents"),
        Sum("sum_price_cents", alias_name="sum_price_cents"),
        Sum("sum_disc_cents", alias_name="sum_disc_cents"),
        Sum("n_rows", alias_name="n_rows"),
    )


# ---------------------------------------------------------------------------
# Corpus-preparation operators: decontamination, PII scrubbing, packing
# ---------------------------------------------------------------------------

# decontamination parameters shared by the Ray and SQL sides: benchmark
# = every 25th doc, 4-token n-gram overlap (chosen so the synthetic
# corpus has a non-trivial contaminated subset to check against)
DECONTAM_N = 4
DECONTAM_BENCH_MOD = 25


def q_decontaminate(sf_dir: str):
    """Test-set decontamination: per TRAINING doc, the number of token
    4-gram windows shared with the (broadcast) benchmark subset."""
    from .stages.decontam import decontaminate

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def bench_part(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        return batch.filter(pa.array(ids % DECONTAM_BENCH_MOD == 0))

    def train_part(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        return batch.filter(pa.array(ids % DECONTAM_BENCH_MOD != 0))

    bench = docs.map_batches(bench_part, batch_format="pyarrow")
    train = docs.map_batches(train_part, batch_format="pyarrow")
    return decontaminate(train, bench, n=DECONTAM_N)


def q_pii_scrub(sf_dir: str):
    """PII redaction over the corpus with deterministic PII injected
    into every even doc (the synthetic table has no real PII; the
    injection is part of the query definition, mirrored in SQL, so the
    redaction chain is actually exercised end-to-end)."""
    from .stages.scrub import scrub_pii

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def inject(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        did = pc.cast(batch["doc_id"], pa.string())
        phone = pa.array((ids % 9000 + 1000).astype(str))
        octet = pa.array((ids % 256).astype(str))
        decorated = pc.binary_join_element_wise(
            batch["text"].combine_chunks()
            if isinstance(batch["text"], pa.ChunkedArray)
            else batch["text"],
            pa.scalar(" contact user"),
            did,
            pa.scalar("@mail.example.com call 555-010-"),
            phone,
            pa.scalar(" from 10.0."),
            octet,
            pa.scalar(".1"),
            "",
        )
        text = pc.if_else(pa.array(ids % 2 == 0), decorated, batch["text"])
        return pa.table({"doc_id": batch["doc_id"], "text": text})

    return scrub_pii(docs.map_batches(inject, batch_format="pyarrow"))


def q_pack_sequences(sf_dir: str):
    """Concat-and-chunk sequence packing (window 512) via the
    distributed two-pass prefix sum; bucket_width 128 forces several
    range buckets through the exchange even at test scale."""
    from .stages.packing import pack_sequences

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return pack_sequences(docs, window=512, bucket_width=128)


def q_repetition_stats(sf_dir: str):
    """Gopher-style per-doc repetition counts (integer, shuffle-free)."""
    from .stages.repetition import repetition_stats

    return repetition_stats(_read(sf_dir, "documents", ["doc_id", "text"]))


def q_dup_ngrams(sf_dir: str):
    """Cross-corpus duplicate trigram counts (Gopher §A1.1 global
    signal): exact int windows-total + corpus-duplicated windows per
    doc; two bucketed exchanges (stages/repetition.py::dup_ngram_stats)."""
    from .stages.repetition import dup_ngram_stats

    return dup_ngram_stats(
        _read(sf_dir, "documents", ["doc_id", "text"]), n=3, min_count=2
    )


def q_dedup_spans(sf_dir: str):
    """Exact duplicate-span REMOVAL (Lee et al. 2022 substring dedup,
    token-window form): every position covered by a corpus-duplicated
    5-gram window is cut, survivors re-joined — two bucketed exchanges
    (ngram decision, doc rebuild co-group), nothing driver-side
    (stages/repetition.py::remove_dup_spans)."""
    from .stages.repetition import remove_dup_spans

    return remove_dup_spans(
        _read(sf_dir, "documents", ["doc_id", "text"]), n=5, min_count=2
    )


def q_export_shards(sf_dir: str):
    """Deterministic shuffle-export assignment: splitmix64(doc_id^7),
    32 shards — the no-all-to-all replacement for random_shuffle."""
    from .stages.export import shard_assignments

    return shard_assignments(
        _read(sf_dir, "documents", ["doc_id"]), num_shards=32, seed=7
    )


def q_event_props_stats(sf_dir: str):
    """Semi-structured ingest: the integer field `k` extracted from
    the events' JSON `props` payload with one vectorized RE2 kernel
    (stages/text.py::extract_json_int), then aggregated per event
    type — (event_type, n, sum_k, min_k, max_k)."""
    from .stages.text import extract_json_int
    from .store.dataset import bucketed_group_map

    ev = extract_json_int(
        _read(sf_dir, "events", ["event_type", "props"]), "props", "k"
    )

    def partial(df):
        g = df.groupby("event_type", sort=False)["k"]
        out = g.agg(n="count", sum_k="sum", min_k="min", max_k="max")
        return out.reset_index()

    def final(df):
        g = df.groupby("event_type", sort=False)
        out = pd.DataFrame(
            {
                "n": g["n"].sum(),
                "sum_k": g["sum_k"].sum(),
                "min_k": g["min_k"].min(),
                "max_k": g["max_k"].max(),
            }
        ).reset_index()
        for c in ("n", "sum_k", "min_k", "max_k"):
            out[c] = out[c].astype("int64")
        return out

    return bucketed_group_map(
        ev.select_columns(["event_type", "k"]),
        ["event_type"],
        final,
        partial_fn=partial,
        num_buckets=8,
    )


def q_events_zorder(sf_dir: str):
    """Z-order clustering key over (user_id, hour): the Morton
    interleave that makes one file sort prune scans on BOTH
    dimensions (stages/export.py::zorder_key — pure per-batch bit
    arithmetic, no exchange)."""
    from .stages.export import zorder_key

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def with_hour(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["ts"], pa.int64())
        hour = pc.cast(pc.floor(pc.divide(us, 3_600_000_000)), pa.int64())
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "hour": hour,
            }
        )

    keyed = events.map_batches(with_hour, batch_format="pyarrow")
    out = zorder_key(keyed, ["user_id", "hour"])
    return out.select_columns(["event_id", "zkey"])


def q_user_activity_islands(sf_dir: str):
    """Gaps-and-islands: each event opens a 30-minute activity
    interval; overlapping intervals merge into per-user coverage
    islands (stages/windows.py::merge_intervals — one key-bucketed
    exchange, vectorized cummax island assignment)."""
    from .stages.windows import merge_intervals

    events = _read(sf_dir, "events", ["user_id", "ts"])

    def to_intervals(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["ts"], pa.int64())
        return pa.table(
            {
                "user_id": batch["user_id"],
                "s": us,
                "e": pc.add(us, 1_800_000_000),
            }
        )

    iv = events.map_batches(to_intervals, batch_format="pyarrow")
    return merge_intervals(iv, ["user_id"], "s", "e")


def q_event_value_outliers(sf_dir: str):
    """Robust per-user outliers: |value − median| > 3·MAD with both
    statistics as discrete quantiles (stages/windows.py::mad_outliers
    — one key-bucketed exchange, two vectorized sorts + positional
    takes per bucket)."""
    from .stages.windows import mad_outliers

    return mad_outliers(
        _read(sf_dir, "events", ["event_id", "user_id", "value"]),
        ["user_id"],
        "value",
        k=3,
        extra_cols=["event_id"],
    )


def q_user_retention_cohorts(sf_dir: str):
    """Cohort retention triangle over events: users grouped by
    first-activity week, distinct-user counts per (cohort, offset)
    (stages/windows.py::retention_cohorts — per-batch (user, week)
    distinct combiner, one user-keyed exchange computing cohort AND
    offsets in the same reduce, one tiny count exchange)."""
    from .stages.windows import retention_cohorts

    return retention_cohorts(
        _read(sf_dir, "events", ["user_id", "ts"]), "user_id", "ts"
    )


def q_source_concentration(sf_dir: str):
    """Per-language source-concentration HHI (integer basis-point
    shares, floored, squared and summed — exact int64) — the corpus
    diversity diagnostic for mixing decisions
    (stages/export.py::group_concentration)."""
    from .stages.export import group_concentration

    return group_concentration(
        _read(sf_dir, "documents", ["lang", "source"]), "lang", "source"
    )


def q_perceptron_filter(sf_dir: str):
    """Model-in-the-loop quality filter, trained IN the engine: a
    batch perceptron (stages/text.py::perceptron_train — commutative
    integer updates, so training is bit-deterministic at any layout)
    learns the long-document label (n_chars ≥ 300) from the quality
    features over 5 epochs, then scores the corpus. The label is
    text-derivable by construction, so the demo converges; the point
    under the gate is the exactly-reproducible distributed trainer."""
    from .stages.text import perceptron_scores

    docs = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def label(batch: pa.Table) -> pa.Table:
        y = pc.if_else(
            pc.greater_equal(batch["n_chars"], 300),
            pa.scalar(1, pa.int64()),
            pa.scalar(-1, pa.int64()),
        )
        return pa.table(
            {"doc_id": batch["doc_id"], "text": batch["text"], "y": y}
        )

    return perceptron_scores(
        docs.map_batches(label, batch_format="pyarrow"), epochs=5
    )


def q_collocations(sf_dir: str):
    """Top-50 bigram collocations by exact integer PMI lift
    (stages/text.py::collocations): two combiner-backed count
    exchanges, min-count-bounded survivors joined to their unigram
    counts, arbitrary-precision scoring matching the HUGEINT twin."""
    from .stages.text import collocations

    return collocations(
        _read(sf_dir, "documents", ["text"]), min_count=5, k=50
    )


def q_docs_sorted_neighborhood(sf_dir: str):
    """Sorted-neighborhood ER blocking (Hernández-Stolfo): candidate
    pairs within a 5-row window of the (n_chars, doc_id) sort order —
    distributed without a global sort via ordered key cells + a
    driver-computed predecessor-coverage fan-out
    (stages/dedup.py::sorted_neighborhood_pairs)."""
    from .stages.dedup import sorted_neighborhood_pairs

    return sorted_neighborhood_pairs(
        _read(sf_dir, "documents", ["doc_id", "n_chars"]),
        id_col="doc_id",
        key_col="n_chars",
        window=5,
        cell_shift=4,
    )


def q_ngram_novelty(sf_dir: str):
    """Document originality: fraction of each doc's distinct token
    3-grams occurring in no other doc, in integer basis points
    (stages/text.py::ngram_novelty) — two bucketed exchanges
    (gram-keyed df, doc-keyed sum), no pairwise blowup."""
    from .stages.text import ngram_novelty

    return ngram_novelty(_read(sf_dir, "documents", ["doc_id", "text"]), n=3)


def q_train_val_test_split(sf_dir: str):
    """Deterministic 90/5/5 train/val/test split by id hash
    (stages/export.py::split_assign): label = splitmix64(doc_id) mod
    10000 through the cumulative boundaries — stable when the corpus
    grows, no shuffle, no driver state."""
    from .stages.export import split_assign

    return split_assign(_read(sf_dir, "documents", ["doc_id"]))


def q_vocab_coverage(sf_dir: str):
    """Per-doc coverage by the corpus-global top-100 vocabulary (the
    corpus-statistics broadcast pattern)."""
    from .stages.vocab import vocab_coverage

    return vocab_coverage(_read(sf_dir, "documents", ["doc_id", "text"]), k=100)


def q_dict_encode(sf_dir: str):
    """Vocabulary id-encoding (tokenizer-ID primitive): top-256 tokens
    by (count DESC, token ASC) get ids 0..255, OOV = -1; per-doc
    integer summary keeps the hash gate exact
    (stages/vocab.py::dict_encode — pc.index_in against one broadcast
    vocab array IS the encoder)."""
    from .stages.vocab import dict_encode

    return dict_encode(_read(sf_dir, "documents", ["doc_id", "text"]), k=256)


def q_bpe_merges(sf_dir: str):
    """Tokenizer training: BPE merge learning over the corpus — the
    corpus-sized work is the combiner-backed word histogram exchange;
    the merge loop runs on the top-200-bounded frequency table
    (stages/vocab.py::bpe_train). Fixture oracle: independent
    plain-Python twin (scripts/gen_fixtures.py::gen_bpe_merges)."""
    from .stages.vocab import bpe_train

    return bpe_train(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        num_merges=30,
        top_words=200,
    )


def q_bpe_token_counts(sf_dir: str):
    """Real-BPE token counting: learned merges broadcast once, applied
    per DISTINCT word per batch (Zipf combiner), pieces summed per doc
    (stages/vocab.py::bpe_token_counts)."""
    from .stages.vocab import bpe_token_counts

    return bpe_token_counts(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        num_merges=30,
        top_words=200,
    )


def q_sparql_select(sf_dir: str):
    """E8: SPARQL SELECT passthrough — a 3-pattern BGP (type + join +
    literal constraint) compiled onto matches() scans and distributed
    hash joins (store/sparql.py)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX rel: <urn:og:rel/>
        PREFIX attr: <urn:og:attr/>
        SELECT ?cust ?nation WHERE {{
          ?cust a <{CUST_CLASS}> .
          ?cust rel:inNation ?nation .
          ?cust attr:mktsegment "BUILDING" .
        }}
        """,
    )


def q_incremental_dedup(sf_dir: str):
    """Seen-before filter: docs outside the snapshot (doc_id % 3 != 0)
    whose text does not occur in the snapshot (doc_id % 3 == 0) —
    ONE bucketed fingerprint anti-join, no driver materialization."""
    from .stages.dedup import incremental_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def snapshot(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        return batch.filter(pa.array(ids % 3 == 0))

    def fresh(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        return batch.filter(pa.array(ids % 3 != 0))

    seen = docs.map_batches(snapshot, batch_format="pyarrow")
    new = docs.map_batches(fresh, batch_format="pyarrow")
    return incremental_dedup(new, seen).select_columns(["doc_id"])


def q_classifier_score(sf_dir: str):
    """Broadcast linear quality classifier: integer weights over exact
    token/stopword/punctuation/char counts; keep = score >= 0."""
    from .stages.text import classifier_score

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return classifier_score(
        docs, weights=[3, 10, -5, -1], bias=200, threshold=0
    )


def q_domain_cap(sf_dir: str):
    """Per-domain cap: at most 10 docs per source, smallest doc_ids
    win (deterministic, RNG-free)."""
    from .stages.dedup import group_cap

    docs = _read(sf_dir, "documents", ["doc_id", "source"])
    return group_cap(docs, key="source", cap=10, order_col="doc_id")


def q_jsonl_roundtrip(sf_dir: str):
    """JSONL interchange round-trip: documents → partitioned JSONL sink
    → typed reader; oracle is the original table (set equality proves
    losslessness, the G15/G18 pattern applied to the corpus format)."""
    import tempfile

    from .sources.jsonl import read_documents_jsonl, write_documents_jsonl

    out = tempfile.mkdtemp(prefix="og_jsonl_", dir="/tmp")
    write_documents_jsonl(_read(sf_dir, "documents"), out)
    return read_documents_jsonl(out)


def q_jsonl_gz_roundtrip(sf_dir: str):
    """GZIP JSONL interchange round-trip — the compressed form public
    web corpora actually ship as: documents → content-hash-named
    ``part-*.jsonl.gz`` shards (stdlib gzip per block, resumable at
    file granularity) → file-parallel gunzip+parse reader. Oracle is
    the original table (set equality proves losslessness through the
    compression layer)."""
    import tempfile

    from .sources.jsonl import (
        read_documents_jsonl_gz,
        write_documents_jsonl_gz,
    )

    out = tempfile.mkdtemp(prefix="og_jsonlgz_", dir="/tmp")
    write_documents_jsonl_gz(_read(sf_dir, "documents"), out)
    return read_documents_jsonl_gz(out)


def q_csv_roundtrip(sf_dir: str):
    """CSV interchange round-trip: documents → partitioned CSV sink →
    schema-pinned reader; oracle is the original table (set equality
    proves losslessness through quoting of commas/quotes/newlines)."""
    import tempfile

    from .sources.csv import read_documents_csv, write_documents_csv

    out = tempfile.mkdtemp(prefix="og_csv_", dir="/tmp")
    write_documents_csv(_read(sf_dir, "documents"), out)
    return read_documents_csv(out)


def q_warc_roundtrip(sf_dir: str):
    """WARC interchange round-trip: synthesized pages → partitioned
    gzip'd WARC/1.0 sink (content-hash file names, resumable) →
    byte-scanning WARC reader. Output is the raw page half
    (url, warc_ts, html-as-string); the oracle rebuilds the html and
    the second-granular timestamp in SQL, so a hash match proves the
    real Common-Crawl input path is byte-lossless."""
    import tempfile

    from .pipelines.pages import read_pages
    from .sources.warc import read_warc, write_warc

    out = tempfile.mkdtemp(prefix="og_warc_", dir="/tmp")
    pages = read_pages(sf_dir).select_columns(["url", "warc_ts", "html"])
    write_warc(pages, out)

    def to_str(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "url": batch["url"],
                "warc_ts": batch["warc_ts"],
                "html": pc.cast(batch["html"], pa.string()),
            }
        )

    return read_warc(out).map_batches(to_str, batch_format="pyarrow")


def q_sparql_filter(sf_dir: str):
    """E8 extension: FILTER(!= term) + FILTER regex applied after the
    BGP join — streaming vectorized kernels over the encoded terms."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX rel: <urn:og:rel/>
        PREFIX attr: <urn:og:attr/>
        SELECT ?cust ?seg WHERE {{
          ?cust a <{CUST_CLASS}> .
          ?cust attr:mktsegment ?seg .
          FILTER ( ?seg != "BUILDING" ) .
          FILTER regex ( ?seg , "^.(AUTO|HOUSE)" )
        }}
        """,
    )


def q_sparql_optional(sf_dir: str):
    """E8 extension: OPTIONAL left-join — every typed entity with its
    rdfs:label where one exists (customers have none → NULL binding)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        SELECT ?x ?t ?lbl WHERE {
          ?x a ?t .
          OPTIONAL { ?x rdfs:label ?lbl }
        }
        """,
    )


def q_sparql_optional_nested(sf_dir: str):
    """E8 extension: nested OPTIONAL — LeftJoin(A, LeftJoin(B, C)).
    Typed entities, optionally their nation edge, and — inside that
    group — optionally the nation's label: customers bind the full
    chain, nations leave both group vars NULL."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        SELECT ?x ?t ?n ?nl WHERE {{
          ?x a ?t .
          OPTIONAL {{ ?x <{IN_NATION}> ?n . OPTIONAL {{ ?n rdfs:label ?nl }} }}
        }}
        """,
    )


def q_sparql_union(sf_dir: str):
    """E8 extension: UNION — bag union of two BGP branches (customers
    in BUILDING plus customers in MACHINERY), each an independent
    distributed BGP join."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX attr: <urn:og:attr/>
        SELECT ?cust ?seg WHERE {
          { ?cust attr:mktsegment "BUILDING" . ?cust attr:mktsegment ?seg }
          UNION
          { ?cust attr:mktsegment "MACHINERY" . ?cust attr:mktsegment ?seg }
        }
        """,
    )


def q_sparql_update(sf_dir: str):
    """E8 update passthrough: INSERT DATA (one fresh triple + one
    duplicate — dedup semantics make the oracle agnostic to whether the
    duplicate pre-exists) then DELETE WHERE on the inRegion predicate,
    each producing a new graph version via the engine's bulk set ops."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_update

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    store = sparql_update(
        store,
        """
        INSERT DATA { GRAPH <urn:og:graph> {
          <urn:og:cust/0> <urn:og:attr/note> "vip"@en .
          <urn:og:cust/0> a <urn:og:class/Customer> .
        } }
        """,
    )
    store = sparql_update(
        store, f"DELETE WHERE {{ ?s <{IN_REGION}> ?o . }}"
    )
    return store.dataset


def q_sparql_filter_or(sf_dir: str):
    """E8 extension: disjunctive FILTER — one || chain over simple
    conditions, ORing the per-condition masks (null→false error
    semantics), mixed here with a separate conjunctive numeric
    FILTER."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX attr: <urn:og:attr/>
        SELECT ?c ?s ?b WHERE {{
          ?c attr:mktsegment ?s .
          ?c attr:acctbalCents ?b .
          FILTER ( ?s = "BUILDING" || ?s = "MACHINERY" ) .
          FILTER ( ?b >= 0 && ?b < 900000 )
        }}
        """,
    )


def q_sparql_update_modify(sf_dir: str):
    """E8 extension: the SPARQL 1.1 modify form — rewrite every
    BUILDING segment literal to a fresh marker in one
    DELETE {} INSERT {} WHERE {} (bindings from a recursive SELECT,
    deletes one bucketed anti join, inserts union + dedup)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_update

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    store = sparql_update(
        store,
        f"""
        DELETE {{ ?c <{SEGMENT}> "BUILDING" }}
        INSERT {{ ?c <{SEGMENT}> "BUILDING_ARCHIVED" }}
        WHERE {{ ?c <{SEGMENT}> "BUILDING" }}
        """,
    )
    return store.dataset


def q_sparql_path(sf_dir: str):
    """E8 extension: sequence property path (inNation/inRegion) —
    rewritten by the parser into a hidden-variable pattern chain, so
    the physical plan is the same two bucketed hash joins as the
    explicit BGP."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        SELECT ?cust ?region WHERE {{
          ?cust <{IN_NATION}>/<{IN_REGION}> ?region .
        }}
        """,
    )


def q_part_kcore(sf_dir: str):
    """3-core of the co-purchase graph: iterative distributed peel —
    degrees exchange + two semi-joins per round, work shrinking with
    the surviving subgraph (pipelines/graphstats.py::k_core). Fixture
    oracle: plain-Python dict/set peeling."""
    from .pipelines.graphstats import cooccurrence_edges, k_core

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return k_core(
        cooccurrence_edges(li, "l_orderkey", "l_partkey", min_support=2), k=3
    )


def q_sparql_minus(sf_dir: str):
    """E8 extension: MINUS — customers with a nation, minus those in
    the BUILDING segment, compiled onto the distributed Acero
    anti-join on the shared variable (the group's bindings dedup to
    distinct keys before the exchange). FILTER NOT EXISTS compiles to
    the identical plan (pinned equivalent in tests)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX attr: <urn:og:attr/>
        SELECT ?cust ?nation WHERE {{
          ?cust <{IN_NATION}> ?nation .
          MINUS {{ ?cust attr:mktsegment "BUILDING" . }}
        }}
        """,
    )


def q_sparql_path_alt(sf_dir: str):
    """E8 extension: inverse + alternative path elements and
    ORDER/LIMIT/OFFSET — `?nation ^inNation ?cust` scans with the
    slots swapped (no extra pass), `(mktsegment|a)` is a bag union of
    two predicate-pruned scans, and the OFFSET head finishes on the
    driver under the parse-time ORDER BY + LIMIT rule."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX attr: <urn:og:attr/>
        SELECT ?nation ?cust ?v WHERE {{
          ?nation ^<{IN_NATION}> ?cust .
          ?cust (attr:mktsegment|a) ?v .
        }} ORDER BY ?nation ?cust ?v LIMIT 200 OFFSET 50
        """,
    )


def q_sparql_path_negset_closure(sf_dir: str):
    """E8 extension: arbitrary-length path over a NEGATED property set
    !(type|segment|acctbal|label)+ — the base relation is one
    NOT-IN-filtered scan (everything except the excluded predicates =
    inNation ∪ inRegion here), then the same semi-naive fixpoint as
    e+. Oracle: recursive CTE over NOT IN edges."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        SELECT ?x ?y WHERE {{
          ?x !(a|<{SEGMENT}>|<{ACCTBAL}>|rdfs:label)+ ?y .
        }}
        """,
    )


def q_sparql_path_closure(sf_dir: str):
    """E8 extension: arbitrary-length property path + — the
    semi-naive transitive closure (frontier-only join per round,
    anti-join dedup) of the (inNation|inRegion) relation: cust→nation,
    nation→region and the 2-hop cust→region pairs. At the registry's
    scale factors the relation is far below LOCAL_CLOSURE_MAX_EDGES,
    so the fixpoint runs in one task over an Arrow table; above it,
    it runs as the distributed loop. Oracle is a recursive CTE."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX rel: <urn:og:rel/>
        SELECT ?x ?y WHERE {{
          ?x (rel:inNation|rel:inRegion)+ ?y .
        }}
        """,
    )


def q_sparql_path_star(sf_dir: str):
    """E8 extension: zero-or-more property path * — the transitive
    closure of the (inNation|inRegion) relation (includes
    the 2-hop cust→region pairs) UNION the zero-length path, which for
    two variable endpoints binds every node of the graph (one global
    distinct exchange over subjects+objects, literals included, per
    the SPARQL ZeroLengthPath evaluation)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX rel: <urn:og:rel/>
        SELECT ?x ?y WHERE {{
          ?x (rel:inNation|rel:inRegion)* ?y .
        }}
        """,
    )


def q_sparql_path_opt(sf_dir: str):
    """E8 extension: zero-or-one property path ? — the inNation edge
    relation UNION the zero-length path over every graph node; no
    fixpoint, one distinct exchange."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX rel: <urn:og:rel/>
        SELECT ?x ?y WHERE {{
          ?x rel:inNation? ?y .
        }}
        """,
    )


def q_sparql_path_negset(sf_dir: str):
    """E8 extension: negated property set !(a|rel:inNation) — any
    predicate except those listed, compiled as a hidden predicate
    variable plus one vectorized != filter per exclusion (no new
    executor machinery; the scan stays a single streaming pass)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX rel: <urn:og:rel/>
        SELECT ?x ?y WHERE {{
          ?x !(a|rel:inNation) ?y .
        }}
        """,
    )


def q_sparql_filter_lang(sf_dir: str):
    """E8 extension: LANG() builtin in FILTER — the reference's own
    label model is per-lang (ontology_graph.go:175-206), so a lang-tag
    filter is the first builtin a SPARQL user reaches for. Runs the
    vectorized T7 Language kernel over the bound terms."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        SELECT ?s ?o WHERE {
          ?s ?p ?o .
          FILTER ( LANG(?o) = "en" )
        }
        """,
    )


def q_sparql_filter_str_dt(sf_dir: str):
    """E8 extension: STR() and DATATYPE() builtins in one FILTER
    conjunction — STR strips the term encoding (T6 Value kernel),
    DATATYPE extracts the ^^<uri> tail (T8)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        SELECT ?cust ?bal WHERE {{
          ?cust <{ACCTBAL}> ?bal .
          FILTER ( DATATYPE(?bal) = xsd:integer ) .
          FILTER ( STR(?bal) != "0" )
        }}
        """,
    )


def q_sparql_filter_bound(sf_dir: str):
    """E8 extension: BOUND()/!BOUND() over an OPTIONAL-introduced
    variable — the left-join null test (SPARQL's idiom for
    'subjects without a label')."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        SELECT ?x WHERE {
          ?x a ?t .
          OPTIONAL { ?x rdfs:label ?lbl }
          FILTER ( !BOUND(?lbl) )
        }
        """,
    )


def q_sparql_filter_coalesce(sf_dir: str):
    """E8 extension: COALESCE in FILTER — label with a ground default,
    kept when the default wins (i.e. unlabeled subjects)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        SELECT ?x ?t WHERE {
          ?x a ?t .
          OPTIONAL { ?x rdfs:label ?lbl }
          FILTER ( COALESCE(?lbl, "none") = "none" )
        }
        """,
    )


def q_sparql_bind(sf_dir: str):
    """E8 extension: BIND(LANG(?o) AS ?tag) + FILTER on the alias —
    the bound accessor re-enters term space so the = "en" comparison
    composes with the ordinary term-equality filter."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        SELECT ?x ?tag WHERE {
          ?x ?p ?o .
          BIND ( LANG(?o) AS ?tag )
          FILTER ( ?tag = "en" )
        }
        """,
    )


def q_sparql_bind_arith(sf_dir: str):
    """E8 extension: integer BIND arithmetic with chained aliases —
    xsd:integer lexical values decoded, int64 math, result re-encoded
    as an xsd:integer term so the numeric FILTER on the second alias
    composes."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        SELECT ?c ?adj WHERE {{
          ?c <{ACCTBAL}> ?b .
          BIND ( ?b * 2 AS ?dbl )
          BIND ( ?dbl - 100 AS ?adj )
          FILTER ( ?adj >= 1000000 )
        }}
        """,
    )


def q_sparql_filter_strstarts(sf_dir: str):
    """E8 extension: STRSTARTS builtin in FILTER — prefix test over
    the T6 Value kernel (lexical form for literals, URI for
    resources)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        SELECT ?s ?o WHERE {
          ?s rdfs:label ?o .
          FILTER ( STRSTARTS(?o, "NATION_1") )
        }
        """,
    )


def q_sparql_filter_contains(sf_dir: str):
    """E8 extension: CONTAINS + STRENDS builtins, one conjunction —
    substring and suffix tests over the T6 Value kernel."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        SELECT ?c ?seg WHERE {{
          ?c <{SEGMENT}> ?seg .
          FILTER ( CONTAINS(?seg, "I") ) .
          FILTER ( STRENDS(?seg, "RE") )
        }}
        """,
    )


def q_sparql_filter_strlen(sf_dir: str):
    """E8 extension: STRLEN comparison in FILTER — UTF-8 length of the
    T6 Value, integer-compared (drops the 8-char BUILDING segment)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        SELECT ?c ?seg WHERE {{
          ?c <{SEGMENT}> ?seg .
          FILTER ( STRLEN(?seg) >= 9 )
        }}
        """,
    )


def q_sparql_filter_case(sf_dir: str):
    """E8 extension: LCASE/UCASE case-folding builtins, OR-combined in
    one FILTER (also exercises the || combiner over builtin masks)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        SELECT ?c ?seg WHERE {{
          ?c <{SEGMENT}> ?seg .
          FILTER ( LCASE(?seg) = "building" || UCASE(?seg) = "MACHINERY" )
        }}
        """,
    )


def q_sparql_filter_isliteral(sf_dir: str):
    """E8 extension: isLiteral/!isIRI term-kind builtins (T4/T5
    kernels) — keep literal objects only, both polarities in one
    query so the '!' path is under the gate too."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        SELECT ?s ?o WHERE {
          ?s ?p ?o .
          FILTER ( isLiteral(?o) ) .
          FILTER ( !isIRI(?o) )
        }
        """,
    )


def q_sparql_bind_div(sf_dir: str):
    """E8 extension: BIND division — the scale-6 fixed-point decimal
    lane (store/sparql.py `_dec_arith`). `?b / 7` over xsd:integer
    acctbal cents exercises both signs and the half-away-from-zero
    rounding at the 6th fractional digit; results bind canonical
    xsd:decimal terms with a bit-identical HUGEINT SQL twin. The
    reference's E8 passthrough accepts decimal expressions unchanged
    (blazegraph_endpoint.go:176-244)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX attr: <urn:og:attr/>
        SELECT ?c ?q WHERE {{
          ?c attr:acctbalCents ?b .
          BIND ( ?b / 7 AS ?q )
        }}
        """,
    )


def q_sparql_optional_filter(sf_dir: str):
    """E8 extension: FILTER inside an OPTIONAL group — SPARQL's
    LeftJoin condition (the well-designed, group-variables-only case):
    every customer, with their balance bound ONLY when it clears the
    threshold; rows whose balance fails keep the NULL binding, exactly
    a SQL LEFT JOIN with the condition in the ON clause."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX attr: <urn:og:attr/>
        SELECT ?x ?b WHERE {{
          ?x a <{CUST_CLASS}> .
          OPTIONAL {{ ?x attr:acctbalCents ?b . FILTER ( ?b > 500000 ) }}
        }}
        """,
    )


def q_sparql_exists_filter(sf_dir: str):
    """E8 extension: FILTER inside a FILTER EXISTS group
    (group-internal condition): customers holding a balance above the
    threshold — the group bindings are pre-filtered, then the usual
    distinct-key semi-join."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX attr: <urn:og:attr/>
        SELECT ?x ?s WHERE {{
          ?x attr:mktsegment ?s .
          FILTER EXISTS {{ ?x attr:acctbalCents ?b . FILTER ( ?b > 500000 ) }}
        }}
        """,
    )


def q_sparql_exists_correlated(sf_dir: str):
    """E8 extension: CORRELATED FILTER EXISTS — the condition
    references an OUTER variable (?c2 != ?c1): customers whose nation
    has at least one OTHER customer. Evaluated as (distinct outer keys
    × group) join + condition + distinct qualifying keys + semi-join;
    only distinct key rows cross the wire."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX rel: <urn:og:rel/>
        SELECT ?c1 ?n WHERE {{
          ?c1 rel:inNation ?n .
          FILTER EXISTS {{ ?c2 rel:inNation ?n . FILTER ( ?c2 != ?c1 ) }}
        }}
        """,
    )


def q_sparql_path_seq_closure(sf_dir: str):
    """E8 extension: GROUPED SEQUENCE paths under closure modifiers —
    (rel:inRegion/^rel:inRegion)+ from one nation reaches every nation
    in the same region (the composition of the two step relations is
    built with one hash join per step, then the semi-naive closure
    fixpoint runs over the composed base relation, seeded at the
    ground start)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX rel: <urn:og:rel/>
        SELECT ?n2 WHERE {
          <urn:og:nation/0> (rel:inRegion/^rel:inRegion)+ ?n2 .
        }
        """,
    )


def q_sparql_date_fns(sf_dir: str):
    """E8 extension: the YEAR/MONTH/DAY date accessors (SPARQL
    §17.4.5) over xsd:date literals built from the orders table —
    per-order date components as xsd:integer terms, filtered to one
    month with the new ordered-IF-style integer lane. One vectorized
    regex extract per component; exact EXTRACT() twin."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def to_triples(batch: pa.Table) -> pa.Table:
        keys = pc.cast(batch["o_orderkey"], pa.string())
        dates = pc.strftime(batch["o_orderdate"], format="%Y-%m-%d")
        return pa.table(
            {
                "subject": pc.binary_join_element_wise(
                    "<urn:og:order/", keys, ">", ""
                ),
                "predicate": pa.array(
                    ["<urn:og:attr/orderdate>"] * len(batch), pa.string()
                ),
                "object": pc.binary_join_element_wise(
                    '"', dates, f'"^^<{C.XSD_DATE}>', ""
                ),
            }
        )

    store = DatasetGraphStore(
        "urn:og:orders", orders.map_batches(to_triples, batch_format="pyarrow")
    )
    return sparql_select(
        store,
        """
        SELECT ?o ?y ?d WHERE {
          ?o <urn:og:attr/orderdate> ?dt .
          BIND(YEAR(?dt) AS ?y)
          BIND(MONTH(?dt) AS ?m)
          BIND(DAY(?dt) AS ?d)
          FILTER ( ?m = "3"^^<http://www.w3.org/2001/XMLSchema#integer> )
        }
        """,
    )


def q_sparql_group_concat_distinct(sf_dir: str):
    """E8 extension: GROUP_CONCAT(DISTINCT ?v ; SEPARATOR): per-group
    DISTINCT values in sorted deterministic order (SPARQL leaves order
    implementation-defined; sorting gives the exact SQL twin) — the
    distinct market segments present in each nation."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX rel: <urn:og:rel/>
        PREFIX attr: <urn:og:attr/>
        SELECT ?n (GROUP_CONCAT(DISTINCT ?s ; SEPARATOR=",") AS ?segs)
        WHERE {{
          ?c rel:inNation ?n .
          ?c attr:mktsegment ?s .
        }} GROUP BY ?n
        """,
    )


def q_sparql_bind_hash(sf_dir: str):
    """E8 extension: the SPARQL §17.4.4 hash builtins — MD5 and SHA256
    hex digests of literal lexical forms in BIND (document
    fingerprinting inside the query); exact DuckDB md5()/sha256()
    twins."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX attr: <urn:og:attr/>
        SELECT ?c ?m ?sh WHERE {
          ?c attr:mktsegment ?s .
          BIND(MD5(?s) AS ?m)
          BIND(SHA256(STR(?s)) AS ?sh)
        }
        """,
    )


def q_sparql_if_numeric(sf_dir: str):
    """E8 extension: ordered IF conditions (IF(?b > 0, ..., ...) on the
    exact integer lane) composed with the isNumeric type-check builtin
    in FILTER — balance-sign labeling over customers."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX attr: <urn:og:attr/>
        SELECT ?c ?sign WHERE {
          ?c attr:acctbalCents ?b .
          FILTER ( isNumeric(?b) )
          BIND(IF(?b > 0, "credit", "debit") AS ?sign)
        }
        """,
    )


def q_sparql_filter_decimal(sf_dir: str):
    """E8 extension: decimal arithmetic in computed FILTER comparisons
    — division and decimal constants route to the scale-6 fixed-point
    lane; both comparison sides are exact unscaled int64, so the
    thresholds at half-cent boundaries (50000.5, -25000.25) are
    decided exactly, never by float rounding."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX attr: <urn:og:attr/>
        SELECT ?c ?b WHERE {{
          ?c attr:acctbalCents ?b .
          FILTER ( ?b / 7 > 50000.5 || ?b / 3 <= -25000.25 )
        }}
        """,
    )


def q_sparql_filter_negvar(sf_dir: str):
    """E8 extension: unary minus on variables in FILTER arithmetic —
    ``-?v`` as a leading operand, combined with further arithmetic and
    on either comparison side. Negated variables evaluate on the exact
    scale-6 decimal lane (negation is exact), so the thresholds are
    decided without float rounding."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX attr: <urn:og:attr/>
        SELECT ?c ?b WHERE {
          ?c attr:acctbalCents ?b .
          FILTER ( -?b > 400000 || ?b - 100000 >= -?b )
        }
        """,
    )


def q_sparql_coalesce_cmp(sf_dir: str):
    """E8 extension: numeric comparisons over COALESCE — the coalesced
    term decodes on the exact decimal lane, bare numeric defaults
    become typed literals, non-numeric/all-unbound rows drop (type
    error). Subjects WITHOUT the optional balance coalesce to -1 and
    are excluded; GROUP BY dedups the generic-pattern rows."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX attr: <urn:og:attr/>
        SELECT ?s WHERE {
          ?s ?p ?o .
          OPTIONAL { ?s attr:acctbalCents ?b . }
          FILTER ( COALESCE(?b, -1) >= 900000 )
        } GROUP BY ?s
        """,
    )


def q_sparql_bind_round(sf_dir: str):
    """E8 extension: ABS/CEIL/FLOOR/ROUND numeric builtins in BIND —
    XPath semantics (fn:round ties toward +inf) evaluated exactly on
    the scale-6 fixed-point lane over a chained division alias; ABS of
    an integer-typed term stays xsd:integer (the dual-lane per-row
    typing)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX attr: <urn:og:attr/>
        SELECT ?c ?m ?f ?g ?r WHERE {{
          ?c attr:acctbalCents ?b .
          BIND ( ABS(?b) AS ?m )
          BIND ( ?b / 7 AS ?q )
          BIND ( FLOOR(?q) AS ?f )
          BIND ( CEIL(?q) AS ?g )
          BIND ( ROUND(?q) AS ?r )
        }}
        """,
    )


def q_sparql_bind_strfns(sf_dir: str):
    """E8 extension: UCASE/LCASE/STRLEN/STRLANG/STRDT in BIND — case
    maps preserve the language tag and are literal-only, STRLEN binds
    an xsd:integer term, STRLANG/STRDT construct tagged/typed literals
    from simple literals by appending to the already-encoded term (no
    re-escape). Segment literals are simple, so every row binds."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX attr: <urn:og:attr/>
        PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        SELECT ?c ?lo ?n ?tg ?ty WHERE {{
          ?c attr:mktsegment ?s .
          BIND ( LCASE(?s) AS ?lo )
          BIND ( STRLEN(?s) AS ?n )
          BIND ( STRLANG(?s, "en-US") AS ?tg )
          BIND ( STRDT(?s, xsd:token) AS ?ty )
        }}
        """,
    )


def q_sparql_filter_abs(sf_dir: str):
    """E8 extension: numeric functions as computed-FILTER operands —
    the `FILTER(ABS(?x - k) <= tol)` proximity idiom, evaluated on the
    scale-6 lane over a nested arithmetic expression (exact: both
    sides integers, no float rounding at the threshold)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX attr: <urn:og:attr/>
        SELECT ?c ?b WHERE {{
          ?c attr:acctbalCents ?b .
          FILTER ( ABS(?b - 500000) <= 100000 )
        }}
        """,
    )


def q_sparql_subquery_star(sf_dir: str):
    """E8 extension: { SELECT * ... } subquery — the inner projection
    is the body's variable scope, derived statically (store/sparql.py
    `Project.vars`), and inner-joins on the shared ?n."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX rel: <urn:og:rel/>
        SELECT ?c ?n ?r WHERE {{
          ?c rel:inNation ?n .
          {{ SELECT * WHERE {{ ?n rel:inRegion ?r . }} }}
        }}
        """,
    )


def q_sparql_group_keys(sf_dir: str):
    """E8 extension: GROUP BY with NO aggregates — valid SPARQL that
    projects one solution per group (select ⊆ group keys, pinned at
    parse time); executes as a single bucketed distinct exchange over
    the group keys (store/sparql.py, the `elif q.group_by` executor
    branch)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX rel: <urn:og:rel/>
        SELECT ?n WHERE {
          ?c rel:inNation ?n .
        } GROUP BY ?n
        """,
    )


def q_sparql_distinct_agg(sf_dir: str):
    """E8 extension: SELECT DISTINCT composed with aggregates — per
    spec DISTINCT dedups the PROJECTED solution multiset after
    grouping, so distinct per-nation customer counts collapse to the
    distinct count values (the aggregate exchange, then the standard
    post-projection distinct_on pass)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX rel: <urn:og:rel/>
        SELECT DISTINCT (COUNT(?c) AS ?cnt) WHERE {
          ?c rel:inNation ?n .
        } GROUP BY ?n
        """,
    )


def q_sparql_sum_distinct(sf_dir: str):
    """E8 extension: SUM(DISTINCT ?v) — per-group distinct rows carried
    through the exchange by a dedicated distinct-aggregate plan
    (per-block distinct combiner, one bucketed exchange, exact int64
    sum), grouped by nation."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX rel: <urn:og:rel/>
        PREFIX attr: <urn:og:attr/>
        SELECT ?n (SUM(DISTINCT ?b) AS ?s) WHERE {{
          ?c rel:inNation ?n .
          ?c attr:acctbalCents ?b .
        }} GROUP BY ?n
        """,
    )


def q_sparql_bind_concat(sf_dir: str):
    """E8 extension: CONCAT in BIND — ?vars contribute their STR value,
    constants interleave, result re-enters term space as a plain
    literal so downstream FILTER/compare composes."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        SELECT ?c ?tag WHERE {{
          ?c <{SEGMENT}> ?seg .
          BIND ( CONCAT("seg:", ?seg) AS ?tag )
        }}
        """,
    )


def q_sparql_bind_if(sf_dir: str):
    """E8 extension: IF ternary in BIND over term equality — constant
    then-branch, variable else-branch (term copy)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        SELECT ?c ?cls WHERE {{
          ?c <{SEGMENT}> ?seg .
          BIND ( IF(?seg = "BUILDING", "core", ?seg) AS ?cls )
        }}
        """,
    )


def q_sparql_langmatches(sf_dir: str):
    """E8 extension: LANGMATCHES(LANG(?o), range) — RFC 4647 basic
    filtering (case-insensitive, prefix ranges, "*" = any tag); the
    idiomatic per-language label selector the reference's label model
    implies (ontology_graph.go:175-206)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        SELECT ?s ?o WHERE {
          ?s ?p ?o .
          FILTER ( LANGMATCHES(LANG(?o), "EN") )
        }
        """,
    )


def q_sparql_bind_substr(sf_dir: str):
    """E8 extension: SUBSTR in BIND — 1-based character slice of the
    lexical value, re-encoded as a plain literal."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        SELECT ?c ?pre WHERE {{
          ?c <{SEGMENT}> ?seg .
          BIND ( SUBSTR(?seg, 1, 3) AS ?pre )
        }}
        """,
    )


def q_sparql_bind_strbefore(sf_dir: str):
    """E8 extension: STRBEFORE + STRAFTER in BIND over the label
    literals ("NATION_12" → "NATION" / "12"; "" when the separator is
    absent, the SPARQL rule)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        SELECT ?s ?stem ?num WHERE {
          ?s rdfs:label ?o .
          BIND ( STRBEFORE(?o, "_") AS ?stem )
          BIND ( STRAFTER(?o, "_") AS ?num )
        }
        """,
    )


def q_sparql_bind_replace(sf_dir: str):
    """E8 extension: regex REPLACE in BIND (global, RE2) over the
    segment literals."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        SELECT ?c ?x WHERE {{
          ?c <{SEGMENT}> ?seg .
          BIND ( REPLACE(?seg, "[AEIOU]", "#") AS ?x )
        }}
        """,
    )


def q_sparql_group_by_bind(sf_dir: str):
    """E8 composition: GROUP BY over a BIND alias (binds run after the
    joins, before aggregation, so computed columns group like pattern
    variables) — customers counted per segment first letter."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        SELECT ?pre (COUNT(*) AS ?n) WHERE {{
          ?c <{SEGMENT}> ?seg .
          BIND ( SUBSTR(?seg, 1, 1) AS ?pre )
        }} GROUP BY ?pre
        """,
    )


def q_sparql_sample(sf_dir: str):
    """E8 extension: SAMPLE aggregate — deterministic engine, so
    SAMPLE is pinned to the min term (a valid sample under the spec's
    'arbitrary value from the group', stable at any layout, and
    therefore carrying an exact min() oracle)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        SELECT ?n (SAMPLE(?c) AS ?one) (COUNT(*) AS ?members) WHERE {{
          ?c <{IN_NATION}> ?n .
        }} GROUP BY ?n
        """,
    )


def q_sparql_filter_var(sf_dir: str):
    """E8 extension: variable-to-variable FILTER — same-nation customer
    pairs excluding self-pairs, one column-vs-column kernel."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        SELECT ?a ?b WHERE {{
          ?a <{IN_NATION}> ?n .
          ?b <{IN_NATION}> ?n .
          FILTER ( ?a != ?b )
        }}
        """,
    )


def q_sparql_subquery(sf_dir: str):
    """E8 extension: { SELECT ... } subquery — per-nation customer
    counts computed by a nested aggregate SELECT, inner-joined back to
    every customer row on the shared ?n (the classic
    'row + its group's aggregate' SPARQL idiom)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX rel: <urn:og:rel/>
        SELECT ?c ?n ?cnt WHERE {{
          ?c rel:inNation ?n .
          {{ SELECT ?n (COUNT(?x) AS ?cnt) WHERE {{
               ?x rel:inNation ?n .
             }} GROUP BY ?n }}
        }}
        """,
    )


def q_sparql_filter_numeric(sf_dir: str):
    """E8 extension: numeric FILTER over xsd:integer typed literals —
    the lexical value is extracted and cast per batch (one vectorized
    regex+cast kernel), non-integer terms drop per the SPARQL
    type-error rule."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX attr: <urn:og:attr/>
        SELECT ?cust ?bal WHERE {{
          ?cust attr:acctbalCents ?bal .
          FILTER ( ?bal >= 500000 ) .
          FILTER ( ?bal < 900000 )
        }}
        """,
    )


def q_sparql_order_desc(sf_dir: str):
    """E8 extension: ORDER BY DESC(?v) ?v2 — mixed-direction
    distributed sort over the encoded terms; the LIMIT head makes the
    direction observable under the hash gate (the driver re-sorts rows
    before hashing, so direction only matters through head
    selection)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX attr: <urn:og:attr/>
        SELECT ?cust ?bal WHERE {{
          ?cust attr:acctbalCents ?bal .
        }} ORDER BY DESC(?bal) ?cust LIMIT 100
        """,
    )


def q_sparql_values_inline(sf_dir: str):
    """E8 extension: INLINE VALUES — the clause inside the WHERE group
    (SPARQL 11.8.1; many clients emit this placement). Same broadcast
    join kernel as the postfix form."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX attr: <urn:og:attr/>
        SELECT ?cust ?seg WHERE {
          VALUES ?seg { "AUTOMOBILE" "HOUSEHOLD" }
          ?cust attr:mktsegment ?seg .
        }
        """,
    )


def q_sparql_values(sf_dir: str):
    """E8 extension: postfix VALUES — inline-data join over the
    segment variable, one vectorized hash-lookup join kernel per batch
    (broadcast, no exchange)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX attr: <urn:og:attr/>
        SELECT ?cust ?seg WHERE {
          ?cust attr:mktsegment ?seg .
        } VALUES ?seg { "BUILDING" "MACHINERY" }
        """,
    )


def q_sparql_values_undef(sf_dir: str):
    """E8 extension: UNDEF wildcards in multi-variable VALUES rows
    (SPARQL 11.8.2 solution compatibility) — an UNDEF cell drops out
    of that row's conjunction, so each row constrains only its bound
    cells. VALUES is a Join: each solution comes out once per
    compatible row (one broadcast kernel, no exchange). Here: customers
    in nation 3 with ANY segment, plus BUILDING customers in ANY
    nation — a nation-3 BUILDING customer twice."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX rel: <urn:og:rel/>
        PREFIX attr: <urn:og:attr/>
        SELECT ?cust ?n ?seg WHERE {
          ?cust rel:inNation ?n .
          ?cust attr:mktsegment ?seg .
        } VALUES (?n ?seg) {
          (<urn:og:nation/3> UNDEF)
          (UNDEF "BUILDING")
        }
        """,
    )


def q_copurchase_edges(sf_dir: str):
    """Market-basket co-occurrence graph: parts sharing an order →
    support-weighted undirected edges (support ≥ 2). Pair generation
    is a per-order vectorized self-merge inside ONE order-bucketed
    exchange (per-order distinct fused in); a second combiner-backed
    exchange sums support."""
    from .pipelines.graphstats import cooccurrence_edges

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return cooccurrence_edges(li, "l_orderkey", "l_partkey", min_support=2)


def q_part_triangles(sf_dir: str):
    """Triangle enumeration over the co-purchase graph via
    degree-ordered orientation (O(m^1.5) wedge bound — a hub's
    out-neighborhood is capped at O(sqrt m), so skew is handled
    structurally): wedge self-join on the center + closing semi-join,
    rows canonicalized to (a < b < c)."""
    from .pipelines.graphstats import cooccurrence_edges, triangles

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return triangles(
        cooccurrence_edges(li, "l_orderkey", "l_partkey", min_support=2)
    )


def q_part_neighbor_jaccard(sf_dir: str):
    """Structural node similarity: neighborhood Jaccard (basis-point
    integer) between part pairs sharing ≥2 co-purchase neighbors —
    the link-prediction / related-items primitive
    (pipelines/graphstats.py::neighbor_jaccard)."""
    from .pipelines.graphstats import cooccurrence_edges, neighbor_jaccard

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    edges = cooccurrence_edges(li, "l_orderkey", "l_partkey", min_support=2)
    return neighbor_jaccard(edges.drop_columns(["support"]), min_common=2)


def q_sparql_construct(sf_dir: str):
    """E8 extension: CONSTRUCT — template instantiation over SELECT
    bindings with an OPTIONAL whose unbound rows are skipped per spec
    (customers carry no rdfs:label, nations/regions do), globally
    deduped into a triple set."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_construct

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_construct(
        store,
        """
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        CONSTRUCT {
          ?x <urn:og:rel/labelled> ?lbl .
          ?x a ?t .
        } WHERE {
          ?x a ?t .
          OPTIONAL { ?x rdfs:label ?lbl }
        }
        """,
    )


def q_sparql_group_count(sf_dir: str):
    """E8 extension: GROUP BY aggregate — customers per market segment,
    compiled onto the engine's combiner+exchange distributed aggregate
    (the SPARQL face of orders_per_segment's physical plan)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX attr: <urn:og:attr/>
        SELECT ?seg (COUNT(?cust) AS ?n) (MIN(?cust) AS ?first) WHERE {
          ?cust attr:mktsegment ?seg .
        } GROUP BY ?seg ORDER BY ?seg
        """,
    )


def q_sparql_group_sum(sf_dir: str):
    """E8 extension: SUM over xsd:integer literals — account balance
    cents summed per market segment, exact int64 end to end (the
    integer-cents convention keeps the DuckDB oracle bit-identical)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX attr: <urn:og:attr/>
        SELECT ?seg (SUM(?bal) AS ?total) (COUNT(?c) AS ?n) WHERE {
          ?c attr:mktsegment ?seg .
          ?c attr:acctbalCents ?bal .
        } GROUP BY ?seg ORDER BY ?seg
        """,
    )


def q_sparql_group_avg(sf_dir: str):
    """E8 extension: AVG over xsd:integer literals — algebraic
    (sum, count) int64 partials through the combiner+exchange, ONE
    float64 division per group at the end, so the result is
    layout-invariant and bit-identical to the SQL twin's
    SUM(x)::DOUBLE / COUNT(x)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX attr: <urn:og:attr/>
        SELECT ?seg (AVG(?bal) AS ?avg_bal) WHERE {
          ?c attr:mktsegment ?seg .
          ?c attr:acctbalCents ?bal .
        } GROUP BY ?seg
        """,
    )


def q_sparql_group_concat(sf_dir: str):
    """E8 extension: GROUP_CONCAT with explicit separator — values
    SORTED within each group (SPARQL leaves the order
    implementation-defined; sorting makes it deterministic and
    SQL-twin-exact via string_agg(... ORDER BY ...))."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX rel: <urn:og:rel/>
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        SELECT ?r (GROUP_CONCAT(?lbl; SEPARATOR="|") AS ?nations) WHERE {{
          ?n rel:inRegion ?r .
          ?n rdfs:label ?lbl .
        }} GROUP BY ?r
        """,
    )


def q_sparql_having(sf_dir: str):
    """E8 extension: HAVING — post-aggregate group filter on the
    combiner+exchange COUNT, one vectorized compare per batch."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    out = sparql_select(
        store,
        f"""
        PREFIX rel: <urn:og:rel/>
        SELECT ?n (COUNT(?c) AS ?n_cust) WHERE {{
          ?c rel:inNation ?n .
        }} GROUP BY ?n HAVING ( COUNT(?c) > 60 )
        """,
    )
    # HAVING can filter every group (it does at sf0.001) — keep the
    # declared schema AND the count dtype on the empty result
    df = _typed_pandas(out, ["n", "n_cust"])
    df["n_cust"] = df["n_cust"].astype("int64")
    return df


def q_sparql_count_distinct(sf_dir: str):
    """E8 extension: COUNT(DISTINCT ?v) — the combiner keeps per-block
    DISTINCT (key, v) pairs (not collapsed counts), one bucketed
    exchange co-locates each group, nunique per group at the end."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX rel: <urn:og:rel/>
        PREFIX attr: <urn:og:attr/>
        SELECT ?n (COUNT(DISTINCT ?seg) AS ?n_segs) WHERE {{
          ?c rel:inNation ?n .
          ?c attr:mktsegment ?seg .
        }} GROUP BY ?n
        """,
    )


def q_sparql_ask(sf_dir: str):
    """E8: SPARQL ASK — the two existence forms the reference's store
    layer generates (graph-nonempty, blazegraph_store.go:294; ground
    triple exists, blazegraph_store.go:419) plus a single-pattern miss,
    a connected conjunction, and a DISCONNECTED conjunction (allowed in
    ASK: per-component non-emptiness, no cartesian). Every check
    short-circuits via limit(1). Returned as a deterministic
    (ask, result) table so the whole truth vector is one oracle row
    set."""
    import pandas as pd

    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_ask

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    asks = {
        "graph_nonempty": "ASK WHERE { GRAPH <urn:og:graph> { ?s ?p ?o } }",
        "ground_hit": f"ASK {{ <urn:og:cust/0> a <{CUST_CLASS}> . }}",
        "ground_miss": "ASK { <urn:og:cust/0> a <urn:og:class/Nope> . }",
        "pattern_miss": "ASK WHERE { ?s <urn:og:attr/nonexistent> ?o . }",
        "conjunction": f"""ASK WHERE {{
            ?c a <{CUST_CLASS}> . ?c <{IN_NATION}> ?n .
            ?n <{IN_REGION}> ?r . }}""",
        "disconnected": f"""ASK WHERE {{
            ?c a <{CUST_CLASS}> . ?x <{IN_REGION}> ?r . }}""",
    }
    names = sorted(asks)
    return pd.DataFrame(
        {
            "ask": names,
            "result": pd.array(
                [int(sparql_ask(store, asks[n])) for n in names],
                dtype="int64",
            ),
        }
    )


def q_sparql_describe(sf_dir: str):
    """E8: SPARQL DESCRIBE (fourth query form) — mixed explicit-IRI +
    variable targets: every triple about nations that have at least
    one BUILDING-segment customer, plus customer 0's own description.
    Bindings are never collected: the result is one bucketed semi
    hash-join of the triple set against the projected resource set
    (store/sparql.py::sparql_describe)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_describe

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_describe(
        store,
        """
        PREFIX rel: <urn:og:rel/>
        PREFIX attr: <urn:og:attr/>
        DESCRIBE <urn:og:cust/0> ?n WHERE {
          ?c rel:inNation ?n .
          ?c attr:mktsegment "BUILDING" .
        }
        """,
    )


def q_line_dedup(sf_dir: str):
    """C4/RefinedWeb-style cross-corpus LINE dedup: every line
    occurring >= 2 times corpus-wide keeps only its globally-first
    (doc_id, line_no) occurrence; docs are reassembled in line order
    (stages/dedup.py::line_dedup — combiner-bounded decision exchange +
    one bucketed anti-join, winners come from the decision rows so
    there is no second join back). The single-line synthetic docs are
    first regrouped into 3-token lines (fixture prep, below) so the
    corpus has real duplicate-line mass (~15% of line keys at
    sf0.01)."""
    from .stages.dedup import line_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def to_lines(df: pd.DataFrame) -> pd.DataFrame:
        # fixture prep, NOT the operator under test: regroup each doc's
        # space-separated tokens into 3-token lines so line granularity
        # exists at all (the synthetic docs are single-line)
        df = df.copy()
        df["text"] = [
            "\n".join(
                " ".join(toks[i : i + 3]) for i in range(0, len(toks), 3)
            )
            for toks in (t.split(" ") for t in df["text"])
        ]
        return df

    return line_dedup(
        docs.map_batches(to_lines, batch_format="pandas"), min_count=2
    )


def q_inverted_index(sf_dir: str):
    """Sharded inverted-index build (stages/index.py): term →
    (shard_no, global df, comma-joined postings + aligned tfs), one
    bucketed exchange after a per-block (term, doc_id, tf) combiner.
    shard_size=64 is small enough that frequent tokens genuinely
    multi-shard at sf >= 0.01."""
    from .stages.index import inverted_index

    return inverted_index(
        _read(sf_dir, "documents", ["doc_id", "text"]), shard_size=64
    )


def q_bm25_topk(sf_dir: str):
    """BM25-shaped retrieval with exact rational arithmetic
    (stages/index.py::bm25_topk — tf saturation k1=1.2, length
    normalization b=0.75, linear fixed-point idf): top-20 docs for the
    same 3-term query tfidf_topk ranks, so the two retrieval models
    are directly comparable under the gate."""
    from .stages.index import bm25_topk

    return bm25_topk(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        ["join", "table", "window"],
        k=20,
    )


def q_rrf_fused(sf_dir: str):
    """Reciprocal-rank fusion of the TF-IDF and BM25 rankings for the
    same 3-term query — the standard hybrid-retrieval combiner, in
    integer form: rrf = Σ over rankings of 10000 // (60 + rank). The
    two rankings are the already-distributed retrieval ops; fusion
    touches only their 2·k driver rows."""
    from .stages.index import bm25_topk, tfidf_topk

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    terms = ["join", "table", "window"]
    a = tfidf_topk(docs, terms, k=20)
    b = bm25_topk(docs, terms, k=20)
    scores: dict = {}
    for df in (a, b):
        for rank, doc in enumerate(df["doc_id"], start=1):
            scores[int(doc)] = scores.get(int(doc), 0) + 10_000 // (60 + rank)
    out = pd.DataFrame(
        {"doc_id": list(scores), "rrf": list(scores.values())}
    ).astype({"doc_id": "int64", "rrf": "int64"})
    return out.sort_values(
        ["rrf", "doc_id"], ascending=[False, True], kind="stable"
    ).head(20).reset_index(drop=True)


def q_tfidf_topk(sf_dir: str):
    """Integer fixed-point TF-IDF retrieval (stages/index.py::
    tfidf_topk): top-20 docs for a 3-term query. The corpus is never
    exchanged — a vectorized is_in keeps only query-term tokens, df and
    scores aggregate over that bounded set, ties break (score DESC,
    doc_id ASC)."""
    from .stages.index import tfidf_topk

    return tfidf_topk(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        ["join", "table", "window"],
        k=20,
    )


def q_sparql_filter_bool_nested(sf_dir: str):
    """E8 extension: full boolean FILTER grammar — arbitrary &&/||
    nesting with SPARQL precedence, `(a || b) && (c || d)` over mixed
    term-equality and numeric conditions, per-condition vectorized
    masks combined with null→false error semantics at every level
    (the reference's raw passthrough accepts these unchanged,
    blazegraph_endpoint.go:176-244)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX attr: <urn:og:attr/>
        SELECT ?c ?s ?b WHERE {{
          ?c attr:mktsegment ?s .
          ?c attr:acctbalCents ?b .
          FILTER ( ( ?s = "BUILDING" || ?b < 0 )
                   && ( ?s = "MACHINERY" || ?b >= 500000 ) )
        }}
        """,
    )


def q_sparql_filter_arith(sf_dir: str):
    """E8 extension: computed numeric comparisons in FILTER —
    `FILTER(?x > ?y + k)` between a BIND-computed alias and an
    arithmetic expression over another variable, plus a computed-LHS
    conjunct, on the integer decode kernels shared with BIND
    arithmetic."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        f"""
        PREFIX attr: <urn:og:attr/>
        SELECT ?c ?b WHERE {{
          ?c attr:acctbalCents ?b .
          BIND ( ?b * 2 AS ?dbl )
          FILTER ( ?dbl > ?b + 500000 && ?b - 250000 <= 600000 )
        }}
        """,
    )


def q_sparql_filter_regex(sf_dir: str):
    """E8 extension: the REGEX builtin — RE2 (pyarrow's and DuckDB's
    shared regex engine) over the lexical form (T6 Value), with the
    optional flags argument compiled to an inline (?i) group, fully
    composable with the boolean FILTER grammar. The reference's raw
    passthrough accepts REGEX unchanged (blazegraph_endpoint.go:
    176-244); it is the highest-frequency FILTER builtin in real
    SPARQL corpora."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        SELECT ?n ?l WHERE {
          ?n rdfs:label ?l .
          FILTER ( REGEX(?l, "^nation_1", "i") ||
                   ( REGEX(?l, "_2[0-4]$") && REGEX(STR(?l), "^NAT") ) )
        }
        """,
    )


def q_sparql_filter_in(sf_dir: str):
    """E8 extension: FILTER [NOT] IN ground-term lists — SPARQL term
    equality against a constant list as one vectorized is_in kernel
    (unbound rows drop on both polarities). Reference passthrough
    accepts IN unchanged (blazegraph_endpoint.go:176-244)."""
    from .store.dataset import DatasetGraphStore
    from .store.sparql import sparql_select

    store = DatasetGraphStore("urn:og:graph", table_triples(sf_dir))
    return sparql_select(
        store,
        """
        PREFIX attr: <urn:og:attr/>
        SELECT ?c ?s WHERE {
          ?c attr:mktsegment ?s .
          FILTER ( ?s IN ("BUILDING", "MACHINERY", "FURNITURE") )
          FILTER ( ?s NOT IN ("FURNITURE") )
        }
        """,
    )


def q_gopher_quality(sf_dir: str):
    """Gopher quality-filter rules (Rae et al. 2021) over documents —
    all seven predicates as exact cross-multiplied integers
    (stages/text.py::gopher_rules). The stop-word list parameter is
    corpus-tuned here (the synthetic docs' function words) so the rule
    actually splits the corpus; the stage defaults to the paper's
    list."""
    from .stages.text import gopher_rules

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return gopher_rules(
        docs, stopwords=("the", "a", "data", "value", "table", "row", "fast", "key")
    )


def q_c4_line_filter(sf_dir: str):
    """C4 cleaning rules (Raffel et al. 2020 §2.2) over a deterministic
    webpage-like corpus (stages/text.py::synthesize_webpages, a
    deterministic in-process data source): line-level
    terminal-punctuation / min-words / javascript filters plus the
    lorem-ipsum / curly-brace / min-kept-lines document drops. Oracle
    is an independent plain-Python twin
    (scripts/gen_fixtures.py::gen_c4_line_filter)."""
    from .stages.text import c4_line_filter, synthesize_webpages

    docs = ray.data.from_arrow(synthesize_webpages(400, seed=17))
    return c4_line_filter(docs)


def q_dsir_scores(sf_dir: str):
    """DSIR importance scores (stages/text.py::dsir_scores): English
    docs as the target slice, integer add-one ratio weights, per-doc
    occurrence-weighted sums — exact vs the SQL twin."""
    from .stages.text import dsir_scores

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    return dsir_scores(docs, target_col="lang", target_value="en")


def q_byte_entropy(sf_dir: str):
    """Per-document byte-distribution Shannon entropy in exact
    micro-nat integers (stages/text.py::byte_entropy_stats) — the
    gibberish/boilerplate quality signal: low entropy = repetitive
    filler. The LOG table quantizes ln once on the driver (scalar
    math.log), workers do int64 bincounts over Arrow byte buffers —
    pinned bit-for-bit by the plain-Python Counter twin
    (scripts/gen_fixtures.py::gen_byte_entropy)."""
    from .stages.text import byte_entropy_stats

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return byte_entropy_stats(docs)


def q_ngram_lm_perplexity(sf_dir: str):
    """CCNet-style bigram-LM scoring (stages/text.py::ngram_lm_scores,
    Wenzek et al. 2020): add-one-smoothed bigram LM trained on the
    English slice, every doc scored by exact MICRO-NAT integer
    cross-entropy (costs quantized once on the driver with scalar
    math.log, workers do int64 lookups/sums only). Oracle is the
    independent plain-Python twin
    (scripts/gen_fixtures.py::gen_ngram_lm_scores) — bit-identical
    integers."""
    from .stages.text import ngram_lm_scores

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    return ngram_lm_scores(docs, ref_col="lang", ref_value="en")


def q_url_dedup(sf_dir: str):
    """CCNet-style canonical-URL dedup (stages/scrub.py::url_dedup):
    messy URLs synthesized deterministically from doc_id (mixed-case
    scheme/host, default ports, trailing slashes, utm_/gclid params,
    fragments), canonicalized, then min-doc_id + count per canonical
    form. The oracle derives the canonical form DIRECTLY from doc_id —
    an independent derivation of what canonicalization must produce,
    stronger than re-implementing the parser in SQL."""
    import numpy as np

    from .stages.scrub import url_dedup

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk_urls(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64").to_numpy()
        s = d.astype(str)
        r3 = d % 3
        scheme = np.where(r3 == 0, "HTTP", np.where(r3 == 1, "https", "http"))
        port = np.where(
            (d % 5 == 0) & (r3 != 1),
            ":80",
            np.where((d % 5 == 1) & (r3 == 1), ":443", ""),
        )
        trail = np.where(d % 4 == 0, "/", "")
        extra = np.where(d % 6 == 0, "&gclid=zzz", "")
        frag = np.where(d % 2 == 0, "#frag", "")
        url = (
            pd.Series(scheme, index=df.index)
            + "://WWW.ExAmple"
            + pd.Series((d % 7).astype(str), index=df.index)
            + ".COM"
            + pd.Series(port, index=df.index)
            + "/P"
            + pd.Series((d % 5).astype(str), index=df.index)
            + pd.Series(trail, index=df.index)
            + "?utm_source=f&b="
            + pd.Series((d % 3).astype(str), index=df.index)
            + "&a=1"
            + pd.Series(extra, index=df.index)
            + pd.Series(frag, index=df.index)
        )
        return pd.DataFrame({"doc_id": df["doc_id"].astype("int64"), "url": url})

    return url_dedup(docs.map_batches(mk_urls, batch_format="pandas"))
