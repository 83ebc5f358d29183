"""The flagship pipeline: web pages → RDF triple store (P1-P7).

Ray-Data-native knowledge-graph construction per the engine's north
rule, composing the reference's term/graph semantics
(NewResourceTerm/NewLiteralTerm encoding triple.go:16-30, owl:sameAs
model constants.go:24 + ontology_individual.go:7, set-semantics
dedup memory_store.go:125-134) into a streaming plan:

  P1 read      read_parquet(documents) → synthesized page table
  P2 extract   stateless map_batches; byte-identical text per url;
               drops the wide html column immediately
  P3 mentions  stateless map_batches over the gazetteer (broadcast via
               ray.put, compiled once per worker by bcast.cached_get)
  P4 relations adjacent-mention co-occurrence pairs (vectorized)
  P5 link      mention surface → ontology-term dictionary (the same
               broadcast gazetteer)
  P6 canon     distributed union-find over owl:sameAs edges
               (canonicalize.connected_components)
  P7 material  flat_map to (s,p,o) → global exact dedup →
               partitioned N-Triples/Parquet

Determinism: the gazetteer, alias scheme and relation rule are pure
functions of the input, so the emitted triple set has an exact
ground truth (the DuckDB oracle in __ray_entry__.py reproduces it).

Entity/alias model: a surface form mentioned in language L yields the
alias individual  <ONTO#ent_{surface}__{L}>  with an owl:sameAs edge
to the canonical  <ONTO#ent_{surface}>; canonicalization rewrites all
alias URIs to their component representative (the lexicographic min,
which is the canonical URI by construction).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .. import constants as C
from .. import triples as tr
from ..bcast import cached_get
from ..store.dataset import distinct_on, write_ntriples
from .canonicalize import connected_components, union_find
from .checkpoint import CheckpointedRun
from .pages import extract_text_batch, read_pages

_log = logging.getLogger("ontograph_ray")

ONTO = "https://kg.example.org/onto"

# Deterministic gazetteer: the document corpus vocabulary minus
# stopwords. At real scale this is the ontology-term dictionary built
# from OntologyClass/ObjectProperty labels (reference structs,
# ontology_class.go:4-11) and broadcast once via ray.put.
STOPWORDS = ("the", "a")
GAZETTEER = (
    "agg", "batch", "big", "column", "customer", "data", "dup", "fast",
    "filter", "group", "hash", "join", "key", "line", "merge", "order",
    "part", "query", "row", "scan", "slow", "small", "sort", "spark",
    "stream", "table", "value", "vector", "window",
)

# Max distinct entity+relation rows the driver finishes locally; past
# this the distributed small-branch plan (bucketed dedup + broadcast
# rewrite + connected_components) takes over.
DRIVER_SMALL_MAX = 2_000_000

# Fewest pages one task of the mention chain (detect → link → rewrite,
# fused by Ray Data) takes: blocks of at least this many pages run one
# task each, so no task bundles several large blocks and sets the wall;
# smaller blocks are bundled up to it, so a small build does not pay
# per-task overhead for ~30-page tasks, nor write one output file per
# tiny block (a 1,000-page store went from 18 to 33 files, and its
# read_parquet count() from 0.03 to 0.2-0.9 s, on 4 CPUs).
MENTION_TASK_MIN_PAGES = 2048

MENTIONS_PROP = f"{ONTO}#mentions"
COOCCURS_PROP = f"{ONTO}#cooccursWith"
IN_LANGUAGE_PROP = f"{ONTO}#inLanguage"
PAGE_CLASS = f"{ONTO}#Page"


def canonical_uri(surface: str) -> str:
    return f"{ONTO}#ent_{surface}"


def alias_uri(surface: str, lang: str) -> str:
    return f"{ONTO}#ent_{surface}__{lang}"


def _tokenize(text_col):
    """Vectorized whitespace tokenizer: text column → (flat token
    array, per-token parent row index). Pure Arrow/numpy — no Python
    loop over rows or tokens."""
    if isinstance(text_col, pa.ChunkedArray):
        text_col = text_col.combine_chunks()
    toks = pc.split_pattern(text_col, " ")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    parents = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    return pc.list_flatten(toks), parents


# per-worker cache of the broadcast side of this module's stages: the
# compiled gazetteer and the sameAs component map
_BCAST_CACHE: dict = {}


def _compile_gazetteer(gaz) -> pa.Array:
    return pa.array(sorted(set(gaz)), pa.string())


def _detect(batch: pa.Table, gaz_ref=None):
    """P3+P5 detect kernel: one tokenize + gazetteer-lookup pass →
    (gazetteer, per-hit gazetteer index g, per-hit parent row). A hit
    is coded by integers, so each caller makes its distinct over one
    int64 key (``_distinct``) and builds strings only for the distinct
    rows; the sorted gazetteer array is compiled once per worker. This
    pass is most of what both detect kernels cost: ≈20-25 ms of their
    ≈24 and ≈30 ms on a 5,000-page batch (one thread, 4-CPU box)."""
    gaz = cached_get(
        _BCAST_CACHE, GAZETTEER if gaz_ref is None else gaz_ref, _compile_gazetteer
    )
    flat, parents = _tokenize(batch["text"])
    g = pc.fill_null(pc.index_in(flat, value_set=gaz), -1).to_numpy()
    sel = np.flatnonzero(g >= 0)
    return gaz, g[sel].astype(np.int64), parents[sel]


def _distinct(keys: np.ndarray, space: int) -> np.ndarray:
    """Sorted distinct values of int64 ``keys`` in [0, space): a mark
    array, O(n) where ``np.unique``'s sort is O(n log n), when the key
    space is small next to the keys (every detect key space is bounded
    by the gazetteer); ``np.unique`` past that."""
    if space > 8 * len(keys) + 65536:
        return np.unique(keys)
    seen = np.zeros(space, dtype=bool)
    seen[keys] = True
    return np.flatnonzero(seen)


def _mentions_distinct_batch(batch: pa.Table, gaz_ref=None) -> pa.Table:
    """Fused mention-detect + per-page distinct in ONE UDF. The
    distinct MUST happen inside the same call that sees the whole
    page: page rows are atomic in the input batch, but any separate
    downstream pass would see dynamically re-split blocks, where one
    page's mention rows can straddle a block boundary and batch-local
    distinct silently under-deduplicates (caught as a varying triple
    count between benchmark runs). The distinct is over the int64 key
    parent × |gazetteer| + g, and the (url, lang, surface) strings are
    taken once per distinct mention: ≈24 ms on a 5,000-page batch
    where a string ``group_by`` took ≈80 ms. Two rows with the same
    url stay separate rows here; ``unique_urls=False`` dedups them."""
    gaz, g, par = _detect(batch, gaz_ref)
    key = _distinct(par * len(gaz) + g, batch.num_rows * len(gaz))
    page = key // len(gaz)
    return pa.table(
        {
            "url": pc.take(batch["url"], page),
            "lang": pc.take(batch["lang"], page),
            "surface": pc.take(gaz, key % len(gaz)),
        }
    )


def _ent_rel_partials_batch(batch: pa.Table, gaz_ref=None) -> pa.Table:
    """ONE detect pass emitting both cross-page distinct partials as
    kind-tagged rows: kind='e' → per-batch distinct (surface, lang)
    entities; kind='r' → per-batch distinct (src, dst) relation pairs.
    Sharing the pass halves the corpus tokenization work the entity
    and relation stages would otherwise each redo; the outputs are
    tiny (bounded by the distinct sets, not the corpus). Both
    distincts are over int64 keys — entities on g × |langs| + lang
    code, relations on (g_i × |gazetteer| + g_{i+1}) × |langs| + lang
    code for adjacent same-page hits whose surfaces differ — and the
    alias strings are built only for the distinct relation set:
    ≈30 ms on a 5,000-page batch where string ``group_by``s took
    ≈55 ms."""
    gaz, g, par = _detect(batch, gaz_ref)
    # a null lang is one code of its own, as it is one group key
    lang = pc.dictionary_encode(batch["lang"].combine_chunks(), null_encoding="encode")
    langs, n_g, n_l = lang.dictionary, len(gaz), len(lang.dictionary)
    lc = lang.indices.to_numpy(zero_copy_only=False).astype(np.int64)[par]
    ent = _distinct(g * n_l + lc, n_g * n_l)
    pair = np.flatnonzero((par[1:] == par[:-1]) & (g[1:] != g[:-1]))
    rel = _distinct((g[pair] * n_g + g[pair + 1]) * n_l + lc[pair], n_g * n_g * n_l)
    rel_lang = pc.take(langs, rel % n_l)
    prefix, sep = pa.scalar(f"{ONTO}#ent_"), pa.scalar("__")

    def alias(codes):
        return pc.binary_join_element_wise(prefix, pc.take(gaz, codes), sep, rel_lang, "")

    ents = pa.table(
        {
            "kind": pa.array(["e"] * len(ent), pa.string()),
            "surface": pc.take(gaz, ent // n_l),
            "lang": pc.take(langs, ent % n_l),
        }
    )
    rels = pa.table(
        {
            "kind": pa.array(["r"] * len(rel), pa.string()),
            "src": alias(rel // n_l // n_g),
            "dst": alias(rel // n_l % n_g),
        }
    )
    # each part's missing columns are null-filled
    return pa.concat_tables([ents, rels], promote_options="default")


def ent_rel_partials_stage(pages: ray.data.Dataset) -> ray.data.Dataset:
    gaz_ref = ray.put(list(GAZETTEER))
    return pages.map_batches(
        _ent_rel_partials_batch,
        fn_kwargs={"gaz_ref": gaz_ref},
        batch_format="pyarrow",
        batch_size=None,
    )


def mentions_distinct_stage(pages: ray.data.Dataset) -> ray.data.Dataset:
    """P3+P5 with the (url, lang, surface) distinct fused in — globally
    distinct output with NO exchange (url functionally determines its
    page's batch)."""
    gaz_ref = ray.put(list(GAZETTEER))
    return pages.map_batches(
        _mentions_distinct_batch,
        fn_kwargs={"gaz_ref": gaz_ref},
        batch_format="pyarrow",
        batch_size=MENTION_TASK_MIN_PAGES,
    )


def _const_dict(value: str, n: int) -> pa.DictionaryArray:
    """Constant column as a 1-entry dictionary: 4 bytes/row instead of
    len(value) — predicates are the worst repeated-string offenders."""
    return pa.DictionaryArray.from_arrays(
        pa.array(np.zeros(n, dtype=np.int32)), pa.array([value], pa.string())
    )


def _decorated_url_dict(url_col) -> pa.DictionaryArray:
    """``<url>`` subject column built by dictionary-encoding the url
    column FIRST and decorating only the (distinct) dictionary values —
    a page's url repeats once per mention, so the angle-bracket strings
    are built ~|mentions-per-page|× fewer times and the block carries
    int32 indices instead of ~40-byte strings."""
    enc = pc.dictionary_encode(
        url_col.combine_chunks() if isinstance(url_col, pa.ChunkedArray) else url_col
    )
    vals = pc.binary_join_element_wise(
        pa.scalar("<"), enc.dictionary, pa.scalar(">"), ""
    )
    return pa.DictionaryArray.from_arrays(enc.indices, vals)


def _dict_encode_col(col) -> pa.DictionaryArray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_dictionary(col.type):
        return col
    return pc.dictionary_encode(col)


def decode_triples_batch(batch: pa.Table) -> pa.Table:
    """Inverse boundary: dictionary-encoded triple columns back to
    plain strings (for sinks/consumers that need flat string columns —
    N-Triples lines, driver-oracle comparison, dedup exchanges)."""
    for i, name in enumerate(batch.schema.names):
        if pa.types.is_dictionary(batch.schema.field(i).type):
            batch = batch.set_column(
                i, name, pc.cast(batch.column(i), pa.string())
            )
    return batch


def encode_triples_batch(batch: pa.Table) -> pa.Table:
    """Dictionary-encode every plain string column (schema homogenizer:
    the small entity/relation branch must match the encoded big
    branches so the final union has ONE schema)."""
    for i, name in enumerate(batch.schema.names):
        if pa.types.is_string(batch.schema.field(i).type):
            batch = batch.set_column(
                i, name, _dict_encode_col(batch.column(i))
            )
    return batch


def mention_link_triples_batch(batch: pa.Table, encode: bool = False) -> pa.Table:
    """Distinct (url, lang, surface) mentions → `page mentions alias`
    triples (one row each — the sameAs/type triples are emitted once
    per distinct entity by entity_triples_batch, not per mention).

    ``encode=True`` emits dictionary-encoded columns — same logical
    table, ~8-10× fewer bytes per block. At 32-way concurrency these
    blocks are what saturates DRAM bandwidth (identical work costs ~2×
    CPU at 32 vs 8 workers; BASELINE.md), so shrinking the physical
    representation is the single-box scaling lever. The indices are
    per-block, so any downstream exchange ships the small dictionary
    with each block — no global coordination needed."""
    alias_res = pc.binary_join_element_wise(
        pa.scalar(f"<{ONTO}#ent_"), batch["surface"], pa.scalar("__"), batch["lang"], pa.scalar(">"), ""
    )
    if encode:
        return pa.table(
            {
                "subject": _decorated_url_dict(batch["url"]),
                "predicate": _const_dict(f"<{MENTIONS_PROP}>", batch.num_rows),
                "object": _dict_encode_col(alias_res),
            }
        )
    url_res = pc.binary_join_element_wise(pa.scalar("<"), batch["url"], pa.scalar(">"), "")
    pred = pa.array([f"<{MENTIONS_PROP}>"] * batch.num_rows, pa.string())
    return pa.table({"subject": url_res, "predicate": pred, "object": alias_res})


def entity_triples_batch(batch: pa.Table) -> pa.Table:
    """Distinct (surface, lang) entities → the per-entity triples:
    alias owl:sameAs canonical (the canonicalization edge) and alias
    rdf:type owl:NamedIndividual."""
    alias_res = pc.binary_join_element_wise(
        pa.scalar(f"<{ONTO}#ent_"), batch["surface"], pa.scalar("__"), batch["lang"], pa.scalar(">"), ""
    )
    canon_res = pc.binary_join_element_wise(
        pa.scalar(f"<{ONTO}#ent_"), batch["surface"], pa.scalar(">"), ""
    )
    n = batch.num_rows

    def const(s):
        return pa.array([s] * n, pa.string())

    return pa.concat_tables(
        [
            pa.table({"subject": alias_res, "predicate": const(f"<{C.OWL_SAME_AS}>"), "object": canon_res}),
            pa.table({"subject": alias_res, "predicate": const(f"<{C.RDF_TYPE}>"), "object": const(f"<{C.OWL_NAMED_INDIVIDUAL}>")}),
        ]
    )


def page_triples_batch(batch: pa.Table, encode: bool = False) -> pa.Table:
    """Per-page metadata triples (from the extracted page table).
    ``encode=True``: dictionary-encoded columns (see
    mention_link_triples_batch)."""
    n = batch.num_rows
    if encode:
        subj = _decorated_url_dict(batch["url"])
        lang_lit = _dict_encode_col(
            pc.binary_join_element_wise(pa.scalar('"'), batch["lang"], pa.scalar('"'), "")
        )
        return pa.concat_tables(
            [
                pa.table(
                    {
                        "subject": subj,
                        "predicate": _const_dict(f"<{C.RDF_TYPE}>", n),
                        "object": _const_dict(f"<{PAGE_CLASS}>", n),
                    }
                ),
                pa.table(
                    {
                        "subject": subj,
                        "predicate": _const_dict(f"<{IN_LANGUAGE_PROP}>", n),
                        "object": lang_lit,
                    }
                ),
            ]
        )
    url_res = pc.binary_join_element_wise(pa.scalar("<"), batch["url"], pa.scalar(">"), "")

    def const(s):
        return pa.array([s] * n, pa.string())

    lang_lit = pc.binary_join_element_wise(pa.scalar('"'), batch["lang"], pa.scalar('"'), "")
    return pa.concat_tables(
        [
            pa.table({"subject": url_res, "predicate": const(f"<{C.RDF_TYPE}>"), "object": const(f"<{PAGE_CLASS}>")}),
            pa.table({"subject": url_res, "predicate": const(f"<{IN_LANGUAGE_PROP}>"), "object": lang_lit}),
        ]
    )


def relation_triples_batch(batch: pa.Table) -> pa.Table:
    src = pc.binary_join_element_wise(pa.scalar("<"), batch["src"], pa.scalar(">"), "")
    dst = pc.binary_join_element_wise(pa.scalar("<"), batch["dst"], pa.scalar(">"), "")
    pred = pa.array([f"<{COOCCURS_PROP}>"] * batch.num_rows, pa.string())
    return pa.table({"subject": src, "predicate": pred, "object": dst})


def _rewrite_arrays(comp: dict[str, str]) -> tuple[pa.Array, pa.Array]:
    """Component map → (alias keys, representatives) in <…> term syntax."""
    return (
        pa.array([f"<{k}>" for k in comp], pa.string()),
        pa.array([f"<{v}>" for v in comp.values()], pa.string()),
    )


def _rewrite_batch(batch: pa.Table, comp_ref=None) -> pa.Table:
    """P6 apply-stage: map URIs (in <…> term syntax) through the
    component representative table. owl:sameAs rows are left unrewritten
    — they stay as alias→canonical provenance edges instead of
    collapsing into self-loops. The component map is broadcast via
    ray.put (fetched from the local object store and converted to
    key/value arrays once per worker); the per-batch rewrite is a pure
    Arrow index_in/take/if_else — no Python per row. Partitioning
    assumption: the component map (≈ #distinct alias entities, NOT
    #pages) fits in worker memory; beyond that, swap for the
    bucketed-join rewrite."""
    if batch.num_rows == 0:
        return batch
    keys, vals = cached_get(_BCAST_CACHE, comp_ref, _rewrite_arrays)

    pred = batch["predicate"]
    if isinstance(pred, pa.ChunkedArray):
        pred = pred.combine_chunks()
    sameas = f"<{C.OWL_SAME_AS}>"
    if pa.types.is_dictionary(pred.type):
        # Dictionary-encoded predicate: test the (tiny) dictionary, not
        # the rows. Conservative: a sameAs entry in the dictionary counts
        # as "sameAs rows present" even if unreferenced.
        has_keep = pc.any(pc.equal(pred.dictionary, sameas)).as_py()
        keep = (
            pc.take(pc.equal(pred.dictionary, sameas), pred.indices)
            if has_keep
            else None
        )
    else:
        keep = pc.equal(pred, sameas)
        has_keep = pc.any(keep).as_py() is True

    for col in ("subject", "object"):
        orig = batch[col]
        if isinstance(orig, pa.ChunkedArray):
            orig = orig.combine_chunks()
        i = batch.schema.get_field_index(col)
        if pa.types.is_dictionary(orig.type):
            if not has_keep:
                # Dictionary-level rewrite: index_in/take/if_else over
                # the ~10²-value dictionary instead of the ~10⁵-row
                # column — the whole point of the encoded triple path.
                # (Duplicate post-rewrite dictionary values are legal
                # Arrow; nothing downstream assumes dictionary
                # uniqueness.)
                d = orig.dictionary
                idx = pc.index_in(d, value_set=keys)
                new_d = pc.if_else(pc.is_valid(idx), pc.take(vals, idx), d)
                # re-unify: the rewrite can map two aliases to the same
                # canonical, and duplicate dictionary values break
                # pandas Categorical consumers. dictionary_encode over
                # the (tiny) dictionary gives unique values + an
                # old→new position map; remapping rows is one int take.
                uniq = pc.dictionary_encode(new_d)
                batch = batch.set_column(
                    i,
                    col,
                    pa.DictionaryArray.from_arrays(
                        pc.take(uniq.indices, orig.indices), uniq.dictionary
                    ),
                )
                continue
            # sameAs rows present → the rewrite is row-conditional;
            # decode and fall through to the row-level path.
            orig = pc.cast(orig, pa.string())
        idx = pc.index_in(orig, value_set=keys)
        taken = pc.take(vals, idx)
        cond = pc.and_(pc.is_valid(idx), pc.invert(keep)) if has_keep else pc.is_valid(idx)
        batch = batch.set_column(i, col, pc.if_else(cond, taken, orig))
    return batch


def kg_oracle_sql() -> str:
    """ANSI SQL (DuckDB) reproducing the pipeline's exact final triple
    set from the ``documents`` view — the correctness ground truth for
    the whole P1-P7 plan (verified exact-equal in tests)."""
    gaz_list = ", ".join(f"'{g}'" for g in GAZETTEER)
    urlp = "https://docs.example.org/page/"
    return f"""
WITH toks AS (
  SELECT doc_id, lang, list_filter(string_split(text, ' '), x -> x IN ({gaz_list})) AS l
  FROM documents
),
mention AS (SELECT DISTINCT doc_id, lang, unnest(l) AS surface FROM toks),
pairs AS (
  SELECT DISTINCT p[1] AS s1, p[2] AS s2
  FROM (SELECT unnest(list_zip(list_slice(l, 1, len(l)-1), list_slice(l, 2, len(l)))) AS p
        FROM toks WHERE len(l) >= 2) WHERE p[1] != p[2]
)
SELECT '<' || '{urlp}' || doc_id || '>' AS subject,
       '<{C.RDF_TYPE}>' AS predicate,
       '<{PAGE_CLASS}>' AS object FROM documents
UNION ALL
SELECT '<' || '{urlp}' || doc_id || '>', '<{IN_LANGUAGE_PROP}>', '"' || lang || '"' FROM documents
UNION ALL
SELECT DISTINCT '<' || '{urlp}' || doc_id || '>', '<{MENTIONS_PROP}>', '<{ONTO}#ent_' || surface || '>' FROM mention
UNION ALL
SELECT DISTINCT '<{ONTO}#ent_' || surface || '__' || lang || '>',
       '<{C.OWL_SAME_AS}>', '<{ONTO}#ent_' || surface || '>' FROM mention
UNION ALL
SELECT DISTINCT '<{ONTO}#ent_' || surface || '>',
       '<{C.RDF_TYPE}>', '<{C.OWL_NAMED_INDIVIDUAL}>' FROM mention
UNION ALL
SELECT DISTINCT '<{ONTO}#ent_' || s1 || '>', '<{COOCCURS_PROP}>', '<{ONTO}#ent_' || s2 || '>' FROM pairs
"""


@dataclass
class KGPipelineResult:
    triples: ray.data.Dataset
    stats: dict = field(default_factory=dict)


def build_kg(
    sf_dir: str,
    out_dir: str | None = None,
    checkpoint_dir: str | None = None,
    dedup_buckets: int = 64,
    amplify: int = 1,
    unique_urls: bool = True,
) -> KGPipelineResult:
    """Run the full P1-P7 pipeline over ``{sf_dir}/documents.parquet``.

    Returns the deduplicated triple Dataset (lazy until consumed) and
    per-stage counters. When ``out_dir`` is set, writes partitioned
    N-Triples + Parquet. When ``checkpoint_dir`` is set, stages resume
    from their manifests without recompute.

    ``unique_urls`` is the dedup-pushdown boundary contract: the
    mention/page triple branches skip the global (s,p,o) exchange on
    the guarantee that every url appears in exactly ONE input row.
    ``read_pages`` synthesizes such a table (amplify replicas get
    distinct urls), so the default holds here; crawl-shaped input
    (WARC/Common-Crawl via sources.warc, where re-crawled urls recur
    across files) must pass ``unique_urls=False``, which routes those
    branches through the full exact dedup and keeps the G17 set
    semantics at the cost of the wide exchange. Checkpointed runs
    verify the claim (a url-distinct count over the extracted stage —
    one narrow-column exchange a durable run can afford) and fail fast
    on a violation instead of silently emitting duplicate triples.

    The dedup-pushdown fast path (``unique_urls=True``) emits the
    triple columns dictionary-encoded: constant predicates become
    1-entry dictionaries, each page url is decorated once instead of
    once per mention, and the sameAs rewrite runs over per-block
    dictionaries (~10² values) instead of rows (~10⁵). Same logical
    table, ~8-10× fewer bytes per block — the single-box 32-way scaling
    lever (BASELINE.md's DRAM-bandwidth diagnosis). Consumers that need
    flat strings decode at their boundary with
    ``decode_triples_batch``. The full-dedup path
    (``unique_urls=False``) stays plain — it pays a global (s,p,o)
    exchange anyway and the dedup kernels key on plain strings.
    """
    t0 = time.time()
    run = CheckpointedRun(checkpoint_dir)
    stats: dict = {}

    # NOTE for session owners: the final plan unions three map
    # branches, and Ray Data's per-operator resource reservation carves
    # the budget across ALL operators in the DAG, starving the one hot
    # branch once a union widens the DAG — measured 4× wall-time at 8
    # CPUs / amplify 1600 (152s with reservation vs 38s without).
    # Every branch here is a bounded streaming map (no OOM-risk
    # all-to-all behind the union), so sessions running this pipeline
    # should set DataContext.op_resource_reservation_enabled = False.
    # The library itself does NOT mutate the session-global context
    # (that would silently change executor policy for every unrelated
    # Dataset the caller runs afterward); bench.py, scripts/ and the
    # test fixture — the session owners — each set it.

    # Without a checkpoint dir, stages that fan out to several
    # consumers are pinned in the object store (materialize) instead of
    # being recomputed per consumer; with one, CheckpointedRun already
    # persists each stage as Parquet (the durable variant of the same
    # cut point — the scale path).
    def pin(ds: ray.data.Dataset) -> ray.data.Dataset:
        return ds if checkpoint_dir else ds.materialize()

    def extracted_fn():
        pages = read_pages(sf_dir, amplify=amplify)
        return pages.map_batches(extract_text_batch, batch_format="pyarrow")

    extracted = pin(
        run.stage(
            "extract", extracted_fn, config={"sf_dir": sf_dir, "amplify": amplify, "v": "1"},
            inputs=[f"{sf_dir}/documents.parquet"],
        )
    )

    if unique_urls and checkpoint_dir:
        # Durable runs verify the pushdown contract instead of trusting
        # it: distinct-url count must equal the page count.
        n_pages = extracted.count()
        n_urls = distinct_on(
            extracted.select_columns(["url"]), ["url"], min(16, dedup_buckets)
        ).count()
        if n_urls != n_pages:
            raise ValueError(
                f"build_kg(unique_urls=True) but {n_pages - n_urls} duplicate "
                "url row(s) found; pass unique_urls=False for crawl-shaped "
                "input so mention/page triples take the full dedup path"
            )

    # The distinct mention table (url, lang, surface): the distinct is
    # FUSED into the detection UDF (mentions_distinct_stage) so it runs
    # on whole pages before any dynamic block re-splitting, and `url`
    # is unique per page — so batch-local distinct IS globally
    # distinct, with NO exchange. The streaming path deliberately does
    # NOT pin this table: it is the pipeline's largest intermediate
    # (~#pages × #entities-per-page rows), and measured at amplify 1600
    # pushing it through the object store costs MORE than re-running
    # the (vectorized, integer-keyed) detect pass fused into the
    # consumer chain — 49s to materialize vs ~7s to recompute at 32
    # CPUs. On 4 CPUs at sf0.1 × 40 the recompute is one task per
    # extracted block (20 tasks of 10k pages, the longest 0.16 s, the
    # operator 0.8 s), and the detect kernel is ≈24 ms per 5k pages on
    # one thread. With a checkpoint dir it IS persisted (durable
    # Parquet), trading that cost for resumability.
    if checkpoint_dir:
        mentions_d = run.stage(
            "mentions_distinct",
            lambda: mentions_distinct_stage(extracted),
            config={"gazetteer": GAZETTEER, "v": "4"},
            inputs=["stage=extract"],
        )
    else:
        mentions_d = mentions_distinct_stage(extracted)

    # ONE shared detect pass produces the per-batch distinct partials
    # for BOTH cross-page keys (entities, relation pairs), kind-tagged
    # so a SINGLE bucketed global distinct covers both (their column
    # sets are disjoint, so the composite-key distinct is per-kind
    # distinct). The exchange carries the tiny partials, not the
    # corpus.
    partials = run.stage(
        "ent_rel_partials",
        lambda: ent_rel_partials_stage(extracted),
        config={"gazetteer": GAZETTEER, "v": "3"},
        inputs=["stage=extract"],
    )

    er_cols = ["kind", "surface", "lang", "src", "dst"]
    er_dist = run.stage(
        "ent_rel_distinct",
        lambda: distinct_on(partials, er_cols, min(16, dedup_buckets)),
        config={"v": "4"},
        inputs=["stage=ent_rel_partials"],
    )

    # The distinct entity/relation sets are bounded by the gazetteer
    # (|dict|×|langs| entities, |dict|²×|langs| relation pairs) — the
    # same "dictionary fits in memory" assumption the broadcast rewrite
    # already makes — so the whole small branch (entity + relation
    # triples, union-find, rewrite, dedup) finishes ON THE DRIVER: four
    # distributed stages' worth of fixed executor latency collapse into
    # microseconds of local pandas. DRIVER_SMALL_MAX guards the
    # assumption: past it, the distributed branch below takes over.
    if not checkpoint_dir:
        er_dist = er_dist.materialize()
    n_er = er_dist.count()
    use_driver_small = n_er <= DRIVER_SMALL_MAX
    _log.debug(
        "build_kg: %s branch, %d entity/relation rows %s DRIVER_SMALL_MAX=%d",
        "driver-small" if use_driver_small else "distributed",
        n_er, "<=" if use_driver_small else ">", DRIVER_SMALL_MAX,
    )
    # streaming mode has no manifest counters; fill in the row counts
    # that are free (metadata of already-materialized stages) so the
    # lineage story holds on both paths
    if not checkpoint_dir:
        run.counters["extract"]["rows"] = extracted.count()
        run.counters["ent_rel_distinct"]["rows"] = n_er

    def _er_kind(kind: str, cols: list[str]) -> ray.data.Dataset:
        def filt(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.equal(batch["kind"], kind)).select(cols)

        return er_dist.map_batches(filt, batch_format="pyarrow")

    if use_driver_small:
        er_parts = [
            b
            for b in er_dist.iter_batches(batch_format="pyarrow", batch_size=None)
            if b.num_rows
        ]
        if er_parts:
            er_tbl = pa.concat_tables(er_parts)
            ents_tbl = er_tbl.filter(pc.equal(er_tbl["kind"], "e")).select(
                ["surface", "lang"]
            )
            rels_tbl = er_tbl.filter(pc.equal(er_tbl["kind"], "r")).select(
                ["src", "dst"]
            )
        else:
            ents_tbl = pa.table(
                {"surface": pa.array([], pa.string()), "lang": pa.array([], pa.string())}
            )
            rels_tbl = pa.table(
                {"src": pa.array([], pa.string()), "dst": pa.array([], pa.string())}
            )

    # P6: union-find over the owl:sameAs edge set (alias → canonical
    # per distinct entity). The edge list is the distinct entity set —
    # driver-sized here; `connected_components` remains the scale path
    # and is exercised by kg_sameas_components / its tests.
    def final_fn():
        enc = unique_urls
        m_triples = mentions_d.map_batches(
            mention_link_triples_batch,
            fn_kwargs={"encode": enc},
            batch_format="pyarrow",
        )
        p_triples = extracted.map_batches(
            page_triples_batch, fn_kwargs={"encode": enc}, batch_format="pyarrow"
        )

        if use_driver_small:
            comp = union_find(
                (alias_uri(s, l), canonical_uri(s))
                for s, l in zip(
                    ents_tbl["surface"].to_pylist(), ents_tbl["lang"].to_pylist()
                )
            )
            comp_map = {n: c for n, c in comp.items() if n != c}
        else:
            def ent_edges(batch: pa.Table) -> pa.Table:
                alias = pc.binary_join_element_wise(
                    pa.scalar(f"{ONTO}#ent_"), batch["surface"], pa.scalar("__"), batch["lang"], ""
                )
                canon = pc.binary_join_element_wise(
                    pa.scalar(f"{ONTO}#ent_"), batch["surface"], ""
                )
                return pa.table({"src": alias, "dst": canon})

            edges = _er_kind("e", ["surface", "lang"]).map_batches(
                ent_edges, batch_format="pyarrow"
            )
            components = connected_components(edges, num_buckets=min(16, dedup_buckets))
            comp_map = {
                r["node"]: r["component"]
                for r in components.take_all()
                if r["node"] != r["component"]
            }
        stats["components_rewritten"] = len(comp_map)
        comp_ref = ray.put(comp_map)

        def rw(ds: ray.data.Dataset) -> ray.data.Dataset:
            return ds.map_batches(
                _rewrite_batch,
                fn_kwargs={"comp_ref": comp_ref},
                batch_format="pyarrow",
                batch_size=None,
            )

        # P7 with *dedup pushdown*: the big triple parts are distinct
        # BY CONSTRUCTION (mention-link triples come from the global
        # (url,lang,surface) distinct with one functional lang per url;
        # page triples have unique subjects; the parts use disjoint
        # predicates), so they skip the global (s,p,o) exchange
        # entirely — G17 set semantics hold without shuffling the 99%
        # that cannot contain duplicates. Only entity/relation triples
        # can collapse when the rewrite merges per-language aliases;
        # that small remainder gets the exact dedup. Page triples skip
        # the rewrite too — no entity URI ever appears in them.
        big = rw(m_triples).union(p_triples)
        if not unique_urls:
            # Crawl-shaped input: duplicate urls break the
            # distinct-by-construction argument above, so the big
            # branches pay the exact dedup after all. (The parts stay
            # mutually disjoint — predicates differ — so one exchange
            # over their union suffices.)
            big = distinct_on(big, tr.COLUMNS, dedup_buckets)

        if use_driver_small:
            # the driver-side small branch: build, rewrite, dedup the
            # entity/relation triples locally (tiny), ship as one block
            sdf = pa.concat_tables(
                [entity_triples_batch(ents_tbl), relation_triples_batch(rels_tbl)]
            ).to_pandas()
            mapping = {f"<{k}>": f"<{v}>" for k, v in comp_map.items()}
            movable = sdf["predicate"] != f"<{C.OWL_SAME_AS}>"
            for col in ("subject", "object"):
                moved = sdf.loc[movable, col].map(mapping)
                sdf.loc[movable, col] = moved.fillna(sdf.loc[movable, col])
            sdf = sdf.drop_duplicates()
            small = ray.data.from_arrow(
                pa.Table.from_pandas(sdf, preserve_index=False)
            )
        else:
            e_triples = _er_kind("e", ["surface", "lang"]).map_batches(
                entity_triples_batch, batch_format="pyarrow"
            )
            r_triples = _er_kind("r", ["src", "dst"]).map_batches(
                relation_triples_batch, batch_format="pyarrow"
            )
            small = distinct_on(
                rw(e_triples.union(r_triples)), tr.COLUMNS, min(16, dedup_buckets)
            )
            if not checkpoint_dir:
                # Materialize the deduped remainder before the final
                # union: a union mixing a streaming map branch with an
                # all-to-all (the dedup's sort) starves the executor at
                # scale — observed as a >10-minute stall at amplify
                # 1600 where the branches run in <1 minute separately.
                small = small.materialize()
        if enc:
            # homogenize: the union must carry ONE schema (the big
            # branches are dictionary-encoded)
            small = small.map_batches(encode_triples_batch, batch_format="pyarrow")
        return big.union(small)

    final = run.stage(
        "triples", final_fn,
        config={"v": "7", "unique_urls": unique_urls},
        inputs=["stage=mentions_distinct", "stage=ent_rel_distinct", "stage=extract"],
    )

    if out_dir:
        final = final.materialize()
        write_ntriples(final, f"{out_dir}/ntriples")
        final.write_parquet(f"{out_dir}/parquet")

    stats["counters"] = run.counters
    stats["wall_sec"] = round(time.time() - t0, 3)
    return KGPipelineResult(triples=final, stats=stats)
