"""DatasetGraphStore — the distributed, lazy triple-graph backend.

A named graph as a ``ray.data.Dataset`` with the canonical 3-column
Arrow schema. Operations are Dataset→Dataset and lazy; nothing
materializes until a consuming call (count/write/take). This is the
bulk counterpart of MemoryGraphStore, covering the reference's store
surface at scale (reference: graph_store.go:9-50, RD mappings in
SURVEY.md §2.2):

- pattern match (G2/G3/G5)      → vectorized filter inside map_batches
- delete-all-matches (G4)       → negated filter
- bulk add-unchecked (G8/G9)    → union + distinct_on(s,p,o) (G17)
- bulk delete-unchecked (G12/13)→ broadcast anti-join (small incoming)
- size (G16)                    → ds.count()
- serialize (G15)               → N-Triples datasink (one file/block)

Scale notes: every all-to-all reduce is ONE mechanism,
:func:`bucketed_group_map` — an optional per-block combiner, a
small-int ``__bucket`` column from one routing rule
(:func:`bucket_ids`), one exchange keyed on it, then one vectorized
call per bucket, NOT one Python call per group. Exact dedup (the
canonical materialize step: ``distinct_on`` over the triple columns,
whose per-block Arrow distinct shrinks the shuffle input), the hash and
as-of joins, the ontology pivot and the graph fixpoints all reduce
through it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .. import triples as tr
from ..bcast import cached_get
from ..triples import Triple
from . import turtle
from .base import TripleAlreadyExistsError, TripleDoesNotExistError

DEDUP_BUCKETS_DEFAULT = 64
_SEP = "\x1f"

# per-worker cache of this module's broadcast sides (see bcast.py)
_BCAST_CACHE: dict = {}


class DatasetGraphStore:
    """Lazy triple graph over a Ray Dataset."""

    def __init__(self, uri: str, ds: ray.data.Dataset):
        self._uri = uri
        self._ds = ds
        self._dropped = False

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_parquet(cls, uri: str, path: str, **kwargs) -> "DatasetGraphStore":
        return cls(uri, ray.data.read_parquet(path, columns=tr.COLUMNS, **kwargs))

    @classmethod
    def from_table(cls, uri: str, table: pa.Table) -> "DatasetGraphStore":
        return cls(uri, ray.data.from_arrow(table))

    @classmethod
    def from_triples(cls, uri: str, triples: Sequence[Triple]) -> "DatasetGraphStore":
        return cls.from_table(uri, tr.triples_to_table(triples))

    @classmethod
    def from_ntriples_text(cls, uri: str, paths) -> "DatasetGraphStore":
        """Source: line-oriented N-Triples files — embarrassingly
        parallel per-line parse (reference bootstrap path: G18,
        memory_store.go:32-60). The common shape
        ``<s> <p> <o|"lit"...> .`` is parsed with ONE vectorized
        extract_regex over the whole batch; only lines that regex
        can't split (exotic Turtle) fall back to the state-machine
        parser."""
        lines = ray.data.read_text(paths)
        _NT = (
            r"^\s*(?P<s><[^>]*>)\s+(?P<p><[^>]*>)\s+(?P<o>.*?)\s*\.\s*$"
        )

        def parse_lines(batch: pa.Table) -> pa.Table:
            col = batch["text"]
            hit = pc.extract_regex(col, _NT)
            ok = pc.is_valid(hit)
            out = pa.table(
                {
                    tr.SUBJECT: pc.struct_field(hit, "s").filter(ok),
                    tr.PREDICATE: pc.struct_field(hit, "p").filter(ok),
                    tr.OBJECT: pc.struct_field(hit, "o").filter(ok),
                },
                schema=tr.TRIPLE_SCHEMA,
            )
            # fallback for non-regular lines (comments/blank are skipped)
            misses = [
                line
                for line, good in zip(col.to_pylist(), pc.invert(ok).to_pylist())
                if good and line.strip() and not line.lstrip().startswith("#")
            ]
            if misses:
                flat = [t for line in misses for t in turtle.parse_turtle(line)]
                out = pa.concat_tables([out, tr.triples_to_table(flat)])
            return out

        return cls(uri, lines.map_batches(parse_lines, batch_format="pyarrow"))

    # -- accessors ---------------------------------------------------------

    def get_uri(self) -> str:
        return self._uri

    def _check_usable(self) -> None:
        if getattr(self, "_dropped", False):
            raise RuntimeError("GraphStore has been dropped (G14)")

    @property
    def dataset(self) -> ray.data.Dataset:
        self._check_usable()
        return self._ds

    def size(self) -> int:
        self._check_usable()
        return self._ds.count()

    # -- pattern matching --------------------------------------------------

    def matches(
        self, subject: str = "", predicate: str = "", object: str = ""
    ) -> ray.data.Dataset:
        """All triples matching the wildcard pattern, as a lazy Dataset."""
        self._check_usable()
        if subject == "" and predicate == "" and object == "":
            return self._ds
        pattern = (subject, predicate, object)

        def filt(batch: pa.Table) -> pa.Table:
            mask = tr.pattern_mask(batch, *pattern)
            return batch if mask is None else batch.filter(mask)

        return self._ds.map_batches(filt, batch_format="pyarrow")

    def get_all_matches(
        self, subject: str = "", predicate: str = "", object: str = ""
    ) -> list[Triple]:
        tbl = pa.Table.from_pylist(
            self.matches(subject, predicate, object).take_all(),
            schema=tr.TRIPLE_SCHEMA,
        )
        return tr.table_to_triples(tbl)

    def get_first_match(
        self, subject: str = "", predicate: str = "", object: str = ""
    ) -> Optional[Triple]:
        rows = self.matches(subject, predicate, object).limit(1).take(1)
        if not rows:
            return None
        r = rows[0]
        return Triple(r[tr.SUBJECT], r[tr.PREDICATE], r[tr.OBJECT])

    def without_matches(
        self, subject: str = "", predicate: str = "", object: str = ""
    ) -> "DatasetGraphStore":
        """DeleteAllMatches as a new graph version (negated filter,
        G4)."""
        pattern = (subject, predicate, object)

        def filt(batch: pa.Table) -> pa.Table:
            mask = tr.pattern_mask(batch, *pattern)
            if mask is None:
                return batch.slice(0, 0)
            return batch.filter(pc.invert(mask))

        return DatasetGraphStore(
            self._uri, self._ds.map_batches(filt, batch_format="pyarrow")
        )

    # -- bulk set operations ----------------------------------------------

    def add_triples_unchecked(
        self, new: "ray.data.Dataset | pa.Table | Sequence[Triple]"
    ) -> "DatasetGraphStore":
        """Idempotent bulk insert: union + global exact dedup (G9+G17)."""
        self._check_usable()
        if isinstance(new, pa.Table):
            new_ds = ray.data.from_arrow(new)
        elif isinstance(new, ray.data.Dataset):
            new_ds = new
        else:
            new_ds = ray.data.from_arrow(tr.triples_to_table(new))
        return DatasetGraphStore(
            self._uri, distinct_on(self._ds.union(new_ds), tr.COLUMNS)
        )

    def delete_triples_unchecked(
        self, remove: "pa.Table | Sequence[Triple]"
    ) -> "DatasetGraphStore":
        """Idempotent bulk delete via broadcast anti-join (G13): the
        (small) incoming key set goes into the object store once
        (ray.put) and each worker reads it once through ``cached_get``
        — never re-shipped per batch."""
        self._check_usable()
        if not isinstance(remove, pa.Table):
            remove = tr.triples_to_table(remove)
        keys_ref = ray.put(_composite_key(remove).combine_chunks())
        out = self._ds.map_batches(
            _anti_join_batch, fn_kwargs={"keys_ref": keys_ref}, batch_format="pyarrow"
        )
        return DatasetGraphStore(self._uri, out)

    # -- checked / all-or-nothing batch operations (G6/G7, G10/G11) ---------

    def add_triples_checked(
        self, new: "ray.data.Dataset | pa.Table | Sequence[Triple]",
        num_buckets: int = DEDUP_BUCKETS_DEFAULT,
    ) -> "DatasetGraphStore":
        """All-or-nothing distributed batch add (G7): any conflict —
        a triple already in the store, or duplicated within the batch —
        raises TripleAlreadyExistsError and the store is untouched
        (this method never mutates; it returns the post-add graph only
        when validation passes). Replaces the reference's sequential
        add-then-rollback compensation loop (memory_store.go:137-157)
        with validate-then-commit.

        Physical plan, size-adaptive like every small-side op here:
        a Table/sequence batch (the common API call) broadcasts its
        composite (s,p,o) keys once (ray.put); in-batch duplicates are
        a local uniqueness check on that key array; store overlap is
        one streaming is_in pass over the graph (count aggregate, no
        exchange). A Dataset batch (bulk load) stays distributed:
        in-batch uniqueness via the bucketed global distinct count,
        overlap via one bucketed hash-join count — two exchanges, no
        driver materialization. On success the result is a plain
        union — validation proved disjointness and batch-uniqueness,
        so NO dedup exchange is needed (the G17 invariant is preserved
        by construction)."""
        self._check_usable()
        if isinstance(new, ray.data.Dataset):
            new_ds = new.materialize()
            n = new_ds.count()
            if n == 0:
                return DatasetGraphStore(self._uri, self._ds)
            if distinct_on(new_ds, tr.COLUMNS, num_buckets).count() < n:
                raise TripleAlreadyExistsError(
                    "Duplicate triple within checked batch add"
                )
            overlap = hash_join(
                self._ds, new_ds, on=tr.COLUMNS, num_buckets=num_buckets
            ).count()
            if overlap:
                raise TripleAlreadyExistsError(
                    f"{overlap} triple(s) already exist; batch add aborted"
                )
            return DatasetGraphStore(self._uri, self._ds.union(new_ds))

        new_tbl = new if isinstance(new, pa.Table) else tr.triples_to_table(new)
        if new_tbl.num_rows == 0:
            return DatasetGraphStore(self._uri, self._ds)
        keys = _composite_key(new_tbl)
        keys = keys.combine_chunks() if isinstance(keys, pa.ChunkedArray) else keys
        if len(keys.unique()) < len(keys):
            raise TripleAlreadyExistsError(
                "Duplicate triple within checked batch add"
            )
        keys_ref = ray.put(keys)

        def count_conflicts(batch: pa.Table, keys_ref=None) -> pa.Table:
            wanted = cached_get(_BCAST_CACHE, keys_ref)
            n = pc.sum(pc.is_in(_composite_key(batch), value_set=wanted)).as_py() or 0
            return pa.table({"n": pa.array([n], pa.int64())})

        conflicts = (
            self._ds.map_batches(
                count_conflicts, fn_kwargs={"keys_ref": keys_ref},
                batch_format="pyarrow",
            ).sum("n")
            or 0
        )
        if conflicts:
            raise TripleAlreadyExistsError(
                f"{conflicts} triple(s) already exist; batch add aborted"
            )
        return DatasetGraphStore(
            self._uri, self._ds.union(ray.data.from_arrow(new_tbl))
        )

    def delete_triples_checked(
        self, remove: "pa.Table | Sequence[Triple]"
    ) -> "DatasetGraphStore":
        """All-or-nothing distributed batch delete (G11): every triple
        must exist or TripleDoesNotExistError is raised and nothing is
        deleted (validate-then-commit replacing the reference's
        delete-then-restore loop, memory_store.go:193-213).

        Existence check: the remove keys are broadcast; each store
        batch emits the SUBSET of keys it matched (bounded by the
        remove set, not the batch), and a global distinct count equals
        the remove-key count iff every key exists. The delete itself
        is the same broadcast anti-join as the unchecked path."""
        self._check_usable()
        if not isinstance(remove, pa.Table):
            remove = tr.triples_to_table(remove)
        if remove.num_rows == 0:
            return DatasetGraphStore(self._uri, self._ds)
        keys = _composite_key(remove)
        keys = keys.combine_chunks() if isinstance(keys, pa.ChunkedArray) else keys
        keys = keys.unique()
        keys_ref = ray.put(keys)

        def matched_keys(batch: pa.Table, keys_ref=None) -> pa.Table:
            wanted = cached_get(_BCAST_CACHE, keys_ref)
            k = _composite_key(batch)
            if isinstance(k, pa.ChunkedArray):
                k = k.combine_chunks()
            hit = k.filter(pc.is_in(k, value_set=wanted))
            return pa.table({"key": hit.unique()})

        matched = self._ds.map_batches(
            matched_keys, fn_kwargs={"keys_ref": keys_ref}, batch_format="pyarrow"
        )
        n_matched = distinct_on(matched, ["key"], num_buckets=16).count()
        if n_matched < len(keys):
            raise TripleDoesNotExistError(
                f"{len(keys) - n_matched} triple(s) do not exist; batch delete aborted"
            )
        return self.delete_triples_unchecked(remove)

    # -- drop (G14) ----------------------------------------------------------

    def drop(self) -> None:
        """Clear the store and render it unusable (G14; reference
        memory_store.go:235-239). The durable counterpart — deleting
        output partitions and writing a tombstone manifest — lives in
        store.versioned.VersionedGraphStorage.drop."""
        self._uri = ""
        self._ds = None
        self._dropped = True

    def union(self, other: "DatasetGraphStore") -> "DatasetGraphStore":
        return DatasetGraphStore(self._uri, self._ds.union(other._ds))

    def deduped(self, num_buckets: int = DEDUP_BUCKETS_DEFAULT) -> "DatasetGraphStore":
        return DatasetGraphStore(
            self._uri, distinct_on(self._ds, tr.COLUMNS, num_buckets)
        )

    # -- sinks -------------------------------------------------------------

    def write_parquet(self, path: str, **kwargs) -> None:
        self._ds.write_parquet(path, **kwargs)

    def write_ntriples(self, path: str) -> None:
        write_ntriples(self._ds, path)

    def to_memory_store(self):
        """Materialize into the eager small-graph backend (driver-side;
        only for graphs known to be small)."""
        from .memory import MemoryGraphStore

        tbl = pa.Table.from_pylist(self._ds.take_all(), schema=tr.TRIPLE_SCHEMA)
        return MemoryGraphStore.from_table(self._uri, tbl)


def _composite_key(batch: pa.Table) -> pa.ChunkedArray:
    """(s,p,o) as ONE string key column — a vectorized join with an
    unambiguous separator, the Arrow-native composite membership key."""
    return pc.binary_join_element_wise(
        batch[tr.SUBJECT], batch[tr.PREDICATE], batch[tr.OBJECT], _SEP
    )


def _anti_join_batch(batch: pa.Table, keys_ref=None) -> pa.Table:
    """Drop rows whose (s,p,o) is in the broadcast key set — fully
    Arrow-native: the key set is a pyarrow string array read once per
    worker, the per-batch test is one composite-key build
    (binary_join_element_wise) + one is_in kernel. No per-row Python,
    no pandas conversion on the triple path."""
    if batch.num_rows == 0:
        return batch
    keys = cached_get(_BCAST_CACHE, keys_ref)
    return batch.filter(pc.invert(pc.is_in(_composite_key(batch), value_set=keys)))


# ---------------------------------------------------------------------------
# Distributed primitives (exported, reused by pipelines)
# ---------------------------------------------------------------------------


def bucket_ids(t: pa.Table, key_cols: list[str], num_buckets: int) -> pa.Array:
    """The routing rule of every hash-bucket exchange: each key column
    cast to string (so dictionary and large_string columns route by
    value, like plain strings), the columns joined with ``_SEP`` (nulls
    replaced by ``\\x00``, so a partially-null key still has a bucket),
    pandas' 64-bit hash of that key string, mod ``num_buckets``. Equal
    keys get equal buckets whatever the block's column types and
    whatever other keys share the block; skew only affects balance,
    never correctness. The hash is not ``categorize``d: pandas'
    factorize compares strings only up to their first ``\\x00``, so
    keys sharing the prefix before a null took the hash of whichever
    came first in the block."""
    parts = [pc.cast(t[c], pa.string()) for c in key_cols]
    key = pc.binary_join_element_wise(
        *parts, _SEP, null_handling="replace", null_replacement="\x00"
    )
    h = pd.util.hash_pandas_object(
        pd.Series(key.to_pandas(), dtype="object"), index=False, categorize=False
    )
    return pa.array((h.to_numpy() % num_buckets).astype("int64"))


_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64: the package's other
    routing hash (canonicalize's salted buckets) and the seeded mixer of
    the sampling and sketch stages. Bit-compatible with the SQL
    oracle's 32-bit-split modular-multiply formulation."""
    h = x.astype(np.uint64)
    h = (h + np.uint64(0x9E3779B97F4A7C15)) & _M64
    h ^= h >> np.uint64(30)
    h = (h * np.uint64(0xBF58476D1CE4E5B9)) & _M64
    h ^= h >> np.uint64(27)
    h = (h * np.uint64(0x94D049BB133111EB)) & _M64
    h ^= h >> np.uint64(31)
    return h


def distinct_on(
    ds: ray.data.Dataset, cols: list[str], num_buckets: int = DEDUP_BUCKETS_DEFAULT
) -> ray.data.Dataset:
    """Global exact distinct on a column list — G17's exact dedup is
    ``distinct_on(ds, triples.COLUMNS)``. One Arrow kernel is both the
    per-block combiner (a block with heavy duplication, e.g. per-mention
    rows of a few hundred distinct entities, contributes only its
    uniques to the exchange) and the per-bucket reduce of
    :func:`bucketed_group_map`."""

    def distinct(t: pa.Table) -> pa.Table:
        return t.select(cols).group_by(cols, use_threads=False).aggregate([])

    return bucketed_group_map(
        ds, cols, distinct, num_buckets, partial_fn=distinct, batch_format="pyarrow"
    )


def broadcast_join(
    big: ray.data.Dataset,
    small: pd.DataFrame,
    on,
    how: str = "inner",
) -> ray.data.Dataset:
    """Join a large Dataset against a SMALL pandas table without any
    shuffle: the small side is `ray.put` once and merged into every
    batch (fetched from the local object store and cached per worker).
    This is the physical plan for every small-dimension join (e.g.
    fact ⋈ dimension) — the big side streams untouched."""
    small_ref = ray.put(small)
    on = [on] if isinstance(on, str) else list(on)

    def merge(df: pd.DataFrame, small_ref=None) -> pd.DataFrame:
        return df.merge(cached_get(_BCAST_CACHE, small_ref), on=on, how=how)

    return big.map_batches(merge, fn_kwargs={"small_ref": small_ref}, batch_format="pandas")


def _arrow_type_of(typ) -> pa.DataType:
    """Normalize a Ray Schema entry (Arrow DataType or numpy dtype) to
    a concrete Arrow type; numpy object columns are strings in every
    internal caller. Dictionary columns are decoded to their value
    type so Acero key comparisons and the tagged union stay typed."""
    if isinstance(typ, pa.DataType):
        t = typ
    else:
        try:
            t = pa.from_numpy_dtype(typ)
        except (pa.ArrowNotImplementedError, TypeError, ValueError):
            t = pa.string()
    if pa.types.is_dictionary(t):
        t = t.value_type
    return t


def _unified_arrow_types(l_schema, r_schema) -> dict:
    """One Arrow type per column across both join sides (left wins on
    shared columns, i.e. the join keys) — both sides are cast to this
    so the tagged union has a single exact schema."""
    out = {}
    for schema in (r_schema, l_schema):
        for name, typ in zip(schema.names, schema.types):
            out[name] = _arrow_type_of(typ)
    return out


def _arrow_tag(all_cols, types, side_code: int):
    """Arrow-native tag stage shared by hash_join/asof_join: widen the
    batch to the unified schema with TYPED nulls (no pandas, no
    object-dtype columns crossing the exchange) and mark the side with
    an int8, so the exchange moves compact typed columns."""

    def fn(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {}
        for c in all_cols:
            if c in t.column_names:
                arr = t[c]
                if arr.type != types[c]:
                    arr = pc.cast(arr, types[c])
            else:
                arr = pa.nulls(n, type=types[c])
            cols[c] = arr
        cols["__side"] = pa.array(np.full(n, side_code, dtype="int8"))
        return pa.table(cols)

    return fn


_ACERO_JOIN_TYPE = {
    "inner": "inner",
    "left": "left outer",
    "right": "right outer",
    "outer": "full outer",
    # NOT EXISTS / EXISTS: output is the LEFT columns only; null-key
    # left rows match nothing (kept by anti, dropped by semi) — exactly
    # SQL's NOT EXISTS, not the NOT IN null trap
    "anti": "left anti",
    "semi": "left semi",
}


def hash_join_schema(l_schema, r_schema, on, how: str = "inner"):
    """Output schema of :func:`hash_join` for the given input schemas —
    lets callers chain joins without ever probing ``Dataset.schema()``
    (which EXECUTES a shuffle-rooted plan once per probe and caches
    nothing; see the ``schemas=`` note on hash_join)."""
    on = [on] if isinstance(on, str) else list(on)
    types = _unified_arrow_types(l_schema, r_schema)
    l_cols, r_cols = l_schema.names, r_schema.names
    all_cols = l_cols + [c for c in r_cols if c not in l_cols]
    out_cols = l_cols if how in ("anti", "semi") else all_cols
    return pa.schema([(c, types[c]) for c in out_cols])


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on,
    how: str = "inner",
    num_buckets: int = DEDUP_BUCKETS_DEFAULT,
    schemas=None,
) -> ray.data.Dataset:
    """Distributed hash equi-join: both sides are tagged and co-grouped
    on the key by ONE :func:`bucketed_group_map` exchange, then merged
    per bucket with Arrow's native hash join (Acero ``Table.join``).
    Rows with equal keys land in the same bucket by construction
    (partially-null composite keys still get a bucket, so outer joins
    keep those rows), so the per-bucket join is the global join. Acero
    follows SQL NULL semantics (NULL keys never match; outer
    sides keep their unmatched rows), so no pandas NaN-matching
    workaround is needed. The whole path is Arrow-native — typed null
    widening, int8 side tag — so the exchange ships compact typed
    buffers, not object-dtype pickles. Use when BOTH sides are large;
    for a small right side prefer :func:`broadcast_join` (no shuffle
    at all).

    ``schemas=(l_schema, r_schema)``: pass the input Arrow schemas
    when you know them. Without it this function calls
    ``Dataset.schema()`` on both sides, and on a lazy shuffle-rooted
    input that EXECUTES the plan once per probe purely to learn the
    schema — measured ~1 extra full execution per side, uncached. For
    chained joins derive the intermediate schema with
    :func:`hash_join_schema`."""
    on = [on] if isinstance(on, str) else list(on)
    if schemas is not None:
        l_schema, r_schema = schemas
    else:
        l_schema, r_schema = left.schema(), right.schema()
    l_cols, r_cols = l_schema.names, r_schema.names
    overlap = [c for c in l_cols if c in r_cols and c not in on]
    if overlap:
        # Acero silently coalesces duplicate output names — refuse
        raise ValueError(f"non-key columns appear on both sides: {overlap}")
    all_cols = l_cols + [c for c in r_cols if c not in l_cols]
    types = _unified_arrow_types(l_schema, r_schema)
    join_type = _ACERO_JOIN_TYPE[how]
    out_cols = l_cols if how in ("anti", "semi") else all_cols

    sides = [
        side.map_batches(_arrow_tag(all_cols, types, code), batch_format="pyarrow")
        for code, side in enumerate((left, right))
    ]

    l_schema_pa = pa.schema([(c, types[c]) for c in l_cols])
    r_schema_pa = pa.schema([(c, types[c]) for c in r_cols])

    def merge_bucket(t: pa.Table) -> pa.Table:
        side = t["__side"]
        # re-assert the unified types: the exchange may normalize
        # blocks through pandas, which turns an all-null typed column
        # into Arrow `null` — a type Acero refuses in join fields
        lhs = t.filter(pc.equal(side, 0)).select(l_cols).cast(l_schema_pa)
        rhs = t.filter(pc.equal(side, 1)).select(r_cols).cast(r_schema_pa)
        return lhs.join(rhs, keys=on, join_type=join_type).select(out_cols)

    return bucketed_group_map(
        sides, on, merge_bucket, num_buckets, batch_format="pyarrow"
    )


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key,
    time_col: str,
    num_buckets: int = DEDUP_BUCKETS_DEFAULT,
) -> ray.data.Dataset:
    """Distributed backward as-of join (a custom operator Ray Data
    lacks): for every left row, the right row with the greatest
    ``time_col`` ≤ the left row's, within the same ``key``. Inner
    semantics (left rows with no earlier right row are dropped),
    matching SQL ``ASOF JOIN``.

    Physical plan: tag + widen both sides to one schema, hash-bucket
    on the KEY only (so all rows of a key co-locate regardless of
    time), one exchange, then a per-bucket vectorized
    ``pandas.merge_asof`` over the time-sorted sides. Partitioning
    assumption: a single key's rows fit in one bucket's memory — salt
    hot keys upstream if not."""
    key = [key] if isinstance(key, str) else list(key)
    l_schema, r_schema = left.schema(), right.schema()
    l_cols, r_cols = l_schema.names, r_schema.names
    all_cols = l_cols + [c for c in r_cols if c not in l_cols]
    types = _unified_arrow_types(l_schema, r_schema)
    out_cols = (
        l_cols
        + [f"{time_col}_right"]
        + [c for c in r_cols if c not in key and c != time_col]
    )

    sides = [
        side.map_batches(_arrow_tag(all_cols, types, code), batch_format="pyarrow")
        for code, side in enumerate((left, right))
    ]

    # typed empty result so every bucket's output block has one schema
    _empty = pa.table(
        {
            c: pa.nulls(0, type=types[time_col if c == f"{time_col}_right" else c])
            for c in out_cols
        }
    )

    _l_schema_pa = pa.schema([(c, types[c]) for c in l_cols])
    _r_schema_pa = pa.schema([(c, types[c]) for c in r_cols])

    def merge_bucket(t: pa.Table) -> pd.DataFrame:
        # split sides and select in Arrow FIRST — the per-side pandas
        # frames then carry native dtypes (no object widening to undo);
        # the cast re-asserts unified types against the exchange's
        # pandas normalization of all-null columns (→ Arrow `null`)
        side = t["__side"]
        lhs = t.filter(pc.equal(side, 0)).select(l_cols).cast(_l_schema_pa)
        rhs = t.filter(pc.equal(side, 1)).select(r_cols).cast(_r_schema_pa)
        if not lhs.num_rows or not rhs.num_rows:
            return _empty.to_pandas()
        ldf = lhs.to_pandas().sort_values(time_col, kind="stable")
        rdf = (
            rhs.to_pandas()
            .sort_values(time_col, kind="stable")
            .rename(columns={time_col: f"{time_col}_right"})
        )
        out = pd.merge_asof(
            ldf,
            rdf,
            left_on=time_col,
            right_on=f"{time_col}_right",
            by=key,
            direction="backward",
        )
        # inner semantics: drop left rows with no earlier right row
        return out[out[f"{time_col}_right"].notna()]

    return bucketed_group_map(
        sides, key, merge_bucket, num_buckets, batch_format="pyarrow"
    )


def bucketed_group_map(
    ds: "ray.data.Dataset | list[ray.data.Dataset]",
    key_cols: list[str],
    fn,
    num_buckets: int = DEDUP_BUCKETS_DEFAULT,
    partial_fn=None,
    batch_format: str = "pandas",
) -> ray.data.Dataset:
    """The engine's one hash-bucket exchange: optional per-block
    combiner ``partial_fn`` → a ``__bucket`` column from the routing
    rule (:func:`bucket_ids` on ``key_cols``, added in Arrow, so any
    block type enters the exchange as Arrow) → ONE exchange keyed on
    that small int → ``fn`` once per BUCKET, with every row of a key
    co-located and ``__bucket`` already stripped. ``partial_fn`` and
    ``fn`` take and return ``batch_format`` batches ("pandas" or
    "pyarrow"). A list of Datasets is a co-group (join sides, tagged
    graph frames): each input is routed on its own, so the bucket step
    fuses into that input's last map instead of running as one more
    operator after their union.

    This replaces ``ds.groupby(keys).aggregate(...)`` / ``map_groups``
    for keys with many distinct values: Ray's named aggregates and
    per-group UDFs pay Python-level cost per GROUP (~100k groups →
    minutes), while this pattern pays one vectorized call per bucket.
    Distinct, joins, the ontology pivot and the graph fixpoints all
    reduce through it."""

    def add_bucket(t: pa.Table) -> pa.Table:
        # without the pandas metadata a pandas-born block carries, so
        # the exchange's schema unify can dedup the block schemas
        return t.replace_schema_metadata().append_column(
            "__bucket", bucket_ids(t, key_cols, num_buckets)
        )

    def routed(d: ray.data.Dataset) -> ray.data.Dataset:
        if partial_fn is not None:
            d = d.map_batches(partial_fn, batch_format=batch_format)
        return d.map_batches(add_bucket, batch_format="pyarrow")

    def per_bucket(batch):
        if batch_format == "pandas":
            return fn(batch.drop(columns=["__bucket"]))
        return fn(batch.drop_columns(["__bucket"]))

    parts = [routed(d) for d in (ds if isinstance(ds, list) else [ds])]
    routed_ds = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    return routed_ds.groupby("__bucket").map_groups(
        per_bucket, batch_format=batch_format
    )


def top_k_per_group(
    ds: ray.data.Dataset,
    key_cols: list[str],
    order_cols: list[str],
    ascending: "bool | list[bool]" = False,
    k: int = 3,
    rank_col: Optional[str] = None,
    num_buckets: int = DEDUP_BUCKETS_DEFAULT,
) -> ray.data.Dataset:
    """Top-k rows per group (sort + limit within key), distributed.

    Physical plan: per-block top-k (a valid combiner — the global
    top-k of a group is a subset of the union of per-block top-ks),
    then ONE hash-bucket exchange on the key and a final per-bucket
    top-k. The exchange carries at most k rows per (group, block) —
    never the full input. ``rank_col`` (optional) adds a 1-based
    dense ordinal within the group, matching SQL ``row_number()``.
    Include a unique tie-break column in ``order_cols`` for a
    deterministic result."""

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(order_cols, ascending=ascending, kind="stable")
        return df.groupby(key_cols, sort=False).head(k)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(order_cols, ascending=ascending, kind="stable")
        out = df.groupby(key_cols, sort=False).head(k)
        if rank_col is not None:
            out = out.copy()
            out[rank_col] = (
                out.groupby(key_cols, sort=False).cumcount() + 1
            ).astype("int64")
        return out

    return bucketed_group_map(
        ds, key_cols, final, num_buckets=num_buckets, partial_fn=local_topk
    )


def grouped_quantiles(
    ds: ray.data.Dataset,
    key_cols: list[str],
    value_col: str,
    qs: "dict[str, float]",
    num_buckets: int = DEDUP_BUCKETS_DEFAULT,
) -> ray.data.Dataset:
    """Exact per-group DISCRETE quantiles (the element at sorted
    position ``ceil(q·n)−1`` — SQL ``quantile_disc`` semantics, so the
    result is always a stored value, never an interpolated float).

    ``qs`` maps output column name → quantile, e.g.
    ``{"p50": 0.5, "p90": 0.9}``. Output: key columns + ``n`` + one
    column per quantile.

    Physical plan: one hash-bucket exchange on the key (all rows of a
    group co-located), then a fully VECTORIZED per-bucket pass — one
    sort, group sizes via cumsum, and positional takes; no per-group
    Python. Quantiles cannot be pre-aggregated per block (a quantile
    of quantiles is not the quantile), so unlike sums there is no
    combiner; the exchange carries raw (key, value) rows — select only
    those columns upstream."""
    import numpy as np

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            cols = {c: df[c] for c in key_cols}
            cols["n"] = pd.Series(dtype="int64")
            for name in qs:
                cols[name] = pd.Series(dtype=df[value_col].dtype)
            return pd.DataFrame(cols)
        df = df.sort_values([*key_cols, value_col], kind="stable")
        sizes = df.groupby(key_cols, sort=False).size().to_numpy()
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        out = {c: df[c].to_numpy()[starts] for c in key_cols}
        out["n"] = sizes.astype("int64")
        vals = df[value_col].to_numpy()
        for name, q in qs.items():
            idx = starts + np.maximum(0, np.ceil(q * sizes).astype("int64") - 1)
            out[name] = vals[idx]
        return pd.DataFrame(out)

    return bucketed_group_map(
        ds.select_columns([*key_cols, value_col]),
        key_cols,
        per_bucket,
        num_buckets=num_buckets,
    )


def write_ntriples(ds: ray.data.Dataset, path: str) -> None:
    """Sink: partitioned N-Triples files, one per block (resumable
    layout — a directory of part files, like write_parquet). Formatting
    is a vectorized string join (G15; per-triple line shape matches the
    reference's TTL payload rendering, blazegraph_store.go:165,187)."""
    from ray.data.block import BlockAccessor
    from ray.data.datasource import BlockBasedFileDatasink

    class NTriplesDatasink(BlockBasedFileDatasink):
        def __init__(self, p):
            super().__init__(p, file_format="nt")

        def write_block_to_file(self, block: BlockAccessor, file) -> None:
            tbl = block.to_arrow()
            for i, f in enumerate(tbl.schema):
                # accept dictionary-encoded triple blocks (the KG
                # pipeline's compact representation) — the join kernel
                # needs flat strings
                if pa.types.is_dictionary(f.type):
                    tbl = tbl.set_column(i, f.name, pc.cast(tbl.column(i), pa.string()))
            lines = pc.binary_join_element_wise(
                tbl[tr.SUBJECT], tbl[tr.PREDICATE], tbl[tr.OBJECT], " "
            )
            lines = pc.binary_join_element_wise(lines, pa.scalar(" .\n"), "")
            data = "".join(lines.to_pylist())
            file.write(data.encode("utf-8"))

    ds.write_datasink(NTriplesDatasink(path))


def table_diff(
    old: "ray.data.Dataset",
    new: "ray.data.Dataset",
    key_cols: list[str],
    num_buckets: int = DEDUP_BUCKETS_DEFAULT,
) -> "ray.data.Dataset":
    """Snapshot diff: compare two versions of a keyed table →
    ``(keys..., change)`` rows with change ∈ {added, removed, changed}
    (value-identical rows are omitted). The data-versioning staple —
    what changed between two crawl/ingest snapshots — without ever
    materializing either side: both snapshots are tagged, bag-unioned
    and co-located by ONE key-bucketed exchange; the per-bucket
    compare serializes non-key columns to a canonical string tuple
    (column order fixed by sorted name) so any schema-shared column
    set diffs consistently. Keys must be unique per side (duplicate
    keys raise — a diff over a multiset key is ambiguous)."""
    import pandas as pd

    old_cols = {f.name for f in old.schema().base_schema}
    new_cols = {f.name for f in new.schema().base_schema}
    if old_cols != new_cols:
        raise ValueError(
            f"snapshot schemas differ: {sorted(old_cols ^ new_cols)}"
        )
    missing = [k for k in key_cols if k not in old_cols]
    if missing:
        raise ValueError(f"key columns absent: {missing}")
    val_cols = sorted(old_cols - set(key_cols))

    def tag(side: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            out = df.copy()
            out["__side"] = side
            return out

        return fn

    both = old.map_batches(tag(0), batch_format="pandas").union(
        new.map_batches(tag(1), batch_format="pandas")
    )

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=key_cols + ["change"])
        if df.duplicated(subset=key_cols + ["__side"]).any():
            raise ValueError("duplicate keys within one snapshot side")
        sig = pd.Series([""] * len(df), index=df.index)
        for c in val_cols:
            sig = sig + "\x1f" + df[c].astype(str)
        w = pd.DataFrame(
            {"side": df["__side"].to_numpy(), "sig": sig.to_numpy()},
            index=pd.MultiIndex.from_frame(df[key_cols]),
        )
        piv = w.pivot_table(
            index=w.index, columns="side", values="sig", aggfunc="first"
        )
        piv = piv.reindex(columns=[0, 1])
        o, n = piv[0], piv[1]
        change = pd.Series(pd.NA, index=piv.index, dtype="object")
        change[o.isna() & n.notna()] = "added"
        change[o.notna() & n.isna()] = "removed"
        change[o.notna() & n.notna() & (o != n)] = "changed"
        keep = change.notna()
        keys = pd.DataFrame(
            [k if isinstance(k, tuple) else (k,) for k in piv.index[keep]],
            columns=key_cols,
        )
        keys["change"] = change[keep].to_numpy()
        return keys

    return bucketed_group_map(both, key_cols, per_bucket, num_buckets=num_buckets)


def unpivot(
    ds: "ray.data.Dataset",
    id_cols: list[str],
    value_cols: list[str],
    var_col: str = "metric",
    value_col: str = "value",
) -> "ray.data.Dataset":
    """UNPIVOT / melt (the inverse reshape of :func:`crosstab_counts`):
    wide ``(ids..., v1, v2, ...)`` rows become long ``(ids..., metric,
    value)`` rows — one output row per (input row, value column), with
    ``metric`` the column's name. The long form is what per-metric
    groupbys, window ops and exporters consume. Values are cast to
    float64 (the common SQL UNPIVOT supertype for numeric columns) —
    pure copies, no arithmetic, so the gate stays exact.

    Pure per-batch reshape: one Arrow projection per value column
    concatenated — streaming, no exchange, no Python per row."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def melt(batch: pa.Table) -> pa.Table:
        parts = []
        for c in value_cols:
            cols = {k: batch[k] for k in id_cols}
            cols[var_col] = pa.array([c] * batch.num_rows, pa.string())
            cols[value_col] = pc.cast(batch[c], pa.float64())
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.select_columns(list(dict.fromkeys(id_cols + value_cols))).map_batches(
        melt, batch_format="pyarrow"
    )


def crosstab_counts(
    ds: ray.data.Dataset,
    row_col: str,
    col_col: str,
    categories: list[str],
    prefix: str = "n_",
    num_buckets: int = DEDUP_BUCKETS_DEFAULT,
) -> ray.data.Dataset:
    """Distributed crosstab (pivot-count): one output row per distinct
    ``row_col`` value with a ``{prefix}{category}`` count column per
    listed ``col_col`` category. The per-block combiner pivots each
    block down to ≤ one row per distinct key before the bucketed
    exchange, so the shuffle ships pre-aggregated counts — the same
    shape as every high-cardinality aggregate here. ``categories`` is
    an explicit list so the output schema is static and
    layout-independent (values outside it are ignored; a dynamic
    column set would make the schema depend on which blocks were
    seen)."""
    cols = [f"{prefix}{c}" for c in categories]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=[row_col] + cols)
        piv = (
            df.groupby([row_col, col_col], sort=False)
            .size()
            .unstack(fill_value=0)
        )
        piv = piv.reindex(columns=categories, fill_value=0)
        piv.columns = cols
        return piv.reset_index()

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(row_col, sort=False)[cols].sum().reset_index()
        out[cols] = out[cols].astype("int64")
        return out

    return bucketed_group_map(
        ds.select_columns([row_col, col_col]),
        [row_col],
        final,
        num_buckets=num_buckets,
        partial_fn=partial,
    )


def interval_overlap_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    band_us: int,
    start_col: str = "start_us",
    end_col: str = "end_us",
    suffixes: tuple = ("_l", "_r"),
    num_buckets: int = DEDUP_BUCKETS_DEFAULT,
) -> ray.data.Dataset:
    """Banded interval-overlap join: every (L, R) row pair whose closed
    intervals intersect (``L.start <= R.end AND R.start <= L.end``),
    with NO all-pairs stage. Both sides must share one schema
    (id columns + ``start_col`` + ``end_col``, int64); every output
    column appears twice with ``suffixes``.

    Physical plan: each interval is replicated to the time cells
    ``start//band .. end//band`` it touches (a vectorized repeat), the
    cells are hash-bucket exchanged ONCE, and each cell cross-joins
    only its residents. A pair alive in several shared cells is
    emitted exactly once — by the cell holding ``max(starts)`` (the
    first cell where both are alive; the standard banded-join dedup,
    no post-exchange distinct needed). ``band_us`` trades replication
    (long intervals touch many cells) against per-cell fan-in — pick
    it near the typical interval length. Partitioning assumption: the
    intervals alive in one cell fit a worker (bounded concurrency).
    For a self-join pass the same Dataset twice and filter the output
    on an id ordering (e.g. ``id_l < id_r``) to keep unordered pairs
    once."""

    def explode(side: str):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            if not len(df):
                out = df.copy()
                out["__cell"] = pd.Series(dtype="int64")
                out["__side"] = pd.Series(dtype="object")
                return out
            s = df[start_col].to_numpy(np.int64)
            e = df[end_col].to_numpy(np.int64)
            c0, c1 = s // band_us, e // band_us
            counts = (c1 - c0 + 1).astype(np.int64)
            idx = np.repeat(np.arange(len(df)), counts)
            first = np.repeat(
                np.concatenate(([0], np.cumsum(counts)[:-1])), counts
            )
            cells = np.repeat(c0, counts) + (
                np.arange(idx.size, dtype=np.int64) - first
            )
            out = df.iloc[idx].reset_index(drop=True)
            out["__cell"] = cells
            out["__side"] = side
            return out

        return f

    both = left.map_batches(explode("l"), batch_format="pandas").union(
        right.map_batches(explode("r"), batch_format="pandas")
    )
    sl, sr = suffixes
    ls, le = start_col + sl, end_col + sl
    rs, re_ = start_col + sr, end_col + sr

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        lhs = df[df["__side"] == "l"].drop(columns="__side")
        rhs = df[df["__side"] == "r"].drop(columns="__side")
        lhs = lhs.rename(
            columns={c: c + sl for c in lhs.columns if c != "__cell"}
        )
        rhs = rhs.rename(
            columns={c: c + sr for c in rhs.columns if c != "__cell"}
        )
        m = lhs.merge(rhs, on="__cell")
        if not len(m):
            return m.drop(columns="__cell")
        keep = (
            (m[ls] <= m[re_])
            & (m[rs] <= m[le])
            & (np.maximum(m[ls], m[rs]) // band_us == m["__cell"])
        )
        return m.loc[keep].drop(columns="__cell")

    return bucketed_group_map(both, ["__cell"], per_bucket, num_buckets)


def grouping_sets_count(
    ds: ray.data.Dataset,
    sets: "list[list[str]]",
    num_buckets: int = DEDUP_BUCKETS_DEFAULT,
) -> ray.data.Dataset:
    """OLAP ``GROUP BY GROUPING SETS`` counts in ONE input pass: the
    per-block combiner emits a partial count row per (grouping set,
    key) — every set's partials come from the same block scan, so N
    sets do NOT cost N scans — then one bucketed exchange keyed on the
    set id + key columns sums the partials. Columns absent from a
    row's set are NULL, matching the SQL semantics. ``sets`` must be
    distinct (two identical sets would double-count, exactly as in
    SQL); the empty set ``[]`` is the grand total. Output: the union
    of all key columns (in first-appearance order) plus ``n``."""
    seen = set()
    all_cols: list[str] = []
    for s in sets:
        key = tuple(s)
        if key in seen:
            raise ValueError(f"duplicate grouping set {s!r}")
        seen.add(key)
        for c in s:
            if c not in all_cols:
                all_cols.append(c)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        parts = []
        for gi, s in enumerate(sets):
            if not len(df):
                continue
            if s:
                g = (
                    df.groupby(list(s), sort=False, dropna=False)
                    .size()
                    .rename("n")
                    .reset_index()
                )
            else:
                g = pd.DataFrame({"n": [len(df)]})
            for c in all_cols:
                if c not in g.columns:
                    g[c] = None
            g["__gset"] = gi
            parts.append(g[["__gset"] + all_cols + ["n"]])
        if not parts:
            return pd.DataFrame(columns=["__gset"] + all_cols + ["n"])
        return pd.concat(parts, ignore_index=True)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.groupby(["__gset"] + all_cols, sort=False, dropna=False)["n"]
            .sum()
            .reset_index()
        )
        out["n"] = out["n"].astype("int64")
        out = out.drop(columns="__gset")
        # groupby's index turns None keys into NaN — restore true
        # nulls so the Arrow conversion emits SQL-comparable NULLs
        for c in all_cols:
            col = out[c].astype(object)
            out[c] = col.where(pd.notna(col), None)
        return out

    return bucketed_group_map(
        ds.select_columns(all_cols),
        ["__gset"] + all_cols,
        final,
        num_buckets=num_buckets,
        partial_fn=partial,
    )


def constraint_report(
    ds: "ray.data.Dataset",
    unique: "list[str] | None" = None,
    not_null: "list[str] | None" = None,
    foreign_keys: "list[tuple[str, ray.data.Dataset, str]] | None" = None,
    num_buckets: int = DEDUP_BUCKETS_DEFAULT,
) -> "ray.data.Dataset":
    """Data-quality constraint audit (the Deequ/dbt-tests shape):
    evaluate declared UNIQUE / NOT NULL / FOREIGN KEY rules over a
    table → one ``(rule, violations)`` row per rule (0 = holds). The
    ingest gate a continuous pipeline runs before promoting a
    snapshot.

    Physical plans per rule kind: NOT NULL = per-block null counts
    summed (no exchange); UNIQUE = per-block (key, n) combiner → one
    key-bucketed exchange summing n and counting keys with n > 1
    (violations = extra occurrences, n − 1 summed); FOREIGN KEY = the
    referenced side's distinct keys through ONE bucketed anti-join,
    violations = orphan rows. Nothing materializes on the driver but
    the per-rule counters."""
    import pandas as pd

    rules: list[tuple[str, int]] = []

    for col in not_null or []:
        def nn(batch, col=col):
            import pyarrow as _pa

            return _pa.table(
                {"v": _pa.array([int(batch[col].null_count)], _pa.int64())}
            )

        total = sum(
            r["v"]
            for r in ds.select_columns([col])
            .map_batches(nn, batch_format="pyarrow")
            .take_all()
        )
        rules.append((f"not_null:{col}", int(total)))

    for col in unique or []:
        def partial(df, col=col):
            if not len(df):
                return pd.DataFrame(columns=[col, "n"])
            return df.groupby(col, sort=False).size().rename("n").reset_index()

        def per_bucket(df, col=col):
            if not len(df):
                return pd.DataFrame({"v": pd.Series(dtype="int64")})
            s = df.groupby(col, sort=False)["n"].sum()
            extra = int((s[s > 1] - 1).sum())
            return pd.DataFrame({"v": pd.Series([extra], dtype="int64")})

        total = sum(
            r["v"]
            for r in bucketed_group_map(
                ds.select_columns([col]), [col], per_bucket,
                num_buckets=num_buckets, partial_fn=partial,
            ).take_all()
        )
        rules.append((f"unique:{col}", int(total)))

    for col, dim, dim_key in foreign_keys or []:
        keys = distinct_on(
            _proj_renamed(dim, dim_key, col), [col]
        )

        def drop_nulls(df, col=col):
            return df[df[col].notna()]

        # SQL FK semantics: NULL references don't violate (they're the
        # NOT NULL rule's business)
        probe = ds.select_columns([col]).map_batches(
            drop_nulls, batch_format="pandas"
        )
        orphans = hash_join(probe, keys, on=[col], how="anti").count()
        rules.append((f"fk:{col}", int(orphans)))

    import pandas as pd

    out = pd.DataFrame(rules, columns=["rule", "violations"])
    out["violations"] = out["violations"].astype("int64")
    return ray.data.from_pandas(out)


def _proj_renamed(ds: "ray.data.Dataset", src: str, dst: str) -> "ray.data.Dataset":
    if src == dst:
        return ds.select_columns([src])

    def rn(df):
        return df[[src]].rename(columns={src: dst})

    return ds.map_batches(rn, batch_format="pandas")
