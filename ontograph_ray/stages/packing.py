"""Sequence packing for training-data export: concatenate documents in
a deterministic global order (ascending ``doc_id``) and split the
token stream into fixed-size windows; each document is assigned to the
window its first token lands in (the "concat-and-chunk" layout used
for LM pre-training shards).

The core is a DISTRIBUTED PREFIX SUM — the textbook two-pass scan,
with no global sort and exactly one bucketed exchange:

1. range-bucket each doc by ``doc_id // bucket_width`` (the id is the
   sort key, so range buckets ARE the order — no sort needed);
2. per-bucket token sums via a map-side partial (a tiny table, one row
   per bucket per block) gathered to the driver; the driver computes
   the running offset of every bucket — O(#buckets) work on O(#buckets)
   data, broadcast back with ``ray.put``;
3. one ``groupby(bucket).map_groups`` orders each bucket internally
   (a bucket is small by construction) and adds its broadcast base
   offset to the local cumulative sum.

Partitioning assumption (documented contract): ``doc_id`` is an
orderable integer key and ``bucket_width`` keeps each bucket
worker-sized (default 2^20 ids per bucket → #buckets = id-range/2^20;
the driver-side offset table is one int per bucket, fine up to 10^12
docs).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..bcast import cached_get

_OFFSET_CACHE: dict = {}


def _tokens_batch(batch: pa.Table, bucket_width: int) -> pa.Table:
    n_tokens = pc.cast(
        pc.list_value_length(pc.split_pattern(batch["text"], " ")), pa.int64()
    )
    bucket = (batch["doc_id"].to_numpy() // bucket_width).astype(np.int64)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": n_tokens,
            "__bucket": pa.array(bucket, pa.int64()),
        }
    )


def _bucket_partials(batch: pa.Table) -> pa.Table:
    df = batch.select(["__bucket", "n_tokens"]).to_pandas()
    g = df.groupby("__bucket", sort=False)["n_tokens"].sum().reset_index()
    return pa.Table.from_pandas(g, preserve_index=False)


def _assign_group(df: pd.DataFrame, offsets_ref=None, window: int = 2048) -> pd.DataFrame:
    offsets = cached_get(_OFFSET_CACHE, offsets_ref)
    df = df.sort_values("doc_id", kind="stable")
    base = offsets.get(int(df["__bucket"].iloc[0]), 0)
    n = df["n_tokens"].to_numpy(dtype=np.int64)
    cum_before = base + np.cumsum(n) - n
    return pd.DataFrame(
        {
            "doc_id": df["doc_id"].to_numpy(),
            "n_tokens": n,
            "seq_id": cum_before // window,
            "offset": cum_before % window,
        }
    )


def pack_sequences(
    docs: ray.data.Dataset,
    window: int = 2048,
    bucket_width: int = 1 << 20,
) -> ray.data.Dataset:
    """(doc_id, n_tokens, seq_id, offset): the packed-window id and
    in-window start position of every document under concat-and-chunk
    packing in ascending doc_id order."""
    # Consumed twice (partial sums + assignment), so pin it — but note
    # the pinned table is 3 int64 columns (text is dropped in
    # _tokens_batch): ~24 bytes/doc, metadata-sized next to the corpus,
    # and cheaper than a second full-corpus tokenize pass.
    toks = docs.map_batches(
        _tokens_batch, fn_kwargs={"bucket_width": bucket_width}, batch_format="pyarrow"
    ).materialize()

    partial_rows = toks.map_batches(_bucket_partials, batch_format="pyarrow").take_all()
    sums: dict[int, int] = {}
    for r in partial_rows:
        b = int(r["__bucket"])
        sums[b] = sums.get(b, 0) + int(r["n_tokens"])
    running, offsets = 0, {}
    for b in sorted(sums):
        offsets[b] = running
        running += sums[b]
    offsets_ref = ray.put(offsets)

    return toks.groupby("__bucket").map_groups(
        _assign_group,
        fn_kwargs={"offsets_ref": offsets_ref, "window": window},
        batch_format="pandas",
    )


def chunk_documents(
    ds: ray.data.Dataset,
    window: int = 64,
    stride: int = 48,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """RAG-style sliding-window chunking: each document's whitespace
    tokens are cut into ``window``-token chunks every ``stride`` tokens
    (overlap = window − stride). Purely per-document — one streaming
    ``map_batches`` flat expansion, no exchange, embarrassingly
    parallel at any scale. Chunk ``i`` covers tokens
    ``[i·stride, min(i·stride+window, n))``; a document emits
    ``ceil(n/stride)`` chunks (the short tail is kept, so every token
    is in ≥1 chunk). Output (doc_id, chunk_id, n_tokens, chunk_text).

    Tokens are ``text.split(' ')`` — the same single-space convention
    as token_stats / vocab_coverage, so the SQL twin's
    ``string_split(text, ' ')`` is exact."""
    if not (0 < stride <= window):
        raise ValueError("need 0 < stride <= window")

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    id_col: pd.Series(dtype="int64"),
                    "chunk_id": pd.Series(dtype="int64"),
                    "n_tokens": pd.Series(dtype="int64"),
                    "chunk_text": pd.Series(dtype="object"),
                }
            )
        toks = df[text_col].str.split(" ")
        lens = toks.str.len().to_numpy(dtype=np.int64)
        n_chunks = (lens + stride - 1) // stride
        n_chunks = np.maximum(n_chunks, 1)
        doc_idx = np.repeat(np.arange(len(df)), n_chunks)
        # chunk index within its doc: arange minus each row's start
        starts = np.repeat(
            np.concatenate(([0], np.cumsum(n_chunks)[:-1])), n_chunks
        )
        chunk_id = np.arange(len(doc_idx), dtype=np.int64) - starts
        tok_lists = toks.to_numpy()
        texts = [
            " ".join(tok_lists[d][c * stride : c * stride + window])
            for d, c in zip(doc_idx, chunk_id)
        ]
        n_tok = np.minimum(
            lens[doc_idx] - chunk_id * stride, window
        ).astype(np.int64)
        return pd.DataFrame(
            {
                id_col: df[id_col].to_numpy()[doc_idx],
                "chunk_id": chunk_id,
                "n_tokens": n_tok,
                "chunk_text": texts,
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        expand, batch_format="pandas"
    )
