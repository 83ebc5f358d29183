"""Benchmark/test-set decontamination for training corpora.

The training-data staple: before training, drop (or flag) every
training document that shares a token n-gram with a held-out
benchmark/test set, so evaluation is not contaminated by memorized
test items (the n-gram-overlap rule used by the GPT-3/C4/Pile
cleanups).

Scale shape: the BENCHMARK side is small by definition (test sets are
10³-10⁵ docs — the partitioning assumption, documented on
``benchmark_ngrams``), so its distinct n-gram set is gathered once and
broadcast via ``ray.put``; the TRAINING corpus streams through one
``map_batches`` whose kernel is fully vectorized Arrow/numpy — one
tokenize per batch, n-gram strings built from n shifted slices of the
flattened token array (no per-row Python), one ``is_in`` membership
pass against the broadcast set, and a ``bincount`` segment-reduce back
to per-doc hit counts. No shuffle at all on the corpus side.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..bcast import cached_get

# per-worker cache of the broadcast n-gram value set
_NGRAM_SET_CACHE: dict = {}


def _batch_ngrams(text_col, n: int):
    """Vectorized token n-grams for a whole batch: returns
    (ngram_strings, window_start_doc_index, valid_mask, tokens_per_doc).
    Windows that straddle a document boundary are masked out rather
    than special-cased — the flat token array is sliced n times and
    joined element-wise, one Arrow kernel per shift."""
    if isinstance(text_col, pa.ChunkedArray):
        text_col = text_col.combine_chunks()
    toks = pc.split_pattern(text_col, " ")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    total = len(flat)
    n_wins = total - n + 1
    if n_wins <= 0:
        return None, None, None, counts
    parts = [flat.slice(j, n_wins) for j in range(n)]
    ngrams = pc.binary_join_element_wise(*parts, " ")
    doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    valid = doc_idx[:n_wins] == doc_idx[n - 1 :]
    return ngrams, doc_idx[:n_wins], valid, counts


def benchmark_ngrams(bench_ds: ray.data.Dataset, n: int = 4) -> pa.Array:
    """Distinct token n-grams of the benchmark set, gathered to the
    driver. Partitioning assumption (documented contract): the
    BENCHMARK is test-set-sized — its distinct n-gram set fits in
    driver/worker memory. The corpus side never gathers."""
    def per_block(batch: pa.Table) -> pa.Table:
        ngrams, _, valid, _ = _batch_ngrams(batch["text"], n)
        if ngrams is None:
            return pa.table({"ng": pa.array([], pa.string())})
        return pa.table({"ng": ngrams.filter(pa.array(valid)).unique()})

    rows = bench_ds.map_batches(per_block, batch_format="pyarrow").take_all()
    return pa.array(sorted({r["ng"] for r in rows}), pa.string())


def _contamination_batch(
    batch: pa.Table, ngrams_ref=None, n: int = 4
) -> pa.Table:
    value_set = cached_get(_NGRAM_SET_CACHE, ngrams_ref)
    ngrams, doc_idx, valid, counts = _batch_ngrams(batch["text"], n)
    if ngrams is None:
        hits = np.zeros(len(counts), dtype=np.int64)
    else:
        member = pc.is_in(ngrams, value_set=value_set).to_numpy(
            zero_copy_only=False
        )
        hit_mask = member & valid
        hits = np.bincount(doc_idx[hit_mask], minlength=len(counts)).astype(
            np.int64
        )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_contaminated": pa.array(hits, pa.int64()),
        }
    )


def decontaminate(
    docs: ray.data.Dataset,
    bench: ray.data.Dataset,
    n: int = 4,
) -> ray.data.Dataset:
    """(doc_id, n_contaminated) per TRAINING doc: the number of token
    n-gram windows shared with the benchmark set. Filter
    ``n_contaminated == 0`` for the clean corpus; keeping the count
    makes the contamination auditable (and gives the driver oracle
    values, not just a row set)."""
    ng_ref = ray.put(benchmark_ngrams(bench, n))
    return docs.map_batches(
        _contamination_batch,
        fn_kwargs={"ngrams_ref": ng_ref, "n": n},
        batch_format="pyarrow",
    )
