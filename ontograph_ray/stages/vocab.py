"""Global-vocabulary coverage scoring — the corpus-statistics pattern.

Quality signals that depend on CORPUS-level statistics (not just the
document itself): here, how much of each document is covered by the
corpus's top-K most frequent tokens. Low coverage flags
gibberish/encoding junk; near-1.0 coverage flags boilerplate. The same
three-stage shape serves any derive-from-the-corpus statistic
(IDF tables, stopword induction, unigram LM scoring).

Scale shape — the canonical "big aggregate, small result, broadcast
back" plan, no full-corpus materialization anywhere:

1. per-block PARTIAL token counts (map-side combiner — each block
   shrinks from tokens to its distinct tokens before the exchange);
2. global per-token sum via ONE bucketed exchange keyed on a
   small-int token-hash bucket (``bucketed_group_map`` — the counts
   table is vocab-sized, far smaller than the corpus), then a
   per-block top-K over the globally-summed table merged on the
   driver: O(K × blocks) rows cross the wire, never the vocabulary;
3. the K-token vocab broadcast via ``ray.put``; per-doc coverage is
   one streaming ``is_in`` + segment-sum pass over the corpus.

Ties at the top-K boundary break deterministically by
(count DESC, token ASC) — mirrored in the DuckDB oracle's ORDER BY.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..bcast import cached_get

_VOCAB_CACHE: dict = {}


def _partial_counts(batch: pa.Table) -> pa.Table:
    toks = pc.split_pattern(batch["text"], " ")
    flat = pc.list_flatten(toks)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    g = (
        pa.table({"token": flat})
        .group_by(["token"], use_threads=False)
        .aggregate([("token", "count")])
    )
    return pa.table({"token": g["token"], "c": pc.cast(g["token_count"], pa.int64())})


def _sum_bucket(df: pd.DataFrame) -> pd.DataFrame:
    return df.groupby("token", sort=False)["c"].sum().reset_index()


def _block_topk(batch: pa.Table, k: int) -> pa.Table:
    df = batch.to_pandas()
    df = df.sort_values(["c", "token"], ascending=[False, True], kind="stable")
    return pa.Table.from_pandas(df.head(k), preserve_index=False)


def top_vocab(docs: ray.data.Dataset, k: int = 100) -> list[str]:
    """The corpus's top-``k`` tokens by global count (ties → token
    ascending), computed with one exchange (see module doc)."""
    from ..store.dataset import bucketed_group_map

    counts = bucketed_group_map(
        docs.map_batches(_partial_counts, batch_format="pyarrow"),
        ["token"],
        _sum_bucket,
    )
    cand = counts.map_batches(
        _block_topk, fn_kwargs={"k": k}, batch_format="pyarrow"
    ).take_all()
    df = pd.DataFrame(cand).sort_values(
        ["c", "token"], ascending=[False, True], kind="stable"
    )
    return df["token"].head(k).tolist()


def _encode_batch(batch: pa.Table, vocab_ref=None) -> pa.Table:
    vs = cached_get(_VOCAB_CACHE, vocab_ref)
    toks = pc.split_pattern(batch["text"], " ")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    # index_in IS the encoder: position in the frequency-ordered vocab
    ids = (
        pc.fill_null(pc.index_in(flat, value_set=vs), -1)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    oov = ids < 0
    n_oov = np.bincount(doc_idx[oov], minlength=len(counts)).astype(np.int64)
    id_sum = np.bincount(
        doc_idx, weights=np.where(oov, 0, ids), minlength=len(counts)
    ).astype(np.int64)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(counts, pa.int64()),
            "n_oov": pa.array(n_oov, pa.int64()),
            "id_sum": pa.array(id_sum, pa.int64()),
        }
    )


def dict_encode(docs: ray.data.Dataset, k: int = 256) -> ray.data.Dataset:
    """Vocabulary id-encoding — the tokenizer-ID primitive: token ids
    0..k-1 assigned in (global count DESC, token ASC) order (id 0 =
    most frequent, the standard vocab layout), out-of-vocabulary → −1.
    Same derive-from-corpus shape as coverage: one combiner-backed
    counts exchange builds the vocab, ONE ``ray.put`` broadcasts it,
    and the encode pass is a single streaming ``pc.index_in`` per
    batch — the vocab position IS the id, no per-token Python. Output
    is the per-doc integer summary (n_tokens, n_oov, id_sum) so the
    whole op stays exactly SQL-oracle-able; a real pipeline would emit
    the id list column instead (same kernel, drop the bincounts)."""
    vocab = top_vocab(docs, k)
    ref = ray.put(pa.array(vocab, pa.string()))
    return docs.map_batches(
        _encode_batch, fn_kwargs={"vocab_ref": ref}, batch_format="pyarrow"
    )


def _coverage_batch(batch: pa.Table, vocab_ref=None) -> pa.Table:
    vocab = cached_get(_VOCAB_CACHE, vocab_ref)
    toks = pc.split_pattern(batch["text"], " ")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    member = pc.is_in(flat, value_set=vocab).to_numpy(zero_copy_only=False)
    doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    in_vocab = np.bincount(doc_idx[member], minlength=len(counts)).astype(np.int64)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(counts, pa.int64()),
            "n_in_vocab": pa.array(in_vocab, pa.int64()),
        }
    )


def vocab_coverage(docs: ray.data.Dataset, k: int = 100) -> ray.data.Dataset:
    """(doc_id, n_tokens, n_in_vocab) — tokens of each doc that are in
    the corpus-global top-``k`` vocabulary."""
    vocab = pa.array(top_vocab(docs, k), pa.string())
    vocab_ref = ray.put(vocab)
    return docs.map_batches(
        _coverage_batch, fn_kwargs={"vocab_ref": vocab_ref}, batch_format="pyarrow"
    )


def word_histogram_top(
    docs: ray.data.Dataset, m: int
) -> list[tuple[str, int]]:
    """Top-``m`` (token, count) rows by global count, ties by token
    ascending — the same one-exchange plan as :func:`top_vocab`, kept
    with counts (BPE training needs the frequencies)."""
    from ..store.dataset import bucketed_group_map

    counts = bucketed_group_map(
        docs.map_batches(_partial_counts, batch_format="pyarrow"),
        ["token"],
        _sum_bucket,
    )
    cand = counts.map_batches(
        _block_topk, fn_kwargs={"k": m}, batch_format="pyarrow"
    ).take_all()
    df = pd.DataFrame(cand).sort_values(
        ["c", "token"], ascending=[False, True], kind="stable"
    )
    return list(df.head(m).itertuples(index=False, name=None))


def bpe_train(
    docs: ray.data.Dataset, num_merges: int = 30, top_words: int = 200
) -> ray.data.Dataset:
    """Byte-pair-encoding merge learning (Sennrich et al. 2016,
    arXiv:1508.07909) over the corpus — tokenizer training as a
    pipeline stage. Returns one row per learned merge:

        rank (int64, 0-based), left, right (string), freq (int64)

    where ``freq`` is the weighted count of the (left, right) adjacent
    symbol pair at the moment it was merged. Deterministic contract:
    words are the global top-``top_words`` whitespace tokens by
    (count DESC, token ASC); initial symbols are the word's unicode
    characters with NO end-of-word marker; each round merges the pair
    with the highest frequency-weighted count, ties broken by
    (left ASC, right ASC); training stops early when the best pair's
    weighted count drops below 2 (nothing left to compress).

    Scale shape: the corpus-sized work is the word histogram — one
    bucketed exchange with a map-side combiner (the SentencePiece /
    subword-nmt formulation trains on the frequency table, never the
    running text). The merge loop runs on the driver over the
    ``top_words``-bounded table — the repo's driver-small pattern: the
    loop's input is capped by a parameter, not the corpus."""
    hist = word_histogram_top(docs, top_words)
    seqs: list[tuple[list[str], int]] = [
        (list(word), cnt) for word, cnt in hist
    ]
    merges: list[tuple[int, str, str, int]] = []
    for rank in range(num_merges):
        pairs: dict[tuple[str, str], int] = {}
        for syms, cnt in seqs:
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                pairs[p] = pairs.get(p, 0) + cnt
        if not pairs:
            break
        # deterministic: max count, then lexicographically smallest pair
        bc = max(pairs.values())
        best_pair = min(p for p, c in pairs.items() if c == bc)
        if bc < 2:
            break
        merged = "".join(best_pair)
        for k, (syms, cnt) in enumerate(seqs):
            i, out = 0, []
            while i < len(syms):
                if (
                    i + 1 < len(syms)
                    and syms[i] == best_pair[0]
                    and syms[i + 1] == best_pair[1]
                ):
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            seqs[k] = (out, cnt)
        merges.append((rank, best_pair[0], best_pair[1], bc))
    return ray.data.from_arrow(
        pa.table(
            {
                "rank": pa.array([m_[0] for m_ in merges], pa.int64()),
                "left": pa.array([m_[1] for m_ in merges], pa.string()),
                "right": pa.array([m_[2] for m_ in merges], pa.string()),
                "freq": pa.array([m_[3] for m_ in merges], pa.int64()),
            }
        )
    )


_MERGES_CACHE: dict = {}


def _bpe_apply_batch(batch: pa.Table, merges_ref=None) -> pa.Table:
    merges = cached_get(_MERGES_CACHE, merges_ref)
    toks = pc.split_pattern(pc.fill_null(batch["text"], ""), " ")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    # the combiner trick: the merge loop runs once per DISTINCT word in
    # the batch, not once per occurrence — word frequency follows Zipf,
    # so this cuts the Python work by the batch's duplication factor
    uniq, inverse = np.unique(
        flat.to_numpy(zero_copy_only=False), return_inverse=True
    )
    pieces = np.empty(len(uniq), dtype=np.int64)
    for k, word in enumerate(uniq):
        syms = list(word)
        for left, right in merges:
            i, out = 0, []
            n_s = len(syms)
            while i < n_s:
                if i + 1 < n_s and syms[i] == left and syms[i + 1] == right:
                    out.append(left + right)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
            if len(syms) == 1:
                break
        pieces[k] = max(len(syms), 1)
    per_tok = pieces[inverse]
    doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    per_doc = np.bincount(doc_idx, weights=per_tok, minlength=len(counts))
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(counts, pa.int64()),
            "n_bpe_pieces": pa.array(per_doc.astype(np.int64), pa.int64()),
        }
    )


def bpe_token_counts(
    docs: ray.data.Dataset, num_merges: int = 30, top_words: int = 200
) -> ray.data.Dataset:
    """Tokenize the corpus with the learned BPE merges and count the
    resulting pieces per document — real-BPE token counting, the
    budget signal training-data pipelines size datasets with. Returns

        doc_id, n_tokens (whitespace), n_bpe_pieces (int64)

    Contract: merges from :func:`bpe_train` (same params), applied to
    every word in LEARNED RANK ORDER (the standard BPE apply rule),
    each pass greedy left-to-right; a word is its piece count after all
    merges (an empty-string token counts as 1 piece).

    Scale shape: merges are a ≤num_merges-row table broadcast once via
    ``ray.put`` and cached per worker; the apply pass is one streaming
    ``map_batches`` whose Python merge loop runs once per DISTINCT word
    per batch (Zipf makes that far smaller than the token stream);
    everything else is Arrow/numpy."""
    merges_tbl = bpe_train(docs, num_merges=num_merges, top_words=top_words)
    merges = [
        (r["left"], r["right"])
        for r in sorted(merges_tbl.take_all(), key=lambda r: r["rank"])
    ]
    merges_ref = ray.put(merges)
    return docs.map_batches(
        _bpe_apply_batch,
        fn_kwargs={"merges_ref": merges_ref},
        batch_format="pyarrow",
    )
