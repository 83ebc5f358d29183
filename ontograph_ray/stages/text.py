"""Text-analysis stages for large-scale training-data pipelines.

All stages are Dataset→Dataset batch transforms over the ``documents``
schema (doc_id, text, lang, source, n_chars): token counting, quality
scoring, language identification (n-gram/function-word heuristic), and
64-bit document fingerprinting. Hot paths are Arrow/pandas kernels; the
language profiles are compiled once per actor.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..bcast import cached_get

STOPWORDS = ("the", "a", "of", "and", "to", "in", "is", "it")

# BPE-ish token pattern: word pieces or single non-space symbols.
BPE_TOKEN_RE = r"[A-Za-z0-9]+|[^A-Za-z0-9\s]"


def token_stats_batch(batch: pa.Table) -> pa.Table:
    """Vectorized token counting: whitespace tokens + BPE-ish tokens +
    char length."""
    text = batch["text"]
    ws_tokens = pc.list_value_length(pc.split_pattern(text, " "))
    bpe_tokens = pc.count_substring_regex(text, BPE_TOKEN_RE)
    n_chars = pc.utf8_length(text)
    return batch.append_column("n_tokens", pc.cast(ws_tokens, pa.int64())).append_column(
        "n_bpe_tokens", pc.cast(bpe_tokens, pa.int64())
    ).append_column("n_chars_computed", pc.cast(n_chars, pa.int64()))


def token_stats(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(token_stats_batch, batch_format="pyarrow")


class QualityScorer:
    """Actor stage: length / punctuation / stopword-ratio quality
    scoring (regexes compiled once per actor)."""

    def __init__(self, stopwords=STOPWORDS):
        import re

        self.stop = frozenset(stopwords)
        self.punct_re = re.compile(r"[^\w\s]")

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        text = df["text"]
        n_chars = text.str.len().clip(lower=1)
        tokens = text.str.split(" ")
        n_tokens = tokens.str.len().clip(lower=1)
        punct = text.str.count(r"[^\w\s]")
        stop_hits = tokens.map(lambda ts: sum(t in self.stop for t in ts))
        df["punct_ratio"] = (punct / n_chars).astype("float64")
        df["stopword_ratio"] = (stop_hits / n_tokens).astype("float64")
        df["mean_token_len"] = ((n_chars - (n_tokens - 1)) / n_tokens).astype("float64")
        # heuristic quality score in [0,1]: long-enough docs with some
        # stopwords and low punctuation score high
        df["quality"] = (
            np.clip(n_tokens / 64.0, 0, 1) * 0.5
            + np.clip(df["stopword_ratio"] * 4.0, 0, 1) * 0.3
            + (1.0 - np.clip(df["punct_ratio"] * 10.0, 0, 1)) * 0.2
        ).astype("float64")
        return df


def quality_score(ds: ray.data.Dataset, concurrency=(1, 8)) -> ray.data.Dataset:
    return ds.map_batches(
        QualityScorer, batch_format="pandas", batch_size=4096, concurrency=concurrency
    )


# the Gopher paper's "must contain >= 2 of" stop-word list (Rae et al.
# 2021, appendix A1.1) — a parameter of gopher_rules, not a constant of
# the corpus
GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_rules(
    ds: ray.data.Dataset, stopwords=GOPHER_STOPWORDS
) -> ray.data.Dataset:
    """Gopher quality-filter rules (Rae et al. 2021, appendix A1.1) as
    EXACT integer predicates per document — the standard pre-training
    corpus filter, all seven rules:

    1. word count in [50, 100_000]           (``f_words``)
    2. mean word length in [3, 10]           (``f_mwl``, cross-
       multiplied: ``3*n_words <= n_word_chars <= 10*n_words``)
    3. symbol-to-word ratio <= 0.1           (``f_sym``; symbols =
       '#', '…', and non-overlapping '...')
    4. <= 90% of lines start with a bullet   (``f_bullet``; bullet =
       '•', '- ', '* ')
    5. <= 30% of lines end with an ellipsis  (``f_ell``)
    6. >= 80% of words contain an alphabetic char (``f_alpha``)
    7. >= 2 distinct stop words present      (``f_stop``)

    Words are whitespace runs (``str.split()``); every threshold is a
    cross-multiplied integer comparison, so the output is bit-exact
    against the SQL twin at any block layout. One streaming
    ``map_batches`` — no exchange; the per-doc flags feed a downstream
    keep-filter or audit join. Scale note: the explode/groupby is
    per-batch pandas over bounded batches, the same shape as the other
    text stages."""
    stopset = frozenset(s.lower() for s in stopwords)

    def flags(df: pd.DataFrame) -> pd.DataFrame:
        text = df["text"].astype(str)
        idx = df.index
        words = text.str.split()
        n_words = words.str.len().fillna(0).astype("int64")
        n_word_chars = (
            text.str.replace(r"\s+", "", regex=True).str.len().astype("int64")
        )
        ex = words.explode().dropna()
        alpha = ex.str.contains("[A-Za-z]", regex=True)
        n_alpha = alpha.groupby(level=0).sum().reindex(idx).fillna(0).astype("int64")
        low = ex.str.lower()
        n_stop = (
            low[low.isin(stopset)]
            .groupby(level=0)
            .nunique()
            .reindex(idx)
            .fillna(0)
            .astype("int64")
        )
        lines = text.str.split("\n")
        n_lines = lines.str.len().astype("int64")
        lx = lines.explode().dropna()
        bullet = lx.str.startswith(("•", "- ", "* "))
        n_bullet = bullet.groupby(level=0).sum().reindex(idx).fillna(0).astype("int64")
        ell = lx.str.endswith(("...", "…"))
        n_ell = ell.groupby(level=0).sum().reindex(idx).fillna(0).astype("int64")
        n_sym = (
            text.str.count("#")
            + text.str.count("…")
            + (text.str.len() - text.str.replace("...", "", regex=False).str.len())
            // 3
        ).astype("int64")

        out = pd.DataFrame({"doc_id": df["doc_id"].astype("int64")})
        out["n_words"] = n_words
        out["f_words"] = ((n_words >= 50) & (n_words <= 100_000)).astype("int8")
        out["f_mwl"] = (
            (3 * n_words <= n_word_chars) & (n_word_chars <= 10 * n_words)
        ).astype("int8")
        out["f_sym"] = (10 * n_sym <= n_words).astype("int8")
        out["f_bullet"] = (10 * n_bullet <= 9 * n_lines).astype("int8")
        out["f_ell"] = (10 * n_ell <= 3 * n_lines).astype("int8")
        out["f_alpha"] = (5 * n_alpha >= 4 * n_words).astype("int8")
        out["f_stop"] = (n_stop >= 2).astype("int8")
        out["keep"] = (
            out[["f_words", "f_mwl", "f_sym", "f_bullet", "f_ell", "f_alpha", "f_stop"]]
            .min(axis=1)
            .astype("int8")
        )
        return out

    return ds.map_batches(flags, batch_format="pandas", batch_size=4096)


# Deterministic per-language function-word profiles (public, tiny):
LANG_PROFILES: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "of", "to", "is"),
    "de": ("der", "die", "das", "und", "ist"),
    "es": ("el", "la", "de", "que", "es"),
    "fr": ("le", "la", "et", "les", "est"),
    "zh": ("的", "是", "了", "在", "和"),
}


class LangId:
    """Function-word language-ID heuristic, fully vectorized: ONE
    tokenize+explode per batch, one isin membership pass per profile
    (|profiles| vectorized passes total), then a numpy argmax across
    the per-language count columns — no Python closure per row.
    Deterministic tie-break: the profile columns are iterated in
    sorted language order, so argmax's first-max rule IS the
    lexicographic-min winner; zero hits anywhere → 'und'."""

    def __init__(self, profiles=None):
        profs = profiles or LANG_PROFILES
        self.langs = sorted(profs)
        self.profiles = {lang: frozenset(profs[lang]) for lang in self.langs}

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        toks = df["text"].str.lower().str.split(" ").explode()
        counts = np.zeros((len(df), len(self.langs)), dtype=np.int64)
        for i, lang in enumerate(self.langs):
            hits = toks[toks.isin(self.profiles[lang])]
            if len(hits):
                per_row = hits.groupby(level=0).size()
                counts[df.index.get_indexer(per_row.index), i] = per_row.to_numpy()
        pred = np.asarray(self.langs, dtype=object)[counts.argmax(axis=1)]
        pred[counts.max(axis=1) == 0] = "und"
        df["pred_lang"] = pred
        return df


_LANG_ID = LangId()


def _lang_id_batch(df: pd.DataFrame) -> pd.DataFrame:
    return _LANG_ID(df)


def lang_id(ds: ray.data.Dataset, concurrency=None) -> ray.data.Dataset:
    """Task pool by default (the profile state is a handful of
    frozensets — actor-pool startup would dominate); pass
    ``concurrency`` for the actor-pool form."""
    if concurrency is not None:
        return ds.map_batches(
            LangId, batch_format="pandas", batch_size=4096, concurrency=concurrency
        )
    return ds.map_batches(_lang_id_batch, batch_format="pandas", batch_size=4096)


def fingerprint_batch(df: pd.DataFrame) -> pd.DataFrame:
    """64-bit content fingerprint per document — deterministic, C-speed
    (pandas 64-bit sip-like row hash). Equal texts ⇒ equal fingerprints;
    used by exact dedup and dup-group analytics."""
    df = df.copy()
    df["fingerprint"] = pd.util.hash_pandas_object(df["text"], index=False).astype(
        "uint64"
    )
    return df


def fingerprint(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(fingerprint_batch, batch_format="pandas")


# ---------------------------------------------------------------------------
# Winnowing document fingerprints (Schleimer, Wilkerson & Aiken 2003)
# ---------------------------------------------------------------------------

_WINNOW_P = np.uint64(1099511628211)  # FNV-64 prime as the rolling base


def _kgram_hashes(data: bytes, k: int) -> np.ndarray:
    """Polynomial rolling hash of every byte k-gram, mod 2^64 (uint64
    wraparound): h(i) = Σ b[i+j]·p^(k-1-j). Vectorized as one integer
    matmul over a zero-copy sliding window — numpy integer matmul
    wraps mod 2^64 exactly like the scalar recurrence."""
    b = np.frombuffer(data, dtype=np.uint8)
    if len(b) < k:
        return np.empty(0, dtype=np.uint64)
    # powers built in Python-int space (numpy uint64 SCALAR overflow
    # warns; ARRAY ops below wrap silently, which is what we want)
    mask = (1 << 64) - 1
    plist, pw = [0] * k, 1
    for j in range(k - 1, -1, -1):
        plist[j] = pw
        pw = (pw * int(_WINNOW_P)) & mask
    powers = np.array(plist, dtype=np.uint64)
    win = np.lib.stride_tricks.sliding_window_view(b, k).astype(np.uint64)
    return win @ powers


def winnow_batch(df: pd.DataFrame, k: int, w: int) -> pd.DataFrame:
    """One document at a time (documents are independent; the per-doc
    kernel is vectorized): k-gram rolling hashes, then winnowing —
    every window of ``w`` consecutive hashes contributes its minimum,
    rightmost occurrence on ties (the robust-winnowing rule), each
    selected (position, hash) recorded once. Guarantees any shared
    substring of length ≥ w+k-1 yields a shared fingerprint."""
    ids, poss, fps = [], [], []
    for doc_id, text in zip(df["doc_id"].to_numpy(), df["text"].to_numpy()):
        h = _kgram_hashes(str(text).encode("utf-8"), k)
        m = len(h)
        if m == 0:
            continue
        ww = min(w, m)
        wins = np.lib.stride_tricks.sliding_window_view(h, ww)
        # rightmost min: argmin of the reversed window picks the last
        sel = ww - 1 - np.argmin(wins[:, ::-1], axis=1)
        pos = np.arange(len(wins)) + sel
        keep = np.unique(pos)
        ids.append(np.full(len(keep), doc_id, dtype=np.int64))
        poss.append(keep.astype(np.int64))
        fps.append(h[keep])
    if not ids:
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "pos": pd.Series([], dtype="int64"),
                "fp": pd.Series([], dtype="uint64"),
            }
        )
    return pd.DataFrame(
        {
            "doc_id": np.concatenate(ids),
            "pos": np.concatenate(poss),
            "fp": np.concatenate(fps),
        }
    )


def winnow_shared_pairs(
    ds: ray.data.Dataset,
    k: int = 7,
    w: int = 8,
    max_df: int = 50,
    min_shared: int = 2,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """MOSS-style near-dup candidates: document pairs ranked by how
    many winnowing fingerprints they share (substring-overlap
    similarity — catches copied PASSAGES that token-shingle minhash
    dilutes away in long documents).

    Scale shape: fingerprints occurring in more than ``max_df``
    documents are dropped (the boilerplate stopword guard, same rule
    as inverted_index's max_df), which bounds any one fingerprint's
    pair output at max_df²/2 — no quadratic blowup on template text.
    Two bucketed exchanges: fp-keyed pair generation (per-fp
    triu_indices, no per-pair Python), then pair-keyed count with a
    per-block combiner."""
    from ..store.dataset import bucketed_group_map

    fps = winnow_fingerprints(ds, k=k, w=w)
    # a doc's rows live in one batch, so per-batch distinct is global
    distinct = fps.map_batches(
        lambda df: df[["doc_id", "fp"]].drop_duplicates(),
        batch_format="pandas",
    )

    def pairs_per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        parts_a, parts_b = [], []
        for _, g in df.groupby("fp", sort=False):
            ids = np.sort(pd.unique(g["doc_id"].to_numpy()))
            n = len(ids)
            if n < 2 or n > max_df:
                continue
            i, j = np.triu_indices(n, k=1)
            parts_a.append(ids[i])
            parts_b.append(ids[j])
        if not parts_a:
            return pd.DataFrame(
                {
                    "doc_a": pd.Series(dtype="int64"),
                    "doc_b": pd.Series(dtype="int64"),
                }
            )
        return pd.DataFrame(
            {
                "doc_a": np.concatenate(parts_a),
                "doc_b": np.concatenate(parts_b),
            }
        )

    pairs = bucketed_group_map(
        distinct, ["fp"], pairs_per_bucket, num_buckets=num_buckets
    )

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["doc_a", "doc_b"], sort=False)
            .size()
            .reset_index(name="shared")
        )

    def count_final(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.groupby(["doc_a", "doc_b"], sort=False)["shared"]
            .sum()
            .reset_index()
        )
        out["shared"] = out["shared"].astype("int64")
        return out[out["shared"] >= min_shared]

    return bucketed_group_map(
        pairs,
        ["doc_a", "doc_b"],
        count_final,
        num_buckets=num_buckets,
        partial_fn=count_partial,
    )


def winnow_fingerprints(
    ds: ray.data.Dataset, k: int = 7, w: int = 4
) -> ray.data.Dataset:
    """Winnowing fingerprints per document: the MOSS local document
    sketch — position-robust, substring-matching-capable, with a
    guaranteed detection threshold of w+k-1 bytes. Pure per-doc batch
    transform: no exchange, streams at any corpus size; the downstream
    shared-fingerprint join (plagiarism / near-dup candidates) is one
    fp-bucketed groupby over the ~1/((w+1)/2)-density sketch rows, not
    the corpus."""
    if k < 1 or w < 1:
        raise ValueError("k and w must be >= 1")
    return ds.map_batches(
        lambda df: winnow_batch(df, k, w), batch_format="pandas", batch_size=1024
    )


# ---------------------------------------------------------------------------
# Broadcast linear quality classifier (fasttext-style filter stage shape)
# ---------------------------------------------------------------------------

_MODEL_CACHE: dict = {}

# feature order of the classifier: whitespace tokens, stopword hits
# ("the"/"a" word matches), punctuation chars, total chars — all exact
# integer counts so the score is integer and SQL-oracle-able.
CLASSIFIER_FEATURES = ("n_tokens", "stop_hits", "punct_chars", "n_chars")


def _classifier_features(text) -> np.ndarray:
    """(4, n) int64 feature matrix for a batch — one Arrow kernel per
    feature, no per-row Python."""
    n_tokens = pc.list_value_length(pc.split_pattern(text, " "))
    stop_hits = pc.add(
        pc.count_substring_regex(text, r"\bthe\b"),
        pc.count_substring_regex(text, r"\ba\b"),
    )
    punct = pc.count_substring_regex(text, r"[^\w\s]")
    n_chars = pc.utf8_length(text)
    return np.stack(
        [
            pc.cast(f, pa.int64()).to_numpy(zero_copy_only=False)
            for f in (n_tokens, stop_hits, punct, n_chars)
        ]
    )


def classifier_score(
    ds: ray.data.Dataset,
    weights,
    bias: int = 0,
    threshold: int = 0,
) -> ray.data.Dataset:
    """Model-scoring stage shape for quality filtering: the (tiny)
    linear model is ``ray.put`` ONCE and fetched once per worker (the
    module-level cache keyed on the ref), each batch is scored with one
    vectorized feature build + dot product. Integer weights over
    integer counts keep the score exact across engines. Emits
    (doc_id, score, keep) where keep = score >= threshold.

    The same shape carries a real model at scale: swap the weight
    vector for model bytes in ``ray.put`` and the dot product for
    batched inference in ``__call__`` of an actor-pool class — the
    plumbing (broadcast once, vectorized batch scoring, no driver
    materialization) is identical."""
    w = np.asarray(weights, dtype=np.int64)
    if w.shape != (len(CLASSIFIER_FEATURES),):
        raise ValueError(f"expected {len(CLASSIFIER_FEATURES)} weights")
    w_ref = ray.put(w)

    def score(batch: pa.Table, w_ref=None) -> pa.Table:
        wts = cached_get(_MODEL_CACHE, w_ref)
        feats = _classifier_features(batch["text"])
        s = wts @ feats + bias
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "score": pa.array(s, pa.int64()),
                "keep": pa.array((s >= threshold).astype("int64")),
            }
        )

    return ds.map_batches(score, fn_kwargs={"w_ref": w_ref}, batch_format="pyarrow")


def top_terms_per_group(
    ds: ray.data.Dataset,
    group_col: str = "lang",
    text_col: str = "text",
    k: int = 10,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Per-group token heavy hitters: the ``k`` most frequent
    whitespace tokens within every ``group_col`` value, deterministic
    tie-break (count DESC, token ASC) — the per-language vocabulary
    profile of a corpus-mix report.

    Scale shape: one vectorized explode+count per block pre-aggregates
    each (group, token) to a partial count (the combiner — a
    hyper-frequent token crosses the wire once per BLOCK), then ONE
    exchange bucketed on the GROUP co-locates each group's partials so
    the merge and the top-k happen together — no second exchange.
    Partitioning assumption: one group's DISTINCT token set fits a
    bucket worker (vocabulary-bounded, not corpus-bounded)."""
    import pyarrow.compute as _pc

    def partial(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        toks = _pc.split_pattern(_pc.fill_null(txt, ""), " ")
        lens = _pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        grp = batch[group_col].to_pylist()
        flat = pa.table(
            {
                group_col: pa.array(
                    np.repeat(np.asarray(grp, dtype=object), lens)
                ),
                "token": _pc.list_flatten(toks),
            }
        )
        counts = flat.group_by([group_col, "token"], use_threads=False).aggregate(
            [([], "count_all")]
        )
        counts = counts.rename_columns([group_col, "token", "cnt"])
        bucket = (
            pd.util.hash_pandas_object(
                pd.Series(counts[group_col].to_pylist()), index=False
            )
            % num_buckets
        ).astype("int64")
        return counts.append_column("__bucket", pa.array(bucket.to_numpy()))

    def merge_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby([group_col, "token"], sort=False)["cnt"]
            .sum()
            .reset_index()
        )
        g = g.sort_values(
            [group_col, "cnt", "token"],
            ascending=[True, False, True],
            kind="stable",
        )
        out = g.groupby(group_col, sort=False).head(k).copy()
        out["cnt"] = out["cnt"].astype("int64")
        return out

    return (
        ds.select_columns([group_col, text_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(merge_topk, batch_format="pandas")
    )


def ngram_novelty(
    docs: ray.data.Dataset, n: int = 3, num_buckets: int = 64
) -> ray.data.Dataset:
    """Document originality score: per doc, the fraction of its
    DISTINCT token n-grams that occur in no other document —
    (doc_id, n_grams, n_unique, novelty_bp) with novelty in integer
    basis points (10000·unique // total, so the gate stays exact).
    The complement of the dup-ngram statistics: high novelty ⇒
    original text worth keeping, low ⇒ templated/boilerplate.

    Scale shape: one vectorized shifted-slice n-gram pass per batch
    (decontam's kernel) + per-batch Arrow distinct — a doc is one row,
    so batch-local per-doc distinct IS the global distinct — then TWO
    bucketed exchanges: gram-keyed df (each gram's doc list meets once;
    per-doc partials pre-summed in the bucket) and doc-keyed final sum.
    A boilerplate gram shared by millions of docs costs rows
    proportional to its doc list ONCE (the df exchange) — no pairwise
    blowup, unlike shared-fingerprint pair generation. Docs shorter
    than ``n`` tokens have no windows and no output row (mirrored by
    the SQL twin)."""
    from ..store.dataset import bucketed_group_map
    from .decontam import _batch_ngrams

    def doc_grams(batch: pa.Table) -> pa.Table:
        ngrams, doc_idx, valid, counts = _batch_ngrams(batch["text"], n)
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "gram": pa.array([], pa.string()),
            }
        )
        if ngrams is None:
            return empty
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = ngrams.filter(pa.array(valid))
        d = ids[doc_idx[valid]]
        t = pa.table({"doc_id": pa.array(d, pa.int64()), "gram": g})
        return t.group_by(["doc_id", "gram"]).aggregate([])

    grams = docs.select_columns(["doc_id", "text"]).map_batches(
        doc_grams, batch_format="pyarrow"
    )

    def per_gram(df: pd.DataFrame) -> pd.DataFrame:
        # rows are globally distinct (doc_id, gram): group size = df
        sz = df.groupby("gram", sort=False)["doc_id"].transform("size")
        out = pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_grams": 1,
                "n_unique": (sz == 1).astype("int64"),
            }
        )
        return out.groupby("doc_id", sort=False, as_index=False).sum()

    partials = bucketed_group_map(
        grams, ["gram"], per_gram, num_buckets=num_buckets
    )

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("doc_id", sort=False, as_index=False)[
            ["n_grams", "n_unique"]
        ].sum()
        out["n_grams"] = out["n_grams"].astype("int64")
        out["n_unique"] = out["n_unique"].astype("int64")
        out["novelty_bp"] = (10_000 * out["n_unique"]) // out["n_grams"]
        return out

    return bucketed_group_map(
        partials, ["doc_id"], per_doc, num_buckets=num_buckets
    )


def collocations(
    docs: ray.data.Dataset,
    min_count: int = 5,
    k: int = 50,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Phrase detection by integer PMI lift: the top-``k`` adjacent
    token bigrams by

        lift_bp = (10000 · c(ab) · N1 · N1) // (c(a) · c(b) · N2)

    (10000 = independence) with exact integer arithmetic — arbitrary-
    precision Python ints on the min_count-bounded survivor set, so
    the score matches the HUGEINT SQL twin bit-for-bit; ties break
    (lift DESC, bigram ASC). The tokenizer-phrase/collocation-mining
    primitive (word2vec-phrases style, PMI in place of the discounted
    score).

    Scale shape: one bigram-count exchange and one unigram-count
    exchange (both per-block combiners — Zipf collapses blocks hard),
    then only bigrams with count ≥ ``min_count`` survive; their two
    unigram lookups ride ONE bucketed join each, and the exact-int
    scoring walks the bounded survivor table. N1/N2 are tiny
    aggregates of the count tables."""
    from ..store.dataset import bucketed_group_map, hash_join

    toks = docs.select_columns(["text"])

    def bigram_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=["w1", "w2", "c"])
        parts = df["text"].str.split(" ")
        flat = np.concatenate(parts.to_numpy()) if len(parts) else np.array([])
        lens = parts.str.len().to_numpy()
        if not len(flat):
            return pd.DataFrame(columns=["w1", "w2", "c"])
        doc_idx = np.repeat(np.arange(len(lens)), lens)
        w1, w2 = flat[:-1], flat[1:]
        valid = doc_idx[:-1] == doc_idx[1:]
        out = pd.DataFrame({"w1": w1[valid], "w2": w2[valid]})
        return (
            out.groupby(["w1", "w2"], sort=False).size().rename("c").reset_index()
        )

    def count_sum(keys):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            if not len(df):
                return df
            out = df.groupby(keys, sort=False, as_index=False)["c"].sum()
            out["c"] = out["c"].astype("int64")
            return out

        return fn

    bigrams = bucketed_group_map(
        toks.map_batches(bigram_partial, batch_format="pandas"),
        ["w1", "w2"],
        count_sum(["w1", "w2"]),
        num_buckets=num_buckets,
    ).materialize()

    def unigram_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=["w", "c"])
        flat = np.concatenate(df["text"].str.split(" ").to_numpy())
        out = pd.DataFrame({"w": flat})
        return out.groupby("w", sort=False).size().rename("c").reset_index()

    unigrams = bucketed_group_map(
        toks.map_batches(unigram_partial, batch_format="pandas"),
        ["w"],
        count_sum(["w"]),
        num_buckets=num_buckets,
    ).materialize()

    n1 = int(unigrams.sum("c"))
    n2 = int(bigrams.sum("c"))

    def keep_frequent(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["c"] >= min_count]

    surv = bigrams.map_batches(keep_frequent, batch_format="pandas")
    surv = hash_join(
        surv,
        unigrams.map_batches(
            lambda d: d.rename(columns={"w": "w1", "c": "c1"}),
            batch_format="pandas",
        ),
        on=["w1"],
    )
    surv = hash_join(
        surv,
        unigrams.map_batches(
            lambda d: d.rename(columns={"w": "w2", "c": "c2"}),
            batch_format="pandas",
        ),
        on=["w2"],
    )

    def score(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                columns=["w1", "w2", "c", "lift_bp"]
            ).astype({"c": "int64", "lift_bp": "int64"})
        # arbitrary-precision ints: c·N1² can exceed 2^63; the SQL twin
        # computes the same quotient in HUGEINT
        lift = [
            (10_000 * int(cab) * n1 * n1) // (int(ca) * int(cb) * n2)
            for cab, ca, cb in zip(df["c"], df["c1"], df["c2"])
        ]
        out = df[["w1", "w2", "c"]].copy()
        out["lift_bp"] = pd.Series(lift, index=df.index, dtype="int64")
        return out

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["lift_bp", "w1", "w2"], ascending=[False, True, True], kind="stable"
        ).head(k)

    # Per-block partial top-k (fuses into the score map — each block
    # ships at most k rows), then an O(k·blocks) driver merge: the
    # survivor table itself never lands on the driver.
    parts = surv.map_batches(score, batch_format="pandas").map_batches(
        partial_topk, batch_format="pandas"
    ).to_pandas()
    scored = partial_topk(parts)
    return ray.data.from_pandas(scored.reset_index(drop=True))


def perceptron_train(
    docs: ray.data.Dataset,
    label_col: str = "y",
    epochs: int = 5,
) -> "tuple[np.ndarray, int]":
    """Distributed BATCH perceptron over the integer quality features
    (the same 4 counts `classifier_score` consumes): per epoch, every
    misclassified row contributes y·x to one summed update —

        w ← w + Σ_{yᵢ(w·xᵢ+b) ≤ 0} yᵢxᵢ,   b ← b + Σ yᵢ

    Unlike the classic per-row (online) perceptron, the BATCH update
    is a commutative integer sum, so training is bit-deterministic at
    any block layout — the property that puts a trained model under
    the driver's hash gate via a plain-Python twin. Physical shape:
    the (doc_id, features, label) table is built once and pinned;
    each epoch is ONE broadcast (w, b) + one combiner map emitting a
    single (Δw, Δb) row per block + a tiny driver sum — the exact
    shape a minibatch-SGD trainer has at scale, with the float
    gradient swapped in for the integer update. ``label_col`` must
    hold ±1 integer labels (the caller decides what to learn)."""
    feats = docs.select_columns(["doc_id", "text", label_col])

    def prep(batch: pa.Table) -> pa.Table:
        x = _classifier_features(batch["text"])  # (4, n) int64
        y = pc.cast(batch[label_col], pa.int64())
        cols = {"doc_id": pc.cast(batch["doc_id"], pa.int64()), "y": y}
        for j in range(x.shape[0]):
            cols[f"f{j}"] = pa.array(x[j], pa.int64())
        return pa.table(cols)

    raw = feats.map_batches(prep, batch_format="pyarrow").materialize()
    n_feat = 4

    # integer mean-centering (floor): without it the all-positive raw
    # count scales make the batch update oscillate; centered features
    # let the sign problem converge in a few epochs. One tiny
    # (sums, count) aggregate + one broadcast-subtract pass.
    def sums(batch: pa.Table) -> pa.Table:
        s = [
            int(pc.sum(batch[f"f{j}"]).as_py() or 0) for j in range(n_feat)
        ]
        return pa.table(
            {
                "s": pa.array([s], pa.list_(pa.int64())),
                "n": pa.array([batch.num_rows], pa.int64()),
            }
        )

    tot = np.zeros(n_feat, dtype=np.int64)
    cnt = 0
    for r in raw.map_batches(sums, batch_format="pyarrow").take_all():
        tot += np.asarray(r["s"], dtype=np.int64)
        cnt += int(r["n"])
    mean = tot // max(cnt, 1)
    mref = ray.put(mean)

    def center(batch: pa.Table, mref=None) -> pa.Table:
        m = cached_get(_MODEL_CACHE, mref)
        cols = {"doc_id": batch["doc_id"], "y": batch["y"]}
        for j in range(n_feat):
            cols[f"f{j}"] = pc.subtract(
                batch[f"f{j}"], pa.scalar(int(m[j]), pa.int64())
            )
        return pa.table(cols)

    table = raw.map_batches(
        center, fn_kwargs={"mref": mref}, batch_format="pyarrow"
    ).materialize()
    w = np.zeros(n_feat, dtype=np.int64)
    b = 0
    for _ in range(epochs):
        ref = ray.put({"w": w.copy(), "b": b})

        def partial(batch: pa.Table, ref=None) -> pa.Table:
            m = cached_get(_MODEL_CACHE, ref)
            x = np.stack(
                [
                    batch[f"f{j}"].to_numpy(zero_copy_only=False)
                    for j in range(n_feat)
                ]
            )
            y = batch["y"].to_numpy(zero_copy_only=False)
            margin = y * (m["w"] @ x + m["b"])
            mis = margin <= 0
            dw = (x[:, mis] * y[mis]).sum(axis=1)
            return pa.table(
                {
                    "dw": pa.array([dw.tolist()], pa.list_(pa.int64())),
                    "db": pa.array([int(y[mis].sum())], pa.int64()),
                }
            )

        rows = table.map_batches(
            partial, fn_kwargs={"ref": ref}, batch_format="pyarrow"
        ).take_all()
        for r in rows:
            w += np.asarray(r["dw"], dtype=np.int64)
            b += int(r["db"])
    return w, b, mean


def perceptron_scores(
    docs: ray.data.Dataset,
    label_col: str = "y",
    epochs: int = 5,
) -> ray.data.Dataset:
    """Train :func:`perceptron_train` and score the corpus with the
    final integer model (in the same mean-centered feature space) →
    (doc_id, score, pred) with pred = +1 when score ≥ 0 — the
    end-to-end model-in-the-loop quality-filter demo, exactly
    reproducible."""
    w, b, mean = perceptron_train(docs, label_col=label_col, epochs=epochs)
    ref = ray.put({"w": w, "b": b, "mean": mean})

    def score(batch: pa.Table, ref=None) -> pa.Table:
        m = cached_get(_MODEL_CACHE, ref)
        x = _classifier_features(batch["text"]) - m["mean"][:, None]
        s = m["w"] @ x + m["b"]
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "score": pa.array(s, pa.int64()),
                "pred": pa.array(np.where(s >= 0, 1, -1), pa.int64()),
            }
        )

    return docs.select_columns(["doc_id", "text"]).map_batches(
        score, fn_kwargs={"ref": ref}, batch_format="pyarrow"
    )


def extract_json_int(
    ds: ray.data.Dataset,
    col: str,
    key: str,
    out_col: "str | None" = None,
) -> ray.data.Dataset:
    """Typed field extraction from a JSON-string column: pull integer
    ``key`` out of ``col`` into ``out_col`` (null when the key is
    absent/non-integer) — the semi-structured-ingest primitive for
    event `props`-style payloads. One vectorized RE2 kernel per batch
    (no per-row json.loads); nested objects are out of scope — feed
    those through a real parser stage."""
    import re as _re

    out = out_col or key
    pat = f'"{_re.escape(key)}"\\s*:\\s*(?P<v>-?\\d+)'

    def extract(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch[col], pat)
        v = pc.cast(pc.struct_field(m, "v"), pa.int64())
        return batch.append_column(out, v)

    return ds.map_batches(extract, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# C4 line-level cleaning (Raffel et al. 2020, §2.2)
# ---------------------------------------------------------------------------

_C4_WORDS = (
    "the data value table row line query scan batch merge sort window "
    "filter join group order stream vector column key hash part fast slow "
    "big small customer supplier spark agg"
).split()


def synthesize_webpages(n: int, seed: int = 17) -> "pa.Table":
    """Deterministic webpage-like corpus for the C4-filter oracle: docs
    of newline-separated lines where line length, terminal punctuation,
    'javascript' boilerplate, 'lorem ipsum' stubs and curly-brace
    template residue all vary with the seeded stream. A data SOURCE
    (the in-process equivalent of an input parquet) — the filter twin
    reimplements the rules independently."""
    import pyarrow as pa

    rng = np.random.RandomState(seed)
    texts = []
    for _ in range(n):
        n_lines = 2 + int(rng.randint(0, 9))
        lines = []
        for _ in range(n_lines):
            n_words = 1 + int(rng.randint(0, 12))
            ws = [ _C4_WORDS[rng.randint(0, len(_C4_WORDS))] for _ in range(n_words) ]
            r = rng.randint(0, 10)
            if r < 5:
                lines.append(" ".join(ws) + ".")
            elif r == 5:
                lines.append(" ".join(ws) + "!")
            elif r == 6:
                lines.append("enable javascript to view " + " ".join(ws) + ".")
            else:
                lines.append(" ".join(ws))
        doc = "\n".join(lines)
        extra = rng.randint(0, 20)
        if extra == 0:
            doc += "\nlorem ipsum dolor sit amet."
        elif extra == 1:
            doc += "\n{ template residue }"
        texts.append(doc)
    return pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )


def c4_line_filter(
    ds: ray.data.Dataset,
    min_words_per_line: int = 5,
    min_kept_lines: int = 3,
) -> ray.data.Dataset:
    """The C4 cleaning rules (Raffel et al. 2020, §2.2) as one
    streaming line-level transform:

    - a LINE is kept iff it ends in terminal punctuation ('.', '!',
      '?', '\"' — after trailing-whitespace strip), has at least
      ``min_words_per_line`` words, and does not contain 'javascript'
      (case-insensitive);
    - a DOCUMENT is dropped iff its raw text contains 'lorem ipsum'
      (case-insensitive) or a curly brace '{', or fewer than
      ``min_kept_lines`` lines survive.

    Output: (doc_id, text = kept lines joined by newline, n_lines,
    n_kept) for surviving documents. Entirely per-document — no
    exchange; vectorized pandas string kernels per batch."""

    def clean(df: pd.DataFrame) -> pd.DataFrame:
        text = df["text"].astype(str)
        idx = df.index
        bad_doc = text.str.contains("lorem ipsum", case=False) | text.str.contains(
            "{", regex=False
        )
        lines = text.str.split("\n")
        n_lines = lines.str.len().astype("int64")
        lx = lines.explode()
        wc = lx.str.split().str.len().fillna(0).astype("int64")
        term = lx.str.rstrip().str.endswith((".", "!", "?", '"'))
        js = lx.str.contains("javascript", case=False)
        keep_line = term & ~js & (wc >= min_words_per_line)
        kept_lines = (
            lx[keep_line].groupby(level=0).agg("\n".join).reindex(idx).fillna("")
        )
        n_kept = (
            keep_line.groupby(level=0).sum().reindex(idx).fillna(0).astype("int64")
        )
        out = pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "text": kept_lines,
                "n_lines": n_lines,
                "n_kept": n_kept,
            }
        )
        return out[(~bad_doc).to_numpy() & (n_kept >= min_kept_lines).to_numpy()]

    return ds.map_batches(clean, batch_format="pandas", batch_size=4096)


def dsir_scores(
    ds: ray.data.Dataset,
    target_col: str = "lang",
    target_value: str = "en",
    scale: int = 10_000,
    max_vocab: int = 2_000_000,
) -> ray.data.Dataset:
    """DSIR-style importance scores (Xie et al. 2023, "Data Selection
    for Language Models via Importance Resampling") in EXACT integer
    form: unigram feature counts from the target slice (rows where
    ``target_col == target_value``) vs the rest, add-one-smoothed
    ratio weights ``w(word) = (ct+1)*scale // (cs+1)``, per-document
    score = Σ over word OCCURRENCES of w(word). Returns (doc_id,
    dsir_score, is_target). Deterministic and SQL-twin-exact — the
    integer ratio replaces the paper's log-ratio monotonically enough
    for rank-based selection while keeping the hash gate exact.

    Physical plan: ONE word-keyed combiner-backed exchange builds the
    weight table; it is collected and broadcast once (``ray.put``),
    then scoring is a single streaming map over the corpus. The
    explicit-vocabulary weight table is bounded by ``max_vocab``
    (guarded); at open-web scale hash the words into a fixed bucket
    count first (store/dataset.splitmix64) so the broadcast side is
    O(buckets) regardless of vocabulary — same plan shape.
    """
    from ..store.dataset import bucketed_group_map

    def word_counts(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=["word", "ct", "cs"])
        tgt = (df[target_col] == target_value).to_numpy()
        words = df["text"].astype(str).str.split()
        ex = words.explode().dropna()
        is_t = pd.Series(tgt, index=df.index).reindex(ex.index)
        out = pd.DataFrame({"word": ex.to_numpy(), "t": is_t.to_numpy()})
        g = out.groupby(["word", "t"], sort=False).size().unstack(fill_value=0)
        res = pd.DataFrame({"word": g.index})
        res["ct"] = g[True].to_numpy() if True in g.columns else 0
        res["cs"] = g[False].to_numpy() if False in g.columns else 0
        return res.astype({"ct": "int64", "cs": "int64"})

    def sum_counts(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=["word", "ct", "cs"])
        out = df.groupby("word", sort=False)[["ct", "cs"]].sum().reset_index()
        return out.astype({"ct": "int64", "cs": "int64"})

    counts = bucketed_group_map(
        ds.map_batches(word_counts, batch_format="pandas"),
        ["word"],
        sum_counts,
        partial_fn=sum_counts,
    ).materialize()
    n_vocab = counts.count()
    if n_vocab > max_vocab:
        raise ValueError(
            f"dsir_scores explicit vocabulary ({n_vocab}) exceeds max_vocab="
            f"{max_vocab}; hash words into fixed buckets first "
            "(store/dataset.splitmix64) so the broadcast weight table is "
            "bounded"
        )
    wdf = counts.to_pandas()
    weights = {
        w: (int(ct) + 1) * scale // (int(cs) + 1)
        for w, ct, cs in zip(wdf["word"], wdf["ct"], wdf["cs"])
    }
    wref = ray.put(weights)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        wmap = cached_get(_MODEL_CACHE, wref)
        idx = df.index
        ex = df["text"].astype(str).str.split().explode().dropna()
        s = (
            ex.map(wmap)
            .groupby(level=0)
            .sum()
            .reindex(idx)
            .fillna(0)
            .astype("int64")
        )
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "dsir_score": s.to_numpy(),
                "is_target": (df[target_col] == target_value)
                .astype("int8")
                .to_numpy(),
            }
        )

    return ds.map_batches(score, batch_format="pandas", batch_size=4096)


def ngram_lm_scores(
    ds: ray.data.Dataset,
    ref_col: str = "lang",
    ref_value: str = "en",
    scale: int = 1_000_000,
    max_vocab: int = 2_000_000,
) -> ray.data.Dataset:
    """CCNet-style n-gram language-model scoring (Wenzek et al. 2020,
    "CCNet: Extracting High Quality Monolingual Datasets from Web Crawl
    Data"): train a bigram LM with add-one smoothing on the REFERENCE
    slice (rows where ``ref_col == ref_value``), then score every
    document by its total and per-token cross-entropy — the filter
    CCNet buckets corpora with (head/middle/tail by perplexity).

    Exact-integer contract (the dsir_scores discipline): every
    per-bigram cost is the MICRO-NAT integer
    ``round((ln(c1[w1] + V) - ln(c2[w1,w2] + 1)) * scale)`` — i.e.
    -ln p(w2|w1) under add-one smoothing, quantized once. The
    quantization happens on the DRIVER with scalar ``math.log`` while
    building the broadcast cost tables, so workers do integer lookups
    and int64 sums only — no vectorized-libm ulp drift can reach the
    output, and the plain-Python fixture twin reproduces the numbers
    bit-for-bit. Unseen bigram with known ``w1`` costs
    ``round(ln(c1[w1]+V)*scale)`` (numerator 1); unknown ``w1`` costs
    ``round(ln(V)*scale)``.

    Output: (doc_id, n_bigrams, lm_cost_micro, xent_micro, is_ref)
    with ``xent_micro = lm_cost_micro // n_bigrams`` (0 for docs under
    two tokens) — rank by ``xent_micro`` for the CCNet bucketing.

    Physical plan: ONE bigram-keyed combiner-backed exchange over the
    reference slice builds the count table; costs are broadcast once
    (``ray.put``), scoring is a single streaming map. The explicit
    table is bounded by ``max_vocab`` (guarded); at open-web scale
    hash bigrams into fixed buckets first (store/dataset.splitmix64)
    so the broadcast side is O(buckets).
    """
    import math

    from ..store.dataset import bucketed_group_map

    def bigram_counts(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=["w1", "w2", "c"])
        ref = df[df[ref_col] == ref_value]
        if not len(ref):
            return pd.DataFrame(columns=["w1", "w2", "c"])
        words = ref["text"].astype(str).str.split()
        w1s: list[str] = []
        w2s: list[str] = []
        for toks in words:
            w1s.extend(toks[:-1])
            w2s.extend(toks[1:])
        if not w1s:
            return pd.DataFrame(columns=["w1", "w2", "c"])
        out = (
            pd.DataFrame({"w1": w1s, "w2": w2s})
            .groupby(["w1", "w2"], sort=False)
            .size()
            .rename("c")
            .reset_index()
        )
        return out.astype({"c": "int64"})

    def sum_counts(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=["w1", "w2", "c"])
        out = df.groupby(["w1", "w2"], sort=False)["c"].sum().reset_index()
        return out.astype({"c": "int64"})

    counts = bucketed_group_map(
        ds.map_batches(bigram_counts, batch_format="pandas"),
        ["w1"],
        sum_counts,
        partial_fn=sum_counts,
    ).materialize()
    n_bigram_vocab = counts.count()
    if n_bigram_vocab > max_vocab:
        raise ValueError(
            f"ngram_lm_scores explicit bigram vocabulary ({n_bigram_vocab}) "
            f"exceeds max_vocab={max_vocab}; hash bigrams into fixed "
            "buckets first (store/dataset.splitmix64) so the broadcast "
            "cost table is bounded"
        )
    cdf = counts.to_pandas()
    c1: dict[str, int] = {}
    for w1, c in zip(cdf["w1"], cdf["c"]):
        c1[w1] = c1.get(w1, 0) + int(c)
    # vocabulary size for add-one smoothing: distinct UNIGRAM types in
    # the reference (all words, incl. final tokens = distinct w1 ∪ w2)
    vocab = set(c1)
    vocab.update(cdf["w2"])
    V = max(1, len(vocab))
    # quantize every cost ONCE, with scalar math.log, on the driver
    cost2 = {
        (w1, w2): round((math.log(c1[w1] + V) - math.log(int(c) + 1)) * scale)
        for w1, w2, c in zip(cdf["w1"], cdf["w2"], cdf["c"])
    }
    cost1 = {w1: round(math.log(cnt + V) * scale) for w1, cnt in c1.items()}
    cost0 = round(math.log(V) * scale)
    tref = ray.put((cost2, cost1, cost0))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        t2, t1, t0 = cached_get(_MODEL_CACHE, tref)
        totals: list[int] = []
        nbs: list[int] = []
        for text in df["text"].astype(str):
            toks = text.split()
            tot = 0
            for a, b in zip(toks[:-1], toks[1:]):
                c = t2.get((a, b))
                if c is None:
                    c = t1.get(a, t0)
                tot += c
            n = max(0, len(toks) - 1)
            totals.append(tot)
            nbs.append(n)
        nb = np.asarray(nbs, dtype=np.int64)
        tots = np.asarray(totals, dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_bigrams": nb,
                "lm_cost_micro": tots,
                "xent_micro": np.where(nb > 0, tots // np.maximum(nb, 1), 0),
                "is_ref": (df[ref_col] == ref_value).astype("int8").to_numpy(),
            }
        )

    return ds.map_batches(score, batch_format="pandas", batch_size=4096)


def byte_entropy_stats(
    ds: ray.data.Dataset,
    text_col: str = "text",
    scale: int = 1_000_000,
    max_len: int = 1 << 20,
) -> ray.data.Dataset:
    """Per-document Shannon entropy of the UTF-8 BYTE distribution —
    the classic gibberish/boilerplate quality signal (low entropy =
    repetitive filler, near-8-nat entropy on bytes = binary junk),
    in EXACT micro-nat integers:

        ent_micro = ( Σ_b c_b · (LOG[L] − LOG[c_b]) ) // L
        LOG[k]    = round(ln(k) · scale)     (LOG[0] := 0; c_b=0 terms
                                              vanish under the c_b·…)

    Determinism contract (the ngram_lm_scores discipline): the LOG
    table is quantized ONCE on the driver with scalar ``math.log`` and
    broadcast via ``ray.put`` — workers do int64 bincounts, lookups
    and sums only, so no vectorized-libm ulp drift can reach the
    value-hash gate and the plain-Python fixture twin reproduces every
    number bit-for-bit.

    Physical plan: one streaming map. Per batch the byte histograms
    are computed WITHOUT a per-document Python loop: document byte
    lengths come off the Arrow string offsets, and one
    ``np.bincount(doc_idx·256 + byte)`` builds the (docs × 256) count
    matrix. Documents longer than ``max_len`` bytes raise (the LOG
    table bound — raise, never silently mis-score).

    Output: (doc_id, n_bytes, distinct_bytes, entropy_micro_nats),
    one row per input document (empty/null text → zeros).
    """
    import math

    log_tbl = np.zeros(max_len + 1, dtype=np.int64)
    for k in range(1, max_len + 1):
        log_tbl[k] = round(math.log(k) * scale)
    tbl_ref = ray.put(log_tbl)
    _cache: dict = {}

    def score(batch: pa.Table) -> pa.Table:
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        text = pc.fill_null(text, "")
        if pa.types.is_large_string(text.type):
            text = text.cast(pa.string())
        n = len(text)
        tbl = cached_get(_cache, tbl_ref)
        # byte lengths straight off the Arrow offsets buffer
        offs = np.frombuffer(text.buffers()[1], dtype=np.int32)[
            text.offset : text.offset + n + 1
        ].astype(np.int64)
        lens = np.diff(offs)
        if lens.max(initial=0) > max_len:
            raise ValueError(
                f"document exceeds max_len={max_len} bytes — raise "
                "max_len (the LOG-table bound) for this corpus"
            )
        data = np.frombuffer(text.buffers()[2], dtype=np.uint8)[
            offs[0] : offs[-1]
        ]
        ids = np.repeat(np.arange(n, dtype=np.int64), lens)
        counts = np.bincount(
            ids * 256 + data, minlength=n * 256
        ).reshape(n, 256)
        safe_l = np.maximum(lens, 1)
        ent = (counts * (tbl[safe_l][:, None] - tbl[counts])).sum(
            axis=1
        ) // safe_l
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bytes": pa.array(lens, pa.int64()),
                "distinct_bytes": pa.array(
                    (counts > 0).sum(axis=1).astype(np.int64), pa.int64()
                ),
                "entropy_micro_nats": pa.array(ent, pa.int64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")
