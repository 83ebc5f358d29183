"""Deduplication stages: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

All are Dataset plans built from map_batches + bucketed groupbys, with
the same scale shape as the triple dedup (G17): per-block combiners
before every shuffle, hash buckets so reduce UDF calls are O(buckets),
candidate verification before any pair is accepted, and union-find
(pipelines.canonicalize) for clustering.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..pipelines.canonicalize import connected_components
from ..bcast import cached_get

# ---------------------------------------------------------------------------
# Exact dedup
# ---------------------------------------------------------------------------


def exact_dedup(
    ds: ray.data.Dataset,
    key: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Keep one row per distinct ``key`` — the row with the smallest
    ``id_col`` (deterministic winner). Hash-partition on key bucket,
    per-block combiner first."""

    def local_first(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(id_col, kind="stable").drop_duplicates(subset=[key])
        df = df.copy()
        df["__bucket"] = (
            pd.util.hash_pandas_object(df[key], index=False) % num_buckets
        ).astype("int64")
        return df

    def bucket_first(df: pd.DataFrame) -> pd.DataFrame:
        out = df.sort_values(id_col, kind="stable").drop_duplicates(subset=[key])
        return out.drop(columns=["__bucket"])

    return (
        ds.map_batches(local_first, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(bucket_first, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Shingling + MinHash + LSH
# ---------------------------------------------------------------------------


def _make_crc32_table() -> np.ndarray:
    """The standard CRC-32 (zlib polynomial 0xEDB88320) lookup table —
    lets the shingle kernel compute byte-exact zlib.crc32 values with k
    vectorized numpy ops per document instead of a Python loop per
    k-gram."""
    table = np.empty(256, dtype=np.uint32)
    for i in range(256):
        c = np.uint32(i)
        for _ in range(8):
            c = (c >> np.uint32(1)) ^ (
                np.uint32(0xEDB88320) if c & np.uint32(1) else np.uint32(0)
            )
        table[i] = c
    return table


_CRC32_TABLE = _make_crc32_table()

# per-byte popcount lookup — vectorized 64-bit hamming distance is one
# uint8 view + table gather + row sum (numpy<2 has no bitwise_count)
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _shingles(text: str, k: int) -> np.ndarray:
    """Character (byte) k-gram shingle set as a sorted unique uint32
    array of crc32 hashes — value-identical to ``zlib.crc32`` over each
    byte window (deterministic across processes, unlike built-in hash),
    but computed with a numpy sliding window + table-driven CRC: k
    vectorized passes over all windows at once, no per-window Python."""
    data = np.frombuffer(text.encode(), dtype=np.uint8)
    if len(data) < k:
        if not text:
            return np.empty(0, dtype=np.uint32)
        return np.array([zlib.crc32(bytes(data))], dtype=np.uint32)
    win = np.lib.stride_tricks.sliding_window_view(data, k)
    crc = np.full(len(win), 0xFFFFFFFF, dtype=np.uint32)
    for j in range(k):
        crc = (crc >> np.uint32(8)) ^ _CRC32_TABLE[
            (crc ^ win[:, j]) & np.uint32(0xFF)
        ]
    return np.unique(crc ^ np.uint32(0xFFFFFFFF))


def jaccard(a, b) -> float:
    """Exact Jaccard over two shingle collections (unique uint32 arrays
    from :func:`_shingles`; plain sets also accepted)."""
    if isinstance(a, (set, frozenset)) or isinstance(b, (set, frozenset)):
        a, b = set(a.tolist() if isinstance(a, np.ndarray) else a), set(
            b.tolist() if isinstance(b, np.ndarray) else b
        )
        if not a and not b:
            return 1.0
        return len(a & b) / max(1, len(a | b))
    if len(a) == 0 and len(b) == 0:
        return 1.0
    inter = len(np.intersect1d(a, b, assume_unique=True))
    return inter / max(1, len(a) + len(b) - inter)


class MinHasher:
    """Actor stage: per-doc MinHash signature (num_perm permutations of
    32-bit shingle hashes via the (a*x+b) mod p universal family).
    Permutation coefficients generated once per actor from a fixed
    seed."""

    P = (1 << 61) - 1

    def __init__(self, k: int = 5, num_perm: int = 64, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.k = k
        self.num_perm = num_perm
        # a,b < 2^31 so a*x + b with 32-bit shingle hashes stays inside
        # uint64 (< 2^63 + 2^31) — overflow-free native vector math, no
        # Python-object bignums in the hot loop.
        self.a = rng.randint(1, 1 << 31, size=num_perm).astype(np.uint64)
        self.b = rng.randint(0, 1 << 31, size=num_perm).astype(np.uint64)

    def signature(self, text: str) -> np.ndarray:
        sh = _shingles(text, self.k).astype(np.uint64)
        if len(sh) == 0:
            return np.zeros(self.num_perm, dtype=np.uint64)
        # (a * x + b) mod p, min over shingles — vectorized outer product
        vals = (self.a[:, None] * sh[None, :] + self.b[:, None]) % np.uint64(self.P)
        return np.min(vals, axis=1)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        sigs = [self.signature(t) for t in df["text"]]
        out = df[["doc_id"]].copy()
        out["sig"] = [s.tolist() for s in sigs]
        return out


# Per-worker cache of MinHasher instances keyed by parameters — task
# pools get actor-like "state built once per worker" without paying
# the several seconds of Ray Data actor-pool startup/queueing (the
# permutation coefficients are tiny and seeded, so every worker builds
# the identical state).
_MINHASHER_CACHE: dict = {}


def _minhash_batch(df: pd.DataFrame, k=5, num_perm=64) -> pd.DataFrame:
    key = (k, num_perm)
    h = _MINHASHER_CACHE.get(key)
    if h is None:
        h = _MINHASHER_CACHE[key] = MinHasher(k=k, num_perm=num_perm)
    return h(df)


def minhash_signatures(
    ds: ray.data.Dataset, k: int = 5, num_perm: int = 64, concurrency=None
) -> ray.data.Dataset:
    """Per-doc MinHash signatures. Task pool with per-worker cached
    state (see _MINHASHER_CACHE); pass ``concurrency`` to force the
    actor-pool form instead — the right shape only when per-actor
    state is heavy. Explicit repartition between the I/O-bound read
    (few fat blocks) and this CPU-bound stage so every slot has
    work — the doctrine's read→compute exchange."""
    cpus = int(ray.cluster_resources().get("CPU", 8))
    ds = ds.repartition(cpus * 2)
    if concurrency is not None:
        return ds.map_batches(
            MinHasher,
            fn_constructor_kwargs={"k": k, "num_perm": num_perm},
            batch_format="pandas",
            batch_size=1024,
            concurrency=concurrency,
        )
    return ds.map_batches(
        _minhash_batch,
        fn_kwargs={"k": k, "num_perm": num_perm},
        batch_format="pandas",
        batch_size=1024,
    )


def auto_bands(num_perm: int, threshold: float) -> int:
    """Banding aligned with the verify threshold: the LSH s-curve for
    ``b`` bands of ``r = num_perm // b`` rows fires at
    ``t ≈ (1/b)^(1/r)``. Pick the SMALLEST band count whose s-curve
    threshold does not exceed the verify threshold — the fewest
    candidates that still give high recall at and above the threshold
    (for num_perm=64: threshold 0.85 → b=8, t≈0.77; threshold 0.5 →
    b=16, t=0.5). A misaligned banding (e.g. b=16/r=4 firing at J≈0.5
    under a 0.85 verify bar) floods verification with candidates that
    then all fail — measured 5.6× on the round-2 bench."""
    best = num_perm
    for b in range(1, num_perm + 1):
        if num_perm % b:
            continue
        r = num_perm // b
        if (1.0 / b) ** (1.0 / r) <= threshold:
            return b
    return best


def _banded(
    sigs: ray.data.Dataset, bands: int, num_buckets: int
) -> ray.data.Dataset:
    """Signatures → one (doc_id, band_id, band_hash, __bucket) row per
    band — the shared front half of every LSH candidate generator."""

    def to_bands(df: pd.DataFrame) -> pd.DataFrame:
        rows_doc, rows_band, rows_hash = [], [], []
        for doc_id, sig in zip(df["doc_id"], df["sig"]):
            sig = np.asarray(sig, dtype=np.uint64)
            r = len(sig) // bands
            for b in range(bands):
                chunk = sig[b * r : (b + 1) * r]
                rows_doc.append(doc_id)
                rows_band.append(b)
                rows_hash.append(zlib.crc32(chunk.tobytes()))
        out = pd.DataFrame(
            {"doc_id": rows_doc, "band_id": rows_band, "band_hash": rows_hash}
        )
        out["__bucket"] = (
            pd.util.hash_pandas_object(
                out["band_id"].astype(str) + ":" + out["band_hash"].astype(str),
                index=False,
            )
            % num_buckets
        ).astype("int64")
        return out

    return sigs.map_batches(to_bands, batch_format="pandas")


def lsh_candidate_pairs(
    sigs: ray.data.Dataset,
    bands: int = 16,
    num_buckets: int = 64,
    mode: str = "star",
    clique_cap: int = 2048,
) -> ray.data.Dataset:
    """Signatures → (band_id, band_hash) buckets → candidate doc pairs.

    ``mode="star"`` (default): anchor→member edges PLUS consecutive
    member↔member chain edges per bucket (2(k-1) edges total) —
    linear in bucket size, so immune to the quadratic blowup on
    template-heavy corpora, while feeding enough edges to a union-find
    clustering (minhash_dedup). The chain edges exist because the
    downstream exact-Jaccard verify can FAIL an anchor edge: with star
    edges alone, two true near-dups whose anchor edges both fail
    (J(A,B)=0.7, J(A,C)=0.7, J(B,C)=0.9 at threshold 0.8) would never
    be compared; the chain pairs adjacent members directly. Residual
    caveat (documented, inherent to sub-quadratic candidates): a
    member pair that is neither anchor-adjacent nor chain-adjacent in
    any shared bucket is still never verified, so star mode can
    under-merge relative to ``mode="clique"``, which verifies all
    k²/2 in-bucket pairs and is required when the *pair list itself*
    is the result (ngram_jaccard_pairs). Even in clique mode, an LSH
    bucket larger than ``clique_cap`` docs degrades to star+chain
    edges: a 10⁵-doc template bucket would otherwise emit 5×10⁹ pairs
    in ONE reduce task. At that bucket size the docs are
    near-identical boilerplate and linear edges preserve the
    dedup-relevant connectivity; the cap bounds the worst
    single-bucket output at clique_cap²/2 pairs."""

    banded = _banded(sigs, bands, num_buckets)

    def pairs_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # STAR+CHAIN edges (anchor→member plus adjacent member pairs),
        # not the full clique: 2(k-1) edges per bucket — on
        # template-heavy corpora (huge LSH buckets) this is the
        # difference between 10^5 and 10^7 verifications. The chain
        # half protects against verify-failed anchor edges (see
        # docstring). Pair construction is numpy per group (triu
        # indices / slicing), no per-pair Python.
        parts = []
        for _, g in df.groupby(["band_id", "band_hash"], sort=False):
            ids = np.sort(pd.unique(g["doc_id"].to_numpy()))
            n = len(ids)
            if n < 2:
                continue
            if mode == "clique" and n <= clique_cap:
                i, j = np.triu_indices(n, k=1)
                parts.append((ids[i], ids[j]))
            else:
                parts.append(
                    (
                        np.concatenate((np.full(n - 1, ids[0]), ids[1:-1])),
                        np.concatenate((ids[1:], ids[2:])),
                    )
                )
        if not parts:
            return pd.DataFrame(
                {
                    "src_id": pd.Series(dtype="int64"),
                    "dst_id": pd.Series(dtype="int64"),
                }
            )
        out = pd.DataFrame(
            {
                "src_id": np.concatenate([p[0] for p in parts]),
                "dst_id": np.concatenate([p[1] for p in parts]),
            }
        ).drop_duplicates()
        return out

    return banded.groupby("__bucket").map_groups(pairs_in_bucket, batch_format="pandas")


# Per-worker text→shingle-array cache for the join-based verifier:
# a doc that appears in many candidate pairs is shingled once per
# worker, not once per pair. Keyed by the TEXT (not doc_id — ids
# collide across datasets sharing one Ray session). Bounded (cleared
# past _SHINGLE_CACHE_MAX) so a worker that streams millions of
# candidate rows can't grow an unbounded heap.
_SHINGLE_CACHE: dict = {}
_SHINGLE_CACHE_MAX = 16384


def _cached_shingles(text, k: int) -> np.ndarray:
    key = (k, text)
    s = _SHINGLE_CACHE.get(key)
    if s is None:
        if len(_SHINGLE_CACHE) >= _SHINGLE_CACHE_MAX:
            _SHINGLE_CACHE.clear()
        s = _SHINGLE_CACHE[key] = _shingles("" if text is None else text, k)
    return s


def _verify_joined_batch(df: pd.DataFrame, k=5, threshold=0.8) -> pd.DataFrame:
    """Verify kernel over already-joined candidate rows
    (src_id, dst_id, src_text, dst_text): exact Jaccard per pair, keep
    rows at or above the threshold. The texts arrive WITH the pair via
    the bucketed hash-joins in :func:`verify_pairs` — no driver-side
    corpus map, no broadcast."""
    if not len(df):
        return pd.DataFrame(
            {
                "src_id": pd.Series(dtype=df["src_id"].dtype if "src_id" in df else "int64"),
                "dst_id": pd.Series(dtype=df["dst_id"].dtype if "dst_id" in df else "int64"),
                "jaccard": pd.Series(dtype="float64"),
            }
        )
    sims = [
        jaccard(_cached_shingles(st, k), _cached_shingles(dt, k))
        for st, dt in zip(df["src_text"], df["dst_text"])
    ]
    out = df[["src_id", "dst_id"]].copy()
    out["jaccard"] = pd.Series(sims, index=df.index, dtype="float64")
    return out[out["jaccard"] >= threshold]


# Past this many candidate PAIRS the id-set semi-join prefilter is
# skipped (the id broadcast would no longer be "small-side"): the
# joins then run against the full corpus — still bucketed exchanges,
# never a text broadcast.
SEMI_FILTER_MAX_PAIRS = 2_000_000

# Below this many DISTINCT candidate member docs, verification skips
# the join shuffles entirely: only the member texts (selected by a
# pushed-down membership filter — never the corpus) are broadcast once
# and pairs verify in a pure map. Same size-cutover discipline as the
# KG pipeline's DRIVER_SMALL_MAX; the join path above the bound is
# pinned by tests.
SMALL_VERIFY_MAX_MEMBERS = 100_000


def _verify_broadcast_batch(
    df: pd.DataFrame, texts_ref=None, k=5, threshold=0.8
) -> pd.DataFrame:
    """Small-branch verify kernel: texts of candidate MEMBERS (not the
    corpus) fetched once per worker from the broadcast ref."""
    texts = cached_get(_MEMBER_CACHE, texts_ref)
    sims = [
        jaccard(
            _cached_shingles(texts.get(s, ""), k), _cached_shingles(texts.get(d, ""), k)
        )
        for s, d in zip(df["src_id"], df["dst_id"])
    ]
    out = df[["src_id", "dst_id"]].copy()
    out["jaccard"] = pd.Series(sims, index=df.index, dtype="float64")
    return out[out["jaccard"] >= threshold]


def verify_pairs(
    cands: ray.data.Dataset,
    docs: ray.data.Dataset,
    k: int = 5,
    threshold: float = 0.8,
    num_buckets: int = 64,
    small_max_members: int = SMALL_VERIFY_MAX_MEMBERS,
    texts_ref=None,
) -> ray.data.Dataset:
    """Exact-Jaccard verification of candidate (src_id, dst_id) pairs
    with NO whole-corpus materialization, adaptive in the candidate
    size (both paths produce identical rows; tests pin the fallback):

    - SMALL (≤ ``small_max_members`` distinct member docs — the normal
      LSH regime): the candidate id set (ints) selects member texts
      via a pushed-down membership filter; only THOSE texts cross the
      wire, broadcast once, and pairs verify in one streaming map with
      no extra exchange. Bounded by the candidate set, not the corpus.
    - LARGE: two bucketed hash-joins (candidates ⋈ texts on src_id,
      then dst_id) ship each pair its two texts; the shingle/Jaccard
      kernel runs inside the merged buckets. Both exchanges key on a
      small-int hash bucket; the corpus streams. A semi-join id
      prefilter (guarded by SEMI_FILTER_MAX_PAIRS) shrinks the docs
      side to candidate members before the exchanges when the pair
      count allows broadcasting the ids.

    This replaces the round-1 driver-side whole-corpus text broadcast:
    in every branch, what crosses the wire is bounded by the CANDIDATE
    set (ids or member texts), never by corpus size.

    ``texts_ref``: a caller that ALREADY holds a broadcast
    {doc_id: text} map covering every candidate member (e.g. the
    two-phase verifier sharing one gather across both verify rounds)
    passes its ref here — the kernel runs as one streaming map with no
    id gathering, no membership filter and no extra plan execution.
    The caller owns the coverage guarantee."""
    from ..store.dataset import hash_join, hash_join_schema

    if texts_ref is not None:
        return cands.map_batches(
            _verify_broadcast_batch,
            fn_kwargs={"texts_ref": texts_ref, "k": k, "threshold": threshold},
            batch_format="pandas",
        )

    cands = cands.materialize()
    n_pairs = cands.count()

    id_set = None
    if n_pairs <= SEMI_FILTER_MAX_PAIRS:
        def ids_of(batch: pa.Table) -> pa.Table:
            both = pa.concat_arrays(
                [
                    batch["src_id"].combine_chunks().cast(pa.int64()),
                    batch["dst_id"].combine_chunks().cast(pa.int64()),
                ]
            )
            return pa.table({"doc_id": both.unique()})

        id_rows = cands.map_batches(ids_of, batch_format="pyarrow").take_all()
        id_set = pa.array(
            np.unique(np.asarray([r["doc_id"] for r in id_rows], dtype=np.int64))
        )

    if id_set is not None:
        ids_ref = ray.put(id_set)

        def member_docs(batch: pa.Table, ids_ref=None) -> pa.Table:
            wanted = cached_get(_MEMBER_CACHE, ids_ref)
            mask = pc.is_in(pc.cast(batch["doc_id"], pa.int64()), value_set=wanted)
            return batch.filter(mask)

        members = docs.map_batches(
            member_docs, fn_kwargs={"ids_ref": ids_ref}, batch_format="pyarrow"
        )
        if len(id_set) <= small_max_members:
            # SMALL branch: gather member texts (bounded by candidates)
            # and verify in one map — no join exchanges.
            texts = {
                r["doc_id"]: r["text"]
                for r in members.select_columns(["doc_id", "text"]).take_all()
            }
            texts_ref = ray.put(texts)
            return cands.map_batches(
                _verify_broadcast_batch,
                fn_kwargs={"texts_ref": texts_ref, "k": k, "threshold": threshold},
                batch_format="pandas",
            )
        docs = members

    def as_src(df: pd.DataFrame) -> pd.DataFrame:
        return df[["doc_id", "text"]].rename(
            columns={"doc_id": "src_id", "text": "src_text"}
        )

    def as_dst(df: pd.DataFrame) -> pd.DataFrame:
        return df[["doc_id", "text"]].rename(
            columns={"doc_id": "dst_id", "text": "dst_text"}
        )

    src_side = docs.map_batches(as_src, batch_format="pandas")
    dst_side = docs.map_batches(as_dst, batch_format="pandas")
    # static side schemas skip three Dataset.schema() probes, each of
    # which would execute a corpus-rooted lazy plan (see hash_join doc)
    c_sch = cands.schema()
    s_sch = pa.schema([("src_id", pa.int64()), ("src_text", pa.string())])
    d_sch = pa.schema([("dst_id", pa.int64()), ("dst_text", pa.string())])
    with_src = hash_join(
        cands, src_side, on="src_id", num_buckets=num_buckets,
        schemas=(c_sch, s_sch),
    )
    with_both = hash_join(
        with_src, dst_side, on="dst_id", num_buckets=num_buckets,
        schemas=(hash_join_schema(c_sch, s_sch, "src_id"), d_sch),
    )
    return with_both.map_batches(
        _verify_joined_batch,
        fn_kwargs={"k": k, "threshold": threshold},
        batch_format="pandas",
    )


# per-worker cache of broadcast candidate-id / member-text objects
_MEMBER_CACHE: dict = {}


def _repair_pairs(df: pd.DataFrame, clique_cap: int) -> pd.DataFrame:
    """Phase-2 pair builder shared by the distributed and
    driver-coordinated two-phase verifiers: per bucket (``bkey``), each
    FAILED member (failed=1 rows) is re-paired against every other
    member; buckets larger than ``clique_cap`` chain their failed
    members instead. Vectorized per bucket (np.repeat/np.tile), no
    per-pair Python."""
    parts = []
    chain_src, chain_dst = [], []
    for _, g in df.groupby("bkey", sort=False):
        ids = np.sort(g.loc[g["failed"] == 0, "doc_id"].unique())
        fids = np.sort(g.loc[g["failed"] == 1, "doc_id"].unique())
        if not len(fids) or len(ids) < 3:
            continue
        anchor = ids[0]
        if len(ids) > clique_cap:
            # oversized collision bucket: chain the failed members
            chain = np.union1d(fids, [anchor])
            chain_src.extend(chain[:-1])
            chain_dst.extend(chain[1:])
            continue
        a = np.repeat(fids, len(ids))
        b = np.tile(ids, len(fids))
        fset_b = np.isin(b, fids, assume_unique=False)
        # drop self pairs, anchor pairs (already verified), and the
        # duplicate orientation of failed-failed pairs
        keep = (a != b) & (b != anchor) & ~(fset_b & (b < a))
        a, b = a[keep], b[keep]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        parts.append(pd.DataFrame({"src_id": lo, "dst_id": hi}))
    if chain_src:
        parts.append(pd.DataFrame({"src_id": chain_src, "dst_id": chain_dst}))
    if not parts:
        return pd.DataFrame(
            {
                "src_id": pd.Series(dtype="int64"),
                "dst_id": pd.Series(dtype="int64"),
            }
        )
    return pd.concat(parts, ignore_index=True).drop_duplicates()


def _anchor_rows(df: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, band_id, band_hash) bucket rows → per-bucket anchor
    star edges (bkey, src_id=anchor, dst_id=member), numpy per group."""
    parts = []
    for (b, h), g in df.groupby(["band_id", "band_hash"], sort=False):
        ids = np.sort(pd.unique(g["doc_id"].to_numpy()))
        n = len(ids)
        if n < 2:
            continue
        key = (int(b) << 32) | int(h)
        parts.append((np.full(n - 1, key), np.full(n - 1, ids[0]), ids[1:]))
    if not parts:
        return pd.DataFrame(
            {
                "bkey": pd.Series(dtype="int64"),
                "src_id": pd.Series(dtype="int64"),
                "dst_id": pd.Series(dtype="int64"),
            }
        )
    return pd.DataFrame(
        {
            "bkey": np.concatenate([p[0] for p in parts]).astype("int64"),
            "src_id": np.concatenate([p[1] for p in parts]),
            "dst_id": np.concatenate([p[2] for p in parts]),
        }
    )


def _anchor_pairs(
    sigs: ray.data.Dataset, bands: int, num_buckets: int
) -> ray.data.Dataset:
    """Signatures → materialized (bkey, src_id, dst_id) anchor-edge
    table — the shared phase-1 input of both two-phase verifiers."""
    return (
        _banded(sigs, bands, num_buckets)
        .groupby("__bucket")
        .map_groups(_anchor_rows, batch_format="pandas")
        .materialize()
    )


def verified_near_dup_edges(
    ds: ray.data.Dataset,
    sigs: ray.data.Dataset,
    k: int = 5,
    threshold: float = 0.8,
    bands: int = 16,
    num_buckets: int = 64,
    clique_cap: int = 2048,
    mem_pairs: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """Two-phase, CLIQUE-EQUIVALENT near-dup edge verification at
    near-star cost (the "verify anchor edges and re-pair failures"
    remedy):

    - Phase 1 verifies only the (anchor=min-id, member) star edges of
      every LSH bucket — k−1 pairs per bucket.
    - Phase 2 re-pairs each member whose anchor edge FAILED against
      every other member of that same bucket and verifies those.

    Component-equivalence to verifying the full in-bucket clique: a
    clique edge (u, v) either has both endpoints anchor-verified — then
    u∼anchor∼v already connects them and the edge is redundant for
    union-find — or involves a failed member, in which case (u, v) is a
    phase-2 candidate and is verified directly. So the connected
    components (and therefore the dedup survivors) are identical to
    clique mode, while the pair count is (k−1) + |failed|·(k−1) per
    bucket instead of k(k−1)/2 — near-linear on true-duplicate buckets
    (anchor edges pass), quadratic only in mostly-collision buckets,
    and capped: a bucket larger than ``clique_cap`` chains its failed
    members instead (documented under-merge bound shared with
    clique mode's own cap degradation). Returns verified
    (src_id, dst_id, jaccard) edges.

    Round-2 measurement on the synthetic sf0.1 corpus (an adversarial
    case: a b=16/r=4 banding firing at J≈0.5 under a 0.8 verify bar,
    so ~all anchor edges failed): star 4.0 s / clique 10.5 s /
    two-phase 14.8 s — worst case ≈ clique pairs plus the second
    verify round's exchange latency. On a corpus where buckets are
    mostly true duplicates the failed set is small and the cost
    collapses toward star. Round 3 removed the adversarial case at the
    source: ``minhash_dedup`` now aligns the banding with the verify
    threshold by default (:func:`auto_bands` — candidate volume ~25×
    lower at 77% boundary recall, 99.5% at J=0.90), shares ONE
    member-text gather across both verify rounds, and short-circuits
    phase 2 when every anchor edge verifies."""
    from ..store.dataset import distinct_on, hash_join

    if mem_pairs is None:
        mem_pairs = _anchor_pairs(sigs, bands, num_buckets)

    # One member-text gather SHARED by both verify rounds (phase-2
    # pairs are built from the same bucket members, so the phase-1 id
    # universe covers them). In the small regime this removes per-round
    # id gathering, membership filters and the global pair distincts —
    # a duplicate (src,dst) verified once per shared bucket is cheaper
    # than the distinct exchange, and downstream union-find is
    # insensitive to duplicate edges. Above the bounds, fall back to
    # the round-2 plan: global distinct, then the bucketed-join verify.
    texts_ref = None
    if mem_pairs.count() <= SEMI_FILTER_MAX_PAIRS:
        def ids_of(batch: pa.Table) -> pa.Table:
            both = pa.concat_arrays(
                [
                    batch["src_id"].combine_chunks().cast(pa.int64()),
                    batch["dst_id"].combine_chunks().cast(pa.int64()),
                ]
            )
            return pa.table({"doc_id": both.unique()})

        id_rows = mem_pairs.map_batches(ids_of, batch_format="pyarrow").take_all()
        ids = np.unique(np.asarray([r["doc_id"] for r in id_rows], dtype=np.int64))
        if len(ids) <= SMALL_VERIFY_MAX_MEMBERS:
            ids_arr = pa.array(ids)
            ids_ref = ray.put(ids_arr)

            def member_docs(batch: pa.Table, ids_ref=None) -> pa.Table:
                wanted = cached_get(_MEMBER_CACHE, ids_ref)
                mask = pc.is_in(
                    pc.cast(batch["doc_id"], pa.int64()), value_set=wanted
                )
                return batch.filter(mask)

            texts = {
                r["doc_id"]: r["text"]
                for r in ds.map_batches(
                    member_docs, fn_kwargs={"ids_ref": ids_ref},
                    batch_format="pyarrow",
                ).select_columns(["doc_id", "text"]).take_all()
            }
            texts_ref = ray.put(texts)

    def drop_bkey(df: pd.DataFrame) -> pd.DataFrame:
        return df[["src_id", "dst_id"]]

    p1 = mem_pairs.map_batches(drop_bkey, batch_format="pandas")
    if texts_ref is None:
        p1 = distinct_on(p1, ["src_id", "dst_id"], num_buckets)
    v1 = verify_pairs(
        p1, ds, k=k, threshold=threshold, num_buckets=num_buckets,
        texts_ref=texts_ref,
    ).materialize()

    # failed anchor pairs → their (bkey, member) rows; short-circuit
    # phase 2 entirely when every anchor edge verified (the common case
    # once banding is threshold-aligned — buckets are mostly true dups)
    failed = hash_join(
        mem_pairs,
        v1,
        on=["src_id", "dst_id"],
        how="anti",
        num_buckets=num_buckets,
    ).materialize()
    if failed.count() == 0:
        return v1

    def fail_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"bkey": df["bkey"], "doc_id": df["dst_id"], "failed": 1}
        )

    def member_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.concat(
            [
                pd.DataFrame({"bkey": df["bkey"], "doc_id": df["src_id"]}),
                pd.DataFrame({"bkey": df["bkey"], "doc_id": df["dst_id"]}),
            ],
            ignore_index=True,
        ).drop_duplicates()
        out["failed"] = 0
        return out

    tagged = mem_pairs.map_batches(member_rows, batch_format="pandas").union(
        failed.map_batches(fail_rows, batch_format="pandas")
    )

    def repair(df: pd.DataFrame) -> pd.DataFrame:
        return _repair_pairs(df, clique_cap)

    from ..store.dataset import bucketed_group_map

    p2 = bucketed_group_map(tagged, ["bkey"], repair, num_buckets)
    if texts_ref is None:
        p2 = distinct_on(p2, ["src_id", "dst_id"], num_buckets)
    v2 = verify_pairs(
        p2, ds, k=k, threshold=threshold, num_buckets=num_buckets,
        texts_ref=texts_ref,
    )
    return v1.union(v2)


def _exact_collapse(
    ds: ray.data.Dataset, key: str, id_col: str, num_buckets: int
) -> ray.data.Dataset:
    """Exact-duplicate collapse keeping the min-STRING ``id_col`` row
    per distinct ``key`` — the SAME representative rule as the
    component labels (string node ids), which is what makes collapsing
    before near-dup detection semantics-preserving (see minhash_dedup).
    Same two-stage shape as :func:`exact_dedup` (per-block combiner →
    one bucketed exchange)."""

    def local_rep(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df.assign(
                __bucket=pd.Series(dtype="int64")
            )
        sid = df[id_col].astype(str)
        idx = sid.groupby(df[key], sort=False).idxmin()
        out = df.loc[idx].copy()
        out["__bucket"] = (
            pd.util.hash_pandas_object(out[key], index=False) % num_buckets
        ).astype("int64")
        return out

    def bucket_rep(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df.drop(columns=["__bucket"], errors="ignore")
        sid = df[id_col].astype(str)
        idx = sid.groupby(df[key], sort=False).idxmin()
        return df.loc[idx].drop(columns=["__bucket"])

    return (
        ds.map_batches(local_rep, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(bucket_rep, batch_format="pandas")
    )


# Driver-coordination bounds for minhash_dedup's small regime (the
# same size-cutover discipline as DRIVER_SMALL_MAX in the KG pipeline
# and connected_components' small_threshold): at or below these, the
# verify rounds and union-find run driver-coordinated over raw Ray
# tasks — one streaming execution for candidates, zero join exchanges —
# instead of ~8 small plan executions whose fixed latency dominates at
# bench scale. Above them, the fully distributed two-phase plan runs.
MINHASH_DRIVER_MAX_PAIRS = 2_000_000


@ray.remote
def _member_texts_task(tbl: pa.Table, ids: np.ndarray) -> pa.Table:
    """Filter one pinned corpus block to the candidate-member rows.
    Empty blocks out of a groupby can carry an EMPTY schema — treat
    them as no members."""
    if tbl.num_rows == 0 or "doc_id" not in tbl.schema.names:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
        )
    mask = pc.is_in(pc.cast(tbl["doc_id"], pa.int64()), value_set=pa.array(ids))
    return tbl.filter(mask).select(["doc_id", "text"])


@ray.remote
def _repair_task(df: pd.DataFrame, clique_cap: int) -> pd.DataFrame:
    return _repair_pairs(df, clique_cap)


@ray.remote
def _verify_pairs_task(
    src: np.ndarray, dst: np.ndarray, texts_holder: list, k: int, threshold: float
) -> pd.DataFrame:
    """Verify one chunk of candidate pairs against the broadcast member
    texts (ref wrapped in a list so Ray does not auto-deref — the
    kernel's per-worker cache needs the ref itself)."""
    df = pd.DataFrame({"src_id": src, "dst_id": dst})
    return _verify_broadcast_batch(
        df, texts_ref=texts_holder[0], k=k, threshold=threshold
    )


def _verify_unique_pairs_driver(
    pairs: pd.DataFrame, texts_ref, k: int, threshold: float, chunk: int | None = None
) -> pd.DataFrame:
    """Driver-coordinated exact-Jaccard verify of a deduplicated pair
    table: chunks fan out as raw Ray tasks (compute is distributed;
    only the bounded pair table and its verdicts touch the driver).
    Chunk size targets ~2 tasks per CPU so the per-pair Jaccard kernel
    parallelizes instead of serializing in one task."""
    if not len(pairs):
        return pairs.assign(jaccard=pd.Series(dtype="float64"))
    if chunk is None:
        cpus = int(ray.cluster_resources().get("CPU", 8))
        chunk = max(256, len(pairs) // (cpus * 2) + 1)
    refs = [
        _verify_pairs_task.remote(
            pairs["src_id"].to_numpy()[i : i + chunk],
            pairs["dst_id"].to_numpy()[i : i + chunk],
            [texts_ref],
            k,
            threshold,
        )
        for i in range(0, len(pairs), chunk)
    ]
    return pd.concat(ray.get(refs), ignore_index=True)


def _minhash_dedup_driver(
    ds: ray.data.Dataset,
    mem: pd.DataFrame,
    ids: np.ndarray,
    k: int,
    threshold: float,
    clique_cap: int,
) -> ray.data.Dataset:
    """Small-regime minhash_dedup: the SAME two-phase clique-equivalent
    algorithm as the distributed plan (anchor edges → failed members
    re-paired via _repair_pairs → min-STRING-label union-find), but
    coordinated on the driver over the bounded anchor-pair table. Texts
    gather, pair verification and the final survivor filter all stay
    distributed (raw tasks / one streaming map); only pair keys and
    verdicts — bounded by MINHASH_DRIVER_MAX_PAIRS — touch the driver.
    Output is identical to the distributed path (pinned by
    TestMinhashPathEquivalence)."""
    ids_ref = ray.put(ids)
    texts: dict = {}
    for t in ray.get(
        [_member_texts_task.remote(b, ids_ref) for b in ds.to_arrow_refs()]
    ):
        texts.update(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    texts_ref = ray.put(texts)

    # phase 1: verify the unique anchor pairs
    uniq = mem[["src_id", "dst_id"]].drop_duplicates()
    v1 = _verify_unique_pairs_driver(uniq, texts_ref, k, threshold)

    # phase 2: re-pair members whose anchor edge failed, per bucket
    merged = mem.merge(
        v1[["src_id", "dst_id"]], on=["src_id", "dst_id"],
        how="left", indicator=True,
    )
    failed = merged[merged["_merge"] == "left_only"]
    edges = [v1]
    if len(failed):
        members = pd.concat(
            [
                mem[["bkey", "src_id"]].rename(columns={"src_id": "doc_id"}),
                mem[["bkey", "dst_id"]].rename(columns={"dst_id": "doc_id"}),
            ],
            ignore_index=True,
        ).drop_duplicates()
        members["failed"] = 0
        frows = failed[["bkey", "dst_id"]].rename(columns={"dst_id": "doc_id"})
        frows = frows.copy()
        frows["failed"] = 1
        tagged = pd.concat([members, frows], ignore_index=True)
        if len(tagged) > 20_000:
            # bucket-aligned chunks so each raw task repairs whole
            # buckets — the per-group pair build parallelizes instead
            # of serializing on the driver
            cpus = int(ray.cluster_resources().get("CPU", 8))
            part = (
                pd.util.hash_pandas_object(tagged["bkey"], index=False) % cpus
            ).to_numpy()
            refs = [
                _repair_task.remote(tagged[part == i], clique_cap)
                for i in range(cpus)
            ]
            p2 = pd.concat(ray.get(refs), ignore_index=True)
        else:
            p2 = _repair_pairs(tagged, clique_cap)
        if len(p2):
            edges.append(
                _verify_unique_pairs_driver(
                    p2.drop_duplicates(), texts_ref, k, threshold
                )
            )

    # min-STRING-label union-find — identical representative rule to
    # connected_components (string node labels), hence to the fixture
    allv = pd.concat(edges, ignore_index=True)
    parent: dict = {}

    def find(x: str) -> str:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for s, d in zip(allv["src_id"], allv["dst_id"]):
        ra, rb = find(str(int(s))), find(str(int(d)))
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo

    losers = np.array(
        sorted({int(n) for n in parent if find(n) != n}), dtype=np.int64
    )
    if not len(losers):
        return ds
    losers_ref = ray.put(losers)

    def drop(batch: pa.Table, losers_ref=None) -> pa.Table:
        if batch.num_rows == 0 or "doc_id" not in batch.schema.names:
            return batch
        lo = cached_get(_MEMBER_CACHE, losers_ref)
        mask = pc.is_in(
            pc.cast(batch["doc_id"], pa.int64()), value_set=pa.array(lo)
        )
        return batch.filter(pc.invert(mask))

    return ds.map_batches(
        drop, fn_kwargs={"losers_ref": losers_ref}, batch_format="pyarrow"
    )


def minhash_dedup(
    ds: ray.data.Dataset,
    k: int = 5,
    num_perm: int = 64,
    bands: int | None = None,
    threshold: float = 0.8,
    num_buckets: int = 64,
    concurrency=None,
    driver_max_pairs: int = MINHASH_DRIVER_MAX_PAIRS,
    collapse_exact: bool = True,
) -> ray.data.Dataset:
    """Full MinHash-LSH near-dup removal: shingle → minhash → banded
    LSH → candidate pairs → exact-Jaccard verify (bucketed text joins,
    see verify_pairs) → union-find clusters → keep the min doc_id per
    cluster. Returns the surviving rows.

    ``bands=None`` (default) aligns the banding with the verify
    threshold via :func:`auto_bands` — at num_perm=64 / threshold 0.85
    that is b=8/r=8 (s-curve ≈0.77), ~25× fewer false candidates than
    the old fixed b=16/r=4 whose s-curve fired at J≈0.5.

    The input is consumed three times (signatures, the verify-side
    text joins, the final survivor anti-join); pin it once so a lazy
    upstream chain (e.g. a filter + dedup shuffle feeding this stage)
    is not recomputed per consumer.

    Exact duplicates are collapsed to one min-STRING ``doc_id``
    representative per distinct text BEFORE detection (fused into the
    pinning pass — one bucketed exchange, no extra plan execution).
    Output-identical proof: identical texts share every band, so they
    always co-bucket and always verify at J=1 — every exact group lies
    inside one component. The component's min-string id is therefore
    its own exact group's min (any smaller group member would lower
    the component min), so it survives the collapse; every
    collapsed-away row has a smaller-string same-text sibling, i.e. is
    a component non-representative — a loser — already. Near-dup
    connectivity between representatives is preserved because any path
    through a collapsed doc can substitute its same-text
    representative (same Jaccard values, same band keys). On a
    duplicate-heavy corpus (the 100 TB norm) this removes the
    in-bucket repair pair build's quadratic-in-duplication-factor
    blowup — measured at 20× amplification of sf0.1: 31M repair pairs,
    176 s → see BASELINE.md. Pass ``collapse_exact=False`` when the
    caller guarantees texts are already distinct (e.g. downstream of
    :func:`exact_dedup`, as in pipelines/curate.py) to skip the
    then-identity exchange."""
    if bands is None:
        bands = auto_bands(num_perm, threshold)
    if collapse_exact:
        ds = _exact_collapse(ds, "text", "doc_id", num_buckets).materialize()
    else:
        ds = ds.materialize()
    sigs = minhash_signatures(ds, k, num_perm, concurrency)

    # ONE streaming execution builds the anchor-pair table; its size
    # decides the physical plan (both verified identical by tests)
    mem_pairs = _anchor_pairs(sigs, bands, num_buckets)
    if mem_pairs.count() <= driver_max_pairs:
        mem = mem_pairs.to_pandas()
        ids = (
            np.unique(
                np.concatenate(
                    [mem["src_id"].to_numpy(), mem["dst_id"].to_numpy()]
                ).astype(np.int64)
            )
            if len(mem)
            else np.array([], dtype=np.int64)
        )
        if len(ids) <= SMALL_VERIFY_MAX_MEMBERS:
            return _minhash_dedup_driver(ds, mem, ids, k, threshold, 2048)

    # two-phase clique-EQUIVALENT verification (anchor edges first,
    # failed members re-paired in-bucket): same components — and
    # therefore the same survivors — as verifying every in-bucket
    # pair, at near-star cost (see verified_near_dup_edges)
    verified = verified_near_dup_edges(
        ds, sigs, k=k, threshold=threshold, bands=bands,
        num_buckets=num_buckets, mem_pairs=mem_pairs,
    )

    def as_str_edges(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"src": df["src_id"].astype(str), "dst": df["dst_id"].astype(str)}
        )

    # one execution for the emptiness check AND the component pass
    edges = verified.map_batches(as_str_edges, batch_format="pandas").materialize()
    if edges.count() == 0:
        return ds
    comps = connected_components(edges, num_buckets=num_buckets)
    # losers: nodes whose component representative is a different doc.
    # Components are keyed by *string* doc ids; min-string == min-int is
    # not guaranteed, but any deterministic representative is valid.
    # Survivors come from ONE distributed bucketed anti-join — the loser
    # set never materializes on the driver (at 100 TB with a 30-50% dup
    # rate it is billions of ids; round 2's frozenset + closure filter
    # was the last driver-side materialization on this path). The
    # corpus crossing the anti-join exchange once is the price of
    # routing survivors anyway.
    from ..store.dataset import hash_join

    def loser_ids(df: pd.DataFrame) -> pd.DataFrame:
        m = df[df["node"] != df["component"]]
        return pd.DataFrame({"doc_id": m["node"].astype(np.int64)})

    losers = comps.map_batches(loser_ids, batch_format="pandas")
    return hash_join(ds, losers, on="doc_id", how="anti", num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def _string_array_segments(arr):
    """Zero-copy view of a string array's UTF-8 buffer as
    (data bytes, per-string start offsets, per-string byte lengths)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=off_dtype)[
        arr.offset : arr.offset + len(arr) + 1
    ].astype(np.int64)
    data = (
        np.frombuffer(bufs[2], dtype=np.uint8)
        if bufs[2] is not None
        else np.empty(0, dtype=np.uint8)
    )
    starts = offsets[:-1]
    return data, starts, offsets[1:] - starts


def _crc32_of_strings(arr) -> np.ndarray:
    """zlib.crc32 of every string in an Arrow string array — table-driven
    CRC, vectorized across ALL strings at once: max_len passes, each a
    masked gather + table lookup over the still-running strings."""
    data, starts, lens = _string_array_segments(arr)
    n = len(starts)
    crc = np.full(n, 0xFFFFFFFF, dtype=np.uint32)
    for j in range(int(lens.max()) if n else 0):
        active = lens > j
        c = crc[active]
        b = data[starts[active] + j]
        crc[active] = (c >> np.uint32(8)) ^ _CRC32_TABLE[(c ^ b) & np.uint32(0xFF)]
    return crc ^ np.uint32(0xFFFFFFFF)


class SimHasher:
    """64-bit SimHash over whitespace tokens (crc32 token hashes,
    bit-vote aggregation). ``__call__`` is the batch-vectorized form:
    one Arrow tokenize per batch, table-driven crc32 over ALL tokens at
    once (max-token-length masked passes), and a per-doc segment-sum of
    bit votes — no Python loop over docs or tokens. ``simhash`` is the
    per-doc reference kernel the batch form is pinned against in
    tests."""

    def __init__(self):
        self.bit_weights = 1 << np.arange(64, dtype=np.uint64)

    def simhash(self, text: str) -> int:
        toks = text.split(" ")
        if not toks:
            return 0
        hashes = np.array(
            [zlib.crc32(t.encode()) | (zlib.crc32(t[::-1].encode()) << 32) for t in toks],
            dtype=np.uint64,
        )
        bits = ((hashes[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(
            np.int64
        )
        votes = bits.sum(axis=0) * 2 - len(toks)
        return int(((votes > 0).astype(np.uint64) * self.bit_weights).sum())

    def batch_simhash(self, text_col) -> np.ndarray:
        if isinstance(text_col, pa.ChunkedArray):
            text_col = text_col.combine_chunks()
        toks = pc.split_pattern(text_col, " ")
        counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(toks)
        if len(flat) == 0:
            return np.zeros(len(counts), dtype=np.uint64)
        doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        fwd = _crc32_of_strings(flat)
        # token[::-1] reverses CODEPOINTS; utf8_reverse matches that
        # (byte reversal would diverge on multi-byte UTF-8)
        rev = _crc32_of_strings(pc.utf8_reverse(flat))
        hashes = fwd.astype(np.uint64) | (rev.astype(np.uint64) << np.uint64(32))
        shifts = np.arange(64, dtype=np.uint64)
        bits = ((hashes[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
        # doc_idx is sorted, so the per-doc vote sum is one reduceat
        # over contiguous segments
        seg_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        votes = np.add.reduceat(bits, seg_starts, axis=0)
        votes = votes * 2 - counts[:, None]
        return ((votes > 0).astype(np.uint64) * self.bit_weights[None, :]).sum(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sh = self.batch_simhash(batch["text"])
        return batch.append_column("simhash", pa.array(sh, pa.uint64()))


_SIMHASHER = SimHasher()


def _simhash_batch_fn(batch: pa.Table) -> pa.Table:
    return _SIMHASHER(batch)


def simhash_signatures(ds: ray.data.Dataset, concurrency=None) -> ray.data.Dataset:
    """Task pool by default (the kernel state is two tiny arrays —
    actor-pool startup would dominate); pass ``concurrency`` for the
    actor-pool form."""
    if concurrency is not None:
        return ds.map_batches(
            SimHasher, batch_format="pyarrow", batch_size=1024, concurrency=concurrency
        )
    return ds.map_batches(_simhash_batch_fn, batch_format="pyarrow", batch_size=1024)


def simhash_near_dup_pairs(
    ds: ray.data.Dataset, max_hamming: int = 3, num_buckets: int = 64
) -> ray.data.Dataset:
    """Near-dup candidates by SimHash banding: split the 64-bit hash in
    4 16-bit chunks; by pigeonhole, pairs within hamming≤3 share at
    least one chunk → groupby chunk value, verify hamming in-bucket."""
    sigs = simhash_signatures(ds)

    def to_chunks(df: pd.DataFrame) -> pd.DataFrame:
        # fully vectorized: 4 chunk rows per doc via repeat/tile, the
        # 16-bit chunk values from one shift-and-mask over the column
        v = df["simhash"].to_numpy().astype(np.uint64)
        n = len(v)
        shifts = np.uint64(16) * np.arange(4, dtype=np.uint64)
        out = pd.DataFrame(
            {
                "doc_id": np.repeat(df["doc_id"].to_numpy(), 4),
                "simhash": np.repeat(v, 4),
                "chunk_id": np.tile(np.arange(4, dtype=np.int64), n),
                "chunk_val": (
                    (v[:, None] >> shifts[None, :]) & np.uint64(0xFFFF)
                ).reshape(-1).astype(np.int64),
            }
        )
        out["__bucket"] = (
            pd.util.hash_pandas_object(
                out["chunk_id"].astype(str) + ":" + out["chunk_val"].astype(str),
                index=False,
            )
            % num_buckets
        ).astype("int64")
        return out

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        # numpy in-bucket pair build: triu index pairs, XOR, and a
        # byte-table popcount — no per-pair Python (round-2 soft spot)
        parts = []
        for _, g in df.groupby(["chunk_id", "chunk_val"], sort=False):
            gd = g.drop_duplicates(subset=["doc_id"]).sort_values("doc_id")
            ids = gd["doc_id"].to_numpy()
            n = len(ids)
            if n < 2:
                continue
            sigs = gd["simhash"].to_numpy().astype(np.uint64)
            i, j = np.triu_indices(n, k=1)
            x = sigs[i] ^ sigs[j]
            d = (
                _POPCOUNT8[x.view(np.uint8).reshape(-1, 8)]
                .sum(axis=1)
                .astype(np.int64)
            )
            keep = d <= max_hamming
            if keep.any():
                parts.append((ids[i[keep]], ids[j[keep]], d[keep]))
        if not parts:
            return pd.DataFrame(
                {
                    "src_id": pd.Series(dtype="int64"),
                    "dst_id": pd.Series(dtype="int64"),
                    "hamming": pd.Series(dtype="int64"),
                }
            )
        return pd.DataFrame(
            {
                "src_id": np.concatenate([p[0] for p in parts]),
                "dst_id": np.concatenate([p[1] for p in parts]),
                "hamming": np.concatenate([p[2] for p in parts]),
            }
        ).drop_duplicates(subset=["src_id", "dst_id"])

    chunked = sigs.map_batches(to_chunks, batch_format="pandas")
    out = chunked.groupby("__bucket").map_groups(pairs, batch_format="pandas")

    # cross-bucket duplicates possible (pair sharing 2 chunks) → global
    # distinct on the pair key
    def rebucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__bucket"] = (
            pd.util.hash_pandas_object(
                df["src_id"].astype(str) + ":" + df["dst_id"].astype(str), index=False
            )
            % num_buckets
        ).astype("int64")
        return df

    return (
        out.map_batches(rebucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(
            lambda df: df.drop_duplicates(subset=["src_id", "dst_id"]).drop(
                columns=["__bucket"]
            ),
            batch_format="pandas",
        )
    )


# ---------------------------------------------------------------------------
# n-gram Jaccard (direct) and embedding near-dup
# ---------------------------------------------------------------------------


def ngram_jaccard_pairs(
    ds: ray.data.Dataset, k: int = 5, threshold: float = 0.8, concurrency=None
) -> ray.data.Dataset:
    """All-pairs n-gram Jaccard via MinHash-LSH candidates + exact
    verification (the scalable form of the quadratic baseline).
    Verification ships texts to candidate pairs with two bucketed
    hash-joins (verify_pairs) — same shape as minhash_dedup; the
    corpus never materializes on the driver. The candidate distinct
    matters doubly here: the same pair fires in several bands and
    would otherwise be joined and verified once per band."""
    from ..store.dataset import distinct_on

    ds = ds.materialize()
    sigs = minhash_signatures(ds, k=k, concurrency=concurrency)
    cands = distinct_on(
        lsh_candidate_pairs(sigs, mode="clique"), ["src_id", "dst_id"], 16
    )
    return verify_pairs(cands, ds, k=k, threshold=threshold)


def embedding_near_dup_pairs(
    emb_ds: ray.data.Dataset,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """Embedding-cosine near-dup: every pair with cosine ≥ threshold.
    Uses the brute-force blocked matmul from stages.ann against the
    corpus itself, keeping only upper-triangle pairs."""
    from .ann import self_similarity_pairs

    return self_similarity_pairs(emb_ds, threshold, id_col=id_col, vec_col=vec_col)


def incremental_dedup(
    new: ray.data.Dataset,
    seen: ray.data.Dataset,
    key: str = "text",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Cross-snapshot dedup — the "seen before" filter of a continuous
    crawl: rows of ``new`` whose ``key`` content does not already occur
    in the ``seen`` corpus.

    Scale shape: both sides are reduced to 64-bit content fingerprints
    (one vectorized row hash per block; the seen side additionally
    drops to per-block DISTINCT fingerprints as a combiner), then ONE
    bucketed anti-join on the fingerprint removes the survivors. The
    seen corpus is never materialized on the driver and never
    broadcast — at 100 TB each side streams into its fingerprint
    column and only those 8-byte keys cross the exchange. Rows of
    ``new`` that duplicate each other are all kept (compose with
    :func:`exact_dedup` for within-batch dedup).
    """
    from ..store.dataset import hash_join

    def fp_of(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["fingerprint"] = pd.util.hash_pandas_object(
            df[key], index=False
        ).astype("int64")
        return df

    def seen_fps(df: pd.DataFrame) -> pd.DataFrame:
        fps = pd.util.hash_pandas_object(df[key], index=False).astype("int64")
        return pd.DataFrame({"fingerprint": fps.unique()})

    fp_new = new.map_batches(fp_of, batch_format="pandas")
    fp_seen = seen.map_batches(seen_fps, batch_format="pandas")
    out = hash_join(
        fp_new, fp_seen, on="fingerprint", how="anti", num_buckets=num_buckets
    )
    return out.drop_columns(["fingerprint"])


def group_cap(
    ds: ray.data.Dataset,
    key: str = "source",
    cap: int = 10,
    order_col: str = "doc_id",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-group cap sampling — the per-domain cap of Common-Crawl-style
    corpus prep (at most ``cap`` documents per domain/source, so no
    single site dominates the training mix). Keeps the first ``cap``
    rows of each ``key`` group in ascending ``order_col`` order — a
    deterministic winner set, no RNG.

    Same scale shape as :func:`exact_dedup` (which is the cap=1 case on
    a content key): a per-block combiner keeps at most ``cap`` rows per
    key (a superset of the global winners, since the global first-cap
    of a group is contained in the union of per-block first-caps), then
    ONE bucketed exchange co-locates each key and re-applies the same
    rule. Only ≤ cap rows per key per block cross the wire."""

    def local_cap(df: pd.DataFrame) -> pd.DataFrame:
        df = (
            df.sort_values(order_col, kind="stable")
            .groupby(key, sort=False)
            .head(cap)
            .copy()
        )
        df["__bucket"] = (
            pd.util.hash_pandas_object(df[key], index=False) % num_buckets
        ).astype("int64")
        return df

    def bucket_cap(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.sort_values(order_col, kind="stable")
            .groupby(key, sort=False)
            .head(cap)
        )
        return out.drop(columns=["__bucket"])

    return (
        ds.map_batches(local_cap, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(bucket_cap, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# C4-style cross-corpus line dedup (boilerplate removal)
# ---------------------------------------------------------------------------


def line_dedup(
    docs: ray.data.Dataset,
    min_count: int = 2,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Cross-corpus LINE deduplication — the C4/RefinedWeb boilerplate
    step: any line occurring ``>= min_count`` times across the whole
    corpus keeps only its globally-first occurrence (lexicographically
    min ``(doc_id, line_no)``); all other occurrences are removed and
    documents are reassembled in original line order. A document whose
    every line is removed drops out of the corpus.

    Scale shape (three bucketed exchanges, nothing on the driver):

    1. explode: ``text`` → ``(doc_id, line_no, line)`` with ONE
       vectorized ``split_pattern`` + ``list_flatten`` per batch.
    2. decisions: per-block combiner pre-aggregates each line to
       ``(count, win_doc, win_line)`` — a hyper-duplicated boilerplate
       line crosses the wire once per BLOCK, not once per occurrence —
       then one bucketed exchange merges partials and keeps only the
       duplicated lines (``count >= min_count``). The decision table is
       bounded by the number of DISTINCT duplicated lines.
    3. survivors: one bucketed ANTI-join of the exploded lines against
       the decision keys drops every duplicated occurrence, then the
       winners (already materialized IN the decision rows — no second
       join back) are unioned in.
    4. reassemble: one bucketed group-map on ``doc_id`` sorts each
       document's surviving lines and joins with ``\\n``.
    """
    from ..store.dataset import bucketed_group_map, hash_join

    def explode(batch: pa.Table) -> pa.Table:
        txt = pc.fill_null(batch["text"].combine_chunks(), "")
        split = pc.split_pattern(txt, "\n")
        lens = pc.list_value_length(split).to_numpy(zero_copy_only=False)
        lens = lens.astype(np.int64)
        doc_ids = batch["doc_id"].combine_chunks().to_numpy(
            zero_copy_only=False
        )
        total = int(lens.sum())
        # per-doc 0-based line numbers: arange minus each row's start
        starts = np.repeat(np.concatenate(([0], np.cumsum(lens)[:-1])), lens)
        line_no = np.arange(total, dtype=np.int64) - starts
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(doc_ids, lens)),
                "line_no": pa.array(line_no),
                "line": pc.list_flatten(split),
            }
        )

    lines = docs.map_batches(explode, batch_format="pyarrow")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "line": pd.Series(dtype="object"),
                    "count": pd.Series(dtype="int64"),
                    "win_doc": pd.Series(dtype="int64"),
                    "win_line": pd.Series(dtype="int64"),
                }
            )
        df = df.sort_values(["doc_id", "line_no"], kind="stable")
        g = df.groupby("line", sort=False)
        return g.agg(
            count=("doc_id", "size"),
            win_doc=("doc_id", "first"),
            win_line=("line_no", "first"),
        ).reset_index()

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["win_doc", "win_line"], kind="stable")
        g = df.groupby("line", sort=False)
        out = g.agg(
            count=("count", "sum"),
            win_doc=("win_doc", "first"),
            win_line=("win_line", "first"),
        ).reset_index()
        return out[out["count"] >= min_count]

    decisions = bucketed_group_map(
        lines, ["line"], merge, num_buckets=num_buckets, partial_fn=partial
    ).materialize()  # tiny after the combiner: distinct dup lines only

    uniq = hash_join(
        lines,
        decisions.select_columns(["line"]),
        on="line",
        how="anti",
        num_buckets=num_buckets,
    )
    winners = decisions.select_columns(["win_doc", "win_line", "line"]).map_batches(
        lambda t: pa.table(
            {
                "doc_id": pc.cast(t["win_doc"], pa.int64()),
                "line_no": pc.cast(t["win_line"], pa.int64()),
                "line": t["line"],
            }
        ),
        batch_format="pyarrow",
    )

    def rebuild(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["doc_id", "line_no"], kind="stable")
        out = (
            df.groupby("doc_id", sort=False)["line"]
            .agg("\n".join)
            .reset_index()
            .rename(columns={"line": "text"})
        )
        return out

    return bucketed_group_map(
        uniq.union(winners), ["doc_id"], rebuild, num_buckets=num_buckets
    )


def sorted_neighborhood_pairs(
    ds: ray.data.Dataset,
    id_col: str,
    key_col: str,
    window: int = 5,
    cell_shift: int = 4,
) -> ray.data.Dataset:
    """Sorted-neighborhood candidate pairs (Hernández & Stolfo 1995):
    sort all rows by ``(key, id)`` and emit every pair within
    ``window − 1`` positions → ``(src_id, dst_id)``, src earlier in
    the sort order. The classic entity-resolution blocking method for
    a SCALAR blocking key (near-length, near-date, normalized-prefix
    fingerprints) — complements the LSH/fingerprint-bucket blockers,
    which need set/vector similarity.

    Distributed WITHOUT a global sort or rank: the int key space is
    cut into ordered cells (``cell = key >> cell_shift``); a tiny
    combiner pass gathers per-cell counts, the driver computes, per
    nonempty cell, which predecessor cells are needed to cover the
    window−1 rows before its head (usually one — more only when a
    predecessor holds fewer than window−1 rows), and broadcasts that
    map; ONE cell-bucketed exchange then ships every row to its own
    cell plus the successors that need it, and each cell generates
    pairs positionally from its combined sorted slice, owning exactly
    the pairs whose LATER row lives in the cell — every global pair
    exactly once, no rank bookkeeping. Skewed keys: one CELL must fit
    a worker (pick ``cell_shift`` so cells are page-sized; a constant
    key degenerates to one cell — that is inherent to SNM's total
    order, use a better blocking key)."""
    from ..store.dataset import bucketed_group_map

    if window < 2:
        raise ValueError("window must be >= 2")
    w1 = window - 1

    def to_cells(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "id": df[id_col].astype("int64"),
                "key": df[key_col].astype("int64"),
            }
        )
        out["cell"] = out["key"].to_numpy() >> cell_shift
        return out

    cells = ds.select_columns([id_col, key_col]).map_batches(
        to_cells, batch_format="pandas"
    ).materialize()

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=["cell", "n"])
        return df.groupby("cell", sort=False).size().rename("n").reset_index()

    counts = {
        int(r["cell"]): int(r["n"])
        for r in bucketed_group_map(
            cells,
            ["cell"],
            lambda d: d.groupby("cell", sort=False, as_index=False)["n"].sum()
            if len(d)
            else d,
            partial_fn=count_partial,
            num_buckets=16,
        ).take_all()
    }
    ordered = sorted(counts)
    # origin cell → successor cells that need its rows for their head
    targets: dict[int, list[int]] = {c: [] for c in ordered}
    for j, c in enumerate(ordered):
        need, i = w1, j - 1
        while need > 0 and i >= 0:
            targets[ordered[i]].append(c)
            need -= counts[ordered[i]]
            i -= 1
    tref = ray.put(targets)
    _snm_cache: dict = {}

    def fan_out(df: pd.DataFrame, tref=None) -> pd.DataFrame:
        tmap = cached_get(_snm_cache, tref)
        if not len(df):
            out = df.copy()
            out["tcell"] = pd.Series(dtype="int64")
            out["own"] = pd.Series(dtype="int64")
            return out
        parts = [df.assign(tcell=df["cell"], own=1)]
        extra = df[df["cell"].map(lambda c: bool(tmap.get(int(c))))]
        for _, grp in extra.groupby("cell", sort=False):
            for t in tmap[int(grp["cell"].iloc[0])]:
                parts.append(grp.assign(tcell=t, own=0))
        return pd.concat(parts, ignore_index=True)

    fanned = cells.map_batches(
        fan_out, fn_kwargs={"tref": tref}, batch_format="pandas"
    )

    def pairs_one_cell(df: pd.DataFrame) -> "pd.DataFrame | None":
        df = df.sort_values(["key", "id"], kind="stable").reset_index(drop=True)
        n = len(df)
        cnt = np.minimum(np.arange(n), w1)
        total = int(cnt.sum())
        if not total:
            return None
        jj = np.repeat(np.arange(n), cnt)
        seq = np.arange(total) - np.repeat(cnt.cumsum() - cnt, cnt)
        ii = jj - 1 - seq
        own = df["own"].to_numpy()
        keep = own[jj] == 1  # the later row's cell owns the pair
        ids = df["id"].to_numpy()
        return pd.DataFrame(
            {
                "src_id": ids[ii[keep]].astype("int64"),
                "dst_id": ids[jj[keep]].astype("int64"),
            }
        )

    def pairs_per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # a hash bucket holds SEVERAL whole cells — window positions
        # are per cell, so slice per tcell before the pair build
        empty = pd.DataFrame(
            {"src_id": pd.Series(dtype="int64"),
             "dst_id": pd.Series(dtype="int64")}
        )
        if not len(df):
            return empty
        parts = [
            p
            for _, grp in df.groupby("tcell", sort=False)
            if (p := pairs_one_cell(grp)) is not None
        ]
        return pd.concat(parts, ignore_index=True) if parts else empty

    return bucketed_group_map(fanned, ["tcell"], pairs_per_bucket, num_buckets=32)
