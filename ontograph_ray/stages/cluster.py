"""Deterministic distributed clustering over embedding columns.

Two operators a 100 TB curation pipeline needs between "exact dedup"
and "near-dup dedup":

- ``kmeans_fixed_point``: Lloyd's k-means run entirely in int64
  fixed-point arithmetic. Embeddings are quantized once
  (``round(x · 2^scale_bits)``), distances / per-cluster sums /
  centroid updates are exact integer ops — addition is associative and
  commutative, so the result is BIT-IDENTICAL for any block layout,
  task order, or parallelism (the float version of this loop was
  rejected as a fixture oracle for exactly that reason). Init is the
  k vectors with the smallest ids (deterministic, layout-independent).
  The driver holds only the k×d centroid table; per-iteration traffic
  is one broadcast down (``ray.put``, fetched once per worker via the
  module cache) and ≤ k combiner rows per block up.

- ``semdedup``: SemDeDup-style semantic dedup (Abbas et al. 2023,
  arXiv:2303.09540 — cluster, then prune within clusters): assign
  every vector to its k-means cluster, then drop a vector iff a
  LOWER-ID vector in the SAME cluster has cosine ≥ threshold. The
  "exists a lower-id neighbor" rule (rather than a greedy chain over
  the kept set) keeps the operator order-free and gives it an exact
  SQL twin. Pairwise work is confined to one cluster per task — the
  scale knob is k: at corpus scale pick k ≈ n/10⁴ so a cluster's
  similarity block fits a worker (the SemDeDup paper's regime);
  cross-cluster pairs are never formed.

The reference engine (kahefi/ontograph) has no clustering; these are
north-rule training-data operators built on the engine's broadcast +
combiner-exchange primitives.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..bcast import cached_get

__all__ = ["kmeans_fixed_point", "assign_clusters", "semdedup"]

_CENTROID_CACHE: dict = {}

# Driver small-regime bound for the fixed-point Lloyd fits: when the
# quantized training table holds ≤ this many int64 cells (rows × dims,
# ~64 MB at the default), gather it once and run the SAME integer
# update loop locally — at small scale the cost of a k-means fit is
# plan executions (one per iteration), not arithmetic. Every integer
# op is associative/commutative, so both regimes produce bit-identical
# centroids (pinned by TestKmeansDriverCutover). Above the bound the
# distributed per-iteration combiner exchange runs — that is the
# 100 TB path.
KMEANS_DRIVER_MAX_CELLS = 8_000_000


def _quantize(mat: np.ndarray, scale_bits: int) -> np.ndarray:
    return np.rint(np.asarray(mat, dtype=np.float64) * (1 << scale_bits)).astype(
        np.int64
    )


def _vec_matrix(batch: pa.Table, vec_col: str) -> np.ndarray:
    return np.asarray(batch[vec_col].to_pylist(), dtype=np.float64)


def _fsl_matrix(col: pa.ChunkedArray) -> np.ndarray:
    """FixedSizeList column → (n, d) int64 matrix, zero-copy via
    flatten() (which respects slice offsets)."""
    arr = col.combine_chunks()
    d = arr.type.list_size
    return arr.flatten().to_numpy(zero_copy_only=False).reshape(-1, d)


def _assign(xq: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Nearest centroid per row, all int64: squared L2 expanded as
    ‖x‖² − 2x·c + ‖c‖² (every term exact in int64 — quantized values
    are ≤ ~2^20 so the d-term dot products stay ≪ 2^63 — producing the
    SAME integers as the 3-D difference tensor this replaces, hence the
    same first-occurrence argmin). The matmul form is O(n·k·d) time but
    O(n·k) memory instead of the n×k×d tensor, which is what lets the
    IVF/coherent-blocking paths use hundreds of centroids per batch.
    Row chunking bounds the n×k buffer."""
    n = len(xq)
    out = np.empty(n, dtype=np.int64)
    c2 = np.einsum("kd,kd->k", cents, cents)
    chunk = max(1, min(n, 1 << 22) // max(1, len(cents)))
    for s in range(0, n, chunk):
        x = xq[s : s + chunk]
        d2 = (
            np.einsum("nd,nd->n", x, x)[:, None]
            - 2 * (x @ cents.T)
            + c2[None, :]
        )
        out[s : s + chunk] = np.argmin(d2, axis=1)
    return out


def _get_cached(ref):
    return cached_get(_CENTROID_CACHE, ref)


def _prep_quantized(
    emb_ds: ray.data.Dataset,
    scale_bits: int,
    id_col: str,
    vec_col: str,
) -> ray.data.Dataset:
    """Quantize the embedding column once → materialized ``(id, q)``
    table with ``q`` a FixedSizeList<int64>. Shared by the coarse
    kmeans fit, the fused PQ trainer and the IVF residual pass so the
    corpus is scanned/quantized a single time."""

    def prep(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch[id_col], pa.int64())
        m = _quantize(_vec_matrix(batch, vec_col), scale_bits)
        d = m.shape[1] if len(m) else 1
        flat = pa.array(m.reshape(-1), pa.int64())
        vecs = pa.FixedSizeListArray.from_arrays(flat, d)
        return pa.table({id_col: ids, "q": vecs})

    return (
        emb_ds.select_columns([id_col, vec_col])
        .map_batches(prep, batch_format="pyarrow")
        .materialize()
    )


def _seed_kmin(prepped: ray.data.Dataset, k: int, id_col: str) -> np.ndarray:
    """Deterministic init: the k smallest-id quantized vectors —
    per-block k-min combiner, global k-min on the tiny gather."""

    def kmin(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= k:
            return batch
        ids = batch[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        idx = np.argsort(ids, kind="stable")[:k]
        return batch.take(pa.array(idx, pa.int64()))

    seed_rows = prepped.map_batches(kmin, batch_format="pyarrow").take_all()
    seed_rows.sort(key=lambda r: r[id_col])
    if len(seed_rows) < k:
        raise ValueError(f"k={k} exceeds the corpus size {len(seed_rows)}")
    return np.asarray([r["q"] for r in seed_rows[:k]], dtype=np.int64)


def _q_list_size(prepped: ray.data.Dataset) -> int:
    """Dimensionality of the quantized ``q`` FixedSizeList column from
    the dataset schema (no plan execution)."""
    sch = prepped.schema()
    return dict(zip(sch.names, sch.types))["q"].list_size


def _gather_q(prepped: ray.data.Dataset, id_col: str):
    """Materialized quantized table → (ids int64, (n, d) int64 matrix)
    on the driver — only called under the KMEANS_DRIVER_MAX_CELLS
    guard, so the gather is bounded by construction."""
    tbls = [t for t in ray.get(prepped.to_arrow_refs()) if t.num_rows]
    if not tbls:
        return np.array([], dtype=np.int64), np.empty((0, 1), dtype=np.int64)
    tbl = pa.concat_tables(tbls).combine_chunks()
    ids = tbl[id_col].to_numpy(zero_copy_only=False)
    return ids, _fsl_matrix(tbl["q"])


def _lloyd_local(mat: np.ndarray, ids: np.ndarray, k: int, iters: int) -> np.ndarray:
    """The driver-side twin of the distributed Lloyd loop: identical
    integer seed (k smallest-id vectors), assignment, per-cluster int64
    sums and floor-division update — integer ops are order-free, so the
    result is bit-identical to the exchange form at any layout."""
    if len(mat) < k:
        raise ValueError(f"k={k} exceeds the corpus size {len(mat)}")
    cents = mat[np.argsort(ids, kind="stable")[:k]].copy()
    for _ in range(iters):
        a = _assign(mat, cents)
        sums = np.zeros_like(cents)
        np.add.at(sums, a, mat)
        counts = np.bincount(a, minlength=len(cents)).astype(np.int64)
        live = counts > 0
        cents = cents.copy()
        cents[live] = sums[live] // counts[live, None]
    return cents


def kmeans_fixed_point(
    emb_ds: ray.data.Dataset,
    k: int = 8,
    iters: int = 10,
    scale_bits: int = 16,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    prepped: "ray.data.Dataset | None" = None,
    driver_max_cells: "int | None" = None,
) -> np.ndarray:
    """Fit k int64 fixed-point centroids; returns the (k, d) centroid
    matrix. The quantized corpus is materialized once and re-scanned
    per iteration (the object store spills it at scale — the
    alternative, re-reading + re-quantizing from Parquet per round, is
    the cheaper path when storage bandwidth beats spill volume; both
    give identical results). Per iteration: broadcast centroids, one
    combiner map emitting ≤ k (cluster, int64-sum-vector, count) rows
    per block, tiny driver reduce. An empty cluster keeps its previous
    centroid. Centroid update is exact integer floor division.
    ``prepped``: pass an existing :func:`_prep_quantized` table (same
    scale_bits) to skip the quantize pass. Below ``driver_max_cells``
    (default :data:`KMEANS_DRIVER_MAX_CELLS`) the identical integer
    loop runs locally on one bounded gather instead of one plan
    execution per iteration; pass 0 to force the distributed form."""
    if prepped is None:
        prepped = _prep_quantized(emb_ds, scale_bits, id_col, vec_col)
    bound = KMEANS_DRIVER_MAX_CELLS if driver_max_cells is None else driver_max_cells
    d = _q_list_size(prepped)
    if prepped.count() * d <= bound:
        ids, mat = _gather_q(prepped, id_col)
        return _lloyd_local(mat, ids, k, iters)
    cents = _seed_kmin(prepped, k, id_col)

    for _ in range(iters):
        ref = ray.put(cents)

        def partials(batch: pa.Table, ref=None) -> pa.Table:
            c = _get_cached(ref)
            xq = _fsl_matrix(batch["q"]) if batch.num_rows else np.empty((0, 1))
            if not len(xq):
                return pa.table(
                    {
                        "cluster": pa.array([], pa.int64()),
                        "sum": pa.array([], pa.list_(pa.int64())),
                        "count": pa.array([], pa.int64()),
                    }
                )
            a = _assign(xq, c)
            sums = np.zeros((len(c), xq.shape[1]), dtype=np.int64)
            np.add.at(sums, a, xq)
            counts = np.bincount(a, minlength=len(c)).astype(np.int64)
            live = np.flatnonzero(counts)
            return pa.table(
                {
                    "cluster": pa.array(live, pa.int64()),
                    "sum": pa.array(sums[live].tolist(), pa.list_(pa.int64())),
                    "count": pa.array(counts[live], pa.int64()),
                }
            )

        rows = prepped.map_batches(
            partials, fn_kwargs={"ref": ref}, batch_format="pyarrow"
        ).take_all()
        sums = np.zeros_like(cents)
        counts = np.zeros(len(cents), dtype=np.int64)
        for r in rows:
            sums[r["cluster"]] += np.asarray(r["sum"], dtype=np.int64)
            counts[r["cluster"]] += r["count"]
        live = counts > 0
        cents = cents.copy()
        cents[live] = sums[live] // counts[live, None]
    return cents


def assign_clusters(
    emb_ds: ray.data.Dataset,
    cents: np.ndarray,
    scale_bits: int = 16,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """(id, cluster) for every vector — one broadcast + one streaming
    map over the raw embedding table."""
    ref = ray.put(np.asarray(cents, dtype=np.int64))

    def assign(batch: pa.Table, ref=None) -> pa.Table:
        c = _get_cached(ref)
        xq = _quantize(_vec_matrix(batch, vec_col), scale_bits)
        a = (
            _assign(xq, c)
            if len(xq)
            else np.array([], dtype=np.int64)
        )
        return pa.table(
            {
                id_col: pc.cast(batch[id_col], pa.int64()),
                "cluster": pa.array(a, pa.int64()),
            }
        )

    return emb_ds.select_columns([id_col, vec_col]).map_batches(
        assign, fn_kwargs={"ref": ref}, batch_format="pyarrow"
    )


def pq_encode(
    emb_ds: ray.data.Dataset,
    m: int = 4,
    k: int = 16,
    iters: int = 10,
    scale_bits: int = 16,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    train_ds: "ray.data.Dataset | None" = None,
) -> ray.data.Dataset:
    """Product quantization (Jégou et al. 2011): split the d dims into
    ``m`` contiguous subspaces (d divisible by m), train ``k``
    fixed-point centroids per subspace with the same deterministic
    int64 Lloyd as :func:`kmeans_fixed_point`, then encode every vector
    as its m nearest-centroid codes → ``(id, code_0..code_{m-1})``.
    The codes are the compressed representation IVF-PQ search and
    embedding-dedup sketches run on: d float32 dims → m small ints
    (64 dims → 4 bytes at k ≤ 256, a 64× compression).

    Every step is exact integer arithmetic (quantize → slice commutes
    with slice → quantize; first-occurrence argmin ties), so codes are
    bit-deterministic at any block layout — fixture-oracle-able via an
    independent plain-numpy twin.

    Scale shape: training is ONE fused fit — all m subspace Lloyd
    loops advance together, one combiner exchange (or one bounded
    driver gather in the small regime) per iteration instead of m
    separate plan sequences; codebooks are k×(d/m) tiny either way.
    At 100 TB pass a head/hash SAMPLE as ``train_ds``, the standard
    PQ recipe. The encode is ONE streaming pass with all m codebooks
    broadcast once via ray.put."""
    if train_ds is None:
        prepped = _prep_quantized(emb_ds, scale_bits, id_col, vec_col)
        books = _pq_train_q(prepped, m=m, k=k, iters=iters, id_col=id_col)
        return _pq_assign_q(prepped, books, id_col=id_col)
    books = pq_train(
        train_ds, m=m, k=k, iters=iters, scale_bits=scale_bits,
        id_col=id_col, vec_col=vec_col,
    )
    return pq_assign(
        emb_ds, books, scale_bits=scale_bits, id_col=id_col, vec_col=vec_col
    )


def pq_train(
    train_ds: ray.data.Dataset,
    m: int = 4,
    k: int = 16,
    iters: int = 10,
    scale_bits: int = 16,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> np.ndarray:
    """Train the m per-subspace codebooks (see :func:`pq_encode`);
    returns the (m, k, d/m) int64 codebook tensor. Quantize → slice
    commutes with slice → quantize, so training over one shared
    quantized table is bit-identical to m independent fits over sliced
    float datasets (pinned by TestPqFusedEquivalence)."""
    prepped = _prep_quantized(train_ds, scale_bits, id_col, vec_col)
    return _pq_train_q(prepped, m=m, k=k, iters=iters, id_col=id_col)


def _pq_train_q(
    prepped: ray.data.Dataset,
    m: int,
    k: int,
    iters: int,
    id_col: str,
    driver_max_cells: "int | None" = None,
) -> np.ndarray:
    """Fused PQ trainer over a materialized quantized table (``q`` a
    FixedSizeList<int64>; extra columns ignored): the m per-subspace
    int64 Lloyd fits advance in lockstep — ONE broadcast of the
    (m, k, d/m) codebook tensor and ONE combiner pass per iteration
    (≤ m·k partial rows per block), instead of the m separate
    plan-per-iteration fits this replaces. Subspaces never interact,
    so each subspace's iteration sequence — and therefore the result —
    is bit-identical to its standalone fit. The same driver small
    regime as :func:`kmeans_fixed_point` applies below
    ``driver_max_cells``."""
    d = _q_list_size(prepped)
    n = prepped.count()
    if not n:
        raise ValueError("empty embedding dataset")
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m

    bound = KMEANS_DRIVER_MAX_CELLS if driver_max_cells is None else driver_max_cells
    if n * d <= bound:
        ids, mat = _gather_q(prepped, id_col)
        return np.stack(
            [
                _lloyd_local(
                    np.ascontiguousarray(mat[:, j * sub : (j + 1) * sub]),
                    ids, k, iters,
                )
                for j in range(m)
            ]
        )

    seed = _seed_kmin(prepped, k, id_col)  # (k, d) smallest-id vectors
    books = np.stack(
        [seed[:, j * sub : (j + 1) * sub].copy() for j in range(m)]
    )  # (m, k, sub)

    empty = pa.table(
        {
            "sub": pa.array([], pa.int64()),
            "cluster": pa.array([], pa.int64()),
            "sum": pa.array([], pa.list_(pa.int64())),
            "count": pa.array([], pa.int64()),
        }
    )

    for _ in range(iters):
        ref = ray.put(books)

        def partials(batch: pa.Table, ref=None) -> pa.Table:
            cb = _get_cached(ref)
            if not batch.num_rows:
                return empty
            xq = _fsl_matrix(batch["q"])
            subs, clusters, sums_out, counts_out = [], [], [], []
            for j in range(m):
                xs = np.ascontiguousarray(xq[:, j * sub : (j + 1) * sub])
                a = _assign(xs, cb[j])
                sums = np.zeros((k, sub), dtype=np.int64)
                np.add.at(sums, a, xs)
                counts = np.bincount(a, minlength=k).astype(np.int64)
                live = np.flatnonzero(counts)
                subs.extend([j] * len(live))
                clusters.extend(live.tolist())
                sums_out.extend(sums[live].tolist())
                counts_out.extend(counts[live].tolist())
            return pa.table(
                {
                    "sub": pa.array(subs, pa.int64()),
                    "cluster": pa.array(clusters, pa.int64()),
                    "sum": pa.array(sums_out, pa.list_(pa.int64())),
                    "count": pa.array(counts_out, pa.int64()),
                }
            )

        rows = prepped.map_batches(
            partials, fn_kwargs={"ref": ref}, batch_format="pyarrow"
        ).take_all()
        sums = np.zeros_like(books)
        counts = np.zeros((m, k), dtype=np.int64)
        for r in rows:
            sums[r["sub"], r["cluster"]] += np.asarray(r["sum"], dtype=np.int64)
            counts[r["sub"], r["cluster"]] += r["count"]
        live = counts > 0
        books = books.copy()
        books[live] = sums[live] // counts[live][:, None]
    return books


def pq_assign(
    emb_ds: ray.data.Dataset,
    books: np.ndarray,
    scale_bits: int = 16,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    keep_cols: "list[str] | None" = None,
) -> ray.data.Dataset:
    """Encode every vector against trained codebooks → ``(id,
    [keep_cols...,] code_0..code_{m-1})`` — one streaming pass, the
    stacked codebooks broadcast once."""
    m, _, sub = books.shape
    ref = ray.put(np.asarray(books, dtype=np.int64))
    keep = keep_cols or []

    def encode(batch: pa.Table, ref=None) -> pa.Table:
        cb = _get_cached(ref)
        xq = _quantize(_vec_matrix(batch, vec_col), scale_bits)
        cols = {id_col: pc.cast(batch[id_col], pa.int64())}
        for c in keep:
            cols[c] = batch[c]
        for j in range(m):
            a = (
                _assign(xq[:, j * sub : (j + 1) * sub], cb[j])
                if len(xq)
                else np.array([], dtype=np.int64)
            )
            cols[f"code_{j}"] = pa.array(a, pa.int64())
        return pa.table(cols)

    return emb_ds.select_columns(
        list(dict.fromkeys([id_col] + keep + [vec_col]))
    ).map_batches(encode, fn_kwargs={"ref": ref}, batch_format="pyarrow")


def _pq_assign_q(
    q_ds: ray.data.Dataset,
    books: np.ndarray,
    id_col: str,
    keep_cols: "list[str] | None" = None,
) -> ray.data.Dataset:
    """:func:`pq_assign` over an already-quantized table (``q`` a
    FixedSizeList<int64>) — same output schema, no re-quantization,
    one streaming pass with the stacked codebooks broadcast once."""
    m, _, sub = books.shape
    ref = ray.put(np.asarray(books, dtype=np.int64))
    keep = keep_cols or []

    def encode(batch: pa.Table, ref=None) -> pa.Table:
        cb = _get_cached(ref)
        xq = (
            _fsl_matrix(batch["q"])
            if batch.num_rows
            else np.empty((0, m * sub), dtype=np.int64)
        )
        cols = {id_col: batch[id_col]}
        for c in keep:
            cols[c] = batch[c]
        for j in range(m):
            a = (
                _assign(np.ascontiguousarray(xq[:, j * sub : (j + 1) * sub]), cb[j])
                if len(xq)
                else np.array([], dtype=np.int64)
            )
            cols[f"code_{j}"] = pa.array(a, pa.int64())
        return pa.table(cols)

    return q_ds.map_batches(encode, fn_kwargs={"ref": ref}, batch_format="pyarrow")


# auto-k regime: ~50k vectors per cluster (the SemDeDup paper's
# cluster-size ballpark) keeps each per-cluster similarity pass inside
# a worker's heap
SEMDEDUP_ROWS_PER_CLUSTER = 50_000


def semdedup(
    emb_ds: ray.data.Dataset,
    k: int | None = 8,
    iters: int = 10,
    threshold: float = 0.4,
    scale_bits: int = 16,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """Semantic dedup survivors: (id, cluster) rows for every vector
    with NO lower-id vector of cosine ≥ ``threshold`` in its k-means
    cluster. One broadcast-assign pass tags each vector with its
    cluster, one cluster-bucketed exchange co-locates each cluster,
    and the per-cluster prune is a row-chunked float64 normalized
    matmul (cosine in double so the threshold comparison is
    bit-comparable with the SQL twin's ``list_cosine_similarity``;
    chunking bounds memory at chunk×n_c instead of n_c² without
    changing the order-free exists-lower-id rule). Partitioning
    assumption: one cluster's vectors fit a worker — ``k=None``
    enforces it by scaling k to ~``SEMDEDUP_ROWS_PER_CLUSTER`` rows
    per cluster instead of trusting the caller to remember."""
    if k is None:
        n = emb_ds.count()
        k = max(8, -(-n // SEMDEDUP_ROWS_PER_CLUSTER))
    cents = kmeans_fixed_point(
        emb_ds, k=k, iters=iters, scale_bits=scale_bits,
        id_col=id_col, vec_col=vec_col,
    )
    ref = ray.put(cents)

    def tag(batch: pa.Table, ref=None) -> pa.Table:
        c = _get_cached(ref)
        m = _vec_matrix(batch, vec_col)
        if not len(m):
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "cluster": pa.array([], pa.int64()),
                    "nvec": pa.array([], pa.list_(pa.float64())),
                }
            )
        a = _assign(_quantize(m, scale_bits), c)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        nvec = m / norms
        return pa.table(
            {
                id_col: pc.cast(batch[id_col], pa.int64()),
                "cluster": pa.array(a, pa.int64()),
                "nvec": pa.array(nvec.tolist(), pa.list_(pa.float64())),
            }
        )

    tagged = emb_ds.select_columns([id_col, vec_col]).map_batches(
        tag, fn_kwargs={"ref": ref}, batch_format="pyarrow"
    )

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(id_col, kind="stable").reset_index(drop=True)
        m = np.asarray(df["nvec"].tolist(), dtype=np.float64)
        n = len(m)
        removed = np.zeros(n, dtype=bool)
        # row i removed iff any j < i with cosine >= threshold ("exists
        # a LOWER-ID neighbor", removed or not — order-free, so row
        # chunks are independent and memory stays at chunk×n_c)
        chunk = 2048
        for s in range(0, n, chunk):
            e = min(s + chunk, n)
            sims = m[s:e] @ m[:e].T
            lower = np.arange(e)[None, :] < np.arange(s, e)[:, None]
            removed[s:e] = ((sims >= threshold) & lower).any(axis=1)
        out = df.loc[~removed, [id_col, "cluster"]]
        return out

    return tagged.groupby("cluster").map_groups(prune, batch_format="pandas")
