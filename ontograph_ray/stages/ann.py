"""Similarity search over embedding columns (list<float>).

- ``brute_force_topk``: exact cosine top-k of every corpus vector
  against a broadcast query matrix — per-batch numpy matmul emits
  *partial* top-k rows, a final small reduce merges them (the partial
  results are k·n_queries rows per block, so the reduce side is tiny
  regardless of corpus size).
- ``ivf_topk``: the scale path — the int64 fixed-point k-means
  (stages/cluster.py, layout-invariant) assigns each vector to a
  centroid bucket; queries probe only the ``nprobe`` nearest buckets.
- ``self_similarity_pairs``: all corpus pairs with cosine ≥ threshold
  (embedding near-dup), blocked matmul against a broadcast normalized
  matrix.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..bcast import cached_get


def _as_matrix(batch: pa.Table, vec_col: str) -> np.ndarray:
    # float64 so scores are bit-comparable with SQL oracles (duckdb
    # computes cosine in double); 64-dim vectors keep this cheap
    return np.asarray(batch[vec_col].to_pylist(), dtype=np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


# Per-worker cache of dereferenced (and pre-transformed) broadcast
# sides — the ANN stages are task-pool map_batches (stateless-cheap
# setup: one cached ray.get), NOT actor pools: at bench scale an actor
# pool's spin-up dominates these small scans, and at 100 TB the task
# form schedules strictly more flexibly for the same broadcast cost.
_ANN_CACHE: dict = {}


def _prep_query_side(q):
    return (
        np.asarray(q["ids"]),
        _normalize(np.asarray(q["vecs"], dtype=np.float64)).T,  # d × nq
    )


def _partial_topk(
    batch: pa.Table, ref=None, k: int = 10, id_col: str = "", vec_col: str = ""
) -> pa.Table:
    """Per-batch exact top-k against the broadcast query matrix
    (normalized once per worker via the bounded cache)."""
    qids, qmat = cached_get(_ANN_CACHE, ref, _prep_query_side)
    mat = _normalize(_as_matrix(batch, vec_col))  # n × d
    ids = np.asarray(batch[id_col].to_pylist())
    sims = mat @ qmat  # n × nq
    kk = min(k, sims.shape[0])
    if not kk:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                id_col: pa.array([], pa.int64()),
                "score": pa.array([], pa.float64()),
            }
        )
    top = np.argpartition(-sims, kth=kk - 1, axis=0)[:kk]  # k × nq
    out_q, out_id, out_score = [], [], []
    for qi in range(sims.shape[1]):
        rows = top[:, qi]
        out_q.extend([int(qids[qi])] * len(rows))
        out_id.extend(ids[rows].tolist())
        out_score.extend(sims[rows, qi].astype(float).tolist())
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            id_col: pa.array(out_id, pa.int64()),
            "score": pa.array(out_score, pa.float64()),
        }
    )


def brute_force_topk(
    emb_ds: ray.data.Dataset,
    query_ids: list[int],
    query_vecs: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """Exact cosine top-k. Returns a pandas DataFrame
    (query_id, vec_id, score) with k rows per query, deterministic
    ordering (score desc, then vec_id asc for ties)."""
    queries_ref = ray.put({"ids": list(query_ids), "vecs": np.asarray(query_vecs)})
    partial = emb_ds.map_batches(
        _partial_topk,
        fn_kwargs={"ref": queries_ref, "k": k, "id_col": id_col, "vec_col": vec_col},
        batch_format="pyarrow",
        batch_size=4096,
    )
    df = partial.to_pandas()  # ≤ k · n_queries · n_blocks rows — small
    df = df.sort_values(
        ["query_id", "score", id_col], ascending=[True, False, True], kind="stable"
    )
    return df.groupby("query_id", sort=True).head(k).reset_index(drop=True)


# ---------------------------------------------------------------------------
# IVF (inverted-file) variant — the 100 TB path
# ---------------------------------------------------------------------------




def ivf_topk(
    emb_ds: ray.data.Dataset,
    query_ids: list[int],
    query_vecs: np.ndarray,
    k: int = 10,
    n_clusters: int = 16,
    nprobe: int = 4,
    kmeans_iters: int = 3,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """Approximate cosine top-k: assign vectors to IVF buckets, search
    only the nprobe closest buckets per query. Same output schema as
    brute_force_topk.

    The coarse quantizer is the int64 FIXED-POINT k-means
    (stages/cluster.py) — exact integer arithmetic makes the centroids,
    and therefore the bucket assignment, the probe set, and (given
    distinct scores at the k-boundary, asserted by the fixture twin)
    the returned top-k, BIT-IDENTICAL at any block layout. The float
    Lloyd this replaced was layout-dependent, which is what kept this
    operator rows-only under the driver gate."""
    from .cluster import _assign, _quantize, kmeans_fixed_point

    scale_bits = 16
    centroids = kmeans_fixed_point(
        emb_ds, k=n_clusters, iters=kmeans_iters, scale_bits=scale_bits,
        id_col=id_col, vec_col=vec_col,
    )
    cref = ray.put(centroids)
    qn = _normalize(np.asarray(query_vecs, dtype=np.float64))
    # buckets each query probes — centroids dequantized for the cosine
    cn = _normalize(centroids.astype(np.float64) / (1 << scale_bits))
    probe = np.argsort(-(qn @ cn.T), axis=1)[:, :nprobe]  # nq × nprobe
    probe_ref = ray.put({"ids": list(query_ids), "vecs": qn, "probe": probe})

    def probed_topk(batch: pa.Table, ref=None, cref=None) -> pa.Table:
        q = cached_get(_ANN_CACHE, ref)
        qids, qmat, probes = q["ids"], q["vecs"], q["probe"]
        centroids = cached_get(_ANN_CACHE, cref)
        raw = _as_matrix(batch, vec_col)
        m = _normalize(raw)
        ids = np.asarray(batch[id_col].to_pylist())
        assign = _assign(_quantize(raw, scale_bits), centroids)
        out_q, out_id, out_score = [], [], []
        for qi, qid in enumerate(qids):
            mask = np.isin(assign, probes[qi])
            if not mask.any():
                continue
            sims = m[mask] @ qmat[qi]
            sub_ids = ids[mask]
            kk = min(k, len(sims))
            rows = np.argpartition(-sims, kth=kk - 1)[:kk]
            out_q.extend([int(qid)] * kk)
            out_id.extend(sub_ids[rows].tolist())
            out_score.extend(sims[rows].astype(float).tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                id_col: pa.array(out_id, pa.int64()),
                "score": pa.array(out_score, pa.float64()),
            }
        )

    partial = emb_ds.map_batches(
        probed_topk,
        fn_kwargs={"ref": probe_ref, "cref": cref},
        batch_format="pyarrow",
        batch_size=4096,
    )
    df = partial.to_pandas()
    df = df.sort_values(
        ["query_id", "score", id_col], ascending=[True, False, True], kind="stable"
    )
    return df.groupby("query_id", sort=True).head(k).reset_index(drop=True)


def ivfpq_topk(
    emb_ds: ray.data.Dataset,
    query_ids: list[int],
    query_vecs: np.ndarray,
    k: int = 10,
    n_clusters: int = 16,
    nprobe: int = 4,
    kmeans_iters: int = 3,
    m: int = 4,
    pq_k: int = 16,
    pq_iters: int = 5,
    rerank: int = 40,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """IVF-PQ approximate cosine top-k (Jégou et al. 2011 — the
    canonical 100 TB ANN path): coarse int64-kmeans buckets, residuals
    product-quantized to m codes, candidate generation by a
    COMPRESSED-DOMAIN scan (per-query lookup tables over the codes —
    the corpus' float vectors never touch the candidate stage), then
    an exact cosine re-rank of the ``rerank`` best candidates per
    query. Same output schema as brute_force_topk.

    Determinism chain (what puts the approximate op under the hash
    gate): coarse centroids, residuals, codebooks and codes are all
    exact int64 (the fixed-point kmeans); the approximate distance is
    an int64 LUT sum; candidate selection tie-breaks (dist ASC, id
    ASC); the final exact re-rank tie-breaks (score DESC, id ASC) —
    bit-identical at any block layout, twin-verified.

    Scale shape: training = 1 coarse fit + ONE fused PQ fit (all m
    subspace Lloyd loops advance per exchange — or per bounded driver
    gather in the small regime), all over ONE shared quantized table;
    ONE integer residual pass (materialized — the size of the input,
    spillable), then the encode fuses into the candidate scan, which
    touches only the (id, cluster, m codes) table — ~20 bytes/vector
    instead of 4·d — with per-block partial top-``rerank`` combiners;
    the exact re-rank fetches rerank×nq true vectors via one
    pushed-down is_in filter."""
    from .cluster import (
        _fsl_matrix,
        _assign,
        _get_cached,
        _pq_assign_q,
        _pq_train_q,
        _prep_quantized,
        kmeans_fixed_point,
    )

    scale_bits = 16
    S = 1 << scale_bits
    # one quantize pass shared by the coarse fit and the residual pass
    prepped = _prep_quantized(emb_ds, scale_bits, id_col, vec_col)
    coarse = kmeans_fixed_point(
        emb_ds, k=n_clusters, iters=kmeans_iters, scale_bits=scale_bits,
        id_col=id_col, vec_col=vec_col, prepped=prepped,
    )
    cref = ray.put(coarse)

    def residuals(batch: pa.Table, cref=None) -> pa.Table:
        c = _get_cached(cref)
        xq = (
            _fsl_matrix(batch["q"])
            if batch.num_rows
            else np.empty((0, c.shape[1]), dtype=np.int64)
        )
        a = _assign(xq, c) if len(xq) else np.array([], dtype=np.int64)
        # the residual stays exact int64 — the float round-trip the
        # per-subspace trainer needed (int/2^bits → rint(·2^bits)) is
        # the identity, so feeding the integers directly is the same
        r = xq - c[a]
        d = xq.shape[1]
        flat = pa.array(r.reshape(-1), pa.int64())
        return pa.table(
            {
                id_col: batch[id_col],
                "cluster": pa.array(a, pa.int64()),
                "q": pa.FixedSizeListArray.from_arrays(flat, d),
            }
        )

    res_ds = (
        prepped.map_batches(
            residuals, fn_kwargs={"cref": cref}, batch_format="pyarrow"
        )
        .materialize()
    )
    books = _pq_train_q(res_ds, m=m, k=pq_k, iters=pq_iters, id_col=id_col)
    codes = _pq_assign_q(res_ds, books, id_col=id_col, keep_cols=["cluster"])

    sub = books.shape[2]
    qn = _normalize(np.asarray(query_vecs, dtype=np.float64))
    cn = _normalize(coarse.astype(np.float64) / S)
    probe = np.argsort(-(qn @ cn.T), axis=1)[:, :nprobe]  # nq × nprobe
    xq_q = np.rint(np.asarray(query_vecs, dtype=np.float64) * S).astype(np.int64)
    # per (query, probed cluster) LUT: ||rq_sub − codebook_entry||²
    nq = len(query_ids)
    luts = np.zeros((nq, nprobe, m, pq_k), dtype=np.int64)
    for qi in range(nq):
        for pi, c in enumerate(probe[qi]):
            rq = xq_q[qi] - coarse[c]
            for j in range(m):
                diff = rq[j * sub : (j + 1) * sub][None, :] - books[j]
                luts[qi, pi, j] = np.einsum("kd,kd->k", diff, diff)
    scan_ref = ray.put({"probe": probe, "luts": luts})

    def pq_scan(batch: pa.Table, ref=None) -> pa.Table:
        s = cached_get(_ANN_CACHE, ref)
        probes, luts_b = s["probe"], s["luts"]
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        cl = batch["cluster"].to_numpy(zero_copy_only=False)
        code = np.stack(
            [batch[f"code_{j}"].to_numpy(zero_copy_only=False) for j in range(m)],
            axis=1,
        )
        out_q, out_id, out_d = [], [], []
        for qi in range(nq):
            for pi, c in enumerate(probes[qi]):
                mask = cl == c
                if not mask.any():
                    continue
                cm = code[mask]
                dist = np.zeros(len(cm), dtype=np.int64)
                for j in range(m):
                    dist += luts_b[qi, pi, j][cm[:, j]]
                sub_ids = ids[mask]
                r = min(rerank, len(dist))
                # partial top-r by (dist ASC, id ASC)
                order = np.lexsort((sub_ids, dist))[:r]
                out_q.extend([qi] * r)
                out_id.extend(sub_ids[order].tolist())
                out_d.extend(dist[order].tolist())
        return pa.table(
            {
                "qi": pa.array(out_q, pa.int64()),
                id_col: pa.array(out_id, pa.int64()),
                "dist": pa.array(out_d, pa.int64()),
            }
        )

    cand = codes.map_batches(
        pq_scan, fn_kwargs={"ref": scan_ref}, batch_format="pyarrow",
        batch_size=8192,
    ).to_pandas()
    cand = cand.sort_values(
        ["qi", "dist", id_col], ascending=[True, True, True], kind="stable"
    )
    cand = cand.groupby("qi", sort=True).head(rerank)

    # exact re-rank: fetch candidate vectors once via is_in
    cand_ids = pa.array(sorted(set(cand[id_col].tolist())), pa.int64())

    def fetch(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch[id_col], value_set=cand_ids))

    rows = (
        emb_ds.select_columns([id_col, vec_col])
        .map_batches(fetch, batch_format="pyarrow")
        .take_all()
    )
    vec_by_id = {r[id_col]: np.asarray(r[vec_col], dtype=np.float64) for r in rows}
    out_rows = []
    for qi, grp in cand.groupby("qi", sort=True):
        mat = _normalize(np.stack([vec_by_id[i] for i in grp[id_col]]))
        sims = mat @ qn[qi]
        df = pd.DataFrame(
            {
                "query_id": int(query_ids[qi]),
                id_col: grp[id_col].to_numpy(),
                "score": sims,
            }
        )
        df = df.sort_values(
            ["score", id_col], ascending=[False, True], kind="stable"
        ).head(k)
        out_rows.append(df)
    return pd.concat(out_rows, ignore_index=True)


def lsh_topk(
    emb_ds: ray.data.Dataset,
    query_ids: list[int],
    query_vecs: np.ndarray,
    k: int = 10,
    n_planes: int = 6,
    max_probe_hamming: int = 1,
    seed: int = 42,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """Approximate cosine top-k via random-hyperplane LSH (the
    alternative scale path to IVF): each vector's bucket is the sign
    bit-code of its projections onto ``n_planes`` fixed random
    hyperplanes; a query probes every bucket within
    ``max_probe_hamming`` bit flips of its own code (multi-probe LSH).
    Deterministic (seeded planes). Same output schema as
    brute_force_topk; a query's own vector always shares its exact
    code, so self-matches are guaranteed."""
    rng = np.random.RandomState(seed)
    qv = np.asarray(query_vecs, dtype=np.float64)
    d = qv.shape[1]
    planes = rng.randn(d, n_planes)
    qn = _normalize(qv)

    def codes_of(m: np.ndarray) -> np.ndarray:
        bits = (m @ planes) > 0
        return (bits @ (1 << np.arange(n_planes))).astype(np.int64)

    qcodes = codes_of(qn)
    # multi-probe: all codes within hamming ≤ r of the query's code
    flips = [0]
    if max_probe_hamming >= 1:
        flips += [1 << b for b in range(n_planes)]
    if max_probe_hamming >= 2:
        flips += [
            (1 << a) | (1 << b)
            for a in range(n_planes)
            for b in range(a + 1, n_planes)
        ]
    probe = [np.asarray(sorted({int(c) ^ f for f in flips})) for c in qcodes]
    ref = ray.put(
        {"ids": list(query_ids), "qmat": qn, "probe": probe, "planes": planes}
    )

    def lsh_topk_scan(batch: pa.Table, ref=None) -> pa.Table:
        q = cached_get(_ANN_CACHE, ref)
        qids, qmat, probes, q_planes = q["ids"], q["qmat"], q["probe"], q["planes"]
        m = _normalize(_as_matrix(batch, vec_col))
        ids = np.asarray(batch[id_col].to_pylist())
        bits = (m @ q_planes) > 0
        codes = (bits @ (1 << np.arange(q_planes.shape[1]))).astype(np.int64)
        out_q, out_id, out_score = [], [], []
        for qi, qid in enumerate(qids):
            mask = np.isin(codes, probes[qi])
            if not mask.any():
                continue
            sims = m[mask] @ qmat[qi]
            sub_ids = ids[mask]
            kk = min(k, len(sims))
            rows = np.argpartition(-sims, kth=kk - 1)[:kk]
            out_q.extend([int(qid)] * kk)
            out_id.extend(sub_ids[rows].tolist())
            out_score.extend(sims[rows].astype(float).tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                id_col: pa.array(out_id, pa.int64()),
                "score": pa.array(out_score, pa.float64()),
            }
        )

    partial = emb_ds.map_batches(
        lsh_topk_scan, fn_kwargs={"ref": ref}, batch_format="pyarrow",
        batch_size=4096,
    )
    df = partial.to_pandas()
    df = df.sort_values(
        ["query_id", "score", id_col], ascending=[True, False, True], kind="stable"
    )
    return df.groupby("query_id", sort=True).head(k).reset_index(drop=True)


def _block_matrix(tbl: pa.Table, id_col: str, vec_col: str):
    """(ids int64 array, n×d float64 matrix) from a prepped block whose
    vector column is a FixedSizeList of float64 — the flat values
    buffer reshapes zero-copy, no per-row Python."""
    ids = tbl[id_col].combine_chunks().to_numpy(zero_copy_only=False)
    vecs = tbl[vec_col].combine_chunks()
    d = vecs.type.list_size
    flat = vecs.values.to_numpy(zero_copy_only=False)
    return ids, flat.reshape(len(tbl), d)


@ray.remote
def _block_meta(tbl: pa.Table, id_col: str, vec_col: str):
    """Tiny per-block summary for angular pruning: unit centroid
    direction + angular radius (max angle of a member to the
    centroid). Rows are already unit-normalized."""
    _, m = _block_matrix(tbl, id_col, vec_col)
    if len(m) == 0:
        return None
    c = m.mean(axis=0)
    norm = np.linalg.norm(c)
    if norm == 0:
        # degenerate centroid: radius π disables pruning for this block
        return np.zeros(m.shape[1]), float(np.pi)
    c = c / norm
    cos_to_c = np.clip(m @ c, -1.0, 1.0)
    return c, float(np.arccos(cos_to_c).max())


@ray.remote
def _block_pair_sims(
    ta: pa.Table, tb: pa.Table, same: bool, threshold: float, id_col: str, vec_col: str
) -> pa.Table:
    """One exact matmul between two (pre-normalized) blocks, emitting
    qualifying pairs oriented src_id < dst_id."""
    ids_a, ma = _block_matrix(ta, id_col, vec_col)
    ids_b, mb = _block_matrix(tb, id_col, vec_col)
    sims = ma @ mb.T
    ii, jj = np.nonzero(sims >= threshold)
    if same:
        keep = ids_a[ii] < ids_b[jj]
    else:
        keep = ids_a[ii] != ids_b[jj]
    ii, jj = ii[keep], jj[keep]
    a_ids, b_ids = ids_a[ii], ids_b[jj]
    src = np.minimum(a_ids, b_ids)
    dst = np.maximum(a_ids, b_ids)
    return pa.table(
        {
            "src_id": pa.array(src.astype(np.int64), pa.int64()),
            "dst_id": pa.array(dst.astype(np.int64), pa.int64()),
            "score": pa.array(sims[ii, jj].astype(np.float64), pa.float64()),
        }
    )


def self_similarity_pairs(
    emb_ds: ray.data.Dataset,
    threshold: float,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    target_block_rows: int = 4096,
    coherent_blocks: bool = True,
    kmeans_iters: int = 2,
    max_rows: int = 10_000_000,
) -> ray.data.Dataset:
    """All (a,b) corpus pairs with cosine ≥ threshold, a<b — EXACT.

    SCOPE: exact all-pairs is O(n²) in the worst case (a corpus that
    is one angular blob at the threshold defeats every pruning
    strategy), so this op is bounded to ``max_rows`` input vectors
    (default 10⁷ ≈ the single-digit-hours regime); a larger corpus
    raises ValueError pointing at the approximate detectors
    (:func:`lsh_topk`, :func:`ivfpq_topk`,
    :func:`~ontograph_ray.stages.cluster.semdedup`) that scale to
    100 TB. Pass ``max_rows=None`` only if you have verified the
    corpus's cluster structure keeps the pruned pair grid tractable.

    Physical plan (no driver-side corpus materialization): vectors are
    normalized + packed to FixedSizeList float64 in one map_batches
    pass, re-blocked to ~``target_block_rows`` rows, and pinned in the
    object store as Arrow block refs. Every surviving block PAIR
    (i ≤ j) is one raw Ray task doing a blocked matmul — a self
    cross-join is the one shape the Dataset API can't express, so this
    is the documented drop-to-raw-tasks case; the driver holds only
    ObjectRefs and per-block metas, each task's working set is two
    blocks. Exactness-preserving pruning: for blocks A, B with unit
    centroids cA, cB and angular radii rA, rB, every cross pair has
    angle ≥ angle(cA,cB) − rA − rB (angular triangle inequality), so a
    block pair whose lower bound exceeds arccos(threshold) cannot
    contain a qualifying pair and is skipped without being read.

    ``coherent_blocks`` (the round-3 answer to the quadratic-task
    verdict): when the corpus spans more than a handful of blocks, a
    cheap fixed-point k-means (k ≈ n/target_block_rows, 2 rounds)
    tags every vector and one sort on the cluster id re-blocks the
    corpus into angularly TIGHT blocks before pairing. Read-order
    blocks have radii near π/2 (pruning never fires); cluster-coherent
    blocks have small radii, so the triangle-inequality test prunes
    most of the O((n/B)²) pair grid while every emitted pair is still
    exact — same output, same oracle, the task count now tracks the
    data's cluster structure instead of the square of its size. Worst
    case (a corpus that IS one angular blob at the threshold) remains
    quadratic — inherent to an exact all-pairs result; when
    approximate recall is acceptable, the LSH/IVF candidate generators
    in this module are the cheaper path."""
    def prep(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch[id_col], pa.int64())
        m = _normalize(_as_matrix(batch, vec_col))
        flat = pa.array(m.reshape(-1), pa.float64())
        vecs = pa.FixedSizeListArray.from_arrays(flat, m.shape[1] if len(m) else 1)
        return pa.table({id_col: ids, vec_col: vecs})

    blocks = (
        emb_ds.select_columns([id_col, vec_col])
        .map_batches(prep, batch_format="pyarrow", batch_size=target_block_rows)
        .materialize()
    )

    n = blocks.count()
    if max_rows is not None and n > max_rows:
        raise ValueError(
            f"self_similarity_pairs is an EXACT all-pairs op bounded to "
            f"max_rows={max_rows} vectors (got {n}): worst-case O(n²) "
            f"cannot finish at corpus scale. Use the approximate paths — "
            f"lsh_topk / ivfpq_topk for retrieval, semdedup or "
            f"minhash_dedup for near-dup detection — or raise max_rows "
            f"explicitly if the corpus's cluster structure is known tight."
        )
    if coherent_blocks and n > 4 * target_block_rows:
        from .cluster import _assign, _quantize, kmeans_fixed_point

        scale_bits = 16
        k = int(min(1024, max(8, n // target_block_rows)))
        cents = kmeans_fixed_point(
            blocks, k=k, iters=kmeans_iters, scale_bits=scale_bits,
            id_col=id_col, vec_col=vec_col,
        )
        cref = ray.put(cents)

        def tag(batch: pa.Table, cref=None) -> pa.Table:
            c = cached_get(_ANN_CACHE, cref)
            ids, m = _block_matrix(batch, id_col, vec_col)
            a = (
                _assign(_quantize(m, scale_bits), c)
                if len(m)
                else np.array([], dtype=np.int64)
            )
            return batch.append_column("__cluster", pa.array(a, pa.int64()))

        def untag(batch: pa.Table) -> pa.Table:
            return batch.drop_columns(["__cluster"])

        blocks = (
            blocks.map_batches(tag, fn_kwargs={"cref": cref}, batch_format="pyarrow")
            .sort("__cluster")
            .map_batches(
                untag, batch_format="pyarrow", batch_size=target_block_rows
            )
            .materialize()
        )
    refs = blocks.to_arrow_refs()
    metas = ray.get([_block_meta.remote(r, id_col, vec_col) for r in refs])
    live = [(r, m) for r, m in zip(refs, metas) if m is not None]
    max_angle = float(np.arccos(np.clip(threshold, -1.0, 1.0)))

    out_refs = []
    for i, (ra, (ca, rad_a)) in enumerate(live):
        for j in range(i, len(live)):
            rb, (cb, rad_b) = live[j]
            ang = float(np.arccos(np.clip(np.dot(ca, cb), -1.0, 1.0)))
            if ang - rad_a - rad_b > max_angle:
                continue  # provably no qualifying cross pair
            out_refs.append(
                _block_pair_sims.remote(ra, rb, i == j, threshold, id_col, vec_col)
            )
    if not out_refs:
        empty = pa.table(
            {
                "src_id": pa.array([], pa.int64()),
                "dst_id": pa.array([], pa.int64()),
                "score": pa.array([], pa.float64()),
            }
        )
        return ray.data.from_arrow(empty)
    return ray.data.from_arrow_refs(out_refs)


def hard_negatives(
    emb_ds: ray.data.Dataset,
    query_ids: list[int],
    query_vecs: np.ndarray,
    query_labels: list[int],
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    label_col: str = "label",
) -> pd.DataFrame:
    """Hard-negative mining for contrastive training: per query, the
    ``k`` most-similar corpus vectors whose ``label`` DIFFERS from the
    query's — the near-the-margin negatives that make embedding
    training effective (easy random negatives carry no gradient).
    Same physical shape as brute_force_topk (per-block masked partial
    top-k combiner → tiny driver merge), ties (score DESC, id ASC)."""
    q_ref = ray.put(
        {
            "ids": list(query_ids),
            "vecs": _normalize(np.asarray(query_vecs, dtype=np.float64)),
            "labels": list(query_labels),
        }
    )

    def masked_topk(batch: pa.Table, ref=None) -> pa.Table:
        q = cached_get(_ANN_CACHE, ref)
        qids, qmat, qlab = q["ids"], q["vecs"], q["labels"]
        m = _normalize(_as_matrix(batch, vec_col))
        ids = np.asarray(batch[id_col].to_pylist())
        labs = np.asarray(batch[label_col].to_pylist())
        out_q, out_id, out_s = [], [], []
        for qi, qid in enumerate(qids):
            mask = labs != qlab[qi]
            if not mask.any():
                continue
            sims = m[mask] @ qmat[qi]
            sub = ids[mask]
            kk = min(k, len(sims))
            rows = np.argpartition(-sims, kth=kk - 1)[:kk]
            out_q.extend([int(qid)] * kk)
            out_id.extend(sub[rows].tolist())
            out_s.extend(sims[rows].astype(float).tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                id_col: pa.array(out_id, pa.int64()),
                "score": pa.array(out_s, pa.float64()),
            }
        )

    partial = emb_ds.select_columns([id_col, vec_col, label_col]).map_batches(
        masked_topk, fn_kwargs={"ref": q_ref}, batch_format="pyarrow",
        batch_size=4096,
    )
    df = partial.to_pandas()
    df = df.sort_values(
        ["query_id", "score", id_col], ascending=[True, False, True], kind="stable"
    )
    return df.groupby("query_id", sort=True).head(k).reset_index(drop=True)


# ---------------------------------------------------------------------------
# Sharded deterministic HNSW (Malkov & Yashunin 2016, arXiv:1603.09320)
#
# The standard distributed deployment: the corpus is hash-partitioned
# into shards, each shard builds its OWN small-world graph, queries
# fan out to every shard index and the per-shard top-k merge globally
# (score desc, id asc). Shards are the parallel axis — graph
# construction is inherently sequential per shard (each insert greedy-
# searches the graph so far), which is exactly why a single global
# HNSW does not distribute; the shard form keeps per-actor build
# sequential and bounded while the corpus scales with the shard count.
#
# Determinism contract (what makes an approximate index oracle-able,
# same discipline as the IVF/LSH twins): insertion order = ascending
# vec_id within a shard; level assignment = a pure function of vec_id
# (splitmix64 → exponential via math.log, no RNG state); all candidate
# orderings tie-broken by (distance, vec_id); float64 cosine
# throughout. The fixture twin re-implements the whole build+search in
# plain numpy/heapq and must match bit-for-bit.
# ---------------------------------------------------------------------------


def _hnsw_level(vid: int, m_l: float) -> int:
    import math

    from ..store.dataset import splitmix64

    h = int(splitmix64(np.asarray([vid], dtype=np.uint64))[0])
    u = (h + 1) / 2.0**64  # (0, 1]
    return int(-math.log(u) * m_l)


class _HnswGraph:
    """One shard's in-memory HNSW graph (deterministic build)."""

    def __init__(self, M: int = 8, ef_construction: int = 64):
        import math

        self.M = M
        self.m_l = 1.0 / math.log(M)
        self.efc = ef_construction
        self.ids: list[int] = []
        self.vecs: np.ndarray | None = None  # normalized, row per node
        self.levels: list[int] = []
        self.links: list[list[list[int]]] = []  # node → level → neighbors
        self.entry = -1

    def _dist(self, a: int, q: np.ndarray) -> float:
        return float(1.0 - self.vecs[a] @ q)

    def _search_layer(self, q: np.ndarray, eps: list[int], ef: int, lvl: int):
        """Best-first search on one layer → [(dist, node)] sorted,
        tie-broken by node id (heapq tuples)."""
        import heapq

        visited = set(eps)
        cand = [(self._dist(e, q), e) for e in eps]
        heapq.heapify(cand)  # min-heap: closest candidate first
        best = [(-d, -e) for d, e in cand]  # max-heap on (dist, id)
        heapq.heapify(best)
        while cand:
            d, n = heapq.heappop(cand)
            if len(best) >= ef and (d, n) > (-best[0][0], -best[0][1]):
                break
            for nb in self.links[n][lvl]:
                if nb in visited:
                    continue
                visited.add(nb)
                dn = self._dist(nb, q)
                if len(best) < ef or (dn, nb) < (-best[0][0], -best[0][1]):
                    heapq.heappush(cand, (dn, nb))
                    heapq.heappush(best, (-dn, -nb))
                    if len(best) > ef:
                        heapq.heappop(best)
        return sorted((-d, -n) for d, n in best)

    def insert(self, vid_row: int) -> None:
        lvl = self.levels[vid_row]
        if self.entry < 0:
            self.entry = vid_row
            return
        q = self.vecs[vid_row]
        top = self.levels[self.entry]
        eps = [self.entry]
        for l in range(top, lvl, -1):
            eps = [self._search_layer(q, eps, 1, l)[0][1]]
        for l in range(min(lvl, top), -1, -1):
            found = self._search_layer(q, eps, self.efc, l)
            m = self.M if l > 0 else 2 * self.M  # M0 = 2M per the paper
            nbrs = [n for _, n in found[:m]]
            self.links[vid_row][l] = list(nbrs)
            for n in nbrs:
                ln = self.links[n][l]
                ln.append(vid_row)
                if len(ln) > m:
                    # simple M-nearest pruning, tie-broken by id
                    scored = sorted(
                        (self._dist(x, self.vecs[n]), x) for x in ln
                    )
                    self.links[n][l] = [x for _, x in scored[:m]]
            eps = [n for _, n in found]
        if lvl > top:
            self.entry = vid_row

    def build(self, ids: np.ndarray, vecs: np.ndarray) -> None:
        order = np.argsort(ids, kind="stable")  # ascending vec_id
        self.ids = ids[order].tolist()
        self.vecs = _normalize(vecs[order].astype(np.float64))
        self.levels = [_hnsw_level(int(v), self.m_l) for v in self.ids]
        self.links = [
            [[] for _ in range(lv + 1)] for lv in self.levels
        ]
        for row in range(len(self.ids)):
            self.insert(row)

    def search(self, q: np.ndarray, k: int, ef: int):
        if self.entry < 0:
            return []
        qn = q / (np.linalg.norm(q) or 1.0)
        eps = [self.entry]
        for l in range(self.levels[self.entry], 0, -1):
            eps = [self._search_layer(qn, eps, 1, l)[0][1]]
        found = self._search_layer(qn, eps, max(ef, k), 0)
        return [
            (float(1.0 - d), self.ids[n]) for d, n in found[:k]
        ]  # (cosine score, vec_id)


def hnsw_topk(
    emb_ds: ray.data.Dataset,
    query_ids: list[int],
    query_vecs: np.ndarray,
    k: int = 10,
    M: int = 8,
    ef_construction: int = 64,
    ef_search: int = 48,
    n_shards: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """Sharded HNSW approximate top-k: ONE shard-keyed exchange
    co-locates each shard's vectors, each group builds its graph and
    answers the broadcast queries, and the per-shard partials (at most
    k·n_queries·n_shards rows) merge on the driver by (score desc,
    vec_id asc). Returns (query_id, vec_id, score), k rows per query."""
    queries_ref = ray.put(
        {"ids": list(query_ids), "vecs": np.asarray(query_vecs, dtype=np.float64)}
    )
    from ..store.dataset import bucketed_group_map

    def add_shard(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        return batch.append_column(
            "__shard", pa.array((ids % n_shards).astype(np.int64))
        )

    def build_and_search(df: pd.DataFrame) -> pd.DataFrame:
        q = cached_get(_ANN_CACHE, queries_ref)
        ids = df[id_col].to_numpy(dtype=np.int64)
        vecs = np.asarray(df[vec_col].tolist(), dtype=np.float64)
        g = _HnswGraph(M=M, ef_construction=ef_construction)
        g.build(ids, vecs)
        out_q, out_id, out_s = [], [], []
        for qi, qid in enumerate(q["ids"]):
            for score, vid in g.search(q["vecs"][qi], k, ef_search):
                out_q.append(int(qid))
                out_id.append(int(vid))
                out_s.append(score)
        return pd.DataFrame(
            {"query_id": out_q, id_col: out_id, "score": out_s}
        )

    partial = bucketed_group_map(
        emb_ds.map_batches(add_shard, batch_format="pyarrow"),
        ["__shard"],
        build_and_search,
    )
    df = partial.to_pandas()  # ≤ k · n_queries · n_shards rows
    df = df.sort_values(
        ["query_id", "score", id_col], ascending=[True, False, True], kind="stable"
    )
    return df.groupby("query_id", sort=True).head(k).reset_index(drop=True)
