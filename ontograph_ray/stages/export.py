"""Deterministic shuffle-sharding for training-data export.

The last step of a corpus pipeline: assign every document a shard and
an intra-shard position so the training job reads well-mixed data,
WITHOUT a materialized `random_shuffle` (an all-to-all exchange of
every byte — the single most expensive op at 100 TB). Instead each doc
gets a seeded splitmix64 hash of its id:

    shuffle_key = splitmix64(doc_id XOR seed)   (uniform, avalanche)
    shard       = shuffle_key % num_shards
    sort_key    = shuffle_key // num_shards     (order WITHIN a shard)

Reading shards in shard order, each sorted by ``sort_key``, is a
uniform pseudo-random permutation of the corpus — same mixing quality
as a true shuffle, reproducible across runs/processes (no RNG state),
and resumable (a failed export re-runs only missing shards).

Scale shape: the assignment is one streaming ``map_batches`` (pure
numpy uint64 arithmetic, no Python per row, no shuffle). The actual
export then partitions by ``shard`` — a single bucketed exchange that
moves each byte once; sorting happens per shard, never globally.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ..store.dataset import bucketed_group_map, splitmix64


def _assign_batch(batch: pa.Table, num_shards: int, seed: int) -> pa.Table:
    ids = batch["doc_id"].to_numpy().astype(np.uint64)
    h = splitmix64(ids ^ np.uint64(seed))
    shard = (h % np.uint64(num_shards)).astype(np.int64)
    sort_key = (h // np.uint64(num_shards)).astype(np.int64)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "shard": pa.array(shard, pa.int64()),
            "sort_key": pa.array(sort_key, pa.int64()),
        }
    )


def shard_assignments(
    docs: ray.data.Dataset, num_shards: int = 1024, seed: int = 0
) -> ray.data.Dataset:
    """(doc_id, shard, sort_key) for every document — the deterministic
    shuffle-export layout (see module doc)."""
    return docs.map_batches(
        _assign_batch,
        fn_kwargs={"num_shards": num_shards, "seed": seed},
        batch_format="pyarrow",
    )


def split_assign(
    docs: ray.data.Dataset,
    id_col: str = "doc_id",
    fractions: "tuple[tuple[str, int], ...]" = (
        ("train", 9000),
        ("val", 500),
        ("test", 500),
    ),
    seed: int = 0,
) -> ray.data.Dataset:
    """Deterministic train/val/test split: each row gets a ``split``
    label from its id hash alone — stable across runs, partitionings
    and cluster sizes, and membership never changes when the corpus
    grows (a new doc lands in a split without moving any old doc, the
    property a random_shuffle+slice split lacks). ``fractions`` are
    (label, basis_points) summing to 10 000; row's bucket =
    splitmix64(id ^ seed) mod 10 000 mapped through the cumulative
    boundaries. Pure per-batch numpy — no exchange, no driver state."""
    import numpy as np

    labels = [lab for lab, _ in fractions]
    bps = [bp for _, bp in fractions]
    if sum(bps) != 10_000:
        raise ValueError("fractions basis points must sum to 10000")
    if any(bp <= 0 for bp in bps):
        raise ValueError("every split needs > 0 basis points")
    bounds = np.cumsum(bps[:-1]).astype(np.int64)  # right-open boundaries
    label_arr = np.array(labels)

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy().astype(np.uint64)
        bp = (splitmix64(ids ^ np.uint64(seed)) % np.uint64(10_000)).astype(
            np.int64
        )
        lab = label_arr[np.searchsorted(bounds, bp, side="right")]
        return batch.append_column("split", pa.array(lab, pa.string()))

    return docs.map_batches(assign, batch_format="pyarrow")


def write_shards(
    docs: ray.data.Dataset,
    out_dir: str,
    num_shards: int = 1024,
    seed: int = 0,
) -> None:
    """Export the corpus as shard-partitioned Parquet: one directory
    per shard (resumable — a partial run leaves whole-shard units),
    rows within a shard ordered by ``sort_key``. One bucketed exchange
    (the groupby); no global sort.

    Partitioning assumption (documented contract): size ``num_shards``
    so ONE shard fits a worker's heap — the in-shard ordering sort is
    per-group pandas. corpus_bytes / num_shards ≲ 2 GiB (e.g. 100 TB →
    65536 shards); shard count does not affect the mixing quality."""
    import pandas as pd

    def tag(batch: pa.Table) -> pa.Table:
        a = _assign_batch(batch, num_shards, seed)
        return batch.append_column("shard", a["shard"]).append_column(
            "sort_key", a["sort_key"]
        )

    def order_shard(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values("sort_key", kind="stable")

    (
        docs.map_batches(tag, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(order_shard, batch_format="pandas")
        .write_parquet(out_dir, partition_cols=["shard"])
    )


def weighted_source_sample(
    ds: ray.data.Dataset,
    weights_bp: dict,
    seed: int = 11,
    key_col: str = "doc_id",
    group_col: str = "source",
) -> ray.data.Dataset:
    """Deterministic data-mixing sampler: keep a row iff
    ``splitmix64(key XOR seed) % 10000 <`` its group's weight in
    basis points (The-Pile/Dolma-style per-source mixing ratios,
    made reproducible — no RNG, no shuffle, one streaming pass;
    a group absent from ``weights_bp`` is dropped). Rates are exact
    in expectation and the SELECTION is exactly reproducible: the
    splitmix64 SQL twin re-derives every keep decision."""

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        h = splitmix64(df[key_col].to_numpy().astype(np.uint64) ^ np.uint64(seed))
        thr = (
            df[group_col]
            .map(weights_bp)
            .fillna(0)
            .to_numpy()
            .astype(np.int64)
        )
        return df[(h % np.uint64(10000)).astype(np.int64) < thr]

    return ds.map_batches(keep, batch_format="pandas")


def group_concentration(
    ds: ray.data.Dataset,
    group_col: str,
    item_col: str,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Herfindahl–Hirschman concentration index per group:
    ``(group, n_items, hhi)`` where hhi = Σ over items of
    (item's share of the group's rows, in integer basis points,
    floored)² — ranges (0, 10000²]; 10000² = a single item owns the
    group. The corpus-mixing diagnostic: a language whose documents
    concentrate in one source scores high, a diversified one low.
    Floor shares keep every value int64 so the SQL twin is exact.

    Scale shape: per-block (group, item) count combiner → ONE
    group-bucketed exchange where totals, shares and the square-sum
    happen vectorized per bucket."""
    import pandas as pd

    cols = [group_col, item_col]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=cols + ["n"])
        return df.groupby(cols, sort=False).size().rename("n").reset_index()

    def per_group(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=[group_col, "n_items", "hhi"])
        c = df.groupby(cols, sort=False)["n"].sum().reset_index()
        tot = c.groupby(group_col, sort=False)["n"].transform("sum")
        share_bp = (10_000 * c["n"]) // tot
        c["sq"] = share_bp * share_bp
        out = c.groupby(group_col, sort=False).agg(
            n_items=(item_col, "size"), hhi=("sq", "sum")
        ).reset_index()
        out["n_items"] = out["n_items"].astype("int64")
        out["hhi"] = out["hhi"].astype("int64")
        return out

    return bucketed_group_map(
        ds.select_columns(cols), [group_col], per_group,
        num_buckets=num_buckets, partial_fn=partial,
    )


def zorder_key(
    ds: ray.data.Dataset,
    cols: list[str],
    bits: int = 21,
    out_col: str = "zkey",
) -> ray.data.Dataset:
    """Z-order (Morton) interleave of 2-3 non-negative integer columns
    into one int64 sort key — the multi-dimensional data-layout
    primitive behind Delta/Iceberg Z-ORDER clustering: writing files
    sorted by ``zkey`` keeps rows close in EVERY listed dimension
    close on disk, so min/max file statistics prune scans on any of
    them (a single-column sort only prunes its own column). ``bits``
    per dimension (values ≥ 2^bits are clamped to the top code — the
    standard coarse-cell behavior); len(cols)·bits ≤ 63 so the key
    stays int64. Pure per-batch numpy bit arithmetic, no exchange; the
    bit interleave is reproduced term-by-term in the SQL twin."""
    import numpy as np

    n_dims = len(cols)
    if not 2 <= n_dims <= 3:
        raise ValueError("zorder_key interleaves 2 or 3 columns")
    if n_dims * bits > 63:
        raise ValueError("len(cols) * bits must be <= 63")

    def interleave(batch: pa.Table) -> pa.Table:
        z = np.zeros(batch.num_rows, dtype=np.int64)
        cap = np.int64((1 << bits) - 1)
        for d, c in enumerate(cols):
            v = batch[c].to_numpy(zero_copy_only=False).astype(np.int64)
            if (v < 0).any():
                raise ValueError(f"zorder_key needs non-negative {c}")
            v = np.minimum(v, cap)
            for i in range(bits):
                z |= ((v >> np.int64(i)) & np.int64(1)) << np.int64(
                    i * n_dims + d
                )
        return batch.append_column(out_col, pa.array(z, pa.int64()))

    return ds.map_batches(interleave, batch_format="pyarrow")


def negative_samples(
    docs: ray.data.Dataset,
    n_total: int,
    id_col: str = "doc_id",
    k: int = 4,
    seed: int = 3,
) -> ray.data.Dataset:
    """Deterministic uniform negative sampling over a DENSE id space
    0..n_total−1 (the contrastive-training staple): per anchor row, k
    pseudo-random other ids — neg_j = splitmix64(id XOR (seed+j)) mod
    n_total, bumped by one (mod n) on a self-collision. No RNG state,
    no shuffle, one streaming pass; every draw is re-derivable by the
    splitmix64 SQL twin, so sampling is exactly reproducible across
    runs and engines. For hard (near-the-margin) negatives see
    stages/ann.hard_negatives."""
    if n_total <= 1:
        raise ValueError("need at least 2 ids to sample negatives")

    def sample(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy().astype(np.uint64)
        out_id, out_j, out_neg = [], [], []
        for j in range(k):
            h = splitmix64(ids ^ np.uint64(seed + j))
            neg = (h % np.uint64(n_total)).astype(np.int64)
            own = batch[id_col].to_numpy().astype(np.int64)
            neg = np.where(neg == own, (neg + 1) % n_total, neg)
            out_id.append(own)
            out_j.append(np.full(len(own), j, dtype=np.int64))
            out_neg.append(neg)
        return pa.table(
            {
                id_col: pa.array(np.concatenate(out_id), pa.int64()),
                "j": pa.array(np.concatenate(out_j), pa.int64()),
                "neg_id": pa.array(np.concatenate(out_neg), pa.int64()),
            }
        )

    return docs.select_columns([id_col]).map_batches(
        sample, batch_format="pyarrow"
    )
