"""Distributed sketches: KMV + HyperLogLog cardinality, k-min-hash
quantile sample.

**KMV** estimates the number of distinct values in a column with
bounded memory: every block contributes its k smallest 64-bit value
hashes (a vectorized partial — the combiner), the driver merges the
tiny per-block candidate sets and estimates

    D ≈ (k - 1) / r_k ,   r_k = k-th smallest hash / 2^64

(Bar-Yossef et al., "Counting distinct elements in a data stream",
RANDOM 2002). Deterministic: crc32 value hashing, no RNG.

**HyperLogLog** (Flajolet et al. 2007) estimates the same quantity
with O(2^p) FIXED memory per block (KMV keeps k hashes per block):
each block fills a 2^p register array with the max leading-zero rank
per bucket, registers merge by elementwise max (order-invariant), and
one tiny gather reaches the driver. Deterministic end to end — exact
bitwise clz, no floats until the final estimate, whose accumulation
order is pinned — so even this approximate operator sits under the
driver's value-hash gate via an independent plain-Python fixture.

**Quantile sketch** estimates column quantiles in one streaming pass
with bounded memory (exact quantiles need a full shuffle —
`store.dataset.grouped_quantiles`). The sample is the k rows with the
smallest ``splitmix64(key)`` hashes: with a unique key column that is
a uniform random sample (standard rank error O(1/√k)), yet —
unlike KLL/t-digest, whose merge order depends on block layout — it is
DETERMINISTIC and mergeable in any order (the k-min set of a union is
the k-min of the k-min sets), so the same input yields bit-identical
output at any parallelism AND the whole sketch has an exact SQL twin
(``ORDER BY splitmix64(key) LIMIT k``), putting an approximate
operator under the driver's value-hash gate.

The reference has no approximate aggregates (SURVEY §2.6); these are
scale-path additions — one small gather instead of an exchange.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd

import ray
import ray.data

from ..bcast import cached_get
from ..store.dataset import bucketed_group_map, splitmix64


def _hash_series(s: pd.Series) -> np.ndarray:
    """Uniform 64-bit value hashes. crc32 alone is NOT avalanche —
    structured/similar inputs (e.g. near-identical documents) cluster
    in hash space and bias the k-th-minimum estimator (measured 2×
    undercount on a 500-doc corpus of same-vocabulary texts) — so the
    crc is passed through a splitmix64 finalizer, which is uniform and
    stays deterministic across processes (no PYTHONHASHSEED issues)."""
    return splitmix64(
        np.fromiter(
            (zlib.crc32(str(v).encode()) for v in s), dtype=np.uint64, count=len(s)
        )
    )


def kmv_partials(ds: ray.data.Dataset, col: str, k: int = 1024) -> ray.data.Dataset:
    """Per-block k smallest distinct value hashes (the combiner)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"h": pd.Series(dtype="uint64")})
        h = np.unique(_hash_series(df[col]))
        return pd.DataFrame({"h": h[:k]})

    return ds.map_batches(partial, batch_format="pandas")


def kmv_distinct_count(ds: ray.data.Dataset, col: str, k: int = 1024) -> int:
    """Merged KMV estimate of the number of distinct values of ``col``."""
    parts = kmv_partials(ds, col, k)
    merged = np.unique(
        np.concatenate(
            [np.array([r["h"] for r in parts.take_all()], dtype=np.uint64), np.array([], dtype=np.uint64)]
        )
    )
    if len(merged) < k:
        # fewer than k distinct hashes seen → the sketch is exact.
        # (STRICT: exactly k survivors is ambiguous — a single block
        # truncates at k even when more distinct values exist, so k
        # survivors must fall through to the estimator, which is
        # consistent in both cases.)
        return int(len(merged))
    kth = merged[k - 1]
    return int(round((k - 1) / (float(kth) / float(1 << 64))))


def _clz64(x: np.ndarray) -> np.ndarray:
    """Exact vectorized count-leading-zeros for uint64 (6 masked
    passes — no float log, so no rounding edge cases). x == 0 → 64."""
    x = x.copy()
    n = np.zeros(x.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        top_zero = (x >> np.uint64(64 - s)) == 0
        x = np.where(top_zero, x << np.uint64(s), x)
        n = np.where(top_zero, n + s, n)
    return n


def hll_partials(
    ds: ray.data.Dataset, col: str, p: int = 10
) -> ray.data.Dataset:
    """Per-block HyperLogLog register partial: ONE row per block whose
    ``regs`` column is the block's m=2^p register array (max rho per
    register). Registers merge by elementwise max, which is
    commutative/associative/idempotent — the sketch is deterministic
    at any parallelism and block layout."""
    m = 1 << p

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        regs = np.zeros(m, dtype=np.int64)
        if len(df):
            h = _hash_series(df[col])
            idx = (h >> np.uint64(64 - p)).astype(np.int64)
            rem = h << np.uint64(p)  # remaining 64-p bits, top-aligned
            rho = np.where(rem == 0, 64 - p + 1, _clz64(rem) + 1)
            np.maximum.at(regs, idx, rho)
        return pd.DataFrame({"regs": [regs.tolist()]})

    return ds.map_batches(partial, batch_format="pandas")


def hll_estimate(regs: list[int]) -> int:
    """Flajolet et al. 2007 estimator with the small-range
    linear-counting correction, computed in PLAIN Python floats with a
    pinned accumulation order (ascending register index) so the
    independent fixture oracle reproduces it bit-for-bit."""
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    s = 0.0
    for v in regs:
        s += 2.0 ** (-v)
    e = alpha * m * m / s
    if e <= 2.5 * m:
        v0 = sum(1 for v in regs if v == 0)
        if v0:
            import math

            e = m * math.log(m / v0)
    return int(round(e))


def hll_distinct_count(ds: ray.data.Dataset, col: str, p: int = 10) -> int:
    """HyperLogLog distinct-count estimate of ``col`` (standard error
    ≈ 1.04/√(2^p); p=10 → ~3.3%). Same scale shape as KMV — a
    vectorized per-block combiner then ONE tiny gather (blocks × 2^p
    int registers), no exchange — but with O(2^p) fixed memory
    regardless of cardinality, where KMV keeps k hashes per block.
    Deterministic (crc32+splitmix64 value hashing, exact bitwise clz,
    order-invariant max-merge): the estimate is pinned exactly by an
    independent plain-Python fixture oracle (scripts/gen_fixtures.py)."""
    parts = hll_partials(ds, col, p).take_all()
    regs = np.zeros(1 << p, dtype=np.int64)
    for r in parts:
        np.maximum(regs, np.asarray(r["regs"], dtype=np.int64), out=regs)
    return hll_estimate([int(v) for v in regs])


def quantile_sample(
    ds: ray.data.Dataset, value_col: str, key_col: str, k: int = 1024
) -> np.ndarray:
    """The k-min-hash row sample (module doc): sorted values of the k
    rows with the smallest ``splitmix64(key_col)``. ``key_col`` must be
    unique integers (a row id) for the sample to be uniform.

    Physical plan: a per-block k-min partial (the combiner — each block
    forwards ≤ k rows), then a sort+limit over the tiny partial table
    (≤ k·num_blocks rows); k rows reach the driver. Ties in ``h``
    (hash collisions between distinct keys) break by value so the
    result stays deterministic and matches the SQL twin's
    ``ORDER BY h, v``. If the input has ≤ k rows the sample is the
    whole column and the quantiles are exact."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "h": splitmix64(df[key_col].to_numpy().astype(np.uint64)),
                "v": df[value_col].to_numpy(),
            }
        )
        return out.sort_values(["h", "v"], kind="stable").head(k)

    parts = ds.map_batches(partial, batch_format="pandas")
    top = parts.sort(["h", "v"]).limit(k).take_all()
    return np.sort(np.array([r["v"] for r in top]))


def quantile_sketch(
    ds: ray.data.Dataset,
    value_col: str,
    key_col: str,
    qs: dict[str, float],
    k: int = 1024,
) -> pd.DataFrame:
    """Approximate column quantiles from the k-min-hash sample.

    ``qs`` maps output name → quantile. Output: one row per quantile,
    columns (q_name, q, value) with ``value`` the sample element at
    sorted position ``ceil(q·n)−1`` — the same discrete-quantile
    semantics as ``grouped_quantiles`` / SQL ``quantile_disc``, so the
    value is always a stored element, never interpolated."""
    vals = quantile_sample(ds, value_col, key_col, k)
    n = len(vals)
    names = sorted(qs)
    idx = [max(int(np.ceil(qs[name] * n)) - 1, 0) for name in names]
    return pd.DataFrame(
        {
            "q_name": names,
            "q": [float(qs[name]) for name in names],
            "value": [vals[i] for i in idx],
        }
    )


# --- Bloom filter -----------------------------------------------------------
#
# The scale path of the "seen before?" probe (cross-snapshot dedup,
# decontamination): instead of shipping the full key set into an
# anti-join exchange, build an m-bit Bloom filter ONCE and broadcast
# it (m/8 bytes) to a streaming probe. A Bloom filter's bit array is
# the OR of per-key bit patterns — OR is associative and commutative,
# so the build is a per-block combiner + one word-level OR exchange,
# DETERMINISTIC for any block layout, and the probe result (with its
# false positives) is bit-reproducible: even this approximate operator
# sits under an exact SQL oracle (the splitmix64 CTE chain recomputes
# every bit position in DuckDB). Hash family: position_j =
# splitmix64(key XOR seed_j) mod m — j independent finalizer calls
# rather than double hashing, which keeps the SQL twin one CTE chain
# per seed. False-negative-free by construction; the false-positive
# rate is the standard (1 - e^(-kn/m))^k.

_BLOOM_CACHE: dict = {}

_U64 = np.uint64


def bloom_build(
    ds: ray.data.Dataset,
    col: str,
    m_bits: int = 1 << 20,
    seeds: tuple = (0x5173, 0xA5A5),
) -> np.ndarray:
    """Build the filter over an int64 key column → int64 word array of
    length m_bits/64. Per-block combiner emits only NONZERO words
    (word_idx, word); the bucketed exchange ORs duplicates per word so
    the driver gather is ≤ m/64 rows regardless of corpus size."""

    if m_bits % 64:
        raise ValueError("m_bits must be a multiple of 64")
    words = m_bits // 64

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        bitmap = np.zeros(words, dtype=np.uint64)
        if len(df):
            keys = df[col].to_numpy().astype(np.uint64)
            for seed in seeds:
                pos = splitmix64(keys ^ _U64(seed)) % _U64(m_bits)
                np.bitwise_or.at(
                    bitmap,
                    (pos >> _U64(6)).astype(np.int64),
                    _U64(1) << (pos & _U64(63)),
                )
        nz = np.flatnonzero(bitmap)
        return pd.DataFrame(
            {
                "word_idx": nz.astype(np.int64),
                "word": bitmap[nz].view(np.int64),
            }
        )

    def or_words(df: pd.DataFrame) -> pd.DataFrame:
        # bitwise OR is exact on int64 two's complement
        out = df.groupby("word_idx", sort=False)["word"].agg(
            lambda s: np.bitwise_or.reduce(s.to_numpy())
        )
        return out.reset_index()

    rows = bucketed_group_map(
        ds.select_columns([col]), ["word_idx"], or_words, partial_fn=partial
    ).take_all()
    bits = np.zeros(words, dtype=np.int64)
    for r in rows:
        bits[r["word_idx"]] |= r["word"]
    return bits


def bloom_probe(
    ds: ray.data.Dataset,
    bits: np.ndarray,
    col: str,
    m_bits: int = 1 << 20,
    seeds: tuple = (0x5173, 0xA5A5),
    out_col: str = "maybe_seen",
) -> ray.data.Dataset:
    """(key, maybe_seen) for every row — the filter words are
    ``ray.put`` once and fetched once per worker; each batch is one
    vectorized position-compute + gather + bit test per seed."""

    ref = ray.put(np.asarray(bits, dtype=np.int64))

    def probe(df: pd.DataFrame, ref=None) -> pd.DataFrame:
        w = cached_get(_BLOOM_CACHE, ref, transform=lambda a: a.view(np.uint64))
        out = pd.DataFrame({col: df[col]})
        if not len(df):
            out[out_col] = pd.Series(dtype="int64")
            return out
        keys = df[col].to_numpy().astype(np.uint64)
        hit = np.ones(len(keys), dtype=bool)
        for seed in seeds:
            pos = splitmix64(keys ^ _U64(seed)) % _U64(m_bits)
            word = w[(pos >> _U64(6)).astype(np.int64)]
            hit &= ((word >> (pos & _U64(63))) & _U64(1)).astype(bool)
        out[out_col] = hit.astype("int64")
        return out

    return ds.select_columns([col]).map_batches(
        probe, fn_kwargs={"ref": ref}, batch_format="pandas"
    )


def cms_partials(
    ds: ray.data.Dataset,
    col: str,
    width: int = 1024,
    depth: int = 4,
    seed: int = 101,
) -> ray.data.Dataset:
    """Per-block Count-Min sketch partial (Cormode & Muthukrishnan
    2005): ``depth`` counter rows of ``width`` cells; occurrence of key
    x increments cell ``splitmix64(x XOR (seed + r)) mod width`` in
    every row r. Counters merge by elementwise SUM — commutative, so
    the merged sketch (and every estimate read from it) is
    deterministic at any block layout, which is what lets the
    approximate counts sit under an exact splitmix64 SQL twin.
    Emits ≤ depth·width (row, col, n) rows per block."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out_r, out_c, out_n = [], [], []
        if len(df):
            x = df[col].to_numpy().astype(np.uint64)
            for r in range(depth):
                h = splitmix64(x ^ np.uint64(seed + r))
                cols = (h % np.uint64(width)).astype(np.int64)
                cnt = np.bincount(cols, minlength=width)
                live = np.flatnonzero(cnt)
                out_r.extend([r] * len(live))
                out_c.extend(live.tolist())
                out_n.extend(cnt[live].tolist())
        return pd.DataFrame(
            {
                "row": pd.Series(out_r, dtype="int64"),
                "col": pd.Series(out_c, dtype="int64"),
                "n": pd.Series(out_n, dtype="int64"),
            }
        )

    return ds.select_columns([col]).map_batches(partial, batch_format="pandas")


def cms_estimate(
    ds: ray.data.Dataset,
    col: str,
    probe_keys: "list[int]",
    width: int = 1024,
    depth: int = 4,
    seed: int = 101,
) -> "pd.DataFrame":
    """Count-Min point estimates for ``probe_keys``: merge the partial
    counters (tiny — ≤ depth·width cells cross the wire per block) and
    read min over rows of the key's cell. Estimates overcount only
    (collisions add), never undercount — the standard CMS guarantee."""
    parts = cms_partials(ds, col, width=width, depth=depth, seed=seed)
    merged = np.zeros((depth, width), dtype=np.int64)
    for r in parts.take_all():
        merged[r["row"], r["col"]] += r["n"]
    keys = np.asarray(probe_keys, dtype=np.uint64)
    ests = np.full(len(keys), np.iinfo(np.int64).max, dtype=np.int64)
    for r in range(depth):
        cols = (splitmix64(keys ^ np.uint64(seed + r)) % np.uint64(width)).astype(
            np.int64
        )
        ests = np.minimum(ests, merged[r, cols])
    return pd.DataFrame(
        {
            col: pd.Series(np.asarray(probe_keys, dtype=np.int64)),
            "est_count": pd.Series(ests, dtype="int64"),
        }
    )


def hll_grouped(
    ds: ray.data.Dataset,
    group_col: str,
    col: str,
    p: int = 10,
    num_buckets: int = 8,
) -> ray.data.Dataset:
    """Per-GROUP HyperLogLog distinct counts → (group, est) — the
    sketch-as-aggregate form (approximate COUNT(DISTINCT x) GROUP BY
    g) whose exchange carries 2^p-int register arrays per (block,
    group) instead of raw values. Registers merge by elementwise max
    (commutative/idempotent) and the estimator is the same
    pinned-order float evaluation as the global sketch, so the
    approximate per-group counts are deterministic at any layout and
    carry an exact fixture twin. Partitioning assumption: the number
    of distinct GROUPS per block is modest (the per-block partial
    loops per group present)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        m = 1 << p
        rows_g, rows_r = [], []
        for g, sub in df.groupby(group_col, sort=False):
            regs = np.zeros(m, dtype=np.int64)
            h = _hash_series(sub[col])
            idx = (h >> np.uint64(64 - p)).astype(np.int64)
            rem = (h << np.uint64(p)) & np.uint64(0xFFFFFFFFFFFFFFFF)
            rho = np.where(rem != 0, _clz64(rem) + 1, 64 - p + 1)
            np.maximum.at(regs, idx, rho)
            rows_g.append(g)
            rows_r.append(regs.tolist())
        return pd.DataFrame({group_col: rows_g, "regs": rows_r})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        out_g, out_e = [], []
        for g, sub in df.groupby(group_col, sort=False):
            regs = np.zeros(1 << p, dtype=np.int64)
            for r in sub["regs"]:
                np.maximum(regs, np.asarray(r, dtype=np.int64), out=regs)
            out_g.append(g)
            out_e.append(hll_estimate([int(v) for v in regs]))
        return pd.DataFrame(
            {group_col: out_g, "est": pd.Series(out_e, dtype="int64")}
        )

    return bucketed_group_map(
        ds.select_columns([group_col, col]).map_batches(
            partial, batch_format="pandas"
        ),
        [group_col],
        merge,
        num_buckets=num_buckets,
    )
