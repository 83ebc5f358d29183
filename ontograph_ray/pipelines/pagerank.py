"""Distributed PageRank over the knowledge graph — integer fixed-point.

Graph analytics the reference's triple store cannot offer (SURVEY
§2.6); on this engine it is the same bucketed co-group shuffle as the
union-find in ``canonicalize.py``, with a fixed iteration count:

    rank₀(v)   = SCALE                         (fixed-point "1.0")
    rankᵢ₊₁(v) = BASE + (num · Σ_{u→v} rankᵢ(u) // outdeg(u)) // den

with damping num/den (default 85/100) and BASE = (SCALE·(den−num))//den.

Why INTEGER fixed point: float summation order depends on block
arrival, so a float PageRank is not bit-reproducible across runs or
parallelism levels. Integer addition commutes exactly — the result is
DETERMINISTIC at any partitioning, which puts this iterative operator
under the driver's value-hash gate via an independently computed
plain-Python fixture oracle (scripts/gen_fixtures.py), the same
discipline as the minhash/curate oracles.

Semantics notes (mirrored exactly by the oracle):
- Dangling nodes (outdeg 0) contribute nothing — the standard
  "sink mass dropped" variant; total mass shrinks, ranks stay
  comparable.
- Floor division loses ≤ outdeg·1 units per node per iteration —
  deterministic, bounded by SCALE·1e-9 per unit rank.
- Overflow bound: Σ ranks ≤ n·SCALE, so num·Σ needs
  n < 2⁶³/(num·SCALE) ≈ 10⁸ nodes per *bucket's fan-in* at the
  defaults (per-bucket pre-sums keep the true bound far smaller).

Scale shape: every table in the loop is a kind-tagged frame
(kind, a, b, ...) keyed on ``a``, and every co-group is one
``bucketed_group_map`` on ``a``. Per iteration: ONE co-group of ranks
with edges on the source (edges are pinned with their out-degree once,
before the loop) and one message co-group on the destination with a
per-bucket pre-sum combiner — a hot in-degree node (head entity)
receives at most one row per bucket, the same anti-skew as
canonicalize phase 2.
"""

from __future__ import annotations

import pandas as pd

import ray.data

from ..store.dataset import bucketed_group_map

SCALE = 1_000_000_000

_COLS = ["kind", "a", "b", "deg", "rank"]


def _pagerank_local(
    rows, iters: int, num: int, den: int
) -> "ray.data.Dataset":
    """Driver-side twin over the (already deduped, degree-annotated)
    edge rows — the small-graph cutover. Identical arithmetic to the
    distributed loop, so the output is the same for any path."""
    base = (SCALE * (den - num)) // den
    edges = [(r["a"], r["b"], r["deg"]) for r in rows]
    nodes = sorted({n for u, v, _ in edges for n in (u, v)})
    r = {n: SCALE for n in nodes}
    for _ in range(iters):
        s = dict.fromkeys(nodes, 0)
        for u, v, deg in edges:
            s[v] += r[u] // deg
        r = {n: base + (num * s[n]) // den for n in nodes}
    out = pd.DataFrame({"node": nodes})
    out["rank"] = out["node"].map(r).astype("int64")
    return ray.data.from_pandas(out)


def pagerank(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    iters: int = 5,
    damping: tuple[int, int] = (85, 100),
    num_buckets: int = 64,
    small_threshold: int = 200_000,
) -> ray.data.Dataset:
    """Directed edges (src, dst string columns; duplicates ignored) →
    Dataset(node, rank) after ``iters`` fixed-point iterations (module
    doc). For an undirected graph, double the edges first.

    Adaptive physical plan (same cutover as
    ``canonicalize.connected_components``): if the deduped edge count
    is ≤ ``small_threshold`` the fixpoint runs on the driver over the
    already-shuffled-small edge table — identical integer arithmetic,
    identical output, none of the per-iteration exchange latency.
    Tests pin both paths (small_threshold=0 forces the loop)."""
    num, den = damping
    base = (SCALE * (den - num)) // den

    def frame(kind: str, **cols) -> pd.DataFrame:
        n = len(next(iter(cols.values())))
        return pd.DataFrame(
            {
                "kind": kind,
                "a": cols.get("a", [""] * n),
                "b": cols.get("b", [""] * n),
                "deg": pd.Series(cols.get("deg", [0] * n), dtype="int64"),
                "rank": pd.Series(cols.get("rank", [0] * n), dtype="int64"),
            }
        )

    def edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        e = df[[src, dst]].astype(str).drop_duplicates()
        return frame("edge", a=e[src].tolist(), b=e[dst].tolist())

    # Global edge dedup + out-degree, computed ONCE before the loop:
    # one exchange on the source; each bucket pins its edges with the
    # source's out-degree so iterations never recount.
    def degree_bucket(df: pd.DataFrame) -> pd.DataFrame:
        e = df.drop_duplicates(subset=["a", "b"])
        d = e.groupby("a", sort=False)["b"].size().rename("deg")
        e = e.drop(columns=["deg"]).merge(d, left_on="a", right_index=True)
        return e[_COLS]

    edges_deg = bucketed_group_map(
        edges.map_batches(edge_rows, batch_format="pandas"),
        ["a"], degree_bucket, num_buckets,
    ).materialize()

    if edges_deg.count() <= small_threshold:
        # one to_pandas, not iter_rows: Ray Data iterates the rows of
        # the exchange's pandas blocks at ~2 ms per row (4-CPU host)
        return _pagerank_local(
            edges_deg.to_pandas().to_dict("records"), iters, num, den
        )

    # Node set derived from the already-materialized edge table, NOT
    # from the raw input — the upstream producer chain (which may be a
    # whole extract→detect pipeline) executes exactly once.
    def node_rows(df: pd.DataFrame) -> pd.DataFrame:
        nodes = (
            pd.concat([df["a"], df["b"]], ignore_index=True).drop_duplicates().tolist()
        )
        return frame("node", a=nodes)

    nodes = bucketed_group_map(
        edges_deg.map_batches(node_rows, batch_format="pandas"),
        ["a"], lambda df: df.drop_duplicates(subset=["a"]), num_buckets,
    ).materialize()

    def init_ranks(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["kind"] = "rank"
        out["rank"] = SCALE
        return out

    ranks = nodes.map_batches(init_ranks, batch_format="pandas").materialize()

    for _ in range(iters):
        # Phase 1: co-group ranks with (edge, outdeg) on the source;
        # contribution = rank // deg to each dst; pre-sum per dst in
        # the bucket (the anti-skew combiner for high in-degree nodes).
        def contribute(df: pd.DataFrame) -> pd.DataFrame:
            r = df.loc[df["kind"] == "rank", ["a", "rank"]]
            e = df.loc[df["kind"] == "edge", ["a", "b", "deg"]]
            m = e.merge(r, on="a")
            c = (m["rank"] // m["deg"]).astype("int64")
            msg = pd.DataFrame({"a": m["b"], "c": c})
            return msg.groupby("a", sort=False, as_index=False)["c"].sum()

        msgs = bucketed_group_map(
            [ranks, edges_deg], ["a"], contribute, num_buckets
        )

        # Phase 2: per node, rank = base + num·Σc // den; node rows
        # guarantee an output row for nodes with no inbound edges.
        # (msgs are first re-framed onto the unified schema so the
        # co-group is a single schema-stable union.)
        def msg_rows(df: pd.DataFrame) -> pd.DataFrame:
            out = frame("msg", a=df["a"].tolist())
            out["rank"] = df["c"].to_numpy(dtype="int64")
            return out

        def reduce_bucket(df: pd.DataFrame) -> pd.DataFrame:
            node = df.loc[df["kind"] == "node", ["a"]]
            m = df.loc[df["kind"] == "msg", ["a", "rank"]]
            s = m.groupby("a", sort=False)["rank"].sum()
            out = node.drop_duplicates(subset=["a"]).copy()
            total = s.reindex(out["a"]).fillna(0).astype("int64").to_numpy()
            out["rank"] = base + (num * total) // den
            out["kind"] = "rank"
            out["b"] = ""
            out["deg"] = 0
            return out[_COLS]

        # the trailing repartition is a NON-shuffle coalesce that keeps
        # the carried rank table at a fixed block count: the sort
        # exchange emits one partition per input block, so without it
        # every iteration's union grows by the edge/node block counts
        # and per-iteration wall time grows linearly (see the measured
        # pathology in canonicalize.connected_components)
        msgs_u = msgs.map_batches(msg_rows, batch_format="pandas")
        ranks = (
            bucketed_group_map([msgs_u, nodes], ["a"], reduce_bucket, num_buckets)
            .repartition(num_buckets)
            .materialize()
        )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": df["a"], "rank": df["rank"].astype("int64")})

    return ranks.map_batches(finish, batch_format="pandas")


def _hits_local(rows, iters: int) -> "ray.data.Dataset":
    """Driver-side twin of :func:`hits` over the already-deduped edge
    rows — identical integer arithmetic to the distributed loop."""
    edges = [(r["a"], r["b"]) for r in rows]
    nodes = sorted({n for e in edges for n in e})
    hub = dict.fromkeys(nodes, SCALE)
    auth = dict.fromkeys(nodes, 0)
    for _ in range(iters):
        raw = dict.fromkeys(nodes, 0)
        for u, v in edges:
            raw[v] += hub[u]
        q = max(1, max(raw.values(), default=0) // SCALE)
        auth = {n: raw[n] // q for n in nodes}
        raw = dict.fromkeys(nodes, 0)
        for u, v in edges:
            raw[u] += auth[v]
        q = max(1, max(raw.values(), default=0) // SCALE)
        hub = {n: raw[n] // q for n in nodes}
    out = pd.DataFrame({"node": nodes})
    out["hub"] = out["node"].map(hub).astype("int64")
    out["auth"] = out["node"].map(auth).astype("int64")
    return ray.data.from_pandas(out)


def hits(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    iters: int = 5,
    num_buckets: int = 64,
    small_threshold: int = 200_000,
) -> ray.data.Dataset:
    """HITS hubs & authorities (Kleinberg 1999) over directed edges —
    integer fixed-point, like :func:`pagerank`:

        hub₀(u)  = SCALE
        authᵢ(v) = (Σ_{u→v} hubᵢ₋₁(u)) // qₐ
        hubᵢ(u)  = (Σ_{u→v} authᵢ(v)) // qₕ

    where each q = max(1, max_raw // SCALE) — the max-quotient
    rescale. A float HITS L2-normalizes per iteration, which is not
    bit-reproducible under re-ordered summation; dividing every raw
    score by the same integer quotient keeps the max near SCALE
    (preserving relative order exactly) with pure int64 ops, so the
    operator sits under the driver's value-hash gate via the
    plain-Python fixture twin. No multiplication in the rescale →
    no overflow for any raw sum < 2⁶³ (n·SCALE bound, n < 9·10⁹).

    Scale shape per iteration: TWO co-group exchanges (push hub along
    forward edges, push auth along reverse edges — each with a
    per-bucket pre-sum combiner for hot in/out-degree nodes) + two
    tiny global-max aggregates over the materialized score table.
    Same driver cutover as pagerank below ``small_threshold`` deduped
    edges; tests pin both paths equal."""

    def frame(kind: str, a, b=None, rank=None) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "kind": kind,
                "a": a,
                "b": b if b is not None else [""] * len(a),
                "rank": pd.Series(
                    rank if rank is not None else [0] * len(a), dtype="int64"
                ),
            }
        )

    def edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        e = df[[src, dst]].astype(str).drop_duplicates()
        return frame("edge", e[src].tolist(), e[dst].tolist())

    def dedup_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(subset=["a", "b"])

    edges_fwd = bucketed_group_map(
        edges.map_batches(edge_rows, batch_format="pandas"),
        ["a"], dedup_bucket, num_buckets,
    ).materialize()

    if edges_fwd.count() <= small_threshold:
        return _hits_local(edges_fwd.to_pandas().to_dict("records"), iters)

    def reverse_rows(df: pd.DataFrame) -> pd.DataFrame:
        return frame("edge", df["b"].tolist(), df["a"].tolist())

    edges_rev = edges_fwd.map_batches(reverse_rows, batch_format="pandas").materialize()

    def node_rows(df: pd.DataFrame) -> pd.DataFrame:
        nodes = (
            pd.concat([df["a"], df["b"]], ignore_index=True)
            .drop_duplicates()
            .tolist()
        )
        return frame("node", nodes)

    nodes = bucketed_group_map(
        edges_fwd.map_batches(node_rows, batch_format="pandas"),
        ["a"], lambda df: df.drop_duplicates(subset=["a"]), num_buckets,
    ).materialize()

    def init_hub(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["kind"] = "rank"
        out["rank"] = SCALE
        return out

    hub = nodes.map_batches(init_hub, batch_format="pandas").materialize()

    def push(scores: ray.data.Dataset, along: ray.data.Dataset) -> ray.data.Dataset:
        # scores (kind=rank, keyed on a) pushed along edges (keyed on
        # a) to their b-endpoints; per-bucket pre-sum bounds a hot
        # endpoint at one row per bucket, then the node co-group sums
        # and zero-fills so every node has a raw score row.
        def contribute(df: pd.DataFrame) -> pd.DataFrame:
            r = df.loc[df["kind"] == "rank", ["a", "rank"]]
            e = df.loc[df["kind"] == "edge", ["a", "b"]]
            m = e.merge(r, on="a")
            msg = m.groupby("b", sort=False, as_index=False)["rank"].sum()
            return frame("msg", msg["b"].tolist(), rank=msg["rank"].to_numpy())

        msgs = bucketed_group_map([scores, along], ["a"], contribute, num_buckets)

        def reduce_bucket(df: pd.DataFrame) -> pd.DataFrame:
            node = df.loc[df["kind"] == "node", ["a"]].drop_duplicates(subset=["a"])
            m = df.loc[df["kind"] == "msg", ["a", "rank"]]
            s = m.groupby("a", sort=False)["rank"].sum()
            raw = s.reindex(node["a"]).fillna(0).astype("int64").to_numpy()
            return frame("rank", node["a"].tolist(), rank=raw)

        # non-shuffle coalesce: keep the carried score table at a fixed
        # block count across push/rescale rounds (same block-growth
        # pathology as the pagerank/CC loops)
        return (
            bucketed_group_map([msgs, nodes], ["a"], reduce_bucket, num_buckets)
            .repartition(num_buckets)
            .materialize()
        )

    def rescale(raw: ray.data.Dataset) -> ray.data.Dataset:
        q = max(1, int(raw.max("rank")) // SCALE)

        def div(df: pd.DataFrame) -> pd.DataFrame:
            out = df.copy()
            out["rank"] = (out["rank"] // q).astype("int64")
            return out

        return raw.map_batches(div, batch_format="pandas").materialize()

    auth = None
    for _ in range(iters):
        auth = rescale(push(hub, edges_fwd))
        hub = rescale(push(auth, edges_rev))

    def tag(kind: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            out = df.copy()
            out["kind"] = kind
            return out

        return fn

    def pivot(df: pd.DataFrame) -> pd.DataFrame:
        h = df.loc[df["kind"] == "hub", ["a", "rank"]].set_index("a")["rank"]
        a_ = df.loc[df["kind"] == "auth", ["a", "rank"]].set_index("a")["rank"]
        nodes_ = sorted(set(h.index) | set(a_.index))
        return pd.DataFrame(
            {
                "node": nodes_,
                "hub": h.reindex(nodes_).fillna(0).astype("int64").to_numpy(),
                "auth": a_.reindex(nodes_).fillna(0).astype("int64").to_numpy(),
            }
        )

    both = [
        hub.map_batches(tag("hub"), batch_format="pandas"),
        auth.map_batches(tag("auth"), batch_format="pandas"),
    ]
    return bucketed_group_map(both, ["a"], pivot, num_buckets)
