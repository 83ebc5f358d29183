"""Distributed graph statistics over edge Datasets: co-occurrence
edge construction and triangle enumeration.

The reference has no graph analytics beyond the ontology pivots; these
are the KG-side statistics a web-scale graph build needs (community
structure probes, clustering-coefficient inputs) expressed on the
engine's own exchange primitives, with no all-pairs stage. Loops whose
input is small take a local branch instead: ``k_core`` peels on the
driver, and ``transitive_closure`` runs its fixpoint in one task over
an Arrow table (up to ``LOCAL_CLOSURE_MAX_EDGES`` edges):

- ``cooccurrence_edges``: items sharing a group (entities on a page,
  parts in an order) → undirected support-weighted edges. Pair
  generation is a per-group vectorized self-merge INSIDE one
  group-bucketed exchange (the per-group distinct is fused into the
  same pass, so duplicate group/item rows never ship twice); a second
  combiner-backed exchange sums the per-bucket pair counts into global
  support. Partitioning assumption: one group's distinct items fit in
  a bucket worker's memory (groups are order-/page-sized — bounded by
  the basket, not the corpus).

- ``triangles``: triangle enumeration with DEGREE-ORDERED orientation
  (the standard O(m^{3/2}) bound, cf. Schank & Wagner 2005 / the
  MapReduce formulation in Suri & Vassilvitskii 2011): orient every
  edge u→v iff (deg(u), u) < (deg(v), v), wedge-join on the center,
  close wedges with a semi-join. Orientation bounds every node's
  out-degree at O(√m), so a degree-skewed hub never becomes a wedge
  hot key — the skew handling is structural, not a salt knob.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..store.dataset import bucketed_group_map, hash_join

__all__ = ["cooccurrence_edges", "k_core", "transitive_closure", "triangles"]

_log = logging.getLogger("ontograph_ray")

# transitive_closure's size cutover: edge sets up to this many (src,
# dst) rows close in one task over an Arrow table. The same 2M as
# kg.DRIVER_SMALL_MAX and ontology.query.BROADCAST_MAX_SUBJECTS; at
# ~90 B per edge (two ~40-character entity IRIs, each with a 4-byte
# string offset) that task's input table is ~180 MB.
LOCAL_CLOSURE_MAX_EDGES = 2_000_000


def _pin(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Materialize AND truncate lineage (zero-copy block refs).

    hash_join / distinct_on probe their inputs' schemas, and a probe on
    a plan layered over a MaterializedDataset re-executes the full
    upstream lineage rather than reading the pinned blocks — in a
    fixpoint loop that compounds exponentially across rounds (measured
    on bfs_depths: round walls 1.5 s → 33 s by round 8 with flat block
    counts and flat row counts; flat 1.4 s/round after this cut). The
    groupby-exchange loops (pagerank/LPA/SSSP/CC) don't need it — their
    carried tables are consumed directly, not through probing wrappers.
    """
    return ray.data.from_arrow_refs(ds.materialize().to_arrow_refs())


def _renamed(ds: ray.data.Dataset, mapping: dict[str, str]) -> ray.data.Dataset:
    # Dataset.rename_columns' Project operator assumes Arrow blocks and
    # breaks on the pandas blocks bucketed_group_map emits — rename
    # zero-copy in Arrow instead
    def rn(batch: pa.Table) -> pa.Table:
        return batch.rename_columns([mapping.get(c, c) for c in batch.schema.names])

    return ds.map_batches(rn, batch_format="pyarrow")


def cooccurrence_edges(
    ds: ray.data.Dataset,
    group_col: str,
    item_col: str,
    min_support: int = 1,
) -> ray.data.Dataset:
    """Undirected co-occurrence edges: ``(src, dst, support)`` with
    ``src < dst``, where support = number of distinct groups containing
    both items. Input rows beyond (group, item) are ignored; duplicate
    (group, item) rows count once."""

    def pairs_per_group(df: pd.DataFrame) -> pd.DataFrame:
        # all rows of a group are in this bucket: the drop_duplicates
        # IS the global per-group distinct, and the self-merge emits
        # each unordered pair exactly once per group
        m = df[[group_col, item_col]].drop_duplicates()
        j = m.merge(m, on=group_col, suffixes=("_a", "_b"))
        a, b = j[f"{item_col}_a"], j[f"{item_col}_b"]
        j = j[a < b]
        out = (
            j.groupby([f"{item_col}_a", f"{item_col}_b"], sort=False)
            .size()
            .rename("support")
            .reset_index()
        )
        out.columns = ["src", "dst", "support"]
        return out

    partial = bucketed_group_map(ds, [group_col], pairs_per_group)

    def sum_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=["src", "dst", "support"])
        return (
            df.groupby(["src", "dst"], sort=False)["support"]
            .sum()
            .reset_index()
        )

    def sum_final(df: pd.DataFrame) -> pd.DataFrame:
        out = sum_partial(df)
        out["support"] = out["support"].astype("int64")
        if min_support > 1:
            out = out[out["support"] >= min_support]
        return out

    return bucketed_group_map(
        partial, ["src", "dst"], sum_final, partial_fn=sum_partial
    )


def _degrees(edges: ray.data.Dataset) -> ray.data.Dataset:
    """(node, deg) from an undirected canonical edge list — per-block
    combiner over BOTH endpoint columns, one exchange."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=["node", "deg"])
        ends = pd.concat([df["src"], df["dst"]], ignore_index=True)
        out = ends.groupby(ends, sort=False).size().rename("deg").reset_index()
        out.columns = ["node", "deg"]
        return out

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=["node", "deg"])
        out = df.groupby("node", sort=False)["deg"].sum().reset_index()
        out["deg"] = out["deg"].astype("int64")
        return out

    def partial_sum(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=["node", "deg"])
        return df.groupby("node", sort=False)["deg"].sum().reset_index()

    return bucketed_group_map(
        edges.map_batches(partial, batch_format="pandas"),
        ["node"],
        combine,
        partial_fn=partial_sum,
    )


def neighbor_jaccard(
    edges: ray.data.Dataset,
    min_common: int = 1,
    scale: int = 10_000,
) -> ray.data.Dataset:
    """Node-pair neighborhood Jaccard over a canonical undirected edge
    list (src < dst, unique pairs): for every node pair sharing
    ≥ ``min_common`` neighbors, the common-neighbor count, both
    degrees, and the integer basis-point Jaccard
    ``jaccard_bp = common·scale // (deg_src + deg_dst − common)`` —
    integer outputs keep the op exactly SQL-oracle-able.

    Physical plan — ONE streaming execution, exactly three bucketed
    exchanges, no joins: (1) a tagged union of adjacency rows and
    per-block degree partials exchanged on the neighbor key finishes
    the degree sum AND attaches it to that node's adjacency rows in
    the same reduce; (2) a center-keyed exchange emits each center's
    neighbor pairs (the wedge set) with endpoint degrees riding along,
    vectorized across all centers via offset arithmetic (no per-center
    Python); (3) a pair-keyed exchange sums common counts and computes
    the integer Jaccard. A degree-d center emits d(d−1)/2 wedges — the
    inherent cost of any exact common-neighbor count; on power-law
    graphs cap or sample hub centers upstream (the co-purchase graphs
    here bound degree structurally via min_support)."""

    # the edge list feeds two branches (adjacency rows + degree
    # partials); pin it once so the upstream edge-construction lineage
    # executes a single time — it is the op's working set, object-store
    # resident and spillable
    edges = edges.materialize()

    def adj_rows(df: pd.DataFrame) -> pd.DataFrame:
        # adjacency rows keyed by the NEIGHBOR (deg = -1 tags data rows)
        return pd.DataFrame(
            {
                "key": pd.concat([df["dst"], df["src"]], ignore_index=True),
                "center": pd.concat([df["src"], df["dst"]], ignore_index=True),
                "deg": np.int64(-1),
            }
        )

    def deg_partials(df: pd.DataFrame) -> pd.DataFrame:
        # per-block partial degree counts, same schema (center = -1)
        ends = pd.concat([df["src"], df["dst"]], ignore_index=True)
        out = ends.groupby(ends, sort=False).size().rename("deg").reset_index()
        out.columns = ["key", "deg"]
        out["center"] = np.int64(-1)
        return out[["key", "center", "deg"]]

    tagged = edges.map_batches(adj_rows, batch_format="pandas").union(
        edges.map_batches(deg_partials, batch_format="pandas")
    )

    def attach_deg(df: pd.DataFrame) -> pd.DataFrame:
        # one exchange plays both roles: finishes the degree sum per
        # node AND joins it onto that node's adjacency rows
        is_deg = df["deg"] >= 0
        deg = df[is_deg].groupby("key", sort=False)["deg"].sum()
        rows = df[~is_deg]
        return pd.DataFrame(
            {
                "center": rows["center"],
                "nbr": rows["key"],
                "deg_nbr": rows["key"].map(deg).astype("int64"),
            }
        )

    adj = bucketed_group_map(tagged, ["key"], attach_deg)

    def wedge_counts(df: pd.DataFrame) -> pd.DataFrame:
        # all adjacency rows of a center are co-located; the edge list
        # is unique-canonical so each center's nbr list is distinct.
        # Pair construction is fully vectorized across ALL centers in
        # the bucket (offset arithmetic over the n² cross product,
        # masked to i<j) — no per-center Python.
        empty = pd.DataFrame(
            {
                c: pd.Series(dtype="int64")
                for c in ("src", "dst", "deg_src", "deg_dst", "common")
            }
        )
        if not len(df):
            return empty
        df = df.sort_values(["center", "nbr"], kind="stable")
        counts = df.groupby("center", sort=False).size().to_numpy()
        ids = df["nbr"].to_numpy()
        degs = df["deg_nbr"].to_numpy()
        nn = counts * counts
        tot = int(nn.sum())
        if tot == 0:
            return empty
        offs = np.cumsum(counts) - counts
        starts = np.cumsum(nn) - nn
        local = np.arange(tot) - np.repeat(starts, nn)
        nrep = np.repeat(counts, nn)
        li, lj = local // nrep, local % nrep
        m = li < lj
        base = np.repeat(offs, nn)[m]
        ai, bj = base + li[m], base + lj[m]
        out = pd.DataFrame(
            {
                "src": ids[ai],  # nbrs sorted within center → src < dst
                "dst": ids[bj],
                "deg_src": degs[ai],
                "deg_dst": degs[bj],
            }
        )
        return (
            out.groupby(["src", "dst", "deg_src", "deg_dst"], sort=False)
            .size()
            .rename("common")
            .reset_index()
        )

    wedge_partials = bucketed_group_map(adj, ["center"], wedge_counts)

    keys = ["src", "dst", "deg_src", "deg_dst"]  # degs constant per pair

    def sum_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=keys + ["common"])
        return df.groupby(keys, sort=False)["common"].sum().reset_index()

    def sum_final(df: pd.DataFrame) -> pd.DataFrame:
        out = sum_partial(df)
        out["common"] = out["common"].astype("int64")
        out = out[out["common"] >= min_common].copy()
        denom = out["deg_src"] + out["deg_dst"] - out["common"]
        out["jaccard_bp"] = (out["common"] * scale // denom).astype("int64")
        return out[["src", "dst", "common", "deg_src", "deg_dst", "jaccard_bp"]]

    return bucketed_group_map(
        wedge_partials, ["src", "dst"], sum_final, partial_fn=sum_partial
    )


def triangles(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Enumerate triangles of an undirected graph given as canonical
    edges ``(src, dst)`` with ``src < dst``, no duplicates or
    self-loops (what :func:`cooccurrence_edges` emits). Returns one row
    per triangle, columns ``(a, b, c)`` sorted by value within the row
    (deterministic, orientation-invariant).

    Plan: degrees (one exchange) → two bucketed joins decorate the
    endpoints → vectorized reorientation u→v iff (deg,node) ascending →
    wedge self-join on the center u (every out-neighborhood is O(√m) by
    the orientation, so no hot center) → semi-join closes (b, c).

    The edge list, degree table and oriented edges are each consumed
    by 2-3 downstream joins, so they are pinned (O(E)+O(V) blocks —
    spillable — vs re-running the upstream corpus plan per consumer)."""
    edges = edges.select_columns(["src", "dst"]).materialize()
    deg = _degrees(edges).materialize()

    # static join schemas: hash_join's Dataset.schema() probe EXECUTES
    # a lazy plan once per side (the joins chain, so that compounds) —
    # every schema here is derivable from the pinned edge table
    from ..store.dataset import _arrow_type_of, hash_join_schema

    es = edges.schema()
    node_t = _arrow_type_of(es.types[es.names.index("src")])
    e_sch = pa.schema([("src", node_t), ("dst", node_t)])
    dsrc_sch = pa.schema([("src", node_t), ("sdeg", pa.int64())])
    ddst_sch = pa.schema([("dst", node_t), ("ddeg", pa.int64())])
    o_sch = lambda v, vd: pa.schema(  # noqa: E731
        [("u", node_t), (v, node_t), (vd, pa.int64())]
    )

    with_sdeg = hash_join(
        edges,
        _renamed(deg, {"node": "src", "deg": "sdeg"}),
        on="src",
        schemas=(e_sch, dsrc_sch),
    )
    with_both = hash_join(
        with_sdeg,
        _renamed(deg, {"node": "dst", "deg": "ddeg"}),
        on="dst",
        schemas=(hash_join_schema(e_sch, dsrc_sch, "src"), ddst_sch),
    )

    def orient(batch: pa.Table) -> pa.Table:
        src, dst = batch["src"], batch["dst"]
        sdeg, ddeg = batch["sdeg"], batch["ddeg"]
        lt = pc.or_(
            pc.less(sdeg, ddeg),
            pc.and_(pc.equal(sdeg, ddeg), pc.less(src, dst)),
        )
        u = pc.if_else(lt, src, dst)
        v = pc.if_else(lt, dst, src)
        vdeg = pc.if_else(lt, ddeg, sdeg)
        return pa.table({"u": u, "v": v, "vdeg": vdeg})

    oriented = with_both.map_batches(orient, batch_format="pyarrow").materialize()

    wedges = hash_join(
        _renamed(oriented, {"v": "b", "vdeg": "bdeg"}),
        _renamed(oriented, {"v": "c", "vdeg": "cdeg"}),
        on="u",
        schemas=(o_sch("b", "bdeg"), o_sch("c", "cdeg")),
    )

    def order_wedge(batch: pa.Table) -> pa.Table:
        # keep each out-neighbor pair once, in π = (deg, node) order —
        # the closing edge, if present, is oriented exactly b→c
        b, c = batch["b"], batch["c"]
        bdeg, cdeg = batch["bdeg"], batch["cdeg"]
        keep = pc.or_(
            pc.less(bdeg, cdeg),
            pc.and_(pc.equal(bdeg, cdeg), pc.less(b, c)),
        )
        t = batch.filter(keep)
        return pa.table({"a": t["u"], "b": t["b"], "c": t["c"]})

    candidate = wedges.map_batches(order_wedge, batch_format="pyarrow")
    closed = hash_join(
        candidate,
        _renamed(oriented.select_columns(["u", "v"]), {"u": "b", "v": "c"}),
        on=["b", "c"],
        how="semi",
        schemas=(
            pa.schema([("a", node_t), ("b", node_t), ("c", node_t)]),
            pa.schema([("b", node_t), ("c", node_t)]),
        ),
    )

    def canonical(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=["a", "b", "c"])
        vals = np.sort(df[["a", "b", "c"]].to_numpy(), axis=1)
        return pd.DataFrame(vals, columns=["a", "b", "c"])

    return closed.map_batches(canonical, batch_format="pandas")


def _closure_rounds(
    edges: pa.Table, max_iters: int, sources
) -> "tuple[pa.Table | None, int]":
    """The semi-naive fixpoint over one in-memory Arrow table: the
    local twin of the distributed loop in :func:`transitive_closure`,
    round for round (distinct, inner step join, anti-join against the
    accumulator, same ``max_iters`` cap). Returns ``(closure, rounds)``;
    the closure is None when the cap was hit."""
    base = edges.group_by(["src", "dst"], use_threads=False).aggregate([])
    acc = base
    if sources is not None:
        seed = pa.array(list(sources)).cast(base.schema.field("src").type)
        acc = base.filter(pc.is_in(base["src"], value_set=seed))
    step = base.rename_columns(["mid", "dst"])
    frontier = acc
    for r in range(1, max_iters + 1):
        stepped = (
            frontier.rename_columns(["src", "mid"])
            .join(step, "mid", join_type="inner")
            .select(["src", "dst"])
        )
        cand = stepped.group_by(["src", "dst"], use_threads=False).aggregate([])
        if cand.num_rows == 0:
            return acc, r
        fresh = cand.join(acc, ["src", "dst"], join_type="left anti")
        if fresh.num_rows == 0:
            return acc, r
        acc = pa.concat_tables([acc, fresh])
        frontier = fresh
    return None, max_iters


def _not_converged(max_iters: int) -> ValueError:
    return ValueError(
        f"transitive_closure did not converge within {max_iters} rounds "
        "(graph diameter exceeds the cap)"
    )


@ray.remote(num_returns=2)
def _local_closure(max_iters: int, sources, *blocks: pa.Table):
    closure, rounds = _closure_rounds(
        pa.concat_tables(blocks, promote_options="default"), max_iters, sources
    )
    if closure is None:
        return (None, rounds), None
    return (closure.num_rows, rounds), closure.combine_chunks()


def transitive_closure(
    edges: ray.data.Dataset, max_iters: int = 25, sources=None
) -> ray.data.Dataset:
    """All (src, dst) pairs connected by a directed path of length >= 1
    — the semi-naive Datalog fixpoint: each round joins only the
    FRONTIER (pairs discovered last round) against the base edges,
    dedups, and anti-joins against everything already known, so work
    per round is proportional to the new pairs, not the closure.
    Cycles terminate naturally (a revisited pair is dropped by the
    anti-join). Raises if the fixpoint needs more than ``max_iters``
    rounds — path length is bounded by the round count, so this is a
    graph-diameter cap, not a heuristic.

    ``sources`` seeds the fixpoint: the frontier and the accumulator
    start from the edges leaving a source, so only pairs whose ``src``
    is a source come out — at most sources × nodes rows instead of
    nodes².

    Size cutover on the projected (src, dst) edge count (metadata of
    the materialized scan):

    - at most ``LOCAL_CLOSURE_MAX_EDGES`` (~90 B per edge of two
      entity IRIs, so ~180 MB of input): the whole loop runs in ONE
      Ray task over the concatenated Arrow table. The driver fetches
      only the task's row and round counts (so the cap still raises
      here, at call time) and wraps the closure's object ref; it never
      holds the closure itself.
    - above it: the distributed loop — per round one bucketed hash
      join (frontier.dst = edges.src), one distinct, one anti-join; the
      accumulator is pinned each round (the CC-loop convention for
      iterative shuffles). Partitioning assumption: the closure itself
      fits in the object store (it is the OUTPUT — any engine pays
      this), and one join key's rows fit a bucket worker."""
    from ..store.dataset import distinct_on

    scan = edges.select_columns(["src", "dst"]).materialize()
    n = scan.count()
    if n <= LOCAL_CLOSURE_MAX_EDGES:
        if n == 0:
            return scan
        meta_ref, table_ref = _local_closure.remote(
            max_iters, sources, *scan.to_arrow_refs()
        )
        rows, rounds = ray.get(meta_ref)
        _log.debug(
            "transitive_closure: local branch, %d edges <= "
            "LOCAL_CLOSURE_MAX_EDGES=%d, %s rounds, %s rows",
            n, LOCAL_CLOSURE_MAX_EDGES, rounds, rows,
        )
        if rows is None:
            raise _not_converged(max_iters)
        return ray.data.from_arrow_refs([table_ref])

    base = distinct_on(
        ray.data.from_arrow_refs(scan.to_arrow_refs()), ["src", "dst"]
    ).materialize()
    nb = max(1, base.num_blocks())
    base = _pin(base)
    acc = base
    if sources is not None:
        base_schema = base.schema().base_schema
        seed = pa.array(list(sources)).cast(base_schema.field("src").type)

        def seeded(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_in(batch["src"], value_set=seed))

        acc = _pin(base.map_batches(seeded, batch_format="pyarrow"))
        if acc.count() == 0:
            # no seed has an out-edge; an empty pinned dataset carries
            # no schema, so return a typed empty table
            return ray.data.from_arrow(base_schema.empty_table())
    frontier = acc
    for r in range(1, max_iters + 1):
        stepped = hash_join(
            _renamed(frontier, {"dst": "mid"}),
            _renamed(base, {"src": "mid", "dst": "dst"}),
            on="mid",
        ).select_columns(["src", "dst"])
        # pin the deduped step result: hash_join needs a concrete
        # schema, and the anti-join exchange would materialize the
        # (new-pairs-bounded) table anyway. The non-shuffle repartition
        # coalesces each carried table back to the base block count —
        # join/distinct outputs carry the SUM of their inputs' block
        # counts, so without it every round's tables gain blocks and
        # round wall time climbs (the loop block-growth pathology).
        cand = _pin(distinct_on(stepped, ["src", "dst"]).repartition(nb))
        if cand.count() == 0:
            # frontier dead-ended: no paths extend, fixpoint reached
            break
        fresh = _pin(
            hash_join(
                cand,
                acc,
                on=["src", "dst"],
                how="anti",
            ).repartition(nb)
        )
        if fresh.count() == 0:
            break
        acc = _pin(acc.union(fresh).repartition(nb))
        frontier = fresh
    else:
        raise _not_converged(max_iters)
    _log.debug(
        "transitive_closure: distributed branch, %d edges > "
        "LOCAL_CLOSURE_MAX_EDGES=%d, %d rounds",
        n, LOCAL_CLOSURE_MAX_EDGES, r,
    )
    return acc


def bfs_depths(
    edges: ray.data.Dataset,
    sources: "list | ray.data.Dataset",
    max_depth: int = 25,
    directed: bool = True,
) -> ray.data.Dataset:
    """Breadth-first shortest hop distance from a SOURCE SET over the
    (src, dst) edge table → Dataset(node, depth) for every reachable
    node (sources at depth 0). Semi-naive frontier iteration — the
    single-source-set shortest-path special case of
    :func:`transitive_closure`: per round ONE bucketed hash join
    (frontier ⋈ edges), one distinct, one anti-join against the
    visited accumulator, so work per round is proportional to the NEW
    nodes at that depth; the first time a node is reached IS its
    shortest distance (BFS invariant), so no min-aggregation is
    needed. Cycles terminate via the anti-join; ``max_depth`` is a
    graph-diameter cap that raises rather than silently truncating.
    ``directed=False`` walks edges both ways (one bag union of the
    reversed edges, no extra exchange)."""
    from ..store.dataset import distinct_on

    base = edges.select_columns(["src", "dst"])
    if not directed:
        base = base.union(
            _renamed(base, {"src": "dst", "dst": "src"}).select_columns(
                ["src", "dst"]
            )
        )
    base = distinct_on(base, ["src", "dst"]).materialize()
    base_nb = base  # keep the handle: num_blocks is read before the cut
    base = _pin(base)

    if isinstance(sources, ray.data.Dataset):
        src_ds = distinct_on(sources.select_columns(["node"]), ["node"])
    else:
        node_type = base.schema().base_schema.field("src").type
        src_ds = ray.data.from_arrow(
            pa.table({"node": pa.array(list(sources), node_type)})
        )

    def with_depth(d: int):
        def tag(batch: pa.Table) -> pa.Table:
            if "node" not in batch.schema.names:
                return pa.table(
                    {"node": pa.array([], pa.string()),
                     "depth": pa.array([], pa.int64())}
                )
            return batch.append_column(
                "depth", pa.array([d] * batch.num_rows, pa.int64())
            )
        return tag

    acc = _pin(src_ds.map_batches(with_depth(0), batch_format="pyarrow"))
    nb = max(1, base_nb.num_blocks())
    frontier = acc
    for d in range(1, max_depth + 1):
        stepped = hash_join(
            _renamed(frontier.select_columns(["node"]), {"node": "src"}),
            base,
            on="src",
        ).select_columns(["dst"])
        # per-round non-shuffle coalesces: join/distinct outputs carry
        # the SUM of their inputs' block counts, so the visited set and
        # frontier gain blocks every round without them (the loop
        # block-growth pathology; a depth-40 probe timed out before,
        # seconds after)
        cand = _pin(
            distinct_on(_renamed(stepped, {"dst": "node"}), ["node"]).repartition(nb)
        )
        if cand.count() == 0:
            return acc
        fresh = _pin(
            hash_join(
                cand, acc.select_columns(["node"]), on="node", how="anti"
            ).repartition(nb)
        )
        if fresh.count() == 0:
            return acc
        frontier = _pin(
            fresh.map_batches(with_depth(d), batch_format="pyarrow")
        )
        acc = _pin(acc.union(frontier).repartition(nb))
    raise ValueError(
        f"bfs_depths did not converge within {max_depth} rounds "
        "(graph diameter exceeds the cap)"
    )


def _local_k_core(edges_df: pd.DataFrame, k: int) -> ray.data.Dataset:
    """Driver-side peel for edge sets small enough to collect — same
    output as the distributed loop, none of the per-round exchange
    latency (the peel depth can be O(V) rounds on chain-like graphs,
    each costing three exchanges in the distributed plan)."""
    adj: dict = {}
    for a, b in zip(edges_df["src"], edges_df["dst"]):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    queue = [n for n, nbrs in adj.items() if len(nbrs) < k]
    while queue:
        n = queue.pop()
        nbrs = adj.pop(n, None)
        if nbrs is None:
            continue
        for m in nbrs:
            mn = adj.get(m)
            if mn is not None:
                mn.discard(n)
                if len(mn) == k - 1:
                    queue.append(m)
    node_type = pa.Table.from_pandas(edges_df[["src"]]).schema.field("src").type
    return ray.data.from_arrow(
        pa.table({"node": pa.array(sorted(adj), node_type)})
    )


def k_core(
    edges: ray.data.Dataset,
    k: int,
    max_iters: int = 200,
    small_threshold: int = 200_000,
) -> ray.data.Dataset:
    """Nodes of the k-core — the maximal subgraph in which every node
    has degree >= ``k`` — of an undirected canonical edge list
    (``src < dst``, distinct). Returns one ``node`` column.

    Adaptive physical plan (same cutover as
    ``canonicalize.connected_components``): if the edge count is
    ≤ ``small_threshold`` the peel runs driver-side over the collected
    edge list (a bucket-queue peel, O(E)); above it, the classic
    iterative peel runs distributedly — each round recomputes degrees
    (one combiner-backed exchange), drops under-degree nodes, and
    semi-joins the edge list down to survivors (two bucketed
    exchanges); the fixpoint is reached when no node is dropped. Work
    per round shrinks with the surviving subgraph. ``max_iters`` is a
    peel-depth cap for the distributed loop (each round removes >= 1
    node, so V rounds bound it; the cap guards pathological chains).
    Tests pin both paths (small_threshold=0 forces the distributed
    loop)."""
    cur = edges.select_columns(["src", "dst"]).materialize()
    if cur.count() <= small_threshold:
        return _local_k_core(cur.to_pandas(), k)
    n_blocks = max(1, cur.num_blocks())
    cur = _pin(cur)
    n_nodes = None
    for _ in range(max_iters):
        deg = _degrees(cur).materialize()

        def keep_batch(batch: pa.Table) -> pa.Table:
            t = batch.filter(pc.greater_equal(batch["deg"], k))
            return t.select(["node"])

        keep = _pin(deg.map_batches(keep_batch, batch_format="pyarrow"))
        m = keep.count()
        if m == 0:
            return keep
        if n_nodes is not None and m == n_nodes:
            return keep
        n_nodes = m
        # trailing non-shuffle coalesce: each semi-join's output block
        # count is the SUM of its sides', so the carried edge table
        # tripled its blocks every peel round (measured 16 → 48 → …)
        # and round wall time climbed — the same block-growth pathology
        # as the other iterative loops
        cur = _pin(
            hash_join(
                _pin(
                    hash_join(
                        cur,
                        _renamed(keep, {"node": "src"}),
                        on="src",
                        how="semi",
                    )
                ),
                _renamed(keep, {"node": "dst"}),
                on="dst",
                how="semi",
            ).repartition(n_blocks)
        )
    raise ValueError(f"k_core did not converge within {max_iters} rounds")


def _lpa_local(rows, iters: int) -> "ray.data.Dataset":
    """Driver-side twin of :func:`label_propagation` over the deduped
    undirected edge rows — identical tie-break arithmetic."""
    edges = sorted({(r["a"], r["b"]) for r in rows})
    nodes = sorted({n for e in edges for n in e})
    nbrs: dict = {n: [] for n in nodes}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    lab = {n: n for n in nodes}
    for _ in range(iters):
        new = {}
        for n in nodes:
            cnt: dict = {}
            for m in nbrs[n]:
                cnt[lab[m]] = cnt.get(lab[m], 0) + 1
            # most frequent neighbor label, ties by min label
            new[n] = min(cnt, key=lambda k: (-cnt[k], k))
        lab = new
    out = pd.DataFrame({"node": nodes})
    out["community"] = out["node"].map(lab)
    return ray.data.from_pandas(out)


def label_propagation(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    iters: int = 5,
    num_buckets: int = 64,
    small_threshold: int = 200_000,
) -> ray.data.Dataset:
    """Community detection by SYNCHRONOUS label propagation (Raghavan
    et al. 2007) over the undirected graph of (src, dst) edges →
    Dataset(node, community). label₀(v) = v; each round every node
    adopts the most frequent label among its neighbors, ties broken by
    the MINIMUM label — fully deterministic, unlike the classic
    random-order asynchronous variant, which is what puts this
    iterative operator under the driver's value-hash gate via a
    plain-Python fixture twin (the same discipline as the fixed-point
    pagerank/hits). Synchronous LPA can oscillate on bipartite-ish
    structure rather than converge; a fixed ``iters`` makes the output
    a well-defined function of the graph either way.

    Scale shape per iteration: TWO ``bucketed_group_map`` exchanges on
    the frames' ``a`` column — labels co-grouped with the doubled edge
    table on the node to emit (neighbor, label) messages pre-counted
    per bucket (a hub's label crosses once per (bucket, label), not
    once per edge), then a count-sum + vectorized argmax per node on
    the neighbor. Same driver cutover as
    :func:`pagerank` below ``small_threshold`` deduped edges."""

    def frame(kind: str, a, b=None, n=None) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "kind": kind,
                "a": a,
                "b": b if b is not None else [""] * len(a),
                "n": pd.Series(n if n is not None else [0] * len(a), dtype="int64"),
            }
        )

    def edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        e = df[[src, dst]].astype(str)
        lo = e.min(axis=1)
        hi = e.max(axis=1)
        e = pd.DataFrame({"u": lo, "v": hi})
        e = e[e["u"] != e["v"]].drop_duplicates()
        return frame("edge", e["u"].tolist(), e["v"].tolist())

    def dedup_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(subset=["a", "b"])

    # canonicalize (min, max) per undirected edge, dedup once; route
    # by the canonical endpoint so global dedup is one exchange
    canon = bucketed_group_map(
        edges.map_batches(edge_rows, batch_format="pandas"),
        ["a"], dedup_bucket, num_buckets,
    ).materialize()

    if canon.count() <= small_threshold:
        # to_pandas, not iter_rows (see pagerank's cutover)
        return _lpa_local(canon.to_pandas().to_dict("records"), iters)

    # doubled adjacency keyed on the label-owning endpoint a
    def double_rows(df: pd.DataFrame) -> pd.DataFrame:
        fwd = frame("edge", df["a"].tolist(), df["b"].tolist())
        rev = frame("edge", df["b"].tolist(), df["a"].tolist())
        return pd.concat([fwd, rev], ignore_index=True)

    adj = canon.map_batches(double_rows, batch_format="pandas").materialize()

    def init_labels(df: pd.DataFrame) -> pd.DataFrame:
        nodes = df["a"].drop_duplicates()
        return frame("lab", nodes.tolist(), nodes.tolist())

    labels = bucketed_group_map(
        adj.map_batches(init_labels, batch_format="pandas"),
        ["a"], lambda df: df.drop_duplicates(subset=["a"]), num_buckets,
    ).materialize()

    for _ in range(iters):
        # phase 1: attach each node's label to its adjacency rows,
        # emit (neighbor, label) pre-counted per bucket
        def send(df: pd.DataFrame) -> pd.DataFrame:
            lab = df.loc[df["kind"] == "lab", ["a", "b"]].rename(
                columns={"b": "l"}
            )
            e = df.loc[df["kind"] == "edge", ["a", "b"]]
            m = e.merge(lab, on="a")
            cnt = m.groupby(["b", "l"], sort=False).size().reset_index(name="n")
            return frame(
                "msg", cnt["b"].tolist(), cnt["l"].tolist(),
                cnt["n"].to_numpy(),
            )

        msgs = bucketed_group_map([labels, adj], ["a"], send, num_buckets)

        # phase 2: per node, sum counts per label and take the
        # (count DESC, label ASC) argmax
        def reduce_bucket(df: pd.DataFrame) -> pd.DataFrame:
            m = df.loc[df["kind"] == "msg", ["a", "b", "n"]]
            s = m.groupby(["a", "b"], sort=False, as_index=False)["n"].sum()
            s = s.sort_values(
                ["a", "n", "b"], ascending=[True, False, True], kind="stable"
            )
            w = s.drop_duplicates(subset=["a"], keep="first")
            return frame("lab", w["a"].tolist(), w["b"].tolist())

        # trailing non-shuffle coalesce: the sort exchange emits one
        # partition per input block, so without it the carried label
        # table grows by |adj blocks| every iteration (the block-growth
        # pathology measured in canonicalize.connected_components)
        labels = (
            bucketed_group_map(msgs, ["a"], reduce_bucket, num_buckets)
            .repartition(num_buckets)
            .materialize()
        )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": df["a"], "community": df["b"]})

    return labels.map_batches(finish, batch_format="pandas")


def _sssp_local(rows, sources, max_rounds: int) -> "ray.data.Dataset":
    """Driver-side twin of :func:`sssp`: integer Bellman-Ford over the
    deduped edge rows — identical relax arithmetic."""
    edges = sorted({(r["src"], r["dst"], int(r["weight"])) for r in rows})
    dist = {s: 0 for s in sources}
    for _ in range(max_rounds + 1):
        improved = {}
        for u, v, w in edges:
            if u in dist:
                nd = dist[u] + w
                if nd < dist.get(v, nd + 1) and nd < improved.get(v, nd + 1):
                    improved[v] = nd
        improved = {
            v: d for v, d in improved.items() if d < dist.get(v, d + 1)
        }
        if not improved:
            out = pd.DataFrame(sorted(dist.items()), columns=["node", "dist"])
            out["dist"] = out["dist"].astype("int64")
            return ray.data.from_pandas(out)
        dist.update(improved)
    raise ValueError(f"sssp did not converge within {max_rounds} rounds")


def sssp(
    edges: ray.data.Dataset,
    sources: list,
    weight_col: str = "weight",
    directed: bool = True,
    max_rounds: int = 50,
    num_buckets: int = 64,
    small_threshold: int = 200_000,
) -> ray.data.Dataset:
    """Single-source(-set) shortest paths over NON-NEGATIVE integer
    edge weights → Dataset(node, dist) for every reachable node —
    frontier Bellman-Ford (the weighted generalization of
    :func:`bfs_depths`; integer min-relaxation commutes, so the result
    is deterministic at any partitioning). Per round, two
    ``bucketed_group_map`` co-groups on the frames' ``a`` column: the
    frontier with the edges on the source, emitting relaxed candidates
    min-reduced per target, then the candidates with the pinned
    distance table on the target, keeping only strict improvements —
    work per round proportional to the improving frontier, cycles safe
    (weights ≥ 0), ``max_rounds`` raises rather than truncating. Same
    driver cutover as the other iterative graph ops."""
    cols = ["src", "dst", weight_col]
    base = edges.select_columns(cols)
    if not directed:
        rev = _renamed(base, {"src": "dst", "dst": "src"}).select_columns(cols)
        base = base.union(rev)

    def edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        if (df[weight_col] < 0).any():
            raise ValueError("sssp needs non-negative weights")
        e = df.drop_duplicates(subset=["src", "dst"])
        return pd.DataFrame(
            {
                "kind": "edge",
                "a": e["src"].astype(str),
                "b": e["dst"].astype(str),
                "d": e[weight_col].astype("int64"),
            }
        )

    deduped = bucketed_group_map(
        base.map_batches(edge_rows, batch_format="pandas"),
        ["a"], lambda df: df.drop_duplicates(subset=["a", "b"]), num_buckets,
    ).materialize()

    if deduped.count() <= small_threshold:
        rows = (
            {"src": r["a"], "dst": r["b"], "weight": r["d"]}
            for r in deduped.to_pandas().to_dict("records")
        )
        return _sssp_local(rows, [str(s) for s in sources], max_rounds)

    def frame(kind: str, a, d) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "kind": kind,
                "a": list(a),
                "b": "",
                "d": pd.Series(list(d), dtype="int64"),
            }
        )

    src_list = [str(s) for s in sources]
    dist = ray.data.from_pandas(
        frame("dist", src_list, [0] * len(src_list))
    ).materialize()
    frontier = dist

    for _ in range(max_rounds + 1):
        # phase 1: relax — frontier co-grouped with edges on the source
        def relax(df: pd.DataFrame) -> pd.DataFrame:
            f = df.loc[df["kind"] == "dist", ["a", "d"]].rename(
                columns={"d": "fd"}
            )
            e = df.loc[df["kind"] == "edge", ["a", "b", "d"]]
            m = e.merge(f, on="a")
            if not len(m):
                return frame("cand", [], [])
            cand = pd.DataFrame(
                {"b": m["b"], "nd": (m["d"] + m["fd"]).astype("int64")}
            )
            cand = cand.groupby("b", sort=False, as_index=False)["nd"].min()
            return frame("cand", cand["b"], cand["nd"])

        cands = bucketed_group_map(
            [frontier, deduped], ["a"], relax, num_buckets
        )

        # phase 2: strict-improvement merge against the pinned dists
        def merge(df: pd.DataFrame) -> pd.DataFrame:
            cur = df.loc[df["kind"] == "dist", ["a", "d"]]
            c = df.loc[df["kind"] == "cand", ["a", "d"]]
            if not len(c):
                return frame("dist", cur["a"], cur["d"])
            cm = c.groupby("a", sort=False, as_index=False)["d"].min()
            m = cm.merge(cur, on="a", how="left", suffixes=("_new", "_old"))
            better = m["d_old"].isna() | (m["d_new"] < m["d_old"])
            imp = m[better]
            out = pd.concat(
                [
                    frame("dist", imp["a"], imp["d_new"]),
                    frame(
                        "dist",
                        cur.loc[~cur["a"].isin(set(imp["a"])), "a"],
                        cur.loc[~cur["a"].isin(set(imp["a"])), "d"],
                    ),
                ],
                ignore_index=True,
            )
            # tag improvements so the frontier can be filtered out
            if len(imp):
                out.iloc[: len(imp), out.columns.get_loc("b")] = "improved"
            return out

        # non-shuffle coalesce: keeps the carried distance table at a
        # fixed block count across rounds (same block-growth pathology
        # as the CC/LPA loops)
        merged = (
            bucketed_group_map([cands, dist], ["a"], merge, num_buckets)
            .repartition(num_buckets)
            .materialize()
        )

        def keep_improved(df: pd.DataFrame) -> pd.DataFrame:
            return df[df["b"] == "improved"]

        frontier = merged.map_batches(
            keep_improved, batch_format="pandas"
        ).materialize()
        if frontier.count() == 0:
            def finish(df: pd.DataFrame) -> pd.DataFrame:
                return pd.DataFrame(
                    {"node": df["a"], "dist": df["d"].astype("int64")}
                )

            return merged.map_batches(finish, batch_format="pandas")

        def clear_tag(df: pd.DataFrame) -> pd.DataFrame:
            out = df.copy()
            out["b"] = ""
            return out

        dist = merged.map_batches(clear_tag, batch_format="pandas").materialize()
    raise ValueError(f"sssp did not converge within {max_rounds} rounds")
