"""P6 — canonicalization: distributed union-find over owl:sameAs edges.

Connected components by iterative min-label propagation, expressed as
hash-bucketed groupby-aggregate shuffles (no driver-side graph, no
per-node tasks):

    labels₀(node)   = node
    labelsᵢ₊₁(node) = min(labelsᵢ(node), min over neighbors labelsᵢ)

Each iteration is two bucketed exchanges: (1) co-group the doubled
edge list with the label table on the source endpoint (they share one
unified schema and one bucket column, so the exchange is a single
groupby) and emit (neighbor, label) messages; (2) group messages by
node and take the min.

Skew handling for head entities (a hub with millions of sameAs edges)
is two complementary mechanisms:

- **fan-in** (hub as message *receiver*): a per-bucket combiner
  pre-mins messages per (node, is_self) *before* the phase-2 shuffle,
  so a hot node receives at most one row per phase-1 bucket instead of
  its full fan-in.
- **fan-out** (hub as edge *source*, ``salt > 1``): all of a hub's
  edges share ``key = hub`` and would hash to ONE phase-1 bucket,
  making that task a straggler. Salting spreads them: the edge bucket
  becomes ``mix(hash(key), hash(nbr) % salt)`` — deterministic per
  edge, so the global edge dedup still co-locates identical (key, nbr)
  pairs — and each node's label row is replicated to all ``salt``
  salted buckets before the phase-1 union (a cheap per-batch map; the
  label side is one row per node). Phase 2 stays keyed on the unsalted
  node hash, so labels remain globally unique. ``salt=1`` is the
  unsalted plan. The output is bucket-invariant: tests pin salted ==
  unsalted == driver union-find.

Convergence is detected with a changed-count aggregate; min-label
propagation needs O(component diameter) iterations ≤ max_iters.

Physical form (round 4): the per-iteration UDFs are Arrow-native
(``batch_format="pyarrow"``, Acero hash-joins and group_by
aggregations) and every per-iteration bucket id is integer math
(splitmix64) over a ``__h`` node-hash column computed ONCE in the
initial doubling pass — no Arrow→pandas copies and no re-hashing of
node strings inside the hot loop. Message destinations (``__dest`` =
home bucket of the neighbor) are likewise precomputed on the edge
table. Measured 32-way on a 212k-node/1.27M-edge duplicate-heavy
synthetic (25 iterations, distributed path forced): pandas-reduce
loop vs this form — see BASELINE.md round-4 A/B; identical output
signature.

SameAs semantics anchor: owl:sameAs edges of individuals (reference:
constants.go:24, ontology_individual.go:7); the reference never
computes closures — this operator is the scale path the north rule
adds.
"""

from __future__ import annotations

import logging
import time

import pandas as pd

import ray
import ray.data

from ..store.dataset import splitmix64

_log = logging.getLogger("ontograph_ray")


def union_find(pairs) -> dict[str, str]:
    """Driver-side min-label union-find over an iterable of (a, b)
    string edge pairs → {node: component representative} for every
    node, where the representative is the lexicographic min of the
    component (same contract as connected_components). For edge sets
    known to fit driver memory only."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    nodes: set[str] = set()
    for k, n in pairs:
        nodes.add(k)
        nodes.add(n)
        a, b = find(k), find(n)
        if a != b:
            # min label wins so the representative is deterministic
            lo, hi = (a, b) if a < b else (b, a)
            parent[hi] = lo
    return {n: find(n) for n in nodes}


def _local_components(edges2: ray.data.Dataset) -> ray.data.Dataset:
    """Driver-side union-find over the deduped doubled edge list —
    the small-graph cutover of connected_components (same output
    contract: Dataset(node, component), component = min label)."""
    comp = union_find(
        (row["key"], row["nbr"])
        for row in edges2.select_columns(["key", "nbr"]).iter_rows()
    )
    out = pd.DataFrame({"node": sorted(comp)})
    out["component"] = [comp[n] for n in out["node"]]
    return ray.data.from_pandas(out)


# unified union schema for the phase-1 co-group: edge rows carry
# (key, nbr, __h=hash(key), __dest=home(nbr), __bucket=salted(key));
# label rows carry (node, label, key=node for the Acero join,
# __h=hash(node), __dest=home(node), __bucket=salted replica)
_CC_SCHEMA_FIELDS = [
    ("kind", "int8"),
    ("node", "string"),
    ("label", "string"),
    ("key", "string"),
    ("nbr", "string"),
    ("__h", "int64"),
    ("__dest", "int64"),
    ("__bucket", "int64"),
    ("__hl", "int64"),  # hash(label) bit-view — routes the jump round
    ("__pl", "string"),  # previous label (report-to-rep target); null on edges
    ("__hp", "int64"),  # hash(previous label) — routes the report message
    ("__s", "int8"),  # label replica index (0..salt-1); 0 on edges
    ("__changed", "int64"),  # label changed last iteration; 0 on edges
]


def _cc_schema():
    import pyarrow as pa

    return pa.schema([(n, getattr(pa, t)()) for n, t in _CC_SCHEMA_FIELDS])


def _home(h, num_buckets: int):
    """Unsalted (phase-2 / message-destination) bucket of a node hash."""
    import numpy as np

    return (splitmix64(h) % np.uint64(num_buckets)).astype(np.int64)


def _salted(h, s: int, num_buckets: int):
    """Phase-1 bucket of (node hash, salt value); _salted(h, 0, B) ==
    _home(h, B) so the salt=1 plan needs no label replication."""
    import numpy as np

    return (splitmix64(h + np.uint64(s)) % np.uint64(num_buckets)).astype(np.int64)


def connected_components(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    max_iters: int = 25,
    num_buckets: int = 64,
    small_threshold: int = 200_000,
    salt: int = 1,
    jump: bool = True,
) -> ray.data.Dataset:
    """Edges (src,dst string columns) → Dataset(node, component) where
    component is the lexicographic min node label of the component.

    Adaptive physical plan: after the global edge dedup, if the
    DISTINCT edge count is ≤ ``small_threshold`` the component labels
    are computed with a driver-side union-find over the (already
    shuffled-small) edge set — identical output, none of the
    per-iteration shuffle latency. Above the threshold the iterative
    min-label-propagation loop below is the scale path (this is the
    standard size cutover: a graph whose deduped edges fit the driver
    needs no distributed fixpoint). Tests pin both paths
    (small_threshold=0 forces the distributed loop).

    ``salt > 1`` spreads each node's *outgoing* edges over ``salt``
    salted buckets and replicates label rows to match (module
    docstring, "fan-out") — use for graphs with head entities whose
    degree rivals a whole bucket's fair share. Output is identical for
    any salt; the cost is a ×salt replication of the (one-row-per-node)
    label side of each phase-1 exchange.

    ``jump=True`` (default) adds one pointer-jump exchange per
    iteration (L(v) ← L(L(v))), so convergence needs O(log diameter)
    propagate rounds instead of O(diameter) — the iteration count, not
    the per-round cost, is the wall on long-chain graphs (BASELINE.md
    round-5 probe). Output is identical with or without it (tests pin
    both)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    salt = max(1, int(salt))
    B = num_buckets
    schema = _cc_schema()
    names = [f.name for f in schema]

    def doubled(df: pd.DataFrame) -> pd.DataFrame:
        # the ONLY string-hashing pass: node hashes ride along as the
        # uint64 __h column from here on
        fwd = pd.DataFrame({"key": df[src].astype(str), "nbr": df[dst].astype(str)})
        rev = pd.DataFrame({"key": df[dst].astype(str), "nbr": df[src].astype(str)})
        out = pd.concat([fwd, rev], ignore_index=True).drop_duplicates()
        h_key = pd.util.hash_pandas_object(out["key"], index=False).to_numpy()
        h_nbr = pd.util.hash_pandas_object(out["nbr"], index=False).to_numpy()
        s = (h_nbr % np.uint64(salt)).astype(np.uint64)  # all-zero when salt=1
        out["kind"] = np.int8(0)
        out["node"] = None
        out["label"] = None
        out["__h"] = h_key.view(np.int64)
        out["__dest"] = _home(h_nbr, B)
        # == _salted(h_key, s_of_edge, B); matches the label replicas
        out["__bucket"] = (splitmix64(h_key + s) % np.uint64(B)).astype(np.int64)
        out["__hl"] = np.int64(0)
        out["__pl"] = None
        out["__hp"] = np.int64(0)
        out["__s"] = np.int8(0)
        out["__changed"] = np.int64(0)
        return out[names]

    def dedup_bucket(t: pa.Table) -> pa.Table:
        # per-bucket DISTINCT on (key, nbr); the other columns are
        # functions of (key, nbr), so grouping on all of them is the
        # same distinct
        d = t.group_by(
            ["key", "nbr", "kind", "__h", "__dest", "__bucket", "__hl",
             "__hp", "__s", "__changed"],
            use_threads=False,
        ).aggregate([])
        n = len(d)
        return pa.table(
            {
                "kind": d["kind"],
                "node": pa.nulls(n, pa.string()),
                "label": pa.nulls(n, pa.string()),
                "key": d["key"],
                "nbr": d["nbr"],
                "__h": d["__h"],
                "__dest": d["__dest"],
                "__bucket": d["__bucket"],
                "__hl": d["__hl"],
                "__pl": pa.nulls(n, pa.string()),
                "__hp": d["__hp"],
                "__s": d["__s"],
                "__changed": d["__changed"],
            },
            schema=schema,
        )

    # Global edge dedup before iterating: per-batch drop_duplicates is
    # only a combiner; the bucketed exchange + per-bucket distinct makes
    # it global, so a heavily duplicated edge list (e.g. one sameAs edge
    # re-emitted per mention) is shuffled ONCE here instead of once per
    # propagation iteration.
    edges2 = (
        edges.map_batches(doubled, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(dedup_bucket, batch_format="pyarrow")
        .materialize()
    )

    if edges2.count() <= small_threshold:
        return _local_components(edges2)

    def label_replicas(nodes, labels_col, h, changed, hl, pl, hp) -> pa.Table:
        """(node, label, hash bits, changed, hash-of-label, previous
        label + its hash) column data → unified-schema label rows, one
        replica per salt value (colliding replicas are harmless —
        phase 1 needs ≥1 label row per bucket, phase 2 re-dedups).
        Integer-mix bucketing: no string hashing per iteration. Replica
        0 (``__s == 0``) is the canonical one-row-per-node slice the
        output projects and the jump round reads."""
        n = len(h)
        parts = []
        for s in range(salt):
            parts.append(
                pa.table(
                    {
                        "kind": pa.array(np.ones(n, np.int8), pa.int8()),
                        "node": nodes,
                        "label": labels_col,
                        "key": nodes,  # phase-1 join key
                        "nbr": pa.nulls(n, pa.string()),
                        "__h": pa.array(h.view(np.int64), pa.int64()),
                        "__dest": pa.array(_home(h, B), pa.int64()),
                        "__bucket": pa.array(_salted(h, s, B), pa.int64()),
                        "__hl": hl,
                        "__pl": pl,
                        "__hp": hp,
                        "__s": pa.array(np.full(n, s, np.int8), pa.int8()),
                        "__changed": changed,
                    },
                    schema=schema,
                )
            )
        return pa.concat_tables(parts) if len(parts) > 1 else parts[0]

    # Node init: the doubled list contains every node as some row's
    # `key`; home-bucketed exchange + per-bucket distinct makes the
    # node set global. Labels are MATERIALIZED in the unified union
    # schema (replicas included), so each loop iteration's
    # `labels.union(edges2)` unions two materialized datasets — no
    # lazy plan between iterations for schema probes to re-execute.
    def node_rows(t: pa.Table) -> pa.Table:
        h = t["__h"].to_numpy().view(np.uint64)
        return pa.table(
            {
                "node": t["key"],
                "label": t["key"],
                "__h": pa.array(h.view(np.int64), pa.int64()),
                "__bucket": pa.array(_home(h, B), pa.int64()),
            }
        )

    def node_distinct(t: pa.Table) -> pa.Table:
        d = t.group_by(
            ["node", "label", "__h", "__bucket"], use_threads=False
        ).aggregate([])
        h = d["__h"].to_numpy().view(np.uint64)
        zeros = pa.array(np.zeros(len(d), np.int64), pa.int64())
        # label == prev == node initially, so all hashes equal __h
        return label_replicas(
            d["node"], d["label"], h, zeros, d["__h"], d["label"], d["__h"]
        )

    labels = (
        edges2.map_batches(node_rows, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(node_distinct, batch_format="pyarrow")
        .materialize()
    )

    msg_schema = pa.schema(
        [
            ("node", pa.string()),
            ("label", pa.string()),
            ("is_self", pa.int8()),
            ("__h", pa.int64()),
            ("__hl", pa.int64()),
            ("__bucket", pa.int64()),
        ]
    )

    # --- pointer jumping (round 5): one extra exchange per iteration
    # compresses label chains L(v) ← L(L(v)), so long-diameter graphs
    # converge in O(log d) propagate rounds instead of O(d). Labels are
    # monotone non-increasing and L(x) ≤ x, so the pointer's label
    # always improves-or-ties — the jump needs no min, just a replace.
    # Each __s==0 label row plays two roles in one co-group: requester
    # (routed to the pointer's home bucket, home(__hl)) and responder
    # (the label row itself at its own home bucket, home(__h)); the
    # per-bucket inner join answers every request because every pointer
    # target IS a node with a label row, and hash(label string) equals
    # that node's __h (same vectorized hash).
    jump_schema = pa.schema(
        [
            ("role", pa.int8()),
            ("node", pa.string()),
            ("label", pa.string()),
            ("__h", pa.int64()),
            ("__hl", pa.int64()),
            ("__pl", pa.string()),
            ("__hp", pa.int64()),
            ("__jb", pa.int64()),
        ]
    )

    def jump_emit(t: pa.Table) -> pa.Table:
        base = t.filter(pc.equal(t["__s"], 0))
        n = len(base)
        h = base["__h"].to_numpy().view(np.uint64)
        hl = base["__hl"].to_numpy().view(np.uint64)
        roles = []
        for role, jb in ((0, _home(hl, B)), (1, _home(h, B))):
            roles.append(
                pa.table(
                    {
                        "role": pa.array(
                            np.full(n, role, np.int8), pa.int8()
                        ),
                        "node": base["node"],
                        "label": base["label"],
                        "__h": base["__h"],
                        "__hl": base["__hl"],
                        "__pl": base["__pl"],
                        "__hp": base["__hp"],
                        "__jb": pa.array(jb, pa.int64()),
                    },
                    schema=jump_schema,
                )
            )
        return pa.concat_tables(roles)

    def jump_resolve(t: pa.Table) -> pa.Table:
        req = (
            t.filter(pc.equal(t["role"], 0))
            .select(["node", "label", "__h", "__pl", "__hp"])
            .rename_columns(["node", "__ptr", "__h", "__pl", "__hp"])
        )
        res = (
            t.filter(pc.equal(t["role"], 1))
            .select(["node", "label", "__hl"])
            .rename_columns(["__ptr", "__plab", "__phl"])
        )
        j = req.join(res, keys=["__ptr"], join_type="inner")
        changed = pc.cast(pc.not_equal(j["__plab"], j["__ptr"]), pa.int64())
        h = j["__h"].to_numpy().view(np.uint64)
        # the pending report target (__pl/__hp, set by the reduce) is
        # PRESERVED: the jump's improvement came FROM the old pointer's
        # chain, so the report to the pre-reduce rep stays the one with
        # new information — and it now carries the even-smaller label
        return label_replicas(
            j["node"], j["__plab"], h, changed, j["__phl"],
            j["__pl"], j["__hp"],
        )

    for it in range(max_iters):
        t0 = time.monotonic()
        both = labels.union(edges2)

        # Phase 1: per bucket, Acero-join edges with source labels;
        # emit (node=nbr, label, __bucket=precomputed __dest) messages
        # pre-minned per (node, dest) — the anti-skew combiner — plus
        # tagged self rows destined to the node's home bucket.
        def propagate(t: pa.Table) -> pa.Table:
            kind = t["kind"]
            lab = t.filter(pc.equal(kind, 1)).select(
                ["key", "label", "__h", "__dest", "__hl", "__pl", "__hp",
                 "__s"]
            )
            edg = t.filter(pc.equal(kind, 0)).select(["key", "nbr", "__dest"])
            joined = edg.rename_columns(["key", "nbr", "__mdest"]).join(
                lab.select(["key", "label"]), keys=["key"], join_type="inner"
            )
            msgs = (
                pa.table(
                    {
                        "node": joined["nbr"],
                        "label": joined["label"],
                        "__bucket": joined["__mdest"],
                    }
                )
                .group_by(["node", "__bucket"], use_threads=False)
                .aggregate([("label", "min")])
            )
            nm = len(msgs)
            msgs_t = pa.table(
                {
                    "node": msgs["node"],
                    "label": msgs["label_min"],
                    "is_self": pa.array(np.zeros(nm, np.int8), pa.int8()),
                    "__h": pa.array(np.zeros(nm, np.int64), pa.int64()),
                    "__hl": pa.array(np.zeros(nm, np.int64), pa.int64()),
                    "__bucket": msgs["__bucket"],
                },
                schema=msg_schema,
            )
            ns = len(lab)
            self_t = pa.table(
                {
                    "node": lab["key"],
                    "label": lab["label"],
                    "is_self": pa.array(np.ones(ns, np.int8), pa.int8()),
                    "__h": lab["__h"],
                    "__hl": lab["__hl"],
                    "__bucket": lab["__dest"],
                },
                schema=msg_schema,
            )
            # report-to-rep: a node that improved past its previous
            # pointer target tells that target (one message per node,
            # routed to the old rep's home bucket) — this is what lets
            # a new minimum cross an already-labeled region in O(1)
            # rounds instead of re-walking it edge by edge; the jump
            # round then broadcasts it back region-wide. Only the
            # __s==0 replica reports (one message per node), and only
            # when the label actually moved past the old pointer.
            rep = lab.filter(
                pc.and_(
                    pc.equal(lab["__s"], 0),
                    pc.not_equal(lab["label"], lab["__pl"]),
                )
            )
            nr = len(rep)
            hp = rep["__hp"].to_numpy().view(np.uint64)
            rep_t = pa.table(
                {
                    "node": rep["__pl"],
                    "label": rep["label"],
                    "is_self": pa.array(np.zeros(nr, np.int8), pa.int8()),
                    "__h": pa.array(np.zeros(nr, np.int64), pa.int64()),
                    "__hl": pa.array(np.zeros(nr, np.int64), pa.int64()),
                    "__bucket": pa.array(_home(hp, B), pa.int64()),
                },
                schema=msg_schema,
            )
            return pa.concat_tables([msgs_t, self_t, rep_t])

        msgs = both.groupby("__bucket").map_groups(propagate, batch_format="pyarrow")

        # Phase 2: min per node; changed = new label < old (self) label.
        # Every node's self row lands in its home bucket alongside its
        # messages, so `old` is always present.
        def reduce_node(t: pa.Table) -> pa.Table:
            new = (
                t.group_by("node", use_threads=False)
                .aggregate([("label", "min")])
                .rename_columns(["node", "new_label"])
            )
            self_rows = t.filter(pc.equal(t["is_self"], 1))
            old = (
                self_rows.group_by("node", use_threads=False)
                .aggregate([("label", "min"), ("__h", "min"), ("__hl", "min")])
                .rename_columns(["node", "old_label", "__h", "__hlo"])
            )
            j = new.join(old, keys=["node"], join_type="inner")
            changed = pc.cast(pc.less(j["new_label"], j["old_label"]), pa.int64())
            h = j["__h"].to_numpy().view(np.uint64)
            # one vectorized hash pass over the bucket's (one row per
            # node) new labels — the jump round's routing key; cheap
            # next to the exchanges, and only labels are re-hashed,
            # never the doubled edge list
            hl = pa.array(
                pd.util.hash_pandas_object(
                    j["new_label"].to_pandas(), index=False
                )
                .to_numpy()
                .view(np.int64),
                pa.int64(),
            )
            # previous pointer (+ its hash) = this round's pre-min
            # label: the report target for the next propagate round
            return label_replicas(
                j["node"], j["new_label"], h, changed, hl,
                j["old_label"], j["__hlo"],
            )

        # one fused execution per iteration (sort → propagate → sort →
        # reduce → coalesce); the convergence probe is a cheap
        # aggregate over the pinned label blocks (×salt-inflated count,
        # truthiness only). The repartition is a NON-shuffle coalesce
        # and is load-bearing: the sort exchange emits one partition
        # per INPUT block, so without it the union's block count grows
        # by +|edges2 blocks| every iteration and per-iteration wall
        # time grows linearly (measured 3.1 s → 23 s by iteration 6 on
        # a 1.27M-edge synthetic; flat ~3 s with the coalesce).
        labels = (
            msgs.groupby("__bucket")
            .map_groups(reduce_node, batch_format="pyarrow")
            .repartition(num_buckets)
            .materialize()
        )
        changed = labels.sum("__changed") or 0
        _log.debug(
            "connected_components: iter %d, changed=%d, wall=%.2fs",
            it, changed, time.monotonic() - t0,
        )
        if not changed:
            break
        if jump:
            # pointer-jump round: L(v) ← L(L(v)) — one exchange; the
            # convergence check stays on the propagate round's changes
            # (hash-min fixpoint ⇒ converged regardless of jumps)
            labels = (
                labels.map_batches(jump_emit, batch_format="pyarrow")
                .groupby("__jb")
                .map_groups(jump_resolve, batch_format="pyarrow")
                .repartition(num_buckets)
                .materialize()
            )

    def finish(t: pa.Table) -> pa.Table:
        keep = t.filter(pc.equal(t["__s"], 0))
        return pa.table({"node": keep["node"], "component": keep["label"]})

    return labels.map_batches(finish, batch_format="pyarrow")
