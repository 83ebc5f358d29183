"""Distributed GetIndividuals — the engine's flagship query plan.

Reference semantics (ontology_graph.go:532-611): OR-of-AND triple
filters → candidate subject set → per-candidate pivot. The reference
runs k+1 store queries with nested-loop intersections; here the whole
thing is ONE Dataset plan:

    filter triple i → vectorized pattern filter, projected to
                      (subject, group_id, filter_id) match rows
    AND             → per-subject count of distinct satisfied filters
                      == group size (single hash-bucketed groupby —
                      no chained joins, no per-subject Python)
    OR              → any group fully satisfied (same shuffle)
    final           → broadcast-semi-join of the graph against the
                      candidate subject set (candidates are
                      filter-selective ⇒ small side; ray.put once,
                      read once per worker), then hash-bucketed
                      groupby(subject) pivot into individual structs

With no filter the plan skips candidate selection entirely and pivots
every subject — the pivot drops subjects without the
owl:NamedIndividual marker, which is exactly the no-filter semantics.

Partitioning assumption: the *candidate set* (not the graph) fits in a
worker's heap. For non-selective filters use the no-filter path and
filter the pivoted structs.
"""

from __future__ import annotations

import logging

import pandas as pd
import pyarrow as pa

import ray
import ray.data

from .. import constants as C
from .. import triples as tr
from ..bcast import cached_get
from ..store.dataset import DatasetGraphStore, bucketed_group_map, hash_join
from ..terms import new_resource_term, term_value
from .resources import pivot_individual

_log = logging.getLogger("ontograph_ray")

# Largest candidate-subject set shipped as a ray.put broadcast; above
# this the semi-join runs as a bucketed hash_join exchange instead.
BROADCAST_MAX_SUBJECTS = 2_000_000

# per-worker cache of the broadcast candidate-subject set
_SUBJECTS_CACHE: dict = {}

_R = new_resource_term

INDIVIDUAL_SCHEMA = pa.schema(
    [
        ("uri", pa.string()),
        ("types", pa.list_(pa.string())),
        ("same_as", pa.list_(pa.string())),
        (
            "object_props",
            pa.list_(pa.struct([("prop", pa.string()), ("targets", pa.list_(pa.string()))])),
        ),
        (
            "data_props",
            pa.list_(pa.struct([("prop", pa.string()), ("literals", pa.list_(pa.string()))])),
        ),
        ("labels", pa.list_(pa.struct([("lang", pa.string()), ("text", pa.string())]))),
        ("comments", pa.list_(pa.struct([("lang", pa.string()), ("text", pa.string())]))),
    ]
)


def candidate_subjects(
    store: DatasetGraphStore, filters=None, num_buckets: int = 64
) -> ray.data.Dataset:
    """Dataset with a single ``subject`` column of candidate subject
    terms satisfying the OR-of-AND filter."""
    if not filters:
        marker = store.matches("", _R(C.RDF_TYPE), _R(C.OWL_NAMED_INDIVIDUAL))

        def proj(batch: pa.Table) -> pa.Table:
            return (
                pa.table({"subject": batch[tr.SUBJECT]})
                .group_by(["subject"], use_threads=False)
                .aggregate([])
            )

        return marker.map_batches(proj, batch_format="pyarrow")

    group_sizes = {gid: len(group) for gid, group in enumerate(filters)}
    match_sets = []
    for gid, group in enumerate(filters):
        for fid, ft in enumerate(group):
            matched = store.matches(ft.subject, ft.predicate, ft.object)

            def tag(batch: pa.Table, _g=gid, _f=fid) -> pa.Table:
                subj = (
                    pa.table({"subject": batch[tr.SUBJECT]})
                    .group_by(["subject"], use_threads=False)
                    .aggregate([])
                )
                n = subj.num_rows
                return subj.append_column(
                    "group_id", pa.array([_g] * n, pa.int32())
                ).append_column("filter_id", pa.array([_f] * n, pa.int32()))

            match_sets.append(matched.map_batches(tag, batch_format="pyarrow"))

    sizes = group_sizes  # captured; tiny dict, serialized with the fn

    def reduce_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # per (subject, group): distinct satisfied filters == group size
        hits = (
            df.groupby(["subject", "group_id"], sort=False)["filter_id"]
            .nunique()
            .reset_index()
        )
        hits["need"] = hits["group_id"].map(sizes)
        ok = hits[hits["filter_id"] >= hits["need"]]
        return pd.DataFrame({"subject": ok["subject"].unique()})

    return bucketed_group_map(match_sets, ["subject"], reduce_bucket, num_buckets)


def _pivot_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """Pivot every subject in one bucket into individual struct rows.
    Subjects without the owl:NamedIndividual marker are dropped
    (bulk-mode filter instead of the reference's per-candidate error)."""
    from .resources import ResourceNotFoundError

    rows = []
    for subject, g in df.groupby(tr.SUBJECT, sort=False):
        uri = term_value(subject)
        pairs = list(zip(g[tr.PREDICATE], g[tr.OBJECT]))
        try:
            ind = pivot_individual(uri, pairs)
        except ResourceNotFoundError:
            continue
        rows.append(
            {
                "uri": ind.uri,
                "types": ind.types,
                "same_as": ind.same_individual_as,
                "object_props": [
                    {"prop": k, "targets": v}
                    for k, v in sorted(ind.object_properties.items())
                ],
                "data_props": [
                    {"prop": k, "literals": [lit.term for lit in v]}
                    for k, v in sorted(ind.data_properties.items())
                ],
                "labels": [{"lang": k, "text": v} for k, v in sorted(ind.label.items())],
                "comments": [
                    {"lang": k, "text": v} for k, v in sorted(ind.comment.items())
                ],
            }
        )
    if not rows:
        return pd.DataFrame({name: pd.Series(dtype=object) for name in INDIVIDUAL_SCHEMA.names})
    return pd.DataFrame(rows)


def _semi_join_subjects(df: pd.DataFrame, subjects_ref=None) -> pd.DataFrame:
    """Keep rows whose subject is in the broadcast candidate set (read
    from the object store once per worker)."""
    if not len(df):
        return df
    return df[df[tr.SUBJECT].isin(cached_get(_SUBJECTS_CACHE, subjects_ref))]


def get_individuals_dataset(
    store: DatasetGraphStore,
    filters=None,
    num_buckets: int = 64,
    **_compat,
) -> ray.data.Dataset:
    """Bulk filtered individual retrieval → Dataset of individual
    structs (INDIVIDUAL_SCHEMA). One distributed plan instead of the
    reference's k+1 store round-trips."""
    graph_rows = store.dataset
    if filters:
        cands = candidate_subjects(store, filters, num_buckets).materialize()
        n_cands = cands.count()
        broadcast = n_cands <= BROADCAST_MAX_SUBJECTS
        _log.debug(
            "get_individuals_dataset: %s branch, %d candidate subjects "
            "%s BROADCAST_MAX_SUBJECTS=%d",
            "broadcast" if broadcast else "semi-join",
            n_cands, "<=" if broadcast else ">", BROADCAST_MAX_SUBJECTS,
        )
        if broadcast:
            # to_pandas, not take_all: Ray Data iterates the rows of the
            # reduce's pandas blocks at ~2 ms each (4-CPU host)
            subjects = set(cands.to_pandas()["subject"]) if n_cands else set()
            subjects_ref = ray.put(subjects)
            graph_rows = graph_rows.map_batches(
                _semi_join_subjects,
                fn_kwargs={"subjects_ref": subjects_ref},
                batch_format="pandas",
            )
        else:
            # Non-selective filter (e.g. `? rdf:type <commonClass>`):
            # the candidate set would blow the driver/worker heap as a
            # broadcast, so semi-join it distributed instead — one
            # bucketed exchange, never collected anywhere.
            graph_rows = hash_join(
                graph_rows,
                cands,
                on=tr.SUBJECT,
                how="semi",
                num_buckets=num_buckets,
            )

    return bucketed_group_map(graph_rows, [tr.SUBJECT], _pivot_bucket, num_buckets)
