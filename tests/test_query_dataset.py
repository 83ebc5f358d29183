"""Distributed GetIndividuals plan ≡ memory-backend result."""

import pytest

from ontograph_ray import literals as L
from ontograph_ray.ontology import (
    OntologyGraph,
    OntologyIndividual,
    TripleFilter,
)
from ontograph_ray.ontology.query import get_individuals_dataset
from ontograph_ray.store import DatasetGraphStore, MemoryGraphStore

URI = "https://www.ontograph.com/test-dquery"


@pytest.fixture
def corpus():
    ont = OntologyGraph.init(MemoryGraphStore(URI))
    i1 = OntologyIndividual(uri=URI + "#indiv1", types=["http://abc.com#type1"])
    i2 = OntologyIndividual(uri=URI + "#indiv2", types=["http://abc.com#type2"])
    i3 = OntologyIndividual(
        uri=URI + "#indiv3",
        types=["http://abc.com#type1", "http://abc.com#type2", "http://abc.com#type3"],
    )
    i4 = OntologyIndividual(
        uri=URI + "#indiv4", types=["http://abc.com#type2", "http://abc.com#type3"]
    )
    i1.add_object_property("http://abc.com#prop1", "http://abc.com#indiv2")
    i2.add_object_property("http://abc.com#prop2", "http://abc.com#indiv1")
    i1.add_data_property("http://abc.com#dataprop1", L.xsd_string("s"))
    i3.add_data_property("http://abc.com#dataprop2", L.xsd_integer(42))
    for i in (i1, i2, i3, i4):
        ont.upsert_resource(i)
    return ont


def _dstore(ont) -> DatasetGraphStore:
    return DatasetGraphStore.from_table(URI, ont.graph.to_table())


def _uris(ds):
    return sorted(r["uri"] for r in ds.take_all())


def test_no_filter(ray_session, corpus):
    ds = get_individuals_dataset(_dstore(corpus), None, num_partitions=2, num_buckets=4)
    want = sorted(i.uri for i in corpus.get_individuals(None))
    assert _uris(ds) == want


def test_and_filter(ray_session, corpus):
    f = (
        TripleFilter()
        .and_with_class("http://abc.com#type2")
        .and_with_class("http://abc.com#type3")
    )
    ds = get_individuals_dataset(_dstore(corpus), f, num_partitions=2, num_buckets=4)
    assert _uris(ds) == sorted(i.uri for i in corpus.get_individuals(f))


def test_or_and_mixed(ray_session, corpus):
    f = (
        TripleFilter()
        .and_with_class("http://abc.com#type2")
        .and_with_object_property("http://abc.com#prop2", "http://abc.com#indiv1")
        .or_with_class("http://abc.com#type3")
        .and_with_data_property("http://abc.com#dataprop2", L.xsd_integer(42))
    )
    ds = get_individuals_dataset(_dstore(corpus), f, num_partitions=2, num_buckets=4)
    assert _uris(ds) == sorted(i.uri for i in corpus.get_individuals(f))


def test_filters_via_distributed_semi_join(ray_session, corpus, monkeypatch):
    """Bound=0 forces the hash_join fallback: same results as the
    broadcast path on every filter shape."""
    import ontograph_ray.ontology.query as Q

    monkeypatch.setattr(Q, "BROADCAST_MAX_SUBJECTS", 0)
    filters = [
        TripleFilter()
        .and_with_class("http://abc.com#type2")
        .and_with_class("http://abc.com#type3"),
        TripleFilter()
        .and_with_class("http://abc.com#type2")
        .and_with_object_property("http://abc.com#prop2", "http://abc.com#indiv1")
        .or_with_class("http://abc.com#type3")
        .and_with_data_property("http://abc.com#dataprop2", L.xsd_integer(42)),
    ]
    for f in filters:
        ds = get_individuals_dataset(_dstore(corpus), f, num_partitions=2, num_buckets=4)
        assert _uris(ds) == sorted(i.uri for i in corpus.get_individuals(f))


def test_struct_contents(ray_session, corpus):
    ds = get_individuals_dataset(_dstore(corpus), None, num_partitions=2, num_buckets=4)
    rows = {r["uri"]: r for r in ds.take_all()}
    i3 = rows[URI + "#indiv3"]
    assert sorted(i3["types"]) == [
        "http://abc.com#type1",
        "http://abc.com#type2",
        "http://abc.com#type3",
    ]
    dp = {d["prop"]: d["literals"] for d in i3["data_props"]}
    assert dp == {"http://abc.com#dataprop2": [L.xsd_integer(42).term]}


class TestLengthOutliers:
    def test_threshold_and_determinism(self, ray_session):
        from ontograph_ray.queries import q_length_outliers

        a = (
            q_length_outliers("/root/testdata/sf0.001")
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        b = (
            q_length_outliers("/root/testdata/sf0.001")
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert a.equals(b)
        assert len(a) > 0
        # every surviving doc is over the threshold implied by the
        # smallest survivor (monotone filter sanity)
        assert a["n_tokens"].min() > 0


def test_broadcast_cutover_is_logged(ray_session, corpus, monkeypatch, caplog):
    import logging

    import ontograph_ray.ontology.query as Q

    caplog.set_level(logging.DEBUG, logger="ontograph_ray")
    f = TripleFilter().and_with_class("http://abc.com#type2")
    want = sorted(i.uri for i in corpus.get_individuals(f))
    assert _uris(get_individuals_dataset(_dstore(corpus), f, num_buckets=4)) == want
    monkeypatch.setattr(Q, "BROADCAST_MAX_SUBJECTS", 0)
    assert _uris(get_individuals_dataset(_dstore(corpus), f, num_buckets=4)) == want
    msgs = [r.getMessage() for r in caplog.records if r.name == "ontograph_ray"]
    assert msgs == [
        "get_individuals_dataset: broadcast branch, 3 candidate subjects "
        "<= BROADCAST_MAX_SUBJECTS=2000000",
        "get_individuals_dataset: semi-join branch, 3 candidate subjects "
        "> BROADCAST_MAX_SUBJECTS=0",
    ]
