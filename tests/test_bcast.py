"""bcast.cached_get: the one per-worker cache for broadcast sides."""

import ray

from ontograph_ray import bcast
from ontograph_ray.bcast import CACHE_MAX, cached_get
from ontograph_ray.ontology import OntologyGraph, OntologyIndividual, TripleFilter
from ontograph_ray.ontology.query import get_individuals_dataset
from ontograph_ray.store import DatasetGraphStore, MemoryGraphStore
from ontograph_ray.terms import new_literal_term as lit
from ontograph_ray.terms import new_resource_term as res
from ontograph_ray.triples import new_triple

URI = "https://www.ontograph.com/test-bcast"


def test_cache_stays_bounded(ray_session):
    cache: dict = {}
    refs = [ray.put(i) for i in range(CACHE_MAX + 1)]
    for i, ref in enumerate(refs):
        assert cached_get(cache, ref) == i
        assert len(cache) <= CACHE_MAX
    # the newest ref survives the clear and is served from the cache
    assert cached_get(cache, refs[-1]) == CACHE_MAX
    assert len(cache) == 1


def test_plain_value_served_without_ray_get(monkeypatch):
    def no_get(_ref):
        raise AssertionError("ray.get called for a plain value")

    monkeypatch.setattr(bcast.ray, "get", no_get)
    value = {"a": "b"}
    cache: dict = {}
    assert cached_get(cache, value) is value
    assert cached_get(cache, value, transform=len) is value  # cached by id


def test_transform_runs_once_per_ref(ray_session):
    calls = []

    def transform(v):
        calls.append(v)
        return v * 2

    cache: dict = {}
    a, b = ray.put(1), ray.put(5)
    assert [cached_get(cache, r, transform) for r in (a, a, b, a, b)] == [2, 2, 10, 2, 10]
    assert calls == [1, 5]


def test_delete_unchecked_across_cache_clears(ray_session):
    """More successive broadcasts than CACHE_MAX on live workers: each
    delete must read its own key set, not a stale cached one."""
    trps = [
        new_triple(res(f"urn:s{i}"), res("urn:p"), lit(str(i)))
        for i in range(CACHE_MAX + 2)
    ]
    store = DatasetGraphStore.from_triples("urn:g", trps)
    for i, t in enumerate(trps):
        got = store.delete_triples_unchecked([t]).get_all_matches("", "", "")
        assert sorted(got) == sorted(trps[:i] + trps[i + 1 :])


def test_individuals_broadcast_across_cache_clears(ray_session):
    ont = OntologyGraph.init(MemoryGraphStore(URI))
    classes = [f"http://abc.com#type{i}" for i in range(3)]
    for i in range(6):
        ont.upsert_resource(
            OntologyIndividual(uri=f"{URI}#indiv{i}", types=classes[: i % 3 + 1])
        )
    dstore = DatasetGraphStore.from_table(URI, ont.graph.to_table())
    for i in range(CACHE_MAX + 1):
        f = TripleFilter().and_with_class(classes[i % 3])
        ds = get_individuals_dataset(dstore, f, num_buckets=4)
        got = sorted(r["uri"] for r in ds.take_all())
        assert got == sorted(ind.uri for ind in ont.get_individuals(f))
