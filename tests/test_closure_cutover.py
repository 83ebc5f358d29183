"""Both sides of transitive_closure's size cutover.

At or below ``LOCAL_CLOSURE_MAX_EDGES`` the fixpoint runs in one task
over an Arrow table; monkeypatching the constant to 0 forces the
distributed loop. Every closure and SPARQL path answer must be the
same on both branches."""

import itertools
import logging
import re

import pandas as pd
import pytest

import ray.data as rd

import test_graphstats
import test_store_dataset
from ontograph_ray.pipelines import graphstats
from ontograph_ray.pipelines.canonicalize import connected_components
from ontograph_ray.pipelines.graphstats import transitive_closure

BRANCHES = ("local", "distributed")
DEFAULT_MAX_EDGES = graphstats.LOCAL_CLOSURE_MAX_EDGES


def _use(monkeypatch, branch):
    monkeypatch.setattr(
        graphstats,
        "LOCAL_CLOSURE_MAX_EDGES",
        DEFAULT_MAX_EDGES if branch == "local" else 0,
    )


@pytest.fixture(params=BRANCHES)
def branch(request, monkeypatch):
    _use(monkeypatch, request.param)
    return request.param


def _tc(pairs, **kw):
    ds = rd.from_pandas(pd.DataFrame(pairs, columns=["src", "dst"]))
    return sorted(
        map(tuple, transitive_closure(ds, **kw).to_pandas().values.tolist())
    )


# the closure and SPARQL path tests of the other suites, which run on
# the default (local) branch there: re-run them on the distributed one
SUITES = [
    (test_graphstats.TestTransitiveClosure, "test_chain_and_cycle"),
    (test_graphstats.TestTransitiveClosure, "test_dedup_of_input"),
    (test_graphstats.TestTransitiveClosure, "test_diameter_cap_raises"),
    (test_store_dataset.TestSparql, "test_path_grouped_sequences"),
    (test_store_dataset.TestSparqlExtensions, "test_path_closure"),
    (test_store_dataset.TestSparqlExtensions, "test_path_star_and_zero_or_one"),
    (test_store_dataset.TestSparqlNegsetClosure, "test_negset_plus"),
    (test_store_dataset.TestSparqlNegsetClosure, "test_negset_plus_two_excluded"),
    (test_store_dataset.TestSparqlNegset, "test_negset_errors"),
]


@pytest.mark.parametrize(
    "suite,name", SUITES, ids=[f"{c.__name__}.{n}" for c, n in SUITES]
)
def test_suites_on_distributed_branch(ray_session, monkeypatch, suite, name):
    _use(monkeypatch, "distributed")
    getattr(suite(), name)(ray_session)


class TestSources:
    # 1→2→3→1 is a cycle, 3→4 leaves it, 5→6 is unreachable from it
    EDGES = [(1, 2), (2, 3), (3, 1), (3, 4), (5, 6)]

    def test_cycle(self, ray_session, branch):
        assert _tc(self.EDGES, sources=[1]) == [(1, 1), (1, 2), (1, 3), (1, 4)]

    def test_unreachable_node(self, ray_session, branch):
        got = _tc(self.EDGES, sources=[2, 5])
        assert got == [(2, 1), (2, 2), (2, 3), (2, 4), (5, 6)]
        # a seed that is no edge's endpoint reaches nothing
        assert _tc(self.EDGES, sources=[9]) == []

    def test_source_without_out_edges(self, ray_session, branch):
        assert _tc(self.EDGES, sources=[4]) == []

    def test_seed_is_a_filter_of_the_full_closure(self, ray_session, branch):
        full = _tc(self.EDGES)
        for s in (1, 3, 5):
            assert _tc(self.EDGES, sources=[s]) == [p for p in full if p[0] == s]

    def test_diameter_cap_raises_seeded(self, ray_session, branch):
        with pytest.raises(ValueError):
            _tc([(1, 2), (2, 3), (3, 4)], max_iters=1, sources=[1])


def _path_store():
    from ontograph_ray import terms
    from ontograph_ray.store import DatasetGraphStore
    from ontograph_ray.triples import new_triple

    r = terms.new_resource_term
    edges = [
        ("a", "p", "b"), ("b", "p", "c"), ("c", "p", "a"),  # p-cycle
        ("c", "q", "d"), ("d", "p", "e"), ("e", "q", "f"),
        ("x", "skip", "a"), ("f", "p", "g"),
    ]
    return DatasetGraphStore.from_triples(
        "urn:g", [new_triple(r(f"urn:{s}"), r(f"urn:{p}"), r(f"urn:{o}"))
                  for s, p, o in edges]
    )


# one query per path form: + * ?, a negated set, a grouped sequence, an
# inverse step, a ground subject and a ground object
PATH_QUERIES = [
    "SELECT ?x ?y WHERE { ?x <urn:p>+ ?y }",
    "SELECT ?x ?y WHERE { ?x (<urn:p>|<urn:q>)* ?y }",
    "SELECT ?x ?y WHERE { ?x <urn:q>? ?y }",
    "SELECT ?x ?y WHERE { ?x !(<urn:skip>)+ ?y }",
    "SELECT ?x ?y WHERE { ?x (<urn:p>/<urn:q>)+ ?y }",
    "SELECT ?x ?y WHERE { ?x ^<urn:p>+ ?y }",
    "SELECT ?x ?y WHERE { ?x (^<urn:q>/^<urn:p>)+ ?y }",
    "SELECT ?x WHERE { ?x <urn:p>+ ?x }",
    "SELECT ?y WHERE { <urn:a> (<urn:p>|<urn:q>)+ ?y }",
    "SELECT ?y WHERE { <urn:c> <urn:p>* ?y }",
    "SELECT ?y WHERE { <urn:g> ^<urn:p>+ ?y }",
    "SELECT ?x WHERE { ?x (<urn:p>|<urn:q>)+ <urn:g> }",
    "SELECT ?x WHERE { ?x <urn:p>* <urn:b> }",
    "SELECT ?x WHERE { ?x !(<urn:q>)+ <urn:a> }",
    "SELECT ?x WHERE { ?x <urn:p>+ <urn:nowhere> }",
]


def test_path_answers_identical_on_both_branches(ray_session, monkeypatch):
    from ontograph_ray.store.sparql import sparql_select

    store = _path_store()
    answers = {}
    for b in BRANCHES:
        _use(monkeypatch, b)
        answers[b] = [
            sorted(map(tuple, sparql_select(store, q).to_pandas().values.tolist()))
            for q in PATH_QUERIES
        ]
    assert answers["local"] == answers["distributed"]
    got = dict(zip(PATH_QUERIES, answers["local"]))
    # spot answers: the p-cycle closes on itself, the ground-object
    # seed walks the reversed edges
    assert got["SELECT ?x WHERE { ?x <urn:p>+ ?x }"] == [
        ("<urn:a>",), ("<urn:b>",), ("<urn:c>",)
    ]
    assert got["SELECT ?x WHERE { ?x (<urn:p>|<urn:q>)+ <urn:g> }"] == [
        (f"<urn:{n}>",) for n in "abcdef"
    ]
    assert got["SELECT ?x WHERE { ?x <urn:p>* <urn:b> }"] == [
        ("<urn:a>",), ("<urn:b>",), ("<urn:c>",)
    ]
    assert got["SELECT ?x WHERE { ?x <urn:p>+ <urn:nowhere> }"] == []


def test_seeded_pairs_match_unseeded_closure(ray_session):
    # a denser graph with several cycles: every seed's rows are exactly
    # its rows in the full closure
    nodes = range(12)
    pairs = [(u, v) for u, v in itertools.permutations(nodes, 2)
             if (u * 7 + v * 3) % 5 == 0]
    full = _tc(pairs)
    for s in nodes:
        assert _tc(pairs, sources=[s]) == [p for p in full if p[0] == s]


def test_cutover_is_logged(ray_session, monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="ontograph_ray")
    for b in BRANCHES:
        _use(monkeypatch, b)
        _tc([(1, 2), (2, 3)])
    msgs = [r.getMessage() for r in caplog.records if r.name == "ontograph_ray"]
    assert msgs == [
        "transitive_closure: local branch, 2 edges <= "
        "LOCAL_CLOSURE_MAX_EDGES=2000000, 2 rounds, 3 rows",
        "transitive_closure: distributed branch, 2 edges > "
        "LOCAL_CLOSURE_MAX_EDGES=0, 2 rounds",
    ]
    # the connected-components fixpoint logs one line per round on the
    # same logger, the last one at convergence
    caplog.clear()
    edges = rd.from_pandas(pd.DataFrame({"src": ["a", "b"], "dst": ["b", "c"]}))
    connected_components(edges, num_buckets=4, small_threshold=0).materialize()
    msgs = [r.getMessage() for r in caplog.records if r.name == "ontograph_ray"]
    assert msgs
    for it, m in enumerate(msgs):
        assert re.fullmatch(
            rf"connected_components: iter {it}, changed=\d+, wall=\d+\.\d\ds", m
        ), m
    assert ", changed=0," in msgs[-1]
