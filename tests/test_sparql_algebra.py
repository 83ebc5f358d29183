"""Whole SPARQL queries against a plain-Python reference evaluator.

The engine (``sparql_select`` over a DatasetGraphStore) and the
reference (``sparql_reference.evaluate`` over a MemoryGraphStore's
triples) read the same algebra tree. Hypothesis draws small graphs and
queries from the supported grammar; each answer must equal the
reference's as a multiset, or the engine must refuse with a typed
error. The anchors pin answered results by hand, so the test cannot
pass by refusing everything. ``explain`` gets its own shape test.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from ontograph_ray.store import DatasetGraphStore, MemoryGraphStore
from ontograph_ray.store.sparql import (
    SparqlSyntaxError,
    SparqlUnsupportedError,
    explain,
    parse,
    sparql_select,
)
from ontograph_ray.triples import Triple

from sparql_reference import evaluate

_IRIS = ["<urn:a>", "<urn:b>", "<urn:c>", "<urn:d>"]
_LITS = ['"x"', '"y"']
_PREDS = _IRIS[:2]


def _answers(triples, query):
    """(engine rows, reference rows), each a sorted list of row tuples;
    the engine's rows are None when it refuses the query."""
    mem = MemoryGraphStore("urn:g")
    mem.add_triples_unchecked([Triple(*t) for t in triples])
    facts = [(t.subject, t.predicate, t.object) for t in mem.get_all_triples()]
    tree = parse(query)
    ref = evaluate(tree, facts)
    canon = lambda rows: sorted(  # noqa: E731
        tuple(sorted((k, v) for k, v in r.items() if v is not None)) for r in rows
    )
    try:
        ds = sparql_select(DatasetGraphStore.from_triples("urn:g", mem.get_all_triples()), query)
        got = ds.take_all()
    except (SparqlSyntaxError, SparqlUnsupportedError):
        return None, canon(ref)
    return canon(got), canon(ref)


_graphs = st.lists(
    st.tuples(st.sampled_from(_IRIS), st.sampled_from(_PREDS), st.sampled_from(_IRIS + _LITS)),
    min_size=1,
    max_size=12,
    unique=True,
)


def _paths(draw) -> str:
    """A predicate or a property path over the two predicates: each
    path operator, and one nesting level."""
    p, q = draw(st.permutations(_PREDS))
    return draw(st.sampled_from([
        p, f"^{p}", f"{p}|{q}", f"{p}/{q}", f"{p}+", f"{p}*", f"{p}?", f"!{p}",
        f"({p}/{q})+", f"({p}|^{q})*", f"({p}/^{q})?", f"({p}/{q})|{q}", f"^({p}/{q})",
        f"(({p}|{q})/{q})+",
    ]))


@st.composite
def _queries(draw) -> str:
    pred = lambda: draw(st.sampled_from(_PREDS))  # noqa: E731
    term = lambda: draw(st.sampled_from(_IRIS + _LITS))  # noqa: E731
    if draw(st.booleans()):
        where = [f"{{ ?a {pred()} ?b }} UNION {{ ?a {pred()} ?b }}"]
    else:
        where = [f"?a {_paths(draw)} ?b ."]
        if draw(st.booleans()):
            where.append(f"?b {_paths(draw)} ?c .")
        if draw(st.booleans()):  # a ground endpoint: seeded closures, ground zero-length pairs
            iri, path = draw(st.sampled_from(_IRIS)), _paths(draw)
            where.append(draw(st.sampled_from([f"{iri} {path} ?b .", f"?b {path} {iri} ."])))
    optional = draw(st.booleans())
    if optional:
        cond = draw(st.sampled_from(["", f"FILTER ( ?d != {term()} )"]))
        where.append(f"OPTIONAL {{ ?b {pred()} ?d {cond} }}")
    if draw(st.booleans()):
        cond = draw(st.sampled_from(["", "FILTER ( ?e != ?b )"]))
        where.append(f"MINUS {{ ?a {pred()} ?e {cond} }}")
    if draw(st.booleans()):
        neg = draw(st.sampled_from(["", "NOT "]))
        cond = draw(st.sampled_from(["", "FILTER ( ?f = ?b )"]))
        where.append(f"FILTER {neg}EXISTS {{ ?a {pred()} ?f {cond} }}")
    conds = [f"?b = {term()}", f"?b != {term()}", "?a != ?b"]
    if optional:
        conds += ["BOUND(?d)", "!BOUND(?d)"]
    if draw(st.booleans()):
        where.append(f"FILTER ( {draw(st.sampled_from(conds))} )")
    if draw(st.booleans()):
        where.append("BIND ( STR(?a) AS ?s )")
    if draw(st.booleans()):  # VALUES is a Join: duplicate and UNDEF rows repeat solutions
        cell = lambda terms: draw(st.sampled_from(terms + ["UNDEF"]))  # noqa: E731
        if draw(st.booleans()):
            vals = [cell(_IRIS) for _ in range(draw(st.integers(1, 3)))]
            where.append(f"VALUES ?a {{ {' '.join(vals)} }}")
        else:
            rows = [f"({cell(_IRIS)} {cell(_IRIS + _LITS)})" for _ in range(draw(st.integers(1, 3)))]
            where.append(f"VALUES (?a ?b) {{ {' '.join(rows)} }}")
    body = "WHERE { " + " ".join(where) + " }"
    shape = draw(st.sampled_from(["star", "distinct", "group", "top"]))
    if shape == "star":
        return f"SELECT * {body}"
    if shape == "distinct":
        return f"SELECT DISTINCT ?a ?b {body}"
    if shape == "group":
        counted = draw(st.sampled_from(["?b", "?d"] if optional else ["?b", "*"]))
        return f"SELECT ?a (COUNT({counted}) AS ?n) {body} GROUP BY ?a"
    return f"SELECT ?a {body} ORDER BY ?a LIMIT {draw(st.integers(1, 3))}"


@settings(max_examples=30, deadline=None)
@given(_graphs, _queries())
def test_queries_match_reference(ray_session, triples, query):
    got, want = _answers(triples, query)
    if got is not None:  # a typed refusal is allowed; an answer must be right
        assert got == want, query


_ANCHOR_GRAPH = [
    ("<urn:a>", "<urn:a>", "<urn:b>"),
    ("<urn:b>", "<urn:a>", "<urn:c>"),
    ("<urn:c>", "<urn:b>", '"x"'),
    ("<urn:a>", "<urn:b>", '"y"'),
    ("<urn:d>", "<urn:a>", "<urn:a>"),
]


@pytest.mark.parametrize(
    "query, rows",
    [
        # OPTIONAL with its condition, then a FILTER on the optional var
        (
            "SELECT ?a ?d WHERE { ?a <urn:a> ?b . "
            'OPTIONAL { ?b <urn:b> ?d FILTER ( ?d != "y" ) } FILTER ( BOUND(?d) ) }',
            [(("a", "<urn:b>"), ("d", '"x"'))],
        ),
        # MINUS evaluates its group alone: the outer ?b is unbound in
        # its FILTER, so nothing is removed
        (
            "SELECT ?a WHERE { ?a <urn:a> ?b . MINUS { ?a <urn:b> ?e FILTER ( ?e != ?b ) } }",
            [(("a", "<urn:a>"),), (("a", "<urn:b>"),), (("a", "<urn:d>"),)],
        ),
        # correlated NOT EXISTS reads the outer ?b
        (
            "SELECT ?a WHERE { ?a <urn:a> ?b . FILTER NOT EXISTS { ?b <urn:a> ?f } }",
            [(("a", "<urn:b>"),)],
        ),
        (
            "SELECT ?a (COUNT(?b) AS ?n) WHERE { { ?a <urn:a> ?b } UNION { ?a <urn:b> ?b } } "
            "GROUP BY ?a",
            [(("a", "<urn:a>"), ("n", 2)), (("a", "<urn:b>"), ("n", 1)),
             (("a", "<urn:c>"), ("n", 1)), (("a", "<urn:d>"), ("n", 1))],
        ),
        (
            "SELECT ?a WHERE { ?a <urn:a> ?b . BIND ( STR(?b) AS ?s ) "
            'VALUES ?a { <urn:a> <urn:d> } } ORDER BY ?a LIMIT 1',
            [(("a", "<urn:a>"),)],
        ),
        # nested paths: a sequence inside an alternation, ...
        (
            "SELECT ?s ?o WHERE { ?s (<urn:a>/<urn:b>)|<urn:b> ?o }",
            [(("o", '"y"'), ("s", "<urn:a>")), (("o", '"x"'), ("s", "<urn:b>")),
             (("o", '"x"'), ("s", "<urn:c>")), (("o", '"y"'), ("s", "<urn:d>"))],
        ),
        # ... under an inverse, with free and with ground endpoints, ...
        (
            "SELECT ?s ?o WHERE { ?s ^(<urn:a>/<urn:a>) ?o }",
            [(("o", "<urn:a>"), ("s", "<urn:c>")), (("o", "<urn:d>"), ("s", "<urn:b>"))],
        ),
        (
            "SELECT ?o WHERE { <urn:c> ^(<urn:a>/<urn:a>) ?o }",
            [(("o", "<urn:a>"),)],
        ),
        # ... and an alternation inside a sequence under a closure
        (
            "SELECT ?o WHERE { <urn:d> ((<urn:a>|<urn:b>)/<urn:a>)+ ?o }",
            [(("o", "<urn:b>"),)],
        ),
    ],
)
def test_anchor_queries(ray_session, query, rows):
    got, want = _answers(_ANCHOR_GRAPH, query)
    assert got == want == sorted(rows)


def test_explain_shape():
    out = explain(
        "SELECT ?p ?e WHERE { ?p <urn:knows>+ ?q . "
        "OPTIONAL { ?p <urn:email> ?e } MINUS { ?q <urn:name> ?n } }"
    ).splitlines()
    assert [line[: len(line) - len(line.lstrip())].count(" ") // 2 for line in out] == [
        0, 1, 2, 3, 4, 3, 4, 2, 3,
    ]
    text = [line.strip() for line in out]
    assert text[0] == "Project [p, e]: select_columns([p, e])"
    assert text[1].startswith("MINUS on [q]: anti-join on distinct keys")
    assert text[2] == "LeftJoin on [p]: hash_join(how=left, on=[p])"
    assert text[4].startswith("?p <urn:knows>+ ?q: transitive_closure(seed=none)")
    assert "LOCAL_CLOSURE_MAX_EDGES" in text[4]
    assert text[6] == "?p <urn:email> ?e: matches(predicate=<urn:email>) scan"
    assert explain("SELECT ?a WHERE { ?a <urn:p> ?b . ?c <urn:q> ?d }").startswith(
        "refused (SparqlUnsupportedError): pattern"
    )
