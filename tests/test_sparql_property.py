"""Property tests for the SPARQL front end and expression evaluator
(no Ray).

The subset contract says anything outside the grammar raises a TYPED
error (`SparqlSyntaxError` / `SparqlUnsupportedError`) instead of
crashing or silently misparsing. Fuzz both arbitrary text and
grammar-adjacent token soup: the parser must never escape with an
IndexError/KeyError/AttributeError. FILTER expressions generated from
the grammar must evaluate, over a binding table with unbound cells,
exactly as a plain row-at-a-time SPARQL 1.1 §17.2 evaluator says.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from ontograph_ray.store.sparql import (
    SparqlSyntaxError,
    SparqlUnsupportedError,
    _eval,
    _parse_update,
    parse,
)

_TYPED = (SparqlSyntaxError, SparqlUnsupportedError)

_words = st.sampled_from(
    [
        "SELECT", "WHERE", "DISTINCT", "PREFIX", "FILTER", "OPTIONAL",
        "UNION", "ORDER", "GROUP", "BY", "LIMIT", "AS", "COUNT", "MIN",
        "MAX", "INSERT", "DELETE", "DATA", "GRAPH", "a", "regex",
        "?s", "?p", "?o", "?x", "*", "{", "}", "(", ")", ".", ",",
        "=", "!=", "7", "<urn:x>", "<https://e.org/p>", '"lit"',
        '"l"@en', '"3"^^<urn:dt>', "pfx:", "pfx:name",
        # round-2 grammar extensions: path modifiers / negsets,
        # ORDER direction, HAVING, numeric filters, AVG / DISTINCT
        # aggregates — the fuzzer must keep the typed-error contract
        # over these tokens too
        "SUM", "AVG", "HAVING", "ASC", "DESC", "VALUES", "MINUS",
        "EXISTS", "NOT", "OFFSET", "+", "?", "!", "^", "/", "|",
        "<", ">", "<=", ">=", "-", "0", "60",
        # round-5 decimal-lane tokens: decimal constants (valid and
        # over-precise), BIND/FILTER division
        "0.5", "1.2345678", "BIND",
        # expression-language tokens: boolean and arithmetic operators,
        # builtins of FILTER, BIND and IF
        "&&", "||", "*", "IF", "COALESCE", "STRLEN", "CONCAT", "IN",
        "STR", "REGEX", "BOUND", "isIRI",
    ]
)
_soup = st.lists(_words, min_size=0, max_size=25).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(_soup)
def test_parse_select_token_soup_raises_typed_or_parses(q):
    try:
        parse(q)
    except _TYPED:
        pass


@settings(max_examples=300, deadline=None)
@given(_soup)
def test_parse_update_token_soup_raises_typed_or_parses(q):
    try:
        _parse_update(q)
    except _TYPED:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_parse_arbitrary_text_never_crashes(q):
    for fn in (parse, _parse_update):
        try:
            fn(q)
        except _TYPED:
            pass


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["?s", "?x", "<urn:a>"]),
            st.sampled_from(["?p", "a", "<urn:p>"]),
            st.sampled_from(["?o", '"v"', '"v"@en', "<urn:b>"]),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_valid_bgps_parse_and_keep_patterns(pats):
    q = "SELECT * WHERE { " + " . ".join(" ".join(p) for p in pats) + " . }"
    try:
        parsed = parse(q)
    except SparqlUnsupportedError:
        return  # e.g. disconnected BGP / cartesian refusal happens later
    assert len(parsed.child.patterns) == len(pats)
    # ground 'a' expands to rdf:type in the predicate slot
    for (s, p, o), got in zip(pats, parsed.child.patterns):
        if p == "a":
            assert got[1].startswith("<http://www.w3.org/")


def test_lone_question_mark_is_not_a_variable():
    for q in ("SELECT * WHERE { ?s ? ?o }", "SELECT * WHERE { ? <urn:p> ?o }"):
        with pytest.raises(SparqlSyntaxError, match="unexpected term"):
            parse(q)


# --- the expression evaluator against a row-at-a-time reference ---------

_XI = "^^<http://www.w3.org/2001/XMLSchema#integer>"
_ROWS = {
    "a": [f'"1"{_XI}', f'"5"{_XI}', "<urn:x>", '"lit"', None, f'"-3"{_XI}', '"7"@en', None],
    "b": [None, f'"5"{_XI}', f'"2"{_XI}', "<urn:x>", '"lit"', None, f'"9"{_XI}', '"z"'],
}
_TABLE = pa.table({k: pa.array(v, pa.string()) for k, v in _ROWS.items()})
_GROUND = ["<urn:x>", '"lit"', f'"5"{_XI}', '"7"@en']


def _int(v):
    m = re.fullmatch(r'"([+-]?\d+)"' + re.escape(_XI), v)
    return int(m.group(1)) if m else None


def _cmp(op, x, y):
    if x is None or y is None:
        return None  # an error: unbound or not a number
    return {"=": x == y, "!=": x != y, "<": x < y, ">": x > y}[op]


def _and(x, y):  # §17.2 logical-and
    if x is False or y is False:
        return False
    return None if x is None or y is None else True


def _or(x, y):  # §17.2 logical-or
    if x is True or y is True:
        return True
    return None if x is None or y is None else False


_var = st.sampled_from(["a", "b"])
_atoms = st.one_of(
    st.builds(
        lambda v: (f"BOUND(?{v})", lambda r: r[v] is not None), _var
    ),
    st.builds(
        lambda f, v, neg: (
            f"{'!' if neg else ''}{f}(?{v})",
            lambda r: None if r[v] is None else (r[v][0] == ("<" if f == "isIRI" else '"')) != neg,
        ),
        st.sampled_from(["isIRI", "isLiteral"]),
        _var,
        st.booleans(),
    ),
    st.builds(
        lambda v, op, t: (f"?{v} {op} {t}", lambda r: _cmp(op, r[v], t)),
        _var, st.sampled_from(["=", "!="]), st.sampled_from(_GROUND),
    ),
    st.builds(
        lambda op: (f"?a {op} ?b", lambda r: _cmp(op, r["a"], r["b"])),
        st.sampled_from(["=", "!="]),
    ),
    st.builds(
        lambda v, op, n: (
            f"?{v} {op} {n}",
            lambda r: None if r[v] is None else _cmp(op, _int(r[v]), n),
        ),
        _var, st.sampled_from(["<", ">"]), st.integers(-4, 6),
    ),
)
_exprs = st.recursive(
    _atoms,
    lambda sub: st.builds(
        lambda x, op, y: (
            f"( {x[0]} {op} {y[0]} )",
            lambda r: (_and if op == "&&" else _or)(x[1](r), y[1](r)),
        ),
        sub, st.sampled_from(["&&", "||"]), sub,
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(_exprs)
def test_eval_matches_row_reference(expr):
    text, ref = expr
    cond = parse(f"SELECT * WHERE {{ ?s ?p ?o . FILTER ( {text} ) }}").child.exprs[0]
    rows = [dict(zip(_ROWS, vals)) for vals in zip(*_ROWS.values())]
    assert _eval(_TABLE, cond).to_pylist() == [ref(r) for r in rows], text
