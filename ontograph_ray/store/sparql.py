"""SPARQL over a DatasetGraphStore — the E8 passthrough, Ray-Data-first.

The reference's endpoint hands raw SPARQL strings to Blazegraph
(`blazegraph_endpoint.go:176-244`). This module answers a documented
subset of SPARQL 1.1 on the engine's own primitives instead, parsed
strictly: anything outside it raises ``SparqlSyntaxError`` or
``SparqlUnsupportedError`` rather than silently misanswering.

One algebra. Every query form — SELECT, ASK, CONSTRUCT, DESCRIBE, a
``{ SELECT … }`` subquery and the WHERE of the DELETE/INSERT update —
parses to one SPARQL 1.1 §18 tree (``parse``). One rule pass
(``_validate`` over the table ``_RULES``) refuses what the subset does
not answer, before anything runs; one recursive lowering (each node's
``lower``) runs the rest; ``explain(query)`` prints the tree with the
primitive each node lowers to.

Grammar → node:

    PREFIX pfx: <uri>                    the prologue
    SELECT [DISTINCT | REDUCED] ?v … | *  Project, Distinct (REDUCED also
                                         drops duplicates: deterministic)
    WHERE { group }                      the group's translation, below
    s p o . …                            BGP; terms ?var | <uri> | pfx:x |
                                         "lit"[@lang | ^^dt] | a
      s path o                           a path pattern (below); a top-level
                                         e1/e2/… is a BGP chain via hidden
                                         ?__ppN variables (§18.2.2.4)
    OPTIONAL { group }                   LeftJoin (the group's FILTERs
                                         are its condition)
    MINUS { group }                      Minus (§8.3.3: no outer scope)
    FILTER [NOT] EXISTS { group }        Exists
    FILTER ( expr ) | regex(?v, "re")    Filter (this regex: RE2 over the
                                         encoded term)
    BIND ( expr AS ?v )                  Extend
    VALUES ?v { t … } | (?a ?b) { (t t) … }   Values (a Join), inline or
                                         postfix (over Group, §18.2.4.3);
                                         UNDEF cells are wildcards
    { group } UNION { group } …          Union
    { SELECT … }                         Join with the subquery's tree
    (AGG(…) AS ?a) … [GROUP BY ?k …]     Group: COUNT([DISTINCT] ?v | *),
                                         SUM / AVG([DISTINCT] ?v), MIN /
                                         MAX / SAMPLE(?v), GROUP_CONCAT(
                                         [DISTINCT] ?v [; SEPARATOR="s"])
    HAVING ( AGG(?v | *) cmp int )       Having
    ORDER BY ?v | ASC(?v) | DESC(?v) …   OrderBy
    LIMIT n  OFFSET n                    Slice
    ASK [WHERE] { [GRAPH <g> {] group [}] }        Ask
    CONSTRUCT { template } WHERE …                 Construct
    DESCRIBE <iri>… ?v… [WHERE …]                  Describe
    DELETE { tpl } INSERT { tpl } WHERE { group }  Modify (sparql_update)

Property paths (§9.1) over ground IRIs parse to one tree of path nodes,
``path → seq ('|' seq)*``, ``seq → elt ('/' elt)*``, ``elt → '^'?
primary ('+' | '*' | '?')?``, ``primary → iri | !iri | !(iri|…) |
( path )``. Each node lowers through one recursive ``edges(store, s, o)``
→ Dataset(src, dst), pruned by the pattern's ground endpoints ``s`` /
``o`` where it can:

    Link(iri)        iri         ``matches(s, iri, o)``, a predicate-pruned scan
    Inv(p)           ^p          p's pairs with the endpoints and columns swapped
    Alt(ps)          p1|p2|…     ``Dataset.union`` of the pairs (a bag)
    Seq(ps)          p1/p2/…     inner ``hash_join`` chain on the middle node
    NegSet(iris)     !(iri|…)    ``matches(s, "", o)``, predicate NOT IN iris
    Mod(p, "+")      p+          ``transitive_closure(sources=)`` of p's pairs,
                                 seeded at a ground endpoint (reversed for o)
    Mod(p, "*")      p*          the same plus the zero-length pairs, then
                                 ``distinct_on``: a ground endpoint matches
                                 itself, two variables bind every subject
                                 and object of the graph
    Mod(p, "?")      p?          p's pairs plus the zero-length pairs,
                                 ``distinct_on``

The pattern's endpoint step then filters the pairs on its ground
endpoints and projects ``?s`` / ``?o``.

A group translates in one order: its triple patterns form one BGP (a
group of only ``{…} UNION {…}`` is that Union); OPTIONAL, subqueries,
BIND, the FILTERs, EXISTS, MINUS / NOT EXISTS and VALUES then wrap it.
Inside the subset — well-designed OPTIONALs, required-bound join keys —
that order gives the answers of the spec's element order.

Rules (``_RULES``, one entry per refusal; a group's contents first):

    BGP        non-empty; no fully-bound pattern; connected (each pattern
               shares a variable with those before it) unless a pure-BGP
               ASK; a negated property set at a pattern's top only in a
               query's own group; no ``+`` over a path holding ``*`` / ``?``
    Union      two or more branches, each a plain BGP, binding the same
               variables
    LeftJoin   shares a variable; well-designed (no join key that may be
               unbound); its FILTERs read only the group's variables;
               the group holds BGPs, nested OPTIONALs and FILTERs
    Minus, Exists   share a required-bound variable; the group is a BGP
               plus FILTERs; an EXISTS FILTER reads only required-bound
               outer variables
    Join       with a { SELECT } subquery only, sharing a variable
    Extend     a fresh alias over bound arguments
    Filter     bound variables (in a query's own group)
    Values     one per query, over required-bound variables, ground cells;
               not on numeric aggregate results; after grouping, only keys
    Group      algebraic aggregates; a DISTINCT aggregate or GROUP_CONCAT
               as the sole aggregate, GROUP_CONCAT with GROUP BY
    Having     the aggregate also in SELECT
    Project    grouped: keys and aggregate aliases only
    OrderBy    selected variables;  Slice: OFFSET needs ORDER BY + LIMIT
    every expression  typed against ``_SIGNATURES`` (below)

Lowering (``lower``; ``explain`` prints these):

    BGP        per pattern a ``matches()`` scan or a path's ``edges``,
               pinned with ``materialize()``, inner ``hash_join`` on the
               shared variables; a path closure is ``transitive_closure
               (sources=)`` — one local task or the distributed fixpoint,
               chosen at run time by ``LOCAL_CLOSURE_MAX_EDGES``
    Union      ``Dataset.union``;  Join: ``hash_join(how=inner)``
    LeftJoin   ``hash_join(how=left)``, the condition filtering the group
    Minus, Exists   anti / semi ``hash_join`` on the distinct shared keys;
               a correlated EXISTS filters (distinct outer keys ⋈ group)
               and joins on the qualifying keys
    Extend, Filter  ``map_batches`` of ``_bind_batch`` / ``_filter_batch``
    Values     a broadcast join: each solution taken once per compatible
               row (``index_in`` row counts for one variable, summed row
               masks for several), no exchange
    Group      ``bucketed_group_map`` with the ``_aggregate_kernels``
               partial/final pair; without keys the final runs on the
               driver over the block partials (one row; COUNT/SUM 0 and
               AVG/MIN/MAX unbound when empty); without aggregates
               ``distinct_on`` the keys
    Having, Project, Distinct, OrderBy, Slice   a map over the aggregate
               columns, ``select_columns``, ``distinct_on``,
               ``Dataset.sort``, ``limit`` (OFFSET: the ordered head is
               sliced on the driver)
    Ask        ``limit(1)`` per ground pattern and per connected
               component (a pure BGP), else over the solutions
    Construct  the template per solution, ``distinct_on`` the triples
    Describe   IRIs only: an ``is_in`` scan; else a semi ``hash_join`` of
               the triples with the described resources
    Modify     an anti ``hash_join`` of the deletes, union + dedup of the
               inserts; ground templates apply iff the group matches

Aggregates: COUNT skips unbound values; an unbound group key is a group
of its own; SUM/AVG need xsd:integer literals (exact int64 partials,
anything else raises ValueError) and AVG divides once per group; a
DISTINCT aggregate or GROUP_CONCAT (sorted values, none unbound) keeps
distinct (keys…, v) rows through the exchange; SAMPLE is pinned to MIN.

Expressions (SPARQL 1.1 §17) — one grammar for FILTER, BIND and IF,
typed against one signature table (``_SIGNATURES``) and evaluated by
one vectorized evaluator (``_eval``), null standing for error/unbound:

    expr    := expr || expr | expr && expr | ! test
             | add (= | != | < | > | <= | >=) add
             | add [NOT] IN ( [ground, ...] ) | add
    add     := mul ((+ | -) mul)*        mul := unary ((* | /) unary)*
    unary   := - unary | primary
    primary := ( expr ) | ?v | ground term | integer | decimal
             | BUILTIN ( expr, ... )

    precedence   || < && < relational < additive < multiplicative < unary
    && ||        boolean operands; §17.2 error rules (Kleene logic)
    !            only before BOUND / isIRI / isURI / isLiteral / isNumeric
    < > <= >=    numeric operands; a ?v or COALESCE decodes per row, a
                 non-numeric term is an error
    = !=         two terms by identity (encoded term equality); a string
                 builtin against a plain "string" by lexical form (a
                 language tag is ignored); a number against a number or
                 ?v by value, an IRI or blank node being unequal to a
                 number (§17.3 RDFterm-equal)
    + - * / -x   numeric. Two lanes, coalesced per row: int64 over
                 xsd:integer lexicals (one optional sign; a value beyond
                 int64 is an error) for + - *, and
                 an exact scale-6 fixed-point lane for '/' and decimal
                 operands (xsd:decimal / plain-form xsd:double, at most
                 6 fractional digits, half-away-from-zero rounding where
                 needed); an integer row binds xsd:integer, a decimal row
                 a canonical xsd:decimal ("-2.5", "3.0"); anything else
                 is an error
    [NOT] IN     ?v against ground terms (no numbers), term identity

    builtin (arguments)                      value
    BOUND isIRI isURI isLiteral isNumeric (?v)   boolean
    LANGMATCHES (LANG(?v), "range")          boolean; RFC 4647 basic, "*"
    STRSTARTS STRENDS CONTAINS (?v, "s")     boolean, over the T6 Value
    REGEX (?v | STR(?v), "re" [, "ims"])     boolean, RE2 over the T6 Value
    STR LANG (?v)                            string
    LCASE UCASE (?v)                         string, tag kept; typed
                                             literals and IRIs are errors
    DATATYPE (?v)                            IRI; xsd:string / rdf:langString
                                             for untyped literals, IRIs error
    STRLEN (?v)                              integer (an IRI's length)
    STRLANG (?v, "tag")  STRDT (?v, <dt>)    term, from simple literals only
    CONCAT (?v | STR(?v) | "s", ...)         string
    SUBSTR (?v | STR(?v), start [, len])     string; start ≥ 1
    REPLACE (?v, "re", "rep")                string, global RE2 replace
    STRBEFORE STRAFTER (?v, "sep")           string; "" when sep is absent
    MD5 SHA256 (?v | STR(?v))                string (hashed row by row)
    YEAR MONTH DAY HOURS MINUTES (?v)        integer, over xsd:date(Time)
    SECONDS (?v)                             decimal
    ABS CEIL FLOOR ROUND (numeric)           numeric; fn:round ties to +inf
    COALESCE (?v | ground | number, ...)     the first bound argument
    IF (?v op constant, then, else)          term; then/else are ?v,
                                             ground terms or numbers

The T6 Value of a term is an IRI's string or a literal's lexical form.
Outside the table a constant of the wrong form raises
``SparqlSyntaxError``; a variable or expression where the table asks
for something else raises ``SparqlUnsupportedError``.

``sparql_update`` also accepts the update forms the reference's own
store layer generates (blazegraph_store.go:104,166,190,248,272):
``INSERT DATA`` / ``DELETE DATA { [GRAPH <g> {] ground triples [}] }``
(union + dedup / broadcast anti-join) and ``DELETE WHERE { [GRAPH <g>
{] one pattern [}] }`` (its variables are wildcards).

Bindings are the engine's NTriples-encoded term strings (``<uri>`` /
``"lit"^^<dt>``), exactly what every other store op exchanges.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from . import dataset as dstore
from .. import constants as C
from .. import triples as tr
from ..terms import (
    v_datatype,
    v_is_literal,
    v_is_resource,
    v_language,
    v_new_literal_term,
    v_value,
)

# encoded xsd:integer literal term → named lexical-value group (shared
# by the numeric lanes and SUM/AVG)
_INT_LIT_RE = r'^"(?P<v>[+-]?\d+)"\^\^<' + re.escape(C.XSD_INTEGER) + r">$"
_INT64_MAX = str((1 << 63) - 1)
_INT64_MIN = str(1 << 63)  # the magnitude of int64's minimum


def _int_value(col):
    """xsd:integer literal terms → int64; null where a term is not one,
    or where its value lies outside int64 (so the cast cannot throw).
    The lexical may carry a sign (``"+5"``, ``"-5"``); Arrow's cast
    reads no leading ``+``, so it is trimmed first."""
    lex = pc.struct_field(pc.extract_regex(col, _INT_LIT_RE), "v")
    lex = pc.utf8_ltrim(lex, characters="+")
    # only a batch holding a lexical as long as int64's bound pays the
    # range check: the magnitude's digits, leading zeros dropped, ordered
    # as strings against the bound (equal-length digit strings order as
    # their numbers do)
    if (pc.max(pc.utf8_length(lex)).as_py() or 0) >= len(_INT64_MAX):
        mag = pc.utf8_ltrim(lex, characters="-0")
        n = pc.utf8_length(mag)
        lim = pc.if_else(pc.starts_with(lex, "-"), _INT64_MIN, _INT64_MAX)
        fits = pc.or_(
            pc.less(n, len(_INT64_MAX)),
            pc.and_(pc.equal(n, len(_INT64_MAX)), pc.less_equal(mag, lim)),
        )
        lex = pc.if_else(fits, lex, pa.scalar(None, pa.string()))
    return pc.cast(lex, pa.int64())


# ---------------------------------------------------------------------------
# The decimal lane: exact scale-6 fixed-point arithmetic.
#
# The integer lane above (plain int64 over xsd:integer lexicals) stays
# the fast path and keeps its full int64 range. Division — whose result
# is xsd:decimal per the XPath operator table — and any expression with
# a decimal operand route to this lane instead: every numeric literal
# (xsd:integer / xsd:decimal / xsd:double in PLAIN fixed-point lexical
# form, at most 6 fractional digits) decodes to an int64 holding
# value × 10^6, all four operators evaluate exactly in that fixed-point
# domain (rounding, where an exact result needs more than 6 fractional
# digits, is half-away-from-zero), and the result re-encodes as a
# canonical xsd:decimal term ("-2.5", "3.0" — trailing zeros trimmed,
# one fractional digit minimum). Outside the contract — exponent-form
# doubles, >6 fractional digits, |value| beyond ~9.2e12 — a row decodes
# invalid and the result is NULL: SPARQL's error→unbound, never a wrong
# number. The whole contract is integer-exact, so every result has a
# bit-identical DuckDB twin (HUGEINT arithmetic + string rendering).
# ---------------------------------------------------------------------------
_NUMERIC_DT_RE = (
    r"\^\^<("
    + "|".join(
        re.escape(u)
        for u in (C.XSD_INTEGER, C.XSD_DECIMAL, C.XSD_DOUBLE)
    )
    + r")>$"
)

_DEC_SCALE = 1_000_000  # 10^6: six fractional digits
_MAXI = (1 << 63) - 1
_NUM_LIT_RE = (
    r'^"(?P<s>[+-]?)(?P<w>\d+)(?:\.(?P<f>\d{0,6})0*)?"\^\^<(?P<dt>'
    + "|".join(
        re.escape(u) for u in (C.XSD_INTEGER, C.XSD_DECIMAL, C.XSD_DOUBLE)
    )
    + r")>$"
)
_IS_DEC_TOK = re.compile(r"\d+\.\d+")


def _dec_const(tok: str) -> int:
    """Decimal constant token → unscaled scale-6 int (parse time)."""
    w, f = tok.split(".", 1)
    if len(f) > 6 and set(f[6:]) != {"0"}:
        raise SparqlUnsupportedError(
            "decimal constants are limited to 6 fractional digits "
            "(the engine's scale-6 fixed-point contract)"
        )
    f = (f + "000000")[:6]
    u = int(w) * _DEC_SCALE + int(f)
    if u > _MAXI // 1000:
        raise SparqlUnsupportedError(
            "decimal constant outside the scale-6 fixed-point range"
        )
    return u


def _dec_decode(col):
    """Numeric literal terms → (unscaled int64, valid) numpy arrays.

    ``unscaled`` holds value × 10^6; ``valid`` marks rows inside the
    fixed-point contract (plain-form numeric lexical, ≤6 fractional
    digits, |value| ≤ 2^63/10^6). Invalid rows are SPARQL's
    error→unbound.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    st = pc.extract_regex(col, _NUM_LIT_RE)
    w_str = pc.struct_field(st, "w")
    valid = pc.is_valid(w_str)
    # pre-trim >13-digit whole parts so the int64 cast can't throw —
    # they are out of range (2^63/10^6 has 13 digits) and decode invalid
    short = pc.less_equal(pc.utf8_length(pc.fill_null(w_str, "")), 13)
    valid = pc.and_(valid, short).to_numpy(zero_copy_only=False)
    w = pc.cast(
        pc.if_else(short, pc.fill_null(w_str, "0"), "0"), pa.int64()
    ).to_numpy(zero_copy_only=False)
    f = pc.cast(
        pc.utf8_rpad(
            pc.fill_null(pc.struct_field(st, "f"), ""), width=6, padding="0"
        ),
        pa.int64(),
    ).to_numpy(zero_copy_only=False)
    neg = pc.equal(
        pc.fill_null(pc.struct_field(st, "s"), ""), "-"
    ).to_numpy(zero_copy_only=False)
    valid = valid & (w <= _MAXI // _DEC_SCALE)
    mag = np.where(valid, w, 0) * _DEC_SCALE + np.where(valid, f, 0)
    return np.where(neg, -mag, mag), valid


def _dec_arith(aop: str, a, av, b, bv):
    """One fixed-point operation over unscaled int64 lanes.

    Exact where 6 fractional digits suffice; otherwise rounded
    half-away-from-zero. Overflow-prone partial products are guarded
    per row (→ invalid), never silently wrapped in this lane.
    """
    S = _DEC_SCALE
    valid = av & bv
    if aop == "+":
        return a + b, valid
    if aop == "-":
        return a - b, valid
    sign = np.where((a < 0) != (b < 0), -1, 1)
    A, B = np.abs(a), np.abs(b)
    if aop == "*":
        # (a·b)/S via the split hi = hw·S + hr with the SMALLER
        # magnitude as the multiplier, so lo·hr stays inside int64
        lo, hi = np.minimum(A, B), np.maximum(A, B)
        hw, hr = hi // S, hi % S
        valid = valid & (lo <= _MAXI // S)
        valid = valid & ((hw == 0) | (lo <= _MAXI // np.maximum(hw, 1)))
        lo = np.where(valid, lo, 0)
        t2 = (lo * hr + S // 2) // S
        return sign * (lo * hw + t2), valid
    # '/': long division to scale 6 in two 10^3 digit groups (keeps
    # every partial r·1000 inside int64 for any B ≤ 2^63/1000)
    valid = valid & (B > 0) & (B <= _MAXI // 1000)
    Bs = np.where(valid, B, 1)
    q0, r = A // Bs, A % Bs
    f3 = (r * 1000) // Bs
    r2 = r * 1000 - f3 * Bs
    f6 = (r2 * 1000) // Bs
    r3 = r2 * 1000 - f6 * Bs
    valid = valid & (q0 <= (_MAXI - S) // S)
    q0 = np.where(valid, q0, 0)
    mag = q0 * S + f3 * 1000 + f6 + (r3 >= (Bs + 1) // 2)
    return sign * mag, valid


def _dec_render(vals, valid) -> pa.Array:
    """Unscaled int64 lane → encoded xsd:decimal terms (null=invalid).

    Canonical trimmed lexical: trailing fractional zeros dropped, one
    fractional digit minimum — '"-2.5"^^<xsd:decimal>', '"3.0"^^<…>'.
    """
    import pandas as pd

    mag = np.abs(vals)
    fs = pd.Series(mag % _DEC_SCALE).astype(str).str.zfill(6).str.rstrip("0")
    fs = fs.where(fs != "", "0")
    lex = (
        pd.Series(np.where(vals < 0, "-", ""))
        + pd.Series(mag // _DEC_SCALE).astype(str)
        + "."
        + fs
    )
    out = pa.array('"' + lex + '"^^<' + C.XSD_DECIMAL + ">", pa.string())
    return pc.if_else(pa.array(valid), out, pa.scalar(None, pa.string()))

__all__ = [
    "SparqlSyntaxError",
    "SparqlUnsupportedError",
    "sparql_ask",
    "sparql_construct",
    "sparql_describe",
    "sparql_select",
    "sparql_update",
    "explain",
    "parse",
]


class SparqlSyntaxError(ValueError):
    """The query text does not parse under the supported subset."""


class SparqlUnsupportedError(ValueError):
    """Parsed, but uses a feature outside the supported subset."""


_TOKEN = re.compile(
    r"""\s*(?:
        (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
      | (?P<uri><[^<>\s]*>)
      | (?P<lit>"(?:[^"\\]|\\.)*"(?:@[A-Za-z-]+|\^\^(?:<[^<>\s]*>|[A-Za-z_][\w-]*:[\w-]+))?)
      | (?P<bool>\|\||&&)
      | (?P<neg>!(?!=))
      | (?P<dec>\d+\.\d+)
      | (?P<punct>[{}.(),/|^+?;-])
      | (?P<op><=|>=|!=|=|<|>)
      | (?P<num>\d+)
      | (?P<word>[A-Za-z_][\w-]*(?::[\w-]*)?|\*)
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise SparqlSyntaxError(f"cannot tokenize at: {text[pos:pos+30]!r}")
        out.append(m.group().strip())
        pos = m.end()
    return out


def _expand(tok: str, prefixes: dict[str, str], slot: str) -> str:
    """One pattern term → engine-encoded term string or '?var'."""
    if tok.startswith("?") and tok != "?":
        return tok
    if tok == "a":
        if slot != "predicate":
            raise SparqlSyntaxError("'a' is only valid in the predicate slot")
        return f"<{C.RDF_TYPE}>"
    if tok.startswith("<"):
        return tok
    if tok.startswith('"'):
        # literal, optionally with @lang or ^^datatype (prefixed or full)
        m = re.match(r'^("(?:[^"\\]|\\.)*")(?:\^\^([A-Za-z_][\w-]*):([\w-]+))?$', tok)
        if m and m.group(2) is not None:
            if m.group(2) not in prefixes:
                raise SparqlSyntaxError(f"unknown prefix {m.group(2)!r}")
            return f"{m.group(1)}^^<{prefixes[m.group(2)]}{m.group(3)}>"
        return tok
    m = re.match(r"^([A-Za-z_][\w-]*):([\w-]+)$", tok)
    if m:
        if m.group(1) not in prefixes:
            raise SparqlSyntaxError(f"unknown prefix {m.group(1)!r}")
        return f"<{prefixes[m.group(1)]}{m.group(2)}>"
    raise SparqlSyntaxError(f"unexpected term {tok!r}")


class _Cursor:
    """The token cursor every SPARQL form's parser reads through."""

    def __init__(self, text: str, what: str = "query"):
        self.toks, self.i, self.what = _tokenize(text), 0, what

    def peek(self, k: int = 0) -> str:
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else ""

    def take(self) -> str:
        if self.i >= len(self.toks):
            raise SparqlSyntaxError(f"unexpected end of {self.what}")
        self.i += 1
        return self.toks[self.i - 1]

    def rest(self) -> list[str]:
        return self.toks[self.i:]

    def done(self) -> None:
        if self.rest():
            raise SparqlSyntaxError(
                f"trailing tokens after the {self.what}: {self.rest()}"
            )


def _prologue(cur: _Cursor) -> dict[str, str]:
    """``PREFIX pfx: <uri>`` … → {pfx: uri}; the tokenizer may deliver
    ``pfx:`` fused or split, and both are accepted."""
    prefixes: dict[str, str] = {}
    while cur.peek().upper() == "PREFIX":
        cur.take()
        name = cur.take().rstrip(":")
        uri = cur.take()
        if not uri.startswith("<"):
            raise SparqlSyntaxError(f"PREFIX needs <uri>, got {uri!r}")
        prefixes[name] = uri[1:-1]
    return prefixes


def _triples(cur: _Cursor, prefixes: dict, what: str) -> list[tuple[str, str, str]]:
    """``{ s p o . … }`` → expanded patterns, ``?vars`` kept (the caller
    decides whether variables are allowed)."""
    if cur.take() != "{":
        raise SparqlSyntaxError(f"expected {{ opening the {what}")
    out = []
    while cur.peek() not in ("}", ""):
        out.append(
            tuple(
                _expand(cur.take(), prefixes, slot)
                for slot in ("subject", "predicate", "object")
            )
        )
        if cur.peek() == ".":
            cur.take()
        elif cur.peek() != "}":
            raise SparqlSyntaxError("expected '.' or '}' after a triple")
    if cur.take() != "}":
        raise SparqlSyntaxError(f"expected }} closing the {what}")
    return out


def _in_graph(cur: _Cursor, body, what: str):
    """``[GRAPH <g> {] body [}]`` → (g | None, body())."""
    if cur.peek() != "{" or cur.peek(1).upper() != "GRAPH":
        return None, body()
    cur.take(), cur.take()
    g = cur.take()
    if not g.startswith("<"):
        raise SparqlSyntaxError(f"GRAPH needs <uri>, got {g!r}")
    out = body()
    if cur.take() != "}":
        raise SparqlSyntaxError(f"expected }} closing the {what}")
    return g[1:-1], out


def _instantiate(batch: pa.Table, templates) -> pa.Table:
    """Template × bindings → triples, for CONSTRUCT and DELETE/INSERT
    … WHERE alike: a template triple with a variable unbound in a row
    yields nothing for that row (SPARQL 1.1 §16.2; Update §3.1.3)."""
    n = batch.num_rows
    outs = []
    for pat in templates:
        cols, mask = [], None
        for term in pat:
            if term.startswith("?"):
                col = batch[term[1:]].combine_chunks().cast(pa.string())
                m = pc.is_valid(col)
                mask = m if mask is None else pc.and_(mask, m)
            else:
                col = pa.nulls(n, pa.string()).fill_null(term)
            cols.append(col)
        t = pa.table(dict(zip(tr.COLUMNS, cols)))
        outs.append(t if mask is None else t.filter(mask))
    return pa.concat_tables(outs)


def _ground_table(pats) -> pa.Table:
    """Ground triples → a (subject, predicate, object) string table."""
    return pa.table(
        {c: pa.array([t[j] for t in pats], pa.string()) for j, c in enumerate(tr.COLUMNS)}
    )


# ---------------------------------------------------------------------------
# The expression language (SPARQL 1.1 §17). FILTER — in the main group,
# OPTIONAL groups, MINUS/EXISTS groups and negated property sets — BIND
# and IF parse to ONE tree (_Expr), are typed against ONE signature
# table (_SIGNATURES) and run through ONE vectorized evaluator (_eval).
#
# _eval returns one of four column kinds per node, null meaning
# "error / unbound" throughout (§17.2):
#   bool  a boolean mask; && and || are Arrow's Kleene kernels, which are
#         §17.2's logical-or/logical-and error rules exactly
#   num   a _Num on the two numeric lanes
#   str   a _Str: a string literal, compared by its lexical form
#   term  an encoded RDF term column, compared by term identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Expr:
    """One expression node. ``op`` is ``var`` (args: the name), ``term``
    (an encoded ground term), ``int`` / ``dec`` (a number: its value —
    unscaled at scale 6 for ``dec`` — and its lexical form) or a key of
    :data:`_SIGNATURES` (an operator or builtin, args: sub-expressions)."""

    op: str
    args: tuple = ()


_CONSTS = ("term", "int", "dec")
_CMP = ("=", "!=", "<", ">", "<=", ">=")
_TESTS = ("BOUND", "ISIRI", "ISURI", "ISLITERAL", "ISNUMERIC")
_PLAIN_STR = re.compile(r'"(?:[^"\\]|\\.)*"')
_RDF_LANGSTRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
_NULL_STR = pa.scalar(None, pa.string())
_NULL_BOOL = pa.scalar(None, pa.bool_())


class _Num(NamedTuple):
    """A numeric column on two lanes: ``i`` holds the xsd:integer values
    (int64, null elsewhere); where ``i`` is null, ``d`` holds the scale-6
    decimal lane (unscaled int64 numpy) and ``dv`` marks its valid rows.
    ``d``/``dv`` are None when no row needs the decimal lane."""

    i: pa.Array
    d: object = None
    dv: object = None


class _Str(NamedTuple):
    """A string-literal column: lexical forms (null = error) and, for
    LCASE/UCASE, the language tags they keep ("" = none)."""

    lex: pa.Array
    tag: pa.Array | None = None


def _kind(e: _Expr) -> str:
    """Static result kind of a node: ``bool``, ``num``, ``str``, ``term``
    or ``any`` — a term that numeric contexts decode (a variable or
    COALESCE)."""
    if e.op == "var":
        return "any"
    if e.op == "term":
        return "term"
    if e.op in ("int", "dec"):
        return "num"
    return _SIGNATURES[e.op][1]


def _lex(e: _Expr) -> str:
    """The lexical form of a plain ``"string"`` constant."""
    return e.args[0][1:-1]


def _is_str(e: _Expr) -> bool:
    return e.op == "term" and _PLAIN_STR.fullmatch(e.args[0]) is not None


# argument kind → (what it is, test)
_ARG_KINDS = {
    "var": ("a ?variable", lambda e: e.op == "var"),
    "str": ('a plain "string"', _is_str),
    "sep": ('a non-empty plain "string"', lambda e: _is_str(e) and len(e.args[0]) > 2),
    "flags": ('a "string" of REGEX flags', _is_str),
    "iri": ("an IRI", lambda e: e.op == "term" and e.args[0].startswith("<")),
    "ground": ("a ground term", lambda e: e.op == "term"),
    "value": ("a ?variable, ground term or number", lambda e: e.op in ("var", *_CONSTS)),
    "text": ("?v or STR(?v)", lambda e: e.op in ("var", "STR")),
    "part": ('?v, STR(?v) or a plain "string"', lambda e: e.op in ("var", "STR") or _is_str(e)),
    "lang": ("LANG(?v)", lambda e: e.op == "LANG"),
    "pos": ("a positive integer", lambda e: e.op == "int" and e.args[0] > 0),
    "nat": ("a non-negative integer", lambda e: e.op == "int" and e.args[0] >= 0),
    "num": ("a numeric expression", lambda e: _kind(e) in ("num", "any")),
    "bool": ("a boolean expression", lambda e: _kind(e) == "bool"),
    "term_or_num": ("a term or number", lambda e: _kind(e) != "bool"),
    "test": ("BOUND/isIRI/isURI/isLiteral/isNumeric", lambda e: e.op in _TESTS),
    "cond": (
        "?v compared with a constant",
        lambda e: e.op in _CMP and e.args[0].op == "var" and e.args[1].op in _CONSTS,
    ),
}


def _want(e: _Expr, kind: str, where: str) -> None:
    """Refuse ``e`` where ``kind`` is required: a constant of the wrong
    form is a syntax error, anything else an unsupported composition."""
    what, ok = _ARG_KINDS[kind]
    if not ok(e):
        cls = SparqlSyntaxError if e.op in _CONSTS else SparqlUnsupportedError
        got = e.args[-1] if e.op in _CONSTS else ("?" + e.args[0] if e.op == "var" else e.op)
        raise cls(f"{where} needs {what}, got {got}")
    if kind == "flags" and set(_lex(e)) - set("ims"):
        raise SparqlUnsupportedError(f"REGEX flags {_lex(e)!r} not supported (i, m, s only)")


def _check(e: _Expr) -> _Expr:
    """Type one tree against :data:`_SIGNATURES`: arity and the kind of
    every argument. Every refusal of the expression language is raised
    here, from the table."""
    if e.op in ("var", *_CONSTS):
        return e
    if e.op not in _SIGNATURES:
        raise SparqlUnsupportedError(f"unsupported function {e.op}")
    spec = _SIGNATURES[e.op][0]
    *head, last = spec
    rep = last[-1] if last[-1] in "?*+" else ""
    lo = len(head) + (rep in ("", "+"))
    hi = len(head) + 1 if rep in ("", "?") else len(e.args)
    if not lo <= len(e.args) <= hi:
        raise SparqlSyntaxError(f"{e.op} takes {lo}..{hi} arguments, got {len(e.args)}")
    for a in e.args:
        _check(a)
    if spec == ("eq", "eq"):
        # = and != compare two terms by identity, a string builtin with a
        # plain "string" by lexical form, or two numbers by value
        a, b = e.args
        for x in e.args:
            _want(x, "term_or_num", e.op)
        kinds = (_kind(a), _kind(b))
        if "str" in kinds:
            _want(b if kinds[0] == "str" else a, "str", e.op)
        elif "num" in kinds:
            _want(a, "num", e.op)
            _want(b, "num", e.op)
        return e
    for a, k in zip(e.args, head + [last.rstrip("?*+")] * len(e.args)):
        _want(a, k, e.op)
    return e


def _vars(e: _Expr) -> list[str]:
    """The variables an expression reads."""
    if e.op == "var":
        return [e.args[0]]
    return [v for a in e.args if isinstance(a, _Expr) for v in _vars(a)]


class _ExprParser:
    """Recursive descent over a token cursor with the §17 precedence:
    ``||`` < ``&&`` < relational < additive < multiplicative < unary <
    primary."""

    def __init__(self, cur: _Cursor, prefixes: dict):
        self.cur, self.prefixes = cur, prefixes

    def _binary(self, sub, ops) -> _Expr:
        e = sub()
        while self.cur.peek() in ops:
            e = _Expr(self.cur.take(), (e, sub()))
        return e

    def or_(self) -> _Expr:
        return self._binary(self.and_, ("||",))

    def and_(self) -> _Expr:
        return self._binary(self.rel, ("&&",))

    def rel(self) -> _Expr:
        e = self.add()
        t = self.cur.peek()
        if t in _CMP:
            return _Expr(self.cur.take(), (e, self.add()))
        neg = t.upper() == "NOT" and self.cur.peek(1).upper() == "IN"
        if t.upper() == "IN" or neg:
            self.cur.take()
            if neg:
                self.cur.take()
            return _Expr("not in" if neg else "in", (e, *self.args()))
        return e

    def add(self) -> _Expr:
        return self._binary(self.mul, ("+", "-"))

    def mul(self) -> _Expr:
        return self._binary(self.unary, ("*", "/"))

    def unary(self) -> _Expr:
        t = self.cur.peek()
        if t == "!":
            self.cur.take()
            return _Expr("!", (self.unary(),))
        if t == "-":
            self.cur.take()
            x = self.unary()
            if x.op in ("int", "dec"):  # a negative number constant
                lex = x.args[1]
                return _Expr(x.op, (-x.args[0], lex[1:] if lex[0] == "-" else "-" + lex))
            return _Expr("neg", (x,))
        return self.primary()

    def primary(self) -> _Expr:
        t = self.cur.take()
        if t == "(":
            e = self.or_()
            if self.cur.take() != ")":
                raise SparqlSyntaxError("expected ) closing a parenthesized expression")
            return e
        if t.startswith("?"):
            return _Expr("var", (t[1:],))
        if t.isdecimal():
            return _Expr("int", (int(t), t))
        if _IS_DEC_TOK.fullmatch(t):
            return _Expr("dec", (_dec_const(t), t))
        if self.cur.peek() == "(" and re.fullmatch(r"[A-Za-z]\w*", t):
            return _Expr(t.upper(), tuple(self.args()))
        return _Expr("term", (_expand(t, self.prefixes, "object"),))

    def args(self) -> list[_Expr]:
        """``( [expr (, expr)*] )``"""
        if self.cur.take() != "(":
            raise SparqlSyntaxError("expected ( opening an argument list")
        out: list[_Expr] = []
        if self.cur.peek() == ")":
            self.cur.take()
            return out
        while True:
            out.append(self.or_())
            t = self.cur.take()
            if t == ")":
                return out
            if t != ",":
                raise SparqlSyntaxError(f"expected , or ) in an argument list, got {t!r}")


def _filter_expr(cur: _Cursor, prefixes: dict) -> _Expr:
    """FILTER's constraint: a bracketed boolean expression, or the bare
    ``regex(?v, "re")`` form, which matches the ENCODED term string."""
    p = _ExprParser(cur, prefixes)
    head = cur.peek()
    if head == "(":
        e = p.primary()
    elif head.lower() == "regex":
        cur.take()
        e = _Expr("regex term", tuple(p.args()))
    else:
        raise SparqlSyntaxError(f"expected ( or regex after FILTER, got {head!r}")
    return e


# --- the evaluator ----------------------------------------------------------


def _col(batch: pa.Table, name: str) -> pa.Array:
    """A binding column as one plain string array. A variable with no
    column is unbound on every row: a MINUS group's FILTER reading an
    outer variable (§8.3.3)."""
    if name not in batch.column_names:
        return pa.nulls(batch.num_rows, pa.string())
    c = batch[name]
    c = c.chunk(0) if c.num_chunks == 1 else c.combine_chunks()
    return c if c.type == pa.string() else c.cast(pa.string())


def _decoded(batch: pa.Table, e: _Expr) -> pa.Table:
    """``batch`` with each column ``e`` reads made one plain string array,
    so a variable read k times is decoded once."""
    for name in set(_vars(e)) & set(batch.column_names):
        batch = batch.set_column(batch.column_names.index(name), name, _col(batch, name))
    return batch


def _const(n: int, term: str) -> pa.Array:
    return pa.nulls(n, pa.string()).fill_null(term)


def _if_bound(col: pa.Array, values):
    """``values`` where ``col`` is bound, null (error) elsewhere."""
    return pc.if_else(pc.is_valid(col), values, pa.scalar(None, values.type))


def _eval(batch: pa.Table, e: _Expr):
    """Evaluate one expression over a bindings batch: one Arrow or numpy
    kernel per node (MD5/SHA256 hash row by row)."""
    if e.op == "var":
        return _col(batch, e.args[0])
    if e.op == "term":
        return _const(batch.num_rows, e.args[0])
    n = batch.num_rows
    if e.op == "int":
        return _Num(pa.array(np.full(n, e.args[0], np.int64)))
    if e.op == "dec":
        return _Num(
            pa.nulls(n, pa.int64()), np.full(n, e.args[0], np.int64), np.ones(n, bool)
        )
    return _SIGNATURES[e.op][2](batch, *e.args)


def _term(batch: pa.Table, e: _Expr) -> pa.Array:
    """A node's value as an encoded term column — what BIND binds."""
    if e.op in ("int", "dec"):  # a number constant keeps its lexical form
        dt = C.XSD_INTEGER if e.op == "int" else C.XSD_DECIMAL
        return _const(batch.num_rows, f'"{e.args[1]}"^^<{dt}>')
    v = _eval(batch, e)
    if isinstance(v, _Num):
        out = pc.binary_join_element_wise(
            '"', pc.cast(v.i, pa.string()), f'"^^<{C.XSD_INTEGER}>', ""
        )
        return out if v.d is None else pc.coalesce(out, _dec_render(v.d, v.dv))
    if isinstance(v, _Str):
        return v_new_literal_term(v.lex, v.tag)
    return v


def _text(batch: pa.Table, e: _Expr) -> pa.Array:
    """A node's string value: a _Str's lexical form, or a term's T6
    Value (an IRI's IRI string, a literal's lexical form)."""
    v = _eval(batch, e)
    return v.lex if isinstance(v, _Str) else _if_bound(v, v_value(v))


def _num(batch: pa.Table, e: _Expr) -> _Num:
    return _as_num(_eval(batch, e))


def _as_num(v) -> _Num:
    """A value on the numeric lanes; a term column decodes its
    xsd:integer rows to the integer lane and only the REST on the
    decimal lane."""
    if isinstance(v, _Num):
        return v
    i = _int_value(v)
    if not i.null_count:
        return _Num(i)
    return _Num(i, *_dec_decode(pc.if_else(pc.is_null(i), v, _NULL_STR)))


def _dec_lane(x: _Num):
    """Both lanes of ``x`` as one (unscaled, valid) decimal lane."""
    ii = pc.fill_null(x.i, 0).to_numpy(zero_copy_only=False)
    iv = pc.is_valid(x.i).to_numpy(zero_copy_only=False)
    lim = _MAXI // _DEC_SCALE
    ok = iv & (ii >= -lim) & (ii <= lim)
    d = np.where(ok, ii, 0) * _DEC_SCALE
    if x.d is None:
        return d, ok
    return np.where(iv, d, x.d), np.where(iv, ok, x.dv)


_ARROW_ARITH = {"+": pc.add, "-": pc.subtract, "*": pc.multiply}
_ARROW_CMP = {
    "=": pc.equal, "!=": pc.not_equal, "<": pc.less, ">": pc.greater,
    "<=": pc.less_equal, ">=": pc.greater_equal,
}
_NP_CMP = {
    "=": np.equal, "!=": np.not_equal, "<": np.less, ">": np.greater,
    "<=": np.less_equal, ">=": np.greater_equal,
}


def _arith(op: str):
    """+ - * / over both lanes: integer rows of + - * stay xsd:integer;
    '/' and rows with a decimal operand evaluate on the decimal lane."""

    def k(batch, x, y):
        a, b = _num(batch, x), _num(batch, y)
        if op == "/":
            i = pa.nulls(batch.num_rows, pa.int64())
        else:
            i = _ARROW_ARITH[op](a.i, b.i)
        if not i.null_count:
            return _Num(i)
        return _Num(i, *_dec_arith(op, *_dec_lane(a), *_dec_lane(b)))

    return k


def _compare(op: str):
    def k(batch, x, y):
        kinds = (_kind(x), _kind(y))
        if "str" in kinds:
            return _ARROW_CMP[op](_text(batch, x), _text(batch, y))
        if op in ("=", "!=") and "num" not in kinds:
            # a ground term side compares as one scalar; two ground sides
            # stay arrays, so the mask keeps a row per binding
            both = x.op == y.op == "term"
            tx, ty = [
                pa.scalar(e.args[0], pa.string()) if e.op == "term" and not both
                else _term(batch, e)
                for e in (x, y)
            ]
            return _ARROW_CMP[op](tx, ty)
        vx, vy = _eval(batch, x), _eval(batch, y)
        a, b = _as_num(vx), _as_num(vy)
        m = _ARROW_CMP[op](a.i, b.i)
        if not m.null_count:
            return m
        (ad, av), (bd, bv) = _dec_lane(a), _dec_lane(b)
        dm = pc.if_else(pa.array(av & bv), pa.array(_NP_CMP[op](ad, bd)), _NULL_BOOL)
        m = pc.coalesce(m, dm)
        if op in ("=", "!="):
            # §17.3: a number against an IRI or blank node is RDFterm-equal,
            # false (against another literal it stays a type error)
            for v in (vx, vy):
                if not isinstance(v, _Num):
                    m = pc.if_else(v_is_resource(v), op == "!=", m)
        return m

    return k


def _negate(batch, x):
    a = _num(batch, x)
    return _Num(pc.negate(a.i), None if a.d is None else -a.d, a.dv)


def _membership(negated: bool):
    def k(batch, x, *items):
        col = _eval(batch, x)
        if not items:  # IN () is false, NOT IN () true, for every row
            return pa.array(np.full(len(col), negated))
        m = pc.is_in(col, value_set=pa.array([t.args[0] for t in items], pa.string()))
        return _if_bound(col, pc.invert(m) if negated else m)

    return k


def _round_fn(name: str):
    """ABS/CEIL/FLOOR/ROUND: integer rows stay xsd:integer (the rounding
    functions are identities on them); decimal rows round exactly at
    scale 6 — fn:round ties toward +inf, floor/ceiling toward ∓inf."""
    S = _DEC_SCALE
    dec = {
        "ABS": np.abs,
        "FLOOR": lambda d: (d // S) * S,
        "CEIL": lambda d: -((-d) // S) * S,
        "ROUND": lambda d: ((d + S // 2) // S) * S,
    }[name]

    def k(batch, x):
        a = _num(batch, x)
        i = pc.abs(a.i) if name == "ABS" else a.i
        return _Num(i) if a.d is None else _Num(i, dec(a.d), a.dv)

    return k


_DATE_RE = (
    r'^"(?P<YEAR>\d{4})-(?P<MONTH>\d{2})-(?P<DAY>\d{2})(?:T[^"]*)?"\^\^<(?:'
    + re.escape(C.XSD_DATE) + "|" + re.escape(C.XSD_DATETIME) + r")>$"
)
_TIME_RE = (
    r'^"\d{4}-\d{2}-\d{2}T(?P<HOURS>\d{2}):(?P<MINUTES>\d{2}):'
    r'(?P<SECONDS>\d{2}(?:\.\d+)?)[^"]*"\^\^<' + re.escape(C.XSD_DATETIME) + r">$"
)


def _date_fn(name: str):
    """YEAR … SECONDS (§17.4.5) over xsd:date / xsd:dateTime literals:
    xsd:integer components, SECONDS xsd:decimal on the scale-6 lane; the
    time components need the T… part."""
    pat = _DATE_RE if name in ("YEAR", "MONTH", "DAY") else _TIME_RE

    def k(batch, x):
        part = pc.struct_field(pc.extract_regex(_eval(batch, x), pat), name)
        if name != "SECONDS":
            return _Num(pc.cast(part, pa.int64()))
        dec = pc.binary_join_element_wise('"', part, f'"^^<{C.XSD_DECIMAL}>', "")
        return _Num(pa.nulls(batch.num_rows, pa.int64()), *_dec_decode(dec))

    return k


def _hash(name: str):
    """MD5/SHA256 hex digest (§17.4.4) of a literal's lexical form — or,
    under STR(), of an IRI's string — as a simple literal."""
    fn = getattr(hashlib, name.lower())

    def k(batch, x):
        v = _eval(batch, x)
        lex = v.lex if isinstance(v, _Str) else pc.if_else(v_is_literal(v), v_value(v), _NULL_STR)
        return _Str(
            pa.array(
                [None if s is None else fn(s.encode()).hexdigest() for s in lex.to_pylist()],
                pa.string(),
            )
        )

    return k


def _case_fn(fold):
    """LCASE/UCASE (§17.4.3) over simple and language-tagged literals,
    keeping the tag; other terms are errors."""

    def k(batch, x):
        col = _eval(batch, x)
        ok = pc.and_(v_is_literal(col), pc.equal(v_datatype(col), ""))
        return _Str(pc.if_else(ok, fold(v_value(col)), _NULL_STR), v_language(col))

    return k


def _datatype(batch, x):
    """DATATYPE (§17.4.2.7): a literal's datatype IRI — xsd:string for a
    simple literal, rdf:langString for a tagged one; IRIs are errors."""
    col = _eval(batch, x)
    dt = v_datatype(col)
    dt = pc.if_else(
        pc.not_equal(dt, ""),
        dt,
        pc.if_else(pc.equal(v_language(col), ""), C.XSD_STRING, _RDF_LANGSTRING),
    )
    iri = pc.binary_join_element_wise("<", dt, ">", "")
    return pc.if_else(v_is_literal(col), iri, _NULL_STR)


def _lang(batch, x):
    """LANG (§17.4.2.6): a literal's language tag, "" when it has none;
    IRIs, blank nodes and unbound are errors."""
    col = _eval(batch, x)
    return _Str(pc.if_else(v_is_literal(col), v_language(col), _NULL_STR))


def _new_literal(suffix_of):
    """STRLANG/STRDT: a tagged / typed literal from a SIMPLE literal."""

    def k(batch, x, y):
        col = _eval(batch, x)
        simple = pc.and_(
            pc.and_(v_is_literal(col), pc.equal(v_language(col), "")),
            pc.equal(v_datatype(col), ""),
        )
        return pc.if_else(
            simple, pc.binary_join_element_wise(col, suffix_of(y), ""), _NULL_STR
        )

    return k


def _strbefore_after(before: bool):
    """STRBEFORE/STRAFTER: "" when the separator is absent; one anchored
    leftmost-match replace per batch."""

    def k(batch, x, sep):
        val, s = _text(batch, x), _lex(sep)
        pat = f"(?s){re.escape(s)}.*$" if before else f"(?s)^.*?{re.escape(s)}"
        cut = pc.replace_substring_regex(val, pattern=pat, replacement="", max_replacements=1)
        return _Str(pc.if_else(pc.match_substring(val, s), cut, pa.scalar("")))

    return k


def _substr(batch, x, start, length=None):
    s0 = start.args[0] - 1
    lex = _text(batch, x)
    if length is None:
        return _Str(pc.utf8_slice_codeunits(lex, s0))
    return _Str(pc.utf8_slice_codeunits(lex, s0, s0 + length.args[0]))


def _regex(batch, x, pat, flags=None):
    p = _lex(pat) if flags is None or not _lex(flags) else f"(?{_lex(flags)})" + _lex(pat)
    return pc.match_substring_regex(_text(batch, x), p)


def _langmatches(batch, lang, rng):
    """RFC 4647 basic filtering: the tag or a subtag, case-insensitive;
    "*" matches any non-empty tag."""
    tag, r = pc.utf8_lower(_eval(batch, lang).lex), _lex(rng).lower()
    if r == "*":
        return pc.not_equal(tag, "")
    return pc.or_(pc.equal(tag, r), pc.starts_with(tag, r + "-"))


def _kind_test(kernel):
    """A term kernel (which reads unbound as False) made an error on
    unbound rows."""

    def k(batch, x):
        col = _eval(batch, x)
        return _if_bound(col, kernel(col))

    return k


# The one signature table: name → (argument kinds, result kind, kernel).
# Argument kinds are the keys of _ARG_KINDS (``eq``: the = / != rule in
# _check); a trailing ``?`` marks an optional last argument, ``*`` / ``+``
# a repeated one. Upper-case identifiers are the callable builtins; the
# other keys are operators. Kernels take the batch and the argument nodes.
_SIGNATURES = {
    "||": (("bool", "bool"), "bool", lambda b, x, y: pc.or_kleene(_eval(b, x), _eval(b, y))),
    "&&": (("bool", "bool"), "bool", lambda b, x, y: pc.and_kleene(_eval(b, x), _eval(b, y))),
    "!": (("test",), "bool", lambda b, x: pc.invert(_eval(b, x))),
    **{op: (("eq", "eq"), "bool", _compare(op)) for op in ("=", "!=")},
    **{op: (("num", "num"), "bool", _compare(op)) for op in ("<", ">", "<=", ">=")},
    **{op: (("num", "num"), "num", _arith(op)) for op in "+-*/"},
    "neg": (("num",), "num", _negate),
    "in": (("var", "ground*"), "bool", _membership(False)),
    "not in": (("var", "ground*"), "bool", _membership(True)),
    # FILTER's bare regex(?v, "re") form: RE2 over the encoded term
    "regex term": (
        ("var", "str"), "bool", lambda b, x, p: pc.match_substring_regex(_eval(b, x), _lex(p))
    ),
    "BOUND": (("var",), "bool", lambda b, x: pc.is_valid(_eval(b, x))),
    "ISIRI": (("var",), "bool", _kind_test(v_is_resource)),
    "ISURI": (("var",), "bool", _kind_test(v_is_resource)),
    "ISLITERAL": (("var",), "bool", _kind_test(v_is_literal)),
    "ISNUMERIC": (
        ("var",), "bool", lambda b, x: pc.match_substring_regex(_eval(b, x), _NUMERIC_DT_RE)
    ),
    "LANGMATCHES": (("lang", "sep"), "bool", _langmatches),
    "STRSTARTS": (("var", "str"), "bool", lambda b, x, s: pc.starts_with(_text(b, x), _lex(s))),
    "STRENDS": (("var", "str"), "bool", lambda b, x, s: pc.ends_with(_text(b, x), _lex(s))),
    "CONTAINS": (("var", "str"), "bool", lambda b, x, s: pc.match_substring(_text(b, x), _lex(s))),
    "REGEX": (("text", "str", "flags?"), "bool", _regex),
    "STR": (("var",), "str", lambda b, x: _Str(_text(b, x))),
    "LANG": (("var",), "str", _lang),
    "DATATYPE": (("var",), "term", _datatype),
    "LCASE": (("var",), "str", _case_fn(pc.utf8_lower)),
    "UCASE": (("var",), "str", _case_fn(pc.utf8_upper)),
    "STRLEN": (
        ("var",), "num", lambda b, x: _Num(pc.cast(pc.utf8_length(_text(b, x)), pa.int64()))
    ),
    "STRLANG": (("var", "str"), "term", _new_literal(lambda y: "@" + _lex(y))),
    "STRDT": (("var", "iri"), "term", _new_literal(lambda y: "^^" + y.args[0])),
    "CONCAT": (
        ("part+",), "str",
        lambda b, *xs: _Str(pc.binary_join_element_wise(*[_text(b, x) for x in xs], "")),
    ),
    "SUBSTR": (("text", "pos", "nat?"), "str", _substr),
    "REPLACE": (
        ("var", "str", "str"), "str",
        lambda b, x, p, r: _Str(
            pc.replace_substring_regex(_text(b, x), pattern=_lex(p), replacement=_lex(r))
        ),
    ),
    "STRBEFORE": (("var", "sep"), "str", _strbefore_after(True)),
    "STRAFTER": (("var", "sep"), "str", _strbefore_after(False)),
    "MD5": (("text",), "str", _hash("MD5")),
    "SHA256": (("text",), "str", _hash("SHA256")),
    **{
        f: (("var",), "num", _date_fn(f))
        for f in ("YEAR", "MONTH", "DAY", "HOURS", "MINUTES", "SECONDS")
    },
    **{f: (("num",), "num", _round_fn(f)) for f in ("ABS", "CEIL", "FLOOR", "ROUND")},
    "COALESCE": (("value+",), "any", lambda b, *xs: pc.coalesce(*[_term(b, x) for x in xs])),
    "IF": (
        ("cond", "value", "value"), "term",
        lambda b, c, x, y: pc.if_else(_eval(b, c), _term(b, x), _term(b, y)),
    ),
}


def _filter_batch(batch: pa.Table, cond: _Expr) -> pa.Table:
    return batch.filter(pc.fill_null(_eval(_decoded(batch, cond), cond), False))


def _apply_filters_ds(ds, filters):
    """Apply FILTER conditions to a bindings Dataset: their conjunction,
    an error or unbound result dropping the row."""
    cond = functools.reduce(lambda a, b: _Expr("&&", (a, b)), filters)
    return ds.map_batches(_filter_batch, fn_kwargs={"cond": cond}, batch_format="pyarrow")


def _bind_batch(batch: pa.Table, binds) -> pa.Table:
    """BIND: append each alias column, in order, so aliases chain."""
    for e, alias in binds:
        batch = batch.append_column(alias, _term(_decoded(batch, e), e))
    return batch


# ---------------------------------------------------------------------------
# Property paths (module doc). ``edges(store, s, o)`` → Dataset(src, dst)
# may prune with the ground endpoints ``s`` / ``o`` ("" when free); the
# pattern's endpoint step (_pattern_bindings) filters on them exactly.
# ``str(node)`` is the path's SPARQL text, ``plan(s, o)`` its lowering.
# ---------------------------------------------------------------------------


def _as_pair(a: str, b: str, names=("src", "dst")):
    """A batch map keeping columns ``a``, ``b`` as the pair ``names``."""

    def f(batch: pa.Table) -> pa.Table:
        return pa.table({names[0]: batch[a], names[1]: batch[b]})

    return f


def _ground(term: str) -> str:
    """A pattern term as a scan argument: "" for a variable."""
    return "" if term.startswith("?") else term


def _scan_plan(s: str, p: str, o: str) -> str:
    slots = zip(("subject", "predicate", "object"), (s, p, o))
    return "matches(" + ", ".join(f"{c}={t}" for c, t in slots if t and t[0] != "?") + ") scan"


def _operand(p, bare=()) -> str:
    """A path as the operand of a modifier or of ``^`` (which passes
    ``bare=(Mod,)``: ``^p+`` is ``^(p+)``)."""
    return str(p) if isinstance(p, (Link, NegSet, *bare)) else f"({p})"


@dataclass(frozen=True)
class Link:
    """An IRI: its predicate-pruned scan."""

    iri: str

    def __str__(self):
        return self.iri

    def edges(self, store, s="", o=""):
        return store.matches(s, self.iri, o).map_batches(
            _as_pair(tr.SUBJECT, tr.OBJECT), batch_format="pyarrow"
        )

    def plan(self, s="", o=""):
        return _scan_plan(s, self.iri, o)


@dataclass(frozen=True)
class Inv:
    """``^p``: the inner path's pairs, swapped."""

    p: object

    def __str__(self):
        return "^" + _operand(self.p, (Mod,))

    def edges(self, store, s="", o=""):
        return self.p.edges(store, o, s).map_batches(_as_pair("dst", "src"), batch_format="pyarrow")

    def plan(self, s="", o=""):
        return self.p.plan(o, s) + ", swapped"


@dataclass(frozen=True)
class Alt:
    """``p1 | p2 | …``: the bag union of the alternatives' pairs."""

    ps: tuple

    def __str__(self):
        return "|".join(map(str, self.ps))

    def edges(self, store, s="", o=""):
        return functools.reduce(lambda a, b: a.union(b), [p.edges(store, s, o) for p in self.ps])

    def plan(self, s="", o=""):
        return "Dataset.union of [" + "; ".join(p.plan(s, o) for p in self.ps) + "]"


@dataclass(frozen=True)
class Seq:
    """``p1 / p2 / …``: the steps' pairs composed by inner hash joins on
    the middle node; the first step sees ``s``, the last ``o``."""

    ps: tuple

    def __str__(self):
        return "/".join(f"({p})" if isinstance(p, Alt) else str(p) for p in self.ps)

    def ends(self, s, o):
        n = len(self.ps)
        return [(s if k == 0 else "", o if k == n - 1 else "") for k in range(n)]

    def edges(self, store, s="", o=""):
        steps = [p.edges(store, a, b) for p, (a, b) in zip(self.ps, self.ends(s, o))]
        out = steps[0]
        for step in steps[1:]:
            out = dstore.hash_join(
                out.map_batches(_as_pair("src", "dst", ("src", "__m")), batch_format="pyarrow"),
                step.map_batches(_as_pair("src", "dst", ("__m", "dst")), batch_format="pyarrow"),
                on=["__m"], how="inner",
                schemas=(_vars_schema(["src", "__m"]), _vars_schema(["__m", "dst"])),
            ).map_batches(_as_pair("src", "dst"), batch_format="pyarrow")
        return out

    def plan(self, s="", o=""):
        steps = [p.plan(a, b) for p, (a, b) in zip(self.ps, self.ends(s, o))]
        return "hash_join(how=inner) chain on the middle node of [" + "; ".join(steps) + "]"


@dataclass(frozen=True)
class NegSet:
    """``!iri`` / ``!(iri|…)``: every triple whose predicate is not listed,
    one NOT-IN-filtered scan."""

    iris: tuple

    def __str__(self):
        return "!" + (self.iris[0] if len(self.iris) == 1 else "(" + "|".join(self.iris) + ")")

    def edges(self, store, s="", o=""):
        excluded = pa.array(list(self.iris), pa.string())

        def kept(batch: pa.Table) -> pa.Table:
            t = batch.filter(pc.invert(pc.is_in(batch[tr.PREDICATE], value_set=excluded)))
            return pa.table({"src": t[tr.SUBJECT], "dst": t[tr.OBJECT]})

        return store.matches(s, "", o).map_batches(kept, batch_format="pyarrow")

    def plan(self, s="", o=""):
        return _scan_plan(s, "", o) + f", predicate NOT IN {_keys(self.iris)}"


@dataclass(frozen=True)
class Mod:
    """``p+`` / ``p*`` / ``p?``: the distinct pairs joined by one or more /
    zero or more / zero or one steps of ``p``. A closure is the
    semi-naive fixpoint of pipelines/graphstats.py (one task on a small
    edge set, distributed above it) seeded at a ground endpoint; ``*``
    and ``?`` add the zero-length pairs (:func:`_zero_pairs`)."""

    p: object
    mod: str

    def __str__(self):
        return _operand(self.p) + self.mod

    def edges(self, store, s="", o=""):
        from ..pipelines.graphstats import transitive_closure

        base, swap = self.p.edges(store), _as_pair("dst", "src")
        if self.mod == "?":
            pairs = base
        elif s:
            pairs = transitive_closure(base, sources=[s])
        elif o:  # close the reversed pairs from o, then swap back
            pairs = transitive_closure(
                base.map_batches(swap, batch_format="pyarrow"), sources=[o]
            ).map_batches(swap, batch_format="pyarrow")
        else:
            pairs = transitive_closure(base)
        if self.mod == "+":
            return pairs
        return dstore.distinct_on(pairs.union(_zero_pairs(store, s or o)), ["src", "dst"])

    def plan(self, s="", o=""):
        inner = self.p.plan()
        if self.mod == "?":
            out = f"the pairs of [{inner}]"
        else:
            seed = s or (f"{o} (reversed edges)" if o else "none")
            out = (
                f"transitive_closure(seed={seed}) of [{inner}]; one local task or the "
                "distributed fixpoint, chosen at run time by LOCAL_CLOSURE_MAX_EDGES"
            )
        return out if self.mod == "+" else out + ", plus zero-length pairs, distinct_on([src, dst])"


def _zero_pairs(store, node: str) -> ray.data.Dataset:
    """The zero-length path's pairs: ``(node, node)`` for a ground
    endpoint (graph membership not required), else one per distinct
    subject or object of the graph (one exchange)."""
    if node:
        return ray.data.from_arrow(pa.table({"src": [node], "dst": [node]}))

    def ends(batch: pa.Table) -> pa.Table:
        return pa.table({"src": pa.chunked_array([*batch[tr.SUBJECT].chunks, *batch[tr.OBJECT].chunks])})

    nodes = dstore.distinct_on(store.matches().map_batches(ends, batch_format="pyarrow"), ["src"])
    return nodes.map_batches(_as_pair("src", "src"), batch_format="pyarrow")


def _subpaths(p):
    """Path ``p`` and every path inside it."""
    yield p
    for kid in (p.p,) if isinstance(p, (Inv, Mod)) else getattr(p, "ps", ()):
        yield from _subpaths(kid)


def _plus_over_zero_length(p) -> bool:
    """Is there a ``q+`` in ``p`` whose ``q`` holds a ``*`` or ``?``? Its
    closure seeded at a ground node outside the graph would miss the
    zero-length pair (§18.4 ALP evaluates each step from a ground node)."""
    return any(
        isinstance(q, Mod) and q.mod == "+"
        and any(isinstance(z, Mod) and z.mod != "+" for z in _subpaths(q.p))
        for q in _subpaths(p)
    )


# ---------------------------------------------------------------------------
# The algebra (SPARQL 1.1 §18). Every query form parses to one tree of the
# nodes below. A node works out its variable scope once: ``vars`` (the
# in-scope variables, in bindings-column order) and ``maybe`` (those an
# OPTIONAL may leave unbound). ``lower`` runs it on the engine's
# primitives, ``op`` names that primitive for ``explain``. The subset's
# refusals are the rule table _RULES, checked over the whole tree by
# _validate before anything is lowered.
# ---------------------------------------------------------------------------


def _visible(vars_) -> list[str]:
    """Variables without the hidden ``__ppN`` path plumbing."""
    return [v for v in vars_ if not v.startswith("__pp")]


def _keys(vs) -> str:
    return "[" + ", ".join(vs) + "]"


def _pattern_vars(pat) -> list[str]:
    """The variables one pattern binds, in its bindings' column order:
    slot order for a plain pattern, subject then object for a path."""
    slots = pat if isinstance(pat[1], str) else (pat[0], pat[2])
    return list(dict.fromkeys(t[1:] for t in slots if t.startswith("?")))


class _Node:
    """One algebra node. ``child`` is the node it extends inside its own
    group; a nested group (an OPTIONAL, MINUS or EXISTS body, a UNION
    branch, a subquery) is a named field, listed by :meth:`kids` with the
    kind of group it is."""

    form = "SELECT"  # the query form a tree rooted here answers

    def kids(self) -> list:
        """``(node, group kind)`` per input; kind None: the same group."""
        return [(self.child, None)]

    @functools.cached_property
    def vars(self) -> list[str]:
        return self.child.vars

    @functools.cached_property
    def maybe(self) -> frozenset:
        return self.child.maybe

    @functools.cached_property
    def types(self) -> dict:
        """Binding columns that are not term strings → their Arrow type:
        a Group's aggregate aliases, seen by the nodes above it (a
        subquery's by its Join)."""
        kids = [k.types for k, kind in self.kids() if kind in (None, "WHERE")]
        return {v: t for ts in kids for v, t in ts.items() if v in self.vars}

    @property
    def schema(self) -> "pa.Schema":
        """The Arrow schema of the node's bindings, for ``hash_join``."""
        return _vars_schema(self.vars, self.types)

    def explain(self, depth: int = 0) -> list[str]:
        lines = ["  " * depth + self.op()]
        for kid, _ in self.kids():
            lines += kid.explain(depth + 1)
        return lines


@dataclass(eq=False)
class BGP(_Node):
    """Triple patterns (the predicate may be a property-path element):
    each pattern one pinned scan, inner hash joins on the variables it
    shares with the patterns before it."""

    patterns: list

    maybe = frozenset()

    def kids(self):
        return []

    @functools.cached_property
    def steps(self) -> list:
        """(pattern, its variables, those shared with earlier patterns)."""
        out, seen = [], []
        for pat in self.patterns:
            vs = _pattern_vars(pat)
            out.append((pat, vs, [v for v in vs if v in seen]))
            seen += [v for v in vs if v not in seen]
        return out

    @functools.cached_property
    def vars(self):
        return list(dict.fromkeys(v for _, vs, _ in self.steps for v in vs))

    def lower(self, store):
        return _join_patterns(store, self.patterns)

    def op(self):
        return f"BGP: {len(self.patterns)} pattern(s), each scan pinned with materialize()"

    def explain(self, depth: int = 0):
        pad = "  " * (depth + 1)
        return [super().explain(depth)[0]] + [
            pad + _pattern_op(pat, shared) for pat, _, shared in self.steps
        ]


@dataclass(eq=False)
class Union(_Node):
    """Bag union of groups binding the same (visible) variables."""

    branches: list

    maybe = frozenset()

    def kids(self):
        return [(b, "UNION") for b in self.branches]

    @functools.cached_property
    def vars(self):
        return _visible(self.branches[0].vars)

    def lower(self, store):
        parts = [b.lower(store).select_columns(self.vars) for b in self.branches]
        return functools.reduce(lambda a, b: a.union(b), parts)

    def op(self):
        return f"Union: Dataset.union of {len(self.branches)} branches on {_keys(self.vars)}"


@dataclass(eq=False)
class Join(_Node):
    """The group joined with a ``{ SELECT … }`` subquery's solutions."""

    child: _Node
    sub: _Node

    def kids(self):
        return [(self.child, None), (self.sub, "WHERE")]

    @functools.cached_property
    def shared(self):
        return [v for v in self.sub.vars if v in self.child.vars]

    @functools.cached_property
    def vars(self):
        return self.child.vars + [v for v in self.sub.vars if v not in self.child.vars]

    def lower(self, store):
        return dstore.hash_join(
            self.child.lower(store), self.sub.lower(store), on=self.shared, how="inner",
            schemas=(self.child.schema, self.sub.schema),
        )

    def op(self):
        return f"Join on {_keys(self.shared)}: hash_join(how=inner, on={_keys(self.shared)})"


@dataclass(eq=False)
class LeftJoin(_Node):
    """OPTIONAL: a left join; the optional group's FILTERs are the join
    condition, evaluated over the group's own variables."""

    child: _Node
    opt: _Node
    exprs: tuple = ()

    def kids(self):
        return [(self.child, None), (self.opt, "OPTIONAL")]

    @functools.cached_property
    def shared(self):
        return [v for v in self.opt.vars if v in self.child.vars]

    @functools.cached_property
    def vars(self):
        return self.child.vars + [v for v in self.opt.vars if v not in self.child.vars]

    @functools.cached_property
    def maybe(self):
        return self.child.maybe | (set(self.opt.vars) - set(self.child.vars))

    def lower(self, store):
        left, right = self.child.lower(store), self.opt.lower(store)
        if self.exprs:
            right = _apply_filters_ds(right, list(self.exprs))
        return dstore.hash_join(
            left, right, on=self.shared, how="left",
            schemas=(self.child.schema, self.opt.schema),
        )

    def op(self):
        cond = ", the condition by _filter_batch on the group first" if self.exprs else ""
        return f"LeftJoin on {_keys(self.shared)}: hash_join(how=left, on={_keys(self.shared)}){cond}"


@dataclass(eq=False)
class Extend(_Node):
    """BIND(expr AS ?var). Consecutive BINDs run as one batch pass, in
    order, so aliases chain."""

    child: _Node
    var: str
    expr: _Expr

    @functools.cached_property
    def vars(self):
        return self.child.vars + [self.var]

    def lower(self, store):
        binds, node = [], self
        while isinstance(node, Extend):
            binds.insert(0, (node.expr, node.var))
            node = node.child
        return node.lower(store).map_batches(
            _bind_batch, fn_kwargs={"binds": binds}, batch_format="pyarrow"
        )

    def op(self):
        return f"Extend ?{self.var}: map_batches(_bind_batch), one pass per run of BINDs"


@dataclass(eq=False)
class Filter(_Node):
    """The group's FILTER conditions, applied as one conjunction."""

    child: _Node
    exprs: tuple

    def lower(self, store):
        return _apply_filters_ds(self.child.lower(store), list(self.exprs))

    def op(self):
        return f"Filter: map_batches(_filter_batch) over {len(self.exprs)} condition(s)"


@dataclass(eq=False)
class Exists(_Node):
    """FILTER [NOT] EXISTS { group }: a semi (anti) join on the shared
    variables. A FILTER in the group that reads outer variables is
    correlated: it runs on the (distinct outer keys × group) bindings."""

    child: _Node
    group: _Node
    negated: bool

    @property
    def kind(self) -> str:
        return "FILTER NOT EXISTS" if self.negated else "FILTER EXISTS"

    def kids(self):
        return [(self.child, None), (self.group, self.kind)]

    @functools.cached_property
    def shared(self):
        return _visible(v for v in self.group.vars if v in self.child.vars)

    @functools.cached_property
    def outer(self) -> list[str]:
        """Variables the group's FILTERs read from outside the group."""
        exprs = self.group.exprs if isinstance(self.group, Filter) else ()
        return sorted({v for e in exprs for v in _vars(e)} - set(self.group.vars))

    def lower(self, store):
        joined, how = self.child.lower(store), "anti" if self.negated else "semi"
        if not self.outer:
            keys, on = self.group.lower(store), self.shared
            keys = dstore.distinct_on(keys.select_columns(on), on)
        else:
            bgp, on = self.group.child, self.shared + self.outer
            outer_keys = dstore.distinct_on(joined.select_columns(on), on)
            probe = dstore.hash_join(
                outer_keys, bgp.lower(store), on=self.shared, how="inner",
                schemas=(_vars_schema(on, self.child.types), bgp.schema),
            )
            qualified = _apply_filters_ds(probe, list(self.group.exprs))
            keys = dstore.distinct_on(qualified.select_columns(on), on)
        return dstore.hash_join(
            joined, keys, on=on, how=how,
            schemas=(self.child.schema, _vars_schema(on, self.child.types)),
        )

    def op(self):
        how, on = "anti" if self.negated else "semi", _keys(self.shared + self.outer)
        probe = f" (_filter_batch over distinct outer keys ⋈ group)" if self.outer else ""
        return f"{self.kind} on {on}: {how}-join on distinct keys{probe}: hash_join(how={how}, on={on})"


@dataclass(eq=False)
class Minus(Exists):
    """MINUS { group }: the group is evaluated on its own (§8.3.3), so an
    outer variable its FILTER reads is unbound there; then an anti-join
    on the shared variables."""

    negated: bool = True

    kind = "MINUS"
    outer = []


@dataclass(eq=False)
class Values(_Node):
    """Inline data over required-bound variables, joined (§18.5 Join):
    each solution is repeated once per compatible row, an UNDEF cell
    matching anything. One broadcast map per batch, no exchange."""

    child: _Node
    cols: list
    rows: list

    def lower(self, store):
        cols, rows = self.cols, self.rows
        # one variable: a hash lookup of each value's row count
        counts = collections.Counter(r[0] for r in rows if r[0] is not None)
        value_set = pa.array(list(counts), pa.string())
        per_value = pa.array(list(counts.values()), pa.int64())

        def repeats(batch: pa.Table) -> np.ndarray:
            if len(cols) == 1:
                hit = pc.take(per_value, pc.index_in(batch[cols[0]], value_set=value_set))
                return pc.fill_null(hit, 0).to_numpy() + (len(rows) - counts.total())
            n = np.zeros(batch.num_rows, np.int64)
            for row in rows:
                eqs = [pc.equal(batch[c], v) for c, v in zip(cols, row) if v is not None]
                # an all-UNDEF row is compatible with every solution
                n += pc.fill_null(functools.reduce(pc.and_, eqs), False).to_numpy() if eqs else 1
            return n

        def join(batch: pa.Table) -> pa.Table:
            return batch.take(np.repeat(np.arange(batch.num_rows), repeats(batch)))

        return self.child.lower(store).map_batches(join, batch_format="pyarrow")

    def op(self):
        return (
            f"Values {_keys(self.cols)}: broadcast join, each solution taken once per "
            f"compatible row of {len(self.rows)}, no exchange"
        )


@dataclass(eq=False)
class Group(_Node):
    """GROUP BY keys with the aggregates, or, with no aggregates, one
    solution per group. ``aggs``: (op, var | "*", alias)."""

    child: _Node
    keys: list
    aggs: list
    seps: dict

    @functools.cached_property
    def vars(self):
        return self.keys + [a for _, _, a in self.aggs]

    @functools.cached_property
    def types(self):
        ops = {a: op.removesuffix("_distinct") for op, _, a in self.aggs}
        return {a: _AGG_TYPES[op] for a, op in ops.items() if op in _AGG_TYPES}

    def lower(self, store):
        joined, keys, aggs = self.child.lower(store), self.keys, list(self.aggs)
        if not aggs:
            return dstore.distinct_on(joined.select_columns(keys), keys)
        if keys:
            partial, final = _aggregate_kernels(aggs, keys, self.seps)
            return dstore.bucketed_group_map(
                joined, keys, final, partial_fn=partial, batch_format="pyarrow"
            )
        op, var, alias = aggs[0]
        if op.endswith("_distinct"):
            # one global distinct exchange first; over its rows the
            # DISTINCT aggregate IS the plain one
            joined = dstore.distinct_on(joined.select_columns([var]), [var])
            aggs = [(op.removesuffix("_distinct"), var, alias)]
        # whole-result: GROUP BY on no keys — one partial row per block,
        # the same final over them on the driver (1 row out); the partial
        # of an empty table is the identity row, so an empty result still
        # aggregates (COUNT/SUM 0, others unbound)
        partial, final = _aggregate_kernels(aggs, [], self.seps)
        empty = pa.table({v: pa.array([], pa.string()) for _, v, _ in aggs if v != "*"})
        parts = joined.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"
        )
        return ray.data.from_arrow(
            final(pa.concat_tables([partial(empty), *parts], promote_options="permissive"))
        )

    def op(self):
        aggs = "".join(f" {op}({v})" for op, v, _ in self.aggs)
        plan = (
            "bucketed_group_map with the _aggregate_kernels pair" if self.keys and aggs
            else "_aggregate_kernels partial per block, final on the driver" if aggs
            else "distinct_on the keys"
        )
        return f"Group {_keys(self.keys)}{aggs}: {plan}"


def _having_alias(node, op: str, arg: str):
    """The SELECT alias of the aggregate a HAVING condition names."""
    aggs = node.aggs if isinstance(node, Group) else []
    return next((a for o, v, a in aggs if o == op and v == arg), None)


@dataclass(eq=False)
class Having(_Node):
    """HAVING ( AGG(?v|*) cmp int ): filters the groups on the alias of
    the matching SELECT aggregate. ``conds``: (op, arg, cmp, int)."""

    child: _Node
    conds: list

    def lower(self, store):
        hv = [(_having_alias(self.child, op, arg), cmp, n) for op, arg, cmp, n in self.conds]

        def apply_having(batch: pa.Table) -> pa.Table:
            mask = None
            for alias, cmp, n in hv:
                m = _ARROW_CMP[cmp](batch[alias], n)
                mask = m if mask is None else pc.and_(mask, m)
            return batch.filter(mask)

        return self.child.lower(store).map_batches(apply_having, batch_format="pyarrow")

    def op(self):
        return f"Having: map_batches over the aggregate columns, {len(self.conds)} condition(s)"


@dataclass(eq=False)
class Project(_Node):
    """The selected variables (``["*"]``: every visible in-scope one)."""

    child: _Node
    select: list

    @functools.cached_property
    def vars(self):
        return _visible(self.child.vars) if self.select == ["*"] else self.select

    @functools.cached_property
    def maybe(self):
        return self.child.maybe & set(self.vars)

    def lower(self, store):
        return self.child.lower(store).select_columns(self.vars)

    def op(self):
        return f"Project {_keys(self.vars)}: select_columns({_keys(self.vars)})"


@dataclass(eq=False)
class Distinct(_Node):
    """SELECT DISTINCT / REDUCED (REDUCED takes the spec's latitude to
    eliminate duplicates: deterministic and SQL-oracle-able)."""

    child: _Node

    def lower(self, store):
        return dstore.distinct_on(self.child.lower(store), self.vars)

    def op(self):
        return f"Distinct: distinct_on({_keys(self.vars)})"


@dataclass(eq=False)
class OrderBy(_Node):
    """ORDER BY over the projected variables: (var, descending)."""

    child: _Node
    keys: list

    def lower(self, store):
        return self.child.lower(store).sort(
            [v for v, _ in self.keys], descending=[d for _, d in self.keys]
        )

    def op(self):
        keys = ", ".join(f"{'DESC' if d else 'ASC'}(?{v})" for v, d in self.keys)
        return f"OrderBy {keys}: Dataset.sort"


@dataclass(eq=False)
class Slice(_Node):
    """LIMIT / OFFSET. An OFFSET needs ORDER BY and LIMIT: the ordered
    ≤ offset+limit head finishes on the driver."""

    child: _Node
    limit: int | None
    offset: int | None

    def lower(self, store):
        out = self.child.lower(store)
        if self.limit is None:
            return out
        if not self.offset:
            return out.limit(self.limit)
        # Arrow slice keeps the schema even when the result is empty
        head = pa.Table.from_pandas(
            out.limit(self.offset + self.limit).to_pandas(), preserve_index=False
        )
        return ray.data.from_arrow(head.slice(self.offset))

    def op(self):
        head = f"limit({(self.offset or 0) + self.limit})" if self.limit is not None else "all rows"
        return f"Slice offset {self.offset or 0} limit {self.limit}: {head}" + (", sliced on the driver" if self.offset else "")


@dataclass(eq=False)
class Ask(_Node):
    """ASK: does the group have a solution?"""

    child: _Node
    graph: str | None = None

    form = "ASK"

    def kids(self):
        return [(self.child, "ASK" if isinstance(self.child, BGP) else "WHERE")]

    def lower(self, store) -> bool:
        return _exists(store, self.child)

    def op(self):
        if isinstance(self.child, BGP):
            return "Ask: limit(1) existence probe per ground pattern and per connected component"
        return "Ask: limit(1) on the group's solutions"


@dataclass(eq=False)
class Construct(_Node):
    """CONSTRUCT: the template instantiated per solution, as a set."""

    child: _Node
    templates: list

    form = "CONSTRUCT"

    def lower(self, store):
        return dstore.distinct_on(
            self.child.lower(store).map_batches(
                _instantiate, fn_kwargs={"templates": self.templates}, batch_format="pyarrow"
            ),
            tr.COLUMNS,
        )

    def op(self):
        return (
            f"Construct: map_batches(_instantiate) over {len(self.templates)} template(s), "
            "distinct_on(subject, predicate, object)"
        )


@dataclass(eq=False)
class Describe(_Node):
    """DESCRIBE: every triple whose subject is a described resource."""

    child: _Node | None
    iris: list
    names: list

    form = "DESCRIBE"

    def kids(self):
        return [] if self.child is None else [(self.child, None)]

    def lower(self, store):
        triples = store.dataset
        if not self.names:
            wanted = pa.array(sorted(set(self.iris)), pa.string())

            def filt(batch: pa.Table) -> pa.Table:
                subj = batch[tr.SUBJECT].combine_chunks().cast(pa.string())
                return batch.filter(pc.is_in(subj, value_set=wanted))

            return triples.map_batches(filt, batch_format="pyarrow")
        bindings = self.child.lower(store)

        def project(col: str):
            def fn(batch: pa.Table) -> pa.Table:
                c = batch[col].combine_chunks().cast(pa.string())
                keep = pc.and_(pc.is_valid(c), pc.starts_with(c, "<"))
                return pa.table({tr.SUBJECT: c.filter(keep)})

            return fn

        resources = functools.reduce(
            lambda a, b: a.union(b),
            [bindings.map_batches(project(v), batch_format="pyarrow") for v in self.names],
        )
        if self.iris:
            resources = resources.union(
                ray.data.from_arrow(
                    pa.table({tr.SUBJECT: pa.array(sorted(set(self.iris)), pa.string())})
                )
            )
        # left-semi keeps each matching triple exactly once regardless of
        # how many bindings name its subject — no distinct pass needed
        return dstore.hash_join(triples, resources, on=tr.SUBJECT, how="semi")

    def op(self):
        if not self.names:
            return "Describe: streaming is_in filter on subject, no exchange"
        return "Describe: resources from the solutions, hash_join(how=semi, on=[subject]) with the triples"


def _template_vars(templates) -> set[str]:
    return {t[1:] for pat in templates for t in pat if t.startswith("?")}


@dataclass(eq=False)
class Modify(_Node):
    """DELETE { tpl } INSERT { tpl } WHERE { group }: both templates
    instantiate against the solutions over the ORIGINAL store; ground
    templates apply iff the group has a solution."""

    child: _Node
    delete: list
    insert: list

    def kids(self):
        ask = not self.tpl_vars and isinstance(self.child, BGP)
        return [(self.child, "ASK" if ask else "WHERE")]

    @functools.cached_property
    def tpl_vars(self) -> list[str]:
        return sorted(_template_vars(self.delete + self.insert))

    def lower(self, store) -> "dstore.DatasetGraphStore":
        if not self.tpl_vars:
            if not _exists(store, self.child):
                return store
            out = store
            if self.delete:
                out = out.delete_triples_unchecked(_ground_table(self.delete))
            if self.insert:
                out = out.add_triples_unchecked(_ground_table(self.insert))
            return out
        bindings = Project(self.child, self.tpl_vars).lower(store)

        def instantiate(tpl):
            return bindings.map_batches(
                _instantiate, fn_kwargs={"templates": tpl}, batch_format="pyarrow"
            )

        out_ds = store.matches()
        if self.delete:
            deletes = dstore.distinct_on(instantiate(self.delete), tr.COLUMNS)
            out_ds = dstore.hash_join(out_ds, deletes, on=tr.COLUMNS, how="anti")
        out = dstore.DatasetGraphStore(store.get_uri(), out_ds)
        if self.insert:
            out = out.add_triples_unchecked(instantiate(self.insert))
        return out


def _pattern_op(pat, shared) -> str:
    """``explain``'s line for one BGP pattern."""
    s, p, o = pat
    out = _scan_plan(s, p, o) if isinstance(p, str) else p.plan(_ground(s), _ground(o))
    if shared:
        out += f"; hash_join(how=inner, on={_keys(shared)})"
    return f"{s} {p} {o}: {out}"


# ---------------------------------------------------------------------------
# The parser. One recursive-descent pass per query form; every group
# graph pattern — the WHERE of each form, OPTIONAL / MINUS / [NOT] EXISTS
# bodies, UNION branches and { SELECT } subqueries — goes through ONE
# method, _Parser.group, which returns the group's §18.2.2 translation.
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, what: str = "query"):
        self.cur = _Cursor(text, what)
        self.prefixes = _prologue(self.cur)
        self.hidden = 0  # fresh ?__ppN names for path rewriting

    def fresh(self) -> str:
        self.hidden += 1
        return f"?__pp{self.hidden - 1}"

    def query(self) -> _Node:
        form = {
            "SELECT": self.select, "ASK": self.ask,
            "CONSTRUCT": self.construct, "DESCRIBE": self.describe,
        }.get(self.cur.peek().upper())
        if form is None:
            raise SparqlSyntaxError("expected SELECT, ASK, CONSTRUCT or DESCRIBE")
        node = form()
        self.cur.done()
        return node

    # -- query forms ---------------------------------------------------------

    def select(self) -> _Node:
        cur = self.cur
        if cur.take().upper() != "SELECT":
            raise SparqlSyntaxError("expected SELECT")
        distinct = cur.peek().upper() in ("DISTINCT", "REDUCED") and bool(cur.take())
        select: list[str] = []
        aggs: list[tuple[str, str, str]] = []
        seps: dict = {}
        while cur.peek().startswith("?") or cur.peek() in ("*", "("):
            if cur.peek() == "(":
                op, arg, alias, sep = self.aggregate()
                aggs.append((op, arg, alias))
                if op.startswith("group_concat"):
                    seps[alias] = sep
                select.append(alias)
                continue
            t = cur.take()
            select.append("*" if t == "*" else t[1:])
        if not select:
            raise SparqlSyntaxError("SELECT needs variables or *")
        return self.solution(select, distinct, aggs, seps)

    def aggregate(self):
        """``( AGG ( [DISTINCT] ?v | * [; SEPARATOR="s"] ) AS ?alias )``"""
        cur = self.cur
        cur.take()
        op = cur.take().lower()
        if op == "sample":
            # SPARQL SAMPLE picks an arbitrary group member; this engine
            # is deterministic everywhere, so SAMPLE is pinned to the
            # minimum term — a valid sample, stable at any block layout,
            # and SQL-oracle-able
            op = "min"
        if cur.take() != "(":
            raise SparqlSyntaxError(f"expected ( after {op.upper()}")
        if cur.peek().upper() == "DISTINCT":
            cur.take()
            if op not in ("min", "max"):  # a no-op for MIN/MAX
                op += "_distinct"
        arg = cur.take()
        if arg == "*":
            if op != "count":
                raise SparqlSyntaxError(f"{op.upper()}(*) is not valid")
        elif not arg.startswith("?"):
            raise SparqlSyntaxError(f"{op.upper()} needs ?var or *")
        sep = " "
        if op.startswith("group_concat") and cur.peek() == ";":
            cur.take()
            if cur.take().upper() != "SEPARATOR":
                raise SparqlSyntaxError("expected SEPARATOR after ; in GROUP_CONCAT")
            if cur.take() != "=":
                raise SparqlSyntaxError("expected = after SEPARATOR")
            sv = cur.take()
            if not (sv.startswith('"') and sv.endswith('"')):
                raise SparqlSyntaxError('GROUP_CONCAT separator must be a plain "string"')
            sep = sv[1:-1]
        if cur.take() != ")":
            raise SparqlSyntaxError(f"expected ) closing {op.upper()}")
        if cur.take().upper() != "AS":
            raise SparqlSyntaxError("aggregate needs AS ?alias")
        alias = cur.take()
        if not alias.startswith("?"):
            raise SparqlSyntaxError("aggregate alias must be a ?variable")
        if cur.take() != ")":
            raise SparqlSyntaxError("expected ) closing the aggregate")
        return op, arg if arg == "*" else arg[1:], alias[1:], sep

    def solution(self, select, distinct=False, aggs=(), seps=None) -> _Node:
        """``WHERE { … }`` and the solution modifiers → Group, Having,
        Project, Distinct, OrderBy and Slice over the WHERE tree."""
        cur = self.cur
        if cur.take().upper() != "WHERE" or cur.peek() != "{":
            raise SparqlSyntaxError("expected WHERE {")
        node = self.group()
        keys, having, order, values = [], [], [], []
        limit = offset = None
        while cur.peek() not in ("", "}"):
            kw = cur.take().upper()
            if kw == "VALUES":
                values.append(self.values())
            elif kw == "GROUP":
                if cur.take().upper() != "BY":
                    raise SparqlSyntaxError("expected GROUP BY")
                while cur.peek().startswith("?") and len(cur.peek()) > 1:
                    keys.append(cur.take()[1:])
                if not keys:
                    raise SparqlSyntaxError("GROUP BY needs variables")
            elif kw == "HAVING":
                having.append(self.having())
            elif kw == "ORDER":
                if cur.take().upper() != "BY":
                    raise SparqlSyntaxError("expected ORDER BY")
                order += self.order_keys()
            elif kw in ("LIMIT", "OFFSET"):
                n = cur.take()
                if not n.isdigit():
                    raise SparqlSyntaxError(f"{kw} needs an integer, got {n!r}")
                limit, offset = (int(n), offset) if kw == "LIMIT" else (limit, int(n))
            else:
                raise SparqlUnsupportedError(f"unsupported clause {kw!r}")
        if aggs or keys:
            node = Group(node, keys, list(aggs), dict(seps or {}))
        if having:
            node = Having(node, having)
        # §18.2.4.3: a trailing VALUES joins after grouping and HAVING
        for cols, rows in values:
            node = Values(node, cols, rows)
        node = Project(node, select)
        if distinct:
            node = Distinct(node)
        if order:
            node = OrderBy(node, order)
        if limit is not None or offset is not None:
            node = Slice(node, limit, offset)
        return node

    def having(self):
        """``( AGG ( [DISTINCT] ?v | * ) cmp [-]int )`` → (op, arg, cmp, n)"""
        cur = self.cur
        if cur.take() != "(":
            raise SparqlSyntaxError("expected ( after HAVING")
        op = cur.take().lower()
        if cur.take() != "(":
            raise SparqlSyntaxError(f"expected ( after {op.upper()}")
        if cur.peek().upper() == "DISTINCT":
            cur.take()
            op += "_distinct"
        arg = cur.take()
        if arg != "*" and not arg.startswith("?"):
            raise SparqlSyntaxError("HAVING aggregate needs ?var or *")
        if cur.take() != ")":
            raise SparqlSyntaxError(f"expected ) closing {op.upper()}")
        cmp = cur.take()
        if cmp not in _CMP:
            raise SparqlSyntaxError(f"bad HAVING comparator {cmp!r}")
        n = cur.take()
        neg = n == "-"
        if neg:
            n = cur.take()
        if not n.isdigit():
            raise SparqlSyntaxError(f"HAVING needs an integer bound, got {n!r}")
        if cur.take() != ")":
            raise SparqlSyntaxError("expected ) closing HAVING")
        return op, arg if arg == "*" else arg[1:], cmp, -int(n) if neg else int(n)

    def order_keys(self) -> list[tuple[str, bool]]:
        """``?v | ASC(?v) | DESC(?v)`` … → (var, descending)"""
        cur, out = self.cur, []
        while True:
            t = cur.peek()
            if t.startswith("?") and len(t) > 1:
                out.append((cur.take()[1:], False))
            elif t.upper() in ("ASC", "DESC"):
                direction = cur.take().upper()
                if cur.take() != "(":
                    raise SparqlSyntaxError(f"expected ( after {direction}")
                v = cur.take()
                if not (v.startswith("?") and len(v) > 1):
                    raise SparqlSyntaxError(f"{direction}() needs a variable")
                if cur.take() != ")":
                    raise SparqlSyntaxError(f"expected ) closing {direction}()")
                out.append((v[1:], direction == "DESC"))
            elif not out:
                raise SparqlSyntaxError("ORDER BY needs variables")
            else:
                return out

    def ask(self) -> _Node:
        cur = self.cur
        cur.take()
        if cur.peek().upper() == "WHERE":
            cur.take()
        graph, node = _in_graph(cur, self.group, "ASK pattern")
        return Ask(node, graph)

    def construct(self) -> _Node:
        cur = self.cur
        cur.take()
        templates = _triples(cur, self.prefixes, "CONSTRUCT template")
        if not templates:
            raise SparqlSyntaxError("empty CONSTRUCT template")
        if cur.peek().upper() != "WHERE":
            raise SparqlSyntaxError("expected WHERE after the CONSTRUCT template")
        return Construct(self.solution(["*"]), templates)

    def describe(self) -> _Node:
        cur = self.cur
        cur.take()
        iris: list[str] = []
        names: list[str] = []
        while cur.peek() and cur.peek().upper() != "WHERE":
            tok = cur.peek()
            if tok.startswith("?"):
                names.append(cur.take()[1:])
            elif tok.startswith("<") or re.match(r"^[A-Za-z_][\w-]*:[\w-]+$", tok):
                iris.append(_expand(cur.take(), self.prefixes, "subject"))
            else:
                raise SparqlSyntaxError(f"unexpected DESCRIBE target {tok!r}")
        if not iris and not names:
            raise SparqlSyntaxError("DESCRIBE needs at least one target")
        if names and cur.peek().upper() != "WHERE":
            raise SparqlSyntaxError("DESCRIBE with variables requires WHERE")
        where = self.solution(names or ["*"]) if cur.peek() else None
        return Describe(where, iris, names)

    # -- group graph patterns --------------------------------------------------

    def group(self) -> _Node:
        """``{ … }`` → the group's translation. Its triple patterns form
        one BGP (a group of only ``{…} UNION {…}`` is that Union); then,
        in this order: OPTIONAL → LeftJoin, subqueries → Join, BIND →
        Extend, the FILTERs → one Filter, FILTER EXISTS → Exists, MINUS /
        FILTER NOT EXISTS → Minus / Exists, VALUES → Values. Inside the
        supported subset (well-designed OPTIONALs, required-bound join
        keys) that order gives the answers of the spec's element order."""
        cur = self.cur
        if cur.take() != "{":
            raise SparqlSyntaxError("expected { opening a group graph pattern")
        pats: list = []
        filters: list = []
        opts, subs, unions, binds, semi, anti, values = [], [], [], [], [], [], []
        while cur.peek() != "}":
            kw = cur.peek().upper()
            if kw == "FILTER":
                cur.take()
                neg = cur.peek().upper() == "NOT" and bool(cur.take())
                if neg and cur.peek().upper() != "EXISTS":
                    raise SparqlSyntaxError("expected EXISTS after FILTER NOT")
                if cur.peek().upper() == "EXISTS":
                    cur.take()
                    (anti if neg else semi).append((self.group(), neg))
                else:
                    filters.append(_filter_expr(cur, self.prefixes))
            elif kw in ("OPTIONAL", "MINUS"):
                cur.take()
                (opts if kw == "OPTIONAL" else anti).append((self.group(), kw))
            elif kw == "BIND":
                cur.take()
                binds.append(self.bind())
            elif kw == "VALUES":
                cur.take()
                values.append(self.values())
            elif kw == "{" and cur.peek(1).upper() == "SELECT":
                cur.take()
                subs.append(self.select())
                if cur.take() != "}":
                    raise SparqlSyntaxError("expected } closing the subquery")
            elif kw == "{":
                branches = [self.group()]
                while cur.peek().upper() == "UNION":
                    cur.take()
                    branches.append(self.group())
                unions.append(Union(branches))
            else:
                self.pattern(pats)
            if cur.peek() == ".":
                cur.take()
        cur.take()  # '}'

        node = BGP(pats) if pats or not unions else None
        for u in unions:
            node = u if node is None else Join(node, u)
        for grp, _ in opts:
            if isinstance(grp, Filter):  # the group's FILTERs: the join condition
                node = LeftJoin(node, grp.child, grp.exprs)
            else:
                node = LeftJoin(node, grp)
        for sub in subs:
            node = Join(node, sub)
        for e, alias in binds:
            node = Extend(node, alias, e)
        if filters:
            node = Filter(node, tuple(filters))
        for grp, _ in semi:
            node = Exists(node, grp, False)
        for grp, kind in anti:
            node = Minus(node, grp) if kind == "MINUS" else Exists(node, grp, True)
        for cols, rows in values:
            node = Values(node, cols, rows)
        return node

    def bind(self) -> tuple[_Expr, str]:
        """``( expr AS ?alias )``"""
        cur = self.cur
        if cur.take() != "(":
            raise SparqlSyntaxError("expected ( after BIND")
        e = _ExprParser(cur, self.prefixes).or_()
        if cur.take().upper() != "AS":
            raise SparqlSyntaxError("BIND needs AS ?alias")
        alias = cur.take()
        if not alias.startswith("?"):
            raise SparqlSyntaxError("BIND alias must be a ?variable")
        if cur.take() != ")":
            raise SparqlSyntaxError("expected ) closing BIND")
        return e, alias[1:]

    def values(self):
        """``?v { t … }`` | ``( ?a ?b ) { ( t t ) … }`` → (vars, rows);
        UNDEF cells are None."""
        cur = self.cur
        cols: list[str] = []
        if cur.peek() == "(":
            cur.take()
            while cur.peek().startswith("?"):
                cols.append(cur.take()[1:])
            if cur.take() != ")":
                raise SparqlSyntaxError("expected ) closing VALUES variables")
        elif cur.peek().startswith("?"):
            cols.append(cur.take()[1:])
        if not cols:
            raise SparqlSyntaxError("VALUES needs at least one ?variable")
        if cur.take() != "{":
            raise SparqlSyntaxError("expected { opening the VALUES block")

        def cell() -> str | None:
            if cur.peek().upper() == "UNDEF":
                cur.take()
                return None
            return _expand(cur.take(), self.prefixes, "object")

        rows: list[tuple[str | None, ...]] = []
        while cur.peek() != "}":
            if len(cols) == 1 and cur.peek() != "(":
                rows.append((cell(),))
                continue
            if cur.take() != "(":
                raise SparqlSyntaxError("expected ( opening a VALUES row")
            rows.append(tuple(cell() for _ in cols))
            if cur.take() != ")":
                raise SparqlSyntaxError("expected ) closing a VALUES row")
        cur.take()  # '}'
        if not rows:
            raise SparqlSyntaxError("VALUES needs at least one row")
        return cols, rows

    # -- triple patterns and property paths -----------------------------------

    def path(self):
        """``seq ('|' seq)*`` (§9.1, over ground IRIs) → a path node."""
        alts = [self.path_seq()]
        while self.cur.peek() == "|":
            self.cur.take()
            alts.append(self.path_seq())
        return alts[0] if len(alts) == 1 else Alt(_flat(alts, Alt))

    def path_seq(self):
        """``elt ('/' elt)*``"""
        steps = [self.path_elt()]
        while self.cur.peek() == "/":
            self.cur.take()
            steps.append(self.path_elt())
        return steps[0] if len(steps) == 1 else Seq(_flat(steps, Seq))

    def path_elt(self):
        """``'^'? primary ('+' | '*' | '?')?``"""
        cur = self.cur
        inv = cur.peek() == "^" and bool(cur.take())
        p = self.path_primary()
        if cur.peek() in ("+", "*", "?"):
            p = Mod(p, cur.take())
        return Inv(p) if inv else p

    def path_primary(self):
        """An IRI, ``!iri`` / ``!(iri|…)`` or ``( path )``."""
        cur = self.cur
        if cur.peek() == "(":
            cur.take()
            p = self.path()
            if cur.take() != ")":
                raise SparqlSyntaxError("expected ) closing a parenthesized path")
            if isinstance(p, Link):
                raise SparqlSyntaxError("a parenthesized path needs an operator, not one bare IRI")
            return p
        if cur.peek() != "!":
            return Link(self.path_iri("property-path elements must be ground predicates, not ?vars"))
        cur.take()

        def member() -> str:
            if cur.peek() == "^":
                raise SparqlUnsupportedError("inverse members in a negated property set are not supported")
            return self.path_iri("negated property sets need ground predicates")

        multi = cur.peek() == "(" and bool(cur.take())
        iris = [member()]
        while multi and cur.peek() == "|":
            cur.take()
            iris.append(member())
        if multi and cur.take() != ")":
            raise SparqlSyntaxError("expected ) closing the negated property set")
        return NegSet(tuple(iris))

    def path_iri(self, not_ground: str) -> str:
        iri = _expand(self.cur.take(), self.prefixes, "predicate")
        if iri.startswith("?"):
            raise SparqlSyntaxError(not_ground)
        return iri

    def pattern(self, into: list) -> None:
        """``s p o`` → patterns. The predicate slot holds a term string
        (a ?var or an IRI) or a path node; a top-level sequence becomes a
        chain of patterns through hidden ?__ppN variables (§18.2.2.4;
        excluded from SELECT * and the UNION typing)."""
        cur = self.cur
        s = _expand(cur.take(), self.prefixes, "subject")
        if cur.peek().startswith("?"):
            p = _expand(cur.take(), self.prefixes, "predicate")
            if cur.peek() in ("/", "|", "+", "*", "?"):
                raise SparqlSyntaxError("property-path elements must be ground predicates, not ?vars")
        else:
            p = self.path()
        o = _expand(cur.take(), self.prefixes, "object")
        steps = p.ps if isinstance(p, Seq) else [p]
        at = s
        for k, step in enumerate(steps):
            nxt = o if k == len(steps) - 1 else self.fresh()
            into.append((at, step.iri if isinstance(step, Link) else step, nxt))
            at = nxt


def _flat(ps: list, kind) -> tuple:
    """Operands of an associative path operator, nested ones spliced in."""
    return tuple(q for p in ps for q in (p.ps if isinstance(p, kind) else (p,)))


def parse(text: str) -> _Node:
    """Query text (SELECT, ASK, CONSTRUCT or DESCRIBE) → its algebra
    tree, not yet checked against the rules (:func:`_validate`)."""
    return _Parser(text).query()


# ---------------------------------------------------------------------------
# The rules: every refusal of the subset, checked over the whole tree by
# _validate before anything runs. A rule is (node type, error class,
# check(node, group kind) → message or None); the group kind is "WHERE"
# (a query's own group), "ASK" (a pure-BGP existence pattern),
# "OPTIONAL", "MINUS", "FILTER [NOT] EXISTS" or "UNION".
# ---------------------------------------------------------------------------

_AGG_OPS = ("count", "min", "max", "sum", "avg", "group_concat")
_AGG_TYPES = {"count": pa.int64(), "sum": pa.int64(), "avg": pa.float64()}  # others: terms
_EMPTY = {
    "WHERE": "empty graph pattern",
    "ASK": "empty ASK pattern",
    "OPTIONAL": "empty OPTIONAL group",
    "UNION": "empty UNION branch",
}


def _content(node: _Node, where: str):
    """What a group of kind ``where`` may contain, checked before the
    node's own inputs: (error class, message) or None."""
    if where == "OPTIONAL" and not isinstance(node, (BGP, LeftJoin, Filter)):
        if isinstance(node, Exists) and not isinstance(node, Minus):
            return SparqlUnsupportedError, "FILTER [NOT] EXISTS inside an OPTIONAL group is not supported"
        return SparqlUnsupportedError, "OPTIONAL groups may contain only graph patterns, nested OPTIONAL and FILTER"
    if where == "UNION" and not isinstance(node, BGP):
        return SparqlUnsupportedError, "UNION branches must be plain graph patterns"
    if where in ("MINUS", "FILTER EXISTS", "FILTER NOT EXISTS") and not isinstance(node, (BGP, Filter)):
        if isinstance(node, Exists) and not isinstance(node, Minus):
            return SparqlUnsupportedError, f"nested FILTER [NOT] EXISTS inside a {where} group is not supported"
        return SparqlUnsupportedError, f"{where} groups must be graph patterns plus FILTER"
    if isinstance(node, Join) and not isinstance(node.sub, (Project, Distinct, OrderBy, Slice)):
        return SparqlUnsupportedError, "nested groups other than { SELECT ... } subqueries are not supported"
    return None


def _bgp_refusal(n: BGP, where: str):
    for k, (pat, vs, shared) in enumerate(n.steps):
        # a pure-BGP ASK probes ground triples and each connected
        # component on its own; every other BGP lowers to one join chain
        if not vs and (where != "ASK" or not isinstance(pat[1], str)):
            return "fully-bound patterns (ASK semantics) are not supported"
        if k and not shared and where != "ASK":
            return (
                f"pattern {pat} shares no variable with the preceding "
                "patterns — cartesian products are refused"
            )
    return None


def _union_refusal(n: Union, where: str):
    for b in n.branches[1:]:
        visible = set(_visible(b.vars))
        if visible != set(n.vars):
            return f"UNION branches bind different variables: {sorted(n.vars)} vs {sorted(visible)}"
    return None


def _checked_exprs(exprs, kind: str, where: str) -> None:
    """Type expressions against _SIGNATURES; the table's own rules raise
    the error class (see _want)."""
    for e in exprs:
        _want(_check(e), kind, where)


def _grouped(n: _Node):
    """The Group a projection reads (through a HAVING), or None."""
    n = n.child.child if isinstance(n.child, Having) else n.child
    return n if isinstance(n, Group) else None


def _projection_refusal(n: Project, where: str):
    g = _grouped(n)
    if g is not None and g.aggs and n.select == ["*"]:
        return "SELECT * cannot be mixed with aggregates"
    if g is not None and n.select != ["*"]:
        ok = g.keys + [a for _, _, a in g.aggs]
        bad = [v for v in n.select if v not in ok]
        if bad and g.aggs:
            return f"selected variables not in GROUP BY or aggregated: {bad}"
        if bad:
            return f"selected variables not in GROUP BY: {bad}"
    missing = [c for c in n.vars if c not in n.child.vars]
    return missing and f"SELECT variables never bound: {missing}"


def _aggregate_refusal(n: Group, where: str):
    ops = [op for op, _, _ in n.aggs]
    for op in ops:
        if op.removesuffix("_distinct") not in _AGG_OPS:
            return f"unsupported aggregate {op.removesuffix('_distinct')!r}"
    # a DISTINCT aggregate or GROUP_CONCAT needs the raw (keys…, v) rows
    # to reach the final pass — no combiner can collapse them beside the
    # row-collapsing partials of the other aggregates, so the subset
    # allows either only as the sole aggregate; a whole-corpus concat
    # into one string is an anti-scale operation
    if len(ops) > 1 and any(op.startswith("group_concat") for op in ops):
        return "GROUP_CONCAT cannot be mixed with other aggregates"
    if len(ops) > 1 and any(op.endswith("_distinct") for op in ops):
        return "a DISTINCT aggregate cannot be mixed with other aggregates"
    if ops and ops[0].startswith("group_concat") and not n.keys:
        return "GROUP_CONCAT requires GROUP BY in this subset"
    return None


def _having_refusal(n: Having, where: str):
    for op, arg, _, _ in n.conds:
        base = op.removesuffix("_distinct")
        if base not in ("count", "min", "max", "sum", "avg"):
            return f"HAVING needs an aggregate, got {base!r}"
        if op != base and base != "count":
            return f"{base.upper()}(DISTINCT ...) is not supported"
        if _having_alias(n.child, op, arg) is None:
            return (
                "the HAVING aggregate must also appear in SELECT "
                "(this subset filters on the selected alias)"
            )
    return None


_RULES = [
    (BGP, SparqlSyntaxError, lambda n, w: not n.patterns and _EMPTY.get(w, f"empty {w} group")),
    (BGP, SparqlUnsupportedError, lambda n, w: w not in ("WHERE", "ASK") and any(
        isinstance(p, NegSet) for _, p, _ in n.patterns
    ) and "negated property sets are only supported in the top-level pattern"),
    (BGP, SparqlUnsupportedError, lambda n, w: any(
        _plus_over_zero_length(p) for _, p, _ in n.patterns if not isinstance(p, str)
    ) and "a + modifier over a path with a * or ? step, as in (p*)+, is not supported"),
    (BGP, SparqlUnsupportedError, _bgp_refusal),
    (Union, SparqlSyntaxError, lambda n, w: len(n.branches) < 2 and "UNION needs at least two branches"),
    (Union, SparqlUnsupportedError, _union_refusal),
    (Join, SparqlUnsupportedError, lambda n, w: not n.shared and (
        "subquery shares no variable with the outer patterns"
    )),
    (LeftJoin, SparqlSyntaxError, lambda n, w: _checked_exprs(n.exprs, "bool", "FILTER")),
    (LeftJoin, SparqlUnsupportedError, lambda n, w: not n.shared and (
        "nested OPTIONAL shares no variable with its enclosing group — cartesian products are refused"
        if w == "OPTIONAL" else
        "OPTIONAL group shares no variable with the required patterns — cartesian products are refused"
    )),
    # an equi-join key that may be unbound diverges from SPARQL's
    # compatible-mapping semantics (unbound matches anything), so such
    # patterns — exactly the non-well-designed ones (Pérez et al. 2009)
    # — are refused rather than misanswered
    (LeftJoin, SparqlUnsupportedError, lambda n, w: any(
        v in n.opt.maybe or v in n.child.maybe for v in n.shared
    ) and (
        "non-well-designed OPTIONAL nesting: a join variable may be unbound on one side"
        if w == "OPTIONAL" else
        "non-well-designed OPTIONAL: a join variable may be unbound on one side"
    )),
    # the condition may read only the group's own variables: then
    # Filter(group) before the left join IS LeftJoin(outer, group, C)
    (LeftJoin, SparqlUnsupportedError, lambda n, w: (fbad := [
        x for e in n.exprs for x in _vars(e) if x not in n.opt.vars
    ]) and f"FILTER inside OPTIONAL may reference only the group's own variables; outer refs: {fbad}"),
    (Extend, SparqlSyntaxError, lambda n, w: _checked_exprs([n.expr], "term_or_num", "BIND")),
    (Extend, SparqlSyntaxError, lambda n, w: n.var in n.child.vars and f"BIND alias ?{n.var} already bound"),
    (Extend, SparqlSyntaxError, lambda n, w: (missing := [
        v for v in _vars(n.expr) if v not in n.child.vars
    ]) and f"BIND arguments never bound: {missing}"),
    (Filter, SparqlSyntaxError, lambda n, w: _checked_exprs(n.exprs, "bool", "FILTER")),
    # a MINUS / EXISTS group's FILTER may read outer variables (the
    # Exists rule below); a MINUS group's sees them unbound
    (Filter, SparqlSyntaxError, lambda n, w: w == "WHERE" and (bad := [
        x for e in n.exprs for x in _vars(e) if x not in n.child.vars
    ]) and f"FILTER variables never bound: {bad}"),
    (Exists, SparqlUnsupportedError, lambda n, w: not n.shared and (
        "MINUS / FILTER [NOT] EXISTS group shares no variable with the outer "
        "patterns — the disjoint-domain case is refused"
    )),
    (Exists, SparqlUnsupportedError, lambda n, w: (bad := [
        v for v in n.shared if v in n.child.maybe
    ]) and f"MINUS / FILTER [NOT] EXISTS on OPTIONAL-only variables is not supported: {bad}"),
    (Exists, SparqlUnsupportedError, lambda n, w: (fbad := [
        v for v in n.outer if v not in n.child.vars or v in n.child.maybe
    ]) and f"FILTER inside MINUS / EXISTS references variables that are not required-bound outside: {fbad}"),
    (Values, SparqlUnsupportedError, lambda n, w: isinstance(n.child, Values) and "multiple VALUES clauses"),
    (Values, SparqlUnsupportedError, lambda n, w: any(
        c is not None and c.startswith("?") for row in n.rows for c in row
    ) and "variables in VALUES rows are not supported"),
    (Values, SparqlSyntaxError, lambda n, w: (missing := [
        v for v in n.cols if v not in n.child.vars
    ]) and f"VALUES variables never bound: {missing}"),
    (Values, SparqlUnsupportedError, lambda n, w: (bad := [
        v for v in n.cols if v in n.child.maybe
    ]) and f"VALUES on OPTIONAL-only variables is not supported: {bad}"),
    # a trailing VALUES joins before the aliases are bound (§18.2.4.4)
    (Values, SparqlUnsupportedError, lambda n, w: isinstance(
        g := n.child.child if isinstance(n.child, Having) else n.child, Group
    ) and (bad := [v for v in n.cols if v not in g.keys])
        and f"VALUES after grouping may name only GROUP BY keys: {bad}"),
    # VALUES cells are term strings; a subquery's COUNT/SUM/AVG is not
    (Values, SparqlUnsupportedError, lambda n, w: (bad := [
        v for v in n.cols if v in n.child.types
    ]) and f"VALUES on numeric aggregate results is not supported: {bad}"),
    (Group, SparqlUnsupportedError, _aggregate_refusal),
    (Group, SparqlSyntaxError, lambda n, w: (bad := [v for v in n.keys if v not in n.child.vars] + [
        v for _, v, _ in n.aggs if v != "*" and v not in n.child.vars
    ]) and f"{'aggregate/' if n.aggs else ''}GROUP BY variables never bound: {bad}"),
    (Having, SparqlUnsupportedError, _having_refusal),
    (Project, SparqlSyntaxError, _projection_refusal),
    (Project, SparqlUnsupportedError, lambda n, w: not n.vars and "SELECT * found no projectable variables"),
    (OrderBy, SparqlUnsupportedError, lambda n, w: (bad := [
        v for v, _ in n.keys if v not in n.child.vars
    ]) and f"ORDER BY on unselected vars: {bad}"),
    # without a total order the skipped prefix is nondeterministic;
    # without LIMIT the driver-side finish is unbounded
    (Slice, SparqlUnsupportedError, lambda n, w: n.offset is not None and (
        n.limit is None or not isinstance(n.child, OrderBy)
    ) and "OFFSET requires ORDER BY and LIMIT in this subset"),
    (Construct, SparqlSyntaxError, lambda n, w: (missing := sorted(
        _template_vars(n.templates) - set(n.child.vars)
    )) and f"CONSTRUCT template variables never bound: {missing}"),
    (Describe, SparqlUnsupportedError, lambda n, w: not n.names and n.child is not None and (
        "WHERE on an explicit-IRI DESCRIBE binds nothing — refused"
    )),
    (Modify, SparqlSyntaxError, lambda n, w: (missing := [
        v for v in n.tpl_vars if v not in n.child.vars
    ]) and f"modify template variables never bound in WHERE: {missing}"),
]


def _validate(node: _Node, where: str = "WHERE") -> _Node:
    """Check a tree against the rules: what each group may contain
    first, then the inputs, then the node's own rules."""
    bad = _content(node, where)
    if bad:
        raise bad[0](bad[1])
    for kid, kind in node.kids():
        _validate(kid, kind or where)
    for typ, cls, rule in _RULES:
        if isinstance(node, typ):
            msg = rule(node, where)
            if msg:
                raise cls(msg)
    return node


def _pattern_bindings(store: "dstore.DatasetGraphStore", pat) -> ray.data.Dataset:
    """One triple pattern → its bindings, one column per variable in
    :func:`_pattern_vars` order. A plain pattern is one ``matches()``
    scan with its ground terms pushed down; a path pattern is its path's
    ``edges`` given the ground endpoints, then the endpoint step: ground
    endpoints filter exactly, variable ones project. A variable repeated
    within the pattern (``?x ?p ?x``, ``?x p+ ?x``) is an equality."""
    s, p, o = pat
    if isinstance(p, str):
        ds, slots, ground = store.matches(*map(_ground, pat)), zip(tr.COLUMNS, pat), []
    else:
        ds, slots = p.edges(store, _ground(s), _ground(o)), list(zip(("src", "dst"), (s, o)))
        ground = [(col, t) for col, t in slots if _ground(t)]
    var_cols: dict[str, list[str]] = {}
    for col, term in slots:
        if term.startswith("?"):
            var_cols.setdefault(term[1:], []).append(col)

    def project(batch: pa.Table) -> pa.Table:
        masks = [pc.equal(batch[col], term) for col, term in ground] + [
            pc.equal(batch[cols[0]], batch[extra]) for cols in var_cols.values() for extra in cols[1:]
        ]
        if masks:
            batch = batch.filter(functools.reduce(pc.and_, masks))
        return pa.table({v: batch[cols[0]] for v, cols in var_cols.items()})

    return ds.map_batches(project, batch_format="pyarrow")


def _vars_schema(vars_: list[str], types=None) -> "pa.Schema":
    """Every binding column is a term STRING by construction (the
    engine's NTriples encoding) except an aggregate alias (a node's
    ``types``), so join schemas are statically known — passing them to
    hash_join skips its Dataset.schema() probes, each of which would
    EXECUTE the accumulated lazy join plan once just to re-learn this
    schema (one extra full execution per BGP pattern)."""
    return pa.schema([(v, (types or {}).get(v, pa.string())) for v in vars_])


def _join_patterns(store: "dstore.DatasetGraphStore", patterns) -> ray.data.Dataset:
    """Compile a connected pattern group into one bindings Dataset:
    each pattern scans, then inner hash joins on the shared variables
    (the BGP rules guarantee every pattern after the first shares one)."""
    joined: ray.data.Dataset | None = None
    bound: list[str] = []
    for pat in patterns:
        ds, vars_ = _pattern_bindings(store, pat), _pattern_vars(pat)
        # Pin each pattern's bindings: a BGP join plan that embeds N
        # copies of the store's (possibly union-shaped) build DAG under
        # one streaming executor starves the hot branch (the repo's
        # union+all-to-all lesson); the pinned table is the BINDINGS
        # (pattern-pruned), not the corpus, and the join exchange would
        # materialize it anyway.
        ds = ds.materialize()
        if joined is None:
            joined, bound = ds, vars_
            continue
        joined = dstore.hash_join(
            joined, ds, on=[v for v in vars_ if v in bound], how="inner",
            schemas=(_vars_schema(bound), _vars_schema(vars_)),
        )
        bound += [v for v in vars_ if v not in bound]
    return joined


def _plain(t: pa.Table) -> pa.Table:
    """Dictionary-encoded binding columns decoded to strings: Arrow's
    ``group_by`` cannot unify chunks with differing dictionaries, and
    ``min``/``max`` have no dictionary kernel."""
    for i, f in enumerate(t.schema):
        if pa.types.is_dictionary(f.type):
            t = t.set_column(i, f.name, t.column(i).cast(pa.string()))
    return t


def _group_agg(t: pa.Table, keys: list[str], specs: list) -> tuple[list, list]:
    """One Arrow hash aggregate → (key columns, one column per spec).
    ``keys`` may be empty: then the result is one row, also for an
    empty ``t``."""
    res = t.group_by(keys, use_threads=False).aggregate(specs)
    return res.columns[: len(keys)], res.columns[len(keys):]


def _aggregate_kernels(aggs: list, keys: list[str], seps: dict):
    """The one SPARQL aggregate plan as an Arrow kernel pair
    ``(partial, final)``: ``partial`` runs once per input block,
    ``final`` once over the concatenated partials of a key set — a
    bucket of :func:`dstore.bucketed_group_map`, or, for a whole-result
    aggregate (``keys == []``), every block's partial on the driver.

    Algebraic aggregates shrink a block to one row per key: COUNT and
    SUM partials add up, MIN/MAX re-apply, AVG carries an exact int64
    (sum, count) pair and divides once per group, so the result is
    bit-identical at any block layout. A DISTINCT aggregate or
    GROUP_CONCAT (always the sole aggregate) goes distinct rows first:
    ``partial`` keeps the distinct (keys…, v) rows — every row for a
    plain GROUP_CONCAT — and ``final`` deduplicates again before it
    aggregates. GROUP_CONCAT joins each group's values in sorted order
    (deterministic, with the exact SQL twin
    ``string_agg(v, sep ORDER BY v)``)."""
    op, var, alias = aggs[0]
    if op.startswith("group_concat") or op.endswith("_distinct"):
        cols = list(dict.fromkeys(keys + [var]))
        base = op.removesuffix("_distinct")

        def rows(t: pa.Table) -> pa.Table:
            t = _plain(t).select(cols)
            if op == "group_concat":  # a bag: duplicates are kept
                return t
            return t.group_by(cols, use_threads=False).aggregate([])

        if base != "group_concat":
            plain_partial, plain_final = _aggregate_kernels(
                [(base, var, alias)], keys, seps
            )
            return rows, lambda t: plain_final(plain_partial(rows(t)))

        def concat(t: pa.Table) -> pa.Table:
            t = rows(t)
            if t[var].null_count:
                raise ValueError(f"GROUP_CONCAT needs bound values of ?{var}")
            k, (lists,) = _group_agg(t.sort_by(var), keys, [(var, "list")])
            joined = pc.binary_join(lists, seps.get(alias, " "))
            return pa.table(k + [joined], names=keys + [alias])

        return rows, concat

    # per aggregate: its partial specs over a block, and for each the
    # function that merges that partial column across blocks
    part, merge = [], []
    for op, var, _ in aggs:
        if op == "count":
            part.append(([], "count_all") if var == "*" else (var, "count"))
            merge.append("sum")
        elif op in ("sum", "avg"):
            n = 2 if op == "avg" else 1
            part += [(f"__i_{var}", "sum"), (f"__i_{var}", "count")][:n]
            merge += ["sum"] * n
        else:
            part.append((var, op))
            merge.append(op)
    names = [f"__p{j}" for j in range(len(part))]
    int_vars = sorted({v for op, v, _ in aggs if op in ("sum", "avg")})

    def partial(t: pa.Table) -> pa.Table:
        t = _plain(t)
        for v in int_vars:
            # SUM/AVG are defined over xsd:integer literals, the only
            # integers this engine's term model emits; anything else —
            # IRIs, plain or other-typed literals, unbound OPTIONAL
            # variables — is a strict-subset error, never a silent 0
            iv = _int_value(t[v])
            if iv.null_count:
                got = t[v].filter(pc.is_null(iv))[0].as_py()
                raise ValueError(
                    f"SUM/AVG need xsd:integer literal bindings, got {got!r}"
                )
            t = t.append_column(f"__i_{v}", iv)
        k, vals = _group_agg(t, keys, part)
        return pa.table(k + vals, names=keys + names)

    def final(t: pa.Table) -> pa.Table:
        k, vals = _group_agg(t, keys, list(zip(names, merge)))
        out = []
        for op, _, _ in aggs:
            col = vals.pop(0)
            if op == "avg":
                col = pc.divide(
                    pc.cast(col, pa.float64()), pc.cast(vals.pop(0), pa.float64())
                )
            elif op in ("count", "sum"):
                col = pc.fill_null(col, 0)  # the empty whole result
            out.append(col)
        return pa.table(k + out, names=keys + [a for _, _, a in aggs])

    return partial, final


def _checked(query: str, form: str) -> _Node:
    """Parse one query of ``form`` and check it against the rules."""
    root = parse(query)
    if root.form != form:
        raise SparqlSyntaxError(f"expected {form}")
    return _validate(root)


def sparql_select(
    store: "dstore.DatasetGraphStore", query: str
) -> ray.data.Dataset:
    """Execute a SPARQL SELECT (see module doc for the subset) against
    the store; returns a Dataset with one column per selected variable,
    values in the engine's NTriples term encoding (optional-only
    variables are NULL on rows their group did not match)."""
    return _checked(query, "SELECT").lower(store)


def sparql_construct(
    store: "dstore.DatasetGraphStore", query: str
) -> ray.data.Dataset:
    """``CONSTRUCT { template } WHERE { ... }`` → Dataset(subject,
    predicate, object). The WHERE clause and its solution modifiers are
    the SELECT subset (module doc), run as ``SELECT *``. CONSTRUCT
    returns a SET of triples: templates are instantiated per binding
    row, rows with an unbound (OPTIONAL-null) template variable are
    omitted per the spec, and the union is globally deduped."""
    return _checked(query, "CONSTRUCT").lower(store)


def _exists(store: "dstore.DatasetGraphStore", node: _Node) -> bool:
    """Does ``node`` have a solution? Every check stops at its first
    row via ``limit(1)``. A pure BGP probes each ground pattern (a
    pruned scan), then each connected component of the rest, cheapest
    first and short-circuiting — disconnected patterns need only
    per-component non-emptiness, never their cartesian product."""
    if not isinstance(node, BGP):
        return node.lower(store).limit(1).count() > 0
    ground = [p for p in node.patterns if not _pattern_vars(p)]
    for s, p, o in ground:
        if store.matches(s, p, o).limit(1).count() == 0:
            return False
    comps: list[list] = []
    compvars: list[set[str]] = []
    for pat in node.patterns:
        vs = set(_pattern_vars(pat))
        if not vs:
            continue
        hit = [k for k, cv in enumerate(compvars) if cv & vs]
        if not hit:
            comps.append([pat])
            compvars.append(vs)
            continue
        k0 = hit[0]
        comps[k0].append(pat)
        compvars[k0] |= vs
        for k in reversed(hit[1:]):
            comps[k0] += comps.pop(k)
            compvars[k0] |= compvars.pop(k)
    for comp in comps:
        # a single pattern streams under limit(1): no join, no materialize
        if len(comp) == 1:
            bindings = _pattern_bindings(store, comp[0])
        else:
            bindings = _join_patterns(store, comp)
        if bindings.limit(1).count() == 0:
            return False
    return True


def sparql_ask(store: "dstore.DatasetGraphStore", query: str) -> bool:
    """``ASK [WHERE] { [GRAPH <g> {] group [}] }`` → bool.

    Covers (and generalizes) the two ASK forms the reference's store
    layer generates — graph-nonempty (``blazegraph_store.go:294``,
    backing ``NamespaceExists``/online checks) and ground-triple
    existence (``blazegraph_store.go:419``, backing the checked
    add/delete conflict probes). A pure BGP runs the existence plan of
    :func:`_exists`; any other group runs the SELECT plan under
    ``limit(1)``."""
    ask = _checked(query, "ASK")
    if ask.graph is not None and ask.graph != store.get_uri():
        raise SparqlUnsupportedError(
            f"ASK targets GRAPH <{ask.graph}>, store is <{store.get_uri()}>"
        )
    return ask.lower(store)


def sparql_describe(
    store: "dstore.DatasetGraphStore", query: str
) -> ray.data.Dataset:
    """``DESCRIBE <iri>... [?v ...] [WHERE { ... }]`` → Dataset(subject,
    predicate, object): every triple whose SUBJECT is one of the
    described resources — the forward (outbound-only) concise bounded
    description, without blank-node closure (the engine's term model
    has no blank nodes to chase; documented contract). Completes the
    fourth SPARQL query form next to SELECT / CONSTRUCT / ASK
    (reference passthrough surface `blazegraph_endpoint.go:176-244`).

    Targets may be explicit IRIs (full or prefixed) and/or variables;
    any variable requires a WHERE clause, which supports the full
    SELECT subset (module doc). Variable bindings that are not IRIs
    (literals from OPTIONAL/attribute patterns) are skipped per spec —
    only resources are describable.

    Scale shape: explicit-IRI-only DESCRIBE is a zero-exchange
    streaming ``is_in`` filter over the triple Dataset (the target set
    is query-literal, i.e. tiny). With variables, the WHERE bindings
    run the SELECT plan, each described column is projected to an IRI
    set WITHOUT driver materialization, and the result is ONE bucketed
    semi hash-join (triples ⋈ resources on subject) — the binding set
    is never collected, so a DESCRIBE whose WHERE matches millions of
    resources still streams."""
    return _checked(query, "DESCRIBE").lower(store)


def explain(query: str) -> str:
    """The plan of a query, without running it: one line per algebra
    node (indented under its parent) with the primitive it lowers to,
    and one line per BGP pattern with its scan, path fixpoint and join.
    A refused query gives its refusal instead. No Ray work is done: the
    closure fixpoint's local-or-distributed choice is made at run time
    from the edge count."""
    try:
        root = _validate(parse(query))
    except (SparqlSyntaxError, SparqlUnsupportedError) as e:
        return f"refused ({type(e).__name__}): {e}"
    return "\n".join(root.explain())


# ---------------------------------------------------------------------------
# SPARQL UPDATE subset (module doc: the forms the reference generates)
# ---------------------------------------------------------------------------


def _parse_update(text: str):
    """→ ("insert_data"|"delete_data", graph|None, [(s,p,o) ground])
       | ("delete_where", graph|None, [(s,p,o) term-or-'?var')])
       | ("modify", None, Modify)"""
    p = _Parser(text, "update")
    cur, prefixes = p.cur, p.prefixes
    verb = cur.take().upper()
    if verb not in ("DELETE", "INSERT"):
        raise SparqlUnsupportedError(f"unsupported update verb {verb!r}")
    if cur.peek() == "{":
        # modify form: DELETE { tpl } [INSERT { tpl }] WHERE { pats },
        # or INSERT { tpl } WHERE { pats }
        del_tpl, ins_tpl, kw = [], [], verb
        if verb == "DELETE":
            del_tpl = _triples(cur, prefixes, "DELETE block")
            kw = cur.take().upper()
        if kw == "INSERT":
            ins_tpl = _triples(cur, prefixes, "INSERT block")
            kw = cur.take().upper()
        if kw != "WHERE":
            raise SparqlSyntaxError("expected WHERE closing the modify update")
        where = p.group()
        cur.done()
        return "modify", None, Modify(where, del_tpl, ins_tpl)
    nxt = cur.take().upper()
    kind = {
        ("INSERT", "DATA"): "insert_data",
        ("DELETE", "DATA"): "delete_data",
        ("DELETE", "WHERE"): "delete_where",
    }.get((verb, nxt))
    if kind is None:
        raise SparqlUnsupportedError(f"unsupported update {verb} {nxt}")
    graph, pats = _in_graph(cur, lambda: _triples(cur, prefixes, "update block"), "update block")
    cur.done()
    if not pats:
        raise SparqlSyntaxError("empty update block")

    if kind in ("insert_data", "delete_data"):
        for pat in pats:
            if any(t.startswith("?") for t in pat):
                raise SparqlSyntaxError(f"{kind.upper()} requires ground triples: {pat}")
    else:
        if len(pats) != 1:
            raise SparqlUnsupportedError(
                "DELETE WHERE supports exactly one pattern (the form the "
                "reference generates); use several updates for several patterns"
            )
        pat = pats[0]
        seen = [t for t in pat if t.startswith("?")]
        if len(seen) != len(set(seen)):
            raise SparqlUnsupportedError(
                "DELETE WHERE with a repeated variable (slot-equality "
                "constraint) is not supported"
            )
    return kind, graph, pats


def sparql_update(
    store: "dstore.DatasetGraphStore", update: str
) -> "dstore.DatasetGraphStore":
    """Apply one SPARQL UPDATE (module-doc subset) and return the new
    graph version — same functional store discipline as the bulk ops it
    compiles onto (the input store is never mutated)."""
    kind, graph, pats = _parse_update(update)
    if graph is not None and graph != store.get_uri():
        raise SparqlUnsupportedError(
            f"update targets GRAPH <{graph}>, store is <{store.get_uri()}>"
        )
    if kind == "modify":
        return _validate(pats).lower(store)
    if kind == "delete_where":
        s, p, o = pats[0]
        return store.without_matches(
            "" if s.startswith("?") else s,
            "" if p.startswith("?") else p,
            "" if o.startswith("?") else o,
        )
    tbl = _ground_table(pats)
    if kind == "insert_data":
        return store.add_triples_unchecked(tbl)
    return store.delete_triples_unchecked(tbl)
