"""SPARQL SELECT over a DatasetGraphStore — the E8 passthrough,
Ray-Data-first.

The reference's endpoint hands raw SPARQL strings to Blazegraph
(`blazegraph_endpoint.go:176-244`); every OTHER store operation the
reference issues through that endpoint is a first-class distributed op
in this engine. This module closes the remaining hole: a basic-graph-
pattern SELECT subset compiled onto the engine's own primitives — each
triple pattern is a wildcard ``matches()`` scan (streaming Arrow
filter), patterns are combined with distributed ``hash_join`` on their
shared variables, and DISTINCT / ORDER BY / LIMIT map to
``distinct_on``, ``Dataset.sort`` and ``limit``.

Supported grammar (documented contract — a deliberate subset, parsed
strictly; anything outside it raises ``SparqlSyntaxError`` rather than
silently misanswering):

    PREFIX pfx: <uri>                 (any number)
    SELECT [DISTINCT] ?v ... | *
    WHERE { s p o . s p o . ... }     terms: ?var | <uri> | pfx:local
                                      | "lit" | "lit"@lang
                                      | "lit"^^<dt> | "lit"^^pfx:local
                                      | a  (= rdf:type, predicate slot)
      s e1/e2/... o                   (sequence property path: rewritten
                                      to a chain of patterns through
                                      hidden ?__ppN variables; ?__pp*
                                      names are reserved). Each element
                                      e is: p | ^p (inverse: scans with
                                      subject/object swapped) |
                                      (p1|p2|...) with optional ^ per
                                      alternative (bag union of
                                      predicate-pruned scans) | e+
                                      (arbitrary-length path: the
                                      semi-naive transitive closure of
                                      the element's edge relation, one
                                      task on a small edge set; a
                                      ground endpoint seeds the
                                      fixpoint)
                                      | e* (the closure plus the
                                      zero-length path: a ground
                                      endpoint reflexively matches
                                      itself, two variable endpoints
                                      bind every graph node) | e?
                                      (zero-or-one: the element's edges
                                      plus the zero-length path) | !p /
                                      !(p1|p2|...) (negated property
                                      set: any predicate EXCEPT those
                                      listed — rewritten to a hidden
                                      predicate variable + != filters;
                                      top-level patterns only, no
                                      inverse members) | !(...)+/*/?
                                      (closure over a negated set: the
                                      base relation is one NOT-IN-
                                      filtered scan, then the same
                                      fixpoint) —
                                      path elements must be ground
      FILTER ( expr )                 (an expression, below; an error or
                                      unbound result drops the row)
      FILTER regex ( ?v , "re" )      (RE2 over the ENCODED term string)
      BIND ( expr AS ?alias )         (runs post-join, pre-FILTER and
                                      binds the value as a term; an
                                      error leaves the alias unbound;
                                      aliases chain across BINDs)
      (SAMPLE(?v) AS ?s)              (aggregate; deterministic engine →
                                      pinned to the min term — a valid
                                      sample, layout-stable, oracle-able)
      { SELECT ... }                  (subquery: executed recursively —
                                      aggregates/GROUP BY included —
                                      then ONE bucketed inner hash join
                                      on the shared variables; must
                                      share ≥1 variable with the outer
                                      patterns; SELECT * bodies project
                                      the statically-derived variable
                                      scope)
      FILTER EXISTS { BGP }           (distributed semi-join on the
                                      shared variables)
      FILTER NOT EXISTS { BGP }       (anti-join; ≡ MINUS on this
      MINUS { BGP }                   subset — groups must share ≥1
                                      required-bound variable; plain
                                      BGP bodies only)
      OPTIONAL { s p o . ...          (left join; group-only vars NULL
                 [OPTIONAL {...}] }   on unmatched rows; nesting =
                                      LeftJoin(A, LeftJoin(B, C));
                                      non-well-designed patterns — a
                                      join variable unbound on one
                                      side — refused, not misanswered)
    WHERE { { BGP } UNION { BGP } .. }  (bag union; branches are plain
                                      BGPs binding the SAME variables)
    SELECT ?g (COUNT([DISTINCT] ?v|*) AS ?n) (MIN/MAX(?v) AS ?m)
           (SUM/AVG(?v) AS ?s)
           (GROUP_CONCAT(?v [; SEPARATOR="s"]) AS ?c)
           ...  [GROUP BY ?g ...]
                                      (one plan for every aggregate: an
                                      Arrow partial kernel per block,
                                      ONE bucketed exchange on the keys,
                                      the Arrow final kernel per bucket;
                                      no GROUP BY = no keys: the same
                                      final over the block partials on
                                      the driver → one row, COUNT/SUM 0
                                      and AVG/MIN/MAX unbound when
                                      empty. COUNT skips unbound
                                      bindings; an unbound group key is
                                      a group of its own; SUM/AVG
                                      require xsd:integer literal
                                      bindings — exact int64 partials,
                                      anything else raises ValueError;
                                      AVG = one float64 division per
                                      group from exact (sum, count).
                                      DISTINCT aggregates and
                                      GROUP_CONCAT — sorted values, no
                                      unbound ones — keep distinct
                                      (keys, v) rows through the
                                      exchange, so each must be the
                                      sole aggregate, GROUP_CONCAT with
                                      a GROUP BY; a whole-result
                                      DISTINCT aggregate runs one
                                      distinct exchange first. HAVING
                                      ( AGG(...) cmp int ) filters the
                                      groups post-aggregate — the
                                      aggregate must also appear in
                                      SELECT; GROUP BY with NO
                                      aggregates → one row per group,
                                      select ⊆ keys; SELECT DISTINCT
                                      composes — dedup of the projected
                                      rows after grouping)
    VALUES ?v { t ... }               (postfix inline-data join over
    VALUES (?a ?b) { (t t) ... }      required-bound variables: one
                                      vectorized membership kernel per
                                      batch — broadcast, no exchange;
                                      UNDEF cells are wildcards, no
                                      variables in rows)
    ORDER BY (?v | ASC(?v) | DESC(?v)) ...   (optional)
    LIMIT n                           (optional)
    OFFSET n                          (requires ORDER BY + LIMIT: the
                                      ordered ≤offset+limit head
                                      finishes on the driver)

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

``sparql_construct`` supports ``CONSTRUCT { template } WHERE { ... }``
with the full SELECT-subset WHERE clause: the template instantiates
per binding row (rows with an unbound OPTIONAL variable in the
template are omitted, per spec) and the result is the globally deduped
triple SET — a Dataset ready for ``DatasetGraphStore``.

``sparql_update`` accepts the three update forms the reference's own
store layer GENERATES (blazegraph_store.go:104,166,190,248,272 — the
complete update surface the reference exercises), compiled onto the
engine's bulk set operations:

    INSERT DATA { [GRAPH <g> {] t1 . t2 . ... [}] }   → union + dedup
    DELETE DATA { [GRAPH <g> {] t1 . t2 . ... [}] }   → broadcast anti-join
    DELETE WHERE { [GRAPH <g> {] s p o . [}] }        → negated pattern
    DELETE { tpl } INSERT { tpl } WHERE { BGP }       → modify form (either
                                      template optional): bindings from one
                                      recursive SELECT against the original
                                      store, templates instantiated
                                      vectorized, deletes via one bucketed
                                      anti hash join, inserts via
                                      union + dedup
                                      (one pattern; ?vars = wildcards)

``sparql_describe`` accepts ``DESCRIBE <iri>... [?v ...] [WHERE
{ ... }]`` (full SELECT-subset WHERE) and returns the forward concise
bounded description — all triples whose subject is a described
resource; non-IRI bindings are skipped, blank-node closure does not
apply (no blank nodes in the term model).

``sparql_ask`` accepts ``ASK [WHERE] { [GRAPH <g> {] BGP [}] }`` —
the existence forms the reference's store layer generates
(graph-nonempty, blazegraph_store.go:294; ground triple exists,
blazegraph_store.go:419) plus multi-pattern BGPs. Each condition
short-circuits via ``limit(1)`` (no full scan); disconnected pattern
groups are allowed (per-component non-emptiness, no cartesian).

Bindings are the engine's NTriples-encoded term strings (``<uri>`` /
``"lit"^^<dt>``), exactly what every other store op exchanges.

Scale shape: patterns with bound terms are predicate/subject-pruned
streaming filters over the triple Dataset; each join is ONE bucketed
exchange on the shared-variable key. The BGP must be CONNECTED —
a pattern sharing no variable with the ones already joined would be a
cartesian product, which is refused (``SparqlUnsupportedError``)
instead of silently exploding at scale.
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass, field
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



@dataclass
class _OptGroup:
    """One OPTIONAL group: its required BGP plus nested OPTIONAL
    children. Evaluates bottom-up as LeftJoin(patterns, child) per
    child — SPARQL's LeftJoin(A, LeftJoin(B, C)) shape."""

    patterns: list[tuple[str, str, str]]
    children: "list[_OptGroup]" = field(default_factory=list)
    # FILTER conditions inside the group — restricted to the group's
    # own variables, applied before the left join (exactly SPARQL's
    # LeftJoin condition for the well-designed case)
    filters: list = field(default_factory=list)


@dataclass
class _Query:
    select: list[str]  # variable names without '?', or ['*']
    distinct: bool
    patterns: list[tuple[str, str, str]]  # encoded term or '?var' per slot
    filters: list[_Expr] = field(default_factory=list)  # FILTER constraints
    # OPTIONAL groups — each a BGP plus nested OPTIONAL children
    # (LeftJoin(A, LeftJoin(B, C)) per the SPARQL algebra)
    optionals: "list[_OptGroup]" = field(default_factory=list)
    # MINUS { BGP } and FILTER NOT EXISTS { BGP } — equivalent on this
    # subset (groups must share ≥1 required-bound variable) unless a
    # FILTER in the group reads outer variables — and
    # FILTER EXISTS { BGP }: anti-/semi-join groups
    # each group is (patterns, filters, kind): the BGP, any FILTER
    # conditions inside the braces, and the keyword that opened it
    # ("MINUS", "FILTER NOT EXISTS" or "FILTER EXISTS")
    minus_groups: list[tuple[list, list, str]] = field(default_factory=list)
    exists_groups: list[tuple[list, list, str]] = field(default_factory=list)
    # postfix VALUES: (vars, ground-term rows) — inline broadcast semi-join
    values_clause: tuple[list[str], list[tuple[str, ...]]] | None = None
    # top-level { g1 } UNION { g2 } ... form: pattern groups, bag union
    union_groups: list[list[tuple[str, str, str]]] = field(default_factory=list)
    # (op, var|"*", alias): op ∈ {"count", "min", "max"}; select lists
    # the alias in position
    aggregates: list[tuple[str, str, str]] = field(default_factory=list)
    group_by: list[str] = field(default_factory=list)
    order_by: list[tuple[str, bool]] = field(default_factory=list)
    #          (var, descending) — from ?v / ASC(?v) / DESC(?v)
    limit: int | None = None
    offset: int | None = None
    # HAVING ( AGG(?v|*) cmp int ): (alias-of-matching-SELECT-agg,
    # cmp, int) — applied as a post-aggregate filter
    having: list[tuple[str, str, int]] = field(default_factory=list)
    # GROUP_CONCAT separators by alias (default " ")
    concat_seps: dict = field(default_factory=dict)
    # BIND(expr AS ?alias): (expr, alias) — applied after the BGP joins,
    # before FILTER/aggregation
    binds: list[tuple[_Expr, str]] = field(default_factory=list)
    # { SELECT ... } subqueries, re-synthesized to query text (outer
    # PREFIXes prepended); each is executed recursively and inner-joined
    # on the shared variables
    subqueries: list[str] = field(default_factory=list)


def _expand(tok: str, prefixes: dict[str, str], slot: str) -> str:
    """One pattern term → engine-encoded term string or '?var'."""
    if tok.startswith("?"):
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


def _graph_triples(cur: _Cursor, prefixes: dict, what: str):
    """``{ [GRAPH <g> {] s p o . … [}] }`` → (g | None, patterns)."""
    if cur.peek() != "{" or cur.peek(1).upper() != "GRAPH":
        return None, _triples(cur, prefixes, what)
    cur.take(), cur.take()
    g = cur.take()
    if not g.startswith("<"):
        raise SparqlSyntaxError(f"GRAPH needs <uri>, got {g!r}")
    pats = _triples(cur, prefixes, "GRAPH block")
    if cur.take() != "}":
        raise SparqlSyntaxError(f"expected }} closing the {what}")
    return g[1:-1], pats


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
    _want(_check(e), "bool", "FILTER")
    return e


# --- the evaluator ----------------------------------------------------------


def _col(batch: pa.Table, name: str) -> pa.Array:
    """A binding column as one plain string array."""
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


def parse(text: str) -> _Query:
    cur = _Cursor(text)
    peek, take = cur.peek, cur.take
    prefixes = _prologue(cur)

    if take().upper() != "SELECT":
        raise SparqlSyntaxError("expected SELECT")
    distinct = peek().upper() == "DISTINCT" and bool(take())
    if not distinct and peek().upper() == "REDUCED":
        # SELECT REDUCED: the spec PERMITS but does not require
        # eliminating duplicates — this engine eliminates them, which
        # is the deterministic (and SQL-oracle-able) choice within the
        # spec's latitude
        take()
        distinct = True
    select: list[str] = []
    aggregates: list[tuple[str, str, str]] = []
    concat_seps: dict = {}
    while peek().startswith("?") or peek() in ("*", "("):
        if peek() == "(":
            # ( COUNT|MIN|MAX|SUM|AVG ( ?v | * ) AS ?alias )
            take()
            op = take().lower()
            if op not in (
                "count", "min", "max", "sum", "avg", "group_concat", "sample",
            ):
                raise SparqlUnsupportedError(f"unsupported aggregate {op!r}")
            if op == "sample":
                # SPARQL SAMPLE picks an arbitrary group member; this
                # engine is deterministic everywhere, so SAMPLE is
                # pinned to the minimum term — a valid sample, stable
                # at any block layout, and SQL-oracle-able
                op = "min"
            if take() != "(":
                raise SparqlSyntaxError(f"expected ( after {op.upper()}")
            if peek().upper() == "DISTINCT":
                take()
                if op in ("count", "sum", "avg", "group_concat"):
                    # DISTINCT aggregates need per-group distinct rows
                    # to survive the exchange — a dedicated plan below
                    op = f"{op}_distinct"
                elif op in ("min", "max"):
                    pass  # DISTINCT is a no-op for MIN/MAX
                else:
                    raise SparqlUnsupportedError(
                        f"{op.upper()}(DISTINCT ...) is not supported"
                    )
            arg = take()
            if arg == "*":
                if op != "count":
                    raise SparqlSyntaxError(f"{op.upper()}(*) is not valid")
            elif not arg.startswith("?"):
                raise SparqlSyntaxError(f"{op.upper()} needs ?var or *")
            sep = " "
            if op.startswith("group_concat") and peek() == ";":
                take()
                if take().upper() != "SEPARATOR":
                    raise SparqlSyntaxError(
                        "expected SEPARATOR after ; in GROUP_CONCAT"
                    )
                if take() != "=":
                    raise SparqlSyntaxError("expected = after SEPARATOR")
                sv = take()
                if not (sv.startswith('"') and sv.endswith('"')):
                    raise SparqlSyntaxError(
                        'GROUP_CONCAT separator must be a plain "string"'
                    )
                sep = sv[1:-1]
            if take() != ")":
                raise SparqlSyntaxError(f"expected ) closing {op.upper()}")
            if take().upper() != "AS":
                raise SparqlSyntaxError("aggregate needs AS ?alias")
            alias = take()
            if not alias.startswith("?"):
                raise SparqlSyntaxError("aggregate alias must be a ?variable")
            if take() != ")":
                raise SparqlSyntaxError("expected ) closing the aggregate")
            aggregates.append((op, arg if arg == "*" else arg[1:], alias[1:]))
            if op.startswith("group_concat"):
                concat_seps[alias[1:]] = sep
            select.append(alias[1:])
            continue
        t = take()
        select.append("*" if t == "*" else t[1:])
    if not select:
        raise SparqlSyntaxError("SELECT needs variables or *")
    if aggregates and "*" in select:
        raise SparqlSyntaxError("SELECT * cannot be mixed with aggregates")
    # SELECT DISTINCT with aggregates is allowed: per spec DISTINCT
    # applies to the projected solution multiset AFTER grouping, which
    # is exactly the executor's post-projection distinct_on pass.

    values_holder: list = [None]

    def take_values() -> None:
        # VALUES ?v { t ... } | VALUES ( ?a ?b ) { ( t t ) ... } —
        # accepted inline inside the WHERE group AND in the postfix
        # position (SPARQL allows both; on this engine the clause is
        # a broadcast membership filter either way, so placement does
        # not change the plan)
        if values_holder[0] is not None:
            raise SparqlUnsupportedError("multiple VALUES clauses")
        vvars: list[str] = []
        if peek() == "(":
            take()
            while peek().startswith("?"):
                vvars.append(take()[1:])
            if take() != ")":
                raise SparqlSyntaxError("expected ) closing VALUES variables")
        elif peek().startswith("?"):
            vvars.append(take()[1:])
        if not vvars:
            raise SparqlSyntaxError("VALUES needs at least one ?variable")
        if take() != "{":
            raise SparqlSyntaxError("expected { opening the VALUES block")

        def vcell() -> str | None:
            # UNDEF = a wildcard cell: the row places no constraint
            # on that variable (SPARQL 11.8.2 solution compatibility)
            if peek().upper() == "UNDEF":
                take()
                return None
            return _expand(take(), prefixes, "object")

        rows: list[tuple[str | None, ...]] = []
        while peek() != "}":
            if len(vvars) == 1 and peek() != "(":
                row = (vcell(),)
            else:
                if take() != "(":
                    raise SparqlSyntaxError("expected ( opening a VALUES row")
                row = tuple(vcell() for _ in vvars)
                if take() != ")":
                    raise SparqlSyntaxError("expected ) closing a VALUES row")
            if any(t is not None and t.startswith("?") for t in row):
                raise SparqlUnsupportedError(
                    "variables in VALUES rows are not supported"
                )
            rows.append(row)
        take()  # '}'
        if not rows:
            raise SparqlSyntaxError("VALUES needs at least one row")
        values_holder[0] = (vvars, rows)

    if take().upper() != "WHERE" or take() != "{":
        raise SparqlSyntaxError("expected WHERE {")
    patterns: list[tuple[str, str, str]] = []
    filters: list[_Expr] = []

    def take_filter() -> None:
        # FILTER ( expr ) | FILTER regex ( ?v , "re" )
        # | FILTER [NOT] EXISTS { BGP }
        if peek().upper() == "NOT":
            take()
            if take().upper() != "EXISTS":
                raise SparqlSyntaxError("expected EXISTS after FILTER NOT")
            minus_groups.append(take_group("FILTER NOT EXISTS"))
        elif peek().upper() == "EXISTS":
            take()
            exists_groups.append(take_group("FILTER EXISTS"))
        else:
            filters.append(_filter_expr(cur, prefixes))

    optionals: list[_OptGroup] = []
    minus_groups: list[tuple[list, list, str]] = []
    exists_groups: list[tuple[list, list, str]] = []
    binds: list[tuple[_Expr, str]] = []
    subqueries: list[str] = []

    def take_bind() -> None:
        # BIND ( expr AS ?alias )
        if take() != "(":
            raise SparqlSyntaxError("expected ( after BIND")
        e = _check(_ExprParser(cur, prefixes).or_())
        _want(e, "term_or_num", "BIND")
        if take().upper() != "AS":
            raise SparqlSyntaxError("BIND needs AS ?alias")
        alias = take()
        if not alias.startswith("?"):
            raise SparqlSyntaxError("BIND alias must be a ?variable")
        if take() != ")":
            raise SparqlSyntaxError("expected ) closing BIND")
        binds.append((e, alias[1:]))

    pp_counter = [0]  # fresh hidden vars for property-path chaining

    def take_path_elem():
        # one path element:
        #   [^]pred                      → str (plain) or 1-choice tuple
        #   ( [^]pred | [^]pred ... )    → tuple of (pred, inverted)
        #   !pred | !(p1|p2|...)         → ("negset", (p1, p2, ...))
        # alternation/inverse elements must be ground predicates
        if peek() == "!":
            take()
            preds: list[str] = []
            multi = peek() == "("
            if multi:
                take()
            while True:
                if peek() == "^":
                    raise SparqlUnsupportedError(
                        "inverse members in a negated property set "
                        "are not supported"
                    )
                np_ = _expand(take(), prefixes, "predicate")
                if np_.startswith("?"):
                    raise SparqlSyntaxError(
                        "negated property sets need ground predicates"
                    )
                preds.append(np_)
                if multi and peek() == "|":
                    take()
                    continue
                break
            if multi and take() != ")":
                raise SparqlSyntaxError(
                    "expected ) closing the negated property set"
                )
            return ("negset", tuple(preds))
        if peek() == "(":
            take()
            choices: list[tuple[str, bool]] = []

            def one():
                inv = peek() == "^" and bool(take())
                p = _expand(take(), prefixes, "predicate")
                if p.startswith("?"):
                    raise SparqlSyntaxError(
                        "parenthesized path elements must be ground "
                        "predicates, not ?vars"
                    )
                return (p, inv)

            choices.append(one())
            if peek() == "/":
                # ( e1 / e2 [/ e3 ...] ) — a grouped SEQUENCE, usually
                # under a closure modifier ((p/q)* — "friend-of-friend
                # chains"); the executor composes the step relations
                # with hash joins before the fixpoint
                while peek() == "/":
                    take()
                    choices.append(one())
                if take() != ")":
                    raise SparqlSyntaxError(
                        "expected ) closing the path sequence"
                    )
                return ("seq", tuple(choices))
            while peek() == "|":
                take()
                choices.append(one())
            if take() != ")":
                raise SparqlSyntaxError("expected ) closing the path alternative")
            if len(choices) < 2:
                raise SparqlSyntaxError(
                    "a parenthesized path needs at least two |-alternatives"
                )
            return tuple(choices)
        inv = peek() == "^" and bool(take())
        p = _expand(take(), prefixes, "predicate")
        if inv:
            if p.startswith("?"):
                raise SparqlSyntaxError("inverse path ^ needs a ground predicate")
            return ((p, True),)
        return p

    def take_elem() -> object:
        e = take_path_elem()
        mod = peek()
        if mod in ("+", "*", "?"):
            # a negset element rides through as-is: the executor builds
            # its base relation as ONE NOT-IN-filtered scan
            take()
            if isinstance(e, str):
                if e.startswith("?"):
                    raise SparqlSyntaxError(
                        f"path modifier {mod} needs ground predicates"
                    )
                e = ((e, False),)
            kind = {"+": "closure", "*": "closure0", "?": "zeroone"}[mod]
            return (kind, e)
        if isinstance(e, tuple) and len(e) == 2 and e[0] == "seq":
            # a grouped sequence WITHOUT a modifier is just the plain
            # sequence — splice it back into the chain as ordinary
            # single-choice elements
            return ("splice", e[1])
        return e

    def take_pattern(into: list) -> None:
        s = _expand(take(), prefixes, "subject")
        elems = [take_elem()]
        while peek() == "/":
            take()
            elems.append(take_elem())
        # grouped sequences without a modifier splice back into the
        # chain as ordinary single-choice elements
        flat: list = []
        for e in elems:
            if isinstance(e, tuple) and len(e) == 2 and e[0] == "splice":
                flat.extend(((p, inv),) for p, inv in e[1])
            else:
                flat.append(e)
        elems = flat
        o = _expand(take(), prefixes, "object")
        if len(elems) > 1 and any(
            isinstance(p, str) and p.startswith("?") for p in elems
        ):
            raise SparqlSyntaxError(
                "property-path elements must be ground predicates, not ?vars"
            )
        # sequence path e1/e2/... rewrites to a chain of patterns through
        # hidden ?__ppN variables (excluded from SELECT * / UNION typing);
        # each element is a plain predicate or a tuple of (pred, inverted)
        # alternatives resolved per-pattern in _pattern_bindings
        cur = s
        for k, p in enumerate(elems):
            if k == len(elems) - 1:
                nxt = o
            else:
                nxt = f"?__pp{pp_counter[0]}"
                pp_counter[0] += 1
            if not isinstance(p, str) and len(p) == 2 and p[0] == "negset":
                # negated property set: rewrite to a hidden predicate
                # variable plus one != filter per excluded predicate —
                # filters run on the joined bindings BEFORE the hidden
                # ?__pp columns are dropped, so no new executor
                # machinery is needed
                if into is not patterns:
                    raise SparqlUnsupportedError(
                        "negated property sets are only supported in "
                        "the top-level pattern"
                    )
                pv = f"?__pp{pp_counter[0]}"
                pp_counter[0] += 1
                into.append((cur, pv, nxt))
                for pred in p[1]:
                    filters.append(
                        _Expr("!=", (_Expr("var", (pv[1:],)), _Expr("term", (pred,))))
                    )
            else:
                into.append((cur, p, nxt))
            cur = nxt
        if peek() == ".":
            take()

    def take_group(kind: str) -> tuple[list, list, str]:
        # { BGP [FILTER(...)]... } — the group body for MINUS /
        # FILTER [NOT] EXISTS; FILTER conditions inside the braces are
        # collected per group (nested EXISTS stays out of the subset)
        if take() != "{":
            raise SparqlSyntaxError(f"expected {{ after {kind}")
        grp: list[tuple[str, str, str]] = []
        grp_filters: list = []
        while peek() != "}":
            up = peek().upper()
            if up == "FILTER":
                take()
                mark_f = len(filters)
                mark_m = len(minus_groups)
                mark_e = len(exists_groups)
                take_filter()
                if len(minus_groups) > mark_m or len(exists_groups) > mark_e:
                    raise SparqlUnsupportedError(
                        f"nested FILTER [NOT] EXISTS inside a {kind} "
                        "group is not supported"
                    )
                grp_filters.extend(filters[mark_f:])
                del filters[mark_f:]
                if peek() == ".":
                    take()
                continue
            if up in ("OPTIONAL", "UNION", "MINUS", "VALUES"):
                raise SparqlUnsupportedError(
                    f"{kind} groups must be graph patterns plus FILTER"
                )
            take_pattern(grp)
        take()  # '}'
        if not grp:
            raise SparqlSyntaxError(f"empty {kind} group")
        return grp, grp_filters, kind

    def take_optional_group() -> _OptGroup:
        # { BGP [OPTIONAL { ... }] [FILTER(...)]... } — OPTIONAL groups
        # may nest (LeftJoin(B, C) inside LeftJoin(A, ·)) and may carry
        # FILTER conditions over their own variables (the LeftJoin
        # condition of the well-designed case — see _eval_optional);
        # UNION/MINUS/VALUES inside a group remain out of the subset
        if take() != "{":
            raise SparqlSyntaxError("expected { after OPTIONAL")
        pats: list[tuple[str, str, str]] = []
        children: list[_OptGroup] = []
        grp_filters: list = []
        while peek() != "}":
            up = peek().upper()
            if up == "OPTIONAL":
                take()
                children.append(take_optional_group())
                if peek() == ".":
                    take()
                continue
            if up == "FILTER":
                take()
                mark_f = len(filters)
                mark_m = len(minus_groups)
                mark_e = len(exists_groups)
                take_filter()
                if len(minus_groups) > mark_m or len(exists_groups) > mark_e:
                    raise SparqlUnsupportedError(
                        "FILTER [NOT] EXISTS inside an OPTIONAL group "
                        "is not supported"
                    )
                grp_filters.extend(filters[mark_f:])
                del filters[mark_f:]
                if peek() == ".":
                    take()
                continue
            if up in ("UNION", "MINUS", "VALUES"):
                raise SparqlUnsupportedError(
                    "OPTIONAL groups may contain only graph patterns, "
                    "nested OPTIONAL and FILTER"
                )
            take_pattern(pats)
        take()  # '}'
        if not pats:
            raise SparqlSyntaxError("empty OPTIONAL group")
        return _OptGroup(pats, children, grp_filters)

    # union form: WHERE { { g1 } UNION { g2 } [UNION { g3 } ...] } —
    # exclusive with the plain-pattern form (strict subset; branches
    # are plain BGPs, no FILTER/OPTIONAL inside)
    union_groups: list[list[tuple[str, str, str]]] = []
    if peek() == "{":
        while True:
            if take() != "{":
                raise SparqlSyntaxError("expected { opening UNION branch")
            grp: list[tuple[str, str, str]] = []
            while peek() != "}":
                if peek().upper() in ("FILTER", "OPTIONAL", "UNION", "MINUS", "VALUES"):
                    raise SparqlUnsupportedError(
                        "UNION branches must be plain graph patterns"
                    )
                take_pattern(grp)
            take()  # '}'
            if not grp:
                raise SparqlSyntaxError("empty UNION branch")
            union_groups.append(grp)
            if peek().upper() == "UNION":
                take()
                continue
            break
        if take() != "}":
            raise SparqlSyntaxError("expected } closing WHERE")
        if len(union_groups) < 2:
            raise SparqlSyntaxError("UNION needs at least two branches")
    else:
        while peek() != "}":
            if peek().upper() == "FILTER":
                take()
                take_filter()
                if peek() == ".":
                    take()
                continue
            if peek().upper() == "OPTIONAL":
                take()
                optionals.append(take_optional_group())
                if peek() == ".":
                    take()
                continue
            if peek().upper() == "MINUS":
                take()
                minus_groups.append(take_group("MINUS"))
                if peek() == ".":
                    take()
                continue
            if peek().upper() == "BIND":
                take()
                take_bind()
                if peek() == ".":
                    take()
                continue
            if peek().upper() == "VALUES":
                take()
                take_values()
                if peek() == ".":
                    take()
                continue
            if peek() == "{":
                # nested group: only the { SELECT ... } subquery form
                take()
                if peek().upper() != "SELECT":
                    raise SparqlUnsupportedError(
                        "nested groups other than { SELECT ... } "
                        "subqueries are not supported"
                    )
                depth, sub_toks = 1, []
                while depth:
                    t = take()
                    if t == "{":
                        depth += 1
                    elif t == "}":
                        depth -= 1
                        if depth == 0:
                            break
                    sub_toks.append(t)
                pre = " ".join(
                    f"PREFIX {n}: <{u}>" for n, u in prefixes.items()
                )
                subqueries.append((pre + " " + " ".join(sub_toks)).strip())
                if peek() == ".":
                    take()
                continue
            take_pattern(patterns)
        take()  # '}'
        if not patterns:
            raise SparqlSyntaxError("empty graph pattern")

    order_by: list[tuple[str, bool]] = []
    group_by: list[str] = []
    having: list[tuple[str, str, int]] = []
    limit = None
    offset = None
    while peek():
        kw = take().upper()
        if kw == "VALUES":
            take_values()
        elif kw == "GROUP":
            if take().upper() != "BY":
                raise SparqlSyntaxError("expected GROUP BY")
            while peek().startswith("?") and len(peek()) > 1:
                group_by.append(take()[1:])
            if not group_by:
                raise SparqlSyntaxError("GROUP BY needs variables")
        elif kw == "HAVING":
            if take() != "(":
                raise SparqlSyntaxError("expected ( after HAVING")
            hop = take().lower()
            if hop not in ("count", "min", "max", "sum", "avg"):
                raise SparqlUnsupportedError(
                    f"HAVING needs an aggregate, got {hop!r}"
                )
            if take() != "(":
                raise SparqlSyntaxError(f"expected ( after {hop.upper()}")
            if peek().upper() == "DISTINCT":
                take()
                if hop != "count":
                    raise SparqlUnsupportedError(
                        f"{hop.upper()}(DISTINCT ...) is not supported"
                    )
                hop = "count_distinct"
            harg = take()
            if harg != "*" and not harg.startswith("?"):
                raise SparqlSyntaxError("HAVING aggregate needs ?var or *")
            if take() != ")":
                raise SparqlSyntaxError(f"expected ) closing {hop.upper()}")
            cmp = take()
            if cmp not in ("<", ">", "<=", ">=", "=", "!="):
                raise SparqlSyntaxError(f"bad HAVING comparator {cmp!r}")
            n = take()
            hneg = n == "-"
            if hneg:
                n = take()
            if not n.isdigit():
                raise SparqlSyntaxError(
                    f"HAVING needs an integer bound, got {n!r}"
                )
            if take() != ")":
                raise SparqlSyntaxError("expected ) closing HAVING")
            key = harg if harg == "*" else harg[1:]
            match = [
                a for op_, v_, a in aggregates if op_ == hop and v_ == key
            ]
            if not match:
                raise SparqlUnsupportedError(
                    "the HAVING aggregate must also appear in SELECT "
                    "(this subset filters on the selected alias)"
                )
            having.append(
                (match[0], cmp, -int(n) if hneg else int(n))
            )
        elif kw == "ORDER":
            if take().upper() != "BY":
                raise SparqlSyntaxError("expected ORDER BY")
            while True:
                t = peek()
                if t.startswith("?") and len(t) > 1:
                    order_by.append((take()[1:], False))
                elif t.upper() in ("ASC", "DESC"):
                    direction = take().upper()
                    if take() != "(":
                        raise SparqlSyntaxError(
                            f"expected ( after {direction}"
                        )
                    v = take()
                    if not (v.startswith("?") and len(v) > 1):
                        raise SparqlSyntaxError(
                            f"{direction}() needs a variable"
                        )
                    if take() != ")":
                        raise SparqlSyntaxError(
                            f"expected ) closing {direction}()"
                        )
                    order_by.append((v[1:], direction == "DESC"))
                else:
                    break
            if not order_by:
                raise SparqlSyntaxError("ORDER BY needs variables")
        elif kw == "LIMIT":
            n = take()
            if not n.isdigit():
                raise SparqlSyntaxError(f"LIMIT needs an integer, got {n!r}")
            limit = int(n)
        elif kw == "OFFSET":
            n = take()
            if not n.isdigit():
                raise SparqlSyntaxError(f"OFFSET needs an integer, got {n!r}")
            offset = int(n)
        else:
            raise SparqlUnsupportedError(f"unsupported clause {kw!r}")
    if offset is not None and (limit is None or not order_by):
        # without a total order the skipped prefix is nondeterministic;
        # without LIMIT the driver-side finish is unbounded
        raise SparqlUnsupportedError(
            "OFFSET requires ORDER BY and LIMIT in this subset"
        )
    if aggregates and not group_by:
        # whole-result aggregate (one output row): model as GROUP BY on
        # no keys — handled in the executor
        pass
    if group_by and not aggregates:
        # valid SPARQL: grouping with no aggregates projects ONE row
        # per group — the selected variables must all be group keys
        # (a non-key variable's per-group value is undefined; standard
        # engines reject it too)
        if select == ["*"]:
            select = list(group_by)
        bad = [v for v in select if v not in group_by]
        if bad:
            raise SparqlSyntaxError(
                f"selected variables not in GROUP BY: {bad}"
            )
    if aggregates:
        bad = [v for v in select if v not in group_by
               and v not in {a for _, _, a in aggregates}]
        if bad:
            raise SparqlSyntaxError(
                f"selected variables not in GROUP BY or aggregated: {bad}"
            )
    if having and not aggregates:
        raise SparqlUnsupportedError("HAVING requires aggregates")
    return _Query(
        select, distinct, patterns, filters, optionals,
        minus_groups, exists_groups, values_holder[0], union_groups,
        aggregates, group_by, order_by, limit, offset, having=having,
        concat_seps=concat_seps, binds=binds, subqueries=subqueries,
    )


def _pattern_bindings(
    store: "dstore.DatasetGraphStore", pat: tuple[str, str, str]
) -> tuple[ray.data.Dataset, list[str]]:
    """One triple pattern → Dataset of variable bindings.

    The predicate slot may be a tuple of ``(pred, inverted)``
    alternatives (from ``^p`` / ``(p1|p2)`` path elements): each choice
    is its own predicate-pruned streaming scan — an inverted choice
    scans with subject/object swapped — and the choices are bag-unioned
    (SPARQL path alternation is defined as a union, duplicates kept)."""
    s, p, o = pat
    if (
        not isinstance(p, str)
        and len(p) == 2
        and p[0] in ("closure", "closure0", "zeroone")
    ):
        # property-path modifiers over a ground element:
        #   e+ (closure)   — the base relation is the union of the
        #     element's predicate-pruned scans (inverse choices swap
        #     slots); its transitive closure is the semi-naive fixpoint
        #     of pipelines/graphstats.py (one task on a small edge set,
        #     distributed above it), seeded at a ground endpoint
        #   e* (closure0)  — the closure UNION the zero-length path
        #   e? (zeroone)   — the base relation UNION the zero-length path
        # The zero-length path follows the SPARQL ZeroLengthPath
        # evaluation: a ground endpoint reflexively matches itself
        # (graph membership not required), while two variable endpoints
        # bind to EVERY node of the active graph (all subjects and
        # objects, not just the element's endpoints) — that global
        # node set is one distinct exchange. The pattern's
        # subject/object terms apply AFTER the pair set is built —
        # ground endpoints become vectorized filters.

        from ..pipelines.graphstats import transitive_closure

        kind = p[0]

        def edge_proj(inv: bool):
            src_col = tr.OBJECT if inv else tr.SUBJECT
            dst_col = tr.SUBJECT if inv else tr.OBJECT

            def f(batch: pa.Table) -> pa.Table:
                return pa.table(
                    {"src": batch[src_col], "dst": batch[dst_col]}
                )

            return f

        if p[1] and p[1][0] == "negset":
            # !(p1|p2)+ — the base relation is every triple whose
            # predicate is NOT excluded: one streaming scan with a
            # vectorized NOT-IN filter (no hidden-var/filter rewrite
            # needed; the closure machinery below is element-agnostic)
            excluded = pa.array(list(p[1][1]), pa.string())

            def neg_edges(batch: pa.Table) -> pa.Table:
                keep = pc.invert(
                    pc.is_in(batch[tr.PREDICATE], value_set=excluded)
                )
                t = batch.filter(keep)
                return pa.table({"src": t[tr.SUBJECT], "dst": t[tr.OBJECT]})

            base = store.matches().map_batches(
                neg_edges, batch_format="pyarrow"
            )
        elif p[1] and p[1][0] == "seq":
            # grouped sequence under a modifier — (p/q)* — the base
            # relation is the COMPOSITION of the step relations: one
            # hash join per step on the chaining node, before the
            # closure fixpoint. Inverse steps swap slots in their scan.
            edge_schema = pa.schema([("src", pa.string()), ("dst", pa.string())])

            def _rename(a: str, b: str):
                def f(batch: pa.Table) -> pa.Table:
                    return batch.rename_columns([a, b])

                return f

            base = None
            for pred, inv in p[1][1]:
                step = store.matches("", pred, "").map_batches(
                    edge_proj(inv), batch_format="pyarrow"
                )
                if base is None:
                    base = step
                    continue
                base = dstore.hash_join(
                    base.map_batches(
                        _rename("src", "__m"), batch_format="pyarrow"
                    ),
                    step.map_batches(
                        _rename("__m", "dst"), batch_format="pyarrow"
                    ),
                    on=["__m"],
                    how="inner",
                    schemas=(
                        pa.schema(
                            [("src", pa.string()), ("__m", pa.string())]
                        ),
                        pa.schema(
                            [("__m", pa.string()), ("dst", pa.string())]
                        ),
                    ),
                ).map_batches(
                    lambda b: b.select(["src", "dst"]),
                    batch_format="pyarrow",
                )
        else:
            parts = [
                store.matches("", pred, "").map_batches(
                    edge_proj(inv), batch_format="pyarrow"
                )
                for pred, inv in p[1]
            ]
            base = parts[0]
            for extra in parts[1:]:
                base = base.union(extra)
        out_vars: list[str] = []
        if s.startswith("?"):
            out_vars.append(s[1:])
        if o.startswith("?") and o != s:
            out_vars.append(o[1:])
        if not out_vars:
            raise SparqlUnsupportedError(
                "fully-bound patterns (ASK semantics) are not supported"
            )

        def swapped(batch: pa.Table) -> pa.Table:
            return pa.table({"src": batch["dst"], "dst": batch["src"]})

        if kind == "zeroone":
            closure = base
        elif not s.startswith("?"):
            closure = transitive_closure(base, sources=[s])
        elif not o.startswith("?"):
            # seed at the ground object: close the reversed relation
            # from o, then swap the pairs back
            closure = transitive_closure(
                base.map_batches(swapped, batch_format="pyarrow"),
                sources=[o],
            ).map_batches(swapped, batch_format="pyarrow")
        else:
            closure = transitive_closure(base)

        if kind in ("closure0", "zeroone"):
            if not s.startswith("?"):
                zero = ray.data.from_arrow(
                    pa.table({"src": [s], "dst": [s]})
                )
            elif not o.startswith("?"):
                zero = ray.data.from_arrow(
                    pa.table({"src": [o], "dst": [o]})
                )
            else:

                def node_proj(batch: pa.Table) -> pa.Table:
                    n = pa.chunked_array(
                        [
                            *batch[tr.SUBJECT].chunks,
                            *batch[tr.OBJECT].chunks,
                        ]
                    )
                    return pa.table({"src": n})

                nodes = dstore.distinct_on(
                    store.matches("", "", "").map_batches(
                        node_proj, batch_format="pyarrow"
                    ),
                    ["src"],
                )

                def reflexive(batch: pa.Table) -> pa.Table:
                    return pa.table(
                        {"src": batch["src"], "dst": batch["src"]}
                    )

                zero = nodes.map_batches(reflexive, batch_format="pyarrow")
            # the zero-length pair can coincide with a cycle in the
            # closure (or a self-loop edge), and alternative choices
            # can emit one pair twice — path modifiers are defined on
            # DISTINCT node pairs, so dedup the union
            closure = dstore.distinct_on(
                closure.union(zero), ["src", "dst"]
            )

        def finish(batch: pa.Table) -> pa.Table:
            t = batch
            if not s.startswith("?"):
                t = t.filter(pc.equal(t["src"], s))
            if not o.startswith("?"):
                t = t.filter(pc.equal(t["dst"], o))
            elif o == s:
                t = t.filter(pc.equal(t["src"], t["dst"]))
            cols = {}
            if s.startswith("?"):
                cols[s[1:]] = t["src"]
            if o.startswith("?") and o != s:
                cols[o[1:]] = t["dst"]
            return pa.table(cols)

        return closure.map_batches(finish, batch_format="pyarrow"), out_vars
    if not isinstance(p, str):
        # canonical column order: subject-position var first, then the
        # object var — identical for every choice, so the union is
        # well-typed
        ordered = []
        for t in (s, o):
            if t.startswith("?") and t[1:] not in ordered:
                ordered.append(t[1:])
        parts = []
        for pred, inv in p:
            sub = (o, pred, s) if inv else (s, pred, o)
            ds_c, _ = _pattern_bindings(store, sub)
            parts.append(ds_c.select_columns(ordered))
        ds = parts[0]
        for extra in parts[1:]:
            ds = ds.union(extra)
        return ds, ordered
    slots = list(zip(tr.COLUMNS, pat))
    fixed = {col: term for col, term in slots if not term.startswith("?")}
    ds = store.matches(
        fixed.get(tr.SUBJECT, ""),
        fixed.get(tr.PREDICATE, ""),
        fixed.get(tr.OBJECT, ""),
    )
    var_cols: dict[str, list[str]] = {}
    for col, term in slots:
        if term.startswith("?"):
            var_cols.setdefault(term[1:], []).append(col)


    def project(batch: pa.Table) -> pa.Table:
        # repeated variable within one pattern (?x ?p ?x) → equality
        mask = None
        for cols in var_cols.values():
            for extra in cols[1:]:
                eq = pc.equal(batch[cols[0]], batch[extra])
                mask = eq if mask is None else pc.and_(mask, eq)
        if mask is not None:
            batch = batch.filter(mask)
        return pa.table({v: batch[cols[0]] for v, cols in var_cols.items()})

    return ds.map_batches(project, batch_format="pyarrow"), list(var_cols)


def _vars_schema(vars_: list[str]) -> "pa.Schema":
    """Every binding column is a term STRING by construction (the
    engine's NTriples encoding), so join schemas are statically known —
    passing them to hash_join skips its Dataset.schema() probes, each
    of which would EXECUTE the accumulated lazy join plan once just to
    re-learn this schema (one extra full execution per BGP pattern)."""
    return pa.schema([(v, pa.string()) for v in vars_])


def _star_columns(q: _Query) -> list[str]:
    """The variable list a SELECT * body projects, derived statically.

    Mirrors the executor's runtime ``bound`` construction order —
    pattern slots in appearance order (union branches when the group is
    a UNION), then OPTIONAL groups, then subquery projections, then
    BIND aliases — with hidden property-path vars (``__ppN``) excluded,
    exactly like the top-level ``SELECT *`` projection. Static
    derivation means a ``{ SELECT * ... }`` subquery never needs a
    schema probe (which would execute its plan a second time)."""
    cols: list[str] = []

    def add(slot: str) -> None:
        if slot.startswith("?") and not slot[1:].startswith("__pp"):
            if slot[1:] not in cols:
                cols.append(slot[1:])

    def add_pats(pats) -> None:
        for pat in pats:
            for slot in pat:
                add(slot)

    add_pats(q.patterns)
    for grp in q.union_groups:
        add_pats(grp)

    def add_opt(grp: _OptGroup) -> None:
        add_pats(grp.patterns)
        for child in grp.children:
            add_opt(child)

    for grp in q.optionals:
        add_opt(grp)
    for sub_text in q.subqueries:
        sub_q = parse(sub_text)
        for v in (
            _star_columns(sub_q) if sub_q.select == ["*"] else sub_q.select
        ):
            add("?" + v)
    for _, alias in q.binds:
        add("?" + alias)
    if not cols:
        raise SparqlUnsupportedError("SELECT * found no projectable variables")
    return cols


def _join_patterns(
    store: "dstore.DatasetGraphStore", patterns
) -> tuple[ray.data.Dataset, list[str]]:
    """Compile a connected pattern group into one bindings Dataset:
    each pattern scans, then inner hash joins on the shared variables."""
    joined: ray.data.Dataset | None = None
    bound: list[str] = []
    for pat in patterns:
        ds, vars_ = _pattern_bindings(store, pat)
        # Pin each pattern's bindings: a BGP join plan that embeds N
        # copies of the store's (possibly union-shaped) build DAG under
        # one streaming executor starves the hot branch (the repo's
        # union+all-to-all lesson); the pinned table is the BINDINGS
        # (pattern-pruned), not the corpus, and the join exchange would
        # materialize it anyway.
        ds = ds.materialize()
        if not vars_:
            raise SparqlUnsupportedError(
                "fully-bound patterns (ASK semantics) are not supported"
            )
        if joined is None:
            joined, bound = ds, vars_
            continue
        shared = [v for v in vars_ if v in bound]
        if not shared:
            raise SparqlUnsupportedError(
                f"pattern {pat} shares no variable with the preceding "
                "patterns — cartesian products are refused"
            )
        joined = dstore.hash_join(
            joined,
            ds,
            on=shared,
            how="inner",
            schemas=(_vars_schema(bound), _vars_schema(vars_)),
        )
        bound += [v for v in vars_ if v not in bound]
    return joined, bound


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


def sparql_select(
    store: "dstore.DatasetGraphStore", query: str
) -> ray.data.Dataset:
    """Execute a SPARQL SELECT (see module doc for the subset) against
    the store; returns a Dataset with one column per selected variable,
    values in the engine's NTriples term encoding (optional-only
    variables are NULL on rows their group did not match)."""
    q = parse(query)
    if q.union_groups:
        # bag union (SPARQL UNION keeps duplicates): each branch is an
        # independent BGP join; the strict subset requires identical
        # variable sets so the union is well-typed with no null padding
        branches = [_join_patterns(store, grp) for grp in q.union_groups]
        # hidden property-path vars (__ppN) are per-branch plumbing and
        # excluded from the same-variables typing rule and the union
        bound = [v for v in branches[0][1] if not v.startswith("__pp")]
        for _, vars_ in branches[1:]:
            visible = {v for v in vars_ if not v.startswith("__pp")}
            if visible != set(bound):
                raise SparqlUnsupportedError(
                    f"UNION branches bind different variables: "
                    f"{sorted(bound)} vs {sorted(visible)}"
                )
        aligned = [ds.select_columns(bound) for ds, _ in branches]
        joined = aligned[0]
        for ds in aligned[1:]:
            joined = joined.union(ds)
    else:
        joined, bound = _join_patterns(store, q.patterns)

    opt_only: set[str] = set()

    def _eval_optional(grp: _OptGroup):
        """Bottom-up LeftJoin(patterns, child) per nested child —
        SPARQL's LeftJoin(A, LeftJoin(B, C)). Returns (bindings,
        variable list, nullable set): a variable introduced only under
        a nested OPTIONAL may be NULL. An equi-join key that can be
        NULL diverges from SPARQL's compatible-mapping semantics
        (unbound matches anything), so such patterns — exactly the
        non-well-designed ones (Pérez et al. 2009) — are refused with
        a typed error rather than silently misanswered."""
        g_ds, g_vars = _join_patterns(store, grp.patterns)
        nullable: set[str] = set()
        for child in grp.children:
            c_ds, c_vars, c_null = _eval_optional(child)
            shared = [v for v in c_vars if v in g_vars]
            if not shared:
                raise SparqlUnsupportedError(
                    "nested OPTIONAL shares no variable with its "
                    "enclosing group — cartesian products are refused"
                )
            if any(v in c_null or v in nullable for v in shared):
                raise SparqlUnsupportedError(
                    "non-well-designed OPTIONAL nesting: a join "
                    "variable may be unbound on one side"
                )
            g_ds = dstore.hash_join(
                g_ds,
                c_ds,
                on=shared,
                how="left",
                schemas=(_vars_schema(g_vars), _vars_schema(c_vars)),
            )
            new = [v for v in c_vars if v not in g_vars]
            nullable.update(new)
            g_vars += new
        if grp.filters:
            # FILTER inside the OPTIONAL group: on this subset the
            # condition may reference only the group's own variables,
            # which makes Filter(group) THEN LeftJoin(outer, ·, true)
            # exactly SPARQL's LeftJoin(outer, group, C) — an errored
            # (unbound) condition row drops here and the outer row
            # keeps null bindings either way. Conditions over OUTER
            # variables would need a join-time condition and are
            # refused with a typed error.
            fbad = [
                x
                for f in grp.filters
                for x in _vars(f)
                if x not in g_vars
            ]
            if fbad:
                raise SparqlUnsupportedError(
                    "FILTER inside OPTIONAL may reference only the "
                    f"group's own variables; outer refs: {fbad}"
                )
            g_ds = _apply_filters_ds(g_ds, grp.filters)
        return g_ds, g_vars, nullable

    for grp in q.optionals:
        # OPTIONAL { ... } = left outer join of the (internally
        # evaluated, possibly nested) group bindings onto the rows so
        # far; unmatched rows keep null bindings for the group-only
        # variables — exactly SPARQL's OPTIONAL semantics for
        # var-disjoint filters.
        grp_ds, grp_vars, grp_null = _eval_optional(grp)
        shared = [v for v in grp_vars if v in bound]
        if not shared:
            raise SparqlUnsupportedError(
                "OPTIONAL group shares no variable with the required "
                "patterns — cartesian products are refused"
            )
        if any(v in grp_null or v in opt_only for v in shared):
            raise SparqlUnsupportedError(
                "non-well-designed OPTIONAL: a join variable may be "
                "unbound on one side"
            )
        joined = dstore.hash_join(
            joined,
            grp_ds,
            on=shared,
            how="left",
            schemas=(_vars_schema(bound), _vars_schema(grp_vars)),
        )
        new_vars = [v for v in grp_vars if v not in bound]
        opt_only.update(new_vars)
        bound += new_vars

    for sub_text in q.subqueries:
        # { SELECT ... } subquery: executed recursively (full subset —
        # aggregates, GROUP BY, nested paths all work), then ONE
        # bucketed inner hash join on the shared variables brings its
        # projected columns (aggregate aliases included) into the outer
        # scope for FILTER / BIND / SELECT. SELECT * bodies project the
        # statically-derived variable set (pattern slots, union
        # branches, OPTIONAL groups, BIND aliases — hidden path vars
        # excluded), so no schema probe executes the subquery twice.
        sub_q = parse(sub_text)
        sub_cols = (
            _star_columns(sub_q) if sub_q.select == ["*"] else sub_q.select
        )
        shared = [v for v in sub_cols if v in bound]
        if not shared:
            raise SparqlUnsupportedError(
                "subquery shares no variable with the outer patterns"
            )
        joined = dstore.hash_join(
            joined, sparql_select(store, sub_text), on=shared, how="inner"
        )
        bound += [v for v in sub_cols if v not in bound]

    if q.binds:
        # BIND runs after the joins (arguments must be pattern-bound),
        # before FILTER/aggregation so both can use the alias
        for e, alias in q.binds:
            if alias in bound:
                raise SparqlSyntaxError(f"BIND alias ?{alias} already bound")
            missing = [v for v in _vars(e) if v not in bound]
            if missing:
                raise SparqlSyntaxError(f"BIND arguments never bound: {missing}")
            bound.append(alias)
        joined = joined.map_batches(
            _bind_batch, fn_kwargs={"binds": list(q.binds)}, batch_format="pyarrow"
        )

    if q.filters:
        # applied after the BGP joins, while every bound variable is in
        # scope (filters may reference unselected vars) — one streaming
        # map over the conjunction of the constraints
        bad = [x for f in q.filters for x in _vars(f) if x not in bound]
        if bad:
            raise SparqlSyntaxError(f"FILTER variables never bound: {bad}")
        joined = _apply_filters_ds(joined, q.filters)

    for (grp, grp_filters, kind), how in [(g, "semi") for g in q.exists_groups] + [
        (g, "anti") for g in q.minus_groups
    ]:
        # FILTER EXISTS → distributed semi-join; MINUS / FILTER NOT
        # EXISTS → anti-join on the shared variables. On this subset
        # (≥1 shared variable, required-bound, group vars beyond the
        # shared ones purely existential) MINUS and NOT EXISTS coincide.
        # The group's bindings are projected to the shared key and
        # globally deduped first, so the join exchange ships only
        # distinct keys. FILTER conditions inside the group braces:
        # group-internal conditions pre-filter the group bindings;
        # CORRELATED conditions (referencing outer variables, e.g.
        # FILTER(?z != ?o) with ?o outer) run on the joined
        # (outer-keys × group) bindings and the qualifying key set
        # drives the semi/anti join — still only distinct keys on the
        # wire.
        grp_ds, grp_vars = _join_patterns(store, grp)
        shared = [v for v in grp_vars if v in bound and not v.startswith("__pp")]
        if not shared:
            raise SparqlUnsupportedError(
                "MINUS / FILTER [NOT] EXISTS group shares no variable "
                "with the outer patterns — the disjoint-domain case is "
                "refused"
            )
        bad = [v for v in shared if v in opt_only]
        if bad:
            raise SparqlUnsupportedError(
                f"MINUS / FILTER [NOT] EXISTS on OPTIONAL-only "
                f"variables is not supported: {bad}"
            )
        outer_refs: list[str] = []
        if grp_filters:
            fvars = {x for f in grp_filters for x in _vars(f)}
            outer_refs = sorted(v for v in fvars if v not in grp_vars)
            fbad = [
                v
                for v in outer_refs
                if v not in bound or v in opt_only
            ]
            if fbad:
                raise SparqlUnsupportedError(
                    "FILTER inside MINUS / EXISTS references variables "
                    f"that are not required-bound outside: {fbad}"
                )
            if outer_refs and kind == "MINUS":
                # SPARQL 1.1 §8.3.3: a MINUS group is evaluated on its
                # own, so these variables are unbound inside it — the
                # correlated (NOT EXISTS) plan below would be wrong
                raise SparqlUnsupportedError(
                    "FILTER inside MINUS references outer variables "
                    f"{outer_refs}; use FILTER NOT EXISTS for a "
                    "correlated condition"
                )
            if not outer_refs:
                # internal-only condition: pre-filter the group
                grp_ds = _apply_filters_ds(grp_ds, grp_filters)
        if outer_refs:
            need = shared + outer_refs
            outer_keys = dstore.distinct_on(
                joined.select_columns(need), need
            )
            probe = dstore.hash_join(
                outer_keys,
                grp_ds,
                on=shared,
                how="inner",
                schemas=(_vars_schema(need), _vars_schema(grp_vars)),
            )
            qualified = _apply_filters_ds(probe, grp_filters)
            keys = dstore.distinct_on(qualified.select_columns(need), need)
            joined = dstore.hash_join(
                joined,
                keys,
                on=need,
                how=how,
                schemas=(_vars_schema(bound), _vars_schema(need)),
            )
        else:
            keys = dstore.distinct_on(grp_ds.select_columns(shared), shared)
            joined = dstore.hash_join(
                joined,
                keys,
                on=shared,
                how=how,
                schemas=(_vars_schema(bound), _vars_schema(shared)),
            )

    if q.values_clause:
        # postfix VALUES = join against the inline table; ground rows
        # over required-bound variables reduce to one vectorized
        # membership test per batch — an inline broadcast semi-join,
        # no exchange.
        vvars, vrows = q.values_clause
        missing = [v for v in vvars if v not in bound]
        if missing:
            raise SparqlSyntaxError(f"VALUES variables never bound: {missing}")
        bad = [v for v in vvars if v in opt_only]
        if bad:
            raise SparqlUnsupportedError(
                f"VALUES on OPTIONAL-only variables is not supported: {bad}"
            )

        if any(all(c is None for c in row) for row in vrows):
            # a row of only UNDEF cells constrains nothing — the whole
            # VALUES clause is a no-op filter
            apply_values = None
        elif len(vvars) == 1:
            # NOTE both closures bind their captures as DEFAULT ARGS:
            # map_batches executes lazily and this function reassigns
            # names like ``cols`` further down, so a by-reference
            # capture would read the projection's value, not VALUES'.
            def apply_values(
                batch: pa.Table,
                col=vvars[0],
                allowed=pa.array(
                    [r[0] for r in vrows if r[0] is not None],
                    type=pa.string(),
                ),
            ) -> pa.Table:
                return batch.filter(pc.is_in(batch[col], value_set=allowed))

        else:
            # multi-var rows: exact per-row conjunction OR-ed across the
            # (small, inline) row set — no composite-key encoding, so
            # literal content can never alias a row boundary. UNDEF
            # cells place no constraint and drop out of the conjunction.
            def apply_values(
                batch: pa.Table, vr=tuple(vrows), vc=tuple(vvars)
            ) -> pa.Table:
                mask = None
                for row in vr:
                    m = None
                    for c, val in zip(vc, row):
                        if val is None:  # UNDEF wildcard
                            continue
                        eq = pc.equal(batch[c], val)
                        m = eq if m is None else pc.and_(m, eq)
                    if m is None:  # all-UNDEF row (guarded above)
                        m = pa.array([True] * len(batch))
                    mask = m if mask is None else pc.or_(mask, m)
                return batch.filter(pc.fill_null(mask, False))

        if apply_values is not None:
            joined = joined.map_batches(apply_values, batch_format="pyarrow")

    if q.aggregates:
        bad = [v for v in q.group_by if v not in bound] + [
            v for _, v, _ in q.aggregates if v != "*" and v not in bound
        ]
        if bad:
            raise SparqlSyntaxError(f"aggregate/GROUP BY variables never bound: {bad}")
        aggs = list(q.aggregates)
        group_by = list(q.group_by)
        op, var, alias = aggs[0]
        # a DISTINCT aggregate or GROUP_CONCAT needs the raw (keys…, v)
        # rows to reach the final pass — no combiner can collapse them
        # beside the row-collapsing partials of the other aggregates, so
        # the subset allows either only as the sole aggregate; a
        # whole-corpus concat into one string is an anti-scale operation
        if len(aggs) > 1 and any(o.startswith("group_concat") for o, _, _ in aggs):
            raise SparqlUnsupportedError(
                "GROUP_CONCAT cannot be mixed with other aggregates"
            )
        if len(aggs) > 1 and any(o.endswith("_distinct") for o, _, _ in aggs):
            raise SparqlUnsupportedError(
                "a DISTINCT aggregate cannot be mixed with other aggregates"
            )
        if op.startswith("group_concat") and not group_by:
            raise SparqlUnsupportedError(
                "GROUP_CONCAT requires GROUP BY in this subset"
            )
        if group_by:
            partial, final = _aggregate_kernels(aggs, group_by, q.concat_seps)
            joined = dstore.bucketed_group_map(
                joined, group_by, final, partial_fn=partial,
                batch_format="pyarrow",
            )
        else:
            if op.endswith("_distinct"):
                # one global distinct exchange first; over its rows the
                # DISTINCT aggregate IS the plain one
                joined = dstore.distinct_on(joined.select_columns([var]), [var])
                aggs = [(op.removesuffix("_distinct"), var, alias)]
            # whole-result: GROUP BY on no keys — one partial row per
            # block, the same final over them on the driver (1 row out);
            # the partial of an empty table is the identity row, so an
            # empty result still aggregates (COUNT/SUM 0, others unbound)
            partial, final = _aggregate_kernels(aggs, [], q.concat_seps)
            empty = pa.table(
                {v: pa.array([], pa.string()) for _, v, _ in aggs if v != "*"}
            )
            parts = joined.map_batches(partial, batch_format="pyarrow").iter_batches(
                batch_size=None, batch_format="pyarrow"
            )
            joined = ray.data.from_arrow(
                final(
                    pa.concat_tables(
                        [partial(empty), *parts], promote_options="permissive"
                    )
                )
            )
        bound = group_by + [a for _, _, a in aggs]
    elif q.group_by:
        # GROUP BY without aggregates: one solution per group → a
        # distinct projection onto the group keys (the parse pass
        # already pinned select ⊆ group_by). Single bucketed
        # distinct exchange — same plan DISTINCT uses.
        bad = [v for v in q.group_by if v not in bound]
        if bad:
            raise SparqlSyntaxError(f"GROUP BY variables never bound: {bad}")
        gb = list(q.group_by)
        joined = dstore.distinct_on(joined.select_columns(gb), gb)
        bound = gb

    if q.having:
        # post-aggregate filter on the already-computed alias columns
        # (plain numeric columns, no term decode) — streaming
        hv = list(q.having)
        _HCMP = {
            "<": pc.less, ">": pc.greater, "<=": pc.less_equal,
            ">=": pc.greater_equal, "=": pc.equal, "!=": pc.not_equal,
        }

        def apply_having(batch: pa.Table) -> pa.Table:
            mask = None
            for alias, cmp, n in hv:
                m = _HCMP[cmp](batch[alias], n)
                mask = m if mask is None else pc.and_(mask, m)
            return batch.filter(mask)

        joined = joined.map_batches(apply_having, batch_format="pyarrow")

    cols = (
        [v for v in bound if not v.startswith("__pp")]
        if q.select == ["*"]
        else q.select
    )
    missing = [c for c in cols if c not in bound]
    if missing:
        raise SparqlSyntaxError(f"SELECT variables never bound: {missing}")
    out = joined.select_columns(cols)
    if q.distinct:
        out = dstore.distinct_on(out, cols)
    if q.order_by:
        ob_vars = [v for v, _ in q.order_by]
        bad = [v for v in ob_vars if v not in cols]
        if bad:
            raise SparqlUnsupportedError(f"ORDER BY on unselected vars: {bad}")
        out = out.sort(ob_vars, descending=[d for _, d in q.order_by])
    if q.limit is not None:
        if q.offset:
            # OFFSET requires ORDER BY + LIMIT (parse-time rule): the
            # totally-ordered head is at most offset+limit rows — small
            # by construction — so the skip finishes on the driver;
            # Arrow slice keeps the schema even when the result is empty
            head = pa.Table.from_pandas(
                out.limit(q.offset + q.limit).to_pandas(),
                preserve_index=False,
            )
            out = ray.data.from_arrow(head.slice(q.offset))
        else:
            out = out.limit(q.limit)
    return out


# ---------------------------------------------------------------------------
# SPARQL CONSTRUCT: template over SELECT bindings → deduped triple set
# ---------------------------------------------------------------------------


def sparql_construct(
    store: "dstore.DatasetGraphStore", query: str
) -> ray.data.Dataset:
    """``CONSTRUCT { template } WHERE { ... }`` → Dataset(subject,
    predicate, object). The WHERE clause supports the FULL SELECT
    subset (module doc) — the template is parsed here, then the
    remaining tokens are re-synthesized into a ``SELECT *`` query so
    bindings come from the exact same plan as ``sparql_select``.
    CONSTRUCT returns a SET of triples: templates are instantiated per
    binding row, rows with an unbound (OPTIONAL-null) template variable
    are omitted per the spec, and the union is globally deduped."""
    cur = _Cursor(query)
    prefixes = _prologue(cur)
    head = cur.toks[: cur.i]
    if cur.take().upper() != "CONSTRUCT":
        raise SparqlSyntaxError("expected CONSTRUCT {")
    templates = _triples(cur, prefixes, "CONSTRUCT template")
    if not templates:
        raise SparqlSyntaxError("empty CONSTRUCT template")
    if cur.peek().upper() != "WHERE":
        raise SparqlSyntaxError("expected WHERE after the CONSTRUCT template")

    bindings = sparql_select(store, " ".join(head + ["SELECT", "*"] + cur.rest()))

    tvars = {t[1:] for pat in templates for t in pat if t.startswith("?")}
    missing = sorted(tvars - set(bindings.schema().names))
    if missing:
        raise SparqlSyntaxError(
            f"CONSTRUCT template variables never bound: {missing}"
        )
    return dstore.distinct_on(
        bindings.map_batches(
            _instantiate, fn_kwargs={"templates": templates}, batch_format="pyarrow"
        ),
        tr.COLUMNS,
    )


# ---------------------------------------------------------------------------
# SPARQL ASK — the existence forms the reference's store layer generates
# ---------------------------------------------------------------------------


def _parse_ask(text: str):
    """→ (graph|None, [(s,p,o)]) — terms NTriples-encoded, ?vars kept."""
    cur = _Cursor(text)
    prefixes = _prologue(cur)
    if cur.take().upper() != "ASK":
        raise SparqlSyntaxError("expected ASK")
    if cur.peek().upper() == "WHERE":
        cur.take()
    graph, pats = _graph_triples(cur, prefixes, "ASK pattern")
    cur.done()
    if not pats:
        raise SparqlSyntaxError("empty ASK pattern")
    return graph, pats

def sparql_ask(store: "dstore.DatasetGraphStore", query: str) -> bool:
    """``ASK [WHERE] { [GRAPH <g> {] s p o . ... [}] }`` → bool.

    Covers (and generalizes) the two ASK forms the reference's store
    layer generates — graph-nonempty (``blazegraph_store.go:294``,
    backing ``NamespaceExists``/online checks) and ground-triple
    existence (``blazegraph_store.go:419``, backing the checked
    add/delete conflict probes) — plus multi-pattern BGPs.

    Scale shape: every check is pruned at the scan and short-circuits
    at the first empty condition. Ground patterns and single-variable
    patterns are ``matches()`` scans consumed via ``limit(1)`` (the
    streaming executor stops producing once one row exists — no full
    scan, no exchange). Multi-pattern groups are split into connected
    components on shared variables; each component runs the same
    bucketed-hash-join plan as SELECT, consumed via ``limit(1)``.
    Unlike SELECT, DISCONNECTED patterns are allowed: ASK of a
    conjunction needs only per-component non-emptiness, never the
    cartesian product of bindings."""
    graph, pats = _parse_ask(query)
    if graph is not None and graph != store.get_uri():
        raise SparqlUnsupportedError(
            f"ASK targets GRAPH <{graph}>, store is <{store.get_uri()}>"
        )

    ground = [p for p in pats if not any(t.startswith("?") for t in p)]
    varpats = [p for p in pats if any(t.startswith("?") for t in p)]

    # cheapest first: ground existence probes (fully pruned scans)
    for s, p, o in ground:
        if store.matches(s, p, o).limit(1).count() == 0:
            return False

    # connected components over shared variables
    comps: list[list[tuple[str, str, str]]] = []
    compvars: list[set[str]] = []
    for pat in varpats:
        vs = {t[1:] for t in pat if t.startswith("?")}
        hit = [k for k, cv in enumerate(compvars) if cv & vs]
        if not hit:
            comps.append([pat])
            compvars.append(vs)
        else:
            k0 = hit[0]
            comps[k0].append(pat)
            compvars[k0] |= vs
            for k in reversed(hit[1:]):
                comps[k0] += comps.pop(k)
                compvars[k0] |= compvars.pop(k)

    for comp in comps:
        if len(comp) == 1:
            # single pattern: no join, no materialize — stream + limit(1)
            bindings, _ = _pattern_bindings(store, comp[0])
        else:
            bindings, _ = _join_patterns(store, comp)
        if bindings.limit(1).count() == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# SPARQL DESCRIBE — forward concise-bounded description of resources
# ---------------------------------------------------------------------------


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
    cur = _Cursor(query)
    peek, take = cur.peek, cur.take
    prefixes = _prologue(cur)
    head = cur.toks[: cur.i]
    if take().upper() != "DESCRIBE":
        raise SparqlSyntaxError("expected DESCRIBE")

    iris: list[str] = []
    vars_: list[str] = []
    while peek() and peek().upper() != "WHERE":
        tok = peek()
        if tok.startswith("?"):
            vars_.append(take()[1:])
        elif tok.startswith("<") or re.match(r"^[A-Za-z_][\w-]*:[\w-]+$", tok):
            iris.append(_expand(take(), prefixes, "subject"))
        else:
            raise SparqlSyntaxError(f"unexpected DESCRIBE target {tok!r}")
    if not iris and not vars_:
        raise SparqlSyntaxError("DESCRIBE needs at least one target")
    if vars_ and peek().upper() != "WHERE":
        raise SparqlSyntaxError("DESCRIBE with variables requires WHERE")
    if not vars_ and peek():
        raise SparqlUnsupportedError(
            "WHERE on an explicit-IRI DESCRIBE binds nothing — refused"
        )

    triples = store.dataset

    if not vars_:
        wanted = pa.array(sorted(set(iris)), pa.string())

        def filt(batch: pa.Table) -> pa.Table:
    
            subj = batch[tr.SUBJECT].combine_chunks().cast(pa.string())
            return batch.filter(pc.is_in(subj, value_set=wanted))

        return triples.map_batches(filt, batch_format="pyarrow")

    select_q = " ".join(
        head + ["SELECT"] + ["?" + v for v in vars_] + cur.rest()
    )
    bindings = sparql_select(store, select_q)

    def project(col: str):
        def fn(batch: pa.Table) -> pa.Table:
    
            c = batch[col].combine_chunks().cast(pa.string())
            keep = pc.and_(pc.is_valid(c), pc.starts_with(c, "<"))
            return pa.table({tr.SUBJECT: c.filter(keep)})

        return fn

    resources = bindings.map_batches(project(vars_[0]), batch_format="pyarrow")
    for v in vars_[1:]:
        resources = resources.union(
            bindings.map_batches(project(v), batch_format="pyarrow")
        )
    if iris:
        resources = resources.union(
            ray.data.from_arrow(
                pa.table({tr.SUBJECT: pa.array(sorted(set(iris)), pa.string())})
            )
        )
    # left-semi keeps each matching triple exactly once regardless of
    # how many bindings name its subject — no distinct pass needed
    return dstore.hash_join(triples, resources, on=tr.SUBJECT, how="semi")


# ---------------------------------------------------------------------------
# SPARQL UPDATE subset (module doc: the forms the reference generates)
# ---------------------------------------------------------------------------


def _parse_update(text: str):
    """→ ("insert_data"|"delete_data", graph|None, [(s,p,o) ground])
       | ("delete_where", graph|None, [(s,p,o) term-or-'?var')])
       | ("modify", None, (delete tpl, insert tpl, where))"""
    cur = _Cursor(text, "update")
    prefixes = _prologue(cur)
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
        where = _triples(cur, prefixes, "WHERE block")
        cur.done()
        return "modify", None, (del_tpl, ins_tpl, where)
    nxt = cur.take().upper()
    kind = {
        ("INSERT", "DATA"): "insert_data",
        ("DELETE", "DATA"): "delete_data",
        ("DELETE", "WHERE"): "delete_where",
    }.get((verb, nxt))
    if kind is None:
        raise SparqlUnsupportedError(f"unsupported update {verb} {nxt}")
    graph, pats = _graph_triples(cur, prefixes, "update block")
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


def _apply_modify(
    store: "dstore.DatasetGraphStore",
    del_tpl: list[tuple[str, str, str]],
    ins_tpl: list[tuple[str, str, str]],
    where: list[tuple[str, str, str]],
) -> "dstore.DatasetGraphStore":
    """DELETE { tpl } INSERT { tpl } WHERE { BGP } — the SPARQL 1.1
    modify form (either template may be absent). Bindings come from one
    recursive SELECT over the template variables against the ORIGINAL
    store (spec semantics: both templates instantiate against the same
    pre-update state); templates instantiate vectorized over the
    binding batches; deletes apply as ONE bucketed anti hash join on
    the triple key and inserts as union + global dedup. The store is
    functional — a new version is returned, the input untouched."""
    tpl_vars = sorted(
        {t[1:] for trip in del_tpl + ins_tpl for t in trip if t.startswith("?")}
    )
    where_vars = {t[1:] for trip in where for t in trip if t.startswith("?")}
    missing = [v for v in tpl_vars if v not in where_vars]
    if missing:
        raise SparqlSyntaxError(
            f"modify template variables never bound in WHERE: {missing}"
        )
    body = " . ".join(f"{s} {p} {o}" for s, p, o in where)

    if not tpl_vars:
        # ground templates: apply iff the WHERE pattern matches at all
        if not sparql_ask(store, f"ASK {{ {body} }}"):
            return store
        out = store
        if del_tpl:
            out = out.delete_triples_unchecked(_ground_table(del_tpl))
        if ins_tpl:
            out = out.add_triples_unchecked(_ground_table(ins_tpl))
        return out

    bindings = sparql_select(
        store, "SELECT " + " ".join(f"?{v}" for v in tpl_vars) + f" WHERE {{ {body} }}"
    )

    def instantiate(tpl):
        return bindings.map_batches(
            _instantiate, fn_kwargs={"templates": tpl}, batch_format="pyarrow"
        )

    out_ds = store.matches()
    if del_tpl:
        out_ds = dstore.hash_join(
            out_ds,
            dstore.distinct_on(instantiate(del_tpl), tr.COLUMNS),
            on=tr.COLUMNS,
            how="anti",
        )
    out = dstore.DatasetGraphStore(store.get_uri(), out_ds)
    if ins_tpl:
        out = out.add_triples_unchecked(instantiate(ins_tpl))
    return out


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
        return _apply_modify(store, *pats)
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
