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
      FILTER ( ?v = term )            (term equality on the encoded term)
      FILTER ( ?v != term )
      FILTER ( ?v < n | > n | <= n | >= n )   (numeric compare on
                                      xsd:integer literals; non-integer
                                      terms are dropped — the SPARQL
                                      type-error rule)
      FILTER regex ( ?v , "re" )      (RE2 over the encoded term string)
      FILTER ( STR(?v) = "s" )        (term-accessor builtins compiled
      FILTER ( LANG(?v) = "en" )      onto the vectorized T6/T7/T8
      FILTER ( DATATYPE(?v) = xsd:t ) kernels; = / != against a ground
                                      string (IRI for DATATYPE); an
                                      UNBOUND argument accessor yields
                                      "" rather than a SPARQL type
                                      error — documented looser-than-
                                      spec corner of this subset)
      FILTER ( BOUND(?v) )            (null test on the binding column,
      FILTER ( !BOUND(?v) )           for OPTIONAL- or BIND-introduced
                                      vars)
      FILTER ( ?a = ?b | ?a != ?b )   (variable-to-variable term
                                      comparison, one column-vs-column
                                      kernel)
      FILTER ( (c1 || c2) && c3 ... ) (full boolean expression grammar
                                      over the simple conditions above:
                                      arbitrary &&/|| nesting with
                                      SPARQL precedence (&& tighter)
                                      and parentheses; per-condition
                                      vectorized masks combined with
                                      null→false error semantics at
                                      every level; a top-level AND is
                                      flattened into separate streaming
                                      filter masks)
      BIND ( expr AS ?alias )         (expr ∈ STR/LANG/DATATYPE(?v),
                                      UCASE/LCASE (tag-preserving,
                                      literal-only), STRLEN (integer
                                      term), STRLANG/STRDT (construct
                                      tagged/typed literals from
                                      simple literals),
                                      ABS/CEIL/FLOOR/ROUND(?v) — XPath
                                      numeric fns on the dual lane,
                                      fn:round ties toward +inf —
                                      COALESCE(...), ?v, ground term,
                                      or numeric arithmetic a ⊕ b with
                                      ⊕ ∈ {+,-,*,/} and a,b ∈ {?v,
                                      int, decimal}; runs post-join
                                      pre-FILTER; STR/LANG bind plain
                                      literals in term encoding,
                                      DATATYPE binds the <uri> term or
                                      NULL when absent; arithmetic is
                                      dual-lane — pure-integer + - *
                                      rows decode xsd:integer lexicals,
                                      compute in int64 and re-encode an
                                      xsd:integer term; '/' and rows
                                      with xsd:decimal / plain-form
                                      xsd:double operands evaluate on
                                      the exact scale-6 fixed-point
                                      lane (6 fractional digits,
                                      half-away-from-zero rounding
                                      where needed) and bind a
                                      canonical xsd:decimal term —
                                      non-numeric operands, exponent
                                      doubles and >6-digit fractions
                                      bind NULL (SPARQL's
                                      error→unbound), aliases chain
                                      across BINDs)
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
      FILTER ( COALESCE(?a, ?b, t) = term )   (first bound argument —
                                      ground-term defaults allowed —
                                      compared via = / !=)
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

import re
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from . import dataset as dstore
from .. import constants as C
from .. import triples as tr

# encoded xsd:integer literal term → named lexical-value group (shared
# by numeric FILTER and BIND arithmetic)
_INT_LIT_RE = r'^"(?P<v>[+-]?\d+)"\^\^<' + re.escape(C.XSD_INTEGER) + r">$"


def _int_value(col):
    """xsd:integer literal terms → int64; null where a term is not one.
    The lexical may carry a sign (``"+5"``, ``"-5"``); Arrow's cast
    reads no leading ``+``, so it is trimmed first."""
    lex = pc.struct_field(pc.extract_regex(col, _INT_LIT_RE), "v")
    return pc.cast(pc.utf8_ltrim(lex, characters="+"), pa.int64())


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
    r'^"(?P<s>-?)\+?(?P<w>\d+)(?:\.(?P<f>\d{0,6})0*)?"\^\^<(?P<dt>'
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
    import numpy as np

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
    import numpy as np

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
    import numpy as np
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



def _cond_mask(batch: pa.Table, op, var, val):
    """One vectorized FILTER-condition kernel over a bindings batch —
    module-level so the main WHERE clause, OPTIONAL groups and
    EXISTS/MINUS groups all evaluate conditions through the SAME
    code path (SPARQL §17.2 error semantics included)."""
    from ..terms import (
        v_datatype,
        v_is_literal,
        v_is_resource,
        v_language,
        v_value,
    )

    num_ops = {"lt": pc.less, "gt": pc.greater, "le": pc.less_equal,
               "ge": pc.greater_equal}
    _acc = {"str": v_value, "lang": v_language, "dt": v_datatype}
    if op in ("or", "and"):
        # SPARQL's error-handling for logical connectives
        # (§17.2): an error operand yields false unless the
        # other side forces the result — for FILTER purposes
        # (where an error result also drops the row) that is
        # exactly fill_null(False) per operand, at every
        # nesting level
        comb = pc.or_ if op == "or" else pc.and_
        m = None
        for c in var:
            cm = pc.fill_null(_cond_mask(batch, *c), False)
            m = cm if m is None else comb(m, cm)
        return m
    if op == "numcmp":
        # two-sided numeric comparison over computed expressions
        # (FILTER(?a > ?b + 1), FILTER(?a / 2 >= 1.5)): dual
        # lane like BIND arithmetic — the int64 fast lane where
        # the expression is pure-integer, the scale-6 decimal
        # lane for '/', decimal constants and decimal-typed
        # terms; non-numeric or unbound terms → null → row
        # dropped (or false under a boolean connective),
        # SPARQL's type-error rule
        import numpy as np

        key, lexpr, rexpr = var
        use_int = not any(
            e[0] == "/" or any(isinstance(x, tuple) for x in e[1:])
            for e in (lexpr, rexpr)
        )
        int_mask = None
        fn_np = {
            "lt": np.less, "gt": np.greater, "le": np.less_equal,
            "ge": np.greater_equal, "num_eq": np.equal,
            "num_ne": np.not_equal,
        }[key]
        if use_int:

            def _ival(operand):
                if isinstance(operand, int):
                    return pa.scalar(operand, pa.int64())
                return _int_value(batch[operand])

            def _ev(e):
                aop, a, b = e
                if aop is None:
                    return _ival(a)
                return {
                    "+": pc.add, "-": pc.subtract, "*": pc.multiply
                }[aop](_ival(a), _ival(b))

            fn = {
                **num_ops,
                "num_eq": pc.equal,
                "num_ne": pc.not_equal,
            }[key]
            int_mask = fn(_ev(lexpr), _ev(rexpr))

        n = batch.num_rows

        def _dval(operand):
            if isinstance(operand, int):
                return (
                    np.full(n, operand * _DEC_SCALE, np.int64),
                    np.ones(n, bool),
                )
            if isinstance(operand, tuple) and operand[0] == "fnexpr":
                # ABS/CEIL/FLOOR/ROUND over a nested expression
                # (exact scale-6 ints; fn:round ties toward
                # +inf, floor/ceil toward ∓inf)
                _, fn, inner = operand
                xa, xv = _dev(inner)
                S = _DEC_SCALE
                if fn == "abs":
                    return np.abs(xa), xv
                if fn == "floor":
                    return (xa // S) * S, xv
                if fn == "ceil":
                    return -((-xa) // S) * S, xv
                return ((xa + S // 2) // S) * S, xv
            if isinstance(operand, tuple) and operand[0] == "negvar":
                xa, xv = _dec_decode(batch[operand[1]])
                return -xa, xv
            if isinstance(operand, tuple):  # ("dec", unscaled)
                return (
                    np.full(n, operand[1], np.int64),
                    np.ones(n, bool),
                )
            return _dec_decode(batch[operand])

        def _dev(e):
            aop, a, b = e
            xa, xv = _dval(a)
            if aop is None:
                return xa, xv
            ya, yv = _dval(b)
            return _dec_arith(aop, xa, xv, ya, yv)

        la, lv = _dev(lexpr)
        ra, rv = _dev(rexpr)
        dec_mask = pc.if_else(
            pa.array(lv & rv),
            pa.array(fn_np(la, ra)),
            pa.scalar(None, pa.bool_()),
        )
        if int_mask is None:
            return dec_mask
        if isinstance(int_mask, pa.Scalar):  # const-vs-const
            int_mask = pa.array(
                [int_mask.as_py()] * n, pa.bool_()
            )
        return pc.coalesce(int_mask, dec_mask)
    if op in ("veq", "vne"):
        a, b = batch[var[0][1:]], batch[var[1][1:]]
        return (pc.equal if op == "veq" else pc.not_equal)(a, b)
    if op in ("coalesce_eq", "coalesce_ne"):
        co = pc.coalesce(
            *[
                batch[a[1:]] if a.startswith("?") else pa.scalar(a)
                for a in var
            ]
        )
        return (pc.equal if op == "coalesce_eq" else pc.not_equal)(
            co, val
        )
    if op == "coalesce_cmp":
        import numpy as np

        key, args_, u = var
        co = pc.coalesce(
            *[
                batch[a[1:]] if a.startswith("?") else pa.scalar(a)
                for a in args_
            ]
        )
        if isinstance(co, pa.Scalar):  # all-constant COALESCE
            co = pa.array([co.as_py()] * batch.num_rows, pa.string())
        xa, xv = _dec_decode(co)
        fn_np = {
            "lt": np.less, "gt": np.greater,
            "le": np.less_equal, "ge": np.greater_equal,
        }[key]
        # non-numeric / all-unbound rows → false (type error)
        return pa.array(fn_np(xa, u) & xv)
    col = batch[var]
    if op == "eq":
        return pc.equal(col, val)
    if op == "ne":
        return pc.not_equal(col, val)
    if op == "bound":
        return pc.is_valid(col) if val else pc.is_null(col)
    if op == "isnumeric":
        # isNumeric(?v): literal typed xsd:integer/decimal/double —
        # the engine's numeric lane; '!' inverts, unbound stays
        # dropped either way (error-on-unbound)
        m = pc.match_substring_regex(col, _NUMERIC_DT_RE)
        m = m if val else pc.invert(m)
        return pc.and_(m, pc.is_valid(col))
    if op in ("isiri", "isliteral"):
        # T4/T5 term-kind kernels; '!' forms invert the mask
        # (null bindings stay null → row dropped either way,
        # SPARQL's error-on-unbound rule)
        kind = (v_is_resource if op == "isiri" else v_is_literal)(col)
        m = kind if val else pc.invert(kind)
        # the kernels fill null→False; re-drop unbound rows so
        # the '!' form can't resurrect them (error-on-unbound)
        return pc.and_(m, pc.is_valid(col))
    if op == "langmatches":
        tag = pc.utf8_lower(_acc["lang"](col))
        if val == "*":
            return pc.not_equal(tag, "")
        return pc.or_(
            pc.equal(tag, val), pc.starts_with(tag, val + "-")
        )
    if op in ("in", "not_in"):
        # [NOT] IN over SPARQL term equality (encoded term
        # strings); unbound → error → drop on BOTH polarities
        # (is_in fills null→false, so NOT IN must re-drop)
        m = pc.is_in(col, value_set=pa.array(list(val), pa.string()))
        if op == "not_in":
            m = pc.and_(pc.invert(m), pc.is_valid(col))
        return m
    if op == "regex_val":
        # REGEX builtin: RE2 match over the lexical form (T6
        # Value); unbound → null → row dropped (or false under
        # a boolean connective)
        return pc.match_substring_regex(_acc["str"](col), val)
    if op in ("strstarts", "strends", "contains"):
        lex = _acc["str"](col)
        if op == "strstarts":
            return pc.starts_with(lex, val)
        if op == "strends":
            return pc.ends_with(lex, val)
        return pc.match_substring(lex, val)
    if op[:7] == "strlen_":
        ln = pc.utf8_length(_acc["str"](col))
        fn = {"eq": pc.equal, "ne": pc.not_equal, **num_ops}[op[7:]]
        return fn(ln, val)
    if op[:6] in ("lcase_", "ucase_"):
        folded = (pc.utf8_lower if op[0] == "l" else pc.utf8_upper)(
            _acc["str"](col)
        )
        return (pc.equal if op.endswith("_eq") else pc.not_equal)(
            folded, val
        )
    if op[:-3] in _acc and op[-3:] in ("_eq", "_ne"):
        # STR/LANG/DATATYPE builtins → the vectorized T6/T7/T8
        # term-accessor kernels (truth tables pinned by the
        # ported reference test suite)
        acc = _acc[op[:-3]](col)
        return (pc.equal if op.endswith("_eq") else pc.not_equal)(
            acc, val
        )
    if op in num_ops:
        return num_ops[op](_int_value(col), val)
    return pc.match_substring_regex(col, val)


def _filter_vars(op, v) -> list:
    """Variables referenced by one parsed FILTER condition (recursing
    through boolean connectives and computed expressions)."""
    def _fv(v):
        return (
            [a[1:] for a in v if a.startswith("?")]
            if isinstance(v, tuple)
            else [v]
        )

    if op in ("or", "and"):
        return [x for c in v for x in _filter_vars(c[0], c[1])]
    if op == "numcmp":
        def _expr_vars(e):
            out = []
            for x in (e[1], e[2]):
                if isinstance(x, str):
                    out.append(x)
                elif isinstance(x, tuple) and x and x[0] == "fnexpr":
                    out += _expr_vars(x[2])
                elif isinstance(x, tuple) and x and x[0] == "negvar":
                    out.append(x[1])
            return out

        return [x for e in (v[1], v[2]) for x in _expr_vars(e)]
    if op == "coalesce_cmp":
        return [a[1:] for a in v[1] if a.startswith("?")]
    return _fv(v)


def _apply_filters_ds(ds, filters):
    """Apply a list of parsed FILTER conditions to a bindings Dataset
    (AND of the per-condition masks; null mask → row dropped)."""
    flist = list(filters)

    def apply_filters(batch: pa.Table, _f=flist) -> pa.Table:
        mask = None
        for op, var, val in _f:
            m = _cond_mask(batch, op, var, val)
            mask = m if mask is None else pc.and_(mask, m)
        return batch.filter(mask)

    return ds.map_batches(apply_filters, batch_format="pyarrow")



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
    filters: list[tuple[str, str, str]] = field(default_factory=list)
    #         (op, var, value): op ∈ {"eq", "ne", "regex"}
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
    # BIND(expr AS ?alias): (op, arg, alias) with op ∈ {"str", "lang",
    # "dt", "coalesce", "copy", "const", "arith"} — applied after the
    # BGP joins, before FILTER/aggregation; "arith" arg is
    # (⊕, lhs, rhs) with ⊕ ∈ {+,-,*} and operands "?var" | int
    binds: list[tuple[str, object, str]] = field(default_factory=list)
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
    filters: list[tuple[str, str, str]] = []

    def take_filter() -> None:
        # FILTER ( ?v = term ) | FILTER ( ?v != term )
        # | FILTER regex ( ?v , "pattern" )
        # | FILTER [NOT] EXISTS { BGP }
        head = take()
        if head.upper() == "NOT":
            if take().upper() != "EXISTS":
                raise SparqlSyntaxError("expected EXISTS after FILTER NOT")
            minus_groups.append(take_group("FILTER NOT EXISTS"))
            return
        if head.upper() == "EXISTS":
            exists_groups.append(take_group("FILTER EXISTS"))
            return
        if head.lower() == "regex":
            if take() != "(":
                raise SparqlSyntaxError("expected ( after FILTER regex")
            var = take()
            if not var.startswith("?"):
                raise SparqlSyntaxError("FILTER regex needs a ?variable")
            if take() != ",":
                raise SparqlSyntaxError("expected , in FILTER regex")
            pat = take()
            if not (pat.startswith('"') and pat.endswith('"')):
                raise SparqlSyntaxError("FILTER regex needs a plain \"pattern\"")
            if take() != ")":
                raise SparqlSyntaxError("expected ) closing FILTER regex")
            filters.append(("regex", var[1:], pat[1:-1]))
            return
        if head != "(":
            raise SparqlSyntaxError(f"expected ( or regex after FILTER, got {head!r}")

        def _arith_operand():
            # one operand of a numeric FILTER expression:
            # ?var | -?var | [-]int | [-]decimal (decimal and negated
            # variables → the scale-6 lane; ("dec", unscaled) /
            # ("negvar", name) leaves)
            t = take()
            neg = t == "-"
            if neg:
                t = take()
            if t.startswith("?"):
                # unary minus on a variable evaluates on the decimal
                # lane (exact negation; mask-only semantics make the
                # integer/decimal distinction moot in FILTER)
                return ("negvar", t[1:]) if neg else t[1:]
            if _IS_DEC_TOK.fullmatch(t):
                u = _dec_const(t)
                return ("dec", -u if neg else u)
            if not t.isdigit():
                raise SparqlSyntaxError(
                    f"numeric FILTER needs a number or ?variable, got {t!r}"
                )
            return -int(t) if neg else int(t)

        def _arith_expr(first=None):
            # expr := operand (('+'|'-'|'*'|'/') operand)? — represented
            # as (aop|None, a, b|None); operands are bare var names,
            # ints, or ("dec", unscaled) decimal constants
            a = _arith_operand() if first is None else first
            if peek() in ("+", "-", "*", "/"):
                return (take(), a, _arith_operand())
            return (None, a, None)

        def parse_cond() -> tuple:
            # one simple condition, NOT consuming the FILTER's closing )
            var = take()
            up = var.upper()
            want = True
            if up in ("ABS", "CEIL", "FLOOR", "ROUND") and peek() == "(":
                # numeric-function LHS: FN ( arith-expr ) cmp arith-expr
                # — FILTER(ABS(?a - ?b) <= 5); evaluated on the numcmp
                # kernels with the function applied to the inner
                # expression (("fnexpr", fn, inner) operand form)
                take()
                inner = _arith_expr()
                if take() != ")":
                    raise SparqlSyntaxError(f"expected ) closing {up}")
                cmp_keys2 = {"<": "lt", ">": "gt", "<=": "le", ">=": "ge",
                             "=": "num_eq", "!=": "num_ne"}
                cmp = take()
                if cmp not in cmp_keys2:
                    raise SparqlSyntaxError(
                        f"expected a comparison after {up}(...), got {cmp!r}"
                    )
                return (
                    "numcmp",
                    (
                        cmp_keys2[cmp],
                        (None, ("fnexpr", up.lower(), inner), None),
                        _arith_expr(),
                    ),
                    "",
                )
            if var == "!":
                # logical negation: only the unary boolean builtins
                # (BOUND / isIRI / isURI / isLiteral) may follow
                want = False
                var = take()
                up = var.upper()
                if up not in (
                    "BOUND", "ISIRI", "ISURI", "ISLITERAL", "ISNUMERIC"
                ):
                    raise SparqlUnsupportedError(
                        "'!' is only supported before BOUND/isIRI/"
                        f"isURI/isLiteral/isNumeric in FILTER, got {var!r}"
                    )
            if up in ("BOUND", "ISIRI", "ISURI", "ISLITERAL", "ISNUMERIC"):
                # unary boolean builtins: BOUND = null test on the
                # (possibly OPTIONAL-introduced) binding column;
                # isIRI/isURI/isLiteral = the vectorized T4/T5
                # term-kind kernels
                if take() != "(":
                    raise SparqlSyntaxError(f"expected ( after {up}")
                v = take()
                if not v.startswith("?"):
                    raise SparqlSyntaxError(f"{up} needs a ?variable")
                if take() != ")":
                    raise SparqlSyntaxError(f"expected ) closing {up}")
                key = {
                    "BOUND": "bound",
                    "ISIRI": "isiri",
                    "ISURI": "isiri",
                    "ISLITERAL": "isliteral",
                    "ISNUMERIC": "isnumeric",
                }[up]
                return (key, v[1:], 1 if want else 0)
            if up == "LANGMATCHES":
                # LANGMATCHES(LANG(?v), "range") — RFC 4647 basic
                # filtering: case-insensitive exact tag or prefix
                # ("en" matches "en-US"); "*" = any non-empty tag
                if take() != "(":
                    raise SparqlSyntaxError("expected ( after LANGMATCHES")
                if take().upper() != "LANG" or take() != "(":
                    raise SparqlUnsupportedError(
                        "LANGMATCHES' first argument must be LANG(?v)"
                    )
                v = take()
                if not v.startswith("?"):
                    raise SparqlSyntaxError("LANG needs a ?variable")
                if take() != ")":
                    raise SparqlSyntaxError("expected ) closing LANG")
                if take() != ",":
                    raise SparqlSyntaxError("expected , in LANGMATCHES")
                rng = take()
                if not (rng.startswith('"') and rng.endswith('"')) or len(rng) < 3:
                    raise SparqlSyntaxError(
                        'LANGMATCHES needs a non-empty "range"'
                    )
                if take() != ")":
                    raise SparqlSyntaxError("expected ) closing LANGMATCHES")
                return ("langmatches", v[1:], rng[1:-1].lower())
            if up in ("STRSTARTS", "STRENDS", "CONTAINS"):
                # two-arg string builtins over the T6 Value kernel
                # (lexical form for literals, the URI for resources,
                # "" on malformed — so a malformed term simply fails
                # the prefix/suffix/substring test)
                if take() != "(":
                    raise SparqlSyntaxError(f"expected ( after {up}")
                v = take()
                if not v.startswith("?"):
                    raise SparqlSyntaxError(f"{up} needs a ?variable")
                if take() != ",":
                    raise SparqlSyntaxError(f"expected , in {up}")
                pat = take()
                if not (pat.startswith('"') and pat.endswith('"')):
                    raise SparqlSyntaxError(
                        f'{up} needs a plain "string" second argument'
                    )
                if take() != ")":
                    raise SparqlSyntaxError(f"expected ) closing {up}")
                return (up.lower(), v[1:], pat[1:-1])
            if up == "STRLEN":
                # STRLEN(?v) cmp N — UTF-8 codepoint length of the T6
                # Value, compared as an integer
                if take() != "(":
                    raise SparqlSyntaxError("expected ( after STRLEN")
                v = take()
                if not v.startswith("?"):
                    raise SparqlSyntaxError("STRLEN needs a ?variable")
                if take() != ")":
                    raise SparqlSyntaxError("expected ) closing STRLEN")
                bop = take()
                lkey = {"=": "eq", "!=": "ne", "<": "lt", ">": "gt",
                        "<=": "le", ">=": "ge"}.get(bop)
                if lkey is None:
                    raise SparqlUnsupportedError(
                        f"STRLEN() filter comparison {bop!r} not supported"
                    )
                n = take()
                if not n.isdigit():
                    raise SparqlSyntaxError(
                        f"STRLEN comparison needs a non-negative integer, got {n!r}"
                    )
                return (f"strlen_{lkey}", v[1:], int(n))
            if up in ("LCASE", "UCASE"):
                # case-folded string equality over the T6 Value kernel
                if take() != "(":
                    raise SparqlSyntaxError(f"expected ( after {up}")
                v = take()
                if not v.startswith("?"):
                    raise SparqlSyntaxError(f"{up} needs a ?variable")
                if take() != ")":
                    raise SparqlSyntaxError(f"expected ) closing {up}")
                bop = take()
                if bop not in ("=", "!="):
                    raise SparqlUnsupportedError(
                        f"{up}() filter supports = and != only, got {bop!r}"
                    )
                val = take()
                if not (val.startswith('"') and val.endswith('"')):
                    raise SparqlSyntaxError(f'{up}() compares to a plain "string"')
                return (
                    f"{up.lower()}_{'eq' if bop == '=' else 'ne'}",
                    v[1:],
                    val[1:-1],
                )
            if up in ("STR", "LANG", "DATATYPE"):
                # term-accessor builtins compiled onto the vectorized
                # T6/T7/T8 kernels
                if take() != "(":
                    raise SparqlSyntaxError(f"expected ( after {up}")
                v = take()
                if not v.startswith("?"):
                    raise SparqlSyntaxError(f"{up} needs a ?variable")
                if take() != ")":
                    raise SparqlSyntaxError(f"expected ) closing {up}")
                bop = take()
                if bop not in ("=", "!="):
                    raise SparqlUnsupportedError(
                        f"{up}() filter supports = and != only, got {bop!r}"
                    )
                val = take()
                if up == "DATATYPE":
                    val = _expand(val, prefixes, "object")
                    if not (val.startswith("<") and val.endswith(">")):
                        raise SparqlSyntaxError("DATATYPE() compares to an IRI")
                    val = val[1:-1]
                else:
                    if not (val.startswith('"') and val.endswith('"')):
                        raise SparqlSyntaxError(
                            f'{up}() compares to a plain "string"'
                        )
                    val = val[1:-1]
                key = {"STR": "str", "LANG": "lang", "DATATYPE": "dt"}[up]
                return (f"{key}_{'eq' if bop == '=' else 'ne'}", v[1:], val)
            if up == "REGEX":
                # REGEX(?v, "pattern"[, "flags"]) — RE2 (the engine of
                # both pyarrow and DuckDB) over the T6 Value kernel
                # (lexical form for literals, the URI for resources).
                # An explicit STR(?v) first argument is accepted with
                # identical semantics. Flags: i / s / m, compiled into
                # an inline (?ism) group.
                if take() != "(":
                    raise SparqlSyntaxError("expected ( after REGEX")
                v = take()
                if v.upper() == "STR":
                    if take() != "(":
                        raise SparqlSyntaxError("expected ( after STR")
                    v = take()
                    if take() != ")":
                        raise SparqlSyntaxError("expected ) closing STR")
                if not v.startswith("?"):
                    raise SparqlSyntaxError("REGEX needs a ?variable")
                if take() != ",":
                    raise SparqlSyntaxError("expected , in REGEX")
                pat = take()
                if not (pat.startswith('"') and pat.endswith('"')):
                    raise SparqlSyntaxError('REGEX needs a plain "pattern"')
                pat = pat[1:-1]
                nxt = take()
                if nxt == ",":
                    fl = take()
                    if not (fl.startswith('"') and fl.endswith('"')):
                        raise SparqlSyntaxError('REGEX flags must be a "string"')
                    fl = fl[1:-1]
                    if set(fl) - set("ims"):
                        raise SparqlUnsupportedError(
                            f"REGEX flags {fl!r} not supported (i, m, s only)"
                        )
                    if fl:
                        pat = f"(?{fl})" + pat
                    nxt = take()
                if nxt != ")":
                    raise SparqlSyntaxError("expected ) closing REGEX")
                return ("regex_val", v[1:], pat)
            if up == "COALESCE":
                # COALESCE(?a, ?b, "default") cmp term — first bound
                # argument (ground-term defaults allowed)
                if take() != "(":
                    raise SparqlSyntaxError("expected ( after COALESCE")
                args: list[str] = []
                while True:
                    t = take()
                    if t == "-" and (
                        peek().isdigit() or _IS_DEC_TOK.fullmatch(peek())
                    ):
                        t = "-" + take()
                    body = t[1:] if t.startswith("-") else t
                    if t.startswith("?"):
                        args.append(t)
                    elif body.isdigit():
                        # bare numeric default → typed integer literal
                        args.append(f'"{t}"^^<{C.XSD_INTEGER}>')
                    elif _IS_DEC_TOK.fullmatch(body):
                        args.append(f'"{t}"^^<{C.XSD_DECIMAL}>')
                    else:
                        args.append(_expand(t, prefixes, "object"))
                    nxt = take()
                    if nxt == ")":
                        break
                    if nxt != ",":
                        raise SparqlSyntaxError("expected , or ) in COALESCE")
                if not any(a.startswith("?") for a in args):
                    raise SparqlSyntaxError(
                        "COALESCE needs at least one ?variable"
                    )
                bop = take()
                if bop in ("<", ">", "<=", ">="):
                    # numeric comparison of the coalesced term against
                    # a number — decoded on the exact decimal lane
                    nt = take()
                    neg = nt == "-"
                    if neg:
                        nt = take()
                    if nt.isdigit():
                        u = int(nt) * _DEC_SCALE
                    elif _IS_DEC_TOK.fullmatch(nt):
                        u = _dec_const(nt)
                    else:
                        raise SparqlSyntaxError(
                            "COALESCE numeric comparison needs a number "
                            f"on the right, got {nt!r}"
                        )
                    key = {"<": "lt", ">": "gt", "<=": "le", ">=": "ge"}[bop]
                    return (
                        "coalesce_cmp",
                        (key, tuple(args), -u if neg else u),
                        "",
                    )
                if bop not in ("=", "!="):
                    raise SparqlUnsupportedError(
                        "COALESCE() filter supports = != < > <= >= only"
                    )
                val = _expand(take(), prefixes, "object")
                if val.startswith("?"):
                    raise SparqlUnsupportedError(
                        "variable-to-variable COALESCE FILTER not supported"
                    )
                return (
                    "coalesce_eq" if bop == "=" else "coalesce_ne",
                    tuple(args),
                    val,
                )
            if var == "-" and peek().startswith("?"):
                # leading unary minus: -?v [⊕ operand] cmp expr — the
                # negated variable evaluates on the decimal lane
                negop = ("negvar", take()[1:])
                if peek() in ("+", "-", "*", "/"):
                    lexpr = (take(), negop, _arith_operand())
                else:
                    lexpr = (None, negop, None)
                cmp = take()
                if cmp not in ("<", ">", "<=", ">=", "=", "!="):
                    raise SparqlSyntaxError(
                        f"expected a comparison after -?var, got {cmp!r}"
                    )
                cmp_key = {"<": "lt", ">": "gt", "<=": "le", ">=": "ge",
                           "=": "num_eq", "!=": "num_ne"}[cmp]
                return ("numcmp", (cmp_key, lexpr, _arith_expr()), "")
            if not var.startswith("?"):
                raise SparqlSyntaxError("FILTER needs a ?variable on the left")
            op = take()
            if op.upper() in ("IN", "NOT"):
                # ?x [NOT] IN (term, ...) — SPARQL term equality against
                # a ground-term list, one vectorized is_in kernel
                neg = op.upper() == "NOT"
                if neg and take().upper() != "IN":
                    raise SparqlSyntaxError("expected IN after NOT in FILTER")
                if take() != "(":
                    raise SparqlSyntaxError("expected ( after IN")
                items: list[str] = []
                while True:
                    t = take()
                    if t == ")" and not items:
                        break  # empty list is legal: IN () = false
                    if t.startswith("?"):
                        raise SparqlUnsupportedError(
                            "variables in a FILTER IN list are not supported"
                        )
                    items.append(_expand(t, prefixes, "object"))
                    nxt = take()
                    if nxt == ")":
                        break
                    if nxt != ",":
                        raise SparqlSyntaxError("expected , or ) in IN list")
                return ("not_in" if neg else "in", var[1:], tuple(items))
            cmp_keys = {"<": "lt", ">": "gt", "<=": "le", ">=": "ge",
                        "=": "num_eq", "!=": "num_ne"}
            if op in ("+", "-", "*", "/"):
                # computed LHS: ?a ⊕ t cmp expr — evaluated on the
                # BIND-arithmetic decode kernels (integer fast lane +
                # the scale-6 decimal lane for '/' and decimal operands)
                lexpr = (op, var[1:], _arith_operand())
                cmp = take()
                if cmp not in cmp_keys:
                    raise SparqlSyntaxError(
                        f"expected a comparison after FILTER arithmetic, "
                        f"got {cmp!r}"
                    )
                return ("numcmp", (cmp_keys[cmp], lexpr, _arith_expr()), "")
            if op in ("<", ">", "<=", ">="):
                # numeric comparison over xsd:integer typed literals;
                # non-integer terms drop (the SPARQL type-error rule).
                # RHS may be a computed expression (?b + 1) or ?var —
                # those route to the two-sided numcmp kernel; a plain
                # integer keeps the original single-column kernel
                rexpr = _arith_expr()
                if rexpr[0] is None and isinstance(rexpr[1], int):
                    return (cmp_keys[op], var[1:], rexpr[1])
                return (
                    "numcmp",
                    (cmp_keys[op], (None, var[1:], None), rexpr),
                    "",
                )
            if op not in ("=", "!="):
                raise SparqlUnsupportedError(f"unsupported FILTER operator {op!r}")
            nxt = take()
            if peek() in ("+", "-", "*", "/") and (
                nxt.startswith("?") or nxt.isdigit()
                or _IS_DEC_TOK.fullmatch(nxt)
            ):
                # computed RHS numeric equality: ?a = ?b + 1
                if nxt.startswith("?"):
                    first = nxt[1:]
                elif nxt.isdigit():
                    first = int(nxt)
                else:
                    first = ("dec", _dec_const(nxt))
                rexpr = _arith_expr(first=first)
                return (
                    "numcmp",
                    (cmp_keys[op], (None, var[1:], None), rexpr),
                    "",
                )
            if _IS_DEC_TOK.fullmatch(nxt):
                # ?a = 1.5 — numeric value equality via the decimal lane
                return (
                    "numcmp",
                    (
                        cmp_keys[op],
                        (None, var[1:], None),
                        (None, ("dec", _dec_const(nxt)), None),
                    ),
                    "",
                )
            val = _expand(nxt, prefixes, "object")
            if val.startswith("?"):
                # variable-to-variable term comparison: one vectorized
                # column-vs-column kernel
                return ("veq" if op == "=" else "vne", (var, val), "")
            return ("eq" if op == "=" else "ne", var[1:], val)

        # full boolean expression grammar over the simple conditions
        # (SPARQL 1.1 §17.2 ConditionalOrExpression — && binds tighter
        # than ||, parens nest arbitrarily):
        #   or_expr  := and_expr ('||' and_expr)*
        #   and_expr := primary ('&&' primary)*
        #   primary  := '(' or_expr ')' | condition
        # represented as ("and"/"or", (children...), "") nodes over the
        # flat condition tuples; cond_mask evaluates them recursively.
        # A top-level AND list is flattened into separate filter entries
        # (each its own vectorized mask, ANDed streaming — the same
        # physical plan as multiple FILTER clauses).
        def parse_primary() -> tuple:
            if peek() == "(":
                take()
                e = parse_or()
                if take() != ")":
                    raise SparqlSyntaxError("expected ) closing FILTER group")
                return e
            return parse_cond()

        def parse_and() -> tuple:
            kids = [parse_primary()]
            while peek() == "&&":
                take()
                kids.append(parse_primary())
            return kids[0] if len(kids) == 1 else ("and", tuple(kids), "")

        def parse_or() -> tuple:
            kids = [parse_and()]
            while peek() == "||":
                take()
                kids.append(parse_and())
            return kids[0] if len(kids) == 1 else ("or", tuple(kids), "")

        expr = parse_or()
        if take() != ")":
            raise SparqlSyntaxError("expected ) closing FILTER")
        if expr[0] == "and":
            filters.extend(expr[1])
        else:
            filters.append(expr)

    optionals: list[_OptGroup] = []
    minus_groups: list[tuple[list, list, str]] = []
    exists_groups: list[tuple[list, list, str]] = []
    binds: list[tuple[str, object, str]] = []
    subqueries: list[str] = []

    def take_bind() -> None:
        # BIND ( expr AS ?alias ) with expr one of: STR/LANG/DATATYPE
        # (?v), COALESCE(arg, ...), ?v (copy), or a ground term (const)
        if take() != "(":
            raise SparqlSyntaxError("expected ( after BIND")
        t = take()
        up = t.upper()
        if up in ("STR", "LANG", "DATATYPE"):
            if take() != "(":
                raise SparqlSyntaxError(f"expected ( after {up}")
            v = take()
            if not v.startswith("?"):
                raise SparqlSyntaxError(f"{up} needs a ?variable")
            if take() != ")":
                raise SparqlSyntaxError(f"expected ) closing {up}")
            op, arg = {"STR": "str", "LANG": "lang", "DATATYPE": "dt"}[up], v
        elif up in ("UCASE", "LCASE", "STRLEN"):
            # string builtins in BIND: UCASE/LCASE preserve the
            # language tag (SPARQL §17.4.3) and are defined over
            # plain/lang-tagged literals only (typed literals and
            # resources → error→unbound); STRLEN binds the xsd:integer
            # length of the T6 Value (same kernel as the FILTER form)
            if take() != "(":
                raise SparqlSyntaxError(f"expected ( after {up}")
            v = take()
            if not v.startswith("?"):
                raise SparqlSyntaxError(f"{up} needs a ?variable")
            if take() != ")":
                raise SparqlSyntaxError(f"expected ) closing {up}")
            op, arg = up.lower(), v
        elif up in ("STRLANG", "STRDT"):
            # STRLANG(?v, "tag") / STRDT(?v, <dt>): construct a tagged
            # / typed literal from a SIMPLE literal (anything else →
            # error→unbound, per the SPARQL builtin definitions)
            if take() != "(":
                raise SparqlSyntaxError(f"expected ( after {up}")
            v = take()
            if not v.startswith("?"):
                raise SparqlSyntaxError(f"{up} needs a ?variable first")
            if take() != ",":
                raise SparqlSyntaxError(f"expected , in {up}")
            second = take()
            if up == "STRLANG":
                if not (second.startswith('"') and second.endswith('"')):
                    raise SparqlSyntaxError(
                        'STRLANG needs a plain "tag" second argument'
                    )
                sec = second[1:-1]
            else:
                sec = _expand(second, prefixes, "object")
                if not sec.startswith("<"):
                    raise SparqlSyntaxError(
                        "STRDT needs a datatype IRI second argument"
                    )
                sec = sec[1:-1]
            if take() != ")":
                raise SparqlSyntaxError(f"expected ) closing {up}")
            op, arg = up.lower(), (v, sec)
        elif up in ("YEAR", "MONTH", "DAY", "HOURS", "MINUTES", "SECONDS"):
            # date/time accessors (SPARQL §17.4.5) over xsd:date /
            # xsd:dateTime literals — bind the component as an
            # xsd:integer term (SECONDS: xsd:decimal); non-date
            # bindings → error→unbound
            # (HOURS/MINUTES/SECONDS additionally need the time part,
            # so they are unbound on plain xsd:date)
            if take() != "(":
                raise SparqlSyntaxError(f"expected ( after {up}")
            v = take()
            if not v.startswith("?"):
                raise SparqlSyntaxError(f"{up} needs a ?variable")
            if take() != ")":
                raise SparqlSyntaxError(f"expected ) closing {up}")
            op, arg = "datefn", (up.lower(), v)
        elif up in ("MD5", "SHA256"):
            # hash builtins (SPARQL §17.4.4): hex digest of a simple
            # literal, as a simple literal — document fingerprinting
            # straight inside the query. MD5(?v) hashes the lexical
            # form of a literal binding (other bindings →
            # error→unbound); MD5(STR(?v)) hashes STR's value, so an
            # IRI binding hashes its IRI string
            if take() != "(":
                raise SparqlSyntaxError(f"expected ( after {up}")
            v = take()
            via_str = v.upper() == "STR"
            if via_str:
                if take() != "(":
                    raise SparqlSyntaxError("expected ( after STR")
                v = take()
                if not v.startswith("?"):
                    raise SparqlSyntaxError("STR needs a ?variable")
                if take() != ")":
                    raise SparqlSyntaxError("expected ) closing STR")
            if not v.startswith("?"):
                raise SparqlSyntaxError(f"{up} needs a ?variable")
            if take() != ")":
                raise SparqlSyntaxError(f"expected ) closing {up}")
            op, arg = "hash", (up.lower(), v, via_str)
        elif up in ("ABS", "CEIL", "FLOOR", "ROUND"):
            # XPath numeric builtins over the dual numeric lane:
            # integer-typed rows pass through ABS as xsd:integer (CEIL/
            # FLOOR/ROUND are identities on integers); decimal rows
            # evaluate on the scale-6 lane and bind xsd:decimal (ROUND
            # ties toward +inf per fn:round, FLOOR/CEIL toward ∓inf);
            # non-numeric rows bind NULL (error→unbound)
            if take() != "(":
                raise SparqlSyntaxError(f"expected ( after {up}")
            v = take()
            if not v.startswith("?"):
                raise SparqlSyntaxError(f"{up} needs a ?variable")
            if take() != ")":
                raise SparqlSyntaxError(f"expected ) closing {up}")
            op, arg = "numfn", (up.lower(), v)
        elif up == "COALESCE":
            if take() != "(":
                raise SparqlSyntaxError("expected ( after COALESCE")
            args: list[str] = []
            while True:
                a = take()
                args.append(a if a.startswith("?") else _expand(a, prefixes, "object"))
                nxt = take()
                if nxt == ")":
                    break
                if nxt != ",":
                    raise SparqlSyntaxError("expected , or ) in COALESCE")
            op, arg = "coalesce", tuple(args)
        elif up == "CONCAT":
            # CONCAT(part, ...) — parts are ?vars (contributing their
            # T6 Value, i.e. STR(?v)) or plain "string" constants;
            # result is a plain literal, unbound if any var is unbound
            if take() != "(":
                raise SparqlSyntaxError("expected ( after CONCAT")
            parts: list[tuple[str, str]] = []
            while True:
                a = take()
                if a.upper() == "STR" and peek() == "(":
                    # CONCAT(STR(?v), ...) — the explicit idiom; a bare
                    # ?v already contributes its T6 Value (= STR), so
                    # the wrapper just unwraps
                    take()
                    a = take()
                    if not a.startswith("?"):
                        raise SparqlSyntaxError("STR needs a ?variable")
                    if take() != ")":
                        raise SparqlSyntaxError("expected ) closing STR")
                if a.startswith("?"):
                    parts.append(("var", a[1:]))
                elif a.startswith('"') and a.endswith('"'):
                    parts.append(("lit", a[1:-1]))
                else:
                    raise SparqlSyntaxError(
                        "CONCAT parts must be ?variables, STR(?v) or "
                        f'plain "strings", got {a!r}'
                    )
                nxt = take()
                if nxt == ")":
                    break
                if nxt != ",":
                    raise SparqlSyntaxError("expected , or ) in CONCAT")
            op, arg = "concat", tuple(parts)
        elif up == "SUBSTR":
            # SUBSTR(?v, start [, len]) — 1-based character slice of
            # the T6 Value, re-encoded as a plain literal
            if take() != "(":
                raise SparqlSyntaxError("expected ( after SUBSTR")
            v = take()
            if v.upper() == "STR" and peek() == "(":
                # SUBSTR(STR(?v), ...): same unwrap as CONCAT — the
                # slice is over the T6 Value either way
                take()
                v = take()
                if take() != ")":
                    raise SparqlSyntaxError("expected ) closing STR")
            if not v.startswith("?"):
                raise SparqlSyntaxError("SUBSTR needs a ?variable")
            if take() != ",":
                raise SparqlSyntaxError("expected , in SUBSTR")
            start = take()
            if not start.isdigit() or int(start) < 1:
                raise SparqlSyntaxError(
                    f"SUBSTR start must be a positive integer, got {start!r}"
                )
            nxt = take()
            length = None
            if nxt == ",":
                ln = take()
                if not ln.isdigit():
                    raise SparqlSyntaxError(
                        f"SUBSTR length must be an integer, got {ln!r}"
                    )
                length = int(ln)
                nxt = take()
            if nxt != ")":
                raise SparqlSyntaxError("expected ) closing SUBSTR")
            op, arg = "substr", (v[1:], int(start), length)
        elif up == "REPLACE":
            # REPLACE(?v, "regex", "replacement") over the T6 Value
            if take() != "(":
                raise SparqlSyntaxError("expected ( after REPLACE")
            v = take()
            if not v.startswith("?"):
                raise SparqlSyntaxError("REPLACE needs a ?variable")
            strs = []
            for _ in range(2):
                if take() != ",":
                    raise SparqlSyntaxError("expected , in REPLACE")
                t2 = take()
                if not (t2.startswith('"') and t2.endswith('"')):
                    raise SparqlSyntaxError(
                        'REPLACE pattern/replacement must be plain "strings"'
                    )
                strs.append(t2[1:-1])
            if take() != ")":
                raise SparqlSyntaxError("expected ) closing REPLACE")
            op, arg = "replace", (v[1:], strs[0], strs[1])
        elif up in ("STRBEFORE", "STRAFTER"):
            # STRBEFORE/STRAFTER(?v, "sep") — "" when sep is absent
            # (the SPARQL rule)
            if take() != "(":
                raise SparqlSyntaxError(f"expected ( after {up}")
            v = take()
            if not v.startswith("?"):
                raise SparqlSyntaxError(f"{up} needs a ?variable")
            if take() != ",":
                raise SparqlSyntaxError(f"expected , in {up}")
            sep = take()
            if not (sep.startswith('"') and sep.endswith('"')) or len(sep) < 3:
                raise SparqlSyntaxError(
                    f'{up} needs a non-empty plain "string" separator'
                )
            if take() != ")":
                raise SparqlSyntaxError(f"expected ) closing {up}")
            op, arg = up.lower(), (v[1:], sep[1:-1])
        elif up == "IF":
            # IF(?v = term, then, else) — the ternary over SPARQL term
            # equality; then/else are ?vars (term copy) or ground terms
            if take() != "(":
                raise SparqlSyntaxError("expected ( after IF")
            cv = take()
            if not cv.startswith("?"):
                raise SparqlSyntaxError("IF condition needs a ?variable")
            bop = take()
            if bop not in ("=", "!=", ">", "<", ">=", "<="):
                raise SparqlUnsupportedError(
                    f"IF condition supports = != > < >= <=, got {bop!r}"
                )
            ctok = take()
            if bop in (">", "<", ">=", "<="):
                # ordered IF conditions compare on the exact integer
                # lane: the condition value must be a plain integer,
                # the bound term an xsd:integer literal (non-integer →
                # error→unbound per the SPARQL error rule)
                neg = ctok.startswith("-")
                if not (ctok[1:] if neg else ctok).isdigit():
                    raise SparqlUnsupportedError(
                        "ordered IF conditions need an integer constant"
                    )
                cval = int(ctok)
            else:
                cval = _expand(ctok, prefixes, "object")
                if cval.startswith("?"):
                    raise SparqlUnsupportedError(
                        "variable-to-variable IF conditions are not supported"
                    )
            if take() != ",":
                raise SparqlSyntaxError("expected , after IF condition")
            tthen = take()
            if not tthen.startswith("?"):
                tthen = _expand(tthen, prefixes, "object")
            if take() != ",":
                raise SparqlSyntaxError("expected , after IF then-branch")
            telse = take()
            if not telse.startswith("?"):
                telse = _expand(telse, prefixes, "object")
            if take() != ")":
                raise SparqlSyntaxError("expected ) closing IF")
            op, arg = "if", (cv[1:], bop, cval, tthen, telse)
        elif (
            t.startswith("?") or t.isdigit() or _IS_DEC_TOK.fullmatch(t)
        ) and peek() in ("+", "-", "*", "/"):
            # numeric arithmetic: a ⊕ b, operands ?var or unsigned
            # number (negative constants via subtraction). Pure-integer
            # + - * stay on the int64 fast lane; '/' and decimal
            # operands evaluate on the scale-6 fixed-point lane and
            # bind an xsd:decimal term (per-row: an all-integer row of
            # a + - * expression still binds xsd:integer)
            aop = take()

            def _operand(tok: str):
                if tok.startswith("?"):
                    return tok
                if tok.isdigit():
                    return int(tok)
                if _IS_DEC_TOK.fullmatch(tok):
                    return ("dec", _dec_const(tok))
                raise SparqlSyntaxError(
                    "BIND arithmetic operands must be ?variables or "
                    f"numbers, got {tok!r}"
                )

            op, arg = "arith", (aop, _operand(t), _operand(take()))
        elif t.startswith("?"):
            op, arg = "copy", t
        else:
            op, arg = "const", _expand(t, prefixes, "object")
        if take().upper() != "AS":
            raise SparqlSyntaxError("BIND needs AS ?alias")
        alias = take()
        if not alias.startswith("?"):
            raise SparqlSyntaxError("BIND alias must be a ?variable")
        if take() != ")":
            raise SparqlSyntaxError("expected ) closing BIND")
        binds.append((op, arg, alias[1:]))

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
                    filters.append(("ne", pv[1:], pred))
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
    for _, _, alias in q.binds:
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
                for op, v, _ in grp.filters
                for x in _filter_vars(op, v)
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
        # before FILTER/aggregation so both can use the alias. Accessor
        # binds re-enter TERM space: STR/LANG bind a plain literal
        # ("value" — SPARQL's simple-literal return, in the engine's
        # encoding, so FILTER ( ?alias = "x" ) composes), DATATYPE
        # binds the <uri> resource term or NULL (unbound) when the
        # term carries no datatype — BOUND() then works on it.
        from ..terms import (
            v_datatype,
            v_language,
            v_new_literal_term,
            v_value,
        )

        _bacc = {"str": v_value, "lang": v_language, "dt": v_datatype}
        for op, arg, alias in q.binds:
            if alias in bound:
                raise SparqlSyntaxError(f"BIND alias ?{alias} already bound")
            if op == "concat":
                used = [v for kind, v in arg if kind == "var"]
            elif op in ("substr", "replace", "strbefore", "strafter"):
                used = [arg[0]]
            elif op == "if":
                used = [arg[0]] + [
                    t[1:] for t in (arg[3], arg[4]) if t.startswith("?")
                ]
            else:
                args = arg if isinstance(arg, tuple) else (arg,)
                used = [
                    a[1:]
                    for a in args
                    if isinstance(a, str) and a.startswith("?")
                ]
            missing = [a for a in used if a not in bound]
            if missing and op != "const":
                raise SparqlSyntaxError(f"BIND arguments never bound: {missing}")
            bound.append(alias)
        bind_list = list(q.binds)

        def apply_binds(batch: pa.Table) -> pa.Table:
            for op, arg, alias in bind_list:
                if op == "const":
                    col = pa.array([arg] * batch.num_rows, pa.string())
                elif op == "copy":
                    col = batch[arg[1:]]
                elif op == "coalesce":
                    col = pc.coalesce(
                        *[
                            batch[a[1:]] if a.startswith("?") else pa.scalar(a)
                            for a in arg
                        ]
                    )
                elif op == "dt":
                    raw = v_datatype(batch[arg[1:]])
                    enc = pc.binary_join_element_wise("<", raw, ">", "")
                    col = pc.if_else(
                        pc.equal(raw, ""), pa.scalar(None, pa.string()), enc
                    )
                elif op == "concat":
                    # vars contribute their T6 Value (STR); any unbound
                    # var makes the result unbound (error→unbound)
                    parts, valid = [], None
                    for kind, v in arg:
                        if kind == "lit":
                            parts.append(v)
                        else:
                            c = batch[v]
                            parts.append(v_value(c))
                            iv = pc.is_valid(c)
                            valid = iv if valid is None else pc.and_(valid, iv)
                    raw = pc.binary_join_element_wise(*parts, "")
                    if isinstance(raw, (str, pa.Scalar)):  # all-constant
                        raw = pa.array(
                            [raw if isinstance(raw, str) else raw.as_py()]
                            * batch.num_rows,
                            pa.string(),
                        )
                    col = v_new_literal_term(raw)
                    if valid is not None:
                        col = pc.if_else(
                            valid, col, pa.scalar(None, pa.string())
                        )
                elif op == "substr":
                    v, start, length = arg
                    val = v_value(batch[v])
                    if length is None:
                        s = pc.utf8_slice_codeunits(val, start - 1)
                    else:
                        s = pc.utf8_slice_codeunits(
                            val, start - 1, start - 1 + length
                        )
                    col = pc.if_else(
                        pc.is_valid(batch[v]),
                        v_new_literal_term(s),
                        pa.scalar(None, pa.string()),
                    )
                elif op == "replace":
                    v, pat, rep = arg
                    s = pc.replace_substring_regex(
                        v_value(batch[v]), pattern=pat, replacement=rep
                    )
                    col = pc.if_else(
                        pc.is_valid(batch[v]),
                        v_new_literal_term(s),
                        pa.scalar(None, pa.string()),
                    )
                elif op in ("strbefore", "strafter"):
                    import re as _re

                    v, sep = arg
                    val = v_value(batch[v])
                    esc = _re.escape(sep)
                    has = pc.match_substring(val, sep)
                    # one anchored leftmost-match regex replace per
                    # batch: strip from the FIRST separator to the end
                    # (before) / from the start through it (after);
                    # (?s) so values containing newlines still match
                    if op == "strbefore":
                        pat = f"(?s){esc}.*$"
                    else:
                        pat = f"(?s)^.*?{esc}"
                    s = pc.replace_substring_regex(
                        val, pattern=pat, replacement="", max_replacements=1
                    )
                    s = pc.if_else(has, s, pa.scalar(""))
                    col = pc.if_else(
                        pc.is_valid(batch[v]),
                        v_new_literal_term(s),
                        pa.scalar(None, pa.string()),
                    )
                elif op == "if":
                    cv, bop, cval, tthen, telse = arg
                    if bop in (">", "<", ">=", "<="):
                        # ordered condition: exact integer lane — decode
                        # the xsd:integer lexical; non-integer terms →
                        # null mask → null output (error→unbound)
                        mask = {
                            ">": pc.greater, "<": pc.less,
                            ">=": pc.greater_equal, "<=": pc.less_equal,
                        }[bop](_int_value(batch[cv]), cval)
                    else:
                        mask = (pc.equal if bop == "=" else pc.not_equal)(
                            batch[cv], cval
                        )

                    def _side(t):
                        return (
                            batch[t[1:]] if t.startswith("?") else pa.scalar(t)
                        )

                    col = pc.if_else(mask, _side(tthen), _side(telse))
                    if isinstance(col, pa.Scalar):
                        col = pa.array(
                            [col.as_py()] * batch.num_rows, pa.string()
                        )
                elif op == "datefn":
                    # YEAR/MONTH/DAY over xsd:date / xsd:dateTime
                    # terms: one vectorized regex extract of the ISO
                    # lexical, leading zeros dropped by the int cast,
                    # re-encoded as an xsd:integer term (SECONDS as
                    # xsd:decimal); anything else (unbound, non-date)
                    # → null
                    fn, dv = arg
                    grp = {
                        "year": "y", "month": "m", "day": "d",
                        "hours": "hh", "minutes": "mm", "seconds": "ss",
                    }[fn]
                    if fn in ("hours", "minutes", "seconds"):
                        # time components require the T… part (so a
                        # plain xsd:date errors→unbound)
                        pat = (
                            r'^"\d{4}-\d{2}-\d{2}T(?P<hh>\d{2}):'
                            r'(?P<mm>\d{2}):(?P<ss>\d{2}(?:\.\d+)?)'
                            r'[^"]*"\^\^<'
                            + re.escape(C.XSD_DATETIME)
                            + r">$"
                        )
                    else:
                        pat = (
                            r'^"(?P<y>\d{4})-(?P<m>\d{2})-(?P<d>\d{2})'
                            r'(?:T[^"]*)?"\^\^<(?:'
                            + re.escape(C.XSD_DATE)
                            + r"|"
                            + re.escape(C.XSD_DATETIME)
                            + r")>$"
                        )
                    part = pc.struct_field(
                        pc.extract_regex(batch[dv[1:]], pat), grp
                    )
                    if fn == "seconds":
                        # SECONDS is xsd:decimal (fractional seconds
                        # kept) on the scale-6 lane; more than 6
                        # fractional digits → unbound
                        col = _dec_render(
                            *_dec_decode(
                                pc.binary_join_element_wise(
                                    '"', part, f'"^^<{C.XSD_DECIMAL}>', ""
                                )
                            )
                        )
                    else:
                        num = pc.cast(pc.cast(part, pa.int64()), pa.string())
                        col = pc.if_else(
                            pc.is_valid(num),
                            pc.binary_join_element_wise(
                                '"', num, f'"^^<{C.XSD_INTEGER}>', ""
                            ),
                            pa.scalar(None, pa.string()),
                        )
                elif op == "hash":
                    # MD5/SHA256 hex digest of the lexical form of a
                    # LITERAL binding (SPARQL §17.4.4), or of an IRI's
                    # string under STR(); other and unbound rows →
                    # null (error→unbound)
                    import hashlib as _hl

                    from ..terms import v_is_literal as _vil
                    from ..terms import v_is_resource as _vir

                    fn, hv, via_str = arg
                    col_v = batch[hv[1:]]
                    lex = v_value(col_v)
                    hashable = _vil(col_v)
                    if via_str:
                        hashable = pc.or_(hashable, _vir(col_v))
                    vals = []
                    for s, ok in zip(lex.to_pylist(), hashable.to_pylist()):
                        if not ok or s is None:
                            vals.append(None)
                        else:
                            h = getattr(_hl, fn)(s.encode()).hexdigest()
                            vals.append(f'"{h}"')
                    col = pa.array(vals, pa.string())
                elif op in ("ucase", "lcase"):
                    # case-map the lexical form, PRESERVE the language
                    # tag (§17.4.3); defined over plain/lang literals
                    # only — typed literals and resources → unbound
                    from ..terms import v_is_literal

                    col0 = batch[arg[1:]]
                    lex = (pc.utf8_upper if op == "ucase" else pc.utf8_lower)(
                        v_value(col0)
                    )
                    base = v_new_literal_term(lex)  # handles escaping
                    tag = v_language(col0)
                    term = pc.binary_join_element_wise(
                        base,
                        pc.if_else(
                            pc.equal(tag, ""),
                            pa.scalar(""),
                            pc.binary_join_element_wise("@", tag, ""),
                        ),
                        "",
                    )
                    ok = pc.and_(
                        v_is_literal(col0), pc.equal(v_datatype(col0), "")
                    )
                    col = pc.if_else(
                        pc.fill_null(ok, False),
                        term,
                        pa.scalar(None, pa.string()),
                    )
                elif op == "strlen":
                    # xsd:integer length of the T6 Value — the same
                    # kernel the FILTER STRLEN form uses
                    col0 = batch[arg[1:]]
                    n_ = pc.utf8_length(v_value(col0))
                    col = pc.if_else(
                        pc.is_valid(col0),
                        pc.binary_join_element_wise(
                            '"',
                            pc.cast(n_, pa.string()),
                            f'"^^<{C.XSD_INTEGER}>',
                            "",
                        ),
                        pa.scalar(None, pa.string()),
                    )
                elif op in ("strlang", "strdt"):
                    # construct a tagged/typed literal from a SIMPLE
                    # literal by appending to the already-encoded term
                    # (no re-escape needed) — anything else → unbound
                    from ..terms import v_is_literal

                    v, sec = arg
                    col0 = batch[v[1:]]
                    simple = pc.and_(
                        pc.and_(
                            v_is_literal(col0),
                            pc.equal(v_language(col0), ""),
                        ),
                        pc.equal(v_datatype(col0), ""),
                    )
                    suffix = f"@{sec}" if op == "strlang" else f"^^<{sec}>"
                    term = pc.binary_join_element_wise(col0, suffix, "")
                    col = pc.if_else(
                        pc.fill_null(simple, False),
                        term,
                        pa.scalar(None, pa.string()),
                    )
                elif op == "numfn":
                    # ABS/CEIL/FLOOR/ROUND over the dual numeric lane:
                    # integer-typed rows re-encode as xsd:integer (the
                    # rounding fns are identities on integers), decimal
                    # rows evaluate at scale 6 and bind xsd:decimal;
                    # fn:round ties toward +inf, fn:floor/ceiling
                    # toward ∓inf — all exact integer ops
                    import numpy as np

                    fn, var = arg
                    ival_ = _int_value(batch[var[1:]])
                    int_res = pc.abs(ival_) if fn == "abs" else ival_
                    int_col = pc.binary_join_element_wise(
                        '"',
                        pc.cast(int_res, pa.string()),
                        f'"^^<{C.XSD_INTEGER}>',
                        "",
                    )
                    u, uval = _dec_decode(batch[var[1:]])
                    S = _DEC_SCALE
                    if fn == "abs":
                        dres = np.abs(u)
                    elif fn == "floor":
                        dres = (u // S) * S
                    elif fn == "ceil":
                        dres = -((-u) // S) * S
                    else:  # round: half toward +inf (fn:round)
                        dres = ((u + S // 2) // S) * S
                    dec_col = _dec_render(dres, uval)
                    col = pc.coalesce(int_col, dec_col)
                elif op == "arith":
                    # dual lane: the int64 fast lane decodes xsd:integer
                    # lexicals (non-integer terms → null), the scale-6
                    # decimal lane handles '/' and rows with decimal
                    # operands; the per-row coalesce keeps all-integer
                    # + - * rows bit-identical to the pure-integer path
                    # while mixed rows bind an xsd:decimal term.
                    # Non-numeric terms are null in BOTH lanes → unbound
                    # (SPARQL's error→unbound)
                    import numpy as np

                    aop, lhs, rhs = arg
                    int_col = None
                    if aop != "/" and not any(
                        isinstance(x, tuple) for x in (lhs, rhs)
                    ):

                        def ival(operand):
                            if isinstance(operand, int):
                                return pa.scalar(operand, pa.int64())
                            return _int_value(batch[operand[1:]])

                        res = {
                            "+": pc.add, "-": pc.subtract, "*": pc.multiply
                        }[aop](ival(lhs), ival(rhs))
                        int_col = pc.binary_join_element_wise(
                            '"',
                            pc.cast(res, pa.string()),
                            f'"^^<{C.XSD_INTEGER}>',
                            "",
                        )
                        if isinstance(int_col, pa.Scalar):  # const ⊕ const
                            int_col = pa.array(
                                [int_col.as_py()] * batch.num_rows,
                                pa.string(),
                            )

                    n = batch.num_rows

                    def dval(operand):
                        if isinstance(operand, int):
                            return (
                                np.full(n, operand * _DEC_SCALE, np.int64),
                                np.ones(n, bool),
                            )
                        if isinstance(operand, tuple):  # ("dec", unscaled)
                            return (
                                np.full(n, operand[1], np.int64),
                                np.ones(n, bool),
                            )
                        return _dec_decode(batch[operand[1:]])

                    la, lv = dval(lhs)
                    ra, rv = dval(rhs)
                    dvals, dvalid = _dec_arith(aop, la, lv, ra, rv)
                    dec_col = _dec_render(dvals, dvalid)
                    col = (
                        dec_col
                        if int_col is None
                        else pc.coalesce(int_col, dec_col)
                    )
                else:
                    col = v_new_literal_term(_bacc[op](batch[arg[1:]]))
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                batch = batch.append_column(alias, col)
            return batch

        joined = joined.map_batches(apply_binds, batch_format="pyarrow")

    if q.filters:
        # applied after the BGP joins, while every bound variable is in
        # scope (filters may reference unselected vars) — one vectorized
        # kernel per condition via the module-level _cond_mask (shared
        # with OPTIONAL/EXISTS group filters), streaming.
        bad = [
            x for op, v, _ in q.filters for x in _filter_vars(op, v)
            if x not in bound
        ]
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
            fvars = {
                x for op, v, _ in grp_filters for x in _filter_vars(op, v)
            }
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
