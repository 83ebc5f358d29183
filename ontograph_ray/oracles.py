"""DuckDB oracle SQL for each registry query (driver correctness gate).

Every SQL string runs over the pre-registered views (region nation
customer supplier part orders lineitem events documents embeddings) and
must produce the same column names and values as the matching callable
in ontograph_ray.queries. Queries without an entry here are
rows-only-checked by the driver (non-SQL-expressible: model scoring,
sketch internals, stubs).
"""

from __future__ import annotations

import os

from . import constants as C
from .pipelines.curate import curate_oracle_sql as _curate_sql
from .pipelines.kg import kg_oracle_sql, GAZETTEER
from .queries import (
    ACCTBAL,
    CUST_CLASS,
    IN_NATION,
    IN_REGION,
    N_CLASS,
    RDF_TYPE_T,
    SEGMENT,
    TRIPLES_SQL,
)

_T = f"WITH t AS ({TRIPLES_SQL})"


def _sql_div_u(v: str, d: int) -> str:
    """round-half-away-from-zero((v*10^6)/d) as an unscaled scale-6
    BIGINT — the SQL twin of store/sparql.py `_dec_arith` '/' for an
    integer column over a positive integer constant divisor."""
    return (
        f"CASE WHEN ({v}) >= 0 THEN (2*({v})*1000000 + {d}) // (2*{d}) "
        f"ELSE -((2*(-({v}))*1000000 + {d}) // (2*{d})) END"
    )


def _sql_dec_term(r: str) -> str:
    """Unscaled scale-6 BIGINT expr → the engine's canonical
    xsd:decimal term rendering (store/sparql.py `_dec_render`):
    trailing fractional zeros trimmed, one fractional digit minimum."""
    return (
        f"'\"' || (CASE WHEN ({r}) < 0 THEN '-' ELSE '' END) || "
        f"CAST(ABS({r}) // 1000000 AS VARCHAR) || '.' || "
        f"COALESCE(NULLIF(rtrim(printf('%06d', "
        f"CAST(ABS({r}) % 1000000 AS BIGINT)), '0'), ''), '0') || "
        f"'\"^^<{C.XSD_DECIMAL}>'"
    )

# Golden-fixture oracles (scripts/gen_fixtures.py): queries whose ground
# truth is deterministic but involves sha1/crc32 — not ANSI-SQL kernels.
# Each fixture is computed by an INDEPENDENT plain-Python implementation
# (no numpy, no ontograph_ray.stages imports), so the comparison still
# cross-checks the vectorized engine kernels. The simhash fixture is
# exhaustive all-pairs over the sf0.01 documents table — an exact oracle
# for the banding implementation because 4-way 16-bit chunking has
# recall 1.0 at hamming<=3 by pigeonhole — and is only valid at the
# driver's correctness scale (sf=0.01); regenerate with the script if
# the test data changes.
_FIXTURES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures"
)

# --- splitmix64 in ANSI-ish SQL -------------------------------------------
# DuckDB's HUGEINT is a signed 128-bit integer, so (uint64 × uint64)
# overflows; each modular multiply is split into 32-bit halves:
# (a·b) mod 2^64 = ((a mod 2^32)·b + ((⌊a/2^32⌋·b) mod 2^32)·2^32) mod 2^64,
# every intermediate ≤ 2^97. Bit-compatible with store/dataset.splitmix64
# (validated against the numpy kernel for ids 0..9 and the sf0.01 table).
_M64 = 1 << 64
_M32 = 1 << 32


def _mulmod64(a_expr: str, b_const: int) -> str:
    return (
        f"CAST((((CAST({a_expr} AS HUGEINT) % {_M32}) * {b_const} "
        f"+ (((CAST({a_expr} AS HUGEINT) // {_M32}) * {b_const}) % {_M32}) * {_M32}"
        f") % {_M64}) AS UBIGINT)"
    )


def _splitmix64_ctes(src: str, col: str, out: str) -> str:
    """CTE chain ``out`` = ``src`` plus column ``h`` = splitmix64(col)."""
    return f"""
sm0_{out} AS (SELECT *, CAST((CAST({col} AS HUGEINT) + {0x9E3779B97F4A7C15}) % {_M64} AS UBIGINT) AS __z0 FROM {src}),
sm1_{out} AS (SELECT *, {_mulmod64('xor(__z0, __z0 >> 30)', 0xBF58476D1CE4E5B9)} AS __z1 FROM sm0_{out}),
sm2_{out} AS (SELECT *, {_mulmod64('xor(__z1, __z1 >> 27)', 0x94D049BB133111EB)} AS __z2 FROM sm1_{out}),
{out} AS (SELECT * EXCLUDE (__z0, __z1, __z2), xor(__z2, __z2 >> 31) AS h FROM sm2_{out})"""

_GAZ = ", ".join(f"'{g}'" for g in GAZETTEER)
_URLP = "https://docs.example.org/page/"

def _zorder_sql(bits: int = 21) -> str:
    """Morton-interleave twin: bit i of col d lands at position
    i·n_dims + d; values clamped to 2^bits − 1."""
    terms = []
    for i in range(bits):
        terms.append(f"(((u >> {i}) & 1) << {i * 2})")
        terms.append(f"(((h >> {i}) & 1) << {i * 2 + 1})")
    expr = " + ".join(terms)
    cap = (1 << bits) - 1
    return f"""
WITH e AS (SELECT event_id,
                  LEAST(CAST(user_id AS BIGINT), {cap}) AS u,
                  LEAST(epoch_us(ts) // 3600000000, {cap}) AS h
           FROM events)
SELECT event_id, CAST({expr} AS BIGINT) AS zkey FROM e"""


def _cms_sql(width: int = 1024, depth: int = 4, seed: int = 101, n_probe: int = 10) -> str:
    """Count-Min twin: per hash row r, counters = splitmix64(user_id ^
    (seed+r)) % width histogram; estimate = LEAST over rows of the
    probe key's cell (0 when the cell never fired)."""
    ctes = [f"probe AS (SELECT unnest(generate_series(0, {n_probe - 1})) AS u)"]
    ests = []
    for r in range(depth):
        s = seed + r
        ctes.append(
            f"er{r} AS (SELECT xor(CAST(user_id AS UBIGINT), {s}) AS x FROM events)"
        )
        ctes.append(_splitmix64_ctes(f"er{r}", "x", f"eh{r}").lstrip(",\n"))
        ctes.append(
            f"c{r} AS (SELECT h % {width} AS col, COUNT(*) AS n FROM eh{r} GROUP BY col)"
        )
        ctes.append(
            f"pr{r} AS (SELECT u, xor(CAST(u AS UBIGINT), {s}) AS x FROM probe)"
        )
        ctes.append(_splitmix64_ctes(f"pr{r}", "x", f"ph{r}").lstrip(",\n"))
        ctes.append(
            f"e{r} AS (SELECT u, COALESCE(n, 0) AS est FROM ph{r} "
            f"LEFT JOIN c{r} ON c{r}.col = ph{r}.h % {width})"
        )
        ests.append(f"e{r}")
    joins = " ".join(f"JOIN {e} USING (u)" for e in ests[1:])
    least = ", ".join(f"{e}.est" for e in ests)
    return (
        "WITH " + ",\n".join(ctes) + f"""
SELECT u AS user_id, CAST(LEAST({least}) AS BIGINT) AS est_count
FROM {ests[0]} {joins}"""
    )


# retrieval twins, shared by their own entries and the RRF fusion
_TFIDF_SQL = """
WITH p AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
tok AS (SELECT doc_id, UNNEST(toks) AS term FROM p),
q AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf FROM tok
      WHERE term IN ('join', 'table', 'window') GROUP BY doc_id, term),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents),
w AS (SELECT term, ((SELECT n FROM n) * 1000000) // CAST(COUNT(*) AS BIGINT) AS wt
      FROM q GROUP BY term),
s AS (SELECT q.doc_id, CAST(SUM(q.tf * w.wt) AS BIGINT) AS score
      FROM q JOIN w USING (term) GROUP BY q.doc_id)
SELECT doc_id, score FROM s ORDER BY score DESC, doc_id LIMIT 20"""

_BM25_SQL = """
WITH p AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
lens AS (SELECT doc_id, CAST(len(toks) AS HUGEINT) AS dl FROM p),
tok AS (SELECT doc_id, UNNEST(toks) AS term FROM p),
qq AS (SELECT doc_id, term, CAST(COUNT(*) AS HUGEINT) AS tf FROM tok
       WHERE term IN ('join', 'table', 'window') GROUP BY doc_id, term),
n AS (SELECT CAST(COUNT(*) AS HUGEINT) AS nd FROM documents),
tt AS (SELECT CAST(SUM(len(toks)) AS HUGEINT) AS tot FROM p),
w AS (SELECT term, ((SELECT nd FROM n) * 1000000)
                   // CAST(COUNT(*) AS HUGEINT) AS idf
      FROM qq GROUP BY term),
ts AS (SELECT qq.doc_id,
              (w.idf * qq.tf * 11 * 4 * tt.tot)
              // (5 * 4 * tt.tot * qq.tf + 6 * 1 * tt.tot
                  + 6 * 3 * lens.dl * n.nd) AS s
       FROM qq JOIN w USING (term) JOIN lens USING (doc_id), tt, n),
sc AS (SELECT doc_id, CAST(SUM(s) AS BIGINT) AS score
       FROM ts GROUP BY doc_id)
SELECT doc_id, score FROM sc ORDER BY score DESC, doc_id LIMIT 20"""

_MENTION_CTE = f"""
WITH toks AS (
  SELECT doc_id, lang, list_filter(string_split(text, ' '), x -> x IN ({_GAZ})) AS l
  FROM documents
),
mention AS (SELECT DISTINCT doc_id, lang, unnest(l) AS surface FROM toks)
"""


def oracle_sql(sf_dir: str = "/root/testdata/sf0.01") -> dict[str, str]:
    """The driver calls this with no argument (its gate runs at
    sf0.01); the oracle harness (scripts/check_oracles.py) passes the
    actual sf dir so the fixture oracles compare against ground truth
    computed from THAT data (round-2 verdict #5b)."""
    tag = os.path.basename(os.path.normpath(sf_dir)).replace(".", "")

    def _fx(name: str) -> str:
        return f"SELECT * FROM read_parquet('{_FIXTURES}/{name}_{tag}.parquet')"

    onto = "https://kg.example.org/onto"
    return {
        "triples_from_tables": TRIPLES_SQL,
        # sink→source round-trip must reproduce the exact triple set
        "turtle_roundtrip": TRIPLES_SQL,
        "match_all": f"{_T} SELECT * FROM t WHERE predicate = '<{IN_NATION}>'",
        "match_first": (
            f"{_T} SELECT * FROM t WHERE predicate = '<{IN_NATION}>' "
            "ORDER BY subject, predicate, object LIMIT 1"
        ),
        "delete_matches": f"{_T} SELECT * FROM t WHERE predicate != '{RDF_TYPE_T}'",
        # E8 SPARQL passthrough: the 3-pattern BGP of q_sparql_select
        # as a subject self-join over the triple view
        "sparql_select": f"""{_T}
SELECT t2.subject AS cust, t2.object AS nation
FROM t t1
JOIN t t2 ON t2.subject = t1.subject
JOIN t t3 ON t3.subject = t1.subject
WHERE t1.predicate = '{RDF_TYPE_T}' AND t1.object = '<{CUST_CLASS}>'
  AND t2.predicate = '<{IN_NATION}>'
  AND t3.predicate = '<{SEGMENT}>' AND t3.object = '"BUILDING"'""",
        "sparql_filter": f"""{_T}
SELECT t2.subject AS cust, t2.object AS seg
FROM t t1
JOIN t t2 ON t2.subject = t1.subject
WHERE t1.predicate = '{RDF_TYPE_T}' AND t1.object = '<{CUST_CLASS}>'
  AND t2.predicate = '<{SEGMENT}>' AND t2.object != '"BUILDING"'
  AND regexp_matches(t2.object, '^.(AUTO|HOUSE)')""",
        "sparql_optional": f"""{_T}
SELECT t1.subject AS x, t1.object AS t, t2.object AS lbl
FROM t t1
LEFT JOIN t t2 ON t2.subject = t1.subject
  AND t2.predicate = '<http://www.w3.org/2000/01/rdf-schema#label>'
WHERE t1.predicate = '{RDF_TYPE_T}'""",
        # nested OPTIONAL: LeftJoin(t1, LeftJoin(t2, t3)) — the inner
        # left join parenthesized so unmatched middles keep NULL leaves
        "sparql_optional_nested": f"""{_T}
SELECT t1.subject AS x, t1.object AS t, t2.object AS n, t3.object AS nl
FROM t t1
LEFT JOIN (t t2 LEFT JOIN t t3
             ON t3.subject = t2.object
            AND t3.predicate = '<{C.RDFS_LABEL}>')
  ON t2.subject = t1.subject AND t2.predicate = '<{IN_NATION}>'
WHERE t1.predicate = '{RDF_TYPE_T}'""",
        "sparql_union": f"""{_T}
SELECT subject AS cust, object AS seg FROM t
WHERE predicate = '<{SEGMENT}>' AND object = '"BUILDING"'
UNION ALL
SELECT subject AS cust, object AS seg FROM t
WHERE predicate = '<{SEGMENT}>' AND object = '"MACHINERY"'""",
        "sparql_update": f"""{_T}
SELECT DISTINCT * FROM (
  SELECT * FROM t
  UNION ALL
  SELECT '<urn:og:cust/0>', '<urn:og:attr/note>', '"vip"@en'
  UNION ALL
  SELECT '<urn:og:cust/0>', '{RDF_TYPE_T}', '<{CUST_CLASS}>'
) WHERE predicate != '<{IN_REGION}>'""",
        "sparql_path": f"""{_T}
SELECT t1.subject AS cust, t2.object AS region
FROM t t1 JOIN t t2 ON t1.object = t2.subject
WHERE t1.predicate = '<{IN_NATION}>' AND t2.predicate = '<{IN_REGION}>'""",
        # MINUS on the shared ?cust variable = SQL NOT EXISTS
        "sparql_minus": f"""{_T}
SELECT t1.subject AS cust, t1.object AS nation
FROM t t1
WHERE t1.predicate = '<{IN_NATION}>'
  AND NOT EXISTS (
    SELECT 1 FROM t t2
    WHERE t2.subject = t1.subject
      AND t2.predicate = '<{SEGMENT}>' AND t2.object = '"BUILDING"')""",
        # ^inNation = the same rows with subject/object swapped;
        # (mktsegment|a) = predicate IN (...); ORDER/LIMIT/OFFSET map 1:1
        "sparql_path_alt": f"""{_T}
SELECT t1.object AS nation, t1.subject AS cust, t2.object AS v
FROM t t1 JOIN t t2 ON t2.subject = t1.subject
WHERE t1.predicate = '<{IN_NATION}>'
  AND t2.predicate IN ('<{SEGMENT}>', '{RDF_TYPE_T}')
ORDER BY nation, cust, v LIMIT 200 OFFSET 50""",
        "sparql_values_inline": f"""{_T}
SELECT subject AS cust, object AS seg FROM t
WHERE predicate = '<{SEGMENT}>'
  AND object IN ('"AUTOMOBILE"', '"HOUSEHOLD"')""",
        "sparql_values": f"""{_T}
SELECT subject AS cust, object AS seg FROM t
WHERE predicate = '<{SEGMENT}>'
  AND object IN ('"BUILDING"', '"MACHINERY"')""",
        # VALUES is a Join: one SELECT per row, each constraining only
        # its bound cells, UNION ALL — a solution matching both rows
        # (a nation-3 BUILDING customer) comes out twice
        "sparql_values_undef": f"""{_T}
SELECT t1.subject AS cust, t1.object AS n, t2.object AS seg
FROM t t1 JOIN t t2 ON t2.subject = t1.subject
WHERE t1.predicate = '<{IN_NATION}>' AND t2.predicate = '<{SEGMENT}>'
  AND t1.object = '<urn:og:nation/3>'
UNION ALL
SELECT t1.subject AS cust, t1.object AS n, t2.object AS seg
FROM t t1 JOIN t t2 ON t2.subject = t1.subject
WHERE t1.predicate = '<{IN_NATION}>' AND t2.predicate = '<{SEGMENT}>'
  AND t2.object = '"BUILDING"'""",
        # arbitrary-length path + = recursive CTE reachability (UNION
        # dedups, matching the engine's distinct pair set)
        "sparql_path_negset_closure": f"""WITH RECURSIVE t AS ({TRIPLES_SQL}),
e AS (SELECT subject AS s, object AS o FROM t
      WHERE predicate NOT IN ('{RDF_TYPE_T}', '<{SEGMENT}>',
                              '<{ACCTBAL}>', '<{C.RDFS_LABEL}>')),
reach AS (
  SELECT s, o FROM e
  UNION
  SELECT r.s, e.o FROM reach r JOIN e ON e.s = r.o
)
SELECT s AS x, o AS y FROM reach""",
        "sparql_path_closure": f"""WITH RECURSIVE t AS ({TRIPLES_SQL}),
e AS (SELECT subject AS s, object AS o FROM t
      WHERE predicate IN ('<{IN_NATION}>', '<{IN_REGION}>')),
reach AS (
  SELECT s, o FROM e
  UNION
  SELECT r.s, e.o FROM reach r JOIN e ON e.s = r.o
)
SELECT s AS x, o AS y FROM reach""",
        # numeric FILTER on xsd:integer literals: decode the lexical
        # value, integer compare
        "sparql_filter_numeric": f"""{_T}
SELECT subject AS cust, object AS bal FROM t
WHERE predicate = '<{ACCTBAL}>'
  AND CAST(regexp_extract(object, '"([+-]?\\d+)"', 1) AS BIGINT) >= 500000
  AND CAST(regexp_extract(object, '"([+-]?\\d+)"', 1) AS BIGINT) < 900000""",
        # LANG() builtin: the encoded term's @tag — in this corpus only
        # the rdfs:label literals carry one
        "sparql_filter_lang": f"""{_T}
SELECT subject AS s, object AS o FROM t
WHERE object LIKE '"%' AND regexp_matches(object, '"@en$')""",
        # STR()/DATATYPE() builtins: lexical value and ^^<uri> tail of
        # the encoded term
        "sparql_filter_str_dt": f"""{_T}
SELECT subject AS cust, object AS bal FROM t
WHERE predicate = '<{ACCTBAL}>'
  AND object LIKE '%^^<{C.XSD_INTEGER}>'
  AND regexp_extract(object, '^"([^"]*)"', 1) != '0'""",
        # !BOUND() over an OPTIONAL label: typed subjects with no label
        "sparql_filter_bound": f"""{_T}
SELECT t1.subject AS x FROM t t1
WHERE t1.predicate = '{RDF_TYPE_T}'
  AND NOT EXISTS (
    SELECT 1 FROM t t2 WHERE t2.subject = t1.subject
      AND t2.predicate = '<http://www.w3.org/2000/01/rdf-schema#label>'
  )""",
        # COALESCE(?lbl, "none") = "none": same unlabeled set, with the
        # type column carried through
        "sparql_filter_coalesce": f"""{_T}
SELECT t1.subject AS x, t1.object AS t FROM t t1
WHERE t1.predicate = '{RDF_TYPE_T}'
  AND COALESCE(
    (SELECT t2.object FROM t t2 WHERE t2.subject = t1.subject
       AND t2.predicate = '<http://www.w3.org/2000/01/rdf-schema#label>'
     LIMIT 1),
    '"none"') = '"none"'""",
        # BIND(LANG(?o) AS ?tag) + FILTER on the alias: only the label
        # triples carry a lang tag; the alias is the encoded plain
        # literal '"en"'
        "sparql_bind": f"""{_T}
SELECT subject AS x, '"en"' AS tag FROM t
WHERE object LIKE '"%' AND regexp_matches(object, '"@en$')""",
        # BIND integer arithmetic with chained aliases: decode the
        # xsd:integer lexical value, int64 math, re-encode the term
        "sparql_bind_arith": f"""{_T}
SELECT subject AS c,
       '"' || (CAST(regexp_extract(object, '"([+-]?\\d+)"', 1) AS BIGINT) * 2 - 100)
           || '"^^<{C.XSD_INTEGER}>' AS adj
FROM t
WHERE predicate = '<{ACCTBAL}>'
  AND CAST(regexp_extract(object, '"([+-]?\\d+)"', 1) AS BIGINT) * 2 - 100 >= 1000000""",
        # CONCAT in BIND: vars contribute their lexical value, result
        # is the encoded plain literal
        "sparql_bind_concat": f"""{_T}
SELECT subject AS c,
       '"seg:' || regexp_extract(object, '^"([^"]*)"', 1) || '"' AS tag
FROM t WHERE predicate = '<{SEGMENT}>'""",
        # IF ternary over term equality; else-branch copies the term
        "sparql_bind_if": f"""{_T}
SELECT subject AS c,
       CASE WHEN object = '"BUILDING"' THEN '"core"' ELSE object END AS cls
FROM t WHERE predicate = '<{SEGMENT}>'""",
        # LANGMATCHES basic range "EN": case-insensitive tag or prefix
        "sparql_langmatches": f"""{_T}
SELECT subject AS s, object AS o FROM t
WHERE object LIKE '"%'
  AND (lower(regexp_extract(object, '"@([A-Za-z0-9-]+)$', 1)) = 'en'
       OR lower(regexp_extract(object, '"@([A-Za-z0-9-]+)$', 1)) LIKE 'en-%')""",
        # SUBSTR/STRBEFORE/STRAFTER/REPLACE in BIND over lexical values
        "sparql_bind_substr": f"""{_T}
SELECT subject AS c,
       '"' || substr(regexp_extract(object, '^"([^"]*)"', 1), 1, 3) || '"' AS pre
FROM t WHERE predicate = '<{SEGMENT}>'""",
        "sparql_bind_strbefore": f"""{_T},
v AS (SELECT subject, regexp_extract(object, '^"([^"]*)"', 1) AS val FROM t
      WHERE predicate = '<{C.RDFS_LABEL}>')
SELECT subject AS s,
       '"' || regexp_replace(val, '_.*$', '') || '"' AS stem,
       '"' || regexp_replace(val, '^.*?_', '') || '"' AS num
FROM v""",
        "sparql_bind_replace": f"""{_T}
SELECT subject AS c,
       '"' || regexp_replace(regexp_extract(object, '^"([^"]*)"', 1),
                             '[AEIOU]', '#', 'g') || '"' AS x
FROM t WHERE predicate = '<{SEGMENT}>'""",
        # GROUP BY over a BIND alias (first letter of the segment)
        "sparql_group_by_bind": f"""{_T}
SELECT '"' || substr(regexp_extract(object, '^"([^"]*)"', 1), 1, 1) || '"' AS pre,
       CAST(COUNT(*) AS BIGINT) AS n
FROM t WHERE predicate = '<{SEGMENT}>'
GROUP BY pre""",
        # SAMPLE = deterministic min term per group
        "sparql_sample": f"""{_T}
SELECT object AS n, min(subject) AS one, COUNT(*) AS members
FROM t WHERE predicate = '<{IN_NATION}>' GROUP BY object""",
        # STRSTARTS over the lexical value of the label literals
        "sparql_filter_strstarts": f"""{_T}
SELECT subject AS s, object AS o FROM t
WHERE predicate = '<{C.RDFS_LABEL}>'
  AND regexp_extract(object, '^"([^"]*)"', 1) LIKE 'NATION\\_1%' ESCAPE '\\'""",
        # CONTAINS + STRENDS conjunction over the segment literals
        "sparql_filter_contains": f"""{_T}
SELECT subject AS c, object AS seg FROM t
WHERE predicate = '<{SEGMENT}>'
  AND regexp_extract(object, '^"([^"]*)"', 1) LIKE '%I%'
  AND regexp_extract(object, '^"([^"]*)"', 1) LIKE '%RE'""",
        # STRLEN(value) >= 9 (drops the 8-char BUILDING segment)
        "sparql_filter_strlen": f"""{_T}
SELECT subject AS c, object AS seg FROM t
WHERE predicate = '<{SEGMENT}>'
  AND length(regexp_extract(object, '^"([^"]*)"', 1)) >= 9""",
        # LCASE = 'building' OR UCASE = 'MACHINERY'
        "sparql_filter_case": f"""{_T}
SELECT subject AS c, object AS seg FROM t
WHERE predicate = '<{SEGMENT}>'
  AND (lower(regexp_extract(object, '^"([^"]*)"', 1)) = 'building'
       OR upper(regexp_extract(object, '^"([^"]*)"', 1)) = 'MACHINERY')""",
        # isLiteral(?o) && !isIRI(?o): in this corpus every literal
        # term starts with '"' and every resource with '<'
        "sparql_filter_isliteral": f"""{_T}
SELECT subject AS s, object AS o FROM t
WHERE object LIKE '"%'""",
        # || / && FILTER combinations over the decomposed conditions
        "sparql_filter_or": f"""{_T}
SELECT t1.subject AS c, t1.object AS s, t2.object AS b
FROM t t1 JOIN t t2 ON t2.subject = t1.subject
WHERE t1.predicate = '<{SEGMENT}>'
  AND t2.predicate = '<{ACCTBAL}>'
  AND (t1.object = '"BUILDING"' OR t1.object = '"MACHINERY"')
  AND CAST(regexp_extract(t2.object, '"([+-]?\\d+)"', 1) AS BIGINT) >= 0
  AND CAST(regexp_extract(t2.object, '"([+-]?\\d+)"', 1) AS BIGINT) < 900000""",
        # full boolean FILTER grammar: (a || b) && (c || d) over mixed
        # term-equality and numeric conditions
        "sparql_filter_bool_nested": f"""{_T}
SELECT t1.subject AS c, t1.object AS s, t2.object AS b
FROM t t1 JOIN t t2 ON t2.subject = t1.subject
WHERE t1.predicate = '<{SEGMENT}>'
  AND t2.predicate = '<{ACCTBAL}>'
  AND ( (t1.object = '"BUILDING"'
         OR CAST(regexp_extract(t2.object, '"([+-]?\\d+)"', 1) AS BIGINT) < 0)
    AND (t1.object = '"MACHINERY"'
         OR CAST(regexp_extract(t2.object, '"([+-]?\\d+)"', 1) AS BIGINT) >= 500000) )""",
        # computed numeric comparisons: BIND(?b*2 AS ?dbl),
        # FILTER(?dbl > ?b + 500000 && ?b - 250000 <= 600000)
        "sparql_filter_arith": f"""{_T}
SELECT subject AS c, object AS b FROM (
  SELECT subject, object,
         CAST(regexp_extract(object, '"([+-]?\\d+)"', 1) AS BIGINT) AS v
  FROM t WHERE predicate = '<{ACCTBAL}>')
WHERE v * 2 > v + 500000 AND v - 250000 <= 600000""",
        # BIND division: the scale-6 fixed-point lane — unscaled BIGINT
        # round-half-away division, canonical trimmed decimal rendering
        "sparql_bind_div": f"""{_T},
v AS (SELECT subject,
             CAST(regexp_extract(object, '"([+-]?\\d+)"', 1) AS BIGINT) AS v
      FROM t WHERE predicate = '<{ACCTBAL}>'),
r AS (SELECT subject, {_sql_div_u("v", 7)} AS r FROM v)
SELECT subject AS c, {_sql_dec_term("r")} AS q FROM r""",
        # FILTER inside OPTIONAL = LEFT JOIN with the condition in the
        # ON clause (failing rows keep the NULL binding)
        "sparql_optional_filter": f"""{_T}
SELECT t1.subject AS x, t2.object AS b
FROM t t1
LEFT JOIN t t2 ON t2.subject = t1.subject
  AND t2.predicate = '<{ACCTBAL}>'
  AND CAST(regexp_extract(t2.object, '"([+-]?\\d+)"', 1) AS BIGINT) > 500000
WHERE t1.predicate = '{RDF_TYPE_T}' AND t1.object = '<{CUST_CLASS}>'""",
        # FILTER inside EXISTS (group-internal condition)
        "sparql_exists_filter": f"""{_T}
SELECT t1.subject AS x, t1.object AS s
FROM t t1
WHERE t1.predicate = '<{SEGMENT}>'
  AND EXISTS (
    SELECT 1 FROM t t2
    WHERE t2.subject = t1.subject AND t2.predicate = '<{ACCTBAL}>'
      AND CAST(regexp_extract(t2.object, '"([+-]?\\d+)"', 1) AS BIGINT)
          > 500000)""",
        # correlated EXISTS: the condition references the OUTER row
        "sparql_exists_correlated": f"""{_T}
SELECT t1.subject AS c1, t1.object AS n
FROM t t1
WHERE t1.predicate = '<{IN_NATION}>'
  AND EXISTS (
    SELECT 1 FROM t t2
    WHERE t2.predicate = '<{IN_NATION}>' AND t2.object = t1.object
      AND t2.subject != t1.subject)""",
        # (inRegion/^inRegion)+ = same-region reachability; the
        # relation is its own transitive closure, so the one-step
        # composition IS the fixpoint
        "sparql_path_seq_closure": f"""{_T}
SELECT DISTINCT t2.subject AS n2
FROM t t1 JOIN t t2 ON t2.object = t1.object
WHERE t1.subject = '<urn:og:nation/0>'
  AND t1.predicate = '<{IN_REGION}>' AND t2.predicate = '<{IN_REGION}>'""",
        # YEAR/MONTH/DAY over xsd:date order-date literals (March only)
        "sparql_date_fns": f"""
SELECT '<urn:og:order/' || o_orderkey || '>' AS o,
       '"' || CAST(EXTRACT(YEAR FROM o_orderdate) AS VARCHAR)
           || '"^^<{C.XSD_INTEGER}>' AS y,
       '"' || CAST(EXTRACT(DAY FROM o_orderdate) AS VARCHAR)
           || '"^^<{C.XSD_INTEGER}>' AS d
FROM orders WHERE EXTRACT(MONTH FROM o_orderdate) = 3""",
        # GROUP_CONCAT(DISTINCT ?s): distinct values, sorted order
        "sparql_group_concat_distinct": f"""{_T}
SELECT n, string_agg(s, ',' ORDER BY s) AS segs FROM (
  SELECT DISTINCT t1.object AS n, t2.object AS s
  FROM t t1 JOIN t t2 ON t2.subject = t1.subject
  WHERE t1.predicate = '<{IN_NATION}>' AND t2.predicate = '<{SEGMENT}>')
GROUP BY n""",
        # MD5/SHA256 of the literal lexical form, as "hex" terms
        "sparql_bind_hash": f"""{_T}
SELECT subject AS c,
       '"' || md5(regexp_extract(object, '^"(.*)"$', 1)) || '"' AS m,
       '"' || sha256(regexp_extract(object, '^"(.*)"$', 1)) || '"' AS sh
FROM t WHERE predicate = '<{SEGMENT}>'""",
        # ordered IF + isNumeric: balance-sign labels
        "sparql_if_numeric": f"""{_T}
SELECT subject AS c,
       CASE WHEN CAST(regexp_extract(object, '"([+-]?\\d+)"', 1) AS BIGINT)
                 > 0
            THEN '"credit"' ELSE '"debit"' END AS sign
FROM t WHERE predicate = '<{ACCTBAL}>'""",
        # decimal FILTER comparisons: both sides exact unscaled BIGINT
        "sparql_filter_decimal": f"""{_T},
v AS (SELECT subject, object,
             CAST(regexp_extract(object, '"([+-]?\\d+)"', 1) AS BIGINT) AS v
      FROM t WHERE predicate = '<{ACCTBAL}>')
SELECT subject AS c, object AS b FROM v
WHERE {_sql_div_u("v", 7)} > 50000500000
   OR {_sql_div_u("v", 3)} <= -25000250000""",
        # COALESCE numeric comparison: subjects whose (optional)
        # balance >= 900000; unbound coalesces to -1 → excluded
        "sparql_coalesce_cmp": f"""{_T}
SELECT DISTINCT subject AS s FROM t
WHERE predicate = '<{ACCTBAL}>'
  AND CAST(regexp_extract(object, '"([+-]?\\d+)"', 1) AS BIGINT) >= 900000""",
        # unary minus on variables: -b > 400000 OR b-100000 >= -b
        "sparql_filter_negvar": f"""{_T}
SELECT subject AS c, object AS b FROM (
  SELECT subject, object,
         CAST(regexp_extract(object, '"([+-]?\\d+)"', 1) AS BIGINT) AS v
  FROM t WHERE predicate = '<{ACCTBAL}>')
WHERE -v > 400000 OR v - 100000 >= -v""",
        # ABS/CEIL/FLOOR/ROUND over the decimal lane (NOTE: DuckDB //
        # truncates toward zero, numpy floor-divides — floor/ceil are
        # spelled out sign-explicitly)
        "sparql_bind_round": f"""{_T},
v AS (SELECT subject,
             CAST(regexp_extract(object, '"([+-]?\\d+)"', 1) AS BIGINT) AS v
      FROM t WHERE predicate = '<{ACCTBAL}>'),
r AS (SELECT subject, v, {_sql_div_u("v", 7)} AS q FROM v),
e AS (SELECT subject, v, q,
             (CASE WHEN q >= 0 THEN q // 1000000
                   ELSE -((-q + 999999) // 1000000) END) * 1000000 AS fl,
             (CASE WHEN q >= 0 THEN (q + 999999) // 1000000
                   ELSE -((-q) // 1000000) END) * 1000000 AS ce,
             (CASE WHEN q + 500000 >= 0 THEN (q + 500000) // 1000000
                   ELSE -((-(q + 500000) + 999999) // 1000000) END)
               * 1000000 AS rd
      FROM r)
SELECT subject AS c,
       '"' || CAST(ABS(v) AS VARCHAR) || '"^^<{C.XSD_INTEGER}>' AS m,
       {_sql_dec_term("fl")} AS f,
       {_sql_dec_term("ce")} AS g,
       {_sql_dec_term("rd")} AS r
FROM e""",
        # UCASE/LCASE/STRLEN/STRLANG/STRDT in BIND over the (simple)
        # segment literals
        "sparql_bind_strfns": f"""{_T},
v AS (SELECT subject, object,
             regexp_extract(object, '^"([^"]*)"', 1) AS val
      FROM t WHERE predicate = '<{SEGMENT}>')
SELECT subject AS c,
       '"' || lower(val) || '"' AS lo,
       '"' || CAST(length(val) AS VARCHAR) || '"^^<{C.XSD_INTEGER}>' AS n,
       object || '@en-US' AS tg,
       object || '^^<http://www.w3.org/2001/XMLSchema#token>' AS ty
FROM v""",
        # ABS(?b - k) <= tol proximity filter (exact integers)
        "sparql_filter_abs": f"""{_T}
SELECT subject AS c, object AS b FROM (
  SELECT subject, object,
         CAST(regexp_extract(object, '"([+-]?\\d+)"', 1) AS BIGINT) AS v
  FROM t WHERE predicate = '<{ACCTBAL}>')
WHERE ABS(v - 500000) <= 100000""",
        # { SELECT * } subquery: cust→nation joined to nation→region
        "sparql_subquery_star": f"""{_T}
SELECT t1.subject AS c, t1.object AS n, t2.object AS r
FROM t t1 JOIN t t2 ON t2.subject = t1.object
WHERE t1.predicate = '<{IN_NATION}>' AND t2.predicate = '<{IN_REGION}>'""",
        # GROUP BY with no aggregates → one row per group key
        "sparql_group_keys": f"""{_T}
SELECT DISTINCT object AS n FROM t WHERE predicate = '<{IN_NATION}>'""",
        # SELECT DISTINCT over aggregate rows → distinct count values
        "sparql_distinct_agg": f"""{_T}
SELECT DISTINCT cnt FROM (
  SELECT object, COUNT(*) AS cnt FROM t
  WHERE predicate = '<{IN_NATION}>' GROUP BY object
)""",
        # SUM(DISTINCT ?b) per nation over the decoded integer cents
        "sparql_sum_distinct": f"""{_T}
SELECT t1.object AS n,
       CAST(SUM(DISTINCT CAST(regexp_extract(t2.object, '"([+-]?\\d+)"', 1)
                              AS BIGINT)) AS BIGINT) AS s
FROM t t1 JOIN t t2 ON t2.subject = t1.subject
WHERE t1.predicate = '<{IN_NATION}>' AND t2.predicate = '<{ACCTBAL}>'
GROUP BY t1.object""",
        # REGEX builtin over the lexical form (RE2 on both sides:
        # pyarrow and DuckDB), flags via inline (?i) group, composed
        # with ||/&& — nation/region @en labels
        "sparql_filter_regex": f"""{_T}
SELECT subject AS n, object AS l FROM (
  SELECT subject, object, regexp_extract(object, '^"(.*)"', 1) AS lex
  FROM t WHERE predicate = '<{C.RDFS_LABEL}>')
WHERE regexp_matches(lex, '(?i)^nation_1')
   OR (regexp_matches(lex, '_2[0-4]$') AND regexp_matches(lex, '^NAT'))""",
        # [NOT] IN ground-term lists over SPARQL term equality
        "sparql_filter_in": f"""{_T}
SELECT subject AS c, object AS s FROM t
WHERE predicate = '<{SEGMENT}>'
  AND object IN ('"BUILDING"', '"MACHINERY"', '"FURNITURE"')
  AND object NOT IN ('"FURNITURE"')""",
        # modify form: BUILDING segment literals rewritten
        "sparql_update_modify": f"""{_T}
SELECT subject, predicate,
       CASE WHEN predicate = '<{SEGMENT}>' AND object = '"BUILDING"'
            THEN '"BUILDING_ARCHIVED"' ELSE object END AS object
FROM t""",
        # subquery: per-nation counts joined back to the member rows
        "sparql_subquery": f"""{_T}
SELECT t1.subject AS c, t1.object AS n, g.cnt
FROM t t1
JOIN (SELECT object, COUNT(*) AS cnt FROM t
      WHERE predicate = '<{IN_NATION}>' GROUP BY object) g
  ON g.object = t1.object
WHERE t1.predicate = '<{IN_NATION}>'""",
        # variable-to-variable FILTER: same-nation customer pairs, no
        # self pairs
        "sparql_filter_var": f"""{_T}
SELECT t1.subject AS a, t2.subject AS b
FROM t t1 JOIN t t2 ON t1.object = t2.object
WHERE t1.predicate = '<{IN_NATION}>' AND t2.predicate = '<{IN_NATION}>'
  AND t1.subject != t2.subject""",
        # negated property set: every triple whose predicate is not
        # rdf:type / inNation
        "sparql_path_negset": f"""{_T}
SELECT subject AS x, object AS y FROM t
WHERE predicate NOT IN ('{RDF_TYPE_T}', '<{IN_NATION}>')""",
        # ORDER BY DESC on the ENCODED term string (the subset's
        # documented order), ties by cust ascending; LIMIT makes the
        # direction observable
        "sparql_order_desc": f"""{_T}
SELECT subject AS cust, object AS bal FROM t
WHERE predicate = '<{ACCTBAL}>'
ORDER BY bal DESC, cust LIMIT 100""",
        # zero-or-more path * = the + reachability UNION the
        # zero-length path, which over two variable endpoints binds
        # every graph node (all subjects and objects, literals too)
        "sparql_path_star": f"""WITH RECURSIVE t AS ({TRIPLES_SQL}),
e AS (SELECT subject AS s, object AS o FROM t
      WHERE predicate IN ('<{IN_NATION}>', '<{IN_REGION}>')),
reach AS (
  SELECT s, o FROM e
  UNION
  SELECT r.s, e.o FROM reach r JOIN e ON e.s = r.o
),
nodes AS (SELECT subject AS n FROM t UNION SELECT object FROM t)
SELECT s AS x, o AS y FROM reach
UNION
SELECT n, n FROM nodes""",
        # zero-or-one path ? = the edge relation UNION the zero-length
        # path (distinct pairs)
        "sparql_path_opt": f"""{_T},
nodes AS (SELECT subject AS n FROM t UNION SELECT object FROM t)
SELECT subject AS x, object AS y FROM t
WHERE predicate = '<{IN_NATION}>'
UNION
SELECT n, n FROM nodes""",
        "sparql_construct": f"""{_T},
typed AS (SELECT subject, object AS typ FROM t WHERE predicate = '{RDF_TYPE_T}'),
lbl AS (SELECT subject, object AS lbl FROM t
        WHERE predicate = '<{C.RDFS_LABEL}>')
SELECT DISTINCT * FROM (
  SELECT typed.subject AS subject, '<urn:og:rel/labelled>' AS predicate,
         lbl.lbl AS object
  FROM typed JOIN lbl ON lbl.subject = typed.subject
  UNION ALL
  SELECT subject, '{RDF_TYPE_T}' AS predicate, typ AS object FROM typed
)""",
        "sparql_group_count": f"""{_T}
SELECT object AS seg, CAST(COUNT(subject) AS BIGINT) AS n,
       MIN(subject) AS first
FROM t WHERE predicate = '<{SEGMENT}>'
GROUP BY object""",
        "sparql_group_sum": f"""{_T}
SELECT t1.object AS seg,
       CAST(SUM(CAST(regexp_extract(t2.object, '^"(-?\\d+)"', 1) AS BIGINT)) AS BIGINT) AS total,
       CAST(COUNT(*) AS BIGINT) AS n
FROM t t1 JOIN t t2 ON t2.subject = t1.subject
WHERE t1.predicate = '<{SEGMENT}>' AND t2.predicate = '<{ACCTBAL}>'
GROUP BY t1.object""",
        "sparql_group_concat": f"""{_T}
SELECT t1.object AS r, string_agg(t2.object, '|' ORDER BY t2.object) AS nations
FROM t t1 JOIN t t2 ON t2.subject = t1.subject
WHERE t1.predicate = '<{IN_REGION}>'
  AND t2.predicate = '<{C.RDFS_LABEL}>'
GROUP BY t1.object""",
        "sparql_having": f"""{_T}
SELECT object AS n, CAST(COUNT(*) AS BIGINT) AS n_cust
FROM t WHERE predicate = '<{IN_NATION}>'
GROUP BY object HAVING COUNT(*) > 60""",
        "sparql_count_distinct": f"""{_T}
SELECT t1.object AS n, CAST(COUNT(DISTINCT t2.object) AS BIGINT) AS n_segs
FROM t t1 JOIN t t2 ON t2.subject = t1.subject
WHERE t1.predicate = '<{IN_NATION}>' AND t2.predicate = '<{SEGMENT}>'
GROUP BY t1.object""",
        # AVG = exact integer SUM cast to double, divided by COUNT —
        # the same single float64 division the engine does per group
        "sparql_group_avg": f"""{_T}
SELECT t1.object AS seg,
       CAST(SUM(CAST(regexp_extract(t2.object, '^"(-?\\d+)"', 1) AS BIGINT)) AS DOUBLE)
         / COUNT(*) AS avg_bal
FROM t t1 JOIN t t2 ON t2.subject = t1.subject
WHERE t1.predicate = '<{SEGMENT}>' AND t2.predicate = '<{ACCTBAL}>'
GROUP BY t1.object""",
        # integer fixed-point TF-IDF top-k: weight = (N*1e6)//df
        # (integer division), score = sum(tf*weight); ties (score DESC,
        # doc_id ASC) — mirrors tfidf_topk exactly, no libm ln anywhere
        # RRF fusion of the two retrieval rankings (each re-ranked by
        # row_number over its own top-20), 10000 // (60 + rank)
        "rrf_fused": f"""
WITH ra AS (SELECT doc_id,
                   row_number() OVER (ORDER BY score DESC, doc_id) AS r
            FROM ({_TFIDF_SQL}) t1),
rb AS (SELECT doc_id,
              row_number() OVER (ORDER BY score DESC, doc_id) AS r
       FROM ({_BM25_SQL}) t2),
u AS (SELECT doc_id, 10000 // (60 + r) AS c FROM ra
      UNION ALL
      SELECT doc_id, 10000 // (60 + r) FROM rb)
SELECT doc_id, CAST(SUM(c) AS BIGINT) AS rrf
FROM u GROUP BY doc_id ORDER BY rrf DESC, doc_id LIMIT 20""",
        # BM25 with exact rationals: k1=6/5, b=3/4; denominators
        # cleared by c*q*total_tokens, one HUGEINT division per term
        "bm25_topk": _BM25_SQL,
        "tfidf_topk": _TFIDF_SQL,
        # sharded inverted index: window twin — rank within term by
        # doc_id, shard = rank // 64, postings/tfs string_agg'd per shard
        "inverted_index": """
WITH p AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
tok AS (SELECT doc_id, UNNEST(toks) AS term FROM p),
td AS (SELECT term, doc_id, CAST(COUNT(*) AS BIGINT) AS tf
       FROM tok GROUP BY term, doc_id),
r AS (SELECT term, doc_id, tf,
        ROW_NUMBER() OVER (PARTITION BY term ORDER BY doc_id) - 1 AS rk,
        CAST(COUNT(*) OVER (PARTITION BY term) AS BIGINT) AS df
      FROM td)
SELECT term, CAST(rk // 64 AS BIGINT) AS shard_no, df,
       string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings,
       string_agg(CAST(tf AS VARCHAR), ',' ORDER BY doc_id) AS tfs
FROM r GROUP BY term, rk // 64, df""",
        # C4-style line dedup over the 3-token-line regrouped corpus:
        # window twin of the combiner+anti-join plan (keep a line iff
        # unique corpus-wide or it is the first (doc_id, line_no))
        "line_dedup": """
WITH p AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
l0 AS (SELECT doc_id, UNNEST(toks) AS tok,
              UNNEST(generate_series(1, len(toks))) AS i FROM p),
lines AS (
  SELECT doc_id, (i - 1) // 3 AS line_no,
         string_agg(tok, ' ' ORDER BY i) AS line
  FROM l0 GROUP BY doc_id, (i - 1) // 3
),
k AS (
  SELECT doc_id, line_no, line,
         COUNT(*) OVER (PARTITION BY line) AS c,
         ROW_NUMBER() OVER (PARTITION BY line
                            ORDER BY doc_id, line_no) AS rn
  FROM lines
)
SELECT doc_id, string_agg(line, chr(10) ORDER BY line_no) AS text
FROM k WHERE c < 2 OR rn = 1
GROUP BY doc_id""",
        # E8 ASK truth vector: each row is EXISTS over the same triple
        # view the engine scans; names/order mirror q_sparql_ask
        "sparql_ask": f"""{_T}
SELECT * FROM (
  SELECT 'conjunction' AS ask, CAST(EXISTS(
    SELECT 1 FROM t t1
    JOIN t t2 ON t2.subject = t1.subject
    JOIN t t3 ON t3.subject = t2.object
    WHERE t1.predicate = '{RDF_TYPE_T}'
      AND t1.object = '<{CUST_CLASS}>'
      AND t2.predicate = '<{IN_NATION}>'
      AND t3.predicate = '<{IN_REGION}>') AS BIGINT) AS result
  UNION ALL
  SELECT 'disconnected', CAST(
    EXISTS(SELECT 1 FROM t WHERE predicate = '{RDF_TYPE_T}'
           AND object = '<{CUST_CLASS}>')
    AND EXISTS(SELECT 1 FROM t WHERE predicate = '<{IN_REGION}>')
    AS BIGINT)
  UNION ALL
  SELECT 'graph_nonempty', CAST(EXISTS(SELECT 1 FROM t) AS BIGINT)
  UNION ALL
  SELECT 'ground_hit', CAST(EXISTS(
    SELECT 1 FROM t WHERE subject = '<urn:og:cust/0>'
    AND predicate = '{RDF_TYPE_T}' AND object = '<{CUST_CLASS}>')
    AS BIGINT)
  UNION ALL
  SELECT 'ground_miss', CAST(EXISTS(
    SELECT 1 FROM t WHERE subject = '<urn:og:cust/0>'
    AND predicate = '{RDF_TYPE_T}' AND object = '<urn:og:class/Nope>')
    AS BIGINT)
  UNION ALL
  SELECT 'pattern_miss', CAST(EXISTS(
    SELECT 1 FROM t WHERE predicate = '<urn:og:attr/nonexistent>')
    AS BIGINT)
) ORDER BY ask""",
        # DESCRIBE = forward CBD: triples whose subject is a described
        # resource (nations with a BUILDING customer ∪ {cust/0})
        "sparql_describe": f"""{_T},
res AS (
  SELECT DISTINCT n.object AS s
  FROM t n JOIN t seg ON seg.subject = n.subject
  WHERE n.predicate = '<{IN_NATION}>'
    AND seg.predicate = '<{SEGMENT}>'
    AND seg.object = '"BUILDING"'
  UNION
  SELECT '<urn:og:cust/0>'
)
SELECT t.subject, t.predicate, t.object
FROM t JOIN res ON t.subject = res.s""",
        "add_unchecked_dedup": f"{_T} SELECT DISTINCT * FROM t",
        "add_checked_atomic": f"""{TRIPLES_SQL}
UNION ALL
SELECT '<urn:og:region/' || r_regionkey || '>', '{RDF_TYPE_T}',
       '<urn:og:class/Region>' FROM region
UNION ALL
SELECT '<urn:og:region/' || r_regionkey || '>', '<{C.RDFS_LABEL}>',
       '"' || r_name || '"@en' FROM region""",
        "delete_unchecked_antijoin": (
            f"{_T} SELECT * FROM t EXCEPT SELECT * FROM t "
            f"WHERE predicate = '{RDF_TYPE_T}' AND object = '<{N_CLASS}>'"
        ),
        "size": f"{_T} SELECT COUNT(*) AS n FROM t",
        "distinct_predicates": f"{_T} SELECT DISTINCT predicate FROM t",
        "term_accessors": f"""{_T}, obj AS (SELECT DISTINCT object AS term FROM t)
SELECT term,
  CASE
    WHEN term LIKE '<%>' AND length(term) > 2 THEN substr(term, 2, length(term) - 2)
    WHEN term LIKE '"%"' AND length(term) > 2 THEN substr(term, 2, length(term) - 2)
    WHEN term LIKE '"%' AND contains(term, '"@') THEN regexp_extract(term, '^"(.*).@[^@]*$', 1)
    WHEN term LIKE '"%' AND contains(term, '"^^') THEN regexp_extract(term, '^"(.*)"\\^\\^', 1)
    ELSE '' END AS value,
  CASE WHEN term LIKE '"%' AND contains(term, '"@')
       THEN regexp_extract(term, '@([^@]*)$', 1) ELSE '' END AS language,
  CASE WHEN term LIKE '"%' AND contains(term, '"^^')
       THEN regexp_extract(term, '\\^\\^<(.*)>$', 1) ELSE '' END AS datatype,
  (length(term) > 2 AND term LIKE '<%>') AS is_resource,
  (length(term) > 2 AND term LIKE '"%' AND
   (term LIKE '%"' OR contains(term, '"@') OR contains(term, '"^^'))) AS is_literal
FROM obj""",
        "validate_triples": f"""
SELECT CASE WHEN n_nationkey % 2 = 1 THEN 'urn:og:nation/' || n_nationkey
            ELSE '<urn:og:nation/' || n_nationkey || '>' END AS subject,
       '{RDF_TYPE_T}' AS predicate,
       '<{N_CLASS}>' AS object,
       (n_nationkey % 2 = 0) AS valid
FROM nation""",
        "get_individuals_filtered": (
            "SELECT '<urn:og:cust/' || c_custkey || '>' AS subject FROM customer "
            "WHERE c_mktsegment = 'BUILDING'"
        ),
        "pivot_individuals_summary": f"""{_T}
SELECT subject,
       COUNT(*) AS n_triples,
       CAST(SUM(CASE WHEN object LIKE '"%' THEN 1 ELSE 0 END) AS BIGINT) AS n_literal_objects,
       CAST(SUM(CASE WHEN object LIKE '"%' THEN 0 ELSE 1 END) AS BIGINT) AS n_resource_objects
FROM t GROUP BY subject""",
        "individuals_flat": f"""
SELECT 'urn:og:cust/' || c_custkey AS uri, 'type' AS kind, '' AS prop,
       '{CUST_CLASS}' AS value FROM customer
UNION ALL
SELECT 'urn:og:cust/' || c_custkey, 'object_prop', '{IN_NATION}',
       'urn:og:nation/' || c_nationkey FROM customer
UNION ALL
SELECT 'urn:og:cust/' || c_custkey, 'data_prop', '{SEGMENT}',
       '"' || c_mktsegment || '"' FROM customer
UNION ALL
SELECT 'urn:og:cust/' || c_custkey, 'data_prop', '{ACCTBAL}',
       '"' || CAST(CAST(round(c_acctbal * 100) AS BIGINT) AS VARCHAR) || '"^^<{C.XSD_INTEGER}>' FROM customer
UNION ALL
SELECT 'urn:og:nation/' || n_nationkey, 'type', '', '{N_CLASS}' FROM nation
UNION ALL
SELECT 'urn:og:nation/' || n_nationkey, 'object_prop', '{IN_REGION}',
       'urn:og:region/' || n_regionkey FROM nation
UNION ALL
SELECT 'urn:og:nation/' || n_nationkey, 'label', 'en', n_name FROM nation""",
        "simhash_pairs": _fx("simhash_pairs_h2"),
        # full plain-Python near-dup chain (shingle→minhash→LSH→verify→
        # union-find) reimplemented independently in gen_fixtures.py
        "minhash_dedup": _fx("minhash_dedup"),
        "ngram_lm_perplexity": _fx("ngram_lm_scores"),
        "byte_entropy": _fx("byte_entropy"),
        "ngram_jaccard": _fx("ngram_jaccard"),
        "curate_full": _fx("curate_full"),
        "kmv_distinct": _fx("kmv_distinct"),
        "cms_user_counts": _cms_sql(),
        "events_zorder": _zorder_sql(),
        # constraint audit over the deterministically corrupted orders
        "orders_quality_report": """
WITH base AS (
  SELECT o_orderkey,
         CASE WHEN o_orderkey % 89 = 0 THEN NULL
              WHEN o_orderkey % 83 = 0 THEN 10000000 + o_orderkey
              ELSE o_custkey END AS o_custkey
  FROM orders),
bad AS (SELECT * FROM base
        UNION ALL SELECT * FROM base WHERE o_orderkey % 97 = 0)
SELECT 'unique:o_orderkey' AS rule,
       CAST(COALESCE((SELECT SUM(n - 1) FROM
             (SELECT COUNT(*) AS n FROM bad GROUP BY o_orderkey) t
             WHERE n > 1), 0) AS BIGINT) AS violations
UNION ALL
SELECT 'not_null:o_custkey',
       CAST((SELECT COUNT(*) FROM bad WHERE o_custkey IS NULL) AS BIGINT)
UNION ALL
SELECT 'fk:o_custkey',
       CAST((SELECT COUNT(*) FROM bad b
             LEFT JOIN customer c ON c.c_custkey = b.o_custkey
             WHERE b.o_custkey IS NOT NULL AND c.c_custkey IS NULL)
            AS BIGINT)""",
        # snapshot diff: rebuild the mutated "next crawl" and FULL
        # OUTER JOIN on the key
        "snapshot_diff": """
WITH old AS (SELECT doc_id, lang, n_chars FROM documents),
newt AS (
  SELECT doc_id, lang,
         n_chars + CASE WHEN doc_id % 5 = 0 THEN 1 ELSE 0 END AS n_chars
  FROM documents WHERE doc_id % 7 != 0
  UNION ALL
  SELECT doc_id + 1000000, lang, n_chars
  FROM documents WHERE doc_id % 11 = 0
)
SELECT COALESCE(old.doc_id, newt.doc_id) AS doc_id,
       CASE WHEN old.doc_id IS NULL THEN 'added'
            WHEN newt.doc_id IS NULL THEN 'removed'
            ELSE 'changed' END AS change
FROM old FULL OUTER JOIN newt USING (doc_id)
WHERE old.doc_id IS NULL OR newt.doc_id IS NULL
   OR old.lang != newt.lang OR old.n_chars != newt.n_chars""",
        # UNPIVOT = UNION ALL of one projection per measure column
        "lineitem_unpivot": """
SELECT l_orderkey, l_linenumber, 'l_quantity' AS metric,
       CAST(l_quantity AS DOUBLE) AS value FROM lineitem
UNION ALL
SELECT l_orderkey, l_linenumber, 'l_extendedprice',
       CAST(l_extendedprice AS DOUBLE) FROM lineitem
UNION ALL
SELECT l_orderkey, l_linenumber, 'l_discount',
       CAST(l_discount AS DOUBLE) FROM lineitem""",
        "hll_distinct": _fx("hll_distinct"),
        # k-core of the co-purchase graph — plain-Python peeling twin
        "part_kcore": _fx("part_kcore"),
        # BPE merge learning — plain-Python twin (Counter histogram +
        # independent merge loop), valid at the driver scale only
        "bpe_merges": _fx("bpe_merges"),
        "bpe_token_counts": _fx("bpe_token_counts"),
        # integer fixed-point PageRank — dict-based plain-Python twin
        "entity_pagerank": _fx("entity_pagerank"),
        "entity_hits": _fx("entity_hits"),
        "entity_communities": _fx("entity_communities"),
        "pq_codes": _fx("pq_codes"),
        "entity_sssp": _fx("entity_sssp"),
        "perceptron_filter": _fx("perceptron_filter"),
        "distinct_users_by_type": _fx("hll_grouped"),
        # C4 line filter — plain-Python twin over the shared synthetic
        # webpage corpus
        "c4_line_filter": (
            f"SELECT * FROM read_parquet('{_FIXTURES}/c4_line_filter_n400.parquet')"
        ),
        # WARC round-trip: rebuild the synthesized page html + the
        # second-granular WARC-Date timestamp in SQL (escape order &
        # then < then >, matching pipelines/pages._escape)
        "warc_roundtrip": f"""
SELECT '{_URLP}' || doc_id AS url,
       make_timestamp(doc_id * 1000000 + 1704067200000000) AS warc_ts,
       '<html><head><meta charset="utf-8"><title>' || doc_id
       || '</title></head><body><nav>boilerplate nav | links | footer</nav><main><p>'
       || replace(replace(replace(text, '&', '&amp;'), '<', '&lt;'), '>', '&gt;')
       || '</p></main><footer>crawl boilerplate</footer></body></html>' AS html
FROM documents""",
        "kg_extract_text": (
            f"SELECT '{_URLP}' || doc_id AS url, text, lang FROM documents"
        ),
        "kg_mentions": (
            f"{_MENTION_CTE} SELECT DISTINCT '{_URLP}' || doc_id AS url, surface FROM mention"
        ),
        "kg_triples": kg_oracle_sql(),
        "kg_sameas_components": f"""{_MENTION_CTE}
SELECT DISTINCT '{onto}#ent_' || surface || '__' || lang AS node,
                '{onto}#ent_' || surface AS component FROM mention
UNION
SELECT DISTINCT '{onto}#ent_' || surface, '{onto}#ent_' || surface FROM mention""",
        "kg_node_degrees": f"""{_T},
o AS (SELECT subject AS node, COUNT(*) AS n FROM t GROUP BY subject),
i AS (SELECT object AS node, COUNT(*) AS n FROM t
      WHERE object LIKE '<%' GROUP BY object)
SELECT COALESCE(o.node, i.node) AS node,
       CAST(COALESCE(o.n, 0) AS BIGINT) AS out_deg,
       CAST(COALESCE(i.n, 0) AS BIGINT) AS in_deg
FROM o FULL OUTER JOIN i ON o.node = i.node""",
        # salted distributed loop must be bucket-/salt-invariant: same oracle
        "kg_sameas_salted": f"""{_MENTION_CTE}
SELECT DISTINCT '{onto}#ent_' || surface || '__' || lang AS node,
                '{onto}#ent_' || surface AS component FROM mention
UNION
SELECT DISTINCT '{onto}#ent_' || surface, '{onto}#ent_' || surface FROM mention""",
        # exact duplicate-span removal: windows via a string_agg frame,
        # duplicated grams by occurrence count, coverage exploded per
        # offset, survivors re-joined in position order
        "dedup_spans": """
WITH d AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
tok AS (SELECT doc_id, i AS pos, l[i] AS tok
        FROM d, UNNEST(range(1, len(l) + 1)) AS u(i)),
win AS (SELECT doc_id, pos,
         string_agg(tok, ' ') OVER (PARTITION BY doc_id ORDER BY pos
           ROWS BETWEEN CURRENT ROW AND 4 FOLLOWING) AS gram,
         COUNT(*) OVER (PARTITION BY doc_id ORDER BY pos
           ROWS BETWEEN CURRENT ROW AND 4 FOLLOWING) AS w
        FROM tok),
g AS (SELECT doc_id, pos, gram FROM win WHERE w = 5),
dup AS (SELECT gram FROM g GROUP BY gram HAVING COUNT(*) >= 2),
cover AS (SELECT DISTINCT g.doc_id, g.pos + o AS pos
          FROM g JOIN dup USING (gram), UNNEST(range(0, 5)) AS u(o)),
kept AS (SELECT t.doc_id, t.pos, t.tok
         FROM tok t LEFT JOIN cover c ON c.doc_id = t.doc_id AND c.pos = t.pos
         WHERE c.pos IS NULL),
rebuilt AS (SELECT doc_id,
                   COALESCE(string_agg(tok, ' ' ORDER BY pos), '') AS text,
                   COUNT(*) AS kept_n
            FROM kept GROUP BY doc_id),
base AS (SELECT doc_id, len(string_split(text, ' ')) AS n_tok FROM documents)
SELECT b.doc_id, COALESCE(r.text, '') AS text,
       CAST(b.n_tok - COALESCE(r.kept_n, 0) AS BIGINT) AS removed
FROM base b LEFT JOIN rebuilt r USING (doc_id)""",
        # co-occurrence graph + triangles: the canonical (src<dst)
        # edge form makes the 3-way self-join emit each triangle once
        # with a<b<c — identical to the engine's value-canonical rows
        "copurchase_edges": """
WITH m AS (SELECT DISTINCT l_orderkey AS k, l_partkey AS p FROM lineitem)
SELECT a.p AS src, b.p AS dst, CAST(COUNT(*) AS BIGINT) AS support
FROM m a JOIN m b ON a.k = b.k AND a.p < b.p
GROUP BY 1, 2 HAVING COUNT(*) >= 2""",
        "part_triangles": """
WITH m AS (SELECT DISTINCT l_orderkey AS k, l_partkey AS p FROM lineitem),
e AS (SELECT a.p AS src, b.p AS dst FROM m a JOIN m b ON a.k = b.k AND a.p < b.p
      GROUP BY 1, 2 HAVING COUNT(*) >= 2)
SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
FROM e e1
JOIN e e2 ON e2.src = e1.dst
JOIN e e3 ON e3.src = e1.src AND e3.dst = e2.dst""",
        "part_neighbor_jaccard": """
WITH m AS (SELECT DISTINCT l_orderkey AS k, l_partkey AS p FROM lineitem),
e AS (SELECT a.p AS src, b.p AS dst FROM m a JOIN m b ON a.k = b.k AND a.p < b.p
      GROUP BY 1, 2 HAVING COUNT(*) >= 2),
adj AS (SELECT src AS c, dst AS n FROM e UNION ALL SELECT dst, src FROM e),
common AS (SELECT a.n AS src, b.n AS dst, CAST(count(*) AS BIGINT) AS common
           FROM adj a JOIN adj b ON a.c = b.c AND a.n < b.n GROUP BY 1, 2),
deg AS (SELECT c AS node, CAST(count(*) AS BIGINT) AS deg FROM adj GROUP BY c)
SELECT src, dst, common, d1.deg AS deg_src, d2.deg AS deg_dst,
       CAST(common * 10000 // (d1.deg + d2.deg - common) AS BIGINT)
         AS jaccard_bp
FROM common
JOIN deg d1 ON d1.node = src
JOIN deg d2 ON d2.node = dst
WHERE common >= 2""",
        "dedup_exact": "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text",
        # lang_id: per-profile function-word counts, winner = first max
        # over langs in sorted order (de,en,es,fr,zh) — the same
        # deterministic tie-break as LangId's argmax; zero hits → 'und'
        "lang_id": """
WITH toks AS (
  SELECT doc_id, unnest(string_split(lower(text), ' ')) AS tok FROM documents
),
counts AS (
  SELECT doc_id,
    count(*) FILTER (tok IN ('der','die','das','und','ist')) AS c_de,
    count(*) FILTER (tok IN ('the','and','of','to','is'))    AS c_en,
    count(*) FILTER (tok IN ('el','la','de','que','es'))     AS c_es,
    count(*) FILTER (tok IN ('le','la','et','les','est'))    AS c_fr,
    count(*) FILTER (tok IN ('的','是','了','在','和'))      AS c_zh
  FROM toks GROUP BY doc_id
)
SELECT doc_id,
  CASE WHEN greatest(c_de,c_en,c_es,c_fr,c_zh) = 0 THEN 'und'
       WHEN c_de = greatest(c_de,c_en,c_es,c_fr,c_zh) THEN 'de'
       WHEN c_en = greatest(c_de,c_en,c_es,c_fr,c_zh) THEN 'en'
       WHEN c_es = greatest(c_de,c_en,c_es,c_fr,c_zh) THEN 'es'
       WHEN c_fr = greatest(c_de,c_en,c_es,c_fr,c_zh) THEN 'fr'
       ELSE 'zh' END AS pred_lang
FROM counts""",
        "curate_corpus": _curate_sql(),
        "fingerprint_groups": (
            "SELECT doc_id, COUNT(*) OVER (PARTITION BY text) AS dup_group_size "
            "FROM documents"
        ),
        "token_stats": r"""
SELECT doc_id,
       len(string_split(text, ' ')) AS n_tokens,
       len(regexp_extract_all(text, '[A-Za-z0-9]+|[^A-Za-z0-9\s]')) AS n_bpe_tokens,
       length(text) AS n_chars_computed
FROM documents""",
        "jsonl_roundtrip": (
            "SELECT doc_id, text, lang, source, n_chars FROM documents"
        ),
        "jsonl_gz_roundtrip": (
            "SELECT doc_id, text, lang, source, n_chars FROM documents"
        ),
        "csv_roundtrip": (
            "SELECT doc_id, text, lang, source, n_chars FROM documents"
        ),
        "domain_cap": """
SELECT doc_id, source FROM documents
QUALIFY row_number() OVER (PARTITION BY source ORDER BY doc_id) <= 10""",
        "incremental_dedup": """
SELECT d.doc_id FROM documents d
WHERE d.doc_id % 3 != 0
  AND NOT EXISTS (SELECT 1 FROM documents s
                  WHERE s.doc_id % 3 = 0 AND s.text = d.text)""",
        # same integer feature counts as text_quality_counts; weights
        # (3, 10, -5, -1) + bias 200 are the query's contract
        "classifier_score": r"""
SELECT doc_id,
       3 * len(string_split(text, ' '))
       + 10 * (len(regexp_extract_all(text, '\bthe\b')) + len(regexp_extract_all(text, '\ba\b')))
       - 5 * len(regexp_extract_all(text, '[^\w\s]'))
       - 1 * len(text) + 200 AS score,
       CAST(score >= 0 AS BIGINT) AS keep
FROM documents""",
        "text_quality_counts": r"""
SELECT doc_id,
       len(string_split(text, ' ')) AS n_tokens,
       len(regexp_extract_all(text, '\bthe\b')) + len(regexp_extract_all(text, '\ba\b')) AS stop_hits,
       len(regexp_extract_all(text, '[^\w\s]')) AS punct_chars
FROM documents""",
        "ann_topk": """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 5),
scored AS (
  SELECT q.query_id, e.vec_id, list_cosine_similarity(q.qe, e.embedding) AS score
  FROM q CROSS JOIN embeddings e
),
ranked AS (
  SELECT query_id, vec_id,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, vec_id) AS rn
  FROM scored
)
SELECT query_id, vec_id FROM ranked WHERE rn <= 10""",
        # sliding-window chunking: chunk i covers 1-based token
        # positions i*48+1 .. min(i*48+64, n); ceil(n/48) chunks/doc
        "chunk_documents": """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
c AS (SELECT doc_id, l, len(l) AS n FROM toks),
e AS (SELECT doc_id, l, n,
             unnest(generate_series(0, CAST((n + 47) // 48 AS BIGINT) - 1)) AS i
      FROM c)
SELECT doc_id, i AS chunk_id,
       CAST(least(i * 48 + 64, n) - i * 48 AS BIGINT) AS n_tokens,
       array_to_string(l[i * 48 + 1 : least(i * 48 + 64, n)], ' ') AS chunk_text
FROM e""",
        # Bloom filter: every bit position recomputed in SQL via the
        # splitmix64 CTE chains (one per seed); membership = both
        # probe positions present in the snapshot's position set —
        # reproduces the engine's false positives exactly
        "bloom_seen": f"""
WITH snap0 AS (SELECT xor(CAST(doc_id AS UBIGINT), {0x5173}) AS x
               FROM documents WHERE doc_id % 3 = 0),
{_splitmix64_ctes('snap0', 'x', 'bsh0')},
snap1 AS (SELECT xor(CAST(doc_id AS UBIGINT), {0xA5A5}) AS x
          FROM documents WHERE doc_id % 3 = 0),
{_splitmix64_ctes('snap1', 'x', 'bsh1')},
bits AS (SELECT h % 512 AS pos FROM bsh0
         UNION SELECT h % 512 FROM bsh1),
pr0 AS (SELECT doc_id, xor(CAST(doc_id AS UBIGINT), {0x5173}) AS x
        FROM documents),
{_splitmix64_ctes('pr0', 'x', 'bph0')},
pr1 AS (SELECT doc_id, xor(CAST(doc_id AS UBIGINT), {0xA5A5}) AS x
        FROM documents),
{_splitmix64_ctes('pr1', 'x', 'bph1')}
SELECT a.doc_id,
       CAST(CASE WHEN a.h % 512 IN (SELECT pos FROM bits)
                  AND b.h % 512 IN (SELECT pos FROM bits)
            THEN 1 ELSE 0 END AS BIGINT) AS maybe_seen
FROM bph0 a JOIN bph1 b USING (doc_id)""",
        # IVF top-k over the fixed-point quantizer — plain-numpy twin
        # (the float-kmeans version was layout-dependent and rows-only)
        # exact masked top-k: nearest vectors with a DIFFERENT label
        "hard_negatives_topk": """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe, label AS ql
           FROM embeddings WHERE vec_id < 5),
scored AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(q.qe, e.embedding) AS score
  FROM q JOIN embeddings e ON e.label != q.ql
),
ranked AS (
  SELECT query_id, vec_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, vec_id) AS rn
  FROM scored
)
SELECT query_id, vec_id FROM ranked WHERE rn <= 10""",
        "ann_topk_ivf": _fx("ann_ivf"),
        "ann_topk_ivfpq": _fx("ann_ivfpq"),
        # multi-probe LSH top-k — plain-numpy twin (seeded hyperplanes
        # and sign codes are pure deterministic functions; k-boundary
        # distinctness asserted at fixture-gen time)
        "ann_topk_lsh": _fx("ann_lsh"),
        "ann_topk_hnsw": _fx("ann_hnsw"),
        # int64 fixed-point k-means — plain-numpy twin (exact integer
        # arithmetic is block-layout invariant, unlike float Lloyd)
        "kmeans_clusters": _fx("kmeans_clusters"),
        # winnowing — independent Horner-form plain-Python twin
        "winnow_fingerprints": _fx("winnow_fingerprints"),
        # shared-fingerprint pairs: pure SQL over the winnowing twin
        # fixture (distinct → max_df stopword guard → self-join count)
        "winnow_near_dup": f"""
WITH f AS (SELECT DISTINCT doc_id, fp
           FROM read_parquet('{_FIXTURES}/winnow_fingerprints_{tag}.parquet')),
 keep AS (SELECT fp FROM f GROUP BY fp HAVING count(*) BETWEEN 2 AND 50)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS shared
FROM f a JOIN f b ON a.fp = b.fp AND a.doc_id < b.doc_id
JOIN keep k ON k.fp = a.fp
GROUP BY 1, 2
HAVING count(*) >= 2""",
        # SemDeDup prune: assignments from the fixture, the
        # exists-a-lower-id-neighbor rule re-derived by DuckDB
        "semdedup": f"""
WITH a AS (
  {_fx('kmeans_clusters')}
)
SELECT e.vec_id, a.cluster
FROM embeddings e JOIN a ON a.vec_id = e.vec_id
WHERE NOT EXISTS (
  SELECT 1 FROM embeddings e2 JOIN a a2 ON a2.vec_id = e2.vec_id
  WHERE a2.cluster = a.cluster AND e2.vec_id < e.vec_id
    AND list_cosine_similarity(e2.embedding, e.embedding) >= 0.4
)""",
        "embedding_near_dup": """
SELECT a.vec_id AS src_id, b.vec_id AS dst_id
FROM embeddings a CROSS JOIN embeddings b
WHERE a.vec_id < b.vec_id
  AND list_cosine_similarity(a.embedding, b.embedding) >= 0.4""",
        # deterministic source-mixing sampler: splitmix64 keep rule
        # re-derived per row; weights srcN = 500 + 400*N basis points
        "source_mix": f"""
WITH src AS (SELECT doc_id, source,
                    xor(CAST(doc_id AS UBIGINT), 11) AS x FROM documents),
{_splitmix64_ctes('src', 'x', 'mix_hashed')}
SELECT doc_id, source FROM mix_hashed
WHERE CAST(h % 10000 AS BIGINT)
      < 500 + 400 * CAST(substr(source, 4) AS BIGINT)""",
        # sketch-thresholded outlier filter: the SAME deterministic
        # k-min-hash sample picks the P90 threshold, then a plain filter
        "length_outliers": f"""
WITH tok AS (SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens
             FROM documents),
src AS (SELECT CAST(doc_id AS UBIGINT) AS x, n_tokens AS v FROM tok),
{_splitmix64_ctes('src', 'x', 'lo_hashed')},
samp AS (SELECT v FROM lo_hashed ORDER BY h, v LIMIT 512),
thr AS (SELECT quantile_disc(v, 0.90) AS t FROM samp)
SELECT doc_id, n_tokens FROM tok WHERE n_tokens > (SELECT t FROM thr)""",
        "orders_rollup": """
SELECT o_orderstatus, o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n
FROM orders
GROUP BY GROUPING SETS ((o_orderstatus, o_orderpriority),
                        (o_orderstatus), ())""",
        "lang_by_source": """
SELECT source,
       CAST(SUM(CASE WHEN lang = 'de' THEN 1 ELSE 0 END) AS BIGINT) AS n_de,
       CAST(SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS BIGINT) AS n_en,
       CAST(SUM(CASE WHEN lang = 'es' THEN 1 ELSE 0 END) AS BIGINT) AS n_es,
       CAST(SUM(CASE WHEN lang = 'fr' THEN 1 ELSE 0 END) AS BIGINT) AS n_fr,
       CAST(SUM(CASE WHEN lang = 'zh' THEN 1 ELSE 0 END) AS BIGINT) AS n_zh
FROM documents GROUP BY source""",
        "lineitem_rank": """
SELECT l_orderkey, l_linenumber, l_quantity,
       CAST(RANK() OVER (PARTITION BY l_orderkey
                         ORDER BY l_quantity DESC) AS BIGINT) AS rnk
FROM lineitem""",
        "events_lag": """
SELECT user_id, event_id, value,
       LAG(value) OVER (PARTITION BY user_id ORDER BY ts, event_id)
         AS prev_value
FROM events""",
        # per-language token heavy hitters: unnest + count + QUALIFY
        "top_tokens_by_lang": """
WITH tok AS (
  SELECT lang, unnest(string_split(text, ' ')) AS token FROM documents
),
cnt AS (SELECT lang, token, COUNT(*) AS cnt FROM tok GROUP BY lang, token)
SELECT lang, token, cnt FROM cnt
QUALIFY row_number() OVER (PARTITION BY lang ORDER BY cnt DESC, token) <= 5""",
        # BFS depths over the two-level hierarchy — structurally known
        "kg_bfs_depth": """
SELECT '<urn:og:region/0>' AS node, CAST(0 AS BIGINT) AS depth
UNION ALL
SELECT '<urn:og:nation/' || n_nationkey || '>', 1
FROM nation WHERE n_regionkey = 0
UNION ALL
SELECT '<urn:og:cust/' || c_custkey || '>', 2
FROM customer JOIN nation ON n_nationkey = c_nationkey
WHERE n_regionkey = 0""",
        "orders_running_total": """
WITH c AS (SELECT o_orderkey, o_custkey, o_orderdate,
                  CAST(round(o_totalprice * 100) AS BIGINT) AS cents
           FROM orders)
SELECT o_custkey, o_orderkey, cents,
       CAST(SUM(cents) OVER (PARTITION BY o_custkey
                             ORDER BY o_orderdate, o_orderkey
                             ROWS UNBOUNDED PRECEDING) AS BIGINT)
         AS running_total
FROM c""",
        "orders_moving_sum": """
WITH c AS (SELECT o_orderkey, o_custkey, o_orderdate,
                  CAST(round(o_totalprice * 100) AS BIGINT) AS cents
           FROM orders)
SELECT o_custkey, o_orderkey, cents,
       CAST(SUM(cents) OVER (PARTITION BY o_custkey
                             ORDER BY o_orderdate, o_orderkey
                             ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
            AS BIGINT) AS frame_sum
FROM c""",
        "customer_quartiles": """
WITH c AS (SELECT c_custkey, c_nationkey,
                  CAST(round(c_acctbal * 100) AS BIGINT) AS cents
           FROM customer)
SELECT c_custkey, c_nationkey, cents,
       CAST(NTILE(4) OVER (PARTITION BY c_nationkey
                           ORDER BY cents DESC, c_custkey) AS BIGINT)
         AS tile
FROM c""",
        # floored exact population covariance/variances (HUGEINT sums)
        "lineitem_cov": """
WITH c AS (SELECT l_returnflag AS flag,
                  CAST(l_quantity AS HUGEINT) AS x,
                  CAST(round(l_extendedprice * 100) AS HUGEINT) AS y
           FROM lineitem),
s AS (SELECT flag, CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(x) AS sx, SUM(y) AS sy,
             SUM(x * x) AS sxx, SUM(y * y) AS syy, SUM(x * y) AS sxy
      FROM c GROUP BY flag)
SELECT flag, CAST(n AS BIGINT) AS n,
       CAST((n * sxy - sx * sy) // (n * n) AS BIGINT) AS cov,
       CAST((n * sxx - sx * sx) // (n * n) AS BIGINT) AS varx,
       CAST((n * syy - sy * sy) // (n * n) AS BIGINT) AS vary
FROM s""",
        "customer_percentiles": """
WITH c AS (SELECT c_custkey, c_nationkey,
                  CAST(round(c_acctbal * 100) AS BIGINT) AS cents
           FROM customer)
SELECT c_custkey, c_nationkey, cents,
       PERCENT_RANK() OVER (PARTITION BY c_nationkey
                            ORDER BY cents DESC) AS percent_rank,
       CUME_DIST() OVER (PARTITION BY c_nationkey
                         ORDER BY cents DESC) AS cume_dist
FROM c""",
        "events_window": """
SELECT user_id, epoch_us(ts) // 3600000000 AS win,
       COUNT(*) AS n_events, MIN(value) AS min_value, MAX(value) AS max_value
FROM events GROUP BY user_id, win""",
        "events_hopping": """
WITH h AS (
  SELECT user_id, value, epoch_us(ts) // 1800000000 AS cell FROM events
),
exp AS (
  SELECT user_id, value, cell - i AS win
  FROM h, generate_series(0, 1) AS t(i)
)
SELECT user_id, win, COUNT(*) AS n_events,
       MIN(value) AS min_value, MAX(value) AS max_value
FROM exp GROUP BY user_id, win""",
        "top_orders_per_customer": """
WITH c AS (
  SELECT o_custkey, o_orderkey,
         CAST(round(o_totalprice * 100) AS BIGINT) AS total_cents
  FROM orders
),
ranked AS (
  SELECT o_custkey, o_orderkey, total_cents,
         row_number() OVER (PARTITION BY o_custkey
                            ORDER BY total_cents DESC, o_orderkey) AS rn
  FROM c
)
SELECT o_custkey, o_orderkey, total_cents, CAST(rn AS BIGINT) AS rn
FROM ranked WHERE rn <= 3""",
        "customers_without_orders": """
SELECT c.c_nationkey, COUNT(*) AS n_customers_no_orders
FROM customer c LEFT JOIN (
  SELECT DISTINCT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT'
) o ON c.c_custkey = o.o_custkey
WHERE o.o_custkey IS NULL
GROUP BY c.c_nationkey""",
        "stratified_sample": """
WITH ranked AS (
  SELECT doc_id, lang,
         row_number() OVER (PARTITION BY lang
                            ORDER BY (doc_id * 2654435761) % 4294967296, doc_id) AS rn
  FROM documents
)
SELECT doc_id, lang FROM ranked WHERE rn <= 5""",
        "user_value_quantiles": """
SELECT user_id, COUNT(*) AS n,
       quantile_disc(value, 0.5) AS p50,
       quantile_disc(value, 0.9) AS p90
FROM events GROUP BY user_id""",
        "top_nations_by_customers": """
SELECT n.n_nationkey, n.n_name, COUNT(*) AS n_customers
FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_nationkey, n.n_name
ORDER BY n_customers DESC, n.n_nationkey LIMIT 10""",
        "lineitem_pricing": """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(round(l_quantity * 100) AS BIGINT)) AS BIGINT) AS sum_qty_cents,
       CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_price_cents,
       CAST(SUM(CAST(round(l_discount * 100) AS BIGINT)) AS BIGINT) AS sum_disc_cents,
       COUNT(*) AS n_rows
FROM lineitem GROUP BY l_returnflag, l_linestatus""",
        "sample_hash": """
SELECT doc_id, lang FROM documents
WHERE ((doc_id * 2654435761) % 4294967296) % 100 < 20""",
        "asof_last_order": """
WITH ded AS (
  SELECT o_custkey, o_orderdate,
         arg_max(o_orderkey, o_orderkey) AS o_orderkey,
         arg_max(o_totalprice, o_orderkey) AS o_totalprice
  FROM orders GROUP BY o_custkey, o_orderdate
)
SELECT e.user_id,
       CAST(epoch_us(e.ts) AS BIGINT) AS ts_us,
       o.o_orderkey,
       CAST(round(o.o_totalprice * 100) AS BIGINT) AS total_cents
FROM events e ASOF JOIN ded o
  ON e.user_id = o.o_custkey AND o.o_orderdate <= e.ts""",
        "range_join_recent_orders": """
WITH anchors AS (
  SELECT o_custkey, MAX(o_orderdate) AS anchor FROM orders GROUP BY o_custkey
)
SELECT o.o_custkey, COUNT(*) AS n_recent
FROM orders o JOIN anchors a
  ON o.o_custkey = a.o_custkey
 AND o.o_orderdate > a.anchor - INTERVAL 90 DAY
 AND o.o_orderdate <= a.anchor
GROUP BY o.o_custkey""",
        # interval-overlap self-join over the gap-sessions (closed
        # intervals), distinct cross-user pairs counted
        "overlapping_sessions": """
WITH marked AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 30*60*1000000
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts)
),
sess AS (
  SELECT user_id, ts,
         SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts
                          ROWS UNBOUNDED PRECEDING) AS session_id
  FROM marked
),
s AS (
  SELECT user_id, CAST(epoch_us(MIN(ts)) AS BIGINT) AS start_us,
         CAST(epoch_us(MAX(ts)) AS BIGINT) AS end_us
  FROM sess GROUP BY user_id, session_id
)
SELECT a.user_id AS user_a, b.user_id AS user_b,
       CAST(COUNT(*) AS BIGINT) AS n_overlaps
FROM s a JOIN s b
  ON a.user_id < b.user_id
 AND a.start_us <= b.end_us AND b.start_us <= a.end_us
GROUP BY a.user_id, b.user_id""",
        # per-group mode with (count DESC, value ASC) tie-break
        "user_modal_event": """
WITH c AS (SELECT user_id, event_type, COUNT(*) AS c FROM events GROUP BY 1, 2)
SELECT user_id, event_type AS mode, CAST(c AS BIGINT) AS mode_count
FROM c
QUALIFY row_number() OVER (PARTITION BY user_id
                           ORDER BY c DESC, event_type) = 1""",
        # OHLC: first/last by (ts, event_id) via window functions over
        # the tumbling hour; DISTINCT collapses the per-row windows
        "events_ohlc": """
WITH w AS (SELECT user_id, epoch_us(ts) // 3600000000 AS win,
                  ts, event_id, value FROM events)
SELECT DISTINCT user_id, win,
  first_value(value) OVER pw AS open,
  max(value) OVER pk AS high,
  min(value) OVER pk AS low,
  last_value(value) OVER (PARTITION BY user_id, win ORDER BY ts, event_id
    ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS close,
  CAST(count(*) OVER pk AS BIGINT) AS n
FROM w
WINDOW pw AS (PARTITION BY user_id, win ORDER BY ts, event_id),
       pk AS (PARTITION BY user_id, win)""",
        # earliest-completion funnel: chained min-aggregates, each step
        # strictly after the previous step's completion time
        "event_funnel": """
WITH s1 AS (SELECT user_id, min(ts) AS t FROM events
            WHERE event_type = 'view' GROUP BY user_id),
s2 AS (SELECT e.user_id, min(e.ts) AS t FROM events e
       JOIN s1 ON e.user_id = s1.user_id AND e.ts > s1.t
       WHERE e.event_type = 'click' GROUP BY e.user_id),
s3 AS (SELECT e.user_id, min(e.ts) AS t FROM events e
       JOIN s2 ON e.user_id = s2.user_id AND e.ts > s2.t
       WHERE e.event_type = 'purchase' GROUP BY e.user_id)
SELECT CAST(1 AS BIGINT) AS step, 'view' AS event_type,
       CAST((SELECT count(*) FROM s1) AS BIGINT) AS users
UNION ALL
SELECT 2, 'click', CAST((SELECT count(*) FROM s2) AS BIGINT)
UNION ALL
SELECT 3, 'purchase', CAST((SELECT count(*) FROM s3) AS BIGINT)""",
        "session_windows": """
WITH marked AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 30*60*1000000
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts)
),
sess AS (
  SELECT user_id, ts,
         SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts
                          ROWS UNBOUNDED PRECEDING) AS session_id
  FROM marked
)
SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
       COUNT(*) AS n_events,
       CAST(epoch_us(MIN(ts)) AS BIGINT) AS start_us,
       CAST(epoch_us(MAX(ts)) AS BIGINT) AS end_us
FROM sess GROUP BY user_id, session_id""",
        # decontamination: 4-gram overlap vs the every-25th-doc
        # benchmark subset (same parameters as q_decontaminate)
        # canonical-URL dedup: the oracle derives the canonical form
        # directly from doc_id (what canonicalization of the synthesized
        # messy URL must produce), then groups
        "url_dedup": """
WITH c AS (
  SELECT doc_id,
         (CASE WHEN doc_id % 3 = 1 THEN 'https' ELSE 'http' END)
         || '://www.example' || (doc_id % 7) || '.com/P' || (doc_id % 5)
         || '?a=1&b=' || (doc_id % 3) AS url_canon
  FROM documents
)
SELECT url_canon, min(doc_id) AS keep_doc, count(*) AS n_dups
FROM c GROUP BY url_canon""",
        # DSIR importance scores: integer add-one ratio weights from
        # the en/non-en unigram counts, occurrence-weighted doc sums
        "dsir_scores": r"""
WITH w AS (
  SELECT doc_id, lang,
         unnest(regexp_split_to_array(trim(text), '\s+')) AS word
  FROM documents
),
cnt AS (
  SELECT word,
         sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS ct,
         sum(CASE WHEN lang <> 'en' THEN 1 ELSE 0 END) AS cs
  FROM w GROUP BY word
),
wt AS (SELECT word, (ct + 1) * 10000 // (cs + 1) AS wgt FROM cnt),
doc AS (
  SELECT w.doc_id, sum(wt.wgt) AS dsir_score
  FROM w JOIN wt USING (word) GROUP BY w.doc_id
)
SELECT d.doc_id,
       CAST(coalesce(doc.dsir_score, 0) AS BIGINT) AS dsir_score,
       CAST(CASE WHEN d.lang = 'en' THEN 1 ELSE 0 END AS TINYINT) AS is_target
FROM documents d LEFT JOIN doc USING (doc_id)""",
        # Gopher rules: seven integer predicates per document; words =
        # whitespace runs, lines = chr(10) splits, symbols = '#', '…',
        # non-overlapping '...'; stop list is the corpus-tuned one the
        # query passes
        "gopher_quality": r"""
WITH w AS (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS word
  FROM documents
),
wagg AS (
  SELECT doc_id,
         count(*) AS n_words,
         sum(CASE WHEN regexp_matches(word, '[A-Za-z]') THEN 1 ELSE 0 END)
           AS n_alpha,
         count(DISTINCT CASE WHEN lower(word) IN
           ('the','a','data','value','table','row','fast','key')
           THEN lower(word) END) AS n_stop
  FROM w GROUP BY doc_id
),
l AS (
  SELECT doc_id, unnest(string_split(text, chr(10))) AS line FROM documents
),
lagg AS (
  SELECT doc_id, count(*) AS n_lines,
         sum(CASE WHEN line LIKE '•%' OR line LIKE '- %' OR line LIKE '* %'
             THEN 1 ELSE 0 END) AS n_bullet,
         sum(CASE WHEN line LIKE '%...' OR line LIKE '%…'
             THEN 1 ELSE 0 END) AS n_ell
  FROM l GROUP BY doc_id
),
base AS (
  SELECT doc_id,
         length(regexp_replace(text, '\s+', '', 'g')) AS n_word_chars,
         (length(text) - length(replace(text, '#', '')))
         + (length(text) - length(replace(text, '…', '')))
         + (length(text) - length(replace(text, '...', ''))) // 3 AS n_sym
  FROM documents
),
flags AS (
  SELECT b.doc_id,
         wa.n_words,
         CASE WHEN wa.n_words >= 50 AND wa.n_words <= 100000
              THEN 1 ELSE 0 END AS f_words,
         CASE WHEN 3 * wa.n_words <= b.n_word_chars
               AND b.n_word_chars <= 10 * wa.n_words
              THEN 1 ELSE 0 END AS f_mwl,
         CASE WHEN 10 * b.n_sym <= wa.n_words THEN 1 ELSE 0 END AS f_sym,
         CASE WHEN 10 * la.n_bullet <= 9 * la.n_lines
              THEN 1 ELSE 0 END AS f_bullet,
         CASE WHEN 10 * la.n_ell <= 3 * la.n_lines THEN 1 ELSE 0 END AS f_ell,
         CASE WHEN 5 * wa.n_alpha >= 4 * wa.n_words THEN 1 ELSE 0 END AS f_alpha,
         CASE WHEN wa.n_stop >= 2 THEN 1 ELSE 0 END AS f_stop
  FROM base b JOIN wagg wa USING (doc_id) JOIN lagg la USING (doc_id)
)
SELECT doc_id, n_words,
       CAST(f_words AS TINYINT) AS f_words,
       CAST(f_mwl AS TINYINT) AS f_mwl,
       CAST(f_sym AS TINYINT) AS f_sym,
       CAST(f_bullet AS TINYINT) AS f_bullet,
       CAST(f_ell AS TINYINT) AS f_ell,
       CAST(f_alpha AS TINYINT) AS f_alpha,
       CAST(f_stop AS TINYINT) AS f_stop,
       CAST(least(f_words, f_mwl, f_sym, f_bullet, f_ell, f_alpha, f_stop)
            AS TINYINT) AS keep
FROM flags""",
        "decontaminate": """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
ex AS (
  SELECT doc_id, unnest(list_transform(range(1, len(l) - 2),
         i -> array_to_string(list_slice(l, i, i + 3), ' '))) AS ng
  FROM toks
),
bng AS (SELECT DISTINCT ng FROM ex WHERE doc_id % 25 = 0),
hits AS (
  SELECT doc_id, COUNT(*) AS n FROM ex
  WHERE doc_id % 25 != 0 AND ng IN (SELECT ng FROM bng)
  GROUP BY doc_id
)
SELECT d.doc_id, COALESCE(h.n, 0) AS n_contaminated
FROM (SELECT doc_id FROM documents WHERE doc_id % 25 != 0) d
LEFT JOIN hits h USING (doc_id)""",
        # PII scrub over documents with deterministic PII injected into
        # every even doc (same injection as q_pii_scrub); the
        # replacement chain order (email → phone → ip) is the contract
        "pii_scrub": r"""
WITH injected AS (
  SELECT doc_id,
         CASE WHEN doc_id % 2 = 0
              THEN text || ' contact user' || doc_id
                   || '@mail.example.com call 555-010-' || (doc_id % 9000 + 1000)
                   || ' from 10.0.' || (doc_id % 256) || '.1'
              ELSE text END AS text
  FROM documents
),
s1 AS (
  SELECT doc_id,
         len(regexp_extract_all(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS c1,
         regexp_replace(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g') AS t
  FROM injected
),
s2 AS (
  SELECT doc_id, c1,
         len(regexp_extract_all(t, '\+?\d{3}[- .]\d{3,4}[- .]\d{4}')) AS c2,
         regexp_replace(t, '\+?\d{3}[- .]\d{3,4}[- .]\d{4}', '<PHONE>', 'g') AS t
  FROM s1
),
s3 AS (
  SELECT doc_id, c1, c2,
         len(regexp_extract_all(t, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS c3,
         regexp_replace(t, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g') AS t
  FROM s2
)
SELECT doc_id, t AS clean_text, CAST(c1 + c2 + c3 AS BIGINT) AS n_redactions FROM s3""",
        # concat-and-chunk sequence packing, window 512, ascending
        # doc_id order (the distributed two-pass prefix sum's contract)
        "pack_sequences": """
WITH t AS (SELECT doc_id, len(string_split(text, ' ')) AS n_tokens FROM documents),
c AS (
  SELECT doc_id, n_tokens,
         CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS cb
  FROM t
)
SELECT doc_id, n_tokens, cb // 512 AS seq_id, cb % 512 AS offset FROM c""",
        # Gopher-style repetition counts (integer, bit-exact): bigram
        # windows via 1-based list indexing, dup = occurrences of
        # bigrams appearing more than once within the doc
        "repetition_stats": """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
base AS (
  SELECT doc_id, CAST(len(l) AS BIGINT) AS n_tokens,
         CAST(len(list_distinct(l)) AS BIGINT) AS n_unique_tokens,
         CAST(greatest(len(l) - 1, 0) AS BIGINT) AS n_2grams
  FROM toks
),
ng AS (
  SELECT doc_id, unnest(list_transform(range(1, len(l)),
         i -> l[i] || ' ' || l[i + 1])) AS g
  FROM toks
),
gc AS (SELECT doc_id, g, COUNT(*) AS c FROM ng GROUP BY doc_id, g),
agg AS (
  SELECT doc_id, MAX(c) AS top_2gram_count,
         SUM(CASE WHEN c > 1 THEN c ELSE 0 END) AS dup_2gram_count
  FROM gc GROUP BY doc_id
)
SELECT b.doc_id, b.n_tokens, b.n_unique_tokens, b.n_2grams,
       CAST(COALESCE(a.top_2gram_count, 0) AS BIGINT) AS top_2gram_count,
       CAST(COALESCE(a.dup_2gram_count, 0) AS BIGINT) AS dup_2gram_count
FROM base b LEFT JOIN agg a USING (doc_id)""",
        # cross-corpus duplicate trigrams: window total and windows
        # whose trigram occurs >= 2 times corpus-wide; docs with < 3
        # tokens have no windows and no row (engine contract)
        "dup_ngrams": """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
ng AS (
  SELECT doc_id, unnest(list_transform(range(1, len(l) - 1),
         i -> l[i] || ' ' || l[i + 1] || ' ' || l[i + 2])) AS g
  FROM toks
),
cnt AS (SELECT g, COUNT(*) AS c FROM ng GROUP BY g)
SELECT ng.doc_id,
       CAST(COUNT(*) AS BIGINT) AS total_ngrams,
       CAST(SUM(CASE WHEN cnt.c >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS dup_ngrams
FROM ng JOIN cnt USING (g)
GROUP BY ng.doc_id""",
        # k-min-hash quantile sketch: the deterministic hash sample is
        # ORDER BY splitmix64(o_orderkey) LIMIT 512 (ties by value);
        # quantile_disc = element at ceil(q·n)−1, matching the Ray side
        "quantile_sketch": f"""
WITH src AS (SELECT CAST(o_orderkey AS UBIGINT) AS x,
                    CAST(round(o_totalprice * 100) AS BIGINT) AS v
             FROM orders),
{_splitmix64_ctes('src', 'x', 'hashed')},
samp AS (SELECT v FROM hashed ORDER BY h, v LIMIT 512)
SELECT 'p25' AS q_name, 0.25 AS q, quantile_disc(v, 0.25) AS value FROM samp
UNION ALL
SELECT 'p50', 0.5, quantile_disc(v, 0.5) FROM samp
UNION ALL
SELECT 'p90', 0.9, quantile_disc(v, 0.9) FROM samp
UNION ALL
SELECT 'p99', 0.99, quantile_disc(v, 0.99) FROM samp""",
        # deterministic shuffle-export assignment: splitmix64(doc_id
        # XOR seed), shard = h mod 32, sort_key = h div 32 (seed 7 and
        # 32 shards mirror q_export_shards)
        # JSON int field extracted by regex, aggregated per event type
        "event_props_stats": r"""
WITH e AS (SELECT event_type,
                  CAST(regexp_extract(props, '"k"\s*:\s*(-?\d+)', 1)
                       AS BIGINT) AS k
           FROM events)
SELECT event_type, CAST(COUNT(k) AS BIGINT) AS n,
       CAST(SUM(k) AS BIGINT) AS sum_k,
       CAST(MIN(k) AS BIGINT) AS min_k,
       CAST(MAX(k) AS BIGINT) AS max_k
FROM e GROUP BY event_type""",
        # gaps-and-islands merge of 30-minute activity intervals
        "user_activity_islands": """
WITH iv AS (SELECT user_id, epoch_us(ts) AS s,
                   epoch_us(ts) + 1800000000 AS e FROM events),
o AS (SELECT user_id, s, e,
             MAX(e) OVER (PARTITION BY user_id ORDER BY s, e
                          ROWS BETWEEN UNBOUNDED PRECEDING
                          AND 1 PRECEDING) AS prev_end
      FROM iv),
isl AS (SELECT user_id, s, e,
               SUM(CASE WHEN prev_end IS NULL OR s > prev_end
                        THEN 1 ELSE 0 END)
                 OVER (PARTITION BY user_id ORDER BY s, e
                       ROWS UNBOUNDED PRECEDING) AS island
        FROM o)
SELECT user_id, MIN(s) AS island_start, MAX(e) AS island_end,
       CAST(COUNT(*) AS BIGINT) AS n_merged
FROM isl GROUP BY user_id, island""",
        # robust MAD outliers: discrete-quantile median and MAD
        "event_value_outliers": """
WITH med AS (SELECT user_id, quantile_disc(value, 0.5) AS med
             FROM events GROUP BY user_id),
dev AS (SELECT e.event_id, e.user_id, e.value,
               abs(e.value - m.med) AS d
        FROM events e JOIN med m USING (user_id)),
mad AS (SELECT user_id, quantile_disc(d, 0.5) AS mad
        FROM dev GROUP BY user_id)
SELECT dev.user_id, dev.value, dev.event_id
FROM dev JOIN mad USING (user_id)
WHERE dev.d > 3 * mad.mad""",
        # weekly cohort retention: first-activity week per user, then
        # distinct users per (cohort, offset)
        "user_retention_cohorts": """
WITH w AS (SELECT DISTINCT user_id,
                  epoch_us(ts) // 604800000000 AS period FROM events),
f AS (SELECT user_id, MIN(period) AS cohort FROM w GROUP BY user_id)
SELECT f.cohort, w.period - f.cohort AS "offset",
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM w JOIN f USING (user_id)
GROUP BY f.cohort, w.period - f.cohort""",
        # per-language source HHI over floored basis-point shares
        "source_concentration": """
WITH c AS (SELECT lang, source, COUNT(*) AS n
           FROM documents GROUP BY lang, source),
t AS (SELECT lang, SUM(n) AS tot FROM c GROUP BY lang)
SELECT c.lang, CAST(COUNT(*) AS BIGINT) AS n_items,
       CAST(SUM(((10000 * c.n) // t.tot) * ((10000 * c.n) // t.tot))
            AS BIGINT) AS hhi
FROM c JOIN t USING (lang) GROUP BY c.lang""",
        # sorted-neighborhood window pairs over the global row order
        "docs_sorted_neighborhood": """
WITH r AS (SELECT doc_id, n_chars,
                  ROW_NUMBER() OVER (ORDER BY n_chars, doc_id) AS rn
           FROM documents)
SELECT a.doc_id AS src_id, b.doc_id AS dst_id
FROM r a JOIN r b ON b.rn > a.rn AND b.rn <= a.rn + 4""",
        # bigram PMI lift in exact HUGEINT arithmetic
        "collocations_top": """
WITH t AS (SELECT string_split(text, ' ') AS l FROM documents),
uni AS (SELECT unnest(l) AS w FROM t),
uc AS (SELECT w, COUNT(*) AS c FROM uni GROUP BY w),
bi0 AS (SELECT l, unnest(generate_series(1, len(l) - 1)) AS i
        FROM t WHERE len(l) >= 2),
bi AS (SELECT l[i] AS w1, l[i+1] AS w2 FROM bi0),
bc AS (SELECT w1, w2, COUNT(*) AS c FROM bi GROUP BY w1, w2),
n1 AS (SELECT SUM(c) AS v FROM uc),
n2 AS (SELECT SUM(c) AS v FROM bc)
SELECT bc.w1, bc.w2, CAST(bc.c AS BIGINT) AS c,
       CAST((10000 * CAST(bc.c AS HUGEINT) * n1.v * n1.v)
            // (CAST(u1.c AS HUGEINT) * u2.c * n2.v) AS BIGINT) AS lift_bp
FROM bc JOIN uc u1 ON u1.w = bc.w1 JOIN uc u2 ON u2.w = bc.w2, n1, n2
WHERE bc.c >= 5
ORDER BY lift_bp DESC, bc.w1, bc.w2 LIMIT 50""",
        # distinct per-doc 3-grams → df per gram → per-doc unique share
        "ngram_novelty": """
WITH t AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
g0 AS (SELECT doc_id, l, unnest(generate_series(1, len(l) - 2)) AS i
       FROM t WHERE len(l) >= 3),
g AS (SELECT DISTINCT doc_id,
             l[i] || ' ' || l[i+1] || ' ' || l[i+2] AS gram
      FROM g0),
df AS (SELECT gram, COUNT(*) AS d FROM g GROUP BY gram)
SELECT g.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_grams,
       CAST(SUM(CASE WHEN df.d = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_unique,
       CAST((10000 * SUM(CASE WHEN df.d = 1 THEN 1 ELSE 0 END)) // COUNT(*)
            AS BIGINT) AS novelty_bp
FROM g JOIN df USING (gram)
GROUP BY g.doc_id""",
        # deterministic negative sampling: 4 splitmix64 draws per
        # anchor over the dense id space, self-collisions bumped
        "doc_negative_samples": f"""
WITH nn AS (SELECT COUNT(*) AS c FROM documents),
base AS (SELECT doc_id,
                unnest(generate_series(0, 3)) AS j
         FROM documents),
b2 AS (SELECT doc_id, j,
              xor(CAST(doc_id AS UBIGINT), CAST(3 + j AS UBIGINT)) AS x
       FROM base),
{_splitmix64_ctes('b2', 'x', 'hashed')}
SELECT doc_id, j,
       CASE WHEN CAST(h % nn.c AS BIGINT) = doc_id
            THEN (CAST(h % nn.c AS BIGINT) + 1) % nn.c
            ELSE CAST(h % nn.c AS BIGINT) END AS neg_id
FROM hashed, nn""",
        "train_val_test_split": f"""
WITH src AS (SELECT doc_id, CAST(doc_id AS UBIGINT) AS x FROM documents),
{_splitmix64_ctes('src', 'x', 'hashed')}
SELECT doc_id,
       CASE WHEN h % 10000 < 9000 THEN 'train'
            WHEN h % 10000 < 9500 THEN 'val'
            ELSE 'test' END AS split
FROM hashed""",
        "export_shards": f"""
WITH src AS (SELECT doc_id, xor(CAST(doc_id AS UBIGINT), 7) AS x FROM documents),
{_splitmix64_ctes('src', 'x', 'hashed')}
SELECT doc_id, CAST(h % 32 AS BIGINT) AS shard,
       CAST(h // 32 AS BIGINT) AS sort_key
FROM hashed""",
        # corpus-global top-100 vocabulary coverage; top-K ties break
        # by (count DESC, token ASC) on both sides
        "vocab_coverage": """
WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents),
cnt AS (SELECT t, COUNT(*) AS c FROM tok GROUP BY t),
vocab AS (SELECT t FROM cnt ORDER BY c DESC, t ASC LIMIT 100)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
       CAST(SUM(CASE WHEN t IN (SELECT t FROM vocab) THEN 1 ELSE 0 END) AS BIGINT)
         AS n_in_vocab
FROM tok GROUP BY doc_id""",
        # vocab id-encoding: id = frequency-rank position (0-based),
        # OOV left-join misses; per-doc integer summary
        "dict_encode_ids": """
WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents),
cnt AS (SELECT t, COUNT(*) AS c FROM tok GROUP BY t),
vocab AS (SELECT t, row_number() OVER (ORDER BY c DESC, t ASC) - 1 AS tid
          FROM cnt ORDER BY c DESC, t ASC LIMIT 256)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
       CAST(SUM(CASE WHEN v.tid IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_oov,
       CAST(COALESCE(SUM(v.tid), 0) AS BIGINT) AS id_sum
FROM tok LEFT JOIN vocab v ON v.t = tok.t
GROUP BY doc_id""",
        "orders_per_segment": """
SELECT c.c_mktsegment,
       COUNT(*) AS n_orders,
       CAST(SUM(CAST(round(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_cents
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment""",
        "brand_revenue": """
SELECT p.p_brand,
       COUNT(*) AS n_items,
       CAST(SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(round(l.l_discount * 100) AS BIGINT))) AS BIGINT) AS revenue_c4
FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
GROUP BY p.p_brand""",
    }
