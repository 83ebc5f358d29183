"""Input corpora and DuckDB ground truth for the benchmark.

The pipeline reads ``{dir}/documents.parquet`` with columns
``(doc_id: int64, text: string, lang: string)``. ``data/`` holds those
three columns of the repository's synthetic ``documents`` tables at
sf0.1 (5,000 documents) and sf0.001 (500 documents): the same rows,
re-encoded with zstd. A workload reads a corpus as its first ``n``
documents in ``doc_id`` order.
"""

from __future__ import annotations

import os

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
PAGE_PREFIX = "<https://docs.example.org/page/"


def documents(name: str, n_docs: int | None = None) -> pa.Table:
    table = pq.read_table(os.path.join(DATA, f"{name}_documents.parquet"))
    return table if n_docs is None else table.slice(0, n_docs)


def write_corpus(path: str, name: str, n_docs: int | None = None) -> str:
    os.makedirs(path, exist_ok=True)
    pq.write_table(documents(name, n_docs), os.path.join(path, "documents.parquet"))
    return path


def connect(workdir: str) -> duckdb.DuckDBPyConnection:
    """In-memory DuckDB whose spill files stay inside ``workdir``."""
    con = duckdb.connect()
    con.execute(f"SET temp_directory = '{os.path.join(workdir, 'duckdb_tmp')}'")
    con.execute("SET threads = 1")
    return con


def create_oracle(con: duckdb.DuckDBPyConnection, table: str, corpus_dir: str) -> int:
    """Store in ``table`` the exact amplify-1 triple set of
    ``build_kg(corpus_dir)``, from the pipeline's own SQL
    specification; return its row count."""
    from ontograph_ray.pipelines.kg import kg_oracle_sql

    doc_path = os.path.join(corpus_dir, "documents.parquet")
    con.execute(f"CREATE OR REPLACE VIEW documents AS SELECT * FROM read_parquet('{doc_path}')")
    con.execute(f"CREATE OR REPLACE TABLE {table} AS {kg_oracle_sql()}")
    return con.execute(f"SELECT count(*) FROM {table}").fetchone()[0]


def page_shared_split(con: duckdb.DuckDBPyConnection, table: str) -> tuple[int, int]:
    """(P, S): page-subject triples, which repeat once per replica of
    an amplified build, and the entity and relation triples that all
    replicas share."""
    return con.execute(
        f"SELECT count(*) FILTER (WHERE starts_with(subject, ?)), "
        f"count(*) FILTER (WHERE NOT starts_with(subject, ?)) FROM {table}",
        [PAGE_PREFIX, PAGE_PREFIX],
    ).fetchone()


def same_triples(con: duckdb.DuckDBPyConnection, a: str, b: str) -> bool:
    """Whether two relations hold the same multiset of triples."""
    cols = "subject, predicate, object"
    (n,) = con.execute(
        f"SELECT (SELECT count(*) FROM (SELECT {cols} FROM {a} EXCEPT ALL SELECT {cols} FROM {b}))"
        f" + (SELECT count(*) FROM (SELECT {cols} FROM {b} EXCEPT ALL SELECT {cols} FROM {a}))"
    ).fetchone()
    return n == 0
