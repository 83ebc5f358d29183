"""Driver-mimicking correctness harness: run every queries() entry and
its oracle_sql() twin on the same sf dir; compare row count, schema and
order-insensitive values (columns sorted by name, rows sorted).

Usage: python scripts/check_oracles.py [sf_dir] [pattern ...]

Each pattern is a query name or a shell-style pattern (``fnmatch``):
``'sparql_*'`` runs every SPARQL key. A pattern that matches no key is
an error (exit 2), so a scoped run cannot pass by checking nothing; the
summary line says how many keys were checked.
"""

from __future__ import annotations

import fnmatch
import os
import sys
import time

import duckdb
import pandas as pd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return pd.DataFrame(result)


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith(("int", "uint", "Int")):
            df[c] = df[c].astype("int64")
        elif str(df[c].dtype) == "bool":
            df[c] = df[c].astype(bool)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = sys.argv[2:]

    sys.path.insert(0, ROOT)
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    unmatched = [p for p in only if not any(fnmatch.fnmatchcase(k, p) for k in qs)]
    if unmatched:
        print(f"NO KEY matches {unmatched}: nothing checked for them")
        return 2

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=16, include_dashboard=False,
            ignore_reinit_error=True, logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # union-widened map DAGs (build_kg) starve under per-op reservation
    ctx.op_resource_reservation_enabled = False

    import gen_fixtures

    # fixture oracles are sf-keyed; generate any missing for THIS sf so
    # the harness is truthful at any scale factor
    made = gen_fixtures.ensure_fixtures(sf_dir)
    if made:
        print(f"generated {len(made)} missing fixtures for {sf_dir}: {made}")

    sqls = entrymod.oracle_sql(sf_dir)

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    failures = []
    checked = 0
    for name, fn in qs.items():
        if only and not any(fnmatch.fnmatchcase(name, pat) for pat in only):
            continue
        checked += 1
        t0 = time.time()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failures.append(name)
            continue
        wall = time.time() - t0
        if name not in sqls:
            print(f"ok   {name}: rows={len(got)} (rows-only, no oracle) [{wall:.1f}s]")
            continue
        want = canon(con.execute(sqls[name]).fetchdf())
        status = []
        if len(got) != len(want):
            status.append(f"rowcount {len(got)} != {len(want)}")
        if list(got.columns) != list(want.columns):
            status.append(f"schema {list(got.columns)} != {list(want.columns)}")
        if not status:
            if not got.equals(want):
                neq = (got != want).any(axis=1)
                idx = neq[neq].index[:3]
                detail = [
                    (got.loc[i].to_dict(), want.loc[i].to_dict()) for i in idx
                ]
                status.append(f"values differ at {list(idx)[:3]}: {detail}")
        if status:
            print(f"FAIL {name}: {'; '.join(status)} [{wall:.1f}s]")
            failures.append(name)
        else:
            print(f"ok   {name}: rows={len(got)} values match [{wall:.1f}s]")

    print(
        f"\n{checked} keys checked, {len(failures)} failures"
        + (f": {failures}" if failures else "")
    )
    return 1 if failures else 0


if __name__ == "__main__":
    rc = main()
    import ray

    ray.shutdown()
    sys.exit(rc)
