"""The driver registry, its oracles, the timed bench subset and the
golden fixtures describe one set of keys: a family deleted from one of
them must be deleted from all of them."""

import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "fixtures")
SF_DIRS = ("/root/testdata/sf0.01", "/root/testdata/sf0.001")

sys.path.insert(0, ROOT)

import __ray_entry__ as entrymod  # noqa: E402
import bench  # noqa: E402


def test_registry_oracles_bench_and_fixtures_agree():
    keys = set(entrymod.queries())
    read = set()
    for sf in SF_DIRS:
        sqls = entrymod.oracle_sql(sf)
        assert set(sqls) == keys, (sf, keys ^ set(sqls))
        for sql in sqls.values():
            read.update(re.findall(r"read_parquet\('([^']*/fixtures/[^']*)'\)", sql))
    assert set(bench.BENCH_QUERIES) <= keys, set(bench.BENCH_QUERIES) - keys
    # every fixture an oracle reads is this checkout's own, and exists
    assert {os.path.dirname(p) for p in read} == {FIXTURES}
    assert {p for p in read if not os.path.exists(p)} == set()
    # no orphan: every fixture file is read by some oracle
    on_disk = set(glob.glob(os.path.join(FIXTURES, "*.parquet")))
    assert on_disk - read == set()
