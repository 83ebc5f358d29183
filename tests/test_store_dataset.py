"""DatasetGraphStore conformance — same 7-triple fixture as the memory
backend, exercised through the lazy Ray Dataset path, plus the
distributed primitives (dedup, anti-join, N-Triples sink round-trip)."""

import os

import pytest

from ontograph_ray.store import DatasetGraphStore, distinct_on
from ontograph_ray.triples import Triple, triples_to_table

from test_store import G, TT, fixture_triples


@pytest.fixture
def dstore(ray_session):
    return DatasetGraphStore.from_triples(G, fixture_triples())


def test_uri_and_size(dstore):
    assert dstore.get_uri() == G
    assert dstore.size() == len(TT)


def test_get_all_matches(dstore):
    got = dstore.get_all_matches("", f"<{G}#rel-1>", "")
    assert sorted(got) == sorted(TT[0:3])
    assert dstore.get_all_matches("", f"<{G}#rel-1>", '"lit1"') == []
    assert sorted(dstore.get_all_matches()) == sorted(TT)


def test_get_first_match(dstore):
    assert dstore.get_first_match("", f"<{G}#rel-3>", '"lit1"') == TT[4]
    assert dstore.get_first_match(f"<{G}>", f"<{G}#rel-1>", "") in TT[0:3]
    assert dstore.get_first_match("", f"<{G}#rel-42>", "") is None


def test_without_matches(dstore):
    out = dstore.without_matches("", "", f"<{G}#b>")
    trps = out.get_all_matches()
    assert TT[1] not in trps and TT[3] not in trps
    assert len(trps) == 5


def test_add_triples_unchecked_dedups(dstore):
    # re-adding existing triples plus one new one: set semantics hold
    new = Triple(f"<{G}#a>", f"<{G}#rel-9>", '"new"')
    out = dstore.add_triples_unchecked([TT[0], TT[1], new])
    trps = out.get_all_matches()
    assert len(trps) == len(TT) + 1
    assert new in trps


def test_delete_triples_unchecked(dstore):
    out = dstore.delete_triples_unchecked([TT[0], TT[4]])
    trps = out.get_all_matches()
    assert TT[0] not in trps and TT[4] not in trps
    assert len(trps) == len(TT) - 2


def test_dedup_exactness(ray_session):
    import ray.data

    # triple set duplicated 5x across blocks → exactly one of each survives
    tbl = triples_to_table(TT * 5)
    ds = ray.data.from_arrow(tbl).repartition(4)
    out = distinct_on(ds, ["subject", "predicate", "object"])
    rows = out.take_all()
    got = sorted(Triple(r["subject"], r["predicate"], r["object"]) for r in rows)
    assert got == sorted(TT)


class TestRoutingRule:
    """bucket_ids is the one routing rule of every bucketed exchange:
    equal key values must get equal buckets whatever form the block
    carries them in, or a distinct/join/co-group silently splits a
    key across buckets."""

    KEYS = [f"<urn:k{i}>" for i in range(40)]
    N = 7

    def _forms(self, keys):
        import pyarrow as pa

        plain = pa.array(keys, pa.string())
        return {
            "string": plain,
            "large_string": pa.array(keys, pa.large_string()),
            "dictionary": plain.dictionary_encode(),
            # same values, dictionary in a different order: an index
            # hash would route these differently
            "dictionary_reordered": pa.DictionaryArray.from_arrays(
                pa.array([len(keys) - 1 - i for i in range(len(keys))], pa.int32()),
                pa.array(keys[::-1], pa.string()),
            ),
        }

    def _want(self, key_strings):
        import pandas as pd

        h = pd.util.hash_pandas_object(
            pd.Series(key_strings, dtype="object"), index=False
        )
        return (h % self.N).astype("int64").tolist()

    def test_same_bucket_for_every_string_form(self):
        import pyarrow as pa

        from ontograph_ray.store.dataset import bucket_ids

        want = self._want(self.KEYS)
        assert len(set(want)) > 1
        for name, col in self._forms(self.KEYS).items():
            got = bucket_ids(pa.table({"k": col}), ["k"], self.N).to_pylist()
            assert got == want, name

    def test_two_column_key_with_null(self):
        import pyarrow as pa

        from ontograph_ray.store.dataset import bucket_ids

        a = ["x", "x", "y", None]
        b = ["p", None, "q", "p"]
        want = self._want(["x\x1fp", "x\x1f\x00", "y\x1fq", "\x00\x1fp"])
        for enc in (False, True):
            cols = {"a": pa.array(a), "b": pa.array(b)}
            if enc:
                cols = {c: v.dictionary_encode() for c, v in cols.items()}
            got = bucket_ids(pa.table(cols), ["a", "b"], self.N).to_pylist()
            assert got == want, enc

    def test_null_led_key_routes_alike_whatever_shares_its_block(self):
        """A key with a null routes by its whole value. A categorized
        pandas hash compares strings only up to their first ``\\x00``
        (the null marker), so every key of a block starting with a null
        took the bucket of the first such key, and one key got a
        different bucket per block."""
        import pyarrow as pa

        from ontograph_ray.store.dataset import bucket_ids

        def route(b):
            a = pa.nulls(len(b), pa.string())
            return bucket_ids(pa.table({"a": a, "b": b}), ["a", "b"], self.N).to_pylist()

        alone = [route([k])[0] for k in self.KEYS]
        assert len(set(alone)) > 1
        assert route(self.KEYS) == alone
        assert route(self.KEYS[::-1]) == alone[::-1]

    def test_exchange_routes_every_block_form_alike(self, ray_session):
        import pandas as pd
        import pyarrow as pa
        import ray.data

        from ontograph_ray.store.dataset import bucket_ids, bucketed_group_map

        keys = self.KEYS * 2
        buckets = bucket_ids(pa.table({"k": keys}), ["k"], self.N).to_pylist()
        want = {}
        for k, bk in zip(keys, buckets):
            want.setdefault(bk, set()).add(k)
        want = sorted(sorted(v) for v in want.values())

        def group(df: pd.DataFrame) -> pd.DataFrame:
            ks = sorted(set(df["k"].astype(str)))
            return pd.DataFrame({"k": ks, "first": [ks[0]] * len(ks)})

        def partition(ds):
            out = bucketed_group_map(ds, ["k"], group, self.N).to_pandas()
            return sorted(sorted(g) for _, g in out.groupby("first")["k"])

        chunks = [keys[i : i + 20] for i in range(0, len(keys), 20)]
        inputs = {
            "pandas": ray.data.from_pandas([pd.DataFrame({"k": c}) for c in chunks]),
        }
        for name in ("string", "large_string", "dictionary"):
            inputs[name] = ray.data.from_arrow(
                [pa.table({"k": self._forms(c)[name]}) for c in chunks]
            )
        for name, ds in inputs.items():
            assert partition(ds) == want, name

    def test_hash_join_dictionary_left_equals_plain(self, ray_session):
        import pyarrow as pa
        import ray.data

        from ontograph_ray.store.dataset import hash_join

        lk = self.KEYS[:30] * 2
        rk = self.KEYS[10:]
        lv = list(range(len(lk)))
        right = ray.data.from_arrow(
            pa.table({"k": pa.array(rk), "r": pa.array(range(len(rk)))})
        )

        def left(k_col):
            half = len(lk) // 2
            return ray.data.from_arrow(
                [
                    pa.table({"k": k_col.slice(0, half), "l": pa.array(lv[:half])}),
                    pa.table({"k": k_col.slice(half), "l": pa.array(lv[half:])}),
                ]
            )

        def rows(ds):
            out = hash_join(ds, right, on="k", num_buckets=self.N).to_pandas()
            return sorted(zip(out["k"].astype(str), out["l"], out["r"]))

        plain = rows(left(pa.array(lk)))
        assert len(plain) == 40
        assert rows(left(pa.array(lk).dictionary_encode())) == plain


def test_ntriples_roundtrip(dstore, tmp_path):
    path = str(tmp_path / "nt_out")
    dstore.write_ntriples(path)
    files = [f for f in os.listdir(path) if f.endswith(".nt")]
    assert files
    loaded = DatasetGraphStore.from_ntriples_text(G, path)
    assert sorted(loaded.get_all_matches()) == sorted(TT)


def test_to_memory_store(dstore):
    mem = dstore.to_memory_store()
    assert sorted(mem.get_all_triples()) == sorted(TT)
    assert mem.size() == len(TT)


class TestJoins:
    """Distributed join primitives (engine additions; the physical
    plans behind the reference's semi-/anti-join store ops and the
    entity-linking broadcast join of SURVEY §2.6)."""

    def test_hash_join_inner(self, ray_session):
        import pandas as pd
        import ray.data

        from ontograph_ray.store.dataset import hash_join

        left = ray.data.from_pandas(
            pd.DataFrame({"k": [1, 2, 2, 3], "a": ["x", "y", "z", "w"]})
        )
        right = ray.data.from_pandas(
            pd.DataFrame({"k": [2, 3, 4], "b": [20, 30, 40]})
        )
        got = (
            hash_join(left, right, on="k", num_buckets=4)
            .to_pandas()
            .sort_values(["k", "a"])
            .reset_index(drop=True)
        )
        want = pd.DataFrame(
            {"k": [2, 2, 3], "a": ["y", "z", "w"], "b": [20, 20, 30]}
        )
        pd.testing.assert_frame_equal(got, want)

    def test_hash_join_left(self, ray_session):
        import pandas as pd
        import ray.data

        from ontograph_ray.store.dataset import hash_join

        left = ray.data.from_pandas(pd.DataFrame({"k": [1, 2], "a": ["x", "y"]}))
        right = ray.data.from_pandas(pd.DataFrame({"k": [2], "b": [20.0]}))
        got = (
            hash_join(left, right, on="k", how="left", num_buckets=2)
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        assert got["k"].tolist() == [1, 2]
        assert got["b"].isna().tolist() == [True, False]

    def test_broadcast_join(self, ray_session):
        import pandas as pd
        import ray.data

        from ontograph_ray.store.dataset import broadcast_join

        big = ray.data.from_pandas(
            pd.DataFrame({"k": [1, 2, 3, 2], "v": [10, 20, 30, 21]})
        )
        small = pd.DataFrame({"k": [2, 3], "name": ["two", "three"]})
        got = (
            broadcast_join(big, small, on="k")
            .to_pandas()
            .sort_values(["k", "v"])
            .reset_index(drop=True)
        )
        assert got["name"].tolist() == ["two", "two", "three"]

    def test_hash_join_right(self, ray_session):
        import pandas as pd
        import ray.data

        from ontograph_ray.store.dataset import hash_join

        left = ray.data.from_pandas(pd.DataFrame({"k": [1, 2], "a": ["x", "y"]}))
        right = ray.data.from_pandas(pd.DataFrame({"k": [2, 4], "b": [20.0, 40.0]}))
        got = (
            hash_join(left, right, on="k", how="right", num_buckets=2)
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        assert got["k"].tolist() == [2, 4]
        assert got["a"].isna().tolist() == [False, True]
        assert got["b"].tolist() == [20.0, 40.0]

    def test_hash_join_full_outer(self, ray_session):
        import pandas as pd
        import ray.data

        from ontograph_ray.store.dataset import hash_join

        left = ray.data.from_pandas(
            pd.DataFrame({"k": [1, 2, 3], "a": [1.0, 2.0, 3.0]})
        )
        right = ray.data.from_pandas(pd.DataFrame({"k": [2, 4], "b": [20.0, 40.0]}))
        got = (
            hash_join(left, right, on="k", how="outer", num_buckets=4)
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        assert got["k"].tolist() == [1, 2, 3, 4]
        assert got["a"].isna().tolist() == [False, False, False, True]
        assert got["b"].isna().tolist() == [True, False, True, False]

    def test_top_k_per_group(self, ray_session):
        import pandas as pd
        import ray.data

        from ontograph_ray.store.dataset import top_k_per_group

        df = pd.DataFrame(
            {
                "g": [1, 1, 1, 1, 2, 2, 3],
                "v": [5, 9, 9, 1, 4, 7, 2],
                "id": [10, 11, 12, 13, 20, 21, 30],
            }
        )
        # split across blocks so the per-block combiner actually runs
        ds = ray.data.from_pandas([df.iloc[:3], df.iloc[3:]])
        got = (
            top_k_per_group(
                ds, ["g"], ["v", "id"], ascending=[False, True], k=2,
                rank_col="rn", num_buckets=4,
            )
            .to_pandas()
            .sort_values(["g", "rn"])
            .reset_index(drop=True)
        )
        # g=1: (9,11),(9,12); g=2: (7,21),(4,20); g=3: (2,30)
        assert got["id"].tolist() == [11, 12, 21, 20, 30]
        assert got["rn"].tolist() == [1, 2, 1, 2, 1]

    def test_hash_join_null_keys_never_match(self, ray_session):
        """SQL semantics: NULL join keys match nothing (pandas merge
        would match NaN==NaN); outer sides still keep their null-key
        rows unmatched."""
        import pandas as pd
        import ray.data

        from ontograph_ray.store.dataset import hash_join

        left = ray.data.from_pandas(
            pd.DataFrame({"k": [1.0, None, 2.0], "a": ["x", "y", "z"]})
        )
        right = ray.data.from_pandas(
            pd.DataFrame({"k": [1.0, None], "b": [10.0, 99.0]})
        )
        inner = hash_join(left, right, on="k", num_buckets=2).to_pandas()
        assert inner["a"].tolist() == ["x"] and inner["b"].tolist() == [10.0]
        outer = (
            hash_join(left, right, on="k", how="outer", num_buckets=2)
            .to_pandas()
            .sort_values(["a", "b"], na_position="last")
        )
        # 1 match + unmatched: left None-key, left k=2, right None-key
        assert len(outer) == 4
        assert outer["b"].isna().sum() == 2  # left rows with no match
        assert outer["a"].isna().sum() == 1  # right null-key row kept

    def test_hash_join_anti_semi(self, ray_session):
        """anti = NOT EXISTS, semi = EXISTS: output is the left columns
        only; null-key left rows match nothing (anti keeps them, semi
        drops them) — NOT the SQL NOT-IN null trap."""
        import pandas as pd
        import ray.data

        from ontograph_ray.store.dataset import hash_join

        left = ray.data.from_pandas(
            pd.DataFrame({"k": [1.0, 2.0, None, 3.0], "a": ["w", "x", "y", "z"]})
        )
        right = ray.data.from_pandas(
            pd.DataFrame({"k": [2.0, 2.0, None], "b": [20.0, 21.0, 99.0]})
        )
        anti = hash_join(left, right, on="k", how="anti", num_buckets=2).to_pandas()
        assert list(anti.columns) == ["k", "a"]
        assert sorted(anti["a"]) == ["w", "y", "z"]
        semi = hash_join(left, right, on="k", how="semi", num_buckets=2).to_pandas()
        assert list(semi.columns) == ["k", "a"]
        # semi does not multiply matches: k=2 appears twice on the right
        assert sorted(semi["a"]) == ["x"]

    def test_hash_join_dictionary_encoded_inputs(self, ray_session):
        """The KG fast path emits dictionary-encoded string columns;
        joins must decode them (unified-type cast) and still match a
        plain-string join exactly."""
        import pandas as pd
        import pyarrow as pa
        import ray.data

        from ontograph_ray.store.dataset import hash_join

        plain = pa.table({"k": ["a", "b", "c"], "v": [1, 2, 3]})
        encoded = pa.table(
            {"k": pa.array(["a", "b", "c"]).dictionary_encode(), "v": [1, 2, 3]}
        )
        right = ray.data.from_arrow(pa.table({"k": ["a", "c"], "w": [10, 30]}))

        def run(tbl):
            return (
                hash_join(ray.data.from_arrow(tbl), right, on="k", num_buckets=2)
                .to_pandas()
                .sort_values("k")
                .reset_index(drop=True)
            )

        pd.testing.assert_frame_equal(run(plain), run(encoded))
        assert sorted(run(encoded)["w"]) == [10, 30]

    def test_hash_join_empty_sides(self, ray_session):
        """Empty right/left sides: inner joins are empty, left joins
        keep the non-empty side with typed null columns."""
        import pandas as pd
        import ray.data

        from ontograph_ray.store.dataset import hash_join

        left = ray.data.from_pandas(pd.DataFrame({"k": [1, 2], "a": ["x", "y"]}))
        empty = ray.data.from_pandas(pd.DataFrame({"k": pd.Series(dtype="int64"),
                                                   "b": pd.Series(dtype="int64")}))
        assert hash_join(left, empty, on="k", num_buckets=2).count() == 0
        out = hash_join(left, empty, on="k", how="left", num_buckets=2).to_pandas()
        assert sorted(out["a"]) == ["x", "y"] and out["b"].isna().all()
        assert hash_join(empty, left.map_batches(
            lambda df: df.rename(columns={"a": "c"}), batch_format="pandas"
        ), on="k", num_buckets=2).count() == 0

    def test_asof_join_interleaved(self, ray_session):
        """Non-degenerate as-of: right rows interleave with left times,
        so each left row matches a DIFFERENT most-recent right row;
        rows before any right row are dropped (inner semantics)."""
        import pandas as pd
        import ray.data

        from ontograph_ray.store.dataset import asof_join

        left = ray.data.from_pandas(
            pd.DataFrame(
                {
                    "k": [1, 1, 1, 2, 2],
                    "t": [5, 15, 25, 8, 1],
                    "ev": ["a", "b", "c", "d", "e"],
                }
            )
        )
        right = ray.data.from_pandas(
            pd.DataFrame({"k": [1, 1, 2], "t": [10, 20, 3], "px": [100, 200, 300]})
        )
        got = (
            asof_join(left, right, key="k", time_col="t", num_buckets=4)
            .to_pandas()
            .sort_values(["k", "t"])
            .reset_index(drop=True)
        )
        # k=1: t=5 has no earlier right row (dropped); t=15→px 100; t=25→px 200
        # k=2: t=1 dropped; t=8→px 300
        assert got["ev"].tolist() == ["b", "c", "d"]
        assert got["px"].tolist() == [100, 200, 300]
        assert got["t_right"].tolist() == [10, 20, 3]


class TestCheckedBatchOps:
    """All-or-nothing distributed batch add/delete (G7/G11) on the
    Dataset backend — same conformance corpus as the memory backend
    (reference memory_store_test.go:139-354), validate-then-commit
    instead of mutate-then-rollback."""

    def _new(self, g=G):
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r = terms.new_resource_term
        return [
            new_triple(r(f"{g}#x"), r(f"{g}#rel-9"), r(f"{g}#y")),
            new_triple(r(f"{g}#y"), r(f"{g}#rel-9"), r(f"{g}#z")),
        ]

    def test_add_checked_ok(self, dstore):
        out = dstore.add_triples_checked(self._new())
        assert out.size() == 9
        assert dstore.size() == 7  # immutable: original untouched

    def test_add_checked_conflict_with_store(self, dstore):
        from ontograph_ray.store import TripleAlreadyExistsError

        with pytest.raises(TripleAlreadyExistsError):
            dstore.add_triples_checked(self._new() + [TT[3]])

    def test_add_checked_duplicate_within_batch(self, dstore):
        from ontograph_ray.store import TripleAlreadyExistsError

        new = self._new()
        with pytest.raises(TripleAlreadyExistsError):
            dstore.add_triples_checked(new + [new[0]])

    def test_add_checked_dataset_path(self, dstore):
        """Bulk (Dataset) batches take the fully-distributed plan:
        bucketed distinct for in-batch dups, bucketed hash-join for
        overlap."""
        import ray.data

        from ontograph_ray.store import TripleAlreadyExistsError

        ok = ray.data.from_arrow(triples_to_table(self._new()))
        assert dstore.add_triples_checked(ok).size() == 9

        overlap = ray.data.from_arrow(triples_to_table(self._new() + [TT[0]]))
        with pytest.raises(TripleAlreadyExistsError):
            dstore.add_triples_checked(overlap)

        in_dup = ray.data.from_arrow(
            triples_to_table(self._new() + [self._new()[1]])
        )
        with pytest.raises(TripleAlreadyExistsError):
            dstore.add_triples_checked(in_dup)

    def test_add_checked_empty_batch_noop(self, dstore):
        assert dstore.add_triples_checked([]).size() == 7

    def test_delete_checked_ok(self, dstore):
        out = dstore.delete_triples_checked([TT[0], TT[4]])
        assert out.size() == 5
        assert dstore.size() == 7

    def test_delete_checked_missing_aborts(self, dstore):
        from ontograph_ray.store import TripleDoesNotExistError

        with pytest.raises(TripleDoesNotExistError):
            dstore.delete_triples_checked([TT[0], self._new()[0]])
        assert dstore.size() == 7

    def test_drop_renders_unusable(self, dstore):
        dstore.drop()
        with pytest.raises(RuntimeError):
            dstore.size()
        with pytest.raises(RuntimeError):
            dstore.matches()


class TestVersionedStorage:
    """Durable staged-write + manifest-swap commit (SURVEY §4's scale
    replacement for the reference's compensation loops)."""

    def _storage(self, tmp_path):
        from ontograph_ray.store import VersionedGraphStorage

        return VersionedGraphStorage(str(tmp_path / "graph"), G)

    def test_commit_load_roundtrip(self, ray_session, tmp_path):
        vs = self._storage(tmp_path)
        assert vs.current_version() == 0
        assert vs.load().size() == 0

        v = vs.add_triples_unchecked(fixture_triples())
        assert v == 1
        assert vs.current_version() == 1
        assert vs.load().size() == 7
        assert vs.versions()["1"]["rows"] == 7

    def test_checked_add_conflict_leaves_store_untouched(
        self, ray_session, tmp_path
    ):
        from ontograph_ray.store import TripleAlreadyExistsError

        vs = self._storage(tmp_path)
        vs.add_triples_unchecked(fixture_triples())
        with pytest.raises(TripleAlreadyExistsError):
            vs.add_triples_checked([TT[2]])
        assert vs.current_version() == 1
        assert vs.load().size() == 7

    def test_checked_add_and_delete_advance_versions(
        self, ray_session, tmp_path
    ):
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        vs = self._storage(tmp_path)
        vs.add_triples_unchecked(fixture_triples())
        r = terms.new_resource_term
        extra = new_triple(r(f"{G}#q"), r(f"{G}#rel-8"), r(f"{G}#w"))
        assert vs.add_triples_checked([extra]) == 2
        assert vs.load().size() == 8
        assert vs.delete_triples_checked([extra, TT[6]]) == 3
        assert vs.load().size() == 6
        # time travel: historical versions stay readable until gc
        assert vs.load(version=1).size() == 7

    def test_checked_delete_missing_leaves_store_untouched(
        self, ray_session, tmp_path
    ):
        from ontograph_ray import terms
        from ontograph_ray.store import TripleDoesNotExistError
        from ontograph_ray.triples import new_triple

        vs = self._storage(tmp_path)
        vs.add_triples_unchecked(fixture_triples())
        r = terms.new_resource_term
        ghost = new_triple(r(f"{G}#no"), r(f"{G}#rel-0"), r(f"{G}#no"))
        with pytest.raises(TripleDoesNotExistError):
            vs.delete_triples_checked([TT[0], ghost])
        assert vs.current_version() == 1
        assert vs.load().size() == 7

    def test_crashed_commit_is_invisible_and_cleaned(
        self, ray_session, tmp_path
    ):
        """A v=N.tmp left by a crash is never read and is replaced by
        the next successful commit."""
        vs = self._storage(tmp_path)
        vs.add_triples_unchecked(fixture_triples())
        stale = tmp_path / "graph" / "v=000002.tmp"
        stale.mkdir()
        (stale / "part-0.parquet").write_bytes(b"garbage")
        assert vs.current_version() == 1
        assert vs.load().size() == 7
        assert vs.add_triples_checked(
            TestCheckedBatchOps()._new()
        ) == 2
        assert vs.load().size() == 9

    def test_drop_tombstone(self, ray_session, tmp_path):
        from ontograph_ray.store import StoreDroppedError

        vs = self._storage(tmp_path)
        vs.add_triples_unchecked(fixture_triples())
        vs.drop()
        with pytest.raises(StoreDroppedError):
            vs.load()
        with pytest.raises(StoreDroppedError):
            vs.current_version()
        vs.drop()  # idempotent
        # partitions actually deleted
        assert not any(
            p.name.startswith("v=") for p in (tmp_path / "graph").iterdir()
        )

    def test_gc_keeps_newest(self, ray_session, tmp_path):
        vs = self._storage(tmp_path)
        vs.add_triples_unchecked(fixture_triples()[:3])
        vs.add_triples_unchecked(fixture_triples()[3:])
        assert vs.current_version() == 2
        assert vs.gc(keep=1) == [1]
        assert vs.load().size() == 7
        with pytest.raises(KeyError):
            vs.load(version=1)


class TestSparqlAsk:
    """E8 passthrough: the two ASK existence forms the reference's
    store layer generates (blazegraph_store.go:294,419) plus the BGP
    generalization."""

    def _ask(self, store, text):
        from ontograph_ray.store.sparql import sparql_ask

        return sparql_ask(store, text)

    def test_graph_nonempty(self, dstore):
        # blazegraph_store.go:294 — the exact generated form
        assert self._ask(
            dstore, f"ASK WHERE {{ GRAPH <{G}> {{ ?s ?p ?o }} }}"
        )

    def test_graph_uri_mismatch(self, dstore):
        from ontograph_ray.store.sparql import (
            SparqlUnsupportedError,
            sparql_ask,
        )

        with pytest.raises(SparqlUnsupportedError):
            sparql_ask(dstore, "ASK WHERE { GRAPH <urn:other> { ?s ?p ?o } }")

    def test_ground_triple(self, dstore):
        # blazegraph_store.go:419 — fully-bound existence probe
        assert self._ask(
            dstore, f"ASK {{ <{G}#a> <{G}#rel-2> <{G}#b> . }}"
        )
        assert not self._ask(
            dstore, f"ASK {{ <{G}#a> <{G}#rel-2> <{G}#c> . }}"
        )

    def test_prefix_and_literals(self, dstore):
        assert self._ask(
            dstore,
            f'PREFIX f: <{G}#> ASK WHERE {{ f:c f:rel-4 "lit2"@de . }}',
        )
        assert not self._ask(
            dstore,
            f'PREFIX f: <{G}#> ASK WHERE {{ f:c f:rel-4 "lit2" . }}',
        )

    def test_single_pattern_var(self, dstore):
        assert self._ask(dstore, f"ASK {{ ?s <{G}#rel-2> ?o . }}")
        assert not self._ask(dstore, f"ASK {{ ?s <{G}#rel-99> ?o . }}")

    def test_connected_conjunction(self, dstore):
        assert self._ask(
            dstore,
            f"ASK WHERE {{ ?x <{G}#rel-1> ?y . ?y <{G}#rel-2> ?z . }}",
        )
        assert not self._ask(
            dstore,
            f"ASK WHERE {{ ?x <{G}#rel-2> ?y . ?y <{G}#rel-2> ?z . }}",
        )

    def test_disconnected_conjunction(self, dstore):
        # unlike SELECT, disconnected groups are per-component checks
        assert self._ask(
            dstore,
            f"ASK {{ ?a <{G}#rel-2> ?b . ?c <{G}#rel-3> ?d . }}",
        )
        assert not self._ask(
            dstore,
            f"ASK {{ ?a <{G}#rel-2> ?b . ?c <{G}#rel-99> ?d . }}",
        )

    def test_mixed_ground_and_pattern(self, dstore):
        assert self._ask(
            dstore,
            f"ASK {{ <{G}#a> <{G}#rel-2> <{G}#b> . ?s <{G}#rel-3> ?o . }}",
        )
        assert not self._ask(
            dstore,
            f"ASK {{ <{G}#a> <{G}#rel-2> <{G}#z> . ?s <{G}#rel-3> ?o . }}",
        )

    def test_repeated_var_equality(self, dstore):
        # ?x p ?x within one pattern is an equality constraint
        assert not self._ask(dstore, f"ASK {{ ?x <{G}#rel-2> ?x . }}")

    def test_syntax_errors(self, dstore):
        from ontograph_ray.store.sparql import SparqlSyntaxError, sparql_ask

        for bad in (
            "ASK { }",
            "ASK ?s ?p ?o",
            f"ASK {{ ?s ?p ?o . }} LIMIT 1",
            f"SELECT * WHERE {{ ?s ?p ?o }}",
        ):
            with pytest.raises(SparqlSyntaxError):
                sparql_ask(dstore, bad)


class TestSparqlUpdate:
    """E8 passthrough: the three update forms the reference generates
    (blazegraph_store.go:104,166,248), compiled onto the bulk set ops."""

    def _triples(self, store):
        return {
            (r["subject"], r["predicate"], r["object"])
            for r in store.dataset.take_all()
        }

    def test_insert_data_dedups(self, dstore):
        from ontograph_ray.store.sparql import sparql_update

        n0 = dstore.size()
        existing = sorted(self._triples(dstore))[0]
        out = sparql_update(
            dstore,
            f"""PREFIX f: <{G}#> INSERT DATA {{ GRAPH <{G}> {{
                 <urn:new> f:rel-1 "fresh"@en .
                 {existing[0]} {existing[1]} {existing[2]} .
               }} }}""",
        )
        assert out.size() == n0 + 1  # existing triple deduped (G17)
        assert ("<urn:new>", f"<{G}#rel-1>", '"fresh"@en') in self._triples(out)
        assert dstore.size() == n0  # input store untouched (new version)

    def test_delete_data(self, dstore):
        from ontograph_ray.store.sparql import sparql_update

        victim = sorted(self._triples(dstore))[0]
        out = sparql_update(
            dstore,
            f"DELETE DATA {{ {victim[0]} {victim[1]} {victim[2]} . "
            "<urn:absent> <urn:p> <urn:o> . }",  # absent → no-op (idempotent)
        )
        assert self._triples(out) == self._triples(dstore) - {victim}

    def test_delete_where_wildcards(self, dstore):
        from ontograph_ray.store.sparql import sparql_update

        out = sparql_update(
            dstore,
            f"PREFIX f: <{G}#> DELETE WHERE {{ GRAPH <{G}> "
            "{ ?s f:rel-1 ?o . } }",
        )
        assert self._triples(out) == {
            t for t in self._triples(dstore) if t[1] != f"<{G}#rel-1>"
        }

    def test_modify_form(self, dstore):
        from ontograph_ray.store.sparql import (
            SparqlSyntaxError,
            sparql_update,
        )

        before = self._triples(dstore)
        rel1 = {t for t in before if t[1] == f"<{G}#rel-1>"}
        assert rel1
        # rewrite: every rel-1 edge gains a mirrored marker, original kept
        out = sparql_update(
            dstore,
            f"PREFIX f: <{G}#> "
            "INSERT { ?s f:marked ?o } WHERE { ?s f:rel-1 ?o . }",
        )
        assert self._triples(out) == before | {
            (s, f"<{G}#marked>", o) for s, _, o in rel1
        }
        # delete+insert in one modify: predicate rename
        out2 = sparql_update(
            dstore,
            f"PREFIX f: <{G}#> DELETE {{ ?s f:rel-1 ?o }} "
            "INSERT { ?s f:renamed ?o } WHERE { ?s f:rel-1 ?o . }",
        )
        assert self._triples(out2) == (before - rel1) | {
            (s, f"<{G}#renamed>", o) for s, _, o in rel1
        }
        assert self._triples(dstore) == before  # functional store
        # ground templates gate on the WHERE matching
        out3 = sparql_update(
            dstore,
            "INSERT { <urn:x> <urn:y> <urn:z> } "
            "WHERE { <urn:nobody> <urn:p> ?o . }",
        )
        assert self._triples(out3) == before
        # template var never bound in WHERE → typed error
        with pytest.raises(SparqlSyntaxError):
            sparql_update(
                dstore,
                f"PREFIX f: <{G}#> INSERT {{ ?z f:m ?o }} "
                "WHERE { ?s f:rel-1 ?o . }",
            )

    def test_update_errors(self, dstore):
        from ontograph_ray.store.sparql import (
            SparqlSyntaxError,
            SparqlUnsupportedError,
            sparql_update,
        )

        with pytest.raises(SparqlUnsupportedError):  # wrong target graph
            sparql_update(
                dstore, "INSERT DATA { GRAPH <urn:other> { <a> <b> <c> . } }"
            )
        with pytest.raises(SparqlSyntaxError):  # DATA must be ground
            sparql_update(dstore, "INSERT DATA { ?s <b> <c> . }")
        with pytest.raises(SparqlUnsupportedError):  # one pattern only
            sparql_update(
                dstore, "DELETE WHERE { ?s <b> ?o . ?s <c> ?o . }"
            )
        with pytest.raises(SparqlUnsupportedError):  # repeated variable
            sparql_update(dstore, "DELETE WHERE { ?s <b> ?s . }")
        with pytest.raises(SparqlUnsupportedError):  # INSERT WHERE
            sparql_update(dstore, "INSERT WHERE { ?s <b> ?o . }")


class TestSparqlConstruct:
    def test_construct_set_semantics(self, dstore):
        from ontograph_ray.store.sparql import sparql_construct

        # two templates; the constant-object one collapses to one triple
        # per distinct ?x (set semantics), the echo one per (x, y)
        out = sparql_construct(
            dstore,
            f"""PREFIX f: <{G}#> CONSTRUCT {{
                  ?x <urn:linked> ?y .
                  ?x <urn:seen> "yes" .
                }} WHERE {{ ?x f:rel-1 ?y . }}""",
        )
        got = {
            (r["subject"], r["predicate"], r["object"]) for r in out.take_all()
        }
        linked = {t for t in got if t[1] == "<urn:linked>"}
        seen = {t for t in got if t[1] == "<urn:seen>"}
        assert len(linked) == 3  # three rel-1 edges in the fixture
        assert {t[0] for t in seen} == {t[0] for t in linked}
        assert all(t[2] == '"yes"' for t in seen)
        assert len(got) == len(linked) + len(seen)

    def test_construct_skips_unbound_optional(self, dstore):
        from ontograph_ray.store.sparql import sparql_construct

        out = sparql_construct(
            dstore,
            f"""PREFIX f: <{G}#> CONSTRUCT {{ ?x <urn:has3> ?v . }}
                WHERE {{ ?x f:rel-1 ?y . OPTIONAL {{ ?y f:rel-2 ?v . }} }}""",
        )
        rows = out.take_all()
        # only the a→b chain binds ?v; unbound rows are omitted per spec
        assert len(rows) == 1 and rows[0]["object"] == f"<{G}#b>"

    def test_construct_errors(self, dstore):
        from ontograph_ray.store.sparql import SparqlSyntaxError, sparql_construct

        with pytest.raises(SparqlSyntaxError):
            sparql_construct(
                dstore, "CONSTRUCT { ?z <urn:p> ?x . } WHERE { ?x ?p ?o . }"
            )  # ?z never bound
        with pytest.raises(SparqlSyntaxError):
            sparql_construct(dstore, "CONSTRUCT { } WHERE { ?x ?p ?o . }")


class TestSparqlDescribe:
    """Fourth query form: forward CBD over the 7-triple fixture."""

    def _d(self, dstore, text):
        from ontograph_ray.store.sparql import sparql_describe

        rows = sparql_describe(dstore, text).take_all()
        return sorted(
            Triple(r["subject"], r["predicate"], r["object"]) for r in rows
        )

    def test_explicit_single(self, dstore):
        got = self._d(dstore, f"DESCRIBE <{G}#c>")
        assert got == sorted(TT[4:7])

    def test_explicit_multi_and_prefixed(self, dstore):
        got = self._d(dstore, f"PREFIX f: <{G}#> DESCRIBE f:c <{G}#a>")
        assert got == sorted([TT[3]] + TT[4:7])

    def test_var_where(self, dstore):
        # ?y ∈ {a,b,c}; b has no outbound triples
        got = self._d(
            dstore, f"DESCRIBE ?y WHERE {{ <{G}> <{G}#rel-1> ?y . }}"
        )
        assert got == sorted([TT[3]] + TT[4:7])

    def test_literal_bindings_skipped(self, dstore):
        # objects include literals — only IRI bindings are described
        got = self._d(dstore, "DESCRIBE ?o WHERE { ?s ?p ?o . }")
        assert got == sorted([TT[3]] + TT[4:7])

    def test_mixed_explicit_and_var(self, dstore):
        # ?y binds only b (no outbound) — result is <G>'s own triples
        got = self._d(
            dstore,
            f"DESCRIBE <{G}> ?y WHERE {{ <{G}#a> <{G}#rel-2> ?y . }}",
        )
        assert got == sorted(TT[0:3])

    def test_describe_errors(self, dstore):
        from ontograph_ray.store.sparql import (
            SparqlSyntaxError,
            SparqlUnsupportedError,
            sparql_describe,
        )

        with pytest.raises(SparqlSyntaxError):  # no targets
            sparql_describe(dstore, "DESCRIBE")
        with pytest.raises(SparqlSyntaxError):  # var without WHERE
            sparql_describe(dstore, "DESCRIBE ?x")
        with pytest.raises(SparqlUnsupportedError):  # pointless WHERE
            sparql_describe(
                dstore, f"DESCRIBE <{G}#c> WHERE {{ ?s ?p ?o . }}"
            )
        with pytest.raises(SparqlSyntaxError):  # literal target
            sparql_describe(dstore, 'DESCRIBE "lit1"')


class TestSparql:
    """E8 passthrough: SPARQL SELECT subset over the 7-triple fixture."""

    def _q(self, dstore, text):
        from ontograph_ray.store.sparql import sparql_select

        return sparql_select(dstore, text).to_pandas()

    def test_bgp_join(self, dstore):
        # ?x rel-1 ?y joined with ?y rel-2 ?z → the a→b chain
        out = self._q(
            dstore,
            f"PREFIX f: <{G}#> SELECT ?x ?y ?z WHERE "
            "{ ?x f:rel-1 ?y . ?y f:rel-2 ?z . }",
        )
        assert out.values.tolist() == [[f"<{G}>", f"<{G}#a>", f"<{G}#b>"]]

    def test_literal_and_lang_terms(self, dstore):
        out = self._q(
            dstore, 'SELECT ?s WHERE { ?s ?p "lit2"@de . }'
        )
        assert out["s"].tolist() == [f"<{G}#c>"]
        out2 = self._q(
            dstore,
            f'PREFIX f: <{G}#> SELECT ?s WHERE {{ ?s ?p "lit3"^^f:datatype . }}',
        )
        assert out2["s"].tolist() == [f"<{G}#c>"]

    def test_distinct_order_limit(self, dstore):
        out = self._q(
            dstore,
            f"SELECT DISTINCT ?s WHERE {{ ?s ?p ?o . }} ORDER BY ?s LIMIT 2",
        )
        assert out["s"].tolist() == sorted(
            {f"<{G}>", f"<{G}#a>", f"<{G}#c>"}
        )[:2]

    def test_select_star_binds_in_pattern_order(self, dstore):
        out = self._q(
            dstore, f"PREFIX f: <{G}#> SELECT * WHERE {{ ?s f:rel-3 ?o . }}"
        )
        assert list(out.columns) == ["s", "o"]
        assert out.values.tolist() == [[f"<{G}#c>", '"lit1"']]

    def test_repeated_variable_in_one_pattern(self, ray_session):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r = terms.new_resource_term
        trps = [
            new_triple(r("urn:n1"), r("urn:loves"), r("urn:n1")),  # self-loop
            new_triple(r("urn:n1"), r("urn:loves"), r("urn:n2")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        out = self._q(ds, "SELECT ?x WHERE { ?x <urn:loves> ?x . }")
        assert out["x"].tolist() == ["<urn:n1>"]

    def test_filter_eq_ne_regex(self, dstore):
        # FILTER(?o = "lit2"@de): term equality on the encoded term
        out = self._q(
            dstore,
            'SELECT ?s ?o WHERE { ?s ?p ?o . FILTER ( ?o = "lit2"@de ) }',
        )
        assert out.values.tolist() == [[f"<{G}#c>", '"lit2"@de']]
        # != drops exactly that binding
        all_o = self._q(dstore, "SELECT ?o WHERE { ?s ?p ?o . }")
        ne = self._q(
            dstore,
            'SELECT ?o WHERE { ?s ?p ?o . FILTER ( ?o != "lit2"@de ) }',
        )
        assert len(ne) == len(all_o) - 1 and '"lit2"@de' not in ne["o"].tolist()
        # regex over the encoded term string
        rex = self._q(
            dstore,
            'SELECT DISTINCT ?o WHERE { ?s ?p ?o . FILTER regex ( ?o , "lit[12]" ) } ORDER BY ?o',
        )
        assert rex["o"].tolist() == ['"lit1"', '"lit2"@de']

    def test_optional_left_join(self, ray_session):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:p1"), r("urn:name"), l("alice")),
            new_triple(r("urn:p2"), r("urn:name"), l("bob")),
            new_triple(r("urn:p1"), r("urn:email"), l("a@x")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        out = (
            self._q(
                ds,
                "SELECT ?p ?n ?e WHERE { ?p <urn:name> ?n . "
                "OPTIONAL { ?p <urn:email> ?e } } ORDER BY ?n",
            )
        )
        assert out["n"].tolist() == ['"alice"', '"bob"']
        assert out["e"].tolist()[0] == '"a@x"'
        assert out["e"].isna().tolist() == [False, True]

    def test_optional_with_filter(self, ray_session):
        # FILTER inside OPTIONAL = SPARQL's LeftJoin condition (the
        # well-designed, group-variables-only case): a group row that
        # fails the condition does NOT bind, but the outer row SURVIVES
        # with a null binding — the classic left-join-with-condition
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        xsd_int = "http://www.w3.org/2001/XMLSchema#integer"
        trps = [
            new_triple(r("urn:p1"), r("urn:name"), l("alice")),
            new_triple(r("urn:p2"), r("urn:name"), l("bob")),
            new_triple(r("urn:p3"), r("urn:name"), l("carol")),
            new_triple(r("urn:p1"), r("urn:age"), l("30", datatype=xsd_int)),
            new_triple(r("urn:p2"), r("urn:age"), l("7", datatype=xsd_int)),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        out = self._q(
            ds,
            "SELECT ?n ?a WHERE { ?p <urn:name> ?n . "
            "OPTIONAL { ?p <urn:age> ?a . FILTER ( ?a > 18 ) } } ORDER BY ?n",
        )
        assert out["n"].tolist() == ['"alice"', '"bob"', '"carol"']
        # alice's age passes, bob's fails the condition (null, row
        # kept), carol has no age at all (null)
        assert out["a"].isna().tolist() == [False, True, True]
        # string-equality form too
        out2 = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            'OPTIONAL { ?p <urn:age> ?a . FILTER ( ?a != "7"^^<'
            + xsd_int
            + '> ) } } ORDER BY ?p',
        )
        assert len(out2) == 3

    def test_exists_minus_with_filter(self, ray_session):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        xsd_int = "http://www.w3.org/2001/XMLSchema#integer"
        trps = [
            new_triple(r("urn:p1"), r("urn:name"), l("alice")),
            new_triple(r("urn:p2"), r("urn:name"), l("bob")),
            new_triple(r("urn:p3"), r("urn:name"), l("carol")),
            new_triple(r("urn:p1"), r("urn:score"), l("50", datatype=xsd_int)),
            new_triple(r("urn:p2"), r("urn:score"), l("5", datatype=xsd_int)),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        # group-internal condition: EXISTS a score > 10
        out = self._q(
            ds,
            "SELECT ?n WHERE { ?p <urn:name> ?n . "
            "FILTER EXISTS { ?p <urn:score> ?s . FILTER ( ?s > 10 ) } } "
            "ORDER BY ?n",
        )
        assert out["n"].tolist() == ['"alice"']
        # NOT EXISTS with the same condition keeps bob (score fails)
        # and carol (no score)
        out = self._q(
            ds,
            "SELECT ?n WHERE { ?p <urn:name> ?n . "
            "FILTER NOT EXISTS { ?p <urn:score> ?s . FILTER ( ?s > 10 ) } } "
            "ORDER BY ?n",
        )
        assert out["n"].tolist() == ['"bob"', '"carol"']

    def test_date_accessors(self, ray_session):
        # YEAR/MONTH/DAY over xsd:date AND xsd:dateTime; non-date
        # bindings error→unbound (null), row kept
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        xd = "http://www.w3.org/2001/XMLSchema#date"
        xdt = "http://www.w3.org/2001/XMLSchema#dateTime"
        xi = '^^<http://www.w3.org/2001/XMLSchema#integer>'
        xdec = '^^<http://www.w3.org/2001/XMLSchema#decimal>'
        trps = [
            new_triple(r("urn:o1"), r("urn:d"), l("1996-01-02", datatype=xd)),
            new_triple(
                r("urn:o2"), r("urn:d"), l("2024-12-31T23:59:59", datatype=xdt)
            ),
            new_triple(r("urn:o3"), r("urn:d"), l("not a date")),
            new_triple(
                r("urn:o4"), r("urn:d"), l("2024-01-02T10:11:12.5", datatype=xdt)
            ),
            new_triple(
                r("urn:o5"), r("urn:d"),
                l("2024-01-02T10:11:02.1234567Z", datatype=xdt),
            ),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        out = self._q(
            ds,
            "SELECT ?s ?y ?m ?dd WHERE { ?s <urn:d> ?v . "
            "BIND(YEAR(?v) AS ?y) BIND(MONTH(?v) AS ?m) "
            "BIND(DAY(?v) AS ?dd) } ORDER BY ?s",
        )
        assert out["y"].tolist()[:2] == [f'"1996"{xi}', f'"2024"{xi}']
        assert out["m"].tolist()[:2] == [f'"1"{xi}', f'"12"{xi}']
        assert out["dd"].tolist()[:2] == [f'"2"{xi}', f'"31"{xi}']
        assert out.iloc[2][["y", "m", "dd"]].isna().all()
        # HOURS/MINUTES/SECONDS need the time part: bound on dateTime,
        # unbound (error) on plain xsd:date
        out = self._q(
            ds,
            "SELECT ?s ?h ?mi ?sec WHERE { ?s <urn:d> ?v . "
            "BIND(HOURS(?v) AS ?h) BIND(MINUTES(?v) AS ?mi) "
            "BIND(SECONDS(?v) AS ?sec) } ORDER BY ?s",
        )
        # SECONDS binds xsd:decimal (fn:seconds-from-dateTime), keeping
        # the fractional part on the scale-6 lane
        assert out.iloc[1][["h", "mi", "sec"]].tolist() == [
            f'"23"{xi}', f'"59"{xi}', f'"59.0"{xdec}'
        ]
        assert out.iloc[0][["h", "mi", "sec"]].isna().all()
        assert out.iloc[2][["h", "mi", "sec"]].isna().all()
        assert out.iloc[3][["h", "mi", "sec"]].tolist() == [
            f'"10"{xi}', f'"11"{xi}', f'"12.5"{xdec}'
        ]
        # more than 6 fractional digits is outside the decimal lane →
        # unbound; the other components still bind
        assert out.iloc[4][["h", "mi"]].tolist() == [f'"10"{xi}', f'"11"{xi}']
        assert out.iloc[[4]]["sec"].isna().all()

    def test_str_idiom_in_concat_substr(self, ray_session):
        # CONCAT(STR(?s), ...) / SUBSTR(STR(?v), ...) — the explicit
        # idiom unwraps to the bare-variable form (a bare ?v already
        # contributes its T6 Value)
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        ds = DatasetGraphStore.from_triples(
            "urn:g", [new_triple(r("urn:a"), r("urn:p"), l("hello"))]
        )
        out = self._q(
            ds,
            'SELECT ?v WHERE { ?s <urn:p> ?o . '
            'BIND(CONCAT(STR(?s), "-", STR(?o)) AS ?v) }',
        )
        assert out["v"].tolist() == ['"urn:a-hello"']
        out = self._q(
            ds,
            "SELECT ?v WHERE { ?s <urn:p> ?o . "
            "BIND(SUBSTR(STR(?o), 2, 3) AS ?v) }",
        )
        assert out["v"].tolist() == ['"ell"']

    def test_inline_values_and_reduced(self, ray_session):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:a"), r("urn:p"), l("x")),
            new_triple(r("urn:a"), r("urn:p"), l("x")),
            new_triple(r("urn:b"), r("urn:p"), l("y")),
            new_triple(r("urn:c"), r("urn:p"), l("z")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        # inline VALUES inside the group == postfix VALUES (same plan);
        # bag semantics preserved (the store dedupes triples, so 'a'
        # appears once — duplicates come from joins, not storage)
        inline = self._q(
            ds,
            "SELECT ?s ?o WHERE { VALUES ?s { <urn:a> <urn:b> } "
            "?s <urn:p> ?o } ORDER BY ?s",
        )
        postfix = self._q(
            ds,
            "SELECT ?s ?o WHERE { ?s <urn:p> ?o } "
            "VALUES ?s { <urn:a> <urn:b> }",
        ).sort_values("s").reset_index(drop=True)
        assert inline.values.tolist() == postfix.values.tolist()
        # SELECT REDUCED: this engine takes the spec's latitude to
        # eliminate duplicates (deterministic, SQL-oracle-able)
        out = self._q(
            ds, "SELECT REDUCED ?s WHERE { ?s <urn:p> ?o } ORDER BY ?s"
        )
        assert out["s"].tolist() == ["<urn:a>", "<urn:b>", "<urn:c>"]
        # only one VALUES clause per query
        from ontograph_ray.store.sparql import SparqlUnsupportedError

        with pytest.raises(SparqlUnsupportedError, match="multiple VALUES"):
            self._q(
                ds,
                "SELECT ?s WHERE { VALUES ?s { <urn:a> } ?s <urn:p> ?o } "
                "VALUES ?s { <urn:b> }",
            )

    def test_path_grouped_sequences(self, ray_session):
        # (p/s)+ / (p/s)* / (p/s)? / bare (p/s) / inverse steps — the
        # grouped-sequence path forms: composition of the step
        # relations, then the closure fixpoint where a modifier asks
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r = terms.new_resource_term
        trps = [
            new_triple(r("urn:a"), r("urn:p"), r("urn:b")),
            new_triple(r("urn:b"), r("urn:s"), r("urn:c")),
            new_triple(r("urn:c"), r("urn:p"), r("urn:d")),
            new_triple(r("urn:d"), r("urn:s"), r("urn:e")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        q = self._q
        assert q(
            ds, "SELECT ?y WHERE { <urn:a> (<urn:p>/<urn:s>)+ ?y } ORDER BY ?y"
        )["y"].tolist() == ["<urn:c>", "<urn:e>"]
        assert q(
            ds, "SELECT ?y WHERE { <urn:a> (<urn:p>/<urn:s>)* ?y } ORDER BY ?y"
        )["y"].tolist() == ["<urn:a>", "<urn:c>", "<urn:e>"]
        assert q(
            ds, "SELECT ?y WHERE { <urn:a> (<urn:p>/<urn:s>)? ?y } ORDER BY ?y"
        )["y"].tolist() == ["<urn:a>", "<urn:c>"]
        # bare grouped sequence = the plain chain
        assert q(ds, "SELECT ?y WHERE { <urn:a> (<urn:p>/<urn:s>) ?y }")[
            "y"
        ].tolist() == ["<urn:c>"]
        # inverse steps inside the group walk the chain backwards
        assert q(
            ds, "SELECT ?y WHERE { <urn:c> (^<urn:s>/^<urn:p>)+ ?y }"
        )["y"].tolist() == ["<urn:a>"]

    def test_group_concat_distinct(self, ray_session):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:p1"), r("urn:likes"), l("tea")),
            new_triple(r("urn:p1"), r("urn:likes"), l("tea")),
            new_triple(r("urn:p1"), r("urn:likes"), l("mud")),
            new_triple(r("urn:p2"), r("urn:likes"), l("tea")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        out = self._q(
            ds,
            'SELECT ?p (GROUP_CONCAT(DISTINCT ?o ; SEPARATOR=",") AS ?c) '
            "WHERE { ?p <urn:likes> ?o } GROUP BY ?p ORDER BY ?p",
        )
        # p1's duplicate tea collapses; plain GROUP_CONCAT keeps it
        assert out["c"].tolist() == ['"mud","tea"', '"tea"']
        bag = self._q(
            ds,
            'SELECT ?p (GROUP_CONCAT(?o ; SEPARATOR=",") AS ?c) '
            "WHERE { ?p <urn:likes> ?o } GROUP BY ?p ORDER BY ?p",
        )
        assert bag["c"].tolist() == ['"mud","tea","tea"', '"tea"']

    def test_bind_hash_builtins(self, ray_session):
        import hashlib

        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:p1"), r("urn:name"), l("alice")),
            new_triple(r("urn:p1"), r("urn:friend"), r("urn:p2")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        out = self._q(
            ds,
            "SELECT ?m ?sh WHERE { ?p <urn:name> ?n . "
            "BIND(MD5(?n) AS ?m) BIND(SHA256(STR(?n)) AS ?sh) }",
        )
        assert out["m"].tolist() == [f'"{hashlib.md5(b"alice").hexdigest()}"']
        assert out["sh"].tolist() == [
            f'"{hashlib.sha256(b"alice").hexdigest()}"'
        ]
        # hashing a RESOURCE binding → error→unbound (null), row kept
        out = self._q(
            ds,
            "SELECT ?f ?m WHERE { ?p <urn:friend> ?f . BIND(MD5(?f) AS ?m) }",
        )
        assert out["m"].isna().tolist() == [True]
        # ... but STR() of an IRI is its IRI string, which hashes
        out = self._q(
            ds,
            "SELECT ?m ?sh WHERE { ?p <urn:friend> ?f . "
            "BIND(MD5(STR(?f)) AS ?m) BIND(SHA256(STR(?f)) AS ?sh) }",
        )
        assert out["m"].tolist() == [f'"{hashlib.md5(b"urn:p2").hexdigest()}"']
        assert out["sh"].tolist() == [
            f'"{hashlib.sha256(b"urn:p2").hexdigest()}"'
        ]

    def test_isnumeric_and_ordered_if(self, ray_session):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        xsd_int = "http://www.w3.org/2001/XMLSchema#integer"
        trps = [
            new_triple(r("urn:p1"), r("urn:v"), l("30", datatype=xsd_int)),
            new_triple(r("urn:p2"), r("urn:v"), l("-4", datatype=xsd_int)),
            new_triple(r("urn:p3"), r("urn:v"), l("plain")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:v> ?x . FILTER(isNumeric(?x)) } "
            "ORDER BY ?p",
        )
        assert out["p"].tolist() == ["<urn:p1>", "<urn:p2>"]
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:v> ?x . FILTER(!isNumeric(?x)) } "
            "ORDER BY ?p",
        )
        assert out["p"].tolist() == ["<urn:p3>"]
        # ordered IF: integer lane; the non-integer binding errors →
        # unbound alias, row kept
        out = self._q(
            ds,
            'SELECT ?p ?s WHERE { ?p <urn:v> ?x . '
            'BIND(IF(?x >= 0, "pos", "neg") AS ?s) } ORDER BY ?p',
        )
        assert out["s"].tolist()[:2] == ['"pos"', '"neg"']
        assert out["s"].isna().tolist() == [False, False, True]

    def test_exists_correlated_filter(self, ray_session):
        # the classic correlated EXISTS: the condition references an
        # OUTER variable (?o) — evaluated on (outer keys × group)
        # bindings, qualifying keys drive the semi/anti join
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:p1"), r("urn:likes"), l("tea")),
            new_triple(r("urn:p2"), r("urn:likes"), l("mud")),
            new_triple(r("urn:p1"), r("urn:drinks"), l("tea")),
            new_triple(r("urn:p2"), r("urn:drinks"), l("tea")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        # people who drink something they do NOT like: drinks ?d and
        # NOT EXISTS a liked ?o equal to ?d  ⟺  EXISTS a like != drink
        # here: p1 likes tea and drinks tea; p2 likes mud, drinks tea
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:drinks> ?d . "
            "FILTER EXISTS { ?p <urn:likes> ?o . FILTER ( ?o != ?d ) } } "
            "ORDER BY ?p",
        )
        assert out["p"].tolist() == ["<urn:p2>"]
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:drinks> ?d . "
            "FILTER NOT EXISTS { ?p <urn:likes> ?o . FILTER ( ?o != ?d ) } } "
            "ORDER BY ?p",
        )
        assert out["p"].tolist() == ["<urn:p1>"]

    def test_union_branches(self, ray_session):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:p1"), r("urn:likes"), l("tea")),
            new_triple(r("urn:p2"), r("urn:hates"), l("tea")),
            new_triple(r("urn:p3"), r("urn:likes"), l("mud")),
            new_triple(r("urn:p1"), r("urn:hates"), l("mud")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        out = self._q(
            ds,
            "SELECT ?x WHERE { { ?x <urn:likes> \"tea\" } UNION "
            "{ ?x <urn:hates> \"mud\" } } ORDER BY ?x",
        )
        # bag union: p1 appears twice? p1 likes tea AND hates mud → twice
        assert out["x"].tolist() == ["<urn:p1>", "<urn:p1>"]
        dis = self._q(
            ds,
            "SELECT DISTINCT ?x WHERE { { ?x <urn:likes> ?o } UNION "
            "{ ?x <urn:hates> ?o } } ORDER BY ?x",
        )
        assert dis["x"].tolist() == ["<urn:p1>", "<urn:p2>", "<urn:p3>"]

    def test_aggregates_group_by(self, ray_session):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:p1"), r("urn:likes"), l("tea")),
            new_triple(r("urn:p1"), r("urn:likes"), l("mud")),
            new_triple(r("urn:p2"), r("urn:likes"), l("tea")),
            new_triple(r("urn:p2"), r("urn:email"), l("b@x")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        out = self._q(
            ds,
            "SELECT ?x (COUNT(?o) AS ?n) (MIN(?o) AS ?lo) WHERE "
            "{ ?x <urn:likes> ?o } GROUP BY ?x ORDER BY ?x",
        )
        assert out.values.tolist() == [
            ["<urn:p1>", 2, '"mud"'], ["<urn:p2>", 1, '"tea"'],
        ]
        glob = self._q(
            ds, "SELECT (COUNT(*) AS ?n) (MAX(?o) AS ?hi) WHERE { ?x <urn:likes> ?o }"
        )
        assert glob.values.tolist() == [[3, '"tea"']]
        # COUNT(?optional) skips unbound bindings
        opt = self._q(
            ds,
            "SELECT ?x (COUNT(?e) AS ?n) WHERE { ?x <urn:likes> ?o . "
            "OPTIONAL { ?x <urn:email> ?e } } GROUP BY ?x ORDER BY ?x",
        )
        assert opt["n"].tolist() == [0, 1]

    def test_property_path(self, dstore):
        # ?x rel-1/rel-2 ?z ≡ the explicit 2-pattern chain, with the
        # intermediate variable hidden (SELECT * must not leak __pp0)
        out = self._q(
            dstore,
            f"PREFIX f: <{G}#> SELECT ?x ?z WHERE {{ ?x f:rel-1/f:rel-2 ?z . }}",
        )
        assert out.values.tolist() == [[f"<{G}>", f"<{G}#b>"]]
        star = self._q(
            dstore, f"PREFIX f: <{G}#> SELECT * WHERE {{ ?x f:rel-1/f:rel-2 ?z . }}"
        )
        assert sorted(star.columns) == ["x", "z"]

    def test_property_path_errors(self, dstore):
        from ontograph_ray.store.sparql import SparqlSyntaxError, sparql_select

        with pytest.raises(SparqlSyntaxError):
            sparql_select(
                dstore, "SELECT ?x WHERE { ?x ?p/<urn:q> ?z . }"
            )  # path elements must be ground

    def test_aggregate_errors(self, dstore):
        from ontograph_ray.store.sparql import (
            SparqlSyntaxError,
            SparqlUnsupportedError,
            sparql_select,
        )

        with pytest.raises(SparqlSyntaxError):
            sparql_select(
                dstore,
                "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o . }",
            )  # ?s not grouped
        with pytest.raises(SparqlUnsupportedError):
            sparql_select(
                dstore,
                "SELECT (MEDIAN(?o) AS ?n) WHERE { ?s ?p ?o . }",
            )  # non-algebraic aggregates stay unsupported
        # GROUP BY without aggregates is now supported (one row per
        # group); only a NON-KEY selection stays a typed error
        out = sparql_select(
            dstore, "SELECT ?s WHERE { ?s ?p ?o . } GROUP BY ?s"
        ).to_pandas()
        assert len(out) == len(set(out["s"]))
        with pytest.raises(SparqlSyntaxError):
            sparql_select(dstore, "SELECT ?o WHERE { ?s ?p ?o . } GROUP BY ?s")

    def test_union_errors(self, dstore):
        from ontograph_ray.store.sparql import (
            SparqlSyntaxError,
            SparqlUnsupportedError,
            sparql_select,
        )

        with pytest.raises(SparqlUnsupportedError):
            sparql_select(
                dstore,
                "SELECT ?x WHERE { { ?x ?p ?o } UNION { ?y ?q ?z } }",
            )
        with pytest.raises(SparqlSyntaxError):
            sparql_select(dstore, "SELECT ?x WHERE { { ?x ?p ?o } }")

    def test_optional_errors(self, dstore):
        from ontograph_ray.store.sparql import (
            SparqlSyntaxError,
            SparqlUnsupportedError,
            sparql_select,
        )

        with pytest.raises(SparqlUnsupportedError):
            sparql_select(
                dstore,
                "SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { ?x ?q ?y } }",
            )
        with pytest.raises(SparqlSyntaxError):
            sparql_select(
                dstore, "SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { } }"
            )
        # FILTER inside OPTIONAL is supported over the group's OWN
        # variables (see test_optional_with_filter); a condition
        # reaching an OUTER variable needs a join-time condition and
        # stays a typed refusal
        with pytest.raises(SparqlUnsupportedError, match="outer refs"):
            sparql_select(
                dstore,
                "SELECT ?s WHERE { ?s ?p ?o . "
                "OPTIONAL { ?s ?q ?z . FILTER ( ?z = ?o ) } }",
            )

    def test_filter_on_unselected_var_and_errors(self, dstore):
        from ontograph_ray.store.sparql import (
            SparqlSyntaxError,
            SparqlUnsupportedError,
            sparql_select,
        )

        # filter var need not be selected
        out = self._q(
            dstore,
            f'PREFIX f: <{G}#> SELECT ?s WHERE '
            '{ ?s ?p ?o . FILTER regex ( ?o , "lit1" ) }',
        )
        assert out["s"].tolist() == [f"<{G}#c>"]
        with pytest.raises(SparqlSyntaxError):
            sparql_select(
                dstore, 'SELECT ?s WHERE { ?s ?p ?o . FILTER ( ?z = "x" ) }'
            )
        # var-to-var FILTER is supported since round 3 (one
        # column-vs-column kernel); no row has ?o == ?s here
        out = self._q(
            dstore, "SELECT ?s WHERE { ?s ?p ?o . FILTER ( ?o = ?s ) }"
        )
        assert len(out) == 0
        assert SparqlUnsupportedError is not None  # keep the import used

    def test_errors(self, dstore):
        from ontograph_ray.store.sparql import (
            SparqlSyntaxError,
            SparqlUnsupportedError,
            sparql_select,
        )

        with pytest.raises(SparqlSyntaxError):
            sparql_select(dstore, "SELECT WHERE { ?s ?p ?o . }")
        with pytest.raises(SparqlSyntaxError):
            sparql_select(dstore, "SELECT ?s WHERE { ?s unknown:x ?o . }")
        with pytest.raises(SparqlUnsupportedError):
            sparql_select(
                dstore, "SELECT ?a WHERE { ?a ?p ?b . ?c ?q ?d . }"
            )
        with pytest.raises(SparqlUnsupportedError):
            sparql_select(dstore, "SELECT ?s WHERE { ?s ?p ?o . } OFFSET 5")
        with pytest.raises(SparqlSyntaxError):
            sparql_select(dstore, "SELECT ?z WHERE { ?s ?p ?o . }")


class TestSparqlExtensions:
    """MINUS / FILTER [NOT] EXISTS, inverse + alternative path
    elements, postfix VALUES, and OFFSET — over a 6-triple people
    graph."""

    def _people(self):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:p1"), r("urn:name"), l("alice")),
            new_triple(r("urn:p2"), r("urn:name"), l("bob")),
            new_triple(r("urn:p3"), r("urn:name"), l("carol")),
            new_triple(r("urn:p1"), r("urn:email"), l("a@x")),
            new_triple(r("urn:p1"), r("urn:knows"), r("urn:p2")),
            new_triple(r("urn:p2"), r("urn:knows"), r("urn:p3")),
        ]
        return DatasetGraphStore.from_triples("urn:g", trps)

    def _q(self, dstore, text):
        from ontograph_ray.store.sparql import sparql_select

        return sparql_select(dstore, text).to_pandas()

    def test_minus_equals_not_exists(self, ray_session):
        ds = self._people()
        minus = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            "MINUS { ?p <urn:email> ?e } } ORDER BY ?p",
        )
        notex = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            "FILTER NOT EXISTS { ?p <urn:email> ?e } } ORDER BY ?p",
        )
        assert minus["p"].tolist() == ["<urn:p2>", "<urn:p3>"]
        assert notex["p"].tolist() == minus["p"].tolist()

    def test_minus_filter_sees_outer_vars_unbound(self, ray_session):
        # SPARQL 1.1 §8.3.3: a MINUS group is evaluated on its own, so
        # the outer ?n is unbound inside it: the FILTER is an error, the
        # group has no solutions and MINUS removes no row. The
        # correlated NOT EXISTS reads the outer ?n and drops p1.
        ds = self._people()
        minus = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            "MINUS { ?p <urn:email> ?e . FILTER ( ?n != ?e ) } } ORDER BY ?p",
        )
        assert minus["p"].tolist() == ["<urn:p1>", "<urn:p2>", "<urn:p3>"]
        notex = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            "FILTER NOT EXISTS { ?p <urn:email> ?e . FILTER ( ?n != ?e ) } } "
            "ORDER BY ?p",
        )
        assert notex["p"].tolist() == ["<urn:p2>", "<urn:p3>"]

    def test_filter_exists(self, ray_session):
        ds = self._people()
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            "FILTER EXISTS { ?p <urn:knows> ?q } } ORDER BY ?p",
        )
        assert out["p"].tolist() == ["<urn:p1>", "<urn:p2>"]

    def test_filter_builtins(self, ray_session):
        from ontograph_ray import terms
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray.store.sparql import SparqlUnsupportedError
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:p1"), r("urn:name"), l("alice", "en")),
            new_triple(r("urn:p2"), r("urn:name"), l("bob", "fr")),
            new_triple(r("urn:p3"), r("urn:name"), l("carol")),
            new_triple(
                r("urn:p1"), r("urn:age"),
                l("30", None, "http://www.w3.org/2001/XMLSchema#integer"),
            ),
            new_triple(r("urn:p1"), r("urn:knows"), r("urn:p2")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        # LANG
        out = self._q(
            ds, 'SELECT ?p WHERE { ?p <urn:name> ?n . FILTER ( LANG(?n) = "en" ) }'
        )
        assert out["p"].tolist() == ["<urn:p1>"]
        # LANG of a plain literal is "" (reference T7 contract)
        out = self._q(
            ds, 'SELECT ?p WHERE { ?p <urn:name> ?n . FILTER ( LANG(?n) = "" ) }'
        )
        assert out["p"].tolist() == ["<urn:p3>"]
        # STR strips the encoding; matches across lang tags
        out = self._q(
            ds,
            'SELECT ?p WHERE { ?p <urn:name> ?n . FILTER ( STR(?n) != "bob" ) } ORDER BY ?p',
        )
        assert out["p"].tolist() == ["<urn:p1>", "<urn:p3>"]
        # DATATYPE against a full IRI
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p ?pred ?v . FILTER ( DATATYPE(?v) = "
            "<http://www.w3.org/2001/XMLSchema#integer> ) }",
        )
        assert out["p"].tolist() == ["<urn:p1>"]
        # BOUND / !BOUND over OPTIONAL
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            "OPTIONAL { ?p <urn:knows> ?q } FILTER ( BOUND(?q) ) }",
        )
        assert out["p"].tolist() == ["<urn:p1>"]
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            "OPTIONAL { ?p <urn:knows> ?q } FILTER ( !BOUND(?q) ) } ORDER BY ?p",
        )
        assert out["p"].tolist() == ["<urn:p2>", "<urn:p3>"]
        # COALESCE with a ground default
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            "OPTIONAL { ?p <urn:knows> ?q } "
            'FILTER ( COALESCE(?q, <urn:nobody>) = <urn:nobody> ) } ORDER BY ?p',
        )
        assert out["p"].tolist() == ["<urn:p2>", "<urn:p3>"]
        # unsupported comparator stays a typed error
        with pytest.raises(SparqlUnsupportedError):
            self._q(
                ds,
                'SELECT ?p WHERE { ?p <urn:name> ?n . FILTER ( LANG(?n) < "en" ) }',
            )

    def test_langmatches(self, ray_session):
        from ontograph_ray import terms
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray.store.sparql import SparqlUnsupportedError
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:p1"), r("urn:name"), l("alice", "en")),
            new_triple(r("urn:p2"), r("urn:name"), l("alicia", "en-US")),
            new_triple(r("urn:p3"), r("urn:name"), l("alice2", "fr")),
            new_triple(r("urn:p4"), r("urn:name"), l("plain")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        # basic range matches the tag and its subtags, case-insensitive
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            'FILTER ( LANGMATCHES(LANG(?n), "EN") ) } ORDER BY ?p',
        )
        assert out["p"].tolist() == ["<urn:p1>", "<urn:p2>"]
        # "*" = any non-empty tag (the plain literal drops)
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            'FILTER ( LANGMATCHES(LANG(?n), "*") ) } ORDER BY ?p',
        )
        assert out["p"].tolist() == ["<urn:p1>", "<urn:p2>", "<urn:p3>"]
        # first argument must be LANG(?v)
        with pytest.raises(SparqlUnsupportedError):
            self._q(
                ds,
                "SELECT ?p WHERE { ?p <urn:name> ?n . "
                'FILTER ( LANGMATCHES(STR(?n), "en") ) }',
            )

    def test_bind_concat_and_if(self, ray_session):
        from ontograph_ray import terms
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray.store.sparql import SparqlUnsupportedError
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:p1"), r("urn:name"), l("alice")),
            new_triple(r("urn:p2"), r("urn:name"), l("bob")),
            new_triple(r("urn:p1"), r("urn:seg"), l("BUILDING")),
            new_triple(r("urn:p2"), r("urn:seg"), l("AUTO")),
            new_triple(r("urn:p1"), r("urn:knows"), r("urn:p2")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        # CONCAT of constants and var values → plain literal term
        out = self._q(
            ds,
            "SELECT ?p ?tag WHERE { ?p <urn:name> ?n . "
            'BIND ( CONCAT("u:", ?n, "!") AS ?tag ) } ORDER BY ?p',
        )
        assert out["tag"].tolist() == ['"u:alice!"', '"u:bob!"']
        # a resource var contributes its URI (STR semantics)
        out = self._q(
            ds,
            "SELECT ?tag WHERE { ?p <urn:knows> ?q . "
            'BIND ( CONCAT("to:", ?q) AS ?tag ) }',
        )
        assert out["tag"].tolist() == ['"to:urn:p2"']
        # unbound OPTIONAL var → unbound result, not "None" text
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            "OPTIONAL { ?p <urn:knows> ?q } "
            'BIND ( CONCAT("k:", ?q) AS ?x ) FILTER ( !BOUND(?x) ) }',
        )
        assert out["p"].tolist() == ["<urn:p2>"]
        # IF with constant then / variable else, composing with FILTER
        out = self._q(
            ds,
            "SELECT ?p ?cls WHERE { ?p <urn:seg> ?s . "
            'BIND ( IF(?s = "BUILDING", "core", ?s) AS ?cls ) } ORDER BY ?p',
        )
        assert out["cls"].tolist() == ['"core"', '"AUTO"']
        # var-to-var IF condition is a typed refusal
        with pytest.raises(SparqlUnsupportedError):
            self._q(
                ds,
                "SELECT ?p WHERE { ?p <urn:seg> ?s . ?p <urn:name> ?n . "
                "BIND ( IF(?s = ?n, \"x\", \"y\") AS ?z ) }",
            )
        # CONCAT over an unparenthesised bare term is a syntax error
        with pytest.raises(ValueError):
            self._q(
                ds,
                "SELECT ?p WHERE { ?p <urn:seg> ?s . "
                "BIND ( CONCAT(<urn:p1>) AS ?z ) }",
            )

    def test_bind_substr_replace_strbefore(self, ray_session):
        from ontograph_ray import terms
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:p1"), r("urn:email"), l("alice@example.org")),
            new_triple(r("urn:p2"), r("urn:email"), l("bob@corp.net")),
            new_triple(r("urn:p3"), r("urn:email"), l("no-at-sign")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        out = self._q(
            ds,
            "SELECT ?p ?u WHERE { ?p <urn:email> ?e . "
            'BIND ( STRBEFORE(?e, "@") AS ?u ) } ORDER BY ?p',
        )
        # SPARQL rule: separator absent → ""
        assert out["u"].tolist() == ['"alice"', '"bob"', '""']
        out = self._q(
            ds,
            "SELECT ?p ?d WHERE { ?p <urn:email> ?e . "
            'BIND ( STRAFTER(?e, "@") AS ?d ) } ORDER BY ?p',
        )
        assert out["d"].tolist() == ['"example.org"', '"corp.net"', '""']
        out = self._q(
            ds,
            "SELECT ?p ?s WHERE { ?p <urn:email> ?e . "
            "BIND ( SUBSTR(?e, 1, 3) AS ?s ) } ORDER BY ?p",
        )
        assert out["s"].tolist() == ['"ali"', '"bob"', '"no-"']
        # open-ended SUBSTR from a 1-based offset
        out = self._q(
            ds,
            "SELECT ?s WHERE { ?p <urn:email> ?e . "
            "BIND ( SUBSTR(?e, 4) AS ?s ) FILTER ( ?p = <urn:p3> ) }",
        )
        assert out["s"].tolist() == ['"at-sign"']
        # REPLACE is a global RE2 replace
        out = self._q(
            ds,
            "SELECT ?x WHERE { ?p <urn:email> ?e . "
            'BIND ( REPLACE(?e, "[aeiou]", "_") AS ?x ) '
            "FILTER ( ?p = <urn:p2> ) }",
        )
        assert out["x"].tolist() == ['"b_b@c_rp.n_t"']
        # SUBSTR start must be positive (1-based)
        with pytest.raises(ValueError):
            self._q(
                ds,
                "SELECT ?s WHERE { ?p <urn:email> ?e . "
                "BIND ( SUBSTR(?e, 0) AS ?s ) }",
            )

    def test_filter_string_builtins(self, ray_session):
        from ontograph_ray import terms
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray.store.sparql import SparqlUnsupportedError
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:p1"), r("urn:name"), l("Alice", "en")),
            new_triple(r("urn:p2"), r("urn:name"), l("bob", "fr")),
            new_triple(r("urn:p3"), r("urn:name"), l("carol")),
            new_triple(r("urn:p1"), r("urn:knows"), r("urn:p2")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        # STRSTARTS over the lexical value, case-sensitive
        out = self._q(
            ds,
            'SELECT ?p WHERE { ?p <urn:name> ?n . FILTER ( STRSTARTS(?n, "Al") ) }',
        )
        assert out["p"].tolist() == ["<urn:p1>"]
        # STRSTARTS on a resource tests the URI (T6 Value of <uri>)
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:knows> ?q . "
            'FILTER ( STRSTARTS(?q, "urn:p") ) }',
        )
        assert out["p"].tolist() == ["<urn:p1>"]
        # STRENDS + CONTAINS
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            'FILTER ( STRENDS(?n, "ol") ) . FILTER ( CONTAINS(?n, "aro") ) }',
        )
        assert out["p"].tolist() == ["<urn:p3>"]
        # STRLEN compares the codepoint length of the value
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . FILTER ( STRLEN(?n) <= 3 ) }",
        )
        assert out["p"].tolist() == ["<urn:p2>"]
        # LCASE / UCASE equality
        out = self._q(
            ds,
            'SELECT ?p WHERE { ?p <urn:name> ?n . FILTER ( LCASE(?n) = "alice" ) }',
        )
        assert out["p"].tolist() == ["<urn:p1>"]
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            'FILTER ( UCASE(?n) != "BOB" ) } ORDER BY ?p',
        )
        assert out["p"].tolist() == ["<urn:p1>", "<urn:p3>"]
        # isIRI / isLiteral term-kind kernels
        out = self._q(
            ds,
            "SELECT ?p ?v WHERE { ?p ?pred ?v . FILTER ( isIRI(?v) ) }",
        )
        assert out["v"].tolist() == ["<urn:p2>"]
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p ?pred ?v . FILTER ( !isLiteral(?v) ) }",
        )
        assert out["p"].tolist() == ["<urn:p1>"]
        # negated kind test over an OPTIONAL-unbound var drops the row
        # (SPARQL error-on-unbound), it does NOT resurrect it
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            "OPTIONAL { ?p <urn:knows> ?q } FILTER ( !isLiteral(?q) ) }",
        )
        assert out["p"].tolist() == ["<urn:p1>"]
        # '!' before anything but the unary boolean builtins is refused
        with pytest.raises(SparqlUnsupportedError):
            self._q(
                ds,
                'SELECT ?p WHERE { ?p <urn:name> ?n . FILTER ( !STRSTARTS(?n, "A") ) }',
            )
        # STRLEN against a non-integer is a syntax error
        with pytest.raises(ValueError):
            self._q(
                ds,
                'SELECT ?p WHERE { ?p <urn:name> ?n . FILTER ( STRLEN(?n) > "x" ) }',
            )

    def test_filter_regex_builtin(self, ray_session):
        from ontograph_ray import terms
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray.store.sparql import SparqlUnsupportedError
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:p1"), r("urn:name"), l("Alice", "en")),
            new_triple(r("urn:p2"), r("urn:name"), l("bob", "fr")),
            new_triple(r("urn:p3"), r("urn:name"), l("carol")),
            new_triple(r("urn:p1"), r("urn:knows"), r("urn:p2")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        # REGEX over the lexical value (anchors, classes)
        out = self._q(
            ds,
            'SELECT ?p WHERE { ?p <urn:name> ?n . FILTER ( REGEX(?n, "^[Aa]l") ) }',
        )
        assert out["p"].tolist() == ["<urn:p1>"]
        # flags argument: case-insensitive
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            'FILTER ( REGEX(?n, "^ALICE$", "i") ) }',
        )
        assert out["p"].tolist() == ["<urn:p1>"]
        # explicit STR(?v) first argument; REGEX on a resource tests
        # the URI
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:knows> ?q . "
            'FILTER ( REGEX(STR(?q), "p2$") ) }',
        )
        assert out["p"].tolist() == ["<urn:p1>"]
        # composes with the boolean grammar
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            'FILTER ( REGEX(?n, "ob$") || REGEX(?n, "^car") ) } ORDER BY ?p',
        )
        assert out["p"].tolist() == ["<urn:p2>", "<urn:p3>"]
        # unbound (OPTIONAL) var under REGEX drops the row
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            "OPTIONAL { ?p <urn:knows> ?q } "
            'FILTER ( REGEX(STR(?q), "p") ) }',
        )
        assert out["p"].tolist() == ["<urn:p1>"]
        # unsupported flags are refused, not misread
        with pytest.raises(SparqlUnsupportedError):
            self._q(
                ds,
                "SELECT ?p WHERE { ?p <urn:name> ?n . "
                'FILTER ( REGEX(?n, "a", "x") ) }',
            )

    def test_filter_in_not_in(self, ray_session):
        from ontograph_ray import terms
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray.store.sparql import SparqlUnsupportedError
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:p1"), r("urn:name"), l("Alice", "en")),
            new_triple(r("urn:p2"), r("urn:name"), l("bob", "fr")),
            new_triple(r("urn:p3"), r("urn:name"), l("carol")),
            new_triple(r("urn:p1"), r("urn:knows"), r("urn:p2")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        # term equality: the @fr tag is part of the term
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            'FILTER ( ?n IN ("bob"@fr, "carol") ) } ORDER BY ?p',
        )
        assert out["p"].tolist() == ["<urn:p2>", "<urn:p3>"]
        # untagged "bob" is a DIFFERENT term: no match
        out = self._q(
            ds,
            'SELECT ?p WHERE { ?p <urn:name> ?n . FILTER ( ?n IN ("bob") ) }',
        )
        assert out.empty
        # NOT IN + resources in the list
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:knows> ?q . "
            "FILTER ( ?q NOT IN (<urn:p9>, <urn:p3>) ) }",
        )
        assert out["p"].tolist() == ["<urn:p1>"]
        # NOT IN over an OPTIONAL-unbound var drops the row (error-on-
        # unbound), it does not resurrect it
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            "OPTIONAL { ?p <urn:knows> ?q } "
            "FILTER ( ?q NOT IN (<urn:p9>) ) }",
        )
        assert out["p"].tolist() == ["<urn:p1>"]
        # empty list: IN () is false for every row, composable
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . "
            'FILTER ( ?n IN () || STRSTARTS(?n, "car") ) }',
        )
        assert out["p"].tolist() == ["<urn:p3>"]
        # variables in the list are refused
        with pytest.raises(SparqlUnsupportedError):
            self._q(
                ds,
                "SELECT ?p WHERE { ?p <urn:name> ?n . FILTER ( ?n IN (?p) ) }",
            )

    def test_inverse_path(self, ray_session):
        ds = self._people()
        inv = self._q(
            ds, "SELECT ?b ?a WHERE { ?b ^<urn:knows> ?a . } ORDER BY ?b"
        )
        fwd = self._q(
            ds, "SELECT ?a ?b WHERE { ?a <urn:knows> ?b . } ORDER BY ?b"
        )
        assert inv[["a", "b"]].values.tolist() == fwd[["a", "b"]].values.tolist()

    def test_alternative_path_is_bag_union(self, ray_session):
        ds = self._people()
        out = self._q(
            ds,
            "SELECT ?s ?v WHERE { ?s (<urn:email>|<urn:knows>) ?v . } "
            "ORDER BY ?s ?v",
        )
        assert out.values.tolist() == [
            ["<urn:p1>", '"a@x"'],
            ["<urn:p1>", "<urn:p2>"],
            ["<urn:p2>", "<urn:p3>"],
        ]

    def test_sequence_with_inverse_element(self, ray_session):
        ds = self._people()
        # knows/^knows: x and y know a common person (includes self)
        out = self._q(
            ds,
            "SELECT ?x ?y WHERE { ?x <urn:knows>/^<urn:knows> ?y . } "
            "ORDER BY ?x",
        )
        assert out.values.tolist() == [
            ["<urn:p1>", "<urn:p1>"],
            ["<urn:p2>", "<urn:p2>"],
        ]

    def test_values_single_and_multi(self, ray_session):
        ds = self._people()
        one = self._q(
            ds,
            "SELECT ?p ?n WHERE { ?p <urn:name> ?n . } "
            'VALUES ?n { "alice" "bob" } ORDER BY ?n',
        )
        assert one.values.tolist() == [
            ["<urn:p1>", '"alice"'], ["<urn:p2>", '"bob"'],
        ]
        multi = self._q(
            ds,
            "SELECT ?p ?n WHERE { ?p <urn:name> ?n . } "
            'VALUES (?p ?n) { (<urn:p1> "alice") (<urn:p2> "nope") }',
        )
        assert multi.values.tolist() == [["<urn:p1>", '"alice"']]

    def test_values_vars_differ_from_select_order(self, ray_session):
        # regression: the VALUES filter closure must bind its own
        # variable list — lazy execution once read the later-reassigned
        # projection columns when SELECT and VALUES listed different
        # variables (here VALUES only constrains ?n, SELECT adds ?p
        # first)
        ds = self._people()
        out = self._q(
            ds,
            "SELECT ?p ?n ?e WHERE { ?p <urn:name> ?n . ?p <urn:email> ?e . } "
            'VALUES (?n ?e) { ("alice" UNDEF) }',
        )
        assert out["n"].tolist() == ['"alice"']

    def test_values_undef_wildcards(self, ray_session):
        ds = self._people()
        # UNDEF row cells = no constraint on that variable in that row
        out = self._q(
            ds,
            "SELECT ?p ?n WHERE { ?p <urn:name> ?n . } "
            'VALUES (?p ?n) { (<urn:p1> UNDEF) (UNDEF "carol") } ORDER BY ?n',
        )
        assert out.values.tolist() == [
            ["<urn:p1>", '"alice"'], ["<urn:p3>", '"carol"'],
        ]
        # an all-UNDEF row constrains nothing → VALUES is a no-op
        allrows = self._q(
            ds,
            "SELECT ?p ?n WHERE { ?p <urn:name> ?n . } "
            'VALUES (?p ?n) { (UNDEF UNDEF) }',
        )
        base = self._q(ds, "SELECT ?p ?n WHERE { ?p <urn:name> ?n . }")
        assert len(allrows) == len(base)
        # VALUES is a §18.5 Join: a solution is kept once per compatible row
        both = self._q(
            ds,
            "SELECT ?p ?n WHERE { ?p <urn:name> ?n . } "
            'VALUES (?p ?n) { (<urn:p1> UNDEF) (UNDEF "alice") }',
        )
        assert both.values.tolist() == [["<urn:p1>", '"alice"']] * 2
        dup = self._q(
            ds, "SELECT ?p WHERE { ?p <urn:name> ?n . } VALUES ?p { <urn:p1> <urn:p1> }"
        )
        assert dup["p"].tolist() == ["<urn:p1>"] * 2
        # an all-UNDEF row beside a bound one: every solution, plus p2 again
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:name> ?n . } VALUES ?p { UNDEF <urn:p2> } ORDER BY ?p",
        )
        assert out["p"].tolist() == ["<urn:p1>", "<urn:p2>", "<urn:p2>", "<urn:p3>"]

    def test_trailing_values_joins_after_grouping(self, ray_session):
        from ontograph_ray.store.sparql import SparqlUnsupportedError

        ds = self._people()
        # §18.2.4.3: a duplicated row repeats the group, not its count
        grouped = "SELECT ?c (COUNT(?k) AS ?n) WHERE { ?c <urn:knows> ?k } GROUP BY ?c "
        out = self._q(ds, grouped + "VALUES ?c { <urn:p1> <urn:p1> }")
        assert out.values.tolist() == [["<urn:p1>", 1]] * 2
        out = self._q(
            ds, grouped + "HAVING (COUNT(?k) > 0) VALUES ?c { <urn:p1> UNDEF } ORDER BY ?c"
        )
        assert out.values.tolist() == [["<urn:p1>", 1], ["<urn:p1>", 1], ["<urn:p2>", 1]]
        # the aliases are bound after the trailing VALUES join
        with pytest.raises(SparqlUnsupportedError, match="only GROUP BY keys"):
            self._q(ds, grouped + 'VALUES ?n { "1" }')
        sub = "{ SELECT ?c (COUNT(?k) AS ?n) WHERE { ?c <urn:knows> ?k } GROUP BY ?c }"
        with pytest.raises(SparqlUnsupportedError, match="numeric aggregate"):
            self._q(ds, f'SELECT ?c WHERE {{ ?c <urn:name> ?x . {sub} VALUES ?n {{ "1" }} }}')

    def test_subquery_join_plans_without_schema_probes(self, ray_session, monkeypatch):
        import ray.data

        from ontograph_ray.store.sparql import sparql_select

        # Ray's own groupby validation reads schema(fetch_if_missing=False),
        # which never executes; a fetching probe would run the plans again
        fetching = []
        orig = ray.data.Dataset.schema

        def counting(self, fetch_if_missing=True):
            fetching.append(fetch_if_missing)
            return orig(self, fetch_if_missing)

        monkeypatch.setattr(ray.data.Dataset, "schema", counting)
        ds = self._people()
        sub = "{{ SELECT ?c (COUNT(?k) AS ?{0}) WHERE {{ ?c <urn:knows> ?k }} GROUP BY ?c }}"
        q = f"SELECT ?c ?n ?m WHERE {{ ?c <urn:name> ?x . {sub.format('n')} {sub.format('m')} }} ORDER BY ?c"
        planned = sparql_select(ds, q)
        assert not any(fetching)
        monkeypatch.undo()
        out = planned.to_pandas()
        assert out.values.tolist() == [["<urn:p1>", 1, 1], ["<urn:p2>", 1, 1]]
        assert str(out["n"].dtype) == "int64" and str(out["m"].dtype) == "int64"

    def test_offset(self, ray_session):
        ds = self._people()
        out = self._q(
            ds,
            "SELECT ?n WHERE { ?p <urn:name> ?n . } "
            "ORDER BY ?n LIMIT 2 OFFSET 1",
        )
        assert out["n"].tolist() == ['"bob"', '"carol"']
        # OFFSET past the end → empty Dataset with the schema intact
        # (Dataset.to_pandas drops columns on 0 rows — assert on the
        # Dataset itself)
        from ontograph_ray.store.sparql import sparql_select

        empty = sparql_select(
            ds,
            "SELECT ?n WHERE { ?p <urn:name> ?n . } "
            "ORDER BY ?n LIMIT 5 OFFSET 10",
        )
        assert empty.schema().names == ["n"] and empty.count() == 0

    def test_sum_aggregate(self, ray_session):
        import pytest
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple
        from ontograph_ray.store.sparql import sparql_select
        from ontograph_ray.constants import XSD_INTEGER

        r = terms.new_resource_term
        il = lambda n: terms.new_literal_term(str(n), datatype=XSD_INTEGER)
        trps = [
            new_triple(r("urn:p1"), r("urn:score"), il(10)),
            new_triple(r("urn:p1"), r("urn:score"), il(-3)),
            new_triple(r("urn:p2"), r("urn:score"), il(5)),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        out = sparql_select(
            ds,
            "SELECT ?p (SUM(?s) AS ?total) WHERE { ?p <urn:score> ?s } "
            "GROUP BY ?p ORDER BY ?p",
        ).to_pandas()
        assert out.values.tolist() == [["<urn:p1>", 7], ["<urn:p2>", 5]]
        glob = sparql_select(
            ds, "SELECT (SUM(?s) AS ?total) WHERE { ?p <urn:score> ?s }"
        ).to_pandas()
        assert glob["total"].tolist() == [12]
        # SUM over a non-integer literal is a strict error, not 0
        bad = DatasetGraphStore.from_triples(
            "urn:g2",
            [new_triple(r("urn:p1"), r("urn:score"), terms.new_literal_term("x"))],
        )
        with pytest.raises(Exception):
            sparql_select(
                bad, "SELECT (SUM(?s) AS ?t) WHERE { ?p <urn:score> ?s }"
            ).to_pandas()

    def test_path_closure(self, ray_session):
        import pytest
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple
        from ontograph_ray.store.sparql import (
            SparqlUnsupportedError,
            sparql_select,
        )

        r = terms.new_resource_term
        trps = [
            new_triple(r("urn:a"), r("urn:sub"), r("urn:b")),
            new_triple(r("urn:b"), r("urn:sub"), r("urn:c")),
            new_triple(r("urn:c"), r("urn:sub"), r("urn:d")),
            new_triple(r("urn:x"), r("urn:other"), r("urn:a")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        out = self._q(
            ds, "SELECT ?x ?y WHERE { ?x <urn:sub>+ ?y . } ORDER BY ?x ?y"
        )
        assert out.values.tolist() == [
            ["<urn:a>", "<urn:b>"], ["<urn:a>", "<urn:c>"],
            ["<urn:a>", "<urn:d>"], ["<urn:b>", "<urn:c>"],
            ["<urn:b>", "<urn:d>"], ["<urn:c>", "<urn:d>"],
        ]
        # ground subject filters the pair set after the fixpoint
        g = self._q(
            ds, "SELECT ?y WHERE { <urn:a> <urn:sub>+ ?y . } ORDER BY ?y"
        )
        assert g["y"].tolist() == ["<urn:b>", "<urn:c>", "<urn:d>"]
        # closure element inside a sequence
        sq = self._q(
            ds,
            "SELECT ?x ?y WHERE { ?x <urn:other>/<urn:sub>+ ?y . } ORDER BY ?y",
        )
        assert sq.values.tolist() == [
            ["<urn:x>", "<urn:b>"], ["<urn:x>", "<urn:c>"],
            ["<urn:x>", "<urn:d>"],
        ]
    def test_path_star_and_zero_or_one(self, ray_session):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r = terms.new_resource_term
        trps = [
            new_triple(r("urn:a"), r("urn:sub"), r("urn:b")),
            new_triple(r("urn:b"), r("urn:sub"), r("urn:c")),
            new_triple(r("urn:c"), r("urn:sub"), r("urn:d")),
            new_triple(r("urn:x"), r("urn:other"), r("urn:a")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        nodes = ["<urn:a>", "<urn:b>", "<urn:c>", "<urn:d>", "<urn:x>"]

        # var-var *: the 6 closure pairs plus identity over EVERY
        # graph node (including x, which has no urn:sub edge)
        out = self._q(
            ds, "SELECT ?x ?y WHERE { ?x <urn:sub>* ?y . } ORDER BY ?x ?y"
        )
        expected = sorted(
            [["<urn:a>", "<urn:b>"], ["<urn:a>", "<urn:c>"],
             ["<urn:a>", "<urn:d>"], ["<urn:b>", "<urn:c>"],
             ["<urn:b>", "<urn:d>"], ["<urn:c>", "<urn:d>"]]
            + [[n, n] for n in nodes]
        )
        assert out.values.tolist() == expected

        # ground subject *: reflexive match plus the closure
        g = self._q(
            ds, "SELECT ?y WHERE { <urn:a> <urn:sub>* ?y . } ORDER BY ?y"
        )
        assert g["y"].tolist() == ["<urn:a>", "<urn:b>", "<urn:c>", "<urn:d>"]

        # ground subject NOT in the graph still reflexively matches
        # (SPARQL ZeroLengthPath needs no graph membership)
        z = self._q(ds, "SELECT ?y WHERE { <urn:z> <urn:sub>* ?y . }")
        assert z["y"].tolist() == ["<urn:z>"]

        # var-var ?: the 3 base edges plus identity over every node
        q1 = self._q(
            ds, "SELECT ?x ?y WHERE { ?x <urn:sub>? ?y . } ORDER BY ?x ?y"
        )
        expected_q = sorted(
            [["<urn:a>", "<urn:b>"], ["<urn:b>", "<urn:c>"],
             ["<urn:c>", "<urn:d>"]]
            + [[n, n] for n in nodes]
        )
        assert q1.values.tolist() == expected_q

        # zero-or-one element inside a sequence
        sq = self._q(
            ds,
            "SELECT ?y WHERE { <urn:x> <urn:other>/<urn:sub>? ?y . } "
            "ORDER BY ?y",
        )
        assert sq["y"].tolist() == ["<urn:a>", "<urn:b>"]

    def test_extension_errors(self, ray_session):
        import pytest
        from ontograph_ray.store.sparql import (
            SparqlSyntaxError,
            SparqlUnsupportedError,
            sparql_select,
        )

        ds = self._people()
        # MINUS group sharing no variable → refused
        with pytest.raises(SparqlUnsupportedError):
            sparql_select(
                ds,
                "SELECT ?p WHERE { ?p <urn:name> ?n . "
                "MINUS { ?x <urn:email> ?e } }",
            ).to_pandas()
        # OFFSET without ORDER BY + LIMIT → refused at parse time
        with pytest.raises(SparqlUnsupportedError):
            sparql_select(
                ds, "SELECT ?n WHERE { ?p <urn:name> ?n . } LIMIT 2 OFFSET 1"
            )
        # VALUES over a never-bound variable
        with pytest.raises(SparqlSyntaxError):
            sparql_select(
                ds, 'SELECT ?n WHERE { ?p <urn:name> ?n . } VALUES ?z { "x" }'
            ).to_pandas()
        # VALUES over an OPTIONAL-only variable → refused
        with pytest.raises(SparqlUnsupportedError):
            sparql_select(
                ds,
                "SELECT ?p WHERE { ?p <urn:name> ?n . "
                "OPTIONAL { ?p <urn:email> ?e } } "
                'VALUES ?e { "a@x" }',
            ).to_pandas()
        # path alternatives / inverse need ground predicates
        with pytest.raises(SparqlSyntaxError):
            sparql_select(ds, "SELECT ?s WHERE { ?s (<urn:a>|?v) ?o . }")
        with pytest.raises(SparqlSyntaxError):
            sparql_select(ds, "SELECT ?s WHERE { ?s ^?v ?o . }")
        # single-branch parenthesized path → syntax error
        with pytest.raises(SparqlSyntaxError):
            sparql_select(ds, "SELECT ?s WHERE { ?s (<urn:a>) ?o . }")


class TestSparqlNegsetClosure:
    def _graph(self):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r = terms.new_resource_term
        trps = [
            # follow chain a→b→c; "skip" edges must be excluded
            new_triple(r("urn:a"), r("urn:follow"), r("urn:b")),
            new_triple(r("urn:b"), r("urn:follow"), r("urn:c")),
            new_triple(r("urn:a"), r("urn:skip"), r("urn:z")),
            new_triple(r("urn:z"), r("urn:other"), r("urn:w")),
        ]
        return DatasetGraphStore.from_triples("urn:g", trps)

    def test_negset_plus(self, ray_session):
        from ontograph_ray.store.sparql import sparql_select

        out = sparql_select(
            self._graph(),
            "SELECT ?x ?y WHERE { ?x !(<urn:skip>)+ ?y . }",
        ).to_pandas()
        got = set(zip(out["x"], out["y"]))
        # follow∪other closure: a→b, b→c, a→c, z→w (skip edge absent)
        assert got == {
            ("<urn:a>", "<urn:b>"),
            ("<urn:b>", "<urn:c>"),
            ("<urn:a>", "<urn:c>"),
            ("<urn:z>", "<urn:w>"),
        }

    def test_negset_plus_two_excluded(self, ray_session):
        from ontograph_ray.store.sparql import sparql_select

        out = sparql_select(
            self._graph(),
            "SELECT ?x ?y WHERE { ?x !(<urn:skip>|<urn:other>)+ ?y . }",
        ).to_pandas()
        got = set(zip(out["x"], out["y"]))
        assert got == {
            ("<urn:a>", "<urn:b>"),
            ("<urn:b>", "<urn:c>"),
            ("<urn:a>", "<urn:c>"),
        }


class TestSparqlNestedOptional:
    """OPTIONAL nesting = LeftJoin(A, LeftJoin(B, C)); non-well-designed
    patterns (a join var nullable on one side) refused."""

    def _graph(self):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            # a1 → b1 → c1 (full chain), a2 → b2 (no inner), a3 (no middle)
            new_triple(r("urn:a1"), r("urn:t"), l("x")),
            new_triple(r("urn:a2"), r("urn:t"), l("x")),
            new_triple(r("urn:a3"), r("urn:t"), l("x")),
            new_triple(r("urn:a1"), r("urn:mid"), r("urn:b1")),
            new_triple(r("urn:a2"), r("urn:mid"), r("urn:b2")),
            new_triple(r("urn:b1"), r("urn:leaf"), l("deep")),
        ]
        return DatasetGraphStore.from_triples("urn:g", trps)

    def _q(self, dstore, text):
        from ontograph_ray.store.sparql import sparql_select

        return sparql_select(dstore, text).to_pandas()

    def test_three_level_left_join(self, ray_session):
        import pandas as pd

        out = self._q(
            self._graph(),
            "SELECT ?a ?b ?v WHERE { ?a <urn:t> ?x . "
            "OPTIONAL { ?a <urn:mid> ?b . OPTIONAL { ?b <urn:leaf> ?v } } } "
            "ORDER BY ?a",
        ).set_index("a")
        assert out.loc["<urn:a1>", "b"] == "<urn:b1>"
        assert out.loc["<urn:a1>", "v"] == '"deep"'
        assert out.loc["<urn:a2>", "b"] == "<urn:b2>"
        assert pd.isna(out.loc["<urn:a2>", "v"])
        assert pd.isna(out.loc["<urn:a3>", "b"])
        assert pd.isna(out.loc["<urn:a3>", "v"])

    def test_non_well_designed_refused(self, ray_session):
        from ontograph_ray.store.sparql import SparqlUnsupportedError

        # ?v bound in the required part AND only under the nested
        # OPTIONAL on the group side → nullable join key
        with pytest.raises(SparqlUnsupportedError, match="well-designed"):
            self._q(
                self._graph(),
                "SELECT ?a WHERE { ?a <urn:t> ?v . "
                "OPTIONAL { ?a <urn:mid> ?b . OPTIONAL { ?b <urn:leaf> ?v } } }",
            )

    def test_chained_optional_on_optional_var_refused(self, ray_session):
        from ontograph_ray.store.sparql import SparqlUnsupportedError

        with pytest.raises(SparqlUnsupportedError, match="well-designed"):
            self._q(
                self._graph(),
                "SELECT ?a WHERE { ?a <urn:t> ?x . "
                "OPTIONAL { ?a <urn:mid> ?b } "
                "OPTIONAL { ?b <urn:leaf> ?v } }",
            )

    def test_nested_cartesian_refused(self, ray_session):
        from ontograph_ray.store.sparql import SparqlUnsupportedError

        with pytest.raises(SparqlUnsupportedError, match="cartesian"):
            self._q(
                self._graph(),
                "SELECT ?a WHERE { ?a <urn:t> ?x . "
                "OPTIONAL { ?a <urn:mid> ?b . OPTIONAL { ?z <urn:leaf> ?v } } }",
            )


class TestSparqlBindArith:
    """Integer BIND arithmetic: decode xsd:integer terms, int64 math,
    re-encode; error→unbound on non-integer operands; '/' and decimal
    operands route to the scale-6 fixed-point decimal lane."""

    XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"

    def _nums(self):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:p1"), r("urn:age"), l("30", datatype=self.XSD_INT)),
            new_triple(r("urn:p2"), r("urn:age"), l("7", datatype=self.XSD_INT)),
            new_triple(r("urn:p1"), r("urn:name"), l("alice")),
        ]
        return DatasetGraphStore.from_triples("urn:g", trps)

    def _q(self, dstore, text):
        from ontograph_ray.store.sparql import sparql_select

        return sparql_select(dstore, text).to_pandas()

    def test_arith_chain_and_orders(self, ray_session):
        ds = self._nums()
        out = self._q(
            ds,
            "SELECT ?p ?adj WHERE { ?p <urn:age> ?a . "
            "BIND ( ?a * 2 AS ?dbl ) BIND ( 1 + ?dbl AS ?adj ) } ORDER BY ?p",
        ).set_index("p")["adj"]
        assert out["<urn:p1>"] == f'"61"^^<{self.XSD_INT}>'
        assert out["<urn:p2>"] == f'"15"^^<{self.XSD_INT}>'

    def test_negative_result_and_filter_on_alias(self, ray_session):
        ds = self._nums()
        out = self._q(
            ds,
            "SELECT ?p ?d WHERE { ?p <urn:age> ?a . "
            "BIND ( ?a - 20 AS ?d ) FILTER ( ?d < 0 ) }",
        )
        assert out["p"].tolist() == ["<urn:p2>"]
        assert out["d"].tolist() == [f'"-13"^^<{self.XSD_INT}>']

    def test_non_integer_operand_binds_null(self, ray_session):
        ds = self._nums()
        out = self._q(
            ds,
            "SELECT ?p ?y WHERE { ?p <urn:name> ?n . "
            "BIND ( ?n + 1 AS ?y ) FILTER ( !BOUND(?y) ) }",
        )
        assert out["p"].tolist() == ["<urn:p1>"]

    XSD_DEC = "http://www.w3.org/2001/XMLSchema#decimal"

    def test_division_binds_decimal(self, ray_session):
        # int/int division is xsd:decimal per the XPath operator table:
        # 30/4 = 7.5, 7/4 = 1.75 — exact, canonical trimmed lexicals
        ds = self._nums()
        out = self._q(
            ds,
            "SELECT ?p ?h WHERE { ?p <urn:age> ?a . BIND ( ?a / 4 AS ?h ) }",
        ).set_index("p")["h"]
        assert out["<urn:p1>"] == f'"7.5"^^<{self.XSD_DEC}>'
        assert out["<urn:p2>"] == f'"1.75"^^<{self.XSD_DEC}>'

    def test_division_rounds_half_away_at_scale_6(self, ray_session):
        # 30/7 = 4.285714285… → 4.285714; 7/3 = 2.3333335 at digit 7 →
        # 2.333333; negative side: BIND(0 - ?a AS …) then /7
        ds = self._nums()
        out = self._q(
            ds,
            "SELECT ?p ?h ?g WHERE { ?p <urn:age> ?a . "
            "BIND ( ?a / 7 AS ?h ) BIND ( 0 - ?a AS ?n ) "
            "BIND ( ?n / 7 AS ?g ) }",
        ).set_index("p")
        assert out["h"]["<urn:p1>"] == f'"4.285714"^^<{self.XSD_DEC}>'
        assert out["g"]["<urn:p1>"] == f'"-4.285714"^^<{self.XSD_DEC}>'
        assert out["h"]["<urn:p2>"] == f'"1.0"^^<{self.XSD_DEC}>'

    def test_decimal_constant_and_mixed_row_typing(self, ray_session):
        # ?a * 0.5 → decimal even for integer-typed rows; ?a + 1 stays
        # xsd:integer on integer rows (the per-row dual lane)
        ds = self._nums()
        out = self._q(
            ds,
            "SELECT ?p ?h ?i WHERE { ?p <urn:age> ?a . "
            "BIND ( ?a * 0.5 AS ?h ) BIND ( ?a + 1 AS ?i ) }",
        ).set_index("p")
        assert out["h"]["<urn:p1>"] == f'"15.0"^^<{self.XSD_DEC}>'
        assert out["h"]["<urn:p2>"] == f'"3.5"^^<{self.XSD_DEC}>'
        assert out["i"]["<urn:p1>"] == f'"31"^^<{self.XSD_INT}>'

    def test_decimal_operand_promotes(self, ray_session):
        # a decimal-typed term in + promotes the row to xsd:decimal;
        # non-numeric rows stay unbound in both lanes
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:x1"), r("urn:v"), l("2.25", datatype=self.XSD_DEC)),
            new_triple(r("urn:x2"), r("urn:v"), l("4", datatype=self.XSD_INT)),
            new_triple(r("urn:x3"), r("urn:v"), l("oops")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        out = self._q(
            ds,
            "SELECT ?p ?h WHERE { ?p <urn:v> ?a . BIND ( ?a + 1 AS ?h ) }",
        ).set_index("p")["h"]
        import pandas as pd

        assert out["<urn:x1>"] == f'"3.25"^^<{self.XSD_DEC}>'
        assert out["<urn:x2>"] == f'"5"^^<{self.XSD_INT}>'
        assert pd.isna(out["<urn:x3>"])

    def test_division_by_zero_unbinds(self, ray_session):
        ds = self._nums()
        out = self._q(
            ds,
            "SELECT ?p ?h WHERE { ?p <urn:age> ?a . "
            "BIND ( ?a - ?a AS ?z ) BIND ( ?a / ?z AS ?h ) }",
        )
        assert out["h"].isna().all()

    def test_filter_decimal_comparisons(self, ray_session):
        # division and decimal constants in computed FILTERs: exact
        # unscaled comparison (30/4 = 7.5 > 7.49; 7/4 = 1.75 not)
        ds = self._nums()
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:age> ?a . FILTER ( ?a / 4 > 7.49 ) }",
        )
        assert out["p"].tolist() == ["<urn:p1>"]
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:age> ?a . FILTER ( ?a = 7.0 ) }",
        )
        assert out["p"].tolist() == ["<urn:p2>"]

    def test_seven_fraction_digits_unbinds(self, ray_session):
        # >6 fractional digits is outside the scale-6 contract →
        # error→unbound, never a rounded misanswer
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:x1"), r("urn:v"), l("1.2345678", datatype=self.XSD_DEC)),
            new_triple(r("urn:x2"), r("urn:v"), l("1.2345670", datatype=self.XSD_DEC)),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        out = self._q(
            ds,
            "SELECT ?p ?h WHERE { ?p <urn:v> ?a . BIND ( ?a + 0 AS ?h ) }",
        ).set_index("p")["h"]
        import pandas as pd

        assert pd.isna(out["<urn:x1>"])  # 7 significant fraction digits
        # a 7th trailing zero is still representable at scale 6
        assert out["<urn:x2>"] == f'"1.234567"^^<{self.XSD_DEC}>'

    def test_bind_string_builtins(self, ray_session):
        # UCASE preserves the language tag and is literal-only;
        # STRLANG/STRDT require SIMPLE literals; STRLEN binds integer
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:a"), r("urn:v"), l("Foo")),
            new_triple(r("urn:b"), r("urn:v"), l("BaR", language="en")),
            new_triple(r("urn:c"), r("urn:v"), l("5", datatype=self.XSD_INT)),
            new_triple(r("urn:d"), r("urn:v"), r("urn:x")),
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        out = self._q(
            ds,
            'SELECT ?p ?u ?n ?tg ?ty WHERE { ?p <urn:v> ?o . '
            "BIND ( UCASE(?o) AS ?u ) BIND ( STRLEN(?o) AS ?n ) "
            'BIND ( STRLANG(?o, "fr") AS ?tg ) '
            "BIND ( STRDT(?o, <urn:dt>) AS ?ty ) }",
        ).set_index("p")
        import pandas as pd

        assert out["u"]["<urn:a>"] == '"FOO"'
        assert out["u"]["<urn:b>"] == '"BAR"@en'  # tag preserved
        assert pd.isna(out["u"]["<urn:c>"])  # typed literal → unbound
        assert pd.isna(out["u"]["<urn:d>"])  # resource → unbound
        assert out["tg"]["<urn:a>"] == '"Foo"@fr'
        assert pd.isna(out["tg"]["<urn:b>"])  # already tagged → unbound
        assert out["ty"]["<urn:a>"] == '"Foo"^^<urn:dt>'
        assert out["n"]["<urn:a>"] == f'"3"^^<{self.XSD_INT}>'
        assert out["n"]["<urn:d>"] == f'"5"^^<{self.XSD_INT}>'  # URI len

    def test_abs_ceil_floor_round_builtins(self, ray_session):
        # XPath numeric fns on the dual lane: -7/4 = -1.75 →
        # FLOOR -2.0, CEIL -1.0, ROUND -2.0 (ties toward +inf:
        # fn:round(-1.5) = -1, but -1.75 rounds to -2); ABS(-7) stays
        # xsd:integer
        ds = self._nums()
        out = self._q(
            ds,
            "SELECT ?p ?m ?f ?g ?r WHERE { ?p <urn:age> ?a . "
            "BIND ( 0 - ?a AS ?n ) BIND ( ABS(?n) AS ?m ) "
            "BIND ( ?n / 4 AS ?q ) BIND ( FLOOR(?q) AS ?f ) "
            "BIND ( CEIL(?q) AS ?g ) BIND ( ROUND(?q) AS ?r ) }",
        ).set_index("p")
        # p2: age 7 → n=-7, q=-1.75
        assert out["m"]["<urn:p2>"] == f'"7"^^<{self.XSD_INT}>'
        assert out["f"]["<urn:p2>"] == f'"-2.0"^^<{self.XSD_DEC}>'
        assert out["g"]["<urn:p2>"] == f'"-1.0"^^<{self.XSD_DEC}>'
        assert out["r"]["<urn:p2>"] == f'"-2.0"^^<{self.XSD_DEC}>'
        # p1: age 30 → q=-7.5; ROUND(-7.5) = -7 (ties toward +inf)
        assert out["r"]["<urn:p1>"] == f'"-7.0"^^<{self.XSD_DEC}>'
        assert out["f"]["<urn:p1>"] == f'"-8.0"^^<{self.XSD_DEC}>'

    def test_filter_numeric_functions(self, ray_session):
        # ABS/FLOOR/ROUND as computed-FILTER operands over nested
        # expressions — ages 30 and 7
        ds = self._nums()
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:age> ?a . "
            "FILTER ( ABS(?a - 20) <= 10 ) }",
        )
        assert out["p"].tolist() == ["<urn:p1>"]  # |30-20|=10 ≤ 10; |7-20|=13 drops
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:age> ?a . "
            "FILTER ( FLOOR(?a / 4) = 7.0 ) }",
        )
        assert out["p"].tolist() == ["<urn:p1>"]  # floor(30/4)=7
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:age> ?a . "
            "FILTER ( ROUND(?a / 4) = 2.0 ) }",
        )
        assert out["p"].tolist() == ["<urn:p2>"]  # round(1.75)=2

    def test_decimal_constant_too_precise_refused(self, ray_session):
        import pytest as _pytest

        from ontograph_ray.store.sparql import SparqlUnsupportedError

        ds = self._nums()
        with _pytest.raises(SparqlUnsupportedError, match="fractional"):
            self._q(
                ds,
                "SELECT ?p WHERE { ?p <urn:age> ?a . "
                "FILTER ( ?a > 1.0000001 ) }",
            )


class TestSparqlOrderDesc:
    def _people(self):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r(f"urn:p{i}"), r("urn:score"), l(s))
            for i, s in enumerate(["b", "c", "a", "c"])
        ]
        return DatasetGraphStore.from_triples("urn:g", trps)

    def _q(self, ds, text):
        from ontograph_ray.store.sparql import sparql_select

        return sparql_select(ds, text).to_pandas()

    def test_desc_with_limit(self, ray_session):
        ds = self._people()
        out = self._q(
            ds,
            "SELECT ?p ?s WHERE { ?p <urn:score> ?s . } "
            "ORDER BY DESC(?s) ?p LIMIT 3",
        )
        # descending score, ties broken by subject ascending
        assert out.values.tolist() == [
            ["<urn:p1>", '"c"'],
            ["<urn:p3>", '"c"'],
            ["<urn:p0>", '"b"'],
        ]

    def test_asc_explicit_equals_plain(self, ray_session):
        ds = self._people()
        plain = self._q(
            ds, "SELECT ?s WHERE { ?p <urn:score> ?s . } ORDER BY ?s LIMIT 2"
        )
        asc = self._q(
            ds,
            "SELECT ?s WHERE { ?p <urn:score> ?s . } ORDER BY ASC(?s) LIMIT 2",
        )
        assert plain["s"].tolist() == asc["s"].tolist()

    def test_desc_errors(self, ray_session):
        import pytest
        from ontograph_ray.store.sparql import SparqlSyntaxError, sparql_select

        ds = self._people()
        with pytest.raises(SparqlSyntaxError):
            sparql_select(
                ds, "SELECT ?s WHERE { ?p <urn:score> ?s . } ORDER BY DESC ?s"
            )
        with pytest.raises(SparqlSyntaxError):
            sparql_select(
                ds,
                'SELECT ?s WHERE { ?p <urn:score> ?s . } ORDER BY DESC("x")',
            )


class TestSparqlNegset:
    def _people(self):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(r("urn:p1"), r("urn:name"), l("alice")),
            new_triple(r("urn:p1"), r("urn:email"), l("a@x")),
            new_triple(r("urn:p1"), r("urn:knows"), r("urn:p2")),
            new_triple(r("urn:p2"), r("urn:name"), l("bob")),
        ]
        return DatasetGraphStore.from_triples("urn:g", trps)

    def _q(self, ds, text):
        from ontograph_ray.store.sparql import sparql_select

        return sparql_select(ds, text).to_pandas()

    def test_single_negation(self, ray_session):
        ds = self._people()
        out = self._q(
            ds,
            "SELECT ?s ?o WHERE { ?s !<urn:name> ?o . } ORDER BY ?o",
        )
        assert out.values.tolist() == [
            ["<urn:p1>", '"a@x"'],
            ["<urn:p1>", "<urn:p2>"],
        ]

    def test_negset_alternatives(self, ray_session):
        ds = self._people()
        out = self._q(
            ds,
            "SELECT ?s ?o WHERE { ?s !(<urn:name>|<urn:email>) ?o . }",
        )
        assert out.values.tolist() == [["<urn:p1>", "<urn:p2>"]]

    def test_negset_in_sequence(self, ray_session):
        ds = self._people()
        # anything-but-name from p1, then name of the target
        out = self._q(
            ds,
            "SELECT ?n WHERE { <urn:p1> !(<urn:name>|<urn:email>)/<urn:name> ?n . }",
        )
        assert out["n"].tolist() == ['"bob"']

    def test_negset_errors(self, ray_session):
        import pytest
        from ontograph_ray.store.sparql import (
            SparqlSyntaxError,
            SparqlUnsupportedError,
            sparql_select,
        )

        ds = self._people()
        with pytest.raises(SparqlUnsupportedError):
            sparql_select(ds, "SELECT ?s WHERE { ?s !(^<urn:name>) ?o . }")
        with pytest.raises(SparqlSyntaxError):
            sparql_select(ds, "SELECT ?s WHERE { ?s !?v ?o . }")
        # closure over a single negated predicate is supported now
        # (same machinery as !(p1|p2)+): edges = email+knows here
        out = sparql_select(
            ds, "SELECT ?s ?o WHERE { ?s !<urn:name>+ ?o . }"
        ).to_pandas()
        assert sorted(map(tuple, out.values.tolist())) == [
            ("<urn:p1>", '"a@x"'),
            ("<urn:p1>", "<urn:p2>"),
        ]
        with pytest.raises(SparqlUnsupportedError):
            sparql_select(
                ds,
                "SELECT ?s WHERE { ?s <urn:knows> ?o . "
                "MINUS { ?s !<urn:name> ?o } }",
            )


class TestSparqlFilterNumeric:
    def _store(self):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import constants as C
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r = terms.new_resource_term
        l = terms.new_literal_term
        trps = [
            new_triple(
                r(f"urn:p{i}"),
                r("urn:val"),
                l(str(v), datatype=C.XSD_INTEGER),
            )
            for i, v in enumerate([-5, 0, 7, 42])
        ] + [
            # plain (untyped) literal: dropped by numeric filters
            new_triple(r("urn:px"), r("urn:val"), l("99")),
        ]
        return DatasetGraphStore.from_triples("urn:g", trps)

    def _q(self, ds, text):
        from ontograph_ray.store.sparql import sparql_select

        return sparql_select(ds, text).to_pandas()

    def test_comparisons(self, ray_session):
        ds = self._store()
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:val> ?v . FILTER ( ?v > 0 ) } "
            "ORDER BY ?p",
        )
        assert out["p"].tolist() == ["<urn:p2>", "<urn:p3>"]
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:val> ?v . FILTER ( ?v <= 0 ) } "
            "ORDER BY ?p",
        )
        assert out["p"].tolist() == ["<urn:p0>", "<urn:p1>"]

    def test_negative_constant(self, ray_session):
        ds = self._store()
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:val> ?v . FILTER ( ?v < -1 ) }",
        )
        assert out["p"].tolist() == ["<urn:p0>"]

    def test_untyped_literal_dropped(self, ray_session):
        ds = self._store()
        # "99" (plain literal) never passes a numeric filter
        out = self._q(
            ds,
            "SELECT ?p WHERE { ?p <urn:val> ?v . FILTER ( ?v >= 50 ) }",
        )
        assert len(out) == 0

    def test_bad_operand_raises(self, ray_session):
        import pytest
        from ontograph_ray.store.sparql import SparqlSyntaxError, sparql_select

        with pytest.raises(SparqlSyntaxError):
            sparql_select(
                self._store(),
                'SELECT ?p WHERE { ?p <urn:val> ?v . FILTER ( ?v > "x" ) }',
            )


class TestSparqlFilterBoolExpr:
    """Full boolean FILTER grammar ((a || b) && c with SPARQL
    precedence) and computed numeric comparisons (?a > ?b + 1) — the
    reference's E8 passthrough accepts both unchanged
    (blazegraph_endpoint.go:176-244)."""

    def _store(self):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import constants as C
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r = terms.new_resource_term
        l = terms.new_literal_term
        trps = []
        for i, (a, b) in enumerate([(1, 5), (3, 1), (10, 2), (7, 7), (4, 2)]):
            trps += [
                new_triple(
                    r(f"urn:s{i}"), r("urn:a"), l(str(a), datatype=C.XSD_INTEGER)
                ),
                new_triple(
                    r(f"urn:s{i}"), r("urn:b"), l(str(b), datatype=C.XSD_INTEGER)
                ),
            ]
        # s5 has a plain (untyped) literal ?a: numeric conditions on it
        # are SPARQL type errors → false under any boolean connective
        trps += [
            new_triple(r("urn:s5"), r("urn:a"), l("100")),
            new_triple(r("urn:s5"), r("urn:b"), l("1", datatype=C.XSD_INTEGER)),
        ]
        return DatasetGraphStore.from_triples("urn:g", trps)

    def _q(self, ds, flt):
        from ontograph_ray.store.sparql import sparql_select

        out = sparql_select(
            ds,
            "SELECT ?s WHERE { ?s <urn:a> ?a . ?s <urn:b> ?b . "
            f"FILTER ( {flt} ) }}",
        ).to_pandas()
        return sorted(out["s"].tolist()) if len(out) else []

    def test_or_in_and(self, ray_session):
        ds = self._store()
        # (a>5 || a<2) && b<=5 — && binds the parenthesized OR
        got = self._q(ds, "( ?a > 5 || ?a < 2 ) && ?b <= 5")
        assert got == ["<urn:s0>", "<urn:s2>"]

    def test_precedence_and_tighter_than_or(self, ray_session):
        ds = self._store()
        # a<2 || a>5 && b>5 ≡ a<2 || (a>5 && b>5) → s0, s3
        got = self._q(ds, "?a < 2 || ?a > 5 && ?b > 5")
        assert got == ["<urn:s0>", "<urn:s3>"]
        # parens flip it: (a<2 || a>5) && b>5 → s3 only (s0 has b=5)
        got = self._q(ds, "( ?a < 2 || ?a > 5 ) && ?b > 5")
        assert got == ["<urn:s3>"]

    def test_deep_nesting(self, ray_session):
        ds = self._store()
        got = self._q(
            ds, "( ?a = ?b + 3 && ?b < 5 ) || ( ?a < 2 || ?b > 6 )"
        )
        assert got == ["<urn:s0>", "<urn:s3>"]

    def test_computed_rhs(self, ray_session):
        ds = self._store()
        got = self._q(ds, "?a > ?b + 1")
        assert got == ["<urn:s1>", "<urn:s2>", "<urn:s4>"]

    def test_computed_lhs_and_var_var(self, ray_session):
        ds = self._store()
        assert self._q(ds, "?a * 2 > ?b") == [
            "<urn:s1>", "<urn:s2>", "<urn:s3>", "<urn:s4>",
        ]
        # plain numeric var-var comparison (s5's plain-literal ?a is a
        # type error → dropped)
        assert self._q(ds, "?a < ?b") == ["<urn:s0>"]

    def test_numeric_equality_forms(self, ray_session):
        ds = self._store()
        assert self._q(ds, "?a = ?b + 2") == ["<urn:s1>", "<urn:s4>"]
        assert self._q(ds, "?a - 2 = ?b") == ["<urn:s1>", "<urn:s4>"]
        # != numeric: everything except the equality set (s5 dropped —
        # plain literal never numeric-compares)
        assert self._q(ds, "?a != ?b + 2") == [
            "<urn:s0>", "<urn:s2>", "<urn:s3>",
        ]

    def test_type_error_is_false_in_disjunct(self, ray_session):
        ds = self._store()
        # s5: ?a is a plain literal → ?a > 5 errors → false, but the
        # other disjunct (?b <= 1) is true → row kept
        got = self._q(ds, "?a > 5 || ?b <= 1")
        assert got == ["<urn:s1>", "<urn:s2>", "<urn:s3>", "<urn:s5>"]
        # under &&, the error side kills the row even when the other
        # conjunct is true (s5's ?b <= 2 holds but ?a >= 3 errors)
        got = self._q(ds, "?a >= 3 && ?b <= 2")
        assert got == ["<urn:s1>", "<urn:s2>", "<urn:s4>"]

    def test_unbalanced_group_raises(self, ray_session):
        import pytest
        from ontograph_ray.store.sparql import SparqlSyntaxError, sparql_select

        with pytest.raises(SparqlSyntaxError):
            sparql_select(
                self._store(),
                "SELECT ?s WHERE { ?s <urn:a> ?a . "
                "FILTER ( ( ?a > 5 || ?a < 2 ) && }",
            )


class TestCrosstab:
    def test_counts_and_unknown_ignored(self, ray_session):
        import pandas as pd
        import ray.data

        from ontograph_ray.store.dataset import crosstab_counts

        df = pd.DataFrame(
            {
                "g": ["a", "a", "a", "b", "b", "c"],
                "v": ["x", "x", "y", "y", "zz", "x"],
            }
        )
        out = (
            crosstab_counts(
                ray.data.from_pandas(df).repartition(3), "g", "v", ["x", "y"]
            )
            .to_pandas()
            .sort_values("g")
            .reset_index(drop=True)
        )
        # "zz" not in the category list → ignored
        assert out.values.tolist() == [
            ["a", 2, 1],
            ["b", 0, 1],
            ["c", 1, 0],
        ]


class TestSparqlGroupAvg:
    def test_avg_exact_and_layout_invariant(self, ray_session):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import constants as C
        from ontograph_ray import terms
        from ontograph_ray.store.sparql import sparql_select
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        vals = {"a": [1, 2, 4], "b": [10]}
        trps = []
        i = 0
        for g, vs in vals.items():
            for v in vs:
                trps.append(
                    new_triple(r(f"urn:x{i}"), r("urn:grp"), l(g))
                )
                trps.append(
                    new_triple(
                        r(f"urn:x{i}"), r("urn:val"),
                        l(str(v), datatype=C.XSD_INTEGER),
                    )
                )
                i += 1
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        out = (
            sparql_select(
                ds,
                "SELECT ?g (AVG(?v) AS ?m) WHERE { ?x <urn:grp> ?g . "
                "?x <urn:val> ?v . } GROUP BY ?g",
            )
            .to_pandas()
            .sort_values("g")
            .reset_index(drop=True)
        )
        assert out["m"].tolist() == [7 / 3, 10.0]

    def test_avg_whole_result(self, ray_session):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import constants as C
        from ontograph_ray import terms
        from ontograph_ray.store.sparql import sparql_select
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(
                r(f"urn:x{i}"), r("urn:val"),
                l(str(v), datatype=C.XSD_INTEGER),
            )
            for i, v in enumerate([1, 2])
        ]
        ds = DatasetGraphStore.from_triples("urn:g", trps)
        out = sparql_select(
            ds,
            "SELECT (AVG(?v) AS ?m) WHERE { ?x <urn:val> ?v . }",
        ).to_pandas()
        assert out["m"].tolist() == [1.5]

    def test_avg_on_non_integer_raises(self, ray_session):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.store.sparql import sparql_select
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        ds = DatasetGraphStore.from_triples(
            "urn:g",
            [new_triple(r("urn:x"), r("urn:val"), l("oops"))],
        )
        with pytest.raises(Exception):
            sparql_select(
                ds, "SELECT (AVG(?v) AS ?m) WHERE { ?x <urn:val> ?v . }"
            ).to_pandas()


class TestIntervalOverlapJoin:
    def _join(self, rows_l, rows_r, band):
        import pandas as pd
        import ray.data

        from ontograph_ray.store.dataset import interval_overlap_join

        mk = lambda rows: ray.data.from_pandas(
            pd.DataFrame(rows, columns=["id", "start_us", "end_us"])
        ).repartition(2)
        out = interval_overlap_join(
            mk(rows_l), mk(rows_r), band_us=band
        ).to_pandas()
        if not len(out):
            return []
        return sorted(zip(out["id_l"], out["id_r"]))

    def test_pairs_match_brute_force(self, ray_session):
        # deterministic intervals with multi-cell spans and touches
        L = [(i, i * 7 % 50, i * 7 % 50 + (i * 3) % 20) for i in range(25)]
        R = [(i, i * 11 % 60, i * 11 % 60 + (i * 5) % 15) for i in range(25)]
        expected = sorted(
            (a, b)
            for a, s1, e1 in L
            for b, s2, e2 in R
            if s1 <= e2 and s2 <= e1
        )
        for band in (5, 17, 100):  # dedup must hold at any band size
            assert self._join(L, R, band) == expected

    def test_closed_interval_touch(self, ray_session):
        # end == start counts as overlap (closed intervals)
        assert self._join([(1, 0, 10)], [(2, 10, 20)], 4) == [(1, 2)]
        assert self._join([(1, 0, 9)], [(2, 10, 20)], 4) == []

    def test_pair_emitted_once_across_shared_cells(self, ray_session):
        # both intervals span many shared cells → still one output row
        got = self._join([(1, 0, 100)], [(2, 0, 100)], 3)
        assert got == [(1, 2)]


class TestSparqlCountDistinct:
    def _store(self):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = []
        # group a: values x,x,y → 2 distinct; group b: z → 1
        for i, (g, v) in enumerate(
            [("a", "x"), ("a", "x"), ("a", "y"), ("b", "z")]
        ):
            trps.append(new_triple(r(f"urn:e{i}"), r("urn:grp"), l(g)))
            trps.append(new_triple(r(f"urn:e{i}"), r("urn:val"), l(v)))
        return DatasetGraphStore.from_triples("urn:g", trps)

    def test_grouped(self, ray_session):
        from ontograph_ray.store.sparql import sparql_select

        out = (
            sparql_select(
                self._store(),
                "SELECT ?g (COUNT(DISTINCT ?v) AS ?n) WHERE { "
                "?e <urn:grp> ?g . ?e <urn:val> ?v . } GROUP BY ?g",
            )
            .to_pandas()
            .sort_values("g")
            .reset_index(drop=True)
        )
        assert out.values.tolist() == [['"a"', 2], ['"b"', 1]]

    def test_whole_result(self, ray_session):
        from ontograph_ray.store.sparql import sparql_select

        out = sparql_select(
            self._store(),
            "SELECT (COUNT(DISTINCT ?v) AS ?n) WHERE { ?e <urn:val> ?v . }",
        ).to_pandas()
        assert out["n"].tolist() == [3]

    def test_mixing_refused(self, ray_session):
        import pytest
        from ontograph_ray.store.sparql import (
            SparqlUnsupportedError,
            sparql_select,
        )

        with pytest.raises(SparqlUnsupportedError):
            sparql_select(
                self._store(),
                "SELECT ?g (COUNT(DISTINCT ?v) AS ?n) (COUNT(*) AS ?m) "
                "WHERE { ?e <urn:grp> ?g . ?e <urn:val> ?v . } GROUP BY ?g",
            ).to_pandas()
        with pytest.raises(SparqlUnsupportedError):
            sparql_select(
                self._store(),
                "SELECT ?g (SUM(DISTINCT ?v) AS ?n) (MIN(?v) AS ?m) "
                "WHERE { ?e <urn:grp> ?g . ?e <urn:val> ?v . } GROUP BY ?g",
            ).to_pandas()


class TestSparqlSumAvgDistinct:
    """SUM/AVG(DISTINCT ?v): per-group distinct rows through the
    exchange, exact int64 sums; MIN/MAX treat DISTINCT as a no-op."""

    XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"

    def _store(self):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = []
        # group a: 10,10,4 → distinct {10,4}; group b: 6 → {6}
        for i, (g, v) in enumerate(
            [("a", "10"), ("a", "10"), ("a", "4"), ("b", "6")]
        ):
            trps.append(new_triple(r(f"urn:e{i}"), r("urn:grp"), l(g)))
            trps.append(
                new_triple(
                    r(f"urn:e{i}"), r("urn:val"), l(v, datatype=self.XSD_INT)
                )
            )
        return DatasetGraphStore.from_triples("urn:g", trps)

    def test_sum_distinct_grouped(self, ray_session):
        from ontograph_ray.store.sparql import sparql_select

        out = (
            sparql_select(
                self._store(),
                "SELECT ?g (SUM(DISTINCT ?v) AS ?s) WHERE { "
                "?e <urn:grp> ?g . ?e <urn:val> ?v . } GROUP BY ?g",
            )
            .to_pandas()
            .sort_values("g")
            .reset_index(drop=True)
        )
        assert out.values.tolist() == [['"a"', 14], ['"b"', 6]]

    def test_sum_and_avg_distinct_whole_result(self, ray_session):
        from ontograph_ray.store.sparql import sparql_select

        st = self._store()
        out = sparql_select(
            st,
            "SELECT (SUM(DISTINCT ?v) AS ?s) WHERE { ?e <urn:val> ?v . }",
        ).to_pandas()
        assert out["s"].tolist() == [20]  # {10, 4, 6}
        out = sparql_select(
            st,
            "SELECT (AVG(DISTINCT ?v) AS ?m) WHERE { ?e <urn:val> ?v . }",
        ).to_pandas()
        assert out["m"].tolist() == [20 / 3]

    def test_min_distinct_is_noop(self, ray_session):
        from ontograph_ray.store.sparql import sparql_select

        out = (
            sparql_select(
                self._store(),
                "SELECT ?g (MIN(DISTINCT ?v) AS ?m) WHERE { "
                "?e <urn:grp> ?g . ?e <urn:val> ?v . } GROUP BY ?g",
            )
            .to_pandas()
            .sort_values("g")
            .reset_index(drop=True)
        )
        assert out["m"].tolist() == [
            f'"10"^^<{self.XSD_INT}>',
            f'"6"^^<{self.XSD_INT}>',
        ]


class TestSparqlGroupByNoAggregates:
    """GROUP BY with no aggregates → one solution per group; SELECT
    DISTINCT composes with aggregates (dedup of projected rows)."""

    def _store(self):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = []
        # groups a(×2), b(×2), c(×1) → counts {2, 2, 1}
        for i, g in enumerate(["a", "a", "b", "b", "c"]):
            trps.append(new_triple(r(f"urn:e{i}"), r("urn:grp"), l(g)))
        return DatasetGraphStore.from_triples("urn:g", trps)

    def test_group_by_projects_one_row_per_group(self, ray_session):
        from ontograph_ray.store.sparql import sparql_select

        out = sparql_select(
            self._store(),
            "SELECT ?g WHERE { ?e <urn:grp> ?g . } GROUP BY ?g",
        ).to_pandas()
        assert sorted(out["g"].tolist()) == ['"a"', '"b"', '"c"']

    def test_select_star_maps_to_group_keys(self, ray_session):
        from ontograph_ray.store.sparql import sparql_select

        out = sparql_select(
            self._store(),
            "SELECT * WHERE { ?e <urn:grp> ?g . } GROUP BY ?g",
        ).to_pandas()
        assert sorted(out["g"].tolist()) == ['"a"', '"b"', '"c"']

    def test_non_key_selection_is_typed_error(self, ray_session):
        from ontograph_ray.store.sparql import SparqlSyntaxError, sparql_select

        with pytest.raises(SparqlSyntaxError, match="not in GROUP BY"):
            sparql_select(
                self._store(),
                "SELECT ?e WHERE { ?e <urn:grp> ?g . } GROUP BY ?g",
            )

    def test_distinct_with_aggregates_dedups_projection(self, ray_session):
        from ontograph_ray.store.sparql import sparql_select

        q = (
            "SELECT {d}(COUNT(?e) AS ?n) WHERE {{ ?e <urn:grp> ?g . }} "
            "GROUP BY ?g"
        )
        plain = sparql_select(self._store(), q.format(d="")).to_pandas()
        assert sorted(plain["n"].tolist()) == [1, 2, 2]
        ded = sparql_select(self._store(), q.format(d="DISTINCT ")).to_pandas()
        assert sorted(ded["n"].tolist()) == [1, 2]


class TestSparqlNegVar:
    """Unary minus on variables in FILTER arithmetic (decimal lane)."""

    XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"

    def _store(self):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = [
            new_triple(
                r(f"urn:e{i}"), r("urn:val"), l(str(v), datatype=self.XSD_INT)
            )
            for i, v in enumerate([-8, -3, 0, 3, 8])
        ]
        return DatasetGraphStore.from_triples("urn:g", trps)

    def test_leading_negvar_forms(self, ray_session):
        from ontograph_ray.store.sparql import sparql_select

        st = self._store()
        q = "SELECT ?e WHERE {{ ?e <urn:val> ?v . FILTER ( {f} ) }}"
        cases = [
            ("-?v > 2", ["<urn:e0>", "<urn:e1>"]),       # v < -2
            ("-?v = 3", ["<urn:e1>"]),                   # v = -3
            ("-?v + 10 >= 13", ["<urn:e0>", "<urn:e1>"]),  # v <= -3
        ]
        for f, want in cases:
            out = sparql_select(st, q.format(f=f)).to_pandas()
            assert sorted(out["e"]) == want, f

    def test_negvar_on_rhs_and_both_sides(self, ray_session):
        from ontograph_ray.store.sparql import sparql_select

        st = self._store()
        out = sparql_select(
            st,
            "SELECT ?e WHERE { ?e <urn:val> ?v . FILTER ( ?v - 1 > -?v ) }",
        ).to_pandas()
        assert sorted(out["e"]) == ["<urn:e3>", "<urn:e4>"]  # 2v > 1
        out = sparql_select(
            st,
            "SELECT ?e WHERE { ?e <urn:val> ?v . FILTER ( -?v >= -?v ) }",
        ).to_pandas()
        assert len(out) == 5  # tautology keeps every bound row


class TestSparqlCoalesceCmp:
    """Numeric comparisons over COALESCE (decimal-lane decode; bare
    numeric defaults become typed literals)."""

    XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"

    def _store(self):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = []
        for i, v in enumerate([5, -2, 10]):
            trps.append(
                new_triple(
                    r(f"urn:e{i}"), r("urn:val"),
                    l(str(v), datatype=self.XSD_INT),
                )
            )
        trps.append(
            new_triple(r("urn:e3"), r("urn:alt"), l("7", datatype=self.XSD_INT))
        )
        trps.append(new_triple(r("urn:e4"), r("urn:other"), l("x")))
        return DatasetGraphStore.from_triples("urn:g", trps)

    def test_two_var_coalesce_ge(self, ray_session):
        from ontograph_ray.store.sparql import sparql_select

        out = sparql_select(
            self._store(),
            "SELECT ?e WHERE { ?e ?p ?o . "
            "OPTIONAL { ?e <urn:val> ?v . } OPTIONAL { ?e <urn:alt> ?a . } "
            "FILTER ( COALESCE(?v, ?a) >= 6 ) }",
        ).to_pandas()
        assert sorted(set(out["e"])) == ["<urn:e2>", "<urn:e3>"]

    def test_numeric_default_and_type_error_drop(self, ray_session):
        from ontograph_ray.store.sparql import sparql_select

        st = self._store()
        out = sparql_select(
            st,
            "SELECT ?e WHERE { ?e ?p ?o . OPTIONAL { ?e <urn:val> ?v . } "
            "FILTER ( COALESCE(?v, 0) < 0 ) }",
        ).to_pandas()
        assert sorted(set(out["e"])) == ["<urn:e1>"]
        # decimal default + non-numeric coalesced term drops the row
        out2 = sparql_select(
            st,
            "SELECT ?e WHERE { ?e ?p ?o . OPTIONAL { ?e <urn:other> ?x . } "
            "FILTER ( COALESCE(?x, -0.5) < 0 ) }",
        ).to_pandas()
        # e4's ?x = plain literal "x" → type error → dropped; all
        # others coalesce to -0.5 → pass
        assert "<urn:e4>" not in set(out2["e"]) and len(set(out2["e"])) == 4


class TestSparqlExpressionLanguage:
    """FILTER, BIND and IF share one expression tree and one evaluator:
    a comparison reads both numeric lanes wherever it appears, and the
    compositions the one grammar admits answer per SPARQL 1.1 §17."""

    XSD = "http://www.w3.org/2001/XMLSchema#"

    def _store(self, trps):
        from ontograph_ray.store import DatasetGraphStore

        return DatasetGraphStore.from_triples("urn:g", trps)

    def _nums(self, *vals):
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        return self._store(
            [
                new_triple(r(f"urn:e{i}"), r("urn:v"), l(lex, datatype=self.XSD + dt))
                for i, (lex, dt) in enumerate(vals)
            ]
        )

    def _q(self, ds, text):
        from ontograph_ray.store.sparql import sparql_select

        return sparql_select(ds, text).to_pandas()

    # ?w is bound nowhere: the OPTIONAL leaves it unbound on every row
    _WHERE = "?e <urn:v> ?v . OPTIONAL { ?e <urn:w> ?w }"

    def _kept(self, ds, flt):
        out = self._q(ds, f"SELECT ?e WHERE {{ {self._WHERE} FILTER ( {flt} ) }}")
        return sorted(out["e"]) if len(out) else []

    def _bound(self, ds, expr):
        out = self._q(
            ds,
            f"SELECT ?e ?z WHERE {{ {self._WHERE} BIND ( {expr} AS ?z ) }} ORDER BY ?e",
        )
        return [None if z is None or z != z else z for z in out["z"]]

    def test_numeric_lanes_agree(self, ray_session):
        # the same comparison answers the same through every parse path:
        # a bare integer constant, a decimal constant, arithmetic, IF
        ds = self._nums(("3", "integer"), ("4.5", "decimal"), ("7", "integer"))
        for flt in ("?v < 5", "?v < 5.0", "?v + 0 < 5"):
            assert self._kept(ds, flt) == ["<urn:e0>", "<urn:e1>"], flt
        assert self._bound(ds, 'IF(?v < 5, "lo", "hi")') == ['"lo"', '"lo"', '"hi"']

    def test_signed_lexicals_on_the_decimal_lane(self, ray_session):
        # one optional sign, '+' meaning positive: "-+5" is no numeral
        ds = self._nums(
            ("-+5", "integer"), ("+5", "integer"), ("-5", "integer"), ("-4.5", "decimal")
        )
        assert self._kept(ds, "?v / 1 < 0") == ["<urn:e2>", "<urn:e3>"]
        dec = f"^^<{self.XSD}decimal>"
        assert self._bound(ds, "?v + 0.5") == [
            None, f'"5.5"{dec}', f'"-4.5"{dec}', f'"-4.0"{dec}'
        ]

    def test_integers_beyond_int64_are_errors(self, ray_session):
        # a valid xsd:integer outside int64 is outside the numeric lanes:
        # its row is a type error on both lanes, and no kernel raises
        ds = self._nums(("99999999999999999999", "integer"), ("3", "integer"))
        for flt in ("?v < 5.0", "?v / 1 > 0", "?v < 5", "COALESCE(?v, 0) < 5"):
            assert self._kept(ds, flt) == ["<urn:e1>"], flt
        assert self._bound(ds, "?v + 1") == [None, f'"4"^^<{self.XSD}integer>']

    def test_compositions_the_grammar_admits(self, ray_session):
        # each of these was refused before FILTER, BIND and IF shared one
        # grammar; the answers are the §17 ones
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        xi, xd = f"^^<{self.XSD}integer>", f"^^<{self.XSD}decimal>"
        ds = self._store(
            [
                new_triple(r("urn:e0"), r("urn:v"), l("3", datatype=self.XSD + "integer")),
                new_triple(r("urn:e1"), r("urn:v"), l("12", datatype=self.XSD + "integer")),
                new_triple(r("urn:e2"), r("urn:v"), l("2.5", datatype=self.XSD + "decimal")),
                new_triple(r("urn:e3"), r("urn:v"), l("a@b.org")),
                new_triple(r("urn:e4"), r("urn:v"), r("urn:x")),
            ]
        )
        kept = lambda f: self._kept(ds, f)  # noqa: E731
        # a constant on the left; = / != against an integer is numeric
        assert kept("5 < ?v") == ["<urn:e1>"]
        assert kept("?v = 3") == ["<urn:e0>"]
        # §17.3: a number and an IRI are RDFterm-unequal; a number and a
        # plain literal are a type error
        assert kept("?v != 3") == ["<urn:e1>", "<urn:e2>", "<urn:e4>"]
        assert kept('"a@b.org" = ?v') == ["<urn:e3>"]
        # arithmetic of any shape, precedence * over +, unary minus on
        # an expression, numeric builtins as operands anywhere
        assert kept("?v + 2 * 3 > 10") == ["<urn:e1>"]
        assert kept("(?v + 1) * 2 = 8") == ["<urn:e0>"]
        assert kept("-(?v - 4) > 0") == ["<urn:e0>", "<urn:e2>"]
        assert kept("1 + ABS(?v - 10) <= 3") == ["<urn:e1>"]
        assert kept("STRLEN(?v) > ?v") == ["<urn:e2>"]  # "2.5" has 3 chars
        # string builtins compared with a plain string; term builtins and
        # COALESCE compared by term identity, also with a variable
        assert kept('STRBEFORE(?v, "@") = "a"') == ["<urn:e3>"]
        assert kept('CONCAT(STR(?v), "!") = "urn:x!"') == ["<urn:e4>"]
        assert kept("DATATYPE(?v) = DATATYPE(?v) && COALESCE(?v, 0) = ?v") == [
            "<urn:e0>", "<urn:e1>", "<urn:e2>", "<urn:e3>"
        ]
        assert kept('COALESCE("k") = "k" && COALESCE(?w, "k") = "k"') == [
            "<urn:e0>", "<urn:e1>", "<urn:e2>", "<urn:e3>", "<urn:e4>"
        ]
        assert kept("COALESCE(?v, 0) = 12") == ["<urn:e1>"]
        # BIND: numbers, nested arithmetic and numeric builtins, unary
        # minus, COALESCE and IF over numbers, IF's numeric conditions
        bound = lambda x: self._bound(ds, x)  # noqa: E731
        assert bound("-2.50") == [f'"-2.50"{xd}'] * 5
        assert bound("ABS(?v - 10) + STRLEN(?v)") == [
            f'"8"{xi}', f'"4"{xi}', f'"10.5"{xd}', None, None
        ]
        assert bound("-?v") == [f'"-3"{xi}', f'"-12"{xi}', f'"-2.5"{xd}', None, None]
        assert bound("COALESCE(?w, 0)") == [f'"0"{xi}'] * 5
        assert bound("IF(?v > 2.5, 1, 0)") == [f'"1"{xi}', f'"1"{xi}', f'"0"{xi}', None, None]
        assert bound('IF(?v = 12, "x", "y")') == ['"y"', '"x"', '"y"', None, '"y"']
        assert bound('IF(?v > -4, "x", "y")') == ['"x"', '"x"', '"x"', None, None]

    def test_errors_are_errors(self, ray_session):
        # an accessor over an unbound variable, LCASE over an IRI and
        # DATATYPE over an IRI are §17 errors; DATATYPE of an untyped
        # literal is xsd:string / rdf:langString
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        ds = self._store(
            [
                new_triple(r("urn:p1"), r("urn:name"), l("ann")),
                new_triple(r("urn:p2"), r("urn:name"), r("urn:Ann")),
                new_triple(r("urn:p3"), r("urn:name"), l("bo", "en")),
                new_triple(r("urn:p1"), r("urn:knows"), r("urn:p2")),
            ]
        )
        base = "SELECT * WHERE { ?p <urn:name> ?n . OPTIONAL { ?p <urn:knows> ?q } "

        def ps(tail):
            out = self._q(ds, base + tail + " }")
            return sorted(out["p"]) if len(out) else []

        assert ps('FILTER ( STR(?q) = "" )') == []
        assert ps('FILTER ( !BOUND(?q) && ( STRLEN(?q) = 0 || STRSTARTS(?q, "") ) )') == []
        assert ps('FILTER ( LCASE(?n) = "urn:ann" )') == []
        assert ps(f"FILTER ( DATATYPE(?n) != <{self.XSD}integer> )") == [
            "<urn:p1>", "<urn:p3>"
        ]
        out = self._q(
            ds,
            base + "BIND ( STR(?q) AS ?x ) BIND ( DATATYPE(?n) AS ?d ) } ORDER BY ?p",
        )
        assert out["x"].isna().tolist() == [False, True, True]
        assert out["d"].tolist()[0] == f"<{self.XSD}string>"
        assert out["d"].isna().tolist()[1]
        assert out["d"].tolist()[2] == (
            "<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString>"
        )

    def test_lang_of_a_non_literal_is_an_error(self, ray_session):
        # LANG (§17.4.2.6) takes a literal: over an IRI it is an error,
        # so BIND leaves the variable unbound and FILTER drops the row;
        # an untagged literal's LANG is ""
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        ds = self._store(
            [
                new_triple(r("urn:p1"), r("urn:name"), l("ann")),
                new_triple(r("urn:p2"), r("urn:name"), r("urn:Ann")),
                new_triple(r("urn:p3"), r("urn:name"), l("bo", "en")),
            ]
        )
        base = "SELECT * WHERE { ?p <urn:name> ?n "
        out = self._q(ds, base + 'FILTER ( LANG(?n) = "" ) }')
        assert sorted(out["p"]) == ["<urn:p1>"]
        out = self._q(ds, base + "BIND ( LANG(?n) AS ?y ) } ORDER BY ?p")
        assert [None if y is None or y != y else y for y in out["y"]] == [
            '""', None, '"en"'
        ]


class TestSparqlSubqueryStar:
    """{ SELECT * } subquery bodies: projection derived statically."""

    def _store(self):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r = terms.new_resource_term
        trps = [
            new_triple(r("urn:c1"), r("urn:in"), r("urn:n1")),
            new_triple(r("urn:c2"), r("urn:in"), r("urn:n1")),
            new_triple(r("urn:c3"), r("urn:in"), r("urn:n2")),
            new_triple(r("urn:n1"), r("urn:part"), r("urn:r1")),
            new_triple(r("urn:n2"), r("urn:part"), r("urn:r2")),
        ]
        return DatasetGraphStore.from_triples("urn:g", trps)

    def test_star_body_joins(self, ray_session):
        from ontograph_ray.store.sparql import sparql_select

        out = (
            sparql_select(
                self._store(),
                "SELECT ?c ?n ?r WHERE { ?c <urn:in> ?n . "
                "{ SELECT * WHERE { ?n <urn:part> ?r . } } }",
            )
            .to_pandas()
            .sort_values("c")
            .reset_index(drop=True)
        )
        assert out["c"].tolist() == ["<urn:c1>", "<urn:c2>", "<urn:c3>"]
        assert out["r"].tolist() == ["<urn:r1>", "<urn:r1>", "<urn:r2>"]

    def test_star_body_with_bind_alias(self, ray_session):
        from ontograph_ray.store.sparql import sparql_select

        out = (
            sparql_select(
                self._store(),
                'SELECT ?c ?t WHERE { ?c <urn:in> ?n . '
                '{ SELECT * WHERE { ?n <urn:part> ?r . '
                'BIND ( STR(?n) AS ?t ) } } }',
            )
            .to_pandas()
            .sort_values("c")
            .reset_index(drop=True)
        )
        assert out["t"].tolist() == ['"urn:n1"', '"urn:n1"', '"urn:n2"']

    def test_unshared_star_subquery_refused(self, ray_session):
        import pytest
        from ontograph_ray.store.sparql import (
            SparqlUnsupportedError,
            sparql_select,
        )

        with pytest.raises(SparqlUnsupportedError, match="shares no"):
            sparql_select(
                self._store(),
                "SELECT ?c WHERE { ?c <urn:in> ?n . "
                "{ SELECT * WHERE { ?x <urn:part> ?r . } } }",
            )


class TestSparqlHaving:
    def _store(self):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        # group a: 3 members, b: 1 member
        trps = [
            new_triple(r(f"urn:e{i}"), r("urn:grp"), l(g))
            for i, g in enumerate(["a", "a", "a", "b"])
        ]
        return DatasetGraphStore.from_triples("urn:g", trps)

    def test_having_filters_groups(self, ray_session):
        from ontograph_ray.store.sparql import sparql_select

        out = sparql_select(
            self._store(),
            "SELECT ?g (COUNT(?e) AS ?n) WHERE { ?e <urn:grp> ?g . } "
            "GROUP BY ?g HAVING ( COUNT(?e) >= 2 )",
        ).to_pandas()
        assert out.values.tolist() == [['"a"', 3]]

    def test_having_errors(self, ray_session):
        import pytest
        from ontograph_ray.store.sparql import (
            SparqlSyntaxError,
            SparqlUnsupportedError,
            sparql_select,
        )

        ds = self._store()
        # HAVING aggregate not in SELECT
        with pytest.raises(SparqlUnsupportedError):
            sparql_select(
                ds,
                "SELECT ?g (COUNT(?e) AS ?n) WHERE { ?e <urn:grp> ?g . } "
                "GROUP BY ?g HAVING ( MIN(?e) > 1 )",
            )
        # HAVING without aggregates
        with pytest.raises(SparqlUnsupportedError):
            sparql_select(
                ds,
                "SELECT ?g WHERE { ?e <urn:grp> ?g . } HAVING ( COUNT(?e) > 1 )",
            )
        # non-integer bound
        with pytest.raises(SparqlSyntaxError):
            sparql_select(
                ds,
                "SELECT ?g (COUNT(?e) AS ?n) WHERE { ?e <urn:grp> ?g . } "
                'GROUP BY ?g HAVING ( COUNT(?e) > "x" )',
            )


class TestSparqlGroupConcat:
    def _store(self):
        from ontograph_ray.store import DatasetGraphStore
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = []
        for i, (g, v) in enumerate(
            [("a", "z"), ("a", "x"), ("a", "x"), ("b", "q")]
        ):
            trps.append(new_triple(r(f"urn:e{i}"), r("urn:grp"), l(g)))
            trps.append(new_triple(r(f"urn:e{i}"), r("urn:val"), l(v)))
        return DatasetGraphStore.from_triples("urn:g", trps)

    def test_sorted_bag_concat(self, ray_session):
        from ontograph_ray.store.sparql import sparql_select

        out = (
            sparql_select(
                self._store(),
                'SELECT ?g (GROUP_CONCAT(?v; SEPARATOR=",") AS ?c) WHERE '
                "{ ?e <urn:grp> ?g . ?e <urn:val> ?v . } GROUP BY ?g",
            )
            .to_pandas()
            .sort_values("g")
            .reset_index(drop=True)
        )
        # sorted within group, duplicates kept
        assert out.values.tolist() == [
            ['"a"', '"x","x","z"'],
            ['"b"', '"q"'],
        ]

    def test_default_separator_and_errors(self, ray_session):
        import pytest
        from ontograph_ray.store.sparql import (
            SparqlUnsupportedError,
            sparql_select,
        )

        out = sparql_select(
            self._store(),
            "SELECT ?g (GROUP_CONCAT(?v) AS ?c) WHERE "
            "{ ?e <urn:grp> ?g . ?e <urn:val> ?v . } GROUP BY ?g",
        ).to_pandas()
        assert '"q"' in out["c"].tolist()
        # no GROUP BY → refused (whole-corpus concat)
        with pytest.raises(SparqlUnsupportedError):
            sparql_select(
                self._store(),
                "SELECT (GROUP_CONCAT(?v) AS ?c) WHERE { ?e <urn:val> ?v . }",
            ).to_pandas()
        # mixing with other aggregates → refused
        with pytest.raises(SparqlUnsupportedError):
            sparql_select(
                self._store(),
                "SELECT ?g (GROUP_CONCAT(?v) AS ?c) (COUNT(*) AS ?n) WHERE "
                "{ ?e <urn:grp> ?g . ?e <urn:val> ?v . } GROUP BY ?g",
            ).to_pandas()



class TestSparqlAggregatePlan:
    """One aggregate plan (an Arrow partial/final kernel pair): the same
    answer at any block layout and block type, dictionary-encoded
    stores included; SUM/AVG read xsd:integer literals only."""

    XSD = "http://www.w3.org/2001/XMLSchema#"

    def _table(self, rows):
        from ontograph_ray import terms
        from ontograph_ray.triples import new_triple, triples_to_table

        r, l = terms.new_resource_term, terms.new_literal_term
        trps = []
        for i, (g, v, dt) in enumerate(rows):
            if g is not None:
                trps.append(new_triple(r(f"urn:e{i}"), r("urn:grp"), l(g)))
            trps.append(
                new_triple(r(f"urn:e{i}"), r("urn:val"), l(v, datatype=self.XSD + dt))
            )
        return triples_to_table(trps)

    @staticmethod
    def _layouts(t):
        """one Arrow block, many Arrow blocks, pandas blocks"""
        import ray.data

        from ontograph_ray.store import DatasetGraphStore

        n = max(t.num_rows, 1)
        return [
            DatasetGraphStore("urn:g", ds)
            for ds in (
                ray.data.from_arrow(t),
                ray.data.from_arrow([t.slice(i, 2) for i in range(0, n, 2)]),
                ray.data.from_pandas(
                    [t.slice(i, 3).to_pandas() for i in range(0, n, 3)]
                ),
            )
        ]

    @staticmethod
    def _rows(store, q):
        import pandas as pd

        from ontograph_ray.store.sparql import sparql_select

        df = sparql_select(store, q).to_pandas()
        return sorted(
            (tuple(None if pd.isna(x) else x for x in row) for row in df.values),
            key=repr,
        )

    def test_same_answer_at_every_layout(self, ray_session):
        i = lambda n: f'"{n}"^^<{self.XSD}integer>'
        # e4/e5 have no group: the null key is a group of its own
        t = self._table(
            [("a", "4", "integer"), ("a", "4", "integer"), ("a", "-1", "integer"),
             ("b", "7", "integer"), (None, "2", "integer"), (None, "3", "integer")]
        )
        where = "WHERE { ?e <urn:val> ?v . OPTIONAL { ?e <urn:grp> ?g } }"
        aggs = (
            "(COUNT(*) AS ?n) (COUNT(?v) AS ?c) (SUM(?v) AS ?s) "
            "(AVG(?v) AS ?a) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi)"
        )
        want = {
            f"SELECT ?g {aggs} {where} GROUP BY ?g": [
                ('"a"', 3, 3, 7, 7 / 3, i(-1), i(4)),
                ('"b"', 1, 1, 7, 7.0, i(7), i(7)),
                (None, 2, 2, 5, 2.5, i(2), i(3)),
            ],
            f"SELECT ?g (COUNT(DISTINCT ?v) AS ?d) {where} GROUP BY ?g": [
                ('"a"', 2), ('"b"', 1), (None, 2),
            ],
            f"SELECT ?g (SUM(DISTINCT ?v) AS ?d) {where} GROUP BY ?g": [
                ('"a"', 3), ('"b"', 7), (None, 5),
            ],
            f'SELECT ?g (GROUP_CONCAT(?v; SEPARATOR="|") AS ?l) {where} GROUP BY ?g': [
                ('"a"', f"{i(-1)}|{i(4)}|{i(4)}"), ('"b"', i(7)),
                (None, f"{i(2)}|{i(3)}"),
            ],
            f"SELECT {aggs} {where}": [(6, 6, 19, 19 / 6, i(-1), i(7))],
            f"SELECT (COUNT(DISTINCT ?v) AS ?d) {where}": [(5,)],
        }
        for store in self._layouts(t):
            for q, rows in want.items():
                assert self._rows(store, q) == sorted(rows, key=repr), q
        # whole-result aggregates over an empty store: COUNT and SUM are
        # 0, AVG/MIN/MAX unbound
        for store in self._layouts(self._table([])):
            assert self._rows(store, f"SELECT {aggs} {where}") == [
                (0, 0, 0, None, None, None)
            ]
            assert self._rows(
                store, f"SELECT (SUM(DISTINCT ?v) AS ?d) {where}"
            ) == [(0,)]

    def test_dictionary_encoded_store(self, ray_session):
        import pyarrow as pa

        from ontograph_ray.pipelines.kg import build_kg, decode_triples_batch
        from ontograph_ray.store import DatasetGraphStore

        from test_pipeline import SF

        enc = build_kg(SF).triples.materialize()
        dec = enc.map_batches(decode_triples_batch, batch_format="pyarrow")
        assert pa.types.is_dictionary(enc.schema().base_schema.field("object").type)
        for q in (
            "SELECT ?p (COUNT(*) AS ?n) (MIN(?o) AS ?lo) (MAX(?s) AS ?hi) "
            "WHERE { ?s ?p ?o } GROUP BY ?p",
            "SELECT ?p (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p",
            "SELECT (COUNT(?o) AS ?n) (MIN(?s) AS ?lo) (MAX(?o) AS ?hi) "
            "WHERE { ?s ?p ?o }",
        ):
            got = self._rows(DatasetGraphStore("urn:kg", enc), q)
            assert got == self._rows(DatasetGraphStore("urn:kg", dec), q), q
            assert got

    def test_signed_integer_lexicals(self, ray_session):
        t = self._table(
            [("a", "+5", "integer"), ("a", "3", "integer"), ("b", "+-5", "integer")]
        )
        store = DatasetGraphStore.from_table("urn:g", t)
        assert self._rows(
            store, "SELECT ?e WHERE { ?e <urn:val> ?v FILTER(?v > 4) }"
        ) == [("<urn:e0>",)]
        assert self._rows(
            store,
            "SELECT (SUM(?v) AS ?s) WHERE { ?e <urn:val> ?v . ?e <urn:grp> \"a\" }",
        ) == [(8,)]

    def test_sum_avg_read_integers_only(self, ray_session):
        # "12"^^xsd:string is not an integer, whatever its lexical says;
        # the kernel's ValueError reaches the caller inside Ray's task
        # error
        store = DatasetGraphStore.from_table(
            "urn:g", self._table([("a", "12", "string"), ("a", "3", "integer")])
        )
        for agg in ("SUM", "AVG"):
            for grouped in ("", "GROUP BY ?g"):
                with pytest.raises(
                    Exception, match="ValueError: SUM/AVG need xsd:integer"
                ):
                    self._rows(
                        store,
                        f"SELECT {'?g' if grouped else ''} ({agg}(?v) AS ?x) "
                        f"WHERE {{ ?e <urn:val> ?v . ?e <urn:grp> ?g }} {grouped}",
                    )


class TestCompaction:
    def test_compact_shrinks_files_preserves_triples(
        self, ray_session, tmp_path
    ):
        import os

        from ontograph_ray.store.versioned import VersionedGraphStorage
        from ontograph_ray.triples import Triple

        from test_store import G

        vs = VersionedGraphStorage(str(tmp_path / "g"), G)
        # ten tiny checked batches → a fragmented current version
        for i in range(10):
            vs.add_triples_unchecked(
                [Triple(f"<{G}#s{i}-{j}>", f"<{G}#p>", f'"{j}"')
                 for j in range(20)]
            )
        cur = vs.current_version()
        frag_dir = vs._version_dir(cur)
        frag_files = [f for f in os.listdir(frag_dir) if f.endswith(".parquet")]
        before = sorted(vs.load().get_all_matches())

        v2 = vs.compact(target_rows_per_file=1_000)
        comp_dir = vs._version_dir(v2)
        comp_files = [f for f in os.listdir(comp_dir) if f.endswith(".parquet")]
        assert len(comp_files) == 1  # 200 rows → one right-sized file
        assert len(comp_files) < len(frag_files) or len(frag_files) == 1
        assert vs.versions()[str(v2)]["op"] == "compact"
        assert sorted(vs.load().get_all_matches()) == before
        # old version still loadable until gc
        assert sorted(vs.load(cur).get_all_matches()) == before
        vs.gc(keep=1)
        assert not os.path.isdir(frag_dir)

    def test_compact_empty_raises(self, ray_session, tmp_path):
        import pytest

        from ontograph_ray.store.versioned import VersionedGraphStorage

        from test_store import G

        vs = VersionedGraphStorage(str(tmp_path / "g"), G)
        with pytest.raises(RuntimeError):
            vs.compact()


class TestGroupingSets:
    def test_counts_per_set_and_nulls(self, ray_session):
        import pandas as pd
        import ray.data

        from ontograph_ray.store.dataset import grouping_sets_count

        df = pd.DataFrame(
            {
                "a": ["x", "x", "y", "y", "y"],
                "b": ["1", "2", "1", "1", "2"],
            }
        )
        out = grouping_sets_count(
            ray.data.from_pandas(df).repartition(3),
            [["a", "b"], ["a"], []],
        ).to_pandas()
        # grand total: one row with both keys null
        gt = out[out["a"].isna() & out["b"].isna()]
        assert gt["n"].tolist() == [5]
        # per-a subtotals
        pa_ = out[out["a"].notna() & out["b"].isna()].sort_values("a")
        assert pa_.values.tolist() == [["x", None, 2], ["y", None, 3]]
        # finest level
        fine = out[out["b"].notna()].sort_values(["a", "b"])
        assert fine["n"].tolist() == [1, 1, 2, 1]
        assert len(out) == 1 + 2 + 4

    def test_duplicate_set_rejected(self, ray_session):
        import pandas as pd
        import ray.data

        from ontograph_ray.store.dataset import grouping_sets_count

        ds = ray.data.from_pandas(pd.DataFrame({"a": ["x"]}))
        with pytest.raises(ValueError):
            grouping_sets_count(ds, [["a"], ["a"]])
