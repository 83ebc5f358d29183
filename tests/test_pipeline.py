"""KG pipeline tests: byte-identical extraction, union-find,
checkpoint/resume, and exact-oracle equality of the full P1-P7 plan."""

import duckdb
import pyarrow.parquet as pq
import pytest

import ray
import ray.data

from ontograph_ray.pipelines import canonicalize, pages
from ontograph_ray.pipelines.kg import build_kg, kg_oracle_sql

SF = "/root/testdata/sf0.001"


class TestExtraction:
    def test_byte_identical_per_url(self, ray_session):
        """The per-row invariant: extract_text(html) == text for every
        page (golden-bytes check over the whole sf0.001 corpus)."""
        extracted = pages.read_pages(SF).map_batches(
            pages.extract_text_batch, batch_format="pyarrow"
        )
        got = {r["url"]: r["text"] for r in extracted.take_all()}
        docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        for doc_id, text in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
            url = f"{pages.URL_PREFIX}{doc_id}"
            assert got[url] == text, f"extraction not byte-identical for {url}"

    def test_escaping_roundtrip(self):
        tricky = 'a <b> & "c" &amp; <p>done</p>'
        import pyarrow as pa

        tbl = pa.table({"doc_id": [7], "text": [tricky], "lang": ["en"]})
        page = pages.synthesize_pages_batch(tbl)
        assert pages.extract_text(page["html"][0].as_py()) == tricky

    def test_html_is_boilerplate_wrapped(self):
        import pyarrow as pa

        tbl = pa.table({"doc_id": [1], "text": ["hello world"], "lang": ["en"]})
        html = pages.synthesize_pages_batch(tbl)["html"][0].as_py()
        assert html.startswith(b"<html>") and html.endswith(b"</html>")
        assert b"hello world" in html


class TestUnionFind:
    def test_chain_star_cycle(self, ray_session):
        edges = ray.data.from_items(
            [
                {"src": "b", "dst": "a"},
                {"src": "c", "dst": "b"},
                {"src": "d", "dst": "c"},
                {"src": "e", "dst": "f"},
                {"src": "g", "dst": "h"},
                {"src": "g", "dst": "i"},
                {"src": "g", "dst": "j"},
                {"src": "x", "dst": "y"},
                {"src": "y", "dst": "z"},
                {"src": "z", "dst": "x"},  # cycle
            ]
        ).repartition(3)
        out = canonicalize.connected_components(edges, num_buckets=4)
        got = sorted((r["node"], r["component"]) for r in out.take_all())
        assert got == [
            ("a", "a"), ("b", "a"), ("c", "a"), ("d", "a"),
            ("e", "e"), ("f", "e"),
            ("g", "g"), ("h", "g"), ("i", "g"), ("j", "g"),
            ("x", "x"), ("y", "x"), ("z", "x"),
        ]

    def test_skewed_hub(self, ray_session):
        # head entity with large fan-in — exercises the combiner path
        edges = ray.data.from_items(
            [{"src": "hub", "dst": f"n{i:03d}"} for i in range(200)]
        ).repartition(8)
        out = canonicalize.connected_components(edges, num_buckets=4)
        comps = {r["component"] for r in out.take_all()}
        assert comps == {"hub"}  # 'hub' < 'n000' lexicographically

    def _skewed_graph(self):
        # one head entity (star fan-out), a long chain (propagation
        # depth), a disjoint pair, plus duplicate edges (dedup must
        # stay global under salting)
        rows = [{"src": "hub", "dst": f"n{i:03d}"} for i in range(150)]
        rows += [{"src": f"c{i}", "dst": f"c{i+1}"} for i in range(6)]
        rows += [{"src": "q1", "dst": "q2"}] * 3
        rows += rows[:40]
        return ray.data.from_items(rows).repartition(7)

    def test_distributed_loop_matches_driver_path(self, ray_session):
        edges = self._skewed_graph()
        want = sorted(
            (r["node"], r["component"])
            for r in canonicalize.connected_components(
                edges, num_buckets=4
            ).take_all()
        )
        dist = sorted(
            (r["node"], r["component"])
            for r in canonicalize.connected_components(
                edges, num_buckets=4, small_threshold=0
            ).take_all()
        )
        assert dist == want
        assert {c for _, c in want} == {"c0", "hub", "q1"}

    def test_salted_loop_identical_output(self, ray_session):
        # north-rule skew handling: salt > 1 spreads the hub's edges
        # across salted buckets; output must be bucket-invariant
        edges = self._skewed_graph()
        want = sorted(
            (r["node"], r["component"])
            for r in canonicalize.connected_components(
                edges, num_buckets=4
            ).take_all()
        )
        for s in (2, 5):
            salted = sorted(
                (r["node"], r["component"])
                for r in canonicalize.connected_components(
                    edges, num_buckets=4, small_threshold=0, salt=s
                ).take_all()
            )
            assert salted == want, f"salt={s} diverged"

    def test_pointer_jumping_identical_output(self, ray_session):
        # the O(log d) pointer-jump rounds must not change the result —
        # chain + star + cycle, forced distributed, both plans
        edges = self._skewed_graph()
        base = sorted(
            (r["node"], r["component"])
            for r in canonicalize.connected_components(
                edges, num_buckets=4, small_threshold=0, jump=False
            ).take_all()
        )
        jumped = sorted(
            (r["node"], r["component"])
            for r in canonicalize.connected_components(
                edges, num_buckets=4, small_threshold=0, jump=True
            ).take_all()
        )
        assert jumped == base
        assert {c for _, c in base} == {"c0", "hub", "q1"}

    def test_pointer_jumping_long_chain(self, ray_session):
        # 40-deep chain: hash-min alone needs ~40 propagate rounds —
        # more than max_iters=25 — jumping converges well inside it
        edges = ray.data.from_items(
            [{"src": f"v{i:03d}", "dst": f"v{i+1:03d}"} for i in range(40)]
        ).repartition(5)
        out = canonicalize.connected_components(
            edges, num_buckets=4, small_threshold=0, max_iters=10
        )
        comps = {r["component"] for r in out.take_all()}
        assert comps == {"v000"}


class TestPagerank:
    @staticmethod
    def _pr_py(edges, iters=5, num=85, den=100):
        """Independent dict-based twin of pipelines.pagerank (integer
        fixed point, sink mass dropped)."""
        from ontograph_ray.pipelines.pagerank import SCALE

        edges = sorted(set(edges))
        outdeg = {}
        for u, _ in edges:
            outdeg[u] = outdeg.get(u, 0) + 1
        nodes = sorted({n for e in edges for n in e})
        base = (SCALE * (den - num)) // den
        r = {n: SCALE for n in nodes}
        for _ in range(iters):
            s = {n: 0 for n in nodes}
            for u, v in edges:
                s[v] += r[u] // outdeg[u]
            r = {n: base + (num * s[n]) // den for n in nodes}
        return r

    def test_matches_python_twin_and_partition_invariant(self, ray_session):
        from ontograph_ray.pipelines.pagerank import pagerank

        rng = __import__("random").Random(11)
        nodes = [f"n{i:02d}" for i in range(30)]
        edges = sorted(
            {
                (rng.choice(nodes), rng.choice(nodes))
                for _ in range(150)
            }
        )
        edges = [(u, v) for u, v in edges if u != v]
        edges += edges[:20]  # duplicates must be ignored
        want = self._pr_py(edges)
        for parts, thresh in ((2, 0), (9, 0), (5, 200_000)):
            # thresh=0 forces the distributed loop; the default takes
            # the driver cutover — all identical, at any partitioning
            ds = ray.data.from_items(
                [{"src": u, "dst": v} for u, v in edges]
            ).repartition(parts)
            got = {
                r["node"]: r["rank"]
                for r in pagerank(
                    ds, num_buckets=4, small_threshold=thresh
                ).take_all()
            }
            assert got == want, (parts, thresh)

    def test_sink_and_source_semantics(self, ray_session):
        from ontograph_ray.pipelines.pagerank import SCALE, pagerank

        # a → b → c: a has no inbound (pure base), c is a sink whose
        # mass is dropped (never redistributed)
        ds = ray.data.from_items(
            [{"src": "a", "dst": "b"}, {"src": "b", "dst": "c"}]
        )
        got = {r["node"]: r["rank"] for r in pagerank(ds, iters=3).take_all()}
        base = (SCALE * 15) // 100
        assert got["a"] == base
        assert got == self._pr_py(
            [("a", "b"), ("b", "c")], iters=3
        )
        assert got["c"] > got["b"] > got["a"]


class TestHits:
    @staticmethod
    def _hits_py(edges, iters=5):
        """Independent dict-based twin of pipelines.pagerank.hits
        (integer fixed point, max-quotient rescale)."""
        from ontograph_ray.pipelines.pagerank import SCALE

        edges = sorted(set(edges))
        nodes = sorted({n for e in edges for n in e})
        hub = {n: SCALE for n in nodes}
        auth = {n: 0 for n in nodes}
        for _ in range(iters):
            raw = {n: 0 for n in nodes}
            for u, v in edges:
                raw[v] += hub[u]
            q = max(1, max(raw.values()) // SCALE)
            auth = {n: raw[n] // q for n in nodes}
            raw = {n: 0 for n in nodes}
            for u, v in edges:
                raw[u] += auth[v]
            q = max(1, max(raw.values()) // SCALE)
            hub = {n: raw[n] // q for n in nodes}
        return {n: (hub[n], auth[n]) for n in nodes}

    def test_matches_python_twin_and_partition_invariant(self, ray_session):
        from ontograph_ray.pipelines.pagerank import hits

        rng = __import__("random").Random(23)
        # bipartite-leaning random graph: hubs point into a small
        # authority pool plus noise edges
        hubs = [f"h{i}" for i in range(8)]
        auths = [f"a{i}" for i in range(5)]
        edges = sorted(
            {(rng.choice(hubs), rng.choice(auths)) for _ in range(40)}
            | {(rng.choice(auths), rng.choice(hubs)) for _ in range(5)}
        )
        edges += edges[:10]  # duplicates must be ignored
        want = self._hits_py(edges)
        for parts, thresh in ((2, 0), (7, 0), (3, 200_000)):
            # thresh=0 forces the distributed loop; default = cutover
            ds = ray.data.from_items(
                [{"src": u, "dst": v} for u, v in edges]
            ).repartition(parts)
            got = {
                r["node"]: (r["hub"], r["auth"])
                for r in hits(ds, num_buckets=4, small_threshold=thresh).take_all()
            }
            assert got == want, (parts, thresh)

    def test_hub_authority_separation(self, ray_session):
        from ontograph_ray.pipelines.pagerank import SCALE, hits

        # h1 points at every authority; a1 is pointed at by everyone
        edges = [("h1", "a1"), ("h1", "a2"), ("h1", "a3"), ("h2", "a1")]
        ds = ray.data.from_items([{"src": u, "dst": v} for u, v in edges])
        got = {r["node"]: r for r in hits(ds, iters=3).take_all()}
        assert got["h1"]["hub"] > got["h2"]["hub"] > 0
        assert got["a1"]["auth"] > got["a2"]["auth"] > 0
        # pure hubs have zero authority and vice versa
        assert got["h1"]["auth"] == 0 and got["a1"]["hub"] == 0
        # max-quotient rescale keeps the top score near SCALE
        assert got["h1"]["hub"] >= SCALE // 2


class TestLabelPropagation:
    @staticmethod
    def _lpa_py(edges, iters=5):
        """Independent dict twin: synchronous LPA, most frequent
        neighbor label, min-label tie-break."""
        canon = sorted({(min(u, v), max(u, v)) for u, v in edges if u != v})
        nodes = sorted({n for e in canon for n in e})
        nbrs = {n: [] for n in nodes}
        for u, v in canon:
            nbrs[u].append(v)
            nbrs[v].append(u)
        lab = {n: n for n in nodes}
        for _ in range(iters):
            lab = {
                n: min(
                    (c := __import__("collections").Counter(
                        lab[m] for m in nbrs[n]
                    )),
                    key=lambda k: (-c[k], k),
                )
                for n in nodes
            }
        return lab

    def test_matches_python_twin_and_partition_invariant(self, ray_session):
        from ontograph_ray.pipelines.graphstats import label_propagation

        rng = __import__("random").Random(31)
        # two noisy communities plus a sparse bridge
        a = [f"a{i}" for i in range(7)]
        b = [f"b{i}" for i in range(7)]
        edges = sorted(
            {(rng.choice(a), rng.choice(a)) for _ in range(30)}
            | {(rng.choice(b), rng.choice(b)) for _ in range(30)}
            | {("a0", "b0")}
        )
        edges = [e for e in edges if e[0] != e[1]]
        edges += [(v, u) for u, v in edges[:8]]  # reversed dups ignored
        want = self._lpa_py(edges)
        for parts, thresh in ((2, 0), (5, 0), (3, 200_000)):
            ds = ray.data.from_items(
                [{"src": u, "dst": v} for u, v in edges]
            ).repartition(parts)
            got = {
                r["node"]: r["community"]
                for r in label_propagation(
                    ds, num_buckets=4, small_threshold=thresh
                ).take_all()
            }
            assert got == want, (parts, thresh)

    def test_two_cliques_get_two_communities(self, ray_session):
        from ontograph_ray.pipelines.graphstats import label_propagation

        a = [f"a{i}" for i in range(5)]
        b = [f"b{i}" for i in range(5)]
        edges = [(u, v) for i, u in enumerate(a) for v in a[i + 1:]]
        edges += [(u, v) for i, u in enumerate(b) for v in b[i + 1:]]
        edges.append(("a0", "b0"))
        ds = ray.data.from_items([{"src": u, "dst": v} for u, v in edges])
        got = {
            r["node"]: r["community"]
            for r in label_propagation(ds).take_all()
        }
        assert len({got[n] for n in a}) == 1
        assert len({got[n] for n in b}) == 1
        assert got["a1"] != got["b1"]


class TestPipeline:
    def test_matches_oracle_exactly(self, ray_session):
        res = build_kg(SF)
        got = {
            (r["subject"], r["predicate"], r["object"])
            for r in res.triples.take_all()
        }
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
        )
        want = set(map(tuple, con.execute(kg_oracle_sql()).fetchall()))
        assert got == want
        assert len(got) > 10_000

    def test_amplify_count_linearity(self, ray_session):
        """The benchmark amplification invariant: per-replica triple
        parts scale linearly with amplify while the entity/relation
        constant stays fixed — count(k) = c1 + (k-1)·(c2 - c1). A
        violation means duplicate leakage (e.g. block re-splitting
        breaking the fused per-page distinct) or dropped rows."""
        c1 = build_kg(SF, amplify=1).triples.count()
        c2 = build_kg(SF, amplify=2).triples.count()
        c3 = build_kg(SF, amplify=3).triples.count()
        assert c3 == c1 + 2 * (c2 - c1)

    def test_mention_chain_runs_one_task_per_extracted_block(self, ray_session):
        """The fused mention chain (_mentions_distinct_batch →
        mention_link_triples_batch → _rewrite_batch) runs one task per
        extracted block once blocks hold MENTION_TASK_MIN_PAGES pages,
        and bundles smaller blocks up to that. A larger bundle on any
        map of the chain packs several big blocks into one task, whose
        wall time then sets the build's; the triple count does not
        show it."""
        import re

        from ontograph_ray.pipelines.kg import MENTION_TASK_MIN_PAGES

        def plan(amplify):
            blocks = [
                len(b)
                for b in pages.read_pages(SF, amplify=amplify)
                .map_batches(pages.extract_text_batch, batch_format="pyarrow")
                .iter_batches(batch_format="pyarrow", batch_size=None)
            ]
            res = build_kg(SF, amplify=amplify)
            assert sum(
                b.num_rows
                for b in res.triples.iter_batches(batch_format="pyarrow", batch_size=None)
            )

            def operators(summary):
                yield from summary.operators_stats
                for parent in summary.parents:
                    yield from operators(parent)

            (chain,) = [
                op
                for op in operators(res.triples._get_stats_summary())
                if "_mentions_distinct_batch" in op.operator_name
            ]
            tasks = re.search(r"(\d+) tasks executed", chain.block_execution_summary_str)
            return blocks, int(tasks.group(1))

        blocks, tasks = plan(80)
        assert len(blocks) > 1 and min(blocks) >= MENTION_TASK_MIN_PAGES
        assert tasks == len(blocks)
        blocks, tasks = plan(1)
        assert len(blocks) > 1 and sum(blocks) < MENTION_TASK_MIN_PAGES
        assert tasks == 1

    def test_driver_small_cutover_is_logged(
        self, ray_session, monkeypatch, caplog
    ):
        """Both sides of DRIVER_SMALL_MAX build the same triples, and
        each logs the branch it took and reports it in its stats."""
        import logging

        from ontograph_ray.pipelines import kg

        def build():
            res = build_kg(SF)
            got = set(res.triples.to_pandas().itertuples(index=False))
            return got, res.stats

        caplog.set_level(logging.DEBUG, logger="ontograph_ray")
        small, small_stats = build()
        monkeypatch.setattr(kg, "DRIVER_SMALL_MAX", 0)
        dist, dist_stats = build()
        assert dist == small
        msgs = [
            r.getMessage() for r in caplog.records if r.name == "ontograph_ray"
        ]
        assert len(msgs) == 2
        assert msgs[0].startswith("build_kg: driver-small branch, ")
        assert msgs[0].endswith(" <= DRIVER_SMALL_MAX=2000000")
        assert msgs[1].startswith("build_kg: distributed branch, ")
        assert msgs[1].endswith(" > DRIVER_SMALL_MAX=0")
        # same entity/relation row count on both sides
        assert msgs[0].split()[3] == msgs[1].split()[3]
        n_er = int(msgs[0].split()[3])
        # the streaming partials count is pinned metadata, not None
        n_partials = small_stats["counters"]["ent_rel_partials"]["rows"]
        assert n_partials > n_er > 0
        assert dist_stats["counters"]["ent_rel_partials"]["rows"] == n_partials
        assert small_stats["ent_rel_cutover"] == {
            "partial_rows": n_partials,
            "distinct_rows": n_er,
            "branch": "driver-small",
            "distinct_in": "task",
        }
        assert dist_stats["ent_rel_cutover"] == {
            "partial_rows": n_partials,
            "distinct_rows": n_er,
            "branch": "distributed",
            "distinct_in": "exchange",
        }

    def test_fold_distinct_matches_one_group_by(self, ray_session):
        """Whatever batches the cap lets the fold make, it gives the
        one-``group_by`` distinct with nulls as keys; one row past the
        cap it gives up, without reading the blocks after that point;
        no rows give a typed empty table."""
        import pyarrow as pa

        from ontograph_ray.pipelines import kg

        cols = ["k", "v"]
        blocks = [
            pa.table(
                {
                    "k": [f"k{j % 5}" if j % 3 else None for j in range(i, i + 7)],
                    "v": [None if j % 4 == 0 else "x" for j in range(i, i + 7)],
                    "other": list(range(7)),
                }
            )
            for i in range(6)
        ] + [pa.table({"k": pa.array([], pa.string())})]
        refs = [ray.put(b) for b in blocks]
        want = set(
            pa.concat_tables([b.select(cols) for b in blocks[:-1]])
            .to_pandas()
            .itertuples(index=False)
        )
        n = len(want)
        assert any(None in row for row in want)

        def fold(cap, block_refs):
            n_ref, table_ref = kg._fold_distinct.remote(cols, cap, block_refs)
            return ray.get(n_ref), ray.get(table_ref)

        for cap in (n, n + 3, 2 * n, 10**6):
            got_n, table = fold(cap, refs)
            assert got_n == n == table.num_rows, cap
            assert set(table.to_pandas().itertuples(index=False)) == want, cap
        assert fold(n - 1, refs) == (None, None)

        @ray.remote
        def unreadable():
            raise RuntimeError("the fold read a block past the cap")

        # at cap 0 every block is folded as it comes, and the first
        # non-empty one passes the cap
        assert fold(0, [refs[0], unreadable.remote()]) == (None, None)
        got_n, table = fold(10**6, refs[-1:])
        assert got_n == 0
        assert table.schema == pa.schema([(c, pa.string()) for c in cols])
        assert fold(10**6, [])[0] == 0

    def test_ent_rel_fold_boundary(self, ray_session, monkeypatch, tmp_path):
        """DRIVER_SMALL_MAX at the distinct entity/relation count: the
        one-task fold finishes and no exchange runs; one below it: the
        fold stops, the exchange over the pinned partials and the
        distributed branch take over. Same triples every time, in
        streaming and checkpointed mode."""
        from ontograph_ray import triples as tr
        from ontograph_ray.pipelines import kg

        er_cols = ["kind", "surface", "lang", "src", "dst"]
        calls = []
        real_distinct_on = kg.distinct_on

        def counting_distinct_on(ds, cols, *args, **kwargs):
            calls.append(list(cols))
            return real_distinct_on(ds, cols, *args, **kwargs)

        def build(cap, ckpt):
            monkeypatch.setattr(kg, "DRIVER_SMALL_MAX", cap)
            calls.clear()
            res = build_kg(SF, checkpoint_dir=ckpt)
            df = res.triples.select_columns(tr.COLUMNS).to_pandas().astype(str)
            return set(df.itertuples(index=False)), res.stats["ent_rel_cutover"]

        want, first = build(kg.DRIVER_SMALL_MAX, None)
        n_er = first["distinct_rows"]
        monkeypatch.setattr(kg, "distinct_on", counting_distinct_on)
        for mode in ("streaming", "checkpointed"):
            url_check = [["url"]] if mode == "checkpointed" else []
            for cap, branch, where, exchanges in (
                (n_er, "driver-small", "task", []),
                (n_er - 1, "distributed", "exchange", [er_cols, tr.COLUMNS]),
            ):
                ckpt = str(tmp_path / f"{cap}") if mode == "checkpointed" else None
                got, cut = build(cap, ckpt)
                assert got == want, (mode, cap)
                assert cut == {**first, "branch": branch, "distinct_in": where}
                assert calls == url_check + exchanges, (mode, cap)

    def test_corpus_without_gazetteer_hit(self, ray_session, tmp_path):
        """No page mentions a gazetteer word, and one page is empty with
        a null lang: the fold gets no rows, and its empty table must
        still be typed, or the checkpointed write of the distinct
        stage fails. Only the page triples come out, two per page."""
        import pyarrow as pa

        from ontograph_ray import constants as C
        from ontograph_ray.pipelines import kg

        sf = tmp_path / "sf_nohit"
        sf.mkdir()
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([1, 2, 3], pa.int64()),
                    "text": ["hello world", "", "nothing here"],
                    "lang": ["en", None, "de"],
                    "source": ["s", "s", "s"],
                    "n_chars": pa.array([11, 0, 12], pa.int64()),
                }
            ),
            sf / "documents.parquet",
        )
        for ckpt in (None, str(tmp_path / "ckpt")):
            res = build_kg(str(sf), checkpoint_dir=ckpt)
            df = res.triples.select_columns(["predicate"]).to_pandas()
            assert len(df) == 6, ckpt
            assert set(df["predicate"].astype(str)) == {
                f"<{C.RDF_TYPE}>",
                f"<{kg.IN_LANGUAGE_PROP}>",
            }
            cut = res.stats["ent_rel_cutover"]
            assert (cut["partial_rows"], cut["distinct_rows"]) == (0, 0)

    def test_checkpoint_resume_no_recompute(self, ray_session, tmp_path):
        ckpt = str(tmp_path / "run1")
        res1 = build_kg(SF, checkpoint_dir=ckpt)
        n1 = res1.triples.count()
        assert all(not c["resumed"] for c in res1.stats["counters"].values())

        res2 = build_kg(SF, checkpoint_dir=ckpt)
        n2 = res2.triples.count()
        assert n1 == n2
        assert all(c["resumed"] for c in res2.stats["counters"].values()), res2.stats

    def test_checkpoint_partial_failure_recomputes_only_lost_stage(
        self, ray_session, tmp_path
    ):
        """Kill-between-stages semantics: wipe ONE stage's checkpoint
        (as if the job died mid-write and its tmp dir was discarded);
        the re-run must recompute exactly that stage, resume every
        other from its manifest, and produce the identical result."""
        import shutil

        ckpt = str(tmp_path / "run1")
        n1 = build_kg(SF, checkpoint_dir=ckpt).triples.count()
        shutil.rmtree(f"{ckpt}/stage=triples")

        res = build_kg(SF, checkpoint_dir=ckpt)
        n2 = res.triples.count()
        assert n1 == n2
        c = res.stats["counters"]
        assert not c["triples"]["resumed"]
        for name, counters in c.items():
            if name != "triples":
                assert counters["resumed"], (name, counters)

    def test_outputs_written(self, ray_session, tmp_path):
        out = str(tmp_path / "out")
        build_kg(SF, out_dir=out)
        import os

        nt_files = os.listdir(f"{out}/ntriples")
        pq_files = os.listdir(f"{out}/parquet")
        assert any(f.endswith(".nt") for f in nt_files)
        assert any(f.endswith(".parquet") for f in pq_files)


class TestEncodedTriples:
    def test_encoded_equals_plain(self, ray_session):
        """The dictionary-encoded fast path is a pure representation
        change: decoded triple SET identical to the plain full-dedup
        path (unique_urls=False, equal as a set on unique-url input),
        and the default path's schema is dictionary-encoded (the
        compact blocks actually happen)."""
        from ontograph_ray.pipelines.kg import decode_triples_batch
        import pyarrow as pa_

        enc_ds = build_kg(SF).triples
        assert all(
            pa_.types.is_dictionary(f.type) for f in enc_ds.schema().base_schema
        )
        enc = {
            (r["subject"], r["predicate"], r["object"])
            for r in enc_ds.map_batches(
                decode_triples_batch, batch_format="pyarrow"
            ).take_all()
        }
        plain_ds = build_kg(SF, unique_urls=False).triples
        assert not any(
            pa_.types.is_dictionary(f.type) for f in plain_ds.schema().base_schema
        )
        plain = {
            (r["subject"], r["predicate"], r["object"])
            for r in plain_ds.take_all()
        }
        assert enc == plain


class TestUniqueUrlsContract:
    """The dedup-pushdown boundary contract: duplicate urls (normal in
    crawl-shaped WARC input) must either fail fast (checkpointed runs
    verify the claim) or take the full-dedup path (unique_urls=False),
    never silently emit duplicate triples."""

    def _dup_sf(self, tmp_path, n=20):
        import pyarrow as pa

        base = pq.read_table(f"{SF}/documents.parquet").slice(0, n)
        dup = pa.concat_tables([base, base.slice(0, 3)])
        sf = tmp_path / "sf_dup"
        sf.mkdir()
        pq.write_table(dup, sf / "documents.parquet")
        base_sf = tmp_path / "sf_base"
        base_sf.mkdir()
        pq.write_table(base, base_sf / "documents.parquet")
        return str(sf), str(base_sf)

    def test_checkpointed_run_fails_fast_on_duplicate_urls(
        self, ray_session, tmp_path
    ):
        sf, _ = self._dup_sf(tmp_path)
        with pytest.raises(ValueError, match="duplicate url"):
            build_kg(sf, checkpoint_dir=str(tmp_path / "ckpt"))

    def test_full_dedup_path_restores_set_semantics(
        self, ray_session, tmp_path
    ):
        sf, base_sf = self._dup_sf(tmp_path)
        got = build_kg(sf, unique_urls=False).triples.to_pandas()
        # default path emits dictionary-encoded columns (pandas
        # categorical); normalize dtypes for the strict .equals compare
        want = build_kg(base_sf).triples.to_pandas().astype(str)
        key = ["subject", "predicate", "object"]
        got_s = got.sort_values(key).reset_index(drop=True)
        want_s = want.sort_values(key).reset_index(drop=True)
        assert not got_s.duplicated().any()
        assert got_s.equals(want_s)


def test_kg_path_imports_no_stage_module():
    """build_kg, the stores, SPARQL and the ontology layer, including
    canonicalize's distributed bucket routing, load no
    ``ontograph_ray.stages`` module (a fresh interpreter, so nothing
    else in the test session has imported one first)."""
    import os
    import subprocess
    import sys

    probe = (
        "import sys\n"
        "import numpy as np\n"
        "import ontograph_ray.pipelines, ontograph_ray.store.sparql\n"
        "import ontograph_ray.ontology.query\n"
        "from ontograph_ray.pipelines import canonicalize\n"
        "h = np.arange(8, dtype=np.uint64)\n"
        "canonicalize._home(h, 4)\n"
        "canonicalize._salted(h, 1, 4)\n"
        "print(sorted(m for m in sys.modules if m.startswith('ontograph_ray.stages')))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=root, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]", out.stdout
