"""Training-data stage tests: text analysis, the dedup family, ANN,
sketches, windows, corpus export and the lossless image codecs."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data

from ontograph_ray.stages import ann, dedup, image_codecs, text

SF = "/root/testdata/sf0.001"


@pytest.fixture
def docs(ray_session):
    return ray.data.read_parquet(f"{SF}/documents.parquet")


@pytest.fixture
def embs(ray_session):
    return ray.data.read_parquet(f"{SF}/embeddings.parquet")


class TestText:
    def test_token_stats(self, docs):
        out = text.token_stats(docs).take(5)
        for r in out:
            assert r["n_tokens"] == len(r["text"].split(" "))
            assert r["n_chars_computed"] == len(r["text"])

    def test_byte_entropy_exact_vs_plain(self, ray_session):
        # the micro-nat integer contract: engine (driver-quantized LOG
        # table + vectorized bincount) == plain-Python Counter twin,
        # bit for bit — including empty, unicode and repetitive docs
        import math
        from collections import Counter

        docs_list = [
            "aaaa", "abcd", "", "hello world", "aab" * 200,
            "héllo wörld ünïcode", "\x00\xff mixed bytes",
        ]
        ds = ray.data.from_items(
            [{"doc_id": i, "text": t} for i, t in enumerate(docs_list)]
        )
        out = {r["doc_id"]: r for r in text.byte_entropy_stats(ds).take_all()}
        scale = 1_000_000

        def log_u(k):
            return round(math.log(k) * scale) if k else 0

        for i, s in enumerate(docs_list):
            b = s.encode()
            L = len(b)
            c = Counter(b)
            want = (
                sum(v * (log_u(L) - log_u(v)) for v in c.values()) // L
                if L
                else 0
            )
            r = out[i]
            assert r["n_bytes"] == L
            assert r["distinct_bytes"] == len(c)
            assert r["entropy_micro_nats"] == want
        # uniform-content doc: entropy 0; 'abcd': exactly ln(4) micro
        assert out[0]["entropy_micro_nats"] == 0
        assert out[1]["entropy_micro_nats"] == round(math.log(4) * scale)

    def test_quality_score_bounds(self, docs):
        out = text.quality_score(docs).take_all()
        for r in out:
            assert 0.0 <= r["quality"] <= 1.0
            assert 0.0 <= r["stopword_ratio"] <= 1.0

    def test_lang_id_deterministic(self, ray_session):
        ds = ray.data.from_items(
            [
                {"doc_id": 0, "text": "the cat and the dog is fast"},
                {"doc_id": 1, "text": "der hund und die katze ist da"},
                {"doc_id": 2, "text": "xyzzy plugh"},
            ]
        )
        out = {r["doc_id"]: r["pred_lang"] for r in text.lang_id(ds).take_all()}
        assert out[0] == "en"
        assert out[1] == "de"
        assert out[2] == "und"

    def test_fingerprint_equal_texts(self, ray_session):
        ds = ray.data.from_items(
            [
                {"doc_id": 0, "text": "same text"},
                {"doc_id": 1, "text": "same text"},
                {"doc_id": 2, "text": "different"},
            ]
        )
        out = {r["doc_id"]: r["fingerprint"] for r in text.fingerprint(ds).take_all()}
        assert out[0] == out[1] != out[2]


def _dup_corpus(ray_session_unused=None):
    base = (
        "alpha beta gamma delta epsilon zeta eta theta iota kappa "
        "lambda mu nu xi omicron pi rho sigma tau upsilon"
    )
    rows = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base},  # exact dup of 0
        {"doc_id": 2, "text": base.replace("gamma", "gamma2")},  # near dup
        {"doc_id": 3, "text": "completely unrelated content about weather patterns"},
        {"doc_id": 4, "text": "totally distinct corpus entry regarding music theory"},
    ]
    return ray.data.from_items(rows)


class TestDedup:
    def test_exact_dedup(self, ray_session):
        ds = _dup_corpus()
        out = dedup.exact_dedup(ds, num_buckets=4)
        kept = sorted(r["doc_id"] for r in out.take_all())
        assert kept == [0, 2, 3, 4]  # doc 1 (exact dup, larger id) dropped

    def test_minhash_dedup_drops_near_dups(self, ray_session):
        ds = _dup_corpus()
        out = dedup.minhash_dedup(ds, threshold=0.7, num_buckets=4)
        kept = sorted(r["doc_id"] for r in out.take_all())
        assert 0 in kept  # representative survives
        assert 1 not in kept  # exact dup dropped
        assert 2 not in kept  # near dup dropped
        assert 3 in kept and 4 in kept

    def test_jaccard_exact(self):
        a = dedup._shingles("abcdefg", 3)
        assert dedup.jaccard(a, a) == 1.0
        b = dedup._shingles("zzzzzzz", 3)
        assert dedup.jaccard(a, b) < 0.2

    def test_vectorized_shingles_pin_crc32(self):
        """The numpy sliding-window shingle kernel must emit the exact
        crc32 value set of the per-window reference implementation it
        replaced (before/after equality pin)."""
        import zlib

        def reference(text, k):
            if len(text) < k:
                return {zlib.crc32(text.encode())} if text else set()
            data = text.encode()
            return {zlib.crc32(data[i : i + k]) for i in range(len(data) - k + 1)}

        for t in ["", "ab", "abcdefg", "hello world hello",
                  "übermäßig groß ärger", "the quick brown fox " * 7]:
            for k in (3, 5):
                assert set(dedup._shingles(t, k).tolist()) == reference(t, k)

    def test_batch_simhash_pins_per_doc_kernel(self):
        """The batch-vectorized SimHash (Arrow tokenize + table-driven
        crc32 + reduceat votes) must equal the per-doc reference kernel
        bit-for-bit, including empty text and multi-byte UTF-8 (where
        codepoint reversal ≠ byte reversal)."""
        h = dedup.SimHasher()
        texts = ["", "one", "one two three", "the quick brown fox",
                 "übermäßig groß", "x " * 50, "a b a b a"]
        got = h.batch_simhash(pa.array(texts, pa.string()))
        for t, v in zip(texts, got):
            assert h.simhash(t) == int(v)

    def test_simhash_near_dup_pairs(self, ray_session):
        ds = _dup_corpus()
        pairs = dedup.simhash_near_dup_pairs(ds, max_hamming=3, num_buckets=4)
        got = {(r["src_id"], r["dst_id"]) for r in pairs.take_all()}
        assert (0, 1) in got  # identical docs: hamming 0
        assert all(s < d for s, d in got)

    def test_ngram_jaccard_pairs(self, ray_session):
        ds = _dup_corpus()
        pairs = dedup.ngram_jaccard_pairs(ds, threshold=0.7)
        got = {(r["src_id"], r["dst_id"]): r["jaccard"] for r in pairs.take_all()}
        assert got[(0, 1)] == 1.0
        assert (0, 2) in got

    def test_verify_pairs_join_path_matches_small_path(self, ray_session):
        """The distributed hash-join verify branch must emit exactly
        the same verified pairs as the small member-broadcast branch
        (small_max_members=0 forces the join path)."""
        ds = _dup_corpus().materialize()
        sigs = dedup.minhash_signatures(ds, concurrency=(1, 2))
        cands = dedup.lsh_candidate_pairs(sigs, mode="clique")
        small = (
            dedup.verify_pairs(cands, ds, threshold=0.5)
            .to_pandas()
            .sort_values(["src_id", "dst_id"])
            .reset_index(drop=True)
        )
        joined = (
            dedup.verify_pairs(cands, ds, threshold=0.5, small_max_members=0)
            .to_pandas()
            .sort_values(["src_id", "dst_id"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            small[["src_id", "dst_id", "jaccard"]],
            joined[["src_id", "dst_id", "jaccard"]],
            check_dtype=False,
        )
        assert len(small) > 0


class TestANN:
    def test_brute_force_topk_matches_numpy(self, embs):
        rows = embs.take(8)
        qids = [r["vec_id"] for r in rows[:3]]
        qvecs = np.asarray([r["embedding"] for r in rows[:3]], dtype=np.float32)
        df = ann.brute_force_topk(embs, qids, qvecs, k=5)
        # query vector must be its own best match with score ≈ 1
        for qid in qids:
            top = df[df["query_id"] == qid].iloc[0]
            assert top["vec_id"] == qid
            assert top["score"] > 0.999
        assert (df.groupby("query_id").size() == 5).all()

    def test_ivf_topk_recall(self, embs):
        rows = embs.take(4)
        qids = [r["vec_id"] for r in rows]
        qvecs = np.asarray([r["embedding"] for r in rows], dtype=np.float32)
        exact = ann.brute_force_topk(embs, qids, qvecs, k=5)
        approx = ann.ivf_topk(embs, qids, qvecs, k=5, n_clusters=8, nprobe=4)
        # recall@5 of the approximate index should be decent with nprobe=half
        recall = 0
        for qid in qids:
            e = set(exact[exact["query_id"] == qid]["vec_id"])
            a = set(approx[approx["query_id"] == qid]["vec_id"])
            recall += len(e & a) / len(e)
        assert recall / len(qids) >= 0.5

    def test_ivfpq_topk_recall_and_layout_invariance(self, embs):
        rows = embs.take(4)
        qids = [r["vec_id"] for r in rows]
        qvecs = np.asarray([r["embedding"] for r in rows], dtype=np.float64)
        exact = ann.brute_force_topk(embs, qids, qvecs, k=5)
        a = ann.ivfpq_topk(
            embs, qids, qvecs, k=5, n_clusters=8, nprobe=4, rerank=40
        ).reset_index(drop=True)
        b = ann.ivfpq_topk(
            embs.repartition(7), qids, qvecs, k=5, n_clusters=8, nprobe=4,
            rerank=40,
        ).reset_index(drop=True)
        # the integer determinism chain: bit-identical at any layout
        assert a.equals(b)
        # a query vector in the corpus must rank itself first (its own
        # bucket is always probed; its PQ distance to itself is minimal
        # within its codes' cell, and the exact re-rank fixes the rest)
        for qid in qids:
            assert a[a["query_id"] == qid].iloc[0]["vec_id"] == qid
        recall = 0
        for qid in qids:
            e = set(exact[exact["query_id"] == qid]["vec_id"])
            g = set(a[a["query_id"] == qid]["vec_id"])
            recall += len(e & g) / len(e)
        assert recall / len(qids) >= 0.5

    def test_hard_negatives_excludes_same_label(self, embs):
        rows = embs.take(3)
        qids = [r["vec_id"] for r in rows]
        qvecs = np.asarray([r["embedding"] for r in rows], dtype=np.float64)
        qlabs = [r["label"] for r in rows]
        df = ann.hard_negatives(embs, qids, qvecs, qlabs, k=5)
        labs = {r["vec_id"]: r["label"] for r in embs.take_all()}
        for qid, qlab in zip(qids, qlabs):
            got = df[df["query_id"] == qid]
            assert len(got) == 5
            # never the query itself, never its label
            assert qid not in set(got["vec_id"])
            assert all(labs[v] != qlab for v in got["vec_id"])
        # per query: the top hard negative is the most-similar
        # different-label vector (spot check vs brute force)
        full = ann.brute_force_topk(embs, qids, qvecs, k=100)
        for qid, qlab in zip(qids, qlabs):
            f = full[full["query_id"] == qid]
            first_other = next(
                v for v in f["vec_id"] if labs[v] != qlab
            )
            assert df[df["query_id"] == qid].iloc[0]["vec_id"] == first_other

    def test_negative_samples_properties(self, ray_session):
        from ontograph_ray.stages.export import negative_samples

        ds = ray.data.range(200)

        def rn(b):
            import pyarrow as _pa

            return b.rename_columns(["doc_id"])

        docs = ds.map_batches(rn, batch_format="pyarrow")
        out = negative_samples(docs, n_total=200, k=3, seed=9).take_all()
        assert len(out) == 200 * 3
        for r in out:
            assert 0 <= r["neg_id"] < 200
            assert r["neg_id"] != r["doc_id"]  # self-collisions bumped
        # deterministic across layouts
        out2 = negative_samples(
            docs.repartition(7), n_total=200, k=3, seed=9
        ).take_all()
        key = lambda r: (r["doc_id"], r["j"])
        assert sorted(
            (r["doc_id"], r["j"], r["neg_id"]) for r in out
        ) == sorted((r["doc_id"], r["j"], r["neg_id"]) for r in out2)

    def test_self_similarity_identity(self, ray_session):
        vecs = [
            {"vec_id": 0, "embedding": [1.0, 0.0, 0.0]},
            {"vec_id": 1, "embedding": [1.0, 0.001, 0.0]},
            {"vec_id": 2, "embedding": [0.0, 1.0, 0.0]},
        ]
        ds = ray.data.from_items(vecs)
        pairs = ann.self_similarity_pairs(ds, threshold=0.99)
        got = {(r["src_id"], r["dst_id"]) for r in pairs.take_all()}
        assert got == {(0, 1)}

    def test_self_similarity_coherent_blocks_exact(self, embs):
        """Cluster-coherent re-blocking is pruning-only: with a tiny
        target_block_rows (forcing the coherent path: n > 4·target and
        many block pairs) the pair set must equal the read-order plan's
        AND a brute-force numpy ground truth."""
        t = 0.4
        base = {
            (r["src_id"], r["dst_id"])
            for r in ann.self_similarity_pairs(
                embs, threshold=t, coherent_blocks=False
            ).take_all()
        }
        coh = {
            (r["src_id"], r["dst_id"])
            for r in ann.self_similarity_pairs(
                embs, threshold=t, target_block_rows=100
            ).take_all()
        }
        assert coh == base
        rows = embs.take_all()
        ids = np.asarray([r["vec_id"] for r in rows])
        m = np.asarray([r["embedding"] for r in rows], dtype=np.float64)
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        sims = m @ m.T
        i, j = np.nonzero(sims >= t)
        brute = {
            (min(a, b), max(a, b))
            for a, b in zip(ids[i], ids[j])
            if a != b
        }
        assert coh == brute

    def test_self_similarity_scope_guard(self, ray_session):
        """The exact all-pairs op refuses corpora above max_rows with a
        pointer to the approximate paths; raising the bound (or passing
        None) re-admits the same corpus with identical output."""
        vecs = [
            {"vec_id": i, "embedding": [1.0, float(i % 3), 0.0]} for i in range(8)
        ]
        ds = ray.data.from_items(vecs)
        with pytest.raises(ValueError, match="max_rows=4 .*O\\(n²\\)|max_rows"):
            ann.self_similarity_pairs(ds, threshold=0.99, max_rows=4)
        bounded = {
            (r["src_id"], r["dst_id"])
            for r in ann.self_similarity_pairs(ds, threshold=0.99).take_all()
        }
        unbounded = {
            (r["src_id"], r["dst_id"])
            for r in ann.self_similarity_pairs(
                ds, threshold=0.99, max_rows=None
            ).take_all()
        }
        assert bounded == unbounded


class TestPngCodec:
    def test_png_gray_lossless_roundtrip(self):
        # PNG is lossless: decoded pixels must equal the synthesized
        # content EXACTLY.
        for i in range(10):
            w, h = 16 + (i % 8) * 4, 16 + (i % 5) * 4
            payload = image_codecs.encode_png_gray(w, h, 5000 + i)
            img = image_codecs.decode_png_gray(payload)
            want = image_codecs._image_pixels(w, h, 5000 + i).reshape(h, w)
            assert img.shape == (h, w)
            assert np.array_equal(img, want)

    def test_png_color_lossless_roundtrip(self):
        for i in range(10):
            w, h = 16 + (i % 8) * 4, 16 + (i % 5) * 4
            payload = image_codecs.encode_png_color(w, h, 6000 + i)
            img = image_codecs.decode_png_color(payload)
            want = np.moveaxis(image_codecs._rgb_pixels(w, h, 6000 + i), 0, -1)
            assert img.shape == (h, w, 3)
            assert np.array_equal(img, want)

    def test_png_container_structure(self):
        payload = image_codecs.encode_png_gray(24, 16, 7)
        assert payload[:8] == b"\x89PNG\r\n\x1a\n"
        assert payload[12:16] == b"IHDR"
        assert payload[-8:-4] == b"IEND"
        # 16 rows → filter types 0..4 all present (y % 5 cycling)
        import struct as _s
        import zlib as _z

        (ihdr_len,) = _s.unpack(">I", payload[8:12])
        pos = 8 + 12 + ihdr_len
        idat = bytearray()
        while pos + 12 <= len(payload):
            (length,) = _s.unpack(">I", payload[pos : pos + 4])
            if payload[pos + 4 : pos + 8] == b"IDAT":
                idat.extend(payload[pos + 8 : pos + 8 + length])
            pos += 12 + length
        raw = _z.decompress(bytes(idat))
        fts = {raw[y * (1 + 24)] for y in range(16)}
        assert fts == {0, 1, 2, 3, 4}

    def test_png_decode_refusals(self):
        payload = image_codecs.encode_png_gray(16, 16, 1)
        with pytest.raises(ValueError, match="signature"):
            image_codecs.decode_png_gray(b"\x00" + payload)
        # flip a byte inside IDAT → chunk CRC must catch it
        bad = bytearray(payload)
        bad[40] ^= 0xFF
        with pytest.raises(ValueError, match="CRC"):
            image_codecs.decode_png_gray(bytes(bad))
        # typed channel-count mismatch between the two wrappers
        color = image_codecs.encode_png_color(16, 16, 1)
        with pytest.raises(ValueError, match="grayscale"):
            image_codecs.decode_png_gray(color)
        with pytest.raises(ValueError, match="truecolor"):
            image_codecs.decode_png_color(payload)

class TestGifCodec:
    def test_gif_lossless_roundtrip(self):
        # gray-ramp palette → index == value → lossless
        for i in range(10):
            w, h = 16 + (i % 8) * 4, 16 + (i % 5) * 4
            payload = image_codecs.encode_gif_gray(w, h, 7000 + i)
            img = image_codecs.decode_gif_gray(payload)
            want = image_codecs._image_pixels(w, h, 7000 + i).reshape(h, w)
            assert np.array_equal(img, want)

    def test_lzw_boundary_alignments(self):
        # sweep stream lengths across the 9→10-bit table boundary and
        # the final-code/EOI widen edge (a 1-in-256 alignment)
        import random

        rng = random.Random(11)
        for n in list(range(240, 280)) + [rng.randrange(1, 3000) for _ in range(60)]:
            data = bytes(rng.randrange(256) for _ in range(n))
            enc = image_codecs._gif_lzw_encode(data)
            assert image_codecs._gif_lzw_decode(enc) == data, n

    def test_gif_container_structure(self):
        payload = image_codecs.encode_gif_gray(20, 16, 3)
        assert payload[:6] == b"GIF87a"
        assert payload[-1:] == b"\x3b"  # trailer
        assert payload[13 + 3 * 128 : 13 + 3 * 128 + 3] == bytes((128,) * 3)

    def test_gif_decode_refusals(self):
        payload = image_codecs.encode_gif_gray(16, 16, 1)
        with pytest.raises(ValueError, match="signature"):
            image_codecs.decode_gif_gray(b"\x00" + payload)
        # non-gray palette → typed refusal
        bad = bytearray(payload)
        bad[13] ^= 0xFF  # palette[0].r
        with pytest.raises(ValueError, match="gray-ramp"):
            image_codecs.decode_gif_gray(bytes(bad))


class TestGopherRules:
    def test_all_rules_fire(self, ray_session):
        import ray as _ray

        good = "the cat sat with all of its friends and that was fine " * 6
        docs = pd.DataFrame(
            {
                "doc_id": list(range(6)),
                "text": [
                    good,  # passes everything
                    "short doc with the and of",  # < 50 words
                    "a " * 60 + "the of",  # mean word length < 3
                    "# " * 30 + good,  # symbol ratio > 0.1
                    "\n".join(["- item the of and"] * 10),  # all bullets
                    ("the end of a line..." + "\n") * 10 + "x",  # ellipses
                ],
            }
        )
        out = (
            text.gopher_rules(_ray.data.from_pandas(docs))
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        assert out.loc[0, "keep"] == 1
        assert out.loc[1, "f_words"] == 0
        assert out.loc[2, "f_mwl"] == 0
        assert out.loc[3, "f_sym"] == 0
        assert out.loc[4, "f_bullet"] == 0
        assert out.loc[5, "f_ell"] == 0
        assert (out.loc[1:, "keep"] == 0).all()

    def test_alpha_and_stopword_rules(self, ray_session):
        import ray as _ray

        docs = pd.DataFrame(
            {
                "doc_id": [0, 1],
                "text": [
                    # >20% numeric tokens -> f_alpha fails
                    ("1 2 3 4 5 6 7 8 9 10 11 12 " + "the of and word ") * 5,
                    # only one distinct stop word -> f_stop fails
                    "the word " * 30,
                ],
            }
        )
        out = (
            text.gopher_rules(_ray.data.from_pandas(docs))
            .to_pandas()
            .set_index("doc_id")
        )
        assert out.loc[0, "f_alpha"] == 0
        assert out.loc[1, "f_stop"] == 0 and out.loc[1, "f_alpha"] == 1


class TestUrlCanonicalize:
    def test_rules(self, ray_session):
        import ray as _ray

        from ontograph_ray.stages.scrub import canonicalize_urls, url_dedup

        df = pd.DataFrame(
            {
                "doc_id": range(6),
                "url": [
                    "HTTP://WWW.Example.COM:80/Path/?utm_source=x&b=2&a=1&gclid=z#frag",
                    "https://example.com:443/a/b/",
                    "https://example.com:8443/a",  # non-default port kept
                    "http://example.com/",  # root slash kept
                    "http://example.com/x?ref=tw&z=9&y=8",
                    "http://example.com/x?a=1&a=0",  # dup keys sorted whole
                ],
            }
        )
        out = canonicalize_urls(_ray.data.from_pandas(df)).to_pandas()
        assert out["url_canon"].tolist() == [
            "http://www.example.com/Path?a=1&b=2",
            "https://example.com/a/b",
            "https://example.com:8443/a",
            "http://example.com/",
            "http://example.com/x?y=8&z=9",
            "http://example.com/x?a=0&a=1",
        ]
        # dedup: two spellings of one canonical URL collapse to min id
        dd = pd.DataFrame(
            {
                "doc_id": [3, 7, 5],
                "url": [
                    "http://A.com/x?utm_c=1&k=2",
                    "HTTP://a.COM:80/x/?k=2#z",
                    "http://a.com/y",
                ],
            }
        )
        got = {
            r["url_canon"]: (r["keep_doc"], r["n_dups"])
            for r in url_dedup(_ray.data.from_pandas(dd)).take_all()
        }
        assert got["http://a.com/x?k=2"] == (3, 2)
        assert got["http://a.com/y"] == (5, 1)


class TestNgramLmScores:
    def test_hand_computed(self, ray_session):
        import math

        import ray as _ray

        docs = pd.DataFrame(
            {
                "doc_id": [0, 1, 2, 3],
                "text": [
                    "the cat sat",      # reference
                    "the cat",          # seen bigram
                    "the zebra",        # unseen bigram, known w1
                    "qq zz one",        # unknown w1s + empty-ish
                ],
                "lang": ["en", "en", "fr", "fr"],
            }
        )
        out = (
            text.ngram_lm_scores(_ray.data.from_pandas(docs))
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        # reference slice = docs 0,1 → bigrams: (the,cat)×2, (cat,sat)×1
        # c1: the=2, cat=1; vocab={the,cat,sat} → V=3
        s = 1_000_000
        c_the_cat = round((math.log(2 + 3) - math.log(2 + 1)) * s)
        c_cat_sat = round((math.log(1 + 3) - math.log(1 + 1)) * s)
        c_the_unseen = round(math.log(2 + 3) * s)
        c_unknown = round(math.log(3) * s)
        assert out.loc[0, "lm_cost_micro"] == c_the_cat + c_cat_sat
        assert out.loc[1, "lm_cost_micro"] == c_the_cat
        assert out.loc[2, "lm_cost_micro"] == c_the_unseen
        assert out.loc[3, "lm_cost_micro"] == 2 * c_unknown
        assert out["n_bigrams"].tolist() == [2, 1, 1, 2]
        assert out.loc[0, "xent_micro"] == (c_the_cat + c_cat_sat) // 2
        assert out["is_ref"].tolist() == [1, 1, 0, 0]
        # reference text scores lower per-token than off-reference
        assert out.loc[0, "xent_micro"] < out.loc[3, "xent_micro"]

    def test_single_token_doc_scores_zero(self, ray_session):
        import ray as _ray

        docs = pd.DataFrame(
            {
                "doc_id": [0, 1],
                "text": ["a b a b", "solo"],
                "lang": ["en", "en"],
            }
        )
        out = (
            text.ngram_lm_scores(_ray.data.from_pandas(docs))
            .to_pandas()
            .set_index("doc_id")
        )
        assert out.loc[1, "n_bigrams"] == 0
        assert out.loc[1, "lm_cost_micro"] == 0
        assert out.loc[1, "xent_micro"] == 0

    def test_vocab_guard(self, ray_session):
        import ray as _ray

        docs = pd.DataFrame(
            {
                "doc_id": [0],
                "text": ["a b c d e f"],
                "lang": ["en"],
            }
        )
        with pytest.raises(ValueError, match="max_vocab"):
            text.ngram_lm_scores(_ray.data.from_pandas(docs), max_vocab=2)


class TestDsirScores:
    def test_hand_computed(self, ray_session):
        import ray as _ray

        docs = pd.DataFrame(
            {
                "doc_id": [0, 1, 2],
                "text": ["cat dog", "cat cat", "bird"],
                "lang": ["en", "fr", "en"],
            }
        )
        out = (
            text.dsir_scores(_ray.data.from_pandas(docs))
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        # counts: cat ct=1 cs=2 -> w=(2)*10000//3=6666; dog ct=1 cs=0
        # -> 20000//1=20000; bird ct=1 cs=0 -> 20000
        assert out.loc[0, "dsir_score"] == 6666 + 20000
        assert out.loc[1, "dsir_score"] == 2 * 6666
        assert out.loc[2, "dsir_score"] == 20000
        assert out["is_target"].tolist() == [1, 0, 1]

    def test_vocab_guard(self, ray_session):
        import ray as _ray

        docs = pd.DataFrame(
            {
                "doc_id": [0, 1],
                "text": ["a b c d", "e f"],
                "lang": ["en", "fr"],
            }
        )
        with pytest.raises(ValueError, match="max_vocab"):
            text.dsir_scores(
                _ray.data.from_pandas(docs), max_vocab=3
            ).materialize()


class TestC4LineFilter:
    def test_rules(self, ray_session):
        import ray as _ray

        keep_line = "this line has enough words to survive the filter."
        docs = pd.DataFrame(
            {
                "doc_id": [0, 1, 2, 3, 4],
                "text": [
                    "\n".join([keep_line] * 4),  # survives
                    # dropped lines: no terminal punct / too short / js
                    "\n".join(
                        [keep_line] * 3
                        + [
                            "no terminal punctuation here at all",
                            "too short.",
                            "please enable javascript to continue reading.",
                        ]
                    ),
                    "\n".join([keep_line] * 2),  # < 3 kept lines
                    "\n".join([keep_line] * 4) + "\nLorem Ipsum dolor.",  # doc drop
                    "\n".join([keep_line] * 4) + "\n{ brace }",  # doc drop
                ],
            }
        )
        out = (
            text.c4_line_filter(_ray.data.from_pandas(docs))
            .to_pandas()
            .set_index("doc_id")
        )
        assert sorted(out.index) == [0, 1]
        assert out.loc[0, "n_kept"] == 4 and out.loc[0, "n_lines"] == 4
        # doc 1: the three bad lines are all filtered
        assert out.loc[1, "n_kept"] == 3 and out.loc[1, "n_lines"] == 6
        assert out.loc[1, "text"] == "\n".join([keep_line] * 3)

    def test_quote_terminal_and_whitespace(self, ray_session):
        import ray as _ray

        docs = pd.DataFrame(
            {
                "doc_id": [0],
                "text": "\n".join(
                    [
                        'he said the words were "exactly like this one."',
                        "trailing whitespace after punctuation still counts.   ",
                        "and a question with enough words works too?",
                    ]
                ),
            },
            index=[0],
        )
        out = text.c4_line_filter(_ray.data.from_pandas(docs)).to_pandas()
        assert len(out) == 1 and out.loc[0, "n_kept"] == 3


class TestWinnowing:
    K, W = 5, 4

    def _twin(self, text: str):
        # inline plain-Python twin (Horner form, rightmost-min)
        mask, P = (1 << 64) - 1, 1099511628211
        b = text.encode("utf-8")
        if len(b) < self.K:
            return set()
        h = []
        for i in range(len(b) - self.K + 1):
            cur = 0
            for j in range(self.K):
                cur = (cur * P + b[i + j]) & mask
            h.append(cur)
        ww = min(self.W, len(h))
        sel = set()
        for s in range(len(h) - ww + 1):
            win = h[s : s + ww]
            sel.add(s + ww - 1 - win[::-1].index(min(win)))
        return {(p, h[p]) for p in sel}

    def test_matches_plain_python_twin(self, ray_session):
        from ontograph_ray.stages.text import winnow_fingerprints

        rng = np.random.default_rng(3)
        texts = [
            "".join(chr(97 + c) for c in rng.integers(0, 4, n))
            for n in (0, 3, 5, 6, 30, 200)
        ]
        df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
        out = winnow_fingerprints(
            ray.data.from_pandas(df).repartition(2), k=self.K, w=self.W
        ).take_all()
        got: dict = {}
        for r in out:
            got.setdefault(r["doc_id"], set()).add((r["pos"], r["fp"]))
        for i, t in enumerate(texts):
            assert got.get(i, set()) == self._twin(t), f"doc {i}"

    def test_shared_pairs_bruteforce(self, ray_session):
        from ontograph_ray.stages.text import winnow_shared_pairs

        rng = np.random.default_rng(5)
        base = "".join(chr(97 + c) for c in rng.integers(0, 6, 120))
        texts = [
            base,                       # 0: original
            base[:60] + "XX" + base[62:],  # 1: two bytes changed
            base[40:100],               # 2: a passage of the original
            "".join(chr(97 + c) for c in rng.integers(0, 6, 120)),  # 3: unrelated
        ]
        df = pd.DataFrame({"doc_id": range(4), "text": texts})
        out = winnow_shared_pairs(
            ray.data.from_pandas(df).repartition(2),
            k=self.K,
            w=self.W,
            max_df=10,
            min_shared=2,
        ).to_pandas()
        got = {
            (a, b): s
            for a, b, s in zip(out["doc_a"], out["doc_b"], out["shared"])
        }
        # brute force from the twin
        sets = {i: {fp for _, fp in self._twin(t)} for i, t in enumerate(texts)}
        from collections import Counter

        df_count = Counter(fp for s in sets.values() for fp in s)
        want = {}
        for a in range(4):
            for b in range(a + 1, 4):
                shared = sum(
                    1
                    for fp in sets[a] & sets[b]
                    if 2 <= df_count[fp] <= 10
                )
                if shared >= 2:
                    want[(a, b)] = shared
        assert got == want
        assert (0, 1) in got and (0, 2) in got  # near-dup + passage found

    def test_shared_substring_guarantee(self, ray_session):
        from ontograph_ray.stages.text import winnow_fingerprints

        # any shared substring of length >= w+k-1 must yield a shared
        # fingerprint VALUE between the two docs (positions may differ)
        shared = "zqxjkvbwpy"  # length 10 >= 4+5-1
        df = pd.DataFrame(
            {
                "doc_id": [1, 2],
                "text": ["aaaa" + shared + "bbbb", "cccccc" + shared + "dd"],
            }
        )
        out = winnow_fingerprints(
            ray.data.from_pandas(df), k=self.K, w=self.W
        ).take_all()
        fps1 = {r["fp"] for r in out if r["doc_id"] == 1}
        fps2 = {r["fp"] for r in out if r["doc_id"] == 2}
        assert fps1 & fps2


class TestHllGrouped:
    def test_accuracy_and_layout_invariance(self, ray_session):
        from ontograph_ray.stages.sketch import hll_grouped

        rng = np.random.default_rng(3)
        rows = []
        truth = {"a": 400, "b": 50, "c": 3}
        for g, n in truth.items():
            ids = rng.choice(n * 10, size=n, replace=False)
            for u in ids:
                for _ in range(rng.integers(1, 4)):  # repeats collapse
                    rows.append({"g": g, "u": int(u)})
        ds = ray.data.from_items(rows)
        a = {
            r["g"]: r["est"]
            for r in hll_grouped(ds, "g", "u", p=10, num_buckets=4).take_all()
        }
        b = {
            r["g"]: r["est"]
            for r in hll_grouped(
                ds.repartition(7), "g", "u", p=10, num_buckets=4
            ).take_all()
        }
        assert a == b  # max-merge is order-invariant
        for g, n in truth.items():
            # p=10 → ~3.3% stderr; generous 5σ bound, exact-ish small n
            assert abs(a[g] - n) <= max(3, int(0.2 * n)), (g, a[g], n)


class TestSketch:
    def test_kmv_accuracy_and_determinism(self, ray_session):
        """KMV estimate within the k-MV error envelope of the exact
        distinct count, and identical across runs (no RNG)."""
        import numpy as np
        import pandas as pd
        import ray.data

        from ontograph_ray.stages.sketch import kmv_distinct_count

        n_distinct = 20_000
        rng = np.random.RandomState(7)
        vals = rng.randint(0, n_distinct, size=60_000)  # ~exact distinct ≈ 19.0k
        df = pd.DataFrame({"v": [f"val-{x}" for x in vals]})
        exact = df["v"].nunique()
        ds = ray.data.from_pandas(df).repartition(8)
        est1 = kmv_distinct_count(ds, "v", k=1024)
        est2 = kmv_distinct_count(ds, "v", k=1024)
        assert est1 == est2
        assert abs(est1 - exact) / exact < 0.10

    def test_kmv_exact_below_k(self, ray_session):
        import pandas as pd
        import ray.data

        from ontograph_ray.stages.sketch import kmv_distinct_count

        ds = ray.data.from_pandas(pd.DataFrame({"v": ["a", "b", "c", "a", "b"]}))
        assert kmv_distinct_count(ds, "v", k=64) == 3

    def test_hll_accuracy_and_partition_invariance(self, ray_session):
        """HLL estimate within the 1.04/√m envelope (with margin) of
        the exact distinct count, and bit-identical across different
        block layouts (max-merge is order-invariant)."""
        import numpy as np
        import pandas as pd
        import ray.data

        from ontograph_ray.stages.sketch import hll_distinct_count

        n_distinct = 20_000
        rng = np.random.RandomState(11)
        vals = rng.randint(0, n_distinct, size=60_000)
        df = pd.DataFrame({"v": [f"val-{x}" for x in vals]})
        exact = df["v"].nunique()
        est8 = hll_distinct_count(ray.data.from_pandas(df).repartition(8), "v", p=10)
        est2 = hll_distinct_count(ray.data.from_pandas(df).repartition(2), "v", p=10)
        assert est8 == est2  # partition invariance
        assert abs(est8 - exact) / exact < 0.10  # ~3σ of 1.04/√1024

    def test_hll_small_range_linear_counting(self, ray_session):
        """Tiny cardinalities hit the linear-counting branch and are
        near-exact (every distinct value fills its own register)."""
        import pandas as pd
        import ray.data

        from ontograph_ray.stages.sketch import hll_distinct_count

        ds = ray.data.from_pandas(
            pd.DataFrame({"v": ["a", "b", "c", "a", "b", "d"]})
        )
        assert hll_distinct_count(ds, "v", p=10) == 4

    def test_clz64_matches_bit_length(self):
        import numpy as np

        from ontograph_ray.stages.sketch import _clz64

        xs = np.array(
            [1, 2, 3, 2**63, 2**63 + 1, 2**32, 2**32 - 1, 5, 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )
        got = _clz64(xs)
        want = [64 - int(x).bit_length() for x in xs]
        assert [int(g) for g in got] == want

    def test_quantile_sketch_rank_error_and_merge_invariance(self, ray_session):
        """The k-min-hash sample quantile is within the sampling rank
        error of the exact quantile, and — the property KLL/t-digest
        lack — the output is bit-identical at any partitioning."""
        import numpy as np
        import pandas as pd
        import ray.data

        from ontograph_ray.stages.sketch import quantile_sketch

        n, k = 30_000, 1024
        rng = np.random.RandomState(3)
        vals = (rng.lognormal(6.0, 1.0, size=n) * 100).astype("int64")  # skewed
        df = pd.DataFrame({"rid": np.arange(n, dtype="int64"), "v": vals})
        qs = {"p25": 0.25, "p50": 0.5, "p90": 0.9, "p99": 0.99}
        outs = []
        for parts in (3, 17):
            ds = ray.data.from_pandas(df).repartition(parts)
            out = quantile_sketch(ds, "v", "rid", qs, k=k)
            outs.append(out.sort_values("q_name").reset_index(drop=True))
        pd.testing.assert_frame_equal(outs[0], outs[1])
        # rank error: |rank(value)/n − q| ≤ 4·sqrt(q(1−q)/k) (4σ)
        srt = np.sort(vals)
        for _, row in outs[0].iterrows():
            q = row["q"]
            rank = np.searchsorted(srt, row["value"], side="right") / n
            bound = 4 * np.sqrt(q * (1 - q) / k)
            assert abs(rank - q) <= bound, (row["q_name"], rank, q, bound)

    def test_quantile_sketch_exact_below_k(self, ray_session):
        """≤ k rows → the sample is the whole column: quantile_disc
        exact (element at ceil(q·n)−1)."""
        import pandas as pd
        import ray.data

        from ontograph_ray.stages.sketch import quantile_sketch

        df = pd.DataFrame({"rid": range(10), "v": [10 * i for i in range(10)]})
        ds = ray.data.from_pandas(df).repartition(4)
        out = quantile_sketch(ds, "v", "rid", {"p50": 0.5, "p99": 0.99}, k=64)
        got = dict(zip(out["q_name"], out["value"]))
        assert got == {"p50": 40, "p99": 90}


class TestWindows:
    """Hopping/tumbling window operators (stages.windows)."""

    def test_hopping_matches_pandas_reference(self, ray_session):
        from ontograph_ray.stages.windows import hopping_window_agg

        rng = np.random.RandomState(3)
        n = 5000
        df = pd.DataFrame(
            {
                "k": rng.randint(0, 20, size=n),
                "ts": pd.to_datetime(
                    rng.randint(0, 10 * 3600, size=n), unit="s"
                ),
                "v": rng.randn(n),
            }
        )
        size_us, hop_us = 3600 * 1_000_000, 1800 * 1_000_000
        ds = ray.data.from_pandas([df.iloc[: n // 2], df.iloc[n // 2 :]])
        got = (
            hopping_window_agg(ds, "k", "ts", "v", size_us, hop_us, num_buckets=8)
            .to_pandas()
            .sort_values(["k", "win"])
            .reset_index(drop=True)
        )
        # reference: explode each event into its 2 windows, then agg
        ref = df.copy()
        ref["cell"] = ref["ts"].astype("datetime64[us]").astype("int64") // hop_us
        exp = pd.concat(
            [ref.assign(win=ref["cell"]), ref.assign(win=ref["cell"] - 1)],
            ignore_index=True,
        )
        want = (
            exp.groupby(["k", "win"])["v"]
            .agg(n_events="count", min_value="min", max_value="max")
            .reset_index()
            .astype({"n_events": "int64", "win": "int64"})
            .sort_values(["k", "win"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[["k", "win", "n_events", "min_value", "max_value"]], want
        )

    def test_tumbling_is_hopping_with_equal_hop(self, ray_session):
        from ontograph_ray.stages.windows import tumbling_window_agg

        df = pd.DataFrame(
            {
                "k": [1, 1, 1],
                "ts": pd.to_datetime([10, 3590, 3610], unit="s"),
                "v": [1.0, 2.0, 3.0],
            }
        )
        got = (
            tumbling_window_agg(
                ray.data.from_pandas(df), "k", "ts", "v", 3600 * 1_000_000
            )
            .to_pandas()
            .sort_values("win")
            .reset_index(drop=True)
        )
        assert got["win"].tolist() == [0, 1]
        assert got["n_events"].tolist() == [2, 1]


class TestWarc:
    def test_warc_roundtrip(self, ray_session, tmp_path):
        from datetime import datetime

        from ontograph_ray.sources.warc import read_warc, write_warc_file

        recs = [
            {
                "url": f"https://example.org/p{i}",
                "ts": datetime(2024, 1, 1, 0, 0, i),
                "html": f"<html><body>page {i}</body></html>".encode(),
            }
            for i in range(5)
        ]
        plain = str(tmp_path / "a.warc")
        gz = str(tmp_path / "b.warc.gz")
        write_warc_file(plain, recs[:3])
        write_warc_file(gz, recs[3:])
        got = (
            read_warc([plain, gz])
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )
        assert got["url"].tolist() == [r["url"] for r in recs]
        assert got["html"].tolist() == [r["html"] for r in recs]
        assert got["warc_ts"].tolist() == [pd.Timestamp(r["ts"]) for r in recs]

    def test_warc_skips_non_response_records(self, ray_session, tmp_path):
        from ontograph_ray.sources.warc import _parse_warc_bytes

        # hand-built warcinfo + response record stream
        info = b"WARC/1.0\r\nWARC-Type: warcinfo\r\nContent-Length: 4\r\n\r\nabcd\r\n\r\n"
        http = b"HTTP/1.1 200 OK\r\n\r\n<html>x</html>"
        resp = (
            b"WARC/1.0\r\nWARC-Type: response\r\n"
            b"WARC-Target-URI: https://e.org/\r\n"
            b"WARC-Date: 2024-06-01T12:00:00Z\r\n"
            + f"Content-Length: {len(http)}\r\n\r\n".encode()
            + http
            + b"\r\n\r\n"
        )
        urls, stamps, bodies = _parse_warc_bytes(info + resp)
        assert urls == ["https://e.org/"]
        assert bodies == [b"<html>x</html>"]


class TestCliqueCap:
    def test_clique_cap_degrades_to_star(self, ray_session):
        """An LSH bucket bigger than clique_cap must emit linear
        star+chain edges, not k²/2 pairs (scale guard for template
        corpora)."""
        docs = pd.DataFrame(
            {"doc_id": range(40), "text": ["identical boilerplate text here"] * 40}
        )
        ds = ray.data.from_pandas(docs)
        sigs = dedup.minhash_signatures(ds, concurrency=(1, 2))
        capped = dedup.lsh_candidate_pairs(
            sigs, mode="clique", clique_cap=10
        ).to_pandas()
        full = dedup.lsh_candidate_pairs(
            sigs, mode="clique", clique_cap=2048
        ).to_pandas()
        # identical docs → one bucket per band; capped = 39 star edges
        # + 38 chain edges, uncapped = 40*39/2 clique pairs
        assert len(capped.drop_duplicates()) == 39 + 38
        assert len(full.drop_duplicates()) == 40 * 39 // 2

    def test_star_mode_chain_edges_recover_failed_anchor(self, ray_session):
        """ADVICE regression: members B,C of a bucket whose anchor A
        fails exact-Jaccard verification must still merge when
        J(B,C) ≥ threshold — the chain edge B→C carries the merge."""
        base = "the quick brown fox jumps over the lazy dog " * 6
        b = base + "alpha beta gamma"
        c = base + "alpha beta gamme"
        # A shares enough shingles to share LSH buckets (8 of 16 bands
        # with both B and C) but fails the high exact threshold; B and
        # C are mutual near-dups.
        a = base + "alpha beta zzz qqq"
        thr = 0.9
        assert dedup.jaccard(dedup._shingles(b, 5), dedup._shingles(c, 5)) >= thr
        assert dedup.jaccard(dedup._shingles(a, 5), dedup._shingles(b, 5)) < thr
        assert dedup.jaccard(dedup._shingles(a, 5), dedup._shingles(c, 5)) < thr
        ds = ray.data.from_pandas(
            pd.DataFrame({"doc_id": [0, 1, 2], "text": [a, b, c]})
        )
        out = dedup.minhash_dedup(ds, threshold=thr, num_buckets=4)
        survivors = set(out.to_pandas()["doc_id"])
        # A survives (no verified edge); exactly one of B/C survives
        assert 0 in survivors
        assert len(survivors & {1, 2}) == 1


class TestRegistryInvariants:
    """Stronger-than-rows-only checks for the registry queries the
    driver can't oracle with SQL: each invariant recomputes ground
    truth independently of the pipeline under test."""

    SF = "/root/testdata/sf0.001"

    def test_kmv_registry_error_bound(self, ray_session):
        from ontograph_ray.queries import q_kmv_distinct

        est = int(q_kmv_distinct(self.SF)["estimated_distinct_texts"].iloc[0])
        exact = (
            ray.data.read_parquet(f"{self.SF}/documents.parquet")
            .to_pandas()["text"]
            .nunique()
        )
        # k=256 → relative std ≈ 1/√256 ≈ 6.25%; 20% is a >3σ bound
        assert abs(est - exact) / exact < 0.20

    def test_lang_id_registry_domain_and_determinism(self, ray_session):
        """The synthetic corpus draws every language's text from the
        SAME vocabulary (verified: lang is statistically independent
        of text), so accuracy against the lang column is not a
        meaningful target here — TestText covers discrimination on
        genuinely language-distinct sentences. The registry invariant
        is: total coverage, a closed prediction domain, and exact
        determinism across runs."""
        from ontograph_ray.queries import q_lang_id
        from ontograph_ray.stages.text import LANG_PROFILES

        pred = q_lang_id(self.SF).to_pandas().sort_values("doc_id")
        truth = ray.data.read_parquet(f"{self.SF}/documents.parquet").to_pandas()
        assert len(pred) == len(truth)
        allowed = set(LANG_PROFILES) | {"und"}
        assert set(pred["pred_lang"]) <= allowed
        again = q_lang_id(self.SF).to_pandas().sort_values("doc_id")
        pd.testing.assert_frame_equal(
            pred.reset_index(drop=True), again.reset_index(drop=True)
        )

    def test_minhash_dedup_registry_losers_are_near_dups(self, ray_session):
        from ontograph_ray.queries import q_minhash_dedup
        from ontograph_ray.stages.dedup import _shingles, jaccard

        docs = ray.data.read_parquet(f"{self.SF}/documents.parquet").to_pandas()
        survivors = set(q_minhash_dedup(self.SF).to_pandas()["doc_id"])
        all_ids = set(docs["doc_id"])
        losers = all_ids - survivors
        assert survivors <= all_ids and survivors
        texts = dict(zip(docs["doc_id"], docs["text"]))
        sh = {d: _shingles(texts[d], 5) for d in all_ids}
        # every dropped doc was dropped because a verified ≥0.85 exact
        # Jaccard edge connected it into a cluster — so it must have a
        # true near-dup partner somewhere in the corpus
        for d in losers:
            best = max(jaccard(sh[d], sh[o]) for o in all_ids if o != d)
            assert best >= 0.85, (d, best)

    def test_simhash_registry_pairs_have_valid_hamming(self, ray_session):
        from ontograph_ray.queries import q_simhash_pairs
        from ontograph_ray.stages.dedup import SimHasher

        pairs = q_simhash_pairs(self.SF).to_pandas()
        assert len(pairs)
        docs = ray.data.read_parquet(f"{self.SF}/documents.parquet").to_pandas()
        texts = dict(zip(docs["doc_id"], docs["text"]))
        hasher = SimHasher()
        for _, row in pairs.iterrows():
            ha = hasher.simhash(texts[row["src_id"]])
            hb = hasher.simhash(texts[row["dst_id"]])
            d = bin(ha ^ hb).count("1")
            assert d == row["hamming"] and d <= 2, (row.to_dict(), d)

    def test_ngram_jaccard_registry_pairs_verified(self, ray_session):
        from ontograph_ray.queries import q_ngram_jaccard
        from ontograph_ray.stages.dedup import _shingles, jaccard

        pairs = q_ngram_jaccard(self.SF)
        assert len(pairs)
        docs = ray.data.read_parquet(f"{self.SF}/documents.parquet").to_pandas()
        texts = dict(zip(docs["doc_id"], docs["text"]))
        for _, row in pairs.iterrows():
            jj = jaccard(
                _shingles(texts[row["src_id"]], 5), _shingles(texts[row["dst_id"]], 5)
            )
            assert jj >= 0.8, (row.to_dict(), jj)

    def test_ann_ivf_registry_recall_vs_exact(self, ray_session):
        from ontograph_ray.queries import q_ann_topk, q_ann_topk_ivf

        exact = q_ann_topk(self.SF)
        approx = q_ann_topk_ivf(self.SF)
        exact_df = exact.to_pandas() if not isinstance(exact, pd.DataFrame) else exact
        approx_df = approx.to_pandas() if not isinstance(approx, pd.DataFrame) else approx
        recalls = []
        for qid, grp in exact_df.groupby("query_id"):
            want = set(grp["vec_id"])
            got = set(approx_df[approx_df["query_id"] == qid]["vec_id"])
            recalls.append(len(want & got) / len(want))
        assert sum(recalls) / len(recalls) >= 0.6, recalls


class TestLshAnn:
    def test_lsh_topk_self_match_and_recall(self, ray_session, embs):
        from ontograph_ray.stages import ann

        rows = embs.take(5)
        qids = [r["vec_id"] for r in rows]
        qvecs = np.asarray([r["embedding"] for r in rows], dtype=np.float64)
        exact = ann.brute_force_topk(embs, qids, qvecs, k=5)
        got = ann.lsh_topk(embs, qids, qvecs, k=5, n_planes=6, max_probe_hamming=2)
        # a query shares its own exact code → always retrieved as top-1
        for qid in qids:
            top = got[got["query_id"] == qid].iloc[0]
            assert top["vec_id"] == qid and top["score"] > 0.999
        recall = 0
        for qid in qids:
            e = set(exact[exact["query_id"] == qid]["vec_id"])
            a = set(got[got["query_id"] == qid]["vec_id"])
            recall += len(e & a) / len(e)
        assert recall / len(qids) >= 0.4
        # determinism (seeded planes)
        again = ann.lsh_topk(embs, qids, qvecs, k=5, n_planes=6, max_probe_hamming=2)
        pd.testing.assert_frame_equal(got, again)


class TestHnswAnn:
    def test_hnsw_self_match_recall_and_determinism(self, ray_session, embs):
        from ontograph_ray.stages import ann

        rows = embs.take(5)
        qids = [r["vec_id"] for r in rows]
        qvecs = np.asarray([r["embedding"] for r in rows], dtype=np.float64)
        exact = ann.brute_force_topk(embs, qids, qvecs, k=5)
        got = ann.hnsw_topk(embs, qids, qvecs, k=5)
        # a query IS a corpus vector → its own shard returns it top-1
        for qid in qids:
            top = got[got["query_id"] == qid].iloc[0]
            assert top["vec_id"] == qid and top["score"] > 0.999
        recall = 0.0
        for qid in qids:
            e = set(exact[exact["query_id"] == qid]["vec_id"])
            a = set(got[got["query_id"] == qid]["vec_id"])
            recall += len(e & a) / len(e)
        assert recall / len(qids) >= 0.6
        # deterministic across block layouts (the oracle-ability claim)
        again = ann.hnsw_topk(embs.repartition(5), qids, qvecs, k=5)
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), again.reset_index(drop=True)
        )

    def test_hnsw_level_function_is_pure(self):
        from ontograph_ray.stages.ann import _hnsw_level

        ls = [_hnsw_level(v, 1.0) for v in range(2000)]
        assert ls == [_hnsw_level(v, 1.0) for v in range(2000)]
        assert max(ls) >= 1 and min(ls) == 0  # multi-layer graphs occur


class TestCuratePipeline:
    def test_curate_exact_filters_and_dedups(self, ray_session):
        from ontograph_ray.pipelines.curate import (
            MIN_TOKENS, PUNCT_DEN, PUNCT_NUM, curate,
        )

        rows = [
            {"doc_id": 0, "text": "alpha beta gamma delta epsilon", "lang": "en"},
            {"doc_id": 1, "text": "alpha beta gamma delta epsilon", "lang": "en"},  # dup
            {"doc_id": 2, "text": "too short", "lang": "en"},  # < MIN_TOKENS
            {"doc_id": 3, "text": "!!! ??? ;;; ::: ,,, ...", "lang": "en"},  # punct
            {"doc_id": 4, "text": "one two three four five six", "lang": "de"},
        ]
        import pyarrow.parquet as pq

        import tempfile, os

        d = tempfile.mkdtemp()
        pq.write_table(pa.Table.from_pylist(rows), os.path.join(d, "documents.parquet"))
        out = curate(d, near_dup=False).to_pandas().sort_values("doc_id")
        assert out["doc_id"].tolist() == [0, 4]
        for _, r in out.iterrows():
            assert r["n_tokens"] >= MIN_TOKENS
            assert r["punct_chars"] * PUNCT_NUM <= r["n_chars"] * PUNCT_DEN

    def test_curate_full_subset_of_exact(self, ray_session):
        from ontograph_ray.queries import q_curate_corpus, q_curate_full

        sf = "/root/testdata/sf0.001"
        exact_ids = set(q_curate_corpus(sf).to_pandas()["doc_id"])
        full_ids = set(q_curate_full(sf).to_pandas()["doc_id"])
        assert full_ids <= exact_ids
        assert len(full_ids) >= 1


class TestCorpusPrep:
    """decontam / scrub / packing stages vs brute-force Python oracles."""

    def _prep_corpus(self):
        rows = [
            {"doc_id": 0, "text": "the quick brown fox jumps over the lazy dog"},
            {"doc_id": 1, "text": "pack my box with five dozen liquor jugs"},
            {"doc_id": 2, "text": "the quick brown fox sat still"},  # shares a 4-gram with 0
            {"doc_id": 3, "text": "tiny"},  # shorter than n — zero windows
            {"doc_id": 4, "text": "jumps over the lazy dog indeed"},  # shares with 0
        ]
        return rows, ray.data.from_items(rows)

    @staticmethod
    def _ngrams(text: str, n: int) -> list[str]:
        toks = text.split(" ")
        return [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]

    def test_decontaminate_counts_match_bruteforce(self, ray_session):
        from ontograph_ray.stages.decontam import decontaminate

        rows, ds = self._prep_corpus()
        bench_rows = [rows[0]]
        train_rows = rows[1:]
        bench = ray.data.from_items(bench_rows)
        train = ray.data.from_items(train_rows)
        n = 4
        bench_ngrams = {g for r in bench_rows for g in self._ngrams(r["text"], n)}
        expect = {
            r["doc_id"]: sum(g in bench_ngrams for g in self._ngrams(r["text"], n))
            for r in train_rows
        }
        got = {
            r["doc_id"]: r["n_contaminated"]
            for r in decontaminate(train, bench, n=n).take_all()
        }
        assert got == expect
        assert got[2] > 0 and got[4] > 0 and got[3] == 0 and got[1] == 0

    def test_decontaminate_no_cross_doc_windows(self, ray_session):
        # two docs that only form a shared 4-gram if windows straddled
        # the doc boundary in the flattened token array
        from ontograph_ray.stages.decontam import decontaminate

        bench = ray.data.from_items([{"doc_id": 0, "text": "a b c d"}])
        train = ray.data.from_items(
            [{"doc_id": 1, "text": "x y a b"}, {"doc_id": 2, "text": "c d z w"}]
        )
        out = {r["doc_id"]: r["n_contaminated"] for r in decontaminate(train, bench).take_all()}
        assert out == {1: 0, 2: 0}

    def test_scrub_pii_redacts_and_counts(self, ray_session):
        from ontograph_ray.stages.scrub import scrub_pii

        ds = ray.data.from_items(
            [
                {"doc_id": 0, "text": "mail me at bob.smith+x@corp.example.org now"},
                {"doc_id": 1, "text": "call +1 555-010-2345 or 555 0102 3456"},
                {"doc_id": 2, "text": "server at 192.168.0.1 and 10.0.255.254"},
                {"doc_id": 3, "text": "nothing sensitive here"},
            ]
        )
        out = {r["doc_id"]: r for r in scrub_pii(ds).take_all()}
        assert out[0]["clean_text"] == "mail me at <EMAIL> now"
        assert out[0]["n_redactions"] == 1
        assert "<PHONE>" in out[1]["clean_text"]
        assert "555" not in out[1]["clean_text"]
        assert out[2]["clean_text"] == "server at <IP> and <IP>"
        assert out[2]["n_redactions"] == 2
        assert out[3]["clean_text"] == "nothing sensitive here"
        assert out[3]["n_redactions"] == 0

    def test_pack_sequences_matches_cumsum(self, ray_session):
        from ontograph_ray.stages.packing import pack_sequences

        rows, ds = self._prep_corpus()
        window = 8
        # brute force: concat in doc_id order, chunk
        lens = {r["doc_id"]: len(r["text"].split(" ")) for r in rows}
        cum = 0
        expect = {}
        for did in sorted(lens):
            expect[did] = (cum // window, cum % window, lens[did])
            cum += lens[did]
        # bucket_width=2 forces 3 buckets through the exchange
        out = pack_sequences(ds, window=window, bucket_width=2).take_all()
        got = {r["doc_id"]: (r["seq_id"], r["offset"], r["n_tokens"]) for r in out}
        assert got == expect

    def test_pack_sequences_single_bucket_equivalent(self, ray_session):
        from ontograph_ray.stages.packing import pack_sequences

        _, ds = self._prep_corpus()
        a = {r["doc_id"]: (r["seq_id"], r["offset"])
             for r in pack_sequences(ds, window=5, bucket_width=1 << 20).take_all()}
        b = {r["doc_id"]: (r["seq_id"], r["offset"])
             for r in pack_sequences(ds, window=5, bucket_width=2).take_all()}
        assert a == b


class TestDictEncode:
    def test_ids_follow_frequency_order_and_oov(self, ray_session):
        from ontograph_ray.stages.vocab import dict_encode

        # counts: b=4, a=3, c=2, z=1 → vocab k=3: b=0, a=1, c=2; z OOV
        df = pd.DataFrame(
            {
                "doc_id": [1, 2, 3],
                "text": ["a b b", "b a c z", "c a b"],
            }
        )
        out = (
            dict_encode(ray.data.from_pandas(df).repartition(2), k=3)
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        # doc1: a(1) b(0) b(0) → sum 1, no OOV
        assert out.loc[1].tolist() == [3, 0, 1]
        # doc2: b(0) a(1) c(2) z(OOV) → sum 3, one OOV
        assert out.loc[2].tolist() == [4, 1, 3]
        # doc3: c(2) a(1) b(0) → sum 3
        assert out.loc[3].tolist() == [3, 0, 3]


class TestCorpusStats:
    """repetition / export-shuffle / vocab-coverage stages."""

    def test_split_assign_stable_and_proportional(self, ray_session):
        from ontograph_ray.stages.export import split_assign

        small = ray.data.range(2_000)
        big = ray.data.range(6_000).repartition(5)
        a = {
            r["id"]: r["split"]
            for r in split_assign(small, id_col="id").take_all()
        }
        b = {
            r["id"]: r["split"]
            for r in split_assign(big, id_col="id").take_all()
        }
        # growth stability: old ids keep their split when the corpus
        # triples (the property a shuffle+slice split lacks)
        assert all(b[i] == a[i] for i in a)
        # proportions near 90/5/5 (hash-uniform; generous bounds)
        from collections import Counter

        c = Counter(b.values())
        assert 0.87 < c["train"] / 6000 < 0.93
        assert 0.03 < c["val"] / 6000 < 0.07
        assert 0.03 < c["test"] / 6000 < 0.07
        # different seed reshuffles membership
        a2 = {
            r["id"]: r["split"]
            for r in split_assign(small, id_col="id", seed=1).take_all()
        }
        assert any(a2[i] != a[i] for i in a)
        # invalid fractions are rejected
        import pytest

        with pytest.raises(ValueError):
            split_assign(small, id_col="id", fractions=(("train", 9999),))
        with pytest.raises(ValueError):
            split_assign(
                small,
                id_col="id",
                fractions=(("a", 10_000), ("b", 0)),
            )

    def test_constraint_report_hand_computed(self, ray_session):
        from ontograph_ray.store.dataset import constraint_report

        dim = ray.data.from_items([{"ck": 1}, {"ck": 2}, {"ck": 3}])
        rows = [
            {"k": 1, "ck": 1},
            {"k": 1, "ck": 2},      # dup k (1 extra)
            {"k": 1, "ck": 2},      # dup k (another extra)
            {"k": 2, "ck": None},   # null ck (not a FK violation)
            {"k": 3, "ck": 99},     # orphan
            {"k": 4, "ck": 3},
        ]
        out = {
            r["rule"]: r["violations"]
            for r in constraint_report(
                ray.data.from_items(rows).repartition(3),
                unique=["k"],
                not_null=["ck"],
                foreign_keys=[("ck", dim, "ck")],
                num_buckets=4,
            ).take_all()
        }
        assert out == {"unique:k": 2, "not_null:ck": 1, "fk:ck": 1}

    def test_extract_json_int(self, ray_session):
        from ontograph_ray.stages.text import extract_json_int

        rows = [
            {"i": 0, "p": '{"k": 42}'},
            {"i": 1, "p": '{"k": -7, "z": 1}'},
            {"i": 2, "p": '{"other": 3}'},   # absent → null
            {"i": 3, "p": '{"k": "str"}'},   # non-int → null
        ]
        out = {
            r["i"]: r["k"]
            for r in extract_json_int(
                ray.data.from_items(rows), "p", "k"
            ).take_all()
        }
        assert out == {0: 42, 1: -7, 2: None, 3: None}

    def test_merge_intervals_hand_computed(self, ray_session):
        from ontograph_ray.stages.windows import merge_intervals

        rows = [
            {"k": "a", "s": 1, "e": 4},
            {"k": "a", "s": 3, "e": 6},   # overlaps → one island
            {"k": "a", "s": 6, "e": 8},   # touches (s == prev e) → joins
            {"k": "a", "s": 10, "e": 11},
            {"k": "b", "s": 5, "e": 6},
        ]
        out = sorted(
            (r["k"], r["island_start"], r["island_end"], r["n_merged"])
            for r in merge_intervals(
                ray.data.from_items(rows).repartition(3), ["k"], "s", "e",
                num_buckets=4,
            ).take_all()
        )
        assert out == [
            ("a", 1, 8, 3),
            ("a", 10, 11, 1),
            ("b", 5, 6, 1),
        ]

    def test_perceptron_learns_and_is_layout_invariant(self, ray_session):
        from ontograph_ray.stages.text import perceptron_scores

        # separable label: long texts (many tokens) are +1
        rows = []
        for i in range(60):
            long = i % 2 == 0
            text = " ".join(["tok"] * (40 if long else 5))
            rows.append({"doc_id": i, "text": text, "y": 1 if long else -1})
        ds = ray.data.from_items(rows)
        a = (
            perceptron_scores(ds, epochs=5)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        b = (
            perceptron_scores(ds.repartition(7), epochs=5)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert a.equals(b)  # commutative integer updates
        # the separable task is learned exactly
        assert all(
            (r["pred"] == 1) == (r["doc_id"] % 2 == 0) for _, r in a.iterrows()
        )

    def test_sorted_neighborhood_bruteforce(self, ray_session):
        from ontograph_ray.stages.dedup import sorted_neighborhood_pairs

        for seed, n, w, shift in ((5, 40, 4, 3), (9, 200, 6, 2), (1, 50, 3, 6)):
            rng = np.random.default_rng(seed)
            df = pd.DataFrame(
                {
                    "doc_id": np.arange(n),
                    "n_chars": rng.integers(0, 100, n).astype("int64"),
                }
            )
            ds = ray.data.from_pandas(df).repartition(3)
            got = {
                (r["src_id"], r["dst_id"])
                for r in sorted_neighborhood_pairs(
                    ds, "doc_id", "n_chars", window=w, cell_shift=shift
                ).take_all()
            }
            order = df.sort_values(["n_chars", "doc_id"]).doc_id.tolist()
            want = {
                (order[i], order[j])
                for i in range(n)
                for j in range(i + 1, min(i + w, n))
            }
            assert got == want, (seed, n, w, shift)
        # tiny predecessor cells: window reaches back ACROSS several
        # cells (shift=0 → one row per cell for distinct keys)
        df = pd.DataFrame(
            {"doc_id": np.arange(10), "n_chars": np.arange(10, 20)}
        )
        got = {
            (r["src_id"], r["dst_id"])
            for r in sorted_neighborhood_pairs(
                ray.data.from_pandas(df).repartition(2),
                "doc_id", "n_chars", window=4, cell_shift=0,
            ).take_all()
        }
        want = {
            (i, j) for i in range(10) for j in range(i + 1, min(i + 4, 10))
        }
        assert got == want
        import pytest

        with pytest.raises(ValueError):
            sorted_neighborhood_pairs(
                ray.data.from_pandas(df), "doc_id", "n_chars", window=1
            )

    def test_zorder_key_roundtrip_and_locality(self, ray_session):
        from ontograph_ray.stages.export import zorder_key

        df = pd.DataFrame(
            {
                "i": np.arange(64),
                "x": np.repeat(np.arange(8), 8).astype("int64"),
                "y": np.tile(np.arange(8), 8).astype("int64"),
            }
        )
        out = (
            zorder_key(ray.data.from_pandas(df).repartition(3), ["x", "y"])
            .to_pandas()
            .sort_values("i")
            .reset_index(drop=True)
        )

        def deinterleave(z):
            x = y = 0
            for i in range(21):
                x |= ((z >> (2 * i)) & 1) << i
                y |= ((z >> (2 * i + 1)) & 1) << i
            return x, y

        for _, r in out.iterrows():
            assert deinterleave(int(r["zkey"])) == (r["x"], r["y"])
        # locality: within any 16-key zkey run, x and y each span ≤ 4
        # (a 4×4 Morton cell) — the property a single-column sort lacks
        s = out.sort_values("zkey").reset_index(drop=True)
        for start in range(0, 64, 16):
            w = s.iloc[start : start + 16]
            assert w["x"].max() - w["x"].min() <= 3
            assert w["y"].max() - w["y"].min() <= 3
        # clamping and refusals
        big = ray.data.from_items([{"a": 1 << 30, "b": 2}])
        z = zorder_key(big, ["a", "b"], bits=4).take_all()[0]["zkey"]
        assert deinterleave(z)[0] == 15  # clamped to 2^4 − 1
        import pytest

        with pytest.raises(ValueError):
            zorder_key(big, ["a"])
        with pytest.raises(ValueError):
            zorder_key(big, ["a", "b"], bits=32)
        with pytest.raises(Exception):
            zorder_key(
                ray.data.from_items([{"a": -1, "b": 2}]), ["a", "b"]
            ).take_all()

    def test_mad_outliers_vs_duckdb(self, ray_session):
        import duckdb

        from ontograph_ray.stages.windows import mad_outliers

        rng = np.random.default_rng(29)
        df = pd.DataFrame(
            {
                "g": rng.integers(0, 6, 300),
                "i": np.arange(300),
                "v": np.round(rng.normal(0, 1, 300), 3),
            }
        )
        df.loc[::37, "v"] = 50.0  # planted outliers
        got = (
            mad_outliers(
                ray.data.from_pandas(df).repartition(4), ["g"], "v", k=3,
                extra_cols=["i"], num_buckets=4,
            )
            .to_pandas()
            .sort_values("i")
            .reset_index(drop=True)
        )
        want = duckdb.sql(
            """WITH med AS (SELECT g, quantile_disc(v, 0.5) AS med
                            FROM df GROUP BY g),
            dev AS (SELECT df.g, df.i, df.v, abs(df.v - med.med) AS d
                    FROM df JOIN med USING (g)),
            mad AS (SELECT g, quantile_disc(d, 0.5) AS mad
                    FROM dev GROUP BY g)
            SELECT dev.g, dev.v, dev.i FROM dev JOIN mad USING (g)
            WHERE dev.d > 3 * mad.mad ORDER BY i"""
        ).df()
        assert got[["g", "v", "i"]].reset_index(drop=True).equals(
            want[["g", "v", "i"]].reset_index(drop=True)
        )
        assert len(got) >= 8  # the planted spikes are found

    def test_collocations_hand_computed(self, ray_session):
        from ontograph_ray.stages.text import collocations

        rows = (
            [{"text": "new york city"}] * 6
            + [{"text": "new deal"}] * 2
            + [{"text": "old york"}] * 1
        )
        out = collocations(
            ray.data.from_items(rows).repartition(3), min_count=2, k=10,
            num_buckets=4,
        ).take_all()
        got = {(r["w1"], r["w2"]): (r["c"], r["lift_bp"]) for r in out}
        # unigrams: new=8 york=7 city=6 deal=2 old=1 → N1=24
        # bigrams: (new,york)=6 (york,city)=6 (new,deal)=2 (old,york)=1 → N2=15
        n1, n2 = 24, 15
        assert got[("new", "york")] == (
            6, (10_000 * 6 * n1 * n1) // (8 * 7 * n2)
        )
        assert got[("york", "city")] == (
            6, (10_000 * 6 * n1 * n1) // (7 * 6 * n2)
        )
        assert got[("new", "deal")] == (
            2, (10_000 * 2 * n1 * n1) // (8 * 2 * n2)
        )
        assert ("old", "york") not in got  # below min_count

    def test_table_diff_hand_computed(self, ray_session):
        from ontograph_ray.store.dataset import table_diff

        old = ray.data.from_items(
            [
                {"k": 1, "g": "a", "v": 10},  # unchanged
                {"k": 2, "g": "a", "v": 20},  # changed (v)
                {"k": 3, "g": "b", "v": 30},  # removed
                {"k": 4, "g": "b", "v": 40},  # changed (g)
            ]
        ).repartition(2)
        new = ray.data.from_items(
            [
                {"k": 1, "g": "a", "v": 10},
                {"k": 2, "g": "a", "v": 21},
                {"k": 4, "g": "c", "v": 40},
                {"k": 5, "g": "b", "v": 50},  # added
            ]
        ).repartition(3)
        out = {
            r["k"]: r["change"]
            for r in table_diff(old, new, ["k"], num_buckets=4).take_all()
        }
        assert out == {2: "changed", 3: "removed", 4: "changed", 5: "added"}
        # multi-column keys
        old2 = ray.data.from_items(
            [{"a": 1, "b": "x", "v": 1}, {"a": 1, "b": "y", "v": 2}]
        )
        new2 = ray.data.from_items(
            [{"a": 1, "b": "x", "v": 9}, {"a": 1, "b": "y", "v": 2}]
        )
        out2 = table_diff(old2, new2, ["a", "b"]).take_all()
        assert [(r["a"], r["b"], r["change"]) for r in out2] == [
            (1, "x", "changed")
        ]
        # schema mismatch refused
        import pytest

        with pytest.raises(ValueError):
            table_diff(
                old, new.select_columns(["k", "g"]), ["k"]
            )
        # duplicate keys within one side refused
        dup = ray.data.from_items(
            [{"k": 1, "g": "a", "v": 1}, {"k": 1, "g": "a", "v": 2}]
        )
        with pytest.raises(Exception):
            table_diff(dup, new, ["k"]).take_all()

    def test_cms_overcounts_only_and_layout_invariant(self, ray_session):
        from collections import Counter

        from ontograph_ray.stages.sketch import cms_estimate

        rng = np.random.default_rng(13)
        keys = rng.zipf(1.6, 5_000) % 500  # skewed multiset
        df = pd.DataFrame({"k": keys.astype("int64")})
        truth = Counter(df["k"].tolist())
        probes = list(range(20))
        a = cms_estimate(
            ray.data.from_pandas(df), "k", probes, width=256, depth=4
        )
        b = cms_estimate(
            ray.data.from_pandas(df).repartition(7), "k", probes,
            width=256, depth=4,
        )
        # counter sums commute → identical at any layout
        assert a.equals(b)
        # CMS guarantee: estimates never undercount
        for _, r in a.iterrows():
            assert r["est_count"] >= truth.get(r["k"], 0)
        # with a huge width there are no collisions → exact
        exact = cms_estimate(
            ray.data.from_pandas(df), "k", probes, width=65_536, depth=4
        )
        for _, r in exact.iterrows():
            assert r["est_count"] == truth.get(r["k"], 0)

    def test_retention_cohorts_hand_computed(self, ray_session):
        import datetime as dt

        from ontograph_ray.stages.windows import retention_cohorts

        day = 86_400_000_000
        t0 = dt.datetime(2026, 1, 1)

        def at(days):
            return t0 + dt.timedelta(days=days)

        rows = [
            # u1: cohort week 0, active weeks 0,1,3 (dup events collapse)
            {"user_id": 1, "ts": at(0)},
            {"user_id": 1, "ts": at(1)},
            {"user_id": 1, "ts": at(8)},
            {"user_id": 1, "ts": at(22)},
            # u2: cohort week 0, active week 0 only
            {"user_id": 2, "ts": at(3)},
            # u3: cohort week 1, active weeks 1,2
            {"user_id": 3, "ts": at(8)},
            {"user_id": 3, "ts": at(15)},
        ]
        out = {
            (r["cohort"], r["offset"]): r["n_users"]
            for r in retention_cohorts(
                ray.data.from_items(rows).repartition(3),
                "user_id",
                "ts",
                period_us=7 * day,
                num_buckets=4,
            ).take_all()
        }
        base = (t0 - dt.datetime(1970, 1, 1)).days // 7
        want = {
            (base, 0): 2,      # u1, u2
            (base, 1): 1,      # u1
            (base, 3): 1,      # u1
            (base + 1, 0): 1,  # u3
            (base + 1, 1): 1,  # u3
        }
        assert out == want

    def test_group_concentration_hand_computed(self, ray_session):
        from ontograph_ray.stages.export import group_concentration

        rows = (
            [{"g": "en", "s": "web"}] * 3
            + [{"g": "en", "s": "news"}] * 1
            + [{"g": "de", "s": "web"}] * 2
        )
        out = {
            r["g"]: r
            for r in group_concentration(
                ray.data.from_items(rows).repartition(3), "g", "s",
                num_buckets=4,
            ).take_all()
        }
        # en: shares 7500/2500 bp → 7500² + 2500²
        assert out["en"]["n_items"] == 2
        assert out["en"]["hhi"] == 7500**2 + 2500**2
        # de: one source owns the group → 10000²
        assert out["de"]["n_items"] == 1
        assert out["de"]["hhi"] == 10_000**2

    def test_ngram_novelty_bruteforce(self, ray_session):
        from ontograph_ray.stages.text import ngram_novelty

        rows = [
            {"doc_id": 1, "text": "a b c d e"},
            {"doc_id": 2, "text": "a b c x y"},        # shares 'a b c'
            {"doc_id": 3, "text": "z q"},              # < n tokens: no row
            {"doc_id": 4, "text": "a b c a b c a b"},  # in-doc dup grams
            {"doc_id": 5, "text": "u v w"},            # exactly one gram
        ]
        out = {
            r["doc_id"]: r
            for r in ngram_novelty(
                ray.data.from_items(rows).repartition(3), n=3, num_buckets=4
            ).take_all()
        }
        # brute force
        grams = {
            r["doc_id"]: {
                tuple(r["text"].split(" ")[i : i + 3])
                for i in range(len(r["text"].split(" ")) - 2)
            }
            for r in rows
        }
        from collections import Counter

        df = Counter(g for s in grams.values() for g in s)
        assert 3 not in out  # too short
        for d, s in grams.items():
            if not s:
                continue
            uniq = sum(1 for g in s if df[g] == 1)
            assert out[d]["n_grams"] == len(s)
            assert out[d]["n_unique"] == uniq
            assert out[d]["novelty_bp"] == (10_000 * uniq) // len(s)

    def test_repetition_counts_bruteforce(self, ray_session):
        from collections import Counter

        from ontograph_ray.stages.repetition import repetition_stats

        rows = [
            {"doc_id": 0, "text": "a b a b a b"},       # heavy bigram repeat
            {"doc_id": 1, "text": "x y z w"},           # all unique
            {"doc_id": 2, "text": "solo"},              # one token, no bigrams
            {"doc_id": 3, "text": "p p p p"},           # one repeated token
        ]
        out = {r["doc_id"]: r for r in repetition_stats(ray.data.from_items(rows)).take_all()}
        for row in rows:
            toks = row["text"].split(" ")
            grams = Counter(zip(toks, toks[1:]))
            r = out[row["doc_id"]]
            assert r["n_tokens"] == len(toks)
            assert r["n_unique_tokens"] == len(set(toks))
            assert r["n_2grams"] == max(len(toks) - 1, 0)
            assert r["top_2gram_count"] == (max(grams.values()) if grams else 0)
            assert r["dup_2gram_count"] == sum(c for c in grams.values() if c > 1)

    def test_dup_ngram_stats_bruteforce(self, ray_session):
        from collections import Counter

        from ontograph_ray.stages.repetition import dup_ngram_stats

        rows = [
            {"doc_id": 0, "text": "a b c d e a b c"},  # abc twice within doc
            {"doc_id": 1, "text": "x a b c y"},        # abc shared with doc 0
            {"doc_id": 2, "text": "q w"},              # < n tokens: no row
            {"doc_id": 3, "text": "u v w x y z"},      # all windows unique
        ]
        n = 3
        corpus = Counter()
        per_doc: dict[int, list[str]] = {}
        for row in rows:
            toks = row["text"].split(" ")
            grams = [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]
            per_doc[row["doc_id"]] = grams
            corpus.update(grams)
        out = {
            r["doc_id"]: r
            for r in dup_ngram_stats(
                ray.data.from_items(rows).repartition(3), n=n
            ).take_all()
        }
        assert 2 not in out  # no windows → no row
        for doc_id, grams in per_doc.items():
            if not grams:
                continue
            r = out[doc_id]
            assert r["total_ngrams"] == len(grams)
            assert r["dup_ngrams"] == sum(1 for g in grams if corpus[g] >= 2)

    def test_remove_dup_spans_bruteforce(self, ray_session):
        from collections import Counter

        from ontograph_ray.stages.repetition import remove_dup_spans

        rows = [
            # "a b c d e" appears in docs 0 and 1 → those 5 positions cut
            {"doc_id": 0, "text": "a b c d e p q r s t"},
            {"doc_id": 1, "text": "x a b c d e y"},
            {"doc_id": 2, "text": "u v w"},            # < n tokens: untouched
            {"doc_id": 3, "text": "m m m m m m m m m m"},  # self-repeat: all cut
            {"doc_id": 4, "text": "k l o i j"},        # unique window: untouched
        ]
        n, mc = 5, 2
        corpus = Counter()
        per_doc = {}
        for row in rows:
            toks = row["text"].split(" ")
            grams = [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]
            per_doc[row["doc_id"]] = (toks, grams)
            corpus.update(grams)
        expect = {}
        for doc_id, (toks, grams) in per_doc.items():
            covered = set()
            for i, g in enumerate(grams):
                if corpus[g] >= mc:
                    covered.update(range(i, i + n))
            kept = [t for i, t in enumerate(toks) if i not in covered]
            expect[doc_id] = (" ".join(kept), len(toks) - len(kept))
        out = {
            r["doc_id"]: (r["text"], r["removed"])
            for r in remove_dup_spans(
                ray.data.from_items(rows).repartition(3), n=n, min_count=mc
            ).take_all()
        }
        assert out == expect
        assert out[0] == ("p q r s t", 5)
        assert out[2] == ("u v w", 0)
        assert out[3] == ("", 10)

    def test_bpe_train_hand_computed(self, ray_session):
        from ontograph_ray.stages.vocab import bpe_train

        # histogram: aaab x2, cccc x1
        rows = [
            {"doc_id": 0, "text": "aaab cccc"},
            {"doc_id": 1, "text": "aaab"},
        ]
        out = bpe_train(
            ray.data.from_items(rows), num_merges=10, top_words=10
        ).to_pandas().values.tolist()
        # r0: (a,a)=4 wins; aaab -> [aa,a,b] (greedy left-to-right)
        # r1: (c,c)=3; cccc -> [cc,cc]
        # r2: tie at 2 between (aa,a) and (a,b) -> lexicographically
        #     smallest pair ('a','b') wins; aaab -> [aa,ab]
        # r3: (aa,ab)=2
        # r4: best is (cc,cc)=1 < 2 -> stop
        assert out == [
            [0, "a", "a", 4],
            [1, "c", "c", 3],
            [2, "a", "b", 2],
            [3, "aa", "ab", 2],
        ]

    def test_bpe_token_counts_hand_computed(self, ray_session):
        from ontograph_ray.stages.vocab import bpe_token_counts

        rows = [
            {"doc_id": 0, "text": "aaab cccc"},
            {"doc_id": 1, "text": "aaab"},
        ]
        # learned merges (see test_bpe_train_hand_computed):
        # a+a, c+c, a+b, aa+ab  →  aaab = [aaab]? no: apply in rank
        # order: aaab → [aa,a,b] → (c,c no-op) → [aa,ab] → [aaab] = 1
        # piece; cccc → (a,a no-op) → [cc,cc] → 2 pieces
        out = {
            r["doc_id"]: (r["n_tokens"], r["n_bpe_pieces"])
            for r in bpe_token_counts(
                ray.data.from_items(rows), num_merges=10, top_words=10
            ).take_all()
        }
        assert out == {0: (2, 3), 1: (1, 1)}

    def test_splitmix64_matches_scalar_reference(self, ray_session):
        import numpy as np

        from ontograph_ray.store.dataset import splitmix64

        def ref(v: int) -> int:
            m = (1 << 64) - 1
            v = (v + 0x9E3779B97F4A7C15) & m
            v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & m
            v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & m
            return v ^ (v >> 31)

        xs = np.array([0, 1, 2, 7, 10**12, (1 << 63) + 5], dtype=np.uint64)
        got = splitmix64(xs)
        assert [int(g) for g in got] == [ref(int(x)) for x in xs]

    def test_shard_assignments_deterministic_and_balanced(self, docs):
        from ontograph_ray.stages.export import shard_assignments

        a = shard_assignments(docs, num_shards=8, seed=3).to_pandas()
        b = shard_assignments(docs, num_shards=8, seed=3).to_pandas()
        assert a.sort_values("doc_id").equals(b.sort_values("doc_id"))
        sizes = a.groupby("shard").size()
        assert len(sizes) == 8  # every shard populated on 50 docs is luck;
        # at least: no shard holds more than half the corpus (uniformity smoke)
        assert sizes.max() <= len(a) // 2

    def test_write_shards_roundtrip_ordered(self, docs, tmp_path):
        import pyarrow.parquet as pq

        from ontograph_ray.stages.export import shard_assignments, write_shards

        out = str(tmp_path / "shards")
        write_shards(docs, out, num_shards=4, seed=1)
        back = pq.read_table(out).to_pandas()
        assert sorted(back["doc_id"]) == sorted(docs.to_pandas()["doc_id"])
        want = shard_assignments(docs, num_shards=4, seed=1).to_pandas()
        merged = back.merge(want, on="doc_id", suffixes=("", "_w"))
        assert (merged["sort_key"] == merged["sort_key_w"]).all()
        # within each shard file, rows are sorted by sort_key
        for _, grp in back.groupby("shard"):
            sk = grp["sort_key"].to_numpy()
            assert (sk[:-1] <= sk[1:]).all()

    def test_top_vocab_tiebreak_and_coverage(self, ray_session):
        from ontograph_ray.stages.vocab import top_vocab, vocab_coverage

        rows = [
            {"doc_id": 0, "text": "aa bb aa cc"},
            {"doc_id": 1, "text": "bb dd ee ff"},
        ]
        ds = ray.data.from_items(rows)
        # counts: aa=2 bb=2 cc=1 dd=1 ee=1 ff=1 → top3 = aa, bb, cc (ties asc)
        assert top_vocab(ds, k=3) == ["aa", "bb", "cc"]
        out = {r["doc_id"]: r for r in vocab_coverage(ds, k=3).take_all()}
        assert out[0]["n_in_vocab"] == 4  # aa bb aa cc all in vocab
        assert out[1]["n_in_vocab"] == 1  # only bb


class TestIncrementalAndClassifier:
    """incremental_dedup / classifier_score vs brute-force oracles."""

    def test_incremental_dedup_filters_seen_text(self, ray_session):
        from ontograph_ray.stages.dedup import incremental_dedup

        seen = ray.data.from_items(
            [
                {"doc_id": 0, "text": "alpha beta"},
                {"doc_id": 3, "text": "gamma delta"},
            ]
        )
        new = ray.data.from_items(
            [
                {"doc_id": 10, "text": "alpha beta"},   # seen → dropped
                {"doc_id": 11, "text": "epsilon zeta"},  # fresh → kept
                {"doc_id": 12, "text": "gamma delta"},   # seen → dropped
                {"doc_id": 13, "text": "epsilon zeta"},  # dup within new → kept
            ]
        )
        out = incremental_dedup(new, seen, num_buckets=4).to_pandas()
        assert sorted(out["doc_id"]) == [11, 13]
        assert sorted(out.columns) == ["doc_id", "text"]

    def test_incremental_dedup_empty_seen_keeps_all(self, ray_session):
        from ontograph_ray.stages.dedup import incremental_dedup

        seen = ray.data.from_items([{"doc_id": 0, "text": "never matched"}])
        new = ray.data.from_items(
            [{"doc_id": i, "text": f"doc {i}"} for i in range(5)]
        )
        out = incremental_dedup(new, seen, num_buckets=4).to_pandas()
        assert sorted(out["doc_id"]) == list(range(5))

    def test_classifier_score_matches_bruteforce(self, ray_session):
        import re

        from ontograph_ray.stages.text import classifier_score

        rows = [
            {"doc_id": 0, "text": "the cat sat on a mat."},
            {"doc_id": 1, "text": "x!!! y??? z..."},
            {"doc_id": 2, "text": "a plain sentence with the usual words"},
        ]
        w, bias, thr = [3, 10, -5, -1], 200, 0

        def expect(text):
            n_tokens = len(text.split(" "))
            stop = len(re.findall(r"\bthe\b", text)) + len(re.findall(r"\ba\b", text))
            punct = len(re.findall(r"[^\w\s]", text))
            s = 3 * n_tokens + 10 * stop - 5 * punct - len(text) + bias
            return s, int(s >= thr)

        ds = ray.data.from_items(rows)
        out = {r["doc_id"]: (r["score"], r["keep"])
               for r in classifier_score(ds, w, bias=bias, threshold=thr).take_all()}
        for r in rows:
            assert out[r["doc_id"]] == expect(r["text"]), r


class TestGroupCap:
    def test_group_cap_matches_bruteforce(self, ray_session):
        from ontograph_ray.stages.dedup import group_cap

        rows = [
            {"doc_id": i, "source": f"s{i % 3}"} for i in range(20)
        ]
        ds = ray.data.from_items(rows).repartition(4)
        out = group_cap(ds, key="source", cap=2, order_col="doc_id").to_pandas()
        # brute force: first 2 ids per source
        expect = {}
        for r in sorted(rows, key=lambda r: r["doc_id"]):
            expect.setdefault(r["source"], []).append(r["doc_id"])
        want = sorted(i for ids in expect.values() for i in ids[:2])
        assert sorted(out["doc_id"]) == want

    def test_group_cap_larger_than_group_keeps_all(self, ray_session):
        from ontograph_ray.stages.dedup import group_cap

        ds = ray.data.from_items(
            [{"doc_id": i, "source": "only"} for i in range(5)]
        )
        out = group_cap(ds, key="source", cap=100).to_pandas()
        assert sorted(out["doc_id"]) == list(range(5))


class TestJsonlSource:
    def test_jsonl_roundtrip_exact(self, ray_session, tmp_path):
        import pandas as pd

        from ontograph_ray.sources.jsonl import (
            read_documents_jsonl,
            write_documents_jsonl,
        )

        rows = [
            {"doc_id": i, "text": f"doc {i} text", "lang": "en",
             "source": f"s{i % 2}", "n_chars": 10 + i}
            for i in range(7)
        ]
        ds = ray.data.from_items(rows).repartition(3)
        out = str(tmp_path / "jsonl")
        write_documents_jsonl(ds, out)
        back = read_documents_jsonl(out).to_pandas().sort_values("doc_id").reset_index(drop=True)
        want = pd.DataFrame(rows)
        pd.testing.assert_frame_equal(back, want)

    def test_jsonl_gz_roundtrip_exact_and_compressed(self, ray_session, tmp_path):
        import gzip
        import os

        import pandas as pd

        from ontograph_ray.sources.jsonl import (
            read_documents_jsonl_gz,
            write_documents_jsonl_gz,
        )

        rows = [
            {"doc_id": i, "text": f"doc {i} unicode é 中文", "lang": "en",
             "source": f"s{i % 2}", "n_chars": 10 + i}
            for i in range(9)
        ]
        ds = ray.data.from_items(rows).repartition(3)
        out = str(tmp_path / "jsonlgz")
        write_documents_jsonl_gz(ds, out)
        files = sorted(os.listdir(out))
        assert files and all(f.endswith(".jsonl.gz") for f in files)
        # the shards are REAL gzip members
        with open(os.path.join(out, files[0]), "rb") as f:
            raw = f.read()
        assert raw[:2] == b"\x1f\x8b" and gzip.decompress(raw).startswith(b"{")
        back = (
            read_documents_jsonl_gz(out)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        want = pd.DataFrame(rows)[["doc_id", "text", "lang", "source", "n_chars"]]
        pd.testing.assert_frame_equal(back[want.columns.tolist()], want)

    def test_csv_roundtrip_hostile_text(self, ray_session, tmp_path):
        import pandas as pd

        from ontograph_ray.sources.csv import (
            read_documents_csv,
            write_documents_csv,
        )

        # commas, quotes, and an embedded newline must survive quoting
        texts = ['a,b,"c"', "line1\nline2", "plain", "", "trailing,"]
        rows = [
            {"doc_id": i, "text": t, "lang": "en",
             "source": f"s{i % 2}", "n_chars": len(t)}
            for i, t in enumerate(texts)
        ]
        ds = ray.data.from_items(rows).repartition(2)
        out = str(tmp_path / "csv")
        write_documents_csv(ds, out)
        back = (
            read_documents_csv(out)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(back, pd.DataFrame(rows))

    def test_csv_reader_column_pruning(self, ray_session, tmp_path):
        from ontograph_ray.sources.csv import (
            read_documents_csv,
            write_documents_csv,
        )

        rows = [{"doc_id": 1, "text": "t", "lang": "en", "source": "s", "n_chars": 1}]
        out = str(tmp_path / "csv")
        write_documents_csv(ray.data.from_items(rows), out)
        got = read_documents_csv(out, columns=["doc_id", "lang"]).to_pandas()
        assert list(got.columns) == ["doc_id", "lang"]
        assert got["doc_id"].tolist() == [1]

    def test_jsonl_reader_column_pruning(self, ray_session, tmp_path):
        from ontograph_ray.sources.jsonl import (
            read_documents_jsonl,
            write_documents_jsonl,
        )

        rows = [{"doc_id": 1, "text": "t", "lang": "en", "source": "s", "n_chars": 1}]
        out = str(tmp_path / "jsonl")
        write_documents_jsonl(ray.data.from_items(rows), out)
        got = read_documents_jsonl(out, columns=["doc_id", "lang"]).to_pandas()
        assert list(got.columns) == ["doc_id", "lang"]
        assert got["doc_id"].tolist() == [1]


class TestLineDedup:
    """C4-style cross-corpus line dedup (stages/dedup.py::line_dedup)."""

    def _docs(self):
        import ray.data

        return ray.data.from_items(
            [
                {"doc_id": 1, "text": "home\nalpha beta\nfooter"},
                {"doc_id": 2, "text": "home\ngamma delta\nfooter"},
                {"doc_id": 3, "text": "home\nepsilon"},
                {"doc_id": 4, "text": "home"},  # only line is a dup
            ]
        )

    def _run(self, min_count=2):
        from ontograph_ray.stages.dedup import line_dedup

        rows = line_dedup(self._docs(), min_count=min_count).take_all()
        return {r["doc_id"]: r["text"] for r in rows}

    def test_keeps_first_occurrence_only(self, ray_session):
        out = self._run()
        # 'home' (4×) and 'footer' (2×) keep only their (min doc, min
        # line_no) occurrence; unique lines survive everywhere
        assert out[1] == "home\nalpha beta\nfooter"
        assert out[2] == "gamma delta"
        assert out[3] == "epsilon"
        # doc 4's only line was deduped away → doc drops out
        assert 4 not in out

    def test_line_multiset_invariant(self, ray_session):
        # corpus-wide: each dup line exactly once, unique lines unchanged
        out = self._run()
        all_lines = [ln for t in out.values() for ln in t.split("\n")]
        assert sorted(all_lines) == sorted(
            ["home", "footer", "alpha beta", "gamma delta", "epsilon"]
        )

    def test_min_count_loosens(self, ray_session):
        # min_count=3: 'footer' (2×) now survives everywhere
        out = self._run(min_count=3)
        assert out[2] == "gamma delta\nfooter"
        assert 4 not in out  # 'home' occurs 4× >= 3, still deduped

    def test_order_preserved_within_doc(self, ray_session):
        import ray.data

        from ontograph_ray.stages.dedup import line_dedup

        docs = ray.data.from_items(
            [{"doc_id": 7, "text": "z\na\nm\nb"}]
        )
        rows = line_dedup(docs, min_count=2).take_all()
        assert rows[0]["text"] == "z\na\nm\nb"  # original order, not sorted


class TestInvertedIndex:
    """Sharded inverted-index build (stages/index.py)."""

    def _docs(self):
        import ray.data

        return ray.data.from_items(
            [
                {"doc_id": 10, "text": "a b a c"},
                {"doc_id": 11, "text": "b b c"},
                {"doc_id": 12, "text": "a"},
                {"doc_id": 13, "text": "c a d"},
            ]
        )

    def _index(self, **kw):
        from ontograph_ray.stages.index import inverted_index

        rows = inverted_index(self._docs(), **kw).take_all()
        return {(r["term"], r["shard_no"]): r for r in rows}

    def test_postings_df_and_tf(self, ray_session):
        ix = self._index(shard_size=8192)
        a = ix[("a", 0)]
        assert a["df"] == 3 and a["postings"] == "10,12,13"
        assert a["tfs"] == "2,1,1"  # 'a' twice in doc 10
        b = ix[("b", 0)]
        assert b["df"] == 2 and b["postings"] == "10,11" and b["tfs"] == "1,2"
        assert ix[("d", 0)]["postings"] == "13"

    def test_sharding_splits_hot_terms(self, ray_session):
        ix = self._index(shard_size=2)
        # 'a' (df=3) splits into shards [10,12] and [13]
        assert ix[("a", 0)]["postings"] == "10,12"
        assert ix[("a", 1)]["postings"] == "13"
        assert ix[("a", 0)]["df"] == 3 == ix[("a", 1)]["df"]  # global df
        # 'c' (docs 10,11,13) also splits; 'd' (df=1) does not
        assert ix[("c", 1)]["postings"] == "13"
        assert ("d", 1) not in ix

    def test_max_df_drops_stopwords(self, ray_session):
        ix = self._index(shard_size=8192, max_df=2)
        assert all(term != "a" and term != "c" for term, _ in ix)  # df=3
        assert ("b", 0) in ix and ("d", 0) in ix


class TestBm25Topk:
    def test_saturation_and_length_normalization(self, ray_session):
        from ontograph_ray.stages.index import bm25_topk

        filler = " ".join(["x"] * 20)
        rows = [
            {"doc_id": 0, "text": "hit " + filler},                     # tf 1
            {"doc_id": 1, "text": "hit hit " + filler},                 # tf 2
            {"doc_id": 2, "text": "hit hit hit hit " + filler},         # tf 4
            {"doc_id": 3, "text": "hit " + " ".join(["y"] * 200)},      # long
        ]
        out = bm25_topk(
            ray.data.from_items(rows).repartition(2), ["hit"], k=10
        )
        s = dict(zip(out["doc_id"], out["score"]))
        # monotone in tf but SATURATING: doubling tf < doubling score
        assert s[2] > s[1] > s[0] > 0
        assert s[1] < 2 * s[0] and s[2] < 2 * s[1]
        # length normalization: same tf, much longer doc scores lower
        assert s[3] < s[0]
        # layout invariance (integer arithmetic end to end)
        out2 = bm25_topk(
            ray.data.from_items(rows).repartition(4), ["hit"], k=10
        )
        assert out.equals(out2)


class TestTfidfTopk:
    """Integer fixed-point TF-IDF retrieval (stages/index.py)."""

    def _docs(self):
        import ray.data

        return ray.data.from_items(
            [
                {"doc_id": 1, "text": "cat cat cat dog"},
                {"doc_id": 2, "text": "cat dog fish"},
                {"doc_id": 3, "text": "fish fish bird"},
                {"doc_id": 4, "text": "bird"},
            ]
        )

    def test_scores_match_hand_computation(self, ray_session):
        from ontograph_ray.stages.index import tfidf_topk

        out = tfidf_topk(self._docs(), ["cat", "fish"], k=10, scale=100)
        got = dict(zip(out["doc_id"], out["score"]))
        # N=4, df(cat)=2 → w=200, df(fish)=2 → w=200
        assert got == {1: 3 * 200, 2: 200 + 200, 3: 2 * 200}
        # ranking: doc 1 (600) > doc 2 (400) > doc 3 (400)? tie broken
        assert list(out["doc_id"]) == [1, 2, 3]

    def test_k_truncates_with_tiebreak(self, ray_session):
        from ontograph_ray.stages.index import tfidf_topk

        out = tfidf_topk(self._docs(), ["bird"], k=1)
        # docs 3 and 4 tie on tf=1 → doc_id ASC wins
        assert list(out["doc_id"]) == [3]

    def test_rare_term_outweighs_common(self, ray_session):
        import ray.data

        from ontograph_ray.stages.index import tfidf_topk

        docs = ray.data.from_items(
            [{"doc_id": i, "text": "common" + (" rare" if i == 9 else "")}
             for i in range(10)]
        )
        out = tfidf_topk(docs, ["common", "rare"], k=3)
        assert out.iloc[0]["doc_id"] == 9  # the rare-term doc ranks first


class TestCluster:
    """Int64 fixed-point k-means + SemDeDup semantic dedup."""

    def _assignments(self, ds, k=4, iters=5):
        from ontograph_ray.stages.cluster import (
            assign_clusters,
            kmeans_fixed_point,
        )

        cents = kmeans_fixed_point(ds, k=k, iters=iters)
        df = assign_clusters(ds, cents).to_pandas()
        return df.sort_values("vec_id").reset_index(drop=True), cents

    def test_layout_invariance(self, embs):
        # the fixed-point loop must be bit-identical for any block
        # layout — the float version of this property is false
        a1, c1 = self._assignments(embs)
        a2, c2 = self._assignments(embs.repartition(7))
        assert (c1 == c2).all()
        assert a1["cluster"].tolist() == a2["cluster"].tolist()

    def test_pq_encode_twin_and_layout_invariance(self, ray_session):
        from ontograph_ray.stages.cluster import pq_encode

        rng = np.random.default_rng(3)
        m, k, sub, n = 3, 4, 2, 30  # d = 6
        mat = rng.normal(0, 1, (n, m * sub))
        ids = np.arange(n, dtype=np.int64)
        ds = ray.data.from_pandas(
            pd.DataFrame({"vec_id": ids, "embedding": list(map(list, mat))})
        )
        got = (
            pq_encode(ds, m=m, k=k, iters=4)
            .to_pandas()
            .sort_values("vec_id")
            .reset_index(drop=True)
        )
        got2 = (
            pq_encode(ds.repartition(5), m=m, k=k, iters=4)
            .to_pandas()
            .sort_values("vec_id")
            .reset_index(drop=True)
        )
        assert got.equals(got2)  # bit-identical at any layout
        # plain-numpy twin per subspace
        xq_full = np.rint(mat * (1 << 16)).astype(np.int64)
        for j in range(m):
            xq = xq_full[:, j * sub : (j + 1) * sub]
            cents = xq[:k].copy()

            def nearest(c):
                diff = xq[:, None, :] - c[None, :, :]
                return np.argmin(np.einsum("nkd,nkd->nk", diff, diff), axis=1)

            for _ in range(4):
                a = nearest(cents)
                for ci in range(k):
                    sel = xq[a == ci]
                    if len(sel):
                        cents[ci] = sel.sum(axis=0) // len(sel)
            assert got[f"code_{j}"].tolist() == nearest(cents).tolist()
        # non-divisible dim is rejected
        import pytest

        with pytest.raises(ValueError):
            pq_encode(ds, m=4, k=k)

    def test_matches_plain_twin(self, ray_session):
        # 40 vectors in 3 well-separated blobs + plain-numpy twin
        rng = np.random.default_rng(7)
        centers = np.array([[10.0, 0, 0], [0, 10.0, 0], [0, 0, 10.0]])
        m = np.vstack(
            [c + rng.normal(0, 0.3, (13, 3)) for c in centers]
            + [np.zeros((1, 3))]
        )
        ids = np.arange(len(m), dtype=np.int64)
        ds = ray.data.from_pandas(
            pd.DataFrame({"vec_id": ids, "embedding": list(map(list, m))})
        )
        got, cents = self._assignments(ds, k=3, iters=6)

        xq = np.rint(m * (1 << 16)).astype(np.int64)
        tw = xq[:3].copy()

        def near(c):
            diff = xq[:, None, :] - c[None, :, :]
            return np.argmin(np.einsum("nkd,nkd->nk", diff, diff), axis=1)

        for _ in range(6):
            a = near(tw)
            for j in range(3):
                sel = xq[a == j]
                if len(sel):
                    tw[j] = sel.sum(axis=0) // len(sel)
        assert (cents == tw).all()
        assert got["cluster"].tolist() == near(tw).tolist()

    def test_semdedup_rule_brute_force(self, embs):
        from ontograph_ray.stages.cluster import semdedup

        k, iters, tau = 4, 5, 0.4
        out = semdedup(embs, k=k, iters=iters, threshold=tau).to_pandas()
        assigned, _ = self._assignments(embs, k=k, iters=iters)

        df = embs.to_pandas().sort_values("vec_id").reset_index(drop=True)
        m = np.asarray(df["embedding"].tolist(), dtype=np.float64)
        n = np.linalg.norm(m, axis=1, keepdims=True)
        n[n == 0] = 1.0
        m = m / n
        sims = m @ m.T
        ids = df["vec_id"].to_numpy()
        clus = assigned["cluster"].to_numpy()
        expected = []
        for i in range(len(ids)):
            lower = (
                (ids < ids[i]) & (clus == clus[i]) & (sims[i] >= tau)
            )
            if not lower.any():
                expected.append(int(ids[i]))
        assert sorted(out["vec_id"].tolist()) == expected

    def test_semdedup_keeps_lowest_id_per_dup_set(self, ray_session):
        from ontograph_ray.stages.cluster import semdedup

        # two identical vectors + one orthogonal: the lower id survives
        ds = ray.data.from_pandas(
            pd.DataFrame(
                {
                    "vec_id": [5, 9, 11],
                    "embedding": [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                }
            )
        )
        out = semdedup(ds, k=2, iters=3, threshold=0.9).to_pandas()
        assert sorted(out["vec_id"].tolist()) == [5, 11]


class TestBloom:
    SEEDS = (0x5173, 0xA5A5)

    def _twin_bits(self, keys, m_bits):
        from ontograph_ray.store.dataset import splitmix64

        bits = np.zeros(m_bits // 64, dtype=np.uint64)
        for k in keys:
            for s in self.SEEDS:
                pos = int(splitmix64(np.array([k ^ s], dtype=np.uint64))[0]) % m_bits
                bits[pos // 64] |= np.uint64(1) << np.uint64(pos % 64)
        return bits.view(np.int64)

    def test_layout_invariant_and_twin(self, ray_session):
        from ontograph_ray.stages.sketch import bloom_build

        keys = list(range(0, 900, 3))
        ds = ray.data.from_pandas(pd.DataFrame({"k": keys}))
        b1 = bloom_build(ds, "k", m_bits=1024)
        b2 = bloom_build(ds.repartition(7), "k", m_bits=1024)
        assert (b1 == b2).all()
        assert (b1 == self._twin_bits(keys, 1024)).all()

    def test_no_false_negatives(self, ray_session):
        from ontograph_ray.stages.sketch import bloom_build, bloom_probe

        keys = [3, 17, 99, 1024, 777777]
        snap = ray.data.from_pandas(pd.DataFrame({"k": keys}))
        bits = bloom_build(snap, "k", m_bits=256)
        out = bloom_probe(snap, bits, "k", m_bits=256).to_pandas()
        assert out["maybe_seen"].tolist() == [1] * len(keys)

    def test_probe_matches_twin_with_false_positives(self, ray_session):
        from ontograph_ray.store.dataset import splitmix64
        from ontograph_ray.stages.sketch import bloom_build, bloom_probe

        m = 128  # tiny filter → dense → deterministic false positives
        snap_keys = list(range(0, 60, 2))
        all_keys = list(range(60))
        snap = ray.data.from_pandas(pd.DataFrame({"k": snap_keys}))
        allds = ray.data.from_pandas(pd.DataFrame({"k": all_keys}))
        bits = bloom_build(snap, "k", m_bits=m)
        out = (
            bloom_probe(allds, bits, "k", m_bits=m)
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        w = self._twin_bits(snap_keys, m).view(np.uint64)

        def twin_probe(k):
            ok = True
            for s in self.SEEDS:
                pos = int(splitmix64(np.array([k ^ s], dtype=np.uint64))[0]) % m
                ok &= bool((w[pos // 64] >> np.uint64(pos % 64)) & np.uint64(1))
            return int(ok)

        expected = [twin_probe(k) for k in all_keys]
        assert out["maybe_seen"].tolist() == expected
        # the point of the tiny filter: at least one genuine false positive
        odd = [e for k, e in zip(all_keys, expected) if k % 2 == 1]
        assert sum(odd) > 0


class TestWarcSink:
    def test_distributed_sink_roundtrip_and_idempotent(
        self, ray_session, tmp_path
    ):
        import os
        from datetime import datetime

        from ontograph_ray.sources.warc import read_warc, write_warc

        df = pd.DataFrame(
            {
                "url": [f"https://example.org/p{i}" for i in range(20)],
                "warc_ts": [datetime(2024, 1, 1, 0, 0, i) for i in range(20)],
                "html": [f"<html>page {i} &<>'s</html>".encode() for i in range(20)],
            }
        )
        ds = ray.data.from_pandas(df).repartition(3)
        out = str(tmp_path / "warc")
        n = write_warc(ds, out)
        assert n == 20
        files = sorted(os.listdir(out))
        # idempotent: a re-run rewrites the same content-hash names
        assert write_warc(ds, out) == 20
        assert sorted(os.listdir(out)) == files

        back = read_warc(out).to_pandas()
        got = {
            (r.url, r.warc_ts, bytes(r.html)) for r in back.itertuples()
        }
        want = {
            (r.url, r.warc_ts.to_pydatetime(), r.html)
            for r in df.itertuples()
        }
        assert got == want

        # reconcile: a re-run under a DIFFERENT block layout must not
        # leave the previous layout's part files behind (read_warc
        # would return duplicated records otherwise)
        assert write_warc(ray.data.from_pandas(df).repartition(5), out) == 20
        back2 = read_warc(out).to_pandas()
        assert len(back2) == 20
        assert {
            (r.url, r.warc_ts, bytes(r.html)) for r in back2.itertuples()
        } == want


class TestChunkDocuments:
    def _chunk(self, texts, window, stride):
        from ontograph_ray.stages.packing import chunk_documents

        ds = ray.data.from_pandas(
            pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
        )
        return (
            chunk_documents(ds, window=window, stride=stride)
            .to_pandas()
            .sort_values(["doc_id", "chunk_id"])
            .reset_index(drop=True)
        )

    def test_windows_and_overlap(self, ray_session):
        toks = [f"t{i}" for i in range(10)]
        out = self._chunk([" ".join(toks)], window=4, stride=3)
        # starts 0,3,6,9 → ceil(10/3)=4 chunks
        assert out["chunk_id"].tolist() == [0, 1, 2, 3]
        assert out["chunk_text"].tolist() == [
            "t0 t1 t2 t3",
            "t3 t4 t5 t6",
            "t6 t7 t8 t9",
            "t9",
        ]
        assert out["n_tokens"].tolist() == [4, 4, 4, 1]

    def test_short_and_empty_docs(self, ray_session):
        out = self._chunk(["a b", ""], window=4, stride=3)
        # "" splits to [''] → one 1-token chunk of the empty string
        assert out.values.tolist() == [
            [0, 0, 2, "a b"],
            [1, 0, 1, ""],
        ]

    def test_every_token_covered(self, ray_session):
        toks = [f"w{i}" for i in range(17)]
        out = self._chunk([" ".join(toks)], window=5, stride=5)  # no overlap
        joined = " ".join(out["chunk_text"])
        assert joined == " ".join(toks)

    def test_bad_stride_raises(self, ray_session):
        from ontograph_ray.stages.packing import chunk_documents

        ds = ray.data.from_pandas(pd.DataFrame({"doc_id": [1], "text": ["x"]}))
        with pytest.raises(ValueError):
            chunk_documents(ds, window=4, stride=5)
        with pytest.raises(ValueError):
            chunk_documents(ds, window=4, stride=0)


class TestLagOver:
    def test_lag_and_lead(self, ray_session):
        from ontograph_ray.stages.windows import lag_over

        df = pd.DataFrame(
            {
                "u": [1, 1, 1, 2, 2],
                "t": [3, 1, 2, 5, 4],
                "id": [30, 10, 20, 50, 40],
                "v": [3.0, 1.0, 2.0, 50.0, 40.0],
            }
        )
        ds = ray.data.from_pandas(df).repartition(3)
        lag = (
            lag_over(ds, ["u"], ["t", "id"], "v")
            .to_pandas()
            .sort_values(["u", "t"])
            .reset_index(drop=True)
        )
        assert lag["v"].tolist() == [1.0, 2.0, 3.0, 40.0, 50.0]
        got = lag["prev_value"].tolist()
        assert got[0] != got[0] or pd.isna(got[0])  # NaN first per group
        assert got[1:3] == [1.0, 2.0]
        assert pd.isna(got[3]) and got[4] == 40.0

        lead = (
            lag_over(ds, ["u"], ["t", "id"], "v", periods=-1, out_col="nxt")
            .to_pandas()
            .sort_values(["u", "t"])
            .reset_index(drop=True)
        )
        assert lead["nxt"].tolist()[:2] == [2.0, 3.0]
        assert pd.isna(lead["nxt"].tolist()[2])


class TestWeightedSourceSample:
    def test_rates_and_determinism(self, ray_session):
        from ontograph_ray.stages.export import weighted_source_sample
        from ontograph_ray.store.dataset import splitmix64

        n = 4000
        df = pd.DataFrame(
            {
                "doc_id": range(n),
                "source": ["a" if i % 2 == 0 else "b" for i in range(n)],
            }
        )
        ds = ray.data.from_pandas(df).repartition(5)
        w = {"a": 2500, "b": 7500}
        out = weighted_source_sample(ds, w, seed=3).to_pandas()
        # exact twin: recompute every keep decision
        h = splitmix64(df["doc_id"].to_numpy().astype(np.uint64) ^ np.uint64(3))
        thr = df["source"].map(w).to_numpy()
        expect = df[(h % np.uint64(10000)).astype(np.int64) < thr]
        assert sorted(out["doc_id"]) == sorted(expect["doc_id"])
        # rates land near the weights (law of large numbers, fixed seed)
        ra = (out["source"] == "a").sum() / (n / 2)
        rb = (out["source"] == "b").sum() / (n / 2)
        assert abs(ra - 0.25) < 0.05 and abs(rb - 0.75) < 0.05

    def test_unlisted_source_dropped(self, ray_session):
        from ontograph_ray.stages.export import weighted_source_sample

        ds = ray.data.from_pandas(
            pd.DataFrame({"doc_id": [1, 2], "source": ["x", "y"]})
        )
        out = weighted_source_sample(ds, {"x": 10000}).to_pandas()
        assert out["source"].tolist() == ["x"]


class TestTwoPhaseVerify:
    def test_components_equal_clique_mode(self, ray_session, docs):
        """The two-phase verifier (anchor edges + failed-member
        re-pair) must produce the same connected components — and so
        the same dedup survivors — as verifying the full in-bucket
        clique."""
        from ontograph_ray.stages.dedup import (
            lsh_candidate_pairs,
            minhash_signatures,
            verified_near_dup_edges,
            verify_pairs,
        )
        from ontograph_ray.store.dataset import distinct_on

        ds = docs.materialize()
        sigs = minhash_signatures(ds, 5, 64).materialize()

        two = verified_near_dup_edges(ds, sigs).to_pandas()
        cl = verify_pairs(
            distinct_on(
                lsh_candidate_pairs(sigs, mode="clique"),
                ["src_id", "dst_id"],
                16,
            ),
            ds,
        ).to_pandas()

        def comps(df):
            parent = {}

            def find(x):
                while parent.setdefault(x, x) != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in zip(df["src_id"], df["dst_id"]):
                parent[find(a)] = find(b)
            groups = {}
            for n in list(parent):
                groups.setdefault(find(n), set()).add(n)
            return {frozenset(g) for g in groups.values() if len(g) > 1}

        assert comps(two) == comps(cl)
        # and every two-phase edge is a true verified near-dup
        assert (two["jaccard"] >= 0.8).all()


class TestMinhashPathEquivalence:
    def test_driver_path_equals_distributed(self, ray_session, docs):
        """minhash_dedup's driver-coordinated small regime (raw-task
        verify rounds + driver union-find, bounded by
        MINHASH_DRIVER_MAX_PAIRS) must return the exact survivor set of
        the fully distributed two-phase plan (driver_max_pairs=-1
        forces it)."""
        from ontograph_ray.stages.dedup import minhash_dedup

        ds = docs.select_columns(["doc_id", "text"]).materialize()
        small = sorted(
            r["doc_id"] for r in minhash_dedup(ds, threshold=0.8).take_all()
        )
        dist = sorted(
            r["doc_id"]
            for r in minhash_dedup(
                ds, threshold=0.8, driver_max_pairs=-1
            ).take_all()
        )
        assert small == dist
        assert len(small) < ds.count()  # the corpus does contain near-dups

    def test_exact_collapse_is_output_identical_on_dup_heavy_corpus(
        self, ray_session, docs
    ):
        """minhash_dedup collapses exact duplicates to the min-STRING
        doc_id representative before detection; the survivor set must
        still equal full-uncollapsed-corpus semantics (the plain-Python
        clique-mode twin), on BOTH physical regimes. The 4× amplified
        ids (d, d+1e6, d+2e6, ...) interleave string-wise with the
        originals, so the min-STRING representative of an exact group
        is often NOT the original doc — exercising the proof's corner."""
        import os
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        sys.path.insert(0, os.path.join(root, "scripts"))
        from gen_fixtures import minhash_survivors_py

        base = docs.select_columns(["doc_id", "text"]).to_pandas()
        amp = pd.concat(
            [base.assign(doc_id=base["doc_id"] + k * 1_000_000) for k in range(4)],
            ignore_index=True,
        )
        want = minhash_survivors_py(
            dict(zip(amp["doc_id"], amp["text"])), threshold=0.8
        )
        ds = ray.data.from_pandas(amp).repartition(8).materialize()
        small = sorted(
            r["doc_id"] for r in dedup.minhash_dedup(ds, threshold=0.8).take_all()
        )
        assert small == want
        dist = sorted(
            r["doc_id"]
            for r in dedup.minhash_dedup(
                ds, threshold=0.8, driver_max_pairs=-1
            ).take_all()
        )
        assert dist == want
        # every amplified copy beyond its group's representative dropped
        assert len(want) < len(base)

    def test_auto_bands_rule(self):
        from ontograph_ray.stages.dedup import auto_bands

        assert auto_bands(64, 0.85) == 8
        assert auto_bands(64, 0.8) == 8
        assert auto_bands(64, 0.5) == 16
        assert auto_bands(64, 0.95) == 4
        assert auto_bands(64, 1.0) == 1
        # s-curve threshold of the chosen banding never exceeds the
        # verify threshold (recall-side alignment)
        for t in (0.3, 0.5, 0.7, 0.8, 0.9):
            b = auto_bands(64, t)
            assert (1.0 / b) ** (b / 64) <= t


class TestCumsumOver:
    def test_running_total_matches_bruteforce(self, ray_session):
        from ontograph_ray.stages.windows import cumsum_over

        df = pd.DataFrame(
            {
                "g": [1, 1, 1, 2, 2, 3],
                "o": [3, 1, 2, 1, 2, 1],
                "v": [10, 1, 100, 7, -2, 5],
            }
        )
        ds = ray.data.from_pandas(df).repartition(3)
        out = (
            cumsum_over(ds, ["g"], ["o"], "v")
            .to_pandas()
            .sort_values(["g", "o"])
            .reset_index(drop=True)
        )
        want = df.sort_values(["g", "o"]).reset_index(drop=True)
        want["running_total"] = want.groupby("g")["v"].cumsum()
        assert out[["g", "o", "v", "running_total"]].equals(
            want[["g", "o", "v", "running_total"]]
        )


class TestModeOver:
    def test_tie_break_and_counts(self, ray_session):
        from ontograph_ray.stages.windows import mode_over

        df = pd.DataFrame(
            {
                "g": [1, 1, 1, 1, 2, 2],
                "v": ["b", "a", "b", "a", "z", "z"],
            }
        )
        out = (
            mode_over(ray.data.from_pandas(df).repartition(3), ["g"], "v")
            .to_pandas()
            .set_index("g")
            .sort_index()
        )
        # g=1: a and b tie at 2 → value-ascending tie-break picks a
        assert out.loc[1].tolist() == ["a", 2]
        assert out.loc[2].tolist() == ["z", 2]


class TestOhlcDownsample:
    def test_hand_computed(self, ray_session):
        from ontograph_ray.stages.windows import ohlc_downsample

        df = pd.DataFrame(
            {
                "u": [1, 1, 1, 1, 2],
                # window size 100us: rows 0-2 in win 0, row 3 in win 1
                "ts": pd.to_datetime([10, 50, 90, 150, 20], unit="us").astype(
                    "datetime64[us]"
                ),
                "eid": [1, 2, 3, 4, 5],
                "v": [5.0, 9.0, 2.0, 7.0, 3.0],
            }
        )
        out = (
            ohlc_downsample(
                ray.data.from_pandas(df).repartition(2),
                "u",
                "ts",
                ["ts", "eid"],
                "v",
                size_us=100,
            )
            .to_pandas()
            .set_index(["u", "win"])
            .sort_index()
        )
        assert out.loc[(1, 0)].tolist() == [5.0, 9.0, 2.0, 2.0, 3]
        assert out.loc[(1, 1)].tolist() == [7.0, 7.0, 7.0, 7.0, 1]
        assert out.loc[(2, 0)].tolist() == [3.0, 3.0, 3.0, 3.0, 1]

    def test_tie_broken_by_order_col(self, ray_session):
        from ontograph_ray.stages.windows import ohlc_downsample

        # equal timestamps: eid orders open/close deterministically
        df = pd.DataFrame(
            {
                "u": [1, 1],
                "ts": pd.to_datetime([10, 10], unit="us").astype(
                    "datetime64[us]"
                ),
                "eid": [2, 1],
                "v": [8.0, 4.0],
            }
        )
        out = ohlc_downsample(
            ray.data.from_pandas(df), "u", "ts", ["ts", "eid"], "v", size_us=100
        ).to_pandas()
        assert out["open"].tolist() == [4.0]
        assert out["close"].tolist() == [8.0]


class TestFunnelCounts:
    def test_hand_computed(self, ray_session):
        from ontograph_ray.stages.windows import funnel_counts

        # u1 completes A→B→C; u2 does A,B but B precedes A (no step 2);
        # u3 does A only; u4 does B,C without A (never enters)
        df = pd.DataFrame(
            {
                "u": [1, 1, 1, 2, 2, 3, 4, 4],
                "ts": pd.to_datetime(
                    [10, 20, 30, 40, 50, 60, 70, 80], unit="s"
                ),
                "t": ["A", "B", "C", "B", "A", "A", "B", "C"],
            }
        )
        out = (
            funnel_counts(
                ray.data.from_pandas(df).repartition(3),
                "u",
                "ts",
                "t",
                ["A", "B", "C"],
            )
            .to_pandas()
            .sort_values("step")
        )
        assert out["users"].tolist() == [3, 1, 1]
        assert out["event_type"].tolist() == ["A", "B", "C"]

    def test_same_timestamp_not_counted(self, ray_session):
        from ontograph_ray.stages.windows import funnel_counts

        # strictly-after semantics: B at the same instant as A does
        # not advance the funnel
        df = pd.DataFrame(
            {
                "u": [1, 1],
                "ts": pd.to_datetime([10, 10], unit="s"),
                "t": ["A", "B"],
            }
        )
        out = (
            funnel_counts(ray.data.from_pandas(df), "u", "ts", "t", ["A", "B"])
            .to_pandas()
            .sort_values("step")
        )
        assert out["users"].tolist() == [1, 0]


class TestFrameSumOver:
    def test_moving_frame_matches_duckdb(self, ray_session):
        import duckdb

        from ontograph_ray.stages.windows import frame_sum_over

        rng = np.random.default_rng(7)
        df = pd.DataFrame(
            {
                "g": rng.integers(0, 5, 40),
                "o": np.arange(40),
                "v": rng.integers(-50, 50, 40).astype("int64"),
            }
        )
        ds = ray.data.from_pandas(df).repartition(4)
        out = (
            frame_sum_over(ds, ["g"], ["o"], "v", preceding=2)
            .to_pandas()
            .sort_values(["g", "o"])
            .reset_index(drop=True)
        )
        want = duckdb.sql(
            """SELECT g, o, v,
                      CAST(SUM(v) OVER (PARTITION BY g ORDER BY o
                           ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
                           AS BIGINT) AS frame_sum
               FROM df ORDER BY g, o"""
        ).df()
        assert out[["g", "o", "v", "frame_sum"]].equals(
            want[["g", "o", "v", "frame_sum"]]
        )

    def test_preceding_zero_is_identity(self, ray_session):
        from ontograph_ray.stages.windows import frame_sum_over

        df = pd.DataFrame({"g": [1, 1, 2], "o": [1, 2, 1], "v": [5, 7, 9]})
        out = (
            frame_sum_over(
                ray.data.from_pandas(df), ["g"], ["o"], "v", preceding=0
            )
            .to_pandas()
            .sort_values(["g", "o"])
        )
        assert out["frame_sum"].tolist() == [5, 7, 9]


class TestNtileOver:
    def test_matches_duckdb_including_remainders(self, ray_session):
        import duckdb

        from ontograph_ray.stages.windows import ntile_over

        rng = np.random.default_rng(11)
        # partition sizes 1..9 cover N<n, N=n, N%n in {0,1,2,3}
        rows = []
        for g in range(1, 10):
            for i in range(g):
                rows.append((g, int(rng.integers(0, 1000)) * 10 + i))
        df = pd.DataFrame(rows, columns=["g", "o"])
        ds = ray.data.from_pandas(df).repartition(4)
        out = (
            ntile_over(ds, ["g"], ["o"], 4)
            .to_pandas()
            .sort_values(["g", "o"])
            .reset_index(drop=True)
        )
        want = duckdb.sql(
            """SELECT g, o,
                      CAST(NTILE(4) OVER (PARTITION BY g ORDER BY o)
                           AS BIGINT) AS tile
               FROM df ORDER BY g, o"""
        ).df()
        assert out[["g", "o", "tile"]].equals(want[["g", "o", "tile"]])

    def test_descending_order(self, ray_session):
        from ontograph_ray.stages.windows import ntile_over

        df = pd.DataFrame({"g": [1] * 5, "o": [10, 20, 30, 40, 50]})
        out = (
            ntile_over(
                ray.data.from_pandas(df), ["g"], ["o"], 2, ascending=[False]
            )
            .to_pandas()
            .set_index("o")["tile"]
        )
        # desc order 50,40,30,20,10 → first bucket (size 3) gets 50,40,30
        assert out.to_dict() == {50: 1, 40: 1, 30: 1, 20: 2, 10: 2}


class TestDistRankOver:
    def test_matches_duckdb_with_ties_and_singletons(self, ray_session):
        import duckdb

        from ontograph_ray.stages.windows import dist_rank_over

        rng = np.random.default_rng(7)
        rows = []
        for g in range(1, 8):  # size-1 partition included (g=1)
            for _ in range(g):
                # small value domain forces ties inside partitions
                rows.append((g, int(rng.integers(0, 3))))
        df = pd.DataFrame(rows, columns=["g", "v"]).assign(i=range(len(rows)))
        ds = ray.data.from_pandas(df).repartition(4)
        out = (
            dist_rank_over(ds, ["g"], "v", ascending=False, extra_cols=["i"])
            .to_pandas()
            .sort_values("i")
            .reset_index(drop=True)
        )
        want = duckdb.sql(
            """SELECT g, v, i,
                      PERCENT_RANK() OVER (PARTITION BY g ORDER BY v DESC)
                        AS percent_rank,
                      CUME_DIST() OVER (PARTITION BY g ORDER BY v DESC)
                        AS cume_dist
               FROM df ORDER BY i"""
        ).df()
        cols = ["g", "v", "i", "percent_rank", "cume_dist"]
        # bit-exact float equality is the contract (single int division)
        assert out[cols].equals(want[cols])
        # SQL rule: single-row partition → percent_rank 0.0, cume_dist 1.0
        solo = out[out.g == 1]
        assert solo.percent_rank.tolist() == [0.0]
        assert solo.cume_dist.tolist() == [1.0]


class TestRankOver:
    def test_rank_and_dense_rank_ties(self, ray_session):
        from ontograph_ray.stages.windows import rank_over

        df = pd.DataFrame(
            {
                "g": [1, 1, 1, 1, 2],
                "v": [9.0, 9.0, 5.0, 7.0, 3.0],
                "id": [10, 11, 12, 13, 20],
            }
        )
        ds = ray.data.from_pandas(df).repartition(3)
        plain = (
            rank_over(ds, ["g"], "v", ascending=False, extra_cols=["id"])
            .to_pandas()
            .sort_values("id")
        )
        # 9,9 share rank 1; 7 gets rank 3 (gap); 5 gets rank 4
        assert plain["rnk"].tolist() == [1, 1, 4, 3, 1]
        dense = (
            rank_over(
                ds, ["g"], "v", ascending=False, dense=True, extra_cols=["id"]
            )
            .to_pandas()
            .sort_values("id")
        )
        assert dense["rnk"].tolist() == [1, 1, 3, 2, 1]


class TestKmeansDriverCutover:
    """The driver small regime and the distributed exchange form of the
    int64 Lloyd loop must be bit-identical (same integer ops, different
    physical plan) — and the fused PQ trainer must reproduce the m
    standalone per-subspace fits exactly."""

    def _blob_ds(self, n=60, d=6, seed=11):
        rng = np.random.default_rng(seed)
        mat = rng.normal(0, 1.0, (n, d)) + rng.integers(0, 3, (n, 1)) * 4.0
        ids = np.arange(n, dtype=np.int64)
        return ray.data.from_pandas(
            pd.DataFrame({"vec_id": ids, "embedding": list(map(list, mat))})
        ).repartition(5)

    def test_kmeans_driver_vs_distributed_bitwise(self, ray_session):
        from ontograph_ray.stages.cluster import kmeans_fixed_point

        ds = self._blob_ds()
        local = kmeans_fixed_point(ds, k=4, iters=5)  # small → driver regime
        dist = kmeans_fixed_point(ds, k=4, iters=5, driver_max_cells=0)
        assert (local == dist).all()

    def test_pq_fused_vs_per_subspace_bitwise(self, ray_session):
        from ontograph_ray.stages.cluster import (
            _pq_train_q,
            _prep_quantized,
            kmeans_fixed_point,
        )

        ds = self._blob_ds(n=40, d=6)
        m, k, iters, sub = 3, 4, 4, 2
        prepped = _prep_quantized(ds, 16, "vec_id", "embedding")
        # fused trainer, both regimes
        fused_local = _pq_train_q(prepped, m=m, k=k, iters=iters, id_col="vec_id")
        fused_dist = _pq_train_q(
            prepped, m=m, k=k, iters=iters, id_col="vec_id", driver_max_cells=0
        )
        assert (fused_local == fused_dist).all()
        # the m standalone fits over sliced float datasets (the
        # pre-fusion structure) — quantize→slice commutes with
        # slice→quantize, so each book must match bit-for-bit
        df = ds.to_pandas().sort_values("vec_id")
        for j in range(m):
            sliced = ray.data.from_pandas(
                pd.DataFrame(
                    {
                        "vec_id": df["vec_id"].to_numpy(),
                        "embedding": [
                            list(v[j * sub : (j + 1) * sub])
                            for v in df["embedding"]
                        ],
                    }
                )
            ).repartition(3)
            book_j = kmeans_fixed_point(sliced, k=k, iters=iters)
            assert (fused_local[j] == book_j).all()
