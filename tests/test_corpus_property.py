"""Property-based tests (hypothesis) for the pure kernels behind the
corpus-prep operators — the vectorized Arrow/numpy fast paths must
agree with obvious scalar Python on arbitrary inputs:

- classifier feature counts vs `re`-based per-string counting
- decontamination n-gram windows vs per-doc Python n-grams (the
  boundary mask must drop exactly the windows straddling documents)
- vectorized splitmix64 vs a scalar pure-Python transcription
"""

import re

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

# texts of space-separated alphanumeric-ish tokens (the operators'
# domain: whitespace-tokenized corpus text; no NUL, no surrogates)
token = st.text(st.sampled_from("abcXYZ019.,!?"), min_size=1, max_size=6)
text = st.builds(" ".join, st.lists(token, min_size=1, max_size=12))
texts = st.lists(text, min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(texts)
def test_classifier_features_match_re(docs):
    from ontograph_ray.stages.text import _classifier_features

    feats = _classifier_features(pa.array(docs, pa.string()))
    for i, t in enumerate(docs):
        assert feats[0, i] == len(t.split(" "))
        assert feats[1, i] == len(re.findall(r"\bthe\b", t)) + len(
            re.findall(r"\ba\b", t)
        )
        assert feats[2, i] == len(re.findall(r"[^\w\s]", t))
        assert feats[3, i] == len(t)


@settings(max_examples=150, deadline=None)
@given(texts, st.integers(min_value=1, max_value=5))
def test_batch_ngrams_match_per_doc(docs, n):
    from ontograph_ray.stages.decontam import _batch_ngrams

    ngrams, doc_idx, valid, counts = _batch_ngrams(pa.array(docs, pa.string()), n)
    expect = []
    for d, t in enumerate(docs):
        toks = t.split(" ")
        expect += [
            (d, " ".join(toks[i : i + n])) for i in range(len(toks) - n + 1)
        ]
    if ngrams is None:
        assert expect == []
        return
    got = [
        (int(d), g)
        for d, g, v in zip(doc_idx, ngrams.to_pylist(), valid)
        if v
    ]
    assert got == expect
    assert counts.tolist() == [len(t.split(" ")) for t in docs]


def _splitmix64_scalar(x: int) -> int:
    m = (1 << 64) - 1
    h = (x + 0x9E3779B97F4A7C15) & m
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & m
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & m
    h ^= h >> 31
    return h


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=32))
def test_splitmix64_vector_matches_scalar(xs):
    from ontograph_ray.store.dataset import splitmix64

    got = splitmix64(np.asarray(xs, dtype=np.uint64))
    assert got.tolist() == [_splitmix64_scalar(x) for x in xs]


class TestChunkDocumentsProperty:
    """Hypothesis: chunk_documents equals a naive per-document twin for
    arbitrary texts, windows and strides."""

    def test_matches_naive_twin(self, ray_session):
        from hypothesis import given, settings, strategies as st

        import pandas as pd
        import ray.data

        from ontograph_ray.stages.packing import chunk_documents

        texts_st = st.lists(
            st.text(
                alphabet=st.sampled_from("ab x"), min_size=0, max_size=40
            ),
            min_size=1,
            max_size=6,
        )

        @settings(max_examples=30, deadline=None)
        @given(
            texts=texts_st,
            window=st.integers(1, 8),
            extra=st.integers(0, 4),
        )
        def run(texts, window, extra):
            stride = max(1, window - extra)
            ds = ray.data.from_pandas(
                pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
            )
            got = (
                chunk_documents(ds, window=window, stride=stride)
                .to_pandas()
                .sort_values(["doc_id", "chunk_id"])
                .reset_index(drop=True)
            )
            rows = []
            for i, t in enumerate(texts):
                toks = t.split(" ")
                n = len(toks)
                for c in range((n + stride - 1) // stride):
                    piece = toks[c * stride : c * stride + window]
                    rows.append((i, c, len(piece), " ".join(piece)))
            assert [tuple(r) for r in got.values.tolist()] == rows

        run()
