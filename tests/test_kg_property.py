"""Property tests for the build_kg detect kernels (no Ray).

`_mentions_distinct_batch` and `_ent_rel_partials_batch` code each
gazetteer hit by integers and make their distincts over int64 keys.
Over generated pages they must answer exactly as a plain Python pass
over the same pages: split the text on spaces, keep the gazetteer
tokens, and collect the (url, lang, surface) mentions, the
(surface, lang) entities and the adjacent differing same-page pairs as
(src, dst) alias IRIs. A null lang is one group of its own, and an
alias IRI built from it is null.
"""

from __future__ import annotations

import pyarrow as pa
from hypothesis import given, settings, strategies as st

from ontograph_ray.pipelines import kg

_GAZ = set(kg.GAZETTEER)
# a few gazetteer words (so runs of one surface and repeats are
# common), stopwords, a non-word and the empty token of a double space
_tokens = st.sampled_from(["data", "join", "sort", "key", "the", "a", "zebra", ""])
_page = st.tuples(
    st.sampled_from(["en", "de", "fr", None]),
    st.lists(_tokens, max_size=12).map(" ".join),
)


def _batch(pages):
    return pa.table(
        {
            "url": pa.array([f"https://example.org/p{i}" for i in range(len(pages))]),
            "lang": pa.array([lang for lang, _ in pages], pa.string()),
            "text": pa.array([text for _, text in pages], pa.string()),
        }
    )


def _alias(surface, lang):
    return None if lang is None else kg.alias_uri(surface, lang)


def _reference(pages):
    mentions, ents, rels = set(), set(), set()
    for i, (lang, text) in enumerate(pages):
        hits = [t for t in text.split(" ") if t in _GAZ]
        for h in hits:
            mentions.add((f"https://example.org/p{i}", lang, h))
            ents.add((h, lang))
        for a, b in zip(hits, hits[1:]):
            if a != b:
                rels.add((_alias(a, lang), _alias(b, lang)))
    return mentions, ents, rels


def _rows(tbl, cols):
    return list(zip(*[tbl[c].to_pylist() for c in cols]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_page, max_size=8))
def test_detect_kernels_match_python_reference(pages):
    batch = _batch(pages)
    want_m, want_e, want_r = _reference(pages)

    m = _rows(kg._mentions_distinct_batch(batch), ["url", "lang", "surface"])
    assert len(m) == len(set(m))
    assert set(m) == want_m

    part = kg._ent_rel_partials_batch(batch)
    kinds = part["kind"].to_pylist()
    ents = [r for r, k in zip(_rows(part, ["surface", "lang"]), kinds) if k == "e"]
    rels = [r for r, k in zip(_rows(part, ["src", "dst"]), kinds) if k == "r"]
    assert set(kinds) <= {"e", "r"}
    assert len(ents) == len(set(ents))
    assert set(ents) == want_e
    assert set(rels) == want_r


def test_detect_kernels_on_pages_without_hits():
    # empty text, no gazetteer token, and no page at all: typed, empty
    for pages in ([("en", ""), ("de", "the zebra")], []):
        batch = _batch(pages)
        m = kg._mentions_distinct_batch(batch)
        assert m.num_rows == 0
        assert m.schema.names == ["url", "lang", "surface"]
        part = kg._ent_rel_partials_batch(batch)
        assert part.num_rows == 0
        assert part.schema == pa.schema(
            [(c, pa.string()) for c in ("kind", "surface", "lang", "src", "dst")]
        )
