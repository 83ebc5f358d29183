"""Property-based codec tests (hypothesis) — the lossless image codecs'
invariants over arbitrary dimensions and content, beyond fixed seeds:

- PNG and GIF are LOSSLESS: decode(encode(img)) == img exactly.
- GIF's LZW layer round-trips arbitrary byte strings (dictionary
  growth, resets, KwKwK, width-boundary alignments).

These run pure numpy/stdlib — no Ray session needed.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from ontograph_ray.stages import image_codecs as ic

dims = st.tuples(st.integers(1, 40), st.integers(1, 40))
seeds = st.integers(0, 2**31 - 1)


@settings(max_examples=40, deadline=None)
@given(dims, seeds)
def test_png_gray_lossless(wh, seed):
    w, h = wh
    img = ic.decode_png_gray(ic.encode_png_gray(w, h, seed))
    assert np.array_equal(img, ic._image_pixels(w, h, seed).reshape(h, w))


@settings(max_examples=25, deadline=None)
@given(dims, seeds)
def test_png_color_lossless(wh, seed):
    w, h = wh
    img = ic.decode_png_color(ic.encode_png_color(w, h, seed))
    assert np.array_equal(img, np.moveaxis(ic._rgb_pixels(w, h, seed), 0, -1))


@settings(max_examples=40, deadline=None)
@given(dims, seeds)
def test_gif_lossless(wh, seed):
    w, h = wh
    img = ic.decode_gif_gray(ic.encode_gif_gray(w, h, seed))
    assert np.array_equal(img, ic._image_pixels(w, h, seed).reshape(h, w))


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=6000))
def test_gif_lzw_roundtrip_arbitrary_bytes(data):
    assert ic._gif_lzw_decode(ic._gif_lzw_encode(data)) == data
