"""Lossless grayscale and RGB image codecs, pure numpy and stdlib.

PNG (RFC 2083, stdlib ``zlib``) and GIF87a (LZW with a gray-ramp
palette) encoders and decoders for deterministic seeded content. They
are the last piece of the removed media family: no registry key, stage
or fixture uses them, only their own tests (``TestPngCodec``,
``TestGifCodec`` and ``tests/test_codecs_property.py``). Nothing on the
KG path imports this module, and ``stages/__init__`` does not re-export
it.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np


def _image_pixels(width: int, height: int, seed: int) -> np.ndarray:
    """Deterministic grayscale pixel grid shared by both codecs."""
    rng = np.random.RandomState(seed)
    return rng.randint(0, 256, size=width * height, dtype=np.uint8)


def _rgb_pixels(width: int, height: int, seed: int) -> np.ndarray:
    """Deterministic RGB pixel grid (3, height, width) for color
    PNG — same RandomState discipline as ``_image_pixels``."""
    rng = np.random.RandomState(seed)
    return rng.randint(0, 256, size=(3, height, width), dtype=np.uint8)


# ---------------------------------------------------------------------------
# PNG — a REAL compressed codec via stdlib ``zlib`` (RFC 2083).
#
# PNG is DEFLATE (zlib, stdlib — no external libraries) over
# per-scanline filtered bytes. The encoder here writes the full
# container: signature, IHDR/IDAT/IEND chunks with CRC-32, and cycles
# through ALL FIVE filter types (None/Sub/Up/Average/Paeth, one per
# scanline, ``y % 5``) so the decoder's complete unfilter grammar is
# exercised on every image taller than 4 rows. 8-bit grayscale
# (color type 0) and 8-bit truecolor RGB (color type 2) — the two
# layouts `convert img.pgm img.png` / `convert img.ppm img.png` emit
# for our content. The codec is LOSSLESS, so the decoded pixels are
# pinned byte-identical to the synthesized content.
#
# Decode is chunk walk (CRC-verified) → one ``zlib.decompress`` →
# unfilter. Filters None/Up are whole-row vector ops; Sub is a modular
# prefix sum (``np.add.accumulate`` with uint8 wraparound, one call
# per row); Average/Paeth recurrences depend on the reconstructed left
# neighbor so they run as an x-loop with the channel vector inside —
# bounded per row, and only 2 of every 5 rows use them.
# ---------------------------------------------------------------------------

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _png_chunk(ctype: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + ctype
        + data
        + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
    )


def _png_encode(img: np.ndarray) -> bytes:
    """Encode a (height, width, channels) uint8 array (channels 1 or 3)
    as a PNG, cycling filter types ``y % 5`` per scanline."""
    h, w, c = img.shape
    bpp = c
    raw = bytearray()
    prev = np.zeros(w * c, dtype=np.int64)
    for y in range(h):
        row = img[y].reshape(-1).astype(np.int64)
        left = np.concatenate([np.zeros(bpp, np.int64), row[:-bpp]])
        upleft = np.concatenate([np.zeros(bpp, np.int64), prev[:-bpp]])
        ft = y % 5
        if ft == 0:
            filt = row
        elif ft == 1:  # Sub
            filt = row - left
        elif ft == 2:  # Up
            filt = row - prev
        elif ft == 3:  # Average
            filt = row - (left + prev) // 2
        else:  # Paeth
            p = left + prev - upleft
            pa_ = np.abs(p - left)
            pb_ = np.abs(p - prev)
            pc_ = np.abs(p - upleft)
            pred = np.where(
                (pa_ <= pb_) & (pa_ <= pc_),
                left,
                np.where(pb_ <= pc_, prev, upleft),
            )
            filt = row - pred
        raw.append(ft)
        raw.extend((filt & 0xFF).astype(np.uint8).tobytes())
        prev = row
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0 if c == 1 else 2, 0, 0, 0)
    return (
        _PNG_SIG
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(bytes(raw), 6))
        + _png_chunk(b"IEND", b"")
    )


def encode_png_gray(width: int, height: int, seed: int) -> bytes:
    """REAL compressed codec: 8-bit grayscale PNG (color type 0). Same
    deterministic pixel content as grayscale GIF."""
    px = _image_pixels(width, height, seed).reshape(height, width)
    return _png_encode(px[:, :, None])


def encode_png_color(width: int, height: int, seed: int) -> bytes:
    """REAL compressed codec: 8-bit truecolor PNG (color type 2). Same
    deterministic RGB content as ``_rgb_pixels`` for a given
    (dims, seed)."""
    px = _rgb_pixels(width, height, seed)  # (3, h, w)
    return _png_encode(np.moveaxis(px, 0, -1))


def _decode_png_pixels(payload: bytes) -> np.ndarray:
    """Decode a PNG payload → uint8 array, (h, w) grayscale or
    (h, w, 3) RGB. Verifies the signature and every chunk CRC; accepts
    8-bit depth, color types 0/2, no interlace — the layouts the
    module encoder and common converters emit for this content."""
    if payload[:8] != _PNG_SIG:
        raise ValueError("bad PNG signature")
    pos = 8
    ihdr = b""
    idat = bytearray()
    while pos + 12 <= len(payload):
        (length,) = struct.unpack(">I", payload[pos : pos + 4])
        ctype = payload[pos + 4 : pos + 8]
        data = payload[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(
            ">I", payload[pos + 8 + length : pos + 12 + length]
        )
        if zlib.crc32(ctype + data) & 0xFFFFFFFF != crc:
            raise ValueError(f"PNG chunk {ctype!r} CRC mismatch")
        if ctype == b"IHDR":
            ihdr = data
        elif ctype == b"IDAT":
            idat.extend(data)
        elif ctype == b"IEND":
            break
        pos += 12 + length
    w, h, depth, ctype_i, comp, filt, interlace = struct.unpack(">IIBBBBB", ihdr)
    if depth != 8 or ctype_i not in (0, 2):
        raise ValueError(
            f"only 8-bit grayscale/truecolor PNG supported "
            f"(depth {depth}, color type {ctype_i})"
        )
    if comp != 0 or filt != 0 or interlace != 0:
        raise ValueError("unsupported PNG compression/filter/interlace method")
    c = 1 if ctype_i == 0 else 3
    stride = w * c
    raw = zlib.decompress(bytes(idat))
    if len(raw) != h * (1 + stride):
        raise ValueError("PNG scanline data has the wrong length")
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int64)
    for y in range(h):
        off = y * (1 + stride)
        ft = raw[off]
        line = np.frombuffer(raw, np.uint8, stride, offset=off + 1).astype(
            np.int64
        )
        if ft == 0:
            recon = line
        elif ft == 1:  # Sub: modular prefix sum along x per channel
            recon = np.add.accumulate(
                line.reshape(w, c).astype(np.uint8), axis=0, dtype=np.uint8
            ).reshape(-1).astype(np.int64)
        elif ft == 2:  # Up
            recon = (line + prev) & 0xFF
        elif ft == 3:  # Average — left-neighbor recurrence, x-loop
            rec2 = line.reshape(w, c)
            pr2 = prev.reshape(w, c)
            acc = np.zeros(c, dtype=np.int64)
            outrows = np.empty((w, c), dtype=np.int64)
            for x in range(w):
                acc = (rec2[x] + (acc + pr2[x]) // 2) & 0xFF
                outrows[x] = acc
            recon = outrows.reshape(-1)
        elif ft == 4:  # Paeth — left-neighbor recurrence, x-loop
            rec2 = line.reshape(w, c)
            pr2 = prev.reshape(w, c)
            acc = np.zeros(c, dtype=np.int64)
            accul = np.zeros(c, dtype=np.int64)
            outrows = np.empty((w, c), dtype=np.int64)
            for x in range(w):
                p = acc + pr2[x] - accul
                pa_ = np.abs(p - acc)
                pb_ = np.abs(p - pr2[x])
                pc_ = np.abs(p - accul)
                pred = np.where(
                    (pa_ <= pb_) & (pa_ <= pc_),
                    acc,
                    np.where(pb_ <= pc_, pr2[x], accul),
                )
                acc = (rec2[x] + pred) & 0xFF
                accul = pr2[x]
                outrows[x] = acc
            recon = outrows.reshape(-1)
        else:
            raise ValueError(f"bad PNG filter type {ft}")
        out[y] = recon.astype(np.uint8)
        prev = recon
    return out.reshape(h, w) if c == 1 else out.reshape(h, w, 3)


def decode_png_gray(payload: bytes) -> np.ndarray:
    """Decode a grayscale PNG → uint8 (h, w)."""
    img = _decode_png_pixels(payload)
    if img.ndim != 2:
        raise ValueError("expected a grayscale (color type 0) PNG")
    return img


def decode_png_color(payload: bytes) -> np.ndarray:
    """Decode a truecolor PNG → uint8 (h, w, 3) RGB."""
    img = _decode_png_pixels(payload)
    if img.ndim != 3:
        raise ValueError("expected a truecolor (color type 2) PNG")
    return img


# ---------------------------------------------------------------------------
# GIF87a — a REAL compressed codec: LZW dictionary coding (the CompuServe
# GIF87a specification).
# Grayscale via a 256-entry gray-ramp global color table, so palette
# index == pixel value and the codec is LOSSLESS for our content.
#
# The LZW stream is variable-width codes (9→12 bits), LSB-first bit
# packing, 255-byte data sub-blocks, CLEAR/EOI control codes, with the
# standard table-growth discipline: both sides widen the code size when
# the table reaches 1 << code_size, and the encoder emits CLEAR before
# the 12-bit table fills. Encode/decode are per-payload Python loops —
# LZW's chained dictionary is inherently sequential.
# ---------------------------------------------------------------------------


def _gif_lzw_encode(data: bytes, min_code_size: int = 8) -> bytes:
    clear, eoi = 1 << min_code_size, (1 << min_code_size) + 1
    out = bytearray()
    acc = 0
    nbits = 0

    def emit(code: int, size: int) -> None:
        nonlocal acc, nbits
        acc |= code << nbits
        nbits += size
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8

    code_size = min_code_size + 1
    table: dict[tuple[int, int], int] = {}
    next_code = eoi + 1
    emit(clear, code_size)
    it = iter(data)
    w = next(it)
    for k in it:
        if (w, k) in table:
            w = table[(w, k)]
            continue
        emit(w, code_size)
        table[(w, k)] = next_code
        next_code += 1
        if next_code == (1 << code_size) and code_size < 12:
            code_size += 1
        elif next_code >= 4094:  # reset before the 12-bit table fills
            emit(clear, code_size)
            table.clear()
            code_size = min_code_size + 1
            next_code = eoi + 1
        w = k
    emit(w, code_size)
    # the decoder performs one more table add after reading this final
    # code (catching up to next_code) and widens on its (1<<S)-1
    # threshold — mirror that so EOI is written at the size it will be
    # read at
    if next_code == (1 << code_size) - 1 and code_size < 12:
        code_size += 1
    emit(eoi, code_size)
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


def _gif_lzw_decode(stream: bytes, min_code_size: int = 8) -> bytes:
    clear, eoi = 1 << min_code_size, (1 << min_code_size) + 1
    out = bytearray()
    pos = 0  # bit cursor

    def read(size: int) -> int:
        nonlocal pos
        v = 0
        for i in range(size):
            byte = pos >> 3
            if byte >= len(stream):
                raise ValueError("truncated GIF LZW stream")
            v |= ((stream[byte] >> (pos & 7)) & 1) << i
            pos += 1
        return v

    table = {i: bytes([i]) for i in range(1 << min_code_size)}
    next_code = eoi + 1
    code_size = min_code_size + 1
    prev: bytes | None = None
    while True:
        code = read(code_size)
        if code == clear:
            next_code = eoi + 1
            code_size = min_code_size + 1
            table = {i: bytes([i]) for i in range(1 << min_code_size)}
            prev = None
            continue
        if code == eoi:
            break
        if code in table:
            entry = table[code]
        elif code == next_code and prev is not None:
            entry = prev + prev[:1]  # the KwKwK case
        else:
            raise ValueError(f"bad GIF LZW code {code}")
        out.extend(entry)
        if prev is not None:
            table[next_code] = prev + entry[:1]
            next_code += 1
            # the decoder's table lags the encoder's by one entry, so
            # it widens one early relative to its own count — the
            # standard GIF convention
            if next_code == (1 << code_size) - 1 and code_size < 12:
                code_size += 1
        prev = entry
    return bytes(out)


def encode_gif_gray(width: int, height: int, seed: int) -> bytes:
    """REAL compressed codec: GIF87a with a 256-entry grayscale ramp
    palette (index == gray value → lossless for 8-bit content). Same
    deterministic pixel content as grayscale GIF."""
    px = _image_pixels(width, height, seed).tobytes()
    out = bytearray(b"GIF87a")
    # logical screen descriptor: global color table, 8 bits/pixel
    out += struct.pack("<HHBBB", width, height, 0xF7, 0, 0)
    for i in range(256):  # gray ramp
        out += bytes((i, i, i))
    out += b"\x2c" + struct.pack("<HHHHB", 0, 0, width, height, 0)
    out.append(8)  # LZW minimum code size
    lzw = _gif_lzw_encode(px)
    for off in range(0, len(lzw), 255):  # 255-byte sub-blocks
        chunk = lzw[off : off + 255]
        out.append(len(chunk))
        out += chunk
    out += b"\x00\x3b"  # block terminator + trailer
    return bytes(out)


def decode_gif_gray(payload: bytes) -> np.ndarray:
    """Decode a GIF87a grayscale-palette image → uint8 (h, w). Parses
    the logical screen + image descriptors, requires a gray-ramp global
    color table (palette[i] == (i,i,i)) and no interlace, reassembles
    the sub-blocks and LZW-decompresses."""
    if payload[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("bad GIF signature")
    sw, sh, flags, _bg, _ar = struct.unpack("<HHBBB", payload[6:13])
    if not flags & 0x80:
        raise ValueError("GIF without a global color table")
    gct_size = 2 << (flags & 0x07)
    pos = 13
    pal = payload[pos : pos + 3 * gct_size]
    pos += 3 * gct_size
    if gct_size != 256 or any(
        pal[3 * i] != i or pal[3 * i + 1] != i or pal[3 * i + 2] != i
        for i in range(256)
    ):
        raise ValueError("only gray-ramp-palette GIFs supported")
    while payload[pos] != 0x2C:  # skip extension blocks to the image
        if payload[pos] != 0x21:
            raise ValueError(f"unexpected GIF block 0x{payload[pos]:02x}")
        pos += 2
        while payload[pos]:  # extension sub-blocks
            pos += 1 + payload[pos]
        pos += 1
    left, top, w, h, iflags = struct.unpack("<HHHHB", payload[pos + 1 : pos + 10])
    pos += 10
    if iflags & 0xC0:
        raise ValueError("local color tables / interlace not supported")
    min_code = payload[pos]
    pos += 1
    lzw = bytearray()
    while payload[pos]:
        n = payload[pos]
        lzw += payload[pos + 1 : pos + 1 + n]
        pos += 1 + n
    data = _gif_lzw_decode(bytes(lzw), min_code)
    if len(data) != w * h:
        raise ValueError("GIF pixel count mismatch")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)


