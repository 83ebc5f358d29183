"""Generate golden-oracle parquet fixtures for registry queries whose
ground truth is deterministic but not ANSI-SQL-expressible (sha1/crc32
in the kernels). The driver's correctness gate runs at sf=0.01; these
fixtures give those queries a real value-hash comparison there instead
of a rows-only check.

INDEPENDENCE: every fixture is computed by a plain-Python
reimplementation in THIS file — struct/zlib/math, no numpy, no
imports from ontograph_ray.stages — so a bug in the vectorized engine
kernels cannot cancel out of the comparison. Only the deterministic
corpus generator (stages/text.py::synthesize_webpages, a data source
equivalent to reading an input parquet) is shared.

Usage: python scripts/gen_fixtures.py   (writes fixtures/*.parquet)
"""

from __future__ import annotations

import math
import os
import struct
import sys
import zlib

import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

FIXTURES_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")
DEFAULT_SF = "/root/testdata/sf0.01"


def tag_of(sf_dir: str) -> str:
    """Fixture filename tag for an sf dir: basename with dots dropped —
    "/root/testdata/sf0.01" → "sf001" (the round-1/2 fixture names),
    "sf0.001" → "sf0001", "sf0.1" → "sf01". Fixtures are therefore
    keyed by the data they were computed from; running the oracle
    harness at any sf generates/uses that sf's own fixtures instead of
    silently comparing against sf0.01 truth (round-2 verdict #5b)."""
    return os.path.basename(os.path.normpath(sf_dir)).replace(".", "")


def _path(name: str, sf_dir: str) -> str:
    return os.path.join(FIXTURES_DIR, f"{name}_{tag_of(sf_dir)}.parquet")


# -- independent simhash (matches stages/dedup.SimHasher's contract:
#    64-bit = crc32(token) | crc32(reversed token)<<32, bit votes) -----------


def simhash_py(text: str) -> int:
    toks = text.split(" ")
    if not toks:
        return 0
    votes = [0] * 64
    for t in toks:
        h = zlib.crc32(t.encode()) | (zlib.crc32(t[::-1].encode()) << 32)
        for b in range(64):
            votes[b] += 1 if (h >> b) & 1 else -1
    out = 0
    for b in range(64):
        if votes[b] > 0:
            out |= 1 << b
    return out


def gen_simhash_pairs(sf_dir: str = DEFAULT_SF, max_hamming: int = 2) -> str:
    """Brute-force ALL-pairs simhash near-dups over the sf0.01
    documents table. Valid as an EXACT oracle for
    simhash_near_dup_pairs(max_hamming<=3): 4-way 16-bit chunk banding
    has recall 1.0 by pigeonhole (hamming<=3 over 4 chunks forces one
    identical chunk), so banding and brute force produce the same
    set."""
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ids = docs["doc_id"].to_pylist()
    sigs = [simhash_py(t) for t in docs["text"].to_pylist()]
    order = sorted(range(len(ids)), key=lambda i: ids[i])
    srcs, dsts, hams = [], [], []
    for a in range(len(order) - 1):
        ia = order[a]
        for b in range(a + 1, len(order)):
            ib = order[b]
            d = bin(sigs[ia] ^ sigs[ib]).count("1")
            if d <= max_hamming:
                srcs.append(ids[ia])
                dsts.append(ids[ib])
                hams.append(d)
    path = _path("simhash_pairs_h2", sf_dir)
    pq.write_table(
        pa.table(
            {
                "src_id": pa.array(srcs, pa.int64()),
                "dst_id": pa.array(dsts, pa.int64()),
                "hamming": pa.array(hams, pa.int64()),
            }
        ),
        path,
    )
    return f"{path}: {len(srcs)} pairs"


def gen_winnow_fingerprints(sf_dir: str = DEFAULT_SF, k: int = 7, w: int = 8) -> str:
    """Independent plain-Python winnowing twin (Schleimer et al. 2003):
    Horner-form byte k-gram hashes mod 2^64, rightmost-min selection
    per window — no numpy, no ontograph_ray.stages import, so it
    cross-checks the engine's sliding-window matmul kernel."""
    mask = (1 << 64) - 1
    P = 1099511628211
    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    ids, poss, fps = [], [], []
    for doc_id, text in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        b = text.encode("utf-8")
        n = len(b)
        if n < k:
            continue
        h = []
        for i in range(n - k + 1):
            cur = 0
            for j in range(k):
                cur = (cur * P + b[i + j]) & mask
            h.append(cur)
        m = len(h)
        ww = min(w, m)
        sel = set()
        for s in range(m - ww + 1):
            win = h[s : s + ww]
            mn = min(win)
            sel.add(s + ww - 1 - win[::-1].index(mn))  # rightmost min
        for p_ in sorted(sel):
            ids.append(doc_id)
            poss.append(p_)
            fps.append(h[p_])
    path = _path("winnow_fingerprints", sf_dir)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "pos": pa.array(poss, pa.int64()),
                "fp": pa.array(fps, pa.uint64()),
            }
        ),
        path,
    )
    return f"{path}: {len(ids)} rows"


# -- independent MinHash / LSH / n-gram-Jaccard pipeline ---------------------
# Plain-Python reimplementation of the whole near-dup chain (shingle →
# minhash → banded LSH → candidates → exact-Jaccard verify → min-label
# union-find). Kernel math is Python ints/sets; numpy appears ONLY to
# obtain the seeded permutation coefficients, which are algorithm
# PARAMETERS (like the CRC polynomial), not kernel computation.

P61 = (1 << 61) - 1


def shingles_py(text: str, k: int = 5) -> frozenset:
    data = text.encode()
    if not text:
        return frozenset()
    if len(data) < k:
        return frozenset([zlib.crc32(data)])
    return frozenset(zlib.crc32(data[i : i + k]) for i in range(len(data) - k + 1))


def jaccard_py(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / max(1, len(a | b))


def minhash_coeffs(num_perm: int = 64, seed: int = 42):
    import numpy as np  # parameters only (seeded MT19937 constants)

    rng = np.random.RandomState(seed)
    a = rng.randint(1, 1 << 31, size=num_perm).tolist()
    b = rng.randint(0, 1 << 31, size=num_perm).tolist()
    return a, b


def signature_py(sh: frozenset, a: list, b: list) -> list:
    if not sh:
        return [0] * len(a)
    shl = list(sh)
    return [min((ai * x + bi) % P61 for x in shl) for ai, bi in zip(a, b)]


def lsh_pairs_py(
    sigs: dict, bands: int = 16, mode: str = "star", clique_cap: int = 2048
) -> set:
    """(band_id, band_hash) buckets → candidate pairs. band_hash =
    crc32 of the signature chunk as little-endian uint64 bytes (what
    np.uint64.tobytes() produces on the engine side)."""
    buckets: dict = {}
    for doc_id, sig in sigs.items():
        r = len(sig) // bands
        for bnd in range(bands):
            chunk = sig[bnd * r : (bnd + 1) * r]
            h = zlib.crc32(struct.pack(f"<{r}Q", *chunk))
            buckets.setdefault((bnd, h), []).append(doc_id)
    pairs: set = set()
    for ids in buckets.values():
        ids = sorted(set(ids))
        if len(ids) < 2:
            continue
        if mode == "clique" and len(ids) <= clique_cap:
            for i in range(len(ids) - 1):
                for j in range(i + 1, len(ids)):
                    pairs.add((ids[i], ids[j]))
        else:
            anchor = ids[0]
            for other in ids[1:]:
                pairs.add((anchor, other))
            for x, y in zip(ids[1:], ids[2:]):
                pairs.add((x, y))
    return pairs


def auto_bands_py(num_perm: int, threshold: float) -> int:
    """Parameter rule shared with stages/dedup.auto_bands (a knob, like
    the CRC polynomial — not kernel computation): smallest band count
    whose LSH s-curve threshold (1/b)^(b/num_perm) does not exceed the
    verify threshold."""
    for b in range(1, num_perm + 1):
        if num_perm % b == 0 and (1.0 / b) ** (b / num_perm) <= threshold:
            return b
    return num_perm


def verified_pairs_py(
    docs: dict, k: float, threshold: float, mode: str, bands: int = 16
) -> list:
    """docs: {doc_id: text} → sorted verified candidate pairs."""
    a, b = minhash_coeffs()
    sh = {i: shingles_py(t, k) for i, t in docs.items()}
    sigs = {i: signature_py(s, a, b) for i, s in sh.items()}
    cands = lsh_pairs_py(sigs, bands=bands, mode=mode)
    return sorted(
        (s, d) for s, d in cands if jaccard_py(sh[s], sh[d]) >= threshold
    )


def minhash_survivors_py(
    docs: dict, k: int = 5, threshold: float = 0.85, bands: int | None = None
) -> list:
    """minhash_dedup semantics: verified edges → min-STRING-label
    union-find (component ids are stringified doc ids in the engine) →
    drop non-representative members. Banding auto-aligned with the
    verify threshold (auto_bands_py), matching the engine default.
    Candidates are the FULL in-bucket cliques: the engine's two-phase
    verifier is clique-equivalent at the component level (proof in
    stages/dedup.verified_near_dup_edges), so clique mode here pins the
    engine's actual semantics rather than the round-2 star+chain
    approximation that merely coincided on that corpus. (Valid while
    no LSH bucket exceeds the engine's clique_cap=2048 — always true at
    fixture scales of ≤5000 docs.)"""
    if bands is None:
        bands = auto_bands_py(64, threshold)
    edges = verified_pairs_py(docs, k, threshold, mode="clique", bands=bands)
    parent: dict = {}

    def find(x: str) -> str:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for s, d in edges:
        ra, rb = find(str(s)), find(str(d))
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    losers = {int(n) for n in parent if find(n) != n}
    return sorted(i for i in docs if i not in losers)


def gen_minhash_dedup(sf_dir: str = DEFAULT_SF) -> str:
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    dmap = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    survivors = minhash_survivors_py(dmap, threshold=0.85)
    path = _path("minhash_dedup", sf_dir)
    pq.write_table(pa.table({"doc_id": pa.array(survivors, pa.int64())}), path)
    return f"{path}: {len(survivors)} survivors"


def gen_ngram_jaccard(sf_dir: str = DEFAULT_SF) -> str:
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    dmap = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    pairs = verified_pairs_py(dmap, k=5, threshold=0.8, mode="clique")
    path = _path("ngram_jaccard", sf_dir)
    pq.write_table(
        pa.table(
            {
                "src_id": pa.array([p[0] for p in pairs], pa.int64()),
                "dst_id": pa.array([p[1] for p in pairs], pa.int64()),
            }
        ),
        path,
    )
    return f"{path}: {len(pairs)} pairs"


def gen_curate_full(sf_dir: str = DEFAULT_SF) -> str:
    """Quality filter (ASCII \\w/\\s — RE2 semantics, matching the
    engine's pyarrow regex) → min-doc_id exact dedup on text → MinHash
    near-dup removal at threshold 0.85 → (doc_id, lang, n_tokens)."""
    import re

    docs = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    rows = list(
        zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist(), docs["lang"].to_pylist())
    )
    punct_re = re.compile(r"[^\w\s]", re.ASCII)
    filt = [
        (i, t, l)
        for i, t, l in rows
        if len(t.split(" ")) >= 5 and 10 * len(punct_re.findall(t)) <= 3 * len(t)
    ]
    best: dict = {}
    for i, t, l in filt:
        if t not in best or i < best[t][0]:
            best[t] = (i, l)
    winners = {i: (t, l) for t, (i, l) in best.items()}
    survivors = minhash_survivors_py(
        {i: t for i, (t, _) in winners.items()}, threshold=0.85
    )
    path = _path("curate_full", sf_dir)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(survivors, pa.int64()),
                "lang": pa.array([winners[i][1] for i in survivors], pa.string()),
                "n_tokens": pa.array(
                    [len(winners[i][0].split(" ")) for i in survivors], pa.int64()
                ),
            }
        ),
        path,
    )
    return f"{path}: {len(survivors)} rows"


# -- independent KMV sketch estimate -----------------------------------------


def splitmix64_py(v: int) -> int:
    m = 0xFFFFFFFFFFFFFFFF
    v = (v + 0x9E3779B97F4A7C15) & m
    v ^= v >> 30
    v = (v * 0xBF58476D1CE4E5B9) & m
    v ^= v >> 27
    v = (v * 0x94D049BB133111EB) & m
    v ^= v >> 31
    return v


def gen_kmv_distinct(sf_dir: str = DEFAULT_SF, k: int = 256) -> str:
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    hashes = sorted(
        {splitmix64_py(zlib.crc32(str(t).encode())) for t in docs["text"].to_pylist()}
    )
    if len(hashes) < k:
        est = len(hashes)
    else:
        est = int(round((k - 1) / (float(hashes[k - 1]) / float(1 << 64))))
    path = _path("kmv_distinct", sf_dir)
    pq.write_table(
        pa.table(
            {
                "estimated_distinct_texts": pa.array([est], pa.int64()),
                "k": pa.array([k], pa.int64()),
            }
        ),
        path,
    )
    return f"{path}: estimate {est}"


def gen_hll_distinct(sf_dir: str = DEFAULT_SF, p: int = 10) -> str:
    """Independent HyperLogLog: int.bit_length clz, dict-free register
    loop, the same pinned ascending-index float accumulation the
    engine documents (stages/sketch.py::hll_estimate contract)."""
    m = 1 << p
    mask = (1 << 64) - 1
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    regs = [0] * m
    for t in docs["text"].to_pylist():
        h = splitmix64_py(zlib.crc32(str(t).encode()))
        idx = h >> (64 - p)
        rem = (h << p) & mask
        rho = (64 - rem.bit_length() + 1) if rem else (64 - p + 1)
        if rho > regs[idx]:
            regs[idx] = rho
    alpha = 0.7213 / (1 + 1.079 / m)
    s = 0.0
    for v in regs:
        s += 2.0 ** (-v)
    e = alpha * m * m / s
    if e <= 2.5 * m:
        v0 = sum(1 for v in regs if v == 0)
        if v0:
            e = m * math.log(m / v0)
    est = int(round(e))
    path = _path("hll_distinct", sf_dir)
    pq.write_table(
        pa.table(
            {
                "estimated_distinct_texts": pa.array([est], pa.int64()),
                "m": pa.array([m], pa.int64()),
            }
        ),
        path,
    )
    return f"{path}: estimate {est}"


def gen_entity_pagerank(sf_dir: str = DEFAULT_SF, iters: int = 5, num: int = 85, den: int = 100) -> str:
    """Dict-based integer fixed-point PageRank over the doubled
    page↔entity mention graph (twin of pipelines/pagerank.py +
    q_entity_pagerank; integer arithmetic makes both sides exactly
    deterministic). Only the GAZETTEER surface list (data) is shared."""
    from ontograph_ray.pipelines.kg import GAZETTEER, ONTO  # data only

    scale = 1_000_000_000
    gaz = set(GAZETTEER)
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    edges = set()
    for doc_id, text in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        url = f"https://docs.example.org/page/{doc_id}"
        for surface in {t for t in text.split(" ") if t in gaz}:
            ent = f"{ONTO}#ent_{surface}"
            edges.add((url, ent))
            edges.add((ent, url))
    edges = sorted(edges)
    outdeg: dict[str, int] = {}
    for u, _ in edges:
        outdeg[u] = outdeg.get(u, 0) + 1
    nodes = sorted({n for e in edges for n in e})
    base = (scale * (den - num)) // den
    r = {n: scale for n in nodes}
    for _ in range(iters):
        s = {n: 0 for n in nodes}
        for u, v in edges:
            s[v] += r[u] // outdeg[u]
        r = {n: base + (num * s[n]) // den for n in nodes}
    path = _path("entity_pagerank", sf_dir)
    pq.write_table(
        pa.table(
            {
                "node": pa.array(nodes, pa.string()),
                "rank": pa.array([r[n] for n in nodes], pa.int64()),
            }
        ),
        path,
    )
    return f"{path}: {len(nodes)} nodes, {len(edges)} directed edges"


def gen_entity_hits(sf_dir: str = DEFAULT_SF, iters: int = 5) -> str:
    """Dict-based integer fixed-point HITS over the DIRECTED
    page→entity mention graph (twin of pipelines/pagerank.py::hits +
    q_entity_hits). Float HITS L2-normalizes; the engine (and this
    twin, independently) instead divides every raw score by
    q = max(1, max_raw // SCALE) — pure int64, order-free."""
    from ontograph_ray.pipelines.kg import GAZETTEER, ONTO  # data only

    scale = 1_000_000_000
    gaz = set(GAZETTEER)
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    edges = set()
    for doc_id, text in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        url = f"https://docs.example.org/page/{doc_id}"
        for surface in {t for t in text.split(" ") if t in gaz}:
            edges.add((url, f"{ONTO}#ent_{surface}"))
    edges = sorted(edges)
    nodes = sorted({n for e in edges for n in e})
    hub = {n: scale for n in nodes}
    auth = {n: 0 for n in nodes}
    for _ in range(iters):
        raw = {n: 0 for n in nodes}
        for u, v in edges:
            raw[v] += hub[u]
        q = max(1, max(raw.values()) // scale)
        auth = {n: raw[n] // q for n in nodes}
        raw = {n: 0 for n in nodes}
        for u, v in edges:
            raw[u] += auth[v]
        q = max(1, max(raw.values()) // scale)
        hub = {n: raw[n] // q for n in nodes}
    path = _path("entity_hits", sf_dir)
    pq.write_table(
        pa.table(
            {
                "node": pa.array(nodes, pa.string()),
                "hub": pa.array([hub[n] for n in nodes], pa.int64()),
                "auth": pa.array([auth[n] for n in nodes], pa.int64()),
            }
        ),
        path,
    )
    return f"{path}: {len(nodes)} nodes, {len(edges)} directed edges"


def gen_hll_grouped(sf_dir: str = DEFAULT_SF, p: int = 10) -> str:
    """Independent per-group HyperLogLog twin of
    stages/sketch.py::hll_grouped + q_distinct_users_by_type: one
    register array per event_type over crc32+splitmix64(str(user_id)),
    the same pinned-order float estimator as gen_hll_distinct."""
    m = 1 << p
    mask = (1 << 64) - 1
    ev = pq.read_table(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    regs: dict = {}
    for et, uid in zip(
        ev["event_type"].to_pylist(), ev["user_id"].to_pylist()
    ):
        r = regs.setdefault(et, [0] * m)
        h = splitmix64_py(zlib.crc32(str(uid).encode()))
        idx = h >> (64 - p)
        rem = (h << p) & mask
        rho = (64 - rem.bit_length() + 1) if rem else (64 - p + 1)
        if rho > r[idx]:
            r[idx] = rho
    out_g, out_e = [], []
    for et in sorted(regs):
        r = regs[et]
        alpha = 0.7213 / (1 + 1.079 / m)
        s = 0.0
        for v in r:
            s += 2.0 ** (-v)
        e = alpha * m * m / s
        if e <= 2.5 * m:
            v0 = sum(1 for v in r if v == 0)
            if v0:
                e = m * math.log(m / v0)
        out_g.append(et)
        out_e.append(int(round(e)))
    path = _path("hll_grouped", sf_dir)
    pq.write_table(
        pa.table(
            {
                "event_type": pa.array(out_g, pa.string()),
                "est": pa.array(out_e, pa.int64()),
            }
        ),
        path,
    )
    return f"{path}: {len(out_g)} groups"


def gen_perceptron_filter(sf_dir: str = DEFAULT_SF, epochs: int = 5) -> str:
    """Plain-Python twin of stages/text.py::perceptron_train/scores +
    q_perceptron_filter: the 4 integer quality features rebuilt with
    the re module, labels y = ±1 on n_chars ≥ 300, batch updates
    w += Σ_mis y·x / b += Σ_mis y per epoch, final integer scores."""
    import re

    docs = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "n_chars"]
    )
    ids = docs["doc_id"].to_pylist()
    texts = docs["text"].to_pylist()
    nch = docs["n_chars"].to_pylist()

    def feats(t: str):
        return (
            len(t.split(" ")),
            len(re.findall(r"\bthe\b", t)) + len(re.findall(r"\ba\b", t)),
            len(re.findall(r"[^\w\s]", t, re.ASCII)),
            len(t),
        )

    X = [feats(t) for t in texts]
    # integer mean-centering (floor), mirroring the engine
    mean = [sum(x[j] for x in X) // len(X) for j in range(4)]
    X = [tuple(x[j] - mean[j] for j in range(4)) for x in X]
    y = [1 if n >= 300 else -1 for n in nch]
    w = [0, 0, 0, 0]
    b = 0
    for _ in range(epochs):
        dw = [0, 0, 0, 0]
        db = 0
        for xi, yi in zip(X, y):
            if yi * (sum(a * c for a, c in zip(w, xi)) + b) <= 0:
                for j in range(4):
                    dw[j] += yi * xi[j]
                db += yi
        w = [a + d for a, d in zip(w, dw)]
        b += db
    scores = [sum(a * c for a, c in zip(w, xi)) + b for xi in X]
    path = _path("perceptron_filter", sf_dir)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "score": pa.array(scores, pa.int64()),
                "pred": pa.array(
                    [1 if s >= 0 else -1 for s in scores], pa.int64()
                ),
            }
        ),
        path,
    )
    acc = sum((s >= 0) == (yy == 1) for s, yy in zip(scores, y)) / len(y)
    return f"{path}: {len(ids)} docs, w={w}, b={b}, train_acc={acc:.3f}"


def gen_entity_sssp(sf_dir: str = DEFAULT_SF, max_rounds: int = 50) -> str:
    """Plain-Python twin of graphstats.sssp + q_entity_sssp: co-mention
    edges with weight 10000 // support, undirected integer
    Bellman-Ford from the lexicographically smallest entity."""
    from ontograph_ray.pipelines.kg import GAZETTEER  # data only

    gaz = set(GAZETTEER)
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    support: dict = {}
    for text in docs["text"].to_pylist():
        ents = sorted({t for t in text.split(" ") if t in gaz})
        for i, u in enumerate(ents):
            for v in ents[i + 1:]:
                support[(u, v)] = support.get((u, v), 0) + 1
    edges = []
    for (u, v), s in support.items():
        w = 10_000 // s
        edges.append((u, v, w))
        edges.append((v, u, w))
    edges.sort()
    source = min(u for u, _, _ in edges)
    dist = {source: 0}
    for _ in range(max_rounds + 1):
        improved = {}
        for u, v, w in edges:
            if u in dist:
                nd = dist[u] + w
                if nd < dist.get(v, nd + 1) and nd < improved.get(v, nd + 1):
                    improved[v] = nd
        improved = {v: d for v, d in improved.items() if d < dist.get(v, d + 1)}
        if not improved:
            break
        dist.update(improved)
    else:
        raise RuntimeError("twin sssp did not converge")
    nodes = sorted(dist)
    path = _path("entity_sssp", sf_dir)
    pq.write_table(
        pa.table(
            {
                "node": pa.array(nodes, pa.string()),
                "dist": pa.array([dist[n] for n in nodes], pa.int64()),
            }
        ),
        path,
    )
    return f"{path}: {len(nodes)} reachable nodes from {source!r}"


def gen_pq_codes(
    sf_dir: str = DEFAULT_SF,
    m: int = 4,
    k: int = 16,
    iters: int = 5,
    scale_bits: int = 16,
) -> str:
    """Plain-numpy twin of stages/cluster.py::pq_encode: per contiguous
    subspace, int64 fixed-point Lloyd (smallest-id init,
    first-occurrence argmin ties, floor-division update, empty cluster
    keeps its centroid), then the final per-subspace nearest-centroid
    code for every vector."""
    import numpy as np

    emb = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ids = np.asarray(emb["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.asarray(emb["embedding"].to_pylist(), dtype=np.float64)
    xq_full = np.rint(mat * (1 << scale_bits)).astype(np.int64)
    order = np.argsort(ids, kind="stable")
    ids, xq_full = ids[order], xq_full[order]
    d = xq_full.shape[1]
    assert d % m == 0
    sub = d // m

    cols = {"vec_id": pa.array(ids, pa.int64())}
    for j in range(m):
        xq = xq_full[:, j * sub : (j + 1) * sub]
        cents = xq[:k].copy()

        def nearest(c):
            diff = xq[:, None, :] - c[None, :, :]
            return np.argmin(np.einsum("nkd,nkd->nk", diff, diff), axis=1)

        for _ in range(iters):
            a = nearest(cents)
            for ci in range(k):
                sel = xq[a == ci]
                if len(sel):
                    cents[ci] = sel.sum(axis=0) // len(sel)
        cols[f"code_{j}"] = pa.array(nearest(cents).astype(np.int64), pa.int64())
    path = _path("pq_codes", sf_dir)
    pq.write_table(pa.table(cols), path)
    return f"{path}: {len(ids)} vectors, {m}x{k} codebooks"


def gen_entity_communities(sf_dir: str = DEFAULT_SF, iters: int = 5) -> str:
    """Dict-based synchronous label propagation over the entity
    co-mention graph (twin of graphstats.label_propagation +
    q_entity_communities): label₀ = self, each round adopt the most
    frequent neighbor label with min-label tie-break."""
    from ontograph_ray.pipelines.kg import GAZETTEER  # data only

    gaz = set(GAZETTEER)
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    edges = set()
    for text in docs["text"].to_pylist():
        ents = sorted({t for t in text.split(" ") if t in gaz})
        for i, u in enumerate(ents):
            for v in ents[i + 1:]:
                edges.add((u, v))
    edges = sorted(edges)
    nodes = sorted({n for e in edges for n in e})
    nbrs: dict = {n: [] for n in nodes}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    lab = {n: n for n in nodes}
    for _ in range(iters):
        new = {}
        for n in nodes:
            cnt: dict = {}
            for m in nbrs[n]:
                cnt[lab[m]] = cnt.get(lab[m], 0) + 1
            new[n] = min(cnt, key=lambda k: (-cnt[k], k))
        lab = new
    path = _path("entity_communities", sf_dir)
    pq.write_table(
        pa.table(
            {
                "node": pa.array(nodes, pa.string()),
                "community": pa.array([lab[n] for n in nodes], pa.string()),
            }
        ),
        path,
    )
    return f"{path}: {len(nodes)} nodes, {len(edges)} undirected edges"


def _bpe_apply_word(word: str, merges: list) -> int:
    syms = list(word)
    for left, right in merges:
        out, i = [], 0
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
                out.append(left + right)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
        if len(syms) == 1:
            break
    return max(len(syms), 1)


def _bpe_learn(sf_dir: str, num_merges: int, top_words: int):
    """Plain-Python BPE merge learning straight off the parquet (no
    Arrow kernels, no engine imports), same documented contract as
    stages/vocab.py::bpe_train: top-``top_words`` by (count DESC,
    token ASC), character symbols without an end-of-word marker, merge
    = (max weighted count, then lexicographically smallest pair), stop
    below count 2."""
    from collections import Counter

    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    counts: Counter = Counter()
    for text in docs["text"].to_pylist():
        counts.update((text or "").split(" "))
    hist = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_words]
    seqs = [(list(w), c) for w, c in hist]
    rows = []
    for rank in range(num_merges):
        pairs: Counter = Counter()
        for syms, c in seqs:
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] += c
        if not pairs:
            break
        bc = max(pairs.values())
        if bc < 2:
            break
        left, right = min(p for p, c in pairs.items() if c == bc)
        merged = left + right
        new_seqs = []
        for syms, c in seqs:
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            new_seqs.append((out, c))
        seqs = new_seqs
        rows.append((rank, left, right, bc))
    return rows


def gen_bpe_merges(sf_dir: str = DEFAULT_SF, num_merges: int = 30, top_words: int = 200) -> str:
    rows = _bpe_learn(sf_dir, num_merges, top_words)
    path = _path("bpe_merges", sf_dir)
    pq.write_table(
        pa.table(
            {
                "rank": pa.array([r[0] for r in rows], pa.int64()),
                "left": pa.array([r[1] for r in rows], pa.string()),
                "right": pa.array([r[2] for r in rows], pa.string()),
                "freq": pa.array([r[3] for r in rows], pa.int64()),
            }
        ),
        path,
    )
    return f"{path}: {len(rows)} merges"


def gen_bpe_token_counts(sf_dir: str = DEFAULT_SF, num_merges: int = 30, top_words: int = 200) -> str:
    """Per-document BPE piece counts: the learned merges applied in
    rank order, greedy left-to-right per word, pieces summed per doc
    (empty-string token = 1 piece) — twin of bpe_token_counts."""
    merges = [(r[1], r[2]) for r in _bpe_learn(sf_dir, num_merges, top_words)]
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ids, n_tok, n_bpe = [], [], []
    cache: dict = {}
    for doc_id, text in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        toks = (text or "").split(" ")
        total = 0
        for w in toks:
            p = cache.get(w)
            if p is None:
                p = cache[w] = _bpe_apply_word(w, merges)
            total += p
        ids.append(doc_id)
        n_tok.append(len(toks))
        n_bpe.append(total)
    path = _path("bpe_token_counts", sf_dir)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(n_tok, pa.int64()),
                "n_bpe_pieces": pa.array(n_bpe, pa.int64()),
            }
        ),
        path,
    )
    return f"{path}: {len(ids)} docs"


def gen_part_kcore(sf_dir: str = DEFAULT_SF, k: int = 3, min_support: int = 2) -> str:
    """Plain-Python k-core of the co-purchase graph (parts sharing an
    order, support >= min_support) — dict/set peeling twin of
    pipelines/graphstats.py::k_core + q_part_kcore."""
    from collections import Counter, defaultdict

    li = pq.read_table(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )
    per_order = defaultdict(set)
    for o, p in zip(li["l_orderkey"].to_pylist(), li["l_partkey"].to_pylist()):
        per_order[o].add(p)
    support: Counter = Counter()
    for parts in per_order.values():
        ps = sorted(parts)
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                support[(ps[i], ps[j])] += 1
    adj = defaultdict(set)
    for (a, b), c in support.items():
        if c >= min_support:
            adj[a].add(b)
            adj[b].add(a)
    changed = True
    while changed:
        changed = False
        for n in list(adj):
            if len(adj[n]) < k:
                for m in adj.pop(n):
                    adj[m].discard(n)
                changed = True
    nodes = sorted(adj)
    path = _path("part_kcore", sf_dir)
    pq.write_table(pa.table({"node": pa.array(nodes, pa.int64())}), path)
    return f"{path}: {len(nodes)} nodes in the {k}-core"


def gen_kmeans_clusters(sf_dir: str = DEFAULT_SF, k: int = 8, iters: int = 10, scale_bits: int = 16) -> str:
    """Plain-numpy twin of stages/cluster.py::kmeans_fixed_point +
    assign_clusters: int64 fixed-point Lloyd with smallest-id init,
    first-occurrence argmin ties, floor-division centroid update —
    every op exact integer, so the twin is bit-identical regardless
    of the engine's block layout."""
    import numpy as np

    emb = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ids = np.asarray(emb["vec_id"].to_pylist(), dtype=np.int64)
    m = np.asarray(emb["embedding"].to_pylist(), dtype=np.float64)
    xq = np.rint(m * (1 << scale_bits)).astype(np.int64)
    order = np.argsort(ids, kind="stable")
    ids, xq = ids[order], xq[order]
    cents = xq[:k].copy()

    def nearest(c):
        diff = xq[:, None, :] - c[None, :, :]
        return np.argmin(np.einsum("nkd,nkd->nk", diff, diff), axis=1)

    for _ in range(iters):
        a = nearest(cents)
        for j in range(k):
            sel = xq[a == j]
            if len(sel):
                cents[j] = sel.sum(axis=0) // len(sel)
    a = nearest(cents)
    path = _path("kmeans_clusters", sf_dir)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "cluster": pa.array(a.astype(np.int64), pa.int64()),
            }
        ),
        path,
    )
    return f"{path}: {len(ids)} vectors, {len(np.unique(a))} live clusters"


def gen_ann_ivf(sf_dir: str = DEFAULT_SF, 
    k: int = 10,
    n_clusters: int = 16,
    nprobe: int = 8,
    kmeans_iters: int = 3,
    scale_bits: int = 16,
    n_queries: int = 5,
) -> str:
    """Plain-numpy twin of stages/ann.py::ivf_topk over the fixed-point
    quantizer (mirrors q_ann_topk_ivf's parameters): int64 Lloyd with
    smallest-id init, dequantized-centroid probe ranking, bucket-masked
    float64 cosine top-k with (score DESC, vec_id ASC) tie-break.
    Bit-valid as an oracle because every step is either exact integer
    arithmetic or a pure function of it; the k-boundary distinctness
    assertion below rejects the one case (an exact float tie at the
    cut) where per-block partial top-k could differ from this twin."""
    import numpy as np

    emb = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ids = np.asarray(emb["vec_id"].to_pylist(), dtype=np.int64)
    m = np.asarray(emb["embedding"].to_pylist(), dtype=np.float64)
    order = np.argsort(ids, kind="stable")
    ids, m = ids[order], m[order]
    xq = np.rint(m * (1 << scale_bits)).astype(np.int64)
    cents = xq[:n_clusters].copy()

    def nearest(c):
        diff = xq[:, None, :] - c[None, :, :]
        return np.argmin(np.einsum("nkd,nkd->nk", diff, diff), axis=1)

    for _ in range(kmeans_iters):
        a = nearest(cents)
        for j in range(n_clusters):
            sel = xq[a == j]
            if len(sel):
                cents[j] = sel.sum(axis=0) // len(sel)
    assign = nearest(cents)

    def norm(v):
        n = np.linalg.norm(v, axis=1, keepdims=True)
        n[n == 0] = 1.0
        return v / n

    mn = norm(m)
    qmask = ids < n_queries
    qids, qn = ids[qmask], mn[qmask]
    cn = norm(cents.astype(np.float64) / (1 << scale_bits))
    probe = np.argsort(-(qn @ cn.T), axis=1)[:, :nprobe]

    out_q, out_id = [], []
    for qi, qid in enumerate(qids):
        mask = np.isin(assign, probe[qi])
        sims = mn[mask] @ qn[qi]
        sub = ids[mask]
        o = np.lexsort((sub, -sims))
        ranked = sims[o]
        # any duplicate score within the top-(k+1) — not just at the
        # global k-boundary — can make a per-block partial top-k
        # layout-dependent (two equal candidates straddling a
        # block-local argpartition cut), so reject those outright
        top = ranked[: k + 1]
        if len(np.unique(top)) != len(top):
            raise RuntimeError(
                f"duplicate score in the top-{k + 1} for query {qid} — "
                "fixture would not be layout-safe"
            )
        for i in o[:k]:
            out_q.append(int(qid))
            out_id.append(int(sub[i]))
    path = _path("ann_ivf", sf_dir)
    pq.write_table(
        pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_id, pa.int64()),
            }
        ),
        path,
    )
    return f"{path}: {len(out_q)} rows ({len(qids)} queries × top-{k})"


def gen_ann_ivfpq(
    sf_dir: str = DEFAULT_SF,
    k: int = 10,
    n_clusters: int = 16,
    nprobe: int = 8,
    kmeans_iters: int = 3,
    m: int = 4,
    pq_k: int = 16,
    pq_iters: int = 5,
    rerank: int = 60,
    scale_bits: int = 16,
    n_queries: int = 5,
) -> str:
    """Plain-numpy twin of stages/ann.py::ivfpq_topk (mirrors
    q_ann_topk_ivfpq's parameters): coarse int64 Lloyd, exact integer
    residuals, per-subspace int64 Lloyd codebooks, LUT-sum candidate
    generation with (dist ASC, id ASC) tie-break, exact cosine re-rank
    with (score DESC, id ASC) tie-break and the same top-(k+1)
    distinctness guard as the IVF twin."""
    import numpy as np

    S = 1 << scale_bits
    emb = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ids = np.asarray(emb["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.asarray(emb["embedding"].to_pylist(), dtype=np.float64)
    order = np.argsort(ids, kind="stable")
    ids, mat = ids[order], mat[order]
    xq = np.rint(mat * S).astype(np.int64)

    def lloyd(x, kk, iters):
        cents = x[:kk].copy()

        def nearest(c):
            diff = x[:, None, :] - c[None, :, :]
            return np.argmin(np.einsum("nkd,nkd->nk", diff, diff), axis=1)

        for _ in range(iters):
            a = nearest(cents)
            for j in range(kk):
                sel = x[a == j]
                if len(sel):
                    cents[j] = sel.sum(axis=0) // len(sel)
        return cents, nearest(cents)

    coarse, assign = lloyd(xq, n_clusters, kmeans_iters)
    res = xq - coarse[assign]  # exact integer residuals
    d = xq.shape[1]
    assert d % m == 0
    sub = d // m
    # per-subspace codebooks: the engine round-trips residual//S through
    # float and rint — exact, so training directly on res matches
    books, codes = [], []
    for j in range(m):
        cb, code = lloyd(res[:, j * sub : (j + 1) * sub], pq_k, pq_iters)
        books.append(cb)
        codes.append(code)
    codes = np.stack(codes, axis=1)  # (n, m)

    def norm(v):
        n = np.linalg.norm(v, axis=1, keepdims=True)
        n[n == 0] = 1.0
        return v / n

    mn = norm(mat)
    qmask = ids < n_queries
    qids, qn, qxq = ids[qmask], mn[qmask], xq[qmask]
    cn = norm(coarse.astype(np.float64) / S)
    probe = np.argsort(-(qn @ cn.T), axis=1)[:, :nprobe]

    out_q, out_id = [], []
    for qi, qid in enumerate(qids):
        cand_ids, cand_dist = [], []
        for c in probe[qi]:
            mask = assign == c
            if not mask.any():
                continue
            rq = qxq[qi] - coarse[c]
            dist = np.zeros(int(mask.sum()), dtype=np.int64)
            cm = codes[mask]
            for j in range(m):
                diff = rq[j * sub : (j + 1) * sub][None, :] - books[j]
                lut = np.einsum("kd,kd->k", diff, diff)
                dist += lut[cm[:, j]]
            cand_ids.append(ids[mask])
            cand_dist.append(dist)
        cand_ids = np.concatenate(cand_ids)
        cand_dist = np.concatenate(cand_dist)
        keep = np.lexsort((cand_ids, cand_dist))[:rerank]
        sel = cand_ids[keep]
        pos = np.searchsorted(ids, sel)  # ids sorted, unique
        sims = mn[pos] @ qn[qi]
        o = np.lexsort((sel, -sims))
        ranked = sims[o]
        top = ranked[: k + 1]
        if len(np.unique(top)) != len(top):
            raise RuntimeError(
                f"duplicate score in the top-{k + 1} for query {qid} — "
                "fixture would not be layout-safe"
            )
        for i in o[:k]:
            out_q.append(int(qid))
            out_id.append(int(sel[i]))
    path = _path("ann_ivfpq", sf_dir)
    pq.write_table(
        pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_id, pa.int64()),
            }
        ),
        path,
    )
    return f"{path}: {len(out_q)} rows ({len(qids)} queries × top-{k})"


def gen_ann_lsh(sf_dir: str = DEFAULT_SF,
    k: int = 10,
    n_planes: int = 6,
    max_probe_hamming: int = 2,
    seed: int = 42,
    n_queries: int = 5,
) -> str:
    """Plain-numpy twin of stages/ann.py::lsh_topk (mirrors
    q_ann_topk_lsh): the seeded hyperplanes, sign codes, multi-probe
    mask and float64 cosine ranking are all pure deterministic
    functions, so — with the same k-boundary distinctness assertion as
    the IVF twin — the approximate result is bit-reproducible and can
    carry a fixture oracle. (RandomState(seed).randn is part of
    numpy's frozen legacy stream: stable across versions.)"""
    import numpy as np

    emb = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ids = np.asarray(emb["vec_id"].to_pylist(), dtype=np.int64)
    m = np.asarray(emb["embedding"].to_pylist(), dtype=np.float64)
    order = np.argsort(ids, kind="stable")
    ids, m = ids[order], m[order]

    def norm(v):
        n = np.linalg.norm(v, axis=1, keepdims=True)
        n[n == 0] = 1.0
        return v / n

    mn = norm(m)
    qmask = ids < n_queries
    qids, qn = ids[qmask], mn[qmask]
    d = m.shape[1]
    planes = np.random.RandomState(seed).randn(d, n_planes)

    def codes_of(v):
        bits = (v @ planes) > 0
        return (bits @ (1 << np.arange(n_planes))).astype(np.int64)

    codes = codes_of(mn)
    qcodes = codes_of(qn)
    flips = [0]
    if max_probe_hamming >= 1:
        flips += [1 << b for b in range(n_planes)]
    if max_probe_hamming >= 2:
        flips += [
            (1 << a) | (1 << b)
            for a in range(n_planes)
            for b in range(a + 1, n_planes)
        ]
    out_q, out_id = [], []
    for qi, qid in enumerate(qids):
        probe = np.asarray(sorted({int(qcodes[qi]) ^ f for f in flips}))
        mask = np.isin(codes, probe)
        sims = mn[mask] @ qn[qi]
        sub = ids[mask]
        o = np.lexsort((sub, -sims))
        ranked = sims[o]
        # any duplicate score within the top-(k+1) — not just at the
        # global k-boundary — can make a per-block partial top-k
        # layout-dependent (two equal candidates straddling a
        # block-local argpartition cut), so reject those outright
        top = ranked[: k + 1]
        if len(np.unique(top)) != len(top):
            raise RuntimeError(
                f"duplicate score in the top-{k + 1} for query {qid} — "
                "fixture would not be layout-safe"
            )
        for i in o[:k]:
            out_q.append(int(qid))
            out_id.append(int(sub[i]))
    path = _path("ann_lsh", sf_dir)
    pq.write_table(
        pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_id, pa.int64()),
            }
        ),
        path,
    )
    return f"{path}: {len(out_q)} rows ({len(qids)} queries × ≤top-{k})"


def gen_c4_line_filter(sf_dir: str = DEFAULT_SF, n: int = 400) -> str:
    """Independent plain-Python twin of the C4 line filter: per-line
    and per-doc rules reimplemented with str methods and explicit
    loops — only the corpus generator is shared (a data source)."""
    from ontograph_ray.stages.text import synthesize_webpages  # source only

    tbl = synthesize_webpages(n, seed=17)
    ids, texts, n_lines_l, n_kept_l = [], [], [], []
    for doc_id, text in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()):
        if "lorem ipsum" in text.lower() or "{" in text:
            continue
        lines = text.split("\n")
        kept = []
        for line in lines:
            stripped = line.rstrip()
            if not stripped.endswith((".", "!", "?", '"')):
                continue
            if "javascript" in line.lower():
                continue
            if len(line.split()) < 5:
                continue
            kept.append(line)
        if len(kept) < 3:
            continue
        ids.append(doc_id)
        texts.append("\n".join(kept))
        n_lines_l.append(len(lines))
        n_kept_l.append(len(kept))
    path = os.path.join(FIXTURES_DIR, "c4_line_filter_n400.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
                "n_lines": pa.array(n_lines_l, pa.int64()),
                "n_kept": pa.array(n_kept_l, pa.int64()),
            }
        ),
        path,
    )
    return f"{path}: {len(ids)} rows (of {n} docs)"


def gen_byte_entropy(sf_dir: str = DEFAULT_SF) -> str:
    """Independent twin of the byte-entropy quality scorer
    (stages/text.py::byte_entropy_stats): plain-Python Counter over
    each document's UTF-8 bytes and scalar math.log — the engine's
    micro-nat LOG table quantizes with the same scalar libm once on
    the driver, so every integer matches bit-for-bit."""
    import math
    from collections import Counter

    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    scale = 1_000_000

    def log_u(k: int) -> int:
        return round(math.log(k) * scale) if k else 0

    ids, lens, dist, ents = [], [], [], []
    for doc_id, text in zip(
        docs["doc_id"].to_pylist(), docs["text"].to_pylist()
    ):
        b = (text or "").encode()
        L = len(b)
        ids.append(doc_id)
        lens.append(L)
        if L == 0:
            dist.append(0)
            ents.append(0)
            continue
        c = Counter(b)
        dist.append(len(c))
        ents.append(sum(v * (log_u(L) - log_u(v)) for v in c.values()) // L)
    path = _path("byte_entropy", sf_dir)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_bytes": pa.array(lens, pa.int64()),
                "distinct_bytes": pa.array(dist, pa.int64()),
                "entropy_micro_nats": pa.array(ents, pa.int64()),
            }
        ),
        path,
    )
    return f"{path}: {len(ids)} rows"


def gen_ngram_lm_scores(sf_dir: str = DEFAULT_SF) -> str:
    """Independent twin of the CCNet-style bigram-LM scoring
    (stages/text.py::ngram_lm_scores): plain-Python dict counters and
    scalar math.log over the same documents table — the engine's
    micro-nat quantization happens once on the driver with the same
    scalar libm, so every integer matches bit-for-bit."""
    import math

    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang"],
    )
    ids = docs["doc_id"].to_pylist()
    texts = [str(t) for t in docs["text"].to_pylist()]
    langs = docs["lang"].to_pylist()

    c2: dict[tuple[str, str], int] = {}
    for t, lg in zip(texts, langs):
        if lg != "en":
            continue
        toks = t.split()
        for a, b in zip(toks[:-1], toks[1:]):
            c2[(a, b)] = c2.get((a, b), 0) + 1
    c1: dict[str, int] = {}
    vocab: set[str] = set()
    for (a, b), c in c2.items():
        c1[a] = c1.get(a, 0) + c
        vocab.add(a)
        vocab.add(b)
    V = max(1, len(vocab))
    scale = 1_000_000
    cost2 = {
        k: round((math.log(c1[k[0]] + V) - math.log(c + 1)) * scale)
        for k, c in c2.items()
    }
    cost1 = {w: round(math.log(c + V) * scale) for w, c in c1.items()}
    cost0 = round(math.log(V) * scale)

    rows = {"doc_id": [], "n_bigrams": [], "lm_cost_micro": [],
            "xent_micro": [], "is_ref": []}
    for did, t, lg in zip(ids, texts, langs):
        toks = t.split()
        tot = 0
        for a, b in zip(toks[:-1], toks[1:]):
            c = cost2.get((a, b))
            if c is None:
                c = cost1.get(a, cost0)
            tot += c
        n = max(0, len(toks) - 1)
        rows["doc_id"].append(int(did))
        rows["n_bigrams"].append(n)
        rows["lm_cost_micro"].append(tot)
        rows["xent_micro"].append(tot // n if n > 0 else 0)
        rows["is_ref"].append(1 if lg == "en" else 0)
    path = _path("ngram_lm_scores", sf_dir)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(rows["doc_id"], pa.int64()),
                "n_bigrams": pa.array(rows["n_bigrams"], pa.int64()),
                "lm_cost_micro": pa.array(rows["lm_cost_micro"], pa.int64()),
                "xent_micro": pa.array(rows["xent_micro"], pa.int64()),
                "is_ref": pa.array(rows["is_ref"], pa.int8()),
            }
        ),
        path,
    )
    return f"{path}: {len(rows['doc_id'])} rows"


def gen_ann_hnsw(
    sf_dir: str = DEFAULT_SF,
    k: int = 10,
    M: int = 8,
    efc: int = 64,
    efs: int = 48,
    n_shards: int = 4,
    n_queries: int = 5,
) -> str:
    """Plain-Python/heapq twin of stages/ann.py::hnsw_topk (mirrors
    q_ann_topk_hnsw): shard by vec_id % n_shards, build each shard's
    small-world graph with the same determinism contract (ascending-id
    inserts, splitmix64→exponential level assignment, (dist, id)
    tie-breaks, float64 cosine), search with the same ef, merge by
    (score desc, id asc). Restructured independently (dict-of-layers
    graph, no class) but bit-reproducing the engine output."""
    import heapq
    import math

    import numpy as np

    emb = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ids_all = np.asarray(emb["vec_id"].to_pylist(), dtype=np.int64)
    m_all = np.asarray(emb["embedding"].to_pylist(), dtype=np.float64)

    def norm(v):
        n = np.linalg.norm(v, axis=1, keepdims=True)
        n[n == 0] = 1.0
        return v / n

    M64 = (1 << 64) - 1

    def smix(x: int) -> int:
        h = (x + 0x9E3779B97F4A7C15) & M64
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & M64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & M64
        h ^= h >> 31
        return h

    m_l = 1.0 / math.log(M)

    def level_of(vid: int) -> int:
        return int(-math.log((smix(vid) + 1) / 2.0**64) * m_l)

    qmask = ids_all < n_queries
    qids = ids_all[qmask]
    qo = np.argsort(qids, kind="stable")
    qids = qids[qo]
    qvecs = norm(m_all[qmask][qo])

    partials: list[tuple[int, float, int]] = []  # (query_id, -score, vec_id)
    for shard in range(n_shards):
        smask = ids_all % n_shards == shard
        sids = ids_all[smask]
        order = np.argsort(sids, kind="stable")
        sids = sids[order]
        svecs = norm(m_all[smask][order])
        levels = [level_of(int(v)) for v in sids]
        links: dict[tuple[int, int], list[int]] = {
            (row, l): [] for row in range(len(sids)) for l in range(levels[row] + 1)
        }
        entry = -1

        def dist(row: int, q) -> float:
            return float(1.0 - svecs[row] @ q)

        def search_layer(q, eps, ef, lvl):
            visited = set(eps)
            cand = [(dist(e, q), e) for e in eps]
            heapq.heapify(cand)
            best = [(-d, -e) for d, e in cand]
            heapq.heapify(best)
            while cand:
                d, nnode = heapq.heappop(cand)
                if len(best) >= ef and (d, nnode) > (-best[0][0], -best[0][1]):
                    break
                for nb in links[(nnode, lvl)]:
                    if nb in visited:
                        continue
                    visited.add(nb)
                    dn = dist(nb, q)
                    if len(best) < ef or (dn, nb) < (-best[0][0], -best[0][1]):
                        heapq.heappush(cand, (dn, nb))
                        heapq.heappush(best, (-dn, -nb))
                        if len(best) > ef:
                            heapq.heappop(best)
            return sorted((-d, -n_) for d, n_ in best)

        for row in range(len(sids)):
            lvl = levels[row]
            if entry < 0:
                entry = row
                continue
            q = svecs[row]
            top = levels[entry]
            eps = [entry]
            for l in range(top, lvl, -1):
                eps = [search_layer(q, eps, 1, l)[0][1]]
            for l in range(min(lvl, top), -1, -1):
                found = search_layer(q, eps, efc, l)
                mm = M if l > 0 else 2 * M
                nbrs = [n_ for _, n_ in found[:mm]]
                links[(row, l)] = list(nbrs)
                for n_ in nbrs:
                    ln = links[(n_, l)]
                    ln.append(row)
                    if len(ln) > mm:
                        scored = sorted((dist(x, svecs[n_]), x) for x in ln)
                        links[(n_, l)] = [x for _, x in scored[:mm]]
                eps = [n_ for _, n_ in found]
            if lvl > top:
                entry = row

        for qi, qid in enumerate(qids):
            if entry < 0:
                continue
            q = qvecs[qi]
            eps = [entry]
            for l in range(levels[entry], 0, -1):
                eps = [search_layer(q, eps, 1, l)[0][1]]
            found = search_layer(q, eps, max(efs, k), 0)
            for d, row in found[:k]:
                partials.append((int(qid), d - 1.0, int(sids[row])))

    out_q, out_id = [], []
    partials.sort(key=lambda t: (t[0], t[1], t[2]))  # qid, dist asc = score desc, id
    for qid in qids:
        rows = [t for t in partials if t[0] == qid][:k]
        # layout-safety: the merged k-boundary must be score-distinct
        scores = [t[1] for t in [x for x in partials if x[0] == qid][: k + 1]]
        if len(set(scores)) != len(scores):
            raise RuntimeError(
                f"duplicate merged score in the top-{k + 1} for query {qid}"
            )
        for _, _, vid in rows:
            out_q.append(int(qid))
            out_id.append(vid)
    path = _path("ann_hnsw", sf_dir)
    pq.write_table(
        pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_id, pa.int64()),
            }
        ),
        path,
    )
    return f"{path}: {len(out_q)} rows"


# fixture base name (as used by oracles.oracle_sql's _fx) → generator.
GENERATORS = {
    "entity_pagerank": gen_entity_pagerank,
    "ngram_lm_scores": gen_ngram_lm_scores,
    "byte_entropy": gen_byte_entropy,
    "ann_hnsw": gen_ann_hnsw,
    "entity_hits": gen_entity_hits,
    "entity_communities": gen_entity_communities,
    "pq_codes": gen_pq_codes,
    "entity_sssp": gen_entity_sssp,
    "perceptron_filter": gen_perceptron_filter,
    "hll_grouped": gen_hll_grouped,
    "simhash_pairs_h2": gen_simhash_pairs,
    "minhash_dedup": gen_minhash_dedup,
    "ngram_jaccard": gen_ngram_jaccard,
    "curate_full": gen_curate_full,
    "kmv_distinct": gen_kmv_distinct,
    "hll_distinct": gen_hll_distinct,
    "bpe_merges": gen_bpe_merges,
    "bpe_token_counts": gen_bpe_token_counts,
    "part_kcore": gen_part_kcore,
    "kmeans_clusters": gen_kmeans_clusters,
    "winnow_fingerprints": gen_winnow_fingerprints,
    "ann_ivf": gen_ann_ivf,
    "ann_ivfpq": gen_ann_ivfpq,
    "ann_lsh": gen_ann_lsh,
}

# Keyed by n, not sf: the generator ignores sf_dir and always
# (re)writes the n-keyed file.
_SF_INDEPENDENT = {
    "c4_line_filter": (gen_c4_line_filter, "c4_line_filter_n400.parquet"),
}


def ensure_fixtures(sf_dir: str = DEFAULT_SF, verbose: bool = False) -> list[str]:
    """Generate any missing fixture for ``sf_dir`` (sf-keyed filenames)
    so the oracle harness is truthful at ANY scale factor, not just the
    sf0.01 the fixtures were first pinned at. Existing files are left
    alone — regenerate explicitly via the CLI after semantic changes."""
    os.makedirs(FIXTURES_DIR, exist_ok=True)
    made = []
    for name, fn in GENERATORS.items():
        if not os.path.exists(_path(name, sf_dir)):
            msg = fn(sf_dir=sf_dir)
            made.append(name)
            if verbose:
                print(msg)
    for name, (fn, fname) in _SF_INDEPENDENT.items():
        if not os.path.exists(os.path.join(FIXTURES_DIR, fname)):
            msg = fn()
            made.append(name)
            if verbose:
                print(msg)
    return made


if __name__ == "__main__":
    # usage: gen_fixtures.py [sf_dir] [name ...]  — regenerates (all or
    # the named) fixtures for sf_dir, overwriting existing files
    os.makedirs(FIXTURES_DIR, exist_ok=True)
    argv = sys.argv[1:]
    sf = argv[0] if argv else DEFAULT_SF
    names = argv[1:] or list(GENERATORS) + list(_SF_INDEPENDENT)
    for n in names:
        if n in GENERATORS:
            print(GENERATORS[n](sf_dir=sf))
        else:
            print(_SF_INDEPENDENT[n][0]())

