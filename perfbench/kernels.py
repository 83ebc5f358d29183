"""Batch-kernel layer: rows/s of each P-stage UDF on one in-memory
Arrow batch, in the driver process, on one thread, with no scheduler.

The batch is the first 4,096 pages of the build corpus. Each kernel is
fed the output of the kernel before it, exactly as the pipeline chains
them, and its rate counts the rows of its own input.
"""

from __future__ import annotations

import statistics
import time

import pyarrow as pa

BATCH_PAGES = 4096
MIN_SECONDS = 0.3
MIN_REPS = 3


def _rate(fn, arg, rows: int) -> float:
    times = []
    t_end = time.perf_counter() + MIN_SECONDS
    while len(times) < MIN_REPS or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return rows / statistics.median(times)


def kernel_rates(docs: pa.Table) -> dict[str, float]:
    from ontograph_ray.pipelines import kg
    from ontograph_ray.pipelines.pages import extract_text_batch, synthesize_pages_batch

    pages = synthesize_pages_batch(docs.slice(0, BATCH_PAGES))
    extracted = extract_text_batch(pages)
    mentions = kg._mentions_distinct_batch(extracted)
    links = kg.mention_link_triples_batch(mentions, encode=True)
    comp = {
        kg.alias_uri(s, lang): kg.canonical_uri(s)
        for s in kg.GAZETTEER
        for lang in set(extracted["lang"].to_pylist())
    }
    plain = kg.decode_triples_batch(links)

    chain = [
        ("extract_text_batch", extract_text_batch, pages),
        ("mentions_distinct_batch", kg._mentions_distinct_batch, extracted),
        ("ent_rel_partials_batch", kg._ent_rel_partials_batch, extracted),
        ("page_triples_batch", lambda b: kg.page_triples_batch(b, encode=True), extracted),
        ("mention_link_triples_batch", lambda b: kg.mention_link_triples_batch(b, encode=True), mentions),
        ("rewrite_batch", lambda b: kg._rewrite_batch(b, comp_ref=comp), links),
        ("encode_triples_batch", kg.encode_triples_batch, plain),
    ]
    threads = pa.cpu_count()
    pa.set_cpu_count(1)
    try:
        return {name: _rate(fn, arg, arg.num_rows) for name, fn, arg in chain}
    finally:
        pa.set_cpu_count(threads)
