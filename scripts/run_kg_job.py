"""Cluster job entrypoint for the P1-P7 KG-construction pipeline.

On a real multi-node cluster this is the script `ray job submit` runs:

    ray job submit --working-dir . -- \
        python scripts/run_kg_job.py \
            --sf-dir /data/pages --out-dir /data/kg_out \
            --checkpoint-dir /data/kg_ckpt

In the sandbox it runs against the local testdata the same way:

    python scripts/run_kg_job.py --sf-dir /root/testdata/sf0.01 \
        --out-dir /tmp/kg_out --checkpoint-dir /tmp/kg_ckpt

It owns the Ray session (connects to the cluster when launched via
`ray job submit`, which sets RAY_ADDRESS; falls back to a local
session otherwise), runs the pipeline with per-stage checkpoint/resume
and writes partitioned N-Triples + Parquet, then prints one JSON line
of counters for the job log.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--sf-dir", required=True, help="input table directory")
    p.add_argument("--out-dir", default=None, help="N-Triples/Parquet output dir")
    p.add_argument("--checkpoint-dir", default=None, help="per-stage resume dir")
    p.add_argument("--amplify", type=int, default=1)
    p.add_argument("--dedup-buckets", type=int, default=64)
    args = p.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(include_dashboard=False, ignore_reinit_error=True)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # union-widened map DAGs (build_kg) starve under per-op reservation
    ctx.op_resource_reservation_enabled = False

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from ontograph_ray.pipelines.kg import build_kg

    t0 = time.time()
    res = build_kg(
        args.sf_dir,
        out_dir=args.out_dir,
        checkpoint_dir=args.checkpoint_dir,
        amplify=args.amplify,
        dedup_buckets=args.dedup_buckets,
    )
    n = res.triples.count()
    wall = time.time() - t0
    print(
        json.dumps(
            {
                "triples": n,
                "wall_sec": round(wall, 3),
                "triples_per_sec": round(n / wall, 1),
                "counters": res.stats.get("counters", {}),
                "out_dir": args.out_dir,
            }
        )
    )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
