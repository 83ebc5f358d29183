"""KG benchmark: build, query and update workloads, timed end to end,
with a separate traced run for per-layer numbers.

    python3 perfbench/run.py --workload kg_query --seed 1 --seconds 40 --trace 0

Prints, as the last line of standard output, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the ``end_to_end`` ones BENCHMARK.json declares; with
``--trace 1`` the ``per_layer`` ones, and the spans are written to
``.bench_out/``. ``--smoke`` runs at the small sizes.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import logging
import os
import shutil
import statistics
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NUM_CPUS = 4
OBJECT_STORE_BYTES = 1_000_000_000
# Ray puts AF_UNIX sockets under its temp dir; their paths must stay
# under 108 bytes, and the session dir plus socket name take about 64.
RAY_TMP_MAX = 40

# Ray Data operators of build_kg, keyed by a name part that survives
# fusion; "Sort" is the SortMap/SortReduce exchange of ent_rel_distinct.
STAGES = (
    ("extract", "extract_text_batch"),
    ("ent_rel_partials", "_ent_rel_partials_batch"),
    ("ent_rel_exchange", "Sort"),
    ("mentions", "_mentions_distinct_batch"),
    ("page_triples", "page_triples_batch"),
)
STAGE_FIELDS = ("wall_s", "cpu_s", "tasks", "max_task_s", "rows_out", "bytes_out")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name → unit of the metrics BENCHMARK.json declares for a run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def free_driver_memory() -> None:
    """Return to the OS what preparation left in the driver."""
    import pyarrow as pa

    gc.collect()
    pa.default_memory_pool().release_unused()
    ctypes.CDLL("libc.so.6").malloc_trim(0)


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (VmHWM) at the
    current resident set."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


@contextlib.contextmanager
def ray_session(ray_tmp: str):
    """One local Ray session whose workers can import the repository
    from any launch directory; always shut down on exit."""
    import ray
    from ray.data import DataContext

    paths = [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    kwargs = {}
    if len(ray_tmp) <= RAY_TMP_MAX:
        kwargs["_temp_dir"] = ray_tmp
    else:
        print(f"perfbench: {ray_tmp} is too long for Ray's sockets; using Ray's default temp dir",
              file=sys.stderr)
    ray.init(
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        runtime_env={"env_vars": {"PYTHONPATH": os.pathsep.join(paths)}},
        **kwargs,
    )
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    try:
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        # build_kg's final plan unions three map branches; per-operator
        # reservation starves the hot one (see build_kg's note).
        ctx.op_resource_reservation_enabled = False
        yield
    finally:
        ray.shutdown()


class Step(NamedTuple):
    wall_s: float
    ops: int  # ops completed and correct
    peak_rss_mb: float


def closed_loop(workload, seconds: float, traced: bool) -> list[Step]:
    """Run steps back to back until ``seconds`` have passed, and at
    least one step past the workload's warm-up; return what each step
    took."""
    run = workload.run
    steps = []
    start = time.perf_counter()
    while len(steps) <= workload.warmup_steps or time.perf_counter() - start < seconds:
        run.tracer.step = f"{workload.name}:{len(steps)}"
        done = run.attempted - run.failed
        reset_peak_rss()
        t0 = time.perf_counter()
        workload.trace_step() if traced else workload.step(False)
        wall = time.perf_counter() - t0
        steps.append(Step(wall, run.attempted - run.failed - done, peak_rss_mb()))
    return steps


def _dur(span) -> float:
    return span["end"] - span["start"]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def build_layers(run, wl) -> dict[str, float]:
    from perfbench import tracing

    tr = run.tracer
    m = {
        "kg.build_s": tr.median("kg.build"),
        "kg.build_kg.plan_s": tr.median("kg.build_kg"),
        "kg.consume_s": tr.median("kg.consume"),
        "kg.tracing_overhead_s": run.median_latency("build_traced") - run.median_latency("build"),
        "kg.triples_per_s": wl.expected / max(1e-9, run.median_latency("build")),
    }
    residual, overhead, per_stage = [], [], {}
    for b in tr.named("kg.build"):
        kids = {s["name"]: s for s in tr.spans if s["parent"] == b["id"]}
        plan, consume = kids["kg.build_kg"], kids["kg.consume"]
        residual.append(_dur(b) - _dur(plan) - _dur(consume))
        udf = sum(tracing.op_record(op)["udf_s"] for op in tracing.operators(consume["stats"]))
        overhead.append(1 - udf / (_dur(consume) * NUM_CPUS))
        ops = [op for op in tracing.operators(tr.stats_under(b))
               if not op.operator_name.startswith("Union")]
        for stage, key in STAGES:
            recs = [tracing.op_record(op) for op in ops
                    if (op.operator_name.startswith(key) if key == "Sort" else key in op.operator_name)]
            if not recs:
                print(f"perfbench: no Ray Data operator matches stage {stage!r}", file=sys.stderr)
            for f in STAGE_FIELDS:
                agg = max if f in ("max_task_s", "rows_out", "bytes_out") else sum
                per_stage.setdefault(f"raydata.{stage}.{f}", []).append(
                    agg(r[f] for r in recs) if recs else 0)
    m["kg.residual_s"] = _median(residual)
    m["kg.scheduler_overhead_frac"] = _median(overhead)
    m.update({k: _median(v) for k, v in per_stage.items()})
    return m


def query_layers(run, wl) -> dict[str, float]:
    from perfbench import tracing
    from perfbench.workloads import QUERY_CLASSES, SPARQL_CLASSES

    tr = run.tracer
    m = {f"query.{cls}_s": run.median_latency(cls) for cls in QUERY_CLASSES}
    for cls, ratio in wl.probe_rows_examined().items():
        m[f"store.{cls}.rows_examined_per_row_returned"] = ratio
    for cls in SPARQL_CLASSES:
        short = cls.removeprefix("sparql_")
        for f in ("parse", "select", "execute"):
            m[f"sparql.{short}.{f}_s"] = tr.median(f"sparql.{cls}.{f}")
        ops = [tracing.operators(tr.stats_under(s)) for s in tr.named(f"op.{cls}")]
        m[f"sparql.{short}.exchanges"] = _median(tracing.exchanges(o) for o in ops)
        m[f"sparql.{short}.tasks"] = _median(
            sum(tracing.op_record(op)["tasks"] for op in o) for o in ops)
    for f in ("plan", "execute"):
        name = f"ontology.get_individuals_dataset.{f}"
        m[f"{name}_s"] = tr.median(name)
    return m


def update_layers(run, wl) -> dict[str, float]:
    tr = run.tracer
    m = {
        "update.add_commit_s": run.median_latency("add_commit"),
        "update.delete_commit_s": run.median_latency("delete_commit"),
        "update.read_after_write_s": run.median_latency("read_after_write"),
        "update.write_bytes_per_triple": wl.write_bytes_per_triple(),
    }
    for name in ("versioned.load", "versioned.commit", "versioned.compact",
                 "store.add_triples_checked.validate", "store.delete_triples_checked.validate"):
        m[f"{name}_s"] = tr.median(name)
    for name in ("versioned.files_per_version", "versioned.bytes_per_version"):
        m[name] = _median(tr.counts[name])
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str, sizes) -> dict:
    """Set up and run one workload; return the result object."""
    from perfbench import kernels, tracing, workloads

    tracer = tracing.Tracer(trace)
    run = workloads.Run(workdir, seed, sizes, tracer)
    own = workloads.WORKLOADS[workload](run)
    capture = tracing.capture_materialize(tracer) if trace else contextlib.nullcontext()
    with capture:
        own.prepare()
        setup_walls = []
        for rep in range(sizes.setup_reps):
            t0 = time.perf_counter()
            own.setup(rep)
            setup_walls.append(time.perf_counter() - t0)
        own.ground_truth()
        run.close_db()
        free_driver_memory()
        steps = closed_loop(own, seconds, trace)[own.warmup_steps:]
        if not trace:
            metrics = {
                "setup_s": statistics.median(setup_walls),
                "step_s": statistics.median(st.wall_s for st in steps),
                "ops_per_s": sum(st.ops for st in steps) / sum(st.wall_s for st in steps),
                "driver_peak_rss_mb": statistics.median(st.peak_rss_mb for st in steps),
            }
        else:
            # The traced run covers every layer: one traced step of each
            # other workload beside the workload's own traced loop.
            by_name = {workload: own}
            for name, cls in workloads.WORKLOADS.items():
                if name != workload:
                    wl = by_name[name] = cls(run)
                    wl.prepare()
                    wl.setup(0)
                    wl.ground_truth()
                    tracer.step = f"{name}:sweep"
                    wl.trace_step()
            docs = workloads.corpus.documents(sizes.build_corpus)
            metrics = {f"kernel.{k}.rows_per_s": v for k, v in kernels.kernel_rates(docs).items()}
            metrics.update(build_layers(run, by_name["kg_build"]))
            metrics.update(query_layers(run, by_name["kg_query"]))
            metrics.update(update_layers(run, by_name["kg_update"]))
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.dump(os.path.join(out_dir, f"trace-{workload}-seed{seed}.json"))
    units = declared_metrics(trace)
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics declared but not measured: {sorted(set(units) - set(metrics))}; "
            f"measured but not declared: {sorted(set(metrics) - set(units))}"
        )
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("kg_build", "kg_query", "kg_update"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs, for a quick check")
    return ap.parse_args(argv)


@contextlib.contextmanager
def scratch_dirs():
    """Per-run work and Ray temp directories inside the checkout,
    removed at exit."""
    scratch = os.path.join(ROOT, ".bench_run")
    workdir = os.path.join(scratch, f"w{os.getpid()}")
    ray_tmp = os.path.join(scratch, f"r{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        yield workdir, ray_tmp
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "ontograph_ray", "__init__.py")):
        print(f"perfbench: no ontograph_ray package in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    with scratch_dirs() as (workdir, ray_tmp), ray_session(ray_tmp):
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir, sizes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
