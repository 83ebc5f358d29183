"""Self-test of the benchmark at smoke sizes.

    python3 perfbench/selftest.py

Checks that:
- every workload passes all its correctness gates, untraced and traced,
  and reports exactly the metrics BENCHMARK.json names;
- each gate fails when the program's result is tampered with (a dropped
  triple, a wrong query row, a delete that is not applied);
- run.py exits non-zero, printing no result, when the repository's
  sources are not beside it.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import run as bench  # noqa: E402
from perfbench import workloads  # noqa: E402


def drop_first_row(batch):
    """Tamper UDF (module level, so Ray workers can import it)."""
    return batch.slice(1)


@contextlib.contextmanager
def patched(owner, attr, wrap):
    original = getattr(owner, attr)
    setattr(owner, attr, wrap(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def tamper_build():
    from ontograph_ray.pipelines import kg

    def wrap(build_kg):
        def tampered(*args, **kwargs):
            res = build_kg(*args, **kwargs)
            res.triples = res.triples.map_batches(drop_first_row, batch_format="pyarrow")
            return res

        return tampered

    return patched(kg, "build_kg", wrap)


def tamper_sparql():
    from ontograph_ray.store import sparql

    def wrap(select):
        return lambda *a, **k: select(*a, **k).map_batches(drop_first_row, batch_format="pyarrow")

    return patched(sparql, "sparql_select", wrap)


def tamper_match():
    from ontograph_ray.store.dataset import DatasetGraphStore

    return patched(DatasetGraphStore, "get_all_matches", lambda f: lambda *a, **k: f(*a, **k)[1:])


def tamper_delete():
    from ontograph_ray.store.versioned import VersionedGraphStorage

    def wrap(_delete):
        return lambda self, remove: self.commit(self.load(), op="delete_triples_checked")

    return patched(VersionedGraphStorage, "delete_triples_checked", wrap)


TAMPERS = (
    ("kg_build", "dropped triples in build_kg output", tamper_build),
    ("kg_query", "a row missing from every SPARQL answer", tamper_sparql),
    ("kg_query", "a triple missing from get_all_matches", tamper_match),
    ("kg_update", "delete_triples_checked commits without deleting", tamper_delete),
)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    problems = []

    def measure(name, trace, seconds, tag):
        workdir = os.path.join(scratch, tag)
        os.makedirs(workdir)
        try:
            return bench.measure(name, 7, seconds, trace, workdir, workloads.SMOKE)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    with bench.scratch_dirs() as (scratch, ray_tmp), bench.ray_session(ray_tmp):
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                r = measure(name, trace, 2, f"{name}-{int(trace)}")
                ok = r["correct"] and r["failed"] == 0 and set(r["metrics"]) == want[trace]
                print(f"selftest: {name} trace={int(trace)}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']}", flush=True)
                if not ok:
                    problems.append(f"{name} trace={int(trace)}")
        for name, what, tamper in TAMPERS:
            with tamper():
                r = measure(name, False, 1, f"tamper-{name}")
            print(f"selftest: {name} with {what}: correct={r['correct']} failed={r['failed']}",
                  flush=True)
            if r["correct"] or r["failed"] == 0:
                problems.append(f"{name} gates missed: {what}")

        bare = os.path.join(scratch, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "kg_build", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        print(f"selftest: without sources: exit {p.returncode}, stdout {p.stdout!r}", flush=True)
        if p.returncode == 0 or p.stdout.strip():
            problems.append("run.py did not fail without the repository's sources")

    for p in problems:
        print(f"selftest: FAILED {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
