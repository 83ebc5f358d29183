"""Spans and Ray Data operator statistics for the traced run.

A span records name, start, end and the span that caused it; spans of
one closed-loop step share the step's id. Spans stay in memory and are
written out once, when the run ends.

Ray Data statistics come from ``Dataset._get_stats_summary()`` after a
dataset has been consumed with ``iter_batches`` (after ``count()`` the
summary is empty). Stages the library pins with ``materialize()`` are
not in the final dataset's lineage, so the traced run wraps
``Dataset.materialize`` and keeps the summary of every dataset it
returns, attached to the span that was open at the time.
"""

from __future__ import annotations

import contextlib
import json
import re
import statistics
import time
from collections import defaultdict

# All-to-all operators that are not split into Map/Reduce sub-operators.
_HASH_EXCHANGES = ("HashShuffle", "HashAggregate", "Join", "Zip")


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.step = None
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "step": self.step,
            "start": time.perf_counter(),
            "end": None,
            "stats": [],
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name].append(value)

    def attach_stats(self, summary) -> None:
        if self._stack:
            self._stack[-1]["stats"].append(summary)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name and s["end"]]

    def median(self, name: str) -> float:
        d = self.durations(name)
        return statistics.median(d) if d else 0.0

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def stats_under(self, span: dict) -> list:
        """Every operator summary recorded in ``span`` or its children."""
        ids = {span["id"]}
        out = []
        for s in self.spans[span["id"]:]:
            if s["id"] in ids or s["parent"] in ids:
                ids.add(s["id"])
                out.extend(s["stats"])
        return out

    def dump(self, path: str) -> None:
        spans = [{k: v for k, v in s.items() if k != "stats"} for s in self.spans]
        with open(path, "w") as f:
            json.dump({"spans": spans, "counts": self.counts}, f)


@contextlib.contextmanager
def capture_materialize(tracer: Tracer):
    """Attach the stats of every ``Dataset.materialize()`` result to
    the open span, for the duration of the block."""
    from ray.data import Dataset

    original = Dataset.materialize

    def materialize(self):
        out = original(self)
        tracer.attach_stats(out._get_stats_summary())
        return out

    Dataset.materialize = materialize
    try:
        yield
    finally:
        Dataset.materialize = original


@contextlib.contextmanager
def created_datasets():
    """Collect every Dataset constructed in the block, so that the
    statistics of datasets a public method makes and consumes inside
    itself can be read once it has returned."""
    from ray.data import Dataset

    made = []
    original = Dataset.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        made.append(self)

    Dataset.__init__ = init
    try:
        yield made
    finally:
        Dataset.__init__ = original


@contextlib.contextmanager
def unfused_plans():
    """Turn off Ray Data operator fusion so a read's own output rows
    show as a separate ``ReadParquet`` operator."""
    from ray.data._internal.logical.optimizers import get_physical_ruleset
    from ray.data._internal.logical.rules.operator_fusion import FuseOperators

    rules = get_physical_ruleset()
    rules.remove(FuseOperators)
    try:
        yield
    finally:
        rules.add(FuseOperators)


def operators(summaries) -> list:
    """Flatten summaries and their parents into one operator list; an
    operator reachable from two summaries is kept once."""
    seen, out = set(), []

    def walk(s):
        for op in s.operators_stats:
            key = (op.operator_name, op.earliest_start_time, op.time_total_s)
            if key not in seen:
                seen.add(key)
                out.append(op)
        for p in s.parents:
            walk(p)

    for s in summaries:
        walk(s)
    return out


def _total(d, key="sum") -> float:
    return float((d or {}).get(key, 0) or 0)


def op_record(op) -> dict:
    m = re.search(r"(\d+) tasks executed", op.block_execution_summary_str or "")
    return {
        "wall_s": float(op.time_total_s or 0),
        "cpu_s": _total(op.cpu_time),
        "udf_s": _total(op.udf_time),
        "tasks": int(m.group(1)) if m else 0,
        "max_task_s": _total(op.wall_time, "max"),
        "rows_out": _total(op.output_num_rows),
        "bytes_out": _total(op.output_size_bytes),
    }


def exchanges(ops) -> int:
    """All-to-all exchanges: one ``*Reduce`` sub-operator each for
    sort and repartition, plus hash-partitioned operators."""
    return sum(
        1
        for op in ops
        if (op.is_sub_operator and op.operator_name.endswith("Reduce"))
        or (not op.is_sub_operator and op.operator_name.startswith(_HASH_EXCHANGES))
    )


def read_rows(ops) -> float:
    return sum(op_record(op)["rows_out"] for op in ops if op.operator_name == "ReadParquet")
