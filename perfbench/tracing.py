"""In-memory spans around the driver's calls into each flowrecon module.

Spans are recorded from outside the library: a traced :class:`Api` wraps
every public function the driver uses, so a span covers exactly one call
into one layer. Each span keeps its name, start, end, parent span and pass
id. Counters are taken at the same boundaries from each call's arguments
and result, after the span's clock has stopped. Nothing is written until
the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict

import numpy as np

from flowrecon import ingest, matrix, metrics, reconstruct
from flowrecon.errors import FlowReconError

# Layer -> its counters and the end-to-end metric each should move (and on
# which workload). Every layer also reports ``busy_s`` and ``share``.
LAYERS = {
    "ingest.parse": (("rows_per_s", "rejected", "duplicates"), "days_per_s, peak_rss_mb on year-csv"),
    "ingest.assemble": (("days_per_s", "filled_slots"), "days_per_s on year-csv"),
    "ingest.aggregate": (("calls",), "day_p50_ms on recon-sweep"),
    "ingest.write": (("rows_per_s", "bytes"), "days_per_s on export"),
    "ingest.gap_report": ((), "days_per_s on export"),
    "matrix.select": (("donor_days", "failed"), "setup_s on all workloads"),
    "matrix.build": (("profiles",), "setup_s on all workloads"),
    "reconstruct.rebuild": (("day_levels_per_s", "negative_slots"), "day_p50_ms, days_per_s on recon-sweep"),
    "reconstruct.baseline": ((), "day_p50_ms, days_per_s on recon-sweep"),
    "reconstruct.export": (("files", "bytes", "clamped_slots"), "day_p50_ms, days_per_s on export"),
    "metrics.evaluate": (("day_levels_per_s", "failed", "excluded_slots"), "days_per_s on recon-sweep, then year-csv"),
    "metrics.summarize": (("results",), "days_per_s on recon-sweep"),
}
# A rate counter divides this work count by the layer's busy time.
RATE_WORK = {"rows_per_s": "rows", "days_per_s": "days", "day_levels_per_s": "day_levels"}


def _count_parse(c, result, args):
    c["ingest.parse.rows"] += len(result.records) + result.rejected_rows + result.duplicate_rows
    c["ingest.parse.rejected"] += result.rejected_rows
    c["ingest.parse.duplicates"] += result.duplicate_rows


def _count_assemble(c, result, args):
    c["ingest.assemble.days"] += 1
    c["ingest.assemble.filled_slots"] += len(result.filled_slots)


def _count_write(c, result, args):
    c["ingest.write.rows"] += len(args[0])
    c["ingest.write.bytes"] += os.path.getsize(args[1])


def _count_select(c, result, args):
    c["matrix.select.donor_days"] += len(result)


def _count_rebuild(c, result, args):
    c["reconstruct.rebuild.day_levels"] += 1
    c["reconstruct.rebuild.negative_slots"] += int(np.count_nonzero(result.values < 0))


def _count_export(c, result, args):
    c["reconstruct.export.files"] += 1
    c["reconstruct.export.bytes"] += os.path.getsize(args[0])
    c["reconstruct.export.clamped_slots"] += result


def _count_evaluate(c, result, args):
    c["metrics.evaluate.day_levels"] += 1
    c["metrics.evaluate.excluded_slots"] += result.excluded_slots


def _counting(key):
    def count(c, result, args):
        c[key] += 1

    return count


def _count_summarize(c, result, args):
    c["metrics.summarize.results"] += len(args[0])


class Api:
    """The public flowrecon functions the driver calls, traced or not.

    Functions are looked up when the Api is built, so a test can replace a
    module function before building one.
    """

    def __init__(self, tracer: "Tracer | None" = None):
        wrap = tracer.wrap if tracer else (lambda layer, fn, count=None: fn)
        self.parse_sensor_csv = wrap("ingest.parse", ingest.parse_sensor_csv, _count_parse)
        self.assemble_day = wrap("ingest.assemble", ingest.assemble_day, _count_assemble)
        self.aggregate = wrap("ingest.aggregate", ingest.aggregate, _counting("ingest.aggregate.calls"))
        self.write_records_csv = wrap("ingest.write", ingest.write_records_csv, _count_write)
        self.gap_report = wrap("ingest.gap_report", ingest.gap_report)
        self.write_gap_csv = wrap("ingest.gap_report", ingest.GapReport.write_csv)
        self.select_typical_days = wrap("matrix.select", matrix.select_typical_days, _count_select)
        self.build_matrix_scenario1 = wrap("matrix.build", matrix.build_matrix_scenario1, _counting("matrix.build.profiles"))
        self.build_matrix_scenario2 = wrap("matrix.build", matrix.build_matrix_scenario2, _counting("matrix.build.profiles"))
        self.reconstruct_day = wrap("reconstruct.rebuild", reconstruct.reconstruct_day, _count_rebuild)
        self.staircase_baseline = wrap("reconstruct.baseline", reconstruct.staircase_baseline)
        self.write_reconstruction_csv = wrap("reconstruct.export", reconstruct.write_reconstruction_csv, _count_export)
        self.write_reconstruction_json = wrap("reconstruct.export", reconstruct.write_reconstruction_json, _count_export)
        self.evaluate_day = wrap("metrics.evaluate", metrics.evaluate_day, _count_evaluate)
        self.summarize = wrap("metrics.summarize", metrics.summarize, _count_summarize)


class Tracer:
    """Span recorder. Span rows are ``[id, name, start_ns, end_ns, parent, pass]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.pass_id = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, time.perf_counter_ns(), 0, parent, self.pass_id]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, layer: str, fn, count=None):
        def traced(*args, **kwargs):
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            except FlowReconError:
                self.counters[f"{layer}.failed"] += 1
                raise
            finally:
                self._close(span)
            if count is not None:
                count(self.counters, result, args)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus time covered by children."""
        child_ns = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            totals[name] += (end - start - child_ns[sid]) / 1e9
        return totals

    def layer_metrics(self, passes: int, pass_wall_s: float, overhead: float, reference_s: float) -> dict[str, float]:
        """Per-layer metrics, per traced pass; ``pass_wall_s`` is the mean pass time.

        ``reference_s`` is the time the passes spent in the speed reference
        kernel, which runs inside the driver's spans and is not its glue.
        """
        self_s = self.self_seconds()
        out = {}
        for layer, (counters, _) in LAYERS.items():
            busy = self_s.get(layer, 0.0) / passes
            for counter in counters:
                work = RATE_WORK.get(counter)
                if work is None:
                    out[f"{layer}.{counter}"] = self.counters.get(f"{layer}.{counter}", 0.0) / passes
                else:
                    amount = self.counters.get(f"{layer}.{work}", 0.0) / passes
                    out[f"{layer}.{counter}"] = amount / busy if busy else 0.0
            out[f"{layer}.busy_s"] = busy
            out[f"{layer}.share"] = busy / pass_wall_s
        driver_s = sum(v for k, v in self_s.items() if k.startswith("driver.")) - reference_s
        out["driver.self_s"] = driver_s / passes
        out["trace.overhead"] = overhead
        return out


UNITS = {"busy_s": "s", "self_s": "s", "share": "ratio", "overhead": "ratio", "bytes": "B"}
LOWER_IS_BETTER = {
    "busy_s", "self_s", "share", "overhead", "bytes", "rejected", "duplicates",
    "filled_slots", "failed", "negative_slots", "clamped_slots", "excluded_slots",
}


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = []
    for layer, (counters, _) in LAYERS.items():
        names += [f"{layer}.{c}" for c in counters] + [f"{layer}.busy_s", f"{layer}.share"]
    specs = []
    for name in names + ["driver.self_s", "trace.overhead"]:
        kind = name.rsplit(".", 1)[1]
        unit = "1/s" if kind in RATE_WORK else UNITS.get(kind, "count")
        specs.append((name, unit, "lower" if kind in LOWER_IS_BETTER else "higher"))
    return specs
