"""In-memory span tracer that wraps uavloop's public functions from outside.

Nothing under ``src/`` is changed: ``install`` swaps module attributes and
class methods for timing wrappers and ``uninstall`` puts the originals back.
Names that a module imported by name are wrapped where they were rebound,
so the tracer sees the calls the CLI actually makes.

A span is ``[name, start, end, parent, job]``.  A wrapped call made while a
span of the same name is open (``window`` calling ``window_matrix``) is
left to the outer span, so a layer's busy time is never counted twice.
Counts are added at the same boundaries, inside a ``trace.count`` span so
that their cost is not charged to the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
import zlib
from contextlib import contextmanager

import numpy as np

# (name, unit) of every per-layer metric, in BENCHMARK.json order.  Busy
# times (``_s``) include nested layer spans; ``cli.self_s`` and
# ``bench.check_s`` are self times.  Counts are totals per job.  Values are
# medians over traced jobs.
LAYER_METRICS = (
    ("telemetry.load_s", "s"),
    ("telemetry.records_in", "count"),
    ("telemetry.impute_s", "s"),
    ("telemetry.cells_imputed", "count"),
    ("telemetry.normalize_s", "s"),
    ("telemetry.split_s", "s"),
    ("telemetry.window_s", "s"),
    ("telemetry.window_mb", "MB"),
    ("inject.inject_s", "s"),
    ("inject.load_labeled_s", "s"),
    ("inject.save_labeled_s", "s"),
    ("inject.csv_mb", "MB"),
    ("inject.anomalies", "count"),
    ("forecast.train_s", "s"),
    ("forecast.train_steps", "count"),
    ("forecast.windows_per_s", "1/s"),
    ("forecast.predict_s", "s"),
    ("detect.detect_s", "s"),
    ("detect.record_losses_s", "s"),
    ("detect.threshold_s", "s"),
    ("detect.evaluate_s", "s"),
    ("detect.pool_size", "count"),
    ("detect.flagged", "count"),
    ("detect.write_s", "s"),
    ("tiersim.simulate_s", "s"),
    ("tiersim.detector_s", "s"),
    ("tiersim.detector_calls", "count"),
    ("tiersim.detector_inputs", "count"),
    ("tiersim.batches", "count"),
    ("packetset.parse_csv_s", "s"),
    ("packetset.packets_in", "count"),
    ("packetset.build_s", "s"),
    ("packetset.sessions_s", "s"),
    ("packetset.sessions", "count"),
    ("packetset.pairs", "count"),
    ("packetset.render_s", "s"),
    ("packetset.samples_mb", "MB"),
    ("packetset.parse_dataset_s", "s"),
    ("packetset.score_s", "s"),
    ("cli.self_s", "s"),
    ("bench.check_s", "s"),
    ("trace_overhead_s", "s"),
)

# Spans whose self time, rather than inclusive time, is the metric.
_SELF_TIMED = {"cli.main": "cli.self_s", "bench.check": "bench.check_s"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = {}
        self.job = None
        self._open: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.job]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def add(self, key: str, value) -> None:
        """Add to a per-job count; a frozenset value collects distinct tokens."""
        slot = (self.job, key)
        if isinstance(value, frozenset):
            self.counts[slot] = self.counts.get(slot, frozenset()) | value
        else:
            self.counts[slot] = self.counts.get(slot, 0) + value

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if any(self.spans[i][0] == name for i in self._open):
                return original(*args, **kwargs)
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                with self.span("trace.count"):
                    for key, value in count(args, result).items():
                        self.add(key, value)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        for owner, attr, name, count in _targets():
            self.wrap(owner, attr, name, count)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                ) + "\n")


def _window_mb(args, result) -> dict:
    """Bytes of the distinct buffers behind the returned window arrays."""
    buffers = {}
    for arr in (result.inputs, result.targets):
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        buffers[id(arr)] = arr.nbytes
    return {"telemetry.window_mb": sum(buffers.values()) / 1e6}


def _detector_counts(args, result) -> dict:
    matrix = np.ascontiguousarray(args[1])
    token = (matrix.shape, zlib.crc32(matrix))
    return {"tiersim.detector_calls": 1, "tiersim.detector_inputs": frozenset([token])}


def _targets() -> list[tuple]:
    """(owner, attribute, span name, count function) for every wrapped call."""
    mod = importlib.import_module
    tel, inj = mod("uavloop.telemetry"), mod("uavloop.inject")
    fc, det = mod("uavloop.forecast"), mod("uavloop.detect")
    ts, ps, cli = mod("uavloop.tiersim"), mod("uavloop.packetset"), mod("uavloop.cli")

    def pool(args, result):
        return {"detect.pool_size": int(np.size(args[0]))}

    return [
        (tel, "load_sensor_csv", "telemetry.load", lambda a, r: {"telemetry.records_in": len(r)}),
        (tel, "impute_missing", "telemetry.impute",
         lambda a, r: {"telemetry.cells_imputed": int(np.isnan(a[0].values).sum())}),
        (tel, "fit_normalize", "telemetry.normalize", None),
        (tel, "apply_normalize", "telemetry.normalize", None),
        (tel, "split", "telemetry.split", None),
        (tel, "window", "telemetry.window", _window_mb),
        (tel, "window_matrix", "telemetry.window", _window_mb),
        (ts, "window_matrix", "telemetry.window", _window_mb),
        (inj, "inject_every_nth", "inject.inject", None),
        (inj, "load_labeled_csv", "inject.load_labeled",
         lambda a, r: {"telemetry.records_in": len(r.series)}),
        (inj, "save_labeled_csv", "inject.save_labeled",
         lambda a, r: {"inject.anomalies": a[0].anomaly_count(),
                       "inject.csv_mb": os.path.getsize(a[1]) / 1e6}),
        (fc, "train", "forecast.train", None),
        (fc.Predictor, "loss_and_grad", "forecast.step",
         lambda a, r: {"forecast.train_steps": 1, "forecast.windows_trained": len(a[1])}),
        (fc.Predictor, "predict_batch", "forecast.predict", None),
        (cli, "run_detect", "detect.detect",
         lambda a, r: {"detect.flagged": int(np.count_nonzero(r.predicted))}),
        (det, "record_losses", "detect.record_losses", None),
        (cli, "record_losses", "detect.record_losses", None),
        (det, "percentile_threshold", "detect.threshold", pool),
        (ts, "percentile_threshold", "detect.threshold", pool),
        (det, "evaluate", "detect.evaluate", None),
        (ts, "evaluate", "detect.evaluate", None),
        (det, "metrics_json", "detect.write", None),
        (det, "records_csv", "detect.write", None),
        (cli, "metrics_json", "detect.write", None),
        (cli, "records_csv", "detect.write", None),
        (ts, "simulate_stream", "tiersim.simulate",
         lambda a, r: {"tiersim.batches": r[0].n_batches}),
        (ts.PersistenceDetector, "losses", "tiersim.detector", _detector_counts),
        (ts.PredictorDetector, "losses", "tiersim.detector", _detector_counts),
        (ps, "parse_packet_csv", "packetset.parse_csv",
         lambda a, r: {"packetset.packets_in": len(r)}),
        (ps, "extract_sessions", "packetset.sessions",
         lambda a, r: {"packetset.sessions": len(r)}),
        (ps, "build_dataset", "packetset.build", lambda a, r: {"packetset.pairs": len(r)}),
        (ps, "render_dataset", "packetset.render",
         lambda a, r: {"packetset.samples_mb": len(r.encode()) / 1e6}),
        (ps, "parse_dataset", "packetset.parse_dataset", None),
        (ps, "score_fields", "packetset.score", None),
    ]


def layer_metrics(tracer: Tracer, traced_jobs: list, traced_s: list, plain_s: list) -> dict:
    """Per-layer metrics as the median over traced jobs of per-job values."""
    per_job = {job: {} for job in traced_jobs}
    children: dict = {}
    for name, start, end, parent, job in tracer.spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    for index, (name, start, end, parent, job) in enumerate(tracer.spans):
        if job not in per_job:
            continue
        seconds = end - start
        key = name + "_s"
        if name in _SELF_TIMED:
            seconds -= children.get(index, 0.0)
            key = _SELF_TIMED[name]
        per_job[job][key] = per_job[job].get(key, 0.0) + seconds
    for (job, key), value in tracer.counts.items():
        if job in per_job:
            per_job[job][key] = len(value) if isinstance(value, frozenset) else value
    for values in per_job.values():
        train_s = values.get("forecast.train_s", 0.0)
        windows = values.get("forecast.windows_trained", 0)
        values["forecast.windows_per_s"] = windows / train_s if train_s else 0.0
    metrics = {"trace_overhead_s": statistics.median(traced_s) - statistics.median(plain_s)}
    for name, unit in LAYER_METRICS:
        if name not in metrics:
            # A count is reported as one job's value, not an average of two.
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = median(v.get(name, 0) for v in per_job.values())
    return metrics
