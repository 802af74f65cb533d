"""The benchmark's three workloads: input generation, CLI argv and output checks.

Each workload drives one shipped CLI recipe through ``uavloop.cli.main``.
Inputs are made from the benchmark seed with ``uavloop.synthetic`` and
written by this module's own CSV writer, so the bytes the program reads
depend on the generators only, not on the serializers being measured.

A check returns a list of problems; an empty list means the job's outputs
are correct.  README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from uavloop import packetset as ps
from uavloop import synthetic as syn
from uavloop import telemetry as tel

MISSION_RECORDS = 100_000
MISSION_BLANK_SHARE = 0.01
STREAM_RECORDS = 200_000
STREAM_NTH = 5
STREAM_K_SIGMA = 6.0
STREAM_FEATURE = "accelerometer_m_s2_2"
BATCHES = (4, 8, 16, 32, 64, 128)
PACKETS = 20_000
PACKET_FLOWS = 8


def _csv_text(values: np.ndarray, columns: tuple, int_columns: frozenset) -> str:
    """Column-at-a-time CSV in the format the uavloop parsers read.

    Integer columns are written as integers, floats by repr (round-trip
    exact), and NaN as an empty cell.
    """
    cells = []
    for j, name in enumerate(columns):
        col = values[:, j].tolist()
        if name in int_columns:
            cells.append([str(int(v)) for v in col])
        else:
            cells.append(["" if v != v else repr(v) for v in col])
    lines = [",".join(columns)]
    lines.extend(",".join(row) for row in zip(*cells))
    return "\n".join(lines) + "\n"


def mission_input(seed: int) -> str:
    """A clean synthetic mission with 1% of its sensor cells blanked."""
    series = syn.synth_mission(n_records=MISSION_RECORDS, seed=seed)
    values = np.array(series.values)
    sensors = list(series.feature_indices)
    rng = np.random.default_rng([seed, 101])
    total = MISSION_RECORDS * len(sensors)
    picks = rng.choice(total, size=int(total * MISSION_BLANK_SHARE), replace=False)
    rows, cols = np.divmod(picks, len(sensors))
    values[rows, np.asarray(sensors)[cols]] = np.nan
    return _csv_text(values, tel.COLUMNS, tel.INT_COLUMNS)


def stream_input(seed: int) -> str:
    """A labeled mission whose every 5th record sits 6 sigma off its feature mean."""
    values = np.array(syn.synth_mission(n_records=STREAM_RECORDS, seed=seed).values)
    col = values[:, tel.COLUMNS.index(STREAM_FEATURE)]
    rows = np.arange(STREAM_NTH - 1, STREAM_RECORDS, STREAM_NTH)
    col[rows] = col.mean() + STREAM_K_SIGMA * col.std()
    labels = np.zeros((STREAM_RECORDS, 1))
    labels[rows] = 1.0
    columns = tel.COLUMNS + ("label",)
    return _csv_text(np.hstack([values, labels]), columns, tel.INT_COLUMNS | {"label"})


def packet_input(seed: int) -> str:
    return syn.synth_packet_log(n_packets=PACKETS, seed=seed, n_flows=PACKET_FLOWS)


def _csv_columns(path: str) -> dict:
    """A plain numeric CSV as {column name: tuple of cells}."""
    with open(path, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))


def _manifest(out: str) -> dict:
    with open(os.path.join(out, "run_manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_mission(out: str) -> list[str]:
    problems = []
    with open(os.path.join(out, "metrics.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)
    threshold = metrics["threshold"]
    records = _csv_columns(os.path.join(out, "records.csv"))
    counts = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
    wrong_flags = 0
    for loss, flag, label in zip(records["loss"], records["predicted"], records["truth"]):
        predicted, truth = flag == "1", label == "1"
        if predicted != (float(loss) > threshold):
            wrong_flags += 1
        counts[("t" if predicted == truth else "f") + ("p" if predicted else "n")] += 1
    if wrong_flags:
        problems.append(f"{wrong_flags} records.csv rows disagree with loss > threshold")
    recorded = {k: metrics[k] for k in counts}
    if recorded != counts:
        problems.append(f"metrics.json counts {recorded} != records.csv recount {counts}")
    n_test = math.floor(MISSION_RECORDS * 0.2 + 1e-9)
    labels = [float(v) for v in _csv_columns(os.path.join(out, "labeled.csv"))["label"]]
    if len(labels) != n_test or labels.count(1.0) != n_test // 5:
        problems.append(
            f"labeled.csv has {labels.count(1.0)} labels over {len(labels)} rows, "
            f"expected {n_test // 5} over {n_test}"
        )
    return problems


def check_stream(out: str) -> list[str]:
    problems = []
    sweep = _csv_columns(os.path.join(out, "sweep.csv"))
    sizes = [int(v) for v in sweep["batch_size"]]
    if sizes != list(BATCHES):
        return [f"sweep.csv batch sizes {sizes} != {list(BATCHES)}"]
    elapsed = [float(v) for v in sweep["elapsed_s"]]
    if not all(a > b for a, b in zip(elapsed, elapsed[1:])):
        problems.append(f"elapsed_s does not fall strictly with batch size: {elapsed}")
    scores = set(zip(*(sweep[k] for k in ("accuracy", "precision", "recall", "f_score"))))
    if len(scores) != 1:
        problems.append(f"metrics differ across batch sizes: {sorted(scores)}")
    cfg = _manifest(out)["config"]
    tier = cfg["tier"]
    factor, link_s = cfg[f"{tier}_factor"], cfg[f"{tier}_link_ms"] / 1000.0
    for b, got in zip(BATCHES, elapsed):
        want = (
            cfg["latency_a"]
            + (cfg["latency_b"] + link_s) * math.ceil(STREAM_RECORDS / b)
            + cfg["latency_c"] * STREAM_RECORDS * factor
        )
        if not math.isclose(got, want, rel_tol=1e-9):
            problems.append(f"batch {b}: elapsed_s {got!r} != closed form {want!r}")
    return problems


def check_packets(out: str) -> list[str]:
    """Read samples.txt back as a dataset consumer would, then check it."""
    with open(os.path.join(out, "samples.txt"), encoding="utf-8") as fh:
        text = fh.read()
    samples = ps.parse_dataset(text)
    report = ps.score_fields([s.rejected for s in samples], [s.chosen for s in samples])
    problems = []
    documents = text.splitlines().count("#Context")
    if documents != 2 * len(samples):
        problems.append(f"{len(samples)} pairs parsed from {documents} documents")
    if "1 error: 100.00" not in report.to_text().splitlines():
        problems.append("rejected vs chosen is not 100.00% in the 1-error bucket")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable[[int], str]
    recipe: tuple
    check: Callable[[str], list]
    records: int

    def argv(self, data: str, out: str) -> list[str]:
        return [*self.recipe, "--data", data, "--out", out]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mission-nth", mission_input, ("experiment", "nth"), check_mission,
                 MISSION_RECORDS),
        Workload(
            "stream-sweep",
            stream_input,
            ("experiment", "batch-sweep", "--batches", ",".join(map(str, BATCHES))),
            check_stream,
            STREAM_RECORDS,
        ),
        Workload("packet-pairs", packet_input, ("packetset", "build"), check_packets, PACKETS),
    )
}
