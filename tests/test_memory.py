"""Peak memory of the full-set passes and the numeric CSV loads, traced with tracemalloc.

Each bound is one the one-pass forms exceed: ``Predictor.loss`` held one
(W, n_out) squared-error array, ``record_losses`` one (W, horizon) error
array, and the blank fill of ``parse_table`` three body-sized buffers.  A
numeric CSV file load that decodes the file and copies its body holds the
file two to four times over, and one that holds the file's bytes holds them once; a load in chunks holds
its matrices and a few chunk-sized buffers; a labeled CSV's matrices are its
series and its label column, never the whole table.  The stream path's
persistence scorer holds its output and one row block's temporaries.  A step
that builds a new series matrix hands the series that copy, frozen, so it is
never copied again.  A packet dataset built on columns and written in blocks
holds less than its output, and no sample or rejected record per pair; read
back, it holds under two and a half times its text.  A labeled or sensor CSV
written in row blocks holds one block's cells, whatever its row count.  A
detection experiment frees the mission and its splits before it writes.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from uavloop import inject, telemetry
from uavloop.cli import main
from uavloop.detect import record_losses
from uavloop.forecast import PredictorConfig, init_predictor
from uavloop.inject import inject_every_nth, load_labeled_csv, save_labeled_csv
from uavloop.packetset import build_samples_text, parse_dataset
from uavloop.synthetic import synth_mission, synth_packet_log
from uavloop.telemetry import (
    COLUMNS,
    INT_COLUMNS,
    TelemetrySeries,
    WindowedDataset,
    apply_normalize,
    fit_normalize,
    impute_missing,
    load_sensor_csv,
    parse_table,
    save_sensor_csv,
    serialize_sensor_csv,
    write_text,
)
from uavloop.tiersim import LatencyModel, PersistenceDetector, Tier, run_batch_experiment

from support import reference_loss

# Three full blocks and a 1-row tail, so every block is a third of the set.
WINDOWS = 3 * telemetry.BLOCK_ROWS + 1
SEQ_LEN, HORIZON = 4, 16


def traced_peak(fn, *args) -> int:
    """Bytes fn(*args) allocates at its peak, above what was live before the call."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def forecast_set(count=WINDOWS):
    """A one-feature predictor and ``count`` contiguous forecast windows with stride-1 starts."""
    rng = np.random.default_rng(count)
    inputs = rng.normal(size=(count, SEQ_LEN, 1))
    targets = rng.normal(size=(count, HORIZON, 1))
    data = WindowedDataset(inputs, targets, stride=1, target_offset=SEQ_LEN)
    cfg = PredictorConfig(seq_len=SEQ_LEN, horizon=HORIZON, fcn_dim=2, seed=1)
    return init_predictor(cfg, 1), data


class TestPeakMemory:
    def test_loss_holds_one_block(self):
        predictor, data = forecast_set()
        full = WINDOWS * predictor.n_out * 8
        assert traced_peak(predictor.loss, data.inputs, data.targets) < full / 2

    def test_record_losses_holds_no_full_set_array_pair(self):
        predictor, data = forecast_set()
        one = WINDOWS * HORIZON * 8
        # A block's predictions and errors are each a third of one
        # (W, horizon) array here, so a single array is out of reach.
        assert traced_peak(record_losses, predictor, data) < 2 * one

    def test_record_losses_squares_each_block_in_place(self):
        predictor, data = forecast_set()
        one = WINDOWS * HORIZON * 8
        # A block's predictions and per-row losses are each a third of one
        # (W, horizon) array, and the peak is about seven sixths of it.  A
        # separate squared-error block adds a third more, about three halves.
        assert traced_peak(record_losses, predictor, data) < 4 / 3 * one

    def test_blank_fill_holds_two_body_buffers(self):
        lines = "".join(serialize_sensor_csv(synth_mission(n_records=20000, seed=3))).splitlines()
        for k in range(8, len(lines), 50):
            cells = lines[k].split(",")
            # Two adjacent blanks need both ",," passes.
            cells[2] = cells[3] = ""
            lines[k] = ",".join(cells)
        text = "\n".join(lines) + "\n"
        assert traced_peak(parse_table, text.encode(), COLUMNS, INT_COLUMNS) < 2.5 * len(text)


class TestLoadPeakMemory:
    """A file load holds the file's bytes once, and never beside two matrices."""

    def test_load_sensor_csv(self, tmp_path):
        series = synth_mission(n_records=20000, seed=3)
        path = tmp_path / "clean.csv"
        save_sensor_csv(series, path)
        bound = path.stat().st_size + 2 * series.values.nbytes
        assert traced_peak(load_sensor_csv, path) < bound

    def test_load_labeled_csv(self, tmp_path):
        labeled = inject_every_nth(synth_mission(n_records=20000, seed=3), 5)
        path = tmp_path / "labeled.csv"
        save_labeled_csv(labeled, path)
        labels = len(labeled.series) * 8
        bound = path.stat().st_size + labeled.series.values.nbytes + labels
        assert traced_peak(load_labeled_csv, path) < bound


def blank_mission(n_records):
    """A synthetic mission with blank cells, two of them adjacent, in its sensor columns."""
    values = np.array(synth_mission(n_records=n_records, seed=3).values)
    values[8::50, 2:4] = np.nan
    values[5::40, 6] = np.nan
    return TelemetrySeries(values)


# The chunk size of TestChunkedLoadPeak's loads.  What a chunked load holds
# beside its matrices, whatever the file's size (a chunk, its blank-filled
# copies, and numpy's reading of it), is then well below one 20,000-record
# matrix, so a second matrix shows at either size.
CHUNK_BYTES = 1 << 16
CHUNK_SLACK = 5 * CHUNK_BYTES


@pytest.mark.parametrize("records", [20000, 80000])
class TestChunkedLoadPeak:
    """A load's peak is its result matrices plus a constant that does not grow with the file."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(telemetry, "_CHUNK_BYTES", CHUNK_BYTES)

    def test_load_sensor_csv_holds_one_matrix(self, tmp_path, records):
        series = blank_mission(records)
        path = tmp_path / "mission.csv"
        save_sensor_csv(series, path)
        # TelemetrySeries checks the order on the (N,) timestamp steps and an (N,) mask.
        checks = records * (8 + 1)
        assert traced_peak(load_sensor_csv, path) < series.values.nbytes + checks + CHUNK_SLACK

    def test_load_labeled_csv_holds_the_series_and_the_labels(self, tmp_path, records):
        labeled = inject_every_nth(synth_mission(n_records=records, seed=3), 5)
        path = tmp_path / "labeled.csv"
        save_labeled_csv(labeled, path)
        # The (N, 11) series and the (N,) label column the chunks are copied into.
        matrices = records * (len(COLUMNS) + 1) * 8
        checks = records * (8 + 1)
        assert traced_peak(load_labeled_csv, path) < matrices + checks + CHUNK_SLACK

    def test_blank_cells_in_bytes_hold_one_matrix(self, records):
        series = blank_mission(records)
        data = "".join(serialize_sensor_csv(series)).encode()
        peak = traced_peak(parse_table, data, COLUMNS, INT_COLUMNS)
        assert peak < series.values.nbytes + CHUNK_SLACK


STREAM_TIER = Tier("edge", compute_factor=1.0)
STREAM_COSTS = LatencyModel(a=0.0, b=0.001, c=0.0)


class TestStreamPeak:
    """The stream path scores in row blocks; a full-size (N, D) jump breaks each bound."""

    def test_persistence_losses_hold_the_output_and_one_block(self):
        matrix = np.random.default_rng(5).normal(size=(50000, 6))
        output = len(matrix) * 8
        # A block's jumps, their squares and their row means.
        block = 3 * (telemetry.BLOCK_ROWS + 1) * matrix.shape[1] * 8
        assert traced_peak(PersistenceDetector().losses, matrix) < output + block

    def test_batch_experiment_on_a_loaded_labeled_csv(self, tmp_path):
        records = 80000
        path = tmp_path / "labeled.csv"
        save_labeled_csv(inject_every_nth(synth_mission(n_records=records, seed=3), 5), path)

        def sweep():
            labeled = load_labeled_csv(path)
            run_batch_experiment(labeled, [4, 8], STREAM_TIER, STREAM_COSTS, PersistenceDetector())

        # The series, its (N, 6) features and three loss vectors (the losses,
        # their sorted copy, the flags and labels), plus one chunk.
        bound = records * (len(COLUMNS) + 6 + 3) * 8 + telemetry._CHUNK_BYTES
        assert traced_peak(sweep) < bound


class TestWorkingCopyPeak:
    """A series step holds its new matrix once; a second copy of it breaks each bound."""

    def test_impute_missing(self):
        series = blank_mission(20000)
        # The filled copy and one column's interpolation temporaries.
        assert traced_peak(impute_missing, series) < 1.5 * series.values.nbytes

    def test_apply_normalize(self):
        series = synth_mission(n_records=20000, seed=3)
        stats = fit_normalize(series)
        # The new matrix and two (N, 6) feature arrays, each 6/11 of it.
        assert traced_peak(apply_normalize, series, stats) < 2 * series.values.nbytes

    def test_inject_every_nth(self):
        series = synth_mission(n_records=20000, seed=3)
        # The perturbed copy, the labels and the selected rows.
        assert traced_peak(inject_every_nth, series, 5) < 1.5 * series.values.nbytes


class TestPacketBuildPeak:
    def test_csv_text_to_samples_text(self, tmp_path):
        path = tmp_path / "samples.txt"
        for packets in (20000, 80000):
            text = synth_packet_log(n_packets=packets, seed=3, n_flows=8)
            peak = traced_peak(lambda: write_text(path, build_samples_text(text)))
            # 0.7 times the output; built whole and then written, 2.8 times.
            assert peak < path.stat().st_size

    def test_parse_dataset(self):
        text = "".join(build_samples_text(synth_packet_log(n_packets=20000, seed=3, n_flows=8)))
        # 1.6 times the text; holding the documents and the block lines together, 4.7.
        assert traced_peak(parse_dataset, text) < 2.5 * len(text)


class TestWritePeak:
    def test_labeled_csv_holds_one_row_block(self, tmp_path):
        peaks = {}
        for records in (20000, 80000):
            labeled = inject_every_nth(synth_mission(n_records=records, seed=3), 5)
            peaks[records] = traced_peak(save_labeled_csv, labeled, tmp_path / "labeled.csv")
        # Rendered whole, the peak grows with the rows: 27 MB, then 110 MB.
        assert peaks[80000] < 1.1 * peaks[20000]

    def test_sensor_csv_holds_one_row_block(self, tmp_path):
        peaks = {}
        for records in (20000, 80000):
            series = synth_mission(n_records=records, seed=3)
            peaks[records] = traced_peak(save_sensor_csv, series, tmp_path / "clean.csv")
        # Joined into one string, the peak grows with the rows: 6.6 MB, then 23.7 MB.
        assert peaks[80000] < 1.1 * peaks[20000]


class TestRecipeLifetimes:
    def test_detection_experiment_writes_without_the_mission(self, tmp_path, monkeypatch):
        # The writes set the recipe's peak; holding the mission through them
        # raised one 100k-record run's VmHWM from 79.5 to 87.9 MB.
        records, save = 600, inject.save_labeled_csv
        alive = []

        def spy(labeled, path):
            alive.extend(len(o) for o in gc.get_objects() if isinstance(o, TelemetrySeries))
            save(labeled, path)

        monkeypatch.setattr(inject, "save_labeled_csv", spy)
        argv = ["experiment", "nth", "--records", str(records), "--seq-len", "8",
                "--fcn-dim", "8", "--epochs", "1", "--out", str(tmp_path)]
        assert main(argv) == 0
        # The 120-record test split, injected, is all that is left.
        assert alive and max(alive) == records // 5


class TestBlockedLoss:
    def test_one_block_equals_whole_array_mean(self):
        predictor, data = forecast_set(telemetry.BLOCK_ROWS - 1)
        want = reference_loss(predictor, data.inputs, data.targets)
        assert predictor.loss(data.inputs, data.targets) == want

    def test_several_blocks_within_rounding_of_whole_array_mean(self):
        predictor, data = forecast_set()
        want = reference_loss(predictor, data.inputs, data.targets)
        got = predictor.loss(data.inputs, data.targets)
        assert math.isclose(got, want, rel_tol=1e-14)
