"""Peak memory of the full-set passes and the numeric CSV loads, traced with tracemalloc.

Each bound is one the one-pass forms exceed: ``Predictor.loss`` held one
(W, n_out) squared-error array, ``record_losses`` one (W, horizon) error
array and one (W, horizon) record-index array, and the blank fill of
``parse_table`` three body-sized buffers.  A numeric CSV file load that
decodes the file and copies its body holds the file two to four times over,
and one that holds the file's bytes holds them once; a load in chunks holds
its matrices and a few chunk-sized buffers.
"""

import math
import tracemalloc

import numpy as np
import pytest

from uavloop import forecast as fc
from uavloop import telemetry
from uavloop.detect import record_losses
from uavloop.forecast import PredictorConfig, init_predictor
from uavloop.inject import inject_every_nth, load_labeled_csv, save_labeled_csv
from uavloop.synthetic import synth_mission
from uavloop.telemetry import (
    COLUMNS,
    INT_COLUMNS,
    TelemetrySeries,
    WindowedDataset,
    load_sensor_csv,
    parse_table,
    save_sensor_csv,
    serialize_sensor_csv,
)

from support import reference_loss

# Three full blocks and a 1-row tail, so every block is a third of the set.
WINDOWS = 3 * fc._BLOCK_ROWS + 1
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
    data = WindowedDataset(inputs, targets, np.arange(count), SEQ_LEN, "forecast", HORIZON)
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
        # A block's predictions, errors and record indices are each a third
        # of one (W, horizon) array here, so a single array is out of reach.
        assert traced_peak(record_losses, predictor, data) < 2 * one

    def test_record_losses_squares_each_block_in_place(self):
        predictor, data = forecast_set()
        one = WINDOWS * HORIZON * 8
        # A block's predictions, per-row losses and record indices are each a
        # third of one (W, horizon) array.  A separate error block, or the two
        # that pointwise_loss made, takes the peak past five thirds.
        assert traced_peak(record_losses, predictor, data) < 5 / 3 * one

    def test_blank_fill_holds_two_body_buffers(self):
        lines = serialize_sensor_csv(synth_mission(n_records=20000, seed=3)).splitlines()
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
        matrix = len(labeled.series) * (len(COLUMNS) + 1) * 8
        bound = path.stat().st_size + 2 * matrix
        assert traced_peak(load_labeled_csv, path) < bound


def blank_mission(n_records):
    """A synthetic mission with blank cells, two of them adjacent, in its sensor columns."""
    values = np.array(synth_mission(n_records=n_records, seed=3).values)
    values[8::50, 2:4] = np.nan
    values[5::40, 6] = np.nan
    return TelemetrySeries(values)


# What a chunked load holds beside its matrices, whatever the file's size: a
# chunk, its blank-filled copies, and numpy's reading of it.
CHUNK_SLACK = 5 * telemetry._CHUNK_BYTES


@pytest.mark.parametrize("records", [20000, 80000])
class TestChunkedLoadPeak:
    """A load's peak is its result matrices plus a constant that does not grow with the file."""

    def test_load_sensor_csv_holds_one_matrix(self, tmp_path, records):
        series = blank_mission(records)
        path = tmp_path / "mission.csv"
        save_sensor_csv(series, path)
        assert traced_peak(load_sensor_csv, path) < series.values.nbytes + CHUNK_SLACK

    def test_load_labeled_csv_holds_the_table_and_the_series(self, tmp_path, records):
        labeled = inject_every_nth(synth_mission(n_records=records, seed=3), 5)
        path = tmp_path / "labeled.csv"
        save_labeled_csv(labeled, path)
        # The (N, 12) table and the (N, 11) series copied out of it.
        matrices = records * (2 * len(COLUMNS) + 1) * 8
        assert traced_peak(load_labeled_csv, path) < matrices + CHUNK_SLACK

    def test_blank_cells_in_bytes_hold_one_matrix(self, records):
        series = blank_mission(records)
        data = serialize_sensor_csv(series).encode()
        peak = traced_peak(parse_table, data, COLUMNS, INT_COLUMNS)
        assert peak < series.values.nbytes + CHUNK_SLACK


class TestBlockedLoss:
    def test_one_block_equals_whole_array_mean(self):
        predictor, data = forecast_set(fc._BLOCK_ROWS - 1)
        want = reference_loss(predictor, data.inputs, data.targets)
        assert predictor.loss(data.inputs, data.targets) == want

    def test_several_blocks_within_rounding_of_whole_array_mean(self):
        predictor, data = forecast_set()
        want = reference_loss(predictor, data.inputs, data.targets)
        got = predictor.loss(data.inputs, data.targets)
        assert math.isclose(got, want, rel_tol=1e-14)
