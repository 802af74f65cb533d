import math

import numpy as np
import pytest

from uavloop.errors import (
    ConfigError,
    DimensionError,
    ImputationError,
    OrderingError,
    ParseError,
    SizingError,
)
from uavloop.telemetry import (
    COLUMNS,
    DEFAULT_FEATURES,
    HEADER,
    NormStats,
    SplitSpec,
    TelemetrySeries,
    apply_normalize,
    fit_normalize,
    impute_missing,
    parse_sensor_csv,
    serialize_sensor_csv,
    split,
    window,
    window_matrix,
)


def make_series(n, feature_values=None, start=212000, cadence=4000):
    """Helper: a valid series with optional per-row values for gyro_rad_0."""
    values = np.zeros((n, len(COLUMNS)))
    values[:, COLUMNS.index("timestamp")] = start + cadence * np.arange(n)
    values[:, COLUMNS.index("gyro_integral_dt")] = cadence
    values[:, COLUMNS.index("accelerometer_integral_dt")] = cadence
    if feature_values is not None:
        values[:, COLUMNS.index("gyro_rad_0")] = feature_values
    return TelemetrySeries(values, DEFAULT_FEATURES)


def csv_row(ts, g0=0.1, dt=4000, clip=0):
    return f"{ts},{g0!r},0.0,0.0,{dt},0,0.0,0.0,-9.8,{dt},{clip}"


def make_csv(rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


class TestParsing:
    def test_header_and_row_round_trip(self):
        text = make_csv([csv_row(212000), csv_row(216000, g0=-0.25)])
        series = parse_sensor_csv(text)
        assert len(series) == 2
        assert series.timestamps.tolist() == [212000, 216000]
        assert series.column("gyro_rad_0").tolist() == [0.1, -0.25]
        assert serialize_sensor_csv(series) == text

    def test_serialize_floats_shortest_round_trip(self):
        # 0.1 must come back as "0.1", not 0.10000000000000001
        text = make_csv([csv_row(212000, g0=0.1)])
        assert ",0.1," in serialize_sensor_csv(parse_sensor_csv(text))

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_sensor_csv("a,b,c\n1,2,3\n")
        assert "line 1" in str(err.value)

    def test_non_numeric_cell_names_line(self):
        text = make_csv([csv_row(212000), csv_row(216000).replace("-9.8", "oops")])
        with pytest.raises(ParseError) as err:
            parse_sensor_csv(text)
        assert "line 3" in str(err.value)

    def test_missing_cell_becomes_nan(self):
        text = make_csv([csv_row(212000).replace("-9.8", "")])
        series = parse_sensor_csv(text)
        assert math.isnan(series.column("accelerometer_m_s2_2")[0])
        assert series.has_missing()

    def test_missing_int_column_rejected(self):
        text = make_csv([f"212000,0.1,0.0,0.0,,0,0.0,0.0,-9.8,4000,0"])
        with pytest.raises(ParseError):
            parse_sensor_csv(text)

    def test_timestamps_must_increase(self):
        text = make_csv([csv_row(216000), csv_row(212000)])
        with pytest.raises(OrderingError) as err:
            parse_sensor_csv(text)
        assert "216000" in str(err.value) and "212000" in str(err.value)

    def test_equal_timestamps_rejected(self):
        text = make_csv([csv_row(212000), csv_row(212000)])
        with pytest.raises(OrderingError):
            parse_sensor_csv(text)

    def test_nonpositive_dt_rejected(self):
        text = make_csv([csv_row(212000, dt=0)])
        with pytest.raises(ParseError):
            parse_sensor_csv(text)

    def test_negative_clipping_rejected(self):
        text = make_csv([csv_row(212000, clip=-1)])
        with pytest.raises(ParseError):
            parse_sensor_csv(text)

    def test_blank_lines_skipped(self):
        text = HEADER + "\n\n" + csv_row(212000) + "\n\n" + csv_row(216000) + "\n"
        assert len(parse_sensor_csv(text)) == 2

    def test_wrong_cell_count_rejected(self):
        text = make_csv([csv_row(212000) + ",9"])
        with pytest.raises(ParseError):
            parse_sensor_csv(text)


class TestImputation:
    def test_linear_interior(self):
        # gaps at t=1,2 between 1.0 and 4.0: interpolate to 2.0 and 3.0
        series = make_series(5, feature_values=[1.0, np.nan, np.nan, 4.0, 5.0])
        out = impute_missing(series, "linear")
        assert out.column("gyro_rad_0").tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_linear_boundaries_hold_nearest(self):
        series = make_series(4, feature_values=[np.nan, 2.0, 3.0, np.nan])
        out = impute_missing(series, "linear")
        assert out.column("gyro_rad_0").tolist() == [2.0, 2.0, 3.0, 3.0]

    def test_forward_fill(self):
        series = make_series(4, feature_values=[1.5, np.nan, np.nan, 7.0])
        out = impute_missing(series, "forward-fill")
        assert out.column("gyro_rad_0").tolist() == [1.5, 1.5, 1.5, 7.0]

    def test_forward_fill_leading_gap_rejected(self):
        series = make_series(3, feature_values=[np.nan, 2.0, 3.0])
        with pytest.raises(ImputationError):
            impute_missing(series, "forward-fill")

    def test_all_missing_feature_rejected(self):
        series = make_series(3, feature_values=[np.nan, np.nan, np.nan])
        with pytest.raises(ImputationError):
            impute_missing(series, "linear")

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            impute_missing(make_series(3), "magic")

    def test_clean_series_unchanged(self):
        series = make_series(4, feature_values=[1.0, 2.0, 3.0, 4.0])
        out = impute_missing(series, "linear")
        assert np.array_equal(out.values, series.values)


class TestNormalization:
    def test_population_stats(self):
        series = make_series(4, feature_values=[1.0, 2.0, 3.0, 4.0])
        stats = fit_normalize(series)
        i = DEFAULT_FEATURES.index("gyro_rad_0")
        assert stats.mean[i] == 2.5
        assert stats.std[i] == 1.118033988749895  # population, not sample
        normed = apply_normalize(series, stats)
        col = normed.column("gyro_rad_0")
        assert col[0] == -1.3416407864998738
        assert abs(col.mean()) < 1e-15
        assert abs(col.std() - 1.0) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        series = make_series(50, feature_values=rng.normal(0, 2, 50))
        stats = fit_normalize(series)
        normed = apply_normalize(series, stats)
        back = series.with_features(normed.features() * stats.std + stats.mean)
        assert np.allclose(back.values, series.values, atol=1e-12)

    def test_constant_feature_maps_to_zero(self):
        series = make_series(5, feature_values=[3.0] * 5)
        stats = fit_normalize(series)
        normed = apply_normalize(series, stats)
        assert normed.column("gyro_rad_0").tolist() == [0.0] * 5

    def test_nan_rejected(self):
        series = make_series(3, feature_values=[1.0, np.nan, 3.0])
        with pytest.raises(ImputationError):
            fit_normalize(series)

    def test_feature_name_mismatch(self):
        series = make_series(4)
        stats = fit_normalize(series)
        other = series.with_features(series.features())
        bad = NormStats(("gyro_rad_0",), np.zeros(1), np.ones(1))
        with pytest.raises(DimensionError):
            apply_normalize(other, bad)

    def test_timestamps_untouched(self):
        series = make_series(4, feature_values=[1.0, 2.0, 3.0, 4.0])
        normed = apply_normalize(series, fit_normalize(series))
        assert np.array_equal(normed.timestamps, series.timestamps)


class TestSplit:
    def test_default_sizes(self):
        parts = split(make_series(100))
        assert (len(parts.train), len(parts.val), len(parts.test)) == (60, 20, 20)

    def test_remainder_goes_to_train(self):
        parts = split(make_series(101), SplitSpec(0.6, 0.2, 0.2))
        assert (len(parts.train), len(parts.val), len(parts.test)) == (61, 20, 20)

    def test_chronological_and_contiguous(self):
        series = make_series(50, feature_values=np.arange(50))
        parts = split(series, SplitSpec(0.6, 0.2, 0.2))
        joined = np.concatenate(
            [
                parts.train.column("gyro_rad_0"),
                parts.val.column("gyro_rad_0"),
                parts.test.column("gyro_rad_0"),
            ]
        )
        assert joined.tolist() == list(range(50))

    def test_empty_piece_rejected(self):
        with pytest.raises(ConfigError):
            split(make_series(7), SplitSpec(0.7, 0.2, 0.1))

    def test_too_few_records(self):
        with pytest.raises(ConfigError):
            split(make_series(2), SplitSpec(0.6, 0.2, 0.2))

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            SplitSpec(0.5, 0.2, 0.2)

    def test_ratio_bounds(self):
        with pytest.raises(ConfigError):
            SplitSpec(1.0, 0.0, 0.0)

    def test_floor_insensitive_to_float_noise(self):
        # 0.2 * 35 = 6.999999... in floats; the split must still give 7
        parts = split(make_series(35), SplitSpec(0.6, 0.2, 0.2))
        assert (len(parts.val), len(parts.test)) == (7, 7)


class TestWindowing:
    def test_reconstruction_count_and_shapes(self):
        series = make_series(10, feature_values=np.arange(10))
        data = window(series, seq_len=4, stride=2)
        # floor((10 - 4) / 2) + 1 = 4 windows
        assert len(data) == 4
        assert data.inputs.shape == (4, 4, 6)
        assert data.targets is data.inputs or np.array_equal(data.targets, data.inputs)
        assert data.start_indices.tolist() == [0, 2, 4, 6]

    def test_forecast_targets_follow_inputs(self):
        matrix = np.arange(12, dtype=float)[:, None]
        data = window_matrix(matrix, seq_len=3, stride=1, mode="forecast", horizon=2)
        # floor((12 - 3 - 2) / 1) + 1 = 8 windows
        assert len(data) == 8
        assert data.inputs[0].ravel().tolist() == [0, 1, 2]
        assert data.targets[0].ravel().tolist() == [3, 4]
        assert data.inputs[-1].ravel().tolist() == [7, 8, 9]
        assert data.targets[-1].ravel().tolist() == [10, 11]

    def test_exact_fit_single_window(self):
        matrix = np.arange(5, dtype=float)[:, None]
        data = window_matrix(matrix, seq_len=5)
        assert len(data) == 1

    def test_too_short_gives_sizing_error(self):
        matrix = np.arange(5, dtype=float)[:, None]
        with pytest.raises(SizingError) as err:
            window_matrix(matrix, seq_len=6)
        assert "6" in str(err.value)
        with pytest.raises(SizingError) as err:
            window_matrix(matrix, seq_len=4, mode="forecast", horizon=2)
        assert "4" in str(err.value) and "2" in str(err.value)

    def test_one_dim_input_promoted(self):
        data = window_matrix(np.arange(6, dtype=float), seq_len=2)
        assert data.inputs.shape == (5, 2, 1)

    def test_target_record_indices_reconstruction(self):
        data = window_matrix(np.arange(6, dtype=float), seq_len=3, stride=2)
        rows = data.target_record_indices()
        assert rows.tolist() == [[0, 1, 2], [2, 3, 4]]

    def test_target_record_indices_forecast(self):
        data = window_matrix(np.arange(8, dtype=float), 3, 1, "forecast", 2)
        rows = data.target_record_indices()
        assert rows[0].tolist() == [3, 4]
        assert rows[-1].tolist() == [6, 7]

    def test_stride_one_reconstruction_covers_every_record(self):
        n = 23
        data = window_matrix(np.arange(n, dtype=float), seq_len=7)
        covered = np.zeros(n, dtype=bool)
        covered[data.target_record_indices().ravel()] = True
        assert covered.all()

    def test_bad_mode_and_params(self):
        matrix = np.arange(10, dtype=float)
        with pytest.raises(ConfigError):
            window_matrix(matrix, 3, mode="autoencode")
        with pytest.raises(ConfigError):
            window_matrix(matrix, 0)
        with pytest.raises(ConfigError):
            window_matrix(matrix, 3, stride=0)

    def test_window_count_formula_property(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            seq = int(rng.integers(1, n + 1))
            stride = int(rng.integers(1, 8))
            data = window_matrix(np.arange(n, dtype=float), seq, stride)
            assert len(data) == (n - seq) // stride + 1
            last = data.start_indices[-1]
            assert last + seq <= n


class TestSeriesValidation:
    def test_unknown_feature_rejected(self):
        values = make_series(3).values
        with pytest.raises(ConfigError):
            TelemetrySeries(values, ("gyro_rad_0", "nope"))

    def test_timestamp_not_a_feature(self):
        values = make_series(3).values
        with pytest.raises(ConfigError):
            TelemetrySeries(values, ("timestamp",))

    def test_values_read_only(self):
        series = make_series(3)
        with pytest.raises(ValueError):
            series.values[0, 0] = 1.0

    def test_features_returns_copy(self):
        series = make_series(3)
        feats = series.features()
        feats[0, 0] = 99.0
        assert series.features()[0, 0] != 99.0
