import numpy as np
import pytest

from uavloop.errors import ConfigError, ImputationError, ParseError
from uavloop.inject import (
    InjectionMeta,
    LabeledSeries,
    PerturbSpec,
    inject_every_nth,
    inject_poisson,
    inject_random,
    inject_variance,
    load_labeled_csv,
    save_labeled_csv,
    serialize_labeled_csv,
    variance_sweep,
)
from uavloop.synthetic import synth_mission
from uavloop.telemetry import DEFAULT_FEATURES

from test_telemetry import make_series


class TestEveryNth:
    def test_rows_are_one_based_multiples(self):
        labeled = inject_every_nth(make_series(10), 3)
        assert np.nonzero(labeled.labels)[0].tolist() == [2, 5, 8]

    def test_count_is_floor(self):
        for n_records, n in [(10, 3), (9, 3), (11, 3), (20000, 5), (7, 10)]:
            labeled = inject_every_nth(make_series(n_records), n)
            assert labeled.anomaly_count() == n_records // n

    def test_stride_below_two_rejected(self):
        with pytest.raises(ConfigError):
            inject_every_nth(make_series(10), 1)

    def test_offset_sigma_value_frozen(self):
        # column [1,2,3,4]: mean 2.5, population std 1.118033988749895,
        # perturbed value = 2.5 + 6 * std = 9.20820393249937
        series = make_series(4, feature_values=[1.0, 2.0, 3.0, 4.0])
        spec = PerturbSpec(feature="gyro_rad_0", mode="offset-sigma", k=6.0)
        labeled = inject_every_nth(series, 2, spec)
        col = labeled.series.column("gyro_rad_0")
        assert col[1] == 9.20820393249937
        assert col[3] == 9.20820393249937
        assert col[0] == 1.0 and col[2] == 3.0

    def test_sigma_from_input_not_clean_subset(self):
        # the spread is measured over the full input series, labels included
        series = make_series(4, feature_values=[1.0, 2.0, 3.0, 4.0])
        spec = PerturbSpec(feature="gyro_rad_0", mode="offset-sigma", k=0.0)
        labeled = inject_every_nth(series, 2, spec)
        assert labeled.series.column("gyro_rad_0")[1] == 2.5

    def test_other_features_untouched(self):
        series = synth_mission(50, seed=1)
        labeled = inject_every_nth(series, 5)
        for name in DEFAULT_FEATURES:
            if name == "accelerometer_m_s2_2":
                continue
            assert np.array_equal(labeled.series.column(name), series.column(name))

    def test_unknown_feature_rejected(self):
        spec = PerturbSpec(feature="timestamp", mode="offset-sigma")
        with pytest.raises(ConfigError):
            inject_every_nth(make_series(10), 2, spec)

    def test_nan_rejected_for_offset_sigma(self):
        series = make_series(4, feature_values=[1.0, np.nan, 3.0, 4.0])
        spec = PerturbSpec(feature="gyro_rad_0", mode="offset-sigma")
        with pytest.raises(ImputationError):
            inject_every_nth(series, 2, spec)

    def test_meta_records_scheme(self):
        labeled = inject_every_nth(make_series(10), 5)
        assert labeled.meta.scheme == "every-nth"
        assert labeled.meta.params["n"] == 5
        assert labeled.meta.params["perturb"]["mode"] == "offset-sigma"


class TestRandom:
    def test_fixed_count_is_rounded(self):
        # round half to even: round(0.05 * 10) = 0, round(0.5 * 4) = 2
        assert inject_random(make_series(10), 0.05).anomaly_count() == 0
        assert inject_random(make_series(4), 0.5).anomaly_count() == 2
        assert inject_random(make_series(1000), 0.05).anomaly_count() == 50

    def test_seed_reproduces_selection(self):
        a = inject_random(make_series(200), 0.1, seed=42)
        b = inject_random(make_series(200), 0.1, seed=42)
        c = inject_random(make_series(200), 0.1, seed=43)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.labels, c.labels)

    def test_bernoulli_rate(self):
        hits = inject_random(make_series(5000), 0.1, seed=0, selection="bernoulli")
        rate = hits.anomaly_count() / 5000
        assert abs(rate - 0.1) < 0.02

    def test_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                inject_random(make_series(10), bad)

    def test_unknown_selection(self):
        with pytest.raises(ConfigError):
            inject_random(make_series(10), 0.1, selection="stratified")

    def test_labels_match_perturbed_rows(self):
        series = make_series(100, feature_values=np.zeros(100))
        spec = PerturbSpec(feature="gyro_rad_0", mode="set-value", value=5.0)
        labeled = inject_random(series, 0.2, spec, seed=3)
        changed = labeled.series.column("gyro_rad_0") == 5.0
        assert np.array_equal(changed, labeled.labels)


class TestVariance:
    def test_every_nth_selection(self):
        labeled = inject_variance(make_series(10), "accelerometer_m_s2_2", -8.5, 5)
        assert np.nonzero(labeled.labels)[0].tolist() == [4, 9]
        col = labeled.series.column("accelerometer_m_s2_2")
        assert col[4] == -8.5 and col[9] == -8.5

    def test_labels_follow_selection_even_without_change(self):
        # writing the value a record already holds still marks it anomalous
        series = make_series(6, feature_values=[0.5] * 6)
        labeled = inject_variance(series, "gyro_rad_0", 0.5, 6)
        assert labeled.labels[5]
        assert labeled.anomaly_count() == 1

    def test_empty_selection_rejected(self):
        with pytest.raises(ConfigError):
            inject_variance(make_series(10), "gyro_rad_0", 0.0, 11)

    def test_out_of_range_rejected(self):
        # the every-nth stride must be at least 2
        with pytest.raises(ConfigError):
            inject_variance(make_series(10), "gyro_rad_0", 0.0, 1)
        with pytest.raises(ConfigError):
            inject_variance(make_series(10), "gyro_rad_0", 0.0, 0)

    def test_sweep_runs_evaluator_per_target(self):
        series = make_series(20, feature_values=np.linspace(0, 1, 20))
        seen = []

        def evaluator(labeled):
            value = labeled.series.column("gyro_rad_0")[4]
            seen.append(value)
            return value

        rows = variance_sweep(series, "gyro_rad_0", [-1.0, 2.0], 5, evaluator)
        assert [t for t, _ in rows] == [-1.0, 2.0]
        assert seen == [-1.0, 2.0]

    def test_sweep_rejects_empty_targets(self):
        with pytest.raises(ConfigError):
            variance_sweep(make_series(10), "gyro_rad_0", [], 5, lambda lb: None)


class TestPoisson:
    def test_seed_reproduces(self):
        a = inject_poisson(make_series(1000), 2.0, seed=9)
        b = inject_poisson(make_series(1000), 2.0, seed=9)
        assert np.array_equal(a.labels, b.labels)

    def test_rows_strictly_increasing_and_in_range(self):
        labeled = inject_poisson(make_series(5000), 2.0, seed=1)
        rows = np.nonzero(labeled.labels)[0]
        assert rows.size > 0
        assert (np.diff(rows) >= 1).all()
        assert rows[-1] < 5000

    def test_mean_gap_close_to_lambda_plus_one(self):
        gaps = []
        for seed in range(20):
            labeled = inject_poisson(make_series(10000), 2.0, seed=seed)
            rows = np.nonzero(labeled.labels)[0]
            gaps.append(np.diff(np.concatenate([[-1], rows])))
        mean_gap = float(np.concatenate(gaps).mean())
        assert abs(mean_gap - 3.0) < 0.05

    def test_gap_of_one_allowed_adjacent_anomalies(self):
        # Poisson(lam) draws 0 with probability e^-lam, giving gap 1
        labeled = inject_poisson(make_series(2000), 0.1, seed=0)
        rows = np.nonzero(labeled.labels)[0]
        assert (np.diff(rows) == 1).any()

    def test_lambda_must_be_positive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ConfigError):
                inject_poisson(make_series(100), bad)


class TestLabeledCsv:
    def test_round_trip(self, tmp_path):
        labeled = inject_every_nth(synth_mission(60, seed=2), 7)
        save_labeled_csv(labeled, tmp_path / "labeled.csv")
        back = load_labeled_csv(tmp_path / "labeled.csv")
        assert np.array_equal(back.labels, labeled.labels)
        assert np.allclose(back.series.values, labeled.series.values, equal_nan=True)
        assert back.meta == labeled.meta

    def test_header_carries_label_column(self):
        labeled = inject_every_nth(make_series(4), 2)
        header = serialize_labeled_csv(labeled).splitlines()[0]
        assert header.endswith(",label")

    def test_label_cells_must_be_binary(self, tmp_path):
        labeled = inject_every_nth(make_series(4), 2)
        text = serialize_labeled_csv(labeled).replace("\n", "\n", 1)
        lines = text.splitlines()
        lines[1] = lines[1][: lines[1].rfind(",")] + ",2"
        path = tmp_path / "labeled.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            load_labeled_csv(path)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["exact", "crlf"])
    def test_row_rules_keep_their_order(self, tmp_path, eol):
        """The first rule failing on any row wins: the dt rules, clipping, then label."""
        lines = serialize_labeled_csv(inject_every_nth(make_series(4), 2)).splitlines()
        cells = [line.split(",") for line in lines]
        cells[1][-1] = "2"
        cells[2][-2] = "-1"
        cells[3][4] = "0"
        expected = [
            "line 4: column gyro_integral_dt must be positive",
            "line 3: column accelerometer_clipping must be non-negative",
            "line 2: label cells must be 0 or 1",
        ]
        repairs = [(3, 4, "4000"), (2, -2, "0"), (1, -1, "1")]
        path = tmp_path / "labeled.csv"
        for message, (row, col, fixed) in zip(expected, repairs):
            path.write_bytes((eol.join(map(",".join, cells)) + eol).encode())
            with pytest.raises(ParseError) as err:
                load_labeled_csv(path)
            assert str(err.value) == f"{path}: {message}"
            cells[row][col] = fixed
        path.write_bytes((eol.join(map(",".join, cells)) + eol).encode())
        assert len(load_labeled_csv(path).series) == 4

    def test_meta_json_round_trip(self):
        meta = InjectionMeta("random", {"fraction": 0.05, "selection": "fixed-count"}, 7)
        again = InjectionMeta.from_json(meta.to_json())
        assert again == meta
        assert again.seed == 7

    def test_labels_length_checked(self):
        series = make_series(5)
        with pytest.raises(Exception):
            LabeledSeries(series, np.zeros(4, dtype=bool), InjectionMeta("x", {}))
