import json

import numpy as np
import pytest

from test_telemetry import make_series

from uavloop.config import RunConfig
from uavloop.detect import DetectionResult, Metrics, detect
from uavloop.errors import ConfigError, DimensionError, NumericError
from uavloop.forecast import PredictorConfig, init_predictor, param_count
from uavloop.inject import InjectionMeta, LabeledSeries
from uavloop.tiersim import (
    TIER_NAMES,
    AnomalyReport,
    LatencyModel,
    PersistenceDetector,
    PredictorDetector,
    StreamStats,
    Tier,
    batch_experiment_csv,
    emit_report,
    fit_latency_model,
    flag_runs,
    report_from_json,
    run_batch_experiment,
    simulate_stream,
    validate_tiers,
)

EDGE = Tier("edge", compute_factor=1.5, link_latency_ms=10.0)


def stream_series(values):
    return make_series(len(values), feature_values=values)


class TestTiers:
    def test_defaults(self):
        tiers = RunConfig.default().tiers()
        assert set(tiers) == set(TIER_NAMES)
        assert tiers["onboard"].compute_factor == 4.0
        assert tiers["onboard"].link_latency_ms == 0.0
        assert tiers["edge"].compute_factor == 1.5
        assert tiers["edge"].link_latency_ms == 10.0
        assert tiers["cloud"].compute_factor == 1.0
        assert tiers["cloud"].link_latency_ms == 150.0
        validate_tiers(tiers)

    def test_tier_validation(self):
        with pytest.raises(ConfigError):
            Tier("basement", compute_factor=1.0)
        with pytest.raises(ConfigError):
            Tier("edge", compute_factor=0.0)
        with pytest.raises(ConfigError):
            Tier("edge", compute_factor=1.0, link_latency_ms=-1.0)

    def test_cost_ordering_enforced(self):
        tiers = RunConfig.default().tiers()
        tiers["cloud"] = Tier("cloud", compute_factor=9.0, link_latency_ms=150.0)
        with pytest.raises(ConfigError):
            validate_tiers(tiers)
        with pytest.raises(ConfigError):
            validate_tiers({"onboard": tiers["onboard"]})


class TestLatencyModel:
    def test_batch_cost_closed_form(self):
        model = LatencyModel(a=1.0, b=0.5, c=0.01)
        assert model.batch_cost(10, 2.0, 100.0) == 0.5 + 0.2 + 0.1

    def test_elapsed_continuous_form(self):
        model = LatencyModel(a=1.0, b=0.5, c=0.01)
        assert model.elapsed(100, 10, 2.0, 100.0) == 1.0 + 6.0 + 2.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            LatencyModel(a=-0.1, b=0.0, c=0.0)
        with pytest.raises(ConfigError):
            LatencyModel(a=0.0, b=float("nan"), c=0.0)
        with pytest.raises(ConfigError):
            LatencyModel(a=1.0, b=0.5, c=0.01).elapsed(10, 0)


class TestLatencyFit:
    def test_recovers_exact_inverse_law(self):
        sizes = [4.0, 8.0, 16.0, 32.0]
        times = [2.0 + 48.0 / b for b in sizes]
        fit = fit_latency_model(sizes, times)
        assert abs(fit.a_prime - 2.0) < 1e-9
        assert abs(fit.b_prime - 48.0) < 1e-9
        assert max(fit.residuals) < 1e-12
        assert fit.predict(64.0) == pytest.approx(2.75)

    def test_fit_on_measured_batch_timings(self):
        # measurements taken from a 6-point batch sweep of the simulator
        sizes = [4, 8, 16, 32, 64, 128]
        times = [61.91978, 34.2963, 18.21896, 12.71874, 10.89548, 9.08162]
        fit = fit_latency_model(sizes, times)
        assert fit.a_prime == pytest.approx(6.420339601990043, rel=1e-12)
        assert fit.b_prime == pytest.approx(220.66558453447058, rel=1e-12)
        assert max(fit.residuals) == pytest.approx(0.10939036231455881, rel=1e-9)
        assert max(fit.residuals) < 0.2

    def test_fit_validation(self):
        with pytest.raises(ConfigError):
            fit_latency_model([8, 8], [1.0, 1.0])
        with pytest.raises(DimensionError):
            fit_latency_model([8, 16], [1.0])
        with pytest.raises(ConfigError):
            fit_latency_model([0, 16], [1.0, 2.0])
        with pytest.raises(ConfigError):
            fit_latency_model([8, 16], [1.0, 0.0])


class TestDetectors:
    def test_persistence_losses_oracle(self):
        det = PersistenceDetector()
        losses = det.losses(np.array([[0.0], [3.0], [3.0], [1.0]]))
        assert losses.tolist() == [0.0, 9.0, 0.0, 4.0]

    def test_persistence_averages_features(self):
        det = PersistenceDetector()
        losses = det.losses(np.array([[0.0, 0.0], [1.0, 3.0]]))
        assert losses.tolist() == [0.0, 5.0]

    def test_persistence_validation(self):
        with pytest.raises(DimensionError):
            PersistenceDetector().losses(np.zeros(5))

    def test_predictor_detector_requires_reconstruction(self):
        cfg = PredictorConfig(seq_len=4, horizon=1, fcn_dim=4)
        with pytest.raises(ConfigError):
            PredictorDetector(init_predictor(cfg, 1))

    def test_predictor_detector_covers_every_record(self):
        cfg = PredictorConfig(seq_len=4, horizon=4, fcn_dim=4)
        zero = init_predictor(cfg, 1).with_params(np.zeros(param_count(cfg, 1)))
        det = PredictorDetector(zero)
        matrix = np.arange(12, dtype=float)[:, None]
        losses = det.losses(matrix)
        assert losses.shape == (12,)
        # a zero model reconstructs 0, so each record's loss is its own square
        assert losses.tolist() == [float(v) ** 2 for v in range(12)]


class TestRuns:
    def test_flag_runs_cases(self):
        assert flag_runs([]) == []
        assert flag_runs([False, False]) == []
        assert flag_runs([False, True, True, False, True]) == [(1, 2), (4, 4)]
        assert flag_runs([True] * 5 ) == [(0, 4)]
        assert flag_runs([True, False, True]) == [(0, 0), (2, 2)]


def small_detection(losses, threshold, labels=None):
    losses = np.asarray(losses, dtype=np.float64)
    predicted = losses > threshold
    truth = None if labels is None else np.asarray(labels, dtype=bool)
    metrics = None
    if truth is not None:
        from uavloop.detect import evaluate

        metrics = evaluate(predicted, truth)
    return DetectionResult(
        record_indices=np.arange(losses.size),
        losses=losses,
        threshold=float(threshold),
        predicted=predicted,
        truth=truth,
        metrics=metrics,
        anomaly_ratio=None,
        threshold_source="eval",
    )


class TestReports:
    def test_emit_report_merges_runs(self):
        det = small_detection([0, 1, 5, 5, 1, 9], threshold=1.0)
        report = emit_report(det, "m-1", tier="cloud", timestamp=3.5)
        assert report.ranges == ((2, 3), (5, 5))
        assert report.tier == "cloud"
        assert report.threshold == 1.0
        assert report.timestamp == 3.5
        assert report.metrics is None

    def test_emit_report_with_no_flags(self):
        det = small_detection([1, 1, 1], threshold=2.0)
        report = emit_report(det, "m-2")
        assert report.ranges == ()
        assert report.tier == "edge"

    def test_json_round_trip_with_metrics(self):
        det = small_detection([0, 9, 0, 9], threshold=1.0, labels=[False, True, False, False])
        report = emit_report(det, "m-3", timestamp=1.25)
        text = report.to_json()
        assert "\n" not in text
        payload = json.loads(text)
        assert list(payload) == sorted(payload)
        back = report_from_json(text)
        assert back.ranges == report.ranges
        assert back.mission_id == "m-3"
        assert isinstance(back.metrics, Metrics)
        assert back.metrics.tp == report.metrics.tp
        assert back.metrics.accuracy == report.metrics.accuracy

    def test_json_round_trip_without_metrics(self):
        report = AnomalyReport(
            mission_id="m", tier="edge", ranges=((0, 1),),
            threshold=0.5, metrics=None, timestamp=0.0,
        )
        assert report_from_json(report.to_json()) == report


class TestStream:
    MODEL = LatencyModel(a=1.0, b=0.5, c=0.01)

    def test_elapsed_closed_form(self):
        series = stream_series([0.0] * 10)
        stats, reports = simulate_stream(
            series, EDGE, 4, self.MODEL, PersistenceDetector()
        )
        # batches of 4, 4, 2: a + 3b + c*10*1.5 + 3*0.01
        assert stats.elapsed_s == pytest.approx(1.0 + 1.5 + 0.15 + 0.03)
        assert stats.n_batches == 3
        assert stats.records == 10
        assert stats.metrics is None
        assert reports == []

    def test_report_timestamp_is_batch_end_of_run(self):
        values = [0.0] * 6 + [9.0] + [0.0] * 3
        series = stream_series(values)
        stats, reports = simulate_stream(
            series, EDGE, 4, self.MODEL, PersistenceDetector()
        )
        (report,) = reports
        # the jump at record 6 scores records 6 and 7; batch costs are
        # 0.57, 0.57, 0.54 on top of a=1.0 and the run ends in batch 1
        assert report.ranges == ((6, 7),)
        assert report.timestamp == pytest.approx(1.0 + 0.57 + 0.57)
        assert report.mission_id == "mission"
        assert report.tier == "edge"
        assert stats.elapsed_s == pytest.approx(2.68)

    def test_flags_do_not_depend_on_batch_size(self):
        values = [0.0] * 6 + [9.0] + [0.0] * 3
        labels = np.zeros(10, dtype=bool)
        labels[6:8] = True
        data = LabeledSeries(
            series=stream_series(values),
            labels=labels,
            meta=InjectionMeta(scheme="manual", params={}, seed=0),
        )
        seen_ranges = set()
        seen_metrics = set()
        elapsed = []
        for b in (1, 3, 4, 10):
            stats, reports = simulate_stream(data, EDGE, b, self.MODEL, PersistenceDetector())
            seen_ranges.add(tuple(r.ranges for r in reports))
            seen_metrics.add(
                (stats.metrics.tp, stats.metrics.tn, stats.metrics.fp, stats.metrics.fn)
            )
            elapsed.append(stats.elapsed_s)
        assert len(seen_ranges) == 1
        assert seen_metrics == {(2, 8, 0, 0)}
        assert elapsed == sorted(elapsed, reverse=True)

    def test_labeled_series_produces_metrics(self):
        labels = np.zeros(10, dtype=bool)
        labels[6:8] = True
        data = LabeledSeries(
            series=stream_series([0.0] * 6 + [9.0] + [0.0] * 3),
            labels=labels,
            meta=InjectionMeta(scheme="manual", params={}, seed=0),
        )
        stats, _ = simulate_stream(data, EDGE, 4, self.MODEL, PersistenceDetector())
        assert stats.metrics.accuracy == 1.0
        assert stats.metrics.precision == 1.0

    def test_flags_equal_batch_detect(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0.0, 1.0, 60)
        values[[7, 31, 32, 50]] += 8.0
        labels = np.zeros(60, dtype=bool)
        labels[[7, 31, 32, 50]] = True
        data = LabeledSeries(
            series=stream_series(values),
            labels=labels,
            meta=InjectionMeta(scheme="manual", params={}, seed=0),
        )
        ratio = 10.0
        batch = detect(
            PersistenceDetector(),
            data.series.features(),
            anomaly_ratio=ratio,
            labels=labels,
            threshold_source="eval",
        )
        for b in (1, 7, 16, 60, 100):
            stats, reports = simulate_stream(
                data, EDGE, b, self.MODEL, PersistenceDetector(), ratio
            )
            assert [r.ranges[0] for r in reports] == flag_runs(batch.predicted)
            assert {r.threshold for r in reports} == {batch.threshold}
            assert stats.metrics == batch.metrics

    def test_input_validation(self):
        series = stream_series([0.0] * 4)
        with pytest.raises(ConfigError):
            simulate_stream(np.zeros((4, 2)), EDGE, 2, self.MODEL, PersistenceDetector())
        with pytest.raises(ConfigError):
            simulate_stream(series, EDGE, 0, self.MODEL, PersistenceDetector())

    def test_detector_contract_enforced(self):
        series = stream_series([0.0] * 4)

        class ShortDetector:
            anomaly_ratio = 20.0

            def losses(self, matrix):
                return np.zeros(matrix.shape[0] - 1)

        class BrokenDetector:
            anomaly_ratio = 20.0

            def losses(self, matrix):
                out = np.zeros(matrix.shape[0])
                out[0] = np.nan
                return out

        with pytest.raises(DimensionError):
            simulate_stream(series, EDGE, 2, self.MODEL, ShortDetector())
        with pytest.raises(NumericError):
            simulate_stream(series, EDGE, 2, self.MODEL, BrokenDetector())


class TestBatchExperiment:
    def test_sweep_shapes_and_csv(self):
        labels = np.zeros(20, dtype=bool)
        labels[10] = True
        data = LabeledSeries(
            series=stream_series([0.0] * 10 + [9.0] + [0.0] * 9),
            labels=labels,
            meta=InjectionMeta(scheme="manual", params={}, seed=0),
        )
        results = run_batch_experiment(
            data, [4, 8, 16], EDGE, TestStream.MODEL, PersistenceDetector(), 10.0
        )
        assert [s.batch_size for s, _ in results] == [4, 8, 16]
        text = batch_experiment_csv(results)
        lines = text.splitlines()
        assert lines[0] == "batch_size,elapsed_s,accuracy,precision,recall,f_score"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "4"
        assert float(first[1]) == results[0][0].elapsed_s
        assert float(first[2]) == results[0][0].metrics.accuracy

    def test_unlabeled_rows_leave_metric_cells_empty(self):
        results = run_batch_experiment(
            stream_series([0.0] * 8), [2, 4], EDGE, TestStream.MODEL, PersistenceDetector()
        )
        line = batch_experiment_csv(results).splitlines()[1]
        assert line.endswith(",,,,")

    def test_sweep_validation(self):
        series = stream_series([0.0] * 8)
        with pytest.raises(ConfigError):
            run_batch_experiment(series, [], EDGE, TestStream.MODEL, PersistenceDetector())
        with pytest.raises(ConfigError):
            run_batch_experiment(series, [0], EDGE, TestStream.MODEL, PersistenceDetector())


class TestStreamStats:
    def test_fields(self):
        s = StreamStats(batch_size=4, records=10, n_batches=3, elapsed_s=2.5, metrics=None)
        assert (s.batch_size, s.records, s.n_batches) == (4, 10, 3)
