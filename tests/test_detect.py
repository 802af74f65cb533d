import json

import numpy as np
import pytest

from uavloop.detect import (
    DetectionResult,
    Metrics,
    detect,
    evaluate,
    flag,
    metrics_json,
    percentile_threshold,
    pointwise_loss,
    record_losses,
    records_csv,
)
from uavloop.errors import ConfigError, DimensionError, NumericError
from uavloop.telemetry import BLOCK_ROWS, WindowedDataset, row_blocks, window_matrix


class ZeroPredictor:
    """Stub that predicts zeros; record loss becomes the squared signal."""

    def blocks(self, windows, targets):
        for rows in row_blocks(len(windows)):
            sq = np.square(np.asarray(targets[rows], dtype=np.float64))
            yield rows, sq.reshape(len(sq), -1)


class SquareScorer:
    """Stub scorer: a record's loss is the mean of its squared features."""

    def losses(self, matrix):
        return np.mean(np.square(matrix), axis=1)


class TestPointwiseLoss:
    def test_mean_over_features(self):
        out = pointwise_loss([[1.0, 2.0], [3.0, 4.0]], [[1.0, 0.0], [0.0, 4.0]])
        assert out.tolist() == [2.0, 4.5]

    def test_one_dim_promoted(self):
        out = pointwise_loss([1.0, 2.0], [0.0, 0.0])
        assert out.tolist() == [1.0, 4.0]

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            pointwise_loss([[1.0]], [[1.0, 2.0]])


class TestPercentileThreshold:
    def test_frozen_examples(self):
        losses = np.arange(100, dtype=float)  # 0..99
        assert percentile_threshold(losses, 5.0) == 94.0
        assert percentile_threshold(losses, 25.0) == 74.0

    def test_shuffled_input_same_answer(self):
        rng = np.random.default_rng(0)
        losses = rng.permutation(np.arange(100, dtype=float))
        assert percentile_threshold(losses, 5.0) == 94.0

    def test_single_element_clamps(self):
        assert percentile_threshold([3.5], 5.0) == 3.5
        assert percentile_threshold([3.5], 99.9) == 3.5

    def test_all_equal_flags_nothing(self):
        losses = np.full(64, 1.25)
        thr = percentile_threshold(losses, 10.0)
        assert thr == 1.25
        assert flag(losses, thr).sum() == 0

    def test_exact_rank_no_float_drift(self):
        # ceil(0.8 * 4000) is 3201 in naive float math; the exact rank is
        # 3200, so exactly 800 of 4000 distinct losses must be flagged.
        losses = np.arange(4000, dtype=float)
        thr = percentile_threshold(losses, 20.0)
        assert thr == 3199.0
        assert int(flag(losses, thr).sum()) == 800

    def test_fractional_ratio(self):
        losses = np.arange(1000, dtype=float)
        # rank = ceil(99.5% of 1000) = 995 -> value 994; flags 5 of 1000
        thr = percentile_threshold(losses, 0.5)
        assert thr == 994.0
        assert int(flag(losses, thr).sum()) == 5

    def test_flagged_count_is_floor_property(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 3000))
            a = float(rng.choice([0.5, 1.0, 5.0, 10.0, 20.0, 25.0, 50.0]))
            losses = rng.permutation(n).astype(float)  # distinct values
            thr = percentile_threshold(losses, a)
            flagged = int(flag(losses, thr).sum())
            assert flagged == int(np.floor(n * a / 100 + 1e-9))

    def test_ratio_bounds(self):
        for bad in (0.0, 100.0, -5.0, 120.0):
            with pytest.raises(ConfigError):
                percentile_threshold([1.0, 2.0], bad)

    def test_empty_losses(self):
        with pytest.raises(NumericError):
            percentile_threshold([], 5.0)


class TestFlag:
    def test_strictly_greater(self):
        out = flag([1.0, 2.0, 3.0], 2.0)
        assert out.tolist() == [False, False, True]

    def test_non_finite_threshold(self):
        with pytest.raises(NumericError):
            flag([1.0], float("nan"))


def brute_force_metrics(predicted, truth):
    tp = fp = tn = fn = 0
    for p, t in zip(predicted, truth):
        if p and t:
            tp += 1
        elif p and not t:
            fp += 1
        elif not p and t:
            fn += 1
        else:
            tn += 1
    return tp, tn, fp, fn


class TestEvaluate:
    def test_frozen_half_and_half(self):
        m = evaluate([1, 1, 0, 0], [1, 0, 1, 0])
        assert (m.tp, m.fp, m.fn, m.tn) == (1, 1, 1, 1)
        assert m.accuracy == 0.5
        assert m.precision == 0.5
        assert m.recall == 0.5
        assert m.f_score == 0.5
        assert m.undefined == ()

    def test_all_false_flags_undefined_ratios(self):
        m = evaluate([0, 0, 0, 0], [0, 0, 0, 0])
        assert m.accuracy == 1.0
        assert m.precision == 0.0 and m.recall == 0.0 and m.f_score == 0.0
        assert set(m.undefined) == {"precision", "recall", "f_score"}

    def test_no_positives_predicted(self):
        m = evaluate([0, 0, 0], [1, 0, 0])
        assert m.precision == 0.0
        assert "precision" in m.undefined
        assert "recall" not in m.undefined
        assert m.recall == 0.0

    def test_perfect(self):
        m = evaluate([1, 0, 1], [1, 0, 1])
        assert (m.accuracy, m.precision, m.recall, m.f_score) == (1.0, 1.0, 1.0, 1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            p = rng.random(n) < rng.random()
            t = rng.random(n) < rng.random()
            m = evaluate(p, t)
            tp, tn, fp, fn = brute_force_metrics(p, t)
            assert (m.tp, m.tn, m.fp, m.fn) == (tp, tn, fp, fn)
            assert m.accuracy == (tp + tn) / n
            if tp + fp:
                assert m.precision == tp / (tp + fp)
            if tp + fn:
                assert m.recall == tp / (tp + fn)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            evaluate([1, 0], [1])

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            evaluate([], [])


class TestRecordLosses:
    def test_overlap_aggregation_oracle(self):
        # series 0,1,2,3; seq 2 stride 1; zero predictor.
        # record 1 sits in two windows, both contribute 1^2 -> mean 1.0
        data = window_matrix(np.arange(4, dtype=float), seq_len=2)
        losses = record_losses(ZeroPredictor(), data)
        assert losses.tolist() == [0.0, 1.0, 4.0, 9.0]

    def test_stride_gap_leaves_uncovered_records_out(self):
        data = window_matrix(np.arange(5, dtype=float), seq_len=2, stride=3)
        losses = record_losses(ZeroPredictor(), data)
        # records 0, 1, 3 and 4; record 2 is in no window
        assert losses.tolist() == [0.0, 1.0, 9.0, 16.0]

    def test_zero_windows_is_a_dimension_error(self):
        empty = np.zeros((0, 2, 1))
        data = WindowedDataset(empty, empty, stride=1, target_offset=0)
        with pytest.raises(DimensionError, match="cannot take the loss of zero windows"):
            record_losses(ZeroPredictor(), data)

    def test_multi_feature_mean(self):
        matrix = np.array([[3.0, 4.0], [0.0, 0.0]])
        data = window_matrix(matrix, seq_len=2)
        losses = record_losses(ZeroPredictor(), data)
        assert losses.tolist() == [12.5, 0.0]

    def test_predictor_sees_one_block_at_a_time(self):
        class CountingPredictor(ZeroPredictor):
            def __init__(self):
                self.sizes = []

            def blocks(self, windows, targets):
                for rows, sq in super().blocks(windows, targets):
                    self.sizes.append(len(sq))
                    yield rows, sq

        predictor = CountingPredictor()
        count = 2 * BLOCK_ROWS + 1
        data = window_matrix(np.arange(count + 1, dtype=float), seq_len=2)
        losses = record_losses(predictor, data)
        assert predictor.sizes == [BLOCK_ROWS, BLOCK_ROWS + 1]
        assert losses.tolist() == [float(v * v) for v in range(count + 1)]


class TestDetect:
    @staticmethod
    def eval_data():
        # record value 9 is the outlier; the square scorer scores value^2
        values = np.array([1.0, 1.0, 1.0, 1.0, 9.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        return values[:, None]

    def test_eval_threshold_flags_outlier(self):
        result = detect(SquareScorer(), self.eval_data(), anomaly_ratio=20.0,
                        threshold_source="eval")
        assert np.nonzero(result.predicted)[0].tolist() == [4]

    def test_train_source_needs_losses(self):
        with pytest.raises(ConfigError):
            detect(SquareScorer(), self.eval_data(), threshold_source="train")

    def test_train_threshold_from_reference_pool(self):
        train_losses = np.arange(100, dtype=float)
        result = detect(SquareScorer(), self.eval_data(), train_losses,
                        anomaly_ratio=5.0, threshold_source="train")
        assert result.threshold == 94.0

    def test_unknown_source(self):
        with pytest.raises(ConfigError):
            detect(SquareScorer(), self.eval_data(), threshold_source="magic")

    def test_non_finite_train_losses_rejected(self):
        for bad in (np.nan, np.inf):
            train_losses = np.append(np.ones(9), bad)
            with pytest.raises(NumericError):
                detect(SquareScorer(), self.eval_data(), train_losses,
                       threshold_source="train")

    def test_labels_give_metrics(self):
        labels = np.zeros(10, dtype=bool)
        labels[4] = True
        result = detect(SquareScorer(), self.eval_data(), anomaly_ratio=20.0,
                        labels=labels, threshold_source="eval")
        assert result.metrics is not None
        assert result.metrics.recall == 1.0
        assert result.truth.tolist() == labels.tolist()

    def test_short_label_vector_rejected(self):
        for labels in ([0, 1], [0] * 11):
            with pytest.raises(DimensionError):
                detect(SquareScorer(), self.eval_data(), anomaly_ratio=20.0,
                       labels=labels, threshold_source="eval")

    def test_result_consistency_enforced(self):
        with pytest.raises(NumericError):
            DetectionResult(
                losses=np.array([1.0, 2.0]),
                threshold=0.0,
                predicted=np.array([False, False]),  # inconsistent with > 0
                truth=None,
                metrics=None,
                anomaly_ratio=20.0,
            )


class TestSerialization:
    @staticmethod
    def result():
        labels = np.zeros(10, dtype=bool)
        labels[4] = True
        return detect(SquareScorer(), TestDetect.eval_data(), anomaly_ratio=20.0,
                      labels=labels, threshold_source="eval")

    def test_metrics_json_fields(self):
        payload = json.loads(metrics_json(self.result()))
        assert payload["recall"] == 1.0
        assert payload["anomaly_ratio"] == 20.0
        assert payload["tp"] == 1
        assert payload["threshold"] == self.result().threshold

    def test_metrics_json_without_labels(self):
        result = detect(SquareScorer(), TestDetect.eval_data(), anomaly_ratio=20.0,
                        threshold_source="eval")
        payload = json.loads(metrics_json(result))
        assert payload["accuracy"] is None
        assert payload["threshold"] == result.threshold

    def test_records_csv_layout(self):
        lines = "".join(records_csv(self.result())).splitlines()
        assert lines[0] == "index,loss,predicted,truth"
        assert lines[1] == "0,1.0,0,0"
        # record 4 (value 9) scores 81
        assert lines[5] == "4,81.0,1,1"

    def test_records_csv_blank_truth_when_unlabeled(self):
        result = detect(SquareScorer(), TestDetect.eval_data(), anomaly_ratio=20.0,
                        threshold_source="eval")
        lines = "".join(records_csv(result)).splitlines()
        assert lines[1].endswith(",")
