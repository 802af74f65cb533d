"""End-to-end acceptance checks for the full pipeline.

Each test is one acceptance criterion with its tolerance and, where stated,
a wall-clock budget.  Run with -v for one pass/fail line per criterion.
"""

import json
import os
import time

import numpy as np

from uavloop.cli import main as cli_main
from uavloop.detect import detect, evaluate, percentile_threshold
from uavloop.forecast import (
    PredictorConfig,
    evaluate_forecast,
    gradient_check,
    init_predictor,
    persistence_predictions,
    train,
)
from uavloop.inject import inject_every_nth, inject_poisson, PerturbSpec
from uavloop.packetset import (
    KEY_FIELDS,
    build_dataset,
    diff_fields,
    parse_dataset,
    render_dataset,
    score_fields,
)
from uavloop.synthetic import ar1_series, synth_mission, synth_packet_log
from uavloop.telemetry import (
    SplitSpec,
    apply_normalize,
    fit_normalize,
    split,
    window,
    window_matrix,
)
from uavloop.tiersim import (
    LatencyModel,
    PersistenceDetector,
    PredictorDetector,
    Tier,
    fit_latency_model,
    run_batch_experiment,
)


def test_criterion_1_threshold_flag_fraction():
    """Self-thresholding flags A% of distinct-valued losses to within 1/N."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    ratios = (0.5, 1.0, 5.0, 10.0, 25.0)
    for trial in range(1000):
        n = int(rng.integers(10, 10001))
        losses = rng.permutation(n).astype(np.float64)
        ratio = ratios[trial % len(ratios)]
        threshold = percentile_threshold(losses, ratio)
        fraction = float(np.count_nonzero(losses > threshold)) / n
        assert abs(fraction - ratio / 100.0) <= 1.0 / n + 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 1 threshold flag fraction: PASS ({elapsed:.2f}s)")


def test_criterion_2_metrics_match_brute_force():
    """evaluate() equals a brute-force confusion matrix on 1,000 random pairs."""
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n = int(rng.integers(1, 400))
        predicted = rng.random(n) < rng.random()
        truth = rng.random(n) < rng.random()
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
        m = evaluate(predicted, truth)
        assert (m.tp, m.tn, m.fp, m.fn) == (tp, tn, fp, fn)
        assert m.accuracy == (tp + tn) / n
        undefined = []
        if tp + fp > 0:
            assert m.precision == tp / (tp + fp)
        else:
            undefined.append("precision")
            assert m.precision == 0.0
        if tp + fn > 0:
            assert m.recall == tp / (tp + fn)
        else:
            undefined.append("recall")
            assert m.recall == 0.0
        if m.precision + m.recall > 0:
            assert m.f_score == 2.0 * m.precision * m.recall / (m.precision + m.recall)
        else:
            undefined.append("f_score")
            assert m.f_score == 0.0
        assert m.undefined == tuple(undefined)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 2 metrics oracle: PASS ({elapsed:.2f}s)")


def test_criterion_3_separable_injection_detected():
    """A 6-sigma every-5th injection is caught at precision and recall >= 0.95."""
    started = time.perf_counter()
    series = synth_mission(n_records=20000, seed=11)
    parts = split(series, SplitSpec(train=0.6, val=0.2, test=0.2))
    stats = fit_normalize(parts.train)
    config = PredictorConfig(
        seq_len=16,
        horizon=16,
        fcn_dim=32,
        epochs=2,
        learning_rate=0.02,
        batch_size=128,
        seed=11,
    )
    train_windows = window(apply_normalize(parts.train, stats), 16, 1, "reconstruction")
    predictor = train(init_predictor(config, 6, norm_stats=stats), train_windows)
    labeled = inject_every_nth(parts.test, 5)
    eval_matrix = apply_normalize(labeled.series, stats).features()
    result = detect(
        PredictorDetector(predictor),
        eval_matrix,
        anomaly_ratio=20.0,
        labels=labeled.labels,
        threshold_source="eval",
    )
    elapsed = time.perf_counter() - started
    assert result.metrics.precision >= 0.95
    assert result.metrics.recall >= 0.95
    assert elapsed < 60.0
    print(
        "criterion 3 separable detection: PASS "
        f"(precision={result.metrics.precision:.4f}, "
        f"recall={result.metrics.recall:.4f}, {elapsed:.2f}s)"
    )


def test_criterion_4_injection_cardinality():
    """every-nth plants exactly floor(N/n) anomalies; Poisson gaps average 3.0."""
    started = time.perf_counter()
    base = synth_mission(n_records=1000, seed=0)
    for n in range(2, 11):
        for n_records in range(1, 1001):
            prefix = base.with_values(base.values[:n_records])
            labeled = inject_every_nth(prefix, n)
            assert labeled.anomaly_count() == n_records // n
    big = synth_mission(n_records=10000, seed=1)
    gaps = []
    for seed in range(100):
        labeled = inject_poisson(big, 2.0, PerturbSpec(), seed=seed)
        rows = np.nonzero(labeled.labels)[0]
        assert rows.size > 0
        gaps.append(np.diff(np.concatenate([[-1], rows])))
    mean_gap = float(np.concatenate(gaps).mean())
    assert abs(mean_gap - 3.0) <= 0.1
    elapsed = time.perf_counter() - started
    print(
        f"criterion 4 injection cardinality: PASS (mean gap={mean_gap:.4f}, {elapsed:.2f}s)"
    )


def test_criterion_5_forecaster_soundness():
    """Gradients check out and the model beats persistence by >= 20% on AR(1)."""
    started = time.perf_counter()
    data = ar1_series(2000, phi=0.9, sigma=0.1, seed=7)
    config = PredictorConfig(
        seq_len=8,
        horizon=16,
        fcn_dim=32,
        epochs=80,
        learning_rate=0.1,
        batch_size=128,
        seed=7,
    )
    train_data = window_matrix(data[:1600, None], 8, 1, "forecast", 16)
    eval_data = window_matrix(data[1600:, None], 8, 1, "forecast", 16)
    fresh = init_predictor(config, 1)
    grad_err = gradient_check(
        fresh, train_data.inputs[0], train_data.targets[0], n_params=100, seed=0
    )
    assert grad_err < 1e-4
    model = train(fresh, train_data)
    report = evaluate_forecast(model, eval_data)
    baseline = persistence_predictions(eval_data)
    baseline_mse = float(((baseline - eval_data.targets) ** 2).mean())
    improvement = (baseline_mse - report.mse) / baseline_mse
    elapsed = time.perf_counter() - started
    assert improvement >= 0.20
    assert elapsed < 30.0
    print(
        "criterion 5 forecaster soundness: PASS "
        f"(grad err={grad_err:.2e}, improvement={improvement:.1%}, {elapsed:.2f}s)"
    )


def test_criterion_6_latency_fit_and_monotone_sweep():
    """The inverse-batch latency law fits a recorded sweep within 20%, and the
    simulator's elapsed time drops monotonically with batch size while the
    detection metrics stay identical."""
    started = time.perf_counter()
    recorded_sizes = (4, 8, 16, 32, 64, 128)
    recorded_elapsed = (61.91978, 34.2963, 18.21896, 12.71874, 10.89548, 9.08162)
    fit = fit_latency_model(recorded_sizes, recorded_elapsed)
    assert max(fit.residuals) <= 0.20

    labeled = inject_every_nth(synth_mission(n_records=20000, seed=0), 5)
    edge = Tier("edge", compute_factor=1.5, link_latency_ms=10.0)
    results = run_batch_experiment(
        labeled,
        recorded_sizes,
        edge,
        LatencyModel(a=6.42, b=0.011, c=1e-05),
        PersistenceDetector(),
        anomaly_ratio=20.0,
    )
    elapsed_times = [stats.elapsed_s for stats, _ in results]
    assert all(a > b for a, b in zip(elapsed_times, elapsed_times[1:]))
    metric_tuples = {
        (s.metrics.tp, s.metrics.tn, s.metrics.fp, s.metrics.fn) for s, _ in results
    }
    assert len(metric_tuples) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        "criterion 6 latency fit and sweep: PASS "
        f"(max residual={max(fit.residuals):.4f}, {elapsed:.2f}s)"
    )


def test_criterion_7_preference_pair_integrity():
    """10,000 pairs each differ in one field, round-trip exactly, and the
    scorer reports a perfect identity run."""
    started = time.perf_counter()
    samples = build_dataset(synth_packet_log(n_packets=11000, seed=0), context=3, seed=0)
    assert len(samples) >= 10000
    samples = samples[:10000]
    for sample in samples:
        assert len(diff_fields(sample.chosen, sample.rejected)) == 1
    parsed = parse_dataset(render_dataset(samples))
    assert len(parsed) == len(samples)
    for sample, back in zip(samples, parsed):
        assert back.chosen.key_values() == sample.chosen.key_values()
        assert back.rejected.key_values() == sample.rejected.key_values()
        assert back.prompt.key_values() == sample.window.prompt.key_values()
        assert [c.key_values() for c in back.context] == [
            c.key_values() for c in sample.window.context
        ]
    truths = [sample.chosen for sample in samples]
    report = score_fields(truths, truths)
    assert all(report.field_accuracy[name] == 100.0 for name in KEY_FIELDS)
    assert report.error_histogram == {"0": 100.0, "1": 0.0, "2": 0.0, "3": 0.0, "4+": 0.0}
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 7 preference pair integrity: PASS ({elapsed:.2f}s)")


def test_criterion_8_cli_determinism(tmp_path):
    """The every-nth experiment is byte-identical across reruns with one seed."""
    started = time.perf_counter()
    out_dirs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(
            [
                "experiment",
                "nth",
                "--records", "2000",
                "--epochs", "1",
                "--seq-len", "8",
                "--fcn-dim", "16",
                "--seed", "4",
                "--out", str(out),
            ]
        )
        assert code == 0
        out_dirs.append(out)
    names = sorted(os.listdir(out_dirs[0]))
    assert names == sorted(os.listdir(out_dirs[1]))
    assert "run_manifest.json" in names and "metrics.json" in names
    for name in names:
        first = (out_dirs[0] / name).read_bytes()
        second = (out_dirs[1] / name).read_bytes()
        assert first == second, f"{name} differs between reruns"
    manifest = json.loads((out_dirs[0] / "run_manifest.json").read_text())
    assert manifest["command"] == "experiment nth"
    elapsed = time.perf_counter() - started
    print(f"criterion 8 CLI determinism: PASS ({elapsed:.2f}s)")
