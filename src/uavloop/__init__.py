"""Telemetry anomaly pipeline: ingest, inject, detect, forecast, simulate."""

from .errors import (
    ConfigError,
    DimensionError,
    DivergenceError,
    ImputationError,
    InputError,
    NumericError,
    OrderingError,
    ParseError,
    PipelineError,
    SizingError,
)
from .telemetry import (
    COLUMNS,
    DEFAULT_FEATURES,
    NormStats,
    SplitSpec,
    TelemetrySeries,
    WindowedDataset,
    apply_normalize,
    fit_normalize,
    impute_missing,
    load_sensor_csv,
    save_sensor_csv,
    serialize_sensor_csv,
    split,
    window,
    window_matrix,
)
from .inject import (
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
)
from .detect import (
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
from .forecast import (
    EpochStats,
    EvalReport,
    Predictor,
    PredictorConfig,
    evaluate_forecast,
    init_predictor,
    load_predictor,
    param_count,
    persistence_predictions,
    save_predictor,
    train,
)
from .packetset import (
    FieldScoreReport,
    FinetuneSample,
    PacketRecord,
    build_dataset,
    build_samples_text,
    extract_sessions,
    load_packet_csv,
    make_pair,
    parse_dataset,
    parse_packet_csv,
    render_dataset,
    score_fields,
)
from .tiersim import (
    AnomalyReport,
    LatencyFit,
    LatencyModel,
    PersistenceDetector,
    PredictorDetector,
    StreamStats,
    Tier,
    batch_experiment_csv,
    emit_report,
    fit_latency_model,
    run_batch_experiment,
    simulate_stream,
    validate_tiers,
)
from .config import RunConfig
from .synthetic import synth_mission, synth_packet_log

__all__ = [name for name in dir() if not name.startswith("_")]
