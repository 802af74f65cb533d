"""Command-line front end for the telemetry anomaly pipeline.

Every command reads an optional key=value config file, applies flag
overrides, writes its products into --out, and finishes with a
run_manifest.json recording the command, the effective config (paths
excluded), input digests, and output names.  All outputs are deterministic
for a given config and input data; nothing depends on wall-clock time.

Exit codes: 0 success, 2 unreadable input file (missing, a directory or
not UTF-8), 3 configuration problem (an --out that is a file included),
4 runtime failure inside the pipeline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from functools import partial

import numpy as np

from . import forecast as fc
from . import inject as inj
from . import packetset as ps
from . import synthetic as syn
from . import telemetry as tel
from . import tiersim as ts
from .config import RunConfig, schema_keys
from .detect import detect as run_detect
from .detect import metrics_json, record_losses, records_csv, sweep_csv
from .errors import ConfigError, DimensionError, InputError, NumericError, ParseError
from .errors import PipelineError, SizingError


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are config errors (exit 3), not argparse's default exit 2.
    def error(self, message):
        raise ConfigError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="key=value config file")
    for key in schema_keys():
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)


def _effective_config(args: argparse.Namespace) -> RunConfig:
    if getattr(args, "config", None):
        config = RunConfig.load(args.config)
    else:
        config = RunConfig.default()
    for key in schema_keys():
        value = getattr(args, key, None)
        if value is not None:
            config = config.override(key, value)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="uavloop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse/impute telemetry, write a clean CSV")
    _add_config_flags(p)

    p = sub.add_parser("inject", help="write a labeled CSV with injected anomalies")
    p.add_argument("--scheme", required=True, choices=("nth", "random", "variance", "poisson"))
    _add_config_flags(p)

    p = sub.add_parser("train", help="train a window predictor on clean telemetry")
    p.add_argument("--mode", default="reconstruction", choices=("reconstruction", "forecast"))
    _add_config_flags(p)

    p = sub.add_parser("detect", help="score a labeled CSV with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--train-losses", dest="train_losses", default=None)
    _add_config_flags(p)

    p = sub.add_parser("forecast", help="evaluate a trained forecaster on the test split")
    p.add_argument("--model", required=True)
    _add_config_flags(p)

    p = sub.add_parser("packetset", help="packet preference-pair tools")
    psub = p.add_subparsers(dest="subcommand", required=True)
    b = psub.add_parser("build", help="build preference pairs from a packet log")
    _add_config_flags(b)
    s = psub.add_parser("score", help="field-level scoring of predicted packets")
    s.add_argument("--pred", required=True)
    s.add_argument("--truth", required=True)
    _add_config_flags(s)

    p = sub.add_parser("simulate", help="stream a series through a tier at one batch size")
    _add_config_flags(p)

    p = sub.add_parser("experiment", help="end-to-end experiment recipes")
    esub = p.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("nth", "inject every nth record, train, detect"),
        ("variance-sweep", "detection metrics across set-value targets"),
        ("poisson", "Poisson-gap injection, train, detect"),
        ("batch-sweep", "elapsed time and metrics across batch sizes"),
    ):
        e = esub.add_parser(name, help=help_text)
        _add_config_flags(e)

    return parser


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _finish(out_dir: str, config: RunConfig, command: str, inputs: dict, outputs: list) -> int:
    manifest = {
        "command": command,
        "config": config.echo(),
        "inputs": {name: _sha256(path) for name, path in sorted(inputs.items())},
        "outputs": sorted(outputs),
    }
    tel.write_text(
        os.path.join(out_dir, "run_manifest.json"),
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
    )
    for name in sorted(outputs):
        print(os.path.join(out_dir, name))
    return 0


def _out_dir(config: RunConfig) -> str:
    """Make --out, and remove the manifest an earlier run left there.

    The manifest is written last, so a run that fails leaves none.
    """
    path = config["out"]
    try:
        os.makedirs(path, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"--out {path!r} is not a directory") from exc
    manifest = os.path.join(path, "run_manifest.json")
    try:
        os.remove(manifest)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise PipelineError(f"cannot remove {manifest}: {exc.strerror}") from None
    return path


def _load_or_synth(config: RunConfig) -> tuple[tel.TelemetrySeries, dict]:
    """Load --data if set, else generate the bundled synthetic mission; impute either.

    Every series goes through impute_missing, so a bad impute_policy is a
    ConfigError even when no cell is blank.
    """
    path = config["data"]
    if path:
        series, inputs = tel.load_sensor_csv(path), {"data": path}
    else:
        series = syn.synth_mission(
            n_records=config["records"],
            seed=config["seed"],
            start_timestamp=config["start_timestamp"],
            cadence_us=config["cadence_us"],
            noise_level=config["noise_level"],
        )
        inputs = {}
    return tel.impute_missing(series, config["impute_policy"]), inputs


def _inject_series(series: tel.TelemetrySeries, config: RunConfig, scheme: str) -> inj.LabeledSeries:
    """``scheme``, an argparse choice or a subcommand's name, is one of the four below."""
    spec = config.perturb_spec()
    if scheme == "nth":
        return inj.inject_every_nth(series, config["n"], spec)
    if scheme == "random":
        return inj.inject_random(
            series, config["fraction"], spec, seed=config["seed"], selection=config["selection"]
        )
    if scheme == "variance":
        return inj.inject_variance(series, config["feature"], config["set_value"], config["n"])
    return inj.inject_poisson(series, config["poisson_lambda"], spec, seed=config["seed"])


def _blaming(source: str, fn, *args, **kwargs):
    """fn(*args, **kwargs); a NumericError gets source, when set, in front of its message."""
    try:
        return fn(*args, **kwargs)
    except NumericError as exc:
        if not source:
            raise
        raise type(exc)(f"{source}: {exc}") from None


def _norm_stats(config: RunConfig, full: tel.TelemetrySeries, train: tel.TelemetrySeries):
    """The statistics norm_scope asks for; statistics that overflow name --data."""
    scope = config["norm_scope"]
    if scope == "none":
        return None
    if scope not in ("train", "global"):
        raise ConfigError(f"unknown norm_scope {scope!r}")
    return _blaming(config["data"], tel.fit_normalize, train if scope == "train" else full)


def _maybe_normalize(config: RunConfig, series: tel.TelemetrySeries, stats) -> tel.TelemetrySeries:
    """series normalized by stats, if any; features that overflow name --data."""
    return series if stats is None else _blaming(config["data"], tel.apply_normalize, series, stats)


def _train_predictor(config: RunConfig, series: tel.TelemetrySeries, mode: str):
    """Split, normalize, window, and train; returns splits, model, train losses.

    A validation split too short for one window trains without validation.
    """
    parts = tel.split(series, config.split_spec())
    stats = _norm_stats(config, series, parts.train)
    pcfg = config.predictor_config(mode)
    geometry = (pcfg.seq_len, config["stride"], mode, pcfg.horizon)
    train_windows = tel.window(_maybe_normalize(config, parts.train, stats), *geometry)
    try:
        val_windows = tel.window(_maybe_normalize(config, parts.val, stats), *geometry)
    except SizingError:
        val_windows = None
    predictor = fc.init_predictor(pcfg, train_windows.feature_count, norm_stats=stats)
    predictor = fc.train(predictor, train_windows, val_windows)
    train_losses = record_losses(predictor, train_windows)
    return parts, predictor, train_losses


_LOSS_COLUMNS = ("index", "loss")
_INDEX_COLUMNS = frozenset(("index", "epoch"))


def _history_csv(predictor):
    train = [stat.train_mse for stat in predictor.history]
    val = [math.nan if stat.val_mse is None else stat.val_mse for stat in predictor.history]
    cells = (range(1, len(train) + 1), train, val)
    return tel.table_blocks(("epoch", "train_mse", "val_mse"), cells, _INDEX_COLUMNS)


def _losses_csv(losses):
    return tel.table_blocks(_LOSS_COLUMNS, (range(len(losses)), losses), _INDEX_COLUMNS)


def _load_losses_csv(path: str):
    # A blank loss is NaN, which detection would reject without naming the file.
    rules = (("loss", np.isnan, "column loss must not be blank"),)
    try:
        (losses,) = tel.load_table(path, _LOSS_COLUMNS, _INDEX_COLUMNS, (("loss",),), rules)
        return losses[:, 0]
    except ParseError as exc:
        raise ConfigError(str(exc)) from None


def cmd_ingest(args, config: RunConfig, out: str) -> tuple:
    series, inputs = _load_or_synth(config)
    tel.save_sensor_csv(series, os.path.join(out, "clean.csv"))
    return "ingest", inputs, ["clean.csv"]


def cmd_inject(args, config: RunConfig, out: str) -> tuple:
    series, inputs = _load_or_synth(config)
    labeled = _inject_series(series, config, args.scheme)
    inj.save_labeled_csv(labeled, os.path.join(out, "labeled.csv"))
    return f"inject {args.scheme}", inputs, ["labeled.csv", "labeled.csv.meta.json"]


def cmd_train(args, config: RunConfig, out: str) -> tuple:
    series, inputs = _load_or_synth(config)
    _, predictor, train_losses = _train_predictor(config, series, args.mode)
    fc.save_predictor(predictor, os.path.join(out, "model.ckpt"))
    tel.write_text(os.path.join(out, "history.csv"), _history_csv(predictor))
    tel.write_text(os.path.join(out, "train_losses.csv"), _losses_csv(train_losses))
    return f"train {args.mode}", inputs, ["model.ckpt", "history.csv", "train_losses.csv"]


def _detect_labeled(
    config: RunConfig, predictor, labeled: inj.LabeledSeries, train_losses, model: str = ""
):
    """Normalize with the model's own statistics and run the one detection path.

    A NumericError of the detection names model, the checkpoint, when set.
    """
    series = _maybe_normalize(config, labeled.series, predictor.norm_stats)
    return _blaming(
        model,
        run_detect,
        ts.PredictorDetector(predictor),
        series.features(),
        train_losses=train_losses,
        anomaly_ratio=config["anomaly_ratio"],
        labels=labeled.labels,
        threshold_source=config["threshold_source"],
    )


def _detection_outputs(out: str, config: RunConfig, tier, result) -> list:
    report = ts.emit_report(
        result,
        mission_id=f"mission-{config['seed']}",
        tier=tier.name,
        timestamp=0.0,
    )
    tel.write_text(os.path.join(out, "metrics.json"), metrics_json(result))
    tel.write_text(os.path.join(out, "records.csv"), records_csv(result))
    tel.write_text(os.path.join(out, "report.jsonl"), report.to_json() + "\n")
    return ["metrics.json", "records.csv", "report.jsonl"]


def cmd_detect(args, config: RunConfig, out: str) -> tuple:
    if not config["data"]:
        raise ConfigError("detect needs --data pointing at a labeled CSV")
    predictor = fc.load_predictor(args.model)
    labeled = inj.load_labeled_csv(config["data"])
    inputs = {"data": config["data"], "model": args.model}
    train_losses = None
    if args.train_losses:
        train_losses = _load_losses_csv(args.train_losses)
        inputs["train_losses"] = args.train_losses
    result = _detect_labeled(config, predictor, labeled, train_losses, args.model)
    outputs = _detection_outputs(out, config, config.tier(), result)
    return "detect", inputs, outputs


def cmd_forecast(args, config: RunConfig, out: str) -> tuple:
    predictor = fc.load_predictor(args.model)
    series, inputs = _load_or_synth(config)
    inputs["model"] = args.model
    parts = tel.split(series, config.split_spec())
    test_series = _maybe_normalize(config, parts.test, predictor.norm_stats)
    pcfg = predictor.config
    test_windows = tel.window(test_series, pcfg.seq_len, config["stride"], pcfg.mode, pcfg.horizon)
    report = _blaming(args.model, fc.evaluate_forecast, predictor, test_windows)
    baseline = fc.persistence_predictions(test_windows)
    base_mse = float(((baseline - test_windows.targets) ** 2).mean())
    text = report.to_text() + f"persistence_mse: {base_mse!r}\n"
    tel.write_text(os.path.join(out, "forecast_report.txt"), text)
    return "forecast", inputs, ["forecast_report.txt"]


def cmd_packetset_build(args, config: RunConfig, out: str) -> tuple:
    path = config["data"]
    build = partial(
        ps.build_samples_text,
        context=config["context"],
        seed=config["seed"],
        idle_timeout_s=config["session_timeout_s"],
    )
    # Parse errors and a capture without a window raise here, before any block.
    if path:
        blocks = tel.read_parsed(path, build)
        inputs = {"data": path}
    else:
        blocks = build(syn.synth_packet_log(n_packets=config["records"], seed=config["seed"]))
        inputs = {}
    tel.write_text(os.path.join(out, "samples.txt"), blocks)
    return "packetset build", inputs, ["samples.txt"]


def cmd_packetset_score(args, config: RunConfig, out: str) -> tuple:
    pred = ps.load_packet_csv(args.pred)
    truth = ps.load_packet_csv(args.truth)
    try:
        report = ps.score_fields(pred, truth)
    except DimensionError as exc:
        raise DimensionError(f"{args.pred}: {exc}") from None
    tel.write_text(os.path.join(out, "score_report.txt"), report.to_text())
    inputs = {"pred": args.pred, "truth": args.truth}
    return "packetset score", inputs, ["score_report.txt"]


def _labeled_for_stream(config: RunConfig) -> tuple[inj.LabeledSeries, dict]:
    """Labeled data for latency runs: load a labeled CSV or synth + inject."""
    path = config["data"]
    if path:
        return inj.load_labeled_csv(path), {"data": path}
    series, _ = _load_or_synth(config)
    return _inject_series(series, config, "nth"), {}


def cmd_simulate(args, config: RunConfig, out: str) -> tuple:
    labeled, inputs = _labeled_for_stream(config)
    stats, reports = _blaming(
        config["data"],
        ts.simulate_stream,
        labeled,
        config.tier(),
        config["batch_size"],
        config.latency_model(),
        ts.PersistenceDetector(),
        config["anomaly_ratio"],
        mission_id=f"mission-{config['seed']}",
    )
    payload = {
        "batch_size": stats.batch_size,
        "records": stats.records,
        "n_batches": stats.n_batches,
        "elapsed_s": stats.elapsed_s,
        "metrics": None if stats.metrics is None else stats.metrics.as_dict(),
    }
    tel.write_text(os.path.join(out, "stats.json"), json.dumps(payload, sort_keys=True, indent=2) + "\n")
    tel.write_text(os.path.join(out, "report.jsonl"), (r.to_json() + "\n" for r in reports))
    return "simulate", inputs, ["stats.json", "report.jsonl"]


def cmd_experiment_detection(args, config: RunConfig, out: str) -> tuple:
    """experiment nth|poisson: train on clean splits, inject into raw test, detect."""
    # An unknown tier fails here, before training and before any output is written.
    tier = config.tier()
    series, inputs = _load_or_synth(config)
    parts, predictor, train_losses = _train_predictor(config, series, "reconstruction")
    labeled = _inject_series(parts.test, config, args.subcommand)
    result = _detect_labeled(config, predictor, labeled, train_losses)
    # The writes set the job's peak memory; the whole mission must not add to it.
    del series, parts, predictor, train_losses
    inj.save_labeled_csv(labeled, os.path.join(out, "labeled.csv"))
    outputs = ["labeled.csv", "labeled.csv.meta.json"]
    outputs += _detection_outputs(out, config, tier, result)
    return f"experiment {args.subcommand}", inputs, outputs


def cmd_experiment_variance_sweep(args, config: RunConfig, out: str) -> tuple:
    targets = config.variance_target_list()
    series, inputs = _load_or_synth(config)
    parts, predictor, train_losses = _train_predictor(config, series, "reconstruction")
    metrics = []
    for target in targets:
        labeled = inj.inject_variance(parts.test, config["feature"], target, config["n"])
        metrics.append(_detect_labeled(config, predictor, labeled, train_losses).metrics)
    blocks = sweep_csv(("target_value",), (targets,), frozenset(), metrics)
    tel.write_text(os.path.join(out, "sweep.csv"), blocks)
    return "experiment variance-sweep", inputs, ["sweep.csv"]


def cmd_experiment_batch_sweep(args, config: RunConfig, out: str) -> tuple:
    labeled, inputs = _labeled_for_stream(config)
    results = _blaming(
        config["data"],
        ts.run_batch_experiment,
        labeled,
        config.batch_list(),
        config.tier(),
        config.latency_model(),
        ts.PersistenceDetector(),
        config["anomaly_ratio"],
    )
    tel.write_text(os.path.join(out, "sweep.csv"), ts.batch_experiment_csv(results))
    return "experiment batch-sweep", inputs, ["sweep.csv"]


# Each handler writes its products into out and returns (command, inputs,
# outputs); main makes out first and writes the run manifest last.
_COMMANDS = {
    "ingest": cmd_ingest,
    "inject": cmd_inject,
    "train": cmd_train,
    "detect": cmd_detect,
    "forecast": cmd_forecast,
    "packetset build": cmd_packetset_build,
    "packetset score": cmd_packetset_score,
    "simulate": cmd_simulate,
    "experiment nth": cmd_experiment_detection,
    "experiment poisson": cmd_experiment_detection,
    "experiment variance-sweep": cmd_experiment_variance_sweep,
    "experiment batch-sweep": cmd_experiment_batch_sweep,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        name = args.command
        if getattr(args, "subcommand", None):
            name = f"{args.command} {args.subcommand}"
        config = _effective_config(args)
        out = _out_dir(config)
        return _finish(out, config, *_COMMANDS[name](args, config, out))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
