"""Labeled anomaly injection over clean telemetry.

Four deterministic schemes: every-nth, random subset, fixed-value variance,
and Poisson-gap placement.  Every scheme returns the perturbed series plus a
ground-truth label vector and enough metadata to replay the injection.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import telemetry
from .errors import ConfigError, DimensionError, ImputationError, ParseError
from .telemetry import TelemetrySeries

LABEL_COLUMN = "label"
LABELED_COLUMNS = telemetry.COLUMNS + (LABEL_COLUMN,)
_LABELED_INT_COLUMNS = telemetry.INT_COLUMNS | {LABEL_COLUMN}
_LABELED_RULES = telemetry.SENSOR_RULES + (
    (LABEL_COLUMN, lambda c: (c != 0) & (c != 1), "label cells must be 0 or 1"),
)
_LABELED_GROUPS = (telemetry.DEFAULT_FEATURES, telemetry.META_COLUMNS, (LABEL_COLUMN,))


@dataclass(frozen=True)
class PerturbSpec:
    """How a selected record's feature value is rewritten.

    ``offset-sigma`` sets the cell to mean + k * std of that feature over the
    input series; ``set-value`` writes ``value`` verbatim.
    """

    feature: str = "accelerometer_m_s2_2"
    mode: str = "offset-sigma"
    k: float = 6.0
    value: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("offset-sigma", "set-value"):
            raise ConfigError(f"unknown perturbation mode {self.mode!r}")
        if self.mode == "offset-sigma" and not math.isfinite(self.k):
            raise ConfigError(f"offset-sigma multiplier must be finite, got {self.k}")
        if self.mode == "set-value" and (self.value is None or not math.isfinite(self.value)):
            raise ConfigError("set-value mode needs a finite value")

    def describe(self) -> dict:
        out: dict = {"feature": self.feature, "mode": self.mode}
        if self.mode == "offset-sigma":
            out["k"] = float(self.k)
        else:
            out["value"] = float(self.value)
        return out


@dataclass(frozen=True)
class InjectionMeta:
    scheme: str
    params: dict
    seed: int | None = None

    def to_json(self) -> str:
        payload = {"scheme": self.scheme, "params": self.params, "seed": self.seed}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "InjectionMeta":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc.msg}", line=exc.lineno) from None
        if not (
            isinstance(payload, dict)
            and isinstance(payload.get("scheme"), str)
            and isinstance(payload.get("params"), dict)
            and isinstance(payload.get("seed"), (int, type(None)))
        ):
            raise ParseError(
                'expected an object with a "scheme" string, a "params" object '
                'and an optional integer "seed"'
            )
        return cls(payload["scheme"], payload["params"], payload.get("seed"))


@dataclass(frozen=True)
class LabeledSeries:
    """A telemetry series plus a boolean anomaly label per record."""

    series: TelemetrySeries
    labels: np.ndarray
    meta: InjectionMeta

    def __post_init__(self) -> None:
        labels = np.array(self.labels, dtype=bool)
        if labels.shape != (len(self.series),):
            raise DimensionError(
                f"label vector shape {labels.shape} does not match record count {len(self.series)}"
            )
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    def anomaly_count(self) -> int:
        return int(self.labels.sum())


def _perturb(series: TelemetrySeries, rows: np.ndarray, spec: PerturbSpec) -> TelemetrySeries:
    if spec.feature not in telemetry.DEFAULT_FEATURES:
        raise ConfigError(f"feature {spec.feature!r} is not a modeling feature of this series")
    if rows.size == 0:
        return series
    j = telemetry.DEFAULT_FEATURES.index(spec.feature)
    out = np.array(series.features())
    col = out[:, j]
    if spec.mode == "set-value":
        new_value = float(spec.value)
    else:
        if np.isnan(col).any():
            raise ImputationError("impute missing cells before offset-sigma injection")
        new_value = float(col.mean() + spec.k * col.std())
    col[rows] = new_value
    out.setflags(write=False)
    return series.with_features(out)


def _labeled(
    series: TelemetrySeries,
    rows: np.ndarray,
    spec: PerturbSpec,
    scheme: str,
    params: dict,
    seed: int | None = None,
) -> LabeledSeries:
    rows = np.asarray(rows, dtype=np.int64)
    labels = np.zeros(len(series), dtype=bool)
    labels[rows] = True
    meta = InjectionMeta(scheme, {**params, "perturb": spec.describe()}, seed)
    return LabeledSeries(_perturb(series, rows, spec), labels, meta)


def _every_nth(series: TelemetrySeries, n: int) -> np.ndarray:
    """The rows of records n, 2n, 3n, ... (1-based)."""
    if n < 2:
        raise ConfigError(f"every-nth stride must be at least 2, got {n}")
    return np.arange(n - 1, len(series), n, dtype=np.int64)


def inject_every_nth(series: TelemetrySeries, n: int, spec: PerturbSpec = PerturbSpec()) -> LabeledSeries:
    """Perturb records n, 2n, 3n, ... (1-based); exactly floor(N/n) anomalies."""
    return _labeled(series, _every_nth(series, n), spec, "every-nth", {"n": int(n)})


def inject_random(
    series: TelemetrySeries,
    fraction: float,
    spec: PerturbSpec = PerturbSpec(),
    seed: int = 0,
    selection: str = "fixed-count",
) -> LabeledSeries:
    """Perturb a seeded random subset of records.

    ``fixed-count`` picks exactly round(fraction * N) records without
    replacement (round half to even); ``bernoulli`` flips an independent coin
    per record instead.
    """
    if not (0.0 < fraction < 1.0):
        raise ConfigError(f"fraction must be in (0, 1), got {fraction}")
    if selection not in ("fixed-count", "bernoulli"):
        raise ConfigError(f"unknown selection mode {selection!r}")
    rng = np.random.default_rng(seed)
    n = len(series)
    if selection == "fixed-count":
        count = int(round(fraction * n))
        rows = np.sort(rng.choice(n, size=count, replace=False)) if n else np.empty(0, np.int64)
    else:
        rows = np.nonzero(rng.random(n) < fraction)[0]
    params = {"fraction": float(fraction), "selection": selection}
    return _labeled(series, rows, spec, "random", params, seed=seed)


def inject_variance(
    series: TelemetrySeries, feature: str, target_value: float, n: int
) -> LabeledSeries:
    """Set ``feature`` to ``target_value`` at records n, 2n, 3n, ... (1-based).

    Labels follow the selection even if the written value equals the original.
    """
    rows = _every_nth(series, n)
    if rows.size == 0:
        raise ConfigError("variance injection selected no records")
    spec = PerturbSpec(feature=feature, mode="set-value", value=float(target_value))
    params = {"target_value": float(target_value), "every_nth": int(n)}
    return _labeled(series, rows, spec, "variance", params)


def inject_poisson(
    series: TelemetrySeries,
    lam: float,
    spec: PerturbSpec = PerturbSpec(),
    seed: int = 0,
) -> LabeledSeries:
    """Place anomalies with gaps drawn from Poisson(lam) + 1 (mean gap lam + 1)."""
    if not (math.isfinite(lam) and lam > 0):
        raise ConfigError(f"lambda must be positive, got {lam}")
    n = len(series)
    # Every gap is at least 1, so n gaps always reach past the last record.
    pos = np.cumsum(np.random.default_rng(seed).poisson(lam, n) + 1) - 1
    params = {"lambda": float(lam)}
    return _labeled(series, pos[pos < n], spec, "poisson", params, seed=seed)


def serialize_labeled_csv(labeled: LabeledSeries):
    """The labeled CSV's text, in ``telemetry.table_blocks``' row blocks."""
    cells = [*map(labeled.series.column, telemetry.COLUMNS), labeled.labels]
    return telemetry.table_blocks(LABELED_COLUMNS, cells, _LABELED_INT_COLUMNS)


def save_labeled_csv(labeled: LabeledSeries, csv_path) -> None:
    """Write the CSV and, beside it as ``<csv_path>.meta.json``, its metadata."""
    telemetry.write_text(csv_path, serialize_labeled_csv(labeled))
    telemetry.write_text(f"{csv_path}.meta.json", labeled.meta.to_json())


def load_labeled_csv(csv_path) -> LabeledSeries:
    """Read a labeled CSV and, if ``<csv_path>.meta.json`` exists, its metadata."""
    meta = InjectionMeta("unknown", {})
    meta_path = f"{csv_path}.meta.json"
    if os.path.exists(meta_path):
        meta = telemetry.read_parsed(meta_path, InjectionMeta.from_json)
    features, series_meta, labels = telemetry.load_table(
        csv_path, LABELED_COLUMNS, _LABELED_INT_COLUMNS, _LABELED_GROUPS, _LABELED_RULES
    )
    return LabeledSeries(TelemetrySeries(features, series_meta), labels[:, 0] == 1, meta)
