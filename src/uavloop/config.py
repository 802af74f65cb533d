"""Flat key=value run configuration shared by every CLI command.

A config file is plain text, one `key=value` per line, with blank lines and
`#` comments ignored.  Every key has a schema-declared type and default, and
every key can be overridden by the CLI flag of the same name.  Helper
methods translate groups of keys into the typed objects the pipeline wants.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .errors import ConfigError
from .forecast import PredictorConfig
from .inject import PerturbSpec
from .telemetry import SplitSpec, read_text
from .tiersim import LatencyModel, Tier, validate_tiers

# key -> (type, default).  Path-valued keys are listed separately so output
# manifests can echo the config without baking absolute paths into them.
_SCHEMA: dict = {
    "data": (str, ""),
    "out": (str, "out"),
    "seed": (int, 0),
    "records": (int, 20000),
    "start_timestamp": (int, 212000),
    "cadence_us": (int, 4000),
    "noise_level": (float, 0.05),
    "impute_policy": (str, "linear"),
    "split_train": (float, 0.6),
    "split_val": (float, 0.2),
    "split_test": (float, 0.2),
    "norm_scope": (str, "train"),
    "seq_len": (int, 16),
    "stride": (int, 1),
    "horizon": (int, 1),
    "fcn_dim": (int, 64),
    "epochs": (int, 3),
    "learning_rate": (float, 0.02),
    "batch_size": (int, 128),
    "anomaly_ratio": (float, 20.0),
    "threshold_source": (str, "train"),
    "n": (int, 5),
    "fraction": (float, 0.05),
    "selection": (str, "fixed-count"),
    "poisson_lambda": (float, 2.0),
    "feature": (str, "accelerometer_m_s2_2"),
    "perturb_mode": (str, "offset-sigma"),
    "sigma_k": (float, 6.0),
    "set_value": (float, -8.5),
    "variance_targets": (str, "-8.5,-9.0,-9.5,-10.0,-10.5,-11.0"),
    "batches": (str, "4,8,16,32,64,128"),
    "tier": (str, "edge"),
    "latency_a": (float, 6.42),
    "latency_b": (float, 0.011),
    "latency_c": (float, 0.00001),
    "onboard_factor": (float, 4.0),
    "edge_factor": (float, 1.5),
    "cloud_factor": (float, 1.0),
    "onboard_link_ms": (float, 0.0),
    "edge_link_ms": (float, 10.0),
    "cloud_link_ms": (float, 150.0),
    "context": (int, 3),
    "session_timeout_s": (float, 60.0),
}

PATH_KEYS = ("data", "out")


def _coerce(key: str, raw) -> object:
    if key not in _SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _SCHEMA[key][0]
    text = str(raw).strip()
    try:
        if kind is int:
            return int(text, 10)
        if kind is float:
            value = float(text)
            # NaN compares false: only a finite number passes.
            if not abs(value) < float("inf"):
                raise ConfigError(f"bad value for {key}: {raw!r} is not a finite number")
            return value
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} is not {kind.__name__}") from exc


@dataclass(frozen=True)
class RunConfig:
    values: MappingProxyType

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))

    @classmethod
    def default(cls) -> "RunConfig":
        return cls({key: default for key, (_, default) in _SCHEMA.items()})

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        values = {key: default for key, (_, default) in _SCHEMA.items()}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"line {lineno}: not key=value: {raw!r}")
            try:
                values[key.strip()] = _coerce(key.strip(), value)
            except ConfigError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
        return cls(values)

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        """``parse`` of a config file; path prefixes a ConfigError's message."""
        try:
            return cls.parse(read_text(path))
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def override(self, key: str, raw) -> "RunConfig":
        values = dict(self.values)
        values[key] = _coerce(key, raw)
        return RunConfig(values)

    def __getitem__(self, key: str):
        if key not in self.values:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def echo(self) -> dict:
        """Plain dict of the effective config without its paths, for manifests."""
        return {k: v for k, v in sorted(self.values.items()) if k not in PATH_KEYS}

    def split_spec(self) -> SplitSpec:
        return SplitSpec(
            train=self["split_train"], val=self["split_val"], test=self["split_test"]
        )

    def predictor_config(self, mode: str = "reconstruction") -> PredictorConfig:
        if mode not in ("reconstruction", "forecast"):
            raise ConfigError(f"unknown predictor mode {mode!r}")
        cfg = PredictorConfig(
            seq_len=self["seq_len"],
            horizon=self["seq_len"] if mode == "reconstruction" else self["horizon"],
            fcn_dim=self["fcn_dim"],
            epochs=self["epochs"],
            learning_rate=self["learning_rate"],
            batch_size=self["batch_size"],
            seed=self["seed"],
        )
        if cfg.mode != mode:  # such a checkpoint loads as a reconstructor
            raise ConfigError(f"forecast horizon must differ from seq_len, both are {cfg.horizon}")
        return cfg

    def perturb_spec(self) -> PerturbSpec:
        mode = self["perturb_mode"]
        return PerturbSpec(
            feature=self["feature"],
            mode=mode,
            k=self["sigma_k"],
            value=self["set_value"] if mode == "set-value" else None,
        )

    def tiers(self) -> dict:
        tiers = {
            "onboard": Tier("onboard", self["onboard_factor"], self["onboard_link_ms"]),
            "edge": Tier("edge", self["edge_factor"], self["edge_link_ms"]),
            "cloud": Tier("cloud", self["cloud_factor"], self["cloud_link_ms"]),
        }
        validate_tiers(tiers)
        return tiers

    def tier(self) -> Tier:
        tiers = self.tiers()
        name = self["tier"]
        if name not in tiers:
            raise ConfigError(f"unknown tier {name!r}")
        return tiers[name]

    def latency_model(self) -> LatencyModel:
        return LatencyModel(a=self["latency_a"], b=self["latency_b"], c=self["latency_c"])

    def batch_list(self) -> list[int]:
        return self._list("batches", int)

    def variance_target_list(self) -> list[float]:
        return self._list("variance_targets", float)

    def _list(self, key: str, kind) -> list:
        """The comma-separated value of key as a list of kind; blank items are skipped."""
        items = [s.strip() for s in self[key].split(",") if s.strip()]
        if not items:
            raise ConfigError(f"{key} list is empty")
        try:
            return [kind(s) for s in items]
        except ValueError as exc:
            raise ConfigError(f"bad {key} list {self[key]!r}") from exc


def schema_keys() -> tuple:
    return tuple(_SCHEMA)
