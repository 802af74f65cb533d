"""Synthetic flight telemetry and packet logs for tests and demo runs.

The sensor generator produces smooth multi-frequency oscillations per axis
plus seeded Gaussian noise, shaped like a steady hover with gentle attitude
corrections.  The packet generator emits a few interleaved TCP-style
conversations.  Both are fully determined by their seed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .telemetry import DEFAULT_FEATURES, META_COLUMNS, TelemetrySeries

# (amplitude, period in records, phase) per feature, tuned so gyro channels sit
# near zero and the vertical accelerometer oscillates around -9.8.
_WAVES = {
    "gyro_rad_0": (0.02, 310.0, 0.0),
    "gyro_rad_1": (0.015, 470.0, 1.3),
    "gyro_rad_2": (0.01, 730.0, 2.1),
    "accelerometer_m_s2_0": (0.3, 290.0, 0.7),
    "accelerometer_m_s2_1": (0.25, 410.0, 1.9),
    "accelerometer_m_s2_2": (0.4, 610.0, 0.4),
}
_BASELINE = {"accelerometer_m_s2_2": -9.8}


def synth_mission(
    n_records: int = 20000,
    seed: int = 0,
    start_timestamp: int = 212000,
    cadence_us: int = 4000,
    noise_level: float = 0.05,
) -> TelemetrySeries:
    """Clean telemetry series of n_records rows at a fixed sample cadence."""
    if n_records < 1:
        raise ConfigError(f"n_records must be positive, got {n_records}")
    if cadence_us < 1:
        raise ConfigError(f"cadence_us must be positive, got {cadence_us}")
    if not (noise_level >= 0 and math.isfinite(noise_level)):
        raise ConfigError(f"noise_level must be finite and non-negative, got {noise_level}")
    rng = np.random.default_rng([seed, 2])
    t = np.arange(n_records, dtype=np.float64)
    # accelerometer_timestamp_relative and accelerometer_clipping stay 0.
    meta = np.zeros((n_records, len(META_COLUMNS)))
    meta[:, META_COLUMNS.index("timestamp")] = start_timestamp + cadence_us * t
    meta[:, META_COLUMNS.index("gyro_integral_dt")] = cadence_us
    meta[:, META_COLUMNS.index("accelerometer_integral_dt")] = cadence_us
    features = np.empty((n_records, len(DEFAULT_FEATURES)))
    for j, name in enumerate(DEFAULT_FEATURES):
        amp, period, phase = _WAVES[name]
        base = _BASELINE.get(name, 0.0)
        wave = amp * np.sin(2.0 * np.pi * t / period + phase)
        wave += 0.3 * amp * np.sin(2.0 * np.pi * t / (period / 3.7) + 2.0 * phase)
        noise = rng.normal(0.0, noise_level * amp, size=n_records) if noise_level else 0.0
        features[:, j] = base + wave + noise
    # Read-only, so the series keeps them instead of copying.
    features.setflags(write=False)
    meta.setflags(write=False)
    return TelemetrySeries(features, meta)


def synth_packet_log(
    n_packets: int = 400,
    seed: int = 0,
    n_flows: int = 3,
) -> str:
    """CSV text of interleaved TCP-ish flows with occasional FIN boundaries."""
    if n_packets < 1:
        raise ConfigError(f"n_packets must be positive, got {n_packets}")
    if n_flows < 1:
        raise ConfigError(f"n_flows must be positive, got {n_flows}")
    rng = np.random.default_rng([seed, 3])
    flows = []
    for k in range(n_flows):
        flows.append(
            {
                "client": f"10.0.0.{k + 2}",
                "server": f"192.168.1.{k + 10}",
                "cport": int(rng.integers(40000, 60000)),
                "sport": int(rng.integers(1, 1024)),
                "seq_c": int(rng.integers(0, 2**20)),
                "seq_s": int(rng.integers(0, 2**20)),
            }
        )
    lines = ["timestamp,src,dst,sport,dport,flags,seq,ack,length"]
    clock = 1000.0
    for i in range(n_packets):
        clock += float(rng.uniform(0.001, 0.05))
        f = flows[int(rng.integers(0, n_flows))]
        outbound = bool(rng.integers(0, 2))
        length = int(rng.integers(0, 1461))
        if outbound:
            src, dst = f["client"], f["server"]
            sport, dport = f["cport"], f["sport"]
            seq, ack = f["seq_c"], f["seq_s"]
            f["seq_c"] = (f["seq_c"] + max(length, 1)) % 2**32
        else:
            src, dst = f["server"], f["client"]
            sport, dport = f["sport"], f["cport"]
            seq, ack = f["seq_s"], f["seq_c"]
            f["seq_s"] = (f["seq_s"] + max(length, 1)) % 2**32
        flags = "PA" if length else "A"
        if rng.random() < 0.01:
            flags = "FA"
        lines.append(
            f"{clock!r},{src},{dst},{sport},{dport},{flags},{seq},{ack},{length}"
        )
    return "\n".join(lines) + "\n"

