import numpy as np
import pytest

from uavloop.errors import ConfigError
from uavloop.packetset import extract_sessions, parse_packet_csv
from uavloop.synthetic import synth_mission, synth_packet_log
from uavloop.telemetry import DEFAULT_FEATURES

from support import ar1_series


class TestMission:
    def test_shape_and_clock(self):
        series = synth_mission(n_records=500, start_timestamp=1000, cadence_us=250)
        assert len(series) == 500
        assert series.features().shape == (500, len(DEFAULT_FEATURES))
        ts = series.values[:, 0]
        assert ts[0] == 1000.0
        assert np.all(np.diff(ts) == 250.0)

    def test_deterministic_per_seed(self):
        a = synth_mission(n_records=300, seed=5)
        b = synth_mission(n_records=300, seed=5)
        c = synth_mission(n_records=300, seed=6)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_vertical_accelerometer_hovers_near_gravity(self):
        series = synth_mission(n_records=4000, seed=0)
        accel = series.column("accelerometer_m_s2_2")
        assert abs(accel.mean() + 9.8) < 0.05
        assert np.isfinite(series.values).all()

    def test_gyro_channels_center_on_zero(self):
        series = synth_mission(n_records=4000, seed=0)
        for name in ("gyro_rad_0", "gyro_rad_1", "gyro_rad_2"):
            assert abs(series.column(name).mean()) < 0.01

    def test_zero_noise_is_seed_free(self):
        a = synth_mission(n_records=200, seed=1, noise_level=0.0)
        b = synth_mission(n_records=200, seed=2, noise_level=0.0)
        assert np.array_equal(a.values, b.values)

    def test_validation(self):
        with pytest.raises(ConfigError):
            synth_mission(n_records=0)
        with pytest.raises(ConfigError):
            synth_mission(n_records=10, cadence_us=0)
        with pytest.raises(ConfigError):
            synth_mission(n_records=10, noise_level=-0.1)


class TestPacketLog:
    def test_parses_and_counts(self):
        text = synth_packet_log(n_packets=200, seed=3)
        packets = parse_packet_csv(text)
        assert len(packets) == 200

    def test_deterministic_per_seed(self):
        assert synth_packet_log(n_packets=50, seed=4) == synth_packet_log(n_packets=50, seed=4)
        assert synth_packet_log(n_packets=50, seed=4) != synth_packet_log(n_packets=50, seed=5)

    def test_flow_structure(self):
        packets = parse_packet_csv(synth_packet_log(n_packets=300, seed=0, n_flows=4))
        conversations = {p.endpoints() for p in packets}
        assert len(conversations) == 4
        times = [p.timestamp for p in packets]
        assert times == sorted(times)
        assert times[0] > 1000.0
        assert all(s for sess in extract_sessions(packets) for s in sess)

    def test_validation(self):
        with pytest.raises(ConfigError):
            synth_packet_log(n_packets=0)
        with pytest.raises(ConfigError):
            synth_packet_log(n_packets=10, n_flows=0)


class TestAr1:
    def test_deterministic_and_shaped(self):
        a = ar1_series(100, seed=3)
        b = ar1_series(100, seed=3)
        assert a.shape == (100,)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, ar1_series(100, seed=4))

    def test_lag_one_autocorrelation_matches_phi(self):
        x = ar1_series(200000, phi=0.9, sigma=0.1, seed=0)
        r = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r - 0.9) < 0.01

    def test_stationary_variance(self):
        x = ar1_series(200000, phi=0.8, sigma=0.5, seed=1)
        target = 0.5**2 / (1.0 - 0.8**2)
        assert abs(x.var() - target) / target < 0.05

    def test_phi_zero_is_white_noise(self):
        x = ar1_series(50000, phi=0.0, sigma=1.0, seed=2)
        r = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r) < 0.02

    def test_phi_validation(self):
        with pytest.raises(ConfigError):
            ar1_series(10, phi=1.0)
        with pytest.raises(ConfigError):
            ar1_series(10, phi=-1.5)
