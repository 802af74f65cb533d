import pytest

from uavloop.config import PATH_KEYS, RunConfig, schema_keys
from uavloop.errors import ConfigError


class TestValues:
    def test_defaults(self):
        cfg = RunConfig.default()
        assert cfg["seed"] == 0
        assert cfg["records"] == 20000
        assert cfg["anomaly_ratio"] == 20.0
        assert cfg["threshold_source"] == "train"
        assert cfg["epochs"] == 3
        assert cfg["n"] == 5
        assert cfg["impute_policy"] == "linear"
        assert cfg["out"] == "out"

    def test_parse_overrides_and_comments(self):
        cfg = RunConfig.parse("# experiment\n\nseed=7\n  epochs = 2\ntier = cloud\n")
        assert cfg["seed"] == 7
        assert cfg["epochs"] == 2
        assert cfg["tier"] == "cloud"
        assert cfg["records"] == 20000

    def test_parse_rejects_bad_lines(self):
        with pytest.raises(ConfigError) as err:
            RunConfig.parse("seed 7\n")
        assert "line 1" in str(err.value)
        with pytest.raises(ConfigError):
            RunConfig.parse("volume=11\n")
        with pytest.raises(ConfigError):
            RunConfig.parse("seed=seven\n")

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "1e999"])
    def test_float_keys_must_be_finite(self, raw):
        with pytest.raises(ConfigError) as err:
            RunConfig.parse(f"latency_a={raw}\n")
        assert str(err.value) == f"line 1: bad value for latency_a: {raw!r} is not a finite number"
        with pytest.raises(ConfigError):
            RunConfig.default().override("session_timeout_s", raw)

    def test_load(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("records=500\nnoise_level=0.1\n")
        cfg = RunConfig.load(str(path))
        assert cfg["records"] == 500
        assert cfg["noise_level"] == 0.1

    def test_override_coerces_and_is_pure(self):
        base = RunConfig.default()
        changed = base.override("anomaly_ratio", "12.5")
        assert changed["anomaly_ratio"] == 12.5
        assert base["anomaly_ratio"] == 20.0
        assert base.override("impute_policy", " linear ")["impute_policy"] == "linear"
        with pytest.raises(ConfigError):
            base.override("volume", "11")
        with pytest.raises(ConfigError):
            base["volume"]

    def test_echo_hides_paths_by_default(self):
        cfg = RunConfig.default().override("data", "/tmp/in.csv").override("out", "/tmp/o")
        echoed = cfg.echo()
        assert all(key not in echoed for key in PATH_KEYS)
        assert list(echoed) == sorted(echoed)

    def test_schema_keys_cover_paths(self):
        keys = schema_keys()
        assert set(PATH_KEYS) <= set(keys)
        assert "seq_len" in keys and "batches" in keys


class TestDerivedObjects:
    def test_split_spec(self):
        spec = RunConfig.default().split_spec()
        assert (spec.train, spec.val, spec.test) == (0.6, 0.2, 0.2)

    def test_predictor_config_modes(self):
        cfg = RunConfig.default().override("seq_len", "12").override("horizon", "2")
        recon = cfg.predictor_config("reconstruction")
        assert recon.seq_len == 12 and recon.horizon == 12
        fore = cfg.predictor_config("forecast")
        assert fore.horizon == 2
        with pytest.raises(ConfigError):
            cfg.predictor_config("interpolation")

    def test_forecast_horizon_must_differ_from_seq_len(self):
        cfg = RunConfig.default().override("seq_len", "4").override("horizon", "4")
        assert cfg.predictor_config("reconstruction").horizon == 4
        with pytest.raises(ConfigError, match="horizon must differ from seq_len"):
            cfg.predictor_config("forecast")

    def test_perturb_spec_modes(self):
        default = RunConfig.default().perturb_spec()
        assert default.mode == "offset-sigma"
        assert default.k == 6.0
        assert default.value is None
        setv = RunConfig.default().override("perturb_mode", "set-value").perturb_spec()
        assert setv.value == -8.5

    def test_tiers_and_selection(self):
        cfg = RunConfig.default()
        tiers = cfg.tiers()
        assert tiers["onboard"].compute_factor == 4.0
        assert cfg.tier().name == "edge"
        assert cfg.override("tier", "cloud").tier().link_latency_ms == 150.0
        with pytest.raises(ConfigError):
            cfg.override("tier", "fog").tier()
        with pytest.raises(ConfigError):
            cfg.override("cloud_factor", "9.0").tiers()

    def test_latency_model_defaults(self):
        model = RunConfig.default().latency_model()
        assert model.a == 6.42
        assert model.b == 0.011
        assert model.c == 1e-05

    def test_batch_list(self):
        cfg = RunConfig.default()
        assert cfg.batch_list() == [4, 8, 16, 32, 64, 128]
        assert cfg.override("batches", " 4 , 8 ").batch_list() == [4, 8]
        with pytest.raises(ConfigError):
            cfg.override("batches", "4,x").batch_list()
        with pytest.raises(ConfigError):
            cfg.override("batches", ",").batch_list()

    def test_variance_target_list(self):
        cfg = RunConfig.default()
        assert cfg.variance_target_list() == [-8.5, -9.0, -9.5, -10.0, -10.5, -11.0]
        with pytest.raises(ConfigError):
            cfg.override("variance_targets", "a,b").variance_target_list()
        with pytest.raises(ConfigError):
            cfg.override("variance_targets", " , ").variance_target_list()
