import errno
import hashlib
import json
import os
import re

import numpy as np
import pytest

from uavloop import forecast as fc
from uavloop import packetset as ps
from uavloop.cli import main
from uavloop.errors import NumericError
from uavloop.synthetic import synth_packet_log
from uavloop.telemetry import BLOCK_ROWS, HEADER, fit_normalize, load_sensor_csv

TINY_TRAIN = ["--records", "600", "--seq-len", "8", "--fcn-dim", "8", "--epochs", "1"]
NOISE_LEVEL = "noise_level must be finite and non-negative, got"
CLOCK_OVERFLOW = (
    "stream clock over 300 records is not finite: "
    "latency_a, latency_b, latency_c, edge_factor or edge_link_ms is too large"
)


def run(*argv):
    return main(list(argv))


def manifest(out_dir):
    with open(os.path.join(out_dir, "run_manifest.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        code = run("ingest", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"))
        assert code == 2

    def test_config_error(self, tmp_path):
        code = run("inject", "--scheme", "nth", "--n", "1", "--records", "50",
                   "--out", str(tmp_path / "o"))
        assert code == 3

    def test_usage_error(self, tmp_path):
        assert run("inject", "--scheme", "sideways", "--out", str(tmp_path / "o")) == 3
        assert run("ingest", "--no-such-flag", "1") == 3

    def test_usage_error_then_valid_command(self, tmp_path):
        assert run("ingest", "--no-such-flag", "1") == 3
        assert run("ingest", "--records", "50", "--out", str(tmp_path / "o")) == 0

    @pytest.mark.parametrize(
        "case, code", [("data-dir", 2), ("data-not-utf8", 2), ("out-file", 3)]
    )
    def test_unreadable_input_or_output(self, tmp_path, capsys, case, code):
        blocker = tmp_path / "blocker"
        if case == "data-dir":
            blocker.mkdir()
        else:
            blocker.write_bytes(b"timestamp\xff\n")
        if case == "out-file":
            argv = ["--records", "50", "--out", str(blocker)]
        else:
            argv = ["--data", str(blocker), "--out", str(tmp_path / "o")]
        assert run("ingest", *argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_non_finite_sensor_value(self, tmp_path, capsys):
        clean = tmp_path / "clean"
        assert run("ingest", "--records", "20", "--out", str(clean)) == 0
        lines = (clean / "clean.csv").read_text().splitlines()
        lines[2] = "nan" + lines[2][lines[2].index(","):]
        data = tmp_path / "bad.csv"
        data.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("ingest", "--data", str(data), "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err
        assert err == f"error: {data}: line 3: non-finite value 'nan' in column timestamp\n"

    def test_forecast_horizon_equal_to_seq_len(self, tmp_path, capsys):
        code = run("train", "--mode", "forecast", "--horizon", "4", "--seq-len", "4",
                   "--records", "200", "--out", str(tmp_path / "o"))
        assert code == 3
        assert "horizon must differ from seq_len" in capsys.readouterr().err
        assert not (tmp_path / "o" / "model.ckpt").exists()

    @pytest.mark.parametrize("recipe", ["nth", "poisson", "detect"])
    def test_unknown_tier_in_report(self, trained, tmp_path, capsys, recipe):
        out = tmp_path / "o"
        if recipe == "detect":
            argv = ["detect", "--model", str(trained / "recon" / "model.ckpt"),
                    "--data", str(trained / "labeled" / "labeled.csv"),
                    "--threshold-source", "eval"]
        else:
            argv = ["experiment", recipe, *TINY_TRAIN]
        capsys.readouterr()
        assert run(*argv, "--tier", "mars", "--out", str(out)) == 3
        assert capsys.readouterr().err == "error: unknown tier 'mars'\n"
        assert not (out / "report.jsonl").exists()
        assert not (out / "run_manifest.json").exists()
        if recipe != "detect":
            # The tier is checked before training, so no labeled split is written.
            assert not (out / "labeled.csv").exists()
            assert not (out / "labeled.csv.meta.json").exists()

    @pytest.mark.parametrize("source", ["synthetic", "clean-file"])
    def test_unknown_impute_policy_without_blanks(self, tmp_path, capsys, source):
        argv = ["--records", "50"]
        if source == "clean-file":
            assert run("ingest", "--records", "50", "--out", str(tmp_path / "clean")) == 0
            argv = ["--data", str(tmp_path / "clean" / "clean.csv")]
        capsys.readouterr()
        assert run("ingest", *argv, "--impute-policy", "bogus",
                   "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == "error: unknown imputation policy 'bogus'\n"

    def test_divergence(self, tmp_path):
        code = run("train", *TINY_TRAIN, "--epochs", "2",
                   "--learning-rate", "1000000", "--out", str(tmp_path / "o"))
        assert code == 4


class TestIngest:
    def test_outputs_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("ingest", "--records", "400", "--out", str(out)) == 0
        series = load_sensor_csv(str(out / "clean.csv"))
        assert len(series) == 400
        m = manifest(str(out))
        assert m["command"] == "ingest"
        assert m["config"]["records"] == 400
        assert "data" not in m["config"] and "out" not in m["config"]
        assert m["inputs"] == {}
        assert m["outputs"] == ["clean.csv"]
        printed = capsys.readouterr().out
        assert "clean.csv" in printed

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("records=300\nseed=3\nimpute_policy = linear\ntier = cloud\n")
        out = tmp_path / "o"
        assert run("ingest", "--config", str(cfg), "--records", "120", "--out", str(out)) == 0
        m = manifest(str(out))
        assert m["config"]["records"] == 120
        assert m["config"]["seed"] == 3
        assert (m["config"]["impute_policy"], m["config"]["tier"]) == ("linear", "cloud")

    def test_ingest_from_file(self, tmp_path):
        first = tmp_path / "a"
        assert run("ingest", "--records", "150", "--out", str(first)) == 0
        second = tmp_path / "b"
        assert run("ingest", "--data", str(first / "clean.csv"), "--out", str(second)) == 0
        m = manifest(str(second))
        assert list(m["inputs"]) == ["data"]
        assert len(m["inputs"]["data"]) == 64


class TestInject:
    def test_labeled_outputs(self, tmp_path):
        out = tmp_path / "o"
        assert run("inject", "--scheme", "nth", "--records", "300", "--n", "5",
                   "--out", str(out)) == 0
        assert (out / "labeled.csv").exists()
        meta = json.loads((out / "labeled.csv.meta.json").read_text())
        assert meta["scheme"] == "every-nth"
        assert manifest(str(out))["outputs"] == ["labeled.csv", "labeled.csv.meta.json"]


class TestTrainDetectForecast:
    def test_pipeline_round_trip(self, tmp_path):
        train_out = tmp_path / "train"
        assert run("train", *TINY_TRAIN, "--out", str(train_out)) == 0
        assert (train_out / "model.ckpt").exists()
        history = (train_out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_mse,val_mse"
        assert len(history) == 2
        losses = (train_out / "train_losses.csv").read_text().splitlines()
        assert losses[0] == "index,loss"

        inject_out = tmp_path / "labeled"
        assert run("inject", "--scheme", "nth", "--records", "600", "--n", "5",
                   "--out", str(inject_out)) == 0

        detect_out = tmp_path / "detect"
        code = run(
            "detect",
            "--model", str(train_out / "model.ckpt"),
            "--train-losses", str(train_out / "train_losses.csv"),
            "--data", str(inject_out / "labeled.csv"),
            "--seq-len", "8",
            "--out", str(detect_out),
        )
        assert code == 0
        metrics = json.loads((detect_out / "metrics.json").read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert metrics["threshold"] > 0.0
        records = (detect_out / "records.csv").read_text().splitlines()
        assert records[0] == "index,loss,predicted,truth"
        assert len(records) == 601
        for line in (detect_out / "report.jsonl").read_text().splitlines():
            payload = json.loads(line)
            assert payload["tier"] == "edge"
        m = manifest(str(detect_out))
        assert set(m["inputs"]) == {"model", "train_losses", "data"}

    @pytest.mark.parametrize("mode", ["reconstruction", "forecast"])
    def test_val_split_too_short_for_a_window_trains_without_it(self, tmp_path, mode):
        # 60 records leave a 12-record validation split, short of one 16-row window.
        out = tmp_path / "o"
        assert run("train", "--mode", mode, "--records", "60", "--seq-len", "16",
                   "--epochs", "2", "--out", str(out)) == 0
        history = (out / "history.csv").read_text().splitlines()
        assert len(history) == 3
        assert all(line.endswith(",") for line in history[1:])

    def test_norm_scope_none_keeps_raw_units(self, tmp_path):
        out = tmp_path / "o"
        assert run("train", *TINY_TRAIN, "--norm-scope", "none", "--out", str(out)) == 0
        assert "norm=none" in (out / "model.ckpt").read_text().splitlines()
        assert fc.load_predictor(str(out / "model.ckpt")).norm_stats is None

    def test_norm_scope_global_fits_every_split(self, tmp_path):
        assert run("ingest", "--records", "600", "--out", str(tmp_path / "clean")) == 0
        whole = fit_normalize(load_sensor_csv(str(tmp_path / "clean" / "clean.csv")))
        stats = {}
        for scope in ("global", "train"):
            out = tmp_path / scope
            assert run("train", *TINY_TRAIN, "--norm-scope", scope, "--out", str(out)) == 0
            stats[scope] = fc.load_predictor(str(out / "model.ckpt")).norm_stats
        assert np.array_equal(stats["global"].mean, whole.mean)
        assert np.array_equal(stats["global"].std, whole.std)
        assert not np.array_equal(stats["train"].mean, whole.mean)

    def test_forecast_report(self, tmp_path):
        train_out = tmp_path / "train"
        assert run("train", "--mode", "forecast", *TINY_TRAIN, "--out", str(train_out)) == 0
        fc_out = tmp_path / "fc"
        assert run("forecast", "--model", str(train_out / "model.ckpt"),
                   "--records", "600", "--seq-len", "8", "--out", str(fc_out)) == 0
        text = (fc_out / "forecast_report.txt").read_text()
        assert text.startswith("mse: ")
        assert "persistence_mse: " in text


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny reconstruction model, a forecast model and a labeled CSV."""
    root = tmp_path_factory.mktemp("trained")
    assert run("train", *TINY_TRAIN, "--out", str(root / "recon")) == 0
    assert run("train", "--mode", "forecast", "--horizon", "2", *TINY_TRAIN,
               "--out", str(root / "fc")) == 0
    assert run("inject", "--scheme", "nth", "--records", "600", "--n", "5",
               "--out", str(root / "labeled")) == 0
    return root


class TestDetectInputs:
    @staticmethod
    def detect_with_losses(trained, tmp_path, text):
        losses = tmp_path / "losses.csv"
        losses.write_text(text)
        out = tmp_path / "o"
        code = run("detect", "--model", str(trained / "recon" / "model.ckpt"),
                   "--train-losses", str(losses),
                   "--data", str(trained / "labeled" / "labeled.csv"), "--out", str(out))
        return code, str(losses), out

    def test_non_numeric_loss_rejected(self, trained, tmp_path, capsys):
        code, path, _ = self.detect_with_losses(trained, tmp_path, "index,loss\n0,0.5\n1,abc\n")
        assert code == 3
        err = capsys.readouterr().err
        assert path in err and "line 3" in err

    def test_short_loss_line_rejected(self, trained, tmp_path, capsys):
        code, path, _ = self.detect_with_losses(trained, tmp_path, "index,loss\n0\n")
        assert code == 3
        err = capsys.readouterr().err
        assert path in err and "line 2" in err

    def test_non_finite_losses_rejected(self, trained, tmp_path, capsys):
        code, path, out = self.detect_with_losses(trained, tmp_path, "index,loss\n0,nan\n1,nan\n")
        assert code == 3
        err = capsys.readouterr().err
        assert path in err and "line 2" in err
        assert not (out / "metrics.json").exists()

    def test_missing_data_rejected(self, trained, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("detect", "--model", str(trained / "recon" / "model.ckpt"),
                   "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err == "error: detect needs --data pointing at a labeled CSV\n"
        assert not (out / "metrics.json").exists()

    def test_forecast_checkpoint_rejected(self, trained, tmp_path, capsys):
        code = run("detect", "--model", str(trained / "fc" / "model.ckpt"),
                   "--data", str(trained / "labeled" / "labeled.csv"),
                   "--threshold-source", "eval", "--out", str(tmp_path / "o"))
        assert code == 3
        assert "needs a reconstruction predictor" in capsys.readouterr().err


class TestInputReaders:
    """Every input file a command reads is decoded in one place that names it."""

    @pytest.mark.parametrize("site", [
        "sensor", "labeled", "labeled-meta", "model", "train-losses", "config",
        "packet-log", "packet-score",
    ])
    def test_not_utf8_names_path_and_line(self, trained, tmp_path, capsys, site):
        bad = tmp_path / "bad"
        bad.write_bytes(b"first line\nsecond \xff line\n")
        model = str(trained / "recon" / "model.ckpt")
        losses = str(trained / "recon" / "train_losses.csv")
        labeled = str(trained / "labeled" / "labeled.csv")
        if site == "labeled-meta":
            labeled = str(tmp_path / "labeled.csv")
            (tmp_path / "labeled.csv").write_bytes((trained / "labeled" / "labeled.csv").read_bytes())
            bad = tmp_path / "labeled.csv.meta.json"
            bad.write_bytes(b"{\n\xff}\n")

        def detect(model=model, losses=losses, data=labeled):
            return ["detect", "--model", model, "--train-losses", losses, "--data", data]

        argv = {
            "sensor": ["ingest", "--data", str(bad)],
            "labeled": detect(data=str(bad)),
            "labeled-meta": detect(),
            "model": detect(model=str(bad)),
            "train-losses": detect(losses=str(bad)),
            "config": ["ingest", "--config", str(bad)],
            "packet-log": ["packetset", "build", "--data", str(bad)],
            "packet-score": ["packetset", "score", "--pred", str(bad), "--truth", str(bad)],
        }[site]
        capsys.readouterr()
        assert run(*argv, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad} line 2: not UTF-8 text (byte 0xff)\n"

    @pytest.mark.parametrize("site", ["labeled", "packet-log", "packet-score"])
    def test_bad_row_names_path_and_line(self, trained, tmp_path, capsys, site):
        bad = tmp_path / "bad.csv"
        if site == "labeled":
            lines = (trained / "labeled" / "labeled.csv").read_text().splitlines()
            lines[2] = "nan" + lines[2][lines[2].index(","):]
            message = "non-finite value 'nan' in column timestamp"
        else:
            lines = synth_packet_log(n_packets=5, seed=0).splitlines()
            cells = lines[2].split(",")
            cells[3] = "70000"
            lines[2] = ",".join(cells)
            message = "sport out of range: 70000"
        bad.write_text("\n".join(lines) + "\n")
        truth = tmp_path / "truth.csv"
        truth.write_text(synth_packet_log(n_packets=5, seed=0))
        argv = {
            "labeled": ["simulate", "--data", str(bad)],
            "packet-log": ["packetset", "build", "--data", str(bad)],
            "packet-score": ["packetset", "score", "--pred", str(bad), "--truth", str(truth)],
        }[site]
        capsys.readouterr()
        assert run(*argv, "--out", str(tmp_path / "o")) == 4
        assert capsys.readouterr().err == f"error: {bad}: line 3: {message}\n"

    @pytest.mark.parametrize("key", ["params", "mean", "std", "history"])
    def test_non_numeric_checkpoint_value(self, trained, tmp_path, capsys, key):
        lines = (trained / "recon" / "model.ckpt").read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(key + "="))
        if key == "params":
            at += 1
            lines[at] = "abc"
        else:
            lines[at] = re.sub(r"=[^,:]*", "=abc", lines[at], count=1)
        model = tmp_path / "model.ckpt"
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run("detect", "--model", str(model),
                   "--data", str(trained / "labeled" / "labeled.csv"),
                   "--threshold-source", "eval", "--out", str(tmp_path / "o"))
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: {model} line {at + 1}: expected a finite number, got 'abc'\n"

    @pytest.mark.parametrize("key, edit, message", [
        ("seq_len", lambda v: "0", "seq_len must be a positive integer, got 0"),
        ("learning_rate", lambda v: "nan", "learning_rate must be positive, got nan"),
        ("feature_count", lambda v: "5",
         "parameter vector must have shape ({want},), got ({got},)"),
        ("mean", lambda v: v.rsplit(",", 1)[0], "mean/std lengths must equal the feature count"),
        ("std", lambda v: "-1" + v[v.index(","):], "standard deviations must be non-negative"),
    ], ids=["seq-len-0", "learning-rate-nan", "feature-count-5", "mean-short", "std-negative"])
    def test_invalid_checkpoint_value_names_path(
        self, trained, tmp_path, capsys, key, edit, message
    ):
        source = trained / "recon" / "model.ckpt"
        lines = source.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(key + "="))
        lines[at] = f"{key}={edit(lines[at].partition('=')[2])}"
        model = tmp_path / "model.ckpt"
        model.write_text("\n".join(lines) + "\n")
        predictor = fc.load_predictor(str(source))
        want = fc.param_count(predictor.config, 5)
        message = message.format(want=want, got=predictor.params.size)
        capsys.readouterr()
        code = run("detect", "--model", str(model),
                   "--data", str(trained / "labeled" / "labeled.csv"),
                   "--threshold-source", "eval", "--out", str(tmp_path / "o"))
        assert code == 3
        assert capsys.readouterr().err == f"error: {model}: {message}\n"

    @pytest.mark.parametrize("meta", ["{bad", '{"params": {}}'])
    def test_malformed_meta_names_path(self, trained, tmp_path, capsys, meta):
        labeled = tmp_path / "labeled.csv"
        labeled.write_bytes((trained / "labeled" / "labeled.csv").read_bytes())
        (tmp_path / "labeled.csv.meta.json").write_text(meta)
        capsys.readouterr()
        assert run("simulate", "--data", str(labeled), "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {labeled}.meta.json: ")
        assert len(err.splitlines()) == 1


class TestPacketset:
    def test_build_produces_parseable_pairs(self, tmp_path):
        pairs = {}
        for records in (100, 400):
            out = tmp_path / str(records)
            assert run("packetset", "build", "--records", str(records), "--out", str(out)) == 0
            pairs[records] = len(ps.parse_dataset((out / "samples.txt").read_text()))
        want = "".join(ps.build_samples_text(synth_packet_log(n_packets=100, seed=0)))
        assert pairs[100] == len(ps.parse_dataset(want))
        assert 0 < pairs[100] < pairs[400]

    def test_build_from_file_records_input_digest(self, tmp_path):
        log = tmp_path / "packets.csv"
        log.write_text(synth_packet_log(n_packets=80, seed=2))
        out = tmp_path / "o"
        assert run("packetset", "build", "--data", str(log), "--out", str(out)) == 0
        want = hashlib.sha256(log.read_bytes()).hexdigest()
        assert manifest(str(out))["inputs"] == {"data": want}
        assert ps.parse_dataset((out / "samples.txt").read_text())

    def test_score_identity(self, tmp_path):
        log = tmp_path / "packets.csv"
        log.write_text(synth_packet_log(n_packets=80, seed=2))
        out = tmp_path / "o"
        assert run("packetset", "score", "--pred", str(log), "--truth", str(log),
                   "--out", str(out)) == 0
        text = (out / "score_report.txt").read_text()
        assert "sport: 100.00" in text
        assert "0 errors: 100.00" in text

    def test_build_defaults_golden(self, tmp_path):
        out = tmp_path / "o"
        assert run("packetset", "build", "--out", str(out)) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("samples.txt", "run_manifest.json")
        }
        assert digests == {
            "samples.txt": "6560c9cc974f8525e392188fbc2f33427d09c85ccdfaa34dac0bcc24726d93df",
            "run_manifest.json":
                "a80c1dd4c91aae6f063e175740c77acb8b7d0e5418f3f4f36aee447e8c5a6e7b",
        }


class TestWriteFailure:
    """A write that fails partway leaves no partial file and no manifest, and exits 4."""

    @pytest.mark.parametrize("fault", [
        OSError(errno.ENOSPC, "No space left on device"),
        NumericError("block 2 is not finite"),
    ], ids=["os-error", "pipeline-error"])
    def test_failed_build_leaves_no_artifact(self, tmp_path, capsys, monkeypatch, fault):
        out = tmp_path / "o"
        assert run("ingest", "--records", "50", "--out", str(out)) == 0
        build = ps.build_samples_text

        def failing(*args, **kwargs):
            blocks = build(*args, **kwargs)
            yield next(blocks)
            raise fault

        monkeypatch.setattr(ps, "build_samples_text", failing)
        capsys.readouterr()
        assert run("packetset", "build", "--records", "400", "--out", str(out)) == 4
        err = capsys.readouterr().err
        if isinstance(fault, OSError):
            assert err == f"error: cannot write {out / 'samples.txt'}: No space left on device\n"
        else:
            assert err == "error: block 2 is not finite\n"
        # The earlier run's output stays; its manifest, which no longer describes out, does not.
        assert os.listdir(out) == ["clean.csv"]

    def test_manifest_that_cannot_be_removed(self, tmp_path, capsys):
        stale = tmp_path / "o" / "run_manifest.json"
        stale.mkdir(parents=True)
        capsys.readouterr()
        assert run("ingest", "--records", "50", "--out", str(tmp_path / "o")) == 4
        assert capsys.readouterr().err == f"error: cannot remove {stale}: Is a directory\n"
        assert os.listdir(tmp_path / "o") == ["run_manifest.json"]


class TestSimulateAndSweeps:
    def test_simulate_outputs(self, tmp_path):
        out = tmp_path / "o"
        assert run("simulate", "--records", "400", "--batch-size", "32",
                   "--out", str(out)) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["batch_size"] == 32
        assert stats["records"] == 400
        assert stats["n_batches"] == 13
        assert stats["elapsed_s"] > 0
        assert stats["metrics"] is not None

    def test_batch_sweep_csv(self, tmp_path):
        out = tmp_path / "o"
        assert run("experiment", "batch-sweep", "--records", "400",
                   "--batches", "4,8,16", "--out", str(out)) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "batch_size,elapsed_s,accuracy,precision,recall,f_score"
        elapsed = [float(line.split(",")[1]) for line in lines[1:]]
        assert elapsed[0] > elapsed[1] > elapsed[2]
        metric_cells = {line.split(",", 2)[2] for line in lines[1:]}
        assert len(metric_cells) == 1

    @staticmethod
    def digests(out, names):
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}

    def test_batch_sweep_golden(self, tmp_path):
        out = tmp_path / "o"
        assert run("experiment", "batch-sweep", "--records", "3000", "--seed", "2",
                   "--out", str(out)) == 0
        assert self.digests(out, ("sweep.csv", "run_manifest.json")) == {
            "sweep.csv": "4e8e78991d1ff8467c9303dfddc8bf77ecb4d3df99a2d624738663d1ab9e7e85",
            "run_manifest.json":
                "26e559a0118be1f5c60470044bd22a0b26f8e8889201f9b21d0a1c7194df01d4",
        }

    def test_simulate_golden(self, tmp_path):
        out = tmp_path / "o"
        assert run("simulate", "--records", "3000", "--seed", "2", "--batch-size", "7",
                   "--out", str(out)) == 0
        assert len((out / "report.jsonl").read_text().splitlines()) == 307
        assert self.digests(out, ("report.jsonl", "stats.json", "run_manifest.json")) == {
            "report.jsonl": "8e78d962bcba7f0f81b77806c5be6ae9f75312cecb44d92461a03f0be0b25d9a",
            "stats.json": "83b0aecfc2ec9973b95f88f369697a3244544a24a8d4dfb6a2cd3ceb2312eb31",
            "run_manifest.json":
                "d508512d5e5c052b2001a125fcfdfdb5df636476225a52c4aa657d2e7c85fcb8",
        }

    def test_variance_sweep_csv(self, tmp_path):
        out = tmp_path / "o"
        code = run("experiment", "variance-sweep", *TINY_TRAIN,
                   "--variance-targets=-8.5,-10.0", "--out", str(out))
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "target_value,accuracy,precision,recall,f_score"
        assert len(lines) == 3
        assert lines[1].startswith("-8.5,")


GOLDEN_TRAIN = ["--records", "3000", "--seed", "2", "--seq-len", "8", "--fcn-dim", "8",
                "--epochs", "1"]


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """Every CLI recipe that writes or reads a numeric CSV, at fixed sizes."""
    root = tmp_path_factory.mktemp("golden")
    assert run("ingest", "--records", "3000", "--seed", "2", "--out", str(root / "ingest")) == 0
    assert run("inject", "--scheme", "nth", "--records", "3000", "--seed", "2",
               "--out", str(root / "inject")) == 0
    assert run("train", *GOLDEN_TRAIN, "--out", str(root / "train")) == 0
    assert run("detect", "--model", str(root / "train" / "model.ckpt"),
               "--train-losses", str(root / "train" / "train_losses.csv"),
               "--data", str(root / "inject" / "labeled.csv"),
               "--seq-len", "8", "--seed", "2", "--out", str(root / "detect")) == 0
    assert run("experiment", "nth", *GOLDEN_TRAIN, "--out", str(root / "nth")) == 0
    assert run("experiment", "variance-sweep", *GOLDEN_TRAIN,
               "--out", str(root / "variance")) == 0
    for scheme in ("poisson", "variance", "random"):
        assert run("inject", "--scheme", scheme, "--records", "3000", "--seed", "2",
                   "--out", str(root / f"inject-{scheme}")) == 0
    assert run("experiment", "poisson", *GOLDEN_TRAIN, "--out", str(root / "poisson")) == 0
    return root


class TestCsvGolden:
    """sha256 of every numeric CSV recipe; the bytes are the format contract."""

    @pytest.mark.parametrize("path, digest", [
        ("ingest/clean.csv", "c182d901f1497b85e36f505a484f389d3d4d8e65c209cfb1a5fd221e9719862f"),
        ("inject/labeled.csv", "820d58ee5d0ab22190a5a4b58cf394039c299b2bacaaa4eb4afeb29b6661fcca"),
        ("train/history.csv", "c859a89bc1eeaa0809ef9837ec84e888744c050f8b98df9818f66d204abc5ebd"),
        ("train/train_losses.csv",
         "291b8465dd41afe693fceea32687bcec7ba6c0a813e2c002d9ac592f2205d983"),
        ("train/model.ckpt", "e60a8310527661460f7f33f69f162659095cbe6666855d3b2c9fc124b35d6240"),
        ("detect/records.csv", "f618633e1a683bcc183db3f3ef061f3537439e1763f1f0e834483f73cc22d32c"),
        ("nth/labeled.csv", "17d24081fffa77657583f88a0fd07241546683604c3dd90e685e23cabb4607b1"),
        ("nth/records.csv", "83c1b4b4b9085c4e7876cd4d5cffb13ad496bfeaab80b53bff55e8897c2a82d3"),
        ("nth/metrics.json", "692055ebbf75e7e854d82134a2862b109501c62151c6e39e1b78e14c082a9e0b"),
        ("variance/sweep.csv", "47cc33bd5c4980831cdbb044715f151420ff359f0da78f590a2b954505caba76"),
        ("inject-poisson/labeled.csv",
         "289439c9a7a121ee6166fe6d52f5c50dcb1f27994c4b1f19c22a5eea988c48d4"),
        ("inject-poisson/labeled.csv.meta.json",
         "e77b4bb83ee81af8613c112dc01909f8dc27153fc25da07b7352b90623487906"),
        ("inject-variance/labeled.csv",
         "1c74c26797ad3d9cf482e5640b4c74f7fa1761e1303e0c94085a5e82c1603e81"),
        ("inject-variance/labeled.csv.meta.json",
         "dc51216b556085de4b1f11b1c922f11320cdb320ac703d8f21531767a02e2193"),
        ("inject-random/labeled.csv",
         "f31dee42e1e2460892b5c8065805455593a4a0c067fcb88841608865bc0ce672"),
        ("inject-random/labeled.csv.meta.json",
         "b92bba16afa79e7002ce126ef118c4188cccdccf307558c8ce92ba2a5c2dec87"),
        ("poisson/labeled.csv", "f11a0ba027a48547487cb2d234ffc5317d97eeaae946d73c0fcfeb97a2b2eeb6"),
        ("poisson/records.csv", "acff73efddf111af498d911f16c662d1cb8b102e745bf0af738c8e700d421f1e"),
        ("poisson/metrics.json",
         "e07b027feace72bb4fec0c16e66f98eb25b7a292c4b25b88a191120cdff6846e"),
        ("poisson/report.jsonl",
         "905fd32b83ac60a2598d23ffd998d673e697b4a2c5e22b1b29090c02973c4af3"),
        ("poisson/run_manifest.json",
         "e194b88eaa7888e401db428121a9b630100a1dfa60892c9b7e3c8e4dae3baf3b"),
    ])
    def test_artifact_digest(self, golden_runs, path, digest):
        assert hashlib.sha256((golden_runs / path).read_bytes()).hexdigest() == digest


MULTIBLOCK = ["--seed", "2", "--seq-len", "8", "--fcn-dim", "8", "--epochs", "1"]


@pytest.fixture(scope="module")
def multiblock_runs(tmp_path_factory):
    """Recipes whose full-set passes span three row blocks plus a 1-row tail.

    20,492 records leave 12,296 train records, so 12,289 = 3 * 4096 + 1
    reconstruction windows of 8 rows.  The forecaster (horizon 2) trains on
    20,496 records, and is scored on a 60% test split of 20,497 records:
    12,289 windows each time.
    """
    root = tmp_path_factory.mktemp("multiblock")
    assert BLOCK_ROWS == 4096
    assert run("train", "--records", "20492", *MULTIBLOCK, "--out", str(root / "train")) == 0
    assert run("experiment", "nth", "--records", "20492", *MULTIBLOCK,
               "--out", str(root / "nth")) == 0
    assert run("train", "--mode", "forecast", "--horizon", "2", "--records", "20496",
               *MULTIBLOCK, "--out", str(root / "fctrain")) == 0
    assert run("forecast", "--model", str(root / "fctrain" / "model.ckpt"),
               "--records", "20497", "--seed", "2", "--seq-len", "8",
               "--split-train", "0.2", "--split-val", "0.2", "--split-test", "0.6",
               "--out", str(root / "fc")) == 0
    return root


class TestMultiBlockGolden:
    """Digests taken before the forward passes were blocked; blocking keeps every bit."""

    @pytest.mark.parametrize("path, digest", [
        ("train/history.csv", "44da03c63b8dd708a9369f8d75fda4b691e0c779ae43bd2f977a892ada650d31"),
        ("train/train_losses.csv",
         "deba441f86606b314c5d63d8e5fc93c08dd67135eee9edcc037abcaefd9d42cc"),
        ("train/model.ckpt", "f676fb43e03bba174a0933cb3a78cca3e477d59936bee4dfe138108b7fd50bbf"),
        ("nth/labeled.csv", "f6c6a77d925d44e3b60b2e53a48856bec8137b36c6d2bd8e80d13e10ee684105"),
        ("nth/records.csv", "86096d7d98f16ecc5644a5897396ae67213cedda78be969605df914d6d0f3929"),
        ("nth/metrics.json", "6ed407c35c68db95c7773c5a7941b77f961ced1a7ce4038c0c9ab1731830027b"),
        ("fctrain/model.ckpt",
         "bd0af348cd9446c34d577ef46d90e911e303be4d61fe098694626755a226cf92"),
        ("fc/forecast_report.txt",
         "44f2b38dd5436a32595f06e0f2059ab8237f51e1b040596c69b59e2c34450192"),
    ])
    def test_artifact_digest(self, multiblock_runs, path, digest):
        assert hashlib.sha256((multiblock_runs / path).read_bytes()).hexdigest() == digest


class TestCheckpointWithoutHistory:
    """Checkpoint digests with the history= line left out.

    Taken while train_mse was still a full-set pass after each epoch: taking
    it from the batch losses moved that line and no other.
    """

    @pytest.mark.parametrize("runs, path, digest", [
        ("golden_runs", "train/model.ckpt",
         "c5c8456f8e17a61d2cbf4f6315fb65cd432b0315d49b1f0396f2549bfa5b8fca"),
        ("multiblock_runs", "train/model.ckpt",
         "9db81182448c21b85c39b512a48eb25deb67006bddfa8bb838dc3206ad58bd03"),
        ("multiblock_runs", "fctrain/model.ckpt",
         "c00f234f39610e66bb534d33f7cb4271e580983837022b0eb155a9b31b4fa86a"),
    ])
    def test_digest(self, request, runs, path, digest):
        lines = (request.getfixturevalue(runs) / path).read_bytes().splitlines(keepends=True)
        kept = b"".join(line for line in lines if not line.startswith(b"history="))
        assert hashlib.sha256(kept).hexdigest() == digest


class TestDeterminism:
    def test_experiment_nth_repeats_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("experiment", "nth", *TINY_TRAIN, "--seed", "4",
                       "--out", str(out)) == 0
            outs.append(out)
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestExitMessages:
    """One-line messages of bad-input paths that no other CLI test reaches."""

    def test_empty_data_file(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("")
        capsys.readouterr()
        assert run("ingest", "--data", str(data), "--out", str(tmp_path / "o")) == 4
        assert capsys.readouterr().err == (
            f"error: {data}: line 1: empty input: missing header row\n"
        )

    @pytest.mark.parametrize("text, message", [
        ("records=300\nbogus line\n", "line 2: not key=value: 'bogus line'"),
        ("# seed\nrecords=300\nseed=x\n", "line 3: bad value for seed: 'x' is not int"),
        ("nokey=1\n", "line 1: unknown config key 'nokey'"),
    ], ids=["not-key-value", "bad-value", "unknown-key"])
    def test_config_file_error_names_file_and_line(self, tmp_path, capsys, text, message):
        config = tmp_path / "run.cfg"
        config.write_text(text)
        capsys.readouterr()
        assert run("ingest", "--config", str(config), "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == f"error: {config}: {message}\n"

    def test_blank_train_loss_names_the_file(self, trained, tmp_path, capsys):
        losses = tmp_path / "losses.csv"
        losses.write_text("index,loss\n0,0.5\n1,\n")
        capsys.readouterr()
        assert run("detect", "--model", str(trained / "recon" / "model.ckpt"),
                   "--train-losses", str(losses),
                   "--data", str(trained / "labeled" / "labeled.csv"),
                   "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == (
            f"error: {losses}: line 3: column loss must not be blank\n"
        )

    def test_config_flag_error_unchanged(self, tmp_path, capsys):
        capsys.readouterr()
        assert run("ingest", "--seed", "x", "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == "error: bad value for seed: 'x' is not int\n"

    def test_removed_threshold_source(self, tmp_path, capsys):
        capsys.readouterr()
        assert run("experiment", "nth", *TINY_TRAIN, "--threshold-source", "pooled",
                   "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == "error: unknown threshold source 'pooled'\n"
        assert not (tmp_path / "o" / "labeled.csv").exists()

    def test_empty_variance_targets(self, tmp_path, capsys):
        capsys.readouterr()
        assert run("experiment", "variance-sweep", "--variance-targets=,",
                   "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == "error: variance_targets list is empty\n"
        assert not (tmp_path / "o" / "sweep.csv").exists()

    def test_zero_batch_size(self, tmp_path, capsys):
        capsys.readouterr()
        assert run("experiment", "batch-sweep", "--records", "300", "--batches", "4,0",
                   "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == "error: batch sizes must be >= 1\n"
        assert not (tmp_path / "o" / "sweep.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--perturb-mode", "bogus"], "unknown perturbation mode 'bogus'"),
        (["--sigma-k", "inf"], "offset-sigma multiplier must be finite, got inf"),
        (["--perturb-mode", "set-value", "--set-value", "nan"],
         "set-value mode needs a finite value"),
    ], ids=["mode", "sigma-k", "set-value"])
    def test_bad_perturbation(self, tmp_path, capsys, flags, message):
        capsys.readouterr()
        assert run("inject", "--scheme", "nth", "--records", "300", *flags,
                   "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o" / "labeled.csv").exists()

    def test_packet_build_without_a_window_names_the_file(self, tmp_path, capsys):
        # Three packets: no session holds the five a context of 3 needs.
        data = tmp_path / "short.csv"
        data.write_text(synth_packet_log(n_packets=3, seed=0))
        capsys.readouterr()
        assert run("packetset", "build", "--data", str(data), "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == (
            f"error: {data}: no session holds more than context + 1 = 4 packets\n"
        )
        assert os.listdir(tmp_path / "o") == []

    def test_packet_build_settings_before_parse(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("not a packet log\n")
        capsys.readouterr()
        assert run("packetset", "build", "--data", str(data), "--context", "0",
                   "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == "error: context must be positive, got 0\n"

    def test_packet_score_of_empty_files_names_pred(self, tmp_path, capsys):
        pred, truth = tmp_path / "pred.csv", tmp_path / "truth.csv"
        for path in (pred, truth):
            path.write_text(ps.PACKET_HEADER + "\n")
        capsys.readouterr()
        assert run("packetset", "score", "--pred", str(pred), "--truth", str(truth),
                   "--out", str(tmp_path / "o")) == 4
        assert capsys.readouterr().err == (
            f"error: {pred}: cannot score an empty prediction list\n"
        )

    def test_packet_score_count_mismatch_names_pred(self, tmp_path, capsys):
        pred, truth = tmp_path / "pred.csv", tmp_path / "truth.csv"
        pred.write_text(synth_packet_log(n_packets=3, seed=0))
        truth.write_text(synth_packet_log(n_packets=4, seed=0))
        capsys.readouterr()
        assert run("packetset", "score", "--pred", str(pred), "--truth", str(truth),
                   "--out", str(tmp_path / "o")) == 4
        assert capsys.readouterr().err == (
            f"error: {pred}: prediction count 3 does not match truth count 4\n"
        )

    def test_fractional_timestamp(self, tmp_path, capsys):
        data = tmp_path / "mission.csv"
        rows = [
            f"{ts},0.1,0.0,0.0,4000,0,0.0,0.0,-9.8,4000,0"
            for ts in ("212000", "216000", "220000.5", "224000")
        ]
        data.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
        capsys.readouterr()
        assert run("ingest", "--data", str(data), "--out", str(tmp_path / "o")) == 4
        assert capsys.readouterr().err == (
            f"error: {data}: line 4: column timestamp must be an integer, got '220000.5'\n"
        )

    def test_unknown_norm_scope(self, tmp_path, capsys):
        capsys.readouterr()
        assert run("train", *TINY_TRAIN, "--norm-scope", "bogus",
                   "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == "error: unknown norm_scope 'bogus'\n"
        assert not (tmp_path / "o" / "model.ckpt").exists()

    @pytest.mark.parametrize("edit, message", [
        ("no-params", "checkpoint is missing its parameter block"),
        ("bad-seq-len",
         "malformed checkpoint header: invalid literal for int() with base 10: 'x'"),
        ("no-mean", "checkpoint has norm= but no mean= line"),
    ])
    def test_bad_checkpoint_names_path(self, trained, tmp_path, capsys, edit, message):
        lines = (trained / "recon" / "model.ckpt").read_text().splitlines()
        if edit == "no-params":
            lines = [line for line in lines if not line.startswith("params=")]
        elif edit == "bad-seq-len":
            lines = ["seq_len=x" if line.startswith("seq_len=") else line for line in lines]
        else:
            lines = [line for line in lines if not line.startswith("mean=")]
        model = tmp_path / "model.ckpt"
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("forecast", "--model", str(model), "--records", "200",
                   "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == f"error: {model}: {message}\n"
        assert not (tmp_path / "o" / "forecast_report.txt").exists()

    @pytest.mark.parametrize("argv, message", [
        (["ingest", "--noise-level", "inf"], f"{NOISE_LEVEL} inf"),
        (["ingest", "--noise-level", "nan"], f"{NOISE_LEVEL} nan"),
        (["packetset", "build", "--session-timeout-s", "nan"],
         "idle_timeout_s must be positive, got nan"),
        (["simulate", "--latency-c", "1e308"], CLOCK_OVERFLOW),
        (["experiment", "batch-sweep", "--latency-c", "1e308"], CLOCK_OVERFLOW),
    ], ids=["noise-inf", "noise-nan", "timeout-nan", "simulate-clock", "sweep-clock"])
    def test_non_finite_config_number(self, tmp_path, capsys, argv, message):
        capsys.readouterr()
        assert run(*argv, "--records", "300", "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path / "o") == []

    @pytest.mark.parametrize("command, model, message", [
        (["detect", "--data", "labeled/labeled.csv"], "recon",
         "predictor produced non-finite losses"),
        (["forecast", "--records", "600"], "fc", "forecast produced non-finite errors"),
    ], ids=["detect", "forecast"])
    def test_overflowing_checkpoint_names_path(
        self, trained, tmp_path, capsys, command, model, message
    ):
        # Every weight finite, but 1e300 overflows the forward pass.
        lines = (trained / model / "model.ckpt").read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("params=")) + 1
        path = tmp_path / "model.ckpt"
        path.write_text("\n".join(lines[:start] + ["1e300"] * (len(lines) - start)) + "\n")
        argv = [str(trained / a) if a.endswith(".csv") else a for a in command]
        capsys.readouterr()
        assert run(*argv, "--model", str(path), "--out", str(tmp_path / "o")) == 4
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert os.listdir(tmp_path / "o") == []

    def test_forecast_with_reconstruction_checkpoint(self, trained, tmp_path):
        out = tmp_path / "o"
        assert run("forecast", "--model", str(trained / "recon" / "model.ckpt"),
                   "--records", "600", "--out", str(out)) == 0
        assert manifest(str(out))["outputs"] == ["forecast_report.txt"]
        text = (out / "forecast_report.txt").read_text()
        assert text.startswith("mse: ") and "persistence_mse: " in text
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2c8e068bbc2b827508b30ab44e582c79551149d17ea0a5dd668901ffcd7ea589"
        )


def blank_cells(text):
    """A sensor CSV with blank sensor cells: one at a time, two adjacent in a
    row, two adjacent in a column, and one in the last row."""
    lines = text.splitlines()
    for r in range(1, len(lines)):
        cells = lines[r].split(",")
        if r % 11 == 5:
            cells[(1, 2, 3, 6, 7, 8)[r % 6]] = ""
        if r % 13 == 7:
            cells[1] = cells[2] = ""
        if r % 97 in (40, 41):
            cells[8] = ""
        if r == len(lines) - 1:
            cells[3] = ""
        lines[r] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def blank_runs(tmp_path_factory):
    """The CLI recipes that impute, run on a --data CSV with blank sensor cells."""
    root = tmp_path_factory.mktemp("blank")
    assert run("ingest", "--records", "3000", "--seed", "2", "--out", str(root / "clean")) == 0
    data = root / "blank.csv"
    data.write_text(blank_cells((root / "clean" / "clean.csv").read_text()))
    for policy in ("linear", "forward-fill"):
        assert run("ingest", "--data", str(data), "--impute-policy", policy,
                   "--out", str(root / f"ingest-{policy}")) == 0
    assert run("experiment", "nth", "--data", str(data), *GOLDEN_TRAIN,
               "--out", str(root / "nth")) == 0
    return root


class TestBlankCellGolden:
    """sha256 of the recipes that fill blank cells, read from a file."""

    def test_input_has_blank_cells(self, blank_runs):
        text = (blank_runs / "blank.csv").read_text()
        assert ",," in text and ",,," in text
        assert load_sensor_csv(str(blank_runs / "blank.csv")).has_missing()

    @pytest.mark.parametrize("path, digest", [
        ("ingest-linear/clean.csv",
         "2862a0031bf7ed5ad2be04cf7c6ea2c318a9e92c7f5d2c71199dd6cc9222d452"),
        ("ingest-linear/run_manifest.json",
         "d356038793022c6df310320ae92d7fe0a616e6b27bf7780cf1e0fa01d3ab4001"),
        ("ingest-forward-fill/clean.csv",
         "dfba098247c1bf1509f72527fec7c810aa286785eb4ba849fa458c89e250df5a"),
        ("ingest-forward-fill/run_manifest.json",
         "cfbcdfc7cb9a298cf92588fb00f9c2c023e9eb579bd6694cf7020fd56f84da51"),
        ("nth/labeled.csv",
         "90b83935629b5bc9f96f0dc0d11a01e82074e77d0f2f86729124ed0a56770da3"),
        ("nth/records.csv",
         "4ae77415f0149b4fa30cb636a106b0482cbec5579181f9514085fb14804ca811"),
        ("nth/metrics.json",
         "36c00a9f308549d375e0fdb13fb4503d5815617fc7f7e614a387b1c3fb591f6c"),
        ("nth/report.jsonl",
         "a3c38f9f719d457e0cdfd8953f06abb17a79211df39af4922b6eb2a3796a5536"),
        ("nth/run_manifest.json",
         "fd6d35af763270247ab6635a8ad6da67bddd5fa97f3619358ed960f8d6c751e9"),
    ])
    def test_artifact_digest(self, blank_runs, path, digest):
        assert hashlib.sha256((blank_runs / path).read_bytes()).hexdigest() == digest
