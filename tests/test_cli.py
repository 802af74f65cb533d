import json
import os

import pytest

from uavloop import packetset as ps
from uavloop.cli import main
from uavloop.synthetic import synth_packet_log
from uavloop.telemetry import load_sensor_csv

TINY_TRAIN = ["--records", "600", "--seq-len", "8", "--fcn-dim", "8", "--epochs", "1"]


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
        cfg.write_text("records=300\nseed=3\n")
        out = tmp_path / "o"
        assert run("ingest", "--config", str(cfg), "--records", "120", "--out", str(out)) == 0
        m = manifest(str(out))
        assert m["config"]["records"] == 120
        assert m["config"]["seed"] == 3

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

    def test_forecast_checkpoint_rejected(self, trained, tmp_path, capsys):
        code = run("detect", "--model", str(trained / "fc" / "model.ckpt"),
                   "--data", str(trained / "labeled" / "labeled.csv"),
                   "--threshold-source", "eval", "--out", str(tmp_path / "o"))
        assert code == 3
        assert "needs a reconstruction predictor" in capsys.readouterr().err


class TestPacketset:
    def test_build_produces_parseable_pairs(self, tmp_path):
        out = tmp_path / "o"
        assert run("packetset", "build", "--records", "100", "--out", str(out)) == 0
        samples = ps.parse_dataset((out / "samples.txt").read_text())
        assert len(samples) > 50

    def test_score_identity(self, tmp_path):
        log = tmp_path / "packets.csv"
        log.write_text(synth_packet_log(n_packets=80, seed=2))
        out = tmp_path / "o"
        assert run("packetset", "score", "--pred", str(log), "--truth", str(log),
                   "--out", str(out)) == 0
        text = (out / "score_report.txt").read_text()
        assert "sport: 100.00" in text
        assert "0 errors: 100.00" in text


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

    def test_variance_sweep_csv(self, tmp_path):
        out = tmp_path / "o"
        code = run("experiment", "variance-sweep", *TINY_TRAIN,
                   "--variance-targets=-8.5,-10.0", "--out", str(out))
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "target_value,accuracy,precision,recall,f_score"
        assert len(lines) == 3
        assert lines[1].startswith("-8.5,")


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
