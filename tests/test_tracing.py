"""The benchmark tracer wraps names in uavloop and reads what they return.

Renaming a wrapped name, or changing a result its count functions read,
must fail here.
"""

import importlib.util
import os

from uavloop.cli import main

_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_attribute():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert len(patched) == len(tracing._targets())
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def test_traced_experiment_records_counts_and_spans(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    argv = ["experiment", "nth", "--records", "2000", "--epochs", "1", "--seq-len", "8",
            "--fcn-dim", "16", "--seed", "4", "--out", str(tmp_path / "o")]
    tracer.install()
    try:
        code = main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counts[(None, "telemetry.window_mb")] > 0
    assert "detect.record_losses" in {span[0] for span in tracer.spans}
