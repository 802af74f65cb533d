"""The benchmark tracer wraps names in uavloop; renaming one must fail here."""

import importlib.util
import os

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
