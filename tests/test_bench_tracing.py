"""The benchmark's tracer (``bench/tracing.py``) finds every lookup site it
patches, so a refactor that renames or moves one of them fails here
instead of silently blanking that layer's metrics."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the modules bench/run.py traces
PROGRAM_MODULES = ("cli", "simulator", "bayesopt", "warmstart", "localopt", "instances", "jsonio")


def _load_tracing():
    path = os.path.join(ROOT, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_lookup_site_exists():
    tracing = _load_tracing()
    modules = {m: importlib.import_module(f"qaoa_mimo.{m}") for m in PROGRAM_MODULES}
    tracer = tracing.Tracer()
    with tracing.installed(tracer, modules):
        pass
    assert tracer.missing == []
