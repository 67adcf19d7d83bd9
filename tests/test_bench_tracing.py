"""The benchmark's tracer (``bench/tracing.py``) finds every lookup site it
patches, and a small pipeline reaches each of them, so a refactor that
renames a site or moves a call away from it fails here instead of silently
blanking that layer's metrics."""

import collections
import importlib
import importlib.util
import json
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


def test_small_pipeline_reaches_every_lookup_site(tmp_path):
    # A moved call leaves its site in place but never reached; count each
    # site's calls on top of the tracer's own wrapper.  One eval instance
    # keeps the detection runs serial, so their spans stay in process.
    tracing = _load_tracing()
    modules = {m: importlib.import_module(f"qaoa_mimo.{m}") for m in PROGRAM_MODULES}
    cli = modules["cli"]
    configs, out = tmp_path / "configs", tmp_path / "out"
    configs.mkdir()
    out.mkdir()

    def config(name, **fields):
        path = configs / name
        path.write_text(json.dumps(fields))
        return str(path)

    train, evals, init = str(out / "train.jsonl"), str(out / "eval.jsonl"), str(out / "init.json")
    runs = [
        ["gen-instances", "--config", config("gt.json", count=3, n_t=2, seed=1, out=train)],
        ["gen-instances", "--config", config("ge.json", count=1, n_t=2, seed=2, out=evals)],
        ["train-init", "--config", config("t.json", instances=train, p=1, t_rounds=2,
                                          n_init=2, seed=3, out=init)],
        ["detect", "--config", config("d.json", instances=evals, p=1, budget=5, seed=4,
                                      out=str(out / "reports.jsonl"))],
        ["compare", "--config", config("c.json", instances=evals, init=init, p=1, budget=5,
                                       seed=5, out=str(out / "compare"))],
    ]
    tracer = tracing.Tracer()
    calls = collections.Counter()
    with tracing.installed(tracer, modules):
        named = [(module, attr) for module, attr, name, _ in tracing.sites(modules) if name]
        wrappers = [(module, attr, getattr(module, attr)) for module, attr in named]
        for module, attr, wrapper in wrappers:
            setattr(module, attr, _counted(wrapper, calls, f"{module.__name__}.{attr}"))
        try:
            codes = [cli.main(argv) for argv in runs]
        finally:
            for module, attr, wrapper in wrappers:
                setattr(module, attr, wrapper)
    assert codes == [0] * len(runs)
    assert [f"{m.__name__}.{a}" for m, a in named if not calls[f"{m.__name__}.{a}"]] == []
    table, _ = tracer.summary()
    assert {name for _, _, name, _ in tracing.sites(modules) if name} <= set(table)
    written = [path for path in out.rglob("*") if path.suffix in (".json", ".jsonl")]
    assert len(written) == 6
    assert tracer.counts["jsonio.bytes_written"] == sum(path.stat().st_size for path in written)


def _counted(fn, calls, key):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper
