"""Benchmark runner for the qaoa-mimo CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload protocol --seed 1 --seconds 60 --trace 0

A single runner process runs the CLI stages of a workload as
subprocesses, one at a time (a closed loop with one client).  With
``--trace 0`` it sets up the instance files several times, then repeats
the train and detect stages until ``--seconds`` would be exceeded, and
reports the end-to-end metrics as medians over those repeats.  With
``--trace 1`` it runs every stage inside the runner's own process
through ``qaoa_mimo.cli.main``, once plain and once with span wrappers around the
layers, and reports per-layer metrics.  Outputs are checked against the
benchmark's own reference code outside the timed region.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import gzip
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, resolve  # noqa: E402

SETUP_REPEATS = 3
# Every process is killed once the run is this old, so the run ends in time.
DEADLINE_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "detect_s": "s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PROGRAM_MODULES = ("cli", "simulator", "bayesopt", "warmstart", "localopt", "instances", "jsonio")


class Run:
    """One benchmark run: its work directory, operation tally and stage runners."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(root, ".bench_work", f"{workload.name}-{seed}-{os.getpid()}")
        self.start = perf_counter()
        self.attempted = 0
        self.problems = []  # one string per failed operation
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.env.pop("QAOA_MIMO_MAX_QUBITS", None)
        self._configs = 0
        self.outputs_sha256 = None  # digest of one pass's instance and result files
        self.samples = {}  # every timed repeat behind a median

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def op(self, problems, what):
        """Tally one operation; it failed if ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.problems.append(f"{what}: {problems[0]}")

    def write_config(self, stage, inputs_dir, out_dir):
        self._configs += 1
        path = self.path("conf", f"{self._configs:03d}-{stage.mode}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(resolve(stage.config, inputs_dir, out_dir), fh)
        return path

    def run_process(self, stage, inputs_dir, out_dir):
        """Run one stage as a CLI process; returns (wall_s, max RSS in MB)."""
        config = self.write_config(stage, inputs_dir, out_dir)
        log = config[:-5] + ".log"
        cmd = [sys.executable, "-m", "qaoa_mimo.cli", stage.mode, "--config", config]
        with open(log, "w") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, cwd=out_dir, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(max(1.0, self.start + DEADLINE_S - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = perf_counter() - start
            finally:
                killer.cancel()
                killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}: {_tail(log)}"]
        self.op(problems, f"{stage.mode} process")
        return wall, usage.ru_maxrss / 1024.0

    def run_in_process(self, cli, stage, inputs_dir, out_dir):
        """Run one stage through ``cli.main`` in this process; returns wall_s."""
        config = self.write_config(stage, inputs_dir, out_dir)
        sink = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main([stage.mode, "--config", config])
        except Exception as exc:  # a crash is one failed operation, not a lost run
            code = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - start
        self.op([] if code == 0 else [f"exit {code}: {sink.getvalue()[-300:]}"],
                f"{stage.mode} call")
        return wall

    # -- output checks (never timed) ---------------------------------------

    def check_pass(self, inputs_dir, out_dir, refs):
        """Check one pass's outputs; returns its report rows."""
        wl = self.workload
        records = {}
        for stage in wl.stages_of("setup"):
            name = os.path.basename(stage.config["out"])
            for rec in checks.read_jsonl(os.path.join(inputs_dir, name)):
                records.setdefault(name, []).append(rec)
        detect_cfg = wl.stages_of("detect")[0].config
        detect_name = os.path.basename(detect_cfg["instances"])
        train_name = next(
            (os.path.basename(s.config["instances"]) for s in wl.stages_of("train")), None)
        box = checks.angle_box(detect_cfg["p"], detect_cfg["gamma_max"], detect_cfg["beta_max"])
        for rec in records[detect_name] + records.get(train_name, []):
            if rec["seed"] not in refs:
                refs[rec["seed"]] = checks.Reference(rec)

        if wl.init is not None:
            init_path = os.path.join(out_dir, wl.init)
            if os.path.exists(init_path):
                with open(init_path) as fh:
                    init = json.load(fh)
                train_refs = [refs[r["seed"]] for r in records[train_name]]
                self.op(checks.check_init(init, train_refs), "init.json")
            else:
                self.op(["missing"], "init.json")

        expected = len(wl.methods) * len(records[detect_name])
        path = os.path.join(out_dir, wl.reports)
        rows = checks.read_jsonl(path) if os.path.exists(path) else []
        for row in rows[:expected]:
            ref = refs.get(row.get("instance_seed"))
            try:
                problems = ["unknown instance_seed"] if ref is None else checks.check_row(
                    row, ref, detect_cfg["budget"], box)
            except (KeyError, TypeError, ValueError) as exc:
                problems = [f"malformed row: {type(exc).__name__}: {exc}"]
            self.op(problems, f"report row {row.get('method')} {row.get('instance_seed')}")
        for _ in range(len(rows), expected):
            self.op(["missing"], "report row")
        if len(rows) > expected:
            self.op([f"{len(rows) - expected} unexpected rows"], "reports file")
        return rows

    def check_same_outputs(self, dirs, what):
        """Reruns of one commit and seed must give byte-identical files."""
        digests = [checks.tree_digest([d]) for d in dirs]
        for d, digest in zip(dirs[1:], digests[1:]):
            self.op([] if digest == digests[0] else ["output digest differs from the first"],
                    f"{what} {os.path.basename(d)}")


def _tail(path, size=300):
    with open(path) as fh:
        return fh.read()[-size:].strip()


def _median(values):
    return statistics.median(values) if values else 0.0


def run_untraced(run, seconds):
    wl = run.workload
    setup_dirs, setup_walls, rss = [], [], []
    for rep in range(SETUP_REPEATS):
        d = run.path(f"setup-{rep}")
        os.makedirs(d)
        walls = [run.run_process(stage, d, d) for stage in wl.stages_of("setup")]
        setup_walls.append(sum(w for w, _ in walls))
        rss += [m for _, m in walls]
        setup_dirs.append(d)
    inputs = setup_dirs[0]

    pass_dirs, train_walls, detect_walls = [], [], []
    while True:
        d = run.path(f"pass-{len(pass_dirs)}")
        os.makedirs(d)
        pass_start = perf_counter()
        train = [run.run_process(s, inputs, d) for s in wl.stages_of("train")]
        detect = [run.run_process(s, inputs, d) for s in wl.stages_of("detect")]
        pass_wall = perf_counter() - pass_start
        train_walls.append(sum(w for w, _ in train))
        detect_walls.append(sum(w for w, _ in detect))
        rss += [m for _, m in train + detect]
        pass_dirs.append(d)
        if perf_counter() - run.start + pass_wall > seconds:
            break

    refs = {}
    rows = [run.check_pass(inputs, d, refs) for d in pass_dirs][0]
    run.check_same_outputs(setup_dirs, "setup")
    run.check_same_outputs(pass_dirs, "pass")
    run.outputs_sha256 = checks.tree_digest([inputs, pass_dirs[0]])

    detect_s = _median(detect_walls)
    metrics = {
        "setup_s": _median(setup_walls),
        "pipeline_s": _median([t + d for t, d in zip(train_walls, detect_walls)]),
        "detect_s": detect_s,
        "evals_per_s": sum(r.get("n_evaluations", 0) for r in rows) / detect_s,
        "peak_rss_mb": max(rss),
    }
    run.samples = {"setup_s": setup_walls, "train_s": train_walls, "detect_s": detect_walls}
    extra = {"passes": (len(pass_dirs), "count")}
    if wl.stages_of("train"):
        extra["train_s"] = (_median(train_walls), "s")
    extra.update(_quality(run, pass_dirs[0], rows, refs))
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, extra


def _quality(run, out_dir, rows, refs):
    """Result quality, exact for a seed: the program's own summary figures
    and ``approx_ratio``, the mean best_value / ground energy (1 = ground
    state), over the rows of the workload's first start method."""
    wl = run.workload
    good = [r for r in rows if "error" not in r and r.get("method") == wl.methods[0]
            and r.get("instance_seed") in refs]
    if not good:
        return {}
    ratios = [r["best_value"] / refs[r["instance_seed"]].ground_energy() for r in good]
    same = sum(a == b for r in good for a, b in zip(r["decoded_symbols"], r["bruteforce_symbols"]))
    figures = {
        "approx_ratio": (statistics.fmean(ratios), "ratio"),
        "symbol_agreement": (same / sum(len(r["bruteforce_symbols"]) for r in good), "ratio"),
        "success_rate": (statistics.fmean(bool(r["success"]) for r in good), "ratio"),
        "solution_prob": (statistics.fmean(r["solution_probability"] for r in good), "ratio"),
    }
    if wl.summary is not None and os.path.exists(os.path.join(out_dir, wl.summary)):
        with open(os.path.join(out_dir, wl.summary)) as fh:
            figures["trained_better_frac"] = (json.load(fh)["fraction_trained_better"], "ratio")
    if wl.init is not None and os.path.exists(os.path.join(out_dir, wl.init)):
        with open(os.path.join(out_dir, wl.init)) as fh:
            figures["train_objective"] = (json.load(fh)["training_meta"]["final_objective"], "energy")
    return figures


def run_traced(run):
    wl = run.workload
    os.environ.pop("QAOA_MIMO_MAX_QUBITS", None)  # as for the CLI processes
    sys.path.insert(0, run.src)
    modules = {m: importlib.import_module(f"qaoa_mimo.{m}") for m in PROGRAM_MODULES}
    cli = modules["cli"]

    def one_pass(name, tracer=None):
        d = run.path(name)
        os.makedirs(d)
        walls, unaccounted = {}, {}
        for stage in wl.stages:
            first = len(tracer.spans) if tracer else 0
            wall = run.run_in_process(cli, stage, d, d)
            walls[stage.kind] = walls.get(stage.kind, 0.0) + wall
            if tracer:
                _, top = tracer.summary(first)
                unaccounted[stage.kind] = unaccounted.get(stage.kind, 0.0) + wall - top
        return d, walls, unaccounted

    plain_dir, plain_walls, _ = one_pass("plain")
    tracer = tracing.Tracer()
    with tracing.installed(tracer, modules):
        traced_dir, traced_walls, unaccounted = one_pass("traced", tracer)

    refs = {}
    for d in (plain_dir, traced_dir):
        rows = run.check_pass(d, d, refs)
    run.check_same_outputs([plain_dir, traced_dir], "traced outputs")

    table, _ = tracer.summary()
    n_detected = len({r.get("instance_seed") for r in rows})
    metrics = tracing.layer_metrics(table, tracer.counts, n_detected)
    metrics["trace.overhead_frac"] = (
        sum(traced_walls.values()) / sum(plain_walls.values()) - 1.0, "ratio")
    for kind in ("setup", "train", "detect"):
        share = unaccounted[kind] / traced_walls[kind] if kind in traced_walls else 0.0
        metrics[f"trace.{kind}.unaccounted_frac"] = (share, "ratio")
    extra = {f"stage.{k}.plain_s": (v, "s") for k, v in plain_walls.items()}
    _write_spans(run, tracer)
    if tracer.missing:
        print("trace: lookup sites not found: " + ", ".join(tracer.missing))
    return metrics, extra


def _write_spans(run, tracer):
    out = os.path.join(run.root, ".bench_results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spans-{run.workload.name}-{run.seed}.jsonl.gz")
    with gzip.open(path, "wt") as fh:
        for name, start, end, parent in tracer.spans:
            fh.write(f'["{name}",{start!r},{end!r},{parent}]\n')


def provenance(run, trace):
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    commit = None
    if os.path.isdir(os.path.join(run.root, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=run.root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "trace": trace,
        "git_commit": commit,
        "source_sha256": checks.tree_digest([os.path.join(run.src, "qaoa_mimo")]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "qubit_cap": _qubit_cap(run.src),
    }


def _qubit_cap(src):
    sys.path.insert(0, src)
    simulator = importlib.import_module("qaoa_mimo.simulator")
    return getattr(simulator, "DEFAULT_QUBIT_CAP", None)


def _check_names(root, kind, metrics):
    """The emitted metrics must be exactly the ones BENCHMARK.json declares."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if declared != emitted:
        raise SystemExit(f"bench: metrics differ from BENCHMARK.json {kind}: "
                         f"{sorted(set(declared.items()) ^ set(emitted.items()))}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qaoa_mimo", "cli.py")):
        print("bench: src/qaoa_mimo not found; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    run = Run(root, WORKLOADS[args.workload](args.seed), args.seed)
    os.makedirs(run.work)
    try:
        if args.trace:
            metrics, extra = run_traced(run)
        else:
            metrics, extra = run_untraced(run, args.seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    _check_names(root, "per_layer" if args.trace else "end_to_end", metrics)
    failed = len(run.problems)
    for problem in run.problems[:20]:
        print(f"FAILED {problem}")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / run.attempted:.6g} ratio ({failed}/{run.attempted})")
    if run.outputs_sha256:
        print(f"outputs_sha256 = {run.outputs_sha256}")
    info = provenance(run, args.trace)
    print(json.dumps({"provenance": info}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results_dir = os.path.join(root, ".bench_results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{run.workload.name}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(dict(result, provenance=info, extra=extra,
                       outputs_sha256=run.outputs_sha256, samples=run.samples), fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
