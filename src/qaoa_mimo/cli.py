"""Command-line experiment harness.

Modes: ``gen-instances`` (seeded instance file), ``train-init``
(warm-start angle training), ``detect`` (per-instance refinement and
readout), ``compare`` (paired trained-vs-random runs with curve and
summary files), and ``selftest`` (quick internal consistency battery).

Each mode reads the keys of its table in KEYS, checked before any file is
opened; a null key takes its default and any other key is a config error.
Every output is a pure function of the config file plus the master seed;
records are JSON-lines, curves are CSV, and floats are written as their
shortest round-trip repr, so reruns are byte-identical.

``detect`` and ``compare`` run their instances in parallel: one forked
worker process per CPU in the process's affinity mask, at most one per
instance, each task one instance with all its methods; the simulator
runs on each worker's one thread.  Rows are written in file order, so the
output bytes do not depend on the worker count.
"""

import argparse
import json
import math
import os
import sys
from collections import namedtuple

import numpy as np

from . import localopt
from .bayesopt import DEFAULT_KAPPA, SquaredExponentialKernel, bayes_opt, gp_fit, gp_predict
from .closed_form import depth1_expectation
from .errors import ObjectiveEvaluationError, ResourceLimitError
from .instances import brute_force_detect, generate_instance, ml_objective, read_instances
from .instances import write_instances
from .ising import build_ising, index_to_bitstring, index_to_spins, ising_energy, spins_to_index
from .jsonio import SCHEMA_VERSION, dump_line, dumps, format_float, strict_float, strict_int
from .rng import MAX_ABS_NORMAL, STREAM_ANTENNA_CHOICE, STREAM_INSTANCE_SEEDS
from .rng import STREAM_RANDOM_INIT, substream
from .simulator import hamiltonian_diagonal, qaoa_state, success_probability
from .simulator import expectation as simulator_expectation
from .warmstart import DEFAULT_BETA_MAX, DEFAULT_GAMMA_MAX, DEFAULT_TRAIN_N_INIT, angle_bounds
from .warmstart import read_init_params, train_init, write_init_params

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_PARTIAL = 3

# gen-instances refuses a file of more generated values than this (channel,
# symbol, noise and received entries, summed over instances): 2^26 values
# are about 1.3 GB of JSON.  Checked before anything is allocated.
MAX_GENERATED_VALUES = 1 << 26

TRAINED_INIT = "trained-init"
RANDOM_INIT = "random-init"


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


class WorkerError(Exception):
    """A worker process running detection tasks died before returning."""


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.loads(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return config


def _path(value):
    """A non-empty string: true or 1 would be opened as a file descriptor."""
    if not value or not isinstance(value, str):
        raise ValueError(f"{value!r} is not a path")
    return value


def _input_path(value):
    if not os.path.exists(_path(value)):
        raise FileNotFoundError(value)
    return value


def _int_choices(value):
    choices = [strict_int(v) for v in (value if isinstance(value, list) else [value])]
    if not choices or min(choices) < 1:
        raise ValueError(f"{value!r} is not an int >= 1 or a non-empty list of them")
    return choices


# A config key's converter, its default (REQUIRED if none) and its least value.
Key = namedtuple("Key", "convert default minimum", defaults=(None,))
REQUIRED = object()
_SEED, _INIT = Key(strict_int, REQUIRED, 0), Key(_input_path, None)  # no init: random starts
_OUTPUT = {"seed": _SEED, "out": Key(_path, REQUIRED)}
_ANGLES = {**_OUTPUT, "instances": Key(_input_path, REQUIRED), "p": Key(strict_int, REQUIRED, 1),
           "gamma_max": Key(strict_float, DEFAULT_GAMMA_MAX, 0.0),
           "beta_max": Key(strict_float, DEFAULT_BETA_MAX, 0.0)}
_DETECTION = {**_ANGLES, "init": _INIT, "budget": Key(strict_int, localopt.DEFAULT_BUDGET, 1),
              "top_k": Key(strict_int, 8, 1),
              "tol": Key(strict_float, localopt.DEFAULT_TOL)}  # range: check_tol
# Each mode's keys; any other key is a config error.  No n_r means n_r = n_t.
KEYS = {
    "gen-instances": {**_OUTPUT, "count": Key(strict_int, REQUIRED, 1),
                      "n_t": Key(_int_choices, REQUIRED), "n_r": Key(strict_int, None, 1),
                      "noise_scale": Key(strict_float, 1.0, 0.0)},
    "train-init": {**_ANGLES, "t_rounds": Key(strict_int, REQUIRED, 1),
                   "kappa": Key(strict_float, DEFAULT_KAPPA, 0.0),
                   "n_init": Key(strict_int, DEFAULT_TRAIN_N_INIT, 1)},
    "detect": _DETECTION,
    "compare": {**_DETECTION, "init": _INIT._replace(default=REQUIRED)},
    "selftest": {"seed": _SEED._replace(default=0)},
}


def _checked(config, keys):
    """``config``'s values under the table ``keys``, as attributes; a missing or null
    key takes its default.  Raises ConfigError for a key outside the table, a missing
    required key and a value that its converter refuses or that is below its minimum."""
    for key in config:
        if key not in keys:
            import difflib  # on this error path only, so a valid run never loads it

            close = difflib.get_close_matches(key, keys, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise ConfigError(f"unknown config key {key!r}{hint}")
    settings = argparse.Namespace()
    for key, (convert, default, minimum) in keys.items():
        value = config.get(key)
        if value is None:
            if default is REQUIRED:
                raise ConfigError(f"config is missing required key {key!r}")
            value = default
        else:
            try:
                value = convert(value)
            except FileNotFoundError:
                raise ConfigError(f"config path {key!r} does not exist: {value}") from None
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {key!r} has invalid value {value!r}") from exc
            if minimum is not None and value < minimum:
                raise ConfigError(f"config key {key!r} must be >= {minimum}, got {value}")
        setattr(settings, key, value)
    return settings


def cmd_gen_instances(settings):
    choices, n_r, noise_scale = settings.n_t, settings.n_r, settings.noise_scale
    # worst case over the n_t choices: h, x_true, noise and y of one instance
    per_instance = max(nt * nr + nt + 2 * nr for nt in choices for nr in [n_r or nt])
    if settings.count * per_instance > MAX_GENERATED_VALUES:
        raise ConfigError(
            f"{settings.count} instances of up to {per_instance} values each exceed "
            f"the cap of {MAX_GENERATED_VALUES} generated values"
        )
    # |h| and |noise| / noise_scale are at most MAX_ABS_NORMAL, so ||y - H x||^2
    # and every energy term build_ising forms are at most
    # n_r * (MAX_ABS_NORMAL * (2 n_t + noise_scale))^2; keep 4 times that finite
    widest = max(choices)
    largest = math.sqrt(sys.float_info.max / (4 * (n_r or widest))) / MAX_ABS_NORMAL - 2 * widest
    if noise_scale > largest:
        raise ConfigError(
            f"noise_scale {noise_scale} exceeds {largest:.6g}, above which the "
            f"energies of instances with n_t = {widest} can overflow float64"
        )

    seeds = substream(settings.seed, STREAM_INSTANCE_SEEDS).integers(0, 2**63, size=settings.count)
    picks = substream(settings.seed, STREAM_ANTENNA_CHOICE).integers(0, len(choices), size=settings.count)
    instances = []
    for inst_seed, pick in zip(seeds, picks):
        nt = choices[int(pick)]
        instances.append(generate_instance(nt, n_r or nt, noise_scale, int(inst_seed)))
    write_instances(settings.out, instances)
    print(f"wrote {settings.count} instances to {settings.out}")
    return EXIT_OK


def cmd_train_init(settings):
    instances = read_instances(settings.instances)
    init = train_init(
        instances, p=settings.p, t_rounds=settings.t_rounds, kappa=settings.kappa,
        seed=settings.seed, n_init=settings.n_init,
        bounds=angle_bounds(settings.p, settings.gamma_max, settings.beta_max),
    )
    write_init_params(settings.out, init)
    print(
        f"trained {2 * settings.p} angles on {len(instances)} instances; "
        f"ensemble objective {format_float(init.training_meta['final_objective'])}"
    )
    return EXIT_OK


def _error_row(inst, method, exc):
    return {
        "schema_version": SCHEMA_VERSION,
        "instance_seed": inst.seed,
        "n_t": inst.n_t,
        "method": method,
        "error": f"{type(exc).__name__}: {exc}",
    }


def _top_indices(probs, k):
    """The first k entries of np.argsort(-probs, kind="stable"): the k largest
    probabilities, largest first, ties by index, without sorting all of probs."""
    k = min(k, probs.size)
    kth = np.partition(probs, probs.size - k)[probs.size - k]
    candidates = np.flatnonzero(probs >= kth)  # ascending, so ties keep index order
    return candidates[np.argsort(-probs[candidates], kind="stable")[:k]]


def _run_detection(inst, model, oracle, theta0, method, settings):
    """Refine angles on one instance; return its report and recorded costs."""
    trace = localopt.minimize(
        lambda theta: simulator_expectation(model, theta), theta0,
        bounds=settings.bounds, budget=settings.budget, tol=settings.tol,
    )
    amps = qaoa_state(model, trace.best_point)
    probs = amps.real**2 + amps.imag**2

    order = _top_indices(probs, settings.top_k)
    argmax_index = int(order[0])  # largest first, ties by index, as np.argmax
    x_best, ml_value = oracle
    best = spins_to_index(x_best)

    report = {
        "schema_version": SCHEMA_VERSION,
        "instance_seed": inst.seed,
        "n_t": inst.n_t,
        "n_r": inst.n_r,
        "method": method,
        "initial_point": [float(v) for v in theta0],
        "best_point": [float(v) for v in trace.best_point],
        "best_value": float(trace.best_value),
        "n_evaluations": len(trace.evaluations),
        "converged": trace.converged,
        "reason": trace.reason,
        "top_states": [
            {"bitstring": index_to_bitstring(int(m), model.n), "probability": float(probs[m])}
            for m in order
        ],
        "argmax_bitstring": index_to_bitstring(argmax_index, model.n),
        "decoded_symbols": [int(v) for v in index_to_spins(argmax_index, model.n)],
        "bruteforce_symbols": [int(v) for v in x_best],
        "bruteforce_bitstring": index_to_bitstring(best, model.n),
        "bruteforce_value": float(ml_value),
        "success": argmax_index == best,
        "solution_probability": success_probability(amps, x_best),
    }
    return report, [value for _, value in trace.evaluations]


def _detect_instance(inst, starts, settings):
    """Run each of ``settings.methods`` on one instance from its entry in
    ``starts``; return one (report, costs) per method, in method order.

    The instance's Ising model and brute-force oracle are built once and
    shared by its methods.  A failed run gives an error row and no costs.
    """
    try:
        model = build_ising(inst)
        oracle = brute_force_detect(inst)
    except Exception as exc:
        return [(_error_row(inst, method, exc), []) for method in settings.methods]
    runs = []
    for method, theta0 in zip(settings.methods, starts):
        try:
            runs.append(_run_detection(inst, model, oracle, theta0, method, settings))
        except Exception as exc:
            runs.append((_error_row(inst, method, exc), []))
    return runs


def _map_instances(instances, starts, settings):
    """Yield _detect_instance's result for each instance, in file order.

    With more than one CPU in the process's affinity mask, forked worker
    processes run the instances in parallel, one task per instance and at
    most one worker per CPU and per instance.  Each task computes exactly
    what the serial loop does, so the results do not depend on the count.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(instances))
    tasks = (instances, starts, [settings] * len(instances))
    if workers <= 1:
        yield from map(_detect_instance, *tasks)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork: a worker starts from this process's memory instead of importing numpy and
    # the package again
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield from pool.map(_detect_instance, *tasks)
    except BrokenProcessPool as exc:
        raise WorkerError(f"a detection worker process died: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def _detection_runs(settings, methods):
    """Finish checking a detection config, then return its instances and an
    iterator of one (report, costs) per instance and method, in file order.
    ``settings`` gains the runs' ``methods`` and angle ``bounds``."""
    bounds = angle_bounds(settings.p, settings.gamma_max, settings.beta_max)
    try:
        localopt.check_tol(settings.tol, bounds)
    except ValueError as exc:
        raise ConfigError(f"config key {exc}") from exc
    instances = read_instances(settings.instances)
    # random starts: one uniform draw over the angle box per instance, in file order
    gen = substream(settings.seed, STREAM_RANDOM_INIT)
    low, span = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
    starts = {RANDOM_INIT: [low + gen.random(bounds.shape[0]) * span for _ in instances]}
    if TRAINED_INIT in methods:
        init = read_init_params(settings.init)
        if init.angles.size // 2 != settings.p:
            raise ConfigError(f"init file has p={init.angles.size // 2} but config requests p={settings.p}")
        starts[TRAINED_INIT] = [init.angles] * len(instances)

    settings.methods, settings.bounds = methods, bounds
    per_instance = list(zip(*(starts[method] for method in methods)))
    results = _map_instances(instances, per_instance, settings)
    return instances, (run for runs in results for run in runs)


def cmd_detect(settings):
    method = RANDOM_INIT if settings.init is None else TRAINED_INIT
    instances, runs = _detection_runs(settings, (method,))
    failures = 0
    with open(settings.out, "w") as fh:
        for report, _ in runs:
            failures += "error" in report
            dump_line(report, fh)
    print(f"detected {len(instances) - failures}/{len(instances)} instances ({method}) -> {settings.out}")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_compare(settings):
    """Paired trained-init vs random-init runs on the same instance set."""
    instances, runs = _detection_runs(settings, (TRAINED_INIT, RANDOM_INIT))
    out = settings.out
    os.makedirs(out, exist_ok=True)
    reports = []
    with open(os.path.join(out, "reports.jsonl"), "w") as fh, \
            open(os.path.join(out, "curves.csv"), "w") as curves:
        curves.write("iteration,cost,method,instance\n")
        for report, costs in runs:
            reports.append(report)
            dump_line(report, fh)
            for iteration, value in enumerate(costs):
                curves.write(
                    f"{iteration},{format_float(value)},{report['method']},{report['instance_seed']}\n"
                )

    summary = _compare_summary(reports)
    with open(os.path.join(out, "summary.json"), "w") as fh:
        fh.write(dumps(summary))
        fh.write("\n")
    print(
        f"compared {len(instances)} instances -> {out} "
        f"(trained better on {summary['fraction_trained_better']})"
    )
    return EXIT_PARTIAL if summary["n_failures"] else EXIT_OK


def _compare_summary(reports):
    """Aggregate compare's reports, which come in (trained, random) pairs per instance."""
    pairs = list(zip(reports[0::2], reports[1::2]))
    paired = [(t, r) for t, r in pairs if "error" not in t and "error" not in r]
    better = sum(1 for t, r in paired if t["best_value"] < r["best_value"])
    summary = {
        "schema_version": SCHEMA_VERSION,
        "n_instances": len(pairs),
        "n_paired": len(paired),
        "n_failures": sum("error" in r for r in reports),
        "fraction_trained_better": better / len(paired) if paired else 0.0,
    }
    for key, field, stat in (
        ("median_final_cost", "best_value", np.median),
        ("mean_solution_probability", "solution_probability", np.mean),
        ("success_rate", "success", np.mean),
    ):
        summary[key] = {}
        for method in (TRAINED_INIT, RANDOM_INIT):
            values = [r[field] for r in reports if r["method"] == method and "error" not in r]
            if values:
                summary[key][method] = float(stat(values))
    return summary


# Consistency checks: selftest runs each at its quick size, the acceptance suite at
# the sizes it pins.  run(gen, size) returns (ok, detail); title(size) describes it.
Check = namedtuple("Check", "name run title quick")

EXACT_TOL = 1e-9  # closed form vs statevector, and the offset identity
UNITARITY_TOL = 1e-12
GP_FORMULA_TOL, GP_INTERPOLATION_TOL = 1e-8, 1e-4
BO_RADIUS, BO_HIT_RATE = 0.1, 0.9


def _tol_str(tol):
    return f"{tol:.0e}".replace("e-0", "e-")  # 1e-09 -> 1e-9


def _random_instance(gen, n_stop):
    n = int(gen.integers(2, n_stop))
    return generate_instance(n, n, 1.0, seed=int(gen.integers(0, 2**63)))


def closed_form_vs_simulator(gen, size):
    worst = 0.0
    for _ in range(size):
        model = build_ising(_random_instance(gen, 7))
        gamma, beta = float(gen.uniform(0.0, np.pi / 2)), float(gen.uniform(0.0, np.pi))
        sim = simulator_expectation(model, [gamma, beta])
        worst = max(worst, abs(sim - depth1_expectation(model, gamma, beta)))
    return worst <= EXACT_TOL, f"max |diff| = {worst:.3e}"


def offset_identity(gen, size):
    worst = 0.0
    for _ in range(size):
        inst = _random_instance(gen, 9)
        model = build_ising(inst)
        for m in range(1 << model.n):
            x = index_to_spins(m, model.n)
            worst = max(worst, abs(ising_energy(model, x) + model.offset - ml_objective(inst, x)))
    return worst <= EXACT_TOL, f"max |diff| = {worst:.3e}"


def ground_state_agreement(gen, size):
    agreed = 0
    for _ in range(size):
        inst = _random_instance(gen, 9)
        ground = index_to_spins(int(np.argmin(hamiltonian_diagonal(build_ising(inst)))), inst.n_t)
        agreed += bool(np.array_equal(ground, brute_force_detect(inst)[0]))
    return agreed == size, f"{agreed}/{size} agreed"


def unitarity(gen, size):
    worst_norm = worst_beta0 = 0.0
    for p in range(1, size + 1):
        model = build_ising(generate_instance(6, 6, 1.0, seed=int(gen.integers(0, 2**63))))
        angles = np.concatenate([gen.uniform(0, np.pi / 2, p), gen.uniform(0, np.pi, p)])
        amps = qaoa_state(model, angles)
        worst_norm = max(worst_norm, abs(float(np.sum(np.abs(amps) ** 2)) - 1.0))
        beta0 = np.concatenate([gen.uniform(0, np.pi / 2, p), np.zeros(p)])
        worst_beta0 = max(worst_beta0, abs(simulator_expectation(model, beta0)))
    ok = worst_norm <= UNITARITY_TOL and worst_beta0 <= UNITARITY_TOL
    return ok, f"norm dev {worst_norm:.3e}, beta0 exp {worst_beta0:.3e}"


def gp_predictions(gen, size):
    worst_formula = 0.0
    for _ in range(size):
        m = int(gen.integers(1, 6))
        kernel = SquaredExponentialKernel(noise_variance=1e-6)
        points, values = gen.random((m, 2)), gen.normal(size=m)
        post = gp_fit(points, values, kernel)
        inv = np.linalg.inv(kernel.matrix(points, points) + kernel.noise_variance * np.eye(m))
        x = gen.random(2)
        kstar = kernel.matrix(points, x[None, :])[:, 0]
        (mean,), (variance,) = gp_predict(post, x)
        worst_formula = max(worst_formula, abs(mean - float(kstar @ inv @ values)),
                            abs(variance - float(1.0 - kstar @ inv @ kstar)))
    points, values = gen.random((5, 2)), gen.normal(size=5)
    post = gp_fit(points, values, SquaredExponentialKernel(noise_variance=1e-10))
    worst_interp = float(np.max(np.abs(gp_predict(post, points)[0] - values)))
    ok = worst_formula <= GP_FORMULA_TOL and worst_interp <= GP_INTERPOLATION_TOL
    return ok, f"formula dev {worst_formula:.3e}, interpolation dev {worst_interp:.3e}"


def bayesopt_parabola(gen, size):
    hits = 0
    for _ in range(size):
        history = bayes_opt(lambda x: (x[0] - 0.3) ** 2, np.array([[0.0, 1.0]]),
                            t_rounds=20, kappa=2.0, seed=int(gen.integers(0, 2**63)))
        hits += abs(float(history.best_point[0]) - 0.3) <= BO_RADIUS
    return hits >= BO_HIT_RATE * size, f"{hits}/{size} seeds within {BO_RADIUS} of the optimum"


CHECKS = (
    Check("closed-form-vs-simulator", closed_form_vs_simulator, lambda size:
          f"depth-1 closed form vs statevector, {size} tuples, {_tol_str(EXACT_TOL)}", 20),
    Check("offset-identity", offset_identity, lambda size: "spin energy + offset = ML "
          f"objective, {size} instances exhaustive, {_tol_str(EXACT_TOL)}", 10),
    Check("ground-state-agreement", ground_state_agreement, lambda size:
          f"argmin of diagonal decodes to exhaustive detector, {size} instances", 10),
    Check("unitarity", unitarity, lambda size:
          f"statevector norm and beta=0 expectation, p<={size}, {_tol_str(UNITARITY_TOL)}", 3),
    Check("gp-predictions", gp_predictions, lambda size:
          f"GP predictions: direct formula {_tol_str(GP_FORMULA_TOL)}, "
          f"interpolation {_tol_str(GP_INTERPOLATION_TOL)}", 5),
    Check("bayesopt-parabola", bayesopt_parabola, lambda size:
          f"surrogate loop on shifted parabola, {math.ceil(BO_HIT_RATE * size)} of {size} "
          f"seeds within {BO_RADIUS}", 1),
)


def cmd_selftest(seed):
    """Run every consistency check at its quick size; exit 0 only if all pass."""
    gen = np.random.default_rng(seed)
    all_ok = True
    for check in CHECKS:
        ok, detail = check.run(gen, check.quick)
        print(f"selftest {check.name}: {'PASS' if ok else 'FAIL'} ({detail})")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_RUNTIME


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qaoa-mimo",
        description="QAOA-based ML detection experiments on simulated MIMO channels",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, keys in KEYS.items():
        mode_parser = sub.add_parser(mode)
        mode_parser.add_argument("--config", help="JSON config file")
        mode_parser.add_argument("--seed", type=int, help="master seed (overrides config)")
        if "out" in keys:
            mode_parser.add_argument("--out", help="output path (overrides config)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        config.update((k, v) for k, v in vars(args).items() if k in ("seed", "out") and v is not None)
        settings = _checked(config, KEYS[args.mode])
        if args.mode == "selftest":
            return cmd_selftest(settings.seed)
        # looked up per call, so a wrapper installed on a cmd_* name is the one run
        command = {"gen-instances": cmd_gen_instances, "train-init": cmd_train_init,
                   "detect": cmd_detect, "compare": cmd_compare}[args.mode]
        return command(settings)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ResourceLimitError, ObjectiveEvaluationError, ValueError, MemoryError,
            WorkerError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
