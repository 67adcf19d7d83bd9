"""In-process span tracing of the program's layers.

Wrappers are installed from here, at the places where each layer's
public functions are looked up (a name imported with ``from x import f``
must be patched in the importing module), and removed afterwards.  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the durations of its child spans.
"""

import contextlib
import functools
import math
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(float)
        self.missing = []  # lookup sites absent from the program

    def wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return wrapper

    def summary(self, first=0):
        """{name: [calls, total_s, self_s]} over spans[first:], and the
        summed duration of the top-level spans among them."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        table = defaultdict(lambda: [0, 0.0, 0.0])
        top = 0.0
        for (name, start, end, parent), inner in zip(spans, child):
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
            if parent < first:
                top += end - start
        return table, top


def _gp_fit_result(counts, args, kwargs, post):
    # gp_fit multiplies the jitter tenfold per failed Cholesky factorization.
    ratio = post.noise_variance / post.kernel.noise_variance
    counts["bayesopt.gp_fit.jitter_escalations"] += round(math.log10(ratio)) if ratio > 1 else 0


def _minimize_result(counts, args, kwargs, trace):
    budget = kwargs.get("budget", args[3] if len(args) > 3 else 150)
    counts["localopt.evals"] += len(trace.evaluations)
    counts["localopt.budget"] += budget
    counts["localopt.converged"] += bool(trace.converged)


def _model_size(counts, args, kwargs, result):
    counts["simulator.max_n"] = max(counts["simulator.max_n"], args[0].n)


def _instances_read(counts, args, kwargs, result):
    counts["instances.read.count"] += len(result)


def _dumps_bytes(counts, args, kwargs, text):
    counts["jsonio.bytes_written"] += len(text) + 1  # every record ends in "\n"


def _counting(fn, counts, on_result):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_result(counts, args, kwargs, result)
        return result

    return wrapper


def sites(modules):
    """(module, attribute, span name or None, result hook) for every lookup
    site.  A None span name counts without recording a span."""
    cli, sim, bo, ws, lo, inst, jio = (
        modules[m] for m in ("cli", "simulator", "bayesopt", "warmstart", "localopt",
                             "instances", "jsonio")
    )
    return [
        (cli, "cmd_gen_instances", "cli.mode", None),
        (cli, "cmd_train_init", "cli.mode", None),
        (cli, "cmd_detect", "cli.mode", None),
        (cli, "cmd_compare", "cli.mode", None),
        (cli, "generate_instance", "instances.generate", None),
        (cli, "write_instances", "instances.write", None),
        (cli, "read_instances", "instances.read", _instances_read),
        (cli, "brute_force_detect", "instances.brute_force", None),
        (cli, "build_ising", "ising.build", None),
        (ws, "build_ising", "ising.build", None),
        (cli, "simulator_expectation", "simulator.expectation", _model_size),
        (ws, "expectation", "simulator.expectation", _model_size),
        (cli, "qaoa_state", "simulator.qaoa_state", _model_size),
        (sim, "hamiltonian_diagonal", "simulator.diagonal", None),
        (cli, "train_init", "warmstart.train_init", None),
        (ws, "meta_objective", "warmstart.meta_objective", None),
        (ws, "bayes_opt", "bayesopt.bayes_opt", None),
        (bo, "gp_fit", "bayesopt.gp_fit", _gp_fit_result),
        (bo, "gp_predict", "bayesopt.gp_predict", None),
        (bo, "maximize_acquisition", "bayesopt.acquisition", None),
        (lo, "minimize", "localopt.minimize", _minimize_result),
        (cli, "dump_line", "jsonio.dump_line", None),
        (inst, "dump_line", "jsonio.dump_line", None),
        (jio, "dumps", None, _dumps_bytes),
        (cli, "dumps", None, _dumps_bytes),
        (ws, "dumps", None, _dumps_bytes),
    ]


@contextlib.contextmanager
def installed(tracer, modules):
    """Install a tracer's wrappers at every lookup site; restore the originals on exit."""
    saved = []
    try:
        for module, attr, name, hook in sites(modules):
            if not hasattr(module, attr):
                tracer.missing.append(f"{module.__name__}.{attr}")
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            if name is None:
                wrapped = _counting(original, tracer.counts, hook)
            else:
                wrapped = tracer.wrap(name, original, hook)
            setattr(module, attr, wrapped)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(table, counts, n_instances_detected):
    """Per-layer metrics from a span summary over a whole traced pass."""

    def calls(name):
        return table[name][0] if name in table else 0

    def self_s(name):
        return table[name][2] if name in table else 0.0

    def total_s(name):
        return table[name][1] if name in table else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    predict = calls("bayesopt.gp_predict")
    acq = calls("bayesopt.acquisition")
    expect = calls("simulator.expectation")
    states = calls("simulator.qaoa_state")
    minimize = calls("localopt.minimize")
    evals = counts["localopt.evals"]
    max_n = int(counts["simulator.max_n"])
    return {
        "bayesopt.gp_predict.calls": (predict, "count"),
        "bayesopt.gp_predict.self_s": (self_s("bayesopt.gp_predict"), "s"),
        "bayesopt.gp_predict.us_per_call": (ratio(1e6 * self_s("bayesopt.gp_predict"), predict), "us"),
        "bayesopt.acquisition.calls": (acq, "count"),
        "bayesopt.acquisition.self_s": (self_s("bayesopt.acquisition"), "s"),
        "bayesopt.predict_per_round": (ratio(predict, acq), "count"),
        "bayesopt.gp_fit.calls": (calls("bayesopt.gp_fit"), "count"),
        "bayesopt.gp_fit.self_s": (self_s("bayesopt.gp_fit"), "s"),
        "bayesopt.gp_fit.jitter_escalations": (int(counts["bayesopt.gp_fit.jitter_escalations"]), "count"),
        "warmstart.train_init.s": (total_s("warmstart.train_init"), "s"),
        "warmstart.meta_objective.calls": (calls("warmstart.meta_objective"), "count"),
        "warmstart.meta_objective.self_s": (self_s("warmstart.meta_objective"), "s"),
        "localopt.minimize.calls": (minimize, "count"),
        "localopt.minimize.self_s": (self_s("localopt.minimize"), "s"),
        "localopt.overhead_ms_per_eval": (ratio(1e3 * self_s("localopt.minimize"), evals), "ms"),
        "localopt.evals": (int(evals), "count"),
        "localopt.evals_per_budget": (ratio(evals, counts["localopt.budget"]), "ratio"),
        "localopt.converged_frac": (ratio(counts["localopt.converged"], minimize), "ratio"),
        "simulator.diagonal.calls": (calls("simulator.diagonal"), "count"),
        "simulator.diagonal.self_s": (self_s("simulator.diagonal"), "s"),
        "simulator.expectation.calls": (expect, "count"),
        "simulator.expectation.self_s": (self_s("simulator.expectation"), "s"),
        "simulator.expectation.ms_per_call": (ratio(1e3 * total_s("simulator.expectation"), expect), "ms"),
        "simulator.qaoa_state.calls": (states, "count"),
        "simulator.qaoa_state.self_s": (self_s("simulator.qaoa_state"), "s"),
        "simulator.diagonal_per_expectation": (ratio(calls("simulator.diagonal"), expect + states), "ratio"),
        # Computed from the size, not measured: one complex128 per basis state.
        "simulator.statevector_bytes": (16 * (1 << max_n) if max_n else 0, "B"),
        "instances.brute_force.calls": (calls("instances.brute_force"), "count"),
        "instances.brute_force.self_s": (self_s("instances.brute_force"), "s"),
        "instances.brute_force.per_instance": (ratio(calls("instances.brute_force"), n_instances_detected), "ratio"),
        "ising.build.calls": (calls("ising.build"), "count"),
        "ising.build.self_s": (self_s("ising.build"), "s"),
        "ising.build.per_instance": (ratio(calls("ising.build"), counts["instances.read.count"]), "ratio"),
        "instances.read.self_s": (self_s("instances.read"), "s"),
        "instances.generate.self_s": (self_s("instances.generate"), "s"),
        "jsonio.dump_line.calls": (calls("jsonio.dump_line"), "count"),
        "jsonio.dump_line.self_s": (self_s("jsonio.dump_line"), "s"),
        "jsonio.bytes_written": (int(counts["jsonio.bytes_written"]), "B"),
        "cli.self_s": (self_s("cli.mode"), "s"),
    }
