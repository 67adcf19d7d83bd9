"""Workload definitions: the CLI stages each workload runs and their configs.

A workload is a list of stages.  Each stage is one ``qaoa-mimo`` CLI
invocation with a generated JSON config; every seed in those configs is
derived from the benchmark's ``--seed``, so the program receives nothing
but config and instance files.

Stage kinds:
  setup  -- ``gen-instances``: writes the instance files the later stages read.
  train  -- ``train-init``: trains shared warm-start angles.
  detect -- ``compare`` or ``detect``: refines angles per instance and reports.
"""

import math
import os
import random
from dataclasses import dataclass

# The angle box is passed explicitly so the output checks know it.
GAMMA_MAX = math.pi / 8
BETA_MAX = math.pi


@dataclass(frozen=True)
class Stage:
    kind: str  # "setup", "train" or "detect"
    mode: str  # CLI mode
    config: dict  # paths relative to a pass directory ("@in/" = the inputs dir)


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple
    methods: tuple  # report rows per instance, by start method; quality uses the first
    reports: str  # reports.jsonl path relative to the pass directory
    summary: str  # summary.json path, or None
    init: str  # init.json path, or None

    def stages_of(self, *kinds):
        return [s for s in self.stages if s.kind in kinds]


def _seeds(workload, seed, count):
    gen = random.Random(f"qaoa-mimo-bench/{workload}/{int(seed)}")
    return [gen.randrange(2**62) for _ in range(count)]


def protocol(seed):
    """The README protocol: train on 100 instances with n_t in {2,3}, then
    compare trained against random starts on 20 instances with n_t = 6."""
    s_train, s_eval, s_bo, s_cmp = _seeds("protocol", seed, 4)
    box = {"gamma_max": GAMMA_MAX, "beta_max": BETA_MAX}
    return Workload(
        name="protocol",
        stages=(
            Stage("setup", "gen-instances", {
                "count": 100, "n_t": [2, 3], "noise_scale": 1.0, "seed": s_train,
                "out": "@in/train_instances.jsonl"}),
            Stage("setup", "gen-instances", {
                "count": 20, "n_t": 6, "noise_scale": 1.0, "seed": s_eval,
                "out": "@in/eval_instances.jsonl"}),
            Stage("train", "train-init", {
                "instances": "@in/train_instances.jsonl", "p": 3, "t_rounds": 10,
                "seed": s_bo, "out": "init.json", **box}),
            Stage("detect", "compare", {
                "instances": "@in/eval_instances.jsonl", "init": "init.json", "p": 3,
                "budget": 150, "seed": s_cmp, "out": "results", **box}),
        ),
        methods=("trained-init", "random-init"),
        reports="results/reports.jsonl",
        summary="results/summary.json",
        init="init.json",
    )


def detect_n18(seed):
    """Random-start detection of one 18-antenna instance with a 30-evaluation
    budget: every evaluation simulates a 2^18 statevector."""
    s_gen, s_det = _seeds("detect_n18", seed, 2)
    return Workload(
        name="detect_n18",
        stages=(
            Stage("setup", "gen-instances", {
                "count": 1, "n_t": 18, "noise_scale": 1.0, "seed": s_gen,
                "out": "@in/instances.jsonl"}),
            Stage("detect", "detect", {
                "instances": "@in/instances.jsonl", "p": 3, "budget": 30, "seed": s_det,
                "out": "reports.jsonl", "gamma_max": GAMMA_MAX, "beta_max": BETA_MAX}),
        ),
        methods=("random-init",),
        reports="reports.jsonl",
        summary=None,
        init=None,
    )


WORKLOADS = {"protocol": protocol, "detect_n18": detect_n18}


def resolve(config, inputs_dir, pass_dir):
    """Config with its relative paths made absolute for one pass."""
    out = {}
    for key, value in config.items():
        if key in ("instances", "init", "out"):
            if value.startswith("@in/"):
                value = os.path.join(inputs_dir, value[len("@in/"):])
            else:
                value = os.path.join(pass_dir, value)
        out[key] = value
    return out
