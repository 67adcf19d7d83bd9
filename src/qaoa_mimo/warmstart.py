"""Warm-start training of shared initial QAOA angles.

A batch of small, exactly-simulable instances defines the ensemble
objective F(angles) = mean over instances of <H_C>.  Bayesian
minimization of F over the angle box yields one angle vector (p phase
angles, then p mixer angles) that transfers as the starting point for
larger detection runs.  Only the init record splits it into its
``gammas`` and ``betas``.
"""

import json
from dataclasses import dataclass

import numpy as np

from .bayesopt import DEFAULT_KAPPA, SquaredExponentialKernel, bayes_opt
from .ising import build_ising
from .jsonio import SCHEMA_VERSION, dumps, float_array, read_fields, strict_int
from .simulator import expectation

DEFAULT_GAMMA_MAX = np.pi / 8
DEFAULT_BETA_MAX = np.pi

# Ensemble-training defaults.  The useful phase-angle region hugs zero
# (couplings of Gram matrices dephase the trig products fast), so the
# surrogate needs a short length scale and a dense initial design to
# latch onto it; the generic bayes_opt defaults are too coarse here.
TRAIN_LENGTH_SCALE = 0.15
DEFAULT_TRAIN_N_INIT = 20


def angle_bounds(p, gamma_max=DEFAULT_GAMMA_MAX, beta_max=DEFAULT_BETA_MAX):
    """Search box for the flat angle vector: p gamma rows then p beta rows.

    The mixer angle is periodic with period pi, so [0, pi] covers it; the
    phase angle has no clean period for continuous couplings, so a
    compact window near zero is used.
    """
    box = np.zeros((2 * p, 2))
    box[:p, 1] = gamma_max
    box[p:, 1] = beta_max
    return box


@dataclass(frozen=True)
class InitParams:
    """The trained angle vector plus a record of how it was obtained."""

    angles: np.ndarray
    training_meta: dict


def meta_objective(models, angles):
    """Mean of <H_C> at ``angles`` over the model batch (fixed summation order)."""
    if not models:
        raise ValueError("at least one model is required")
    total = 0.0
    for model in models:
        total += expectation(model, angles)
    return total / len(models)


def train_init(
    instances,
    p,
    t_rounds,
    kappa=DEFAULT_KAPPA,
    seed=0,
    n_init=DEFAULT_TRAIN_N_INIT,
    bounds=None,
):
    """Train shared initial angles on a batch of instances.

    Builds the Ising models, then minimizes their ensemble mean <H_C> with
    ``bayes_opt`` over the 2p-dimensional angle box; ``final_objective`` is
    the mean at the returned angles.  Deterministic in ``seed``.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if not instances:
        raise ValueError("at least one training instance is required")
    models = [build_ising(inst) for inst in instances]
    if bounds is None:
        bounds = angle_bounds(p)

    history = bayes_opt(
        lambda theta: meta_objective(models, theta), bounds, t_rounds,
        kappa=kappa, n_init=n_init, seed=seed,
        kernel=SquaredExponentialKernel(length_scale=TRAIN_LENGTH_SCALE),
    )
    meta = {
        "n_instances": len(models),
        "t_rounds": int(t_rounds),
        "kappa": float(kappa),
        "seed": int(seed),
        "n_init": int(n_init),
        "final_objective": history.best_value,
    }
    return InitParams(angles=history.best_point, training_meta=meta)


def init_params_to_record(init):
    p = init.angles.size // 2
    return {
        "schema_version": SCHEMA_VERSION,
        "p": p,
        "gammas": [float(g) for g in init.angles[:p]],
        "betas": [float(b) for b in init.angles[p:]],
        "training_meta": init.training_meta,
    }


def init_params_from_record(record):
    fields = read_fields(
        record, "init", p=strict_int, gammas=float_array, betas=float_array, training_meta=dict
    )
    if fields["gammas"].shape != (fields["p"],) or fields["betas"].shape != (fields["p"],):
        raise ValueError("angle vectors do not match the recorded depth")
    return InitParams(np.concatenate([fields["gammas"], fields["betas"]]), fields["training_meta"])


def write_init_params(path, init):
    with open(path, "w") as fh:
        fh.write(dumps(init_params_to_record(init)))
        fh.write("\n")


def read_init_params(path):
    with open(path) as fh:
        return init_params_from_record(json.loads(fh.read()))
