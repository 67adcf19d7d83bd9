"""Derivative-free local refinement of the variational angles.

Wraps scipy's COBYLA (the PRIMA port, scipy >= 1.16) behind a traced
interface: every evaluation is recorded, the budget is the exact maximum
number of objective calls, and box bounds are enforced through a
quadratic penalty so the objective stays callable everywhere.  scipy is
imported when ``minimize`` runs, not with the module.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ObjectiveEvaluationError

PENALTY_WEIGHT = 1e4

# PRIMA COBYLA exit statuses (scipy >= 1.16), from PRIMA's common/infos.
SMALL_TR_RADIUS = 0
MAXFUN_REACHED = 3


class _BudgetSpent(Exception):
    """Raised by the wrapped objective to stop COBYLA once the budget is spent."""


@dataclass
class OptTrace:
    """Evaluations in call order and the best point found.

    ``converged`` is True when the trust region shrank below tolerance;
    otherwise ``reason`` records why the run stopped.  Recorded values
    include the penalty term for out-of-bounds proposals.
    """

    evaluations: list
    best_point: np.ndarray
    best_value: float
    converged: bool
    reason: str


def minimize(objective, x0, bounds=None, budget=150, tol=1e-6):
    """Minimize ``objective`` from ``x0`` with at most ``budget`` evaluations.

    The initial trust-region radius is 0.5, shrunk to half the narrowest
    box span so the first probes stay near the box.
    Deterministic given identical inputs.  If the objective raises, the
    run aborts and ObjectiveEvaluationError carries the partial trace.
    """
    from scipy.optimize import minimize as _scipy_minimize
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    x0 = np.asarray(x0, dtype=np.float64)
    rhobeg = 0.5
    if bounds is not None:
        bounds = np.asarray(bounds, dtype=np.float64)
        if bounds.shape != (x0.size, 2):
            raise ValueError(f"bounds must have shape ({x0.size}, 2)")
        low, high = bounds[:, 0], bounds[:, 1]
        span = float(np.min(high - low))
        if span > 0:
            rhobeg = min(rhobeg, 0.5 * span)

    evaluations = []

    def wrapped(x):
        if len(evaluations) == budget:
            raise _BudgetSpent
        x = np.asarray(x, dtype=np.float64)
        try:
            value = float(objective(x))
        except Exception as exc:
            raise ObjectiveEvaluationError(
                f"objective failed after {len(evaluations)} evaluations: {exc}",
                history=_trace(evaluations, converged=False, reason="objective failure"),
            ) from exc
        if bounds is not None:
            excess = np.maximum(low - x, 0.0) + np.maximum(x - high, 0.0)
            value += PENALTY_WEIGHT * float(excess @ excess)
        evaluations.append((x.copy(), value))
        return value

    # COBYLA raises a maxfun below d + 2 to d + 2 with a warning, so a
    # smaller budget is enforced by the wrapper alone.
    try:
        result = _scipy_minimize(
            wrapped,
            x0,
            method="COBYLA",
            tol=tol,
            options={"maxiter": max(budget, x0.size + 2), "rhobeg": rhobeg},
        )
    except _BudgetSpent:
        return _trace(evaluations, converged=False, reason="budget")

    converged = bool(result.status == SMALL_TR_RADIUS)
    if converged:
        reason = "tolerance"
    elif result.status == MAXFUN_REACHED:
        reason = "budget"
    else:
        reason = str(result.message)
    return _trace(evaluations, converged, reason)


def _trace(evaluations, converged, reason):
    if not evaluations:
        return OptTrace([], None, np.inf, converged, reason)
    values = [v for _, v in evaluations]
    k = int(np.argmin(values))
    return OptTrace(
        evaluations=list(evaluations),
        best_point=evaluations[k][0].copy(),
        best_value=values[k],
        converged=converged,
        reason=reason,
    )
