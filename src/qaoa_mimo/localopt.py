"""Derivative-free local refinement of the variational angles.

COBYLA (Powell, 1994) behind a traced interface: every evaluation is
recorded, the budget is the exact maximum number of objective calls, and
box bounds are enforced through a quadratic penalty so the objective stays
callable everywhere.  With the bounds in the objective, COBYLA runs
without constraints, and this module carries only that case of it.

The optimizer is a numpy port of the unconstrained path of PRIMA's COBYLA
(Zaikun Zhang's modern-Fortran reference implementation, as translated to
Python by Nickolai Belakovski and shipped in scipy 1.17.1).  It asks for
the same points, bit for bit, as ``scipy.optimize.minimize(method="COBYLA")``
with ``tol`` as the final and ``initial_radius(bounds)`` as the initial trust
radius; the test suite pins it against scipy.  The port is a generator that
yields each point it wants and is sent its value: ``minimize`` alone
evaluates, adds the penalty, counts the budget and, as scipy does, answers
a point asked for twice in a row with the last value.  Without
constraints, PRIMA's penalty parameter never changes, its linear program
reduces to a step of length delta against the model gradient, and its
filter and history only choose the returned point, which ``OptTrace``
picks from the evaluations instead; so the port keeps that step and the
simplex updates, and leaves the rest out.

PRIMA is distributed under the BSD 3-Clause License, Copyright (c) Zaikun
Zhang.  Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the conditions of that license
are met: source redistributions retain this copyright notice, the list of
conditions and the disclaimer; binary redistributions reproduce them in
the accompanying material; and neither the name of the copyright holder
nor the names of its contributors are used to endorse or promote products
derived from the software without specific prior written permission.  THE
SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS" AND
ANY EXPRESS OR IMPLIED WARRANTIES ARE DISCLAIMED.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ObjectiveEvaluationError

PENALTY_WEIGHT = 1e4

# PRIMA's exit flags (common/infos.py) and the stop reason each is reported
# as: scipy's message where it is not "tolerance" or "budget".
SMALL_TR_RADIUS = 0
MAXFUN_REACHED = 3
MAXTR_REACHED = 20
DAMAGING_ROUNDING = 7
_REASONS = {
    SMALL_TR_RADIUS: "tolerance",
    MAXFUN_REACHED: "budget",
    MAXTR_REACHED: "Return from COBYLA because the maximal number of trust region "
                   "iterations has been reached.",
    DAMAGING_ROUNDING: "Return from COBYLA because rounding errors are becoming damaging.",
}

# PRIMA's constants and default parameters (common/consts.py, cobyla.py)
_EPS = float(np.finfo(float).eps)
_REALMIN = float(np.finfo(float).tiny)
_FUNCMAX = 1e30  # larger values are moderated to this
_ETA1 = 0.1
_ETA2 = (_ETA1 + 2) / 3  # derived from ETA1 as cobyla.py does
_GAMMA1 = 0.5
_GAMMA2 = 2
_GAMMA3 = 1.5  # max(1, min(0.75 * GAMMA2, 1.5))


@dataclass
class OptTrace:
    """Evaluations in call order and the best point found: the first of the
    lowest value.  Both ``minimize`` and ``bayesopt.bayes_opt`` return it.

    ``converged`` is True when ``minimize``'s trust region shrank below
    tolerance; otherwise ``reason`` records why the run stopped.  The values
    ``minimize`` records include the penalty term for out-of-bounds proposals.
    """

    evaluations: list
    best_point: np.ndarray
    best_value: float
    converged: bool
    reason: str

    @classmethod
    def of(cls, evaluations, converged, reason):
        """The trace of a non-empty list of (point, value)."""
        values = [v for _, v in evaluations]
        k = int(np.argmin(values))
        return cls(list(evaluations), evaluations[k][0].copy(), values[k], converged, reason)


def evaluate_guarded(objective, x, evaluations):
    """``float(objective(x))``.  If the objective raises or returns a non-finite
    value, ObjectiveEvaluationError says how many ``evaluations`` came before."""
    try:
        value = float(objective(x))
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value}")
    except Exception as exc:
        raise ObjectiveEvaluationError(
            f"objective failed after {len(evaluations)} evaluations: {exc}"
        ) from exc
    return value


def check_box(bounds, d=None):
    """``bounds`` as a float (d, 2) array, d >= 1, of finite rows (low, high) with
    low <= high (low == high pins an axis); otherwise a one-line ValueError."""
    box = np.asarray(bounds, dtype=np.float64)
    if box.ndim != 2 or box.shape[1] != 2 or not len(box) or d not in (None, len(box)):
        raise ValueError(f"bounds must have shape ({d or 'd >= 1'}, 2), got {box.shape}")
    if not np.isfinite(box).all() or np.any(box[:, 0] > box[:, 1]):
        raise ValueError(f"bounds must be finite with low <= high, got {box.tolist()}")
    return box


def check_count(name, value):
    """Raise ValueError unless ``value`` is an integer >= 1 (a bool is not)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def initial_radius(bounds=None):
    """COBYLA's initial trust radius for a (d, 2) box: 0.5, shrunk to half the
    narrowest span so the first probes stay near the box, unless an axis is
    pinned (low == high): then it stays 0.5.  A ``tol`` above it is not a
    valid final radius."""
    span = np.inf if bounds is None else float(np.min(bounds[:, 1] - bounds[:, 0]))
    return min(0.5, 0.5 * span) if span > 0 else 0.5


# The smallest tol: below about 2e-157 the port's products overflow float64.
MIN_TOL = 1e-150


def check_tol(tol, bounds=None):
    """Raise ValueError unless ``tol`` lies in [MIN_TOL, initial_radius(bounds)]."""
    radius = initial_radius(bounds)
    if not MIN_TOL <= tol <= radius:
        raise ValueError(f"'tol' must be in [{MIN_TOL}, {radius}], got {tol}")


def minimize(objective, x0, bounds=None, budget=150, tol=1e-6):
    """Minimize ``objective`` from ``x0`` with at most ``budget`` evaluations,
    starting at trust radius ``initial_radius(bounds)``; deterministic given
    identical inputs.  If the objective raises or returns a non-finite value,
    the run aborts with ObjectiveEvaluationError.
    Raises ValueError for an x0 that is empty, not 1-D or not finite, bounds
    that fail ``check_box``, a budget that is not an integer >= 1 and a tol
    outside [MIN_TOL, initial_radius(bounds)].
    """
    x0 = np.array(x0, dtype=np.float64)
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError(f"x0 must be a non-empty 1-D array, got shape {x0.shape}")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0.tolist()}")
    if bounds is not None:
        bounds = check_box(bounds, x0.size)
        low, high = bounds[:, 0], bounds[:, 1]
        low_list, high_list = low.tolist(), high.tolist()
    check_count("budget", budget)
    check_tol(tol, bounds)

    evaluations, last = [], None
    # COBYLA needs d + 2 evaluations at least; a smaller budget stops it
    # when it asks for one more
    run = _cobyla(x0, initial_radius(bounds), tol, max(budget, x0.size + 2))
    value, info = None, MAXFUN_REACHED
    try:
        while True:
            x = run.send(value)
            # scipy hands COBYLA the cached value when it asks for the last point again
            if x.tolist() == last:
                value = evaluations[-1][1]
            elif len(evaluations) == budget:
                break
            else:
                x = x.copy()
                value = evaluate_guarded(objective, x, evaluations)
                last = x.tolist()
                if bounds is not None:
                    penalty = 0.0  # inside the box, and added all the same: -0.0 + 0.0 is 0.0
                    if not (all(map(operator.le, low_list, last))
                            and all(map(operator.le, last, high_list))):
                        excess = np.maximum(low - x, 0.0) + np.maximum(x - high, 0.0)
                        penalty = PENALTY_WEIGHT * float(excess @ excess)
                    value += penalty
                evaluations.append((x, value))
            value = min(value, _FUNCMAX)
    except StopIteration as stop:  # COBYLA returned its exit flag
        info = stop.value
    return OptTrace.of(evaluations, converged=info == SMALL_TR_RADIUS, reason=_REASONS[info])


# ---------------------------------------------------------------------------
# PRIMA's COBYLA without constraints.  Names follow PRIMA: sim holds the
# pole sim[:, n] and the edges sim[:, :n] from it, simi is the inverse of
# the edge matrix, fval the values at pole + edges and at the pole.
#
# The port asks for scipy's points while every rounding is scipy's:
# - Scalars may be Python floats: one IEEE operation rounds alike in Python
#   and numpy, and math.sqrt is np.sqrt.  A Python division needs a nonzero
#   divisor, since Python raises where numpy returns inf or NaN.
# - Each `@` and `.dot` stays a numpy call on scipy's operands, down to
#   planerot's 2-element norm: OpenBLAS fuses its multiply-add, so
#   x0*x0 + x1*x1 differs in about one pair in eight.  np.outer is an
#   elementwise multiply and is written as one.
# - np.hypot is libm's hypot, and so is CPython's abs of a complex (which
#   raises on overflow); math.hypot is not.
# - Sums stay numpy's: along axis 0 it adds row by row, but a 1-D array of
#   8 or more entries (d = 8 is p = 4) pairwise; Python's sum of floats is
#   compensated from 3.12 on.
# - Python's max skips a NaN that numpy's returns; the port takes it where
#   scipy does or no NaN reaches: sim holds none while _checked_inverse
#   passes it, and setdrop_tr scores a NaN -1.


def _cobyla(x0, rhobeg, rhoend, maxfun):
    """Run COBYLA (cobylb.py) as a generator: it yields each point it wants
    evaluated, is sent the moderated value, and returns PRIMA's exit flag."""
    n = x0.size
    if abs(rhobeg - rhoend) < 1.0e2 * _EPS * max(abs(rhobeg), 1):
        rhoend = rhobeg
    eye = np.eye(n)

    # initialization (initialize.py: initxfc): the start and one step of
    # rhobeg along each axis from the best point so far
    sim = np.eye(n, n + 1) * rhobeg
    sim[:, n] = x0
    fval = [0.0] * (n + 1)
    for k in range(n + 1):
        x = sim[:, n].copy()
        if k == 0:
            j = n
        else:
            j = k - 1
            x[j] += rhobeg
        fval[j] = yield x
        if j < n and fval[j] < fval[n]:
            fval[j], fval[n] = fval[n], fval[j]
            sim[:, n] = x
            sim[j, : j + 1] = -rhobeg
    # PRIMA moves the pole to the best vertex again at the top of each
    # iteration and after each reduction of rho, because its penalty
    # parameter may have changed.  Without constraints it cannot; the pole
    # stays the best vertex, and those calls only repeat the last check of
    # simi with the same result, so they are left out.
    simi, ok = _checked_inverse(sim, np.linalg.inv(sim[:, :n]), eye)
    if not ok:
        return DAMAGING_ROUNDING
    nf = n + 1

    rho = delta = rhobeg
    ratio = -1
    jdrop_tr = 0
    distsq = np.zeros(n + 1)
    info = MAXTR_REACHED
    for _ in range(10 * maxfun):
        colsq = (sim[:, :n] * sim[:, :n]).sum(axis=0).tolist()
        adequate_geo = max(colsq) <= 4 * (delta * delta)
        g = np.array([f - fval[n] for f in fval[:n]]) @ simi
        d = _trstlp(delta, g)
        dnorm = min(delta, math.sqrt(d.dot(d)))
        shortd = dnorm <= 0.1 * rho
        prerem = -float(d.dot(g))
        # PRIMA's 1e-6 * min(cpen, 1) * rho, with the penalty cpen at its floor EPS
        trfail = not (prerem > 1.0e-6 * _EPS * rho)
        if shortd or trfail:
            delta *= 0.1
            if delta <= _GAMMA3 * rho:
                delta = rho
        else:
            x = sim[:, n] + d
            f, nf = yield from _value_at(x, sim, fval, distsq, rhoend, nf)
            actrem = fval[n] - f
            ratio = actrem / prerem
            delta = _trrad(delta, dnorm, ratio)
            if delta <= _GAMMA3 * rho:
                delta = rho
            ximproved = actrem > 0
            simid = simi @ d
            jdrop_tr = _setdrop_tr(ximproved, d, delta, rho, sim, simid, colsq)
            if jdrop_tr is not None:  # None keeps the simplex as it is
                simi, ok = _updatexfc(jdrop_tr, d, f, fval, sim, simi, simid, eye)
                if not ok:
                    info = DAMAGING_ROUNDING
                    break
            if nf >= maxfun:
                info = MAXFUN_REACHED
                break

        bad_trstep = shortd or trfail or ratio <= 0 or jdrop_tr is None
        improve_geo = bad_trstep and not adequate_geo
        reduce_rho = bad_trstep and adequate_geo and max(delta, dnorm) <= rho
        if improve_geo:
            colsq = (sim[:, :n] * sim[:, :n]).sum(axis=0).tolist()
        if improve_geo and max(colsq) > 4 * (delta * delta):
            # geometry step (geometry.py: geostep): replace the longest edge
            jdrop_geo = colsq.index(max(colsq))
            d = simi[jdrop_geo, :]
            d = delta / 2 * (d / math.sqrt(d.dot(d)))
            g = np.array([f - fval[n] for f in fval[:n]]) @ simi
            if d.dot(g) > 0:  # PRIMA: -d.dot(g) < d.dot(g)
                d *= -1
            x = sim[:, n] + d
            f, nf = yield from _value_at(x, sim, fval, distsq, rhoend, nf)
            simi, ok = _updatexfc(jdrop_geo, d, f, fval, sim, simi, simi @ d, eye)
            if not ok:
                info = DAMAGING_ROUNDING
                break
            if nf >= maxfun:
                info = MAXFUN_REACHED
                break
        if reduce_rho:
            if rho <= rhoend:
                info = SMALL_TR_RADIUS
                break
            delta = max(0.5 * rho, _redrho(rho, rhoend))
            rho = _redrho(rho, rhoend)

    # a last short step is evaluated if the trust region shrank below tol
    if info == SMALL_TR_RADIUS and shortd and nf < maxfun:
        x = sim[:, n] + d
        step = x - sim[:, n]
        if math.sqrt(step.dot(step)) > 1.0e-3 * rhoend:
            yield x
    return info


def _value_at(x, sim, fval, distsq, rhoend, nf):
    """The value at x: reused from the nearest vertex if that is within
    1e-4 * rhoend, otherwise yielded.  Returns (value, evaluation count)."""
    n = x.size
    step = x - sim[:, n]
    distsq[n] = (step * step).sum()
    edges = x.reshape(n, 1) - (sim[:, n].reshape(n, 1) + sim[:, :n])
    distsq[:n] = (edges * edges).sum(axis=0)
    j = distsq.argmin()
    if distsq[j] <= (1e-4 * rhoend) * (1e-4 * rhoend):
        return fval[j], nf
    return (yield x), nf + 1


def _trstlp(delta, g):
    """The trust-region step without constraints (trustregion.py: trstlp):
    length delta against the model gradient g, or zero when g is negligible.
    PRIMA turns g into the first column of an orthogonal matrix Q by Givens
    rotations (powalg.py: qradd_Rdiag) and steps along -Q[:, 0]."""
    n = g.size
    g = g.tolist()
    maxval = max(map(abs, g))  # scipy's trstlp takes Python's max too
    if maxval > 1e12:
        scale = max(2 * _REALMIN, 1 / maxval)
        g = [c * scale for c in g]
    cq = [0.0 if _isminor(c, c) else c for c in g]
    # Q starts as the identity, and rotation k mixes columns k and k + 1, so
    # column k after it is c at k and s times column k + 1 below k; every
    # product in PRIMA's 2-column matmul but one has an exact zero factor
    q0 = [0.0] * (n - 1) + [1.0]
    pair = np.empty(2)
    for k in range(n - 2, -1, -1):
        if abs(cq[k + 1]) > 0:
            c, s = _planerot(cq[k], cq[k + 1], pair)
            q0[k] = c
            q0[k + 1 :] = [q * s for q in q0[k + 1 :]]
            # np.hypot; |cq| <= 1e12 after the scaling above, so it cannot overflow
            cq[k] = abs(complex(cq[k], cq[k + 1]))
        else:
            q0[k:] = [1.0] + [0.0] * (n - k - 1)
    if not (abs(cq[0]) > _EPS**2 and not _isminor(cq[0], abs(g[0]))):
        return np.zeros(n)
    sdirn = -1 / cq[0] * np.array(q0)
    ss = float(sdirn.dot(sdirn))
    dd = delta * delta
    if dd <= 0 or ss <= _EPS * delta * delta:
        return np.zeros(n)
    step = math.sqrt(ss * dd) / ss
    if step <= 0 or not math.isfinite(step):
        return np.zeros(n)
    return 0.0 + step * sdirn  # 0.0 + keeps PRIMA's signed zeros


def _isminor(x, ref):
    """True if x is zero up to rounding against ref (linalg.py: isminor)."""
    ref, x = abs(ref), abs(x)
    refa = ref + 0.1 * x
    return ref >= refa or refa >= ref + 2 * 0.1 * x


def _planerot(x0, x1, pair):
    """(c, s) of the Givens rotation [[c, s], [-s, c]] that maps the finite
    (x0, x1), x1 != 0, to (|x|, 0) (linalg.py: planerot).  pair is a float
    2-vector to compute the norm in."""
    a0, a1 = abs(x0), abs(x1)
    if a1 <= _EPS * a0:
        return (1.0 if x0 > 0 else -1.0), 0.0  # np.sign(x0) of a nonzero x0
    if a0 <= _EPS * a1:
        return 0.0, (1.0 if x1 > 0 else -1.0)
    if _SQRT_REALMIN < a0 < _SQRT_REALMAX and _SQRT_REALMIN < a1 < _SQRT_REALMAX:
        pair[0], pair[1] = x0, x1
        r = math.sqrt(pair.dot(pair))  # np.linalg.norm's BLAS ddot
        return x0 / r, x1 / r
    if a0 > a1:
        t = x1 / x0
        u = max(1, abs(t), math.sqrt(1 + t * t)) * (1.0 if x0 > 0 else -1.0)
        return 1 / u, t / u
    t = x0 / x1
    u = max(1, abs(t), math.sqrt(1 + t * t)) * (1.0 if x1 > 0 else -1.0)
    return t / u, 1 / u


_SQRT_REALMIN = math.sqrt(_REALMIN)
_SQRT_REALMAX = math.sqrt(float(np.finfo(float).max) / 2.1)


def _trrad(delta, dnorm, ratio):
    """The next trust radius from the reduction ratio (trustregion.py: trrad)."""
    if ratio <= _ETA1:
        return _GAMMA1 * dnorm
    if ratio <= _ETA2:
        return max(_GAMMA1 * delta, dnorm)
    return max(_GAMMA1 * delta, _GAMMA2 * dnorm)


def _redrho(rho, rhoend):
    """The reduced lower bound of the trust radius (redrho.py)."""
    rho_ratio = rho / rhoend
    if rho_ratio > 250:
        return 0.1 * rho
    if rho_ratio <= 16:
        return rhoend
    return math.sqrt(rho_ratio) * rhoend


def _setdrop_tr(ximproved, d, delta, rho, sim, simid, colsq):
    """The vertex that the trust-region point replaces, or None to keep the
    simplex (geometry.py: setdrop_tr).  simid is simi @ d and colsq the
    squared edge lengths, both of the simplex before the step."""
    n = d.size
    if ximproved:
        edges = sim[:, :n] - d[:, None]
        distsq = (edges * edges).sum(axis=0).tolist()
        distsq.append(float((d * d).sum()))
    else:
        distsq = colsq + [0.0]
    scale = max(rho, delta / 10)
    weight = np.maximum(1, np.divide(distsq, scale * scale)).tolist()
    score = [w * abs(s) for w, s in zip(weight, simid.tolist())]
    # the pole scores -1 when the step did not improve, and so does a NaN
    # (inf * 0 where a weight overflows)
    score.append(weight[n] * abs(1 - simid.sum()) if ximproved else -1)
    score = [-1 if math.isnan(s) else s for s in score]
    best = max(score)
    if best > 0:
        return score.index(best)
    return int(np.array(distsq).argmax()) if ximproved else None


def _updatexfc(jdrop, d, f, fval, sim, simi, simid, eye):
    """Replace vertex jdrop by pole + d with value f, then move the pole to
    the best vertex (update.py: updatexfc, findpole, updatepole).  simid is
    simi @ d.  Updates sim and fval in place and returns (simi, ok); not ok
    means rounding has made simi useless, and the run stops."""
    n = sim.shape[0]
    pole, edges = sim[:, n], sim[:, :n]
    if jdrop < n:
        edges[:, jdrop] = d
        simi_jdrop = simi[jdrop, :] / simi[jdrop, :].dot(d)
        simi -= simid[:, None] * simi_jdrop  # np.outer(simid, simi_jdrop)
        simi[jdrop, :] = simi_jdrop
    else:
        pole += d
        edges -= d[:, None]
        simi += simid[:, None] * (simi.sum(axis=0) / (1 - sum(simid)))
    simi, ok = _checked_inverse(sim, simi, eye)
    fval[jdrop] = f
    # with no constraints the merit is f, and PRIMA keeps the pole on ties,
    # where its updatepole only repeats the check of simi above
    if ok and min(fval) < fval[n]:
        jopt = fval.index(min(fval))
        sim_jopt = edges[:, jopt].copy()
        pole += sim_jopt
        edges[:, jopt] = 0
        edges -= sim_jopt[:, None]
        simi[jopt, :] = -simi.sum(axis=0)
        simi, ok = _checked_inverse(sim, simi, eye)
        fval[jopt], fval[n] = fval[n], fval[jopt]
    return simi, ok


def _checked_inverse(sim, simi, eye):
    """simi, or a fresh inverse of the edge matrix when that is more
    accurate and simi is off by more than 0.1; ok is False when the error
    of the better one exceeds 1."""
    n = sim.shape[0]
    erri = float(abs(simi @ sim[:, :n] - eye).max())
    if erri > 0.1 or math.isnan(erri):
        simi_test = np.linalg.inv(sim[:, :n])
        erri_test = float(abs(simi_test @ sim[:, :n] - eye).max())
        if erri_test < erri or (math.isnan(erri) and not math.isnan(erri_test)):
            simi, erri = simi_test, erri_test
    return simi, erri <= 1
