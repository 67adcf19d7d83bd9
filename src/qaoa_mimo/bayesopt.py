"""Gaussian-process surrogate with UCB acquisition and the sequential loop.

The surrogate is a zero-mean GP with an isotropic squared-exponential
kernel and fixed hyperparameters; the loop proposes each new point by
maximizing mean + kappa * std over the search box.  Everything is
deterministic in the caller's seed: quasi-random initial design,
multi-start pattern search for the acquisition, and the Philox
substreams behind both.  The design is Owen's scrambled Halton (Owen 2017),
drawn in numpy bit-identically to scipy.stats.qmc.Halton(d, scramble=True,
seed=s) under scipy 1.17.1, so scipy.stats is never imported; functions
import the rest of scipy they use, so importing this module loads none of it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ObjectiveEvaluationError
from .rng import STREAM_BAYESOPT, substream

# Jitter escalation stops here; a kernel matrix still non-PD with this
# much added noise indicates broken inputs rather than conditioning.
MAX_JITTER = 1e-2

# Uniform random starts of each acquisition search, besides the training points.
ACQUISITION_STARTS = 8


@dataclass(frozen=True)
class SquaredExponentialKernel:
    """k(x, x') = signal_variance * exp(-||x - x'||^2 / (2 length_scale^2)).

    Defaults assume coordinates normalized to the unit box, which is how
    ``bayes_opt`` calls the GP internally.
    """

    signal_variance: float = 1.0
    length_scale: float = 0.5
    noise_variance: float = 1e-6

    def matrix(self, xa, xb):
        from scipy.spatial import distance  # cheaper per call than importing cdist itself
        sq = distance.cdist(np.atleast_2d(xa), np.atleast_2d(xb), "sqeuclidean")
        return self.signal_variance * np.exp(-0.5 * sq / self.length_scale**2)


@dataclass
class GpPosterior:
    points: np.ndarray
    kernel: SquaredExponentialKernel
    noise_variance: float  # jitter actually used (>= kernel.noise_variance)
    _factor: tuple = field(repr=False, default=None)
    _alpha: np.ndarray = field(repr=False, default=None)


@dataclass
class BoHistory:
    """Evaluated points in order plus the incumbent maximum."""

    trials: list
    best_point: np.ndarray
    best_value: float


def gp_fit(points, observations, kernel=None):
    """Fit the GP posterior, caching the Cholesky solve of (K + s_n^2 I).

    If the factorization fails, the noise term is escalated tenfold up to
    ``MAX_JITTER`` before a numeric error is allowed to propagate.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    observations = np.asarray(observations, dtype=np.float64).reshape(-1)
    if points.shape[0] != observations.shape[0]:
        raise ValueError("points and observations must have equal length")
    if points.shape[0] < 1:
        raise ValueError("at least one observation is required")
    kernel = kernel if kernel is not None else SquaredExponentialKernel()
    if kernel.noise_variance <= 0:
        raise ValueError("noise_variance must be positive")
    from scipy.linalg import cho_factor, cho_solve

    base = kernel.matrix(points, points)
    eye = np.eye(points.shape[0])
    noise = kernel.noise_variance
    while True:
        try:
            factor = cho_factor(base + noise * eye, lower=True)
            break
        except np.linalg.LinAlgError:
            if noise >= MAX_JITTER:
                raise
            noise = min(noise * 10.0, MAX_JITTER)
    alpha = cho_solve(factor, observations)
    return GpPosterior(points=points, kernel=kernel, noise_variance=noise,
                       _factor=factor, _alpha=alpha)


def gp_predict(post, x):
    """Posterior predictive (mean, variance), each of shape (m,), at the rows of
    an (m, d) ``x``; one (d,) point is a batch of one.  Variance pushed
    slightly below zero by roundoff is clamped; under -1e-10 it is a failure.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != post.points.shape[1]:
        raise ValueError(
            f"query has dimension {x.shape[1]}, posterior has {post.points.shape[1]}"
        )
    from scipy.linalg import cho_solve
    kstar = post.kernel.matrix(post.points, x)
    mean = post._alpha @ kstar
    variance = post.kernel.signal_variance - np.sum(kstar * cho_solve(post._factor, kstar), axis=0)
    if np.any(variance < -1e-10):
        raise np.linalg.LinAlgError(
            f"negative predictive variance {variance.min()}; factorization is unusable"
        )
    return mean, np.maximum(variance, 0.0)


def _compass_search(score, starts, low, high, max_evals):
    """Compass search maximizing ``score`` (rows of (m, d) -> (m,)) from each start.

    Per axis, a start tries +step then -step and keeps a strict improvement;
    a sweep without one halves its step.  It stops at exactly ``max_evals``
    evaluations or at a step of 1e-3 span.  A move clipped to no change costs
    none.  All starts advance together, one ``score`` call per move.
    """
    span = high - low
    floor = 1e-3 * span
    x = starts.copy()
    best = score(x)
    step = np.tile(0.25 * span, (len(x), 1))
    evals = np.ones(len(x), dtype=np.int64)
    live = evals < max_evals
    while live.any():
        improved = np.zeros(len(x), dtype=bool)
        for axis in np.flatnonzero(span):
            for sign in (1.0, -1.0):
                cand = np.clip(x[:, axis] + sign * step[:, axis], low[axis], high[axis])
                moving = np.flatnonzero(live & (cand != x[:, axis]))
                if moving.size == 0:
                    continue
                trial = x[moving]
                trial[:, axis] = cand[moving]
                value = score(trial)
                evals[moving] += 1
                better = value > best[moving]
                x[moving[better]], best[moving[better]] = trial[better], value[better]
                improved[moving[better]] = True
                live &= evals < max_evals
        halving = live & ~improved
        step[halving] *= 0.5
        live &= ~(halving & np.all(step <= floor, axis=1))
    return x, best


def maximize_acquisition(post, bounds, kappa, seed):
    """Approximate argmax of the UCB acquisition mean + kappa * std over a box:
    the first best endpoint of compass searches from ``ACQUISITION_STARTS``
    uniform seeds and every training point.  Deterministic in ``seed``.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.ndim != 2 or bounds.shape[1] != 2 or np.any(bounds[:, 1] < bounds[:, 0]):
        raise ValueError("bounds must be a (d, 2) array with high >= low")
    low, high = bounds[:, 0], bounds[:, 1]

    def score(x):
        mean, variance = gp_predict(post, x)
        return mean + kappa * np.sqrt(variance)

    gen = substream(seed, STREAM_BAYESOPT)
    starts = low + gen.random((ACQUISITION_STARTS, low.size)) * (high - low)
    anchors = np.clip(post.points, low, high)
    x, best = _compass_search(score, np.vstack([starts, anchors]), low, high, 200 * low.size)
    return x[np.argmax(best)]


def bayes_opt(objective, bounds, t_rounds, kappa=2.0, n_init=5, seed=0, kernel=None):
    """Sequential surrogate-based maximization of a black-box objective.

    ``n_init`` scrambled-Halton points are evaluated first, then
    ``t_rounds`` acquisition-driven proposals.  The objective is the
    quantity to MAXIMIZE; callers minimizing a cost pass its negation.
    Observations are internally normalized to the unit box / standardized
    before each GP fit so the fixed kernel scales stay meaningful; the
    recorded history is in original coordinates and raw values.

    Raises ObjectiveEvaluationError (with the partial history attached)
    if the objective raises or returns a non-finite value.
    """
    if t_rounds < 1:
        raise ValueError(f"t_rounds must be >= 1, got {t_rounds}")
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.ndim != 2 or bounds.shape[1] != 2 or np.any(bounds[:, 1] < bounds[:, 0]):
        raise ValueError("bounds must be a (d, 2) array with high >= low")
    kernel = kernel if kernel is not None else SquaredExponentialKernel()
    low, span = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
    d = low.size

    gen = substream(seed, STREAM_BAYESOPT)
    halton = _ScrambledHalton(d, seed=int(gen.integers(2**63)))
    unit_points = [z for z in halton.random(n_init)]
    trials = []

    def evaluate(z):
        x = low + z * span
        try:
            value = float(objective(x))
            if not np.isfinite(value):
                raise ValueError(f"non-finite value {value}")
        except Exception as exc:
            raise ObjectiveEvaluationError(
                f"objective failed at trial {len(trials) + 1}: {exc}",
                history=_finish(trials),
            ) from exc
        trials.append((x, value))

    for z in unit_points:
        evaluate(z)

    unit_box = np.column_stack([np.zeros(d), np.ones(d)])
    for _ in range(t_rounds):
        zs = np.array(unit_points)
        ys = np.array([v for _, v in trials])
        scale = float(ys.std())
        z_next = None
        if scale > 1e-12:
            post = gp_fit(zs, (ys - ys.mean()) / scale, kernel)
            z_next = maximize_acquisition(post, unit_box, kappa, seed=int(gen.integers(2**63)))
            if np.min(np.linalg.norm(zs - z_next, axis=1)) < 1e-8:
                z_next = None  # re-proposing a measured point carries no information
        if z_next is None:
            # No usable signal (constant data or a duplicate proposal):
            # fall back to the next quasi-random design point.
            z_next = halton.random(1)[0]
        unit_points.append(z_next)
        evaluate(z_next)
    return _finish(trials)


class _ScrambledHalton:
    """Owen's scrambled Halton sequence in [0, 1)^d: coordinate k in the k-th prime
    base b, digit j of each index mapped through its own shuffle of range(b).
    Draws repeat scipy.stats.qmc.Halton(d, scramble=True, seed=seed) bit for bit."""

    def __init__(self, d, seed):
        rng = np.random.default_rng(seed)
        self._perms, self._drawn, base = [], 0, 1
        while len(self._perms) < d:  # the bases are the primes, each its rows' length
            base += 1
            if all(base % rows.shape[1] for rows in self._perms):
                # one digit per power base**-j above 2**-54, the finest a double resolves
                rows = np.tile(np.arange(base), (math.ceil(54 / math.log2(base)) - 1, 1))
                for row in rows:
                    rng.shuffle(row)
                self._perms.append(rows)

    def random(self, n):
        """The next ``n`` points of the sequence, as an (n, d) array."""
        index = np.arange(self._drawn, self._drawn + n)
        self._drawn += n
        points = np.zeros((n, len(self._perms)))
        for k, perms in enumerate(self._perms):
            quotient, scale = index, 1.0 / perms.shape[1]
            for perm in perms:
                quotient, digit = np.divmod(quotient, perms.shape[1])
                points[:, k] += perm[digit] * scale
                scale /= perms.shape[1]
        return points


def _finish(trials):
    if not trials:
        return BoHistory(trials=[], best_point=None, best_value=-np.inf)
    values = [v for _, v in trials]
    k = int(np.argmax(values))
    return BoHistory(trials=list(trials), best_point=trials[k][0].copy(), best_value=values[k])
