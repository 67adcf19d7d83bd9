"""Gaussian-process surrogate with UCB acquisition and the sequential loop.

The surrogate is a zero-mean GP with an isotropic squared-exponential
kernel and fixed hyperparameters; the loop minimizes, proposing each point
by maximizing mean + kappa * std of a GP of the negated values over the box.
Everything is deterministic in the caller's seed: quasi-random initial design,
multi-start pattern search for the acquisition, and the Philox
substreams behind both.  The design is Owen's scrambled Halton (Owen 2017),
drawn in numpy bit-identically to scipy.stats.qmc.Halton(d, scramble=True,
seed=s) under scipy 1.17.1.  The GP follows Algorithm 2.1 of Rasmussen and
Williams, "Gaussian Processes for Machine Learning" (2006), in numpy: the
module imports no scipy.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .localopt import OptTrace, check_box, check_count, evaluate_guarded
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
        xa, xb = (np.atleast_2d(np.asarray(z, dtype=np.float64)) for z in (xa, xb))
        return self._from_columns(xa.T, xb.T)

    def _from_columns(self, xa_t, xb_t):
        """The matrix between the columns of (d, m) ``xa_t`` and (d, q) ``xb_t``."""
        diff = xa_t[:, :, None] - xb_t[:, None, :]  # d slabs of (m, q)
        diff *= diff
        # slab by slab adds the axes in order, as cdist's "sqeuclidean" does (np.sum may
        # not); np.add.accumulate(axis=0) gets the same bits, 1.6-6x slower from q = 10
        sq = diff[0]
        for plane in diff[1:]:
            sq += plane
        sq *= -0.5
        sq /= self.length_scale**2
        np.exp(sq, out=sq)
        sq *= self.signal_variance
        return sq


@dataclass
class GpPosterior:
    points: np.ndarray
    kernel: SquaredExponentialKernel
    noise_variance: float  # jitter actually used (>= kernel.noise_variance)
    _linv: np.ndarray = field(repr=False, default=None)  # inverse Cholesky factor
    _alpha: np.ndarray = field(repr=False, default=None)
    _points_t: np.ndarray = field(repr=False, default=None)  # (d, m) copy of points


def gp_fit(points, observations, kernel=None):
    """Fit the GP posterior, caching L^-1 for the Cholesky factor L of (K + s_n^2 I).

    If the factorization fails, the noise term is escalated tenfold up to
    ``MAX_JITTER`` before a numeric error is allowed to propagate.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    observations = np.asarray(observations, dtype=np.float64).reshape(-1)
    if points.shape[0] != observations.shape[0]:
        raise ValueError("points and observations must have equal length")
    if points.shape[0] < 1:
        raise ValueError("at least one observation is required")
    if not (np.isfinite(points).all() and np.isfinite(observations).all()):
        raise ValueError("points and observations must be finite")
    kernel = kernel if kernel is not None else SquaredExponentialKernel()
    if not 0 < kernel.noise_variance < math.inf:
        raise ValueError("noise_variance must be positive and finite")
    base = kernel.matrix(points, points)
    if not np.isfinite(base).all():
        raise ValueError("kernel parameters must give a finite kernel matrix")
    eye = np.eye(points.shape[0])
    noise = kernel.noise_variance
    while True:
        try:
            chol = np.linalg.cholesky(base + noise * eye)
            break
        except np.linalg.LinAlgError:
            if noise >= MAX_JITTER:
                raise
            noise = min(noise * 10.0, MAX_JITTER)
    linv = np.zeros_like(chol)
    for row in range(len(chol)):  # forward substitution of L L^-1 = I
        linv[row] = (eye[row] - chol[row, :row] @ linv[:row]) / chol[row, row]
    alpha = linv.T @ (linv @ observations)
    return GpPosterior(points=points, kernel=kernel, noise_variance=noise, _linv=linv,
                       _alpha=alpha, _points_t=np.ascontiguousarray(points.T))


def gp_predict(post, x):
    """Posterior predictive (mean, variance), each of shape (m,), at the rows of
    an (m, d) ``x``; one (d,) point is a batch of one, and an empty (0, d)
    batch gives two empty arrays.  A query of another dimension or with a
    non-finite entry raises ValueError.  Variance pushed slightly below zero
    by roundoff is clamped; under -1e-10 it raises LinAlgError.  The kernel
    is taken against the (d, m) copy of the training points kept at fit
    time, so a call is about twenty numpy calls whatever the batch size.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.ndim != 2 or x.shape[1] != post.points.shape[1]:
        raise ValueError(
            f"query has shape {x.shape}, posterior has dimension {post.points.shape[1]}"
        )
    if not np.isfinite(x).all():
        raise ValueError("query points must be finite")
    kstar = post.kernel._from_columns(post._points_t, x.T)
    mean = post._alpha @ kstar
    v = post._linv @ kstar
    v *= v
    variance = post.kernel.signal_variance - np.add.reduce(v, axis=0)  # np.sum's bits
    if (variance < -1e-10).any():
        raise np.linalg.LinAlgError(
            f"negative predictive variance {variance.min()}; factorization is unusable"
        )
    return mean, np.maximum(variance, 0.0, out=variance)


def _compass_search(score, starts, low, high, max_evals):
    """Compass search maximizing ``score`` (rows of (m, d) -> (m,)) from each start.

    Per axis, a start tries +step then -step and keeps a strict improvement;
    a sweep without one halves its step.  It stops at exactly ``max_evals``
    evaluations or at a step of 1e-3 span.  A move clipped to no change costs
    none.  All starts advance together, one ``score`` call per move on the
    rows of the starts it moves, in start order.  The points stay one (m, d)
    array, whose rows each batch takes with one ``take``; each start's step,
    best value and count are Python floats and ints.
    """
    low, high = low.tolist(), high.tolist()
    span = [b - a for a, b in zip(low, high)]
    floor = [1e-3 * s for s in span]
    axes = [axis for axis, s in enumerate(span) if s]
    x = starts.copy()
    best = score(x).tolist()
    step = [[0.25 * s for s in span] for _ in best]
    evals = [1] * len(best)
    live = list(range(len(best))) if max_evals > 1 else []
    while live:
        improved = set()
        for axis in axes:
            lo, hi = low[axis], high[axis]
            for sign in (1.0, -1.0):
                now = x[:, axis].tolist()
                moving, cands = [], []
                for i in live:
                    cand = now[i] + sign * step[i][axis]
                    # np.clip's comparisons: a tie keeps cand, and with it its zero's sign
                    cand = lo if cand < lo else hi if cand > hi else cand
                    if cand != now[i]:
                        moving.append(i)
                        cands.append(cand)
                if not moving:
                    continue
                trial = x.take(moving, axis=0)
                trial[:, axis] = cands
                for i, cand, value in zip(moving, cands, score(trial).tolist()):
                    evals[i] += 1
                    if value > best[i]:
                        x[i, axis], best[i] = cand, value
                        improved.add(i)
                live = [i for i in live if evals[i] < max_evals]
        for i in [i for i in live if i not in improved]:
            step[i] = [s * 0.5 for s in step[i]]
            if all(s <= f for s, f in zip(step[i], floor)):
                live.remove(i)
    return x, np.array(best)


def maximize_acquisition(post, bounds, kappa, seed):
    """Approximate argmax of the UCB acquisition mean + kappa * std over a box:
    the first best endpoint of compass searches from ``ACQUISITION_STARTS``
    uniform seeds and every training point.  Deterministic in ``seed``.
    """
    _check_kappa(kappa)
    bounds = check_box(bounds, post.points.shape[1])
    low, high = bounds[:, 0], bounds[:, 1]

    def score(x):
        mean, variance = gp_predict(post, x)
        return mean + kappa * np.sqrt(variance)

    gen = substream(seed, STREAM_BAYESOPT)
    starts = low + gen.random((ACQUISITION_STARTS, low.size)) * (high - low)
    anchors = np.clip(post.points, low, high)
    x, best = _compass_search(score, np.vstack([starts, anchors]), low, high, 200 * low.size)
    return x[np.argmax(best)]


def _check_kappa(kappa):
    if not kappa >= 0:  # NaN included
        raise ValueError(f"kappa must be >= 0, got {kappa}")


def bayes_opt(objective, bounds, t_rounds, kappa=2.0, n_init=5, seed=0, kernel=None):
    """Sequential surrogate-based minimization of a black-box objective.

    ``n_init`` scrambled-Halton points are evaluated first, then ``t_rounds``
    proposals that maximize the UCB acquisition of a GP fit to the negated
    values, with points normalized to the unit box and values standardized so
    the fixed kernel scales stay meaningful.  Returns ``localopt.minimize``'s
    OptTrace (converged False, reason "budget") in original coordinates and
    raw values.  Bounds failing ``check_box``, counts failing ``check_count``
    and a kappa below 0 raise ValueError before the first evaluation; a
    failing objective raises ``minimize``'s ObjectiveEvaluationError.
    """
    check_count("t_rounds", t_rounds)
    check_count("n_init", n_init)
    _check_kappa(kappa)
    bounds = check_box(bounds)
    kernel = kernel if kernel is not None else SquaredExponentialKernel()
    low, span = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
    d = low.size

    gen = substream(seed, STREAM_BAYESOPT)
    halton = _ScrambledHalton(d, seed=int(gen.integers(2**63)))
    unit_points = [z for z in halton.random(n_init)]
    evaluations = []

    def evaluate(z):
        x = low + z * span
        evaluations.append((x, evaluate_guarded(objective, x, evaluations)))

    for z in unit_points:
        evaluate(z)

    unit_box = np.column_stack([np.zeros(d), np.ones(d)])
    for _ in range(t_rounds):
        zs = np.array(unit_points)
        ys = -np.array([v for _, v in evaluations])  # the acquisition maximizes
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
    return OptTrace.of(evaluations, converged=False, reason="budget")


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

