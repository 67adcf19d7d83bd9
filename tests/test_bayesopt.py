import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist
from scipy.stats import qmc

from qaoa_mimo.bayesopt import (
    MAX_JITTER,
    SquaredExponentialKernel,
    _compass_search,
    _ScrambledHalton,
    bayes_opt,
    gp_fit,
    gp_predict,
    maximize_acquisition,
)
from qaoa_mimo.errors import ObjectiveEvaluationError
from qaoa_mimo.rng import STREAM_BAYESOPT, substream

UNIT_1D = np.array([[0.0, 1.0]])
UNIT_2D = np.array([[0.0, 1.0], [0.0, 1.0]])
# inverted, NaN and infinite boxes, each refused before any evaluation
BAD_BOUNDS_1D = [np.array([[1.0, 0.0]]), np.array([[np.nan, 1.0]]),
                 np.array([[0.0, np.inf]]), np.array([[-np.inf, 0.0]])]


def direct_prediction(points, values, kernel, x):
    """Textbook GP formulas via a generic dense solve (independent path)."""
    k_matrix = kernel.matrix(points, points) + kernel.noise_variance * np.eye(len(points))
    kstar = kernel.matrix(points, np.atleast_2d(x))[:, 0]
    inv = np.linalg.inv(k_matrix)
    mean = kstar @ inv @ values
    variance = 1.0 - kstar @ inv @ kstar
    return float(mean), float(variance)


def acquisition_value(post, x, kappa):
    mean, variance = gp_predict(post, x)
    return mean + kappa * np.sqrt(variance)


def reference_compass_search(score, start, max_evals):
    """The one-start-at-a-time search of the unit box the batched one must reproduce exactly."""
    step = 0.25
    x = start.copy()
    best = score(x)
    evals = 1
    while evals < max_evals:
        improved = False
        for axis in range(x.size):
            for delta in (step, -step):
                cand = x.copy()
                cand[axis] = min(max(x[axis] + delta, 0.0), 1.0)
                if cand[axis] == x[axis]:
                    continue
                value = score(cand)
                evals += 1
                if value > best:
                    x, best = cand, value
                    improved = True
                if evals >= max_evals:
                    return x, best, evals
        if not improved:
            step = step * 0.5
            if step <= 1e-3:
                break
    return x, best, evals


def reference_multistart(score, starts, max_evals):
    """Per-start loop: every endpoint, the total evaluations and the strict-> winner."""
    runs = [reference_compass_search(score, s, max_evals) for s in starts]
    best_x, best_val = None, -np.inf
    for x, value, _ in runs:
        if value > best_val:
            best_x, best_val = x, value
    return runs, best_x


def lockstep_compass_search(score, starts, max_evals):
    """The all-numpy lockstep search of the unit box that _compass_search replaced,
    frozen: the sequence of batches it hands ``score`` is what the GP's bits depend on."""
    x = starts.copy()
    best = score(x)
    step = np.full(len(x), 0.25)
    evals = np.ones(len(x), dtype=np.int64)
    live = evals < max_evals
    while live.any():
        improved = np.zeros(len(x), dtype=bool)
        for axis in range(x.shape[1]):
            for sign in (1.0, -1.0):
                cand = np.clip(x[:, axis] + sign * step, 0.0, 1.0)
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
        live &= ~(halving & (step <= 1e-3))
    return x, best


def per_axis_predict(post, x):
    """gp_predict as first written in numpy, frozen: (m, q, d) distances summed
    along the last axis by a running sum, and fresh arrays for every step."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    kernel = post.kernel
    diff = post.points[:, None, :] - x[None, :, :]
    diff *= diff
    sq = np.add.accumulate(diff, axis=2)[:, :, -1]
    kstar = np.exp(-0.5 * sq / kernel.length_scale**2)
    mean = post._alpha @ kstar
    v = post._linv @ kstar
    return mean, np.maximum(1.0 - np.sum(v * v, axis=0), 0.0)


def rowwise_score(x, plateau=False):
    """Deterministic row-wise score: a batch row and a lone point get the same bits."""
    total = np.zeros(len(x))
    for axis in range(x.shape[1]):
        z = np.floor(4.0 * x[:, axis]) / 4.0 if plateau else x[:, axis]
        total = total - (z - 0.3 - 0.1 * axis) ** 2 + 0.2 * np.cos(7.0 * z)
    return total


class TestGpFit:
    def test_interpolation_limit(self):
        kernel = SquaredExponentialKernel(noise_variance=1e-10)
        post = gp_fit([[0.4, 0.6]], [2.5], kernel)
        (mean,), (variance,) = gp_predict(post, [0.4, 0.6])
        assert mean == pytest.approx(2.5, abs=1e-4)
        assert variance >= 0.0

    def test_far_query_reverts_to_prior(self):
        kernel = SquaredExponentialKernel()
        post = gp_fit([[0.0], [0.2]], [3.0, -1.0], kernel)
        (mean,), (variance,) = gp_predict(post, [100.0 * kernel.length_scale])
        assert mean == pytest.approx(0.0, abs=1e-6)
        assert variance == pytest.approx(1.0, abs=1e-6)

    def test_two_point_hand_inverse(self):
        kernel = SquaredExponentialKernel(noise_variance=1e-6)
        points = np.array([[0.2], [0.8]])
        values = np.array([1.0, -0.5])
        post = gp_fit(points, values, kernel)
        # explicit 2x2 inversion
        k01 = np.exp(-0.5 * 0.6**2 / kernel.length_scale**2)
        a = d = 1.0 + kernel.noise_variance
        det = a * d - k01 * k01
        inv = np.array([[d, -k01], [-k01, a]]) / det
        queries = [[0.3], [0.55], [0.9]]
        means, variances = gp_predict(post, queries)
        for x, mean, variance in zip(queries, means, variances):
            kstar = np.array(
                [np.exp(-0.5 * (x[0] - p[0]) ** 2 / kernel.length_scale**2) for p in points]
            )
            mean_ref = kstar @ inv @ values
            var_ref = 1.0 - kstar @ inv @ kstar
            assert mean == pytest.approx(mean_ref, abs=1e-10)
            assert variance == pytest.approx(var_ref, abs=1e-10)

    def test_refit_reproduces_predictions(self):
        gen = np.random.default_rng(1)
        points = gen.random((4, 3))
        values = gen.normal(size=4)
        a = gp_fit(points, values)
        b = gp_fit(points, values)
        x = gen.random((2, 3))
        for got, want in zip(gp_predict(a, x), gp_predict(b, x)):
            assert np.array_equal(got, want)

    def test_validation(self):
        with pytest.raises(ValueError):
            gp_fit([[0.0], [1.0]], [1.0])
        with pytest.raises(ValueError):
            gp_fit(np.empty((0, 2)), [])
        with pytest.raises(ValueError):
            gp_fit([[0.0]], [1.0], SquaredExponentialKernel(noise_variance=0.0))

    def test_jitter_escalation_on_duplicates(self):
        # exactly repeated points make K singular at negligible jitter
        kernel = SquaredExponentialKernel(noise_variance=1e-18)
        points = np.zeros((6, 2))
        post = gp_fit(points, np.ones(6), kernel)
        assert post.noise_variance > 1e-18
        (mean,), (variance,) = gp_predict(post, [0.0, 0.0])
        assert np.isfinite(mean) and variance >= 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_raise(self, bad):
        # the check_finite contract of the scipy routines this GP replaced
        points, values = np.array([[0.1, 0.2], [0.7, 0.4]]), np.array([1.0, -1.0])
        for where in (points, values):
            broken = where.copy()
            broken.flat[-1] = bad
            args = (broken, values) if where is points else (points, broken)
            with pytest.raises(ValueError, match="finite"):
                gp_fit(*args)
        for kernel in (SquaredExponentialKernel(length_scale=0.0),
                       SquaredExponentialKernel(noise_variance=bad)):
            with pytest.raises(ValueError, match="finite"), np.errstate(all="ignore"):
                gp_fit(points, values, kernel)
        post = gp_fit(points, values)
        for x in ([[0.5, 0.5], [0.3, bad]], [bad, 0.5]):
            with pytest.raises(ValueError, match="finite"):
                gp_predict(post, x)

    def test_non_pd_kernel_raises_at_max_jitter(self, monkeypatch):
        cholesky, tried = np.linalg.cholesky, []

        class NegatedKernel(SquaredExponentialKernel):
            def matrix(self, xa, xb):
                return -super().matrix(xa, xb)

        def recording(matrix):
            tried.append(matrix[0, 0] + 1.0)  # diagonal -1 plus the jitter
            return cholesky(matrix)

        monkeypatch.setattr(np.linalg, "cholesky", recording)
        with pytest.raises(np.linalg.LinAlgError):
            gp_fit([[0.1], [0.6]], [1.0, 2.0], NegatedKernel())
        np.testing.assert_allclose(tried, [1e-6, 1e-5, 1e-4, 1e-3, MAX_JITTER], rtol=1e-9)


class TestGpPredict:
    def test_matches_direct_formula_random_sets(self):
        gen = np.random.default_rng(2)
        kernel = SquaredExponentialKernel(noise_variance=1e-6)
        for _ in range(10):
            m = int(gen.integers(1, 6))
            points = gen.random((m, 2))
            values = gen.normal(size=m)
            post = gp_fit(points, values, kernel)
            queries = gen.random((3, 2))
            mean, variance = gp_predict(post, queries)
            for row, x in enumerate(queries):
                mean_ref, var_ref = direct_prediction(points, values, kernel, x)
                assert mean[row] == pytest.approx(mean_ref, abs=1e-8)
                assert variance[row] == pytest.approx(var_ref, abs=1e-8)

    def test_variance_lower_at_training_point(self):
        post = gp_fit([[0.5]], [1.0])
        _, (var_near, var_far) = gp_predict(post, [[0.5], [50.0]])
        assert var_near <= var_far

    def test_permutation_invariance(self):
        gen = np.random.default_rng(3)
        points = gen.random((5, 2))
        values = gen.normal(size=5)
        perm = gen.permutation(5)
        a = gp_fit(points, values)
        b = gp_fit(points[perm], values[perm])
        x = gen.random((4, 2))
        for got, want in zip(gp_predict(a, x), gp_predict(b, x)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_dimension_mismatch(self):
        post = gp_fit([[0.1, 0.2]], [1.0])
        with pytest.raises(ValueError):
            gp_predict(post, [0.1])
        with pytest.raises(ValueError):
            gp_predict(post, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="query has shape"):
            gp_predict(post, np.zeros((1, 2, 2)))

    def test_output_shapes(self):
        post = gp_fit(np.random.default_rng(5).random((4, 3)), [0.1, -0.2, 0.3, 0.0])
        for x, m in ((np.zeros((7, 3)), 7), (np.zeros((1, 3)), 1), (np.zeros(3), 1),
                     (np.zeros((0, 3)), 0)):
            mean, variance = gp_predict(post, x)
            assert mean.shape == variance.shape == (m,)
            assert mean.dtype == variance.dtype == np.float64

    def test_batch_rows_match_single_point_calls(self):
        gen = np.random.default_rng(6)
        for _ in range(40):
            d, n = int(gen.integers(1, 9)), int(gen.integers(1, 32))
            kernel = SquaredExponentialKernel(length_scale=float(gen.uniform(0.1, 0.6)))
            post = gp_fit(gen.random((n, d)), gen.normal(size=n), kernel)
            queries = np.vstack([gen.random((12, d)), post.points[:3]])
            mean, variance = gp_predict(post, queries)
            single = np.array([[v[0] for v in gp_predict(post, x)] for x in queries])
            np.testing.assert_allclose(mean, single[:, 0], rtol=1e-8, atol=1e-8)
            np.testing.assert_allclose(variance, single[:, 1], rtol=1e-8, atol=1e-8)


    @pytest.mark.parametrize("d", [1, 6, 8, 16])
    def test_bits_equal_frozen_formula(self, d):
        gen = np.random.default_rng(100 + d)
        for m, q in [(1, 1), (30, 40), (30, 1), (1, 40)] + [
                tuple(gen.integers(1, [31, 41])) for _ in range(30)]:
            kernel = SquaredExponentialKernel(length_scale=float(gen.uniform(0.1, 0.6)))
            post = gp_fit(gen.random((m, d)), gen.normal(size=m), kernel)
            queries = np.vstack([gen.random((q, d)), post.points[:2]])
            for got, want in zip(gp_predict(post, queries), per_axis_predict(post, queries)):
                assert got.tobytes() == want.tobytes(), (m, q)

    def test_point_is_batch_of_one(self):
        gen = np.random.default_rng(10)
        post = gp_fit(gen.random((7, 4)), gen.normal(size=7))
        x = gen.random(4)
        for got, want in zip(gp_predict(post, x), gp_predict(post, x[None, :])):
            assert got.shape == (1,) and got.tobytes() == want.tobytes()

    def test_negative_variance_raises_lin_alg_error(self):
        post = gp_fit([[0.2], [0.7]], [1.0, 0.5])
        post._linv = 2.0 * post._linv  # a broken factor: v.v is 4x the prior variance
        with pytest.raises(np.linalg.LinAlgError, match="negative predictive variance"):
            gp_predict(post, [[0.9], [0.2]])


class TestScipyReference:
    """The numpy GP against the scipy routines it replaced."""

    @pytest.mark.parametrize("d", range(1, 17))
    def test_kernel_distances_bit_identical_to_cdist(self, d):
        gen = np.random.default_rng(d)
        kernel = SquaredExponentialKernel()
        for m, q in [(1, 1), (40, 40)] + [tuple(gen.integers(1, 41, size=2)) for _ in range(20)]:
            xa, xb = gen.normal(scale=3.0, size=(m, d)), gen.random((q, d))
            want = np.exp(-0.5 * cdist(xa, xb, "sqeuclidean") / kernel.length_scale**2)
            assert kernel.matrix(xa, xb).tobytes() == want.tobytes(), (m, q)

    def test_predictions_match_cho_solve(self):
        # Two backward-stable solves agree to about cond(K) * eps, so the
        # 1e-12 bound widens only where few dimensions crowd the points.
        gen = np.random.default_rng(8)
        for _ in range(200):
            d, m = int(gen.integers(1, 9)), int(gen.integers(1, 31))
            kernel = SquaredExponentialKernel(length_scale=float(gen.uniform(0.1, 0.6)))
            points, values = gen.random((m, d)), gen.normal(size=m)
            post = gp_fit(points, values, kernel)
            queries = np.vstack([gen.random((int(gen.integers(1, 38)), d)), points[:2]])
            k_matrix = kernel.matrix(points, points) + post.noise_variance * np.eye(m)
            factor, kstar = cho_factor(k_matrix, lower=True), kernel.matrix(points, queries)
            mean_ref = cho_solve(factor, values) @ kstar
            var_ref = 1.0 - np.sum(kstar * cho_solve(factor, kstar), axis=0)
            mean, variance = gp_predict(post, queries)
            atol = max(1e-12, 1e-14 * np.linalg.cond(k_matrix))
            np.testing.assert_allclose(mean, mean_ref, rtol=0, atol=atol)
            np.testing.assert_allclose(variance, np.maximum(var_ref, 0.0), rtol=0, atol=atol)


class TestCompassSearch:
    @pytest.mark.parametrize("plateau", [False, True])
    @pytest.mark.parametrize("max_evals", [1, 2, 5, 13, 200 * 3])
    def test_matches_per_start_search(self, max_evals, plateau):
        gen = np.random.default_rng(7)
        starts = gen.random((9, 3))
        starts[0] = 0.0  # on the boundary: the clipped -step moves cost nothing
        starts[1] = 1.0
        starts[2, 0] = 1.0
        self.assert_matches(lambda x: rowwise_score(x, plateau), starts, max_evals)

    def test_all_starts_on_one_plateau(self):
        starts = np.array([[0.1, 0.1], [0.2, 0.2], [0.9, 0.9], [0.1, 0.1]])
        self.assert_matches(lambda x: np.zeros(len(x)), starts, 400)

    def test_same_score_calls_in_acquisition_search(self):
        # no per-start reference here: a GP row's bits depend on its batch
        gen = np.random.default_rng(12)
        post = gp_fit(gen.random((15, 6)), gen.normal(size=15))
        starts = np.vstack([gen.random((8, 6)), post.points])
        self.assert_same_calls(lambda x: acquisition_value(post, x, 2.0), starts, 1200)

    @staticmethod
    def assert_same_calls(score, starts, max_evals):
        """The same score batches (shape and row bytes, in order) and the same
        result bytes as the frozen lockstep search."""
        def run(search):
            calls = []

            def recording(x):
                calls.append((x.shape, x.tobytes()))
                return score(x)

            result = search(recording, starts.copy(), max_evals)
            return calls, [a.tobytes() for a in result]

        assert run(_compass_search) == run(lockstep_compass_search)

    @staticmethod
    def assert_matches(score, starts, max_evals):
        scored = []

        def counting(x):
            scored.append(len(x))
            return score(x)

        x, best = _compass_search(counting, starts, max_evals)
        runs, winner = reference_multistart(
            lambda z: float(score(z[None, :])[0]), starts, max_evals
        )
        for row, (ref_x, ref_best, _) in enumerate(runs):
            assert np.array_equal(x[row], ref_x)
            assert best[row] == ref_best
        assert sum(scored) == sum(evals for _, _, evals in runs)
        assert np.array_equal(x[np.argmax(best)], winner)
        TestCompassSearch.assert_same_calls(score, starts, max_evals)


class TestMaximizeAcquisition:
    def test_exploration_limit_moves_away_from_low_point(self):
        # one poor observation at the center: with a large kappa the
        # acquisition is variance-dominated away from it
        post = gp_fit([[0.5, 0.5]], [-1.0])
        best = maximize_acquisition(post, kappa=5.0, seed=0)
        assert np.linalg.norm(best - [0.5, 0.5]) >= 0.25

    def test_exploitation_limit_returns_to_high_point(self):
        post = gp_fit([[0.3, 0.7]], [1.0])
        best = maximize_acquisition(post, kappa=0.0, seed=0)
        assert np.linalg.norm(best - [0.3, 0.7]) <= 0.05

    def test_matches_dense_grid_argmax_in_1d(self):
        kernel = SquaredExponentialKernel(length_scale=0.2)
        post = gp_fit([[0.1], [0.45], [0.8]], [0.2, -0.7, 0.9], kernel)
        grid = np.linspace(0.0, 1.0, 2001)
        acq = acquisition_value(post, grid[:, None], 2.0)
        best = maximize_acquisition(post, kappa=2.0, seed=1)
        assert acquisition_value(post, best, 2.0)[0] >= acq.max() - 1e-6

    def test_result_within_bounds_and_deterministic(self):
        gen = np.random.default_rng(4)
        post = gp_fit(gen.random((6, 3)), gen.normal(size=6))
        a = maximize_acquisition(post, kappa=2.0, seed=7)
        b = maximize_acquisition(post, kappa=2.0, seed=7)
        assert np.array_equal(a, b)
        assert np.all(a >= 0.0) and np.all(a <= 1.0)


class TestBayesOpt:
    def test_finds_quadratic_optimum(self):
        history = bayes_opt(
            lambda x: (x[0] - 0.3) ** 2, UNIT_1D, t_rounds=20, kappa=2.0, seed=0
        )
        assert abs(history.best_point[0] - 0.3) <= 0.1

    def test_history_length_contract(self):
        history = bayes_opt(lambda x: -float(x[0]), UNIT_1D, t_rounds=4, n_init=3, seed=1)
        assert len(history.evaluations) == 7

    def test_deterministic_in_seed(self):
        def objective(x):
            return float(np.sin(5 * x[0]) + x[1])

        a = bayes_opt(objective, UNIT_2D, t_rounds=5, seed=9)
        b = bayes_opt(objective, UNIT_2D, t_rounds=5, seed=9)
        assert len(a.evaluations) == len(b.evaluations)
        for (xa, va), (xb, vb) in zip(a.evaluations, b.evaluations):
            assert np.array_equal(xa, xb) and va == vb

    def test_best_value_is_running_min_and_consistent(self):
        history = bayes_opt(
            lambda x: float(np.cos(3 * x[0])), UNIT_1D, t_rounds=6, seed=2
        )
        values = [v for _, v in history.evaluations]
        assert history.best_value == min(values)
        k = int(np.argmin(values))
        assert np.array_equal(history.best_point, history.evaluations[k][0])

    def test_all_points_inside_bounds(self):
        bounds = np.array([[-1.0, 2.0], [10.0, 11.0]])
        history = bayes_opt(lambda x: float(x[0] ** 2), bounds, t_rounds=8, seed=3)
        for x, _ in history.evaluations:
            assert np.all(x >= bounds[:, 0] - 1e-12)
            assert np.all(x <= bounds[:, 1] + 1e-12)

    def test_constant_objective_does_not_crash(self):
        history = bayes_opt(lambda x: 1.0, UNIT_2D, t_rounds=5, seed=4)
        assert history.best_value == 1.0
        assert len(history.evaluations) == 10

    def test_objective_failure_reports_evaluation_count(self):
        calls = []

        def flaky(x):
            if len(calls) >= 3:
                raise RuntimeError("boom")
            calls.append(1)
            return float(x[0])

        with pytest.raises(ObjectiveEvaluationError, match="after 3 evaluations"):
            bayes_opt(flaky, UNIT_1D, t_rounds=5, n_init=5, seed=5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_is_objective_failure(self, bad):
        calls = []

        def overflowing(x):
            calls.append(1)
            return bad if len(calls) == 3 else float(x[0])

        with pytest.raises(ObjectiveEvaluationError, match="after 2 evaluations: non-finite"):
            bayes_opt(overflowing, UNIT_1D, t_rounds=5, n_init=5, seed=5)

    def test_constant_objective_evaluates_the_scipy_halton_design(self):
        # constant values give the GP no signal, so every round falls back to
        # the next design point, continuing the initial draw
        bounds = np.array([[-1.0, 2.0], [0.0, 0.5], [10.0, 11.0]])
        seed, n_init, t_rounds = 6, 4, 7
        history = bayes_opt(lambda x: 1.0, bounds, t_rounds=t_rounds, n_init=n_init, seed=seed)
        halton_seed = int(substream(seed, STREAM_BAYESOPT).integers(2**63))
        halton = qmc.Halton(d=3, scramble=True, seed=halton_seed)
        design = [halton.random(n_init)] + [halton.random(1) for _ in range(t_rounds)]
        expected = bounds[:, 0] + np.vstack(design) * (bounds[:, 1] - bounds[:, 0])
        assert np.array_equal(np.array([x for x, _ in history.evaluations]), expected)

    def test_round_and_init_validation(self):
        with pytest.raises(ValueError):
            bayes_opt(lambda x: 0.0, UNIT_1D, t_rounds=0)
        with pytest.raises(ValueError):
            bayes_opt(lambda x: 0.0, UNIT_1D, t_rounds=1, n_init=0)
        calls = []

        def objective(x):
            calls.append(x)
            return 0.0

        bad = [dict(bounds=b) for b in BAD_BOUNDS_1D] + [
            dict(t_rounds=2.5), dict(t_rounds=True), dict(t_rounds="2"),
            dict(n_init=2.5), dict(n_init=False), dict(kappa=-1.0), dict(kappa=np.nan),
        ]
        for fields in bad:
            args = dict(bounds=UNIT_1D, t_rounds=2, n_init=2, kappa=2.0) | fields
            with pytest.raises(ValueError) as err:
                bayes_opt(objective, **args)
            assert "\n" not in str(err.value)
        assert calls == []
        pinned = bayes_opt(objective, np.array([[0.4, 0.4]]), t_rounds=1, n_init=2)
        assert [x.tolist() for x, _ in pinned.evaluations] == [[0.4]] * 3


class TestScrambledHalton:
    @pytest.mark.parametrize("d", list(range(1, 17)) + [40])
    def test_bit_identical_to_scipy(self, d):
        for seed in (0, 1, 12345, 2**62 + 7):
            ours, theirs = _ScrambledHalton(d, seed), qmc.Halton(d=d, scramble=True, seed=seed)
            for n in (20, 1, 1, 5, 300):
                a, b = ours.random(n), theirs.random(n)
                assert a.shape == b.shape == (n, d)
                assert a.tobytes() == b.tobytes(), (seed, n)
