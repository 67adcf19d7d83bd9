import importlib
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize

from qaoa_mimo import localopt
from qaoa_mimo.errors import ObjectiveEvaluationError
from qaoa_mimo.instances import generate_instance
from qaoa_mimo.ising import build_ising
from qaoa_mimo.localopt import PENALTY_WEIGHT, initial_radius, minimize
from qaoa_mimo.simulator import expectation
from qaoa_mimo.warmstart import angle_bounds


def quadratic(x):
    return float((x[0] - 1.0) ** 2 + (x[1] + 2.0) ** 2)


class _BudgetSpent(Exception):
    """Raised by the reference's objective once the budget is spent."""


def reference_minimize(objective, x0, bounds=None, budget=150, tol=1e-6):
    """minimize's evaluations, converged and reason, from scipy's COBYLA (the
    PRIMA port) with the same penalty, radii and budget rule."""
    x0 = np.asarray(x0, dtype=np.float64)
    evaluations = []

    def wrapped(x):
        if len(evaluations) == budget:
            raise _BudgetSpent
        x = np.asarray(x, dtype=np.float64)
        value = float(objective(x))
        if bounds is not None:
            excess = np.maximum(bounds[:, 0] - x, 0.0) + np.maximum(x - bounds[:, 1], 0.0)
            value += PENALTY_WEIGHT * float(excess @ excess)
        evaluations.append((x.copy(), value))
        return value

    # PRIMA raises a maxfun below d + 2 to d + 2 with a warning, so a smaller
    # budget is enforced by the wrapper alone
    try:
        result = scipy_minimize(
            wrapped,
            x0,
            method="COBYLA",
            tol=tol,
            options={"maxiter": max(budget, x0.size + 2), "rhobeg": initial_radius(bounds)},
        )
    except _BudgetSpent:
        return evaluations, False, "budget"
    if result.status == localopt.SMALL_TR_RADIUS:
        return evaluations, True, "tolerance"
    if result.status == localopt.MAXFUN_REACHED:
        return evaluations, False, "budget"
    return evaluations, False, str(result.message)


def assert_matches_scipy(objective, x0, bounds=None, budget=150, tol=1e-6):
    trace = minimize(objective, x0, bounds=bounds, budget=budget, tol=tol)
    evaluations, converged, reason = reference_minimize(objective, x0, bounds, budget, tol)
    assert len(trace.evaluations) == len(evaluations)
    for k, ((x, value), (x_ref, value_ref)) in enumerate(zip(trace.evaluations, evaluations)):
        assert np.array_equal(x, x_ref) and value == value_ref, k
    assert (trace.converged, trace.reason) == (converged, reason)
    return trace


def smooth(d):
    """A seeded convex quadratic in d variables with a sine ripple."""
    gen = np.random.default_rng(d)
    a = gen.normal(size=(d, d))
    hessian, centre = a @ a.T + 0.1 * np.eye(d), gen.normal(size=d)
    return lambda x: float((x - centre) @ hessian @ (x - centre) + np.sin(3 * x).sum())


def qaoa_objective(p):
    model = build_ising(generate_instance(3, 3, 1.0, seed=p))
    return lambda theta: expectation(model, theta)


class TestMinimize:
    def test_quadratic_optimum(self):
        trace = minimize(quadratic, [0.0, 0.0], budget=200, tol=1e-8)
        assert np.allclose(trace.best_point, [1.0, -2.0], atol=1e-3)
        assert trace.converged

    def test_budget_one_evaluates_start_only(self):
        trace = minimize(quadratic, [0.5, 0.5], budget=1)
        assert len(trace.evaluations) == 1
        assert np.array_equal(trace.best_point, [0.5, 0.5])
        assert trace.best_value == pytest.approx(quadratic([0.5, 0.5]))
        assert not trace.converged
        assert trace.reason == "budget"

    def test_deterministic(self):
        a = minimize(quadratic, [0.0, 0.0], budget=80)
        b = minimize(quadratic, [0.0, 0.0], budget=80)
        assert len(a.evaluations) == len(b.evaluations)
        for (xa, va), (xb, vb) in zip(a.evaluations, b.evaluations):
            assert np.array_equal(xa, xb) and va == vb

    def test_never_exceeds_budget(self):
        for budget in (1, 2, 7, 30):
            trace = minimize(quadratic, [0.0, 0.0], budget=budget)
            assert len(trace.evaluations) <= budget

    def test_spent_budget_reports_budget(self):
        # d + 2 = 4: COBYLA stops itself at MAXFUN from budget 4 on; below
        # that, the run stops when COBYLA asks for evaluation budget + 1
        for budget in (1, 2, 3, 4, 10, 30):
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)
                trace = minimize(quadratic, [0.0, 0.0], budget=budget, tol=1e-12)
            assert len(trace.evaluations) == budget
            assert not trace.converged
            assert trace.reason == "budget"

    def test_best_no_worse_than_start(self):
        trace = minimize(quadratic, [3.0, 3.0], budget=50)
        assert trace.best_value <= quadratic([3.0, 3.0])

    def test_running_minimum_is_monotone(self):
        trace = minimize(quadratic, [0.0, 0.0], budget=120)
        running = np.minimum.accumulate([v for _, v in trace.evaluations])
        assert np.all(np.diff(running) <= 0.0)
        assert trace.best_value == running[-1]

    def test_best_value_matches_min_of_trace(self):
        trace = minimize(quadratic, [0.0, 0.0], budget=60)
        assert trace.best_value == min(v for _, v in trace.evaluations)

    def test_bounds_penalty_keeps_best_near_box(self):
        # a quadratic penalty admits violations of order |f'| / (2 * weight),
        # here ~1e-4, so "near" rather than "inside"
        bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
        trace = minimize(lambda x: float((x[0] - 2.0) ** 2 + x[1] ** 2),
                         [0.5, 0.5], bounds=bounds, budget=200, tol=1e-8)
        assert trace.best_point[0] == pytest.approx(1.0, abs=5e-2)
        assert np.all(trace.best_point >= bounds[:, 0] - 1e-3)
        assert np.all(trace.best_point <= bounds[:, 1] + 1e-3)

    def test_objective_failure_reports_evaluation_count(self):
        calls = []

        def flaky(x):
            if len(calls) >= 4:
                raise RuntimeError("boom")
            calls.append(1)
            return quadratic(x)

        with pytest.raises(ObjectiveEvaluationError, match="after 4 evaluations"):
            minimize(flaky, [0.0, 0.0], budget=50)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_is_objective_failure(self, bad):
        calls = []

        def overflowing(x):
            calls.append(1)
            return bad if len(calls) == 5 else quadratic(x)

        with pytest.raises(ObjectiveEvaluationError, match="after 4 evaluations: non-finite"):
            minimize(overflowing, [0.0, 0.0], budget=50)

    def test_initial_radius(self):
        assert initial_radius(None) == 0.5
        assert initial_radius(np.array([[0.0, 4.0], [1.0, 2.0]])) == 0.5
        assert initial_radius(np.array([[0.0, 0.3], [0.0, 4.0]])) == 0.15
        assert initial_radius(np.array([[0.0, 0.0], [0.0, 0.3]])) == 0.5  # a pinned axis
        assert initial_radius(angle_bounds(2)) == 0.5 * np.pi / 8

    def test_tol_up_to_initial_radius_is_accepted_by_cobyla(self):
        box = angle_bounds(1)
        radius = initial_radius(box)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            minimize(quadratic, [0.1, 1.0], bounds=box, budget=10, tol=radius)
        with pytest.raises(ValueError, match=r"'tol' must be in \[1e-150, 0.196"):
            minimize(quadratic, [0.1, 1.0], bounds=box, budget=10, tol=1.01 * radius)

    @settings(max_examples=25, deadline=None)
    @given(
        budget=st.integers(1, 40),
        x0=st.tuples(st.floats(-2.0, 3.0), st.floats(-2.0, 3.0)),
    )
    def test_budget_and_penalty_hold_from_any_start(self, budget, x0):
        # the box is [0, 1]^2, so the starts fall inside it and outside it
        low, high = np.zeros(2), np.ones(2)
        trace = minimize(quadratic, list(x0), bounds=np.stack([low, high], axis=1), budget=budget)
        assert 1 <= len(trace.evaluations) <= budget
        if not trace.converged and len(trace.evaluations) == budget:
            assert trace.reason == "budget"
        for x, value in trace.evaluations:
            excess = np.maximum(low - x, 0.0) + np.maximum(x - high, 0.0)
            expected = quadratic(x) + PENALTY_WEIGHT * float(excess @ excess)
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            minimize(quadratic, [0.0, 0.0], budget=0)
        with pytest.raises(ValueError):
            minimize(quadratic, [0.0, 0.0], bounds=np.array([[0.0, 1.0]]))
        calls = []

        def objective(x):
            calls.append(x)
            return quadratic(x)

        # inverted, NaN and infinite boxes
        for bad in ([1.0, 0.0], [np.nan, 1.0], [0.0, np.inf], [-np.inf, 0.0]):
            with pytest.raises(ValueError, match="bounds must be finite with low <= high") as err:
                minimize(objective, [0.2, 0.3], bounds=np.array([bad, [0.0, 1.0]]), budget=20)
            assert "\n" not in str(err.value)
        assert calls == []
        pinned = minimize(objective, [0.2, 0.3], bounds=[[0.2, 0.2], [0.0, 1.0]], budget=20)
        assert len(pinned.evaluations) == len(calls) > 0

    @pytest.mark.parametrize("budget", [2.5, 3.0, "4", True, None])
    def test_budget_must_be_an_integer(self, budget):
        with pytest.raises(ValueError, match="budget must be an integer >= 1") as err:
            minimize(quadratic, np.ones(2), budget=budget)
        assert "\n" not in str(err.value)

    # below 1e-150 the port's products can overflow float64
    @pytest.mark.parametrize("tol", [1.0, 0.0, -1.0, float("nan"), 0.5000001,
                                     1e-200, 0.99e-150, 5e-324])
    def test_tol_outside_the_initial_radius_is_refused(self, tol):
        with pytest.raises(ValueError, match=r"'tol' must be in \[1e-150, 0.5\]") as err:
            minimize(quadratic, np.ones(2), budget=10, tol=tol)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("d", [2, 6, 16])
    def test_tol_at_the_floor_runs_without_overflow(self, d):
        # a tol of 1e-157 here overflows in the port's dot products
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = minimize(lambda x: float(np.sum((x - 0.3) ** 2)), np.zeros(d),
                             budget=2000, tol=localopt.MIN_TOL)
        assert trace.reason == "tolerance"

    @pytest.mark.parametrize("x0", [[], np.zeros((2, 2)), 0.5, [[0.5]]])
    def test_x0_must_be_a_non_empty_vector(self, x0):
        with pytest.raises(ValueError, match="x0 must be a non-empty 1-D array") as err:
            minimize(lambda x: 0.0, x0, budget=10)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("x0", [[float("nan")], [0.0, float("inf")]])
    def test_x0_must_be_finite(self, x0):
        with pytest.raises(ValueError, match="x0 must be finite") as err:
            minimize(lambda x: 0.0, x0, budget=10)
        assert "\n" not in str(err.value)


class TestMatchesScipy:
    """The port asks for the same points as scipy 1.17.1's COBYLA, bit for bit."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_smooth_function_to_tolerance(self, d):
        gen = np.random.default_rng(100 + d)
        trace = assert_matches_scipy(smooth(d), gen.normal(size=d), budget=600, tol=1e-4)
        assert trace.converged

    @pytest.mark.parametrize("bounded", [False, True])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_qaoa_objective(self, p, bounded):
        box = angle_bounds(p)
        x0 = np.random.default_rng(p).uniform(box[:, 0], box[:, 1])
        bounds = box if bounded else None
        for budget in (1, 2 * p + 1, 2 * p + 2, 150):
            trace = assert_matches_scipy(qaoa_objective(p), x0, bounds, budget)
            assert len(trace.evaluations) == budget or trace.converged

    @settings(max_examples=40, deadline=None)
    @given(
        budget=st.integers(1, 80),
        x0=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=4),
        log_tol=st.floats(-7.0, np.log10(0.5)),
    )
    def test_random_starts_in_and_outside_the_box(self, budget, x0, log_tol):
        # a tol drawn from a continuum reaches more of the radius schedule
        box = np.stack([np.zeros(len(x0)), np.ones(len(x0))], axis=1)
        assert_matches_scipy(smooth(len(x0)), x0, box, budget, min(10.0**log_tol, 0.5))

    @pytest.mark.parametrize("scale", [1e-170, 1e25])
    def test_extreme_objective_scales(self, scale):
        # at 1e25 trstlp rescales gradients above 1e12; at 1e-170 their entries
        # lie below sqrt(REALMIN), where planerot avoids squaring them
        assert_matches_scipy(lambda x: scale * smooth(4)(x), np.zeros(4), budget=200)

    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 40])
    def test_repeated_point_reuses_the_last_value(self, budget):
        # the box is under an ulp wide at x0[0], so x0 + rhobeg * e_0 == x0 and
        # COBYLA asks for the start again; scipy answers from its cache
        box = np.array([[1.0, 1.0 + 2e-16], [0.0, 1.0]])
        radius = initial_radius(box)
        assert 1.0 + radius == 1.0
        trace = assert_matches_scipy(quadratic, [1.0, 0.5], box, budget, radius)
        if budget > 1:
            assert np.array_equal(trace.evaluations[1][0], [1.0, 0.5 + radius])

    def test_repeat_is_answered_before_the_budget_is_checked(self):
        # every axis is under an ulp wide, so every point COBYLA asks for after
        # the start repeats it; answered from the last value, the repeats alone
        # shrink the radius to tol, where a budget check made first would stop
        box = np.array([[1.0, 1.0 + 2e-16], [0.5, 0.5 + 1e-16]])
        radius = initial_radius(box)
        trace = assert_matches_scipy(quadratic, [1.0, 0.5], box, 1, radius)
        assert len(trace.evaluations) == 1
        assert (trace.converged, trace.reason) == (True, "tolerance")

    def test_cases_reduce_rho_and_take_geometry_steps(self, monkeypatch):
        counts = Counter()
        setdrop, updatexfc, redrho = localopt._setdrop_tr, localopt._updatexfc, localopt._redrho

        def counted_setdrop(*args):
            jdrop = setdrop(*args)
            counts["trust-region"] += jdrop is not None
            return jdrop

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(localopt, "_setdrop_tr", counted_setdrop)
        monkeypatch.setattr(localopt, "_updatexfc", counted("update", updatexfc))
        monkeypatch.setattr(localopt, "_redrho", counted("rho", redrho))
        for d in (2, 5):
            minimize(smooth(d), np.zeros(d), budget=600, tol=1e-4)
        assert counts["rho"] > 0
        assert counts["update"] > counts["trust-region"] > 0  # the rest are geometry steps


def magnitudes(high=1e300):
    """Floats of either sign up to high in magnitude, signed zeros and
    subnormals among them."""
    return st.floats(-high, high)


def positive_magnitudes(high=1e300):
    return st.floats(5e-324, high)


def arrays(shape):
    size = int(np.prod(shape))
    return st.lists(magnitudes(), min_size=size, max_size=size).map(
        lambda v: np.array(v).reshape(shape)
    )


def pyprima(module):
    """A module of scipy's private PRIMA port, imported where a test uses it,
    so that a scipy without it fails those tests alone."""
    return importlib.import_module(f"scipy._lib.pyprima.{module}")


def assert_same_bits(ours, ref):
    """Equal values with equal sign bits (== cannot tell -0.0 from 0.0)."""
    ours, ref = np.asarray(ours, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes(), (ours, ref)


class TestHelpersMatchScipy:
    """Each ported helper gives the bits of scipy 1.17.1's own PRIMA helper, on
    magnitudes from 1e-300 to 1e300, signed zeros, subnormals and d = 1..8.
    Overflow warnings are the helpers' business, not the comparison's."""

    @settings(max_examples=300, deadline=None)
    @given(g=st.integers(1, 8).flatmap(lambda n: arrays((n,))), delta=positive_magnitudes())
    def test_trstlp(self, g, delta):
        with np.errstate(all="ignore"):
            trstlp = pyprima("cobyla.trustregion").trstlp
            ref = trstlp(np.zeros((g.size, 0)), np.zeros(0), delta, g.copy())
            assert_same_bits(localopt._trstlp(delta, g), ref)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_trstlp_on_generic_gradients(self, n):
        # hypothesis favours simple floats, whose hypots and norms round alike
        # in every implementation; generic ones tell libm's hypot from others
        gen = np.random.default_rng(n)
        trstlp = pyprima("cobyla.trustregion").trstlp
        for spread in [3] * 200 + [300] * 50:
            g = gen.normal(size=n) * 10.0 ** gen.integers(-spread, spread, n)
            g[gen.random(n) < 0.1] = 0.0
            delta = 10.0 ** gen.uniform(-8, 1)
            ref = trstlp(np.zeros((n, 0)), np.zeros(0), delta, g.copy())
            assert_same_bits(localopt._trstlp(delta, g), ref)

    @settings(max_examples=300, deadline=None)
    @given(x0=magnitudes(), x1=magnitudes().filter(lambda v: v != 0))
    def test_planerot(self, x0, x1):
        rotation = pyprima("common.linalg").planerot(np.array([x0, x1]))
        assert_same_bits(localopt._planerot(x0, x1, np.empty(2)), rotation[0])

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 8),
        ximproved=st.booleans(),
        rho=positive_magnitudes(),
        stretch=st.floats(1.0, 1e3),
    )
    def test_setdrop_tr(self, data, n, ximproved, rho, stretch):
        sim, simi, d = data.draw(arrays((n, n + 1))), data.draw(arrays((n, n))), data.draw(arrays((n,)))
        delta = rho * stretch  # COBYLA keeps delta >= rho
        with np.errstate(all="ignore"):
            setdrop_tr = pyprima("cobyla.geometry").setdrop_tr
            ref = setdrop_tr(ximproved, d.copy(), delta, rho, sim.copy(), simi.copy())
            colsq = (sim[:, :n] * sim[:, :n]).sum(axis=0).tolist()
            ours = localopt._setdrop_tr(ximproved, d, delta, rho, sim, simi @ d, colsq)
        assert ours == ref

    @settings(max_examples=200, deadline=None)
    @given(dnorm=positive_magnitudes(), stretch=st.floats(1.0, 1e3), ratio=magnitudes())
    def test_trrad(self, dnorm, stretch, ratio):
        delta = dnorm * stretch  # the step is at most delta long
        ref = pyprima("cobyla.trustregion").trrad(
            delta, dnorm, localopt._ETA1, localopt._ETA2, localopt._GAMMA1, localopt._GAMMA2, ratio
        )
        assert_same_bits(localopt._trrad(delta, dnorm, ratio), ref)

    @settings(max_examples=200, deadline=None)
    @given(rhoend=positive_magnitudes(1.0), factor=st.floats(1.0, 1e6, exclude_min=True))
    def test_redrho(self, rhoend, factor):
        rho = rhoend * factor
        if rho > rhoend:  # redrho's precondition
            ref = pyprima("common.redrho").redrho(rho, rhoend)
            assert_same_bits(localopt._redrho(rho, rhoend), ref)

    def test_hypot_of_a_complex_is_numpys(self):
        # _trstlp's abs(complex(a, b)) stands for np.hypot; both are libm's hypot
        gen = np.random.default_rng(0)
        a = gen.normal(size=100_000) * 10.0 ** gen.uniform(-320, 12, 100_000)
        b = gen.normal(size=100_000) * 10.0 ** gen.uniform(-320, 12, 100_000)
        assert [abs(complex(x, y)) for x, y in zip(a.tolist(), b.tolist())] == np.hypot(a, b).tolist()


def signed_zeros(x):
    """A bowl whose floor, a disc about (0.5, 0.5), is -0.0 below the diagonal
    x[1] = x[0] and 0.0 on and above it."""
    r = (x[0] - 0.5) ** 2 + (x[1] - 0.5) ** 2
    return float(r) if r > 0.04 else math.copysign(0.0, x[1] - x[0])


class TestSignedZerosAndBoxEdges:
    """== cannot tell -0.0 from 0.0, so these compare the bytes of every
    recorded point and value with scipy's."""

    @pytest.mark.parametrize(
        "x0, bounds",
        [
            ([0.1, 0.9], None),
            ([0.5, 0.5], [[0.0, 1.0], [0.0, 1.0]]),  # the first steps end on the upper edges
            ([0.0, 1.0], [[0.0, 1.0], [0.0, 1.0]]),  # a start in a corner
            ([0.5, 0.45], [[0.5, 0.5], [0.0, 1.0]]),  # a pinned axis
        ],
        ids=["unbounded", "edges", "corner", "pinned"],
    )
    def test_bytes_match_scipy(self, x0, bounds):
        box = None if bounds is None else np.array(bounds)
        trace = minimize(signed_zeros, x0, bounds=box, budget=80, tol=1e-4)
        evaluations, converged, reason = reference_minimize(signed_zeros, x0, box, 80, 1e-4)
        assert len(trace.evaluations) == len(evaluations)
        for (x, value), (x_ref, value_ref) in zip(trace.evaluations, evaluations):
            assert x.tobytes() == x_ref.tobytes()
            assert np.signbit(value) == np.signbit(value_ref)
            assert np.float64(value).tobytes() == np.float64(value_ref).tobytes()
        assert (trace.converged, trace.reason) == (converged, reason)
        values = [value for _, value in trace.evaluations]
        assert 0.0 in values  # the floor is reached
        if box is None:  # and its sign is recorded
            assert any(np.signbit(v) for v in values if v == 0.0)
        else:  # a point inside the box gains a 0.0 penalty, so no -0.0 is left
            assert any(np.signbit(signed_zeros(x)) for x, _ in trace.evaluations)
            assert not any(np.signbit(v) for v in values)
            assert any(((x == box[:, 0]) | (x == box[:, 1])).any() for x, _ in trace.evaluations)
