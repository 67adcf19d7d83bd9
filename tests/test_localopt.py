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
from qaoa_mimo.simulator import QaoaParams, expectation
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
    return lambda theta: expectation(model, QaoaParams.from_vector(theta))


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

    def test_objective_failure_attaches_partial_trace(self):
        calls = []

        def flaky(x):
            if len(calls) >= 4:
                raise RuntimeError("boom")
            calls.append(1)
            return quadratic(x)

        with pytest.raises(ObjectiveEvaluationError) as err:
            minimize(flaky, [0.0, 0.0], budget=50)
        assert len(err.value.history.evaluations) == 4
        assert err.value.history.reason == "objective failure"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_is_objective_failure(self, bad):
        calls = []

        def overflowing(x):
            calls.append(1)
            return bad if len(calls) == 5 else quadratic(x)

        with pytest.raises(ObjectiveEvaluationError, match="non-finite") as err:
            minimize(overflowing, [0.0, 0.0], budget=50)
        assert len(err.value.history.evaluations) == 4
        assert err.value.history.reason == "objective failure"

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
        with pytest.raises(ValueError, match=r"'tol' must be in \(0, 0.196"):
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

    @pytest.mark.parametrize("tol", [1.0, 0.0, -1.0, float("nan"), 0.5000001])
    def test_tol_outside_the_initial_radius_is_refused(self, tol):
        with pytest.raises(ValueError, match=r"'tol' must be in \(0, 0.5\]") as err:
            minimize(quadratic, np.ones(2), budget=10, tol=tol)
        assert "\n" not in str(err.value)

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
