import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoa_mimo.errors import ObjectiveEvaluationError
from qaoa_mimo.localopt import PENALTY_WEIGHT, initial_radius, minimize
from qaoa_mimo.warmstart import angle_bounds


def quadratic(x):
    return float((x[0] - 1.0) ** 2 + (x[1] + 2.0) ** 2)


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
        # d + 2 = 4: COBYLA stops itself at MAXFUN from budget 4 on, and
        # would raise a smaller budget to 4 with a warning
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
        with pytest.warns(UserWarning, match="RHOEND"):
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
