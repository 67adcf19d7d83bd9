import numpy as np
import pytest

from qaoa_mimo.bayesopt import bayes_opt
from qaoa_mimo.instances import generate_instance
from qaoa_mimo.ising import build_ising
from qaoa_mimo.rng import substream
from qaoa_mimo.simulator import expectation
from qaoa_mimo.warmstart import (
    angle_bounds,
    init_params_from_record,
    init_params_to_record,
    meta_objective,
    read_init_params,
    train_init,
    write_init_params,
)


def small_instances(count, seed):
    gen = np.random.default_rng(seed)
    return [
        generate_instance(int(gen.integers(2, 4)), int(gen.integers(2, 4)), 1.0,
                          int(gen.integers(0, 2**63)))
        for _ in range(count)
    ]


class TestAngleBounds:
    def test_shape_and_defaults(self):
        box = angle_bounds(3)
        assert box.shape == (6, 2)
        assert np.all(box[:, 0] == 0.0)
        assert np.allclose(box[:3, 1], np.pi / 8)
        assert np.allclose(box[3:, 1], np.pi)

    def test_overrides(self):
        box = angle_bounds(2, gamma_max=1.0, beta_max=2.0)
        assert np.allclose(box[:2, 1], 1.0)
        assert np.allclose(box[2:, 1], 2.0)


class TestMetaObjective:
    def test_single_model_equals_expectation(self):
        model = build_ising(generate_instance(3, 3, 1.0, seed=1))
        angles = [0.1, 0.2, 0.5, 0.7]
        assert meta_objective([model], angles) == pytest.approx(
            expectation(model, angles), abs=1e-15
        )

    def test_copies_equal_single(self):
        model = build_ising(generate_instance(3, 3, 1.0, seed=2))
        angles = [0.15, 0.6]
        single = expectation(model, angles)
        assert meta_objective([model] * 5, angles) == pytest.approx(single, abs=1e-12)

    def test_mean_of_three_models(self):
        models = [build_ising(generate_instance(2, 2, 1.0, seed=s)) for s in (3, 4, 5)]
        angles = [0.2, 0.9]
        individual = [expectation(m, angles) for m in models]
        assert meta_objective(models, angles) == pytest.approx(
            (individual[0] + individual[1] + individual[2]) / 3.0, abs=1e-12
        )

    def test_permutation_invariant(self):
        models = [build_ising(generate_instance(2, 2, 1.0, seed=s)) for s in (6, 7, 8)]
        angles = [0.1, 0.4]
        assert meta_objective(models, angles) == pytest.approx(
            meta_objective(models[::-1], angles), abs=1e-12
        )

    def test_requires_models(self):
        with pytest.raises(ValueError):
            meta_objective([], [0.1, 0.1])


class TestTrainInit:
    def test_angle_count_and_bounds(self):
        insts = small_instances(6, seed=10)
        init = train_init(insts, p=3, t_rounds=2, seed=0, n_init=3)
        assert init.angles.shape == (6,)
        box = angle_bounds(3)
        theta = init.angles
        assert np.all(theta >= box[:, 0]) and np.all(theta <= box[:, 1])

    def test_degenerate_single_round(self):
        insts = small_instances(4, seed=11)
        init = train_init(insts, p=2, t_rounds=1, seed=1, n_init=1)
        assert init.training_meta["t_rounds"] == 1
        assert np.isfinite(init.training_meta["final_objective"])

    def test_deterministic(self):
        insts = small_instances(5, seed=12)
        a = train_init(insts, p=2, t_rounds=2, seed=3, n_init=2)
        b = train_init(insts, p=2, t_rounds=2, seed=3, n_init=2)
        assert np.array_equal(a.angles, b.angles)
        assert a.training_meta == b.training_meta

    def test_builds_one_diagonal_per_instance(self, diagonal_builds):
        insts = small_instances(4, seed=13)
        train_init(insts, p=1, t_rounds=3, seed=1, n_init=2)
        assert len(diagonal_builds) == len(insts)
        assert len({id(model) for model in diagonal_builds}) == len(insts)

    def test_reported_objective_matches_angles(self):
        insts = small_instances(5, seed=13)
        models = [build_ising(i) for i in insts]
        init = train_init(insts, p=2, t_rounds=2, seed=4, n_init=3)
        assert meta_objective(models, init.angles) == pytest.approx(
            init.training_meta["final_objective"], abs=1e-9
        )

    def test_matches_equivalent_bayes_opt_run(self):
        # train_init is a thin wrapper; its result must equal driving
        # bayes_opt directly with the same settings, and never be worse
        # than the best initial-design point
        insts = small_instances(5, seed=14)
        models = [build_ising(i) for i in insts]
        from qaoa_mimo.warmstart import TRAIN_LENGTH_SCALE
        from qaoa_mimo.bayesopt import SquaredExponentialKernel

        n_init, t_rounds, seed = 4, 3, 5
        init = train_init(insts, p=2, t_rounds=t_rounds, seed=seed, n_init=n_init)
        history = bayes_opt(
            lambda th: meta_objective(models, th),
            angle_bounds(2),
            t_rounds,
            kappa=2.0,
            n_init=n_init,
            seed=seed,
            kernel=SquaredExponentialKernel(length_scale=TRAIN_LENGTH_SCALE),
        )
        assert np.array_equal(init.angles, history.best_point)
        design_best = min(v for _, v in history.evaluations[:n_init])
        assert history.best_value <= design_best

    def test_validation(self):
        insts = small_instances(3, seed=15)
        with pytest.raises(ValueError):
            train_init([], p=2, t_rounds=1)
        with pytest.raises(ValueError):
            train_init(insts, p=0, t_rounds=1)
        with pytest.raises(ValueError):
            train_init(insts, p=2, t_rounds=0)

    def test_beats_matched_budget_random_search(self):
        # protocol-scale check: 100 instances, antennas in {2,3}, depth 3,
        # T=10 rounds; the trained angles must beat the best of an equal
        # number of uniform draws on most repetitions
        gen = np.random.default_rng(555)
        insts = [
            generate_instance(2 + (k % 2), 2 + (k % 2), 1.0, int(gen.integers(0, 2**63)))
            for k in range(100)
        ]
        models = [build_ising(i) for i in insts]
        box = angle_bounds(3)
        low, span = box[:, 0], box[:, 1] - box[:, 0]
        n_init, t_rounds = 20, 10
        budget = n_init + t_rounds
        wins = 0
        for rep in range(10):
            init = train_init(insts, p=3, t_rounds=t_rounds, seed=rep, n_init=n_init)
            rgen = substream(rep, 77)
            rand_best = min(
                meta_objective(models, low + rgen.random(6) * span)
                for _ in range(budget)
            )
            wins += init.training_meta["final_objective"] <= rand_best
        assert wins >= 7, f"trained beat matched random search on only {wins}/10 repetitions"


class TestInitParamsIO:
    def test_record_round_trip(self):
        insts = small_instances(4, seed=16)
        init = train_init(insts, p=2, t_rounds=1, seed=6, n_init=2)
        record = init_params_to_record(init)
        assert record["p"] == 2 and record["gammas"] == [float(v) for v in init.angles[:2]]
        assert record["betas"] == [float(v) for v in init.angles[2:]]
        back = init_params_from_record(record)
        assert np.array_equal(init.angles, back.angles)
        assert back.training_meta == init.training_meta

    def test_file_round_trip(self, tmp_path):
        insts = small_instances(4, seed=17)
        init = train_init(insts, p=3, t_rounds=1, seed=7, n_init=2)
        path = tmp_path / "init.json"
        write_init_params(path, init)
        back = read_init_params(path)
        assert np.array_equal(init.angles, back.angles)

    def test_reader_rejects_inconsistent_depth(self):
        record = {
            "schema_version": 1,
            "p": 3,
            "gammas": [0.1, 0.2],
            "betas": [0.3, 0.4, 0.5],
            "training_meta": {},
        }
        with pytest.raises(ValueError):
            init_params_from_record(record)
