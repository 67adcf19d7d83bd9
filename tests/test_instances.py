import dataclasses

import numpy as np
import pytest

from qaoa_mimo import instances
from qaoa_mimo.errors import ResourceLimitError
from qaoa_mimo.instances import (
    ChannelInstance,
    brute_force_detect,
    generate_instance,
    instance_from_record,
    instance_to_record,
    ml_objective,
    read_instances,
    write_instances,
)


def identity_instance(y, n=None):
    """Hand-built instance with H = I and the given received vector."""
    y = np.asarray(y, dtype=np.float64)
    n = n or y.size
    x = np.ones(n, dtype=np.int64)
    return ChannelInstance(
        n_t=n,
        n_r=n,
        h=np.eye(n),
        x_true=x,
        noise=y - x.astype(np.float64),
        y=y,
        noise_scale=0.0,
        seed=0,
    )


def reference_ml_objective(inst, x):
    """Independent componentwise re-implementation of the objective."""
    total = 0.0
    for i in range(inst.n_r):
        acc = float(inst.y[i])
        for j in range(inst.n_t):
            acc -= float(inst.h[i, j]) * float(x[j])
        total += acc * acc
    return total


def reference_exhaustive(inst):
    """Second exhaustive scan: plain loops, strict-< tie rule."""
    best_value = float("inf")
    best = None
    for m in range(1 << inst.n_t):
        x = [1 if ((m >> k) & 1) == 0 else -1 for k in range(inst.n_t)]
        value = reference_ml_objective(inst, x)
        if value < best_value:
            best_value = value
            best = x
    return np.array(best), best_value


class TestGenerateInstance:
    def test_shapes(self):
        inst = generate_instance(2, 2, 1.0, seed=7)
        assert inst.h.shape == (2, 2)
        assert inst.y.shape == (2,)
        assert inst.x_true.shape == (2,)
        inst.validate()

    def test_determinism(self):
        a = generate_instance(3, 3, 1.0, seed=7)
        b = generate_instance(3, 3, 1.0, seed=7)
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.x_true, b.x_true)
        assert np.array_equal(a.noise, b.noise)
        assert np.array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = generate_instance(3, 3, 1.0, seed=7)
        b = generate_instance(3, 3, 1.0, seed=8)
        assert not np.array_equal(a.h, b.h)

    def test_zero_noise(self):
        inst = generate_instance(4, 4, 0.0, seed=1)
        assert np.array_equal(inst.y, inst.h @ inst.x_true)
        assert np.all(inst.noise == 0.0)

    def test_rectangular(self):
        inst = generate_instance(3, 5, 1.0, seed=2)
        assert inst.h.shape == (5, 3)
        inst.validate()

    @pytest.mark.parametrize("n_t,n_r", [(0, 2), (2, 0), (-1, 3)])
    def test_rejects_empty_dimensions(self, n_t, n_r):
        with pytest.raises(ValueError):
            generate_instance(n_t, n_r, 1.0, seed=0)

    def test_rejects_negative_noise_scale(self):
        with pytest.raises(ValueError):
            generate_instance(2, 2, -0.5, seed=0)

    def test_symbols_are_spins(self):
        for seed in range(20):
            inst = generate_instance(5, 5, 1.0, seed=seed)
            assert np.all(np.abs(inst.x_true) == 1)


class TestMlObjective:
    def test_exact_fit(self):
        inst = identity_instance([1.0, 1.0])
        assert ml_objective(inst, [1, 1]) == 0.0

    def test_opposite_symbols(self):
        inst = identity_instance([1.0, 1.0])
        assert ml_objective(inst, [-1, -1]) == pytest.approx(8.0, abs=1e-12)

    def test_dimension_mismatch(self):
        inst = identity_instance([1.0, 1.0])
        with pytest.raises(ValueError):
            ml_objective(inst, [1, 1, 1])

    def test_rejects_non_spin_entries(self):
        inst = identity_instance([1.0, 1.0])
        with pytest.raises(ValueError):
            ml_objective(inst, [1, 0])

    def test_matches_independent_reference(self):
        inst = generate_instance(3, 3, 1.0, seed=11)
        gen = np.random.default_rng(0)
        for _ in range(20):
            x = np.where(gen.random(3) < 0.5, -1, 1)
            assert ml_objective(inst, x) == pytest.approx(
                reference_ml_objective(inst, x), abs=1e-12
            )

    def test_nonnegative(self):
        for seed in range(10):
            inst = generate_instance(4, 4, 1.0, seed=seed)
            gen = np.random.default_rng(seed)
            x = np.where(gen.random(4) < 0.5, -1, 1)
            assert ml_objective(inst, x) >= 0.0


class TestBruteForce:
    def test_identity_channel(self):
        inst = identity_instance([1.0, -1.0])
        x_best, value = brute_force_detect(inst)
        assert np.array_equal(x_best, [1, -1])
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_tie_takes_lowest_index(self):
        # all four candidates tie at 2; enumeration index 0 is all-ones
        inst = identity_instance([0.0, 0.0])
        x_best, value = brute_force_detect(inst)
        assert np.array_equal(x_best, [1, 1])
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_matches_independent_exhaustive(self):
        for seed in (3, 17, 99):
            inst = generate_instance(6, 6, 1.0, seed=seed)
            x_best, value = brute_force_detect(inst)
            x_ref, value_ref = reference_exhaustive(inst)
            assert np.array_equal(x_best, x_ref)
            assert value == pytest.approx(value_ref, abs=1e-9)

    def test_optimality_exhaustive(self):
        inst = generate_instance(5, 5, 1.0, seed=23)
        x_best, value = brute_force_detect(inst)
        best = ml_objective(inst, x_best)
        for m in range(1 << 5):
            x = np.array([1 if ((m >> k) & 1) == 0 else -1 for k in range(5)])
            assert best <= ml_objective(inst, x) + 1e-12

    def test_zero_noise_recovers_transmission(self):
        for seed in range(8):
            inst = generate_instance(5, 5, 0.0, seed=seed)
            assert np.linalg.matrix_rank(inst.h) == 5
            x_best, value = brute_force_detect(inst)
            assert np.array_equal(x_best, inst.x_true)
            assert value == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize("n_t, n_r", [(1, 1), (6, 6), (14, 14), (18, 18), (2, 20000)])
    def test_every_product_stays_on_one_thread(self, n_t, n_r, matmul_products):
        products = matmul_products(instances)
        brute_force_detect(generate_instance(n_t, n_r, 1.0, seed=n_t))
        # one candidate's product is the smallest there is
        assert max(products) <= max(instances._SERIAL_MATMUL, n_t * n_r)

    @pytest.mark.parametrize("n", [6, 14, 18])
    def test_stacked_products_give_the_bits_of_one_product(self, n, monkeypatch):
        inst = generate_instance(n, n, 1.0, seed=n)
        x_stacked, stacked = brute_force_detect(inst)
        monkeypatch.setattr(instances, "_SERIAL_MATMUL", 1 << 62)
        x_single, single = brute_force_detect(inst)
        assert np.array_equal(x_stacked, x_single)
        assert stacked.hex() == single.hex()

    def test_cap_enforced(self):
        inst = generate_instance(21, 2, 1.0, seed=0)
        with pytest.raises(ResourceLimitError):
            brute_force_detect(inst)
        # explicit override allows larger scans
        small = generate_instance(5, 5, 1.0, seed=0)
        with pytest.raises(ResourceLimitError):
            brute_force_detect(small, max_antennas=4)


class TestInstanceFiles:
    def test_record_round_trip_is_exact(self):
        inst = generate_instance(3, 4, 1.0, seed=12345)
        back = instance_from_record(instance_to_record(inst))
        assert np.array_equal(inst.h, back.h)
        assert np.array_equal(inst.x_true, back.x_true)
        assert np.array_equal(inst.noise, back.noise)
        assert np.array_equal(inst.y, back.y)
        assert inst.seed == back.seed

    def test_file_round_trip_bit_identical(self, tmp_path):
        instances = [generate_instance(3, 3, 1.0, seed=s) for s in (1, 2, 3)]
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        write_instances(path_a, instances)
        write_instances(path_b, read_instances(path_a))
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_reader_validates(self, tmp_path):
        inst = generate_instance(2, 2, 1.0, seed=5)
        record = instance_to_record(inst)
        record["y"] = [0.0, 0.0]  # breaks y = Hx + n
        path = tmp_path / "bad.jsonl"
        import qaoa_mimo.jsonio as jsonio

        path.write_text(jsonio.dumps(record) + "\n")
        with pytest.raises(ValueError):
            read_instances(path)
        with pytest.raises(ValueError):  # a NaN residual is not zero either
            dataclasses.replace(inst, noise=np.full(2, np.nan)).validate()
        empty = dict(record, n_t=0, n_r=0, h=[], x_true=[], noise=[], y=[])
        with pytest.raises(ValueError, match="must be >= 1"):
            instance_from_record(empty)
