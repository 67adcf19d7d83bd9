import tracemalloc

import numpy as np
import pytest

from qaoa_mimo.closed_form import depth1_expectation, depth1_moments
from qaoa_mimo.instances import ChannelInstance, generate_instance
from qaoa_mimo.ising import build_ising
from qaoa_mimo.simulator import expectation, qaoa_state


def simulator_moments(model, gamma, beta):
    """Statevector oracle for <Z_i> and <Z_i Z_j> at depth 1."""
    probs = np.abs(qaoa_state(model, [gamma, beta])) ** 2
    n = model.n
    idx = np.arange(1 << n)
    spins = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n)[None, :]) & 1)
    singles = probs @ spins
    pairs = {
        (i, j): float(probs @ (spins[:, i] * spins[:, j]))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return singles, pairs


def random_cases(count, seed):
    gen = np.random.default_rng(seed)
    for _ in range(count):
        n = int(gen.integers(2, 7))
        inst = generate_instance(n, n, 1.0, seed=int(gen.integers(0, 2**63)))
        gamma = float(gen.uniform(0, np.pi / 2))
        beta = float(gen.uniform(0, np.pi))
        yield build_ising(inst), gamma, beta


class TestVanishingLimits:
    def test_zero_gamma(self):
        model = build_ising(generate_instance(4, 4, 1.0, seed=1))
        z, zz = depth1_moments(model, 0.0, 0.8)
        assert np.abs(z).max() == pytest.approx(0.0, abs=1e-15)
        assert np.abs(zz).max() == pytest.approx(0.0, abs=1e-15)
        assert depth1_expectation(model, 0.0, 0.8) == pytest.approx(0.0, abs=1e-12)

    def test_zero_beta(self):
        model = build_ising(generate_instance(4, 4, 1.0, seed=2))
        z, zz = depth1_moments(model, 0.3, 0.0)
        assert np.abs(z).max() == pytest.approx(0.0, abs=1e-15)
        assert np.abs(zz).max() == pytest.approx(0.0, abs=1e-15)
        assert depth1_expectation(model, 0.3, 0.0) == pytest.approx(0.0, abs=1e-12)


class TestAgainstStatevector:
    def test_single_spin_terms(self):
        for model, gamma, beta in random_cases(25, seed=10):
            singles, _ = simulator_moments(model, gamma, beta)
            z, _ = depth1_moments(model, gamma, beta)
            for i in range(model.n):
                assert z[i] == pytest.approx(singles[i], abs=1e-9)

    def test_pair_terms(self):
        for model, gamma, beta in random_cases(25, seed=20):
            _, pairs = simulator_moments(model, gamma, beta)
            _, zz = depth1_moments(model, gamma, beta)
            for (i, j), value in pairs.items():
                assert zz[i, j] == pytest.approx(value, abs=1e-9)

    def test_full_expectation(self):
        for model, gamma, beta in random_cases(40, seed=30):
            sim = expectation(model, [gamma, beta])
            assert depth1_expectation(model, gamma, beta) == pytest.approx(sim, abs=1e-9)


class TestStructure:
    def test_pair_symmetry(self):
        # zz is exactly symmetric with an exactly zero diagonal
        for model, gamma, beta in random_cases(10, seed=40):
            z, zz = depth1_moments(model, gamma, beta)
            assert z.shape == (model.n,) and zz.shape == (model.n, model.n)
            assert np.array_equal(zz, zz.T)
            assert np.all(np.diag(zz) == 0.0)

    def test_single_spin_beta_period(self):
        for model, gamma, beta in random_cases(10, seed=50):
            z, _ = depth1_moments(model, gamma, beta)
            shifted, _ = depth1_moments(model, gamma, beta + np.pi)
            np.testing.assert_allclose(z, shifted, rtol=0, atol=1e-12)

    def test_values_are_valid_moments(self):
        for model, gamma, beta in random_cases(15, seed=60):
            z, zz = depth1_moments(model, gamma, beta)
            assert np.abs(z).max() <= 1.0 + 1e-12
            assert np.abs(zz).max() <= 1.0 + 1e-12

    def test_memory_is_quadratic_at_n100(self):
        # all n^2 pair moments at n = 100 within a few n x n float arrays;
        # an n^3 tensor (8 MB) would not fit under the bound
        n = 100
        model = build_ising(generate_instance(n, n, 1.0, seed=4))
        depth1_moments(model, 0.02, 0.7)  # warm numpy's first-call allocations
        tracemalloc.start()
        try:
            depth1_moments(model, 0.02, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * n * n * 8


class TestDecoupledSubcase:
    def test_two_spin_no_coupling_closed_form(self):
        # identity channel: gram = I (no coupling), matched = (1, 1); the
        # expectation collapses to 4 sin(2b) sin(4g)
        y = np.array([1.0, 1.0])
        inst = ChannelInstance(
            n_t=2,
            n_r=2,
            h=np.eye(2),
            x_true=np.ones(2, dtype=np.int64),
            noise=y - 1.0,
            y=y,
            noise_scale=0.0,
            seed=0,
        )
        model = build_ising(inst)
        gen = np.random.default_rng(70)
        for _ in range(10):
            gamma = float(gen.uniform(0, np.pi / 2))
            beta = float(gen.uniform(0, np.pi))
            predicted = 4.0 * np.sin(2 * beta) * np.sin(4 * gamma)
            assert depth1_expectation(model, gamma, beta) == pytest.approx(
                predicted, abs=1e-12
            )
            sim = expectation(model, [gamma, beta])
            assert sim == pytest.approx(predicted, abs=1e-9)
