import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qaoa_mimo.instances import ChannelInstance, generate_instance, ml_objective
from qaoa_mimo.ising import (
    IsingModel,
    build_ising,
    index_to_bitstring,
    index_to_spins,
    ising_energy,
    spins_to_index,
)


def identity_instance(y):
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    x = np.ones(n, dtype=np.int64)
    return ChannelInstance(
        n_t=n, n_r=n, h=np.eye(n), x_true=x, noise=y - x, y=y, noise_scale=0.0, seed=0
    )


def zero_received_instance(n, seed):
    """Random channel with y forced to zero (so the matched filter vanishes)."""
    base = generate_instance(n, n, 1.0, seed)
    return ChannelInstance(
        n_t=n,
        n_r=n,
        h=base.h,
        x_true=base.x_true,
        noise=-(base.h @ base.x_true).astype(np.float64),
        y=np.zeros(n),
        noise_scale=1.0,
        seed=seed,
    )


class TestBuildIsing:
    def test_identity_channel(self):
        model = build_ising(identity_instance([1.0, 1.0]))
        assert np.allclose(model.gram, np.eye(2), atol=1e-15)
        assert np.allclose(model.matched, [1.0, 1.0], atol=1e-15)
        assert model.offset == pytest.approx(4.0, abs=1e-12)

    def test_offset_identity_on_identity_channel(self):
        inst = identity_instance([1.0, 1.0])
        model = build_ising(inst)
        assert ising_energy(model, [1, 1]) == pytest.approx(-4.0, abs=1e-12)
        assert ml_objective(inst, [1, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_gram_is_exactly_symmetric(self):
        model = build_ising(generate_instance(5, 7, 1.0, seed=3))
        assert np.array_equal(model.gram, model.gram.T)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_offset_identity_exhaustive(self, n):
        inst = generate_instance(n, n, 1.0, seed=100 + n)
        model = build_ising(inst)
        for m in range(1 << n):
            x = index_to_spins(m, n)
            assert ising_energy(model, x) + model.offset == pytest.approx(
                ml_objective(inst, x), abs=1e-9
            )


class TestIsingEnergy:
    def test_fields_only(self):
        model = IsingModel(
            n=2,
            gram=np.zeros((2, 2)),
            matched=np.array([1.0, 1.0]),
            offset=0.0,
        )
        assert ising_energy(model, [1, 1]) == pytest.approx(-4.0, abs=1e-12)

    def test_spin_flip_symmetry_without_fields(self):
        model = build_ising(zero_received_instance(4, seed=9))
        assert np.allclose(model.matched, 0.0, atol=1e-15)
        gen = np.random.default_rng(0)
        for _ in range(10):
            x = np.where(gen.random(4) < 0.5, -1, 1)
            assert ising_energy(model, x) == pytest.approx(
                ising_energy(model, -x), abs=1e-12
            )

    def test_length_mismatch(self):
        model = build_ising(generate_instance(3, 3, 1.0, seed=1))
        with pytest.raises(ValueError):
            ising_energy(model, [1, 1])

    def test_rejects_non_spins(self):
        model = build_ising(generate_instance(3, 3, 1.0, seed=1))
        with pytest.raises(ValueError):
            ising_energy(model, [1, 2, 1])

    def test_argmin_matches_brute_force(self):
        from qaoa_mimo.instances import brute_force_detect

        for seed in (5, 6, 7):
            inst = generate_instance(6, 6, 1.0, seed=seed)
            model = build_ising(inst)
            energies = [ising_energy(model, index_to_spins(m, 6)) for m in range(64)]
            x_best, _ = brute_force_detect(inst)
            assert np.array_equal(index_to_spins(int(np.argmin(energies)), 6), x_best)


class TestEncoding:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_round_trip_every_vector(self, n):
        seen = set()
        for m in range(1 << n):
            x = index_to_spins(m, n)
            bits = index_to_bitstring(spins_to_index(x), n)
            assert bits == index_to_bitstring(m, n)
            assert spins_to_index(x) == m
            seen.add(bits)
        assert len(seen) == 1 << n  # bijection

    @given(st.integers(1, 20).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
    def test_round_trips_up_to_twenty_antennas(self, case):
        n, m = case
        x = index_to_spins(m, n)
        bits = index_to_bitstring(m, n)
        assert x.shape == (n,) and len(bits) == n
        assert spins_to_index(x) == m
        assert index_to_bitstring(spins_to_index(x), n) == bits

    def test_antenna_one_is_leftmost(self):
        # index 1 has bit 0 set, i.e. antenna 1 carries symbol -1
        assert index_to_bitstring(1, 3) == "100"
        assert np.array_equal(index_to_spins(1, 3), [-1, 1, 1])
