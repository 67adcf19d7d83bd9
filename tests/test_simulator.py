import dataclasses
import functools
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest

import qaoa_mimo
from qaoa_mimo import simulator
from qaoa_mimo.errors import ResourceLimitError
from qaoa_mimo.instances import generate_instance
from qaoa_mimo.ising import IsingModel, build_ising, index_to_spins, ising_energy
from qaoa_mimo.simulator import (
    _FLIP_PHASE,
    _FLIPS,
    MIXER_BLOCK,
    MIXER_CACHE,
    PHASE_BLOCK,
    _SIGNS,
    expectation,
    _built_mixer_block,
    _mixer_block,
    _phase,
    hamiltonian_diagonal,
    qaoa_state,
    success_probability,
)


def field_only_model(fields):
    fields = np.asarray(fields, dtype=np.float64)
    n = fields.size
    return IsingModel(
        n=n,
        gram=np.zeros((n, n)),
        matched=-0.5 * fields,
        offset=0.0,
    )


def popcounts(size):
    return np.array([bin(m).count("1") for m in range(size)])


def random_angles(gen, p):
    return np.concatenate([gen.uniform(0, np.pi / 2, p), gen.uniform(0, np.pi, p)])


def reference_diagonal(model):
    """The diagonal as one full pass per field and per coupling."""
    idx = np.arange(1 << model.n, dtype=np.uint64)
    diag = np.zeros(1 << model.n)
    one = np.uint64(1)
    for k, fz in enumerate(-2.0 * model.matched):
        diag += fz * (1.0 - 2.0 * ((idx >> np.uint64(k)) & one))
    for i in range(model.n):
        for j in range(i + 1, model.n):
            w = 2.0 * model.gram[i, j]
            diag += w * (1.0 - 2.0 * (((idx >> np.uint64(i)) ^ (idx >> np.uint64(j))) & one))
    return diag


def reference_evolve(diag, n, angles):
    """The circuit with the mixer as n single-qubit Rx(2 beta) sweeps."""
    dim = 1 << n
    amps = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    p = len(angles) // 2
    for gamma, beta in zip(angles[:p], angles[p:]):
        amps *= np.exp(-1j * gamma * diag)
        c = np.cos(beta)
        s = -1j * np.sin(beta)
        for k in range(n):
            view = amps.reshape(-1, 2, 1 << k)
            a0 = view[:, 0, :].copy()
            a1 = view[:, 1, :]
            view[:, 0, :] = c * a0 + s * a1
            view[:, 1, :] = c * a1 + s * a0
    return amps


class TestAngleVector:
    @pytest.mark.parametrize("angles", [[0.1, 0.2, 0.3], [], np.zeros((2, 2))],
                             ids=["odd", "empty", "2-D"])
    @pytest.mark.parametrize("simulate", [expectation, qaoa_state])
    def test_refused_before_any_diagonal_or_cap_check(self, simulate, angles, diagonal_builds):
        model = build_ising(generate_instance(5, 5, 1.0, seed=5))
        with pytest.raises(ValueError, match="positive even length"):
            simulate(model, angles)
        with pytest.raises(ValueError, match="positive even length"):
            simulate(field_only_model(np.ones(21)), angles)  # not ResourceLimitError
        assert diagonal_builds == [] and model.diagonal is None

    # the simulator takes no thread count: one that a caller still passes is
    # refused before any diagonal is built or any thread started
    @pytest.mark.parametrize("threads", [2.5, "2", True, 0, -3, None])
    @pytest.mark.parametrize("simulate", [expectation, qaoa_state])
    def test_threads_refused_before_any_diagonal_or_pool(self, simulate, threads,
                                                          diagonal_builds):
        model = build_ising(generate_instance(5, 5, 1.0, seed=5))
        started = set(threading.enumerate())
        for target in (model, field_only_model(np.ones(21))):
            with pytest.raises(TypeError):
                simulate(target, [0.1, 0.2], threads)
            with pytest.raises(TypeError):
                simulate(target, [0.1, 0.2], threads=threads)
        assert diagonal_builds == [] and model.diagonal is None
        assert set(threading.enumerate()) <= started

    def test_list_gives_the_bits_of_an_array(self):
        model = build_ising(generate_instance(4, 4, 1.0, seed=4))
        angles = [0.1, 0.2, 0.9, 0.5]
        value, from_array = expectation(model, angles), expectation(model, np.array(angles))
        assert np.float64(value).tobytes() == np.float64(from_array).tobytes()
        assert np.array_equal(qaoa_state(model, angles), qaoa_state(model, np.array(angles)))


class TestDiagonal:
    def test_single_spin(self):
        diag = hamiltonian_diagonal(field_only_model([-2.0]))
        assert np.allclose(diag, [-2.0, 2.0], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_traceless(self, n):
        model = build_ising(generate_instance(n, n, 1.0, seed=n))
        assert abs(hamiltonian_diagonal(model).sum()) <= 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_classical_energy(self, n):
        model = build_ising(generate_instance(n, n, 1.0, seed=40 + n))
        diag = hamiltonian_diagonal(model)
        for m in range(1 << n):
            assert diag[m] == pytest.approx(
                ising_energy(model, index_to_spins(m, n)), abs=1e-12
            )

    # the doubling sums each entry in another order than the per-pair passes
    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_pairwise_reference(self, n):
        model = build_ising(generate_instance(n, n, 1.0, seed=60 + n))
        ref = reference_diagonal(model)
        diff = np.max(np.abs(hamiltonian_diagonal(model) - ref))
        assert diff <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_cap(self):
        model = field_only_model(np.ones(21))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="21 qubits exceeds the simulator cap of 20"):
                hamiltonian_diagonal(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16  # refused before the 16 MB diagonal is allocated


class TestDiagonalReuse:
    def test_built_once_per_model(self, diagonal_builds):
        model = build_ising(generate_instance(4, 4, 1.0, seed=3))
        gen = np.random.default_rng(0)
        for _ in range(5):
            expectation(model, random_angles(gen, 2))
        qaoa_state(model, random_angles(gen, 2))
        assert diagonal_builds == [model]

    def test_stored_diagonal_is_read_only(self):
        model = build_ising(generate_instance(3, 3, 1.0, seed=4))
        expectation(model, [0.2, 0.3])
        assert not model.diagonal.flags.writeable
        with pytest.raises(ValueError):
            model.diagonal[0] = 0.0
        assert np.array_equal(model.diagonal, hamiltonian_diagonal(model))

    def test_cap_checked_on_every_call(self, diagonal_builds):
        # a refused model caches nothing, so each call tries the build again
        model = field_only_model(np.ones(21))
        for simulate in (expectation, expectation, qaoa_state):
            with pytest.raises(ResourceLimitError):
                simulate(model, [0.2, 0.3])
        assert diagonal_builds == [model] * 3 and model.diagonal is None

    @pytest.mark.parametrize("n", range(1, 11))
    def test_reused_diagonal_gives_same_bits(self, n):
        gen = np.random.default_rng(100 + n)
        inst = generate_instance(n, n, 1.0, seed=n)
        reused = build_ising(inst)
        for p in (1, 2, 3):
            for _ in range(2):
                angles = random_angles(gen, p)
                assert expectation(reused, angles) == expectation(build_ising(inst), angles)

    def test_equality_and_repr_ignore_diagonal(self):
        model = build_ising(generate_instance(3, 3, 1.0, seed=6))
        fresh = dataclasses.replace(model)
        text = repr(model)
        expectation(model, [0.2, 0.3])
        assert fresh.diagonal is None and model.diagonal is not None
        assert model == fresh
        assert repr(model) == text == repr(fresh)


class TestBlockedMixer:
    # The blocked mixer sums in another order than the sweeps, so the
    # tolerances are fixed in advance from float64 roundoff.
    AMPLITUDE_ATOL = 1e-13
    EXPECTATION_RTOL = 1e-12

    # covers n = MIXER_BLOCK, MIXER_BLOCK + 1 and 2 * MIXER_BLOCK + 1, the
    # lowest block narrower than the others (n = 4, 5 and 7) and the lowest
    # block's rows cut into a stack (n = 16)
    @pytest.mark.parametrize("n", [*range(1, max(15, 2 * MIXER_BLOCK + 2)), 16])
    def test_matches_single_qubit_sweeps(self, n):
        gen = np.random.default_rng(200 + n)
        model = build_ising(generate_instance(n, n, 1.0, seed=n))
        diag = hamiltonian_diagonal(model)
        for p in (1, 2, 3):
            angles = random_angles(gen, p)
            ref = reference_evolve(diag, n, angles)
            got = qaoa_state(model, angles)
            assert np.max(np.abs(got - ref)) <= self.AMPLITUDE_ATOL
            ref_value = float((ref.real**2 + ref.imag**2) @ diag)
            assert abs(expectation(model, angles) - ref_value) <= (
                self.EXPECTATION_RTOL * max(1.0, abs(ref_value))
            )

    def test_expectation_bits_do_not_depend_on_blas_threads(self):
        src = os.path.dirname(os.path.dirname(qaoa_mimo.__file__))
        code = (
            f"import sys; sys.path.insert(0, {src!r})\n"
            "from qaoa_mimo.instances import generate_instance\n"
            "from qaoa_mimo.ising import build_ising\n"
            "from qaoa_mimo.simulator import expectation\n"
            "model = build_ising(generate_instance(16, 16, 1.0, seed=16))\n"
            "print(repr(expectation(model, [0.1, 0.2, 0.3, 0.9, 0.5, 0.2])))\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code], env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=60, check=True,
            ).stdout
            for threads in ("1", "2")
        }
        assert len(outputs) == 1

    # the mixer on w qubits: one complex block up to MIXER_BLOCK qubits, above
    # it the lowest block complex and the others real, taken out of the
    # rotated frame D = diag(i^popcount(m >> w0))
    @pytest.mark.parametrize("w", range(1, 2 * MIXER_BLOCK))
    def test_block_unitary_is_kron_of_rx(self, w):
        low, *high = simulator._block_widths(w)
        frame = np.repeat(np.array([1, 1j, -1, -1j])[popcounts(1 << w - low) % 4], 1 << low)
        for beta in (0.0, 0.3, -1.1, np.pi / 2, 2.9):
            rx = np.array(
                [[np.cos(beta), -1j * np.sin(beta)], [-1j * np.sin(beta), np.cos(beta)]]
            )
            expected = functools.reduce(np.kron, [rx] * w)
            # np.kron's left factor acts on the high bits
            blocks = [_mixer_block(v, beta)[1] for v in reversed(high)]
            mixer = functools.reduce(np.kron, [*blocks, _mixer_block(low, beta)[0]])
            mixer = frame[:, None] * mixer * frame.conj()
            assert np.allclose(mixer, expected, rtol=0, atol=1e-15)


def fresh_mixer_block(w, beta):
    """The complex block as built before blocks were cached, for every call."""
    d = np.arange(w + 1)
    factors = np.cos(beta) ** (w - d) * np.sin(beta) ** d * _FLIP_PHASE[: w + 1]
    return factors[_FLIPS[: 1 << w, : 1 << w]]


def fresh_real_block(w, beta):
    """The real block in the rotated frame, for every call."""
    d = np.arange(w + 1)
    magnitudes = np.cos(beta) ** (w - d) * np.sin(beta) ** d
    return magnitudes[_FLIPS[: 1 << w, : 1 << w]] * _SIGNS[: 1 << w, : 1 << w]


class TestMixerCache:
    # 0.0 and -0.0 compare equal, and so do their hashes; their blocks do not
    BETAS = (0.0, -0.0, np.pi, np.nextafter(np.pi, 4.0))

    def test_cached_block_is_read_only(self):
        blocks = _mixer_block(3, 0.7)
        for block in blocks:
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0, 0] = 0.0
        assert _mixer_block(3, 0.7) is blocks

    def test_cached_blocks_equal_fresh_builds(self):
        _built_mixer_block.cache_clear()
        # a list, not a dict: a dict keyed on beta would merge 0.0 and -0.0 itself
        cached = [(w, beta, _mixer_block(w, beta))
                  for w in range(1, MIXER_BLOCK + 1) for beta in self.BETAS]
        for w, beta, (block, real) in cached:
            assert block.tobytes() == fresh_mixer_block(w, beta).tobytes(), (w, beta)
            assert real.tobytes() == fresh_real_block(w, beta).tobytes(), (w, beta)
        # each pair of betas has a width whose fresh blocks differ, so a key
        # that merged them would have handed one the other's block above
        for a, b in zip(self.BETAS[::2], self.BETAS[1::2]):
            assert any(fresh_mixer_block(w, a).tobytes() != fresh_mixer_block(w, b).tobytes()
                       for w in range(1, MIXER_BLOCK + 1)), (a, b)

    @pytest.mark.parametrize("n", [2, 3, 6, 7])
    def test_expectation_bits_with_cold_and_warm_cache(self, n):
        model = build_ising(generate_instance(n, n, 1.0, seed=n))
        angles = [0.1, 0.2, 0.3, 0.9, -0.0, 0.9]
        _built_mixer_block.cache_clear()
        cold = expectation(model, angles)
        assert _built_mixer_block.cache_info().hits > 0  # the third layer reuses the first's
        warm = expectation(model, angles)
        assert np.float64(cold).tobytes() == np.float64(warm).tobytes()

    def test_size_is_bounded(self):
        assert _built_mixer_block.cache_info().maxsize == MIXER_CACHE
        for k in range(MIXER_CACHE + 10):
            _mixer_block(1 + k % MIXER_BLOCK, 0.01 * k)
        assert _built_mixer_block.cache_info().currsize == MIXER_CACHE


class TestSerialMixer:
    @pytest.mark.parametrize("n", [1, 4, 6, 11, 16, 17, 18])
    def test_every_product_stays_on_one_thread(self, n, matmul_products):
        model = build_ising(generate_instance(n, n, 1.0, seed=n))
        products = matmul_products(simulator)
        expectation(model, [0.1, 0.2, 0.9, 0.5])
        # one np.matmul per block and layer: the lowest block's complex products
        # of `rows` amplitudes, then each real block's products of `cols` floats
        low, *high = simulator._block_widths(n)
        layer = [min(1 << n - low, simulator._SERIAL_MATMUL >> 2 * low) << 2 * low]
        below = low
        for w in high:
            layer.append(min(2 << below, simulator._SERIAL_MATMUL >> 2 * w) << 2 * w)
            below += w
        assert products == 2 * layer
        assert max(products) <= simulator._SERIAL_MATMUL

    @pytest.mark.parametrize("n", [5, 11, 16])
    def test_stacked_products_give_the_bits_of_one_product(self, n, monkeypatch):
        model = build_ising(generate_instance(n, n, 1.0, seed=n))
        angles = [0.1, 0.2, 0.3, 0.9, 0.5, 0.2]
        stacked = qaoa_state(model, angles)
        monkeypatch.setattr(simulator, "_SERIAL_MATMUL", 1 << 62)
        assert np.array_equal(stacked, qaoa_state(model, angles))


# Runs one evaluation in a fresh interpreter, whose OpenBLAS starts with the
# thread count of its environment; `chunk` products a np.matmul call, or the
# whole stack if None.  Prints the state's sha256 and the expectation's bytes.
SPLIT_RUN = textwrap.dedent("""
    import hashlib, sys
    sys.path.insert(0, {src!r})
    import numpy as np
    from qaoa_mimo import simulator
    from qaoa_mimo.instances import generate_instance
    from qaoa_mimo.ising import build_ising

    class ChunkedNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, a, b, out):
            # cut the stack axis next to each product's rows and columns
            for outer in np.ndindex(out.shape[:-3]):
                for start in range(0, out.shape[-3], {chunk}):
                    part = (*outer, slice(start, start + {chunk}))
                    np.matmul(a[part] if a.ndim > 2 else a, b[part] if b.ndim > 2 else b,
                              out=out[part])
            return out

    if {chunk} is not None:
        simulator.np = ChunkedNumpy()
    model = build_ising(generate_instance({n}, {n}, 1.0, seed={n}))
    state = simulator.qaoa_state(model, {angles!r})
    value = simulator.expectation(model, {angles!r})
    print(hashlib.sha256(state.tobytes()).hexdigest(), np.float64(value).tobytes().hex())
""")


@functools.lru_cache(maxsize=None)
def split_run(n, chunk, threads):
    src = os.path.dirname(os.path.dirname(qaoa_mimo.__file__))
    code = SPLIT_RUN.format(src=src, n=n, chunk=chunk, angles=TestSplitMixer.ANGLES)
    return subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, OPENBLAS_NUM_THREADS=str(threads)),
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout


class TestSplitMixer:
    """The mixer split into blocks, and each block's product into a stack of
    products small enough for OpenBLAS to run on the calling thread."""

    ANGLES = [0.1, 0.2, 0.3, 0.9, 0.5, 0.2]

    # the bits depend neither on OpenBLAS's thread count nor on how the stack
    # of products is cut into np.matmul calls
    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("n, chunk", [
        pytest.param(n, chunk, id=str(n) if chunk is None else f"{n}-chunk{chunk}")
        for n, chunk in [(17, 1), (17, 5), (17, None), (17, 64), (18, None), (20, None)]
    ])
    def test_bits_do_not_depend_on_split_width(self, n, chunk, threads):
        serial = split_run(n, None, 1)
        assert len(serial.split()) == 2
        assert split_run(n, chunk, threads) == serial

    def test_default_runs_on_the_calling_thread(self, monkeypatch):
        n = 17
        model = build_ising(generate_instance(n, n, 1.0, seed=n))
        callers = set()

        class ThreadNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, *args, **kwargs):
                callers.add(threading.get_ident())
                return np.matmul(*args, **kwargs)

        started = set(threading.enumerate())
        monkeypatch.setattr(simulator, "np", ThreadNumpy())
        expectation(model, self.ANGLES)
        qaoa_state(model, self.ANGLES)
        assert callers == {threading.get_ident()}
        assert set(threading.enumerate()) <= started


class TestRotatedFrame:
    ANGLES = [0.1, 0.2, 0.3, 0.9, 0.5, 0.2]

    # the frame D = diag(i^popcount) turns the real block into the complex one,
    # with not even a rounding between them
    @pytest.mark.parametrize("w", range(1, MIXER_BLOCK + 1))
    def test_real_block_is_the_complex_block_in_the_frame(self, w):
        frame = np.array([1, 1j, -1, -1j])[popcounts(1 << w) % 4]
        for beta in (0.0, -0.0, np.pi / 2, 1e-300, *np.random.default_rng(w).uniform(-4, 4, 5)):
            block, real = _mixer_block(w, beta)
            assert real.dtype == np.float64
            assert np.array_equal(frame[:, None] * real * frame.conj(), block), beta

    # expectation stays in the frame; the state qaoa_state returns has left it,
    # and both have the same probabilities
    @pytest.mark.parametrize("n", [4, 6, 11, 18])
    def test_expectation_is_the_energy_of_the_returned_state(self, n):
        model = build_ising(generate_instance(n, n, 1.0, seed=n))
        amps = qaoa_state(model, self.ANGLES)
        value = float(np.sum((amps.real**2 + amps.imag**2) * model.diagonal))
        assert np.float64(expectation(model, self.ANGLES)).tobytes() == np.float64(value).tobytes()
        # np.abs rounds |amplitude| first; the energies cancel, so the scale is max |diag|
        scale = np.max(np.abs(model.diagonal))
        assert abs(value - np.sum(np.abs(amps) ** 2 * model.diagonal)) <= 1e-14 * scale

    def test_state_peaks_below_three_statevectors(self):
        # leaving the frame keeps no table of 2^n phases
        n = 18
        model = build_ising(generate_instance(n, n, 1.0, seed=n))
        qaoa_state(model, self.ANGLES)  # builds and keeps the diagonal
        tracemalloc.start()
        try:
            qaoa_state(model, self.ANGLES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * 16 * (1 << n)


class TestPhase:
    GAMMAS = (0.05, -0.4, np.pi / 8, 1.0, np.pi / 2)

    @pytest.mark.parametrize("n", range(PHASE_BLOCK - 1, PHASE_BLOCK + 4))
    def test_matches_exp_of_diagonal(self, n):
        model = build_ising(generate_instance(n, n, 1.0, seed=80 + n))
        diag = hamiltonian_diagonal(model)
        out = np.empty(1 << n, dtype=np.complex128)
        for gamma in self.GAMMAS:
            ref = np.exp(-1j * gamma * diag)
            got = _phase(model, diag, gamma, out)
            if n <= PHASE_BLOCK:
                assert np.array_equal(got, ref)
            else:
                # each angle is a sum of at most n + 1 rounded terms
                tol = 4 * n * np.finfo(float).eps * max(1.0, abs(gamma) * np.max(np.abs(diag)))
                assert np.max(np.abs(got - ref)) <= tol

    # the first layer is |+>^n times the phase, in the rotated frame: times
    # (-i)^popcount(m >> w0), which is 1 everywhere at n <= MIXER_BLOCK
    @pytest.mark.parametrize("n", [3, PHASE_BLOCK])
    def test_scaled_first_layer_is_uniform_state_times_phase(self, n):
        model = build_ising(generate_instance(n, n, 1.0, seed=n))
        diag = hamiltonian_diagonal(model)
        dim = 1 << n
        got = _phase(model, diag, 0.3, np.empty(dim, dtype=np.complex128), first=True)
        frame = np.array([1, -1j, -1, 1j])[popcounts(dim >> simulator._block_widths(n)[0]) % 4]
        ref = np.repeat(frame, dim // frame.size) / np.sqrt(dim) * np.exp(-0.3j * diag)
        assert np.array_equal(got, ref)

    def test_cached_expectation_peaks_below_three_statevectors(self):
        n = 16
        model = build_ising(generate_instance(n, n, 1.0, seed=n))
        angles = [0.1, 0.2, 0.3, 0.9, 0.5, 0.2]
        expectation(model, angles)  # builds and keeps the diagonal
        tracemalloc.start()
        try:
            expectation(model, angles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * 16 * (1 << n)

    def test_split_expectation_peaks_below_three_statevectors(self):
        # the real blocks' products, split into a stack of float64 views of the
        # complex state, allocate no buffer
        n = 18
        model = build_ising(generate_instance(n, n, 1.0, seed=n))
        angles = [0.1, 0.2, 0.3, 0.9, 0.5, 0.2]
        expectation(model, angles)  # builds and keeps the diagonal
        tracemalloc.start()
        try:
            expectation(model, angles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * 16 * (1 << n)


class TestQaoaState:
    @pytest.mark.parametrize("n", [1, 3, 11])
    def test_returns_amplitude_array(self, n):
        model = build_ising(generate_instance(n, n, 1.0, seed=n))
        amps = qaoa_state(model, [0.3, 0.4])
        assert type(amps) is np.ndarray
        assert amps.shape == (1 << n,) and amps.dtype == np.complex128

    def test_identity_circuit(self):
        model = build_ising(generate_instance(3, 3, 1.0, seed=0))
        amps = qaoa_state(model, [0.0, 0.0])
        assert np.allclose(amps, np.full(8, 2 ** -1.5), atol=1e-12)

    def test_phase_only_keeps_uniform_probabilities(self):
        model = build_ising(generate_instance(4, 4, 1.0, seed=1))
        amps = qaoa_state(model, [0.0, 0.7])
        probs = np.abs(amps) ** 2
        assert np.allclose(probs, 1.0 / 16.0, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_unit_norm(self, p):
        gen = np.random.default_rng(p)
        model = build_ising(generate_instance(5, 5, 1.0, seed=p))
        amps = qaoa_state(model, random_angles(gen, p))
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) <= 1e-12


class TestExpectation:
    def test_zero_angles(self):
        model = build_ising(generate_instance(4, 4, 1.0, seed=2))
        assert abs(expectation(model, [0.0, 0.0])) <= 1e-12

    def test_zero_beta_any_gamma(self):
        gen = np.random.default_rng(3)
        for _ in range(5):
            model = build_ising(generate_instance(4, 4, 1.0, seed=int(gen.integers(1000))))
            angles = np.concatenate([gen.uniform(0, 2, 2), [0.0, 0.0]])
            assert abs(expectation(model, angles)) <= 1e-12

    def test_within_spectral_range(self):
        gen = np.random.default_rng(4)
        for _ in range(10):
            model = build_ising(generate_instance(5, 5, 1.0, seed=int(gen.integers(1000))))
            diag = hamiltonian_diagonal(model)
            value = expectation(model, random_angles(gen, 3))
            assert diag.min() - 1e-9 <= value <= diag.max() + 1e-9

    # below and above PHASE_BLOCK, and in and out of the rotated frame
    @pytest.mark.parametrize("n", [3, 17])
    def test_overflowing_angles_come_out_nan(self, n):
        model = build_ising(generate_instance(n, n, 1.0, seed=n))
        for angles in ([1e308, 0.3], [0.2, np.inf], [np.nan, 0.1, 0.2, 0.3]):
            assert np.isnan(expectation(model, angles))
            assert np.isnan(qaoa_state(model, angles)).all()


class TestSuccessProbability:
    def test_uniform_state(self):
        amps = np.full(64, 1 / 8, dtype=np.complex128)
        assert success_probability(amps, [1, -1, 1, -1, 1, -1]) == pytest.approx(1 / 64)

    def test_sums_to_one(self):
        gen = np.random.default_rng(7)
        model = build_ising(generate_instance(4, 4, 1.0, seed=8))
        amps = qaoa_state(model, random_angles(gen, 2))
        total = sum(
            success_probability(amps, index_to_spins(m, 4)) for m in range(16)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_large_shot_frequency(self):
        gen = np.random.default_rng(9)
        model = build_ising(generate_instance(4, 4, 1.0, seed=10))
        amps = qaoa_state(model, random_angles(gen, 2))
        x = index_to_spins(5, 4)
        prob = success_probability(amps, x)
        shots = 200_000
        counts = np.random.default_rng(11).multinomial(shots, amps.real**2 + amps.imag**2)
        freq = counts[5] / shots
        assert abs(freq - prob) <= 5 * np.sqrt(prob * (1 - prob) / shots)

    def test_length_mismatch(self):
        amps = np.full(4, 0.5, dtype=np.complex128)
        for x in ([1, 1, 1], [1], [[1, 1]]):
            with pytest.raises(ValueError):
                success_probability(amps, x)
