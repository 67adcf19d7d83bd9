"""Exact dense statevector simulation of the QAOA circuit.

The problem Hamiltonian is diagonal in the computational basis, so one
layer is an elementwise phase exp(-i gamma * diag) followed by the mixer
exp(-i beta * sum_j X_j) = Rx(2 beta)^{(x) n}.  The mixer splits the n
qubits into near-equal blocks of at most MIXER_BLOCK qubits and applies
each block's Rx(2 beta)^{(x) w} as a dense 2^w x 2^w matrix product, so
it makes ceil(n / MIXER_BLOCK) passes over the amplitudes instead of n
single-qubit sweeps.  Expectations are computed exactly from the
final probabilities (infinite-shot limit); finite-shot sampling exists
only for readout-style reporting.  A model's diagonal is built the first
time it is simulated and kept with the model for every later call.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError
from .ising import index_to_bitstring, spins_to_index
from .rng import STREAM_SAMPLE, substream

# 2^20 complex doubles is 16 MB; anything larger needs an explicit override.
DEFAULT_QUBIT_CAP = 20

# Widest mixer block: a 32 x 32 unitary per pass over the amplitudes.
MIXER_BLOCK = 5

# _FLIPS[i, j] = popcount(i ^ j), the number of qubits on which basis states
# i and j differ; its top-left 2^w x 2^w corner serves a block of w qubits.
_FLIPS = np.array([bin(m).count("1") for m in range(1 << MIXER_BLOCK)])[
    np.bitwise_xor.outer(np.arange(1 << MIXER_BLOCK), np.arange(1 << MIXER_BLOCK))
]
# (-i)^d for d flips
_FLIP_PHASE = np.array([1, -1j, -1, 1j])[np.arange(MIXER_BLOCK + 1) % 4]


@dataclass(frozen=True)
class QaoaParams:
    """Circuit depth p and the 2p variational angles."""

    p: int
    gammas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gammas", np.asarray(self.gammas, dtype=np.float64))
        object.__setattr__(self, "betas", np.asarray(self.betas, dtype=np.float64))
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.gammas.shape != (self.p,) or self.betas.shape != (self.p,):
            raise ValueError("gammas and betas must both have length p")

    @classmethod
    def from_vector(cls, theta):
        """Split a flat angle vector (gammas first, then betas) at p = len/2."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim != 1 or theta.size % 2 != 0:
            raise ValueError("angle vector must be 1-D with even length")
        p = theta.size // 2
        return cls(p=p, gammas=theta[:p], betas=theta[p:])

    def to_vector(self):
        return np.concatenate([self.gammas, self.betas])


@dataclass
class Statevector:
    """Amplitudes over the 2^n computational basis (bit k of the index = qubit k)."""

    n: int
    amplitudes: np.ndarray = field(repr=False)


def _check_cap(n, max_qubits):
    if n > max_qubits:
        raise ResourceLimitError(
            f"{n} qubits exceeds the simulator cap of {max_qubits}"
        )


def hamiltonian_diagonal(model, max_qubits=DEFAULT_QUBIT_CAP):
    """Diagonal of the problem Hamiltonian over all 2^n basis states.

    Entry m is the classical spin energy of the symbol vector encoded by
    index m, built from the fields -2*matched[k] and couplings 2*gram[i, j]
    via the bit identities s_k = 1 - 2*bit_k and s_i s_j = 1 - 2*(bit_i ^ bit_j).
    """
    _check_cap(model.n, max_qubits)
    dim = 1 << model.n
    idx = np.arange(dim, dtype=np.uint64)
    diag = np.zeros(dim)
    one = np.uint64(1)
    for k, fz in enumerate(-2.0 * model.matched):
        diag += fz * (1.0 - 2.0 * ((idx >> np.uint64(k)) & one))
    gram = model.gram.tolist()  # Python floats: per-pair numpy indexing dominates at small n
    for i in range(model.n):
        for j in range(i + 1, model.n):
            w = 2.0 * gram[i][j]
            if w != 0.0:
                diag += w * (1.0 - 2.0 * (((idx >> np.uint64(i)) ^ (idx >> np.uint64(j))) & one))
    return diag


def _model_diagonal(model, max_qubits):
    """The model's diagonal: built on first use, then kept with the model."""
    _check_cap(model.n, max_qubits)
    if model.diagonal is None:
        diag = hamiltonian_diagonal(model, max_qubits)
        diag.flags.writeable = False
        object.__setattr__(model, "diagonal", diag)
    return model.diagonal


def _mixer_block(w, beta):
    """Rx(2 beta)^{(x) w} as a 2^w x 2^w matrix.

    Entry (i, j) is cos(beta)^(w-d) * (-i sin(beta))^d with d = popcount(i ^ j).
    """
    d = np.arange(w + 1)
    factors = np.cos(beta) ** (w - d) * np.sin(beta) ** d * _FLIP_PHASE[: w + 1]
    return factors[_FLIPS[: 1 << w, : 1 << w]]


def _block_widths(n):
    """ceil(n / MIXER_BLOCK) near-equal widths summing to n."""
    blocks = -(-n // MIXER_BLOCK)
    return [(n + i) // blocks for i in range(blocks)]


def _evolve(diag, n, params):
    dim = 1 << n
    amps = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    spare = np.empty_like(amps)  # every layer reuses these two buffers
    widths = _block_widths(n)
    for gamma, beta in zip(params.gammas, params.betas):
        amps *= np.exp(np.multiply(-1j * gamma, diag, out=spare), out=spare)
        for w in widths:
            # spare = mixer @ amps.reshape(-1, 2^w).T moves this block (the low
            # w bits) to the top bits, so after all blocks every qubit is
            # back in place.
            mixer = _mixer_block(w, beta)
            np.matmul(mixer, amps.reshape(-1, 1 << w).T, out=spare.reshape(1 << w, -1))
            amps, spare = spare, amps
    return amps


def qaoa_state(model, params, max_qubits=DEFAULT_QUBIT_CAP):
    """Statevector after p alternating phase/mixer layers on |+>^n."""
    diag = _model_diagonal(model, max_qubits)
    return Statevector(n=model.n, amplitudes=_evolve(diag, model.n, params))


def expectation(model, params, max_qubits=DEFAULT_QUBIT_CAP):
    """Exact <H_C> in the variational state (no shot noise)."""
    diag = _model_diagonal(model, max_qubits)
    amps = _evolve(diag, model.n, params)
    probs = amps.real**2 + amps.imag**2
    # not probs @ diag: OpenBLAS splits a long dot product across threads,
    # which makes its roundoff depend on the thread count
    return float(np.sum(probs * diag))


def sample(state, shots, seed):
    """Multinomial measurement counts, deterministic in ``seed``.

    Returns a dict mapping bitstrings (antenna 1 leftmost) to counts;
    zero-count strings are omitted.  Counts sum to ``shots``.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    amps = state.amplitudes
    probs = amps.real**2 + amps.imag**2
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    gen = substream(seed, STREAM_SAMPLE)
    counts = gen.multinomial(shots, probs)
    return {
        index_to_bitstring(m, state.n): int(c)
        for m, c in enumerate(counts)
        if c > 0
    }


def success_probability(state, x):
    """Probability of measuring the basis state that encodes symbol vector x."""
    x = np.asarray(x)
    if x.shape != (state.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({state.n},)")
    amp = state.amplitudes[spins_to_index(x)]
    return float(amp.real**2 + amp.imag**2)
