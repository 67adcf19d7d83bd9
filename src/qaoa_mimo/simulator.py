"""Exact dense statevector simulation of the QAOA circuit.

A circuit's angles are one flat vector, the one the optimizers search:
the p phase angles gamma, then the p mixer angles beta.  The problem
Hamiltonian is diagonal in the computational basis, so one layer is an
elementwise phase exp(-i gamma * diag) followed by the mixer
exp(-i beta * sum_j X_j) = Rx(2 beta)^{(x) n}.

The diagonal is built by doubling over qubits.  With the qubits above k
in their bit-0 state, flipping qubit k changes the energy by a cost that
depends only on the qubits below it, so entries 2^k .. 2^(k+1) - 1 are
entries 0 .. 2^k - 1 plus a table of those costs, itself doubled over the
lower qubits: O(2^n) additions in all.  Each phase layer seeds the same
recursion with np.exp over the lowest PHASE_BLOCK qubits and doubles the
rest with products of phase factors, so it takes O(n^2) complex
exponentials instead of 2^n.

The mixer splits the n qubits into near-equal blocks of at most
MIXER_BLOCK qubits and applies each block's Rx(2 beta)^{(x) w} as a
2^w x 2^w matrix product, so it makes ceil(n / MIXER_BLOCK) passes over
the amplitudes instead of n single-qubit sweeps.  The state is evolved in
the rotated frame D^-1 psi, D = diag(i^popcount(m >> w0)) with w0 the
width of the lowest block.  D commutes with every phase layer and leaves
every probability as it is; in its frame each block above the lowest is
the real matrix cos(beta)^(w-d) sin(beta)^d (-1)^popcount(i & ~j), with
d = popcount(i ^ j), which acts on the real and imaginary parts alike as
a float64 product: half the multiply-adds of a complex one.  The first
phase layer enters the frame, and qaoa_state leaves it.  Every product is
computed as a stack of products small enough for OpenBLAS to run on the
calling thread, so the bits do not depend on its thread count.  A block
depends only on its width and beta, so each (width, beta) pair's complex
and real blocks are built together once and kept read-only in a cache of
at most MIXER_CACHE pairs: every model of one ensemble evaluation shares
the blocks of its layers, and an n = 6 layer's two width-3 blocks are one.

Expectations are computed exactly from the final probabilities
(infinite-shot limit).  A model's diagonal is built the first time it
is simulated and kept with the model for every later call; a model of
more than DEFAULT_QUBIT_CAP qubits is refused when that build starts.
"""

import functools

import numpy as np

from .errors import ResourceLimitError
from .ising import spins_to_index

# Most qubits simulated: 2^20 complex doubles is 16 MB.
DEFAULT_QUBIT_CAP = 20

# Widest mixer block: an 8 x 8 block per pass over the amplitudes.  Real
# blocks make narrow ones pay: a p = 3 evaluation at n = 18 on one CPU took
# 28 ms with width 3, 31 ms with width 4 and 41 ms with width 5.
MIXER_BLOCK = 3

# Mixer block pairs kept, least recently used dropped first: all of a
# p <= 32 circuit's (two widths per layer), in at most 64 x 1.5 KB.
MIXER_CACHE = 64

# Largest matrix product (m * n * k multiply-adds) that OpenBLAS runs on
# the thread that calls it.  A product OpenBLAS splits across its own
# threads rounds as that split does, so a larger product is computed as a
# stack of these instead.
_SERIAL_MATMUL = 1 << 15

# Lowest qubits whose phase is one np.exp per amplitude; each higher qubit
# is doubled from them (see _phase).  Doubling from 10 qubits is faster
# than np.exp over all amplitudes from n = 12 on.
PHASE_BLOCK = 10


@functools.lru_cache(maxsize=None)
def _popcounts(bits):
    """popcount(m) for m < 2^bits, doubled over the bits; read-only."""
    counts = np.zeros(1 << bits, dtype=np.intp)
    for k in range(bits):
        np.add(counts[: 1 << k], 1, out=counts[1 << k : 2 << k])
    counts.flags.writeable = False
    return counts


_STATES = np.arange(1 << MIXER_BLOCK)
# _FLIPS[i, j] = popcount(i ^ j), the number of qubits on which basis states
# i and j differ; its top-left 2^w x 2^w corner serves a block of w qubits.
_FLIPS = _popcounts(MIXER_BLOCK)[np.bitwise_xor.outer(_STATES, _STATES)]
# (-1)^popcount(i & ~j): the signs of the real block in the rotated frame
_SIGNS = 1.0 - 2.0 * (_popcounts(MIXER_BLOCK)[_STATES[:, None] & ~_STATES] % 2)
# (-i)^k and i^k for k mod 4
_MINUS_I_POWERS = np.array([1, -1j, -1, 1j])
_I_POWERS = _MINUS_I_POWERS.conj()
# (-i)^d for d flips
_FLIP_PHASE = _MINUS_I_POWERS[np.arange(MIXER_BLOCK + 1) % 4]


def _angle_vector(angles):
    """The angles (p phase angles, then p mixer angles) as a float64 array;
    ValueError unless they are 1-D with a positive even length."""
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 1 or angles.size == 0 or angles.size % 2:
        raise ValueError(f"angles have shape {angles.shape}: need 1-D with a positive even length")
    return angles


def _flip_costs(model):
    """The doubling's inputs, from fields f_k = -2 matched[k] and couplings
    J_kj = 2 gram[k, j]: the energy of the all-(+1) state, the change
    -2 (f_k + sum_j J_kj) from flipping spin k alone there, and 4 J, since
    flipping spin j as well adds 4 J_kj to spin k's flip cost."""
    coupling = 2.0 * model.gram
    np.fill_diagonal(coupling, 0.0)
    fields = -2.0 * model.matched
    pulls = coupling.sum(axis=1)
    return 0.5 * pulls.sum() + fields.sum(), -2.0 * (fields + pulls), 4.0 * coupling


def _double(table, k, start, steps, op):
    """Fill table[2^k : 2^(k+1)] from table[:2^k]: entry m of the new half
    is table[m] op start op steps[j] for every set bit j < k of m."""
    half = table[1 << k : 2 << k]
    half[0] = start
    for j in range(k):
        op(half[: 1 << j], steps[j], out=half[1 << j : 2 << j])
    op(half, table[: 1 << k], out=half)


def hamiltonian_diagonal(model):
    """Diagonal of the problem Hamiltonian over all 2^n basis states.

    Entry m is the classical spin energy of the symbol vector encoded by
    index m (bit k set means spin k is -1), built by doubling over qubits.
    ResourceLimitError above DEFAULT_QUBIT_CAP qubits, before any allocation.
    """
    if model.n > DEFAULT_QUBIT_CAP:
        raise ResourceLimitError(f"{model.n} qubits exceeds the simulator cap of {DEFAULT_QUBIT_CAP}")
    energy, flips, steps = _flip_costs(model)
    diag = np.empty(1 << model.n)
    diag[0] = energy
    for k in range(model.n):
        _double(diag, k, flips[k], steps[k], np.add)
    return diag


def _model_diagonal(model):
    """The model's diagonal: built on first use, then kept with the model."""
    if model.diagonal is None:
        diag = hamiltonian_diagonal(model)
        diag.flags.writeable = False
        object.__setattr__(model, "diagonal", diag)
    return model.diagonal


def _mixer_block(w, beta):
    """Rx(2 beta)^{(x) w} as a complex 2^w x 2^w matrix, and its real form in
    the rotated frame; both read-only, built once per width and bit pattern
    of beta (so -0.0 and 0.0 stay apart) and kept in a cache of at most
    MIXER_CACHE pairs."""
    return _built_mixer_block(w, np.float64(beta).tobytes())


@functools.lru_cache(maxsize=MIXER_CACHE)
def _built_mixer_block(w, beta_bytes):
    """Entry (i, j) is cos(beta)^(w-d) sin(beta)^d times (-i)^d in the complex
    block and times (-1)^popcount(i & ~j) in the real one, d = popcount(i ^ j)."""
    beta = np.frombuffer(beta_bytes)[0]
    d = np.arange(w + 1)
    magnitudes = np.cos(beta) ** (w - d) * np.sin(beta) ** d
    flips, signs = _FLIPS[: 1 << w, : 1 << w], _SIGNS[: 1 << w, : 1 << w]
    blocks = (magnitudes * _FLIP_PHASE[: w + 1])[flips], magnitudes[flips] * signs
    for block in blocks:
        block.flags.writeable = False
    return blocks


def _block_widths(n):
    """ceil(n / MIXER_BLOCK) near-equal widths summing to n, narrowest first."""
    blocks = -(-n // MIXER_BLOCK)
    return [(n + i) // blocks for i in range(blocks)]


@functools.lru_cache(maxsize=None)  # one table per n, at most 2^PHASE_BLOCK entries
def _frame_seed(n):
    """|+>^n in the rotated frame over the lowest min(n, PHASE_BLOCK) qubits:
    (-i)^popcount(m >> w0) / sqrt(2^n), w0 the lowest block's width."""
    low, seed_qubits = _block_widths(n)[0], min(n, PHASE_BLOCK)
    phases = _MINUS_I_POWERS[np.repeat(_popcounts(seed_qubits - low) % 4, 1 << low)]
    seed = phases * (1.0 / np.sqrt(1 << n))
    seed.flags.writeable = False
    return seed


def _phase(model, diag, gamma, out, first=False):
    """exp(-i gamma diag) into ``out``: np.exp over the lowest PHASE_BLOCK
    qubits, doubled over the others.  The ``first`` layer acts on |+>^n and
    enters the rotated frame: it is times _frame_seed on the lowest qubits,
    and each higher qubit's flip factor is times -i."""
    seed = out[: 1 << min(model.n, PHASE_BLOCK)]
    np.exp(np.multiply(-1j * gamma, diag[: seed.size], out=seed), out=seed)
    if first:
        seed *= _frame_seed(model.n)
    if model.n > PHASE_BLOCK:
        _, flips, steps = _flip_costs(model)
        flips, steps = np.exp(-1j * gamma * flips), np.exp(-1j * gamma * steps)
        if first:  # every qubit from PHASE_BLOCK on is above the lowest block
            flips *= -1j
        for k in range(PHASE_BLOCK, model.n):
            _double(out, k, flips[k], steps[k], np.multiply)
    return out


# A phase that overflows comes out NaN, which every optimizer refuses as a failed
# evaluation; numpy's warning about it would only add noise to stderr.
@np.errstate(over="ignore", invalid="ignore")
def _evolve(model, diag, angles):
    """The amplitudes after every layer, in the rotated frame D^-1 psi."""
    dim = 1 << model.n
    p = angles.size // 2
    amps = np.empty(dim, dtype=np.complex128)
    spare = np.empty_like(amps)  # every layer reuses these two buffers
    low, *high = _block_widths(model.n)
    rows = min(dim >> low, _SERIAL_MATMUL >> 2 * low)
    # gamma and beta are np.float64 scalars, the type -1j * gamma and the mixer
    # cache key were pinned with
    for layer, (gamma, beta) in enumerate(zip(angles[:p], angles[p:])):
        if layer == 0:
            _phase(model, diag, gamma, amps, first=True)
        else:
            amps *= _phase(model, diag, gamma, spare)
        # the lowest block's bits are the last axis: each row of amplitudes is
        # times the block, which is symmetric.  Taken as block.T, a circuit of
        # one block (one row) is the BLAS matrix-vector product of block @
        # column, so its bits are those of an unrotated complex mixer
        shape = (-1, rows, 1 << low)
        np.matmul(amps.reshape(shape), _mixer_block(low, beta)[0].T, out=spare.reshape(shape))
        amps, spare = spare, amps
        below = low
        for w in high:
            # bits [below, below + w) are the rows of the real block's product;
            # the lower bits with re/im, 2^(below + 1) floats, are its columns,
            # cut into a stack of products small enough for one thread
            cols = min(2 << below, _SERIAL_MATMUL >> 2 * w)
            shape = (-1, 1 << w, (2 << below) // cols, cols)
            src = amps.view(np.float64).reshape(shape).transpose(0, 2, 1, 3)
            dst = spare.view(np.float64).reshape(shape).transpose(0, 2, 1, 3)
            np.matmul(_mixer_block(w, beta)[1], src, out=dst)
            amps, spare = spare, amps
            below += w
    return amps


def qaoa_state(model, angles):
    """Amplitudes after the p phase/mixer layers of ``angles`` on |+>^n: a
    complex array of length 2^n (bit k of the index = qubit k)."""
    angles = _angle_vector(angles)
    amps = _evolve(model, _model_diagonal(model), angles)
    # leave the rotated frame: times i^popcount of the qubits above the lowest
    # block, PHASE_BLOCK qubits at a time
    for below in range(_block_widths(model.n)[0], model.n, PHASE_BLOCK):
        bits = min(PHASE_BLOCK, model.n - below)
        view = amps.reshape(-1, 1 << bits, 1 << below)
        np.multiply(view, _I_POWERS[_popcounts(bits) % 4, None], out=view)
    return amps


def expectation(model, angles):
    """Exact <H_C> in the variational state (no shot noise)."""
    angles = _angle_vector(angles)
    diag = _model_diagonal(model)
    # the rotated frame has the state's probabilities
    amps = _evolve(model, diag, angles)
    probs = amps.real**2 + amps.imag**2
    # not probs @ diag: OpenBLAS splits a long dot product across threads,
    # which makes its roundoff depend on the thread count
    return float(np.sum(probs * diag))


def success_probability(amplitudes, x):
    """Probability of measuring the basis state that encodes symbol vector x."""
    x = np.asarray(x)
    if x.ndim != 1 or amplitudes.shape != (1 << x.size,):
        raise ValueError(f"x has shape {x.shape}, amplitudes {amplitudes.shape}: need (n,), (2^n,)")
    amp = amplitudes[spins_to_index(x)]
    return float(amp.real**2 + amp.imag**2)
