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
dense 2^w x 2^w matrix product, so it makes ceil(n / MIXER_BLOCK)
passes over the amplitudes instead of n single-qubit sweeps.  Each
product is computed as a stack of independent products small enough for
OpenBLAS to run on one thread.  From SPLIT_QUBITS qubits on, a caller's
``threads`` (default 1) share the stack; a product gets the same bits on
any thread, so the result does not depend on their number.  A block
depends only on its width and beta, so it is built once per (width,
beta) and kept read-only in a cache of at most MIXER_CACHE blocks: every
model of one ensemble evaluation shares the blocks of its layers, and an
n = 6 layer's two width-3 blocks are one.

Expectations are computed exactly from the final probabilities
(infinite-shot limit).  A model's diagonal is built the first time it
is simulated and kept with the model for every later call; a model of
more than DEFAULT_QUBIT_CAP qubits is refused when that build starts.
"""

import functools
import itertools
import os
import threading

import numpy as np

from .errors import ResourceLimitError
from .ising import spins_to_index
from .localopt import check_count

# Most qubits simulated: 2^20 complex doubles is 16 MB.
DEFAULT_QUBIT_CAP = 20

# Widest mixer block: a 32 x 32 unitary per pass over the amplitudes.
MIXER_BLOCK = 5

# Mixer blocks kept, least recently used dropped first: all of a p <= 32
# circuit's (two widths per layer), in at most 64 x 16 KB.
MIXER_CACHE = 64

# Largest matrix product (m * n * k multiply-adds) that OpenBLAS runs on
# the thread that calls it.  A product OpenBLAS splits across its own
# threads rounds as that split does, so the stack of these products is
# split across threads instead (see _split_matmul).
_SERIAL_MATMUL = 1 << 15

# Fewest qubits whose mixer product stacks are split across threads: a
# second CPU cut a p = 3 evaluation by a fifth to a quarter at n = 18, gained
# nothing at n = 16 and lost at n = 14, where waking a helper costs more.
SPLIT_QUBITS = 17

# Products that one thread claims at a time from a shared stack.
_CHUNK = 16

# Lowest qubits whose phase is one np.exp per amplitude; each higher qubit
# is doubled from them (see _phase).  Doubling from 10 qubits is faster
# than np.exp over all amplitudes from n = 12 on.
PHASE_BLOCK = 10

# _FLIPS[i, j] = popcount(i ^ j), the number of qubits on which basis states
# i and j differ; its top-left 2^w x 2^w corner serves a block of w qubits.
_FLIPS = np.array([bin(m).count("1") for m in range(1 << MIXER_BLOCK)])[
    np.bitwise_xor.outer(np.arange(1 << MIXER_BLOCK), np.arange(1 << MIXER_BLOCK))
]
# (-i)^d for d flips
_FLIP_PHASE = np.array([1, -1j, -1, 1j])[np.arange(MIXER_BLOCK + 1) % 4]


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
    """Rx(2 beta)^{(x) w} as a read-only 2^w x 2^w matrix, built once per
    width and bit pattern of beta (so -0.0 and 0.0 stay apart) and kept in
    a cache of at most MIXER_CACHE blocks."""
    return _built_mixer_block(w, np.float64(beta).tobytes())


@functools.lru_cache(maxsize=MIXER_CACHE)
def _built_mixer_block(w, beta_bytes):
    """Entry (i, j) is cos(beta)^(w-d) * (-i sin(beta))^d with d = popcount(i ^ j)."""
    beta = np.frombuffer(beta_bytes)[0]
    d = np.arange(w + 1)
    factors = np.cos(beta) ** (w - d) * np.sin(beta) ** d * _FLIP_PHASE[: w + 1]
    block = factors[_FLIPS[: 1 << w, : 1 << w]]
    block.flags.writeable = False
    return block


@functools.lru_cache(maxsize=1)
def _helper_pool(pid, count):
    """``count`` helper threads, kept for process ``pid``: a forked child, which
    inherits the pool but not its threads, misses the cache and starts its own."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(count, thread_name_prefix="qaoa-mixer")


def _split_matmul(block, src, dst, threads):
    """np.matmul(block, src, out=dst), its stacked products shared by this
    thread and ``threads`` - 1 helpers.  Every thread claims the next _CHUNK
    products until none are left; this thread then waits only for the
    chunks a helper claimed, so a helper kept off its CPU delays the stack
    by at most one chunk."""
    chunks = -(-len(src) // _CHUNK)
    claims = itertools.count(0, _CHUNK)
    helped = threading.Semaphore(0)  # one release per chunk a helper finished
    failures = []
    # None once this split has ended, so a helper that starts late keeps no
    # statevector alive while later evaluations allocate theirs
    views = (src, dst)

    def helper():
        if (job := views) is None:
            return
        src, dst = job
        while (start := next(claims)) < len(src):
            try:
                np.matmul(block, src[start : start + _CHUNK], out=dst[start : start + _CHUNK])
            except Exception as exc:  # raised again on the calling thread
                failures.append(exc)
            finally:
                helped.release()

    pool = _helper_pool(os.getpid(), threads - 1)
    for _ in range(min(threads - 1, chunks - 1)):
        pool.submit(helper)
    own = 0
    while (start := next(claims)) < len(src):
        np.matmul(block, src[start : start + _CHUNK], out=dst[start : start + _CHUNK])
        own += 1
    for _ in range(chunks - own):
        helped.acquire()
    views = None
    if failures:
        raise failures[0]


def _block_widths(n):
    """ceil(n / MIXER_BLOCK) near-equal widths summing to n."""
    blocks = -(-n // MIXER_BLOCK)
    return [(n + i) // blocks for i in range(blocks)]


def _phase(model, diag, gamma, out, scale=None):
    """exp(-i gamma diag), times ``scale`` if given, into ``out``: np.exp
    over the lowest PHASE_BLOCK qubits, doubled over the others."""
    seed = out[: 1 << min(model.n, PHASE_BLOCK)]
    np.exp(np.multiply(-1j * gamma, diag[: seed.size], out=seed), out=seed)
    if scale is not None:
        seed *= scale
    if model.n > PHASE_BLOCK:
        _, flips, steps = _flip_costs(model)
        flips, steps = np.exp(-1j * gamma * flips), np.exp(-1j * gamma * steps)
        for k in range(PHASE_BLOCK, model.n):
            _double(out, k, flips[k], steps[k], np.multiply)
    return out


# A phase that overflows comes out NaN, which every optimizer refuses as a failed
# evaluation; numpy's warning about it would only add noise to stderr.
@np.errstate(over="ignore", invalid="ignore")
def _evolve(model, diag, angles, threads):
    dim = 1 << model.n
    p = angles.size // 2
    amps = np.empty(dim, dtype=np.complex128)
    spare = np.empty_like(amps)  # every layer reuses these two buffers
    widths = _block_widths(model.n)
    threads = threads if model.n >= SPLIT_QUBITS else 1
    # gamma and beta are np.float64 scalars, the type -1j * gamma and the mixer
    # cache key were pinned with
    for layer, (gamma, beta) in enumerate(zip(angles[:p], angles[p:])):
        if layer == 0:  # the initial state |+>^n is 1/sqrt(dim) everywhere
            _phase(model, diag, gamma, amps, scale=1.0 / np.sqrt(dim))
        else:
            amps *= _phase(model, diag, gamma, spare)
        for w in widths:
            # spare = mixer @ amps.reshape(-1, 2^w).T moves this block (the low
            # w bits) to the top bits, so after all blocks every qubit is
            # back in place.  It is computed as a stack of products over
            # `cols` columns each, small enough for one thread; every entry
            # gets the same bits as from one product.
            cols = min(dim >> w, _SERIAL_MATMUL >> 2 * w)
            block = _mixer_block(w, beta)
            src = amps.reshape(-1, cols, 1 << w).transpose(0, 2, 1)
            dst = spare.reshape(1 << w, -1, cols).transpose(1, 0, 2)
            if threads > 1:
                _split_matmul(block, src, dst, threads)
            else:
                np.matmul(block, src, out=dst)
            amps, spare = spare, amps
    return amps


def qaoa_state(model, angles, threads=1):
    """Amplitudes after the p phase/mixer layers of ``angles`` on |+>^n: a
    complex array of length 2^n (bit k of the index = qubit k).  From
    SPLIT_QUBITS qubits on, ``threads`` threads share the mixer's products;
    the bits do not depend on it.  ValueError unless it is an integer >= 1."""
    angles = _angle_vector(angles)
    check_count("threads", threads)
    return _evolve(model, _model_diagonal(model), angles, threads)


def expectation(model, angles, threads=1):
    """Exact <H_C> in the variational state (no shot noise); ``threads`` as
    for qaoa_state."""
    angles = _angle_vector(angles)
    check_count("threads", threads)
    diag = _model_diagonal(model)
    amps = _evolve(model, diag, angles, threads)
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
