"""Ising encoding of the detection problem and the bit/spin conventions.

Dropping the constant y.y + tr(H^T H) from ||y - H x||^2 leaves the spin
energy  sum_{i<j} 2 G_ij x_i x_j - sum_k 2 m_k x_k  with G = H^T H (the
channel Gram matrix) and m = H^T y (the matched-filter vector).  Its
minimizer over {-1,+1}^n is the ML solution.

Bit/spin convention, fixed globally: basis index bit k (LSB) is antenna
k, bit value 1 means spin -1, and printed bitstrings put antenna 1 in
the leftmost character.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class IsingModel:
    """Quadratic spin energy derived from one detection instance.

    The coupling of pair i < j is 2 * gram[i, j] and the field on spin k
    is -2 * matched[k].  ``offset`` restores the dropped constant:
    energy(x) + offset equals the ML objective at x.

    ``diagonal`` holds the read-only Hamiltonian diagonal once the
    simulator has built it; equality and repr ignore it.  The model's
    arrays must not be changed after that first build.
    """

    n: int
    gram: np.ndarray
    matched: np.ndarray
    offset: float
    diagonal: np.ndarray = field(default=None, init=False, repr=False, compare=False)


def build_ising(inst):
    """Encode a ChannelInstance as an IsingModel; ValueError if an energy term
    overflows float64 (finite records can, such as noise of scale 1e200)."""
    h, y = inst.h, inst.y
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        gram = h.T @ h
        gram = 0.5 * (gram + gram.T)  # exact symmetry; BLAS output can be off at 1 ulp
        matched = h.T @ y
        offset = float(y @ y + np.trace(gram))
    if not (np.isfinite(offset) and np.isfinite(gram).all() and np.isfinite(matched).all()):
        raise ValueError(f"instance {inst.seed}: energies overflow float64")
    return IsingModel(n=inst.n_t, gram=gram, matched=matched, offset=offset)


def ising_energy(model, x):
    """Classical energy sum_{i<j} 2 G_ij x_i x_j - sum_k 2 m_k x_k."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({model.n},)")
    if not np.all(np.abs(x) == 1):
        raise ValueError("x entries must be -1 or +1")
    # x G x = tr(G) + 2 sum_{i<j} G_ij x_i x_j because x_k^2 = 1.
    return float(x @ model.gram @ x - np.trace(model.gram) - 2.0 * (model.matched @ x))


def index_to_spins(index, n):
    """Symbol vector encoded by basis index ``index`` (bit k = antenna k)."""
    bits = (int(index) >> np.arange(n)) & 1
    return (1 - 2 * bits).astype(np.int64)


def spins_to_index(x):
    """Basis index of a symbol vector under the global bit convention."""
    x = np.asarray(x)
    if not np.all(np.abs(x) == 1):
        raise ValueError("x entries must be -1 or +1")
    index = 0
    for k, v in enumerate(x):
        if v < 0:
            index |= 1 << k
    return index


def index_to_bitstring(index, n):
    """Printable bitstring for a basis index, antenna 1 leftmost."""
    return "".join("1" if (int(index) >> k) & 1 else "0" for k in range(n))
