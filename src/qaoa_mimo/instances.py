"""Seeded random MIMO detection instances and the classical reference detector.

An instance is a real channel matrix H, a BPSK symbol vector x, additive
Gaussian noise n, and the received vector y = H x + n.  The module also
provides the maximum-likelihood objective ||y - H x||^2 and an exhaustive
detector used as the ground-truth oracle everywhere else.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .ising import index_to_spins
from .jsonio import SCHEMA_VERSION, dump_line, float_array, read_fields, strict_float, strict_int
from .rng import (
    STREAM_CHANNEL,
    STREAM_NOISE,
    STREAM_SYMBOLS,
    random_spins,
    standard_normals,
    substream,
)
from .simulator import _SERIAL_MATMUL, DEFAULT_QUBIT_CAP

_CHUNK = 1 << 14


@dataclass(frozen=True)
class ChannelInstance:
    """One simulated detection problem, fully determined by its seed.

    ``h`` is n_r x n_t with i.i.d. N(0,1) entries, ``x_true`` holds the
    transmitted symbols in {-1,+1}, ``noise`` is N(0, noise_scale^2), and
    ``y = h @ x_true + noise``.
    """

    n_t: int
    n_r: int
    h: np.ndarray
    x_true: np.ndarray
    noise: np.ndarray
    y: np.ndarray
    noise_scale: float
    seed: int

    def validate(self):
        """Check the defining invariants; raises ValueError on violation."""
        if min(self.n_t, self.n_r) < 1:
            raise ValueError(f"n_t and n_r must be >= 1, got {self.n_t} and {self.n_r}")
        if self.h.shape != (self.n_r, self.n_t):
            raise ValueError(f"h has shape {self.h.shape}, expected ({self.n_r}, {self.n_t})")
        if self.x_true.shape != (self.n_t,) or not np.all(np.abs(self.x_true) == 1):
            raise ValueError("x_true must be a length-n_t vector over {-1,+1}")
        if self.noise.shape != (self.n_r,) or self.y.shape != (self.n_r,):
            raise ValueError("noise and y must have length n_r")
        residual = self.y - self.h @ self.x_true - self.noise
        if not np.all(np.abs(residual) <= 1e-12):  # NaN fails too
            raise ValueError("y - h @ x_true - noise is not zero")


def generate_instance(n_t, n_r, noise_scale, seed):
    """Generate a detection instance deterministically from ``seed``.

    Three independent Philox substreams of the seed are consumed, in
    fixed roles: channel entries (row-major), transmitted symbols, and
    noise.  Regenerating with the same seed is bit-identical.

    Args:
        n_t: number of transmit antennas (>= 1).
        n_r: number of receive antennas (>= 1).
        noise_scale: standard deviation of the additive noise (>= 0).
        seed: unsigned 64-bit master seed.

    Returns:
        ChannelInstance
    """
    if n_t < 1:
        raise ValueError(f"n_t must be >= 1, got {n_t}")
    if n_r < 1:
        raise ValueError(f"n_r must be >= 1, got {n_r}")
    if noise_scale < 0:
        raise ValueError(f"noise_scale must be >= 0, got {noise_scale}")

    h = standard_normals(substream(seed, STREAM_CHANNEL), n_r * n_t).reshape(n_r, n_t)
    x_true = random_spins(substream(seed, STREAM_SYMBOLS), n_t)
    noise = noise_scale * standard_normals(substream(seed, STREAM_NOISE), n_r)
    y = h @ x_true + noise
    return ChannelInstance(
        n_t=int(n_t),
        n_r=int(n_r),
        h=h,
        x_true=x_true,
        noise=noise,
        y=y,
        noise_scale=float(noise_scale),
        seed=int(seed),
    )


def ml_objective(inst, x):
    """Squared-norm detection objective ||y - H x||_2^2 for a symbol vector."""
    x = np.asarray(x)
    if x.shape != (inst.n_t,):
        raise ValueError(f"x has shape {x.shape}, expected ({inst.n_t},)")
    if not np.all(np.abs(x) == 1):
        raise ValueError("x entries must be -1 or +1")
    residual = inst.y - inst.h @ x
    return float(residual @ residual)


def brute_force_detect(inst):
    """Exhaustively minimize the ML objective over all 2^n_t symbol vectors.

    Candidates are enumerated as unsigned integers where bit k encodes
    antenna k (LSB = antenna 1, bit value 1 meaning symbol -1); ties are
    broken toward the lowest enumeration index.

    Returns:
        (x_best, value): the minimizing symbol vector and its objective.
    """
    n = inst.n_t
    if n > DEFAULT_QUBIT_CAP:  # the simulator's cap: 2^n_t candidates, as many amplitudes
        raise ResourceLimitError(
            f"exhaustive search over 2^{n} candidates exceeds the cap of {DEFAULT_QUBIT_CAP} antennas"
        )
    shifts = np.arange(n, dtype=np.uint64)
    # H x for `rows` candidates per product: small enough that OpenBLAS keeps it
    # on the calling thread, and every entry gets the same bits as from one product
    rows = 1 << max(0, (_SERIAL_MATMUL // (n * inst.n_r)).bit_length() - 1)
    best_value = np.inf
    best_index = 0
    for start in range(0, 1 << n, _CHUNK):
        stop = min(start + _CHUNK, 1 << n)
        idx = np.arange(start, stop, dtype=np.uint64)
        bits = (idx[:, None] >> shifts[None, :]) & np.uint64(1)
        spins = 1.0 - 2.0 * bits
        products = np.matmul(spins.reshape(-1, min(rows, stop - start), n), inst.h.T)
        residuals = inst.y[None, :] - products.reshape(-1, inst.n_r)
        values = np.einsum("ij,ij->i", residuals, residuals)
        k = int(np.argmin(values))
        if values[k] < best_value:
            best_value = float(values[k])
            best_index = start + k
    return index_to_spins(best_index, n), best_value


def instance_to_record(inst):
    """Flatten an instance into the JSON record schema (h row-major)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": inst.seed,
        "n_t": inst.n_t,
        "n_r": inst.n_r,
        "noise_scale": inst.noise_scale,
        "h": [float(v) for v in inst.h.reshape(-1)],
        "x_true": [int(v) for v in inst.x_true],
        "noise": [float(v) for v in inst.noise],
        "y": [float(v) for v in inst.y],
    }


def _spins(values):
    """x_true as int64, refusing any entry that is not exactly -1 or +1 before the cast."""
    spins = float_array(values)
    if not np.all(np.abs(spins) == 1):
        raise ValueError("entries must be -1 or +1")
    return spins.astype(np.int64)


def instance_from_record(record):
    fields = read_fields(
        record, "instance", n_t=strict_int, n_r=strict_int, h=float_array, x_true=_spins,
        noise=float_array, y=float_array, noise_scale=strict_float, seed=strict_int,
    )
    entries = fields["n_r"] * fields["n_t"]
    if fields["h"].size != entries:
        raise ValueError(
            f"instance record has {fields['h'].size} entries in 'h', expected n_r * n_t = {entries}"
        )
    fields["h"] = fields["h"].reshape(fields["n_r"], fields["n_t"])
    inst = ChannelInstance(**fields)
    inst.validate()
    return inst


def write_instances(path, instances):
    """Write instances as JSON-lines (one record per line, canonical floats)."""
    with open(path, "w") as fh:
        for inst in instances:
            dump_line(instance_to_record(inst), fh)


def read_instances(path):
    instances = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                instances.append(instance_from_record(json.loads(line)))
    return instances
