"""Output checks, computed from the benchmark's own reference code.

None of this imports the program: the ML objective, the Ising diagonal
and the QAOA statevector are re-derived here from the instance records,
so a defect or a stale cache in the program cannot also hide in its
check.  All checks run outside the timed region.
"""

import hashlib
import json
import os

import numpy as np

# localopt documents a quadratic penalty of this weight for proposals
# outside the angle box; recorded values include it.
PENALTY_WEIGHT = 1e4
TOL = 1e-9


def close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(b))


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def tree_digest(paths):
    """sha256 over the bytes of the given files and of every file under the
    given directories, in sorted relative-path order."""
    digest = hashlib.sha256()
    for root in paths:
        if os.path.isdir(root):
            files = sorted(
                os.path.relpath(os.path.join(d, f), root)
                for d, _, names in os.walk(root) for f in names
            )
            members = [(rel, os.path.join(root, rel)) for rel in files]
        else:
            members = [(os.path.basename(root), root)]
        for rel, path in members:
            digest.update(rel.encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
            digest.update(b"\0")
    return digest.hexdigest()


class Reference:
    """Independent evaluation of one instance record."""

    def __init__(self, record):
        n_t, n_r = int(record["n_t"]), int(record["n_r"])
        self.n = n_t
        self.h = np.array(record["h"], dtype=np.float64).reshape(n_r, n_t)
        self.y = np.array(record["y"], dtype=np.float64)
        self.x_true = np.array(record["x_true"], dtype=np.float64)
        gram = self.h.T @ self.h
        self.gram = 0.5 * (gram + gram.T)
        self.matched = self.h.T @ self.y
        # ||y - Hx||^2 = energy(x) + offset for x in {-1,+1}^n.
        self.offset = float(self.y @ self.y + np.trace(self.gram))
        self._diag = None

    def ml_objective(self, x):
        r = self.y - self.h @ np.asarray(x, dtype=np.float64)
        return float(r @ r)

    def diagonal(self):
        """Spin energy sum_{i<j} 2 G_ij s_i s_j - sum_i 2 m_i s_i of every
        basis state (bit k of the index is antenna k; bit 1 means spin -1)."""
        if self._diag is None:
            idx = np.arange(1 << self.n, dtype=np.int64)
            spins = [1.0 - 2.0 * ((idx >> k) & 1) for k in range(self.n)]
            diag = np.zeros(idx.size)
            for i in range(self.n):
                diag -= 2.0 * self.matched[i] * spins[i]
                for j in range(i + 1, self.n):
                    diag += (2.0 * self.gram[i, j]) * (spins[i] * spins[j])
            self._diag = diag
        return self._diag

    def ground_energy(self):
        return float(self.diagonal().min())

    def expectation(self, theta):
        """<H_C> after p = len(theta)/2 layers of phase and Rx(2 beta) mixer."""
        diag = self.diagonal()
        p = len(theta) // 2
        amps = np.full(diag.size, (1 << self.n) ** -0.5, dtype=np.complex128)
        for gamma, beta in zip(theta[:p], theta[p:]):
            amps = amps * np.exp(-1j * gamma * diag)
            cos, isin = np.cos(beta), 1j * np.sin(beta)
            for k in range(self.n):
                pairs = amps.reshape(-1, 2, 1 << k)
                low, high = pairs[:, 0, :], pairs[:, 1, :]
                amps = np.stack((cos * low - isin * high, cos * high - isin * low), axis=1)
                amps = amps.reshape(-1)
        probs = amps.real**2 + amps.imag**2
        return float(probs @ diag)


def penalty(theta, box):
    theta = np.asarray(theta, dtype=np.float64)
    excess = np.maximum(box[:, 0] - theta, 0.0) + np.maximum(theta - box[:, 1], 0.0)
    return PENALTY_WEIGHT * float(excess @ excess)


def angle_box(p, gamma_max, beta_max):
    box = np.zeros((2 * p, 2))
    box[:p, 1] = gamma_max
    box[p:, 1] = beta_max
    return box


def check_row(row, ref, budget, box):
    """Problems with one report row, as a list of strings (empty = correct)."""
    if "error" in row:
        return [f"error row: {row['error']}"]
    problems = []
    if row["n_evaluations"] > budget:
        problems.append(f"n_evaluations {row['n_evaluations']} exceeds budget {budget}")
    bf_value = row["bruteforce_value"]
    if not close(bf_value, ref.ml_objective(row["bruteforce_symbols"])):
        problems.append("bruteforce_value does not match the objective at bruteforce_symbols")
    if bf_value > ref.ml_objective(ref.x_true) + TOL * max(1.0, abs(bf_value)):
        problems.append("bruteforce_value is larger than the objective at x_true")
    if not close(bf_value, ref.ground_energy() + ref.offset):
        problems.append("bruteforce_value is not the ground energy plus offset")
    fresh = ref.expectation(np.asarray(row["best_point"])) + penalty(row["best_point"], box)
    if not close(row["best_value"], fresh):
        problems.append(f"best_value {row['best_value']!r} != fresh expectation {fresh!r}")
    return problems


def check_init(init, refs):
    """The trained angles' recorded objective against a fresh ensemble mean."""
    theta = np.concatenate([init["gammas"], init["betas"]])
    fresh = sum(ref.expectation(theta) for ref in refs) / len(refs)
    recorded = init["training_meta"]["final_objective"]
    if not close(recorded, fresh):
        return [f"final_objective {recorded!r} != fresh ensemble mean {fresh!r}"]
    return []
