"""Closed-form depth-1 QAOA expectation.

For p = 1 only the causal cone of an observable matters, which collapses
<Z_i> and <Z_i Z_j> to O(n) trigonometric products over the complete
interaction graph (zero couplings contribute cos(0) = 1).  All moments
come from one pass over the rows in O(n^3) time and O(n^2) memory,
polynomial where the statevector is exponential.  Every moment is
pinned to the dense simulator at 1e-9 by the cross-check tests.
"""

import numpy as np


def depth1_moments(model, gamma, beta):
    """(z, zz): every <Z_i> and the symmetric zero-diagonal matrix of <Z_i Z_j>.

    <Z_i> = -sin(2b) sin(4g m_i) prod_{k!=i} cos(4g G_ik).  <Z_i Z_j> has two
    term families, each a product over k not in {i, j}: a sin(4b) exchange
    part carrying the (i, j) coupling, and a sin^2(2b) interference part
    over sums/differences of the two rows.  The interference part carries
    no extra cos^2(4g G_ij) factor; the variant that includes one disagrees
    with the dense simulator and is rejected by the cross-check tests.
    """
    n, g4, gram, m = model.n, 4.0 * gamma, model.gram, model.matched
    cos = np.cos(g4 * gram)
    np.fill_diagonal(cos, 1.0)
    z = -np.sin(2.0 * beta) * np.sin(g4 * m) * cos.prod(axis=1)
    zz, buf = np.zeros((n, n)), np.empty((4, n, n))
    for i in range(n - 1):
        j, row, rows, terms = np.arange(i + 1, n), gram[i], gram[i + 1:], buf[:, : n - i - 1]
        # cos(4g x) of rows i, j, j - i and j + i, with columns i and j dropped as 1
        np.stack(np.broadcast_arrays(row, rows, rows - row, rows + row), out=terms)
        np.cos(np.multiply(terms, g4, out=terms), out=terms)
        terms[:, :, i] = terms[:, j - i - 1, j] = 1.0
        p_i, p_j, p_diff, p_sum = terms.prod(axis=2)
        exchange = np.sin(g4 * row[j]) * (np.cos(g4 * m[i]) * p_i + np.cos(g4 * m[j]) * p_j)
        interference = np.cos(g4 * (m[j] - m[i])) * p_diff - np.cos(g4 * (m[i] + m[j])) * p_sum
        zz[i, j] = 0.5 * (np.sin(4.0 * beta) * exchange + np.sin(2.0 * beta) ** 2 * interference)
    return z, zz + zz.T


def depth1_expectation(model, gamma, beta):
    """Exact <H_C> at p = 1: sum_{i<j} 2 G_ij <Z_i Z_j> - sum_k 2 m_k <Z_k>."""
    z, zz = depth1_moments(model, gamma, beta)
    return float(np.sum(model.gram * zz) - 2.0 * model.matched @ z)
