"""Reference spectra that share no code with the shooting solver.

Closed-form and finite-difference references come from ``tests/oracles.py``.
This module adds the one reference those lack: a piecewise Chebyshev
collocation eigensolver that accepts any 2x2 boundary unitary Ucal, so
periodic, coupled and automorphic conditions can be checked too.  Every
reference reports its own error estimate next to its levels.
"""

import numpy as np
from scipy.linalg import eig

import oracles

COLLOCATION_NODES = (64, 96)   # per piece; the two resolutions give the error estimate
CLUSTER_REL = 1e-6             # levels closer than this (relative) form one degenerate level


def _cheb(n):
    """Chebyshev points t_j = cos(pi j / n) and the differentiation matrix."""
    j = np.arange(n + 1)
    t = np.cos(np.pi * j / n)
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    dt = t[:, None] - t[None, :]
    d = np.outer(c, 1.0 / c) / (dt + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return t, d


def _collocation_eigenvalues(pieces, ucal, n):
    """All finite eigenvalues of -f'' + V f = E f with Ucal boundary rows.

    ``pieces`` lists (lo, hi, vfun) from x = -a to x = a; f and f' are
    continuous across every junction.  Nodes of each piece run from hi
    down to lo; the rows at both ends of every piece are replaced by the
    continuity and boundary rows.
    """
    m = len(pieces)
    size = m * (n + 1)
    a_mat = np.zeros((size, size), dtype=complex)
    b_mat = np.zeros((size, size))
    t, d = _cheb(n)
    diffs = []
    for k, (lo, hi, vfun) in enumerate(pieces):
        x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
        dk = d * (2.0 / (hi - lo))
        s = slice(k * (n + 1), (k + 1) * (n + 1))
        a_mat[s, s] = -dk @ dk + np.diag(np.asarray(vfun(x), dtype=float))
        b_mat[s, s] = np.eye(n + 1)
        diffs.append(dk)

    def value(k, node):
        row = np.zeros(size, dtype=complex)
        row[k * (n + 1) + node] = 1.0
        return row

    def slope(k, node):
        row = np.zeros(size, dtype=complex)
        row[k * (n + 1):(k + 1) * (n + 1)] = diffs[k][node]
        return row

    constraints = []  # (row index replaced, constraint row)
    for k in range(m - 1):
        constraints.append((k * (n + 1), value(k, 0) - value(k + 1, n)))
        constraints.append(((k + 1) * (n + 1) + n, slope(k, 0) - slope(k + 1, n)))
    fa, dfa = value(m - 1, 0), slope(m - 1, 0)
    fma, dfma = value(0, n), slope(0, n)
    minus = np.array([dfa - 1j * fa, dfma + 1j * fma])
    plus = np.array([dfa + 1j * fa, dfma - 1j * fma])
    bc_rows = minus - np.asarray(ucal) @ plus
    constraints.append((n, bc_rows[0]))
    constraints.append(((m - 1) * (n + 1), bc_rows[1]))
    for idx, row in constraints:
        a_mat[idx] = row
        b_mat[idx] = 0.0
    w = eig(a_mat, b_mat, right=False)
    w = w[np.isfinite(w)]
    real = w[np.abs(w.imag) <= 1e-6 * np.maximum(1.0, np.abs(w.real))].real
    return np.sort(real)


def cluster(values, e_max):
    """Sorted values up to e_max grouped into [(energy, multiplicity)]."""
    levels = []
    for v in sorted(v for v in values if v <= e_max):
        if levels and v - levels[-1][-1] <= CLUSTER_REL * max(1.0, abs(v)):
            levels[-1].append(v)
        else:
            levels.append([v])
    return [(float(np.mean(group)), len(group)) for group in levels]


def collocation_levels(pieces, ucal, e_max):
    """(levels, error estimate) from two collocation resolutions.

    The error estimate is the largest difference between matching levels
    of the two resolutions; a change in the level count is an infinite
    error, since then the coarse grid has not resolved the spectrum.
    """
    runs = [cluster(_collocation_eigenvalues(pieces, ucal, n), e_max)
            for n in COLLOCATION_NODES]
    coarse, fine = runs
    if [m for _, m in coarse] != [m for _, m in fine]:
        return fine, float("inf")
    err = max((abs(e1 - e2) for (e1, _), (e2, _) in zip(coarse, fine)), default=0.0)
    return fine, err


def box_levels(name, e_max, a):
    """Closed-form free-particle levels; exact, so the error is zero."""
    return [(float(e), m) for e, m in oracles.box_levels(name, e_max, a)], 0.0


def robin_levels(alpha, gamma, e_max, a, e_floor):
    """Roots of the closed-form Robin determinant on [e_floor, e_max]."""
    roots = oracles.bisect_roots(oracles.robin_det(alpha, gamma, a), e_floor, e_max)
    return [(float(r), 1) for r in roots], 1e-12 * max(1.0, abs(e_floor), abs(e_max))


def dirichlet_fd_levels(vfun, e_max, a, count=12, n=4000):
    """Richardson-extrapolated finite-difference Dirichlet levels up to e_max.

    The error estimate is the change from the half-resolution extrapolation.
    """
    fine = oracles.fd_dirichlet_levels(vfun, count, a=a, n=n)
    coarse = oracles.fd_dirichlet_levels(vfun, count, a=a, n=n // 2)
    if fine[-1] <= e_max:
        raise ValueError(f"{count} levels do not reach e_max = {e_max}; raise count")
    keep = fine <= e_max
    err = float(np.max(np.abs(fine - coarse)[keep], initial=0.0))
    return [(float(e), 1) for e in fine[keep]], err
