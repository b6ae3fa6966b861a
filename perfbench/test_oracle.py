"""The collocation oracle against the closed-form and finite-difference ones.

    python3 -m pytest perfbench

Boundary unitaries are written out here from their definitions, so these
tests do not depend on the library's boundary-condition code either.
"""

import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.dirname(os.path.abspath(__file__))]

import oracle  # noqa: E402
import oracles  # noqa: E402

I2 = np.eye(2, dtype=complex)
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
BOX_UNITARIES = {
    "dirichlet": I2,
    "neumann": -I2,
    "periodic": SWAP,
    "anti-periodic": -SWAP,
    "dirichlet-at-a-neumann-at-minus-a": np.diag([1.0, -1.0]).astype(complex),
}
TOL = 1e-8


def zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def robin_unitary(alpha, gamma):
    """Cayley transform of H = diag(alpha, -gamma): f'(a) = alpha f(a), f'(-a) = gamma f(-a)."""
    h = np.diag([alpha, -gamma]).astype(complex)
    return np.linalg.solve(h + 1j * I2, h - 1j * I2)


def assert_same_levels(got, want, tol):
    assert [m for _, m in got] == [m for _, m in want]
    for (e_got, _), (e_want, _) in zip(got, want):
        assert abs(e_got - e_want) <= tol * max(1.0, abs(e_want))


@pytest.mark.parametrize("a", [1.0, 3.0])
@pytest.mark.parametrize("name", sorted(BOX_UNITARIES))
def test_collocation_matches_box_levels(name, a):
    levels, err = oracle.collocation_levels([(-a, a, zero)], BOX_UNITARIES[name], 40.0)
    assert err <= TOL
    assert_same_levels(levels, oracle.box_levels(name, 40.0, a)[0], TOL)


@pytest.mark.parametrize("alpha, gamma", [(3.0, -3.0), (5.0, 5.0), (1.0, 1.0), (-2.0, 0.5)])
def test_collocation_matches_robin_determinant(alpha, gamma):
    levels, err = oracle.collocation_levels([(-1.0, 1.0, zero)], robin_unitary(alpha, gamma), 40.0)
    want, _ = oracle.robin_levels(alpha, gamma, 40.0, 1.0, -60.0)
    assert err <= TOL
    assert_same_levels(levels, want, TOL)


def test_collocation_matches_finite_differences_on_harmonic():
    def v(x):
        return 25.0 * np.asarray(x, dtype=float) ** 2
    levels, err = oracle.collocation_levels([(-1.0, 1.0, v)], I2, 40.0)
    want, fd_err = oracle.dirichlet_fd_levels(v, 40.0, 1.0)
    assert err <= TOL and fd_err <= 1e-6
    assert_same_levels(levels, want, 1e-6)


def test_junction_rows_keep_a_split_interval_exact():
    """Cutting V = 0 into pieces must not move the levels: the continuity rows work."""
    pieces = [(-1.0, -0.3, zero), (-0.3, 0.4, zero), (0.4, 1.0, zero)]
    levels, err = oracle.collocation_levels(pieces, SWAP, 40.0)
    assert err <= TOL
    assert_same_levels(levels, oracle.box_levels("periodic", 40.0, 1.0)[0], TOL)


def test_finite_well_dirichlet_matches_finite_differences():
    def v(x):
        return np.where(np.abs(np.asarray(x, dtype=float)) < 0.5, -10.0, 0.0)
    pieces = [(-1.0, -0.5, zero), (-0.5, 0.5, lambda x: np.full_like(x, -10.0)), (0.5, 1.0, zero)]
    levels, _ = oracle.collocation_levels(pieces, I2, 40.0)
    # the jump spoils the h^2 expansion the extrapolation relies on, hence the wide tolerance
    want = oracles.fd_dirichlet_levels(v, len(levels), n=8000)
    assert np.allclose([e for e, _ in levels], want, rtol=0, atol=1e-2)


def test_cluster_counts_multiplicity():
    levels = oracle.cluster([1.0, 1.0 + 1e-9, 2.0, 50.0], 40.0)
    assert [m for _, m in levels] == [2, 1]
    assert [e for e, _ in levels] == pytest.approx([1.0, 2.0], abs=1e-9)
