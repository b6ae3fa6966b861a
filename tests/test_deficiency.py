"""Deficiency-basis construction against closed forms and endpoint identities."""

import numpy as np
import pytest

from saext import deficiency, jsonio, odesolve
from saext.deficiency import (DeficiencyBasis, change_of_basis, endpoint_form,
                              solve_even_odd, solve_orthonormal_pair, wronskian_identity)
from saext.errors import InvariantViolation, ModeError, ParityError
from saext.jsonio import matrix_from_json, matrix_to_json
from saext.potential import Potential

P0 = Potential.zero(1.0)

EVEN_POTENTIALS = [
    Potential.zero(1.0),
    Potential.harmonic(1.0, 1.0),
    Potential.cosine(1.0, np.pi, 1.0),
    Potential.finite_well(-10.0, 0.5, 1.0),
]


def closed_form_zero_basis():
    """Normalized even/odd solutions of -g'' = i g on [-1, 1]."""
    kappa = np.exp(1j * np.pi / 4)
    s2 = np.sqrt(2.0)
    n_plus = 1.0 / np.sqrt((np.sinh(s2) + np.sin(s2)) / s2)
    n_minus = 1.0 / np.sqrt((np.sinh(s2) - np.sin(s2)) / s2)
    g_plus = (n_plus * np.cos(kappa), -n_plus * kappa * np.sin(kappa))
    g_minus = (n_minus * np.sin(kappa) / kappa, n_minus * np.cos(kappa))
    return g_plus, g_minus


def test_zero_potential_matches_closed_form():
    table = solve_even_odd(P0).boundary_table  # rows (g'(a), g(a), g'(-a), g(-a))
    (gp, dgp), (gm, dgm) = closed_form_zero_basis()
    assert np.abs(table - [[dgp, gp, -dgp, gp], [dgm, gm, dgm, -gm]]).max() < 1e-9


@pytest.mark.parametrize("p", EVEN_POTENTIALS)
def test_even_odd_orthogonality(p):
    basis = solve_even_odd(p)
    g_plus, g_minus = basis.trajectories
    assert abs(odesolve.l2_inner(g_plus, g_minus)) < 1e-10
    assert abs(odesolve.l2_inner(g_plus, g_plus) - 1.0) < 1e-8


@pytest.mark.parametrize("p", EVEN_POTENTIALS)
def test_endpoint_wronskian_equals_i(p):
    basis = solve_even_odd(p)
    for j in range(2):
        assert abs(wronskian_identity(basis.boundary_table, j) - 1j) < 1e-8


def test_matrices_are_diagonal_boundary_data():
    basis = solve_even_odd(P0)
    (dgp, gp, _, _), (dgm, gm, _, _) = basis.boundary_table
    assert np.allclose(np.diag([gp, gm]), basis.mat_A)
    assert np.allclose(np.diag([dgp, dgm]), basis.mat_B)
    for mat in (basis.mat_A, basis.mat_B):
        sigma = np.abs(np.diag(mat))
        assert sigma.min() > 1e-8 * sigma.max()


def test_parity_error_for_odd_potential():
    with pytest.raises(ParityError):
        solve_even_odd(Potential.polynomial([0.0, 1.0], 1.0))


def piecewise_even(a):
    """V = 3 for |x| > a/2, -1 + 4x^2/a^2 inside: even, with jumps at +-a/2."""
    return Potential.piecewise([((-a, -a / 2), [3.0]), ((-a / 2, a / 2), [-1.0, 0.0, 4.0 / a ** 2]),
                                ((a / 2, a), [3.0])], a)


@pytest.mark.parametrize("a", [1.0, 3.0])
def test_piecewise_even_builds_even_basis(a):
    basis = solve_even_odd(piecewise_even(a))
    assert basis.parity_mode == deficiency.EVEN_MODE


def test_parity_error_for_potential_odd_on_one_piece():
    p = Potential.piecewise([((-1.0, -0.5), [3.0]), ((-0.5, 0.5), [0.0, 1.0]),
                             ((0.5, 1.0), [3.0])], 1.0)
    with pytest.raises(ParityError):
        solve_even_odd(p)


@pytest.mark.parametrize("a", [2.0, 3.0, 4.0])
def test_harmonic_even_basis_at_wide_half_width(a):
    # g grows steeply towards +-a; plain Simpson missed the norm by 1e-8 to 2e-7
    # here, past ORTHONORMALITY_TOL
    basis = solve_even_odd(Potential.harmonic(25.0 / a ** 2, a))
    for j in range(2):
        assert abs(wronskian_identity(basis.boundary_table, j) - 1j) < deficiency.WRONSKIAN_TOL


@pytest.mark.parametrize("p", [P0, Potential.polynomial([0.0, 1.0], 1.0)])
def test_orthonormal_pair_endpoint_identities(p):
    basis = solve_orthonormal_pair(p)
    table = basis.boundary_table
    for j in range(2):
        for k in range(2):
            want = 2j if j == k else 0.0
            assert abs(endpoint_form(table, j, k) - want) < 1e-8
            assert abs(endpoint_form(table, j, k, conjugate_first=False)) < 1e-8


def test_orthonormal_pair_is_orthonormal():
    basis = solve_orthonormal_pair(Potential.polynomial([0.0, 1.0], 1.0))
    g1, g2 = basis.trajectories
    assert abs(odesolve.l2_inner(g1, g2)) < 1e-8
    assert abs(odesolve.l2_inner(g1, g1) - 1.0) < 1e-8
    assert abs(odesolve.l2_inner(g2, g2) - 1.0) < 1e-8


def test_modes_related_by_unitary_change_of_basis():
    even = solve_even_odd(P0)
    general = solve_orthonormal_pair(P0)
    c = change_of_basis(even, general)
    assert np.abs(c @ c.conj().T - np.eye(2)).max() < 1e-7


def test_construction_is_deterministic():
    t1 = solve_even_odd(Potential.harmonic(1.0, 1.0)).boundary_table
    t2 = solve_even_odd(Potential.harmonic(1.0, 1.0)).boundary_table
    assert np.array_equal(t1, t2)


def test_serialization_round_trip():
    basis = solve_even_odd(Potential.cosine(1.0, np.pi, 1.0))
    data = basis.to_json()
    back = DeficiencyBasis.from_json(data)
    assert back.parity_mode == basis.parity_mode
    assert np.allclose(back.boundary_table, basis.boundary_table)
    assert np.allclose(back.mat_A, basis.mat_A)
    assert np.allclose(back.mat_B, basis.mat_B)
    assert back.potential == basis.potential
    assert back.trajectories is None
    assert jsonio.dumps(back.to_json()) == jsonio.dumps(data)
    assert np.array_equal(back.mat_A, np.diag(back.boundary_table[:, 1]))
    assert np.array_equal(back.mat_B, np.diag(back.boundary_table[:, 0]))


@pytest.mark.parametrize("keys", [("mat_A", "mat_B"), ("mat_A",), ("mat_B",)])
def test_from_json_rejects_matrices_that_contradict_the_table(keys):
    # A and B are read from the table, so copies that contradict it mark a corrupt file
    data = solve_even_odd(Potential.harmonic(2.0, 1.0)).to_json()
    for key in keys:
        data[key] = matrix_to_json(np.exp(0.7j) * matrix_from_json(data[key]))
    with pytest.raises(InvariantViolation):
        DeficiencyBasis.from_json(data)


@pytest.mark.parametrize("mode", ["evn", None])
def test_from_json_rejects_an_unknown_mode(mode):
    data = dict(solve_even_odd(P0).to_json(), mode=mode)
    with pytest.raises(ModeError, match="basis mode"):
        DeficiencyBasis.from_json(data)


def test_general_mode_serialization_round_trip():
    basis = solve_orthonormal_pair(Potential.polynomial([0.0, 1.0], 1.0))
    back = deficiency.DeficiencyBasis.from_json(basis.to_json())
    assert back.mat_A is None and back.mat_B is None
    assert jsonio.dumps(back.to_json()) == jsonio.dumps(basis.to_json())
    assert np.allclose(back.boundary_table, basis.boundary_table)


@pytest.mark.parametrize("mode", [deficiency.EVEN_MODE, deficiency.GENERAL_MODE])
def test_basis_json_has_no_scaling_matrix_and_older_files_load(mode):
    # the table is all the maps read; a file that still carries the matrix
    # that scaled the raw solutions loads, and the key is dropped
    basis = solve_even_odd(P0) if mode == deficiency.EVEN_MODE else solve_orthonormal_pair(P0)
    data = basis.to_json()
    assert "normalization" not in data
    older = dict(data, normalization=matrix_to_json(np.eye(2)))
    assert jsonio.dumps(DeficiencyBasis.from_json(older).to_json()) == jsonio.dumps(data)


def _with_table(edit):
    data = solve_even_odd(P0).to_json()
    table = np.array([[complex(*z) for z in row] for row in data["boundary_table"]])
    return dict(data, boundary_table=[[[z.real, z.imag] for z in row] for row in edit(table)])


@pytest.mark.parametrize("data, message", [
    (lambda: _with_table(lambda t: np.array([2.0 * t[0], t[1]])), r"endpoint identity \(0,0\)"),
    # g- turned towards conj(g+): both norms and the conjugated cross form
    # stay, the bilinear cross form does not vanish
    (lambda: _with_table(lambda t: np.array([t[0], np.cosh(1.0) * t[1]
                                             + np.sinh(1.0) * np.conj(t[0])])),
     r"conjugation-free identity \(0,1\)"),
    # the orthonormal pair meets both endpoint identities, but its rows do
    # not have the even basis's Wronskian i at x = a
    (lambda: dict(solve_orthonormal_pair(P0).to_json(), mode=deficiency.EVEN_MODE),
     "endpoint Wronskian of row 0"),
], ids=["doubled-row", "conjugation-free", "general-table-labelled-even"])
def test_from_json_rejects_a_table_that_breaks_an_endpoint_identity(data, message):
    with pytest.raises(InvariantViolation, match=message):
        DeficiencyBasis.from_json(data())
