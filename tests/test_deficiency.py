"""Deficiency-basis construction against closed forms and endpoint identities."""

import numpy as np
import pytest

import oracles
from saext import checks, deficiency, extmap, jsonio, odesolve
from saext.deficiency import (DeficiencyBasis, change_of_basis, endpoint_form,
                              solve_even_odd, solve_orthonormal_pair, wronskian_identity)
from saext.errors import InvariantViolation, ModeError, ParityError, UnitarityError
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


def tilted(a):
    """V = 2x/a on [-a, 0), -3 on [0, a]: not even, with a jump at 0."""
    return Potential.piecewise([((-a, 0.0), [0.0, 2.0 / a]), ((0.0, a), [-3.0])], a)


@pytest.mark.parametrize("solve, p", [
    *(pytest.param(solve_even_odd, p, id=f"even-{p.kind}") for p in EVEN_POTENTIALS),
    *(pytest.param(solve_orthonormal_pair, f(a), id=f"general-{f.__name__}-a{a:g}")
      for f in (tilted, Potential.zero) for a in (1.0, 2.0)),
])
def test_table_rows_are_orthonormal_by_quadrature(solve, p):
    # the bases take their norms from the endpoint form; the dense pass from
    # each row's data at -a must reach the row's data at +a, and Boole's rule
    # on it, where the a/512 grid resolves |g|^2, must find the rows orthonormal
    table = solve(p).boundary_table
    v1, v2 = odesolve.fundamental_solutions(p, 1j, -p.a, p.a)
    rows = [odesolve.combine([v1, v2], [g, dg]) for _, _, dg, g in table]
    for j, gj in enumerate(rows):
        assert abs(gj.df1 - table[j, 0]) + abs(gj.f1 - table[j, 1]) < deficiency.ORTHONORMALITY_TOL
        for k, gk in enumerate(rows):
            assert abs(odesolve.l2_inner(gj, gk) - (j == k)) < deficiency.ORTHONORMALITY_TOL


def test_deep_even_basis_matches_reference_log_derivatives():
    # at a = 6, |g|^2 varies on a length Boole's rule on the a/512 grid does not
    # resolve; g'(a)/g(a) of each row is scale-free and checked against scipy
    p = Potential.harmonic(25.0, 6.0)
    table = solve_even_odd(p).boundary_table
    t = oracles.reference_propagate(p, 1j, 0.0, p.a)  # columns: even, odd solution
    for j in range(2):
        want = t[1, j] / t[0, j]
        assert abs(table[j, 0] / table[j, 1] - want) < 1e-10 * abs(want)


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


WIDE_HALF_WIDTHS = [2.0, 3.0, 4.0, 6.0, 8.0]


@pytest.mark.parametrize("a", [*WIDE_HALF_WIDTHS[:-1], pytest.param(8.0, marks=pytest.mark.xfail(
    raises=UnitarityError, strict=True,
    reason="the basis passes, but the inverse map is ill-conditioned at wide a: here an error "
           "of 2e-13 in one forward-mapped Ucal moves even its exact inverse by 1.4e-9 "
           "(ROADMAP item 16)"))])
def test_harmonic_even_basis_at_wide_half_width(a):
    # V = 25x^2: g grows steeply towards +-a.  Norms by quadrature on the
    # dense pass broke the endpoint identities from a = 3 on
    basis = solve_even_odd(Potential.harmonic(25.0, a))
    assert extmap.check_identities(basis, samples=200)["passed"]
    assert checks.map_roundtrip(basis, 200, np.random.default_rng(5))["passed"]


@pytest.mark.parametrize("a", [*WIDE_HALF_WIDTHS, 10.0])
def test_harmonic_general_basis_at_wide_half_width(a):
    # a pair launched from one end and Gram-Schmidt on the dense pass lost
    # orthogonality at a = 2 and independence from a = 3 on; at a = 10 the
    # Gram matrix of the unscaled raw pair overflows
    basis = solve_orthonormal_pair(Potential.harmonic(25.0, a))
    for u in extmap.haar_unitary(np.random.default_rng(6), 200):
        extmap.forward_map_general(basis, extmap.Unitary2.certify(u))


@pytest.mark.parametrize("p", [P0, Potential.polynomial([0.0, 1.0], 1.0)])
def test_orthonormal_pair_endpoint_identities(p):
    basis = solve_orthonormal_pair(p)
    table = basis.boundary_table
    for j in range(2):
        for k in range(2):
            want = 2j if j == k else 0.0
            assert abs(endpoint_form(table[j], table[k]) - want) < 1e-8
            assert abs(endpoint_form(np.conj(table[j]), table[k])) < 1e-8


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
    assert jsonio.dumps(back.to_json()) == jsonio.dumps(data)
    assert np.array_equal(back.mat_A, np.diag(back.boundary_table[:, 1]))
    assert np.array_equal(back.mat_B, np.diag(back.boundary_table[:, 0]))


def test_change_of_basis_rejects_bases_of_different_potentials():
    # the coefficients solved at a miss the data at -a by 21
    with pytest.raises(InvariantViolation, match="inconsistent at x = -a"):
        change_of_basis(solve_even_odd(P0), solve_orthonormal_pair(Potential.harmonic(25.0, 1.0)))


def test_change_of_basis_rejects_a_nan_at_minus_a():
    # the data at a solve for the coefficients, and a NaN at -a only reaches
    # the cross-check there, whose defect is then NaN
    basis = solve_orthonormal_pair(P0)
    table = basis.boundary_table.copy()
    table[1, 3] = np.nan
    broken = DeficiencyBasis(basis.parity_mode, basis.potential, table)
    with pytest.raises(InvariantViolation, match="inconsistent at x = -a"):
        change_of_basis(solve_even_odd(P0), broken)


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
    # json reads NaN, and a NaN compares false with every tolerance
    (lambda: _with_table(lambda t: np.where([[0, 0, 1, 0], [0, 0, 0, 0]], np.nan, t)),
     r"endpoint identity \(0,0\)"),
], ids=["doubled-row", "conjugation-free", "general-table-labelled-even", "nan-entry"])
def test_from_json_rejects_a_table_that_breaks_an_endpoint_identity(data, message):
    with pytest.raises(InvariantViolation, match=message):
        DeficiencyBasis.from_json(data())
