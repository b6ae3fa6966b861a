"""Both directions of the parameter-to-boundary-condition correspondence."""

import numpy as np
import pytest

from saext import extmap
from saext.deficiency import (GENERAL_MODE, DeficiencyBasis, boundary_waves, change_of_basis,
                              solve_even_odd, solve_orthonormal_pair)
from saext.errors import ModeError, UnitarityError
from saext.extmap import (SIGMA_FLOOR, Unitary2, build_V_Vtilde, check_identities, forward_map,
                          forward_map_general, haar_unitary, inverse_map, random_matrix)
from saext.potential import Potential

IDENTITY = np.eye(2)


@pytest.fixture(scope="module")
def basis():
    return solve_even_odd(Potential.zero(1.0))


def dirichlet_parameter(basis):
    """The von Neumann unitary whose extension is Dirichlet."""
    return Unitary2.certify(-basis.mat_A @ np.linalg.inv(np.conj(basis.mat_A)))


def neumann_parameter(basis):
    return Unitary2.certify(-basis.mat_B @ np.linalg.inv(np.conj(basis.mat_B)))


def test_unitary2_certification():
    Unitary2.certify(np.eye(2))
    with pytest.raises(UnitarityError):
        Unitary2.certify(np.diag([2.0, 1.0]))
    with pytest.raises(UnitarityError):
        Unitary2.certify(np.eye(3))


def test_unitary2_certifies_a_stack_by_its_worst_defect():
    stack = haar_unitary(np.random.default_rng(12), 50)
    assert Unitary2.certify(stack).defect.shape == (50,)
    stack[17] = np.diag([1.0, 1.0 + 1e-6])
    with pytest.raises(UnitarityError, match="defect 2.000e-06"):
        Unitary2.certify(stack)
    with pytest.raises(UnitarityError, match=r"shape \(2, 2, 2, 2\)"):
        Unitary2.certify(np.broadcast_to(IDENTITY, (2, 2, 2, 2)))


def test_build_with_zero_parameter(basis):
    v, _ = build_V_Vtilde(basis, np.zeros((2, 2)))
    assert np.allclose(v, np.conj(basis.mat_A) - 1j * np.conj(basis.mat_B))


def test_build_cancellation_makes_v_equal_vtilde(basis):
    u = dirichlet_parameter(basis)  # conj(U) = -conj(A) A^-1 cancels the A terms
    v, vt = build_V_Vtilde(basis, u.matrix)
    assert np.abs(v - vt).max() < 1e-9


def test_unitarity_identity_for_random_matrices(basis):
    rng = np.random.default_rng(1)
    for _ in range(100):
        u = random_matrix(rng)
        v, vt = build_V_Vtilde(basis, u)
        lhs = v @ v.conj().T - vt @ vt.conj().T
        rhs = 2.0 * (IDENTITY - np.conj(u) @ np.conj(u).conj().T)
        assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, np.abs(rhs).max())


def test_unitarity_identity_diag_2_1(basis):
    u = np.diag([2.0, 1.0]).astype(complex)
    v, vt = build_V_Vtilde(basis, u)
    lhs = v @ v.conj().T - vt @ vt.conj().T
    assert np.abs(lhs - 2.0 * np.diag([-3.0, 0.0])).max() < 1e-8


def test_identity_parameter_balances_norms(basis):
    v, vt = build_V_Vtilde(basis, np.eye(2))
    assert np.abs(v @ v.conj().T - vt @ vt.conj().T).max() < 1e-9


def test_forward_dirichlet(basis):
    pair = forward_map(basis, dirichlet_parameter(basis))
    assert np.abs(pair.Ucal.matrix - IDENTITY).max() < 1e-9


def test_forward_neumann(basis):
    pair = forward_map(basis, neumann_parameter(basis))
    assert np.abs(pair.Ucal.matrix + IDENTITY).max() < 1e-9


def test_forward_invariants(basis):
    rng = np.random.default_rng(2)
    p = np.array([[1.0, 1.0], [-1.0, 1.0]])
    q = np.array([[1.0, -1.0], [1.0, 1.0]])
    for _ in range(50):
        pair = forward_map(basis, Unitary2.certify(haar_unitary(rng)))
        assert pair.Ucal.defect <= 1e-9
        assert np.abs(pair.V @ pair.Utilde.matrix - pair.Vtilde).max() < 1e-9
        assert np.abs(pair.Ucal.matrix - 0.5 * p @ pair.Utilde.matrix @ q).max() < 1e-12


def test_forward_unitary_output_500(basis):
    rng = np.random.default_rng(3)
    worst = max(forward_map(basis, Unitary2.certify(haar_unitary(rng))).Ucal.defect
                for _ in range(500))
    assert worst <= 1e-9


def test_inverse_of_identity_is_dirichlet_parameter(basis):
    u = inverse_map(basis, Unitary2.certify(np.eye(2)))
    assert np.abs(u.matrix - dirichlet_parameter(basis).matrix).max() < 1e-10


def test_inverse_of_minus_identity_is_neumann_parameter(basis):
    u = inverse_map(basis, Unitary2.certify(-np.eye(2)))
    assert np.abs(u.matrix - neumann_parameter(basis).matrix).max() < 1e-10


def test_round_trip_both_directions(basis):
    rng = np.random.default_rng(4)
    for _ in range(200):
        u = Unitary2.certify(haar_unitary(rng))
        ucal = forward_map(basis, u).Ucal
        assert np.abs(inverse_map(basis, ucal).matrix - u.matrix).max() < 1e-8
        w = Unitary2.certify(haar_unitary(rng))
        back = forward_map(basis, inverse_map(basis, w)).Ucal
        assert np.abs(back.matrix - w.matrix).max() < 1e-8


def tilted(a):
    """V = 2x/a on [-a, 0), -3 on [0, a]: a potential that is not even."""
    return Potential.piecewise([((-a, 0.0), [0.0, 2.0 / a]), ((0.0, a), [-3.0])], a)


# numpy rounds a complex quotient apart from Python, and Cramer's rule passes that on,
# amplified by the condition of V and m: up to about 100 for harmonic(25).  The
# products that form V and m are taken in Python's own real arithmetic on a stack.
@pytest.mark.parametrize("p, tol, general", [
    (Potential.zero(1.0), 1e-15, False), (Potential.zero(3.0), 1e-15, False),
    (Potential.harmonic(25.0, 1.0), 1e-14, False),
    (Potential.zero(1.0), 1e-15, True), (Potential.zero(3.0), 1e-15, True),
    (tilted(1.0), 1e-15, True), (tilted(3.0), 1e-15, True),
], ids=["zero-a1", "zero-a3", "harmonic-a1", "general-zero-a1", "general-zero-a3",
        "general-tilted-a1", "general-tilted-a3"])
def test_maps_of_a_stack_are_the_maps_of_its_matrices(p, tol, general):
    stack = Unitary2.certify(haar_unitary(np.random.default_rng(13), 200))
    if general:
        basis = solve_orthonormal_pair(p)
        ucal = forward_map_general(basis, stack).matrix
        outputs = [(ucal[k], forward_map_general(basis, Unitary2.certify(u)).matrix)
                   for k, u in enumerate(stack.matrix)]
    else:
        basis = solve_even_odd(p)
        pair = forward_map(basis, stack)
        back = inverse_map(basis, pair.Ucal)
        outputs = []
        for k, u in enumerate(stack.matrix):
            one = forward_map(basis, Unitary2.certify(u))
            ucal = Unitary2.certify(pair.Ucal.matrix[k])  # the inverse map of the same input
            outputs += [(pair.V[k], one.V), (pair.Vtilde[k], one.Vtilde),
                        (pair.Utilde.matrix[k], one.Utilde.matrix),
                        (pair.Ucal.matrix[k], one.Ucal.matrix),
                        (back.matrix[k], inverse_map(basis, ucal).matrix)]
    for got, want in outputs:
        assert np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())


def sigma_min(m):
    return np.linalg.svd(m, compute_uv=False)[..., -1]


def inverse_system_sigma_min(basis, ucal):
    """The smallest singular value of m in the inverse-map system conj(U) m = rhs."""
    return sigma_min(extmap._inverse_system(basis, ucal.matrix)[0])


def test_homogeneous_system_well_conditioned(basis):
    rng = np.random.default_rng(5)
    for _ in range(100):
        ucal = forward_map(basis, Unitary2.certify(haar_unitary(rng))).Ucal
        assert inverse_system_sigma_min(basis, ucal) > 1e-6


# harmonic(25 / a^2) is harmonic(25) at a = 1
BOUND_POTENTIALS = [Potential.harmonic(1e4, 1.0)] + [p for a in (1.0, 3.0, 8.0) for p in (
    Potential.zero(a), Potential.harmonic(25.0, a), Potential.cosine(5.0, np.pi, a),
    Potential.finite_well(-10.0, a / 2, a))] + [
    Potential.harmonic(25.0 / a**2, a) for a in (3.0, 8.0)]


def bound_id(p):
    coefficient = f"{p.params['coefficient']:g}" if p.kind == "harmonic" else ""
    return f"{p.kind}{coefficient}-a{p.a:g}"


def even_bound(basis):
    """2 / (max_j |e_j| + max_j |d_j|), e_j = g_j(a) + i g_j'(a) and
    d_j = g_j(a) - i g_j'(a), with |e_j|^2 - |d_j|^2 = 2 (extmap docstring)."""
    dg, g = basis.boundary_table[:, 0], basis.boundary_table[:, 1]
    e, d = np.abs(g + 1j * dg), np.abs(g - 1j * dg)
    np.testing.assert_allclose(e**2 - d**2, 2.0, rtol=1e-9)
    return 2.0 / (e.max() + d.max())


@pytest.mark.parametrize("p", BOUND_POTENTIALS, ids=bound_id)
def test_v_and_vtilde_are_bounded_away_from_singular(p):
    # the bound that lets forward_map solve V Ut = V~ without a singularity check
    basis = solve_even_odd(p)
    v, vt = build_V_Vtilde(basis, haar_unitary(np.random.default_rng(40), 500))
    bound = even_bound(basis)
    assert sigma_min(v).min() / bound >= 1.0 - 1e-6
    assert sigma_min(vt).min() / bound >= 1.0 - 1e-6


@pytest.mark.parametrize("p", BOUND_POTENTIALS, ids=bound_id)
def test_inverse_system_is_bounded_away_from_singular(p):
    # the bound that makes inverse_map's solution unique for every unitary Ucal
    basis = solve_even_odd(p)
    ucal = Unitary2.certify(haar_unitary(np.random.default_rng(41), 500))
    assert inverse_system_sigma_min(basis, ucal).min() / even_bound(basis) >= 1.0 - 1e-6


@pytest.mark.parametrize("p", BOUND_POTENTIALS, ids=bound_id)
def test_general_endpoint_vectors_are_independent(p):
    # the rows of [table; conj(table)] have boundary-form Gram diag(2i, 2i, -2i, -2i),
    # so the waves psi_minus(G_j) that forward_map_general inverts obey
    # sigma_min >= 2 / ||table||_2
    table = solve_orthonormal_pair(p).boundary_table
    psi_minus, _ = boundary_waves(table + haar_unitary(np.random.default_rng(42), 500)
                                  @ np.conj(table))
    bound = 2.0 / np.linalg.norm(table, 2)
    assert sigma_min(psi_minus).min() / bound >= 1.0 - 1e-6


def test_mode_errors():
    general = solve_orthonormal_pair(Potential.zero(1.0))
    with pytest.raises(ModeError):
        build_V_Vtilde(general, np.eye(2))
    even = solve_even_odd(Potential.zero(1.0))
    with pytest.raises(ModeError):
        forward_map_general(even, Unitary2.certify(np.eye(2)))


def test_general_map_unitary_for_non_even_potential():
    basis = solve_orthonormal_pair(Potential.polynomial([0.0, 1.0], 1.0))
    rng = np.random.default_rng(6)
    for _ in range(100):
        ucal = forward_map_general(basis, Unitary2.certify(haar_unitary(rng)))
        assert ucal.defect <= 1e-8


def test_general_map_dirichlet_is_identity():
    basis = solve_orthonormal_pair(Potential.zero(1.0))
    table = basis.boundary_table
    values = np.array([[table[0, 1], table[0, 3]], [table[1, 1], table[1, 3]]])
    u = Unitary2.certify(-values @ np.linalg.inv(np.conj(values)), tol=1e-8)
    ucal = forward_map_general(basis, u)
    assert np.abs(ucal.matrix - IDENTITY).max() < 1e-7


@pytest.mark.parametrize("p", [Potential.zero(1.0), Potential.harmonic(1.0, 1.0)])
def test_general_map_agrees_with_even_map(p):
    even = solve_even_odd(p)
    general = solve_orthonormal_pair(p)
    c = change_of_basis(even, general)
    rng = np.random.default_rng(7)
    for _ in range(25):
        u = Unitary2.certify(haar_unitary(rng))
        ucal_even = forward_map(even, u).Ucal.matrix
        u_general = Unitary2.certify(c @ u.matrix @ c.T, tol=1e-8)
        ucal_general = forward_map_general(general, u_general).matrix
        assert np.abs(ucal_even - ucal_general).max() < 1e-7


@pytest.mark.parametrize("p", [
    Potential.zero(1.0),
    Potential.harmonic(25.0, 1.0),
    Potential.finite_well(-10.0, 0.5, 1.0),
    Potential.cosine(5.0, np.pi, 1.0),
    Potential.zero(3.0),
], ids=lambda p: f"{p.kind}-a{p.a:g}")
def test_general_map_on_even_table_is_forward_map(p):
    # the paper's even-mode formula and the general construction agree on one table
    even = solve_even_odd(p)
    general = DeficiencyBasis(GENERAL_MODE, p, even.boundary_table)
    rng = np.random.default_rng(8)
    for _ in range(200):
        u = Unitary2.certify(haar_unitary(rng))
        ucal = forward_map(even, u).Ucal.matrix
        assert np.abs(forward_map_general(general, u).matrix - ucal).max() < 1e-12


def test_check_identities_passes(basis):
    report = check_identities(basis, samples=200, seed=0)
    assert report["passed"]
    assert report["checks"]["identity"]["worst"] <= 1e-8
    assert report["checks"]["v_nonsingular"]["worst"] > 1e-6
    assert report["checks"]["homogeneous_system"]["worst"] > 1e-6


def helper_inputs():
    """Haar U, U -+ I, scalars times a unitary (equal singular values), rank-1
    matrices and the zero matrix."""
    rng = np.random.default_rng(9)
    out = []
    for _ in range(200):
        u = haar_unitary(rng)
        out += [u, u - IDENTITY, u + IDENTITY, rng.uniform(0.1, 5.0) * u]
        x, y = random_matrix(rng)
        out.append(np.outer(x, y))
    out += [np.zeros((2, 2), dtype=complex), 3.0 * IDENTITY, np.diag([1.0, 0.0]).astype(complex)]
    return out


def singular_values(m):
    """The closed-form singular values of a matrix or a stack, through its entries."""
    return extmap._singular_values(extmap._entries(m))


def solve(lhs, rhs):
    """The closed-form lhs^-1 rhs of two matrices or two stacks, through their entries."""
    return extmap._matrix(*extmap._solve(extmap._entries(lhs), extmap._entries(rhs)))


def test_closed_form_singular_values_match_lapack():
    for m in helper_inputs():
        want = np.linalg.svd(m, compute_uv=False)
        got = singular_values(m)
        assert np.abs(np.array(got) - want).max() <= 1e-14 * max(1.0, want[0]), m
    stack = np.array(helper_inputs())
    want = np.linalg.svd(stack, compute_uv=False)
    got = np.array(singular_values(stack)).T
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, want[:, :1]))


def test_closed_form_unitarity_defect_matches_frobenius_norm():
    for m in helper_inputs():
        want = np.linalg.norm(m.conj().T @ m - IDENTITY)
        assert abs(Unitary2.defect_of(m) - want) <= 1e-14 * max(1.0, want), m
    stack = np.array(helper_inputs())
    want = np.linalg.norm(np.conj(stack).swapaxes(1, 2) @ stack - IDENTITY, axis=(1, 2))
    assert np.abs(extmap._unitarity_defect(*extmap._entries(stack)) - want).max() <= 1e-14 * want.max()


def test_cramer_solve_matches_lapack():
    rng = np.random.default_rng(10)
    for lhs in helper_inputs():
        a, b, c, d = lhs.ravel()
        if a * d - b * c == 0.0:  # the zero matrix, diag(1, 0) and some rank-1 products
            with pytest.raises(ZeroDivisionError):
                solve(lhs, IDENTITY)
            continue
        if np.linalg.cond(lhs) > 1e8:  # the other rank-1 products
            continue
        rhs = random_matrix(rng)
        want = np.linalg.solve(lhs, rhs)
        bound = 1e-14 * np.linalg.cond(lhs) * np.abs(want).max()
        assert np.abs(solve(lhs, rhs) - want).max() <= bound, lhs
    # the same nonsingular inputs as one stack
    lhs = np.array([m for m in helper_inputs() if np.linalg.cond(m) <= 1e8])
    rhs = random_matrix(rng, len(lhs))
    want = np.linalg.solve(lhs, rhs)
    bound = 1e-14 * np.linalg.cond(lhs) * np.abs(want).max(axis=(1, 2))
    assert np.all(np.abs(solve(lhs, rhs) - want).max(axis=(1, 2)) <= bound)


def test_check_identities_draws_the_loop_draws():
    rng = np.random.default_rng(4)
    haar = [haar_unitary(rng) for _ in range(30)]
    rand = [random_matrix(rng) for _ in range(30)]
    rng = np.random.default_rng(4)  # a stack takes the numbers of as many single draws
    assert np.array_equal(haar_unitary(rng, 30), haar)
    assert np.array_equal(random_matrix(rng, 30), rand)


def test_haar_unitary_is_the_phase_fixed_qr_of_random_matrix():
    z = random_matrix(np.random.default_rng(21), 10_000)
    q = haar_unitary(np.random.default_rng(21), 10_000)
    assert np.max(Unitary2.defect_of(q)) <= 1e-14
    r = q.conj().swapaxes(1, 2) @ z  # Z = Q R with R upper triangular, diagonal > 0
    scale = np.linalg.norm(z, axis=(1, 2))
    diagonal = np.diagonal(r, axis1=1, axis2=2)
    assert np.all(np.abs(r[:, 1, 0]) <= 1e-14 * scale)
    assert np.all(np.abs(diagonal.imag) <= 1e-14 * scale[:, None])
    assert np.all(diagonal.real > 0.0)
    # LAPACK's Q with the phases of R's diagonal moved into it, as the reference only
    q_ref, r_ref = np.linalg.qr(z)
    d = np.diagonal(r_ref, axis1=1, axis2=2)
    assert np.abs(q - q_ref * (d / np.abs(d))[:, None, :]).max() <= 1e-12


def test_haar_unitary_is_haar_distributed():
    from scipy.stats import kstest

    u = haar_unitary(np.random.default_rng(22), 5000)
    # Haar on U(2): |U00|^2 is uniform on [0, 1] and det U uniform on the circle
    assert kstest(np.abs(u[:, 0, 0]) ** 2, "uniform").pvalue > 0.01
    phase = np.angle(np.linalg.det(u)) % (2.0 * np.pi)
    assert kstest(phase, "uniform", args=(0.0, 2.0 * np.pi)).pvalue > 0.01


def test_haar_unitary_runs_no_lapack_qr(monkeypatch):
    def raising(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")
    monkeypatch.setattr(np.linalg, "qr", raising)
    rng = np.random.default_rng(23)
    assert Unitary2.certify(haar_unitary(rng)).matrix.shape == (2, 2)
    assert Unitary2.certify(haar_unitary(rng, 7)).matrix.shape == (7, 2, 2)


def test_check_identities_certifies_the_forward_map(basis, monkeypatch):
    # wrapped by name, as the benchmark's tracer wraps it
    calls, forward = [], extmap.forward_map

    def recording(b, u):
        calls.append(u.matrix)
        return forward(b, u)
    monkeypatch.setattr(extmap, "forward_map", recording)
    check_identities(basis, samples=40, seed=3)
    assert len(calls) == 1
    assert np.array_equal(calls[0], haar_unitary(np.random.default_rng(3), 40))


def loop_check_identities(basis, samples, seed):
    """The per-draw values of check_identities, one matrix at a time."""
    rng = np.random.default_rng(seed)
    draws = [(haar_unitary(rng), True) for _ in range(samples)]
    draws += [(random_matrix(rng), False) for _ in range(samples)]
    seen = {"identity": [], "v_nonsingular": [], "vtilde_nonsingular": [],
            "homogeneous_system": [], "forward_unitarity": []}
    for u_mat, unitary in draws:
        v, vt = build_V_Vtilde(basis, u_mat)
        uc = np.conj(u_mat)
        rhs = 2.0 * (IDENTITY - uc @ uc.conj().T)
        lhs = v @ v.conj().T - vt @ vt.conj().T
        seen["identity"].append(np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(rhs)))
        if unitary:
            seen["v_nonsingular"].append(np.linalg.svd(v, compute_uv=False)[-1])
            seen["vtilde_nonsingular"].append(np.linalg.svd(vt, compute_uv=False)[-1])
            ucal = forward_map(basis, Unitary2.certify(u_mat)).Ucal
            seen["forward_unitarity"].append(ucal.defect)
            seen["homogeneous_system"].append(inverse_system_sigma_min(basis, ucal))
    return seen


@pytest.mark.parametrize("p", [Potential.zero(1.0), Potential.harmonic(25.0, 1.0),
                               Potential.zero(3.0)], ids=lambda p: f"{p.kind}-a{p.a:g}")
def test_check_identities_matches_loop(p):
    basis = solve_even_odd(p)
    report = check_identities(basis, samples=60, seed=5)
    seen = loop_check_identities(basis, 60, 5)
    floors = {"v_nonsingular", "vtilde_nonsingular", "homogeneous_system"}
    for name, check in report["checks"].items():
        values = np.array(seen[name])
        worst = values.min() if name in floors else values.max()
        failed = (values <= SIGMA_FLOOR) if name in floors else (values > check["threshold"])
        assert check["count"] == len(values)
        assert check["failed"] == int(failed.sum())
        assert abs(check["worst"] - worst) <= 1e-14 * max(1.0, abs(worst))
    empty = check_identities(basis, samples=0)
    assert empty["passed"] and empty["checks"]["v_nonsingular"]["worst"] == np.inf


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_singular_values_of_tiny_and_huge_matrices_match_lapack(scale):
    # the Gram matrix squares the entries: unscaled, 1e-200 underflows to 0
    # and 1e200 overflows to inf
    m = scale * random_matrix(np.random.default_rng(12))
    want = np.linalg.svd(m / scale, compute_uv=False) * scale
    assert np.abs(np.array(singular_values(m)) - want).max() <= 1e-14 * want[0]
    stack = np.array([m, m / scale])
    got = np.array(singular_values(stack)).T
    assert np.abs(got[0] - want).max() <= 1e-14 * want[0]
    assert np.abs(got[1] - want / scale).max() <= 1e-14 * want[0] / scale  # the in-range one


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_cramer_solve_of_tiny_and_huge_matrices_matches_lapack(scale):
    rng = np.random.default_rng(13)
    lhs, rhs = scale * random_matrix(rng), random_matrix(rng)
    want = np.linalg.solve(lhs / scale, rhs) / scale
    bound = 1e-14 * np.linalg.cond(lhs) * np.abs(want).max()
    assert np.abs(solve(lhs, rhs) - want).max() <= bound
    got = solve(np.array([lhs, lhs]), np.array([rhs, rhs]))
    assert np.abs(got - want).max() <= bound
