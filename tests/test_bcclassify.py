"""Case classification, named-family synthesis and the endpoint relation."""

import json

import numpy as np
import pytest
from scipy.linalg import expm

from saext import bcclassify, cli, spectrum
from saext.bcclassify import (BoundaryCondition, DEFAULT_TOL, FAMILIES, apply_bc, classify,
                              synthesize, synthesize_from)
from saext.deficiency import boundary_waves, endpoint_form
from saext.errors import ParameterError, UnitarityError
from saext.extmap import Unitary2, _entries, _matrix, haar_unitary

IDENTITY = np.eye(2)


def case_iv_matrix(theta, phi):
    return np.array([[np.cos(theta), np.exp(-1j * phi) * np.sin(theta)],
                     [np.exp(1j * phi) * np.sin(theta), -np.cos(theta)]])


def test_identity_is_dirichlet():
    bc = classify(Unitary2.certify(IDENTITY))
    assert bc.case == "III" and bc.name == "dirichlet"
    assert np.abs(bc.Hprime).max() < 1e-12


def test_minus_identity_is_neumann():
    bc = classify(Unitary2.certify(-IDENTITY))
    assert bc.case == "II" and bc.name == "neumann"
    assert np.abs(bc.H).max() < 1e-12


def test_periodic_and_anti_periodic():
    bc = classify(Unitary2.certify(case_iv_matrix(np.pi / 2, 0.0)))
    assert bc.case == "IV" and bc.name == "periodic"
    assert abs(bc.K - 1.0) < 1e-12
    bc = classify(Unitary2.certify(case_iv_matrix(np.pi / 2, np.pi)))
    assert bc.case == "IV" and bc.name == "anti-periodic"
    assert abs(bc.K + 1.0) < 1e-12


def test_mixed_endpoint_cases():
    bc = classify(Unitary2.certify(case_iv_matrix(0.0, 0.0)))
    assert bc.case == "IV" and bc.name == "dirichlet-at-a-neumann-at-minus-a"
    assert bc.angles[0] == 0.0 and bc.K is None
    bc = classify(Unitary2.certify(case_iv_matrix(np.pi, 0.0)))
    assert bc.case == "IV" and bc.name == "neumann-at-a-dirichlet-at-minus-a"


def test_scalar_phase_is_robin():
    # diag(e^{i chi}, e^{i chi}) at chi = pi/2: H = -cot(chi/2) I = -I
    bc = classify(Unitary2.certify(1j * IDENTITY))
    assert bc.case == "I" and bc.name == "robin"
    alpha, beta, gamma = bc.robin
    assert abs(alpha + 1.0) < 1e-12
    assert abs(beta) < 1e-12
    assert abs(gamma - 1.0) < 1e-12


def test_generic_automorphic():
    bc = classify(Unitary2.certify(case_iv_matrix(1.0, 2.0)))
    assert bc.name == "automorphic"
    assert abs(bc.K - np.exp(2j) / np.tan(0.5)) < 1e-10


def test_case_assignment_is_single_valued():
    rng = np.random.default_rng(0)
    for _ in range(300):
        bc = classify(Unitary2.certify(haar_unitary(rng)))
        assert bc.case in ("I", "II", "III", "IV")


def test_h_is_hermitian_and_commutes():
    rng = np.random.default_rng(1)
    for _ in range(100):
        u = Unitary2.certify(haar_unitary(rng))
        bc = classify(u)
        if bc.H is None:
            continue
        scale = max(1.0, np.abs(bc.H).max())
        assert np.abs(bc.H - bc.H.conj().T).max() < 1e-10 * scale
        assert np.abs(bc.H @ u.matrix - u.matrix @ bc.H).max() < 1e-9 * scale


def test_case_i_cayley_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        u = Unitary2.certify(haar_unitary(rng))
        bc = classify(u)
        if bc.case != "I":
            continue
        # Ucal = (H + iI)^-1 (H - iI)
        rebuilt = np.linalg.solve(bc.H + 1j * IDENTITY, bc.H - 1j * IDENTITY)
        assert np.abs(rebuilt - u.matrix).max() < 1e-9 * max(1.0, np.abs(bc.H).max())


def test_case_iv_iff_traceless_and_det_minus_one():
    rng = np.random.default_rng(3)
    draws = [Unitary2.certify(haar_unitary(rng)) for _ in range(200)]
    draws += [Unitary2.certify(case_iv_matrix(t, p))
              for t, p in ((0.3, 1.0), (np.pi / 2, 0.5), (2.0, 4.0))]
    for u in draws:
        bc = classify(u)
        traceless = abs(np.trace(u.matrix)) <= 10 * DEFAULT_TOL
        det_minus = abs(np.linalg.det(u.matrix) + 1.0) <= 10 * DEFAULT_TOL
        assert (bc.case == "IV") == (traceless and det_minus)


def test_synthesize_named_families():
    # the fixed families are exact, so each singular I -/+ Ucal has sigma_min 0.0
    singular = {"II": ["I_plus_U"], "III": ["I_minus_U"], "IV": ["I_minus_U", "I_plus_U"]}
    for family, want in (("dirichlet", IDENTITY), ("neumann", -IDENTITY),
                         ("periodic", [[0, 1], [1, 0]]), ("anti-periodic", [[0, -1], [-1, 0]]),
                         ("dirichlet-at-a-neumann-at-minus-a", np.diag([1, -1])),
                         ("neumann-at-a-dirichlet-at-minus-a", np.diag([-1, 1]))):
        ucal = synthesize(family)
        assert np.array_equal(ucal.matrix, want), family
        bc = classify(ucal)
        zeros = [0.0] * len(singular[bc.case])
        assert [bc.sigma[key][1] for key in singular[bc.case]] == zeros, family


def test_synthesize_robin_cayley_oracle():
    # scalar Cayley (h - i)/(h + i) at h = -1 gives i
    u = synthesize("robin", alpha=-1.0, gamma=1.0)
    assert np.abs(u.matrix - 1j * IDENTITY).max() < 1e-12
    bc = classify(u)
    assert bc.name == "robin"
    assert abs(bc.robin[0] + 1.0) < 1e-9 and abs(bc.robin[2] - 1.0) < 1e-9


def test_synthesize_automorphic_from_k():
    k = 0.5 * np.exp(0.7j)
    bc = classify(synthesize("automorphic", K=k))
    assert bc.name == "automorphic"
    assert abs(bc.K - k) < 1e-10


def test_synthesize_classify_round_trips():
    cases = [("dirichlet", {}), ("neumann", {}), ("periodic", {}), ("anti-periodic", {}),
             ("robin", {"alpha": 2.0, "gamma": -0.7}),
             ("general-coupled", {"alpha": 1.0, "beta": 0.5 - 0.2j, "gamma": 0.3}),
             ("automorphic", {"K": 2.0 - 1.0j}),
             ("dirichlet-at-a-neumann-at-minus-a", {}),
             ("neumann-at-a-dirichlet-at-minus-a", {})]
    for family, params in cases:
        bc = classify(synthesize(family, **params))
        assert bc.name == family


@pytest.mark.parametrize("theta", [2e-8, 1e-6, 0.3, np.pi / 2, 2.9, np.pi - 1e-6, np.pi - 2e-8])
def test_case_iv_rebuilds_from_k(theta):
    # synthesize_from rebuilds Case IV from K = e^{ip} cot(t/2) alone, near
    # both mixed pairs too, where |K| is 1e8 or 1e-8
    worst = 0.0
    for phi in np.arange(12) * np.pi / 6:
        ucal = Unitary2.certify(case_iv_matrix(theta, phi))
        bc = classify(ucal)
        assert bc.case == "IV" and bc.K is not None
        worst = max(worst, np.abs(synthesize_from(bc).matrix - ucal.matrix).max())
    assert worst < 1e-15


@pytest.mark.parametrize("seed", [13, 15])
def test_case_iv_near_mixed_endpoint_round_trips(seed):
    # within 1e-8 of the Dirichlet-at-a/Neumann-at-minus-a point theta is
    # about 1e-8 and must keep the precision of sin(theta), or it reads 0
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    mixed = synthesize("dirichlet-at-a-neumann-at-minus-a").matrix
    ucal = Unitary2.certify(mixed @ expm(0.5e-8j * (a + a.conj().T)))
    bc = classify(ucal)
    assert bc.case == "IV" and bc.angles[0] > 0.0
    assert np.abs(synthesize_from(bc).matrix - ucal.matrix).max() < 1e-7


def test_partition_and_parameter_round_trip():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(2000):
        u = Unitary2.certify(haar_unitary(rng))
        bc = classify(u)
        if bc.case in ("I", "IV"):
            rebuilt = synthesize_from(bc)
            worst = max(worst, np.abs(rebuilt.matrix - u.matrix).max())
    assert worst < 1e-7


@pytest.mark.parametrize("delta, theta", [(4e-8, 2e-3), (1e-7, 1e-3), (1e-6, 1e-4),
                                          (3e-8, 1e-2)])
def test_near_singular_case_i_rebuilds_from_its_h(delta, theta):
    # I + Ucal is regular by classify's rule (sigma_min > 1e-8 sigma_max), but
    # det H is small enough that synthesize's own rule for general-coupled
    # calls H singular; the rebuild reads the kept H and passes no such rule
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    ucal = Unitary2.certify(rot @ np.diag(np.exp([1j * (np.pi + delta), 1j * theta])) @ rot.T)
    bc = classify(ucal)
    assert (bc.case, bc.name) == ("I", "general-coupled")
    assert np.abs(synthesize_from(bc).matrix - ucal.matrix).max() <= 1e-7


def test_equal_conditions_are_equal():
    assert classify(synthesize("dirichlet")) == classify(synthesize("dirichlet"))
    ucal = Unitary2.certify(haar_unitary(np.random.default_rng(8)))
    assert classify(ucal) == classify(Unitary2.certify(ucal.matrix.copy()))
    assert classify(synthesize("dirichlet")) != classify(synthesize("neumann"))


def test_classify_rejects_a_stack():
    stack = Unitary2.certify(haar_unitary(np.random.default_rng(0), 3))
    with pytest.raises(UnitarityError, match=r"\(3, 2, 2\)"):
        classify(stack)


def test_parameter_errors():
    with pytest.raises(ParameterError):
        synthesize("robin", alpha=0.0, gamma=1.0)
    with pytest.raises(ParameterError):
        synthesize("automorphic", K=0.0)
    with pytest.raises(ParameterError):
        synthesize("automorphic", K=np.inf)   # not the mixed pair its limit would give
    with pytest.raises(ParameterError, match="gamma"):
        synthesize("robin", alpha=1.0)
    with pytest.raises(ParameterError):
        synthesize("robin", alpha=1.0, beta=1.0, gamma=1.0)
    with pytest.raises(ParameterError):
        synthesize("general-coupled", alpha=1.0, beta=0.0, gamma=0.0)  # singular H
    with pytest.raises(ParameterError):
        synthesize("general-case-II", alpha=1.0, beta=0.0, gamma=1.0)  # invertible H
    with pytest.raises(ParameterError):
        synthesize("no-such-family")
    with pytest.raises(ParameterError):
        classify(Unitary2.certify(IDENTITY), tol=1.0)


def test_apply_bc_dirichlet_data():
    bc = classify(synthesize("dirichlet"))
    assert apply_bc(bc, np.array([3.7, 0.0, -1.2, 0.0])) < 1e-15
    assert abs(apply_bc(bc, np.array([0.0, 1.0, 0.0, 0.0])) - 2.0) < 1e-15


def test_apply_bc_neumann_data():
    bc = classify(synthesize("neumann"))
    assert apply_bc(bc, np.array([0.0, 0.9, 0.0, -0.3])) < 1e-15


def test_apply_bc_case_i_consistency():
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = Unitary2.certify(haar_unitary(rng))
        bc = classify(u)
        if bc.case != "I":
            continue
        fa, fma = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        dfa, dfma = bc.H @ np.array([fa, -fma])
        scale = max(1.0, abs(dfa), abs(dfma))
        assert apply_bc(bc, np.array([dfa, fa, dfma, fma])) < 1e-8 * scale


def test_report_json_shape():
    bc = classify(synthesize("periodic"))
    data = bc.to_json()
    assert data["case"] == "IV" and data["name"] == "periodic"
    assert "singular_values" in data and "matrix" in data
    assert data["parameters"]["theta"] == pytest.approx(np.pi / 2)
    assert isinstance(bc, BoundaryCondition)


def reference_case_and_name(u, tol=DEFAULT_TOL):
    """classify's case and name from LAPACK singular values and solves."""
    sig_minus = np.linalg.svd(IDENTITY - u, compute_uv=False)
    sig_plus = np.linalg.svd(IDENTITY + u, compute_uv=False)
    scale = max(sig_minus[0], sig_plus[0])
    minus_singular, plus_singular = sig_minus[-1] <= tol * scale, sig_plus[-1] <= tol * scale
    if not minus_singular:
        if plus_singular:
            return "II", "neumann" if sig_plus[0] <= tol * scale else "general-case-II"
        h = 1j * np.linalg.solve(IDENTITY - u, IDENTITY + u)
        h = 0.5 * (h + h.conj().T)
        coupled = abs(h[0, 1]) > tol * max(1.0, np.abs(h).max())
        return "I", "general-coupled" if coupled else "robin"
    if not plus_singular:
        return "III", "dirichlet" if sig_minus[0] <= tol * scale else "general-case-III"
    n3 = 0.5 * (u[0, 0] - u[1, 1]).real
    n1, n2 = 0.5 * (u[1, 0] + u[0, 1]).real, 0.5 * (u[1, 0] - u[0, 1]).imag
    n1, n2, n3 = np.array([n1, n2, n3]) / np.linalg.norm([n1, n2, n3])
    theta = np.arccos(np.clip(n3, -1.0, 1.0))
    if np.hypot(n1, n2) <= tol:
        return "IV", ("dirichlet-at-a-neumann-at-minus-a" if theta < 0.5 * np.pi
                      else "neumann-at-a-dirichlet-at-minus-a")
    phi = np.arctan2(n2, n1) % (2.0 * np.pi)
    if abs(theta - 0.5 * np.pi) <= tol and abs(phi) <= tol:
        return "IV", "periodic"
    if abs(theta - 0.5 * np.pi) <= tol and abs(phi - np.pi) <= tol:
        return "IV", "anti-periodic"
    return "IV", "automorphic"


NAMED = [("robin", {"alpha": 2.0, "gamma": -3.0}),
         ("general-coupled", {"alpha": 1.0, "beta": 0.5 + 0.5j, "gamma": -2.0}),
         ("neumann", {}), ("dirichlet", {}), ("periodic", {}), ("anti-periodic", {}),
         ("automorphic", {"K": 2.0 + 1.0j}), ("dirichlet-at-a-neumann-at-minus-a", {}),
         ("neumann-at-a-dirichlet-at-minus-a", {}),
         ("general-case-II", {"alpha": 1.0, "beta": 1.0, "gamma": -1.0}),
         ("general-case-III", {"alpha": 1.0, "beta": 1.0, "gamma": -1.0})]


def test_classify_matches_lapack_reference():
    # Haar draws, every named family, and each family turned by exp(i eps H) for
    # random Hermitian H, with eps around the default singularity tolerance 1e-8
    rng = np.random.default_rng(6)
    draws = [haar_unitary(rng) for _ in range(1000)]
    for family, params in NAMED:
        base = synthesize(family, **params).matrix
        draws.append(base)
        for eps in (1e-9, 1e-8, 2e-8, 1e-7):
            for _ in range(5):
                g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                w, v = np.linalg.eigh(g + g.conj().T)
                draws.append(base @ (v * np.exp(1j * eps * w)) @ v.conj().T)
    names = set()
    for m in draws:
        bc = classify(Unitary2.certify(m))
        assert (bc.case, bc.name) == reference_case_and_name(m), m
        names.add(bc.name)
    assert names == set(FAMILIES)


def test_waves_meet_the_boundary_form_and_the_endpoint_maps():
    # Green's identity in the waves of boundary rows (f'(a), f(a), f'(-a), f(-a)):
    # psi_plus(f)^dag psi_plus(g) - psi_minus(f)^dag psi_minus(g) = 2i endpoint_form(f, g)
    rng = np.random.default_rng(9)
    f, g = rng.standard_normal((2, 500, 4)) + 1j * rng.standard_normal((2, 500, 4))
    (f_minus, f_plus), (g_minus, g_plus) = boundary_waves(f), boundary_waves(g)
    form = np.sum(np.conj(f_plus) * g_plus - np.conj(f_minus) * g_minus, axis=-1)
    assert np.abs(form - 2j * endpoint_form(f, g)).max() <= 1e-13
    # the rows R q of spectrum._endpoint_maps have waves psi_plus = q and
    # psi_minus = Ucal q, for every named family and 200 Haar draws
    bcs = [classify(synthesize(family, **params)) for family, params in NAMED]
    bcs += [classify(Unitary2.certify(u)) for u in haar_unitary(rng, 200)]
    assert {bc.case for bc in bcs} == {"I", "II", "III", "IV"}
    for bc in bcs:
        q = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
        psi_minus, psi_plus = boundary_waves(q @ spectrum._endpoint_maps(bc).T)
        assert np.abs(psi_plus - q).max() <= 1e-14
        assert np.abs(psi_minus - q @ bc.Ucal.matrix.T).max() <= 1e-14


def test_apply_bc_on_a_stack_matches_row_by_row_calls():
    rng = np.random.default_rng(10)
    rows = ((rng.standard_normal((3, 5, 4)) + 1j * rng.standard_normal((3, 5, 4)))
            * 10.0 ** rng.uniform(-8.0, 3.0, (3, 5, 1)))
    rows[1, 2, 3] = np.nan
    for family, params in NAMED:
        bc = classify(synthesize(family, **params))
        stacked = apply_bc(bc, rows)
        single = [[apply_bc(bc, row) for row in level] for level in rows]
        assert all(type(value) is float for level in single for value in level)
        assert stacked.shape == (3, 5) and stacked.tobytes() == np.array(single).tobytes()
        # a row holding NaN reads NaN, so find_eigenvalues drops a level whose
        # norm is not positive
        assert np.isnan(stacked[1, 2]) and np.isfinite(np.delete(stacked.ravel(), 7)).all()


@pytest.mark.parametrize("family, params", NAMED, ids=[family for family, _ in NAMED])
def test_synthesize_rejects_parameters_its_family_does_not_take(family, params):
    # NAMED gives each family exactly the parameters it takes; beta = 0 is
    # the one a diagonal robin could be thought to allow
    assert set(FAMILIES[family]) == set(params)
    for name, value in {"alpha": 1.0, "beta": 0.0, "gamma": 1.0, "K": 2.0}.items():
        if name not in params:
            with pytest.raises(ParameterError, match=name):
                synthesize(family, **params, **{name: value})


@pytest.mark.parametrize("family, params, name", [
    ("robin", {"alpha": np.inf, "gamma": 1.0}, "alpha"),
    ("robin", {"alpha": 1.0, "gamma": np.nan}, "gamma"),
    ("general-coupled", {"alpha": np.nan, "gamma": 1.0}, "alpha"),
    ("general-coupled", {"alpha": 1.0, "beta": complex(0.5, np.inf), "gamma": -2.0}, "beta"),
    ("general-case-II", {"alpha": 1.0, "beta": complex(np.nan, 1.0), "gamma": -1.0}, "beta"),
], ids=["robin-alpha-inf", "robin-gamma-nan", "coupled-alpha-nan", "coupled-beta-inf",
        "case-ii-beta-nan"])
def test_synthesize_rejects_non_finite_parameters(family, params, name):
    # a NaN or inf would otherwise surface only as a NaN unitarity defect
    with pytest.raises(ParameterError, match=f"{name} must be finite"):
        synthesize(family, **params)


@pytest.mark.parametrize("family, params, message", [
    ("robin", {"alpha": 1.0 + 1.0j, "gamma": 2.0}, "alpha must be a real number"),
    ("robin", {"alpha": "1", "gamma": 2.0}, "alpha must be a real number"),
    ("robin", {"alpha": True, "gamma": 2.0}, "alpha must be a real number"),
    ("general-coupled", {"alpha": 1.0, "beta": "0.5", "gamma": -2.0}, "beta must be a complex number"),
    ("automorphic", {"K": True}, "K must be a complex number"),
], ids=["complex-alpha", "string-alpha", "boolean-alpha", "string-beta", "boolean-K"])
def test_synthesize_rejects_parameters_that_are_not_numbers_of_their_kind(family, params, message):
    # a complex or string alpha used to raise TypeError from float() or
    # cmath.isfinite, and a boolean passed as 1; jsonio._real rejects booleans too
    with pytest.raises(ParameterError, match=message):
        synthesize(family, **params)


def test_synthesize_takes_numpy_and_integer_numbers():
    assert np.array_equal(synthesize("robin", alpha=np.float32(2.0), gamma=np.int64(-1)).matrix,
                          synthesize("robin", alpha=2.0, gamma=-1.0).matrix)
    assert np.array_equal(synthesize("automorphic", K=np.complex64(2.0 + 1.0j)).matrix,
                          synthesize("automorphic", K=2.0 + 1.0j).matrix)


def test_determinant_test_does_not_overflow():
    # |beta|^2 = 1e400 is no float: alpha*gamma + |beta|^2 is tested relative
    # to max |H|^2 without squaring either
    for family in ("general-case-II", "general-case-III"):
        with pytest.raises(ParameterError, match=r"\|beta\|\^2 = 0"):
            synthesize(family, alpha=1.0, beta=1e200, gamma=-1.0)
    assert classify(synthesize("robin", alpha=1e200, gamma=1.0)).case == "III"


def cramer(lhs, rhs):
    """lhs^-1 rhs by Cramer's rule on the unscaled entries, as Python numbers."""
    (a, b), (c, d) = lhs.tolist()
    (e, f), (g, h) = rhs.tolist()
    det = a * d - b * c
    return np.array([[(d * e - b * g) / det, (d * f - b * h) / det],
                     [(a * g - c * e) / det, (a * h - c * f) / det]])


def test_cayley_scaling_changes_no_bit_of_a_finite_result():
    # above 2^500 (3.3e150) H -/+ iI is divided by a power of two, which is exact, so
    # up to where unscaled Cramer squares overflow (1.3e154) the results are unchanged
    rng = np.random.default_rng(14)
    for _ in range(500):
        scale = 10.0 ** rng.uniform(151.0, 153.0)
        alpha, gamma = scale * rng.standard_normal(2)
        beta = scale * complex(*rng.standard_normal(2))
        h = np.array([[alpha, beta], [np.conj(beta), gamma]])
        assert np.array_equal(_matrix(*bcclassify._cayley(_entries(h))),
                              cramer(h + 1j * IDENTITY, h - 1j * IDENTITY))
        assert np.array_equal(_matrix(*bcclassify._cayley_prime(_entries(h))),
                              cramer(1j * IDENTITY - h, h + 1j * IDENTITY))


@pytest.mark.parametrize("family, params", [
    ("general-coupled", {"alpha": 1e300, "beta": 1e300j, "gamma": 1e300}),
    ("general-case-III", {"alpha": 1e200, "beta": 0.0, "gamma": 0.0}),
], ids=["coupled-1e300", "case-III-1e200"])
def test_synthesize_huge_hermitian_matrices(family, params):
    # Cramer's rule on the unscaled H +/- iI squares such entries to inf
    u = synthesize(family, **params)
    assert u.defect <= 1e-10
    assert classify(u).case in ("III", "IV")


@pytest.mark.parametrize("family, params", NAMED, ids=[family for family, _ in NAMED])
def test_synthesize_from_rebuilds_every_family(family, params):
    # robin, the mixed Dirichlet/Neumann pairs and Cases II and III each
    # take a branch of synthesize_from that no Haar draw reaches
    ucal = synthesize(family, **params)
    bc = classify(ucal)
    assert bc.name == family
    assert np.abs(synthesize_from(bc).matrix - ucal.matrix).max() <= 1e-12


# alpha*gamma + |beta|^2 = -1e-9, a Case II H by classify's test
NEAR_CASE_II = ["--alpha", "1", "--beta", "0.5", "--gamma", "-0.249999999"]


def test_near_singular_general_coupled_exits_2(capsys):
    assert cli.main(["classify", "--family", "general-coupled", *NEAR_CASE_II]) == cli.USAGE_ERROR
    assert "general-coupled needs alpha*gamma + |beta|^2 != 0" in capsys.readouterr().err


def test_near_singular_general_case_ii_is_admitted(capsys):
    assert cli.main(["classify", "--family", "general-case-II", *NEAR_CASE_II]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["case"], report["name"]) == ("II", "general-case-II")


def test_robin_with_a_negligible_alpha_is_refused():
    # I + Ucal has sigma_min 2e-12: classify would name it general-case-II
    with pytest.raises(ParameterError, match="robin needs"):
        synthesize("robin", alpha=1e-12, gamma=1.0)


def test_automorphic_at_a_huge_k_is_refused():
    # t = 2e-9: classify would name the mixed pair and drop K
    with pytest.raises(ParameterError, match="mixed Dirichlet/Neumann pair"):
        synthesize("automorphic", K=1e9)


def coupled_h_families(alpha, beta, gamma):
    """{family: classify's case of synthesize(family, ...), None if refused}
    for the families that take (alpha, beta, gamma), robin too at beta = 0."""
    families = ("general-coupled", "general-case-II", "general-case-III")
    cases = {}
    for family in families + (("robin",) if beta == 0.0 else ()):
        params = {"alpha": alpha, "gamma": gamma, **({} if family == "robin" else {"beta": beta})}
        try:
            cases[family] = classify(synthesize(family, **params)).case
        except ParameterError:
            cases[family] = None
    return cases


@pytest.mark.parametrize("delta", 10.0 ** np.arange(-12.0, -5.5, 0.5))
def test_admission_is_classify_test_near_the_case_boundary(delta):
    # alpha*gamma + |beta|^2 = +-delta: general-coupled and general-case-II
    # split every input between them, robin agrees with general-coupled at
    # beta = 0, an admitted family has its own case, and general-case-III
    # is refused exactly where classify puts its Ucal outside Case III
    rng = np.random.default_rng(16)
    want = {"robin": "I", "general-coupled": "I", "general-case-II": "II",
            "general-case-III": "III"}
    for sign in (1.0, -1.0):
        for beta in [0.0] + [complex(*rng.normal(size=2)) for _ in range(4)]:
            alpha = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            gamma = (sign * delta - abs(beta) ** 2) / alpha
            cases = coupled_h_families(alpha, beta, gamma)
            assert (cases["general-coupled"] is None) != (cases["general-case-II"] is None)
            assert cases.get("robin", cases["general-coupled"]) == cases["general-coupled"]
            for family, case in cases.items():
                assert case in (want[family], None), (family, alpha, beta, gamma)
            hp = (alpha, -beta, -np.conj(beta), -gamma)
            ucal = Unitary2._certified(bcclassify._cayley_prime(hp))
            assert (cases["general-case-III"] is None) == (classify(ucal).case != "III")


def test_automorphic_admission_keeps_k():
    # |K| from 1e-10 to 1e10: an admitted K comes back from classify, and a
    # refused one is where classify names a mixed Dirichlet/Neumann pair
    rng = np.random.default_rng(17)
    admitted = refused = 0
    for modulus in 10.0 ** np.arange(-10.0, 10.25, 0.25):
        k = modulus * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        try:
            bc = classify(synthesize("automorphic", K=k))
        except ParameterError:
            refused += 1
            bc = classify(Unitary2.certify(bcclassify._automorphic_matrix(k)))
            assert bc.case == "IV" and bc.K is None and bc.name != "automorphic"
            continue
        admitted += 1
        assert bc.case == "IV" and bc.K is not None
        # K is built into the matrix and read back without passing through t,
        # so it keeps its relative precision also near t = 0 and t = pi
        assert abs(bc.K - k) <= 1e-14 * abs(k)
    assert admitted and refused


def test_case_iv_just_above_the_tolerance_rebuilds_from_k():
    # at sin t within a few ulps above DEFAULT_TOL classify keeps K, but the
    # matrix that K gives back can sit at sin t <= DEFAULT_TOL, where
    # synthesize would refuse K; synthesize_from rebuilds it all the same
    rebuilt_below = 0
    for base in (np.arcsin(DEFAULT_TOL), np.pi - np.arcsin(DEFAULT_TOL)):
        for theta in base + np.spacing(base) * np.arange(-60, 61):  # within 60 ulps
            for phi in np.arange(12) * np.pi / 6:
                ucal = Unitary2.certify(case_iv_matrix(theta, phi))
                bc = classify(ucal)
                if bc.K is None:
                    continue
                rebuilt = synthesize_from(bc)
                assert np.abs(rebuilt.matrix - ucal.matrix).max() < 1e-15
                try:
                    synthesize("automorphic", K=bc.K)
                except ParameterError:
                    rebuilt_below += 1
    assert rebuilt_below
