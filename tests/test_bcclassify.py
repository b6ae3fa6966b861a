"""Case classification, named-family synthesis and the endpoint relation."""

import numpy as np
import pytest
from scipy.linalg import expm

from saext.bcclassify import (BoundaryCondition, DEFAULT_TOL, FAMILIES, apply_bc, classify,
                              synthesize, synthesize_from)
from saext.errors import ParameterError
from saext.extmap import Unitary2, haar_unitary

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
    assert np.allclose(synthesize("dirichlet").matrix, IDENTITY)
    assert np.allclose(synthesize("neumann").matrix, -IDENTITY)
    assert np.allclose(synthesize("periodic").matrix, np.array([[0, 1], [1, 0]]))
    assert np.allclose(synthesize("anti-periodic").matrix, np.array([[0, -1], [-1, 0]]))


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


def test_parameter_errors():
    with pytest.raises(ParameterError):
        synthesize("robin", alpha=0.0, gamma=1.0)
    with pytest.raises(ParameterError):
        synthesize("automorphic", K=0.0)
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
    assert apply_bc(bc, 0.0, 0.0, 3.7, -1.2) < 1e-15
    assert abs(apply_bc(bc, 1.0, 0.0, 0.0, 0.0) - 2.0) < 1e-15


def test_apply_bc_neumann_data():
    bc = classify(synthesize("neumann"))
    assert apply_bc(bc, 0.9, -0.3, 0.0, 0.0) < 1e-15


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
        assert apply_bc(bc, fa, fma, dfa, dfma) < 1e-8 * scale


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
