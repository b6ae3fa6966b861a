"""Acceptance criteria: every numbered requirement at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion including its runtime against the allowed budget.
"""

import time

import numpy as np
import pytest

import oracles
from saext import checks
from saext.bcclassify import classify, synthesize
from saext.deficiency import (change_of_basis, endpoint_form, solve_even_odd,
                              solve_orthonormal_pair)
from saext.extmap import Unitary2, check_identities, forward_map, forward_map_general, haar_unitary
from saext.potential import Potential
from saext.spectrum import eigenfunction_residuals, find_eigenvalues

P0 = Potential.zero(1.0)


def _report(number, label, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {label} ({elapsed:.1f} s < {budget:.0f} s)")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < budget, f"criterion {number} exceeded {budget} s ({elapsed:.1f} s)"


@pytest.fixture(scope="module")
def box_spectra():
    plans = {"dirichlet": (0.1, 40.0, 800), "neumann": (-0.5, 40.0, 800),
             "periodic": (-0.5, 40.0, 800), "anti-periodic": (0.0, 40.0, 800)}
    start = time.perf_counter()
    results = {name: find_eigenvalues(P0, classify(synthesize(name)),
                                      e_min=lo, e_max=hi, grid=grid)
               for name, (lo, hi, grid) in plans.items()}
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def robin_spectrum():
    bc = classify(synthesize("robin", alpha=1.0, gamma=1.0))
    start = time.perf_counter()
    result = find_eigenvalues(P0, bc, e_min=-2.0, e_max=30.0, grid=400)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def harmonic_spectrum():
    p = Potential.harmonic(1.0, 1.0)
    start = time.perf_counter()
    result = find_eigenvalues(p, classify(synthesize("dirichlet")),
                              e_min=0.0, e_max=45.0, grid=500)
    return result, time.perf_counter() - start


def test_criterion_01_endpoint_wronskian():
    start = time.perf_counter()
    record = checks.deficiency_wronskian(half_widths=(0.5, 1.0, 2.0))
    _report(1, f"endpoint Wronskian = i (worst defect {record['worst']:.1e})",
            record["passed"], time.perf_counter() - start, 5.0)


def test_criterion_02_unitarity_equivalence():
    start = time.perf_counter()
    basis = solve_even_odd(P0)
    report = check_identities(basis, samples=500, seed=2)
    ok = (report["checks"]["identity"]["failed"] == 0
          and report["checks"]["identity"]["worst"] <= 1e-8
          and report["checks"]["forward_unitarity"]["failed"] == 0
          and report["checks"]["forward_unitarity"]["worst"] <= 1e-9)
    _report(2, "V V+ - V~ V~+ = 2(I - conj(U) conj(U)+) and unitary forward output",
            ok, time.perf_counter() - start, 10.0)


def test_criterion_03_v_vtilde_nonsingular():
    start = time.perf_counter()
    worst = np.inf
    for p in checks.even_potentials(1.0):
        report = check_identities(solve_even_odd(p), samples=500, seed=3)
        worst = min(worst, report["checks"]["v_nonsingular"]["worst"],
                    report["checks"]["vtilde_nonsingular"]["worst"])
    _report(3, f"min singular value of V, V~ stays above 1e-6 (worst {worst:.2e})",
            worst > 1e-6, time.perf_counter() - start, 10.0)


def test_criterion_04_bijection_round_trip():
    start = time.perf_counter()
    record = checks.map_roundtrip(solve_even_odd(P0), 500, np.random.default_rng(4))
    _report(4, f"U -> Ucal -> U round trip (worst {record['worst']:.1e}, "
               f"system sigma_min {record['sigma_min']:.2e})", record["passed"],
            time.perf_counter() - start, 10.0)


def test_criterion_05_classification_table():
    start = time.perf_counter()
    table_ok = (classify(Unitary2.certify(np.eye(2))).name == "dirichlet"
                and classify(Unitary2.certify(-np.eye(2))).name == "neumann"
                and classify(synthesize("periodic")).name == "periodic"
                and classify(synthesize("anti-periodic")).name == "anti-periodic"
                and classify(Unitary2.certify(np.diag([1.0, -1.0]).astype(complex))).name
                == "dirichlet-at-a-neumann-at-minus-a")
    record = checks.classify_roundtrip(10_000, np.random.default_rng(5))
    _report(5, f"named special cases and synthesize(classify(.)) (worst {record['worst']:.1e})",
            table_ok and record["passed"], time.perf_counter() - start, 30.0)


def test_criterion_06_box_spectra(box_spectra):
    results, elapsed = box_spectra
    ok = True
    for name, result in results.items():
        expected = oracles.box_levels(name, 40.0)
        if len(result.eigenvalues) != len(expected):
            ok = False
            continue
        for e, (want, deg) in zip(result.eigenvalues, expected):
            ok = ok and abs(e - want) <= 1e-6 * max(abs(want), 1.0)
        ok = ok and result.degeneracies == [d for _, d in expected]
    _report(6, "free-particle Dirichlet/Neumann/periodic/anti-periodic spectra",
            ok, elapsed, 60.0)


def test_criterion_07_robin_oracle(robin_spectrum):
    result, elapsed = robin_spectrum
    expected = oracles.bisect_roots(oracles.robin_det(1.0, 1.0), -2.0, 30.0)
    ok = len(result.eigenvalues) == len(expected)
    if ok:
        for e, want in zip(result.eigenvalues, expected):
            ok = ok and abs(e - want) <= 1e-6 * max(abs(want), 1.0)
    _report(7, f"Robin alpha=gamma=1 vs scalar bisection ({len(expected)} levels)",
            ok, elapsed, 20.0)


def test_criterion_08_discretization_oracle(harmonic_spectrum):
    result, elapsed = harmonic_spectrum
    start = time.perf_counter()
    expected = oracles.fd_dirichlet_levels(lambda x: x * x, 4)
    elapsed += time.perf_counter() - start
    ok = len(result.eigenvalues) >= 4
    if ok:
        for e, want in zip(result.eigenvalues[:4], expected):
            ok = ok and abs(e - want) <= 1e-4 * want
    _report(8, "harmonic-well Dirichlet levels vs finite differences",
            ok, elapsed, 60.0)


def test_criterion_09_general_potential_construction():
    start = time.perf_counter()
    ok = True
    for p in (Potential.polynomial([0.0, 1.0], 1.0), P0):
        table = solve_orthonormal_pair(p).boundary_table
        for j in range(2):
            for k in range(2):
                want = 2j if j == k else 0.0
                ok = ok and abs(endpoint_form(table, j, k) - want) <= 1e-8
                ok = ok and abs(endpoint_form(table, j, k, conjugate_first=False)) <= 1e-8

    rng = np.random.default_rng(9)
    basis_x = solve_orthonormal_pair(Potential.polynomial([0.0, 1.0], 1.0))
    worst_defect = max(forward_map_general(basis_x, Unitary2.certify(haar_unitary(rng))).defect
                       for _ in range(200))
    ok = ok and worst_defect <= 1e-8

    worst_agree = 0.0
    for p in (P0, Potential.harmonic(1.0, 1.0)):
        even = solve_even_odd(p)
        general = solve_orthonormal_pair(p)
        c = change_of_basis(even, general)
        for _ in range(25):
            u = Unitary2.certify(haar_unitary(rng))
            ucal_even = forward_map(even, u).Ucal.matrix
            ucal_general = forward_map_general(
                general, Unitary2.certify(c @ u.matrix @ c.T, tol=1e-8)).matrix
            worst_agree = max(worst_agree, float(np.abs(ucal_even - ucal_general).max()))
    ok = ok and worst_agree <= 1e-7
    _report(9, f"general-potential pair, map unitarity {worst_defect:.1e}, "
               f"mode agreement {worst_agree:.1e}", ok,
            time.perf_counter() - start, 30.0)


def test_criterion_10_self_adjointness_witness(box_spectra, robin_spectrum,
                                               harmonic_spectrum):
    start = time.perf_counter()
    results = list(box_spectra[0].values()) + [robin_spectrum[0], harmonic_spectrum[0]]
    worst_boundary, worst_symmetry = 0.0, 0.0
    count = 0
    for result in results:
        report = eigenfunction_residuals(result)
        worst_boundary = max(worst_boundary, report["worst_boundary"])
        worst_symmetry = max(worst_symmetry, report["worst_symmetry"])
        count += len(report["per_eigenfunction"])
    ok = count > 0 and worst_boundary <= 1e-6 and worst_symmetry <= 1e-6
    _report(10, f"{count} eigenfunctions: boundary residual {worst_boundary:.1e}, "
                f"symmetry defect {worst_symmetry:.1e}", ok,
            time.perf_counter() - start, 60.0)
