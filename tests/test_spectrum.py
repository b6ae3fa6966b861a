"""Boundary-determinant spectra against closed-form and discretization oracles."""

import numpy as np
import pytest

import oracles
from saext import odesolve
from saext.bcclassify import classify, synthesize
from saext.extmap import Unitary2
from saext.potential import Potential
from saext.spectrum import det_function, eigenfunction_residuals, find_eigenvalues

P0 = Potential.zero(1.0)


def bc_named(family, **params):
    return classify(synthesize(family, **params))


def assert_matches(computed, expected, rel=1e-6):
    """computed: list of E; expected: list of (E, degeneracy)."""
    assert len(computed.eigenvalues) == len(expected), \
        f"got {computed.eigenvalues}, want {[e for e, _ in expected]}"
    for e, (want, deg) in zip(computed.eigenvalues, expected):
        assert abs(e - want) <= rel * max(abs(want), 1.0)
    assert computed.degeneracies == [d for _, d in expected]


def test_det_vanishes_at_dirichlet_eigenvalue():
    bc = bc_named("dirichlet")
    root = (np.pi / 2) ** 2
    assert abs(det_function(P0, bc, root)) <= 1e-8 * 4.0
    assert abs(det_function(P0, bc, 1.0)) > 1e-3


def test_det_is_continuous_in_energy():
    bc = bc_named("dirichlet")
    base = det_function(P0, bc, 5.0)
    d1 = abs(det_function(P0, bc, 5.0 + 1e-4) - base)
    d2 = abs(det_function(P0, bc, 5.0 + 5e-5) - base)
    assert abs(d2 - 0.5 * d1) < 0.05 * d1  # first-order in the step


def test_dirichlet_box_spectrum():
    result = find_eigenvalues(P0, bc_named("dirichlet"), e_min=0.1, e_max=30.0, grid=600)
    assert_matches(result, oracles.box_levels("dirichlet", 30.0))


def test_neumann_box_spectrum():
    result = find_eigenvalues(P0, bc_named("neumann"), e_min=-0.5, e_max=12.0, grid=400)
    assert_matches(result, oracles.box_levels("neumann", 12.0))


def test_periodic_box_spectrum():
    result = find_eigenvalues(P0, bc_named("periodic"), e_min=-0.5, e_max=12.0, grid=400)
    assert_matches(result, oracles.box_levels("periodic", 12.0))


def test_anti_periodic_box_spectrum():
    result = find_eigenvalues(P0, bc_named("anti-periodic"), e_min=0.0, e_max=12.0, grid=400)
    assert_matches(result, oracles.box_levels("anti-periodic", 12.0))


def test_mixed_endpoint_spectrum():
    result = find_eigenvalues(P0, bc_named("dirichlet-at-a-neumann-at-minus-a"),
                              e_min=0.0, e_max=35.0, grid=500)
    assert_matches(result, oracles.box_levels("dirichlet-at-a-neumann-at-minus-a", 35.0))


def test_robin_matches_transcendental_bisection():
    det = oracles.robin_det(1.0, 1.0)
    expected = oracles.bisect_roots(det, -2.0, 12.0)
    result = find_eigenvalues(P0, bc_named("robin", alpha=1.0, gamma=1.0),
                              e_min=-2.0, e_max=12.0, grid=300)
    assert len(result.eigenvalues) == len(expected)
    for e, want in zip(result.eigenvalues, expected):
        assert abs(e - want) <= 1e-6 * max(abs(want), 1.0)
    # the lowest Robin level here is the negative one with f proportional to e^x
    assert abs(result.eigenvalues[0] + 1.0) <= 1e-6


def test_stored_eigenfunctions_meet_invariants():
    result = find_eigenvalues(P0, bc_named("dirichlet"), e_min=0.1, e_max=30.0, grid=400)
    for funcs, residual in zip(result.eigenfunctions, result.residuals):
        assert residual <= 1e-6
        for f in funcs:
            assert abs(odesolve.l2_inner(f, f).real - 1.0) <= 1e-8
    report = eigenfunction_residuals(result)
    assert report["worst_boundary"] <= 1e-6
    assert report["worst_symmetry"] <= 1e-6


def test_dirichlet_ground_state_residuals_tight():
    result = find_eigenvalues(P0, bc_named("dirichlet"), e_min=1.0, e_max=4.0, grid=40)
    report = eigenfunction_residuals(result)
    assert report["worst_boundary"] <= 1e-7
    assert report["worst_symmetry"] <= 1e-7
    assert report["worst_eigen_equation"] <= 1e-7


def test_robin_endpoint_relation_of_eigenfunctions():
    result = find_eigenvalues(P0, bc_named("robin", alpha=1.0, gamma=1.0),
                              e_min=-2.0, e_max=12.0, grid=300)
    for funcs in result.eigenfunctions:
        for f in funcs:
            assert abs(f.df1 - 1.0 * f.f1) <= 1e-6 * max(1.0, abs(f.f1))


def test_harmonic_dirichlet_matches_finite_differences():
    p = Potential.harmonic(1.0, 1.0)
    result = find_eigenvalues(p, bc_named("dirichlet"), e_min=0.0, e_max=45.0, grid=500)
    expected = oracles.fd_dirichlet_levels(lambda x: x * x, 4)
    assert len(result.eigenvalues) >= 4
    for e, want in zip(result.eigenvalues[:4], expected):
        assert abs(e - want) <= 1e-4 * want


def test_dirichlet_neumann_interlacing():
    for p in (P0, Potential.harmonic(1.0, 1.0)):
        dirichlet = find_eigenvalues(p, bc_named("dirichlet"), e_min=-0.5, e_max=30.0,
                                     grid=400).eigenvalues
        neumann = find_eigenvalues(p, bc_named("neumann"), e_min=-1.5, e_max=30.0,
                                   grid=400).eigenvalues
        for n, (nm, dr) in enumerate(zip(neumann, dirichlet)):
            assert nm <= dr + 1e-8
            if n + 1 < len(neumann):
                assert dr <= neumann[n + 1] + 1e-8


def test_refinement_is_monotone_in_grid():
    coarse = find_eigenvalues(P0, bc_named("dirichlet"), e_min=0.1, e_max=30.0, grid=200)
    fine = find_eigenvalues(P0, bc_named("dirichlet"), e_min=0.1, e_max=30.0, grid=400)
    tol = (30.0 - 0.1) / (10 * 200)
    for e in coarse.eigenvalues:
        assert any(abs(e - f) <= tol for f in fine.eigenvalues)


def test_parity_of_eigenfunctions_for_scalar_bc():
    # Ucal = i I keeps the boundary conditions mirror symmetric
    p = Potential.harmonic(1.0, 1.0)
    bc = classify(Unitary2.certify(1j * np.eye(2)))
    result = find_eigenvalues(p, bc, e_min=-2.0, e_max=15.0, grid=300)
    assert result.eigenvalues
    for funcs in result.eigenfunctions:
        for f in funcs:
            mirrored = f.f[::-1]
            even = np.max(np.abs(f.f - mirrored))
            odd = np.max(np.abs(f.f + mirrored))
            assert min(even, odd) <= 1e-6 * np.max(np.abs(f.f))


def test_empty_scan_returns_empty_result():
    result = find_eigenvalues(P0, bc_named("dirichlet"), e_min=3.0, e_max=9.0, grid=64)
    assert result.eigenvalues == []
    assert result.det_trace


def test_degenerate_pair_is_orthonormal():
    result = find_eigenvalues(P0, bc_named("periodic"), e_min=5.0, e_max=12.0, grid=200)
    assert result.degeneracies == [2]
    f1, f2 = result.eigenfunctions[0]
    assert abs(odesolve.l2_inner(f1, f2)) <= 1e-8
    assert abs(odesolve.l2_inner(f1, f1).real - 1.0) <= 1e-8


def test_det_trace_covers_scan():
    result = find_eigenvalues(P0, bc_named("dirichlet"), e_min=0.1, e_max=10.0, grid=100)
    assert len(result.det_trace) == 100
    assert result.det_trace[0][0] == 0.1 and result.det_trace[-1][0] == 10.0


def test_invalid_scan_arguments():
    with pytest.raises(ValueError):
        find_eigenvalues(P0, bc_named("dirichlet"), e_min=5.0, e_max=1.0, grid=100)
    with pytest.raises(ValueError):
        find_eigenvalues(P0, bc_named("dirichlet"), e_min=0.0, e_max=1.0, grid=4)


def test_scan_is_one_batched_propagate(monkeypatch):
    # the first call scans every grid energy; each refinement round batches
    # all candidates, so the call count does not grow with their number
    sizes = []
    propagate = odesolve.propagate

    def counting(p, lam, *args):
        sizes.append(np.size(lam))
        return propagate(p, lam, *args)

    monkeypatch.setattr(odesolve, "propagate", counting)
    bc = classify(synthesize("periodic"))
    calls, levels = [], []
    for e_max in (40.0, 160.0):
        sizes.clear()
        result = find_eigenvalues(Potential.zero(1.0), bc, e_max=e_max)
        assert sizes[0] == len(result.det_trace)
        calls.append(len(sizes))
        levels.append(len(result.eigenvalues))
    assert levels[1] > levels[0]
    assert calls[1] <= calls[0] + 5


@pytest.mark.parametrize("e_min, e_max, levels", [
    (np.pi ** 2 / 4 - 0.05, 10.0, [np.pi ** 2 / 4, np.pi ** 2]),
    (5.0, 9 * np.pi ** 2 / 4 + 0.05, [np.pi ** 2, 9 * np.pi ** 2 / 4]),
])
def test_roots_in_edge_scan_intervals(e_min, e_max, levels):
    # the lowest or highest level lies inside the first or last grid interval
    result = find_eigenvalues(P0, bc_named("dirichlet"), e_min=e_min, e_max=e_max, grid=16)
    assert_matches(result, [(e, 1) for e in levels])
