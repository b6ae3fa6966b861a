"""Boundary-determinant spectra against closed-form and discretization oracles."""

import logging

import numpy as np
import pytest

import oracles
from saext import odesolve, spectrum
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


def robin_levels(alpha, gamma):
    return [(e, 1) for e in oracles.bisect_roots(oracles.robin_det(alpha, gamma), -46.0, 40.0)]


DEFAULT_CASES = [
    # collocation references (perfbench/oracle.collocation_levels), error estimate 3.2e-10
    (Potential.harmonic(25.0, 1.0), bc_named("periodic"), 40.0,
     lambda: [(4.8093443118, 1), (16.2856182085, 1), (21.6785110794, 1)]),
    # error estimate 2.8e-8
    (Potential.finite_well(-10.0, 0.5, 1.0), bc_named("periodic"), 40.0,
     lambda: [(-6.7827193366, 1), (4.24769163, 1), (6.4639491761, 1), (34.326616751, 1),
              (34.9409929297, 1)]),
    # error estimate 4.9e-10
    (Potential.cosine(5.0, np.pi, 1.0),
     bc_named("general-coupled", alpha=1.0, beta=0.5 + 0.5j, gamma=-2.0), 40.0,
     lambda: [(-9.2942699535, 1), (-2.5135727102, 1), (9.5398566071, 1), (18.8998959361, 1),
              (37.7105413175, 1)]),
    # two surface states 0.18 apart
    (P0, bc_named("robin", alpha=3.0, gamma=-3.0), 40.0, lambda: robin_levels(3.0, -3.0)),
    # a surface state at -25, far below the default floor -1
    (P0, bc_named("robin", alpha=5.0, gamma=5.0), 40.0, lambda: robin_levels(5.0, 5.0)),
    # two simple surface states 0.009 apart
    (P0, bc_named("robin", alpha=5.0, gamma=-5.0), 40.0, lambda: robin_levels(5.0, -5.0)),
    # the level -1 sits exactly on the default floor
    (P0, bc_named("robin", alpha=1.0, gamma=1.0), 40.0, lambda: robin_levels(1.0, 1.0)),
    (Potential.harmonic(25.0 / 4.0, 2.0), bc_named("dirichlet"), 10.0,
     lambda: [(e, 1) for e in oracles.fd_dirichlet_levels(lambda x: 6.25 * x * x, 4, a=2.0)
              if e <= 10.0]),
    # collocation references, error estimate 6.3e-14; an eigenphase turns by 2 pi
    # inside one scan interval behind the thick barrier
    (Potential.harmonic(25.0 / 16.0, 4.0), bc_named("dirichlet"), 10.0,
     lambda: [(1.2500000253, 1), (3.7500009573, 1), (6.2500170788, 1), (8.7501904594, 1)]),
    # collocation references, error estimate 9.1e-9
    (Potential.finite_well(-1000.0, 0.5, 1.0), bc_named("dirichlet"), 10.0,
     lambda: [(-991.2711478665, 1), (-965.1030622057, 1), (-921.5532690663, 1),
              (-860.72532404, 1), (-782.7829213523, 1), (-687.9765764692, 1),
              (-576.6960276981, 1), (-449.584215119, 1), (-307.8337360944, 1),
              (-154.2604536805, 1), (-3.1111296874, 1)]),
    # bisection of oracles.robin_det to 1e-12 relative; collocation agrees to 6.0e-9.
    # S(E) from the transfer matrix still cancels at these depths (ROADMAP item 2):
    # it comes out right for this Ucal's rounding, while for most Ucal within 1e-15
    # of it the root near -900 lands up to 6 off and is dropped
    (P0, bc_named("robin", alpha=30.0, gamma=-20.0), 5.0,
     lambda: [(-900.0, 1), (-400.0, 1), (2.6862167155, 1)]),
    # collocation references, error estimate 9.7e-9; bisection of oracles.robin_det
    # agrees at -900 and 2.616. As above, within 1e-15 of this Ucal the levels at
    # -1681 and -900 are usually lost
    (P0, bc_named("robin", alpha=41.0, gamma=-30.0), 5.0,
     lambda: [(-1681.0, 1), (-900.0, 1), (2.6161196176, 1)]),
]
DEFAULT_IDS = ["harmonic-periodic", "well-periodic", "cosine-coupled", "robin(3,-3)", "robin(5,5)",
               "robin(5,-5)", "robin(1,1)", "harmonic-dirichlet-a2", "harmonic-dirichlet-a4",
               "deep-well-dirichlet", "robin(30,-20)", "robin(41,-30)"]


@pytest.mark.parametrize("p, bc, e_max, levels", DEFAULT_CASES, ids=DEFAULT_IDS)
def test_default_arguments_find_every_level(p, bc, e_max, levels, caplog):
    with caplog.at_level(logging.WARNING, logger="saext.spectrum"):
        result = find_eigenvalues(p, bc, e_max=e_max)
    assert not caplog.records, [r.getMessage() for r in caplog.records]
    assert_matches(result, levels())


@pytest.mark.parametrize("p, bc, e_max, levels", DEFAULT_CASES, ids=DEFAULT_IDS)
def test_level_count_between_reference_levels(p, bc, e_max, levels):
    # below the first level, between each pair of adjacent levels and above the
    # last, N(E) is the number of levels below E with multiplicity
    energies = [e for e, _ in levels()]
    probes = [energies[0] - 1.0, *((lo + hi) / 2 for lo, hi in zip(energies, energies[1:])),
              (energies[-1] + e_max) / 2]
    below = np.cumsum([0] + [m for _, m in levels()])
    for rtol in (spectrum.SCAN_RTOL, odesolve.DEFAULT_RTOL):
        count = spectrum._bc_matrix(p, bc, np.array(probes), rtol, odesolve.DEFAULT_ATOL)[2]
        assert list(count) == list(below)
