"""Boundary-determinant spectra against closed-form and discretization oracles."""

import collections
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from saext import odesolve, spectrum
from saext.bcclassify import classify, synthesize
from saext.errors import IntegrationError
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


@pytest.mark.parametrize("bc", [
    bc_named("dirichlet"), bc_named("general-coupled", alpha=1.0, beta=0.5 + 0.5j, gamma=-2.0),
    bc_named("automorphic", K=2.0 + 1.0j)], ids=["dirichlet", "general-coupled", "automorphic"])
def test_one_level_target_is_the_characteristic_determinant(bc):
    # with the unscaled M = minus - Ucal plus = (S - Ucal) plus,
    # |det M| = |det (W - I)| |det plus| = 4 prod_j sin(t_j / 2) |det plus|, and
    # det M / sqrt(det Ucal) is real with the sign (-1)^N up to one constant:
    # (-1)^N |det M| is the real-analytic characteristic function the one-level
    # solve refines.  _bc_matrix's log_s undoes its column scaling
    p = Potential.harmonic(25.0, 1.0)
    energies = np.linspace(-30.0, 60.0, 57)
    transfer, _ = odesolve.propagate(p, energies, -p.a, p.a, odesolve.DEFAULT_RTOL)
    ua, dua = transfer[:, 0, :], transfer[:, 1, :]
    minus = np.stack([dua - 1j * ua, np.broadcast_to([1j, 1.0], ua.shape)], axis=1)
    plus = np.stack([dua + 1j * ua, np.broadcast_to([-1j, 1.0], ua.shape)], axis=1)
    det_m = np.linalg.det(minus - bc.Ucal.matrix @ plus)
    m, t, n, log_s = spectrum._bc_matrix(p, bc, energies, odesolve.DEFAULT_RTOL)
    assert n[-1] - n[0] >= 4
    delta = (-1.0) ** n * np.abs(det_m)
    product = 4.0 * np.prod(np.sin(0.5 * t), axis=-1) * np.abs(np.linalg.det(plus))
    assert np.max(np.abs(np.abs(delta) - product) / np.abs(delta)) <= 1e-10
    assert np.max(np.abs(np.abs(np.linalg.det(m)) * np.exp(log_s) - np.abs(det_m))
                  / np.abs(det_m)) <= 1e-10
    real = det_m / np.sqrt(np.linalg.det(bc.Ucal.matrix))
    assert np.max(np.abs(real.imag) / np.abs(real)) <= 1e-10
    assert len(set(np.sign(real.real) * np.sign(delta))) == 1


def test_dirichlet_box_spectrum():
    result = find_eigenvalues(P0, bc_named("dirichlet"), e_min=0.1, e_max=30.0)
    assert_matches(result, oracles.box_levels("dirichlet", 30.0))


def test_neumann_box_spectrum():
    result = find_eigenvalues(P0, bc_named("neumann"), e_min=-0.5, e_max=12.0)
    assert_matches(result, oracles.box_levels("neumann", 12.0))


def test_periodic_box_spectrum():
    result = find_eigenvalues(P0, bc_named("periodic"), e_min=-0.5, e_max=12.0)
    assert_matches(result, oracles.box_levels("periodic", 12.0))


def test_anti_periodic_box_spectrum():
    result = find_eigenvalues(P0, bc_named("anti-periodic"), e_min=0.0, e_max=12.0)
    assert_matches(result, oracles.box_levels("anti-periodic", 12.0))


def test_mixed_endpoint_spectrum():
    result = find_eigenvalues(P0, bc_named("dirichlet-at-a-neumann-at-minus-a"),
                              e_min=0.0, e_max=35.0)
    assert_matches(result, oracles.box_levels("dirichlet-at-a-neumann-at-minus-a", 35.0))


def test_robin_matches_transcendental_bisection():
    det = oracles.robin_det(1.0, 1.0)
    expected = oracles.bisect_roots(det, -2.0, 12.0)
    result = find_eigenvalues(P0, bc_named("robin", alpha=1.0, gamma=1.0),
                              e_min=-2.0, e_max=12.0)
    assert len(result.eigenvalues) == len(expected)
    for e, want in zip(result.eigenvalues, expected):
        assert abs(e - want) <= 1e-6 * max(abs(want), 1.0)
    # the lowest Robin level here is the negative one with f proportional to e^x
    assert abs(result.eigenvalues[0] + 1.0) <= 1e-6


def test_stored_eigenfunctions_meet_invariants():
    result = find_eigenvalues(P0, bc_named("dirichlet"), e_min=0.1, e_max=30.0)
    for funcs, residual in zip(result.eigenfunctions, result.residuals):
        assert residual <= 1e-6
        for f in funcs:
            assert abs(odesolve.l2_inner(f, f).real - 1.0) <= 1e-8
    report = eigenfunction_residuals(result)
    assert report["worst_boundary"] <= 1e-6
    assert report["worst_symmetry"] <= 1e-6
    values = [v for entry in report["per_eigenfunction"] for v in entry.values()]
    values += [report[key] for key in ("worst_boundary", "worst_symmetry", "worst_eigen_equation")]
    assert values and all(type(v) is float for v in values)


def test_dirichlet_ground_state_residuals_tight():
    result = find_eigenvalues(P0, bc_named("dirichlet"), e_min=1.0, e_max=4.0)
    report = eigenfunction_residuals(result)
    assert report["worst_boundary"] <= 1e-7
    assert report["worst_symmetry"] <= 1e-7
    assert report["worst_eigen_equation"] <= 1e-7


def test_robin_endpoint_relation_of_eigenfunctions():
    result = find_eigenvalues(P0, bc_named("robin", alpha=1.0, gamma=1.0),
                              e_min=-2.0, e_max=12.0)
    for funcs in result.eigenfunctions:
        for f in funcs:
            assert abs(f.df1 - 1.0 * f.f1) <= 1e-6 * max(1.0, abs(f.f1))


def test_harmonic_dirichlet_matches_finite_differences():
    p = Potential.harmonic(1.0, 1.0)
    result = find_eigenvalues(p, bc_named("dirichlet"), e_min=0.0, e_max=45.0)
    expected = oracles.fd_dirichlet_levels(lambda x: x * x, 4)
    assert len(result.eigenvalues) >= 4
    for e, want in zip(result.eigenvalues[:4], expected):
        assert abs(e - want) <= 1e-4 * want


def test_dirichlet_neumann_interlacing():
    for p in (P0, Potential.harmonic(1.0, 1.0)):
        dirichlet = find_eigenvalues(p, bc_named("dirichlet"), e_min=-0.5, e_max=30.0).eigenvalues
        neumann = find_eigenvalues(p, bc_named("neumann"), e_min=-1.5, e_max=30.0).eigenvalues
        for n, (nm, dr) in enumerate(zip(neumann, dirichlet)):
            assert nm <= dr + 1e-8
            if n + 1 < len(neumann):
                assert dr <= neumann[n + 1] + 1e-8


def test_levels_do_not_depend_on_the_scan_ceiling():
    # e_max sets the scan's points; the levels below 12 must not move with them
    short = find_eigenvalues(P0, bc_named("dirichlet"), e_min=0.1, e_max=12.0)
    tall = find_eigenvalues(P0, bc_named("dirichlet"), e_min=0.1, e_max=30.0)
    assert len(short.det_trace) < len(tall.det_trace)
    below = [e for e in tall.eigenvalues if e < 12.0]
    assert len(short.eigenvalues) == len(below) == 2
    for e, f in zip(short.eigenvalues, below):
        assert abs(e - f) <= 1e-9 * f


def test_parity_of_eigenfunctions_for_scalar_bc():
    # Ucal = i I keeps the boundary conditions mirror symmetric
    p = Potential.harmonic(1.0, 1.0)
    bc = classify(Unitary2.certify(1j * np.eye(2)))
    result = find_eigenvalues(p, bc, e_min=-2.0, e_max=15.0)
    assert result.eigenvalues
    for funcs in result.eigenfunctions:
        for f in funcs:
            mirrored = f.f[::-1]
            even = np.max(np.abs(f.f - mirrored))
            odd = np.max(np.abs(f.f + mirrored))
            assert min(even, odd) <= 1e-6 * np.max(np.abs(f.f))


@pytest.mark.parametrize("bc", [bc_named("dirichlet"), bc_named("neumann"),
                                bc_named("robin", alpha=3.0, gamma=-3.0)],
                         ids=["dirichlet", "neumann", "robin(3,-3)"])
def test_simple_eigenfunctions_are_positive_at_their_leftmost_peak(bc):
    # a V = 0 state has equal peaks up to rounding, so the phase is taken at
    # the leftmost sample within 1e-8 of the largest |f|, not at argmax |f|
    result = find_eigenvalues(P0, bc, e_max=40.0)
    assert result.degeneracies.count(1) >= 4
    for funcs in result.eigenfunctions:
        if len(funcs) == 1:
            size = np.abs(funcs[0].f)
            peak = funcs[0].f[np.argmax(size >= (1.0 - 1e-8) * size.max())]
            assert peak.real > 0.0 and abs(peak.imag) <= 1e-12 * abs(peak)


def test_empty_scan_returns_empty_result():
    result = find_eigenvalues(P0, bc_named("dirichlet"), e_min=3.0, e_max=9.0)
    assert result.eigenvalues == []
    assert result.det_trace


def test_degenerate_pair_is_orthonormal():
    result = find_eigenvalues(P0, bc_named("periodic"), e_min=5.0, e_max=12.0)
    assert result.degeneracies == [2]
    f1, f2 = result.eigenfunctions[0]
    assert abs(odesolve.l2_inner(f1, f2)) <= 1e-8
    assert abs(odesolve.l2_inner(f1, f1).real - 1.0) <= 1e-8


def test_double_levels_join_at_a_block_edge():
    # a double level's eigenfunctions join their parts from -a and from a at
    # a block edge, as a simple level's do, so their rows at both ends are the
    # R q of the boundary-data pass and meet the boundary relation exactly;
    # each residual bounds the jumps at the join of its level's eigenfunctions
    result = find_eigenvalues(P0, bc_named("periodic"), e_max=200.0)
    assert result.degeneracies.count(2) == 4
    assert all(type(join) is float and -1.0 <= join < 1.0 for _, join in result.end_data)
    assert eigenfunction_residuals(result)["worst_boundary"] <= 1e-12
    x, left, right, _, _ = odesolve._edge_transfers(P0, np.array(result.eigenvalues))
    for funcs, residual, (rows, join), tl, tr in zip(result.eigenfunctions, result.residuals,
                                                     result.end_data, left, right):
        gram = [[odesolve.l2_inner(f, g) for g in funcs] for f in funcs]
        assert np.max(np.abs(np.array(gram) - np.eye(len(funcs)))) <= 1e-8
        j = int(np.flatnonzero(x == join)[0])
        for row in rows:
            assert np.linalg.norm(tl[j] @ row[3:1:-1] - tr[j] @ row[1::-1]) <= residual


def test_det_trace_covers_scan():
    # eight points per pi/2a in k = sqrt(E - e_min): ceil(8 sqrt(99.9) / (pi/2)) = 51
    result = find_eigenvalues(P0, bc_named("dirichlet"), e_min=0.1, e_max=100.0)
    energies = np.array([e for e, _ in result.det_trace])
    assert len(energies) == 51
    assert energies[0] == 0.1 and energies[-1] == 100.0
    k = np.sqrt(energies - 0.1)
    assert np.allclose(np.diff(k), k[-1] / 50, rtol=1e-9)


def test_invalid_scan_arguments():
    for e_min, e_max, message in [(5.0, 1.0, "empty scan range"),
                                  (None, np.inf, "e_max must be finite"),
                                  (0.0, np.nan, "e_max must be finite"),
                                  (np.nan, 1.0, "e_min must be finite"),
                                  (-np.inf, 1.0, "e_min must be finite")]:
        with pytest.raises(ValueError, match=message):
            find_eigenvalues(P0, bc_named("dirichlet"), e_min=e_min, e_max=e_max)


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


def test_default_scan_grows_with_the_level_count():
    # eight points per pi/2a in the wavenumber sqrt(E - e_min): a few hundred
    # energies for the 63 levels below 1e4, where eight per (pi/2a)^2 in E
    # took 32,427
    result = find_eigenvalues(P0, bc_named("dirichlet"), e_max=1e4)
    assert_matches(result, [((n * np.pi / 2) ** 2, 1) for n in range(1, 64)], rel=1e-9)
    e_min = -1.0  # the default floor, -sup|V| - 1
    assert len(result.det_trace) <= np.ceil(8 * np.sqrt(1e4 - e_min) / (np.pi / 2)) + 1


def test_double_well_doublets_match_finite_differences():
    # V = 1600 (x^2 - 1/4)^2: two tunnelling doublets below 120, the lower
    # split by 0.60
    p = Potential.polynomial([100.0, 0.0, -800.0, 0.0, 1600.0], 1.0)
    result = find_eigenvalues(p, bc_named("dirichlet"), e_max=120.0)
    expected = oracles.fd_dirichlet_levels(lambda x: 1600.0 * (x * x - 0.25) ** 2, 4)
    assert_matches(result, [(e, 1) for e in expected], rel=1e-8)


def test_doublet_below_a_split_point_that_splits_nothing():
    # V = 6400 (x^2 - 1/4)^2: the two-level solve over the lowest doublet
    # (split by 0.0024) lands on its upper level, where N = 2, so that point
    # splits nothing; bisection by count must separate the two levels
    p = Potential.polynomial([400.0, 0.0, -3200.0, 0.0, 6400.0], 1.0)
    result = find_eigenvalues(p, bc_named("dirichlet"), e_max=400.0)
    expected = oracles.fd_dirichlet_levels(lambda x: 6400.0 * (x * x - 0.25) ** 2, 6)
    assert_matches(result, [(e, 1) for e in expected], rel=1e-8)


def test_two_level_solve_probes_both_sides_of_its_root():
    # automorphic K = exp(i phi), phi = 1e-7, splits the periodic double level
    # pi^2 into (pi -+ phi / 2)^2, 3.1e-7 on either side of it.  The two-level
    # solve lands between them, and only probes at the root tolerance see one
    # level on each side: probes 1000 times wider see both on one side and
    # report one double level
    phi = 1e-7
    result = find_eigenvalues(P0, bc_named("automorphic", K=np.exp(1j * phi)), e_max=12.0)
    assert_matches(result, [((phi / 2) ** 2, 1), ((np.pi - phi / 2) ** 2, 1),
                            ((np.pi + phi / 2) ** 2, 1)], rel=1e-10)


def test_deeper_double_well_returns_its_levels_or_raises():
    # V = 12800 (x^2 - 1/4)^2: doublets split by 1.7e-5 and 3.0e-3.  propagate's
    # error control may fail near them; the spectrum must then raise, and never
    # return a level twice or one that is not there
    p = Potential.polynomial([800.0, 0.0, -6400.0, 0.0, 12800.0], 1.0)
    try:
        result = find_eigenvalues(p, bc_named("dirichlet"), e_max=400.0)
    except IntegrationError:
        return
    expected = oracles.fd_dirichlet_levels(lambda x: 12800.0 * (x * x - 0.25) ** 2, 4)
    assert_matches(result, [(e, 1) for e in expected], rel=1e-8)


def test_eigenfunctions_take_two_fundamental_passes(monkeypatch):
    # find_eigenvalues makes no dense pass; on first access the solutions from
    # -a of every level come from one call, and those from a of every level
    # from one more, or for an even V by reflection
    sizes = []
    fundamental = odesolve.fundamental_solutions

    def counting(p, lam, *args):
        sizes.append(np.size(lam))
        return fundamental(p, lam, *args)

    monkeypatch.setattr(odesolve, "fundamental_solutions", counting)
    result = find_eigenvalues(P0, bc_named("dirichlet"), e_max=40.0)
    assert result.degeneracies.count(1) >= 3
    assert sizes == []
    # first access integrates the end data find_eigenvalues kept, and repeats
    # no boundary-data pass
    edge_passes = []
    monkeypatch.setattr(odesolve, "_edge_transfers", lambda *args: edge_passes.append(args))
    funcs = result.eigenfunctions
    assert len(funcs) == len(result.eigenvalues)
    assert edge_passes == []
    calls = len(sizes)
    assert 1 <= calls <= 2
    assert result.eigenfunctions is funcs and len(sizes) == calls  # built once


EVEN_KINDS = [
    P0,
    Potential.harmonic(25.0, 1.0),
    Potential.finite_well(-10.0, 0.5, 1.0),
    Potential.cosine(5.0, np.pi, 1.0),
    Potential.polynomial([100.0, 0.0, -800.0, 0.0, 1600.0], 1.0),
    Potential.piecewise([((-1.0, -0.5), [3.0]), ((-0.5, 0.5), [-1.0, 0.0, 4.0]),
                         ((0.5, 1.0), [3.0])], 1.0),
    Potential.cosine(5.0, np.pi, 8.0),
]
TILTED = Potential.piecewise([((-1.0, 0.0), [0.0, 2.0]), ((0.0, 1.0), [-3.0])], 1.0)


@pytest.mark.parametrize("p", EVEN_KINDS, ids=lambda p: f"{p.kind}-a{p.a:g}")
def test_reflected_pair_matches_the_pass_from_a(p):
    # u1(-x) and -u2(-x) launched at a: the same samples in the same order,
    # with u1' and u2 negated
    energies = np.array([-7.0, 2.0, 17.3, 150.0])
    lefts = odesolve.fundamental_solutions(p, energies, -p.a, p.a)
    rights = odesolve.fundamental_solutions(p, energies, p.a, -p.a)
    for left, right in zip(lefts, rights):
        for got, want in zip(spectrum._reflected(left), right):
            assert odesolve._same_grid(got, want)
            assert (got.lam, got.x0, got.x1, got.f0, got.df0) == (
                want.lam, want.x0, want.x1, want.f0, want.df0)
            for g, w in ((got.f, want.f), (got.df, want.df)):
                assert np.max(np.abs(g - w)) <= 1e-9 * np.max(np.abs(w))


@pytest.mark.parametrize("p", [p for p in EVEN_KINDS if p.a <= 2] + [TILTED],
                         ids=lambda p: f"{p.kind}-a{p.a:g}")
def test_boundary_data_norms_match_the_dense_eigenfunctions(p):
    # each eigenfunction's norm from its boundary data, one _block_gram sum
    # over the blocks of the boundary-data pass, each entered with its data
    # from -a left of the stored join and from a right of it, against Boole's
    # rule on its dense samples
    result = find_eigenvalues(p, bc_named("periodic"), e_max=40.0)
    assert result.eigenvalues
    for energy, funcs, (rows, join) in zip(result.eigenvalues, result.eigenfunctions,
                                           result.end_data):
        x, left, right, s, ds = (m[0] if m.ndim > 1 else m
                                 for m in odesolve._edge_transfers(p, np.array([energy])))
        j = int(np.flatnonzero(x == join)[0])
        for f, row in zip(funcs, rows):
            # boundary rows are (f'(a), f(a), f'(-a), f(-a))
            end_minus, end_plus = row[3:1:-1], row[1::-1]
            # the dense eigenfunction starts from the end data the boundary-data
            # pass chose at both ends, times one unit phase
            k = int(np.argmax(np.abs(end_minus)))
            phase = [f.f0, f.df0][k] / end_minus[k]
            scale = np.max(np.abs(np.r_[end_minus, end_plus]))
            assert abs(abs(phase) - 1.0) <= 1e-14
            assert np.max(np.abs([f.f0, f.df0] - phase * end_minus)) <= 1e-14 * scale
            assert np.max(np.abs([f.f1, f.df1] - phase * end_plus)) <= 1e-14 * scale
            minus, plus = np.array([[f.f0], [f.df0]]), np.array([[f.f1], [f.df1]])
            y = np.where((np.arange(len(s)) < j)[:, None, None], left[:-1] @ minus,
                         right[:-1] @ plus)
            inner = spectrum._block_gram(s, ds, y).sum()
            norm = np.sqrt(odesolve.l2_inner(f, f).real)
            assert abs(np.sqrt(inner.real) - norm) <= 1e-9 * norm


@pytest.mark.parametrize("p, bc", [
    (Potential.harmonic(25.0, 1.0), bc_named("periodic")),
    (TILTED, bc_named("automorphic", K=2.0 + 1.0j)),
    # even, but its grid is not symmetric about 0
    (Potential.piecewise([((-1.0, 0.3), [2.0]), ((0.3, 1.0), [2.0])], 1.0), bc_named("dirichlet")),
], ids=["even-periodic", "tilted-automorphic", "even-asymmetric-grid"])
def test_find_eigenvalues_makes_one_boundary_data_pass(monkeypatch, p, bc):
    # the data from both ends of every level, simple or double, even V or
    # not, come from one _edge_transfers call: T from a is the running
    # product of the inverse blocks, not a second pass
    calls = []
    edge_transfers = odesolve._edge_transfers

    def counting(p, lams):
        calls.append(len(lams))
        return edge_transfers(p, lams)

    monkeypatch.setattr(odesolve, "_edge_transfers", counting)
    result = find_eigenvalues(p, bc, e_max=40.0)
    assert result.degeneracies.count(1) >= 3
    assert len(calls) == 1 and calls[0] >= len(result.eigenvalues)


@pytest.mark.parametrize("p, bc, calls", [
    (Potential.harmonic(25.0, 1.0), bc_named("dirichlet"), 1),
    (Potential.finite_well(-10.0, 0.5, 1.0), bc_named("periodic"), 1),
    (TILTED, bc_named("automorphic", K=2.0 + 1.0j), 2),
    # even, but its grid is not symmetric about 0: sample i from a is not at -x_i
    (Potential.piecewise([((-1.0, 0.3), [2.0]), ((0.3, 1.0), [2.0])], 1.0),
     bc_named("dirichlet"), 2),
], ids=["harmonic-dirichlet", "well-periodic", "tilted-automorphic", "even-asymmetric-grid"])
def test_even_potential_reflects_the_pass_from_a(monkeypatch, p, bc, calls):
    # on first access, an even V takes its eigenfunctions from one fundamental
    # pass, from -a; the tilted V launches every level from a in a second one
    starts = []
    fundamental = odesolve.fundamental_solutions

    def counting(p, lam, x0, *args):
        starts.append(x0)
        return fundamental(p, lam, x0, *args)

    monkeypatch.setattr(odesolve, "fundamental_solutions", counting)
    result = find_eigenvalues(p, bc, e_max=40.0)
    assert result.degeneracies.count(1) >= 3
    assert starts == []
    result.eigenfunctions
    assert starts == [-p.a, p.a][:calls]


@pytest.mark.parametrize("p, bc", [
    (TILTED, bc_named("general-coupled", alpha=1.0, beta=0.5 + 0.5j, gamma=-2.0)),
    (Potential.harmonic(25.0, 1.0), bc_named("periodic")),
], ids=["tilted-general-coupled", "even-half-pass"])
def test_find_eigenvalues_samples_every_point_of_v_once(monkeypatch, p, bc):
    # V is sampled once per piece, span and step level: each propagate call
    # after the first reads the step plan the potential keeps, so no array of
    # points reaches the same piece's V twice.  The default floor reads
    # sup_norm, which sampled V on construction
    seen = collections.Counter()
    piece_callable = Potential.piece_callable

    def counted(self, lo, hi):
        vfun = piece_callable(self, lo, hi)

        def sampled(x):
            seen[id(vfun), np.asarray(x).tobytes()] += 1
            return vfun(x)
        return sampled

    monkeypatch.setattr(Potential, "piece_callable", counted)
    fresh = Potential.from_json(p.to_json())
    result = find_eigenvalues(fresh, bc, e_max=40.0)
    assert len(result.eigenvalues) >= 3 and len(seen) >= 4
    assert max(seen.values()) == 1


def _phases_and_count_by_three_solves(p, bc, energy, rtol):
    """t and N(E) with one eigvals call each for W, S and Ucal, the way
    _bc_matrix found them before its one stacked solve."""
    transfer, zeros = odesolve.propagate(p, energy, -p.a, p.a, rtol)
    ua, dua = transfer[..., 0, :], transfer[..., 1, :]
    uma, duma = np.eye(2)
    s = np.maximum(np.maximum(np.abs(ua), np.abs(dua)), 1.0)[..., None, :]
    minus = np.stack(np.broadcast_arrays(dua - 1j * ua, duma + 1j * uma), axis=-2) / s
    plus = np.stack(np.broadcast_arrays(dua + 1j * ua, duma - 1j * uma), axis=-2) / s
    ucal = bc.Ucal.matrix
    s_matrix = minus @ np.linalg.inv(plus)

    def phases(w):
        return np.angle(np.linalg.eigvals(w)) % (2 * np.pi)
    t, k = phases(ucal.conj().T @ s_matrix), phases(ucal)
    turns = (t.sum(axis=-1) - phases(s_matrix).sum(axis=-1)
             + k[k < 2 * np.pi - 1e-12].sum()) / (2 * np.pi)
    return t, zeros + np.rint(turns).astype(int)


@pytest.mark.parametrize("bc", [
    bc_named("periodic"),
    # its first eigenphase rounds to 2 pi - 8.9e-16, a 0 that k_sum leaves out
    classify(Unitary2.certify(np.diag([np.exp(-1e-15j), np.exp(2j)]))),
], ids=["periodic", "phase-below-two-pi"])
def test_stacked_eigen_solve_matches_three_solves(bc):
    # the stack runs through the double levels pi^2 and 4 pi^2 of the
    # periodic box, where two eigenphases of W cross 0 at once
    energies = np.r_[np.linspace(-5.0, 45.0, 41), np.pi ** 2, 4 * np.pi ** 2]
    for energy, rtol in ((energies, spectrum.SCAN_RTOL), (energies, odesolve.DEFAULT_RTOL),
                         (np.pi ** 2, odesolve.DEFAULT_RTOL)):
        _, t, count, _ = spectrum._bc_matrix(P0, bc, energy, rtol)
        want_t, want_count = _phases_and_count_by_three_solves(P0, bc, energy, rtol)
        assert t.tobytes() == want_t.tobytes() and t.shape == want_t.shape
        assert np.array_equal(count, want_count)
    if bc.name == "periodic":
        assert 2 in np.diff(spectrum._bc_matrix(P0, bc, energies[:41], spectrum.SCAN_RTOL)[2])
    else:
        assert np.angle(bc.Ucal.matrix[0, 0]) % (2 * np.pi) > 2 * np.pi - 1e-12


def _recording_full_propagate(monkeypatch):
    """The energies of every full-tolerance odesolve.propagate call, one
    array per call, as find_eigenvalues makes them."""
    calls, propagate = [], odesolve.propagate

    def recording(p, lam, x0, x1, rtol=odesolve.DEFAULT_RTOL):
        if rtol == odesolve.DEFAULT_RTOL:
            calls.append(np.atleast_1d(lam))
        return propagate(p, lam, x0, x1, rtol)
    monkeypatch.setattr(odesolve, "propagate", recording)
    return calls


def test_one_refinement_run_starts_from_the_scan_samples(monkeypatch):
    # the periodic box has a simple level at 0 and double ones at (n pi)^2.
    # One run refines the simple and the double brackets together, from the
    # end values the scan counted, so no full-tolerance call comes back to a
    # scan energy
    runs, chandrupatla = [], spectrum.minimize_scalar

    def recording_run(g, x1, x2, *args):
        runs.append((x1, x2))
        return chandrupatla(g, x1, x2, *args)

    monkeypatch.setattr(spectrum, "minimize_scalar", recording_run)
    full = _recording_full_propagate(monkeypatch)
    result = find_eigenvalues(P0, bc_named("periodic"), e_max=40.0)
    assert_matches(result, [(0.0, 1), (np.pi ** 2, 2), (4 * np.pi ** 2, 2)], rel=1e-9)
    assert len(runs) == 1
    (x1, x2), = runs
    levels = np.array(result.eigenvalues)
    assert len(x1) == 3 and np.all((x1 <= levels) & (levels <= x2))
    scan = [e for e, _ in result.det_trace]
    assert not np.isin(np.concatenate(full), scan).any()


@pytest.mark.parametrize("family, levels, budget", [("periodic", 3, 7), ("neumann", 5, 5)])
def test_full_tolerance_propagate_budget(monkeypatch, family, levels, budget):
    # one refinement run started from the scan's samples, then the two-level
    # side check: 14 and 6 calls when every bracket end was evaluated again
    # and the simple and double brackets ran one after the other
    full = _recording_full_propagate(monkeypatch)
    result = find_eigenvalues(P0, bc_named(family), e_max=40.0)
    assert len(result.eigenvalues) == levels
    assert len(full) <= budget


@pytest.mark.parametrize("offset", [0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7])
def test_level_on_a_scan_energy(caplog, offset):
    # e_min puts scan point 5 at (pi / 2)^2 + offset, where the coarse count
    # may put the level on either side of it and |det M| is about 0
    target, e_max, i = (np.pi / 2) ** 2 + offset, 12.0, 5
    e_min = target - 1.0
    for _ in range(30):
        grid = spectrum._scan_grid(e_min, e_max, P0.a, 16)
        e_min += (target - grid[i]) / (1 - (i / (len(grid) - 1)) ** 2)
    assert spectrum._scan_grid(e_min, e_max, P0.a, 16)[i] == target
    with caplog.at_level(logging.WARNING, logger="saext.spectrum"):
        result = find_eigenvalues(P0, bc_named("dirichlet"), e_min=e_min, e_max=e_max)
    assert not caplog.records, [r.getMessage() for r in caplog.records]
    assert result.degeneracies == [1, 1]
    for got, n in zip(result.eigenvalues, (1, 2)):
        want = (n * np.pi / 2) ** 2
        assert abs(got - want) <= 2 * odesolve.DEFAULT_RTOL * (1 + want)


def chandrupatla(g, lo, hi, rtol):
    """spectrum._chandrupatla on brackets [lo, hi] of the vectorized g(x, live),
    with the points and brackets of every call it makes (at most 200)."""
    lo, hi, calls = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), []

    def recording(x, live):
        assert len(calls) < 200, "the solver does not stop"
        calls.append((x.copy(), live.copy()))
        return g(x, live)
    every = np.arange(len(lo))
    root, ok = spectrum._chandrupatla(recording, lo, hi, g(lo, every), g(hi, every), rtol)
    return root, ok, calls


@pytest.mark.parametrize("rtol", [1e-10, 1e-6, 0.0])
def test_chandrupatla_finds_cube_roots(rtol):
    c = np.array([2.0, 10.0, -5.0, 0.3, 1e4])
    root, ok, calls = chandrupatla(lambda x, live: x ** 3 - c[live],
                                   [0.0, 1.0, -3.0, 0.0, 1.0], [2.0, 3.0, 0.0, 1.0, 30.0], rtol)
    want = np.cbrt(c)
    assert ok.all()
    # at rtol 0 the brackets close to adjacent floats
    assert np.all(np.abs(root - want) <= np.maximum(rtol * (1 + np.abs(want)),
                                                    2 * np.spacing(np.abs(want))))
    for (x, live), (_, before) in zip(calls[1:], calls):
        assert len(x) == len(live) and set(live) <= set(before)
    assert rtol == 0.0 or len(calls) < 15


def test_chandrupatla_ends_of_one_sign_or_zero_stop_at_once():
    # x^2 + 1 > 0 on [0.5, 3] and x - 5 < 0 on [1, 4]: the end of smaller |g|;
    # x - 1 is exactly 0 at the lower end of [1, 3] and the upper end of [-2, 1]
    shift = np.array([1.0, -5.0, -1.0, -1.0])
    power = np.array([2, 1, 1, 1])
    root, ok, calls = chandrupatla(lambda x, live: x ** power[live] + shift[live],
                                   [0.5, 1.0, 1.0, -2.0], [3.0, 4.0, 3.0, 1.0], 1e-10)
    assert ok.all() and not calls
    assert root.tolist() == [0.5, 4.0, 1.0, 1.0]


def test_chandrupatla_fails_on_a_non_finite_target():
    # the second bracket's target is NaN inside it, the third's at its upper end
    def g(x, live):
        return np.where((live == 1) & (x > 0.0) & (x < 1.0) | (live == 2) & (x == 1.0),
                        np.nan, x - 0.3)
    root, ok, calls = chandrupatla(g, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1e-10)
    assert ok.tolist() == [True, False, False]
    assert abs(root[0] - 0.3) <= 1e-10 * 1.3
    assert calls[0][1].tolist() == [0, 1] and calls[1][1].tolist() == [0]


@pytest.mark.parametrize("p, bc, e_max, rounds", [
    (Potential.harmonic(25.0 / 4.0, 2.0), bc_named("dirichlet"), 10.0, 8),
    (Potential.harmonic(25.0, 1.0), bc_named("periodic"), 40.0, 7),
], ids=["harmonic-dirichlet-a2", "harmonic-periodic"])
def test_one_level_refinement_rounds(monkeypatch, p, bc, e_max, rounds):
    # prod_j sin(t_j / 2), the characteristic determinant over |det plus|, is a
    # smoothed step where an eigenfunction is small at both ends, and took 15
    # and 11 rounds; (-1)^N |det M| is smooth, so interpolation converges fast
    counts = []
    chandrupatla = spectrum._chandrupatla

    def counting(g, *args):
        counts.append(0)

        def counted(x, live):
            counts[-1] += 1
            return g(x, live)
        return chandrupatla(counted, *args)

    monkeypatch.setattr(spectrum, "minimize_scalar", counting)
    result = find_eigenvalues(p, bc, e_max=e_max)
    assert result.degeneracies and set(result.degeneracies) == {1}
    assert len(counts) == 1 and counts[0] <= rounds


def test_solve_warns_when_the_target_is_not_finite(monkeypatch, caplog):
    # the Dirichlet box levels (pi/2)^2 and pi^2, the second with a NaN target
    samples = spectrum._samples

    def nan_above_nine(p, bc, energy, rtol):
        out = samples(p, bc, energy, rtol)
        out[2, out[0] >= 9.0] = np.nan
        return out
    monkeypatch.setattr(spectrum, "_samples", nan_above_nine)
    bc = bc_named("dirichlet")
    lo, hi = (spectrum._samples(P0, bc, np.array(e), odesolve.DEFAULT_RTOL)
              for e in ([2.0, 9.0], [3.0, 10.0]))
    with caplog.at_level(logging.WARNING, logger="saext.spectrum"):
        root, ok = spectrum._solve(P0, bc, lo, hi)
    assert ok.tolist() == [True, False]
    assert abs(root[0] - np.pi ** 2 / 4) <= 1e-9
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 1
    assert messages[0].startswith("refinement did not converge near E = 9")


def test_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = ("import sys, saext, saext.cli\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("e_min, e_max, levels", [
    (np.pi ** 2 / 4 - 0.05, 10.0, [np.pi ** 2 / 4, np.pi ** 2]),
    (5.0, 9 * np.pi ** 2 / 4 + 0.05, [np.pi ** 2, 9 * np.pi ** 2 / 4]),
])
def test_roots_in_edge_scan_intervals(e_min, e_max, levels):
    # the lowest or highest level lies inside the first or last scan interval
    result = find_eigenvalues(P0, bc_named("dirichlet"), e_min=e_min, e_max=e_max)
    assert_matches(result, [(e, 1) for e in levels])
    scan = [e for e, _ in result.det_trace]
    assert scan[0] < result.eigenvalues[0] < scan[1] or scan[-2] < result.eigenvalues[-1] < scan[-1]


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
        count = spectrum._bc_matrix(p, bc, np.array(probes), rtol)[2]
        assert list(count) == list(below)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: both surface states near -100 are located, at -100.0000027 "
    "(1.9e-6 off) and -99.9999992, then dropped at boundary residuals 1.47e-6 and "
    "2.57e-6"))
def test_default_arguments_keep_close_robin_surface_states(caplog):
    # V = 0, Robin(10, -10): E = -k^2 with k tanh k = 10 and k coth k = 10,
    # 1.65e-6 apart (brentq to 1e-15), and one level below e_max
    with caplog.at_level(logging.WARNING, logger="saext.spectrum"):
        result = find_eigenvalues(P0, bc_named("robin", alpha=10.0, gamma=-10.0), e_max=5.0)
    assert not caplog.records, [r.getMessage() for r in caplog.records]
    assert_matches(result, [(-100.0000008244614, 1), (-99.99999917553848, 1)]
                   + [(e, m) for e, m in robin_levels(10.0, -10.0) if e < 5.0], rel=1e-9)


def test_eigenphase_rounded_below_two_pi_counts_as_zero():
    # diag(exp(-1e-14 i), -1) is diag(1, -1) up to rounding: its first
    # eigenphase, 2 pi - 1e-14, is a 0, whose level would lie below -1e24.
    # Counted as 2 pi, it puts a level below every floor the default e_min
    # tries, and the floor's descent overflows
    bc = classify(Unitary2.certify(np.diag([np.exp(-1e-14j), -1.0])))
    result = find_eigenvalues(P0, bc, e_max=20.0)
    assert_matches(result, [(((2 * n + 1) * np.pi / 4) ** 2, 1) for n in range(3)], rel=1e-8)


def _zero_robin_surface_level():
    """The surface state of zero(8) x robin(30, -20) from the closed-form
    determinant, -900.0000000001489."""
    with np.errstate(over="ignore", invalid="ignore"):  # cosh(8 k) squared overflows below
        return oracles.bisect_roots(oracles.robin_det(30.0, -20.0, 8.0), -950.0, -350.0)[0]


@pytest.mark.parametrize("p, level, rel", [
    (Potential.zero(8.0), _zero_robin_surface_level(), 1e-10),
    # DOP853 at rtol 3e-14 (oracles.reference_propagate) with brentq; the
    # collocation reference, -895.0136737, has an error estimate of 0.15
    (Potential.cosine(5.0, np.pi, 8.0), -895.0136710233309, 1e-10),
], ids=["zero", "cosine"])
def test_deep_robin_state_at_wide_half_width_is_kept(caplog, p, level, rel):
    # at a = 8 the solutions grow by about e^480 near E = -900, and the
    # solutions from the end the join does not use overflow on some blocks.
    # The norm once summed both ends' blocks masked by 0/1, which turned
    # those into inf * 0 = NaN and dropped the level (ROADMAP item 2); each
    # block now enters with the data of the end it uses
    with caplog.at_level(logging.WARNING, logger="saext.spectrum"):
        result = find_eigenvalues(p, bc_named("robin", alpha=30.0, gamma=-20.0), e_max=10.0)
    assert not caplog.records, [r.getMessage() for r in caplog.records]
    assert abs(result.eigenvalues[0] - level) <= rel * abs(level)
    assert result.degeneracies[0] == 1 and result.residuals[0] <= spectrum.RESIDUAL_LIMIT
    assert max(result.residuals) <= spectrum.RESIDUAL_LIMIT


@pytest.mark.xfail(strict=True, reason=(
    "the a/512 grid under-resolves a surface state of decay rate 30 at a = 8 (kappa h "
    "= 0.47): the dense eigenfunction at -900 has l2_inner(f, f) = 1.00096 and an "
    "eigen-equation defect of 2.56, while its boundary residual is 8.9e-16"))
def test_dense_eigenfunction_of_a_deep_surface_state():
    # V = 0, Robin(30, -20) at a = 8: E = -900 exactly, kappa = 30
    result = find_eigenvalues(Potential.zero(8.0), bc_named("robin", alpha=30.0, gamma=-20.0),
                              e_max=10.0)
    assert abs(result.eigenvalues[0] + 900.0) <= 1e-9 * 900.0
    (f,), entry = result.eigenfunctions[0], eigenfunction_residuals(result)["per_eigenfunction"][0]
    assert entry["boundary"] <= 1e-12
    assert abs(odesolve.l2_inner(f, f).real - 1.0) <= 1e-8
    assert entry["eigen_equation"] <= 1e-6


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: at a=8 the solutions from -a grow by about e^37 at E = -6, "
    "where S(E) reads rounding noise and 7 candidates between -6 and -5.73 are "
    "dropped at boundary residuals 7.2-12.7; the surface state -2.9235 is dropped at "
    "boundary residual 1.68e-5"))
def test_default_arguments_keep_wide_surface_state(caplog):
    # collocation references on four pieces (perfbench/oracle.collocation_levels),
    # error estimate 4.2e-11
    levels = [-2.9235028098, -1.2073184732, -1.100265892, -1.0156791182, -0.8342824188,
              -0.690341264, -0.4886089657, -0.3667491852, 1.352672687, 4.3258746149,
              4.8371540101, 5.2181842439, 6.0204820242, 6.6592315395, 7.7683499791,
              8.6192781143]
    bc = bc_named("general-coupled", alpha=1.0, beta=0.5 + 0.5j, gamma=-2.0)
    with caplog.at_level(logging.WARNING, logger="saext.spectrum"):
        result = find_eigenvalues(Potential.cosine(5.0, np.pi, 8.0), bc, e_max=10.0)
    assert not caplog.records, [r.getMessage() for r in caplog.records]
    assert_matches(result, [(e, 1) for e in levels])


def test_bisection_rounds_split_an_interval_of_many_levels(monkeypatch):
    # from e_min = -1e5 the last scan interval spans about 120 in E and holds
    # all four Dirichlet levels below 40, so rounds of bisection must split it
    scans = []
    bc_matrix = spectrum._bc_matrix

    def counting(p, bc, energy, rtol):
        if rtol == spectrum.SCAN_RTOL:
            scans.append(np.size(energy))
        return bc_matrix(p, bc, energy, rtol)

    monkeypatch.setattr(spectrum, "_bc_matrix", counting)
    result = find_eigenvalues(P0, bc_named("dirichlet"), e_min=-1e5, e_max=40.0)
    assert len(scans) >= 2  # the scan, then at least one round
    assert_matches(result, [((n * np.pi / 2) ** 2, 1) for n in range(1, 5)], rel=1e-9)


def test_floor_descent_is_scanned_at_the_scan_density(monkeypatch):
    # the surface states of zero x robin(3, -3) lie near -9, below the default
    # floor -1.  Each step of the floor's descent counts on its own grid, so no
    # refinement bracket spans more than two grid steps pi/16a of the
    # wavenumber sqrt(E - floor), where the one bracket [-16, -1] did
    scans, brackets = [], []
    bc_matrix, solve = spectrum._bc_matrix, spectrum._solve

    def scanning(p, bc, energy, rtol):
        if rtol == spectrum.SCAN_RTOL:
            scans.append(np.atleast_1d(energy))
        return bc_matrix(p, bc, energy, rtol)

    def recording(p, bc, lo, hi):
        brackets.append((lo[0], hi[0]))  # the energies of the bracket ends
        return solve(p, bc, lo, hi)

    monkeypatch.setattr(spectrum, "_bc_matrix", scanning)
    monkeypatch.setattr(spectrum, "_solve", recording)
    result = find_eigenvalues(P0, bc_named("robin", alpha=3.0, gamma=-3.0), e_max=40.0)
    assert_matches(result, robin_levels(3.0, -3.0))
    assert len(scans) == 5  # the scan and four steps, to -16
    floor = np.min(np.concatenate(scans))
    assert floor < result.eigenvalues[0]
    for lo, hi in brackets:
        assert np.all(np.sqrt(hi - floor) - np.sqrt(lo - floor) <= 2 * np.pi / (16 * P0.a))


def test_floor_descent_step_whose_counts_fall_keeps_its_floor(caplog):
    # V = 0 with a Haar-random Ucal (ROADMAP item 2's draw 107): below about
    # -250, S(E) reads rounding noise and N(E) flickers between 0 and 1 on the
    # last step's grid, to -512.  N never falls, so that step keeps only its
    # floor, and the noise is refined once instead of at every rise
    from scipy.stats import unitary_group

    bc = classify(Unitary2.certify(unitary_group.rvs(2, random_state=107)))
    with caplog.at_level(logging.WARNING, logger="saext.spectrum"):
        result = find_eigenvalues(P0, bc, e_max=40.0)
    drops = [r for r in caplog.records if r.getMessage().startswith("dropping candidate")]
    assert len(drops) <= 1
    assert len(result.eigenvalues) == 4 and min(result.eigenvalues) > 0.0
