"""Boundary-determinant spectra against closed-form and discretization oracles."""

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
    # -a of every level come from one call, and those from a of every simple
    # level from one more, or for an even V by reflection
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
    # each eigenfunction's norm from its boundary data, the block transfers of
    # full passes from -a and from a (for an even V, the pass from a is not
    # the mirror image find_eigenvalues takes) and spectrum._block_gram,
    # against Boole's rule on its dense samples; a simple level joins where
    # find_eigenvalues would
    def edge_pass(energy, x0):  # one energy's pass from x0, its arrays ordered from -a
        _, t, s, ds = odesolve._edge_transfers(p, np.array([energy]), x0, -x0)
        order = slice(None, None, 1 if x0 < 0 else -1)
        return t[0, order], s[0, order], ds[0, order]

    result = find_eigenvalues(p, bc_named("periodic"), e_max=40.0)
    assert result.eigenvalues
    for energy, funcs, (ends_minus, ends_plus, _) in zip(
            result.eigenvalues, result.eigenfunctions, result.end_data):
        (left, ls, dls), (right, rs, drs) = edge_pass(energy, -p.a), edge_pass(energy, p.a)
        for f, end_minus, end_plus in zip(funcs, ends_minus, ends_plus):
            # the dense eigenfunction starts from the end data the boundary-data
            # pass chose, times one unit phase; a double level's data at a is
            # carried there by the dense pass, so it agrees to that pass's rounding
            k = int(np.argmax(np.abs(end_minus)))
            phase = [f.f0, f.df0][k] / end_minus[k]
            scale = np.max(np.abs(np.r_[end_minus, end_plus]))
            assert abs(abs(phase) - 1.0) <= 1e-14
            assert np.max(np.abs([f.f0, f.df0] - phase * end_minus)) <= 1e-14 * scale
            assert np.max(np.abs([f.f1, f.df1] - phase * end_plus)) <= (
                1e-14 if len(funcs) == 1 else 1e-12) * scale
            minus, plus = np.array([[f.f0], [f.df0]]), np.array([[f.f1], [f.df1]])
            j = len(ls) if len(funcs) == 2 else spectrum._join((left @ minus)[:, 0, 0],
                                                              (right @ plus)[:, 0, 0])
            inner = (spectrum._block_gram(ls[:j], dls[:j], left[:j] @ minus).sum()
                     - spectrum._block_gram(rs[j:], drs[j:], right[j + 1:] @ plus).sum())
            norm = np.sqrt(odesolve.l2_inner(f, f).real)
            assert abs(np.sqrt(inner.real) - norm) <= 1e-9 * norm


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
    # pass, from -a; the tilted V launches its simple levels from a in a second one
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


def test_solve_evaluates_all_bracket_ends_in_one_call(monkeypatch):
    # the periodic box has a simple level at 0 and double ones at (n pi)^2,
    # so both the one-level and the two-level solve run
    solves, calls = [], []
    solve, propagate = spectrum._solve, odesolve.propagate

    def recording_solve(p, bc, lo, hi, *args):
        calls.clear()
        result = solve(p, bc, lo, hi, *args)
        solves.append((lo, hi, list(calls)))
        return result

    def recording_propagate(p, lam, *args):
        calls.append(np.atleast_1d(lam))
        return propagate(p, lam, *args)

    monkeypatch.setattr(spectrum, "_solve", recording_solve)
    monkeypatch.setattr(odesolve, "propagate", recording_propagate)
    result = find_eigenvalues(P0, bc_named("periodic"), e_max=40.0)
    assert 1 in result.degeneracies and 2 in result.degeneracies
    assert len(solves) == 2
    for lo, hi, energies in solves:
        assert np.array_equal(energies[0], np.r_[lo, hi])
        assert not any(np.array_equal(e, lo) or np.array_equal(e, hi) for e in energies[1:])


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


def test_solve_warns_when_the_target_is_not_finite(caplog):
    # the Dirichlet box levels (pi/2)^2 and pi^2, the second with a NaN target
    def target(t, n, below):
        return np.where(below == 1, np.nan, (-1.0) ** n * np.prod(np.sin(0.5 * t), axis=-1))
    with caplog.at_level(logging.WARNING, logger="saext.spectrum"):
        root, ok = spectrum._solve(P0, bc_named("dirichlet"), np.array([2.0, 9.0]),
                                   np.array([3.0, 10.0]), np.array([0, 1]), target)
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


def test_eigenphase_rounded_below_two_pi_counts_as_zero():
    # diag(exp(-1e-14 i), -1) is diag(1, -1) up to rounding: its first
    # eigenphase, 2 pi - 1e-14, is a 0, whose level would lie below -1e24.
    # Counted as 2 pi, it puts a level below every floor the default e_min
    # tries, and the floor's descent overflows
    bc = classify(Unitary2.certify(np.diag([np.exp(-1e-14j), -1.0])))
    result = find_eigenvalues(P0, bc, e_max=20.0)
    assert_matches(result, [(((2 * n + 1) * np.pi / 4) ** 2, 1) for n in range(3)], rel=1e-8)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: at a=8 the solutions from -a grow by about e^37 at E = -6, "
    "where S(E) reads rounding noise and 20 candidates are dropped; the surface "
    "state -2.9235 is dropped at boundary residual 1.1e-5"))
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
