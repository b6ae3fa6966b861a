"""Integration engine oracles: closed forms, Wronskian, linearity, and the
Magnus stepper against the solve_ivp reference."""

import cmath
import math
import sys
import threading

import numpy as np
import pytest

import oracles
from saext import checks, odesolve
from saext.errors import DomainError, GridError, IntegrationError
from saext.potential import Potential

P0 = Potential.zero(1.0)

# every potential kind; the finite well and the piecewise V put breakpoints
# inside [-1, 1]
KINDS = [
    Potential.zero(1.0),
    Potential.finite_well(-10.0, 0.5, 1.0),
    Potential.harmonic(25.0, 1.0),
    Potential.cosine(5.0, np.pi, 1.0),
    Potential.polynomial([0.5, -1.0, 3.0, 2.0], 1.0),
    Potential.piecewise([((-1.0, 0.0), [0.0, 2.0]), ((0.0, 1.0), [-3.0])], 1.0),
]
MAGNUS_RTOL = 1e-12


def _relative(got, want):
    return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))


def _free_transfer(q, length):
    """Exact transfer matrix of f'' = q f over a signed length."""
    k = cmath.sqrt(-q)
    if k == 0:
        return np.array([[1.0, length], [0.0, 1.0]])
    return np.array([[cmath.cos(k * length), cmath.sin(k * length) / k],
                     [-k * cmath.sin(k * length), cmath.cos(k * length)]])


def test_cosh_oracle():
    record = checks.ode_oracle_cosh()
    assert record["passed"], record


def test_zero_initial_data_gives_zero_trajectory():
    sol = odesolve.integrate(P0, 2.7, -1.0, 1.0, 0.0, 0.0)
    assert np.max(np.abs(sol.f)) == 0.0
    assert np.max(np.abs(sol.df)) == 0.0


def test_complex_cosine_oracle():
    # lambda = i: f = cos(kappa x) with kappa^2 = i
    kappa = cmath.exp(1j * cmath.pi / 4)
    sol = odesolve.integrate(P0, 1j, 0.0, 1.0, 1.0, 0.0)
    assert abs(sol.f1 - cmath.cos(kappa)) < 1e-9
    assert abs(sol.df1 + kappa * cmath.sin(kappa)) < 1e-9


def test_dense_output_spacing_and_endpoints():
    sol = odesolve.integrate(P0, 1.0, -1.0, 1.0, 1.0, 0.0)
    assert sol.x[0] == -1.0 and sol.x[-1] == 1.0
    assert np.all(np.diff(sol.x) > 0)
    assert np.max(np.diff(sol.x)) <= 2.0 / 256 + 1e-15
    assert sol.f1 == sol.f[-1] and sol.df1 == sol.df[-1]


def test_breakpoints_are_grid_points():
    p = Potential.finite_well(-5.0, 0.5, 1.0)
    sol = odesolve.integrate(p, 1.0, -1.0, 1.0, 1.0, 0.0)
    assert -0.5 in sol.x and 0.5 in sol.x
    assert len(sol.segment_slices()) == 3


def test_l2_inner_constant():
    sol = odesolve.integrate(P0, 0.0, -1.0, 1.0, 1.0, 0.0)  # f = 1
    assert abs(odesolve.l2_inner(sol, sol) - 2.0) < 1e-12


def test_l2_inner_parity_orthogonality():
    # exactly parity-symmetric samples: even x odd integrand cancels pairwise
    u = odesolve.integrate(P0, 1j, -1.0, 1.0, 1.0, 0.5)
    even, odd = (odesolve.OdeSolution(u.lam, u.x, u.f + s * u.f[::-1], u.df - s * u.df[::-1],
                                      u.segments) for s in (1.0, -1.0))
    assert abs(odesolve.l2_inner(even, even)) > 1.0
    assert abs(odesolve.l2_inner(even, odd)) < 1e-12
    # direct independent integrations agree to integrator accuracy
    cos_x = odesolve.integrate(P0, 1.0, -1.0, 1.0, math.cos(1.0), math.sin(1.0))
    sin_x = odesolve.integrate(P0, 1.0, -1.0, 1.0, -math.sin(1.0), math.cos(1.0))
    assert abs(odesolve.l2_inner(cos_x, sin_x)) < 1e-10


def test_l2_inner_normalized_box_mode():
    # cos(pi x / 2) has unit L2 norm on [-1, 1]
    e = (math.pi / 2) ** 2
    sol = odesolve.integrate(P0, e, -1.0, 1.0, 0.0, math.pi / 2)
    assert abs(odesolve.l2_inner(sol, sol) - 1.0) < 1e-10


def test_l2_inner_conjugate_linear_in_first_argument():
    u = odesolve.integrate(P0, 1j, -1.0, 1.0, 1.0, 0.5j)
    w = odesolve.integrate(P0, 1j, -1.0, 1.0, 0.3, 1.0)
    c = 0.7 - 1.2j
    lhs = odesolve.l2_inner(u.scaled(c), w)
    assert abs(lhs - np.conj(c) * odesolve.l2_inner(u, w)) < 1e-10


@pytest.mark.parametrize("p", KINDS, ids=[p.kind for p in KINDS])
def test_quadrature_exact_for_quintics(p):
    # one Richardson step on Simpson is Boole's rule, exact up to degree 5
    sol = odesolve.integrate(p, 1.0, -1.0, 1.0, 1.0, 0.0)
    values = 1.0 - 2.0 * sol.x + 3.0 * sol.x ** 4 + 1j * sol.x ** 5
    assert abs(odesolve.quadrature(sol, values) - 3.2) < 1e-13
    backward = odesolve.integrate(p, 1.0, 1.0, -1.0, 1.0, 0.0)
    assert abs(odesolve.quadrature(backward, np.ones_like(backward.x)) + 2.0) < 1e-13


def test_quadrature_needs_interval_multiple_of_four():
    sol = odesolve.integrate(P0, 1.0, -1.0, 1.0, 1.0, 0.0)
    cut = odesolve.OdeSolution(sol.lam, sol.x[:-2], sol.f[:-2], sol.df[:-2], sol.segments)
    with pytest.raises(GridError):
        odesolve.quadrature(cut, cut.f)


def test_grid_error_on_mismatched_grids():
    u = odesolve.integrate(P0, 1.0, -1.0, 1.0, 1.0, 0.0)
    w = odesolve.integrate(Potential.zero(2.0), 1.0, -2.0, 2.0, 1.0, 0.0)
    with pytest.raises(GridError):
        odesolve.l2_inner(u, w)
    at_two = odesolve.integrate(P0, 2.0, -1.0, 1.0, 0.0, 1.0)  # u's grid, another lambda
    with pytest.raises(GridError, match="lambdas"):
        odesolve.combine([u, at_two], [1.0, 1.0])


def test_propagate_rejects_a_two_dimensional_energy_array():
    with pytest.raises(ValueError, match="scalar or a 1-D array"):
        odesolve.propagate(P0, np.ones((2, 2)), -1.0, 1.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, complex(1.0, np.nan),
                                 np.array([1.0, np.nan])],
                         ids=["nan", "inf", "-inf", "complex-nan", "array-nan"])
def test_a_non_finite_lambda_is_rejected(lam):
    # a lambda that is not finite would otherwise read as an overflow of the
    # first piece, an IntegrationError that names no cause; both passes
    # reject it, the half pass of an even V too
    for x1 in (1.0, 0.5):
        with pytest.raises(ValueError, match="lam must be finite"):
            odesolve.propagate(P0, lam, -1.0, x1)
        with pytest.raises(ValueError, match="lam must be finite"):
            odesolve.fundamental_solutions(P0, lam, -1.0, x1)


def test_wronskian_constant_along_x():
    p = Potential.harmonic(1.0, 1.0)
    u = odesolve.integrate(p, 2.0 + 1j, -1.0, 1.0, 1.0, 0.0)
    w = odesolve.integrate(p, 2.0 + 1j, -1.0, 1.0, 0.0, 1.0)
    values = u.f * w.df - u.df * w.f
    assert np.max(np.abs(values - values[0])) < 1e-9 * max(1.0, abs(values[0]))


def test_linearity_under_scaled_initial_data():
    rng = np.random.default_rng(5)
    p = Potential.cosine(1.0, np.pi, 1.0)
    base = odesolve.integrate(p, 3.0, -1.0, 1.0, 1.0, -0.4)
    for _ in range(5):
        c = (0.5 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
        direct = odesolve.integrate(p, 3.0, -1.0, 1.0, c * 1.0, c * -0.4)
        scale = np.max(np.abs(direct.f))
        assert np.max(np.abs(direct.f - c * base.f)) < 1e-10 * scale


def test_tolerance_convergence():
    # harmonic(25) at E = 17.3: rtol 1e-8 and 5e-9 settle on different step
    # levels, so each meets its bound and the tighter one lands closer
    p = Potential.harmonic(25.0, 1.0)
    reference = oracles.reference_propagate(p, 17.3, -1.0, 1.0)
    errors = []
    for rtol in (1e-8, 5e-9):
        t = odesolve.propagate(p, 17.3, -1.0, 1.0, rtol)[0]
        errors.append(np.max(np.abs(t - reference)))
        assert errors[-1] <= rtol * max(1.0, np.max(np.abs(t)))
    assert errors[1] < errors[0]


def test_reverse_direction_integration():
    sol = odesolve.integrate(P0, -1.0, 1.0, -1.0, math.cosh(2.0), math.sinh(2.0))
    assert abs(sol.f1 - 1.0) < 1e-8
    assert np.all(np.diff(sol.x) < 0)


def test_propagate_matches_integrate():
    p = Potential.finite_well(-5.0, 0.5, 1.0)
    t, _ = odesolve.propagate(p, 3.0, -1.0, 1.0)
    sol = odesolve.integrate(p, 3.0, -1.0, 1.0, 1.0, 0.0)
    assert abs(t[0, 0] - sol.f1) < 1e-9
    assert abs(t[1, 0] - sol.df1) < 1e-9


def test_combine_is_pointwise():
    u = odesolve.integrate(P0, 1.0, -1.0, 1.0, 1.0, 0.0)
    w = odesolve.integrate(P0, 1.0, -1.0, 1.0, 0.0, 1.0)
    both = odesolve.combine([u, w], [2.0, -1j])
    assert np.allclose(both.f, 2.0 * u.f - 1j * w.f)
    assert abs(both.f0 - (2.0 * u.f0 - 1j * w.f0)) == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integration_failure_carries_abscissa():
    stiff = Potential.harmonic(1e18, 1.0)
    with pytest.raises(IntegrationError) as info:
        odesolve.integrate(stiff, 0.0, -1.0, 1.0, 1.0, 0.0)
    assert info.value.x_fail is not None


def test_invalid_arguments():
    with pytest.raises(ValueError):
        odesolve.integrate(P0, 1.0, 0.5, 0.5, 1.0, 0.0)


@pytest.mark.parametrize("rtol", [0.0, -1e-10, np.nan, np.inf])
def test_rtol_must_be_positive_in_both_passes(rtol):
    # NaN passes `rtol <= 0` and inf would turn off error control; propagate
    # must reject them before the step arithmetic, both in the half pass of
    # an even V over a symmetric span and in the full pass
    with pytest.raises(ValueError, match="rtol"):
        odesolve.propagate(P0, 1.0, -1.0, 1.0, rtol)
    with pytest.raises(ValueError, match="rtol"):
        odesolve.propagate(P0, 1.0, -1.0, 0.5, rtol)


ODD_PIECEWISE = Potential.piecewise([((-1.0, 0.0), [0.0, 2.0]), ((0.0, 1.0), [-3.0])], 1.0)


def test_fundamental_solutions_rejects_endpoints_outside_domain():
    # the pieces' polynomials must not be extrapolated past a = 1
    with pytest.raises(DomainError):
        odesolve.fundamental_solutions(ODD_PIECEWISE, 1.0, -2.0, 2.0)
    with pytest.raises(DomainError):
        odesolve.integrate(ODD_PIECEWISE, 1.0, 0.0, 1.5, 1.0, 0.0)


@pytest.mark.parametrize("p", [ODD_PIECEWISE, Potential.harmonic(1.0, 1.0)],
                         ids=["general", "even-half-pass"])
def test_propagate_rejects_endpoints_outside_domain(p):
    with pytest.raises(DomainError):
        odesolve.propagate(p, 1.0, -3.0, 3.0)
    with pytest.raises(DomainError):
        odesolve.propagate(p, 1.0, -1.0, 1.5)


def test_endpoints_at_a_within_evaluate_slack():
    # the slack Potential.evaluate allows at +-a is allowed here too
    p = Potential.zero(1.0)
    edge = 1.0 + 4e-16
    assert p.evaluate(edge) == 0.0
    t, _ = odesolve.propagate(p, 1.0, -edge, edge)
    assert abs(t[0, 0] - math.cos(2.0 * edge)) < 1e-12


# every kind at every energy, and at half-width 8, where V turns over many
# grid intervals, the wide cosine and harmonic potentials
MAGNUS_CASES = [(p, lam) for lam in (-5.0, 40.0, 400.0, 1j) for p in KINDS] + [
    (Potential.cosine(5.0, np.pi, 8.0), 10.0),
    (Potential.cosine(5.0, np.pi, 8.0), -3.0),
    (Potential.harmonic(25.0 / 64.0, 8.0), 5.0),
]


@pytest.mark.parametrize("p, lam", MAGNUS_CASES, ids=[
    f"{lam}-{p.kind}" + ("" if p.a == 1.0 else f"-a{p.a:g}") for p, lam in MAGNUS_CASES])
def test_magnus_propagate_matches_reference(p, lam):
    for x0, x1 in ((-p.a, p.a), (p.a, -p.a)):
        got = odesolve.propagate(p, lam, x0, x1, MAGNUS_RTOL)[0]
        assert _relative(got, oracles.reference_propagate(p, lam, x0, x1)) <= MAGNUS_RTOL


@pytest.mark.parametrize("p", KINDS, ids=lambda p: p.kind)
def test_magnus_integrate_matches_reference(p):
    for lam, (x0, x1) in ((3.0, (-1.0, 1.0)), (1j, (1.0, -1.0)), (1j, (0.0, 1.0))):
        got = odesolve.integrate(p, lam, x0, x1, 0.3, -1.1)
        want = oracles.reference_integrate(p, lam, x0, x1, 0.3, -1.1)
        assert np.array_equal(got.x, want.x) and got.segments == want.segments
        scale = max(1.0, np.max(np.abs(want.f)), np.max(np.abs(want.df)))
        assert np.max(np.abs(got.f - want.f)) <= MAGNUS_RTOL * scale
        assert np.max(np.abs(got.df - want.df)) <= MAGNUS_RTOL * scale


@pytest.mark.parametrize("lam", [-990.0, -5.0, 3.0, 400.0])
def test_deep_well_matches_piecewise_closed_form(lam):
    # depth -1000: the reference integrator itself errs by 5e-12 here, so the
    # exact product of the three constant-V pieces is the reference
    p = Potential.finite_well(-1000.0, 0.5, 1.0)
    outer, inner = _free_transfer(-lam, 0.5), _free_transfer(-1000.0 - lam, 1.0)
    exact = outer @ inner @ outer
    assert _relative(odesolve.propagate(p, lam, -1.0, 1.0, MAGNUS_RTOL)[0], exact) <= 1e-12
    outer, inner = _free_transfer(-lam, -0.5), _free_transfer(-1000.0 - lam, -1.0)
    back, _ = odesolve.propagate(p, lam, 1.0, -1.0, MAGNUS_RTOL)
    assert _relative(back, outer @ inner @ outer) <= 1e-12


@pytest.mark.parametrize("lam", [-990.0, -30.0, -1.0, 0.0, 2.5, 40.0, 400.0, 1j, 3.0 + 2.0j,
                                 1e4, 1e5, 4e5])
def test_zero_potential_matches_closed_form(lam):
    for x0, x1 in ((-1.0, 1.0), (1.0, -1.0)):
        exact = _free_transfer(-lam, x1 - x0)
        got, zeros = odesolve.propagate(P0, lam, x0, x1)
        assert _relative(got, exact) <= 1e-13
        if np.isreal(lam):
            # sin(k |x - x0|) / k has ceil(2k / pi) - 1 zeros inside: 63, 201 and 402 at
            # the top three energies, where a grid interval turns its phase by up to
            # 1.23, near the pi/2 that counting allows
            assert zeros == max(0, math.ceil(2.0 * math.sqrt(max(lam, 0.0)) / math.pi) - 1)


def test_batched_propagate_matches_single_energies():
    p = Potential.harmonic(25.0, 1.0)
    energies = np.linspace(-30.0, 60.0, 2 * odesolve.ENERGY_BLOCK + 3)
    batched, _ = odesolve.propagate(p, energies, -1.0, 1.0)
    assert batched.shape == (len(energies), 2, 2)
    for e, got in zip(energies, batched):
        assert _relative(got, odesolve.propagate(p, e, -1.0, 1.0)[0]) <= odesolve.DEFAULT_RTOL


def test_batched_fundamental_solutions_match_scalar_calls(monkeypatch):
    # blocks of 3 energies, so the batch crosses block edges; one complex
    # entry makes the whole batch complex
    monkeypatch.setattr(odesolve, "ENERGY_BLOCK", 3)
    p = Potential.piecewise([((-1.0, 0.0), [0.0, 2.0]), ((0.0, 1.0), [-3.0])], 1.0)
    lams = np.array([-4.0, -0.5, 1.0 + 0.5j, 3.0, 12.0, 40.0, 150.0])
    pairs = odesolve.fundamental_solutions(p, lams, -1.0, 1.0)
    assert len(pairs) == len(lams)
    for lam, pair in zip(lams, pairs):
        single = odesolve.fundamental_solutions(p, lam, -1.0, 1.0)
        assert isinstance(single, tuple) and len(single) == 2
        assert (single[0].f0, single[0].df0, single[1].f0, single[1].df0) == (1, 0, 0, 1)
        for u, w in zip(pair, single):
            assert odesolve._same_grid(u, w) and u.lam == w.lam == lam
            assert (u.f0, u.df0) == (w.f0, w.df0)
            for got, want in ((u.f, w.f), (u.df, w.df)):
                assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_propagate_keeps_no_state_between_calls():
    # every call chooses its step levels afresh from its own energies: a
    # repeated call returns the same bits, also after a call whose higher
    # energies end at finer steps than these need
    p = Potential.harmonic(25.0, 1.0)
    energies = np.linspace(-30.0, 400.0, 3 * odesolve.ENERGY_BLOCK + 5)
    first_t, first_zeros = odesolve.propagate(p, energies, -1.0, 1.0)
    for other in (None, np.linspace(1e3, 1e4, 2 * odesolve.ENERGY_BLOCK)):
        if other is not None:
            odesolve.propagate(p, other, -1.0, 1.0)
        t, zeros = odesolve.propagate(p, energies, -1.0, 1.0)
        assert np.array_equal(t, first_t) and np.array_equal(zeros, first_zeros)


def test_every_energy_block_is_stepped_as_a_call_on_it_alone():
    # a batch of several ENERGY_BLOCKs returns, block by block, the bits of
    # separate calls: no step level carries from one block to the next
    p = Potential.cosine(5.0, np.pi, 8.0)
    energies = np.linspace(-6.0, 10.0, 3 * odesolve.ENERGY_BLOCK)
    blocks = np.split(energies, 3)
    for x0 in (-8.0, 0.0):  # the half pass of an even V, and a plain pass
        for rtol in (1e-7, odesolve.DEFAULT_RTOL):
            t, zeros = odesolve.propagate(p, energies, x0, 8.0, rtol)
            parts = [odesolve.propagate(p, block, x0, 8.0, rtol) for block in blocks]
            assert _same_bits(t, np.concatenate([part[0] for part in parts]))
            assert _same_bits(zeros, np.concatenate([part[1] for part in parts]))
    pairs = odesolve.fundamental_solutions(p, energies, 0.0, 8.0)
    alone = [pair for block in blocks for pair in odesolve.fundamental_solutions(p, block, 0.0, 8.0)]
    assert all(_same_bits(u.f, w.f) and _same_bits(u.df, w.df)
               for pair, single in zip(pairs, alone) for u, w in zip(pair, single))
    # x, T from -a, T from a, S and dS/dE
    whole = odesolve._edge_transfers(p, energies)
    parts = [odesolve._edge_transfers(p, block) for block in blocks]
    assert _same_bits(whole[0], parts[0][0])
    for i in range(1, 5):
        assert _same_bits(whole[i], np.concatenate([part[i] for part in parts]))


def _tilted():
    return Potential.piecewise([((-1.0, 0.0), [0.0, 2.0]), ((0.0, 1.0), [-3.0])], 1.0)


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("make", [lambda: Potential.harmonic(25.0, 1.0), _tilted],
                         ids=["even", "tilted"])
def test_step_plan_keeps_no_call_history(make):
    # the step plan a Potential keeps holds nothing that depends on energy or
    # on earlier calls: after other energies, both rtols, both directions, the
    # boundary-data pass and the dense pass, every result has the bits of a
    # fresh, equal potential's
    used = make()
    before = (repr(used), used.to_json())
    for lams in (np.linspace(-30.0, 400.0, 40), np.array([1e3, 5e3]), np.array([1j, 2.0 + 3.0j])):
        for rtol in (1e-7, odesolve.DEFAULT_RTOL):
            for x0 in (-1.0, 1.0):
                odesolve.propagate(used, lams, x0, -x0, rtol)
    odesolve._edge_transfers(used, np.array([-7.0, 150.0]))
    for x0 in (-1.0, 1.0):
        odesolve.fundamental_solutions(used, np.array([2.0, 1j]), x0, -x0)
    odesolve.fundamental_solutions(used, 2.0, -1.0, -0.0)  # its grid ends at -0.0

    energies = np.array([-7.0, 2.0, 17.3, 150.0])
    for x0 in (-1.0, 1.0):
        for rtol in (1e-7, odesolve.DEFAULT_RTOL):
            got, want = (odesolve.propagate(q, energies, x0, -x0, rtol) for q in (used, make()))
            assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    # x, T from -a, T from a, S and dS/dE
    got, want = (odesolve._edge_transfers(q, energies) for q in (used, make()))
    assert len(got) == 5 and all(_same_bits(g, w) for g, w in zip(got, want))
    got, want = (odesolve.fundamental_solutions(q, 2.0, -1.0, 0.0)[0] for q in (used, make()))
    assert _same_bits(got.x, want.x) and _same_bits(got.f, want.f)

    pieces = [piece for plan in used._plans.values() for piece in plan]
    assert pieces and all(not piece.grid.flags.writeable for piece in pieces)
    samples = [m for piece in pieces for _, *arrays in piece._levels.values() for m in arrays]
    assert len(samples) >= 8 and not any(m.flags.writeable for m in samples)
    assert used == make() and (repr(used), used.to_json()) == before


def test_step_plan_shared_between_threads(monkeypatch):
    # threads that share a potential may build one span's plan or level at
    # once, and with room for only 2 plans, spans push each other out; each
    # build is equal, so every result keeps the bits of a fresh potential's
    monkeypatch.setattr(odesolve, "_MAX_PLANS", 2)
    jobs = [(lams, x0, x1) for lams in (np.array([2.0, 40.0]), np.array([-7.0, 150.0]), 1j)
            for x0, x1 in ((-1.0, 1.0), (1.0, -1.0), (0.0, 1.0))]
    want = [odesolve.propagate(_tilted(), *job) for job in jobs]
    shared, got = _tilted(), [[] for _ in jobs]

    def work(i):
        for _ in range(20):
            got[i].append(odesolve.propagate(shared, *jobs[i]))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    for results, (want_t, want_zeros) in zip(got, want):
        assert len(results) == 20
        for t, zeros in results:
            assert _same_bits(np.asarray(t), np.asarray(want_t))
            assert np.array_equal(zeros, want_zeros)


def test_step_plan_keeps_no_fine_level_samples():
    # a pass that refines down to MAX_HALVINGS before it gives up leaves the
    # plan no larger than the levels up to 1 take: under 4 steps per grid
    # interval, of 16 bytes each.  A finer level is sampled chunk by chunk,
    # with the bits of sampling it whole
    wild = Potential.cosine(1e3, 1e5, 1.0)
    for x0 in (-1.0, 0.0):
        with pytest.raises(IntegrationError):
            odesolve.propagate(wild, 3.0, x0, 1.0)
    pieces = [piece for plan in wild._plans.values() for piece in plan]
    top = odesolve._PLAN_TOP_LEVEL
    assert pieces and all(max(piece._levels) <= top for piece in pieces)
    size = sum(piece.grid.nbytes + sum(m.nbytes for _, *arrays in piece._levels.values()
                                       for m in arrays) for piece in pieces)
    assert size <= sum(64 * (len(piece.grid) - 1) + piece.grid.nbytes for piece in pieces)

    piece, k = pieces[0], odesolve.MAX_HALVINGS
    whole = odesolve._gauss_samples(piece.vfun, piece.grid, k)
    n = odesolve._step_count(piece.grid, k)
    assert n > 2 * odesolve.STEP_CHUNK
    for cut in (slice(0, odesolve.STEP_CHUNK), slice(n - 1000, n)):
        h, vbar, d = piece.samples(k, cut)
        assert h == whole[0] and _same_bits(vbar, whole[1][cut]) and _same_bits(d, whole[2][cut])
    assert max(piece._levels) <= top


@pytest.mark.parametrize("k", [-3, 0, odesolve.MAX_HALVINGS - 1])
@pytest.mark.parametrize("lams", [np.array([-20.0, 3.0, 150.0]), np.array([1j, 2.0 - 1.0j])],
                         ids=["real", "complex"])
def test_two_level_step_evaluation_matches_one_level_calls(k, lams):
    # at k = MAX_HALVINGS - 1 both levels run over many STEP_CHUNKs of steps
    piece = odesolve._step_plan(Potential.harmonic(25.0, 1.0), -1.0, 1.0)[0]
    pair = odesolve._interval_transfers(piece, lams, (k, k + 1))
    coarse, fine = (odesolve._interval_transfers(piece, lams, (j,)) for j in (k, k + 1))
    if k < 0:  # steps of level k + 1, paired into steps of level k
        fine = odesolve._blocks(fine, 1)
    if k == odesolve.MAX_HALVINGS - 1:
        assert (len(piece.grid) - 1) << (k + 1) >= 8 * odesolve.STEP_CHUNK
    assert _same_bits(pair[..., :1, :, :], coarse) and _same_bits(pair[..., 1:, :, :], fine)


def test_scalar_lam_returns_one_matrix():
    assert odesolve.propagate(P0, 1.0, -1.0, 1.0)[0].shape == (2, 2)
    assert odesolve.propagate(P0, 1j, -1.0, 1.0)[0].shape == (2, 2)
    assert odesolve.propagate(P0, [1.0], -1.0, 1.0)[0].shape == (1, 2, 2)


def _cosh_sinhc_series(z, terms=30):
    """cosh(sqrt z) - 1 and sinh(sqrt z)/sqrt z from their Taylor series."""
    return (sum(z ** n / math.factorial(2 * n) for n in range(1, terms)),
            sum(z ** n / math.factorial(2 * n + 1) for n in range(terms)))


def test_cosh_sinhc_forms_agree_and_carry_the_complex_step_slope():
    # the complex branch sums the power series where |z| < 1/2 and goes
    # through sqrt z elsewhere: just inside and just outside that circle
    # both forms agree
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    for r in (0.5 * (1.0 - 1e-12), 0.5 * (1.0 + 1e-12)):
        z = r * np.exp(1j * theta)
        for zj, *got in zip(z.tolist(), *odesolve._cosh_sinhc(z)):
            root = cmath.sqrt(zj)
            closed = 2.0 * cmath.sinh(0.5 * root) ** 2, cmath.sinh(root) / root
            for want in (closed, _cosh_sinhc_series(zj)):
                assert all(abs(g - w) <= 1e-15 * abs(w) for g, w in zip(got, want))
    # on the real axis the complex branch gives the real branch's values
    x = np.r_[np.linspace(-40.0, 40.0, 8001), 0.0, -0.0, 1e-300, -1e-300,
              np.nextafter(0.5, 0.0), -np.nextafter(0.5, 0.0)]
    cm1, sinhc = odesolve._cosh_sinhc(x)
    for got, want in zip(odesolve._cosh_sinhc(x + 0j), (cm1, sinhc)):
        assert not np.any(got.imag)
        assert np.all(np.abs(got.real - want) <= 1e-15 * np.abs(want))
    # and a complex step's Im f(x + i eps)/eps is f'(x): d(cosh - 1)/dz =
    # sinhc/2, and d sinhc/dz = (1 + cm1 - sinhc)/2z, summed where it does
    # not cancel
    eps = odesolve._SLOPE_STEP
    step_cm1, step_sinhc = odesolve._cosh_sinhc(x + 1j * eps)
    assert np.all(np.abs(step_cm1.imag / eps - 0.5 * sinhc) <= 2e-15 * np.abs(0.5 * sinhc))
    far = np.abs(x) >= 0.5
    terms = np.abs(1.0 + cm1[far]) + np.abs(sinhc[far])
    slope = (1.0 + cm1[far] - sinhc[far]) / (2.0 * x[far])
    assert np.all(np.abs(step_sinhc.imag[far] / eps - slope)
                  <= 4e-15 * terms / (2.0 * np.abs(x[far])))


def _four_entry_mul(left, right):
    """(I + L)(I + R) - I entry by entry, summed in _mul's order."""
    (a, b), (c, d) = left
    (e, f), (g, h) = right
    return np.array([[a + e + (a * e + b * g), b + f + (a * f + b * h)],
                     [c + g + (c * e + d * g), d + h + (c * f + d * h)]])


@pytest.mark.parametrize("dtype", [float, complex])
def test_stacked_mul_matches_four_entry_formula_bitwise(dtype):
    # half the real and imaginary parts are +-0.0; tobytes tells -0.0 from 0.0
    rng = np.random.default_rng(3)

    def draw(shape):
        m = np.zeros((2, 2, *shape), dtype)
        for part in (m.real, m.imag) if dtype is complex else (m,):
            x = rng.standard_normal(m.shape) * 10.0 ** rng.integers(-12, 3, m.shape)
            zero = rng.random(m.shape) < 0.5
            x[zero] = np.copysign(0.0, rng.standard_normal(zero.sum()))
            part[...] = x
        return m

    left, right = draw((16, 16)), draw((16, 16))
    got, want = odesolve._mul(left, right), _four_entry_mul(left, right)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert any(np.any(np.signbit(x) & (x == 0.0)) for x in (got.real, got.imag))


def test_tree_products_match_matmul():
    # 37 factors: every round of _blocks and _prefix leaves an odd last block
    rng = np.random.default_rng(8)
    steps = 0.2 * (rng.standard_normal((2, 2, 3, 37)) + 1j * rng.standard_normal((2, 2, 3, 37)))
    factors = np.moveaxis(steps, (0, 1), (-2, -1)) + np.eye(2)  # (energy, factor, 2, 2)

    def matmul_product(lo, hi):  # factors lo..hi-1, applied left to right
        out = np.broadcast_to(np.eye(2), (3, 2, 2))
        for j in range(lo, hi):
            out = factors[:, j] @ out
        return out

    def as_matrices(t):
        return np.moveaxis(t, (0, 1), (-2, -1)) + np.eye(2)

    want = np.stack([matmul_product(0, j + 1) for j in range(37)], axis=1)
    assert _relative(as_matrices(odesolve._prefix(steps)), want) <= 1e-13
    for rounds in range(7):
        size = 2 ** rounds
        want = np.stack([matmul_product(lo, min(lo + size, 37)) for lo in range(0, 37, size)],
                        axis=1)
        assert _relative(as_matrices(odesolve._blocks(steps, rounds)), want) <= 1e-13


def test_observed_order_is_four():
    # a coarse 32-interval grid keeps both errors far above roundoff
    p = Potential.harmonic(25.0, 1.0)
    piece = odesolve._Piece(p.piece_callable(-1.0, 1.0), np.linspace(-1.0, 1.0, 33))
    lams = np.array([10.0])

    def transfer(halvings):
        steps = odesolve._interval_transfers(piece, lams, (halvings,))[:, :, 0]
        return odesolve._blocks(steps, 5)  # the product over all 32 intervals

    fine, finer = transfer(6), transfer(7)
    exact = finer + (finer - fine) / 15.0
    ratio = np.max(np.abs(transfer(0) - exact)) / np.max(np.abs(transfer(1) - exact))
    assert 12.0 <= ratio <= 20.0


def test_unresolved_potential_raises_after_max_halvings():
    # about 30 periods of a strong V per grid interval: even 2**MAX_HALVINGS
    # steps per interval leave too few per period to meet the tolerance
    wild = Potential.cosine(1e3, 1e5, 1.0)
    with pytest.raises(IntegrationError) as info:
        odesolve.propagate(wild, 3.0, -1.0, 1.0)
    assert info.value.x_fail == -1.0


def test_thick_barrier_transfer_meets_tolerance():
    # near the ground level 1.25 the product over the piece passes through ~1e4
    # and cancels back to ~5, so its rounding error sits above rtol * max(1, |T|)
    p = Potential.harmonic(25.0 / 16.0, 4.0)
    energies = np.linspace(1.25 - 1e-7, 1.25 + 1e-7, 123)
    transfer, zeros = odesolve.propagate(p, energies, -4.0, 4.0)
    assert np.abs(np.linalg.det(transfer) - 1.0).max() <= 1e-6
    # u2 gains its first zero at the Dirichlet ground level (collocation, 6.3e-14)
    assert np.array_equal(zeros, (energies > 1.2500000253).astype(int))


@pytest.mark.parametrize("p", KINDS, ids=lambda p: p.kind)
def test_propagate_counts_zeros_of_u2(p):
    energies = np.array([-5.0, 3.0, 40.0, 400.0])
    _, zeros = odesolve.propagate(p, energies, -1.0, 1.0)
    for e, count in zip(energies, zeros):
        u2 = odesolve.integrate(p, e, -1.0, 1.0, 0.0, 1.0).f.real[1:]
        assert count == np.sum(u2[1:] * u2[:-1] < 0)


def even_kinds(a):
    """One potential of every even kind on [-a, a], shaped alike at every a."""
    return [
        Potential.zero(a),
        Potential.harmonic(25.0 / a ** 2, a),
        Potential.finite_well(-10.0, 0.5 * a, a),
        Potential.cosine(5.0, np.pi, a),
        Potential.polynomial([1.0, 0.0, -3.0 / a ** 2, 0.0, 2.0 / a ** 4], a),
        Potential.piecewise([((-a, -0.5 * a), [3.0]), ((-0.5 * a, 0.5 * a), [-1.0, 0.0, 4.0 / a ** 2]),
                             ((0.5 * a, a), [3.0])], a),
    ]


PARITY_CASES = [(p, p.a, shift) for a in (1.0, 8.0) for p in even_kinds(a) for shift in (-2.0, 30.0)]


@pytest.mark.parametrize("p, a, shift", PARITY_CASES, ids=[
    f"{p.kind}-a{a:g}-{'below' if shift < 0 else 'above'}" for p, a, shift in PARITY_CASES])
def test_even_potential_transfer_matches_two_direct_halves(p, a, shift):
    # the pass over [0, a] and its reflection give what two direct passes do,
    # below min V, where every solution grows, and above it
    assert p.is_even()
    lam = np.min(p.piece_callable(-a, a)(np.linspace(-a, a, 2049))) + shift
    for x0, x1 in ((-a, a), (a, -a)):
        got, zeros = odesolve.propagate(p, lam, x0, x1)
        (inner, _), (outer, _) = (odesolve.propagate(p, lam, x0, 0.0),
                                  odesolve.propagate(p, lam, 0.0, x1))
        assert _relative(got, outer @ inner) <= odesolve.DEFAULT_RTOL
        assert zeros == odesolve.propagate(p, lam, -a, a)[1]


@pytest.mark.parametrize("a", [1.0, 8.0])
def test_even_zero_count_is_the_dirichlet_count_of_the_free_particle(a):
    # sin k(x + a)/k has a zero inside (-a, a) for each level (n pi / 2a)^2 below E;
    # the half pass counts the zeros of cos kx and sin kx / k on (0, a)
    energies = np.linspace(-5.0, 400.0, 1999)
    for x0, x1 in ((-a, a), (a, -a)):
        _, zeros = odesolve.propagate(Potential.zero(a), energies, x0, x1)
        below = np.floor(2.0 * a * np.sqrt(np.maximum(energies, 0.0)) / np.pi)
        assert np.array_equal(zeros, below)


def test_even_zero_count_is_the_dirichlet_count_of_the_harmonic_well():
    # one probe below the ground level and one between each pair of levels
    p = Potential.harmonic(25.0, 1.0)
    levels = oracles.fd_dirichlet_levels(lambda x: 25.0 * x * x, 12)
    probes = np.r_[levels[0] - 1.0, 0.5 * (levels[1:] + levels[:-1])]
    for x0, x1 in ((-1.0, 1.0), (1.0, -1.0)):
        _, zeros = odesolve.propagate(p, probes, x0, x1)
        assert zeros.tolist() == list(range(len(probes)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_even_transfer_that_overflows_raises():
    # the half pass stays finite near e^374, its square does not: the composed
    # T fails as the direct pass over [-1, 1] would
    lam = -1.4e5
    assert np.all(np.isfinite(odesolve.propagate(P0, lam, 0.0, 1.0)[0]))
    for x0, x1 in ((-1.0, 1.0), (1.0, -1.0)):
        with pytest.raises(IntegrationError, match="overflowed") as info:
            odesolve.propagate(P0, lam, x0, x1)
        assert info.value.x_fail == 0.0


def test_half_pass_failure_carries_where_the_direct_pass_enters():
    # the wild cosine fails on its one piece, entered at -1 from -1 and at 1 from 1
    wild = Potential.cosine(1e3, 1e5, 1.0)
    for x0 in (-1.0, 1.0):
        with pytest.raises(IntegrationError) as info:
            odesolve.propagate(wild, 3.0, x0, -x0)
        assert info.value.x_fail == x0


def test_propagate_rejects_a_grid_too_coarse_to_count_zeros():
    # at E = 7e5 a solution turns by h sqrt(E) = 1.6 rad over one grid
    # interval (a/512), more than the pi/2 a counted block may hold
    with pytest.raises(IntegrationError, match="grid too coarse to count zeros"):
        odesolve.propagate(P0, 7e5, -1.0, 1.0)


TILTED = Potential.piecewise([((-1.0, 0.0), [0.0, 2.0]), ((0.0, 1.0), [-3.0])], 1.0)


EDGE_CASES = [Potential.harmonic(25.0, 1.0), TILTED, Potential.cosine(5.0, np.pi, 1.0),
              Potential.cosine(5.0, np.pi, 8.0)]


@pytest.mark.parametrize("p", EDGE_CASES,
                         ids=["even-half-pass", "tilted", "cosine-a1", "cosine-a8"])
@pytest.mark.parametrize("x0", [-1.0, 1.0])
def test_edge_transfers_carry_the_energy_slope(p, x0):
    # each block's dS/dE against a Richardson central difference of S, and
    # T from the end x0 * a.  An even V steps [0, a] only and mirrors its
    # blocks onto [-a, 0]
    energies = np.array([-7.0, 2.0, 17.3, 150.0])
    x, left, right, s, ds = odesolve._edge_transfers(p, energies)
    assert x[0] == -p.a and x[-1] == p.a
    assert np.all(np.diff(x) > 0) and np.all(np.diff(x) <= p.a * (1.0 / 32 + 1e-15))
    assert left.shape == right.shape == (len(energies), len(x), 2, 2)
    assert s.shape == ds.shape == (len(energies), len(x) - 1, 2, 2)

    def slope(h):
        return (odesolve._edge_transfers(p, energies + h)[3]
                - odesolve._edge_transfers(p, energies - h)[3]) / (2.0 * h)
    want = (4.0 * slope(0.05) - slope(0.1)) / 3.0
    scale = np.max(np.abs(ds), axis=(1, 2, 3))
    assert np.all(np.max(np.abs(ds - want), axis=(1, 2, 3)) <= 1e-8 * scale)
    # T from -a is the running product of the blocks, and T from a that of
    # their inverses, so S T(end -> x_i) = T(end -> x_i+1) for both; each is
    # I at its own end
    end, t = x0 * p.a, (left if x0 < 0 else right)
    assert np.max(np.abs(s @ t[:, :-1] - t[:, 1:])) <= 1e-12 * np.max(np.abs(t))
    own = 0 if x0 < 0 else -1
    assert np.array_equal(t[:, own], np.broadcast_to(np.eye(2), t[:, own].shape))
    # against propagate's T from that end at every other edge
    for i in range(len(x)):
        if x[i] != end:
            whole = odesolve.propagate(p, energies, end, x[i])[0]
            assert np.all(np.max(np.abs(t[:, i] - whole), axis=(1, 2))
                          <= 1e-12 * np.max(np.abs(whole), axis=(1, 2)))


def _free_block(energy, length):
    """S and dS/dE over a block of V = 0: S = [[c, L s], [-E L s, c]] with
    c = cosh sqrt u = cos(sqrt E L) and s = sinh sqrt u / sqrt u for
    u = -E L^2, du/dE = -L^2, dc/du = s/2 and ds/du = (c - s)/2u."""
    u = -energy * length ** 2
    if abs(u) < 1.0:  # Taylor series, where (c - s)/2u cancels
        cm1, s = _cosh_sinhc_series(u)
        c = 1.0 + cm1
        ds = sum(n * u ** (n - 1) / math.factorial(2 * n + 1) for n in range(1, 30))
    else:
        root = cmath.sqrt(u)
        c, s = cmath.cosh(root).real, (cmath.sinh(root) / root).real
        ds = (c - s) / (2.0 * u)
    return (np.array([[c, length * s], [-energy * length * s, c]]),
            np.array([[-0.5 * length ** 2 * s, -length ** 3 * ds],
                      [-length * s + energy * length ** 3 * ds, -0.5 * length ** 2 * s]]))


@pytest.mark.parametrize("a", [1.0, 8.0])
def test_edge_transfer_slopes_match_the_free_closed_form(a):
    # V = 0: every block's S and dS/dE against the closed form, also at and
    # next to E = 0, where going through sqrt z would round the complex
    # step's Im z away
    energies = np.array([-900.0, -7.0, -1e-9, 0.0, 1e-9, 2.0, 17.3, 150.0, 1e4])
    x, _, _, s, ds = odesolve._edge_transfers(Potential.zero(a), energies)
    for i, energy in enumerate(energies.tolist()):
        for j, length in enumerate(np.diff(x).tolist()):
            want, dwant = _free_block(energy, length)
            assert np.max(np.abs(s[i, j] - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.max(np.abs(ds[i, j] - dwant)) <= 1e-13 * np.max(np.abs(dwant))


@pytest.mark.parametrize("p", [p for p in EDGE_CASES if p.is_even()],
                         ids=["harmonic-a1", "cosine-a1", "cosine-a8"])
def test_edge_transfers_from_a_mirror_those_from_minus_a_for_an_even_v(p):
    # with P = diag(1, -1), T(a -> x) = P T(-a -> -x) P bit for bit: the
    # product from a multiplies the sign-flipped factors of the product from
    # -a in the same order, and a sign flip rounds nothing
    x, left, right, _, _ = odesolve._edge_transfers(p, np.array([-7.0, 2.0, 17.3, 150.0]))
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(right, left[:, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]]))
