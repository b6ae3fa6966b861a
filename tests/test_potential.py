"""Potential construction, evaluation and parity checks."""

import numpy as np
import pytest

from saext.errors import DomainError, PotentialError
from saext.potential import Potential


def test_zero_potential_evaluates_to_zero():
    p = Potential.zero(1.0)
    assert p.evaluate(0.5) == 0.0


def test_harmonic_is_x_squared():
    p = Potential.harmonic(1.0, 1.0)
    assert p.evaluate(0.5) == 0.25


def test_finite_well_piecewise_values():
    p = Potential.finite_well(-10.0, 0.5, 1.0)
    assert p.evaluate(0.75) == 0.0
    assert p.evaluate(0.25) == -10.0


def test_finite_well_right_continuous_at_breakpoints():
    p = Potential.finite_well(-10.0, 0.5, 1.0)
    # right limits: inside just right of -0.5, outside just right of +0.5
    assert p.evaluate(-0.5) == -10.0
    assert p.evaluate(0.5) == 0.0


def test_evaluate_is_pure():
    p = Potential.cosine(1.3, np.pi, 1.0)
    assert p.evaluate(0.37) == p.evaluate(0.37)


def test_evaluate_rejects_out_of_domain():
    p = Potential.zero(1.0)
    for x in (1.5, np.nan):
        with pytest.raises(DomainError):
            p.evaluate(x)


@pytest.mark.parametrize("p", [
    Potential.zero(2.0),
    Potential.harmonic(1.0, 1.0),
    Potential.cosine(1.0, np.pi, 1.0),
    Potential.finite_well(-10.0, 0.5, 1.0),
    Potential.polynomial([1.0, 0.0, 3.0], 1.0),
    # mirrored jumps at x = -1/2 and x = 1/2: the right limits there lie on
    # opposite sides of the jump, so the check must not sample at them
    pytest.param(Potential.piecewise([((-1.0, -0.5), [3.0]), ((-0.5, 0.5), [-1.0, 0.0, 4.0]),
                                      ((0.5, 1.0), [3.0])], 1.0), id="piecewise-jumps-on-grid"),
    # the same V split once more at 0.2, a breakpoint without a mirror
    pytest.param(Potential.piecewise([((-1.0, -0.5), [3.0]), ((-0.5, 0.2), [-1.0, 0.0, 4.0]),
                                      ((0.2, 0.5), [-1.0, 0.0, 4.0]), ((0.5, 1.0), [3.0])], 1.0),
                 id="piecewise-unmirrored-breakpoint"),
])
def test_even_kinds_pass_parity_check(p):
    assert p.is_even()


def test_zero_is_even_at_tol_zero():
    assert Potential.zero(2.0).is_even()


def test_linear_polynomial_is_not_even():
    assert not Potential.polynomial([0.0, 1.0], 1.0).is_even()


def test_piecewise_even_by_sampling():
    p = Potential.piecewise([((-1.0, 0.3), [2.0]), ((0.3, 1.0), [2.0])], 1.0)
    assert p.is_even()  # constant despite the asymmetric breakpoint


def test_piecewise_requires_full_cover():
    with pytest.raises(PotentialError):
        Potential.piecewise([((-1.0, 0.0), [1.0])], 1.0)


def test_rejects_nonpositive_half_width():
    with pytest.raises(PotentialError):
        Potential.zero(-1.0)
    with pytest.raises(PotentialError, match="positive and finite"):
        Potential.zero(np.inf)


def piecewise_descriptor(*pieces):
    return {"kind": "piecewise", "a": 1.0, "params": {"pieces": list(pieces)}}


def test_rejects_nonfinite_values():
    with pytest.raises(PotentialError):
        Potential.harmonic(np.inf, 1.0)
    with pytest.raises(PotentialError):
        Potential.polynomial([np.nan], 1.0)
    for descriptor in (
        {"kind": "harmonic", "a": 1.0, "params": {"coefficient": [1.0, 2.0]}},  # not a scalar
        {"kind": "cosine", "a": 1.0, "params": {"amplitude": "big", "wavenumber": 1.0}},
        {"kind": "finite-well", "a": 1.0, "params": {"depth": -1.0, "half_width": 1.5}},
        {"kind": "polynomial", "a": 1.0, "params": {"coefficients": []}},
        {"kind": "polynomial", "a": 1.0, "params": {"coefficients": ["x", 1.0]}},
        {"kind": "polynomial", "a": 1.0, "params": {"coefficients": 2.0}},
        piecewise_descriptor({"interval": [-1.0, 1.0], "coefficients": []}),
        piecewise_descriptor({"interval": [-1.0, 1.0], "coefficients": [None]}),
        piecewise_descriptor({"interval": [-1.0, 0.0, 1.0], "coefficients": [1.0]}),
        piecewise_descriptor({"interval": [-1.0], "coefficients": [1.0]}),
        piecewise_descriptor({"interval": [-1.0, 1.0]}),
        piecewise_descriptor([-1.0, 1.0]),
        {"kind": "piecewise", "a": 1.0, "params": {"pieces": []}},
        {"kind": "piecewise", "a": 1.0, "params": {"pieces": None}},  # not a TypeError
        {"kind": ["zero"], "a": 1.0},
        {"kind": "zero", "a": None},
        {"kind": "zero", "a": 1.0, "params": None},
        [1.0, 2.0],
        # a number is a JSON number: not a boolean, not a numeric string
        {"kind": "zero", "a": True},
        {"kind": "finite-well", "a": "2", "params": {"depth": -10.0, "half_width": 0.5}},
        {"kind": "finite-well", "a": 2.0, "params": {"depth": "-10", "half_width": "0.5"}},
        {"kind": "harmonic", "a": 1.0, "params": {"coefficient": True}},
        {"kind": "polynomial", "a": 1.0, "params": {"coefficients": [1.0, False]}},
        piecewise_descriptor({"interval": [-1.0, True], "coefficients": [1.0]}),
    ):
        with pytest.raises(PotentialError):
            Potential.from_json(descriptor)


@pytest.mark.parametrize("descriptor, key", [
    ({"kind": "zero", "a": 1.0, "params": {"bogus": 3.0}}, "bogus"),
    ({"kind": "harmonic", "a": 1.0, "params": {"coefficient": 1.0, "depth": 2.0}}, "depth"),
])
def test_rejects_parameters_the_kind_does_not_take(descriptor, key):
    with pytest.raises(PotentialError, match=repr(key)):
        Potential.from_json(descriptor)


def test_finite_well_as_wide_as_the_interval_is_one_constant_piece():
    p = Potential.finite_well(-10.0, 1.0, 1.0)
    assert p.breakpoints() == () and p.is_even()
    assert [p.evaluate(x) for x in (-1.0, 0.0, 1.0)] == [-10.0] * 3


@pytest.mark.parametrize("half_width", [1.5, 0.0, -0.5])
def test_finite_well_half_width_outside_zero_to_a_is_rejected(half_width):
    with pytest.raises(PotentialError, match="half_width"):
        Potential.finite_well(-10.0, half_width, 1.0)


# one potential per kind: (V, its breakpoints, (left, right) limits at each)
EVERY_KIND = [
    (Potential.zero(2.0), (), ()),
    (Potential.finite_well(-10.0, 0.5, 1.0), (-0.5, 0.5), ((0.0, -10.0), (-10.0, 0.0))),
    (Potential.harmonic(1.0, 1.0), (), ()),
    (Potential.cosine(1.3, np.pi, 1.0), (), ()),
    (Potential.polynomial([0.5, 1.0, -2.0], 1.0), (), ()),
    (Potential.piecewise([((-1.0, 0.0), [0.0]), ((0.0, 1.0), [1.0, 2.0])], 1.0), (0.0,),
     ((0.0, 1.0),)),
]


@pytest.mark.parametrize("p, edges, limits", EVERY_KIND, ids=[p.kind for p, _, _ in EVERY_KIND])
def test_breakpoints_of_well_and_piecewise(p, edges, limits):
    assert p.breakpoints() == edges


@pytest.mark.parametrize("p, edges, limits", EVERY_KIND, ids=[p.kind for p, _, _ in EVERY_KIND])
def test_piece_callable_uses_left_limit_at_segment_end(p, edges, limits):
    bounds = (-p.a, *edges, p.a)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        piece = p.piece_callable(lo, hi)
        for x in np.linspace(lo, hi, 9)[1:-1]:
            assert p.evaluate(x) == piece(np.array([x]))[0]
    for k, (x, (left, right)) in enumerate(zip(edges, limits)):
        assert p.piece_callable(bounds[k], x)(np.array([x]))[0] == left
        assert p.evaluate(x) == right


def test_sup_norm():
    assert Potential.finite_well(-10.0, 0.5, 1.0).sup_norm() == 10.0
    assert abs(Potential.harmonic(2.0, 1.0).sup_norm() - 2.0) < 1e-12


def test_sup_norm_is_made_once_from_513_samples_per_piece(monkeypatch):
    # the largest |V| over 513 evenly spaced points of each piece, ends
    # included (the left limit at a jump from the left piece), made on
    # construction: sup_norm samples no V
    p = Potential.piecewise([((-2.0, 0.3), [2.0, 1.0, -5.0]), ((0.3, 2.0), [2.0])], 2.0)
    want = max(np.max(np.abs(np.polynomial.polynomial.polyval(np.linspace(lo, hi, 513), cs)))
               for (lo, hi), cs in (((-2.0, 0.3), [2.0, 1.0, -5.0]), ((0.3, 2.0), [2.0])))
    monkeypatch.setattr(Potential, "piece_callable", lambda *args: pytest.fail("V sampled"))
    assert p.sup_norm() == want == 20.0


def test_json_round_trip():
    p = Potential.finite_well(-10.0, 0.5, 1.0)
    q = Potential.from_json(p.to_json())
    assert q == p
    descriptor = p.to_json()
    assert descriptor["kind"] == "finite-well"
    assert descriptor["a"] == 1.0
    assert set(descriptor) == {"kind", "a", "params"}


def test_from_json_missing_field():
    with pytest.raises(PotentialError):
        Potential.from_json({"kind": "zero"})


@pytest.mark.parametrize("pieces, message", [
    ([((-1.0, -0.5), [0.0]), ((0.0, 1.0), [1.0])], "pieces must tile"),
    ([((-1.0, -1.0), [0.0]), ((-1.0, 1.0), [1.0])], "empty piece interval"),
], ids=["gap", "empty-interval"])
def test_piecewise_rejects_pieces_that_do_not_tile(pieces, message):
    with pytest.raises(PotentialError, match=message):
        Potential.piecewise(pieces, 1.0)


@pytest.mark.parametrize("a", [True, "2", None])
def test_from_json_names_a_half_width_that_is_not_a_number(a):
    with pytest.raises(PotentialError, match=r"^a must be numeric"):
        Potential.from_json({"kind": "zero", "a": a})
