"""Bounded real potentials V(x) on a symmetric interval [-a, a].

Units are fixed to hbar = 2m = 1 so the operator reads -d^2/dx^2 + V(x).
Supported shapes: zero, square finite well, harmonic c*x^2, cosine,
polynomial, and piecewise polynomial.  All values are finite by
construction; distributional potentials (delta spikes) cannot be
expressed.

Each kind is lowered once, on construction, to a tuple of (lo, hi, V)
pieces that tiles [-a, a], with V vectorized and smooth on its piece.
One table, ``_KINDS``, gives per kind the required parameters and the
lowering.  Validation, evaluation, the breakpoints, the parity check (one
node test for every kind), the sup norm (both made once, on construction)
and the integrator's V are all read from the pieces.
Evaluation at an interior jump uses the right-limit value so results are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError, PotentialError
from .jsonio import _real

# Gauss-Legendre nodes on (-1, 1) for the parity check; on each piece of a
# polynomial V of degree < 32 the odd part V(x) - V(-x) vanishes at all
# of them only if it vanishes identically
_PARITY_NODES = np.polynomial.legendre.leggauss(32)[0]
_PARITY_TOL = 1e-12  # largest |V(x) - V(-x)| at those nodes of an even V


def _numbers(name, value, ndim):
    """value as floats, checked to be a finite JSON number (ndim 0) or a
    non-empty list of them (ndim 1); booleans and strings are not numbers."""
    if ndim and not (isinstance(value, (list, tuple)) and value):
        raise PotentialError(f"{name} must be a non-empty list, got {value!r}")
    try:
        out = [_real(x) for x in (value if ndim else [value])]
    except ValueError as exc:
        raise PotentialError(f"{name} must be numeric, got {value!r}") from exc
    if not all(map(math.isfinite, out)):
        raise PotentialError(f"{name} must be finite, got {value!r}")
    return out if ndim else out[0]


def _scalar(name, value):
    return _numbers(name, value, 0)


def _coefficients(name, value):
    return _numbers(name, value, 1)


def _piece_list(name, value):
    """[((lo, hi), coefficients)] of a list of {"interval", "coefficients"} pieces."""
    if not isinstance(value, (list, tuple)) or not value:
        raise PotentialError(f"{name} must be a non-empty list, got {value!r}")
    out = []
    for piece in value:
        try:
            interval, coeffs = piece["interval"], piece["coefficients"]
        except (TypeError, KeyError) as exc:
            raise PotentialError(f"a piece needs an interval and coefficients, got {piece!r}") from exc
        interval = _numbers("interval", interval, 1)
        if len(interval) != 2:
            raise PotentialError(f"interval must be a pair [lo, hi], got {interval!r}")
        out.append((interval, _coefficients("coefficients", coeffs)))
    return out


def _constant(value):
    return lambda x: np.full_like(np.asarray(x, dtype=float), value)


def _polynomial(coeffs):
    return lambda x: npoly.polyval(np.asarray(x, dtype=float), coeffs)


def _finite_well(a, depth, hw):
    """Depth on [-hw, hw] and 0 outside; one constant piece when hw = a."""
    if not 0.0 < hw <= a:
        raise PotentialError(f"half_width must lie in (0, a] = (0, {a}], got {hw}")
    if hw == a:
        return [(-a, a, _constant(depth))]
    return [(-a, -hw, _constant(0.0)), (-hw, hw, _constant(depth)), (hw, a, _constant(0.0))]


# kind -> ({parameter: check}, lowering of (a, *checked parameters) to
# pieces from -a to a)
_KINDS = {
    "zero": ({}, lambda a: [(-a, a, _constant(0.0))]),
    "finite-well": ({"depth": _scalar, "half_width": _scalar}, _finite_well),
    "harmonic": ({"coefficient": _scalar}, lambda a, c: [(-a, a, lambda x: c * np.square(x))]),
    "cosine": ({"amplitude": _scalar, "wavenumber": _scalar},
               lambda a, amp, wn: [(-a, a, lambda x: amp * np.cos(wn * np.asarray(x)))]),
    "polynomial": ({"coefficients": _coefficients}, lambda a, cs: [(-a, a, _polynomial(cs))]),
    "piecewise": ({"pieces": _piece_list},
                  lambda a, pieces: [(lo, hi, _polynomial(cs)) for (lo, hi), cs in pieces]),
}


@dataclass(frozen=True)
class Potential:
    """A bounded, piecewise-continuous real potential on [-a, a].

    Construct through the factory classmethods (``Potential.zero`` etc.)
    or ``from_json``; instances are immutable and safe to share.
    Construction raises ``PotentialError`` for a malformed descriptor.
    Each instance also keeps the integrator's step plans, one per span
    (``odesolve._step_plan``): a cache of energy-independent arrays that
    equality, repr and to_json do not read and that changes no result.
    """

    kind: str
    a: float
    params: dict = field(default_factory=dict)
    _pieces: tuple = field(init=False, repr=False, compare=False)
    _even: bool = field(init=False, repr=False, compare=False)
    _sup: float = field(init=False, repr=False, compare=False)
    _plans: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise PotentialError(f"unknown potential kind {self.kind!r}")
        if not (np.isfinite(self.a) and self.a > 0):
            raise PotentialError(f"half-width a must be positive and finite, got {self.a}")
        checks, lower = _KINDS[self.kind]
        for name in self.params:
            if name not in checks:
                raise PotentialError(f"{self.kind} takes {', '.join(checks) or 'no parameters'}, "
                                     f"not {name!r}")
        values = [check(name, self.params.get(name)) for name, check in checks.items()]
        pieces = tuple(lower(self.a, *values))
        tol, edge = 1e-12 * max(1.0, self.a), -self.a
        for lo, hi, _ in pieces:
            if abs(lo - edge) > tol:
                raise PotentialError(f"pieces must tile [-a, a]; gap/overlap at {lo}")
            if not hi > lo:
                raise PotentialError(f"empty piece interval [{lo}, {hi}]")
            edge = hi
        if abs(edge - self.a) > tol:
            raise PotentialError("pieces must cover the interval up to x = a")
        object.__setattr__(self, "_pieces", pieces)
        object.__setattr__(self, "_even", self._even_at_nodes())
        edges = (-self.a, *self.breakpoints(), self.a)  # sup_norm: 513 samples per piece
        object.__setattr__(self, "_sup", max(float(np.max(np.abs(v(np.linspace(lo, hi, 513)))))
                                             for lo, hi, (*_, v) in zip(edges, edges[1:], pieces)))
        object.__setattr__(self, "_plans", {})

    # -- factories ------------------------------------------------------------

    @classmethod
    def zero(cls, a):
        return cls("zero", float(a))

    @classmethod
    def finite_well(cls, depth, half_width, a):
        return cls("finite-well", float(a), {"depth": float(depth), "half_width": float(half_width)})

    @classmethod
    def harmonic(cls, coefficient, a):
        return cls("harmonic", float(a), {"coefficient": float(coefficient)})

    @classmethod
    def cosine(cls, amplitude, wavenumber, a):
        return cls("cosine", float(a), {"amplitude": float(amplitude), "wavenumber": float(wavenumber)})

    @classmethod
    def polynomial(cls, coefficients, a):
        return cls("polynomial", float(a), {"coefficients": [float(c) for c in coefficients]})

    @classmethod
    def piecewise(cls, pieces, a):
        """pieces: iterable of ((lo, hi), coefficients) with ascending coefficients."""
        norm = [{"interval": [float(lo), float(hi)], "coefficients": [float(c) for c in cs]}
                for (lo, hi), cs in pieces]
        return cls("piecewise", float(a), {"pieces": norm})

    # -- evaluation -----------------------------------------------------------

    def _right_limits(self, x):
        """V on the 1-D array x; right limit at a jump, and x = a belongs to the last piece."""
        owner = np.searchsorted(self.breakpoints(), x, side="right")
        out = np.empty(len(x))
        for k, (_, _, v) in enumerate(self._pieces):
            on = owner == k
            out[on] = v(x[on])
        return out

    def evaluate(self, x):
        """Return V(x) for x in [-a, a]; right-limit value at a jump."""
        x = float(x)
        if not -self.a - 4e-16 * self.a <= x <= self.a + 4e-16 * self.a:
            raise DomainError(f"x = {x} outside [-{self.a}, {self.a}]")
        return float(self._right_limits(np.array([min(max(x, -self.a), self.a)]))[0])

    def is_even(self):
        """True when V(-x) = V(x) within 1e-12, decided once, on construction.

        One node test serves every kind: [0, a] is split at the
        breakpoints and their mirror images, and V(x) is compared with
        V(-x) at interior Gauss nodes of each sub-interval.  Neither x nor
        -x then sits on a jump, and the breakpoints need not mirror each
        other.  Shapes even by construction (zero, finite-well, harmonic,
        cosine, polynomials without odd terms) pass it exactly: their V
        gives the same float at x and -x.  The spectrum asks on every
        propagation, so the answer is stored.
        """
        return self._even

    def _even_at_nodes(self):
        """V(x) = V(-x) at the Gauss nodes of is_even, within _PARITY_TOL."""
        # a set, not np.unique, whose first call imports numpy.ma: slower than the check
        edges = np.array(sorted({0.0, self.a, *(abs(b) for b in self.breakpoints())}))
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        x = (mid[:, None] + half[:, None] * _PARITY_NODES).ravel()
        return bool(np.max(np.abs(self._right_limits(x) - self._right_limits(-x))) <= _PARITY_TOL)

    # -- structure used by the integrator --------------------------------------

    def breakpoints(self):
        """Interior piece edges in ascending order (may be empty)."""
        return tuple(hi for _, hi, _ in self._pieces[:-1])

    def piece_callable(self, lo, hi):
        """Vectorized V on [lo, hi], which must contain no interior breakpoint.

        Unlike ``evaluate`` this uses the piece that owns the open interval
        (lo, hi), so the value at the right edge is the left limit: the
        integrator and quadrature never see the jump.
        """
        return self._pieces[np.searchsorted(self.breakpoints(), 0.5 * (lo + hi), side="right")][2]

    def sup_norm(self):
        """Estimate of max |V| on [-a, a] from 513 samples per piece, made on construction."""
        return self._sup

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        return {"kind": self.kind, "a": self.a, "params": self.params}

    @classmethod
    def from_json(cls, data):
        try:
            kind, a, params = data["kind"], data["a"], dict(data.get("params", {}))
        except KeyError as exc:
            raise PotentialError(f"potential descriptor missing field {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise PotentialError(f"malformed potential descriptor {data!r}") from exc
        return cls(kind, _scalar("a", a), params)
