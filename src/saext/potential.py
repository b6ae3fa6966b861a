"""Bounded real potentials V(x) on a symmetric interval [-a, a].

Units are fixed to hbar = 2m = 1 so the operator reads -d^2/dx^2 + V(x).
Supported shapes: zero, square finite well, harmonic c*x^2, cosine,
polynomial, and piecewise polynomial.  All values are finite by
construction; distributional potentials (delta spikes) cannot be
expressed.

Each kind is lowered once, on construction, to a tuple of (lo, hi, V)
pieces that tiles [-a, a], with V vectorized and smooth on its piece.
One table, ``_KINDS``, gives per kind the required parameters, the
lowering and whether the shape is even by construction.  Validation,
evaluation, the breakpoints, the parity check (made once, on
construction) and the integrator's V are all read from the pieces.
Evaluation at an interior jump uses the right-limit value so results are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError, PotentialError

# Gauss-Legendre nodes on (-1, 1) for the parity check; on each piece of a
# polynomial V of degree < 32 the odd part V(x) - V(-x) vanishes at all
# of them only if it vanishes identically
_PARITY_NODES = np.polynomial.legendre.leggauss(32)[0]
_PARITY_TOL = 1e-12  # largest |V(x) - V(-x)| at those nodes of an even V


def _numbers(name, value, ndim):
    """value as floats, checked to be a finite scalar (ndim 0) or non-empty list (ndim 1)."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise PotentialError(f"{name} must be numeric, got {value!r}") from exc
    if arr.ndim != ndim or arr.size == 0:
        raise PotentialError(f"{name} must be a {('scalar', 'non-empty list')[ndim]}, got {value!r}")
    if not np.all(np.isfinite(arr)):
        raise PotentialError(f"{name} must be finite, got {value!r}")
    return arr.tolist()


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


# kind -> ({parameter: check}, even-by-construction predicate on the checked
# parameters, lowering of (a, *checked parameters) to pieces from -a to a)
_KINDS = {
    "zero": ({}, lambda *_: True, lambda a: [(-a, a, _constant(0.0))]),
    "finite-well": (
        {"depth": _scalar, "half_width": _scalar}, lambda *_: True,
        lambda a, depth, hw: [(-a, -hw, _constant(0.0)), (-hw, hw, _constant(depth)),
                              (hw, a, _constant(0.0))]),
    "harmonic": ({"coefficient": _scalar}, lambda *_: True,
                 lambda a, c: [(-a, a, lambda x: c * np.square(x))]),
    "cosine": ({"amplitude": _scalar, "wavenumber": _scalar}, lambda *_: True,
               lambda a, amp, wn: [(-a, a, lambda x: amp * np.cos(wn * np.asarray(x)))]),
    "polynomial": ({"coefficients": _coefficients},
                   lambda cs: all(c == 0.0 for c in cs[1::2]),
                   lambda a, cs: [(-a, a, _polynomial(cs))]),
    "piecewise": ({"pieces": _piece_list}, lambda _: False,
                  lambda a, pieces: [(lo, hi, _polynomial(cs)) for (lo, hi), cs in pieces]),
}


@dataclass(frozen=True)
class Potential:
    """A bounded, piecewise-continuous real potential on [-a, a].

    Construct through the factory classmethods (``Potential.zero`` etc.)
    or ``from_json``; instances are immutable and safe to share.
    Construction raises ``PotentialError`` for a malformed descriptor.
    """

    kind: str
    a: float
    params: dict = field(default_factory=dict)
    _pieces: tuple = field(init=False, repr=False, compare=False)
    _even: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise PotentialError(f"unknown potential kind {self.kind!r}")
        if not (np.isfinite(self.a) and self.a > 0):
            raise PotentialError(f"half-width a must be positive and finite, got {self.a}")
        checks, even, lower = _KINDS[self.kind]
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
        object.__setattr__(self, "_even", bool(even(*values)) or self._even_at_nodes())

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
        if x < -self.a - 4e-16 * self.a or x > self.a + 4e-16 * self.a:
            raise DomainError(f"x = {x} outside [-{self.a}, {self.a}]")
        return float(self._right_limits(np.array([min(max(x, -self.a), self.a)]))[0])

    def is_even(self):
        """True when V(-x) = V(x) within 1e-12, decided once, on construction.

        Kinds that are even by construction (zero, finite-well, harmonic,
        cosine) are even at once, as are polynomials with vanishing odd
        coefficients.  For any other V, [0, a] is split at the breakpoints
        and their mirror images, and V(x) is compared with V(-x) at
        interior Gauss nodes of each sub-interval.  Neither x nor -x then
        sits on a jump, and the breakpoints need not mirror each other.
        The spectrum asks on every propagation, so the answer is stored.
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
        """Estimate of max |V| on [-a, a] (dense sampling per smooth piece)."""
        edges = (-self.a, *self.breakpoints(), self.a)
        worst = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            vals = self.piece_callable(lo, hi)(np.linspace(lo, hi, 513))
            worst = max(worst, float(np.max(np.abs(vals))))
        return worst

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        return {"kind": self.kind, "a": self.a, "params": self.params}

    @classmethod
    def from_json(cls, data):
        try:
            kind, a, params = data["kind"], float(data["a"]), dict(data.get("params", {}))
        except KeyError as exc:
            raise PotentialError(f"potential descriptor missing field {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise PotentialError(f"malformed potential descriptor {data!r}") from exc
        return cls(kind, a, params)
