"""Classification and synthesis of boundary-condition unitaries.

Every extension's boundary unitary Ucal falls into one of four cases by
whether I - Ucal and I + Ucal are singular:

    I   both regular        f' = H (f(a), -f(-a))^T, H = i(I-Ucal)^-1(I+Ucal)
                            Hermitian and invertible (Robin when diagonal)
    II  only I+Ucal singular    same H, now singular; Ucal = -I is Neumann
    III only I-Ucal singular    (f(a), -f(-a))^T = H' f', with the Hermitian
                            singular H' = -i(I+Ucal)^-1(I-Ucal); Ucal = I
                            is Dirichlet
    IV  both singular       Ucal is a traceless Hermitian unitary
                            [[cos t, e^{-ip} sin t], [e^{ip} sin t, -cos t]];
                            endpoints couple as f(-a) = K f(a),
                            f'(-a) = f'(a)/conj(K) with K = e^{ip} cot(t/2);
                            t = pi/2 gives automorphic (periodic at p = 0,
                            anti-periodic at p = pi), t = 0 and t = pi give
                            the mixed Dirichlet/Neumann pairs.

H and Ucal are a commuting Cayley pair: Ucal = (H + iI)^-1 (H - iI).
classify and synthesize work on the entries of Ucal and H (``extmap._entries``).
FAMILIES maps each named family to the parameters synthesize takes for it:
the entries alpha, gamma and optional beta of H (H' for general-case-III),
K for automorphic (t in (0, pi)), and nothing for the six fixed families.
"""

from __future__ import annotations

import cmath
import numbers
from typing import NamedTuple

import numpy as np

from .deficiency import boundary_waves
from .errors import ParameterError
from .extmap import Unitary2, _entries, _matrix, _singular_values, _solve
from .jsonio import matrix_to_json

DEFAULT_TOL = 1e-8

CASE_I, CASE_II, CASE_III, CASE_IV = "I", "II", "III", "IV"

_IDENTITY = np.eye(2)
_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _case_iv_matrix(theta, phi):
    ct, st = np.cos(theta), np.sin(theta)
    return np.array([[ct, np.exp(-1j * phi) * st],
                     [np.exp(1j * phi) * st, -ct]])


# negated as complex matrices, so the reports keep their -0.0 imaginary parts
_FIXED = {"dirichlet": _IDENTITY, "neumann": -_IDENTITY.astype(complex),
          "periodic": _SWAP, "anti-periodic": -_SWAP.astype(complex),
          "dirichlet-at-a-neumann-at-minus-a": _case_iv_matrix(0.0, 0.0),
          "neumann-at-a-dirichlet-at-minus-a": _case_iv_matrix(np.pi, 0.0)}

FAMILIES = {"robin": ("alpha", "gamma"), "automorphic": ("K",),
            **dict.fromkeys(("general-coupled", "general-case-II", "general-case-III"),
                            ("alpha", "beta", "gamma")),
            **dict.fromkeys(_FIXED, ())}


class BoundaryCondition(NamedTuple):
    """A boundary unitary with its case, named family and parameters.

    H (cases I and II) and H' (case III) are kept as their four entries and
    built as matrices when read."""

    Ucal: Unitary2
    case: str
    name: str
    sigma: dict                         # singular values of I -/+ Ucal
    h_entries: tuple | None = None      # (h00, h01, h10, h11) of H, or of H' in case III
    robin: tuple | None = None          # (alpha, beta, gamma) of f' = H (f(a), -f(-a))
    robin_prime: tuple | None = None    # (alpha', beta', gamma') of the case-III form
    angles: tuple | None = None         # (theta, phi), case IV
    K: complex | None = None            # automorphic constant, case IV with theta in (0, pi)

    @property
    def H(self):
        return _matrix(*self.h_entries) if self.case in (CASE_I, CASE_II) else None

    @property
    def Hprime(self):
        return _matrix(*self.h_entries) if self.case == CASE_III else None

    def to_json(self):
        if self.robin is not None:
            a, b, g = self.robin
            params = {"alpha": a, "beta": [b.real, b.imag], "gamma": g}
        elif self.robin_prime is not None:
            a, b, g = self.robin_prime
            params = {"alpha_prime": a, "beta_prime": [b.real, b.imag], "gamma_prime": g}
        else:
            theta, phi = self.angles
            params = {"theta": theta, "phi": phi}
            if self.K is not None:
                params["K"] = [self.K.real, self.K.imag]
        return {"case": self.case, "name": self.name, "matrix": matrix_to_json(self.Ucal.matrix),
                "singular_values": {k: [float(x), float(y)] for k, (x, y) in self.sigma.items()},
                "parameters": params}


def _case_iv_data(a, b, c, d, tol):
    """Angles of the traceless Hermitian unitary nearest to [[a, b], [c, d]] (Pauli direction)."""
    n3 = 0.5 * (a - d).real
    n1 = 0.5 * (c + b).real
    n2 = 0.5 * (c - b).imag
    vec = np.array([n1, n2, n3])
    vec = vec / np.linalg.norm(vec)
    sin_theta = float(np.hypot(vec[0], vec[1]))
    theta = float(np.arctan2(sin_theta, vec[2]))
    phi = float(np.arctan2(vec[1], vec[0])) % (2.0 * np.pi) if sin_theta > tol else 0.0
    return theta, phi, sin_theta


def classify(ucal, tol=DEFAULT_TOL):
    """Assign the case, named family and parameters of a boundary unitary.

    Singularity of I -/+ Ucal is decided by the smallest singular value
    against tol times the largest one in play (for a unitary the larger of
    the two matrices always has norm >= sqrt(2), so the scale is O(1)).

    H (or H') is kept as the four entries that the solve gives; the
    returned condition builds the matrix only when its H or Hprime is read.

    Args:
        ucal: certified Unitary2.
        tol: singularity threshold, in (0, 1e-4].
    """
    if not 0.0 < tol <= 1e-4:
        raise ParameterError(f"tol must lie in (0, 1e-4], got {tol}")
    a, b, c, d = _entries(ucal.matrix)
    # 0.0 - b, not -b: the signed zeros of I -/+ Ucal reach the reported parameters
    minus, plus = (1.0 - a, 0.0 - b, 0.0 - c, 1.0 - d), (1.0 + a, 0.0 + b, 0.0 + c, 1.0 + d)
    sig_minus, sig_plus = _singular_values(minus), _singular_values(plus)
    scale = max(sig_minus[0], sig_plus[0])
    minus_singular = sig_minus[1] <= tol * scale
    plus_singular = sig_plus[1] <= tol * scale
    sigma = {"I_minus_U": sig_minus, "I_plus_U": sig_plus}

    if not (minus_singular and plus_singular):  # H for cases I and II, else H'
        k, lhs, rhs = (1j, minus, plus) if not minus_singular else (-1j, plus, minus)
        x00, x01, x10, x11 = _solve(lhs, rhs)
        m00, m01, m10, m11 = k * x00, k * x01, k * x10, k * x11
        h00, h01, h11 = m00.real, 0.5 * (m01 + m10.conjugate()), m11.real
        h = (h00, h01, 0.5 * (m10 + m01.conjugate()), h11)
    if not minus_singular:  # cases I and II share H
        robin = (h00, h01, -h11)
        if plus_singular:
            case, name = CASE_II, "neumann" if sig_plus[0] <= tol * scale else "general-case-II"
        else:
            h_scale = max(1.0, abs(h00), abs(h01), abs(h11))
            case, name = CASE_I, "robin" if abs(h01) <= tol * h_scale else "general-coupled"
        return BoundaryCondition(ucal, case, name, sigma, h, robin=robin)

    if not plus_singular:
        name = "dirichlet" if sig_minus[0] <= tol * scale else "general-case-III"
        return BoundaryCondition(ucal, CASE_III, name, sigma, h, robin_prime=(h00, -h01, -h11))

    theta, phi, sin_theta = _case_iv_data(a, b, c, d, tol)
    if sin_theta <= tol:
        if theta < 0.5 * np.pi:
            name, kval = "dirichlet-at-a-neumann-at-minus-a", None
        else:
            name, kval = "neumann-at-a-dirichlet-at-minus-a", None
    else:
        kval = complex(np.exp(1j * phi) / np.tan(0.5 * theta))
        if abs(theta - 0.5 * np.pi) <= tol and abs(phi) <= tol:
            name = "periodic"
        elif abs(theta - 0.5 * np.pi) <= tol and abs(phi - np.pi) <= tol:
            name = "anti-periodic"
        else:
            name = "automorphic"
    return BoundaryCondition(ucal, CASE_IV, name, sigma, angles=(theta, phi), K=kval)


def _cayley(h):
    """Entries of Ucal = (H + iI)^-1 (H - iI) from those of H (iI's zeros added too,
    for the signed zeros of Ucal); unitary for Hermitian H, never has eigenvalue 1,
    and inverts H = i(I - Ucal)^-1 (I + Ucal)."""
    a, b, c, d = h
    return _solve((a + 1j, b + 0j, c + 0j, d + 1j), (a - 1j, b - 0j, c - 0j, d - 1j))


def _cayley_prime(hp):
    """Entries of Ucal = (iI - H')^-1 (H' + iI) from those of H', the inverse of
    H' = -i(I + Ucal)^-1 (I - Ucal)."""
    a, b, c, d = hp
    return _solve((1j - a, 0j - b, 0j - c, 1j - d), (a + 1j, b + 0j, c + 0j, d + 1j))


# each parameter's kind, the type that passes at once, and the numbers ABC that decides others
_KINDS = {"alpha": ("real", float, numbers.Real), "gamma": ("real", float, numbers.Real),
          "beta": ("complex", complex, numbers.Complex), "K": ("complex", complex, numbers.Complex)}


def _checked(family, takes, name, value):
    """ParameterError unless value is None where family does not take name,
    and a finite number where it does: real for alpha and gamma, complex
    for beta and K, a boolean never (as in jsonio); beta alone may be unset."""
    if value is None:
        if name in takes and name != "beta":
            raise ParameterError(f"{family} needs {name}")
        return
    if name not in takes:
        raise ParameterError(f"{family} takes {', '.join(takes) or 'no parameters'}, not {name}")
    kind, exact, abstract = _KINDS[name]
    if type(value) is not exact and (isinstance(value, bool) or not isinstance(value, abstract)):
        raise ParameterError(f"{name} must be a {kind} number, got {value!r}")
    if not cmath.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value}")


def synthesize(family, alpha=None, beta=None, gamma=None, K=None):
    """The boundary unitary of a named family from exactly the parameters
    FAMILIES lists for it; an unset beta is 0.  classify(synthesize(...))
    reproduces the family and parameters.

    Raises:
        ParameterError: for an unknown family, a parameter the family does
            not take, a missing one, one that is not a number of its kind
            (real alpha and gamma, complex beta and K), or one out of its
            domain.
    """
    takes = FAMILIES.get(family)
    if takes is None:
        raise ParameterError(f"unknown boundary-condition family {family!r}")
    _checked(family, takes, "alpha", alpha)
    _checked(family, takes, "beta", beta)
    _checked(family, takes, "gamma", gamma)
    _checked(family, takes, "K", K)

    if family in _FIXED:
        return Unitary2.certify(_FIXED[family])

    if family == "automorphic":
        K = complex(K)
        if K == 0.0:
            raise ParameterError("automorphic constant K must be nonzero")
        theta = 2.0 * np.arctan(1.0 / abs(K))
        phi = float(np.angle(K)) % (2.0 * np.pi)
        return Unitary2.certify(_case_iv_matrix(theta, phi))

    if family == "robin":
        if alpha == 0.0 or gamma == 0.0:
            raise ParameterError("strict Robin needs alpha != 0 and gamma != 0")
        return Unitary2._certified(_cayley((float(alpha), 0.0, 0.0, -float(gamma))))

    # general-coupled (H invertible), general-case-II (H singular) and
    # general-case-III (singular H' = [[alpha', -beta'], [-conj(beta'), -gamma']])
    beta = complex(beta or 0.0) * (-1.0 if family == "general-case-III" else 1.0)
    h = (float(alpha), beta, beta.conjugate(), -float(gamma))
    # det H against max(1, max |H|)^2, both scaled so that no square overflows
    scale = max(1.0, *map(abs, h))
    det = (float(alpha) / scale) * (float(gamma) / scale) + abs(beta / scale) ** 2
    singular = abs(det) <= 1e-10
    if singular == (family == "general-coupled"):
        raise ParameterError(f"{family} needs alpha*gamma + |beta|^2 {'!=' if singular else '='} 0")
    return Unitary2._certified(_cayley_prime(h) if family == "general-case-III" else _cayley(h))


def synthesize_from(bc):
    """Rebuild the boundary unitary from a classified condition's parameters.

    Exact for the parameter-complete cases I and IV; cases II/III fall back
    to the stored H / H' (their named parameters do not pin the matrix)."""
    if bc.case == CASE_I:
        alpha, beta, gamma = bc.robin
        if bc.name == "robin":
            return synthesize("robin", alpha=alpha, gamma=gamma)
        return synthesize("general-coupled", alpha=alpha, beta=beta, gamma=gamma)
    if bc.case == CASE_IV:
        if bc.K is None:  # the mixed Dirichlet/Neumann pairs carry no parameters
            return synthesize(bc.name)
        return synthesize("automorphic", K=bc.K)
    if bc.case == CASE_II:
        return Unitary2._certified(_cayley(_entries(bc.H)), 1e-8)
    return Unitary2._certified(_cayley_prime(_entries(bc.Hprime)), 1e-8)


def apply_bc(bc, rows):
    """Residual ||psi_minus - Ucal psi_plus|| of the boundary relation for
    boundary rows (deficiency.boundary_waves): a float for one row, an array
    for a stack.  It is zero exactly when the row meets the extension's
    boundary conditions, and NaN for a row holding NaN."""
    psi_minus, psi_plus = boundary_waves(rows)
    residual = psi_minus - (bc.Ucal.matrix @ psi_plus[..., None])[..., 0]
    norm = np.sqrt(np.vecdot(residual, residual).real)
    return float(norm) if norm.ndim == 0 else norm
