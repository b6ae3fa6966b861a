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
classify and synthesize work on the entries of Ucal (``Unitary2.entries``)
and of H, and test singularity alike (_i_minus_plus): synthesize admits a
family at DEFAULT_TOL only where classify finds the family's case.
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
from .errors import ParameterError, UnitarityError
from .extmap import INPUT_UNITARITY_TOL, Unitary2, _entries, _matrix, _singular_values, _solve

DEFAULT_TOL = 1e-8

CASE_I, CASE_II, CASE_III, CASE_IV = "I", "II", "III", "IV"

_IDENTITY = np.eye(2)
_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


# the entries of each fixed family's matrix: neumann and anti-periodic are
# negated as complex matrices, so their reports keep -0.0 imaginary parts,
# and the mixed pairs are real, so theirs keep +0.0
_FIXED = {name: _entries(np.asarray(m, dtype=complex)) for name, m in (
    ("dirichlet", _IDENTITY), ("neumann", -_IDENTITY.astype(complex)),
    ("periodic", _SWAP), ("anti-periodic", -_SWAP.astype(complex)),
    ("dirichlet-at-a-neumann-at-minus-a", np.diag([1.0, -1.0])),
    ("neumann-at-a-dirichlet-at-minus-a", np.diag([-1.0, 1.0])))}

FAMILIES = {"robin": ("alpha", "gamma"), "automorphic": ("K",),
            **dict.fromkeys(("general-coupled", "general-case-II", "general-case-III"),
                            ("alpha", "beta", "gamma")),
            **dict.fromkeys(_FIXED, ())}


class BoundaryCondition(NamedTuple):
    """A boundary unitary with its case, named family and parameters.

    H (cases I and II) and H' (case III) are kept as their four entries and
    built as matrices when read; robin and robin_prime are read off them."""

    Ucal: Unitary2
    case: str
    name: str
    sigma: dict                         # singular values of I -/+ Ucal
    h_entries: tuple | None = None      # (h00, h01, h10, h11) of H, or of H' in case III
    angles: tuple | None = None         # (theta, phi), case IV
    K: complex | None = None            # automorphic constant, case IV with theta in (0, pi)

    @property
    def robin(self):
        """(alpha, beta, gamma) = (h00, h01, -h11) of f' = H (f(a), -f(-a)), cases I and II."""
        h = self.h_entries
        return (h[0], h[1], -h[3]) if self.case in (CASE_I, CASE_II) else None

    @property
    def robin_prime(self):
        """(alpha', beta', gamma') = (h00, -h01, -h11) of H', case III."""
        h = self.h_entries
        return (h[0], -h[1], -h[3]) if self.case == CASE_III else None

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
        a, b, c, d = self.Ucal.entries  # matrix_to_json's rows, read off the entries
        rows = [[[a.real, a.imag], [b.real, b.imag]], [[c.real, c.imag], [d.real, d.imag]]]
        return {"case": self.case, "name": self.name, "matrix": {"rows": rows},
                "singular_values": {k: [float(x), float(y)] for k, (x, y) in self.sigma.items()},
                "parameters": params}


def _case_iv_data(a, b, c, d, tol):
    """Angles (theta, phi), sin theta and the unit Pauli vector n of the
    traceless Hermitian unitary nearest to [[a, b], [c, d]]: n3 = cos theta
    and n1 + i n2 = e^{i phi} sin theta."""
    n3 = 0.5 * (a - d).real
    n1 = 0.5 * (c + b).real
    n2 = 0.5 * (c - b).imag
    vec = np.array([n1, n2, n3])
    n = n1, n2, n3 = (vec / np.linalg.norm(vec)).tolist()
    sin_theta = float(np.hypot(n1, n2))
    theta = float(np.arctan2(sin_theta, n3))
    phi = float(np.arctan2(n2, n1)) % (2.0 * np.pi) if sin_theta > tol else 0.0
    return theta, phi, sin_theta, n


def _i_minus_plus(entries, tol):
    """The entries of I - Ucal and I + Ucal for those of Ucal, [sigma_max,
    sigma_min] of each, and the bound at or below which a singular value
    counts as zero: tol times the larger sigma_max (for a unitary at least
    sqrt(2), so the scale is O(1))."""
    a, b, c, d = entries
    # 0.0 - b, not -b: the signed zeros of I -/+ Ucal reach the reported parameters
    minus, plus = (1.0 - a, 0.0 - b, 0.0 - c, 1.0 - d), (1.0 + a, 0.0 + b, 0.0 + c, 1.0 + d)
    sig_minus, sig_plus = _singular_values(minus), _singular_values(plus)
    return minus, plus, sig_minus, sig_plus, tol * max(sig_minus[0], sig_plus[0])


def classify(ucal, tol=DEFAULT_TOL):
    """Assign the case, named family and parameters of a boundary unitary.

    Singularity of I -/+ Ucal is decided by _i_minus_plus, the test
    synthesize admits its families by.

    H (or H') is kept as the four entries that the solve gives; the
    returned condition builds the matrix only when its H or Hprime is read.

    Args:
        ucal: certified Unitary2 holding one matrix.
        tol: singularity threshold, in (0, 1e-4].

    Raises:
        UnitarityError: for a certified stack of matrices.
    """
    if not 0.0 < tol <= 1e-4:
        raise ParameterError(f"tol must lie in (0, 1e-4], got {tol}")
    entries = ucal.entries
    if isinstance(entries[0], np.ndarray):
        raise UnitarityError(f"classify takes one 2x2 matrix, got shape {ucal.matrix.shape}")
    minus, plus, sig_minus, sig_plus, zero = _i_minus_plus(entries, tol)
    minus_singular, plus_singular = sig_minus[1] <= zero, sig_plus[1] <= zero
    sigma = {"I_minus_U": sig_minus, "I_plus_U": sig_plus}

    if not (minus_singular and plus_singular):  # H for cases I and II, else H'
        k, lhs, rhs = (1j, minus, plus) if not minus_singular else (-1j, plus, minus)
        x00, x01, x10, x11 = _solve(lhs, rhs)
        m00, m01, m10, m11 = k * x00, k * x01, k * x10, k * x11
        h00, h01, h11 = m00.real, 0.5 * (m01 + m10.conjugate()), m11.real
        h = (h00, h01, 0.5 * (m10 + m01.conjugate()), h11)
    if not minus_singular:  # cases I and II share H
        if plus_singular:
            case, name = CASE_II, "neumann" if sig_plus[0] <= zero else "general-case-II"
        else:
            h_scale = max(1.0, abs(h00), abs(h01), abs(h11))
            case, name = CASE_I, "robin" if abs(h01) <= tol * h_scale else "general-coupled"
        return BoundaryCondition(ucal, case, name, sigma, h)

    if not plus_singular:
        name = "dirichlet" if sig_minus[0] <= zero else "general-case-III"
        return BoundaryCondition(ucal, CASE_III, name, sigma, h)

    theta, phi, sin_theta, (n1, n2, n3) = _case_iv_data(*entries, tol)
    if sin_theta <= tol:
        if theta < 0.5 * np.pi:
            name, kval = "dirichlet-at-a-neumann-at-minus-a", None
        else:
            name, kval = "neumann-at-a-dirichlet-at-minus-a", None
    else:
        # K = e^{i phi} cot(theta/2), in the form whose denominator does not cancel
        kval = complex(n1, n2) / (1.0 - n3) if n3 <= 0.0 else (1.0 + n3) / complex(n1, -n2)
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


def _hermitian_cayley(name, case_iii, h00, h01, h11):
    """Entries of the Ucal of H = [[h00, h01], [conj(h01), h11]], or of H' in
    case III; robin's h01 is a real 0.0, whose signed zeros reach Ucal."""
    h01 = 0.0 if name == "robin" else h01
    return (_cayley_prime if case_iii else _cayley)((h00, h01, h01.conjugate(), h11))


# each parameter's kind, the type that passes at once, and the numbers ABC that decides
# others, in synthesize's parameter order (the CLI's flags follow it)
_KINDS = {"alpha": ("real", float, numbers.Real), "beta": ("complex", complex, numbers.Complex),
          "gamma": ("real", float, numbers.Real), "K": ("complex", complex, numbers.Complex)}


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


def _automorphic_matrix(K):
    """The case-IV matrix of f(-a) = K f(a), t = 2 arccot |K| and p = arg K,
    built from K: cos t = (|K|^2 - 1)/(|K|^2 + 1) and e^{ip} sin t =
    2K/(1 + |K|^2), both from q = min(|K|, 1/|K|) so neither overflows.
    K = 0 gives t = pi."""
    r = abs(K)
    q = min(r, 1.0 / r) if r else 0.0
    cos_t = np.copysign((1.0 - q * q) / (1.0 + q * q), r - 1.0)
    sin_t = 2.0 * q / (1.0 + q * q) * (K / r) if r else 0j  # times e^{ip}
    return _matrix(cos_t, sin_t.conjugate(), sin_t, -cos_t)


def synthesize(family, alpha=None, beta=None, gamma=None, K=None):
    """The boundary unitary of a named family from exactly the parameters
    FAMILIES lists for it; an unset beta is 0.

    It is admitted only where classify's test at DEFAULT_TOL finds I + Ucal
    regular (robin, general-coupled), I + Ucal singular (general-case-II),
    I - Ucal singular (general-case-III) or sin t > DEFAULT_TOL, which
    keeps K (automorphic).  So classify(synthesize(...)) at DEFAULT_TOL
    gives the family's case and parameters, except that an H (or H') so
    large that the other of I -/+ Ucal is singular too lands in Case III
    or IV, and parameters within tol of a special member take its name
    (robin, neumann, dirichlet, periodic or anti-periodic).

    Raises:
        ParameterError: for an unknown family, a parameter the family does
            not take, a missing one, one that is not a number of its kind
            (real alpha and gamma, complex beta and K), or parameters that
            classify's test does not place in the family.
    """
    takes = FAMILIES.get(family)
    if takes is None:
        raise ParameterError(f"unknown boundary-condition family {family!r}")
    for name, value in zip(_KINDS, (alpha, beta, gamma, K)):
        _checked(family, takes, name, value)

    if family in _FIXED:
        return Unitary2._certified(_FIXED[family])

    if family == "automorphic":
        ucal = _entries(_automorphic_matrix(complex(K)))
        if _case_iv_data(*ucal, DEFAULT_TOL)[2] <= DEFAULT_TOL:
            raise ParameterError(f"automorphic K = {K} gives sin t <= {DEFAULT_TOL}, "
                                 "a mixed Dirichlet/Neumann pair")
        return Unitary2._certified(ucal)

    # general-case-III takes the singular H' = [[alpha', -beta'], [-conj(beta'), -gamma']]
    case_iii = family == "general-case-III"
    beta = complex(beta or 0.0) * (-1.0 if case_iii else 1.0)
    ucal = _hermitian_cayley(family, case_iii, float(alpha), beta, -float(gamma))
    _, _, sig_minus, sig_plus, zero = _i_minus_plus(ucal, DEFAULT_TOL)
    singular, sign = (sig_minus[1] <= zero, "-") if case_iii else (sig_plus[1] <= zero, "+")
    if singular != family.startswith("general-case-"):
        raise ParameterError(f"{family} needs alpha*gamma + |beta|^2 {'!=' if singular else '='} "
                             f"0: I {sign} Ucal is {'' if singular else 'not '}singular")
    return Unitary2._certified(ucal)


def synthesize_from(bc):
    """Rebuild the boundary unitary from a classified condition.

    Cases I-III are rebuilt from the kept H (or H') made Hermitian from
    its h00, h01 and h11, as the reported parameters give it; case IV from
    its fixed matrix or from K, by synthesize's arithmetic but without its
    admission test, so a condition classify named is always rebuilt."""
    if bc.case == CASE_IV:
        # the mixed Dirichlet/Neumann pairs carry no parameters
        return Unitary2._certified(_FIXED[bc.name] if bc.K is None
                                   else _entries(_automorphic_matrix(bc.K)))
    h00, h01, _, h11 = bc.h_entries
    return Unitary2._certified(_hermitian_cayley(bc.name, bc.case == CASE_III, h00, h01, h11),
                               INPUT_UNITARITY_TOL if bc.case == CASE_I else 1e-8)


def apply_bc(bc, rows):
    """Residual ||psi_minus - Ucal psi_plus|| of the boundary relation for
    boundary rows (deficiency.boundary_waves): a float for one row, an array
    for a stack.  It is zero exactly when the row meets the extension's
    boundary conditions, and NaN for a row holding NaN."""
    psi_minus, psi_plus = boundary_waves(rows)
    residual = psi_minus - (bc.Ucal.matrix @ psi_plus[..., None])[..., 0]
    norm = np.sqrt(np.vecdot(residual, residual).real)
    return float(norm) if norm.ndim == 0 else norm
