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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .extmap import Unitary2, _singular_values, _solve

DEFAULT_TOL = 1e-8

CASE_I, CASE_II, CASE_III, CASE_IV = "I", "II", "III", "IV"

FAMILIES = ("robin", "general-coupled", "neumann", "dirichlet", "periodic",
            "anti-periodic", "automorphic", "dirichlet-at-a-neumann-at-minus-a",
            "neumann-at-a-dirichlet-at-minus-a", "general-case-II", "general-case-III")

_IDENTITY = np.eye(2)
_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class BoundaryCondition:
    """A boundary unitary with its case, named family and parameters."""

    Ucal: Unitary2
    case: str
    name: str
    H: np.ndarray | None = None
    Hprime: np.ndarray | None = None
    robin: tuple | None = None          # (alpha, beta, gamma) of f' = H (f(a), -f(-a))
    robin_prime: tuple | None = None    # (alpha', beta', gamma') of the case-III form
    angles: tuple | None = None         # (theta, phi), case IV
    K: complex | None = None            # automorphic constant, case IV with theta in (0, pi)
    sigma: dict = field(default_factory=dict)  # singular values of I -/+ Ucal

    def to_json(self):
        from .jsonio import matrix_to_json
        data = {"case": self.case, "name": self.name,
                "matrix": matrix_to_json(self.Ucal.matrix),
                "singular_values": dict(self.sigma)}
        params = {}
        if self.robin is not None:
            a, b, g = self.robin
            params.update({"alpha": a, "beta": [b.real, b.imag], "gamma": g})
        if self.robin_prime is not None:
            a, b, g = self.robin_prime
            params.update({"alpha_prime": a, "beta_prime": [b.real, b.imag], "gamma_prime": g})
        if self.angles is not None:
            params.update({"theta": self.angles[0], "phi": self.angles[1]})
        if self.K is not None:
            params.update({"K": [self.K.real, self.K.imag]})
        data["parameters"] = params
        return data


def _hermitian_part(m):
    return 0.5 * (m + m.conj().T)


def _case_iv_data(u, tol):
    """Angles of the nearest traceless Hermitian unitary (Pauli direction)."""
    m = u.matrix
    n3 = 0.5 * (m[0, 0] - m[1, 1]).real
    n1 = 0.5 * (m[1, 0] + m[0, 1]).real
    n2 = 0.5 * (m[1, 0] - m[0, 1]).imag
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

    Args:
        ucal: certified Unitary2.
        tol: singularity threshold, in (0, 1e-4].
    """
    if not 0.0 < tol <= 1e-4:
        raise ParameterError(f"tol must lie in (0, 1e-4], got {tol}")
    minus, plus = _IDENTITY - ucal.matrix, _IDENTITY + ucal.matrix
    sig_minus, sig_plus = _singular_values(minus), _singular_values(plus)
    scale = max(sig_minus[0], sig_plus[0])
    minus_singular = sig_minus[1] <= tol * scale
    plus_singular = sig_plus[1] <= tol * scale
    sigma = {"I_minus_U": sig_minus, "I_plus_U": sig_plus}

    if not minus_singular:  # cases I and II share H
        h = _hermitian_part(1j * _solve(minus, plus))
        robin = (h[0, 0].real, h[0, 1], -h[1, 1].real)
        if plus_singular:
            case, name = CASE_II, "neumann" if sig_plus[0] <= tol * scale else "general-case-II"
        else:
            h_scale = max(1.0, np.abs(h).max())
            case, name = CASE_I, "robin" if abs(robin[1]) <= tol * h_scale else "general-coupled"
        return BoundaryCondition(ucal, case, name, H=h, robin=robin, sigma=sigma)

    if minus_singular and not plus_singular:
        hp = _hermitian_part(-1j * _solve(plus, minus))
        alpha_p, beta_p, gamma_p = hp[0, 0].real, -hp[0, 1], -hp[1, 1].real
        name = "dirichlet" if sig_minus[0] <= tol * scale else "general-case-III"
        return BoundaryCondition(ucal, CASE_III, name, Hprime=hp,
                                 robin_prime=(alpha_p, beta_p, gamma_p), sigma=sigma)

    theta, phi, sin_theta = _case_iv_data(ucal, tol)
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
    return BoundaryCondition(ucal, CASE_IV, name, angles=(theta, phi), K=kval,
                             sigma=sigma)


def _cayley(h):
    """Ucal = (H + iI)^-1 (H - iI); unitary for Hermitian H, never has
    eigenvalue 1, and inverts H = i(I - Ucal)^-1 (I + Ucal)."""
    return _solve(h + 1j * _IDENTITY, h - 1j * _IDENTITY)


def _cayley_prime(hp):
    """Ucal = (iI - H')^-1 (H' + iI), the inverse of
    H' = -i(I + Ucal)^-1 (I - Ucal)."""
    return _solve(1j * _IDENTITY - hp, hp + 1j * _IDENTITY)


def _case_iv_matrix(theta, phi):
    ct, st = np.cos(theta), np.sin(theta)
    return np.array([[ct, np.exp(-1j * phi) * st],
                     [np.exp(1j * phi) * st, -ct]])


def synthesize(family, alpha=None, beta=None, gamma=None, theta=None, phi=None, K=None):
    """The boundary unitary of a named family.

    classify(synthesize(...)) reproduces the family and parameters; see
    the module docstring for the meaning of each parameter set.

    Raises:
        ParameterError: for unknown families or out-of-domain parameters.
    """
    if family not in FAMILIES:
        raise ParameterError(f"unknown boundary-condition family {family!r}")

    if family == "dirichlet":
        return Unitary2.certify(_IDENTITY.astype(complex))
    if family == "neumann":
        return Unitary2.certify(-_IDENTITY.astype(complex))
    if family == "periodic":
        return Unitary2.certify(_SWAP.astype(complex))
    if family == "anti-periodic":
        return Unitary2.certify(-_SWAP.astype(complex))
    if family == "dirichlet-at-a-neumann-at-minus-a":
        return Unitary2.certify(_case_iv_matrix(0.0, 0.0))
    if family == "neumann-at-a-dirichlet-at-minus-a":
        return Unitary2.certify(_case_iv_matrix(np.pi, 0.0))

    if family == "automorphic":
        if K is None:
            if theta is None:
                raise ParameterError("automorphic needs K or (theta, phi)")
            if not 0.0 < theta < np.pi:
                raise ParameterError(f"automorphic needs theta in (0, pi), got {theta}")
            return Unitary2.certify(_case_iv_matrix(float(theta), float(phi or 0.0)))
        K = complex(K)
        if K == 0:
            raise ParameterError("automorphic constant K must be nonzero")
        theta = 2.0 * np.arctan(1.0 / abs(K))
        phi = float(np.angle(K)) % (2.0 * np.pi)
        return Unitary2.certify(_case_iv_matrix(theta, phi))

    if family == "robin":
        if alpha is None or gamma is None:
            raise ParameterError("robin needs alpha and gamma")
        if beta not in (None, 0, 0.0):
            raise ParameterError("robin is the diagonal family; use general-coupled for beta != 0")
        if alpha == 0.0 or gamma == 0.0:
            raise ParameterError("strict Robin needs alpha != 0 and gamma != 0")
        h = np.diag([float(alpha), -float(gamma)]).astype(complex)
        return Unitary2.certify(_cayley(h))

    # general-coupled (H invertible), general-case-II (H singular) and
    # general-case-III (singular H' = [[alpha', -beta'], [-conj(beta'), -gamma']])
    if alpha is None or gamma is None:
        raise ParameterError(f"{family} needs alpha, beta, gamma")
    beta = complex(beta or 0.0) * (-1.0 if family == "general-case-III" else 1.0)
    h = np.array([[float(alpha), beta], [np.conj(beta), -float(gamma)]])
    det = float(alpha) * float(gamma) + abs(beta) ** 2
    singular = abs(det) <= 1e-10 * max(1.0, np.abs(h).max() ** 2)
    if singular == (family == "general-coupled"):
        raise ParameterError(f"{family} needs alpha*gamma + |beta|^2 {'!=' if singular else '='} 0")
    return Unitary2.certify(_cayley_prime(h) if family == "general-case-III" else _cayley(h))


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
        theta, phi = bc.angles
        return synthesize("automorphic", theta=theta, phi=phi)
    if bc.case == CASE_II:
        return Unitary2.certify(_cayley(bc.H), tol=1e-8)
    return Unitary2.certify(_cayley_prime(bc.Hprime), tol=1e-8)


def apply_bc(bc, fa, fma, dfa, dfma):
    """Residual of the endpoint relation for the boundary data of one function.

    Args:
        bc: BoundaryCondition (only its Ucal is used).
        fa, fma: f(a), f(-a).
        dfa, dfma: f'(a), f'(-a).

    Returns:
        || (f'(a) - i f(a), f'(-a) + i f(-a))^T
           - Ucal (f'(a) + i f(a), f'(-a) - i f(-a))^T ||, zero exactly when
        the data satisfies the extension's boundary conditions.
    """
    minus = np.array([dfa - 1j * fa, dfma + 1j * fma])
    plus = np.array([dfa + 1j * fa, dfma - 1j * fma])
    return float(np.linalg.norm(minus - bc.Ucal.matrix @ plus))
