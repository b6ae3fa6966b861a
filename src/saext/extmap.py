"""Bijection between the von Neumann parameter U and the boundary unitary.

A self-adjoint extension of -d^2/dx^2 + V on [-a, a] is labelled by a 2x2
unitary U acting on the deficiency basis.  With the endpoint matrices
A = diag(g+(a), g-(a)) and B = diag(g+'(a), g-'(a)) one forms

    V  = conj(A) - i conj(B) + conj(U) (A - i B)
    V~ = -[conj(A) + i conj(B) + conj(U) (A + i B)]

(both nonsingular whenever U is unitary), then Ut = V^-1 V~ and finally
the boundary unitary Ucal = (1/2) P Ut Q with P = [[1,1],[-1,1]] and
Q = [[1,-1],[1,1]].  Ucal relates the endpoint data of every function in
the extension domain through

    (f'(a) - i f(a), f'(-a) + i f(-a))^T = Ucal (f'(a) + i f(a), f'(-a) - i f(-a))^T.

The inverse direction recovers conj(U) from Ucal as the unique solution
of a 4x4 linear system; for a general (non-even) potential the same
boundary unitary is produced from an orthonormal deficiency pair without
any parity assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deficiency import EVEN_MODE, GENERAL_MODE, DeficiencyBasis
from .errors import (InternalConsistencyError, LinearIndependenceError, ModeError,
                     UnitarityError, UniquenessError)

INPUT_UNITARITY_TOL = 1e-10
OUTPUT_UNITARITY_TOL = 1e-9
GENERAL_UNITARITY_TOL = 1e-8
SINGULARITY_RATIO = 1e-8
UNIQUENESS_RATIO = 1e-10

_IDENTITY = np.eye(2)
_P = np.array([[1.0, 1.0], [-1.0, 1.0]])
_Q = np.array([[1.0, -1.0], [1.0, 1.0]])


@dataclass(frozen=True)
class Unitary2:
    """A certified 2x2 unitary matrix (read-only entries)."""

    matrix: np.ndarray

    @staticmethod
    def defect_of(m):
        """Frobenius distance of m^dagger m from the identity."""
        return float(np.linalg.norm(m.conj().T @ m - _IDENTITY))

    @classmethod
    def certify(cls, matrix, tol=INPUT_UNITARITY_TOL):
        m = np.array(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise UnitarityError(f"expected a 2x2 matrix, got shape {m.shape}")
        defect = cls.defect_of(m)
        if defect > tol:
            raise UnitarityError(f"unitarity defect {defect:.3e} exceeds tolerance {tol:.1e}")
        m.setflags(write=False)
        return cls(m)

    @property
    def defect(self):
        return self.defect_of(self.matrix)


@dataclass(frozen=True)
class MapPair:
    """One extension seen from both ends of the correspondence."""

    basis: DeficiencyBasis
    U: Unitary2
    Utilde: Unitary2
    Ucal: Unitary2
    V: np.ndarray
    Vtilde: np.ndarray


def _require_mode(basis, mode):
    if basis.parity_mode != mode:
        raise ModeError(f"basis is in {basis.parity_mode!r} mode, need {mode!r}")


def build_V_Vtilde(basis, u_matrix):
    """The pair (V, V~) for an arbitrary (not necessarily unitary) matrix.

    Keeping non-unitary inputs legal matters: the identity

        V V^dag - V~ V~^dag = 2 (I - conj(U) conj(U)^dag)

    holds for every complex U and is the working test that the map lands
    on a unitary exactly when U is one.
    """
    _require_mode(basis, EVEN_MODE)
    a_mat, b_mat = basis.mat_A, basis.mat_B
    uc = np.conj(np.asarray(u_matrix, dtype=complex))
    v = np.conj(a_mat) - 1j * np.conj(b_mat) + uc @ (a_mat - 1j * b_mat)
    vt = -(np.conj(a_mat) + 1j * np.conj(b_mat) + uc @ (a_mat + 1j * b_mat))
    return v, vt


def forward_map(basis, u):
    """Map the von Neumann unitary U to the boundary unitary Ucal.

    Args:
        basis: even-potential deficiency basis.
        u: certified Unitary2.

    Returns:
        MapPair carrying U, Ut = V^-1 V~, Ucal = (1/2) P Ut Q and the
        intermediate matrices; Ucal is certified unitary on return.

    Raises:
        InternalConsistencyError: if V is numerically singular, which a
            valid basis cannot produce for unitary U.
    """
    v, vt = build_V_Vtilde(basis, u.matrix)
    sigma = np.linalg.svd(v, compute_uv=False)
    if sigma[-1] <= SINGULARITY_RATIO * sigma[0]:
        raise InternalConsistencyError(
            f"V is singular (sigma = {sigma}) for a certified unitary input")
    utilde = np.linalg.solve(v, vt)
    ucal = 0.5 * _P @ utilde @ _Q
    return MapPair(basis, u,
                   Unitary2.certify(utilde, OUTPUT_UNITARITY_TOL),
                   Unitary2.certify(ucal, OUTPUT_UNITARITY_TOL),
                   v, vt)


def inverse_map(basis, ucal):
    """Recover the von Neumann unitary U from a boundary unitary Ucal.

    Undoes the endpoint change of basis (Ut = (1/2) Q Ucal P) and solves
    the linear system obtained from V Ut = V~,

        conj(U) [(A - iB) Ut + (A + iB)]
            = -[(conj(A) - i conj(B)) Ut + (conj(A) + i conj(B))],

    materialized by ``homogeneous_system`` as a 4x4 matrix acting on the
    row-major vectorization of conj(U).  Uniqueness of the solution is
    exactly invertibility of that system, which is checked and reported.
    """
    system = homogeneous_system(basis, ucal)
    a_conj, b_conj = np.conj(basis.mat_A), np.conj(basis.mat_B)
    utilde = 0.5 * _Q @ ucal.matrix @ _P
    rhs = -((a_conj - 1j * b_conj) @ utilde + (a_conj + 1j * b_conj))
    sigma = np.linalg.svd(system, compute_uv=False)
    if sigma[-1] <= UNIQUENESS_RATIO * sigma[0]:
        raise UniquenessError(f"inverse-map system near singular (sigma = {sigma})")
    x = np.linalg.solve(system, rhs.reshape(-1))
    return Unitary2.certify(np.conj(x.reshape(2, 2)), OUTPUT_UNITARITY_TOL)


def homogeneous_system(basis, ucal):
    """The 4x4 matrix of the inverse-map system (for uniqueness margins)."""
    _require_mode(basis, EVEN_MODE)
    utilde = 0.5 * _Q @ ucal.matrix @ _P
    m = (basis.mat_A - 1j * basis.mat_B) @ utilde + (basis.mat_A + 1j * basis.mat_B)
    return np.kron(np.eye(2), m.T)  # K @ vec(X) = vec(X @ m), row-major


def forward_map_general(basis, u):
    """Boundary unitary from an orthonormal deficiency pair (any potential).

    Builds the domain representatives G_j = g_j + sum_k u_jk conj(g_k)
    from boundary data alone, forms the endpoint vectors

        z_j(+) = (G_j'(a) - i G_j(a), G_j'(-a) + i G_j(-a))^T
        z_j(-) = (G_j'(a) + i G_j(a), G_j'(-a) - i G_j(-a))^T

    and returns Ucal = (Z- (Z+)^-1)^dagger, the unique unitary with
    z_j(-) = Ucal^dagger z_j(+).  Ucal satisfies the same endpoint
    relation as the even-potential map.
    """
    _require_mode(basis, GENERAL_MODE)
    table = basis.boundary_table
    g = table + u.matrix @ np.conj(table)  # rows (G_j'(a), G_j(a), G_j'(-a), G_j(-a))
    z_plus = np.array([g[:, 0] - 1j * g[:, 1], g[:, 2] + 1j * g[:, 3]])
    z_minus = np.array([g[:, 0] + 1j * g[:, 1], g[:, 2] - 1j * g[:, 3]])
    sigma = np.linalg.svd(z_plus, compute_uv=False)
    if sigma[-1] <= SINGULARITY_RATIO * sigma[0]:
        raise LinearIndependenceError(
            f"endpoint vectors dependent (sigma = {sigma}) for a unitary input")
    w = np.linalg.solve(z_plus.T, z_minus.T).T  # w = z_minus @ z_plus^-1
    return Unitary2.certify(w.conj().T, GENERAL_UNITARITY_TOL)


def haar_unitary(rng):
    """A Haar-distributed 2x2 unitary (QR of a complex Gaussian, phase-fixed)."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_matrix(rng):
    """An unconstrained complex Gaussian 2x2 matrix (almost surely non-unitary)."""
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


def check_identities(basis, samples, seed=0):
    """Sampled verification of the structural identities of the map.

    Over ``samples`` Haar-random unitaries and as many random non-unitary
    matrices, checks that (i) V V^dag - V~ V~^dag = 2(I - conj(U) conj(U)^dag)
    for every input, (ii) V and V~ stay well away from singular for all
    unitary inputs, and (iii) the 4x4 inverse-map system keeps a healthy
    smallest singular value.  Failures are counted, never raised.

    Returns:
        report dict with per-check pass counts, worst margins and thresholds.
    """
    _require_mode(basis, EVEN_MODE)
    rng = np.random.default_rng(seed)
    identity_tol = 1e-8
    sigma_floor = 1e-6

    worst_identity = 0.0
    worst_sigma_v = np.inf
    worst_sigma_vt = np.inf
    worst_sigma_system = np.inf
    worst_unitarity = 0.0
    fails = {"identity": 0, "v_nonsingular": 0, "vtilde_nonsingular": 0,
             "homogeneous_system": 0, "forward_unitarity": 0}

    draws = [(haar_unitary(rng), True) for _ in range(samples)]
    draws += [(random_matrix(rng), False) for _ in range(samples)]

    for u_mat, unitary in draws:
        v, vt = build_V_Vtilde(basis, u_mat)
        uc = np.conj(u_mat)
        lhs = v @ v.conj().T - vt @ vt.conj().T
        rhs = 2.0 * (_IDENTITY - uc @ uc.conj().T)
        scale = max(1.0, np.linalg.norm(rhs))
        residual = float(np.linalg.norm(lhs - rhs)) / scale
        worst_identity = max(worst_identity, residual)
        if residual > identity_tol:
            fails["identity"] += 1
        if not unitary:
            continue
        sv = np.linalg.svd(v, compute_uv=False)[-1]
        svt = np.linalg.svd(vt, compute_uv=False)[-1]
        worst_sigma_v = min(worst_sigma_v, float(sv))
        worst_sigma_vt = min(worst_sigma_vt, float(svt))
        if sv <= sigma_floor:
            fails["v_nonsingular"] += 1
        if svt <= sigma_floor:
            fails["vtilde_nonsingular"] += 1
        pair = forward_map(basis, Unitary2.certify(u_mat))
        worst_unitarity = max(worst_unitarity, pair.Ucal.defect)
        if pair.Ucal.defect > OUTPUT_UNITARITY_TOL:
            fails["forward_unitarity"] += 1
        ss = np.linalg.svd(homogeneous_system(basis, pair.Ucal), compute_uv=False)[-1]
        worst_sigma_system = min(worst_sigma_system, float(ss))
        if ss <= sigma_floor:
            fails["homogeneous_system"] += 1

    checks = {
        "identity": {"worst": worst_identity, "threshold": identity_tol,
                     "failed": fails["identity"], "count": 2 * samples},
        "v_nonsingular": {"worst": worst_sigma_v, "threshold": sigma_floor,
                          "failed": fails["v_nonsingular"], "count": samples},
        "vtilde_nonsingular": {"worst": worst_sigma_vt, "threshold": sigma_floor,
                               "failed": fails["vtilde_nonsingular"], "count": samples},
        "homogeneous_system": {"worst": worst_sigma_system, "threshold": sigma_floor,
                               "failed": fails["homogeneous_system"], "count": samples},
        "forward_unitarity": {"worst": worst_unitarity, "threshold": OUTPUT_UNITARITY_TOL,
                              "failed": fails["forward_unitarity"], "count": samples},
    }
    return {"samples": samples,
            "passed": all(c["failed"] == 0 for c in checks.values()),
            "checks": checks}
