"""Bijection between the von Neumann parameter U and the boundary unitary.

A self-adjoint extension of -d^2/dx^2 + V on [-a, a] is labelled by a 2x2
unitary U acting on the deficiency basis.  With the endpoint matrices
A = diag(g+(a), g-(a)) and B = diag(g+'(a), g-'(a)) one forms

    V  = conj(A) - i conj(B) + conj(U) (A - i B)
    V~ = -[conj(A) + i conj(B) + conj(U) (A + i B)]

(both nonsingular whenever U is unitary, see below), then Ut = V^-1 V~
and finally the boundary unitary Ucal = (1/2) P Ut Q with
P = [[1,1],[-1,1]] and Q = [[1,-1],[1,1]].  Ucal relates the endpoint
data of every function in the extension domain through

    (f'(a) - i f(a), f'(-a) + i f(-a))^T = Ucal (f'(a) + i f(a), f'(-a) - i f(-a))^T,

psi_minus = Ucal psi_plus in the waves of deficiency.boundary_waves.  The
inverse direction recovers conj(U) from Ucal as the unique solution of a
linear system; for a general (non-even) potential the same boundary
unitary is produced from an orthonormal deficiency pair without any
parity assumption.

The maps solve their 2x2 systems unchecked: a valid basis bounds them
away from singular for every unitary input.  With V = E + conj(U) D,
E = conj(A + iB) and D = A - iB diagonal, the even basis's Wronskian
identity |g_j + i g_j'|^2 - |g_j - i g_j'|^2 = 2 at a gives, for unit x,
||Vx|| >= ||Ex|| - ||Dx|| = 2 / (||Ex|| + ||Dx||), so

    sigma_min(V) >= 2 / (max_j |g_j + i g_j'| + max_j |g_j - i g_j'|),

and so do V~ and, by rows, the inverse system's m = D Ut + (A + iB).  In
general mode the boundary form's Gram matrix of the table's rows and
their conjugates is diag(2i, 2i, -2i, -2i), which gives
sigma_min(Psi_minus) >= 2 / ||table||_2 for the waves psi_minus of the
domain representatives below.  Tests check these bounds; the maps
certify their outputs unitary.

Every map takes one 2x2 matrix or an (n, 2, 2) stack of them.  The maps and
their closed-form singular values, solves and unitarity defects (shared with
``bcclassify``) are written on the four entries of a matrix: Python numbers
for one matrix, length-n arrays for a stack.  Each helper tests once whether
it has a stack.  ``forward_map`` solves Ut on the entries of V and V~ and
builds neither matrix: a MapPair builds them when its V or Vtilde is read,
bit for bit the same.  ``check_identities`` certifies this same code: it
sends all its Haar draws through ``forward_map`` as one stack.

``haar_unitary`` draws U the same way: the phase-fixed QR of a complex
Gaussian Z in closed form on Z's four entries, with no LAPACK call.  It
keeps three contracts: Z is ``random_matrix(rng, n)``, so a seeded caller
takes its Gaussians in random_matrix's order; a stack is bit for bit the
same as n single draws; and a singular Z, of probability zero, is not
guarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .deficiency import EVEN_MODE, GENERAL_MODE, DeficiencyBasis
from .errors import ModeError, UnitarityError

INPUT_UNITARITY_TOL = 1e-10
OUTPUT_UNITARITY_TOL = 1e-9
GENERAL_UNITARITY_TOL = 1e-8
SIGMA_FLOOR = 1e-6


def _entries(m):
    """(m00, m01, m10, m11) of a 2x2 matrix as Python numbers, or of an
    (n, 2, 2) stack as four length-n arrays."""
    return m.ravel().tolist() if m.ndim == 2 else tuple(m.reshape(-1, 4).T)


def _matrix(a, b, c, d):
    """The complex matrix [[a, b], [c, d]], or the (n, 2, 2) stack of length-n arrays."""
    if isinstance(a, np.ndarray):
        return np.array([[a, b], [c, d]], dtype=complex).transpose(2, 0, 1)  # a stack's index first
    m = np.empty((2, 2), dtype=complex)  # filled in place: one array that owns its data
    m[0, 0], m[0, 1], m[1, 0], m[1, 1] = a, b, c, d
    return m


def _gram(a, b, c, d):
    """(p, q, o) with m^dagger m = [[p, o], [conj(o), q]] for m = [[a, b], [c, d]]."""
    return (abs(a) ** 2 + abs(c) ** 2, abs(b) ** 2 + abs(d) ** 2,
            a.conjugate() * b + c.conjugate() * d)


def _unitarity_defect(a, b, c, d):
    """||m^dagger m - I||_F of m = [[a, b], [c, d]] (entrywise on stacks)."""
    p, q, o = _gram(a, b, c, d)
    return ((p - 1.0) ** 2 + (q - 1.0) ** 2 + 2.0 * abs(o) ** 2) ** 0.5


def _balanced(a, b, c, d):
    """(entries / s, s), per matrix of a stack: s is the largest power of
    two at most max |m_ij| where that lies outside [2**-500, 2**500], else
    1, and at least 2**-1022 (numpy divides by the reciprocal)."""
    e = np.frexp(np.max([abs(a), abs(b), abs(c), abs(d)], axis=0))[1] - 1  # 0, inf, NaN: -1
    s = np.ldexp(1.0, np.where(np.abs(e) <= 500, 0, np.maximum(e, -1022)))
    return (a / s, b / s, c / s, d / s), s


def _singular_values(m):
    """[sigma_max, sigma_min] of the 2x2 matrix with entries m = (a, b, c, d),
    each a length-n array for a stack's entries.

    sigma_max^2 is the larger eigenvalue of the Gram matrix, which keeps
    full relative precision also when both singular values are equal, and
    sigma_min = |det m| / sigma_max.  The absolute value of a complex
    number serves as the overflow-safe hypot, on Python numbers and on
    arrays alike.  A stack, and one matrix whose squares leave the float
    range, are computed from m / s (_balanced) and multiplied by s.
    """
    a, b, c, d = m
    s = None
    if isinstance(a, np.ndarray):
        (a, b, c, d), s = _balanced(a, b, c, d)
        p, q, o = _gram(a, b, c, d)
    else:
        try:
            p, q, o = _gram(a, b, c, d)
        except OverflowError:  # Python floats raise it where numpy gives inf
            p = q = np.inf
        if not 2.0 ** -1000 <= p + q <= 2.0 ** 1000:
            (a, b, c, d), s = _balanced(a, b, c, d)
            p, q, o = _gram(a, b, c, d)
    s_max = (0.5 * (p + q) + abs(0.5 * (p - q) + 1j * abs(o))) ** 0.5
    # the zero matrix has det 0: divide by 1 there, not by sigma_max = 0
    s_min = abs(a * d - b * c) / (s_max + (s_max == 0.0))
    return [s_max, s_min] if s is None else [s * s_max, s * s_min]


def _solve(lhs, rhs):
    """The entries of lhs^-1 rhs by Cramer's rule, from the entries of two
    2x2 matrices or of two stacks; a stack, and one lhs whose det leaves
    the float range, as adj(lhs / s) rhs / (s det(lhs / s)) (_balanced).
    ZeroDivisionError if a single lhs is exactly singular."""
    a, b, c, d = lhs
    if isinstance(a, np.ndarray):
        (a, b, c, d), s = _balanced(a, b, c, d)
        det = (a * d - b * c) * s
    else:
        det = (a * d - b * c) * 1.0  # as by s = 1: the complex product sets det's signed zeros
        if not 2.0 ** -1000 <= abs(det) <= 2.0 ** 1000:
            (a, b, c, d), s = _balanced(a, b, c, d)
            det = (a * d - b * c) * s
    e, f, g, h = rhs
    return ((d * e - b * g) / det, (d * f - b * h) / det,
            (a * g - c * e) / det, (a * h - c * f) / det)


@dataclass(frozen=True)
class Unitary2:
    """A certified 2x2 unitary matrix, or an (n, 2, 2) stack of them
    certified by its worst defect (read-only entries)."""

    matrix: np.ndarray

    @staticmethod
    def defect_of(m):
        """Frobenius distance of m^dagger m from the identity, per matrix of a stack."""
        return _unitarity_defect(*_entries(m))

    @classmethod
    def certify(cls, matrix, tol=INPUT_UNITARITY_TOL):
        m = np.array(matrix, dtype=complex)
        if m.shape != (2, 2) and (m.ndim != 3 or m.shape[1:] != (2, 2)):
            raise UnitarityError(f"expected a 2x2 matrix or a stack of them, got shape {m.shape}")
        return cls._certified(_entries(m), tol, m)

    @classmethod
    def _certified(cls, entries, tol=INPUT_UNITARITY_TOL, matrix=None):
        """Certify the entries of one matrix or a stack, then freeze ``matrix`` or their own."""
        defect = _unitarity_defect(*entries)
        defect = np.max(defect, initial=0.0) if isinstance(defect, np.ndarray) else defect
        if not defect <= tol:  # a NaN defect fails too
            raise UnitarityError(f"unitarity defect {defect:.3e} exceeds tolerance {tol:.1e}")
        m = _matrix(*entries) if matrix is None else matrix
        m.setflags(write=False)
        return cls(m)

    @property
    def defect(self):
        return self.defect_of(self.matrix)


class MapPair(NamedTuple):
    """One extension seen from both ends of the correspondence.  V and V~
    are not kept: each read builds them from U (build_V_Vtilde)."""

    basis: DeficiencyBasis
    U: Unitary2
    Utilde: Unitary2
    Ucal: Unitary2

    @property
    def V(self):
        return build_V_Vtilde(self.basis, self.U.matrix)[0]

    @property
    def Vtilde(self):
        return build_V_Vtilde(self.basis, self.U.matrix)[1]


def _require_mode(basis, mode):
    if basis.parity_mode != mode:
        raise ModeError(f"basis is in {basis.parity_mode!r} mode, need {mode!r}")


def _product(z, w):
    """z w on a stack's arrays in the real arithmetic of Python's complex product
    (numpy's rounds apart)."""
    return (z.real * w.real - z.imag * w.imag) + 1j * (z.real * w.imag + z.imag * w.real)


def _scaled(zs, ws, diag, negate=False):
    """z w for paired entries, plus the pair diag on the diagonal, negated
    if asked; _product on a stack's arrays."""
    z0, z1, z2, z3 = zs
    w0, w1, w2, w3 = ws
    if isinstance(z0, np.ndarray):
        x = _product(z0, w0) + diag[0], _product(z1, w1), _product(z2, w2), _product(z3, w3) + diag[1]
    else:
        x = z0 * w0 + diag[0], z1 * w1, z2 * w2, z3 * w3 + diag[1]
    return (-x[0], -x[1], -x[2], -x[3]) if negate else x


def _v_vtilde(basis, u):
    """The entries of V and V~ for the entries u of U, or of a stack."""
    _require_mode(basis, EVEN_MODE)
    d, ce, e, cd = basis._a_pm_ib  # D = A - iB and E = conj(A + iB), diagonal
    u00, u01, u10, u11 = u
    uc = u00.conjugate(), u01.conjugate(), u10.conjugate(), u11.conjugate()
    return _scaled(uc, d * 2, e), _scaled(uc, ce * 2, cd, negate=True)


def build_V_Vtilde(basis, u_matrix):
    """The pair (V, V~) for an arbitrary (not necessarily unitary) matrix,
    or for each matrix of an (n, 2, 2) stack.

    Keeping non-unitary inputs legal matters: the identity

        V V^dag - V~ V~^dag = 2 (I - conj(U) conj(U)^dag)

    holds for every complex U and is the working test that the map lands
    on a unitary exactly when U is one.
    """
    v, vt = _v_vtilde(basis, _entries(np.asarray(u_matrix, dtype=complex)))
    return _matrix(*v), _matrix(*vt)


def forward_map(basis, u):
    """Map the von Neumann unitary U to the boundary unitary Ucal.

    Args:
        basis: even-potential deficiency basis.
        u: certified Unitary2, one matrix or a stack.

    Returns:
        MapPair carrying U, Ut = V^-1 V~ and Ucal = (1/2) P Ut Q, stacked
        as U is; Ut and Ucal are certified unitary on return.  Ut is solved
        on the entries of V and V~, which the pair builds again only when
        its V or Vtilde is read.  V is never singular for a unitary U
        (module docstring).

    Raises:
        UnitarityError: if Ut or Ucal fails its certification.
    """
    utilde = t00, t01, t10, t11 = _solve(*_v_vtilde(basis, _entries(u.matrix)))
    r0, r1, r2, r3 = t00 + t10, t01 + t11, t10 - t00, t11 - t01  # P Ut
    ucal = 0.5 * (r0 + r1), 0.5 * (r1 - r0), 0.5 * (r2 + r3), 0.5 * (r3 - r2)
    return MapPair(basis, u, Unitary2._certified(utilde, OUTPUT_UNITARITY_TOL),
                   Unitary2._certified(ucal, OUTPUT_UNITARITY_TOL))


def _inverse_entries(basis, ucal):
    """The entries of (m, rhs) in the inverse-map system conj(U) m = rhs."""
    _require_mode(basis, EVEN_MODE)
    d, ce, e, cd = basis._a_pm_ib
    u00, u01, u10, u11 = ucal
    q0, q1, q2, q3 = u00 - u10, u01 - u11, u00 + u10, u01 + u11  # Q Ucal
    t = 0.5 * (q0 - q1), 0.5 * (q0 + q1), 0.5 * (q2 - q3), 0.5 * (q2 + q3)
    return (_scaled(t, (d[0], d[0], d[1], d[1]), ce),
            _scaled(t, (e[0], e[0], e[1], e[1]), cd, negate=True))


def _inverse_system(basis, ucal):
    """(m, rhs) of _inverse_entries for a boundary unitary matrix or a stack."""
    return tuple(_matrix(*x) for x in _inverse_entries(basis, _entries(ucal)))


def inverse_map(basis, ucal):
    """Recover the von Neumann unitary U from a boundary unitary Ucal.

    Undoes the endpoint change of basis (Ut = (1/2) Q Ucal P) and solves
    the linear system obtained from V Ut = V~,

        conj(U) m = rhs,  m = (A - iB) Ut + (A + iB),
        rhs = -[(conj(A) - i conj(B)) Ut + (conj(A) + i conj(B))],

    as a 2x2 system.  Uniqueness of the solution is exactly invertibility
    of m, which V's bound gives for every unitary Ucal (module docstring).
    ucal may be one certified matrix or a stack, and so is the returned U,
    certified unitary (UnitarityError otherwise).
    """
    (m00, m01, m10, m11), (r00, r01, r10, r11) = _inverse_entries(basis, _entries(ucal.matrix))
    x00, x10, x01, x11 = _solve((m00, m10, m01, m11), (r00, r10, r01, r11))  # x m = rhs, transposed
    return Unitary2._certified((x00.conjugate(), x01.conjugate(), x10.conjugate(), x11.conjugate()),
                               OUTPUT_UNITARITY_TOL)


def forward_map_general(basis, u):
    """Boundary unitary from an orthonormal deficiency pair (any potential).

    Returns the unique unitary Ucal with psi_minus(G_j) = Ucal psi_plus(G_j)
    for the domain representatives G_j = g_j + sum_k u_jk conj(g_k):
    Ucal = conj(Psi_minus^-1 Psi_plus), row j of Psi_-+ the wave of G_j's
    boundary row, W + U W' for the waves W, W' of the table and its conj.
    sigma_min(Psi_minus) >= 2 / ||table||_2 (module docstring); Ucal is
    certified unitary (UnitarityError otherwise).
    """
    _require_mode(basis, GENERAL_MODE)
    u00, u01, u10, u11 = _entries(u.matrix)
    psi = [(w0 + u00 * c0 + u01 * c2, w1 + u00 * c1 + u01 * c3,
            w2 + u10 * c0 + u11 * c2, w3 + u10 * c1 + u11 * c3)
           for (w0, w1, w2, w3), (c0, c1, c2, c3) in basis._waves]
    x00, x01, x10, x11 = _solve(*psi)
    return Unitary2._certified((x00.conjugate(), x01.conjugate(), x10.conjugate(), x11.conjugate()),
                               GENERAL_UNITARITY_TOL)


def random_matrix(rng, n=None):
    """An unconstrained complex Gaussian 2x2 matrix (almost surely non-unitary),
    or an (n, 2, 2) stack: real parts, then imaginary parts, per matrix."""
    z = rng.standard_normal((2, 2, 2) if n is None else (n, 2, 2, 2))
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def haar_unitary(rng, n=None):
    """A Haar-distributed 2x2 unitary, or an (n, 2, 2) stack of them.

    Q of the QR factorization Z = Q R of a complex Gaussian Z with R's
    diagonal made real and positive (Mezzadri, Notices AMS 54 (2007) 592),
    in closed form on Z's entries: q1 = z1 / ||z1|| for Z's columns z1, z2,
    and q2 = rho (-conj(q1[1]), conj(q1[0])), orthogonal to q1 by
    construction, with rho = r / |r| for r = q1[0] z2[1] - q1[1] z2[0],
    which makes R22 = conj(rho) r = |r| positive.  Three contracts hold:
    Z is random_matrix(rng, n), so seeded callers take its Gaussians;
    a stack is bit for bit the same as n single draws, since both run the
    same real arithmetic (math.sqrt on Python floats, np.sqrt on arrays);
    and a singular Z, which has probability zero, is not guarded.
    """
    z00, z01, z10, z11 = _entries(random_matrix(rng, n))
    sqrt = math.sqrt if n is None else np.sqrt
    norm = sqrt(z00.real * z00.real + z00.imag * z00.imag
                + z10.real * z10.real + z10.imag * z10.imag)
    ar, ai, cr, ci = z00.real / norm, z00.imag / norm, z10.real / norm, z10.imag / norm
    rr = (ar * z11.real - ai * z11.imag) - (cr * z01.real - ci * z01.imag)
    ri = (ar * z11.imag + ai * z11.real) - (cr * z01.imag + ci * z01.real)
    size = sqrt(rr * rr + ri * ri)
    pr, pi = rr / size, ri / size  # rho
    return _matrix(ar + 1j * ai, -(cr * pr + ci * pi) + 1j * (ci * pr - cr * pi),
                   cr + 1j * ci, (ar * pr + ai * pi) + 1j * (ar * pi - ai * pr))


def check_identities(basis, samples, seed=0):
    """Sampled verification of the structural identities of the map.

    Over ``samples`` Haar-random unitaries and as many random non-unitary
    matrices, checks that (i) V V^dag - V~ V~^dag = 2(I - conj(U) conj(U)^dag)
    for every input, (ii) V and V~ stay well away from singular for all
    unitary inputs, and (iii) the inverse-map system keeps a healthy
    smallest singular value (that of m, which the 4x4 form repeats).
    Failures are counted, never raised.  The Haar draws go through
    ``forward_map`` as one stack, so V, V~ and Ucal are the ones users
    get, with its certification of input and output; those raise, as
    they would for a single matrix.

    Returns:
        report dict with per-check pass counts, worst margins and thresholds.
    """
    _require_mode(basis, EVEN_MODE)
    rng = np.random.default_rng(seed)
    haar, rand = haar_unitary(rng, samples), random_matrix(rng, samples)
    u_mat = np.concatenate([haar, rand])
    v, vt = build_V_Vtilde(basis, u_mat)
    lhs = v @ v.conj().swapaxes(1, 2) - vt @ vt.conj().swapaxes(1, 2)
    rhs = 2.0 * (np.eye(2) - np.conj(u_mat) @ u_mat.swapaxes(1, 2))
    identity = (np.linalg.norm(lhs - rhs, axis=(1, 2))
                / np.maximum(1.0, np.linalg.norm(rhs, axis=(1, 2))))
    pair = forward_map(basis, Unitary2.certify(haar))
    m = _inverse_entries(basis, _entries(pair.Ucal.matrix))[0]
    v, vt = v[:samples], vt[:samples]  # pair.V and pair.Vtilde, bit for bit

    def check(values, threshold, floor):  # singular values fail at or below a floor
        return {"worst": float(np.min(values, initial=np.inf) if floor
                               else np.max(values, initial=0.0)),
                "threshold": threshold, "count": len(values),
                "failed": int(np.count_nonzero((values <= threshold) if floor
                                               else (values > threshold)))}

    checks = {name: check(values, threshold, floor) for name, values, threshold, floor in (
        ("identity", identity, 1e-8, False),
        ("v_nonsingular", _singular_values(_entries(v))[1], SIGMA_FLOOR, True),
        ("vtilde_nonsingular", _singular_values(_entries(vt))[1], SIGMA_FLOOR, True),
        ("homogeneous_system", _singular_values(m)[1], SIGMA_FLOOR, True),
        ("forward_unitarity", pair.Ucal.defect, OUTPUT_UNITARITY_TOL, False))}
    return {"samples": samples,
            "passed": all(c["failed"] == 0 for c in checks.values()),
            "checks": checks}
