"""Deficiency bases: normalized solutions of -g'' + V g = i g.

For an even potential the basis is the even/odd pair (g+, g-) integrated
from the midpoint and reflected; for a general bounded potential it is an
L2-orthonormal pair obtained by Gram-Schmidt on the two fundamental
solutions launched from x = -a.  Both constructions fix a deterministic
phase, so every downstream unitary parametrization is reproducible.

Boundary data is stored row-wise as (g'(a), g(a), g'(-a), g(-a)); the two
defining endpoint identities,

    conj(g_j'(a)) g_k(a) - conj(g_j(a)) g_k'(a)
        - conj(g_j'(-a)) g_k(-a) + conj(g_j(-a)) g_k'(-a) = 2i delta_jk

and its conjugation-free counterpart equal to zero, are asserted after
every construction along with L2 orthonormality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import odesolve
from .errors import DegeneracyError, InvariantViolation, ModeError, ParityError
from .odesolve import OdeSolution
from .potential import Potential

EVEN_MODE = "even-potential"
GENERAL_MODE = "general"

ORTHONORMALITY_TOL = 1e-8
WRONSKIAN_TOL = 1e-8
SINGULARITY_RATIO = 1e-8
GS_DEPENDENCE_RATIO = 1e-10


@dataclass(frozen=True)
class DeficiencyBasis:
    """Boundary data and trajectories of a normalized deficiency pair.

    Attributes:
        parity_mode: "even-potential" or "general".
        potential: the potential the basis belongs to.
        boundary_table: 2x4 complex, rows (g_j'(a), g_j(a), g_j'(-a), g_j(-a)).
        mat_A, mat_B: properties, diag(g+(a), g-(a)) and diag(g+'(a), g-'(a))
            read from boundary_table in even-potential mode, None in general mode.
        trajectories: the two normalized dense solutions (None when the
            basis was deserialized from boundary data alone).
    """

    parity_mode: str
    potential: Potential
    boundary_table: np.ndarray
    trajectories: tuple[OdeSolution, OdeSolution] | None

    @property
    def mat_A(self):
        return np.diag(self.boundary_table[:, 1]) if self.parity_mode == EVEN_MODE else None

    @property
    def mat_B(self):
        return np.diag(self.boundary_table[:, 0]) if self.parity_mode == EVEN_MODE else None

    @cached_property
    def _a_pm_ib(self):
        """(A - iB, A + iB, conj(A) - i conj(B), conj(A) + i conj(B)), derived once per basis."""
        a, b = self.mat_A, self.mat_B
        return a - 1j * b, a + 1j * b, np.conj(a) - 1j * np.conj(b), np.conj(a) + 1j * np.conj(b)

    # -- serialization --------------------------------------------------------

    def to_json(self):
        from .jsonio import matrix_to_json
        data = {
            "mode": self.parity_mode,
            "potential": self.potential.to_json(),
            "boundary_table": [[[z.real, z.imag] for z in row] for row in self.boundary_table],
        }
        if self.mat_A is not None:
            data["mat_A"] = matrix_to_json(self.mat_A)
            data["mat_B"] = matrix_to_json(self.mat_B)
        return data

    @classmethod
    def from_json(cls, data):
        """The basis a to_json record describes, with its endpoint identities
        checked; in even mode the file's mat_A and mat_B must equal the
        diagonals of its boundary table (InvariantViolation otherwise).
        ModeError for an unknown mode, ValueError for a table that is not
        2 rows of 4 [re, im] pairs.  Older files also carry the matrix
        that scaled the raw solutions onto the basis; it is ignored."""
        from .jsonio import _complex, matrix_from_json
        if data["mode"] not in (EVEN_MODE, GENERAL_MODE):
            raise ModeError(f"basis mode {data['mode']!r} is neither {EVEN_MODE!r} "
                            f"nor {GENERAL_MODE!r}")
        try:
            table = np.array([[_complex(z) for z in row] for row in data["boundary_table"]])
        except (TypeError, ValueError):
            table = None
        if np.shape(table) != (2, 4):
            raise ValueError("basis boundary_table is not 2 rows of 4 [re, im] pairs")
        basis = cls(data["mode"], Potential.from_json(data["potential"]), table, None)
        _check_endpoint_identities(basis.parity_mode, table)
        if basis.parity_mode == EVEN_MODE and not all(
                key in data and np.array_equal(matrix_from_json(data[key]), getattr(basis, key))
                for key in ("mat_A", "mat_B")):
            raise InvariantViolation("mat_A and mat_B differ from diag(g(a)) and diag(g'(a)) "
                                     "of the boundary table")
        return basis


def endpoint_form(table, j, k, conjugate_first=True):
    """The boundary bilinear form between rows j and k of a boundary table.

    With conjugation on row j this equals 2i delta_jk for a deficiency
    basis; without conjugation it vanishes identically.
    """
    tj = np.conj(table[j]) if conjugate_first else table[j]
    tk = table[k]
    return tj[0] * tk[1] - tj[1] * tk[0] - tj[2] * tk[3] + tj[3] * tk[2]


def wronskian_identity(table, j):
    """g_j(a) conj(g_j'(a)) - g_j'(a) conj(g_j(a)); equals i when normalized."""
    dg, g = table[j, 0], table[j, 1]
    return g * np.conj(dg) - dg * np.conj(g)


def _check_endpoint_identities(mode, table):
    for j in range(2):
        for k in range(2):
            want = 2j if j == k else 0.0
            got = endpoint_form(table, j, k)
            if abs(got - want) > ORTHONORMALITY_TOL:
                raise InvariantViolation(
                    f"endpoint identity ({j},{k}) = {got}, expected {want}")
            got2 = endpoint_form(table, j, k, conjugate_first=False)
            if abs(got2) > ORTHONORMALITY_TOL:
                raise InvariantViolation(f"conjugation-free identity ({j},{k}) = {got2} != 0")
    if mode == EVEN_MODE:
        for j in range(2):
            w = wronskian_identity(table, j)
            if abs(w - 1j) > WRONSKIAN_TOL:
                raise InvariantViolation(f"endpoint Wronskian of row {j} = {w}, expected i")


def _check_orthonormality(g1, g2):
    for j, gj in enumerate((g1, g2)):
        nrm = odesolve.l2_inner(gj, gj).real
        if abs(nrm - 1.0) > ORTHONORMALITY_TOL:
            raise InvariantViolation(f"basis function {j} has norm^2 = {nrm}")
    cross = odesolve.l2_inner(g1, g2)
    if abs(cross) > ORTHONORMALITY_TOL:
        raise InvariantViolation(f"<g1, g2> = {cross}, expected 0")


def _check_diagonal_invertible(diagonal, label):
    sigma = np.abs(diagonal)
    if sigma.min() <= SINGULARITY_RATIO * sigma.max():
        raise InvariantViolation(f"{label} is numerically singular: |diag| = {sigma}")


def _mirror(sol, even):
    """Extend a trajectory on [0, a] to [-a, a] by parity."""
    sign = 1.0 if even else -1.0
    x = np.concatenate([-sol.x[::-1], sol.x[1:]])
    f = np.concatenate([sign * sol.f[::-1], sol.f[1:]])
    df = np.concatenate([-sign * sol.df[::-1], sol.df[1:]])
    n_left = len(sol.x) - 1
    # mirrored piece boundaries, then the original ones shifted right
    seg = tuple(n_left - s for s in reversed(sol.segments[1:])) if len(sol.segments) > 1 else ()
    segments = (0, *seg, *(s + n_left for s in sol.segments[1:]))
    # drop a duplicate boundary at x = 0 when 0 is itself a piece edge
    segments = tuple(sorted(set(segments)))
    for arr in (x, f, df):
        arr.setflags(write=False)
    return OdeSolution(sol.lam, x, f, df, segments)


def solve_even_odd(p):
    """Deficiency basis for an even potential via midpoint shooting.

    The even candidate starts from (g, g')(0) = (1, 0), the odd one from
    (0, 1); each is reflected to [-a, a] and scaled to unit L2 norm.  The
    initial data fixes the phase: g+(0) > 0 and g-'(0) > 0.

    Raises:
        ParityError: when the potential is not even.
    """
    if not p.is_even():
        raise ParityError(f"potential {p.kind!r} is not even")

    halves = odesolve.fundamental_solutions(p, 1j, 0.0, p.a)
    fulls = [_mirror(halves[0], even=True), _mirror(halves[1], even=False)]
    g_plus, g_minus = (g.scaled(1.0 / odesolve.norm(g)) for g in fulls)

    table = np.array([
        [g_plus.df1, g_plus.f1, -g_plus.df1, g_plus.f1],
        [g_minus.df1, g_minus.f1, g_minus.df1, -g_minus.f1],
    ])

    _check_orthonormality(g_plus, g_minus)
    _check_endpoint_identities(EVEN_MODE, table)
    _check_diagonal_invertible(table[:, 1], "mat_A")
    _check_diagonal_invertible(table[:, 0], "mat_B")

    return DeficiencyBasis(EVEN_MODE, p, table, (g_plus, g_minus))


def solve_orthonormal_pair(p):
    """Deficiency basis for a general bounded potential (Gram-Schmidt).

    Integrates the fundamental pair from x = -a with initial data (1, 0)
    and (0, 1), orthogonalizes the second solution against the first in
    the L2 inner product, and normalizes both.

    Raises:
        DegeneracyError: when the orthogonalized remainder nearly vanishes.
    """
    v1, v2 = odesolve.fundamental_solutions(p, 1j, -p.a, p.a)

    n1 = odesolve.norm(v1)
    g1 = v1.scaled(1.0 / n1)
    overlap = odesolve.l2_inner(g1, v2)
    w = odesolve.combine([v2, g1], [1.0, -overlap])
    n2 = odesolve.norm(w)
    if n2 < GS_DEPENDENCE_RATIO * odesolve.norm(v2):
        raise DegeneracyError("fundamental solutions nearly dependent after Gram-Schmidt")
    g2 = w.scaled(1.0 / n2)

    table = np.array([
        [g1.df1, g1.f1, g1.df0, g1.f0],
        [g2.df1, g2.f1, g2.df0, g2.f0],
    ])

    _check_orthonormality(g1, g2)
    _check_endpoint_identities(GENERAL_MODE, table)

    return DeficiencyBasis(GENERAL_MODE, p, table, (g1, g2))


def change_of_basis(basis_from, basis_to):
    """Unitary C with (basis_to)_m = sum_j C[m, j] (basis_from)_j.

    Solved from the boundary data at x = +a and cross-checked at -a; both
    bases must belong to the same potential.  The coefficient matrix is
    exact because the deficiency space is two-dimensional.
    """
    tf, tt = basis_from.boundary_table, basis_to.boundary_table
    lhs = np.array([[tf[0, 1], tf[1, 1]], [tf[0, 0], tf[1, 0]]])  # columns j: (g_j(a), g_j'(a))
    rhs = np.array([[tt[0, 1], tt[1, 1]], [tt[0, 0], tt[1, 0]]])
    c = np.linalg.solve(lhs, rhs).T
    # consistency at -a
    lhs_m = np.array([[tf[0, 3], tf[1, 3]], [tf[0, 2], tf[1, 2]]])
    rhs_m = np.array([[tt[0, 3], tt[1, 3]], [tt[0, 2], tt[1, 2]]])
    defect = np.abs(lhs_m @ c.T - rhs_m).max()
    if defect > 1e-7:
        raise InvariantViolation(f"change of basis inconsistent at x = -a (defect {defect})")
    return c
