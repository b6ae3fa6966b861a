"""Deficiency bases: normalized solutions of -g'' + V g = i g.

Both constructions read a raw pair of solutions at x = +-a off one
odesolve.propagate call and orthonormalize it from boundary data alone.
At lam = i, Green's identity gives every inner product the basis needs,

    2i <f, g> = [conj(f') g - conj(f) g']_{-a}^{a}     (endpoint_form),

so no dense pass and no quadrature is involved (Titchmarsh, Eigenfunction
Expansions I, 1962).  For an even potential the pair is the even/odd pair
launched from the midpoint; for a general bounded potential it is the
solution launched with (g, g') = (1, 0) from x = -a and the one launched
with (1, 0) from x = +a.  Both constructions fix a deterministic phase,
so every downstream unitary parametrization is reproducible.

Boundary data is stored as rows (f'(a), f(a), f'(-a), f(-a)), the order
of every boundary row in saext.  A row's waves (boundary_waves) are
psi_-+ = (f'(a) -+ i f(a), f'(-a) +- i f(-a)); f lies in the domain of the
extension with boundary unitary Ucal exactly when psi_minus = Ucal psi_plus,
and psi_plus(f)^dagger psi_plus(g) - psi_minus(f)^dagger psi_minus(g) =
2i endpoint_form(f, g).  For a deficiency basis endpoint_form(g_j, g_k) =
2i delta_jk and its conjugation-free counterpart is zero; both hold by
construction up to rounding and are checked when a basis is read from JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import odesolve
from .errors import InvariantViolation, ModeError, ParityError
from .jsonio import _complex, matrix_from_json, matrix_to_json
from .potential import Potential

EVEN_MODE = "even-potential"
GENERAL_MODE = "general"

ORTHONORMALITY_TOL = 1e-8
WRONSKIAN_TOL = 1e-8


@dataclass(frozen=True)
class DeficiencyBasis:
    """Boundary data of an L2-orthonormal deficiency pair.

    Attributes:
        parity_mode: "even-potential" or "general".
        potential: the potential the basis belongs to.
        boundary_table: 2x4 complex, rows (g_j'(a), g_j(a), g_j'(-a), g_j(-a)).
        mat_A, mat_B: properties, diag(g+(a), g-(a)) and diag(g+'(a), g-'(a))
            read from boundary_table in even-potential mode, None in general mode.
    """

    parity_mode: str
    potential: Potential
    boundary_table: np.ndarray

    @property
    def mat_A(self):
        return np.diag(self.boundary_table[:, 1]) if self.parity_mode == EVEN_MODE else None

    @property
    def mat_B(self):
        return np.diag(self.boundary_table[:, 0]) if self.parity_mode == EVEN_MODE else None

    @cached_property
    def _a_pm_ib(self):
        """The diagonals of A - iB, A + iB, conj(A) - i conj(B) and conj(A) + i conj(B),
        pairs of Python numbers derived once per basis."""
        ab = self.boundary_table[:, 1::-1].T  # the rows g(a), g'(a)
        return [tuple((x + s * y).tolist()) for x, y in (ab, ab.conj()) for s in (-1j, 1j)]

    @cached_property
    def _waves(self):
        """The entries of the waves (psi_minus, psi_plus) of the table (W) and of its conj (W')."""
        minus, plus = boundary_waves(np.array([self.boundary_table, np.conj(self.boundary_table)]))
        return [(w[0].ravel().tolist(), w[1].ravel().tolist()) for w in (minus, plus)]

    # -- serialization --------------------------------------------------------

    def to_json(self):
        data = {
            "mode": self.parity_mode,
            "potential": self.potential.to_json(),
            "boundary_table": matrix_to_json(self.boundary_table)["rows"],
        }
        if self.parity_mode == EVEN_MODE:
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
        if data["mode"] not in (EVEN_MODE, GENERAL_MODE):
            raise ModeError(f"basis mode {data['mode']!r} is neither {EVEN_MODE!r} "
                            f"nor {GENERAL_MODE!r}")
        try:
            table = np.array([[_complex(z) for z in row] for row in data["boundary_table"]])
        except (TypeError, ValueError):
            table = None
        if np.shape(table) != (2, 4):
            raise ValueError("basis boundary_table is not 2 rows of 4 [re, im] pairs")
        basis = cls(data["mode"], Potential.from_json(data["potential"]), table)
        _check_endpoint_identities(basis.parity_mode, table)
        if basis.parity_mode == EVEN_MODE and not all(
                key in data and np.array_equal(matrix_from_json(data[key]), getattr(basis, key))
                for key in ("mat_A", "mat_B")):
            raise InvariantViolation("mat_A and mat_B differ from diag(g(a)) and diag(g'(a)) "
                                     "of the boundary table")
        return basis


def _row_entries(rows):
    """The four entries of boundary rows, over the leading axes (scalars for one row)."""
    rows = np.asarray(rows)
    return rows.transpose(-1, *range(rows.ndim - 1))


def boundary_waves(rows):
    """The waves (psi_minus, psi_plus) of boundary rows, over the last axis:
    psi_-+ = (f'(a) -+ i f(a), f'(-a) +- i f(-a))."""
    df1, f1, df0, f0 = _row_entries(rows)
    psi = np.empty((2, *np.shape(rows)[:-1], 2), complex)
    psi[0, ..., 0], psi[0, ..., 1] = df1 - 1j * f1, df0 + 1j * f0
    psi[1, ..., 0], psi[1, ..., 1] = df1 + 1j * f1, df0 - 1j * f0
    return psi[0], psi[1]


def endpoint_form(f, g):
    """The boundary form [conj(f') g - conj(f) g']_{-a}^{a} of boundary rows
    f and g, over the last axis (module docstring); endpoint_form(conj(f), g),
    the form without conjugation, vanishes between the rows of a deficiency
    basis."""
    df1, f1, df0, f0 = _row_entries(np.conj(f))
    dg1, g1, dg0, g0 = _row_entries(g)
    return df1 * g1 - f1 * dg1 - df0 * g0 + f0 * dg0


def wronskian_identity(table, j):
    """g_j(a) conj(g_j'(a)) - g_j'(a) conj(g_j(a)); equals i when normalized."""
    dg, g = table[j, 0], table[j, 1]
    return g * np.conj(dg) - dg * np.conj(g)


def _check_endpoint_identities(mode, table):
    for j in range(2):
        for k in range(2):
            want = 2j if j == k else 0.0
            got = endpoint_form(table[j], table[k])
            if not abs(got - want) <= ORTHONORMALITY_TOL:  # NaN fails too, in any row
                raise InvariantViolation(
                    f"endpoint identity ({j},{k}) = {got}, expected {want}")
            got2 = endpoint_form(np.conj(table[j]), table[k])
            if abs(got2) > ORTHONORMALITY_TOL:
                raise InvariantViolation(f"conjugation-free identity ({j},{k}) = {got2} != 0")
    if mode == EVEN_MODE:
        for j in range(2):
            w = wronskian_identity(table, j)
            if abs(w - 1j) > WRONSKIAN_TOL:
                raise InvariantViolation(f"endpoint Wronskian of row {j} = {w}, expected i")


def _orthonormalized(raw):
    """The rows of raw, boundary data of two solutions, orthonormalized in order.

    Green's identity gives their Gram matrix G from boundary data alone,
    G_jk = endpoint_form(raw[j], raw[k]) / 2i; with G = L L^dagger (Cholesky),
    the rows of L^-1 raw are orthonormal.  The first keeps the phase of
    raw's first row, and the second adds to a positive multiple of raw's
    second row a multiple of the first.
    """
    # each row scaled exactly, by a power of two, so that G stays in the float range
    raw = raw * np.ldexp(1.0, -np.frexp(np.abs(raw).max(axis=1, keepdims=True))[1])
    gram = np.array([[endpoint_form(raw[j], raw[k]) for k in range(2)] for j in range(2)]) / 2j
    return np.linalg.solve(np.linalg.cholesky(gram), raw)


def solve_even_odd(p):
    """Deficiency basis for an even potential via midpoint shooting.

    The even solution starts from (g, g')(0) = (1, 0), the odd one from
    (0, 1); one propagate call over [0, a] gives both at a, and parity
    gives them at -a.  Their cross form cancels exactly, so each is only
    scaled to unit L2 norm on [-a, a].  The initial data fixes the phase:
    g+(0) > 0 and g-'(0) > 0.

    Raises:
        ParityError: when the potential is not even.
    """
    if not p.is_even():
        raise ParityError(f"potential {p.kind!r} is not even")
    (e, o), (de, do) = odesolve.propagate(p, 1j, 0.0, p.a)[0]
    return DeficiencyBasis(EVEN_MODE, p, _orthonormalized(np.array([[de, e, -de, e],
                                                                    [do, o, do, -o]])))


def solve_orthonormal_pair(p):
    """Deficiency basis for a general bounded potential.

    Orthonormalizes, in order, the solution with (g, g') = (1, 0) at x = -a
    and the one with (1, 0) at x = +a; one propagate call from -a to a,
    with transfer matrix T, gives both, since det T = 1 makes the data of
    the second at -a adj(T) (1, 0) = (T11, -T10).  The pair is independent
    for every potential: a dependent pair would be a Neumann eigenfunction
    on [-a, a] with the non-real eigenvalue i.  The phase is fixed by
    g1(-a) > 0 and g2'(-a) > 0; g2'(-a) = 0 would make g2 a multiple of g1.
    """
    t = odesolve.propagate(p, 1j, -p.a, p.a)[0]
    table = _orthonormalized(np.array([[t[1, 0], t[0, 0], 0.0, 1.0],
                                       [0.0, 1.0, -t[1, 0], t[1, 1]]]))
    table[1] *= abs(table[1, 2]) / table[1, 2]
    return DeficiencyBasis(GENERAL_MODE, p, table)


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
    if not defect <= 1e-7:  # NaN fails too
        raise InvariantViolation(f"change of basis inconsistent at x = -a (defect {defect})")
    return c
