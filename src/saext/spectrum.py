"""Spectra of self-adjoint extensions by counting levels.

The fundamental solutions u1, u2 of -f'' + V f = E f start at x = -a with
data (1, 0) and (0, 1).  Their boundary vectors (u_k'(a) -+ i u_k(a),
u_k'(-a) +- i u_k(-a)) are the columns of minus and plus, and the unitary
S(E) = minus plus^-1 maps the plus data of every solution to its minus
data.  E is an eigenvalue exactly when an eigenphase of
W(E) = Ucal^dagger S(E) is 0 mod 2 pi, as often as its multiplicity.
With C the sum of the eigenphases of a matrix, each in [0, 2 pi), and k_j
those of Ucal, the number of levels below E is

    N(E) = N_D(E) + (C(W) - C(S) + sum_j k_j) / 2 pi.

N_D, the number of zeros of u2 in (-a, a) that odesolve.propagate counts
on the x grid, is the Dirichlet (Ucal = I) count by Sturm oscillation, so
no level is missed however fast its eigenphase turns in E.  For an even V
it is the zeros of the even and the odd solution on (0, a), the counts of
the Neumann-at-0 and Dirichlet-at-0 levels on the half interval, from one
pass over [0, a] that also gives T over [-a, a] by reflection.  The rest
counts the eigenphase crossings of 0 along exp(i t K), K >= 0, from I to Ucal
(Bailey, Everitt and Zettl, ACM TOMS 27 (2001) 143; Howard and Sukhtayev,
JDE 260 (2016) 4499).  A scan counts the levels below every grid energy;
bisection splits every interval holding three or more.  One holding one
level is solved for the sign change of (-1)^N prod_j sin(t_j / 2), t_j the
eigenphases of W; one holding two for the zero of C(W) - 2 pi N, the phase
sum continued across levels: a double level if N steps by two within the
root tolerance there, else the point splitting it into two single ones
when N there is one more than below.  Failing both, the interval is bisected
by the count until each part holds one level or two within the root
tolerance.

Each located level is accepted or dropped from boundary data alone: the
transfer matrices of one pass from -a and one from a at block edges, and
each block's own transfer S with dS/dE (odesolve._edge_transfers).  The
eigenfunction's parts join at a block edge, and its L2 norm is a sum of
Wronskians: over a block, the integral of u_j u_k for solutions with
E-independent data at its start is u_j' du_k/dE - u_j du_k'/dE at its end
(Titchmarsh, Eigenfunction Expansions I, 1962; Pryce, Numerical Solution
of Sturm-Liouville Problems, 1993).  The dense eigenfunctions, built when
SpectrumResult.eigenfunctions is first read, integrate the end data this
pass chose.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import odesolve
from .bcclassify import BoundaryCondition, apply_bc
from .deficiency import endpoint_form
from .odesolve import DEFAULT_RTOL, OdeSolution
from .potential import Potential

log = logging.getLogger(__name__)

RESIDUAL_LIMIT = 1e-6      # stored eigenfunctions must satisfy the BC this well
SCAN_RTOL = 1e-7           # coarse tolerance for the scan and its bisection


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues of one extension with eigenfunctions and diagnostics.

    ``degeneracies[i]`` is the number of eigenphases of W that cross 0 at
    ``eigenvalues[i]``, and ``eigenfunctions[i]`` holds as many
    L2-normalized OdeSolution trajectories.  On first access they integrate
    the end data that the boundary-data pass chose, kept in ``end_data``
    (which neither to_json nor equality reads), and are then kept; two
    threads may both build them, with equal results.  ``residuals[i]`` is
    the worst residual among the level's eigenfunctions, taken from their
    boundary data: of the endpoint relation, or of the join of a simple
    level's eigenfunction at a block edge.  ``det_trace`` keeps the
    (E, |det M|) samples of the scan, uniform in sqrt(E - e_min), for
    plotting and diagnostics.
    """

    bc: BoundaryCondition
    potential: Potential
    eigenvalues: list
    degeneracies: list
    residuals: list
    det_trace: list = field(default_factory=list)
    end_data: list = field(default_factory=list, compare=False, repr=False)

    @cached_property
    def eigenfunctions(self):
        return _eigenfunctions(self.potential, self.eigenvalues, self.end_data)

    def to_json(self):
        return {
            "bc": self.bc.to_json(),
            "potential": self.potential.to_json(),
            "eigenvalues": list(self.eigenvalues),
            "degeneracies": list(self.degeneracies),
            "residuals": list(self.residuals),
            "det_trace": [[e, d] for e, d in self.det_trace],
        }


def _bc_matrix(p, bc, energy, rtol):
    """M(E) = minus - Ucal plus, the eigenphases t of W(E) in [0, 2 pi) and
    the level count N(E), for a scalar E or, from one propagation, stacked
    over a 1-D array.  Column k of minus and plus is divided by the largest
    boundary magnitude of u_k, so nothing overflows for deep wells or large
    |E|; S and W do not change."""
    transfer, zeros = odesolve.propagate(p, energy, -p.a, p.a, rtol)
    ua, dua = transfer[..., 0, :], transfer[..., 1, :]  # column k: u_k(a), u_k'(a)
    uma, duma = np.eye(2)                               # u_k(-a), u_k'(-a)
    s = np.maximum(np.maximum(np.abs(ua), np.abs(dua)), 1.0)[..., None, :]
    minus = np.stack(np.broadcast_arrays(dua - 1j * ua, duma + 1j * uma), axis=-2) / s
    plus = np.stack(np.broadcast_arrays(dua + 1j * ua, duma - 1j * uma), axis=-2) / s
    ucal = bc.Ucal.matrix
    s_matrix = minus @ np.linalg.inv(plus)
    t = _eigenphases(ucal.conj().T @ s_matrix)
    # an eigenphase of Ucal within 1e-12 below 2 pi is a rounded 0: its level
    # would lie below about -1e24, where no transfer matrix is finite
    k = _eigenphases(ucal)
    k_sum = k[k < 2 * np.pi - 1e-12].sum()
    turns = (t.sum(axis=-1) - _eigenphases(s_matrix).sum(axis=-1) + k_sum) / (2 * np.pi)
    return minus - ucal @ plus, t, zeros + np.rint(turns).astype(int)


def det_function(p, bc, energy):
    """det M(E) with overflow-guarded (column-normalized) entries."""
    return complex(np.linalg.det(_bc_matrix(p, bc, energy, DEFAULT_RTOL)[0]))


def _eigenphases(w):
    """The eigenphases of W, each taken in [0, 2 pi)."""
    return np.angle(np.linalg.eigvals(w)) % (2 * np.pi)


def _chandrupatla(g, x1, x2, f1, f2, rtol):
    """Chandrupatla's bracketed root finder (Adv. Eng. Softw. 28 (1997) 145),
    vectorized over the brackets [x1, x2] with end values f1, f2.  Each round
    calls g(x, live) once, live the indices of the brackets still running.  A
    bracket stops at its end of smaller |g| once |x2 - x1| < rtol (1 + |that
    end|) or no float lies between its ends, or once they share a sign or
    one is 0.  The returned mask is False where g is not finite."""
    root, ok = np.empty(len(x1)), np.ones(len(x1), dtype=bool)
    live, x3, f3 = np.arange(len(x1)), x2, f2
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            xmin = np.where(np.abs(f1) < np.abs(f2), x1, x2)
            dx, tol = np.abs(x2 - x1), np.abs(xmin) * rtol + rtol
            finite = np.isfinite(f1) & np.isfinite(f2)
            stop = (~finite | (np.sign(f1) * np.sign(f2) >= 0) | (dx < tol)
                    | (dx <= np.spacing(np.abs(xmin))))
            root[live[stop]], ok[live[stop]] = xmin[stop], finite[stop]
            live, x1, x2, x3, f1, f2, f3, dx, tol = (
                v[~stop] for v in (live, x1, x2, x3, f1, f2, f3, dx, tol))
            if not len(live):
                return root, ok
            # inverse quadratic interpolation where the last three points
            # allow it, else bisection (always in the first round, x3 = x2)
            xi, phi, alpha = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2), (x3 - x1) / (x2 - x1)
            t = np.where((1 - np.sqrt(1 - xi) < phi) & (phi < np.sqrt(xi)), f1 / (f1 - f2) * f3
                         / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            tl = 0.5 * tol / dx  # x stays at least tol / 2 inside the bracket
            x = x1 + np.clip(t, tl, 1 - tl) * (x2 - x1)
            f = g(x, live)
            same = np.sign(f) == np.sign(f1)
            x1, x2, x3 = x, np.where(same, x2, x1), np.where(same, x1, x2)
            f1, f2, f3 = f, np.where(same, f2, f1), np.where(same, f1, f2)


minimize_scalar = _chandrupatla  # the name perfbench's tracer wraps as the refinement


def _solve(p, bc, lo, hi, below, target):
    """Roots of target(eigenphases of W, N(E), N(lo)) in the brackets
    [lo, hi], and the mask of those that converged.  All bracket ends are
    evaluated in one call.  Ends that share a sign at full tolerance put the
    root at an end, within the accuracy of W."""
    _, t, n = _bc_matrix(p, bc, np.r_[lo, hi], DEFAULT_RTOL)
    f = target(t, n, np.r_[below, below])
    root, ok = minimize_scalar(lambda x, live: target(
        *_bc_matrix(p, bc, x, DEFAULT_RTOL)[1:], below[live]), lo, hi, f[:len(lo)], f[len(lo):],
        DEFAULT_RTOL)
    for e in lo[~ok]:
        log.warning("refinement did not converge near E = %g: the target is not finite", e)
    return root, ok


def _phase_fixed(sol):
    idx = int(np.argmax(np.abs(sol.f)))
    peak = sol.f[idx]
    return sol.scaled(np.conj(peak) / abs(peak)) if abs(peak) > 0 else sol


def _endpoint_maps(bc):
    """B and B': data (f, f') = B q at a and B' q at -a meet the BC for every q."""
    ucal, eye = bc.Ucal.matrix, np.eye(2)
    return (np.array([(eye - ucal)[0] / 2j, (eye + ucal)[0] / 2]),
            np.array([-(eye - ucal)[1] / 2j, (eye + ucal)[1] / 2]))


def _null(k, n=1):
    """The n right singular vectors of k (or of each of a stack) with the
    smallest singular values, as rows."""
    return np.conj(np.linalg.svd(k)[2][..., ::-1, :][..., :n, :])


def _join(f, g):
    """Where a simple level joins its part from -a to its part from a: the
    sample of largest |f g|, short of a, for f and g sampled from -a on."""
    return min(int(np.argmax(np.abs(f * g))), len(f) - 2)


def _eigenfunctions(p, roots, end_data):
    """The eigenfunctions of every level, integrated from the end data
    (minus, plus, join) that _boundary_data chose: one for each row of
    minus from -a, and for a simple level its part from a, from plus[0],
    on the samples past the one nearest join.  The fundamental solutions
    from -a of every level come from one call, and those from a of every
    simple level from one more, or by reflection where V and its grid are
    symmetric about 0."""
    roots = np.array(roots)
    lefts = odesolve.fundamental_solutions(p, roots, -p.a, p.a)
    edges = np.array(p.breakpoints())
    simple = np.array([join is not None for _, _, join in end_data], dtype=bool)
    if p.is_even() and np.array_equal(edges, -edges[::-1]):
        rights = (_reflected(left) for left, one in zip(lefts, simple) if one)
    else:
        rights = iter(odesolve.fundamental_solutions(p, roots[simple], p.a, -p.a))
    out = []
    for left, (minus, plus, join) in zip(lefts, end_data):
        funcs = [odesolve.combine(left, c) for c in minus]
        if join is not None:
            (f,), g = funcs, odesolve.combine(next(rights), plus[0])
            j = int(np.argmin(np.abs(f.x - join)))
            y = np.where(np.arange(len(f.x)) <= j, [f.f, f.df], [g.f[::-1], g.df[::-1]])
            funcs = [OdeSolution(f.lam, f.x, *y, f.segments)]
        out.append(tuple(_phase_fixed(f) for f in funcs))
    return out


def _block_gram(step, dstep, y):
    """Per block of a pass, the integrals of conj(f_j) f_k over it, for the
    solutions f_k with data y[..., :, k] at its start, from its transfer S
    and dS/dE.

    The solutions u_k with data e_k at a block start are real, and with
    W(f, g) = f g' - f' g, d/dx W(u_j, du_k/dE) = -u_j u_k, so their
    integrals are S^T J dS/dE with J = [[0, -1], [1, 0]]; a block run
    towards -x gives the negative.  Taken
    block by block, each integral is as accurate as the data y, also where
    a solution decays along the pass."""
    z, dz = step @ y, dstep @ y  # conj(z)^T J dz:
    return (np.conj(z[..., 1, :, None]) * dz[..., 0, None, :]
            - np.conj(z[..., 0, :, None]) * dz[..., 1, None, :])


def _boundary_data(p, bc, levels):
    """Per (E, multiplicity) in levels, the worst residual and symmetry
    defect of its L2-normalized eigenfunctions, and their end data
    (minus, plus, join): the rows of minus and plus are their data (f, f')
    at -a and at a, and join is the block edge where a simple level's parts
    meet, None for a double level.

    With Y, Y' the transfer matrices from -a and from a, at the block edges
    of one pass from -a at every level and of one from a at every simple
    level (for an even V the mirror image of the first), a null vector q of
    K(x) = Y(x) B' - Y'(x) B (_endpoint_maps) gives an eigenfunction.  A
    double level takes both null vectors of K(a).  A simple level takes q at
    the block edge _join picks, so neither part is carried through decay
    into growth, which amplifies rounding and root error; its jump there is
    sigma_min of K plus the rounding of the two sides.  The norms come from
    _block_gram, and one that is not positive gives NaN."""
    roots = np.array([e for e, _ in levels])
    simple = np.array([count == 1 for _, count in levels], dtype=bool)
    x, left, lstep, dlstep = odesolve._edge_transfers(p, roots, -p.a, p.a)
    if p.is_even():  # T(a -> x) = P T(-a -> -x) P with P = diag(1, -1), on mirrored edges
        flip = np.array([[1.0, -1.0], [-1.0, 1.0]])
        right, rstep, drstep = (m[simple, ::-1] * flip for m in (left, lstep, dlstep))
    else:
        _, right, rstep, drstep = odesolve._edge_transfers(p, roots[simple], p.a, -p.a)
        right, rstep, drstep = right[:, ::-1], rstep[:, ::-1], drstep[:, ::-1]
    # from here on every array runs from -a, and block i of the pass from a
    # runs from x_i+1 to x_i.  minus[l, k] and plus[l, k] are the data
    # (f, f') of eigenfunction k of level l at -a and at a
    at_a, at_minus_a = _endpoint_maps(bc)
    minus, plus = np.zeros((2, len(levels), 2, 2), complex)
    jumps = np.zeros((len(levels), 2))
    with np.errstate(invalid="ignore", divide="ignore"):
        tl, sl, dsl = left[simple], lstep[simple], dlstep[simple]
        f = tl[..., 0, :] @ (_null(tl[:, -1] @ at_minus_a - at_a)[:, 0] @ at_minus_a.T)[..., None]
        g = right[..., 0, :] @ (_null(at_minus_a - right[:, 0] @ at_a)[:, 0] @ at_a.T)[..., None]
        j = np.array([_join(*fg) for fg in zip(f[..., 0], g[..., 0])], dtype=int)
        tl_j, tr_j = tl[np.arange(len(j)), j], right[np.arange(len(j)), j]
        _, sigma, vh = np.linalg.svd(tl_j @ at_minus_a - tr_j @ at_a)
        c_minus, c_plus = np.conj(vh[:, -1]) @ at_minus_a.T, np.conj(vh[:, -1]) @ at_a.T
        on_left = np.arange(lstep.shape[1]) < j[:, None]  # the blocks left of the join
        inner = (_block_gram(sl, dsl, tl[:, :-1] @ c_minus[:, None, :, None])[..., 0, 0] * on_left
                 - _block_gram(rstep, drstep, right[:, 1:] @ c_plus[:, None, :, None])[..., 0, 0]
                 * ~on_left)
        scale = 1.0 / np.sqrt(inner.sum(axis=1).real)
        minus[simple, 0], plus[simple, 0] = scale[:, None] * c_minus, scale[:, None] * c_plus
        # each side of the join carries a rounding of eps |T| |c|, which bounds
        # how small a jump it can show
        floor = np.finfo(float).eps * np.linalg.norm(
            np.abs(tl_j) @ np.abs(c_minus)[..., None] + np.abs(tr_j) @ np.abs(c_plus)[..., None],
            axis=(1, 2))
        jumps[simple, 0] = scale * (sigma[:, -1] + floor)

        # a double level: Gram-Schmidt in the Gram matrix of the null vectors of K(a)
        tl, sl, dsl = left[~simple], lstep[~simple], dlstep[~simple]
        c = at_minus_a @ _null(tl[:, -1] @ at_minus_a - at_a, 2).swapaxes(-1, -2)
        gram = _block_gram(sl, dsl, tl[:, :-1] @ c[:, None]).sum(axis=1)
        g00, g01, g11 = gram[:, 0, 0].real, gram[:, 0, 1], gram[:, 1, 1].real
        first = c[..., 0] / np.sqrt(g00)[:, None]
        second = ((c[..., 1] - (g01 / g00)[:, None] * c[..., 0])
                  / np.sqrt(g11 - abs(g01) ** 2 / g00)[:, None])
        minus[~simple] = np.stack([first, second], axis=1)
        plus[~simple] = (tl[:, -1, None] @ minus[~simple, ..., None])[..., 0]

    joins = iter(x[j].tolist())
    out = []
    for (_, count), ends_minus, ends_plus, jump in zip(levels, minus, plus, jumps):
        data = [(fa, fma, dfa, dfma)
                for (fa, dfa), (fma, dfma) in zip(ends_plus[:count], ends_minus[:count])]
        out.append((float(np.max([apply_bc(bc, *d) for d in data] + list(jump[:count]))),
                    float(np.max([_symmetry_defect(*d) for d in data])),
                    (ends_minus[:count], ends_plus[:count], next(joins) if count == 1 else None)))
    return out


def find_eigenvalues(p, bc, e_min=None, e_max=40.0):
    """Locate all eigenvalues of the extension in [e_min, e_max).

    The scan counts the levels below every grid energy at the coarse
    SCAN_RTOL, and rounds of one batched call each bisect every interval
    that holds three or more.  The intervals holding two levels are solved
    in one vectorized call, and those holding one in one more, to
    DEFAULT_RTOL (1 + |E|); the count gives each root its multiplicity.  A
    root whose eigenfunctions miss the boundary relation, the join of their
    two parts or the symmetry check by more than RESIDUAL_LIMIT (or by NaN)
    is dropped with a warning.  These residuals come from the boundary data
    of one more pass at the roots (module docstring); no dense eigenfunction
    is built until the result's ``eigenfunctions`` is read.

    The scan is uniform in the wavenumber k = sqrt(E - e_min), eight
    points per pi/2a in k (the asymptotic spacing of the Dirichlet levels)
    and at least 16, so it grows like the level count, a sqrt(e_max - e_min),
    not like a^2 (e_max - e_min).

    Args:
        e_min: scan floor.  The default is -sup|V| - 1; while levels lie
            below it, the depth below -sup|V| doubles, and the first floor
            with none below is prepended to the scan.

    Returns:
        SpectrumResult (empty eigenvalue list when no roots are found).

    Raises:
        ValueError: if e_min or e_max is not finite, or e_min >= e_max.
    """
    default_floor = e_min is None
    if default_floor:
        e_min = -p.sup_norm() - 1.0
    for name, bound in (("e_min", e_min), ("e_max", e_max)):
        if not np.isfinite(bound):
            raise ValueError(f"{name} must be finite, got {bound}")
    if e_min >= e_max:
        raise ValueError(f"empty scan range [{e_min}, {e_max}]")
    k_max = np.sqrt(e_max - e_min)
    grid = max(16, int(np.ceil(8.0 * k_max / (np.pi / (2.0 * p.a)))))

    energies = e_min + np.linspace(0.0, k_max, grid) ** 2
    energies[-1] = e_max
    cols, _, count = _bc_matrix(p, bc, energies, SCAN_RTOL)
    det_trace = list(zip(energies.tolist(), np.abs(np.linalg.det(cols)).tolist()))
    if default_floor:
        low, below = e_min, count[0]
        while below > 0:
            low = 2.0 * low - e_min - 1.0  # doubles the depth below -sup|V| = e_min + 1
            below = _bc_matrix(p, bc, low, SCAN_RTOL)[2]
        if low < e_min:
            energies, count = np.r_[low, energies], np.r_[below, count]
    while True:  # bisect every interval that holds three or more levels
        mid = 0.5 * (energies[:-1] + energies[1:])
        split = np.flatnonzero((np.diff(count) > 2) & (energies[:-1] < mid) & (mid < energies[1:]))
        if not len(split):
            break
        energies = np.insert(energies, split + 1, mid[split])
        count = np.insert(count, split + 1, _bc_matrix(p, bc, mid[split], SCAN_RTOL)[2])

    lo, hi, below, held = energies[:-1], energies[1:], count[:-1], np.diff(count)
    levels = []  # (E, multiplicity)
    lo1, hi1, below1 = lo[held == 1], hi[held == 1], below[held == 1]
    lo2, hi2, below2 = lo[held == 2], hi[held == 2], below[held == 2]
    if len(lo2):
        root, ok = _solve(p, bc, lo2, hi2, below2, lambda t, n, below: (
            t.sum(axis=-1) - 2 * np.pi * (n - below)))
        tol = DEFAULT_RTOL * (1 + np.abs(root))
        side = _bc_matrix(p, bc, np.r_[root - tol, root + tol], DEFAULT_RTOL)[2].reshape(2, -1)
        double = ok & (side[0] == below2) & (side[1] == below2 + 2)
        split = ok & (side[0] == below2 + 1) & (side[1] == below2 + 1)  # one level on each side
        levels += [(e, 2) for e in root[double].tolist()]
        lo1, hi1 = np.r_[lo1, lo2[split], root[split]], np.r_[hi1, root[split], hi2[split]]
        below1 = np.r_[below1, below2[split], below2[split] + 1]
        # where the root splits nothing, bisect by count until each part holds
        # one level or two within the root tolerance, a double
        rest = ok & ~double & ~split
        lo2, hi2, below2 = lo2[rest], hi2[rest], below2[rest]
        while len(lo2):
            mid = 0.5 * (lo2 + hi2)
            tight = hi2 - lo2 <= 2 * DEFAULT_RTOL * (1 + np.abs(mid))
            levels += [(e, 2) for e in mid[tight].tolist()]
            lo2, hi2, below2, mid = (v[~tight] for v in (lo2, hi2, below2, mid))
            if not len(mid):
                break
            n = _bc_matrix(p, bc, mid, DEFAULT_RTOL)[2]
            parts = np.r_[lo2, mid], np.r_[mid, hi2], np.r_[below2, n]
            parts_held = np.r_[n - below2, below2 + 2 - n]
            lo1, hi1, below1 = (np.r_[v, part[parts_held == 1]]
                                for v, part in zip((lo1, hi1, below1), parts))
            lo2, hi2, below2 = (part[parts_held == 2] for part in parts)
    if len(lo1):
        root, ok = _solve(p, bc, lo1, hi1, below1, lambda t, n, below: (
            (-1.0) ** n * np.prod(np.sin(0.5 * t), axis=-1)))
        levels += [(e, 1) for e in root[ok].tolist()]

    levels.sort()
    eigenvalues, degeneracies, residuals, end_data = [], [], [], []
    for (root, count), (worst, symmetry, ends) in zip(levels, _boundary_data(p, bc, levels)):
        if not (worst <= RESIDUAL_LIMIT and symmetry <= RESIDUAL_LIMIT):  # NaN fails too
            log.warning("dropping candidate E = %g (boundary residual %.2e, "
                        "symmetry defect %.2e)", root, worst, symmetry)
            continue
        eigenvalues.append(root)
        degeneracies.append(count)
        residuals.append(worst)
        end_data.append(ends)

    return SpectrumResult(bc, p, eigenvalues, degeneracies, residuals, det_trace, end_data)


def _reflected(left):
    """The fundamental solutions launched at a, from the pair (u1, u2)
    launched at -a, for an even V on a grid symmetric about 0.  The pair
    from a is u1(-x), -u2(-x), and its sample i sits at -x_i, so it has the
    samples of (u1, u2) in the same order, with u1' and u2 negated."""
    u1, u2 = left
    x = u1.x[::-1]
    return (OdeSolution(u1.lam, x, u1.f, -u1.df, u1.segments),
            OdeSolution(u2.lam, x, -u2.f, u2.df, u2.segments))


def _symmetry_defect(fa, fma, dfa, dfma):
    """|<f, Af> - <Af, f>| evaluated through the endpoint Wronskian form, for
    the boundary data in apply_bc's order."""
    return abs(endpoint_form(np.array([[dfa, fa, dfma, fma]]), 0, 0))


def _derivative_uniform(y, h):
    """Fourth-order first derivative of samples on a uniform grid of at
    least 5 points (every piece of an odesolve grid has 9 or more)."""
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    d[0] = (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) / (12 * h)
    d[1] = (-3 * y[0] - 10 * y[1] + 18 * y[2] - 6 * y[3] + y[4]) / (12 * h)
    d[-2] = (3 * y[-1] + 10 * y[-2] - 18 * y[-3] + 6 * y[-4] - y[-5]) / (12 * h)
    d[-1] = (25 * y[-1] - 48 * y[-2] + 36 * y[-3] - 16 * y[-4] + 3 * y[-5]) / (12 * h)
    return d


def _eigen_equation_defect(p, f, energy):
    """||-f'' + (V - E) f||_2 with f'' re-derived from the stored f' samples.

    The derivative comes from fourth-order finite differences per smooth
    piece, so the measured defect is an independent consistency check of
    the trajectory rather than a restatement of the integrator's own ODE.
    """
    v = odesolve.potential_on_grid(p, f)
    residual = np.empty_like(f.f)
    for sl in f.segment_slices():
        h = f.x[sl][1] - f.x[sl][0]
        d2f = _derivative_uniform(f.df[sl], h)
        residual[sl] = -d2f + (v[sl] - energy) * f.f[sl]
    return float(np.sqrt(max(odesolve.quadrature(f, np.abs(residual) ** 2).real, 0.0)))


def eigenfunction_residuals(result):
    """Recompute per-eigenfunction diagnostics of a SpectrumResult.

    For every stored eigenfunction: the endpoint-relation residual, the
    symmetry defect |<f, Af> - <Af, f>| from boundary data, and the
    eigen-equation defect ||-f'' + Vf - Ef||_2 by quadrature on the dense
    output.

    Returns:
        dict with per-eigenvalue entries and the worst value of each kind.
    """
    entries = []
    for energy, funcs in zip(result.eigenvalues, result.eigenfunctions):
        for f in funcs:
            entries.append({
                "eigenvalue": energy,
                "boundary": apply_bc(result.bc, f.f1, f.f0, f.df1, f.df0),
                "symmetry": _symmetry_defect(f.f1, f.f0, f.df1, f.df0),
                "eigen_equation": _eigen_equation_defect(result.potential, f, energy),
            })
    def worst(key):
        return max((e[key] for e in entries), default=0.0)
    return {"per_eigenfunction": entries,
            "worst_boundary": worst("boundary"),
            "worst_symmetry": worst("symmetry"),
            "worst_eigen_equation": worst("eigen_equation")}
