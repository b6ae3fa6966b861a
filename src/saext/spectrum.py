"""Spectra of self-adjoint extensions by counting levels.

The fundamental solutions u1, u2 of -f'' + V f = E f start at x = -a with
data (1, 0) and (0, 1).  The waves psi_-+ of their boundary rows
(deficiency.boundary_waves) are the columns of minus and plus, the only
meaning of minus and plus here, and S(E) = minus plus^-1 maps psi_plus of
every solution to its psi_minus.  By the boundary relation psi_minus =
Ucal psi_plus, E is an eigenvalue exactly when an eigenphase of
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
level is solved for the sign change of the characteristic function
(-1)^N |det M|, M = minus - Ucal plus = (S - Ucal) plus, which is real
analytic in E.  It is 4 prod_j sin(t_j / 2) |det plus|, t_j the eigenphases
of W.  Without the factor |det plus|, the product is a step smoothed over a
width of about |f(+-a)|^2 for a level whose normalized eigenfunction f is
small at both ends, and a root finder can only bisect it there; the
miss-distance function should be smooth (Pryce, Numerical Solution of
Sturm-Liouville Problems, 1993).  One holding two levels is solved for the
zero of C(W) - 2 pi N, the phase sum continued across levels: a double
level if N steps by two within the root tolerance there, else the point
splitting it into two single ones when N there is one more than below.
Failing both, the interval is bisected by the count until each part holds
one level or two within the root tolerance.

Each located level is accepted or dropped from boundary data alone: one
pass over [-a, a] (odesolve._edge_transfers) gives each block's own
transfer S with dS/dE, and the transfer matrices from -a and from a at
every block edge, the latter as the running product of S^-1 = adj(S).
Every eigenfunction, of a simple level or of a double one, joins its part
from -a to its part from a at a block edge, and its L2 norm is a sum of
Wronskians: over a block, the integral of u_j u_k for solutions with
E-independent data at its start is u_j' du_k/dE - u_j du_k'/dE at its end
(Titchmarsh, Eigenfunction Expansions I, 1962; Pryce 1993).  The dense
eigenfunctions, built when SpectrumResult.eigenfunctions is first read,
integrate the end data this pass chose from both ends.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import odesolve
from .bcclassify import BoundaryCondition, apply_bc
from .deficiency import boundary_waves, endpoint_form
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
    ``end_data[i]`` = (rows, join), which neither to_json nor equality
    reads: their boundary rows, and the block edge, a float, where their
    parts from -a and from a join.  Two threads may both build them, with
    equal results.  ``residuals[i]`` is the worst residual among the
    level's eigenfunctions, taken from their boundary data: of the endpoint
    relation, or of the join of their parts.  ``det_trace`` keeps the
    (E, |det M|) samples of the scan, uniform in sqrt(E - e_min), for
    plotting and diagnostics, with M's columns scaled as in _bc_matrix;
    the characteristic function (-1)^N |det M| is unscaled.
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
    """M(E) = minus - Ucal plus, the eigenphases t of W(E) in [0, 2 pi), the
    level count N(E) and log_s, for a scalar E or, from one propagation,
    stacked over a 1-D array.  Column k of minus and plus is the wave of
    u_k's boundary row divided by s_k, the largest boundary magnitude of u_k
    and at least 1, so nothing overflows for deep wells or large |E|; S and
    W do not change, and the unscaled |det M| is |det| of the returned M
    times exp(log_s), with log_s = sum_k log s_k.  The eigenphases of W, S
    and Ucal come from one eigvals call over the three stacked."""
    transfer, zeros = odesolve.propagate(p, energy, -p.a, p.a, rtol)
    at_a = transfer.swapaxes(-1, -2)  # row k: u_k(a), u_k'(a); at -a, row k of I
    s = np.maximum(np.abs(at_a).max(axis=-1), 1.0)[..., None, :]
    minus, plus = (wave.swapaxes(-1, -2) / s
                   for wave in boundary_waves(_rows(*np.broadcast_arrays(at_a, np.eye(2)))))
    ucal = bc.Ucal.matrix
    s_matrix = minus @ np.linalg.inv(plus)
    w = ucal.conj().T @ s_matrix
    phases = _eigenphases(np.concatenate([w.reshape(-1, 2, 2), s_matrix.reshape(-1, 2, 2),
                                          ucal[None]]))
    t, s_phases = phases[:-1].reshape(2, *w.shape[:-1])  # those of W and of S
    # an eigenphase of Ucal within 1e-12 below 2 pi is a rounded 0: its level
    # would lie below about -1e24, where no transfer matrix is finite
    k = phases[-1]
    k_sum = k[k < 2 * np.pi - 1e-12].sum()
    turns = (t.sum(axis=-1) - s_phases.sum(axis=-1) + k_sum) / (2 * np.pi)
    return (minus - ucal @ plus, t, zeros + np.rint(turns).astype(int),
            np.log(s).sum(axis=-1)[..., 0])


def det_function(p, bc, energy):
    """det M(E) of _bc_matrix's column-scaled M, finite where the unscaled
    det M of the characteristic function (-1)^N |det M| overflows."""
    return complex(np.linalg.det(_bc_matrix(p, bc, energy, DEFAULT_RTOL)[0]))


def _eigenphases(w):
    """The eigenphases of W, each taken in [0, 2 pi)."""
    return np.angle(np.linalg.eigvals(w)) % (2 * np.pi)


def _chandrupatla(g, x1, x2, f1, f2, rtol):
    """Chandrupatla's bracketed root finder (Adv. Eng. Softw. 28 (1997) 145),
    vectorized over the brackets [x1, x2] with end values f1, f2, which the
    caller may take from samples it already has.  Each round calls g(x, live)
    once, live the indices of the brackets still running.  A bracket stops
    at its end of smaller |g| once |x2 - x1| < rtol (1 + |that end|) or no
    float lies between its ends, or once they share a sign or one is 0.  The
    returned mask is False where g is not finite."""
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


def _samples(p, bc, energy, rtol):
    """The rows E, N(E), |det M|, log_s and the phase sum of W over the
    energies E, from one _bc_matrix call: what the count and the refinement
    read of it, with M's columns scaled as in _bc_matrix."""
    m, t, n, log_s = _bc_matrix(p, bc, energy, rtol)
    return np.array([energy, n, np.abs(np.linalg.det(m)), log_s, t.sum(axis=-1)])


def _solve(p, bc, lo, hi):
    """Roots in the brackets between the _samples columns lo and hi, each
    holding one level or two by their counts, and the mask of those that
    converged.  One level is solved for the unscaled (-1)^N |det M|: the
    (-1)^N prod_j sin(t_j / 2) that it replaces lacks the factor |det plus|,
    which leaves a smoothed step near a level whose eigenfunction is small
    at both ends, and root finders bisect a step.  Two levels are solved for
    the phase sum continued across them, C(W) - 2 pi (N(E) - N(lo)).  A
    one-level bracket solves (-1)^N |det M| exp(log_s - c), c the larger
    log_s at its ends: a positive factor, which Chandrupatla's steps do not
    see, that keeps the values in range and an exact zero at an end 0.

    The end values are those of the samples, whatever tolerance counted
    them; only the rounds evaluate, each in one _bc_matrix call at
    DEFAULT_RTOL over every bracket still running."""
    below, one, c = lo[1], hi[1] - lo[1] == 1, np.maximum(lo[3], hi[3])

    def target(samples, live):
        _, n, det, log_s, phase_sum = samples
        return np.where(one[live], (-1.0) ** n * det * np.exp(log_s - c[live]),
                        phase_sum - 2 * np.pi * (n - below[live]))
    every = np.arange(len(below))
    root, ok = minimize_scalar(lambda x, live: target(_samples(p, bc, x, DEFAULT_RTOL), live),
                               lo[0], hi[0], target(lo, every), target(hi, every), DEFAULT_RTOL)
    for e in lo[0, ~ok]:
        log.warning("refinement did not converge near E = %g: the target is not finite", e)
    return root, ok


def _phase_fixed(sol):
    """sol made real positive at its leftmost sample within 1e-8 relative of
    the largest |f|, so that the mirror-image peaks of a state even or odd
    about 0 do not pick the sign by rounding."""
    size = np.abs(sol.f)
    peak = sol.f[int(np.argmax(size >= (1.0 - 1e-8) * size.max()))]
    return sol.scaled(np.conj(peak) / abs(peak)) if abs(peak) > 0 else sol


def _endpoint_maps(bc):
    """The 4x2 matrix R whose boundary rows R q solve the boundary relation
    for every q: their waves are psi_plus = q and psi_minus = Ucal q."""
    ucal, eye = bc.Ucal.matrix, np.eye(2)
    return np.array([(eye + ucal)[0] / 2, (eye - ucal)[0] / 2j,
                     (eye + ucal)[1] / 2, -(eye - ucal)[1] / 2j])


def _rows(y1, y0):
    """The boundary rows of the data y1 = (f, f') at a and y0 at -a."""
    return np.concatenate([y1[..., ::-1], y0[..., ::-1]], axis=-1)


def _null(k):
    """The right singular vector of k (or of each of a stack) with the
    smallest singular value."""
    return np.conj(np.linalg.svd(k)[2][..., -1, :])


def _join(f, g):
    """Where a level joins its parts from -a to its parts from a: the sample
    of largest |f g|, short of a, for f and g sampled from -a on."""
    return min(int(np.argmax(np.abs(f * g))), len(f) - 2)


def _eigenfunctions(p, roots, end_data):
    """The eigenfunctions of every level, integrated from the end data
    (rows, join) that _boundary_data chose: for each row, its part from -a
    from its data there up to the sample nearest join, and its part from a
    from its data there on the samples past it.  The fundamental solutions
    from -a of every level come from one call, and those from a from one
    more, or by reflection where V and its grid are symmetric about 0."""
    roots = np.array(roots)
    lefts = odesolve.fundamental_solutions(p, roots, -p.a, p.a)
    edges = np.array(p.breakpoints())
    if p.is_even() and np.array_equal(edges, -edges[::-1]):
        rights = map(_reflected, lefts)
    else:
        rights = odesolve.fundamental_solutions(p, roots, p.a, -p.a)
    out = []
    for left, right, (rows, join) in zip(lefts, rights, end_data):
        x = left[0].x
        on_left = np.arange(len(x)) <= np.argmin(np.abs(x - join))
        funcs = []
        for row in rows:
            f, g = odesolve.combine(left, row[3:1:-1]), odesolve.combine(right, row[1::-1])
            y = np.where(on_left, [f.f, f.df], [g.f[::-1], g.df[::-1]])
            funcs.append(_phase_fixed(OdeSolution(f.lam, x, *y, f.segments)))
        out.append(tuple(funcs))
    return out


def _block_gram(step, dstep, y):
    """Per block of the boundary-data pass, the integrals of conj(f_j) f_k
    over it, for the solutions f_k with data y[..., :, k] at its start, from
    its transfer S and dS/dE.

    The solutions u_k with data e_k at a block start are real, and with
    W(f, g) = f g' - f' g, d/dx W(u_j, du_k/dE) = -u_j u_k, so their
    integrals are S^T J dS/dE with J = [[0, -1], [1, 0]].  Taken block by
    block, each integral is as accurate as the data y, also where a
    solution decays along the pass."""
    z, dz = step @ y, dstep @ y  # conj(z)^T J dz:
    return (np.conj(z[..., 1, :, None]) * dz[..., 0, None, :]
            - np.conj(z[..., 0, :, None]) * dz[..., 1, None, :])


def _boundary_data(p, bc, levels):
    """Per (E, multiplicity) in levels, the worst residual of its
    L2-normalized eigenfunctions and their end data (rows, join): their
    boundary rows, and the block edge where their parts from -a and from a
    meet.

    With Y, Y' the transfer matrices from -a and from a at the block edges,
    both from one odesolve._edge_transfers pass over every level, and B, B'
    the rows of _endpoint_maps that give (f, f') at a and at -a, a null
    vector q of K(x) = Y(x) B' - Y'(x) B gives an eigenfunction.  Each level
    takes its multiplicity's smallest right singular vectors q_m of K at the
    block edge _join picks, so neither part is carried through decay into
    growth, which amplifies rounding and root error.  Their Gram matrix is
    one _block_gram sum over the blocks, each block entered with its data at
    its start: from -a left of the join and from a right of it, so a block
    that overflows on the side the join does not use never enters the sum.
    Gram-Schmidt in it makes the eigenfunctions orthonormal, and as
    K q_m = sigma_m u_m with orthonormal u_m, their jumps at the join follow
    from the sigma_m, plus the rounding of the two sides.  A simple level
    reads nothing of its second q, whose data overflow at depth.  A norm
    that is not positive gives NaN, and so does the row's residual.

    The end data need no symmetry check: the rows R q lie on Ucal's
    Lagrangian subspace."""
    roots = np.array([e for e, _ in levels])
    x, left, right, step, dstep = odesolve._edge_transfers(p, roots)
    b, b_prime = _endpoint_maps(bc)[[[1, 0], [3, 2]]]  # rows (f, f') at a, at -a
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        f = left[..., 0, :] @ (_null(left[:, -1] @ b_prime - b) @ b_prime.T)[..., None]
        g = right[..., 0, :] @ (_null(b_prime - right[:, 0] @ b) @ b.T)[..., None]
        j = np.array([_join(*fg) for fg in zip(f[..., 0], g[..., 0])], dtype=int)
        tl_j, tr_j = left[np.arange(len(j)), j], right[np.arange(len(j)), j]
        _, sigma, vh = np.linalg.svd(tl_j @ b_prime - tr_j @ b)
        sigma, q = sigma[:, ::-1], np.conj(vh[:, ::-1])  # smallest first; q[l, m] a row
        c0, c1 = q @ b_prime.T, q @ b.T  # row m: (f, f') of q_m at -a, at a
        # each block's data at its start: from -a left of the join, from a right of it
        on_left = (np.arange(step.shape[1]) < j[:, None])[..., None, None]
        y = np.where(on_left, left[:, :-1] @ c0.swapaxes(-1, -2)[:, None],
                     right[:, :-1] @ c1.swapaxes(-1, -2)[:, None])
        gram = _block_gram(step, dstep, y).sum(axis=1)
        g00, g01, g11 = gram[:, 0, 0].real, gram[:, 0, 1], gram[:, 1, 1].real
        # Gram-Schmidt, written out so that the first row reads nothing of q_1
        r, d = (g01 / g00)[:, None], np.sqrt(g11 - abs(g01) ** 2 / g00)[:, None]
        qrows = _rows(c1, c0)
        rows = np.stack([qrows[:, 0] / np.sqrt(g00)[:, None], (qrows[:, 1] - r * qrows[:, 0]) / d],
                        axis=1)
        jumps = np.stack([sigma[:, 0] / np.sqrt(g00),
                          np.hypot(sigma[:, 1], abs(r[:, 0]) * sigma[:, 0]) / d[:, 0]], axis=1)
        # each side of the join carries a rounding of eps |T| |c|, which bounds
        # how small a jump it can show
        floor = np.finfo(float).eps * np.linalg.norm(
            np.abs(tl_j)[:, None] @ np.abs(rows[..., 3:1:-1, None])
            + np.abs(tr_j)[:, None] @ np.abs(rows[..., 1::-1, None]), axis=(-2, -1))
        worst = np.maximum(apply_bc(bc, rows), jumps + floor)
    return [(float(np.max(w[:count])), (level_rows[:count], join))
            for (_, count), w, level_rows, join in zip(levels, worst, rows, x[j].tolist())]


def _scan_grid(low, high, a, at_least):
    """Energies from low to high, uniform in the wavenumber sqrt(E - low):
    eight points per pi/2a (the asymptotic spacing of the Dirichlet levels),
    and at_least points or more."""
    k = np.sqrt(high - low)
    points = max(at_least, int(np.ceil(8.0 * k / (np.pi / (2.0 * a)))))
    energies = low + np.linspace(0.0, k, points) ** 2
    energies[-1] = high
    return energies


def find_eigenvalues(p, bc, e_min=None, e_max=40.0):
    """Locate all eigenvalues of the extension in [e_min, e_max).

    The scan counts the levels below every grid energy at the coarse
    SCAN_RTOL, and rounds of one batched call each bisect every interval
    that holds three or more.  Every call keeps its samples (_samples), so
    the intervals holding one level or two start their refinement from the
    end values that counted them and are solved together in one
    vectorized run, to DEFAULT_RTOL (1 + |E|); the count gives each root
    its multiplicity.  Only the one-level parts that a two-level root or
    the bisection by count splits off run again, from the samples of the
    call that split them.  A
    root whose eigenfunctions, one per multiplicity, miss the boundary
    relation or the join of their parts from -a and from a by more than
    RESIDUAL_LIMIT (or by NaN) is dropped with a warning.  These residuals
    come from the boundary data of one more pass at the roots (module
    docstring); no dense eigenfunction is built until the result's
    ``eigenfunctions`` is read.

    The scan is uniform in the wavenumber k = sqrt(E - e_min), eight
    points per pi/2a in k (the asymptotic spacing of the Dirichlet levels)
    and at least 16, so it grows like the level count, a sqrt(e_max - e_min),
    not like a^2 (e_max - e_min).

    Args:
        e_min: scan floor.  The default is -sup|V| - 1; while levels lie
            below it, the depth below -sup|V| doubles, and each step's new
            range joins the scan, counted in one call on a grid uniform in
            sqrt(E - new floor) at the scan's density (at least its two
            ends).  N(E) never falls with E, so a step whose counts fall
            reads S(E)'s rounding noise at depth and keeps only its floor.

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
    samples = _samples(p, bc, _scan_grid(e_min, e_max, p.a, 16), SCAN_RTOL)
    det_trace = list(zip(samples[0].tolist(), samples[2].tolist()))
    while default_floor and samples[1, 0] > 0:  # double the depth below -sup|V| = e_min + 1
        floor = samples[0, 0]
        step = _samples(p, bc, _scan_grid(2.0 * floor - e_min - 1.0, floor, p.a, 2)[:-1],
                        SCAN_RTOL)
        # N(E) never falls, so counts that fall read the rounding noise of
        # S(E) at depth: such a step keeps only its floor
        keep = step.shape[1] if np.all(np.diff(np.r_[step[1], samples[1, 0]]) >= 0) else 1
        samples = np.c_[step[:, :keep], samples]
    while True:  # bisect every interval that holds three or more levels
        energies, count = samples[:2]
        mid = 0.5 * (energies[:-1] + energies[1:])
        split = np.flatnonzero((np.diff(count) > 2) & (energies[:-1] < mid) & (mid < energies[1:]))
        if not len(split):
            break
        samples = np.insert(samples, split + 1, _samples(p, bc, mid[split], SCAN_RTOL), axis=1)

    held = np.diff(samples[1])
    lo, hi = (ends[:, (held == 1) | (held == 2)] for ends in (samples[:, :-1], samples[:, 1:]))
    root, ok = _solve(p, bc, lo, hi)
    one = hi[1] - lo[1] == 1
    levels = [(e, 1) for e in root[ok & one].tolist()]  # (E, multiplicity)
    lo2, hi2, root = lo[:, ok & ~one], hi[:, ok & ~one], root[ok & ~one]
    lo1, hi1 = lo[:, :0], hi[:, :0]  # one-level brackets left for a second run
    if len(root):
        tol = DEFAULT_RTOL * (1 + np.abs(root))
        side = _samples(p, bc, np.r_[root - tol, root + tol], DEFAULT_RTOL)
        left, right, below = side[:, :len(root)], side[:, len(root):], lo2[1]
        double = (left[1] == below) & (right[1] == below + 2)
        split = (left[1] == below + 1) & (right[1] == below + 1)  # one level on each side
        levels += [(e, 2) for e in root[double].tolist()]
        lo1 = np.c_[lo1, lo2[:, split], right[:, split]]
        hi1 = np.c_[hi1, left[:, split], hi2[:, split]]
        # where the root splits nothing, bisect by count until each part holds
        # one level or two within the root tolerance, a double
        lo2, hi2 = lo2[:, ~double & ~split], hi2[:, ~double & ~split]
    while lo2.shape[1]:
        mid = 0.5 * (lo2[0] + hi2[0])
        tight = hi2[0] - lo2[0] <= 2 * DEFAULT_RTOL * (1 + np.abs(mid))
        levels += [(e, 2) for e in mid[tight].tolist()]
        lo2, hi2, mid = lo2[:, ~tight], hi2[:, ~tight], mid[~tight]
        if not len(mid):
            break
        mid = _samples(p, bc, mid, DEFAULT_RTOL)
        parts_lo, parts_hi = np.c_[lo2, mid], np.c_[mid, hi2]
        parts_held = parts_hi[1] - parts_lo[1]
        lo1 = np.c_[lo1, parts_lo[:, parts_held == 1]]
        hi1 = np.c_[hi1, parts_hi[:, parts_held == 1]]
        lo2, hi2 = parts_lo[:, parts_held == 2], parts_hi[:, parts_held == 2]
    if lo1.shape[1]:
        root, ok = _solve(p, bc, lo1, hi1)
        levels += [(e, 1) for e in root[ok].tolist()]

    levels.sort()
    eigenvalues, degeneracies, residuals, end_data = [], [], [], []
    for (root, count), (worst, ends) in zip(levels, _boundary_data(p, bc, levels)):
        if not worst <= RESIDUAL_LIMIT:  # NaN fails too
            log.warning("dropping candidate E = %g (boundary residual %.2e)", root, worst)
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
            row = np.array([f.df1, f.f1, f.df0, f.f0])
            entries.append({
                "eigenvalue": energy,
                "boundary": apply_bc(result.bc, row),
                "symmetry": float(abs(endpoint_form(row, row))),
                "eigen_equation": _eigen_equation_defect(result.potential, f, energy),
            })
    def worst(key):
        return max((e[key] for e in entries), default=0.0)
    return {"per_eigenfunction": entries,
            "worst_boundary": worst("boundary"),
            "worst_symmetry": worst("symmetry"),
            "worst_eigen_equation": worst("eigen_equation")}
