"""Spectra of self-adjoint extensions by counting eigenphase crossings.

The fundamental solutions u1, u2 of -f'' + V f = E f start at x = -a with
data (1, 0) and (0, 1).  Their boundary vectors (u_k'(a) -+ i u_k(a),
u_k'(-a) +- i u_k(-a)) are the columns of minus and plus, and the unitary
S(E) = minus plus^-1 maps the plus data of every solution to its minus
data.  E is an eigenvalue exactly when an eigenphase of
W(E) = Ucal^dagger S(E) is 0 mod 2 pi; the number of such eigenphases is
its multiplicity, and the null vectors of M(E) = minus - Ucal plus give as
many eigenfunctions.  The eigenphases fall monotonically in E, so with
C(E) the sum of the eigenphases, each taken in [0, 2 pi), and D the fall
of arg det W across [E-, E+), the interval holds
n = (C(E+) - C(E-) + D) / 2 pi crossings of 0.

A uniform scan evaluates W in one batched propagation, and rounds of one
batched call each bisect every interval across which arg det W falls by
more than PHASE_STEP, so no eigenphase wraps unseen.  A single crossing is
the sign change of Re(det(I - W) conj(sqrt(det W))), with the branch of
the root fixed at the bracket's left end.  A double crossing is solved for
arg det W = 0: a double level when both eigenphases vanish there, or else
the split point of two single-crossing brackets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
# Chandrupatla's bracketed root finder, vectorized over brackets, under the
# name perfbench's tracer wraps as the refinement
from scipy.optimize.elementwise import find_root as minimize_scalar

from . import odesolve
from .bcclassify import BoundaryCondition, apply_bc
from .deficiency import endpoint_form
from .odesolve import DEFAULT_ATOL, DEFAULT_RTOL, OdeSolution
from .potential import Potential

log = logging.getLogger(__name__)

PHASE_STEP = np.pi / 2     # largest fall of arg det W accepted across one scan interval
RESIDUAL_LIMIT = 1e-6      # stored eigenfunctions must satisfy the BC this well
SCAN_RTOL = 1e-7           # coarse tolerance for the scan and its bisection


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues of one extension with eigenfunctions and diagnostics.

    ``degeneracies[i]`` is the number of eigenphases of W that cross 0 at
    ``eigenvalues[i]``, and ``eigenfunctions[i]`` holds as many
    L2-normalized OdeSolution trajectories; ``residuals[i]`` is the worst
    endpoint-relation residual among them.  ``det_trace`` keeps the
    (E, |det M|) samples of the uniform scan for plotting and diagnostics.
    """

    bc: BoundaryCondition
    potential: Potential
    eigenvalues: list
    degeneracies: list
    eigenfunctions: list
    residuals: list
    det_trace: list = field(default_factory=list)

    def to_json(self, include_trace=True):
        data = {
            "bc": self.bc.to_json(),
            "potential": self.potential.to_json(),
            "eigenvalues": list(self.eigenvalues),
            "degeneracies": list(self.degeneracies),
            "residuals": list(self.residuals),
        }
        if include_trace:
            data["det_trace"] = [[e, d] for e, d in self.det_trace]
        return data


def _bc_matrix(p, bc, energy, rtol, atol):
    """M(E) = minus - Ucal plus and W(E) = Ucal^dagger minus plus^-1 for a
    scalar E or, from one propagation, (n, 2, 2) stacks for a 1-D array.
    Column k is divided by the largest boundary magnitude of u_k, so nothing
    overflows for deep wells or large |E|; W does not change."""
    transfer = odesolve.propagate(p, energy, -p.a, p.a, rtol, atol)
    ua, dua = transfer[..., 0, :], transfer[..., 1, :]  # column k: u_k(a), u_k'(a)
    uma, duma = np.eye(2)                               # u_k(-a), u_k'(-a)
    s = np.maximum(np.maximum(np.abs(ua), np.abs(dua)), 1.0)[..., None, :]
    minus = np.stack(np.broadcast_arrays(dua - 1j * ua, duma + 1j * uma), axis=-2) / s
    plus = np.stack(np.broadcast_arrays(dua + 1j * ua, duma - 1j * uma), axis=-2) / s
    ucal = bc.Ucal.matrix
    return minus - ucal @ plus, ucal.conj().T @ minus @ np.linalg.inv(plus)


def det_function(p, bc, energy, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """det M(E) with overflow-guarded (column-normalized) entries."""
    return complex(np.linalg.det(_bc_matrix(p, bc, energy, rtol, atol)[0]))


def _phase_sum(w):
    """C: the eigenphases of W, each taken in [0, 2 pi), summed."""
    return np.sum(np.angle(np.linalg.eigvals(w)) % (2 * np.pi), axis=-1)


def _fall(c_lo, c_hi):
    """Fall of arg det W between phase sums c_lo and c_hi, in [0, 2 pi)."""
    return (c_lo - c_hi) % (2 * np.pi)


def _solve(p, bc, lo, hi, c_lo, target, rtol, atol):
    """Roots of target(W, phi) in the brackets [lo, hi], one vectorized call,
    and the mask of brackets that converged.

    phi is arg det W continued from c_lo, its phase sum at lo.  Ends that
    share a sign at full tolerance put the crossing at an end, within the
    accuracy of W: the end with the smaller |target| is taken.
    """
    def f(energy, c_lo):
        w = _bc_matrix(p, bc, energy, rtol, atol)[1]
        return target(w, c_lo + (_phase_sum(w) - c_lo + np.pi) % (2 * np.pi) - np.pi)

    res = minimize_scalar(f, (lo, hi), args=(c_lo,), tolerances={"xatol": rtol, "xrtol": rtol})
    invalid = res.status == -1
    ok = invalid | res.success
    for i in np.flatnonzero(~ok):
        log.warning("refinement did not converge near E = %g: find_root status %d",
                    lo[i], res.status[i])
    nearer = np.where(np.abs(res.f_bracket[0]) <= np.abs(res.f_bracket[1]), *res.bracket)
    return np.where(invalid, nearer, res.x), ok


def _phase_fixed(sol):
    idx = int(np.argmax(np.abs(sol.f)))
    peak = sol.f[idx]
    return sol.scaled(np.conj(peak) / abs(peak)) if abs(peak) > 0 else sol


def _eigenfunctions_at(p, bc, energy, cols, count, rtol, atol):
    """The count null-space eigenfunctions of M(E) = cols, with residuals."""
    _, _, vh = np.linalg.svd(cols)
    u1 = odesolve.integrate(p, energy, -p.a, p.a, 1.0, 0.0, rtol, atol)
    u2 = odesolve.integrate(p, energy, -p.a, p.a, 0.0, 1.0, rtol, atol)
    # undo the column normalization: M columns were divided by scales s_k
    s = np.array([max(abs(u1.f1), abs(u1.df1), 1.0), max(abs(u2.f1), abs(u2.df1), 1.0)])

    funcs = []
    for vec in np.conj(vh[::-1][:count]):
        f = odesolve.combine([u1, u2], vec / s)
        for prev in funcs:  # L2-orthonormalize a degenerate pair
            f = odesolve.combine([f, prev], [1.0, -odesolve.l2_inner(prev, f)])
        f = f.scaled(1.0 / odesolve.norm(f))
        funcs.append(_phase_fixed(f))

    residuals = [apply_bc(bc, f.f1, f.f0, f.df1, f.df0) for f in funcs]
    return funcs, residuals


def _bisect(p, bc, energies, phase, atol):
    """Bisect, one batched call per round, every interval across which
    arg det W falls by more than PHASE_STEP, down to float resolution."""
    while True:
        mid = 0.5 * (energies[:-1] + energies[1:])
        split = np.flatnonzero((_fall(phase[:-1], phase[1:]) > PHASE_STEP)
                               & (energies[:-1] < mid) & (mid < energies[1:]))
        if not len(split):
            return energies, phase
        new = _phase_sum(_bc_matrix(p, bc, mid[split], SCAN_RTOL, atol)[1])
        energies = np.insert(energies, split + 1, mid[split])
        phase = np.insert(phase, split + 1, new)


def _levels_below(bc, w, rtol):
    """Number of levels below E < min V, from w = W(E).

    Below min V each eigenphase of S = Ucal W stays in (-pi, 0) and tends to
    0 as E -> -inf, so W tends to Ucal^dagger from below and
    N = (C(E) - C_U + D_S) / 2 pi, with C_U the phase sum of Ucal^dagger and
    D_S = -sum arg eig S(E) the fall of arg det W from -inf.  An eigenphase
    of Ucal^dagger at 0 (within rtol: W is known no better) counts as 2 pi.
    """
    ucal = bc.Ucal.matrix
    u_phase = np.angle(np.linalg.eigvals(ucal.conj().T)) % (2 * np.pi)
    c_u = np.where(u_phase > rtol, u_phase, 2 * np.pi).sum()
    s_fall = -np.angle(np.linalg.eigvals(ucal @ w)).sum()
    return int(np.rint((_phase_sum(w) - c_u + s_fall) / (2 * np.pi)))


def find_eigenvalues(p, bc, e_min=None, e_max=40.0, grid=None, rtol=DEFAULT_RTOL,
                     atol=DEFAULT_ATOL):
    """Locate all eigenvalues of the extension in [e_min, e_max).

    The scan and its bisection run at the coarse SCAN_RTOL and leave a
    count of eigenphase crossings per interval, which is the multiplicity.
    Double crossings are solved together for arg det W = 0, then every
    single-crossing bracket in one more vectorized call, both to
    rtol (1 + |E|).  M(E) at the roots comes from one batched call; a root
    whose eigenfunctions miss the boundary relation or the symmetry check
    by more than RESIDUAL_LIMIT is dropped with a warning.

    Args:
        e_min: scan floor.  The default -sup|V| - 1 lies below min V, where
            the scan's first point gives the number of levels below it;
            while that is positive the depth below -sup|V| doubles, and
            the final floor is prepended as one interval to bisect.
        grid: number of scan points (>= 16); defaults to a density of
            eight points per (pi/2a)^2, half the bottom level spacing.

    Returns:
        SpectrumResult (empty eigenvalue list when no roots are found).
    """
    default_floor = e_min is None
    if default_floor:
        e_min = -p.sup_norm() - 1.0
    if grid is None:
        spacing = (np.pi / (2.0 * p.a)) ** 2 / 8.0
        grid = max(16, int(np.ceil((e_max - e_min) / spacing)))
    if e_min >= e_max:
        raise ValueError(f"empty scan range [{e_min}, {e_max}]")
    if grid < 16:
        raise ValueError("grid must be at least 16")

    energies = np.linspace(e_min, e_max, grid)
    cols, w = _bc_matrix(p, bc, energies, SCAN_RTOL, atol)
    det_trace = list(zip(energies.tolist(), np.abs(np.linalg.det(cols)).tolist()))
    phase = _phase_sum(w)
    if default_floor:
        depth, low, w_low = 1.0, e_min, w[0]
        while _levels_below(bc, w_low, rtol) > 0:
            depth *= 2.0
            low = e_min + 1.0 - depth  # depth below -sup|V|
            w_low = _bc_matrix(p, bc, low, SCAN_RTOL, atol)[1]
        if low < e_min:
            energies, phase = np.r_[low, energies], np.r_[_phase_sum(w_low), phase]
    energies, phase = _bisect(p, bc, energies, phase, atol)

    lo, hi, c_lo, fall = energies[:-1], energies[1:], phase[:-1], _fall(phase[:-1], phase[1:])
    count = np.rint((phase[1:] - c_lo + fall) / (2 * np.pi)).astype(int)
    for i in np.flatnonzero((count < 0) | (count > 2)):
        log.warning("refinement did not converge near E = %g: %d crossings", lo[i], count[i])
    levels = []  # (E, multiplicity)
    one, two = count == 1, count == 2
    lo1, hi1, c1 = lo[one], hi[one], c_lo[one]
    if two.any():
        lo2, hi2 = lo[two], hi[two]
        root, ok = _solve(p, bc, lo2, hi2, c_lo[two], lambda w, phi: phi, rtol, atol)
        w = _bc_matrix(p, bc, root, rtol, atol)[1]
        # double when both eigenphases vanish to within what the pair sweeps
        # over one root tolerance, rtol (1 + |E|)
        sweep = fall[two] * rtol * (1 + np.abs(root)) / (hi2 - lo2)
        double = ok & (np.abs(np.angle(np.linalg.eigvals(w))).max(axis=-1) <= sweep)
        split = ok & ~double
        levels += [(e, 2) for e in root[double].tolist()]
        lo1, hi1 = np.r_[lo1, lo2[split], root[split]], np.r_[hi1, root[split], hi2[split]]
        c1 = np.r_[c1, c_lo[two][split], _phase_sum(w[split])]
    if len(lo1):
        # -4 sin(t1/2) sin(t2/2) for eigenphases t1 + t2 = phi, up to a sign
        # fixed per bracket: it changes sign where one of them crosses 0
        root, ok = _solve(p, bc, lo1, hi1, c1, lambda w, phi: np.real(
            np.linalg.det(np.eye(2) - w) * np.exp(-0.5j * phi)), rtol, atol)
        levels += [(e, 1) for e in root[ok].tolist()]

    levels.sort()
    eigenvalues, degeneracies, eigenfunctions, residuals = [], [], [], []
    all_cols = _bc_matrix(p, bc, np.array([e for e, _ in levels]), rtol, atol)[0] if levels else []
    for (root, count), cols in zip(levels, all_cols):
        funcs, res = _eigenfunctions_at(p, bc, root, cols, count, rtol, atol)
        worst = max(res)
        symmetry = max(_symmetry_defect(f) for f in funcs)
        if worst > RESIDUAL_LIMIT or symmetry > RESIDUAL_LIMIT:
            log.warning("dropping candidate E = %g (boundary residual %.2e, "
                        "symmetry defect %.2e)", root, worst, symmetry)
            continue
        eigenvalues.append(root)
        degeneracies.append(count)
        eigenfunctions.append(tuple(funcs))
        residuals.append(worst)

    return SpectrumResult(bc, p, eigenvalues, degeneracies, eigenfunctions,
                          residuals, det_trace)


def _symmetry_defect(f):
    """|<f, Af> - <Af, f>| evaluated through the endpoint Wronskian form."""
    table = np.array([[f.df1, f.f1, f.df0, f.f0]])
    return abs(endpoint_form(table, 0, 0))


def _derivative_uniform(y, h):
    """Fourth-order first derivative of samples on a uniform grid."""
    n = len(y)
    if n < 5:
        return np.gradient(y, h)
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
                "symmetry": _symmetry_defect(f),
                "eigen_equation": _eigen_equation_defect(result.potential, f, energy),
            })
    def worst(key):
        return max((e[key] for e in entries), default=0.0)
    return {"per_eigenfunction": entries,
            "worst_boundary": worst("boundary"),
            "worst_symmetry": worst("symmetry"),
            "worst_eigen_equation": worst("eigen_equation")}
