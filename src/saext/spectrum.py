"""Spectra of self-adjoint extensions via boundary-determinant shooting.

For a trial energy E the two fundamental solutions u1, u2 of
-f'' + V f = E f are launched from x = -a with data (1, 0) and (0, 1).
Column k of the 2x2 matrix M(E) is the endpoint-relation residual of u_k,

    (u_k'(a) - i u_k(a), u_k'(-a) + i u_k(-a))^T
        - Ucal (u_k'(a) + i u_k(a), u_k'(-a) - i u_k(-a))^T,

scaled by the largest boundary magnitude of u_k so nothing overflows for
deep wells or large |E|.  det M(E) = 0 exactly when some combination of
u1, u2 satisfies the boundary conditions, i.e. when E is an eigenvalue;
eigenvalues are located by scanning |det| on a grid and refining all
local minima together: every round of the bracketed minimization of
|det|^2 and of the secant polish evaluates M(E) for all live candidates
in one batched propagation.  Eigenfunctions come from the null space of
M(E); two vanishing singular values signal a doubly degenerate level.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
# Chandrupatla's bracketed minimizer, vectorized over candidates; bound to the
# name of the scalar minimizer it replaced, which perfbench's tracer wraps
from scipy.optimize.elementwise import find_minimum as minimize_scalar

from . import odesolve
from .bcclassify import BoundaryCondition, apply_bc
from .deficiency import endpoint_form
from .odesolve import DEFAULT_ATOL, DEFAULT_RTOL, OdeSolution
from .potential import Potential

log = logging.getLogger(__name__)

ACCEPT_RATIO = 1e-7        # |det| acceptance relative to the column scale
DEGENERACY_RATIO = 1e-5    # both singular values below this => double level
RESIDUAL_LIMIT = 1e-6      # stored eigenfunctions must satisfy the BC this well
SCAN_RTOL = 1e-7           # coarse tolerance for the minima-locating scan


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues of one extension with eigenfunctions and diagnostics.

    ``eigenfunctions[i]`` holds one or two L2-normalized OdeSolution
    trajectories matching ``degeneracies[i]``; ``residuals[i]`` is the
    worst endpoint-relation residual among them.  ``det_trace`` keeps the
    (E, |det|) samples of the scan for plotting and diagnostics.
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
    """Normalized M(E) and the per-column cancellation scales.

    energy may be a scalar or a 1-D array; the array form propagates all
    energies in one call and returns (n, 2, 2) matrices with (n, 2) scales.
    """
    transfer = odesolve.propagate(p, energy, -p.a, p.a, rtol, atol)
    ua, dua = transfer[..., 0, :], transfer[..., 1, :]  # column k: u_k(a), u_k'(a)
    uma, duma = np.eye(2)                               # u_k(-a), u_k'(-a)
    minus = np.stack(np.broadcast_arrays(dua - 1j * ua, duma + 1j * uma), axis=-2)
    plus = np.stack(np.broadcast_arrays(dua + 1j * ua, duma - 1j * uma), axis=-2)
    s = np.maximum(np.maximum(np.abs(ua), np.abs(dua)), 1.0)[..., None, :]
    cols = (minus - bc.Ucal.matrix @ plus) / s
    scales = (np.linalg.norm(minus, axis=-2) + np.linalg.norm(plus, axis=-2)) / s[..., 0, :]
    return cols, scales


def det_function(p, bc, energy, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """det M(E) with overflow-guarded (column-normalized) entries."""
    cols, _ = _bc_matrix(p, bc, energy, rtol, atol)
    return complex(np.linalg.det(cols))


def _scaled_det(p, bc, energy, rtol, atol):
    """det M(E) over the product of the column scales; its modulus is the
    acceptance metric."""
    cols, scales = _bc_matrix(p, bc, energy, rtol, atol)
    return np.linalg.det(cols) / (scales[..., 0] * scales[..., 1])


def _polish_roots(p, bc, roots, values, lo, hi, rtol, atol):
    """Secant steps on the complex determinant to sharpen refined roots.

    The determinant is analytic in E, so near a simple root one
    finite-difference slope gives the least-squares real step; near a
    double root the step halves the error per pass.  A root keeps being
    polished only while its acceptance metric is not already comfortably
    met and each step lowers it, for at most six passes.  values holds the
    metric at each root (inf when unknown) and is re-measured at every
    polished root.  All roots step in lockstep: a pass evaluates every
    live root and its offset in one batched call and every step target
    in a second one.
    """
    roots, values = roots.copy(), values.copy()
    live = np.arange(len(roots))
    for _ in range(6):
        live = live[~(values[live] <= 0.1 * ACCEPT_RATIO)]
        if not len(live):
            break
        root = roots[live]
        h = 1e-9 * np.maximum(1.0, np.abs(root))
        d0, dh = np.split(_scaled_det(p, bc, np.concatenate([root, root + h]), rtol, atol), 2)
        values[live] = np.abs(d0)
        slope = (dh - d0) / h
        ok = np.isfinite(slope) & (slope != 0.0)
        live, root, d0, slope = live[ok], root[ok], d0[ok], slope[ok]
        if not len(live):
            break
        step = -np.real(np.conj(slope) * d0) / np.abs(slope) ** 2
        candidate = np.clip(root + step, lo[live], hi[live])
        new_value = np.abs(_scaled_det(p, bc, candidate, rtol, atol))
        improved = new_value < values[live]
        live = live[improved]
        roots[live], values[live] = candidate[improved], new_value[improved]
    return roots, values


def _phase_fixed(sol):
    idx = int(np.argmax(np.abs(sol.f)))
    peak = sol.f[idx]
    return sol.scaled(np.conj(peak) / abs(peak)) if abs(peak) > 0 else sol


def _eigenfunctions_at(p, bc, energy, cols, scales, rtol, atol):
    """Null-space eigenfunctions at an accepted root, with residuals.

    cols and scales are M(E) and its column scales from _bc_matrix.
    """
    _, svals, vh = np.linalg.svd(cols)
    double = svals[0] <= DEGENERACY_RATIO * max(scales)
    null_vectors = [np.conj(vh[-1])] if not double else [np.conj(vh[-1]), np.conj(vh[-2])]

    u1 = odesolve.integrate(p, energy, -p.a, p.a, 1.0, 0.0, rtol, atol)
    u2 = odesolve.integrate(p, energy, -p.a, p.a, 0.0, 1.0, rtol, atol)
    # undo the column normalization: M columns were divided by scales s_k
    s = np.array([max(abs(u1.f1), abs(u1.df1), 1.0), max(abs(u2.f1), abs(u2.df1), 1.0)])

    funcs = []
    for vec in null_vectors:
        f = odesolve.combine([u1, u2], vec / s)
        for prev in funcs:  # L2-orthonormalize a degenerate pair
            f = odesolve.combine([f, prev], [1.0, -odesolve.l2_inner(prev, f)])
        f = f.scaled(1.0 / odesolve.norm(f))
        funcs.append(_phase_fixed(f))

    residuals = [apply_bc(bc, f.f1, f.f0, f.df1, f.df0) for f in funcs]
    return funcs, residuals, 2 if double else 1


def _refine(p, bc, energies, candidates, rtol, atol):
    """Refine every scan minimum in lockstep; returns the accepted roots.

    Candidate i is bracketed by the grid points one step either side of
    energies[i].  At the first and last grid point the outer bracket point
    lies one step outside the scan range, so roots inside the edge
    intervals keep a valid three-point bracket; a root found out there is
    clipped back into range and judged by the polish.  The minimization
    runs on offsets from energies[i] in units of max(1, |E|), so its
    sqrt(eps)-relative resolution floor applies to the small offset, not
    to E itself.  A bracket whose middle is not its lowest point at full
    tolerance starts the polish from its lower end.
    """
    step = energies[1] - energies[0]
    mid = energies[candidates]
    scale = np.maximum(1.0, np.abs(mid))
    lo = energies[np.maximum(candidates - 1, 0)]
    hi = energies[np.minimum(candidates + 1, len(energies) - 1)]
    result = minimize_scalar(
        lambda d, mid, scale: np.abs(_scaled_det(p, bc, mid + d * scale, rtol, atol)) ** 2,
        (-step / scale, np.zeros_like(mid), step / scale), args=(mid, scale),
        tolerances={"xatol": 1e-12}, maxiter=200)
    invalid = result.status == -1
    first = result.f_bracket[0] <= result.f_bracket[2]
    offset = np.where(invalid, np.where(first, *result.bracket[::2]), result.x)
    fun = np.where(invalid, np.minimum(*result.f_bracket[::2]), result.f_x)
    for i in np.flatnonzero(~invalid & ~result.success):
        log.warning("refinement did not converge near E = %g: find_minimum status %d",
                    energies[candidates[i]], result.status[i])
    ok = invalid | result.success
    root = mid + offset * scale
    clipped = np.clip(root, lo, hi)
    value = np.where(clipped == root, np.sqrt(np.maximum(fun, 0.0)), np.inf)
    root, value = _polish_roots(p, bc, clipped[ok], value[ok], lo[ok], hi[ok], rtol, atol)
    return root[value <= ACCEPT_RATIO].tolist()


def find_eigenvalues(p, bc, e_min=None, e_max=40.0, grid=None, rtol=DEFAULT_RTOL,
                     atol=DEFAULT_ATOL, scan_rtol=SCAN_RTOL):
    """Locate all eigenvalues of the extension in [e_min, e_max].

    The scan propagates all grid energies in one batched call at the
    coarse ``scan_rtol`` (locating minima needs no more).  Every local
    minimum of the scan is a candidate, bracketed by its two grid
    neighbours.  All candidates are refined in lockstep at full tolerance,
    by Chandrupatla's bracketed minimization of |det|^2 and then secant
    steps on det, and each round evaluates every live candidate in one
    batched propagation.  A root is accepted only if |det| falls below
    ACCEPT_RATIO times the column scale.  Roots closer than
    (e_max - e_min)/(10 grid) are deduplicated, and M(E) at the kept
    roots comes from one more batched call.

    Args:
        e_min: scan floor; defaults to -sup|V| - 1 so attractive boundary
            conditions with negative levels are not missed.
        grid: number of scan points (>= 16); defaults to a density of
            eight points per (pi/2a)^2, half the bottom level spacing.

    Returns:
        SpectrumResult (empty eigenvalue list when no roots are found).
    """
    if e_min is None:
        e_min = -p.sup_norm() - 1.0
    if grid is None:
        spacing = (np.pi / (2.0 * p.a)) ** 2 / 8.0
        grid = max(16, int(np.ceil((e_max - e_min) / spacing)))
    if e_min >= e_max:
        raise ValueError(f"empty scan range [{e_min}, {e_max}]")
    if grid < 16:
        raise ValueError("grid must be at least 16")

    energies = np.linspace(e_min, e_max, grid)
    cols, scales = _bc_matrix(p, bc, energies, scan_rtol, atol)
    absdets = np.abs(np.linalg.det(cols))
    ratios = absdets / (scales[:, 0] * scales[:, 1])
    det_trace = list(zip(energies.tolist(), absdets.tolist()))

    # local minima of the scan; the lowest point is always one, so there is one at least
    candidates = np.flatnonzero(np.r_[True, ratios[1:] <= ratios[:-1]]
                                & np.r_[ratios[:-1] <= ratios[1:], True])
    roots = sorted(_refine(p, bc, energies, candidates, rtol, atol))
    dedup_tol = (e_max - e_min) / (10.0 * grid)
    kept = []
    for root in roots:
        if kept and root - kept[-1] < dedup_tol:
            continue
        kept.append(root)

    eigenvalues, degeneracies, eigenfunctions, residuals = [], [], [], []
    cols, scales = _bc_matrix(p, bc, np.array(kept), rtol, atol) if kept else ([], [])
    for root, root_cols, root_scales in zip(kept, cols, scales):
        funcs, res, degeneracy = _eigenfunctions_at(p, bc, root, root_cols, root_scales,
                                                    rtol, atol)
        worst = max(res)
        symmetry = max(_symmetry_defect(f) for f in funcs)
        if worst > RESIDUAL_LIMIT or symmetry > RESIDUAL_LIMIT:
            log.warning("dropping candidate E = %g (boundary residual %.2e, "
                        "symmetry defect %.2e)", root, worst, symmetry)
            continue
        eigenvalues.append(root)
        degeneracies.append(degeneracy)
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
