"""Complex second-order linear ODE engine: -f'' + V(x) f = lam f.

The equation is the first-order system y' = A(x) y for y = (f, f'), with
A = [[0, 1], [q, 0]] and q = V - lam.  It is stepped with the fourth-order
Magnus method on a deterministic per-piece uniform grid (spacing <= a/512)
whose pieces end at the potential breakpoints, so no step straddles a jump
in V.  One step of length h samples q at the two Gauss points
x_m -+ (sqrt(3)/6) h and exponentiates

    Omega = [[d, h], [h qbar, -d]],  qbar = (q1 + q2)/2,
    d = sqrt(3) h^2 (q1 - q2)/12,

in closed form: Omega^2 = s^2 I with s^2 = d^2 + h^2 qbar, so
exp(Omega) = cosh(s) I + (sinh(s)/s) Omega.  The step is real for real lam
and exact on pieces of constant V.  Steps are multiplied as deviations from
the identity, so a piece of many near-identity steps keeps its rounding
error near machine precision instead of letting it grow with the step count.

Error control is by step halving, piece by piece.  Each grid interval is
covered with 2**k and 2**(k-1) Magnus steps; the method's error expansion
is even in h, so the Richardson value T_fine + (T_fine - T_coarse)/15 is
returned.  Its error estimate |T_fine - T_coarse|/15 must stay below
rtol*max(1, size) + atol: entrywise maxima, per energy for a piece's
transfer matrix (size |T - I|) and per sample for a trajectory (size
|(f, f')|).  Otherwise k grows, up to MAX_HALVINGS, after which
IntegrationError is raised.  ``propagate`` evaluates many energies at once.

Every solution of the same potential over the same span shares the grid,
which makes pointwise linear combinations and quadrature between
solutions well defined.  Each piece has a multiple of 4 grid intervals, so
its Simpson sum can be Richardson-corrected with the sum on every other
sample (Boole's rule).  scipy's solve_ivp serves only as the reference
in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError, IntegrationError

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12

MAX_HALVINGS = 8      # step halvings per grid interval before IntegrationError
ENERGY_BLOCK = 8      # energies per batch in propagate; bounds the peak memory
STEP_CHUNK = 4096     # Magnus steps generated per batch and energy

_INTERVALS_PER_HALFWIDTH = 512  # dense spacing target a/512, well under the a/128 contract
_MIN_SEGMENT_INTERVALS = 8
_INTERVAL_MULTIPLE = 4  # quadrature halves a piece's Simpson panels once
_GAUSS_OFFSET = np.sqrt(3.0) / 6.0  # two-point Gauss nodes sit at x_m -+ this times h


@dataclass(frozen=True)
class OdeSolution:
    """Dense trajectory of -f'' + V f = lam f with its derivative.

    Attributes:
        lam: spectral parameter (i for deficiency solves, real E otherwise).
        x0, x1: integration endpoints (x strictly monotone from x0 to x1).
        f0, df0: initial values f(x0), f'(x0).
        x, f, df: sample abscissae and values; x[0] == x0, x[-1] == x1.
        segments: index of the first sample of each smooth piece; quadrature
            and differentiation operate piecewise so jumps in V never sit
            inside a stencil.
    """

    lam: complex
    x0: float
    x1: float
    f0: complex
    df0: complex
    x: np.ndarray
    f: np.ndarray
    df: np.ndarray
    segments: tuple

    @property
    def f1(self):
        return self.f[-1]

    @property
    def df1(self):
        return self.df[-1]

    def scaled(self, c):
        """The trajectory for initial data c*(f0, df0); exact by linearity."""
        c = complex(c)
        return OdeSolution(self.lam, self.x0, self.x1, c * self.f0, c * self.df0,
                           self.x, c * self.f, c * self.df, self.segments)

    def segment_slices(self):
        """Per-piece index slices; junction samples belong to both neighbours."""
        stops = (*self.segments[1:], len(self.x) - 1)
        return [slice(lo, hi + 1) for lo, hi in zip(self.segments, stops)]


def _segment_grid(p, x0, x1):
    """Per-piece uniform abscissae from x0 to x1 plus the piece boundaries.

    Returns a list of (lo, hi, V callable, grid) per piece, in integration
    order.  Grids share their junction points, and each piece's interval
    count is a multiple of _INTERVAL_MULTIPLE.
    """
    lo, hi = (x0, x1) if x1 > x0 else (x1, x0)
    edges = [lo] + [b for b in p.breakpoints() if lo < b < hi] + [hi]
    h_target = p.a / _INTERVALS_PER_HALFWIDTH
    pieces = []
    for s_lo, s_hi in zip(edges[:-1], edges[1:]):
        n = max(_MIN_SEGMENT_INTERVALS, int(np.ceil((s_hi - s_lo) / h_target)))
        n = -(-n // _INTERVAL_MULTIPLE) * _INTERVAL_MULTIPLE
        grid = np.linspace(s_lo, s_hi, n + 1)
        pieces.append((s_lo, s_hi, p.piece_callable(s_lo, s_hi), grid))
    if x1 < x0:
        pieces = [(s_hi, s_lo, vf, grid[::-1]) for s_lo, s_hi, vf, grid in pieces[::-1]]
    return pieces


def _cosh_sinhc(z):
    """cosh(sqrt z) - 1 and sinh(sqrt z)/sqrt z, entire in z and real for real z.

    Both come from half-angle functions, so cosh - 1 keeps full relative
    precision for the small arguments of a Magnus step.
    """
    if np.iscomplexobj(z):
        s = np.sqrt(z)
        sh, ch, sign = np.sinh(0.5 * s), np.cosh(0.5 * s), 1.0
    else:  # real sqrt: sinh and cosh where z > 0, sin and cos elsewhere
        grows = z > 0
        s = np.sqrt(np.abs(z))
        sh = np.where(grows, np.sinh(0.5 * s), np.sin(0.5 * s))
        ch = np.where(grows, np.cosh(0.5 * s), np.cos(0.5 * s))
        sign = np.where(grows, 1.0, -1.0)
    nonzero = s != 0
    sinhc = np.where(nonzero, 2.0 * sh * ch / np.where(nonzero, s, 1.0), 1.0)
    return 2.0 * sign * sh * sh, sinhc


def _mul(left, right):
    """Batched 2x2 product (I + L)(I + R) = I + L + R + LR of matrices stored
    as their deviation from the identity, entries (t00, t01, t10, t11).

    Keeping I implicit means the many near-identity Magnus steps of a piece
    multiply without rounding their small deviations against 1.
    """
    a, b, c, d = left
    e, f, g, h = right
    return (a + e + (a * e + b * g), b + f + (a * f + b * h),
            c + g + (c * e + d * g), d + h + (c * f + d * h))


def _chain(m):
    """Ordered product along the last axis, later factors on the left.

    A pairwise tree: each round multiplies neighbours, so a product of n
    factors takes log2(n) vectorized rounds.
    """
    while m[0].shape[-1] > 1:
        n = m[0].shape[-1]
        even = n - n % 2
        pairs = _mul([x[..., 1:even:2] for x in m], [x[..., 0:even:2] for x in m])
        if n % 2:
            pairs = [np.concatenate([p, x[..., -1:]], axis=-1) for p, x in zip(pairs, m)]
        m = pairs
    return tuple(x[..., 0] for x in m)


def _prefix(m):
    """Inclusive ordered prefix products along the last axis (log2(n) rounds)."""
    n = m[0].shape[-1]
    span = 1
    while span < n:
        prod = _mul([x[..., span:] for x in m], [x[..., :-span] for x in m])
        m = tuple(np.concatenate([x[..., :span], p], axis=-1) for x, p in zip(m, prod))
        span *= 2
    return m


def _gauss_samples(vfun, grid, sub, h):
    """Energy-independent parts of every Magnus step with 2**k = sub steps per
    grid interval: qbar + lam = (V1 + V2)/2 and d, from V at the two Gauss
    points, in chunks of at most STEP_CHUNK steps."""
    n = len(grid) - 1
    per_chunk = max(1, STEP_CHUNK // sub)
    chunks = []
    for j0 in range(0, n, per_chunk):
        mid = grid[0] + (np.arange(j0 * sub, min(n, j0 + per_chunk) * sub) + 0.5) * h
        v1, v2 = vfun(mid - _GAUSS_OFFSET * h), vfun(mid + _GAUSS_OFFSET * h)
        chunks.append((0.5 * (v1 + v2), (np.sqrt(3.0) / 12.0 * h * h) * (v1 - v2)))
    return chunks


def _interval_transfers(vfun, lams, grid, levels, samples=None):
    """Transfer matrices of every grid interval, each covered by 2**k Magnus steps.

    lams is a 1-D array of spectral parameters and levels a tuple of
    halving counts k; returns the entries (t00 - 1, t01, t10, t11 - 1),
    each of shape (len(levels), len(lams), len(grid) - 1).  Steps are
    generated STEP_CHUNK at a time so memory stays flat as h shrinks.
    samples, a dict keyed by k, keeps the sampled potential between calls
    on the same piece, so V is sampled once per level however many energy
    blocks pass through it.
    """
    samples = {} if samples is None else samples
    n = len(grid) - 1
    out = []
    for halvings in levels:
        sub = 1 << halvings
        h = (grid[-1] - grid[0]) / (n * sub)
        if halvings not in samples:
            samples[halvings] = _gauss_samples(vfun, grid, sub, h)
        parts = []
        for vbar, d in samples[halvings]:
            h_qbar = h * (vbar - lams[:, None])
            cm1, sc = _cosh_sinhc(d * d + h * h_qbar)
            sd = sc * d
            steps = (cm1 + sd, sc * h, sc * h_qbar, cm1 - sd)  # exp(Omega) - I
            parts.append(_chain([x.reshape(len(lams), -1, sub) for x in steps]))
        out.append([np.concatenate(p, axis=1) for p in zip(*parts)])
    return tuple(np.stack(x) for x in zip(*out))


def _extrapolate(fine, coarse, rtol, atol):
    """Richardson value of a step-halved pair and where its error estimate fails.

    Entries are compared along axis 0 (the four matrix entries or the two
    components of y); the returned mask has the shape of the remaining axes.
    """
    fine, coarse = np.asarray(fine), np.asarray(coarse)
    value = fine + (fine - coarse) / 15.0
    err = np.max(np.abs(fine - coarse), axis=0) / 15.0
    size = np.max(np.abs(value), axis=0)
    return value, ~(err <= rtol * np.maximum(1.0, size) + atol)


def _refine(compute, rtol, atol, x_start):
    """Halve h until the Richardson error estimate passes.

    compute(levels, mask) returns the result at each halving count in
    levels, stacked on axis 0, for the selected entries of the last axis
    (mask None: all of them).
    """
    coarse, fine = compute((0, 1), None)
    for halvings in range(2, MAX_HALVINGS + 2):
        value, bad = _extrapolate(fine, coarse, rtol, atol)
        if not np.all(np.isfinite(value)):
            raise IntegrationError(f"solution overflowed after x = {x_start}", x_fail=x_start)
        if not bad.any():
            return value
        if halvings > MAX_HALVINGS:
            break
        coarse[..., bad] = fine[..., bad]
        fine[..., bad] = compute((halvings,), bad)[0]
    raise IntegrationError(f"no convergence after {MAX_HALVINGS} step halvings "
                           f"on the piece starting at x = {x_start}", x_fail=x_start)


def _spectral_array(lam):
    """lam as a 1-D array, real when every entry is real."""
    lams = np.atleast_1d(np.asarray(lam))
    if lams.ndim != 1:
        raise ValueError("lam must be a scalar or a 1-D array")
    if np.iscomplexobj(lams) and not np.any(lams.imag):
        lams = lams.real
    return lams.astype(complex if np.iscomplexobj(lams) else float)


def integrate(p, lam, x0, x1, f0, df0, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Integrate -f'' + V f = lam f from x0 to x1 with dense output.

    Args:
        p: the Potential (both endpoints must lie in [-a, a]).
        lam: complex spectral parameter.
        x0, x1: distinct endpoints; integration may run in either direction.
        f0, df0: initial values f(x0), f'(x0).
        rtol, atol: bound on the estimated error of every sample, relative
            to max(1, |(f, f')|) and absolute; both positive.

    Returns:
        OdeSolution with dense samples spaced at most a/512 apart.

    Raises:
        IntegrationError: when the solution overflows or h would be halved
            more than MAX_HALVINGS times; carries the start of the piece.
    """
    if x0 == x1:
        raise ValueError("x0 and x1 must differ")
    if rtol <= 0 or atol <= 0:
        raise ValueError("rtol and atol must be positive")
    lam = complex(lam)
    lams = _spectral_array(lam)
    y = (complex(f0), complex(df0))

    xs, fs, dfs, seg_starts = [], [], [], []
    count = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _, _, vfun, grid in _segment_grid(p, x0, x1):
            def trajectory(levels, bad, vfun=vfun, grid=grid, y=y):
                t = _prefix(tuple(x[:, 0] for x in _interval_transfers(vfun, lams, grid, levels)))
                start = np.full((len(levels), 1), y[0]), np.full((len(levels), 1), y[1])
                f = np.concatenate([start[0], (1.0 + t[0]) * y[0] + t[1] * y[1]], axis=-1)
                df = np.concatenate([start[1], t[2] * y[0] + (1.0 + t[3]) * y[1]], axis=-1)
                out = np.stack([f, df], axis=1)
                return out if bad is None else out[..., bad]

            ys = _refine(trajectory, rtol, atol, float(grid[0]))
            skip = 1 if count else 0  # junction point already recorded
            seg_starts.append(count - skip)
            xs.append(grid[skip:])
            fs.append(ys[0, skip:])
            dfs.append(ys[1, skip:])
            count += len(grid) - skip
            y = (ys[0, -1], ys[1, -1])

    x = np.concatenate(xs)
    x.setflags(write=False)
    f = np.concatenate(fs)
    f.setflags(write=False)
    df = np.concatenate(dfs)
    df.setflags(write=False)
    return OdeSolution(lam, float(x0), float(x1), complex(f0), complex(df0),
                       x, f, df, tuple(seg_starts))


def propagate(p, lam, x0, x1, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Transfer matrix T with (f, f')(x1) = T @ (f, f')(x0).

    lam is a scalar, giving one (2, 2) matrix, or a 1-D array of spectral
    parameters, giving an (n, 2, 2) stack; the boundary-determinant scan
    evaluates all its energies in one call.  Energies are processed
    ENERGY_BLOCK at a time, and each piece's step matrices are reduced by
    a pairwise tree product; V is sampled once per piece and halving level
    and shared by all energy blocks.  rtol and atol bound the estimated
    error of every piece's transfer matrix T, relative to max(1, max |T - I|).

    Raises:
        IntegrationError: when the solution overflows or h would be halved
            more than MAX_HALVINGS times; carries the start of the piece.
    """
    lams = _spectral_array(lam)
    pieces = _segment_grid(p, x0, x1)
    samples = [{} for _ in pieces]
    out = np.empty((len(lams), 2, 2), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(lams), ENERGY_BLOCK):
            block = lams[start:start + ENERGY_BLOCK]
            t = (0.0, 0.0, 0.0, 0.0)  # deviation from the identity
            for (_, _, vfun, grid), cache in zip(pieces, samples):
                def transfer(levels, bad, vfun=vfun, grid=grid, cache=cache):
                    sel = block if bad is None else block[bad]
                    steps = _interval_transfers(vfun, sel, grid, levels, cache)
                    return np.stack(_chain(steps), axis=1)
                t = _mul(_refine(transfer, rtol, atol, float(grid[0])), t)
            t = np.broadcast_arrays(1.0 + t[0], t[1], t[2], 1.0 + t[3])
            out[start:start + len(block)] = np.stack(t, axis=-1).reshape(-1, 2, 2)
    return out[0] if np.ndim(lam) == 0 else out


def _same_grid(u, w):
    return (u.x.shape == w.x.shape and np.array_equal(u.x, w.x)
            and u.segments == w.segments)


def _simpson(y, h):
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def quadrature(sol, values):
    """Integral of sampled values over sol's grid.

    Per piece, the composite Simpson sum S_h is corrected by one Richardson
    step with the Simpson sum S_2h on every other sample:
    S_h + (S_h - S_2h)/15, which is Boole's rule.  Integrating piece by
    piece keeps discontinuities of V on panel edges.

    Raises:
        GridError: when a piece's interval count is not a multiple of 4.
    """
    total = 0.0 + 0.0j
    for sl in sol.segment_slices():
        y, xs = values[sl], sol.x[sl]
        n = len(y) - 1
        if n % _INTERVAL_MULTIPLE:
            raise GridError(f"a piece of {n} intervals; quadrature needs a multiple of 4")
        h = (xs[-1] - xs[0]) / n
        fine = _simpson(y, h)
        total += fine + (fine - _simpson(y[::2], 2.0 * h)) / 15.0
    return total


def l2_inner(u, w):
    """L2 inner product <u, w> = integral conj(u) w, conjugate-linear in u.

    Raises:
        GridError: when the two trajectories do not share abscissae.
    """
    if not _same_grid(u, w):
        raise GridError("solutions sampled on different grids")
    return complex(quadrature(u, np.conj(u.f) * w.f))


def norm(u):
    """L2 norm of the trajectory."""
    return float(np.sqrt(max(l2_inner(u, u).real, 0.0)))


def combine(solutions, coeffs):
    """Pointwise linear combination sum_k c_k u_k on a shared grid."""
    base = solutions[0]
    for other in solutions[1:]:
        if not _same_grid(base, other) or other.lam != base.lam:
            raise GridError("cannot combine solutions from different grids or lambdas")
    f = sum(c * s.f for c, s in zip(coeffs, solutions))
    df = sum(c * s.df for c, s in zip(coeffs, solutions))
    f0 = sum(c * s.f0 for c, s in zip(coeffs, solutions))
    df0 = sum(c * s.df0 for c, s in zip(coeffs, solutions))
    return OdeSolution(base.lam, base.x0, base.x1, f0, df0, base.x, f, df, base.segments)


def wronskian(u, w):
    """Samplewise Wronskian u w' - u' w (no conjugation); constant in x
    for two solutions of the same equation."""
    if not _same_grid(u, w):
        raise GridError("solutions sampled on different grids")
    return u.f * w.df - u.df * w.f


def potential_on_grid(p, sol):
    """V sampled on the solution grid using per-piece (left-limit) values."""
    out = np.empty_like(sol.x)
    for sl in sol.segment_slices():
        xs = sol.x[sl]
        lo, hi = (xs[0], xs[-1]) if xs[-1] > xs[0] else (xs[-1], xs[0])
        out[sl] = p.piece_callable(lo, hi)(xs)
    return out
