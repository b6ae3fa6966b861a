"""Complex second-order linear ODE engine: -f'' + V(x) f = lam f.

The equation is the first-order system y' = A(x) y for y = (f, f'), with
A = [[0, 1], [q, 0]] and q = V - lam.  It is stepped with the fourth-order
Magnus method on uniform steps that tile a deterministic per-piece grid
(spacing <= a/512) whose pieces end at the potential breakpoints, so no
step straddles a jump in V.  One step of length h samples q at the two
Gauss points x_m -+ (sqrt(3)/6) h and exponentiates

    Omega = [[d, h], [h qbar, -d]],  qbar = (q1 + q2)/2,
    d = sqrt(3) h^2 (q1 - q2)/12,

in closed form: Omega^2 = s^2 I with s^2 = d^2 + h^2 qbar, so
exp(Omega) = cosh(s) I + (sinh(s)/s) Omega.  The step is real for real lam
and exact on pieces of constant V.  Steps are multiplied as deviations from
the identity, so a piece of many near-identity steps keeps its rounding
error near machine precision instead of letting it grow with the step count.

Error control chooses the step, piece by piece.  At level k, 2**k Magnus
steps cover each grid interval, or for k < 0 one step covers 2**-k of
them.  The piece is stepped at levels k and k + 1; the method's error
expansion is even in h, so the Richardson value
P_fine + (P_fine - P_coarse)/15 of the piece's prefix products P is
returned.  For each energy the largest estimate |P_fine - P_coarse|/15
must stay below rtol*max(1, max |P - I|), the maximum over the piece:
the largest magnitude the product passes through sets its rounding, also
where it cancels back to a small value.  Otherwise k grows
to the level where the estimate, which falls 16-fold as h halves, should
pass, up to MAX_HALVINGS, after which IntegrationError is raised.
``fundamental_solutions`` runs at DEFAULT_RTOL from k = 0, since its
output lives on the grid.  ``propagate``, the one pass that takes rtol,
returns only products over whole blocks of intervals, so it starts with
steps of up to 2**_MAX_COARSENINGS intervals that turn the phase of a
solution by less than pi/4, and each later block of energies at the
level the estimates of the one before point to.  It evaluates many
energies at once and counts the zeros of a solution on the way.  For an
even V over a span symmetric about 0, where the mirror image of a
solution solves too, it steps only the half from 0: the even and odd
solutions there give the whole span's T by reflection, and the sum of
their zeros is the zero count of the solution launched at an end.

The spectrum's boundary-data pass (_edge_transfers) steps the same way at
DEFAULT_RTOL, and returns T at block edges at most a/32 apart together
with each block's own transfer S and dS/dlam.  The derivative of one step
is closed form: with dz/dlam = -h^2 for z = s^2, d(cosh s)/dz = sinhc/2,
d(sinhc)/dz = (s cosh s - sinh s)/2s^3 and dOmega/dlam = [[0, 0], [-h, 0]],
and the pairwise products within a block carry (AB, A'B + AB'); S and
dS/dlam take the Richardson step at the levels the error control of the
piece's prefix products picks.  For an even V its pass from -b too steps
only [0, b] and mirrors the blocks.

Every solution of the same potential over the same span shares the grid,
which makes pointwise linear combinations and quadrature between
solutions well defined.  Each piece has a multiple of 4 grid intervals, so
its Simpson sum can be Richardson-corrected with the sum on every other
sample (Boole's rule).  scipy's solve_ivp serves only as the reference
in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError, IntegrationError

DEFAULT_RTOL = 1e-10

MAX_HALVINGS = 8      # finest step: 2**8 per grid interval; finer raises IntegrationError
ENERGY_BLOCK = 32     # energies per batch of propagate and fundamental_solutions
STEP_CHUNK = 4096     # Magnus steps generated per batch and energy

_INTERVALS_PER_HALFWIDTH = 512  # dense spacing target a/512, well under the a/128 contract
_MIN_SEGMENT_INTERVALS = 8
_MAX_COARSENINGS = 3  # propagate's first steps span up to 2**3 grid intervals (a/64)
_EDGE_ROUNDS = 4  # _edge_transfers reports T every 2**4 grid intervals (a/32)
_INTERVAL_MULTIPLE = 4  # quadrature halves a piece's Simpson panels once
_GAUSS_OFFSET = np.sqrt(3.0) / 6.0  # two-point Gauss nodes sit at x_m -+ this times h


@dataclass(frozen=True)
class OdeSolution:
    """Dense trajectory of -f'' + V f = lam f with its derivative.

    Attributes:
        lam: spectral parameter (i for deficiency solves, real E otherwise).
        x, f, df: sample abscissae, strictly monotone from x0 = x[0] to
            x1 = x[-1], and values; f0, df0, f1 and df1 are the end values.
        segments: index of the first sample of each smooth piece; quadrature
            and differentiation operate piecewise so jumps in V never sit
            inside a stencil.
    """

    lam: complex
    x: np.ndarray
    f: np.ndarray
    df: np.ndarray
    segments: tuple

    @property
    def x0(self):
        return self.x[0]

    @property
    def x1(self):
        return self.x[-1]

    @property
    def f0(self):
        return self.f[0]

    @property
    def df0(self):
        return self.df[0]

    @property
    def f1(self):
        return self.f[-1]

    @property
    def df1(self):
        return self.df[-1]

    def scaled(self, c):
        """The trajectory for initial data c*(f0, df0); exact by linearity."""
        c = complex(c)
        return OdeSolution(self.lam, self.x, c * self.f, c * self.df, self.segments)

    def segment_slices(self):
        """Per-piece index slices; junction samples belong to both neighbours."""
        stops = (*self.segments[1:], len(self.x) - 1)
        return [slice(lo, hi + 1) for lo, hi in zip(self.segments, stops)]


def _segment_grid(p, x0, x1):
    """Per-piece uniform abscissae from x0 to x1 plus the piece boundaries.

    Returns a list of (lo, hi, V callable, grid) per piece, in integration
    order.  Grids share their junction points, and each piece's interval
    count is a multiple of _INTERVAL_MULTIPLE.  Raises DomainError when an
    endpoint lies outside [-a, a], with the slack of Potential.evaluate.
    """
    edge = p.a + 4e-16 * p.a
    if not (abs(x0) <= edge and abs(x1) <= edge):
        raise DomainError(f"endpoints {x0}, {x1} not both in [-{p.a}, {p.a}]")
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


# Taylor coefficients n / (2n + 1)! of d sinhc/dz, highest first (n = 8 .. 1)
_SINHC_SLOPE = tuple(n / math.factorial(2 * n + 1) for n in range(8, 0, -1))


def _sinhc_slope(z, cm1, sinhc):
    """d sinhc/dz = (s cosh s - sinh s) / 2 s^3 = (1 + cm1 - sinhc) / 2z for
    z = s^2, from _cosh_sinhc(z) = cm1, sinhc; its Taylor series where
    |z| < 1/2, where that difference cancels."""
    out = np.full_like(sinhc, _SINHC_SLOPE[0])
    for c in _SINHC_SLOPE[1:]:
        out *= z
        out += c
    far = np.abs(z) >= 0.5
    if far.any():
        out[far] = (1.0 + cm1[far] - sinhc[far]) / (2.0 * z[far])
    return out


def _mul(left, right):
    """Batched 2x2 product (I + L)(I + R) = I + L + R + LR of matrices stored
    as their deviation from the identity, in arrays of shape (2, 2, ...).

    Keeping I implicit means the many near-identity Magnus steps of a piece
    multiply without rounding their small deviations against 1.
    """
    lr = left[:, :1] * right[:1]
    lr += left[:, 1:] * right[1:]
    out = left + right
    out += lr
    return out


def _mul_dual(left, right):
    """_mul for pairs (T - I, dT/dE) stacked on a leading axis, shape (2, 2, 2, ...):
    the product and its derivative L'(I + R) + (I + L)R' = L' + R' + L'R + LR'."""
    (l, dl), (r, dr) = left, right
    out = np.empty(np.broadcast_shapes(left.shape, right.shape), np.result_type(left, right))
    out[0] = _mul(l, r)
    der = out[1]
    np.multiply(dl[:, :1], r[:1], out=der)
    der += dl[:, 1:] * r[1:]
    der += l[:, :1] * dr[:1]
    der += l[:, 1:] * dr[1:]
    der += dl
    der += dr
    return out


def _plus_identity(t):
    """I + t for a deviation t of shape (2, 2, ...).  Only the diagonal gets
    the 1, so an off-diagonal -0.0 stays -0.0."""
    out = np.array(t, dtype=np.result_type(t, 1.0))
    out[0, 0] += 1.0
    out[1, 1] += 1.0
    return out


def _blocks(m, rounds, mul=_mul):
    """Ordered products of consecutive blocks of 2**rounds factors along the
    last axis, later factors on the left, by rounds of a pairwise tree that
    each multiply neighbours; the last block may be shorter."""
    for _ in range(rounds):
        n = m.shape[-1]
        even = n - n % 2
        pairs = mul(m[..., 1:even:2], m[..., 0:even:2])
        m = np.concatenate([pairs, m[..., -1:]], axis=-1) if n % 2 else pairs
    return m


def _prefix(m):
    """Inclusive ordered prefix products along the last axis (log2(n) rounds)."""
    n = m.shape[-1]
    span = 1
    while span < n:
        m = np.concatenate([m[..., :span], _mul(m[..., span:], m[..., :-span])], axis=-1)
        span *= 2
    return m


def _gauss_samples(vfun, grid, halvings):
    """Step length h and the energy-independent parts of every Magnus step at
    level k = halvings, 2**k steps per grid interval (for k < 0, one step per
    2**-k intervals): qbar + lam = (V1 + V2)/2 and d, from V at the two Gauss
    points, in chunks of at most STEP_CHUNK steps."""
    n = round((len(grid) - 1) * 2.0 ** halvings)
    h = (grid[-1] - grid[0]) / n
    chunks = []
    for j0 in range(0, n, STEP_CHUNK):
        mid = grid[0] + (np.arange(j0, min(n, j0 + STEP_CHUNK)) + 0.5) * h
        v1, v2 = vfun(mid - _GAUSS_OFFSET * h), vfun(mid + _GAUSS_OFFSET * h)
        chunks.append((0.5 * (v1 + v2), (np.sqrt(3.0) / 12.0 * h * h) * (v1 - v2)))
    return h, chunks


def _interval_transfers(vfun, lams, grid, halvings, samples, dual=False):
    """Transfer matrices of every grid interval, each covered by 2**k Magnus
    steps, or for k < 0 of every step spanning 2**-k intervals.

    lams is a 1-D array of spectral parameters and k = halvings; returns
    their deviations T - I from the identity as one array of shape
    (2, 2, len(lams), len(grid) - 1), or (2, 2, len(lams), (len(grid) - 1) * 2**k)
    for k < 0.  With dual, the array gains a leading axis of size 2 that
    holds T - I and dT/dlam.  Steps are generated STEP_CHUNK at a time, a
    multiple of 2**k for k <= MAX_HALVINGS, so memory stays flat as h
    shrinks and every chunk holds whole intervals.  samples, a dict keyed
    by k, keeps the sampled potential between calls on the same piece, so V
    is sampled once per level however many energy blocks pass through it.
    """
    if halvings not in samples:
        samples[halvings] = _gauss_samples(vfun, grid, halvings)
    h, chunks = samples[halvings]
    parts = []
    for vbar, d in chunks:
        h_qbar = h * (vbar - lams[:, None])
        z = d * d + h * h_qbar
        cm1, sc = _cosh_sinhc(z)
        sd = sc * d
        steps = np.empty((2, 2) + sc.shape, sc.dtype)  # exp(Omega) - I
        np.add(cm1, sd, out=steps[0, 0])
        np.multiply(sc, h, out=steps[0, 1])
        np.multiply(sc, h_qbar, out=steps[1, 0])
        np.subtract(cm1, sd, out=steps[1, 1])
        if dual:
            # dz/dlam = -h^2 and dOmega/dlam = [[0, 0], [-h, 0]]
            dcm1, dsc = -0.5 * h * h * sc, -h * h * _sinhc_slope(z, cm1, sc)
            dsd = dsc * d
            dsteps = np.empty_like(steps)
            np.add(dcm1, dsd, out=dsteps[0, 0])
            np.multiply(dsc, h, out=dsteps[0, 1])
            dsteps[1, 0] = dsc * h_qbar - sc * h
            np.subtract(dcm1, dsd, out=dsteps[1, 1])
            steps = np.stack([steps, dsteps])
        parts.append(_blocks(steps, max(halvings, 0), _mul_dual if dual else _mul))
    return np.concatenate(parts, axis=-1)


def _piece_prefix(vfun, grid, lams, rounds, samples, rtol, start=0, x_start=None, dual=False):
    """Prefix products of one piece at the ends of its blocks of 2**rounds
    grid intervals, as deviations T - I from the identity in one array of
    shape (2, 2, number of blocks, len(lams)), and the level to start the
    next energies at.  Steps start at level start >= -rounds and shrink per energy until
    the error estimate passes (see the module docstring).  With dual, each
    block's own transfer S - I and dS/dlam take the place of the prefix
    products, on a leading axis of size 2; they take the prefix products'
    Richardson step at the levels their error estimate picks.  Errors carry
    x_start, by default the grid's first point."""
    def edges(levels, sel):
        blocks = np.stack([_blocks(_interval_transfers(vfun, sel, grid, k, samples, dual),
                                   rounds + min(k, 0), _mul_dual if dual else _mul)
                           for k in levels], axis=-3)  # ([2,] 2, 2, level, energy, block)
        prefix = np.concatenate([_prefix(blocks[0])[None], blocks]) if dual else _prefix(blocks)
        n = prefix.ndim  # to (level, [3,] 2, 2, block, energy)
        prefix = prefix.transpose(n - 3, *range(n - 3), n - 1, n - 2)
        return prefix.reshape(len(levels), -1, len(sel))

    x_start = float(grid[0]) if x_start is None else x_start
    coarse, fine = edges((start, start + 1), lams)
    t_rows = len(fine) // 3 if dual else len(fine)  # the rows of the prefix products
    level = np.full(len(lams), start)  # of each energy's coarser steps
    while True:
        value = fine + (fine - coarse) / 15.0
        if not np.all(np.isfinite(value)):
            raise IntegrationError(f"solution overflowed after x = {x_start}", x_fail=x_start)
        err = np.max(np.abs(fine[:t_rows] - coarse[:t_rows]), axis=0) / 15.0
        bound = rtol * np.maximum(1.0, np.max(np.abs(value[:t_rows]), axis=0))
        bad = ~(err <= bound)
        with np.errstate(divide="ignore"):  # the estimate falls 16-fold as h halves
            need = level + np.ceil(0.25 * np.log2(err / bound))
        if not bad.any():
            # the next energies start at most one level coarser, and not below a
            # level that failed here
            floor = np.where(level > start, start + 1, start - 1)
            out = value[t_rows:].reshape(2, 2, 2, -1, len(lams)) if dual else value.reshape(
                2, 2, -1, len(lams))
            return out, int(np.min(np.maximum(need, floor)))
        k = level[bad][0]  # shared by every energy still refined
        if k >= MAX_HALVINGS - 1:
            break
        target = int(min(np.min(need[bad]), MAX_HALVINGS - 1))
        if target == k + 1:
            coarse[:, bad] = fine[:, bad]
            fine[:, bad] = edges((target + 1,), lams[bad])[0]
        else:
            coarse[:, bad], fine[:, bad] = edges((target, target + 1), lams[bad])
        level[bad] = target
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


def fundamental_solutions(p, lam, x0, x1):
    """The solutions u1, u2 of -f'' + V f = lam f with (f, f')(x0) = (1, 0)
    and (0, 1), from one pass over the transfer matrices to every sample.

    lam is a scalar, giving the pair (u1, u2), or a 1-D array, giving a
    list of one such pair per entry; every solution shares one grid.
    Energies are processed ENERGY_BLOCK at a time, so the transient memory
    does not grow with their number, and V is sampled once per piece and
    step level.  Each block runs at DEFAULT_RTOL from k = 0 (module docstring).

    Args:
        p: the Potential (both endpoints must lie in [-a, a]).
        lam: complex spectral parameter, or a 1-D array of them.
        x0, x1: distinct endpoints; integration may run in either direction.

    Returns:
        (u1, u2), OdeSolutions with dense samples spaced at most a/512
        apart, or a list of such pairs.

    Raises:
        ValueError: when x0 = x1.
        DomainError: when an endpoint lies outside [-a, a].
        IntegrationError: when the solution overflows or h would be halved
            more than MAX_HALVINGS times; carries the start of the piece."""
    if x0 == x1:
        raise ValueError("x0 and x1 must differ")
    lams = _spectral_array(lam)
    pieces = _segment_grid(p, x0, x1)
    samples = [{} for _ in pieces]
    skips = [0] + [1] * (len(pieces) - 1)  # junction points already recorded
    x = np.concatenate([grid[skip:] for (_, _, _, grid), skip in zip(pieces, skips)])
    x.setflags(write=False)
    seg_starts = tuple(np.cumsum([0] + [len(grid) - 1 for _, _, _, grid in pieces[:-1]]).tolist())

    pairs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(lams), ENERGY_BLOCK):
            block = lams[start:start + ENERGY_BLOCK]
            # rows f, f'; column k: u_k at the piece start, for every energy
            y = np.broadcast_to(np.eye(2, dtype=complex), (len(block), 2, 2))
            ys = []
            for (_, _, vfun, grid), cache, skip in zip(pieces, samples, skips):
                prefix, _ = _piece_prefix(vfun, grid, block, 0, cache, DEFAULT_RTOL)
                t = _plus_identity(prefix)[..., None]  # T at the piece's grid points
                piece = np.concatenate([y[None], np.moveaxis(t[:, 0] * y[:, 0] + t[:, 1] * y[:, 1],
                                                             0, 2)])
                ys.append(piece[skip:])
                y = piece[-1]
            y = np.moveaxis(np.concatenate(ys), 0, -1).copy()  # energy, row, k, sample
            y.setflags(write=False)
            pairs += [tuple(OdeSolution(complex(e), x, y[j, 0, k], y[j, 1, k], seg_starts)
                            for k in (0, 1)) for j, e in enumerate(block.tolist())]
    return pairs[0] if np.ndim(lam) == 0 else pairs


def integrate(p, lam, x0, x1, f0, df0):
    """Integrate -f'' + V f = lam f from x0 to x1 with dense output: the
    combination of fundamental_solutions for the initial values f0, df0."""
    return combine(fundamental_solutions(p, lam, x0, x1), [complex(f0), complex(df0)])


def propagate(p, lam, x0, x1, rtol=DEFAULT_RTOL):
    """Transfer matrix T with (f, f')(x1) = T @ (f, f')(x0), and the number
    of zeros strictly between x0 and x1 of u2, the solution with
    (f, f')(x0) = (0, 1) (of Re u2, so meaningful for real lam).

    lam is a scalar, giving one (2, 2) matrix and an int, or a 1-D array,
    giving an (n, 2, 2) stack and n counts; the spectral scan evaluates all
    its energies in one call.  Energies are processed ENERGY_BLOCK at a
    time.  Each piece's steps are multiplied by a pairwise tree into blocks
    that hold at most one zero of a solution, whose prefix products give
    the solution at the block edges.  A step may span several grid
    intervals: the first block of energies starts each piece with steps of
    up to 2**_MAX_COARSENINGS intervals that turn the phase of a solution
    by less than pi/4, and each later block at the level the error
    estimates of the one before point to (module docstring); nothing
    carries over between calls.  V is sampled once per piece and step
    level.

    For an even V on a span symmetric about 0, x1 = -x0 = +-b, only [0, b]
    is integrated.  The columns of its T+ are the even solution phi_e and
    the odd solution phi_o, with data (1, 0) and (0, 1) at 0, and the
    mirror image of a solution solves too, so with P = diag(1, -1)

        T(-b -> b) = T+ P adj(T+) P,   T(b -> -b) = P T(-b -> b) P,

    det T+ = 1 making the adjugate the inverse without a division.  The
    zeros of u2 in (-b, b) are then those of phi_e and of phi_o in (0, b):
    for real lam both counts are the number of Dirichlet levels on [-b, b]
    below lam, the even ones Neumann and the odd ones Dirichlet at 0.

    Raises:
        ValueError: when rtol, the error bound of the piece products
            (module docstring), is not positive and finite.
        DomainError: when an endpoint lies outside [-a, a].
        IntegrationError: when the solution overflows, h would be halved
            more than MAX_HALVINGS times or a grid interval is too long to
            count zeros; carries where the pass from x0 enters the piece
            (for the half pass, the mirror image's far end).
    """
    if not 0 < rtol < np.inf:  # NaN fails too, and inf would turn off error control
        raise ValueError(f"rtol must be positive and finite, got {rtol}")
    lams = _spectral_array(lam)
    if x0 == -x1 and x0 != 0 and p.is_even():
        half, zeros = _transfer(p, lams, 0.0, abs(x0), rtol, slice(0, 2),
                                lambda grid: float(np.copysign(grid[-1], x0)))
        (e, o), (de, do) = np.moveaxis(half, 0, -1)  # phi_e, phi_o and their derivatives at b
        with np.errstate(over="ignore", invalid="ignore"):
            diag, sign = e * do + o * de, np.sign(x1)
            out = np.stack([diag, 2.0 * sign * e * o, 2.0 * sign * de * do, diag], axis=-1)
        if not np.all(np.isfinite(out)):
            raise IntegrationError("solution overflowed after x = 0.0", x_fail=0.0)
        out = out.reshape(-1, 2, 2)
    else:
        out, zeros = _transfer(p, lams, x0, x1, rtol, slice(1, 2),
                               lambda grid: float(grid[0]))
    return (out[0], int(zeros[0])) if np.ndim(lam) == 0 else (out, zeros)


def _first_level(grid, hk):
    """The coarsest level -c to start a piece at: its steps span 2**c grid
    intervals, tile the piece in at least _MIN_SEGMENT_INTERVALS steps and turn
    a solution's phase by less than pi/4, where hk is the phase turned per
    interval."""
    n, c = len(grid) - 1, 0
    while (c < _MAX_COARSENINGS and n % (2 << c) == 0
           and n >> (c + 1) >= _MIN_SEGMENT_INTERVALS
           and (2 << c) * hk < 0.25 * np.pi):
        c += 1
    return -c


def _transfer(p, lams, x0, x1, rtol, counted, entry):
    """propagate's pass from x0 to x1 over the 1-D array lams: the
    (n, 2, 2) transfer matrices and, per energy, the zeros in (x0, x1) of
    the solutions in the counted columns of T.  Errors on a piece carry
    entry(grid) of its grid."""
    pieces = _segment_grid(p, x0, x1)
    samples = [{} for _ in pieces]
    v_min = [np.min(vfun(grid)) for _, _, vfun, grid in pieces]
    warm = [-_MAX_COARSENINGS] * len(pieces)  # per piece, the level the next block starts at
    out = np.empty((len(lams), 2, 2), dtype=complex)
    zeros = np.zeros(len(lams), dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(lams), ENERGY_BLOCK):
            block = lams[start:start + ENERGY_BLOCK]
            t = np.zeros((2, 2, len(block)))  # deviation from the identity
            for i, ((_, _, vfun, grid), cache, low) in enumerate(zip(pieces, samples, v_min)):
                # zeros lie >= pi / sqrt(max(E - V)) apart (Sturm comparison), so a block
                # with h_block sqrt(E - min V) < pi/2 holds at most one; 2 covers V between samples
                hk = abs(grid[1] - grid[0]) * np.sqrt(max(0.0, np.max(block.real) - low))
                if hk >= 0.5 * np.pi:
                    raise IntegrationError(f"grid too coarse to count zeros at E = "
                                           f"{np.max(block.real):g}", x_fail=entry(grid))
                full = (len(grid) - 2).bit_length()
                rounds = min(full, int(np.ceil(np.log2(0.5 * np.pi / hk))) - 1) if hk else full
                # a first step turns the phase by less than pi/4, half a block's pi/2,
                # so no step straddles two blocks
                prefix, warm[i] = _piece_prefix(vfun, grid, block, rounds, cache, rtol,
                                                max(warm[i], _first_level(grid, hk)), entry(grid))
                # rows f and f' of the counted columns of T at the piece start
                u0, du0 = _plus_identity(t)[:, counted]
                u = np.concatenate([u0[None].real, ((1.0 + prefix[0, 0][:, None]) * u0
                                                    + prefix[0, 1][:, None] * du0).real])
                zeros[start:start + len(block)] += np.sum(u[1:] * u[:-1] < 0, axis=(0, 1))
                t = _mul(prefix[..., -1, :], t)
            out[start:start + len(block)] = np.moveaxis(_plus_identity(t), -1, 0)
    return out, zeros


def _edge_transfers(p, lams, x0, x1):
    """Transfer matrices of one pass from x0 to x1 at the edges of its
    blocks, for the spectrum's boundary data away from the ends.

    lams is a 1-D array of real energies.  Returns x, the block edges from x0
    to x1; T(x0 -> x) at every edge, of shape (len(lams), len(x), 2, 2); and
    each block's own transfer S = T(x_i -> x_i+1) and dS/dlam, of shape
    (len(lams), len(x) - 1, 2, 2).  T is the running product of the S.  A
    block holds 2**_EDGE_ROUNDS grid intervals, fewer on a piece whose
    interval count is not a multiple of that, so edges lie at most a/32
    apart and the passes from x0 and from x1 share them.

    For an even V, the pass from -b to b is stepped on [0, b] only: a block
    of [-b, 0] is the mirror image of one of [0, b], run the other way, so
    with P = diag(1, -1) it is P S^-1 P = P adj(S) P, and its derivative is
    P adj(dS/dlam) P.  The pass from b to -b is a full pass.
    """
    if x0 == -x1 < 0 and p.is_even():
        y, steps, dsteps = _edge_steps(p, lams, 0.0, x1)
        x = np.r_[-y[:0:-1], y]
        # P adj(S) P swaps the diagonal, also of the deviation S - I
        steps, dsteps = (np.concatenate([m[::-1, ::-1, :, ::-1].swapaxes(0, 1), m], axis=-1)
                         for m in (steps, dsteps))
    else:
        x, steps, dsteps = _edge_steps(p, lams, x0, x1)
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.concatenate([np.zeros((2, 2, len(lams), 1)), _prefix(steps)], axis=-1)
    t = _plus_identity(t)
    # (2, 2, energy, edge or block) -> (energy, edge or block, 2, 2)
    return (x, *(np.moveaxis(m, (0, 1), (2, 3)) for m in (t, _plus_identity(steps), dsteps)))


def _edge_steps(p, lams, x0, x1):
    """_edge_transfers' pass from x0 to x1: the block edges, and each block's
    S - I and dS/dlam as arrays of shape (2, 2, len(lams), number of blocks).
    Each piece starts at the coarsest level propagate's first block would,
    and the steps shrink until the prefix products pass at DEFAULT_RTOL."""
    pieces = _segment_grid(p, x0, x1)
    rounds = []
    for _, _, _, grid in pieces:  # blocks of the largest power of two that divides n
        n = len(grid) - 1
        rounds.append(min(_EDGE_ROUNDS, (n & -n).bit_length() - 1))
    x = np.concatenate([[x0]] + [grid[1 << r::1 << r]
                                 for (_, _, _, grid), r in zip(pieces, rounds)])
    samples = [{} for _ in pieces]
    v_min = [np.min(vfun(grid)) for _, _, vfun, grid in pieces]
    out = np.empty((2, 2, 2, len(lams), len(x) - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(lams), ENERGY_BLOCK):
            block = lams[start:start + ENERGY_BLOCK]
            steps = []
            for (_, _, vfun, grid), cache, low, r in zip(pieces, samples, v_min, rounds):
                hk = abs(grid[1] - grid[0]) * np.sqrt(max(0.0, np.max(block) - low))
                steps.append(_piece_prefix(vfun, grid, block, r, cache, DEFAULT_RTOL,
                                           _first_level(grid, hk), dual=True)[0])
            out[..., start:start + len(block), :] = np.concatenate(steps, axis=-2).swapaxes(-1, -2)
    return x, out[0], out[1]


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


def combine(solutions, coeffs):
    """Pointwise linear combination sum_k c_k u_k on a shared grid."""
    base = solutions[0]
    for other in solutions[1:]:
        if not _same_grid(base, other) or other.lam != base.lam:
            raise GridError("cannot combine solutions from different grids or lambdas")
    f = sum(c * s.f for c, s in zip(coeffs, solutions))
    df = sum(c * s.df for c, s in zip(coeffs, solutions))
    return OdeSolution(base.lam, base.x, f, df, base.segments)


def potential_on_grid(p, sol):
    """V sampled on the solution grid using per-piece (left-limit) values."""
    out = np.empty_like(sol.x)
    for sl in sol.segment_slices():
        xs = sol.x[sl]
        lo, hi = (xs[0], xs[-1]) if xs[-1] > xs[0] else (xs[-1], xs[0])
        out[sl] = p.piece_callable(lo, hi)(xs)
    return out
