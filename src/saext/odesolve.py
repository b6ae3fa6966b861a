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
One rule, in _piece_prefix, picks where k starts: the coarsest level
whose steps span at most 2**_MAX_COARSENINGS grid intervals, no more
than a block of the products returned, and turn the phase of a solution
by less than pi/4 at the block's highest energy.  Every block of
energies is stepped as a call on that block alone would step it.

One pass, _chain, serves both propagate and fundamental_solutions: it
multiplies each piece's prefix products onto T at the piece's start, in
deviation form, and returns T(x0 -> x) - I at x0 and at every block edge.
``fundamental_solutions``, whose output lives on the grid, reads it at
blocks of one grid interval, so its steps start at k = 0.
``propagate``, the one pass that takes rtol, reads it at the longest
blocks that hold at most one zero of a solution, keeps T at the last
edge and counts the zeros as the sign changes of f between edges.  For an
even V over a span symmetric about 0, where the mirror image of a
solution solves too, it steps only the half from 0: the even and odd
solutions there give the whole span's T by reflection, and the sum of
their zeros is the zero count of the solution launched at an end.

The spectrum's boundary-data pass (_edge_transfers) steps [-a, a] the
same way at DEFAULT_RTOL.  It returns each block's own transfer S and
dS/dlam, for blocks at most a/32 long, and T from both ends at every block
edge, that from a as the running product of adj(S) = S^-1.  The slope
comes from a complex step: the pass runs the complex arithmetic of
lam = i at lam = E + i eps, eps = _SLOPE_STEP, and S(lam) is analytic, so
Re S is S(E) and Im S / eps is dS/dlam to rounding, with no difference
quotient (Squire & Trapp, SIAM Rev. 40 (1998) 110).  _cosh_sinhc sums its
power series near z = 0, where sqrt z would round the tiny Im z away.  S
and dS/dlam take the Richardson step at the levels the error control of
the piece's prefix products picks.  For an even V this pass too steps
only [0, a] and mirrors the blocks, and T from a is the mirror image of
T from -a, with no second product.

The energy-independent part of this work is done once per potential and
span.  The span's step plan, kept on the Potential, holds the pieces and
grids of _segment_grid, min V on each piece's grid, and per step level up
to _PLAN_TOP_LEVEL = 1 the Gauss samples of every step: h, qbar + lam and
d, made on the level's first use.  Those levels take the first
Richardson pair of every call; a finer level's samples would outweigh the
rest of the plan, so the rare pass that refines that far samples V for it
afresh, chunk by chunk.  The plan's arrays are read-only, and it holds nothing
that depends on energy or on earlier calls: propagate, _edge_transfers
and fundamental_solutions choose their step levels afresh in every call,
so a result has the same bits whatever ran before it.  Both levels of a
Richardson pair come from one step evaluation (_interval_transfers).

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
STEP_CHUNK = 4096     # Magnus steps of the finest level evaluated per batch and energy

_INTERVALS_PER_HALFWIDTH = 512  # dense spacing target a/512, well under the a/128 contract
_MIN_SEGMENT_INTERVALS = 8
_MAX_COARSENINGS = 3  # a piece's first steps span up to 2**3 grid intervals (a/64)
_EDGE_ROUNDS = 4  # _edge_transfers reports T every 2**4 grid intervals (a/32)
# _edge_transfers steps at E + i eps, eps = _SLOPE_STEP: Im S / eps is dS/dE to
# rounding, as eps^2 lies below the rounding of every entry and eps h^2 |dS/dE|
# far above the subnormal range
_SLOPE_STEP = 1e-60
_MAX_PLANS = 8  # spans whose step plan a Potential keeps; more start the store afresh
_PLAN_TOP_LEVEL = 1  # the plan keeps Gauss samples up to 2 steps per interval
_INTERVAL_MULTIPLE = 4  # quadrature halves a piece's Simpson panels once
_GAUSS_OFFSET = np.sqrt(3.0) / 6.0  # two-point Gauss nodes sit at x_m -+ this times h


@dataclass(frozen=True)
class OdeSolution:
    """Dense trajectory of -f'' + V f = lam f with its derivative.

    Attributes:
        lam: spectral parameter (i for deficiency solves, real E otherwise).
        x, f, df: sample abscissae, strictly monotone, and values; f0, df0,
            f1 and df1 are the values at x[0] and x[-1].
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
    """Per-piece uniform abscissae from x0 to x1.

    Returns a list of (V callable, grid) per piece, in integration
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
        pieces.append((p.piece_callable(s_lo, s_hi), grid))
    if x1 < x0:
        pieces = [(vf, grid[::-1]) for vf, grid in pieces[::-1]]
    return pieces


class _Piece:
    """One piece of a step plan: its vectorized V, its grid, min V on the
    grid and, per step level up to _PLAN_TOP_LEVEL, the Gauss samples of
    _gauss_samples, made on first use.  Every array is read-only, and
    nothing depends on energy."""

    def __init__(self, vfun, grid):
        self.vfun, self.grid = vfun, np.array(grid, dtype=float)
        self.grid.setflags(write=False)
        self.v_min = float(np.min(vfun(self.grid)))
        self._levels = {}

    def samples(self, level, cut):
        """(h, qbar + lam, d) of the steps in the slice cut at this level
        (_gauss_samples).  A finer level than _PLAN_TOP_LEVEL is sampled
        afresh, only over cut: its samples would outweigh the rest of the
        plan, and error control rarely reaches it."""
        if level > _PLAN_TOP_LEVEL:
            return _gauss_samples(self.vfun, self.grid, level, cut)
        out = self._levels.get(level)
        if out is None:
            out = self._levels[level] = _gauss_samples(self.vfun, self.grid, level)
        h, vbar, d = out
        return h, vbar[cut], d[cut]


def _step_plan(p, x0, x1):
    """The step plan of the span from x0 to x1: a _Piece per piece of
    _segment_grid, in integration order.  It is made on the first call for
    the span and kept on p, which holds the plans of at most _MAX_PLANS
    spans; -0.0 and 0.0 are different ends, as their grids differ."""
    key = (float(x0).hex(), float(x1).hex())
    plans = p._plans
    plan = plans.get(key)
    if plan is None:
        plan = tuple(_Piece(vfun, grid) for vfun, grid in _segment_grid(p, x0, x1))
        if len(plans) >= _MAX_PLANS:
            plans.clear()
        plans[key] = plan
    return plan


# Taylor coefficients of cosh(sqrt z) - 1, 1/(2n)! for n = 10 .. 1, and of
# sinh(sqrt z)/sqrt z, 1/(2n + 1)! for n = 9 .. 0, highest first
_COSH_SERIES = tuple(1.0 / math.factorial(2 * n) for n in range(10, 0, -1))
_SINHC_SERIES = tuple(1.0 / math.factorial(2 * n + 1) for n in range(9, -1, -1))


def _cosh_sinhc(z):
    """cosh(sqrt z) - 1 and sinh(sqrt z)/sqrt z, entire in z and real for real z.

    Both come from half-angle functions, so cosh - 1 keeps full relative
    precision for the small arguments of a Magnus step.  For complex z they
    come from their power series where |z| < 1/2: near z = 0, going
    through sqrt z would round away the tiny Im z of a complex step, and
    with it the energy slope that step carries (_edge_transfers).
    """
    if np.iscomplexobj(z):
        near = np.abs(z) < 0.5
        cm1, sinhc = np.empty_like(z), np.empty_like(z)
        w = z[near]
        c, sc = np.full_like(w, _COSH_SERIES[0]), np.full_like(w, _SINHC_SERIES[0])
        for a, b in zip(_COSH_SERIES[1:], _SINHC_SERIES[1:]):
            c *= w
            c += a
            sc *= w
            sc += b
        cm1[near], sinhc[near] = c * w, sc
        far = ~near
        s = np.sqrt(z[far])
        sh, ch = np.sinh(0.5 * s), np.cosh(0.5 * s)
        cm1[far], sinhc[far] = 2.0 * sh * sh, 2.0 * sh * ch / s
        return cm1, sinhc
    # real sqrt: sinh and cosh only where z > 0, sin and cos only elsewhere
    grows = z > 0
    shrinks = ~grows
    s = np.sqrt(np.abs(z))
    half = 0.5 * s
    sh, ch = np.empty_like(s), np.empty_like(s)
    np.sinh(half, out=sh, where=grows)
    np.cosh(half, out=ch, where=grows)
    np.sin(half, out=sh, where=shrinks)
    np.cos(half, out=ch, where=shrinks)
    sign = np.where(grows, 1.0, -1.0)
    nonzero = s != 0
    sinhc = np.where(nonzero, 2.0 * sh * ch / np.where(nonzero, s, 1.0), 1.0)
    return 2.0 * sign * sh * sh, sinhc


def _mul(left, right):
    """Batched 2x2 product (I + L)(I + R) = I + L + R + LR of matrices stored
    as their deviation from the identity, in arrays of shape (2, 2, ...).

    Keeping I implicit means the many near-identity Magnus steps of a piece
    multiply without rounding their small deviations against 1.  The sum
    is (L0 R0 + L1 R1) + (L + R), L0 R0 the products with column 0 of L.
    """
    out = np.multiply(left[:, :1], right[:1])
    out += left[:, 1:] * right[1:]
    out += left + right
    return out


def _plus_identity(t):
    """I + t for a deviation t of shape (2, 2, ...).  Only the diagonal gets
    the 1, so an off-diagonal -0.0 stays -0.0."""
    out = np.array(t, dtype=np.result_type(t, 1.0))
    out[0, 0] += 1.0
    out[1, 1] += 1.0
    return out


def _blocks(m, rounds):
    """Ordered products of consecutive blocks of 2**rounds factors along the
    last axis, later factors on the left, by rounds of a pairwise tree that
    each multiply neighbours; the last block may be shorter."""
    for _ in range(rounds):
        n = m.shape[-1]
        even = n - n % 2
        pairs = _mul(m[..., 1:even:2], m[..., 0:even:2])
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


def _step_count(grid, halvings):
    """Magnus steps over the grid at level k = halvings: 2**k per interval."""
    return round((len(grid) - 1) * 2.0 ** halvings)


def _gauss_samples(vfun, grid, halvings, cut=slice(None)):
    """Step length h and the energy-independent parts of the Magnus steps in
    the slice cut at level k = halvings, 2**k steps per grid interval (for
    k < 0, one step per 2**-k intervals): qbar + lam = (V1 + V2)/2 and d,
    from V at the two Gauss points, sampled in one call, as read-only arrays."""
    n = _step_count(grid, halvings)
    h = (grid[-1] - grid[0]) / n
    mid = grid[0] + (np.arange(*cut.indices(n)) + 0.5) * h
    v1, v2 = vfun(mid + np.array([[-_GAUSS_OFFSET], [_GAUSS_OFFSET]]) * h)
    out = 0.5 * (v1 + v2), (np.sqrt(3.0) / 12.0 * h * h) * (v1 - v2)
    for m in out:
        m.setflags(write=False)
    return (h, *out)


def _interval_transfers(piece, lams, levels):
    """Transfer matrices over one piece at consecutive step levels, levels =
    (k,) or the Richardson pair (k, k + 1), from one step evaluation.

    lams is a 1-D array of spectral parameters.  Returns the deviations
    T - I from the identity as one array of shape
    (2, 2, len(levels), len(lams), m), with the levels stacked: at level k
    the transfers of every grid interval, each covered by 2**k Magnus steps,
    or for k < 0 of every step, each spanning 2**-k intervals.  The steps of
    every level are evaluated together, in one _cosh_sinhc pass; one
    pairwise round of its own steps brings level k + 1 to level k's m, and
    one _blocks tree then multiplies both.  The Gauss samples come from the
    piece's step plan, or at levels finer than it keeps from V over the
    chunk (_Piece.samples).  Steps are evaluated STEP_CHUNK of the finest
    level at a time, with the coarser level's over the same intervals, so
    transient memory stays flat as h shrinks and every chunk holds whole
    intervals.
    """
    top = levels[-1]
    size = _step_count(piece.grid, top)  # steps of the finest level
    parts = []
    for j0 in range(0, size, STEP_CHUNK):
        # the steps of every level over the grid intervals of this chunk
        samples = [piece.samples(k, slice(j0 >> (top - k), min(size, j0 + STEP_CHUNK) >> (top - k)))
                   for k in levels]
        counts = [len(v) for _, v, _ in samples]
        vbar = np.concatenate([v for _, v, _ in samples])
        d = np.concatenate([dk for _, _, dk in samples])
        h = np.repeat([hk for hk, _, _ in samples], counts)
        h_qbar = h * (vbar - lams[:, None])
        z = d * d + h * h_qbar
        cm1, sc = _cosh_sinhc(z)
        sd = sc * d
        steps = np.empty((2, 2) + sc.shape, sc.dtype)  # exp(Omega) - I
        np.add(cm1, sd, out=steps[0, 0])
        np.multiply(sc, h, out=steps[0, 1])
        np.multiply(sc, h_qbar, out=steps[1, 0])
        np.subtract(cm1, sd, out=steps[1, 1])
        ends = np.cumsum(counts).tolist()
        stacked = np.stack([_blocks(steps[..., end - count:end], i)
                            for i, (count, end) in enumerate(zip(counts, ends))], axis=-3)
        parts.append(_blocks(stacked, max(levels[0], 0)))
    return np.concatenate(parts, axis=-1)


def _piece_prefix(piece, lams, rounds, rtol, x_start=None, own=False):
    """Prefix products of one piece at the ends of its blocks of 2**rounds
    grid intervals, as deviations T - I from the identity in one array of
    shape (2, 2, number of blocks, len(lams)).  rounds None picks propagate's
    zero-count blocks: the longest that hold at most one zero of a solution
    for every energy, or IntegrationError where a grid interval is too long
    for that.  Steps start at the coarsest level -c, c <= min(rounds,
    _MAX_COARSENINGS), whose steps tile the piece in at least
    _MIN_SEGMENT_INTERVALS steps and turn a solution's phase by less than
    pi/4, half a zero-count block's pi/2, so no step straddles two blocks;
    they shrink per energy until the error estimate passes (see the module
    docstring).  The start depends on lams alone, so a block of energies is
    stepped alike in every batch that holds it.  With own, each block's own
    transfer S - I takes the place of the prefix products; it takes the
    prefix products' Richardson step at the levels their error estimate
    picks.  Errors carry x_start, by default the grid's first point."""
    def edges(levels, sel):
        blocks = _blocks(_interval_transfers(piece, sel, levels),
                         rounds + min(levels[0], 0))  # (2, 2, level, energy, block)
        prefix = np.stack([_prefix(blocks), blocks]) if own else _prefix(blocks)
        n = prefix.ndim  # to (level, [2,] 2, 2, block, energy)
        prefix = prefix.transpose(n - 3, *range(n - 3), n - 1, n - 2)
        return prefix.reshape(len(levels), -1, len(sel))

    grid, e_max = piece.grid, float(np.max(lams.real))
    x_start = float(grid[0]) if x_start is None else x_start
    n = len(grid) - 1
    hk = abs(grid[1] - grid[0]) * np.sqrt(max(0.0, e_max - piece.v_min))  # phase per interval
    if rounds is None:
        # zeros lie >= pi / sqrt(max(E - V)) apart (Sturm comparison), so a block
        # with h_block sqrt(E - min V) < pi/2 holds at most one; 2 covers V between samples
        if hk >= 0.5 * np.pi:
            raise IntegrationError(f"grid too coarse to count zeros at E = {e_max:g}",
                                   x_fail=x_start)
        rounds = (n - 1).bit_length()
        if hk:
            rounds = min(rounds, int(np.ceil(np.log2(0.5 * np.pi / hk))) - 1)
    c = 0  # the first steps span 2**c grid intervals
    while (c < min(rounds, _MAX_COARSENINGS) and n % (2 << c) == 0
           and n >> (c + 1) >= _MIN_SEGMENT_INTERVALS and (2 << c) * hk < 0.25 * np.pi):
        c += 1
    coarse, fine = edges((-c, 1 - c), lams)
    t_rows = len(fine) // 2 if own else len(fine)  # the rows of the prefix products
    level = np.full(len(lams), -c)  # of each energy's coarser steps
    while True:
        value = fine + (fine - coarse) / 15.0
        if not np.all(np.isfinite(value)):
            raise IntegrationError(f"solution overflowed after x = {x_start}", x_fail=x_start)
        err = np.max(np.abs(fine[:t_rows] - coarse[:t_rows]), axis=0) / 15.0
        bound = rtol * np.maximum(1.0, np.max(np.abs(value[:t_rows]), axis=0))
        bad = ~(err <= bound)
        with np.errstate(divide="ignore"):  # the estimate falls 16-fold as h halves
            need = level + np.ceil(0.25 * np.log2(err / bound))
        if not bad.any():  # the prefix products, or with own the blocks' own transfers
            return value[-t_rows:].reshape(2, 2, -1, len(lams))
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
    """lam as a 1-D array of finite values, real when every entry is real."""
    lams = np.atleast_1d(np.asarray(lam))
    if lams.ndim != 1:
        raise ValueError("lam must be a scalar or a 1-D array")
    if np.iscomplexobj(lams) and not np.any(lams.imag):
        lams = lams.real
    lams = lams.astype(complex if np.iscomplexobj(lams) else float)
    if not np.all(np.isfinite(lams)):  # else it would read as an overflow of the first piece
        raise ValueError(f"lam must be finite, got {lam}")
    return lams


def fundamental_solutions(p, lam, x0, x1):
    """The solutions u1, u2 of -f'' + V f = lam f with (f, f')(x0) = (1, 0)
    and (0, 1), from one pass over the transfer matrices to every sample.

    lam is a scalar, giving the pair (u1, u2), or a 1-D array, giving a
    list of one such pair per entry; every solution shares one grid.
    Energies are processed ENERGY_BLOCK at a time, so the transient memory
    does not grow with their number.  Each block runs at DEFAULT_RTOL from
    k = 0, as its blocks are single grid intervals (module docstring), on
    the span's step plan, which samples V once per piece and step level
    over all calls, up to the levels it keeps.

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
    plan = _step_plan(p, x0, x1)
    x = np.concatenate([plan[0].grid[:1]] + [piece.grid[1:] for piece in plan])
    x.setflags(write=False)
    seg_starts = tuple(np.cumsum([0] + [len(piece.grid) - 1 for piece in plan[:-1]]).tolist())

    pairs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(lams), ENERGY_BLOCK):
            block = lams[start:start + ENERGY_BLOCK]
            # T(x0 -> x) at every sample, whose column k is (f, f') of u_k
            t = _plus_identity(_chain(plan, block, 0, DEFAULT_RTOL, lambda grid: float(grid[0])))
            y = np.moveaxis(t, -1, 0).astype(complex, order="C")  # energy, row, k, sample
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
    intervals: each block of energies starts each piece with steps of up
    to 2**_MAX_COARSENINGS intervals that turn the phase of a solution by
    less than pi/4 (module docstring).  No step level carries over, neither
    between blocks of one call nor between calls: each block is stepped as
    a call on that block alone would step it.  What does carry over is the span's step
    plan, kept on p: its grids, min V per piece and the Gauss samples of
    each level up to _PLAN_TOP_LEVEL used so far, so V is sampled once per
    piece and step level over all calls, and a later call that steps no
    finer pays only for the energy-dependent work.

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


def _chain(plan, lams, rounds, rtol, entry):
    """T(x0 -> x) - I over the plan's span from x0, at x0 and at the end of
    every block of 2**rounds grid intervals of every piece, for a block of
    energies lams: an array of shape (2, 2, 1 + number of blocks, len(lams)).
    Each piece's prefix products (_piece_prefix at rounds and rtol, whose
    errors carry entry(grid) of the piece's grid) multiply T at the piece
    start by _mul, so the product stays in deviation form throughout."""
    t = [np.zeros((2, 2, 1, len(lams)))]
    for piece in plan:
        prefix = _piece_prefix(piece, lams, rounds, rtol, entry(piece.grid))
        t.append(_mul(prefix, t[-1][..., -1:, :]))
    return np.concatenate(t, axis=2)


def _transfer(p, lams, x0, x1, rtol, counted, entry):
    """propagate's pass from x0 to x1 over the 1-D array lams: the
    (n, 2, 2) transfer matrices and, per energy, the zeros in (x0, x1) of
    the solutions in the counted columns of T, as the sign changes of f
    between the edges of _chain's zero-count blocks.  Errors on a piece
    carry entry(grid) of its grid."""
    plan = _step_plan(p, x0, x1)
    out = np.empty((len(lams), 2, 2), dtype=complex)
    zeros = np.zeros(len(lams), dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(lams), ENERGY_BLOCK):
            block = slice(start, start + ENERGY_BLOCK)
            t = _plus_identity(_chain(plan, lams[block], None, rtol, entry))
            u = t[0, counted].real  # f of the counted columns at every edge
            zeros[block] = np.sum(u[:, 1:] * u[:, :-1] < 0, axis=(0, 1))
            out[block] = np.moveaxis(t[..., -1, :], -1, 0)
    return out, zeros


def _edge_transfers(p, lams):
    """The spectrum's boundary-data pass over [-a, a], at the block edges.

    lams is a 1-D array of real energies.  Returns x, the block edges from
    -a to a; T(-a -> x) and T(a -> x) at every edge, of shape
    (len(lams), len(x), 2, 2); and each block's own transfer
    S = T(x_i -> x_i+1) and dS/dlam, of shape (len(lams), len(x) - 1, 2, 2).
    A block holds 2**_EDGE_ROUNDS grid intervals, fewer on a piece whose
    interval count is not a multiple of that, so edges lie at most a/32
    apart.  Each piece starts at the level _piece_prefix picks, and its
    steps shrink until the prefix products pass at DEFAULT_RTOL.  The
    blocks are stepped at lam + i _SLOPE_STEP, whose real part is S and
    whose imaginary part over _SLOPE_STEP is dS/dlam (module docstring).

    T(-a -> x) is the running product of the S from -a, and T(a -> x) that of
    the S^-1 = adj(S) from a (det S = 1), kept as deviations from I, since
    adj(I + D) = I + adj(D).  For an even V only [0, a] is stepped: with
    P = diag(1, -1), a block of [-a, 0] is P adj(S) P of its mirror image S
    in [0, a] and its derivative P adj(dS/dlam) P, and T(a -> x) is not
    multiplied out but read off the product from -a as P T(-a -> -x) P,
    which negates the deviation's off-diagonal.
    """
    even = p.is_even()
    x0 = 0.0 if even else -p.a
    plan = _step_plan(p, x0, p.a)
    rounds = []
    for piece in plan:  # blocks of the largest power of two that divides n
        n = len(piece.grid) - 1
        rounds.append(min(_EDGE_ROUNDS, (n & -n).bit_length() - 1))
    x = np.concatenate([[x0]] + [piece.grid[1 << r::1 << r] for piece, r in zip(plan, rounds)])
    out = np.empty((2, 2, len(lams), len(x) - 1), complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(lams), ENERGY_BLOCK):
            block = lams[start:start + ENERGY_BLOCK] + 1j * _SLOPE_STEP
            steps = [_piece_prefix(piece, block, r, DEFAULT_RTOL, own=True)
                     for piece, r in zip(plan, rounds)]
            out[..., start:start + len(block), :] = np.concatenate(steps, axis=-2).swapaxes(-1, -2)
        if even:
            x = np.r_[-x[:0:-1], x]
            # P adj(S) P swaps the diagonal, also of the deviation S - I
            out = np.concatenate([out[::-1, ::-1, :, ::-1].swapaxes(0, 1), out], axis=-1)
        steps, dsteps = out.real, out.imag / _SLOPE_STEP
        negate = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None, None]  # P m P
        end = np.zeros((2, 2, len(lams), 1))  # T - I where a pass starts
        left = np.concatenate([end, _prefix(steps)], axis=-1)
        if even:  # T(a -> x) = P T(-a -> -x) P, and the edges are symmetric
            right = left[..., ::-1] * negate
        else:  # adj swaps the diagonal and negates the rest; the product from a runs backwards
            adj = steps[::-1, ::-1, :, ::-1].swapaxes(0, 1) * negate
            right = np.concatenate([end, _prefix(adj)], axis=-1)[..., ::-1]
    # (2, 2, energy, edge or block) -> (energy, edge or block, 2, 2)
    return (x, *(np.moveaxis(m, (0, 1), (2, 3))
                 for m in (_plus_identity(left), _plus_identity(right), _plus_identity(steps),
                           dsteps)))


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
