"""Independent oracles used by the integrator, spectrum and acceptance tests.

Everything here is closed form, a direct matrix discretization, or scipy's
adaptive Dormand-Prince integrator; none of it touches the Magnus stepping
or the shooting machinery under test.  The reference integrator only
borrows the library's sample grid, so trajectories compare pointwise.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigvalsh_tridiagonal


def box_levels(name, e_max, a=1.0):
    """Closed-form spectra of the free particle on [-a, a].

    Returns a sorted list of (eigenvalue, degeneracy).
    """
    levels = []
    n = 0
    while True:
        if name == "dirichlet":
            e = ((n + 1) * np.pi / (2 * a)) ** 2
            deg = 1
        elif name == "neumann":
            e = (n * np.pi / (2 * a)) ** 2
            deg = 1
        elif name == "periodic":
            e = (n * np.pi / a) ** 2
            deg = 1 if n == 0 else 2
        elif name == "anti-periodic":
            e = ((n + 0.5) * np.pi / a) ** 2
            deg = 2
        elif name == "dirichlet-at-a-neumann-at-minus-a":
            # f(a) = 0 and f'(-a) = 0: cos((2n+1) pi (x+a) / (4a)) modes
            e = ((2 * n + 1) * np.pi / (4 * a)) ** 2
            deg = 1
        else:
            raise ValueError(name)
        if e > e_max:
            return levels
        levels.append((e, deg))
        n += 1


def _cs_basis(e, x):
    """(c, s, c', s') with c'' = -(E) c, c(0)=1, c'(0)=0 and s(0)=0, s'(0)=1.

    Entire in E (trigonometric for E > 0, hyperbolic for E < 0), so the
    determinant below is continuous across E = 0.
    """
    if e > 0:
        k = np.sqrt(e)
        return np.cos(k * x), np.sin(k * x) / k, -k * np.sin(k * x), np.cos(k * x)
    if e < 0:
        k = np.sqrt(-e)
        return np.cosh(k * x), np.sinh(k * x) / k, k * np.sinh(k * x), np.cosh(k * x)
    return 1.0, x, 0.0, 1.0


def robin_det(alpha, gamma, a=1.0):
    """Scalar eigenvalue condition for V = 0 with f'(a) = alpha f(a),
    f'(-a) = gamma f(-a); vanishes exactly at the eigenvalues."""
    def det(e):
        c_a, s_a, dc_a, ds_a = _cs_basis(e, a)
        c_m, s_m, dc_m, ds_m = _cs_basis(e, -a)
        return ((dc_a - alpha * c_a) * (ds_m - gamma * s_m)
                - (ds_a - alpha * s_a) * (dc_m - gamma * c_m))
    return det


def bisect_roots(fn, lo, hi, scan=20000, tol=1e-12):
    """All simple roots of a scalar function located by sign changes."""
    xs = np.linspace(lo, hi, scan)
    values = np.array([fn(x) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        va, vb = values[i], values[i + 1]
        if va == 0.0:
            roots.append(xs[i])
            continue
        if va * vb >= 0.0:
            continue
        left, right, fl = xs[i], xs[i + 1], va
        while right - left > tol * max(1.0, abs(left)):
            mid = 0.5 * (left + right)
            fm = fn(mid)
            if fm == 0.0:
                left = right = mid
            elif fl * fm < 0:
                right = mid
            else:
                left, fl = mid, fm
        roots.append(0.5 * (left + right))
    return roots


def fd_dirichlet_levels(vfun, count, a=1.0, n=4000):
    """Lowest eigenvalues of -f'' + V f on [-a, a] with Dirichlet ends,
    by second-order finite differences with Richardson extrapolation."""
    def levels(npts):
        x = np.linspace(-a, a, npts + 2)[1:-1]
        h = x[1] - x[0]
        diag = 2.0 / h ** 2 + np.array([vfun(xi) for xi in x])
        off = -np.ones(npts - 1) / h ** 2
        return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))
    coarse = levels(n // 2)
    fine = levels(n)
    return (4.0 * fine - coarse) / 3.0  # h^2 error cancels


# DOP853 at scipy's tightest relative tolerance (100 machine epsilons); RK45
# there errs ten times more than the Magnus step on the free particle
REFERENCE_METHOD = "DOP853"
REFERENCE_RTOL = 3e-14
REFERENCE_ATOL = 1e-16


def _solve_segment(vfun, lam, grid, y0):
    def rhs(t, y):
        return np.array([y[1], (vfun(t) - lam) * y[0]])

    sol = solve_ivp(rhs, (grid[0], grid[-1]), y0, method=REFERENCE_METHOD, t_eval=grid,
                    rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL, dense_output=False)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y


def reference_integrate(p, lam, x0, x1, f0, df0):
    """Dense trajectory of -f'' + V f = lam f by solve_ivp, restarted at
    every breakpoint and sampled on the library's grid."""
    # imported here: perfbench loads the closed-form oracles above with only
    # tests/ on sys.path
    from saext.odesolve import OdeSolution, _segment_grid

    lam = complex(lam)
    y = np.array([f0, df0], dtype=complex)
    xs, fs, dfs, seg_starts = [], [], [], []
    count = 0
    for vfun, grid in _segment_grid(p, x0, x1):
        ys = _solve_segment(vfun, lam, grid, y)
        skip = 1 if count else 0  # junction point already recorded
        seg_starts.append(count - skip)
        xs.append(grid[skip:])
        fs.append(ys[0, skip:])
        dfs.append(ys[1, skip:])
        count += len(grid) - skip
        y = ys[:, -1].copy()
    return OdeSolution(lam, np.concatenate(xs), np.concatenate(fs), np.concatenate(dfs),
                       tuple(seg_starts))


def reference_propagate(p, lam, x0, x1):
    """Transfer matrix (f, f')(x1) = T (f, f')(x0): its columns are the end
    values of the reference trajectories from (1, 0) and (0, 1)."""
    ends = [reference_integrate(p, lam, x0, x1, *start) for start in ((1.0, 0.0), (0.0, 1.0))]
    return np.array([[u.f[-1] for u in ends], [u.df[-1] for u in ends]])
