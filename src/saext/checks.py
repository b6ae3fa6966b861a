"""Numerical property checks shared by ``saext verify`` and the test suite.

Each check holds one property to its own threshold over the inputs it is
given and returns the record ``verify`` prints; the acceptance tests call
the same functions with more samples and half-widths.
"""

import numpy as np

from . import bcclassify, deficiency, extmap, odesolve, spectrum
from .potential import Potential


def _record(worst, threshold, **extra):
    return {"worst": worst, "threshold": threshold, "passed": bool(worst <= threshold), **extra}


def even_potentials(a):
    """Zero, harmonic, cosine and finite-well potentials on [-a, a]."""
    return [Potential.zero(a), Potential.harmonic(1.0, a), Potential.cosine(1.0, np.pi, a),
            Potential.finite_well(-10.0, a / 2.0, a)]


def deficiency_wronskian(half_widths=(1.0,)):
    """Worst |W(g) - i| of the endpoint Wronskian of the even and odd
    solutions of -g'' + V g = i g for every V of even_potentials(a) and each
    half-width a, each scaled to unit norm on [-a, a] by Boole's rule on its
    dense output over [0, a].  The bases take their norms from the endpoint
    form, which makes W = i hold by construction; this tests the integrator."""
    worst = 0.0
    for a in half_widths:
        for p in even_potentials(a):
            for g in odesolve.fundamental_solutions(p, 1j, 0.0, a):
                table = np.array([[g.df1, g.f1]]) / np.sqrt(2.0 * odesolve.l2_inner(g, g).real)
                worst = max(worst, abs(deficiency.wronskian_identity(table, 0) - 1j))
    return _record(worst, deficiency.WRONSKIAN_TOL)


def ode_oracle_cosh():
    """Worst error of f(1), f'(1) for -f'' = -f, f(-1) = 1, f'(-1) = 0: f = cosh(x + 1)."""
    sol = odesolve.integrate(Potential.zero(1.0), -1.0, -1.0, 1.0, 1.0, 0.0)
    return _record(max(abs(sol.f1 - np.cosh(2.0)), abs(sol.df1 - np.sinh(2.0))), 1e-9)


def extension_map(basis, samples):
    report = extmap.check_identities(basis, samples)
    return {"passed": report["passed"], "detail": report["checks"]}


def map_roundtrip(basis, samples, rng):
    """Worst |inverse_map(forward_map(U)) - U| over a stack of Haar-random U from
    rng, and the smallest singular value of the inverse-map system on the way."""
    u = extmap.Unitary2.certify(extmap.haar_unitary(rng, samples))
    ucal = extmap.forward_map(basis, u).Ucal
    worst = float(np.abs(extmap.inverse_map(basis, ucal).matrix - u.matrix).max(initial=0.0))
    m = extmap._inverse_entries(basis, ucal.entries)[0]
    sigma_min = float(np.min(extmap._singular_values(m)[1], initial=np.inf))
    record = _record(worst, 1e-8, sigma_min=sigma_min, sigma_floor=extmap.SIGMA_FLOOR)
    record["passed"] &= sigma_min > extmap.SIGMA_FLOOR
    return record


def classify_roundtrip(samples, rng):
    """Worst |synthesize_from(classify(U)) - U| over the Case I and IV draws
    among ``samples`` Haar-random U from rng."""
    worst = 0.0
    for draw in extmap.haar_unitary(rng, samples):
        u = extmap.Unitary2.certify(draw)
        bc = bcclassify.classify(u)
        if bc.case in (bcclassify.CASE_I, bcclassify.CASE_IV):
            rebuilt = bcclassify.synthesize_from(bc)
            worst = max(worst, float(np.abs(rebuilt.matrix - u.matrix).max()))
    return _record(worst, 1e-7)


def box_spectrum():
    """The two lowest Dirichlet levels of V = 0 on [-1, 1], to 1e-6 relative."""
    box = spectrum.find_eigenvalues(Potential.zero(1.0), bcclassify.classify(
        bcclassify.synthesize("dirichlet")), e_min=0.1, e_max=12.0)
    expected = [(np.pi / 2) ** 2, np.pi ** 2]
    ok = (len(box.eigenvalues) >= 2
          and all(abs(e - w) <= 1e-6 * w for e, w in zip(box.eigenvalues, expected)))
    return {"eigenvalues": box.eigenvalues[:2], "passed": bool(ok)}
