"""The benchmark's workloads: inputs, op lists, references and checks.

Every op is a closed-loop library call: it starts when the previous one
returns.  The seed fixes the op order and, on ``extension-algebra``, the
stream of Haar-random unitaries; the spectrum op lists themselves are fixed.

Known defects of the library are listed next to the ops that show them
(``known_missed`` and ``known_raise``).  They are measured and reported,
never trimmed; a run is incorrect only when an output differs from the
references in a way that is not on those lists.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from saext import bcclassify, deficiency, extmap, jsonio, spectrum
from saext.potential import Potential

LEVEL_REL_TOL = 1e-6       # accuracy of a matched level, relative to max(1, |E|)
MATCH_REL = 1e-3           # a returned level within this of a reference level matches it
ROUND_TRIP_TOL = 1e-8      # U -> Ucal -> U
SYNTHESIS_TOL = 1e-7       # synthesize_from(classify(Ucal)) against Ucal
IDENTITY_TOL = 1e-8        # endpoint identities of a deficiency basis
UNITARIES_PER_BASIS = 200
CHECK_IDENTITY_SAMPLES = 200

# -- potentials: one description builds both the library input and the
# -- oracle's own piecewise V, so the oracle does not evaluate V through saext

def _poly(coeffs):
    return lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs)


def build_potential(spec, a):
    kind, *args = spec
    if kind == "zero":
        return Potential.zero(a)
    if kind == "harmonic":
        return Potential.harmonic(args[0], a)
    if kind == "cosine":
        return Potential.cosine(args[0], args[1], a)
    if kind == "finite-well":
        return Potential.finite_well(args[0], args[1], a)
    return Potential.piecewise(args[0], a)


def potential_pieces(spec, a):
    """[(lo, hi, vfun)] from -a to a with V smooth on every piece."""
    kind, *args = spec
    if kind == "zero":
        return [(-a, a, _poly([0.0]))]
    if kind == "harmonic":
        return [(-a, a, _poly([0.0, 0.0, args[0]]))]
    if kind == "cosine":
        amp, k = args
        return [(-a, a, lambda x: amp * np.cos(k * np.asarray(x, dtype=float)))]
    if kind == "finite-well":
        depth, hw = args
        return [(-a, -hw, _poly([0.0])), (-hw, hw, _poly([depth])), (hw, a, _poly([0.0]))]
    return [(lo, hi, _poly(cs)) for (lo, hi), cs in args[0]]


def piecewise_tilted(a):
    """V = 2x/a on [-a, 0), -3 on [0, a]: the non-even potential, rescaled to a."""
    return ("piecewise", [((-a, 0.0), [0.0, 2.0 / a]), ((0.0, a), [-3.0])])


def piecewise_even(a):
    """V = 3 for |x| > a/2, -1 + 4x^2/a^2 inside: even, with jumps at +-a/2."""
    return ("piecewise", [((-a, -a / 2), [3.0]), ((-a / 2, a / 2), [-1.0, 0.0, 4.0 / a ** 2]),
                          ((a / 2, a), [3.0])])


def boundary_condition(family, **params):
    return bcclassify.classify(bcclassify.synthesize(family, **params))


# -- spectrum workloads --------------------------------------------------------

@dataclass
class SpectrumOp:
    label: str
    potential: tuple
    family: str
    params: dict
    reference: tuple            # ("box", name) | ("robin", alpha, gamma) | ("fd",) | ("collocation",)
    known_missed: tuple = ()    # oracle levels the library is known to miss with defaults


SPECTRUM_OPS = {
    "spectrum-defaults-a1": (1.0, 40.0, [
        SpectrumOp("zero x neumann", ("zero",), "neumann", {}, ("box", "neumann")),
        SpectrumOp("zero x periodic", ("zero",), "periodic", {}, ("box", "periodic")),
        SpectrumOp("zero x robin(3,-3)", ("zero",), "robin", {"alpha": 3.0, "gamma": -3.0},
                   ("robin", 3.0, -3.0), known_missed=(-9.0871, -8.9085)),
        SpectrumOp("zero x robin(5,5)", ("zero",), "robin", {"alpha": 5.0, "gamma": 5.0},
                   ("robin", 5.0, 5.0), known_missed=(-25.0,)),
        SpectrumOp("harmonic(25) x dirichlet", ("harmonic", 25.0), "dirichlet", {}, ("fd",)),
        SpectrumOp("harmonic(25) x periodic", ("harmonic", 25.0), "periodic", {},
                   ("collocation",), known_missed=(4.8093,)),
        SpectrumOp("finite-well(-10,0.5) x periodic", ("finite-well", -10.0, 0.5), "periodic", {},
                   ("collocation",), known_missed=(-6.7827,)),
        SpectrumOp("cosine(5,pi) x general-coupled", ("cosine", 5.0, np.pi), "general-coupled",
                   {"alpha": 1.0, "beta": 0.5 + 0.5j, "gamma": -2.0}, ("collocation",),
                   known_missed=(-9.2943,)),
        SpectrumOp("piecewise x automorphic(K=2+i)", piecewise_tilted(1.0), "automorphic",
                   {"K": 2.0 + 1.0j}, ("collocation",)),
    ]),
    # a=2, not 3: at a=3 the same ops cost 2x as much (grid ~ a^2, solve ~ a) and the
    # benchmark's runs no longer fit their time budget on a contended host
    "spectrum-wide-a2": (2.0, 10.0, [
        SpectrumOp("zero x dirichlet", ("zero",), "dirichlet", {}, ("box", "dirichlet")),
        SpectrumOp("harmonic(25/4) x dirichlet", ("harmonic", 25.0 / 4.0), "dirichlet", {},
                   ("fd",), known_missed=(2.5008, 7.5134)),
        SpectrumOp("piecewise x general-coupled", piecewise_tilted(2.0), "general-coupled",
                   {"alpha": 1.0, "beta": 0.5 + 0.5j, "gamma": -2.0}, ("collocation",),
                   known_missed=(-7.6941,)),
    ]),
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class SpectrumWorkload:
    """find_eigenvalues(p, bc, e_max) with every other argument at its default."""

    def __init__(self, name, seed):
        self.a, self.e_max, ops = SPECTRUM_OPS[name]
        order = np.random.default_rng(seed).permutation(len(ops))
        self.ops = [ops[i] for i in order]
        self.inputs = [(build_potential(op.potential, self.a),
                        boundary_condition(op.family, **op.params)) for op in self.ops]
        # warm-up: the free Dirichlet ground state alone, the cheapest real op
        self.warmup_input = (Potential.zero(self.a), boundary_condition("dirichlet"),
                             1.5 * (np.pi / (2 * self.a)) ** 2)

    @staticmethod
    def _solve(p, bc, e_max):
        result = spectrum.find_eigenvalues(p, bc, e_max=e_max)
        return result, _digest(jsonio.dumps(result.to_json()))

    def warmup(self):
        return self._solve(*self.warmup_input)[1]

    def run(self, i):
        """Op i; returns (output, digest of its canonical JSON)."""
        p, bc = self.inputs[i]
        return self._solve(p, bc, self.e_max)

    def references(self):
        """Per op: (levels, error estimate, whether collocation agrees with them)."""
        import oracle
        refs = []
        for op, (_, bc) in zip(self.ops, self.inputs):
            pieces = potential_pieces(op.potential, self.a)
            colloc, colloc_err = oracle.collocation_levels(pieces, bc.Ucal.matrix, self.e_max)
            kind = op.reference[0]
            if kind == "box":
                levels, err = oracle.box_levels(op.reference[1], self.e_max, self.a)
            elif kind == "robin":
                alpha, gamma = op.reference[1:]
                floor = -(max(abs(alpha), abs(gamma)) + 1.0) ** 2 - 10.0
                levels, err = oracle.robin_levels(alpha, gamma, self.e_max, self.a, floor)
            elif kind == "fd":
                (_, _, vfun), = pieces
                levels, err = oracle.dirichlet_fd_levels(vfun, self.e_max, self.a)
            else:
                levels, err = colloc, colloc_err
            # the two references must agree before either can judge the library
            agree = (np.isfinite(err) and np.isfinite(colloc_err) and not any(match_levels(
                levels, err, [e for e, _ in colloc], [m for _, m in colloc], colloc_err)))
            refs.append((levels, err, agree))
        return refs

    def check(self, i, output, reference):
        """Returns ((missed, spurious, inaccurate), misses not known, failed checks)."""
        levels, err, agree = reference
        failed = [] if agree else ["references-disagree"]
        if any(r > spectrum.RESIDUAL_LIMIT for r in output.residuals):
            failed.append("residual")
        matched = match_levels(levels, err, output.eigenvalues, output.degeneracies)
        known = self.ops[i].known_missed
        unknown = [e for e in matched[0]
                   if not any(abs(e - k) <= MATCH_REL * max(1.0, abs(k)) for k in known)]
        return matched, unknown, failed


def match_levels(reference, ref_err, energies, degeneracies, tol_floor=0.0):
    """Match returned levels to reference levels, counting multiplicity.

    Returns (missed reference energies, spurious returned energies,
    matched pairs that miss the reference by more than the tolerance).
    """
    ref = sorted(e for e, m in reference for _ in range(m))
    got = sorted(float(e) for e, m in zip(energies, degeneracies) for _ in range(m))
    missed, spurious, inaccurate = [], [], []
    i = j = 0
    while i < len(ref) or j < len(got):
        if j == len(got) or (i < len(ref) and got[j] - ref[i] > MATCH_REL * max(1.0, abs(ref[i]))):
            missed.append(ref[i])
            i += 1
        elif i == len(ref) or ref[i] - got[j] > MATCH_REL * max(1.0, abs(ref[i])):
            spurious.append(got[j])
            j += 1
        else:
            tol = max(LEVEL_REL_TOL * max(1.0, abs(ref[i])), ref_err, tol_floor)
            if abs(got[j] - ref[i]) > tol:
                inaccurate.append((ref[i], got[j]))
            i += 1
            j += 1
    return missed, spurious, inaccurate


# -- extension algebra -------------------------------------------------------------

@dataclass
class BasisOp:
    label: str
    mode: str                   # "even" (solve_even_odd) or "general" (solve_orthonormal_pair)
    potential: tuple
    a: float
    known_raise: str | None = None


def _basis_ops():
    ops = []
    for a in (1.0, 3.0):
        ops += [
            BasisOp(f"even zero a={a:g}", "even", ("zero",), a),
            BasisOp(f"even harmonic(25/a^2) a={a:g}", "even", ("harmonic", 25.0 / a ** 2), a,
                    known_raise="InvariantViolation" if a == 3.0 else None),
            BasisOp(f"even cosine(5,pi/a) a={a:g}", "even", ("cosine", 5.0, np.pi / a), a),
            BasisOp(f"even finite-well(-10,a/2) a={a:g}", "even", ("finite-well", -10.0, a / 2), a),
            # is_even samples V with right limits, so jumps at +-a/2 read as odd
            BasisOp(f"even piecewise a={a:g}", "even", piecewise_even(a), a,
                    known_raise="ParityError"),
            BasisOp(f"general zero a={a:g}", "general", ("zero",), a),
            BasisOp(f"general piecewise a={a:g}", "general", piecewise_tilted(a), a),
        ]
    return ops


def _endpoint_defect(table, even):
    """Largest deviation of the endpoint identities of a boundary table."""
    worst = 0.0
    for j in range(2):
        for k in range(2):
            for conj, want in ((True, 2j if j == k else 0.0), (False, 0.0)):
                tj = np.conj(table[j]) if conj else table[j]
                tk = table[k]
                form = tj[0] * tk[1] - tj[1] * tk[0] - tj[2] * tk[3] + tj[3] * tk[2]
                worst = max(worst, abs(form - want))
        if even:
            dg, g = table[j, 0], table[j, 1]
            worst = max(worst, abs(g * np.conj(dg) - dg * np.conj(g) - 1j))
    return worst


class ExtensionWorkload:
    """Build each deficiency basis, then map and classify a stream of Haar U."""

    def __init__(self, name, seed):
        self.seed = seed
        ops = _basis_ops()
        order = np.random.default_rng(seed).permutation(len(ops))
        self.ops = [ops[i] for i in order]
        self.inputs = []
        for i in order:
            rng = np.random.default_rng([seed, int(i)])
            self.inputs.append((build_potential(ops[i].potential, ops[i].a),
                                [extmap.Unitary2.certify(extmap.haar_unitary(rng))
                                 for _ in range(UNITARIES_PER_BASIS)]))
        self.warmup_index = next(i for i, op in enumerate(self.ops) if op.label == "even zero a=1")

    def _solve(self, i):
        p, unitaries = self.inputs[i]
        if self.ops[i].mode == "even":
            basis = deficiency.solve_even_odd(p)
            maps = []
            for u in unitaries:
                pair = extmap.forward_map(basis, u)
                bc = bcclassify.classify(pair.Ucal)
                maps.append((u, pair.Ucal, bc, bcclassify.synthesize_from(bc),
                             extmap.inverse_map(basis, pair.Ucal)))
            report = extmap.check_identities(basis, CHECK_IDENTITY_SAMPLES, seed=self.seed)
        else:
            basis = deficiency.solve_orthonormal_pair(p)
            maps = []
            for u in unitaries:
                ucal = extmap.forward_map_general(basis, u)
                bc = bcclassify.classify(ucal)
                maps.append((u, ucal, bc, bcclassify.synthesize_from(bc), None))
            report = None
        text = jsonio.dumps({"basis": basis.to_json(), "bcs": [m[2].to_json() for m in maps],
                             "identities": report})
        return (basis, maps, report), _digest(text)

    def warmup(self):
        return self._solve(self.warmup_index)[1]

    def run(self, i):
        return self._solve(i)

    def references(self):
        return [None] * len(self.ops)

    def check(self, i, output, reference):
        """Returns (None, [], labels of the outputs of op i that fail a check)."""
        basis, maps, report = output
        failed = []
        even = basis.parity_mode == deficiency.EVEN_MODE
        if _endpoint_defect(basis.boundary_table, even) > IDENTITY_TOL:
            failed.append("basis:endpoint-identities")
        if report is not None and not report["passed"]:
            failed.append("basis:check_identities")
        for k, (u, ucal, bc, rebuilt, back) in enumerate(maps):
            bad = np.abs(rebuilt.matrix - ucal.matrix).max() > SYNTHESIS_TOL
            if back is not None:
                bad = bad or np.abs(back.matrix - u.matrix).max() > ROUND_TRIP_TOL
            if bad:
                failed.append(f"U[{k}]")
        return None, [], failed


WORKLOADS = {"spectrum-defaults-a1": SpectrumWorkload, "spectrum-wide-a2": SpectrumWorkload,
             "extension-algebra": ExtensionWorkload}


def build(name, seed):
    return WORKLOADS[name](name, seed)

