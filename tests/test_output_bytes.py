"""The bytes that the map-and-classify path writes, pinned by sha256.

The U <-> Ucal maps, classify, synthesize and synthesize_from run their 2x2
arithmetic on matrix entries, for one matrix and for a stack alike.  A
change to how that arithmetic is organised must keep every float it
returns, signed zeros included, since those reach the JSON.  The digests
below were recorded from these calls and fail on any changed bit.
"""

import hashlib

import numpy as np
import pytest

from saext import cli, jsonio
from saext.bcclassify import classify, synthesize, synthesize_from
from saext.deficiency import solve_even_odd, solve_orthonormal_pair
from saext.extmap import (Unitary2, forward_map, forward_map_general, haar_unitary,
                          inverse_map)
from saext.potential import Potential

SAMPLES = 50

# every named family, with the parameter shapes that reach each branch
FAMILY_CASES = [
    ("dirichlet", {}), ("neumann", {}), ("periodic", {}), ("anti-periodic", {}),
    ("dirichlet-at-a-neumann-at-minus-a", {}), ("neumann-at-a-dirichlet-at-minus-a", {}),
    ("robin", {"alpha": 3.0, "gamma": -3.0}), ("robin", {"alpha": 5.0, "gamma": 5.0}),
    ("robin", {"alpha": -0.25, "gamma": 1e3}), ("robin", {"alpha": 1e200, "gamma": 1.0}),
    ("automorphic", {"K": 2.0 + 1.0j}), ("automorphic", {"K": -0.5j}),
    ("automorphic", {"K": 1.0}), ("automorphic", {"K": -1.0}),
    ("general-coupled", {"alpha": 1.0, "beta": 0.5 + 0.5j, "gamma": -2.0}),
    ("general-coupled", {"alpha": 2.0, "gamma": 3.0}),
    ("general-coupled", {"alpha": 1e300, "beta": 1e300j, "gamma": 1e300}),
    ("general-case-II", {"alpha": 1.0, "beta": 1.0, "gamma": -1.0}),
    ("general-case-II", {"alpha": 2.0, "beta": 1.0 + 1.0j, "gamma": -1.0}),
    ("general-case-III", {"alpha": 1.0, "beta": 1.0, "gamma": -1.0}),
    ("general-case-III", {"alpha": 1e200, "beta": 0.0, "gamma": 0.0}),
]

EVEN_POTENTIALS = {"zero(1)": Potential.zero(1.0), "harmonic(25)": Potential.harmonic(25.0, 1.0)}

DIGESTS = {
    "even zero(1)": "f897de805cd628ff6cb1621d7a9b119e813d6e9ab0bc08cb3907119514425ffd",
    "even harmonic(25)": "f921d7938862d0b842295233c03de5865bfe4a2d2cc614e7f0565e2e2019aa9f",
    "general tilted": "935a80d9b3ce91c747682eb3d57d5b4df3b0ece69bd0aa31556e52c6f801095d",
    "families": "92967e9ca2d742567d938afbd66a56d612f09461a5035bce7b96ec3f35c300df",
    "cli map": "d3cc3680b0257058abb3df176d5f65c83c05f78808a3e108d881624e4ece03fb",
}


def sha(text):
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def bc_record(bc):
    """classify's JSON, the raw bits of H and H', and synthesize_from's matrix."""
    return {"bc": bc.to_json(),
            "H": None if bc.H is None else bc.H.tobytes().hex(),
            "Hprime": None if bc.Hprime is None else bc.Hprime.tobytes().hex(),
            "rebuilt": jsonio.matrix_to_json(synthesize_from(bc).matrix)}


def haar_draws(seed):
    rng = np.random.default_rng(seed)
    return [Unitary2.certify(haar_unitary(rng)) for _ in range(SAMPLES)]


def even_text(p):
    basis = solve_even_odd(p)
    records = []
    for u in haar_draws(31):
        pair = forward_map(basis, u)
        records.append({**bc_record(classify(pair.Ucal)),
                        "Utilde": jsonio.matrix_to_json(pair.Utilde.matrix),
                        "Ucal": jsonio.matrix_to_json(pair.Ucal.matrix),
                        "V": pair.V.tobytes().hex(), "Vtilde": pair.Vtilde.tobytes().hex(),
                        "back": jsonio.matrix_to_json(inverse_map(basis, pair.Ucal).matrix)})
    return jsonio.dumps(records)


def general_text():
    basis = solve_orthonormal_pair(
        Potential.piecewise([((-1.0, 0.0), [0.0, 2.0]), ((0.0, 1.0), [-3.0])], 1.0))
    records = []
    for u in haar_draws(32):
        ucal = forward_map_general(basis, u)
        records.append({**bc_record(classify(ucal)), "Ucal": jsonio.matrix_to_json(ucal.matrix)})
    return jsonio.dumps(records)


def families_text():
    records = []
    for family, params in FAMILY_CASES:
        u = synthesize(family, **params)
        records.append({"family": family, "Ucal": jsonio.matrix_to_json(u.matrix),
                        **bc_record(classify(u))})
    return jsonio.dumps(records)


def cli_map_bytes(tmp_path):
    potential, matrix, out = (tmp_path / name for name in ("p.json", "u.json", "out.json"))
    jsonio.write(potential, Potential.harmonic(25.0, 1.0).to_json())
    jsonio.write(matrix, jsonio.matrix_to_json(haar_unitary(np.random.default_rng(33))))
    assert cli.main(["map", "--potential", str(potential), "--matrix", str(matrix),
                     "--direction", "u-to-bc", "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", EVEN_POTENTIALS)
def test_even_map_classify_and_rebuild_bytes(name):
    assert sha(even_text(EVEN_POTENTIALS[name])) == DIGESTS[f"even {name}"]


def test_general_map_classify_and_rebuild_bytes():
    assert sha(general_text()) == DIGESTS["general tilted"]


def test_named_family_bytes():
    assert sha(families_text()) == DIGESTS["families"]


def test_cli_map_output_bytes(tmp_path):
    assert sha(cli_map_bytes(tmp_path)) == DIGESTS["cli map"]


def v_vtilde_by_entry(basis, u):
    """V = E + conj(U) D and V~ = -(conj(D) + conj(U) conj(E)) entry by entry in
    Python's complex product, with D = A - iB and E = conj(A + iB) diagonal."""
    d, ce, e, cd = basis._a_pm_ib
    uc = np.conj(u).tolist()

    def entry(j, k, scale, diag):  # off the diagonal nothing is added, not even a zero
        z = uc[j][k] * scale[k]
        return z + diag[j] if j == k else z

    return (np.array([[entry(j, k, d, e) for k in range(2)] for j in range(2)]),
            np.array([[-entry(j, k, ce, cd) for k in range(2)] for j in range(2)]))


@pytest.mark.parametrize("name", EVEN_POTENTIALS)
def test_map_pair_v_and_vtilde_are_the_formulas_bits(name):
    basis = solve_even_odd(EVEN_POTENTIALS[name])
    stack = haar_unitary(np.random.default_rng(34), 20)
    pair = forward_map(basis, Unitary2.certify(stack))
    for k, u in enumerate(stack):
        one = forward_map(basis, Unitary2.certify(u))
        v, vt = v_vtilde_by_entry(basis, u)
        for got, want in ((one.V, v), (pair.V[k], v), (one.Vtilde, vt), (pair.Vtilde[k], vt)):
            assert got.dtype == complex and got.tobytes() == want.tobytes()  # signed zeros too
