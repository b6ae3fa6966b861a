"""The canonical JSON writer: exact float text, ASCII output, sorted keys."""

import json

import numpy as np
import pytest

from saext import jsonio
from saext.bcclassify import classify, synthesize
from saext.deficiency import (EVEN_MODE, GENERAL_MODE, DeficiencyBasis, solve_even_odd,
                              solve_orthonormal_pair)
from saext.potential import Potential


class Label(str):
    pass


def payload():
    rng = np.random.default_rng(0)
    return {
        "floats": [1.5, -0.0, 1e-300, float("inf"), float("nan"), 0.1 + 0.2,
                   *rng.standard_normal(50) * 10.0 ** rng.integers(-200, 200, 50)],
        "numpy": [np.float64(2.25), np.float32(0.1), np.bool_(True), np.bool_(False),
                  np.int64(-7), np.int32(3), np.complex128(3 - 4j)],
        "python": [True, False, None, 0, -12, 1 + 2j, "text", Label("sub")],
        "ndarray": np.arange(6.0).reshape(2, 3) + 1j,
        "nested": ((1, (2.0, ("x", None))), [np.array([True, False])], {"k": ()}),
        "keys": {"é\n\"q": 1, "b": {"a": [], "c": {}}, Label("z"): 2.0},
        "ü": "ß",
    }


def bits(values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


def test_dumps_reads_back_bit_for_bit(tmp_path):
    value = payload()
    jsonio.write(tmp_path / "out.json", value)
    back = jsonio.read(tmp_path / "out.json")  # NaN and Infinity included
    assert bits(back["floats"]) == bits(value["floats"])
    # repr tells True from 1, 1.0 from 1 and -0.0 from 0.0
    assert repr(back["numpy"]) == repr([2.25, float(np.float32(0.1)), True, False, -7, 3,
                                        [3.0, -4.0]])
    assert repr(back["python"]) == repr([True, False, None, 0, -12, [1.0, 2.0], "text", "sub"])
    assert repr(back["ndarray"]) == repr([[[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]],
                                          [[3.0, 1.0], [4.0, 1.0], [5.0, 1.0]]])
    assert repr(back["nested"]) == repr([[1, [2.0, ["x", None]]], [[True, False]], {"k": []}])
    assert back["keys"] == {"é\n\"q": 1, "b": {"a": [], "c": {}}, "z": 2.0}
    assert back["ü"] == "ß"


def test_dumps_is_ascii_with_shortest_float_text():
    text = jsonio.dumps(payload())
    assert text.isascii()
    assert "[1.5,-0.0,1e-300,Infinity,NaN,0.30000000000000004," in text
    assert '"z":2.0' in text


def test_dumps_sorts_keys_at_every_level():
    text = jsonio.dumps(payload())
    assert jsonio.dumps(json.loads(text)) == text
    assert jsonio.dumps({"b": {"d": 1, "c": 2}, "a": 3}) == '{"a":3,"b":{"c":2,"d":1}}'


def test_dumps_rejects_values_json_cannot_hold():
    with pytest.raises(TypeError, match="set"):
        jsonio.dumps({"s": {1, 2}})


def test_real_rejects_an_int_beyond_the_float_range():
    assert jsonio._real(10 ** 300) == 1e300
    with pytest.raises(ValueError, match="out of the float range"):
        jsonio._real(10 ** 400)


@pytest.mark.parametrize("entry", [True, "1", None, [1.0], [True, 0.0], [1.0, False], ["1", 0.0],
                                   [10 ** 400, 0.0]],
                         ids=["bool", "string", "null", "short", "bool-real", "bool-imag",
                              "string-real", "huge-int"])
def test_matrix_entries_are_pairs_of_json_numbers(entry):
    rows = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    assert np.array_equal(jsonio.matrix_from_json({"rows": rows}), np.eye(2))
    rows[0][1] = entry
    with pytest.raises(ValueError, match="2x2 rows"):
        jsonio.matrix_from_json({"rows": rows})


def leaves(value):
    """The leaves of a JSON-ready value, lists and dicts opened."""
    if isinstance(value, dict):
        return [leaf for v in value.values() for leaf in leaves(v)]
    if isinstance(value, (list, tuple)):
        return [leaf for v in value for leaf in leaves(v)]
    return [value]


FIXED_TABLE = np.array([[0.5 - 0.25j, 1.5 + 0.75j, -0.5 + 0.25j, 1.5 + 0.75j],
                        [-0.125 + 2.0j, 0.375 - 1.0j, -0.125 + 2.0j, -0.375 + 1.0j]])
FIXED_BYTES = [
    '{"boundary_table":[[[0.5,-0.25],[1.5,0.75],[-0.5,0.25],[1.5,0.75]],[[-0.125,2.0],'
    '[0.375,-1.0],[-0.125,2.0],[-0.375,1.0]]],"mat_A":{"rows":[[[1.5,0.75],[0.0,0.0]],'
    '[[0.0,0.0],[0.375,-1.0]]]},"mat_B":{"rows":[[[0.5,-0.25],[0.0,0.0]],[[0.0,0.0],'
    '[-0.125,2.0]]]},"mode":"even-potential","potential":{"a":1.0,"kind":"harmonic",'
    '"params":{"coefficient":25.0}}}',
    '{"boundary_table":[[[0.5,-0.25],[1.5,0.75],[-0.5,0.25],[1.5,0.75]],[[-0.125,2.0],'
    '[0.375,-1.0],[-0.125,2.0],[-0.375,1.0]]],"mode":"general","potential":{"a":1.0,'
    '"kind":"harmonic","params":{"coefficient":25.0}}}',
    '{"case":"I","matrix":{"rows":[[[-0.1891891891891892,-0.8648648648648648],'
    '[0.2702702702702703,0.3783783783783784]],[[0.3783783783783784,-0.2702702702702703],'
    '[0.4594594594594594,-0.7567567567567568]]]},"name":"general-coupled","parameters":'
    '{"alpha":0.9999999999999999,"beta":[0.5,0.5],"gamma":-2.0},"singular_values":'
    '{"I_minus_U":[1.6891483491541182,0.7786124286250361],"I_plus_U":[1.8422167858291334,'
    '1.070877142603164]}}',
]


def test_reports_hold_python_numbers_and_keep_their_bytes():
    # numpy scalars print the same text, but the encoder takes them slower
    potential = Potential.harmonic(25.0, 1.0)
    fixed = [DeficiencyBasis(mode, potential, FIXED_TABLE).to_json()
             for mode in (EVEN_MODE, GENERAL_MODE)]
    fixed.append(classify(synthesize("general-coupled", alpha=1.0, beta=0.5 + 0.5j,
                                     gamma=-2.0)).to_json())
    assert [jsonio.dumps(data) for data in fixed] == FIXED_BYTES
    reports = fixed + [solve_even_odd(potential).to_json(),
                       solve_orthonormal_pair(potential).to_json()]
    # every kind of parameter, and singular values scaled back from a huge H
    reports += [classify(synthesize(family, **params)).to_json() for family, params in (
        ("robin", {"alpha": 2.0, "gamma": -3.0}), ("neumann", {}), ("dirichlet", {}),
        ("general-case-III", {"alpha": 1.0, "beta": 1.0, "gamma": -1.0}),
        ("automorphic", {"K": 2.0 + 1.0j}), ("dirichlet-at-a-neumann-at-minus-a", {}),
        ("general-coupled", {"alpha": 1e300, "beta": 1e300j, "gamma": 1e300}))]
    for data in reports:
        numbers = [leaf for leaf in leaves(data) if not isinstance(leaf, str)]
        assert numbers and all(type(leaf) in (float, int) for leaf in numbers), data
