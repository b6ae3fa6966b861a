"""Deterministic JSON and matrix serialization.

Output files must be byte-identical across runs with the same inputs, so
floats are always rendered with 17 significant digits and object keys are
sorted; complex numbers travel as [re, im] pairs and 2x2 matrices as
{"rows": [[[re, im], ...], ...]}.
"""

from __future__ import annotations

import json

import numpy as np


def matrix_to_json(m):
    m = np.asarray(m, dtype=complex)
    return {"rows": [[[z.real, z.imag] for z in row] for row in m]}


def matrix_from_json(data):
    """The 2x2 complex matrix of {"rows": rows} or of bare rows of [re, im] pairs."""
    rows = data["rows"] if isinstance(data, dict) else data
    try:
        (a, b), (c, d) = [[complex(re, im) for re, im in row] for row in rows]
    except (TypeError, ValueError, OverflowError):
        raise ValueError("a matrix is 2x2 rows of [re, im] pairs") from None
    return np.array([[a, b], [c, d]])


def _mapping(value):
    return "{" + ",".join([_string(str(key)) + ":" + _render(value[key])
                           for key in sorted(value)]) + "}"


def _sequence(value):
    return "[" + ",".join([_render(item) for item in value]) + "]"


def _float(value):
    return format(float(value), ".17g")


def _by_isinstance(value):
    if isinstance(value, dict):
        return _mapping(value)
    if isinstance(value, (list, tuple)):
        return _sequence(value)
    if isinstance(value, (bool, np.bool_)) or value is None:
        return json.dumps(bool(value) if value is not None else None)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return _sequence([value.real, value.imag])
    if isinstance(value, np.ndarray):
        return _render(value.tolist())
    return json.dumps(value)


_string = json.encoder.encode_basestring_ascii  # what json.dumps does to a str
# the types a payload is mostly made of, looked up by exact type before the
# isinstance chain (a bool is an int, so only exact types may skip the chain)
_EXACT = {float: _float, np.float64: _float, list: _sequence, tuple: _sequence,
          dict: _mapping, str: _string}


def _render(value):
    return _EXACT.get(type(value), _by_isinstance)(value)


def dumps(value):
    """Canonical JSON: sorted keys, floats at 17 significant digits."""
    return _render(value)


def write(path, value):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(value))
        fh.write("\n")


def read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
