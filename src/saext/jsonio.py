"""Deterministic JSON and matrix serialization.

Output files must be byte-identical across runs with the same inputs, so
every payload goes through one standard-library encoder with sorted keys
and compact separators.  Floats are written as their shortest round-trip
text (0.1, not 0.10000000000000001), which reads back bit for bit, and
non-finite ones as NaN and Infinity, which ``read`` accepts; complex
numbers travel as [re, im] pairs and 2x2 matrices as
{"rows": [[[re, im], ...], ...]}.
"""

from __future__ import annotations

import json

import numpy as np


def matrix_to_json(m):
    rows = np.asarray(m, dtype=complex).tolist()
    return {"rows": [[[z.real, z.imag] for z in row] for row in rows]}


def _real(value):
    """The float of a JSON number: ValueError for anything else, booleans
    (which Python counts as ints) and numeric strings included."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"number out of the float range: {value!r}") from None


def _complex(pair):
    """The complex number of a JSON [re, im] pair of numbers."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"not an [re, im] pair of numbers: {pair!r}")
    return complex(_real(pair[0]), _real(pair[1]))


def matrix_from_json(data):
    """The 2x2 complex matrix of {"rows": rows} or of bare rows of [re, im] pairs."""
    rows = data["rows"] if isinstance(data, dict) else data
    try:
        (a, b), (c, d) = [[_complex(z) for z in row] for row in rows]
    except (TypeError, ValueError):
        raise ValueError("a matrix is 2x2 rows of [re, im] pairs") from None
    return np.array([[a, b], [c, d]])


def _default(value):
    """The JSON-native form of a complex number or a numpy scalar or array."""
    if isinstance(value, (complex, np.complexfloating)):
        return [value.real, value.imag]
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_default).encode


def write(path, value):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(value))
        fh.write("\n")


def read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
