"""The canonical JSON writer against the isinstance-chain renderer it replaced."""

import json

import numpy as np

from saext import jsonio


def reference_dumps(value):
    """One isinstance chain over every value, with a json.dumps call per key."""
    out = []

    def render(value):
        if isinstance(value, dict):
            out.append("{")
            for i, key in enumerate(sorted(value)):
                if i:
                    out.append(",")
                out.append(json.dumps(str(key)))
                out.append(":")
                render(value[key])
            out.append("}")
        elif isinstance(value, (list, tuple)):
            out.append("[")
            for i, item in enumerate(value):
                if i:
                    out.append(",")
                render(item)
            out.append("]")
        elif isinstance(value, (bool, np.bool_)) or value is None:
            out.append(json.dumps(bool(value) if value is not None else None))
        elif isinstance(value, (int, np.integer)):
            out.append(str(int(value)))
        elif isinstance(value, (float, np.floating)):
            out.append(format(float(value), ".17g"))
        elif isinstance(value, (complex, np.complexfloating)):
            render([value.real, value.imag])
        elif isinstance(value, np.ndarray):
            render(value.tolist())
        else:
            out.append(json.dumps(value))

    render(value)
    return "".join(out)


class Label(str):
    pass


def test_dumps_matches_reference_renderer():
    rng = np.random.default_rng(0)
    payload = {
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
    assert jsonio.dumps(payload) == reference_dumps(payload)
