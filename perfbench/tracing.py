"""Layer tracing from outside the library.

The tracer replaces module attributes with timing wrappers at the places
where callers look them up (``saext.odesolve.propagate`` is looked up by
``spectrum`` at call time, ``saext.odesolve.integrate`` by ``deficiency``),
so no file under ``src/`` changes.  Spans (name, start, end, parent, op id)
are kept in memory; ``remove`` restores every attribute it replaced.
"""

import json
import time

import saext.bcclassify
import saext.deficiency
import saext.extmap
import saext.jsonio
import saext.odesolve
import saext.spectrum
from saext.potential import Potential

# (owner, attribute, span name); the benchmark calls every public entry
# point through its module, so these wrappers see the benchmark's calls too
_WRAPPED = [
    (saext.spectrum, "find_eigenvalues", "spectrum.find_eigenvalues"),
    (saext.spectrum, "minimize_scalar", "spectrum.refine"),
    (saext.odesolve, "integrate", "odesolve.integrate"),
    (saext.odesolve, "l2_inner", "odesolve.l2_inner"),
    (Potential, "is_even", "potential.is_even"),
    (saext.deficiency, "solve_even_odd", "deficiency.solve_even_odd"),
    (saext.deficiency, "solve_orthonormal_pair", "deficiency.solve_orthonormal_pair"),
    (saext.extmap, "forward_map", "extmap.forward_map"),
    (saext.extmap, "inverse_map", "extmap.inverse_map"),
    (saext.extmap, "forward_map_general", "extmap.forward_map_general"),
    (saext.extmap, "check_identities", "extmap.check_identities"),
    (saext.bcclassify, "classify", "bcclassify.classify"),
    (saext.bcclassify, "synthesize_from", "bcclassify.synthesize_from"),
    (saext.jsonio, "dumps", "jsonio.dumps"),
]


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start, end, parent index, op id]
        self.v_calls = 0
        self.v_points = 0
        self.op_id = None
        self._stack = []
        self._saved = []

    def _timed(self, name, fn, name_of_call=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name_of_call(args, kwargs) if name_of_call else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return wrapper

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for owner, attr, name in _WRAPPED:
            self._replace(owner, attr, self._timed(name, getattr(owner, attr)))

        scan_rtol = saext.spectrum.SCAN_RTOL

        def propagate_kind(args, kwargs):
            rtol = args[4] if len(args) > 4 else kwargs.get("rtol", saext.odesolve.DEFAULT_RTOL)
            return "odesolve.propagate.scan" if rtol == scan_rtol else "odesolve.propagate.full"
        self._replace(saext.odesolve, "propagate",
                      self._timed(None, saext.odesolve.propagate, propagate_kind))

        piece_callable = Potential.piece_callable
        tracer = self

        def counted_piece_callable(p, lo, hi):
            vfun = piece_callable(p, lo, hi)

            def v(x):
                tracer.v_calls += 1
                tracer.v_points += getattr(x, "size", 1)
                return vfun(x)
            return v
        self._replace(Potential, "piece_callable", counted_piece_callable)

    def remove(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def totals(self):
        """{name: (calls, inclusive seconds, self seconds)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - covered)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
