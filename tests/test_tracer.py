"""The benchmark's layer tracer looks library attributes up by name, so an
API change that removes one breaks every traced benchmark run.  The tracer
lives in perfbench/, outside the tier-1 test paths; this test installs it."""

import os

import saext.odesolve

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_benchmark_tracer_installs_and_removes(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    propagate = saext.odesolve.propagate
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert saext.odesolve.propagate is not propagate
    finally:
        tracer.remove()
    assert saext.odesolve.propagate is propagate
