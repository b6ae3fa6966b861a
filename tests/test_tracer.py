"""The benchmark's layer tracer looks library attributes up by name, so an
API change that removes one breaks every traced benchmark run, and its
workloads check the library's outputs.  Both live in perfbench/, outside
the tier-1 test paths; these tests install the tracer and run the
extension-algebra workload once through its checks."""

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


def test_extension_algebra_workload_passes_its_checks(monkeypatch):
    # the benchmark's own correctness gate on the extension map and classification
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    w = workloads.build("extension-algebra", 11)
    assert len(w.ops) == 14
    for i, (op, reference) in enumerate(zip(w.ops, w.references())):
        try:
            output, _ = w.run(i)
        except Exception as exc:  # the benchmark accepts only the raises it lists
            assert type(exc).__name__ == op.known_raise, op.label
            continue
        assert w.check(i, output, reference)[2] == [], op.label
