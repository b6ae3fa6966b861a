"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/`` and
the closed-form oracles from ``tests/oracles.py``.  With ``--trace 0`` the
run measures set-up time in fresh processes, then repeats whole passes
over the workload's op list for ``--seconds`` (at least one pass), with
no tracing.  With ``--trace 1`` it adds one traced pass after the untraced
ones and reports per-layer metrics instead.  Times are reported in
reference seconds (see speed.py), with the raw ones next to them.  Every
output is checked against references computed outside the timed regions.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import logging
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass

from speed import Speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_SAMPLES = 5    # this process plus four fresh probes; setup_s is their median
PROBE_TIMEOUT_S = 120
SPAN_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="internal: time import, inputs and one warm-up op, then exit")
    return parser.parse_args(argv)


def _import_library():
    """Put src/ and tests/ on the path; False when the checkout lacks them."""
    src = os.path.join(ROOT, "src")
    tests = os.path.join(ROOT, "tests")
    if not (os.path.isfile(os.path.join(src, "saext", "__init__.py"))
            and os.path.isfile(os.path.join(tests, "oracles.py"))):
        return False
    sys.path[:0] = [src, tests]
    return True


def _setup_probes(args):
    """Set-up samples from fresh processes, one at a time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


class _SpectrumLog(logging.Handler):
    """Counts the warnings saext.spectrum logs for dropped or unrefined candidates."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.dropped = 0
        self.refine_failed = 0

    def emit(self, record):
        message = record.getMessage()
        if message.startswith("dropping candidate"):
            self.dropped += 1
        elif message.startswith("refinement did not converge"):
            self.refine_failed += 1


@dataclass
class _Op:
    """The outcome of one op in one pass."""

    index: int
    raw_seconds: float
    output: object = None
    digest: str | None = None
    error: Exception | None = None
    seconds: float = 0.0        # raw_seconds in reference seconds
    sampler_seconds: float = 0.0  # of raw_seconds, spent in the speed sampler's interrupts
    dropped: int = 0            # saext.spectrum warnings logged during the op
    refine_failed: int = 0


def _run_pass(w, log, speed, tracer=None):
    """One closed-loop pass over the op list; times only the library calls.

    Returns the ops, each with its time in reference seconds, and the
    pass's own raw-to-reference scale.
    """
    ops, marks = [], []
    for i in range(len(w.ops)):
        if tracer is not None:
            tracer.op_id = i
        dropped, unrefined = log.dropped, log.refine_failed
        before = speed.mark()
        alarm = speed.alarm_total
        start = time.perf_counter()
        try:
            output, digest = w.run(i)
            op = _Op(i, time.perf_counter() - start, output, digest)
        except Exception as exc:  # an op that raises is counted, never fatal
            op = _Op(i, time.perf_counter() - start, error=exc)
        op.sampler_seconds = speed.alarm_total - alarm
        marks.append((before, speed.mark()))
        op.dropped, op.refine_failed = log.dropped - dropped, log.refine_failed - unrefined
        ops.append(op)
    whole = (marks[0][0], marks[-1][1])
    for op, interval in zip(ops, marks):
        op.seconds = op.raw_seconds * speed.scale(*interval, wider=whole)
    return ops, speed.scale(*whole)


class _Verdict:
    """Checks every op of every pass against the references."""

    def __init__(self, w, references):
        self.w, self.references = w, references
        self.digests = {}               # op index -> digest of its first output
        self.failed_outputs = set()     # (op index, output label)
        self.unexpected = set()         # reasons the run is incorrect
        self.errors = {}                # op index -> repr of what it raised
        self.levels = {}                # op index -> (missed, spurious, inaccurate)
        self.attempted = self.raised = 0

    def add_pass(self, ops):
        for op in ops:
            self.attempted += 1
            spec = self.w.ops[op.index]
            if op.error is not None:
                self.raised += 1
                self.errors[op.index] = f"{spec.label}: {op.error!r}"
                if type(op.error).__name__ != getattr(spec, "known_raise", None):
                    self.unexpected.add(f"{spec.label}: raised {op.error!r}")
                continue
            if self.digests.setdefault(op.index, op.digest) != op.digest:
                self.failed_outputs.add((op.index, "json-not-byte-identical"))
            levels, unknown, failed = self.w.check(op.index, op.output,
                                                   self.references[op.index])
            if levels is not None:
                self.levels[op.index] = levels
            if unknown:
                self.unexpected.add(f"{spec.label}: missed {unknown}, not a known defect")
            self.failed_outputs.update((op.index, label) for label in failed)
            op.output = None  # keep memory flat across passes

    def counts(self):
        levels = self.levels.values()
        return {
            "levels_missed": sum(len(m) for m, _, _ in levels),
            "levels_spurious": sum(len(s) for _, s, _ in levels),
            "levels_inaccurate": sum(len(x) for _, _, x in levels),
            "checks_failed": len(self.failed_outputs),
            "ops_raised": self.raised,
            "ops_attempted": self.attempted,
            "fail_ratio": self.raised / self.attempted,
        }

    def correct(self):
        c = self.counts()
        return (not self.unexpected and c["checks_failed"] == 0
                and c["levels_spurious"] == 0 and c["levels_inaccurate"] == 0)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _per_layer(tracer, scale, traced_ops, untraced_wall):
    """Per-layer metrics of the traced pass, and the base of the one ratio.

    Span times are converted to reference seconds with the pass's scale.
    """
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return totals.get(name, (0, 0.0, 0.0))[1] * scale

    grid = levels = 0
    for op in traced_ops:
        if op.error is None and hasattr(op.output, "det_trace"):
            grid += len(op.output.det_trace)
            levels += sum(op.output.degeneracies)
    refines = calls("spectrum.refine")
    metrics = {
        "spectrum.refine.calls": refines,
        "spectrum.refine.self_s": totals.get("spectrum.refine", (0, 0.0, 0.0))[2] * scale,
        "spectrum.grid_points": grid,
        "spectrum.dropped": sum(op.dropped for op in traced_ops),
        "spectrum.refine_failed": sum(op.refine_failed for op in traced_ops),
        "spectrum.levels_per_refine": levels / refines if refines else 0.0,
        "potential.V.calls": tracer.v_calls,
        "potential.V.points": tracer.v_points,
        "potential.is_even.s": inclusive("potential.is_even"),
        "trace_overhead_s": sum(op.seconds for op in traced_ops) - untraced_wall,
    }
    for kind in ("scan", "full"):
        metrics[f"odesolve.propagate.{kind}.calls"] = calls(f"odesolve.propagate.{kind}")
        metrics[f"odesolve.propagate.{kind}.s"] = inclusive(f"odesolve.propagate.{kind}")
    for name in ("odesolve.integrate", "odesolve.l2_inner", "deficiency.solve_even_odd",
                 "deficiency.solve_orthonormal_pair"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.s"] = inclusive(name)
    for name in ("extmap.forward_map", "extmap.inverse_map", "extmap.forward_map_general",
                 "extmap.check_identities", "bcclassify.classify", "bcclassify.synthesize_from",
                 "jsonio.dumps"):
        metrics[f"{name}.s"] = inclusive(name)
    return metrics, f"levels returned {levels} over {refines} refine calls"


def _report(args, w, values, verdict, pass_walls, n_probes, ratio_note, sampler_share):
    """Human-readable lines: every metric this run measured, with its base."""
    c = verdict.counts()
    n_ref = sum(sum(m for _, m in r[0]) for r in verdict.references if r is not None)
    n_passes = len(pass_walls)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={n_passes} ops/pass={len(w.ops)}")
    for op in w.ops:
        print(f"  op {op.label}")
    notes = {
        "setup_s": f"median of {n_probes} fresh processes, reference seconds",
        "raw_setup_s": "as measured",
        "raw_wall_s": "as measured",
        "wall_s": f"median of {n_passes} untraced passes, reference seconds "
                  f"({min(pass_walls):.3f} .. {max(pass_walls):.3f}); the speed sampler "
                  f"took {100 * sampler_share:.2f}% of the raw op time",
        "op_s_p50": f"median over {n_passes} passes of the median of {len(w.ops)} ops",
        "levels_missed": f"of {n_ref} reference levels",
        "fail_ratio": f"{c['ops_raised']} raised of {c['ops_attempted']} attempted",
        "spectrum.levels_per_refine": ratio_note,
    }
    for name, value in values.items():
        print(f"  {name:42s} {value!s:>24}  {notes.get(name, '')}")
    for idx, (missed, spurious, inaccurate) in sorted(verdict.levels.items()):
        if missed or spurious or inaccurate:
            print(f"  levels of {w.ops[idx].label}: missed {missed} spurious {spurious} "
                  f"inaccurate {inaccurate}")
    for _, reason in sorted(verdict.errors.items()):
        print(f"  raised: {reason}")
    for reason in sorted(verdict.unexpected):
        print(f"  INCORRECT: {reason}")
    for idx, label in sorted(verdict.failed_outputs):
        print(f"  CHECK FAILED: op {idx} output {label}")
    # each op's canonical-JSON digest, so runs with the same seed can be
    # compared byte for byte even when a run makes only one pass
    digests = {w.ops[i].label: d for i, d in sorted(verdict.digests.items())}
    print("counts: " + json.dumps({**c, "digests": digests}, sort_keys=True))


def main(argv=None):
    args = _parse(argv)
    speed = Speed()
    speed.start()
    first_mark = speed.mark()
    if not _import_library():
        speed.stop()
        print(f"perfbench: no saext sources under {ROOT}/src or no tests/oracles.py",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        speed.stop()
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # set-up: imports, inputs and one warm-up op, timed from process start
    w = workloads.build(args.workload, args.seed)
    digest = w.warmup()
    raw_setup = time.perf_counter() - _PROCESS_START
    setup = {"setup_s": raw_setup * speed.scale(first_mark, speed.mark()),
             "raw_setup_s": raw_setup, "digest": digest}
    speed.stop()
    if args.probe_setup:
        print(json.dumps(setup))
        return 0

    spec = _spec()
    probes = [setup] + (_setup_probes(args) if args.trace == 0 else [])
    verdict = _Verdict(w, w.references())
    for i, probe in enumerate(probes):
        if probe["digest"] != setup["digest"]:
            verdict.failed_outputs.add((-1, f"warm-up json differs in fresh process {i}"))
    log = _SpectrumLog()
    logging.getLogger("saext.spectrum").addHandler(log)

    speed.start()
    # op_s_p50 is the median over passes of each pass's median op: pooling
    # all ops instead would put the median between two clusters of op times
    # on extension-algebra, where it jumps with the number of passes
    op_medians, pass_walls, raw_walls = [], [], []
    sampler_s = 0.0
    start = time.perf_counter()
    while not pass_walls or time.perf_counter() - start < args.seconds:
        ops, _ = _run_pass(w, log, speed)
        op_medians.append(statistics.median(op.seconds for op in ops))
        pass_walls.append(sum(op.seconds for op in ops))
        raw_walls.append(sum(op.raw_seconds for op in ops))
        sampler_s += sum(op.sampler_seconds for op in ops)
        verdict.add_pass(ops)
    # the timer's kernel runs inside the timed ops; report its share of them
    sampler_share = sampler_s / sum(raw_walls)

    values, ratio_note = {}, ""
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced_ops, scale = _run_pass(w, log, speed, tracer)
        finally:
            tracer.remove()
        os.makedirs(SPAN_DIR, exist_ok=True)
        tracer.write(os.path.join(SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        values, ratio_note = _per_layer(tracer, scale, traced_ops,
                                        statistics.median(pass_walls))
        verdict.add_pass(traced_ops)
    speed.stop()
    values.update({
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "wall_s": statistics.median(pass_walls),
        "op_s_p50": statistics.median(op_medians),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_setup_s": statistics.median(p["raw_setup_s"] for p in probes),
        "raw_wall_s": statistics.median(raw_walls),
    })
    values.update(verdict.counts())
    _report(args, w, values, verdict, pass_walls, len(probes), ratio_note, sampler_share)
    # untraced runs also record the raw times, so the program's own seconds
    # stay on record beside the corrected ones
    listed = spec["per_layer"] if args.trace else spec["end_to_end"] + [
        m for m in spec["per_layer"] if m["name"] in ("raw_setup_s", "raw_wall_s")]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": verdict.correct(), "attempted": verdict.attempted,
                      "failed": verdict.raised, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
