"""One benchmark worker process: set up, run certificates, report JSON.

Started by run.py, one worker at a time:

    python3 perfbench/worker.py --workload NAME --seed N [--index I]
        [--sweeps K] [--trace 0|1] [--count] [--probe]

Map workloads run exactly one certificate per worker, in a fresh
interpreter as the CLI does.  The bipartite workload runs cases in one
process, as scripts/bipartite_survey.py does: --sweeps whole sweeps when
untraced, one untraced sweep followed by one traced sweep with --trace 1,
and one sweep with --count.  --trace 1 records spans and call counts;
--count records only the QuadScalar and Fraction construction counts.  With
--probe the worker stops right after set-up.

The only line on stdout is a JSON object.  Each certificate is timed both
as CPU time of this process (time.process_time, all threads) and as wall
time.  Set-up ends at "ready": "ready_cpu" is the CPU time this process
has used by then, interpreter start included, and "ready" the
time.perf_counter() reading.  On Linux that clock is CLOCK_MONOTONIC,
shared by all processes, so the parent subtracts its own reading from
before the spawn to get the set-up wall time.

Untraced workers also sample the machine's speed (see Speed).  Sampling
time is left out of "ready_cpu", of each certificate's CPU time and of
"elapsed_cpu".  "setup_scale" scales the set-up CPU time, "scale" holds
one factor per certificate, and "sampling_cpu" is the CPU time the
sampling took in the whole worker.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

MAP_WORKLOADS = {
    # name: (spec attribute in certs, run the SAP rank)
    "klein_full": ("KLEIN", True),
    "genus10_skip_sap": ("GENUS10", False),
}
BIPARTITE = "bipartite_sap_sweep"

# The machine is shared, and its speed changes from second to second: a
# loop of pure-Python arithmetic runs up to 1.75 times faster at some
# moments than at others, and the certificates speed up with it.  So an
# untraced worker samples the speed every SAMPLE_EVERY_S seconds, from a
# SIGALRM handler that times the loop, and scales each CPU time it reports
# by the mean speed sampled while that time ran, relative to REFERENCE_S:
# CPU seconds at one fixed speed.  The loop calls no cdvcert code, so a
# change to the library moves only the times being scaled.  (ITIMER_PROF
# would space the samples in CPU time, but while it is armed Linux updates
# the process CPU clock only at scheduler ticks.)
REFERENCE_S = 0.0006  # the loop's CPU time at the fixed speed
SAMPLE_EVERY_S = 0.02
SAMPLE_WINDOW_S = 0.1  # samples this close to a span of CPU time scale it


def _reference_loop() -> int:
    acc = 0
    for i in range(1, 60):
        q = Fraction(i, i + 1) * Fraction(2 * i + 1, 3 * i + 2) + Fraction(1, i + 3)
        acc += q.numerator % 7
    return acc


class Speed:
    """Samples of the machine's speed, taken while started."""

    def __init__(self):
        self.times = []  # process_time() at each sample
        self.ratios = []  # REFERENCE_S / the loop's CPU time
        self.spent = 0.0  # CPU seconds spent sampling

    def _sample(self, signum, frame) -> None:
        start = time.process_time()
        _reference_loop()
        took = time.process_time() - start
        self.spent += took
        self.times.append(start)
        self.ratios.append(REFERENCE_S / took)

    def start(self) -> None:
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def ratio(self, begin: float, end: float) -> float:
        """Mean speed ratio sampled within SAMPLE_WINDOW_S of the span
        [begin, end] of process_time()."""
        lo = bisect.bisect_left(self.times, begin - SAMPLE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + SAMPLE_WINDOW_S)
        return statistics.fmean(self.ratios[lo:hi])


SPEED = Speed()  # started only in untraced workers


def _describe(exc: BaseException) -> str:
    return f"exception {type(exc).__name__}: {exc}"


def run_map(spec, perm, with_sap, tracer, unit):
    import certs

    if tracer is not None:
        tracer.unit = unit
        sid = tracer.begin("certificate")
    start, start_cpu, spent = time.perf_counter(), time.process_time(), SPEED.spent
    try:
        failed = certs.map_certificate(spec, perm, with_sap)
    except Exception as exc:  # an escaped exception is a failed certificate
        failed = [_describe(exc)]
    end_cpu = time.process_time()
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.end(sid)
    return {
        "cpu": [end_cpu - start_cpu - (SPEED.spent - spent)],
        "cpu_spans": [(start_cpu, end_cpu)],
        "wall": [wall],
        "failures": [failed] if failed else [],
    }


def run_cases(cases, tracer=None, sweeps=1):
    """Run whole sweeps over the cases, in order, and check the sweep
    totals after each sweep."""
    import certs

    cpu, cpu_spans, wall, failures, sweep_errors = [], [], [], [], []
    began, began_cpu, began_spent = (
        time.perf_counter(), time.process_time(), SPEED.spent
    )
    for sweep in range(sweeps):
        full = deficient = 0
        for i, case in enumerate(cases):
            if tracer is not None:
                tracer.unit = sweep * len(cases) + i
                sid = tracer.begin("certificate")
            start, start_cpu, spent = (
                time.perf_counter(), time.process_time(), SPEED.spent
            )
            try:
                failed, full_rank = certs.bipartite_certificate(case)
            except Exception as exc:
                failed, full_rank = [_describe(exc)], None
            end_cpu = time.process_time()
            cpu.append(end_cpu - start_cpu - (SPEED.spent - spent))
            cpu_spans.append((start_cpu, end_cpu))
            wall.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.end(sid)
            if failed:
                failures.append([list(case[:3]) + [list(case[3])]] + failed)
            if case[0] == "sweep":
                full += full_rank is True
                deficient += full_rank is False
        totals = (full, deficient)
        if totals != (certs.SWEEP_FULL_RANK, certs.SWEEP_DEFICIENT):
            sweep_errors.append(f"sweep totals {totals}")
    elapsed_cpu = time.process_time() - began_cpu - (SPEED.spent - began_spent)
    return {
        "elapsed": time.perf_counter() - began,
        "elapsed_cpu": elapsed_cpu,
        "cpu": cpu,
        "cpu_spans": cpu_spans,
        "wall": wall,
        "failures": failures,
        "sweeps": sweeps,
        "sweep_errors": sweep_errors,
    }


def instrument(tracer, spans: bool) -> None:
    if spans:
        tracer.install()
    else:
        tracer.count_constructors()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--sweeps", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--count", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    # Measure the checkout's own source tree, never an installed copy.
    if not os.path.isdir(os.path.join(ROOT, "src", "cdvcert")):
        print(f"no cdvcert sources under {ROOT}/src", file=sys.stderr)
        return 2
    # The counting tracer would count the sampling loop's Fractions, and
    # the spans would take its time as their own: traced runs do not sample.
    sampling = not (args.trace or args.count)
    if sampling:
        SPEED.start()
    import certs
    from tracing import Tracer

    if args.workload == BIPARTITE:
        cases = certs.bipartite_cases(args.seed)
    else:
        spec_name, with_sap = MAP_WORKLOADS[args.workload]
        spec = getattr(certs, spec_name)
        perm = certs.relabelling(args.seed, args.index, spec.vertices)
    ready_cpu = time.process_time()
    report = {"ready": time.perf_counter(), "ready_cpu": ready_cpu - SPEED.spent}
    if args.probe:
        SPEED.stop()
        report["setup_scale"] = SPEED.ratio(0.0, ready_cpu)
        print(json.dumps(report), flush=True)
        return 0

    tracer = None if sampling else Tracer(clock=time.process_time)
    spans = tracer if args.trace else None
    if args.workload == BIPARTITE and sampling:
        report.update(run_cases(cases, sweeps=args.sweeps))
    elif args.workload == BIPARTITE:
        if args.trace:
            report["untraced"] = run_cases(cases)
            del report["untraced"]["cpu_spans"]
        instrument(tracer, args.trace)
        report.update(run_cases(cases, spans))
    else:
        if tracer is not None:
            instrument(tracer, args.trace)
        report.update(run_map(spec, perm, with_sap, spans, args.index))
    cpu_spans = report.pop("cpu_spans")
    if sampling:
        SPEED.stop()
        report["setup_scale"] = SPEED.ratio(0.0, ready_cpu)
        report["scale"] = [SPEED.ratio(b, e) for b, e in cpu_spans]
        report["sampling_cpu"] = SPEED.spent
    else:
        tracer.uninstall()
        report["trace"] = {
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
            "maxima": tracer.maxima,
            "absent": tracer.absent,
        }
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
