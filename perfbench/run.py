"""Benchmark of the cdvcert certificates.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each was chosen):

  klein_full           the whole map certificate, SAP rank included, on
                       Klein's genus-3 quartic over Q[sqrt 7]
  genus10_skip_sap     the genus-10 certificate stopped before the SAP
                       system, as `cdvcert genus10 --skip-sap`
  bipartite_sap_sweep  every admissible (a, b, S) with a <= b <= 5 plus the
                       two hand-built witnesses, as scripts/bipartite_survey.py

The full genus-10 certificate is not a workload: its SAP rank runs for
minutes.  perfbench/baseline.py runs it once, traced.

The loop is closed: one client (this process) and one worker process at a
time.  Map workloads start a fresh worker per certificate; the bipartite
workload runs its cases in one worker.  A seed other than 0 relabels the
map vertices (a fresh relabelling per certificate) and shuffles the
bipartite cases; seed 0 keeps the enumerated labels and order.

--trace 0 measures the end-to-end metrics on a fixed set of inputs sized
to take about --seconds: input_count() turns --seconds into a number of
map certificates or of whole bipartite sweeps, by a cost per input
measured once, so a faster or slower program is timed on the same inputs.
Set-up and certificate times are CPU seconds of the worker process: on a
shared machine the wall clock also counts the time other tenants hold the
CPU.  The CPU times are scaled to one fixed machine speed, sampled while
they run (worker.Speed), because on such a machine the speed itself
changes from second to second.  The unscaled CPU and wall-clock figures
are printed as well, not gated.

--trace 1 wraps the public entry points of groups, maps, exactfield,
exactlinalg and cdvcore and reports per-layer metrics per unit of work,
in unscaled CPU seconds.  On the map workloads the unit is a certificate,
over TRACE_INPUTS inputs each run untraced, traced and with constructor
counting.  On the bipartite workload the unit is a sweep: one untraced,
one traced and one counting sweep.

Every certificate's verdicts are checked.  The last stdout line is a JSON
object with keys correct, attempted, failed and metrics.  The lines before
it give each metric by name and unit, the tail percentile and its sample
count, the failed share, and the seed, Python version, CPU count and load
average.  Results and spans are also written to .bench_out/.  The exit
code is 0 when every verdict is right and 1 when some are wrong.  It is 2,
with no result printed, when a worker cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from summary import MIN_SAMPLES, median, tail
from tracing import self_times
from worker import BIPARTITE, MAP_WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = (*MAP_WORKLOADS, BIPARTITE)
SETUP_PROBES = 9  # extra set-ups on the bipartite workload, which has one worker
TRACE_INPUTS = 5
# Wall seconds per input on the reference machine (2 shared vCPUs,
# CPython 3.11): one map certificate in a fresh worker, one bipartite sweep.
INPUT_COST_S = {"klein_full": 0.9, "genus10_skip_sap": 1.7, BIPARTITE: 30.0}
RUN_LIMIT_S = 170  # no run may take longer; workers past it are killed

LAYER_TIMES = (
    "exactlinalg.rank",
    "exactlinalg.kernel_basis",
    "exactlinalg.charpoly",
    "exactlinalg.inertia_symmetric",
    "cdvcore.check_membership",
    "cdvcore.build_bipartite_operator",
    "cdvcore.spans_match",
    "cdvcore.check_sap",
    "cdvcore.build_sap_system",
    "maps.has_edge",
    "maps.genus10_map",
    "maps.build_map_from_cosets",
    "groups.coset_enumerate",
    "groups.element_order",
)
LAYER_COUNTS = (
    "exactlinalg.rank.calls",
    "exactlinalg.rank.input_nnz",
    "exactlinalg.rank.rows_consumed_floor64",
    "exactfield.quadscalar.constructed",
    "exactfield.fraction.constructed",
    "exactlinalg.kernel_basis.calls",
    "exactlinalg.inertia_symmetric.calls",
    "cdvcore.check_sap.calls",
    "cdvcore.check_sap.witnesses",
    "cdvcore.sap_system.slots",
    "cdvcore.sap_system.nnz",
    "maps.has_edge.calls",
    "groups.coset_enumerate.calls",
)


class WorkerFailed(RuntimeError):
    """A worker exited abnormally, printed no report or ran out of time."""


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Runner:
    """Starts the workers of one run, one at a time, within RUN_LIMIT_S."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def spawn(self, *extra: str) -> dict:
        """Run one worker to completion.  Adds its set-up wall time and the
        CPU time of its whole process, interpreter start included."""
        command = [
            sys.executable, WORKER,
            "--workload", self.workload, "--seed", str(self.seed), *extra,
        ]
        cpu_before = _children_cpu()
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                command,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=max(1.0, RUN_LIMIT_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"run limit of {RUN_LIMIT_S} s reached") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerFailed(
                f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        report = json.loads(lines[-1])
        report["setup_wall_s"] = report["ready"] - start
        report["process_cpu_s"] = _children_cpu() - cpu_before
        return report


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def _collect(reports) -> dict:
    return {
        "failures": [f for r in reports for f in r["failures"]],
        "sweep_errors": [e for r in reports for e in r.get("sweep_errors", ())],
    }


def input_count(workload: str, seconds: float) -> int:
    """Map certificates, or bipartite sweeps, that one run times."""
    fewest = 1 if workload == BIPARTITE else MIN_SAMPLES
    return max(fewest, round(seconds / INPUT_COST_S[workload]))


def end_to_end(runner: Runner, seconds: float) -> dict:
    count = input_count(runner.workload, seconds)
    if runner.workload == BIPARTITE:
        probes = [runner.spawn("--probe") for _ in range(SETUP_PROBES)]
        report = runner.spawn("--sweeps", str(count))
        reports = [report]
        setups = probes + reports
        raw_run_cpu = report["elapsed_cpu"]
        run_cpu = raw_run_cpu * statistics.fmean(report["scale"])
        run_wall = report["elapsed"]
    else:
        start = time.perf_counter()
        reports = [runner.spawn("--index", str(j)) for j in range(count)]
        run_wall = time.perf_counter() - start
        setups = reports
        busy = [r["process_cpu_s"] - r["sampling_cpu"] for r in reports]
        raw_run_cpu = sum(busy)
        run_cpu = sum(b * r["scale"][0] for b, r in zip(busy, reports))
    raw = [t for r in reports for t in r["cpu"]]
    cpu = [t * k for r in reports for t, k in zip(r["cpu"], r["scale"])]
    wall = [t for r in reports for t in r["wall"]]
    value, percentile, samples = tail(cpu)
    metrics = {
        "setup_s": (median(r["ready_cpu"] * r["setup_scale"] for r in setups), "s"),
        "certificate_cpu_s.p50": (median(cpu), "s"),
        "certificate_cpu_s.tail": (value, "s"),
        "certificates_per_cpu_s": (len(cpu) / run_cpu, "1/s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in reports) / 1024, "MB"),
    }
    notes = [
        f"certificate_cpu_s.tail is p{percentile:.1f} of {samples} samples",
        f"setup_s is the median over {len(setups)} set-ups",
        f"speed scale, median over the run: "
        f"{median(k for r in reports for k in r['scale'])}",
        f"CPU time before scaling, not gated: setup_s = "
        f"{median(r['ready_cpu'] for r in setups)} s, certificate_cpu_s.p50 = "
        f"{median(raw)} s, certificates_per_cpu_s = {len(raw) / raw_run_cpu} 1/s",
        f"wall clock, not gated: setup_s = "
        f"{median(r['setup_wall_s'] for r in setups)} s, certificate_s.p50 = "
        f"{median(wall)} s, certificates_per_s = {len(wall) / run_wall} 1/s",
    ]
    return {
        "attempted": len(cpu),
        "metrics": metrics,
        "notes": notes,
        **_collect(reports),
    }


def per_layer(runner: Runner) -> dict:
    if runner.workload == BIPARTITE:
        report = runner.spawn("--trace", "1")
        counting = [runner.spawn("--count")]
        untraced = report["untraced"]
        traced_reports = [report]
        traced_cpu = report["cpu"]
        overhead = median(traced_cpu) - median(untraced["cpu"])
        units = report["sweeps"]
        checked = [untraced, report] + counting
    else:
        runs = [
            (
                runner.spawn("--index", str(j)),
                runner.spawn("--index", str(j), "--trace", "1"),
                runner.spawn("--index", str(j), "--count"),
            )
            for j in range(TRACE_INPUTS)
        ]
        traced_reports = [t for _, t, _ in runs]
        counting = [c for _, _, c in runs]
        traced_cpu = [t["cpu"][0] for t in traced_reports]
        overhead = median(t["cpu"][0] - u["cpu"][0] for u, t, _ in runs)
        units = TRACE_INPUTS
        checked = [r for triple in runs for r in triple]

    selfs: dict = {}
    counts: dict = {}
    maxima: dict = {}
    absent = set()
    for r in traced_reports:
        for name, value in self_times(r["trace"]["spans"]).items():
            selfs[name] = selfs.get(name, 0.0) + value
    for r in traced_reports + counting:
        trace = r["trace"]
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in trace["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), value)
        absent.update(trace["absent"])

    metrics = {}
    for name in LAYER_TIMES:
        metrics[f"{name}.self_s"] = (selfs.get(name, 0.0) / units, "s")
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0) / units, "count")
    sap_calls = counts.get("cdvcore.check_sap.calls", 0)
    metrics["cdvcore.check_sap.full_rank_share"] = (
        counts.get("cdvcore.check_sap.full_rank", 0) / sap_calls if sap_calls else 0.0,
        "share",
    )
    metrics["exactlinalg.kernel_basis.max_entry_bits"] = (
        maxima.get("exactlinalg.kernel_basis.max_entry_bits", 0),
        "bits",
    )
    metrics["trace.certificate_cpu_s.p50"] = (median(traced_cpu), "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    unit = "sweep" if runner.workload == BIPARTITE else "certificate"
    notes = [
        f"per-layer values are per {unit}, over {units} traced {unit}(s); "
        f"cdvcore.check_sap.full_rank_share has base cdvcore.check_sap.calls "
        f"= {sap_calls}",
    ]
    notes.append(
        "exactlinalg.rank.rows_consumed_floor64 is the rows fed to rank before "
        "full rank, rounded down to a multiple of 64: the progress callback "
        "reports only every 64th row"
    )
    if absent:
        notes.append(f"absent from the library, reported as 0: {sorted(absent)}")
    return {
        "attempted": sum(len(r["cpu"]) for r in checked),
        "metrics": metrics,
        "notes": notes,
        "spans": [r["trace"]["spans"] for r in traced_reports],
        **_collect(checked),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment(args.seed)
    runner = Runner(args.workload, args.seed)
    try:
        result = per_layer(runner) if args.trace else end_to_end(runner, args.seconds)
    except WorkerFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2

    failed = len(result["failures"])
    correct = failed == 0 and not result["sweep_errors"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"environment {json.dumps(env)}")
    print(
        f"certificates {result['attempted']}, failed {failed}, "
        f"failed_share {failed / result['attempted']}"
    )
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}")
    for error in result["sweep_errors"]:
        print(f"FAILED {error}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value} {unit}")
    for note in result["notes"]:
        print(note)

    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(
            {
                "environment": env,
                "correct": correct,
                "attempted": result["attempted"],
                "failed": failed,
                "failures": result["failures"],
                "sweep_errors": result["sweep_errors"],
                "metrics": metrics,
                "notes": result["notes"],
            },
            fh,
            indent=1,
        )
    if "spans" in result:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(
                {
                    "environment": env,
                    "clock": "time.process_time of each worker",
                    "fields": ["id", "name", "start", "end", "parent", "unit"],
                    "workers": result["spans"],
                },
                fh,
            )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
