"""Per-layer times of one genus-10 certificate, SAP rank included.

    python3 perfbench/baseline.py

The full genus-10 certificate is not one of the driven workloads: its SAP
rank alone runs for minutes, longer than a benchmark run may take.  This
script runs it once with the enumerated labels (seed 0), traced with the
benchmark's own spans, in this process, and prints each layer's self time
(CPU seconds) and call count, plus the certificate's CPU and wall time.  It exits 1 if a verdict is
wrong.
"""

from __future__ import annotations

import sys
import time

import worker  # puts the checkout's src/ on sys.path
import certs
from tracing import BOOKKEEPING, Tracer, self_times


def main() -> int:
    perm = list(range(certs.GENUS10.vertices))
    tracer = Tracer(clock=time.process_time)
    tracer.install()
    report = worker.run_map(certs.GENUS10, perm, True, tracer, 0)
    tracer.uninstall()

    selfs = self_times(tracer.spans)
    print(f"{'layer':34} {'self_s':>10} {'calls':>7}")
    for name, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
        if name in ("certificate", BOOKKEEPING):
            continue
        calls = tracer.counts.get(f"{name}.calls", 0)
        print(f"{name:34} {value:10.4f} {calls:7d}")
    print(f"certificate CPU {report['cpu'][0]:.3f} s, wall {report['wall'][0]:.3f} s")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    return 1 if report["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
