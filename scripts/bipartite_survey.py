#!/usr/bin/env python3
"""Survey the complete-bipartite corank family.

For each side pair (a, b) and each admissible diagonal support S, build
eps*1_S - A, certify the corank, and check the transversality rank. The
interesting output is the |S| threshold where transversality starts to
fail: corank <= 2 always passes, corank 3 fails exactly when a side has
enough free vertices to host a kernel-aligned perturbation, and corank 4
is where the explicit hand-built witnesses live.
"""

import argparse
from collections import Counter

from cdvcert import cdvcore, certify


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-side", type=int, default=5)
    parser.add_argument(
        "--witnesses",
        action="store_true",
        help="print the explicit failure witnesses where transversality breaks",
    )
    args = parser.parse_args()

    print(f"{'a':>2} {'b':>2} {'|S|':>3} {'count':>5} {'corank':>6} {'sap':>9}")
    for a in range(1, args.max_side + 1):
        for b in range(a, args.max_side + 1):
            outcomes = Counter()
            per_size = {}
            for s_set in cdvcore.admissible_subsets(a, b):
                op = cdvcore.build_bipartite_operator(a, b, s_set)
                cert = cdvcore.check_sap(op)
                key = (len(s_set), op.corank, cert.full_rank)
                outcomes[key] += 1
                per_size.setdefault(key, (s_set, op, cert))
            for (size, corank, full), count in sorted(outcomes.items()):
                verdict = "holds" if full else "fails"
                print(
                    f"{a:>2} {b:>2} {size:>3} {count:>5} {corank:>6} {verdict:>9}"
                )
                if args.witnesses and not full:
                    s_set, op, cert = per_size[(size, corank, full)]
                    print(f"      e.g. S = {sorted(s_set)}, witness:")
                    w = cert.witness
                    for i in range(w.rows):
                        row = " ".join(
                            f"{w.entry(i, j).render():>6}" for j in range(w.cols)
                        )
                        print(f"        {row}")

    print()
    print("hand-built corank-4 witnesses:")
    for a, b in [(3, 4), (4, 5)]:
        report = certify.RunReport("witness")
        certify.certify_witness(a, b, report)
        sap = report.results["transversality"]
        print(
            f"  ({a},{b}): corank {report.results['corank']}, system rank "
            f"{sap['rank']}/{sap['cols']}, "
            + ("verified violation" if report.passed else "NO violation")
        )


if __name__ == "__main__":
    main()
