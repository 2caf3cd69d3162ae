#!/usr/bin/env python3
"""Survey the complete-bipartite corank family.

For each side pair (a, b) and each admissible diagonal support S, build
eps*1_S - A, certify the corank, and check the transversality rank. The
interesting output is the |S| threshold where transversality starts to
fail, which the following lemma fixes exactly; corank 4 is where the
explicit hand-built witnesses live.

Lemma: let m_A and m_B be the vertices of each side outside S. The
transversality system has nullity max(0, m_A(m_A - 3)/2) +
max(0, m_B(m_B - 3)/2). An admissible X is zero on every edge, so zero
between the sides. For u on one side and w on the other, (MX)_uw is minus
the sum of X_tw over t on w's side, so each column of a side's block sums
to 0; for u != w on one side, (MX)_uw = eps*1_S(u)*X_uw, so the block
vanishes on the rows and columns in S. What is left on a side is the
symmetric m x m matrices with zero diagonal and zero row sums, the kernel
of the vertex-edge incidence map of K_m, which has rank m for m >= 3
(K_m is connected and not bipartite): dimension m(m - 1)/2 - m, and 0 for
m <= 2. So transversality fails exactly when a side keeps four or more
vertices outside S. tests/test_cdvcore.py checks the formula on every
case this survey prints at its default size.
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
