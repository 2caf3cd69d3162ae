"""Command-line front end: run the certificate pipelines and emit JSON.

Each subcommand builds a report with a verdicts block; the process exits 0
exactly when every verdict in the report is true.  Reports are
deterministic for fixed inputs once --no-timings is passed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cdvcore, certify, exactlinalg, groups, maps
from .certify import RunReport


def cmd_genus10(args, report: RunReport) -> None:
    certify.certify_map(certify.GENUS10, report, sap=not args.skip_sap)


def cmd_sap(args, report: RunReport) -> None:
    report.inputs["operator"] = args.operator
    operator = cdvcore.SchrodingerOperator.load(args.operator)
    with report.timed("membership"):
        inertia = cdvcore.check_membership(operator)
    report.results["inertia"] = list(inertia)
    report.results["corank"] = operator.corank
    with report.timed("transversality"):
        cert = cdvcore.check_sap(operator)
    report.results["transversality"] = {
        "rows": cert.rows,
        "cols": cert.cols,
        "rank": cert.rank,
        "full_rank": cert.full_rank,
    }
    if cert.witness is not None:
        report.results["witness"] = cert.witness.to_json_dict()
    report.verdict("full_rank", cert.full_rank)


def cmd_bipartite(args, report: RunReport) -> None:
    s_set = frozenset(args.s or [])
    report.inputs["a"], report.inputs["b"] = args.a, args.b
    report.inputs["s"] = sorted(s_set)
    with report.timed("build"):
        operator = cdvcore.build_bipartite_operator(args.a, args.b, s_set)
    target = args.a + args.b - 2 - len(s_set)
    report.results["epsilon"] = str(operator.epsilon)
    report.results["inertia"] = list(operator.inertia)
    report.results["corank"] = operator.corank
    report.verdict("corank_formula", operator.corank == target)
    with report.timed("kernel"):
        combinatorial = cdvcore.bipartite_kernel_basis(args.a, args.b, s_set)
        computed = exactlinalg.kernel_basis(operator.matrix)
    report.results["kernel_dim"] = len(computed)
    report.verdict(
        "kernel_description", cdvcore.spans_match(combinatorial, computed)
    )
    if args.out_operator:
        operator.save(args.out_operator)
        report.results["operator_path"] = args.out_operator


def cmd_witness(args, report: RunReport) -> None:
    report.inputs["a"], report.inputs["b"] = args.a, args.b
    with report.timed("build"):
        operator, witness = cdvcore.build_sap_witness(args.a, args.b)
    report.results["epsilon"] = str(operator.epsilon)
    report.results["corank"] = operator.corank
    report.results["witness"] = witness.to_json_dict()
    report.verdict("corank_four", operator.corank == 4)
    try:
        cdvcore.verify_sap_witness(operator, witness)
        report.verdict("witness_valid", True)
    except ValueError:
        report.verdict("witness_valid", False)
    with report.timed("transversality"):
        cert = cdvcore.check_sap(operator)
    report.results["transversality"] = {
        "rank": cert.rank,
        "cols": cert.cols,
        "full_rank": cert.full_rank,
    }
    report.verdict("transversality_fails", not cert.full_rank)


def cmd_q1(args, report: RunReport) -> None:
    with report.timed("verify"):
        outcome = cdvcore.verify_q1_counterexample()
    report.results["graph"] = cdvcore.build_q1_graph().to_json_dict()
    report.results["positive_roots"] = outcome.positive_roots
    report.results["samples"] = [
        {
            "a": s.a,
            "x": s.x,
            "row_gap": s.row_gap,
            "gap_nonzero": s.gap_nonzero,
            "pattern_ok": s.pattern_ok,
        }
        for s in outcome.samples
    ]
    report.verdict("graph_shape", outcome.graph_ok)
    report.verdict("cubic_identities", outcome.factored_identity and outcome.scaled_identity)
    report.verdict("no_positive_roots", outcome.positive_roots == 0)
    report.verdict(
        "row_gaps_nonzero",
        all(s.gap_nonzero and s.pattern_ok for s in outcome.samples),
    )


def cmd_heawood(args, report: RunReport) -> None:
    report.inputs["chi"] = args.chi
    report.inputs["klein_bottle"] = args.klein_bottle
    value = maps.heawood_gamma(args.chi, klein_bottle=args.klein_bottle)
    report.results["heawood"] = value
    if args.mu is not None:
        report.inputs["mu"] = args.mu
        window = maps.counterexample_range(args.mu, base_chi=args.chi)
        report.results["range"] = list(window) if window else None
        report.verdict("range_nonempty", window is not None)
    report.verdict("computed", True)


def cmd_coset(args, report: RunReport) -> None:
    report.inputs["presentation"] = args.presentation
    report.inputs["subgroup"] = args.subgroup or []
    report.inputs["word"] = args.word
    if args.presentation == "gamma10":
        presentation = groups.gamma10()
    else:
        presentation = groups.parse_presentation(args.presentation)
    subgroup = tuple(presentation.word(w) for w in (args.subgroup or []))
    table = groups.coset_enumerate(
        presentation, subgroup, max_cosets=args.max_cosets
    )
    report.results["cosets"] = table.count
    if args.word is not None:
        report.results["coset_of_word"] = table.apply(
            0, presentation.word(args.word)
        )
    report.verdict("enumerated", True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdvcert",
        description="Exact certificates for spectral graph lower bounds.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--out", help="write the JSON report here instead of stdout"
    )
    common.add_argument(
        "--no-timings",
        action="store_true",
        help="omit wall-clock timings for byte-stable output",
    )
    common.add_argument(
        "--progress",
        action="store_true",
        help="print each stage's name to stderr as it starts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "genus10",
        parents=[common],
        help="run the full genus-10 corank-16 certificate",
    )
    p.add_argument(
        "--skip-sap",
        action="store_true",
        help="stop after the corank stage; skip the transversality check",
    )
    p.set_defaults(func=cmd_genus10)

    p = sub.add_parser("sap", parents=[common], help="transversality check for a stored operator")
    p.add_argument("operator", help="path to an operator JSON file")
    p.set_defaults(func=cmd_sap)

    p = sub.add_parser("bipartite", parents=[common], help="complete bipartite corank family")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument(
        "--s", type=int, nargs="*", help="vertices given a positive diagonal"
    )
    p.add_argument("--out-operator", help="also save the operator JSON here")
    p.set_defaults(func=cmd_bipartite)

    p = sub.add_parser(
        "witness", parents=[common], help="corank-4 bipartite operator with a transversality witness"
    )
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser(
        "q1", parents=[common], help="seven-vertex eigenvector obstruction, fully exact"
    )
    p.set_defaults(func=cmd_q1)

    p = sub.add_parser("heawood", parents=[common], help="surface embedding bound arithmetic")
    p.add_argument("chi", type=int)
    p.add_argument(
        "--klein-bottle", action="store_true", help="use the chi = 0 exception"
    )
    p.add_argument(
        "--mu",
        type=int,
        help="also report the chi window below chi where the bound stays under mu",
    )
    p.set_defaults(func=cmd_heawood)

    p = sub.add_parser("coset", parents=[common], help="coset enumeration for a presentation")
    p.add_argument(
        "presentation",
        help="presentation text '< gens | relators >' or the builtin name gamma10",
    )
    p.add_argument(
        "--subgroup", nargs="*", help="subgroup generator words"
    )
    p.add_argument("--word", help="also report which coset this word lands in")
    p.add_argument(
        "--max-cosets",
        type=int,
        default=100000,
        help=(
            "most coset-table rows the enumeration may allocate (at least 1, "
            "and at most groups.MAX_TABLE_SLOTS over 2 per generator)"
        ),
    )
    p.set_defaults(func=cmd_coset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    report = RunReport(args.command, progress=args.progress)
    try:
        args.func(args, report)
    except (ValueError, RuntimeError, OSError) as exc:
        report.results["error"] = {
            "stage": report.stage,
            "detail": f"{type(exc).__name__}: {exc}",
        }
        report.verdict("completed", False)
    payload = json.dumps(
        report.to_json_dict(with_timings=not args.no_timings),
        indent=2,
        sort_keys=True,
    )
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            print(payload)
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        print(payload)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
