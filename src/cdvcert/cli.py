"""Command-line front end: parse arguments, run one certificate, emit JSON.

Each subcommand but `heawood` and `coset` fills its `RunReport` through
one entry point of `certify`.  The process exits 0 exactly when every
verdict is true; a fault fails the report at the stage that raised it.
Reports are byte-stable for fixed inputs under --no-timings."""

from __future__ import annotations

import argparse
import json
import sys

from . import certify, groups, maps
from .certify import RunReport


def cmd_genus10(args, report: RunReport) -> None:
    certify.certify_map(certify.GENUS10, report, sap=not args.skip_sap)


def cmd_sap(args, report: RunReport) -> None:
    certify.certify_sap(args.operator, report)


def cmd_bipartite(args, report: RunReport) -> None:
    operator = certify.certify_bipartite(args.a, args.b, args.s or (), report)
    if args.out_operator:
        operator.save(args.out_operator)
        report.results["operator_path"] = args.out_operator


def cmd_witness(args, report: RunReport) -> None:
    certify.certify_witness(args.a, args.b, report)


def cmd_q1(args, report: RunReport) -> None:
    with report.timed("verify"):
        certify.certify_q1(report)


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
