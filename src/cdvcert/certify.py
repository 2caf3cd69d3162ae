"""One certificate entry point per verdict family, and the report they fill.

`RunReport` collects one command's results, verdicts and stage wall
times; its `timed(name)` is the package's one stage timer.
`certify_map` checks the coset map of a `MapSpec` and the operator on
its graph against expectations derived from the spec's group facts and
factored characteristic polynomial, so the layers are checked against
each other, not against constants; a verdict that would only re-read a
value another one fixed is left out.  `certify_sap` checks a stored
operator, `certify_bipartite` and `certify_witness` the bipartite
families, and `certify_q1` the seven-vertex eigenvector obstruction;
`certify_heawood` reports the embedding-bound arithmetic and
`certify_coset` a coset enumeration.  Each writes into the report as it
goes, so a fault leaves the report at the stage that raised it, with
every verdict reached before: the kernel hand-over of
`build_bipartite_operator` and the exact witness check of
`build_sap_witness`, which raise on a mismatch, fail at stage `build`."""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from . import cdvcore, check, exactlinalg, groups, maps
from .exactfield import ZERO, QuadScalar
from .exactlinalg import IntPolynomial

SCHEMA_VERSION = 1


@dataclass
class RunReport:
    """Accumulates results, verdicts and stage timings for one command;
    with `progress`, each stage's name goes to stderr as it starts.  Only
    the entry points below fill its fields, so a report starts empty and
    passes once it holds at least one verdict and every verdict is true."""

    command: str
    progress: bool = False
    inputs: dict = field(default_factory=dict, init=False)
    results: dict = field(default_factory=dict, init=False)
    verdicts: dict = field(default_factory=dict, init=False)
    timings: dict = field(default_factory=dict, init=False)
    stage: str = field(default="setup", init=False)

    def verdict(self, name: str, ok: bool) -> bool:
        self.verdicts[name] = bool(ok)
        return bool(ok)

    @property
    def passed(self) -> bool:
        return bool(self.verdicts) and all(self.verdicts.values())

    @contextmanager
    def timed(self, name: str):
        """Run one stage: name it, announce it, and record its wall time
        even when it raises."""
        self.stage = name
        if self.progress:
            print(f"[{name}] ...", file=sys.stderr, flush=True)
        start = time.monotonic()
        try:
            yield
        finally:
            self.timings[name] = time.monotonic() - start

    def to_json_dict(self, with_timings: bool = True) -> dict:
        data = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "verdict": self.verdicts,
            "passed": self.passed,
        }
        if with_timings:
            data["timings"] = {k: round(v, 3) for k, v in self.timings.items()}
        return data


@dataclass(frozen=True)
class MapSpec:
    """A presentation on generators y and z and the facts its map shows."""

    presentation: str
    order: int
    element_orders: tuple  # orders of y, z and y*z
    shift: QuadScalar  # the operator is shift*I - A
    charpoly: tuple  # ((IntPolynomial, multiplicity), ...) of A


# The map of type (3,8) on the genus-10 surface: corank 16 against the
# embedding bound 13.
GENUS10 = MapSpec(
    presentation=groups.GAMMA10_TEXT,
    order=432,
    element_orders=(3, 8, 2),
    shift=1 + QuadScalar.root(7),
    charpoly=(
        (IntPolynomial((-8, 1)), 1),
        (IntPolynomial((4, 1)), 2),
        (IntPolynomial((0, 1)), 3),
        (IntPolynomial((1, 1)), 8),
        (IntPolynomial((3, 1)), 8),
        (IntPolynomial((-6, -2, 1)), 16),
    ),
)


def charpoly_inertia(charpoly, shift: QuadScalar) -> tuple:
    """Inertia of shift*I - A for a symmetric A with this factored
    characteristic polynomial: each root of a linear or real quadratic
    factor counts the sign of shift - root, times the multiplicity.  Any
    other factor raises ValueError."""
    counts = [0, 0, 0]
    for factor, mult in charpoly:
        roots = exactlinalg.factor_roots(factor)
        if not roots:
            raise ValueError(f"factor {factor} has no real root")
        for root in roots:
            counts[(shift - root).sign() + 1] += mult
    return tuple(counts)


def certify_map(spec: MapSpec, report: RunReport) -> cdvcore.SchrodingerOperator:
    """Certify the map whose vertices, edges and faces are the cosets of
    <z>, <y*z> and <y>, and shift*I - A on its graph.  Transversality runs
    on every operator that passes membership; one without exactly one
    negative eigenvalue fails the inertia verdict and skips it.

    With y, z, y*z of orders p, q, r in a group of order N, the map has
    (v, e, f) = (N/q, N/r, N/p), chi = v - e + f, genus 1 - chi/2 and
    type (p, q) on a q-regular graph.  The operator's verdicts set the
    elimination against the charpoly: the congruence inertia against the
    signs of shift - root, and the corank, the kernel's dimension, against
    the multiplicity of the shift as a root; `corank` repeats one count of
    a passing `inertia`, and stays to name the mismatch when membership
    fails.  `full_rank` is check_sap's verdict alone; the shape of its
    system follows from v and e, which `map_counts` checks.  Results,
    verdicts and stage times go into the report; the operator is returned."""
    results, verdict = report.results, report.verdict
    p, q, r = spec.element_orders
    v, e, f = spec.order // q, spec.order // r, spec.order // p
    chi = v - e + f

    with report.timed("enumerate"):
        presentation = groups.parse_presentation(spec.presentation)
        table = groups.coset_enumerate(presentation)
        orders = {
            w: groups.element_order(presentation, presentation.word(w), table=table)
            for w in ("y", "z", "y*z")
        }
    results["group"] = {"order": table.count, "element_orders": orders}
    verdict("group_order", table.count == spec.order)
    verdict("element_orders", tuple(orders.values()) == spec.element_orders)

    with report.timed("map"):
        surface = maps.genus10_map(presentation, table)
        summary = results["map"] = maps.map_report(surface)
    graph = surface.graph
    verdict("map_counts", (summary["v"], summary["e"], summary["f"]) == (v, e, f))
    verdict("euler_genus", (summary["chi"], summary["genus"]) == (chi, 1 - chi // 2))
    verdict("rotary_type", (summary["p"], summary["q"]) == (p, q))
    verdict("graph_connected", graph.is_connected())
    verdict("graph_regular", graph.regular_degree() == q)

    with report.timed("charpoly"):
        adjacency = exactlinalg.ExactMatrix.symmetric(
            graph.n, dict.fromkeys(graph.edges, 1)
        )
        observed = exactlinalg.charpoly(adjacency)
        expected = exactlinalg.poly_expand_product(spec.charpoly)
        spectral = charpoly_inertia(spec.charpoly, spec.shift)
    results["charpoly"] = {"degree": observed.degree, "text": str(observed)}
    verdict("charpoly_factored", observed == expected)

    with report.timed("operator"):
        operator = cdvcore.build_shift_operator(graph, spec.shift)
        try:
            inertia = cdvcore.check_membership(operator)
        except cdvcore.NotOneNegative as exc:
            inertia = exc.inertia
    corank = inertia.zeros
    results["operator"] = {
        "shift": spec.shift.render(),
        "inertia": list(inertia),
        "corank": corank,
    }
    # operator.inertia is set only when membership holds.
    verdict("inertia", operator.inertia is not None and inertia == spectral)
    verdict("corank", corank == spectral[1])

    if operator.inertia is not None:
        with report.timed("transversality"):
            cert = cdvcore.check_sap(operator)
        results["transversality"] = dict(rows=cert.rows, cols=cert.cols, rank=cert.rank)
        verdict("full_rank", cert.full_rank)
    else:
        results["transversality"] = "skipped"

    # The point of the whole run: the certified corank beats the surface
    # embedding bound for every surface in the window.
    embedding_bound = maps.heawood_gamma(summary["chi"]) - 1
    window = maps.counterexample_range(corank, base_chi=summary["chi"])
    results["bound"] = {
        "corank": corank,
        "embedding_bound": embedding_bound,
        "chi_window": list(window) if window else None,
    }
    verdict("exceeds_embedding_bound", corank > embedding_bound)
    return operator


def certify_sap(path: str, report: RunReport) -> None:
    """Certify the operator stored at `path`: membership, then full rank
    of its transversality system, with the witness when the rank falls
    short.  The file is loaded before the first stage, so a missing or
    malformed one is reported at stage `setup`."""
    report.inputs["operator"] = path
    operator = cdvcore.SchrodingerOperator.load(path)
    with report.timed("membership"):
        inertia = cdvcore.check_membership(operator)
    report.results["inertia"] = list(inertia)
    report.results["corank"] = operator.corank
    with report.timed("transversality"):
        cert = cdvcore.check_sap(operator)
    report.results["transversality"] = dict(
        rows=cert.rows, cols=cert.cols, rank=cert.rank, full_rank=cert.full_rank
    )
    if cert.witness is not None:
        report.results["witness"] = cert.witness.to_json_dict()
    report.verdict("full_rank", cert.full_rank)


def certify_bipartite(
    a: int, b: int, s_set, report: RunReport
) -> cdvcore.SchrodingerOperator:
    """Certify eps*1_S - A on K_{a,b}: its constructor checks membership,
    and `kernel_description` that the combinatorial kernel spans ker M.
    What backs that verdict is the constructor, which proves the family
    is the matrix's kept kernel record, so the corank is a + b - 2 - |S|
    by construction.  The verdict itself compares the family with that
    record by coordinates in spans_match (each vector has a unit column),
    and eliminates nothing.  Returns the operator."""
    s_set = frozenset(s_set)
    report.inputs.update(a=a, b=b, s=sorted(s_set))
    with report.timed("build"):
        operator = cdvcore.build_bipartite_operator(a, b, s_set)
    report.results["epsilon"] = str(operator.epsilon)
    report.results["inertia"] = list(operator.inertia)
    report.results["corank"] = operator.corank
    with report.timed("kernel"):
        combinatorial = cdvcore.bipartite_kernel_basis(a, b, s_set)
        computed = exactlinalg.kernel_basis(operator.matrix)
    report.verdict("kernel_description", cdvcore.spans_match(combinatorial, computed))
    return operator


def certify_witness(a: int, b: int, report: RunReport) -> None:
    """Certify that the corank-4 bipartite operator of `build_sap_witness`
    fails transversality: the witness is verified exactly as it is built, and
    check_sap must find the rank short on its own."""
    report.inputs["a"], report.inputs["b"] = a, b
    with report.timed("build"):
        operator, witness = cdvcore.build_sap_witness(a, b)
    report.results["epsilon"] = str(operator.epsilon)
    report.results["corank"] = operator.corank
    report.results["witness"] = witness.to_json_dict()
    with report.timed("transversality"):
        cert = cdvcore.check_sap(operator)
    report.results["transversality"] = dict(
        rank=cert.rank, cols=cert.cols, full_rank=cert.full_rank
    )
    report.verdict("transversality_fails", not cert.full_rank)


def certify_q1(report: RunReport) -> None:
    """Show that no operator of the forced seven-vertex family has the
    all-ones vector as an eigenvector: the first and last row sums differ
    at every admissible parameter choice, because equality would need a
    positive root of x^3 - 6x + 9 = (x + 3)(x^2 - 3x + 3), whose only real
    root is -3.  Each of 18 sample operators has its row gap computed
    from its matrix and checked against (a/3)*cubic(x); a mismatch raises
    RuntimeError.  Results and verdicts go into the report, at stage
    `verify`."""
    with report.timed("verify"):
        results, verdict = report.results, report.verdict
        graph = cdvcore.build_q1_graph()
        results["graph"] = graph.to_json_dict()
        missing = [
            (u, v)
            for u in range(7)
            for v in range(u + 1, 7)
            if not graph.has_edge(u, v)
        ]
        verdict(
            "graph_shape",
            graph.n == 7
            and graph.edge_count == 15
            and graph.is_connected()
            and missing == [(0, 1), (0, 2), (1, 2), (3, 6), (4, 6), (5, 6)],
        )

        cubic = IntPolynomial((9, -6, 0, 1))
        factors = (IntPolynomial((3, 1)), IntPolynomial((3, -3, 1)))
        verdict("cubic_identities", factors[0] * factors[1] == cubic)
        positive_roots = results["positive_roots"] = sum(
            root.sign() > 0
            for factor in factors
            for root in exactlinalg.factor_roots(factor)
        )
        verdict("no_positive_roots", positive_roots == 0)

        samples = results["samples"] = []
        for a in map(Fraction, ("-1", "-1/2", "-2")):
            for x in map(Fraction, ("1/10", "1/2", "1", "2", "3", "5")):
                op = cdvcore.q1_operator(graph, a, x)
                m = op.matrix
                gap = sum((m.entry(0, j) - m.entry(6, j) for j in range(7)), ZERO)
                if gap != QuadScalar(a * cubic(x) / 3):
                    raise RuntimeError(
                        f"row gap {gap.render()} at a = {a}, x = {x} "
                        "contradicts (a/3)*(x^3 - 6x + 9)"
                    )
                samples.append(
                    {
                        "a": str(a),
                        "x": str(x),
                        "row_gap": gap.render(),
                        "gap_nonzero": bool(gap),
                        "pattern_ok": all(
                            m.entry(u, v).sign() < 0 for u, v in graph.edges
                        ),
                    }
                )
        verdict(
            "row_gaps_nonzero",
            all(s["gap_nonzero"] and s["pattern_ok"] for s in samples),
        )


def certify_heawood(chi: int, klein_bottle: bool, mu, report: RunReport) -> None:
    """Report the embedding bound heawood_gamma(chi) and, for a given mu,
    the chi window below chi where the bound stays under mu.  `computed`
    checks the reported value against the formula with check.heawood."""
    report.inputs["chi"] = chi
    report.inputs["klein_bottle"] = klein_bottle
    gamma = maps.heawood_gamma(chi, klein_bottle=klein_bottle)
    report.results["heawood"] = gamma
    if mu is not None:
        report.inputs["mu"] = mu
        window = maps.counterexample_range(mu, base_chi=chi)
        report.results["range"] = list(window) if window else None
        report.verdict("range_nonempty", window is not None)
    report.verdict("computed", check.heawood(chi, gamma, klein_bottle))


def certify_coset(
    presentation: str, subgroup, word, max_cosets: int, report: RunReport
) -> None:
    """Enumerate the cosets of the subgroup generated by the `subgroup`
    words in the presentation text, or the builtin `gamma10`, and report
    their count and, for a given word, the coset that word lands in."""
    subgroup = list(subgroup)
    report.inputs.update(presentation=presentation, subgroup=subgroup, word=word)
    if presentation == "gamma10":
        group = groups.gamma10()
    else:
        group = groups.parse_presentation(presentation)
    table = groups.coset_enumerate(
        group, tuple(group.word(w) for w in subgroup), max_cosets=max_cosets
    )
    report.results["cosets"] = table.count
    if word is not None:
        report.results["coset_of_word"] = table.apply(0, group.word(word))
    report.verdict("enumerated", True)
