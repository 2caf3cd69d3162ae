"""One map certificate, driven by data, and the report it fills.

`RunReport` collects one command's results, verdicts and stage wall
times; its `timed(name)` is the package's one stage timer.
`certify_map` checks the coset map of a `MapSpec` and the operator on
its graph against expectations derived from the spec's group facts and
factored characteristic polynomial, so the layers are checked against
each other, not against constants.  It writes into the report as it
goes, so a fault leaves the report at the stage that raised it, with
every verdict reached before."""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import cdvcore, exactlinalg, groups, maps
from .exactfield import QuadScalar
from .exactlinalg import IntPolynomial

SCHEMA_VERSION = 1


@dataclass
class RunReport:
    """Accumulates results, verdicts and stage timings for one command;
    with `progress`, each stage's name goes to stderr as it starts."""

    command: str
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    stage: str = "setup"
    progress: bool = False

    def verdict(self, name: str, ok: bool) -> bool:
        self.verdicts[name] = bool(ok)
        return bool(ok)

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

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


def certify_map(
    spec: MapSpec, report: RunReport, sap: bool = True
) -> cdvcore.SchrodingerOperator:
    """Certify the map whose vertices, edges and faces are the cosets of
    <z>, <y*z> and <y>, and shift*I - A on its graph; sap=False skips
    transversality, as does an operator without exactly one negative
    eigenvalue, which fails the inertia verdict.

    With y, z, y*z of orders p, q, r in a group of order N, the map has
    (v, e, f) = (N/q, N/r, N/p), chi = v - e + f, genus 1 - chi/2 and
    type (p, q) on a q-regular graph; the transversality system is
    v(v-1) x (v(v-1)/2 - e).  Results, verdicts and stage times go into
    the report; the operator is returned."""
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
        kernel_dim = len(cdvcore.operator_kernel(operator))
    corank = inertia.zeros
    results["operator"] = {
        "shift": spec.shift.render(),
        "inertia": list(inertia),
        "corank": corank,
        "kernel_dim": kernel_dim,
    }
    # operator.inertia is set only when membership holds.
    verdict("inertia", operator.inertia is not None and inertia == spectral)
    verdict("corank", corank == spectral[1] == kernel_dim)

    if sap and operator.inertia is not None:
        with report.timed("transversality"):
            cert = cdvcore.check_sap(operator)
        results["transversality"] = dict(rows=cert.rows, cols=cert.cols, rank=cert.rank)
        cols = v * (v - 1) // 2 - e
        verdict("system_shape", (cert.rows, cert.cols) == (v * (v - 1), cols))
        verdict("full_rank", cert.full_rank and cert.rank == cols)
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
