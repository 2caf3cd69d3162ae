"""One map certificate, driven by data: `certify_map` checks the coset map
of a `MapSpec` and the operator on its graph against expectations derived
from the spec's group facts and factored characteristic polynomial, so
the layers are checked against each other, not against constants."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from . import cdvcore, exactlinalg, groups, maps
from .exactfield import QuadScalar
from .exactlinalg import IntPolynomial


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


@dataclass(frozen=True)
class MapCertificate:
    """Report blocks, verdicts, stage wall times, and the operator."""

    results: dict
    verdicts: dict
    timings: dict
    operator: cdvcore.SchrodingerOperator


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


@contextmanager
def _stage(timings: dict, name: str):
    start = time.monotonic()
    yield
    timings[name] = time.monotonic() - start


def certify_map(spec: MapSpec, sap: bool = True) -> MapCertificate:
    """Certify the map whose vertices, edges and faces are the cosets of
    <z>, <y*z> and <y>, and shift*I - A on its graph; sap=False skips
    transversality, as does an operator without exactly one negative
    eigenvalue, which fails the inertia verdict.

    With y, z, y*z of orders p, q, r in a group of order N, the map has
    (v, e, f) = (N/q, N/r, N/p), chi = v - e + f, genus 1 - chi/2 and
    type (p, q) on a q-regular graph; the transversality system is
    v(v-1) x (v(v-1)/2 - e)."""
    results, verdicts, timings = {}, {}, {}
    p, q, r = spec.element_orders
    v, e, f = spec.order // q, spec.order // r, spec.order // p
    chi = v - e + f

    with _stage(timings, "enumerate"):
        presentation = groups.parse_presentation(spec.presentation)
        table = groups.coset_enumerate(presentation)
        orders = {
            w: groups.element_order(presentation, presentation.word(w), table=table)
            for w in ("y", "z", "y*z")
        }
    results["group"] = {"order": table.count, "element_orders": orders}
    verdicts["group_order"] = table.count == spec.order
    verdicts["element_orders"] = tuple(orders.values()) == spec.element_orders

    with _stage(timings, "map"):
        surface = maps.genus10_map(presentation, table)
        summary = results["map"] = maps.map_report(surface)
    graph = surface.graph
    verdicts["map_counts"] = (summary["v"], summary["e"], summary["f"]) == (v, e, f)
    verdicts["euler_genus"] = (summary["chi"], summary["genus"]) == (chi, 1 - chi // 2)
    verdicts["rotary_type"] = (summary["p"], summary["q"]) == (p, q)
    verdicts["graph_connected"] = graph.is_connected()
    verdicts["graph_regular"] = graph.regular_degree() == q

    with _stage(timings, "charpoly"):
        adjacency = exactlinalg.ExactMatrix.symmetric(
            graph.n, dict.fromkeys(graph.edges, 1)
        )
        observed = exactlinalg.charpoly(adjacency)
        expected = exactlinalg.poly_expand_product(spec.charpoly)
        spectral = charpoly_inertia(spec.charpoly, spec.shift)
    results["charpoly"] = {"degree": observed.degree, "text": str(observed)}
    verdicts["charpoly_factored"] = observed == expected

    with _stage(timings, "operator"):
        operator = cdvcore.build_shift_operator(graph, spec.shift)
        try:
            inertia = cdvcore.check_membership(operator)
        except cdvcore.NotOneNegative as exc:
            inertia = exc.inertia
        kernel_dim = len(cdvcore.operator_kernel(operator))
    corank = inertia.zeros
    congruence = (inertia.negatives, corank, inertia.positives)
    results["operator"] = {
        "shift": spec.shift.render(),
        "inertia": list(congruence),
        "corank": corank,
        "kernel_dim": kernel_dim,
    }
    # operator.inertia is set only when membership holds.
    verdicts["inertia"] = operator.inertia is not None and congruence == spectral
    verdicts["corank"] = corank == spectral[1] == kernel_dim

    results["transversality"] = "skipped"
    if sap and operator.inertia is not None:
        with _stage(timings, "transversality"):
            cert = cdvcore.check_sap(operator)
        results["transversality"] = dict(rows=cert.rows, cols=cert.cols, rank=cert.rank)
        cols = v * (v - 1) // 2 - e
        verdicts["system_shape"] = (cert.rows, cert.cols) == (v * (v - 1), cols)
        verdicts["full_rank"] = cert.full_rank and cert.rank == cols

    # The point of the whole run: the certified corank beats the surface
    # embedding bound for every surface in the window.
    embedding_bound = maps.heawood_gamma(summary["chi"]) - 1
    window = maps.counterexample_range(corank, base_chi=summary["chi"])
    results["bound"] = {
        "corank": corank,
        "embedding_bound": embedding_bound,
        "chi_window": list(window) if window else None,
    }
    verdicts["exceeds_embedding_bound"] = corank > embedding_bound
    return MapCertificate(results, verdicts, timings, operator)
