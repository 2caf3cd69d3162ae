"""The certificates the benchmark times, each with its own output checks.

A certificate returns the names of the checks it failed (empty when every
verdict is right).  Library calls go through module attributes at call
time, so the tracer's wrappers see them.

Map certificates follow `cdvcert genus10`: enumerate the group and element
orders, build the map, then, on a relabelled graph, the adjacency matrix,
its characteristic polynomial, the shifted operator's membership and
kernel, and optionally the transversality (SAP) rank.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from cdvcert import cdvcore, exactlinalg, groups, maps
from cdvcert.exactfield import QuadScalar
from cdvcert.exactlinalg import IntPolynomial


@dataclass(frozen=True)
class MapSpec:
    """One rotary triangulation and every fact its certificate must show."""

    presentation: object  # () -> Presentation
    surface: object  # (presentation, table) -> CombinatorialMap
    vertices: int
    order: int
    element_orders: tuple  # orders of y, z, y*z
    counts: tuple  # (v, e, f)
    chi: int
    genus: int
    rotary_type: tuple
    charpoly: tuple  # ((IntPolynomial, multiplicity), ...)
    shift: object  # () -> QuadScalar
    inertia: tuple
    embedding_bound: int
    exceeds_bound: bool  # corank above the embedding bound
    system: tuple  # SAP system (rows, cols); full column rank expected


def _coset_surface(presentation, table):
    return maps.build_map_from_cosets(
        table,
        [presentation.word("z")],
        [presentation.word("y*z")],
        [presentation.word("y")],
    )


GENUS10 = MapSpec(
    presentation=lambda: groups.gamma10(),
    surface=lambda p, t: maps.genus10_map(p, t),
    vertices=54,
    order=432,
    element_orders=(3, 8, 2),
    counts=(54, 216, 144),
    chi=-18,
    genus=10,
    rotary_type=(3, 8),
    charpoly=(
        (IntPolynomial((-8, 1)), 1),
        (IntPolynomial((4, 1)), 2),
        (IntPolynomial((0, 1)), 3),
        (IntPolynomial((1, 1)), 8),
        (IntPolynomial((3, 1)), 8),
        (IntPolynomial((-6, -2, 1)), 16),
    ),
    shift=lambda: 1 + QuadScalar.root(7),
    inertia=(1, 16, 37),
    embedding_bound=13,
    exceeds_bound=True,
    system=(2862, 1215),
)

# Klein's quartic as the (3,7) triangulation of genus 3: PSL(2,7) with
# y of order 3 (faces), z of order 7 (vertices) and y*z of order 2
# (edges).  Its graph has spectrum 7, -1^7, (+-sqrt 7)^8, so the shift
# sqrt(7) I - A lands in the same field as the genus-10 operator with
# corank 8, and its 552x192 SAP system is small enough to certify in
# well under a second.
KLEIN_TEXT = "< y, z | y^3, z^7, (y*z)^2, (z^-1*y^-1*z*y)^4 >"

KLEIN = MapSpec(
    presentation=lambda: groups.parse_presentation(KLEIN_TEXT),
    surface=_coset_surface,
    vertices=24,
    order=168,
    element_orders=(3, 7, 2),
    counts=(24, 84, 56),
    chi=-4,
    genus=3,
    rotary_type=(3, 7),
    charpoly=(
        (IntPolynomial((-7, 1)), 1),
        (IntPolynomial((1, 1)), 7),
        (IntPolynomial((-7, 0, 1)), 8),
    ),
    shift=lambda: QuadScalar.root(7),
    inertia=(1, 8, 15),
    embedding_bound=8,
    exceeds_bound=False,
    system=(552, 192),
)


def relabelling(seed: int, index: int, n: int) -> list:
    """Vertex permutation for certificate `index` of a run: the identity
    for seed 0, otherwise a shuffle drawn from (seed, index)."""
    perm = list(range(n))
    if seed:
        random.Random(f"{seed}/{index}").shuffle(perm)
    return perm


def relabel(graph, perm):
    edges = tuple(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in graph.edges
    )
    return maps.SimpleGraph(graph.n, edges)


def map_certificate(spec: MapSpec, perm, with_sap: bool) -> list:
    failed = []

    def check(name, ok):
        if not ok:
            failed.append(name)

    presentation = spec.presentation()
    table = groups.coset_enumerate(presentation)
    orders = tuple(
        groups.element_order(presentation, presentation.word(w), table=table)
        for w in ("y", "z", "y*z")
    )
    check("group_order", table.count == spec.order)
    check("element_orders", orders == spec.element_orders)

    surface = spec.surface(presentation, table)
    summary = maps.map_report(surface)
    check("map_counts", (summary["v"], summary["e"], summary["f"]) == spec.counts)
    check("euler_genus", (summary["chi"], summary["genus"]) == (spec.chi, spec.genus))
    check("rotary_type", (summary["p"], summary["q"]) == spec.rotary_type)

    graph = relabel(surface.graph, perm)
    n = graph.n
    check("graph_connected", graph.is_connected())
    check("graph_regular", graph.regular_degree() == spec.rotary_type[1])
    adjacency = exactlinalg.ExactMatrix.from_rows(
        [[1 if graph.has_edge(i, j) else 0 for j in range(n)] for i in range(n)]
    )
    observed = exactlinalg.charpoly(adjacency)
    check(
        "charpoly_factored",
        observed == exactlinalg.poly_expand_product(spec.charpoly),
    )

    operator = cdvcore.build_shift_operator(graph, spec.shift())
    inertia = cdvcore.check_membership(operator)
    kernel_dim = len(exactlinalg.kernel_basis(operator.matrix))
    check(
        "inertia",
        (inertia.negatives, inertia.zeros, inertia.positives) == spec.inertia,
    )
    check("corank", operator.corank == spec.inertia[1] == kernel_dim)
    bound = maps.heawood_gamma(summary["chi"]) - 1
    check("embedding_bound", bound == spec.embedding_bound)
    check("exceeds_embedding_bound", (operator.corank > bound) == spec.exceeds_bound)

    if with_sap:
        cert = cdvcore.check_sap(operator)
        check("system_shape", (cert.rows, cert.cols) == spec.system)
        check("full_rank", cert.full_rank and cert.rank == spec.system[1])
    return failed


# ---------------------------------------------------------------------------
# The bipartite sweep of scripts/bipartite_survey.py.

MAX_SIDE = 5
WITNESS_SIDES = ((3, 4), (4, 5))
# Totals over one sweep of the admissible cases with a <= b <= MAX_SIDE.
SWEEP_FULL_RANK = 1690
SWEEP_DEFICIENT = 557


def admissible_subsets(a: int, b: int):
    n = a + b
    side_a = frozenset(range(a))
    side_b = frozenset(range(a, n))
    for size in range(n - 1):
        for combo in combinations(range(n), size):
            s_set = frozenset(combo)
            if not (side_a <= s_set or side_b <= s_set):
                yield s_set


def bipartite_cases(seed: int) -> list:
    """One sweep: every admissible (a, b, S), then the hand-built
    witnesses; shuffled by any seed but 0."""
    cases = [
        ("sweep", a, b, tuple(sorted(s_set)))
        for a in range(1, MAX_SIDE + 1)
        for b in range(a, MAX_SIDE + 1)
        for s_set in admissible_subsets(a, b)
    ]
    cases += [("witness", a, b, ()) for a, b in WITNESS_SIDES]
    if seed:
        random.Random(seed).shuffle(cases)
    return cases


def expected_full_rank(a: int, b: int, s_set) -> bool:
    """Transversality fails exactly when one side keeps at least four
    vertices out of S.  Those cases fail by the hand-built construction:
    two disjoint difference vectors x, y on four such vertices are kernel
    vectors, and x y^T + y x^T is a witness supported inside that
    independent side.  That every other case with a <= b <= MAX_SIDE
    holds is what the exact sweep finds."""
    free_a = a - sum(1 for v in s_set if v < a)
    free_b = b - sum(1 for v in s_set if v >= a)
    return max(free_a, free_b) < 4


def bipartite_certificate(case) -> tuple:
    """(failed check names, full rank verdict) for one case."""
    kind, a, b, s_set = case
    failed = []

    def check(name, ok):
        if not ok:
            failed.append(name)

    if kind == "witness":
        operator, witness = cdvcore.build_sap_witness(a, b)
        cdvcore.verify_sap_witness(operator, witness)
        check("corank", operator.corank == 4)
        expect_full = False
    else:
        operator = cdvcore.build_bipartite_operator(a, b, s_set)
        check("corank_formula", operator.corank == a + b - 2 - len(s_set))
        computed = exactlinalg.kernel_basis(operator.matrix)
        combinatorial = cdvcore.bipartite_kernel_basis(a, b, s_set)
        check("kernel_description", cdvcore.spans_match(combinatorial, computed))
        expect_full = expected_full_rank(a, b, s_set)
    cert = cdvcore.check_sap(operator)
    check("sap_verdict", cert.full_rank == expect_full)
    if not cert.full_rank:
        check("witness_present", cert.witness is not None)
        if cert.witness is not None:
            cdvcore.verify_sap_witness(operator, cert.witness)
    return failed, cert.full_rank
