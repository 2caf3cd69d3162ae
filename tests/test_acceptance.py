"""Acceptance suite: nine binding criteria, one pass/fail line each.

Criteria 2-5 read one genus-10 `certify_map` run, each against its own
expected constants and with the time of its own stage; the others time
their own pipeline.  Every criterion appends a line to the terminal
summary, so a plain `pytest -v` run ends with a readable scoreboard.
Budgets are asserted, not aspirational.
"""

import time
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

import conftest
from oracles import (
    determinant,
    matmul_dense,
    matvec,
    rank_dense,
    rank_markowitz,
    transpose,
)
from cdvcert import cdvcore, exactlinalg, groups, maps
from cdvcert.certify import RunReport, certify_bipartite, certify_q1, certify_witness
from cdvcert.exactfield import QuadScalar
from cdvcert.exactlinalg import ExactMatrix, IntPolynomial
from cdvcert.maps import SimpleGraph


def record(number, label, ok, detail, elapsed, budget=None):
    verdict = "PASS" if ok else "FAIL"
    budget_text = f", budget {budget:g}s" if budget is not None else ""
    line = (
        f"[criterion {number}] {verdict} {label}: {detail} "
        f"({elapsed:.2f}s{budget_text})"
    )
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, line


def test_criterion_1_group_pipeline():
    start = time.monotonic()
    pres = groups.gamma10()
    table = groups.coset_enumerate(pres)
    indices = tuple(
        groups.coset_enumerate(pres, (pres.word(w),)).count
        for w in ("z", "y*z", "y")
    )
    orders = tuple(
        groups.element_order(pres, pres.word(w), table=table)
        for w in ("y", "z", "y*z")
    )
    elapsed = time.monotonic() - start
    ok = table.count == 432 and indices == (54, 216, 144) and orders == (3, 8, 2)
    record(
        1,
        "group pipeline",
        ok,
        f"order={table.count} indices={indices} orders={orders}",
        elapsed,
        budget=10,
    )


def test_criterion_2_map_pipeline(g10_certificate, g10_operator):
    m = g10_certificate.results["map"]
    graph = g10_operator.graph
    ok = (
        g10_certificate.results["group"]["order"] == 432
        and m == {"v": 54, "e": 216, "f": 144, "chi": -18, "genus": 10, "p": 3, "q": 8}
        and (graph.n, graph.edge_count) == (54, 216)
        and g10_certificate.verdicts["graph_connected"]
        and g10_certificate.verdicts["graph_regular"]
    )
    detail = (
        f"v-e+f={m['chi']} genus={m['genus']} type=({m['p']},{m['q']}) "
        "8-regular connected"
    )
    record(2, "map pipeline", ok, detail, g10_certificate.timings["map"], budget=10)


def test_criterion_3_spectral_pipeline(g10_certificate):
    factors = [(-8, 1), (4, 1), (0, 1), (1, 1), (3, 1), (-6, -2, 1)]
    powers = [1, 2, 3, 8, 8, 16]
    expected = exactlinalg.poly_expand_product(
        [(IntPolynomial(c), k) for c, k in zip(factors, powers)]
    )
    ok = g10_certificate.results["charpoly"] == {"degree": 54, "text": str(expected)}
    detail = "charpoly equals the degree-54 factored expansion"
    elapsed = g10_certificate.timings["charpoly"]
    record(3, "spectral pipeline", ok, detail, elapsed, budget=300)


def test_criterion_4_operator_pipeline(g10_certificate):
    op = g10_certificate.results["operator"]
    ok = (
        op["inertia"] == [1, 16, 37]
        and op["corank"] == 16
        and g10_certificate.verdicts["corank"]
    )
    detail = f"inertia={tuple(op['inertia'])} corank={op['corank']} over Q[sqrt(7)]"
    elapsed = g10_certificate.timings["operator"]
    record(4, "operator pipeline", ok, detail, elapsed, budget=600)


def test_criterion_5_transversality_certificate(g10_certificate):
    system = g10_certificate.results["transversality"]
    shape = (system["rows"], system["cols"], system["rank"])
    ok = shape == (2862, 1215, 1215) and g10_certificate.verdicts["full_rank"]
    detail = "system {}x{}, rank {}".format(*shape)
    elapsed = g10_certificate.timings["transversality"]
    record(5, "transversality certificate", ok, detail, elapsed, budget=60)


def test_criterion_6_heawood_arithmetic():
    start = time.monotonic()
    gamma = maps.heawood_gamma(-18)
    window = maps.counterexample_range(16, base_chi=-18)
    elapsed = time.monotonic() - start
    ok = gamma == 14 and window == (-28, -19)
    record(
        6,
        "embedding bound arithmetic",
        ok,
        f"gamma(-18)={gamma} window={window}",
        elapsed,
        budget=5,
    )


def test_criterion_7_seven_vertex_counterexample():
    start = time.monotonic()
    report = RunReport("q1")
    certify_q1(report)
    elapsed = time.monotonic() - start
    samples = report.results["samples"]
    ok = (
        report.passed
        and report.results["positive_roots"] == 0
        and all(s["gap_nonzero"] and s["pattern_ok"] for s in samples)
    )
    record(
        7,
        "eigenvector obstruction",
        ok,
        f"identities hold, positive roots={report.results['positive_roots']}, "
        f"{len(samples)} sample gaps all nonzero",
        elapsed,
        budget=5,
    )


def test_criterion_8_bipartite_constructions():
    start = time.monotonic()
    checked = 0
    ok = True
    for a in range(1, 6):
        for b in range(a, 6):
            for s_set in cdvcore.admissible_subsets(a, b):
                report = RunReport("bipartite")
                certify_bipartite(a, b, s_set, report)
                ok = (
                    ok
                    and report.passed
                    and report.results["corank"] == a + b - 2 - len(s_set)
                )
                checked += 1
    witnesses_ok = True
    for pair in [(3, 4), (4, 5)]:
        report = RunReport("witness")
        certify_witness(*pair, report)
        witnesses_ok = witnesses_ok and report.passed
    elapsed = time.monotonic() - start
    record(
        8,
        "bipartite constructions",
        ok and witnesses_ok and checked == 2247,
        f"{checked} (a,b,S) corank+kernel certificates, "
        f"witnesses for (3,4) and (4,5) verified",
        elapsed,
        budget=60,
    )


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _scalars(d):
    if d == 1:
        return small_fracs.map(QuadScalar)
    return st.builds(lambda p, q: QuadScalar(p, q, d), small_fracs, small_fracs)


connected_graph_recipes = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(min_value=0, max_value=n * (n - 1) // 2 - 1), max_size=10),
        st.permutations(list(range(n))),
    )
)


def _assemble_graph(recipe):
    n, extra, order = recipe
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = {tuple(sorted((order[k], order[k + 1]))) for k in range(n - 1)}
    edges.update(pairs[k] for k in extra)
    return SimpleGraph(n, tuple(sorted(edges)))


@given(
    connected_graph_recipes,
    st.lists(st.integers(min_value=-4, max_value=4), min_size=7, max_size=7),
)
@settings(max_examples=200, deadline=None)
def _corank_le_one_implies_full_rank(recipe, diag):
    graph = _assemble_graph(recipe)
    base = [Fraction(diag[v]) for v in range(graph.n)]
    chosen = None
    for t in range(-12, 13):
        op = cdvcore.build_operator(graph, [x + t for x in base])
        try:
            inertia = cdvcore.check_membership(op)
        except cdvcore.NotOneNegative:
            continue
        if op.corank <= 1:
            chosen = op
            break
    assume(chosen is not None)
    assert cdvcore.check_sap(chosen).full_rank


def _cycle(n):
    return SimpleGraph(
        n, tuple(tuple(sorted((i, (i + 1) % n))) for i in range(n))
    )


CYCLE_SHIFTS = [
    (4, QuadScalar.ZERO),
    (5, QuadScalar(Fraction(-1, 2), Fraction(1, 2), 5)),
    (6, QuadScalar(Fraction(1))),
    (8, QuadScalar.root(2)),
]


bipartite_cases = (
    st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
    .map(lambda ab: (min(ab), max(ab)))
    .filter(lambda ab: ab[0] + ab[1] >= 4)
    .flatmap(
        lambda ab: st.tuples(
            st.just(ab),
            st.permutations(list(range(ab[0] + ab[1]))),
        )
    )
)


@given(bipartite_cases)
@settings(max_examples=100, deadline=None)
def _bipartite_corank_two_has_sap(case):
    (a, b), order = case
    size = a + b - 4
    s_set = frozenset(order[:size])
    side_a = set(range(a))
    side_b = set(range(a, a + b))
    assume(not side_a <= s_set and not side_b <= s_set)
    op = cdvcore.build_bipartite_operator(a, b, s_set)
    assert op.corank == 2
    assert cdvcore.check_sap(op).full_rank


def _symmetric_from(n, vals):
    it = iter(vals)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(it)
    return ExactMatrix.from_rows(rows)


congruence_cases = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.integers(min_value=-4, max_value=4),
            min_size=n * (n + 1) // 2,
            max_size=n * (n + 1) // 2,
        ),
        st.lists(
            st.integers(min_value=-2, max_value=2),
            min_size=n * n,
            max_size=n * n,
        ),
    )
)


@given(congruence_cases)
@settings(max_examples=100, deadline=None)
def _inertia_congruence_invariant(case):
    n, sym_vals, p_vals = case
    matrix = _symmetric_from(n, sym_vals)
    basis_change = ExactMatrix.from_rows(
        [p_vals[i * n : (i + 1) * n] for i in range(n)]
    )
    assume(determinant(basis_change) != QuadScalar.ZERO)
    transformed = matmul_dense(
        matmul_dense(transpose(basis_change), matrix), basis_change
    )
    assert exactlinalg.inertia_symmetric(transformed) == exactlinalg.inertia_symmetric(
        matrix
    )


rank_cases = st.sampled_from([1, 2, 5, 7]).flatmap(
    lambda d: st.tuples(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    ).flatmap(
        lambda shape: st.lists(
            st.lists(_scalars(d), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )
)


@given(rank_cases)
@settings(max_examples=200, deadline=None)
def _rank_oracles_agree(rows):
    matrix = ExactMatrix.from_rows(rows)
    basis = exactlinalg.kernel_basis(matrix)
    r = matrix.cols - len(basis)
    assert rank_markowitz(matrix) == r
    assert rank_dense(matrix) == r
    for vec in basis:
        assert matvec(matrix, vec) == [QuadScalar.ZERO] * matrix.rows


def test_criterion_9_property_suites():
    start = time.monotonic()
    _corank_le_one_implies_full_rank()
    _bipartite_corank_two_has_sap()
    for n, shift in CYCLE_SHIFTS:
        op = cdvcore.build_shift_operator(_cycle(n), shift)
        cdvcore.check_membership(op)
        assert op.corank == 2
        assert cdvcore.check_sap(op).full_rank
    _inertia_congruence_invariant()
    _rank_oracles_agree()
    elapsed = time.monotonic() - start
    record(
        9,
        "property suites",
        True,
        "corank<=1 sap x200, corank-2 families, congruence x100, "
        "rank oracles x200",
        elapsed,
    )
