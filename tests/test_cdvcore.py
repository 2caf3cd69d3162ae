from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cdvcert.cdvcore import (
    BadS,
    Disconnected,
    NotOneNegative,
    SchrodingerOperator,
    SignPatternViolation,
    bipartite_kernel_basis,
    build_bipartite_operator,
    build_operator,
    build_q1_graph,
    build_sap_system,
    build_sap_witness,
    build_shift_operator,
    check_membership,
    check_sap,
    complete_bipartite,
    perron_check,
    spans_match,
    verify_q1_counterexample,
    verify_sap_witness,
)
from cdvcert.exactfield import QuadScalar
from cdvcert.exactlinalg import ExactMatrix, _rank_dense, kernel_basis
from cdvcert.maps import SimpleGraph

PATH4 = SimpleGraph(4, ((0, 1), (1, 2), (2, 3)))


def cycle(n):
    return SimpleGraph(
        n, tuple(tuple(sorted((i, (i + 1) % n))) for i in range(n))
    )


# Cycles shifted by an eigenvalue of multiplicity two: corank 2.
CYCLE_SHIFTS = [
    (4, QuadScalar.ZERO),
    (5, QuadScalar(Fraction(-1, 2), Fraction(1, 2), 5)),
    (6, QuadScalar(Fraction(1))),
    (8, QuadScalar.root(2)),
]


def _dense_sap_matrix(op):
    """The transversality system entry by entry from the SapSystem
    docstring: ((u, w), {a, b}) is M[u][t] for t the member of {a, b}
    other than w, and zero when neither member is w."""
    n = op.graph.n
    cols = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if not op.graph.has_edge(a, b)
    ]
    rows = []
    for w in range(n):
        for u in range(n):
            if u == w:
                continue
            row = []
            for a, b in cols:
                if w in (a, b):
                    row.append(op.matrix.entry(u, b if w == a else a))
                else:
                    row.append(QuadScalar.ZERO)
            rows.append(row)
    return ExactMatrix.from_rows(rows)


class TestOperator:
    def test_edges_default_to_minus_one(self):
        op = build_operator(PATH4, [0, 0, 0, 0])
        assert op.matrix.entry(0, 1) == QuadScalar(-1)
        assert op.matrix.entry(0, 2) == QuadScalar.ZERO

    def test_overrides(self):
        op = build_operator(
            PATH4, [0] * 4, overrides={(0, 1): Fraction(-3)}
        )
        assert op.matrix.entry(1, 0) == QuadScalar(-3)

    def test_shift_operator(self):
        op = build_shift_operator(cycle(4), Fraction(2))
        assert op.matrix.entry(2, 2) == QuadScalar(2)

    def test_json_roundtrip(self, tmp_path):
        shift = 1 + QuadScalar.root(7)
        op = build_shift_operator(cycle(5), shift)
        path = tmp_path / "op.json"
        op.save(path)
        loaded = type(op).load(path)
        assert loaded.matrix == op.matrix
        assert loaded.graph == op.graph

    def test_override_keys_must_be_edges(self):
        with pytest.raises(ValueError):
            build_operator(PATH4, [0] * 4, overrides={(0, 3): Fraction(-1)})

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"graph": {"n": 1, "edges": []}},
            [3],
            {
                "graph": {"n": 2, "edges": [[0, 1]]},
                "diagonal": ["0", "0"],
                "off_diagonal": [1],
            },
            {"graph": {"n": 1, "edges": []}, "diagonal": [0.5]},
            {"graph": {"n": 2, "edges": [[0, 1]]}, "diagonal": "00"},
            {"graph": {"n": 2.7, "edges": [[0, 1]]}, "diagonal": ["0", "0"]},
        ],
    )
    def test_malformed_json_dict_raises_value_error(self, data):
        with pytest.raises(ValueError, match="data must be"):
            SchrodingerOperator.from_json_dict(data)


class TestMembership:
    def test_cycle_shift_inertia(self):
        # 0*I - A on C4: eigenvalues -2, 0, 0, 2
        op = build_shift_operator(cycle(4), 0)
        inertia = check_membership(op)
        assert (inertia.negatives, inertia.zeros, inertia.positives) == (1, 2, 1)
        assert op.corank == 2

    def test_positive_edge_entry_rejected(self):
        op = build_operator(PATH4, [0] * 4, overrides={(1, 2): Fraction(2)})
        with pytest.raises(SignPatternViolation):
            check_membership(op)

    def test_zero_edge_entry_rejected(self):
        op = build_operator(PATH4, [0] * 4, overrides={(1, 2): Fraction(0)})
        with pytest.raises(SignPatternViolation):
            check_membership(op)

    def test_too_many_negatives_rejected(self):
        # a large negative shift pushes several eigenvalues below zero
        op = build_shift_operator(cycle(5), Fraction(-3))
        with pytest.raises(NotOneNegative) as err:
            check_membership(op)
        assert err.value.inertia.negatives > 1

    def test_genus10_membership(self, g10_operator):
        inertia = g10_operator.inertia
        assert (inertia.negatives, inertia.zeros, inertia.positives) == (1, 16, 37)
        assert g10_operator.corank == 16


class TestSap:
    def test_complete_graph_is_vacuous(self):
        k4 = SimpleGraph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
        op = build_shift_operator(k4, 1)
        cert = check_sap(op)
        assert cert.cols == 0 and cert.full_rank

    def test_path_second_eigenvalue_shift(self):
        # 2cos(2 pi / 5) = (sqrt(5) - 1) / 2, a simple eigenvalue of P4
        shift = QuadScalar(Fraction(-1, 2), Fraction(1, 2), 5)
        op = build_shift_operator(PATH4, shift)
        check_membership(op)
        assert op.corank == 1
        assert check_sap(op).full_rank

    def test_star_corank_three_fails_with_witness(self):
        op = build_bipartite_operator(1, 4, frozenset())
        assert op.corank == 3
        cert = check_sap(op)
        assert not cert.full_rank
        assert cert.witness is not None
        verify_sap_witness(op, cert.witness)

    def test_witness_verifier_rejects_junk(self):
        op = build_bipartite_operator(1, 4, frozenset())
        with pytest.raises(ValueError):
            verify_sap_witness(op, ExactMatrix.zeros(5, 5))
        eye = ExactMatrix.identity(5)
        with pytest.raises(ValueError):
            verify_sap_witness(op, eye)

    @pytest.mark.parametrize("n,shift", CYCLE_SHIFTS)
    def test_cycle_corank_two_has_sap(self, n, shift):
        op = build_shift_operator(cycle(n), shift)
        check_membership(op)
        assert op.corank == 2
        assert check_sap(op).full_rank

    def test_sparse_system_matches_definition(self):
        operators = []
        for n, shift in CYCLE_SHIFTS:
            op = build_shift_operator(cycle(n), shift)
            check_membership(op)
            operators.append(op)
        # The star has a zero diagonal, so its operator holds zero entries.
        operators.append(build_bipartite_operator(1, 4, frozenset()))
        operators.append(build_sap_witness(3, 4)[0])
        for op in operators:
            system = build_sap_system(op)
            assert all(e for row in system.sparse_rows() for e in row.values())
            dense = _dense_sap_matrix(op)
            assert list(system.sparse_rows()) == dense.sparse_rows()
            fields = dict(vars(op))
            entries = list(op.matrix.entries)
            assert check_sap(op).rank == _rank_dense(dense)
            assert vars(op) == fields and op.matrix.entries == entries


class TestBipartite:
    def test_complete_bipartite_shape(self):
        g = complete_bipartite(2, 3)
        assert g.n == 5 and g.edge_count == 6
        assert not g.has_edge(0, 1) and g.has_edge(0, 2)

    @pytest.mark.parametrize("bad", [(0, 3), (3, 2), (-1, 1)])
    def test_side_sizes_validated(self, bad):
        with pytest.raises(BadS):
            build_bipartite_operator(bad[0], bad[1], frozenset())

    def test_s_cannot_swallow_a_side(self):
        with pytest.raises(BadS):
            build_bipartite_operator(2, 3, frozenset({0, 1}))
        with pytest.raises(BadS):
            build_bipartite_operator(2, 3, frozenset({2, 3, 4}))

    def test_s_must_be_in_range(self):
        with pytest.raises(BadS):
            build_bipartite_operator(2, 3, frozenset({7}))

    def test_corank_formula(self):
        op = build_bipartite_operator(3, 4, frozenset({0, 3}))
        assert op.corank == 3 + 4 - 2 - 2

    def test_kernel_description_matches(self):
        s_set = frozenset({0, 4})
        op = build_bipartite_operator(3, 4, s_set)
        described = bipartite_kernel_basis(3, 4, s_set)
        computed = kernel_basis(op.matrix)
        assert spans_match(described, computed)

    def test_spans_match_rejects_different_spans(self):
        one = [[QuadScalar(1), QuadScalar.ZERO]]
        other = [[QuadScalar.ZERO, QuadScalar(1)]]
        assert not spans_match(one, other)

    @pytest.mark.parametrize("a,b", [(3, 4), (4, 5)])
    def test_witness_construction(self, a, b):
        op, witness = build_sap_witness(a, b)
        assert op.corank == 4
        verify_sap_witness(op, witness)
        cert = check_sap(op)
        assert not cert.full_rank

    def test_witness_needs_room_on_both_sides(self):
        with pytest.raises(BadS):
            build_sap_witness(2, 4)
        with pytest.raises(BadS):
            build_sap_witness(3, 3)


class TestQ1:
    def test_graph_is_the_star_triangle_complement(self):
        g = build_q1_graph()
        assert g.n == 7
        assert g.edge_count == 15
        non_edges = {(0, 1), (0, 2), (1, 2), (3, 6), (4, 6), (5, 6)}
        for i in range(7):
            for j in range(i + 1, 7):
                assert g.has_edge(i, j) == ((i, j) not in non_edges)

    def test_full_verification(self):
        report = verify_q1_counterexample()
        assert report.graph_ok
        assert report.factored_identity and report.scaled_identity
        assert report.positive_roots == 0
        assert len(report.samples) == 18
        assert all(s.gap_nonzero and s.pattern_ok for s in report.samples)
        assert report.passed


class TestPerron:
    def test_regular_graph_ones_vector(self):
        op = build_shift_operator(cycle(4), 0)
        assert perron_check(op, [Fraction(1)] * 4)

    def test_genus10_ones_vector(self, g10_operator):
        ones = [Fraction(1)] * 54
        assert perron_check(g10_operator, ones)

    def test_rejects_disconnected(self):
        g = SimpleGraph(4, ((0, 1), (2, 3)))
        op = build_shift_operator(g, 0)
        with pytest.raises(Disconnected):
            perron_check(op, [Fraction(1)] * 4)

    def test_rejects_sign_changing_vector(self):
        op = build_shift_operator(cycle(4), 0)
        assert not perron_check(op, [1, -1, 1, -1])

    def test_rejects_non_eigenvector(self):
        op = build_shift_operator(PATH4, 0)
        # positive, but P4 is not regular so ones is not an eigenvector
        assert not perron_check(op, [Fraction(1)] * 4)


connected_graphs = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.integers(min_value=0, max_value=n * (n - 1) // 2 - 1),
            max_size=8,
        ),
        st.permutations(list(range(n))),
    )
)


def _assemble_graph(recipe):
    n, extra, order = recipe
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = {tuple(sorted((order[k], order[k + 1]))) for k in range(n - 1)}
    edges.update(all_pairs[k] for k in extra)
    return SimpleGraph(n, tuple(sorted(edges)))


class TestCorankOneProperty:
    @given(
        connected_graphs,
        st.lists(st.integers(min_value=-4, max_value=4), min_size=6, max_size=6),
    )
    @settings(max_examples=50)
    def test_low_corank_implies_full_rank(self, recipe, diag):
        graph = _assemble_graph(recipe)
        op = build_operator(graph, [Fraction(diag[v]) for v in range(graph.n)])
        try:
            check_membership(op)
        except NotOneNegative:
            assume(False)
        assume(op.corank <= 1)
        assert check_sap(op).full_rank
