from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from oracles import (
    build_sap_system,
    free_columns_dense,
    rank_dense,
    spans_match_by_rank,
)
from cdvcert import cdvcore, exactfield, exactlinalg
from cdvcert.cdvcore import (
    MAX_OPERATOR_VERTICES,
    BadS,
    NotOneNegative,
    SchrodingerOperator,
    SignPatternViolation,
    bipartite_kernel_basis,
    build_bipartite_operator,
    build_operator,
    build_q1_graph,
    build_sap_witness,
    build_shift_operator,
    check_membership,
    check_sap,
    complete_bipartite,
    spans_match,
    verify_q1_counterexample,
    verify_sap_witness,
)
from cdvcert.certify import MapSpec, RunReport, certify_map, charpoly_inertia
from cdvcert.exactfield import QuadScalar, parse_scalar
from cdvcert.exactlinalg import ExactMatrix, IntPolynomial, kernel_basis
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
    """The transversality system entry by entry from the docstring of
    oracles.build_sap_system: ((u, w), {a, b}) is M[u][t] for t the member
    of {a, b} other than w, and zero when neither member is w."""
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

    @pytest.mark.parametrize(
        "diagonal,weights", [([0] * 3, [-1] * 3), ([0] * 4, [-1] * 2)]
    )
    def test_lengths_must_match_the_graph(self, diagonal, weights):
        with pytest.raises(ValueError, match="length"):
            SchrodingerOperator(PATH4, diagonal, weights)

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
            {"graph": {"n": 3, "edges": [[0.5, 1]]}, "diagonal": ["0"] * 3},
            {"graph": {"n": 3, "edges": [[True, 2]]}, "diagonal": ["0"] * 3},
            {
                "graph": {"n": 2, "edges": [[0, 1]]},
                "diagonal": ["0", "0"],
                "off_diagonal": {"0_0,1": "-2"},
            },
            {
                "graph": {"n": 2, "edges": [[0, 1]]},
                "diagonal": ["0", "0"],
                "off_diagonal": {" +0 , 1 ": "-2"},
            },
            {
                "graph": {"n": 2, "edges": [[0, 1]]},
                "diagonal": ["0", "0"],
                "off_diagonal": {"0,1": "-2", "1,0": "-3"},
            },
            {
                "graph": {"n": MAX_OPERATOR_VERTICES + 1, "edges": []},
                "diagonal": ["0"] * (MAX_OPERATOR_VERTICES + 1),
            },
            {"graph": {"n": 1, "edges": []}, "field_d": "x", "diagonal": ["0"]},
            {"graph": {"n": 1, "edges": []}, "field_d": True, "diagonal": ["sqrt(7)"]},
            {"graph": {"n": 1, "edges": []}, "field_d": 5, "diagonal": ["sqrt(7)"]},
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
            verify_sap_witness(op, ExactMatrix.symmetric(5, {}))
        eye = ExactMatrix.symmetric(5, {(i, i): 1 for i in range(5)})
        with pytest.raises(ValueError):
            verify_sap_witness(op, eye)

    @pytest.mark.parametrize("n,shift", CYCLE_SHIFTS)
    def test_cycle_corank_two_has_sap(self, n, shift):
        op = build_shift_operator(cycle(n), shift)
        check_membership(op)
        assert op.corank == 2
        assert check_sap(op).full_rank

    def test_prime_dividing_the_radicand_is_skipped(self, monkeypatch):
        # C12 shifted by its eigenvalue sqrt(3): corank 2.  sqrt(3) has only
        # the root 0 mod 3, so the dual is ranked mod 11, where 5^2 = 3.
        # The cycle runs 0-...-8-11-9-10, which keeps the free columns 10
        # and 11 of M apart, so one dual unknown is left to rank.
        order = list(range(9)) + [11, 9, 10]
        edges = sorted(tuple(sorted(e)) for e in zip(order, order[1:] + order[:1]))
        op = build_shift_operator(SimpleGraph(12, tuple(edges)), QuadScalar.root(3))
        check_membership(op)
        assert op.corank == 2 and _unknowns_left(op) == 1
        monkeypatch.setattr(cdvcore, "PRIMES", (3, 11))
        cert = check_sap(op)
        assert cert.full_rank and cert.prime == 11
        monkeypatch.setattr(cdvcore, "PRIMES", (3,))
        cert = check_sap(op)
        assert cert.full_rank and cert.prime is None

    def test_stored_kernel_is_reused(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            cdvcore, "kernel_basis", lambda m: calls.append(m) or kernel_basis(m)
        )
        op = build_shift_operator(cycle(8), QuadScalar.root(2))
        check_membership(op)
        basis = cdvcore.operator_kernel(op)
        assert op.kernel is basis and cdvcore.operator_kernel(op) is basis
        assert check_sap(op).full_rank
        assert calls == [op.matrix]

    def test_a_non_canonical_kernel_is_refused(self):
        # A rescaled basis spans the same kernel, but its row at a free
        # column is no longer a unit vector, so S[a][b] = X[f_a][f_b] fails.
        op = build_shift_operator(cycle(8), QuadScalar.root(2))
        check_membership(op)
        basis = cdvcore.operator_kernel(op)
        op.kernel = [[2 * x for x in basis[0]]] + basis[1:]
        with pytest.raises(RuntimeError, match="not canonical"):
            check_sap(op)

    @pytest.mark.parametrize(
        "op",
        [
            build_shift_operator(PATH4, QuadScalar(Fraction(-1, 2), Fraction(1, 2), 5)),
            build_bipartite_operator(2, 2, {0}),
            build_bipartite_operator(1, 4, {1, 2}),
        ],
    )
    def test_corank_one_ranks_nothing(self, monkeypatch, op):
        # The one unknown S[0][0] is forced to zero by the free diagonal.
        def refuse(*args):
            raise AssertionError("dual ranked at corank 1")

        monkeypatch.setattr(cdvcore, "full_rank_prime", refuse)
        check_membership(op)
        assert op.corank == 1
        cert, calls = _check_sap_counting(op, cdvcore.PRIMES)
        assert cert.full_rank and cert.prime is None and calls == 1

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
            system, _ = build_sap_system(op)
            dense = _dense_sap_matrix(op)
            assert system == dense
            fields = dict(vars(op))
            row_dicts = [dict(row) for row in op.matrix.row_dicts]
            assert check_sap(op).rank == rank_dense(dense)
            assert vars(op) == fields and list(op.matrix.row_dicts) == row_dicts

    def test_klein_dual_matches_the_primal(self, monkeypatch):
        op = certify_map(KLEIN, RunReport("klein"), sap=False)
        assert op.corank == 8
        system, _ = build_sap_system(op)
        ranked = _record_ranked_columns(monkeypatch)
        cert = check_sap(op)
        assert (cert.rows, cert.cols) == (system.rows, system.cols) == (552, 192)
        assert cert.rank == system.cols - len(kernel_basis(system)) == 192
        assert cert.full_rank and cert.prime is not None
        assert cert.dual_shape == (24 + 84, 36)
        # One column per non-adjacent pair of free columns of M is ranked.
        assert ranked == [_unknowns_left(op)] and ranked[0] < 36

    def test_genus10_primal_agrees_with_the_dual(self, monkeypatch, g10_operator):
        ranked = _record_ranked_columns(monkeypatch)
        modular = check_sap(g10_operator)
        monkeypatch.setattr(cdvcore, "PRIMES", ())
        exact = check_sap(g10_operator)
        assert modular.prime is not None and exact.prime is None
        assert ranked[0] == ranked[1] < 136
        for cert in (modular, exact):
            assert cert.full_rank and cert.dual_shape == (54 + 216, 136)
            assert (cert.rows, cert.cols, cert.rank) == (2862, 1215, 1215)
        system, _ = build_sap_system(g10_operator)
        assert (system.rows, system.cols) == (2862, 1215)
        assert system.cols - len(kernel_basis(system)) == 1215

    @pytest.mark.parametrize(
        "u,v",
        [
            # Full rank, but the dual has rank 9 of 10 mod 3.
            ((1, 1, 1), (1, 2, 3)),
            # Full rank; K has entries -1/3, but its rows are cleared of
            # denominators first, and the dual keeps full rank mod 3.
            ((1, 1, 1), (3, 1, 1)),
            # A four-leaf star: rank deficient, and K has entries -1/3.
            ((1,), (3, 1, 1, 1)),
        ],
    )
    def test_unlucky_prime_takes_the_exact_fallback(self, u, v):
        op = _rank_one_bipartite(u, v)
        check_membership(op)
        system, col_pairs = build_sap_system(op)
        primal_kernel = kernel_basis(system)
        if not primal_kernel:
            assert check_sap(op).prime is not None
        cert, calls = _check_sap_counting(op, (3,))
        assert (cert.prime is None) == (v != (3, 1, 1))
        _assert_matches_the_primal(op, cert, calls, system, col_pairs, primal_kernel)


def _record_ranked_columns(monkeypatch) -> list:
    """Wrap cdvcore.full_rank_prime so that each call records the column
    count of the dual it ranks; the list of counts is returned."""
    ranked = []
    full_rank_prime = cdvcore.full_rank_prime

    def recording(pairs, cols, d, primes):
        ranked.append(cols)
        return full_rank_prime(pairs, cols, d, primes)

    monkeypatch.setattr(cdvcore, "full_rank_prime", recording)
    return ranked


def _check_sap_counting(op, primes) -> tuple:
    """check_sap with PRIMES set to primes, and the number of
    kernel_basis and pair_kernel_basis calls it made."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cdvcore, "PRIMES", primes)
        for name in ("kernel_basis", "pair_kernel_basis"):
            kernel = getattr(cdvcore, name)
            mp.setattr(
                cdvcore, name, lambda *a, f=kernel: calls.append(a) or f(*a)
            )
        return check_sap(op), len(calls)


def _assert_matches_the_primal(op, cert, calls, system, col_pairs, primal_kernel):
    """The certificate agrees with the primal oracle system in shape, rank,
    verdict and witness, which is the first canonical primal kernel vector.
    dual_shape is set for every corank >= 1.  With no dual unknown left to
    rank, full rank holds by proof: prime is None and K is the only
    kernel call.  Otherwise prime is None exactly when the dual kernel
    was computed exactly: a second kernel call, pair_kernel_basis."""
    c = op.corank
    assert (cert.rows, cert.cols) == (system.rows, system.cols)
    assert cert.rank == system.cols - len(primal_kernel)
    assert cert.full_rank == (not primal_kernel)
    if c:
        assert cert.dual_shape == (op.graph.n + op.graph.edge_count, c * (c + 1) // 2)
        left = _unknowns_left(op)
        if not left:
            assert cert.full_rank and cert.prime is None
        assert calls == (2 if cert.prime is None and left else 1)
    else:
        assert cert.dual_shape is None and calls == 0
    if cert.prime is not None:
        assert cert.full_rank
    if primal_kernel:
        x = ExactMatrix.symmetric(op.graph.n, dict(zip(col_pairs, primal_kernel[0])))
        assert cert.witness == x
        verify_sap_witness(op, cert.witness)
    else:
        assert cert.witness is None


def _unknowns_left(op):
    """The dual unknowns check_sap ranks: one per pair of free columns of
    M that are not adjacent in the graph."""
    free = free_columns_dense(op.matrix)
    return sum(
        not op.graph.has_edge(u, v)
        for i, u in enumerate(free)
        for v in free[i + 1 :]
    )


def _rank_one_bipartite(u, v):
    """Zero diagonal and weight -u_i * v_j on the edges of K_{a,b}:
    corank a + b - 2 and one negative eigenvalue."""
    a = len(u)
    overrides = {(i, a + j): -x * y for i, x in enumerate(u) for j, y in enumerate(v)}
    return build_operator(complete_bipartite(a, len(v)), [0] * (a + len(v)), overrides)


@st.composite
def sap_operators(draw):
    """Operators over Q or Q[sqrt 5] of three kinds, most with one
    negative eigenvalue:
    - rank-one weights on K_{a,b} with a zero diagonal: corank a + b - 2;
    - a diagonal that puts a chosen vector x into the kernel: corank >= 1;
    - the same with x positive, which makes M positive semidefinite,
      then one diagonal entry lowered: corank 0 as a rule.
    Half of them get a weighted path Laplacian as a second component:
    disconnected, with one more kernel vector and no negative
    eigenvalue."""
    d = draw(st.sampled_from([1, 5]))
    positive = st.builds(
        lambda a, b: QuadScalar(a, b, d),
        st.integers(1, 3),
        st.integers(0, 3 if d == 5 else 0),
    )
    kind = draw(st.sampled_from(["rank_one", "kernel", "lowered"]))
    if kind == "rank_one":
        b = draw(st.integers(1, 4))
        a = draw(st.integers(1, min(b, 3)))
        u = draw(st.lists(positive, min_size=a, max_size=a))
        v = draw(st.lists(positive, min_size=b, max_size=b))
        op = _rank_one_bipartite(u, v)
        graph, diagonal = op.graph, list(op.diagonal)
        weights = dict(zip(graph.edges, op.weights))
    else:
        graph = _assemble_graph(draw(connected_graphs))
        weights = {e: -draw(positive) for e in graph.edges}
        values = [1, 2, 3] if kind == "lowered" else [-2, -1, 1, 2, 3]
        x = draw(st.lists(st.sampled_from(values), min_size=graph.n, max_size=graph.n))
        # Row i of M*x vanishes: diagonal_i * x_i = -sum_j w_ij * x_j.
        diagonal = [QuadScalar.ZERO] * graph.n
        for (i, j), w in weights.items():
            diagonal[i] -= w * x[j] / x[i]
            diagonal[j] -= w * x[i] / x[j]
        if kind == "lowered":
            diagonal[0] -= draw(positive)
    if draw(st.booleans()):
        m = draw(st.integers(1, 3))
        # Weighted Laplacian of a path: positive semidefinite, kernel the
        # constant vector.
        n = graph.n
        path = {(n + k, n + k + 1): -draw(positive) for k in range(m - 1)}
        laplacian = [QuadScalar.ZERO] * m
        for (i, j), w in path.items():
            laplacian[i - n] -= w
            laplacian[j - n] -= w
        graph = SimpleGraph(n + m, graph.edges + tuple(path))
        diagonal = diagonal + laplacian
        weights.update(path)
    return build_operator(graph, diagonal, weights)


# Klein's quartic as the (3,7) triangulation of genus 3: PSL(2,7) with y
# of order 3 (faces), z of order 7 (vertices) and y*z of order 2 (edges).
# Its graph has spectrum 7, -1^7, (+-sqrt 7)^8, so sqrt(7) I - A has
# corank 8, no more than the genus-3 embedding bound 8.
KLEIN = MapSpec(
    presentation="< y, z | y^3, z^7, (y*z)^2, (z^-1*y^-1*z*y)^4 >",
    order=168,
    element_orders=(3, 7, 2),
    shift=QuadScalar.root(7),
    charpoly=(
        (IntPolynomial((-7, 1)), 1),
        (IntPolynomial((1, 1)), 7),
        (IntPolynomial((-7, 0, 1)), 8),
    ),
)


def failed_verdicts(result):
    return {name for name, ok in result.verdicts.items() if not ok}


class TestCertifyMap:
    def test_klein_holds_every_verdict_but_the_bound(self):
        result = RunReport("klein")
        certify_map(KLEIN, result)
        assert failed_verdicts(result) == {"exceeds_embedding_bound"}
        assert result.results["operator"]["inertia"] == [1, 8, 15]

    @pytest.mark.parametrize(
        "field,value,flipped",
        [
            ("order", 169, {"group_order"}),
            # Another root of the charpoly: corank 8 again, but 16 negatives.
            ("shift", -QuadScalar.root(7), {"inertia"}),
            (
                "charpoly",
                KLEIN.charpoly[:1] + ((IntPolynomial((1, 1)), 6),) + KLEIN.charpoly[2:],
                {"charpoly_factored", "inertia"},
            ),
        ],
    )
    def test_a_wrong_spec_field_flips_its_verdict(self, field, value, flipped):
        result = RunReport("klein")
        certify_map(replace(KLEIN, **{field: value}), result)
        assert failed_verdicts(result) == flipped | {"exceeds_embedding_bound"}

    def test_a_wrong_shift_reports_the_one_congruence_inertia(self, monkeypatch):
        # NotOneNegative carries the inertia, so the failed membership
        # check is the only elimination.
        calls = []
        inertia_symmetric = exactlinalg.inertia_symmetric

        def counting(matrix):
            calls.append(matrix)
            return inertia_symmetric(matrix)

        monkeypatch.setattr(exactlinalg, "inertia_symmetric", counting)
        monkeypatch.setattr(cdvcore, "inertia_symmetric", counting)
        spec = replace(KLEIN, shift=-QuadScalar.root(7))
        result = RunReport("klein")
        certify_map(spec, result)
        assert len(calls) == 1
        assert result.results["operator"]["inertia"] == [16, 8, 0]
        assert charpoly_inertia(spec.charpoly, spec.shift) == (16, 8, 0)
        assert not result.verdicts["inertia"]

    def test_charpoly_inertia(self):
        double_root = ((IntPolynomial((1, 2, 1)), 2), (IntPolynomial((-3, 1)), 1))
        assert charpoly_inertia(double_root, QuadScalar(-1)) == (1, 4, 0)
        for coeffs in [(1, 0, 1), (0, 0, 0, 1), (5,)]:
            with pytest.raises(ValueError):
                charpoly_inertia(((IntPolynomial(coeffs), 1),), QuadScalar(0))


class TestDualAgainstPrimal:
    @given(sap_operators())
    @settings(max_examples=150)
    def test_verdict_and_rank_match_the_primal_oracle(self, op):
        try:
            check_membership(op)
        except NotOneNegative:
            assume(False)
        system, col_pairs = build_sap_system(op)
        primal_kernel = kernel_basis(system)
        modular, calls = _check_sap_counting(op, cdvcore.PRIMES)
        exact, exact_calls = _check_sap_counting(op, ())
        event(f"corank {min(op.corank, 2)}{'+' if op.corank >= 2 else ''}")
        event("connected" if op.graph.is_connected() else "disconnected")
        event("mod p" if modular.prime else "exact dual")
        assert exact.prime is None
        _assert_matches_the_primal(op, modular, calls, system, col_pairs, primal_kernel)
        _assert_matches_the_primal(
            op, exact, exact_calls, system, col_pairs, primal_kernel
        )

    @given(sap_operators())
    @settings(max_examples=100)
    def test_every_primal_kernel_vector_solves_mx_zero(self, op):
        # The system fixes only the off-diagonal entries of M*X; the
        # diagonal ones vanish for every admissible X, on any graph.
        system, col_pairs = build_sap_system(op)
        for vec in kernel_basis(system):
            x = ExactMatrix.symmetric(op.graph.n, dict(zip(col_pairs, vec)))
            verify_sap_witness(op, x)

    def test_corank_zero_builds_no_system(self, monkeypatch):
        op = build_operator(PATH4, [-1, 2, 2, 2])
        check_membership(op)
        assert op.corank == 0

        def refuse(*args):
            raise AssertionError("elimination run for corank 0")

        monkeypatch.setattr(cdvcore, "kernel_basis", refuse)
        monkeypatch.setattr(cdvcore, "pair_kernel_basis", refuse)
        cert = check_sap(op)
        assert cert.full_rank and (cert.rows, cert.cols, cert.rank) == (12, 3, 3)
        assert cert.prime is None and cert.dual_shape is None


@st.composite
def bipartite_cases(draw):
    """Admissible (a, b, S) with a <= b <= 6: S leaves a vertex on each side."""
    b = draw(st.integers(1, 6))
    a = draw(st.integers(1, b))
    on_a = draw(st.sets(st.integers(0, a - 1), max_size=a - 1))
    on_b = draw(st.sets(st.integers(a, a + b - 1), max_size=b - 1))
    return a, b, frozenset(on_a | on_b)


def _scalars(d, nonzero=False):
    fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    radical = fracs if d > 1 else st.just(0)
    scalars = st.builds(lambda a, b: QuadScalar(a, b, d), fracs, radical)
    return scalars.filter(bool) if nonzero else scalars


def _times(left, right):
    return [
        [sum((x * y for x, y in zip(row, col)), QuadScalar.ZERO) for col in zip(*right)]
        for row in left
    ]


@st.composite
def _invertible(draw, k, d):
    """L*U with L unit lower triangular and U upper triangular with a
    nonzero diagonal: a random invertible k x k matrix."""
    entry, pivot = _scalars(d), _scalars(d, nonzero=True)
    one, zero = QuadScalar(1), QuadScalar.ZERO
    lower = [
        [draw(entry) if j < i else one if j == i else zero for j in range(k)]
        for i in range(k)
    ]
    upper = [
        [draw(pivot) if j == i else draw(entry) if j > i else zero for j in range(k)]
        for i in range(k)
    ]
    return _times(lower, upper)


@st.composite
def span_pairs(draw):
    """Two families of vectors over Q or Q[sqrt 5], and True or False when
    their spans are known to match or to differ (None when random)."""
    d = draw(st.sampled_from([1, 5]))
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["random", "recombined", "different"]))

    def family(k):
        return draw(
            st.lists(
                st.lists(_scalars(d), min_size=n, max_size=n), min_size=k, max_size=k
            )
        )

    if kind == "random":
        return family(draw(st.integers(0, 3))), family(draw(st.integers(0, 3))), None
    if kind == "recombined":
        vectors = family(draw(st.integers(1, 3)))
        return vectors, _times(draw(_invertible(len(vectors), d)), vectors), True
    # The rows of an invertible matrix are independent, so two different
    # sets of k of them span different k-dimensional subspaces.
    rows = draw(_invertible(n, d))
    k = draw(st.integers(1, n - 1))
    picks = st.sets(st.integers(0, n - 1), min_size=k, max_size=k)
    one = draw(picks)
    other = draw(picks.filter(lambda s: s != one))
    recombined = _times(draw(_invertible(k, d)), [rows[i] for i in sorted(other)])
    return [rows[i] for i in sorted(one)], recombined, False


class TestBipartite:
    @given(bipartite_cases())
    @settings(max_examples=60)
    def test_fixed_epsilon_gives_the_corank_formula(self, case):
        a, b, s_set = case
        op = build_bipartite_operator(a, b, s_set)
        assert op.epsilon == Fraction(1, 4 * (a + b))
        assert op.inertia.negatives == 1
        assert op.corank == a + b - 2 - len(s_set)

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

    @given(span_pairs())
    @settings(max_examples=150)
    def test_spans_match_agrees_with_the_rank_oracle(self, case):
        one, other, expected = case
        event(f"spans known to match: {expected}")
        verdict = spans_match(one, other)
        assert verdict == spans_match_by_rank(one, other)
        if expected is not None:
            assert verdict is expected

    @pytest.mark.parametrize("a,b", [(3, 4), (4, 5)])
    def test_witness_construction(self, a, b):
        op, witness = build_sap_witness(a, b)
        assert op.corank == 4
        verify_sap_witness(op, witness)
        cert = check_sap(op)
        assert not cert.full_rank

    def test_verifier_rejects_a_product_nonzero_only_at_sqrt_d(self):
        # X = W + sqrt(2)*E with W a witness and E the unit at a non-edge of
        # the independent large side: X is admissible, and M*X = sqrt(2)*M*E
        # has a zero rational part.
        op, witness = build_sap_witness(4, 5)
        unit = ExactMatrix.symmetric(9, {(5, 6): QuadScalar.root(2)})
        x = ExactMatrix(
            9, [{**w, **e} for w, e in zip(witness.row_dicts, unit.row_dicts)]
        )
        product = op.matrix.matmul(x)
        assert all(e.a == 0 for row in product.row_dicts for e in row.values())
        with pytest.raises(ValueError, match="M\\*X is not zero"):
            verify_sap_witness(op, x)

    def test_verifying_a_witness_builds_no_scalar(self, monkeypatch):
        # M*X = 0 is decided on integer pairs, so a valid witness costs no
        # QuadScalar; a return to per-entry scalar products fails here.
        op, witness = build_sap_witness(4, 5)
        built = []
        init = QuadScalar.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(QuadScalar, "__init__", counting_init)
        verify_sap_witness(op, witness)
        assert built == []
        op.matrix.matmul(op.matrix)
        assert built

    def test_kernel_and_sap_check_build_no_fraction(self, monkeypatch):
        # Scalars are ints over a common denominator, so the kernel mod p,
        # the dual, its exact kernel and the witness check stay off
        # Fraction; a hot path that reads .a or .b fails here.
        op, _ = build_sap_witness(4, 5)
        built = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        kernel_basis(op.matrix)
        cert = check_sap(op)
        assert built == []
        assert not cert.full_rank
        Fraction(1, 3)
        assert built

    def test_products_skip_the_radicand_check(self, monkeypatch):
        # A product takes the radicand its operands were checked with;
        # factoring this prime near MAX_RADICAND again would cost about
        # 23,000 trial divisions per product.
        x = parse_scalar("1 + sqrt(2147483629)")
        calls = []
        split = exactfield.squarefree_split

        def counting_split(n):
            calls.append(n)
            return split(n)

        monkeypatch.setattr(exactfield, "squarefree_split", counting_split)
        y = x
        for _ in range(100):
            y = y * x
        assert calls == []
        assert y.d == 2147483629 and y.sign() == 1
        QuadScalar(0, 1, 2147483629)
        assert calls

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
