from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from oracles import (
    build_sap_system,
    drop_last_vector,
    free_columns_dense,
    matmul_dense,
    rank_dense,
    repeat_last_vector,
    spans_match_by_rank,
)
from specs import KLEIN, map_graph
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
    verify_sap_witness,
)
from cdvcert.certify import (
    GENUS10,
    RunReport,
    certify_map,
    certify_q1,
    charpoly_inertia,
)
from cdvcert.exactfield import QuadScalar, parse_scalar
from cdvcert.exactlinalg import (
    ExactMatrix,
    Inertia,
    IntPolynomial,
    charpoly,
    kernel_basis,
    kernel_record,
    poly_expand_product,
)
from cdvcert.maps import SimpleGraph

GOLDEN = Path(__file__).parent / "golden"
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

# Operators whose duals fall short of full rank, with the number of
# images, under sqrt(d) -> r and -r, that their dual kernel takes.
RANK_DEFICIENT = [
    (build_sap_witness(3, 4)[0], 1),
    (
        build_operator(
            complete_bipartite(1, 4), [0] * 5, {(0, 4): -QuadScalar.root(2)}
        ),
        2,
    ),
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

    def test_written_file_keeps_only_the_overrides_off_minus_one(self, tmp_path):
        # An irrational override, an explicit -1 and a Fraction diagonal
        # entry: the writer renders the matrix's entries and leaves every
        # edge at -1 out of off_diagonal.
        op = build_operator(
            PATH4,
            [Fraction(1, 3), 0, -2, 1 + QuadScalar.root(7)],
            overrides={(0, 1): -1 - QuadScalar.root(7), (1, 2): Fraction(-1)},
        )
        assert op.to_json_dict() == {
            "graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
            "field_d": 7,
            "diagonal": ["1/3", "0", "-2", "1 + sqrt(7)"],
            "off_diagonal": {"0,1": "-1 - sqrt(7)"},
        }
        path = tmp_path / "op.json"
        op.save(path)
        assert type(op).load(path).matrix == op.matrix

    def test_an_operator_stores_its_numbers_once(self):
        op = build_operator(PATH4, [0] * 4)
        assert not hasattr(op, "diagonal") and not hasattr(op, "weights")
        assert build_operator(PATH4, [1, 0, 0, 0]) != op

    def test_a_file_override_off_the_graph_is_refused(self):
        data = {
            "graph": PATH4.to_json_dict(),
            "diagonal": ["0"] * 4,
            "off_diagonal": {"0,3": "-2"},
        }
        with pytest.raises(ValueError, match="not an edge"):
            SchrodingerOperator.from_json_dict(data)

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
        # and 11 of M apart, so one dual unknown is left to rank.  M keeps
        # its kernel from membership, so the patched table reaches only the
        # dual.
        order = list(range(9)) + [11, 9, 10]
        edges = sorted(tuple(sorted(e)) for e in zip(order, order[1:] + order[:1]))
        op = build_shift_operator(SimpleGraph(12, tuple(edges)), QuadScalar.root(3))
        check_membership(op)
        assert op.corank == 2 and _unknowns_left(op) == 1
        primes = exactlinalg.PRIMES
        usual = check_sap(op).prime
        monkeypatch.setattr(exactlinalg, "PRIMES", (3, 11) + primes)
        cert = check_sap(op)
        assert cert.full_rank and cert.prime == 11
        monkeypatch.setattr(exactlinalg, "PRIMES", (3,) + primes)
        cert = check_sap(op)
        assert cert.full_rank and cert.prime == usual in primes

    def test_stored_kernel_is_reused(self, monkeypatch):
        # Membership computes the operator's kernel record, the matrix
        # keeps it, and check_sap and any later caller read it back.
        calls = []
        pair_kernel = exactlinalg.pair_kernel_basis
        monkeypatch.setattr(
            exactlinalg,
            "pair_kernel_basis",
            lambda *a: calls.append(a[1]) or pair_kernel(*a),
        )
        op = build_shift_operator(cycle(8), QuadScalar.root(2))
        check_membership(op)
        assert calls == [8]
        kernel = kernel_record(op.matrix)
        basis = kernel_basis(op.matrix)
        assert check_sap(op).full_rank
        assert kernel_record(op.matrix) is kernel
        assert kernel_basis(op.matrix) == basis and len(basis) == op.corank == 2
        assert calls == [8]

    def test_a_non_canonical_kernel_is_refused(self, monkeypatch):
        # A rescaled basis spans the same kernel, but its row at a free
        # column is no longer a unit vector, so S[a][b] = X[f_a][f_b] would
        # fail.  A matrix keeps a record only once its unit rows are
        # checked, whether it eliminates the record or inertia is handed it.
        m = build_shift_operator(cycle(8), QuadScalar.root(2)).matrix
        kernel = kernel_record(m)
        rescaled = kernel._replace(
            rows=[
                {a: (2 * x, 2 * y) if a == 0 else (x, y) for a, (x, y) in row.items()}
                for row in kernel.rows
            ]
        )
        monkeypatch.setattr(
            exactlinalg, "pair_kernel_basis", lambda *a: (rescaled, None)
        )
        for keep in (
            kernel_record,
            lambda c: exactlinalg.inertia_symmetric(c, rescaled),
        ):
            copy = ExactMatrix(m.cols, m.pairs, m.scale, m.radicand)
            with pytest.raises(RuntimeError, match="not canonical"):
                keep(copy)
            assert copy._kernel is None

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

        check_membership(op)
        monkeypatch.setattr(cdvcore, "pair_kernel_basis", refuse)
        assert op.corank == 1
        cert, calls = _check_sap_counting(op, exactlinalg.PRIMES)
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
            pairs = [dict(row) for row in op.matrix.pairs]
            assert check_sap(op).rank == rank_dense(dense)
            assert vars(op) == fields and list(op.matrix.pairs) == pairs

    def test_klein_dual_matches_the_primal(self, monkeypatch):
        op = certify_map(KLEIN, RunReport("klein"))
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
        # The dual has rank 27 of 101 mod 3, so an unlucky first prime 3
        # hands on to the usual one, where 7 is a square.
        ranked = _record_ranked_columns(monkeypatch)
        modular = check_sap(g10_operator)
        monkeypatch.setattr(exactlinalg, "PRIMES", (3,) + exactlinalg.PRIMES)
        unlucky = check_sap(g10_operator)
        assert modular.prime == unlucky.prime == 1073741723
        assert ranked[0] == ranked[1] < 136
        for cert in (modular, unlucky):
            assert cert.full_rank and cert.dual_shape == (54 + 216, 136)
            assert (cert.rows, cert.cols, cert.rank) == (2862, 1215, 1215)
        system, _ = build_sap_system(g10_operator)
        assert (system.rows, system.cols) == (2862, 1215)
        assert system.cols - len(kernel_basis(system)) == 1215

    @pytest.mark.parametrize("op,images", RANK_DEFICIENT, ids=["rational", "sqrt2"])
    def test_a_rank_deficient_dual_is_eliminated_once_per_image(
        self, monkeypatch, op, images
    ):
        # The image that ranks the dual under sqrt(d) -> r also serves its
        # kernel, so only the image under -r is added, and none for d = 1.
        check_membership(op)
        calls = []
        echelon = exactlinalg._echelon
        monkeypatch.setattr(
            exactlinalg, "_echelon", lambda *a: calls.append(a) or echelon(*a)
        )
        cert = check_sap(op)
        assert not cert.full_rank and cert.witness is not None
        assert len(calls) == images

    @pytest.mark.parametrize(
        "u,v,prime",
        [
            # Full rank, but the dual has rank 9 of 10 mod 3.
            ((1, 1, 1), (1, 2, 3), exactlinalg.PRIMES[0]),
            # Full rank; K has entries -1/3, but its rows are cleared of
            # denominators first, and the dual keeps full rank mod 3.
            ((1, 1, 1), (3, 1, 1), 3),
            # A four-leaf star: rank deficient, and K has entries -1/3.
            ((1,), (3, 1, 1, 1), None),
        ],
    )
    def test_unlucky_prime_takes_the_exact_fallback(self, u, v, prime):
        op = _rank_one_bipartite(u, v)
        check_membership(op)
        system, col_pairs = build_sap_system(op)
        primal_kernel = kernel_basis(system)
        if not primal_kernel:
            assert check_sap(op).prime is not None
        cert, calls = _check_sap_counting(op, (3,) + exactlinalg.PRIMES)
        assert cert.prime == prime
        _assert_matches_the_primal(op, cert, calls, system, col_pairs, primal_kernel)

    def test_a_full_rank_dual_reports_the_prime_that_showed_it(self, monkeypatch):
        # The dual has rank 9 of 10 mod 3, so the rank is shown at the next
        # prime, which the certificate names.
        op = _rank_one_bipartite((1, 1, 1), (1, 2, 3))
        check_membership(op)
        primes, taken, echelon = exactlinalg.PRIMES, [], exactlinalg._echelon
        monkeypatch.setattr(exactlinalg, "PRIMES", (3,) + primes)
        monkeypatch.setattr(
            exactlinalg, "_echelon", lambda *a: taken.append(a[2]) or echelon(*a)
        )
        cert = check_sap(op)
        assert cert.full_rank and taken == [3, cert.prime] == [3, primes[0]]

    @pytest.mark.parametrize(
        "op", [op for op, _ in RANK_DEFICIENT], ids=["rational", "sqrt2"]
    )
    def test_a_rank_deficient_dual_builds_each_row_once(self, monkeypatch, op):
        # The rows the first image drew serve every later image and the
        # kernel's proof.
        check_membership(op)
        asked, built, dual_rows = [], [], cdvcore._dual_rows

        def counting(k, pairs, column, d):
            asked.append(len(pairs))
            for row in dual_rows(k, pairs, column, d):
                built.append(row)
                yield row

        monkeypatch.setattr(cdvcore, "_dual_rows", counting)
        assert not check_sap(op).full_rank
        assert len(asked) == 1 and len(built) == asked[0]


def _record_ranked_columns(monkeypatch) -> list:
    """Wrap cdvcore.pair_kernel_basis so that each call records the column
    count of the dual it ranks; the list of counts is returned."""
    ranked, pair_kernel = [], cdvcore.pair_kernel_basis
    monkeypatch.setattr(
        cdvcore,
        "pair_kernel_basis",
        lambda pairs, cols, d: ranked.append(cols) or pair_kernel(pairs, cols, d),
    )
    return ranked


def _check_sap_counting(op, primes) -> tuple:
    """check_sap with exactlinalg.PRIMES set to primes, and the number of
    kernel_record and pair_kernel_basis calls it made."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlinalg, "PRIMES", primes)
        for name in ("kernel_record", "pair_kernel_basis"):
            kernel = getattr(cdvcore, name)
            mp.setattr(
                cdvcore, name, lambda *a, f=kernel: calls.append(a) or f(*a)
            )
        return check_sap(op), len(calls)


def _assert_matches_the_primal(op, cert, calls, system, col_pairs, primal_kernel):
    """The certificate agrees with the primal oracle system in shape, rank,
    verdict and witness, which is the first canonical primal kernel vector.
    dual_shape is set for every corank >= 1.  prime is set exactly when a
    dual with an unknown left to rank has full rank.  K is one kernel call,
    and the dual one more, pair_kernel_basis, whenever an unknown is left."""
    c = op.corank
    assert (cert.rows, cert.cols) == (system.rows, system.cols)
    assert cert.rank == system.cols - len(primal_kernel)
    assert cert.full_rank == (not primal_kernel)
    if c:
        assert cert.dual_shape == (op.graph.n + op.graph.edge_count, c * (c + 1) // 2)
        left = _unknowns_left(op)
        assert (cert.prime is not None) == (cert.full_rank and left > 0)
        assert calls == (2 if left else 1)
    else:
        assert cert.dual_shape is None and cert.prime is None and calls == 0
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
        graph, m = op.graph, op.matrix
        diagonal = [m.entry(i, i) for i in range(graph.n)]
        weights = {(i, j): m.entry(i, j) for i, j in graph.edges}
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


def _star_entries():
    """The graph, diagonal and edge weights of the stored K_{1,4} plus an
    isolated vertex: inertia (1, 4, 1), transversality fails."""
    op = SchrodingerOperator.load(str(GOLDEN / "sap_input_star_isolated.json"))
    m = op.matrix
    diagonal = [m.entry(i, i) for i in range(m.rows)]
    return op.graph, diagonal, [m.entry(u, v) for u, v in op.graph.edges]


class TestOnlyTheLibrarySetsWhatAVerdictRestsOn:
    @pytest.mark.parametrize(
        "build",
        [
            # A forged corank 0 would let check_sap report full rank unbuilt.
            lambda: SchrodingerOperator(*_star_entries(), inertia=Inertia(1, 0, 5)),
            lambda: SchrodingerOperator(*_star_entries(), epsilon=Fraction(1, 20)),
            lambda: RunReport("x", verdicts={"full_rank": True}),
            lambda: RunReport("x", inputs={}),
            lambda: RunReport("x", results={}),
            lambda: RunReport("x", timings={}),
            lambda: RunReport("x", stage="transversality"),
        ],
        ids=[
            "inertia", "epsilon", "verdicts", "inputs", "results", "timings", "stage"
        ],
    )
    def test_a_proved_value_is_not_an_init_parameter(self, build):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            build()

    def test_a_report_with_no_verdict_does_not_pass(self):
        report = RunReport("y")
        assert not report.passed
        report.verdict("computed", True)
        assert report.passed


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

        def counting(matrix, kernel=None):
            calls.append(matrix)
            return inertia_symmetric(matrix, kernel)

        monkeypatch.setattr(exactlinalg, "inertia_symmetric", counting)
        monkeypatch.setattr(cdvcore, "inertia_symmetric", counting)
        spec = replace(KLEIN, shift=-QuadScalar.root(7))
        result = RunReport("klein")
        certify_map(spec, result)
        assert len(calls) == 1
        assert result.results["operator"]["inertia"] == [16, 8, 0]
        assert charpoly_inertia(spec.charpoly, spec.shift) == (16, 8, 0)
        assert not result.verdicts["inertia"]

    @pytest.mark.parametrize("spec", [KLEIN, GENUS10], ids=["klein", "genus10"])
    @given(data=st.data())
    @settings(max_examples=5)
    def test_verdicts_hold_on_relabelled_maps(self, spec, data):
        # Labels are arbitrary: every verdict on the operator must hold
        # under any vertex permutation, which reorders every matrix they
        # read and sends some kernels through two primes.
        graph = map_graph(spec.presentation)
        label = data.draw(st.permutations(range(graph.n)), label="label")
        relabelled = SimpleGraph(
            graph.n,
            tuple(tuple(sorted((label[u], label[v]))) for u, v in graph.edges),
        )
        adjacency = ExactMatrix.symmetric(graph.n, dict.fromkeys(relabelled.edges, 1))
        assert charpoly(adjacency) == poly_expand_product(spec.charpoly)
        spectral = charpoly_inertia(spec.charpoly, spec.shift)
        op = build_shift_operator(relabelled, spec.shift)
        assert check_membership(op) == spectral
        assert op.corank == spectral[1] == len(kernel_record(op.matrix).free)
        cert = check_sap(op)
        assert cert.full_rank and cert.rank == cert.cols

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
        primes = exactlinalg.PRIMES
        modular, calls = _check_sap_counting(op, primes)
        unlucky, unlucky_calls = _check_sap_counting(op, (3,) + primes)
        event(f"corank {min(op.corank, 2)}{'+' if op.corank >= 2 else ''}")
        event("connected" if op.graph.is_connected() else "disconnected")
        event("mod p" if modular.prime else "exact dual")
        event(f"prime 3 {'kept' if unlucky.prime == 3 else 'passed over'}")
        assert unlucky.prime in (3, modular.prime)
        _assert_matches_the_primal(op, modular, calls, system, col_pairs, primal_kernel)
        _assert_matches_the_primal(
            op, unlucky, unlucky_calls, system, col_pairs, primal_kernel
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

        monkeypatch.setattr(cdvcore, "pair_kernel_basis", refuse)
        cert = check_sap(op)
        assert cert.full_rank and (cert.rows, cert.cols, cert.rank) == (12, 3, 3)
        assert cert.prime is None and cert.dual_shape is None


def _bipartite_operators() -> list:
    """Every swept bipartite operator with a <= b <= 5, then the two
    witness operators."""
    ops = [
        build_bipartite_operator(a, b, s_set)
        for a in range(1, 6)
        for b in range(a, 6)
        for s_set in cdvcore.admissible_subsets(a, b)
    ]
    return ops + [build_sap_witness(a, b)[0] for a, b in ((3, 4), (4, 5))]


def _sides_outside_s(op) -> tuple:
    """(m_A, m_B) for a bipartite operator on K_{a,b}: the vertices of
    each side outside S, which are those with a zero diagonal entry.
    Vertex 0 is on the small side, so its degree is b."""
    n = op.graph.n
    a = n - op.graph.degrees()[0]
    outside = [v for v in range(n) if v not in op.matrix.pairs[v]]
    return sum(v < a for v in outside), sum(v >= a for v in outside)


def _side_nullity(m: int) -> int:
    return max(0, m * (m - 3) // 2)


def _unproved_bipartite_operator(a: int, b: int, s_set):
    """The operator of build_bipartite_operator(a, b, s_set) before
    membership: no inertia, and a matrix keeping no kernel record."""
    eps = Fraction(1, 4 * (a + b))
    diagonal = [eps if v in s_set else 0 for v in range(a + b)]
    return build_operator(complete_bipartite(a, b), diagonal)


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
    kind = draw(
        st.sampled_from(["random", "recombined", "different", "unit", "equal copy"])
    )

    def family(k):
        return draw(
            st.lists(
                st.lists(_scalars(d), min_size=n, max_size=n), min_size=k, max_size=k
            )
        )

    def unit_family():
        """k < n vectors with an identity block at k random columns, and
        those columns."""
        k = draw(st.integers(1, n - 1))
        units = draw(st.permutations(range(n)))[:k]
        vectors = family(k)
        for i, row in enumerate(vectors):
            for j, u in enumerate(units):
                row[u] = QuadScalar(int(i == j))
        return vectors, units

    if kind == "equal copy":
        # Equal families give equal matrices, which spans_match accepts
        # before it builds any kernel record.
        vectors = family(draw(st.integers(1, 3)))
        return vectors, [list(row) for row in vectors], True
    if kind == "unit":
        # Families with an identity block: a changed vector keeps its
        # coordinates there, so only the canonical kernels tell them apart.
        vectors, units = unit_family()
        other = draw(st.sampled_from(["permuted", "changed", "unrelated"]))
        event(f"unit family against {other}")
        if other == "permuted":
            return vectors, draw(st.permutations(vectors)), True
        if other == "unrelated":
            return vectors, unit_family()[0], None
        # An entry off every unit column: the changed vector keeps its
        # coordinates, so it lies in the old span only if it did not change.
        changed = [list(row) for row in vectors]
        i = draw(st.integers(0, len(vectors) - 1))
        j = draw(st.sampled_from([j for j in range(n) if j not in units]))
        changed[i][j] += draw(_scalars(d, nonzero=True))
        return vectors, changed, False
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

    def test_admissible_subsets_are_exactly_the_sets_check_sides_admits(self):
        # S may hold neither side: 2^n - 2^a - 2^b + 1 of the 2^n subsets.
        total = 0
        for a in range(1, 6):
            for b in range(a, 6):
                n = a + b
                swept = list(cdvcore.admissible_subsets(a, b))
                admitted = set(swept)
                assert len(admitted) == len(swept) == 2**n - 2**a - 2**b + 1
                total += len(swept)
                for mask in range(1 << n):
                    s_set = frozenset(v for v in range(n) if mask >> v & 1)
                    if s_set in admitted:
                        assert cdvcore._check_sides(a, b, s_set)[0] == s_set
                    else:
                        with pytest.raises(BadS):
                            cdvcore._check_sides(a, b, s_set)
        assert total == 2247

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

    @pytest.mark.parametrize("control", ["dropped", "changed", "doubled"])
    def test_bipartite_negative_controls_keep_the_kernel_verdict(self, control):
        # Each control against the computed kernel gets the verdict of the
        # canonical-kernel comparison, in either argument order.
        s_set = frozenset({0, 4})
        described = bipartite_kernel_basis(4, 5, s_set)
        computed = kernel_basis(build_bipartite_operator(4, 5, s_set).matrix)
        if control == "dropped":
            family, expected = described[1:], False
        elif control == "changed":
            family, expected = [list(v) for v in described], False
            family[0][0] = QuadScalar(1)  # vertex 0 is in S
        else:
            family, expected = described + described[:1], True
        by_kernel = kernel_record(ExactMatrix.from_rows(family)) == kernel_record(
            ExactMatrix.from_rows(computed)
        )
        assert spans_match(family, computed) is spans_match(computed, family)
        assert spans_match(family, computed) is by_kernel is expected

    def test_every_swept_family_equals_the_kept_record(self):
        # spans_match answers the whole sweep by matrix equality: the
        # combinatorial family is the kernel record the matrix keeps.
        cases = 0
        for a in range(1, 6):
            for b in range(a, 6):
                for s_set in cdvcore.admissible_subsets(a, b):
                    op = build_bipartite_operator(a, b, s_set)
                    described = bipartite_kernel_basis(a, b, s_set)
                    computed = kernel_basis(op.matrix)
                    assert ExactMatrix.from_rows(described) == ExactMatrix.from_rows(
                        computed
                    )
                    cases += 1
        assert cases == 2247

    def test_every_bipartite_operator_builds_with_no_kernel_elimination(
        self, monkeypatch
    ):
        # Each matrix is handed its combinatorial kernel, so membership
        # never asks pair_kernel_basis for one.
        def refuse(*args):
            raise AssertionError("kernel eliminated for a bipartite operator")

        monkeypatch.setattr(exactlinalg, "pair_kernel_basis", refuse)
        assert len(_bipartite_operators()) == 2247 + 2

    def test_every_kept_record_is_the_eliminated_one(self):
        # The handed record equals the canonical kernel of the same
        # matrix's pairs, and a fresh copy that eliminates its own kernel
        # has the same inertia.
        for op in _bipartite_operators():
            m = op.matrix
            rows = exactlinalg.row_scaled(m.pairs, m.scale)
            eliminated, _ = exactlinalg.pair_kernel_basis(rows, m.cols, m.radicand)
            assert kernel_record(m) == eliminated
            copy = ExactMatrix(m.cols, m.pairs, m.scale, m.radicand)
            assert exactlinalg.inertia_symmetric(copy) == op.inertia

    @pytest.mark.parametrize(
        "fault,message",
        [
            ("changed", "MK = 0"),
            ("doubled", "distinct"),
            ("late", "at or after"),
        ],
    )
    def test_a_wrong_family_is_refused_at_the_hand_over(self, fault, message):
        # K_{4,5} with S = {0, 4}: the family is e2 - e1, e3 - e1, e6 - e5,
        # e7 - e5 and e8 - e5, with free columns 2, 3, 6, 7 and 8.
        sides = cdvcore._check_sides(4, 5, {0, 4})
        kernel = cdvcore._bipartite_kernel(9, *sides)
        rows = [dict(row) for row in kernel.rows]
        if fault == "changed":
            rows[1][0] = (-2, 0)  # 2*e2 - e1 is not in the kernel
            kernel = kernel._replace(rows=rows)
        elif fault == "doubled":
            kernel = repeat_last_vector(kernel)
        else:
            # e5 - e8, e6 - e8 and e7 - e8 span the same space, with their
            # other entry after their free columns 5, 6 and 7.
            for row in rows[5:]:
                row.clear()
            for a, v in enumerate((5, 6, 7), start=2):
                rows[v][a], rows[8][a] = (1, 0), (-1, 0)
            kernel = kernel._replace(free=(2, 3, 5, 6, 7), rows=rows)
        op = _unproved_bipartite_operator(4, 5, {0, 4})
        with pytest.raises(RuntimeError, match=message):
            check_membership(op, kernel)
        assert op.matrix._kernel is None and op.inertia is None

    def test_a_family_missing_a_vector_fails_at_the_congruence(self, monkeypatch):
        # Without its last vector the family passes the hand-over, and
        # membership finds the block off its free columns singular: the
        # matrix keeps nothing, and then eliminates the whole family.
        sides = cdvcore._check_sides(4, 5, {0, 4})
        family = cdvcore._bipartite_kernel(9, *sides)
        short = drop_last_vector(family)
        op = _unproved_bipartite_operator(4, 5, {0, 4})
        with pytest.raises(RuntimeError, match="singular"):
            check_membership(op, short)
        assert op.matrix._kernel is None and op.inertia is None
        assert kernel_record(op.matrix) == family
        monkeypatch.setattr(cdvcore, "_bipartite_kernel", lambda *a: short)
        with pytest.raises(RuntimeError, match="singular"):
            build_bipartite_operator(4, 5, {0, 4})

    def test_sap_nullity_is_the_closed_form(self):
        """Lemma: let m_A and m_B be the vertices of each side outside S.
        The transversality system of M = eps*1_S - A on K_{a,b} has nullity
        max(0, m_A(m_A - 3)/2) + max(0, m_B(m_B - 3)/2).

        Proof.  An admissible X is zero on every edge, so it is zero
        between the sides.  For u on one side and w on the other, (MX)_uw
        = -sum of X_tw over t on w's side, so every column of each side's
        block of X sums to 0.  For u != w on one side, (MX)_uw =
        eps*1_S(u)*X_uw, so each block vanishes on the rows and columns in
        S.  What is left on a side is the symmetric m x m matrices with
        zero diagonal and zero row sums: the kernel of the vertex-edge
        incidence map of K_m.  For m >= 3 that map has rank m, as K_m is
        connected and not bipartite, so the dimension is m(m - 1)/2 - m;
        for m <= 2 it is 0.  So transversality holds exactly when each
        side keeps at most three vertices outside S.

        check_sap's rank must agree on every case of the sweep and on both
        witness operators (m_A = 2, m_B = 4: nullity 2), and a formula off
        by one at m = 3 must not."""
        ops = _bipartite_operators()
        cases = [(_sides_outside_s(op), check_sap(op)) for op in ops]
        nullity = [cert.cols - cert.rank for _, cert in cases]
        assert nullity == [_side_nullity(p) + _side_nullity(q) for (p, q), _ in cases]
        assert [cert.full_rank for _, cert in cases] == [k == 0 for k in nullity]
        assert sum(cert.full_rank for _, cert in cases[:-2]) == 1690
        assert nullity[-2:] == [2, 2]
        off = [_side_nullity(m) + (m == 3) for m in range(7)]
        assert nullity != [off[p] + off[q] for (p, q), _ in cases]

    def test_a_dual_short_of_its_vertex_rows_is_caught_by_the_witness_check(
        self, monkeypatch
    ):
        """Negative control for the closed form: drop dual rows in
        _dual_rows and check_sap again on the same sweep.

        Dropping the first row, the last row or every edge row changes no
        nullity.  Every free pair across the two sides is an edge, so its
        unknown is forced and no edge row keeps an unknown to rank.
        Dropping every vertex row (the diagonals (i, i) of non-free i)
        leaves the rank short on many cases, and there the witness built
        from the short dual is nonzero on the diagonal, which
        verify_sap_witness refuses.  So the check that catches a missing
        dual row is the witness re-check: no case returns a nullity off
        the closed form."""
        ops = _bipartite_operators()
        dual_rows = cdvcore._dual_rows
        drops = {
            "first": lambda pairs: pairs[1:],
            "last": lambda pairs: pairs[:-1],
            "edges": lambda pairs: [(i, j) for i, j in pairs if i == j],
            "vertices": lambda pairs: [(i, j) for i, j in pairs if i != j],
        }
        for name, drop in drops.items():
            monkeypatch.setattr(
                cdvcore,
                "_dual_rows",
                lambda k, pairs, column, d: dual_rows(k, drop(pairs), column, d),
            )
            raised = off = 0
            for op in ops:
                try:
                    cert = check_sap(op)
                except ValueError as exc:
                    assert "witness has nonzero diagonal" in str(exc), name
                    raised += 1
                    continue
                p, q = _sides_outside_s(op)
                off += cert.cols - cert.rank != _side_nullity(p) + _side_nullity(q)
            assert off == 0, name
            assert (raised > 0) == (name == "vertices"), name

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
        assert witness.scale == unit.scale == 1
        x = ExactMatrix(
            9, [{**w, **e} for w, e in zip(witness.pairs, unit.pairs)], 1, 2
        )
        product = matmul_dense(op.matrix, x)
        assert all(a == 0 for row in product.pairs for a, _ in row.values())
        with pytest.raises(ValueError, match="M\\*X is not zero"):
            verify_sap_witness(op, x)

    def test_verifier_refuses_a_witness_over_another_radicand(self):
        # An admissible X over Q[sqrt(2)] for an operator over Q[sqrt(5)]:
        # the two fields share no product, whatever X's entries are.
        op = build_shift_operator(cycle(5), CYCLE_SHIFTS[1][1])
        x = ExactMatrix.symmetric(5, {(0, 2): QuadScalar.root(2)})
        with pytest.raises(ValueError, match=r"cannot multiply sqrt\(5\) by sqrt\(2\)"):
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
        witness.to_json_dict()
        assert built

    def test_spans_and_a_full_rank_check_build_no_scalar(self, monkeypatch):
        # Kernels stay integer pairs: spans_match compares the two
        # families as pair matrices, and a full-rank check
        # reads the operator's record and ranks the dual mod p; a return
        # to QuadScalar kernels fails here.
        op = build_bipartite_operator(3, 4, {3})
        described = bipartite_kernel_basis(3, 4, {3})
        computed = kernel_basis(op.matrix)
        built = []
        init = QuadScalar.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(QuadScalar, "__init__", counting_init)
        assert spans_match(described, computed)
        cert = check_sap(op)
        assert cert.full_rank and cert.prime is not None and op.corank == 4
        assert built == []

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
        report = RunReport("q1")
        certify_q1(report)
        names = ("graph_shape", "cubic_identities", "no_positive_roots", "row_gaps_nonzero")
        assert report.verdicts == dict.fromkeys(names, True)
        assert report.results["positive_roots"] == 0
        samples = report.results["samples"]
        assert len(samples) == 18
        assert all(s["gap_nonzero"] and s["pattern_ok"] for s in samples)


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
