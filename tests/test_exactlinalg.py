from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cdvcert.exactfield import FieldMismatch, QuadScalar
from cdvcert.exactlinalg import (
    ExactMatrix,
    IntPolynomial,
    NonIntegerEntries,
    NotSymmetric,
    _rank_dense,
    _rank_markowitz,
    charpoly,
    count_positive_real_roots,
    determinant,
    inertia_symmetric,
    kernel_basis,
    poly_expand_product,
    rank,
)

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def scalars(d):
    if d == 1:
        return small_fracs.map(lambda q: QuadScalar(q))
    return st.builds(lambda a, b: QuadScalar(a, b, d), small_fracs, small_fracs)


def matrices(d, max_side=5, square=False):
    side = st.integers(min_value=1, max_value=max_side)
    shapes = st.tuples(side, side) if not square else side.map(lambda n: (n, n))
    return shapes.flatmap(
        lambda shape: st.lists(
            st.lists(scalars(d), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        ).map(ExactMatrix.from_rows)
    )


def symmetric_int_matrices(max_side=5, lo=-4, hi=4):
    def build(n, draw_vals):
        vals = iter(draw_vals)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = next(vals)
        return ExactMatrix.from_rows(rows)

    return st.integers(min_value=1, max_value=max_side).flatmap(
        lambda n: st.lists(
            st.integers(min_value=lo, max_value=hi),
            min_size=n * (n + 1) // 2,
            max_size=n * (n + 1) // 2,
        ).map(lambda vals: build(n, vals))
    )


def zero_diagonal(m):
    return ExactMatrix.from_rows(
        [[0 if i == j else e for j, e in enumerate(m.row(i))] for i in range(m.rows)]
    )


def descartes_inertia(m):
    """(negatives, zeros, positives) read off the charpoly's coefficient
    signs.  The charpoly of a symmetric matrix is real-rooted, so Descartes'
    rule of signs counts its positive and negative roots exactly."""

    def sign_changes(coeffs):
        signs = [c > 0 for c in coeffs if c]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    coeffs = charpoly(m).coeffs
    zeros = next(i for i, c in enumerate(coeffs) if c)
    negatives = sign_changes([-c if i % 2 else c for i, c in enumerate(coeffs)])
    return negatives, zeros, sign_changes(coeffs)


class TestExactMatrix:
    def test_mixed_radicands_rejected(self):
        with pytest.raises(FieldMismatch):
            ExactMatrix.from_rows(
                [[QuadScalar.root(2), QuadScalar.root(3)]]
            )

    def test_radicand_detected(self):
        m = ExactMatrix.from_rows([[1, QuadScalar.root(7)], [0, 2]])
        assert m.radicand == 7

    def test_identity_is_neutral(self):
        m = ExactMatrix.from_rows([[1, 2], [3, 4]])
        eye = ExactMatrix.identity(2)
        assert m.matmul(eye) == m
        assert eye.matmul(m) == m

    @given(matrices(2, max_side=4))
    def test_transpose_involution(self, m):
        assert m.transpose().transpose() == m

    def test_symmetry_check(self):
        assert ExactMatrix.from_rows([[0, 1], [1, 0]]).is_symmetric()
        assert not ExactMatrix.from_rows([[0, 1], [2, 0]]).is_symmetric()

    def test_json_roundtrip(self, tmp_path):
        m = ExactMatrix.from_rows(
            [[1 + QuadScalar.root(7), Fraction(-1, 3)], [0, 5]]
        )
        path = tmp_path / "m.json"
        m.save(path)
        assert ExactMatrix.load(path) == m

    def test_json_dict_uses_render_strings(self):
        m = ExactMatrix.from_rows([[QuadScalar.root(2)]])
        data = m.to_json_dict()
        assert data["field_d"] == 2
        assert all(isinstance(e, str) for e in data["entries"])

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"rows": 1},
            [1, 2, 3],
            {"rows": 1, "cols": 1, "entries": "0"},
            {"rows": 1, "cols": 2, "field_d": 1, "entries": "12"},
            {"rows": True, "cols": 1, "field_d": 1, "entries": ["1"]},
            {"rows": 1, "cols": 1.0, "field_d": 1, "entries": ["1"]},
            {"rows": 1, "cols": 1, "field_d": "1", "entries": ["1"]},
        ],
    )
    def test_malformed_json_dict_raises_value_error(self, data):
        with pytest.raises(ValueError, match="matrix data"):
            ExactMatrix.from_json_dict(data)


class TestRankKernel:
    def test_zero_and_identity(self):
        assert rank(ExactMatrix.zeros(3, 4)) == 0
        assert rank(ExactMatrix.identity(5)) == 5

    def test_known_rank_over_radical_field(self):
        r = QuadScalar.root(2)
        # second row is sqrt(2) times the first
        m = ExactMatrix.from_rows([[1, r], [r, 2]])
        assert rank(m) == 1

    @given(matrices(2, max_side=4))
    def test_rank_of_transpose(self, m):
        assert rank(m) == rank(m.transpose())

    @given(st.sampled_from([1, 2, 5, 7]).flatmap(lambda d: matrices(d, max_side=4)))
    @settings(max_examples=60)
    def test_strategies_agree(self, m):
        r = rank(m)
        assert _rank_markowitz(m) == r
        assert _rank_dense(m) == r

    @given(st.sampled_from([1, 2, 5]).flatmap(lambda d: matrices(d, max_side=4)))
    @settings(max_examples=60)
    def test_kernel_properties(self, m):
        basis = kernel_basis(m)
        assert len(basis) == m.cols - rank(m)
        for vec in basis:
            assert m.matvec(vec) == [QuadScalar.ZERO] * m.rows
        if basis:
            stacked = ExactMatrix.from_rows(basis)
            assert rank(stacked) == len(basis)


class TestInertia:
    def test_diagonal_matrix(self):
        m = ExactMatrix.from_rows(
            [[-2, 0, 0], [0, 0, 0], [0, 0, 5]]
        )
        inertia = inertia_symmetric(m)
        assert (inertia.negatives, inertia.zeros, inertia.positives) == (1, 1, 1)

    def test_hyperbolic_block(self):
        m = ExactMatrix.from_rows([[0, 3], [3, 0]])
        inertia = inertia_symmetric(m)
        assert (inertia.negatives, inertia.zeros, inertia.positives) == (1, 0, 1)

    def test_zero_matrix(self):
        inertia = inertia_symmetric(ExactMatrix.zeros(4, 4))
        assert (inertia.negatives, inertia.zeros, inertia.positives) == (0, 4, 0)

    def test_requires_symmetry(self):
        with pytest.raises(NotSymmetric):
            inertia_symmetric(ExactMatrix.from_rows([[0, 1], [2, 0]]))

    def test_quadratic_field_shift(self):
        # sqrt(2) I - [[0,1],[1,0]] has eigenvalues sqrt(2) -+ 1, both positive
        r = QuadScalar.root(2)
        m = ExactMatrix.from_rows([[r, -1], [-1, r]])
        inertia = inertia_symmetric(m)
        assert (inertia.negatives, inertia.zeros, inertia.positives) == (0, 0, 2)

    @given(symmetric_int_matrices(max_side=4))
    @settings(max_examples=60)
    def test_counts_sum_to_size(self, m):
        inertia = inertia_symmetric(m)
        assert inertia.negatives + inertia.zeros + inertia.positives == m.rows

    def test_diagonal_vanishes_after_first_pivot(self):
        # The block left after the pivot 2 is [[0, 2], [2, 0]]; its zero
        # diagonal forces the unimodular step, then division by prev = 2.
        m = ExactMatrix.from_rows([[2, 2, 0], [2, 2, 1], [0, 1, 0]])
        inertia = inertia_symmetric(m)
        counts = (inertia.negatives, inertia.zeros, inertia.positives)
        assert counts == descartes_inertia(m) == (1, 0, 2)

    @given(
        st.tuples(symmetric_int_matrices(max_side=6), st.booleans()).map(
            lambda t: zero_diagonal(t[0]) if t[1] else t[0]
        )
    )
    @settings(max_examples=150)
    def test_matches_descartes_oracle(self, m):
        inertia = inertia_symmetric(m)
        counts = (inertia.negatives, inertia.zeros, inertia.positives)
        assert counts == descartes_inertia(m)

    @given(symmetric_int_matrices(max_side=4))
    @settings(max_examples=60)
    def test_zeros_equal_corank(self, m):
        assert inertia_symmetric(m).zeros == m.rows - rank(m)


class TestDeterminant:
    def test_two_by_two(self):
        m = ExactMatrix.from_rows([[1, 2], [3, 4]])
        assert determinant(m) == QuadScalar(-2)

    @given(symmetric_int_matrices(max_side=4))
    @settings(max_examples=40)
    def test_matches_charpoly_constant_term(self, m):
        p = charpoly(m)
        sign = -1 if m.rows % 2 else 1
        assert determinant(m) == QuadScalar(sign * p(0))


class TestPolynomials:
    def test_str_formatting(self):
        p = IntPolynomial((0, 0, 0, 0, -9, 0, 1))
        assert str(p) == "x^6 - 9*x^4"

    def test_expand_product(self):
        x_minus = IntPolynomial((-1, 1))
        x_plus = IntPolynomial((1, 1))
        assert poly_expand_product([(x_minus, 1), (x_plus, 1)]) == IntPolynomial(
            (-1, 0, 1)
        )
        assert poly_expand_product([]) == IntPolynomial((1,))

    @given(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5)
    )
    def test_charpoly_of_companion_matrix(self, lower):
        # companion matrix of x^n + c_{n-1} x^{n-1} + ... + c_0
        n = len(lower)
        rows = [[0] * n for _ in range(n)]
        for i in range(1, n):
            rows[i][i - 1] = 1
        for i in range(n):
            rows[i][n - 1] = -lower[i]
        m = ExactMatrix.from_rows(rows)
        assert charpoly(m) == IntPolynomial(tuple(lower) + (1,))

    def test_charpoly_requires_integers(self):
        with pytest.raises(NonIntegerEntries):
            charpoly(ExactMatrix.from_rows([[Fraction(1, 2)]]))

    @given(symmetric_int_matrices(max_side=4))
    @settings(max_examples=40)
    def test_charpoly_trace_coefficient(self, m):
        p = charpoly(m)
        trace = sum(int(m.entry(i, i).a) for i in range(m.rows))
        assert p.coeffs[m.rows - 1] == -trace

    @pytest.mark.parametrize(
        "coeffs,count",
        [
            ((-2, 0, 1), 1),       # x^2 - 2
            ((9, -6, 0, 1), 0),    # x^3 - 6x + 9
            ((0, 0, 0, 1), 0),     # x^3
            ((1, 0, 1), 0),        # x^2 + 1
            ((2, -3, 1), 2),       # (x-1)(x-2)
            ((-2, 5, -4, 1), 2),   # (x-1)^2 (x-2): distinct roots only
        ],
    )
    def test_positive_root_counts(self, coeffs, count):
        assert count_positive_real_roots(IntPolynomial(coeffs)) == count
