import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from oracles import FractionQuad
from cdvcert.exactfield import (
    MAX_RADICAND,
    DivisionByZero,
    FieldMismatch,
    MixedRadicals,
    ParseError,
    QuadScalar,
    parse_scalar,
    squarefree_split,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=10**4
)


def quads(d):
    return st.builds(lambda a, b: QuadScalar(a, b, d), rationals, rationals)


parts = st.one_of(st.integers(-(10**20), 10**20), rationals)
# The scalar and its oracle, over Q or one of two fields: two draws of
# this strategy are often incompatible.
paired = st.builds(
    lambda a, b, d: (QuadScalar(a, b, d), FractionQuad(a, b, d)),
    parts,
    parts,
    st.sampled_from([1, 2, 3, 7]),
)


class TestConstruction:
    def test_rational_collapse(self):
        x = QuadScalar(Fraction(3), Fraction(0), 7)
        assert x.d == 1
        assert x == Fraction(3)

    def test_d_one_folds_into_rational_part(self):
        x = QuadScalar(Fraction(2), Fraction(5), 1)
        assert x.a == Fraction(7) and x.b == 0

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            QuadScalar(0, 1, 8)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            QuadScalar(0.5, 0, 2)

    def test_no_float_conversion(self):
        with pytest.raises(TypeError):
            float(QuadScalar.root(7))

    def test_immutable(self):
        x = QuadScalar.root(2)
        with pytest.raises(AttributeError):
            x.a = Fraction(1)

    def test_root(self):
        r = QuadScalar.root(12)
        # 12 = 4 * 3, so the coefficient absorbs the square part
        assert r.d == 3 and r.b == 2

    def test_squarefree_split(self):
        assert squarefree_split(1) == (1, 1)
        assert squarefree_split(18) == (3, 2)
        assert squarefree_split(49) == (7, 1)


class TestArithmetic:
    @given(quads(2), quads(2), quads(2))
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(quads(5))
    def test_additive_inverse(self, x):
        assert x + (-x) == QuadScalar.ZERO

    @given(quads(3))
    def test_multiplicative_inverse(self, x):
        if x == QuadScalar.ZERO:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == QuadScalar.ONE

    @given(quads(7), quads(7))
    def test_subtraction_division_roundtrip(self, x, y):
        assert (x - y) + y == x
        if y != QuadScalar.ZERO:
            assert (x / y) * y == x

    def test_mixed_radicals_rejected(self):
        with pytest.raises(FieldMismatch):
            QuadScalar.root(2) + QuadScalar.root(3)

    def test_rationals_lift_into_any_field(self):
        x = QuadScalar.root(5) + Fraction(1, 2)
        assert x.d == 5 and x.a == Fraction(1, 2)

    def test_root_squares_back(self):
        assert QuadScalar.root(7) * QuadScalar.root(7) == Fraction(7)


class TestOrdering:
    @given(quads(2), quads(2))
    def test_sign_respects_multiplication(self, x, y):
        assert (x * y).sign() == x.sign() * y.sign()

    @given(quads(5))
    def test_square_nonnegative(self, x):
        assert (x * x).sign() >= 0

    @given(quads(2), quads(2))
    def test_comparison_trichotomy(self, x, y):
        # Order is the sign of the difference: x < y, x == y or x > y.
        assert ((x - y).sign() == 0) == (x == y)

    def test_classic_surd_comparison(self):
        # 1 + sqrt(7) is between 3 and 4
        x = 1 + QuadScalar.root(7)
        assert (x - 3).sign() == 1 and (x - Fraction(4)).sign() == -1


class TestHashing:
    @given(rationals)
    def test_rational_hash_matches_fraction(self, q):
        assert hash(QuadScalar(q, Fraction(0), 2)) == hash(q)

    @given(quads(2), quads(2))
    def test_equal_implies_equal_hash(self, x, y):
        if x == y:
            assert hash(x) == hash(y)


class TestParseRender:
    @given(quads(2))
    def test_roundtrip_sqrt2(self, x):
        assert parse_scalar(x.render()) == x

    @given(quads(7))
    def test_roundtrip_sqrt7(self, x):
        assert parse_scalar(x.render()) == x

    @given(rationals)
    def test_roundtrip_rational(self, q):
        x = QuadScalar(q, Fraction(0), 1)
        assert parse_scalar(x.render()) == x

    @pytest.mark.parametrize(
        "text,value",
        [
            ("3", Fraction(3)),
            ("-5/3", Fraction(-5, 3)),
            ("sqrt(2)", QuadScalar.root(2)),
            ("1 + 2*sqrt(7)", QuadScalar(Fraction(1), Fraction(2), 7)),
            ("(1 - sqrt(5))/2", QuadScalar(Fraction(1, 2), Fraction(-1, 2), 5)),
            ("-sqrt(3)*sqrt(3)", Fraction(-3)),
        ],
    )
    def test_examples(self, text, value):
        assert parse_scalar(text) == value

    @pytest.mark.parametrize(
        "text",
        [
            "", "1 +", "sqrt(-3)", "sqrt(x)", "sqrt(4/9)", "1/(2-2)", "(1", "1..2", "2^3",
            0.5, 3, None, "1/0", "sqrt(2147483649)", "sqrt(1000000000000037)",
            pytest.param("(" * 400 + "1" + ")" * 400, id="deep-nesting"),
            pytest.param("1" * 5000, id="long-literal"),
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_scalar(text)

    @pytest.mark.parametrize(
        "text,position",
        [("1/(2-2)", 1), ("sqrt(2)*3/0", 9), ("sqrt(2147483649)", 5), ("2*sqrt(1" + "0" * 40 + "1)", 7)],
    )
    def test_divisor_and_radicand_errors_carry_position(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_scalar(text)
        assert err.value.position == position

    def test_largest_radicand_is_accepted(self):
        assert parse_scalar(f"sqrt({MAX_RADICAND})") == QuadScalar.root(MAX_RADICAND)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_scalar("1 + & 2")
        assert err.value.position == 4

    def test_mixed_radicals_is_parse_error(self):
        with pytest.raises(MixedRadicals):
            parse_scalar("sqrt(2) + sqrt(3)")
        assert issubclass(MixedRadicals, ParseError)


def _same(x, expected):
    """x holds the oracle's value in the normal form and renders back."""
    assert (x.a, x.b, x.d) == (expected.a, expected.b, expected.d)
    assert x.q > 0 and gcd(x.n, x.r, x.q) == 1
    assert (x.r == 0) == (x.d == 1) and squarefree_split(x.d)[0] == 1
    assert parse_scalar(x.render()) == x


def _agree(op, x, y, expected_x, expected_y):
    """op on the scalars gives the oracle's result, or the same error."""
    try:
        expected = op(expected_x, expected_y)
    except (FieldMismatch, DivisionByZero) as exc:
        with pytest.raises(type(exc)):
            op(x, y)
    else:
        _same(op(x, y), expected)


class TestAgainstTheFractionOracle:
    @given(paired, paired)
    def test_arithmetic_and_order(self, xs, ys):
        (x, X), (y, Y) = xs, ys
        _same(x, X)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            _agree(op, x, y, X, Y)
        _agree(lambda u, _: u.inverse(), x, None, X, None)
        assert x.sign() == X.sign()
        # Order is the sign of the difference; _agree has checked that a
        # difference across two fields is refused.
        try:
            order = (X - Y).sign()
        except FieldMismatch:
            pass
        else:
            assert (x - y).sign() == order
        assert (x == y) == (X == Y)
        if x == y:
            assert hash(x) == hash(y)

    @given(paired, parts)
    def test_mixing_with_int_and_fraction(self, xs, k):
        x, X = xs
        K = FractionQuad(k)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            _agree(op, x, k, X, K)
        for op in (operator.add, operator.sub, operator.mul):
            _agree(op, k, x, K, X)
        assert (x - k).sign() == (X - K).sign()
        assert (x == k) == (X == k) == (k == x)
        if x == k:
            assert hash(x) == hash(k)
        if x.d == 1:
            assert x == X.a and hash(x) == hash(X.a)
            if X.a.denominator == 1:
                assert x == int(X.a) and hash(x) == hash(int(X.a))

    @given(parts, parts)
    def test_constructor_refusals(self, a, b):
        with pytest.raises(TypeError):
            QuadScalar(float(a), b, 2)
        with pytest.raises(TypeError):
            QuadScalar(a, float(b), 2)
        with pytest.raises(ValueError):
            QuadScalar(a, b, 0)
        if b:
            with pytest.raises(ValueError):
                QuadScalar(a, b, 8)
            with pytest.raises(FieldMismatch):
                QuadScalar(a, b, 2) * QuadScalar(a, b, 3)
        else:
            assert QuadScalar(a, b, 8) == a
