import pytest

from cdvcert import exactfield
from cdvcert.groups import (
    MAX_WORD_LENGTH,
    CapExceeded,
    ParseError,
    Presentation,
    UnknownGenerator,
    coset_enumerate,
    element_order,
    gamma10,
    left_action,
    orbit_partition,
    parse_presentation,
)


class TestParsing:
    def test_basic(self):
        pres = parse_presentation("< a, b | a^2, b^3, (a*b)^2 >")
        assert pres.generators == ("a", "b")
        assert len(pres.relators) == 3

    def test_equations_become_relators(self):
        pres = parse_presentation("< a, b | a^2 = b^3 = 1 >")
        # chain of two equations -> two relators
        assert len(pres.relators) == 2

    def test_inverse_powers(self):
        pres = parse_presentation("< x | x^-3 >")
        assert pres.relators[0] == pres.word("x^-1*x^-1*x^-1")

    def test_word_free_reduction(self):
        pres = parse_presentation("< a, b | >")
        assert pres.word("a*b*b^-1*a^-1") == ()

    def test_unknown_generator(self):
        pres = parse_presentation("< a | >")
        with pytest.raises(UnknownGenerator):
            pres.word("a*q")

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_presentation("< a | a^ >")
        assert isinstance(err.value.position, int)

    @pytest.mark.parametrize(
        "text",
        [
            "a | b", "< a", "< a | (a >", "< | a >", "< a, | >",
            "< a | a^1000000000 >", "< a | ((a^1000)^1000)^1000 >",
            "< a | 1^100000000000000000000 >",
            "< a | " + ", ".join(["a^60000"] * 2) + " >",
            pytest.param("< a | a^" + "1" * 5000 + " >", id="long-exponent"),
            pytest.param("< a | " + "(" * 400 + "a" + ")" * 400 + " >", id="deep-nesting"),
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_presentation(text)

    @pytest.mark.parametrize(
        "text,position",
        [("a^100001", 2), ("(a*a)^50001", 6), ("a^60000*a^60000", 7)],
    )
    def test_word_length_is_bounded(self, text, position):
        pres = parse_presentation("< a | >")
        assert len(pres.word(f"a^{MAX_WORD_LENGTH}")) == MAX_WORD_LENGTH
        with pytest.raises(ParseError) as err:
            pres.word(text)
        assert err.value.position == position

    def test_one_parse_error_class(self):
        assert ParseError is exactfield.ParseError


KNOWN_ORDERS = [
    ("< a | a^6 >", 6),                       # cyclic
    ("< a, b | a^2, b^2, (a*b)^3 >", 6),      # symmetric on 3 points
    ("< r, s | r^4, s^2, (r*s)^2 >", 8),      # dihedral square symmetries
    ("< a, b | a^4, a^2*b^-2, b^-1*a*b*a >", 8),  # quaternions
    ("< y, z | y^3, z^3, (y*z)^2 >", 12),     # tetrahedron rotations
    ("< y, z | y^3, z^4, (y*z)^2 >", 24),     # octahedron rotations
    ("< a | >", None),                        # infinite cyclic
]


class TestEnumeration:
    @pytest.mark.parametrize("text,order", KNOWN_ORDERS)
    def test_group_orders(self, text, order):
        pres = parse_presentation(text)
        if order is None:
            with pytest.raises(CapExceeded):
                coset_enumerate(pres, max_cosets=500)
        else:
            table = coset_enumerate(pres)
            assert table.count == order
            table.verify(pres)

    def test_subgroup_index(self):
        pres = parse_presentation("< r, s | r^4, s^2, (r*s)^2 >")
        table = coset_enumerate(pres, (pres.word("s"),))
        assert table.count == 4

    def test_identity_coset_is_zero(self):
        pres = parse_presentation("< a | a^5 >")
        table = coset_enumerate(pres, (pres.word("a"),))
        assert table.count == 1
        assert table.apply(0, pres.word("a^3")) == 0

    def test_cap_attribute(self):
        pres = parse_presentation("< a, b | >")
        with pytest.raises(CapExceeded) as err:
            coset_enumerate(pres, max_cosets=100)
        assert err.value.cap == 100

    def test_dropping_a_relator_breaks_finiteness(self):
        # without the (y*z)^2 relator the quotient blows past any
        # reasonable coset cap instead of closing at order 432
        text = (
            "< y, z | y^3, z^8, "
            "z^2*y^-1*z^3*y^-1*z*y^-1*z^-3*y*z^-3*y^-1 >"
        )
        pres = parse_presentation(text)
        with pytest.raises(CapExceeded):
            coset_enumerate(pres, (pres.word("z"),), max_cosets=20000)


class TestElementOrder:
    def test_orders_in_dihedral(self):
        pres = parse_presentation("< r, s | r^4, s^2, (r*s)^2 >")
        assert element_order(pres, pres.word("r")) == 4
        assert element_order(pres, pres.word("s")) == 2
        assert element_order(pres, pres.word("r^2")) == 2
        assert element_order(pres, ()) == 1


@pytest.fixture(scope="module")
def s3():
    pres = parse_presentation("< a, b | a^2, b^2, (a*b)^3 >")
    return pres, coset_enumerate(pres)


class TestActions:

    def test_left_action_is_homomorphism(self, s3):
        pres, table = s3
        wa, wb = pres.word("a"), pres.word("b")
        la = left_action(table, wa)
        lb = left_action(table, wb)
        lab = left_action(table, pres.word("a*b"))
        # left multiplication reverses composition order: L(ab) = La . Lb
        assert [la[lb[t]] for t in range(table.count)] == lab

    def test_left_action_permutes(self, s3):
        _, table = s3
        for word in [(1,), (2,)]:
            perm = left_action(table, word)
            assert sorted(perm) == list(range(table.count))

    def test_orbit_partition(self):
        parts = orbit_partition(5, [[1, 0, 2, 3, 4], [0, 1, 2, 4, 3]])
        assert sorted(sorted(p) for p in parts) == [[0, 1], [2], [3, 4]]


class TestGamma10:
    def test_order(self, g10_table):
        _, table = g10_table
        assert table.count == 432

    def test_subgroup_indices(self, g10_table):
        pres, _ = g10_table
        for word, index in [("z", 54), ("y*z", 216), ("y", 144)]:
            sub = coset_enumerate(pres, (pres.word(word),))
            assert sub.count == index

    def test_generator_orders(self, g10_table):
        pres, table = g10_table
        assert element_order(pres, pres.word("y"), table=table) == 3
        assert element_order(pres, pres.word("z"), table=table) == 8
        assert element_order(pres, pres.word("y*z"), table=table) == 2
        assert element_order(pres, pres.word("z^2"), table=table) == 4

    def test_presentation_shape(self):
        pres = gamma10()
        assert isinstance(pres, Presentation)
        assert pres.generators == ("y", "z")
        assert len(pres.relators) == 4
