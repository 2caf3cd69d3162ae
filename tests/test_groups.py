import tracemalloc

import pytest
from hypothesis import given, strategies as st

from oracles import coset_enumerate_by_tracing
from specs import KLEIN_PRESENTATION
from cdvcert import exactfield
from cdvcert.groups import (
    GAMMA10_TEXT,
    MAX_TABLE_SLOTS,
    MAX_WORD_LENGTH,
    CapExceeded,
    CosetTable,
    ParseError,
    Presentation,
    UnknownGenerator,
    coset_enumerate,
    cycles,
    element_order,
    free_reduce,
    gamma10,
    left_action,
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

# (presentation, subgroup words, index) for the oracle comparison.
ORACLE_CASES = [(text, (), order) for text, order in KNOWN_ORDERS if order] + [
    (GAMMA10_TEXT, (), 432),
    (GAMMA10_TEXT, ("z",), 54),
    (GAMMA10_TEXT, ("y*z",), 216),
    (GAMMA10_TEXT, ("y",), 144),
    (KLEIN_PRESENTATION, (), 168),
    ("< a, b | a^2, b^3, (a*b)^5 >", (), 60),  # A5
    ("< a, b | b^-1*a*b*a^-2, a^-1*b*a*b^-2 >", (), 1),  # trivial
    # the Fibonacci group F(2,5), cyclic of order 11
    ("< a,b,c,d,e | a*b*c^-1, b*c*d^-1, c*d*e^-1, d*e*a^-1, e*a*b^-1 >", (), 11),
    ("< a, b | a^8, b^7, (a*b)^2, (a^-1*b)^3 >", (), 10752),
]


def is_standard(table) -> bool:
    """Reading rows in order and slots in order, each coset after 0 first
    appears right after the ones before it."""
    seen = 1
    for row in table.action:
        for t in row:
            if t == seen:
                seen += 1
            elif t > seen:
                return False
    return seen == table.count


letters = st.sampled_from((1, -1, 2, -2))


@st.composite
def small_presentations(draw):
    """Two generators of orders up to 6, one or two further relators each
    a power of a short word, and at times a one-word subgroup."""
    relators = [(1,) * draw(st.integers(1, 6)), (2,) * draw(st.integers(1, 6))]
    for _ in range(draw(st.integers(1, 2))):
        word = draw(st.lists(letters, min_size=1, max_size=4))
        relators.append(free_reduce(word * draw(st.integers(1, 4))))
    subgroup = draw(st.lists(st.lists(letters, min_size=1, max_size=3), max_size=1))
    pres = Presentation(("a", "b"), tuple(r for r in relators if r))
    return pres, tuple(tuple(w) for w in subgroup)


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

    @pytest.mark.parametrize("cap", [0, -3])
    def test_non_positive_cap_rejected(self, cap):
        pres = parse_presentation("< a | a^2 >")
        with pytest.raises(ValueError, match="max_cosets"):
            coset_enumerate(pres, max_cosets=cap)

    def test_a_table_too_wide_for_its_cap_is_refused_unallocated(self):
        # 100 generators give rows of 200 slots: 160 MB at the default cap.
        gens = ", ".join(f"g{i}" for i in range(100))
        free = parse_presentation(f"< {gens} | >")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="MAX_TABLE_SLOTS"):
                coset_enumerate(free)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        # A cap that fits the bound is accepted.
        trivial = parse_presentation(f"< {gens} | {gens} >")
        assert coset_enumerate(trivial, max_cosets=MAX_TABLE_SLOTS // 200).count == 1

    @pytest.mark.parametrize(
        "text,cap,order", [(GAMMA10_TEXT, 1200, 432), (KLEIN_PRESENTATION, 600, 168)]
    )
    def test_regular_tables_fit_small_caps(self, text, cap, order):
        # Tracing every relator forward needs 2,853 rows for gamma10 and
        # 897 for Klein's group; deducing instead of defining needs 954 and 432.
        pres = parse_presentation(text)
        assert coset_enumerate(pres, max_cosets=cap).count == order

    def test_gamma10_table_is_standard(self, g10_table):
        _, table = g10_table
        assert is_standard(table)
        assert not is_standard(CosetTable(table.generators, (), table.action[::-1]))

    @pytest.mark.parametrize("text", [GAMMA10_TEXT, KLEIN_PRESENTATION])
    def test_relator_order_and_rotation_keep_the_action(self, text):
        pres = parse_presentation(text)
        shuffled = Presentation(
            pres.generators,
            tuple(
                free_reduce(r[k % len(r):] + r[:k % len(r)])
                for k, r in enumerate(reversed(pres.relators), start=1)
            ),
        )
        assert shuffled.relators != pres.relators
        for sub in ((), ("z",), ("y*z",)):
            words = tuple(pres.word(w) for w in sub)
            first = coset_enumerate(pres, words)
            assert coset_enumerate(shuffled, words).action == first.action

    @pytest.mark.parametrize("text,subgroup,index", ORACLE_CASES)
    def test_agrees_with_the_tracing_oracle(self, text, subgroup, index):
        pres = parse_presentation(text)
        words = tuple(pres.word(w) for w in subgroup)
        table = coset_enumerate(pres, words)
        assert table.count == index
        assert table == coset_enumerate_by_tracing(pres, words, max_cosets=200_000)

    @given(small_presentations())
    def test_agrees_with_the_tracing_oracle_on_random_presentations(self, case):
        pres, subgroup = case
        try:
            table = coset_enumerate(pres, subgroup, max_cosets=2000)
            reference = coset_enumerate_by_tracing(pres, subgroup, max_cosets=2000)
        except CapExceeded:
            return
        assert table == reference

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
        table = coset_enumerate(pres)
        assert element_order(pres, pres.word("r"), table=table) == 4
        assert element_order(pres, pres.word("s"), table=table) == 2
        assert element_order(pres, pres.word("r^2"), table=table) == 2
        assert element_order(pres, (), table=table) == 1


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

    def test_cycles(self):
        assert cycles([3, 2, 1, 4, 0, 5]) == [[0, 3, 4], [1, 2], [5]]
        assert cycles([]) == []


class TestGamma10:
    # The order, the indices of <z>, <y*z> and <y> and the orders of y, z
    # and y*z are acceptance criterion 1.
    def test_generator_orders(self, g10_table):
        pres, table = g10_table
        assert element_order(pres, pres.word("z^2"), table=table) == 4

    def test_presentation_shape(self):
        pres = gamma10()
        assert isinstance(pres, Presentation)
        assert pres.generators == ("y", "z")
        assert len(pres.relators) == 4
