"""The checks of cdvcert.check on plain data: each accepts what holds and
names the first defect it finds.  kernel_candidate is tested through
adopt_kernel in test_exactlinalg.py, and annihilates against the dense
product there too."""

import pytest

from cdvcert import check, maps

# K_{1,4} with M = -A, and X = x*y^T + y*x^T for x = e1 - e2, y = e3 - e4
# on the independent leaves: every column of X sums to zero, so MX = 0.
STAR = [{1, 2, 3, 4}, {0}, {0}, {0}, {0}]
M = [{1: (-1, 0), 2: (-1, 0), 3: (-1, 0), 4: (-1, 0)}] + [{0: (-1, 0)}] * 4
X = [
    {},
    {3: (1, 0), 4: (-1, 0)},
    {3: (-1, 0), 4: (1, 0)},
    {1: (1, 0), 2: (-1, 0)},
    {1: (-1, 0), 2: (1, 0)},
]


def test_annihilates_multiplies_irrational_parts_through_d():
    # (sqrt(2), -2) . (sqrt(2), 1) = 2 - 2, but 3 - 2 under sqrt(3).
    left, right = [{0: (0, 1), 1: (-2, 0)}], [{0: (0, 1)}, {0: (1, 0)}]
    assert check.annihilates(left, right, 2)
    assert not check.annihilates(left, right, 3)


def test_unit_rows_returns_the_free_columns():
    # The kernel of [1 1] over scale 2: the vector (-1, 1) at free column 1.
    assert check.unit_rows(((1,), [{0: (-2, 0)}, {0: (2, 0)}], 2, 1)) == (1,)


@pytest.mark.parametrize(
    "kernel",
    [
        ((1,), [{0: (-1, 0)}, {0: (2, 0)}], 1, 1),
        ((1,), [{0: (-1, 0)}, {0: (1, 0), 1: (1, 0)}], 1, 1),
        ((1, 1), [{}, {0: (1, 0)}], 1, 1),
    ],
    ids=["not-one", "second-entry", "repeated-column"],
)
def test_unit_rows_refuses_a_row_that_is_not_e_a(kernel):
    with pytest.raises(RuntimeError, match="no unit row at a distinct free column"):
        check.unit_rows(kernel)


def test_sap_witness_accepts_the_star_witness():
    assert check.sap_witness(STAR, M, 1, X, 5, 1) is None


def _with(rows, *entries):
    """rows with each (i, j, pair) set."""
    rows = [dict(row) for row in rows]
    for i, j, pair in entries:
        rows[i][j] = pair
    return rows


@pytest.mark.parametrize(
    "x,cols,d,e,message",
    [
        (X, 6, 1, 1, "shape does not match"),
        (X[:4], 5, 1, 1, "shape does not match"),
        ([{}] * 5, 5, 1, 1, "witness is zero"),
        (_with(X, (1, 3, (2, 0))), 5, 1, 1, "not symmetric"),
        (_with(X, (1, 1, (1, 0))), 5, 1, 1, "nonzero diagonal at 1"),
        (_with(X, (0, 1, (1, 0)), (1, 0, (1, 0))), 5, 1, 1, r"on edge \(0,1\)"),
        (X, 5, 5, 2, r"cannot multiply sqrt\(5\) by sqrt\(2\) entries"),
        (_with(X, (1, 2, (1, 0)), (2, 1, (1, 0))), 5, 1, 1, r"M\*X is not zero"),
        (_with(X, (1, 2, (0, 1)), (2, 1, (0, 1))), 5, 1, 2, r"M\*X is not zero"),
    ],
    ids=[
        "columns",
        "rows",
        "zero",
        "asymmetric",
        "diagonal",
        "edge",
        "two-fields",
        "product",
        "product-at-sqrt-d",
    ],
)
def test_sap_witness_names_each_defect(x, cols, d, e, message):
    with pytest.raises(ValueError, match=message):
        check.sap_witness(STAR, M, d, x, cols, e)


def test_heawood_holds_for_the_bound_alone():
    for chi in range(2, -200, -1):
        gamma = maps.heawood_gamma(chi)
        assert [check.heawood(chi, gamma + k, False) for k in (-1, 0, 1)] == [
            False,
            True,
            False,
        ]
    klein = maps.heawood_gamma(0, klein_bottle=True)
    assert [check.heawood(0, klein + k, True) for k in (-1, 0, 1)] == [
        False,
        True,
        False,
    ]
