"""The exact checks the certificates rest on, in the standard library alone
and on plain data: a matrix is its rows of {column: (a, b)} pairs for its
nonzero entries a + b*sqrt(d) over a positive scale, and a kernel record
is (free, rows, scale, d).  No check shares code with what it checks."""

import math
from itertools import chain


def annihilates(left: list, right: list, d: int) -> bool:
    """Whether the product of two pair matrices over sqrt(d) is zero, each
    product row summed and tested in turn; right[k] is row k of right."""
    for row in left:
        acc = {}
        for k, (xa, xb) in row.items():
            for j, (ya, yb) in right[k].items():
                sa, sb = acc.get(j, (0, 0))
                acc[j] = (sa + xa * ya + d * xb * yb, sb + xa * yb + xb * ya)
        if any(pair != (0, 0) for pair in acc.values()):
            return False
    return True


def symmetric(rows: list, cols: int) -> bool:
    """Whether the matrix of these rows and `cols` columns equals its transpose."""
    return len(rows) == cols and all(
        rows[j].get(i) == x for i, row in enumerate(rows) for j, x in row.items()
    )


def unit_rows(kernel: tuple) -> tuple:
    """free of the kernel record (free, rows, scale, d), once each row
    free[a] is found to be the unit vector e_a, so the free columns are
    distinct and the vectors independent; else RuntimeError."""
    free, rows, scale, _ = kernel
    for a, f in enumerate(free):
        if rows[f] != {a: (scale, 0)}:
            raise RuntimeError(
                f"kernel basis is not canonical: vector {a} has no unit row "
                "at a distinct free column"
            )
    return free


def kernel_candidate(pairs: list, cols: int, d: int, kernel: tuple) -> None:
    """Check a record K = (free, rows, scale, e) as the kernel of the matrix
    M with these pair rows and `cols` columns over sqrt(d), raising
    RuntimeError at the first failure: a row per column and unit_rows;
    every other entry of vector a at a column not free and before
    free[a]; scale > 0 with no factor common to it and every x and y, and
    e = d when some y is nonzero, else 1; and MK = 0 on M's own pairs.
    So the vectors are independent, lie in the kernel, and vector a has
    its last nonzero entry at free[a]."""
    free, rows, scale, e = kernel
    if len(rows) != cols:
        raise RuntimeError(f"kernel rows {len(rows)} do not match {cols} columns")
    is_free = set(unit_rows(kernel))
    for i, row in enumerate(rows):
        if i not in is_free and any(i >= free[a] for a in row):
            raise RuntimeError(
                f"kernel basis is not canonical: row {i} holds an entry at or "
                "after its vector's free column"
            )
    irrational = any(y for row in rows for _, y in row.values())
    values = chain.from_iterable(chain.from_iterable(row.values() for row in rows))
    field = e == (d if irrational else 1) and not (irrational and e == 1)
    if scale < 1 or math.gcd(scale, *values) != 1 or not field:
        raise RuntimeError("kernel record is not in normal form")
    if not annihilates(pairs, rows, d):
        raise RuntimeError("kernel candidate fails MK = 0")


def sap_witness(adjacency: list, m: list, d: int, x: list, cols: int, e: int) -> None:
    """Check that X refutes transversality for M on the graph with these
    neighbour sets, M's rows m over sqrt(d) and X's rows x with `cols`
    columns over sqrt(e): X is n x n, nonzero, symmetric, zero on the
    diagonal and on edges, over M's field, and MX = 0; else ValueError."""
    n = len(adjacency)
    if len(x) != n or cols != n:
        raise ValueError("witness shape does not match the graph")
    if not any(x):
        raise ValueError("witness is zero")
    if not symmetric(x, cols):
        raise ValueError("witness is not symmetric")
    for u, row in enumerate(x):
        for v in row:
            if v == u:
                raise ValueError(f"witness has nonzero diagonal at {u}")
            if v in adjacency[u]:
                raise ValueError(f"witness is nonzero on edge ({u},{v})")
    if e != 1 and d not in (1, e):
        raise ValueError(f"cannot multiply sqrt({d}) by sqrt({e}) entries")
    if not annihilates(m, x, d if e == 1 else e):
        raise ValueError("M*X is not zero")


def heawood(chi: int, gamma: int, klein_bottle: bool) -> bool:
    """Whether gamma is the Heawood bound floor((7 + sqrt(49 - 24*chi))/2),
    less one on the Klein bottle: for chi <= 2 the bound is the one g with
    (2g - 7)^2 <= 49 - 24*chi < (2g - 5)^2, as 2g - 7 >= 1."""
    twice = 2 * gamma + (2 if klein_bottle else 0)
    return (twice - 7) ** 2 <= 49 - 24 * chi < (twice - 5) ** 2
