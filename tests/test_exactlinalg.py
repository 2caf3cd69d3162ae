import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (
    charpoly_dense,
    determinant,
    drop_last_vector,
    free_columns_dense,
    inertia_dense,
    kernel_basis_dense,
    matmul_dense,
    matvec,
    rank_dense,
    rank_markowitz,
    repeat_last_vector,
    transpose,
)
from specs import KLEIN_PRESENTATION, map_graph
from cdvcert import cdvcore, check, exactlinalg
from cdvcert.certify import GENUS10
from cdvcert.exactfield import ZERO, FieldMismatch, QuadScalar, pair_sign
from cdvcert.exactlinalg import (
    ExactMatrix,
    IntPolynomial,
    NonIntegerEntries,
    NotSymmetric,
    charpoly,
    inertia_symmetric,
    kernel_basis,
    poly_expand_product,
    _echelon,
    factor_roots,
)

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def scalars(d):
    if d == 1:
        return small_fracs.map(lambda q: QuadScalar(q))
    return st.builds(lambda a, b: QuadScalar(a, b, d), small_fracs, small_fracs)


def found21_scalars(d):
    """a + b*sqrt(d) with a and b of the form n/m, |n| <= 30 and m <= 6."""
    part = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
    return st.builds(lambda a, b: QuadScalar(a, b, d), part, part)


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


def sparse_matrices(d, rows, cols):
    """rows x cols matrices over Q[sqrt(d)], mostly zero, with some rows
    all zero."""
    entry = st.one_of(st.just(0), st.just(0), scalars(d))
    row = st.one_of(
        st.just([0] * cols), st.lists(entry, min_size=cols, max_size=cols)
    )
    return st.lists(row, min_size=rows, max_size=rows).map(ExactMatrix.from_rows)


# Each factor is over Q[sqrt(d)] or over Q, as in the witness K*S0*K^T,
# whose factors are irrational and whose entries may cancel to rationals.
product_cases = st.tuples(
    st.sampled_from([2, 5, 7]),
    st.booleans(),
    st.booleans(),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 4),
).flatmap(
    lambda t: st.tuples(
        sparse_matrices(t[0] if t[1] else 1, t[3], t[4]),
        sparse_matrices(t[0] if t[2] else 1, t[4], t[5]),
    )
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


def sparse_symmetric_int_matrices(max_side=8):
    """Symmetric integer matrices, mostly zero, some with a zero diagonal;
    side 0 gives the empty matrix."""

    def build(rows, zero_diag):
        for i, row in enumerate(rows):
            if zero_diag:
                row[i] = 0
            row[:i] = [other[i] for other in rows[:i]]
        return ExactMatrix.from_rows(rows)

    entry = st.one_of(st.just(0), st.just(0), st.integers(-6, 6))
    return st.integers(0, max_side).flatmap(
        lambda n: st.builds(
            build,
            st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n),
            st.booleans(),
        )
    )


def zero_diagonal_symmetric(d, n):
    """n x n symmetric matrices over Q[sqrt(d)] with a zero diagonal."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return st.lists(
        st.one_of(st.just(0), scalars(d)), min_size=len(pairs), max_size=len(pairs)
    ).map(lambda xs: ExactMatrix.symmetric(n, dict(zip(pairs, xs))))


def unimodular(n):
    """n x n integer matrices of determinant +-1: a permutation matrix
    changed by row operations row_i += k*row_j."""

    def build(perm, ops):
        rows = [[int(j == p) for j in range(n)] for p in perm]
        for i, j, k in ops:
            if i != j:
                rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
        return ExactMatrix.from_rows(rows)

    index = st.integers(0, n - 1)
    return st.builds(
        build,
        st.permutations(range(n)),
        st.lists(st.tuples(index, index, st.integers(-3, 3)), max_size=3 * n),
    )


def zero_diagonal(m):
    return ExactMatrix.from_rows(
        [[0 if i == j else e for j, e in enumerate(m.row(i))] for i in range(m.rows)]
    )


@st.composite
def forced_corank_symmetric(draw):
    """(C^T M C, k) for a symmetric n x n M over Q, Q[sqrt(2)] or
    Q[sqrt(7)], its diagonal zero or not, and C = [I | k extra columns]
    with its n + k columns shuffled: the rank is at most n, so the corank
    is at least k >= 1.  An extra unit column duplicates a vertex and
    keeps a zero diagonal zero."""
    d = draw(st.sampled_from([1, 2, 7]))
    n = draw(st.integers(1, 4))
    zero_diag = draw(st.booleans())
    pairs = [(i, j) for i in range(n) for j in range(i + zero_diag, n)]
    entry = st.one_of(st.just(0), scalars(d))
    values = draw(st.lists(entry, min_size=len(pairs), max_size=len(pairs)))
    m = ExactMatrix.symmetric(n, dict(zip(pairs, values)))
    unit = st.integers(0, n - 1).map(lambda i: [int(j == i) for j in range(n)])
    combination = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    extra = draw(st.lists(st.one_of(unit, combination), min_size=1, max_size=3))
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    columns = draw(st.permutations(identity + extra))
    c = ExactMatrix.from_rows([list(row) for row in zip(*columns)])
    return matmul_dense(transpose(c), matmul_dense(m, c)), len(extra)


@st.composite
def sparse_symmetric(draw):
    """Symmetric n x n matrices, n <= 8, over Q, Q[sqrt(2)] or Q[sqrt(7)],
    with few nonzeros off the diagonal, so that many diagonal pivots are
    pairwise non-adjacent.  Diagonal entries are mixed in sign, irrational
    for d > 1, and some zero; a quarter of the draws zero the whole
    diagonal, which leaves no independent pivot."""
    d = draw(st.sampled_from([1, 2, 7]))
    n = draw(st.integers(1, 8))
    zero_diag = draw(st.sampled_from([False, False, False, True]))
    diagonal = st.one_of(st.just(0), scalars(d), scalars(d))
    if zero_diag:
        diagonal = st.just(0)
    off = st.one_of(st.just(0), st.just(0), st.just(0), scalars(d))
    entries = {}
    for i in range(n):
        for j in range(i, n):
            entries[i, j] = draw(diagonal if i == j else off)
    return ExactMatrix.symmetric(n, entries)


def pivot_signs(W, pivots, d):
    """The signs of the pivots' diagonal entries in the pair block W."""
    return [pair_sign(*W[i][i], d) for i in pivots]


def pair_block(m):
    """The whole symmetric matrix m as the dense pair block that
    inertia_symmetric eliminates."""
    rows = m.pairs
    return [[rows[i].get(j, (0, 0)) for j in range(m.cols)] for i in range(m.rows)]


def map_adjacency(presentation, seed=None):
    """The 0/1 adjacency of the map graph of a presentation, as certify_map
    builds it, with its vertices shuffled by random.Random(seed) unless
    seed is None."""
    graph = map_graph(presentation)
    label = list(range(graph.n))
    if seed is not None:
        random.Random(seed).shuffle(label)
    edges = {(label[u], label[v]): 1 for u, v in graph.edges}
    return ExactMatrix.symmetric(graph.n, edges)


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

    @pytest.mark.parametrize("row", [{0: (0, 0)}, {2: (1, 0)}, {-1: (1, 0)}])
    def test_rejects_a_stored_zero_and_an_outside_column(self, row):
        with pytest.raises(ValueError, match="zero stored|outside"):
            ExactMatrix(2, [{1: (1, 0)}, row])

    @pytest.mark.parametrize(
        "scale,radicand", [(0, 1), (1, 1), (1, 4), (1, 0), (1, -3)]
    )
    def test_pairs_refuse_a_zero_scale_and_a_radicand_that_names_no_field(
        self, scale, radicand
    ):
        with pytest.raises(ValueError, match="scale|radicand"):
            ExactMatrix(1, [{0: (1, 1)}], scale, radicand)

    def test_identity_is_neutral(self):
        m = ExactMatrix.from_rows([[1, 2], [3, 4]])
        eye = ExactMatrix.symmetric(2, {(0, 0): 1, (1, 1): 1})
        assert matmul_dense(m, eye) == m
        assert matmul_dense(eye, m) == m

    @given(product_cases)
    @settings(max_examples=100)
    @example(
        (
            ExactMatrix.from_rows([[1 + QuadScalar.root(2), QuadScalar.root(2)]]),
            ExactMatrix.from_rows([[1 - QuadScalar.root(2)], [QuadScalar.root(2)]]),
        )
    )
    @example(
        (
            ExactMatrix.from_rows([[1, QuadScalar.root(7)]]),
            ExactMatrix.from_rows([[QuadScalar.root(7), 0], [-1, Fraction(1, 3)]]),
        )
    )
    @example(
        (
            ExactMatrix.from_rows([[1, QuadScalar.root(2)]]),
            ExactMatrix.from_rows([[QuadScalar.root(2)], [-1]]),
        )
    )
    @example(
        (
            ExactMatrix.from_rows([[1, QuadScalar.root(2)]]),
            ExactMatrix.from_rows([[QuadScalar.root(2)], [1]]),
        )
    )
    def test_annihilates_matches_the_dense_product(self, case):
        # The examples' products are 1; (0, sqrt(7)/3), one entry cancelled
        # and one nonzero only at sqrt(d); 0; and 2*sqrt(2), whose rational
        # part is zero.  The scales are positive, so they never matter.
        left, right = case
        d = right.radicand if left.radicand == 1 else left.radicand
        zero = not any(matmul_dense(left, right).pairs)
        assert check.annihilates(left.pairs, right.pairs, d) is zero

    @given(matrices(2, max_side=4))
    def test_transpose_involution(self, m):
        assert transpose(transpose(m)) == m

    def test_symmetry_check(self):
        for rows, symmetric in [
            ([[0, 1], [1, 0]], True),
            ([[0, 1], [2, 0]], False),
            ([[0, 1], [0, 0]], False),
            ([[0, 1]], False),
        ]:
            m = ExactMatrix.from_rows(rows)
            assert check.symmetric(m.pairs, m.cols) is symmetric

    def test_symmetric_writes_both_halves(self):
        m = ExactMatrix.symmetric(3, {(0, 2): Fraction(-1, 2), (1, 1): 4})
        assert m == ExactMatrix.from_rows(
            [[0, 0, Fraction(-1, 2)], [0, 4, 0], [Fraction(-1, 2), 0, 0]]
        )

    def test_a_matrix_built_symmetric_skips_the_symmetry_scan(self, monkeypatch):
        # `symmetric` marks what it builds, so inertia and charpoly take it
        # as symmetric without the scan, which cost 17-19 ms of inertia's
        # 176-188 ms over the bipartite sweep's operators.
        m = ExactMatrix.symmetric(3, {(0, 1): -1, (1, 2): -1, (0, 0): 2})

        def refuse(*args):
            raise AssertionError("symmetry scanned")

        monkeypatch.setattr(check, "symmetric", refuse)
        assert inertia_symmetric(m) == (1, 0, 2)
        assert charpoly(m) == charpoly_dense(m)

    def test_the_constructor_marks_nothing_symmetric(self):
        # One asymmetric entry, built from pairs: both checks still scan.
        m = ExactMatrix(2, [{0: (1, 0), 1: (1, 0)}, {0: (2, 0), 1: (1, 0)}])
        for check in (inertia_symmetric, charpoly):
            with pytest.raises(NotSymmetric):
                check(m)

    @pytest.mark.parametrize("bad", [None, "", [], "a", 0.0])
    def test_from_rows_rejects_a_non_exact_entry(self, bad):
        with pytest.raises(TypeError):
            ExactMatrix.from_rows([[1, bad]])

    def test_from_rows_rejects_ragged_rows_and_stores_no_zeros(self):
        with pytest.raises(ValueError, match="ragged"):
            ExactMatrix.from_rows([[1, 0], [0]])
        m = ExactMatrix.from_rows([[0, Fraction(0), QuadScalar(0), 2]])
        assert m.pairs == ({3: (2, 0)},)

    def test_an_integer_adjacency_builds_no_scalar(self, monkeypatch):
        # Integer entries go straight to pairs over scale 1; a scalar is
        # built only when an entry is read, and an absent one is ZERO.
        built = []
        init = QuadScalar.__init__
        monkeypatch.setattr(
            QuadScalar,
            "__init__",
            lambda s, *a, **k: built.append(a) or init(s, *a, **k),
        )
        m = ExactMatrix.symmetric(3, {(0, 1): 1, (1, 2): Fraction(-2), (2, 2): 5})
        rows = ExactMatrix.from_rows([[0, 1, 0], [1, 0, -2], [0, -2, 5]])
        assert built == []
        assert m == rows
        assert m.pairs == (
            {1: (1, 0)},
            {0: (1, 0), 2: (-2, 0)},
            {1: (-2, 0), 2: (5, 0)},
        )
        assert (m.scale, m.radicand) == (1, 1)
        assert m.entry(0, 2) is ZERO and built == []
        assert m.entry(1, 2) == QuadScalar(-2) and built

    @given(
        st.sampled_from([1, 2, 7]).flatmap(
            lambda d: matrices(d, max_side=4, square=True)
        ),
        st.integers(-6, 6).filter(bool),
    )
    @settings(max_examples=100)
    def test_equal_values_give_equal_matrices(self, m, k):
        # Every builder brings its pairs to the one normal form, so the same
        # values give the same fields: from_rows, from_dicts, a product by
        # the identity over k, the pair constructor given every pair and the
        # scale times k, and symmetric on the upper triangle.
        n = m.rows
        rows = [m.row(i) for i in range(n)]
        eye = ExactMatrix.symmetric(n, {(i, i): Fraction(1, k) for i in range(n)})
        scaled = ExactMatrix.from_rows([[k * x for x in row] for row in rows])
        same = [
            ExactMatrix.from_rows(rows),
            ExactMatrix.from_dicts(n, [dict(enumerate(row)) for row in rows]),
            matmul_dense(scaled, eye),
            matmul_dense(eye, scaled),
            ExactMatrix(
                n,
                [{j: (k * a, k * b) for j, (a, b) in row.items()} for row in m.pairs],
                k * m.scale,
                m.radicand,
            ),
        ]
        # Equality compares the fields: cols, pairs, scale and radicand.
        assert same == [m] * len(same)
        upper = {(i, j): rows[i][j] for i in range(n) for j in range(i, n)}
        mirrored = ExactMatrix.symmetric(n, upper)
        assert mirrored == ExactMatrix.from_rows(
            [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        )
        assert check.symmetric(mirrored.pairs, mirrored.cols)

    def test_json_dict_uses_render_strings(self):
        m = ExactMatrix.from_rows([[QuadScalar.root(2)]])
        data = m.to_json_dict()
        assert data["field_d"] == 2
        assert all(isinstance(e, str) for e in data["entries"])


def fresh(m):
    """A fresh matrix equal to m, which keeps no kernel yet."""
    return ExactMatrix(m.cols, m.pairs, m.scale, m.radicand)


def rank(m):
    """The library's rank: columns minus the dimension of the exact kernel."""
    return m.cols - len(kernel_basis(m))


class TestRankKernel:
    def test_zero_and_identity(self):
        assert rank(ExactMatrix.from_rows([[0] * 4] * 3)) == 0
        assert rank(ExactMatrix.symmetric(5, {(i, i): 1 for i in range(5)})) == 5

    def test_known_rank_over_radical_field(self):
        r = QuadScalar.root(2)
        # second row is sqrt(2) times the first
        m = ExactMatrix.from_rows([[1, r], [r, 2]])
        assert rank(m) == 1

    @given(matrices(2, max_side=4))
    def test_rank_of_transpose(self, m):
        assert rank(m) == rank(transpose(m))

    @given(st.sampled_from([1, 2, 5, 7]).flatmap(lambda d: matrices(d, max_side=4)))
    @settings(max_examples=60)
    def test_strategies_agree(self, m):
        r = rank(m)
        assert rank_markowitz(m) == r
        assert rank_dense(m) == r

    @given(st.sampled_from([1, 2, 5]).flatmap(lambda d: matrices(d, max_side=4)))
    @settings(max_examples=60)
    def test_kernel_properties(self, m):
        basis = kernel_basis(m)
        assert len(basis) == m.cols - rank_dense(m)
        for vec in basis:
            assert matvec(m, vec) == [QuadScalar.ZERO] * m.rows
        if basis:
            stacked = ExactMatrix.from_rows(basis)
            assert rank_dense(stacked) == len(basis)

    @given(
        st.tuples(
            st.sampled_from([1, 2, 7]), st.integers(1, 5), st.integers(1, 6)
        ).flatmap(lambda t: sparse_matrices(*t))
    )
    @settings(max_examples=100)
    def test_kernel_row_at_each_free_column_is_a_unit_vector(self, m):
        # check_sap reads the kernel's row at the a-th free column as e_a.
        basis = kernel_basis(m)
        free = free_columns_dense(m)
        assert len(basis) == len(free)
        for a, f in enumerate(free):
            unit = [QuadScalar(int(b == a)) for b in range(len(free))]
            assert [v[f] for v in basis] == unit

    @given(
        st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
            lambda shape: st.lists(
                st.lists(st.integers(-5, 5), min_size=shape[1], max_size=shape[1]),
                min_size=shape[0],
                max_size=shape[0],
            )
        )
    )
    @settings(max_examples=100)
    def test_rank_mod_large_prime_is_exact_rank(self, rows):
        # Hadamard: every minor is at most (5 * sqrt(6))^6 < 3.4e6 in size,
        # so no nonzero minor vanishes mod a prime above that.
        p = 1073741783
        assert len(_echelon(_residues(rows, p), len(rows[0]), p)) == rank(
            ExactMatrix.from_rows(rows)
        )

    def test_elimination_leaves_its_input_alone(self):
        r2 = QuadScalar.root(2)
        # Row 1 is reduced by pivot row 0, and row 2 by the pivot row of
        # column 1, which then back-reduces pivot row 0.
        m = ExactMatrix.from_rows([[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, r2]])
        # Pairs are tuples, so copying each row dict copies deeply.
        before = [dict(row) for row in m.pairs]
        assert rank(m) == 3
        assert m.pairs == tuple(before)
        assert kernel_basis(m) == [[r2, -r2, -r2, QuadScalar(1)]]
        assert m.pairs == tuple(before)
        rows = [{0: 1, 1: 1}, {0: 1, 2: 1}, {1: 1, 3: 5}]
        copies = [dict(row) for row in rows]
        assert len(_echelon(rows, 4, 7)) == 3
        assert rows == copies

    def test_echelon_rank_drops_at_a_prime_dividing_the_determinant(self):
        rows = [[1, 2], [3, 1]]  # determinant -5
        assert len(_echelon(_residues(rows, 5), 2, 5)) == 1
        assert len(_echelon(_residues(rows, 7), 2, 7)) == 2
        assert len(_echelon([], 2, 7)) == 0


def _residues(rows, p):
    return [{j: x % p for j, x in enumerate(row) if x % p} for row in rows]


def _is_prime_by_trial(n):
    return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))


class TestPrimeWalk:
    def test_the_prime_tables_are_the_walk_from_their_bounds(self):
        walk = exactlinalg._primes_below(2**30)
        assert tuple(islice(walk, 8)) == exactlinalg.PRIMES

    def test_walk_matches_trial_division(self):
        expected = [
            n for n in range(999, 2, -1) if n % 4 == 3 and _is_prime_by_trial(n)
        ]
        assert list(exactlinalg._primes_below(1000)) == expected
        assert list(exactlinalg._primes_below(8)) == [7, 3]

    def test_walk_rejects_a_strong_pseudoprime(self):
        # A strong probable prime to every prime base up to 31, but 149491 *
        # 747451 * 34233211; base 37 exposes it.
        n = 3825123056546413051
        assert n % 4 == 3 and n == 149491 * 747451 * 34233211
        assert next(exactlinalg._primes_below(n + 1)) < n

    def test_walk_yields_only_primes_3_mod_4(self):
        last = exactlinalg.PRIMES[-1]
        primes = list(islice(exactlinalg._primes_below(last), 20))
        assert all(p % 4 == 3 and p < last for p in primes)
        assert primes == sorted(set(primes), reverse=True)


def _kernel_with_primes(m):
    """kernel_basis(m) and the usable primes it consumed, in order."""
    usable = []
    root = exactlinalg._root_mod_p

    def recording(d, p):
        r = root(d, p)
        if r:
            usable.append(p)
        return r

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlinalg, "_root_mod_p", recording)
        return kernel_basis(m), usable


def _cap(m):
    """kernel_basis's prime cap 2^(3*bits + 1): bits adds up, over the
    rows of m.pairs, the bit length of the sum of 2(a^2 + d*b^2)."""
    d = m.radicand
    bits = sum(
        (2 * sum(a * a + d * b * b for a, b in row.values())).bit_length()
        for row in m.pairs
    )
    return 2 ** (3 * bits + 1)


class TestKernelModP:
    """kernel_basis accumulates residues over primes; it must give the
    dense oracle's basis, and a hard case shows in how many usable
    primes it took."""

    @given(
        st.tuples(
            st.sampled_from([1, 2, 7]), st.integers(1, 6), st.integers(1, 6)
        ).flatmap(lambda t: sparse_matrices(*t))
    )
    @settings(max_examples=150)
    def test_matches_the_exact_elimination(self, m):
        basis = kernel_basis_dense(m)
        assert kernel_basis(m) == basis
        # The pairs are scale*m, which has m's kernel.
        rebuilt = ExactMatrix(m.cols, m.pairs, 1, m.radicand)
        assert kernel_basis_dense(rebuilt) == basis

    @given(
        st.tuples(st.sampled_from([1, 2, 7]), st.integers(1, 5)).flatmap(
            lambda t: sparse_matrices(t[0], t[1], t[1] + 2)
        )
    )
    @settings(max_examples=50)
    def test_matches_the_exact_elimination_when_rank_deficient(self, m):
        # Two more columns than rows, so the kernel is never empty.
        basis = kernel_basis(m)
        assert basis == kernel_basis_dense(m) and len(basis) >= 2

    @given(
        st.sampled_from([2, 7]).flatmap(
            lambda d: st.lists(
                st.lists(
                    st.one_of(st.just(0), found21_scalars(d)), min_size=7, max_size=7
                ),
                min_size=5,
                max_size=5,
            ).map(ExactMatrix.from_rows)
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_5x7_matrices_past_one_prime(self, m):
        # Most of these kernels carry norm denominators past what one
        # prime can reconstruct.
        basis, usable = _kernel_with_primes(m)
        assert basis == kernel_basis_dense(m)
        assert math.prod(usable[:-1]) <= _cap(m)

    @given(
        st.tuples(
            st.sampled_from([1, 2, 7]), st.integers(1, 6), st.integers(1, 6)
        ).flatmap(
            lambda t: st.tuples(
                sparse_matrices(*t),
                st.permutations(range(t[1])),
                st.lists(st.integers(1, 9), min_size=t[1], max_size=t[1]),
            )
        )
    )
    @settings(max_examples=100)
    def test_row_order_and_positive_row_scales_keep_the_basis(self, case):
        # The rows reach the echelon sorted by leading column; the basis
        # must not depend on the order or scale they came in.
        m, order, scales = case
        shuffled = ExactMatrix.from_rows(
            [[e * scales[i] for e in m.row(i)] for i in order]
        )
        assert kernel_basis(shuffled) == kernel_basis(m)

    def test_genus10_kernel_takes_one_prime(self, g10_operator):
        # 7 is not a square mod PRIMES[0]; PRIMES[1] is the first usable
        # prime, and it alone reconstructs the kernel.  The fixture's
        # matrix already keeps its kernel, so a fresh copy is eliminated.
        m = g10_operator.matrix
        basis, usable = _kernel_with_primes(fresh(m))
        assert usable == [exactlinalg.PRIMES[1]] == [1073741723]
        assert basis == kernel_basis_dense(g10_operator.matrix)
        assert len(basis) == 16
        # The transversality dual is ranked from the same table: the kernel
        # and the dual share their prime.
        assert cdvcore.check_sap(g10_operator).prime == usable[0]

    def test_a_genus10_relabelling_takes_two_primes(self, g10_operator):
        # Relabelled by the shuffle of range(54) under random.Random("17/0"),
        # the genus-10 kernel needs a second usable prime, so the record is
        # rebuilt through the Chinese remainder step.
        perm = list(range(54))
        random.Random("17/0").shuffle(perm)
        m = g10_operator.matrix
        relabelled = ExactMatrix.symmetric(
            54,
            {
                (perm[i], perm[j]): m.entry(i, j)
                for i, row in enumerate(m.pairs)
                for j in row
            },
        )
        basis, usable = _kernel_with_primes(relabelled)
        assert len(usable) == 2
        assert basis == kernel_basis_dense(relabelled)
        assert len(basis) == 16

    def test_kernel_is_computed_once_and_returned_fresh(self, monkeypatch):
        calls = []
        pair_kernel = exactlinalg.pair_kernel_basis
        monkeypatch.setattr(
            exactlinalg,
            "pair_kernel_basis",
            lambda *a: calls.append(a) or pair_kernel(*a),
        )
        m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
        first = kernel_basis(m)
        expected = [list(vec) for vec in first]
        first[0][0] = QuadScalar(5)
        first.pop()
        assert kernel_basis(m) == expected == kernel_basis_dense(m)
        assert len(calls) == 1

    def test_denominator_divisible_by_every_prime(self):
        p = math.prod(exactlinalg.PRIMES)
        m = ExactMatrix.from_rows([[Fraction(1, p), 1, 0], [0, 2, 1]])
        basis, usable = _kernel_with_primes(m)
        assert basis == kernel_basis_dense(m)
        # Each of the 8 primes sees the entry p/2 as 0.  Its numerator p
        # needs a modulus above 2p^2, and the primes after them are smaller.
        assert usable[:8] == list(exactlinalg.PRIMES)
        assert len(usable) == 17

    def test_denominator_divisible_by_the_first_prime_only(self):
        p = exactlinalg.PRIMES[0]
        # Row 0 clears to (1, p, 0), which is (1, 0, 0) mod p: the residues
        # give a wrong kernel.  The numerator p of p/2 needs a modulus above
        # 2p^2, so two smaller primes follow.
        m = ExactMatrix.from_rows([[Fraction(1, p), 1, 0], [0, 2, 1]])
        half, one = Fraction(1, 2), QuadScalar(1)
        basis, usable = _kernel_with_primes(m)
        assert basis == kernel_basis_dense(m)
        assert basis == [[QuadScalar(p * half), QuadScalar(-half), one]]
        assert len(usable) == 3
        # Row 0 clears to (1, 1, 0): p divides its scale but not its pairs.
        harmless = ExactMatrix.from_rows(
            [[Fraction(1, p), Fraction(1, p), 0], [0, 2, 1]]
        )
        basis, usable = _kernel_with_primes(harmless)
        assert basis == [[QuadScalar(half), QuadScalar(-half), one]]
        assert len(usable) == 1

    def test_entry_above_the_reconstruction_bound(self):
        m = ExactMatrix.from_rows([[1, -(2**40 + 1), 0], [0, 0, 1]])
        basis, usable = _kernel_with_primes(m)
        assert basis == kernel_basis_dense(m)
        assert basis == [[QuadScalar(2**40 + 1), QuadScalar(1), QuadScalar(0)]]
        # The numerator 2^40 + 1 needs a modulus above 2(2^40 + 1)^2, about
        # 2^81: two primes below 2^30 fall short, three suffice.
        assert len(usable) == 3

    def test_entries_near_2_to_the_200(self):
        r7 = QuadScalar.root(7)
        m = ExactMatrix.from_rows(
            [[3**126, 5**86 * r7, 7**71, 1], [2**200 + 1, 0, 11**58 * r7, 13**54]]
        )
        basis, usable = _kernel_with_primes(m)
        assert basis == kernel_basis_dense(m)
        # Entries of about 400 bits need a modulus of about 800 bits.
        assert len(usable) > 10

    def test_pivot_set_that_differs_mod_p(self):
        p = exactlinalg.PRIMES[0]
        # Column 0 is the pivot over Q and column 1 mod p: the second prime
        # restarts the accumulation, and the denominator p of -1/p needs a
        # modulus above 2p^2, three primes smaller than p.
        m = ExactMatrix.from_rows([[p, 1]])
        basis, usable = _kernel_with_primes(m)
        assert basis == kernel_basis_dense(m)
        assert basis == [[QuadScalar(Fraction(-1, p)), QuadScalar(1)]]
        assert len(usable) == 4

    def test_pivot_sets_that_differ_between_the_images(self):
        # 2 has a root r at PRIMES[0].
        p = exactlinalg.PRIMES[0]
        r = pow(2, (p + 1) // 4, p)
        assert r * r % p == 2 and (r * r - 2).bit_length() == 52
        # -r + sqrt(2) vanishes mod p under sqrt(2) -> r, not under -r, so
        # p is skipped.  The entry 1/(r - sqrt(2)) has the norm r^2 - 2,
        # about 2^52, as its denominator, which needs a modulus above
        # 2^105: four more usable primes below 2^30.
        m = ExactMatrix.from_rows([[QuadScalar(-r, 1, 2), 1]])
        basis, usable = _kernel_with_primes(m)
        assert basis == kernel_basis_dense(m)
        assert usable[0] == p and len(usable) == 5

    def test_radicand_without_a_root_at_the_first_primes(self):
        # 5 is a square mod neither PRIMES[0] nor PRIMES[1].
        r5 = QuadScalar.root(5)
        m = ExactMatrix.from_rows([[1, r5, 2], [r5, 5, 2 * r5]])
        basis, usable = _kernel_with_primes(m)
        assert usable == [exactlinalg.PRIMES[2]]
        assert basis == kernel_basis_dense(m)
        one, zero = QuadScalar(1), QuadScalar(0)
        assert basis == [[-r5, one, zero], [QuadScalar(-2), zero, one]]

    def test_full_rank_is_decided_from_one_image(self, monkeypatch):
        images = []
        echelon = exactlinalg._echelon
        monkeypatch.setattr(
            exactlinalg,
            "_echelon",
            lambda *args: images.append(args) or echelon(*args),
        )
        r7 = QuadScalar.root(7)
        assert kernel_basis(ExactMatrix.from_rows([[1, r7], [r7, 1]])) == []
        assert len(images) == 1

    def test_refuses_at_the_cap(self, monkeypatch):
        # No reconstruction succeeds, so only the cap can end the loop.
        monkeypatch.setattr(exactlinalg, "_reconstruct", lambda u, m, bound: None)
        primes, root = [], exactlinalg._root_mod_p

        def counting(d, p):
            primes.append(p)
            assert len(primes) < 100, "the prime loop ran past its cap"
            return root(d, p)

        monkeypatch.setattr(exactlinalg, "_root_mod_p", counting)
        # A rational matrix: every prime is usable.
        m = ExactMatrix.from_rows([[2**100 + 1, 3**60, 0], [0, 1, 5**40]])
        with pytest.raises(exactlinalg.PrimeCapExceeded):
            kernel_basis(m)
        assert math.prod(primes[:-1]) <= _cap(m) < math.prod(primes)
        assert len(primes) > 10


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
        inertia = inertia_symmetric(ExactMatrix.symmetric(4, {}))
        assert (inertia.negatives, inertia.zeros, inertia.positives) == (0, 4, 0)

    def test_requires_symmetry(self):
        with pytest.raises(NotSymmetric):
            inertia_symmetric(ExactMatrix.from_rows([[0, 1], [2, 0]]))
        for rows in (
            [[0, 1], [0, 0]],
            [[1, QuadScalar.root(2)], [QuadScalar(0, 2, 2), 1]],
            [[0, 1, 0], [1, 0, 0]],
        ):
            with pytest.raises(NotSymmetric):
                inertia_symmetric(ExactMatrix.from_rows(rows))

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
        # Inertia counts its zeros off kernel_basis, so the rank comes from
        # the independent dense elimination.
        assert inertia_symmetric(m).zeros == m.rows - rank_dense(m)

    @given(
        st.tuples(st.sampled_from([1, 2, 7]), st.integers(1, 6)).flatmap(
            lambda t: st.tuples(zero_diagonal_symmetric(*t), unimodular(t[1]))
        )
    )
    @settings(max_examples=150)
    def test_congruence_invariance_over_quadratic_fields(self, case):
        # The zero diagonal sends the first step down the unimodular path.
        m, p = case
        inertia = inertia_symmetric(m)
        assert inertia.zeros == m.rows - rank_dense(m)
        transformed = matmul_dense(matmul_dense(p, m), transpose(p))
        assert inertia_symmetric(transformed) == inertia

    def test_step_divides_through_the_conjugate(self):
        # prev = 1 + sqrt(2) and (1 + sqrt(2))(3 + 2 sqrt(2)) = 7 + 5 sqrt(2);
        # the next prev is L / prev^0 = 1.
        W = [[(1, 0), (0, 0)], [(0, 0), (7, 5)]]
        step = exactlinalg._congruence_step(W, [0], [1], (1, 1), 2)
        assert step == ([[(3, 2)]], (1, 0))

    @pytest.mark.parametrize(
        "rows,pivots,prev,d",
        [
            # The numerator 1*2 - 1*1 = 1, which prev does not divide.
            ([[1, 1], [1, 2]], [0], (2, 0), 1),
            ([[1, 1], [1, 2]], [0], (2, 1), 2),
            # Two pivots: the numerator 1*3 - 1*1 - 1*1 = 1 over prev^2 = 4.
            ([[1, 0, 1], [0, 1, 1], [1, 1, 3]], [0, 1], (2, 0), 1),
        ],
        ids=["rational", "conjugate", "two-pivots"],
    )
    def test_step_refuses_an_inexact_division(self, rows, pivots, prev, d):
        W = [[(x, 0) for x in row] for row in rows]
        with pytest.raises(RuntimeError, match="inexact division"):
            exactlinalg._congruence_step(W, pivots, [1] * len(pivots), prev, d)

    @given(forced_corank_symmetric())
    @settings(max_examples=150)
    def test_matches_the_dense_oracle_at_forced_corank(self, case):
        m, k = case
        inertia = inertia_symmetric(m)
        assert tuple(inertia) == inertia_dense(m)
        assert inertia.zeros >= k

    def test_genus10_eliminates_only_the_block_off_the_kernel(
        self, g10_operator, monkeypatch
    ):
        # Corank 16 of 54 leaves a 38 x 38 nonsingular block.  The first
        # round takes 13 pairwise non-adjacent pivots, the second 3, and
        # every later round one pivot of a block that has filled in.
        rounds = []
        pick = exactlinalg._independent_pivots
        monkeypatch.setattr(
            exactlinalg,
            "_independent_pivots",
            lambda W: rounds.append((len(W), len(pick(W)))) or pick(W),
        )
        m = g10_operator.matrix
        assert inertia_symmetric(fresh(m)) == (1, 16, 37)
        assert rounds == [(38, 13), (25, 3)] + [(n, 1) for n in range(22, 0, -1)]

    def test_genus10_builds_no_scalar(self, g10_operator, monkeypatch):
        # With the kernel kept, charpoly and inertia work on ints only.
        m = g10_operator.matrix
        kernel_basis(m)
        graph = g10_operator.graph
        adjacency = ExactMatrix.symmetric(graph.n, dict.fromkeys(graph.edges, 1))
        built = []
        init = QuadScalar.__init__
        monkeypatch.setattr(
            QuadScalar,
            "__init__",
            lambda s, *a, **k: built.append(a) or init(s, *a, **k),
        )
        assert charpoly(adjacency).degree == 54
        assert inertia_symmetric(m) == (1, 16, 37)
        assert built == []

    @given(sparse_symmetric(), st.booleans())
    # Three pivots, two of them negative and irrational, and a zero diagonal.
    @example(
        ExactMatrix.symmetric(
            5,
            {
                (0, 0): QuadScalar(1, -1, 7),
                (1, 1): 2,
                (2, 2): QuadScalar(-3, 1, 7),
                (0, 3): 1,
                (1, 3): -2,
                (2, 4): QuadScalar(0, 1, 7),
                (3, 4): 1,
            },
        ),
        False,
    )
    # A zero diagonal: no independent pivot.
    @example(ExactMatrix.symmetric(3, {(0, 1): 1, (1, 2): QuadScalar(1, 1, 2)}), False)
    # The first round takes pivot 0 and leaves prev = 2 and the block
    # [[5, 0, 2], [0, -2, 2], [2, 2, 0]], whose pivots 0 and 1 go together.
    @example(
        ExactMatrix.from_rows([[2, 1, 2, 0], [1, 3, 1, 1], [2, 1, 1, 1], [0, 1, 1, 0]]),
        True,
    )
    @settings(max_examples=150)
    def test_one_step_is_single_steps_over_its_pivots_in_order(self, m, later):
        step, pick = exactlinalg._congruence_step, exactlinalg._independent_pivots
        W, d, prev = pair_block(m), m.radicand, (1, 0)
        if later:
            # Start where a first round leaves off, so that the step divides
            # by a power of prev != 1.
            pivots = pick(W)
            assume(0 < len(pivots) < len(W))
            W, prev = step(W, pivots, pivot_signs(W, pivots, d), prev, d)
            assume(prev != (1, 0))
        pivots = pick(W)
        candidates = [k for k in range(len(W)) if W[k][k] != (0, 0)]
        assert set(pivots) <= set(candidates)
        assert all(W[i][j] == (0, 0) for i in pivots for j in pivots if i != j)
        # In order: a candidate is left out for a neighbour taken before it.
        assert all(
            any(W[k][i] != (0, 0) for i in pivots if i < k)
            for k in candidates
            if k not in pivots
        )
        assume(pivots)
        state, p = W, prev
        for taken, i in enumerate(pivots):
            # The single steps before this one removed `taken` lower indices.
            one = [i - taken]
            state, p = step(state, one, pivot_signs(state, one, d), p, d)
        assert step(W, pivots, pivot_signs(W, pivots, d), prev, d) == (state, p)

    @given(sparse_symmetric())
    @settings(max_examples=150)
    def test_sparse_matrices_match_the_dense_oracle(self, m):
        assert tuple(inertia_symmetric(m)) == inertia_dense(m)

    @pytest.mark.parametrize(
        "rows", [[[1, 1], [1, 1]], [[0, 0, 1], [0, 0, 0], [1, 0, 0]]]
    )
    @pytest.mark.parametrize(
        "fault,message",
        [
            (drop_last_vector, "singular"),
            (repeat_last_vector, "distinct"),
        ],
        ids=["missing", "repeated"],
    )
    def test_a_faulty_kernel_raises(self, monkeypatch, rows, fault, message):
        pair_kernel = exactlinalg.pair_kernel_basis
        monkeypatch.setattr(
            exactlinalg, "pair_kernel_basis", lambda *a: fault(pair_kernel(*a))
        )
        with pytest.raises(RuntimeError, match=message):
            inertia_symmetric(ExactMatrix.from_rows(rows))


def _rescaled(kernel, k):
    """The record with scale and every entry multiplied by k."""
    rows = [{a: (k * x, k * y) for a, (x, y) in row.items()} for row in kernel.rows]
    return kernel._replace(rows=rows, scale=k * kernel.scale)


class TestAdoptKernel:
    @given(st.sampled_from([1, 7]).flatmap(matrices))
    @settings(max_examples=60)
    def test_the_eliminated_record_is_kept(self, m):
        kernel = exactlinalg.kernel_record(m)
        copy = fresh(m)
        exactlinalg.adopt_kernel(copy, kernel)
        assert exactlinalg.kernel_record(copy) is kernel

    @given(sparse_symmetric())
    @settings(max_examples=60)
    def test_inertia_completes_an_adopted_record(self, m):
        copy = fresh(m)
        exactlinalg.adopt_kernel(copy, exactlinalg.kernel_record(m))
        assert inertia_symmetric(copy) == inertia_symmetric(fresh(m))

    def test_a_matrix_keeps_one_record(self):
        m = ExactMatrix.from_rows([[3, 1]])
        kernel = exactlinalg.kernel_record(m)
        with pytest.raises(RuntimeError, match="already keeps"):
            exactlinalg.adopt_kernel(m, kernel)

    @pytest.mark.parametrize(
        "rows,fault,message",
        [
            # [3 1] has the kernel vector (-1/3, 1): scale 3.
            ([[3, 1]], lambda k: _rescaled(k, 2), "normal form"),
            ([[3, 1]], lambda k: _rescaled(k, -1), "normal form"),
            ([[3, 1]], lambda k: k._replace(d=7), "normal form"),
            ([[3, 1]], lambda k: k._replace(rows=k.rows + [{}]), "do not match"),
            ([[3, 1]], lambda k: k._replace(rows=[{0: (-2, 0)}, k.rows[1]]), "MK = 0"),
            # [1 sqrt(2)] has (-sqrt(2), 1), over d = 2.
            ([[1, QuadScalar.root(2)]], lambda k: k._replace(d=1), "normal form"),
            ([[1, QuadScalar.root(2)]], lambda k: k._replace(d=3), "normal form"),
            # (1, 1) spans the kernel of [1 -1], but at free column 0 it
            # has its other entry after it: not the canonical shape.
            ([[1, -1]], lambda k: k._replace(free=(0,), rows=k.rows[::-1]), "at or after"),
            ([[1, 1], [1, 1]], repeat_last_vector, "distinct"),
        ],
        ids=[
            "doubled-scale",
            "negative-scale",
            "irrational-d-on-rationals",
            "extra-row",
            "changed-entry",
            "rational-d-on-irrationals",
            "other-d",
            "entry-after-free-column",
            "repeated-vector",
        ],
    )
    def test_a_wrong_record_is_refused_and_nothing_kept(self, rows, fault, message):
        m = ExactMatrix.from_rows(rows)
        candidate = fault(exactlinalg.kernel_record(fresh(m)))
        with pytest.raises(RuntimeError, match=message):
            exactlinalg.adopt_kernel(m, candidate)
        assert m._kernel is None

    def test_a_missing_vector_passes_the_hand_over_but_not_the_congruence(self):
        m = ExactMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
        short = drop_last_vector(exactlinalg.kernel_record(fresh(m)))
        exactlinalg.adopt_kernel(m, short)
        assert exactlinalg.kernel_record(m) is short
        with pytest.raises(RuntimeError, match="singular"):
            inertia_symmetric(m)


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

    def test_charpoly_requires_integers(self):
        with pytest.raises(NonIntegerEntries):
            charpoly(ExactMatrix.from_rows([[Fraction(1, 2)]]))
        with pytest.raises(NonIntegerEntries):
            charpoly(ExactMatrix.from_rows([[1, 0], [0, QuadScalar.root(2)]]))

    def test_charpoly_refuses_an_asymmetric_matrix(self):
        # Asymmetric in pattern, in value only, and not square.
        for rows in ([[0, 1], [0, 0]], [[1, 2], [3, 1]], [[1, 2, 3]]):
            with pytest.raises(NotSymmetric):
                charpoly(ExactMatrix.from_rows(rows))

    @given(
        sparse_symmetric_int_matrices(),
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    )
    @example(ExactMatrix.from_rows([]), [0, 1, -1])
    @example(ExactMatrix.from_rows([[-3]]), [0, 1, -3])
    @settings(max_examples=150)
    def test_sparse_berkowitz_matches_dense_and_determinant(self, m, points):
        p = charpoly(m)
        assert p == charpoly_dense(m)
        for x in points:
            shifted = ExactMatrix.from_rows(
                [
                    [(x if i == j else 0) - e for j, e in enumerate(m.row(i))]
                    for i in range(m.rows)
                ]
            )
            assert determinant(shifted) == QuadScalar(p(x))

    @given(symmetric_int_matrices(max_side=8))
    # Diagonal entries 1 and -1 are kept once, not as mirrored unit pairs.
    @example(ExactMatrix.from_rows([[1, 1, 0], [1, -1, -1], [0, -1, 1]]))
    @example(
        ExactMatrix.from_rows(
            [[-1, 1, 2, 0], [1, 1, 0, -1], [2, 0, 0, 1], [0, -1, 1, -1]]
        )
    )
    @settings(max_examples=100)
    def test_symmetric_charpoly_matches_dense(self, m):
        assert charpoly(m) == charpoly_dense(m)

    @pytest.mark.parametrize(
        "presentation,seed",
        [
            (GENUS10.presentation, None),
            (GENUS10.presentation, 0),
            (KLEIN_PRESENTATION, None),
        ],
        ids=["genus10", "genus10-relabelled", "klein"],
    )
    def test_map_adjacency_charpoly_matches_dense(self, presentation, seed):
        m = map_adjacency(presentation, seed)
        assert charpoly(m) == charpoly_dense(m)

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
            ((3, 1), 0),           # x + 3
            ((3, -3, 1), 0),       # x^2 - 3x + 3: no real root
            ((1, 0, 1), 0),        # x^2 + 1: no real root
            ((2, -3, 1), 2),       # (x-1)(x-2)
            ((1, -4, 1), 2),       # x^2 - 4x + 1: roots 2 +- sqrt(3)
        ],
    )
    def test_positive_root_counts(self, coeffs, count):
        roots = factor_roots(IntPolynomial(coeffs))
        assert sum(root.sign() > 0 for root in roots) == count

    def test_factor_roots(self):
        r3, r7 = QuadScalar.root(3), QuadScalar.root(7)
        assert factor_roots(IntPolynomial((3, 1))) == [QuadScalar(-3)]
        assert factor_roots(IntPolynomial((-1, 2))) == [QuadScalar(Fraction(1, 2))]
        assert factor_roots(IntPolynomial((-6, -2, 1))) == [1 + r7, 1 - r7]
        assert factor_roots(IntPolynomial((1, -4, 1))) == [2 + r3, 2 - r3]
        assert factor_roots(IntPolynomial((1, 2, 1))) == [QuadScalar(-1)] * 2
        assert factor_roots(IntPolynomial((3, -3, 1))) == []
        for coeffs in [(5,), (9, -6, 0, 1)]:
            with pytest.raises(ValueError):
                factor_roots(IntPolynomial(coeffs))
