"""Slow, independent oracles for the exact arithmetic and linear algebra:
scalar arithmetic on Fractions, two rank eliminations (the dense one
also gives the free columns), a dense reduced echelon for the kernel
basis, a determinant, a dense symmetric elimination for the inertia, a
dense characteristic polynomial, a transpose, a
matrix-vector product, a dense matrix product, a subspace-equality
test, the primal transversality system, a trace-and-define coset
enumerator and a step-by-step Heawood window.  The library needs none of
them; the tests check QuadScalar and the library's rank, inertia,
charpoly, kernels, sparse product, spans_match, check_sap,
coset_enumerate and counterexample_range against them.  Two kernel
faults the tests inject, a record missing its last vector and one
repeating it, close the file.
"""

from fractions import Fraction

from cdvcert.exactfield import (
    ONE,
    ZERO,
    DivisionByZero,
    FieldMismatch,
    squarefree_split,
)
from cdvcert.exactlinalg import ExactMatrix, IntPolynomial, NonIntegerEntries
from cdvcert.groups import CapExceeded, CosetTable, free_reduce
from cdvcert.maps import heawood_gamma


class FractionQuad:
    """a + b*sqrt(d) as two Fractions and a radicand, reduced only by
    Fraction arithmetic: the reference for QuadScalar, which keeps ints
    over a common denominator.  Rationals have b = 0 and d = 1."""

    def __init__(self, a=0, b=0, d=1):
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("components must be exact, not float")
        a, b = Fraction(a), Fraction(b)
        if not isinstance(d, int) or d < 1:
            raise ValueError(f"radicand must be a positive integer, got {d}")
        if d == 1:
            a, b = a + b, Fraction(0)
        elif b == 0:
            d = 1
        elif squarefree_split(d)[0] != 1:
            raise ValueError(f"radicand {d} is not squarefree")
        self.a, self.b, self.d = a, b, d

    def _match(self, other):
        if not isinstance(other, FractionQuad):
            other = FractionQuad(other)
        if self.d != other.d and self.b != 0 and other.b != 0:
            raise FieldMismatch(f"sqrt({self.d}) with sqrt({other.d})")
        return other, self.d if self.b != 0 else other.d

    def __add__(self, other):
        y, d = self._match(other)
        return FractionQuad(self.a + y.a, self.b + y.b, d)

    def __sub__(self, other):
        y, d = self._match(other)
        return FractionQuad(self.a - y.a, self.b - y.b, d)

    def __mul__(self, other):
        y, d = self._match(other)
        a = self.a * y.a + d * self.b * y.b
        return FractionQuad(a, self.a * y.b + self.b * y.a, d)

    def inverse(self):
        if not self:
            raise DivisionByZero("inverse of zero")
        norm = self.a * self.a - self.d * self.b * self.b
        return FractionQuad(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        y, _ = self._match(other)
        return self * y.inverse()

    def sign(self):
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sb == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb
        t = self.a * self.a - self.d * self.b * self.b
        return 0 if t == 0 else sa if t > 0 else sb

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return (self.a, self.b, self.d) == (other.a, other.b, other.d)


def transpose(matrix: ExactMatrix) -> ExactMatrix:
    rows = [matrix.row(i) for i in range(matrix.rows)]
    return ExactMatrix.from_rows(
        [[rows[i][j] for i in range(matrix.rows)] for j in range(matrix.cols)]
    )


def matmul_dense(left: ExactMatrix, right: ExactMatrix) -> ExactMatrix:
    """The product by the textbook triple loop over dense rows."""
    if left.cols != right.rows:
        raise ValueError("shape mismatch")
    out = []
    for i in range(left.rows):
        ri = left.row(i)
        row = []
        for j in range(right.cols):
            acc = ZERO
            for k, x in enumerate(ri):
                if x:
                    y = right.entry(k, j)
                    if y:
                        acc = acc + x * y
            row.append(acc)
        out.append(row)
    return ExactMatrix.from_rows(out)


def matvec(matrix: ExactMatrix, vec: list) -> list:
    return [
        sum((x * y for x, y in zip(matrix.row(i), vec)), ZERO)
        for i in range(matrix.rows)
    ]


def scalar_rows(matrix: ExactMatrix) -> list:
    """The rows of matrix as {column: nonzero QuadScalar} dicts."""
    return [{j: matrix.entry(i, j) for j in row} for i, row in enumerate(matrix.pairs)]


def rank_markowitz(matrix: ExactMatrix) -> int:
    """Destructive sparse elimination picking the sparsest column, then
    the sparsest row within it."""
    live = [r for r in scalar_rows(matrix) if r]
    rank = 0
    while live:
        counts: dict = {}
        for r in live:
            for c in r:
                counts[c] = counts.get(c, 0) + 1
        col = min(counts, key=lambda c: (counts[c], c))
        pick = min(
            (i for i, r in enumerate(live) if col in r),
            key=lambda i: (len(live[i]), i),
        )
        pivot = live.pop(pick)
        rank += 1
        reduced = []
        for r in live:
            if col in r:
                f = r[col] / pivot[col]
                r = {
                    c: v
                    for c in r.keys() | pivot.keys()
                    if (v := r.get(c, ZERO) - f * pivot.get(c, ZERO))
                }
            if r:
                reduced.append(r)
        live = reduced
    return rank


def rank_dense(matrix: ExactMatrix) -> int:
    """Textbook dense elimination over the field."""
    return matrix.cols - len(free_columns_dense(matrix))


def free_columns_dense(matrix: ExactMatrix) -> list:
    """The columns without a pivot in a textbook dense row echelon form
    over the field: those that are combinations of the columns before
    them."""
    work = [matrix.row(i) for i in range(matrix.rows)]
    rank = 0
    free = []
    for col in range(matrix.cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            free.append(col)
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        for i in range(rank + 1, len(work)):
            if work[i][col]:
                f = work[i][col] / pv
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return free


def kernel_basis_dense(matrix: ExactMatrix) -> list:
    """The canonical kernel basis from a textbook dense reduced row echelon
    form over the field: one vector per free column f, with 1 at f, 0 at
    the other free columns, and minus each pivot row's entry in column f
    at that row's pivot column."""
    work = [matrix.row(i) for i in range(matrix.rows)]
    pivots = []
    for col in range(matrix.cols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        work[rank] = [x / pv for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        pivots.append(col)
    basis = []
    for free in range(matrix.cols):
        if free in pivots:
            continue
        vec = [ZERO] * matrix.cols
        vec[free] = ONE
        for row, col in zip(work, pivots):
            vec[col] = -row[free]
        basis.append(vec)
    return basis


def determinant(matrix: ExactMatrix):
    """Exact determinant by dense elimination; for small square matrices."""
    n = matrix.rows
    work = [matrix.row(i) for i in range(n)]
    det = ONE
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col]), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        pv = work[col][col]
        det = det * pv
        for i in range(col + 1, n):
            if work[i][col]:
                f = work[i][col] / pv
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return det


def inertia_dense(matrix: ExactMatrix) -> tuple:
    """(negatives, zeros, positives) of a symmetric matrix by textbook
    symmetric elimination over the field, on FractionQuad entries read
    from scalar_rows: a nonzero diagonal pivot p of the remaining block
    counts its sign, and the block becomes its Schur complement
    W - w*w^T/p.  When the whole diagonal is zero but W[i][j] is not,
    adding row and column j to row and column i makes W[i][i] = 2 W[i][j],
    a congruence.  A zero block counts its size as zeros."""
    n = matrix.rows
    W = [[FractionQuad() for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(scalar_rows(matrix)):
        for j, x in row.items():
            W[i][j] = FractionQuad(Fraction(x.n, x.q), Fraction(x.r, x.q), x.d)
    counts = [0, 0, 0]
    while W:
        m = len(W)
        k = next((i for i in range(m) if W[i][i]), None)
        if k is None:
            hot = next(((i, j) for i in range(m) for j in range(m) if W[i][j]), None)
            if hot is None:
                counts[1] += m
                break
            k, j = hot
            W[k] = [x + y for x, y in zip(W[k], W[j])]
            for row in W:
                row[k] = row[k] + row[j]
        p = W[k][k]
        counts[p.sign() + 1] += 1
        rest = [i for i in range(m) if i != k]
        W = [[W[i][j] - W[i][k] * W[k][j] / p for j in rest] for i in rest]
    return tuple(counts)


def charpoly_dense(matrix: ExactMatrix) -> IntPolynomial:
    """det(xI - A) by the division-free Berkowitz scheme on a dense table,
    with r x r list products at step r."""
    if matrix.rows != matrix.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = matrix.rows
    A = []
    for i in range(n):
        row = []
        for e in matrix.row(i):
            if e.b != 0 or e.a.denominator != 1:
                raise NonIntegerEntries(f"entry {e.render()} is not an integer")
            row.append(int(e.a))
        A.append(row)
    v = [1]
    for r in range(n):
        t = [1, -A[r][r]]
        if r:
            R = A[r][:r]
            w = [A[i][r] for i in range(r)]
            for k in range(r):
                t.append(-sum(x * y for x, y in zip(R, w)))
                if k + 1 < r:
                    w = [
                        sum(A[i][j] * w[j] for j in range(r))
                        for i in range(r)
                    ]
        # Lower-triangular Toeplitz product: keep the first len(v)+1
        # convolution coefficients only.
        new = [0] * (len(v) + 1)
        for i, ti in enumerate(t):
            if ti:
                for j, vj in enumerate(v):
                    if i + j < len(new):
                        new[i + j] += ti * vj
        v = new
    return IntPolynomial(tuple(reversed(v)))


def spans_match_by_rank(vectors_a, vectors_b) -> bool:
    """Subspace equality by three ranks: span A = span B exactly when
    rank A = rank B = rank of A and B stacked."""
    if not vectors_a and not vectors_b:
        return True
    if bool(vectors_a) != bool(vectors_b):
        return False
    ra = rank_dense(ExactMatrix.from_rows(vectors_a))
    rb = rank_dense(ExactMatrix.from_rows(vectors_b))
    rc = rank_dense(ExactMatrix.from_rows(list(vectors_a) + list(vectors_b)))
    return ra == rb == rc


def counterexample_range_by_steps(mu_lower: int, base_chi: int):
    """The chi window below base_chi where heawood_gamma(chi) - 1 stays
    under mu_lower, found by walking chi down one step at a time."""
    hi = base_chi - 1
    chi, lo = hi, None
    while heawood_gamma(chi) - 1 < mu_lower:
        lo = chi
        chi -= 1
    return None if lo is None else (lo, hi)


def build_sap_system(op) -> tuple:
    """The primal transversality system of an operator, as (matrix,
    col_pairs).

    Rows are the ordered pairs (u, w) with u != w, grouped by w; columns
    are the non-adjacent unordered pairs {a, b} of col_pairs.  Entry
    ((u, w), {a, b}) is M[u][t] where t is the member of {a, b} distinct
    from w, or zero if neither member is w.  Full column rank means no
    nonzero admissible X solves M*X = 0.
    """
    n = op.graph.n
    adj = op.graph.adjacency()
    col_pairs = tuple(
        (a, b) for a in range(n) for b in range(a + 1, n) if b not in adj[a]
    )
    col_id = {pair: i for i, pair in enumerate(col_pairs)}
    # The pair {t, w} is a column only for t != w not adjacent to w.
    m = op.matrix
    rows = [
        {
            col: x
            for t, x in m.pairs[u].items()
            if (col := col_id.get((t, w) if t < w else (w, t))) is not None
        }
        for w in range(n)
        for u in range(n)
        if u != w
    ]
    return ExactMatrix(len(col_pairs), rows, m.scale, m.radicand), col_pairs


def coset_enumerate_by_tracing(presentation, subgroup=(), max_cosets=100000):
    """Right cosets of <subgroup> by relator tracing: the reference for
    coset_enumerate, returned in the same standard order.

    One scan takes each live coset in order, traces every relator from it,
    defining every missing coset on the way, and merges the trace's end
    with the start; then, if the coset is still live, defines its empty
    slots.  A merge collapses rows at once through a union-find.
    max_cosets bounds the rows ever allocated.
    """
    width = 2 * len(presentation.generators)

    def symbols(word):
        return [2 * (g - 1) if g > 0 else 2 * (-g - 1) + 1 for g in word]

    subgroup = tuple(free_reduce(w) for w in subgroup)
    labels, neighbors = [], []

    def new_vertex():
        if len(labels) >= max_cosets:
            raise CapExceeded(max_cosets)
        labels.append(len(labels))
        neighbors.append([-1] * width)
        return len(labels) - 1

    def find(v):
        root = v
        while labels[root] != root:
            root = labels[root]
        while labels[v] != root:
            labels[v], v = root, labels[v]
        return root

    def follow(v, s):
        v = find(v)
        t = neighbors[v][s]
        if t == -1:
            t = new_vertex()
            neighbors[v][s] = t
            neighbors[t][s ^ 1] = v
            return t
        return find(t)

    def trace(v, word):
        for s in symbols(word):
            v = follow(v, s)
        return v

    def unify(a, b):
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            labels[b] = a
            for s in range(width):
                t = neighbors[b][s]
                if t == -1:
                    continue
                u = neighbors[a][s]
                if u == -1:
                    neighbors[a][s] = t
                else:
                    stack.append((t, u))

    new_vertex()
    for word in subgroup:
        unify(trace(0, word), 0)
    v = 0
    while v < len(labels):
        if find(v) == v:
            for rel in presentation.relators:
                unify(trace(v, rel), v)
        if find(v) == v:
            for s in range(width):
                if neighbors[v][s] == -1:
                    follow(v, s)
        v += 1

    # Standard order: number the cosets as rows, then slots, first reach them.
    number = {0: 0}
    order = [0]
    for v in order:
        for s in range(width):
            t = find(neighbors[v][s])
            if t not in number:
                number[t] = len(order)
                order.append(t)
    action = tuple(
        tuple(number[find(neighbors[v][s])] for s in range(width)) for v in order
    )
    table = CosetTable(presentation.generators, subgroup, action)
    table.verify(presentation)
    return table


def drop_last_vector(kernel):
    """The Kernel record without its last vector and free column."""
    last = len(kernel.free) - 1
    rows = [{a: x for a, x in row.items() if a != last} for row in kernel.rows]
    return kernel._replace(free=kernel.free[:-1], rows=rows)


def repeat_last_vector(kernel):
    """The Kernel record with its last vector twice, at one free column."""
    last = len(kernel.free) - 1
    rows = [{**row, last + 1: row[last]} if last in row else row for row in kernel.rows]
    return kernel._replace(free=kernel.free + kernel.free[-1:], rows=rows)
