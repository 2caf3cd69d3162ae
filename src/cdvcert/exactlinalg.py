"""Exact linear algebra over Q[sqrt(d)]: rank, kernels, inertia, charpoly.

Matrices hold QuadScalar entries.  Rank and kernel computations run on a
sparse reduced echelon form with arithmetic directly in the field; pivot
rows are normalized and back-reduced, which keeps every stored entry a
ratio of minors.  Inertia comes from symmetric congruence elimination on
cleared-denominator integer pairs with exact pivot division, the
characteristic polynomial from the division-free Berkowitz scheme, and
real-root counting from Sturm chains.  No floating point anywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactfield import ONE, ZERO, FieldMismatch, QuadScalar, parse_scalar


class NotSymmetric(ValueError):
    """Operation requiring a symmetric matrix got an asymmetric one."""


class NonIntegerEntries(ValueError):
    """Operation requiring integer entries got fractional or irrational ones."""


class ZeroPolynomial(ValueError):
    """Root counting on the zero polynomial is undefined."""


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue sign counts of a symmetric matrix."""

    negatives: int
    zeros: int
    positives: int

    @property
    def size(self) -> int:
        return self.negatives + self.zeros + self.positives


def _coerce(value) -> QuadScalar:
    if isinstance(value, QuadScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return QuadScalar(value)
    raise TypeError(f"cannot use {type(value).__name__} as a matrix entry")


class ExactMatrix:
    """Dense matrix of QuadScalar entries, stored row-major.

    All irrational entries must share one radicand d; `radicand` is that d,
    or 1 for a rational matrix.  Instances are not mutated after build.
    """

    __slots__ = ("rows", "cols", "entries", "radicand")

    def __init__(self, rows: int, cols: int, entries: list, radicand: int | None = None):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("entry list does not match the declared shape")
        if radicand is None:
            radicand = 1
            for e in entries:
                if e.b != 0:
                    if radicand == 1:
                        radicand = e.d
                    elif e.d != radicand:
                        raise FieldMismatch(
                            f"entries mix sqrt({radicand}) and sqrt({e.d})"
                        )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "radicand", radicand)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: list) -> "ExactMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            entries.extend(_coerce(x) for x in r)
        return cls(nrows, ncols, entries)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        entries = [ZERO] * (n * n)
        for i in range(n):
            entries[i * n + i] = ONE
        return cls(n, n, entries)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [ZERO] * (rows * cols))

    def entry(self, i: int, j: int) -> QuadScalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.entry(i, j) == self.entry(j, i)
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def transpose(self) -> "ExactMatrix":
        entries = [
            self.entries[i * self.cols + j]
            for j in range(self.cols)
            for i in range(self.rows)
        ]
        return ExactMatrix(self.cols, self.rows, entries, self.radicand)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = ZERO
                for k, x in enumerate(ri):
                    if x:
                        y = other.entries[k * other.cols + j]
                        if y:
                            acc = acc + x * y
                out.append(acc)
        return ExactMatrix(self.rows, other.cols, out)

    def matvec(self, vec: list) -> list:
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        vec = [_coerce(x) for x in vec]
        out = []
        for i in range(self.rows):
            acc = ZERO
            for x, y in zip(self.row(i), vec):
                if x and y:
                    acc = acc + x * y
            out.append(acc)
        return out

    def is_zero(self) -> bool:
        return not any(self.entries)

    def sparse_rows(self) -> list:
        """One {column: entry} dict per row, zeros left out."""
        return [
            {j: e for j, e in enumerate(self.row(i)) if e} for i in range(self.rows)
        ]

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "field_d": self.radicand,
            "entries": [e.render() for e in self.entries],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExactMatrix":
        try:
            rows, cols, declared = data["rows"], data["cols"], data["field_d"]
            if any(type(x) is not int for x in (rows, cols, declared)):
                raise TypeError("'rows', 'cols' and 'field_d' must be ints")
            if not isinstance(data["entries"], list):
                raise TypeError("'entries' must be a list")
            m = cls(rows, cols, [parse_scalar(s) for s in data["entries"]])
        except (KeyError, TypeError) as exc:
            raise ValueError(
                "matrix data must be a JSON object with int 'rows', 'cols' "
                "and 'field_d' and an 'entries' list"
            ) from exc
        if declared != m.radicand and not (m.radicand == 1):
            raise ValueError(
                f"declared field_d {declared} but entries use sqrt({m.radicand})"
            )
        return m

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path) -> "ExactMatrix":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Sparse echelon machinery.  Rows are dicts column -> QuadScalar with no
# zeros stored; arithmetic happens directly in the field, and Fraction
# reduction keeps every intermediate entry at minor-ratio size.


def _pmul(x, y, d):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _pair_sign(x, d) -> int:
    a, b = x
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    sa = 1 if a > 0 else -1
    sb = 1 if b > 0 else -1
    if sa == sb:
        return sa
    return sa if a * a - d * b * b > 0 else sb


def _reduce_row(row: dict, pivot: dict, c) -> dict:
    """row - row[c]*pivot for a pivot row normalized to pivot[c] == 1."""
    f = row[c]
    out = {col: v for col, v in row.items() if col != c}
    for col, w in pivot.items():
        if col == c:
            continue
        t = f * w
        cur = out.get(col)
        if cur is None:
            out[col] = -t
        else:
            nv = cur - t
            if nv:
                out[col] = nv
            else:
                del out[col]
    return out


class _Echelon:
    """Reduced echelon accumulator.  Pivot rows are normalized to leading
    entry 1 and back-reduced on insert, so each pivot column appears in
    exactly one stored row."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict = {}

    def insert(self, row: dict) -> bool:
        for c in sorted(row):
            # Elimination can only add columns no pivot owns, so a single
            # pass over the original support reaches a fully reduced row.
            if c not in row:
                continue
            pivot = self.pivots.get(c)
            if pivot is not None:
                row = _reduce_row(row, pivot, c)
        if not row:
            return False
        lead = min(row)
        inv = row[lead].inverse()
        row = {col: v * inv for col, v in row.items()}
        row[lead] = ONE
        for c in [c for c, p in self.pivots.items() if lead in p]:
            self.pivots[c] = _reduce_row(self.pivots[c], row, lead)
        self.pivots[lead] = row
        return True


def _echelon_of(matrix, progress=None) -> _Echelon:
    # The reduced form is canonical whatever the insertion order, so callers
    # that know their row structure can order rows for locality; clustered
    # rows resolve cluster by cluster and collapse to near-singleton pivot
    # rows, which keeps later reductions cheap.  Once every column has a
    # pivot no further row can change the form, so elimination stops there.
    ech = _Echelon()
    rows = [r for r in matrix.sparse_rows() if r]
    ncols = matrix.cols
    for done, row in enumerate(rows):
        ech.insert(row)
        if progress is not None and (done + 1) % 64 == 0:
            progress(done + 1, len(rows), len(ech.pivots))
        if len(ech.pivots) == ncols:
            break
    return ech


def _rank_markowitz(matrix: ExactMatrix) -> int:
    """Destructive elimination picking the sparsest column, then the
    sparsest row within it.  Independent of the echelon path."""
    live = [r for r in matrix.sparse_rows() if r]
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
        inv = pivot[col].inverse()
        pivot = {c: v * inv for c, v in pivot.items()}
        pivot[col] = ONE
        rank += 1
        live = [
            _reduce_row(r, pivot, col) if col in r else r for r in live
        ]
        live = [r for r in live if r]
    return rank


def _rank_dense(matrix: ExactMatrix) -> int:
    """Textbook dense elimination over the field; the slow oracle.  Kept,
    with _rank_markowitz, as a test oracle for the echelon path."""
    work = [matrix.row(i) for i in range(matrix.rows)]
    rank = 0
    for col in range(matrix.cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        for i in range(rank + 1, len(work)):
            if work[i][col]:
                f = work[i][col] / pv
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def rank(matrix: ExactMatrix) -> int:
    """Exact rank by sparse reduced echelon with back-reduction."""
    return len(_echelon_of(matrix).pivots)


def kernel_basis(matrix, progress=None) -> list:
    """Basis of the right kernel as lists of QuadScalar, one per free column
    of the reduced echelon form.  Deterministic for a given matrix.

    `matrix` is an ExactMatrix or anything else with `cols` and a
    `sparse_rows()` list of {column: nonzero entry} dicts.  `progress`, if
    given, is called as progress(rows_done, nonzero_rows, pivots) every
    64 rows.
    """
    ech = _echelon_of(matrix, progress)
    basis = []
    for free in range(matrix.cols):
        if free in ech.pivots:
            continue
        vec = [ZERO] * matrix.cols
        vec[free] = ONE
        for c, prow in ech.pivots.items():
            if free in prow:
                vec[c] = -prow[free]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# Inertia by symmetric congruence.


def _require_symmetric(matrix: ExactMatrix) -> None:
    if matrix.rows != matrix.cols:
        raise NotSymmetric(f"matrix is {matrix.rows}x{matrix.cols}")
    for i in range(matrix.rows):
        for j in range(i + 1, matrix.cols):
            if matrix.entry(i, j) != matrix.entry(j, i):
                raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")


def _swap_symmetric(W: list, i: int, j: int) -> None:
    W[i], W[j] = W[j], W[i]
    for row in W:
        row[i], row[j] = row[j], row[i]


def _pdiv_exact(x, y, d):
    """Exact quotient x / y in Z[sqrt(d)]; raises if the division leaves a
    remainder, which would mean the elimination chain is broken."""
    a, b = y
    if b == 0:
        if a == 1:
            return x
        qa, ra = divmod(x[0], a)
        qb, rb = divmod(x[1], a)
    else:
        n = a * a - d * b * b
        ca, cb = _pmul(x, (a, -b), d)
        qa, ra = divmod(ca, n)
        qb, rb = divmod(cb, n)
    if ra or rb:
        raise ArithmeticError("inexact division in the congruence chain")
    return (qa, qb)


def inertia_symmetric(matrix: ExactMatrix) -> Inertia:
    """Exact (negatives, zeros, positives) by congruence elimination.

    Each step takes a 1x1 pivot p from the diagonal of the remaining block,
    scales the Schur step by |p| and divides by the previous |p|.  The
    block then holds |leading minor| times the Schur complement, so the
    division is exact (Bareiss) and entries stay at minor size; the scaling
    is positive, hence a congruence.  When the whole diagonal vanishes but
    W[i][j] does not, adding row and column j to row and column i makes
    W[i][i] = 2 W[i][j].  That is a congruence by a unimodular integer
    matrix on rows not yet eliminated, so it keeps the inertia and the
    leading minors, and the next division stays exact.
    """
    _require_symmetric(matrix)
    d = matrix.radicand
    scale = 1
    for e in matrix.entries:
        for den in (e.a.denominator, e.b.denominator):
            scale = scale * den // math.gcd(scale, den)
    n = matrix.rows
    W = [
        [
            (int(e.a * scale), int(e.b * scale))
            for e in matrix.row(i)
        ]
        for i in range(n)
    ]
    neg = zero = pos = 0
    prev = (1, 0)
    while W:
        m = len(W)
        k = next((i for i in range(m) if W[i][i] != (0, 0)), None)
        if k is None:
            hot = next(
                ((i, j) for i in range(m) for j in range(m) if W[i][j] != (0, 0)),
                None,
            )
            if hot is None:
                zero += m
                break
            k, j = hot
            W[k] = [_padd(x, y) for x, y in zip(W[k], W[j])]
            for row in W:
                row[k] = _padd(row[k], row[j])
        if k:
            _swap_symmetric(W, 0, k)
        p = W[0][0]
        sp = _pair_sign(p, d)
        if sp < 0:
            neg += 1
        else:
            pos += 1
        s = p if sp > 0 else (-p[0], -p[1])
        col = [W[i][0] for i in range(m)]
        W = [
            [
                _pdiv_exact(
                    _psub(
                        _pmul(W[i][j], s, d),
                        _pscale(_pmul(col[i], col[j], d), sp),
                    ),
                    prev,
                    d,
                )
                for j in range(1, m)
            ]
            for i in range(1, m)
        ]
        prev = s
    return Inertia(neg, zero, pos)


def _padd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _psub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _pscale(x, k: int):
    return (k * x[0], k * x[1])


def determinant(matrix: ExactMatrix) -> QuadScalar:
    """Exact determinant by dense elimination; meant for small matrices."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant needs a square matrix")
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


# ---------------------------------------------------------------------------
# Integer polynomials.


def _strip_coeffs(coeffs) -> tuple:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with integer coefficients, ascending by degree.

    The zero polynomial is the empty tuple; otherwise the last coefficient
    is nonzero.
    """

    coeffs: tuple = ()

    def __post_init__(self):
        coeffs = _strip_coeffs(self.coeffs)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be int, got {type(c).__name__}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(other * c for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = IntPolynomial((1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                x = "x" if i == 1 else f"x^{i}"
                body = x if mag == 1 else f"{mag}*{x}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def poly_expand_product(factors) -> IntPolynomial:
    """Product of (polynomial, multiplicity) factors; empty product is 1."""
    out = IntPolynomial((1,))
    for base, mult in factors:
        if mult < 0:
            raise ValueError("negative multiplicity")
        out = out * (base**mult)
    return out


def charpoly(matrix: ExactMatrix) -> IntPolynomial:
    """Characteristic polynomial det(xI - A) of an integer matrix, computed
    division-free by the Berkowitz scheme.  Always monic."""
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


# ---------------------------------------------------------------------------
# Sturm root counting over the positive axis.


def _frac_polymod(a: list, b: list) -> list:
    """Remainder of a by b over Fraction coefficient lists (ascending)."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        q = a[-1] / lead
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _sign_changes(signs: list) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for x, y in zip(seq, seq[1:]) if x != y)


def count_positive_real_roots(poly: IntPolynomial) -> int:
    """Number of distinct real roots in (0, infinity), multiplicity ignored.

    Factors out x^k first, then runs a Sturm chain between 0+ and infinity.
    """
    if poly.is_zero:
        raise ZeroPolynomial("cannot count roots of the zero polynomial")
    coeffs = list(poly.coeffs)
    while coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) == 1:
        return 0
    p0 = [Fraction(c) for c in coeffs]
    p1 = [Fraction(i * c) for i, c in enumerate(coeffs) if i]
    chain = [p0, p1]
    while any(chain[-1]):
        rem = _frac_polymod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    at_zero = [_sgn_frac(q[0]) for q in chain]
    at_inf = [_sgn_frac(q[-1]) for q in chain]
    return _sign_changes(at_zero) - _sign_changes(at_inf)


def _sgn_frac(x: Fraction) -> int:
    return (x > 0) - (x < 0)
