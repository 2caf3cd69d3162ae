"""Exact linear algebra over Q[sqrt(d)]: kernels, ranks mod p, inertia,
charpoly.

Matrices store each row's nonzero QuadScalar entries, and this module
reads only their int fields, never the Fraction parts .a and .b.
Products run on cleared integer pairs (a, b) for a + b*sqrt(d): each row
of the left factor and the whole right factor are scaled by the lcm of
their denominators q, the sums stay plain ints, and a QuadScalar is
built straight from ints only for a nonzero entry of the result, so
proving M*X = 0 builds none.  The one elimination is a sparse reduced
echelon over F_p, on the residues of pair_rows (each row cleared to
integer pairs) under sqrt(d) -> a root of d mod p, p from one table of
primes below 2^30.  It gives ranks mod p and kernels, rebuilt from
several primes by rational reconstruction and proved by the same
integer product: the matrix times the kernel is zero.  For a kernel the
rows enter the echelon by descending leading column, which cuts the
back-reduction.  Inertia comes from symmetric congruence elimination
on cleared-denominator integer pairs, one fused Bareiss step per pivot
with exact division by the previous pivot.  The characteristic
polynomial comes from the division-free Berkowitz scheme: each term
R*B^k*w is the dot product of a left and a right Krylov vector, about
k/2 sparse matrix-vector products each, and a symmetric matrix reuses
its right vectors as its left ones.  The real roots of a linear or
quadratic factor are exact QuadScalars.  No floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import NamedTuple

from .exactfield import ONE, ZERO, FieldMismatch, QuadScalar, pair_sign


class NotSymmetric(ValueError):
    """Operation requiring a symmetric matrix got an asymmetric one."""


class NonIntegerEntries(ValueError):
    """Operation requiring integer entries got fractional or irrational ones."""


class Inertia(NamedTuple):
    """Eigenvalue sign counts of a symmetric matrix."""

    negatives: int
    zeros: int
    positives: int


def _coerce(value) -> QuadScalar:
    if isinstance(value, QuadScalar):
        return value
    if isinstance(value, (int, Fraction)):
        # Most entries of a graph's matrix are zero; the shared ZERO saves
        # building one QuadScalar each.
        return QuadScalar(value) if value != 0 else ZERO
    raise TypeError(f"cannot use {type(value).__name__} as a matrix entry")


class ExactMatrix:
    """Sparse matrix of QuadScalar entries: `row_dicts` holds one
    {column: nonzero entry} dict per row, and every other entry is zero.

    All irrational entries must share one radicand d; `radicand` is that d,
    or 1 for a rational matrix.  Instances are not mutated after build.
    """

    __slots__ = ("rows", "cols", "row_dicts", "radicand")

    def __init__(self, cols: int, row_dicts, radicand: int | None = None):
        row_dicts = tuple(row_dicts)
        for row in row_dicts:
            for j, e in row.items():
                if not 0 <= j < cols:
                    raise ValueError(f"column {j} is outside [0, {cols})")
                if not e:
                    raise ValueError(f"zero stored at column {j}")
        if radicand is None:
            radicand = 1
            for row in row_dicts:
                for e in row.values():
                    if e.r:
                        if radicand == 1:
                            radicand = e.d
                        elif e.d != radicand:
                            raise FieldMismatch(
                                f"entries mix sqrt({radicand}) and sqrt({e.d})"
                            )
        object.__setattr__(self, "rows", len(row_dicts))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "row_dicts", row_dicts)
        object.__setattr__(self, "radicand", radicand)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: list) -> "ExactMatrix":
        ncols = len(rows[0]) if rows else 0
        row_dicts = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            row_dicts.append({j: e for j, x in enumerate(r) if (e := _coerce(x))})
        return cls(ncols, row_dicts)

    @classmethod
    def symmetric(cls, n: int, entries: dict) -> "ExactMatrix":
        """n x n matrix with x at (i, j) and at (j, i) for each (i, j): x in
        entries, and zero everywhere else."""
        row_dicts = [{} for _ in range(n)]
        for (i, j), x in entries.items():
            if e := _coerce(x):
                row_dicts[i][j] = row_dicts[j][i] = e
        return cls(n, row_dicts)

    def entry(self, i: int, j: int) -> QuadScalar:
        return self.row_dicts[i].get(j, ZERO)

    def row(self, i: int) -> list:
        r = self.row_dicts[i]
        return [r.get(j, ZERO) for j in range(self.cols)]

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.row_dicts[j].get(i) == e
            for i, row in enumerate(self.row_dicts)
            for j, e in row.items()
        )

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.cols == other.cols and self.row_dicts == other.row_dicts

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        """The exact product, computed on integer pairs: each row of self
        is cleared by the lcm of its denominators, other once by the lcm
        of all of its own, and a QuadScalar is built only for a nonzero
        entry of the product, divided back by the two scales.  Factors
        over two different irrational fields raise FieldMismatch, even
        where their irrational entries never meet."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        d = self.radicand
        if other.radicand != 1:
            if d not in (1, other.radicand):
                raise FieldMismatch(
                    f"cannot multiply sqrt({d}) by sqrt({other.radicand}) entries"
                )
            d = other.radicand
        scale, right = _cleared(other.row_dicts)
        out = []
        for row in self.row_dicts:
            row_scale, (pairs,) = _cleared((row,))
            q = row_scale * scale
            prod = _pair_product(pairs, right, d)
            out.append({j: QuadScalar(a, b, d, q=q) for j, (a, b) in prod.items()})
        return ExactMatrix(other.cols, out)

    def is_zero(self) -> bool:
        return not any(self.row_dicts)

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "field_d": self.radicand,
            "entries": [e.render() for i in range(self.rows) for e in self.row(i)],
        }


# ---------------------------------------------------------------------------
# One sparse reduced echelon over F_p, on {column: residue} rows.

# The eight largest primes p = 3 (mod 4) below 2^30, the first primes
# every elimination mod p tries.  Below 2^30 each residue is one CPython
# digit and a product of two stays under 2^60.  Each radicand is a square
# mod about half of them.
PRIMES = (
    1073741783,
    1073741723,
    1073741719,
    1073741671,
    1073741663,
    1073741651,
    1073741567,
    1073741527,
)


class PrimeCapExceeded(RuntimeError):
    """kernel_basis passed its prime cap, which only a fault can cause."""


def _subtract_mod_p(row: dict, f: int, pivot: dict, p: int) -> None:
    """row -= f*pivot over F_p, in place, with no zero left stored."""
    for col, w in pivot.items():
        # f and w are nonzero mod p, so a column new to row gets a nonzero
        # entry; only an existing one can cancel.
        v = (row.get(col, 0) - f * w) % p
        if v:
            row[col] = v
        else:
            del row[col]


def _echelon(rows, cols: int, p: int) -> dict:
    """Reduced echelon form over F_p of {column: residue} rows, residues in
    (0, p): the pivot rows by leading column, each normalized to leading
    entry 1 and back-reduced, so each pivot column appears in exactly one
    stored row.  The input dicts are copied, not modified.

    The reduced form is canonical whatever the row order, so callers that
    know their row structure can order rows for locality.  Once every
    column has a pivot no further row can change the form, so elimination
    stops there."""
    pivots: dict = {}
    for row in rows:
        row = dict(row)
        for c in sorted(row):
            # Elimination can only add columns no pivot owns, so a single
            # pass over the original support reaches a fully reduced row.
            pivot = pivots.get(c)
            if pivot is not None and c in row:
                _subtract_mod_p(row, row[c], pivot, p)
        if not row:
            continue
        lead = min(row)
        inv = pow(row[lead], -1, p)
        row = {col: v * inv % p for col, v in row.items()}
        for prow in pivots.values():
            if lead in prow:
                _subtract_mod_p(prow, prow[lead], row, p)
        pivots[lead] = row
        if len(pivots) == cols:
            break
    return pivots


def pair_rows(matrix: ExactMatrix) -> list:
    """The rows of matrix as {column: (a, b)} dicts of integers, a + b*sqrt(d)
    standing for the entry times the lcm of its row's denominators.  A
    positive scale per row keeps the rank and the right kernel."""
    return [_cleared((row,))[1][0] for row in matrix.row_dicts]


def _residues(pairs, p: int, r: int):
    """Pair rows mod p under sqrt(d) -> r, as {column: residue} dicts with
    zero residues dropped, each made only when the elimination asks for
    it."""
    for row in pairs:
        yield {col: v for col, (a, b) in row.items() if (v := (a + b * r) % p)}


def _root_mod_p(d: int, p: int) -> int:
    """A nonzero r with r^2 = d mod p, or 0 when there is none.  p is
    3 (mod 4), so r = d^((p+1)/4) whenever d is a square mod p.  r = 0
    (p divides d) would make sqrt(d) -> r and -r one image."""
    r = pow(d, (p + 1) // 4, p)
    return r if r and r * r % p == d % p else 0


def full_rank_prime(pairs, cols: int, d: int, primes) -> int | None:
    """The first prime p of primes at which sqrt(d) has a nonzero root r,
    if the pair rows have rank cols mod p under sqrt(d) -> r, else None.
    a + b*sqrt(d) -> a + b*r mod p is a ring homomorphism on integer pairs,
    so it maps each maximal minor to the same minor mod p, and full rank
    mod p proves full rank over the field.  pairs may be any iterable of
    pair rows, such as a generator: the elimination draws rows from it one
    at a time and stops at full rank, so the rows after that point are
    never made, and none at all when no prime is usable."""
    for p in primes:
        r = _root_mod_p(d, p)
        if r:
            return p if len(_echelon(_residues(pairs, p, r), cols, p)) == cols else None
    return None


def _primes_below(n: int):
    """The primes p = 3 (mod 4) below n, largest first: Miller-Rabin to the
    prime bases up to 37 is exact below 3.3e24 (Sorenson and Webster).  As
    p - 1 is twice an odd number, p passes base a exactly when a^((p-1)/2)
    = +-1 mod p, which no multiple of a but a itself can."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for m in range(n - 1 - (n - 4) % 4, 2, -4):
        if m in bases or all(pow(a, m >> 1, m) in (1, m - 1) for a in bases):
            yield m


def kernel_basis(matrix: ExactMatrix) -> list:
    """Basis of the right kernel as lists of QuadScalar, one per free column
    of the reduced echelon form over the field: vector f has 1 at free
    column f, 0 at the other free columns, and minus the pivot rows' entries
    in column f at the pivot columns.  This canonical basis depends only on
    the matrix.  It is pair_kernel_basis on the matrix's pair_rows, which
    scale each row of M by a positive integer and keep the kernel."""
    return pair_kernel_basis(pair_rows(matrix), matrix.cols, matrix.radicand)


def pair_kernel_basis(pairs, cols: int, d: int) -> list:
    """The canonical kernel basis of kernel_basis for the matrix DM with
    `cols` columns whose rows are the {column: (a, b)} dicts of pairs, a
    and b integers standing for a + b*sqrt(d); d counts as 1 when every b
    is 0.  pairs may be any iterable of rows, such as a generator.

    It is computed mod primes and proved exactly.  The primes are
    PRIMES and then _primes_below the last of them; p is usable
    when d has a nonzero root r mod p.  The reduced echelon form of DM mod
    p under sqrt(d) -> r and, for d > 1, -r gives the residues of the
    rational parts a and b of each entry of K.  Its rows go in by
    descending leading column, empty ones left out: the reduced form is
    the same in any row order, and a new pivot then often falls before
    every pivot stored, none of which holds an entry in its column to
    back-reduce.  A prime is skipped when its two images have different
    pivot sets, or fewer pivots than the best seen, or later ones at equal
    rank (compared as sorted lists); a better pivot set restarts the
    accumulation.  The residues are combined by the Chinese remainder
    theorem, and after each prime every a and b is rebuilt by rational
    reconstruction with bound sqrt(P/2), P the product of the primes
    accumulated.  K is returned at the first exact DM*K = 0 on the same
    integer pairs.  Soundness, for any accumulated prime p:

    - Reduction mod p is a ring homomorphism on the entries of DM, so
      rank_p <= rank_Q, whatever p divides: full rank mod p needs no check.
    - Each v_f of K has 1 at its free column f, 0 at the other free
      columns and its other entries at pivot columns before f.  So MK = 0
      gives nullity_Q >= |F| = nullity_p >= nullity_Q, F the free set mod
      p, and column f is a combination of earlier columns over the field.
      F is the free set over the field, and K its canonical basis.

    The work is bounded before the second prime.  Let bits be the sum over
    the rows of DM of the bit length of their sum of 2(a^2 + d*b^2): under
    either real embedding a row has squared length at most that sum, so
    by Hadamard's inequality the norm of every minor, and each numerator
    and denominator of every a and b (ratios of minors on the pivot rows),
    is below 2^bits.  A usable prime that does not divide the norm of the
    pivot minor gives the field's pivot set under both images, any prime
    that gives it under both gives true residues, and the others multiply
    to less than 2^bits.  So once the usable primes multiply to more than
    2^(3*bits + 1), P exceeds 2^(2*bits + 1), every reconstruction is true
    and the check passes.  Past that cap the loop raises PrimeCapExceeded.
    """
    pairs = sorted(filter(None, pairs), key=min, reverse=True)
    if d != 1 and not any(b for row in pairs for _, b in row.values()):
        d = 1
    best = images = cap = None
    modulus = used = 1
    for p in chain(PRIMES, _primes_below(PRIMES[-1])):
        r = _root_mod_p(d, p)
        if not r:
            continue
        used *= p
        plus = _echelon(_residues(pairs, p, r), cols, p)
        if len(plus) == cols:
            return []
        minus = plus if d == 1 else _echelon(_residues(pairs, p, p - r), cols, p)
        if minus.keys() == plus.keys():
            key = (-len(plus), sorted(plus))
            if best is None or key < best:
                best, images, modulus = key, {}, 1
            if key == best:
                images = _accumulate(images, modulus, plus, minus, p, r)
                modulus *= p
                basis = _lift(images, modulus, plus, pairs, cols, d)
                if basis is not None:
                    return basis
        if cap is None:
            bits = sum(
                (2 * sum(a * a + d * b * b for a, b in row.values())).bit_length()
                for row in pairs
            )
            cap = 1 << 3 * bits + 1
        if used > cap:
            break
    raise PrimeCapExceeded(f"no proved kernel from {used.bit_length()} bits of primes")


def _accumulate(images: dict, modulus: int, plus: dict, minus: dict, p: int, r: int):
    """images, residues mod modulus of the rational parts a and b of K's
    entries by (pivot column, free column), extended mod modulus*p by
    Garner's form of the Chinese remainder theorem (a missing entry is
    0).  Pivot row c of the echelon forms under sqrt(d) -> r and -r holds
    minus the entry at column f mod p."""
    half, half_root = pow(2, -1, p), pow(2 * r, -1, p)
    new = {}
    for c, prow in plus.items():
        mrow = minus[c]
        # For d = 1 both images are one dict, which a set union would copy.
        for f in prow if mrow is prow else prow.keys() | mrow.keys():
            if f != c:
                u, w = prow.get(f, 0), mrow.get(f, 0)
                new[c, f] = (-(u + w) * half % p, -(u - w) * half_root % p)
    if modulus == 1:
        return new
    inv = pow(modulus, -1, p)
    out = {}
    for key in images.keys() | new.keys():
        parts = zip(images.get(key, (0, 0)), new.get(key, (0, 0)))
        out[key] = tuple(x + modulus * ((u - x) * inv % p) for x, u in parts)
    return out


def _lift(images: dict, modulus: int, pivots: dict, pairs: list, cols: int, d: int):
    """K with the pivot columns of pivots, rebuilt from residues mod modulus,
    if every entry reconstructs and DM*K = 0 holds exactly; else None."""
    # K is kept twice, by free column: as the basis vectors and as its rows.
    basis = {f: [ZERO] * cols for f in range(cols) if f not in pivots}
    k_rows = [{} for _ in range(cols)]
    for f, vec in basis.items():
        vec[f] = k_rows[f][f] = ONE
    for (c, f), (ra, rb) in images.items():
        if not (ra or rb):
            continue
        a = _reconstruct(ra, modulus)
        b = _reconstruct(rb, modulus) if d != 1 else (0, 1)
        if a is None or b is None:
            return None
        (na, qa), (nb, qb) = a, b
        q = math.lcm(qa, qb)
        basis[f][c] = k_rows[c][f] = QuadScalar(na * (q // qa), nb * (q // qb), d, q=q)
    # The exact check DM*K = 0, on integer pairs with K cleared by one scale.
    _, k_rows = _cleared(k_rows)
    if any(_pair_product(row, k_rows, d) for row in pairs):
        return None
    return list(basis.values())


def _reconstruct(u: int, m: int) -> tuple | None:
    """The fraction n/k with |n|, k <= sqrt(m/2) and n = u*k mod m, as the
    ints (n, k) with k > 0 and gcd(n, k) = 1, or None.  Such a fraction
    is unique when it exists (Wang's half extended Euclidean algorithm)."""
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _cleared(rows) -> tuple:
    """(L, pair rows) for a sequence of {column: scalar} dicts: L is the
    lcm of all their denominators q, and each pair row maps the same
    columns to (n*L/q, r*L/q) as ints for the (n + r*sqrt(d))/q there."""
    # One lcm call per scalar: math.lcm(*generator) builds its argument
    # tuple by resizing, which leaves the freed tuples in the interpreter's
    # free lists and raised the peak memory of the bipartite sweep by 1 MB.
    scale = 1
    for row in rows:
        for x in row.values():
            if scale % x.q:
                scale = math.lcm(scale, x.q)
    return scale, [
        {j: (x.n * (f := scale // x.q), x.r * f) for j, x in row.items()}
        for row in rows
    ]


def _pair_product(row: dict, right: list, d: int) -> dict:
    """The nonzero entries of one row of a product, on integer pairs (a, b)
    for a + b*sqrt(d): row is a {k: pair} row of the left factor, and
    right[k] is row k of the right factor as a {j: pair} dict."""
    acc = {}
    for k, (xa, xb) in row.items():
        for j, (ya, yb) in right[k].items():
            sa, sb = acc.get(j, (0, 0))
            acc[j] = (sa + xa * ya + d * xb * yb, sb + xa * yb + xb * ya)
    return {j: pair for j, pair in acc.items() if pair != (0, 0)}


# ---------------------------------------------------------------------------
# Inertia by symmetric congruence.


def _swap_symmetric(W: list, i: int, j: int) -> None:
    W[i], W[j] = W[j], W[i]
    for row in W:
        row[i], row[j] = row[j], row[i]


def _bareiss_step(W: list, sp: int, prev: tuple, d: int) -> list:
    """One symmetric Bareiss step on the pair block W, whose pivot W[0][0]
    has sign sp: entry (i, j) of the result is (|p|*W[i][j] -
    sp*W[i][0]*W[0][j]) / prev for i, j >= 1, each a single integer
    expression on (a, b) pairs.  Dividing by prev multiplies by its
    conjugate and divides by its norm; a remainder means the elimination
    chain is broken and raises.  W is symmetric, so only j >= i is
    computed and the rest is mirrored."""
    top = W[0]
    sa, sb = sp * top[0][0], sp * top[0][1]
    qa, qb = prev
    # x / prev = x * (ka + kb*sqrt(d)) / norm.
    if qb:
        ka, kb, norm = qa, -qb, qa * qa - d * qb * qb
    else:
        ka, kb, norm = 1, 0, qa
    out = []
    for i in range(1, len(W)):
        ca, cb = top[i]
        ca, cb = sp * ca, sp * cb
        new = [row[i - 1] for row in out]
        for (wa, wb), (ea, eb) in zip(W[i][i:], top[i:]):
            x = wa * sa + d * (wb * sb - cb * eb) - ca * ea
            y = wa * sb + wb * sa - ca * eb - cb * ea
            if kb:
                x, y = x * ka + d * y * kb, y * ka + x * kb
            # A zero part, such as every irrational part of a rational
            # matrix, divides to zero and needs no division.
            x, rx = divmod(x, norm) if x else (0, 0)
            y, ry = divmod(y, norm) if y else (0, 0)
            if rx or ry:
                raise ArithmeticError("inexact division in the congruence chain")
            new.append((x, y))
        out.append(new)
    return out


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
    _, rows = _cleared(matrix.row_dicts)
    # One common scale clears every entry, so the matrix is symmetric
    # exactly when its integer pairs are.
    if matrix.rows != matrix.cols or any(
        rows[j].get(i) != pair for i, row in enumerate(rows) for j, pair in row.items()
    ):
        raise NotSymmetric(f"the {matrix.rows}x{matrix.cols} matrix is not symmetric")
    d = matrix.radicand
    W = [[row.get(j, (0, 0)) for j in range(matrix.cols)] for row in rows]
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
            W[k] = [(x[0] + y[0], x[1] + y[1]) for x, y in zip(W[k], W[j])]
            for row in W:
                row[k] = (row[k][0] + row[j][0], row[k][1] + row[j][1])
        if k:
            _swap_symmetric(W, 0, k)
        p = W[0][0]
        sp = pair_sign(p[0], p[1], d)
        if sp < 0:
            neg += 1
        else:
            pos += 1
        W = _bareiss_step(W, sp, prev, d)
        prev = (sp * p[0], sp * p[1])
    return Inertia(neg, zero, pos)


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


def factor_roots(factor: IntPolynomial) -> list:
    """The real roots of a linear or quadratic factor as QuadScalars, a
    double root twice; a quadratic of negative discriminant has none.
    Any other degree raises ValueError."""
    if factor.degree == 1:
        c, b = factor.coeffs
        return [QuadScalar(-c) / b]
    if factor.degree != 2:
        raise ValueError(f"factor {factor} is not linear or quadratic")
    c, b, a = factor.coeffs
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    r = QuadScalar.root(disc) if disc else ZERO
    return [(r - b) / (2 * a), (-r - b) / (2 * a)]


def charpoly(matrix: ExactMatrix) -> IntPolynomial:
    """Characteristic polynomial det(xI - A) of a square integer matrix,
    computed division-free by the Berkowitz scheme.  Always monic.

    Step r takes row r and column r of A up to index r, R and w, and the
    numbers t_k = R*B^k*w, k < r, with the leading r x r block B.  t_k is
    the dot product of l_h = R*B^h and u_(k-h) = B^(k-h)*w for h = k // 2,
    so step r makes about r/2 left and r/2 right matrix-vector products.
    When A is symmetric, R = w^T and B = B^T, so l_h = u_h and the right
    products alone serve.  B is kept as its nonzero (row, column, value)
    triples and gains row r and column r after step r, so each product
    costs the nonzeros of B, not r^2.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    rows = []
    for row in matrix.row_dicts:
        ints = {}
        for j, e in row.items():
            if e.r or e.q != 1:
                raise NonIntegerEntries(f"entry {e.render()} is not an integer")
            ints[j] = e.n
        rows.append(ints)
    symmetric = all(
        rows[j].get(i) == a for i, row in enumerate(rows) for j, a in row.items()
    )
    block = []
    v = [1]
    for r, row in enumerate(rows):
        t = [1, -row.get(r, 0)]
        right = [[rows[i].get(r, 0) for i in range(r)]]
        left = right if symmetric else [[row.get(j, 0) for j in range(r)]]
        if any(left[0]) and any(right[0]):
            for k in range(r):
                h = k // 2
                if h == len(left):
                    l, lb = left[-1], [0] * r
                    for i, j, a in block:
                        lb[j] += a * l[i]
                    left.append(lb)
                if k - h == len(right):
                    u, bu = right[-1], [0] * r
                    for i, j, a in block:
                        bu[i] += a * u[j]
                    right.append(bu)
                t.append(-sum(map(mul, left[h], right[k - h])))
        else:
            t += [0] * r
        # Lower-triangular Toeplitz product: keep the first len(v)+1
        # convolution coefficients only.
        v = [sum(map(mul, t[k::-1], v)) for k in range(len(t))]
        block += [(i, r, a) for i in range(r) if (a := rows[i].get(r))]
        block += [(r, j, a) for j, a in row.items() if j <= r]
    return IntPolynomial(tuple(reversed(v)))
