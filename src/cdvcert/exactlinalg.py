"""Exact linear algebra over Q[sqrt(d)]: the matrix format, ranks and
proved kernels from one sparse echelon over F_p, inertia by exact integer
congruence, and characteristic polynomials of integer matrices.

A matrix is integer pairs over one denominator (ExactMatrix), and every
layer here runs on those pairs, building a QuadScalar only when an entry
is asked for.  Nothing inverts in the field and no floating point is used
anywhere; each entry point's docstring holds its mechanism and proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, islice
from operator import mul
from typing import NamedTuple

from . import check
from .exactfield import ZERO, FieldMismatch, QuadScalar, pair_sign, squarefree_split


class NotSymmetric(ValueError):
    """Operation requiring a symmetric matrix got an asymmetric one."""


class NonIntegerEntries(ValueError):
    """Operation requiring integer entries got fractional or irrational ones."""


class Inertia(NamedTuple):
    """Eigenvalue sign counts of a symmetric matrix."""

    negatives: int
    zeros: int
    positives: int


class ExactMatrix:
    """Sparse matrix over Q[sqrt(d)] on integer pairs: `pairs` holds one
    {column: (a, b)} dict per row for the nonzero entries (a +
    b*sqrt(d))/scale, and every other entry is zero.

    ExactMatrix(cols, pairs, scale, radicand) takes the pairs as they are
    and brings them to a normal form: scale > 0, the gcd of scale and
    every a and b is 1, and `radicand` is 1 exactly when every b is 0, a
    squarefree d > 1 otherwise.  So equal matrices have equal fields.  A
    stored zero or a column outside [0, cols) raises ValueError.
    from_rows, symmetric and from_dicts build one from scalar entries.
    Instances are not mutated after build, so the `_kernel` slot keeps a
    kernel record once kernel_record or inertia_symmetric has proved it.
    Symmetry is not kept: inertia_symmetric and charpoly scan for it with
    check.symmetric on every call.
    """

    __slots__ = ("rows", "cols", "pairs", "scale", "radicand", "_kernel")

    def __init__(self, cols: int, pairs, scale: int = 1, radicand: int = 1):
        pairs = tuple(pairs)
        if not scale:
            raise ValueError("scale must be nonzero")
        g, irrational = abs(scale), False
        for row in pairs:
            for j, (a, b) in row.items():
                if not 0 <= j < cols:
                    raise ValueError(f"column {j} is outside [0, {cols})")
                if not (a or b):
                    raise ValueError(f"zero stored at column {j}")
                irrational = irrational or b != 0
                if g != 1:
                    g = math.gcd(g, a, b)
        if scale < 0:
            g = -g
        if g != 1:
            scale //= g
            pairs = tuple(
                {j: (a // g, b // g) for j, (a, b) in row.items()} for row in pairs
            )
        if not irrational:
            radicand = 1
        elif radicand < 2 or squarefree_split(radicand)[0] != 1:
            raise ValueError(f"radicand {radicand} is not a squarefree d > 1")
        values = (len(pairs), cols, pairs, scale, radicand, None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_dicts(cls, cols: int, rows) -> "ExactMatrix":
        """The matrix with `cols` columns and x at (i, j) for each j: x in
        the dict rows[i], x an int, Fraction or QuadScalar, and zero
        elsewhere.  The entries are cleared once, by the lcm of their
        denominators, and int entries build no QuadScalar.  Irrational
        entries over two radicands raise FieldMismatch."""
        scale, d, parts = 1, 1, []
        for row in rows:
            out = {}
            for j, x in row.items():
                if isinstance(x, QuadScalar):
                    n, r, q, e = x.n, x.r, x.q, x.d
                elif isinstance(x, int):
                    n, r, q, e = x, 0, 1, 1
                elif isinstance(x, Fraction):
                    n, r, q, e = x.numerator, 0, x.denominator, 1
                else:
                    raise TypeError(f"cannot use {type(x).__name__} as a matrix entry")
                if r:
                    if d not in (1, e):
                        raise FieldMismatch(f"entries mix sqrt({d}) and sqrt({e})")
                    d = e
                elif not n:
                    continue
                if scale % q:
                    scale = math.lcm(scale, q)
                out[j] = (n, r, q)
            parts.append(out)
        pairs = [
            {j: (n * (f := scale // q), r * f) for j, (n, r, q) in row.items()}
            for row in parts
        ]
        return cls(cols, pairs, scale, d)

    @classmethod
    def from_rows(cls, rows: list) -> "ExactMatrix":
        """from_dicts on dense rows of equal length; ragged rows raise
        ValueError."""
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls.from_dicts(ncols, [dict(enumerate(r)) for r in rows])

    @classmethod
    def symmetric(cls, n: int, entries: dict) -> "ExactMatrix":
        """n x n matrix with x at (i, j) and at (j, i) for each (i, j): x in
        entries, and zero everywhere else.  Each x is written to both
        places, so the matrix is symmetric by construction."""
        rows = [{} for _ in range(n)]
        for (i, j), x in entries.items():
            rows[i][j] = rows[j][i] = x
        return cls.from_dicts(n, rows)

    def entry(self, i: int, j: int) -> QuadScalar:
        x = self.pairs[i].get(j)
        return ZERO if x is None else QuadScalar(*x, self.radicand, q=self.scale)

    def row(self, i: int) -> list:
        return [self.entry(i, j) for j in range(self.cols)]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        fields = ("cols", "scale", "radicand", "pairs")
        return all(getattr(self, f) == getattr(other, f) for f in fields)

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
    """pair_kernel_basis passed its prime cap, which only a fault can cause."""


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


def _primes_below(n: int):
    """The primes p = 3 (mod 4) below n, largest first: Miller-Rabin to the
    prime bases up to 37 is exact below 3.3e24 (Sorenson and Webster).  As
    p - 1 is twice an odd number, p passes base a exactly when a^((p-1)/2)
    = +-1 mod p, which no multiple of a but a itself can."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for m in range(n - 1 - (n - 4) % 4, 2, -4):
        if m in bases or all(pow(a, m >> 1, m) in (1, m - 1) for a in bases):
            yield m


class Kernel(NamedTuple):
    """The canonical kernel basis K on integer pairs: vector a has its free
    column free[a], and rows[i] = {a: (x, y)} holds the nonzero entries
    K[i][a] = (x + y*sqrt(d))/scale.  scale is the lcm of their
    denominators and d is 1 when every y is 0, so equal kernels give equal
    records.  Records are shared: do not modify one."""

    free: tuple
    rows: list
    scale: int
    d: int


def row_scaled(rows: list, scale: int) -> list:
    """rows, {column: (a, b)} integer pairs over the positive scale, each
    divided by its gcd with scale, so over the lcm of its own denominators:
    a prime dividing scale but none of those leaves the row nonzero mod p.
    At scale 1 the rows come back as they are."""
    if scale == 1:
        return rows
    gs = [math.gcd(scale, *chain.from_iterable(row.values())) for row in rows]
    return [
        r if g == 1 else {j: (a // g, b // g) for j, (a, b) in r.items()}
        for g, r in zip(gs, rows)
    ]


def kernel_record(matrix: ExactMatrix) -> Kernel:
    """The Kernel record of matrix: pair_kernel_basis on its row_scaled
    pairs, which have its kernel, as each row is the matrix row times a
    positive number.  The rows go in by descending leading column, empty
    ones left out: the reduced form is the same in any row order, and a
    new pivot then often falls before every pivot stored, none of which
    holds an entry in its column to back-reduce.  Computed on the first
    call for a matrix and kept on it once check.unit_rows finds row
    free[a] to be e_a.  A matrix keeps no other record than a candidate
    inertia_symmetric has proved, so whatever record this returns is
    the kernel's canonical basis."""
    if matrix._kernel is None:
        rows = row_scaled(matrix.pairs, matrix.scale)
        rows = sorted(filter(None, rows), key=min, reverse=True)
        kernel, _ = pair_kernel_basis(rows, matrix.cols, matrix.radicand)
        check.unit_rows(kernel)
        object.__setattr__(matrix, "_kernel", kernel)
    return matrix._kernel


def kernel_basis(matrix: ExactMatrix) -> list:
    """Basis of the right kernel as lists of QuadScalar, one per free column
    of the reduced echelon form over the field: vector f has 1 at free
    column f, 0 at the other free columns, and minus the pivot rows' entries
    in column f at the pivot columns.  This canonical basis depends only on
    the matrix.  It is built from kernel_record(matrix) on every call, so
    each call returns fresh lists."""
    k, made = kernel_record(matrix), {}
    basis = [[ZERO] * matrix.cols for _ in k.free]
    for i, row in enumerate(k.rows):
        for a, x in row.items():
            basis[a][i] = made[x] = made.get(x) or QuadScalar(*x, k.d, q=k.scale)
    return basis


def pair_kernel_basis(pairs, cols: int, d: int) -> tuple:
    """(K, p), K the Kernel record of kernel_basis for the matrix DM with
    `cols` columns whose rows are the {column: (a, b)} dicts of pairs, a
    and b integers standing for a + b*sqrt(d); d counts as 1 when every b
    is 0.  p is the prime whose image had full rank, so K is empty; None
    when the rank falls short.  This one call ranks or kernels DM.

    It is computed mod primes and proved exactly.  The primes are
    PRIMES and then _primes_below the last of them; p is usable
    when d has a nonzero root r mod p.  a + b*sqrt(d) -> a + b*r mod p is
    a ring homomorphism on integer pairs, so it maps each maximal minor
    to the same minor mod p, and full rank mod p (cols pivots) proves
    full rank over the field.  pairs may be any iterable of rows, such as
    a generator: the first image draws rows from it one at a time and
    stops at full rank, so the rows after that point are never made.
    Short of full rank it has drawn every row, and the nonempty ones are
    kept for every later image, the lift and the cap.

    The reduced echelon form of DM mod p under sqrt(d) -> r and, for
    d > 1, -r gives the residues of the rational parts a and b of each
    entry of K.  A prime is skipped when its two images have different
    pivot sets, or fewer pivots than the best seen, or later ones at equal
    rank (compared as sorted lists); a better pivot set restarts the
    accumulation.  The residues are combined by the Chinese remainder
    theorem, and after each prime every a and b is rebuilt by rational
    reconstruction with bound sqrt(P/2), P the product of the primes
    accumulated.  K is returned at the first exact DM*K = 0 on the integer
    pairs of DM and of the record.  Soundness, for any accumulated prime p:

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
    kept = []
    rows = (kept.append(row) or row for row in pairs if row)
    best = images = cap = None
    modulus = used = 1
    for p in chain(PRIMES, _primes_below(PRIMES[-1])):
        r = _root_mod_p(d, p)
        if not r:
            continue
        used *= p
        plus = _echelon(_residues(rows, p, r), cols, p)
        if len(plus) == cols:
            return Kernel((), [{} for _ in range(cols)], 1, 1), p
        if cap is None:
            rows = kept
            if d != 1 and not any(b for row in kept for _, b in row.values()):
                d = 1
            bits = sum(
                (2 * sum(a * a + d * b * b for a, b in row.values())).bit_length()
                for row in kept
            )
            cap = 1 << 3 * bits + 1
        minus = plus if d == 1 else _echelon(_residues(kept, p, p - r), cols, p)
        if minus.keys() == plus.keys():
            key = (-len(plus), sorted(plus))
            if best is None or key < best:
                best, images, modulus = key, {}, 1
            if key == best:
                images = _accumulate(images, modulus, plus, minus, p, r)
                modulus *= p
                kernel = _lift(images, modulus, plus, kept, cols, d)
                if kernel is not None:
                    return kernel, None
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
    """The Kernel record of K with the pivot columns of pivots, rebuilt from
    residues mod modulus, if DM*K = 0 holds exactly on its pairs; else None."""
    bound, scale, parts = math.isqrt(modulus // 2), 1, []
    free = tuple(f for f in range(cols) if f not in pivots)
    for (c, f), residues in images.items():
        a, b = (_reconstruct(u, modulus, bound) if u else (0, 1) for u in residues)
        if a is None or b is None:
            return None
        scale = math.lcm(scale, a[1], b[1])
        parts.append((c, f, a, b))
    rows = [{} for _ in range(cols)]
    for a, f in enumerate(free):
        rows[f][a] = (scale, 0)
    vector = {f: a for a, f in enumerate(free)}
    for c, f, (na, qa), (nb, qb) in parts:
        rows[c][vector[f]] = (na * (scale // qa), nb * (scale // qb))
    if not check.annihilates(pairs, rows, d):
        return None
    return Kernel(free, rows, scale, d if any(b[0] for *_, b in parts) else 1)


def _reconstruct(u: int, m: int, bound: int) -> tuple | None:
    """The fraction n/k with |n|, k <= bound = isqrt(m // 2) and n = u*k mod
    m, as ints (n, k) with k > 0 and gcd(n, k) = 1, or None; it is unique
    when it exists (Wang's half extended Euclidean algorithm)."""
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def pair_product(row: dict, right: list, d: int) -> dict:
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


def inertia_symmetric(matrix: ExactMatrix, kernel: Kernel | None = None) -> Inertia:
    """Exact (negatives, zeros, positives) from the proved kernel and a
    congruence elimination of the nonsingular block it leaves.  Both run
    on the matrix's pairs, scale*M with scale > 0, which has the kernel
    and the inertia of M.

    K is kernel_record(matrix), with MK = 0 proved exactly, or else the
    candidate `kernel` of a caller that knows it, such as a combinatorial
    basis.  A matrix that keeps a record already refuses a candidate, and
    check.kernel_candidate checks one on the matrix's own pairs: unit
    rows, canonical shape, normal form and MK = 0.  F is the set of K's
    free columns and P the other columns.  Elimination runs on M_PP only:

    - check.unit_rows found row f_a of K to be the unit vector e_a, so the
      vectors are independent, and MK = 0 gives nullity(M) >= |F|.
    - The elimination below finds |P| nonzero pivots on M_PP, so M_PP is
      nonsingular and rank(M) >= |P|.
    - So rank(M) = |P|, the Schur complement M_FF - M_FP M_PP^-1 M_PF is
      zero, and M is congruent to M_PP + 0 (direct sum).  By Haynsworth's
      inertia additivity, In(M) = In(M_PP) + (0, |F|, 0).

    The corank thus rests on two exact facts that check each other, and
    not on the mod-p argument that found K.  A singular M_PP, which only
    a kernel missing a vector can leave, raises RuntimeError.  A candidate
    is kept as the matrix's record only once the pivots are found: then
    nullity(M) = |F|, each free[a] is a free column of the reduced
    echelon form (vector a ends at free[a], so that column is a
    combination of earlier ones), and vector a is the one kernel vector
    with 1 at free[a] and 0 at the other free columns.  So the record is
    the one kernel_record would compute, and a failed check or a
    singular block keeps nothing.

    The elimination is Bareiss's multistep one (Math. Comp. 22, 1968), in
    rounds on a pair block W that starts as M_PP with prev = 1.  Each
    round takes the independent pivots I of W that _independent_pivots
    chooses, nonzero diagonal entries m_i with zeros between them, and
    _congruence_step eliminates them all: W becomes (L*W_JJ - sum over i
    of c_i W_Ji W_iJ) / prev^|I| on the other indices J, with L = prod
    |m_i| and c_i = L/m_i, and prev becomes L / prev^(|I|-1).

    - W is |det D| times the Schur complement of D in M_PP, and prev is
      |det D|, for D the block of the pivots taken so far (Sylvester's
      identity).  A round adds the diagonal W_II to D, so every new entry
      is a minor of M_PP up to sign, and each division is exact.
    - The factor |det D| > 0 keeps the signs, so by Haynsworth's
      additivity In(M_PP) is the count of the signs of all the m_i.
    - When the whole diagonal of W vanishes but W[k][j] does not, adding
      row and column j to row and column k makes W[k][k] = 2 W[k][j], the
      round's one pivot.  That is a congruence by a unimodular integer
      matrix on rows not yet eliminated, so it keeps the inertia and the
      leading minors, and the divisions stay exact.  A W that is all zero
      is singular and raises the RuntimeError above.
    """
    if not check.symmetric(matrix.pairs, matrix.cols):
        raise NotSymmetric(f"the {matrix.rows}x{matrix.cols} matrix is not symmetric")
    if kernel is None:
        kernel = kernel_record(matrix)
    elif matrix._kernel is not None:
        raise RuntimeError("the matrix already keeps a kernel record")
    else:
        check.kernel_candidate(matrix.pairs, matrix.cols, matrix.radicand, kernel)
    d, rows = matrix.radicand, matrix.pairs
    free = set(kernel.free)
    block = [j for j in range(matrix.cols) if j not in free]
    W = [[rows[i].get(j, (0, 0)) for j in block] for i in block]
    neg, prev = 0, (1, 0)
    while W:
        pivots = _independent_pivots(W)
        if not pivots:
            m = len(W)
            hot = next(
                ((i, j) for i in range(m) for j in range(m) if W[i][j] != (0, 0)),
                None,
            )
            if hot is None:
                raise RuntimeError(
                    f"the {len(block)}x{len(block)} block off the kernel's free "
                    "columns is singular: the kernel misses a vector"
                )
            k, j = hot
            W[k] = [(x[0] + y[0], x[1] + y[1]) for x, y in zip(W[k], W[j])]
            for row in W:
                row[k] = (row[k][0] + row[j][0], row[k][1] + row[j][1])
            pivots = [k]
        signs = [pair_sign(*W[i][i], d) for i in pivots]
        neg += signs.count(-1)
        if len(pivots) == len(W):
            break  # the last round leaves no block to rewrite
        W, prev = _congruence_step(W, pivots, signs, prev, d)
    object.__setattr__(matrix, "_kernel", kernel)
    return Inertia(neg, len(free), len(block) - neg)


def _independent_pivots(W: list) -> list:
    """The indices I of the symmetric pair block W taken in order: k joins
    when W[k][k] is nonzero and W[k][i] is zero for every i taken before
    it, so W_II is diagonal and nonsingular.  Each pivot taken drops its
    neighbours from the candidates left."""
    chosen, live = [], [k for k, row in enumerate(W) if row[k] != (0, 0)]
    while live:
        row = W[live[0]]
        chosen.append(live[0])
        live = [j for j in live if row[j] == (0, 0)]
    return chosen


def _pair_mul(x: tuple, y: tuple, d: int) -> tuple:
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _quotient(x: int, y: int, ka: int, kb: int, norm: int, d: int) -> tuple:
    """The pair (x + y*sqrt(d)) / q for the pair q with conjugate ka +
    kb*sqrt(d) and the int norm = q * conjugate, as _congruence_step
    divides its entries.  A remainder means the elimination chain is
    broken and raises RuntimeError."""
    if kb:
        x, y = x * ka + d * y * kb, y * ka + x * kb
    x, rx = divmod(x, norm) if x else (0, 0)
    y, ry = divmod(y, norm) if y else (0, 0)
    if rx or ry:
        raise RuntimeError("inexact division in the congruence chain")
    return x, y


def _congruence_step(W: list, pivots: list, signs: list, prev: tuple, d: int) -> tuple:
    """(W', prev') after one multistep round on the symmetric pair block W
    over independent pivots I, as _independent_pivots gives, whose m_i =
    W[i][i] have the signs s_i:

        W' = (L*W_JJ - sum over i of c_i W_Ji W_iJ) / prev^|I|
        prev' = L / prev^(|I|-1)

    on the other indices J, in order, with L = prod |m_i| and c_i = L/m_i
    = s_i * prod |m_k| over k != i.  Row a of W' is one fused pass of
    (L*W_aJ - t*e) / prev^|I|, each entry one integer expression on the
    pairs with _quotient inlined: t = c_i W_ai and e = W_iJ for the first
    pivot i, and each further pivot j with W_aj nonzero is summed into e
    first, with t = 1 after it.  W' is symmetric, so only its entries on
    and above the diagonal are computed and the rest is mirrored."""
    keep = [True] * len(W)
    for i in pivots:
        keep[i] = False
    # L, Q = prev^|I| and the c_i, built pivot by pivot.
    s, i = signs[0], pivots[0]
    L, Q, coefs = (s * W[i][i][0], s * W[i][i][1]), prev, [(s, 0)]
    for s, i in zip(signs[1:], pivots[1:]):
        m = (s * W[i][i][0], s * W[i][i][1])
        coefs = [_pair_mul(c, m, d) for c in coefs] + [(s * L[0], s * L[1])]
        L, Q = _pair_mul(L, m, d), _pair_mul(Q, prev, d)
    # x / Q = x * (ka + kb*sqrt(d)) / norm.
    qa, qb = Q
    ka, kb, norm = (qa, -qb, qa * qa - d * qb * qb) if qb else (1, 0, qa)
    terms = [(c, i, list(compress(W[i], keep))) for c, i in zip(coefs, pivots)]
    ((ca, cb), i, h), rest = terms[0], terms[1:]
    La, Lb = L
    out = []
    for r, row in enumerate(compress(W, keep)):
        xa, xb = row[i]
        ta, tb, e = ca * xa + d * cb * xb, ca * xb + cb * xa, h[r:]
        for c, j, g in rest:
            if row[j] != (0, 0):
                ua, ub = _pair_mul(c, row[j], d)
                e = [
                    (ta * pa + d * tb * pb + ua * ya + d * ub * yb,
                     ta * pb + tb * pa + ua * yb + ub * ya)
                    for (pa, pb), (ya, yb) in zip(e, g[r:])
                ]
                ta, tb = 1, 0
        new = [o[r] for o in out]
        for (wa, wb), (ea, eb) in zip(islice(compress(row, keep), r, None), e):
            x = La * wa + d * (Lb * wb - tb * eb) - ta * ea
            y = La * wb + Lb * wa - ta * eb - tb * ea
            if kb:
                x, y = x * ka + d * y * kb, y * ka + x * kb
            # A zero part, such as every irrational part of a rational
            # matrix, divides to zero and needs no division.
            x, rx = divmod(x, norm) if x else (0, 0)
            y, ry = divmod(y, norm) if y else (0, 0)
            if rx or ry:
                raise RuntimeError("inexact division in the congruence chain")
            new.append((x, y))
        out.append(new)
    return out, _quotient(*_pair_mul(L, prev, d), ka, kb, norm, d)


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
    """Characteristic polynomial det(xI - A) of a symmetric integer
    matrix, computed division-free by the Berkowitz scheme.  Always
    monic; any other matrix raises NotSymmetric or NonIntegerEntries.

    Step r takes row r of A up to index r, R, and the numbers
    t_k = R*B^k*R^T, k < r, with the leading r x r block B.  B is
    symmetric, so t_k is the dot product of u_h and u_(k-h), with
    u_i = B^i*R^T and h = k // 2, and step r makes about r/2
    matrix-vector products.  B gains row and column r after step r and is
    kept as two lists of its nonzeros: the index pairs (i, j), i < j, of
    its entries 1 off the diagonal, each of which adds at both ends, and
    (row, column, value) triples for the rest.  So each product costs
    the nonzeros of B, not r^2, and a 0/1 adjacency multiplies none.
    """
    if not check.symmetric(matrix.pairs, matrix.cols):
        raise NotSymmetric("charpoly needs a symmetric matrix")
    if matrix.scale != 1 or matrix.radicand != 1:
        raise NonIntegerEntries("charpoly needs integer entries")
    # The pairs are (a, 0) for the integer entries a.
    zero, block = (0, 0), ([], [])
    v = [1]
    for r, row in enumerate(matrix.pairs):
        t = [1, -row.get(r, zero)[0]]
        u = [[row.get(j, zero)[0] for j in range(r)]]
        if any(u[0]):
            for k in range(r):
                h = k // 2
                if k - h == len(u):
                    u.append(_block_times(u[-1], *block))
                t.append(-sum(map(mul, u[h], u[k - h])))
        else:
            t += [0] * r
        # Lower-triangular Toeplitz product: keep the first len(v)+1
        # convolution coefficients only.
        v = [sum(map(mul, t[k::-1], v)) for k in range(len(t))]
        _split_entries(r, row, block)
    return IntPolynomial(tuple(reversed(v)))


def _split_entries(r: int, row: dict, lists: tuple) -> None:
    """Add row r of a symmetric A, up to its diagonal, to the block held as
    lists = (ones, rest): an entry 1 at column j < r goes to ones as
    (j, r) and stands for (r, j) as well; any other entry off the
    diagonal goes to rest as (j, r, a) and (r, j, a), and the diagonal
    entry once."""
    ones, rest = lists
    for j, (a, _) in row.items():
        if j < r:
            if a == 1:
                ones.append((j, r))
            else:
                rest += ((j, r, a), (r, j, a))
        elif j == r:
            rest.append((r, r, a))


def _block_times(u: list, ones: list, rest: list) -> list:
    """B*u for the symmetric block B held by _split_entries as ones and
    rest: each entry 1 adds a coordinate of u, and only the rest
    multiply."""
    out = [0] * len(u)
    for i, j in ones:
        out[i] += u[j]
        out[j] += u[i]
    for i, j, a in rest:
        out[i] += a * u[j]
    return out
