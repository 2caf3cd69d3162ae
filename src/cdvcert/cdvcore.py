"""Discrete Schrodinger operators on graphs and exact rank certificates.

An operator M on a graph G is symmetric, strictly negative on edges, zero
on non-adjacent pairs, unconstrained on the diagonal, and must have
exactly one negative eigenvalue.  It is built from what is free in it, the
graph, the diagonal and one weight per edge, and stored once, as its exact
matrix over integer pairs.  The certified quantities are its corank, and
full rank of the transversality system: the linear map sending a
symmetric matrix X supported on non-adjacent pairs to the off-diagonal
entries of M*X.  Full rank rules out any nonzero such X with M*X = 0 and
is what makes the corank a genuine lower-bound certificate.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from itertools import chain, combinations

from . import check
from .exactfield import MAX_RADICAND, pair_sign, parse_scalar, squarefree_split
from .exactlinalg import (
    PRIMES,
    ExactMatrix,
    Inertia,
    Kernel,
    adopt_kernel,
    full_rank_prime,
    inertia_symmetric,
    kernel_record,
    pair_kernel_basis,
    pair_product,
    row_scaled,
)
from .maps import SimpleGraph


_OFF_DIAGONAL_FORMAT = (
    "off_diagonal data must be a JSON object that maps each edge at most "
    "once, as 'u,v' with decimal vertex numbers, to a scalar"
)


class SignPatternViolation(ValueError):
    """Matrix entry with the wrong sign for its graph position."""


class NotOneNegative(ValueError):
    """Operator candidate whose negative eigenvalue count is not one."""

    def __init__(self, inertia: Inertia):
        super().__init__(
            f"expected exactly one negative eigenvalue, inertia is "
            f"({inertia.negatives}, {inertia.zeros}, {inertia.positives})"
        )
        self.inertia = inertia


class BadS(ValueError):
    """Diagonal support set incompatible with the bipartite construction."""


class SystemTooLarge(ValueError):
    """Transversality dual above MAX_SAP_SLOTS, refused before any elimination."""


# Largest vertex count an operator file or a bipartite a + b may have.
# The operator matrix stores only its nonzeros, but inertia copies its
# nonsingular block, n - c rows for the corank c, into a dense table of
# integer pairs and eliminates it in rounds.  A round takes the diagonal
# pivots with zeros between them and rewrites the rest, m rows, in about
# m^2 steps.  A complete graph takes one pivot a round, so O((n - c)^3)
# steps in all.  The genus-10 certificate needs 54 vertices, a 38 x 38
# block and 24 rounds: 13 pivots, then 3, then one each from 22 rows.
MAX_OPERATOR_VERTICES = 400

# Largest slot count of the transversality dual check_sap builds, taken as
# max(rows, cols) x cols so that it also covers the dual's kernel.  The
# genus-10 dual is 270 x 136: 36,720 slots.
MAX_SAP_SLOTS = 5_000_000


@dataclass
class SchrodingerOperator:
    """A graph and its operator matrix, built from a diagonal and one
    weight per edge in graph.edges order: init-only int, Fraction or
    QuadScalar entries, read once into `matrix` and not kept.

    Every other off-diagonal entry is zero by construction.  `matrix` is
    the one stored copy of the operator's numbers, and keeps its kernel
    once kernel_record has computed it, so membership, check_sap and any
    caller share one kernel.  inertia and epsilon are never passed in:
    check_membership sets inertia once it holds, and
    build_bipartite_operator sets epsilon, so each stays None until the
    code that proves it has run.
    """

    graph: SimpleGraph
    diagonal: InitVar[list]
    weights: InitVar[list]
    epsilon: Fraction | None = field(default=None, init=False)
    inertia: Inertia | None = field(default=None, init=False)
    matrix: ExactMatrix = field(init=False, repr=False)

    def __post_init__(self, diagonal, weights):
        if len(diagonal) != self.graph.n:
            raise ValueError("diagonal length does not match the graph")
        if len(weights) != self.graph.edge_count:
            raise ValueError("weights length does not match the edge count")
        entries = dict(zip(self.graph.edges, weights))
        entries.update(((i, i), x) for i, x in enumerate(diagonal))
        self.matrix = ExactMatrix.symmetric(self.graph.n, entries)

    @property
    def corank(self) -> int | None:
        """inertia.zeros, or None before check_membership."""
        return None if self.inertia is None else self.inertia.zeros

    def to_json_dict(self) -> dict:
        m = self.matrix
        off = {
            f"{u},{v}": w.render()
            for u, v in self.graph.edges
            if (w := m.entry(u, v)) != -1
        }
        data = {
            "graph": self.graph.to_json_dict(),
            "field_d": m.radicand,
            "diagonal": [m.entry(i, i).render() for i in range(m.rows)],
        }
        if off:
            data["off_diagonal"] = off
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "SchrodingerOperator":
        try:
            graph = SimpleGraph.from_json_dict(data["graph"])
            if graph.n > MAX_OPERATOR_VERTICES:
                raise ValueError(
                    f"operator data must be on at most {MAX_OPERATOR_VERTICES} "
                    f"vertices, got {graph.n}"
                )
            if not isinstance(data["diagonal"], list):
                raise TypeError("'diagonal' must be a list")
            diagonal = [parse_scalar(s) for s in data["diagonal"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(
                "operator data must be a JSON object with 'graph' and a "
                "'diagonal' list"
            ) from exc
        declared = data.get("field_d")
        if "field_d" in data and type(declared) is not int:
            raise ValueError("operator data must be an object whose 'field_d' is an int")
        # The bound comes first, so a huge field_d starts no trial division.
        if declared is not None and not (
            1 <= declared <= MAX_RADICAND and squarefree_split(declared)[0] == 1
        ):
            raise ValueError(
                f"operator data must name a field: 'field_d' {declared} is not "
                f"a squarefree int in [1, {MAX_RADICAND}]"
            )
        off_diagonal = data.get("off_diagonal", {})
        if not isinstance(off_diagonal, dict):
            raise ValueError(_OFF_DIAGONAL_FORMAT)
        overrides = {}
        for key, text in off_diagonal.items():
            m = re.fullmatch(r"([0-9]+),([0-9]+)", key)
            edge = tuple(sorted(int(t) for t in m.groups())) if m else None
            if edge is None or edge in overrides:
                raise ValueError(f"{_OFF_DIAGONAL_FORMAT}; got key {key!r}")
            overrides[edge] = parse_scalar(text)
        op = build_operator(graph, diagonal, overrides)
        d = op.matrix.radicand
        if declared is not None and d != 1 and d != declared:
            raise ValueError(
                f"operator data must be over its declared field_d {declared}, "
                f"but entries use sqrt({d})"
            )
        return op

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path) -> "SchrodingerOperator":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def build_operator(graph: SimpleGraph, diagonal, overrides=None) -> SchrodingerOperator:
    """The given diagonal, and weight -1 on each edge not in overrides."""
    overrides = overrides or {}
    for key in overrides:
        if not graph.has_edge(*key):
            raise ValueError(f"override key {key} is not an edge")
    weights = [overrides.get(e, -1) for e in graph.edges]
    return SchrodingerOperator(graph, diagonal, weights)


def build_shift_operator(graph: SimpleGraph, shift) -> SchrodingerOperator:
    """shift * I - A, the adjacency operator shifted onto the diagonal."""
    return build_operator(graph, [shift] * graph.n)


def check_membership(op: SchrodingerOperator) -> Inertia:
    """Certify negative edge weights and exactly one negative eigenvalue;
    fills inertia, and with it corank, on success.  Each edge's sign is
    read from op.matrix's integer pair over its positive scale, where an
    edge entry of zero is stored as no pair at all and fails too.  Entries
    off the graph are zero by construction.  The inertia computes the
    kernel of op.matrix, which the matrix keeps for check_sap."""
    m = op.matrix
    for u, v in op.graph.edges:
        if pair_sign(*m.pairs[u].get(v, (0, 0)), m.radicand) >= 0:
            raise SignPatternViolation(
                f"edge ({u},{v}) entry {m.entry(u, v).render()} is not negative"
            )
    inertia = inertia_symmetric(op.matrix)
    if inertia.negatives != 1:
        raise NotOneNegative(inertia)
    op.inertia = inertia
    return inertia


@dataclass(frozen=True)
class SapCertificate:
    """Outcome of the transversality check: either full column rank, or a
    verified nonzero witness X with M*X = 0 and the admissible pattern.

    rows, cols and rank describe the primal system (one row per ordered
    pair u != w, one column per non-adjacent pair) whichever way the
    verdict was reached; the primal system itself is never built.
    dual_shape is the shape of the whole dual system of check_sap, one row
    per vertex and per edge and one column per unknown of the symmetric
    c x c matrix S, set for every corank c >= 1, though check_sap ranks
    only the part its canonical kernel leaves free.  prime is the prime
    modulo which that part had full rank.  prime is None in three cases:
    corank 0 (dual_shape None too) and no unknown left to rank, where full
    rank holds by proof and nothing is eliminated, and the exact path,
    where the verdict comes from the exact dual kernel.
    """

    full_rank: bool
    rank: int
    rows: int
    cols: int
    witness: ExactMatrix | None = None
    prime: int | None = None
    dual_shape: tuple | None = None


def check_sap(op: SchrodingerOperator) -> SapCertificate:
    """Decide full rank of the transversality system exactly.

    Runs membership first if the operator has no inertia certificate yet.

    Lemma: the primal kernel is {admissible X : M*X = 0}, admissible
    meaning symmetric and zero on the diagonal and on edges.  The system
    fixes the off-diagonal entries of M*X, and (M*X)_uu = sum_t M_ut*X_tu
    vanishes term by term: M is nonzero only on the diagonal and on edges,
    where X is zero.

    So for corank c = 0, M is invertible, X = 0, and the system has full
    column rank without being built.  For c >= 1, with K the exact n x c
    kernel record of M that inertia already computed and M keeps, each
    such X is K*S*K^T for a unique symmetric c x c matrix S with
    k_i^T*S*k_j = 0 for i = j and for each edge ij (k_i is row i of K).
    Primal nullity equals the nullity of this dual system of n + |E| rows
    and c(c+1)/2 columns, so the primal rank is cols minus the dual
    nullity.  K has exactly c columns with no second comparison:
    c = op.inertia.zeros, which inertia_symmetric counts as the free
    columns of this same record.

    K is the canonical basis of kernel_basis: row f_a of K is the unit
    vector e_a at the a-th free column f_a of M, so k_{f_a}^T*S*k_{f_b} =
    S[a][b] = X[f_a][f_b].  The dual rows of a free diagonal (f_a, f_a)
    and of an edge between two free vertices are therefore unit rows that
    force their unknown to zero.  check_sap checks K's unit rows with
    check.unit_rows, drops those dual rows and the forced unknowns from
    every other row, and ranks the rest: one unknown S[a][b] per pair a <
    b of non-adjacent free columns, in the order of the full dual (of 36
    unknowns at Klein's corank 8, 17 are left; of 136 at genus 10's corank
    16, 101).  The dual's kernel is the reduced kernel with zeros at the
    forced unknowns, so the two systems have the same nullity.  When no
    unknown is left, as at every corank 1, full rank holds by proof.

    The rows come sparsest first: the edges with one free endpoint, whose
    rows have at most c - 1 entries, then the other diagonals, then the
    edges between two vertices that are not free.  The reduced echelon
    form, and with it every result, is the same in any row order.  Rows
    are built lazily, so an elimination that reaches full rank builds no
    more of them.

    row_scaled puts each row k_i of the record's integer pairs over the lcm
    of its own denominators, a positive scale, which keeps the dual kernel.
    The dual entries are then a + b*sqrt(d) with integer a and b, d the
    operator's radicand, and full_rank_prime ranks them mod the first prime
    p of PRIMES at which d has a nonzero square root; full rank mod p
    proves full rank over the field.  The kernel's elimination walks the
    same PRIMES, so the genus-10 kernel and dual share p = 1073741723, the
    first of them at which 7 is a square.

    When no prime is usable or the rank drops mod p, pair_kernel_basis
    rebuilds the reduced dual kernel from the same pair rows, starting
    from the echelon mod p, and proves it exactly.  An empty kernel is
    full rank.  Otherwise its first vector, padded with zeros at the
    forced unknowns, is the first vector S0 of the canonical kernel of the
    whole dual: each forced unknown is a pivot column whose reduced row is
    its unit row, and the other reduced rows are those of the reduced
    system.  S0 gives the witness X = K*S0*K^T, computed on the records'
    pairs with K^T as `columns`.  Those pairs stand over the product of
    the records' denominators, kernel.scale^2 * dual.scale, and become
    the witness matrix as they are, with no scalar built.
    verify_sap_witness, whose M*X = 0 check builds no scalar when X is
    valid, re-checks X before it is reported.  X is also the first
    canonical kernel vector of the primal system: X[f_a][f_b] = S[a][b],
    and row u of K is zero at each a with f_a < u, so X is zero at every
    pair after (f_a, f_b) when S is zero at every pair after (a, b).  The
    map (a, b) -> (f_a, f_b) keeps pair order, so the last nonzero entry
    of X is 1 at the image of S0's last nonzero entry, and S0 minimises
    that entry over the dual kernel.

    Raises SystemTooLarge before any elimination when the whole dual or
    its kernel (at most c(c+1)/2 vectors of that length) would exceed
    MAX_SAP_SLOTS entries.
    """
    if op.inertia is None:
        check_membership(op)
    n, edges = op.graph.n, op.graph.edge_count
    rows, cols = n * (n - 1), n * (n - 1) // 2 - edges
    c = op.corank
    if not c:
        return SapCertificate(True, cols, rows, cols)
    dual_rows, dual_cols = n + edges, c * (c + 1) // 2
    slots = max(dual_rows, dual_cols) * dual_cols
    if slots > MAX_SAP_SLOTS:
        raise SystemTooLarge(
            f"transversality dual {dual_rows}x{dual_cols} and its kernel need "
            f"{slots} slots, above MAX_SAP_SLOTS = {MAX_SAP_SLOTS}"
        )
    dual_shape = (dual_rows, dual_cols)
    kernel = kernel_record(op.matrix)
    free = check.unit_rows(kernel)
    graph = op.graph
    unknowns = [
        (a, b)
        for a in range(c)
        for b in range(a + 1, c)
        if not graph.has_edge(free[a], free[b])
    ]
    if not unknowns:
        return SapCertificate(True, cols, rows, cols, dual_shape=dual_shape)
    column = [[None] * c for _ in range(c)]
    for j, (a, b) in enumerate(unknowns):
        column[a][b] = column[b][a] = j
    is_free = set(free)
    pairs = [(u, v) for u, v in graph.edges if (u in is_free) != (v in is_free)]
    pairs += [(i, i) for i in range(n) if i not in is_free]
    pairs += [
        (u, v) for u, v in graph.edges if u not in is_free and v not in is_free
    ]
    d = op.matrix.radicand
    k = row_scaled(kernel.rows, kernel.scale)
    first = full_rank_prime(_dual_rows(k, pairs, column, d), len(unknowns), d, PRIMES)
    if first is not None and len(first[1]) == len(unknowns):
        return SapCertificate(
            True, cols, rows, cols, prime=first[0], dual_shape=dual_shape
        )
    dual = pair_kernel_basis(_dual_rows(k, pairs, column, d), len(unknowns), d, first)
    primal_rank = cols - len(dual.free)
    if not dual.free:
        return SapCertificate(True, primal_rank, rows, cols, dual_shape=dual_shape)
    x0 = {j: row[0] for j, row in enumerate(dual.rows) if 0 in row}
    s0 = [{b: x0[j] for b, j in enumerate(js) if j in x0} for js in column]
    columns = [{i: r[a] for i, r in enumerate(kernel.rows) if a in r} for a in range(c)]
    x = [pair_product(pair_product(row, s0, d), columns, d) for row in kernel.rows]
    witness = ExactMatrix(n, x, kernel.scale**2 * dual.scale, d)
    verify_sap_witness(op, witness)
    return SapCertificate(
        False, primal_rank, rows, cols, witness, dual_shape=dual_shape
    )


def _dual_rows(k: list, pairs: list, column: list, d: int):
    """For each vertex pair (i, j) in turn, the nonzero coefficients of
    k_i^T*S*k_j in the unknowns left to rank, as integer pairs (x, y) for
    x + y*sqrt(d): column[a][b] = column[b][a] numbers the unknown S[a][b],
    or is None for one forced to zero, whose products are skipped.  The
    coefficient of S[a][a] is k_i[a]*k_j[a], and that of S[a][b], a < b,
    is k_i[a]*k_j[b] + k_i[b]*k_j[a]."""
    for i, j in pairs:
        row = {}
        for a, (xa, xb) in k[i].items():
            at = column[a]
            for b, (ya, yb) in k[j].items():
                col = at[b]
                if col is not None:
                    s, t = row.get(col, (0, 0))
                    row[col] = (s + xa * ya + d * xb * yb, t + xa * yb + xb * ya)
        yield {col: v for col, v in row.items() if v != (0, 0)}


def verify_sap_witness(op: SchrodingerOperator, witness: ExactMatrix) -> None:
    """check.sap_witness on op's graph and the pairs of M and X."""
    m, x, adjacency = op.matrix, witness, op.graph.adjacency()
    check.sap_witness(adjacency, m.pairs, m.radicand, x.pairs, x.cols, x.radicand)


# ---------------------------------------------------------------------------
# Complete bipartite constructions.


def complete_bipartite(a: int, b: int) -> SimpleGraph:
    edges = tuple((i, a + j) for i in range(a) for j in range(b))
    return SimpleGraph(a + b, edges)


def _check_sides(a: int, b: int, s_set) -> tuple:
    if not (1 <= a <= b):
        raise BadS(f"need 1 <= a <= b, got a={a}, b={b}")
    if a + b > MAX_OPERATOR_VERTICES:
        raise BadS(f"need a + b <= {MAX_OPERATOR_VERTICES}, got {a + b}")
    s_set = frozenset(s_set)
    n = a + b
    for v in s_set:
        if not 0 <= v < n:
            raise BadS(f"S contains {v}, outside the vertex range")
    side_a = frozenset(range(a))
    side_b = frozenset(range(a, n))
    if side_a <= s_set:
        raise BadS("S swallows the whole small side")
    if side_b <= s_set:
        raise BadS("S swallows the whole large side")
    return s_set, side_a, side_b


def admissible_subsets(a: int, b: int):
    """Every S that `_check_sides` admits: 2^(a+b) - 2^a - 2^b + 1 sets by
    size, then `combinations` order.  Any a + b - 1 vertices hold a side."""
    _, side_a, side_b = _check_sides(a, b, ())
    for size in range(a + b - 1):
        for combo in combinations(range(a + b), size):
            s_set = frozenset(combo)
            if not (side_a <= s_set or side_b <= s_set):
                yield s_set


def build_bipartite_operator(a: int, b: int, s_set) -> SchrodingerOperator:
    """M = eps*1_S - A on the complete bipartite graph, eps = 1/(4(a+b)).

    Any eps with 0 < eps*(a+b) < 2ab gives one negative eigenvalue and
    corank a + b - 2 - |S|:
    - M x = 0 makes each side's sum vanish, since each side keeps a vertex
      outside S; then eps*x_v = 0 on S.  So the kernel is the vectors that
      vanish on S and sum to zero on each side.
    - -A has one negative eigenvalue, and adding eps*I_S >= 0 adds none.
    - The all-ones vector gives 1^T M 1 <= eps*(a+b) - 2ab < 0.
    check_membership certifies the operator exactly all the same.  The
    matrix is handed the combinatorial kernel as its record through
    adopt_kernel, so none is eliminated for it, and membership's
    congruence then proves the record spans the kernel.  Its |free| is
    the corank formula by construction.  A wrong vector raises
    RuntimeError at the hand-over and a missing one at the congruence, so
    no operator leaves with a record the congruence has not completed.
    """
    s_set, side_a, side_b = _check_sides(a, b, s_set)
    eps = Fraction(1, 4 * (a + b))
    diagonal = [eps if v in s_set else 0 for v in range(a + b)]
    op = build_operator(complete_bipartite(a, b), diagonal)
    op.epsilon = eps
    adopt_kernel(op.matrix, _bipartite_kernel(a + b, s_set, side_a, side_b))
    check_membership(op)
    return op


def _bipartite_kernel(n: int, s_set, side_a, side_b) -> Kernel:
    """The combinatorial kernel as a Kernel record over scale 1: one
    difference vector e_v - e_first per side per extra free vertex, in
    side order, of entries 0, 1 and -1.  Vector a has its unit row at v,
    the free column, and -1 at first < v, a column no vector is free at."""
    free, rows = [], [{} for _ in range(n)]
    for side in (side_a, side_b):
        first, *rest = sorted(side - s_set)
        for v in rest:
            rows[first][len(free)] = (-1, 0)
            rows[v][len(free)] = (1, 0)
            free.append(v)
    return Kernel(tuple(free), rows, 1, 1)


def bipartite_kernel_basis(a: int, b: int, s_set) -> list:
    """The combinatorial kernel as int lists: mean-zero vectors on each
    side's complement of S, vanishing on S, the vectors of
    _bipartite_kernel."""
    kernel = _bipartite_kernel(a + b, *_check_sides(a, b, s_set))
    basis = [[0] * (a + b) for _ in kernel.free]
    for i, row in enumerate(kernel.rows):
        for k, (x, _) in row.items():
            basis[k][i] = x
    return basis


def spans_match(vectors_a, vectors_b) -> bool:
    """Exact subspace equality of two families of vectors.

    Both families become pair matrices A and B, each over its own scale.
    When every vector of each has a unit column (_unit_columns) and the
    two share one radicand, the answer is read off by coordinates, with
    no elimination, no prime and no scalar built.  Let u_j be the unit
    column of b_j:

    - Unit columns make each family independent: the entry of sum c_j b_j
      at u_k is c_k, so the sum vanishes only when every c_k does.
    - So a vector v of span B has the unique coordinates v[u_j]: v = sum
      c_j b_j gives v[u_k] = c_k.
    - If |A| = |B| and each row a of A equals sum a[u_j] b_j, then span A
      is inside span B and both have dimension |A| = |B|, so they are
      equal.
    - Either failure proves the spans differ: |A| != |B| gives two
      dimensions, and a row a that is not sum a[u_j] b_j is not in span B
      at all, as its coordinates there could only be the a[u_j].

    The comparison multiplies the coordinates, A's pairs at the u_j, by
    B's pairs with pair_product, so both sides stand over the product of
    the two scales.

    In every other case, such as a family with a repeated or a zero
    vector, the spans are compared through canonical kernel bases.

    The kernel of the matrix whose rows are a family A is the orthogonal
    complement of span A under the form sum x_i y_i.  That form is
    nondegenerate, so W = (W^perp)^perp for every subspace W, and span A =
    span B exactly when the two kernels are equal.  kernel_record keeps
    the canonical basis of the reduced echelon form, which depends only on
    the row space, so equal spans give equal records, built with no
    scalar, and equal records give equal kernels.
    """
    if not vectors_a and not vectors_b:
        return True
    if bool(vectors_a) != bool(vectors_b):
        return False
    a, b = ExactMatrix.from_rows(vectors_a), ExactMatrix.from_rows(vectors_b)
    if a.cols != b.cols:
        raise ValueError("ragged rows")
    units = _unit_columns(b)
    if units is None or a.radicand != b.radicand or _unit_columns(a) is None:
        return kernel_record(a) == kernel_record(b)
    if a.rows != b.rows:
        return False
    d, s = b.radicand, b.scale
    for row in a.pairs:
        coords = {j: row[u] for j, u in enumerate(units) if u in row}
        scaled = {k: (x * s, y * s) for k, (x, y) in row.items()}
        if pair_product(coords, b.pairs, d) != scaled:
            return False
    return True


def _unit_columns(matrix: ExactMatrix) -> list | None:
    """For each row of matrix, a column where that row is exactly 1 and
    every other row is 0, or None when some row has no such column."""
    counts = Counter(chain.from_iterable(matrix.pairs))
    one, units = (matrix.scale, 0), []
    for row in matrix.pairs:
        unit = next((j for j, x in row.items() if x == one and counts[j] == 1), None)
        if unit is None:
            return None
        units.append(unit)
    return units


def build_sap_witness(a: int, b: int) -> tuple:
    """Rank-two witness for the large-S bipartite family, a >= 3, b >= 4.

    S keeps two free vertices on the small side and four on the large one;
    the witness is x*y^T + y*x^T for two disjoint difference vectors on
    the four free large-side vertices.  Verified exactly before returning.
    """
    if a < 3 or b < 4:
        raise BadS(f"witness construction needs a >= 3 and b >= 4, got ({a}, {b})")
    s_set = frozenset(range(a - 2)) | frozenset(range(a, a + b - 4))
    op = build_bipartite_operator(a, b, s_set)
    v1, v2, v3, v4 = range(a + b - 4, a + b)
    # X = x y^T + y x^T with x = e1 - e2, y = e3 - e4 touches only the
    # large side, which is an independent set.
    witness = ExactMatrix.symmetric(
        a + b, {(v1, v3): 1, (v2, v4): 1, (v1, v4): -1, (v2, v3): -1}
    )
    verify_sap_witness(op, witness)
    return op, witness


# ---------------------------------------------------------------------------
# The seven-vertex eigenvector obstruction: its graph and operator family,
# which certify.certify_q1 checks.


def build_q1_graph() -> SimpleGraph:
    """Complement of (triangle on {0,1,2}) plus (star with center 6 and
    leaves {3,4,5})."""
    non_edges = {(0, 1), (0, 2), (1, 2), (3, 6), (4, 6), (5, 6)}
    edges = tuple(
        (u, v)
        for u in range(7)
        for v in range(u + 1, 7)
        if (u, v) not in non_edges
    )
    return SimpleGraph(7, edges)


def q1_operator(graph: SimpleGraph, a: Fraction, x: Fraction) -> SchrodingerOperator:
    """The one-parameter family of candidate operators forced by symmetry:
    triangle rows carry (a, a, a, a4), leaf rows (a, a, a) plus a4/3 on
    their own block, the center row a4 with diagonal -a4^3/(3a^2)."""
    a4 = x * a
    overrides = {}
    for u, v in graph.edges:
        if v == 6:
            overrides[u, v] = a4
        elif u >= 3:
            overrides[u, v] = a4 / 3
        else:
            overrides[u, v] = a
    diagonal = [0, 0, 0, a4 / 3, a4 / 3, a4 / 3, -(a4**3) / (3 * a * a)]
    return build_operator(graph, diagonal, overrides)
