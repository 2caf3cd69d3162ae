"""Discrete Schrodinger operators on graphs and exact rank certificates.

An operator M on a graph G is symmetric, strictly negative on edges, zero
on non-adjacent pairs, unconstrained on the diagonal, and must have
exactly one negative eigenvalue.  The certified quantities are its corank,
and full rank of the transversality system: the linear map sending a
symmetric matrix X supported on non-adjacent pairs to the off-diagonal
entries of M*X.  Full rank rules out any nonzero such X with M*X = 0 and
is what makes the corank a genuine lower-bound certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .exactfield import ONE, ZERO, QuadScalar, parse_scalar
from .exactlinalg import (
    ExactMatrix,
    Inertia,
    IntPolynomial,
    count_positive_real_roots,
    inertia_symmetric,
    kernel_basis,
    rank,
)
from .maps import SimpleGraph


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


class EpsilonSearchFailed(RuntimeError):
    """No admissible diagonal weight found within the halving budget."""


class Disconnected(ValueError):
    """Operation that requires a connected graph."""


# Halvings of the bipartite diagonal weight eps before EpsilonSearchFailed.
MAX_HALVINGS = 20


@dataclass
class SchrodingerOperator:
    """A graph together with a matrix in its sign-pattern class.

    inertia and corank start as None and are filled by check_membership.
    """

    graph: SimpleGraph
    matrix: ExactMatrix
    epsilon: Fraction | None = None
    inertia: Inertia | None = None
    corank: int | None = None

    def to_json_dict(self) -> dict:
        edges = self.graph.edges
        off = {}
        for u, v in edges:
            e = self.matrix.entry(u, v)
            if e != -1:
                off[f"{u},{v}"] = e.render()
        data = {
            "graph": self.graph.to_json_dict(),
            "field_d": self.matrix.radicand,
            "diagonal": [
                self.matrix.entry(i, i).render() for i in range(self.graph.n)
            ],
        }
        if off:
            data["off_diagonal"] = off
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "SchrodingerOperator":
        try:
            graph = SimpleGraph.from_json_dict(data["graph"])
            if not isinstance(data["diagonal"], list):
                raise TypeError("'diagonal' must be a list")
            diagonal = [parse_scalar(s) for s in data["diagonal"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(
                "operator data must be a JSON object with 'graph' and a "
                "'diagonal' list"
            ) from exc
        if len(diagonal) != graph.n:
            raise ValueError("diagonal length does not match the graph")
        off_diagonal = data.get("off_diagonal", {})
        if not isinstance(off_diagonal, dict):
            raise ValueError(
                "off_diagonal data must be a JSON object mapping 'u,v' to a scalar"
            )
        overrides = {}
        for key, text in off_diagonal.items():
            u, v = (int(t) for t in key.split(","))
            if u > v:
                u, v = v, u
            if not graph.has_edge(u, v):
                raise ValueError(f"off-diagonal override {key} is not an edge")
            overrides[(u, v)] = parse_scalar(text)
        return build_operator(graph, diagonal, overrides)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path) -> "SchrodingerOperator":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def build_operator(graph: SimpleGraph, diagonal, overrides=None) -> SchrodingerOperator:
    """Assemble the matrix: given diagonal, -1 on edges unless overridden,
    zero elsewhere."""
    overrides = overrides or {}
    for key in overrides:
        if not graph.has_edge(*key):
            raise ValueError(f"override key {key} is not an edge")
    n = graph.n
    entries = [ZERO] * (n * n)
    minus_one = QuadScalar(-1)
    for u, v in graph.edges:
        e = overrides.get((u, v), minus_one)
        if not isinstance(e, QuadScalar):
            e = QuadScalar(e)
        entries[u * n + v] = e
        entries[v * n + u] = e
    for i, x in enumerate(diagonal):
        if not isinstance(x, QuadScalar):
            x = QuadScalar(x)
        entries[i * n + i] = x
    return SchrodingerOperator(graph, ExactMatrix(n, n, entries))


def build_shift_operator(graph: SimpleGraph, shift) -> SchrodingerOperator:
    """shift * I - A, the adjacency operator shifted onto the diagonal."""
    return build_operator(graph, [shift] * graph.n)


def check_membership(op: SchrodingerOperator) -> Inertia:
    """Certify the sign pattern and the one-negative-eigenvalue condition;
    fills inertia and corank on success."""
    n = op.graph.n
    if op.matrix.rows != n or op.matrix.cols != n:
        raise SignPatternViolation("matrix shape does not match the graph")
    adj = op.graph.adjacency()
    for u in range(n):
        for v in range(u + 1, n):
            e = op.matrix.entry(u, v)
            if v in adj[u]:
                if e.sign() >= 0:
                    raise SignPatternViolation(
                        f"edge ({u},{v}) entry {e.render()} is not negative"
                    )
            elif e:
                raise SignPatternViolation(
                    f"non-adjacent pair ({u},{v}) entry {e.render()} is not zero"
                )
    inertia = inertia_symmetric(op.matrix)
    if inertia.negatives != 1:
        raise NotOneNegative(inertia)
    op.inertia = inertia
    op.corank = inertia.zeros
    return inertia


@dataclass(frozen=True)
class SapSystem:
    """The transversality system as sparse rows.

    Rows are ordered pairs (u, w) with u != w; columns are non-adjacent
    unordered pairs {a, b}.  Entry ((u, w), {a, b}) is M[u][t] where t is
    the member of {a, b} distinct from w, or zero if neither member is w.
    Row i is stored as {column: entry} with the zeros left out.  Full
    column rank means no nonzero admissible X solves M*X = 0.
    """

    row_entries: tuple
    row_pairs: tuple
    col_pairs: tuple

    @property
    def rows(self) -> int:
        return len(self.row_pairs)

    @property
    def cols(self) -> int:
        return len(self.col_pairs)

    def sparse_rows(self) -> tuple:
        return self.row_entries


def build_sap_system(op: SchrodingerOperator) -> SapSystem:
    n = op.graph.n
    adj = op.graph.adjacency()
    col_pairs = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if b not in adj[a]
    ]
    col_id = {pair: i for i, pair in enumerate(col_pairs)}
    # Row (u, w) only touches columns whose pair contains w, so grouping
    # rows by w keeps the elimination inside one column cluster at a time.
    row_pairs = [(u, w) for w in range(n) for u in range(n) if u != w]
    M = op.matrix
    support = [sorted(adj[u] | {u}) for u in range(n)]
    row_entries = []
    for u, w in row_pairs:
        row = {}
        for t in support[u]:
            if t == w:
                continue
            col = col_id.get((t, w) if t < w else (w, t))
            # Entries can be zero (a bipartite operator's diagonal off S);
            # rows store nonzeros only.
            if col is not None and (e := M.entry(u, t)):
                row[col] = e
        row_entries.append(row)
    return SapSystem(tuple(row_entries), tuple(row_pairs), tuple(col_pairs))


@dataclass(frozen=True)
class SapCertificate:
    """Outcome of the transversality check: either full column rank, or a
    verified nonzero witness X with M*X = 0 and the admissible pattern."""

    full_rank: bool
    rank: int
    rows: int
    cols: int
    witness: ExactMatrix | None = None


def check_sap(op: SchrodingerOperator, progress=None) -> SapCertificate:
    """Decide full rank of the transversality system exactly.

    Runs membership first if the operator has no inertia certificate yet.
    One elimination gives the kernel of the system, and the rank is the
    column count minus its dimension.  On rank deficiency the first kernel
    vector is reassembled into X and re-verified entry by entry before
    being reported.  `progress` is passed on to kernel_basis.
    """
    if op.inertia is None:
        check_membership(op)
    system = build_sap_system(op)
    basis = kernel_basis(system, progress=progress)
    r = system.cols - len(basis)
    if not basis:
        return SapCertificate(True, r, system.rows, system.cols)
    witness = _assemble_witness(op, system, basis[0])
    return SapCertificate(False, r, system.rows, system.cols, witness)


def _assemble_witness(op: SchrodingerOperator, system: SapSystem, vec) -> ExactMatrix:
    n = op.graph.n
    entries = [ZERO] * (n * n)
    for (a, b), x in zip(system.col_pairs, vec):
        entries[a * n + b] = x
        entries[b * n + a] = x
    witness = ExactMatrix(n, n, entries)
    verify_sap_witness(op, witness)
    return witness


def verify_sap_witness(op: SchrodingerOperator, witness: ExactMatrix) -> None:
    """Confirm the witness refutes transversality: nonzero, symmetric,
    supported on non-adjacent pairs only, and M*X = 0 exactly."""
    n = op.graph.n
    if witness.rows != n or witness.cols != n:
        raise ValueError("witness shape does not match the graph")
    if witness.is_zero():
        raise ValueError("witness is zero")
    if not witness.is_symmetric():
        raise ValueError("witness is not symmetric")
    adj = op.graph.adjacency()
    for u in range(n):
        if witness.entry(u, u):
            raise ValueError(f"witness has nonzero diagonal at {u}")
        for v in adj[u]:
            if witness.entry(u, v):
                raise ValueError(f"witness is nonzero on edge ({u},{v})")
    if not op.matrix.matmul(witness).is_zero():
        raise ValueError("M*X is not zero")


# ---------------------------------------------------------------------------
# Complete bipartite constructions.


def complete_bipartite(a: int, b: int) -> SimpleGraph:
    edges = tuple((i, a + j) for i in range(a) for j in range(b))
    return SimpleGraph(a + b, edges)


def _check_sides(a: int, b: int, s_set) -> tuple:
    if not (1 <= a <= b):
        raise BadS(f"need 1 <= a <= b, got a={a}, b={b}")
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


def build_bipartite_operator(a: int, b: int, s_set) -> SchrodingerOperator:
    """eps*1_S - A on the complete bipartite graph, with eps found by
    halving from 1/(4(a+b)) until the corank hits a + b - 2 - |S|.

    Membership can fail only for unluckily resonant eps, so the loop
    almost always exits on the first try.
    """
    s_set, _, _ = _check_sides(a, b, s_set)
    graph = complete_bipartite(a, b)
    target = a + b - 2 - len(s_set)
    eps = Fraction(1, 4 * (a + b))
    for _ in range(MAX_HALVINGS):
        diagonal = [eps if v in s_set else 0 for v in range(a + b)]
        op = build_operator(graph, diagonal)
        op.epsilon = eps
        try:
            check_membership(op)
        except NotOneNegative:
            eps /= 2
            continue
        if op.corank == target:
            return op
        eps /= 2
    raise EpsilonSearchFailed(
        f"no eps reached corank {target} for a={a}, b={b}, |S|={len(s_set)}"
    )


def bipartite_kernel_basis(a: int, b: int, s_set) -> list:
    """The combinatorial kernel: mean-zero vectors on each side's
    complement of S, vanishing on S.  One difference vector per side per
    extra free vertex."""
    s_set, side_a, side_b = _check_sides(a, b, s_set)
    n = a + b
    basis = []
    for side in (side_a, side_b):
        free = sorted(side - s_set)
        for v in free[1:]:
            vec = [ZERO] * n
            vec[free[0]] = -ONE
            vec[v] = ONE
            basis.append(vec)
    return basis


def spans_match(vectors_a, vectors_b) -> bool:
    """Exact subspace equality via three rank computations."""
    if not vectors_a and not vectors_b:
        return True
    if bool(vectors_a) != bool(vectors_b):
        return False
    ra = rank(ExactMatrix.from_rows(vectors_a))
    rb = rank(ExactMatrix.from_rows(vectors_b))
    rc = rank(ExactMatrix.from_rows(list(vectors_a) + list(vectors_b)))
    return ra == rb == rc


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
    n = a + b
    v1, v2, v3, v4 = range(a + b - 4, a + b)
    entries = [ZERO] * (n * n)

    def put(i, j, val):
        entries[i * n + j] = val
        entries[j * n + i] = val

    # X = x y^T + y x^T with x = e1 - e2, y = e3 - e4 touches only the
    # large side, which is an independent set.
    put(v1, v3, ONE)
    put(v2, v4, ONE)
    put(v1, v4, -ONE)
    put(v2, v3, -ONE)
    witness = ExactMatrix(n, n, entries)
    verify_sap_witness(op, witness)
    return op, witness


# ---------------------------------------------------------------------------
# The seven-vertex eigenvector obstruction.


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


def _q1_matrix(a: Fraction, x: Fraction) -> ExactMatrix:
    """The one-parameter family of candidate operators forced by symmetry:
    triangle rows carry (a, a, a, a4), leaf rows (a, a, a) plus a4/3 on
    their own block, the center row a4 with diagonal -a4^3/(3a^2)."""
    a4 = x * a
    rows = []
    for _ in range(3):
        rows.append([0, 0, 0, a, a, a, a4])
    for i in range(3):
        row = [a, a, a, a4 / 3, a4 / 3, a4 / 3, 0]
        rows.append(row)
    rows.append([a4, a4, a4, 0, 0, 0, -(a4**3) / (3 * a * a)])
    return ExactMatrix.from_rows(rows)


@dataclass(frozen=True)
class Q1Sample:
    a: str
    x: str
    row_gap: str
    gap_nonzero: bool
    pattern_ok: bool


@dataclass(frozen=True)
class Q1Report:
    graph_ok: bool
    factored_identity: bool
    scaled_identity: bool
    positive_roots: int
    samples: tuple

    @property
    def passed(self) -> bool:
        return (
            self.graph_ok
            and self.factored_identity
            and self.scaled_identity
            and self.positive_roots == 0
            and all(s.gap_nonzero and s.pattern_ok for s in self.samples)
        )


def verify_q1_counterexample() -> Q1Report:
    """Show no operator of the forced family has the all-ones vector as an
    eigenvector: the first and last row sums differ at every admissible
    parameter choice, because equality would need a positive root of
    x^3 - 6x + 9, which has none."""
    graph = build_q1_graph()
    comp = [
        (u, v)
        for u in range(7)
        for v in range(u + 1, 7)
        if not graph.has_edge(u, v)
    ]
    graph_ok = (
        graph.n == 7
        and graph.edge_count == 15
        and graph.is_connected()
        and sorted(comp) == [(0, 1), (0, 2), (1, 2), (3, 6), (4, 6), (5, 6)]
    )

    cubic = IntPolynomial((9, -6, 0, 1))
    factored = IntPolynomial((3, 1)) * IntPolynomial((3, -3, 1))
    factored_identity = factored == cubic
    scaled = [Fraction(-3), Fraction(2), Fraction(0), Fraction(-1, 3)]
    scaled_identity = [Fraction(-3) * c for c in scaled] == [
        Fraction(c) for c in cubic.coeffs
    ]
    positive_roots = count_positive_real_roots(cubic)

    adj = graph.adjacency()
    samples = []
    for a in (Fraction(-1), Fraction(-1, 2), Fraction(-2)):
        for x in (
            Fraction(1, 10),
            Fraction(1, 2),
            Fraction(1),
            Fraction(2),
            Fraction(3),
            Fraction(5),
        ):
            m = _q1_matrix(a, x)
            pattern_ok = True
            for u in range(7):
                for v in range(u + 1, 7):
                    e = m.entry(u, v)
                    if v in adj[u]:
                        pattern_ok = pattern_ok and e.sign() < 0
                    else:
                        pattern_ok = pattern_ok and not e
            first = sum((m.entry(0, j) for j in range(7)), ZERO)
            last = sum((m.entry(6, j) for j in range(7)), ZERO)
            gap = first - last
            # The gap collapses to (a/3) * cubic(x); keep both routes
            # honest against each other.
            check = QuadScalar(a * cubic(x) / 3)
            if gap != check:
                raise AssertionError("row-gap identity failed")
            samples.append(
                Q1Sample(
                    a=str(a),
                    x=str(x),
                    row_gap=gap.render(),
                    gap_nonzero=bool(gap),
                    pattern_ok=pattern_ok,
                )
            )
    return Q1Report(
        graph_ok=graph_ok,
        factored_identity=factored_identity,
        scaled_identity=scaled_identity,
        positive_roots=positive_roots,
        samples=tuple(samples),
    )


def perron_check(op: SchrodingerOperator, vector) -> bool:
    """True when the vector is strictly positive and an exact eigenvector
    of the operator with negative eigenvalue.  The graph must be
    connected for the bottom eigenvector to have a sign."""
    if not op.graph.is_connected():
        raise Disconnected("Perron check needs a connected graph")
    vec = [v if isinstance(v, QuadScalar) else QuadScalar(v) for v in vector]
    if len(vec) != op.graph.n:
        raise ValueError("vector length does not match the graph")
    if any(v.sign() <= 0 for v in vec):
        return False
    image = op.matrix.matvec(vec)
    theta = image[0] / vec[0]
    if theta.sign() >= 0:
        return False
    return all(image[i] == theta * vec[i] for i in range(len(vec)))
