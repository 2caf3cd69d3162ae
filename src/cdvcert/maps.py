"""Surface maps read off rotation systems, plus Euler-genus bookkeeping.

A map is two permutations of its darts: a vertex rotation R and an edge
involution L.  Its vertices are the cycles of R, its edges those of L and
its faces those of L∘R⁻¹ (Mohar and Thomassen, Graphs on Surfaces, 2001,
ch. 3).  For a coset map the darts are the group elements and R and L
are left multiplications.  The map carries its underlying simple graph
and its cells, enough to check regularity and compute genus exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .groups import CosetTable, Presentation, cycles, left_action


class MalformedIncidence(ValueError):
    """Darts that do not form a map on a simple graph: L is not a
    fixed-point-free involution, the face word is not L∘R⁻¹, or an edge
    is a loop or parallel to another."""


class OddEuler(ValueError):
    """Orientable genus asked for an odd Euler characteristic."""


class NotRegular(ValueError):
    """Map whose faces or vertices do not all have the same degree."""


class InvalidChi(ValueError):
    """Euler characteristic outside the surface range."""


@dataclass(frozen=True)
class SimpleGraph:
    """Loopless graph without parallel edges; edges are sorted pairs."""

    n: int
    edges: tuple
    _edge_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count {self.n} is negative")
        seen = set()
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge {e}")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        object.__setattr__(self, "_edge_set", frozenset(seen))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self) -> list:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        adj = self.adjacency()
        seen = {0}
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n

    def regular_degree(self):
        """Common degree if the graph is regular, else None."""
        deg = set(self.degrees())
        return deg.pop() if len(deg) == 1 else None

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_set

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimpleGraph":
        try:
            n, edges = data["n"], data["edges"]
            if type(n) is not int or n < 0 or not isinstance(edges, list):
                raise TypeError("'n' must be a non-negative int and 'edges' a list")
            for e in edges:
                if not (isinstance(e, list) and len(e) == 2
                        and all(type(x) is int for x in e)):
                    raise TypeError(f"edge {e!r} is not a list of two ints")
            return cls(n, tuple(tuple(e) for e in edges))
        except (KeyError, TypeError) as exc:
            raise ValueError(
                "graph data must be a JSON object with a non-negative int 'n' "
                "and an 'edges' list of int pairs"
            ) from exc


@dataclass(frozen=True)
class CombinatorialMap:
    """Vertices, edges and faces as dart cycles, and the simple graph."""

    vertices: tuple
    edges: tuple
    faces: tuple
    graph: SimpleGraph

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)


def build_map_from_cosets(
    table: CosetTable, vertex_words, edge_words, face_words
) -> CombinatorialMap:
    """The map of the rotation system R, L on the elements of the regular
    table: R is the left action of the vertex word and L that of the edge
    word.  Each word list holds exactly one word.

    Vertices are the R-cycles, numbered by least dart, edges the L-cycles
    and faces the cycles of L∘R⁻¹.  MalformedIncidence is raised unless L
    is a fixed-point-free involution, the face word acts as L∘R⁻¹, and the
    edges join distinct vertices, no two edges the same pair.
    """
    (vertex_word,), (edge_word,), (face_word,) = vertex_words, edge_words, face_words
    rotation = left_action(table, vertex_word)
    involution = left_action(table, edge_word)
    edges = cycles(involution)
    if any(len(edge) != 2 for edge in edges):
        raise MalformedIncidence("the edge word is not a fixed-point-free involution")
    face_step = [0] * table.count  # L∘R⁻¹ sends R(d) to L(d)
    for d, r in enumerate(rotation):
        face_step[r] = involution[d]
    if left_action(table, face_word) != face_step:
        raise MalformedIncidence("the face word does not act as edge * vertex^-1")

    vertices = cycles(rotation)
    vertex_of = [0] * table.count
    for i, cycle in enumerate(vertices):
        for d in cycle:
            vertex_of[d] = i
    ends = []
    for a, b in edges:
        u, v = sorted((vertex_of[a], vertex_of[b]))
        if u == v:
            raise MalformedIncidence(f"the edge at darts {a}, {b} is a loop")
        ends.append((u, v))
    if len(set(ends)) != len(ends):
        raise MalformedIncidence("two edges join the same vertex pair")
    return CombinatorialMap(
        vertices=tuple(map(tuple, vertices)),
        edges=tuple(map(tuple, edges)),
        faces=tuple(map(tuple, cycles(face_step))),
        graph=SimpleGraph(len(vertices), tuple(ends)),
    )


def euler_characteristic(m: CombinatorialMap) -> int:
    return m.vertex_count - m.edge_count + m.face_count


def genus_orientable(m: CombinatorialMap) -> int:
    """Genus of the closed orientable surface with this Euler
    characteristic; raises OddEuler when no such surface exists."""
    chi = euler_characteristic(m)
    if chi % 2:
        raise OddEuler(f"Euler characteristic {chi} is odd")
    return (2 - chi) // 2


def validate_rotary_type(m: CombinatorialMap) -> tuple:
    """Return (p, q): every face cycle has length p and every vertex
    cycle length q."""
    face_sizes = {len(face) for face in m.faces}
    if len(face_sizes) != 1:
        raise NotRegular(f"face sizes vary: {sorted(face_sizes)}")
    degrees = {len(vertex) for vertex in m.vertices}
    if len(degrees) != 1:
        raise NotRegular(f"vertex degrees vary: {sorted(degrees)}")
    return face_sizes.pop(), degrees.pop()


def map_report(m: CombinatorialMap) -> dict:
    p, q = validate_rotary_type(m)
    return {
        "v": m.vertex_count,
        "e": m.edge_count,
        "f": m.face_count,
        "chi": euler_characteristic(m),
        "genus": genus_orientable(m),
        "p": p,
        "q": q,
    }


def heawood_gamma(chi: int, klein_bottle: bool = False) -> int:
    """Largest complete-graph order embeddable in a surface of Euler
    characteristic chi: floor((7 + sqrt(49 - 24*chi)) / 2), with the
    Klein bottle one lower at chi = 0."""
    if chi > 2:
        raise InvalidChi(f"no surface has Euler characteristic {chi}")
    if klein_bottle:
        if chi != 0:
            raise InvalidChi("the Klein bottle flag applies only at chi = 0")
        return heawood_gamma(0) - 1
    return (7 + math.isqrt(49 - 24 * chi)) // 2


def counterexample_range(mu_lower: int, base_chi: int):
    """Contiguous chi interval below base_chi where the complete-graph
    embedding bound stays under mu_lower for every surface, as (lo, hi);
    None if already at base_chi - 1 the bound is large enough.

    With mu = mu_lower, heawood_gamma(chi) <= mu holds exactly when
    isqrt(49 - 24*chi) < 2*mu - 5, that is when 49 - 24*chi < (2*mu - 5)^2
    for mu >= 3, and never for mu < 3.  So lo is the least chi above
    (49 - (2*mu - 5)^2)/24, found in constant time at any mu, and both of
    its boundary values are checked with heawood_gamma.

    The Klein bottle never matters here: at each chi the binding bound is
    the larger one, and the Klein bottle's is the smaller of the two
    chi = 0 values.
    """
    if mu_lower < 1:
        raise ValueError("mu_lower must be at least 1")
    if base_chi > 2:
        raise InvalidChi(f"no surface has Euler characteristic {base_chi}")
    hi = base_chi - 1
    lo = (49 - (2 * mu_lower - 5) ** 2) // 24 + 1
    if mu_lower < 3 or lo > hi:
        return None
    if not heawood_gamma(lo) <= mu_lower < heawood_gamma(lo - 1):
        raise ArithmeticError(f"chi = {lo} is not where the bound passes {mu_lower}")
    return lo, hi


def genus10_map(presentation: Presentation, table: CosetTable) -> CombinatorialMap:
    """The map of any presentation on generators y and z whose rotation
    is left multiplication by z, with edges from y*z and faces from y.
    For gamma10 it is the 54-vertex genus-10 triangulation."""
    return build_map_from_cosets(
        table,
        [presentation.word("z")],
        [presentation.word("y*z")],
        [presentation.word("y")],
    )
