"""Surface maps built from coset geometry, plus Euler-genus bookkeeping.

Vertices, edges and faces are orbits of designated cyclic subgroups acting
on the group by left multiplication; incidence is shared points.  The
resulting combinatorial map carries its underlying simple graph and enough
incidence data to check regularity and compute genus exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .groups import CosetTable, Presentation, left_action, orbit_partition


class MalformedIncidence(ValueError):
    """Edge orbits that do not meet exactly two vertices and two faces."""


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
            if type(n) is not int or not isinstance(edges, list):
                raise TypeError("'n' must be an int and 'edges' a list")
            return cls(n, tuple(tuple(e) for e in edges))
        except (KeyError, TypeError) as exc:
            raise ValueError(
                "graph data must be a JSON object with an int 'n' and an "
                "'edges' list"
            ) from exc

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path) -> "SimpleGraph":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class CombinatorialMap:
    """Vertex, edge and face orbits with their shared-point incidences."""

    vertex_count: int
    edge_count: int
    face_count: int
    edge_face: tuple
    graph: SimpleGraph


def build_map_from_cosets(
    table: CosetTable, vertex_words, edge_words, face_words
) -> CombinatorialMap:
    """Orbit the regular table under left multiplication by each subgroup
    and read the map off shared points.

    Every edge orbit must meet exactly two vertex orbits and two face
    orbits, and no two edge orbits may join the same vertex pair; anything
    else raises MalformedIncidence.
    """
    classes = []
    for words in (vertex_words, edge_words, face_words):
        perms = [left_action(table, w) for w in words]
        orbits = orbit_partition(table.count, perms)
        of = [0] * table.count
        for i, orbit in enumerate(orbits):
            for x in orbit:
                of[x] = i
        classes.append((orbits, of))
    (v_orbits, vertex_of), (e_orbits, edge_of), (f_orbits, face_of) = classes

    edges = []
    edge_face = set()
    for ei, orbit in enumerate(e_orbits):
        ends = sorted({vertex_of[p] for p in orbit})
        sides = sorted({face_of[p] for p in orbit})
        if len(ends) != 2:
            raise MalformedIncidence(
                f"edge orbit {ei} meets {len(ends)} vertices, expected 2"
            )
        if len(sides) != 2:
            raise MalformedIncidence(
                f"edge orbit {ei} meets {len(sides)} faces, expected 2"
            )
        edges.append((ends[0], ends[1]))
        edge_face.update((ei, f) for f in sides)
    if len(set(edges)) != len(edges):
        raise MalformedIncidence("two edge orbits join the same vertex pair")
    graph = SimpleGraph(len(v_orbits), tuple(edges))
    return CombinatorialMap(
        vertex_count=len(v_orbits),
        edge_count=len(e_orbits),
        face_count=len(f_orbits),
        edge_face=tuple(sorted(edge_face)),
        graph=graph,
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
    """Return (p, q): every face has p sides and every vertex degree q."""
    face_sizes: dict = {}
    for _, f in m.edge_face:
        face_sizes[f] = face_sizes.get(f, 0) + 1
    sizes = set(face_sizes.values())
    if len(sizes) != 1:
        raise NotRegular(f"face sizes vary: {sorted(sizes)}")
    degrees = set(m.graph.degrees())
    if len(degrees) != 1:
        raise NotRegular(f"vertex degrees vary: {sorted(degrees)}")
    return sizes.pop(), degrees.pop()


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


def counterexample_range(mu_lower: int, base_chi: int = -18):
    """Contiguous chi interval below base_chi where the complete-graph
    embedding bound stays under mu_lower for every surface, as (lo, hi);
    None if already at base_chi - 1 the bound is large enough.

    The Klein bottle never matters here: at each chi the binding bound is
    the larger one, and the Klein bottle's is the smaller of the two
    chi = 0 values.
    """
    if mu_lower < 1:
        raise ValueError("mu_lower must be at least 1")
    if base_chi > 2:
        raise InvalidChi(f"no surface has Euler characteristic {base_chi}")
    hi = base_chi - 1
    chi = hi
    lo = None
    while heawood_gamma(chi) - 1 < mu_lower:
        lo = chi
        chi -= 1
    return None if lo is None else (lo, hi)


def genus10_map(presentation: Presentation, table: CosetTable) -> CombinatorialMap:
    """The 54-vertex triangulated map: vertices are cosets of <z>, edges of
    <y*z>, faces of <y>."""
    return build_map_from_cosets(
        table,
        [presentation.word("z")],
        [presentation.word("y*z")],
        [presentation.word("y")],
    )
