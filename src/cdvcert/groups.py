"""Finitely presented groups and exact coset enumeration.

Words are tuples of nonzero ints: +k is the k-th generator (1-based), -k
its inverse.  Enumeration builds the permutation action on right cosets by
relator tracing with immediate coincidence processing through a union-find
over table rows, so the result is exact whenever it completes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .exactfield import ParseError, Tokens

SENTINEL = -1

Word = tuple

# The most letters one parsed word may hold, and all relators of one
# parsed presentation together; a piece's length is checked before its
# power is built, so nested powers cannot outgrow it.
MAX_WORD_LENGTH = 100_000


class UnknownGenerator(ParseError):
    """A word mentions a name outside the presentation's alphabet."""


class CapExceeded(RuntimeError):
    """Coset enumeration allocated more rows than the configured cap."""

    def __init__(self, cap: int):
        super().__init__(f"coset enumeration exceeded {cap} rows")
        self.cap = cap


def free_reduce(word) -> Word:
    out = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def invert_word(word) -> Word:
    return tuple(-g for g in reversed(word))


@dataclass(frozen=True)
class Presentation:
    """Generators plus relators, each relator a freely reduced word."""

    generators: tuple
    relators: tuple

    def word(self, text: str) -> Word:
        """Parse a word like 'z^2*y^-1' over this presentation's alphabet."""
        tokens = Tokens(_PRESENTATION, text)
        word = _word(tokens, self.generators)
        tokens.finish()
        return word


_PRESENTATION = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<op>[<>|,*^()=\-]))"
)


def _word(tokens: Tokens, generators) -> Word:
    """word := piece ('*' piece)*, freely reduced."""
    out = list(_piece(tokens, generators))
    while tok := tokens.accept("*"):
        out.extend(_piece(tokens, generators))
        if len(out) > MAX_WORD_LENGTH:
            raise ParseError(f"word longer than {MAX_WORD_LENGTH} letters", tok[2])
    return free_reduce(out)


def _piece(tokens: Tokens, generators) -> Word:
    """piece := (name | '1' | '(' word ')') ['^' ['-'] integer]."""
    kind, value, pos = tokens.take()
    if kind == "name":
        if value not in generators:
            raise UnknownGenerator(f"unknown generator {value!r}", pos)
        atom = (generators.index(value) + 1,)
    elif kind == "int" and value == 1:
        atom = ()
    elif value == "(":
        atom = _word(tokens, generators)
        tokens.expect(")", "expected ')'")
    else:
        raise ParseError(f"unexpected token {value!r}", pos)
    if not tokens.accept("^"):
        return atom
    if tokens.accept("-"):
        atom = invert_word(atom)
    kind, e, pos = tokens.take()
    if kind != "int":
        raise ParseError("exponent must be an integer", pos)
    if e * max(len(atom), 1) > MAX_WORD_LENGTH:
        raise ParseError(f"power longer than {MAX_WORD_LENGTH} letters", pos)
    return atom * e


def parse_presentation(text: str) -> Presentation:
    """Parse '< gens | relations >' where relations are comma separated and
    each relation is a word or a chain of '='-joined words."""
    tokens = Tokens(_PRESENTATION, text)
    if not tokens.accept("<"):
        raise ParseError("presentation must start with '<'", 0)
    names = []
    tok = tokens.take()
    if tok[0] == "name":
        names.append(tok[1])
        while tokens.accept(","):
            tok = tokens.take()
            if tok[0] != "name":
                raise ParseError("expected a generator name after ','", tok[2])
            if tok[1] in names:
                raise ParseError(f"duplicate generator {tok[1]!r}", tok[2])
            names.append(tok[1])
        tok = tokens.take()
    if tok[1] != "|":
        raise ParseError("expected generator list then '|'", tok[2])
    if not names:
        raise ParseError("empty generator list", 0)
    relators = []
    letters = 0
    while not tokens.accept(">"):
        start = tokens.peek()
        chain = [_word(tokens, names)]
        while tokens.accept("="):
            chain.append(_word(tokens, names))
        if len(chain) == 1:
            chain.append(())  # a lone word w is the relation w = 1
        for left, right in zip(chain, chain[1:]):
            relators.append(free_reduce(left + invert_word(right)))
            letters += len(relators[-1])
        if letters > MAX_WORD_LENGTH:
            raise ParseError(f"relators longer than {MAX_WORD_LENGTH} letters", start[2])
        if not tokens.accept(","):
            tok = tokens.peek()
            if tok is not None and tok[1] != ">":
                raise ParseError(f"expected ',' or '>', got {tok[1]!r}", tok[2])
    tokens.finish()
    return Presentation(tuple(names), tuple(r for r in relators if r))


def _symbols(word) -> tuple:
    # Slot encoding: generator k acts on slot 2(k-1), its inverse on the
    # odd partner, so xor 1 flips direction.
    return tuple(2 * (g - 1) if g > 0 else 2 * (-g - 1) + 1 for g in word)


@dataclass(frozen=True)
class CosetTable:
    """Completed permutation action of the generators on right cosets.

    Row 0 is the subgroup itself.  action[c][s] is the image of coset c
    under slot s (even slots are generators, odd their inverses).
    """

    generators: tuple
    subgroup_words: tuple
    action: tuple

    @property
    def count(self) -> int:
        return len(self.action)

    def apply(self, coset: int, word) -> int:
        for s in _symbols(word):
            coset = self.action[coset][s]
        return coset

    def permutation(self, word) -> list:
        return [self.apply(c, word) for c in range(self.count)]

    def verify(self, presentation: Presentation) -> None:
        """Re-check table axioms; raises ValueError on any failure."""
        width = 2 * len(self.generators)
        for c, row in enumerate(self.action):
            if len(row) != width:
                raise ValueError(f"row {c} has width {len(row)}")
            for s, t in enumerate(row):
                if not 0 <= t < self.count:
                    raise ValueError(f"row {c} slot {s} out of range")
                if self.action[t][s ^ 1] != c:
                    raise ValueError(f"slots {s} and {s ^ 1} disagree at coset {c}")
        for s in range(width):
            column = [row[s] for row in self.action]
            if sorted(column) != list(range(self.count)):
                raise ValueError(f"slot {s} is not a permutation")
        for rel in presentation.relators:
            for c in range(self.count):
                if self.apply(c, rel) != c:
                    raise ValueError(f"relator {rel} does not fix coset {c}")
        for word in self.subgroup_words:
            if self.apply(0, word) != 0:
                raise ValueError(f"subgroup word {word} moves coset 0")
        seen = {0}
        frontier = [0]
        while frontier:
            c = frontier.pop()
            for t in self.action[c]:
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        if len(seen) != self.count:
            raise ValueError("table is not transitive")


def coset_enumerate(
    presentation: Presentation, subgroup=(), max_cosets: int = 100000
) -> CosetTable:
    """Enumerate right cosets of <subgroup> by relator tracing.

    One scan takes each live coset in order, traces every relator from it
    and then, if it is still live, defines its empty slots; the scan
    reaches the cosets so defined in turn.  Coincidences collapse rows
    immediately through a union-find, so memory stays proportional to rows
    ever allocated; the cap bounds that count.
    """
    width = 2 * len(presentation.generators)
    relators = [_symbols(r) for r in presentation.relators]
    subgroup = tuple(free_reduce(w) for w in subgroup)
    sub_syms = [_symbols(w) for w in subgroup]
    for w in subgroup:
        for g in w:
            if not 1 <= abs(g) <= len(presentation.generators):
                raise UnknownGenerator(f"word letter {g} out of range", 0)

    labels: list = []
    neighbors: list = []

    def new_vertex() -> int:
        if len(labels) >= max_cosets:
            raise CapExceeded(max_cosets)
        labels.append(len(labels))
        neighbors.append([SENTINEL] * width)
        return len(labels) - 1

    def find(v: int) -> int:
        root = v
        while labels[root] != root:
            root = labels[root]
        while labels[v] != root:
            labels[v], v = root, labels[v]
        return root

    def follow(v: int, s: int) -> int:
        v = find(v)
        t = neighbors[v][s]
        if t == SENTINEL:
            t = new_vertex()
            neighbors[v][s] = t
            neighbors[t][s ^ 1] = v
            return t
        return find(t)

    def trace(v: int, symbols) -> int:
        for s in symbols:
            v = follow(v, s)
        return v

    def unify(a: int, b: int) -> None:
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
                if t == SENTINEL:
                    continue
                u = neighbors[a][s]
                if u == SENTINEL:
                    neighbors[a][s] = t
                else:
                    stack.append((t, u))

    new_vertex()
    for syms in sub_syms:
        unify(trace(0, syms), 0)
    v = 0
    while v < len(labels):
        if find(v) == v:
            for rel in relators:
                unify(trace(v, rel), v)
        if find(v) == v:
            for s in range(width):
                if neighbors[v][s] == SENTINEL:
                    follow(v, s)
        v += 1

    roots = [v for v in range(len(labels)) if find(v) == v]
    index = {root: i for i, root in enumerate(roots)}
    action = tuple(
        tuple(index[find(neighbors[root][s])] for s in range(width))
        for root in roots
    )
    table = CosetTable(presentation.generators, subgroup, action)
    table.verify(presentation)
    return table


def element_order(presentation: Presentation, word, table: CosetTable | None = None) -> int:
    """Order of the element in the enumerated group (regular action)."""
    if table is None:
        table = coset_enumerate(presentation)
    elif table.subgroup_words:
        raise ValueError("element order needs the regular table")
    perm = table.permutation(word)
    order = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        c = start
        while not seen[c]:
            seen[c] = True
            c = perm[c]
            length += 1
        order = order * length // math.gcd(order, length)
    return order


def left_action(table: CosetTable, word) -> list:
    """Left multiplication by the word as a permutation of group elements.

    Needs the regular table (trivial subgroup).  Computed by seeding the
    identity's image and pushing along edges: left and right actions
    commute.
    """
    if table.subgroup_words:
        raise ValueError("left action needs the regular table")
    n = table.count
    out = [SENTINEL] * n
    out[0] = table.apply(0, word)
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for s, t in enumerate(table.action[v]):
            if out[t] == SENTINEL:
                out[t] = table.action[out[v]][s]
                frontier.append(t)
    return out


def orbit_partition(n: int, perms) -> list:
    """Orbits of the group generated by the permutations, sorted by their
    smallest point; each orbit is a sorted list."""
    parent = list(range(n))

    def find(v):
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    for perm in perms:
        for x, y in enumerate(perm):
            rx, ry = find(x), find(y)
            if rx != ry:
                if ry < rx:
                    rx, ry = ry, rx
                parent[ry] = rx
    groups: dict = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return [sorted(groups[root]) for root in sorted(groups)]


GAMMA10_TEXT = (
    "< y, z | y^3, z^8, (y*z)^2, "
    "z^2*y^-1*z^3*y^-1*z*y^-1*z^-3*y*z^-3*y^-1 >"
)


def gamma10() -> Presentation:
    """The order-432 two-generator presentation whose coset geometry drives
    the genus-10 certificate."""
    return parse_presentation(GAMMA10_TEXT)
