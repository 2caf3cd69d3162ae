"""Finitely presented groups and exact coset enumeration.

Words are tuples of nonzero ints: +k is the k-th generator (1-based), -k
its inverse.  Enumeration builds the permutation action on right cosets by
HLT scan-and-fill with queued coincidence processing through a union-find
over table rows, so the result is exact whenever it completes, and returns
it in standard order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .exactfield import ParseError, Tokens

SENTINEL = -1

Word = tuple

# The most letters one parsed word may hold, and all relators of one
# parsed presentation together; a piece's length is checked before its
# power is built, so nested powers cannot outgrow it.
MAX_WORD_LENGTH = 100_000

# The most entries a coset table may hold: max_cosets rows times two
# slots per generator, checked before the table is allocated.  One entry
# is a list slot of 8 bytes, so a full table stays near 16 MB; the default
# cap of 100,000 rows admits up to 10 generators.
MAX_TABLE_SLOTS = 2_000_000


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
    under slot s (even slots are generators, odd their inverses), and
    columns[s][c] is the same entry read a slot at a time.
    """

    generators: tuple
    subgroup_words: tuple
    action: tuple
    columns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(zip(*self.action)))

    @property
    def count(self) -> int:
        return len(self.action)

    def apply(self, coset: int, word) -> int:
        for s in _symbols(word):
            coset = self.action[coset][s]
        return coset

    def permutation(self, word) -> list:
        """Entry c is the coset c*word, composed a column per letter."""
        perm = list(range(self.count))
        for s in _symbols(word):
            perm = list(map(self.columns[s].__getitem__, perm))
        return perm

    def verify(self, presentation: Presentation) -> None:
        """Re-check table axioms; raises ValueError on any failure.

        Every slot must be a permutation inverse to its partner slot, every
        relator must fix every coset, every subgroup word coset 0, and the
        action must be transitive."""
        n = self.count
        width = 2 * len(self.generators)
        identity = list(range(n))

        def first_moved(perm) -> int:
            return next(c for c in identity if perm[c] != c)

        for c, row in enumerate(self.action):
            if len(row) != width:
                raise ValueError(f"row {c} has width {len(row)}")
        for s, column in enumerate(self.columns):
            if min(column) < 0 or max(column) >= n:
                c = next(c for c, t in enumerate(column) if not 0 <= t < n)
                raise ValueError(f"row {c} slot {s} out of range")
        for s, column in enumerate(self.columns):
            back = list(map(self.columns[s ^ 1].__getitem__, column))
            if back != identity:
                c = first_moved(back)
                raise ValueError(f"slots {s} and {s ^ 1} disagree at coset {c}")
            if sorted(column) != identity:
                raise ValueError(f"slot {s} is not a permutation")
        for rel in presentation.relators:
            perm = self.permutation(rel)
            if perm != identity:
                raise ValueError(f"relator {rel} does not fix coset {first_moved(perm)}")
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
        if len(seen) != n:
            raise ValueError("table is not transitive")


def coset_enumerate(
    presentation: Presentation, subgroup=(), max_cosets: int = 100000
) -> CosetTable:
    """Enumerate the right cosets of <subgroup> by HLT scan-and-fill.

    Each subgroup word is scanned and filled at coset 0.  Then each live
    coset in turn has every relator scanned and filled at it and, if it is
    still live, its empty slots defined; later cosets are reached in
    turn.  Scan-and-fill reads the word forward from the coset as far as
    the table is defined, and backward from the word's end.  If the two
    scans meet, their end cosets are equal: a coincidence when they
    differ.  If they leave a gap of one letter, that entry is a deduction,
    filled in both directions.  Otherwise one coset is defined at the
    forward end and the backward scan resumes.  A coincidence merges the
    larger coset into the smaller in a union-find and queues it; each
    queued coset's entries move to its representative, and two entries
    that clash queue a further merge (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005, sections 5.1-5.2).

    max_cosets bounds the rows ever allocated, coset 0 and dead cosets
    included: one more raises CapExceeded.  A cap below 1, or one whose
    rows of 2 slots per generator would hold more than MAX_TABLE_SLOTS
    entries, raises ValueError before any row is allocated.

    The table comes back in standard order: coset 0 first, then every
    coset in the order it first appears when the rows are read in order
    and each row's slots in order.  The numbering therefore depends on the
    action alone, not on the relator order or the enumeration strategy.
    Every returned table has passed CosetTable.verify.
    """
    if max_cosets < 1:
        raise ValueError(f"max_cosets must be at least 1, got {max_cosets}")
    width = 2 * len(presentation.generators)
    if max_cosets * width > MAX_TABLE_SLOTS:
        raise ValueError(
            f"max_cosets {max_cosets} times {width} slots exceeds "
            f"MAX_TABLE_SLOTS = {MAX_TABLE_SLOTS}; lower max_cosets"
        )
    subgroup = tuple(free_reduce(w) for w in subgroup)
    for w in subgroup:
        for g in w:
            if not 1 <= abs(g) <= len(presentation.generators):
                raise UnknownGenerator(f"word letter {g} out of range", 0)

    # One list per slot, indexed by coset; parent is the union-find, in
    # which a coset is live exactly when it is its own parent.
    cols = [[SENTINEL] for _ in range(width)]
    parent = [0]
    queue: list = []

    def define(c: int, s: int) -> int:
        new = len(parent)
        if new >= max_cosets:
            raise CapExceeded(max_cosets)
        parent.append(new)
        for col in cols:
            col.append(SENTINEL)
        cols[s][c] = new
        cols[s ^ 1][new] = c
        return new

    def rep(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def merge(a: int, b: int) -> None:
        a, b = rep(a), rep(b)
        if a != b:
            if b < a:
                a, b = b, a
            parent[b] = a
            queue.append(b)

    def coincidence(a: int, b: int) -> None:
        merge(a, b)
        for dead in queue:
            for s, col in enumerate(cols):
                d = col[dead]
                if d == SENTINEL:
                    continue
                back = cols[s ^ 1]
                back[d] = SENTINEL
                m, n = rep(dead), rep(d)
                if col[m] != SENTINEL:
                    merge(n, col[m])
                elif back[n] != SENTINEL:
                    merge(m, back[n])
                else:
                    col[m] = n
                    back[n] = m
        queue.clear()

    def scan_and_fill(a: int, word) -> None:
        symbols, forward, backward = word
        f, i, j = a, 0, len(symbols) - 1
        while i <= j and (t := forward[i][f]) != SENTINEL:
            f, i = t, i + 1
        if i > j:
            if f != a:
                coincidence(f, a)
            return
        b = a
        while True:
            while j >= i and (t := backward[j][b]) != SENTINEL:
                b, j = t, j - 1
            if j < i:
                if f != b:
                    coincidence(f, b)
                return
            if j == i:
                forward[i][f] = b
                backward[i][b] = f
                return
            f, i = define(f, symbols[i]), i + 1

    def scannable(word):
        symbols = _symbols(word)
        return (
            symbols,
            [cols[s] for s in symbols],
            [cols[s ^ 1] for s in symbols],
        )

    for w in subgroup:
        scan_and_fill(0, scannable(w))
    relators = [scannable(r) for r in presentation.relators]
    a = 0
    while a < len(parent):
        if parent[a] == a:
            for rel in relators:
                scan_and_fill(a, rel)
                if parent[a] != a:
                    break
            else:
                for s, col in enumerate(cols):
                    if col[a] == SENTINEL:
                        define(a, s)
        a += 1

    # Standard order: number the live cosets as they first appear.
    number = [SENTINEL] * len(parent)
    number[0] = 0
    order, rows = [0], []
    for c in order:
        row = [col[c] for col in cols]
        for t in row:
            if t == SENTINEL or parent[t] != t:
                raise RuntimeError(f"coset {c} has an empty or dead entry")
            if number[t] == SENTINEL:
                number[t] = len(order)
                order.append(t)
        rows.append(row)
    action = tuple(tuple(number[t] for t in row) for row in rows)
    table = CosetTable(presentation.generators, subgroup, action)
    table.verify(presentation)
    return table


def element_order(presentation: Presentation, word, table: CosetTable | None = None) -> int:
    """Order of the element in the enumerated group (regular action)."""
    if table is None:
        table = coset_enumerate(presentation)
    elif table.subgroup_words:
        raise ValueError("element order needs the regular table")
    return math.lcm(*map(len, cycles(table.permutation(word))))


def cycles(perm) -> list:
    """The cycles of a permutation of range(len(perm)), ordered by their
    least point; each cycle starts there and follows perm."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if not seen[start]:
            cycle = []
            c = start
            while not seen[c]:
                seen[c] = True
                cycle.append(c)
                c = perm[c]
            out.append(cycle)
    return out


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


GAMMA10_TEXT = (
    "< y, z | y^3, z^8, (y*z)^2, "
    "z^2*y^-1*z^3*y^-1*z*y^-1*z^-3*y*z^-3*y^-1 >"
)


def gamma10() -> Presentation:
    """The order-432 two-generator presentation whose coset geometry drives
    the genus-10 certificate."""
    return parse_presentation(GAMMA10_TEXT)
