"""Exact scalar arithmetic over Q and real quadratic extensions Q[sqrt(d)].

Every scalar is (n + r*sqrt(d))/q, kept as four ints in a normal form:
q > 0, gcd(n, r, q) = 1, d a squarefree positive integer, and r = 0
exactly when d = 1.  Rationals are tagged d = 1 and mix freely with any
extension; two genuinely irrational scalars must share the same d.  The
normal form is unique, so equality compares the four ints.  Arithmetic,
signs and inverses run on ints with one gcd per result, and order is the
sign of a difference.  A result takes the d of its operands, which was
checked squarefree when they were built.  Fraction appears only at the
edges: the public constructor takes Fraction parts, `.a` and `.b` return
the rational and irrational coefficients as Fractions, and `render`
prints them.  No floating point anywhere on the certified paths.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

class DivisionByZero(ZeroDivisionError):
    """Inverse or quotient of an exact zero."""


class FieldMismatch(ValueError):
    """Arithmetic between scalars with distinct irrational parts."""


class ParseError(ValueError):
    """Scalar, presentation or word text that does not match its grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MixedRadicals(ParseError):
    """Parsed expression that combines incompatible radicals."""


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n >= 1 as s*s*d with d squarefree; return (s, d)."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    s, d, m = 1, 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * m


def pair_sign(a: int, b: int, d: int) -> int:
    """Exact sign in {-1, 0, 1} of a + b*sqrt(d) for ints a, b and d >= 1."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    sa = 1 if a > 0 else -1
    sb = 1 if b > 0 else -1
    if sa == sb:
        return sa
    # a and b*sqrt(d) pull in opposite directions; the larger square wins.
    t = a * a - d * b * b
    if t == 0:
        return 0
    return sa if t > 0 else sb


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an int, a Fraction, or any value
    Fraction() takes, such as the text '3/4'."""
    if type(x) is int:
        return x, 1
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


_set = object.__setattr__


class QuadScalar:
    """An element (n + r*sqrt(d))/q of Q[sqrt(d)], with d = 1 meaning
    rational.

    QuadScalar(a, b, d) is a + b*sqrt(d) for int or Fraction a and b, and
    checks that d is squarefree.  QuadScalar(n, r, d, q=q) is
    (n + r*sqrt(d))/q for ints n, r and q != 0, and trusts d: arithmetic
    builds its results this way from operands whose d was checked.  Both
    reduce the value to the normal form of the module docstring.  A
    rational compares and hashes equal to its int or Fraction value.
    """

    __slots__ = ("n", "r", "q", "d")

    def __init__(self, a=0, b=0, d=1, *, q=None):
        if q is None:
            if isinstance(a, float) or isinstance(b, float):
                raise TypeError("QuadScalar components must be exact, not float")
            (a, qa), (b, qb) = _ratio(a), _ratio(b)
            q = lcm(qa, qb)
            a, b = a * (q // qa), b * (q // qb)
            if not isinstance(d, int) or d < 1:
                raise ValueError(f"radicand must be a positive integer, got {d}")
            if b and d != 1 and squarefree_split(d)[0] != 1:
                raise ValueError(f"radicand {d} is not squarefree")
        elif q < 0:
            a, b, q = -a, -b, -q
        if not b:
            d = 1
        elif d == 1:
            a, b = a + b, 0
        g = gcd(a, b, q)
        if g != 1:
            a, b, q = a // g, b // g, q // g
        _set(self, "n", a)
        _set(self, "r", b)
        _set(self, "q", q)
        _set(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadScalar is immutable")

    @property
    def a(self) -> Fraction:
        """The rational part n/q."""
        return Fraction(self.n, self.q)

    @property
    def b(self) -> Fraction:
        """The coefficient r/q of sqrt(d)."""
        return Fraction(self.r, self.q)

    @classmethod
    def root(cls, n: int) -> "QuadScalar":
        """sqrt(n) for a positive integer n, reduced to squarefree form."""
        s, d = squarefree_split(n)
        return cls(0, s, d, q=1) if d > 1 else cls(s)

    def _match(self, other) -> tuple["QuadScalar", "QuadScalar"]:
        if isinstance(other, QuadScalar):
            pass
        elif isinstance(other, int):
            other = QuadScalar(other, 0, 1, q=1)
        elif isinstance(other, Fraction):
            other = QuadScalar(other.numerator, 0, 1, q=other.denominator)
        else:
            return NotImplemented, NotImplemented
        if self.d != other.d and self.r and other.r:
            raise FieldMismatch(
                f"cannot combine sqrt({self.d}) with sqrt({other.d})"
            )
        return self, other

    def _tag(self, other: "QuadScalar") -> int:
        return self.d if self.r else other.d

    def __add__(self, other):
        x, y = self._match(other)
        if x is NotImplemented:
            return NotImplemented
        return QuadScalar(
            x.n * y.q + y.n * x.q, x.r * y.q + y.r * x.q, x._tag(y), q=x.q * y.q
        )

    __radd__ = __add__

    def __sub__(self, other):
        x, y = self._match(other)
        if x is NotImplemented:
            return NotImplemented
        return QuadScalar(
            x.n * y.q - y.n * x.q, x.r * y.q - y.r * x.q, x._tag(y), q=x.q * y.q
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        x, y = self._match(other)
        if x is NotImplemented:
            return NotImplemented
        d = x._tag(y)
        return QuadScalar(
            x.n * y.n + d * x.r * y.r, x.n * y.r + x.r * y.n, d, q=x.q * y.q
        )

    __rmul__ = __mul__

    def __neg__(self):
        return QuadScalar(-self.n, -self.r, self.d, q=self.q)

    def inverse(self) -> "QuadScalar":
        # q/(n + r*sqrt(d)) = q*(n - r*sqrt(d))/(n^2 - d*r^2).  The field
        # norm n^2 - d*r^2 vanishes only at zero when d is squarefree, so
        # dividing by it is safe.
        if not self:
            raise DivisionByZero("inverse of zero")
        n, r, q, d = self.n, self.r, self.q, self.d
        return QuadScalar(q * n, -q * r, d, q=n * n - d * r * r)

    def __truediv__(self, other):
        x, y = self._match(other)
        if x is NotImplemented:
            return NotImplemented
        if not y:
            raise DivisionByZero("division by zero")
        return x * y.inverse()

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}: q > 0, so the sign of n + r*sqrt(d)."""
        return pair_sign(self.n, self.r, self.d)

    def __bool__(self):
        return self.n != 0 or self.r != 0

    def __eq__(self, other):
        if isinstance(other, QuadScalar):
            return (
                self.n == other.n
                and self.r == other.r
                and self.q == other.q
                and self.d == other.d
            )
        if isinstance(other, int):
            return self.r == 0 and self.q == 1 and self.n == other
        if isinstance(other, Fraction):
            return (
                self.r == 0
                and self.n == other.numerator
                and self.q == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        # Rationals hash like their Fraction value so mixed-type dict keys work.
        if self.r:
            return hash((self.n, self.r, self.q, self.d))
        return hash(self.n) if self.q == 1 else hash(Fraction(self.n, self.q))

    def render(self) -> str:
        """Canonical text form, re-parseable by parse_scalar."""
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        root = f"sqrt({self.d})"
        if b == 1:
            radical = root
        elif b == -1:
            radical = f"-{root}"
        else:
            radical = f"{b}*{root}"
        if a == 0:
            return radical
        if b > 0:
            sep, radical = " + ", radical
        else:
            sep, radical = " - ", radical.lstrip("-")
        return f"{a}{sep}{radical}"

    def __repr__(self):
        return f"QuadScalar({self.render()!r})"

    def __str__(self):
        return self.render()


ZERO = QuadScalar(0)
ONE = QuadScalar(1)
QuadScalar.ZERO = ZERO
QuadScalar.ONE = ONE


# Both grammars descend one call level per '(', so nesting is bounded well
# inside the interpreter's recursion limit.
MAX_NESTING = 100
# Longer integer literals are rejected before int() converts them.
MAX_INT_DIGITS = 1000


class Tokens:
    """Cursor over the tokens of one text.

    `pattern` matches one token after optional whitespace and names its
    kind by the named group that matched.  A token is (kind, value,
    position); an 'int' token's value is an int, any other is its text.
    Parentheses nested deeper than MAX_NESTING and integer literals longer
    than MAX_INT_DIGITS are parse errors.  The scalar grammar here and the
    presentation grammar of groups share this cursor and ParseError.
    """

    def __init__(self, pattern: re.Pattern, text: str):
        self.text = text
        self.items = []
        self.i = 0
        pos = depth = 0
        while pos < len(text):
            m = pattern.match(text, pos)
            if m is None:
                rest = text[pos:].lstrip()
                if rest:
                    bad = len(text) - len(rest)
                    raise ParseError(f"unexpected character {rest[0]!r}", bad)
                break
            kind = m.lastgroup
            value = m.group(kind)
            start = m.start(kind)
            if kind == "int":
                if len(value) > MAX_INT_DIGITS:
                    raise ParseError(f"integer longer than {MAX_INT_DIGITS} digits", start)
                value = int(value)
            elif value == "(":
                depth += 1
                if depth > MAX_NESTING:
                    raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", start)
            elif value == ")":
                depth -= 1
            self.items.append((kind, value, start))
            pos = m.end()

    def peek(self):
        return self.items[self.i] if self.i < len(self.items) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def accept(self, ops: str):
        """Take the next token if it is one of the operators in ops."""
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] in ops:
            self.i += 1
            return tok
        return None

    def expect(self, op: str, message: str):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(message, tok[2])

    def finish(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])


# sqrt(n) factors n by trial division up to sqrt(n); this bound keeps that
# under 25,000 steps and covers every radicand the certificates use.
MAX_RADICAND = 2**31

_SCALAR = re.compile(r"\s*(?:(?P<int>\d+)|(?P<sqrt>sqrt)|(?P<op>[()+\-*/]))")

_ARITHMETIC = {
    "+": QuadScalar.__add__,
    "-": QuadScalar.__sub__,
    "*": QuadScalar.__mul__,
    "/": QuadScalar.__truediv__,
}


def _binary(tokens: Tokens, ops: str, operand) -> QuadScalar:
    """Left fold of operand (op operand)* over the operators in ops."""
    value = operand(tokens)
    while tok := tokens.accept(ops):
        rhs = operand(tokens)
        try:
            value = _ARITHMETIC[tok[1]](value, rhs)
        except FieldMismatch as exc:
            raise MixedRadicals(str(exc), tok[2]) from exc
        except DivisionByZero as exc:
            raise ParseError(str(exc), tok[2]) from exc
    return value


def _expr(tokens: Tokens) -> QuadScalar:
    """expr := term (('+'|'-') term)*; term := factor (('*'|'/') factor)*."""
    return _binary(tokens, "+-", lambda t: _binary(t, "*/", _factor))


def _factor(tokens: Tokens) -> QuadScalar:
    """factor := '-' factor | integer | sqrt '(' integer ')' | '(' expr ')'."""
    negate = False
    while tokens.accept("-"):
        negate = not negate
    kind, value, pos = tokens.take()
    if kind == "int":
        value = QuadScalar(value)
    elif kind == "sqrt":
        tokens.expect("(", "expected '('")
        kind, value, pos = tokens.take()
        if kind != "int" or value < 1:
            raise ParseError("sqrt takes a positive integer literal", pos)
        if value > MAX_RADICAND:
            raise ParseError(f"radicand above the limit {MAX_RADICAND}", pos)
        tokens.expect(")", "expected ')'")
        value = QuadScalar.root(value)
    elif value == "(":
        value = _expr(tokens)
        tokens.expect(")", "expected ')'")
    else:
        raise ParseError(f"unexpected token {value!r}", pos)
    return -value if negate else value


def parse_scalar(text: str) -> QuadScalar:
    """Parse an exact scalar expression like '1 + sqrt(7)' or '-3/4'.  A
    division by zero and a sqrt radicand above MAX_RADICAND are
    ParseErrors at their position, as is text outside the grammar."""
    if not isinstance(text, str):
        raise ParseError(f"scalar data must be text, got {type(text).__name__}", 0)
    if not text.strip():
        raise ParseError("empty scalar", 0)
    tokens = Tokens(_SCALAR, text)
    value = _expr(tokens)
    tokens.finish()
    return value
