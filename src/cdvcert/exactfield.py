"""Exact scalar arithmetic over Q and real quadratic extensions Q[sqrt(d)].

Every scalar is a + b*sqrt(d) with rational a, b and a squarefree positive
integer d.  Rationals are tagged d = 1 and mix freely with any extension;
two genuinely irrational scalars must share the same d.  All comparisons,
signs and inverses are exact, with no floating point anywhere on the
certified paths.
"""

from __future__ import annotations

import re
from fractions import Fraction

class DivisionByZero(ZeroDivisionError):
    """Inverse or quotient of an exact zero."""


class FieldMismatch(ValueError):
    """Arithmetic between scalars with distinct irrational parts."""


class ParseError(ValueError):
    """Scalar text that does not match the expression grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MixedRadicals(ParseError):
    """Parsed expression that combines incompatible radicals."""


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


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


class QuadScalar:
    """An element a + b*sqrt(d) of Q[sqrt(d)], with d = 1 meaning rational."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=1):
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("QuadScalar components must be exact, not float")
        a = Fraction(a)
        b = Fraction(b)
        if not isinstance(d, int) or d < 1:
            raise ValueError(f"radicand must be a positive integer, got {d}")
        if d == 1:
            a, b = a + b, Fraction(0)
        elif b == 0:
            d = 1
        elif squarefree_split(d)[0] != 1:
            raise ValueError(f"radicand {d} is not squarefree")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadScalar is immutable")

    @classmethod
    def root(cls, n: int) -> "QuadScalar":
        """sqrt(n) for a positive integer n, reduced to squarefree form."""
        s, d = squarefree_split(n)
        return cls(0, s, d) if d > 1 else cls(s)

    def _match(self, other) -> tuple["QuadScalar", "QuadScalar"]:
        if isinstance(other, (int, Fraction)):
            other = QuadScalar(other)
        elif not isinstance(other, QuadScalar):
            return NotImplemented, NotImplemented
        if self.d != other.d and self.b != 0 and other.b != 0:
            raise FieldMismatch(
                f"cannot combine sqrt({self.d}) with sqrt({other.d})"
            )
        return self, other

    def _tag(self, other: "QuadScalar") -> int:
        return self.d if self.b != 0 else other.d

    def __add__(self, other):
        x, y = self._match(other)
        if x is NotImplemented:
            return NotImplemented
        return QuadScalar(x.a + y.a, x.b + y.b, x._tag(y))

    __radd__ = __add__

    def __sub__(self, other):
        x, y = self._match(other)
        if x is NotImplemented:
            return NotImplemented
        return QuadScalar(x.a - y.a, x.b - y.b, x._tag(y))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        x, y = self._match(other)
        if x is NotImplemented:
            return NotImplemented
        d = x._tag(y)
        return QuadScalar(x.a * y.a + d * x.b * y.b, x.a * y.b + x.b * y.a, d)

    __rmul__ = __mul__

    def __neg__(self):
        return QuadScalar(-self.a, -self.b, self.d)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def inverse(self) -> "QuadScalar":
        # The field norm a^2 - d*b^2 vanishes only at zero when d is
        # squarefree, so dividing by it is safe.
        if not self:
            raise DivisionByZero("inverse of zero")
        n = self.a * self.a - self.d * self.b * self.b
        return QuadScalar(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        x, y = self._match(other)
        if x is NotImplemented:
            return NotImplemented
        if not y:
            raise DivisionByZero("division by zero")
        return x * y.inverse()

    def __rtruediv__(self, other):
        if not self:
            raise DivisionByZero("division by zero")
        return self.inverse() * other

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = QuadScalar(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}, decided by comparing a^2 against d*b^2."""
        sa, sb = _sgn(self.a), _sgn(self.b)
        if sb == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb
        # a and b*sqrt(d) pull in opposite directions; the larger square wins.
        t = self.a * self.a - self.d * self.b * self.b
        if t == 0:
            return 0
        return sa if t > 0 else sb

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadScalar):
            return self.a == other.a and self.b == other.b and self.d == other.d
        return NotImplemented

    def __hash__(self):
        # Rationals hash like their Fraction value so mixed-type dict keys work.
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def _cmp(self, other) -> int:
        x, y = self._match(other)
        if x is NotImplemented:
            raise TypeError(f"cannot compare QuadScalar with {type(other).__name__}")
        return (x - y).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def render(self) -> str:
        """Canonical text form, re-parseable by parse_scalar."""
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.d})"
        if self.b == 1:
            radical = root
        elif self.b == -1:
            radical = f"-{root}"
        else:
            radical = f"{self.b}*{root}"
        if self.a == 0:
            return radical
        if self.b > 0:
            sep, radical = " + ", radical
        else:
            sep, radical = " - ", radical.lstrip("-")
        return f"{self.a}{sep}{radical}"

    def __repr__(self):
        return f"QuadScalar({self.render()!r})"

    def __str__(self):
        return self.render()


ZERO = QuadScalar(0)
ONE = QuadScalar(1)
QuadScalar.ZERO = ZERO
QuadScalar.ONE = ONE


_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<sqrt>sqrt)|(?P<op>[()+\-*/]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
                raise ParseError(f"unexpected character {text[bad]!r}", bad)
            break
        if m.group("int"):
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("sqrt"):
            tokens.append(("sqrt", "sqrt", m.start("sqrt")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*,
    term := factor (('*'|'/') factor)*, factor := ['-'] atom,
    atom := integer | sqrt '(' integer ')' | '(' expr ')'."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}", tok[2])

    def _apply(self, op, x, y, pos) -> QuadScalar:
        try:
            return op(x, y)
        except FieldMismatch as exc:
            raise MixedRadicals(str(exc), pos) from exc

    def parse(self) -> QuadScalar:
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return value

    def expr(self) -> QuadScalar:
        value = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.take()
                rhs = self.term()
                op = QuadScalar.__add__ if tok[1] == "+" else QuadScalar.__sub__
                value = self._apply(op, value, rhs, tok[2])
            else:
                return value

    def term(self) -> QuadScalar:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "*/":
                self.take()
                rhs = self.factor()
                op = QuadScalar.__mul__ if tok[1] == "*" else QuadScalar.__truediv__
                value = self._apply(op, value, rhs, tok[2])
            else:
                return value

    def factor(self) -> QuadScalar:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.take()
            return -self.factor()
        return self.atom()

    def atom(self) -> QuadScalar:
        tok = self.take()
        if tok[0] == "int":
            return QuadScalar(tok[1])
        if tok[0] == "sqrt":
            self.expect_op("(")
            arg = self.take()
            if arg[0] != "int" or arg[1] < 1:
                raise ParseError("sqrt takes a positive integer literal", arg[2])
            self.expect_op(")")
            return QuadScalar.root(arg[1])
        if tok[0] == "op" and tok[1] == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse_scalar(text: str) -> QuadScalar:
    """Parse an exact scalar expression like '1 + sqrt(7)' or '-3/4'."""
    if not isinstance(text, str):
        raise ParseError(f"scalar data must be text, got {type(text).__name__}", 0)
    if not text.strip():
        raise ParseError("empty scalar", 0)
    return _Parser(text).parse()
