"""Plain-text reading and writing of polynomials and ideals.

Polynomial grammar: integer or a/b coefficients, variable names, the
operators + - * ^ and parentheses.  Implicit multiplication is not allowed;
`2*x0^3*y` is the canonical shape.  Files are UTF-8, one statement per line,
`#` starts a comment.  An ideal file begins with a ring header line

    ring R vars x0 x1 x2 field GF(17) order grevlex

followed by one polynomial per line.  Printing and parsing round-trip.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .fields import FieldError, field_from_name
from .orders import TermOrder


class ParseError(ValueError):
    def __init__(self, message: str, pos: int, text: str):
        self.pos = pos
        self.text = text
        super().__init__(f"{message} at position {pos}: {text[:pos]}<HERE>{text[pos:]}")


# -- tokenizer --------------------------------------------------------

_OPS = set("+-*^()")
_NUMBER = re.compile(r"([0-9]+)(/([0-9]*))?")


def _tokenize(text: str):
    """Yields (kind, value, pos) with kind in {int, frac, name, op}.  A
    coefficient a/b, the slash glued to both integers, is one frac token."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch in _OPS:
            yield ("op", ch, i)
            i += 1
        elif m := _NUMBER.match(text, i):
            if m[2] is None:
                yield ("int", int(m[1]), i)
            elif not m[3]:
                raise ParseError("expected denominator after /", m.start(2), text)
            elif int(m[3]) == 0:
                raise ParseError("zero denominator", m.start(3), text)
            else:
                yield ("frac", Fraction(int(m[1]), int(m[3])), i)
            i = m.end()
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("name", text[i:j], i)
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i, text)
    yield ("end", None, n)


class _Parser:
    """Recursive descent over: expr = term (("+"|"-") term)*;
    term = factor ("*" factor)*; factor = ("-")* atom ("^" int)?;
    atom = int | frac | name | "(" expr ")".
    """

    def __init__(self, text: str, ring):
        self.text = text
        self.ring = ring
        self.toks = list(_tokenize(text))
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, ch):
        kind, val, pos = self.next()
        if kind != "op" or val != ch:
            raise ParseError(f"expected {ch!r}", pos, self.text)

    def parse(self):
        f = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos, self.text)
        return f

    def expr(self):
        f = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                t = self.term()
                f = f - t if val == "-" else f + t
            else:
                return f

    def term(self):
        f = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                f = f * self.factor()
            else:
                return f

    def factor(self):
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "-":
                self.next()
                sign = -sign
            elif kind == "op" and val == "+":
                self.next()
            else:
                break
        f = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, e, pos = self.next()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", pos, self.text)
            f = f**e
        return f if sign == 1 else -f

    def atom(self):
        kind, val, pos = self.next()
        if kind in ("int", "frac"):
            try:
                return self.ring.const(val)
            except FieldError:
                raise ParseError(f"coefficient {val} is not defined over "
                                 f"{self.ring.field!r}", pos, self.text) from None
        if kind == "name":
            try:
                idx = self.ring.var_index(val)
            except KeyError:
                raise ParseError(f"unknown variable {val!r}", pos, self.text) from None
            return self.ring.var(idx)
        if kind == "op" and val == "(":
            f = self.expr()
            self.expect_op(")")
            return f
        raise ParseError("expected a coefficient, variable or parenthesis", pos, self.text)


def parse_poly(text: str, ring):
    """Parse one polynomial in the given ring.  Coefficients a/b are written
    with the fraction slash glued to the integers, e.g. -3/4*x0."""
    return _Parser(text, ring).parse()


# -- printing ---------------------------------------------------------


def _coeff_str(c) -> str:
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return str(c.numerator)
        return f"{c.numerator}/{c.denominator}"
    return str(c)


def poly_to_string(f) -> str:
    if f.is_zero():
        return "0"
    ring = f.ring
    F = ring.field
    names = ring.names
    parts = []
    for m, c in f.terms:
        exps = ring.code.unpack(m)
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        neg = False
        if isinstance(c, Fraction):
            if c < 0:
                neg, c = True, -c
        elif F.char and c > F.char // 2:
            # symmetric residue keeps F_p output short and roundtrippable
            neg, c = True, F.char - c
        cs = _coeff_str(c)
        if factors and cs == "1":
            body = "*".join(factors)
        elif factors:
            body = cs + "*" + "*".join(factors)
        else:
            body = cs
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def parse_ring_header(line: str):
    from .mpoly import PolynomialRing

    toks = line.split()
    if not toks or toks[0] != "ring":
        raise ParseError("expected 'ring' header", 0, line)
    try:
        vi = toks.index("vars")
        fi = toks.index("field")
        oi = toks.index("order")
    except ValueError as e:
        raise ParseError(f"malformed ring header ({e})", 0, line) from None
    names = tuple(toks[vi + 1 : fi])
    if not names:
        raise ParseError("ring header lists no variables", vi, line)
    try:
        field = field_from_name(toks[fi + 1])
    except (IndexError, FieldError) as e:
        raise ParseError(f"bad field in ring header ({e})", fi, line) from None
    order = _parse_order(" ".join(toks[oi + 1 :]), line)
    return PolynomialRing(field, names, order)


def _parse_order(s: str, line: str) -> TermOrder:
    s = s.strip()
    if s == "grevlex":
        return TermOrder.grevlex()
    if s == "lex":
        return TermOrder.lex()
    if s.startswith("block(") and s.endswith(")"):
        return TermOrder.block(int(s[6:-1]))
    if s.startswith("weighted(") and s.endswith(")"):
        return TermOrder.weighted(int(x) for x in s[9:-1].split(","))
    raise ParseError(f"unknown order {s!r}", 0, line)


def data_lines(text: str):
    """The lines of text with `#` comments cut off and whitespace stripped,
    blank ones skipped."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def read_ideal(path):
    """Returns (ring, list of polynomials)."""
    with open(path, encoding="utf-8") as fh:
        lines = list(data_lines(fh.read()))
    if not lines:
        raise ParseError("file contains no ring header", 0, "")
    ring = parse_ring_header(lines[0])
    return ring, [parse_poly(line, ring) for line in lines[1:]]
