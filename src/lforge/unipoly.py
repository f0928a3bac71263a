"""Dense univariate polynomials over an exact field.

Coefficients are stored low degree first with a nonzero leading coefficient
(the zero polynomial has an empty coefficient list).  These are the matrix
entries of the Smith-normal-form machinery.

Each operation is one loop for F_p and Q: it adds and multiplies plain ints
or Fractions, and the constructor maps the unreduced sums into the field
once at the end (a vectorized ``% p`` when they fit a machine integer).
Long division maps a remainder coefficient into the field only when it
reads it.
"""

from __future__ import annotations

import numpy as np

from .fields import FieldError, PrimeField
from .mpoly import PolynomialRing
from .textio import _coeff_str, parse_poly


class UniPoly:
    __slots__ = ("field", "coeffs", "var")

    def __init__(self, field, coeffs, var: str = "lambda"):
        self.field = field
        self.var = var
        if isinstance(field, PrimeField):
            arr = np.asarray(coeffs)
            # machine integers get a vectorized % p; sums past int64 come
            # out float or object, and go element by element below
            if arr.dtype.kind in "iu":
                arr = arr % field.p
                if arr.size and not arr[-1]:  # trim trailing zeros at once
                    arr = arr[:np.flatnonzero(arr).max(initial=-1) + 1]
                self.coeffs = arr.tolist()
                return
        cs = [field.of(c) for c in coeffs]
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        self.coeffs = cs

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field, var="lambda"):
        return cls(field, [], var)

    @classmethod
    def one(cls, field, var="lambda"):
        return cls(field, [1], var)

    @classmethod
    def x(cls, field, var="lambda"):
        return cls(field, [0, 1], var)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            return self.field.zero
        return self.coeffs[-1]

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def _check(self, other):
        if self.field != other.field:
            raise FieldError("mixed coefficient fields")
        if self.var != other.var:
            raise FieldError(f"mixed variables {self.var!r} and {other.var!r}")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.field, [self[i] + other[i] for i in range(n)],
                       self.var)

    def __sub__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.field, [self[i] - other[i] for i in range(n)],
                       self.var)

    def __neg__(self):
        F = self.field
        return UniPoly(F, [F.neg(c) for c in self.coeffs], self.var)

    def __mul__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return UniPoly(self.field, out, self.var)

    def scale(self, c):
        F = self.field
        return UniPoly(F, [F.mul(c, a) for a in self.coeffs], self.var)

    def divmod(self, other):
        """(quotient, remainder).  The remainder's coefficients are updated
        unreduced; over F_p each is reduced mod p only when it is read as
        the next coefficient to divide."""
        self._check(other)
        F = self.field
        if other.is_zero():
            raise FieldError("division by zero polynomial")
        if self.degree < other.degree:
            return UniPoly.zero(F, self.var), self
        rem = list(self.coeffs)
        dv = other.coeffs
        nd = len(dv)
        inv_lc = F.inv(other.lc)
        quo = [0] * (len(rem) - nd + 1)
        for k in range(len(quo) - 1, -1, -1):
            c = F.of(rem[k + nd - 1])
            if c:
                q = F.mul(c, inv_lc)
                quo[k] = q
                for j in range(nd - 1):
                    rem[k + j] -= q * dv[j]
        return (UniPoly(F, quo, self.var),
                UniPoly(F, rem[:nd - 1], self.var))

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise FieldError("inexact polynomial division")
        return q

    def __pow__(self, n: int):
        result = UniPoly.one(self.field, self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.lc))

    def derivative(self):
        F = self.field
        return UniPoly(F, [F.mul(F.of(i), c) for i, c in enumerate(self.coeffs)][1:], self.var)

    def __call__(self, x):
        F = self.field
        acc = F.zero
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, F.of(x)), c)
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.field == other.field
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.var, tuple(self.coeffs)))

    # -- printing -----------------------------------------------------

    def __repr__(self):
        return self.to_string()

    def to_string(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if self.field.is_zero(c):
                continue
            if i == 0:
                term = _coeff_str(c)
            else:
                v = self.var if i == 1 else f"{self.var}^{i}"
                term = v if c == self.field.one else f"{_coeff_str(c)}*{v}"
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")


def parse_unipoly(text: str, field, var: str, name: str | None = None
                  ) -> UniPoly:
    """One polynomial in the syntax of textio.parse_poly, written in the
    variable ``name`` (``var`` when None), as a UniPoly in ``var``."""
    ring = PolynomialRing(field, (name or var,))
    f = parse_poly(text, ring)
    exps = [ring.code.unpack(m)[0] for m, _ in f.terms]
    coeffs = [field.zero] * (1 + max(exps, default=0))
    for e, (_, c) in zip(exps, f.terms):
        coeffs[e] = c
    return UniPoly(field, coeffs, var)


def gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd; gcd(f, 0) = monic(f)."""
    f._check(g)
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def squarefree_decomposition(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun/char-p squarefree factorization: [(g_i, m_i)] with
    prod g_i^{m_i} = monic(f), the g_i monic, squarefree, pairwise coprime.
    """
    if f.is_zero():
        raise FieldError("squarefree decomposition of zero")
    f = f.monic()
    if f.degree == 0:
        return []
    p = getattr(f.field, "char", 0)
    out: list[tuple[UniPoly, int]] = []
    _squarefree_rec(f, 1, p, out)
    out.sort(key=lambda t: (t[1], t[0].degree, tuple(t[0].coeffs)))
    return out


def _squarefree_rec(f: UniPoly, mult: int, p: int, out: list):
    df = f.derivative()
    if df.is_zero():
        # f is a p-th power: f(x) = g(x^p); recurse on g with multiplicity p*mult
        g = _pth_root(f, p)
        _squarefree_rec(g, mult * p, p, out)
        return
    c = gcd(f, df)
    w = f.exact_div(c)  # product of squarefree part factors
    i = 1
    while w.degree > 0:
        y = gcd(w, c)
        z = w.exact_div(y)
        if z.degree > 0:
            out.append((z, i * mult))
        w = y
        c = c.exact_div(y)
        i += 1
    if c.degree > 0:
        _squarefree_rec(c, mult, p, out)


def _pth_root(f: UniPoly, p: int) -> UniPoly:
    F = f.field
    if p == 0:
        raise FieldError("zero derivative over Q is impossible for nonconstant input")
    coeffs = []
    for i in range(0, f.degree + 1, p):
        # in F_p the Frobenius is the identity on coefficients
        coeffs.append(f[i])
    return UniPoly(F, coeffs, f.var)
