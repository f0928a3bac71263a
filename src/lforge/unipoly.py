"""Dense univariate polynomials over an exact field.

Coefficients are stored low degree first with a nonzero leading coefficient
(the zero polynomial has an empty coefficient list).  These are the matrix
entries of the Smith-normal-form machinery, so multiplication of F_p
polynomials goes through numpy convolution.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import FieldError, PrimeField


class UniPoly:
    __slots__ = ("field", "coeffs", "var")

    def __init__(self, field, coeffs, var: str = "lambda"):
        self.field = field
        self.var = var
        if isinstance(field, PrimeField):
            arr = np.asarray(coeffs)
            if arr.dtype.kind in "iu":  # machine integers: vectorized % p
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
    def const(cls, field, c, var="lambda"):
        return cls(field, [c], var)

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

    def _padded(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n, dtype=np.int64)
        b = np.zeros(n, dtype=np.int64)
        a[:len(self.coeffs)] = self.coeffs
        b[:len(other.coeffs)] = other.coeffs
        return a, b

    def __add__(self, other):
        self._check(other)
        F = self.field
        if isinstance(F, PrimeField):
            a, b = self._padded(other)
            return UniPoly(F, a + b, self.var)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(F, [F.add(self[i], other[i]) for i in range(n)], self.var)

    def __sub__(self, other):
        self._check(other)
        F = self.field
        if isinstance(F, PrimeField):
            a, b = self._padded(other)
            return UniPoly(F, a - b, self.var)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(F, [F.sub(self[i], other[i]) for i in range(n)], self.var)

    def __neg__(self):
        F = self.field
        return UniPoly(F, [F.neg(c) for c in self.coeffs], self.var)

    def __mul__(self, other):
        self._check(other)
        F = self.field
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(F, self.var)
        if isinstance(F, PrimeField) and F.p < 46341:
            # int64 convolution is exact: coeffs < p, p^2 * len fits easily
            a = np.asarray(self.coeffs, dtype=np.int64)
            b = np.asarray(other.coeffs, dtype=np.int64)
            return UniPoly(F, np.convolve(a, b), self.var)
        out = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if F.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        return UniPoly(F, out, self.var)

    def scale(self, c):
        F = self.field
        return UniPoly(F, [F.mul(c, a) for a in self.coeffs], self.var)

    def divmod(self, other):
        self._check(other)
        F = self.field
        if other.is_zero():
            raise FieldError("division by zero polynomial")
        if self.degree < other.degree:
            return UniPoly.zero(F, self.var), self
        if isinstance(F, PrimeField):
            p = F.p
            rem = np.asarray(self.coeffs, dtype=np.int64)
            dv = np.asarray(other.coeffs, dtype=np.int64)
            nd = len(dv)
            inv_lc = pow(int(dv[-1]), p - 2, p)
            qdeg = len(rem) - nd
            quo = np.zeros(qdeg + 1, dtype=np.int64)
            for k in range(qdeg, -1, -1):
                c = int(rem[k + nd - 1])
                if c:
                    q = c * inv_lc % p
                    quo[k] = q
                    rem[k:k + nd] = (rem[k:k + nd] - q * dv) % p
            return UniPoly(F, quo, self.var), UniPoly(F, rem, self.var)
        rem = list(self.coeffs)
        dv = other.coeffs
        inv_lc = F.inv(other.lc)
        qdeg = len(rem) - len(dv)
        quo = [F.zero] * (qdeg + 1)
        for k in range(qdeg, -1, -1):
            c = rem[k + len(dv) - 1]
            if F.is_zero(c):
                continue
            q = F.mul(c, inv_lc)
            quo[k] = q
            for j, d in enumerate(dv):
                rem[k + j] = F.sub(rem[k + j], F.mul(q, d))
        return UniPoly(F, quo, self.var), UniPoly(F, rem, self.var)

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


def _coeff_str(c) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(c)


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
