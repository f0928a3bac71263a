"""Sparse multivariate polynomials over an exact field with a term order.

A polynomial is a tuple of (packed monomial, nonzero coefficient) pairs in
strictly descending monomial order.  Packed monomials compare as plain ints
(see orders.py), so the invariant is just "keys strictly decreasing".
Polynomials from different rings never combine.

PolynomialRing.dot is the one sum-of-products kernel, and a product is its
one-term case: products are added into one dict of unreduced sums (ints over
F_p, Fractions over Q), which from_dict maps into the field and sorts once.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .fields import FieldError
from .orders import MonomialCode, TermOrder
from .rng import as_rng


class RingMismatch(ValueError):
    pass


class PolynomialRing:
    _cache: dict = {}

    def __new__(cls, field, names, order: TermOrder | None = None):
        names = tuple(names)
        order = order or TermOrder.grevlex()
        key = (field, names, order)
        if key in cls._cache:
            return cls._cache[key]
        self = object.__new__(cls)
        self.field = field
        self.names = names
        self.order = order
        self.code = MonomialCode(len(names), order)
        self.nvars = len(names)
        self._index = {n: i for i, n in enumerate(names)}
        if len(self._index) != len(names):
            raise ValueError("duplicate variable names")
        self._mon_cache: dict[int, list[int]] = {}
        self._pos_cache: dict[int, dict[int, int]] = {}
        cls._cache[key] = self
        return self

    def __repr__(self):
        return f"{self.field}[{','.join(self.names)}; {self.order}]"

    # -- element constructors -----------------------------------------

    @property
    def zero(self) -> "MPoly":
        return MPoly(self, ())

    @property
    def one(self) -> "MPoly":
        return MPoly(self, ((self.code.one, self.field.one),))

    def const(self, c) -> "MPoly":
        c = self.field.of(c)
        if self.field.is_zero(c):
            return self.zero
        return MPoly(self, ((self.code.one, c),))

    def var(self, i: int) -> "MPoly":
        return MPoly(self, ((self.code.var(i), self.field.one),))

    def gens(self) -> list["MPoly"]:
        return [self.var(i) for i in range(self.nvars)]

    def var_index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown variable {name!r}")
        return self._index[name]

    def monomial(self, exps, coeff=1) -> "MPoly":
        c = self.field.of(coeff)
        if self.field.is_zero(c):
            return self.zero
        return MPoly(self, ((self.code.pack(tuple(exps)), c),))

    def from_dict(self, d: dict[int, object]) -> "MPoly":
        """The polynomial with coefficient d[m] on the packed monomial m.
        Over F_p the values may be any ints: they are reduced mod p here, so
        sums of products can be collected unreduced and mapped into the
        field once.  Over Q they are Fractions."""
        p = self.field.char
        if p:
            items = [(m, r) for m, c in d.items() if (r := c % p)]
        else:
            items = [(m, c) for m, c in d.items() if c]
        items.sort(key=itemgetter(0), reverse=True)
        return MPoly(self, tuple(items))

    def dot(self, us, ws) -> "MPoly":
        """sum_i us[i] * ws[i] for two equally long sequences of polynomials
        of this ring.  Every product goes into one dict of unreduced sums,
        which from_dict maps into the field and sorts once."""
        K0, GUARD = self.code.K0, self.code.GUARD
        d: dict[int, object] = {}
        get = d.get
        for u, w in zip(us, ws, strict=True):
            if u.ring is not self or w.ring is not self:
                raise RingMismatch(f"cannot combine {u.ring} and {w.ring} "
                                   f"in {self}")
            a, b = u.terms, w.terms
            if len(a) < len(b):
                a, b = b, a
            for mb, cb in b:
                off = mb - K0
                for ma, ca in a:
                    m = ma + off
                    d[m] = get(m, 0) + ca * cb
        for m in d:
            if m < 0 or m & GUARD:
                raise OverflowError("monomial exponent overflow")
        return self.from_dict(d)

    # -- monomial enumeration -----------------------------------------

    def monomials_of_degree(self, d: int) -> list[int]:
        """All packed monomials of total degree d, descending in the order."""
        if d not in self._mon_cache:
            pack = self.code.pack
            mons = [pack(e) for e in exponent_vectors(self.nvars, d)]
            mons.sort(reverse=True)
            self._mon_cache[d] = mons
        return self._mon_cache[d]

    def monomial_positions(self, d: int) -> dict[int, int]:
        """Index of each degree-d monomial in monomials_of_degree(d)."""
        if d not in self._pos_cache:
            self._pos_cache[d] = {
                m: i for i, m in enumerate(self.monomials_of_degree(d))}
        return self._pos_cache[d]

    def random_form(self, degree: int, seed_or_rng) -> "MPoly":
        """Homogeneous form of the given degree; every monomial gets an
        independently drawn coefficient.  Deterministic per seed."""
        rng = as_rng(seed_or_rng)
        F = self.field
        d = {}
        for m in self.monomials_of_degree(degree):
            c = F.random(rng)
            if not F.is_zero(c):
                d[m] = c
        return self.from_dict(d)

    # -- derived rings -------------------------------------------------

    def with_order(self, order: TermOrder) -> "PolynomialRing":
        return PolynomialRing(self.field, self.names, order)

    def extend_back(self, new_names):
        return PolynomialRing(self.field, self.names + tuple(new_names))

    def drop_vars(self, names_to_drop):
        keep = tuple(n for n in self.names if n not in set(names_to_drop))
        return PolynomialRing(self.field, keep)

    def convert(self, f: "MPoly") -> "MPoly":
        """Bring a polynomial into this ring, matching variables by name.
        The variable order and the term order may differ, and this ring may
        have variables that f's ring lacks.  A variable that f uses and this
        ring lacks, or another field, raises RingMismatch."""
        src = f.ring
        if src is self:
            return f
        if src.field != self.field:
            raise RingMismatch(f"cannot convert from {src} to {self}")
        index, unpack, pack = self._index, src.code.unpack, self.code.pack
        d = {}
        for m, c in f.terms:
            e = [0] * self.nvars
            for name, a in zip(src.names, unpack(m)):
                if a:
                    if name not in index:
                        raise RingMismatch(f"{self} has no variable {name!r}")
                    e[index[name]] = a
            d[pack(e)] = c
        return self.from_dict(d)


def exponent_vectors(nvars: int, d: int):
    """All exponent vectors of length nvars summing to d; none for d < 0."""
    if d < 0:
        return
    if nvars == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in exponent_vectors(nvars - 1, d - first):
            yield (first,) + rest


class MPoly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms: tuple):
        self.ring = ring
        self.terms = terms

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    @property
    def lm(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    @property
    def lc(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def degree(self) -> int:
        """Total degree; -1 for zero."""
        if not self.terms:
            return -1
        code = self.ring.code
        if code.degree_leads:
            return code.deg(self.terms[0][0])
        return max(code.deg(m) for m, _ in self.terms)

    def is_homogeneous(self):
        """The common degree, or False.  Zero counts as homogeneous (-1)."""
        if not self.terms:
            return -1
        deg = self.ring.code.deg
        d = deg(self.terms[0][0])
        for m, _ in self.terms[1:]:
            if deg(m) != d:
                return False
        return d

    def constant_coefficient(self):
        """Test oracle: the Pfaffian tests read constant Pfaffians with it."""
        one = self.ring.code.one
        if self.terms and self.terms[-1][0] == one:
            return self.terms[-1][1]
        return self.ring.field.zero

    def _check(self, other: "MPoly"):
        if self.ring is not other.ring:
            raise RingMismatch(f"cannot combine {self.ring} and {other.ring}")

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MPoly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, 0) + c
        return self.ring.from_dict(d)

    __radd__ = __add__

    def __neg__(self):
        F = self.ring.field
        return MPoly(self.ring, tuple((m, F.neg(c)) for m, c in self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ring.dot((self,), (other,))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c):
        F = self.ring.field
        c = F.of(c)
        if F.is_zero(c):
            return self.ring.zero
        return MPoly(self.ring, tuple((m, F.mul(c, cf)) for m, cf in self.terms))

    def monic(self):
        if not self.terms:
            return self
        return self.scale(self.ring.field.inv(self.lc))

    def mul_term(self, mon: int, coeff) -> "MPoly":
        """Multiply by a single term given as packed monomial and coefficient."""
        ring = self.ring
        F = ring.field
        coeff = F.of(coeff)
        if F.is_zero(coeff) or not self.terms:
            return ring.zero
        off = mon - ring.code.K0
        GUARD = ring.code.GUARD
        out = []
        for m, c in self.terms:
            mm = m + off
            if mm & GUARD:
                raise OverflowError("monomial exponent overflow")
            out.append((mm, F.mul(coeff, c)))
        return MPoly(ring, tuple(out))

    def exact_div(self, other: "MPoly") -> "MPoly":
        """Exact division; raises if the division leaves a remainder."""
        other = self._coerce(other)
        ring = self.ring
        F = ring.field
        if other.is_zero():
            raise FieldError("division by zero polynomial")
        code = ring.code
        rem = dict(self.terms)
        quo: dict[int, object] = {}
        lm_o, lc_o = other.terms[0]
        inv_lc = F.inv(lc_o)
        while rem:
            m = max(rem)
            c = rem.pop(m)
            q = code.divides(lm_o, m)
            if q is None:
                raise FieldError("inexact polynomial division")
            qc = F.mul(c, inv_lc)
            quo[q] = qc
            for mo, co in other.terms[1:]:
                mm = code.mul(q, mo)
                v = F.sub(rem.get(mm, F.zero), F.mul(qc, co))
                if F.is_zero(v):
                    rem.pop(mm, None)
                else:
                    rem[mm] = v
        return ring.from_dict(quo)

    # -- calculus and substitution ------------------------------------

    def partial(self, i: int) -> "MPoly":
        code = self.ring.code
        xi = code.var(i)
        d: dict[int, object] = {}
        for m, c in self.terms:
            e = code.unpack(m)[i]
            if e:
                d[code.divides(xi, m)] = c * e
        return self.ring.from_dict(d)

    def partials(self) -> list["MPoly"]:
        return [self.partial(i) for i in range(self.ring.nvars)]

    def substitute(self, images: dict) -> "MPoly":
        """Ring map sending variable name -> MPoly (all in one target ring).
        Every variable occurring in self must be covered.

        A single-term image c m contributes c^e and a monomial shift by
        e (m - K0) to each term; only multi-term images are multiplied out,
        from cached powers."""
        if not self.terms:
            target = None
            for v in images.values():
                target = v.ring
                break
            return target.zero if target is not None else self
        imgs: list[MPoly | None] = [None] * self.ring.nvars
        target = None
        for name, g in images.items():
            imgs[self.ring.var_index(name)] = g
            if target is None:
                target = g.ring
            elif g.ring is not target:
                raise RingMismatch("substitution images live in different rings")
        if target is None:
            raise ValueError("empty substitution map")
        powers: list[dict[int, MPoly]] = [dict() for _ in range(self.ring.nvars)]

        def img_pow(i: int, e: int) -> MPoly:
            if e == 0:
                return target.one
            cache = powers[i]
            if e not in cache:
                if imgs[i] is None:
                    raise ValueError(
                        f"substitution map misses variable {self.ring.names[i]!r}"
                    )
                cache[e] = img_pow(i, e - 1) * imgs[i] if e > 1 else imgs[i]
            return cache[e]

        unpack = self.ring.code.unpack
        F = target.field
        K0, GUARD = target.code.K0, target.code.GUARD
        one = target.one.terms
        # unreduced sums of products, mapped into F once at the end
        acc: dict[int, object] = {}
        for m, c in self.terms:
            off, coef = 0, F.of(c)
            t = None  # product of the multi-term images' powers
            for i, e in enumerate(unpack(m)):
                if not e:
                    continue
                g = imgs[i]
                if g is not None and len(g.terms) == 1:
                    (mi, ci), = g.terms
                    off += e * (mi - K0)
                    if ci != F.one:
                        coef = F.mul(coef, pow_field(F, ci, e))
                else:
                    t = img_pow(i, e) if t is None else t * img_pow(i, e)
            if K0 + off < 0 or (K0 + off) & GUARD:
                raise OverflowError("monomial exponent overflow")
            for mt, ct in one if t is None else t.terms:
                mm = mt + off
                acc[mm] = acc.get(mm, 0) + coef * ct
        return target.from_dict(acc)

    def evaluate(self, point):
        """Evaluate at a point given as a list of field elements.  Test
        oracle: the acceptance and Pfaffian tests check points with it."""
        F = self.ring.field
        unpack = self.ring.code.unpack
        total = F.zero
        for m, c in self.terms:
            v = c
            for i, e in enumerate(unpack(m)):
                if e:
                    v = F.mul(v, pow_field(F, point[i], e))
            total = F.add(total, v)
        return total

    # -- comparisons / hash -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return (
            isinstance(other, MPoly)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.ring), self.terms))

    def __repr__(self):
        from .textio import poly_to_string

        return poly_to_string(self)


def pow_field(F, a, e: int):
    r = F.one
    b = a
    while e:
        if e & 1:
            r = F.mul(r, b)
        b = F.mul(b, b)
        e >>= 1
    return r


def coefficient_vector(f: MPoly, basis: list[int]):
    """Coefficients of f on an explicit packed-monomial basis (list order)."""
    pos = {m: i for i, m in enumerate(basis)}
    out = [f.ring.field.zero] * len(basis)
    for m, c in f.terms:
        if m not in pos:
            raise ValueError("polynomial has a term outside the given basis")
        out[pos[m]] = c
    return out


def from_coefficient_vector(ring: PolynomialRing, basis: list[int], vec) -> MPoly:
    F = ring.field
    return ring.from_dict({m: F.of(c.item() if hasattr(c, "item") else c)
                           for m, c in zip(basis, vec)})
