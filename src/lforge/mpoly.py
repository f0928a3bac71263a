"""Sparse multivariate polynomials over an exact field with a term order.

A polynomial is a tuple of (packed monomial, nonzero coefficient) pairs in
strictly descending monomial order.  Packed monomials compare as plain ints
(see orders.py), so the invariant is just "keys strictly decreasing".
Polynomials from different rings never combine.

PolynomialRing.dot is the one sum-of-products kernel; a product, an
S-polynomial and a substitution are each one call: products are added into
one dict of unreduced sums (ints over F_p, Fractions over Q), which
from_dict maps into the field and sorts once.

Monomials by position.  For each degree d the ring keeps, once asked, one
index of monomials_of_degree(d): its exponent rows (``exponents``), taken
from the exponent_vectors enumeration that gives the monomials, and the
permutation perm_d that the packed-int sort applies to that enumeration.
The enumeration's own rank of an exponent row e is

    lexrank(e) = sum_{k < n-1} C(s_k + n - k - 2, n - k - 1),
    s_k = e_{k+1} + ... + e_{n-1} = d - e_0 - ... - e_k,

so the position of e in monomials_of_degree(d) is perm_d[lexrank(e)]
(``positions``): one table lookup per variable and one gather, over whole
arrays of rows, with no dict and no radix.  The suffix sums s_k add under
multiplication, so the positions of the products of two blocks of
monomials need only their suffix sums (``suffix_sums``,
``suffix_positions``).  Packed ints stay the representation of an MPoly.
Ring changes (convert) and derivatives read exponents with one unpack_rows
call and write packed ints directly, as sums of per-variable steps.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import itemgetter, mul

import numpy as np

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
        # degree -> (exponent rows, perm, rank table), and the monomials
        self._degrees: dict[int, tuple] = {}
        self._monomials: dict[int, list[int]] = {}
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

    def _degree(self, d: int) -> tuple:
        """The index of degree d (see the module docstring), built once:
        (exponent rows, perm_d, rank table)."""
        if d not in self._degrees:
            n = self.nvars
            rows = exponent_vectors(n, d)
            order = self.code.sort_rows(rows)
            perm = np.empty(len(rows), dtype=np.int32)
            perm[order] = np.arange(len(rows))
            # rank[k, s] = C(s + n - k - 2, n - k - 1), s = 0..d
            top = max(d, 0) + 1
            rank = np.array([[comb(s + n - k - 2, n - k - 1)
                              for s in range(top)] for k in range(n - 1)],
                            dtype=np.int32).reshape(n - 1, top)
            self._degrees[d] = (rows[order], perm, rank)
        return self._degrees[d]

    def monomials_of_degree(self, d: int) -> list[int]:
        """All packed monomials of total degree d, descending in the order:
        the exponent rows of degree d, packed once asked."""
        if d not in self._monomials:
            self._monomials[d] = self.code.pack_rows(self.exponents(d))
        return self._monomials[d]

    def exponents(self, d: int) -> np.ndarray:
        """The exponent rows of monomials_of_degree(d), in its order (int32,
        read-only by convention)."""
        return self._degree(d)[0]

    def positions(self, E, d: int) -> np.ndarray:
        """The index in monomials_of_degree(d) of every exponent row of E,
        an int array whose last axis runs over the variables.  Each row
        must have degree d and no negative entry; nothing checks that."""
        return self.suffix_positions(suffix_sums(E), d)

    def suffix_positions(self, S, d: int) -> np.ndarray:
        """positions of the monomials of degree d whose suffix sums are S,
        as suffix_sums gives them: perm_d of the sum of one rank table
        lookup per variable."""
        _, perm, rank = self._degree(d)
        acc = np.zeros(S.shape[1:], dtype=np.int32)
        for k in range(self.nvars - 1):
            acc += rank[k].take(S[k])
        return perm.take(acc)

    def quotient_positions(self, d: int) -> np.ndarray:
        """The array Q with Q[m, j] the position of m / x_j in degree d - 1
        for the m-th monomial of degree d, or -1 where x_j does not divide
        it."""
        E = self.exponents(d)
        m, j = np.nonzero(E)
        Q = np.full(E.shape, -1, dtype=np.intp)
        Q[m, j] = self.positions(
            E[m] - np.eye(self.nvars, dtype=np.int32)[j], d - 1)
        return Q

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
        if not f.terms:
            return self.zero
        cols = [self._index.get(name) for name in src.names]
        kept = [j for j, k in enumerate(cols) if k is not None]
        mons, coeffs = zip(*f.terms)
        E = src.code.unpack_rows(mons)
        for j, k in enumerate(cols):
            if k is None and E[:, j].any():
                raise RingMismatch(f"{self} has no variable {src.names[j]!r}")
        # a packed monomial is affine in its exponents: K0 + sum_k e_k (x_k
        # - K0), and the packed ints compare as the order, so they are sorted
        K0, var = self.code.K0, self.code.var
        steps = [var(cols[j]) - K0 for j in kept]
        mons = [K0 + sum(map(mul, e, steps)) for e in E[:, kept].tolist()]
        return MPoly(self, tuple(sorted(zip(mons, coeffs), key=itemgetter(0),
                                        reverse=True)))


def suffix_sums(E) -> np.ndarray:
    """The suffix sums of the exponent rows of E (last axis the variables):
    an int32 array whose row k, one entry per exponent row e, holds
    e_{k+1} + ... + e_{n-1}, for k < n - 1."""
    S = np.cumsum(E[..., :0:-1], axis=-1, dtype=np.int32)[..., ::-1]
    return np.ascontiguousarray(np.moveaxis(S, -1, 0))


def exponent_vectors(nvars: int, d: int) -> np.ndarray:
    """All exponent vectors of length nvars summing to d, as the rows of an
    int32 array: the first exponent descending, and for each the vectors of
    the other variables in this order; none for d < 0."""
    if d < 0:
        return np.zeros((0, nvars), dtype=np.int32)
    # the vectors of the last k variables of every degree s <= d, by
    # ascending degree; those of k + 1 variables and degree s are
    # (s - |v|, v) for the v of degree <= s, in that order
    rows = np.arange(d + 1, dtype=np.int32)[:, None]
    for k in range(2, nvars + 1):
        degs = rows.sum(axis=1, dtype=np.int32)
        rows = np.vstack([
            np.column_stack([s - degs[:c], rows[:c]])
            for s in ([d] if k == nvars else range(d + 1))
            for c in [np.searchsorted(degs, s, side="right")]])
    return rows if nvars > 1 else rows[d:]


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
        """The common degree, or False.  Zero counts as homogeneous (-1).
        When the degree leads the order, the first and last terms decide."""
        if not self.terms:
            return -1
        code = self.ring.code
        d = code.deg(self.terms[0][0])
        rest = self.terms[-1:] if code.degree_leads else self.terms[1:]
        if any(code.deg(m) != d for m, _ in rest):
            return False
        return d

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

    # -- calculus and substitution ------------------------------------

    def partial(self, i: int) -> "MPoly":
        return self._partial(i, self._exponent_rows()[:, i].tolist())

    def partials(self) -> list["MPoly"]:
        E = self._exponent_rows()
        return [self._partial(i, E[:, i].tolist())
                for i in range(self.ring.nvars)]

    def _exponent_rows(self) -> np.ndarray:
        return self.ring.code.unpack_rows([m for m, _ in self.terms])

    def _partial(self, i: int, col) -> "MPoly":
        # col holds the x_i-exponent of every term; dividing by x_i is one
        # shift of the packed int, which keeps the terms in order
        ring = self.ring
        p = ring.field.char
        off = ring.code.K0 - ring.code.var(i)
        terms = ((m + off, c * e % p if p else c * e)
                 for (m, c), e in zip(self.terms, col) if e)
        return MPoly(ring, tuple(t for t in terms if t[1]))

    def substitute(self, images: dict) -> "MPoly":
        """Ring map sending variable name -> MPoly (all in one target ring).
        Every variable occurring in self must be covered.

        Each term is its coefficient times cached powers of the images; the
        last power of every term is left as a factor, so that all terms are
        summed by one PolynomialRing.dot."""
        imgs: list[MPoly | None] = [None] * self.ring.nvars
        target = None
        for name, g in images.items():
            imgs[self.ring.var_index(name)] = g
            if target is None:
                target = g.ring
            elif g.ring is not target:
                raise RingMismatch("substitution images live in different rings")
        if target is None:
            if self.terms:
                raise ValueError("empty substitution map")
            return self
        powers: dict[tuple[int, int], MPoly] = {}

        def img_pow(i: int, e: int) -> MPoly:
            if (i, e) not in powers:
                if imgs[i] is None:
                    raise ValueError(
                        f"substitution map misses variable {self.ring.names[i]!r}"
                    )
                powers[i, e] = img_pow(i, e - 1) * imgs[i] if e > 1 else imgs[i]
            return powers[i, e]

        unpack = self.ring.code.unpack
        one = target.one
        us, ws = [], []
        for m, c in self.terms:
            u, w = target.const(c), None
            for i, e in enumerate(unpack(m)):
                if e:
                    if w is not None:
                        u = u * w
                    w = img_pow(i, e)
            us.append(u)
            ws.append(one if w is None else w)
        return target.dot(us, ws)

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
