"""Hilbert series of monomial ideals by the pivot-variable recursion, and the
derived projective dimension, degree and Hilbert function values.

The series of R/I for I monomial in n variables is numerator(t)/(1-t)^n; the
numerator is computed by splitting on a pivot power x_j^e via

    HS(R/I) = HS(R/(I + x_j^e)) + t^e * HS(R/(I : x_j^e))

with the pivot variable chosen most-frequent and the exponent a median, which
keeps the recursion shallow on the leading-term ideals that show up here.
"""

from __future__ import annotations

from math import comb

# _minimalize packs an exponent tuple into slots of _SLOT bits, the top bit
# of each a guard: exponents stay below it, as EXP_CAP = 2^16 < 2^(_SLOT - 1)
_SLOT = 20


def _minimalize(gens):
    """The minimal ones among the exponent tuples gens, sorted by (degree,
    tuple).  m divides g iff no slot of (g | guards) - m borrows, that is,
    iff every guard bit survives the one subtraction."""
    gens = sorted(set(gens), key=lambda g: (sum(g), g))
    if not gens:
        return []
    guard = sum(1 << (_SLOT * k + _SLOT - 1) for k in range(len(gens[0])))
    out, packed = [], []
    for g in gens:
        pg = sum(e << (_SLOT * k) for k, e in enumerate(g)) | guard
        for m in packed:
            if (pg - m) & guard == guard:
                break
        else:
            out.append(g)
            packed.append(pg & ~guard)
    return out


def _poly_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _poly_shift(a: list, k: int) -> list:
    return [0] * k + list(a) if a else []


def _poly_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _numerator(gens: list) -> list:
    """Numerator coefficients (index = power of t) for minimal monomial gens."""
    if not gens:
        return [1]
    if any(sum(g) == 0 for g in gens):
        return []
    # pure powers of distinct variables: product of (1 - t^d)
    if all(sum(1 for e in g if e) == 1 for g in gens):
        poly = [1]
        for g in gens:
            d = sum(g)
            poly = _poly_trim(_poly_add(poly, [-c for c in _poly_shift(poly, d)]))
        return poly
    nvars = len(gens[0])
    # pivot variable from the mixed (non-pure-power) generators so that both
    # branches make progress: the colon branch lowers degrees, the plus
    # branch removes at least one mixed generator
    mixed = [g for g in gens if sum(1 for e in g if e) > 1]
    counts = [0] * nvars
    for g in mixed:
        for i, e in enumerate(g):
            if e:
                counts[i] += 1
    j = max(range(nvars), key=lambda i: counts[i])
    exps = sorted(g[j] for g in mixed if g[j])
    e = exps[len(exps) // 2]
    # I + (x_j^e): drop generators the pivot divides
    plus = [g for g in gens if g[j] < e]
    pivot = tuple(e if i == j else 0 for i in range(nvars))
    plus.append(pivot)
    # I : x_j^e
    colon = _minimalize(
        [tuple(max(g[i] - e, 0) if i == j else g[i] for i in range(nvars))
         for g in gens]
    )
    a = _numerator(_minimalize(plus))
    b = _numerator(colon)
    return _poly_trim(_poly_add(a, _poly_shift(b, e)))


class HilbertData:
    """Series numerator over (1-t)^n plus the derived invariants."""

    __slots__ = ("numerator", "n", "_reduced", "_codim")

    def __init__(self, numerator: list, n: int):
        self.numerator = list(numerator)
        self.n = n
        q = list(numerator)
        if not _poly_trim(q):
            # zero series: R/I = 0, the empty scheme
            self._reduced = []
            self._codim = n
            return
        c = 0
        # cancel (1-t) factors: p(t) = (1-t) q(t) iff p(1) = 0
        while q and sum(q) == 0 and c < n:
            r = []
            acc = 0
            for coef in q[:-1]:
                acc += coef
                r.append(acc)
            q = _poly_trim(r)
            c += 1
        self._reduced = q
        self._codim = c

    @classmethod
    def from_exponents(cls, gens, n: int) -> "HilbertData":
        return cls(_numerator(_minimalize([tuple(g) for g in gens])), n)

    @property
    def codim(self) -> int:
        return self._codim

    @property
    def dim(self) -> int:
        """Projective dimension of V(I); -1 for empty."""
        return self.n - self._codim - 1

    @property
    def degree(self) -> int:
        """Reduced numerator at t=1; the projective degree when dim >= 0."""
        return sum(self._reduced) if self._reduced else 0

    def hf(self, e: int) -> int:
        """Hilbert function of R/I at degree e."""
        if e < 0:
            return 0
        n = self.n
        return sum(
            c * comb(e - i + n - 1, n - 1)
            for i, c in enumerate(self.numerator)
            if e - i >= 0
        )

    def hilbert_polynomial_value(self, e: int) -> int:
        """Value of the Hilbert polynomial at e (agrees with hf for large e)."""
        q = self._reduced
        d = self.n - self._codim  # affine dimension of the cone
        if d == 0:
            return 0
        total = 0
        for i, c in enumerate(q):
            # binomial(e - i + d - 1, d - 1) as a polynomial in e
            total += c * _binom_poly(e - i, d - 1)
        return total

    def __repr__(self):
        return f"HilbertData(dim {self.dim}, degree {self.degree})"


def _binom_poly(a: int, k: int) -> int:
    """binomial(a + k, k) extended as a polynomial in a (may be negative)."""
    num = 1
    for i in range(1, k + 1):
        num *= a + i
    den = 1
    for i in range(1, k + 1):
        den *= i
    return num // den
