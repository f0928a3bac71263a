"""Exact coefficient fields: prime fields F_p and the rationals.

Field elements are plain Python values: ints in [0, p) for F_p and
`fractions.Fraction` for Q.  The field object carries the arithmetic so the
polynomial layer stays generic while F_p loops can still inline `% p`.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ArithmeticError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    # deterministic Miller-Rabin, valid for n < 3.3 * 10^24
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p for a prime 2 <= p < 2**31."""

    __slots__ = ("p",)
    _cache: dict[int, "PrimeField"] = {}

    def __new__(cls, p: int):
        if p in cls._cache:
            return cls._cache[p]
        if not (2 <= p < 2**31):
            raise FieldError(f"modulus {p} out of range [2, 2^31)")
        if not is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self = object.__new__(cls)
        self.p = p
        cls._cache[p] = self
        return self

    @property
    def char(self) -> int:
        return self.p

    zero = 0
    one = 1

    def of(self, n) -> int:
        if isinstance(n, Fraction):
            return self.div(n.numerator % self.p, n.denominator % self.p)
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        a = int(a) % self.p
        if a == 0:
            raise FieldError("division by zero in F_p")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def random(self, rng) -> int:
        return rng.randrange(self.p)

    def random_nonzero(self, rng) -> int:
        return rng.randrange(1, self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


class RationalField:
    """Q with Fraction elements, always in lowest terms."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, n) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero in Q")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def random(self, rng) -> Fraction:
        return Fraction(rng.randrange(-20, 21), rng.randrange(1, 11))

    def random_nonzero(self, rng) -> Fraction:
        while True:
            a = self.random(rng)
            if a != 0:
                return a

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_name(name: str):
    """Parse a field spec such as 'GF(17)', 'gf17' or 'QQ'."""
    s = name.strip().lower()
    if s in ("qq", "q", "rationals"):
        return QQ
    if s.startswith("gf(") and s.endswith(")"):
        return GF(int(s[3:-1]))
    if s.startswith("gf"):
        return GF(int(s[2:]))
    raise ValueError(f"unknown field {name!r}")
