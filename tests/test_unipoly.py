from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lforge.fields import GF, QQ, FieldError
from lforge.rng import Rng
from lforge.unipoly import UniPoly, gcd, parse_unipoly, squarefree_decomposition

F17 = GF(17)


def P(*coeffs):
    return UniPoly(F17, list(coeffs))


def test_degree_and_normalization():
    assert UniPoly.zero(F17).degree == -1
    assert P(3).degree == 0
    assert P(0, 0, 5, 0, 0).degree == 2
    assert P(1, 17).degree == 0  # trailing zero mod 17 stripped


def test_arithmetic_basics():
    f = P(1, 2, 1)  # (x+1)^2
    g = P(1, 1)
    assert g * g == f
    assert f - f == UniPoly.zero(F17)
    assert (f + g).coeffs == [2, 3, 1]
    assert (-g).coeffs == [16, 16]
    assert (g**5)[2] == 10  # binomial(5,2) mod 17


def test_divmod_exact_and_remainder():
    f = P(2, 0, 0, 1)  # x^3 + 2
    g = P(1, 1)
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.degree < g.degree
    assert (f * g).exact_div(g) == f
    with pytest.raises(FieldError):
        f.exact_div(g)
    with pytest.raises(FieldError):
        f.divmod(UniPoly.zero(F17))


def test_eval_and_derivative():
    f = P(5, 0, 3, 1)  # x^3 + 3x^2 + 5
    assert f(2) == (8 + 12 + 5) % 17
    assert f.derivative().coeffs == [0, 6, 3]


def test_gcd_known():
    f = P(16, 0, 1)  # x^2 - 1
    g = P(1, 2, 1)  # (x+1)^2
    assert gcd(f, g).coeffs == [1, 1]
    assert gcd(f, UniPoly.zero(F17)) == f.monic()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 16), min_size=1, max_size=8),
    st.lists(st.integers(0, 16), min_size=1, max_size=8),
    st.lists(st.integers(0, 16), min_size=1, max_size=5),
)
def test_gcd_common_factor_property(a, b, c):
    f, g, h = UniPoly(F17, a), UniPoly(F17, b), UniPoly(F17, c)
    if h.is_zero() or (f * h).is_zero() or (g * h).is_zero():
        return
    d = gcd(f * h, g * h)
    # h divides the gcd of f*h and g*h
    assert d.divmod(h.monic())[1].is_zero()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 16), min_size=2, max_size=7),
    st.lists(st.integers(0, 16), min_size=1, max_size=7),
)
def test_divmod_roundtrip_property(a, b):
    f, g = UniPoly(F17, a), UniPoly(F17, b)
    if g.is_zero():
        return
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_squarefree_simple():
    x = UniPoly.x(F17)
    one = UniPoly.one(F17)
    f = (x + one) ** 2 * (x + one.scale(2)) ** 3 * x
    parts = squarefree_decomposition(f)
    rebuilt = UniPoly.one(F17)
    for g, m in parts:
        rebuilt = rebuilt * g**m
    assert rebuilt == f.monic()
    assert sorted(m for _, m in parts) == [1, 2, 3]


def test_squarefree_pth_power():
    # f = (x^17 - x) = prod over F_17 of (x - a), squarefree itself
    x = UniPoly.x(F17)
    f = x**17 - x
    parts = squarefree_decomposition(f)
    assert parts == [(f.monic(), 1)]
    # g = (x+1)^17 has zero derivative
    g = (x + UniPoly.one(F17)) ** 17
    parts = squarefree_decomposition(g)
    assert parts == [((x + UniPoly.one(F17)), 17)]


def test_squarefree_over_qq():
    x = UniPoly.x(QQ)
    one = UniPoly.one(QQ)
    f = (x - one) ** 2 * (x + one)
    parts = squarefree_decomposition(f)
    assert (x + one, 1) in parts
    assert (x - one, 2) in parts


def test_qq_coefficients():
    f = UniPoly(QQ, [Fraction(1, 2), Fraction(1, 3)])
    g = f * f
    assert g.coeffs == [Fraction(1, 4), Fraction(1, 3), Fraction(1, 9)]
    assert f(Fraction(3)) == Fraction(3, 2)


def test_prime_field_maps_fractions_through_the_field():
    # a rational coefficient is its residue, not its truncation to an integer
    assert UniPoly(F17, [Fraction(1, 2), 3]).coeffs == [F17.of(Fraction(1, 2)), 3]
    assert UniPoly(F17, [Fraction(-7, 3)]) * P(3) == P(-7)


def test_to_string_roundtrip_shapes():
    assert UniPoly.zero(F17).to_string() == "0"
    f = P(5, 0, 16)
    s = f.to_string()
    assert "lambda^2" in s and "5" in s


@pytest.mark.parametrize("field", [F17, QQ], ids=["gf17", "qq"])
def test_parse_unipoly_reads_to_string(field):
    rng = Rng(3)
    for n in range(6):
        f = UniPoly(field, [field.random(rng) for _ in range(n)], "t")
        assert parse_unipoly(f.to_string(), field, "t") == f
    g = parse_unipoly("-2*L-1 + 3*L^2", field, "lambda", "L")
    assert g == UniPoly(field, [-1, -2, 3]) and g.var == "lambda"
    with pytest.raises(ValueError):
        parse_unipoly("lambda", field, "lambda", "L")


def _int_poly(cs):
    """Integer coefficient list without trailing zeros (the reference)."""
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _int_divmod(a, b, p):
    """Long division of integer coefficient lists mod p, reducing every
    coefficient at every step."""
    rem = [c % p for c in a]
    inv = pow(b[-1], p - 2, p)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        q = rem[k + len(b) - 1] * inv % p
        quo[k] = q
        for j, d in enumerate(b):
            rem[k + j] = (rem[k + j] - q * d) % p
    return _int_poly(quo), _int_poly(rem[:len(b) - 1])


def test_big_prime_arithmetic_matches_integers_mod_p():
    # near p = 2^31 - 1 a product of two coefficients is close to 2^62, so
    # the unreduced sums of a product or a long division pass 2^63
    p = 2**31 - 1
    F = GF(p)
    rng = Rng(2024)
    past_int64 = False
    for _ in range(30):
        a = [rng.randrange(p - 1000, p) for _ in range(rng.randrange(1, 12))]
        b = [rng.randrange(p - 1000, p) for _ in range(rng.randrange(1, 12))]
        f, g = UniPoly(F, a), UniPoly(F, b)
        pairs = list(zip_longest(a, b, fillvalue=0))
        assert (f + g).coeffs == _int_poly([(u + v) % p for u, v in pairs])
        assert (f - g).coeffs == _int_poly([(u - v) % p for u, v in pairs])
        prod = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                prod[i + j] += u * v
        past_int64 |= max(prod) >= 2**63
        assert (f * g).coeffs == _int_poly([c % p for c in prod])
        q, r = (f * g + f).divmod(g)
        ref = _int_divmod([c % p for c in (f * g + f).coeffs], b, p)
        assert (q.coeffs, r.coeffs) == ref
        assert q * g + r == f * g + f
    assert past_int64
