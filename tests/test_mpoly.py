from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lforge.fields import GF, QQ, FieldError
from lforge.mpoly import (
    MPoly,
    PolynomialRing,
    RingMismatch,
    coefficient_vector,
    exponent_vectors,
    from_coefficient_vector,
)
from lforge.orders import TermOrder
from lforge.textio import parse_poly
from lforge.rng import Rng

F17 = GF(17)
R = PolynomialRing(F17, ("x", "y", "z"))
x, y, z = R.gens()


def rand_poly(rng, ring, nterms=5, maxdeg=4):
    f = ring.zero
    for _ in range(nterms):
        exps = tuple(rng.randrange(maxdeg + 1) for _ in range(ring.nvars))
        f = f + ring.monomial(exps, rng.randrange(1, 17))
    return f


def test_ring_flyweight_and_gens():
    assert PolynomialRing(F17, ("x", "y", "z")) is R
    assert [str(g) for g in R.gens()] == ["x", "y", "z"]
    with pytest.raises(ValueError):
        PolynomialRing(F17, ("x", "x"))


def test_constructors():
    assert R.zero.is_zero()
    assert R.one.degree() == 0
    assert R.const(17).is_zero()
    assert R.const(-1).lc == 16
    f = R.monomial((1, 2, 0), 3)
    assert f.terms == ((R.code.pack((1, 2, 0)), 3),)


def test_add_sub_cancellation():
    f = x * y + z**2
    assert f - f == R.zero
    assert (f + f).lc == 2
    assert f + 0 == f
    assert (f - x * y) == z**2


def test_mul_known():
    f = (x + y) * (x - y)
    assert f == x**2 - y**2
    g = (x + y + z) ** 2
    coeffs = dict(g.terms)
    assert coeffs[R.code.pack((1, 1, 0))] == 2
    assert coeffs[R.code.pack((2, 0, 0))] == 1
    assert len(g) == 6


def test_mul_zero_and_scalar():
    f = x + y
    assert f * R.zero == R.zero
    assert f * 3 == 3 * f
    assert (f * 17).is_zero()


@pytest.mark.parametrize("field", [GF(17), QQ])
def test_mul_exponent_overflow_raises(field):
    # x^(2^16) squared eight times has exponent 2^24, past the packed field
    f = PolynomialRing(field, ("x", "y")).monomial((2**16, 0))
    with pytest.raises(OverflowError):
        for _ in range(8):
            f = f * f


@pytest.mark.parametrize("field", [GF(17), QQ], ids=str)
def test_dot_matches_evaluation_at_points(field):
    # oracle: the sum of products of values, by MPoly.evaluate and the field
    ring = PolynomialRing(field, ("x", "y", "z"))
    rng = Rng(41)
    for k in (1, 2, 5):
        us = [rand_poly(rng, ring) for _ in range(k)]
        ws = [rand_poly(rng, ring) for _ in range(k)]
        f = ring.dot(us, ws)
        keys = [m for m, _ in f.terms]
        assert keys == sorted(set(keys), reverse=True)
        assert all(not field.is_zero(c) for _, c in f.terms)
        for _ in range(5):
            pt = [field.random(rng) for _ in range(3)]
            want = field.zero
            for u, w in zip(us, ws):
                want = field.add(want, field.mul(u.evaluate(pt), w.evaluate(pt)))
            assert f.evaluate(pt) == want


@pytest.mark.parametrize("field", [GF(17), QQ], ids=str)
def test_dot_cancellation_empty_input_and_guard(field):
    ring = PolynomialRing(field, ("x", "y"))
    a, b = ring.gens()
    f = rand_poly(Rng(5), ring)
    g = a * b + 3
    assert ring.dot([f, f], [g, -g]).terms == ()
    assert ring.dot([a, b], [b, -a]).terms == ()
    assert ring.dot([], []) == ring.zero
    big = ring.monomial((2**16, 0)) ** 128  # x^(2^23)
    # the products overflow the packed exponent and then cancel: the guard
    # still sees them
    with pytest.raises(OverflowError):
        ring.dot([big, big], [big, -big])
    with pytest.raises(ValueError):
        ring.dot([a, b], [a])
    with pytest.raises(RingMismatch):
        ring.dot([a], [x])


@pytest.mark.parametrize("order", [TermOrder.grevlex(), TermOrder.lex(),
                                   TermOrder.block(1),
                                   TermOrder.weighted((2, 5, 1))],
                         ids=str)
def test_degree_is_the_largest_total_degree(order):
    ring = PolynomialRing(F17, ("x", "y", "z"), order)
    rng = Rng(8)
    for _ in range(30):
        f = rand_poly(rng, ring)
        if f:
            assert f.degree() == max(sum(ring.code.unpack(m))
                                     for m, _ in f.terms)


def test_degree_homogeneous():
    assert R.zero.degree() == -1
    assert (x * y + z).degree() == 2
    assert (x * y + z).is_homogeneous() is False
    assert (x * y + z**2).is_homogeneous() == 2
    assert R.zero.is_homogeneous() == -1


def test_leading_term_grevlex():
    # grevlex: among degree-2 monomials x^2 > xy > y^2 > xz > yz > z^2
    f = z**2 + x * y
    assert f.lm == (x * y).lm
    with pytest.raises(ValueError):
        R.zero.lm


def test_exact_div():
    f = (x + y) ** 3
    g = (x + y) ** 2
    assert f.exact_div(x + y) == g
    assert (f * z).exact_div(z) == f
    with pytest.raises(FieldError):
        (f + 1).exact_div(x + y)


def test_partials():
    f = x**3 * y + 2 * z**2
    assert f.partial(0) == 3 * x**2 * y
    assert f.partial(1) == x**3
    assert f.partial(2) == 4 * z
    # char p kills p-th powers
    assert (x**17).partial(0).is_zero()


def test_substitute():
    S = PolynomialRing(F17, ("a", "b"))
    a, b = S.gens()
    f = x**2 + y * z
    g = f.substitute({"x": a + b, "y": a, "z": b})
    assert g == (a + b) ** 2 + a * b
    with pytest.raises(ValueError):
        f.substitute({"x": a})


def test_substitute_into_same_ring():
    f = x * y - z**2
    g = f.substitute({"x": y, "y": x, "z": z})
    assert g == f


def rand_coeff_poly(rng, ring, nterms=4, maxdeg=3):
    """Like rand_poly, with proper fractions as coefficients over QQ."""
    f = ring.zero
    for _ in range(nterms):
        exps = tuple(rng.randrange(maxdeg + 1) for _ in range(ring.nvars))
        c = Fraction(rng.randrange(-16, 17), rng.randrange(1, 6))
        f = f + ring.monomial(exps, c)
    return f


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([F17, QQ]), st.integers(0, 2**32),
       st.integers(0, 2**32), st.integers(0, 2**32))
def test_substitute_is_a_ring_homomorphism(field, s1, s2, s3):
    src = PolynomialRing(field, ("x", "y", "z"))
    dst = PolynomialRing(field, ("a", "b"))
    f = rand_coeff_poly(Rng(s1), src)
    g = rand_coeff_poly(Rng(s2), src)
    rng = Rng(s3)
    phi = {n: rand_coeff_poly(rng.fork(i), dst, nterms=3, maxdeg=2)
           for i, n in enumerate(src.names)}
    assert (f * g).substitute(phi) == f.substitute(phi) * g.substitute(phi)
    assert (f + g).substitute(phi) == f.substitute(phi) + g.substitute(phi)


@pytest.mark.parametrize("field", [F17, QQ])
def test_substitute_cancels_to_zero(field):
    src = PolynomialRing(field, ("x", "y", "z"))
    dst = PolynomialRing(field, ("a", "b"))
    X, Y, Z = src.gens()
    a, b = dst.gens()
    # x y - z^2 vanishes on the conic (a^2 : b^2 : a b); every image term
    # cancels against another
    f = (X * Y - Z**2) * (X + 3 * Y - Z)
    zero = f.substitute({"x": a * a, "y": b * b, "z": a * b})
    assert zero.is_zero() and zero.ring is dst


def naive_substitute(f, images, dst):
    """Reference ring map: every term c x^e of f expanded as c times the
    product of the images, one factor at a time, on exponent tuples."""
    F = dst.field
    unpack = dst.code.unpack
    out = {}
    for m, c in f.terms:
        prod = {(0,) * dst.nvars: F.of(c)}
        for img, e in zip(images, f.ring.code.unpack(m)):
            for _ in range(e):
                nxt = {}
                for a, ca in prod.items():
                    for mb, cb in img.terms:
                        k = tuple(u + v for u, v in zip(a, unpack(mb)))
                        nxt[k] = F.add(nxt.get(k, F.zero), F.mul(ca, cb))
                prod = nxt
        for k, v in prod.items():
            out[k] = F.add(out.get(k, F.zero), v)
    return {k: v for k, v in out.items() if not F.is_zero(v)}


@st.composite
def substitutions(draw):
    """(f, images) from F[x, y, z] to F[a, b, c]: each image is a single
    term (a plain variable, or a monomial with a coefficient), a sum of
    two or three terms, or zero."""
    field = draw(st.sampled_from([F17, QQ]))
    src = PolynomialRing(field, ("x", "y", "z"))
    dst = PolynomialRing(field, ("a", "b", "c"))
    exps = st.tuples(*[st.integers(0, 3)] * 3)
    coeffs = st.integers(-16, 16).filter(lambda c: c % 17)

    def poly(ring, nterms):
        return sum((ring.monomial(draw(exps), draw(coeffs))
                    for _ in range(nterms)), ring.zero)

    images = []
    for _ in range(3):
        kind = draw(st.sampled_from(["var", "term", "poly", "zero"]))
        if kind == "var":
            images.append(dst.var(draw(st.integers(0, 2))))
        elif kind == "term":
            images.append(poly(dst, 1))
        elif kind == "poly":
            images.append(poly(dst, draw(st.integers(2, 3))))
        else:
            images.append(dst.zero)
    return poly(src, draw(st.integers(1, 5))), images


@settings(max_examples=60, deadline=None)
@given(substitutions())
def test_substitute_matches_naive_expansion(case):
    f, images = case
    dst = images[0].ring
    g = f.substitute(dict(zip(f.ring.names, images)))
    assert g.ring is dst
    assert {dst.code.unpack(m): c for m, c in g.terms} == \
        naive_substitute(f, images, dst)


def test_evaluate():
    f = x**2 + 2 * y - z
    assert f.evaluate([3, 1, 4]) == (9 + 2 - 4) % 17


def test_pow():
    assert (x + y) ** 0 == R.one
    assert (x + y) ** 1 == x + y
    f = x + 2 * y + 3 * z
    assert f**5 == f * f * f * f * f
    with pytest.raises(ValueError):
        f ** (-1)


def test_ring_mismatch():
    S = PolynomialRing(F17, ("a", "b"))
    with pytest.raises(RingMismatch):
        x + S.gens()[0]


def test_monomials_of_degree():
    from math import comb

    for d in range(6):
        mons = R.monomials_of_degree(d)
        assert len(mons) == comb(d + 2, 2)
        assert mons == sorted(mons, reverse=True)
    assert R.monomials_of_degree(3) is R.monomials_of_degree(3)  # cached


def test_exponent_vectors_count():
    from math import comb

    assert len(list(exponent_vectors(4, 3))) == comb(3 + 3, 3)
    assert list(exponent_vectors(1, 5)) == [(5,)]


def test_random_form_deterministic_homogeneous():
    f = R.random_form(3, 7)
    g = R.random_form(3, 7)
    assert f == g
    assert f.is_homogeneous() == 3
    assert R.random_form(3, 8) != f


def test_with_order_convert():
    L = R.with_order(TermOrder.lex())
    f = x * y**2 + z**3
    g = L.convert(f)
    # lex leading monomial is x*y^2; grevlex also x*y^2 here, use another
    h = L.convert(y**3 + x * z**2)
    assert L.code.unpack(h.lm) == (1, 0, 2)  # lex prefers any x term
    assert R.convert(g) == f
    # variables are matched by name, in any order
    P = PolynomialRing(F17, ("z", "x", "y"), TermOrder.lex())
    fp = P.convert(f)
    assert fp == parse_poly("x*y^2 + z^3", P)
    assert R.convert(fp) == f
    # into a ring with extra variables and back
    E = PolynomialRing(F17, ("t", "x", "u", "y", "z"))
    fe = E.convert(f)
    assert fe == parse_poly("x*y^2 + z^3", E)
    assert R.convert(fe) == f
    # a variable that does not occur may be dropped
    D = PolynomialRing(F17, ("y", "x"))
    assert D.convert(x * y - 2 * y**2) == parse_poly("x*y - 2*y^2", D)
    with pytest.raises(RingMismatch):
        D.convert(f)
    with pytest.raises(RingMismatch):
        PolynomialRing(GF(19), R.names).convert(f)


def test_extend_and_drop():
    E = R.extend_back(("t",))
    assert E.names == ("x", "y", "z", "t")
    D = E.drop_vars(("t",))
    assert D.names == ("x", "y", "z")
    assert D is R


def test_coefficient_vector_roundtrip():
    basis = R.monomials_of_degree(2)
    f = x**2 + 5 * y * z
    v = coefficient_vector(f, basis)
    assert from_coefficient_vector(R, basis, v) == f
    with pytest.raises(ValueError):
        coefficient_vector(x**3, basis)


def test_qq_ring():
    S = PolynomialRing(QQ, ("u", "v"))
    u, v = S.gens()
    from fractions import Fraction

    f = u.scale(Fraction(1, 2)) + v
    assert (f * 2) == u + 2 * v


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2**32), st.integers(0, 2**32))
def test_ring_axioms_random(s1, s2, s3):
    rng1, rng2, rng3 = Rng(s1), Rng(s2), Rng(s3)
    f, g, h = (rand_poly(r, R) for r in (rng1, rng2, rng3))
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f + g == g + f


def test_repr_parse_roundtrip():
    f = x**2 * y - 3 * z + 1
    assert parse_poly(repr(f), R) == f
