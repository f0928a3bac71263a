from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lforge import orders
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
from oracles import (
    convert_by_terms,
    evaluate,
    exact_div,
    monomial_mul,
    partial_by_terms,
)

F17 = GF(17)
R = PolynomialRing(F17, ("x", "y", "z"))
x, y, z = R.gens()


def monomial(ring, exps, c=1):
    """c times the monomial with exponents exps."""
    return ring.from_dict({ring.code.pack(tuple(exps)): ring.field.of(c)})


def rand_poly(rng, ring, nterms=5, maxdeg=4):
    f = ring.zero
    for _ in range(nterms):
        exps = tuple(rng.randrange(maxdeg + 1) for _ in range(ring.nvars))
        f = f + monomial(ring, exps, rng.randrange(1, 17))
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
    f = monomial(PolynomialRing(field, ("x", "y")), (2**16, 0))
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
                want = field.add(want, field.mul(evaluate(u, pt), evaluate(w, pt)))
            assert evaluate(f, pt) == want


@pytest.mark.parametrize("field", [GF(17), QQ], ids=str)
def test_dot_cancellation_empty_input_and_guard(field):
    ring = PolynomialRing(field, ("x", "y"))
    a, b = ring.gens()
    f = rand_poly(Rng(5), ring)
    g = a * b + 3
    assert ring.dot([f, f], [g, -g]).terms == ()
    assert ring.dot([a, b], [b, -a]).terms == ()
    assert ring.dot([], []) == ring.zero
    big = monomial(ring, (2**16, 0)) ** 128  # x^(2^23)
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
    assert exact_div(f, x + y) == g
    assert exact_div(f * z, z) == f
    with pytest.raises(FieldError):
        exact_div(f + 1, x + y)


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
        f = f + monomial(ring, exps, c)
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
        return sum((monomial(ring, draw(exps), draw(coeffs))
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
    assert evaluate(f, [3, 1, 4]) == (9 + 2 - 4) % 17


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

    assert len(exponent_vectors(4, 3)) == comb(3 + 3, 3)
    assert exponent_vectors(1, 5).tolist() == [[5]]
    assert exponent_vectors(3, -1).shape == (0, 3)


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


_NAMES = ("a", "b", "c", "d", "e", "f")


@st.composite
def _orders(draw, n):
    kind = draw(st.sampled_from(["grevlex", "lex", "block", "weighted"]))
    if kind == "block" and n > 1:
        return TermOrder.block(draw(st.integers(1, n - 1)))
    if kind == "weighted":
        return TermOrder.weighted(draw(st.lists(st.integers(1, 3),
                                                min_size=n, max_size=n)))
    return TermOrder.lex() if kind == "lex" else TermOrder.grevlex()


@st.composite
def _rings(draw, field, names):
    return PolynomialRing(field, names, draw(_orders(len(names))))


@st.composite
def _polys(draw, ring):
    """A polynomial of ring whose exponents reach p + 1 over F_p (so some
    are 0 mod p) and whose coefficients over Q are small fractions."""
    p = ring.field.char
    exps = st.tuples(*[st.integers(0, (p or 3) + 1)] * ring.nvars)
    coeff = (st.integers(0, p - 1) if p else
             st.fractions(-3, 3, max_denominator=4))
    d = draw(st.dictionaries(exps, coeff, max_size=12))
    return ring.from_dict({ring.code.pack(e): ring.field.of(c)
                           for e, c in d.items()})


_FIELDS = st.sampled_from([GF(2), GF(3), GF(17), QQ])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_convert_is_the_term_loop(data):
    # any orders, the source variables permuted, extra target variables,
    # dropped ones (RingMismatch when f uses one), another field
    field = data.draw(_FIELDS)
    names = data.draw(st.permutations(_NAMES))
    src = data.draw(_rings(field, tuple(names[:data.draw(st.integers(1, 4))])))
    f = data.draw(_polys(src))
    tgt_names = data.draw(st.lists(st.sampled_from(_NAMES), min_size=1,
                                   max_size=6, unique=True))
    tgt_field = data.draw(st.sampled_from([field, field, field, GF(19)]))
    tgt = data.draw(_rings(tgt_field, tuple(tgt_names)))
    try:
        want = convert_by_terms(tgt, f)
    except RingMismatch:
        with pytest.raises(RingMismatch):
            tgt.convert(f)
        return
    got = tgt.convert(f)
    assert got.ring is tgt
    assert repr(got.terms) == repr(want.terms)


def test_convert_rejects_a_used_missing_variable_and_another_field():
    D = PolynomialRing(F17, ("y", "z"))
    assert D.convert(y - z) == parse_poly("y - z", D)
    assert D.convert(R.zero) == D.zero
    with pytest.raises(RingMismatch, match="'x'"):
        D.convert(y + x * z)
    with pytest.raises(RingMismatch):
        PolynomialRing(QQ, R.names).convert(x)
    with pytest.raises(RingMismatch):
        PolynomialRing(GF(19), R.names).convert(R.zero)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_partials_are_the_term_loop(data):
    field = data.draw(_FIELDS)
    ring = data.draw(_rings(field, _NAMES[:data.draw(st.integers(1, 5))]))
    f = data.draw(_polys(ring))
    got = f.partials()
    want = [partial_by_terms(f, i) for i in range(ring.nvars)]
    assert repr([g.terms for g in got]) == repr([g.terms for g in want])
    assert [f.partial(i) for i in range(ring.nvars)] == got


def test_partial_drops_exponents_divisible_by_p():
    R3 = PolynomialRing(GF(3), ("x", "y"))
    X, Y = R3.gens()
    assert (X**3 * Y + X**4 + 2 * X).partial(0) == X**3 + 2
    assert (X**3 + Y**6).partials() == [R3.zero, R3.zero]


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


# -- the monomial index ------------------------------------------------

INDEX_ORDERS = [(TermOrder.grevlex(), range(1, 8)), (TermOrder.lex(),
                range(1, 8)), (TermOrder.block(2), range(3, 8)),
                (TermOrder.weighted((1, 2, 3, 1)), [4])]


def _enumeration(nvars, d):
    """exponent_vectors' order, one recursive tuple at a time."""
    if nvars == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _enumeration(nvars - 1, d - first):
            yield (first,) + rest


def _lexrank(e):
    """The place of e in _enumeration(len(e), sum(e)), counted directly."""
    return list(_enumeration(len(e), sum(e))).index(tuple(e))


@pytest.mark.parametrize("order, ns", INDEX_ORDERS, ids=str)
def test_monomial_index_is_the_packed_sort(order, ns):
    # perm_d[lexrank(E_d)] = arange(N_d): positions of the exponent rows
    # are their places in monomials_of_degree, which is the packed sort of
    # the enumeration; and the enumeration is the recursive one
    for n in ns:
        ring = PolynomialRing(F17, tuple(f"v{i}" for i in range(n)), order)
        for d in range(5 if n > 5 else 7):
            vecs = list(_enumeration(n, d))
            assert [tuple(e) for e in exponent_vectors(n, d).tolist()] == vecs
            mons = ring.monomials_of_degree(d)
            assert mons == sorted(map(ring.code.pack, vecs), reverse=True)
            E = ring.exponents(d)
            assert [ring.code.pack(tuple(e)) for e in E.tolist()] == mons
            assert ring.positions(E, d).tolist() == list(range(len(mons)))
            _, perm, _ = ring._degree(d)
            assert [perm[_lexrank(e)] for e in E.tolist()[:20]] == list(
                range(min(20, len(mons))))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_product_and_quotient_positions_are_packed_lookups(data):
    order, ns = data.draw(st.sampled_from(INDEX_ORDERS), label="order")
    n = data.draw(st.sampled_from(list(ns)), label="n")
    ring = PolynomialRing(F17, tuple(f"v{i}" for i in range(n)), order)
    code = ring.code
    a, c = (data.draw(st.integers(0, 3 if n > 5 else 5)) for _ in range(2))
    at = {m: i for i, m in enumerate(ring.monomials_of_degree(a + c))}
    us = data.draw(st.lists(st.sampled_from(ring.monomials_of_degree(a)),
                            min_size=1, max_size=6))
    ts = data.draw(st.lists(st.sampled_from(ring.monomials_of_degree(c)),
                            min_size=1, max_size=6))
    U, T = code.unpack_rows(us), code.unpack_rows(ts)
    assert U.tolist() == [list(code.unpack(u)) for u in us]
    assert ring.positions(U[:, None, :] + T[None], a + c).tolist() == [
        [at[monomial_mul(code, u, t)] for t in ts] for u in us]
    # the quotients m / x_j of every monomial of degree a + c
    below = {m: i for i, m in enumerate(ring.monomials_of_degree(a + c - 1))}
    Q = ring.quotient_positions(a + c)
    for m, row in zip(ring.monomials_of_degree(a + c), Q.tolist()):
        assert row == [below.get(code.divides(code.var(j), m), -1)
                       for j in range(n)]


def test_pack_rows_is_pack():
    for order, ns in INDEX_ORDERS:
        for n in ns:
            code = PolynomialRing(F17, tuple(f"v{i}" for i in range(n)),
                                  order).code
            rows = [(0,) * n, (2**16,) + (0,) * (n - 1),
                    tuple(range(n)), tuple(range(n, 0, -1))]
            assert code.pack_rows(rows) == [code.pack(e) for e in rows]
            assert code.unpack_rows(code.pack_rows(rows)).tolist() == [
                list(e) for e in rows]
            with pytest.raises(OverflowError):
                code.pack_rows([(2**16 + 1,) + (0,) * (n - 1)])
    # past the _UNPACK_ROWS monomials unpack_rows converts at a time
    code = PolynomialRing(F17, ("a", "b", "c"),
                          TermOrder.weighted((2, 5, 1))).code
    rows = [(i % 7, i // 7 % 11, i // 77)
            for i in range(2 * orders._UNPACK_ROWS + 5)]
    assert code.unpack_rows(code.pack_rows(rows)).tolist() == [
        list(e) for e in rows]


def test_graded_layer_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use, a lazy import that a timed
    # pass would pay; the graded layer uses masks and sorts instead
    import os
    import subprocess
    import sys

    import lforge
    src = os.path.dirname(os.path.dirname(lforge.__file__))
    script = (
        "import sys\n"
        "from lforge.fields import GF\n"
        "from lforge.groebner import groebner_basis\n"
        "from lforge.ideals import Ideal, kernel_generators, ring_map\n"
        "from lforge.mpoly import PolynomialRing\n"
        "R = PolynomialRing(GF(17), ('x', 'y', 'z'))\n"
        "x, y, z = R.gens()\n"
        "groebner_basis([x**2 - y*z, y**3 - x*z**2, x*y*z])\n"
        "S = PolynomialRing(GF(17), ('a', 'b', 'c', 'd'))\n"
        "list(kernel_generators(S, ring_map([x**2, x*y, y*z, z**2], S), 3))\n"
        "Ideal(R, [x**2 - y*z, y**3 - x*z**2]).hilbert()\n"
        "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
