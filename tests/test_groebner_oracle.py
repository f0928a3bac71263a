"""Differential test of the Groebner layer against sympy, on small
homogeneous ideals over GF(17): reduced bases are unique, so they compare
exactly; so do normal forms modulo a basis and Hilbert functions.  Bases
come both from buchberger and from groebner_basis, which sends these
ideals to the degree-by-degree macaulay_basis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lforge.fields import GF
from lforge.groebner import buchberger, groebner_basis, normal_form
from lforge.ideals import Ideal
from lforge.mpoly import PolynomialRing, exponent_vectors

sympy = pytest.importorskip("sympy")

P = 17
F17 = GF(P)


@st.composite
def ideals(draw):
    """(nvars, generators as [{exponents: coefficient}]) in 3-4 variables,
    2-4 homogeneous generators of degree 2 or 3 with 2-5 terms each (fewer
    and sparser ones mostly come out already reduced)."""
    n = draw(st.integers(3, 4))
    gens = []
    for _ in range(draw(st.integers(2, 4))):
        d = draw(st.integers(2, 3))
        mons = [tuple(e) for e in exponent_vectors(n, d).tolist()]
        support = draw(st.lists(st.sampled_from(mons), min_size=2,
                                max_size=5, unique=True))
        gens.append({e: draw(st.integers(1, P - 1)) for e in support})
    return n, gens


@st.composite
def polys(draw, n):
    """An inhomogeneous polynomial of degree <= 4 with at most 6 terms."""
    support = draw(st.lists(
        st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) <= 4),
        min_size=1, max_size=6, unique=True))
    return {e: draw(st.integers(1, P - 1)) for e in support}


def to_lforge(ring, d):
    return ring.from_dict({ring.code.pack(e): c for e, c in d.items()})


def from_lforge(f):
    unpack = f.ring.code.unpack
    return {unpack(m): c for m, c in f.terms}


def to_sympy(syms, d):
    return sum(c * sympy.prod([s**k for s, k in zip(syms, e)])
               for e, c in d.items())


def from_sympy(syms, expr, monic=False):
    """Coefficients mapped from sympy's symmetric residues into 0..16."""
    p = sympy.Poly(expr, *syms, modulus=P)
    d = {e: int(c) % P for e, c in p.terms() if int(c) % P}
    if monic and d:
        lead = p.monoms(order="grevlex")[0]
        inv = pow(d[lead], P - 2, P)
        d = {e: c * inv % P for e, c in d.items()}
    return d


def sympy_basis(n, gens):
    names = tuple(f"x{i}" for i in range(n))
    ring = PolynomialRing(F17, names)
    syms = sympy.symbols(names)
    sG = sympy.groebner([to_sympy(syms, g) for g in gens], *syms,
                        modulus=P, order="grevlex")
    return ring, syms, list(sG.exprs)


def check_reduced_basis(basis, case):
    n, gens = case
    ring, syms, sG = sympy_basis(n, gens)
    mine = basis([to_lforge(ring, g) for g in gens])
    key = lambda d: sorted(d.items())
    assert sorted(map(key, map(from_lforge, mine))) == sorted(
        key(from_sympy(syms, g, monic=True)) for g in sG)


def check_normal_forms(basis, data):
    n, gens = data.draw(ideals())
    ring, syms, sG = sympy_basis(n, gens)
    G = list(basis([to_lforge(ring, g) for g in gens]))
    for _ in range(3):
        f = data.draw(polys(n))
        _, r = sympy.reduced(to_sympy(syms, f), sG, *syms, modulus=P,
                             order="grevlex")
        assert from_lforge(normal_form(to_lforge(ring, f), G)) == \
            from_sympy(syms, r)


@settings(max_examples=25, deadline=None)
@given(ideals())
def test_reduced_basis_matches_sympy(case):
    check_reduced_basis(buchberger, case)


@settings(max_examples=25, deadline=None)
@given(ideals())
def test_groebner_basis_matches_sympy(case):
    check_reduced_basis(groebner_basis, case)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_normal_form_matches_sympy(data):
    check_normal_forms(buchberger, data)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_normal_form_modulo_groebner_basis_matches_sympy(data):
    check_normal_forms(groebner_basis, data)


@settings(max_examples=25, deadline=None)
@given(ideals())
def test_hilbert_function_matches_sympy_standard_monomials(case):
    n, gens = case
    ring, syms, sG = sympy_basis(n, gens)
    lts = [sympy.Poly(g, *syms, modulus=P).monoms(order="grevlex")[0]
           for g in sG]
    H = Ideal(ring, [to_lforge(ring, g) for g in gens]).hilbert()
    for e in range(7):
        standard = [m for m in exponent_vectors(n, e).tolist()
                    if not any(all(a >= b for a, b in zip(m, lt))
                               for lt in lts)]
        assert H.hf(e) == len(standard)
