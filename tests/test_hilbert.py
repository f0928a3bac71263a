from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import minimalize_by_tuples

from lforge.hilbert import HilbertData, _minimalize
from lforge.orders import EXP_CAP


def test_zero_ideal():
    H = HilbertData.from_exponents([], 3)
    assert H.numerator == [1]
    assert H.dim == 2  # all of P^2
    assert H.degree == 1
    assert H.hf(4) == comb(4 + 2, 2)


def test_unit_ideal_empty():
    H = HilbertData.from_exponents([(0, 0, 0)], 3)
    assert H.dim == -1
    assert H.degree == 0
    assert H.hf(3) == 0


def test_irrelevant_ideal_empty():
    H = HilbertData.from_exponents([(1, 0), (0, 1)], 2)
    assert H.dim == -1
    assert H.hf(0) == 1
    assert H.hf(1) == 0


def test_single_hypersurface():
    # degree-d hypersurface in P^2
    for d in range(1, 5):
        H = HilbertData.from_exponents([(d, 0, 0)], 3)
        assert H.dim == 1
        assert H.degree == d


def test_point_in_p2():
    H = HilbertData.from_exponents([(1, 0, 0), (0, 1, 0)], 3)
    assert H.dim == 0
    assert H.degree == 1
    assert all(H.hf(e) == 1 for e in range(5))


def test_complete_intersection_degrees():
    # pure powers: CI of degrees (2, 3) in P^3 has dim 1, degree 6
    H = HilbertData.from_exponents([(2, 0, 0, 0), (0, 3, 0, 0)], 4)
    assert H.dim == 1
    assert H.degree == 6


def test_twisted_cubic_lt_ideal():
    # grevlex leading terms of the twisted cubic basis: xz, xw, yw ... using
    # the classical lt ideal (x*z, x*w, y*w) gives dim 1 degree 3
    gens = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)]
    H = HilbertData.from_exponents(gens, 4)
    assert H.dim == 1
    assert H.degree == 3


def test_nontrivial_recursion_matches_inclusion_exclusion():
    # I = (x^2, xy, y^3) in k[x,y]: count standard monomials directly
    H = HilbertData.from_exponents([(2, 0), (1, 1), (0, 3)], 2)
    # standard monomials: 1, x, y, y^2 -> finite length 4
    assert H.dim == -1
    assert H.hf(0) == 1 and H.hf(1) == 2 and H.hf(2) == 1 and H.hf(3) == 0


def test_hf_matches_brute_force_count():
    import itertools

    gens = [(2, 1, 0), (0, 3, 1), (1, 0, 2)]
    H = HilbertData.from_exponents(gens, 3)
    for e in range(8):
        standard = 0
        for m in itertools.product(range(e + 1), repeat=3):
            if sum(m) != e:
                continue
            if not any(all(x >= y for x, y in zip(m, g)) for g in gens):
                standard += 1
        assert H.hf(e) == standard


def test_hilbert_polynomial_value_agrees_eventually():
    gens = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)]
    H = HilbertData.from_exponents(gens, 4)
    for e in range(3, 10):
        assert H.hilbert_polynomial_value(e) == H.hf(e) == 3 * e + 1


def test_minimalization_insensitive():
    a = HilbertData.from_exponents([(1, 0), (2, 0), (1, 1)], 2)
    b = HilbertData.from_exponents([(1, 0)], 2)
    assert a.numerator == b.numerator


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, EXP_CAP))
                for _ in range(n)]), max_size=12)))
def test_minimalize_is_the_tuple_loop(gens):
    # the packed subtraction with guard bits against the tuple comparison,
    # exponents up to EXP_CAP, order and output included
    assert _minimalize(gens) == minimalize_by_tuples(gens)
