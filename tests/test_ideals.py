from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lforge import ideals
from lforge.fields import GF, QQ
from lforge.groebner import (
    TermTable,
    groebner_basis,
    normal_form,
    reduce_rows,
    symbolic_preprocessing,
)
from lforge.ideals import (
    Ideal,
    change_coordinates,
    eliminate,
    form_matrix,
    forms_from_vector,
    image_ideal,
    intersect,
    jacobian,
    linear_section_reduce,
    minors_ideal,
    multiplication_matrix,
    multiply_forms,
    quotient,
    ring_map,
    saturate_irrelevant,
    saturated_hilbert,
    singular_locus,
    zero_dim_reduced_check,
)
from lforge.linalg import (
    _kernel_mod,
    _modulus,
    matmul_over,
    nullspace_over,
    rank_over,
    rref_mod,
    zeros_over,
)
from lforge.mpoly import (
    MPoly,
    PolynomialRing,
    coefficient_vector,
    from_coefficient_vector,
)
from lforge.orders import TermOrder
from lforge.rng import Rng
from lforge.textio import parse_poly
from lforge.unipoly import UniPoly, gcd as poly_gcd
from oracles import (
    FreeModule,
    cover_map,
    image_by_elimination,
    intersect_by_elimination,
    matrix_det,
    quotient_by_elimination,
    saturate,
    symbolic_preprocessing_by_loop,
)

F17 = GF(17)
R3 = PolynomialRing(F17, ("x", "y", "z"))
x, y, z = R3.gens()


def test_ideal_basics():
    I = Ideal(R3, [x**2 - y * z, R3.zero])
    assert len(I.gens) == 1
    assert I.contains(x**2 - y * z)
    assert I.contains((x**2 - y * z) * y)
    assert not I.contains(x)
    assert I.contains(R3.zero)
    Z = Ideal(R3, [])
    assert Z.is_zero_ideal()
    assert not Z.contains(x)


def test_ideal_equality():
    I = Ideal(R3, [x, y])
    J = Ideal(R3, [x + y, y])
    K = Ideal(R3, [x])
    assert I == J
    assert I != K


def test_eliminate_conic():
    R = PolynomialRing(F17, ("s", "t", "x", "y", "z"))
    s, t, X, Y, Z = R.gens()
    I = Ideal(R, [X - s**2, Y - s * t, Z - t**2])
    E = eliminate(I, 2)
    assert E.ring.names == ("x", "y", "z")
    small = E.ring
    xx, yy, zz = small.gens()
    assert Ideal(small, [xx * zz - yy**2]) == E


def test_eliminate_zero_vars():
    I = Ideal(R3, [x])
    assert eliminate(I, 0) is I
    with pytest.raises(ValueError):
        eliminate(I, 3)


def test_intersect_principal():
    I = Ideal(R3, [x])
    J = Ideal(R3, [y])
    K = intersect(I, J)
    assert K == Ideal(R3, [x * y])
    assert intersect(I, Ideal(R3, [])) .is_zero_ideal()


def test_intersect_contained_in_both():
    rng = Rng(11)
    for trial in range(5):
        I = Ideal(R3, [R3.random_form(2, rng.fork(trial * 2))])
        J = Ideal(R3, [R3.random_form(2, rng.fork(trial * 2 + 1)),
                       R3.random_form(1, rng.fork(trial + 100))])
        K = intersect(I, J)
        for g in K.gens:
            assert I.contains(g)
            assert J.contains(g)


def test_quotient_trivial():
    I = Ideal(R3, [x**2, x * y])
    Q = quotient(I, Ideal(R3, [x]))
    assert Q == Ideal(R3, [x, y])
    with pytest.raises(ValueError):
        quotient(I, Ideal(R3, []))


def test_quotient_properties():
    rng = Rng(23)
    for trial in range(4):
        I = Ideal(R3, [R3.random_form(2, rng.fork(trial)),
                       R3.random_form(3, rng.fork(trial + 50))])
        J = Ideal(R3, [R3.random_form(1, rng.fork(trial + 200))])
        Q = quotient(I, J)
        # I <= I:J and (I:J)*J <= I
        for g in I.gens:
            assert Q.contains(g)
        for q in Q.gens:
            for j in J.gens:
                assert I.contains(q * j)


def test_quotient_generators_may_skip_a_degree():
    # the colon has generators in degrees 1 and 3 and none in degree 2: the
    # scan goes on past the degree that adds nothing
    Q = quotient(Ideal(R3, [x * y, x * z**3]), Ideal(R3, [x]))
    assert Q == Ideal(R3, [y, z**3])


def _oracle_cases(field, seed):
    """(I, J) in three variables: I = (x f1, x f2, g) with a cubic g, so
    that I : x holds f1 and f2, and J = (x, l, q) with l linear and q a
    quadric."""
    R = PolynomialRing(field, ("x", "y", "z"))
    X = R.var(0)
    rng = Rng(seed)
    f1, f2 = (R.random_form(d, rng.fork(d)) for d in (1, 2))
    I = Ideal(R, [X * f1, X * f2, R.random_form(3, rng.fork(3))])
    J = Ideal(R, [X, R.random_form(1, rng.fork(4)),
                  R.random_form(2, rng.fork(5))])
    return I, J


@pytest.mark.parametrize("field", [F17, QQ], ids=["gf17", "qq"])
@pytest.mark.parametrize("seed", range(3))
def test_intersect_and_quotient_match_the_t_trick(field, seed):
    I, J = _oracle_cases(field, seed)
    K = intersect(I, J)
    assert K == intersect_by_elimination(I, J)
    assert K.hilbert().numerator == Ideal(I.ring, K.gens).hilbert().numerator
    Q = quotient(I, J)
    assert Q == quotient_by_elimination(I, J)
    assert Q != I
    for g in J.gens:
        P = Ideal(I.ring, [g])
        assert quotient(I, P) == quotient_by_elimination(I, P)


@pytest.mark.parametrize("field", [F17, QQ], ids=["gf17", "qq"])
def test_intersect_and_quotient_with_the_unit_and_zero_ideals(field):
    R = PolynomialRing(field, ("x", "y", "z"))
    X, Y, _ = R.gens()
    I, unit = Ideal(R, [X * Y]), Ideal(R, [R.one])
    assert intersect(I, unit) == I
    assert quotient(I, Ideal(R, [X * Y])) == unit
    assert quotient(unit, I) == unit
    assert quotient(Ideal(R, []), I).is_zero_ideal()


def test_intersect_and_quotient_refuse_inhomogeneous_input():
    hom, inhom = Ideal(R3, [x * y]), Ideal(R3, [x * y + z])
    for op in (intersect, quotient):
        with pytest.raises(ValueError, match="homogeneous"):
            op(hom, inhom)
        with pytest.raises(ValueError, match="homogeneous"):
            op(inhom, hom)


def test_quotient_past_the_cell_budget_raises(monkeypatch):
    # (xy, xz^3) : x reduces x m, m of degree 3, in degree 4, where z^3 is
    # found: 10 rows and 7 reducers on 10 columns, 170 cells; degree 3 has
    # 6 rows and 3 reducers on 6 columns, 54 cells
    monkeypatch.setattr(ideals, "CELL_BUDGET", 104)
    with pytest.raises(ideals.CellBudgetError, match="degree 4"):
        quotient(Ideal(R3, [x * y, x * z**3]), Ideal(R3, [x]))


def test_quotient_builds_no_span_of_the_ideal(monkeypatch):
    # the colon reduces x m against the basis of (xy, xz^3): no form_matrix
    # span of its generators, and no kernel but kernel_generators' one of
    # the degree-e map, whose columns are the monomials of degree e
    def refused(*args):
        raise AssertionError("form_matrix inside the colon")

    widths = []

    def kernel(A, p):
        widths.append(np.shape(A)[1])
        return _kernel_mod(A, p)

    monkeypatch.setattr(ideals, "form_matrix", refused)
    monkeypatch.setattr(ideals, "_kernel_mod", kernel)
    I = Ideal(R3, [x * y, x * z**3])
    assert quotient(I, Ideal(R3, [x])) == Ideal(R3, [y, z**3])
    assert widths == [len(R3.monomials_of_degree(e))
                      for e in range(len(widths))]


def test_saturate_fixed_point():
    R2 = PolynomialRing(F17, ("x", "y"))
    X, Y = R2.gens()
    m = Ideal(R2, R2.gens())
    I = Ideal(R2, [X * X, X * Y])  # (x) * m
    S = saturate(I, m)
    assert S == Ideal(R2, [X])
    assert saturate(S, m) == S


def test_saturate_irrelevant_matches_quotient_route():
    R2 = PolynomialRing(F17, ("x", "y"))
    X, Y = R2.gens()
    I = Ideal(R2, [X * X, X * Y])
    assert saturate_irrelevant(I) == Ideal(R2, [X])
    rng = Rng(7)
    for trial in range(3):
        f = R3.random_form(2, rng.fork(trial))
        g = R3.random_form(1, rng.fork(trial + 10))
        I = Ideal(R3, [f * g_ for g_ in (x, y, z)])  # f * m is unsaturated
        fast = saturate_irrelevant(I)
        slow = saturate(I, Ideal(R3, R3.gens()))
        assert fast == slow == Ideal(R3, [f])


def _saturation_cases():
    """(ideal, its saturation's (dim, degree)): the unsaturated ideals above,
    an ideal with an embedded irrelevant component and one whose
    saturation is the unit ideal."""
    R2 = PolynomialRing(F17, ("x", "y"))
    X, Y = R2.gens()
    cases = [(Ideal(R2, [X * X, X * Y]), (0, 1))]
    rng = Rng(7)
    for trial in range(3):
        f = R3.random_form(2, rng.fork(trial))
        cases.append((Ideal(R3, [f * v for v in (x, y, z)]), (1, 2)))
    R4 = PolynomialRing(F17, ("x", "y", "z", "w"))
    X, Y, Z, W = R4.gens()
    cubic = [X * Z - Y * Y, X * W - Y * Z, Y * W - Z * Z]
    # twisted cubic with an embedded component at the irrelevant ideal
    cases.append((Ideal(R4, [q * v for q in cubic for v in (X, Y, Z, W)]),
                  (1, 3)))
    cases.append((Ideal(R3, [x * x, y * y, z * z, x * y * z]), (-1, 0)))
    return cases


@pytest.mark.parametrize("case", range(6))
def test_saturate_irrelevant_hands_over_hilbert_data(case):
    # the Hilbert data read in the new coordinates equal those recomputed
    # from scratch in the original ones: the coordinate change round-trips
    I, dim_degree = _saturation_cases()[case]
    J = saturate_irrelevant(I)
    assert J._hilbert is not None
    seeded = J.hilbert()
    fresh = Ideal(I.ring, J.gens).hilbert()
    assert seeded.numerator == fresh.numerator
    assert (seeded.dim, seeded.degree) == (fresh.dim, fresh.degree) == dim_degree
    assert [seeded.hf(e) for e in range(9)] == [fresh.hf(e) for e in range(9)]


@pytest.mark.parametrize("case", range(6))
def test_saturate_irrelevant_keeps_the_input_hilbert_data(monkeypatch, case):
    # the saturation reads HP(I) from I's basis in moved coordinates, and a
    # linear change of coordinates keeps the Hilbert function: I keeps those
    # data, equal to the ones from I's own basis, and reading them later
    # computes no further basis
    I, _ = _saturation_cases()[case]
    assert I._hilbert is None
    saturate_irrelevant(I)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return groebner_basis(*args, **kwargs)

    monkeypatch.setattr(ideals, "groebner_basis", counted)
    kept = I.hilbert()
    assert not calls
    fresh = Ideal(I.ring, I.gens).hilbert()
    assert calls
    assert (kept.numerator, kept.n) == (fresh.numerator, fresh.n)


@pytest.mark.parametrize("p", [2, 3])
def test_saturate_irrelevant_fallback_keeps_the_input_hilbert_data(p):
    # every draw fails here (see the fallback test below); the data I keeps
    # come from the first draw's basis
    R = PolynomialRing(GF(p), ("x", "y", "z"))
    X, Y, Z = R.gens()
    pts = [X**p * Y - X * Y**p, X**p * Z - X * Z**p, Y**p * Z - Y * Z**p]
    I = Ideal(R, [v * g for v in R.gens() for g in pts])
    saturate_irrelevant(I)
    kept = I.hilbert()
    fresh = Ideal(R, I.gens).hilbert()
    assert (kept.numerator, kept.n) == (fresh.numerator, fresh.n)


@pytest.mark.parametrize("case", range(6))
def test_saturated_hilbert_is_the_saturations_hilbert_data(monkeypatch, case):
    # the same Hilbert data as saturate_irrelevant(I).hilbert(), without
    # dividing the basis or changing its coordinates back
    I, dim_degree = _saturation_cases()[case]
    want = saturate_irrelevant(Ideal(I.ring, I.gens)).hilbert()

    def unread(*args):
        raise AssertionError("the back-map is not needed")

    monkeypatch.setattr(ideals, "_divide_out_last_variable", unread)
    got = saturated_hilbert(I)
    assert got.numerator == want.numerator
    assert (got.dim, got.degree) == (want.dim, want.degree) == dim_degree
    assert [got.hf(e) for e in range(9)] == [want.hf(e) for e in range(9)]
    assert I._hilbert is not None  # I keeps its own data as there


@pytest.mark.parametrize("p", [2, 3])
def test_saturated_hilbert_after_failed_draws(p):
    # every draw fails here (see the fallback test below): the data come
    # from the intersection of the colons
    R = PolynomialRing(GF(p), ("x", "y", "z"))
    X, Y, Z = R.gens()
    pts = [X**p * Y - X * Y**p, X**p * Z - X * Z**p, Y**p * Z - Y * Z**p]
    I = Ideal(R, [v * g for v in R.gens() for g in pts])
    got = saturated_hilbert(I)
    want = saturate_irrelevant(Ideal(R, I.gens)).hilbert()
    assert (got.numerator, got.n) == (want.numerator, want.n)


def test_saturated_hilbert_refuses_inhomogeneous():
    with pytest.raises(ValueError):
        saturated_hilbert(Ideal(R3, [x * y + z, x * z]))


def test_saturate_irrelevant_refuses_inhomogeneous():
    with pytest.raises(ValueError):
        saturate_irrelevant(Ideal(R3, [x * y + z, x * z]))


def test_saturate_irrelevant_computes_one_basis(monkeypatch):
    import lforge.ideals as ideals

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return groebner_basis(*args, **kwargs)

    monkeypatch.setattr(ideals, "groebner_basis", counted)
    I, _ = _saturation_cases()[4]
    J = saturate_irrelevant(I)
    assert len(calls) == 1
    assert J.dim_degree() == (1, 3)
    assert len(calls) == 1


def _least_power_division(g):
    """Reference for Bayer's division: the least last-variable power over
    all terms of g, and g divided by it term by term (unpack, then pack)."""
    code = g.ring.code
    exps = [code.unpack(m) for m, _ in g.terms]
    k = min(e[-1] for e in exps)
    return k, g.ring.from_dict({code.pack(e[:-1] + (e[-1] - k,)): c
                                for e, (_, c) in zip(exps, g.terms)})


@pytest.mark.parametrize("field", [F17, QQ], ids=["gf17", "qq"])
@pytest.mark.parametrize("seed", range(3))
def test_divide_out_last_variable_matches_least_power_division(field, seed):
    # reduced grevlex bases of f*m^2 + (g) in random unitriangular
    # coordinates: the ideal is not saturated, so the last variable is a
    # zero divisor on it and some basis elements are divisible by it; each
    # leading monomial carries the least power
    R = PolynomialRing(field, ("x", "y", "z"))
    rng = Rng(seed)
    f = R.random_form(1, rng.fork(0))
    g = R.random_form(3, rng.fork(1))
    gens = [f * u * v for u in R.gens() for v in R.gens()] + [g]
    forms = [R.var(i) + sum((R.var(j).scale(field.random(rng))
                             for j in range(i)), R.zero) for i in range(3)]
    G = groebner_basis(change_coordinates(gens, forms))
    reference = [_least_power_division(h) for h in G]
    assert any(k for k, _ in reference)
    assert [R.code.unpack(h.lm)[-1] for h in G] == [k for k, _ in reference]
    assert ideals._divide_out_last_variable(G) == [q for _, q in reference]


LEX = PolynomialRing(F17, ("x", "y", "z", "w"), TermOrder.lex())


def _lex_binomials(seed):
    """Three seeded binomials of degrees 4, 4 and 3 in LEX."""
    rng = Rng(seed)
    gens = []
    for d in (4, 4, 3):
        mons = LEX.monomials_of_degree(d)
        terms = {}
        for _ in range(2):
            c = 1 + rng.randrange(16)
            terms[mons[rng.randrange(len(mons))]] = c
        gens.append(LEX.from_dict(terms))
    return gens


@pytest.mark.parametrize("seed", [None, 1, 36, 37, 38])
def test_saturate_irrelevant_on_a_lex_ring_matches_saturate(seed):
    # Bayer's division needs a grevlex basis, so the moved basis is grevlex
    # on a lex ring too.  Without that, seed None (a fixed ideal) gave an
    # ideal with the right Hilbert polynomial but hf(S/J)(6) = 44 against
    # 43; the seeds are those below 40 whose ideal is not saturated
    if seed is None:
        gens = [parse_poly(t, LEX) for t in ("-5*y^3*z + 6*z^3*w",
                                       "4*x*y*w^2 + y*z^2*w",
                                       "5*x*y^2 + 6*x*w^2")]
    else:
        gens = _lex_binomials(seed)
    I = Ideal(LEX, gens)
    J = saturate_irrelevant(I)
    S = saturate(I, Ideal(LEX, LEX.gens()))
    assert J.ring is LEX
    assert J == S and J != I
    fresh = Ideal(LEX, J.gens).hilbert()
    assert [J.hilbert().hf(e) for e in range(9)] == [fresh.hf(e)
                                                     for e in range(9)]


def test_hilbert_twisted_cubic():
    R4 = PolynomialRing(F17, ("x", "y", "z", "w"))
    X, Y, Z, W = R4.gens()
    I = Ideal(R4, [X * Z - Y * Y, X * W - Y * Z, Y * W - Z * Z])
    assert I.dim_degree() == (1, 3)


def test_hilbert_complete_intersection():
    R4 = PolynomialRing(F17, ("a", "b", "c", "d"))
    rng = Rng(3)
    q1 = R4.random_form(2, rng.fork(0))
    q2 = R4.random_form(2, rng.fork(1))
    I = Ideal(R4, [q1, q2])
    assert I.dim_degree() == (1, 4)


def test_hilbert_irrelevant_and_errors():
    assert Ideal(R3, R3.gens()).dim_degree()[0] == -1
    with pytest.raises(ValueError):
        Ideal(R3, [x + x * y]).hilbert()


def test_graded_piece_dim():
    R2 = PolynomialRing(F17, ("x", "y"))
    X, Y = R2.gens()
    I = Ideal(R2, [X * X])
    assert I.graded_piece_dim(2) == 1
    assert I.graded_piece_dim(3) == 2  # x^2*x, x^2*y
    assert I.graded_piece_dim(1) == 0
    assert Ideal(R2, []).graded_piece_dim(5) == 0


@pytest.mark.parametrize("p", [2, 3])
def test_saturate_irrelevant_fallback_on_all_rational_points(
        monkeypatch, no_fp_buchberger, p):
    # I_pts is the ideal of all p^2 + p + 1 rational points of P^2 and
    # I = m * I_pts.  Every linear form vanishes at a rational point, so each
    # drawn I : l^oo loses a point and fails the Hilbert polynomial check;
    # only the fallback, which intersects the colons, can answer
    R = PolynomialRing(GF(p), ("x", "y", "z"))
    X, Y, Z = R.gens()
    pts = [X**p * Y - X * Y**p, X**p * Z - X * Z**p, Y**p * Z - Y * Z**p]
    I = Ideal(R, [v * g for v in R.gens() for g in pts])
    calls = []

    def counted(*args):
        calls.append(1)
        return intersect(*args)

    monkeypatch.setattr(ideals, "intersect", counted)
    S = saturate_irrelevant(I)
    assert calls
    assert S == Ideal(R, pts)
    assert S.dim_degree() == (0, p * p + p + 1)


def test_matrix_det_and_minors():
    R4 = PolynomialRing(F17, ("x", "y", "z", "w"))
    X, Y, Z, W = R4.gens()
    M = [[X, Y, Z], [Y, Z, W]]
    I = minors_ideal(M, 2)
    assert len(I.gens) == 3
    assert I.dim_degree() == (1, 3)
    with pytest.raises(ValueError):
        minors_ideal(M, 3)
    # determinant vs direct expansion on a 3x3
    N = [[X, Y, Z], [Y, Z, W], [Z, W, X]]
    d = matrix_det(N)
    expect = (
        X * (Z * X - W * W) - Y * (Y * X - W * Z) + Z * (Y * W - Z * Z)
    )
    assert d == expect
    # every generator of minors_ideal is, in order, +- the Laplace expansion
    # of its nonzero minor, on random matrices of forms with zero entries
    rng = Rng(38)
    for field in (F17, GF(2), QQ):
        R = PolynomialRing(field, ("s", "t", "u"))
        for r, c in ((1, 5), (2, 3), (2, 6), (3, 3), (3, 6)):
            M = [[R.random_form(rng.randrange(3), rng) if rng.randrange(4)
                  else R.zero for _ in range(c)] for _ in range(r)]
            for k in range(1, r + 1):
                want = [matrix_det(M, rs, cs)
                        for rs in combinations(range(r), k)
                        for cs in combinations(range(c), k)]
                want = [w for w in want if not w.is_zero()]
                gens = minors_ideal(M, k, ring=R).gens
                assert len(gens) == len(want), (field, r, c, k)
                for g, w in zip(gens, want):
                    assert g == w or g == -w, (field, r, c, k)


def test_jacobian():
    J = jacobian([x**2 + y * z])
    assert J == [[2 * x, z, y]]


def test_singular_locus_smooth_quadric():
    R6 = PolynomialRing(F17, ("x0", "x1", "x2", "x3", "x4", "x5"))
    g = R6.gens()
    q = g[0] * g[1] + g[2] * g[3] + g[4] * g[5]
    S = singular_locus(Ideal(R6, [q]), 1)
    assert S.dim_degree()[0] == -1


def test_singular_locus_cuspidal_cubic():
    f = z * y**2 - x**3
    S = singular_locus(Ideal(R3, [f]), 1)
    # supported at the single cusp point (0:0:1), with multiplicity 2
    assert S.dim_degree() == (0, 2)
    point = Ideal(R3, [x, y])
    for g in S.gens:
        assert point.contains(g)
    out = zero_dim_reduced_check(S, seed=3)
    assert out["reduced"] is False


def test_singular_locus_nodal_cubic():
    # node at (0:0:1): the Jacobian scheme there is one reduced point
    f = z * y**2 - x**3 - x**2 * z
    S = singular_locus(Ideal(R3, [f]), 1)
    assert S.dim_degree() == (0, 1)
    assert S == Ideal(R3, [x, y])


def test_singular_locus_codim_mismatch():
    with pytest.raises(ValueError):
        singular_locus(Ideal(R3, [x + y]), 3)


def test_image_ideal_conic_both_methods():
    S = PolynomialRing(F17, ("s", "t"))
    s, t = S.gens()
    T = PolynomialRing(F17, ("x", "y", "z"))
    forms = [s**2, s * t, t**2]
    res = image_ideal(forms, T, bound=3)
    X, Y, Z = T.gens()
    assert res.ideal == Ideal(T, [X * Z - Y * Y])
    assert res.h0 == {1: 0, 2: 1, 3: 3}
    assert image_by_elimination(forms, T) == res.ideal


def test_image_ideal_conic_over_qq():
    S = PolynomialRing(QQ, ("s", "t"))
    s, t = S.gens()
    T = PolynomialRing(QQ, ("x", "y", "z"))
    forms = [s**2, 2 * s * t, t**2]
    res = image_ideal(forms, T, bound=3)
    assert res.h0 == {1: 0, 2: 1, 3: 3}
    assert res.ideal == image_by_elimination(forms, T)
    X, Y, Z = T.gens()
    assert res.ideal == Ideal(T, [4 * X * Z - Y * Y])


def span(gens, k):
    """The products g * m of each generator with the monomials of degree
    k - deg g, generator by generator: the degree-k piece of the ideal, as
    one row of form_matrix."""
    return form_matrix([gens], [k - g.degree() for g in gens], [k])


def greedy_image_generators(field, forms, target, bound):
    """Reference for image_ideal: in each degree, keep a kernel vector of
    the evaluation map when it raises the rank of the span of the
    generators kept so far and of the vectors kept before it, one rank
    computation per vector."""
    images = ring_map(forms, target)
    gens, h0 = [], {}
    for e, A in islice(images, 1, bound + 1):
        ker = nullspace_over(field, A)
        h0[e] = ker.shape[1]
        kept = [list(c) for c in span(gens, e).T] if gens else []
        rank = rank_over(field, kept) if kept else 0
        for v in ker.T:
            r = rank_over(field, kept + [list(v)])
            if r > rank:
                kept.append(list(v))
                rank = r
                gens.append(from_coefficient_vector(
                    target, target.monomials_of_degree(e), v))
    return gens, h0


@pytest.mark.parametrize("field", [GF(2), F17, QQ])
def test_image_ideal_matches_greedy_rank_loop(field):
    rng = Rng(77)
    # (source variables, forms, their degree, bound)
    for nsrc, nforms, d, bound in [(2, 3, 2, 3), (2, 4, 1, 3), (2, 4, 2, 3),
                                   (3, 4, 2, 4), (2, 3, 3, 3)]:
        S = PolynomialRing(field, ("s", "t", "u")[:nsrc])
        T = PolynomialRing(field, tuple(f"y{i}" for i in range(nforms)))
        forms = []
        while len(forms) < nforms:
            f = S.random_form(d, rng)
            if f:
                forms.append(f)
        res = image_ideal(forms, T, bound)
        gens, h0 = greedy_image_generators(field, forms, T, bound)
        assert res.h0 == h0
        assert [g.terms for g in res.ideal.gens] == [g.terms for g in gens]


def test_image_ideal_budget(monkeypatch):
    S = PolynomialRing(F17, ("s", "t"))
    s, t = S.gens()
    T = PolynomialRing(F17, ("x", "y", "z"))
    forms = [s**2, s * t, t**2]
    # the degree-3 evaluation map is 10 x 7
    monkeypatch.setattr(ideals, "CELL_BUDGET", 69)
    with pytest.raises(ideals.CellBudgetError):
        image_ideal(forms, T, bound=3)
    monkeypatch.setattr(ideals, "CELL_BUDGET", 70)
    shapes = []
    zeros_over = ideals.zeros_over

    def recording_zeros(field, shape):
        shapes.append(shape)
        return zeros_over(field, shape)

    monkeypatch.setattr(ideals, "zeros_over", recording_zeros)
    assert image_ideal(forms, T, bound=3).h0 == {1: 0, 2: 1, 3: 3}
    # the degree-3 map is the largest matrix built: the degree-4 map
    # (9 x 15) past the bound is not
    assert max(r * c for r, c in shapes) == 70


def test_image_ideal_validation():
    S = PolynomialRing(F17, ("s", "t"))
    s, t = S.gens()
    T = PolynomialRing(F17, ("x", "y", "z"))
    with pytest.raises(ValueError):
        image_ideal([s, t], T, bound=2)
    with pytest.raises(ValueError):
        image_ideal([s**2, s * t, t], T, bound=2)


def test_zero_dim_reduced_two_points():
    I = Ideal(R3, [z, x * y])
    out = zero_dim_reduced_check(I, seed=5)
    assert out["status"] == "ok"
    assert out["degree"] == 2
    assert out["reduced"] is True


def test_zero_dim_not_reduced_double_point():
    I = Ideal(R3, [x**2, y])
    out = zero_dim_reduced_check(I, seed=5)
    assert out["degree"] == 2
    assert out["reduced"] is False
    assert out["status"] == "ok"


def four_points():
    # 4 coordinate-ish points in P^2: V(xy, xz... ) build via intersection
    pts = [Ideal(R3, [x, y]), Ideal(R3, [y, z]), Ideal(R3, [x, z]),
           Ideal(R3, [x - y, y - z])]
    I = pts[0]
    for P in pts[1:]:
        I = intersect(I, P)
    return I


def test_zero_dim_reduced_many_points():
    out = zero_dim_reduced_check(four_points(), seed=9)
    assert out == {**out, "reduced": True, "degree": 4}


def test_zero_dim_reduced_check_needs_no_groebner_basis(monkeypatch):
    I = four_points()
    I.hilbert()  # the Hilbert data a saturation hands over

    def refuse(*args):
        raise AssertionError("the check computed with a Groebner basis")

    monkeypatch.setattr(Ideal, "groebner", refuse)
    monkeypatch.setattr(ideals, "normal_form", refuse)
    out = zero_dim_reduced_check(I, seed=9)
    assert out == {**out, "reduced": True, "degree": 4}


@pytest.mark.parametrize("seed", range(8))
def test_zero_dim_minpoly_degree_at_most_degree(seed):
    # the minimal polynomial of a 2 x 2 operator has degree at most 2; a
    # zero Krylov start vector once added a spurious factor (degree 3 at
    # seed 1)
    out = zero_dim_reduced_check(Ideal(R3, [x**2, y]), seed=seed)
    assert out["minpoly_degree"] == 2
    assert out["reduced"] is False


def test_zero_dim_reduced_check_over_qq():
    Q3 = PolynomialRing(QQ, ("x", "y", "z"))
    u, v, w = Q3.gens()
    two = zero_dim_reduced_check(Ideal(Q3, [w, u * v]), seed=5)
    assert two == {"reduced": True, "degree": 2, "minpoly_degree": 2,
                   "squarefree": True, "status": "ok"}
    double = zero_dim_reduced_check(Ideal(Q3, [u**2, v]), seed=5)
    assert double["status"] == "ok"
    assert double["degree"] == 2
    assert double["squarefree"] is False
    assert double["reduced"] is False


def _krylov_lcm_minpoly(field, T, rng):
    """A divisor of the minimal polynomial of T: the lcm of the minimal
    polynomials of random vectors v, each the first kernel vector of the
    Krylov matrix [v, Tv, ..., T^n v] on an object array, one T.dot on
    Python numbers and one field.of per entry."""
    n = len(T)
    T = np.array(T, dtype=object)
    mp = UniPoly.one(field)
    for _ in range(3):
        krylov = [[field.random(rng) for _ in range(n)]]
        for _ in range(n):
            krylov.append([field.of(x) for x in T.dot(krylov[-1])])
        ker = nullspace_over(field, list(zip(*krylov)))
        v = UniPoly(field, ker[:, 0])
        mp = (mp * v).exact_div(poly_gcd(mp, v)).monic()
    return mp


def _evaluate_at(field, mp, T):
    """mp(T), by Horner's rule through matmul_over."""
    n = len(T)
    out = zeros_over(field, (n, n))
    for c in reversed(mp.coeffs):
        out = matmul_over(field, out, T)
        out[np.arange(n), np.arange(n)] = [field.add(a, c)
                                          for a in out.diagonal().tolist()]
    return out


def _operator(field, kind, n, rng):
    """A square matrix (list of rows): n x n with a minimal polynomial of
    degree n ("dense", "jordan") or 1 ("scalar"), or a random block of size
    n // 2 repeated on the diagonal ("twice")."""
    rand = [[field.random(rng) for _ in range(n)] for _ in range(n)]
    c = field.random(rng)
    if kind == "dense":
        return rand
    if kind == "twice":
        m = n // 2
        return [[rand[i % m][j % m] if i // m == j // m else field.zero
                 for j in range(2 * m)] for i in range(2 * m)]
    return [[c if i == j else field.one if kind == "jordan" and j == i + 1
             else field.zero for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("field, n", [(F17, 7), (QQ, 4)])
@pytest.mark.parametrize("kind", ["dense", "twice", "jordan", "scalar"])
@pytest.mark.parametrize("seed", range(4))
def test_matrix_minpoly_matches_object_krylov_loop(field, n, kind, seed):
    # mp(T) = 0 and mp is monic, so mp is divisible by the minimal
    # polynomial; every vector's minimal polynomial divides that one
    T = _operator(field, kind, n, Rng(seed))
    mp = ideals._matrix_minpoly(field, T)
    assert not _evaluate_at(field, mp, T).any()
    assert mp.lc == field.one
    ref = _krylov_lcm_minpoly(field, T, Rng(100 + seed))
    assert mp.divmod(ref)[1].is_zero()
    if kind == "scalar":
        assert mp.degree == 1
    if kind == "jordan":
        assert mp.degree == n


@pytest.mark.xfail(
    strict=True,
    reason="a drawn form that fails to separate the points gives a "
    "squarefree minimal polynomial of degree below the scheme degree, and "
    "the check reads it as 'not reduced' instead of redrawing")
def test_zero_dim_reduced_check_redraws_non_separating_form():
    out = zero_dim_reduced_check(Ideal(R3, [z, x * y]), seed=25)
    assert out["status"] != "ok" or out["reduced"] is True


def substitute_rows(forms, target, e, d):
    """Reference for ring_map: one substitute call per monomial of degree e,
    giving the coefficients of its image on the source monomials of degree
    d*e, one list per column of the map."""
    source = forms[0].ring
    sub = {name: forms[i] for i, name in enumerate(target.names)}
    smons = source.monomials_of_degree(d * e)
    return [coefficient_vector(
                MPoly(target, ((m, target.field.one),)).substitute(sub), smons)
            for m in target.monomials_of_degree(e)]


@pytest.mark.parametrize("field", [F17, QQ])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_evaluation_rows_match_substitute(field, d):
    # ring_map, the degree-by-degree matrices of a ring map; the last input
    # has a zero form first
    rng = Rng(100 + d)
    source = PolynomialRing(field, ("s", "t", "u"))
    for nforms, zero in ((1, False), (2, False), (4, False), (3, True)):
        target = PolynomialRing(field, tuple(f"y{j}" for j in range(nforms)))
        forms = []
        for _ in range(nforms):
            f = source.random_form(d, rng)
            forms.append(f if not f.is_zero() else source.var(0) ** d)
        if zero:
            forms[0] = source.zero
        images = ring_map(forms, target)
        for e, A in islice(images, 5 - d):
            assert A.T.tolist() == substitute_rows(forms, target, e, d)


P31 = GF(2**31 - 1)
FIELDS = pytest.mark.parametrize("field", [F17, QQ, P31],
                                 ids=["gf17", "qq", "gf2147483647"])


def top_coefficient_form(ring, e, shift=0):
    """The degree-e form with coefficients -1, ..., -6 in turn: p-1, ...,
    p-6 over F_p, the largest residues.  At p = 2^31 - 1 a product of two
    residues is close to 2^62, so an int64 sum of three overflows."""
    field = ring.field
    return ring.from_dict({m: field.of(-1 - (k + shift) % 6)
                           for k, m in enumerate(ring.monomials_of_degree(e))})


@FIELDS
@pytest.mark.parametrize("d", [1, 2, 3])
def test_evaluation_rows_exact_at_largest_residues(field, d):
    source = PolynomialRing(field, ("s", "t", "u"))
    target = PolynomialRing(field, ("a", "b", "c"))
    forms = [top_coefficient_form(source, d, j) for j in range(3)]
    images = ring_map(forms, target)
    for e, A in islice(images, 4):
        assert A.T.tolist() == substitute_rows(forms, target, e, d)


def multiply(f, a, V):
    """multiply_forms by the nonzero MPoly f."""
    ts, cs = zip(*f.terms)
    return multiply_forms(f.ring, f.ring.code.unpack_rows(ts), cs, a, V)


@FIELDS
@pytest.mark.parametrize("a", [0, 2])
def test_multiply_forms_matches_mpoly_products(field, a):
    # oracle: each column read as a form, multiplied as an MPoly
    source = PolynomialRing(field, ("s", "t", "u"))
    amons = source.monomials_of_degree(a)
    for e in (1, 2):
        f = top_coefficient_form(source, e, a)
        V = zeros_over(field, (len(amons), 4))
        V[:, 1] = [field.of(-1 - k % 5) for k in range(len(amons))]
        V[::2, 3] = field.of(-2)  # columns 0 and 2 stay zero
        bmons = source.monomials_of_degree(a + e)
        want = [coefficient_vector(
                    from_coefficient_vector(source, amons, v) * f, bmons)
                for v in V.T]
        assert multiply(f, a, V).T.tolist() == want
        empty = multiply(f, a, zeros_over(field, (len(amons), 2)))
        assert empty.shape == (len(bmons), 2) and not empty.any()


@pytest.mark.parametrize("p", [251, 257])
def test_graded_maps_do_not_wrap_on_narrow_residues(p):
    # residues of 251 are stored in uint8 and those of 257 in uint16; with
    # coefficients near p - 1, c * v and the sums of products pass 255 and
    # 65535, so every map is checked against MPoly products
    field = GF(p)
    ring = PolynomialRing(field, ("s", "t", "u"))
    f = top_coefficient_form(ring, 2)
    for a in (1, 2):
        amons = ring.monomials_of_degree(a)
        bmons = ring.monomials_of_degree(a + 2)
        M = multiplication_matrix(f, a, a + 2)
        assert M.T.tolist() == [coefficient_vector(
            ring.from_dict({m: 1}) * f, bmons) for m in amons]
        gs = [top_coefficient_form(ring, a, k) for k in range(3)]
        V = zeros_over(field, (len(amons), len(gs)))
        for j, g in enumerate(gs):
            V[:, j] = coefficient_vector(g, amons)
        assert multiply(f, a, V).T.tolist() == [
            coefficient_vector(g * f, bmons) for g in gs]
    forms = [top_coefficient_form(ring, 1, j) for j in range(3)]
    polys = [top_coefficient_form(ring, e, 1) for e in range(4)]
    sub = dict(zip(ring.names, forms))
    assert change_coordinates(polys, forms) == [g.substitute(sub)
                                                for g in polys]


@pytest.mark.parametrize("field", [F17, QQ], ids=["gf17", "qq"])
def test_cover_map_matches_form_matrix(field):
    # a cover of a free module with generators in degrees 0 and 1, by
    # generators in degrees 1 and 2, against the matrix of the same map
    # read as a matrix of forms
    ring = PolynomialRing(field, ("a", "b", "c"))
    target = FreeModule(ring, [0, 1])
    rng = np.random.default_rng(5)
    gens = {}
    for t, count in ((1, 2), (2, 1)):
        gens[t] = zeros_over(field, (target.dim(t), count))
        gens[t][:] = [[field.of(int(c)) for c in row]
                      for row in rng.integers(-8, 9, (target.dim(t), count))]
    free, images = cover_map(ring, gens, target.dim, target.mul_vectors)
    assert free.gen_degrees == [1, 1, 2]
    columns = [(t, v) for t in sorted(gens) for v in gens[t].T]
    P = [list(row) for row in zip(*[
        forms_from_vector(ring, v, [t - g for g in target.gen_degrees])
        for t, v in columns])]
    # the stream starts at the lowest generator degree
    for want_t, (t, A) in zip(range(1, 5), images):
        assert t == want_t
        want = form_matrix(P, [t - s for s in free.gen_degrees],
                           [t - g for g in target.gen_degrees])
        assert A.tolist() == want.tolist()


@FIELDS
@pytest.mark.parametrize("d", [1, 2, 3])
def test_change_coordinates_exact_at_largest_residues(field, d):
    source = PolynomialRing(field, ("s", "t", "u"))
    target = PolynomialRing(field, ("a", "b", "c"))
    forms = [top_coefficient_form(source, d, j) for j in range(3)]
    polys = [top_coefficient_form(target, e, 1) for e in range(4)]
    polys += [target.zero, top_coefficient_form(target, 2, 4)]
    sub = dict(zip(target.names, forms))
    assert change_coordinates(polys, forms) == [f.substitute(sub)
                                                for f in polys]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_change_coordinates_matches_substitute(data):
    field = data.draw(st.sampled_from([F17, QQ, P31]))
    n = data.draw(st.integers(1, 4))
    ring = PolynomialRing(field, tuple(f"v{i}" for i in range(n)))
    coefficient = st.integers(-16, 16).filter(bool).map(field.of)

    def form(e, min_size):
        support = data.draw(st.lists(
            st.sampled_from(ring.monomials_of_degree(e)), min_size=min_size,
            max_size=6, unique=True))
        return ring.from_dict({m: data.draw(coefficient) for m in support})

    d = data.draw(st.integers(1, 2))
    forms = [form(d, 1) for _ in range(n)]
    polys = [form(data.draw(st.integers(0, 4)), 0)
             for _ in range(data.draw(st.integers(1, 5)))]
    sub = dict(zip(ring.names, forms))
    assert change_coordinates(polys, forms) == [f.substitute(sub)
                                                for f in polys]


def test_change_coordinates_rejects_inhomogeneous_input():
    with pytest.raises(ValueError):
        change_coordinates([x**2 + y], R3.gens())


# -- graded multiplication maps and quotients ----------------------------


@pytest.mark.parametrize("field", [GF(2), F17, QQ], ids=["gf2", "gf17", "qq"])
def test_multiplication_matrix_matches_mul_term(field):
    ring = PolynomialRing(field, ("s", "t", "u"))
    s, t, u = ring.gens()
    rng = Rng(31)
    for d in range(4):
        f = ring.random_form(d, rng)
        for a in range(3):
            M = multiplication_matrix(f, a, a + d)
            assert M.dtype == zeros_over(field, (0, 0)).dtype
            basis = ring.monomials_of_degree(a + d)
            assert M.T.tolist() == [
                coefficient_vector(ring.from_dict({m: field.one}) * f, basis)
                for m in ring.monomials_of_degree(a)]
    assert multiplication_matrix(ring.zero, 1, 3).tolist() == \
        zeros_over(field, (10, 3)).tolist()
    for f, a, b in ((s**2 + t, 1, 3), (s * t, 1, 2), (s, 2, 2)):
        with pytest.raises(ValueError):
            multiplication_matrix(f, a, b)


@pytest.mark.parametrize("field", [F17, QQ, GF(251)],
                         ids=["gf17", "qq", "gf251"])
def test_form_matrix_blocks_are_multiplication_matrices(field):
    # a 2 x 3 matrix of forms with a zero entry, an entry of degree above
    # its target (a negative source degree: no columns) and, over GF(251),
    # residues near p that a narrow dtype must hold
    ring = PolynomialRing(field, ("s", "t", "u"))
    rng = Rng(7)
    P = [[ring.random_form(2, rng), ring.zero, ring.random_form(4, rng)],
         [ring.random_form(3, rng), -ring.random_form(2, rng),
          ring.random_form(5, rng)]]
    src, tgt = [1, 2, -1], [3, 4]
    M = form_matrix(P, src, tgt)
    assert M.dtype == zeros_over(field, (0, 0)).dtype
    rows = np.cumsum([0] + [len(ring.monomials_of_degree(b)) for b in tgt])
    cols = np.cumsum([0] + [len(ring.monomials_of_degree(a)) for a in src])
    assert M.shape == (rows[-1], cols[-1]) == (25, 9)
    for i, b in enumerate(tgt):
        for j, a in enumerate(src):
            block = M[rows[i]:rows[i + 1], cols[j]:cols[j + 1]]
            basis = ring.monomials_of_degree(b)
            want = [coefficient_vector(ring.from_dict({m: field.one}) * P[i][j],
                                       basis)
                    for m in ring.monomials_of_degree(a)]
            assert block.T.tolist() == want
            assert block.tolist() == \
                multiplication_matrix(P[i][j], a, b).tolist()
    # the span of a graded piece: a generator above k adds no columns
    gens = [P[0][0], P[1][0], P[0][2]]
    piece = form_matrix([gens], [3 - g.degree() for g in gens], [3])
    assert piece.tolist() == np.hstack([multiplication_matrix(g, 3 - d, 3)
                                        for g, d in zip(gens, (2, 3))
                                        ]).tolist()


def test_form_matrix_refuses_past_the_budget_before_allocating(monkeypatch):
    built = []

    def zeros(field, shape):
        built.append(tuple(int(k) for k in shape))
        return zeros_over(field, shape)

    monkeypatch.setattr(ideals, "zeros_over", zeros)
    gens = [x * y, x * z**3]
    # degree 4 in three variables: 15 rows, 6 + 1 columns
    monkeypatch.setattr(ideals, "CELL_BUDGET", 105)
    assert form_matrix([gens], [2, 0], [4]).shape == (15, 7)
    assert built == [(15, 7)]
    monkeypatch.setattr(ideals, "CELL_BUDGET", 104)
    with pytest.raises(ideals.CellBudgetError, match="degree 4"):
        form_matrix([gens], [2, 0], [4])
    with pytest.raises(ideals.CellBudgetError, match="degree 4"):
        multiplication_matrix(x, 3, 4)
    assert built == [(15, 7)]


def cusp():
    return singular_locus(Ideal(R3, [z * y**2 - x**3]), 1)


def two_points_over_qq():
    Q3 = PolynomialRing(QQ, ("x", "y", "z"))
    u, v, w = Q3.gens()
    # (2:0:1) and (6:2:1)
    return Ideal(Q3, [2 * w - u, u * v - 3 * v**2])


GRADED_CASES = {
    "cusp": cusp,
    "two-points": lambda: Ideal(R3, [z, x * y]),
    "four-points": four_points,
    "two-points-qq": two_points_over_qq,
    "mixed-degrees": lambda: Ideal(R3, [x * y, z**3 - x**2 * y]),
}


@pytest.mark.parametrize("case", sorted(GRADED_CASES))
def test_graded_piece_rank_is_the_graded_piece_dim(case):
    I = GRADED_CASES[case]()
    for k in range(6):
        P = span(I.gens, k)
        assert P.shape[0] == len(I.ring.monomials_of_degree(k))
        assert rank_over(I.ring.field, P) == I.graded_piece_dim(k)


@pytest.mark.parametrize("case", sorted(GRADED_CASES))
def test_quotient_coordinates_are_normal_forms(case):
    # the colon's rows ell m, reduced against the ideal's basis
    I = GRADED_CASES[case]()
    ring, field = I.ring, I.ring.field
    G = I.groebner()
    ell = ring.random_form(1, Rng(4))
    for e in range(5):
        mons, U = ring.monomials_of_degree(e), ring.exponents(e)
        rows = [(U, np.zeros(len(U), dtype=np.intp),
                 TermTable.from_polys(ring, [ell]))]
        basis = TermTable.from_polys(ring, list(G))
        pivots, rest = symbolic_preprocessing(rows, basis, e + 1)
        coords = reduce_rows(rows, basis, pivots, rest, e + 1)
        columns = [ring.monomials_of_degree(e + 1)[c] for c in rest]
        for m, row in zip(mons, coords.tolist()):
            nf = normal_form(ring.from_dict({m: field.one}) * ell, list(G))
            # raises unless the normal form lives on the remaining columns
            assert row == coefficient_vector(nf, columns)


def _random_span(field, rng, n, rank, cols):
    """An n x cols matrix over the field of rank at most ``rank``."""
    A = [[rng.randrange(5) - 2 for _ in range(rank)] for _ in range(n)]
    B = [[rng.randrange(5) - 2 for _ in range(cols)] for _ in range(rank)]
    M = np.array(A, dtype=object).reshape(n, rank) @ np.array(
        B, dtype=object).reshape(rank, cols)
    out = zeros_over(field, (n, cols))
    return out + (M if field is QQ else M.astype(np.int64) % field.p)


def _preprocess_both(rows, G, d):
    """symbolic_preprocessing of the rows (u, f), f times the monomial u,
    of degree d, against the list G, next to the packed-int loop; asserts
    they give the same reducers, pivots and rest."""
    ring = G[0].ring
    K0 = ring.code.K0
    reducers, pivots, rest = symbolic_preprocessing_by_loop(
        [(u - K0, f) for u, f in rows], G)
    basis = TermTable.from_polys(ring, G)
    fs = TermTable.from_polys(ring, [f for _, f in rows])
    new_pivots, new_rest = symbolic_preprocessing(
        [(ring.code.unpack_rows([u for u, _ in rows]),
          np.arange(len(rows)), fs)], basis, d)
    mons = ring.monomials_of_degree(d)
    assert [mons[c] for c in new_pivots] == pivots
    assert [mons[c] for c in new_rest] == rest
    assert [(m - G[i].lm, G[i]) for m, i in zip(
        pivots, basis.cover(d)[new_pivots].tolist())] == reducers


@pytest.mark.parametrize("case", sorted(GRADED_CASES))
def test_symbolic_preprocessing_is_the_packed_loop(case):
    # the colon's rows ell m against the ideal's basis, degree by degree
    I = GRADED_CASES[case]()
    ring = I.ring
    G = list(I.groebner())
    ell = ring.random_form(1, Rng(4))
    for e in range(5):
        _preprocess_both([(m, ell) for m in ring.monomials_of_degree(e)],
                         G, e + 1)


@st.composite
def preprocessing_inputs(draw):
    """Over GF(2), GF(17), GF(251) or GF(65537) in 2-4 variables: 1-6
    homogeneous polynomials G of degrees 1-3, not a basis, whose leading
    monomials may repeat and divide each other, and 1-6 rows u f of one
    degree d."""
    p = draw(st.sampled_from([2, 17, 251, 65537]))
    n = draw(st.integers(2, 4))
    ring = PolynomialRing(GF(p), tuple(f"x{i}" for i in range(n)))

    def form(k):
        support = draw(st.lists(st.sampled_from(ring.monomials_of_degree(k)),
                                min_size=1, max_size=6, unique=True))
        return ring.from_dict({m: draw(st.integers(1, p - 1))
                               for m in support})

    G = [form(draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 6)))]
    G += draw(st.lists(st.sampled_from(G), max_size=2))  # repeated leads
    d = draw(st.integers(2, 5))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(1, min(3, d)))
        rows.append((draw(st.sampled_from(ring.monomials_of_degree(d - k))),
                     form(k)))
    return rows, G, d


@settings(max_examples=150, deadline=None)
@given(preprocessing_inputs())
def test_symbolic_preprocessing_on_random_rows(data):
    _preprocess_both(*data)


@pytest.mark.parametrize("field", [F17, QQ], ids=["gf17", "qq"])
@pytest.mark.parametrize("seed", range(4))
def test_quotient_coordinates_match_the_pivot_formula(field, seed):
    # (K, free) = _kernel_mod(span^T) gives the class of x the coordinates
    # K^T x = (x - R^T x[pivots])[free], R the RREF of span^T; spans of
    # every rank, the empty span and the full one
    rng = Rng(seed)
    p = _modulus(field)
    n = 6 + seed
    for rank, cols in ((0, 0), (0, 3), (2, 5), (n - 2, n), (n, n + 2)):
        span = _random_span(field, rng, n, rank, cols)
        X = _random_span(field, rng, n, n, 4)
        R, pivots = rref_mod(span.T, p)
        R = R[:len(pivots)]
        free = [c for c in range(n) if c not in pivots]
        want = X - R.T @ X[pivots] if pivots else X
        if p is not None:
            want %= p
        K, got = _kernel_mod(span.T, p)
        assert got.tolist() == free
        assert matmul_over(field, K.T, X).tolist() == want[free].tolist()


def _section_by_pivots(I, forms):
    """linear_section_reduce by its pivot assembly: free variables stay,
    pivot variable r becomes -R[r, free] on them."""
    ring, field = I.ring, I.ring.field
    n = ring.nvars
    rows = [coefficient_vector(f, [ring.code.var(i) for i in range(n)])
            for f in forms]
    R, pivots = rref_mod(rows, _modulus(field))
    R = R.astype(object)  # Python ints: -R would wrap on narrow residues
    free = [j for j in range(n) if j not in pivots]
    small = PolynomialRing(field, tuple(ring.names[j] for j in free))
    images = {ring.names[j]: small.var(i) for i, j in enumerate(free)}
    xs = [small.code.var(i) for i in range(len(free))]
    for r, pc in enumerate(pivots):
        images[ring.names[pc]] = from_coefficient_vector(small, xs,
                                                         -R[r, free])
    return [g.substitute(images) for g in I.gens]


@pytest.mark.parametrize("field", [F17, QQ], ids=["gf17", "qq"])
@pytest.mark.parametrize("seed", range(4))
def test_linear_section_reduce_matches_the_pivot_assembly(field, seed):
    ring = PolynomialRing(field, ("a", "b", "c", "d", "e"))
    rng = Rng(seed)
    I = Ideal(ring, [ring.random_form(k, rng.fork(k)) for k in (2, 3)])
    for k in (1, 2, 3):
        # sparse forms move the pivots off the leading variables
        forms = [ring.dot([ring.const(rng.randrange(3) * rng.randrange(17))
                           for _ in range(5)], ring.gens())
                 for _ in range(k)]
        if rank_over(field, [coefficient_vector(
                f, [ring.code.var(i) for i in range(5)]) for f in forms]) < k:
            continue
        S = linear_section_reduce(I, forms)
        want = _section_by_pivots(I, forms)
        assert S.gens == tuple(g for g in want if not g.is_zero())


def test_zero_dim_check_rejects_positive_dim():
    with pytest.raises(ValueError):
        zero_dim_reduced_check(Ideal(R3, [x]), seed=0)


def test_linear_section_reduce_trivial():
    I = Ideal(R3, [x])
    S = linear_section_reduce(I, [x])
    assert S.is_zero_ideal()
    assert S.ring.names == ("y", "z")


def test_linear_section_reduce_conic():
    # restrict the conic xz - y^2 to the line z = x: x^2 - y^2, two points
    I = Ideal(R3, [x * z - y**2])
    S = linear_section_reduce(I, [z - x])
    assert S.ring.nvars == 2
    assert S.dim_degree() == (0, 2)


def test_linear_section_dependent_forms():
    with pytest.raises(ValueError):
        linear_section_reduce(Ideal(R3, [x]), [x + y, 2 * x + 2 * y])
    with pytest.raises(ValueError):
        linear_section_reduce(Ideal(R3, [x]), [x, y, z])
    with pytest.raises(ValueError):
        linear_section_reduce(Ideal(R3, [x]), [x**2])
