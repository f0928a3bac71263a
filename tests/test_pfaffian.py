import itertools

import pytest

from lforge.fields import GF, QQ
from lforge.ideals import Ideal, saturate_irrelevant
from lforge.linalg import rank_over
from lforge.mpoly import PolynomialRing
from lforge.pfaffian import (
    FamilyReport,
    PfaffianError,
    SkewMatrix,
    SkewPresentation,
    deform_family,
    divided_power_section,
    euler_constrained_sample,
    exceptional_locus,
    extend_with_sections,
    family_data,
    family_matrix,
    hypersurface_to_section,
    koszul_solve,
    projection_to_cubics,
    sub_pfaffians,
    unprojection_matrix,
)
from lforge.rng import Rng
from oracles import (
    constant_coefficient,
    det_mod,
    evaluate,
    matrix_det,
    pfaffian_matching_sum,
    section_to_hypersurface,
    skew_matrix_to_text,
)

F17 = GF(17)


def _rand_linear(ring, rng):
    f = ring.zero
    for i in range(ring.nvars):
        f = f + ring.var(i).scale(ring.field.random(rng))
    return f


def _rand_skew_linear(ring, n, rng):
    m = n * (n - 1) // 2
    return SkewMatrix.from_upper(ring, n, [_rand_linear(ring, rng)
                                           for _ in range(m)])


# -- Pfaffian basics ---------------------------------------------------


def test_pfaffian_2x2():
    R = PolynomialRing(F17, ("a",))
    a = R.var(0)
    A = SkewMatrix.from_upper(R, 2, [a])
    assert A.pfaffian() == a


def test_pfaffian_4x4_expansion():
    R = PolynomialRing(F17, ("a", "b", "c", "d", "e", "f"))
    a, b, c, d, e, f = R.gens()
    # upper triangle row-major: a12 a13 a14 a23 a24 a34
    A = SkewMatrix.from_upper(R, 4, [a, b, c, d, e, f])
    assert A.pfaffian() == a * f - b * e + c * d


def test_pfaffian_odd_size_errors():
    R = PolynomialRing(F17, ("a", "b", "c"))
    a, b, c = R.gens()
    A = SkewMatrix.from_upper(R, 3, [a, b, c])
    with pytest.raises(PfaffianError):
        A.pfaffian()
    with pytest.raises(PfaffianError):
        A.adjugate()


def test_skew_constructor_rejects_bad_matrices():
    R = PolynomialRing(F17, ("a", "b"))
    a, b = R.gens()
    with pytest.raises(PfaffianError):
        SkewMatrix(R, [[a, b], [b, R.zero]])  # not skew
    with pytest.raises(PfaffianError):
        SkewMatrix(R, [[a, b], [-b, R.zero]])  # nonzero diagonal
    with pytest.raises(PfaffianError):
        SkewMatrix.from_upper(R, 4, [a, b])  # wrong length


def test_pfaffian_squared_is_det_constant():
    R = PolynomialRing(F17, ("x",))
    rng = Rng(5)
    for n in (2, 4, 6, 8):
        for _ in range(5):
            vals = [rng.randrange(17) for _ in range(n * (n - 1) // 2)]
            A = SkewMatrix.from_upper(
                R, n, [R.one.scale(F17.of(v)) for v in vals])
            pf = constant_coefficient(A.pfaffian())
            M = [[0] * n for _ in range(n)]
            it = iter(vals)
            for i in range(n):
                for j in range(i + 1, n):
                    v = next(it)
                    M[i][j] = v
                    M[j][i] = -v
            assert F17.mul(pf, pf) == F17.of(det_mod(M, 17))


def test_pfaffian_squared_is_det_polynomial():
    R = PolynomialRing(F17, ("x0", "x1", "x2", "x3"))
    rng = Rng(12)
    A = _rand_skew_linear(R, 6, rng)
    pf = A.pfaffian()
    assert pf * pf == matrix_det([list(row) for row in A.entries])


def test_pfaffian_matches_matching_sum_oracle():
    for field, sizes in ((F17, (4, 6, 8)), (QQ, (4, 6))):
        R = PolynomialRing(field, ("x0", "x1", "x2"))
        rng = Rng(3)
        for n in sizes:
            A = _rand_skew_linear(R, n, rng)
            pf = A.pfaffian()
            assert not pf.is_zero()
            assert pf == pfaffian_matching_sum(A)


def test_adjugate_identity():
    R = PolynomialRing(F17, ("x0", "x1", "x2"))
    A = _rand_skew_linear(R, 6, Rng(9))
    pf = A.pfaffian()
    Psi = A.adjugate()
    for i in range(6):
        for k in range(6):
            acc = R.zero
            for j in range(6):
                acc = acc + A[i, j] * Psi[j][k]
            assert acc == (pf if i == k else R.zero)


def test_text_roundtrip():
    R = PolynomialRing(F17, ("x0", "x1", "x2"))
    A = _rand_skew_linear(R, 5, Rng(21))
    B = SkewMatrix.from_text(skew_matrix_to_text(A))
    assert B.n == A.n
    assert all(B[i, j] == A[i, j] for i in range(5) for j in range(5))


# -- sub-Pfaffian ideals ----------------------------------------------


def test_sub_pfaffians_full_size_is_principal():
    R = PolynomialRing(F17, ("x0", "x1", "x2"))
    A = _rand_skew_linear(R, 4, Rng(31))
    I = sub_pfaffians(A, 4)
    assert len(I.gens) == 1
    assert I.gens[0] == A.pfaffian()


def test_sub_pfaffians_size_validation():
    R = PolynomialRing(F17, ("x0", "x1", "x2"))
    A = _rand_skew_linear(R, 4, Rng(32))
    with pytest.raises(PfaffianError):
        sub_pfaffians(A, 3)
    with pytest.raises(PfaffianError):
        sub_pfaffians(A, 6)


@pytest.fixture(scope="module")
def quintic():
    # generic 5x5 linear skew matrix on four-dimensional projective space
    R = PolynomialRing(F17, ("x0", "x1", "x2", "x3", "x4"))
    A = _rand_skew_linear(R, 5, Rng(7))
    P = SkewPresentation(A, 2, 1)
    I = sub_pfaffians(A, 4)
    return R, A, P, I


def test_sub_pfaffians_elliptic_quintic(quintic):
    _, _, _, I = quintic
    assert I.dim_degree() == (1, 5)


# -- Euler-constrained sampling ---------------------------------------


def _euler_check(A, v):
    for k in range(A.n):
        acc = A.ring.zero
        for j in range(A.n):
            acc = acc + v[j] * A[j, k]
        if not acc.is_zero():
            return False
    return True


@pytest.fixture(scope="module")
def euler8():
    R = PolynomialRing(F17, tuple(f"x{i}" for i in range(6)))
    v = list(R.gens()) + [R.zero, R.zero]
    A = euler_constrained_sample(R, 8, v, 1, Rng(2024))
    return R, v, A


def test_euler_sample_8x8(euler8):
    R, v, A = euler8
    assert _euler_check(A, v)
    assert A.solution_dim > 0
    assert saturate_irrelevant(sub_pfaffians(A, 6)).dim_degree() == (2, 6)


def test_euler_sample_pointwise_rank_bound(euler8):
    # v.A = 0 forces a kernel vector at every point off the center,
    # and skew rank is even: rank <= n - 2
    R, v, A = euler8
    rng = Rng(77)
    for _ in range(50):
        pt = [F17.of(rng.randrange(17)) for _ in range(6)]
        if all(c == F17.zero for c in pt):
            continue
        M = [[evaluate(A[i, j], pt) for j in range(8)] for i in range(8)]
        assert rank_over(F17, M) <= 6


def test_euler_sample_10x10_rank_bound():
    R = PolynomialRing(F17, tuple(f"x{i}" for i in range(6)))
    v = list(R.gens()) + [R.zero] * 4
    A = euler_constrained_sample(R, 10, v, 1, Rng(4))
    assert _euler_check(A, v)
    rng = Rng(78)
    for _ in range(100):
        pt = [F17.of(rng.randrange(17)) for _ in range(6)]
        if all(c == F17.zero for c in pt):
            continue
        M = [[evaluate(A[i, j], pt) for j in range(10)] for i in range(10)]
        assert rank_over(F17, M) <= 8


def test_euler_sample_unconstrained():
    R = PolynomialRing(F17, ("x0", "x1", "x2"))
    v = [R.zero] * 4
    A = euler_constrained_sample(R, 4, v, 1, Rng(8))
    # no constraint: every coefficient free
    assert A.solution_dim == 6 * 3
    assert any(not A[i, j].is_zero() for i in range(4) for j in range(4))


def test_euler_sample_zero_solution_space():
    # v . A = 0 with v = (x0, x1) forces A[0, 1] = 0
    R = PolynomialRing(F17, ("x0", "x1"))
    A = euler_constrained_sample(R, 2, R.gens(), 1, Rng(1))
    assert A.solution_dim == 0
    assert all(e.is_zero() for row in A.entries for e in row)


def test_euler_sample_validation():
    R = PolynomialRing(F17, ("x0", "x1", "x2"))
    with pytest.raises(PfaffianError):
        euler_constrained_sample(R, 4, [R.var(0)] * 3, 1, Rng(1))
    with pytest.raises(PfaffianError):
        euler_constrained_sample(R, 4, [R.var(0) ** 2] + [R.zero] * 3, 1,
                                 Rng(1))


# -- presentations and sections ----------------------------------------


def test_presentation_size_validation(euler8):
    R, v, A = euler8
    with pytest.raises(PfaffianError):
        SkewPresentation(A, 2, 1)  # 8 is neither 5 nor 6
    with pytest.raises(PfaffianError):
        SkewPresentation(A, 3, 1)  # padded size without the Euler row
    bad = list(R.gens()) + [R.one, R.zero]
    with pytest.raises(PfaffianError):
        SkewPresentation(A, 3, 1, euler_row=bad)


def test_divided_power_section_3x3():
    R = PolynomialRing(F17, ("a", "b", "c"))
    a, b, c = R.gens()
    A = SkewMatrix.from_upper(R, 3, [a, b, c])  # a=a12, b=a13, c=a23
    P = SkewPresentation(A, 1, 1)
    assert divided_power_section(P) == [c, -b, a]


def test_divided_power_section_complex_condition(quintic):
    R, A, P, I = quintic
    psi = divided_power_section(P)
    for i in range(5):
        acc = R.zero
        for j in range(5):
            acc = acc + A[i, j] * psi[j]
        assert acc.is_zero()
    assert Ideal(R, psi) == I


def test_divided_power_section_even_raises(euler8):
    R, v, A = euler8
    P = SkewPresentation(A, 3, 1, euler_row=v)
    with pytest.raises(PfaffianError):
        divided_power_section(P)


def test_hypersurface_to_section_odd(quintic):
    R, A, P, I = quintic
    psi = divided_power_section(P)
    s = hypersurface_to_section(P, psi[0])
    assert s is not None
    assert section_to_hypersurface(P, s) == psi[0]
    # cubics in the ideal lift too
    h = R.var(0) * I.gens[1] + R.var(3) * I.gens[4]
    s3 = hypersurface_to_section(P, h)
    assert s3 is not None
    assert section_to_hypersurface(P, s3) == h


def test_hypersurface_to_section_negative_control(quintic):
    R, A, P, I = quintic
    assert not I.contains(R.var(0) ** 3)
    assert hypersurface_to_section(P, R.var(0) ** 3) is None


def test_extend_with_sections_cubic_pair(quintic):
    R, A, P, I = quintic
    c1 = R.var(0) * I.gens[0] + R.var(1) * I.gens[2]
    c2 = R.var(2) * I.gens[1] + R.var(4) * I.gens[3]
    s1 = hypersurface_to_section(P, c1)
    s2 = hypersurface_to_section(P, c2)
    ell = _rand_linear(R, Rng(40))
    B = extend_with_sections(P, s1, s2, ell)
    assert B.n == 7
    Y = saturate_irrelevant(sub_pfaffians(B, 6))
    # ascending biliaison: deg Y = deg X + deg(CI of the two cubics)
    assert Y.dim_degree() == (1, 5 + 9)
    # wrong corner degree rejected
    with pytest.raises(PfaffianError):
        extend_with_sections(P, s1, s2, R.var(0) ** 2)


def test_extend_with_sections_degenerate_corner(quintic):
    # quadric hypersurfaces force constant sections and corner degree -1;
    # the extension collapses instead of producing a bilinked locus
    R, A, P, I = quintic
    q1 = I.gens[0] + I.gens[3]
    q2 = I.gens[1] + I.gens[4].scale(F17.of(2))
    s1 = hypersurface_to_section(P, q1)
    s2 = hypersurface_to_section(P, q2)
    assert all(f.is_zero() or f.degree() == 0 for f in s1 + s2)
    B = extend_with_sections(P, s1, s2, R.zero)
    Y = saturate_irrelevant(sub_pfaffians(B, 6))
    dim, deg = Y.dim_degree()
    assert deg != 5 + 4  # liaison degree audit flags the degeneration


# -- unprojection ------------------------------------------------------


@pytest.fixture(scope="module")
def unprojection():
    R6 = PolynomialRing(F17, tuple(f"x{i}" for i in range(6)))
    v = list(R6.gens()) + [R6.zero, R6.zero]
    rng = Rng(2024)
    phi = euler_constrained_sample(R6, 8, v, 1, rng)
    P = SkewPresentation(phi, 3, 1, euler_row=v)
    D6 = sub_pfaffians(phi, 6)
    gens = list(D6.gens)
    c1 = sum((g.scale(F17.of(rng.randrange(17))) for g in gens), R6.zero)
    c2 = sum((g.scale(F17.of(rng.randrange(17))) for g in gens), R6.zero)
    s1 = hypersurface_to_section(P, c1)
    s2 = hypersurface_to_section(P, c2)
    R7 = R6.extend_back(("x6",))
    up = {n: R7.var(i) for i, n in enumerate(R6.names)}

    def lift(f):
        return f.substitute(up) if not f.is_zero() else R7.zero

    phi7 = phi.map_entries(lift, ring=R7)
    v7 = [lift(f) if not f.is_zero() else R7.zero for f in v]
    P7 = SkewPresentation(phi7, 3, 1, euler_row=v7)
    A = unprojection_matrix(P7, [lift(f) for f in s1], [lift(f) for f in s2],
                            R7.var(6))
    X = sub_pfaffians(A, 8)
    return {
        "R6": R6, "R7": R7, "phi": phi, "P": P, "D6": D6,
        "c1": c1, "c2": c2, "s1": s1, "s2": s2, "A": A, "X": X,
    }


def test_section_correspondence_even_padded(unprojection):
    u = unprojection
    R6, P = u["R6"], u["P"]
    for c, s in ((u["c1"], u["s1"]), (u["c2"], u["s2"])):
        assert s is not None
        acc = R6.zero
        for vi, si in zip(P.euler_row, s):
            acc = acc + vi * si
        assert acc.is_zero()
        assert section_to_hypersurface(P, s) == c


def test_hypersurface_to_section_even_negative(unprojection):
    u = unprojection
    R6 = u["R6"]
    bad = R6.var(0) ** 3
    assert not u["D6"].contains(bad)
    assert hypersurface_to_section(u["P"], bad) is None


def test_unprojection_matrix_shape(unprojection):
    A = unprojection["A"]
    assert A.n == 10
    assert A[8, 9] == A.ring.var(6)
    assert all(A[i, j].is_zero() or A[i, j].degree() == 1
               for i in range(A.n) for j in range(A.n))


def test_unprojection_rejects_bad_sections(unprojection):
    u = unprojection
    R7, A = u["R7"], u["A"]
    P7 = SkewPresentation(
        SkewMatrix(R7, [[A[i, j] for j in range(8)] for i in range(8)]),
        3, 1,
        euler_row=list(R7.gens())[:6] + [R7.zero, R7.zero])
    bad = [R7.var(0)] * 8
    with pytest.raises(PfaffianError):
        unprojection_matrix(P7, bad, bad, R7.var(6))


def test_unprojected_threefold(unprojection):
    u = unprojection
    X = saturate_irrelevant(u["X"])
    assert X.dim_degree() == (3, 15)
    # the distinguished point (0:...:0:1) lies on it
    pt = [F17.zero] * 6 + [F17.one]
    assert all(evaluate(g, pt) == F17.zero for g in u["X"].gens)


def test_projection_recovers_cubic_ci(unprojection):
    u = unprojection
    proj = projection_to_cubics(u["X"], 6)
    CI = saturate_irrelevant(Ideal(u["R6"], [u["c1"], u["c2"]]))
    assert proj == CI


def test_exceptional_locus_is_degree6_surface(unprojection):
    u = unprojection
    # the x6-partials of X's generators generate D6 itself, so their
    # saturation, the base locus, is the degree-6 surface
    E = exceptional_locus(u["X"], 6)
    assert E == u["D6"]
    assert saturate_irrelevant(E).dim_degree() == (2, 6)


@pytest.mark.xfail(
    strict=True,
    reason="points of the degree-6 surface do not lie on the unprojected "
    "threefold, so the hyperplane-restriction containment fails; the "
    "exceptional locus is realized by exceptional_locus() instead")
def test_exceptional_locus_hyperplane_containment(unprojection):
    u = unprojection
    R7, R6 = u["R7"], u["R6"]
    up = {n: R7.var(i) for i, n in enumerate(R6.names)}
    lifted = [g.substitute(up) for g in u["D6"].gens]
    big = Ideal(R7, lifted + [R7.var(6)])
    restricted = saturate_irrelevant(u["X"] + Ideal(R7, [R7.var(6)]))
    assert all(big.contains(g) for g in restricted.gens)


# -- Koszul solve and the deformation family ---------------------------


def test_koszul_solve_elementary():
    R = PolynomialRing(F17, tuple(f"x{i}" for i in range(6)))
    xs = list(R.gens())
    a = [xs[1], -xs[0]] + [R.zero] * 4
    B = koszul_solve(a, xs)
    assert B[0][1] == F17.one and B[1][0] == F17.neg(F17.one)
    assert all(B[i][j] == F17.zero for i in range(6) for j in range(6)
               if (i, j) not in ((0, 1), (1, 0)))


def test_koszul_solve_roundtrip():
    R = PolynomialRing(F17, tuple(f"x{i}" for i in range(6)))
    xs = list(R.gens())
    rng = Rng(13)
    B = [[F17.zero] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            c = F17.of(rng.randrange(17))
            B[i][j] = c
            B[j][i] = F17.neg(c)
    a = [sum((xs[j].scale(B[i][j]) for j in range(6)), R.zero)
         for i in range(6)]
    assert koszul_solve(a, xs) == B


def test_koszul_solve_negative():
    R = PolynomialRing(F17, tuple(f"x{i}" for i in range(7)))
    xs = list(R.gens())[:6]
    skew = [xs[1], -xs[0]] + [R.zero] * 4
    for a, ys, message in (
            ([xs[0]] + [R.zero] * 5, xs, "Koszul relation fails"),
            ([xs[1] + R.var(6)] + skew[1:], xs, "variable outside xs"),
            (skew, [xs[0].scale(2)] + xs[1:], "xs must be plain variables")):
        with pytest.raises(PfaffianError, match=message):
            koszul_solve(a, ys)


def test_principal_pfaffians_squared_are_minors_at_points(unprojection):
    # oracle: det_mod of the evaluated submatrix (mod-p elimination only)
    A = unprojection["A"]
    rng = Rng(77)
    for _ in range(3):
        pt = [F17.random(rng) for _ in range(7)]
        M = [[evaluate(A[i, j], pt) for j in range(10)] for i in range(10)]
        for size in (10, 8):
            for idx in itertools.combinations(range(10), size):
                pf = evaluate(A.principal_pfaffian(idx), pt)
                sub = [[M[i][j] for j in idx] for i in idx]
                assert F17.mul(pf, pf) == F17.of(det_mod(sub, 17))


def test_family_matrix_zero_shift_is_the_matrix(unprojection):
    A = unprojection["A"]
    Bp, Dp = family_data(A)
    x6 = A.ring.var(6)
    assert family_matrix(A, Bp, Dp, x6.scale(0)) is A
    shifted = family_matrix(A, Bp, Dp, x6)
    assert shifted is not A and shifted != A


def test_deform_family(unprojection):
    u = unprojection
    A = u["A"]
    Bp, Dp = family_data(A)
    rep = deform_family(A, Bp, Dp, [0, 1, 2])
    assert isinstance(rep, FamilyReport)
    assert rep.euler_verified
    # lambda = 0 reproduces the unprojected threefold
    X = saturate_irrelevant(u["X"])
    H = X.hilbert()
    assert rep.samples[0]["dim"] == 3 and rep.samples[0]["degree"] == 15
    assert rep.samples[0]["hf"] == tuple(H.hf(e) for e in range(9))
    # dimension and degree are constant along the family
    assert rep.constant_coarse()


@pytest.mark.xfail(
    strict=True,
    reason="the lambda=0 sample is the Pfaffian scheme of A_0, not the flat "
    "fiber: its Hilbert polynomial is 1 above the lambda != 0 samples and "
    "it lies on two cubics against three, so only dimension and degree "
    "agree across the samples (the flat fiber is checked in "
    "test_acceptance)")
def test_deform_family_hilbert_function_constant(unprojection):
    u = unprojection
    Bp, Dp = family_data(u["A"])
    rep = deform_family(u["A"], Bp, Dp, [0, 1, 2, 5])
    assert rep.constant()
