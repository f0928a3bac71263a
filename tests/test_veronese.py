import functools
from itertools import islice

import numpy as np
import pytest

from lforge import fixtures
from lforge.fields import GF, QQ
from lforge.ideals import minors_ideal, multiplication_matrix, ring_map
from lforge.linalg import (
    det_mod,
    matmul_mod,
    nullspace_mod,
    rank_mod,
    rank_over,
)
from lforge.mpoly import PolynomialRing, coefficient_vector
from lforge.rng import Rng
from lforge.snf import PolyMatrix
from lforge.unipoly import UniPoly
from lforge.veronese import (
    ProjectionSpec,
    build_LN,
    catalecticant,
    gamma_tangent_space,
    project,
    secant_avoidance,
    surface_cubics,
    unique_cubic_analysis,
    veronese_map,
)

F17 = GF(17)


P2 = PolynomialRing(F17, ("x", "y", "z"))
P3 = PolynomialRing(F17, ("s0", "s1", "s2", "s3"))


def test_veronese_map_counts():
    assert len(veronese_map(P2, 3)) == 10
    assert len(veronese_map(P3, 2)) == 10
    # only the two maps the projections use
    P5 = PolynomialRing(F17, tuple("abcdef"))
    for ring, d in ((P2, 9), (P3, 3), (P5, 3)):
        with pytest.raises(ValueError):
            veronese_map(ring, d)


def test_veronese_map_plane_cubics_scaled():
    forms = veronese_map(P2, 3)
    x, y, z = P2.gens()
    assert forms == [
        x**3, y**3, z**3, 3 * x**2 * y, 3 * x * y**2, 3 * x**2 * z,
        3 * x * z**2, 3 * y**2 * z, 3 * y * z**2, 6 * x * y * z,
    ]


def test_veronese_map_scaled_sums_to_power():
    # multinomial scaling makes the coordinate sum a power of the linear sum
    R = PolynomialRing(QQ, ("x", "y", "z"))
    forms = veronese_map(R, 3)
    s = sum(R.gens(), R.zero)
    total = R.zero
    for f in forms:
        total = total + f
    assert total == s**3


def test_veronese_quadrics_match_symmetric_matrix():
    forms = veronese_map(P3, 2)
    A = catalecticant("p3quadrics", F17)
    sub = {name: forms[k] for k, name in enumerate(fixtures.P3Q_NAMES)}
    s = P3.gens()
    # entry (i, j) of the symmetric matrix pulls back to s_i * s_j
    for i in range(4):
        for j in range(4):
            assert A[i][j].substitute(sub) == s[i] * s[j]


def test_catalecticant_minors_vanish_on_veronese():
    forms = veronese_map(P2, 3)
    A = catalecticant("p2cubics", F17)
    I = minors_ideal(A, 2)
    sub = {name: forms[k] for k, name in enumerate(fixtures.P9_NAMES)}
    for g in I.gens[:8]:
        assert g.substitute(sub).is_zero()


def test_projection_spec_validation():
    N = [[0] * 6 for _ in range(10)]
    with pytest.raises(ValueError):
        ProjectionSpec(N, "p2cubics", F17)
    with pytest.raises(ValueError):
        ProjectionSpec([[1, 0]] * 3, "nope", F17)


def _random_N(seed, rows=10, cols=6):
    rng = Rng(seed)
    return [[rng.randrange(17) for _ in range(cols)] for _ in range(rows)]


# the corank of L_N, the 55x56 degree-3 matrix of the projection's ring
# map, is the number of cubics through the projected surface: h0[3]


def test_build_LN_special_matrix_corank_two():
    res = project(ProjectionSpec(fixtures.n0_matrix(F17), "p2cubics", F17), 3)
    assert (res.h0[1], res.h0[2], res.h0[3]) == (0, 0, 2)


def test_build_LN_random_corank_one():
    for seed in (1, 2, 3):
        spec = ProjectionSpec(_random_N(seed), "p2cubics", F17)
        assert project(spec, 3).h0[3] == 1


def test_build_LN_random_corank_one_over_qq():
    spec = ProjectionSpec(_random_N(1), "p2cubics", QQ)
    assert project(spec, 3).h0[3] == 1


def _center(field, seed):
    while True:
        try:
            return ProjectionSpec(_random_N(seed), "p2cubics", field)
        except ValueError:
            seed += 1000


def test_kernel_cubics_vanish_on_image():
    # oracle: substitution of the composed forms, and the rank of the
    # degree-3 matrix of the ring map, not the kernel computation
    for spec in (ProjectionSpec(fixtures.n0_matrix(F17), "p2cubics", F17),
                 _center(F17, 7), _center(QQ, 1)):
        cubics = surface_cubics(project(spec, 3))
        composed = spec.composed_forms()
        sub = {n: composed[j] for j, n in enumerate(spec.target_ring.names)}
        for c in cubics:
            assert c.degree() == 3
            assert c.substitute(sub).is_zero()
        mons = spec.target_ring.monomials_of_degree(3)
        assert rank_over(spec.field, [coefficient_vector(c, mons)
                                      for c in cubics]) == len(cubics)
        [(_, L)] = islice(ring_map(composed, spec.target_ring)[1], 3, 4)
        assert len(cubics) == 56 - rank_over(spec.field, L.tolist())


def test_surface_cubics_refuses_lower_degree_kernel():
    # the columns pick x^3, xy^2, xz^2, x^2y, x^2z, xyz: the common factor x
    # drops out, so the image is the quadric Veronese surface, which lies on
    # six quadrics, and its cubic generators are not the degree-3 kernel
    N = [[0] * 6 for _ in range(10)]
    for j, row in enumerate((0, 4, 6, 3, 5, 9)):
        N[row][j] = 1
    res = project(ProjectionSpec(N, "p2cubics", F17), 3)
    assert (res.h0[1], res.h0[2]) == (0, 6)
    with pytest.raises(ValueError, match="quadric"):
        surface_cubics(res)


def test_build_LN_parametric_matches_specializations():
    # entries of L_N(lambda) have degree at most 3 * 2 = 6 < 17, so agreeing
    # at every point of F17 makes the parametric matrix equal, entry by
    # entry, to the one its specializations determine
    rng = Rng(2)
    quadratic = [[UniPoly(F17, [rng.randrange(17) for _ in range(3)])
                  for _ in range(6)] for _ in range(10)]
    nlambda = fixtures.nlambda_matrix(F17)
    # constant entries count as degree 0
    mixed = [[e if (i + j) % 3 else e(5) for j, e in enumerate(row)]
             for i, row in enumerate(nlambda)]
    for P in (nlambda, quadratic, mixed):
        LNp = build_LN(P, F17)
        assert isinstance(LNp, PolyMatrix)
        assert (LNp.nrows, LNp.ncols) == (55, 56)
        assert max(e.degree for row in LNp.entries for e in row) == 3 * max(
            e.degree if isinstance(e, UniPoly) else 0 for row in P for e in row)
        for lam in range(17):
            spec = ProjectionSpec(
                [[e(lam) if isinstance(e, UniPoly) else e for e in row]
                 for row in P], "p2cubics", F17)
            [(_, direct)] = islice(
                ring_map(spec.composed_forms(), spec.target_ring)[1], 3, 4)
            assert [[e(lam) for e in row] for row in LNp.entries] == \
                direct.tolist()
    LNp = build_LN(nlambda, F17)
    for lam, corank in ((0, 2), (1, 1)):
        at = [[e(lam) for e in row] for row in LNp.entries]
        assert 56 - rank_over(F17, at) == corank


def test_project_special_matrix():
    spec = ProjectionSpec(fixtures.n0_matrix(F17), "p2cubics", F17)
    res = project(spec, bound=4)
    assert res.h0[3] == 2
    assert res.ideal.gens  # cubics show up


def test_secant_avoidance_special_center():
    spec = ProjectionSpec(fixtures.n0_matrix(F17), "p2cubics", F17)
    cert = secant_avoidance(spec.center_forms(), spec.secant_ideal())
    assert cert["empty"] is True
    assert cert["dim"] == -1


def test_secant_avoidance_negative_case():
    # projecting from a point ON the secant variety is detected
    R = catalecticant("p2cubics", F17)[0][0].ring
    sec = minors_ideal(catalecticant("p2cubics", F17), 3, ring=R)
    gens = R.gens()
    # center a7 = ... = 0 except a0..a6 free: contains secant points
    cert = secant_avoidance([gens[7], gens[8], gens[9]], sec)
    assert cert["empty"] is False


def _directional_derivative_oracle(M, D, p):
    # coefficient of t in det(M + tD): replace one column at a time
    M = np.asarray(M) % p
    D = np.asarray(D) % p
    total = 0
    for j in range(M.shape[1]):
        T = M.copy()
        T[:, j] = D[:, j]
        total = (total + det_mod(T, p)) % p
    return total


def _det_gradient_rank1(M, p):
    """(u, w, alpha) with adj(M) = alpha * outer(u, w) for a square M of
    corank exactly 1 (u spans ker M, w spans ker M^T), alpha fixed by one
    cofactor; then d/dt det(M + tD) at t = 0 is alpha * w.D.u.  Raises
    ValueError at any other corank."""
    A = np.asarray(M, dtype=np.int64) % p
    ker = nullspace_mod(A, p)
    if ker.shape[1] != 1:
        raise ValueError("matrix does not have corank 1")
    # widened: products of the narrow residues would wrap
    u = ker[:, 0].astype(np.int64)
    w = nullspace_mod(A.T, p)[:, 0].astype(np.int64)
    j = int(np.nonzero(u)[0][0])
    k = int(np.nonzero(w)[0][0])
    # adj(M)[j][k] = (-1)^(j+k) * det(M with row k and column j removed)
    cof = det_mod(np.delete(np.delete(A, k, axis=0), j, axis=1), p)
    cof = cof * (-1) ** (j + k)
    return u, w, cof * pow(int(u[j]) * int(w[k]), p - 2, p) % p


def test_det_gradient_rank1_against_oracle():
    p = 17
    rng = Rng(99)
    for trial in range(10):
        n = 4 + trial % 3
        B = [[rng.randrange(p) for _ in range(n - 1)] for _ in range(n)]
        C = [[rng.randrange(p) for _ in range(n)] for _ in range(n - 1)]
        M = (np.array(B) @ np.array(C)) % p
        try:
            u, w, alpha = _det_gradient_rank1(M, p)
        except ValueError:
            continue  # unlucky rank drop
        D = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        got = alpha * int(w @ (D % p) @ u) % p
        assert got == _directional_derivative_oracle(M, D, p)


def test_det_gradient_rank1_rejects_full_rank():
    with pytest.raises(ValueError):
        _det_gradient_rank1(np.eye(3, dtype=np.int64), 17)


def _cofactor_codimension(spec):
    """The codimension gamma_tangent_space computes, by cofactors: the rank
    of the gradients v -> trace(adj(M_i) dM_i/dv) of the maximal minors M_i
    of L (L without column i), each through its rank-1 adjugate; minors of
    corank >= 2 have a zero adjugate."""
    p = spec.field.p
    target = spec.target_ring
    code = target.code
    (_, E2), (_, L) = islice(ring_map(spec.composed_forms(), target)[1], 2, 4)
    # dL/dN[a, b] = mult_a @ partial[b]: column m of partial[b] is the image
    # of d(m)/dy_b, a quadric, and mult_a multiplies by the cubic v_a; the
    # quadric m / y_b is found by its exponent row, with the ring's index
    partial = np.zeros((6, 28, 56), dtype=np.int64)
    for col, mon in enumerate(target.monomials_of_degree(3)):
        for b, e in enumerate(code.unpack(mon)):
            if e:
                quo = np.array(code.unpack(code.divides(code.var(b), mon)))
                at = target.positions(quo, 2)
                partial[b, :, col] = e * E2[:, at].astype(np.int64) % p
    # widened, like u and w: w @ D @ u would wrap on narrow residues
    dL = [matmul_mod(multiplication_matrix(v, 6, 9), partial[b],
                     p).astype(np.int64)
          for v in spec.forms for b in range(6)]
    gradients = []
    for i in range(56):
        try:
            u, w, alpha = _det_gradient_rank1(np.delete(L, i, axis=1), p)
        except ValueError:
            continue
        gradients.append([alpha * int(w @ np.delete(D, i, axis=1) @ u) % p
                          for D in dL])
    return rank_mod(gradients, p) if gradients else 0


@functools.cache
def _corank_two_centers():
    """The first five seeded centers on the corank-2 stratum."""
    rng = Rng(2024)
    found = []
    while len(found) < 5:
        N = _random_N(rng.randrange(10 ** 6))
        if project(ProjectionSpec(N, "p2cubics", F17), 3).h0[3] == 2:
            found.append(N)
    return found


@pytest.mark.parametrize("center", ["n0", 0, 1, 2, 3, 4, "corank7"])
def test_gamma_tangent_space_matches_cofactor_route(center):
    if center == "n0":
        N = fixtures.n0_matrix(F17)
    elif center == "corank7":
        # x^3, y^3, z^3, x^2y, xz^2, y^2z: every minor has corank >= 2
        N = [[int(r == c) for c in (0, 1, 2, 3, 6, 7)] for r in range(10)]
    else:
        N = _corank_two_centers()[center]
    spec = ProjectionSpec(N, "p2cubics", F17)
    assert gamma_tangent_space(spec) == _cofactor_codimension(spec)


def test_gamma_tangent_space_special_matrix():
    spec = ProjectionSpec(fixtures.n0_matrix(F17), "p2cubics", F17)
    assert gamma_tangent_space(spec) == 1


def test_gamma_tangent_space_rejects_generic():
    with pytest.raises(ValueError):
        gamma_tangent_space(ProjectionSpec(_random_N(5), "p2cubics", F17))


def test_unique_cubic_generic_pencil_member():
    P = fixtures.nlambda_matrix(F17)
    N1 = [[e(1) for e in row] for row in P]
    out = unique_cubic_analysis(ProjectionSpec(N1, "p2cubics", F17))
    assert out["dim"] == 1
    assert out["degree"] == 6
    assert out["nondegenerate"] is True
    assert out["proper"] is True


def test_unique_cubic_rejects_corank_two():
    with pytest.raises(ValueError):
        unique_cubic_analysis(
            ProjectionSpec(fixtures.n0_matrix(F17), "p2cubics", F17))
