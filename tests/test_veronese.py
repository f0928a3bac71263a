import numpy as np
import pytest

from lforge import fixtures
from lforge.fields import GF, QQ
from lforge.ideals import minors_ideal
from lforge.linalg import det_mod
from lforge.rng import Rng
from lforge.unipoly import UniPoly
from lforge.veronese import (
    LNMatrix,
    ProjectionSpec,
    build_LN,
    catalecticant,
    det_gradient_rank1,
    gamma_tangent_space,
    project,
    secant_avoidance,
    unique_cubic_analysis,
    veronese_map,
)

F17 = GF(17)


def test_veronese_map_counts():
    assert len(veronese_map(2, 3)) == 10
    assert len(veronese_map(3, 2)) == 10
    assert len(veronese_map(2, 9)) == 55
    assert len(veronese_map(5, 3)) == 56


def test_veronese_map_plane_cubics_scaled():
    forms = veronese_map(2, 3, scaled=True)
    R = forms[0].ring
    x, y, z = R.gens()
    assert forms == [
        x**3, y**3, z**3, 3 * x**2 * y, 3 * x * y**2, 3 * x**2 * z,
        3 * x * z**2, 3 * y**2 * z, 3 * y * z**2, 6 * x * y * z,
    ]


def test_veronese_map_scaled_sums_to_power():
    # multinomial scaling makes the coordinate sum a power of the linear sum
    forms = veronese_map(3, 4, scaled=True, field=QQ)
    R = forms[0].ring
    s = sum(R.gens(), R.zero)
    total = R.zero
    for f in forms:
        total = total + f
    assert total == s**4


def test_veronese_quadrics_match_symmetric_matrix():
    forms = veronese_map(3, 2, scaled=True)
    R = forms[0].ring
    A = catalecticant("p3quadrics", F17)
    sub = {name: forms[k] for k, name in enumerate(fixtures.P3Q_NAMES)}
    s = R.gens()
    # entry (i, j) of the symmetric matrix pulls back to s_i * s_j
    for i in range(4):
        for j in range(4):
            assert A[i][j].substitute(sub) == s[i] * s[j]


def test_catalecticant_minors_vanish_on_veronese():
    forms = veronese_map(2, 3, scaled=True)
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


def test_build_LN_special_matrix_corank_two():
    LN = build_LN(fixtures.n0_matrix(F17), F17)
    assert (LN.nrows, LN.ncols) == (55, 56)
    assert LN.corank() == 2


def test_build_LN_random_corank_one():
    for seed in (1, 2, 3):
        LN = build_LN(_random_N(seed), F17)
        assert LN.corank() == 1


def test_build_LN_random_corank_one_over_qq():
    spec = ProjectionSpec(_random_N(1), "p2cubics", QQ)
    assert build_LN(spec.N, QQ).corank() == 1


def test_kernel_cubics_vanish_on_image():
    N0 = fixtures.n0_matrix(F17)
    spec = ProjectionSpec(N0, "p2cubics", F17)
    LN = build_LN(N0, F17)
    cubics = LN.kernel_cubics(spec.target_ring)
    assert len(cubics) == 2
    composed = spec.composed_forms()
    sub = {n: composed[j] for j, n in enumerate(spec.target_ring.names)}
    for c in cubics:
        assert c.substitute(sub).is_zero()


def test_build_LN_parametric_matches_specializations():
    # entries of L_N(lambda) have degree at most 3 * 2 = 6 < 17, so agreeing
    # at every point of F17 makes the parametric matrix equal, entry by
    # entry, to the one its specializations determine
    rng = Rng(2)
    quadratic = [[UniPoly(F17, [rng.randrange(17) for _ in range(3)])
                  for _ in range(6)] for _ in range(10)]
    for P in (fixtures.nlambda_matrix(F17), quadratic):
        LNp = build_LN(P, F17)
        assert LNp.parametric
        assert max(e.degree for row in LNp.entries for e in row) == \
            3 * max(e.degree for row in P for e in row)
        for lam in range(17):
            direct = build_LN([[e(lam) for e in row] for row in P], F17)
            assert LNp.at(lam).entries == direct.entries
    LNp = build_LN(fixtures.nlambda_matrix(F17), F17)
    assert LNp.at(0).corank() == 2
    assert LNp.at(1).corank() == 1


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


def test_det_gradient_rank1_against_oracle():
    p = 17
    rng = Rng(99)
    for trial in range(10):
        n = 4 + trial % 3
        B = [[rng.randrange(p) for _ in range(n - 1)] for _ in range(n)]
        C = [[rng.randrange(p) for _ in range(n)] for _ in range(n - 1)]
        M = (np.array(B) @ np.array(C)) % p
        try:
            u, w, alpha = det_gradient_rank1(F17, M)
        except ValueError:
            continue  # unlucky rank drop
        D = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        got = alpha * int(w @ (D % p) @ u) % p
        assert got == _directional_derivative_oracle(M, D, p)


def test_det_gradient_rank1_rejects_full_rank():
    with pytest.raises(ValueError):
        det_gradient_rank1(F17, np.eye(3, dtype=np.int64))


def test_gamma_tangent_space_special_matrix():
    assert gamma_tangent_space(fixtures.n0_matrix(F17), F17) == 1


def test_gamma_tangent_space_rejects_generic():
    with pytest.raises(ValueError):
        gamma_tangent_space(_random_N(5), F17)


def test_unique_cubic_generic_pencil_member():
    P = fixtures.nlambda_matrix(F17)
    N1 = [[e(1) for e in row] for row in P]
    out = unique_cubic_analysis(N1, F17)
    assert out["dim"] == 1
    assert out["degree"] == 6
    assert out["nondegenerate"] is True
    assert out["proper"] is True


def test_unique_cubic_rejects_corank_two():
    with pytest.raises(ValueError):
        unique_cubic_analysis(fixtures.n0_matrix(F17), F17)
