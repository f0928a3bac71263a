"""End-to-end acceptance gate.

One test (or test group) per published acceptance criterion, numbered in
the comments.  Four criteria are asserted in the reading that exact
arithmetic proves, each backed by a witness that shares no code with the
computation it checks (the comment above each test names it):

- 3: Sing(Y) of the special pencil is reduced of degree 61, the 60 points
  on the projected surface plus one F17-rational point q off it; q is
  checked by plain evaluation and a scan of P^2(F17).
- 4: the degree-18 surface meets D9 in the 60 points of Sing(Y) on D9,
  not in all of Sing(Y); the witness for q is the one of criterion 3.
- 5: the special center's deficiency module is (0, 4, 7, 1), forced by
  h^1(I(3)) = h^0(I(3)) - 1 and the two cubics through the surface; the
  stated (0, 4, 7, 0) is asserted on a general center.
- 10: the Hilbert data are constant on the flat family; its special fiber
  is rebuilt from the Pfaffians and their first-order lifts, and is not
  the Pfaffian scheme of A_0 that the report samples at lambda = 0.

The experiment reports keep their FAIL lines for the stated values.  Long
chains (criteria 4 and 9) are gated behind LFORGE_ALLOW_LONG=1.
"""

import itertools
import time
from math import comb, prod

import numpy as np
import pytest

from lforge import fixtures, linalg
from lforge.experiments import Context, run_experiment
from lforge.fields import GF
from lforge.groebner import buchberger, normal_form
from lforge.ideals import Ideal, saturate_irrelevant
from lforge.linkage import link, random_slice_element
from lforge.mpoly import PolynomialRing, coefficient_vector
from lforge.pfaffian import (
    SkewMatrix,
    SkewPresentation,
    euler_constrained_sample,
    family_data,
    family_matrix,
    hypersurface_to_section,
    sub_pfaffians,
    unprojection_matrix,
)
from lforge.rao import RaoModule, graded_betti
from lforge.rng import Rng
from lforge.snf import PolyMatrix, smith_normal_form, unipoly_factor_ff
from lforge.unipoly import UniPoly
from lforge.veronese import ProjectionSpec, project, surface_cubics

F17 = GF(17)

_suite_seconds = {}


def _timed(key):
    class _T:
        def __enter__(self):
            self.t0 = time.time()
            return self

        def __exit__(self, *exc):
            _suite_seconds[key] = time.time() - self.t0
    return _T()


# -- 1. cubic-count dichotomy ------------------------------------------


def test_cubic_count_dichotomy():
    with _timed("dichotomy"):
        rep = run_experiment("d9-generic")
        assert rep.results["coranks"] == [1] * 20
        spec = ProjectionSpec(fixtures.n0_matrix(F17), "p2cubics", F17)
        assert project(spec, 3).h0[3] == 2
    assert _suite_seconds["dichotomy"] <= 60


# -- 2. secant avoidance ------------------------------------------------


def test_secant_avoidance_both_cases():
    with _timed("secant"):
        rep = run_experiment("d9-secant-cases")
    assert rep.passed
    assert _suite_seconds["secant"] <= 120  # two cases, a minute each


# -- 3. singular locus of the cubic pencil ------------------------------


@pytest.fixture(scope="module")
def d9_special_report():
    return run_experiment("d9-special")


def test_pencil_is_a_cubic_ci(d9_special_report):
    by = {a["label"]: a for a in d9_special_report.assertions}
    assert by["corank(L_N0) == 2"]["ok"]
    assert by["Y is a (3, 9) complete intersection"]["ok"]


# The one singular point of Y off the surface; it is F17-rational.
Q_OFF_SURFACE = (0, 1, 8, 11, 14, 5)


def _normalize(v):
    """Projective point mod 17 with its first nonzero coordinate 1."""
    v = [a % 17 for a in v]
    inv = pow(next(a for a in v if a), 15, 17)
    return tuple(a * inv % 17 for a in v)


def _plane_images():
    """Images of the 307 points of P^2(F17) under the special center's six
    composed cubics, in plain integer arithmetic: the scaled cubic Veronese
    (x^3, y^3, z^3, 3x^2y, 3xy^2, 3x^2z, 3xz^2, 3y^2z, 3yz^2, 6xyz) times
    the pinned 10x6 matrix N0."""
    N = [[int(e) for e in row] for row in fixtures.n0_matrix(F17)]
    pts = ([(1, a, b) for a in range(17) for b in range(17)]
           + [(0, 1, b) for b in range(17)] + [(0, 0, 1)])
    out = []
    for x, y, z in pts:
        ver = (x**3, y**3, z**3, 3 * x * x * y, 3 * x * y * y,
               3 * x * x * z, 3 * x * z * z, 3 * y * y * z, 3 * y * z * z,
               6 * x * y * z)
        out.append(tuple(sum(ver[i] * N[i][j] for i in range(10)) % 17
                         for j in range(6)))
    return out


# Sing(Y) is reduced of degree 61 and 60 of its points lie on the surface.
# Witness for the 61st: q is singular on Y (both cubics vanish at q, and
# the 2x6 Jacobian has rank 1 there) and off the surface.  The projection
# is injective (secant avoidance), so a rational point of the surface has a
# rational preimage; no point of P^2(F17) maps to q.  Hence
# Sing(Y) = (60 surface points) + {q}.
def test_pencil_singular_locus(d9_special_report):
    rep = d9_special_report
    by = {a["label"]: a for a in rep.assertions}
    assert by["Sing(Y) is zero-dimensional"]["ok"]
    assert by["Sing(Y) is reduced"]["ok"]
    assert rep.results["singY_dim_degree"] == [0, 61]
    assert rep.results["singY_on_surface"] == [0, 60]

    spec = ProjectionSpec(fixtures.n0_matrix(F17), "p2cubics", F17)
    cubics = surface_cubics(project(spec, 3))
    q = [F17.of(c) for c in Q_OFF_SURFACE]
    assert [int(c.evaluate(q)) for c in cubics] == [0, 0]
    jac = [[int(d.evaluate(q)) for d in c.partials()] for c in cubics]
    assert any(jac[0]) or any(jac[1])
    assert all((jac[0][i] * jac[1][j] - jac[0][j] * jac[1][i]) % 17 == 0
               for i, j in itertools.combinations(range(6), 2))

    images = _plane_images()
    assert all(any(v) for v in images)  # the center misses the Veronese
    images = {_normalize(v) for v in images}
    assert len(images) == 307  # injective on rational points
    assert _normalize(Q_OFF_SURFACE) not in images


# -- 4. bilinkage chain to degree 18 --------------------------------------


def test_bilinkage_chain_degree18(no_fp_buchberger):
    rep = run_experiment("d9-bilinkage-18")
    by = {a["label"]: a for a in rep.assertions}
    assert by["intermediate degree 27"]["ok"]
    assert by["final surface has degree 18"]["ok"]
    assert by["final surface does not contain D9"]["ok"]
    assert by["Hilbert function matches the liaison prediction"]["ok"]
    assert by["D9 meets S0 in the part of Sing(Y) on the surface"]["ok"]
    # Sing(Y) is the 60 surface points plus q (test_pencil_singular_locus
    # holds the witness for q), so the meet is exactly those 60 points
    assert rep.results["meet_dim_degree"] == [0, 60]
    assert {"link1", "link2"} <= set(rep.timings)
    assert rep.content_hash() == (
        "1324299dba1994e2a26fc93556de3121d64a8a74f458031f24eb21cd63aae7b1")


# -- 5. deficiency module -----------------------------------------------


@pytest.fixture(scope="module")
def n0_module():
    spec = ProjectionSpec(fixtures.n0_matrix(F17), "p2cubics", F17)
    return RaoModule.from_projection(spec, kmax=4, certify=True)


@pytest.fixture(scope="module")
def rao_betti_report():
    return run_experiment("rao-betti")


def _h0_surface_ideal(k):
    """h^0(I_D(k)) for the special center's surface D, k <= 5: the number
    of independent degree-k forms vanishing at the images of P^2(F17).  A
    form of degree 3k <= 17 vanishing on all of P^2(F17) is zero, so that
    is the same as vanishing on D."""
    mons = list(itertools.combinations_with_replacement(range(6), k))
    rows = [[prod(v[i] for i in m) % 17 for m in mons]
            for v in _plane_images()]
    return len(mons) - linalg.rank_mod(np.array(rows, dtype=np.int64), 17)


# Grade k of the module is h^1(I_D(k)).  The cohomology sequence of
# 0 -> I_D -> O_P5 -> O_D -> 0, with D = P^2 and O_D(1) = O_P2(3), gives
# h^1(I_D(k)) = C(3k+2, 2) - C(k+5, 5) + h^0(I_D(k)) for every center.
# Witness: h^0(I_D(k)) by evaluation at rational points, with h^0(I_D(3))
# cross-checked against the corank that project reads off its kernel.  The special center lies on two
# cubics, so grade 3 is 55 - 56 + 2 = 1; a general center lies on one,
# and its module is the stated (0, 4, 7, 0).
def test_deficiency_module_hilbert_values(n0_module, rao_betti_report):
    h0 = [_h0_surface_ideal(k) for k in range(4)]
    spec = ProjectionSpec(fixtures.n0_matrix(F17), "p2cubics", F17)
    assert h0[3] == project(spec, 3).h0[3] == 2
    identity = [comb(3 * k + 2, 2) - comb(k + 5, 5) + h0[k]
                for k in range(4)]
    assert identity == [0, 4, 7, 1]
    assert n0_module.hilbert_values(range(4)) == identity
    assert rao_betti_report.results["general_hilbert"][:4] == [0, 4, 7, 0]


def test_deficiency_module_presentation(n0_module):
    pres = graded_betti(n0_module, hom_bound=1)
    assert pres.complete
    assert pres.column(0) == {-1: 4}


def test_deficiency_module_betti_comparison_report(rao_betti_report):
    rep = rao_betti_report
    by = {a["label"]: a for a in rep.assertions}
    assert by["Betti table completes through homological degree 2"]["ok"]
    assert by["4 generators at the displayed twist"]["ok"]
    cmp = rep.results["betti_comparison"]
    # the displayed-table comparison is emitted; mismatches are reported,
    # not failed
    assert "all_match" in cmp and "mismatches" in cmp


def test_deficiency_module_full_betti_table():
    # stretch goal: the full resolution, within an hour
    t0 = time.time()
    rng = Rng(1)
    while True:
        N = [[rng.randrange(17) for _ in range(6)] for _ in range(10)]
        try:
            spec = ProjectionSpec(N, "p2cubics", F17)
            break
        except ValueError:
            continue
    mod = RaoModule.from_projection(spec, kmax=4, certify=False)
    tab = graded_betti(mod, hom_bound=6, deg_bound=12)
    assert tab.complete
    assert tab.alternating_rank_sum() == 0
    assert time.time() - t0 <= 3600


# -- 6. Smith normal form of the parametric matrix ----------------------


def test_parametric_matrix_snf():
    with _timed("snf"):
        rep = run_experiment("ln-snf")
    assert rep.passed
    assert rep.results["p_degree"] == 150
    assert rep.content_hash() == (
        "bb7a024d2793607698659e15528c57824d024d0f854aa180a96d2d94f1c0ce8a")
    assert _suite_seconds["snf"] <= 600


# -- 7. tangent space of the corank-2 stratum ---------------------------


def test_stratum_tangent_codimension():
    with _timed("tangent"):
        rep = run_experiment("gamma-tangent")
    assert rep.passed
    assert rep.results["codim"] == 1
    assert _suite_seconds["tangent"] <= 1800


# -- 8. singular curve of the generic cubic -----------------------------


def test_generic_cubic_singular_curve():
    rep = run_experiment("unique-cubic")
    assert rep.passed
    assert rep.results["sing_dim_degree"] == [1, 6]


# -- 9. degree-8 threefold chain (stretch) -------------------------------


def test_t8_chain_to_degree17(no_fp_buchberger):
    rep = run_experiment("t8-bilinkage-17")
    by = {a["label"]: a for a in rep.assertions}
    assert by["three independent cubics"]["ok"]
    assert by["generic projection has no cubics and 45 quartics"]["ok"]
    assert by["intermediate degree 19"]["ok"]
    assert by["final degree 17"]["ok"]
    assert {"link1", "link2"} <= set(rep.timings)
    assert rep.content_hash() == (
        "8b913a12124f9a15fae760cba99f011d485455f3b50d0a636d328393c9a08e81")


# -- 10. unprojection and the deformation family --------------------------


@pytest.fixture(scope="module")
def unprojection_report():
    return run_experiment("d6-unprojection-15")


def test_unprojection_euler_and_degree(unprojection_report):
    by = {a["label"]: a for a in unprojection_report.assertions}
    assert by["deformed Euler relation holds symbolically"]["ok"]
    assert by["unprojected threefold is (3, 15)"]["ok"]


def test_unprojection_elimination(unprojection_report):
    by = {a["label"]: a for a in unprojection_report.assertions}
    assert by["eliminating the new variable recovers the cubic pencil"]["ok"]
    assert by["exceptional locus is the degree-6 surface"]["ok"]


def _d6_unprojection_matrix():
    """The 10x10 unprojection matrix A, built as d6-unprojection-15 builds
    it at its default seed."""
    ctx = Context(2024, F17)
    R6 = PolynomialRing(F17, tuple(f"x{i}" for i in range(6)))
    v = list(R6.gens()) + [R6.zero, R6.zero]
    rng = ctx.rng("phi")
    phi = euler_constrained_sample(R6, 8, v, 1, rng)
    P = SkewPresentation(phi, 3, 1, euler_row=v)
    gens = list(sub_pfaffians(phi, 6).gens)
    c1 = sum((g.scale(F17.of(rng.randrange(17))) for g in gens), R6.zero)
    c2 = sum((g.scale(F17.of(rng.randrange(17))) for g in gens), R6.zero)
    s1 = hypersurface_to_section(P, c1)
    s2 = hypersurface_to_section(P, c2)
    R7 = R6.extend_back(("x6",))
    up = {n: R7.var(i) for i, n in enumerate(R6.names)}

    def lift(f):
        return f.substitute(up) if not f.is_zero() else R7.zero

    P7 = SkewPresentation(phi.map_entries(lift, ring=R7), 3, 1,
                          euler_row=[lift(f) for f in v])
    return unprojection_matrix(P7, [lift(f) for f in s1],
                               [lift(f) for f in s2], R7.var(6))


def _flat_special_fiber(A):
    """Saturated ideal of the flat limit at lambda = 0 of V(Pf_8(A_lambda)).

    Every relation sum c_i Pf_i(A_0) = 0 among the 8x8 Pfaffians gives
    sum c_i Pf_i(A_lambda) = lambda * q(lambda) in the family ideal, so
    q(0) = sum c_i dPf_i/dlambda at 0 lies in the flat limit; so does
    Pf_8(A_0).  Everything here is homogeneous in x0..x6.
    """
    R7 = A.ring
    L = R7.extend_back(("lam",))
    Bp, Dp = family_data(A)
    pfs = sub_pfaffians(family_matrix(A, Bp, Dp, L.var(7) * L.var(6)),
                        8).gens
    at0 = {n: R7.var(i) for i, n in enumerate(R7.names)}
    at0["lam"] = R7.zero
    pf0 = [f.substitute(at0) for f in pfs]
    dpf0 = [f.partials()[7].substitute(at0) for f in pfs]
    basis = R7.monomials_of_degree(4)
    coeffs = np.array([coefficient_vector(f, basis) for f in pf0],
                      dtype=np.int64).T % 17
    lifts = [sum((d.scale(int(c)) for c, d in zip(rel, dpf0)), R7.zero)
             for rel in linalg.nullspace_mod(coeffs, 17).T]
    return saturate_irrelevant(Ideal(R7, pf0 + lifts))


# Hilbert polynomials are constant in a flat family.  The report samples
# V(Pf_8(A_lambda)), which at lambda = 0 is not the flat fiber: every 8x8
# Pfaffian of A_0 vanishes at (0:...:0:1), where the saturated Pfaffian
# ideal carries excess length 1.  Witness: the flat special fiber, which
# lies in the flat limit and has the Hilbert data of the lambda = 1, 2, 5
# samples, so it is the flat limit and the criterion holds on the family.
def test_unprojection_family_hilbert_data(unprojection_report):
    rep = unprojection_report
    by = {a["label"]: a for a in rep.assertions}
    assert by["dimension and degree constant along the family"]["ok"]
    fam = rep.results["family"]

    A = _d6_unprojection_matrix()
    X = sub_pfaffians(A, 8)
    # guard: the rebuilt matrix is the report's
    assert tuple(X.hilbert().hf(e) for e in range(9)) == fam["0"]["hf_raw"]
    S = saturate_irrelevant(X)
    assert list(S.dim_degree()) == rep.results["X_dim_degree"]

    H = _flat_special_fiber(A).hilbert()
    flat = {"dim": H.dim, "degree": H.degree,
            "hp": tuple(H.hilbert_polynomial_value(e) for e in range(9)),
            "hf": tuple(H.hf(e) for e in range(9))}
    for lam in ("1", "2", "5"):
        assert flat == {k: fam[lam][k] for k in flat}
    # the lambda = 0 sample exceeds the flat fiber by length 1
    HS = S.hilbert()
    assert all(HS.hilbert_polynomial_value(e) - flat["hp"][e] == 1
               for e in range(9))


# -- 11. always-on property suites (<= 2 min total) -----------------------


def test_property_pfaffian_squares_to_determinant():
    with _timed("prop_pf"):
        rng = Rng(11)
        R1 = PolynomialRing(F17, ("t",))
        for _ in range(1000):
            n = 2 * (1 + rng.randrange(5))  # even, <= 10
            vals = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    c = rng.randrange(17)
                    vals[i][j] = c
                    vals[j][i] = (-c) % 17
            A = SkewMatrix(R1, [[R1.const(F17.of(v)) for v in row]
                                for row in vals])
            pf = A.pfaffian().constant_coefficient()
            det = linalg.det_mod(np.asarray(vals), 17)
            assert pf * pf % 17 == det


def test_property_groebner_membership_oracle():
    with _timed("prop_gb"):
        R3 = PolynomialRing(F17, ("x", "y", "z"))
        rng = Rng(2025)
        for trial in range(50):
            gens = [R3.random_form(rng.randrange(1, 4),
                                   rng.fork(trial * 7 + k))
                    for k in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            G = buchberger(gens)
            d = rng.randrange(1, 5)
            f = R3.random_form(d, rng.fork(90000 + trial))
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


def _linkage_additivity(ring, start, degs, rng):
    ci = Ideal(ring, [random_slice_element(start, d, rng) for d in degs])
    res = link(start, ci, rng).residual
    total = 1
    for d in degs:
        total *= d
    assert start.dim_degree()[1] + res.dim_degree()[1] == total


def test_property_liaison_degree_additivity():
    with _timed("prop_link"):
        R4 = PolynomialRing(F17, ("x", "y", "z", "w"))
        x, y, z, w = R4.gens()
        cubic = Ideal(R4, [x * z - y * y, x * w - y * z, y * w - z * z])
        line = Ideal(R4, [x, y])
        R5 = PolynomialRing(F17, ("x", "y", "z", "w", "v"))
        plane = Ideal(R5, [R5.var(0), R5.var(1)])
        for seed in range(5):
            rng = Rng(seed)
            _linkage_additivity(R4, cubic, (2, 2), rng)
            _linkage_additivity(R4, line, (2, 3), rng)
            _linkage_additivity(R5, plane, (2, 2), rng)
            _linkage_additivity(R5, plane, (2, 3), rng)


def test_property_snf_chains_and_transforms():
    with _timed("prop_snf"):
        rng = Rng(6)
        for _ in range(100):
            n = 1 + rng.randrange(6)
            m = 1 + rng.randrange(6)
            M = PolyMatrix(
                [[UniPoly(F17, [rng.randrange(17)
                                for _ in range(rng.randrange(4))])
                  for _ in range(m)] for _ in range(n)])
            # verify=True re-checks S1 M S2 = D and the divisibility chain
            res = smith_normal_form(M, verify=True)
            assert res.verified
            diag = res.diagonal()
            for a, b in zip(diag, diag[1:]):
                if not b.is_zero():
                    assert not a.is_zero()
                    assert b.divmod(a)[1].is_zero()


def test_property_factorization_roundtrip():
    with _timed("prop_cz"):
        rng = Rng(9)
        one = UniPoly.one(F17)
        for _ in range(1000):
            deg = 1 + rng.randrange(30)
            f = UniPoly(F17, [rng.randrange(17) for _ in range(deg)] + [
                1 + rng.randrange(16)])
            factors = unipoly_factor_ff(f)
            back = one
            for g, mult in factors:
                back = back * g ** mult
            assert back == f.monic()


def test_property_rao_action_commutativity():
    with _timed("prop_rao"):
        for seed in (2, 12):
            rng = Rng(seed)
            while True:
                N = [[rng.randrange(17) for _ in range(6)]
                     for _ in range(10)]
                try:
                    spec = ProjectionSpec(N, "p2cubics", F17)
                    break
                except ValueError:
                    continue
            mod = RaoModule.from_projection(spec, kmax=3, certify=False)
            assert mod.commutes()


def test_property_suites_within_budget():
    total = sum(v for k, v in _suite_seconds.items()
                if k.startswith("prop_"))
    assert len([k for k in _suite_seconds if k.startswith("prop_")]) == 6
    assert total <= 120, f"property suites took {total:.1f}s"
