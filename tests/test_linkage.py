from functools import partial

import pytest

from lforge import fixtures, linkage
from lforge.fields import GF
from lforge.ideals import Ideal, minors_ideal, quotient
from lforge.linkage import (
    BilinkReport,
    LinkageError,
    bilink_degree18,
    link,
    random_slice_element,
    residual_quotient,
)
from lforge.mpoly import PolynomialRing
from lforge.rng import Rng
from lforge.veronese import ProjectionSpec, project
from oracles import quotient_by_elimination

F17 = GF(17)


def _p3_ring():
    return PolynomialRing(F17, ("x", "y", "z", "w"))


def _twisted_cubic(R):
    x, y, z, w = R.gens()
    return Ideal(R, [x * z - y * y, x * w - y * z, y * w - z * z])


def test_link_twisted_cubic_to_line():
    R = _p3_ring()
    I = _twisted_cubic(R)
    ci = Ideal(R, I.gens[:2])
    step = link(I, ci, 3)
    assert step.deg_in == 3 and step.deg_out == 1
    assert step.ci_degrees == (2, 2)
    # the link's wall time is recorded, and kept out of the content
    assert step.seconds > 0
    assert set(step.as_dict()) == {"ci_degrees", "deg_in", "deg_ci",
                                   "deg_out", "dim"}
    H = step.residual.hilbert()
    # a line: Hilbert polynomial t + 1
    assert [H.hf(e) for e in range(4)] == [1, 2, 3, 4]


def test_link_self_gives_empty_residual():
    R = _p3_ring()
    ci = Ideal(R, _twisted_cubic(R).gens[:2])
    step = link(ci, ci, 1)
    assert step.deg_out == 0
    assert step.residual.dim_degree() == (-1, 0)  # the unit ideal


def test_link_validation():
    R = _p3_ring()
    x, y, z, w = R.gens()
    I = _twisted_cubic(R)
    with pytest.raises(LinkageError):
        link(I, Ideal(R, [x * x, y * y]))  # not contained in I
    with pytest.raises(LinkageError):
        link(I, Ideal(R, [I.gens[0]]))  # codim mismatch


def test_double_link_contains_original():
    R = _p3_ring()
    I = _twisted_cubic(R)
    ci = Ideal(R, I.gens[:2])
    step = link(I, ci, 3)
    back = link(step.residual, ci, 4)
    assert all(back.residual.contains(g) for g in I.gens)
    assert back.residual.dim_degree() == I.dim_degree()


def _random_linear_matrix(R, rows, cols, rng):
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            f = R.zero
            for i in range(R.nvars):
                f = f + R.var(i).scale(F17.of(rng.randrange(17)))
            row.append(f)
        out.append(row)
    return out


def test_random_links_degree_additivity():
    # codim-2 determinantal curves and surfaces linked through (2,2), (2,3)
    rng = Rng(6)
    for names, quad_deg in ((("x", "y", "z", "w"), 2),
                            (("x", "y", "z", "w", "v"), 3)):
        R = PolynomialRing(F17, names)
        for _ in range(3):
            M = _random_linear_matrix(R, 2, 3, rng)
            I = minors_ideal(M, 2, ring=R)
            if I.dim_degree() != (len(names) - 3, 3):
                continue
            q1 = random_slice_element(I, 2, rng)
            q2 = random_slice_element(I, quad_deg, rng)
            step = link(I, Ideal(R, [q1, q2]), rng)
            assert step.deg_in + step.deg_out == 2 * quad_deg


def test_random_slice_element_membership():
    R = _p3_ring()
    I = _twisted_cubic(R)
    f = random_slice_element(I, 4, Rng(2))
    assert f.degree() == 4
    assert I.contains(f)
    with pytest.raises(LinkageError):
        random_slice_element(I, 1, Rng(2))


def slice_by_sums(I, d, rng):
    """Reference for random_slice_element: a sum of the monomial multiples
    of the generators of degree at most d, one draw per multiple."""
    ring, field = I.ring, I.ring.field
    out = ring.zero
    for g in I.gens:
        if g.degree() > d:
            continue
        for m in ring.monomials_of_degree(d - g.degree()):
            c = rng.randrange(field.p)
            if c:
                out = out + ring.from_dict({m: c}) * g
    return out


def test_random_slice_element_matches_sum_of_multiples():
    R = _p3_ring()
    x, y, z, w = R.gens()
    I = Ideal(R, list(_twisted_cubic(R).gens) + [x**3 - y * z * w])
    for d in (2, 3, 4):
        for seed in range(3):
            a, b = Rng(seed), Rng(seed)
            assert random_slice_element(I, d, a) == slice_by_sums(I, d, b)
            assert a.state == b.state


def _twisted_cubic_link():
    I = _twisted_cubic(_p3_ring())
    return Ideal(I.ring, I.gens[:2]), I


def _double_point_link():
    """ci = (x^2, y^2) inside I = (x, y) in F17[x, y, z].  For a linear f in
    I, ci : (f) has degree 2, but the target is 4 - 1 = 3: ci : I is
    (x^2, xy, y^2), the intersection of two colons."""
    R = PolynomialRing(F17, ("x", "y", "z"))
    x, y, _ = R.gens()
    return Ideal(R, [x * x, y * y]), Ideal(R, [x, y])


def _small_link(seed):
    """ci: two binary forms of degree 2 or 3 with no common factor in
    general linear forms u, v of F17[x, y, z]; I: ci plus up to three
    random monomials in u, v.  Both are (u, v)-primary, so ci lies in I and
    the dimensions agree."""
    rng = Rng(seed)
    R = PolynomialRing(F17, ("x", "y", "z"))

    def combination(forms):
        return sum((f.scale(F17.of(rng.randrange(17))) for f in forms),
                   R.zero)

    while True:
        u, v = combination(R.gens()), combination(R.gens())
        da, db = 2 + rng.randrange(2), 2 + rng.randrange(2)
        ci = Ideal(R, [combination([u**i * v**(d - i) for i in range(d + 1)])
                       for d in (da, db)])
        if ci.dim_degree() == (0, da * db):
            break
    mons = [u**rng.randrange(4) * v**rng.randrange(4)
            for _ in range(1 + rng.randrange(3))]
    return ci, ci + Ideal(R, [m for m in mons if m.degree() > 0])


def _count_draws(monkeypatch, draw=None):
    """Wrap (or replace by `draw`) the slice sampler the colon loop calls;
    the returned list grows by one per draw."""
    calls = []
    sample = draw or random_slice_element

    def counted(I, d, rng):
        calls.append(d)
        return sample(I, d, rng)

    monkeypatch.setattr(linkage, "random_slice_element", counted)
    return calls


@pytest.mark.parametrize("case, seed, draws", [
    pytest.param(_twisted_cubic_link, 9, 1, id="twisted-cubic"),
    *[pytest.param(_double_point_link, s, 2, id=f"double-point-{s}")
      for s in range(5)],
    *[pytest.param(partial(_small_link, s), s, None, id=f"small-{s}")
      for s in range(20)],
])
def test_residual_quotient_matches_plain_quotient(monkeypatch, case, seed,
                                                  draws):
    ci, I = case()
    calls = _count_draws(monkeypatch)
    Q = residual_quotient(ci, I, seed)
    assert Q == quotient(ci, I) == quotient_by_elimination(ci, I)
    # the membership oracle the degree identity replaced: Q * I lies in ci
    assert all(ci.contains(q * g) for q in Q.gens for g in I.gens)
    if draws is None:
        # the degree identity, not the fallback, ended the draws
        assert len(calls) < 2 * linkage._MAX_REDRAWS
    else:
        assert len(calls) == draws


def test_residual_quotient_falls_back_after_every_draw(monkeypatch):
    ci, I = _double_point_link()
    x, y, _ = I.ring.gens()
    calls = _count_draws(monkeypatch, lambda I, d, rng: x + y)
    assert residual_quotient(ci, I, 0) == quotient_by_elimination(ci, I)
    assert len(calls) == 2 * linkage._MAX_REDRAWS


@pytest.mark.parametrize("case, seed", [
    pytest.param(_twisted_cubic_link, 9, id="twisted-cubic"),
    pytest.param(_double_point_link, 0, id="double-point"),
    *[pytest.param(partial(_small_link, s), s, id=f"small-{s}")
      for s in range(20)],
])
def test_link_needs_no_buchberger_over_fp(no_fp_buchberger, case, seed):
    ci, I = case()
    step = link(I, ci, seed)
    assert step.deg_in + step.deg_out == step.as_dict()["deg_ci"]


def test_link_falls_back_without_buchberger_over_fp(monkeypatch,
                                                      no_fp_buchberger):
    ci, I = _double_point_link()
    x, y, _ = I.ring.gens()
    _count_draws(monkeypatch, lambda I, d, rng: x + y)
    assert link(I, ci, 0).residual == Ideal(I.ring, [x * x, x * y, y * y])


def test_link_rejects_a_residual_that_fails_the_degree_identity(
        monkeypatch):
    ci, I = _twisted_cubic_link()
    w = I.ring.gens()[3]
    # every colon, in the loop and in the fallback, comes back too big:
    # a point on the residual line instead of the line
    monkeypatch.setattr(linkage, "quotient",
                        lambda A, B: quotient(A, B) + Ideal(A.ring, [w]))
    with pytest.raises(LinkageError, match="residual"):
        link(I, ci, 3)


def _grid_points(R):
    """Three cubics cutting out the 27 points {0, ±1}^3 (w = 1), and the
    ideal of the 9 of them on the plane x = 0."""
    x, y, z, w = R.gens()
    cubics = [v * (v - w) * (v + w) for v in (x, y, z)]
    return cubics, Ideal(R, [x, cubics[1], cubics[2]])


def test_bilink_t8_redraws_the_quartic_after_a_failed_link(monkeypatch):
    R = _p3_ring()
    cubics, I = _grid_points(R)
    calls = []

    def flaky_link(J, ci, seed_or_rng=0):
        calls.append(ci)
        if len(calls) == 2:  # the first try of the second link
            raise LinkageError("injected failure")
        return link(J, ci, seed_or_rng)

    monkeypatch.setattr(linkage, "link", flaky_link)
    rep = linkage.bilink_t8(I, cubics, 5)
    assert len(calls) == 3
    rejected, used = calls[1].gens[2], calls[2].gens[2]
    assert rejected != used and rep.steps[1].ci.gens[2] == used
    assert [s.deg_out for s in rep.steps] == [18, 18]


def test_second_link_gives_up_when_every_draw_lies_in_the_input():
    R = _p3_ring()
    cubics, I = _grid_points(R)
    with pytest.raises(LinkageError, match="generality guard exhausted"):
        linkage._second_link(I, I, cubics[1], cubics[2], 4, 3)


@pytest.fixture(scope="module")
def d9():
    spec = ProjectionSpec(fixtures.n0_matrix(F17), "p2cubics", F17)
    res = project(spec, bound=5)
    cubics = [g for g in res.ideal.gens if g.degree() == 3]
    return res.ideal, cubics


@pytest.mark.slow
def test_bilink_degree18_k4(d9):
    I_D9, cubics = d9
    rep = bilink_degree18(I_D9, cubics[0], cubics[1], 4, 11)
    assert isinstance(rep, BilinkReport)
    assert rep.steps[0].as_dict()["deg_out"] == 27
    assert rep.final.dim_degree() == (2, 18)
    # the degree-18 surface does not contain D9
    assert not all(I_D9.contains(g) for g in rep.final.gens)
    # the h0 count carried through the chain
    assert rep.counts["h0_union"] + 1 == rep.counts["h0_F"]


@pytest.mark.slow
def test_bilink_degree18_k5_chain_independence(d9):
    I_D9, cubics = d9
    rep = bilink_degree18(I_D9, cubics[0], cubics[1], 5, 11)
    assert rep.steps[0].as_dict()["deg_out"] == 36
    assert rep.final.dim_degree() == (2, 18)


@pytest.mark.slow
def test_bilink_degree18_seed_independence(d9):
    I_D9, cubics = d9
    tables = []
    for seed in (11, 12, 13):
        rep = bilink_degree18(I_D9, cubics[0], cubics[1], 4, seed)
        H = rep.final.hilbert()
        tables.append([H.hf(e) for e in range(8)])
    assert tables[0] == tables[1] == tables[2]


class _FirstColon(Exception):
    pass


@pytest.mark.slow
def test_first_d9_link_colon_matches_the_t_trick(monkeypatch, d9):
    # the first colon ci : (f) of the degree-18 chain at seed 11, taken as
    # residual_quotient asks for it
    I_D9, cubics = d9
    colons = []

    def first(A, B):
        colons.append((A, B))
        raise _FirstColon

    monkeypatch.setattr(linkage, "quotient", first)
    with pytest.raises(_FirstColon):
        bilink_degree18(I_D9, cubics[0], cubics[1], 4, 11)
    ci, f = colons[0]
    assert quotient(ci, f) == quotient_by_elimination(ci, f)
