import pytest

from lforge import fixtures
from lforge.fields import GF
from lforge.ideals import Ideal, minors_ideal
from lforge.linkage import (
    BilinkReport,
    LinkageError,
    bilink_degree18,
    liaison_invariants,
    link,
    random_slice_element,
    residual_quotient,
)
from lforge.mpoly import PolynomialRing
from lforge.rng import Rng
from lforge.veronese import ProjectionSpec, project

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
    H = step.residual.hilbert()
    # a line: Hilbert polynomial t + 1
    assert [H.hf(e) for e in range(4)] == [1, 2, 3, 4]
    assert liaison_invariants(step)["ok"]


def test_link_self_gives_empty_residual():
    R = _p3_ring()
    ci = Ideal(R, _twisted_cubic(R).gens[:2])
    step = link(ci, ci, 1)
    assert step.deg_out == 0
    assert step.residual.is_empty()


def test_link_validation():
    R = _p3_ring()
    x, y, z, w = R.gens()
    I = _twisted_cubic(R)
    with pytest.raises(LinkageError):
        link(I, Ideal(R, [x * x, y * y]))  # not contained in I
    with pytest.raises(LinkageError):
        link(I, Ideal(R, [I.gens[0]]))  # codim mismatch


def test_liaison_invariants_flags_corruption():
    R = _p3_ring()
    I = _twisted_cubic(R)
    step = link(I, Ideal(R, I.gens[:2]), 3)
    step.deg_out = 2  # corrupt the bookkeeping
    audit = liaison_invariants(step)
    assert not audit["degree_additivity"]
    assert not audit["ok"]


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
            assert liaison_invariants(step)["ok"]


def test_random_slice_element_membership():
    R = _p3_ring()
    I = _twisted_cubic(R)
    f = random_slice_element(I, 4, Rng(2))
    assert f.degree() == 4
    assert I.contains(f)
    with pytest.raises(LinkageError):
        random_slice_element(I, 1, Rng(2))


def test_residual_quotient_matches_plain_quotient():
    from lforge.ideals import quotient

    R = _p3_ring()
    I = _twisted_cubic(R)
    ci = Ideal(R, I.gens[:2])
    assert residual_quotient(ci, I, 9) == quotient(ci, I)


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
    assert all(rep.flags.values())
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
