import json

import numpy as np
import pytest

from lforge import fixtures
from lforge.fields import GF
from lforge.ideals import Ideal
from lforge.linalg import rank_mod
from lforge.linkage import link, random_slice_element
from lforge.mpoly import PolynomialRing, coefficient_vector
from lforge.rao import (
    BettiTable,
    RaoError,
    RaoModule,
    ci_hilbert_value,
    graded_betti,
    linked_hilbert_check,
    rao_hilbert,
    rao_presentation,
)
from lforge.rng import Rng
from lforge.veronese import ProjectionSpec

F17 = GF(17)

# the displayed resolution of the general module under the natural
# two-row reading (known to be ambiguous; comparison is reported)
EXPECTED_GENERAL_BETTI = {
    (0, -1): 4,
    (1, 0): 17, (1, 2): 29,
    (2, 1): 18, (2, 3): 80,
    (3, 2): 4, (3, 4): 81,
    (4, 5): 38,
    (5, 6): 7,
}


def _random_center(seed, cols=6):
    rng = Rng(seed)
    while True:
        N = [[rng.randrange(17) for _ in range(cols)] for _ in range(10)]
        try:
            return ProjectionSpec(N, "p2cubics", F17)
        except ValueError:
            continue


@pytest.fixture(scope="module")
def n0_spec():
    return ProjectionSpec(fixtures.n0_matrix(F17), "p2cubics", F17)


@pytest.fixture(scope="module")
def n0_module(n0_spec):
    # one construction with the secant certificate on; reused throughout
    return RaoModule.from_projection(n0_spec, kmax=4, certify=True)


@pytest.fixture(scope="module")
def general_module():
    return RaoModule.from_projection(_random_center(3), kmax=4,
                                     certify=False)


def test_rao_hilbert_general_center():
    assert rao_hilbert(_random_center(3), range(5), certify=False) == \
        [0, 4, 7, 0, 0]


def test_rao_hilbert_n0(n0_module):
    # the special center keeps a one-dimensional cokernel in grade 3:
    # two cubics contain the surface, so the degree-3 multiplication
    # image has rank 56 - 2 = 54 inside the 55 degree-9 plane forms
    assert n0_module.hilbert_values(range(5)) == [0, 4, 7, 1, 0]
    assert n0_module._tail_certified


@pytest.mark.xfail(strict=True, reason="holds for a general center; the "
                   "special one lies on a pencil of cubics")
def test_rao_hilbert_n0_generic_values(n0_spec):
    assert rao_hilbert(n0_spec, range(4), certify=False) == [0, 4, 7, 0]


def test_rao_hilbert_full_veronese_vanishes():
    eye = [[1 if i == j else 0 for j in range(10)] for i in range(10)]
    spec = ProjectionSpec(eye, "p2cubics", F17)
    assert rao_hilbert(spec, range(4), certify=False) == [0, 0, 0, 0]


def test_dimension_audit_multiplication_ranks(n0_spec):
    # grade 1: 10 - 6 = 4 needs the 6 composed cubics independent;
    # grade 2: 28 - 21 = 7 needs Sym^2 injective (rank 21)
    ring = n0_spec.source_ring
    composed = n0_spec.composed_forms()
    b3 = ring.monomials_of_degree(3)
    M1 = [coefficient_vector(f, b3) for f in composed]
    assert rank_mod(np.asarray(M1), 17) == 6
    b6 = ring.monomials_of_degree(6)
    prods = [composed[i] * composed[j]
             for i in range(6) for j in range(i, 6)]
    M2 = [coefficient_vector(f, b6) for f in prods]
    assert len(prods) == 21
    assert rank_mod(np.asarray(M2), 17) == 21


def test_action_matrices_commute(n0_module, general_module):
    assert n0_module.commutes()
    assert general_module.commutes()


def test_action_commutativity_random_centers():
    for seed in (5, 8, 21):
        mod = RaoModule.from_projection(_random_center(seed), kmax=3,
                                        certify=False)
        assert mod.commutes()


def test_noncommuting_actions_rejected():
    A = np.asarray([[0, 1], [0, 0]])
    B = np.asarray([[1, 0], [0, 2]])
    with pytest.raises(RaoError, match="commute"):
        RaoModule(F17, 2, {0: 2, 1: 2, 2: 2}, {0: [A, B], 1: [A, B]})


def test_action_shape_validation():
    with pytest.raises(RaoError):
        RaoModule(F17, 2, {0: 2, 1: 3}, {0: [np.zeros((2, 2)),
                                             np.zeros((2, 2))]})


def test_presentation_n0(n0_module):
    pres = rao_presentation(n0_module)
    assert pres.generator_degrees() == {-1: 4}
    assert pres.lowest_grade_only
    assert pres.relation_degrees() == {0: 17}


def test_presentation_seed_independent():
    counts = []
    for seed in (3, 14, 27):
        mod = RaoModule.from_projection(_random_center(seed), kmax=4,
                                        certify=False)
        counts.append(rao_presentation(mod).generator_degrees())
    assert counts[0] == counts[1] == counts[2] == {-1: 4}


def test_presentation_bound_insufficient(n0_module):
    with pytest.raises(RaoError, match="bound insufficient"):
        rao_presentation(n0_module, deg_bound=3)


def test_presentation_one_dimensional_module():
    mod = RaoModule(F17, 6, {0: 1}, {})
    pres = rao_presentation(mod)
    assert pres.generator_degrees() == {0: 1}
    # the relations are the six variables themselves
    assert pres.relation_degrees() == {1: 6}


def test_koszul_betti_two_variables():
    mod = RaoModule(F17, 2, {0: 1}, {})
    tab = graded_betti(mod, hom_bound=2, deg_bound=5)
    assert tab.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert tab.complete
    assert tab.alternating_rank_sum() == 0


def test_graded_betti_general_center(general_module):
    tab, report = graded_betti(general_module, hom_bound=2, deg_bound=8,
                               expected=EXPECTED_GENERAL_BETTI)
    assert tab.column(0) == {-1: 4}
    assert tab.column(1) == {0: 17}
    # the paper's "29 R(-2)" block sits in homological degree 2 here,
    # paired with 18 R(-1); the expected-table comparison records the
    # natural-reading mismatches without failing
    assert tab.column(2) == {1: 18, 2: 29}
    assert report["cells"][(0, -1)]["match"]
    assert not report["all_match"]
    assert (1, 2) in report["mismatches"]


@pytest.mark.slow
def test_graded_betti_n0_differs_from_generic(n0_module):
    tab = graded_betti(n0_module, hom_bound=2, deg_bound=8)
    assert tab.column(0) == {-1: 4}
    assert tab.column(1) == {0: 17}
    assert tab.column(2) != {1: 18, 2: 29}


@pytest.mark.slow
def test_graded_betti_general_full_resolution(general_module):
    tab = graded_betti(general_module, hom_bound=6, deg_bound=12)
    assert tab.complete
    assert max(tab.hom_degrees) <= 6
    assert tab.alternating_rank_sum() == 0
    # Euler characteristic audit: alternating binomial counts give back
    # the Hilbert function (in the module's reported grading)
    for k in range(-2, 4):
        assert tab.hilbert_value(k, 6) == general_module.dim(k + 2)


def test_betti_table_text_and_json():
    tab = BettiTable({(0, 0): 1, (1, 1): 2, (2, 2): 1})
    text = tab.to_text()
    assert "deg" in text and "2" in text
    data = json.loads(tab.to_json())
    assert [0, 0, 1] in data["betti"]
    assert data["complete"]


def test_ci_hilbert_value_against_ideal():
    R = PolynomialRing(F17, ("x", "y", "z", "w"))
    x, y, z, w = R.gens()
    ci = Ideal(R, [x * x + y * z, y * y * w + z * z * z])
    H = ci.hilbert()
    for t in range(7):
        assert ci_hilbert_value((2, 3), 4, t) == H.hf(t)


def _twisted_cubic(R):
    x, y, z, w = R.gens()
    return Ideal(R, [x * z - y * y, x * w - y * z, y * w - z * z])


@pytest.fixture(scope="module")
def double_link():
    R = PolynomialRing(F17, ("x", "y", "z", "w"))
    I = _twisted_cubic(R)
    ci1 = Ideal(R, I.gens[:2])
    line = link(I, ci1, 3).residual
    rng = Rng(4)
    q2 = random_slice_element(line, 2, rng)
    q3 = random_slice_element(line, 3, rng)
    final = link(line, Ideal(R, [q2, q3]), rng).residual
    return I, ci1, final


def test_linked_hilbert_check_double_link(double_link):
    I, _, final = double_link
    rep = linked_hilbert_check(final, I, (2, 2), (2, 3), through=8)
    assert rep["match"]
    assert rep["shift"] == 1
    assert rep["actual"][0:3] == [1, 4, 9]


def test_linked_hilbert_check_negative_control(double_link):
    I, ci1, _ = double_link
    rep = linked_hilbert_check(ci1, I, (2, 2), (2, 3), through=8)
    assert not rep["match"]
