from itertools import combinations
from math import comb, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lforge import fixtures, ideals, rao
from lforge.fields import GF
from lforge.ideals import Ideal, multiplication_matrix
from lforge.linalg import matmul_mod, nullspace_mod, rank_mod, rref_mod
from lforge.linkage import link, random_slice_element
from lforge.mpoly import PolynomialRing, coefficient_vector
from lforge.rao import (
    BettiTable,
    RaoError,
    RaoModule,
    ci_hilbert,
    graded_betti,
    linked_hilbert_check,
)
from lforge.rng import Rng
from lforge.veronese import ProjectionSpec
import oracles

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


def _random_center(seed, cols=6, field=F17):
    rng = Rng(seed)
    while True:
        N = [[rng.randrange(field.p) for _ in range(cols)]
             for _ in range(10)]
        try:
            return ProjectionSpec(N, "p2cubics", field)
        except ValueError:
            continue


def _truncated_abc(field):
    """k[a, b, c] truncated above degree 2."""
    R = PolynomialRing(field, ("a", "b", "c"))
    return RaoModule(field, 3, {k: len(R.monomials_of_degree(k))
                                for k in range(3)},
                     {k: [multiplication_matrix(v, k, k + 1)
                          for v in R.gens()] for k in range(2)})


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
    mod = RaoModule.from_projection(_random_center(3), kmax=4, certify=False)
    assert mod.hilbert_values(range(5)) == [0, 4, 7, 0, 0]


def test_rao_hilbert_n0(n0_module):
    # the special center keeps a one-dimensional cokernel in grade 3:
    # two cubics contain the surface, so the degree-3 multiplication
    # image has rank 56 - 2 = 54 inside the 55 degree-9 plane forms
    assert n0_module.hilbert_values(range(5)) == [0, 4, 7, 1, 0]


@pytest.mark.xfail(strict=True, reason="holds for a general center; the "
                   "special one lies on a pencil of cubics")
def test_rao_hilbert_n0_generic_values(n0_spec):
    mod = RaoModule.from_projection(n0_spec, kmax=3, certify=False)
    assert mod.hilbert_values(range(4)) == [0, 4, 7, 0]


def test_rao_hilbert_full_veronese_vanishes():
    eye = [[1 if i == j else 0 for j in range(10)] for i in range(10)]
    spec = ProjectionSpec(eye, "p2cubics", F17)
    mod = RaoModule.from_projection(spec, kmax=3, certify=False)
    assert mod.hilbert_values(range(4)) == [0, 0, 0, 0]


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


def test_commutation_check_exact_for_large_p():
    # X and X^2 commute; at p = 2^31 - 1 a raw int64 product of two 4 x 4
    # matrices of residues overflows before it is reduced mod p
    p = 2**31 - 1
    X = np.random.default_rng(4).integers(0, p, (4, 4))
    Y = matmul_mod(X, X, p)
    mod = RaoModule(GF(p), 2, {0: 4, 1: 4, 2: 4}, {0: [X, Y], 1: [X, Y]})
    assert mod.commutes()
    Z = np.random.default_rng(5).integers(0, p, (4, 4))
    with pytest.raises(RaoError, match="commute"):
        RaoModule(GF(p), 2, {0: 4, 1: 4, 2: 4}, {0: [X, Z], 1: [X, Z]})


def test_action_shape_validation():
    with pytest.raises(RaoError):
        RaoModule(F17, 2, {0: 2, 1: 3}, {0: [np.zeros((2, 2)),
                                             np.zeros((2, 2))]})


# a minimal presentation is columns 0 and 1 of graded_betti(hom_bound=1)


def test_presentation_n0(n0_module):
    pres = graded_betti(n0_module, hom_bound=1)
    assert pres.complete
    assert pres.hom_degrees == [0, 1]
    assert pres.column(0) == {-1: 4}
    assert pres.column(1) == {0: 17}


def test_presentation_seed_independent():
    counts = []
    for seed in (3, 14, 27):
        mod = RaoModule.from_projection(_random_center(seed), kmax=4,
                                        certify=False)
        counts.append(graded_betti(mod, hom_bound=1).column(0))
    assert counts[0] == counts[1] == counts[2] == {-1: 4}


def test_presentation_bound_insufficient(n0_module):
    assert not graded_betti(n0_module, hom_bound=1, deg_bound=3).complete


def test_presentation_one_dimensional_module():
    mod = RaoModule(F17, 6, {0: 1}, {})
    pres = graded_betti(mod, hom_bound=1)
    assert pres.column(0) == {0: 1}
    # the relations are the six variables themselves
    assert pres.column(1) == {1: 6}


def test_koszul_betti_two_variables():
    mod = RaoModule(F17, 2, {0: 1}, {})
    tab = graded_betti(mod, hom_bound=2, deg_bound=5)
    assert tab.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert tab.complete
    assert tab.alternating_rank_sum() == 0


def test_graded_betti_general_center(general_module):
    tab = graded_betti(general_module, hom_bound=2, deg_bound=8)
    report = tab.compare(EXPECTED_GENERAL_BETTI)
    assert tab.column(0) == {-1: 4}
    assert tab.column(1) == {0: 17}
    # the paper's "29 R(-2)" block sits in homological degree 2 here,
    # paired with 18 R(-1); the expected-table comparison records the
    # natural-reading mismatches without failing
    assert tab.column(2) == {1: 18, 2: 29}
    assert report["cells"][(0, -1)]["match"]
    assert not report["all_match"]
    assert (1, 2) in report["mismatches"]


def test_graded_betti_n0_differs_from_generic(n0_module):
    tab = graded_betti(n0_module, hom_bound=2, deg_bound=8)
    assert tab.column(0) == {-1: 4}
    assert tab.column(1) == {0: 17}
    assert tab.column(2) != {1: 18, 2: 29}


def test_graded_betti_general_full_resolution(general_module):
    tab = graded_betti(general_module, hom_bound=6, deg_bound=12)
    assert tab.complete
    assert max(tab.hom_degrees) <= 6
    assert tab.alternating_rank_sum() == 0
    # Euler characteristic audit: alternating binomial counts give back
    # the Hilbert function (in the module's reported grading)
    for k in range(-2, 4):
        assert tab.hilbert_value(k, 6) == general_module.dim(k + 2)


def _span_k_generators(free, maps):
    """Reference for ideals.kernel_generators: the rule it replaced.  In
    each degree t of maps (t -> A_t), the kernel columns that rref of
    [span | K_t] keeps beyond the span block, span = [x_j K_{t-1}]_j in
    free-module coordinates; the count must equal dim K_t - rank(span),
    the transposed rank taken separately."""
    p = free.ring.field.p
    kernels, gens = {}, {}
    for t, A in maps.items():
        K = nullspace_mod(A, p)
        kernels[t] = K
        prev = kernels.get(t - 1)
        if prev is not None and prev.shape[1]:
            span = np.hstack([free.mul_vectors(t - 1, j, prev)
                              for j in range(free.ring.nvars)])
        else:
            span = np.zeros((free.dim(t), 0), dtype=np.int64)
        _, pivots = rref_mod(np.hstack([span, K]), p)
        chosen = [c - span.shape[1] for c in pivots if c >= span.shape[1]]
        assert len(chosen) == K.shape[1] - rank_mod(span.T, p)
        if chosen:
            gens[t] = K[:, chosen]
    return gens


# the special center's longer module costs about 6 s through homological
# degree 3, so it stops at 2
@pytest.mark.parametrize("center, hom", [("n0", 2), (3, 3), (14, 3), (27, 3)])
def test_cover_generators_match_span_k_rule(center, hom, n0_module,
                                            monkeypatch):
    mod = n0_module if center == "n0" else RaoModule.from_projection(
        _random_center(center), kmax=4, certify=False)
    cover = oracles.kernel_generators
    steps = []

    def compared(free, images, scan_hi):
        maps, gens = {}, {}

        def tapped():
            for t, A in images:
                maps[t] = A
                yield t, A

        for t, G, n in cover(free, tapped(), scan_hi):
            if G.shape[1]:
                gens[t] = G
            yield t, G, n
        # every degree from the lowest through scan_hi, and none past it
        assert list(maps) == list(range(min(free.gen_degrees), scan_hi + 1))
        ref = _span_k_generators(free, maps)
        assert gens.keys() == ref.keys()
        for t, G in gens.items():
            assert G.dtype == ref[t].dtype and G.shape == ref[t].shape
            assert G.tobytes() == np.ascontiguousarray(ref[t]).tobytes()
        steps.append(sum(G.shape[1] for G in gens.values()))

    monkeypatch.setattr(oracles, "kernel_generators", compared)
    # the smallest bound that certifies homological degree hom
    tab = oracles.betti_by_covers(mod, hom_bound=hom,
                                  deg_bound=max(mod.grades) + hom)
    assert tab.complete
    assert len(steps) == hom and steps[0] == 17


def _greedy_identity_complement(S, p):
    """Coordinates that greedy elimination of [S | I] keeps in the I block."""
    _, pivots = rref_mod(np.hstack([S, np.eye(S.shape[0], dtype=np.int64)]),
                         p)
    return [c - S.shape[1] for c in pivots if c >= S.shape[1]]


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([2, 17]), n=st.integers(0, 12),
       k=st.integers(0, 12), rank=st.integers(0, 12),
       zero_cols=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@example(p=17, n=0, k=3, rank=2, zero_cols=1, seed=0)
@example(p=2, n=5, k=0, rank=0, zero_cols=0, seed=0)
@example(p=17, n=6, k=9, rank=6, zero_cols=2, seed=1)
def test_reversed_transpose_pivots_give_greedy_complement(
        p, n, k, rank, zero_cols, seed):
    # the rule of ideals.kernel_generators: coordinate i is covered by
    # span(S) when some vector of it has its last nonzero coordinate at i
    rng = np.random.default_rng(seed)
    B = rng.integers(0, p, size=(n, rank))
    C = rng.integers(0, p, size=(rank, k))
    S = np.hstack([B @ C % p, np.zeros((n, zero_cols), dtype=np.int64)])
    S = S[:, rng.permutation(S.shape[1])]
    _, pivots = rref_mod(S.T[:, ::-1], p)
    covered = {n - 1 - c for c in pivots}
    kept = [i for i in range(n) if i not in covered]
    assert len(covered) == rank_mod(S, p)
    assert kept == _greedy_identity_complement(S, p)


def test_cover_budget_counts_the_kernel_span(monkeypatch):
    # the relations of k over k[t0, t1]: every A_t past degree 0 is empty,
    # while R_1 times the degree-1 kernel is a 4 x 3 matrix in kernel
    # coordinates, so a budget below 12 cells stops the step there
    mod = RaoModule(F17, 2, {0: 1}, {})
    monkeypatch.setattr(ideals, "CELL_BUDGET", 11)
    tab = oracles.betti_by_covers(mod, hom_bound=1, deg_bound=5)
    assert not tab.complete
    assert tab.column(1) == {1: 2}
    monkeypatch.setattr(ideals, "CELL_BUDGET", 12)
    assert oracles.betti_by_covers(mod, hom_bound=1, deg_bound=5).complete


def test_cover_budget_refuses_a_degree_before_building_it(monkeypatch):
    # k[a, b, c] truncated above degree 2: the degree-2 matrix of its cover
    # by k[a, b, c] is 6 x 6, the largest matrix of the first step
    mod = _truncated_abc(F17)
    built = []
    zeros_over = ideals.zeros_over

    def recording_zeros(field, shape):
        built.append(shape[0] * shape[1])
        return zeros_over(field, shape)

    monkeypatch.setattr(ideals, "zeros_over", recording_zeros)
    monkeypatch.setattr(ideals, "CELL_BUDGET", 35)
    tab = oracles.betti_by_covers(mod, hom_bound=2, deg_bound=5)
    assert max(built) <= 35
    assert tab.to_text().endswith("(partial: budget reached)")
    assert tab.entries == {(0, 0): 1}
    built.clear()
    monkeypatch.setattr(ideals, "CELL_BUDGET", 36)
    oracles.betti_by_covers(mod, hom_bound=2, deg_bound=5)
    assert 36 in built


# (p, module, hom_bound, deg_bound): the Koszul table against the cover
# oracle; "center-s" is the first projection drawn from Rng(s) over F_p
KOSZUL_CASES = [
    (17, "n0", 2, 8), (17, "n0", 2, 3),
    (17, "center-3", 3, 5), (17, "center-14", 3, 5), (17, "center-27", 3, 5),
    (17, "abc", 3, 6), (17, "abc", 3, 3), (17, "abc", 3, 1),
    (17, "point-2", 2, 5), (17, "point-6", 6, 8),
    (2, "center-5", 3, 5), (2, "abc", 3, 6), (2, "point-6", 6, 8),
    (251, "center-5", 3, 5), (251, "abc", 3, 3),
    (65537, "abc", 3, 6), (65537, "point-6", 6, 8),
]


def _case_module(p, name, request):
    kind, _, arg = name.partition("-")
    if kind == "n0":
        return request.getfixturevalue("n0_module")
    if kind == "center":
        return RaoModule.from_projection(
            _random_center(int(arg), field=GF(p)), kmax=4, certify=False)
    if kind == "point":
        return RaoModule(GF(p), int(arg), {0: 1}, {})
    return _truncated_abc(GF(p))


@pytest.mark.parametrize("p, name, hom, deg", KOSZUL_CASES)
def test_koszul_table_matches_cover_oracle(p, name, hom, deg, request,
                                           monkeypatch):
    mod = _case_module(p, name, request)
    built = {}
    koszul_map = rao._koszul_map

    def recorded(mod, i, k):
        built[i, k] = koszul_map(mod, i, k)
        return built[i, k]

    monkeypatch.setattr(rao, "_koszul_map", recorded)
    tab = graded_betti(mod, hom_bound=hom, deg_bound=deg)
    ref = oracles.betti_by_covers(mod, hom_bound=hom, deg_bound=deg)
    assert tab.entries == ref.entries
    assert tab.complete == ref.complete
    # d_(i-1) d_i = 0 on both sides of every map the table was read from;
    # a wrong sign leaves 2 x_a x_b terms

    def d(i, k):
        return built[i, k] if (i, k) in built else koszul_map(mod, i, k)

    for i, k in list(built):
        if i > 1:
            assert not matmul_mod(d(i - 1, k + 1), d(i, k), mod.p).any()
        if i < mod.nvars:
            assert not matmul_mod(d(i, k), d(i + 1, k - 1), mod.p).any()


def test_koszul_budget_ends_the_table_at_a_refused_map(monkeypatch):
    mod = _truncated_abc(F17)
    full = graded_betti(mod, hom_bound=3, deg_bound=6)
    built = []
    zeros_over = rao.zeros_over

    def recording_zeros(field, shape):
        built.append(prod(shape))
        return zeros_over(field, shape)

    monkeypatch.setattr(rao, "zeros_over", recording_zeros)
    assert graded_betti(mod, hom_bound=3, deg_bound=6).complete
    largest = max(built)
    built.clear()
    monkeypatch.setattr(ideals, "CELL_BUDGET", largest - 1)
    tab = graded_betti(mod, hom_bound=3, deg_bound=6)
    # refused before it was built; what was read before it stands
    assert max(built) < largest
    assert not tab.complete
    assert tab.to_text().endswith("(partial: budget reached)")
    assert tab.entries and tab.entries.items() < full.entries.items()


def test_betti_table_text():
    tab = BettiTable({(0, 0): 1, (1, 1): 2, (2, 2): 1})
    text = tab.to_text()
    assert "deg" in text and "2" in text
    assert not text.endswith("(partial: budget reached)")


def test_ci_hilbert_value_against_ideal():
    R = PolynomialRing(F17, ("x", "y", "z", "w"))
    x, y, z, w = R.gens()
    ci = Ideal(R, [x * x + y * z, y * y * w + z * z * z])
    H = ci.hilbert()
    H_ci = ci_hilbert((2, 3), 4)
    for t in range(7):
        # the Koszul complex: inclusion-exclusion over subsets of degrees
        koszul = sum((-1) ** len(sub) * comb(t - sum(sub) + 3, 3)
                     for k in range(3) for sub in combinations((2, 3), k)
                     if t - sum(sub) >= 0)
        assert H_ci.hf(t) == H.hf(t) == koszul


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
    rep = linked_hilbert_check(final, I, (2, 2), (2, 3))
    assert rep["match"]
    assert rep["shift"] == 1
    assert rep["actual"][0:3] == [1, 4, 9]


def test_linked_hilbert_check_negative_control(double_link):
    I, ci1, _ = double_link
    rep = linked_hilbert_check(ci1, I, (2, 2), (2, 3))
    assert not rep["match"]
