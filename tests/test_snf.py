import hashlib
from fractions import Fraction

import numpy as np
import pytest

from lforge import fixtures, snf
from lforge.fields import GF, QQ
from lforge.linalg import rank_mod
from lforge.rng import Rng
from lforge.snf import (
    PolyMatrix,
    SnfError,
    root_scan_ff,
    smith_normal_form,
    unipoly_factor_ff,
)
from lforge.unipoly import UniPoly, gcd
from lforge.veronese import build_LN
from oracles import (
    _divmod_by_rows,
    is_irreducible_ff,
    matrix_det,
    poly_matrix_to_text,
    smith_normal_form_by_rows,
)

F17 = GF(17)
LAM = UniPoly.x(F17)
ONE = UniPoly.one(F17)
ZERO = UniPoly.zero(F17)


def test_snf_already_diagonal():
    M = PolyMatrix([[LAM, ZERO], [ZERO, LAM * LAM]])
    res = smith_normal_form(M)
    assert res.verified
    assert [d.to_string() for d in res.diagonal()] == ["lambda", "lambda^2"]


def test_snf_jordan_block():
    # d1 = gcd of entries = 1, d1*d2 = det = lambda^2
    M = PolyMatrix([[LAM, ONE], [ZERO, LAM]])
    res = smith_normal_form(M)
    assert [d.to_string() for d in res.diagonal()] == ["1", "lambda^2"]


def _rand_poly(rng, deg):
    return UniPoly(F17, [rng.randrange(17) for _ in range(deg + 1)])


def _rand_matrix(rng, n, m, deg=2):
    return PolyMatrix([[_rand_poly(rng, rng.randrange(deg + 1))
                        for _ in range(m)] for _ in range(n)])


def test_snf_random_square_det_oracle():
    rng = Rng(3)
    for _ in range(20):
        n = 2 + rng.randrange(4)
        M = _rand_matrix(rng, n, n)
        res = smith_normal_form(M)  # verifies S1 M S2 = D internally
        prod = ONE
        for d in res.diagonal():
            prod = prod * d
        det = matrix_det(M.entries)
        if det.is_zero():
            assert prod.is_zero()
        else:
            assert prod == det.monic()


def test_snf_divisibility_chain_and_gcd():
    rng = Rng(8)
    for _ in range(10):
        M = _rand_matrix(rng, 3 + rng.randrange(3), 3 + rng.randrange(3))
        res = smith_normal_form(M)
        diag = res.diagonal()
        for a, b in zip(diag, diag[1:]):
            if not b.is_zero():
                assert b.divmod(a)[1].is_zero()
        # d1 is the gcd of all entries
        g = ZERO
        for row in M.entries:
            for e in row:
                g = gcd(g, e) if not g.is_zero() else e
        if not g.is_zero():
            assert diag[0] == g.monic()


def test_snf_over_rationals():
    lam = UniPoly.x(QQ)
    one = UniPoly.one(QQ)
    M = PolyMatrix([[lam * lam - one, lam + one],
                    [lam - one, one]])
    res = smith_normal_form(M)
    assert res.verified
    d = res.diagonal()
    assert d[0].degree <= d[1].degree or d[1].is_zero()


def test_snf_transforms_unimodular():
    rng = Rng(5)
    M = _rand_matrix(rng, 4, 4)
    res = smith_normal_form(M)
    for S in (res.S1, res.S2):
        det = matrix_det(S.entries)
        assert det.degree == 0 and not det.is_zero()


def _ln_block(k, N=None):
    """Leading k x (k+1) block of L_N(lambda), for the nlambda pencil
    unless the pencil N is given."""
    LN = build_LN(fixtures.nlambda_matrix(F17) if N is None else N, F17)
    return PolyMatrix([row[:k + 1] for row in LN.entries[:k]], F17)


def _rank_oracle(M, diagonal):
    """rank M(a) equals the number of diagonal entries not vanishing at a,
    for every a in F_17: evaluation and mod-p elimination only."""
    for a in range(17):
        Ma = [[e(a) for e in row] for row in M.entries]
        assert rank_mod(Ma, 17) == sum(1 for d in diagonal if d(a) != 0)


def test_snf_rank_oracle_random():
    rng = Rng(12)
    for _ in range(30):
        M = _rand_matrix(rng, 1 + rng.randrange(6), 1 + rng.randrange(7), 3)
        _rank_oracle(M, smith_normal_form(M).diagonal())


def test_snf_rank_oracle_ln_block():
    M = _ln_block(10)
    _rank_oracle(M, smith_normal_form(M).diagonal())


def test_snf_folds_a_non_dividing_pivot():
    # the pivot lambda does not divide lambda + 1: the offender fold runs
    M = PolyMatrix([[LAM, ZERO], [ZERO, LAM + ONE]])
    res = smith_normal_form(M)
    assert res.verified
    assert [d.to_string() for d in res.diagonal()] == ["1", "lambda^2 + lambda"]


def _digests(res):
    return {name: hashlib.sha256(poly_matrix_to_text(getattr(res, name)).encode())
            .hexdigest() for name in ("D", "S1", "S2")}


def test_snf_ln_block_pinned_output():
    # D, S1 and S2 of the entry-by-entry elimination, byte for byte
    res = smith_normal_form(_ln_block(10))
    assert _digests(res) == {
        "D": "53b8c1d9f30f12cc97f8c361f7e593fc700956e6e47f56bb18786d015dc345be",
        "S1": "2c7d8e46dc2d736d3e633376ffa8030ddd2c0330f04704bcacddd972b446b48e",
        "S2": "ef616b5c8a37c1d0b1626e4f3bd4ec2ab673818c41667d10a04ed897ec2b3be6",
    }


def test_snf_over_rationals_pinned_output():
    # D, S1 and S2 of the entry-by-entry elimination over QQ
    def P(*c):
        return UniPoly(QQ, list(c))

    M = PolyMatrix([[P(Fraction(-1, 4), 0, 1), P(Fraction(1, 2), 1), P()],
                    [P(Fraction(-1, 2), 1), P(1), P(0, 2)],
                    [P(), P(Fraction(3, 2)), P(0, 1)]], QQ)
    res = smith_normal_form(M)
    assert res.diagonal()[2].to_string() == "lambda^3 - 1/4*lambda"
    assert _digests(res) == {
        "D": "0ac26249b39b71d9c95fdf22c6a27f3ab6affcedc9d2dae3ce88241a3fca69bd",
        "S1": "ccd31acd8881f9fb3461cb75a2a77d682a3c709f408299df32f967f7f58a04dc",
        "S2": "bbb91339948be7c0105698ed666b6a52f2264ba1be9cc5a90eeb2ac99bb7b918",
    }


def _field_matrix(rng, field, n, m, deg):
    """n x m over field[lambda], a quarter of the entries zero, the others
    of degree up to deg; over QQ, small fractions."""
    def coeff():
        if field.char:
            return rng.randrange(field.p)
        return Fraction(rng.randrange(-3, 4), 1 + rng.randrange(2))

    return PolyMatrix([[UniPoly(field, [coeff() for _ in range(
        rng.randrange(deg + 1) + 1)] if rng.randrange(4) else [])
        for _ in range(m)] for _ in range(n)], field)


@pytest.mark.parametrize("p", [2, 17, 181, 191, 65537, 0])
def test_snf_gathered_sweep_is_the_row_by_row_oracle(p):
    # int16 residues (2, 17, 181), int32 (191), int64 (65537), Fractions (QQ)
    field = GF(p) if p else QQ
    rng = Rng(p + 4)
    for _ in range(12 if p else 6):
        n, m = (2 + rng.randrange(7), 2 + rng.randrange(7)) if p else (
            2 + rng.randrange(3), 2 + rng.randrange(3))
        M = _field_matrix(rng, field, n, m, 3 if p else 2)
        res = smith_normal_form(M, verify=False)
        assert (res.D, res.S1, res.S2) == smith_normal_form_by_rows(M)


@pytest.mark.parametrize("p", [2, 17, 181, 191, 65537, 0])
def test_divmod_subtracts_room_products_between_reductions(p):
    # the lazy division against the oracle that reduces every step, with
    # `room` from 1 up to the dtype's own, on entries wide enough that
    # every room is exhausted many times over
    field = GF(p) if p else QQ
    dtype = next(t for t in (np.int16, np.int32, np.int64)
                 if p ** 2 <= np.iinfo(t).max) if p else object
    full = 1 if not p else (int(np.iinfo(dtype).max) - p) // (p - 1) ** 2
    rng = Rng(p + 9)
    for width, nd in [(40, 1), (40, 2), (40, 5), (9, 9), (300, 3)]:
        X = np.array([[rng.randrange(p) if p else Fraction(
            rng.randrange(-3, 4), 1 + rng.randrange(2))
            for _ in range(width)] for _ in range(6)], dtype)
        X[0] = 0
        d = np.array([rng.randrange(p) if p else Fraction(rng.randrange(
            -2, 3), 1 + rng.randrange(2)) for _ in range(nd - 1)] + [
            1 + rng.randrange(p - 1) if p else Fraction(3, 2)], dtype)
        want = _divmod_by_rows(X, d, field)
        for room in sorted({min(r, full) for r in (1, 2, 3, full)}):
            q, left = snf._divmod(X, d, field, room)
            assert q.dtype == want[0].dtype
            assert np.array_equal(q, want[0]) and np.array_equal(left, want[1])


def _seeded_pencil(instance):
    """N0 + lambda N1, N0 and N1 drawn uniformly from 10 x 6 over F17: the
    seeded pencils of the snf-pencil benchmark workload."""
    rng = Rng(instance)
    return [[UniPoly(F17, [rng.randrange(17), rng.randrange(17)])
             for _ in range(6)] for _ in range(10)]


def test_snf_k28_blocks_pinned_output():
    # the k = 28 blocks of the nlambda pencil and of seeded pencil 1, as
    # the row-by-row sweep gave them
    digests = [_digests(smith_normal_form(_ln_block(28, N)))
               for N in (None, _seeded_pencil(1))]
    assert digests == [{
        "D": "da95587e0e1a577017d738577aeddc0a524c3d761bd13649616f97305e85efa3",
        "S1": "eb8cb51ccdc3ca57c27955ac689a7debf73b83d7d8be8e891f6da863ff74558f",
        "S2": "f5c9bf935e55ba380223b3b02f41dbcc7500560a77c8b565d516fb4e950c6b45",
    }, {
        "D": "d4d5dd6f176dd5080d7ee693211f8d2b840dfc165dcfe8a61714472f33ad3c7a",
        "S1": "fc4c73a4cd6645f23649ac0cf5ff794d71629b3c73b7fcd51c35e7d5f2e87b14",
        "S2": "e31739176a27b55c31f3e33815eee4901ad30c4fde5e444ec91204c8fe062ef1",
    }]


@pytest.mark.parametrize("p", [2, 17, 181])
def test_red_int16_table_is_remainder(p):
    # every int16 value reduced in place, whole and through non-contiguous
    # views (transposed, sliced, reversed, strided, as the sweeps reduce
    # A), which must leave the elements outside the view alone
    F = GF(p)
    every = np.arange(-(1 << 15), 1 << 15, dtype=np.int16)
    X = every.copy()
    assert snf._red(X, F) is X
    assert np.array_equal(X, np.remainder(every, p))
    grid = every.reshape(64, 32, 32)
    for cut in (np.s_[3:, 5:, ::3], np.s_[::-1, 1:, ::-2]):
        Y = grid.copy()
        view = Y.transpose(1, 0, 2)[cut]
        assert snf._red(view, F) is view
        inside = np.zeros(Y.shape, dtype=bool)
        inside.transpose(1, 0, 2)[cut] = True
        assert np.array_equal(Y[inside], np.remainder(grid, p)[inside])
        assert np.array_equal(Y[~inside], grid[~inside])


def test_snf_check_rejects_corrupted_transform():
    M = _ln_block(6)
    res = smith_normal_form(M)
    assert res.check(M)
    res.S1.entries[2][3] = res.S1[2, 3] + ONE
    assert not res.check(M)


@pytest.mark.parametrize("p", [2, 17, 2**31 - 1])
def test_polymatrix_mul_matches_schoolbook(p):
    F = GF(p)
    rng = Rng(p % 1000)

    def rand(n, m, deg):
        return PolyMatrix([[UniPoly(F, [rng.randrange(p) for _ in range(
            rng.randrange(deg + 2))]) for _ in range(m)] for _ in range(n)], F)

    A, B = rand(3, 4, 9), rand(4, 5, 30)
    expect = [[sum((A[i, t] * B[t, j] for t in range(4)), UniPoly.zero(F))
               for j in range(5)] for i in range(3)]
    assert A.mul(B).entries == expect


def test_factor_difference_of_squares():
    f = LAM * LAM - ONE
    out = unipoly_factor_ff(f)
    assert [(g.to_string(), m) for g, m in out] == [
        ("lambda + 1", 1), ("lambda + 16", 1)]


def test_factor_sum_of_squares():
    # 4^2 = 16 = -1 mod 17
    f = LAM * LAM + ONE
    out = unipoly_factor_ff(f)
    assert [(g.to_string(), m) for g, m in out] == [
        ("lambda + 4", 1), ("lambda + 13", 1)]


def test_factor_roundtrip_random():
    rng = Rng(10)
    for _ in range(50):
        f = _rand_poly(rng, 1 + rng.randrange(8))
        while f.degree < 1:
            f = _rand_poly(rng, 1 + rng.randrange(8))
        factors = unipoly_factor_ff(f)
        back = ONE
        for g, m in factors:
            assert is_irreducible_ff(g)
            back = back * g ** m
        assert back == f.monic()


def test_factor_with_multiplicities():
    f = (LAM + ONE) ** 3 * (LAM * LAM + ONE)
    out = unipoly_factor_ff(f)
    as_pairs = {(g.to_string(), m) for g, m in out}
    assert as_pairs == {("lambda + 1", 3), ("lambda + 4", 1),
                        ("lambda + 13", 1)}


def test_factor_zero_rejected():
    with pytest.raises(SnfError):
        unipoly_factor_ff(ZERO)


def test_root_scan():
    assert root_scan_ff(LAM * LAM + ONE) == [4, 13]
    irr = LAM * LAM + LAM + UniPoly(F17, [3])
    assert is_irreducible_ff(irr)
    assert root_scan_ff(irr) == []


def test_is_irreducible_ff():
    assert is_irreducible_ff(LAM + ONE)
    assert not is_irreducible_ff(LAM * LAM - ONE)
    assert not is_irreducible_ff(ONE)


def test_polymatrix_validation_and_text():
    with pytest.raises(SnfError):
        PolyMatrix([[LAM], [LAM, ONE]])
    M = PolyMatrix([[LAM, ONE], [ZERO, LAM * LAM]])
    assert PolyMatrix.from_text(poly_matrix_to_text(M), F17) == M
