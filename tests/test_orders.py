import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lforge.orders import EXP_CAP, ExponentOverflow, MonomialCode, TermOrder


# -- reference comparators on raw exponent tuples ---------------------


def grevlex_key(e):
    # larger key = larger monomial: total degree first, then the monomial
    # whose *last* differing exponent is smaller wins
    return (sum(e),) + tuple(-x for x in reversed(e))


def lex_key(e):
    return tuple(e)


def block_key(e, k):
    return grevlex_key(e[:k]) + grevlex_key(e[k:])


def weighted_key(e, w):
    return (sum(wi * ei for wi, ei in zip(w, e)),) + grevlex_key(e)


def all_exps(nvars, maxdeg):
    return [
        e
        for e in itertools.product(range(maxdeg + 1), repeat=nvars)
        if sum(e) <= maxdeg
    ]


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_grevlex_matches_reference(nvars):
    code = MonomialCode(nvars, TermOrder.grevlex())
    exps = all_exps(nvars, 5)
    packed = sorted(exps, key=code.pack)
    ref = sorted(exps, key=grevlex_key)
    assert packed == ref


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_lex_matches_reference(nvars):
    code = MonomialCode(nvars, TermOrder.lex())
    exps = all_exps(nvars, 5)
    assert sorted(exps, key=code.pack) == sorted(exps, key=lex_key)


@pytest.mark.parametrize("nvars,k", [(3, 1), (4, 2), (5, 1)])
def test_block_matches_reference(nvars, k):
    code = MonomialCode(nvars, TermOrder.block(k))
    exps = all_exps(nvars, 4)
    assert sorted(exps, key=code.pack) == sorted(
        exps, key=lambda e: block_key(e, k)
    )


def test_block_is_elimination_order():
    # any monomial containing an eliminated variable beats any that does not
    code = MonomialCode(4, TermOrder.block(2))
    uses = [e for e in all_exps(4, 4) if e[0] + e[1] > 0]
    avoids = [e for e in all_exps(4, 4) if e[0] + e[1] == 0]
    assert min(code.pack(e) for e in uses) > max(code.pack(e) for e in avoids)


@pytest.mark.parametrize("w", [(1, 2, 3), (2, 1, 1), (1, 1, 5)])
def test_weighted_matches_reference(w):
    code = MonomialCode(3, TermOrder.weighted(w))
    exps = all_exps(3, 5)
    assert sorted(exps, key=code.pack) == sorted(
        exps, key=lambda e: weighted_key(e, w)
    )


# -- pack/unpack and arithmetic ---------------------------------------


@pytest.mark.parametrize(
    "order",
    [TermOrder.grevlex(), TermOrder.lex(), TermOrder.block(2), TermOrder.weighted((1, 3, 2, 1))],
)
def test_pack_unpack_roundtrip(order):
    code = MonomialCode(4, order)
    for e in all_exps(4, 4):
        assert code.unpack(code.pack(e)) == e


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=3, max_size=3),
       st.lists(st.integers(0, 30), min_size=3, max_size=3))
def test_mul_divides_agree_with_tuples(ea, eb):
    code = MonomialCode(3, TermOrder.grevlex())
    a, b = code.pack(tuple(ea)), code.pack(tuple(eb))
    assert code.unpack(code.mul(a, b)) == tuple(x + y for x, y in zip(ea, eb))
    q = code.divides(b, a)
    if all(x >= y for x, y in zip(ea, eb)):
        assert q is not None
        assert code.unpack(q) == tuple(x - y for x, y in zip(ea, eb))
    else:
        assert q is None


def test_divides_guard_edge_cases():
    code = MonomialCode(3, TermOrder.grevlex())
    x2 = code.pack((2, 0, 0))
    y1 = code.pack((0, 1, 0))
    xy = code.pack((1, 1, 0))
    assert code.divides(y1, xy) == code.pack((1, 0, 0))
    assert code.divides(x2, xy) is None
    assert code.divides(xy, x2) is None
    one = code.pack((0, 0, 0))
    assert code.divides(one, x2) == x2
    assert code.divides(x2, one) is None


def test_lcm_gcd_coprime():
    code = MonomialCode(3, TermOrder.grevlex())
    a = code.pack((2, 0, 1))
    b = code.pack((1, 3, 0))
    assert code.unpack(code.lcm(a, b)) == (2, 3, 1)
    assert not code.coprime(a, b)
    assert code.coprime(code.pack((2, 0, 0)), code.pack((0, 1, 1)))


def test_deg():
    for order in (TermOrder.grevlex(), TermOrder.lex(), TermOrder.block(1),
                  TermOrder.weighted((2, 5, 1))):
        code = MonomialCode(3, order)
        for e in all_exps(3, 4):
            assert code.deg(code.pack(e)) == sum(e)


def test_exponent_cap():
    code = MonomialCode(2, TermOrder.grevlex())
    with pytest.raises(ExponentOverflow):
        code.pack((EXP_CAP + 1, 0))
    with pytest.raises(ExponentOverflow):
        code.pack((-1, 0))


def test_var():
    code = MonomialCode(3, TermOrder.grevlex())
    assert code.unpack(code.var(1)) == (0, 1, 0)


def test_order_validation():
    with pytest.raises(ValueError):
        TermOrder.block(0)
    with pytest.raises(ValueError):
        TermOrder.weighted((1, 0))
    with pytest.raises(ValueError):
        MonomialCode(2, TermOrder.block(2))
    with pytest.raises(ValueError):
        MonomialCode(3, TermOrder.weighted((1, 2)))
