from fractions import Fraction

import pytest

from lforge.fields import GF, QQ
from lforge.mpoly import PolynomialRing
from lforge.orders import TermOrder
from lforge.rng import Rng
from lforge.textio import (
    ParseError,
    parse_poly,
    parse_ring_header,
    poly_to_string,
    read_ideal,
)
from oracles import ring_header

F17 = GF(17)
R = PolynomialRing(F17, ("x0", "x1", "x2"))
x0, x1, x2 = R.gens()


def test_parse_simple():
    assert parse_poly("x0 + x1", R) == x0 + x1
    assert parse_poly("2*x0^3", R) == 2 * x0**3
    assert parse_poly("-x0 - -x1", R) == x1 - x0
    assert parse_poly("0", R).is_zero()
    assert parse_poly("(x0 + x1)^2", R) == (x0 + x1) ** 2
    assert parse_poly("5", R) == R.const(5)


def test_parse_precedence():
    assert parse_poly("x0 + 2*x1*x2^2", R) == x0 + 2 * x1 * x2**2
    assert parse_poly("-(x0 + x1)*x2", R) == -(x0 + x1) * x2
    with pytest.raises(ParseError):
        parse_poly("x0^2^1", R)  # chained exponents are not allowed


def test_parse_fractions_over_qq():
    S = PolynomialRing(QQ, ("u", "v"))
    u, v = S.gens()
    f = parse_poly("1/2*u + 3/4*v^2 - 2", S)
    assert f == u.scale(Fraction(1, 2)) + (v * v).scale(Fraction(3, 4)) - 2


def test_parse_fraction_coefficient_mod_p():
    # a/b means a * b^{-1} in the coefficient field
    f = parse_poly("1/5*x0", R)
    assert f == 7 * x0


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_poly("x0 + @", R)
    assert e.value.pos == 5
    with pytest.raises(ParseError):
        parse_poly("x0 +", R)
    with pytest.raises(ParseError):
        parse_poly("w0", R)
    with pytest.raises(ParseError):
        parse_poly("(x0", R)
    with pytest.raises(ParseError):
        parse_poly("x0 x1", R)
    with pytest.raises(ParseError):
        parse_poly("x0^x1", R)
    with pytest.raises(ParseError):
        parse_poly("3/x0", R)


def test_fraction_is_one_coefficient_token():
    S = PolynomialRing(QQ, ("x", "_frac0"))
    x, f0 = S.gens()
    assert parse_poly("1/2*x + _frac0", S) == x.scale(Fraction(1, 2)) + f0
    with pytest.raises(ParseError, match="exponent"):
        parse_poly("x^1/2", S)
    with pytest.raises(ParseError, match="denominator") as e:
        parse_poly("x + 3/", S)
    assert e.value.pos == 5


def test_bad_fractions_are_parse_errors():
    S = PolynomialRing(QQ, ("u",))
    with pytest.raises(ParseError, match="zero denominator") as e:
        parse_poly("u + 1/0", S)
    assert e.value.pos == 6
    with pytest.raises(ParseError, match="not defined over GF") as e:
        parse_poly("x0 - 1/17", R)
    assert e.value.pos == 5
    # 1/18 is 1 over GF(17)
    assert parse_poly("1/18*x0", R) == x0


def test_print_parse_roundtrip_random():
    rng = Rng(42)
    for trial in range(30):
        f = R.zero
        for _ in range(6):
            exps = tuple(rng.randrange(4) for _ in range(3))
            f = f + R.from_dict({R.code.pack(exps): rng.randrange(17)})
        assert parse_poly(poly_to_string(f), R) == f


def test_print_symmetric_residues():
    assert poly_to_string(R.const(16)) == "-1"
    assert poly_to_string(-x0) == "-x0"
    assert poly_to_string(x0 - x1) == "x0 - x1"
    assert poly_to_string(R.zero) == "0"


def test_print_qq():
    S = PolynomialRing(QQ, ("u",))
    (u,) = S.gens()
    s = poly_to_string(u.scale(Fraction(-1, 2)) + 3)
    assert s == "-1/2*u + 3"
    assert parse_poly(s, S) == u.scale(Fraction(-1, 2)) + 3


def test_ring_header_roundtrip():
    for ring in (
        R,
        PolynomialRing(QQ, ("a", "b"), TermOrder.lex()),
        PolynomialRing(F17, ("s", "t", "u"), TermOrder.block(1)),
        PolynomialRing(F17, ("p", "q"), TermOrder.weighted((2, 3))),
    ):
        assert parse_ring_header(ring_header(ring)) is ring


def test_ring_header_errors():
    with pytest.raises(ParseError):
        parse_ring_header("not a header")
    with pytest.raises(ParseError):
        parse_ring_header("ring R field GF(17) order grevlex")
    with pytest.raises(ParseError):
        parse_ring_header("ring R vars x field GF(17) order zigzag")


def test_ideal_file_roundtrip(tmp_path):
    path = tmp_path / "ideal.txt"
    polys = [x0**2 - x1 * x2, x1**3 + 2 * x2, R.const(0)]
    path.write_text("".join(line + "\n" for line in
                            [ring_header(R)] + [poly_to_string(f) for f in polys]),
                    encoding="utf-8")
    ring, back = read_ideal(path)
    assert ring is R
    assert back == polys


def test_ideal_file_comments_and_blanks(tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text(
        "# a comment line\n"
        f"{ring_header(R)}\n"
        "\n"
        "x0 + x1  # trailing comment\n",
        encoding="utf-8",
    )
    ring, polys = read_ideal(path)
    assert polys == [x0 + x1]


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_ideal(path)
