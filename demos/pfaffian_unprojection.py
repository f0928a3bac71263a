"""Pfaffian presentations and ascending biliaison on an elliptic quintic.

A 5x5 skew matrix of general linear forms in five variables presents an
elliptic quintic curve through its 4x4 Pfaffians.  Two cubic hypersurfaces
through the curve lift to section vectors of the presentation, and
appending them (bordered by a linear form) as two new rows and columns
gives a 7x7 skew matrix whose 6x6 Pfaffians cut out a curve of degree
5 + 9 = 14: the biliaison step ascends through the cubic pair.

Run: python3 demos/pfaffian_unprojection.py
"""

from lforge.fields import GF
from lforge.ideals import saturate_irrelevant
from lforge.mpoly import PolynomialRing
from lforge.pfaffian import (
    SkewMatrix,
    SkewPresentation,
    extend_with_sections,
    hypersurface_to_section,
    sub_pfaffians,
)
from lforge.rng import Rng

F = GF(17)


def random_linear(R, rng):
    f = R.zero
    for i in range(R.nvars):
        f = f + R.var(i).scale(F.of(rng.randrange(17)))
    return f


def main():
    R = PolynomialRing(F, tuple(f"x{i}" for i in range(5)))
    rng = Rng(7)
    A = SkewMatrix.from_upper(
        R, 5, [random_linear(R, rng) for _ in range(10)])
    I = sub_pfaffians(A, 4)
    print("4x4 Pfaffians of a general 5x5 linear skew matrix:",
          I.dim_degree(), "-- an elliptic quintic curve")

    P = SkewPresentation(A, 2, 1)
    c1 = R.var(0) * I.gens[0] + R.var(1) * I.gens[2]
    c2 = R.var(2) * I.gens[1] + R.var(4) * I.gens[3]
    s1 = hypersurface_to_section(P, c1)
    s2 = hypersurface_to_section(P, c2)
    print("two cubics through the curve lift to sections:",
          s1 is not None and s2 is not None)

    B = extend_with_sections(P, s1, s2, random_linear(R, rng))
    Y = saturate_irrelevant(sub_pfaffians(B, B.n - 1))
    print(f"extended {B.n}x{B.n} matrix: next Pfaffians give",
          Y.dim_degree(), "-- degree ascended by the (3,3) pair")


if __name__ == "__main__":
    main()
