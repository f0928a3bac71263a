"""A walk through liaison: linking the twisted cubic down to a line and
back out to a quintic curve, with the Hilbert-function bookkeeping that
certifies each step.

Every link I -> (ci : I) through a complete intersection ci trades the
curve for its residual; degrees add up to the degree of the complete
intersection, and after two links the Hilbert function of the result is
predicted exactly by an alternating-sum formula that needs nothing but
the two degree tuples.

Run: python3 demos/liaison_walk.py
"""

from lforge.fields import GF
from lforge.ideals import Ideal
from lforge.linkage import link, random_slice_element
from lforge.mpoly import PolynomialRing
from lforge.rao import linked_hilbert_check
from lforge.rng import Rng

F = GF(17)


def main():
    R = PolynomialRing(F, ("x", "y", "z", "w"))
    x, y, z, w = R.gens()
    I = Ideal(R, [x * z - y * y, x * w - y * z, y * w - z * z])
    print("start: twisted cubic,", I.dim_degree())

    ci1 = Ideal(R, I.gens[:2])
    step = link(I, ci1, 3)
    line = step.residual
    print("link through a (2,2) complete intersection ->", line.dim_degree(),
          "(degrees add: 3 + 1 = 4)")

    rng = Rng(4)
    q2 = random_slice_element(line, 2, rng)
    q3 = random_slice_element(line, 3, rng)
    final = link(line, Ideal(R, [q2, q3]), rng).residual
    print("link back through a (2,3) complete intersection ->",
          final.dim_degree(), "(1 + 5 = 6)")

    H = final.hilbert()
    print("Hilbert function of the quintic:",
          [H.hf(t) for t in range(6)])

    rep = linked_hilbert_check(final, I, (2, 2), (2, 3))
    print("double-link prediction from the degree tuples alone:")
    print("  predicted:", rep["predicted"])
    print("  actual:   ", rep["actual"])
    print("  match:", rep["match"], "- gradation lifted by", rep["shift"])


if __name__ == "__main__":
    main()
