"""Test oracles for ideal operations, outside the program.

The t-trick computes I ∩ J by eliminating an auxiliary variable t from
t·I + (1 − t)·J, and I : (g) as (I ∩ (g)) / g.  Its generators are
inhomogeneous, so the block-order basis is a Buchberger basis: it shares
no code with the graded kernels of ideals.intersect and ideals.quotient
beyond the Groebner bases that compare ideals.  image_by_elimination
computes the kernel of a ring map the same way, from the graph ideal, and
saturate iterates ideals.quotient, with no coordinate change and no
Bayer division."""

from lforge.ideals import Ideal, eliminate, quotient
from lforge.mpoly import PolynomialRing
from lforge.orders import TermOrder


def intersect_by_elimination(I: Ideal, J: Ideal) -> Ideal:
    ring = I.ring
    if I.is_zero_ideal() or J.is_zero_ideal():
        return Ideal(ring, [])
    t_name = "t_aux"
    while t_name in ring.names:
        t_name += "_"
    big = PolynomialRing(ring.field, (t_name,) + ring.names, TermOrder.block(1))
    t = big.var(0)
    gens = [t * big.convert(f) for f in I.gens]
    gens += [(big.one - t) * big.convert(g) for g in J.gens]
    E = eliminate(Ideal(big, gens), 1)
    return Ideal(ring, [ring.convert(g) for g in E.gens])


def quotient_by_elimination(I: Ideal, J: Ideal) -> Ideal:
    """I : J = ∩_{g ∈ gens(J)} (I ∩ (g)) / g."""
    ring = I.ring
    result = None
    for g in J.gens:
        K = intersect_by_elimination(I, Ideal(ring, [g]))
        Q = Ideal(ring, [h.exact_div(g) for h in K.gens])
        result = Q if result is None else intersect_by_elimination(result, Q)
    return result


def image_by_elimination(forms, target: PolynomialRing) -> Ideal:
    """The kernel of the ring map target -> source, x_i -> forms[i], by
    eliminating the source variables from the graph ideal (y_i - forms[i])."""
    source = forms[0].ring
    if set(source.names) & set(target.names):
        raise ValueError("source and target variable names must not clash")
    k = source.nvars
    big = PolynomialRing(source.field, source.names + target.names,
                         TermOrder.block(k))
    gens = [big.var(k + i) - big.convert(f) for i, f in enumerate(forms)]
    E = eliminate(Ideal(big, gens), k)
    return Ideal(target, [target.convert(g) for g in E.gens])


def saturate(I: Ideal, J: Ideal) -> Ideal:
    """I : J^∞ by iterating the quotient to a fixed point."""
    if J.is_zero_ideal():
        raise ValueError("saturation by the zero ideal")
    cur = I
    while True:
        nxt = quotient(cur, J)
        if nxt == cur:
            return cur
        cur = nxt
