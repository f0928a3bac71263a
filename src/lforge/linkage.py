"""Liaison drivers: residuation of an ideal through a complete intersection
it contains, plus the two bilinkage chains (degree-9 surface to a degree-18
surface through two cubics; degree-8 threefold to a degree-17 threefold
through three cubics and a quartic).  `link` is the one place where a link
is checked (three preconditions, then the degree identity that proves the
residual exact); a step that fails a check raises.
"""

from __future__ import annotations

import math
import time

from .ideals import Ideal, form_matrix, intersect, quotient
from .linalg import matmul_over
from .mpoly import MPoly, from_coefficient_vector
from .rng import as_rng


class LinkageError(ValueError):
    pass


class LinkStep:
    """One residuation I -> ci : I with its degree bookkeeping; `seconds`,
    the wall time of its `link` call, is volatile and not in `as_dict`."""

    def __init__(self, ci_degrees, ci: Ideal, residual: Ideal, deg_in: int,
                 dim: int, seconds: float):
        self.ci_degrees = tuple(ci_degrees)
        self.ci = ci
        self.residual = residual
        self.deg_in = deg_in
        self.deg_out = math.prod(self.ci_degrees) - deg_in
        self.dim = dim
        self.seconds = seconds

    def as_dict(self):
        return {
            "ci_degrees": list(self.ci_degrees),
            "deg_in": self.deg_in,
            "deg_ci": math.prod(self.ci_degrees),
            "deg_out": self.deg_out,
            "dim": self.dim,
        }


def _is_residual(Q: Ideal, ci: Ideal, I: Ideal) -> bool:
    """The liaison degree identity: Q has the dimension of ci and degree
    deg ci - deg I, or is the unit ideal (degree 0) when that is 0."""
    dim_ci, deg_ci = ci.dim_degree()
    deg_out = deg_ci - I.dim_degree()[1]
    return Q.dim_degree() == (dim_ci if deg_out else -1, deg_out)


def residual_quotient(ci: Ideal, I: Ideal, seed_or_rng=0) -> Ideal:
    """ci : I as the intersection Q of colons ci : (f), general f in I drawn
    until Q passes `_is_residual`; after ten draws, `quotient(ci, I)`.

    Under the preconditions that `link` checks before it draws (ci is a
    complete intersection, ci ⊆ I, dim S/I = dim S/ci), passing proves
    Q = ci : I (Peskine and Szpiro, Invent. Math. 26, 1974):
    1. each f lies in I, so ci : I ⊆ Q;
    2. S/(ci : f) ≅ f·(S/ci) ⊆ S/ci, so every associated prime P of Q and
       of ci : I is one of ci, and minimal, since ci is Cohen-Macaulay;
    3. A = S_P/ci_P is Artinian Gorenstein, so Matlis duality gives
       ℓ(0 :_A J) = ℓ(A/J) for J = I_P/ci_P; summed over P with weight
       deg P, deg(ci : I) = deg ci - deg I;
    4. so if deg Q = deg ci - deg I, the lengths at each P, which are at
       most those of ci : I by 1, are equal: Q_P = (ci : I)_P, and by 2
       each ideal is the intersection of its P-primary components.
    The proof takes the colons as exact, and each carries its own
    certificate: `quotient` stops at the Hilbert series of S/(ci : f) read
    off ci + (f), `intersect` likewise.  The tests compare Q with the
    t-trick and keep the membership oracle Q·I ⊆ ci."""
    rng = as_rng(seed_or_rng)
    d = max(g.degree() for g in I.gens)
    Q = None
    for _ in range(2 * _MAX_REDRAWS):
        f = random_slice_element(I, d, rng)
        Qf = quotient(ci, Ideal(ci.ring, [f]))
        Q = Qf if Q is None else intersect(Q, Qf)
        if _is_residual(Q, ci, I):
            return Q
    return quotient(ci, I)


def link(I: Ideal, ci: Ideal, seed_or_rng=0) -> LinkStep:
    """Residual of I through the complete intersection ci (ci : I).

    The degree identity holds for every I ⊇ ci of the dimension of ci, so
    it certifies the residual, not the input: ci : I depends only on the
    top-dimensional part of I, and whether I is unmixed is not verified.
    """
    t0 = time.perf_counter()
    if ci.ring is not I.ring:
        raise LinkageError("ideals live in different rings")
    for g in ci.gens:
        if not I.contains(g):
            raise LinkageError("ci is not contained in I")
    dim_ci, deg_ci = ci.dim_degree()
    codim = I.ring.nvars - 1 - dim_ci
    if codim != len(ci.gens):
        raise LinkageError(
            f"not a complete intersection: codim {codim} from "
            f"{len(ci.gens)} forms")
    degs = [g.degree() for g in ci.gens]
    if deg_ci != math.prod(degs):
        raise LinkageError("ci degree differs from the product of degrees")
    dim_in, deg_in = I.dim_degree()
    if dim_in != dim_ci:
        raise LinkageError("input and ci dimensions differ")
    residual = residual_quotient(ci, I, seed_or_rng)
    if not _is_residual(residual, ci, I):
        raise LinkageError(f"residual {residual.dim_degree()} fails the "
                           f"degree identity {deg_ci} - {deg_in}")
    return LinkStep(degs, ci, residual, deg_in, dim_ci,
                    time.perf_counter() - t0)


def random_slice_element(I: Ideal, d: int, seed_or_rng) -> MPoly:
    """Seeded random element of the degree-d slice of I: a random coefficient
    combination, one draw per column, of the columns of the form_matrix of
    I's generators into degree d (the products g * m, generator by generator
    and then monomial by monomial: a spanning set of the slice, so the
    sample is a random element of the whole slice)."""
    rng = as_rng(seed_or_rng)
    ring = I.ring
    field = ring.field
    if all(g.degree() > d for g in I.gens):
        raise LinkageError(f"no generators of degree <= {d}")
    P = form_matrix([I.gens], [d - g.degree() for g in I.gens], [d])
    coeffs = [[field.random(rng)] for _ in range(P.shape[1])]
    out = from_coefficient_vector(ring, ring.monomials_of_degree(d),
                                  matmul_over(field, P, coeffs)[:, 0])
    if out.is_zero():
        raise LinkageError("degenerate slice sample")
    return out


class BilinkReport:
    def __init__(self, steps, final: Ideal, seed, counts=None):
        self.steps = list(steps)
        self.final = final
        self.seed = seed
        self.counts = dict(counts or {})

    def as_dict(self):
        return {
            "steps": [s.as_dict() for s in self.steps],
            "final_dim_degree": list(self.final.dim_degree()),
            "seed": self.seed,
            "counts": self.counts,
        }


_MAX_REDRAWS = 5


def _drawn(fn, rng):
    last = None
    for _ in range(_MAX_REDRAWS):
        try:
            return fn(rng)
        except LinkageError as err:
            last = err
    raise LinkageError(f"generality guard exhausted: {last}")


def _second_link(I: Ideal, F: Ideal, a: MPoly, b: MPoly, d: int,
                 rng) -> LinkStep:
    """Link F, the residual of I, through (a, b, q) for a general q in F_d.

    Each try draws a new q.  The part of F_d that also lies in I is a
    proper subspace (a hyperplane on the D9 chain), so over a 17-element
    field a random draw lands in it with probability at most 1/17; such a
    q links F to a residual containing I's variety, so it is redrawn, as
    is any q that `link` rejects.
    """
    def attempt(r):
        q = random_slice_element(F, d, r)
        if I.contains(q):
            raise LinkageError("slice sample lies in the original ideal")
        return link(F, Ideal(F.ring, [a, b, q]), r)

    return _drawn(attempt, rng)


def bilink_degree18(I_D: Ideal, c1: MPoly, c2: MPoly, k: int,
                    seed) -> BilinkReport:
    """Two residuations of the degree-9 surface through the pencil of cubics:
    first through (c1, c2, general degree-k member of I_D), then the residual
    through (c1, c2, general degree-(k+1) member of its ideal).  Ends at a
    surface of degree 18 whatever k >= 4."""
    if not (I_D.contains(c1) and I_D.contains(c2)):
        raise LinkageError("cubics must lie in the surface ideal")
    if k < 4:
        raise LinkageError("k must be at least 4")
    rng = as_rng(seed)
    ring = I_D.ring

    def first(r):
        q = random_slice_element(I_D, k, r)
        return link(I_D, Ideal(ring, [c1, c2, q]), r)

    step1 = _drawn(first, rng)
    F = step1.residual
    step2 = _second_link(I_D, F, c1, c2, k + 1, rng)
    # (I_D ∩ F)_e = (I_D)_e ∩ F_e and (I_D + F)_e = (I_D)_e + F_e
    h0_F = F.graded_piece_dim(k + 1)
    counts = {
        "h0_F": h0_F,
        "h0_union": I_D.graded_piece_dim(k + 1) + h0_F
        - (I_D + F).graded_piece_dim(k + 1),
    }
    return BilinkReport([step1, step2], step2.residual, seed, counts)


def bilink_t8(I_T: Ideal, cubics, seed) -> BilinkReport:
    """Residual of the degree-8 threefold through its three cubics (degree
    19), then of that through two of the cubics and a general quartic
    containing the residual but not the threefold (degree 17)."""
    if len(cubics) != 3:
        raise LinkageError("exactly three cubics expected")
    rng = as_rng(seed)
    step1 = link(I_T, Ideal(I_T.ring, list(cubics)), rng)
    step2 = _second_link(I_T, step1.residual, cubics[0], cubics[1], 4, rng)
    return BilinkReport([step1, step2], step2.residual, seed)
