"""Liaison drivers: residuation of an ideal through a complete intersection
it contains, with degree and dimension bookkeeping, plus the two bilinkage
chains (degree-9 surface to a degree-18 surface through two cubics; degree-8
threefold to a degree-17 threefold through three cubics and a quartic).
"""

from __future__ import annotations

import math

from .ideals import Ideal, graded_piece, intersect, quotient
from .linalg import matmul_mod
from .mpoly import MPoly, from_coefficient_vector
from .rng import as_rng


class LinkageError(ValueError):
    pass


class LinkStep:
    """One residuation I -> ci : I with the bookkeeping needed for audits."""

    def __init__(self, ci_degrees, ci: Ideal, input: Ideal, residual: Ideal,
                 deg_in: int, deg_out: int, dim: int):
        self.ci_degrees = tuple(ci_degrees)
        self.ci = ci
        self.input = input
        self.residual = residual
        self.deg_in = deg_in
        self.deg_out = deg_out
        self.dim = dim

    @property
    def ci_degree(self) -> int:
        return math.prod(self.ci_degrees)

    def as_dict(self):
        return {
            "ci_degrees": list(self.ci_degrees),
            "deg_in": self.deg_in,
            "deg_ci": self.ci_degree,
            "deg_out": self.deg_out,
            "dim": self.dim,
        }


def residual_quotient(ci: Ideal, I: Ideal, seed_or_rng=0) -> Ideal:
    """ci : I computed as an intersection of colons by a few general
    elements of I, certified exact by checking Q * I is inside ci.

    ci : I is the intersection of ci : f over all f in I; general elements
    stabilize it after a handful of draws, and the certificate turns the
    heuristic into a proof of equality.  Falls back to the generator-by-
    generator quotient when the certificate keeps failing.
    """
    rng = as_rng(seed_or_rng)
    ring = ci.ring
    d = max(g.degree() for g in I.gens)
    Q = None
    for _ in range(2 * _MAX_REDRAWS):
        f = random_slice_element(I, d, rng)
        Qf = quotient(ci, Ideal(ring, [f]))
        Q = Qf if Q is None else intersect(Q, Qf)
        if all(ci.contains(q * g) for q in Q.gens for g in I.gens):
            return Q
    return quotient(ci, I)


def link(I: Ideal, ci: Ideal, seed_or_rng=0) -> LinkStep:
    """Residual of I through the complete intersection ci (ci : I).

    I is assumed unmixed and saturated; that assumption is not verified
    (no primary decomposition), but degree additivity and the dimension
    comparisons catch gross failures.
    """
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
    expected = 1
    degs = []
    for g in ci.gens:
        degs.append(g.degree())
        expected *= g.degree()
    if deg_ci != expected:
        raise LinkageError("ci degree differs from the product of degrees")
    dim_in, deg_in = I.dim_degree()
    if dim_in != dim_ci:
        raise LinkageError("input and ci dimensions differ")
    residual = residual_quotient(ci, I, seed_or_rng)
    if residual.is_empty():
        step = LinkStep(degs, ci, I, residual, deg_in, 0, dim_ci)
    else:
        dim_out, deg_out = residual.dim_degree()
        if dim_out != dim_ci:
            raise LinkageError("residual dimension differs from the ci")
        step = LinkStep(degs, ci, I, residual, deg_in, deg_out, dim_ci)
    if step.deg_in + step.deg_out != step.ci_degree:
        raise LinkageError(
            f"degree additivity fails: {step.deg_in} + {step.deg_out} "
            f"!= {step.ci_degree}")
    return step


def liaison_invariants(step: LinkStep) -> dict:
    """Pure audit of a completed step; flags, never raises."""
    flags = {}
    flags["containment"] = all(step.input.contains(g) for g in step.ci.gens)
    dim_ci, deg_ci = step.ci.dim_degree()
    flags["ci_codim"] = (
        step.ci.ring.nvars - 1 - dim_ci == len(step.ci.gens))
    flags["degree_additivity"] = (
        step.deg_in + step.deg_out == step.ci_degree)
    if step.residual.is_empty():
        flags["dims_equal"] = step.deg_out == 0
    else:
        flags["dims_equal"] = step.residual.dim_degree()[0] == dim_ci
    flags["ok"] = all(flags.values())
    return flags


def random_slice_element(I: Ideal, d: int, seed_or_rng) -> MPoly:
    """Seeded random element of the degree-d slice of I: a random coefficient
    combination, one draw per column, of the columns of
    graded_piece(I.gens, d) (a spanning set of the slice, so the sample is a
    random element of the whole slice)."""
    rng = as_rng(seed_or_rng)
    ring = I.ring
    p = ring.field.p
    if all(ring.code.deg(g.lm) > d for g in I.gens):
        raise LinkageError(f"no generators of degree <= {d}")
    P = graded_piece(I.gens, d)
    coeffs = [[rng.randrange(p)] for _ in range(P.shape[1])]
    out = from_coefficient_vector(ring, ring.monomials_of_degree(d),
                                  matmul_mod(P, coeffs, p)[:, 0])
    if out.is_zero():
        raise LinkageError("degenerate slice sample")
    return out


class BilinkReport:
    def __init__(self, steps, final: Ideal, seed, flags, counts=None):
        self.steps = list(steps)
        self.final = final
        self.seed = seed
        self.flags = dict(flags)
        self.counts = dict(counts or {})

    def as_dict(self):
        return {
            "steps": [s.as_dict() for s in self.steps],
            "final_dim_degree": list(self.final.dim_degree()),
            "seed": self.seed,
            "flags": self.flags,
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

    def second(r):
        q = random_slice_element(F, k + 1, r)
        # "general" member: the slice through F that also contains the
        # original surface is a hyperplane, and over a 17-element field a
        # random draw lands in it with probability 1/17; such a draw links
        # to a residual containing the original surface, so redraw
        if I_D.contains(q):
            raise LinkageError("slice sample contains the original surface")
        return link(F, Ideal(ring, [c1, c2, q]), r)

    step2 = _drawn(second, rng)
    final = step2.residual
    # (I_D ∩ F)_e = (I_D)_e ∩ F_e and (I_D + F)_e = (I_D)_e + F_e
    h0_F = F.graded_piece_dim(k + 1)
    counts = {
        "h0_F": h0_F,
        "h0_union": I_D.graded_piece_dim(k + 1) + h0_F
        - (I_D + F).graded_piece_dim(k + 1),
    }
    flags = {
        "step1": liaison_invariants(step1)["ok"],
        "step2": liaison_invariants(step2)["ok"],
        "final_dim_degree": final.dim_degree() == (2, 18),
        "final_avoids_containment": not all(
            I_D.contains(g) for g in final.gens),
    }
    return BilinkReport([step1, step2], final, seed, flags, counts)


def bilink_t8(I_T: Ideal, cubics, seed) -> BilinkReport:
    """Residual of the degree-8 threefold through its three cubics (degree
    19), then of that through two of the cubics and a general quartic
    containing the residual but not the threefold (degree 17)."""
    if len(cubics) != 3:
        raise LinkageError("exactly three cubics expected")
    for c in cubics:
        if not I_T.contains(c):
            raise LinkageError("cubic must lie in the threefold ideal")
    rng = as_rng(seed)
    ring = I_T.ring
    step1 = link(I_T, Ideal(ring, list(cubics)), rng)
    G = step1.residual

    def pick_quartic(r):
        q = random_slice_element(G, 4, r)
        if I_T.contains(q):
            raise LinkageError("quartic contains the original threefold")
        return q

    quartic = _drawn(pick_quartic, rng)

    def second(r):
        return link(G, Ideal(ring, [cubics[0], cubics[1], quartic]), r)

    step2 = _drawn(second, rng)
    final = step2.residual
    flags = {
        "step1": liaison_invariants(step1)["ok"],
        "step2": liaison_invariants(step2)["ok"],
        "quartic_avoids_input": not I_T.contains(quartic),
        "final_dim_degree": final.dim_degree() == (3, 17),
    }
    return BilinkReport([step1, step2], final, seed, flags)
