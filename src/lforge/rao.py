"""Deficiency-module linear algebra for projected Veronese surfaces.

For an isomorphic projection, the failure of projective normality in each
degree k is the cokernel of the multiplication map
Sym^k(projection forms) -> (forms of degree k*d on the source), the
degree-k matrix of ideals.ring_map.  This module packages those cokernels
as a graded module over the target polynomial ring (with explicit variable
action matrices), and resolves such modules degree by degree into graded
Betti numbers via iterated minimal covers (ideals.cover_map,
ideals.kernel_generators) -- no syzygy Groebner bases anywhere.  A minimal
presentation is columns 0 and 1 of that table (graded_betti with
hom_bound=1).
"""

from __future__ import annotations

import math

import numpy as np

from .fields import PrimeField
from .hilbert import HilbertData
from .ideals import (
    GradedQuotient,
    Ideal,
    cover_map,
    kernel_generators,
    multiplication_matrix,
    ring_map,
)
# rank_mod and rref_mod are unused here but stay bound: the benchmark's own
# tests assert that its tracer rebinds rao.rank_mod and rao.rref_mod
from .linalg import matmul_mod, rank_mod, rref_mod  # noqa: F401
from .mpoly import PolynomialRing
from .veronese import ProjectionSpec, secant_avoidance


class RaoError(ValueError):
    pass


def _np(rows):
    return np.asarray(rows, dtype=np.int64)


class RaoModule:
    """A finite-length graded module over a polynomial ring, given by its
    graded piece dimensions and the multiplication matrices of each
    variable between consecutive pieces.

    ``dims`` maps grade -> dimension (missing grades are zero);
    ``actions[k][j]`` is the matrix of multiplication by variable j from
    the grade-k piece to the grade-(k+1) piece (shape dims[k+1] x dims[k]).
    ``shift`` is subtracted from internal grades in reports, so a module
    stored on grades 0..n can present itself in a normalized grading.
    """

    def __init__(self, field, nvars: int, dims: dict, actions: dict,
                 shift: int = 0):
        if not isinstance(field, PrimeField):
            raise RaoError("dense module linear algebra needs a prime field")
        self.field = field
        self.p = field.p
        self.nvars = nvars
        self.dims = {k: d for k, d in dims.items() if d}
        self.shift = shift
        self.actions = {}
        for k, mats in actions.items():
            if len(mats) != nvars:
                raise RaoError(f"expected {nvars} action matrices at grade {k}")
            out = []
            for A in mats:
                A = _np(A) % self.p
                want = (self.dim(k + 1), self.dim(k))
                if A.shape != want:
                    raise RaoError(
                        f"action at grade {k} has shape {A.shape}, "
                        f"expected {want}")
                out.append(A)
            self.actions[k] = out
        if not self.commutes():
            raise RaoError("variable action matrices do not commute")

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    @property
    def grades(self):
        return sorted(self.dims)

    def hilbert_values(self, ks):
        return [self.dim(k) for k in ks]

    def _action(self, k: int, j: int):
        if k in self.actions:
            return self.actions[k][j]
        return np.zeros((self.dim(k + 1), self.dim(k)), dtype=np.int64)

    def commutes(self) -> bool:
        for k in self.grades:
            if self.dim(k + 2) == 0 or self.dim(k) == 0:
                continue
            for i in range(self.nvars):
                for j in range(i + 1, self.nvars):
                    lhs = matmul_mod(self._action(k + 1, i),
                                     self._action(k, j), self.p)
                    rhs = matmul_mod(self._action(k + 1, j),
                                     self._action(k, i), self.p)
                    if not np.array_equal(lhs, rhs):
                        return False
        return True

    # -- construction from a Veronese projection -----------------------

    @classmethod
    def from_projection(cls, spec: ProjectionSpec, kmax: int = 4,
                        certify: bool = True) -> "RaoModule":
        """Cokernels of the multiplication maps of the composed forms, with
        grade k reported as k - 2.

        The grade-k piece is H^0 of degree k*d forms on the source modulo
        the image of Sym^k of the projection; the pushforward
        identification is only valid when the projection is injective on
        the Veronese, which ``certify`` checks through the secant locus.
        """
        field = spec.field
        if not isinstance(field, PrimeField):
            raise RaoError("dense module linear algebra needs a prime field")
        if certify and spec.ncols < len(spec.forms):
            cert = secant_avoidance(spec.center_forms(), spec.secant_ideal())
            if not cert["empty"]:
                raise RaoError(
                    "projection center meets the secant variety; the "
                    "pushforward description does not apply")
        composed = spec.composed_forms()
        d = composed[0].degree()
        _, image = ring_map(composed, spec.target_ring)
        quotients = [GradedQuotient(field, image(k)) for k in range(kmax + 1)]
        dims = {k: len(Q.free) for k, Q in enumerate(quotients)}
        actions = {
            k: [quotients[k + 1].coordinates(multiplication_matrix(
                    f, k * d, (k + 1) * d)[:, quotients[k].free])
                for f in composed]
            for k in range(kmax)}
        return cls(field, spec.ncols, dims, actions, shift=2)


# -- degree-by-degree resolution -------------------------------------


def _binom(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


class BettiTable:
    """Graded Betti numbers beta_{i,j}: i = homological degree, j =
    internal degree of the minimal generators of the i-th syzygy."""

    def __init__(self, entries: dict, complete: bool = True):
        self.entries = {k: v for k, v in entries.items() if v}
        self.complete = complete

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def column(self, i: int) -> dict:
        return {j: b for (h, j), b in self.entries.items() if h == i}

    @property
    def hom_degrees(self):
        return sorted({i for i, _ in self.entries})

    def alternating_rank_sum(self) -> int:
        """Test oracle: zero for a complete table of a finite-length module
        (test_rao.py, test_acceptance.py)."""
        return sum((-1) ** i * b for (i, _), b in self.entries.items())

    def hilbert_value(self, t: int, nvars: int) -> int:
        """Alternating binomial count at degree t (equals the module's
        Hilbert function when the table is complete).  Test oracle: the
        Betti tests of test_rao.py compare it with the module's dimensions."""
        return sum((-1) ** i * b * _binom(t - j + nvars - 1, nvars - 1)
                   for (i, j), b in self.entries.items())

    def compare(self, expected: dict) -> dict:
        """Cell-by-cell comparison with an expected {(i, j): beta} table."""
        cells = {}
        for key in sorted(set(self.entries) | set(expected)):
            got = self.entries.get(key, 0)
            want = expected.get(key, 0)
            cells[key] = {"computed": got, "expected": want,
                          "match": got == want}
        return {
            "cells": cells,
            "all_match": all(c["match"] for c in cells.values()),
            "mismatches": [k for k, c in cells.items() if not c["match"]],
        }

    def to_text(self) -> str:
        if not self.entries:
            return "(empty table)"
        homs = self.hom_degrees
        degs = sorted({j for _, j in self.entries})
        width = max(6, *(len(str(b)) for b in self.entries.values()))
        head = "deg".rjust(6) + "".join(str(i).rjust(width) for i in homs)
        lines = [head]
        for j in degs:
            row = str(j).rjust(6)
            for i in homs:
                b = self.beta(i, j)
                row += (str(b) if b else ".").rjust(width)
            lines.append(row)
        if not self.complete:
            lines.append("(partial: budget reached)")
        return "\n".join(lines)


def _resolve(mod: RaoModule, hom_bound: int, deg_bound: int) -> BettiTable:
    """Betti numbers of a finite-length RaoModule through homological degree
    ``hom_bound``: at every step, cover the current module by a free module
    (``ideals.cover_map``) and take the minimal generators of the kernel of
    the cover (``ideals.kernel_generators``).  The module's own generators
    are one unit vector per new dimension of grade k modulo R_1 times the
    piece below.

    For a finite-length module, beta_{i,j} != 0 forces
    j <= i + (top nonzero grade), so each homological step only needs
    kernels through that certified bound (scanned one degree further as a
    consistency canary)."""
    ring = PolynomialRing(mod.field,
                          tuple(f"t{j}" for j in range(mod.nvars)))
    reg = max(mod.grades)
    gens = {}
    for k in mod.grades:
        span = np.hstack([mod._action(k - 1, j) for j in range(mod.nvars)])
        new = GradedQuotient(mod.field, span).free
        if new.size:
            gens[k] = np.eye(mod.dim(k), dtype=np.int64)[:, new]
    entries = {(0, k): G.shape[1] for k, G in gens.items()}
    complete = True
    free, image = cover_map(
        ring, gens, mod.dim,
        lambda t, j, V: matmul_mod(mod._action(t, j), V, mod.p))
    for hom in range(1, hom_bound + 1):
        scan_hi = min(reg + hom + 1, deg_bound)
        gens, _, within = kernel_generators(free, image, scan_hi)
        if not within or deg_bound < reg + hom:
            complete = False
        if any(t > reg + hom for t in gens):
            raise RaoError(
                "syzygy generators past the regularity bound: the "
                "module is not finite length as presented")
        for t, G in gens.items():
            entries[(hom, t)] = G.shape[1]
        if not gens or hom == hom_bound:
            break
        free, image = cover_map(ring, gens, free.dim, free.mul_vectors)
    return BettiTable(entries, complete=complete)


def graded_betti(mod: RaoModule, hom_bound: int = 2,
                 deg_bound: int = 8) -> BettiTable:
    """Betti table through the requested homological degree (capped at
    nvars by the syzygy theorem), in the module's reported grading.  Its
    columns 0 and 1 are the degrees of a minimal presentation: the minimal
    generators and the minimal relations.  ``complete`` is False when the
    degree bound was reached before the table stabilized."""
    if not mod.dims:
        raise RaoError("zero module has no resolution")
    hom_bound = min(hom_bound, mod.nvars)
    table = _resolve(mod, hom_bound, deg_bound)
    if mod.shift:
        table = BettiTable({(i, j - mod.shift): b
                            for (i, j), b in table.entries.items()},
                           complete=table.complete)
    return table


# -- liaison Hilbert-function arithmetic -------------------------------


def ci_hilbert(degrees, nvars: int) -> HilbertData:
    """Hilbert data of a complete intersection of the given degrees in
    ``nvars`` variables: the Hilbert function depends on the degrees alone,
    so it is that of the pure powers x_1^d_1, x_2^d_2, ..."""
    return HilbertData.from_exponents(
        [tuple(d if j == i else 0 for j in range(nvars))
         for i, d in enumerate(degrees)], nvars)


# linked_hilbert_check compares Hilbert functions in degrees 0..HF_THROUGH
HF_THROUGH = 8


def linked_hilbert_check(final: Ideal, start: Ideal, ci1_degrees,
                         ci2_degrees) -> dict:
    """Hilbert function of the output of a double link in degrees
    0..HF_THROUGH, predicted from the input and the two
    complete-intersection degree tuples alone.

    Each link identifies the new ideal modulo the complete intersection
    with a twist of the canonical module of the old scheme; composing the
    two identifications cancels the canonical module of the middle scheme
    and leaves pure Hilbert-function arithmetic:

        hf(R/final)(t) = hf(R/ci2)(t) - hf(R/ci1)(t - s) + hf(R/start)(t - s)

    with s the difference of the total degrees of the two complete
    intersections.
    """
    if final.ring is not start.ring:
        raise RaoError("ideals live in different rings")
    n = final.ring.nvars
    s = sum(ci2_degrees) - sum(ci1_degrees)
    H_final = final.hilbert()
    H_start = start.hilbert()
    H_ci1, H_ci2 = ci_hilbert(ci1_degrees, n), ci_hilbert(ci2_degrees, n)
    actual, predicted = [], []
    for t in range(HF_THROUGH + 1):
        actual.append(H_final.hf(t))
        back = t - s
        pred = H_ci2.hf(t)
        if back >= 0:
            pred += H_start.hf(back) - H_ci1.hf(back)
        predicted.append(pred)
    return {
        "actual": actual,
        "predicted": predicted,
        "match": actual == predicted,
        "shift": s,
        "through": HF_THROUGH,
    }
