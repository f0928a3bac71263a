"""Deficiency-module linear algebra for projected Veronese surfaces.

For an isomorphic projection, the failure of projective normality in each
degree k is the cokernel of the multiplication map
Sym^k(projection forms) -> (forms of degree k*d on the source), the
degree-k matrix of ideals.ring_map.  This module packages those cokernels
as a graded module over the target polynomial ring (with explicit variable
action matrices), and reads its graded Betti numbers off the ranks of
Koszul maps built from those matrices (Eisenbud, The Geometry of
Syzygies, 2005), with no free module built.  A minimal presentation is
columns 0 and 1 of that table (graded_betti with hom_bound=1)."""

from __future__ import annotations

import math
from itertools import combinations, islice

import numpy as np

from .fields import PrimeField
from .hilbert import HilbertData
from .ideals import Ideal, multiplication_matrix, ring_map
# rref_mod is unused here but stays bound: the benchmark's own tests assert
# that its tracer rebinds rao.rref_mod
from .linalg import _kernel_mod, matmul_mod, rank_mod, rref_mod  # noqa: F401
from .linalg import CellBudgetError, _as_array, zeros_over
from .veronese import ProjectionSpec, secant_avoidance


class RaoError(ValueError):
    pass


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
                A = _as_array(A, self.p)
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
        return zeros_over(self.field, (self.dim(k + 1), self.dim(k)))

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
        # grade k is (K, free) of A_k^T: the standard monomials and the
        # coordinates K^T on them
        grades = [_kernel_mod(A.T, field.p) for _, A in islice(
            ring_map(composed, spec.target_ring), kmax + 1)]
        dims = {k: len(free) for k, (_, free) in enumerate(grades)}
        actions = {
            k: [matmul_mod(grades[k + 1][0].T, multiplication_matrix(
                    f, k * d, (k + 1) * d)[:, grades[k][1]], field.p)
                for f in composed]
            for k in range(kmax)}
        return cls(field, spec.ncols, dims, actions, shift=2)


# -- graded Betti numbers by Koszul homology --------------------------


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


def _koszul_map(mod: RaoModule, i: int, k: int) -> np.ndarray:
    """The Koszul differential from wedge^i k^n (x) M_k to wedge^(i-1) k^n
    (x) M_(k+1), one block per pair of subsets of the variables, each side
    in the order of itertools.combinations: the block from e_A to
    e_(A minus a_s) is (-1)^s times the action of x_(a_s), s the position
    of a_s in A, and every other block is zero."""
    n, p = mod.nvars, mod.p
    above = list(combinations(range(n), i))
    below = {B: r for r, B in enumerate(combinations(range(n), i - 1))}
    shape = (len(below), mod.dim(k + 1), len(above), mod.dim(k))
    D = zeros_over(mod.field, shape)
    rows, cols, var, odd = zip(*(
        (below[A[:s] + A[s + 1:]], c, a, s % 2)
        for c, A in enumerate(above) for s, a in enumerate(A)))
    X = np.stack([mod._action(k, j) for j in range(n)])
    signed = np.stack([X, (p - X) % p], axis=1)
    D[rows, :, cols, :] = signed[var, odd]
    return D.reshape(shape[0] * shape[1], shape[2] * shape[3])


def graded_betti(mod: RaoModule, hom_bound: int = 2,
                 deg_bound: int = 8) -> BettiTable:
    """Betti table through the requested homological degree (capped at
    nvars by the syzygy theorem), in the module's reported grading.  Its
    columns 0 and 1 are the degrees of a minimal presentation: the minimal
    generators and the minimal relations.

    beta_{i,j} = dim Tor_i(M, k)_j, the homology of the Koszul complex
    K(x) (x) M in degree j: C(n, i) dim M_(j-i) minus the ranks of the
    Koszul maps out of and into wedge^i k^n (x) M_(j-i), each rank taken
    once for the two entries it serves.  For a finite-length module it
    vanishes unless lo + i <= j <= reg + i (the lowest and top grades plus
    i), so column i scans that range, cut at the internal degree deg_bound
    for i >= 1, and the scan stops after the first empty column.
    ``complete`` is False when a cut fell below reg + i, or when a Koszul
    map that linalg refused (CellBudgetError) ended the table there (the
    entries read before it stand)."""
    if not mod.dims:
        raise RaoError("zero module has no resolution")
    n, lo, reg = mod.nvars, min(mod.grades), max(mod.grades)
    ranks, entries, complete = {}, {}, True

    def rank(i, j):
        k = j - i
        if (i, j) not in ranks:
            ranks[i, j] = (rank_mod(_koszul_map(mod, i, k), mod.p)
                           if 1 <= i <= n and mod.dim(k) and mod.dim(k + 1)
                           else 0)
        return ranks[i, j]

    try:
        for i in range(min(hom_bound, n) + 1):
            hi = min(reg + i, deg_bound if i else reg)
            complete = complete and hi == reg + i
            before = len(entries)
            for j in range(lo + i, hi + 1):
                b = (math.comb(n, i) * mod.dim(j - i) - rank(i, j)
                     - rank(i + 1, j))
                if b:
                    entries[i, j - mod.shift] = b
            if len(entries) == before:
                break
    except CellBudgetError:
        complete = False
    return BettiTable(entries, complete=complete)


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
