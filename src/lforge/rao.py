"""Deficiency-module linear algebra for projected Veronese surfaces.

For an isomorphic projection, the failure of projective normality in each
degree k is the cokernel of the multiplication map
Sym^k(projection forms) -> (forms of degree k*d on the source), which is
pure finite-field linear algebra.  This module packages those cokernels as
a graded module over the target polynomial ring (with explicit variable
action matrices), and resolves such modules degree by degree: minimal
generators, presentation, and graded Betti numbers via iterated minimal
covers -- no syzygy Groebner bases anywhere.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .fields import PrimeField
from .ideals import Ideal
from .linalg import nullspace_mod, rank_mod, rref_mod
from .mpoly import PolynomialRing, coefficient_vector
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
                    lhs = self._action(k + 1, i) @ self._action(k, j) % self.p
                    rhs = self._action(k + 1, j) @ self._action(k, i) % self.p
                    if not np.array_equal(lhs, rhs):
                        return False
        return True

    def act_matrix(self, k: int, exps) -> np.ndarray:
        """Matrix of multiplication by the monomial with exponents ``exps``
        from grade k to grade k + sum(exps)."""
        M = np.eye(self.dim(k), dtype=np.int64)
        grade = k
        for j, e in enumerate(exps):
            for _ in range(e):
                M = self._action(grade, j) @ M % self.p
                grade += 1
        return M

    # -- construction from a Veronese projection -----------------------

    @classmethod
    def from_projection(cls, spec: ProjectionSpec, kmax: int = 4,
                        certify: bool = True, shift: int = 2) -> "RaoModule":
        """Cokernels of the multiplication maps of the composed forms.

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
        p = field.p
        ring = spec.source_ring
        composed = spec.composed_forms()
        d = composed[0].degree()
        nvars = spec.ncols

        # degree-k products of the composed forms, indexed by exponent
        # vectors; built incrementally to reuse lower products
        products = {(0,) * nvars: ring.one}
        layers = [list(products)]
        for k in range(1, kmax + 1):
            layer = []
            for exps in layers[-1]:
                for j in range(nvars):
                    new = exps[:j] + (exps[j] + 1,) + exps[j + 1:]
                    if new not in products:
                        products[new] = products[exps] * composed[j]
                        layer.append(new)
            layers.append(layer)

        bases, rrefs, frees = {}, {}, {}
        dims = {}
        for k in range(kmax + 1):
            basis = ring.monomials_of_degree(k * d)
            rows = [coefficient_vector(products[e], basis)
                    for e in layers[k]]
            R, pivots = rref_mod(_np(rows), p)
            free = [c for c in range(len(basis)) if c not in set(pivots)]
            bases[k] = basis
            rrefs[k] = (R[:len(pivots)], pivots)
            frees[k] = free
            dims[k] = len(free)

        def coker_coords(k, vec):
            R, pivots = rrefs[k]
            vec = vec % p
            if pivots:
                vec = (vec - vec[pivots] @ R) % p
            return vec[frees[k]]

        actions = {}
        for k in range(kmax):
            mats = []
            for j in range(nvars):
                cols = []
                for f in frees[k]:
                    g = composed[j].mul_term(bases[k][f], field.one)
                    cols.append(coker_coords(
                        k + 1, _np(coefficient_vector(g, bases[k + 1]))))
                A = (np.column_stack(cols) if cols
                     else np.zeros((dims[k + 1], 0), dtype=np.int64))
                mats.append(A)
            actions[k] = mats
        mod = cls(field, nvars, dims, actions, shift=shift)
        mod._tail_certified = (dims.get(kmax, 0) == 0)
        return mod


def rao_hilbert(spec: ProjectionSpec, grades, certify: bool = True):
    """Per-grade cokernel dimensions of the multiplication maps (the
    Hilbert function of the deficiency module, reported from grade 0)."""
    ks = list(grades)
    mod = RaoModule.from_projection(spec, kmax=max(ks), certify=certify)
    return mod.hilbert_values(ks)


# -- free modules and degree-by-degree resolution ----------------------


class _Free:
    """Graded free module over an nvars-variable polynomial ring, with
    per-degree monomial-indexed bases and variable multiplication maps."""

    def __init__(self, ring: PolynomialRing, gen_degrees):
        self.ring = ring
        self.gen_degrees = list(gen_degrees)
        self._basis = {}
        self._pos = {}
        self._var_maps = {}

    def basis(self, t: int):
        if t not in self._basis:
            out = []
            for i, a in enumerate(self.gen_degrees):
                if t >= a:
                    out.extend((i, m)
                               for m in self.ring.monomials_of_degree(t - a))
            self._basis[t] = out
            self._pos[t] = {bm: idx for idx, bm in enumerate(out)}
        return self._basis[t]

    def dim(self, t: int) -> int:
        return len(self.basis(t))

    def var_map(self, t: int, j: int) -> np.ndarray:
        """Index array: position of x_j * (basis element of degree t)
        inside the degree-(t+1) basis."""
        if (t, j) not in self._var_maps:
            code = self.ring.code
            v = code.var(j)
            self.basis(t + 1)
            pos = self._pos[t + 1]
            self._var_maps[t, j] = _np([pos[(i, code.mul(m, v))]
                                        for i, m in self.basis(t)])
        return self._var_maps[t, j]

    def mul_vectors(self, t: int, j: int, V: np.ndarray) -> np.ndarray:
        """Multiply the columns of V (vectors in degree t) by x_j."""
        out = np.zeros((self.dim(t + 1), V.shape[1]), dtype=np.int64)
        if V.shape[0]:
            out[self.var_map(t, j)] = V
        return out


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
        return sum((-1) ** i * b for (i, _), b in self.entries.items())

    def hilbert_value(self, t: int, nvars: int) -> int:
        """Alternating binomial count at degree t (equals the module's
        Hilbert function when the table is complete)."""
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

    def to_json(self) -> str:
        return json.dumps({
            "betti": [[i, j, b] for (i, j), b in sorted(self.entries.items())],
            "complete": self.complete,
        })


# the largest matrix (in cells) one resolution step may build; past it the
# resolution stops and reports itself incomplete
CELL_BUDGET = 250_000_000


class _Resolver:
    """Minimal free resolution of a finite-length RaoModule by graded
    linear algebra: at every homological step, find the minimal generators
    of the current syzygy module (new vectors modulo R_1 times the lower
    degree), then take per-degree kernels of the induced cover."""

    def __init__(self, mod: RaoModule, deg_bound: int):
        self.mod = mod
        self.p = mod.p
        self.deg_bound = deg_bound
        names = tuple(f"t{j}" for j in range(mod.nvars))
        self.ring = PolynomialRing(mod.field, names)

    def generator_grades(self):
        """Minimal generators of the module itself: new dimensions modulo
        the image of R_1 times the previous piece."""
        mod = self.mod
        out = {}
        lifts = {}
        for k in mod.grades:
            prev = [mod._action(k - 1, j) for j in range(mod.nvars)
                    if mod.dim(k - 1)]
            if prev:
                span = np.hstack(prev)
                R, pivots = rref_mod(span.T, self.p)
            else:
                pivots = []
            free = [c for c in range(mod.dim(k)) if c not in set(pivots)]
            if free:
                out[k] = len(free)
                E = np.zeros((mod.dim(k), len(free)), dtype=np.int64)
                for idx, f in enumerate(free):
                    E[f, idx] = 1
                lifts[k] = E
        return out, lifts

    def _cover_kernels(self, free: _Free, image_of, scan_hi: int):
        """Per-degree kernels of the map free -> target, where
        ``image_of(t)`` returns the matrix of the map in degree t, scanned
        through degree ``scan_hi``.  Returns (new generator counts per
        degree, kernel bases per degree, within-budget flag)."""
        t0 = min(free.gen_degrees)
        kernels = {}
        newgens = {}
        for t in range(t0, scan_hi + 1):
            A = image_of(t)
            if A.size > CELL_BUDGET:
                return newgens, kernels, False
            K = nullspace_mod(A, self.p)
            kernels[t] = K
            prev = kernels.get(t - 1)
            if prev is not None and prev.shape[1]:
                span = np.hstack([free.mul_vectors(t - 1, j, prev)
                                  for j in range(self.mod.nvars)])
                r = rank_mod(span.T, self.p)
            else:
                r = 0
            fresh = K.shape[1] - r
            if fresh:
                newgens[t] = fresh
        return newgens, kernels, True

    def _minimal_generators(self, free: _Free, kernels: dict, newgens: dict):
        """Explicit generator vectors: a complement of R_1 times the lower
        degree inside each kernel, one matrix of column vectors per degree."""
        gens = {}
        for t, count in sorted(newgens.items()):
            K = kernels[t]
            prev = kernels.get(t - 1)
            if prev is not None and prev.shape[1]:
                span = np.hstack([free.mul_vectors(t - 1, j, prev)
                                  for j in range(self.mod.nvars)])
            else:
                span = np.zeros((free.dim(t), 0), dtype=np.int64)
            # pivot columns of [span | K] beyond the span block mark kernel
            # columns independent of the lower-degree multiples
            stacked = np.hstack([span, K])
            _, pivots = rref_mod(stacked, self.p)
            chosen = [c - span.shape[1] for c in pivots if c >= span.shape[1]]
            if len(chosen) != count:
                raise RaoError("generator count mismatch in minimal cover")
            gens[t] = K[:, chosen]
        return gens

    def _free_map(self, next_free: _Free, prev_free: _Free, vec_list):
        """Matrix of the cover F_i -> F_{i-1} in a given degree, where
        ``vec_list[i] = (degree, vector in F_{i-1})`` is the image of the
        i-th generator of F_i."""
        code = self.ring.code
        cache = {}

        def column(i, m):
            key = (i, m)
            if key not in cache:
                a, v = vec_list[i]
                exps = code.unpack(m)
                if sum(exps) == 0:
                    cache[key] = (a, v)
                else:
                    j = next(j for j, e in enumerate(exps) if e)
                    d, w = column(i, code.divides(code.var(j), m))
                    cache[key] = (d + 1, prev_free.mul_vectors(
                        d, j, w.reshape(-1, 1))[:, 0])
            return cache[key]

        def image(t):
            out = np.zeros((prev_free.dim(t), next_free.dim(t)),
                           dtype=np.int64)
            for idx, (i, m) in enumerate(next_free.basis(t)):
                out[:, idx] = column(i, m)[1]
            return out

        return image

    def resolve(self, hom_bound: int):
        """Betti numbers through homological degree ``hom_bound``.

        For a finite-length module, beta_{i,j} != 0 forces
        j <= i + (top nonzero grade), so each homological step only needs
        kernels through that certified bound (scanned one degree further
        as a consistency canary)."""
        mod = self.mod
        reg = max(mod.grades)
        entries = {}
        complete = True

        gen_counts, lifts = self.generator_grades()
        for k, c in gen_counts.items():
            entries[(0, k)] = c
        free = _Free(self.ring, [k for k, c in sorted(gen_counts.items())
                                 for _ in range(c)])
        gen_vecs0 = _gen_columns(gen_counts, lifts)

        # map F0 -> M in degree t: generator (at grade a) times monomial m
        def image0(t):
            out = np.zeros((mod.dim(t), free.dim(t)), dtype=np.int64)
            code = self.ring.code
            for idx, (i, m) in enumerate(free.basis(t)):
                a = free.gen_degrees[i]
                act = mod.act_matrix(a, code.unpack(m))
                out[:, idx] = act @ gen_vecs0[i] % self.p
            return out

        step_free = free
        step_image = image0
        for hom in range(1, hom_bound + 1):
            scan_hi = min(reg + hom + 1, self.deg_bound)
            newgens, kernels, within = self._cover_kernels(
                step_free, step_image, scan_hi)
            if not within or self.deg_bound < reg + hom:
                complete = False
            if any(t > reg + hom for t in newgens):
                raise RaoError(
                    "syzygy generators past the regularity bound: the "
                    "module is not finite length as presented")
            for t, c in newgens.items():
                entries[(hom, t)] = c
            if not newgens:
                break
            if hom == hom_bound:
                break
            gen_mats = self._minimal_generators(step_free, kernels, newgens)
            degs = [t for t, c in sorted(newgens.items()) for _ in range(c)]
            vec_list = []
            for t in sorted(newgens):
                G = gen_mats[t]
                vec_list.extend((t, G[:, c]) for c in range(G.shape[1]))
            next_free = _Free(self.ring, degs)
            step_image = self._free_map(next_free, step_free, vec_list)
            step_free = next_free
        return BettiTable(entries, complete=complete)


def _gen_columns(gen_counts, lifts):
    """Flatten per-grade lift matrices into one vector per generator, in
    the same order _Free enumerates them."""
    out = []
    for k in sorted(gen_counts):
        E = lifts[k]
        out.extend(E[:, c] for c in range(E.shape[1]))
    return out


class RaoPresentation:
    def __init__(self, generators: dict, relations: dict, shift: int):
        self.generators = dict(generators)
        self.relations = dict(relations)
        self.shift = shift

    def generator_degrees(self):
        return {k - self.shift: c for k, c in self.generators.items()}

    def relation_degrees(self):
        return {k - self.shift: c for k, c in self.relations.items()}

    @property
    def lowest_grade_only(self) -> bool:
        return len(self.generators) == 1

    def as_dict(self):
        return {
            "generators": {str(k): v
                           for k, v in sorted(self.generator_degrees().items())},
            "relations": {str(k): v
                          for k, v in sorted(self.relation_degrees().items())},
        }


def rao_presentation(mod: RaoModule, deg_bound: int = 8) -> RaoPresentation:
    """Minimal generators and minimal relations (the degrees of a minimal
    presentation), computed degree by degree.  Raises when the degree
    bound is reached before the relation degrees stabilize."""
    if not mod.dims:
        raise RaoError("zero module has no presentation")
    res = _Resolver(mod, deg_bound)
    gen_counts, lifts = res.generator_grades()
    table = res.resolve(1)
    if not table.complete:
        raise RaoError(
            f"bound insufficient: relations not stabilized by degree "
            f"{deg_bound}")
    relations = table.column(1)
    return RaoPresentation(gen_counts, relations, mod.shift)


def graded_betti(mod: RaoModule, hom_bound: int = 2, deg_bound: int = 8,
                 expected: dict | None = None):
    """Betti table through the requested homological degree (capped at
    nvars by the syzygy theorem), with an optional cell-by-cell comparison
    report against an expected table given in the module's reported
    grading."""
    if not mod.dims:
        raise RaoError("zero module has no resolution")
    hom_bound = min(hom_bound, mod.nvars)
    res = _Resolver(mod, deg_bound)
    table = res.resolve(hom_bound)
    if mod.shift:
        table = BettiTable({(i, j - mod.shift): b
                            for (i, j), b in table.entries.items()},
                           complete=table.complete)
    if expected is None:
        return table
    return table, table.compare(expected)


# -- liaison Hilbert-function arithmetic -------------------------------


def ci_hilbert_value(degrees, nvars: int, t: int) -> int:
    """Hilbert function of a complete intersection of the given degrees
    in ``nvars`` variables, by Koszul inclusion-exclusion."""
    total = 0
    for mask in range(1 << len(degrees)):
        s = 0
        bits = 0
        for i, d in enumerate(degrees):
            if mask >> i & 1:
                s += d
                bits += 1
        total += (-1) ** bits * _binom(t - s + nvars - 1, nvars - 1)
    return total


def linked_hilbert_check(final: Ideal, start: Ideal, ci1_degrees,
                         ci2_degrees, through: int = 8) -> dict:
    """Hilbert function of the output of a double link, predicted from the
    input and the two complete-intersection degree tuples alone.

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
    actual, predicted = [], []
    for t in range(through + 1):
        actual.append(H_final.hf(t))
        back = t - s
        pred = ci_hilbert_value(ci2_degrees, n, t)
        if back >= 0:
            pred += H_start.hf(back) - ci_hilbert_value(ci1_degrees, n, back)
        predicted.append(pred)
    return {
        "actual": actual,
        "predicted": predicted,
        "match": actual == predicted,
        "shift": s,
        "through": through,
    }
