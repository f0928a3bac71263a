"""Geometric ideal operations: elimination, intersection and quotient (graded
kernels certified by their Hilbert series), saturation, Hilbert data,
minors, singular loci, image ideals, matrices of forms (form_matrix, the
one builder of graded coefficient matrices: spans of graded pieces,
multiplication maps and coefficient columns), graded maps out of free
modules (cover_map, its rank-1 case ring_map, and kernel_generators) and
reducedness of zero-dimensional schemes.

Ideals are value-semantic: operations build new Ideal objects and caches hang
off each instance.
"""

from __future__ import annotations

from itertools import combinations, count
from math import comb

import numpy as np

from .groebner import GroebnerBasis, TermTable, groebner_basis, normal_form
from .groebner import reduce_rows, symbolic_preprocessing
from .hilbert import HilbertData, _poly_add, _poly_trim
from .linalg import (
    _kernel_mod,
    _modulus,
    matmul_over,
    nullspace_over,
    rref_mod,
    rank_over,
    solve_over,
    zeros_over,
)
from .mpoly import MPoly, PolynomialRing, coefficient_vector, from_coefficient_vector
from .orders import TermOrder
from .rng import as_rng
from .unipoly import UniPoly, gcd as poly_gcd


class Ideal:
    def __init__(self, ring: PolynomialRing, gens):
        self.ring = ring
        self.gens = tuple(g for g in gens if g and not g.is_zero())
        for g in self.gens:
            if g.ring is not ring:
                raise ValueError("generator outside the ideal's ring")
        self._gb: dict = {}
        self._hilbert = None

    # -- basics --------------------------------------------------------

    def is_zero_ideal(self) -> bool:
        return not self.gens

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() is not False for g in self.gens)

    def groebner(self, order: TermOrder | None = None) -> GroebnerBasis:
        key = order or self.ring.order
        if key not in self._gb:
            if not self.gens:
                ring = self.ring if order is None else self.ring.with_order(order)
                self._gb[key] = GroebnerBasis([], ring)
            else:
                self._gb[key] = groebner_basis(list(self.gens), order)
        return self._gb[key]

    def contains(self, f: MPoly) -> bool:
        if f.is_zero():
            return True
        if self.is_zero_ideal():
            return False
        G = self.groebner()
        return normal_form(G.ring.convert(f), list(G)).is_zero()

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ring.names != other.ring.names or self.ring.field != other.ring.field:
            return False
        a = self.groebner()
        b = other.groebner(self.ring.order)
        return [g.terms for g in a] == [self.ring.convert(g).terms for g in b]

    def __hash__(self):
        raise TypeError("ideals are compared by basis, not hashed")

    def __add__(self, other: "Ideal") -> "Ideal":
        if other.ring is not self.ring:
            raise ValueError("ideal sum across different rings")
        return Ideal(self.ring, self.gens + other.gens)

    def __repr__(self):
        return f"Ideal({len(self.gens)} generators over {self.ring})"

    # -- invariants ----------------------------------------------------

    def hilbert(self) -> HilbertData:
        if self._hilbert is None:
            if not self.is_homogeneous():
                raise ValueError("Hilbert data needs a homogeneous ideal")
            self._hilbert = _basis_hilbert(self.groebner().lead)
        return self._hilbert

    def dim_degree(self):
        H = self.hilbert()
        return H.dim, H.degree

    def graded_piece_dim(self, e: int) -> int:
        """dim of the degree-e slice of the ideal itself (not saturated)."""
        n = self.ring.nvars
        return comb(e + n - 1, n - 1) - self.hilbert().hf(e)


# -- elimination and the boolean-algebra operations -------------------


def eliminate(I: Ideal, k: int) -> Ideal:
    """Intersect with the subring omitting the first k variables."""
    ring = I.ring
    if k == 0:
        return I
    if k >= ring.nvars:
        raise ValueError("cannot eliminate every variable")
    G = I.groebner(TermOrder.block(k))
    small = PolynomialRing(ring.field, ring.names[k:])
    # under the block order g is free of the first k variables iff its
    # leading monomial is
    free = ~G.lead[:, :k].any(axis=1)
    return Ideal(small, [small.convert(g) for g, keep in zip(G, free)
                         if keep])


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J: the graded kernel of S -> S/I ⊕ S/J, with
    HS(S/(I ∩ J)) = HS(S/I) + HS(S/J) - HS(S/(I + J))."""
    ring = I.ring
    if J.ring is not ring:
        raise ValueError("intersection across different rings")
    if I.is_zero_ideal() or J.is_zero_ideal():
        return Ideal(ring, [])
    return _graded_kernel([(I, ring.one), (J, ring.one)], I + J, 0)


def quotient(I: Ideal, J: Ideal) -> Ideal:
    """I : J = ∩_{g ∈ gens(J)} (I : g); I : g is the graded kernel of
    S -> (S/I)(d), 1 -> g, d = deg g, whose series is (HS(S/I) -
    HS(S/(I + (g)))) / t^d by 0 -> S/(I : g)(-d) -> S/I -> S/(I + (g)) -> 0."""
    ring = I.ring
    if J.is_zero_ideal():
        raise ValueError("quotient by the zero ideal")
    if I.is_zero_ideal():
        return Ideal(ring, [])
    result = None
    for g in J.gens:
        Q = _graded_kernel([(I, g)], I + Ideal(ring, [g]), g.degree())
        result = Q if result is None else intersect(result, Q)
    return result


def _graded_kernel(blocks, B: Ideal, d: int) -> Ideal:
    """The kernel K of S -> ⊕_i (S/A_i)(deg f_i), 1 -> (f_i), which is
    ∩_i (A_i : f_i), for pairs (A_i, f_i) of a nonzero ideal and a form, when
    HS(S/K) = (Σ_i HS(S/A_i) - HS(S/B)) / t^d (as for the colon and the
    intersection above); B's Hilbert data need homogeneous input.  One
    kernel_generators scan of the rank-1 free module, whose map in degree e
    stacks the coordinates in (S/A_i)_{e + deg f_i} of f_i times the
    monomials of degree e: their normal forms modulo A_i's reduced basis, on
    the standard monomials they reach (groebner.symbolic_preprocessing and
    reduce_rows on a TermTable of the basis, the reduction macaulay_basis
    makes; no span of A_i's generators is built).  The ideal J of the
    generators through degree e lies in K, so J = K once S/J has the series
    of S/K, checked after each degree that adds generators; J keeps its
    Hilbert data.  Matrices past CELL_BUDGET raise CellBudgetError before
    they are built."""
    ring = B.ring
    num = [-c for c in B.hilbert().numerator]
    for A, _ in blocks:
        num = _poly_add(num, A.hilbert().numerator)
    target = _poly_trim(num)[d:]

    def stacked():
        tables = [(TermTable.from_polys(ring, A.groebner().basis),
                   TermTable.from_polys(ring, [f]), f.degree())
                  for A, f in blocks]
        for e in count():
            U = ring.exponents(e)
            coords = []
            for basis, X, k in tables:
                rows = [(U, np.zeros(len(U), dtype=np.intp), X)]
                pivots, rest = symbolic_preprocessing(rows, basis, e + k)
                if (len(U) + len(pivots)) * (len(pivots) + len(rest)
                                             ) > CELL_BUDGET:
                    raise CellBudgetError(
                        f"the colon in degree {e + k} passes the "
                        f"budget {CELL_BUDGET}")
                coords.append(reduce_rows(rows, basis, pivots, rest, e + k).T)
            yield e, np.vstack(coords)

    gens = []
    for e, G, _ in kernel_generators(FreeModule(ring, [0]), stacked(), None):
        if G.shape[1]:
            mons = ring.monomials_of_degree(e)
            gens.extend(from_coefficient_vector(ring, mons, v) for v in G.T)
            J = Ideal(ring, gens)
            if J.hilbert().numerator == target:
                return J


def _divide_out_last_variable(G: GroebnerBasis):
    """From a grevlex reduced basis G of a homogeneous ideal I, divide each
    element by its largest last-variable power: a basis of I : x_last^∞
    (Bayer's trick).

    For a homogeneous g under grevlex, the leading monomial carries the least
    power of the last variable among g's terms: all terms have one degree,
    and at equal degree grevlex compares that exponent first, the smaller
    one winning.  So the power k to divide out is read off g's leading
    exponent row alone, x_last^k divides every term, and dividing by one
    monomial keeps the term order."""
    ring = G.ring
    code = ring.code
    out = []
    for g, k in zip(G, G.lead[:, -1].tolist()):
        if k:
            xk = code.pack((0,) * (ring.nvars - 1) + (k,))
            g = MPoly(ring, tuple((code.divides(xk, m), c)
                                  for m, c in g.terms))
        out.append(g)
    return out


def _hp_signature(H: HilbertData):
    """The Hilbert polynomial of H at 0..n."""
    return tuple(H.hilbert_polynomial_value(e) for e in range(H.n + 1))


def _basis_hilbert(lead) -> HilbertData:
    """Hilbert data of the ideal a homogeneous Groebner basis generates,
    read from the exponent rows lead of its leading monomials."""
    return HilbertData.from_exponents(lead.tolist(), lead.shape[1])


def saturate_irrelevant(I: Ideal) -> Ideal:
    """Saturation with respect to the irrelevant maximal ideal.

    A generic linear form l avoids every associated prime except the
    irrelevant one, so I : l^∞ equals I : m^∞; the draw is certified by
    Hilbert polynomial agreement, which characterizes the saturation among
    ideals containing it.  Persistent bad draws fall back to intersecting
    I : l^∞ over l = x_n and l = x_i + x_n for i < n: these forms span the
    linear forms, so they generate m.

    I : l^∞ is one coordinate change sending l to the last variable, one
    basis and Bayer's last-variable division.  That division is valid only
    for a grevlex basis, so the moved basis is grevlex whatever the ring's
    order.  A change of coordinates keeps Hilbert data, so both are read
    from that one basis: HP(I) from its leading monomials, which I keeps
    when it has no Hilbert data yet, and HP(I : l^∞) from those of the
    divided-out basis, which the result keeps.

    I must be homogeneous: the Bayer step is only valid for a homogeneous
    basis, so an inhomogeneous I raises ValueError."""
    ring = I.ring
    if I.is_zero_ideal():
        return I
    if not I.is_homogeneous():
        raise ValueError("saturation needs a homogeneous ideal")
    field = ring.field
    n = ring.nvars
    rng = as_rng(0)
    var = ring.code.var

    def colon(coeffs, an):
        """(I : l^∞, whether HP agrees with HP(I)) for
        l = sum coeffs[k] x_k + an x_n."""
        inv_an = field.inv(an)
        fwd = ring.gens()[:-1] + [ring.from_dict({var(n - 1): inv_an, **{
            var(k): field.mul(-c, inv_an) for k, c in enumerate(coeffs)}})]
        bwd = ring.gens()[:-1] + [ring.from_dict(
            {var(n - 1): an, **{var(k): c for k, c in enumerate(coeffs)}})]
        G = groebner_basis(change_coordinates(I.gens, fwd),
                           TermOrder.grevlex())
        if I._hilbert is None:
            I._hilbert = _basis_hilbert(G.lead)
        J = Ideal(ring, change_coordinates(_divide_out_last_variable(G), bwd))
        lead = G.lead.copy()
        lead[:, -1] = 0
        J._hilbert = _basis_hilbert(lead)
        return J, _hp_signature(J._hilbert) == _hp_signature(I._hilbert)

    for attempt in range(5):
        coeffs = [field.random(rng.fork(attempt * 17 + k)) for k in range(n - 1)]
        an = field.random_nonzero(rng.fork(attempt * 17 + n))
        J, certified = colon(coeffs, an)
        if certified:
            return J
    zero, one = field.zero, field.one
    result = colon([zero] * (n - 1), one)[0]
    for i in range(n - 1):
        coeffs = [one if k == i else zero for k in range(n - 1)]
        result = intersect(result, colon(coeffs, one)[0])
    return result


# -- determinantal machinery ------------------------------------------


def matrix_det(M, rows=None, cols=None, memo=None) -> MPoly:
    """Determinant of a square submatrix of MPoly or UniPoly entries, by
    cofactor expansion with shared memoized subdeterminants.  Test oracle:
    the Pfaffian and Smith-form tests compare against it."""
    if rows is None:
        rows = tuple(range(len(M)))
    if cols is None:
        cols = tuple(range(len(M[0])))
    if memo is None:
        memo = {}
    return _det(M, tuple(rows), tuple(cols), memo)


def _det(M, rows, cols, memo):
    if len(rows) == 1:
        return M[rows[0]][cols[0]]
    key = (rows, cols)
    if key in memo:
        return memo[key]
    r0 = rows[0]
    rest = rows[1:]
    total = None
    for j, c in enumerate(cols):
        entry = M[r0][c]
        if entry.is_zero():
            continue
        sub = _det(M, rest, cols[:j] + cols[j + 1 :], memo)
        term = entry * sub
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:  # the whole row is zero
        total = M[r0][cols[0]]
    memo[key] = total
    return total


def minors_ideal(M, k: int, ring: PolynomialRing | None = None) -> Ideal:
    """Ideal of all k x k minors of a matrix of polynomials."""
    rows, cols = len(M), len(M[0])
    if not (1 <= k <= min(rows, cols)):
        raise ValueError(f"minor size {k} out of range for {rows}x{cols}")
    if ring is None:
        ring = next(e.ring for row in M for e in row if not e.is_zero())
    memo: dict = {}
    gens = []
    for rs in combinations(range(rows), k):
        for cs in combinations(range(cols), k):
            d = _det(M, rs, cs, memo)
            if not d.is_zero():
                gens.append(d)
    return Ideal(ring, gens)


def jacobian(gens):
    return [f.partials() for f in gens]


def singular_locus(I: Ideal, codim: int) -> Ideal:
    """Saturated ideal of I plus the codim x codim minors of the Jacobian of
    its generators.  Over F_p this is the locus where the Jacobian criterion
    fails, which contains the true singular locus."""
    jac = jacobian(list(I.gens))
    mins = minors_ideal(jac, codim, ring=I.ring)
    if mins.is_zero_ideal():
        raise ValueError("all Jacobian minors vanish: codimension mismatch")
    return saturate_irrelevant(I + mins)


# -- image ideals of rational maps ------------------------------------


class ImageComputation:
    """Result of image_ideal: the ideal plus the per-degree h0 table."""

    __slots__ = ("ideal", "h0")

    def __init__(self, ideal, h0):
        self.ideal = ideal
        self.h0 = h0

    def __repr__(self):
        return f"ImageComputation(h0={self.h0})"


def image_ideal(forms, target: PolynomialRing, bound: int) -> ImageComputation:
    """Kernel of the ring map target -> source sending the i-th variable to
    forms[i], generated in degrees up to bound: kernel_generators of
    ring_map, over F_p and Q.  The h0 table maps each degree 1..bound to the
    dimension of the kernel there.  Raises CellBudgetError, a ValueError,
    when a step would pass CELL_BUDGET."""
    if len(forms) != target.nvars:
        raise ValueError("need one form per target variable")
    degs = {f.is_homogeneous() for f in forms}
    if False in degs or len(degs) != 1:
        raise ValueError("forms must be homogeneous of one common degree")
    gens, h0 = [], {}
    for e, G, n in kernel_generators(*ring_map(forms, target), bound):
        if e:
            h0[e] = n
        mons = target.monomials_of_degree(e)
        gens.extend(from_coefficient_vector(target, mons, v) for v in G.T)
    return ImageComputation(Ideal(target, gens), h0)


def _product_positions(ring: PolynomialRing, T, a: int, b: int):
    """Index of m*t in ring.monomials_of_degree(b), one row per exponent
    row t of T and one column per m in ring.monomials_of_degree(a), one
    gather over the ring's index; ValueError unless every t has degree
    b - a (or there is no m)."""
    E = ring.exponents(a)
    if len(E) and (T.sum(axis=1) != b - a).any():
        raise ValueError(f"a term of degree other than {b - a}")
    return ring.positions(T[:, None, :] + E, b)


def multiplication_matrix(f: MPoly, a: int, b: int) -> np.ndarray:
    """The matrix of v -> f*v from forms of degree a to forms of degree b:
    form_matrix's 1 x 1 case."""
    return form_matrix([[f]], [a], [b])


def multiply_forms(ring: PolynomialRing, T, cs, a: int, V) -> np.ndarray:
    """The columns of V (forms of degree a on monomials_of_degree(a)) times
    the nonzero form of ring with terms cs[i] * (the monomial of exponent
    row T[i]), in zeros_over's dtype.  For each term c*t the nonzero
    entries of V go, times c, to the rows of their monomials times t; over
    F_p the residues are widened to int64 first and the sums reduced mod p
    after each term, so they stay below p + (p-1)^2 < 2^63 for every
    p < 2^31."""
    p = _modulus(ring.field)
    b = a + int(T[0].sum())
    out = zeros_over(ring.field, (len(ring.exponents(b)),
                                  V.shape[1]))
    r, k = np.nonzero(V)
    vals = V[r, k] if p is None else V[r, k].astype(np.int64)
    for shifted, c in zip(_product_positions(ring, T, a, b), cs):
        dest = shifted[r]
        acc = out[dest, k] + c * vals
        out[dest, k] = acc if p is None else acc % p
    return out


def form_matrix(P, src, tgt) -> np.ndarray:
    """The matrix of s -> P s, from vectors of forms of degrees src to
    vectors of forms of degrees tgt, on the coordinates forms_from_vector
    reads, in zeros_over's dtype: block (i, j) has rows
    monomials_of_degree(tgt[i]) and columns monomials_of_degree(src[j]),
    and its column m holds the coefficients of P[i][j] * m.  Every entry of
    P is a polynomial (possibly zero) of one ring; a negative degree has no
    monomials.  A term of a nonzero entry of any degree other than
    tgt[i] - src[j] raises ValueError (unless block (i, j) has no columns),
    and a matrix of more than CELL_BUDGET cells raises CellBudgetError
    before it is allocated."""
    ring = P[0][0].ring
    rows = np.cumsum([0] + [len(ring.exponents(b)) for b in tgt])
    cols = np.cumsum([0] + [len(ring.exponents(a)) for a in src])
    if rows[-1] * cols[-1] > CELL_BUDGET:
        raise CellBudgetError(f"a matrix of forms of degree {max(tgt)} "
                              f"passes the budget {CELL_BUDGET}")
    M = zeros_over(ring.field, (rows[-1], cols[-1]))
    # the entries by (source, target) degree, placed in batches of about
    # _BATCH cells: one unpack, one gather and one write per batch
    groups: dict[tuple, list] = {}
    for i, b in enumerate(tgt):
        for j, a in enumerate(src):
            if P[i][j]:
                groups.setdefault((a, b), []).append((rows[i], cols[j],
                                                      P[i][j]))
    for (a, b), entries in groups.items():
        width, batch, cells = len(ring.exponents(a)), [], 0
        for k, entry in enumerate(entries):
            batch.append(entry)
            cells += len(entry[2]) * width
            if cells < _BATCH and k + 1 < len(entries):
                continue
            lens = [len(f) for _, _, f in batch]
            at = _product_positions(ring, ring.code.unpack_rows(
                [m for _, _, f in batch for m, _ in f.terms]), a, b)
            r0 = np.repeat([r for r, _, _ in batch], lens)[:, None]
            c0 = np.repeat([c for _, c, _ in batch], lens)[:, None]
            M[r0 + at, c0 + np.arange(width)] = np.array(
                [c for _, _, f in batch for _, c in f.terms])[:, None]
            batch, cells = [], 0
    return M


# cells of form_matrix placed per batch
_BATCH = 1 << 18


def forms_from_vector(ring: PolynomialRing, x, degs) -> list[MPoly]:
    """The forms of degrees degs whose coefficients on
    monomials_of_degree, one block after the other, make up x."""
    out, k = [], 0
    for d in degs:
        mons = ring.monomials_of_degree(d)
        out.append(from_coefficient_vector(ring, mons, x[k:k + len(mons)]))
        k += len(mons)
    return out


# the largest matrix (in cells) a cover_map degree, a kernel_generators step
# or a Koszul map of rao may build; past it the scan stops and reports
# itself incomplete
CELL_BUDGET = 250_000_000


class CellBudgetError(ValueError):
    """A matrix would have more than CELL_BUDGET cells; it was not built."""


class FreeModule:
    """Graded free module over a polynomial ring with generators of the given
    degrees.  Its degree-t basis is the pairs (i, m), m a monomial of degree
    t - deg(generator i), generator by generator and then in the order of
    monomials_of_degree, so generator i's block starts at offsets(t)[i];
    multiplication by a variable maps basis elements to basis elements, and
    ``var_map`` finds their positions with the ring's index."""

    def __init__(self, ring: PolynomialRing, gen_degrees):
        self.ring = ring
        self.gen_degrees = list(gen_degrees)
        self._var_maps = {}

    def offsets(self, t: int) -> np.ndarray:
        """Where each generator's block starts in degree t, then the
        dimension."""
        return np.cumsum([0] + [len(self.ring.exponents(t - a))
                                for a in self.gen_degrees])

    def dim(self, t: int) -> int:
        return int(self.offsets(t)[-1])

    def var_map(self, t: int, j: int) -> np.ndarray:
        """Index array: position of x_j * (basis element of degree t)
        inside the degree-(t+1) basis."""
        if (t, j) not in self._var_maps:
            ring, up = self.ring, self.offsets(t + 1)
            unit = np.eye(ring.nvars, dtype=np.int32)[j]
            shifted = {a: ring.positions(ring.exponents(t - a) + unit,
                                         t + 1 - a)
                       for a in set(self.gen_degrees)}
            self._var_maps[t, j] = np.concatenate(
                [up[i] + shifted[a] for i, a in enumerate(self.gen_degrees)]
                ).astype(np.intp)
        return self._var_maps[t, j]

    def mul_vectors(self, t: int, j: int, V: np.ndarray) -> np.ndarray:
        """Multiply the columns of V (vectors in degree t) by x_j."""
        out = zeros_over(self.ring.field, (self.dim(t + 1), V.shape[1]))
        if V.shape[0]:
            out[self.var_map(t, j)] = V
        return out


def cover_map(ring: PolynomialRing, gens: dict, target_dim, mul):
    """(free, images): the free module over ring with one generator of
    degree t per column of gens[t], and a generator of the matrices of the
    map sending each generator to its column.  ``images`` yields (t, A_t),
    A_t the target_dim(t) x free.dim(t) matrix in degree t, for t = the
    lowest generator degree, then t + 1, and so on without end; the caller
    stops reading at the degree it needs.  ``mul(t, j, V)`` multiplies the
    columns of V (target vectors of degree t) by x_j.  The image of m times
    a generator is x_j times that of m / x_j, x_j the first variable of m,
    so each degree takes one mul per first variable on the degree before
    it, and the generator lets go of that degree before it yields the new
    one; the first variables and the positions of the m / x_j are gathers
    over the ring's index (PolynomialRing.quotient_positions).  It raises
    CellBudgetError instead of building a matrix of more than CELL_BUDGET
    cells."""
    degrees = sorted(gens)
    free = FreeModule(ring, [t for t in degrees
                             for _ in range(gens[t].shape[1])])

    def first_parents(k):
        """The first variable j of each monomial m of degree k >= 1 and the
        position of m / x_j in degree k - 1."""
        first = (ring.exponents(k) > 0).argmax(axis=1)
        return first, ring.quotient_positions(k)[np.arange(len(first)),
                                                  first]

    def images():
        A = None
        for t in count(degrees[0]):
            if target_dim(t) * free.dim(t) > CELL_BUDGET:
                raise CellBudgetError(f"degree {t} of a graded map "
                                      f"passes the budget {CELL_BUDGET}")
            below = A
            A = zeros_over(ring.field, (target_dim(t), free.dim(t)))
            at, down = free.offsets(t), free.offsets(t - 1)
            if t in gens:  # the generators of degree t, in order
                A[:, at[free.gen_degrees.index(t)] + np.arange(
                    gens[t].shape[1])] = gens[t]
            split = {a: first_parents(t - a)
                     for a in set(free.gen_degrees) if a < t}
            firsts, cols, parents = [], [], []
            for i, a in enumerate(free.gen_degrees):
                if a < t:
                    first, parent = split[a]
                    firsts.append(first)
                    cols.append(at[i] + np.arange(len(first)))
                    parents.append(down[i] + parent)
            if firsts:
                firsts, cols, parents = map(np.concatenate,
                                            (firsts, cols, parents))
                for j in range(ring.nvars):
                    mine = firsts == j
                    if mine.any():
                        A[:, cols[mine]] = mul(t - 1, j,
                                               below[:, parents[mine]])
            # not held while suspended: the caller may drop degree t - 1
            below = None
            yield t, A

    return free, images()


def ring_map(forms, target: PolynomialRing):
    """The ring map target -> source sending x_i to forms[i] (homogeneous
    of one degree d; a zero form acts as zero), as the cover_map of the
    rank-1 free module whose generator goes to 1: its images start at
    degree 0, and column m of the degree-e matrix holds the coefficients of
    the image of the m-th monomial of degree e on
    source.monomials_of_degree(d*e), in zeros_over's dtype."""
    source = forms[0].ring
    field = source.field
    d = max(f.degree() for f in forms)
    if any(f and f.degree() != d for f in forms):
        raise ValueError("forms of different degrees")
    # each nonzero form's exponent rows and coefficients, unpacked once
    terms = [f and (source.code.unpack_rows([m for m, _ in f.terms]),
                    [c for _, c in f.terms]) for f in forms]

    def dim(t):
        return len(source.exponents(d * t))

    def mul(t, i, V):
        if forms[i]:
            return multiply_forms(source, *terms[i], d * t, V)
        return zeros_over(field, (dim(t + 1), V.shape[1]))

    return cover_map(target, {0: zeros_over(field, (1, 1)) + field.one},
                     dim, mul)


def kernel_generators(free: FreeModule, images, hi: int | None):
    """Minimal generators of the kernel of a graded map from free, where
    ``images`` yields its matrices (t, A_t) in increasing degree from the
    lowest generator degree (a cover_map stream).  Yields (t, G_t,
    dim ker A_t) for each degree t through hi, G_t the generators of
    degree t as columns (possibly none), and reads no degree past hi; with
    hi None it reads on until the caller stops.
    Raises CellBudgetError when A_t or the span below would have more than
    CELL_BUDGET cells; the degrees yielded before it stand.

    The generators of degree t are the columns of K_t = ker A_t that
    greedy elimination of [span | K_t] keeps beyond the span block,
    span = [x_j K_{t-1}]_j.  That choice depends only on the column space
    of the span, which is the degree-t piece of the submodule generated in
    lower degrees.  One elimination finds them, in kernel coordinates
    (``_kernel_mod``: K_t[coords] = I):

    - span lies in ker A_t, as A is a module map, and v -> v[coords] is
      injective there (v = K_t v[coords]).  So span = K_t S with
      S = span[coords], and [span | K_t] = K_t [S | I] has the column
      dependencies, hence the pivot columns, of [S | I].
    - Greedy [S | I] keeps e_i exactly when e_i is not in
      span(S) + span(e_0, ..., e_{i-1}), that is, when no vector of
      span(S) has its last nonzero coordinate at i (such a vector,
      scaled, is e_i plus earlier unit vectors, and conversely).  Those
      last nonzero coordinates are the first nonzero columns of the
      row space of S^T[:, ::-1]: the pivots of its RREF.
    """
    p = _modulus(free.ring.field)
    nvars = free.ring.nvars
    K = None
    lo = min(free.gen_degrees)
    # the range comes first, so zip stops before reading a degree past hi
    for t, (_, A) in zip(count(lo) if hi is None else range(lo, hi + 1),
                         images):
        prev, (K, coords) = K, _kernel_mod(A, p)
        n = coords.size
        fresh = np.ones(n, dtype=bool)
        if prev is not None and prev.shape[1] and n:
            if nvars * prev.shape[1] * n > CELL_BUDGET:
                raise CellBudgetError(f"the span of degree {t} passes the "
                                      f"budget {CELL_BUDGET}")
            rows = coords[::-1]
            _, pivots = rref_mod(np.vstack(
                [free.mul_vectors(t - 1, j, prev)[rows].T
                 for j in range(nvars)]), p)
            fresh[n - 1 - np.asarray(pivots, dtype=np.intp)] = False
        prev = None  # not held while suspended, as in cover_map
        yield t, K[:, fresh], n


def change_coordinates(polys, forms):
    """The homogeneous polynomials polys with the i-th variable of their ring
    replaced by forms[i]: one form per variable, all of one degree d
    (linear forms for a change of coordinates).  The polynomials of each
    degree e, the form_matrix of their row from degree 0 (ValueError for an
    inhomogeneous one); one product of the degree-e matrix of
    ring_map(forms, ...) with it gives the coefficients of all their images
    on the monomials of degree d*e, so their terms come out sorted.
    Degrees go in increasing order, and only the current one of the map is
    kept."""
    polys = list(polys)
    if not polys:
        return []
    ring, source = polys[0].ring, forms[0].ring
    field = ring.field
    d = max(f.degree() for f in forms)
    by_degree: dict[int, list[int]] = {}
    for k, f in enumerate(polys):
        if f:  # zero polynomials stay zero
            by_degree.setdefault(ring.code.deg(f.lm), []).append(k)
    images = [source.zero] * len(polys)
    _, maps = ring_map(forms, ring)
    for e, ks in sorted(by_degree.items()):
        C = form_matrix([[polys[k] for k in ks]], [0] * len(ks), [e])
        smons = source.monomials_of_degree(d * e)
        M = matmul_over(field, next(A for t, A in maps if t == e), C)
        for k, col in zip(ks, M.T):
            nz = np.flatnonzero(col)
            images[k] = MPoly(source, tuple(zip(
                [smons[r] for r in nz.tolist()], col[nz].tolist())))
    return images


# -- zero-dimensional schemes -----------------------------------------


def zero_dim_reduced_check(I: Ideal, seed=0) -> dict:
    """Decide whether a zero-dimensional projective scheme is reduced.

    Multiplication by a random linear form between two stabilized graded
    slices of R/I gives an operator whose minimal polynomial is squarefree of
    degree = scheme degree exactly when the scheme is reduced (for a general
    form).  Degenerate draws are retried; persistent failure reports
    status "inconclusive" and never claims reducedness.

    The slices are quotients of the spans of the generators' monomial
    multiples (one form_matrix row), each the kernel (K, free) of the span's
    transpose: the free columns are the standard monomials, and K^T gives
    the coordinates of the operator's matrices, which are normal forms.
    Beyond the Hilbert data of I the check needs no Groebner basis.
    """
    H = I.hilbert()
    if H.dim != 0:
        raise ValueError(f"scheme has dimension {H.dim}, expected 0")
    deg = H.degree
    e = 0
    while not (H.hf(e) == deg and H.hf(e + 1) == deg):
        e += 1
        if e > 400:
            raise RuntimeError("Hilbert function failed to stabilize")
    ring = I.ring
    field = ring.field
    rng = as_rng(seed)
    (_, free), (K, free1) = (_kernel_mod(form_matrix(
        [I.gens], [k - g.degree() for g in I.gens], [k]).T, _modulus(field))
        for k in (e, e + 1))
    if len(free) != deg or len(free1) != deg:
        # the generators disagree with the Hilbert data
        return {"reduced": False, "degree": deg, "status": "inconclusive"}

    def mult_matrix(ell):
        return matmul_over(field, K.T,
                           multiplication_matrix(ell, e, e + 1)[:, free])

    for attempt in range(5):
        l0 = ring.random_form(1, rng.fork(2 * attempt))
        l1 = ring.random_form(1, rng.fork(2 * attempt + 1))
        A0 = mult_matrix(l0)
        if rank_over(field, A0) != deg:
            continue
        A1 = mult_matrix(l1)
        T = solve_over(field, A0, A1)
        mp = _matrix_minpoly(field, T)
        squarefree = (
            mp.degree >= 1
            and poly_gcd(mp, mp.derivative()).degree == 0
        )
        return {
            "reduced": squarefree and mp.degree == deg,
            "degree": deg,
            "minpoly_degree": mp.degree,
            "squarefree": squarefree,
            "status": "ok",
        }
    return {"reduced": False, "degree": deg, "status": "inconclusive"}


def _matrix_minpoly(field, T) -> UniPoly:
    """The minimal polynomial of the n x n matrix T: the first kernel
    vector of the n^2 x (n + 1) matrix whose columns are vec(T^0), ...,
    vec(T^n).  The kernel has K[free] = I, so that vector is monic and of
    degree the first free column, the first power of T that depends on the
    powers before it."""
    n = len(T)
    powers = zeros_over(field, (n * n, n + 1))
    P = zeros_over(field, (n, n))
    np.fill_diagonal(P, field.one)
    for i in range(n + 1):
        powers[:, i] = P.reshape(-1)
        P = matmul_over(field, P, T)
    return UniPoly(field, nullspace_over(field, powers)[:, 0])


# -- linear sections --------------------------------------------------


def linear_section_reduce(I: Ideal, forms) -> Ideal:
    """Restrict I to the linear subspace cut out by independent linear forms.
    The subspace is the kernel (K, free) = _kernel_mod of the forms'
    coefficient rows, with the free variables as coordinates: variable j
    becomes the form with coefficients K[j] on them (a free variable's row
    is a unit vector, so it stays itself)."""
    ring = I.ring
    field = ring.field
    n = ring.nvars
    rows = []
    for f in forms:
        if f.is_homogeneous() != 1:
            raise ValueError("section forms must be linear and homogeneous")
        rows.append(coefficient_vector(f, [ring.code.var(i) for i in range(n)]))
    K, free = _kernel_mod(rows, _modulus(field))
    if free.size != n - len(forms):
        raise ValueError("section forms are linearly dependent")
    if not free.size:
        raise ValueError("section forms cut out only the origin")
    small = PolynomialRing(field, tuple(ring.names[j] for j in free))
    xs = [small.code.var(idx) for idx in range(free.size)]
    images = {name: from_coefficient_vector(small, xs, K[j])
              for j, name in enumerate(ring.names)}
    gens = [g.substitute(images) for g in I.gens]
    return Ideal(small, [g for g in gens if not g.is_zero()])
