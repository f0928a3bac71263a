"""Geometric ideal operations: elimination, intersection, quotient,
saturation, Hilbert data, minors, singular loci, image ideals, graded pieces,
graded maps out of free modules (cover_map, its rank-1 case ring_map, and
kernel_generators) and reducedness of zero-dimensional schemes.

Ideals are value-semantic: operations build new Ideal objects and caches hang
off each instance.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .groebner import GroebnerBasis, groebner_basis, normal_form
from .hilbert import HilbertData
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
            self._hilbert = _basis_hilbert(self.groebner(), self.ring)
        return self._hilbert

    def dim_degree(self):
        H = self.hilbert()
        return H.dim, H.degree

    def graded_piece_dim(self, e: int) -> int:
        """dim of the degree-e slice of the ideal itself (not saturated)."""
        from math import comb

        if not self.is_homogeneous():
            raise ValueError("graded piece of an inhomogeneous ideal")
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
    unpack = G.ring.code.unpack
    small = PolynomialRing(ring.field, ring.names[k:])
    # under the block order g is free of the first k variables iff its
    # leading monomial is
    return Ideal(small, [small.convert(g) for g in G
                         if not any(unpack(g.lm)[:k])])


def _aux_name(names):
    base = "t_aux"
    while base in names:
        base += "_"
    return base


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J via t·I + (1−t)·J with t eliminated."""
    ring = I.ring
    if J.ring is not ring:
        raise ValueError("intersection across different rings")
    if I.is_zero_ideal() or J.is_zero_ideal():
        return Ideal(ring, [])
    t_name = _aux_name(ring.names)
    big = PolynomialRing(ring.field, (t_name,) + ring.names, TermOrder.block(1))
    t = big.var(0)
    gens = [t * big.convert(f) for f in I.gens]
    gens += [(big.one - t) * big.convert(g) for g in J.gens]
    E = eliminate(Ideal(big, gens), 1)
    return Ideal(ring, [ring.convert(g) for g in E.gens])


def quotient(I: Ideal, J: Ideal) -> Ideal:
    """Ideal quotient I : J = ∩_{g ∈ gens(J)} (I : g)."""
    ring = I.ring
    if J.is_zero_ideal():
        raise ValueError("quotient by the zero ideal")
    result = None
    for g in J.gens:
        K = intersect(I, Ideal(ring, [g]))
        Q = Ideal(ring, [h.exact_div(g) for h in K.gens])
        result = Q if result is None else intersect(result, Q)
    return result


def saturate(I: Ideal, J: Ideal) -> Ideal:
    """I : J^∞ by iterating the quotient to a fixed point.  Test oracle for
    saturate_irrelevant (test_ideals.py)."""
    if J.is_zero_ideal():
        raise ValueError("saturation by the zero ideal")
    cur = I
    while True:
        nxt = quotient(cur, J)
        if nxt == cur:
            return cur
        cur = nxt


def _divide_out_last_variable(gens, ring):
    """From a grevlex reduced basis of a homogeneous ideal I, divide each
    element by its largest last-variable power: a basis of I : x_last^∞
    (Bayer's trick).

    For a homogeneous g under grevlex, the leading monomial carries the least
    power of the last variable among g's terms: all terms have one degree,
    and at equal degree grevlex compares that exponent first, the smaller
    one winning.  So the power k to divide out is read off g.lm alone,
    x_last^k divides every term, and dividing by one monomial keeps the
    term order."""
    code = ring.code
    out = []
    for g in gens:
        k = code.unpack(g.lm)[-1]
        if k:
            xk = code.pack((0,) * (ring.nvars - 1) + (k,))
            g = MPoly(ring, tuple((code.divides(xk, m), c)
                                  for m, c in g.terms))
        out.append(g)
    return out


def _hp_signature(H: HilbertData):
    """The Hilbert polynomial of H at 0..n."""
    return tuple(H.hilbert_polynomial_value(e) for e in range(H.n + 1))


def _basis_hilbert(basis, ring) -> HilbertData:
    """Hilbert data of the ideal a homogeneous Groebner basis generates,
    read from its leading monomials."""
    return HilbertData.from_exponents(
        [ring.code.unpack(g.lm) for g in basis], ring.nvars)


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
            I._hilbert = _basis_hilbert(G, G.ring)
        out = _divide_out_last_variable(list(G), G.ring)
        J = Ideal(ring, change_coordinates(out, bwd))
        J._hilbert = _basis_hilbert(out, G.ring)
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
    dimension of the kernel there.  Raises ValueError when a step would pass
    CELL_BUDGET."""
    if len(forms) != target.nvars:
        raise ValueError("need one form per target variable")
    degs = {f.is_homogeneous() for f in forms}
    if False in degs or len(degs) != 1:
        raise ValueError("forms must be homogeneous of one common degree")
    gens, dims, within = kernel_generators(*ring_map(forms, target), bound)
    if not within:
        raise CellBudgetError(f"image ideal through degree {bound} passes "
                              f"the cell budget of {CELL_BUDGET}")
    return ImageComputation(
        Ideal(target, [from_coefficient_vector(
            target, target.monomials_of_degree(e), v)
            for e, K in gens.items() for v in K.T]),
        {e: dims[e] for e in range(1, bound + 1)})


def _product_positions(ring: PolynomialRing, ts, a: int, b: int):
    """Index of m*t in ring.monomials_of_degree(b), one row per monomial t
    in ts and one column per m in ring.monomials_of_degree(a); ValueError
    unless every t has degree b - a."""
    pos = ring.monomial_positions(b)
    mons = ring.monomials_of_degree(a)
    try:
        flat = [pos[m + off] for off in [t - ring.code.K0 for t in ts]
                for m in mons]
    except KeyError:
        raise ValueError(f"a term of degree other than {b - a}") from None
    return np.array(flat, dtype=np.intp).reshape(len(ts), len(mons))


def multiplication_matrix(f: MPoly, a: int, b: int) -> np.ndarray:
    """The matrix of v -> f*v from forms of degree a to forms of degree b:
    rows follow monomials_of_degree(b), columns monomials_of_degree(a), in
    zeros_over's dtype.  A zero f gives zeros; a term of f of any degree
    other than b - a raises ValueError."""
    ring = f.ring
    n = len(ring.monomials_of_degree(a))
    M = zeros_over(ring.field, (len(ring.monomials_of_degree(b)), n))
    if f:
        ts, cs = zip(*f.terms)
        M[_product_positions(ring, ts, a, b), np.arange(n)] = \
            np.array(cs)[:, None]
    return M


def multiply_forms(f: MPoly, a: int, V) -> np.ndarray:
    """The columns of V (forms of degree a on monomials_of_degree(a)) times
    a nonzero form f, in zeros_over's dtype.  For each term c*t of f the
    nonzero entries of V go, times c, to the rows of their monomials times
    t; over F_p the sums are reduced mod p after each term, so they stay
    below p + (p-1)^2 < 2^63 for every p < 2^31."""
    ring = f.ring
    p = _modulus(ring.field)
    ts, cs = zip(*f.terms)
    b = a + ring.code.deg(ts[0])
    out = zeros_over(ring.field, (len(ring.monomials_of_degree(b)),
                                  V.shape[1]))
    r, k = np.nonzero(V)
    vals = V[r, k]
    for shifted, c in zip(_product_positions(ring, ts, a, b), cs):
        dest = shifted[r]
        acc = out[dest, k] + c * vals
        out[dest, k] = acc if p is None else acc % p
    return out


def form_matrix(P, src, tgt) -> np.ndarray:
    """The matrix of s -> P s, from vectors of forms of degrees src to
    vectors of forms of degrees tgt, on the coordinates forms_from_vector
    reads: block (i, j) is multiplication_matrix(P[i][j], src[j], tgt[i]).
    Every entry of P is a polynomial (possibly zero) of one ring; a negative
    degree has no monomials."""
    return np.vstack([np.hstack([multiplication_matrix(f, a, b)
                                 for f, a in zip(row, src)])
                      for row, b in zip(P, tgt)])


def forms_from_vector(ring: PolynomialRing, x, degs) -> list[MPoly]:
    """The forms of degrees degs whose coefficients on
    monomials_of_degree, one block after the other, make up x."""
    out, k = [], 0
    for d in degs:
        mons = ring.monomials_of_degree(d)
        out.append(from_coefficient_vector(ring, mons, x[k:k + len(mons)]))
        k += len(mons)
    return out


def graded_piece(gens, k: int) -> np.ndarray:
    """Columns g*m on monomials_of_degree(k), for every homogeneous
    generator g of degree at most k and every monomial m of degree
    k - deg(g), in generator order and then monomial order: together they
    span the degree-k piece of the ideal the generators generate."""
    ring = gens[0].ring
    blocks = [zeros_over(ring.field, (len(ring.monomials_of_degree(k)), 0))]
    for g in gens:
        dg = ring.code.deg(g.lm)
        if dg <= k:
            blocks.append(multiplication_matrix(g, k - dg, k))
    return np.hstack(blocks)


class GradedQuotient:
    """Forms of degree k modulo the span of the columns of a matrix on
    monomials_of_degree(k), from one kernel (K, free) = _kernel_mod(span^T).

    Its free columns are the standard monomials, and the class of a vector
    x has coordinates K^T x = x[free] - R[:, free]^T x[pivots] on them, R
    the reduced row echelon form of span^T.  With the columns in descending
    monomial order the pivots of the span of I_k are the leading monomials
    LT(I)_k and the rows of R are reduced basis elements, so these
    coordinates are normal forms modulo a reduced Groebner basis."""

    def __init__(self, field, span):
        self.field = field
        self._K, self.free = _kernel_mod(span.T, _modulus(field))

    def coordinates(self, X) -> np.ndarray:
        """Coordinates of the classes of the columns of X, one column each."""
        return matmul_over(self.field, self._K.T, X)


# the largest matrix (in cells) a cover_map degree or a kernel_generators
# step may build; past it the scan stops and reports itself incomplete
CELL_BUDGET = 250_000_000


class CellBudgetError(ValueError):
    """A matrix would have more than CELL_BUDGET cells; it was not built."""


class FreeModule:
    """Graded free module over a polynomial ring with generators of the given
    degrees.  Its degree-t basis is the pairs (i, m), m a monomial of degree
    t - deg(generator i), generator by generator and then in the order of
    monomials_of_degree; multiplication by a variable maps basis elements to
    basis elements."""

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

    def positions(self, t: int) -> dict:
        """Index of each basis element of degree t in basis(t)."""
        self.basis(t)
        return self._pos[t]

    def dim(self, t: int) -> int:
        return len(self.basis(t))

    def var_map(self, t: int, j: int) -> np.ndarray:
        """Index array: position of x_j * (basis element of degree t)
        inside the degree-(t+1) basis."""
        if (t, j) not in self._var_maps:
            code = self.ring.code
            v = code.var(j)
            pos = self.positions(t + 1)
            self._var_maps[t, j] = np.array(
                [pos[(i, code.mul(m, v))] for i, m in self.basis(t)],
                dtype=np.intp)
        return self._var_maps[t, j]

    def mul_vectors(self, t: int, j: int, V: np.ndarray) -> np.ndarray:
        """Multiply the columns of V (vectors in degree t) by x_j."""
        out = zeros_over(self.ring.field, (self.dim(t + 1), V.shape[1]))
        if V.shape[0]:
            out[self.var_map(t, j)] = V
        return out


def cover_map(ring: PolynomialRing, gens: dict, target_dim, mul):
    """(free, image): the free module over ring with one generator of
    degree t per column of gens[t], and image(t), the target_dim(t) x
    free.dim(t) matrix of the map sending each generator to its column.
    ``mul(t, j, V)`` multiplies the columns of V (target vectors of degree
    t) by x_j.  The image of m times a generator is x_j times that of
    m / x_j, x_j the first variable of m, so each degree takes one mul per
    first variable on the degree below.  image(t) builds the degrees below
    it on demand and keeps only the last one, so degrees asked for in
    increasing order are built once; it raises CellBudgetError instead of
    building a matrix of more than CELL_BUDGET cells."""
    degrees = sorted(gens)
    free = FreeModule(ring, [t for t in degrees
                             for _ in range(gens[t].shape[1])])
    gen_vecs = [gens[t][:, c] for t in degrees
                for c in range(gens[t].shape[1])]
    code = ring.code
    xs = [code.var(j) for j in range(ring.nvars)]
    last = {}

    # a loop, not a recursion: a closure that calls itself is a reference
    # cycle, which keeps `last` alive until the cyclic collector runs
    def image(t):
        if t not in last:
            s = next(iter(last), t)  # the degree kept, if any
            if not degrees[0] <= s < t:
                last.clear()
                s = min(t, degrees[0]) - 1
            for u in range(s + 1, t + 1):
                if target_dim(u) * free.dim(u) > CELL_BUDGET:
                    raise CellBudgetError(f"degree {u} of a graded map "
                                          f"passes the budget {CELL_BUDGET}")
                below = last.pop(u - 1, None)
                out = zeros_over(ring.field, (target_dim(u), free.dim(u)))
                groups: dict[int, tuple[list, list]] = {}
                for idx, (i, m) in enumerate(free.basis(u)):
                    if m == code.one:
                        out[:, idx] = gen_vecs[i]
                        continue
                    j = next(j for j, e in enumerate(code.unpack(m)) if e)
                    cols, parents = groups.setdefault(j, ([], []))
                    cols.append(idx)
                    parents.append(
                        free.positions(u - 1)[(i, code.divides(xs[j], m))])
                for j, (cols, parents) in groups.items():
                    out[:, cols] = mul(u - 1, j, below[:, parents])
                last[u] = out
        return last[t]

    return free, image


def ring_map(forms, target: PolynomialRing):
    """The ring map target -> source sending x_i to forms[i] (homogeneous
    of one degree d; a zero form acts as zero), as the cover_map of the
    rank-1 free module whose generator goes to 1: column m of image(e) holds
    the coefficients of the image of the m-th monomial of degree e on
    source.monomials_of_degree(d*e), in zeros_over's dtype."""
    source = forms[0].ring
    field = source.field
    d = max(f.degree() for f in forms)
    if any(f and f.degree() != d for f in forms):
        raise ValueError("forms of different degrees")

    def dim(t):
        return len(source.monomials_of_degree(d * t))

    def mul(t, i, V):
        if forms[i]:
            return multiply_forms(forms[i], d * t, V)
        return zeros_over(field, (dim(t + 1), V.shape[1]))

    return cover_map(target, {0: zeros_over(field, (1, 1)) + field.one},
                     dim, mul)


def kernel_generators(free: FreeModule, image_of, hi: int):
    """Minimal generators of the kernel of a graded map from free, where
    ``image_of(t)`` is its matrix A_t in degree t (a cover_map image),
    scanned from the lowest generator degree through degree hi.  Returns
    (gens, dims, within): gens[t] holds the generators of degree t as
    columns, dims[t] is dim ker A_t, and within is False when A_t or the
    span below would have more than CELL_BUDGET cells (the scan stops).

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
    gens, dims = {}, {}
    prev = None
    for t in range(min(free.gen_degrees), hi + 1):
        try:
            A = image_of(t)
        except CellBudgetError:
            return gens, dims, False
        K, coords = _kernel_mod(A, p)
        n = dims[t] = coords.size
        fresh = np.ones(n, dtype=bool)
        if prev is not None and prev.shape[1] and n:
            if nvars * prev.shape[1] * n > CELL_BUDGET:
                return gens, dims, False
            rows = coords[::-1]
            ST = np.vstack([free.mul_vectors(t - 1, j, prev)[rows].T
                            for j in range(nvars)])
            _, pivots = rref_mod(ST, p)
            fresh[n - 1 - np.asarray(pivots, dtype=np.intp)] = False
        if fresh.any():
            gens[t] = K[:, fresh]
        prev = K
    return gens, dims, True


def change_coordinates(polys, forms):
    """The homogeneous polynomials polys with the i-th variable of their ring
    replaced by forms[i]: one form per variable, all of one degree d
    (linear forms for a change of coordinates).  The polynomials of each
    degree e are the columns of one coefficient matrix on the monomials of
    degree e; one product of the degree-e matrix of ring_map(forms, ...)
    with it gives the coefficients of all their images on the monomials of
    degree d*e, so their terms come out sorted.  Degrees go in increasing
    order, and only the current one of the map is kept."""
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
    _, image = ring_map(forms, ring)
    for e, ks in sorted(by_degree.items()):
        pos = ring.monomial_positions(e)
        C = zeros_over(field, (len(pos), len(ks)))
        for c, k in enumerate(ks):
            try:
                C[[pos[m] for m, _ in polys[k].terms], c] = [
                    a for _, a in polys[k].terms]
            except KeyError:
                raise ValueError("change of coordinates of an "
                                 "inhomogeneous polynomial") from None
        smons = source.monomials_of_degree(d * e)
        for k, col in zip(ks, matmul_over(field, image(e), C).T):
            nz = np.flatnonzero(col)
            images[k] = MPoly(source, tuple(zip(
                [smons[r] for r in nz.tolist()], col[nz].tolist())))
    return images


def _image_by_elimination(forms, target: PolynomialRing) -> Ideal:
    """Test oracle for image_ideal: the same kernel by eliminating the
    source variables from the graph ideal (y_i - forms[i])."""
    source = forms[0].ring
    field = source.field
    if set(source.names) & set(target.names):
        raise ValueError("source and target variable names must not clash")
    k = source.nvars
    big = PolynomialRing(field, source.names + target.names, TermOrder.block(k))
    gens = [big.var(k + i) - big.convert(f) for i, f in enumerate(forms)]
    E = eliminate(Ideal(big, gens), k)
    return Ideal(target, [target.convert(g) for g in E.gens])


# -- zero-dimensional schemes -----------------------------------------


def zero_dim_reduced_check(I: Ideal, seed=0) -> dict:
    """Decide whether a zero-dimensional projective scheme is reduced.

    Multiplication by a random linear form between two stabilized graded
    slices of R/I gives an operator whose minimal polynomial is squarefree of
    degree = scheme degree exactly when the scheme is reduced (for a general
    form).  Degenerate draws are retried; persistent failure reports
    status "inconclusive" and never claims reducedness.

    The slices are quotients of the spans of the generators' monomial
    multiples (graded_piece), and the matrices of the operator are quotient
    coordinates, which are normal forms: beyond the Hilbert data of I the
    check needs no Groebner basis.
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
    Qe = GradedQuotient(field, graded_piece(I.gens, e))
    Qe1 = GradedQuotient(field, graded_piece(I.gens, e + 1))
    if len(Qe.free) != deg or len(Qe1.free) != deg:
        # the generators disagree with the Hilbert data
        return {"reduced": False, "degree": deg, "status": "inconclusive"}

    def mult_matrix(ell):
        return Qe1.coordinates(multiplication_matrix(ell, e, e + 1)[:, Qe.free])

    for attempt in range(5):
        l0 = ring.random_form(1, rng.fork(2 * attempt))
        l1 = ring.random_form(1, rng.fork(2 * attempt + 1))
        A0 = mult_matrix(l0)
        if rank_over(field, A0) != deg:
            continue
        A1 = mult_matrix(l1)
        T = solve_over(field, A0, A1)
        mp = _matrix_minpoly(field, T, rng.fork(1000 + attempt))
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


def _matrix_minpoly(field, T, rng) -> UniPoly:
    """Minimal polynomial as the lcm of the minimal polynomials of random
    vectors; stops when two fresh vectors in a row add nothing.

    The minimal polynomial of v is the first kernel vector of the Krylov
    matrix [v, Tv, ..., T^n v]: that vector belongs to the first column
    that depends on the columns before it.  Each column is one product by
    T over the field (matmul_over)."""
    n = len(T)
    mp = UniPoly.one(field)
    stable = 0
    for _ in range(n + 4):
        if mp.degree >= n:
            break
        krylov = zeros_over(field, (n, n + 1))
        krylov[:, 0] = [field.random(rng) for _ in range(n)]
        for i in range(n):
            krylov[:, [i + 1]] = matmul_over(field, T, krylov[:, [i]])
        ker = nullspace_over(field, krylov)
        new = _poly_lcm(mp, UniPoly(field, ker[:, 0]))
        if new == mp:
            stable += 1
            if stable >= 2:
                break
        else:
            stable = 0
            mp = new
    return mp


def _poly_lcm(a: UniPoly, b: UniPoly) -> UniPoly:
    if a.is_zero() or b.is_zero():
        return UniPoly.zero(a.field, a.var)
    g = poly_gcd(a, b)
    return (a * b).exact_div(g).monic()


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
