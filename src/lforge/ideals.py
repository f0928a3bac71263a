"""Geometric ideal operations: elimination, intersection, quotient,
saturation, Hilbert data, minors, singular loci, image ideals, graded pieces
and reducedness of zero-dimensional schemes.

Ideals are value-semantic: operations build new Ideal objects and caches hang
off each instance.
"""

from __future__ import annotations

from itertools import combinations

from .fields import PrimeField
from .groebner import (
    GroebnerBasis,
    groebner_basis,
    lt_ideal,
    normal_form,
)
from .hilbert import HilbertData
from .linalg import nullspace_over, pivots_over, rank_over, solve_over
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
            G = self.groebner()
            code = G.ring.code
            exps = [code.unpack(m) for m in lt_ideal(G)] if len(G) else []
            self._hilbert = HilbertData.from_exponents(exps, self.ring.nvars)
        return self._hilbert

    def dim_degree(self):
        H = self.hilbert()
        return H.dim, H.degree

    def is_empty(self) -> bool:
        """True iff the projective vanishing locus is empty."""
        return self.hilbert().dim == -1

    def graded_piece_dim(self, e: int) -> int:
        """dim of the degree-e slice of the ideal itself (not saturated)."""
        from math import comb

        if not self.is_homogeneous():
            raise ValueError("graded piece of an inhomogeneous ideal")
        n = self.ring.nvars
        return comb(e + n - 1, n - 1) - self.hilbert().hf(e)

    def standard_monomials(self, e: int):
        """Packed degree-e monomials outside the leading-term ideal."""
        G = self.groebner()
        code = self.ring.code
        lts = lt_ideal(G) if len(G) else []
        out = []
        for m in self.ring.monomials_of_degree(e):
            if all(code.divides(l, m) is None for l in lts):
                out.append(m)
        return out


# -- elimination and the boolean-algebra operations -------------------


def eliminate(I: Ideal, k: int) -> Ideal:
    """Intersect with the subring omitting the first k variables."""
    ring = I.ring
    if k == 0:
        return I
    if k >= ring.nvars:
        raise ValueError("cannot eliminate every variable")
    G = I.groebner(TermOrder.block(k))
    code = G.ring.code
    small = PolynomialRing(ring.field, ring.names[k:])
    kept = []
    for g in G:
        exps = [code.unpack(m) for m in (t[0] for t in g.terms)]
        if all(all(e == 0 for e in x[:k]) for x in exps):
            kept.append(
                small.from_dict(
                    {small.code.pack(x[k:]): c
                     for x, (_, c) in zip(exps, g.terms)}
                )
            )
    return Ideal(small, kept)


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
    up = {name: big.var(i + 1) for i, name in enumerate(ring.names)}
    gens = [t * f.substitute(up) for f in I.gens]
    gens += [(big.one - t) * g.substitute(up) for g in J.gens]
    E = eliminate(Ideal(big, gens), 1)
    down = {name: ring.var(i) for i, name in enumerate(ring.names)}
    return Ideal(ring, [g.substitute(down) for g in E.gens])


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
    """I : J^∞ by iterating the quotient to a fixed point."""
    if J.is_zero_ideal():
        raise ValueError("saturation by the zero ideal")
    cur = I
    while True:
        nxt = quotient(cur, J)
        if nxt == cur:
            return cur
        cur = nxt


def irrelevant_ideal(ring: PolynomialRing) -> Ideal:
    return Ideal(ring, ring.gens())


def _permuted_ring(ring: PolynomialRing, perm):
    names = tuple(ring.names[i] for i in perm)
    return PolynomialRing(ring.field, names)


def _permute_poly(f: MPoly, target: PolynomialRing, perm) -> MPoly:
    src = f.ring.code
    dst = target.code
    d = {}
    for m, c in f.terms:
        e = src.unpack(m)
        d[dst.pack(tuple(e[i] for i in perm))] = c
    return target.from_dict(d)


def _divide_out_last_variable(gens, ring):
    """From a grevlex reduced basis, divide each element by its largest
    last-variable power: a basis of I : x_last^∞ (Bayer's trick)."""
    code = ring.code
    out = []
    for g in gens:
        exps = [code.unpack(m) for m, _ in g.terms]
        drop = min(e[-1] for e in exps)
        if drop:
            d = {
                code.pack(e[:-1] + (e[-1] - drop,)): c
                for e, (_, c) in zip(exps, g.terms)
            }
            g = ring.from_dict(d)
        out.append(g)
    return out


def colon_variable_power(I: Ideal, i: int) -> Ideal:
    """I : x_i^∞ via a grevlex basis with x_i moved last.

    I must be homogeneous: Bayer's trick (dividing each basis element by
    its largest power of the last variable) is only valid for a homogeneous
    grevlex basis, so an inhomogeneous I raises ValueError."""
    if not I.is_homogeneous():
        raise ValueError("colon by a variable power needs a homogeneous ideal")
    ring = I.ring
    n = ring.nvars
    if I.is_zero_ideal():
        return I
    perm = [j for j in range(n) if j != i] + [i]
    inv = [perm.index(j) for j in range(n)]
    pring = _permuted_ring(ring, perm)
    pgens = [_permute_poly(g, pring, perm) for g in I.gens]
    G = groebner_basis(pgens)
    out = _divide_out_last_variable(list(G), pring)
    return Ideal(ring, [_permute_poly(g, ring, inv) for g in out])


def _hp_signature(basis, ring):
    """Hilbert data of the ideal a homogeneous Groebner basis generates, read
    from its leading monomials, and the Hilbert polynomial at 0..n."""
    exps = [ring.code.unpack(g.lm) for g in basis]
    H = HilbertData.from_exponents(exps, ring.nvars)
    return H, tuple(H.hilbert_polynomial_value(e) for e in range(H.n + 1))


def saturate_irrelevant(I: Ideal, seed=0) -> Ideal:
    """Saturation with respect to the irrelevant maximal ideal.

    A generic linear form l avoids every associated prime except the
    irrelevant one, so I : l^∞ (one coordinate change plus Bayer's
    last-variable trick) equals I : m^∞; the draw is certified by Hilbert
    polynomial agreement, which characterizes the saturation among ideals
    containing it.  A change of coordinates keeps Hilbert data, so both
    are read from the one basis per draw: HP(I) from its leading monomials,
    HP(I : l^∞) from those of the divided-out basis, which the result keeps.
    Persistent bad draws fall back to intersecting the per-variable
    saturations.

    I must be homogeneous, as for colon_variable_power: the Bayer step is
    only valid for a homogeneous basis, so an inhomogeneous I raises
    ValueError."""
    ring = I.ring
    if I.is_zero_ideal():
        return I
    if not I.is_homogeneous():
        raise ValueError("saturation needs a homogeneous ideal")
    field = ring.field
    n = ring.nvars
    rng = as_rng(seed)
    var = ring.code.var
    for attempt in range(5):
        coeffs = [field.random(rng.fork(attempt * 17 + k)) for k in range(n - 1)]
        an = field.random_nonzero(rng.fork(attempt * 17 + n))
        # automorphism sending l = sum a_i x_i + a_n x_n to the last variable
        inv_an = field.inv(an)
        fwd = {name: ring.var(k) for k, name in enumerate(ring.names)}
        bwd = dict(fwd)
        fwd[ring.names[-1]] = ring.from_dict({var(n - 1): inv_an, **{
            var(k): field.mul(-c, inv_an) for k, c in enumerate(coeffs)}})
        bwd[ring.names[-1]] = ring.from_dict(
            {var(n - 1): an, **{var(k): c for k, c in enumerate(coeffs)}})
        gens = [g.substitute(fwd) for g in I.gens]
        G = groebner_basis(gens)
        out = _divide_out_last_variable(list(G), ring)
        H, sig = _hp_signature(out, ring)
        if sig == _hp_signature(G, ring)[1]:
            J = Ideal(ring, [g.substitute(bwd) for g in out])
            J._hilbert = H
            return J
    result = None
    for i in range(n):
        S = colon_variable_power(I, i)
        result = S if result is None else intersect(result, S)
    return result


# -- determinantal machinery ------------------------------------------


def matrix_det(M, rows=None, cols=None, memo=None) -> MPoly:
    """Determinant of a square submatrix of MPoly entries, by cofactor
    expansion with shared memoized subdeterminants."""
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
    if total is None:
        total = M[rows[0]][cols[0]].ring.zero
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

    __slots__ = ("ideal", "h0", "method", "stable")

    def __init__(self, ideal, h0, method, stable):
        self.ideal = ideal
        self.h0 = h0
        self.method = method
        self.stable = stable

    def __repr__(self):
        return f"ImageComputation({self.method}, h0={self.h0})"


def image_ideal(forms, target: PolynomialRing, method="graded",
                bound: int | None = None) -> ImageComputation:
    """Kernel of the ring map target -> source sending the i-th variable to
    forms[i]."""
    if len(forms) != target.nvars:
        raise ValueError("need one form per target variable")
    source = forms[0].ring
    degs = {f.is_homogeneous() for f in forms}
    if False in degs or len(degs) != 1:
        raise ValueError("forms must be homogeneous of one common degree")
    (d,) = degs
    if method == "elimination":
        return _image_by_elimination(forms, source, target, d)
    if method != "graded":
        raise ValueError(f"unknown method {method!r}")
    if bound is None:
        raise ValueError("graded method needs a degree bound")
    return _image_by_degrees(forms, source, target, d, bound)


def _image_by_degrees(forms, source, target, d, bound):
    field = source.field
    gens: list[MPoly] = []
    h0 = {}
    for e in range(1, bound + 1):
        tmons = target.monomials_of_degree(e)
        smons = source.monomials_of_degree(d * e)
        images = []
        tm_polys = []
        sub = {name: forms[i] for i, name in enumerate(target.names)}
        for m in tmons:
            tm = MPoly(target, ((m, field.one),))
            tm_polys.append(tm)
            images.append(coefficient_vector(tm.substitute(sub), smons))
        # kernel of the evaluation map = degree-e piece of the image ideal
        A = [[row[i] for row in images] for i in range(len(smons))]
        ker = nullspace_over(field, A)
        h0[e] = len(ker)
        if not ker:
            continue
        # keep only kernel vectors beyond the span of lower-degree generators
        old_rows = []
        for g in gens:
            dg = g.is_homogeneous()
            for m in target.monomials_of_degree(e - dg):
                old_rows.append(coefficient_vector(g.mul_term(m, 1), tmons))
        for v in _beyond_span(field, old_rows, [list(v) for v in ker]):
            gens.append(from_coefficient_vector(target, tmons, v))
    ideal = Ideal(target, gens)
    stable = None
    if bound >= 2 and h0.get(bound) is not None:
        # stability: generators found at the last degree are a red flag
        stable = all(g.is_homogeneous() < bound for g in gens) or not gens
    return ImageComputation(ideal, h0, "graded", stable)


def _beyond_span(field, old_rows, vectors):
    """The vectors, in order, outside the span of old_rows and the vectors
    before them: the pivot columns of the stack [old_rows; vectors] taken
    as columns."""
    stack = old_rows + vectors
    pivots = pivots_over(field, list(zip(*stack)))
    return [stack[j] for j in pivots if j >= len(old_rows)]


def _image_by_elimination(forms, source, target, d):
    field = source.field
    if set(source.names) & set(target.names):
        raise ValueError("source and target variable names must not clash")
    k = source.nvars
    big = PolynomialRing(field, source.names + target.names, TermOrder.block(k))
    up_src = {name: big.var(i) for i, name in enumerate(source.names)}
    gens = []
    for i, f in enumerate(forms):
        gens.append(big.var(k + i) - f.substitute(up_src))
    E = eliminate(Ideal(big, gens), k)
    down = {name: target.var(i) for i, name in enumerate(target.names)}
    ideal = Ideal(target, [g.substitute(down) for g in E.gens])
    return ImageComputation(ideal, {}, "elimination", None)


# -- zero-dimensional schemes -----------------------------------------


def zero_dim_reduced_check(I: Ideal, seed=0) -> dict:
    """Decide whether a zero-dimensional projective scheme is reduced.

    Multiplication by a random linear form between two stabilized graded
    slices of R/I gives an operator whose minimal polynomial is squarefree of
    degree = scheme degree exactly when the scheme is reduced (for a general
    form).  Degenerate draws are retried; persistent failure reports
    status "inconclusive" and never claims reducedness.
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
    Se = I.standard_monomials(e)
    Se1 = I.standard_monomials(e + 1)
    G = list(I.groebner())

    def mult_matrix(ell):
        cols = []
        for m in Se:
            prod = ell.mul_term(m, field.one)
            nf = normal_form(prod, G)
            cols.append(coefficient_vector(nf, Se1))
        return [[cols[j][i] for j in range(len(Se))] for i in range(len(Se1))]

    for attempt in range(5):
        l0 = ring.random_form(1, rng.fork(2 * attempt))
        l1 = ring.random_form(1, rng.fork(2 * attempt + 1))
        A0 = mult_matrix(l0)
        if len(Se) != deg or len(Se1) != deg:
            break  # slices cannot both match the degree: unsaturated input
        if rank_over(field, A0) != deg:
            continue
        A1 = mult_matrix(l1)
        T = _solve_matrix(field, A0, A1)
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


def _solve_matrix(field, A, B):
    """X with A X = B, entries over the field."""
    n = len(A)
    cols = []
    for j in range(len(B[0])):
        b = [B[i][j] for i in range(n)]
        x = solve_over(field, A, b)
        if x is None:
            raise ValueError("singular system")
        cols.append(x)
    return [[cols[j][i] for j in range(len(cols))] for i in range(n)]


def _mat_vec(field, T, v):
    return [
        _dot(field, row, v)
        for row in T
    ]


def _dot(field, row, v):
    acc = field.zero
    for a, b in zip(row, v):
        if not field.is_zero(a) and not field.is_zero(b):
            acc = field.add(acc, field.mul(a, b))
    return acc


def _matrix_minpoly(field, T, rng) -> UniPoly:
    """Minimal polynomial as the lcm of Krylov minimal polynomials of random
    vectors; stops when two fresh vectors in a row add nothing."""
    n = len(T)
    mp = UniPoly.one(field)
    stable = 0
    for _ in range(n + 4):
        if mp.degree >= n:
            break
        v = [field.random(rng) for _ in range(n)]
        pv = _krylov_minpoly(field, T, v)
        new = _poly_lcm(mp, pv)
        if new == mp:
            stable += 1
            if stable >= 2:
                break
        else:
            stable = 0
            mp = new
    return mp


def _krylov_minpoly(field, T, v) -> UniPoly:
    n = len(T)
    K = [list(v)]
    w = list(v)
    for k in range(1, n + 2):
        w = _mat_vec(field, T, w)
        A = [[K[j][i] for j in range(len(K))] for i in range(n)]
        c = solve_over(field, A, w)
        if c is not None:
            coeffs = [field.neg(ci) for ci in c] + [field.one]
            return UniPoly(field, coeffs)
        K.append(list(w))
    raise RuntimeError("Krylov sequence failed to close")


def _poly_lcm(a: UniPoly, b: UniPoly) -> UniPoly:
    if a.is_zero() or b.is_zero():
        return UniPoly.zero(a.field, a.var)
    g = poly_gcd(a, b)
    return (a * b).exact_div(g).monic()


# -- linear sections --------------------------------------------------


def linear_section_reduce(I: Ideal, forms) -> Ideal:
    """Restrict I to the linear subspace cut out by independent linear forms,
    by substituting the solved pivot coordinates."""
    ring = I.ring
    field = ring.field
    n = ring.nvars
    rows = []
    for f in forms:
        if f.is_homogeneous() != 1:
            raise ValueError("section forms must be linear and homogeneous")
        rows.append(coefficient_vector(f, [ring.code.var(i) for i in range(n)]))
    from .linalg import rref_mod, rref_frac

    if isinstance(field, PrimeField):
        R, pivots = rref_mod(rows, field.p)
        R = [[int(x) for x in row] for row in R]
    else:
        R, pivots = rref_frac(rows)
    if len(pivots) != len(forms):
        raise ValueError("section forms are linearly dependent")
    free = [j for j in range(n) if j not in set(pivots)]
    if not free:
        raise ValueError("section forms cut out only the origin")
    small = PolynomialRing(field, tuple(ring.names[j] for j in free))
    images = {}
    for idx, j in enumerate(free):
        images[ring.names[j]] = small.var(idx)
    for r, pc in enumerate(pivots):
        img = small.zero
        for idx, j in enumerate(free):
            c = R[r][j]
            if not field.is_zero(c):
                img = img - small.var(idx).scale(c)
        images[ring.names[pc]] = img
    gens = [g.substitute(images) for g in I.gens]
    return Ideal(small, [g for g in gens if not g.is_zero()])
