"""Test oracles for ideal operations, outside the program.

The t-trick computes I ∩ J by eliminating an auxiliary variable t from
t·I + (1 − t)·J, and I : (g) as (I ∩ (g)) / g.  Its generators are
inhomogeneous, so the block-order basis is a Buchberger basis: it shares
no code with the graded kernels of ideals.intersect and ideals.quotient
beyond the Groebner bases that compare ideals.  image_by_elimination
computes the kernel of a ring map the same way, from the graph ideal, and
saturate iterates ideals.quotient, with no coordinate change and no
Bayer division.

convert_by_terms and partial_by_terms are PolynomialRing.convert and
MPoly.partial as they ran term by term, on the scalar pack and unpack.

betti_by_covers resolves a module by free modules with many generators,
which the program never builds, and the last section holds witnesses
that only the tests use: determinants, exact division, evaluation,
S-pair audits, Pfaffians as matching sums, irreducibility tests and text
writers."""

import math
from itertools import count

import numpy as np

from lforge import snf
from lforge.fields import FieldError, is_prime
from lforge.groebner import GroebnerBasis, normal_form, s_polynomial
from lforge.ideals import Ideal, eliminate, quotient
from lforge.linalg import (
    _kernel_mod,
    matmul_mod,
    nullspace_mod,
    rref_mod,
    zeros_over,
)
from lforge.mpoly import MPoly, PolynomialRing, RingMismatch
from lforge.orders import ExponentOverflow, TermOrder
from lforge.pfaffian import (
    PfaffianError,
    SkewMatrix,
    SkewPresentation,
    divided_power_section,
)
from lforge.rao import BettiTable
from lforge.snf import PolyMatrix, _powmod
from lforge.textio import poly_to_string
from lforge.unipoly import UniPoly, gcd


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
        Q = Ideal(ring, [exact_div(h, g) for h in K.gens])
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


# -- the monomial bookkeeping of the graded engine, on packed ints --------
#
# These are the loops that groebner and hilbert ran before they moved onto
# exponent rows and the ring's monomial index; the tests check that the
# array versions give the same answers.


def convert_by_terms(ring: PolynomialRing, f):
    """f in ring, variables matched by name: each term unpacked, its
    exponents moved and packed again, then sorted by from_dict."""
    src = f.ring
    if src is ring:
        return f
    if src.field != ring.field:
        raise RingMismatch(f"cannot convert from {src} to {ring}")
    d = {}
    for m, c in f.terms:
        e = [0] * ring.nvars
        for name, a in zip(src.names, src.code.unpack(m)):
            if a:
                if name not in ring.names:
                    raise RingMismatch(f"{ring} has no variable {name!r}")
                e[ring.names.index(name)] = a
        d[ring.code.pack(e)] = c
    return ring.from_dict(d)


def partial_by_terms(f, i: int):
    """The x_i-partial of f: each term's exponent unpacked, the term divided
    by x_i and its coefficient multiplied by the exponent."""
    code = f.ring.code
    xi = code.pack(tuple(int(j == i) for j in range(code.nvars)))
    d = {}
    for m, c in f.terms:
        e = code.unpack(m)[i]
        if e:
            d[code.divides(xi, m)] = c * e
    return f.ring.from_dict(d)


def symbolic_preprocessing_by_loop(rows, G):
    """The reducers of the rows (off, f), f times the monomial u with
    off = u - K0, against the list G: for every column m (a monomial of a
    row or of a reducer) that a leading monomial of G divides, one reducer
    (m - lm, g), for the first g in G whose leading monomial lm divides m.
    Returns the reducers, their leading monomials (the pivots) and the
    other columns, the last two descending."""
    code = rows[0][1].ring.code
    K0, GUARD = code.K0, code.GUARD
    polys = list(rows)  # grows while it is scanned
    found, cols = {}, set()
    for off, f in polys:
        for m, _ in f.terms:
            m += off
            if m in cols:
                continue
            cols.add(m)
            for g in G:
                q = m - g.lm + K0
                if q >= 0 and not q & GUARD:
                    found[m] = (m - g.lm, g)
                    polys.append(found[m])
                    break
    pivots = sorted(found, reverse=True)
    return ([found[m] for m in pivots], pivots,
            sorted(cols.difference(found), reverse=True))


class PackedPairs:
    """The Gebauer-Moller pair set with every lcm and criterion taken on
    packed monomials, one pair at a time: the same attributes as
    groebner._Pairs."""

    def __init__(self, code):
        self.code = code
        self.lms, self.sugars = [], []
        self.redundant = set()
        self.pairs = {}

    def add(self, lmh, sugar):
        code, lms, pairs = self.code, self.lms, self.pairs
        t = len(lms)
        lcms = [code.lcm(a, lmh) for a in lms]
        cand = [i for i in range(t) if i not in self.redundant]
        for i in cand:
            if coprime(code, lms[i], lmh):
                continue
            l = lcms[i]
            if any((lcms[j] != l and code.divides(lcms[j], l) is not None)
                   or (lcms[j] == l and j < i) for j in cand if j != i):
                continue
            pairs[(i, t)] = (max(self.sugars[i] + code.deg(l)
                                 - code.deg(lms[i]),
                                 sugar + code.deg(l) - code.deg(lmh)), l)
        for (i, j), (_, l) in list(pairs.items()):
            if (j < t and code.divides(lmh, l) is not None
                    and lcms[i] != l and lcms[j] != l):
                del pairs[(i, j)]
        self.redundant.update(i for i in cand
                              if code.divides(lmh, lms[i]) is not None)
        lms.append(lmh)
        self.sugars.append(sugar)


def minimalize_by_tuples(gens):
    """The minimal exponent tuples of gens, sorted by (degree, tuple), by
    comparing tuples one variable at a time."""
    gens = sorted(set(gens), key=lambda g: (sum(g), g))
    out = []
    for g in gens:
        if not any(all(x >= y for x, y in zip(g, m)) for m in out):
            out.append(g)
    return out


# -- the Smith form's transform sweep, one row at a time ------------------
#
# The elimination loop of snf.smith_normal_form as it ran before each
# sweep step became one gathered update: every row of S1 and S2 gets its
# own shifted multiply-subtract, and every reduction is np.remainder.


def _remainder(X, field):
    return np.remainder(X, field.p, out=X) if field.char else X


def _divmod_by_rows(X, d, field):
    nd = len(d)
    w = max(snf._width(X), nd)
    rem = X[:, :w].copy()
    q = np.zeros((len(X), w - nd + 1), X.dtype)
    for t in range(w - nd, -1, -1):
        q[:, t] = _remainder(rem[:, t + nd - 1] * field.inv(d[-1]), field)
        rem[:, t:t + nd] = _remainder(rem[:, t:t + nd] - q[:, t, None] * d,
                                      field)
    return q, (rem[:, :nd - 1] != 0).any(axis=-1)


def _sub_mul_by_rows(Y, Q, B, field):
    shifts = np.flatnonzero((Q != 0).reshape(-1, Q.shape[-1]).any(axis=0))
    wb = snf._width(B)
    if not (shifts.size and wb):
        return Y
    Y = snf._pad(Y, int(shifts[-1]) + wb)
    room = 1 if Y.dtype == object else (
        (int(np.iinfo(Y.dtype).max) - field.p) // (field.p - 1) ** 2)
    for n, s in enumerate(shifts, 1):
        Y[..., s:s + wb] -= Q[..., s:s + 1] * B[..., :wb]
        if n % room == 0:
            _remainder(Y, field)
    return _remainder(Y, field)


def smith_normal_form_by_rows(M):
    """(D, S1, S2) of snf.smith_normal_form(M), unverified, with the same
    pivot rule, fold and monic steps, and each transform row updated on
    its own."""
    field, var = M.field, M.var
    r, c = M.nrows, M.ncols
    dtype = next(t for t in (np.int16, np.int32, np.int64)
                 if field.p ** 2 <= np.iinfo(t).max) if field.char else object
    A = np.zeros((r, c, max([1] + [len(e.coeffs) for row in M.entries
                                   for e in row])), dtype)
    for i, j in np.ndindex(r, c):
        A[i, j, :len(M[i, j].coeffs)] = M[i, j].coeffs
    S1 = list(np.eye(r, dtype=dtype)[..., None])
    S2 = list(np.eye(c, dtype=dtype)[..., None])
    k, n = 0, min(r, c)
    while k < n:
        deg = snf._degrees(A[k:, k:])
        if deg.max() < 0:
            break
        cands = np.argwhere(deg == deg[deg >= 0].min())
        if dtype is object:
            cands = [min(cands, key=lambda ij: snf._coeff_height(
                A[k + ij[0], k + ij[1]]))]
        pi, pj = k + cands[0]
        A[[k, pi]] = A[[pi, k]]
        S1[k], S1[pi] = S1[pi], S1[k]
        A[:, [k, pj]] = A[:, [pj, k]]
        S2[k], S2[pj] = S2[pj], S2[k]
        piv = A[k, k, :snf._width(A[k, k])].copy()
        dirty = False
        for S in (S1, S2):
            q, left = _divmod_by_rows(A[k + 1:, k], piv, field)
            dirty = dirty or left.any()
            A = snf._pad(A, snf._width(q) + snf._width(A[k]) - 1)
            _sub_mul_by_rows(A[k + 1:, k:], q[:, None], A[k, k:], field)
            for i, qi in enumerate(q, k + 1):
                S[i] = _sub_mul_by_rows(S[i], qi[None], S[k], field)
            A = A.transpose(1, 0, 2)
        if dirty:
            continue
        block = A[k + 1:, k + 1:]
        bad = len(piv) > 1 and _divmod_by_rows(
            block.reshape(-1, A.shape[-1]), piv, field)[1].reshape(
                block.shape[:2])
        if np.any(bad):
            off = k + 1 + int(np.argmax(bad.any(axis=1)))
            A[k] = _remainder(A[k] + A[off], field)
            S1[k] = _sub_mul_by_rows(S1[k], np.array([[-1]]), S1[off], field)
            continue
        k += 1
    for i in range(n):
        w = snf._width(A[i, i])
        if w and A[i, i, w - 1] != 1:
            u = field.inv(A[i, i, w - 1])
            A[i] = _remainder(A[i] * u, field)
            S1[i] = _remainder(S1[i] * u, field)
    return (snf._to_matrix(A, field, var), snf._to_matrix(S1, field, var),
            snf._to_matrix(zip(*S2), field, var))


# -- graded Betti numbers by iterated minimal covers ----------------------
#
# The resolver that rao.graded_betti ran before it read the table off
# Koszul homology: it builds the free modules of a minimal resolution and
# shares only linalg with the Koszul ranks.  FreeModule, cover_map and
# kernel_generators are the multi-generator graded maps that ideals ran
# before ring_map and ideals.kernel_generators kept only the rank-1 case
# the program uses, without their cell budget.


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
    lowest generator degree, then t + 1, and so on without end.
    ``mul(t, j, V)`` multiplies the columns of V (target vectors of degree
    t) by x_j.  The image of x_j times a basis element of degree t - 1 is
    x_j times its image, for every j: the products by different variables
    commute, so a column that several x_j reach gets one value."""
    degrees = sorted(gens)
    free = FreeModule(ring, [t for t in degrees
                             for _ in range(gens[t].shape[1])])

    def images():
        A = None
        for t in count(degrees[0]):
            below, A = A, zeros_over(ring.field, (target_dim(t),
                                                  free.dim(t)))
            if t in gens:  # the generators of degree t, in order
                at = free.offsets(t)[free.gen_degrees.index(t)]
                A[:, at:at + gens[t].shape[1]] = gens[t]
            for j in range(ring.nvars if below is not None else 0):
                A[:, free.var_map(t - 1, j)] = mul(t - 1, j, below)
            yield t, A

    return free, images()


def kernel_generators(free: FreeModule, images, hi):
    """(t, G_t, dim ker A_t) for each degree t of images (a cover_map
    stream) through hi, or on until the caller stops when hi is None, by
    the span-K rule: G_t holds the columns of K_t = ker A_t that greedy
    elimination of [span | K_t] keeps beyond the span block,
    span = [x_j K_{t-1}]_j in free-module coordinates.
    ideals.kernel_generators finds the same columns in kernel
    coordinates."""
    p = free.ring.field.p
    lo = min(free.gen_degrees)
    K = None
    for t, (_, A) in zip(count(lo) if hi is None else range(lo, hi + 1),
                         images):
        prev, K = K, nullspace_mod(A, p)
        span = [] if prev is None else [free.mul_vectors(t - 1, j, prev)
                                        for j in range(free.ring.nvars)]
        skip = sum(S.shape[1] for S in span)
        _, pivots = rref_mod(np.hstack(span + [K]), p)
        yield t, K[:, [c - skip for c in pivots if c >= skip]], K.shape[1]


def betti_by_covers(mod, hom_bound=2, deg_bound=8):
    """rao.graded_betti(mod, hom_bound, deg_bound) by a minimal free
    resolution: at every step, cover the current module by a free module
    (cover_map) and take the minimal generators of the kernel of the
    cover (kernel_generators).  The module's own generators are
    one unit vector per new dimension of grade k modulo R_1 times the piece
    below.

    For a finite-length module, beta_{i,j} != 0 forces
    j <= i + (top nonzero grade), so each homological step only needs
    kernels through that bound (scanned one degree further as a
    consistency check)."""
    hom_bound = min(hom_bound, mod.nvars)
    ring = PolynomialRing(mod.field,
                          tuple(f"t{j}" for j in range(mod.nvars)))
    reg = max(mod.grades)
    gens = {}
    for k in mod.grades:
        span = np.hstack([mod._action(k - 1, j) for j in range(mod.nvars)])
        new = _kernel_mod(span.T, mod.p)[1]
        if new.size:
            gens[k] = zeros_over(mod.field, (mod.dim(k), new.size))
            gens[k][new, np.arange(new.size)] = 1
    entries = {(0, k): G.shape[1] for k, G in gens.items()}
    complete = True
    free, images = cover_map(
        ring, gens, mod.dim,
        lambda t, j, V: matmul_mod(mod._action(t, j), V, mod.p))
    for hom in range(1, hom_bound + 1):
        gens = {}
        for t, G, _ in kernel_generators(
                free, images, min(reg + hom + 1, deg_bound)):
            if not G.shape[1]:
                continue
            assert t <= reg + hom, "syzygies past the regularity bound"
            gens[t] = G
            entries[(hom, t)] = G.shape[1]
        if deg_bound < reg + hom:
            complete = False
        if not gens or hom == hom_bound:
            break
        free, images = cover_map(ring, gens, free.dim, free.mul_vectors)
    return BettiTable({(i, j - mod.shift): b for (i, j), b in entries.items()},
                      complete=complete)


# -- witnesses that share no code with the program ------------------------
#
# Definitions that lforge held for its tests only, moved here unchanged;
# the methods are functions of their object.


def det_mod(A, p: int) -> int:
    """Determinant mod p: the Pfaffian and acceptance tests use it as a
    witness that shares no code with the other routines.  It has its own
    elimination loop, which reduces every entry after each step:
    linalg._eliminate reduces lazily, which is exact only for at most w
    steps (a panel), so over a whole n x n matrix at p near 2^31 its int64
    entries would overflow.  It reads A itself, as int64, not through the
    narrowing linalg._as_array."""
    M = np.asarray(A, dtype=np.int64) % p
    n = len(M)
    if M.shape != (n, n):
        raise ValueError("determinant of a non-square matrix")
    det = 1
    for c in range(n):
        nz = np.nonzero(M[c:, c])[0]
        if nz.size == 0:
            return 0
        i = c + int(nz[0])
        if i != c:
            M[[c, i]] = M[[i, c]]
            det = -det
        piv = int(M[c, c])
        det = det * piv % p
        if c + 1 < n:
            factor = M[c + 1 :, c] * pow(piv, p - 2, p) % p
            M[c + 1 :] = (M[c + 1 :] - np.outer(factor, M[c])) % p
    return det % p


def matrix_det(M, rows=None, cols=None, memo=None) -> MPoly:
    """Determinant of a square submatrix of MPoly or UniPoly entries, by
    cofactor expansion along the first row with shared memoized
    subdeterminants.  minors_ideal reads minors as Pfaffians instead, so
    the two share no code beyond polynomial arithmetic."""
    rows = tuple(range(len(M))) if rows is None else tuple(rows)
    cols = tuple(range(len(M[0]))) if cols is None else tuple(cols)
    if memo is None:
        memo = {}
    if len(rows) == 1:
        return M[rows[0]][cols[0]]
    if (rows, cols) not in memo:
        total = None
        for j, c in enumerate(cols):
            entry = M[rows[0]][c]
            if entry.is_zero():
                continue
            term = entry * matrix_det(M, rows[1:], cols[:j] + cols[j + 1:],
                                      memo)
            term = -term if j % 2 else term
            total = term if total is None else total + term
        # a zero first row: its first entry is the zero of the right kind
        memo[rows, cols] = M[rows[0]][cols[0]] if total is None else total
    return memo[rows, cols]


def spair_audit(G: GroebnerBasis) -> bool:
    """Post-hoc check: every S-polynomial of the basis reduces to zero."""
    basis = list(G.basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            sp = s_polynomial(basis[i], basis[j])
            if not normal_form(sp, basis).is_zero():
                return False
    return True


def coprime(code, a: int, b: int) -> bool:
    """Whether the packed monomials a and b share no variable: the product
    criterion of groebner._Pairs."""
    ea, eb = code.unpack(a), code.unpack(b)
    return all(x == 0 or y == 0 for x, y in zip(ea, eb))


def monomial_mul(code, a: int, b: int) -> int:
    m = a + b - code.K0
    if m & code.GUARD:
        raise ExponentOverflow("monomial degree overflow in multiplication")
    return m


def field_sub(F, a, b):
    """a - b in the field F (GF(p) or QQ)."""
    return F.add(a, F.neg(b))


def constant_coefficient(f: MPoly):
    one = f.ring.code.one
    if f.terms and f.terms[-1][0] == one:
        return f.terms[-1][1]
    return f.ring.field.zero


def exact_div(f: MPoly, other: MPoly) -> MPoly:
    """Exact division; raises if the division leaves a remainder."""
    other = f._coerce(other)
    ring = f.ring
    F = ring.field
    if other.is_zero():
        raise FieldError("division by zero polynomial")
    code = ring.code
    rem = dict(f.terms)
    quo: dict[int, object] = {}
    lm_o, lc_o = other.terms[0]
    inv_lc = F.inv(lc_o)
    while rem:
        m = max(rem)
        c = rem.pop(m)
        q = code.divides(lm_o, m)
        if q is None:
            raise FieldError("inexact polynomial division")
        qc = F.mul(c, inv_lc)
        quo[q] = qc
        for mo, co in other.terms[1:]:
            mm = monomial_mul(code, q, mo)
            v = field_sub(F, rem.get(mm, F.zero), F.mul(qc, co))
            if F.is_zero(v):
                rem.pop(mm, None)
            else:
                rem[mm] = v
    return ring.from_dict(quo)


def evaluate(f: MPoly, point):
    """f at a point given as a list of field elements."""
    F = f.ring.field
    unpack = f.ring.code.unpack
    total = F.zero
    for m, c in f.terms:
        v = c
        for i, e in enumerate(unpack(m)):
            for _ in range(e):
                v = F.mul(v, point[i])
        total = F.add(total, v)
    return total


def pfaffian_matching_sum(A: SkewMatrix) -> MPoly:
    """The Pfaffian as the signed perfect-matching sum.  Exponential,
    intended for n <= 8."""
    n = A.n
    if n % 2:
        raise PfaffianError("odd size")
    total = A.ring.zero

    def matchings(idx):
        if not idx:
            yield (), 1
            return
        i0 = idx[0]
        for t, j in enumerate(idx[1:]):
            rest = tuple(x for x in idx[1:] if x != j)
            for m, s in matchings(rest):
                yield ((i0, j),) + m, s * (-1) ** t

    for m, s in matchings(tuple(range(n))):
        term = A.ring.one
        for i, j in m:
            term = term * A[i, j]
        total = total + term if s > 0 else total - term
    return total


def section_to_hypersurface(P: SkewPresentation, s):
    """Inverse direction of pfaffian.hypersurface_to_section."""
    A = P.skew
    ring = A.ring
    if A.n % 2:
        return ring.dot(s, divided_power_section(P))
    Psi = A.adjugate()
    v = P.euler_row
    for i in range(A.n):
        if not v[i].is_zero():
            return exact_div(ring.dot(s, [row[i] for row in Psi]), v[i])
    raise PfaffianError("zero Euler row")


def ring_header(ring) -> str:
    """The header line textio.parse_ring_header reads."""
    return (
        f"ring R vars {' '.join(ring.names)} field {ring.field!r} "
        f"order {ring.order}"
    )


def skew_matrix_to_text(A: SkewMatrix) -> str:
    """The text SkewMatrix.from_text reads."""
    lines = [str(A.n), ring_header(A.ring)]
    for i in range(A.n):
        for j in range(i + 1, A.n):
            lines.append(poly_to_string(A.entries[i][j]))
    return "\n".join(lines) + "\n"


def poly_matrix_to_text(M: PolyMatrix) -> str:
    """The text PolyMatrix.from_text reads."""
    lines = [f"{M.nrows} {M.ncols} {M.var}"]
    for row in M.entries:
        for e in row:
            lines.append(e.to_string())
    return "\n".join(lines) + "\n"


def is_irreducible_ff(f: UniPoly) -> bool:
    """gcd(x^(p^k) - x, f) pattern test for monic f over a prime field."""
    if f.degree < 1:
        return False
    f = f.monic()
    p = f.field.p
    x = UniPoly.x(f.field, f.var)
    h = _powmod(x, p ** f.degree, f)
    if h != x % f:
        return False
    # no factor of degree properly dividing deg f
    n = f.degree
    for q in {d for d in range(2, n + 1) if n % d == 0 and is_prime(d)}:
        h = _powmod(x, p ** (n // q), f)
        if gcd(h - x, f).degree > 0:
            return False
    return True


def _binom(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def alternating_rank_sum(tab: BettiTable) -> int:
    """Zero for a complete table of a finite-length module."""
    return sum((-1) ** i * b for (i, _), b in tab.entries.items())


def hilbert_value(tab: BettiTable, t: int, nvars: int) -> int:
    """Alternating binomial count at degree t (equals the module's Hilbert
    function when the table is complete)."""
    return sum((-1) ** i * b * _binom(t - j + nvars - 1, nvars - 1)
               for (i, j), b in tab.entries.items())
