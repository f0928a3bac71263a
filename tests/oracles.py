"""Test oracles for ideal operations, outside the program.

The t-trick computes I ∩ J by eliminating an auxiliary variable t from
t·I + (1 − t)·J, and I : (g) as (I ∩ (g)) / g.  Its generators are
inhomogeneous, so the block-order basis is a Buchberger basis: it shares
no code with the graded kernels of ideals.intersect and ideals.quotient
beyond the Groebner bases that compare ideals.  image_by_elimination
computes the kernel of a ring map the same way, from the graph ideal, and
saturate iterates ideals.quotient, with no coordinate change and no
Bayer division."""

import numpy as np

from lforge import snf
from lforge.ideals import (
    CellBudgetError,
    Ideal,
    cover_map,
    eliminate,
    kernel_generators,
    quotient,
)
from lforge.linalg import _kernel_mod, matmul_mod, zeros_over
from lforge.mpoly import PolynomialRing
from lforge.rao import BettiTable
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


# -- the monomial bookkeeping of the graded engine, on packed ints --------
#
# These are the loops that groebner and hilbert ran before they moved onto
# exponent rows and the ring's monomial index; the tests check that the
# array versions give the same answers.


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
            if code.coprime(lms[i], lmh):
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
# shares only linalg with the Koszul ranks.


def betti_by_covers(mod, hom_bound=2, deg_bound=8):
    """rao.graded_betti(mod, hom_bound, deg_bound) by a minimal free
    resolution: at every step, cover the current module by a free module
    (ideals.cover_map) and take the minimal generators of the kernel of
    the cover (ideals.kernel_generators).  The module's own generators are
    one unit vector per new dimension of grade k modulo R_1 times the piece
    below.

    For a finite-length module, beta_{i,j} != 0 forces
    j <= i + (top nonzero grade), so each homological step only needs
    kernels through that bound (scanned one degree further as a
    consistency check).  A CellBudgetError ends a step: the degrees read
    before it stay in the table, which is marked incomplete."""
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
        try:
            for t, G, _ in kernel_generators(
                    free, images, min(reg + hom + 1, deg_bound)):
                if not G.shape[1]:
                    continue
                assert t <= reg + hom, "syzygies past the regularity bound"
                gens[t] = G
                entries[(hom, t)] = G.shape[1]
        except CellBudgetError:
            complete = False
        if deg_bound < reg + hom:
            complete = False
        if not gens or hom == hom_bound:
            break
        free, images = cover_map(ring, gens, free.dim, free.mul_vectors)
    return BettiTable({(i, j - mod.shift): b for (i, j), b in entries.items()},
                      complete=complete)
