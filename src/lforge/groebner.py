"""Reduced Groebner bases: Buchberger's algorithm with Gebauer-Moller pair
elimination and sugar selection, a degree-by-degree Macaulay-matrix
algorithm for homogeneous ideals over F_p, and normal forms.

Routing.  ``groebner_basis`` is the one entry point, and the input alone
picks the engine: homogeneous generators over a prime field go to
``macaulay_basis``, all else to ``buchberger``.  Over F_p no ideal
operation or experiment has inhomogeneous input, so ``buchberger`` serves
the rationals, inhomogeneous files given to ``lforge gb`` and the test
oracles.  A reduced basis is unique, so both give the same basis.

Degree by degree (Lazard, EUROCAL '83; Faugere's F4, JPAA 139, 1999, with
its normal strategy).  For homogeneous input every S-polynomial and every
reduction stays homogeneous, so the basis is completed one degree at a time:
once the pairs and generators of degree below d are done, the elements found
so far are the elements of the reduced basis of degree below d, and nothing
later changes them, since no leading monomial of degree d or more divides a
monomial of lower degree.  The rows of degree d are both halves
(l/lm_i) g_i and (l/lm_j) g_j of every pair of degree d = deg l and the
generators of degree d.  ``symbolic_preprocessing`` gives them one reducer
(m/lm) g for every column m that an earlier leading monomial lm divides, and
``reduce_rows`` takes their coordinates on the other columns modulo the
reducers (the split of Faugere & Lachartre, PASCO 2010); one ``rref_mod`` of
that remainder ends the degree.  No earlier leading monomial divides its
columns, so each pivot is a new leading monomial, and its row is already the
monic, fully reduced basis element.  The graded colon of ``ideals`` reduces
its rows against a complete basis with the same two routines.

Monomials by position.  The engine holds its polynomials in a TermTable:
the exponent rows and coefficients of their terms, and the leading rows.
A column is a position in the ring's monomials_of_degree(d), and every
product u t of a row's monomial and a term is located by one gather over
the ring's index (``PolynomialRing.suffix_positions``), a block of rows at
a time.  The reducer of column m is the least element whose leading
monomial divides m, read off the basis's cover array of degree d, which is
built from degree d - 1's by dividing by each variable; the preprocessing
scans the columns in waves of array operations, the reducers of one wave's
new columns giving the next wave's, and ``reduce_rows`` fills each matrix
with one fancy assignment per block.  New elements come out of
``rref_mod`` as positions already.  The pair set takes its lcms and both
criteria on exponent rows.

Determinism: pair selection is by (sugar degree, packed lcm, indices); all
container iteration is over sorted structures, so identical inputs give
structurally identical bases.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import mul

import numpy as np

from .fields import PrimeField
from .linalg import _modulus, reduce_mod, rref_mod, zeros_over
from .mpoly import MPoly, RingMismatch, suffix_sums


# the cover of a monomial that no leading monomial divides
UNCOVERED = np.iinfo(np.intp).max


class TermTable:
    """Polynomials of one ring as rows: the exponent rows (int32) and the
    coefficients (in ``zeros_over``'s dtype) of each one's terms, in its
    term order, so that multiples of whole blocks of them are located by
    ``PolynomialRing.positions``.  Read as a basis, ``cover(d)`` gives,
    for every monomial of degree d, the least element whose leading
    monomial divides it."""

    def __init__(self, ring):
        self.ring = ring
        self.polys: list[MPoly] = []
        self.terms: list[np.ndarray] = []
        self.coefs: list[np.ndarray] = []
        self._flat = None
        self._cover = None  # (degree, cover array of that degree)

    @classmethod
    def from_polys(cls, ring, polys):
        """The table of polys, their monomials unpacked in one call."""
        table = cls(ring)
        rows = ring.code.unpack_rows([m for f in polys for m, _ in f.terms])
        dtype = zeros_over(ring.field, 0).dtype
        k = 0
        for f in polys:
            table.append(f, rows[k:k + len(f)],
                         np.array([c for _, c in f.terms], dtype=dtype))
            k += len(f)
        return table

    def __len__(self):
        return len(self.polys)

    def append(self, f: MPoly, rows, coefs):
        """Add f, with the exponent rows and coefficients of its terms."""
        self.polys.append(f)
        self.terms.append(rows)
        self.coefs.append(coefs)
        self._flat = None
        if self._cover is not None and rows[0].sum() < self._cover[0]:
            self._cover = None  # the kept cover misses f

    def flat(self):
        """(suffixes, coefs, start, length, lead): the suffix sums
        (mpoly.suffix_sums) and coefficients of all terms, one polynomial
        after the other, where each polynomial's terms start and how many,
        and the exponent rows of the leading monomials."""
        if self._flat is None:
            length = np.array([len(t) for t in self.terms], dtype=np.intp)
            rows = (np.concatenate(self.terms) if self.terms
                    else np.zeros((0, self.ring.nvars), dtype=np.int32))
            start = np.cumsum(length) - length
            self._flat = (suffix_sums(rows),
                          np.concatenate(self.coefs) if self.coefs
                          else zeros_over(self.ring.field, 0),
                          start, length, rows[start])
        return self._flat

    @property
    def lead(self) -> np.ndarray:
        """The exponent rows of the leading monomials."""
        return self.flat()[4]

    def cover(self, d: int) -> np.ndarray:
        """For each monomial of degree d, the least i whose leading monomial
        divides it, or UNCOVERED.  Built from degree d - 1's array: lm_i
        divides m of degree d iff lm_i = m or lm_i divides some m / x_j.
        The last degree's array is kept, and the leading monomials of its
        degree are entered again when it is extended, so elements appended
        in that degree are covered."""
        ring, lead = self.ring, self.lead
        degs = lead.sum(axis=1)
        if self._cover is not None and self._cover[0] <= d:
            c, cover = self._cover
        else:
            c = min(d, int(degs.min(initial=d)))
            cover = np.full(len(ring.exponents(c)), UNCOVERED)
        while True:
            np.minimum.at(cover, ring.positions(lead[degs == c], c),
                          np.flatnonzero(degs == c))
            if c == d:
                break
            c += 1
            # a missing quotient (-1) reads the appended UNCOVERED
            cover = np.append(cover, UNCOVERED)[
                ring.quotient_positions(c)].min(axis=1)
        self._cover = (d, cover)
        return cover


class GroebnerBasis:
    """A reduced Groebner basis: ``basis`` sorted by leading monomial, and
    ``lead``, the exponent rows of the leading monomials, unpacked in one
    call."""

    __slots__ = ("basis", "ring", "lead")

    def __init__(self, basis, ring):
        self.basis = tuple(basis)
        self.ring = ring
        self.lead = lead = ring.code.unpack_rows([g.lm for g in self.basis])
        divides = (lead[:, None, :] >= lead[None, :, :]).all(axis=2)
        np.fill_diagonal(divides, False)
        if divides.any():
            raise ValueError(
                "reduced basis has a leading monomial dividing another")

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def __repr__(self):
        return f"GroebnerBasis({len(self.basis)} elements over {self.ring})"


def normal_form(f: MPoly, G) -> MPoly:
    """Fully reduce f modulo the polynomial list G (top and tail reduction).

    Terms are taken largest first, each reduced by the first reducer in
    ascending lm order that divides it: G need not be a Groebner basis
    (Buchberger reduces by partial bases), so that choice fixes the result.
    Over F_p a coefficient is reduced mod p only when its monomial is
    popped, and so is the multiple of the reducer it is taken to; the
    updates in between are plain integer arithmetic, as over Q."""
    ring = f.ring
    gens = [g for g in G if g and not g.is_zero()]
    for g in gens:
        if g.ring is not ring:
            raise RingMismatch("normal form across different rings")
    if not gens or f.is_zero():
        return f
    code = ring.code
    F = ring.field
    p = F.p if isinstance(F, PrimeField) else None
    K0, GUARD = code.K0, code.GUARD
    # lm divides m iff q = m - (lm - K0) is >= 0 with no guard bit set; then
    # q - K0 = m - lm shifts the tail
    red = sorted(((g.lm - K0, F.inv(g.lc), g.terms[1:]) for g in gens),
                 key=lambda t: t[0])
    work = dict(f.terms)
    # a max-heap of work's keys: reductions only add monomials below the
    # current one, so each is pushed once, when it first enters work
    heap = [-m for m in work]
    heapify(heap)
    out = []
    while heap:
        m = -heappop(heap)
        c = work[m] if p is None else work[m] % p
        if not c:
            continue
        for key, ilc, tail in red:
            q = m - key
            if q >= 0 and not q & GUARD:
                coef = c * ilc if p is None else c * ilc % p
                off = q - K0
                for mt, ct in tail:
                    mm = mt + off
                    v = work.get(mm)
                    if v is None:
                        heappush(heap, -mm)
                        v = 0
                    work[mm] = v - coef * ct
                break
        else:
            out.append((m, c))
    return MPoly(ring, tuple(out))  # popped in descending order


def s_polynomial(f: MPoly, g: MPoly) -> MPoly:
    ring = f.ring
    code, F = ring.code, ring.field
    l = code.lcm(f.lm, g.lm)
    cofactors = (MPoly(ring, ((code.divides(f.lm, l), F.inv(f.lc)),)),
                 MPoly(ring, ((code.divides(g.lm, l), F.neg(F.inv(g.lc))),)))
    return ring.dot((f, g), cofactors)


def _common_ring(gens, order):
    """The nonzero generators, moved into the ring with the given order."""
    gens = [g for g in gens if g and not g.is_zero()]
    if not gens:
        raise ValueError("a Groebner basis needs a nonempty generator list")
    ring = gens[0].ring
    for g in gens:
        if g.ring is not ring:
            raise RingMismatch("generators live in different rings")
    if order is not None and order != ring.order:
        ring = ring.with_order(order)
        gens = [ring.convert(g) for g in gens]
    return gens, ring


def _reserve(a, n: int):
    """a with at least n rows: a itself, or a zero-filled copy that
    doubles its length (or grows to n) with a's rows on top."""
    if n <= len(a):
        return a
    out = np.zeros((max(n, 2 * len(a)),) + a.shape[1:], a.dtype)
    out[:len(a)] = a
    return out


class _Pairs:
    """The Gebauer-Moller pair set of a growing basis.

    lms[i] and sugars[i] are the leading monomial and sugar of element i,
    pairs maps (i, j) to (sugar, lcm), and redundant holds the indices of
    elements whose leading monomial a later one divides.  Each leading
    monomial is unpacked once, into row i of exps (which doubles when
    full), and the lcms L[i] = lcm(lm_i, lmh) and both criteria are taken
    on exponent rows in a few 2-D passes: an L[b] dividing L[a] has lower
    degree unless the two are equal, so the chain criterion's mask "b
    drops a" starts as (deg L[b], b) < (deg L[a], a) and ANDs in one
    comparison per variable, and the prune tells lcms apart by degree.  A
    packed lcm is K0 + sum_k e_k (var(k) - K0), affine in its exponents e.
    For the pruning step, the keys of the pairs are also kept as rows of
    an array, beside each pair's lcm row and degree (arrays that double
    when full); keys popped since the last compaction stay there until
    they outnumber the live ones."""

    def __init__(self, code):
        self.code = code
        self.lms: list[int] = []
        self.sugars: list[int] = []
        self.redundant: set[int] = set()
        self.pairs: dict[tuple[int, int], tuple[int, int]] = {}
        self.exps = np.zeros((16, code.nvars), dtype=np.int32)
        self._live = np.zeros(16, dtype=bool)  # not in redundant
        self._nkeys = 0  # rows of _keys, _lcms and _ldegs in use
        self._keys = np.zeros((16, 2), dtype=np.intp)
        self._lcms = np.zeros((16, code.nvars), dtype=np.int32)
        self._ldegs = np.zeros(16, dtype=np.int32)
        self._steps = [code.var(k) - code.K0 for k in range(code.nvars)]

    def add(self, lmh: int, sugar: int):
        """Update the pairs for a new element with leading monomial lmh and
        the given sugar, which gets index len(lms)."""
        pairs, t = self.pairs, len(self.lms)
        self.exps, self._live = _reserve(self.exps, t + 1), _reserve(
            self._live, t + 1)
        E = self.exps[:t]
        eh = np.array(self.code.unpack(lmh), dtype=np.int32)
        L = np.maximum(E, eh)  # lcm(lm_i, lmh), one row per i
        degs = L.sum(axis=1)
        cand = np.flatnonzero(self._live[:t])
        # the product criterion, then the chain criterion among all
        # candidates: a strict divisor, or the same lcm at a lower index,
        # drops a pair; (deg L[b], b) < (deg L[a], a) as one integer
        rest = cand[((E[cand] > 0) & (eh > 0)).any(axis=1)]
        rank = degs * t + np.arange(t)
        A, C = L[rest], L[cand]
        drops = rank[cand] < rank[rest, None]
        for k in range(E.shape[1]):
            drops &= C[:, k] <= A[:, k, None]
        kept = rest[~drops.any(axis=1)]
        # prune old pairs strictly dominated by the newcomer: lcm(lm_i, lmh)
        # divides Lij, so it differs from Lij when its degree is lower
        n = self._nkeys if pairs else 0  # no pairs: every key was popped
        if n > 2 * len(pairs):  # compact: drop the keys popped since
            keep = np.fromiter((key in pairs for key in map(
                tuple, self._keys[:n].tolist())), dtype=bool, count=n)
            n = int(keep.sum())
            for a in (self._keys, self._lcms, self._ldegs):
                a[:n] = a[:len(keep)][keep]
        if n:
            i, j = self._keys[:n].T
            dij = self._ldegs[:n]
            drop = ((self._lcms[:n] >= eh).all(axis=1) & (degs[i] < dij)
                    & (degs[j] < dij))
            for key in self._keys[:n][drop].tolist():
                pairs.pop(tuple(key), None)
        m = n + len(kept)
        self._keys, self._lcms, self._ldegs = (
            _reserve(a, m) for a in (self._keys, self._lcms, self._ldegs))
        self._keys[n:m, 0], self._keys[n:m, 1] = kept, t
        self._lcms[n:m], self._ldegs[n:m] = L[kept], degs[kept]
        self._nkeys = m
        degs, dh = degs.tolist(), int(eh.sum())
        lead_degs = E.sum(axis=1).tolist()
        K0, steps = self.code.K0, self._steps
        for i in kept.tolist():
            s = max(self.sugars[i] + degs[i] - lead_degs[i],
                    sugar + degs[i] - dh)
            pairs[(i, t)] = (s, K0 + sum(map(mul, L[i].tolist(), steps)))
        gone = cand[(E[cand] >= eh).all(axis=1)]
        self._live[gone] = False
        self.redundant.update(gone.tolist())
        self.exps[t], self._live[t] = eh, True
        self.lms.append(lmh)
        self.sugars.append(sugar)


def buchberger(gens) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens, in the order
    of their ring."""
    gens, ring = _common_ring(gens, None)
    G: list[MPoly] = []
    P = _Pairs(ring.code)
    redundant, pairs = P.redundant, P.pairs
    reducers: list[MPoly] = []  # G without the redundant elements

    def add_element(h: MPoly, sugar: int):
        P.add(h.lm, sugar)
        G.append(h)
        reducers[:] = [x for i, x in enumerate(G) if i not in redundant]

    for g in sorted(gens, key=lambda f: f.lm):
        h = normal_form(g, reducers)
        if not h.is_zero():
            add_element(h.monic(), h.degree())

    while pairs:
        key = min(pairs, key=lambda k: (pairs[k][0], pairs[k][1], k))
        sugar, _ = pairs.pop(key)
        i, j = key
        sp = s_polynomial(G[i], G[j])
        h = normal_form(sp, reducers)
        if h.is_zero():
            continue
        add_element(h.monic(), max(sugar, h.degree()))

    return GroebnerBasis(_interreduce(reducers), ring)


def _interreduce(polys):
    """Each of polys tail-reduced against the others, ascending.  No leading
    monomial of polys divides another: each was reduced against those before
    it, and each that a later one divides was dropped (_Pairs.redundant)."""
    out = [normal_form(f, polys[:i] + polys[i + 1:]).monic()
           for i, f in enumerate(polys)]
    return sorted(out, key=lambda f: f.lm)


def _by_degree(gens):
    """The generators grouped by degree, or None if one is inhomogeneous."""
    by_degree: dict[int, list[MPoly]] = {}
    for g in gens:
        d = g.is_homogeneous()
        if d is False:
            return None
        by_degree.setdefault(d, []).append(g)
    return by_degree


def macaulay_basis(by_degree: dict) -> GroebnerBasis:
    """Reduced Groebner basis of homogeneous generators over a prime field,
    given as a dict from degree to the generators of that degree (as
    groebner_basis groups them), in the order of their ring, one Macaulay
    matrix per degree (see the module docstring)."""
    ring = next(iter(by_degree.values()))[0].ring
    B = TermTable(ring)
    # pairs maps (i, j) to (degree, lcm); P.redundant stays empty (see the
    # module docstring)
    P = _Pairs(ring.code)
    pairs = P.pairs
    while pairs or by_degree:
        d = min([s for s, _ in pairs.values()] + list(by_degree))
        # a half shared by two pairs is one row: (i, lcm) -> the pair
        halves = {}
        for key in sorted(k for k, (s, _) in pairs.items() if s == d):
            _, l = pairs.pop(key)
            for i in key:
                halves.setdefault((i, l), key)
        ids = np.array([i for i, _ in halves], dtype=np.intp)
        ij = np.array(list(halves.values()), dtype=np.intp).reshape(-1, 2)
        lcms = np.maximum(P.exps[ij[:, 0]], P.exps[ij[:, 1]])
        rows = [((lcms - P.exps[ids]).astype(np.int32), ids, B)]
        if d in by_degree:
            X = TermTable.from_polys(ring, by_degree.pop(d))
            rows.append((np.zeros((len(X), ring.nvars), dtype=np.int32),
                         np.arange(len(X)), X))
        pivots, rest = symbolic_preprocessing(rows, B, d)
        R, piv = rref_mod(reduce_rows(rows, B, pivots, rest, d),
                          ring.field.p)
        # the pivot rows' terms, row by row; each column is packed once
        r, c = np.nonzero(R[:len(piv)])
        coefs = R[r, c]
        del R  # one degree's matrices alive at a time
        E = ring.exponents(d)[rest]
        mons = ring.code.pack_rows(E) if len(piv) else []
        c, cs = c.tolist(), coefs.tolist()
        ends = np.cumsum(np.bincount(r, minlength=len(piv))).tolist()
        for a, b in zip([0] + ends, ends):
            f = MPoly(ring, tuple(zip([mons[k] for k in c[a:b]], cs[a:b])))
            P.add(f.lm, d)
            B.append(f, E[c[a:b]], coefs[a:b])
    return GroebnerBasis(sorted(B.polys, key=lambda f: f.lm), ring)


def _products(rows, d):
    """For row sets (U, ids, table), row r of a set being the polynomial
    table.polys[ids[r]] times the monomial of exponent row U[r], of degree
    d: blocks (r, at, c), each term of each row of a block of rows, r the
    row's index counted across the sets, at its position in
    monomials_of_degree(d) and c its coefficient.  A block holds about
    _BLOCK terms, so the exponent rows and ranks stay small."""
    top = 0
    for U, ids, table in rows:
        S, C, start, length, _ = table.flat()
        SU = suffix_sums(U)  # the suffix sums of a product add up
        lens = length[ids]
        ends = np.cumsum(lens)
        cuts = [0, *np.searchsorted(ends, range(_BLOCK, int(ends[-1]) if
                                                len(ends) else 0, _BLOCK),
                                    side="right").tolist(), len(ids)]
        for lo, hi in zip(cuts, cuts[1:]):
            if lo == hi:
                continue
            first = ends[lo:hi] - lens[lo:hi]
            t = (np.arange(first[0], ends[hi - 1])
                 + np.repeat(start[ids[lo:hi]] - first, lens[lo:hi]))
            s = np.repeat(SU[:, lo:hi], lens[lo:hi], axis=1)
            s += S.take(t, axis=1)
            yield (top + np.repeat(np.arange(lo, hi), lens[lo:hi]),
                   table.ring.suffix_positions(s, d), C.take(t))
        top += len(ids)


# terms per block of _products
_BLOCK = 1 << 15


def symbolic_preprocessing(rows, basis: TermTable, d: int):
    """The columns of the row sets rows (see _products), of degree d,
    against the basis: every monomial of a row or of a reducer, each
    reducer being (m / lm) g for a column m that a leading monomial lm of
    the basis divides, g = basis.cover(d)[m], the least such element.  The
    columns are scanned in waves: the reducers of one wave's new columns
    give the next wave's.  Returns (pivots, rest), the positions in
    monomials_of_degree(d) of the reducers' leading monomials and of the
    other columns, both ascending (descending in the order)."""
    ring = basis.ring
    cover = basis.cover(d)
    E, lead = ring.exponents(d), basis.lead
    seen = np.zeros(len(cover), dtype=bool)
    while True:
        fresh = np.zeros_like(seen)
        for _, at, _ in _products(rows, d):
            fresh[at] = True
        fresh &= ~seen
        if not fresh.any():
            break
        seen |= fresh
        new = np.flatnonzero(fresh)
        new = new[cover[new] != UNCOVERED]
        rows = [(E[new] - lead[cover[new]], cover[new], basis)]
    covered = cover != UNCOVERED
    return np.flatnonzero(seen & covered), np.flatnonzero(seen & ~covered)


def reduce_rows(rows, basis: TermTable, pivots, rest, d: int):
    """The coordinates of the row sets rows modulo their reducers (see
    symbolic_preprocessing, whose pivots and rest these are) on the columns
    rest: ``reduce_mod`` of the two coefficient matrices, as the monic
    reducers are unit upper triangular on the pivots.  Each block of
    _products is one fancy assignment."""
    ring = basis.ring
    g = basis.cover(d)[pivots]
    reducers = [(ring.exponents(d)[pivots] - basis.lead[g], g, basis)]
    column = np.empty(len(ring.exponents(d)), dtype=np.intp)
    column[pivots] = np.arange(len(pivots))
    column[rest] = np.arange(len(pivots), len(pivots) + len(rest))
    ncols = len(pivots) + len(rest)
    M = []
    for sets in (reducers, rows):
        M.append(zeros_over(ring.field, (sum(len(x[1]) for x in sets),
                                         ncols)))
        for r, at, c in _products(sets, d):
            M[-1][r, column[at]] = c
    return reduce_mod(M[0], M[1], _modulus(ring.field))


def groebner_basis(gens, order=None) -> GroebnerBasis:
    """Reduced Groebner basis of gens: the one entry point the ideal layer
    uses.

    Homogeneous generators over a prime field go to ``macaulay_basis``,
    degree by degree, grouped by degree once here; everything else goes to
    ``buchberger``."""
    gens, ring = _common_ring(gens, order)
    if isinstance(ring.field, PrimeField):
        by_degree = _by_degree(gens)
        if by_degree is not None:
            return macaulay_basis(by_degree)
    return buchberger(gens)
