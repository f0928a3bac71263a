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
from .mpoly import MPoly, RingMismatch


class GroebnerBasis:
    __slots__ = ("basis", "ring")

    def __init__(self, basis, ring):
        self.basis = tuple(basis)
        self.ring = ring
        lms = [g.lm for g in self.basis]
        code = ring.code
        for i, a in enumerate(lms):
            for j, b in enumerate(lms):
                if i != j and code.divides(a, b) is not None:
                    raise ValueError(
                        "reduced basis has a leading monomial dividing another"
                    )

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
    code = f.ring.code
    F = f.ring.field
    l = code.lcm(f.lm, g.lm)
    uf = code.divides(f.lm, l)
    ug = code.divides(g.lm, l)
    return f.mul_term(uf, F.inv(f.lc)) - g.mul_term(ug, F.inv(g.lc))


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


class _Pairs:
    """The Gebauer-Moller pair set of a growing basis.

    lms[i] and sugars[i] are the leading monomial and sugar of element i,
    pairs maps (i, j) to (sugar, lcm), and redundant holds the indices of
    elements whose leading monomial a later one divides.  Each leading
    monomial is unpacked once, when it is added: a packed monomial is
    K0 + sum_k e_k (var(k) - K0), affine in its exponents e, so an lcm is
    that sum over the larger exponents, and a support bitmask decides the
    product criterion."""

    def __init__(self, code):
        self.code = code
        self.lms: list[int] = []
        self.sugars: list[int] = []
        self.redundant: set[int] = set()
        self.pairs: dict[tuple[int, int], tuple[int, int]] = {}
        self._exps: list[tuple] = []
        self._supports: list[int] = []
        self._steps = [code.var(k) - code.K0 for k in range(code.nvars)]

    def add(self, lmh: int, sugar: int):
        """Update the pairs for a new element with leading monomial lmh and
        the given sugar, which gets index len(lms)."""
        code, lms, redundant, pairs = (self.code, self.lms, self.redundant,
                                       self.pairs)
        deg = code.deg
        t = len(lms)
        eh = code.unpack(lmh)
        support = sum(1 << k for k, a in enumerate(eh) if a)
        K0, GUARD, steps = code.K0, code.GUARD, self._steps
        lcms = [K0 + sum(map(mul, map(max, ea, eh), steps))
                for ea in self._exps]
        cand = [(i, lcms[i]) for i in range(t) if i not in redundant]
        kept = []
        for i, l in cand:
            if not self._supports[i] & support:
                continue  # Buchberger product criterion
            dominated = False
            for j, lj in cand:
                if j == i:
                    continue
                if lj != l and (q := l - lj + K0) >= 0 and not q & GUARD:
                    dominated = True  # lj divides l
                    break
                if lj == l and j < i:
                    dominated = True  # keep only the least index per lcm
                    break
            if not dominated:
                kept.append((i, l))
        # prune old pairs strictly dominated by the newcomer
        for (i, j), (s, l) in list(pairs.items()):
            if ((q := l - lmh + K0) >= 0 and not q & GUARD
                    and lcms[i] != l and lcms[j] != l):
                del pairs[(i, j)]
        for i, l in kept:
            s = max(
                self.sugars[i] + deg(l) - deg(lms[i]),
                sugar + deg(l) - deg(lmh),
            )
            pairs[(i, t)] = (s, l)
        for i in range(t):
            if i not in redundant and code.divides(lmh, lms[i]) is not None:
                redundant.add(i)
        lms.append(lmh)
        self.sugars.append(sugar)
        self._exps.append(eh)
        self._supports.append(support)


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


def macaulay_basis(gens) -> GroebnerBasis:
    """Reduced Groebner basis of homogeneous generators over a prime field,
    in the order of their ring, one Macaulay matrix per degree (see the
    module docstring).

    gens may also be a dict from degree to the generators of that degree,
    as groebner_basis passes them after grouping them once."""
    if isinstance(gens, dict):
        by_degree = gens
        ring = next(iter(by_degree.values()))[0].ring
    else:
        gens, ring = _common_ring(gens, None)
        by_degree = _by_degree(gens)
        if by_degree is None or not isinstance(ring.field, PrimeField):
            raise ValueError(
                "macaulay_basis needs homogeneous generators over F_p")
    G: list[MPoly] = []
    # pairs maps (i, j) to (degree, lcm); P.redundant stays empty (see the
    # module docstring)
    P = _Pairs(ring.code)
    lms, pairs = P.lms, P.pairs
    while pairs or by_degree:
        d = min([s for s, _ in pairs.values()] + list(by_degree))
        # a half shared by two pairs is one row
        halves = {}
        for key in sorted(k for k, (s, _) in pairs.items() if s == d):
            _, l = pairs.pop(key)
            for i in key:
                halves[i, l - lms[i]] = G[i]
        rows = [(off, f) for (_, off), f in halves.items()]
        rows += [(0, g) for g in by_degree.pop(d, [])]
        reducers, pivots, rest = symbolic_preprocessing(rows, G)
        R, piv = rref_mod(reduce_rows(rows, reducers, pivots + rest),
                          ring.field.p)
        for r, c in enumerate(piv):
            nz = np.flatnonzero(R[r])
            P.add(rest[c], d)
            G.append(MPoly(ring, tuple(zip([rest[k] for k in nz.tolist()],
                                           R[r, nz].tolist()))))
        del R  # one degree's matrices alive at a time
    return GroebnerBasis(sorted(G, key=lambda f: f.lm), ring)


def symbolic_preprocessing(rows, G):
    """The reducers of the rows (off, f), f times the monomial u with
    off = u - K0, against G, monic with distinct leading monomials: for
    every column m (a monomial of a row or of a reducer) that a leading
    monomial of G divides, one reducer (m/lm) g, for the first g in G whose
    leading monomial lm divides m.  Returns the reducers as (off, g), their
    leading monomials (the pivots) and the other columns, both descending."""
    K0, GUARD = rows[0][1].ring.code.K0, rows[0][1].ring.code.GUARD
    lms = [g.lm for g in G]
    polys = list(rows)  # grows while it is scanned
    found = {}
    cols = set()
    for off, f in polys:
        for m, _ in f.terms:
            m += off
            if m in cols:
                continue
            cols.add(m)
            for g, lm in zip(G, lms):
                q = m - lm + K0
                if q >= 0 and not q & GUARD:
                    found[m] = (m - lm, g)
                    polys.append(found[m])
                    break
    pivots = sorted(found, reverse=True)
    return ([found[m] for m in pivots], pivots,
            sorted(cols.difference(found), reverse=True))


def reduce_rows(rows, reducers, cols):
    """The coordinates of the rows (off, f) modulo the reducers that
    ``symbolic_preprocessing`` gave them, on the columns cols (the pivots,
    then the rest) past the pivots: ``reduce_mod`` of the two coefficient
    matrices, as the monic reducers are unit upper triangular on the
    pivots."""
    field = rows[0][1].ring.field
    index = {m: c for c, m in enumerate(cols)}
    R, T = (zeros_over(field, (len(x), len(cols))) for x in (reducers, rows))
    for M, x in ((R, reducers), (T, rows)):
        groups = {}  # one array write per polynomial
        for r, (off, f) in enumerate(x):
            groups.setdefault(id(f), (f, []))[1].append((r, off))
        for f, at in groups.values():
            ts, cs = zip(*f.terms)
            M[[[r] for r, _ in at],
              [[index[t + off] for t in ts] for _, off in at]] = cs
    return reduce_mod(R, T, _modulus(field))


def spair_audit(G: GroebnerBasis) -> bool:
    """Post-hoc check: every S-polynomial of the basis reduces to zero.
    Test oracle for the Groebner bases of test_groebner.py."""
    basis = list(G.basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            sp = s_polynomial(basis[i], basis[j])
            if not normal_form(sp, basis).is_zero():
                return False
    return True


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
