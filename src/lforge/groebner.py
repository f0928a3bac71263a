"""Reduced Groebner bases: Buchberger's algorithm with Gebauer-Moller pair
elimination and sugar selection, a degree-by-degree Macaulay-matrix
algorithm for homogeneous ideals over F_p, and normal forms.

Routing.  ``groebner_basis`` is the one entry point.  It sends a call to
``macaulay_basis`` when the field is a prime field and every generator is
homogeneous; every other call (the rationals, inhomogeneous input such as
the t-trick of ``intersect`` and ``eliminate``) goes to ``buchberger``, which
is also the test oracle.  The input alone picks the engine.  A reduced basis
is unique, so both give the same basis.

Degree by degree (Lazard, EUROCAL '83; Faugere's F4, JPAA 139, 1999, with
its normal strategy).  For homogeneous input every S-polynomial and every
reduction stays homogeneous, so the basis is completed one degree at a time:
once the pairs and generators of degree below d are done, the elements found
so far are the elements of the reduced basis of degree below d, and nothing
later changes them, since no leading monomial of degree d or more divides a
monomial of lower degree.  Degree d is one Macaulay matrix: both halves
(l/lm_i) g_i and (l/lm_j) g_j of every pair of degree d = deg l, the
generators of degree d, and, for every other column monomial m that an
earlier leading monomial lm divides, one reducer (m/lm) g (symbolic
preprocessing).  Its columns run in descending monomial order, and one
``rref_mod`` reduces it.  A pivot whose monomial no earlier leading monomial
divides is a new leading monomial, and its row is already the monic, fully
reduced basis element: every column of the row that an earlier leading
monomial divides, or that is another pivot, has been cleared.

Determinism: pair selection is by (sugar degree, packed lcm, indices); all
container iteration is over sorted structures, so identical inputs give
structurally identical bases.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

import numpy as np

from .fields import PrimeField
from .linalg import rref_mod
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
    (Buchberger reduces by partial bases), so that choice fixes the result."""
    ring = f.ring
    gens = [g for g in G if g and not g.is_zero()]
    for g in gens:
        if g.ring is not ring:
            raise RingMismatch("normal form across different rings")
    if not gens or f.is_zero():
        return f
    code = ring.code
    F = ring.field
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
    if isinstance(F, PrimeField):
        p = F.p
        while heap:
            m = -heappop(heap)
            c = work[m]
            if c == 0:
                continue
            for key, ilc, tail in red:
                q = m - key
                if q >= 0 and not q & GUARD:
                    coef = c * ilc % p
                    off = q - K0
                    for mt, ct in tail:
                        mm = mt + off
                        v = work.get(mm)
                        if v is None:
                            heappush(heap, -mm)
                            v = 0
                        work[mm] = (v - coef * ct) % p
                    break
            else:
                out.append((m, c))
    else:
        while heap:
            m = -heappop(heap)
            c = work[m]
            if F.is_zero(c):
                continue
            for key, ilc, tail in red:
                q = m - key
                if q >= 0 and not q & GUARD:
                    coef = F.mul(c, ilc)
                    off = q - K0
                    for mt, ct in tail:
                        mm = mt + off
                        v = work.get(mm)
                        if v is None:
                            heappush(heap, -mm)
                            v = F.zero
                        work[mm] = F.sub(v, F.mul(coef, ct))
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


def _add_pairs(code, lms, sugars, redundant, pairs, lmh, sugar):
    """Gebauer-Moller update of the pair set for a new element with leading
    monomial lmh and the given sugar, which gets index len(lms).

    pairs maps (i, j) to (sugar, lcm); lms and sugars are appended to, and
    the indices of earlier elements whose leading monomial lmh divides are
    added to redundant."""
    deg = code.deg
    t = len(lms)
    cand = [(i, code.lcm(lms[i], lmh)) for i in range(t) if i not in redundant]
    kept = []
    for i, l in cand:
        if code.coprime(lms[i], lmh):
            continue  # Buchberger product criterion
        dominated = False
        for j, lj in cand:
            if j == i:
                continue
            if lj != l and code.divides(lj, l) is not None:
                dominated = True
                break
            if lj == l and j < i:
                dominated = True  # keep only the least index per lcm
                break
        if not dominated:
            kept.append((i, l))
    # prune old pairs strictly dominated by the newcomer
    for (i, j), (s, l) in list(pairs.items()):
        if (
            code.divides(lmh, l) is not None
            and code.lcm(lms[i], lmh) != l
            and code.lcm(lms[j], lmh) != l
        ):
            del pairs[(i, j)]
    for i, l in kept:
        s = max(
            sugars[i] + deg(l) - deg(lms[i]),
            sugar + deg(l) - deg(lmh),
        )
        pairs[(i, t)] = (s, l)
    for i in range(t):
        if i not in redundant and code.divides(lmh, lms[i]) is not None:
            redundant.add(i)
    lms.append(lmh)
    sugars.append(sugar)


def buchberger(gens, order=None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens."""
    gens, ring = _common_ring(gens, order)
    code = ring.code

    G: list[MPoly] = []
    lms: list[int] = []
    sugars: list[int] = []
    redundant: set[int] = set()
    pairs: dict[tuple[int, int], tuple[int, int]] = {}  # (i,j) -> (sugar, lcm)

    def add_element(h: MPoly, sugar: int):
        _add_pairs(code, lms, sugars, redundant, pairs, h.lm, sugar)
        G.append(h)

    for g in sorted(gens, key=lambda f: f.lm):
        h = normal_form(g, [x for i, x in enumerate(G) if i not in redundant])
        if not h.is_zero():
            add_element(h.monic(), h.degree())

    while pairs:
        key = min(pairs, key=lambda k: (pairs[k][0], pairs[k][1], k))
        sugar, _ = pairs.pop(key)
        i, j = key
        sp = s_polynomial(G[i], G[j])
        h = normal_form(sp, [x for k, x in enumerate(G) if k not in redundant])
        if h.is_zero():
            continue
        add_element(h.monic(), max(sugar, h.degree()))

    basis = _interreduce([G[i] for i in range(len(G)) if i not in redundant], ring)
    return GroebnerBasis(basis, ring)


def _interreduce(polys, ring):
    # minimalize by leading monomials
    by_lm = {f.lm: f for f in polys}
    keep = [by_lm[m] for m in minimalize_monomials(by_lm, ring.code)]
    # tail-reduce each against the others
    out = []
    for i, f in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = normal_form(f, others)
        out.append(r.monic())
    out.sort(key=lambda f: f.lm)
    return out


def macaulay_basis(gens, order=None) -> GroebnerBasis:
    """Reduced Groebner basis of homogeneous generators over a prime field,
    one Macaulay matrix per degree (see the module docstring)."""
    gens, ring = _common_ring(gens, order)
    by_degree: dict[int, list[MPoly]] = {}
    for g in gens:
        by_degree.setdefault(g.is_homogeneous(), []).append(g)
    if not isinstance(ring.field, PrimeField) or any(
            d is False for d in by_degree):
        raise ValueError("macaulay_basis needs homogeneous generators over F_p")
    code = ring.code
    K0, GUARD = code.K0, code.GUARD
    G: list[MPoly] = []
    lms: list[int] = []
    sugars: list[int] = []
    redundant: set[int] = set()  # stays empty: see the module docstring
    pairs: dict[tuple[int, int], tuple[int, int]] = {}  # (i,j) -> (deg, lcm)
    while pairs or by_degree:
        d = min([s for s, _ in pairs.values()] + list(by_degree))
        # rows are ((element index, monomial offset), polynomial); a half
        # shared by two pairs is one row
        rows = {}
        covered = set()  # columns that an earlier leading monomial divides
        for key in sorted(k for k, (s, _) in pairs.items() if s == d):
            _, l = pairs.pop(key)
            covered.add(l)
            for i in key:
                rows[i, l - lms[i]] = G[i]
        polys = list(rows.items()) + [((None, 0), g)
                                      for g in by_degree.pop(d, [])]
        # symbolic preprocessing: one reducer for every other column that an
        # earlier leading monomial divides; polys grows while it is scanned
        cols = set()
        k = 0
        while k < len(polys):
            (_, off), f = polys[k]
            k += 1
            for m, _ in f.terms:
                m += off
                if m in cols:
                    continue
                cols.add(m)
                if m in covered:
                    continue
                for i, lm in enumerate(lms):
                    q = m - lm + K0
                    if q >= 0 and not q & GUARD:
                        covered.add(m)
                        polys.append(((i, m - lm), G[i]))
                        break
        colmons = sorted(cols, reverse=True)
        index = {m: c for c, m in enumerate(colmons)}
        M = np.zeros((len(polys), len(colmons)), dtype=np.int64)
        for r, ((_, off), f) in enumerate(polys):
            M[r, [index[m + off] for m, _ in f.terms]] = [c for _, c in f.terms]
        R, piv = rref_mod(M, ring.field.p)
        del M  # one degree's matrix alive at a time
        lead = [colmons[c] for c in piv]
        fresh = set(minimalize_monomials(lms + lead, code)).difference(lms)
        for r, m in enumerate(lead):
            if m in fresh:
                nz = np.flatnonzero(R[r])
                h = MPoly(ring, tuple(zip([colmons[c] for c in nz.tolist()],
                                          R[r, nz].tolist())))
                _add_pairs(code, lms, sugars, redundant, pairs, m, d)
                G.append(h)
        del R
    return GroebnerBasis(sorted(G, key=lambda f: f.lm), ring)


def minimalize_monomials(mons, code):
    """The monomials that no other one divides, ascending.  A divisor is
    never larger in a term order, so one ascending pass suffices."""
    K0, GUARD = code.K0, code.GUARD
    out = []
    keys = []
    for m in sorted(set(mons)):
        if all((q := m - k) < 0 or q & GUARD for k in keys):
            out.append(m)
            keys.append(m - K0)
    return out


def lt_ideal(G: GroebnerBasis):
    """Minimal generators of the leading-term ideal, ascending."""
    return minimalize_monomials([g.lm for g in G.basis], G.ring.code)


def spair_audit(G: GroebnerBasis) -> bool:
    """Post-hoc check: every S-polynomial of the basis reduces to zero."""
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
    degree by degree; everything else goes to ``buchberger``."""
    gens = [g for g in gens if g and not g.is_zero()]
    if (gens and isinstance(gens[0].ring.field, PrimeField)
            and all(g.is_homogeneous() is not False for g in gens)):
        return macaulay_basis(gens, order)
    return buchberger(gens, order)
