"""Buchberger's algorithm with Gebauer-Moller pair elimination and sugar
selection, plus normal forms and reduced bases.

Determinism: pair selection is by (sugar degree, packed lcm, indices); all
container iteration is over sorted structures, so identical inputs give
structurally identical bases.
"""

from __future__ import annotations

import time

from .fields import PrimeField
from .mpoly import MPoly, RingMismatch


class BudgetExceeded(RuntimeError):
    """Raised when a basis computation hits a resource limit.  Carries the
    partial state so callers can report where it stopped."""

    def __init__(self, reason: str, *, pairs_done: int, pairs_left: int,
                 basis_size: int, current_degree: int, partial_basis=None):
        self.reason = reason
        self.pairs_done = pairs_done
        self.pairs_left = pairs_left
        self.basis_size = basis_size
        self.current_degree = current_degree
        self.partial_basis = partial_basis or []
        super().__init__(
            f"{reason} (pairs done {pairs_done}, pairs left {pairs_left}, "
            f"basis size {basis_size}, working degree {current_degree})"
        )


class GroebnerBasis:
    __slots__ = ("basis", "ring", "reduced", "truncation_degree")

    def __init__(self, basis, ring, reduced=True, truncation_degree=None):
        self.basis = tuple(basis)
        self.ring = ring
        self.reduced = reduced
        self.truncation_degree = truncation_degree
        if reduced:
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
    """Fully reduce f modulo the polynomial list G (top and tail reduction)."""
    ring = f.ring
    gens = [g for g in G if g and not g.is_zero()]
    for g in gens:
        if g.ring is not ring:
            raise RingMismatch("normal form across different rings")
    if not gens or f.is_zero():
        return f
    code = ring.code
    F = ring.field
    divides = code.divides
    red = sorted(
        ((g.lm, F.inv(g.lc), g.terms[1:]) for g in gens), key=lambda t: t[0]
    )
    work = dict(f.terms)
    out = {}
    if isinstance(F, PrimeField):
        p = F.p
        K0 = code.K0
        while work:
            m = max(work)
            c = work.pop(m)
            if c == 0:
                continue
            for lm, ilc, tail in red:
                q = divides(lm, m)
                if q is not None:
                    coef = c * ilc % p
                    off = q - K0
                    for mt, ct in tail:
                        mm = mt + off
                        work[mm] = (work.get(mm, 0) - coef * ct) % p
                    break
            else:
                out[m] = c
    else:
        mul = code.mul
        while work:
            m = max(work)
            c = work.pop(m)
            if F.is_zero(c):
                continue
            for lm, ilc, tail in red:
                q = divides(lm, m)
                if q is not None:
                    coef = F.mul(c, ilc)
                    for mt, ct in tail:
                        mm = mul(q, mt)
                        work[mm] = F.sub(work.get(mm, F.zero), F.mul(coef, ct))
                    break
            else:
                out[m] = c
    return ring.from_dict(out)


def s_polynomial(f: MPoly, g: MPoly) -> MPoly:
    code = f.ring.code
    F = f.ring.field
    l = code.lcm(f.lm, g.lm)
    uf = code.divides(f.lm, l)
    ug = code.divides(g.lm, l)
    return f.mul_term(uf, F.inv(f.lc)) - g.mul_term(ug, F.inv(g.lc))


def buchberger(gens, order=None, *, max_degree=None, max_pairs=None,
               max_basis=None, max_seconds=None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    With max_degree set (homogeneous inputs only) pairs above that degree are
    dropped: the result generates the ideal correctly in all degrees up to the
    cap.  Other budgets raise BudgetExceeded with partial-state diagnostics.
    """
    gens = [g for g in gens if g and not g.is_zero()]
    if not gens:
        raise ValueError("buchberger needs a nonempty generator list")
    ring = gens[0].ring
    for g in gens:
        if g.ring is not ring:
            raise RingMismatch("generators live in different rings")
    if order is not None and order != ring.order:
        target = ring.with_order(order)
        gens = [target.convert(g) for g in gens]
        ring = target
    if max_degree is not None and any(g.is_homogeneous() is False for g in gens):
        raise ValueError("degree cap needs homogeneous generators")

    code = ring.code
    deg = code.deg
    deadline = None if max_seconds is None else time.monotonic() + max_seconds

    G: list[MPoly] = []
    sugars: list[int] = []
    redundant: set[int] = set()
    pairs: dict[tuple[int, int], tuple[int, int]] = {}  # (i,j) -> (sugar, lcm)

    def add_element(h: MPoly, sugar: int):
        t = len(G)
        lmh = h.lm
        # Gebauer-Moller update of the pair set against the new element
        cand = []
        for i in range(t):
            if i in redundant:
                continue
            l = code.lcm(G[i].lm, lmh)
            cand.append((i, l))
        kept = []
        for i, l in cand:
            if code.coprime(G[i].lm, lmh):
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
                and code.lcm(G[i].lm, lmh) != l
                and code.lcm(G[j].lm, lmh) != l
            ):
                del pairs[(i, j)]
        for i, l in kept:
            s = max(
                sugars[i] + deg(l) - deg(G[i].lm),
                sugar + deg(l) - deg(lmh),
            )
            pairs[(i, t)] = (s, l)
        for i in range(t):
            if i not in redundant and code.divides(lmh, G[i].lm) is not None:
                redundant.add(i)
        G.append(h)
        sugars.append(sugar)

    for g in sorted(gens, key=lambda f: f.lm):
        h = normal_form(g, [x for i, x in enumerate(G) if i not in redundant])
        if not h.is_zero():
            add_element(h.monic(), h.degree())

    pairs_done = 0
    while pairs:
        key = min(pairs, key=lambda k: (pairs[k][0], pairs[k][1], k))
        sugar, l = pairs.pop(key)
        if max_degree is not None and deg(l) > max_degree:
            continue
        if max_pairs is not None and pairs_done >= max_pairs:
            raise BudgetExceeded(
                "pair budget exhausted", pairs_done=pairs_done,
                pairs_left=len(pairs) + 1, basis_size=len(G),
                current_degree=deg(l), partial_basis=list(G))
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(
                "time budget exhausted", pairs_done=pairs_done,
                pairs_left=len(pairs) + 1, basis_size=len(G),
                current_degree=deg(l), partial_basis=list(G))
        i, j = key
        sp = s_polynomial(G[i], G[j])
        pairs_done += 1
        h = normal_form(sp, [x for k, x in enumerate(G) if k not in redundant])
        if h.is_zero():
            continue
        if max_basis is not None and len(G) >= max_basis:
            raise BudgetExceeded(
                "basis size budget exhausted", pairs_done=pairs_done,
                pairs_left=len(pairs), basis_size=len(G),
                current_degree=deg(l), partial_basis=list(G))
        add_element(h.monic(), max(sugar, h.degree()))

    basis = _interreduce([G[i] for i in range(len(G)) if i not in redundant], ring)
    return GroebnerBasis(basis, ring, reduced=True,
                         truncation_degree=max_degree)


def _interreduce(polys, ring):
    code = ring.code
    # minimalize by leading monomials
    polys = sorted(polys, key=lambda f: f.lm)
    keep = []
    for f in polys:
        if all(code.divides(g.lm, f.lm) is None for g in keep):
            keep.append(f)
    # tail-reduce each against the others
    out = []
    for i, f in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = normal_form(f, others)
        out.append(r.monic())
    out.sort(key=lambda f: f.lm)
    return out


def lt_ideal(G: GroebnerBasis):
    """Minimal generators of the leading-term ideal, ascending."""
    code = G.ring.code
    lms = sorted(g.lm for g in G.basis)
    out = []
    for m in lms:
        if all(code.divides(o, m) is None for o in out):
            out.append(m)
    return out


def minimalize_monomials(mons, code):
    mons = sorted(set(mons))
    out = []
    for m in mons:
        if all(code.divides(o, m) is None for o in out):
            out.append(m)
    return out


def spair_audit(G: GroebnerBasis) -> bool:
    """Post-hoc check: every S-polynomial of the basis reduces to zero."""
    basis = list(G.basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            sp = s_polynomial(basis[i], basis[j])
            if not normal_form(sp, basis).is_zero():
                return False
    return True


def groebner_basis(gens, order=None, **budget) -> GroebnerBasis:
    """Reduced Groebner basis of gens: the one entry point the ideal layer
    uses.  Budgets are passed through to buchberger."""
    return buchberger(gens, order, **budget)
