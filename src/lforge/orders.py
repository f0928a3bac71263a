"""Term orders and packed monomial codes.

A monomial is stored as a single Python int built from fixed-width slots so
that the term order is plain integer comparison, multiplication is one
addition (plus a constant), and divisibility is one subtraction plus a guard
mask test.  Layouts:

  grevlex      [deg | C-e_{n-1} | ... | C-e_1 | e_0]
  lex          [e_0 | e_1 | ... | e_{n-1} | deg]
  block(k)     grevlex slots for variables 0..k-1, then for k..n-1
  weighted(w)  [w.e | deg | C-e_{n-1} | ... | C-e_1 | e_0]

Complemented slots (C - e) make "later variable smaller" comparisons come out
right for grevlex; each slot carries one guard bit that detects both borrow
on division and overflow on multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

SLOT_BITS = 25  # 24 value bits + 1 guard bit
VALUE_BITS = SLOT_BITS - 1
SLOT_MAX = (1 << VALUE_BITS) - 1
EXP_CAP = 1 << 16  # per-variable exponent bound; beyond this is a hard error


class ExponentOverflow(OverflowError):
    pass


@dataclass(frozen=True)
class TermOrder:
    kind: str  # grevlex | lex | block | weighted
    k: int = 0  # block: number of leading variables eliminated
    weights: tuple = ()

    @staticmethod
    def grevlex() -> "TermOrder":
        return TermOrder("grevlex")

    @staticmethod
    def lex() -> "TermOrder":
        return TermOrder("lex")

    @staticmethod
    def block(k: int) -> "TermOrder":
        if k < 1:
            raise ValueError("block order needs k >= 1 eliminated variables")
        return TermOrder("block", k=k)

    @staticmethod
    def weighted(weights) -> "TermOrder":
        w = tuple(int(x) for x in weights)
        if any(x <= 0 for x in w):
            raise ValueError("weights must be positive")
        return TermOrder("weighted", weights=w)

    def __str__(self):
        if self.kind == "block":
            return f"block({self.k})"
        if self.kind == "weighted":
            return f"weighted({','.join(map(str, self.weights))})"
        return self.kind


class MonomialCode:
    """Packing of exponent vectors into order-respecting integers."""

    def __init__(self, nvars: int, order: TermOrder):
        self.nvars = nvars
        self.order = order
        # slot list, most significant first; each entry is one of
        #   ("deg", tuple_of_vars) ("exp", i) ("cexp", i) ("wdeg", weights)
        slots: list[tuple] = []
        if order.kind == "grevlex":
            slots += self._grevlex_block(range(nvars))
        elif order.kind == "lex":
            slots += [("exp", i) for i in range(nvars)]
            slots.append(("deg", tuple(range(nvars))))
        elif order.kind == "block":
            k = order.k
            if not (1 <= k < nvars):
                raise ValueError(f"block({k}) needs 1 <= k < nvars={nvars}")
            slots += self._grevlex_block(range(k))
            slots += self._grevlex_block(range(k, nvars))
        elif order.kind == "weighted":
            if len(order.weights) != nvars:
                raise ValueError("weight vector length != nvars")
            slots.append(("wdeg", order.weights))
            slots += self._grevlex_block(range(nvars))
        else:
            raise ValueError(f"unknown order kind {order.kind}")
        self.slots = slots
        n = len(slots)
        self.shifts = [(n - 1 - i) * SLOT_BITS for i in range(n)]
        guard = 0
        k0 = 0
        for sl, sh in zip(slots, self.shifts):
            guard |= (1 << VALUE_BITS) << sh
            if sl[0] == "cexp":
                k0 |= SLOT_MAX << sh
        self.GUARD = guard
        self.K0 = k0
        self._deg_slots = [
            (sh, sl) for sl, sh in zip(slots, self.shifts) if sl[0] in ("deg",)
        ]
        # with one degree slot the total degree is read from it alone
        self._deg_shift = (self._deg_slots[0][0]
                           if len(self._deg_slots) == 1 else None)
        # grevlex: the leading monomial has the largest total degree
        self.degree_leads = slots[0][0] == "deg" and len(self._deg_slots) == 1
        self.one = self.pack((0,) * nvars)
        self._vars = tuple(self.pack(tuple(int(i == j) for j in range(nvars)))
                           for i in range(nvars))

    @staticmethod
    def _grevlex_block(vars_range) -> list[tuple]:
        vs = list(vars_range)
        out: list[tuple] = [("deg", tuple(vs))]
        out += [("cexp", i) for i in reversed(vs[1:])]
        out.append(("exp", vs[0]))
        return out

    # -- conversions --------------------------------------------------

    def pack(self, exps) -> int:
        if len(exps) != self.nvars:
            raise ValueError("exponent vector length mismatch")
        m = 0
        for e in exps:
            if e < 0 or e > EXP_CAP:
                raise ExponentOverflow(f"exponent {e} outside [0, {EXP_CAP}]")
        for sl, sh in zip(self.slots, self.shifts):
            kind = sl[0]
            if kind == "deg":
                v = sum(exps[i] for i in sl[1])
            elif kind == "wdeg":
                v = sum(w * e for w, e in zip(sl[1], exps))
            elif kind == "exp":
                v = exps[sl[1]]
            else:  # cexp
                v = SLOT_MAX - exps[sl[1]]
            m |= v << sh
        return m

    def unpack(self, m: int) -> tuple:
        """The exponent vector of m: every layout gives each variable an
        exp or cexp slot."""
        exps = [0] * self.nvars
        for (kind, *arg), sh in zip(self.slots, self.shifts):
            v = (m >> sh) & SLOT_MAX
            if kind == "exp":
                exps[arg[0]] = v
            elif kind == "cexp":
                exps[arg[0]] = SLOT_MAX - v
        return tuple(exps)

    def unpack_rows(self, ms) -> np.ndarray:
        """unpack of every packed monomial of ms at once: one int32 exponent
        row per monomial.  Each slot is read from the four little-endian
        bytes of the monomial that hold it (a slot is 25 bits wide)."""
        width = self.shifts[0] // 8 + 4
        raw = np.frombuffer(b"".join(map(int.to_bytes, ms, repeat(width),
                                         repeat("little"))),
                            dtype=np.uint8).reshape(-1, width)
        out = np.empty((len(raw), self.nvars), dtype=np.int32)
        for (kind, *arg), sh in zip(self.slots, self.shifts):
            if kind in ("exp", "cexp"):
                word = raw[:, sh // 8:sh // 8 + 4].copy().view("<u4")[:, 0]
                v = (word >> (sh % 8)) & SLOT_MAX
                out[:, arg[0]] = v if kind == "exp" else SLOT_MAX - v
        return out

    def _slot_values(self, E) -> list:
        """The slot values of the exponent rows E, most significant first,
        one array each (a slot value is below 2^24)."""
        E = np.asarray(E, dtype=np.int32).reshape(-1, self.nvars)
        out = []
        for kind, arg in self.slots:
            if kind == "deg":
                out.append(E[:, list(arg)].sum(axis=1))
            elif kind == "wdeg":
                out.append((E * np.array(arg, dtype=np.int32)).sum(axis=1))
            else:
                out.append(E[:, arg] if kind == "exp" else SLOT_MAX - E[:, arg])
        return out

    def sort_rows(self, E) -> np.ndarray:
        """The permutation that sorts the exponent rows E descending in the
        order: packed ints compare as their slot values, most significant
        first, so it is a lexsort of those."""
        return np.lexsort(self._slot_values(E)[::-1])[::-1]

    def pack_rows(self, E) -> list[int]:
        """pack of every exponent row of E at once: each slot value is
        written into the four little-endian bytes that hold it, and each
        monomial is read off its bytes."""
        E = np.asarray(E)
        if E.size and (E.min() < 0 or E.max() > EXP_CAP):
            raise ExponentOverflow(f"exponent outside [0, {EXP_CAP}]")
        width = self.shifts[0] // 8 + 4
        raw = np.zeros((len(E), width), dtype=np.uint8)
        for v, sh in zip(self._slot_values(E), self.shifts):
            word = (v.astype("<u4") << (sh % 8)).view(np.uint8)
            raw[:, sh // 8:sh // 8 + 4] |= word.reshape(-1, 4)
        b = raw.tobytes()
        return [int.from_bytes(b[i:i + width], "little")
                for i in range(0, len(b), width)]

    # -- fast operations ----------------------------------------------

    def divides(self, b: int, a: int):
        """Quotient a/b as a packed monomial, or None if b does not divide a."""
        q = a - b + self.K0
        if q < 0 or (q & self.GUARD):
            return None
        return q

    def deg(self, m: int) -> int:
        if self._deg_shift is not None:
            return (m >> self._deg_shift) & SLOT_MAX
        return sum((m >> sh) & SLOT_MAX for sh, _ in self._deg_slots)

    def lcm(self, a: int, b: int) -> int:
        ea, eb = self.unpack(a), self.unpack(b)
        return self.pack(tuple(max(x, y) for x, y in zip(ea, eb)))

    def var(self, i: int) -> int:
        return self._vars[i]
