"""The benchmark's workloads, built only from lforge's public API.

A workload turns a seed into a list of operations.  Building the list is
the set-up (fixture parsing and input generation); calling the operations
is the timed section; checking their outputs comes after the timing.

Inputs that depend on the seed come from a pool of instances, instance
``seed % pool``, so that every output can be compared with the one
recorded at the pinned commit (``pins.json``, written by ``pin.py``).

Why these four: ``gb-singular`` is dominated by Groebner bases over large
bases and does no Smith form; ``snf-pencil`` is the reverse;
``linalg-betti`` is the only one dominated by a few large mod-p
eliminations; ``suite-short`` touches the same layers through many small
calls (38 small bases, about 340 small eliminations), so a change that
helps big inputs but adds per-call overhead shows up there.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

P = 17
GB_POOL = 8
SNF_POOL = 16
BETTI_POOL = 16

# leading k x (k+1) block of L_N(lambda): the full 55 x 56 Smith form takes
# minutes; at k = 28 the pinned block keeps a non-trivial last invariant
# factor (degree 12), 12 of the 16 seeded blocks have the all-ones diagonal
# (the rest a factor of degree at most 3), and one pass (both blocks) takes
# about 21 s on a 2-vCPU Xeon virtual machine
SNF_K = 28
# deg_bound 5 = regularity + 3 is the smallest bound at which the table
# through homological degree 3 is certified complete: about 5 s per center
# on the same machine, where deg_bound 8 scans one degree further and takes
# about 40 s
BETTI_BOUNDS = {"hom_bound": 3, "deg_bound": 5}
BETTI_CENTERS = 3
# draws of Rng(instance) that land on the corank-2 stratum before the first
# general center; they are skipped without building their module, so that
# the set-up builds one module per center whatever the seed
BETTI_SPECIAL_DRAWS = {10: 1, 12: 1, 15: 1}
GENERAL_HILBERT = [0, 4, 7, 0, 0]

SUITE = ("d9-generic", "d9-secant-cases", "gamma-tangent", "unique-cubic",
         "lemma23-elliptic-quintic", "rao-betti", "d6-unprojection-15")


class Op:
    """One call into lforge.  ``fingerprint`` maps its output to the JSON
    value pinned for ``label``; ``oracle``, when given, is an independent
    check of the output that must also hold.  ``call`` looks the lforge
    function up on its module when it runs, so a traced pass sees the
    wrapper."""

    def __init__(self, label, call, fingerprint, oracle=None):
        self.label = label
        self.call = call
        self.fingerprint = fingerprint
        self.oracle = oracle


def load_pins() -> dict:
    """label -> fingerprint recorded at the pinned commit."""
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def check(op: Op, output, pins: dict) -> bool:
    """True when the output matches the pinned fingerprint and the oracle."""
    if op.label not in pins or op.fingerprint(output) != pins[op.label]:
        return False
    return op.oracle is None or bool(op.oracle(output))


# -- experiments ----------------------------------------------------------


def _experiment_op(name: str, seed: int | None = None) -> Op:
    from lforge import experiments

    label = name if seed is None else f"{name}/seed={seed}"
    return Op(label,
              lambda: experiments.run_experiment(name, seed=seed,
                                                 field="gf17",
                                                 allow_long=False),
              lambda report: report.content_hash())


def gb_singular(seed: int) -> list[Op]:
    return [_experiment_op("d9-special", seed % GB_POOL)]


def suite_short(seed: int) -> list[Op]:
    # each experiment at its registered default seed: the seed of the run
    # does not change this workload
    return [_experiment_op(name) for name in SUITE]


# -- Smith form over F_p[lambda] -----------------------------------------


def ln_block(N, field, k: int):
    """Leading k x (k+1) block of L_N as an lforge PolyMatrix."""
    from lforge.snf import PolyMatrix
    from lforge.veronese import build_LN

    LN = build_LN(N, field)
    return PolyMatrix([row[:k + 1] for row in LN.entries[:k]], field)


def seeded_pencil(instance: int, field):
    """N0 + lambda N1 with N0, N1 drawn uniformly from 10 x 6 over F17."""
    from lforge import Rng, UniPoly

    rng = Rng(instance)
    return [[UniPoly(field, [rng.randrange(P), rng.randrange(P)])
             for _ in range(6)] for _ in range(10)]


def rank_oracle(M, diagonal) -> bool:
    """For every a in F_p, rank M(a) equals the number of diagonal entries
    that do not vanish at a.  Uses evaluation and mod-p elimination only,
    no code of the Smith form."""
    from lforge.linalg import rank_mod

    field = M.field
    for a in range(field.p):
        x = field.of(a)
        Ma = [[e(x) for e in row] for row in M.entries]
        nonzero = sum(1 for d in diagonal if not field.is_zero(d(x)))
        if rank_mod(Ma, field.p) != nonzero:
            return False
    return True


def _snf_op(label: str, M) -> Op:
    from lforge import snf

    def fingerprint(res):
        return {"verified": bool(res.verified),
                "degrees": [d.degree for d in res.diagonal()]}

    return Op(label, lambda: snf.smith_normal_form(M, verify=True),
              fingerprint, lambda res: rank_oracle(M, res.diagonal()))


def snf_pencil(seed: int) -> list[Op]:
    from lforge import GF, fixtures

    F = GF(P)
    instance = seed % SNF_POOL
    pinned = ln_block(fixtures.nlambda_matrix(F), F, SNF_K)
    seeded = ln_block(seeded_pencil(instance, F), F, SNF_K)
    return [_snf_op(f"snf/nlambda/k={SNF_K}", pinned),
            _snf_op(f"snf/pencil={instance}/k={SNF_K}", seeded)]


# -- graded Betti numbers -------------------------------------------------


def general_module(instance: int):
    """Deficiency module of the first center drawn from Rng(instance) that
    is a projection (rank 6) with the general Hilbert values; draws on the
    corank-2 stratum have a longer module and a far costlier resolution."""
    from lforge import GF, Rng
    from lforge.rao import RaoModule
    from lforge.veronese import ProjectionSpec

    F = GF(P)
    rng = Rng(instance)
    for _ in range(BETTI_SPECIAL_DRAWS.get(instance, 0) + 1):
        N = [[rng.randrange(P) for _ in range(6)] for _ in range(10)]
    mod = RaoModule.from_projection(ProjectionSpec(N, "p2cubics", F),
                                    kmax=4, certify=False)
    if mod.hilbert_values(range(5)) != GENERAL_HILBERT:
        raise ValueError(f"center {instance} is not general")
    return mod


def _betti_op(instance: int) -> Op:
    from lforge import rao

    mod = general_module(instance)

    def fingerprint(table):
        return {"complete": bool(table.complete),
                "entries": sorted([i, j, b]
                                  for (i, j), b in table.entries.items())}

    label = (f"betti/center={instance}/hom={BETTI_BOUNDS['hom_bound']}"
             f"/deg={BETTI_BOUNDS['deg_bound']}")
    return Op(label, lambda: rao.graded_betti(mod, **BETTI_BOUNDS),
              fingerprint)


def linalg_betti(seed: int) -> list[Op]:
    # three centers per pass: their costs differ by a few percent, and one
    # center per run made that difference the run-to-run spread
    return [_betti_op((seed + j) % BETTI_POOL) for j in range(BETTI_CENTERS)]


WORKLOADS = {
    "gb-singular": gb_singular,
    "snf-pencil": snf_pencil,
    "linalg-betti": linalg_betti,
    "suite-short": suite_short,
}

# operations per pass, so a pass whose process died can be counted
OPS_PER_PASS = {"gb-singular": 1, "snf-pencil": 2,
                "linalg-betti": BETTI_CENTERS,
                "suite-short": len(SUITE)}
