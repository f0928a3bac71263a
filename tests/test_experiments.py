import json

import pytest

from lforge.experiments import (
    REGISTRY,
    BudgetRefused,
    ExperimentError,
    Report,
    emit_report,
    run_experiment,
)

EXPECTED_NAMES = {
    "d9-generic", "d9-special", "d9-secant-cases", "d9-bilinkage-18",
    "rao-betti", "ln-snf", "gamma-tangent", "unique-cubic",
    "t8-bilinkage-17", "d6-unprojection-15", "lemma23-elliptic-quintic",
}


def test_registry_contents():
    assert set(REGISTRY) == EXPECTED_NAMES
    assert REGISTRY["d9-bilinkage-18"]["long"]
    assert REGISTRY["t8-bilinkage-17"]["long"]
    for entry in REGISTRY.values():
        assert entry["doc"]


def test_unknown_experiment():
    with pytest.raises(ExperimentError, match="unknown experiment"):
        run_experiment("nope")


def test_long_requires_allow_long():
    with pytest.raises(BudgetRefused):
        run_experiment("t8-bilinkage-17")


def test_rational_field_requires_allow_long():
    with pytest.raises(BudgetRefused):
        run_experiment("gamma-tangent", field="qq")


def test_prime_field_experiments_refuse_qq():
    for name in ("gamma-tangent", "ln-snf", "d9-special", "d9-bilinkage-18",
                 "rao-betti", "d6-unprojection-15",
                 "lemma23-elliptic-quintic"):
        assert REGISTRY[name]["fields"] == ("gf17",)
        with pytest.raises(ExperimentError, match="prime field") as exc:
            run_experiment(name, field="qq", allow_long=True)
        assert not isinstance(exc.value, BudgetRefused)


def test_unknown_field():
    with pytest.raises(ExperimentError, match="unknown field"):
        run_experiment("gamma-tangent", field="gf5")


def test_gamma_tangent_passes():
    rep = run_experiment("gamma-tangent")
    assert rep.passed
    assert rep.results["codim"] == 1


def test_d9_generic_all_corank_one():
    rep = run_experiment("d9-generic")
    assert rep.passed
    assert rep.results["coranks"] == [1] * 20


def test_d9_generic_off_seed_keeps_dichotomy():
    # seed 0 hits the corank-2 stratum: the "all corank 1" clause fails
    # but the dichotomy clause still holds
    rep = run_experiment("d9-generic", seed=0)
    by_label = {a["label"]: a["ok"] for a in rep.assertions}
    assert by_label["coranks stay within the dichotomy {1, 2}"]
    assert not by_label["all 20 random centers give corank 1"]


def test_unique_cubic_passes():
    rep = run_experiment("unique-cubic")
    assert rep.passed
    assert rep.results["sing_dim_degree"] == [1, 6]


def test_secant_cases_pass():
    rep = run_experiment("d9-secant-cases")
    assert rep.passed


def test_secant_cases_pass_over_qq():
    # an experiment over Q run to completion, its report pinned
    rep = run_experiment("d9-secant-cases", field="qq", allow_long=True)
    assert rep.passed
    assert rep.content_hash() == (
        "fdd3ef81e67276a3ab53622e43ac20ff4a9fd7340f4ef4aee33109c229593662")


def test_report_hash_deterministic():
    a = run_experiment("gamma-tangent")
    b = run_experiment("gamma-tangent")
    assert a.content_hash() == b.content_hash()
    # seeds change the recorded inputs, hence the hash
    c = run_experiment("gamma-tangent", seed=5)
    assert a.content_hash() != c.content_hash()


def test_text_and_json_assertions_agree():
    rep = run_experiment("gamma-tangent")
    data = json.loads(rep.to_json())
    text = rep.to_text()
    for a in data["assertions"]:
        mark = "PASS" if a["ok"] else "FAIL"
        assert f"[{mark}] {a['label']}" in text
    assert data["passed"] == ("overall: PASS" in text)


def test_timings_excluded_from_hash():
    rep = run_experiment("gamma-tangent")
    h = rep.content_hash()
    rep.time("extra", 123.0)
    assert rep.content_hash() == h


def test_emit_report_roundtrip(tmp_path):
    rep = run_experiment("gamma-tangent", out=str(tmp_path))
    txt = (tmp_path / "gamma-tangent.txt").read_text()
    data = json.loads((tmp_path / "gamma-tangent.json").read_text())
    assert data["content_hash"] == rep.content_hash()
    assert rep.content_hash() in txt


def test_emit_report_bad_path():
    rep = Report("x", 0, "gf17")
    with pytest.raises(OSError):
        emit_report(rep, "text", "/dev/null/not-a-dir")


def test_emit_report_bad_format(tmp_path):
    rep = Report("x", 0, "gf17")
    with pytest.raises(ExperimentError, match="format"):
        emit_report(rep, "yaml", str(tmp_path))



def test_rao_betti_refuses_an_incomplete_presentation(monkeypatch):
    # the presentation of the special module needs degrees past 3; when the
    # resolver stops there, the experiment raises instead of reporting a
    # partial presentation
    from lforge import experiments
    from lforge.rao import RaoError, graded_betti

    def capped(mod, hom_bound=2, deg_bound=8):
        return graded_betti(mod, hom_bound, min(deg_bound, 3))

    monkeypatch.setattr(experiments, "graded_betti", capped)
    with pytest.raises(RaoError, match="bound insufficient"):
        run_experiment("rao-betti")


def test_rao_betti_hash_is_fixed_by_experiment_seed_and_field():
    # --allow-long gates long runs only; it does not change a report
    assert (run_experiment("rao-betti", allow_long=True).content_hash()
            == run_experiment("rao-betti").content_hash())


def test_d6_unprojection_saturates_x_once(monkeypatch):
    # X is the lambda = 0 member of its deformation family, so its
    # saturation is read from the family's sample: every ideal of the
    # seven-variable ring (X and the members at lambda = 1, 2, 5) is
    # saturated once.  The exceptional locus is compared with D6 as an
    # ideal, so no generator tuple is saturated twice either
    from collections import Counter

    from lforge import experiments, ideals, pfaffian

    calls = Counter()

    def counted(I):
        calls[I.gens] += 1
        return ideals.saturate_irrelevant(I)

    for module in (experiments, pfaffian):
        monkeypatch.setattr(module, "saturate_irrelevant", counted)
    run_experiment("d6-unprojection-15")
    assert [n for gens, n in calls.items() if gens[0].ring.nvars == 7] == [
        1, 1, 1, 1]
    assert max(calls.values()) == 1
