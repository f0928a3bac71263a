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
    for name in ("gamma-tangent", "ln-snf"):
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


@pytest.mark.slow
def test_d9_special_honest_results():
    rep = run_experiment("d9-special")
    by_label = {a["label"]: a for a in rep.assertions}
    assert by_label["corank(L_N0) == 2"]["ok"]
    # the pencil's singular locus comes out with degree 61, not 60
    assert not by_label["Sing(Y) has degree 60"]["ok"]
    assert by_label["Sing(Y) has degree 60"]["detail"] == 61
