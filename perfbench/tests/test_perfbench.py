"""Tests of the benchmark itself (not of lforge):

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _suite_ops(*labels):
    return [op for op in workloads.suite_short(0) if op.label in labels]


def test_wrong_pinned_hash_is_a_failed_operation():
    ops = _suite_ops("d9-secant-cases")
    pins = workloads.load_pins()
    assert worker.run_ops(ops, pins)["failed"] == 0
    wrong = dict(pins, **{"d9-secant-cases": "0" * 64})
    res = worker.run_ops(ops, wrong)
    assert (res["attempted"], res["failed"]) == (1, 1)
    assert res["failures"] == ["d9-secant-cases"]


def test_raising_operation_is_a_failed_operation():
    def boom():
        raise ValueError("broken")

    op = workloads.Op("boom", boom, lambda out: out)
    res = worker.run_ops([op], {"boom": None})
    assert res["failures"] == ["boom"]


def test_rank_oracle_catches_a_corrupted_diagonal():
    from lforge import GF, UniPoly, fixtures
    from lforge.snf import smith_normal_form

    F = GF(17)
    M = workloads.ln_block(fixtures.nlambda_matrix(F), F, 10)
    diag = smith_normal_form(M, verify=True).diagonal()
    assert diag[-1].degree > 0
    assert workloads.rank_oracle(M, diag)
    # a root the true factors do not have: rank M(a) is full there
    a = next(a for a in range(17)
             if all(not F.is_zero(d(F.of(a))) for d in diag))
    spurious = diag[:-1] + [diag[-1] * UniPoly(F, [F.neg(F.of(a)), 1])]
    assert not workloads.rank_oracle(M, spurious)
    # a lost non-trivial factor
    assert not workloads.rank_oracle(M, diag[:-1] + [UniPoly.one(F)])


def test_install_rebinds_from_imports_and_uninstall_restores():
    from lforge import groebner, hilbert, ideals, linalg, rao

    original = groebner.normal_form
    tr = tracer.Tracer("t")
    tr.install()
    try:
        assert ideals.normal_form is groebner.normal_form
        assert groebner.normal_form.__wrapped__ is original
        assert rao.rank_mod is linalg.rank_mod
        assert rao.rref_mod is linalg.rref_mod
        raw = hilbert.HilbertData.__dict__["from_exponents"]
        assert isinstance(raw, classmethod)
        assert hilbert.HilbertData.from_exponents([(1, 0)], 2).degree == 1
    finally:
        tr.uninstall()
    assert groebner.normal_form is original
    assert ideals.normal_form is original
    assert tr.stats()["hilbert.HilbertData.from_exponents"]["calls"] == 1


def test_linalg_cells_count_each_matrix_once():
    from lforge import GF, linalg

    tr = tracer.Tracer("t")
    tr.install()
    try:
        linalg.nullspace_mod([[1, 2, 3, 4], [0, 1, 1, 1], [2, 0, 1, 5]], 17)
        linalg.rank_over(GF(17), [[1, 2], [3, 4]])
    finally:
        tr.uninstall()
    # nullspace_mod's inner rref_mod is not counted again; rank_over is a
    # dispatcher, so the rank_mod under it counts
    assert tr.counts["linalg.cells"] == 12 + 4
    assert tr.stats()["linalg.rref_mod"]["calls"] == 1


def test_traced_self_times_add_up_to_traced_run_s():
    ops = _suite_ops("unique-cubic", "lemma23-elliptic-quintic")
    res = worker.run_ops(ops, workloads.load_pins(), tracer.Tracer("t"))
    assert res["failed"] == 0
    layers = res["layers"]
    modules = sum(layers[f"{m}.self_s"] for m in tracer.TRACED_MODULES)
    unattributed = layers["trace.unattributed_s"]
    assert modules + unattributed == pytest.approx(res["run_s"], rel=1e-9)
    assert 0 <= unattributed < 0.05 * res["run_s"]
    for name in ("unique-cubic", "lemma23-elliptic-quintic"):
        assert layers[f"experiments.run_experiment.{name}.busy_s"] > 0
    assert layers["groebner.normal_form.calls"] > 0
    assert 0 < layers["groebner.normal_form.zero_ratio"] < 1
    # one basis for the Hilbert signature of the input, one in the moved
    # coordinates, one for the signature of the result
    assert layers["ideals.saturate_irrelevant.gb_per_call"] >= 2


def test_speed_averages_the_probes_inside_the_window():
    ref = run.PROBE_REF_S
    samples = [(1.0, ref), (2.0, ref / 2), (3.0, ref / 4), (9.0, ref)]
    assert run.speed(samples, 1.5, 3.5) == pytest.approx((2 + 4) / 2)
    # no probe inside a short window: fall back to every probe of the pass
    assert run.speed(samples, 4.0, 4.1) == pytest.approx((1 + 2 + 4 + 1) / 4)
    assert run.speed([], 0.0, 1.0) == 1.0


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    per_layer = set(worker.layer_metrics(tracer.Tracer("t"), 0.0))
    per_layer |= {"trace.run_s", "trace.untraced_run_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert {m["name"] for m in spec["end_to_end"]} == {
        "run_s", "cpu_s", "setup_s", "peak_rss_mb", "ok_ratio"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_every_betti_center_is_the_first_general_draw():
    from lforge import GF, Rng
    from lforge.rao import RaoModule
    from lforge.veronese import ProjectionSpec

    F = GF(workloads.P)
    for instance in range(workloads.BETTI_POOL):
        workloads.general_module(instance)  # raises unless general
        # every skipped draw is a projection off the general stratum
        rng = Rng(instance)
        for _ in range(workloads.BETTI_SPECIAL_DRAWS.get(instance, 0)):
            N = [[rng.randrange(workloads.P) for _ in range(6)]
                 for _ in range(10)]
            mod = RaoModule.from_projection(ProjectionSpec(N, "p2cubics", F),
                                            kmax=4, certify=False)
            assert mod.hilbert_values(range(5)) != workloads.GENERAL_HILBERT


def test_report_refuses_a_baseline_of_another_run_length(tmp_path):
    import report

    spec = report.load_spec()
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"seconds": spec["run_seconds"] + 1}))
    with pytest.raises(SystemExit) as exc:
        report.main(["--baseline", str(point)])
    assert exc.value.code == 2
