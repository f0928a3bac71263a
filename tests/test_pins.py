"""The report content hashes pinned in perfbench/pins.json, reproduced in
tier-1: a change that moves a report fails here, not only in the
benchmark.  The file is read, never written, so a re-pin there is followed
here.  These runs are also the guard that no F_17 experiment but ln-snf
reaches Buchberger over F_p (the ``no_fp_buchberger`` fixture)."""

import json
import pathlib

import pytest

from lforge.experiments import run_experiment

PINS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"
# the experiments of the suite-short workload, at their default seeds
SUITE = ("d9-generic", "d9-secant-cases", "gamma-tangent", "unique-cubic",
         "lemma23-elliptic-quintic", "rao-betti", "d6-unprojection-15")


@pytest.fixture(scope="module")
def pins():
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


@pytest.mark.parametrize(
    "name,seed", [(name, None) for name in SUITE]
    + [("d9-special", seed) for seed in range(8)])
def test_report_matches_pin(pins, name, seed, no_fp_buchberger):
    label = name if seed is None else f"{name}/seed={seed}"
    report = run_experiment(name, seed=seed, field="gf17", allow_long=False)
    assert report.content_hash() == pins[label]
