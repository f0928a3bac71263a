"""One pass of a workload in a fresh process: set up, run the timed section,
check the outputs, print one JSON line.  ``run.py`` starts it; a fresh
process per pass keeps lforge's in-process ring interning and the peak RSS
from leaking between passes.

    python3 perfbench/worker.py --workload W --seed S --mode run|trace|setup
                                --spawned <CLOCK_MONOTONIC at spawn>
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

from tracer import LINALG_SIZED, TRACED_MODULES, Tracer
from workloads import SUITE, WORKLOADS, check, load_pins

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# (span name, stats reported for it)
NAMED_LAYERS = (
    ("groebner.normal_form", ("calls", "self_s")),
    ("groebner.buchberger", ("self_s",)),
    ("groebner.groebner_basis", ("calls", "busy_s")),
    ("groebner.ideal_hash", ("self_s",)),
    ("ideals.saturate_irrelevant", ("calls", "busy_s")),
    ("mpoly.MPoly.substitute", ("calls", "self_s")),
    ("hilbert.HilbertData.from_exponents", ("calls", "self_s")),
    *((f"linalg.{f}", ("calls", "self_s")) for f in LINALG_SIZED),
    ("snf.smith_normal_form", ("calls", "self_s")),
    ("snf.PolyMatrix.mul", ("busy_s",)),
    ("unipoly.UniPoly.__mul__", ("calls", "self_s")),
    ("unipoly.UniPoly.divmod", ("calls", "self_s")),
    ("veronese.build_LN", ("busy_s",)),
    ("veronese.project", ("busy_s",)),
    ("pfaffian.sub_pfaffians", ("busy_s",)),
    ("pfaffian.deform_family", ("busy_s",)),
    ("rao.graded_betti", ("self_s",)),
    *((f"experiments.run_experiment.{n}", ("busy_s",))
      for n in ("d9-special",) + SUITE),
)


def layer_metrics(tracer: Tracer, run_s: float) -> dict:
    """Per-layer numbers of one traced pass, as metric name -> value.

    ``<module>.self_s`` sums the self time of every wrapped function of the
    module, so these plus ``trace.unattributed_s`` (timed-section time that
    no wrapper covers) add up to the pass's traced run_s."""
    stats = tracer.stats()
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    out = {}
    for name, fields in NAMED_LAYERS:
        st = stats.get(name, zero)
        for f in fields:
            out[f"{name}.{f}"] = st[f]
    nf = stats.get("groebner.normal_form", zero)["calls"]
    out["groebner.normal_form.zero_ratio"] = (
        tracer.counts["normal_form.zero"] / nf if nf else 0.0)
    sat = stats.get("ideals.saturate_irrelevant", zero)["calls"]
    out["ideals.saturate_irrelevant.gb_per_call"] = (
        tracer.counts["saturate_irrelevant.gb"] / sat if sat else 0.0)
    out["linalg.cells"] = tracer.counts["linalg.cells"]
    for mod in TRACED_MODULES:
        out[f"{mod}.self_s"] = sum(st["self_s"] for n, st in stats.items()
                                   if n.split(".", 1)[0] == mod)
    out["trace.unattributed_s"] = run_s - tracer.root_time()
    out["trace.spans"] = len(tracer.start)
    return out


def run_ops(ops, pins: dict, tracer: Tracer | None = None) -> dict:
    """Call every operation in the timed section, then check the outputs."""
    outputs = []
    if tracer is not None:
        tracer.install()
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    c0 = time.process_time()
    t0 = time.perf_counter()
    for op in ops:
        try:
            outputs.append(op.call())
        except Exception as exc:  # a raising operation is a failed one
            traceback.print_exc()
            outputs.append(exc)
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    end = time.clock_gettime(time.CLOCK_MONOTONIC)
    if tracer is not None:
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = []
    for op, out in zip(ops, outputs):
        try:
            ok = not isinstance(out, Exception) and check(op, out, pins)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            failures.append(op.label)
    result = {"run_s": run_s, "cpu_s": cpu_s, "peak_rss_mb": rss_mb,
              "window": [start, end], "attempted": len(ops),
              "failed": len(failures), "failures": failures}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, run_s)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "trace", "setup"),
                    default="run")
    ap.add_argument("--spawned", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken by the parent just "
                         "before it started this process")
    ap.add_argument("--run-id", default="0")
    ap.add_argument("--spans", help="where a traced pass writes its spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import lforge

    if not os.path.abspath(lforge.__file__).startswith(SRC + os.sep):
        print(f"lforge was imported from {lforge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    pins = load_pins()
    ops = WORKLOADS[args.workload](args.seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"setup_s": ready - args.spawned, "ready": ready}
    if args.mode != "setup":
        tracer = Tracer(args.run_id) if args.mode == "trace" else None
        result.update(run_ops(ops, pins, tracer))
        if tracer is not None and args.spans:
            tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
