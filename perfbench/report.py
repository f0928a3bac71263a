"""Run every workload over several seeds and print each metric by name and
unit, with its median, quartiles and spread (interquartile range over the
median) next to the bound BENCHMARK.json fixes for it.

    python3 perfbench/report.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace \
        --save perfbench/trajectory/BENCH_1.json \
        --baseline perfbench/trajectory/BENCH_0.json

Every run lasts BENCHMARK.json's ``run_seconds``.  After each workload's
metrics comes a ``raw`` row: the medians over the seeds of each run's raw
(unscaled) run_s, cpu_s and setup_s, and of its speed factor.  ``--trace``
adds one traced run per workload (first seed) and prints its per-layer
metrics.  ``--save`` writes the medians, quartiles, every value and the
context as one trajectory point.  ``--baseline`` compares each end-to-end
median with a saved point of the same run length and flags a change worse
than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(spec, workload: str, seed: int, trace: int):
    """(context, result) of one run of the benchmark command."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(values) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--save")
    ap.add_argument("--baseline")
    args = ap.parse_args(argv)
    baseline = None
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
        if baseline["seconds"] != spec["run_seconds"]:
            ap.error(f"{args.baseline} was measured with runs of "
                     f"{baseline['seconds']} s, not {spec['run_seconds']} s")

    point = {"date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "seconds": spec["run_seconds"], "seeds": args.seeds,
             "workloads": {}, "raw": {}, "traced": {}}
    bad = 0
    print(f"{'workload':<13} {'metric':<12} {'unit':<6} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}  n  failed")
    for w in args.workloads:
        runs = [run_once(spec, w, s, 0) for s in args.seeds]
        point["context"] = {k: v for k, v in runs[0][0].items()
                            if k in ("machine", "commit", "source_sha256")}
        failed = sum(r["failed"] for _, r in runs)
        bad += failed
        rows = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for _, r in runs]
            s = rows[m["name"]] = summarize(vals)
            flag = ""
            if s["spread"] > m["bound"] / 3:
                flag += "  spread above bound/3"
            if baseline is not None:
                old = baseline["workloads"][w][m["name"]]["median"]
                change = (s["median"] - old) / old
                worse = change if m["better"] == "lower" else -change
                flag += f"  {change:+.3f} vs baseline"
                if worse > m["bound"]:
                    flag += " WORSE THAN BOUND"
                    bad += 1
            print(f"{w:<13} {m['name']:<12} {m['unit']:<6} "
                  f"{s['median']:>11.4f} {s['q1']:>11.4f} {s['q3']:>11.4f} "
                  f"{s['spread']:>7.3f} {m['bound']:>6.2f} {len(vals):>2}  "
                  f"{failed}{flag}")
        point["workloads"][w] = rows
        raw = {k: statistics.median(c["samples"][k] for c, _ in runs)
               for k in ("raw_run_s", "raw_cpu_s", "raw_setup_s", "speed")}
        point["raw"][w] = raw
        print(f"{w:<13} raw          run_s {raw['raw_run_s']:.4f}  "
              f"cpu_s {raw['raw_cpu_s']:.4f}  setup_s "
              f"{raw['raw_setup_s']:.4f}  speed factor {raw['speed']:.3f}")
        if args.trace:
            _, r = run_once(spec, w, args.seeds[0], 1)
            point["traced"][w] = {k: v["value"]
                                  for k, v in r["metrics"].items()}
            bad += r["failed"]
    for w, layers in point["traced"].items():
        print(f"\ntraced {w} (seed {args.seeds[0]}); zero metrics omitted")
        for m in spec["per_layer"]:
            v = layers[m["name"]]
            if v:
                print(f"  {m['name']:<48} {v:>14.6g} {m['unit']}")
    if args.save:
        os.makedirs(os.path.dirname(os.path.abspath(args.save)), exist_ok=True)
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(point, fh, indent=1)
            fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
