"""lforge benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload W --seed 1 --seconds 55 --trace 0

Each pass of the workload runs in a fresh process (``worker.py``), one after
the other, with one thread; a new pass starts only while it is expected to
end within ``--seconds`` (at least one pass always runs).  The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, medians over the passes:
``run_s`` and ``cpu_s`` (wall and process CPU seconds of the timed
section), ``peak_rss_mb`` (the pass process's ru_maxrss), ``setup_s``
(process start to inputs ready: interpreter start-up, ``import lforge``,
fixture parsing and input generation; at least SETUP_SAMPLES samples) and
``ok_ratio`` (operations whose output matched the pinned output and passed
its oracle, over operations attempted).

Seconds are reported at a reference machine speed: the machine this was
tuned on changes speed by up to 1.8x within minutes, so the run and its
passes share one CPU, ``probe`` times a fixed loop on it every
PROBE_INTERVAL_S, and each measured time is multiplied by the mean of
PROBE_REF_S / probe over that time.  PROBE_REF_S is the probe's median
beside a pass, so the factor is about 1 at the machine's usual speed;
``calibrate.py`` measures it and shows that it does not move with the
memory footprint of the pass.  The raw medians (``raw_run_s``,
``raw_cpu_s``, ``raw_setup_s``) and the median factor go into the context
line; the raw seconds and factor of every pass are logged.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced pass with the median traced run_s, plus
``trace.overhead_s``: median traced minus median untraced run_s.  Traced
numbers are never compared with untraced ones.

The line before the result holds the context (machine, commit, source
digest, sample counts); every result is also appended, with its context,
to ``perfbench/out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import OPS_PER_PASS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 11
DEADLINE_S = 170.0  # every process of a run has ended by then
PROBE_INTERVAL_S = 0.05
# median probe() beside a pass on a 2-vCPU Xeon virtual machine at its
# usual speed (over 95 runs of every workload; calibrate.py reads 2.5e-4 to
# 3.3e-4 there as the machine's speed drifts, and 2.3e-4 to 2.7e-4 back to
# back on an idle CPU, where the loop's caches stay warm): reported seconds
# are seconds at this speed
PROBE_REF_S = 3.3e-4


def monotonic() -> float:
    # the system-wide clock, so a child can subtract the parent's reading
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    # hermetic: no on-disk Groebner cache, no long pipelines
    env.pop("LFORGE_CACHE", None)
    env.pop("LFORGE_ALLOW_LONG", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop that shares no code with
    lforge: the machine's current speed on this CPU."""
    d = {}
    t = time.perf_counter()
    for i in range(800):
        k = (i % 97, i % 89)
        d[k] = d.get(k, 0) + i * 3 % 17
    return time.perf_counter() - t


def speed(samples, start: float, end: float) -> float:
    """PROBE_REF_S over the probe's duration, averaged over the samples
    taken in [start, end] (over all samples when none fall inside)."""
    inside = [PROBE_REF_S / d for t, d in samples if start <= t <= end]
    return statistics.fmean(inside or [PROBE_REF_S / d for _, d in samples]
                            or [1.0])


def spawn(args, mode: str, deadline: float, run_id: str = "0",
          spans: str | None = None) -> dict:
    """Run one worker process to completion, probing the machine's speed
    every PROBE_INTERVAL_S on the same CPU meanwhile.  Returns the worker's
    result with ``wall`` (spawn to exit), ``ok`` (it printed a result) and
    the speed over its set-up and its timed section."""
    t0 = monotonic()
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--spawned", repr(t0),
           "--run-id", run_id]
    if spans:
        cmd += ["--spans", spans]
    samples = []
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        while proc.poll() is None and monotonic() < deadline:
            time.sleep(PROBE_INTERVAL_S)
            samples.append((monotonic(), probe()))
    finally:
        if proc.poll() is None:
            print(f"{mode} pass of {args.workload} ran past the deadline",
                  file=sys.stderr)
            proc.kill()
        out, _ = proc.communicate()
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    result["wall"] = monotonic() - t0
    result["ok"] = "setup_s" in result
    result["mode"] = mode
    if result["ok"]:
        result["setup_speed"] = speed(samples, t0, result["ready"])
    if "window" in result:
        result["run_speed"] = speed(samples, *result["window"])
    return result


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "cpu_model": None,
            "python": platform.python_version(), "numpy": None,
            "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from importlib.metadata import version

        info["numpy"] = version("numpy")
    except Exception:  # metadata missing: leave the version unknown
        pass
    return info


def source_identity() -> dict:
    """The git commit when the checkout is a repository, and always a
    digest of the lforge sources, which identifies the code without git."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "lforge")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def measure(args) -> tuple[list, list]:
    """Closed loop of passes for about ``args.seconds``; then extra set-up
    samples.  Returns (passes, setup-only samples)."""
    start = monotonic()
    deadline = start + DEADLINE_S
    modes = ("run", "trace") if args.trace else ("run",)
    passes = []
    while True:
        mode = modes[len(passes) % len(modes)]
        if len(passes) >= len(modes):
            expected = statistics.median(p["wall"] for p in passes)
            if monotonic() - start + expected > args.seconds:
                break
        spans = None
        if mode == "trace":
            os.makedirs(OUT, exist_ok=True)
            spans = os.path.join(
                OUT, f"spans-{args.workload}-{len(passes) // 2}.npz")
        p = spawn(args, mode, deadline, run_id=f"{args.seed}.{len(passes)}",
                  spans=spans)
        passes.append(p)
        if not p["ok"] or monotonic() >= deadline:
            break
    setups = []
    if not args.trace:
        while (len(passes) + len(setups) < SETUP_SAMPLES
               and monotonic() < deadline):
            setups.append(spawn(args, "setup", deadline))
    return passes, setups


def summarize(args, passes, setups) -> tuple[dict, dict]:
    """(result object, sample counts)."""
    timed = [p for p in passes if p["ok"]]
    attempted = sum(p.get("attempted", OPS_PER_PASS[args.workload])
                    for p in passes)
    failed = sum(p.get("failed", OPS_PER_PASS[args.workload])
                 for p in passes)
    untraced = [p for p in timed if p["mode"] == "run"]
    traced = sorted((p for p in timed if p["mode"] == "trace"),
                    key=lambda p: p["run_s"])
    set_up = timed + [s for s in setups if s["ok"]]
    setup_vals = [p["setup_s"] * p["setup_speed"] for p in set_up]
    if args.trace:
        mid = traced[(len(traced) - 1) // 2]
        # every time of one traced pass scales by the same factor, so the
        # self times still add up to its run_s
        metrics = {k: v * mid["run_speed"] if k.endswith("_s") else v
                   for k, v in mid["layers"].items()}
        traced_s = mid["run_s"] * mid["run_speed"]
        untraced_s = statistics.median(p["run_s"] * p["run_speed"]
                                       for p in untraced)
        metrics["trace.run_s"] = traced_s
        metrics["trace.untraced_run_s"] = untraced_s
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in metrics.items()}
    else:
        metrics = {
            "run_s": {"value": statistics.median(
                p["run_s"] * p["run_speed"] for p in untraced), "unit": "s"},
            "cpu_s": {"value": statistics.median(
                p["cpu_s"] * p["run_speed"] for p in untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_vals), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                p["peak_rss_mb"] for p in untraced), "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted,
                         "unit": "ratio"},
        }
    samples = {"passes": len(untraced), "traced_passes": len(traced),
               "setup_samples": len(setup_vals),
               "speed": statistics.median(p["run_speed"] for p in timed)}
    if untraced:
        samples["raw_run_s"] = statistics.median(p["run_s"] for p in untraced)
        samples["raw_cpu_s"] = statistics.median(p["cpu_s"] for p in untraced)
    samples["raw_setup_s"] = statistics.median(p["setup_s"] for p in set_up)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, samples


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    if metric.endswith("gb_per_call"):
        return "gb/call"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "lforge", "__init__.py")):
        print(f"no lforge sources under {SRC}", file=sys.stderr)
        return 2
    # the passes and the speed probe share one CPU, so the probe sees the
    # speed the pass gets
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass

    passes, setups = measure(args)
    if not any(p["ok"] for p in passes if p["mode"] == "run") or (
            args.trace and not any(p["ok"] for p in passes
                                   if p["mode"] == "trace")):
        print("no pass of the workload completed", file=sys.stderr)
        return 1
    result, samples = summarize(args, passes, setups)
    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "machine": machine(), **source_identity(),
               "samples": samples,
               "failures": sorted({f for p in passes
                                   for f in p.get("failures", [])})}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"context": context, "result": result,
                             "passes": passes, "setups": setups}) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
