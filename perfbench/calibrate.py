"""Measure PROBE_REF_S and check that the speed factor does not depend on
the pass it is taken beside.

    python3 perfbench/calibrate.py

Runs a synthetic pass with a small working set ("light") and one that also
reads and writes a 64 MB buffer at random ("heavy") in turn, each in a
fresh process, and probes the machine exactly as ``run.py`` does: same CPU,
every PROBE_INTERVAL_S.  Prints the median probe beside each kind of pass
and back to back on the idle CPU.  PROBE_REF_S should be the median beside
a pass at the machine's usual speed; heavy over light, paired, should be
about 1, or the factor would move with the memory footprint of the program
under test.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

from run import PROBE_INTERVAL_S, PROBE_REF_S, probe

PAIRS = 10  # one light and one heavy pass each, about 90 s in all

PASS = r"""
import sys
buf = bytearray(64 << 20 if sys.argv[1] == "heavy" else 1 << 12)
n, d, x = len(buf), {}, 12345
for i in range(4_000_000):
    x = (x * 1103515245 + 12345) & 0x7fffffff
    buf[x % n] = (buf[x % n] + 1) & 255
    d[i % 101] = d.get(i % 101, 0) + 1
"""


def probes_beside(kind: str) -> list[float]:
    proc = subprocess.Popen([sys.executable, "-c", PASS, kind])
    samples = []
    try:
        while proc.poll() is None:
            time.sleep(PROBE_INTERVAL_S)
            samples.append(probe())
    finally:
        proc.kill()
        proc.wait()
    return samples


def main() -> int:
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    beside = {"light": [], "heavy": []}
    for _ in range(PAIRS):
        for kind, samples in beside.items():
            samples.append(statistics.median(probes_beside(kind)))
    idle = statistics.median(probe() for _ in range(200))
    print(f"PROBE_REF_S in run.py: {PROBE_REF_S * 1e6:.0f} us")
    print(f"idle, back to back:    {idle * 1e6:.0f} us")
    for kind, meds in beside.items():
        print(f"beside a {kind} pass:   {statistics.median(meds) * 1e6:.0f} us"
              f"  (per pass: {' '.join(f'{m * 1e6:.0f}' for m in meds)})")
    # the machine's speed drifts between pairs, so compare within a pair
    ratios = [h / l for l, h in zip(beside["light"], beside["heavy"])]
    print(f"heavy / light:         {statistics.median(ratios):.3f} "
          f"(median over pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
