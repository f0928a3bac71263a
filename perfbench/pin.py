"""Record the output fingerprint of every workload instance into pins.json.

Run it only at a commit whose outputs are the reference (the outputs must
never change under a performance change):

    python3 perfbench/pin.py            # about ten minutes on two cores
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import (BETTI_POOL, GB_POOL, PINS_PATH, SNF_POOL,
                       WORKLOADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    pools = {"gb-singular": GB_POOL, "snf-pencil": SNF_POOL,
             "linalg-betti": BETTI_POOL, "suite-short": 1}
    outputs = {}
    for name, pool in pools.items():
        for seed in range(pool):
            for op in WORKLOADS[name](seed):
                if op.label in outputs:
                    continue
                out = op.call()
                if op.oracle is not None and not op.oracle(out):
                    print(f"{op.label}: the oracle rejects the output",
                          file=sys.stderr)
                    return 1
                outputs[op.label] = op.fingerprint(out)
                print(op.label, json.dumps(outputs[op.label]), flush=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"commit": commit, "outputs": outputs}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
