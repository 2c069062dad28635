"""Record the primary-output digests that the correctness gate compares.

    python3 perfbench/record_digests.py

Runs one pass of every workload for every seed of gate.RECORDED_SEEDS
with the code of this checkout, checks it with every other oracle of the
gate, and writes perfbench/digests.json. Record only from a commit whose
outputs are known to be right: a later change that alters a primary
output byte then fails the gate. equidist has no random input, so it is
recorded once, under "any".
"""

from __future__ import annotations

import json
import shutil
import sys

from gate import DIGESTS, RECORDED_SEEDS, Gate, check_pass, output_digests
from run import OUT, SEEDED, run_pass
from workload import WORKLOADS


def main() -> int:
    table = {}
    for workload in WORKLOADS:
        keys = [str(s) for s in RECORDED_SEEDS] if SEEDED[workload] else ["any"]
        table[workload] = {}
        for key in keys:
            seed = RECORDED_SEEDS.start if key == "any" else int(key)
            pass_dir = OUT / "record" / f"{workload}-{key}"
            result = run_pass(workload, seed, pass_dir, trace=False)
            gate = Gate()
            check_pass(gate, pass_dir, result, expected=None)
            if gate.failures:
                print(f"{workload} seed {key}: not recorded: {gate.failures}", file=sys.stderr)
                return 1
            table[workload][key] = output_digests(pass_dir)
            print(f"{workload} seed {key}: {len(table[workload][key])} outputs", flush=True)
    shutil.rmtree(OUT / "record", ignore_errors=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
