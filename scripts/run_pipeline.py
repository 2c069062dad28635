"""End-to-end pipeline: search an auxiliary set, build the sequence, run
every verifier, and produce the equidistribution reports, all into one
output directory.

  python3 scripts/run_pipeline.py --outdir runs/demo
  python3 scripts/run_pipeline.py --outdir runs/full --trials 100 --window 1000
  python3 scripts/run_pipeline.py --outdir runs/q7 --q 7 --k-max 3

Each step shells through the package CLI entry points, so the directory
ends up with the same files a by-hand run would produce, manifests
included. Each step's exit line also gives its wall time in seconds.
Exits nonzero if any verification fails.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from sidonbasis.cli import main as cli_main


def step(name: str, argv: list[str]) -> int:
    print(f"== {name}: sidonbasis {' '.join(argv)}")
    t0 = time.perf_counter()
    code = cli_main(argv)
    print(f"   exit {code} ({time.perf_counter() - t0:.2f} s)")
    return code


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--q", type=int, default=3,
                    help="field size of the build and its verifiers; the equidist "
                         "steps always run their fixed q = 3 cases")
    ap.add_argument("--p-min", type=int, default=2)
    ap.add_argument("--p-max", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--k-min", type=int, default=3)
    ap.add_argument("--k-max", type=int, default=4)
    ap.add_argument("--trials", type=int, default=20, help="coverage re-randomizations")
    ap.add_argument("--window", default="200", help="coverage window (LENGTH or START:LENGTH)")
    ap.add_argument("--decompose-samples", type=int, default=2000)
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args(argv)

    os.makedirs(args.outdir, exist_ok=True)
    out = lambda name: os.path.join(args.outdir, name)
    failures = []

    if step("find-aux", [
        "find-aux", "--p-min", str(args.p_min), "--p-max", str(args.p_max),
        "--seed", str(args.seed), "--out", out("aux.json"),
    ]):
        print("pipeline: no auxiliary set in range, stopping")
        return 1

    if step("build", [
        "build", "--q", str(args.q), "--aux-file", out("aux.json"),
        "--k-min", str(args.k_min), "--k-max", str(args.k_max),
        "--seed", str(args.seed), "--out", out("seq.json"),
    ]):
        return 1

    for mode, extra, name in [
        ("sidon", [], "sidon.json"),
        ("decompose", ["--trials", str(args.decompose_samples)], "decompose.json"),
        ("coverage", ["--window", args.window, "--trials", str(args.trials)], "coverage.csv"),
    ]:
        code = step(f"verify {mode}", [
            "--threads", str(args.threads),
            "verify", "--seq-file", out("seq.json"), "--mode", mode,
            *extra, "--out", out(name),
        ])
        if code:
            failures.append(f"verify {mode}")

    # fixed q = 3 cases, whatever --q the build used
    for d, g in [(3, "1+t^2"), (3, "2*t+t^3"), (4, "1+t^2"), (4, "2*t+t^3")]:
        code = step(f"equidist d={d} g={g}", [
            "equidist", "--q", "3", "--d", str(d), "--g", g,
            "--out", out(f"equidist_d{d}_{g.replace('*', '').replace('^', '')}.csv"),
        ])
        if code:
            failures.append(f"equidist d={d} {g}")

    if failures:
        print(f"pipeline: FAILED steps: {', '.join(failures)}")
        return 1
    print(f"pipeline: all steps passed; outputs in {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
