"""Benchmark of the sidonbasis pipeline.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

  desk      q = 3, k = 3..4, the p = 307 set from find-aux: per digit seed
            build, verify sidon, decode every entry, verify decompose,
            verify coverage.
  wide      q = 11, k = 3: find-aux, build, verify sidon, decode every entry.
  equidist  q = 3 equidist on three cases, one per triple_histogram path.

desk and wide use the pair-sum layer in opposite ways: desk in many small
coverage trials, wide in one 6.6 M-sum Sidon walk, so a pair-sum change
that helps one use and costs the other shows. desk never leaves the
discrete-log table path and wide is nearly all Pohlig-Hellman, so a change
to either path has a workload that bypasses it. wide is q = 11 rather than
q = 13 (7,098 entries) because the q = 13 build takes about 78 s and its
dict-based Sidon walk needs several GB; add q = 13 once batched F_q
arithmetic and a bounded-memory pair-sum engine make it fit in a run.
wide skips coverage, which would build three 6.6 M-entry dicts or sets per
trial.

Each pass of a workload runs in a fresh interpreter (perfbench/workload.py)
as a closed loop, one stage after another. Passes repeat until --seconds
have gone by (at least one pass), and every timing is the median over the
passes. Set-up time is the median over the passes' own set-up and over
probes, fresh interpreters started before the first pass and after each
that only import the package and load the packaged aux set; the traced run
starts no probes.

With --trace 0 the run prints the end-to-end metrics. With --trace 1 it
runs the untraced passes, then one traced pass, and prints the per-layer
metrics, a per-module self-time table and the tracing overhead; the spans
go to .perfbench_out/<workload>-<seed>/traced/trace.jsonl.

After the timed passes the correctness gate (perfbench/gate.py) checks
every pass. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The run exits 1 without
that line when the package sources are missing or a pass crashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from gate import Gate, check_pass, expected_digests, self_check  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workload import WORKLOADS  # noqa: E402

# Set-up probes before the first pass and after each pass, so that their
# median does not hang on the machine's state of a single moment. Each
# pass's own set-up time is a sample too.
SETUP_PROBES_PER_GAP = 8
PASS_TIMEOUT_S = 170
# A run starts no further pass that could end past this point.
RUN_BUDGET_S = 150
SEEDED = {"desk": True, "wide": True, "equidist": False}

# Stage metrics, printed with the end-to-end ones; a workload reports the
# stages it runs. find-aux is too short to time alone and counts in total_s.
STAGE_METRICS = (
    "build_s", "sidon_s", "decode_s", "decompose_s", "coverage_s",
    "eq_dense_s", "eq_table_s", "eq_loop_s",
)


def machine_record() -> dict:
    """nproc, memory, CPU model, Python version and the code measured."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "nproc": os.cpu_count(),
        "mem_total_gb": round(mem / 2**30, 2),
        "cpu_model": cpu or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over the package sources, which names the code measured
    where no commit is at hand."""
    h = hashlib.sha256()
    for p in sorted((SRC / "sidonbasis").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _child(args: list[str]) -> subprocess.CompletedProcess:
    """Run perfbench/workload.py to completion; its stdout goes to our
    stderr so that our last stdout line stays the result."""
    return subprocess.run(
        [sys.executable, str(HERE / "workload.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=sys.stderr,
        text=True,
        timeout=PASS_TIMEOUT_S,
        check=True,
    )


def setup_samples(n: int) -> list[float]:
    """Set-up times of n fresh interpreters."""
    samples = []
    for _ in range(n):
        proc = _child(["--setup-only"])
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_pass(workload: str, seed: int, pass_dir: Path, trace: bool) -> dict:
    shutil.rmtree(pass_dir, ignore_errors=True)
    args = ["--workload", workload, "--seed", str(seed), "--outdir", str(pass_dir)]
    proc = _child(args + (["--trace"] if trace else []))
    sys.stderr.write(proc.stdout)
    result = json.loads((pass_dir / "result.json").read_text())
    result["dir"] = str(pass_dir)
    return result


def run_passes(workload: str, seed: int, run_dir: Path, seconds: float,
               probes: int) -> tuple[list[dict], list[float]]:
    """Untraced passes until `seconds` have gone by, at least one, with
    `probes` set-up probes before the first pass and after each; returns
    the passes and every set-up sample, the passes' own included."""
    passes = []
    setup = setup_samples(probes)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(workload, seed, run_dir / f"pass{len(passes)}", False))
        last = time.perf_counter() - t0
        setup += [passes[-1]["setup_s"], *setup_samples(probes)]
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed + last > RUN_BUDGET_S:
            return passes, setup


def median_metrics(passes: list[dict]) -> dict[str, float]:
    out = {"total_s": statistics.median(p["total_s"] for p in passes),
           "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
    for name in STAGE_METRICS:
        if name in passes[0]["stage_s"]:
            out[name] = statistics.median(p["stage_s"][name] for p in passes)
    return out


def gate_passes(workload: str, seed: int, run_dir: Path, passes: list[dict]) -> Gate:
    gate = Gate()
    problems = self_check(run_dir)
    gate.check(not problems, "gate self-check: " + "; ".join(problems))
    expected = expected_digests(gate, workload, seed, SEEDED[workload])
    for result in passes:
        check_pass(gate, Path(result["dir"]), result, expected)
    return gate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "sidonbasis" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 1
    run_dir = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        machine = machine_record()
        traced = None
        probes = 0 if args.trace else SETUP_PROBES_PER_GAP
        passes, setup = run_passes(args.workload, args.seed, run_dir, args.seconds, probes)
        if args.trace:
            traced = run_pass(args.workload, args.seed, run_dir / "traced", True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: benchmark pass failed: {exc}", file=sys.stderr)
        return 1

    gate = gate_passes(args.workload, args.seed, run_dir, passes + ([traced] if traced else []))
    machine["numpy"] = passes[0]["numpy"]
    med = median_metrics(passes)
    fail_ratio = len(gate.failures) / gate.attempted

    print(f"machine {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} untraced pass(es)")
    for problem in gate.failures:
        print(f"  FAILED: {problem}")
    for note in gate.notes:
        print(f"  note: {note}")
    print(f"  fail_ratio {fail_ratio:.4g} ({len(gate.failures)}/{gate.attempted} checks)")
    if traced is None:
        metrics = {"setup_s": (statistics.median(setup), "s"), "total_s": (med["total_s"], "s"),
                   "peak_rss_mb": (med["peak_rss_mb"], "MB")}
        for name in STAGE_METRICS:
            if name in med:
                print(f"  {name:<14} {med[name]:10.4f} s")
    else:
        overhead = traced["total_s"] - med["total_s"]
        metrics = {name: tuple(v) for name, v in traced["layers"].items()}
        metrics["trace.overhead_s"] = (overhead, "s")
        for name in STAGE_METRICS:
            metrics[f"stage.{name}"] = (med.get(name, 0.0), "s")
        total_self = sum(traced["layer_self_s"].values())
        print(f"  self time by layer (traced total_s {traced['total_s']:.3f} s, "
              f"untraced {med['total_s']:.3f} s)")
        for layer in LAYERS:
            s = traced["layer_self_s"][layer]
            print(f"    {layer:<10} {s:10.4f} s  {100 * s / total_self:5.1f} %")
        print(f"    {'trace.overhead_s':<10} {overhead:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:14.6g} {unit}")

    record = {"machine": machine, "workload": args.workload, "seed": args.seed,
              "passes": len(passes), "setup_samples_s": setup,
              "failures": gate.failures, "notes": gate.notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (run_dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
