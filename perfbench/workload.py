"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/workload.py --workload desk --seed 0 --outdir DIR [--trace]
    python3 perfbench/workload.py --setup-only

A pass is a closed loop: each stage starts only after the previous one
returned. Stages go through ``sidonbasis.cli.main`` in-process, as
``scripts/run_pipeline.py`` does, so JSON encoding, parsing and manifests
are timed as users pay for them. The decode stage calls
``builder.decode_entry`` directly, because no subcommand exposes it.

The pass writes its outputs and ``result.json`` (set-up and stage times,
exit codes, decode mismatches, peak RSS, and with ``--trace`` the per-layer metrics)
into DIR; with ``--trace`` it also writes its spans to ``trace.jsonl``.
``--setup-only`` prints the set-up time and exits.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Desk runs the whole pipeline once per digit seed; the digit seeds of
# workload seed s are 4s .. 4s+3, so no two workload seeds share one.
DESK_DIGIT_SEEDS = 4
DECOMPOSE_SAMPLES = 10000
COVERAGE_WINDOW = 200
COVERAGE_TRIALS = 20

# (metric, d, g): one case per path of equidist.triple_histogram.
EQUIDIST_CASES = (
    ("eq_dense_s", 8, "1+t^2"),
    ("eq_table_s", 6, "2+t+t^6"),
    ("eq_loop_s", 6, "2+t^2+t^8"),
)


def setup() -> float:
    """Import the package (CLI included) from this checkout and load the
    packaged aux set; the time from interpreter start to ready."""
    sys.path.insert(0, str(SRC))
    import sidonbasis
    from sidonbasis import auxset, cli  # noqa: F401

    auxset.default_aux()
    elapsed = time.perf_counter() - _T0
    if not Path(sidonbasis.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"sidonbasis imported from {sidonbasis.__file__}, not from {SRC}")
    return elapsed


class Pass:
    """Runs stages, timing each and recording its exit code."""

    def __init__(self, outdir: Path, tracer=None):
        from sidonbasis import builder, cli

        self.cli = cli
        self.builder = builder
        self.outdir = outdir
        self.tracer = tracer
        self.stages: list[tuple[str, str, float]] = []  # (metric, label, seconds)
        self.exits: dict[str, int] = {}
        self.decode_mismatches: dict[str, int] = {}

    def path(self, rel: str) -> str:
        p = self.outdir / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        return str(p)

    def _timed(self, metric: str, label: str, fn):
        if self.tracer is None:
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
        else:
            with self.tracer.stage(label):
                t0 = time.perf_counter()
                out = fn()
                dt = time.perf_counter() - t0
        self.stages.append((metric, label, dt))
        return out

    def run_cli(self, metric: str, label: str, argv: list[str]) -> None:
        self.exits[label] = self._timed(metric, label, lambda: self.cli.main(argv))

    def decode(self, label: str, seq_rel: str) -> None:
        """Load a sequence file and decode every entry; the check against
        the stored (f, k) runs after the timed region."""
        builder = self.builder

        def run():
            with open(self.path(seq_rel)) as fh:
                seq = builder.seq_from_json(json.load(fh))
            return seq, [builder.decode_entry(e.n, seq.params, seq.moduli) for e in seq.entries]

        seq, decoded = self._timed("decode_s", label, run)
        from gate import decode_mismatches

        self.decode_mismatches[label] = decode_mismatches(
            [(e.f, e.k) for e in seq.entries], decoded
        )


def run_desk(p: Pass, seed: int) -> None:
    p.run_cli("find_aux_s", "find-aux", [
        "find-aux", "--p-min", "2", "--p-max", "1000",
        "--seed", str(seed), "--out", p.path("aux.json"),
    ])
    for j in range(DESK_DIGIT_SEEDS):
        d = f"d{j}/"
        p.run_cli("build_s", d + "build", [
            "build", "--q", "3", "--aux-file", p.path("aux.json"),
            "--k-min", "3", "--k-max", "4",
            "--seed", str(DESK_DIGIT_SEEDS * seed + j), "--out", p.path(d + "seq.json"),
        ])
        p.run_cli("sidon_s", d + "sidon", [
            "verify", "--seq-file", p.path(d + "seq.json"), "--mode", "sidon",
            "--out", p.path(d + "sidon.json"),
        ])
        p.decode(d + "decode", d + "seq.json")
        p.run_cli("decompose_s", d + "decompose", [
            "verify", "--seq-file", p.path(d + "seq.json"), "--mode", "decompose",
            "--trials", str(DECOMPOSE_SAMPLES), "--out", p.path(d + "dec.json"),
        ])
        p.run_cli("coverage_s", d + "coverage", [
            "--threads", "1",
            "verify", "--seq-file", p.path(d + "seq.json"), "--mode", "coverage",
            "--window", str(COVERAGE_WINDOW), "--trials", str(COVERAGE_TRIALS),
            "--out", p.path(d + "cov.csv"),
        ])


def run_wide(p: Pass, seed: int) -> None:
    p.run_cli("find_aux_s", "find-aux", [
        "find-aux", "--p-min", "2", "--p-max", "1000",
        "--seed", str(seed), "--out", p.path("aux.json"),
    ])
    p.run_cli("build_s", "build", [
        "build", "--q", "11", "--aux-file", p.path("aux.json"),
        "--k-min", "3", "--k-max", "3", "--seed", str(seed), "--out", p.path("seq.json"),
    ])
    p.run_cli("sidon_s", "sidon", [
        "verify", "--seq-file", p.path("seq.json"), "--mode", "sidon",
        "--out", p.path("sidon.json"),
    ])
    p.decode("decode", "seq.json")


def run_equidist(p: Pass, seed: int) -> None:
    # The cases are fixed: equidist has no random input, so the seed
    # changes nothing here.
    for metric, d, g in EQUIDIST_CASES:
        name = metric[: -len("_s")]
        p.run_cli(metric, name, [
            "equidist", "--q", "3", "--d", str(d), "--g", g,
            "--out", p.path(f"{name}.csv"),
        ])


RUNNERS = {"desk": run_desk, "wide": run_wide, "equidist": run_equidist}
WORKLOADS = tuple(RUNNERS)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    setup_s = setup()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.workload is None or args.outdir is None:
        ap.error("--workload and --outdir are required for a pass")

    import numpy

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.workload, args.seed)
        tracer.install()
    p = Pass(outdir, tracer)
    RUNNERS[args.workload](p, args.seed)

    stage_s: dict[str, float] = {}
    for metric, _, dt in p.stages:
        stage_s[metric] = stage_s.get(metric, 0.0) + dt
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "total_s": sum(dt for _, _, dt in p.stages),
        "stage_s": stage_s,
        "stages": [[label, dt] for _, label, dt in p.stages],
        "exits": p.exits,
        "decode_mismatches": p.decode_mismatches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layer_self_s"] = tracer.layer_self_s()
        tracer.write_spans(outdir / "trace.jsonl")
    with open(outdir / "result.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
