"""Command line front end.

Subcommands: find-aux, build, verify, equidist, decompose. Every run is
deterministic given its flags; primary outputs carry no timestamps. Each
output file written to disk gets a sidecar manifest <out>.manifest.json
(timestamp, parameter echo, version, warnings) and embeds or references
the manifest name; "-" writes the report to standard output and skips
the sidecar, as does an --out that exists and is no regular file (a pipe
or a device). A report is written as a stream of text chunks, each as it
comes, so that a large sequence file or CSV is never held whole; every
check that can fail runs before the file is opened. --threads,
--threshold, --m and --window are checked before any work, and their
messages name them. main parses with one parser per process, built on
its first call. Exit status is 0
exactly when every requested verification passed; otherwise it is 1 (a
verification failed or a search was exhausted), 2 (bad input) or 3 (an
internal error: a failed exactness assertion, a runtime error, or
running out of memory).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import random
import sys
from fractions import Fraction

from . import __version__
from .analyzer import (
    attribute_collision,
    decompose_many,
    monte_carlo_coverage,
    sidon_certificate,
    verify_sidon,
)
from .auxset import (
    SearchExhausted,
    aux_from_json,
    aux_to_json,
    build_y_table,
    search,
    triple_sumset_bits,
    verify_coverage,
    verify_disjoint,
)
from .builder import (
    Params,
    audit_preconditions,
    build_sequence,
    digit_weights,
    seq_from_json,
    seq_json_chunks,
)
from .equidist import check_theta, deviation_csv_lines, deviation_report, deviation_summary, triple_histogram
from .ffpoly import PrimeModulus, poly_from_string

# after the package modules, so that numpy first loads through ffpoly, as
# in analyzer
import numpy as np  # noqa: E402


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _echo_parameters(args: argparse.Namespace) -> dict:
    out = {}
    for key, val in sorted(vars(args).items()):
        out[key] = str(val) if isinstance(val, Fraction) else val
    return out


def _manifest(args: argparse.Namespace, inputs: list[str], outputs: list[str], warnings: list[str]) -> dict:
    return {
        "subcommand": args.subcommand,
        "parameters": _echo_parameters(args),
        "seed": getattr(args, "seed", None),
        "inputs": inputs,
        "outputs": outputs,
        "version": __version__,
        "warnings": warnings,
        "timestamp": _utc_now(),
    }


def _manifest_ref(out: str) -> str | None:
    """The name of out's manifest sidecar, which the report references;
    None, and no sidecars, when out is "-" or an existing path that is no
    regular file."""
    if out == "-" or (os.path.exists(out) and not os.path.isfile(out)):
        return None
    return os.path.basename(out) + ".manifest.json"


def _write_report(out: str, chunks, manifest: dict) -> None:
    """Write the primary report, an iterable of str chunks, each as it
    comes; outputs with a _manifest_ref get the manifest sidecar."""
    if out == "-":
        sys.stdout.writelines(chunks)
        return
    sidecar = _manifest_ref(out) is not None
    with open(out, "w") as fh:
        fh.writelines(chunks)
    if not sidecar:
        return
    with open(out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_chunks(header: list[str], blocks, manifest_ref: str | None):
    """The CSV text as chunks: the manifest comment when manifest_ref is
    given and the header in one, then the blocks, each one or more lines
    already formatted and newline-terminated."""
    head = "" if manifest_ref is None else f"# manifest: {manifest_ref}\n"
    yield head + ",".join(header) + "\n"
    yield from blocks


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cmd_find_aux(args: argparse.Namespace) -> int:
    try:
        aux = search(args.p_min, args.p_max, args.seed)
    except SearchExhausted as exc:
        print(f"find-aux: {exc}", file=sys.stderr)
        return 1
    ok_dis, _ = verify_disjoint(set(aux.A))
    ok_cov, _ = verify_coverage(set(aux.A), aux.p)
    build_y_table(aux)
    if not (ok_dis and ok_cov):
        print("find-aux: search result failed re-verification", file=sys.stderr)
        return 1
    obj = aux_to_json(aux)
    manifest_ref = _manifest_ref(args.out)
    if manifest_ref:
        obj["manifest"] = manifest_ref
    manifest = _manifest(args, inputs=[], outputs=[args.out], warnings=[])
    _write_report(args.out, [_json_text(obj)], manifest)
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    aux = aux_from_json(_load_json(args.aux_file))
    params = Params(
        q=PrimeModulus(args.q),
        aux=aux,
        c=args.c,
        k_min=args.k_min,
        k_max=args.k_max,
        seed=args.seed,
        strict=args.strict,
    )
    seq = build_sequence(params)
    audit = audit_preconditions(params)
    manifest_ref = _manifest_ref(args.out)
    manifest = _manifest(
        args, inputs=[args.aux_file], outputs=[args.out], warnings=list(seq.warnings)
    )
    manifest["audit"] = list(audit.lines)
    _write_report(args.out, seq_json_chunks(seq, manifest_ref), manifest)
    return 0


def _int_flag(flag: str, text: str) -> int:
    """int(text), its ValueError naming flag."""
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _parse_window(spec_str: str) -> tuple[int | None, int]:
    """"START:LENGTH", or "LENGTH" with START None (centered in the 3-fold
    sum range once the sequence is loaded)."""
    if ":" in spec_str:
        start_s, len_s = spec_str.split(":", 1)
        return _int_flag("--window", start_s), _int_flag("--window", len_s)
    return None, _int_flag("--window", spec_str)


def _center_window(window: tuple[int | None, int], values: list[int]) -> tuple[int, int]:
    """(START, LENGTH) of a parsed window, a missing START centering it."""
    start, length = window
    if start is not None:
        return start, length
    if not values:
        raise ValueError("cannot center --window: the sequence is empty")
    center = (3 * values[0] + 3 * values[-1]) // 2
    return center - length // 2, length


def _verify_sidon_report(seq) -> tuple[dict, bool, dict]:
    """(report, ok, sidon_path): the Sidon report, as verify_sidon finds it
    or, when sidon_certificate holds, with no witnesses; sidon_path is the
    manifest block that names the path taken."""
    level = sidon_certificate(seq)
    if level is not None:
        witnesses = []
        sidon_path = {
            "sidon_path": "certificate",
            "certificate": {
                "level": level.k,
                "degrees": list(level.degrees),
                "margin": level.sharpened_pair_margin(),
            },
        }
    else:
        witnesses = verify_sidon(seq.values)
        sidon_path = {"sidon_path": "engine"}
    items = []
    for w in witnesses:
        audit = attribute_collision(seq, w)
        items.append(
            {
                "n1": str(w.n1),
                "n2": str(w.n2),
                "n3": str(w.n3),
                "n4": str(w.n4),
                "products_congruent": audit.products_congruent,
                "shared_levels": audit.shared_levels,
                "boundary_index": audit.boundary_index,
                "failed_margin": audit.failed_margin,
            }
        )
    n = len(seq.values)
    report = {
        "mode": "sidon",
        "values": n,
        "pairs": n * (n + 1) // 2,
        "witness_count": len(witnesses),
        "witnesses": items,
        "ok": not witnesses,
    }
    return report, not witnesses, sidon_path


# samples per block of the decompose check: the object arrays of one
# block stay small, and freed heap memory below the allocator's trim
# threshold would otherwise stay resident for the rest of the run
_DECOMPOSE_BLOCK = 1024


def _decompose_failures(peel, ms, params, levels: int, z_caps, admissible) -> np.ndarray:
    """Which samples ms of one block fail the decompose check, from their
    peel: `levels` levels or more, an x_l outside [0, q^{2l-1} - 1), a y
    digit that is not admissible, a top digit outside [3, z_caps[k]], or
    digits that do not re-encode to m by digit_weights of params."""
    q = params.q.q
    weights = np.array(digit_weights(params, 2 * len(peel.levels) + 1), dtype=object)
    bad = peel.k >= levels
    bad |= (peel.z < 3) | (peel.z > z_caps[np.minimum(peel.k, levels - 1)])
    total = peel.z * weights[2 * peel.k]
    for level, (idx, x, y) in enumerate(peel.levels, start=1):
        bad[idx] |= (x < 0) | (x >= q ** (2 * level - 1) - 1)
        inside = (y >= 0) & (y < len(admissible))
        inside[inside] = admissible[y[inside]]
        bad[idx] |= ~inside
        term = x * weights[2 * level - 2]
        term += np.multiply(y, weights[2 * level - 1], dtype=object)
        total[idx] += term
    return bad | (total != ms)


def _verify_decompose_report(seq, samples: int) -> tuple[dict, bool]:
    """Decompose samples m drawn uniformly from [3, q^120] and check each
    result independently of the peel, a block of _DECOMPOSE_BLOCK samples
    at a time (see _decompose_failures)."""
    params = seq.params
    q = params.q.q
    p = params.aux.p
    y_table = build_y_table(params.aux)
    bits_aaa = triple_sumset_bits(set(params.aux.A))
    # y is admissible when y - 2, y - 1 and y all lie in A+A+A
    admissible = np.array([y >= 2 and bits_aaa >> (y - 2) & 7 == 7 for y in range(2 * p)])
    top = q**120
    # m = z W_{2k} + (lower digits) with z >= 3 puts every correct
    # decomposition of m <= top below the first level k with W_{2k} >= top;
    # b_{2i-1} = q^{2i-1} - 1 >= q^{2i-2} makes W_{2k} >= q^{k(k-1)}, so
    # that level is at most 12
    weights = digit_weights(params, 25)
    levels = next(k for k in range(1, 13) if weights[2 * k] >= top)
    z_caps = np.array([6 * p * q ** (2 * k + 1) for k in range(levels)], dtype=object)
    rng = random.Random(f"decompose-verify|{params.seed}".encode())
    failures = []
    failure_count = 0
    for start in range(0, samples, _DECOMPOSE_BLOCK):
        ms = np.array(
            [rng.randint(3, top) for _ in range(min(_DECOMPOSE_BLOCK, samples - start))], dtype=object
        )
        bad = _decompose_failures(decompose_many(ms, params, y_table), ms, params, levels, z_caps, admissible)
        failure_count += int(bad.sum())
        failures += [str(m) for m in ms[bad][: 100 - len(failures)]]
    report = {
        "mode": "decompose",
        "samples": samples,
        "m_range": ["3", str(top)],
        "failure_count": failure_count,
        "failures": failures,
        "ok": not failure_count,
    }
    return report, not failure_count


def cmd_verify(args: argparse.Namespace) -> int:
    if args.trials is not None and args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    if args.mode == "coverage" and args.window is None:
        print("error: --window is required for coverage mode", file=sys.stderr)
        return 2
    window = None if args.window is None else _parse_window(args.window)
    seq = seq_from_json(_load_json(args.seq_file))
    manifest_ref = _manifest_ref(args.out)
    sidon_path = {}
    if args.mode == "sidon":
        report, ok, sidon_path = _verify_sidon_report(seq)
        if manifest_ref:
            report["manifest"] = manifest_ref
        chunks = [_json_text(report)]
        warnings = [] if ok else [f"{report['witness_count']} collision witnesses"]
    elif args.mode == "decompose":
        samples = args.trials if args.trials is not None else 10000
        report, ok = _verify_decompose_report(seq, samples)
        if manifest_ref:
            report["manifest"] = manifest_ref
        chunks = [_json_text(report)]
        warnings = [] if ok else [f"{report['failure_count']} decomposition failures"]
    elif args.mode == "coverage":
        window = _center_window(window, list(seq.values))
        trials = args.trials if args.trials is not None else 100
        rep = monte_carlo_coverage(seq, window, trials, threads=args.threads)
        lines = (f"{m},{count},{frequency}\n" for m, count, frequency in rep.rows())
        chunks = _csv_chunks(["m", "count", "frequency"], lines, manifest_ref)
        ok = True
        warnings = [f"{len(rep.uncovered)} of {rep.window_length} window values uncovered in the base build"]
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.mode)
    manifest = _manifest(args, inputs=[args.seq_file], outputs=[args.out], warnings=warnings)
    manifest.update(sidon_path)
    _write_report(args.out, chunks, manifest)
    return 0 if ok else 1


def cmd_equidist(args: argparse.Namespace) -> int:
    q = PrimeModulus(args.q)
    g = poly_from_string(q, args.g)
    check_theta(args.d, g)
    hist = triple_histogram(q, args.d, g)
    dev = deviation_report(hist)
    manifest_ref = _manifest_ref(args.out)
    ok = dev.conservation_ok and dev.max_ratio < args.threshold
    summary = deviation_summary(dev)
    summary["threshold"] = args.threshold
    summary["conservation_ok"] = dev.conservation_ok
    summary["ok"] = ok
    chunks = _csv_chunks(
        ["a", "count", "expected", "deviation", "normalized_ratio"],
        deviation_csv_lines(dev),
        manifest_ref,
    )
    warnings = [] if ok else ["equidistribution alarm: " + json.dumps(summary)]
    manifest = _manifest(args, inputs=[], outputs=[args.out], warnings=warnings)
    manifest["summary"] = summary
    _write_report(args.out, chunks, manifest)
    if manifest_ref is None:
        print(json.dumps(summary, indent=2), file=sys.stderr)
    else:
        summary_obj = dict(summary)
        summary_obj["manifest"] = manifest_ref
        with open(args.out + ".summary.json", "w") as fh:
            fh.write(_json_text(summary_obj))
    return 0 if ok else 1


def cmd_decompose(args: argparse.Namespace) -> int:
    m = _int_flag("--m", args.m)
    aux = aux_from_json(_load_json(args.aux_file))
    params = Params(q=PrimeModulus(args.q), aux=aux)
    y_table = build_y_table(aux)
    peel = decompose_many([m], params, y_table)
    x = [xs[0] for _, xs, _ in peel.levels]
    y = [int(ys[0]) for _, _, ys in peel.levels]
    z = peel.z[0]
    digits = [d for pair in zip(x, y) for d in pair] + [z]
    ok = sum(d * w for d, w in zip(digits, digit_weights(params, len(digits)))) == m
    report = {
        "m": str(m),
        "k": len(x),
        "x": [str(xi) for xi in x],
        "y": y,
        "z": str(z),
        "re_encodes": ok,
    }
    manifest_ref = _manifest_ref(args.out)
    if manifest_ref:
        report["manifest"] = manifest_ref
    manifest = _manifest(args, inputs=[args.aux_file], outputs=[args.out], warnings=[])
    _write_report(args.out, [_json_text(report)], manifest)
    return 0 if ok else 1


def _positive(convert):
    """An argparse type: convert(text), refused unless it is > 0 (NaN
    included), so a bad flag stops the run with exit 2 and its name."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call. It holds no
    command function: main looks the command up by name."""
    parser = argparse.ArgumentParser(
        prog="sidonbasis",
        description="Build and verify a polynomial-derived Sidon sequence.",
    )
    parser.add_argument("--threads", type=_positive(int), default=1, help="worker cap for parallel stages")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("find-aux", help="search primes for an auxiliary set")
    p.add_argument("--p-min", type=int, required=True)
    p.add_argument("--p-max", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")

    p = sub.add_parser("build", help="build the sequence for given parameters")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--aux-file", required=True)
    p.add_argument("--c", default="7/20", help="degree-window exponent ratio, as a fraction")
    p.add_argument("--k-min", type=int, default=3)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true", help="reject scaled-down parameters")
    p.add_argument("--out", default="-")

    p = sub.add_parser("verify", help="verify a built sequence file")
    p.add_argument("--seq-file", required=True)
    p.add_argument("--mode", choices=["sidon", "coverage", "decompose"], required=True)
    p.add_argument("--window", help='coverage window: "START:LENGTH" or centered "LENGTH"')
    p.add_argument("--trials", type=int, help="coverage re-randomizations / decompose samples")
    p.add_argument("--out", default="-")

    p = sub.add_parser("equidist", help="triple-product distribution report")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--g", required=True, help='modulus polynomial, e.g. "1+t^2"')
    p.add_argument("--threshold", type=_positive(float), default=10.0, help="alarm on max normalized ratio")
    p.add_argument("--out", default="-")

    p = sub.add_parser("decompose", help="decompose one integer into basis digits")
    p.add_argument("--m", required=True, help="decimal integer, m >= 3")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--aux-file", required=True)
    p.add_argument("--out", default="-")
    return parser


EXIT_INTERNAL_ERROR = 3


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit status. argv goes through
    build_parser's one parser per process (a usage error exits 2 there);
    the command is looked up by name on each call, so a replaced cmd_*
    function is the one that runs."""
    args = build_parser().parse_args(argv)
    command = {
        "find-aux": cmd_find_aux,
        "build": cmd_build,
        "verify": cmd_verify,
        "equidist": cmd_equidist,
        "decompose": cmd_decompose,
    }[args.subcommand]
    try:
        return command(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
