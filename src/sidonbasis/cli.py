"""Command line front end.

Subcommands: find-aux, build, verify, equidist, decompose. Every run is
deterministic given its flags; primary outputs carry no timestamps. Each
output file written to disk gets a sidecar manifest <out>.manifest.json
(timestamp, parameter echo, version, warnings) and embeds or references
the manifest name; "-" writes the report to standard output and skips
the sidecar. Exit status is 0 exactly when every requested verification
passed; otherwise it is 1 (a verification failed or a search was
exhausted), 2 (bad input) or 3 (an internal error: a failed exactness
assertion, a runtime error, or running out of memory).
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import random
import sys
from fractions import Fraction

from . import __version__
from .analyzer import attribute_collision, decompose, decompose_many, monte_carlo_coverage, verify_sidon
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
    mixed_radix,
    seq_from_json,
    seq_json_text,
)
from .equidist import deviation_csv_rows, deviation_report, deviation_summary, triple_histogram
from .ffpoly import PrimeModulus, poly_from_string
from .gbase import encode

# after the package modules, so that numpy first loads through ffpoly, as
# in analyzer
import numpy as np  # noqa: E402


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _echo_parameters(args: argparse.Namespace) -> dict:
    out = {}
    for key, val in sorted(vars(args).items()):
        if key == "func":
            continue
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


def _manifest_name(out: str) -> str:
    return os.path.basename(out) + ".manifest.json"


def _write_report(out: str, text: str, manifest: dict) -> None:
    """Write the primary report; on-disk outputs get the manifest sidecar."""
    if out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w") as fh:
        fh.write(text)
    with open(out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(header: list[str], rows, manifest_ref: str | None) -> str:
    buf = io.StringIO()
    if manifest_ref is not None:
        buf.write(f"# manifest: {manifest_ref}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(x) for x in row) + "\n")
    return buf.getvalue()


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cmd_find_aux(args: argparse.Namespace) -> int:
    if args.p_min > args.p_max:
        print(f"error: empty prime range [{args.p_min}, {args.p_max}]", file=sys.stderr)
        return 2
    try:
        aux = search(
            args.p_min,
            args.p_max,
            seed=args.seed,
            max_attempts_per_p=args.attempts,
            method=args.method,
        )
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
    if args.out != "-":
        obj["manifest"] = _manifest_name(args.out)
    manifest = _manifest(args, inputs=[], outputs=[args.out], warnings=[])
    _write_report(args.out, _json_text(obj), manifest)
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    aux = aux_from_json(_load_json(args.aux_file))
    params = Params(
        q=PrimeModulus(args.q),
        aux=aux,
        c=Fraction(args.c),
        k_min=args.k_min,
        k_max=args.k_max,
        seed=args.seed,
        strict=args.strict,
    )
    seq = build_sequence(params)
    audit = audit_preconditions(params)
    manifest_ref = None if args.out == "-" else _manifest_name(args.out)
    manifest = _manifest(
        args, inputs=[args.aux_file], outputs=[args.out], warnings=list(seq.warnings)
    )
    manifest["audit"] = list(audit.lines)
    _write_report(args.out, seq_json_text(seq, manifest_ref), manifest)
    return 0


def _parse_window(spec_str: str, values: list[int]) -> tuple[int, int]:
    """"START:LENGTH" or "LENGTH" (centered in the 3-fold sum range)."""
    if ":" in spec_str:
        start_s, len_s = spec_str.split(":", 1)
        return int(start_s), int(len_s)
    length = int(spec_str)
    if not values:
        raise ValueError("cannot center --window: the sequence is empty")
    center = (3 * values[0] + 3 * values[-1]) // 2
    return center - length // 2, length


def _verify_sidon_report(seq) -> tuple[dict, bool]:
    witnesses = verify_sidon(seq.values)
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
    n = len(seq.entries)
    report = {
        "mode": "sidon",
        "values": n,
        "pairs": n * (n + 1) // 2,
        "witness_count": len(witnesses),
        "witnesses": items,
        "ok": not witnesses,
    }
    return report, not witnesses


# samples per block of the decompose check: the object arrays of one
# block stay small, and freed heap memory below the allocator's trim
# threshold would otherwise stay resident for the rest of the run
_DECOMPOSE_BLOCK = 1024


def _decompose_failures(peel, ms, base, levels: int, z_caps, admissible) -> np.ndarray:
    """Which samples ms of one block fail the decompose check, from their
    peel: `levels` levels or more, an x_l outside [0, q^{2l-1} - 1), a y
    digit that is not admissible, a top digit outside [3, z_caps[k]], or
    digits that do not re-encode to m by the weights of the mixed radix
    base."""
    q = base.q.q
    weights = np.array(base.weights(2 * len(peel.levels) + 1), dtype=object)
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
    base = mixed_radix(params)
    # m = z W_{2k} + (lower digits) with z >= 3 puts every correct
    # decomposition of m <= top below the first level k with W_{2k} >= top;
    # b_{2i-1} = q^{2i-1} - 1 >= q^{2i-2} makes W_{2k} >= q^{k(k-1)}, so
    # that level is at most 12
    weights = base.weights(25)
    levels = next(k for k in range(1, 13) if weights[2 * k] >= top)
    z_caps = np.array([6 * p * q ** (2 * k + 1) for k in range(levels)], dtype=object)
    rng = random.Random(f"decompose-verify|{params.seed}".encode())
    failures = []
    failure_count = 0
    for start in range(0, samples, _DECOMPOSE_BLOCK):
        ms = np.array(
            [rng.randint(3, top) for _ in range(min(_DECOMPOSE_BLOCK, samples - start))], dtype=object
        )
        bad = _decompose_failures(decompose_many(ms, params, y_table), ms, base, levels, z_caps, admissible)
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
    seq = seq_from_json(_load_json(args.seq_file))
    manifest_ref = None if args.out == "-" else _manifest_name(args.out)
    if args.mode == "sidon":
        report, ok = _verify_sidon_report(seq)
        if manifest_ref:
            report["manifest"] = manifest_ref
        text = _json_text(report)
        warnings = [] if ok else [f"{report['witness_count']} collision witnesses"]
    elif args.mode == "decompose":
        samples = args.trials if args.trials is not None else 10000
        report, ok = _verify_decompose_report(seq, samples)
        if manifest_ref:
            report["manifest"] = manifest_ref
        text = _json_text(report)
        warnings = [] if ok else [f"{report['failure_count']} decomposition failures"]
    elif args.mode == "coverage":
        if args.window is None:
            print("error: --window is required for coverage mode", file=sys.stderr)
            return 2
        window = _parse_window(args.window, list(seq.values))
        trials = args.trials if args.trials is not None else 100
        rep = monte_carlo_coverage(
            seq.params, window, trials, threads=args.threads, seq=seq
        )
        text = _csv_text(["m", "count", "frequency"], rep.rows(), manifest_ref)
        ok = True
        warnings = [f"{len(rep.uncovered)} of {rep.window_length} window values uncovered in the base build"]
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.mode)
    manifest = _manifest(args, inputs=[args.seq_file], outputs=[args.out], warnings=warnings)
    _write_report(args.out, text, manifest)
    return 0 if ok else 1


def cmd_equidist(args: argparse.Namespace) -> int:
    q = PrimeModulus(args.q)
    g = poly_from_string(q, args.g)
    hist = triple_histogram(q, args.d, g, cap=args.cap)
    dev = deviation_report(hist)
    manifest_ref = None if args.out == "-" else _manifest_name(args.out)
    ok = dev.conservation_ok and dev.max_ratio < args.threshold
    summary = deviation_summary(dev)
    summary["threshold"] = args.threshold
    summary["conservation_ok"] = dev.conservation_ok
    summary["ok"] = ok
    csv_text = _csv_text(
        ["a", "count", "expected", "deviation", "normalized_ratio"],
        deviation_csv_rows(dev),
        manifest_ref,
    )
    warnings = [] if ok else ["equidistribution alarm: " + json.dumps(summary)]
    manifest = _manifest(args, inputs=[], outputs=[args.out], warnings=warnings)
    manifest["summary"] = summary
    if args.out == "-":
        sys.stdout.write(csv_text)
        print(json.dumps(summary, indent=2), file=sys.stderr)
    else:
        _write_report(args.out, csv_text, manifest)
        summary_obj = dict(summary)
        summary_obj["manifest"] = manifest_ref
        with open(args.out + ".summary.json", "w") as fh:
            fh.write(_json_text(summary_obj))
    return 0 if ok else 1


def cmd_decompose(args: argparse.Namespace) -> int:
    aux = aux_from_json(_load_json(args.aux_file))
    params = Params(q=PrimeModulus(args.q), aux=aux)
    y_table = build_y_table(aux)
    m = int(args.m)
    dec = decompose(m, params, y_table)
    ok = encode(mixed_radix(params), dec.digit_vector()) == m
    report = {
        "m": str(m),
        "k": dec.k,
        "x": [str(x) for x in dec.x],
        "y": list(dec.y),
        "z": str(dec.z),
        "re_encodes": ok,
    }
    manifest_ref = None if args.out == "-" else _manifest_name(args.out)
    if manifest_ref:
        report["manifest"] = manifest_ref
    manifest = _manifest(args, inputs=[args.aux_file], outputs=[args.out], warnings=[])
    _write_report(args.out, _json_text(report), manifest)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sidonbasis",
        description="Build and verify a polynomial-derived Sidon sequence.",
    )
    parser.add_argument("--threads", type=int, default=1, help="worker cap for parallel stages")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("find-aux", help="search primes for an auxiliary set")
    p.add_argument("--p-min", type=int, required=True)
    p.add_argument("--p-max", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attempts", type=int, default=40, help="random attempts per prime")
    p.add_argument(
        "--method",
        choices=["random", "deterministic", "both"],
        default="both",
        help="candidate generation strategy",
    )
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_find_aux)

    p = sub.add_parser("build", help="build the sequence for given parameters")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--aux-file", required=True)
    p.add_argument("--c", default="7/20", help="degree-window exponent ratio, as a fraction")
    p.add_argument("--k-min", type=int, default=3)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true", help="reject scaled-down parameters")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="verify a built sequence file")
    p.add_argument("--seq-file", required=True)
    p.add_argument("--mode", choices=["sidon", "coverage", "decompose"], required=True)
    p.add_argument("--window", help='coverage window: "START:LENGTH" or centered "LENGTH"')
    p.add_argument("--trials", type=int, help="coverage re-randomizations / decompose samples")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("equidist", help="triple-product distribution report")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--g", required=True, help='modulus polynomial, e.g. "1+t^2"')
    p.add_argument("--cap", type=int, default=1000, help="largest allowed irreducible pool")
    p.add_argument("--threshold", type=float, default=10.0, help="alarm on max normalized ratio")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_equidist)

    p = sub.add_parser("decompose", help="decompose one integer into basis digits")
    p.add_argument("--m", required=True, help="decimal integer, m >= 3")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--aux-file", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_decompose)
    return parser


EXIT_INTERNAL_ERROR = 3


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
