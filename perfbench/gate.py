"""Correctness gate of the benchmark.

Every check of a pass counts once in ``attempted`` and, if it fails, once
in ``failed``:

- each stage exits with the expected code (0: every workload is chosen so
  that every verification passes);
- the SHA-256 of every primary output (``aux.json``, ``seq.json``,
  ``sidon.json``, ``dec.json``, ``cov.csv``, ``eq_*.csv``; never
  manifests) equals the digest recorded in ``digests.json``, for the
  seeds recorded there (a missing ``digests.json`` fails; any other seed
  gets a note in the result);
- every decoded entry decodes back to its stored (f, k);
- decompose reports ``ok`` and equidist reports ``ok`` and
  ``conservation_ok``;
- the Sidon witness count equals an independent recount over sorted
  pair sums.

The gate does not assert the q^((k+2)^2) ceiling; the test suite keeps
that finding.

    python3 perfbench/gate.py      # self-check: the gate reports planted faults
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")
PRIMARY_NAMES = ("aux.json", "seq.json", "sidon.json", "dec.json", "cov.csv")
# Workload seeds whose digests record_digests.py records.
RECORDED_SEEDS = range(20)
MERSENNE_61 = (1 << 61) - 1


class Gate:
    """Counts checks and keeps a description of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _is_primary(path: Path) -> bool:
    return path.name in PRIMARY_NAMES or (
        path.name.startswith("eq_") and path.suffix == ".csv"
    )


def output_digests(pass_dir: Path) -> dict[str, str]:
    """SHA-256 of every primary output under pass_dir, by relative path."""
    return {
        p.relative_to(pass_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(pass_dir.rglob("*"))
        if p.is_file() and _is_primary(p)
    }


def expected_digests(gate: Gate, workload: str, seed: int, seeded: bool) -> dict[str, str] | None:
    """Digests recorded for (workload, seed); a workload whose input does
    not depend on the seed is recorded once, under "any". A missing
    digests.json is a failed check; a seed outside the recorded ones gives
    a note, since only the other oracles then check the outputs."""
    if not gate.check(DIGESTS.exists(), f"{DIGESTS.name} not found: outputs not compared"):
        return None
    key = str(seed) if seeded else "any"
    expected = json.loads(DIGESTS.read_text()).get(workload, {}).get(key)
    if expected is None:
        gate.notes.append(f"{workload} seed {seed}: no digests recorded (seeds "
                          f"{RECORDED_SEEDS.start}-{RECORDED_SEEDS.stop - 1} are); "
                          "outputs checked by the other oracles only")
    return expected


def check_digests(gate: Gate, got: dict[str, str], expected: dict[str, str]) -> None:
    gate.check(sorted(got) == sorted(expected),
               f"primary output files {sorted(got)} != recorded {sorted(expected)}")
    for rel, digest in sorted(expected.items()):
        gate.check(got.get(rel) == digest, f"{rel}: sha256 differs from the recorded digest")


def decode_mismatches(expected: list, decoded: list) -> int:
    """Entries whose decode differs from the stored (f, k)."""
    if len(expected) != len(decoded):
        return max(len(expected), len(decoded))
    return sum(1 for a, b in zip(expected, decoded) if a != b)


def sidon_witness_recount(values: list[int]) -> int:
    """Witnesses verify_sidon reports (one per pair i <= j whose sum an
    earlier pair already holds) = pairs - distinct pair sums. Sums are
    hashed mod 2^61 - 1 and sorted; every group of equal hashes is
    re-counted with exact integers, so the count is exact."""
    import numpy as np

    n = len(values)
    pairs = n * (n + 1) // 2
    h = np.array([v % MERSENNE_61 for v in values], dtype=np.uint64)
    i, j = np.triu_indices(n)
    sums = (h[i] + h[j]) % np.uint64(MERSENNE_61)
    sorted_sums = np.sort(sums)
    tied = np.unique(sorted_sums[1:][sorted_sums[1:] == sorted_sums[:-1]])
    in_tie = np.flatnonzero(np.isin(sums, tied))
    exact: dict[int, set[int]] = {}
    for k in in_tie:
        exact.setdefault(int(sums[k]), set()).add(values[i[k]] + values[j[k]])
    distinct = pairs - len(in_tie) + sum(len(group) for group in exact.values())
    return pairs - distinct


def _read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def check_pass(gate: Gate, pass_dir: Path, result: dict, expected: dict[str, str] | None) -> None:
    """Every check of one pass; see the module docstring."""
    for label, code in sorted(result["exits"].items()):
        gate.check(code == 0, f"{label}: exit code {code}, expected 0")
    for label, bad in sorted(result["decode_mismatches"].items()):
        gate.check(bad == 0, f"{label}: {bad} entries decode to another (f, k)")
    for path in sorted(pass_dir.rglob("dec.json")):
        rep = _read_json(path)
        gate.check(bool(rep and rep.get("ok") and rep.get("failure_count") == 0),
                   f"{path.relative_to(pass_dir)}: decompose report not ok")
    for path in sorted(pass_dir.rglob("eq_*.csv.summary.json")):
        rep = _read_json(path)
        gate.check(bool(rep and rep.get("ok") and rep.get("conservation_ok")),
                   f"{path.relative_to(pass_dir)}: equidist report not ok")
    for path in sorted(pass_dir.rglob("sidon.json")):
        rep = _read_json(path)
        seq = _read_json(path.with_name("seq.json"))
        ok = rep is not None and seq is not None
        if ok:
            values = [int(e["n"]) for e in seq["entries"]]
            ok = rep.get("witness_count") == sidon_witness_recount(values)
        gate.check(ok, f"{path.relative_to(pass_dir)}: witness count differs from the recount")
    if expected is not None:
        check_digests(gate, output_digests(pass_dir), expected)


def _plant_clean_pass(d: Path) -> dict:
    """A small pass directory whose every check passes, and its result."""
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    # {1, 2, 4} has no two pairs with the same sum.
    (d / "seq.json").write_text('{"entries": [{"n": "1"}, {"n": "2"}, {"n": "4"}]}\n')
    (d / "sidon.json").write_text('{"witness_count": 0}\n')
    (d / "dec.json").write_text('{"ok": true, "failure_count": 0}\n')
    (d / "eq_a.csv").write_text("r,count\n0,1\n")
    (d / "eq_a.csv.summary.json").write_text('{"ok": true, "conservation_ok": true}\n')
    return {"exits": {"build": 0}, "decode_mismatches": {"decode": 0}}


# (fault, what check_pass must report): each edits a clean pass directory
# and its result in place.
PLANTED_FAULTS = (
    ("a nonzero exit code", "exit code",
     lambda d, r: r["exits"].update(build=2)),
    ("a wrong decode", "decode to another",
     lambda d, r: r["decode_mismatches"].update(decode=1)),
    ("a decompose report not ok", "decompose report not ok",
     lambda d, r: (d / "dec.json").write_text('{"ok": false, "failure_count": 0}\n')),
    ("a decompose report with failures", "decompose report not ok",
     lambda d, r: (d / "dec.json").write_text('{"ok": true, "failure_count": 3}\n')),
    ("an equidist report not ok", "equidist report not ok",
     lambda d, r: (d / "eq_a.csv.summary.json").write_text(
         '{"ok": false, "conservation_ok": true}\n')),
    ("an equidist report not conserved", "equidist report not ok",
     lambda d, r: (d / "eq_a.csv.summary.json").write_text(
         '{"ok": true, "conservation_ok": false}\n')),
    ("a false Sidon witness count", "witness count differs",
     lambda d, r: (d / "sidon.json").write_text('{"witness_count": 1}\n')),
    # 1 + 5 = 2 + 4: the corrupted sequence is no longer a Sidon set.
    ("a corrupted primary output", "sha256 differs",
     lambda d, r: (d / "seq.json").write_text(
         '{"entries": [{"n": "1"}, {"n": "2"}, {"n": "4"}, {"n": "5"}]}\n')),
)


def self_check(workdir: Path) -> list[str]:
    """Plants each fault of PLANTED_FAULTS in a small pass directory and
    runs check_pass on it; returns the faults the gate let pass."""
    missed = []
    d = workdir / "gate-selfcheck"
    _plant_clean_pass(d)
    recorded = output_digests(d)
    clean = Gate()
    check_pass(clean, d, _plant_clean_pass(d), recorded)
    if clean.failures:
        missed.append(f"a clean pass was reported as failing: {clean.failures}")
    for fault, report, plant in PLANTED_FAULTS:
        result = _plant_clean_pass(d)
        plant(d, result)
        gate = Gate()
        check_pass(gate, d, result, recorded)
        if not any(report in line for line in gate.failures):
            missed.append(f"{fault} passed the gate")
    shutil.rmtree(d)
    # Decode compares (Poly, k) pairs, as decode_entry returns them.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from sidonbasis.ffpoly import Poly, PrimeModulus

    f3 = PrimeModulus(3)
    stored = [(Poly(f3, (1, 1, 1)), 3), (Poly(f3, (2, 0, 1)), 4)]
    same = [(Poly(f3, (1, 1, 1)), 3), (Poly(f3, (2, 0, 1)), 4)]
    if decode_mismatches(stored, same) != 0:
        missed.append("a correct decode was reported as wrong")
    if decode_mismatches(stored, [same[0], (Poly(f3, (2, 1, 1)), 4)]) != 1:
        missed.append("a wrong decode passed the decode check")
    # 1 + 5 = 2 + 4 is the one collision of {1, 2, 4, 5}.
    if sidon_witness_recount([1, 2, 4, 5]) != 1:
        missed.append("the Sidon recount miscounted a planted collision")
    return missed


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        problems = self_check(Path(tmp))
    for line in problems:
        print("gate self-check: " + line)
    print("gate self-check: " + ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)
