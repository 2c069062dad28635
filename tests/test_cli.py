"""End-to-end CLI tests: exit codes, manifests, determinism, formats."""

import contextlib
import dataclasses
import importlib.util
import json
import os
import random
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from sidonbasis import cli
from sidonbasis.analyzer import monte_carlo_coverage
from sidonbasis.auxset import YTable, aux_from_json, build_y_table, default_aux, triple_sumset_bits
from sidonbasis.builder import Params, _e_key, digit_weights, seq_from_json, seq_json_chunks
from sidonbasis.cli import EXIT_INTERNAL_ERROR, main
from sidonbasis.ffpoly import Poly, PrimeModulus

from oracles import _pack, level_e_digits, peel


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One aux search and one build shared by every CLI test."""
    root = tmp_path_factory.mktemp("cli")
    aux = root / "aux.json"
    seq = root / "seq.json"
    assert main(["find-aux", "--p-min", "300", "--p-max", "320", "--out", str(aux)]) == 0
    assert (
        main(["build", "--q", "3", "--aux-file", str(aux), "--out", str(seq)]) == 0
    )
    return root


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_find_aux_output_and_manifest(workdir):
    aux = workdir / "aux.json"
    obj = read_json(aux)
    assert obj["p"] == 307
    assert obj["log_convention"] == "natural"
    assert obj["manifest"] == "aux.json.manifest.json"
    manifest = read_json(workdir / "aux.json.manifest.json")
    assert manifest["subcommand"] == "find-aux"
    assert manifest["outputs"] == [str(aux)]
    assert "timestamp" in manifest and "version" in manifest
    assert manifest["parameters"]["p_min"] == 300
    # timestamps live in the manifest only
    assert "timestamp" not in obj


def test_find_aux_deterministic_rerun(workdir, tmp_path):
    out = tmp_path / "aux.json"
    assert main(["find-aux", "--p-min", "300", "--p-max", "320", "--out", str(out)]) == 0
    first = out.read_bytes()
    assert main(["find-aux", "--p-min", "300", "--p-max", "320", "--out", str(out)]) == 0
    assert out.read_bytes() == first
    assert first == (workdir / "aux.json").read_bytes()


def test_find_aux_exhaustion_exit_code(tmp_path, capsys):
    rc = main(["find-aux", "--p-min", "11", "--p-max", "13", "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert "no auxiliary set" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("flag", [["--attempts", "0"], ["--method", "random"]])
def test_find_aux_has_no_random_search_flags(tmp_path, flag):
    # the package searches with the residue-class construction only; the
    # randomized sampler is scripts/find_aux_experiments.py --random-grid
    with pytest.raises(SystemExit) as exc:
        main(["find-aux", "--p-min", "300", "--p-max", "320", *flag, "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "x.json").exists()


def test_find_aux_empty_range_exit_code(tmp_path, capsys):
    rc = main(["find-aux", "--p-min", "20", "--p-max", "10", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_find_aux_stdout_mode(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["find-aux", "--p-min", "300", "--p-max", "320", "--out", "-"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["p"] == 307
    assert "manifest" not in obj
    assert list(tmp_path.iterdir()) == []  # stdout mode writes no sidecar


def test_build_output(workdir):
    seq = read_json(workdir / "seq.json")
    assert len(seq["entries"]) == 944
    assert seq["params"]["q"] == 3
    assert seq["manifest"] == "seq.json.manifest.json"
    ks = {ent["k"] for ent in seq["entries"]}
    assert ks == {3, 4}
    manifest = read_json(workdir / "seq.json.manifest.json")
    assert manifest["subcommand"] == "build"
    assert any("margin (a)" in line for line in manifest["audit"])
    assert any("fail" in w for w in manifest["warnings"])


def test_build_deterministic_rerun(workdir, tmp_path):
    aux = workdir / "aux.json"
    out = tmp_path / "seq.json"
    assert main(["build", "--q", "3", "--aux-file", str(aux), "--out", str(out)]) == 0
    first = out.read_bytes()
    assert main(["build", "--q", "3", "--aux-file", str(aux), "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_build_stdout_mode(workdir, tmp_path, monkeypatch, capsys):
    # "-" prints the joined chunks of the sequence, with no manifest key,
    # and writes no sidecar
    monkeypatch.chdir(tmp_path)
    assert main(["build", "--q", "3", "--aux-file", str(workdir / "aux.json"), "--out", "-"]) == 0
    out = capsys.readouterr().out
    seq = seq_from_json(read_json(workdir / "seq.json"))
    assert out == "".join(seq_json_chunks(seq))
    assert "manifest" not in json.loads(out)
    assert list(tmp_path.iterdir()) == []


def test_build_rejects_q2(workdir, tmp_path, capsys):
    rc = main(
        ["build", "--q", "2", "--aux-file", str(workdir / "aux.json"), "--out", str(tmp_path / "s.json")]
    )
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("p", 308, "aux p = 308 is not prime"),
        ("A", [], "aux A must be a nonempty list"),
        ("A", [3, 4, 307], "outside [0, 307)"),
        ("A", [-1, 3, 4], "outside [0, 307)"),
        ("A", [3, 4, 4, 5], "repeated"),
        ("window_start", 75.5, "window_start must be an integer"),
        ("window_start", None, "window_start must be an integer"),
        ("A", [3, 4, 200], "A must lie inside {1..floor(p/2)-1}"),
        ("A", [*default_aux().A, 7], "aux A meets A+A+{0,1}: 7 = 3 + 4 + 0"),
        ("A", [1], "aux A+A+A holds no run of p+2 = 309"),  # its y-table is incomplete too
        ("window_start", 0, "aux window_start = 0 differs from the run start 75"),
        ("seed", None, "aux seed must be an integer"),
        ("method", ["x"], "aux method must be a string"),
    ],
)
def test_build_rejects_invalid_aux_file(workdir, tmp_path, capsys, key, value, message):
    obj = read_json(workdir / "aux.json")
    obj[key] = value
    bad = tmp_path / "aux.json"
    bad.write_text(json.dumps(obj))
    out = tmp_path / "s.json"
    rc = main(["build", "--q", "3", "--aux-file", str(bad), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_build_rejects_zero_denominator(workdir, capsys):
    argv = ["build", "--q", "3", "--aux-file", str(workdir / "aux.json"), "--c", "1/0", "--out", "-"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: c = '1/0' is not a fraction")


def test_build_strict_rejected_at_desk_scale(workdir, tmp_path, capsys):
    rc = main(
        ["build", "--q", "3", "--strict", "--aux-file", str(workdir / "aux.json"), "--out", str(tmp_path / "s.json")]
    )
    assert rc == 2
    assert "strict" in capsys.readouterr().err


def test_verify_sidon(workdir, tmp_path):
    out = tmp_path / "sidon.json"
    rc = main(["verify", "--seq-file", str(workdir / "seq.json"), "--mode", "sidon", "--out", str(out)])
    assert rc == 0
    rep = read_json(out)
    assert rep["ok"] is True
    assert rep["witness_count"] == 0
    assert rep["pairs"] == 944 * 945 // 2
    assert read_json(tmp_path / "sidon.json.manifest.json")["subcommand"] == "verify"


def test_verify_decompose(workdir, tmp_path):
    out = tmp_path / "dec.json"
    rc = main(
        [
            "verify",
            "--seq-file",
            str(workdir / "seq.json"),
            "--mode",
            "decompose",
            "--trials",
            "200",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rep = read_json(out)
    assert rep["samples"] == 200
    assert rep["ok"] is True and rep["failure_count"] == 0


def corrupted_y_table(monkeypatch, change):
    """Make the decompose check use a y-table with entries changed by
    change(list of entries) in place."""
    real = cli.build_y_table

    def build(aux):
        table = real(aux)
        entries = list(table.entries)
        change(entries)
        return YTable(table.p, tuple(entries))

    monkeypatch.setattr(cli, "build_y_table", build)


def expected_decompose_failures(params, samples):
    """The m of samples that fail the decompose check, in sample order,
    written out per sample: the peel loop, then every digit range, the
    admissibility of y by the bits of A+A+A and the re-encode."""
    q, p = params.q.q, params.aux.p
    table = cli.build_y_table(params.aux)
    bits = triple_sumset_bits(set(params.aux.A))
    top = q**120
    weights = digit_weights(params, 40)
    levels = next(k for k in range(1, 13) if weights[2 * k] >= top)
    rng = random.Random(f"decompose-verify|{params.seed}".encode())
    out = []
    for _ in range(samples):
        m = rng.randint(3, top)
        cur, power, digits = m, q, []
        while cur > 6 * p * power:
            x = cur % (power - 1)
            cur = (cur - x) // (power - 1)
            y = table.entries[cur % p]
            cur = (cur - y) // p
            digits += [(x, y, power - 1)]
            power *= q * q
        k = len(digits)
        ok = k < levels and 3 <= cur <= 6 * p * q ** (2 * k + 1)
        for x, y, radix in digits:
            ok = ok and 0 <= x < radix and 2 <= y < 2 * p and all(bits >> (y - d) & 1 for d in (0, 1, 2))
        packed = sum(x * weights[2 * i] + y * weights[2 * i + 1] for i, (x, y, _) in enumerate(digits))
        if not (ok and packed + cur * weights[2 * k] == m):
            out.append(str(m))
    return out


def run_verify_decompose(workdir, out, samples):
    return main(
        ["verify", "--seq-file", str(workdir / "seq.json"), "--mode", "decompose",
         "--trials", str(samples), "--out", str(out)]
    )


@pytest.mark.parametrize("bad_y", [0, 1])
def test_verify_decompose_counts_small_y(workdir, tmp_path, monkeypatch, bad_y):
    # y < 2 has no y - 2 in A+A+A: a counted failure, not an error. In
    # residue class bad_y itself the peel still re-encodes, so only the
    # admissibility check can catch it
    def change(entries):
        entries[bad_y] = bad_y

    corrupted_y_table(monkeypatch, change)
    out = tmp_path / "dec.json"
    assert run_verify_decompose(workdir, out, 2000) == 1
    rep = read_json(out)
    assert rep["ok"] is False and rep["failure_count"] > 0
    params = seq_from_json(read_json(workdir / "seq.json")).params
    expected = expected_decompose_failures(params, 2000)
    assert rep["failure_count"] == len(expected)
    assert rep["failures"] == expected[:100]


def swap_admissible(entries):
    # residue classes 3 and 4 trade their (admissible) y digits, so
    # samples that meet either class no longer re-encode
    entries[3], entries[4] = entries[4], entries[3]


def test_verify_decompose_reports_failures(workdir, tmp_path, monkeypatch):
    corrupted_y_table(monkeypatch, swap_admissible)
    out = tmp_path / "dec.json"
    assert run_verify_decompose(workdir, out, 4000) == 1
    rep = read_json(out)
    params = seq_from_json(read_json(workdir / "seq.json")).params
    expected = expected_decompose_failures(params, 4000)
    assert len(expected) > 100
    assert rep["failure_count"] == len(expected)
    assert rep["failures"] == expected[:100]
    assert rep["ok"] is False
    manifest = read_json(tmp_path / "dec.json.manifest.json")
    assert manifest["warnings"] == [f"{len(expected)} decomposition failures"]


def test_verify_decompose_block_size_invariant(workdir, tmp_path, monkeypatch):
    corrupted_y_table(monkeypatch, swap_admissible)
    texts = []
    for block in (None, 1, 7):
        if block is not None:
            monkeypatch.setattr(cli, "_DECOMPOSE_BLOCK", block)
        out = tmp_path / f"dec{block}.json"
        assert run_verify_decompose(workdir, out, 300) == 1
        texts.append(out.read_text().replace(out.name, "dec.json"))
    assert texts[1] == texts[0] and texts[2] == texts[0]
    assert read_json(tmp_path / "decNone.json")["failure_count"] > 0


def test_coverage_csv_matches_str_join(workdir, tmp_path, monkeypatch):
    # the coverage rows joined with str, as the writer formatted them row
    # by row, against the file's text byte for byte; the window's real
    # frequencies are all 0.0, so the report is given frequencies of
    # other shapes (1/3, 1e-05, 1.0) on its way to the writer
    seq = seq_from_json(read_json(workdir / "seq.json"))
    window = (3 * seq.values[0], 30)
    shapes = (1 / 3, 1e-05, 1.0, 0.0, 0.5)
    reports = []

    def reshaped(*args, **kwargs):
        rep = monte_carlo_coverage(*args, **kwargs)
        reports.append(dataclasses.replace(rep, frequencies=shapes * 6))
        return reports[-1]

    monkeypatch.setattr(cli, "monte_carlo_coverage", reshaped)
    out = tmp_path / "cov.csv"
    spec = f"{window[0]}:{window[1]}"
    argv = ["verify", "--seq-file", str(workdir / "seq.json"), "--mode", "coverage"]
    assert main(argv + ["--window", spec, "--trials", "3", "--out", str(out)]) == 0
    lines = [",".join(str(x) for x in row) + "\n" for row in reports[0].rows()]
    assert len(lines) == 30 and lines[1].endswith(",1e-05\n")
    assert out.read_text() == "# manifest: cov.csv.manifest.json\nm,count,frequency\n" + "".join(lines)


def test_verify_coverage_csv(workdir, tmp_path):
    out = tmp_path / "cov.csv"
    rc = main(
        [
            "verify",
            "--seq-file",
            str(workdir / "seq.json"),
            "--mode",
            "coverage",
            "--window",
            "20",
            "--trials",
            "2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "# manifest: cov.csv.manifest.json"
    assert lines[1] == "m,count,frequency"
    assert len(lines) == 22
    for line in lines[2:]:
        m, count, freq = line.split(",")
        assert 0 <= int(count) <= 2
        assert 0.0 <= float(freq) <= 1.0
    manifest = read_json(tmp_path / "cov.csv.manifest.json")
    assert any("uncovered" in w for w in manifest["warnings"])


@pytest.mark.parametrize("mode", ["coverage", "decompose", "sidon"])
def test_verify_rejects_negative_trials(workdir, tmp_path, capsys, mode):
    out = tmp_path / "out"
    argv = ["verify", "--seq-file", str(workdir / "seq.json"), "--mode", mode, "--trials", "-3"]
    assert main(argv + ["--window", "20", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --trials must be >= 0")
    assert not out.exists()


def test_verify_zero_trials(workdir, tmp_path):
    seq = str(workdir / "seq.json")
    out = tmp_path / "dec.json"
    assert main(["verify", "--seq-file", seq, "--mode", "decompose", "--trials", "0", "--out", str(out)]) == 0
    assert read_json(out)["samples"] == 0 and read_json(out)["ok"] is True
    out = tmp_path / "cov.csv"
    argv = ["verify", "--seq-file", seq, "--mode", "coverage", "--window", "20", "--trials", "0"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 20 and all(row.endswith(",0.0") for row in rows)


def plant_collision(src, dst):
    """Copy the desk sequence file src to dst with a true collision at
    level 4, where margin (c) fails (16 < 16). Two pairs of level-4
    entries, (a, b) and (c, d), whose e digits sum to the same vector
    have logs that agree mod every g_i with equal carries, so f_a f_b =
    f_c f_d mod G_4. c takes the r and s digits of a, d those of b, and
    both n are re-encoded, so n_a + n_b = n_c + n_d and every digit is
    one a build could write. The pairs are the first class, in the order
    of the key of the e-sums mod R_i (builder._e_key), whose two pairs
    have equal e-sums."""
    obj = read_json(src)
    seq = seq_from_json(obj)
    level = seq.levels[-1]
    orders = np.array([gen.order for gen in seq.moduli.generators[: level.k]])
    left, right = np.triu_indices(len(level), 1)
    sums = level.e[left] + level.e[right]
    key = _e_key((sums % orders).T, seq.moduli.e_weights)
    order = np.argsort(key, kind="stable")
    u, v = order[:-1], order[1:]
    at = np.flatnonzero((key[u] == key[v]) & (sums[u] == sums[v]).all(axis=1))[0]
    weights = digit_weights(seq.params)
    for donor, taker in ((left[u[at]], left[v[at]]), (right[u[at]], right[v[at]])):
        r, s = level.r[donor].tolist(), level.s[donor]
        n = _pack(weights, level.e[taker].tolist(), r, s)
        obj["entries"][level.positions[taker]].update(r=r, s=str(s), n=str(n))
    obj["entries"].sort(key=lambda ent: int(ent["n"]))
    dst.write_text(json.dumps(obj))
    return dst


@pytest.fixture(scope="module")
def colliding_seq(workdir):
    """The desk seq.json with a planted collision (plant_collision)."""
    return plant_collision(workdir / "seq.json", workdir / "colliding.json")


def test_verify_sidon_reports_a_planted_collision(colliding_seq, tmp_path):
    out = tmp_path / "sidon.json"
    assert main(["verify", "--seq-file", str(colliding_seq), "--mode", "sidon", "--out", str(out)]) == 1
    rep = read_json(out)
    assert rep["ok"] is False and rep["witness_count"] == 1
    w = rep["witnesses"][0]
    assert int(w["n1"]) + int(w["n2"]) == int(w["n3"]) + int(w["n4"])
    # the true cause: congruent products mod G_4, and margin (c) at k = 4
    assert w["products_congruent"] is True and w["shared_levels"] == 4
    assert w["failed_margin"] == "k=4: degrees (6, 8), max 8: (b) 8 < 16 pass; (c) 16 < 16 fail"


def test_verify_sidon_refuses_above_candidate_limit(colliding_seq, tmp_path, capsys, monkeypatch):
    # the two pairs of the planted collision are candidates; a limit of
    # one refuses the run once the buckets are scanned, before any witness
    from sidonbasis import analyzer

    monkeypatch.setattr(analyzer, "_CANDIDATE_LIMIT", 1)
    out = tmp_path / "sidon.json"
    assert main(["verify", "--seq-file", str(colliding_seq), "--mode", "sidon", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 944 values have at least 2 candidate pairs") and "limit of 1" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["seq.json", "colliding.json"])
def test_verify_sidon_bytes_under_a_small_bucket_budget(workdir, colliding_seq, tmp_path, monkeypatch, name):
    # 446,040 pair sums in one bucket, or in buckets of at most 1,024
    from sidonbasis import analyzer

    one, many = tmp_path / "one" / "sidon.json", tmp_path / "many" / "sidon.json"
    one.parent.mkdir(), many.parent.mkdir()
    argv = ["verify", "--seq-file", str(workdir / name), "--mode", "sidon", "--out"]
    rc = main(argv + [str(one)])
    monkeypatch.setattr(analyzer, "_BUCKET_PAIRS", 1024)
    assert main(argv + [str(many)]) == rc
    assert one.read_bytes() == many.read_bytes()


def built_seq(workdir, qv, k_min, k_max, seed=0):
    """The sequence file of a build at q = qv, levels k_min..k_max, built
    once per module."""
    path = workdir / f"seq-q{qv}-k{k_min}-{k_max}-s{seed}.json"
    if not path.exists():
        argv = ["build", "--q", str(qv), "--aux-file", str(workdir / "aux.json"), "--seed", str(seed)]
        argv += ["--k-min", str(k_min), "--k-max", str(k_max), "--out", str(path)]
        assert main(argv) == 0
    return path


def verify_sidon_file(seq, out):
    """(exit code, report, manifest) of verify --mode sidon on seq."""
    rc = main(["verify", "--seq-file", str(seq), "--mode", "sidon", "--out", str(out)])
    return rc, read_json(out), read_json(f"{out}.manifest.json")


@pytest.mark.parametrize(
    "qv, k, seed", [(3, 2, 0), (3, 3, 0), (5, 3, 0), (7, 3, 0), (13, 3, 0), (11, 3, 0), (11, 3, 1), (11, 3, 2)]
)
def test_sidon_certificate_agrees_with_the_engine(workdir, tmp_path, monkeypatch, qv, k, seed):
    # one-level builds whose level passes the sharpened pair margin: the
    # certificate holds, the engine finds no witness, and sidon.json has
    # the same bytes either way
    seq = built_seq(workdir, qv, k, k, seed)
    (tmp_path / "engine").mkdir()
    rc, rep, manifest = verify_sidon_file(seq, tmp_path / "sidon.json")
    assert rc == 0 and rep["ok"] and manifest["sidon_path"] == "certificate"
    degree = 2 if k == 2 else 4
    assert manifest["certificate"] == {
        "level": k,
        "degrees": [degree],
        "margin": "(c') one degree 2: 4 <= 4" if k == 2 else "(c) 8 < 9",
    }
    monkeypatch.setattr(cli, "sidon_certificate", lambda seq: None)
    rc, rep, manifest = verify_sidon_file(seq, tmp_path / "engine" / "sidon.json")
    assert rc == 0 and rep["witness_count"] == 0 and manifest["sidon_path"] == "engine"
    assert "certificate" not in manifest
    assert (tmp_path / "sidon.json").read_bytes() == (tmp_path / "engine" / "sidon.json").read_bytes()


def test_verify_refuses_an_r_digit_outside_a(workdir, tmp_path, capsys):
    # a one-level q = 3, k = 3 file whose level passes (c), with one r_1
    # moved outside A and n re-encoded: the certificate would take r
    # inside A on trust, so the loader refuses the file and names the entry
    obj = read_json(built_seq(workdir, 3, 3, 3))
    seq = seq_from_json(obj)
    ent = seq.entries[9]
    r = [max(seq.params.aux.A) + 1, *ent.r[1:]]
    obj["entries"][9].update(r=r, n=str(_pack(digit_weights(seq.params), ent.e, r, ent.s)))
    bad = tmp_path / "outside.json"
    bad.write_text(json.dumps(obj))
    out = tmp_path / "sidon.json"
    assert main(["verify", "--seq-file", str(bad), "--mode", "sidon", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: entry 9: r digits outside A\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "levels",
    [
        (3, 4),  # the desk build: two levels, and k = 4 fails the margin
        (4, 4),  # one level, degrees 6 and 8: 16 < 16 fails
        (2, 3),  # two levels that each pass the sharpened margin
    ],
    ids=["desk", "k4", "k2-3"],
)
def test_sidon_certificate_declines_other_builds(workdir, tmp_path, levels):
    seq = workdir / "seq.json" if levels == (3, 4) else built_seq(workdir, 3, *levels)
    rc, rep, manifest = verify_sidon_file(seq, tmp_path / "sidon.json")
    assert rc == 0 and rep["ok"] and manifest["sidon_path"] == "engine"


def test_verify_coverage_requires_window(workdir, capsys):
    rc = main(["verify", "--seq-file", str(workdir / "seq.json"), "--mode", "coverage", "--out", "-"])
    assert rc == 2
    assert "--window" in capsys.readouterr().err


def test_verify_coverage_window_outside_range(workdir, capsys):
    rc = main(
        [
            "verify",
            "--seq-file",
            str(workdir / "seq.json"),
            "--mode",
            "coverage",
            "--window",
            "5:10",
            "--out",
            "-",
        ]
    )
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def empty_seq(workdir):
    """A build whose only level has no even degree in its window."""
    seq = workdir / "empty.json"
    argv = ["build", "--q", "3", "--aux-file", str(workdir / "aux.json"), "--c", "1/100"]
    assert main(argv + ["--k-min", "3", "--k-max", "3", "--out", str(seq)]) == 0
    assert read_json(seq)["entries"] == []
    return seq


@pytest.mark.parametrize("window", ["200", "0:10"])
def test_verify_coverage_empty_sequence(empty_seq, tmp_path, capsys, window):
    out = tmp_path / "cov.csv"
    argv = ["verify", "--seq-file", str(empty_seq), "--mode", "coverage", "--window", window]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sequence is empty" in err
    assert not out.exists()


def test_verify_rejects_malformed_seq(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--seq-file", str(bad), "--mode", "sidon", "--out", "-"]) == 2
    missing_keys = tmp_path / "empty.json"
    missing_keys.write_text("{}")
    assert main(["verify", "--seq-file", str(missing_keys), "--mode", "sidon", "--out", "-"]) == 2
    assert main(["verify", "--seq-file", str(tmp_path / "nope.json"), "--mode", "sidon", "--out", "-"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("entries", 0, "f"), 123, "entry 0: f must be a string, got 123"),
        (("entries", 0, "f"), None, "entry 0: f must be a string"),
        (("entries", 0, "f"), ["x"], "entry 0: f must be a string"),
        (("entries", 0, "e"), None, "entry 0: e must be a list"),
        (("entries", 0, "k"), None, "entry 0: k must be an integer"),
        (("params", "seed"), None, "params seed must be an integer"),
        (("params", "aux", "seed"), None, "aux seed must be an integer"),
        (("entries",), 5, "entries must be a list"),
        (("moduli",), [1], "moduli entry must be an object"),
        (("params", "c"), "1/0", "c = '1/0' is not a fraction"),
        (("params", "aux", "A"), [*default_aux().A, 7], "aux A meets A+A+{0,1}"),
        (("warnings",), [7, {"x": 1}, None], "warnings entry 0 must be a string, got 7"),
    ],
    ids=["f-int", "f-null", "f-list", "e-null", "k-null", "seed-null", "aux-seed-null", "entries-int",
         "moduli-int", "c-zero-denominator", "aux-A-plus-7", "warnings-entries"],
)
def test_verify_rejects_mistyped_field(workdir, tmp_path, capsys, path, value, message):
    # each of these once escaped main as a TypeError, AttributeError or
    # ZeroDivisionError traceback (exit 1), or was accepted (A with 7 = 3 + 4,
    # warnings that are not strings)
    obj = read_json(workdir / "seq.json")
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", "--seq-file", str(bad), "--mode", "sidon", "--out", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "path, message",
    [
        (("entries", 5, "k"), "entry 5: missing field 'k'"),
        (("entries", 5, "f"), "entry 5: missing field 'f'"),
        (("params",), "sequence file: missing field 'params'"),
        (("params", "seed"), "params: missing field 'seed'"),
        (("params", "aux", "p"), "aux: missing field 'p'"),
        (("moduli", 1, "g"), "moduli entry 1: missing field 'g'"),
        (("entries",), "sequence file: missing field 'entries'"),
        (("aux-file", "A"), "aux: missing field 'A'"),
        (("aux-file", "window_start"), "aux: missing field 'window_start'"),
    ],
    ids=["entry-k", "entry-f", "params", "params-seed", "aux-p", "moduli-g", "entries", "aux-file-A",
         "aux-file-window-start"],
)
def test_missing_field_is_named_with_its_place(workdir, tmp_path, capsys, path, message):
    # a missing field once surfaced as a bare KeyError, "error: 'k'"
    source = "aux.json" if path[0] == "aux-file" else "seq.json"
    obj = read_json(workdir / source)
    target = obj
    for key in path[1:-1] if path[0] == "aux-file" else path[:-1]:
        target = target[key]
    del target[path[-1]]
    bad = tmp_path / source
    bad.write_text(json.dumps(obj))
    if path[0] == "aux-file":
        argv = ["build", "--q", "3", "--aux-file", str(bad), "--out", str(tmp_path / "out.json")]
    else:
        argv = ["verify", "--seq-file", str(bad), "--mode", "sidon", "--out", str(tmp_path / "out.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.json").exists()


def test_verify_rejects_tampered_value(workdir, tmp_path, capsys):
    obj = read_json(workdir / "seq.json")
    obj["entries"][7]["n"] = str(int(obj["entries"][7]["n"]) + 1)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", "--seq-file", str(bad), "--mode", "sidon", "--out", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: entry 7: n does not re-encode")


@pytest.mark.parametrize("field", ["s", "n"])
def test_verify_names_entry_and_field_of_non_decimal(workdir, tmp_path, capsys, field):
    # a string that int() does not read once surfaced as int()'s own
    # message, which names neither the entry nor the field
    obj = read_json(workdir / "seq.json")
    obj["entries"][3][field] = "1e5"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", "--seq-file", str(bad), "--mode", "sidon", "--out", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: entry 3: {field} must be a decimal integer, got '1e5'")


@pytest.mark.parametrize("field", ["s", "n"])
def test_verify_refuses_decimals_int_reads_otherwise(workdir, tmp_path, capsys, field):
    # int() reads a sign, spaces, "_" separators and Arabic-Indic digits,
    # so files with s or n so written once loaded equal to the original
    obj = read_json(workdir / "seq.json")
    text = obj["entries"][3][field]
    bad = tmp_path / "bad.json"
    for spelt in (f" +{'_'.join(text)} ", text.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"))):
        assert int(spelt) == int(text)
        obj["entries"][3][field] = spelt
        bad.write_text(json.dumps(obj))
        assert main(["verify", "--seq-file", str(bad), "--mode", "sidon", "--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: entry 3: {field} must be a decimal integer, got {spelt!r}")


def test_verify_rejects_s_outside_its_range(workdir, tmp_path, capsys):
    # s = q^{3k} + 1 with n re-encoded, so only the range check fires
    seq = seq_from_json(read_json(workdir / "seq.json"))
    obj = read_json(workdir / "seq.json")
    ent = seq.entries[7]
    s = seq.params.q.q ** (3 * ent.k) + 1
    obj["entries"][7].update(s=str(s), n=str(_pack(digit_weights(seq.params), ent.e, ent.r, s)))
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", "--seq-file", str(bad), "--mode", "sidon", "--out", "-"]) == 2
    assert capsys.readouterr().err.startswith("error: entry 7: s outside [1, q^(3k)]")


@pytest.mark.parametrize("field", ["omega", "g", "e"])
def test_verify_rejects_foreign_moduli_and_logs(workdir, tmp_path, capsys, field):
    obj = read_json(workdir / "seq.json")
    if field == "e":
        # e_1 and n changed together, so n still re-encodes (W_0 = 1)
        ent = obj["entries"][7]
        ent["n"] = str(int(ent["n"]) + 1 - 2 * ent["e"][0])
        ent["e"][0] = 1 - ent["e"][0]
    else:
        obj["moduli"][1][field] = {"omega": "2+t^2", "g": "2+t+t^3"}[field]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", "--seq-file", str(bad), "--mode", "sidon", "--out", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: entry 7: e digits" if field == "e" else "error: moduli differ")


@pytest.mark.parametrize("fault", ["reducible", "repeat"])
def test_verify_rejects_non_members(workdir, tmp_path, capsys, fault):
    seq = seq_from_json(read_json(workdir / "seq.json"))
    obj = read_json(workdir / "seq.json")
    weights = digit_weights(seq.params)
    ent = seq.entries[7]
    if fault == "reducible":
        f = Poly(seq.params.q, (2, 2, 0, 2, 1))  # (quadratic)(quadratic) over F_3
        e = level_e_digits(seq.moduli.generators[: ent.k], [f])[0].tolist()
    else:
        f, e = seq.entries[5].f, list(seq.entries[5].e)
        assert seq.entries[5].k == ent.k
    obj["entries"][7].update(f=str(f), e=e, n=str(_pack(weights, e, ent.r, ent.s)))
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", "--seq-file", str(bad), "--mode", "sidon", "--out", "-"]) == 2
    err = capsys.readouterr().err
    expected = "f is not a monic irreducible" if fault == "reducible" else "f repeats entry 5"
    assert err.startswith("error: entry 7: " + expected)


def test_equidist_files(tmp_path):
    out = tmp_path / "eq.csv"
    rc = main(["equidist", "--q", "3", "--d", "3", "--g", "1+t^2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "# manifest: eq.csv.manifest.json"
    assert lines[1] == "a,count,expected,deviation,normalized_ratio"
    assert len(lines) == 10  # 8 unit classes
    summary = read_json(tmp_path / "eq.csv.summary.json")
    assert summary["ok"] is True and summary["conservation_ok"] is True
    assert summary["binom"] == 56
    assert summary["manifest"] == "eq.csv.manifest.json"
    manifest = read_json(tmp_path / "eq.csv.manifest.json")
    assert manifest["summary"]["binom"] == 56


def test_equidist_stdout_mode(tmp_path, capsys):
    rc = main(["equidist", "--q", "3", "--d", "3", "--g", "1+t^2", "--out", "-"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("a,count,")
    assert json.loads(captured.err)["binom"] == 56
    # the file's text without its manifest line, byte for byte
    out = tmp_path / "eq.csv"
    assert main(["equidist", "--q", "3", "--d", "3", "--g", "1+t^2", "--out", str(out)]) == 0
    head, text = out.read_text().split("\n", 1)
    assert head == "# manifest: eq.csv.manifest.json"
    assert captured.out == text


def run_into_fifo(tmp_path, argv):
    """main(argv) with --out a named pipe in tmp_path that a thread
    drains; (exit code, text read from the pipe)."""
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    rc = main([*argv, "--out", str(fifo)])
    reader.join(10)
    assert not reader.is_alive(), "the run never opened the pipe"
    return rc, "".join(got)


@pytest.mark.parametrize(
    "argv",
    [
        ["find-aux", "--p-min", "300", "--p-max", "320"],
        ["equidist", "--q", "3", "--d", "3", "--g", "1+t^2"],
    ],
    ids=["find-aux", "equidist"],
)
def test_non_regular_out_gets_no_sidecar(tmp_path, capsys, argv):
    # the manifest and summary sidecars go next to regular files only: a
    # pipe or a device has no directory of its own to write them into
    rc, text = run_into_fifo(tmp_path, argv)
    assert rc == 0
    assert os.listdir(tmp_path) == ["out.fifo"]
    assert text and "manifest" not in text
    if argv[0] == "equidist":
        assert json.loads(capsys.readouterr().err)["binom"] == 56


def test_equidist_alarm_threshold(tmp_path, capsys):
    out = tmp_path / "eq.csv"
    rc = main(
        ["equidist", "--q", "3", "--d", "3", "--g", "1+t^2", "--threshold", "0.001", "--out", str(out)]
    )
    assert rc == 1
    assert read_json(tmp_path / "eq.csv.summary.json")["ok"] is False


def test_equidist_rejects_bad_modulus(capsys):
    assert main(["equidist", "--q", "3", "--d", "3", "--g", "t^2", "--out", "-"]) == 2
    assert main(["equidist", "--q", "3", "--d", "13", "--g", "1+t^2", "--out", "-"]) == 2  # 3^13 > ENUM_CAP
    capsys.readouterr()


class Overtime(Exception):
    """Raised by time_limit; main lets it through, as no exit code maps it."""


@contextlib.contextmanager
def time_limit(seconds):
    """Raise Overtime in the block once it has run for `seconds`, so that
    a hostile input without its cap fails the test instead of hanging it."""

    def expire(signum, frame):
        raise Overtime(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# the Mersenne prime 2^89 - 1: a trial division of it to its square root
# would never end
HUGE_Q = 2**89 - 1


def hostile_seq(workdir, tmp_path, edit):
    obj = read_json(workdir / "seq.json")
    edit(obj)
    bad = tmp_path / "hostile.json"
    bad.write_text(json.dumps(obj))
    return ["verify", "--seq-file", str(bad), "--mode", "sidon"]


def spread_aux(p, size):
    """An aux block for p whose A spreads size elements over [1, p/2), just
    enough of them to pass the C(|A|+2, 3) >= p + 2 pre-check, so that only
    the sumsets can refuse it."""
    step = (p // 2 - 2) // size
    return {"p": p, "A": [1 + step * i for i in range(size)], "seed": 0, "attempt": 0, "window_start": 0}


@pytest.mark.parametrize(
    "case, message",
    [
        ("build-q", f"modulus {HUGE_Q} outside [2, ENUM_CAP = 1048576]"),
        ("equidist-q", f"modulus {HUGE_Q} outside [2, ENUM_CAP = 1048576]"),
        ("seq-q", f"modulus {HUGE_Q} outside [2, ENUM_CAP = 1048576]"),
        ("aux-p", "aux p = 100000007 exceeds AUX_P_CAP = 65536"),
        ("seq-aux-p", "aux p = 100000007 exceeds AUX_P_CAP = 65536"),
        ("seq-f", "exponent 99999999 in term 't^99999999' exceeds EXPONENT_CAP = 64"),
    ],
    ids=["build-q", "equidist-q", "seq-q", "aux-p", "seq-aux-p", "seq-f"],
)
def test_hostile_input_exits_2_within_a_second(workdir, tmp_path, capsys, case, message):
    # without the caps: q is trial-divided for ever, A+A+A for p near 10^8
    # takes 42 s, and "t^99999999" builds a 10^8-long coefficient tuple
    # (22 s and 1.7 GB in verify) before anything rejects them
    aux = tmp_path / "aux.json"
    aux.write_text(json.dumps(spread_aux(100_000_007, 843)))
    argv = {
        "build-q": lambda: ["build", "--q", str(HUGE_Q), "--aux-file", str(workdir / "aux.json")],
        "equidist-q": lambda: ["equidist", "--q", str(HUGE_Q), "--d", "3", "--g", "1+t^2"],
        "seq-q": lambda: hostile_seq(workdir, tmp_path, lambda obj: obj["params"].update(q=HUGE_Q)),
        "aux-p": lambda: ["build", "--q", "3", "--aux-file", str(aux)],
        "seq-aux-p": lambda: hostile_seq(workdir, tmp_path, lambda obj: obj["params"].update(aux=read_json(aux))),
        "seq-f": lambda: hostile_seq(workdir, tmp_path, lambda obj: obj["entries"][7].update(f="t^99999999")),
    }[case]()
    out = tmp_path / "out"
    with time_limit(1.0):
        assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_find_aux_walks_primes_lazily(workdir, tmp_path):
    # the search stops at the first prime that works, 307, instead of
    # listing every prime up to --p-max first
    (tmp_path / "far").mkdir()
    (tmp_path / "near").mkdir()
    far, near = tmp_path / "far" / "aux.json", tmp_path / "near" / "aux.json"
    with time_limit(1.0):
        assert main(["find-aux", "--p-min", "2", "--p-max", str(10**12), "--out", str(far)]) == 0
    assert main(["find-aux", "--p-min", "2", "--p-max", "1000", "--out", str(near)]) == 0
    assert far.read_bytes() == near.read_bytes()


def test_find_aux_refuses_p_min_above_the_cap(tmp_path, capsys):
    out = tmp_path / "aux.json"
    with time_limit(1.0):
        assert main(["find-aux", "--p-min", str(2**16 + 1), "--p-max", str(10**12), "--out", str(out)]) == 2
    assert "below AUX_P_CAP = 65536" in capsys.readouterr().err
    assert not out.exists()


def _raise_runtime(args):
    raise RuntimeError("orbit did not close")


def _raise_assertion(args):
    raise AssertionError("ordered triple counts not divisible by 6")


def _raise_memory(args):
    raise MemoryError()


@pytest.mark.parametrize(
    "raiser, name",
    [(_raise_runtime, "RuntimeError"), (_raise_assertion, "AssertionError"), (_raise_memory, "MemoryError")],
)
def test_internal_error_exit_code(monkeypatch, capsys, raiser, name):
    monkeypatch.setattr(cli, "cmd_equidist", raiser)
    rc = main(["equidist", "--q", "3", "--d", "3", "--g", "1+t^2", "--out", "-"])
    assert rc == EXIT_INTERNAL_ERROR
    assert EXIT_INTERNAL_ERROR not in (0, 1, 2)
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}") and "Traceback" not in err


def test_decompose_report(workdir, tmp_path):
    # the whole report, byte for byte, against the written-out peel: m = 3
    # stays whole (k = 0), 6 p q + 1 is the least m that peels one level,
    # and 3^200 + 7 needs more digit weights than the default k_max gives
    aux = aux_from_json(read_json(workdir / "aux.json"))
    params, table = Params(q=PrimeModulus(3), aux=aux), build_y_table(aux)
    ks = []
    for m in (3, 6 * aux.p * 3 + 1, 3**90 + 12345, 3**200 + 7):
        out = tmp_path / "d.json"
        rc = main(["decompose", "--m", str(m), "--q", "3", "--aux-file", str(workdir / "aux.json"), "--out", str(out)])
        assert rc == 0
        xs, ys, z = peel(m, params, table)
        expected = {
            "m": str(m),
            "k": len(xs),
            "x": [str(x) for x in xs],
            "y": ys,
            "z": str(z),
            "re_encodes": True,
            "manifest": "d.json.manifest.json",
        }
        assert out.read_text() == json.dumps(expected, indent=2) + "\n"
        rep = read_json(out)
        assert type(rep["k"]) is int and all(type(y) is int for y in rep["y"])
        assert all(type(x) is str for x in rep["x"]) and type(rep["z"]) is str
        ks.append(rep["k"])
    assert ks[:2] == [0, 1] and 2 * ks[3] + 1 > len(digit_weights(params))


def test_decompose_rejects_small_m(workdir, capsys):
    rc = main(["decompose", "--m", "2", "--q", "3", "--aux-file", str(workdir / "aux.json"), "--out", "-"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_import_loads_no_process_pool():
    # only a coverage run with more than one worker imports the process
    # pool, which loads multiprocessing, logging, socket and subprocess
    code = "import sys, sidonbasis.cli; print(sorted({m.split('.')[0] for m in sys.modules} & {'concurrent', 'multiprocessing'}))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def fresh_run_hash_modules(argv):
    """The hash modules (hashlib, _hashlib) loaded after cli.main(argv)
    runs in a fresh interpreter."""
    code = (
        "import sys; from sidonbasis import cli; "
        f"assert cli.main({argv!r}) == 0; "
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_find_aux_and_equidist_load_no_openssl(tmp_path):
    # hashlib loads OpenSSL (about 3.5 MB resident) and is imported only
    # inside the functions that hash, so find-aux and equidist runs load
    # neither module, while build, which hashes its digit seeds, loads
    # hashlib
    eq = ["equidist", "--q", "3", "--d", "3", "--g", "1+t^2", "--out", str(tmp_path / "eq.csv")]
    assert fresh_run_hash_modules(eq).strip() == "[]"
    aux = ["find-aux", "--p-min", "300", "--p-max", "320", "--out", str(tmp_path / "aux.json")]
    assert fresh_run_hash_modules(aux).strip() == "[]"
    build = ["build", "--q", "3", "--aux-file", str(tmp_path / "aux.json"), "--k-max", "3"]
    build += ["--out", str(tmp_path / "seq.json")]
    loaded = ["_hashlib", "hashlib"] if importlib.util.find_spec("_hashlib") else ["hashlib"]
    assert fresh_run_hash_modules(build).strip() == repr(loaded)


def test_threads_flag_does_not_change_results(workdir, tmp_path):
    args = [
        "verify",
        "--seq-file",
        str(workdir / "seq.json"),
        "--mode",
        "coverage",
        "--window",
        "12",
        "--trials",
        "2",
    ]
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(["--threads", "2"] + args + ["--out", str(b)]) == 0
    assert main(["--threads", "1"] + args + ["--out", str(c)]) == 0
    strip = lambda p: [ln for ln in p.read_text().splitlines() if not ln.startswith("#")]
    assert strip(a) == strip(b) == strip(c)
    assert read_json(tmp_path / "c.csv.manifest.json")["parameters"]["threads"] == 1


def usage_error(capsys, argv):
    """The stderr of main(argv), which must stop at the parser with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_refused(workdir, tmp_path, capsys, threads):
    out = tmp_path / "cov.csv"
    argv = ["--threads", threads, "verify", "--seq-file", str(workdir / "seq.json"), "--mode", "coverage"]
    err = usage_error(capsys, argv + ["--window", "12", "--trials", "2", "--out", str(out)])
    assert f"argument --threads: must be > 0, got '{threads}'" in err
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["nan", "0", "-1", "abc"])
def test_equidist_refuses_threshold_at_or_below_zero(tmp_path, capsys, threshold):
    # nan or a threshold <= 0 would make every run an alarm
    out = tmp_path / "eq.csv"
    argv = ["equidist", "--q", "3", "--d", "3", "--g", "1+t^2", "--threshold", threshold, "--out", str(out)]
    assert "argument --threshold: " in usage_error(capsys, argv)
    assert list(tmp_path.iterdir()) == []


def test_decompose_names_a_non_integer_m(workdir, tmp_path, capsys):
    out = tmp_path / "d.json"
    argv = ["decompose", "--m", "abc", "--q", "3", "--aux-file", str(workdir / "aux.json"), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --m: invalid literal for int() with base 10: 'abc'\n"
    assert not out.exists()


@pytest.mark.parametrize("window, text", [("abc", "abc"), ("5:x", "x"), ("y:5", "y")])
def test_verify_names_a_non_integer_window(workdir, tmp_path, capsys, window, text):
    out = tmp_path / "cov.csv"
    argv = ["verify", "--seq-file", str(workdir / "seq.json"), "--mode", "coverage", "--window", window]
    assert main(argv + ["--trials", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --window: invalid literal for int() with base 10: '{text}'\n"
    assert not out.exists()


def test_one_parser_serves_many_calls(workdir, tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    # a flag given in one call leaves nothing behind for the next
    cov = ["verify", "--seq-file", str(workdir / "seq.json"), "--mode", "coverage", "--window", "12", "--trials", "1"]
    assert main(["--threads", "2", *cov, "--out", str(tmp_path / "a.csv")]) == 0
    assert main([*cov, "--out", str(tmp_path / "b.csv")]) == 0
    assert read_json(tmp_path / "a.csv.manifest.json")["parameters"]["threads"] == 2
    assert read_json(tmp_path / "b.csv.manifest.json")["parameters"]["threads"] == 1
    # nor does a usage error: the next run writes what a fresh
    # interpreter's first run writes
    eq = ["equidist", "--q", "3", "--d", "3", "--g", "1+t^2", "--out", "-"]
    usage_error(capsys, [*eq, "--threshold", "nan"])
    assert main(eq) == 0
    here = capsys.readouterr()
    code = f"import sys; from sidonbasis import cli; sys.exit(cli.main({eq!r}))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    fresh = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert here.out and (here.out, here.err) == (fresh.stdout, fresh.stderr)
