"""End-to-end CLI tests: exit codes, manifests, determinism, formats."""

import json
import random

import pytest

from sidonbasis import cli
from sidonbasis.auxset import YTable, triple_sumset_bits
from sidonbasis.builder import _pack, digit_weights, level_e_digits, mixed_radix, seq_from_json
from sidonbasis.cli import EXIT_INTERNAL_ERROR, main
from sidonbasis.ffpoly import Poly


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
    rc = main(
        ["find-aux", "--p-min", "11", "--p-max", "13", "--attempts", "0", "--out", str(tmp_path / "x.json")]
    )
    assert rc == 1
    assert "no auxiliary set" in capsys.readouterr().err
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
    weights = mixed_radix(params).weights(40)
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


def test_verify_sidon_refuses_above_pair_limit(workdir, tmp_path, capsys, monkeypatch):
    from sidonbasis import analyzer

    monkeypatch.setattr(analyzer, "SIDON_PAIR_LIMIT", 1000)
    out = tmp_path / "sidon.json"
    assert main(["verify", "--seq-file", str(workdir / "seq.json"), "--mode", "sidon", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 944 values have 446,040 pair sums") and "3,568,320 bytes" in err
    assert not out.exists()


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


def test_verify_rejects_tampered_value(workdir, tmp_path, capsys):
    obj = read_json(workdir / "seq.json")
    obj["entries"][7]["n"] = str(int(obj["entries"][7]["n"]) + 1)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", "--seq-file", str(bad), "--mode", "sidon", "--out", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: entry 7: n does not re-encode")


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


def test_equidist_stdout_mode(capsys):
    rc = main(["equidist", "--q", "3", "--d", "3", "--g", "1+t^2", "--out", "-"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("a,count,")
    assert json.loads(captured.err)["binom"] == 56


def test_equidist_alarm_threshold(tmp_path, capsys):
    out = tmp_path / "eq.csv"
    rc = main(
        ["equidist", "--q", "3", "--d", "3", "--g", "1+t^2", "--threshold", "0.001", "--out", str(out)]
    )
    assert rc == 1
    assert read_json(tmp_path / "eq.csv.summary.json")["ok"] is False


def test_equidist_rejects_bad_modulus(capsys):
    assert main(["equidist", "--q", "3", "--d", "3", "--g", "t^2", "--out", "-"]) == 2
    assert main(["equidist", "--q", "3", "--d", "8", "--g", "1+t^2", "--cap", "5", "--out", "-"]) == 2
    capsys.readouterr()


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
    out = tmp_path / "d.json"
    m = str(3**90 + 12345)
    rc = main(["decompose", "--m", m, "--q", "3", "--aux-file", str(workdir / "aux.json"), "--out", str(out)])
    assert rc == 0
    rep = read_json(out)
    assert rep["m"] == m
    assert rep["re_encodes"] is True
    assert rep["k"] == len(rep["x"]) == len(rep["y"])
    assert int(rep["z"]) >= 3


def test_decompose_rejects_small_m(workdir, capsys):
    rc = main(["decompose", "--m", "2", "--q", "3", "--aux-file", str(workdir / "aux.json"), "--out", "-"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


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
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(["--threads", "2"] + args + ["--out", str(b)]) == 0
    strip = lambda p: [ln for ln in p.read_text().splitlines() if not ln.startswith("#")]
    assert strip(a) == strip(b)
