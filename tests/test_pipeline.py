"""scripts/run_pipeline.py end to end, with few trials and samples: on the
default desk configuration, and at q = 7 so that --q reaches the build."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_pipeline.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_pipeline", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("extra, q, levels", [
    ([], 3, (3, 4)),
    (["--q", "7", "--k-min", "3", "--k-max", "3"], 7, (3, 3)),
])
def test_run_pipeline_writes_every_output(tmp_path, capsys, extra, q, levels):
    out = tmp_path / "run"
    argv = ["--outdir", str(out), *extra, "--trials", "2", "--decompose-samples", "200"]
    assert load_script().main(argv) == 0
    assert "pipeline: all steps passed" in capsys.readouterr().out
    equidist = [f"equidist_d{d}_{g}.csv" for d in (3, 4) for g in ("1+t2", "2t+t3")]
    reports = ["aux.json", "seq.json", "sidon.json", "decompose.json", "coverage.csv", *equidist]
    for name in reports:
        assert (out / name).stat().st_size > 0, name
        assert (out / f"{name}.manifest.json").is_file(), name
    for name in equidist:
        assert (out / f"{name}.summary.json").is_file(), name
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [*reports, *(f"{n}.manifest.json" for n in reports), *(f"{n}.summary.json" for n in equidist)]
    )
    params = json.loads((out / "seq.json").read_text())["params"]
    assert params["q"] == q
    assert (params["k_min"], params["k_max"]) == levels
