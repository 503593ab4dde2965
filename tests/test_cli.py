import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pellel import cli, forms
from pellel.domain import Domain, build_grid
from pellel.forms import ComplexForm


def write_cfg(tmp_path, **kw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(kw))
    return str(path)


def test_run_pipeline_mode(tmp_path, capsys):
    cfg = write_cfg(tmp_path,
                    mode="pipeline",
                    domain={"kind": "ball", "radius": 1.0, "dim": 2},
                    weight={"kind": "abs2"},
                    form={"preset": "i_dz_dzbar"},
                    h=1 / 16,
                    out=str(tmp_path / "out"))
    code = cli.main(["run", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert all(c["passed"] for c in report["checks"])
    with open(tmp_path / "out" / "table.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == cli.CSV_COLUMNS
    assert rows[0]["mode"] == "pipeline"


def test_run_verify_mode(tmp_path):
    cfg = write_cfg(tmp_path, mode="verify", verify_suite="dalpha",
                    seed=7, out=str(tmp_path / "out"))
    code = cli.main(["run", "--config", cfg])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["detail"]["dalpha_max_deviation"] <= 1e-10


@pytest.mark.parametrize("bad", [
    {"h": 0.0}, {"h": "0.125"}, {"h": True}, {"margin": "0"}, {"tol": None},
    {"slack": [0.15]}, {"h_values": [0.125, "0.0625"]}, {"h_values": 0.125},
    {"h_values": [False]}, {"maxiter": 10.5}, {"maxiter": True}, {"seed": "0"},
    {"seed": 1.0},
    {"mode": "verify", "verify_suite": "dalpah"},
    {"mode": "dbar", "form": {"preset": "dzbar"}, "dump_forms": "yes"},
    {"mode": "converge", "h_values": []},
    {"domain": {"kind": "ball", "radius": "1"}},
    {"domain": {"kind": "ball", "radus": 1.0}},
    {"domain": "ball"},
    {"domain": {"kind": "ball", "dim": 4, "center": [0.0, 0.0]}},
    {"domain": {"kind": "ellipsoid"}},
    {"weight": {"kind": "quadratic"}},
    {"weight": {"kind": "quadratic", "matrix": [[1.0, 0.0], [0.0]]}},
    {"weight": {"kind": "quadratic", "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                                [0.0, 0.0, 1.0]]}},
    {"form": "i_dz_dzbar"},
    {"form": {"table": 5}},
    {"mode": "pipeline", "form": {"preset": "dx1_dx2"}},
    {"mode": "poincare", "form": {"preset": "dzbar"}},
], ids=["h_zero", "h_string", "h_bool", "margin_string", "tol_null", "slack_list",
        "h_values_string_entry", "h_values_not_list", "h_values_bool_entry",
        "maxiter_float", "maxiter_bool", "seed_string", "seed_float",
        "verify_suite_unknown", "dump_forms_string", "h_values_empty",
        "radius_string", "domain_field_unknown", "domain_string",
        "ball_center_dim_mismatch", "ellipsoid_no_axes", "quadratic_no_matrix",
        "quadratic_ragged", "quadratic_wrong_dim", "form_string", "form_table_number",
        "pipeline_real_form", "poincare_complex_form"])
def test_invalid_config_exits_nonzero(tmp_path, capsys, bad):
    cfg = write_cfg(tmp_path, **{"mode": "pipeline", "out": str(tmp_path / "out"), **bad})
    code = cli.main(["run", "--config", cfg])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("h, code", [(1 / 8, 0), (1 / 16, 2), (1 / 4, 2)],
                         ids=["same_grid", "finer_grid", "coarser_grid"])
def test_form_table_from_another_grid(tmp_path, capsys, h, code):
    g = ComplexForm.zeros(build_grid(Domain.ball(1.0), 1 / 8), (0, 1))
    g.coeffs[0] = 1.0
    forms.to_csv(g, tmp_path / "g.csv")
    cfg = write_cfg(tmp_path, mode="dbar", form={"table": str(tmp_path / "g.csv")},
                    h=h, out=str(tmp_path / "out"))
    assert cli.main(["run", "--config", cfg]) == code
    assert ("configuration error" in capsys.readouterr().err) == (code == 2)


def test_unknown_config_field_rejected(tmp_path):
    cfg = write_cfg(tmp_path, mode="pipeline", nonsense=1)
    assert cli.main(["run", "--config", cfg]) == 2


def test_flag_overrides(tmp_path):
    cfg = write_cfg(tmp_path, mode="poincare",
                    form={"preset": "dx1_dx2"},
                    h=1 / 8, out=str(tmp_path / "a"))
    code = cli.main(["run", "--config", cfg, "--h", str(1 / 16),
                     "--out", str(tmp_path / "b")])
    assert code == 0
    report = json.loads((tmp_path / "b" / "report.json").read_text())
    assert report["config"]["h"] == 1 / 16


def test_converge_mode_csv(tmp_path):
    cfg = write_cfg(tmp_path, mode="converge", converge_mode="poincare",
                    form={"preset": "dx1_dx2"},
                    h_values=[1 / 8, 1 / 16], out=str(tmp_path / "out"))
    code = cli.main(["run", "--config", cfg])
    assert code == 0
    with open(tmp_path / "out" / "table.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["order"] == ""
    assert rows[1]["order"] != ""
    assert [r["h"] for r in rows] == [str(1 / 8), str(1 / 16)]


def test_deterministic_report(tmp_path):
    kw = dict(mode="dbar", form={"preset": "dzbar"}, h=1 / 16, seed=3)
    cfg1 = write_cfg(tmp_path, out=str(tmp_path / "r1"), **kw)
    cli.main(["run", "--config", cfg1])
    cfg2 = write_cfg(tmp_path, out=str(tmp_path / "r2"), **kw)
    cli.main(["run", "--config", cfg2])
    r1 = json.loads((tmp_path / "r1" / "report.json").read_text())
    r2 = json.loads((tmp_path / "r2" / "report.json").read_text())
    for r in (r1, r2):
        r.pop("wall_time_s")
        r["config"].pop("out")
    assert r1 == r2


def test_dump_forms(tmp_path):
    cfg = write_cfg(tmp_path, mode="dbar", form={"preset": "dzbar"},
                    h=1 / 8, dump_forms=True, out=str(tmp_path / "out"))
    assert cli.main(["run", "--config", cfg]) == 0
    assert (tmp_path / "out" / "forms" / "solution.csv").exists()


def test_missing_config_file(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_import_loads_no_scipy():
    # scipy's import time and memory would show in every pellel run
    # (about 0.25 s and 22 MB); only the tests use it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, pellel, pellel.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
