import csv
import json
import math
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


# phi = |x|^2 is about 900 on this disk, so exp(-phi) underflows to 0 there
FAR_DISK = {"kind": "ball", "radius": 1.0, "center": [30.0, 0.0]}


@pytest.mark.parametrize("bad", [
    {"h": 0.0}, {"h": "0.125"}, {"h": True}, {"margin": "0"}, {"tol": None},
    {"slack": [0.15]}, {"h_values": [0.125, "0.0625"]}, {"h_values": 0.125},
    {"h_values": [False]}, {"maxiter": 10.5}, {"maxiter": True}, {"maxiter": 0},
    {"maxiter": -3}, {"seed": "0"}, {"seed": 1.0},
    {"mode": "verify", "verify_suite": "dalpha", "seed": -1},
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
    {"mode": "verify", "domain": {"kind": "ball", "dim": 4}, "verify_suite": "boundary"},
    {"h": 5.0},
    {"margin": 5.0},
    {"mode": "verify", "verify_suite": "bochner", "domain": FAR_DISK},
    {"mode": "verify", "verify_suite": "basic", "domain": FAR_DISK},
    {"h": float("nan")}, {"h_values": [float("nan")]}, {"slack": float("nan")},
    {"tol": float("nan")},
    {"h": 1e-300}, {"h": 1e-12},
    {"domain": {"kind": "ball", "radius": 1e300}},
    {"domain": {"kind": "ball", "radius": 1e-200}},
    {"domain": {"kind": "ball", "radius": float("inf")}},
    {"out": 5},
    {"weight": {"kind": "zero"}},
    {"form": {"preset": "i_dz_dbar"}},
    {"mode": "verify", "form": {"preset": "nonsense"}},
    {"domain": {"kind": "ball", "radius": 1e-160}},
    {"mode": "pipeline", "converge_mode": "nonsense"},
    {"mode": "verify", "verify_suite": "dalpha", "converge_mode": 3},
    {"mode": "verify", "verify_suite": "dalpha", "margin": -1},
    {"mode": "verify", "verify_suite": "dalpha",
     "weight": {"kind": "quadratic", "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                                [0.0, 0.0, 1.0]]}},
    '{"mode": "pipeline", "h": 0.0625',
    {"mode": "verify", "verify_suite": "dalpha", "h": 1e-300},
    {"mode": "verify", "verify_suite": "dalpha", "form": {"table": "missing.csv"}},
], ids=["h_zero", "h_string", "h_bool", "margin_string", "tol_null", "slack_list",
        "h_values_string_entry", "h_values_not_list", "h_values_bool_entry",
        "maxiter_float", "maxiter_bool", "maxiter_zero", "maxiter_negative",
        "seed_string", "seed_float", "seed_negative",
        "verify_suite_unknown", "dump_forms_string", "h_values_empty",
        "radius_string", "domain_field_unknown", "domain_string",
        "ball_center_dim_mismatch", "ellipsoid_no_axes", "quadratic_no_matrix",
        "quadratic_ragged", "quadratic_wrong_dim", "form_string", "form_table_number",
        "pipeline_real_form", "poincare_complex_form", "boundary_suite_dim4",
        "h_no_interior", "margin_no_interior", "bochner_weight_underflows",
        "basic_weight_underflows", "h_nan", "h_values_nan", "slack_nan", "tol_nan",
        "h_tiny", "h_1e-12", "radius_huge", "radius_tiny", "radius_inf", "out_number",
        "pipeline_zero_weight", "preset_unknown", "preset_unknown_verify",
        "radius_subnormal_square", "converge_mode_unknown_pipeline",
        "converge_mode_number_verify", "margin_negative_verify_dalpha",
        "quadratic_wrong_dim_verify_dalpha", "config_truncated_json",
        "h_tiny_verify_dalpha", "form_table_missing_verify_dalpha"])
def test_invalid_config_exits_nonzero(tmp_path, capsys, bad):
    # a string is the text of the config file
    if isinstance(bad, str):
        (tmp_path / "cfg.json").write_text(bad)
        cfg = str(tmp_path / "cfg.json")
    else:
        cfg = write_cfg(tmp_path, **{"mode": "pipeline", "out": str(tmp_path / "out"), **bad})
    code = cli.main(["run", "--config", cfg])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("kw", [
    {"mode": "pipeline", "domain": {"kind": "ellipsoid", "semi_axes": [1.0, 0.6]}},
    {"mode": "pipeline", "weight": {"kind": "quadratic", "matrix": [[1.0, 0.3], [0.3, 2.0]]}},
    {"mode": "poincare", "form": {"preset": "d_x1x2"}},
    {"mode": "dbar", "form": {"preset": "2zbar_dzbar"}},
    {"mode": "dbar", "domain": {"dim": 4}, "form": {"preset": "dzbar"}, "h": 1 / 4},
    {"mode": "dbar", "domain": {"dim": 4}, "form": {"preset": "2zbar_dzbar"}, "h": 1 / 4},
], ids=["ellipsoid", "quadratic_weight", "d_x1x2", "2zbar_dzbar", "dzbar_dim4",
        "2zbar_dzbar_dim4"])
def test_config_kinds_run(tmp_path, kw):
    cfg = write_cfg(tmp_path, **{"h": 1 / 16, "out": str(tmp_path / "out"), **kw})
    assert cli.main(["run", "--config", cfg]) == 0


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_config_runs(tmp_path):
    readme = README.read_text()
    example = readme.split("Example configuration:")[1].split("```json")[1].split("```")[0]
    cfg = write_cfg(tmp_path, **{**json.loads(example), "out": str(tmp_path / "out")})
    assert cli.main(["run", "--config", cfg]) == 0


def test_readme_names_every_config_field():
    section = README.read_text().split("\n## CLI\n")[1].split("\n## ")[0]
    assert [name for name in cli.CONFIG_FIELDS if f"`{name}`" not in section] == []


@pytest.mark.parametrize("suite", ["dalpha", "boundary"])
def test_unweighted_verify_suites_pass_where_the_weight_underflows(tmp_path, suite):
    cfg = write_cfg(tmp_path, mode="verify", verify_suite=suite, domain=FAR_DISK,
                    out=str(tmp_path / "out"))
    assert cli.main(["run", "--config", cfg]) == 0


def test_centred_disk_verify_report(tmp_path):
    # the values before the verify integrals took forms.weighted_sum, which
    # keeps the order of their sums
    cfg = write_cfg(tmp_path, mode="verify", verify_suite="all", out=str(tmp_path / "out"))
    assert cli.main(["run", "--config", cfg]) == 0
    detail = json.loads((tmp_path / "out" / "report.json").read_text())["detail"]
    assert detail["bochner"] == pytest.approx(
        {"lhs": 4.170466396841386, "rhs": 4.166508727323446,
         "deviation": 0.003957669517939522}, rel=1e-12)
    assert detail["basic_estimate"]["margin"] == pytest.approx(3.6619648574136923, rel=1e-12)


def test_ellipse_verify_report(tmp_path):
    # an off-centre ellipse and a non-diagonal weight, so that the boundary
    # rule's map and weights enter every sum
    cfg = write_cfg(tmp_path, mode="verify", verify_suite="all", h=1 / 64,
                    domain={"kind": "ellipsoid", "semi_axes": [1.0, 0.6], "center": [0.1, -0.2]},
                    weight={"kind": "quadratic", "matrix": [[1.0, 0.3], [0.3, 2.0]]},
                    out=str(tmp_path / "out"))
    assert cli.main(["run", "--config", cfg]) == 0
    detail = json.loads((tmp_path / "out" / "report.json").read_text())["detail"]
    assert detail["bochner"] == pytest.approx(
        {"lhs": 0.8257054842434912, "rhs": 0.825713212028954,
         "deviation": 7.727785462763315e-06}, rel=1e-12)
    assert detail["basic_estimate"] == pytest.approx(
        {"margin": 0.7714886294043949, "reference": 0.054216854839096315}, rel=1e-12)


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    # it once escaped main as a ValueError from np.random.default_rng
    cfg = write_cfg(tmp_path, mode="verify", verify_suite="dalpha", out=str(tmp_path / "out"))
    assert cli.main(["run", "--config", cfg, "--seed", "-1"]) == 2
    assert "configuration error: seed" in capsys.readouterr().err


def test_nan_h_flag_exits_2(tmp_path, capsys):
    # it once escaped main as a ValueError from build_grid
    cfg = write_cfg(tmp_path, mode="pipeline", out=str(tmp_path / "out"))
    assert cli.main(["run", "--config", cfg, "--h", "nan"]) == 2
    assert "configuration error: h" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[]", "null", '"x"'], ids=["list", "null", "string"])
def test_config_not_an_object_exits_2(tmp_path, capsys, text):
    (tmp_path / "cfg.json").write_text(text)
    # a string was once read as a list of unknown field names
    assert cli.main(["run", "--config", str(tmp_path / "cfg.json")]) == 2
    assert "configuration error: config must be a JSON object" in capsys.readouterr().err


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


def test_empty_form_table_exits_2(tmp_path, capsys):
    # an empty file once escaped main as a StopIteration from the header read
    (tmp_path / "empty.csv").write_text("")
    cfg = write_cfg(tmp_path, form={"table": str(tmp_path / "empty.csv"), "degree": 2},
                    out=str(tmp_path / "out"))
    assert cli.main(["run", "--config", cfg]) == 2
    assert "configuration error" in capsys.readouterr().err


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


@pytest.mark.parametrize("h_values", [[1 / 8, 1 / 12], [1 / 8, 1 / 8]], ids=["ratio_1.5", "repeat"])
def test_converge_order_follows_the_spacings(tmp_path, h_values):
    cfg = write_cfg(tmp_path, mode="converge", h_values=h_values, out=str(tmp_path / "out"))
    assert cli.main(["run", "--config", cfg]) == 0
    with open(tmp_path / "out" / "table.csv") as fh:
        rows = list(csv.DictReader(fh))
    r0, r1 = (float(r["residual"]) for r in rows)
    assert rows[0]["order"] == ""
    if h_values[0] == h_values[1]:
        assert rows[1]["order"] == ""
    else:
        assert float(rows[1]["order"]) == pytest.approx(math.log(r0 / r1) / math.log(1.5),
                                                        rel=1e-12)


def test_deterministic_report(tmp_path):
    kw = dict(mode="dbar", form={"preset": "dzbar"}, h=1 / 16, seed=3)
    cfg1 = write_cfg(tmp_path, out=str(tmp_path / "r1"), **kw)
    cli.main(["run", "--config", cfg1])
    cfg2 = write_cfg(tmp_path, out=str(tmp_path / "r2"), **kw)
    cli.main(["run", "--config", cfg2])
    r1 = json.loads((tmp_path / "r1" / "report.json").read_text())
    r2 = json.loads((tmp_path / "r2" / "report.json").read_text())
    for r in (r1, r2):
        # the wall times of the run and of its solve differ between runs
        r.pop("wall_time_s")
        r["detail"].pop("seconds")
        r["config"].pop("out")
    assert r1 == r2


def test_dump_forms(tmp_path):
    cfg = write_cfg(tmp_path, mode="dbar", form={"preset": "dzbar"},
                    h=1 / 8, dump_forms=True, out=str(tmp_path / "out"))
    assert cli.main(["run", "--config", cfg]) == 0
    assert (tmp_path / "out" / "forms" / "solution.csv").exists()


def test_missing_config_file(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_configs_share_no_default_spec():
    first = cli.load_config(None, {})
    first.domain["radius"] = 2.0
    assert cli.load_config(None, {}).domain["radius"] == 1.0


def test_error_writing_the_results_propagates(tmp_path, monkeypatch):
    # it is no configuration error: it once exited 2 as one
    def lost(path, report):
        raise FileNotFoundError(path)

    monkeypatch.setattr(cli, "_write_report", lost)
    cfg = write_cfg(tmp_path, mode="verify", verify_suite="dalpha", out=str(tmp_path / "out"))
    with pytest.raises(FileNotFoundError):
        cli.main(["run", "--config", cfg])


@pytest.mark.parametrize("case", ["config_directory", "config_binary", "table_directory",
                                  "table_binary", "out_under_file"])
def test_unreadable_input_exits_2(tmp_path, capsys, case):
    # each once escaped main as an OSError or UnicodeDecodeError (exit 1)
    binary = tmp_path / "binary"
    binary.write_bytes(bytes(range(128, 256)))
    (tmp_path / "file").write_text("")
    fields = {"mode": "dbar", "form": {"preset": "dzbar"}, "h": 1 / 8,
              "out": str(tmp_path / "out")}
    fields.update({"table_directory": {"form": {"table": str(tmp_path)}},
                   "table_binary": {"form": {"table": str(binary)}},
                   "out_under_file": {"out": str(tmp_path / "file" / "out")}}.get(case, {}))
    config = {"config_directory": tmp_path, "config_binary": binary}.get(
        case, write_cfg(tmp_path, **fields))
    assert cli.main(["run", "--config", str(config)]) == 2
    assert "configuration error" in capsys.readouterr().err


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
