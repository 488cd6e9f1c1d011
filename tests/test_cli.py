"""End-to-end command line checks via cli.run (no subprocesses)."""

import csv
import json
import math

import numpy as np
import pytest

from regsing import cli, geometry


FLAT = {"diagonal": ["t^2", "t^2", "1 + t^2"], "dim_p": 2}
SPHERE = {"diagonal": ["sin(t)^2", "sin(t)^2"], "dim_p": 2}


def write_cfg(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = [[float(x) for x in row] for row in rows[1:]]
    return header, data


def test_solve_harmonic_csv(tmp_path):
    cfg = write_cfg(tmp_path, "h.json",
                    {"metric": FLAT, "v": 0.8, "t_end": 2.0, "samples": 8})
    out = tmp_path / "h.csv"
    rc = cli.run(["solve-harmonic", "--config", cfg, "--out", str(out),
                  "--quiet"])
    assert rc == 0
    header, data = read_csv(out)
    assert header == ["t", "r", "r_dot", "residual"]
    assert len(data) == 8
    for t, r, rdot, res in data:
        # this family transports any slope linearly: r = 0.8 t
        assert r == pytest.approx(0.8 * t, abs=1e-9)
        assert rdot == pytest.approx(0.8, abs=1e-8)
        assert abs(res) < 1e-8
    assert data[-1][0] == pytest.approx(2.0)


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, "h.json",
                    {"metric": SPHERE, "v": 0.6, "t_end": 1.2, "samples": 5})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.run(["solve-harmonic", "--config", cfg, "--out", str(out1),
                    "--quiet"]) == 0
    assert cli.run(["solve-harmonic", "--config", cfg, "--out", str(out2),
                    "--quiet"]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b"\r" not in b1          # LF endings regardless of platform


def test_summary_sidecar_and_config_roundtrip(tmp_path):
    cfg_obj = {"metric": FLAT, "v": 0.5, "t_end": 1.0, "samples": 4}
    cfg = write_cfg(tmp_path, "h.json", cfg_obj)
    out = tmp_path / "run.csv"
    assert cli.run(["solve-harmonic", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
    summary = json.loads((tmp_path / "run.summary.json").read_text())
    assert summary["command"] == "solve-harmonic"
    assert summary["config"] == cfg_obj
    assert summary["effective"]["tol"] == 1e-10
    assert summary["admissibility"]["verdict"] is True
    assert summary["residual_max"] < 1e-8
    assert summary["diagnostics"]["steps_accepted"] > 0

    # echoed config reproduces the run byte for byte
    cfg2 = write_cfg(tmp_path, "echo.json", summary["config"])
    out2 = tmp_path / "rerun.csv"
    assert cli.run(["solve-harmonic", "--config", cfg2, "--out", str(out2),
                    "--quiet"]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_tol_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, "h.json",
                    {"metric": FLAT, "v": 0.5, "t_end": 1.0, "tol": 1e-6,
                     "samples": 3})
    out = tmp_path / "run.csv"
    assert cli.run(["solve-harmonic", "--config", cfg, "--out", str(out),
                    "--tol", "1e-8", "--quiet"]) == 0
    summary = json.loads((tmp_path / "run.summary.json").read_text())
    assert summary["effective"]["tol"] == 1e-8


def test_harmonic_sweep(tmp_path):
    cfg = write_cfg(tmp_path, "s.json",
                    {"metric": FLAT, "v": "0:2:5", "t_end": 2.0})
    out = tmp_path / "sweep.csv"
    assert cli.run(["solve-harmonic", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
    header, data = read_csv(out)
    assert header == ["v", "r_T", "r_dot_T", "max_residual", "dr_T_dv"]
    vs = [row[0] for row in data]
    assert vs == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    for v, r_T, rdot_T, res, slope in data:
        assert r_T == pytest.approx(2.0 * v, abs=1e-8)
        assert slope == pytest.approx(2.0, abs=1e-7)
        assert res < 1e-8


def test_sphere_identity_profile(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "id.json",
                    {"metric": SPHERE, "v": 1.0, "t_end": 1.5, "samples": 6})
    rc = cli.run(["solve-harmonic", "--config", cfg])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "t,r,r_dot,residual"
    for line in lines[1:]:
        t, r, *_ = (float(x) for x in line.split(","))
        assert r == pytest.approx(t, abs=1e-8)
    assert "handoff" in captured.err      # progress note without --quiet


def test_quiet_silences_stderr(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "id.json",
                    {"metric": SPHERE, "v": 1.0, "t_end": 1.0, "samples": 2})
    assert cli.run(["solve-harmonic", "--config", cfg, "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_solve_biharmonic_csv(tmp_path):
    cfg = write_cfg(tmp_path, "b.json",
                    {"metric": {"diagonal": ["t^2", "t^2", "t^2"],
                                "dim_p": 3},
                     "v": 1.0, "w": 0.5, "t_end": 1.0, "samples": 4})
    out = tmp_path / "b.csv"
    assert cli.run(["solve-biharmonic", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
    header, data = read_csv(out)
    assert header == ["t", "r", "r_dot", "F", "F_dot", "res_def", "res_eq"]
    for t, r, rdot, F, Fdot, res_r, res_f in data:
        # closed family: r = t + 0.5 t^3/12, F = 0.5 t
        assert r == pytest.approx(t + 0.5 * t ** 3 / 12, abs=1e-9)
        assert F == pytest.approx(0.5 * t, abs=1e-9)
        assert abs(res_r) < 1e-7 and abs(res_f) < 1e-7
    assert data[-1][2] == pytest.approx(1.125, abs=1e-8)


def test_biharmonic_sidecar_residual_max_covers_both_columns(tmp_path):
    cfg = write_cfg(tmp_path, "b.json",
                    {"metric": SPHERE, "v": 0.9, "w": 0.0, "t_end": 1.2,
                     "samples": 12, "tol": 1e-8})
    out = tmp_path / "b.csv"
    assert cli.run(["solve-biharmonic", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
    _, data = read_csv(out)
    summary = json.loads((tmp_path / "b.summary.json").read_text())
    # w = 0 makes F vanish, so res_eq is exactly 0 and the largest entry
    # sits in the res_def column
    res_def = max(abs(row[-2]) for row in data)
    assert res_def > max(abs(row[-1]) for row in data)
    assert summary["residual_max"] == res_def


def test_sidecar_residual_max_shows_a_nan_entry(tmp_path, monkeypatch):
    # planted fault: one residual sample (not the first) reads nan
    real, calls = geometry.HarmonicSolution.residual, []

    def planted(self, t):
        calls.append(t)
        return math.nan if len(calls) == 3 else real(self, t)

    monkeypatch.setattr(geometry.HarmonicSolution, "residual", planted)
    cfg = write_cfg(tmp_path, "h.json",
                    {"metric": SPHERE, "v": 0.6, "t_end": 1.2, "samples": 6})
    out = tmp_path / "h.csv"
    assert cli.run(["solve-harmonic", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
    assert len(calls) == 6
    summary = json.loads((tmp_path / "h.summary.json").read_text())
    assert math.isnan(summary["residual_max"])


def test_biharmonic_grid(tmp_path):
    cfg = write_cfg(tmp_path, "g.json",
                    {"metric": {"diagonal": ["t^2", "t^2", "t^2"],
                                "dim_p": 3},
                     "v": "0.5:1.5:3", "w": 0.6, "t_end": 1.0})
    out = tmp_path / "g.csv"
    assert cli.run(["solve-biharmonic", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
    header, data = read_csv(out)
    assert header == ["v", "w", "r_T", "r_dot_T", "F_T", "F_dot_T",
                      "max_residual", "dr_T_dv"]
    assert [row[0] for row in data] == pytest.approx([0.5, 1.0, 1.5])
    for v, w, r_T, rdot_T, F_T, Fdot_T, res, slope in data:
        assert w == 0.6
        assert r_T == pytest.approx(v + 0.6 / 12, abs=1e-8)
        assert F_T == pytest.approx(0.6, abs=1e-8)
        assert slope == pytest.approx(1.0, abs=1e-7)


def test_solve_singular_csv(tmp_path):
    cfg = write_cfg(tmp_path, "aff.json",
                    {"C": [[0.0, 1.0], [0.0, -3.0]],
                     "S": [["0", "0"], ["t", "0"]],
                     "g": ["0", "sin(t)"],
                     "y0": [0.0, 0.0], "t_end": 1.0, "samples": 2})
    out = tmp_path / "aff.csv"
    assert cli.run(["solve-singular", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
    header, data = read_csv(out)
    assert header == ["t", "y1", "y2", "residual"]
    t, y1, y2, res = data[-1]
    assert t == pytest.approx(1.0)
    # frozen endpoint of this system at tol 1e-10
    assert y1 == pytest.approx(0.097728288237128327, abs=1e-9)
    assert y2 == pytest.approx(0.19112968359445531, abs=1e-9)
    assert abs(res) < 1e-8


def test_singular_sidecar_reports_the_step_controller(tmp_path):
    cfg = write_cfg(tmp_path, "aff.json",
                    {"C": [[0.0, 1.0], [0.0, -3.0]],
                     "S": [["0", "0"], ["t", "0"]],
                     "g": ["0", "sin(t)"],
                     "y0": [0.0, 0.0], "t_end": 1.0, "samples": 2})
    out = tmp_path / "aff.csv"
    assert cli.run(["solve-singular", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
    d = json.loads((tmp_path / "aff.summary.json").read_text())["diagnostics"]
    assert d["steps_defect_rejected"] >= 1
    assert d["steps_rejected"] >= d["steps_defect_rejected"]
    assert 0.0 <= d["handoff_residual"] < 1e-10
    assert 0.0 < d["max_residual"] <= 100 * 1e-10


def test_monodromy_nilpotent(tmp_path):
    cfg = write_cfg(tmp_path, "m.json",
                    {"A": [["0", "t"], ["0", "1"]], "rho": 2.0, "sigma": 1.0})
    out = tmp_path / "m.json.out"
    assert cli.run(["monodromy", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    M = rep["matrix"]
    # closed form [[1, -2 pi i], [0, 1]]
    assert M[0][0] == pytest.approx([1.0, 0.0], abs=1e-8)
    assert M[0][1][0] == pytest.approx(0.0, abs=1e-8)
    assert M[0][1][1] == pytest.approx(-2 * math.pi, abs=1e-8)
    assert M[1][1] == pytest.approx([1.0, 0.0], abs=1e-8)
    assert rep["sigma"] == 1.0
    assert rep["path_steps"] > 0
    # charpoly of a double eigenvalue 1: (x - 1)^2
    np.testing.assert_allclose(
        np.asarray(rep["charpoly"], dtype=float)[:, 0], [1.0, -2.0, 1.0],
        atol=1e-8)


def test_monodromy_sigma_list(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "m.json",
                    {"A": [["0.5", "0"], ["0", "1"]], "rho": 3.0,
                     "sigma": [0.0, 1.0]})
    assert cli.run(["monodromy", "--config", cfg]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert isinstance(reports, list) and len(reports) == 2
    # diagonal exponents (1/2, 1): generator diag(-1, 1)
    assert reports[0]["matrix"][0][0] == pytest.approx([-1.0, 0.0], abs=1e-9)
    assert reports[1]["matrix"][1][1] == pytest.approx([1.0, 0.0], abs=1e-8)


def test_fundamental_json(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "f.json",
                    {"A": [["1"]], "rho": 100.0,
                     "z0": [0.0, 0.0], "z1": [1.0, 0.0]})
    assert cli.run(["fundamental", "--config", cfg]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["matrix"][0][0] == pytest.approx([math.exp(-1.0), 0.0],
                                                abs=1e-9)
    assert rep["condition"] == pytest.approx(1.0, rel=1e-9)


def test_check_metric_good(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"metric": SPHERE})
    assert cli.run(["check", "--config", cfg]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kind"] == "metric"
    assert rep["verdict"] is True
    assert rep["structure_ok"] is True
    assert rep["pole_ok"] is True


def test_check_metric_bad_pole_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {"metric": {"diagonal": ["t^2", "t"], "dim_p": 2}})
    assert cli.run(["check", "--config", cfg]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] is False
    assert rep["pole_ok"] is False


def test_check_singular_resonance_exits_2(tmp_path, capsys):
    # Jacobian 1 at the pole: stage h = 1 is not solvable
    cfg = write_cfg(tmp_path, "w.json",
                    {"C": [[1.0]], "g": ["-1"], "y0": [0.0], "t_end": 1.0})
    assert cli.run(["check", "--config", cfg]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["kind"] == "singular"
    assert rep["offending_h"] == [1]
    assert rep["verdict"] is False


def test_solve_rejected_writes_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "w.json",
                    {"C": [[1.0]], "g": ["-1"], "y0": [0.0], "t_end": 1.0})
    out = tmp_path / "w.csv"
    assert cli.run(["solve-singular", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 2
    assert not out.exists()
    rep = json.loads((tmp_path / "w.summary.json").read_text())
    assert rep["offending_h"] == [1]
    assert "rejected" in capsys.readouterr().err


def test_exit_code_config_errors(tmp_path):
    # unknown key
    cfg = write_cfg(tmp_path, "bad.json",
                    {"metric": FLAT, "v": 1.0, "t_end": 1.0, "vmax": 2.0})
    assert cli.run(["solve-harmonic", "--config", cfg, "--quiet"]) == 3
    # malformed JSON
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert cli.run(["solve-harmonic", "--config", str(broken)]) == 3
    # missing file
    assert cli.run(["solve-harmonic", "--config",
                    str(tmp_path / "nope.json")]) == 3
    # unparseable expression in the metric
    cfg = write_cfg(tmp_path, "expr.json",
                    {"metric": {"diagonal": ["sin(t", "1"], "dim_p": 1},
                     "v": 1.0, "t_end": 1.0})
    assert cli.run(["solve-harmonic", "--config", cfg, "--quiet"]) == 3
    # sweep string with a bad count
    cfg = write_cfg(tmp_path, "sw.json",
                    {"metric": FLAT, "v": "0:1:0", "t_end": 1.0})
    assert cli.run(["solve-harmonic", "--config", cfg, "--quiet"]) == 3


def test_exit_code_numerical_failure(tmp_path):
    # log(t - 2) cannot be expanded at the pole
    cfg = write_cfg(tmp_path, "n.json",
                    {"C": [[-1.0]], "g": ["log(t - 2)"], "y0": [0.0],
                     "t_end": 1.0})
    assert cli.run(["solve-singular", "--config", cfg, "--quiet"]) == 4


def test_usage_error_is_systemexit():
    with pytest.raises(SystemExit) as ei:
        cli.run([])
    assert ei.value.code == 2
    with pytest.raises(SystemExit):
        cli.run(["solve-harmonic"])      # --config is required


@pytest.mark.parametrize("v", ["1:1:3", "nan:1:3", "0:inf:3", math.nan,
                               "-1.7e308:1.7e308:3"])
def test_sweep_rejects_empty_and_non_finite_ranges(tmp_path, capsys, v):
    # an empty range has no slope, a non-finite one no solution
    cfg = write_cfg(tmp_path, "sw.json", {"metric": FLAT, "v": v,
                                          "t_end": 1.0})
    assert cli.run(["solve-harmonic", "--config", cfg, "--quiet"]) == 3
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("monodromy", "--order"),
                                           ("fundamental", "--order"),
                                           ("check", "--tol")])
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, command,
                                                        flag):
    cfg = write_cfg(tmp_path, "c.json", {"metric": SPHERE})
    with pytest.raises(SystemExit) as ei:
        cli.run([command, "--config", cfg, flag, "5", "--quiet"])
    assert ei.value.code == 2
    # the flag each command reads is still offered
    kept = "--order" if flag == "--tol" else "--tol"
    args = cli._build_parser().parse_args(
        [command, "--config", cfg, kept, "5", "--quiet"])
    assert getattr(args, kept[2:]) == 5
