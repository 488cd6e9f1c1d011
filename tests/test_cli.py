"""End-to-end command line checks via cli.run (no subprocesses)."""

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from regsing import cli, geometry, linear, rk, singular


FLAT = {"diagonal": ["t^2", "t^2", "1 + t^2"], "dim_p": 2}
SPHERE = {"diagonal": ["sin(t)^2", "sin(t)^2"], "dim_p": 2}
CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


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
    # six stages per step at least, all through the integrator's counter
    assert (summary["diagnostics"]["rhs_calls"]
            > 6 * summary["diagnostics"]["steps_accepted"])

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
    # a problem whose integration takes a defect rejection
    cfg = write_cfg(tmp_path, "aff.json",
                    {"C": [[0.0, 1.0], [0.0, -3.0]],
                     "S": [["0", "0"], ["t", "0"]],
                     "g": ["0", "sin(3*t)"],
                     "y0": [0.0, 0.0], "t_end": 2.0, "samples": 2})
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
    assert [r["path"] for r in reports] == ["generator", "series"]
    # diagonal exponents (1/2, 1): generator diag(-1, 1)
    assert reports[0]["matrix"][0][0] == pytest.approx([-1.0, 0.0], abs=1e-9)
    assert reports[1]["matrix"][1][1] == pytest.approx([1.0, 0.0], abs=1e-8)


@pytest.mark.parametrize("A, path, declined", [
    ([["0", "t"], ["0", "0.5"]], "series", None),
    ([["0", "t"], ["0", "1"]], "integrated", "resonant at h = 1"),
], ids=["series", "integrated"])
def test_linear_reports_say_which_path_ran(tmp_path, capsys, A, path,
                                          declined):
    base = {"A": A, "rho": 2.0}
    loop = write_cfg(tmp_path, "m.json", {**base, "sigma": 0.5})
    assert cli.run(["monodromy", "--config", loop]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["path"], rep["declined"]) == (path, declined)
    assert (rep["path_steps"] > 0) == (path == "integrated")
    z0 = [math.log(0.5), 0.0]
    segment = write_cfg(tmp_path, "f.json", {**base, "z0": z0,
                                             "z1": [z0[0], 2 * math.pi]})
    assert cli.run(["fundamental", "--config", segment]) == 0
    fund = json.loads(capsys.readouterr().out)
    assert (fund["path"], fund["declined"]) == (path, declined)
    assert fund["matrix"] == rep["matrix"]


def test_fundamental_json(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "f.json",
                    {"A": [["1"]], "rho": 100.0,
                     "z0": [0.0, 0.0], "z1": [1.0, 0.0]})
    assert cli.run(["fundamental", "--config", cfg]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["matrix"][0][0] == pytest.approx([math.exp(-1.0), 0.0],
                                                abs=1e-9)
    assert rep["condition"] == pytest.approx(1.0, rel=1e-9)


def test_fundamental_loop_writes_the_monodromy_matrix(tmp_path, capsys):
    # demos/configs/fundamental_loop.json transports along
    # [log 0.5, log 0.5 + 2 pi i], the loop of radius 0.5 on the log cover
    cfg = json.loads((CONFIGS / "nilpotent_monodromy.json").read_text())
    path = write_cfg(tmp_path, "m.json", {**cfg, "sigma": 0.5})
    assert cli.run(["monodromy", "--config", path]) == 0
    loop = json.loads(capsys.readouterr().out)
    assert cli.run(["fundamental", "--config",
                    str(CONFIGS / "fundamental_loop.json")]) == 0
    assert json.loads(capsys.readouterr().out)["matrix"] == loop["matrix"]


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_metric_whose_series_overflow_fails_its_structure(tmp_path,
                                                                 capsys):
    # the structure probe of the overflowed series passed, its residues nan
    # against inf, and warned on the way
    cfg = write_cfg(tmp_path, "c.json", {"metric": {
        "diagonal": ["t^2*(1+1e300*t)", "1"], "dim_p": 1}})
    assert cli.run(["check", "--config", cfg]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["series_available"] is True
    assert rep["structure_ok"] is False


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
    # analytic at the pole, but the integration reaches log(0) at t = 0.5
    # (log(t - 2), which has no expansion at the pole, is a rejection)
    cfg = write_cfg(tmp_path, "n.json",
                    {"C": [[-1.0]], "g": ["log(0.5 - t)"], "y0": [0.0],
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
                                           ("check", "--tol"),
                                           # the solver picks the order
                                           ("solve-harmonic", "--order"),
                                           ("solve-biharmonic", "--order"),
                                           ("solve-singular", "--order"),
                                           ("check", "--order")])
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, command,
                                                        flag):
    cfg = write_cfg(tmp_path, "c.json", {"metric": SPHERE})
    with pytest.raises(SystemExit) as ei:
        cli.run([command, "--config", cfg, flag, "5", "--quiet"])
    assert ei.value.code == 2
    # the flag a command reads is still offered; check reads none
    if command != "check":
        args = cli._build_parser().parse_args(
            [command, "--config", cfg, "--tol", "5", "--quiet"])
        assert args.tol == 5


# -- bad numbers end in a config error (exit 3) before any solve --------------

HUGE = 10 ** 400        # json writes it as digits; float() cannot take it
AFFINE = {"C": [[-2.0]], "g": ["1"], "y0": [0.0], "t_end": 1.0}
MONODROMY = {"A": [["0", "t"], ["0", "1"]], "rho": 2.0, "sigma": 1.0}


@pytest.fixture
def no_solve(monkeypatch):
    """Fail the test if a config reaches the integrator, the Frobenius
    series or the pole check."""
    def reached(*args, **kwargs):
        raise AssertionError("a bad config reached the solver")

    monkeypatch.setattr(rk, "integrate_adaptive", reached)
    monkeypatch.setattr(linear, "integrate_adaptive", reached)
    monkeypatch.setattr(linear, "_series_transport", reached)
    monkeypatch.setattr(singular, "check_admissibility", reached)


@pytest.mark.parametrize("command, cfg, extra", [
    ("solve-singular", AFFINE, ["--tol=-1e-8"]),     # was a TypeError
    ("solve-singular", AFFINE, ["--tol", "nan"]),    # was exit 4
    ("solve-singular", AFFINE, ["--tol", "inf"]),
    ("monodromy", MONODROMY, ["--tol", "0"]),
    ("fundamental", {"A": [["0"]], "rho": 1.0, "z0": [1.0, 0.0],
                     "z1": [2.0, 0.0]}, ["--tol", "nan"]),
    ("solve-singular", {**AFFINE, "tol": math.nan}, []),   # ran 20 s
    ("solve-singular", {**AFFINE, "t_end": math.inf}, []),  # 200 000 steps
    ("solve-singular", {**AFFINE, "t_end": HUGE}, []),     # OverflowError
    ("solve-singular", {**AFFINE, "samples": HUGE}, []),
    ("solve-singular", {**AFFINE, "y0": [HUGE]}, []),
    ("solve-singular", {**AFFINE, "C": [[math.nan]]}, []),
    ("solve-harmonic", {"metric": {**FLAT, "t_validate": HUGE}, "v": 1.0,
                        "t_end": 1.0}, []),
    ("solve-harmonic", {"metric": {**FLAT, "t_switch": math.inf},
                        "v": 1.0, "t_end": 1.0}, []),
    ("solve-harmonic", {"metric": {**FLAT, "weight": HUGE}, "v": 1.0,
                        "t_end": 1.0}, []),
    ("solve-harmonic", {"metric": FLAT, "v": HUGE, "t_end": 1.0}, []),
    ("monodromy", {**MONODROMY, "sigma": HUGE}, []),
    ("monodromy", {**MONODROMY, "sigma": [0.5, math.nan]}, []),
    ("fundamental", {"A": [["0"]], "rho": 1.0, "z0": [1.0, 0.0],
                     "z1": [HUGE, 0.0]}, []),
], ids=[
    "tol-flag-negative",
    "tol-flag-nan",
    "tol-flag-inf",
    "monodromy-tol-flag-zero",
    "fundamental-tol-flag-nan",
    "tol-nan",
    "t_end-infinity",
    "t_end-huge",
    "samples-huge",
    "y0-huge",
    "C-nan",
    "t_validate-huge",
    "t_switch-infinity",
    "weight-huge",
    "sweep-huge",
    "sigma-huge",
    "sigma-list-nan",
    "z1-huge",
])
def test_bad_numbers_are_config_errors(tmp_path, capsys, no_solve, command,
                                       cfg, extra):
    path = write_cfg(tmp_path, "bad.json", cfg)
    assert cli.run([command, "--config", path, "--quiet", *extra]) == 3
    assert "config error" in capsys.readouterr().err


OVERFLOWING_A = {"A": [["0.5", "exp(1e100*t)"], ["0", "1.5"]], "rho": 1.0}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, where", [
    ("monodromy", {**OVERFLOWING_A, "sigma": 0.5}),
    ("fundamental", {**OVERFLOWING_A, "z0": [-1.0, 0.0], "z1": [-1.0, 3.0]}),
    ("solve-harmonic", {"metric": {"diagonal": ["t^2*exp(1e100*t)", "1"],
                                   "dim_p": 1}, "v": 0.8, "t_end": 1.0}),
    ("solve-singular", {"C": [[-1.0]], "c": [1.0], "g": ["exp(1e100*t)"],
                        "y0": [1.0], "t_end": 1.0}),
    # entries whose expansions leave inf in the pack, which the structure
    # probe multiplies
    ("solve-harmonic", {"metric": {"diagonal": ["t^2*(1+1e300*t)", "1"],
                                   "dim_p": 1}, "v": 0.8, "t_end": 1.0}),
    ("solve-harmonic", {"metric": {"diagonal": ["t^2", "exp(1e100*t)"],
                                   "dim_p": 1}, "v": 0.8, "t_end": 1.0}),
    # entries whose low-order coefficients stay finite: the overflow comes
    # later, in a stage kernel or in bootstrap_series' own growth warning
    *[(command, {"metric": {"diagonal": diagonal, "dim_p": 1}, "v": 0.8,
                 "t_end": 1.0, **extra})
      for command, extra in (("solve-harmonic", {}),
                             ("solve-biharmonic", {"w": 0.5}))
      for diagonal in (["t^2*exp(1e20*t)", "1"], ["t^2*(1+1e20*t)", "1"],
                       ["t^2", "exp(1e25*t)"])],
])
def test_an_overflowing_entry_fails_numerically_under_warnings_as_errors(
        tmp_path, capsys, command, where):
    # with RuntimeWarnings as errors (the CLI tour's setting), the series
    # expansion of exp(1e100*t) (linear._expand, MetricFamily.pack, the
    # affine coefficient rows) and geometry.check_structure's probe of the
    # overflowed stacks used to stop the command with an overflow
    # traceback (exit 1); without that setting it exits 4, and a numpy
    # warning raised as an error is a numerical failure too
    path = write_cfg(tmp_path, "o.json", where)
    assert cli.run([command, "--config", path, "--quiet"]) == 4
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "solve-singular"])
def test_an_overflowing_literal_is_a_config_error(tmp_path, capsys, no_solve,
                                                  command):
    # "1e400" parsed to inf: check passed it and the solve ended in a
    # RuntimeWarning or a handoff error blaming tol
    path = write_cfg(tmp_path, "o.json", {**AFFINE, "g": ["1e400"]})
    assert cli.run([command, "--config", path, "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "config error" in err and "'1e400' overflows" in err


@pytest.mark.parametrize("command", ["check", "solve-singular"])
def test_a_constant_that_overflows_is_a_config_error(tmp_path, capsys,
                                                     no_solve, command):
    # "1e308*10" is inf: check passed it with verdict true, and the solve
    # ended in an invalid-value RuntimeWarning
    path = write_cfg(tmp_path, "o.json", {**AFFINE, "g": ["1e308*10"]})
    assert cli.run([command, "--config", path, "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "config error" in err and "'1e+308*10' evaluates to inf" in err


@pytest.mark.parametrize("command", ["solve-harmonic", "check"])
@pytest.mark.parametrize("metric", [
    {"diagonal": [["t^2"], "1"], "dim_p": 1},          # was exit 4
    {"diagonal": ["t^2", None], "dim_p": 1},           # was exit 4
    {"diagonal": [{"e": "t^2"}, "1"], "dim_p": 1},     # was exit 4
    {"diagonal": ["t^2", math.nan], "dim_p": 1},       # was exit 2
    {"diagonal": ["t^2", True], "dim_p": 1},           # was exit 2
    {"diagonal": ["t^2", HUGE], "dim_p": 1},
    {"entries": [["t^2", None], [0, "1"]], "dim_p": 1},
    {"entries": [["t^2", 0], [0, math.inf]], "dim_p": 1},
    {"diagonal": ["t^2", -HUGE], "dim_p": 1},
    {"entries": [["t^2", [0]], [0, "1"]], "dim_p": 1},
    {"diagonal": ["t^2", "1"], "dim_p": 1, "alpha": True},
    {"diagonal": ["t^2", "1"], "dim_p": 1, "alpha": ["t^2"]},
    {"diagonal": ["t^2", "1"], "dim_p": 1, "alpha": math.nan},
    {"diagonal": "t^2", "dim_p": 1},
], ids=["list", "null", "object", "nan", "bool", "huge", "entries-null",
        "entries-inf", "minus-huge", "entries-list", "alpha-bool",
        "alpha-list", "alpha-nan", "diagonal-string"])
def test_metric_entries_must_be_strings_or_finite_numbers(
        tmp_path, capsys, no_solve, command, metric):
    cfg = {"metric": metric}
    if command == "solve-harmonic":
        cfg.update(v=1.0, t_end=1.0)
    path = write_cfg(tmp_path, "m.json", cfg)
    assert cli.run([command, "--config", path, "--quiet"]) == 3
    assert "config error" in capsys.readouterr().err


def test_a_flag_replaces_its_config_key_before_the_check(tmp_path):
    # a bad key is fine when a good flag overrides it, and the reverse not
    path = write_cfg(tmp_path, "a.json", {**AFFINE, "tol": -1.0,
                                          "samples": 3})
    assert cli.run(["solve-singular", "--config", path, "--quiet",
                    "--tol", "1e-8"]) == 0
    path = write_cfg(tmp_path, "b.json", {**AFFINE, "tol": 1e-8})
    assert cli.run(["solve-singular", "--config", path, "--quiet",
                    "--tol", "-1"]) == 3


def test_an_order_out_of_range_is_rejected_before_the_pole_scan(
        tmp_path, capsys, no_solve):
    # the admissibility scan runs over h = 1..order; an order of 10^9 made
    # the solve commands spin there before the bootstrap rejected it.  The
    # solver picks the order itself now, so neither a flag nor a key takes
    # one
    path = write_cfg(tmp_path, "o.json", AFFINE)
    with pytest.raises(SystemExit) as ei:
        cli.run(["solve-singular", "--config", path, "--quiet",
                 "--order", str(10 ** 9)])
    assert ei.value.code == 2
    path = write_cfg(tmp_path, "k.json", {**AFFINE, "order": 10 ** 9})
    assert cli.run(["solve-singular", "--config", path, "--quiet"]) == 3
    assert "unknown keys ['order']" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg", [
    ("solve-harmonic", {"metric": FLAT, "v": 1.0, "t_end": 1.0}),
    ("solve-biharmonic", {"metric": FLAT, "v": 1.0, "w": 1.0, "t_end": 1.0}),
    ("solve-singular", AFFINE),
    ("check", AFFINE),
])
def test_an_order_key_is_an_unknown_key(tmp_path, capsys, no_solve, command,
                                        cfg):
    path = write_cfg(tmp_path, "c.json", {**cfg, "order": 10})
    assert cli.run([command, "--config", path, "--quiet"]) == 3
    assert "unknown keys ['order']" in capsys.readouterr().err


def test_check_and_solve_singular_agree_on_admission(tmp_path):
    # check and the solve scan the same indices, whatever the order
    accepted = json.loads((CONFIGS / "affine_singular.json").read_text())
    del accepted["samples"]     # a key check does not take
    for path, rc in ((str(CONFIGS / "check_rejected.json"), 2),
                     (write_cfg(tmp_path, "a.json", accepted), 0)):
        for command in ("check", "solve-singular"):
            out = str(tmp_path / f"{command}.out")
            assert cli.run([command, "--config", path, "--out", out,
                            "--quiet"]) == rc, (path, command)


@pytest.mark.parametrize("C", [[[1e9 + 0.5]], [[0.0, 1e9], [0.0, 0.0]]],
                         ids=["scalar", "nilpotent"])
def test_check_and_solve_singular_refuse_a_scan_past_its_limit(
        tmp_path, capsys, C):
    # mu(J) = 1e9 and 5e8 would take one SVD per h up to it (hours); both
    # commands stop before the first SVD, as a numerical failure
    cfg = write_cfg(tmp_path, "big.json",
                    {"C": C, "y0": [0.0] * len(C), "t_end": 1.0})
    for command in ("check", "solve-singular"):
        out = str(tmp_path / f"{command}.out")
        assert cli.run([command, "--config", cfg, "--out", out,
                        "--quiet"]) == cli.EXIT_NUMERICAL
        assert "MAX_SCAN" in capsys.readouterr().err


# -- one exit code per malformed config, on paths no other test reaches -------

BIHARMONIC = {"metric": {"diagonal": ["t^2", "t^2"], "dim_p": 2}, "v": 1.0,
              "w": 1.0, "t_end": 1.0, "samples": 2}
FUNDAMENTAL = {"A": [["0"]], "rho": 1.0, "z0": [1.0, 0.0], "z1": [2.0, 0.0]}


@pytest.mark.parametrize("command, cfg, extra, rc, note", [
    ("solve-harmonic", [FLAT], [], 3, "root must be an object"),
    ("solve-harmonic", {"metric": FLAT, "v": 1.0}, [], 3, "missing keys"),
    ("solve-harmonic", {"metric": FLAT, "v": 1.0, "t_end": "1"}, [], 3,
     "'t_end' must be a number"),
    ("solve-harmonic", {"metric": FLAT, "v": 1.0, "t_end": 1.0,
                        "samples": 2.5}, [], 3, "must be an integer"),
    ("solve-harmonic", {"metric": FLAT, "v": "1:2", "t_end": 1.0}, [], 3,
     "start:stop:count"),
    ("solve-harmonic", {"metric": FLAT, "v": "a:b:3", "t_end": 1.0}, [], 3,
     "bad sweep"),
    ("solve-harmonic", {"metric": FLAT, "v": [0.5, 1.0], "t_end": 1.0}, [],
     3, "sweep string"),
    ("solve-singular", {**AFFINE, "samples": 0}, [], 3, "'samples'"),
    ("solve-singular", {**AFFINE, "C": [[-2.0, 0.0]]}, [], 3, "square"),
    ("solve-singular", {**AFFINE, "y0": [0.0, 1.0]}, [], 3, "'y0'"),
    ("check", {**AFFINE, "c": [1.0, 2.0]}, [], 3, "'c'"),
    ("solve-singular", {**AFFINE, "S": [["sin(t"]]}, [], 3, "config error"),
    ("monodromy", {**MONODROMY, "A": [["0", "t +"], ["0", "1"]]}, [], 3,
     "config error"),
    ("monodromy", {**MONODROMY, "A": ["0", "t"]}, [], 3, "nested list"),
    ("fundamental", {"A": [["0"]], "z0": [1.0, 0.0], "z1": [2.0, 0.0]}, [],
     3, "'rho'"),
    ("fundamental", {**FUNDAMENTAL, "z0": [1.0]}, [], 3, "[re, im] pair"),
    ("check", {"A": [["0"]], "rho": 1.0}, [], 3, "'metric' block"),
    ("solve-singular", {**AFFINE, "S": [[None]]}, [], 3,
     "'S': entry None is not an expression"),                   # was 4
    ("solve-singular", {**AFFINE, "S": [["0"], ["0"]]}, [], 3,
     "'S' must be a square nested list of size 1"),
    ("solve-singular", {**AFFINE, "g": [[1, 2]]}, [], 3, "'g': entry [1, 2]"),
    ("check", {**AFFINE, "g": ["1", "2"]}, [], 3, "'g' must be a list"),
    ("monodromy", {**MONODROMY, "A": [[None]]}, [], 3, "'A': entry None"),
    ("monodromy", {**MONODROMY, "A": [[True]]}, [], 3, "'A': entry True"),
    ("monodromy", {**MONODROMY, "A": [[math.inf]]}, [], 3, "'A': entry inf"),
    ("monodromy", {**MONODROMY, "A": [[0.5, 1]]}, [], 3,
     "'A' must be a square nested list"),                       # was 2
    ("monodromy", {**MONODROMY, "h": ["0", "0"]}, [], 3,
     "unknown keys ['h']"),
    ("fundamental", {**FUNDAMENTAL, "h": ["1"]}, [], 3, "unknown keys ['h']"),
    ("monodromy", {**MONODROMY, "A": [["1/t"]]}, [], 2,
     "A[0][0] is not analytic at 0"),
    ("solve-harmonic", {"metric": {"diagonal": ["t^2", "1/t"], "dim_p": 1},
                        "v": 1.0, "t_end": 1.0}, [], 2,
     "entry (1,1) is not analytic at 0: reciprocal"),           # was 4
    ("solve-harmonic", {"metric": {"diagonal": ["t^2", "1 + sqrt(t)"],
                                   "dim_p": 1}, "v": 1.0, "t_end": 1.0}, [], 2,
     "entry (1,1) is not analytic at 0: sqrt"),                 # was 4
    ("solve-biharmonic", {**BIHARMONIC, "metric": {
        "diagonal": ["t^2", "t^2"], "dim_p": 2, "alpha": "t*sqrt(t)"}}, [], 2,
     "alpha' is not analytic at 0"),
    ("solve-singular", {**AFFINE, "S": [["1/t"]]}, [], 2,
     "S[0][0] is not analytic at 0"),                           # was 4
    ("check", {**AFFINE, "S": [["1/t"]]}, [], 2,
     "S[0][0] is not analytic at 0"),                           # was 0
    ("solve-singular", {**AFFINE, "g": ["log(t - 2)"]}, [], 2,
     "g[0] is not analytic at 0"),                              # was 4
    ("check", {**AFFINE, "g": ["sqrt(t)"]}, [], 2,
     "g[0] is not analytic at 0"),
    ("solve-harmonic", {"metric": FLAT, "v": 1.0, "t_end": 1.0,
                        "samples": 2}, ["--out", "{tmp}/no-dir/h.csv"], 5,
     "i/o error"),
    ("solve-biharmonic", BIHARMONIC, [], 0, "handoff"),
    ("solve-singular", {**AFFINE, "samples": 2}, [], 0, "handoff"),
], ids=[
    "root-not-object",
    "missing-keys",
    "t_end-not-a-number",
    "samples-not-an-integer",
    "sweep-two-fields",
    "sweep-not-numbers",
    "sweep-list",
    "samples-zero",
    "C-not-square",
    "y0-wrong-length",
    "c-wrong-length",
    "S-bad-expression",
    "A-bad-expression",
    "A-not-nested",
    "rho-missing",
    "z0-not-a-pair",
    "check-neither-block",
    "S-null-entry",
    "S-wrong-shape",
    "g-list-entry",
    "g-wrong-length",
    "A-null-entry",
    "A-bool-entry",
    "A-infinite-entry",
    "A-not-square",
    "monodromy-h",
    "fundamental-h",
    "A-pole",
    "metric-pole",
    "metric-branch-point",
    "alpha-branch-point",
    "S-pole",
    "check-S-pole",
    "g-log-of-negative",
    "check-g-branch-point",
    "out-unwritable",
    "biharmonic-note",
    "singular-note",
])
def test_each_cli_path_ends_in_its_exit_code(tmp_path, capsys, command, cfg,
                                             extra, rc, note):
    path = write_cfg(tmp_path, "c.json", cfg)
    extra = [a.format(tmp=tmp_path) for a in extra]
    assert cli.run([command, "--config", path, *extra]) == rc
    assert note in capsys.readouterr().err


def test_every_single_solve_prints_the_same_note(tmp_path, capsys):
    runs = [("solve-harmonic", {"metric": SPHERE, "v": 1.0, "t_end": 1.0,
                                "samples": 2}),
            ("solve-biharmonic", BIHARMONIC),
            ("solve-singular", {**AFFINE, "samples": 2})]
    for command, cfg in runs:
        path = write_cfg(tmp_path, "c.json", cfg)
        assert cli.run([command, "--config", path]) == 0
        err = capsys.readouterr().err
        assert re.fullmatch(r"handoff \S+, \d+ steps, max residual \S+\n",
                            err), (command, err)


def test_t_switch_is_a_class_attribute_not_a_metric_key(tmp_path, capsys):
    path = write_cfg(tmp_path, "c.json",
                     {"metric": {**SPHERE, "t_switch": 0.05}})
    assert cli.run(["check", "--config", path]) == 3
    assert "unknown keys ['t_switch']" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg", [
    ("solve-harmonic", {"metric": SPHERE, "v": 1.0, "t_end": 1.0}),
    ("solve-biharmonic", BIHARMONIC),
])
def test_t_max_is_not_a_solve_key(tmp_path, capsys, command, cfg):
    path = write_cfg(tmp_path, "c.json", {**cfg, "t_max": 0.1})
    assert cli.run([command, "--config", path]) == 3
    assert "unknown keys ['t_max']" in capsys.readouterr().err


def test_singular_sidecar_counts_the_handoff_checks(tmp_path, capsys):
    # y' = cosh(10 t) from 0: y_10 = 0, so the first candidate fails
    cfg = {"C": [[0.0]], "g": ["cosh(10*t)"], "y0": [0.0], "t_end": 1.0,
           "samples": 2}
    out = tmp_path / "p.csv"
    assert cli.run(["solve-singular", "--config",
                    write_cfg(tmp_path, "p.json", cfg), "--out", str(out),
                    "--quiet"]) == 0
    d = json.loads((tmp_path / "p.summary.json").read_text())["diagnostics"]
    assert d["handoff_tries"] > 1 and d["handoff"] < 0.1
    # a t_end that leaves no handoff above the floor is a rejected input
    path = write_cfg(tmp_path, "short.json", {**cfg, "t_end": 1e-8})
    assert cli.run(["solve-singular", "--config", path]) == 2
    assert "t_end" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["0", "-3"])
def test_check_rejects_an_order_below_one(tmp_path, capsys, order):
    # resonant at h = 3: an order that scans no h used to read verdict
    # true; check scans at the solver's own order and takes none
    resonant = write_cfg(tmp_path, "c.json", {**AFFINE, "C": [[3.0]]})
    with pytest.raises(SystemExit) as ei:
        cli.run(["check", "--config", resonant, "--order", order])
    assert ei.value.code == 2
    path = write_cfg(tmp_path, "k.json",
                     {**AFFINE, "C": [[3.0]], "order": int(order)})
    assert cli.run(["check", "--config", path]) == 3
    assert "unknown keys ['order']" in capsys.readouterr().err
    assert cli.run(["check", "--config", resonant]) == 2


@pytest.mark.parametrize("metric, was", [
    ({"diagonal": ["t^2", "1/t"], "dim_p": 1}, 4),
    ({"diagonal": ["t^2", "1 + sqrt(t)"], "dim_p": 1}, 4),
    # planted: only the series data sees the t^1 term of the collapsing
    # entry, so this family passed although every solve rejects it
    ({"diagonal": ["t^2 + 1e-6*t", "1"], "dim_p": 1}, 0),
], ids=["pole", "branch-point", "planted-odd-term"])
def test_check_fails_a_family_without_series_data(tmp_path, capsys, metric,
                                                  was):
    path = write_cfg(tmp_path, "c.json", {"metric": metric})
    assert cli.run(["check", "--config", path]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["series_available"] is False
    assert rep["structure_ok"] is None
    assert rep["verdict"] is False
    # every solve on the family is rejected too
    path = write_cfg(tmp_path, "h.json", {"metric": metric, "v": 1.0,
                                          "t_end": 1.0})
    assert cli.run(["solve-harmonic", "--config", path, "--quiet"]) == 2


def test_numeric_and_string_entries_write_the_same_csv(tmp_path):
    outs = []
    for name, S, g in (("num", [[0.5]], [1]), ("str", [["0.5"]], ["1"])):
        path = write_cfg(tmp_path, f"{name}.json",
                         {**AFFINE, "S": S, "g": g, "samples": 5})
        out = tmp_path / f"{name}.csv"
        assert cli.run(["solve-singular", "--config", path, "--out",
                        str(out), "--quiet"]) == 0     # "S": [[0.5]] was 4
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    outs = []
    for name, A in (("num", [[0.25, 0], [0, 1]]),
                    ("str", [["0.25", "0"], ["0", "1"]])):
        path = write_cfg(tmp_path, f"m{name}.json", {**MONODROMY, "A": A})
        out = tmp_path / f"m{name}.json.out"
        assert cli.run(["monodromy", "--config", path, "--out",
                        str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command, cfg, header", [
    ("solve-harmonic", {"metric": SPHERE, "v": "1.2:0.2:3", "t_end": 1.0},
     ["v", "r_T", "r_dot_T", "max_residual", "dr_T_dv"]),
    ("solve-biharmonic", {"metric": SPHERE, "v": "1.0:0.6:2",
                          "w": "0.4:-0.2:2", "t_end": 1.0},
     ["v", "w", "r_T", "r_dot_T", "F_T", "F_dot_T", "max_residual",
      "dr_T_dv"]),
])
def test_descending_sweeps_keep_their_row_order(tmp_path, command, cfg,
                                                header):
    # harmonic rows follow the sweep, biharmonic rows are sorted v-major
    out = tmp_path / "s.csv"
    assert cli.run([command, "--config", write_cfg(tmp_path, "s.json", cfg),
                    "--out", str(out), "--quiet"]) == 0
    got_header, data = read_csv(out)
    assert got_header == header
    if command == "solve-harmonic":
        assert [row[0] for row in data] == [1.2, 0.7, 0.2]
        slopes = [row[-1] for row in data]
        assert slopes[0] == (data[1][1] - data[0][1]) / (0.7 - 1.2)
    else:
        assert [row[:2] for row in data] == [[0.6, -0.2], [0.6, 0.4],
                                            [1.0, -0.2], [1.0, 0.4]]
        for row in data:
            sol = geometry.solve_biharmonic(
                geometry.MetricFamily.from_diagonal(SPHERE["diagonal"], 2),
                row[0], row[1], 1.0)
            assert row[2:6] == [sol.r(1.0), sol.rdot(1.0), sol.F(1.0),
                                sol.Fdot(1.0)]
