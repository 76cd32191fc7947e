"""Command-line surface: parsing, output formats, exit codes."""

import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from digrowth import cli, dynamics, explorer, model as M, spectral, stochastic


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    names = json.loads(out)
    assert "ab1" in names


def test_lambda_with_cross_checks(capsys):
    code, out, _ = run(capsys, "lambda", "ab1", "--m", "1", "--T", "5",
                       "--check-integral", "--check-h")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == pytest.approx(np.log(doc["mu"]) / 5.0, abs=1e-12)
    assert doc["cross_checks"]["integral"] <= 1e-6
    assert doc["cross_checks"]["h_formula"] <= 1e-6
    assert doc["method"] == "ExponentialProduct"
    assert len(doc["pi"]) == 2


def test_lambda_cross_checks_share_one_solve_and_one_theta_star(
        capsys, monkeypatch):
    calls = {"growth_rate": 0, "_theta_star": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(dynamics, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(dynamics, name, counted)
    code, out, _ = run(capsys, "lambda", "three_patch_circular", "--m", "1",
                       "--T", "20", "--check-integral", "--check-h")
    assert code == 0
    assert calls == {"growth_rate": 1, "_theta_star": 1}
    # the printed checks are those of the public identities
    mdl, params = M.builtin("three_patch_circular"), M.ModelParameters(1.0, 20.0)
    lam = dynamics.growth_rate(mdl, params).lam
    want = {"integral": dynamics.growth_rate_integral(mdl, params),
            "h_formula": dynamics.growth_rate_h_formula(mdl, params)}
    assert json.loads(out)["cross_checks"] == {
        k: float(cli._fmt(abs(lam - v))) for k, v in want.items()}


def test_lambda_h_check_needs_constant_migration(capsys):
    code, out, err = run(capsys, "lambda", "ab2s", "--m", "1", "--T", "2",
                         "--check-h")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "numerical", "message":
                               "h-formula requires time-independent migration"}


def test_limits_near_m_star(capsys):
    code, out, _ = run(capsys, "limits", "ab1", "--m", "0.5555555")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["lambda_m_Tinf"]) < 1e-6
    assert doc["m_star"] == pytest.approx(5.0 / 9.0, abs=1e-12)
    assert doc["corners"]["lambda_0inf"] == doc["chi"] == 0.5
    assert doc["lambda_infT"] == doc["corners"]["lambda_infinf"]


def test_limits_of_reducible_segments(capsys):
    # Lambda(1, T) of three_patch_reducible tends to (1 + b)/2 = 0
    code, out, _ = run(capsys, "limits", "three_patch_reducible", "--m", "1")
    assert code == 0
    assert abs(json.loads(out)["lambda_m_Tinf"]) <= 1e-15


def test_validate_builtin_ok(capsys):
    code, out, _ = run(capsys, "validate", "ab1")
    assert code == 0
    assert json.loads(out)["status"] == "IrreducibleEverywhere"


def test_validate_provisional_model(capsys):
    code, out, _ = run(capsys, "validate", "unidir_favorable")
    assert code == 0
    assert json.loads(out)["status"] == "PositiveMonodromyOnly"
    code, out, _ = run(capsys, "validate", "fainshil(0,0)")
    assert code == 0
    assert json.loads(out)["status"] == "NoPositiveMonodromy"


def test_validate_invalid_file(capsys, tmp_path):
    doc = M.to_dict(M.builtin("ab1"))
    doc["migration"]["matrices"][0][0][1] = -2.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "validation"


@pytest.mark.parametrize("field", ["growth", "breaks"])
@pytest.mark.parametrize("argv", [
    ["validate"], ["limits"],
    ["sweep", "--m-range", "1:2:2", "--T-range", "1:2:2"],
])
def test_non_finite_model_is_rejected(capsys, tmp_path, field, argv):
    # a NaN growth rate validated clean and a NaN breakpoint passed the
    # order checks; limits blamed an overflow and sweep wrote error cells
    doc = M.to_dict(M.builtin("ab1"))
    if field == "growth":
        doc["growth"]["diagonals"][0][0] = float("nan")
    else:
        doc["growth"]["breaks"][1] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and out == ""
    assert "must" in json.loads(err)["message"]


def test_unknown_model_exit_code(capsys):
    code, _, err = run(capsys, "lambda", "nope", "--m", "1", "--T", "1")
    assert code == 2


def test_model_file_round_trip(capsys, tmp_path):
    path = tmp_path / "ab1.json"
    M.save(M.builtin("ab1"), path)
    code, out, _ = run(capsys, "lambda", str(path), "--m", "1", "--T", "5")
    assert code == 0
    direct, _, _ = run(capsys, "lambda", "ab1", "--m", "1", "--T", "5")


def test_sweep_csv_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "sweep", "ab1", "--m-range", "0.1:2:6",
                         "--T-range", "0.5:50:6", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    rows = a.read_text().strip().splitlines()
    assert rows[0] == "m,T,lambda,status"
    assert len(rows) == 37


def test_critical_csv(capsys, tmp_path):
    path = tmp_path / "curve.csv"
    code, _, _ = run(capsys, "critical", "ab1", "--m-range", "0.01:3:24",
                     "--T-range", "0.5:200:24", "--out", str(path))
    assert code == 0
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "branch,m,T,nu,lambda_residual"
    assert len(rows) > 5
    for row in rows[1:]:
        _, mv, Tv, nu, res = row.split(",")
        assert abs(float(res)) <= 1e-8
        assert float(nu) == pytest.approx(1.0 / float(Tv), rel=1e-12)


def test_curve_csv_residuals_are_lambda_at_the_vertices():
    # the residuals come from the root search; the kernel's values do not
    # depend on the batch, so recomputing them gives the same bytes
    mdl = M.builtin("ab1")
    curve = explorer.critical_curve(mdl, (0.01, 3.0), (0.5, 200.0), 24)
    written = io.StringIO()
    cli._write_curve_csv(curve, written)
    again = [dynamics.growth_rates(mdl, b[:, 0], b[:, 1])[0]
             for b in curve.branches]
    recomputed = io.StringIO()
    cli._write_curve_csv(dataclasses.replace(curve, residuals=again),
                         recomputed)
    assert written.getvalue() == recomputed.getvalue()
    assert written.getvalue().count("\n") == 1 + len(curve.vertices())


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "ab1")
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == "Case1" and doc["dig_possible"]


def _ab1_migration_over_1000(tmp_path):
    """ab1 with its migration divided by 1000, as a model file: its m* is
    1000 times ab1's, 555.6, past the m* search's starting bracket."""
    doc = M.to_dict(M.builtin("ab1"))
    doc["migration"]["matrices"] = (
        np.array(doc["migration"]["matrices"]) / 1000.0).tolist()
    path = tmp_path / "ab1-slow.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_limits_find_m_star_past_the_starting_bracket(capsys, tmp_path):
    code, out, _ = run(capsys, "limits", _ab1_migration_over_1000(tmp_path))
    assert code == 0
    assert json.loads(out)["m_star"] == pytest.approx(5000.0 / 9.0,
                                                      rel=1e-13)


def test_classify_past_the_starting_bracket(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", _ab1_migration_over_1000(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == "Case1"
    assert doc["m_star"] == pytest.approx(5000.0 / 9.0, rel=1e-13)


SIM_ENV = {"states": [{"R": [0.5, -1.5], "L": [[-1, 1], [1, -1]]},
                      {"R": [-1.5, 0.5], "L": [[-1, 1], [1, -1]]}],
           "Q": [[-1, 1], [1, -1]]}


@pytest.mark.parametrize("state", [
    {"R": [0.5, -1.5], "L": [[1, -1], [-1, 1]]},   # not Metzler
    {"R": [0.5, -1.5]},                             # no "L"
])
def test_simulate_invalid_environment_is_a_validation_error(capsys, tmp_path,
                                                            state):
    path = tmp_path / "env.json"
    path.write_text(json.dumps(dict(SIM_ENV,
                                    states=[state, SIM_ENV["states"][1]])))
    code, out, err = run(capsys, "simulate", str(path), "--m", "1", "--T",
                         "0.5", "--horizon", "300")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "validation"


@pytest.mark.parametrize("where", ["R", "Q"])
def test_simulate_non_finite_environment_is_a_validation_error(capsys,
                                                               tmp_path,
                                                               where):
    # a NaN in Q died with an IndexError after a NumPy warning, and a NaN
    # rate left the positive cone
    doc = json.loads(json.dumps(SIM_ENV))
    (doc["Q"][0] if where == "Q" else doc["states"][0]["R"])[0] = float("nan")
    path = tmp_path / "env.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "simulate", str(path), "--m", "1",
                             "--T", "0.5", "--horizon", "300")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "validation"


def test_simulate(capsys, tmp_path):
    path = tmp_path / "env.json"
    path.write_text(json.dumps(SIM_ENV))
    code, out, _ = run(capsys, "simulate", str(path), "--m", "1", "--T",
                       "0.5", "--horizon", "300", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert np.isfinite(doc["lambda_hat"]) and doc["stderr"] > 0
    # same seed, same estimate
    code, out2, _ = run(capsys, "simulate", str(path), "--m", "1", "--T",
                        "0.5", "--horizon", "300", "--seed", "7")
    assert out2 == out


@pytest.mark.parametrize("option, value", [("--T", "0"), ("--horizon", "nan"),
                                           ("--m", "-1")])
def test_simulate_rejects_parameters_outside_the_domain(capsys, tmp_path,
                                                        option, value):
    path = tmp_path / "env.json"
    path.write_text(json.dumps(SIM_ENV))
    argv = {"--m": "1", "--T": "0.5", "--horizon": "300", option: value}
    code, out, err = run(capsys, "simulate", str(path),
                         *[x for kv in argv.items() for x in kv])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"


def test_simulate_rejects_a_horizon_past_the_jump_cap(capsys, tmp_path,
                                                      monkeypatch):
    def started(*args):
        raise AssertionError("the simulation loop was set up")

    monkeypatch.setattr(stochastic, "stationary_distribution", started)
    path = tmp_path / "env.json"
    path.write_text(json.dumps(SIM_ENV))
    code, out, err = run(capsys, "simulate", str(path), "--m", "1", "--T",
                         "1", "--horizon", "1e17")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"


def test_csv_writers_match_the_csv_module():
    # the writers join fields themselves; the bytes must be csv.writer's
    import csv
    mdl = M.builtin("three_patch_reducible")
    grid = explorer.sweep(mdl, (1e-2, 1e2), (1e2, 1e5), (4, 5))
    assert set(grid.status.ravel()) == {"ok", "error"}
    want = io.StringIO()
    w = csv.writer(want)
    w.writerow(["m", "T", "lambda", "status"])
    for i, m in enumerate(grid.m_values):
        for j, T in enumerate(grid.T_values):
            w.writerow([f"{m:.15g}", f"{T:.15g}", f"{grid.lam[i, j]:.15g}",
                        grid.status[i, j]])
    got = io.StringIO()
    cli._write_sweep_csv(grid, got)
    assert got.getvalue() == want.getvalue()
    curve = explorer.CriticalCurve(
        branches=[np.array([[0.5, 2.0], [1.5, 4.0]]), np.array([[3.0, 8.0]])],
        residuals=[np.array([1e-9, -0.0]), np.array([np.inf])], tol=1e-8)
    want = io.StringIO()
    w = csv.writer(want)
    w.writerow(["branch", "m", "T", "nu", "lambda_residual"])
    for b, (branch, res) in enumerate(zip(curve.branches, curve.residuals)):
        for (m, T), r in zip(branch, res):
            w.writerow([b, f"{m:.15g}", f"{T:.15g}", f"{1 / T:.15g}",
                        f"{r:.15g}"])
    got = io.StringIO()
    cli._write_curve_csv(curve, got)
    assert got.getvalue() == want.getvalue()


def test_fifteen_significant_digits(capsys):
    code, out, _ = run(capsys, "limits", "ab1")
    assert code == 0
    assert "-0.333333333333333" in out


def test_reproduce_unknown_figure(capsys, tmp_path):
    code, _, err = run(capsys, "reproduce", "fig99", "--out-dir",
                       str(tmp_path))
    assert code == 2


def test_reproduce_slow_curve(capsys, tmp_path):
    code, out, _ = run(capsys, "reproduce", "figS6", "--out-dir",
                       str(tmp_path))
    assert code == 0
    csv_path = tmp_path / "figS6_slow_curve.csv"
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0].startswith("tau,theta_1")
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    # simplex rows and a bounded gap to the slow curve away from layers
    assert np.abs(data[:, 1:4].sum(axis=1) - 1.0).max() <= 1e-9
    mdl, params = M.builtin("three_patch_circular"), M.ModelParameters(1.0, 20.0)
    _assert_slow_curve_rows(rows, mdl, params)
    report = dynamics.verify_slow_curve(mdl, params)
    tau = data[:, 0]
    away = np.ones(len(tau), dtype=bool)
    for b in list(mdl.segments.breaks) + [1.0]:
        away &= ~((tau >= b - 1e-9)
                  & (tau < b + dynamics.SLOW_CURVE_LAYER + 1e-9))
    gap = np.abs(data[away, 1:4] - data[away, 4:7]).max()
    assert gap <= report.sup_deviation + 1e-13
    assert report.sup_deviation <= 0.05


def test_slow_curve_rows_at_breaks_take_their_own_segment(tmp_path):
    # t / T rounds below the break at tau = 1/3 and 2/3, and a schedule
    # look-up there paired theta*(b_k) with the previous segment's vector
    mdl, params = M.builtin("abc_two_patch"), M.ModelParameters(0.7, 50.0)
    cli._repro_slow_curve("t", "abc_two_patch", 0.7, 50.0)(str(tmp_path), 64)
    rows = (tmp_path / "t_slow_curve.csv").read_text().strip().splitlines()
    _assert_slow_curve_rows(rows, mdl, params)


def _assert_slow_curve_rows(rows, mdl, params):
    """The theta columns of a slow-curve CSV are theta* from
    ``periodic_simplex_solution``, and the v columns are the Perron vector
    of the segment whose sub-step grid holds the row's node."""
    traj = dynamics.periodic_simplex_solution(mdl, params)
    *_, counts, _ = dynamics._segment_grid(mdl, params)
    vectors = spectral.perron_vector(
        mdl.segments.R + params.m * mdl.segments.L)
    own = np.append(np.repeat(np.arange(len(counts)), counts), len(counts) - 1)
    assert len(rows) - 1 == len(traj.states) == len(own)
    n = mdl.n
    for row, theta, k in zip(rows[1:], traj.states.tolist(), own.tolist()):
        fields = row.split(",")
        assert fields[1:1 + n] == [cli._fmt(x) for x in theta]
        assert fields[1 + n:] == [cli._fmt(x) for x in vectors[k].tolist()]


def test_lambda_overflowing_period_is_a_numerical_error(capsys):
    # T * A overflows to inf: a typed error and exit 1, not a traceback, and
    # no NumPy warning ahead of the one JSON object on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "lambda", "ab1", "--m", "1",
                             "--T", "1e308")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "numerical"


@pytest.mark.parametrize("option", ["--T", "--m"])
def test_lambda_non_finite_input_is_a_usage_error(capsys, option):
    # growth_rates rejects the same input with a ValueError
    argv = {"--m": "1", "--T": "5", option: "inf"}
    code, out, err = run(capsys, "lambda", "ab1",
                         *[x for kv in argv.items() for x in kv])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize("m", ["-1", "nan", "inf", "1e308"])
def test_limits_at_an_invalid_m_is_a_usage_error(capsys, m):
    # R + m L at m = -1 is no growth model; m = inf, and m = 1e308 where
    # m L overflows, printed nan with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "limits", "ab1", "--m", m)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"


def test_argparse_errors_are_one_json_object(capsys):
    # "-1:2:3" reads as an option, so --m-range has no value: argparse's own
    # error, which printed plain-text usage
    code, out, err = run(capsys, "sweep", "ab1", "--m-range", "-1:2:3")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "usage" and "--m-range" in doc["message"]
    code, out, err = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: dig") and err == ""


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_critical_needs_a_finite_nonnegative_tol(capsys, tol):
    # a tol that |Lambda| never exceeds closed every bracket at once and
    # wrote unrefined grid-edge vertices; tol 0 refines to a few ulp
    code, out, err = run(capsys, "critical", "ab1", "--m-range", "0.01:3:8",
                         "--T-range", "0.5:200:8", "--tol", tol)
    if tol == "0":
        assert code == 0 and err == ""
        assert out.startswith("branch,m,T,nu,lambda_residual")
        return
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "ab1", "--m-range", "1e-2:1e2:0", "--T-range", "1:2:3"],
     "--m-range"),
    (["sweep", "ab1", "--m-range", "1e-2:1e2:3", "--T-range", "1:2:-1"],
     "--T-range"),
    (["critical", "ab1", "--m-range", "1e-2:1e2:1", "--T-range", "1:2:8"],
     "--m-range"),
    (["critical", "ab1", "--m-range", "1e-2:1e2:8", "--T-range", "1:2:1"],
     "--T-range"),
    (["reproduce", "fig2", "--resolution", "0"], "--resolution"),
    (["reproduce", "fig2", "--resolution", "1"], "--resolution"),
])
def test_degenerate_grid_sizes_are_usage_errors(capsys, tmp_path, argv, flag):
    # a sweep needs one point per axis; a curve and a figure two
    out_dir = tmp_path / "out"
    if argv[0] == "reproduce":
        argv = argv + ["--out-dir", str(out_dir)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "usage" and flag in doc["message"]
    assert not out_dir.exists()


def test_sweep_of_one_point(capsys):
    code, out, _ = run(capsys, "sweep", "ab1", "--m-range", "1:1:1",
                       "--T-range", "2:2:1")
    assert code == 0
    assert out.splitlines()[0] == "m,T,lambda,status"
    assert len(out.splitlines()) == 2


def test_runtime_loads_no_scipy():
    # the package runs on NumPy alone; scipy is only a test reference
    probe = ("import sys, digrowth, digrowth.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
