"""Flat config parsing, flag overrides, CLI outputs and exit codes."""

import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qreflect import cli, qsd, run_moment_trajectory, run_wavefunction_trajectory
from qreflect.cli import build_config, main
from qreflect.config import ConfigError, RunConfig, parse_config, serialize_config
from qreflect.grids import SplitStepper


def test_defaults_are_unit_system():
    cfg = parse_config("command=timescales\nD=1\n")
    assert cfg.m == 1.0 and cfg.p_bar == 1.0 and cfg.hbar == 1.0
    assert cfg.D == 1.0


def test_flag_overrides_config_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("Dp=0.5\ncoupling=p\n")
    cfg = build_config(["model1", "--config", str(conf), "--D_p", "2"])
    assert cfg.D_p == 2.0
    assert cfg.coupling == "p"


def test_roundtrip_serialize_parse():
    cfg = RunConfig(command="model2", M=10.0, sigma=100.0, D_sweep=(0.01, 1.0),
                    steady_target=True, tau_inf=True, seed=99)
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_unknown_key_and_bad_values():
    with pytest.raises(ConfigError):
        parse_config("no_such_key=1\n")
    with pytest.raises(ConfigError):
        parse_config("D=not_a_number\n")
    with pytest.raises(ConfigError):
        parse_config("coupling=z\n")
    with pytest.raises(ConfigError):
        parse_config("this line has no equals\n")


def test_comments_and_blank_lines():
    cfg = parse_config("# comment\n\nD=2.0  # trailing comment\n")
    assert cfg.D == 2.0


def test_alias_keys():
    cfg = parse_config("Dp=0.25\npbar=2.0\nL=1.5\n")
    assert cfg.D_p == 0.25 and cfg.p_bar == 2.0 and cfg.window_L == 1.5


def test_exit_codes(tmp_path):
    assert main(["timescales", "--D", "bogus", "--outdir", str(tmp_path / "a")]) == 2
    assert main(["figures", "--figure", "9", "--outdir", str(tmp_path / "b")]) == 2
    assert main(["timescales", "--D", "1", "--outdir", str(tmp_path / "c")]) == 0
    # strict escalation of a regime warning: position-coupling kernel driven
    # far outside its narrow-sideband regime
    rc = main(["model1", "--coupling", "x", "--D", "1", "--sigma", "10",
               "--outdir", str(tmp_path / "d"), "--strict", "true"])
    assert rc == 4
    rc = main(["model1", "--coupling", "x", "--D", "1", "--sigma", "10",
               "--outdir", str(tmp_path / "e")])
    assert rc == 0  # warning only without --strict


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_P_rejected_before_any_kernel(tmp_path, capsys, value):
    outdir = tmp_path / "out"
    rc = main(["model2", "--M", "10", "--sigma", "100", "--P", value,
               "--outdir", str(outdir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "P must be finite" in err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("args, key", [
    (["qsd", "--D", "1", "--n_traj", "0"], "n_traj"),
    (["qsd", "--D", "1", "--dt", "0"], "dt"),
    (["qsd", "--D", "1", "--t_final", "-1"], "t_final"),
    (["qsd", "--D", "1", "--seed", "-3"], "seed"),
    (["qsd", "--D", "1", "--threads", "0"], "threads"),
    (["qsd", "--D", "nan"], "D"),
    (["timescales", "--D", "inf"], "D"),
    (["model2", "--M", "10", "--sigma", "100", "--steady-target", "true", "--D", "1",
      "--tau", "-5"], "tau"),
])
def test_bad_run_keys_rejected_at_config_time(tmp_path, capsys, args, key):
    rc = main(args + ["--outdir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"config error: {key} must be ")
    assert not list(tmp_path.rglob("*.csv"))


def test_timescales_csv_columns(tmp_path):
    assert main(["timescales", "--D", "1", "--M", "10", "--Sigma", "1",
                 "--outdir", str(tmp_path)]) == 0
    rows = list(csv.reader(open(tmp_path / "timescales.csv")))
    assert rows[0] == ["name", "value", "defining_formula", "inputs"]
    names = {r[0] for r in rows[1:]}
    assert {"t_E", "t_z", "t_loc", "t_d_p", "T_1", "sigma_p"} <= names
    assert (tmp_path / "resolved_config.txt").exists()


def test_figure3_outputs_monotone(tmp_path):
    assert main(["figures", "--figure", "3", "--outdir", str(tmp_path)]) == 0
    for a in ("0.1", "0.2", "0.4"):
        rows = list(csv.reader(open(tmp_path / f"total_vs_Dp_a{a}.csv")))
        assert rows[0] == ["D_p", "total_reflected"]
        totals = [float(r[1]) for r in rows[1:]]
        assert all(b < x for x, b in zip(totals, totals[1:]))
    assert (tmp_path / "figure3.svg").read_text().startswith("<?xml")


def test_qsd_wavefunction_grid_holds_the_center_walk(tmp_path):
    # the grid is periodic: trajectory 24 of this run takes its center past
    # |x| = 25.6, the edge of a grid sized without room for the center's random
    # walk, where it wrapped around and its final var_x read 0.62, not 0.354
    assert main(["qsd", "--coupling", "x", "--D", "1", "--level", "wavefunction",
                 "--n_traj", "8", "--seed", "21", "--outdir", str(tmp_path)]) == 0
    wander, var_x = [], []
    for path in sorted(tmp_path.glob("trajectory_*.csv")):
        rows = list(csv.DictReader(open(path)))
        wander.append(max(abs(float(r["mean_x"])) for r in rows))
        var_x.append(float(rows[-1]["var_x"]))
    steady = 0.125**0.5  # sigma_q^2 at m = hbar = D = 1
    assert len(var_x) == 8 and all(abs(v / steady - 1.0) < 1e-3 for v in var_x)
    assert max(wander) > 25.6


def _csv_text(series) -> bytes:
    header = "t,mean_x,mean_p,var_x,var_p,cov_xp\n"
    return (header + "".join(",".join(map(repr, (m.time, m.mean_x, m.mean_p, m.var_x,
                                                 m.var_p, m.cov_xp))) + "\n"
                             for m in series)).encode()


def test_qsd_wavefunction_steps_the_ensemble_as_one_array(tmp_path, monkeypatch):
    # one advance per record chunk for all 8 trajectories, not one per trajectory,
    # and every CSV equals the library run of its seed alone, byte for byte
    shapes, captured = [], []
    advance, ensemble = SplitStepper.advance, cli.run_wavefunction_ensemble

    def advance_spy(self, values, n_steps):
        shapes.append(values.shape)
        return advance(self, values, n_steps)

    def ensemble_spy(*args):
        captured.append(args)
        return ensemble(*args)

    monkeypatch.setattr(SplitStepper, "advance", advance_spy)
    monkeypatch.setattr(cli, "run_wavefunction_ensemble", ensemble_spy)
    outdir = tmp_path / "cli"
    assert main(["qsd", "--coupling", "x", "--D", "1", "--level", "wavefunction",
                 "--n_traj", "8", "--seed", "7", "--t_final", "2",
                 "--outdir", str(outdir)]) == 0
    psi0, env, spec, params, dt, n_steps, seeds, record_every = captured[0]
    assert record_every > 1 and seeds == list(range(7, 15))
    assert shapes == [(8, psi0.grid.n_points)] * math.ceil(n_steps / record_every)
    for seed in seeds:
        series, _ = run_wavefunction_trajectory(psi0, env, spec, params, dt, n_steps, seed,
                                                record_every)
        assert (outdir / f"trajectory_{seed}.csv").read_bytes() == _csv_text(series)


@pytest.mark.parametrize("coupling, flag", [("x", "--D"), ("p", "--D_p")])
def test_qsd_moments_steps_the_ensemble_as_one_array(tmp_path, monkeypatch, coupling, flag):
    # one step-map call per step for all 8 trajectories, not one per trajectory and
    # step, and every CSV equals the library run of its seed alone, byte for byte
    shapes, captured = [], []
    moment_map, ensemble = qsd._moment_map, cli.run_moment_ensemble

    def map_spy(*args):
        step = moment_map(*args)

        def counted(t, mx, *rest):
            shapes.append(np.shape(mx))
            return step(t, mx, *rest)
        return counted

    def ensemble_spy(*args):
        captured.append(args)
        return ensemble(*args)

    monkeypatch.setattr(qsd, "_moment_map", map_spy)
    monkeypatch.setattr(cli, "run_moment_ensemble", ensemble_spy)
    outdir = tmp_path / "cli"
    assert main(["qsd", "--coupling", coupling, flag, "1", "--level", "moments",
                 "--n_traj", "8", "--seed", "7", "--outdir", str(outdir)]) == 0
    mom0, env, spec, params, dt, n_steps, seeds, record_every = captured[0]
    assert seeds == list(range(7, 15)) and n_steps == 1000
    assert shapes == [(8,)] * n_steps
    for seed in seeds:
        series = run_moment_trajectory(mom0, env, spec, params, dt, n_steps, seed,
                                       record_every)
        assert (outdir / f"trajectory_{seed}.csv").read_bytes() == _csv_text(series)


@pytest.mark.parametrize("args, message", [
    # the periodic grid is too small for the center's walk: seed 24 wraps around
    (["qsd", "--coupling", "x", "--D", "1", "--level", "wavefunction", "--n_traj", "32",
      "--seed", "21", "--n_points", "512"], "seed 24 holds probability"),
    # t_final < t_loc leaves no record time in the fit window of a 64-seed run
    (["qsd", "--D", "1", "--level", "moments", "--n_traj", "64", "--t_final", "0.5"],
     "fit window"),
    # 5e300 steps: the increments would not fit in memory
    (["qsd", "--D", "1", "--level", "moments", "--dt", "1e-300"], "steps exceeds 1000000"),
])
def test_qsd_fails_before_writing_trajectories(tmp_path, capsys, args, message):
    assert main(args + ["--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and message in err
    assert not list(tmp_path.glob("trajectory_*.csv"))


@pytest.mark.parametrize("args", [
    ["--D", "1", "--t_final", "1e150"],
    ["--coupling", "p", "--D_p", "1", "--t_final", "1e160", "--dt", "1e155"],
])
def test_qsd_wavefunction_spread_overflow_is_a_config_error(tmp_path, capsys, args):
    # t_final^3 (x) or t_final^2 (p) overflows while sizing the grid
    assert main(["qsd", "--level", "wavefunction", *args, "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: the spread by t_final")


def test_rerun_byte_identical(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    args = ["qsd", "--coupling", "x", "--D", "1", "--level", "moments",
            "--n_traj", "6", "--seed", "77", "--t_final", "0.5"]
    assert main(args + ["--outdir", str(d1)]) == 0
    assert main(args + ["--outdir", str(d2)]) == 0
    for name in sorted(os.listdir(d1)):
        if name == "resolved_config.txt":
            continue  # records the differing output directory
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_csv_identical_across_thread_counts(tmp_path):
    d1, d2 = tmp_path / "t1", tmp_path / "t4"
    base = ["qsd", "--coupling", "p", "--D_p", "1", "--level", "moments",
            "--n_traj", "8", "--seed", "3", "--t_final", "0.4"]
    assert main(base + ["--outdir", str(d1), "--threads", "1"]) == 0
    assert main(base + ["--outdir", str(d2), "--threads", "4"]) == 0
    for name in sorted(os.listdir(d1)):
        if name == "resolved_config.txt":
            continue  # records the differing --threads value
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_model2_cli_density_and_totals(tmp_path):
    rc = main(["model2", "--M", "10", "--sigma", "100", "--steady_target", "true",
               "--D_sweep", "0.01,1.0", "--outdir", str(tmp_path)])
    assert rc == 0
    rows = list(csv.reader(open(tmp_path / "total_vs_D.csv")))
    assert rows[0] == ["D", "total_reflected"]
    totals = [float(r[1]) for r in rows[1:]]
    assert totals[0] > totals[1]
    assert (tmp_path / "density_D0.01.csv").exists()


def test_unitary_cli_probability_ledger(tmp_path):
    rc = main(["unitary", "--sigma", "4", "--V0", "1.0", "--a", "1",
               "--outdir", str(tmp_path)])
    assert rc == 0
    rows = list(csv.reader(open(tmp_path / "probabilities.csv")))
    assert rows[0] == ["t", "norm", "reflected", "transmitted", "absorbed", "edge_loss"]
    final = rows[-1]
    assert float(final[1]) == pytest.approx(1.0, abs=1e-6)
    pos = list(csv.reader(open(tmp_path / "position_density.csv")))
    assert pos[0] == ["t", "x", "density"]


def test_svg_outputs_are_valid_xml(tmp_path):
    import xml.etree.ElementTree as ET
    assert main(["figures", "--figure", "2", "--outdir", str(tmp_path)]) == 0
    for name in os.listdir(tmp_path):
        if name.endswith(".svg"):
            root = ET.fromstring((tmp_path / name).read_text())
            assert root.tag.endswith("svg")
            assert any(child.tag.endswith("polyline") for child in root)


def _python(*args):
    """A fresh interpreter on this checkout's source."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def test_unitary_boundary_leakage_is_a_numerical_failure(tmp_path):
    # a step barrier leaks past the edge absorbers: exit 3 with one line
    run = _python("-m", "qreflect.cli", "unitary", "--potential", "step", "--V0", "0.3",
                  "--outdir", str(tmp_path))
    assert run.returncode == 3
    assert run.stderr.startswith("numerical failure: edge absorbers removed")
    assert len(run.stderr.strip().splitlines()) == 1 and "Traceback" not in run.stderr


def test_import_leaves_scipy_special_unloaded():
    run = _python("-c", "import sys, qreflect, qreflect.cli; "
                        "print('scipy.special' in sys.modules)")
    assert run.returncode == 0 and run.stdout.strip() == "False"


def test_qsd_p_coupling_grid_holds_the_ensemble_spread(tmp_path, monkeypatch):
    # seed 8 of this run put 1.7e-6 of its probability in the outer 1/16 of a
    # grid sized 8 sigma + 4 |x_bar|; the grid now spans 8 sd of the spread
    worst, moments = [0.0], qsd.position_moments

    def edge_spy(values, grid, hbar):
        for row in values:
            rho, edge = np.abs(row) ** 2, grid.n_points // 16
            worst[0] = max(worst[0], float((rho[:edge].sum() + rho[-edge:].sum()) / rho.sum()))
        return moments(values, grid, hbar)

    monkeypatch.setattr(qsd, "position_moments", edge_spy)
    assert main(["qsd", "--coupling", "p", "--D_p", "1", "--level", "wavefunction",
                 "--n_traj", "8", "--seed", "3", "--outdir", str(tmp_path)]) == 0
    assert 0.0 < worst[0] < 1e-12


def test_qsd_closure_breakdown_is_a_numerical_failure(tmp_path, capsys):
    # explicit Euler on Var p' = -8 D_p Var p^2 needs dt < 1 / (8 D_p Var p) = 5e-5
    # here; the default dt = 0.005 drives Var p negative in the first step
    assert main(["qsd", "--coupling", "p", "--D_p", "1", "--level", "moments",
                 "--sigma", "0.01", "--n_traj", "4", "--outdir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == ("numerical failure: variances must stay positive (closure inconsistency) "
                   "for seed 1234 at step 1\n")
    assert not list(tmp_path.glob("trajectory_*.csv"))


def test_qsd_closure_breakdown_hints_at_the_euler_bound(tmp_path, capsys):
    assert main(["qsd", "--coupling", "p", "--D_p", "1", "--level", "moments",
                 "--sigma", "0.01", "--n_traj", "4", "--outdir", str(tmp_path)]) == 3
    assert capsys.readouterr().out == (
        "hint: explicit moment steps need --dt below 5e-05 here\n")
    assert main(["qsd", "--coupling", "p", "--D_p", "1", "--level", "moments",
                 "--sigma", "0.01", "--n_traj", "4", "--dt", "4e-5",
                 "--outdir", str(tmp_path)]) == 0


@pytest.mark.parametrize("args", [
    # the conditional density at an improbable P overflows
    ["model2", "--M", "1000", "--Sigma", "50", "--sigma", "1", "--D", "1e-8",
     "--tau", "100", "--P", "0.999"],
    # V^2 overflows at V0 = 1e200
    ["model1", "--coupling", "x", "--D", "1", "--V0", "1e200"],
])
def test_non_finite_density_is_a_numerical_failure(tmp_path, args):
    run = _python("-m", "qreflect.cli", *args, "--outdir", str(tmp_path))
    assert run.returncode == 3 and "Traceback" not in run.stderr
    assert run.stderr.strip().splitlines()[-1] == (
        "numerical failure: density has non-finite entries")
    assert not list(tmp_path.glob("*.csv"))


def test_model1_overflow_prints_no_numpy_warning(tmp_path):
    # V^2 overflows at V0 = 1e200; the finite check reports it, numpy stays quiet
    run = _python("-m", "qreflect.cli", "model1", "--coupling", "x", "--D", "1",
                  "--V0", "1e200", "--outdir", str(tmp_path))
    assert run.returncode == 3 and "RuntimeWarning" not in run.stderr
    assert run.stderr.strip().splitlines()[-1] == (
        "numerical failure: density has non-finite entries")


# zero, tiny, huge and negative values: a mantissa times a power of ten
_any_scale = st.builds(lambda mantissa, exponent: mantissa * 10.0**exponent,
                       st.floats(-10.0, 10.0), st.integers(-330, 300))


@settings(max_examples=40, deadline=None)
@given(coupling=st.sampled_from(["x", "p"]), strength=_any_scale,
       sigma=st.none() | _any_scale, dt=st.none() | _any_scale,
       t_final=st.none() | _any_scale, n_traj=st.integers(1, 4))
# sigma^2 overflowed in PhysicalParams; sigma^2 underflowed to a zero division;
# t_final / dt steps overflowed an int and would not fit in memory; argparse took
# -1e-05 for a flag and printed a two-line usage error
@example(coupling="x", strength=1.0, sigma=1e200, dt=None, t_final=None, n_traj=1)
@example(coupling="p", strength=1.0, sigma=1e-200, dt=None, t_final=None, n_traj=2)
@example(coupling="x", strength=1.0, sigma=None, dt=1e-300, t_final=None, n_traj=1)
@example(coupling="p", strength=1.0, sigma=None, dt=1e-30, t_final=1e300, n_traj=4)
@example(coupling="x", strength=1.0, sigma=None, dt=None, t_final=-1e-05, n_traj=1)
def test_qsd_moments_inputs_end_in_a_documented_exit_code(coupling, strength, sigma, dt,
                                                          t_final, n_traj):
    args = ["qsd", "--level", "moments", "--coupling", coupling,
            "--D" if coupling == "x" else "--D_p", repr(strength), "--n_traj", str(n_traj)]
    for flag, value in (("--sigma", sigma), ("--dt", dt), ("--t_final", t_final)):
        if value is not None:
            args += [flag, repr(value)]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as outdir, warnings.catch_warnings(), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")  # a numpy warning would be a stray stderr line
        rc = main(args + ["--outdir", outdir])
    assert rc in (0, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1


@settings(max_examples=30, deadline=None)
@given(steady=st.booleans(), D=_any_scale, Sigma=_any_scale,
       M=st.none() | _any_scale, sigma=st.none() | _any_scale, a=st.none() | _any_scale,
       V0=st.none() | _any_scale, tau=st.none() | _any_scale, P=st.none() | _any_scale)
# a^2, M^2 and P^2 overflowed (tracebacks); V^2 overflowed with a numpy warning;
# Sigma^2 underflowed to a zero division; a panel count overflowed an int and
# was reported as a config error; (P + delta)^2 - P^2 cancelled at large P; the
# u-integral overflowed at a huge D; the tail cutoff overflowed at a tiny D
@example(steady=True, D=1.0, Sigma=0.0, M=None, sigma=None, a=1e300, V0=None, tau=None,
         P=None)
@example(steady=True, D=1.0, Sigma=0.0, M=1e300, sigma=None, a=None, V0=None, tau=None,
         P=None)
@example(steady=True, D=1.0, Sigma=0.0, M=None, sigma=None, a=None, V0=None, tau=None,
         P=1e300)
@example(steady=True, D=1.0, Sigma=0.0, M=None, sigma=None, a=None, V0=1e200, tau=None,
         P=None)
@example(steady=False, D=1.0, Sigma=1e-200, M=None, sigma=None, a=None, V0=None, tau=None,
         P=None)
@example(steady=False, D=0.0, Sigma=1e100, M=None, sigma=None, a=None, V0=None, tau=1e30,
         P=None)
@example(steady=True, D=1.0, Sigma=0.0, M=None, sigma=None, a=None, V0=None, tau=None,
         P=-1e20)
@example(steady=False, D=1e43, Sigma=0.1, M=None, sigma=None, a=None, V0=None, tau=None,
         P=0.0)
@example(steady=False, D=1e-301, Sigma=1.0, M=None, sigma=None, a=None, V0=None, tau=None,
         P=None)
def test_model2_inputs_end_in_a_documented_exit_code(steady, D, Sigma, M, sigma, a, V0,
                                                     tau, P):
    # the figure-4 target, one D value; each drawn flag overrides it
    args = ["model2", "--M=10", "--sigma=100", f"--D={D!r}",
            "--steady-target=true" if steady else f"--Sigma={Sigma!r}"]
    for flag, value in (("M", M), ("sigma", sigma), ("a", a), ("V0", V0), ("tau", tau),
                        ("P", P)):
        if value is not None:
            args.append(f"--{flag}={value!r}")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as outdir, warnings.catch_warnings(), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")  # a numpy warning would be a stray stderr line
        rc = main(args + ["--outdir", outdir])
    assert rc in (0, 2, 3, 4)
    assert len(err.getvalue().splitlines()) <= 1

@pytest.mark.parametrize("level", ["moments", "wavefunction"])
def test_qsd_summary_is_the_mean_of_the_trajectory_csvs(tmp_path, level):
    # bit for bit: records.mean(axis=0) adds the seeds in another order and can
    # differ from np.mean of a column in the last bit
    assert main(["qsd", "--coupling", "x", "--D", "1", "--level", level, "--n_traj", "8",
                 "--seed", "5", "--t_final", "1", "--outdir", str(tmp_path)]) == 0
    per_seed = [list(csv.reader(open(tmp_path / f"trajectory_{seed}.csv")))
                for seed in range(5, 13)]
    summary = list(csv.reader(open(tmp_path / "ensemble_summary.csv")))
    assert len(summary) == len(per_seed[0]) > 100 and summary[0] == per_seed[0][0]
    for i, row in enumerate(summary[1:], 1):
        assert row[0] == per_seed[0][i][0]
        for col in range(1, 6):
            column = [float(rows[i][col]) for rows in per_seed]
            assert row[col] == repr(float(np.mean(column)))


def test_qsd_wavefunction_records_moments_in_bulk(tmp_path, monkeypatch):
    # one moments call per record on the whole (8, N) ensemble, none per trajectory
    shapes, per_row, bulk = [], [], qsd.position_moments

    def bulk_spy(values, grid, hbar):
        shapes.append(values.shape)
        return bulk(values, grid, hbar)

    monkeypatch.setattr(qsd, "position_moments", bulk_spy)
    monkeypatch.setattr(qsd, "wavefunction_moments", lambda *a: per_row.append(a))
    assert main(["qsd", "--coupling", "x", "--D", "1", "--level", "wavefunction",
                 "--n_traj", "8", "--seed", "7", "--t_final", "2",
                 "--outdir", str(tmp_path)]) == 0
    n_records = len((tmp_path / "trajectory_7.csv").read_text().splitlines()) - 1
    assert n_records > 100 and not per_row
    assert shapes == [(8, shapes[0][1])] * n_records and shapes[0][1] >= 256
