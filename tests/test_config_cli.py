"""Flat config parsing, flag overrides, CLI outputs and exit codes."""

import argparse
import contextlib
import csv
import errno
import io
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qreflect import __version__, cli, qsd, run_moment_ensemble, run_wavefunction_ensemble
from qreflect.cli import build_config, main
from qreflect.config import (_ALIASES, COMMANDS, ConfigError, RunConfig, parse_config,
                             serialize_config)
from qreflect.errors import NumericalError
from qreflect.grids import SpatialGrid, SplitStepper


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


# every key away from its default
_CHANGED = dict(
    command="model2", m=2.0, hbar=0.5, p_bar=3.0, sigma=100.0, x_bar=7.5, D=0.25,
    D_p=1e-3, M=10.0, P_bar=-0.5, Sigma=2.0, steady_target=True,
    potential_kind="smeared_window", V0=0.02, a=0.3, window_L=4.0, n_points=2048,
    dt=0.01, t_final=12.0, tau=3.0, tau_inf=True, ell=0.7, threshold=0.05,
    D_sweep=(0.01, 1.0), Dp_sweep=(0.1, 0.2), a_list=(0.1, 0.4), P=0.3, coupling="p",
    level="moments", n_traj=8, seed=99, outdir="elsewhere", threads=2, strict=True,
    figure=4)


def test_roundtrip_serialize_parse():
    cfg = RunConfig(command="model2", M=10.0, sigma=100.0, D_sweep=(0.01, 1.0),
                    steady_target=True, tau_inf=True, seed=99)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    # every key away from its default: each is read back with its annotated type
    changed = _CHANGED
    assert sorted(changed) == sorted(f.name for f in fields(RunConfig))
    assert all(value != getattr(RunConfig(), key) for key, value in changed.items())
    again = parse_config(serialize_config(RunConfig(**changed)))
    assert {key: (type(getattr(again, key)), getattr(again, key)) for key in changed} == {
        key: (type(value), value) for key, value in changed.items()}


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
    assert [p.name for p in (tmp_path / "d").iterdir()] == ["resolved_config.txt"]
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


def _csv_text(records) -> bytes:
    header = "t,mean_x,mean_p,var_x,var_p,cov_xp\n"
    return (header + "".join(",".join(map(repr, row)) + "\n"
                             for row in records.tolist())).encode()


def test_qsd_wavefunction_steps_the_ensemble_as_one_array(tmp_path, monkeypatch):
    # one advance per record chunk for all 8 trajectories, not one per trajectory,
    # and every CSV equals the library run of its seed alone, byte for byte
    shapes, captured = [], []
    advance, ensemble = SplitStepper.advance, cli.run_wavefunction_ensemble

    def advance_spy(self, values, n_steps):
        shapes.append(values.shape)
        return advance(self, values, n_steps)

    def ensemble_spy(*args, **kwargs):
        captured.append((args, kwargs))
        return ensemble(*args, **kwargs)

    monkeypatch.setattr(SplitStepper, "advance", advance_spy)
    monkeypatch.setattr(cli, "run_wavefunction_ensemble", ensemble_spy)
    outdir = tmp_path / "cli"
    assert main(["qsd", "--coupling", "x", "--D", "1", "--level", "wavefunction",
                 "--n_traj", "8", "--seed", "7", "--t_final", "2",
                 "--outdir", str(outdir)]) == 0
    (psi0, env, params, dt, n_steps, seeds, record_every), kwargs = captured[0]
    assert kwargs == {"workers": 1}  # the default --threads 1 forks nothing
    assert record_every > 1 and seeds == list(range(7, 15))
    assert shapes == [(8, psi0.grid.n_points)] * math.ceil(n_steps / record_every)
    for seed in seeds:
        (series,) = run_wavefunction_ensemble(psi0, env, params, dt, n_steps, [seed],
                                              record_every)
        assert (outdir / f"trajectory_{seed}.csv").read_bytes() == _csv_text(series)


def _moment_core_shapes(monkeypatch) -> list:
    """The shape of the increments of every moment-core call from here on, in order."""
    shapes, core = [], qsd._moment_records

    def core_spy(mom, second, gains, m, dt, dBs, record_every):
        shapes.append(dBs.shape)
        return core(mom, second, gains, m, dt, dBs, record_every)

    monkeypatch.setattr(qsd, "_moment_records", core_spy)
    return shapes


@pytest.mark.parametrize("coupling, flag", [("x", "--D"), ("p", "--D_p")])
def test_qsd_moments_steps_the_ensemble_as_one_array(tmp_path, monkeypatch, coupling, flag):
    # one core call for all 24 trajectories, not one per trajectory, and every CSV
    # equals the library run of its seed alone, byte for byte
    captured, ensemble = [], cli.run_moment_ensemble

    def ensemble_spy(*args):
        captured.append(args)
        return ensemble(*args)

    shapes = _moment_core_shapes(monkeypatch)
    monkeypatch.setattr(cli, "run_moment_ensemble", ensemble_spy)
    outdir = tmp_path / "cli"
    assert main(["qsd", "--coupling", coupling, flag, "1", "--level", "moments",
                 "--n_traj", "24", "--seed", "7", "--outdir", str(outdir)]) == 0
    mom0, env, params, dt, n_steps, seeds, record_every = captured[0]
    assert seeds == list(range(7, 31)) and n_steps == 1000
    assert shapes == [(24, n_steps)]
    for seed in seeds:
        (series,) = run_moment_ensemble(mom0, env, params, dt, n_steps, [seed], record_every)
        assert (outdir / f"trajectory_{seed}.csv").read_bytes() == _csv_text(series)


def test_qsd_moments_default_run_steps_128_seeds_as_one_array(tmp_path, monkeypatch):
    # at the default 1000 steps one block holds every seed: one core call
    shapes = _moment_core_shapes(monkeypatch)
    assert main(["qsd", "--coupling", "x", "--D", "1", "--level", "moments",
                 "--n_traj", "128", "--seed", "3", "--outdir", str(tmp_path)]) == 0
    assert shapes == [(128, 1000)]
    assert len(list(tmp_path.glob("trajectory_*.csv"))) == 128


@pytest.mark.parametrize("args, message", [
    # the periodic grid is too small for the packet: on a 256-point grid, 25.6 wide,
    # the packet's free spreading before it localizes at D = 0.001 reaches the edge of
    # every seed's frame at t = 4.9, and seed 38's the most
    (["qsd", "--coupling", "x", "--D", "0.001", "--t_final", "8", "--level", "wavefunction",
      "--n_traj", "32", "--seed", "21"], "seed 38 holds probability"),
    # t_final < t_loc leaves no record time in the fit window of a 64-seed run
    (["qsd", "--D", "1", "--level", "moments", "--n_traj", "64", "--t_final", "0.5"],
     "fit window"),
    # 5e300 steps: the increments would not fit in memory
    (["qsd", "--D", "1", "--level", "moments", "--dt", "1e-300"], "steps exceeds 1000000"),
    # the grid that the center's drift between two records needs by t_final = 100
    # does not fit in --n_points
    (["qsd", "--coupling", "x", "--D", "1", "--level", "wavefunction", "--n_traj", "32",
      "--seed", "21", "--t_final", "100", "--n_points", "512"],
     "--n_points 512 is below the 1024 points"),
])
def test_qsd_fails_before_writing_trajectories(tmp_path, capsys, monkeypatch, args, message):
    if message.startswith("seed 38"):  # qsd.grid_for's grid holds every seed: narrow it
        monkeypatch.setattr(qsd, "grid_for", lambda *_: SpatialGrid(-12.8, 12.8, 256))
    assert main(args + ["--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and message in err
    assert not list(tmp_path.glob("trajectory_*.csv"))


def _fork_spy(monkeypatch) -> list:
    """The pid of every child forked from here on, as the parent sees it."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def _cpus(monkeypatch, n: int) -> None:
    """Report n CPUs to the worker count, so that a split forks on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _poison_empty(monkeypatch) -> None:
    """np.empty fills a float array with nan, so that a row no slice filled cannot
    pass for the bytes that a freed array of the same size left behind."""
    empty = np.empty

    def poisoned(shape, dtype=float, order="C", **kwargs):
        a = empty(shape, dtype, order, **kwargs)
        if a.dtype.kind in "fc":
            a.fill(np.nan)
        return a

    monkeypatch.setattr(np, "empty", poisoned)


def _outputs(outdir) -> dict:
    """Every file of a run but resolved_config.txt, which records the --threads value."""
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())
            if p.name != "resolved_config.txt"}


@pytest.mark.parametrize("cpus", [None, 64])
def test_threads_forks_one_child_per_slice_past_the_first(tmp_path, monkeypatch, cpus):
    # --threads 1000000 must not start a million processes: min(threads, rows, CPUs)
    # slices, the first run by the calling process; the 3 seeds step in slices, then
    # their 3 trajectory files and the summary are written in slices
    if cpus is not None:
        _cpus(monkeypatch, cpus)
    pids = _fork_spy(monkeypatch)
    assert main(["qsd", "--level", "wavefunction", "--D", "1", "--n_traj", "3",
                 "--t_final", "0.5", "--threads", "1000000", "--outdir", str(tmp_path)]) == 0
    cpus = len(os.sched_getaffinity(0))
    assert len(pids) == (min(3, cpus) - 1) + (min(4, cpus) - 1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("args", [
    ["model2", "--M", "10", "--sigma", "100", "--steady-target", "true", "--D_sweep", "0.1,1"],
    ["model1"],  # one D: one row
    ["figures", "--figure", "1"],
])
def test_other_commands_fork_nothing(tmp_path, monkeypatch, args):
    # nothing forks before the write stage: these compute in one process, and only
    # their files split, in min(2, files, CPUs) = 2 slices
    _cpus(monkeypatch, 8)
    pids = _fork_spy(monkeypatch)
    before, write = [], cli._write

    def write_spy(outdir, files, *rest):
        before.append(len(pids))
        write(outdir, files, *rest)

    monkeypatch.setattr(cli, "_write", write_spy)
    assert main(args + ["--threads", "2", "--outdir", str(tmp_path)]) == 0
    assert before == [0, 0] and len(pids) == 1


@pytest.mark.parametrize("coupling, flag", [("x", "--D"), ("p", "--D_p")])
def test_wavefunction_outputs_identical_across_thread_counts(tmp_path, capsys, monkeypatch,
                                                            coupling, flag):
    # 5 seeds split 3 + 2, 2 + 2 + 1 and, with more workers than seeds, 1 each; their
    # 6 files split 3 + 3, 2 + 2 + 2 and 1 each
    _cpus(monkeypatch, 8)
    _poison_empty(monkeypatch)
    pids = _fork_spy(monkeypatch)
    base = ["qsd", "--coupling", coupling, flag, "1", "--level", "wavefunction",
            "--n_traj", "5", "--seed", "11", "--t_final", "0.5"]
    runs = []
    for threads in ("1", "2", "3", "8"):
        outdir = tmp_path / threads
        assert main(base + ["--threads", threads, "--outdir", str(outdir)]) == 0
        runs.append((capsys.readouterr(), _outputs(outdir)))
    assert len(pids) == 0 + (1 + 1) + (2 + 2) + (4 + 5)
    assert len(runs[0][1]) == 6 and all(run == runs[0] for run in runs)


@pytest.mark.parametrize("args, points", [
    # 65 files split 33 + 32, 22 + 22 + 21 and 8 + ... + 9
    (["qsd", "--level", "moments", "--coupling", "x", "--D", "1", "--n_traj", "64"], 1),
    (["qsd", "--level", "moments", "--coupling", "p", "--D_p", "1", "--n_traj", "64"], 1),
    # a model1 sweep takes one batched call: its 6 files split 3 + 3, 2 + 2 + 2, 1 each
    (["model1", "--coupling", "x", "--D_sweep", "0.001,0.01,0.1", "--sigma", "10"], 1),
    (["figures", "--figure", "2"], 1),  # a model1 sweep of 5 D_p values
    # a model2 sweep, figures 1 and 3: one process computes, the files split
    (["model2", "--M", "10", "--sigma", "100", "--steady-target", "true", "--D_sweep", "0.1,1"],
     1),
    (["figures", "--figure", "1"], 1),
    (["figures", "--figure", "3"], 1),
])
def test_outputs_identical_across_thread_counts(tmp_path, capsys, monkeypatch, args, points):
    # each stage forks min(threads, rows, CPUs) - 1 children: only the files split here,
    # as every command computes in one process (points = 1)
    _cpus(monkeypatch, 8)
    _poison_empty(monkeypatch)
    pids = _fork_spy(monkeypatch)
    runs = []
    for threads in ("1", "2", "3", "8"):
        outdir = tmp_path / threads
        assert main(args + ["--threads", threads, "--outdir", str(outdir)]) == 0
        runs.append((capsys.readouterr(), _outputs(outdir)))
    files = len(runs[0][1])
    assert len(pids) == sum(min(t, rows, 8) - 1 for t in (1, 2, 3, 8) for rows in (points, files))
    assert files > 1 and all(run == runs[0] for run in runs)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_writer_slice_reruns_in_one_process(tmp_path, capsys, monkeypatch):
    # a writer child that fails leaves the files to a rerun in the calling process
    _cpus(monkeypatch, 8)
    args = ["qsd", "--level", "moments", "--D", "1", "--n_traj", "64", "--seed", "5"]
    assert main(args + ["--outdir", str(tmp_path / "1")]) == 0
    one = capsys.readouterr()
    parent = os.getpid()

    def child_fails(*args, **kwargs):
        if os.getpid() != parent:
            raise OSError("no space left in a child")
        return open(*args, **kwargs)

    monkeypatch.setattr(cli, "open", child_fails, raising=False)
    pids = _fork_spy(monkeypatch)
    assert main(args + ["--threads", "3", "--outdir", str(tmp_path / "3")]) == 0
    assert len(pids) == 2 and capsys.readouterr() == one
    assert _outputs(tmp_path / "3") == _outputs(tmp_path / "1")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_writer_prints_the_fitted_rate_once(tmp_path, monkeypatch):
    # stdout on a pipe is block-buffered, and a forked writer inherits the unflushed
    # fitted-rate line: a child that flushed it on exit would print it twice
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    run = _python("-c", "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
                        "from qreflect import cli; sys.exit(cli.main(sys.argv[1:]))",
                  "qsd", "--level", "moments", "--D", "1", "--n_traj", "64", "--threads",
                  "2", "--outdir", str(tmp_path))
    assert run.returncode == 0 and run.stderr == ""
    assert run.stdout.count("fitted total momentum fluctuation rate: ") == 1
    assert len(list(tmp_path.glob("trajectory_*.csv"))) == 64


@pytest.mark.parametrize("args, message", [
    (["model1", "--coupling", "x", "--D_sweep", "0,1"], "--D_sweep takes positive values, not 0"),
    (["model1", "--coupling", "p", "--Dp_sweep", "1,0"], "--Dp_sweep takes positive values, not 0"),
    (["model2", "--M", "10", "--sigma", "100", "--Sigma", "3", "--D_sweep", "0,1"],
     "--D_sweep takes positive values, not 0"),
])
def test_a_sweep_point_off_the_log_axis_fails_before_any_output(tmp_path, capsys, args,
                                                                message):
    # total.svg plots a sweep on a log x axis: a 0 ended in a ValueError traceback
    # (exit 1) from log10(0), after every CSV was written
    assert main(args + ["--outdir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"config error: {message}: total.svg plots the sweep on a " \
                                "log axis\n"
    assert [p.name for p in tmp_path.iterdir()] == ["resolved_config.txt"]


@pytest.mark.parametrize("args, message", [
    (["model2", "--M", "10", "--sigma", "100", "--steady-target", "true", "--D_sweep", "1,-1"],
     "diffusion constants must be nonnegative"),
    (["figures", "--figure", "3", "--a_list", "0.1,0"], "requires a > 0"),
])
def test_a_bad_later_sweep_entry_fails_before_any_output(tmp_path, capsys, args, message):
    # each wrote the first entry's CSV (and model2 its cutoff line) before failing
    assert main(args + ["--outdir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1 and message in err
    assert [p.name for p in tmp_path.iterdir()] == ["resolved_config.txt"]


def test_an_underflowing_decay_rate_fails_with_its_cause(tmp_path, capsys):
    # D (p - p_bar)^2 / 12 m^2 hbar^2 underflows at D = 1e-320, so at infinite tau the
    # x-coupling s-integral does not converge at any p: exit 3, naming that cause
    assert main(["model1", "--coupling", "x", "--D", "1e-320", "--tau_inf", "true",
                 "--outdir", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "numerical failure: integral does not converge at p = -3, D = 1e-320: the decay "
        "rate D (p - p_bar)^2 / 12 m^2 hbar^2 is zero at infinite tau (the rate "
        "underflows)\n")
    assert [p.name for p in tmp_path.iterdir()] == ["resolved_config.txt"]


def test_a_later_sweep_point_that_fails_numerically_fails_before_any_output(tmp_path, capsys):
    # D = 1e300 leaves the s-integral unresolved: D = 1's CSV and cutoff line were
    # written before it failed
    args = ["model2", "--M", "10", "--sigma", "100", "--steady-target", "true",
            "--D_sweep", "1,1e300", "--outdir", str(tmp_path)]
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert err.startswith("numerical failure: oscillatory integral")
    assert [p.name for p in tmp_path.iterdir()] == ["resolved_config.txt"]


_EDGE = ("numerical failure: density at the lower limit p = -8 is 0.0628 of the peak (> 0.02), "
         "so the total is truncated; total_reflected's p_min argument sets a lower limit")
_OVERFLOW = "config error: (2 m hbar D_p)^2 overflows against (p - p_bar)^2, got D_p = "


@pytest.mark.parametrize("args, code, last", [
    # D = 1e3's total is truncated at p = -8, between two values that pass
    (["model1", "--coupling", "x", "--D_sweep", "0.01,1e3,0.1"], 3, _EDGE),
    # 1e153's density passes on [-3, 3] and its total overflows on [-8, 0]; 1e300's
    # density overflows, but the densities come first
    (["model1", "--coupling", "p", "--Dp_sweep", "1,1e153,10"], 2, _OVERFLOW + "1e+153"),
    (["model1", "--coupling", "p", "--Dp_sweep", "1,1e153,1e300"], 2, _OVERFLOW + "1e+300"),
    (["model2", "--M", "10", "--sigma", "100", "--steady-target", "true",
      "--D_sweep", "1,1e300,10"], 3,
     "numerical failure: oscillatory integral: 865 panel(s) still unresolved after 12 "
     "bisections, near s = 0"),
])
def test_a_batched_sweep_fails_as_a_call_per_value_does(tmp_path, capsys, args, code, last):
    # a sweep's densities and totals take one batched call each; when it fails, the
    # values rerun one at a time, so the exit code and stderr line are those of a
    # call per value: the first failing value's own
    assert main(args + ["--outdir", str(tmp_path)]) == code
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == last
    assert [p.name for p in tmp_path.iterdir()] == ["resolved_config.txt"]


def _nan_increment(monkeypatch, seed: int, index: int) -> None:
    """Seed's increment index becomes nan, so its noise factor fails at step index + 1."""
    increments = qsd._block_increments

    def patched(block, n_steps, dt):
        dBs = increments(block, n_steps, dt)
        dBs[[r for r, s in enumerate(block) if s == seed], index] = np.nan
        return dBs

    monkeypatch.setattr(qsd, "_block_increments", patched)


@pytest.mark.parametrize("case", ["edge", "noise"])
def test_forked_failure_reports_as_one_process(tmp_path, capsys, monkeypatch, case):
    # a slice that fails makes the ensemble rerun in one process: the same exit code
    # and stderr line as --threads 1, no trajectory CSV and no child left behind.  The
    # one child is the ensemble's: the run fails before its files are written in slices
    _cpus(monkeypatch, 2)
    if case == "edge":  # every seed's spread reaches the edge of a grid too narrow for it
        monkeypatch.setattr(qsd, "grid_for", lambda *_: SpatialGrid(-12.8, 12.8, 256))
        args = ["qsd", "--coupling", "x", "--D", "0.001", "--t_final", "8", "--level",
                "wavefunction", "--n_traj", "32", "--seed", "21"]
        code, message = 2, "seed 38 holds probability"
    else:  # seed 23's noise factor fails in the second slice
        _nan_increment(monkeypatch, 23, 6)
        args = ["qsd", "--D", "1", "--t_final", "0.5", "--level", "wavefunction",
                "--n_traj", "4", "--seed", "21"]
        code, message = 3, "non-finite for seed 23 at step 7"
    pids = _fork_spy(monkeypatch)
    runs = []
    for threads in ("1", "2"):
        outdir = tmp_path / threads
        runs.append((main(args + ["--threads", threads, "--outdir", str(outdir)]),
                     capsys.readouterr()))
        assert not list(outdir.glob("trajectory_*.csv"))
    assert len(pids) == 1 and runs[0] == runs[1]
    rc, (_, err) = runs[0]
    assert rc == code and len(err.strip().splitlines()) == 1 and message in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("args, needed", [
    (["--D", "1", "--t_final", "50", "--n_points", "256"], 512),
    (["--coupling", "p", "--D_p", "0.01"], 65536),
])
def test_qsd_grid_beyond_n_points_fails_before_any_step(tmp_path, capsys, monkeypatch, args,
                                                        needed):
    # the point count was capped at --n_points with dx kept, so the grid came out
    # narrower than the spread it was sized for: these stepped to t = 17.67 and
    # t = 157.5 before the edge check stopped them
    calls = []
    monkeypatch.setattr(cli, "run_wavefunction_ensemble", lambda *a, **k: calls.append(a))
    assert main(["qsd", "--level", "wavefunction", "--n_traj", "1", *args,
                 "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: --n_points ")
    assert f"below the {needed} points" in err[0]
    assert calls == []


@pytest.mark.parametrize("args, needed", [
    (["--D", "1", "--t_final", "1e150"], "2^747"),
    (["--coupling", "p", "--D_p", "1", "--t_final", "1e100"], "2^339"),
])
def test_qsd_grid_count_past_2_to_the_32_prints_as_a_power(tmp_path, capsys, args, needed):
    # the count was printed in full: 225 digits and a 326-byte line at t_final = 1e150
    assert main(["qsd", "--level", "wavefunction", *args, "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and len(err) < 140
    assert f"is below the {needed} points the grid needs" in err


def test_qsd_wavefunction_walk_longer_than_the_grid_runs(tmp_path, monkeypatch):
    # 4 sd of each center's walk, 4 sqrt(2 D t^3 / 3), reach 1,155 by t = 50: rows that
    # follow their packets step on 512 points, 51.2 wide, where holding the walk needed 32,768
    grids = []
    grid_for = qsd.grid_for
    monkeypatch.setattr(qsd, "grid_for", lambda *a: grids.append(grid_for(*a)) or grids[-1])
    assert main(["qsd", "--coupling", "x", "--D", "1", "--level", "wavefunction",
                 "--n_traj", "2", "--seed", "0", "--t_final", "50",
                 "--outdir", str(tmp_path)]) == 0
    assert [g.n_points for g in grids] == [512]
    records = np.loadtxt(tmp_path / "trajectory_0.csv", delimiter=",", skiprows=1)
    # seed 0's center ends at <x> = 247, far past the grid's half-width of 25.6
    assert records[-1, 0] >= 50.0 and records[-1, 1] > 200.0 and np.all(records[:, 3] < 1.1)


@pytest.mark.parametrize("args", [
    ["--D", "1", "--t_final", "1e300"],
    ["--coupling", "p", "--D_p", "1", "--t_final", "1e160", "--dt", "1e155"],
])
def test_qsd_wavefunction_spread_overflow_is_a_config_error(tmp_path, capsys, args):
    # t_final^1.5 (x) or t_final^2 (p) overflows while sizing the grid
    assert main(["qsd", "--level", "wavefunction", *args, "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: the spread by t_final")


@pytest.mark.parametrize("args, message", [
    # (2 m hbar D_p)^2 overflows a float
    (["model1", "--coupling", "p", "--D_p", "1e300"], "(2 m hbar D_p)^2 overflows"),
    # the grid spacing squared overflows in the CFL time
    (["unitary", "--t_final", "1e300"], "the grid for t_final = 1e+300 overflows"),
    # the grid's half-width p_bar t_final / m overflows
    (["unitary", "--t_final", "1e308", "--p_bar", "10"], "the grid for t_final"),
    # 1e10 split steps
    (["unitary", "--dt", "1e-9"], "steps exceeds 1000000"),
    # p_bar^2 underflows, so E = p_bar^2 / 2m is 0
    (["unitary", "--p_bar", "1e-200"], "p_bar^2 must be finite and nonzero"),
    (["qsd", "--level", "moments", "--p_bar", "1e-200", "--D", "1", "--n_traj", "1"],
     "p_bar^2 must be finite and nonzero"),
    (["model1", "--p_bar", "1e-200", "--coupling", "p", "--D_p", "1"],
     "p_bar^2 must be finite and nonzero"),
    # p_bar^2 and m^2 are finite, but E = p_bar^2 / 2m underflows to 0
    (["unitary", "--p_bar", "1e-150", "--m", "1e150"], "E = p_bar^2 / 2m must be finite"),
    # p_bar^2 and m^2 overflow a float; hbar^2 underflows to 0
    (["timescales", "--p_bar", "1e200", "--D", "1"], "p_bar^2 must be finite and nonzero"),
    (["timescales", "--m", "1e300", "--D", "1"], "m^2 must be finite and nonzero"),
    (["timescales", "--hbar", "1e-300", "--D", "1"], "hbar^2 must be finite and nonzero"),
    # (2 m hbar D_p)^2 is finite, but times (p - p_bar)^2 it overflows (a numpy warning)
    (["model1", "--coupling", "p", "--D_p", "5e153"], "(2 m hbar D_p)^2 overflows"),
    # the default dt resolves a tall barrier's phase V dt / hbar, so these need more than
    # 1e6 steps; without the hbar / max|V| term they ran with 340 and 1e301 rad a step
    (["unitary", "--potential=step", "--V0=1e4"], "steps exceeds 1000000"),
    (["unitary", "--potential=step", "--V0=1e6"], "steps exceeds 1000000"),
    (["unitary", "--potential=gaussian", "--V0=1e300", "--a=1e-5"], "steps exceeds 1000000"),
    # 6 sigma rounds away next to the start distance 6 sigma + 6 a + L + 1, which put the
    # packet on the grid's edge
    (["unitary", "--potential=gaussian", "--t_final=1.0", "--a=1.9e67"], "--sigma 1 rounds away"),
    (["unitary", "--sigma=1.2e-35", "--t_final=1e-150"], "--sigma 1.2e-35 rounds away"),
    # propagate checks hbar / max|V| as the default dt does: at this dt the barrier
    # phase turned 10 rad a step, and the run gave reflected 0.7403 (0.7398 at 5e-5)
    (["unitary", "--potential=step", "--V0=1e4", "--dt=1e-3"],
     "exceeds 0.1*min(t_E, hbar/max|V|, cfl) = 1e-05"),
    # D_p p_bar^2 (qsd's coupling time) and D p_bar^2 (model2's cutoff T_d_p) underflow
    # to 0; both divisions ended in a ZeroDivisionError traceback, model2's after its CSV
    (["qsd", "--level", "moments", "--coupling", "p", "--D_p", "5e-324", "--p_bar", "0.5",
      "--n_traj", "1"], "leave the normal float range"),
    (["model2", "--M", "10", "--sigma", "100", "--Sigma", "3", "--D", "5e-324",
      "--p_bar", "0.5"], "leave the normal float range"),
])
def test_overflow_and_step_cap_are_config_errors(tmp_path, args, message):
    start = time.perf_counter()
    run = _python("-m", "qreflect.cli", *args, "--outdir", str(tmp_path))
    assert time.perf_counter() - start < 10.0
    assert run.returncode == 2 and "Traceback" not in run.stderr
    err = run.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and message in err[0]
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("outdir", ["file", "under_file"])
def test_an_outdir_that_cannot_be_made_is_a_config_error(tmp_path, capsys, outdir):
    (tmp_path / "file").write_text("")
    path = tmp_path / "file" / "x" if outdir == "under_file" else tmp_path / "file"
    assert main(["timescales", "--outdir", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: cannot write outdir {str(path)!r}")


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("args, name, files", [
    (["timescales"], "timescales.csv", 1),
    (["model1"], "density.svg", 2),
])
def test_an_output_that_cannot_be_written_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                           args, name, files, threads):
    # a directory in the way ended in an IsADirectoryError traceback (exit 1), after
    # timescales had printed its table; the files are written under temporary names,
    # and renaming one onto the directory raises the line
    _cpus(monkeypatch, 8)
    pids = _fork_spy(monkeypatch)
    (tmp_path / name).mkdir()
    assert main(args + ["--threads", threads, "--outdir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"config error: cannot write {str(tmp_path / name)!r}: " \
                                "Is a directory\n"
    assert len(pids) == min(int(threads), files) - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("fault", ["directory", "disk full"])
def test_a_failed_write_leaves_no_partial_output(tmp_path, capsys, monkeypatch, fault, threads):
    # the sweep's two density CSVs come before density.svg, and were left behind (at
    # --threads 2 the rerun here wrote them again); a write that fails in the calling
    # process's slice kills the writer child, whose files go too
    _cpus(monkeypatch, 8)
    if fault == "directory":
        (tmp_path / "density.svg").mkdir()
        name, reason = "density.svg", "Is a directory"
    else:
        name, reason = "density_x_1.csv", os.strerror(errno.ENOSPC)

        def full(path, *args, **kwargs):
            if os.path.basename(path).startswith(f".{name}."):
                raise OSError(errno.ENOSPC, reason)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", full, raising=False)
    assert main(["model1", "--coupling", "x", "--D_sweep", "0.1,1", "--sigma", "10",
                 "--threads", threads, "--outdir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    lines = [line for line in err.splitlines() if not line.startswith("warning: ")]
    assert out == "" and lines == [f"config error: cannot write {str(tmp_path / name)!r}: "
                                   f"{reason}"]  # the warning: D t_z / p_bar^2 = 10 at D = 1
    left = {"resolved_config.txt"} | ({"density.svg"} if fault == "directory" else set())
    assert {p.name for p in tmp_path.iterdir()} == left
    assert all(not any(p.iterdir()) for p in tmp_path.iterdir() if p.is_dir())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("args, name", [
    (["model1", "--coupling", "p", "--Dp_sweep", "0.1,0.1000001"], "density_p_0.1.csv"),
    (["model2", "--M", "10", "--sigma", "100", "--steady-target", "true",
      "--D_sweep", "1,1.0000001"], "density_D1.csv"),
    (["figures", "--figure", "5", "--a_list", "0.1,0.1"], "total_vs_D_a0.1.csv"),
])
def test_sweep_values_that_share_a_file_name_fail_before_any_output(tmp_path, capsys, args,
                                                                    name):
    # values alike under %g wrote one file, the last point's, while the totals and the
    # plot listed both
    assert main(args + ["--outdir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"config error: two outputs are named {name!r}: sweep " \
                                "values that print alike under %g share a file\n"
    assert [p.name for p in tmp_path.iterdir()] == ["resolved_config.txt"]


@pytest.mark.parametrize("args", [
    ["model1", "--coupling", "p", "--D_p", "1", "--potential", "step"],
    ["model2", "--M", "10", "--Sigma", "1", "--potential", "step"],
])
def test_kernels_reject_a_step_barrier(tmp_path, capsys, args):
    assert main(args + ["--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and "'step'" in err[0]


@pytest.mark.parametrize("value", ["-1e10", "-2.5E-3", "-1e+2", "-3"])
def test_negative_number_parses_after_a_space(value):
    head = ["model2", "--M", "10", "--sigma", "100"]
    cfg = build_config(head + ["--P", value])
    assert cfg == build_config(head + [f"--P={value}"]) and cfg.P == float(value)


def _subparser_oracle() -> argparse.ArgumentParser:
    # the previous builder: one subparser per command, each with the whole option table
    parser = cli._Parser(prog="qreflect")
    parser.add_argument("--version", action="version", version=f"qreflect {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value configuration file")
        for key in cli._FLAG_KEYS:
            flags = [f"--{key}"]
            if "_" in key:
                flags.append(f"--{key.replace('_', '-')}")
            p.add_argument(*flags, dest=f"set_{key}", metavar="VALUE")
        for alias, target in _ALIASES.items():
            p.add_argument(f"--{alias}", dest=f"set_{target}", metavar="VALUE")
        p.add_argument("--conditional", dest="set_P", metavar="P")
    return parser


def _flag_argvs(conf):
    # every flag in its underscore spelling, every dashed spelling, every alias and
    # --conditional, a config file under a flag, and a negative number after a space
    values = {key: ",".join(map(repr, v)) if isinstance(v, tuple) else str(v)
              for key, v in _CHANGED.items()}
    values["P"] = "-1e3"
    underscore = [arg for key in cli._FLAG_KEYS for arg in (f"--{key}", values[key])]
    dashed = [arg for key in cli._FLAG_KEYS if "_" in key
              for arg in (f"--{key.replace('_', '-')}", values[key])]
    aliases = [arg for alias, key in _ALIASES.items() for arg in (f"--{alias}", values[key])]
    return [underscore, dashed, aliases + ["--conditional", "0.5"],
            ["--config", str(conf), "--D", "3"], []]


@pytest.mark.parametrize("command", COMMANDS)
def test_one_option_table_parses_as_the_subparsers_did(tmp_path, monkeypatch, command):
    conf = tmp_path / "run.conf"
    conf.write_text("Dp=0.5\ncoupling=p\nD=2\n")
    for argv in _flag_argvs(conf):
        got = build_config([command, *argv])
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_build_parser", _subparser_oracle)
            want = build_config([command, *argv])
        assert got == want and got.command == command
    for bad in ([], ["bogus"], [command, "--no_such_flag", "1"], [command, "extra"]):
        with pytest.raises(ConfigError):
            build_config(bad)
    with pytest.raises(SystemExit), contextlib.redirect_stdout(io.StringIO()) as out:
        build_config(["--version"])
    assert out.getvalue() == f"qreflect {__version__}\n"


def test_every_command_runs_with_its_defaults(tmp_path, capsys):
    # qsd needs a coupling strength, model2 a target mass and figures a figure number
    needs_input = {"qsd": "qsd needs D > 0", "model2": "model2 requires the target mass M",
                   "figures": "figures requires --figure N"}
    for command in COMMANDS:
        rc = main([command, "--outdir", str(tmp_path / command)])
        err = capsys.readouterr().err
        if command in needs_input:
            assert rc == 2 and err.startswith(f"config error: {needs_input[command]}")
            assert len(err.strip().splitlines()) == 1
        else:
            assert rc == 0 and err == "", (command, err)


def test_qsd_noise_factor_failure_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    def underflow(*args, **kwargs):
        raise NumericalError("norm^2 1e-320 after the noise factor for seed 1234 at step 7")

    monkeypatch.setattr(cli, "run_wavefunction_ensemble", underflow)
    rc = main(["qsd", "--D", "1", "--n_traj", "1", "--outdir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "numerical failure: norm^2 1e-320 after the noise factor for seed 1234 " \
                  "at step 7\n"
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("which", [0, 6])
def test_run_figures_rejects_an_unknown_figure(tmp_path, which):
    with pytest.raises(ConfigError, match="N in 1..5"):
        cli.run_figures(which, tmp_path / "out")
    assert not (tmp_path / "out").exists()


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
    # the CLI sizes its grid to hold the packet's travel and spread, so no flag makes
    # it leak; on half of that domain the packet reaches the edge absorbers: exit 3
    # with one line
    run = _python("-c", "import sys; from qreflect import cli, unitary; "
                        "grid = unitary.SpatialGrid; "
                        "unitary.SpatialGrid = lambda lo, hi, n: grid(lo / 2, hi / 2, n); "
                        "sys.exit(cli.main(sys.argv[1:]))",
                  "unitary", "--potential", "step", "--V0", "0.3", "--outdir", str(tmp_path))
    assert run.returncode == 3
    assert run.stderr.startswith("numerical failure: edge absorbers removed")
    assert len(run.stderr.strip().splitlines()) == 1 and "Traceback" not in run.stderr


def test_import_leaves_scipy_special_unloaded(tmp_path):
    # no scipy module at all: importing scipy.special alone costs about 22 MB and 0.2 s.
    # The conditional kernel (the Faddeeva function) and the smeared window (erf)
    # run without it too
    run = _python("-c", "import sys, qreflect, qreflect.cli; "
                        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run.returncode == 0 and run.stdout.strip() == "[]"
    run = _python("-c", "import sys; from qreflect.cli import main; out = sys.argv[1]; "
                        "assert main(['model2', '--M', '10', '--sigma', '100', '--D', '1', "
                        "'--steady-target', 'true', '--P', '0', '--outdir', out]) == 0; "
                        "assert main(['unitary', '--potential', 'smeared_window', "
                        "'--n_points', '512', '--t_final', '5', '--outdir', out]) == 0; "
                        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
                  str(tmp_path))
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "[]"


def test_import_leaves_process_pools_unloaded():
    # slices fork with os alone: importing multiprocessing costs about 14 ms
    run = _python("-c", "import sys, qreflect, qreflect.cli; "
                        "print(sorted(m for m in sys.modules "
                        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    assert run.returncode == 0 and run.stdout.strip() == "[]"


def test_python_dash_m_runs_the_cli(tmp_path):
    run = _python("-m", "qreflect", "timescales", "--outdir", str(tmp_path))
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "timescales.csv").read_text().startswith("name,value,")
    run = _python("-c", "import sys, qreflect, qreflect.cli; "
                        "print('qreflect.__main__' in sys.modules)")
    assert run.returncode == 0 and run.stdout.strip() == "False"


def test_timescale_identity_checks_survive_python_dash_o(tmp_path):
    # the identities fail here; python -O strips assert statements, so the check raises
    run = _python("-O", "-m", "qreflect", "timescales", "--D=5.8e-225", "--hbar=5e-97",
                  "--outdir", str(tmp_path))
    assert run.returncode == 2
    assert run.stderr == ("config error: a timescale or its identities leave the normal "
                          "float range\n")
    assert not (tmp_path / "timescales.csv").exists()


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


def test_model1_truncated_spectrum_names_only_what_exists(tmp_path, capsys):
    # the total at D = 1e3 is cut off at its range's lower limit; no flag widens that range
    assert main(["model1", "--coupling", "x", "--D_sweep", "1e-9,1e3",
                 "--outdir", str(tmp_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("warning: narrow-sideband validity ratio")
    assert err[1].startswith("numerical failure: density at the lower limit p = -8 is ")
    assert "p_min argument" in err[1] and "p_range" not in err[1]
    assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.svg"))


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
        rc, left = main(args + ["--outdir", outdir]), os.listdir(outdir)
    assert rc == 0 or set(left) <= {"resolved_config.txt"}  # a failed run writes no output
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
        rc, left = main(args + ["--outdir", outdir]), os.listdir(outdir)
    assert rc == 0 or set(left) <= {"resolved_config.txt"}  # a failed run writes no output
    assert rc in (0, 2, 3, 4)
    assert len(err.getvalue().splitlines()) <= 1


def _log_uniform(lo: float, hi: float):
    """10^e for e uniform on [lo, hi]."""
    return st.floats(lo, hi).map(lambda exponent: 10.0**exponent)


@settings(max_examples=30, deadline=None)
@given(coupling=st.sampled_from(["x", "p"]), strength=_log_uniform(-9.0, 3.0),
       sweep=st.none() | st.lists(_log_uniform(-9.0, 3.0), min_size=1, max_size=2)
       | st.tuples(_log_uniform(-9.0, 3.0), st.sampled_from([1.0, 1.0 + 1e-9]))
       .map(lambda pair: [pair[0], pair[0] * pair[1]]),  # a repeat, or two that print alike
       sigma=st.none() | _log_uniform(-6.0, 6.0), tau=st.none() | _log_uniform(-6.0, 6.0))
def test_model1_inputs_end_in_a_documented_exit_code(coupling, strength, sweep, sigma, tau):
    x = coupling == "x"
    args = ["model1", "--coupling", coupling, f"--{'D' if x else 'D_p'}={strength!r}"]
    if sweep is not None:
        args.append(f"--{'D_sweep' if x else 'Dp_sweep'}={','.join(map(repr, sweep))}")
    for flag, value in (("sigma", sigma), ("tau", tau)):
        if value is not None:
            args.append(f"--{flag}={value!r}")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as outdir, warnings.catch_warnings(), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")  # a numpy warning would be a stray stderr line
        rc, left = main(args + ["--outdir", outdir]), os.listdir(outdir)
    assert rc == 0 or set(left) <= {"resolved_config.txt"}  # a failed run writes no output
    assert rc in (0, 2, 3, 4)
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("warning: ")]
    assert len(lines) <= 1


def _sweeps(values):
    """Lists of one to three values, or a value and its repeat."""
    return (st.lists(values, min_size=1, max_size=3)
            | values.map(lambda value: [value, value]))


# 0, negatives, every scale, and the scales the figures use
_SWEEP_VALUES = (st.sampled_from([0.0, -0.0, -1.0, 0.1, 1.0]) | _any_scale
                 | _log_uniform(-3.0, 1.0))


def _documented_exit(args: list[str]) -> tuple[int, list[str]]:
    """(exit code, stderr lines) of main(args) run into a fresh outdir, after checking
    that a failed run leaves no file but resolved_config.txt."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as outdir, warnings.catch_warnings(), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")  # a numpy warning would be a stray stderr line
        rc, left = main(args + ["--outdir", outdir]), os.listdir(outdir)
    assert rc == 0 or set(left) <= {"resolved_config.txt"}  # a failed run writes no output
    assert rc in (0, 2, 3, 4)
    return rc, err.getvalue().splitlines()


@settings(max_examples=40, deadline=None)
# figures 3 and 5 read --a_list, so they are drawn more often
@given(figure=st.sampled_from([3, 5]) | st.integers(-1, 7)
       | st.sampled_from(["2.5", "three", "1e300", ""]),
       a_list=st.none() | _sweeps(_SWEEP_VALUES))
def test_figures_inputs_end_in_a_documented_exit_code(figure, a_list):
    args = ["figures", f"--figure={figure}"]
    if a_list is not None:
        args.append(f"--a_list={','.join(map(repr, a_list))}")
    assert len(_documented_exit(args)[1]) <= 1


@settings(max_examples=30, deadline=None)
@given(sweep=_sweeps(_SWEEP_VALUES), steady=st.booleans(), Sigma=_log_uniform(-3.0, 3.0))
def test_model2_sweeps_end_in_a_documented_exit_code(sweep, steady, Sigma):
    args = ["model2", "--M=10", "--sigma=100", f"--D_sweep={','.join(map(repr, sweep))}",
            "--steady-target=true" if steady else f"--Sigma={Sigma!r}"]
    assert len(_documented_exit(args)[1]) <= 1


@settings(max_examples=30, deadline=None)
@given(n_points=st.sampled_from([256, 512]), sigma=st.none() | _log_uniform(-12.0, 12.0),
       t_final=st.none() | _log_uniform(-12.0, 12.0),
       potential=st.sampled_from(["gaussian", "smeared_window", "step", "complex_step"]),
       V0=st.none() | _any_scale, a=st.none() | _any_scale)
# the gaussian peak V0 / (a sqrt(2 pi)) overflowed to inf, and the run wrote nan
# densities with exit 0; x^2 / 2a^2 overflowed at a subnormal a^2 with a numpy warning
@example(n_points=256, sigma=None, t_final=None, potential="gaussian", V0=1e300, a=1e-10)
@example(n_points=512, sigma=None, t_final=1.0, potential="gaussian", V0=None, a=4e-161)
def test_unitary_inputs_end_in_a_documented_exit_code(n_points, sigma, t_final, potential,
                                                      V0, a):
    args = ["unitary", f"--n_points={n_points}", f"--potential={potential}"]
    for flag, value in (("sigma", sigma), ("t_final", t_final), ("V0", V0), ("a", a)):
        if value is not None:
            args.append(f"--{flag}={value!r}")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as outdir, warnings.catch_warnings(), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")  # a numpy warning would be a stray stderr line
        rc, left = main(args + ["--outdir", outdir]), os.listdir(outdir)
    assert rc == 0 or set(left) <= {"resolved_config.txt"}  # a failed run writes no output
    assert rc in (0, 2, 3, 4)
    assert len(err.getvalue().splitlines()) <= 1


@settings(max_examples=30, deadline=None)
@given(coupling=st.sampled_from(["x", "p"]), strength=_any_scale | _log_uniform(-6.0, 6.0),
       sigma=st.none() | _log_uniform(-12.0, 12.0),
       t_final=st.none() | _log_uniform(-12.0, 12.0), n_traj=st.integers(1, 2),
       n_points=st.sampled_from([256, 512]))
def test_qsd_wavefunction_inputs_end_in_a_documented_exit_code(coupling, strength, sigma,
                                                               t_final, n_traj, n_points):
    args = ["qsd", "--level=wavefunction", f"--coupling={coupling}",
            f"--{'D' if coupling == 'x' else 'D_p'}={strength!r}", f"--n_traj={n_traj}",
            f"--n_points={n_points}"]
    for flag, value in (("sigma", sigma), ("t_final", t_final)):
        if value is not None:
            args.append(f"--{flag}={value!r}")
    err = io.StringIO()
    # a draw may reach 2e4 steps of at most 2 x 512 points, not the CLI's 1e6: a run
    # that needs more exits 2 at the step cap, so the test stays within its budget
    with tempfile.TemporaryDirectory() as outdir, warnings.catch_warnings(), \
            mock.patch.object(cli, "_MAX_STEPS", 2 * 10**4), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")  # a numpy warning would be a stray stderr line
        rc, left = main(args + ["--outdir", outdir]), os.listdir(outdir)
    assert rc == 0 or set(left) <= {"resolved_config.txt"}  # a failed run writes no output
    assert rc in (0, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    # qsd.grid_for holds the packet's free spread and its center's drift between records
    assert coupling == "p" or "in the outer 1/16 of the grid" not in err.getvalue()


@settings(max_examples=30, deadline=None)
@given(coupling=st.sampled_from(["x", "p"]), strength=_any_scale | _log_uniform(-6.0, 6.0),
       sigma=st.none() | _log_uniform(-12.0, 12.0),
       t_final=st.none() | _log_uniform(-12.0, 12.0))
# the default dt was t_c / 200 alone, above the 0.05 t_E the integrator allows once
# t_c > 10 t_E: both exited 2 with "dt = ... exceeds 0.05*min(timescales)"
@example(coupling="x", strength=0.001, sigma=None, t_final=None)
@example(coupling="p", strength=0.01, sigma=None, t_final=None)
def test_qsd_moments_default_dt_passes_the_integrator_check(coupling, strength, sigma,
                                                            t_final):
    args = ["qsd", "--level=moments", f"--coupling={coupling}",
            f"--{'D' if coupling == 'x' else 'D_p'}={strength!r}", "--n_traj=2"]
    for flag, value in (("sigma", sigma), ("t_final", t_final)):
        if value is not None:
            args.append(f"--{flag}={value!r}")
    err = io.StringIO()
    # a run that needs more than 2e4 steps exits 2 at the lowered step cap
    with tempfile.TemporaryDirectory() as outdir, warnings.catch_warnings(), \
            mock.patch.object(cli, "_MAX_STEPS", 2 * 10**4), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")  # a numpy warning would be a stray stderr line
        rc, left = main(args + ["--outdir", outdir]), os.listdir(outdir)
    assert rc == 0 or set(left) <= {"resolved_config.txt"}  # a failed run writes no output
    assert rc in (0, 2, 3, 4)
    assert len(err.getvalue().splitlines()) <= 1
    assert "exceeds 0.05*min" not in err.getvalue()  # no --dt: the default must pass


@pytest.mark.parametrize("args", [
    # the default dt t_loc / 200 exceeded the integrator's 0.05 t_E
    ["qsd", "--level", "wavefunction", "--D", "0.001", "--sigma", "100", "--n_traj", "1"],
    # t_d overflows: the cutoff line and the default dt must not validate the full
    # timescale report
    ["model2", "--M", "10", "--sigma", "1e154", "--Sigma", "3", "--D", "1e10"],
    ["model2", "--M", "10", "--sigma", "1e154", "--steady-target", "true", "--D", "1e3"],
    ["qsd", "--level", "moments", "--sigma", "1e154", "--D", "1e10", "--n_traj", "2"],
    # a grid of 8 sigma plus 4 sd of the center's walk, with no room for the packet's
    # free spread before t_loc, let seed 24 reach the outer 1/16 of the grid: exit 2
    ["qsd", "--coupling", "x", "--D", "0.001", "--t_final", "8", "--level", "wavefunction",
     "--n_traj", "4", "--seed", "21"],
    ["qsd", "--coupling", "x", "--D", "0.01", "--sigma", "0.3", "--t_final", "2",
     "--level", "wavefunction", "--n_traj", "4", "--seed", "21"],
])
def test_default_dt_and_cutoff_line_runs_succeed(tmp_path, capsys, args):
    assert main(args + ["--outdir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_figure4_prints_its_cutoff_lines(tmp_path, capsys):
    assert main(["figures", "--figure", "4", "--outdir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"D={D}: dominant cutoff T_1 = {margin} t_E (no strong suppression expected)"
        for D, margin in (("0.01", "5"), ("0.1", "1.58"), ("1", "0.5"), ("10", "0.158"))]


_TIMESCALE_FLAGS = ("D", "D_p", "sigma", "ell", "M", "Sigma", "m", "hbar", "p_bar")


@settings(max_examples=30, deadline=None)
@given(values=st.fixed_dictionaries({}, optional=dict.fromkeys(_TIMESCALE_FLAGS, _any_scale)))
# D t_z underflowed to a zero division in T_1, and D ell^2 in t_d; sigma_q was inf
# and failed an identity check, as did sigma_p from a subnormal 2 m hbar D; the
# margins 1 / (m hbar D_p), (p_bar / m) / (Sigma_p / M) and T_d_p / ((m / M)^(1/3) t_E)
# divided by an underflowed 0
@example(values={"D": 1e-300, "sigma": 1e-30, "ell": 1.0, "M": 10.0})
@example(values={"ell": 1e-200, "D": 1.0})
@example(values={"D": 1e-320})
@example(values={"D": 5.8e-225, "hbar": 5e-97})
@example(values={"m": 1e-100, "hbar": 1e-100, "D_p": 1e-200})
@example(values={"hbar": 1e-150, "Sigma": 1e150, "M": 1e100})
@example(values={"m": 1e-100, "M": 1e-10, "hbar": 5e-51, "p_bar": 1e75, "sigma": 1e40,
                 "D": 1e-150})
def test_timescales_inputs_end_in_a_documented_exit_code(values):
    args = ["timescales"] + [f"--{flag}={value!r}" for flag, value in values.items()]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as outdir, warnings.catch_warnings(), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")  # a numpy warning would be a stray stderr line
        rc, left = main(args + ["--outdir", outdir]), os.listdir(outdir)
    assert rc == 0 or set(left) <= {"resolved_config.txt"}  # a failed run writes no output
    assert rc in (0, 2)
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


def test_no_csv_holds_a_numpy_scalar_repr(tmp_path):
    # on numpy 2, repr(np.float64(x)) is "np.float64(x)": every cell must be a Python float
    runs = [["timescales"], ["unitary", "--sigma", "4", "--V0", "1.0", "--a", "1"],
            ["model1", "--coupling", "x", "--D_sweep", "0.001,0.01", "--sigma", "10"],
            ["model1", "--coupling", "p", "--Dp_sweep", "0.1,1"],
            ["model2", "--M", "10", "--sigma", "100", "--steady-target", "true",
             "--D_sweep", "0.01,1"],
            ["qsd", "--D", "1", "--level", "moments", "--n_traj", "4", "--t_final", "0.5"],
            ["qsd", "--D", "1", "--level", "wavefunction", "--n_traj", "2", "--t_final", "0.2"],
            ["figures", "--figure", "2"], ["figures", "--figure", "3"]]
    for k, args in enumerate(runs):
        assert main(args + ["--outdir", str(tmp_path / str(k))]) == 0, args
    texts = {p: p.read_text() for p in tmp_path.glob("*/*.csv")}
    assert {p.parent.name for p in texts} == {str(k) for k in range(len(runs))}
    assert not [p for p, text in texts.items() if "np." in text or "float64" in text]


def _oracle_csv(header, rows) -> str:
    # the writer before columns were formatted once: csv.writer and repr per cell
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return out.getvalue()


# values where repr changes form (1e16, 1e-4), subnormals, signed zeros, inf and nan
_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.225073858507201e-308,
          2.2250738585072014e-308, 1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, 2e16),
          9999999999999998.0, 1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
          9.999999999999999e-05, 1e-5, 0.1, -1.5, 1.7976931348623157e308]
_cells = st.one_of(st.sampled_from([float(v) for v in _EDGES]),
                   st.floats(allow_nan=True, allow_infinity=True))
_nan_payload = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(float)


@settings(max_examples=50, deadline=None)
@given(shape=st.tuples(st.integers(0, 6), st.integers(1, 4)), data=st.data(),
       label=st.text(alphabet='ab ,="/', max_size=12), value=_cells,
       block_rows=st.sampled_from([1, 2, 1024]))
def test_csv_writer_matches_the_per_cell_oracle(tmp_path_factory, shape, data, label, value,
                                                block_rows):
    base = np.array(data.draw(st.lists(_cells, min_size=shape[0] * shape[1],
                                       max_size=shape[0] * shape[1])),
                    dtype=float).reshape(shape)
    # equal in value but not in bits: the other signed zero, other nan payloads
    flipped = np.where(base == 0.0, -base, base)
    flipped[np.isnan(base)] = _nan_payload[0]
    renan = base.copy()
    renan[np.isnan(base)] = _nan_payload[1]
    header = [f"c{k}" for k in range(shape[1])]
    tables = [("base", base), ("flipped", flipped), ("base_again", base.copy()),
              ("renan", renan), ("column", np.ascontiguousarray(base[:, :1]))]
    strings = [(label, value, f'formula "{label}", with commas', "m=1.0 hbar=1.0"),
               ("t_E", 2.0, "hbar / E, E = p_bar^2 / 2m", label)]
    outdir = tmp_path_factory.mktemp("csv")
    with mock.patch.object(cli, "_CSV_BLOCK_ROWS", block_rows):  # files of several writes
        cli._write(outdir, [(f"{name}.csv", (header[:t.shape[1]], t)) for name, t in tables]
                   + [("strings.csv", (["name", "value", "formula", "inputs"], strings))])
    for name, t in tables:
        want = _oracle_csv(header[:t.shape[1]], t.tolist())
        assert (outdir / f"{name}.csv").read_bytes() == want.encode(), name
    want = _oracle_csv(["name", "value", "formula", "inputs"], strings)
    assert (outdir / "strings.csv").read_bytes() == want.encode()
