"""Command-line entry point: batch runs, parameter sweeps, figure suite.

Exit codes: 0 success, otherwise the exit_code of the qreflect.errors class that
was raised: 2 ConfigError, 3 NumericalError, 4 RegimeEscalation (a regime warning
escalated by --strict).  main catches QreflectError alone, so any other exception
is a library bug and ends in a traceback.  Every run writes its resolved config
and a version stamp first; reruns of one config are byte-identical.  Each runner
returns (files, stdout lines, regime warnings) and writes nothing; main writes the
files through _write and then prints the lines, so a run that fails or that
--strict escalates leaves resolved_config.txt alone.
unitary and qsd step on the grid of their integrator's grid_for, at a default dt
that is a fixed fraction of its dt_limit; model2's cutoff line reads target_cutoffs.
QSD trajectory k draws increment i from Philox block [i, 0, 0, 0] under key
seed + k; both QSD levels return one (n_traj, records, 6) array, read once for
the fit and every CSV.  A moment-level block takes 64e6 // (3 n_steps + 2) seeds
(every seed of a default 1000-step run); a wavefunction block steps 64.
CSV floats are Python's shortest round-trip repr.  --threads N runs two stages
in min(N, rows, usable CPUs) forked slices (slices.split) and changes no output:
a wavefunction-level qsd ensemble's seeds and every command's files.  A sweep's
totals, and a model1 sweep's densities, take one batched quadrature call each
(oscquad.batched).  BENCH_25.json, BENCH_26.json and BENCH_33.json hold the
timings.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import __version__, qsd, slices, unitary
from .config import _ALIASES, COMMANDS, RunConfig, parse_config, serialize_config
from .errors import ClosureError, ConfigError, QreflectError, RegimeEscalation
from .grids import gaussian_packet, to_momentum
from .model1 import (EnvironmentSpec, narrow_sideband_ratio, reflected_density_p,
                     reflected_density_x, sweep_total_p, total_reflected)
from .model2 import (Model2Config, clamp_density, conditional_reflected_env,
                     finite_density, reflected_density_env, total_reflected_model2)
from .oscquad import batched
from .potentials import potential_position
from .qsd import (MIN_SEEDS, TrajectoryMoments, coupling_time, fluctuation_report,
                  run_moment_ensemble, run_wavefunction_ensemble, steady_moments)
from .svgplot import line_plot
from .timescales import (FORMULAS, check_regime, compute_timescales, scattering_time,
                         target_cutoffs)
from .unitary import propagate, reflection_probability


# a wavefunction block holds 64 rows of (steps,) increments, and a moment block
# 64e6 // (3 steps + 2) rows of increments, <x> and <p>: at most 512 MB at the cap
_MAX_STEPS = 10**6
_CSV_BLOCK_ROWS = 1024  # rows formatted per write; only unitary's density CSVs are longer


def _write(outdir: Path, files, threads: int = 1, lines=()) -> None:
    """Write each (name, body) of files into outdir, then print lines: the one
    function that opens an output file.  A body is text or a CSV's (header, rows).
    A float array is written a column at a time in Python's shortest round-trip
    repr, one write per block of _CSV_BLOCK_ROWS rows, so memory holds the strings
    of two blocks at most; a column whose bytes match one of the block before
    reuses its strings (bytes, not values: 0.0 == -0.0 and nan != nan), as a QSD
    ensemble's deterministic columns recur in every file.  The memo is per slice,
    so the files split over --threads slices with the same bytes.  A name given
    twice fails before any write, and a failed call leaves no file."""
    names = [name for name, _ in files]
    temps = [outdir / f".{name}.part" for name in names]  # renamed once all are written
    if len(set(names)) < len(names):
        name = next(name for k, name in enumerate(names) if name in names[:k])
        raise ConfigError(f"two outputs are named {name!r}: sweep values that print alike "
                          "under %g share a file")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write outdir {str(outdir)!r}: {exc.strerror or exc}") from None

    def write(lo: int, hi: int) -> None:
        memo: dict[bytes, list[str]] = {}
        try:
            for (name, body), temp in zip(files[lo:hi], temps[lo:hi]):
                with open(temp, "w", newline="", encoding="utf-8") as fh:
                    if isinstance(body, str):
                        fh.write(body)
                        continue
                    header, rows = body
                    if not isinstance(rows, np.ndarray):
                        writer = csv.writer(fh, lineterminator="\n")
                        writer.writerow(header)
                        writer.writerows(rows)  # csv.writer formats a float as repr does
                        continue
                    fh.write(",".join(header) + "\n")
                    for first in range(0, len(rows), _CSV_BLOCK_ROWS):
                        block = rows[first:first + _CSV_BLOCK_ROWS]
                        keys = [col.tobytes() for col in block.T]
                        memo = {key: memo.get(key) or list(map(repr, col.tolist()))
                                for key, col in zip(keys, block.T)}
                        fh.write("\n".join(map(",".join, zip(*(memo[key] for key in keys))))
                                 + "\n")
        except OSError as exc:  # a child's failure reruns here and raises this line
            raise ConfigError(f"cannot write {str(outdir / name)!r}: "
                              f"{exc.strerror or exc}") from None

    renamed = 0
    try:
        slices.split(write, len(files), threads)
        for renamed, (name, temp) in enumerate(zip(names, temps)):
            temp.replace(outdir / name)
    except BaseException as exc:  # remove the files renamed so far and every temporary one
        for path in [*(outdir / name for name in names[:renamed]), *temps[renamed:]]:
            path.unlink(missing_ok=True)
        if not isinstance(exc, OSError):  # write raises its own ConfigError
            raise
        raise ConfigError(f"cannot write {str(outdir / names[renamed])!r}: "
                          f"{exc.strerror or exc}") from None  # a directory in the way, say
    for line in lines:
        print(line)


def _warn(messages: list[str], text: str) -> None:
    messages.append(text)
    print(f"warning: {text}", file=sys.stderr)


def _check_log_axis(sweep, flag: str) -> None:
    """A sweep's totals plot has a log x axis: refuse a value it cannot place."""
    if len(sweep) > 1 and min(sweep) <= 0:
        raise ConfigError(f"{flag} takes positive values, not {min(sweep):g}: total.svg "
                          "plots the sweep on a log axis")


def _n_steps(t_final: float, dt: float) -> int:
    if not t_final / dt <= _MAX_STEPS:  # also nan: an inf t_loc makes t_final and dt inf
        raise ConfigError(f"t_final / dt = {t_final / dt:.3g} steps exceeds {_MAX_STEPS}")
    return int(math.ceil(t_final / dt))


# -- subcommand implementations -------------------------------------------------


def _run_timescales(cfg: RunConfig):
    params = cfg.physical_params()
    report = compute_timescales(params, ell=cfg.ell)
    verdict = check_regime(report, params, threshold=cfg.threshold)
    values = report.defined()
    width = max(len(k) for k in values)
    lines = [f"{'name'.ljust(width)}  value"]
    lines += [f"{name.ljust(width)}  {value:.9g}" for name, value in values.items()]
    lines.append("\nregime verdicts (threshold %g):" % cfg.threshold)
    for f in fields(verdict):
        v = getattr(verdict, f.name)
        if isinstance(v, bool):  # the verdicts, not margins or threshold
            lines.append(f"  {f.name}: {v}")
    inputs = f"m={params.m} hbar={params.hbar} p_bar={params.p_bar} sigma={params.sigma} " \
             f"D={params.D} D_p={params.D_p} M={params.M} Sigma={params.Sigma} ell={report.ell}"
    rows = [(name, value, FORMULAS[name], inputs) for name, value in values.items()]
    return [("timescales.csv", (["name", "value", "defining_formula", "inputs"], rows))], \
        lines, []


def _run_unitary(cfg: RunConfig):
    params = cfg.physical_params()
    spec = cfg.potential()
    barrier_extent = 6.0 * spec.a + spec.L
    start = -(6.0 * params.sigma + barrier_extent + 1.0)
    if abs(start) + 6.0 * params.sigma - abs(start) < 5.0 * params.sigma:  # packet on the edge
        raise ConfigError(f"--sigma {params.sigma:.3g} rounds away next to the packet's start "
                          f"distance 6 sigma + 6 a + L + 1 = {abs(start):.3g} (--a, --L)")
    travel = (abs(start) + 3.0 * params.sigma) * params.m / params.p_bar
    t_final = cfg.t_final if cfg.t_final is not None else travel
    grid = unitary.grid_for(params, spec, start, t_final, cfg.n_points)
    # 0.9 of the 0.1 * dt_limit that propagate allows
    dt = cfg.dt if cfg.dt is not None else 0.09 * unitary.dt_limit(
        params, grid, potential_position(spec, grid.x, params.hbar))
    n_steps = _n_steps(t_final, dt)
    snaps = [k * t_final / 5.0 for k in range(6)]
    psi0 = gaussian_packet(params, grid, center=start)
    series = propagate(psi0, spec, params, dt, n_steps, snapshot_times=snaps)
    pos_rows, mom_rows = [], []
    pos_series, mom_series = [], []
    for t, psi in zip(series.times, series.states):
        rho = psi.density()
        pos_rows.append(np.column_stack(np.broadcast_arrays(t, psi.grid.x[::4], rho[::4])))
        pos_series.append((f"t={t:g}", psi.grid.x[::8].tolist(), rho[::8].tolist()))
        tilde = to_momentum(psi)
        w = tilde.density()
        mom_rows.append(np.column_stack(np.broadcast_arrays(t, tilde.grid.x[::4], w[::4])))
        keep = np.abs(tilde.grid.x) < 3.0 * params.p_bar
        mom_series.append((f"t={t:g}", tilde.grid.x[keep].tolist(), w[keep].tolist()))
    ledger = np.column_stack((series.times, [astuple(pl) for pl in series.probabilities]))
    refl, trans, absd = reflection_probability(series, force=True)
    files = [("position_density.svg", line_plot(
                 pos_series, "position probability density", "x", "|psi|^2")),
             ("momentum_density.svg", line_plot(
                 mom_series, "momentum probability density", "p", "|psi~|^2")),
             ("position_density.csv", (["t", "x", "density"], np.vstack(pos_rows))),
             ("momentum_density.csv", (["t", "p", "density"], np.vstack(mom_rows))),
             ("probabilities.csv",
              (["t", "norm", "reflected", "transmitted", "absorbed", "edge_loss"], ledger))]
    return files, [f"final reflected={refl:.6g} transmitted={trans:.6g} absorbed={absd:.6g}"], []


def _run_model1(cfg: RunConfig):
    params = cfg.physical_params()
    warnings: list[str] = []
    tau = cfg.resolved_tau()
    if cfg.coupling == "x":
        sweep, flag, env_of = cfg.D_sweep or (cfg.D,), "--D_sweep", EnvironmentSpec.position
        density_of = lambda p, s: reflected_density_x(p, params, s, tau)
    else:
        sweep, flag, env_of = cfg.Dp_sweep or (cfg.D_p,), "--Dp_sweep", EnvironmentSpec.momentum
        density_of = lambda p, s: reflected_density_p(p, params, s)
    envs = [env_of(s) for s in sweep]  # a negative strength fails as such, not on the log axis
    _check_log_axis(sweep, flag)
    ratio = max(narrow_sideband_ratio(params, D) for D in sweep) if cfg.coupling == "x" else 0
    if ratio > 0.01:
        _warn(warnings, f"narrow-sideband validity ratio D t_z / p_bar^2 = {ratio:.3g} "
                        "is not << 1; kernel outside its regime")
    p_grid = np.linspace(-3.0 * params.p_bar, 3.0 * params.p_bar, 601)
    p_grid = p_grid[np.abs(p_grid - params.p_bar) > 1e-9]
    # model1 densities are not clamped; the sweep's densities take one batched call, a
    # row per strength, and so do its totals
    densities = batched(lambda values: finite_density(density_of(p_grid, values[:, None])),
                        np.array(sweep, float))
    files = [(f"density_{cfg.coupling}_{strength:g}.csv",
              (["p", "density"], np.column_stack((p_grid, dens))))
             for strength, dens in zip(sweep, densities)]
    plot_series = [(f"{'D' if cfg.coupling == 'x' else 'D_p'}={strength:g}", p_grid.tolist(),
                    dens.tolist()) for strength, dens in zip(sweep, densities)]
    files.append(("density.svg", line_plot(
        plot_series, f"reflected momentum density ({cfg.coupling}-coupling)", "p", "density")))
    if len(sweep) > 1:
        totals = batched(lambda part: total_reflected(params, part, tau=tau), envs)
        files += [(f"total_vs_{'D' if cfg.coupling == 'x' else 'Dp'}.csv",
                   (["coupling_strength", "total_reflected"], np.column_stack((sweep, totals)))),
                  ("total.svg", line_plot(
                      [("total", list(sweep), totals.tolist())], "total reflected probability",
                      "coupling strength", "probability", logx=True))]
    return files, [], warnings


def _run_qsd(cfg: RunConfig):
    params = cfg.physical_params()
    env = (EnvironmentSpec.position(cfg.D) if cfg.coupling == "x"
           else EnvironmentSpec.momentum(cfg.D_p))
    if env.strength <= 0:
        raise ConfigError("qsd needs D > 0 (coupling=x) or D_p > 0 (coupling=p)")
    t_c = coupling_time(params, env)
    t_final = cfg.t_final if cfg.t_final is not None else 5.0 * t_c
    grid = None
    if cfg.level == "moments":
        if cfg.coupling == "x":
            mom0 = steady_moments(params)
        else:
            mom0 = TrajectoryMoments(0.0, 0.0, params.p_bar, params.sigma**2,
                                     params.hbar**2 / (4.0 * params.sigma**2), 0.0)
    else:
        grid = qsd.grid_for(params, env, t_final, cfg.n_points)
        psi0 = gaussian_packet(params, grid, center=0.0, mean_p=0.0)
    # at most 0.9 of the 0.05 * dt_limit that the integrator allows
    dt = cfg.dt if cfg.dt is not None else min(t_c / 200.0,
                                               0.045 * qsd.dt_limit(params, env, grid))

    n_steps = _n_steps(t_final, dt)
    record_every = max(1, n_steps // 200)
    seeds = [cfg.seed + k for k in range(cfg.n_traj)]
    if cfg.level == "moments":
        records = run_moment_ensemble(mom0, env, params, dt, n_steps, seeds, record_every)
    else:
        records = run_wavefunction_ensemble(psi0, env, params, dt, n_steps, seeds,
                                            record_every, workers=cfg.threads)
    lines = []
    if cfg.n_traj >= MIN_SEEDS:
        rate = fluctuation_report(records, (t_c, t_final)).fitted_rate
        lines.append(f"fitted total momentum fluctuation rate: {rate:.6g}")
    # each mean runs along one contiguous row, as np.mean of a column does
    summary = np.ascontiguousarray(records.transpose(1, 2, 0)).mean(axis=-1)
    summary[:, 0] = records[0, :, 0]
    header = ["t", "mean_x", "mean_p", "var_x", "var_p", "cov_xp"]
    files = [*((f"trajectory_{seed}.csv", (header, rows)) for seed, rows in zip(seeds, records)),
             ("ensemble_summary.csv", (header, summary))]
    return files, lines, []


def _run_model2(cfg: RunConfig):
    params = cfg.physical_params()
    sweep = cfg.D_sweep or (cfg.D,)
    # each D of the sweep goes through with_D; the first one builds the base config
    m2 = Model2Config(params.replace(D=sweep[0]), tau=cfg.resolved_tau(),
                      steady_target=cfg.steady_target)
    p_grid = np.linspace(-3.0 * params.p_bar, params.p_bar, 401)
    p_grid = p_grid[np.abs(p_grid - params.p_bar) > 1e-9]
    configs = [m2.with_D(D) for D in sweep]  # each entry's config and cutoffs are built
    cutoff_sets = [target_cutoffs(c.params) for c in configs]  # first: both can fail
    _check_log_axis(sweep, "--D_sweep")
    files, lines, plot_series = [], [], []
    for D, c, cutoffs in zip(sweep, configs, cutoff_sets):
        dens = clamp_density(reflected_density_env(c, p_grid, D=D) if cfg.P is None
                             else conditional_reflected_env(c, p_grid, cfg.P, D=D))
        name = (f"density_D{D:g}.csv" if cfg.P is None
                else f"conditional_density_D{D:g}_P{cfg.P:g}.csv")
        files.append((name, (["p", "density"], np.column_stack((p_grid, dens)))))
        plot_series.append((f"D={D:g}", p_grid.tolist(), dens.tolist()))
        if D > 0:  # suppression needs min(T_z, T_d_p, T_1) << t_E: under a tenth of it
            dominant = min(cutoffs, key=cutoffs.get)
            margin = cutoffs[dominant] / scattering_time(c.params)
            if not margin < 0.1:
                lines.append(f"D={D:g}: dominant cutoff {dominant} = {margin:.3g} t_E "
                             "(no strong suppression expected)")
    files.append(("density.svg", line_plot(
        plot_series, "two-particle reflected density", "p", "density")))
    if len(sweep) > 1:
        totals = total_reflected_model2(m2, sweep)
        files += [("total_vs_D.csv", (["D", "total_reflected"], np.column_stack((sweep, totals)))),
                  ("total.svg", line_plot(
                      [("total", list(sweep), totals.tolist())],
                      "two-particle total reflected probability", "D", "probability",
                      logx=True))]
    return files, lines, []


def run_figures(which: int, cfg: RunConfig | None = None):
    """Reproduce one of the five standard figure data sets, as a runner's
    (files, stdout lines, regime warnings).

    Figures 2-5 are fully pinned by their stated parameters (units
    m = p_bar = hbar = 1); figure 1 ships representative defaults, labeled as
    such in the resolved configuration.
    """
    if which not in (1, 2, 3, 4, 5):
        raise ConfigError("figures requires --figure N with N in 1..5")
    base = cfg or RunConfig()
    if which == 1:
        return _run_unitary(base.replace(command="unitary", sigma=10.0, V0=1.13, a=1.0,
                                         potential_kind="gaussian", n_points=4096))
    if which == 2:
        return _run_model1(base.replace(command="model1", coupling="p", a=0.1, V0=0.01,
                                        Dp_sweep=(0.01, 0.1, 0.3, 1.0, 3.0)))
    if which == 4:
        return _run_model2(base.replace(command="model2", M=10.0, sigma=100.0, a=0.1, V0=0.01,
                                        steady_target=True, D_sweep=(0.01, 0.1, 1.0, 10.0)))
    a_values = base.a_list or (0.1, 0.2, 0.4)
    if which == 3:
        key, title = "D_p", "total reflected probability vs D_p"
        xs = tuple(np.logspace(-2, 2, 17).tolist())
        params = [base.replace(command="model1", coupling="p", a=a, V0=0.01).physical_params()
                  for a in a_values]
        totals = [sweep_total_p(p, xs) for p in params]
    else:  # figure 5: one p-integral over every (D, width), one s-integral per (p, D)
        key, title = "D", "two-particle total reflected probability vs D"
        xs = tuple(np.logspace(-2, 2, 13).tolist())
        subs = [base.replace(command="model2", M=10.0, sigma=100.0, a=a, V0=0.01,
                             D=xs[0], steady_target=True) for a in a_values]
        barriers = [sub.physical_params().potential for sub in subs]
        m2 = Model2Config(subs[0].physical_params(), tau=subs[0].resolved_tau(),
                          steady_target=True)
        totals = total_reflected_model2(m2, xs, barriers=barriers)
    files = [(f"total_vs_{key.replace('_', '')}_a{a:g}.csv",
              ([key, "total_reflected"], np.column_stack((xs, row))))
             for a, row in zip(a_values, totals)]
    series = [(f"a={a:g}", list(xs), list(row)) for a, row in zip(a_values, totals)]
    files.append((f"figure{which}.svg", line_plot(series, title, key, "probability", logx=True)))
    return files, [], []


# -- argument parsing -------------------------------------------------------------


_FLAG_KEYS = [f.name for f in fields(RunConfig) if f.name != "command"]
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line and exit 2, as for any config error
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    """One option table for every command: each command reads the same flags."""
    parser = _Parser(
        prog="qreflect",
        description="1D scattering laboratory: reflection under environmental decoherence",
    )
    parser.add_argument("--version", action="version", version=f"qreflect {__version__}")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key=value configuration file")
    for key in _FLAG_KEYS:
        flags = [f"--{key}"]
        if "_" in key:
            flags.append(f"--{key.replace('_', '-')}")
        parser.add_argument(*flags, dest=f"set_{key}", metavar="VALUE")
    for alias, target in _ALIASES.items():
        parser.add_argument(f"--{alias}", dest=f"set_{target}", metavar="VALUE")
    parser.add_argument("--conditional", dest="set_P", metavar="P")
    return parser


def build_config(argv: list[str]) -> RunConfig:
    """Resolve config file plus flag overrides into a RunConfig."""
    args: list[str] = []
    for arg in argv:  # argparse reads "-1e10" as a flag: bind it as "--flag=-1e10"
        if args and args[-1].startswith("--") and "=" not in args[-1] \
                and _NEGATIVE_NUMBER.fullmatch(arg):
            args[-1] += f"={arg}"
        else:
            args.append(arg)
    ns = _build_parser().parse_args(args)
    cfg = RunConfig(command=ns.command)
    if ns.config:
        path = Path(ns.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        cfg = parse_config(path.read_text(), base=cfg)
        cfg = cfg.replace(command=ns.command)
    overrides = []
    for key in _FLAG_KEYS:
        value = getattr(ns, f"set_{key}", None)
        if value is not None:
            overrides.append(f"{key}={value}")
    if overrides:
        cfg = parse_config("\n".join(overrides), base=cfg)
    return cfg


_RUNNERS = {
    "timescales": _run_timescales,
    "unitary": _run_unitary,
    "model1": _run_model1,
    "qsd": _run_qsd,
    "model2": _run_model2,
    "figures": lambda cfg: run_figures(cfg.figure, cfg),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = build_config(argv)
        outdir = Path(cfg.outdir)
        config = serialize_config(cfg) + f"# qreflect {__version__}\n"
        _write(outdir, [("resolved_config.txt", config)])
        files, lines, warnings = _RUNNERS[cfg.command](cfg)
        if warnings and cfg.strict:
            raise RegimeEscalation("; ".join(warnings))
        _write(outdir, files, cfg.threads, lines)
    except QreflectError as exc:
        if isinstance(exc, ClosureError):  # a hint on stdout; stderr keeps one line
            print(f"hint: explicit moment steps need --dt below {exc.dt_max:.3g} here")
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
