"""Command-line entry point: batch runs, parameter sweeps, figure suite.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (quadrature,
non-finite density, leakage, premature measurement, moment-closure breakdown),
4 regime warning escalated by --strict.  Every run writes its resolved config
and a version stamp beside its outputs; reruns of one config are byte-identical.
QSD trajectory k draws increment i from Philox block [i, 0, 0, 0] under key
seed + k; both QSD levels return one (n_traj, records, 6) array, read once for
the fit and every CSV.  --threads selects nothing and changes no output: an
(8, 1024) FFT took 56-60 us with one scipy.fft worker and 64-86 us with two
(2 vCPU Xeon).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .config import (_ALIASES, COMMANDS, ConfigError, RunConfig, parse_config,
                     serialize_config)
from .grids import SpatialGrid, gaussian_packet, to_momentum
from .model1 import (EnvironmentSpec, narrow_sideband_ratio, reflected_density_p,
                     reflected_density_x, total_reflected)
from .model2 import (Model2Config, clamp_density, conditional_reflected_env,
                     finite_density, reflected_density_env, timescale_cutoffs_model2,
                     total_reflected_model2)
from .oscquad import QuadratureError
from .qsd import (MIN_SEEDS, ClosureError, TrajectoryMoments, fluctuation_report,
                  run_moment_ensemble, run_wavefunction_ensemble, steady_moments)
from .svgplot import line_plot
from .timescales import FORMULAS, check_regime, compute_timescales
from .unitary import (BoundaryLeakageError, PrematureMeasurementError, propagate,
                      reflection_probability)


_MAX_QSD_STEPS = 10**6  # a 64-seed block holds (steps, 64) increments: 512 MB at the cap


class RegimeEscalation(RuntimeError):
    """A regime warning escalated to an error by --strict."""


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _emit_config(cfg: RunConfig, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    text = serialize_config(cfg) + f"# qreflect {__version__}\n"
    (outdir / "resolved_config.txt").write_text(text, encoding="utf-8")


def _warn(messages: list[str], text: str) -> None:
    messages.append(text)
    print(f"warning: {text}", file=sys.stderr)


# -- subcommand implementations -------------------------------------------------


def _run_timescales(cfg: RunConfig, outdir: Path) -> list[str]:
    params = cfg.physical_params()
    report = compute_timescales(params, ell=cfg.ell)
    verdict = check_regime(report, params, threshold=cfg.threshold)
    values = report.defined()
    width = max(len(k) for k in values)
    print(f"{'name'.ljust(width)}  value")
    for name, value in values.items():
        print(f"{name.ljust(width)}  {value:.9g}")
    print("\nregime verdicts (threshold %g):" % cfg.threshold)
    for f in ("small_fluctuations_chain", "suppression_x_possible", "suppression_p",
              "model2_velocity_condition", "model2_T1_condition",
              "model2_Tz_condition", "model2_Tdp_condition", "model1_exclusion_holds"):
        v = getattr(verdict, f)
        if v is not None:
            print(f"  {f}: {v}")
    inputs = f"m={params.m} hbar={params.hbar} p_bar={params.p_bar} sigma={params.sigma} " \
             f"D={params.D} D_p={params.D_p} M={params.M} Sigma={params.Sigma} ell={report.ell}"
    rows = [(name, value, FORMULAS[name], inputs) for name, value in values.items()]
    _write_csv(outdir / "timescales.csv", ["name", "value", "defining_formula", "inputs"], rows)
    return []


def _run_unitary(cfg: RunConfig, outdir: Path) -> list[str]:
    params = cfg.physical_params()
    spec = cfg.potential()
    barrier_extent = 6.0 * spec.a + spec.L
    start = -(6.0 * params.sigma + barrier_extent + 1.0)
    travel = (abs(start) + 3.0 * params.sigma) * params.m / params.p_bar
    t_final = cfg.t_final if cfg.t_final is not None else travel
    half = abs(start) + 6.0 * params.sigma + params.p_bar * t_final / params.m
    # resolve the packet and the barrier without over-refining small domains
    dx_target = min(params.sigma / 10.0, spec.a / 3.0 if spec.a > 0 else params.sigma)
    n = 2 ** math.ceil(math.log2(2.0 * half / dx_target))
    grid = SpatialGrid(-half, half, min(cfg.n_points, max(n, 256)))
    dt = cfg.dt if cfg.dt is not None else 0.09 * min(
        params.hbar / params.energy, grid.cfl_time(params.m, params.hbar))
    n_steps = int(math.ceil(t_final / dt))
    snaps = [k * t_final / 5.0 for k in range(6)]
    psi0 = gaussian_packet(params, grid, center=start)
    series = propagate(psi0, spec, params, dt, n_steps, snapshot_times=snaps)
    pos_rows, mom_rows = [], []
    pos_series, mom_series = [], []
    for t, psi in zip(series.times, series.states):
        rho = psi.density()
        pos_rows.extend((t, float(x), float(d)) for x, d in zip(psi.grid.x[::4], rho[::4]))
        pos_series.append((f"t={t:g}", list(map(float, psi.grid.x[::8])),
                           list(map(float, rho[::8]))))
        tilde = to_momentum(psi)
        w = tilde.density()
        mom_rows.extend((t, float(pv), float(d)) for pv, d in zip(tilde.grid.x[::4], w[::4]))
        keep = np.abs(tilde.grid.x) < 3.0 * params.p_bar
        mom_series.append((f"t={t:g}", list(map(float, tilde.grid.x[keep])),
                           list(map(float, w[keep]))))
    _write_csv(outdir / "position_density.csv", ["t", "x", "density"], pos_rows)
    _write_csv(outdir / "momentum_density.csv", ["t", "p", "density"], mom_rows)
    (outdir / "position_density.svg").write_text(line_plot(
        pos_series, "position probability density", "x", "|psi|^2"), encoding="utf-8")
    (outdir / "momentum_density.svg").write_text(line_plot(
        mom_series, "momentum probability density", "p", "|psi~|^2"), encoding="utf-8")
    ledger_rows = [(t, pl.norm, pl.reflected, pl.transmitted, pl.absorbed, pl.edge_loss)
                   for t, pl in zip(series.times, series.probabilities)]
    _write_csv(outdir / "probabilities.csv",
               ["t", "norm", "reflected", "transmitted", "absorbed", "edge_loss"],
               ledger_rows)
    refl, trans, absd = reflection_probability(series, force=True)
    print(f"final reflected={refl:.6g} transmitted={trans:.6g} absorbed={absd:.6g}")
    return []


def _run_model1(cfg: RunConfig, outdir: Path) -> list[str]:
    params = cfg.physical_params()
    warnings: list[str] = []
    tau = cfg.resolved_tau()
    if cfg.coupling == "x":
        sweep = cfg.D_sweep or (cfg.D,)
        ratio = max(narrow_sideband_ratio(params, D) for D in sweep)
        if ratio > 0.01:
            _warn(warnings,
                  f"narrow-sideband validity ratio D t_z / p_bar^2 = {ratio:.3g} "
                  "is not << 1; kernel outside its regime")
        env_of = EnvironmentSpec.position
        density_of = lambda p, s: reflected_density_x(p, params, s, tau)
    else:
        sweep = cfg.Dp_sweep or (cfg.D_p,)
        env_of = EnvironmentSpec.momentum
        density_of = lambda p, s: reflected_density_p(p, params, s)
    p_grid = np.linspace(-3.0 * params.p_bar, 3.0 * params.p_bar, 601)
    p_grid = p_grid[np.abs(p_grid - params.p_bar) > 1e-9]
    # checked before any CSV is written; model1 densities are not clamped
    densities = [finite_density(density_of(p_grid, s)).tolist() for s in sweep]
    plot_series = []
    for strength, dens in zip(sweep, densities):
        name = f"density_{cfg.coupling}_{strength:g}.csv"
        _write_csv(outdir / name, ["p", "density"], list(zip(map(float, p_grid), dens)))
        plot_series.append((f"{'D' if cfg.coupling == 'x' else 'D_p'}={strength:g}",
                            list(map(float, p_grid)), dens))
    (outdir / "density.svg").write_text(line_plot(
        plot_series, f"reflected momentum density ({cfg.coupling}-coupling)",
        "p", "density"))
    if len(sweep) > 1:
        totals = [total_reflected(params, env_of(s), tau=tau) for s in sweep]
        _write_csv(outdir / f"total_vs_{'D' if cfg.coupling == 'x' else 'Dp'}.csv",
                   ["coupling_strength", "total_reflected"],
                   list(zip(sweep, totals)))
        (outdir / "total.svg").write_text(line_plot(
            [("total", list(sweep), totals)], "total reflected probability",
            "coupling strength", "probability", logx=True))
    return warnings


def _run_qsd(cfg: RunConfig, outdir: Path) -> list[str]:
    params = cfg.physical_params()
    env = (EnvironmentSpec.position(cfg.D) if cfg.coupling == "x"
           else EnvironmentSpec.momentum(cfg.D_p))
    if env.strength <= 0:
        raise ConfigError("qsd needs D > 0 (coupling=x) or D_p > 0 (coupling=p)")
    t_loc = math.sqrt(params.m * params.hbar / cfg.D) if cfg.coupling == "x" else (
        1.0 / (cfg.D_p * params.p_bar**2))
    t_final = cfg.t_final if cfg.t_final is not None else 5.0 * t_loc
    dt = cfg.dt if cfg.dt is not None else t_loc / 200.0

    if cfg.level == "moments":
        if cfg.coupling == "x":
            mom0 = steady_moments(params)
        else:
            mom0 = TrajectoryMoments(0.0, 0.0, params.p_bar, params.sigma**2,
                                     params.hbar**2 / (4.0 * params.sigma**2), 0.0)
    else:
        # resolve the packet and, for position coupling, the localized width;
        # keep dx fixed when rounding the point count up to a power of two
        dx_target = params.sigma / 10.0
        try:  # float ** and math.ceil raise on overflow where * and + give inf
            if cfg.coupling == "x":
                dx_target = min(dx_target, params.sigma_q / 4.0)
                # the grid is periodic, so leave room for 4 sd of the packet center's
                # walk, Var<x>(t) ~ 2 D t^3 / 3 m^2; a center that crosses an edge wraps
                half = (8.0 * params.sigma
                        + 4.0 * math.sqrt(2.0 * cfg.D * t_final**3 / 3.0) / params.m)
            else:
                # 8 sd of the ensemble's spread: -D_p [p, [p, rho]] adds 2 hbar^2 D_p t
                # to the free <x^2>(t) = sigma^2 + (hbar t / 2 m sigma)^2
                spread = (params.hbar * t_final / (2.0 * params.m * params.sigma)) ** 2
                half = 8.0 * math.sqrt(params.sigma**2 + spread
                                       + 2.0 * params.hbar**2 * cfg.D_p * t_final)
            n = min(cfg.n_points, 2 ** math.ceil(math.log2(2.0 * half / dx_target)))
        except OverflowError:
            raise ConfigError(
                f"the spread by t_final = {t_final:.3g} overflows the grid size") from None
        grid = SpatialGrid(-n * dx_target / 2.0, n * dx_target / 2.0, max(n, 256))
        if cfg.dt is None:
            dt = min(dt, 0.045 * grid.cfl_time(params.m, params.hbar))
        psi0 = gaussian_packet(params, grid, center=0.0, mean_p=0.0)

    if not t_final / dt <= _MAX_QSD_STEPS:  # also nan, when t_loc overflows
        raise ConfigError(f"t_final / dt = {t_final / dt:.3g} steps exceeds {_MAX_QSD_STEPS}")
    n_steps = int(math.ceil(t_final / dt))
    record_every = max(1, n_steps // 200)
    seeds = [cfg.seed + k for k in range(cfg.n_traj)]
    if cfg.level == "moments":
        records = run_moment_ensemble(mom0, env, None, params, dt, n_steps, seeds, record_every)
    else:
        records, _ = run_wavefunction_ensemble(psi0, env, None, params, dt, n_steps, seeds,
                                               record_every)
    if cfg.n_traj >= MIN_SEEDS:  # fitted first, so a short fit window writes no CSV
        rate = fluctuation_report(records, (t_loc, t_final)).fitted_rate
        print(f"fitted total momentum fluctuation rate: {rate:.6g}")
    header = ["t", "mean_x", "mean_p", "var_x", "var_p", "cov_xp"]
    for seed, rows in zip(seeds, records.tolist()):
        _write_csv(outdir / f"trajectory_{seed}.csv", header, rows)
    # each mean runs along one contiguous row, as np.mean of a column does
    summary = np.ascontiguousarray(records.transpose(1, 2, 0)).mean(axis=-1)
    summary[:, 0] = records[0, :, 0]
    _write_csv(outdir / "ensemble_summary.csv", header, summary.tolist())
    return []


def _run_model2(cfg: RunConfig, outdir: Path) -> list[str]:
    if cfg.M is None:
        raise ConfigError("model2 requires the target mass M")
    params = cfg.physical_params()
    sweep = cfg.D_sweep or (cfg.D,)
    if cfg.steady_target and params.D == 0.0:
        params = params.replace(D=sweep[0])
    m2 = Model2Config(params, tau=cfg.resolved_tau(), steady_target=cfg.steady_target)
    p_grid = np.linspace(-3.0 * params.p_bar, params.p_bar, 401)
    p_grid = p_grid[np.abs(p_grid - params.p_bar) > 1e-9]
    plot_series = []
    for D in sweep:
        c = m2.with_D(D) if cfg.steady_target else m2
        if cfg.P is not None:
            dens = conditional_reflected_env(c, p_grid, cfg.P, D=D)
            name = f"conditional_density_D{D:g}_P{cfg.P:g}.csv"
        else:
            dens = reflected_density_env(c, p_grid, D=D)
            name = f"density_D{D:g}.csv"
        dens = list(map(float, clamp_density(dens)))
        _write_csv(outdir / name, ["p", "density"], list(zip(map(float, p_grid), dens)))
        plot_series.append((f"D={D:g}", list(map(float, p_grid)), dens))
        cut = timescale_cutoffs_model2(c, D=D) if D > 0 else None
        if cut is not None and not cut.suppressed:
            print(f"D={D:g}: dominant cutoff {cut.dominant} = {cut.margin:.3g} t_E "
                  "(no strong suppression expected)")
    (outdir / "density.svg").write_text(line_plot(
        plot_series, "two-particle reflected density", "p", "density"))
    if len(sweep) > 1:
        totals = total_reflected_model2(m2, sweep)
        _write_csv(outdir / "total_vs_D.csv", ["D", "total_reflected"],
                   list(zip(sweep, map(float, totals))))
        (outdir / "total.svg").write_text(line_plot(
            [("total", list(sweep), list(map(float, totals)))],
            "two-particle total reflected probability", "D", "probability", logx=True))
    return []


def _run_figures(cfg: RunConfig, outdir: Path) -> list[str]:
    which = cfg.figure
    if which not in (1, 2, 3, 4, 5):
        raise ConfigError("figures requires --figure N with N in 1..5")
    return run_figures(which, outdir, cfg)


def run_figures(which: int, outdir: Path, cfg: RunConfig | None = None) -> list[str]:
    """Reproduce one of the five standard figure data sets into outdir.

    Figures 2-5 are fully pinned by their stated parameters (units
    m = p_bar = hbar = 1); figure 1 ships representative defaults, labeled as
    such in the resolved configuration.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    base = cfg or RunConfig()
    if which == 1:
        sub = base.replace(command="unitary", sigma=10.0, V0=1.13, a=1.0,
                           potential_kind="gaussian", n_points=4096)
        return _run_unitary(sub, outdir)
    if which == 2:
        sub = base.replace(command="model1", coupling="p", a=0.1, V0=0.01,
                           Dp_sweep=(0.01, 0.1, 0.3, 1.0, 3.0))
        return _run_model1(sub, outdir)
    if which == 3:
        a_values = base.a_list or (0.1, 0.2, 0.4)
        dps = tuple(float(v) for v in np.logspace(-2, 2, 17))
        series = []
        for a in a_values:
            sub = base.replace(command="model1", coupling="p", a=a, V0=0.01)
            params = sub.physical_params()
            totals = [total_reflected(params, EnvironmentSpec.momentum(dp)) for dp in dps]
            _write_csv(outdir / f"total_vs_Dp_a{a:g}.csv",
                       ["D_p", "total_reflected"], list(zip(dps, totals)))
            series.append((f"a={a:g}", list(dps), totals))
        (outdir / "figure3.svg").write_text(line_plot(
            series, "total reflected probability vs D_p", "D_p", "probability",
            logx=True))
        return []
    if which == 4:
        sub = base.replace(command="model2", M=10.0, sigma=100.0, a=0.1, V0=0.01,
                           steady_target=True, D_sweep=(0.01, 0.1, 1.0, 10.0))
        return _run_model2(sub, outdir)
    # figure 5: one s-integral per D serves every width
    a_values = base.a_list or (0.1, 0.2, 0.4)
    ds = tuple(float(v) for v in np.logspace(-2, 2, 13))
    subs = [base.replace(command="model2", M=10.0, sigma=100.0, a=a, V0=0.01,
                         D=ds[0], steady_target=True) for a in a_values]
    barriers = [sub.physical_params().potential for sub in subs]
    m2 = Model2Config(subs[0].physical_params(), tau=subs[0].resolved_tau(),
                      steady_target=True)
    series = []
    for a, totals in zip(a_values, total_reflected_model2(m2, ds, barriers=barriers)):
        _write_csv(outdir / f"total_vs_D_a{a:g}.csv", ["D", "total_reflected"],
                   list(zip(ds, map(float, totals))))
        series.append((f"a={a:g}", list(ds), list(map(float, totals))))
    (outdir / "figure5.svg").write_text(line_plot(
        series, "two-particle total reflected probability vs D", "D",
        "probability", logx=True))
    return []


# -- argument parsing -------------------------------------------------------------


_FLAG_KEYS = [f.name for f in fields(RunConfig) if f.name != "command"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line and exit 2, as for any config error
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qreflect",
        description="1D scattering laboratory: reflection under environmental decoherence",
    )
    parser.add_argument("--version", action="version", version=f"qreflect {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value configuration file")
        for key in _FLAG_KEYS:
            flags = [f"--{key}"]
            if "_" in key:
                flags.append(f"--{key.replace('_', '-')}")
            p.add_argument(*flags, dest=f"set_{key}", metavar="VALUE")
        for alias, target in _ALIASES.items():
            if alias.replace("_", "-") == alias and f"--{alias}" in (
                    f"--{k.replace('_', '-')}" for k in _FLAG_KEYS):
                continue
            p.add_argument(f"--{alias}", dest=f"set_{target}", metavar="VALUE")
        p.add_argument("--conditional", dest="set_P", metavar="P")
    return parser


def build_config(argv: list[str]) -> RunConfig:
    """Resolve config file plus flag overrides into a RunConfig."""
    ns = _build_parser().parse_args(argv)
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
    "figures": _run_figures,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = build_config(argv)
        outdir = Path(cfg.outdir)
        _emit_config(cfg, outdir)
        warnings = _RUNNERS[cfg.command](cfg, outdir)
        if warnings and cfg.strict:
            raise RegimeEscalation("; ".join(warnings))
    except (QuadratureError, BoundaryLeakageError, PrematureMeasurementError,
            ClosureError) as exc:
        if isinstance(exc, ClosureError):  # a hint on stdout; stderr keeps one line
            print(f"hint: explicit moment steps need --dt below {exc.dt_max:.3g} here")
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RegimeEscalation as exc:
        print(f"regime warning escalated (--strict): {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
