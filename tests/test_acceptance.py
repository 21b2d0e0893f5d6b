"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one [ACCEPTANCE nn] PASS/FAIL line (visible with -s, or on
failure).  Expected values marked as frozen were computed from independent
oracles (scipy quadrature of closed forms, exact algebra, exact Lindblad
moment identities) before being pinned here.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

from qreflect import (EnvironmentSpec, Model2Config, PhysicalParams, PotentialSpec,
                      SpatialGrid, TrajectoryMoments, born_reflection, check_regime,
                      compute_timescales, conditional_reflected_env,
                      conditional_reflected_noenv, fluctuation_report, gaussian_packet,
                      gaussian_state_from_moments, joint_reflected_noenv,
                      marginal_reflected_noenv, moment_step, propagate,
                      reflected_density_env, reflected_density_x,
                      reflection_probability, run_moment_ensemble,
                      run_wavefunction_ensemble, step_trajectory, steady_moments,
                      target_momentum_density, total_reflected, total_reflected_model2,
                      wavefunction_moments, wigner_spreading_ratio)
from qreflect.cli import main as cli_main
from qreflect.qsd import NoiseStream

GAUSS = PotentialSpec.gaussian(0.01, 0.1)


class criterion:
    """Prints one PASS/FAIL line per acceptance criterion."""

    def __init__(self, number: int, description: str):
        self.number = number
        self.description = description

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[ACCEPTANCE {self.number:02d}] {status} "
              f"({time.time() - self.t0:.1f}s): {self.description}")
        return False


def test_criterion_01_born_consistency():
    with criterion(1, "Born consistency: kernel zero-coupling limit vs closed "
                      "Born form (1e-8) and grid vs Born total (5%)"):
        t0 = time.time()
        # (a) plane-wave kernel at D = 0, tau = inf resolves to the Born
        # delta coefficient; compare against independently coded forms
        params = PhysicalParams(potential=GAUSS)
        for p in np.linspace(-6.0, -0.05, 40):
            got = reflected_density_x(float(p), params, D=0.0, tau=math.inf)
            v2 = 0.01**2 / (2 * math.pi) * math.exp(-0.01 * (p - 1.0) ** 2)
            assert got == pytest.approx(2 * math.pi * v2, rel=1e-8)
        window = PhysicalParams(potential=PotentialSpec.smeared_window(0.01, 0.1, 1.0))
        for p in (-0.4, -1.0, -2.2):
            got = reflected_density_x(p, window, D=0.0, tau=math.inf)
            d = p - 1.0
            f_L = 2.0 * math.sin(d * 1.0) / d / math.sqrt(2 * math.pi)
            v2 = (0.01 * math.exp(-0.01 * d**2 / 2.0) * f_L) ** 2
            assert got == pytest.approx(2 * math.pi * v2, rel=1e-8)
        # (b) split-step propagation vs the Born total at V0 = 0.01, a = 0.1
        params = PhysicalParams(sigma=5.0, potential=GAUSS)
        born = born_reflection(params)
        grid = SpatialGrid(-120, 120, 2048)
        psi0 = gaussian_packet(params, grid, center=-35.0)
        series = propagate(psi0, GAUSS, params, dt=0.0042, n_steps=int(75 / 0.0042))
        reflected, _, _ = reflection_probability(series)
        assert reflected == pytest.approx(born.total, rel=0.05)
        assert time.time() - t0 < 60.0


def test_criterion_02_position_coupling_negligible_in_small_fluctuation_regime():
    with criterion(2, "position coupling leaves the reflection peak within 1% "
                      "when fluctuations are small"):
        t0 = time.time()
        params = PhysicalParams(D=1e-5, sigma=10.0, potential=GAUSS)
        report = compute_timescales(params)
        verdict = check_regime(report, params, threshold=0.1)
        assert verdict.small_fluctuations_chain is True
        tau = params.tau_default
        with_env = reflected_density_x(-1.0, params, D=1e-5, tau=tau)
        without = reflected_density_x(-1.0, params, D=0.0, tau=tau)
        assert abs(with_env - without) / without < 0.01
        assert time.time() - t0 < 10.0


def test_criterion_03_momentum_coupling_suppression():
    with criterion(3, "momentum-coupling total strictly decreasing; "
                      "total(m hbar D_p = 10) < 20% of total(0.01)"):
        t0 = time.time()
        params = PhysicalParams(potential=GAUSS)
        sweep = np.array([0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0])
        totals = total_reflected(params, [EnvironmentSpec.momentum(x) for x in sweep])
        assert np.all(np.diff(totals) < 0.0)
        ratio = totals[-1] / totals[0]
        assert ratio < 0.20
        # frozen independent oracle (scipy quadrature of the closed form over
        # the same p-range): ratio = 0.02757
        def oracle(D_p):
            c = 2.0 * D_p
            f = lambda p: (0.01**2 * math.exp(-0.01 * (p - 1) ** 2)
                           * (2 * c / math.pi) / ((p + 1) ** 2 + c**2 * (p - 1) ** 2))
            v, _ = quad(f, -8, 0, points=[-1.0], limit=400)
            return v
        oracle_ratio = oracle(10.0) / oracle(0.01)
        assert oracle_ratio == pytest.approx(0.027574, rel=1e-3)
        assert ratio == pytest.approx(oracle_ratio, rel=0.02)
        assert time.time() - t0 < 10.0


def test_criterion_04_delta_limit_linear_in_coupling():
    with criterion(4, "broadening factor tends to delta(p + p_bar) with error "
                      "linear in D_p (fitted exponent 1.0 +- 0.2)"):
        tests = [lambda p: math.exp(-((p + 1.0) ** 2) / 2.0),
                 lambda p: math.exp(-((p + 1.0) ** 2) / 8.0) * math.cos(0.3 * p),
                 lambda p: 1.0 / (1.0 + (p + 1.0) ** 2)]
        couplings = np.array([1e-3, 3e-3, 1e-2, 3e-2])
        for phi in tests:
            errs = []
            for D_p in couplings:
                c = 2.0 * D_p
                weight = lambda p: (2 * c / math.pi) / ((p + 1.0) ** 2
                                                        + c**2 * (p - 1.0) ** 2)
                val, _ = quad(lambda p: weight(p) * phi(p), -90, 90,
                              points=[-1.0], limit=400)
                errs.append(abs(val - phi(-1.0)))
            slope = float(np.polyfit(np.log(couplings), np.log(errs), 1)[0])
            assert 0.8 <= slope <= 1.2


def test_criterion_05_qsd_localization():
    with criterion(5, "QSD ensemble localizes to the steady widths within 5% "
                      "at t = 5 t_loc (64 seeds, dt = t_loc/200)"):
        t0 = time.time()
        params = PhysicalParams(D=1.0, sigma=20.0 * (1.0 / 8.0) ** 0.25)
        sq2 = params.sigma_q**2
        t_loc = 1.0
        dt = t_loc / 200.0
        grid = SpatialGrid(-80, 80, 1024)
        psi0 = gaussian_packet(params, grid, center=0.0, mean_p=0.0)
        env = EnvironmentSpec.position(1.0)
        n_steps = int(round(5.0 * t_loc / dt))

        records = run_wavefunction_ensemble(psi0, env, params, dt, n_steps, range(100, 164),
                                            record_every=n_steps)
        var_x = float(np.mean(records[:, -1, 3]))
        cov = float(np.mean(records[:, -1, 5]))
        assert var_x == pytest.approx(sq2, rel=0.05)
        assert cov == pytest.approx(0.5, rel=0.05)
        assert time.time() - t0 < 300.0


def test_criterion_06_fluctuation_growth_laws():
    with criterion(6, "total momentum fluctuation grows at 2D for position "
                      "coupling (15%) and stays flat for momentum coupling"):
        params = PhysicalParams(D=1.0)
        env = EnvironmentSpec.position(1.0)
        mom0 = steady_moments(params)

        records = run_moment_ensemble(mom0, env, params, dt=0.005, n_steps=1000,
                                      seeds=range(500, 1524), record_every=20)
        rep = fluctuation_report(records, fit_window=(1.0, 5.0))
        assert rep.fitted_rate == pytest.approx(2.0, rel=0.15)

        params_p = PhysicalParams(D_p=1.0, sigma=1.0)
        env_p = EnvironmentSpec.momentum(1.0)
        mom0_p = TrajectoryMoments(0.0, 0.0, 1.0, 1.0, 0.25, 0.0)

        records_p = run_moment_ensemble(mom0_p, env_p, params_p, dt=0.002, n_steps=1000,
                                        seeds=range(900, 1156), record_every=10)
        rep_p = fluctuation_report(records_p, fit_window=(0.2, 2.0))
        t_z = 1.0
        assert abs(rep_p.fitted_rate) * t_z < 0.02


def test_criterion_07_moment_vs_wavefunction_convergence():
    with criterion(7, "moment and wavefunction integrators on one Brownian "
                      "path: mean-error halves when dt halves"):
        params = PhysicalParams(D=1.0)
        env = EnvironmentSpec.position(1.0)
        grid = SpatialGrid(-24, 24, 256)
        sq2 = params.sigma_q**2
        vx0, c0 = 1.5 * sq2, 0.2
        vp0 = (0.25 + c0**2) / vx0

        def mismatch(dt, dBs):
            mom = TrajectoryMoments(0.0, 0.3, 0.4, vx0, vp0, c0)
            psi = gaussian_state_from_moments(grid, 0.3, 0.4, vx0, c0)
            for dB in dBs:
                mom = moment_step(mom, params, env, dt, dB)
                psi = step_trajectory(psi, env, params, dt, dB)
            wm = wavefunction_moments(psi)
            return abs(wm.mean_x - mom.mean_x) + abs(wm.mean_p - mom.mean_p)

        ratios = []
        for seed in (1, 2, 3):
            ns = NoiseStream(seed)
            fine = [ns.next_increment(0.005) for _ in range(100)]
            coarse = [fine[2 * i] + fine[2 * i + 1] for i in range(50)]
            ratios.append(mismatch(0.01, coarse) / mismatch(0.005, fine))
        assert 1.5 < float(np.mean(ratios)) < 2.6


def test_criterion_08_model2_limit_web():
    with criterion(8, "two-particle limit web: env(D->0) = unitary marginal "
                      "(0.5%), conditional * target density = joint (1e-12), "
                      "large-tau reduction of the conditional (1%)"):
        params = PhysicalParams(M=10.0, Sigma=1.0, potential=GAUSS)
        cfg = Model2Config(params, tau=1e5)
        for p in (-0.7, -0.82, -0.95, -1.1):
            env = reflected_density_env(cfg, p, D=1e-8)
            noenv = marginal_reflected_noenv(cfg, p)
            assert env == pytest.approx(noenv, rel=5e-3)
        for (p, P) in ((-0.9, 0.3), (-1.5, -0.7), (-0.4, 1.9)):
            joint = joint_reflected_noenv(cfg, p, P)
            cond = conditional_reflected_noenv(cfg, p, P)
            assert cond * target_momentum_density(cfg, P) == pytest.approx(joint, rel=1e-12)
        M = 1000.0
        par2 = PhysicalParams(M=M, Sigma=50.0, sigma=1.0, D=0.01, potential=GAUSS)
        cfg2 = Model2Config(par2, tau=100.0)  # 100 t_z
        p_star = -(M - 1.0) / (M + 1.0)
        for P in (0.0, 0.02):
            full = conditional_reflected_env(cfg2, p_star, P, D=0.01)
            red = conditional_reflected_env(cfg2, p_star, P, D=0.01, reduced=True)
            assert full == pytest.approx(red, rel=0.01)


def test_criterion_09_model2_suppression_curve():
    with criterion(9, "two-particle total monotone decreasing in D with the "
                      "knee within a decade of D = 1; total(10) < 25% of "
                      "total(0.01)"):
        t0 = time.time()
        params = PhysicalParams(M=10.0, sigma=100.0, D=0.01, potential=GAUSS)
        cfg = Model2Config(params, steady_target=True)
        sweep = np.array([0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0])
        totals = total_reflected_model2(cfg, sweep)
        assert np.all(np.diff(totals) < 0.0)
        ratio = totals[-1] / totals[0]
        assert ratio < 0.25
        # frozen pre-build oracle (scipy quadrature route): ratio = 0.1790
        assert ratio == pytest.approx(0.179, rel=0.02)
        # knee: half suppression within a decade of D = 1
        rel = totals / totals[0]
        d_half = float(np.exp(np.interp(-math.log(2.0), np.log(rel[::-1]),
                                        np.log(sweep[::-1]))))
        assert 0.1 <= d_half <= 10.0
        assert time.time() - t0 < 120.0


def test_criterion_10_velocity_fluctuation_control():
    with criterion(10, "target velocity spread across the incoming velocity "
                       "flattens the reflected peak (width ratio < 0.2 to > 1)"):
        M = 1000.0

        def width_over_pbar(ratio):
            Sigma = 1.0 / (ratio * M)
            cfg = Model2Config(PhysicalParams(M=M, Sigma=Sigma, potential=GAUSS))
            pg = np.linspace(-8.0, -1e-3, 4001)
            dens = np.array([marginal_reflected_noenv(cfg, p) for p in pg])
            above = dens >= dens.max() / 2.0
            if above[0] or above[-1]:
                return pg[-1] - pg[0]
            return pg[above][-1] - pg[above][0]

        assert width_over_pbar(0.05) < 0.2
        assert width_over_pbar(1.0) > 1.0


def test_criterion_11_timescale_algebra():
    with criterion(11, "timescale cross-identities at 1e-12 (exact constants) "
                       "and randomized mutual exclusion over 1000 draws"):
        rng = np.random.default_rng(7)
        for _ in range(300):
            params = PhysicalParams(
                m=rng.uniform(0.2, 5.0), hbar=rng.uniform(0.2, 3.0),
                p_bar=rng.uniform(0.2, 4.0), sigma=rng.uniform(0.5, 50.0),
                D=10.0 ** rng.uniform(-6, 2), potential=GAUSS)
            r = compute_timescales(params)
            fl = r.sigma_p / params.p_bar
            assert r.t_E / r.t_z_qsd == pytest.approx(2 * math.sqrt(2) * fl, rel=1e-12)
            assert r.t_z_qsd / r.t_loc == pytest.approx(0.5 * fl, rel=1e-12)
            assert r.t_z_qsd / r.t_d_p == pytest.approx(
                fl ** (1 / 3) / 2 ** (5 / 6), rel=1e-12)
            assert r.t_d_p / r.t_loc == pytest.approx(
                fl ** (2 / 3) / 2 ** (1 / 6), rel=1e-12)
            assert wigner_spreading_ratio(params, r.t_d_p) == pytest.approx(
                1.0, rel=1e-12)
        both = 0
        for _ in range(1000):
            params = PhysicalParams(
                m=rng.uniform(0.1, 10.0), hbar=rng.uniform(0.1, 10.0),
                p_bar=rng.uniform(0.1, 10.0), sigma=rng.uniform(0.5, 100.0),
                D=10.0 ** rng.uniform(-8, 4), potential=GAUSS)
            r = compute_timescales(params)
            v = check_regime(r, params, threshold=0.1)
            if v.small_fluctuations_chain and r.t_d_p < r.t_E:
                both += 1
        assert both == 0


def test_criterion_12_determinism_across_workers(tmp_path):
    with criterion(12, "identical config and seed give byte-identical CSVs "
                       "for any worker count"):
        pairs = [
            (["model1", "--coupling", "p", "--Dp_sweep", "0.01,0.1,1,10"], "m1"),
            (["qsd", "--coupling", "x", "--D", "1", "--level", "moments",
              "--n_traj", "8", "--seed", "42", "--t_final", "1.0"], "qsd"),
        ]
        for args, tag in pairs:
            d1 = tmp_path / f"{tag}_t1"
            d4 = tmp_path / f"{tag}_t4"
            assert cli_main(args + ["--outdir", str(d1), "--threads", "1"]) == 0
            assert cli_main(args + ["--outdir", str(d4), "--threads", "4"]) == 0
            for name in sorted(os.listdir(d1)):
                if name == "resolved_config.txt":
                    continue  # records the differing --threads value
                assert (d1 / name).read_bytes() == (d4 / name).read_bytes(), name
