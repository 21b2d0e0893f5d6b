"""Two-particle scattering kernels: limits, identities, suppression."""

import csv
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from qreflect import (Model2Config, PhysicalParams, PotentialSpec,
                      conditional_reflected_env, conditional_reflected_noenv,
                      joint_reflected_noenv, marginal_reflected_noenv,
                      potential_momentum, reflected_density_env,
                      scattering_time, steady_target_width, target_cutoffs,
                      target_momentum_density, total_reflected_model2)
from qreflect import model2
from qreflect.cli import main
from qreflect.model2 import clamp_density, exp_quadratic_integral
from qreflect.oscquad import decay_cutoff, panel_nodes

GAUSS = PotentialSpec.gaussian(0.01, 0.1)


def _model2_kinematics_oracle(params, P_in, p_in):
    """Elastic two-body outgoing momenta (P_out, p_out) for target mass M: total
    momentum and kinetic energy are conserved exactly."""
    m, M = params.m, params.M
    s = M + m
    P_out = ((M - m) * P_in + 2.0 * M * p_in) / s
    p_out = (2.0 * m * P_in - (M - m) * p_in) / s
    return P_out, p_out


def make_cfg(M=10.0, Sigma=1.0, sigma=1.0, tau=None, steady=False, D=0.0, a=0.1, V0=0.01):
    params = PhysicalParams(M=M, Sigma=None if steady else Sigma, sigma=sigma, D=D,
                            potential=PotentialSpec.gaussian(V0, a))
    return Model2Config(params, tau=tau, steady_target=steady)


def test_zero_barrier_vanishes():
    cfg = make_cfg(V0=0.0)
    assert joint_reflected_noenv(cfg, -1.0, 0.3).coefficient == 0.0
    assert marginal_reflected_noenv(cfg, -1.0) == 0.0
    totals = total_reflected_model2(make_cfg(V0=0.0, D=1.0, steady=True), [0.5, 2.0])
    assert np.all(totals == 0.0)


def test_constraint_root_matches_kinematics():
    cfg = make_cfg(M=10.0)
    params = cfg.params
    for P_in in (-0.7, 0.0, 1.3):
        P_out, p_out = _model2_kinematics_oracle(params, P_in, 1.0)
        pb, m, M = params.p_bar, params.m, params.M
        # E(p, P) at the outgoing momenta, its root in P, and dE/dP = (p - p_bar) / M
        residual = ((pb**2 - p_out**2) / (2.0 * m)
                    + ((P_out + p_out - pb) ** 2 - P_out**2) / (2.0 * M))
        assert abs(residual) < 1e-12
        root = 0.5 * (M * (pb + p_out) / m - (p_out - pb))
        assert root == pytest.approx(P_out, abs=1e-10)
        assert (p_out - pb) / M == pytest.approx((p_out - 1.0) / 10.0, rel=1e-12)


def test_kinematics_equal_mass_exchange():
    params = PhysicalParams(m=1.0, M=1.0 + 1e-12)
    P_out, p_out = _model2_kinematics_oracle(params, 0.3, 1.4)
    assert P_out == pytest.approx(1.4, rel=1e-9)
    assert p_out == pytest.approx(0.3, rel=1e-9)


def test_kinematics_heavy_wall_limit():
    params = PhysicalParams(m=1.0, M=1e6)
    P_out, p_out = _model2_kinematics_oracle(params, 0.0, 1.0)
    assert p_out == pytest.approx(-1.0, abs=1e-5)


def test_kinematics_conservation_and_first_order_form():
    params = PhysicalParams(m=1.0, M=10.0)
    P_in, p_in = 0.0, 1.0
    P_out, p_out = _model2_kinematics_oracle(params, P_in, p_in)
    assert p_out == pytest.approx(-9.0 / 11.0, rel=1e-14)
    assert P_out == pytest.approx(20.0 / 11.0, rel=1e-14)
    # exact conservation
    assert P_out + p_out == pytest.approx(P_in + p_in, rel=1e-12)
    e_in = p_in**2 / 2 + P_in**2 / 20
    e_out = p_out**2 / 2 + P_out**2 / 20
    assert e_out == pytest.approx(e_in, rel=1e-12)
    # first-order-in-m/M form p ~ -p_bar + 2 (m/M) P_in holds up to O(m/M)
    first_order = -p_in + 2 * (1.0 / 10.0) * P_in
    assert abs(p_out - first_order) <= 2.2 * (1.0 / 10.0) * (abs(p_in) + abs(P_in))


def test_light_particle_marginal_peak_width():
    # m << M, P_bar = 0: Gaussian peak at p = -p_bar of width ~ hbar m / (Sigma M)
    M, Sigma = 400.0, 2.0
    cfg = make_cfg(M=M, Sigma=Sigma)
    p_star = -(M - 1.0) / (M + 1.0)
    peak = marginal_reflected_noenv(cfg, p_star)
    width = 1.0 / (Sigma * M)  # hbar m / (Sigma M)
    half = marginal_reflected_noenv(cfg, p_star + 2.0 * math.sqrt(math.log(2.0)) * width)
    assert half / peak == pytest.approx(0.5, rel=0.05)


def test_marginal_exact_vs_light_particle_form():
    # the m << M form drops the elastic recoil shift 2 m p_bar / M of the
    # peak, so it matches the exact marginal when the peak width hbar m /
    # (Sigma M) dominates that shift, i.e. in the broad-target-momentum regime
    cfg = make_cfg(M=1000.0, Sigma=0.005)
    m, M, hbar, pb, Sg = 1.0, 1000.0, 1.0, 1.0, 0.005
    for p in (-0.9, -1.0, -1.1):
        exact = marginal_reflected_noenv(cfg, p)
        v2 = float(potential_momentum(GAUSS, p - pb, hbar)) ** 2
        simple = (2.0 * math.sqrt(math.pi) * Sg * m * M / (hbar**2 * pb * abs(p - pb)) * v2
                  * math.exp(-(Sg**2) * M**2 * (p + pb) ** 2 / (4.0 * hbar**2 * m**2)))
        assert simple == pytest.approx(exact, rel=5e-3)


def test_marginal_v0_scaling():
    cfg4 = make_cfg(V0=0.02)
    cfg1 = make_cfg(V0=0.01)
    for p in (-0.6, -0.82, -1.4):
        assert marginal_reflected_noenv(cfg4, p) == pytest.approx(
            4.0 * marginal_reflected_noenv(cfg1, p), rel=1e-12)


def test_velocity_fluctuation_flattening():
    # sweeping the target velocity spread across the light-particle velocity
    # takes the reflected peak from narrow to flattened-out
    M = 1000.0

    def width_over_pbar(ratio):
        Sigma = 1.0 / (ratio * M)  # Sigma_p / M = ratio * (p_bar / m)
        cfg = make_cfg(M=M, Sigma=Sigma)
        pg = np.linspace(-8.0, -1e-3, 4001)
        dens = np.array([marginal_reflected_noenv(cfg, p) for p in pg])
        half = dens.max() / 2.0
        above = dens >= half
        lo, hi = pg[above][0], pg[above][-1]
        if above[0] or above[-1]:
            return pg[-1] - pg[0]
        return hi - lo

    assert width_over_pbar(0.05) < 0.2
    assert width_over_pbar(1.0) > 1.0


def test_conditional_times_target_density_is_joint():
    cfg = make_cfg(M=10.0, Sigma=1.3)
    for (p, P) in ((-0.9, 0.3), (-1.5, -0.7), (-0.4, 1.9)):
        joint = joint_reflected_noenv(cfg, p, P)
        cond = conditional_reflected_noenv(cfg, p, P)
        assert cond.coefficient * target_momentum_density(cfg, P) == pytest.approx(
            joint.coefficient, rel=1e-12)


def test_conditional_narrow_target_recovers_unitary_form():
    # P_bar = 0, P = 0, small Sigma: the exponential factor is ~ 1 and the
    # coefficient is the bare one
    cfg = make_cfg(M=10.0, Sigma=0.01)
    got = conditional_reflected_noenv(cfg, -1.0, 0.0)
    bare = 2 * math.pi / 1.0 * float(potential_momentum(GAUSS, -2.0)) ** 2
    assert got.coefficient == pytest.approx(bare, rel=1e-3)


def test_conditional_suppression_factor_arithmetic():
    Sigma = 1.0
    cfg = make_cfg(M=10.0, Sigma=Sigma)
    p, P = -0.8, 1.0  # P = Sigma_p scale
    got = conditional_reflected_noenv(cfg, p, P).coefficient
    bare = 2 * math.pi * float(potential_momentum(GAUSS, p - 1.0)) ** 2
    delta = p - 1.0
    expected = bare * math.exp(-(Sigma**2) * ((delta + P) ** 2 - P**2))
    assert got == pytest.approx(expected, rel=1e-12)


# -- with environment -------------------------------------------------------------


def test_env_kernel_recovers_unitary_marginal():
    cfg = make_cfg(M=10.0, Sigma=1.0, tau=1e5)
    for p in (-0.7, -0.82, -0.95, -1.1):
        env = reflected_density_env(cfg, p, D=1e-8)
        noenv = marginal_reflected_noenv(cfg, p)
        assert env == pytest.approx(noenv, rel=5e-3)
    # tau = inf is the joint limit and equals the closed marginal exactly
    assert reflected_density_env(make_cfg(M=10.0, Sigma=1.0, tau=math.inf), -0.9,
                                 D=0.0) == pytest.approx(
        marginal_reflected_noenv(cfg, -0.9), rel=1e-14)


def test_env_kernel_against_double_quadrature():
    cfg = make_cfg(M=10.0, Sigma=1.0, sigma=100.0)
    tau = cfg.tau
    D, p = 1.0, -1.0
    delta = p - 1.0
    omega = (1.0 - p * p) / 2.0 + (0.0 - delta**2) / 20.0
    f = lambda u, s: math.cos(omega * s) * math.exp(
        -D * s**3 * delta**2 / 300.0 - D * s**2 * u * delta**2 / 100.0
        - s**2 * delta**2 / 400.0)
    val, _ = dblquad(f, 0, 40.0, 0, lambda s: tau - s, epsabs=1e-13, epsrel=1e-10)
    v2 = float(potential_momentum(GAUSS, delta)) ** 2
    brute = 2.0 * v2 * val / tau
    assert reflected_density_env(cfg, p, D=D) == pytest.approx(brute, rel=1e-4)


def test_env_kernel_spreads_and_flattens():
    cfg = make_cfg(M=10.0, Sigma=None, sigma=100.0, steady=True, D=0.01)
    pg = np.linspace(-2.5, 0.5, 301)
    pg = pg[np.abs(pg - 1.0) > 1e-9]
    peaks, masses_neg = {}, {}
    for D in (0.01, 1.0, 10.0):
        c = cfg.with_D(D)
        dens = np.array([reflected_density_env(c, p, D=D) for p in pg])
        peaks[D] = dens.max()
        masses_neg[D] = dens[pg < 0].sum()
    assert peaks[0.01] > peaks[1.0] > peaks[10.0]
    assert masses_neg[0.01] > masses_neg[10.0]


def test_total_reflected_suppression_curve():
    cfg = make_cfg(M=10.0, Sigma=None, sigma=100.0, steady=True, D=0.01)
    sweep = np.array([0.01, 0.1, 1.0, 10.0])
    totals = total_reflected_model2(cfg, sweep)
    assert np.all(np.diff(totals) < 0)
    assert totals[-1] / totals[0] < 0.25
    # smearing-length ordering at fixed D
    at = []
    for a in (0.1, 0.2, 0.4):
        c = make_cfg(M=10.0, Sigma=None, sigma=100.0, steady=True, D=1.0, a=a)
        at.append(total_reflected_model2(c, [1.0])[0])
    assert at[0] > at[1] > at[2]


@pytest.mark.parametrize("D", [0.01, 10.0])
def test_total_matches_mpmath_over_its_range(D):
    # figure 5's setting: mpmath's tanh-sinh rule over [-8 p_bar, 0], split at
    # p = -p_bar, of the same density, one s-integral per node
    cfg = make_cfg(M=10.0, Sigma=None, sigma=100.0, steady=True, D=D)
    want, err = mpmath.quad(lambda p: reflected_density_env(cfg, float(p), D=D),
                            [-8.0, -1.0, 0.0], error=True)
    assert err < 1e-9 * want
    assert total_reflected_model2(cfg, [D])[0] == pytest.approx(float(want), rel=1e-8)


def test_figure5_widths_equal_their_own_env_densities(tmp_path):
    # the widths and the D values share one p-integral and its s-integrals; each
    # total must still be its own width's single-barrier, single-D total, bit for bit
    assert main(["figures", "--figure", "5", "--a_list", "0.05,0.3",
                 "--outdir", str(tmp_path)]) == 0
    for a in (0.05, 0.3):
        cfg_a = make_cfg(M=10.0, Sigma=None, sigma=100.0, steady=True, D=0.01, a=a)
        rows = list(csv.reader(open(tmp_path / f"total_vs_D_a{a:g}.csv")))[1:]
        assert len(rows) == 13
        for D_text, total in rows:
            D = float(D_text)
            assert float(total) == float(total_reflected_model2(cfg_a, [D])[0])


def test_conditional_env_real_and_prefactor():
    cfg = make_cfg(M=10.0, Sigma=1.0, sigma=1.0, tau=100.0)
    D = 0.5
    # P = P_bar: the leading suppression factor is exp(-Sigma^2 delta^2 / G)
    p = -0.9
    delta = p - 1.0
    G = 4 * D * 100.0 * 1.0 + 1.0
    reduced = conditional_reflected_env(cfg, p, 0.0, D=D, reduced=True)
    expected_prefactor = math.exp(-(delta**2) / G)
    assert reduced / reflected_density_env(cfg, p, D=D) == pytest.approx(
        expected_prefactor, rel=1e-12)
    # the displayed expression is I + I*: evaluating the conjugate orientation
    # independently must give the same real number
    full = conditional_reflected_env(cfg, p, 0.0, D=D)
    assert isinstance(full, float)


def test_conditional_env_large_tau_reduction():
    # regime where the first-interaction-time integral never saturates
    # (T_1 >> tau): the large-tau reduced integrand reproduces the full
    # double quadrature at the spectral peak
    M = 1000.0
    params = PhysicalParams(M=M, Sigma=50.0, sigma=1.0, D=0.01,
                            potential=GAUSS)
    cfg = Model2Config(params, tau=100.0)  # 100 t_z at sigma = 1
    p_star = -(M - 1.0) / (M + 1.0)
    for P in (0.0, 0.02):
        full = conditional_reflected_env(cfg, p_star, P, D=0.01)
        red = conditional_reflected_env(cfg, p_star, P, D=0.01, reduced=True)
        assert full == pytest.approx(red, rel=0.01)


def _double_quadrature(cfg, p, P, D):
    """Reference conditional kernel: the (s, u) double Gauss-Legendre
    quadrature, one u-panel set per s node.

    Returns the value and its roundoff scale |prefactor| (2/tau) sum_s w U
    max_u |integrand|; the real exponent is convex in u, so the maximum sits
    at an endpoint.
    """
    m, M, hbar, pb, Pb, Sg = model2._target(cfg)
    tau = cfg.tau
    delta, dP = p - pb, P - Pb
    G = 4.0 * D * tau * Sg**2 + hbar**2
    prefactor = (m / (hbar**2 * pb) * model2._v_squared(cfg.params, delta)
                 * math.exp(-(Sg**2) * ((delta + dP) ** 2 - dP**2) / G))
    omega = model2._recoil_omega(cfg, p)
    beta = D * delta**2 / (3.0 * M**2 * hbar**2)
    kappa = D * delta**2 / (M**2 * hbar**2)

    def integrand(s, u):
        s2u = s + 2.0 * u
        phase = -s * omega - s * (4.0 * D * s2u * Sg**2 + 2.0 * hbar**2) / (
            2.0 * M * hbar * G) * delta * (delta + dP)
        real = -beta * s**3 - kappa * s**2 * u + (
            D * s**2 * delta**2 / (4.0 * M**2 * hbar**2)) * (
            4.0 * D * s2u**2 * Sg**2 + 4.0 * hbar**2 * (s2u - tau)) / G
        return np.exp(real + 1j * phase)

    upper = min(tau, decay_cutoff((0.25 * beta, 3)))
    h = min(math.pi / abs(omega) if omega != 0.0 else upper, 0.125 * upper)
    total, scale = 0.0j, 0.0
    for s, w in zip(*panel_nodes(0.0, upper, int(math.ceil(upper / h)))):
        u_hi = tau - s
        u, wu = panel_nodes(0.0, u_hi, min(200, max(8, int(8 + kappa * s**2 * u_hi))))
        total += w * np.sum(integrand(np.full_like(u, s), u) * wu)
        scale += w * u_hi * np.abs(integrand(np.array([s, s]), np.array([0.0, u_hi]))).max()
    return (float(prefactor * 2.0 * (total / tau).real),
            abs(prefactor) * 2.0 * scale / tau)


FIG4 = Model2Config(PhysicalParams(M=10.0, sigma=100.0, D=0.01, potential=GAUSS),
                    steady_target=True)
HEAVY = Model2Config(PhysicalParams(M=1000.0, Sigma=50.0, sigma=1.0, D=0.01,
                                    potential=GAUSS), tau=100.0)
ORACLE_CASES = (
    [("fig4", D, p, P) for D in (0.01, 1.0, 10.0) for p in (-1.8, -1.0, -0.5)
     for P in (0.0, 0.3)]
    # (1e-4, -2.5, -0.3): the plain Dawson form is ~1e146 times off here
    + [("heavy", D, p, P) for D in (1e-4, 0.01) for p in (-2.5, -0.998)
       for P in (-0.3, 0.02)]
    # every s node takes the nearly-linear branch; (delta + dP)^2 = dP^2 at
    # P = 0.999, so the Sigma = 50 suppression factor does not underflow
    + [("heavy", 1e-8, -0.998, 0.999)]
)


@pytest.mark.parametrize("target,D,p,P", ORACLE_CASES)
def test_conditional_env_matches_double_quadrature(target, D, p, P):
    cfg = FIG4.with_D(D) if target == "fig4" else HEAVY
    ref, scale = _double_quadrature(cfg, p, P, D)
    got = conditional_reflected_env(cfg, p, P, D=D)
    assert scale > 0.0
    assert abs(got - ref) <= 1e-9 * scale


def test_conditional_env_nearly_linear_branch(monkeypatch):
    # at D = 1e-8 the u^2 term and the u-phase are tiny at every s node, so
    # the closed form must hand all of them to the Gauss-Legendre branch
    seen = []

    def spy(A, B, C, U):
        seen.append((A, B, U))
        return exp_quadratic_integral(A, B, C, U)

    monkeypatch.setattr(model2, "exp_quadratic_integral", spy)
    conditional_reflected_env(HEAVY, -0.998, 0.999, D=1e-8)
    (A, B, U), = seen
    assert np.all(A * U**2 < 1e-2) and np.all(np.abs(B) * U < math.pi)


@settings(max_examples=40, deadline=None)
@given(U=st.floats(1e-2, 10.0), alpha=st.floats(0.0, 40.0),
       beta_re=st.floats(-40.0, 40.0), beta_im=st.floats(-60.0, 60.0))
@example(U=1.0, alpha=0.0, beta_re=30.0, beta_im=-5.0)  # no u^2 term at all
@example(U=2.0, alpha=1e-3, beta_re=0.5, beta_im=1.0)  # nearly-linear branch
def test_exp_quadratic_integral_against_mpmath(U, alpha, beta_re, beta_im):
    # draw the dimensionless exponent alpha t^2 + beta t on t = u / U in [0, 1]
    A, B = alpha / U**2, complex(beta_re, beta_im) / U
    got = complex(exp_quadratic_integral(A, B, 0.0, U))
    pieces = int(abs(complex(beta_re, beta_im)) / 2.0 + alpha) + 3
    with mpmath.workdps(30):
        ref = complex(mpmath.quad(lambda u: mpmath.exp(A * u * u + B * u),
                                  mpmath.linspace(0, U, pieces), method="gauss-legendre"))
    scale = U * max(1.0, math.exp(alpha + beta_re))  # U max |integrand|
    assert abs(got - ref) <= 1e-13 * scale


def test_faddeeva_against_mpmath():
    # Weideman's expansion against 40-digit w(z) = e^(-z^2) erfc(-iz) on a fixed grid
    # of the closed upper half plane, its only domain: z = 0, the real axis, and
    # |Re z| up to 1e6 with Im z up to 1e3
    re = [0.0, 1e-8, 0.5, 1.0, 3.0, 5.5, 10.0, 30.0, 100.0, 1e3, 1e4, 1e6]
    im = [0.0, 1e-10, 0.1, 1.0, 5.0, 30.0, 100.0, 1e3]
    z = np.array([complex(sign * x, y) for x in re for sign in (1, -1) for y in im])
    with mpmath.workdps(40):
        want = np.array([complex(mpmath.exp(-v**2) * mpmath.erfc(-1j * v))
                         for v in map(mpmath.mpc, z)])
    assert np.max(np.abs(model2._faddeeva(z) - want) / np.abs(want)) <= 2e-15


def test_cutoff_report_identities_and_velocity_form():
    cfg = make_cfg(M=10.0, Sigma=None, sigma=100.0, steady=True, D=1.0)
    cut, t_E = target_cutoffs(cfg.params), scattering_time(cfg.params)
    t_z = 100.0
    assert cut["T_1"] == pytest.approx(cut["T_d_p"]**1.5 / math.sqrt(t_z), rel=1e-12)
    # T_1 << t_E is the velocity condition up to its exact constant 1/2
    assert cut["T_1"] / t_E == pytest.approx(
        0.5 * (1.0 / 1.0) / (math.sqrt(1.0 * t_z) / 10.0), rel=1e-12)


def test_t1_condition_weakest_over_random_steady_targets():
    rng = np.random.default_rng(42)
    for _ in range(300):
        m = 1.0
        M = rng.uniform(2.0, 500.0)
        D = 10.0 ** rng.uniform(-3, 3)
        sigma = rng.uniform(5.0, 500.0)  # broad packets
        params = PhysicalParams(m=m, M=M, D=D, sigma=sigma, potential=GAUSS)
        cfg = Model2Config(params, steady_target=True)
        cut, t_E = target_cutoffs(cfg.params), scattering_time(cfg.params)
        if cut["T_z"] <= 0.1 * t_E:  # Zeno condition met -> T_1 condition met
            assert cut["T_1"] <= 0.1 * t_E


def test_config_validation():
    with pytest.raises(ValueError):
        Model2Config(PhysicalParams(M=None, Sigma=1.0))
    with pytest.raises(ValueError):
        Model2Config(PhysicalParams(M=10.0))  # no Sigma, no steady_target
    with pytest.raises(ValueError):
        Model2Config(PhysicalParams(M=10.0, D=0.0), steady_target=True)
    cfg = Model2Config(PhysicalParams(M=10.0, D=2.0), steady_target=True)
    assert cfg.params.Sigma == pytest.approx(steady_target_width(10.0, 2.0), rel=1e-14)


def test_marginal_equals_joint_at_constraint_root():
    # the marginal equals the joint coefficient at the constraint root times
    # the Jacobian M / |p - p_bar|
    cfg = make_cfg(M=10.0, Sigma=1.0)
    p_grid = np.linspace(-2.0, -0.2, 41)
    marginal = marginal_reflected_noenv(cfg, p_grid)
    assert np.all(marginal >= 0.0)
    pb, m, M = cfg.params.p_bar, cfg.params.m, cfg.params.M
    for p, value in zip(p_grid, marginal):
        root = 0.5 * (M * (pb + p) / m - (p - pb))
        at_root = joint_reflected_noenv(cfg, float(p), root).coefficient
        assert value == pytest.approx(at_root * M / abs(p - pb), rel=1e-6)


def test_density_clamp_behavior():
    from qreflect import QuadratureError, clamp_density
    dens = np.array([1.0, 0.5, -5e-7, 0.2])
    out = clamp_density(dens)
    assert np.all(out >= 0.0) and out[2] == 0.0
    with pytest.raises(QuadratureError):
        clamp_density(np.array([1.0, -1e-3]))


@pytest.mark.parametrize("depth, fails", [(1e-3, True), (1.8e-6, False)])
def test_total_floor_is_relative_to_the_peak_over_its_range(monkeypatch, depth, fails):
    # a smooth lobe of depth times the density's peak over [-8, 0] is taken off at
    # p = -7.5, where the density is 1.3e-6 of that peak: the total fails where the
    # dip passes clamp_density's floor, and integrates a shallower one as it is
    from qreflect import QuadratureError
    cfg = make_cfg(M=10.0, Sigma=None, sigma=100.0, steady=True, D=0.1)
    peak = float(np.max(reflected_density_env(cfg, np.linspace(-8.0, 0.0, 801), D=0.1)))
    clean = total_reflected_model2(cfg, [0.1])[0]
    env = model2._env_densities
    lobe = lambda p: depth * peak * np.exp(-(((p + 7.5) / 0.3) ** 2))
    monkeypatch.setattr(model2, "_env_densities",
                        lambda c, p, *rest: [d - lobe(p) for d in env(c, p, *rest)])
    if fails:
        with pytest.raises(QuadratureError, match="density dips to"):
            total_reflected_model2(cfg, [0.1])
    else:
        shift = depth * peak * 0.3 * math.sqrt(math.pi)
        assert total_reflected_model2(cfg, [0.1])[0] == pytest.approx(clean - shift, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_density_clamp_rejects_non_finite(bad):
    from qreflect import QuadratureError, clamp_density
    with pytest.raises(QuadratureError):
        clamp_density(np.array([1.0, bad, 0.2]))


def _traced_envelope_oracle(s, tau, beta, gamma, kappa):
    # two-branch form: (1 - e^-x)/x through expm1 above x = 1e-8, 1 - x/2 below
    s2, rest = s * s, tau - s
    x = kappa * s2 * rest
    big = x > 1e-8
    h = np.where(big, -np.expm1(-x) / np.where(big, x, 1.0), 1.0 - 0.5 * x)
    return rest / tau * h * np.exp(-(beta * s + gamma) * s2)


# x = kappa s^2 (tau - s) at a node: the branch point 1e-8 and both sides of it,
# a subnormal x, and an x that overflows to inf
_X_VALUES = (1e-8 * (1.0 - 1e-12), 1e-8, 1e-8 * (1.0 + 1e-12), 1e-30, 0.3, 700.0,
             5e-324, 1e-310, math.inf)


@settings(max_examples=30, deadline=None)
@given(tau=st.floats(1e-2, 1e3), beta=st.floats(0.0, 10.0), gamma=st.floats(0.0, 10.0),
       inner=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=8),
       x=st.lists(st.sampled_from(_X_VALUES), min_size=1, max_size=8))
def test_traced_envelope_matches_its_two_branch_form(tau, beta, gamma, inner, x):
    # one point per node, so that every node gets the kappa that puts its x where asked;
    # s = 0 and s = tau, where x = 0, close the list
    s = np.array([tau * t for t in inner] + [0.0, tau])
    x = np.resize(np.array(x), s.size)
    with np.errstate(divide="ignore"):
        kappa = x / (s * s * (tau - s))
    kappa[-2:] = 1.0
    beta, gamma = np.full(s.size, beta / tau**3), np.full(s.size, gamma / tau**2)
    i = np.arange(s.size)
    with np.errstate(all="ignore"):  # one panel of one node per point: s and i are (nodes, 1)
        got = model2._traced_envelope(tau, beta, gamma, kappa)(s[:, None], i[:, None])[:, 0] / tau
        want = _traced_envelope_oracle(s, tau, beta, gamma, kappa)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * want + np.finfo(float).tiny)


def test_traced_density_rejects_a_non_finite_envelope_and_a_zero_tau():
    # D = inf: kappa = inf * 0 is nan at delta = 0, so the envelope is nan there
    from qreflect import QuadratureError

    cfg = make_cfg(M=10.0, Sigma=None, sigma=100.0, steady=True, D=1.0)
    with pytest.raises(QuadratureError, match="not finite"):
        reflected_density_env(cfg, np.array([-1.0, 1.0]), D=math.inf)
    with pytest.raises(ValueError, match="tau must be positive"):
        reflected_density_env(make_cfg(M=10.0, Sigma=None, sigma=100.0, steady=True, D=1.0,
                                       tau=0.0), -1.0, D=1.0)


def test_env_density_nonnegative_over_sweep():
    cfg = make_cfg(M=10.0, Sigma=None, sigma=100.0, steady=True, D=0.01)
    pg = np.linspace(-6.0, 0.0, 257, endpoint=False)
    for D in (0.01, 1.0, 100.0):
        c = cfg.with_D(D)
        dens = np.array([reflected_density_env(c, p, D=D) for p in pg])
        assert dens.min() >= -1e-6 * dens.max()


@pytest.mark.parametrize("steady, tau", [(True, None), (False, None), (True, math.inf)])
def test_sweep_totals_equal_their_one_value_calls(steady, tau):
    # one p-integral holds every (barrier, D) point; each total keeps the bits of its
    # own single-D, single-barrier call, a steady target's width following each D
    cfg = make_cfg(M=10.0, Sigma=30.0, sigma=100.0, steady=steady, D=0.5, tau=tau)
    sweep = [0.01, 0.3, 1.0, 10.0]
    barriers = [PotentialSpec.gaussian(0.01, a) for a in (0.1, 0.3)]
    totals = total_reflected_model2(cfg, sweep, barriers=barriers)
    assert totals.shape == (2, 4)
    for row, spec in zip(totals, barriers):
        one = replace(cfg, params=cfg.params.replace(potential=spec))
        assert row.tolist() == [total_reflected_model2(one, [D])[0] for D in sweep]
    assert total_reflected_model2(cfg, sweep).tolist() == totals[0].tolist()


def test_fifty_value_sweep_takes_one_p_integral_within_the_panel_budget(monkeypatch):
    # 50 D values at figure 5's parameters: the batch's largest s-integral call
    # evaluates about 97,000 panels, inside the 400,000 budget, so the sweep never
    # falls back to one p-integral per D
    calls, batch = [], model2.integrate_oscillatory_batch

    def spy(envelope, omega, upper, scale):
        if np.all(np.asarray(omega) == 0.0):
            calls.append(np.size(omega))
        return batch(envelope, omega, upper, scale)

    monkeypatch.setattr(model2, "integrate_oscillatory_batch", spy)
    cfg = make_cfg(M=10.0, Sigma=None, sigma=100.0, steady=True, D=0.01)
    totals = total_reflected_model2(cfg, np.logspace(-2, 2, 50))
    assert calls == [50] and np.all(np.diff(totals) < 0)


def test_a_sweep_reports_the_floor_failure_of_its_own_D(monkeypatch):
    # a lobe below the floor at D = 0.1 alone: the sweep fails with that D's own error
    from qreflect import QuadratureError
    cfg = make_cfg(M=10.0, Sigma=None, sigma=100.0, steady=True, D=0.1)
    env = model2._env_densities

    def dipped(c, p, D, specs, Sigma=None):
        dens = env(c, p, D, specs, Sigma)
        lobe = np.where(np.asarray(D) == 0.1, 1e-3 * np.exp(-(((p + 7.5) / 0.3) ** 2)), 0.0)
        return [d - lobe * np.max(d) for d in dens]

    monkeypatch.setattr(model2, "_env_densities", dipped)
    with pytest.raises(QuadratureError) as one:
        total_reflected_model2(cfg, [0.1])
    with pytest.raises(QuadratureError) as sweep:
        total_reflected_model2(cfg, [1.0, 0.1, 10.0])
    assert str(sweep.value) == str(one.value) and str(one.value).startswith("density dips to")
